//! Storage micro-kernels: a `ColumnarRelation` and two
//! `IncrementalIndex`es driven directly, outside any evaluation, so a
//! change to the storage layer shows here before it shows (diluted) in
//! `setup_s` or `batch_original_s`. The input is fixed — the kernels
//! are the same on every workload and seed.

use std::hint::black_box;

use selprop_datalog::ast::Const;
use selprop_datalog::storage::{ColumnarRelation, IncrementalIndex, NO_ROW};

use crate::trace::Tracer;

/// Mean rows per first-column key in the kernel relation (the posting
/// length a `probe1` walks).
pub const ROWS_PER_KEY: usize = 16;

/// Nanoseconds per unit of each kernel.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelTimes {
    /// `ColumnarRelation::insert`, per row.
    pub insert_ns_per_row: f64,
    /// `ColumnarRelation::contains`, per lookup (all present).
    pub contains_ns: f64,
    /// `IncrementalIndex::extend` over the whole relation, per row.
    pub extend_ns_per_row: f64,
    /// `probe1_range` + walking the posting, per probe.
    pub probe1_ns: f64,
    /// Two-column `probe_range` + its one match, per probe.
    pub probe_ns: f64,
    /// `ColumnarRelation::tombstone`, per row killed.
    pub tombstone_ns: f64,
    /// `ColumnarRelation::compact` of a half-dead relation, per row.
    pub compact_ns_per_row: f64,
}

/// Runs the kernels once over `rows` rows, one span each.
pub fn run(rows: usize, tr: &mut Tracer) -> KernelTimes {
    // Distinct pairs: the second column is unique, the first repeats
    // ROWS_PER_KEY times, in a scrambled order.
    let keys = (rows / ROWS_PER_KEY).max(1);
    let data: Vec<[Const; 2]> = (0..rows)
        .map(|i| {
            let k = (i.wrapping_mul(0x9E37_79B1) >> 7) % keys;
            [Const(k as u32), Const((keys + i) as u32)]
        })
        .collect();
    let per = |ns: u64, n: usize| ns as f64 / n.max(1) as f64;

    let mut rel = ColumnarRelation::new(2);
    let insert = tr.span("storage.insert", |_| {
        for r in &data {
            rel.insert(r);
        }
    });
    assert_eq!(rel.num_rows(), rows, "kernel rows are distinct");
    let contains = tr.span("storage.contains", |_| {
        let mut hits = 0usize;
        for r in &data {
            hits += usize::from(rel.contains(r));
        }
        assert_eq!(black_box(hits), rows);
    });
    let mut idx1 = IncrementalIndex::new(0, vec![0]);
    let extend = tr.span("storage.extend", |_| idx1.extend(&rel));
    let mut idx2 = IncrementalIndex::new(0, vec![0, 1]);
    idx2.extend(&rel);
    let probes = rows / ROWS_PER_KEY * 4;
    let probe1 = tr.span("storage.probe1", |_| {
        let mut matches = 0usize;
        for i in 0..probes {
            let mut p = idx1.probe1_range(&rel, Const((i % keys) as u32), 0, rows);
            while idx1.next_match(&mut p) != NO_ROW {
                matches += 1;
            }
        }
        black_box(matches);
    });
    let probe = tr.span("storage.probe", |_| {
        let mut matches = 0usize;
        for r in &data {
            let mut p = idx2.probe_range(&rel, r, 0, rows);
            matches += usize::from(idx2.next_match(&mut p) != NO_ROW);
        }
        assert_eq!(black_box(matches), rows);
    });
    let tombstone = tr.span("storage.tombstone", |_| {
        for r in (0..rows).step_by(2) {
            rel.tombstone(r);
        }
    });
    let compact = tr.span("storage.compact", |_| {
        black_box(rel.compact());
    });
    KernelTimes {
        insert_ns_per_row: per(insert.0, rows),
        contains_ns: per(contains.0, rows),
        extend_ns_per_row: per(extend.0, rows),
        probe1_ns: per(probe1.0, probes),
        probe_ns: per(probe.0, rows),
        tombstone_ns: per(tombstone.0, rows.div_ceil(2)),
        compact_ns_per_row: per(compact.0, rows),
    }
}

impl KernelTimes {
    /// Field-wise minimum (the kernels repeat; interference only adds).
    pub fn min(self, o: Self) -> Self {
        Self {
            insert_ns_per_row: self.insert_ns_per_row.min(o.insert_ns_per_row),
            contains_ns: self.contains_ns.min(o.contains_ns),
            extend_ns_per_row: self.extend_ns_per_row.min(o.extend_ns_per_row),
            probe1_ns: self.probe1_ns.min(o.probe1_ns),
            probe_ns: self.probe_ns.min(o.probe_ns),
            tombstone_ns: self.tombstone_ns.min(o.tombstone_ns),
            compact_ns_per_row: self.compact_ns_per_row.min(o.compact_ns_per_row),
        }
    }
}
