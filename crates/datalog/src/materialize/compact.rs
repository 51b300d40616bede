//! Compaction — bounded memory under churn: relations that carry
//! tombstones are rebuilt live-only and every row id the store holds is
//! remapped. `BENCHMARK.json`: `materialize.compact_ms`,
//! `materialize.compactions`, `materialize.dead_rows_peak` and the
//! `materialize.*_words` counts ([`MemStats`]).

use super::{Materialization, RelJust};
use crate::storage::NO_ROW;

/// When [`Materialization::apply`] triggers an automatic
/// [`Materialization::compact`]: any relation whose tombstoned-row count
/// reaches both bounds trips the whole-store pass. The serving layer
/// ([`crate::server`]) checks the same policy but defers the pass while
/// any epoch snapshot is pinned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompactionPolicy {
    /// Minimum tombstoned rows in one relation (keeps tiny stores from
    /// compacting on every round).
    pub min_dead_rows: usize,
    /// Tombstoned-row share of the relation, in percent: trigger when
    /// `dead * 100 >= dead_percent * rows`.
    pub dead_percent: u32,
}

impl Default for CompactionPolicy {
    /// Compact when a relation is at least half dead (and has at least
    /// 64 tombstones to show for it).
    fn default() -> Self {
        Self {
            min_dead_rows: 64,
            dead_percent: 50,
        }
    }
}

/// A memory snapshot of the store's row-addressed structures, in units
/// of one 32/64-bit word (not bytes: the point is growth *ratios* under
/// churn, which the bounded-memory tests gate on). See
/// [`Materialization::mem_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Live (non-tombstoned) rows across all relations.
    pub live_rows: usize,
    /// Total row slots ever allocated (live + tombstoned).
    pub total_rows: usize,
    /// Words of tuple data (`Σ rows × arity`).
    pub tuple_words: usize,
    /// Words held by the join indexes (chain + key tables + frozen
    /// posting pools — `seg_words` is included here, so the bounded-
    /// memory gates cover the segment storage too).
    pub index_words: usize,
    /// Words held by the frozen posting pools alone (a subset of
    /// `index_words`, reported separately so the benchmark can show the
    /// segment share).
    pub seg_words: usize,
    /// Words of packed justification entries (offsets + buffers).
    pub just_words: usize,
    /// Words held by the reverse-dependency index, which every recording
    /// store carries from construction. Edges of dead rows stay until the
    /// next compaction; those a save left stale until the round that
    /// finds them a tenth of the index.
    pub rev_words: usize,
}

impl MemStats {
    /// Every word tracked: tuples, indexes, justifications and the
    /// reverse index. What the bounded-memory gate compares
    /// (`tests/engine_equiv.rs`, peak under churn against a fresh store).
    pub fn total_words(&self) -> usize {
        self.tuple_words + self.index_words + self.just_words + self.rev_words
    }
}

impl Materialization {
    /// How many [`Materialization::compact`] passes have run (automatic
    /// and explicit).
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Replaces the automatic compaction policy (`None` disables
    /// automatic compaction; explicit [`Materialization::compact`] calls
    /// still work).
    pub fn set_compaction_policy(&mut self, policy: Option<CompactionPolicy>) {
        self.policy = policy;
    }

    /// The automatic-compaction policy currently in force.
    pub fn compaction_policy(&self) -> Option<CompactionPolicy> {
        self.policy
    }

    /// Whether the policy says a compaction pass is due: some relation's
    /// tombstone count reaches both policy bounds. The serving layer
    /// polls this and defers the pass while snapshots are pinned.
    pub(crate) fn needs_compaction(&self) -> bool {
        let Some(p) = self.policy else {
            return false;
        };
        self.rels.iter().any(|r| {
            let dead = r.num_dead();
            dead >= p.min_dead_rows && dead * 100 >= p.dead_percent as usize * r.num_rows()
        })
    }

    /// Rebuilds every relation that carries tombstones with live rows
    /// only — row store, dedup table, join-index chains, packed
    /// justification buffers, and the reverse-dependency index — and
    /// remaps row ids through dense old→new maps. Returns the number of
    /// dead rows reclaimed (0 = nothing to do, store untouched).
    ///
    /// Justifications make the remap purely mechanical: DRed guarantees a
    /// live row's recorded body rows are live, so no live entry can
    /// reference a reclaimed row. Watermarks are re-pinned at the (still
    /// current) fixpoint. Results, [`crate::eval::EvalStats`] and
    /// subsequent update behavior are unchanged; only row ids move.
    ///
    /// **Serving caveat:** compaction frees tombstoned rows regardless of
    /// their epoch tags, so it must not run while an epoch snapshot is
    /// pinned — [`crate::server::Server`] defers it until the last unpin.
    pub fn compact(&mut self) -> usize {
        // Rebuild every relation with any dead rows (not just the ones
        // over the policy threshold): afterwards the whole store is
        // tombstone-free, which keeps the remap invariant trivial.
        let mut remaps: Vec<Option<Vec<u32>>> = Vec::with_capacity(self.rels.len());
        let mut reclaimed = 0usize;
        for rel in &mut self.rels {
            if rel.num_dead() > 0 {
                reclaimed += rel.num_dead();
                remaps.push(Some(rel.compact()));
            } else {
                remaps.push(None);
            }
        }
        if reclaimed == 0 {
            return 0;
        }

        // Justifications: drop dead heads, remap every body row id
        // (identity for relations that had no dead rows). Visiting old
        // rows in order keeps the new store parallel to the compacted
        // row ids, because the remap is order-preserving.
        if let Some(prov) = &mut self.prov {
            let mut body_scratch: Vec<u32> = Vec::new();
            for hrel in (0..self.rels.len()).filter(|&r| self.idb_flag[r]) {
                let old = std::mem::take(&mut prov[hrel]);
                let mut new = RelJust::default();
                for (hrow, (rule, body)) in old.entries().enumerate() {
                    if remaps[hrel].as_ref().is_some_and(|m| m[hrow] == NO_ROW) {
                        continue;
                    }
                    body_scratch.clear();
                    for (&brel, &brow) in self.plans[rule as usize][0].body_rels.iter().zip(body) {
                        let nb = match &remaps[brel as usize] {
                            Some(m) => m[brow as usize],
                            None => brow,
                        };
                        debug_assert_ne!(
                            nb, NO_ROW,
                            "live justification references a reclaimed row"
                        );
                        body_scratch.push(nb);
                    }
                    new.push(rule, &body_scratch);
                }
                prov[hrel] = new;
            }
        }

        // Join indexes over rebuilt relations re-hash from scratch (the
        // chains embed row ids); untouched relations keep theirs.
        for idx in &mut self.idxs {
            if remaps[idx.rel()].is_some() {
                idx.reset();
                idx.extend(&self.rels[idx.rel()]);
            }
        }

        // The store sits at a fixpoint (compaction runs between rounds),
        // so the watermark of every rebuilt relation re-pins at its new
        // row count. (The others already sit at theirs — except a
        // template store's external placeholders, whose watermarks are
        // positions in the base's relations and must stay.)
        for (r, remap) in remaps.iter().enumerate() {
            if remap.is_some() {
                self.old_hi[r] = self.rels[r].num_rows();
            }
        }

        // The reverse index embeds row ids on both sides; rebuild it
        // live-only (also shedding stale edges).
        self.rev = self.build_rev_index();

        // Row ids moved: what the last round retracted names nothing now.
        self.last_retracted.clear();
        self.compactions += 1;
        reclaimed
    }

    /// A memory snapshot of the row-addressed structures (tuple data,
    /// join indexes, justifications, reverse index), in words — what the
    /// bounded-memory tests gate on to prove compaction bounds the store.
    pub fn mem_stats(&self) -> MemStats {
        let mut s = MemStats::default();
        for rel in &self.rels {
            s.live_rows += rel.num_rows() - rel.num_dead();
            s.total_rows += rel.num_rows();
            s.tuple_words += rel.num_rows() * rel.arity();
        }
        for idx in &self.idxs {
            s.index_words += idx.footprint_words();
            s.seg_words += idx.seg_pool_words();
        }
        if let Some(prov) = &self.prov {
            for rj in prov {
                s.just_words += rj.footprint_words();
            }
        }
        s.rev_words = self.rev.footprint_words();
        s
    }
}
