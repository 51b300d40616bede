//! Flat columnar storage for the fixpoint engine.
//!
//! The evaluator's hot loop touches three structures, all allocation-free
//! per tuple:
//!
//! - [`ColumnarRelation`] — a predicate's extension as one flat
//!   `Vec<Const>` with an arity stride. A tuple is a **row**: a `&[Const]`
//!   slice into the column store, identified by a dense `u32` row id in
//!   insertion order. An open-addressing row table (keyed with the
//!   in-tree [`crate::hash::FxHasher`]) deduplicates rows on insert.
//! - [`IncrementalIndex`] — a persistent hash index over one relation and
//!   one column **mask** (the bound argument positions of a join step).
//!   Extending it with freshly appended rows is incremental, so
//!   semi-naive iterations never rebuild an index.
//! - watermarks — because relations are append-only, the semi-naive
//!   snapshots `old ⊆ full` and the per-iteration `delta` are just row
//!   ranges: `old = [0, old_hi)`, `delta = [old_hi, len)`, `full =
//!   [0, len)`. No cloning, no separate set/vec duplication.
//!
//! An index enumerates a key's rows in strictly decreasing row-id order,
//! and that is what makes one index serve all three snapshots: a
//! traversal takes the `delta` rows as a prefix and the `old` rows as the
//! remaining suffix.
//!
//! # Layouts
//!
//! A key's rows sit in one of three layouts, chosen per key and never
//! visible to a probe, which enumerates the same rows in the same order
//! from each:
//!
//! - **Inline** — a key with one row keeps that row in its key-table
//!   slot: no key record, no posting. Most keys of a join on a
//!   functional column have one row, and cost one slot.
//! - **Chained** — recently indexed rows of a key with more are chained
//!   newest-first through a flat `next` array.
//! - **Segmented** — the cold portion of a key's rows is one contiguous,
//!   descending run of row ids in a shared pool. A probe walks the short
//!   hot chain and then scans the segment linearly — no pointer-chasing
//!   through the cold store — and snapshot bounds clip the segment by
//!   binary search instead of walking past it row by row.
//!
//! An index built over rows that already exist — a first registration, a
//! reset after compaction, a restore, a build's first round — is counted
//! and laid out in one pass: the key table is sized once from the key
//! count, and every key with two rows or more gets its segment directly.
//! Rows appended later are chained, and the chains are folded into the
//! segments when they outgrow them, so total rebuild work stays O(rows).
//!
//! A single-column index keeps raw key values in its key records and
//! compares an inline slot through its row's value: probes hash one
//! `u32` and compare one `u32`, never materializing a key slice. The hash
//! is bit-identical to the general path's, so the two key-table kinds
//! are interchangeable.
//!
//! The [`Posting`] cursor hides the layouts, so the join machinery never
//! sees where a row is stored.
//!
//! # Row ids
//!
//! A row id is a `u32` from the moment the append behind
//! [`ColumnarRelation::insert`] makes it, and a relation holds at most
//! [`MAX_ROWS`] rows: the one ceiling, checked by that append before it
//! writes and by the snapshot decoder. Everything else only widens an id
//! to index a slice, and walks a row range by `ColumnarRelation::row_ids`.
//! The ceiling is `2^31 - 1` because an index tags a key's one inline row
//! with the top bit (`INLINE | row`); below it, every sentinel lies
//! outside the id range (asserted at compile time).

use crate::ast::Const;
use crate::hash::{hash_ids, FxHashMap};
use std::ops::Bound::{Excluded, Included, Unbounded};
use std::ops::{Range, RangeBounds};

/// Sentinel row id: "no row" / end of an index chain.
pub const NO_ROW: u32 = u32::MAX;

/// The most rows a relation holds (module docs, "Row ids").
pub const MAX_ROWS: usize = (1 << 31) - 1;

/// Dedup-table sentinel for a slot whose row was tombstoned. Probes
/// continue past it (the slot may sit mid-chain); inserts may reuse it.
const TOMB_SLOT: u32 = u32::MAX - 1;

/// Sentinel key-record id: "no key" in an index's key table.
const NO_KEY: u32 = u32::MAX;

/// Tag bit of a key-table slot that holds its key's one row inline
/// (`INLINE | row`) rather than a key-record id.
const INLINE: u32 = 1 << 31;

// No row id is a sentinel or carries the tag, and no inline slot is
// `NO_KEY`: one ceiling serves all four sentinels.
const _: () = assert!(NO_ROW as usize >= MAX_ROWS && TOMB_SLOT as usize >= MAX_ROWS);
const _: () = assert!(INLINE as usize >= MAX_ROWS && (INLINE | (MAX_ROWS as u32 - 1)) < NO_KEY);

/// The id of the row a relation of `rows` rows appends next: the one
/// check of the ceiling, which panics at [`MAX_ROWS`] rows.
fn next_row_id(rows: usize) -> u32 {
    assert!(rows < MAX_ROWS, "a relation holds at most {MAX_ROWS} rows");
    id(rows)
}

/// A row id, key-record id or pool offset as storage holds it. Each is
/// at most a relation's row count, which [`next_row_id`] bounded.
#[inline]
fn id(n: usize) -> u32 {
    debug_assert!(n <= MAX_ROWS, "row-id ceiling");
    n as u32
}

/// Partitions the row range `[lo, hi)` into `shards` contiguous
/// subranges for the parallel evaluator, returned **top-down**: the
/// first subrange covers the newest (highest-id) rows. Subrange sizes
/// differ by at most one; when the range has fewer rows than `shards`,
/// the trailing subranges are empty.
///
/// Top-down order matters for determinism: index chains are traversed
/// newest-first, so concatenating per-shard results in this order
/// reproduces the sequential engine's enumeration order whenever the
/// sharded (delta) step is the first step of a join.
pub fn shard_ranges(lo: usize, hi: usize, shards: usize) -> Vec<(usize, usize)> {
    assert!(shards >= 1, "need at least one shard");
    assert!(lo <= hi, "inverted row range");
    let n = hi - lo;
    let base = n / shards;
    let extra = n % shards;
    let mut out = Vec::with_capacity(shards);
    let mut top = hi;
    for s in 0..shards {
        let size = base + usize::from(s < extra);
        out.push((top - size, top));
        top -= size;
    }
    debug_assert_eq!(top, lo);
    out
}

/// A relation stored as one flat column-major-free `Vec<Const>` with an
/// arity stride, plus a row-id hash table for O(1) dedup and membership.
///
/// Equality compares the full insertion-ordered contents (row ids
/// included), which is what the provenance determinism tests assert.
///
/// # Tombstones
///
/// Rows can be **tombstoned** ([`ColumnarRelation::tombstone`]) for the
/// incremental maintenance layer's delete–rederive: the row's data stays
/// in place (row ids never shift — index chains and recorded
/// justifications keep referencing them), but it leaves the dedup table
/// (`contains`/`find_row` report it absent; re-inserting the same tuple
/// appends a **new** row id) and [`ColumnarRelation::is_live`] turns
/// false, which the join machinery checks before matching a row.
///
/// # Epoch-tagged tombstones (snapshot reads)
///
/// The serving layer ([`crate::server`]) needs point-in-time reads while
/// the writer keeps mutating. Append-only row ids make the *insert* side
/// of a snapshot free — a per-relation row-count frontier bounds what a
/// reader may see — but tombstones mutate in place. So a relation can be
/// moved into **epoch mode** ([`ColumnarRelation::set_epoch`] with a
/// nonzero epoch): from then on each tombstone records the epoch it died
/// in, and [`ColumnarRelation::visible_at`] resurrects rows that died
/// *after* a reader's pinned epoch. Relations that never enter epoch mode
/// (every plain [`crate::materialize::Materialization`]) pay nothing: the
/// side table stays empty and untouched.
///
/// Reclamation is compaction-free: once no reader is pinned below epoch
/// `e`, [`ColumnarRelation::reclaim_tombstones`] drops the tags `<= e` —
/// an untagged dead row is simply dead at every pinnable epoch.
#[derive(Clone, Debug, Default)]
pub struct ColumnarRelation {
    arity: usize,
    /// Row-major tuple data: row `r` occupies `data[r*arity .. (r+1)*arity]`.
    data: Vec<Const>,
    /// Number of rows (kept explicitly so 0-ary relations work).
    rows: usize,
    /// Open-addressing dedup table over row ids (capacity is a power of
    /// two; `NO_ROW` marks an empty slot, [`TOMB_SLOT`] a deleted one).
    slots: Vec<u32>,
    /// Restore fast path: the dedup table is **write-path** state (only
    /// insert/retract/merge probe it — reads go through the rows and
    /// the join indexes), so [`ColumnarRelation::from_persist`] defers
    /// its O(rows) rebuild until the first mutating touch instead of
    /// charging it to every restart. While stale, `slots` is empty and
    /// must not be consulted; the mutating entry points rebuild first.
    slots_stale: bool,
    /// Tombstone bitset, allocated lazily on the first
    /// [`ColumnarRelation::tombstone`]; empty means every row is live.
    dead: Vec<u64>,
    /// Number of tombstoned rows.
    dead_rows: usize,
    /// The epoch new tombstones are tagged with; 0 = epoch mode off.
    epoch: u64,
    /// Death epoch per tombstoned row, populated only in epoch mode. A
    /// dead row absent from this table died "before memory": invisible
    /// at every epoch still pinnable.
    tomb_at: FxHashMap<u32, u64>,
}

/// Semantic equality: compares the rows, tombstones and epoch tags, but
/// **not** the dedup table's slot layout. The slot layout is
/// probe-history dependent — the same reason [`crate::persist`] rebuilds
/// it on restore instead of serializing it: pre-sizing the table for a
/// batched merge can leave a different capacity than one-at-a-time
/// growth without changing any observable row id, enumeration order or
/// justification.
impl PartialEq for ColumnarRelation {
    fn eq(&self, other: &Self) -> bool {
        self.arity == other.arity
            && self.data == other.data
            && self.rows == other.rows
            && self.dead == other.dead
            && self.dead_rows == other.dead_rows
            && self.epoch == other.epoch
            && self.tomb_at == other.tomb_at
    }
}

impl Eq for ColumnarRelation {}

impl ColumnarRelation {
    /// Creates an empty relation of the given arity.
    pub fn new(arity: usize) -> Self {
        Self {
            arity,
            data: Vec::new(),
            rows: 0,
            slots: Vec::new(),
            slots_stale: false,
            dead: Vec::new(),
            dead_rows: 0,
            epoch: 0,
            tomb_at: FxHashMap::default(),
        }
    }

    /// The arity (row stride).
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of rows.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// The flat tuple data (`num_rows() * arity()` constants).
    #[inline]
    pub fn data(&self) -> &[Const] {
        &self.data
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: u32) -> &[Const] {
        let lo = r as usize * self.arity;
        &self.data[lo..lo + self.arity]
    }

    /// The value at row `r`, column `col`.
    #[inline]
    pub fn value(&self, r: u32, col: usize) -> Const {
        self.data[r as usize * self.arity + col]
    }

    /// The ids of the rows in `range`, clipped to the relation (`..` for
    /// every row): how the crate walks a row range by id.
    #[inline]
    pub(crate) fn row_ids(&self, range: impl RangeBounds<usize>) -> Range<u32> {
        let lo = match range.start_bound() { Included(&n) => n, Excluded(&n) => n + 1, Unbounded => 0 };
        let hi = match range.end_bound() { Included(&n) => n + 1, Excluded(&n) => n, Unbounded => self.rows };
        id(lo.min(self.rows))..id(hi.min(self.rows))
    }

    /// Number of live (non-tombstoned) rows.
    #[inline]
    pub fn num_live(&self) -> usize {
        self.rows - self.dead_rows
    }

    /// Whether row `r` is live (not tombstoned). Cheap: one bounds check
    /// when the relation has never been tombstoned (the bitset is empty,
    /// and rows appended after a tombstone may also lie past its end).
    #[inline]
    pub fn is_live(&self, r: u32) -> bool {
        match self.dead.get(r as usize >> 6) {
            None => true,
            Some(w) => (w >> (r & 63)) & 1 == 0,
        }
    }

    /// The tombstoned rows' ids, ascending: one step per dead row and
    /// per bitset word.
    pub(crate) fn dead_row_ids(&self) -> impl Iterator<Item = u32> + '_ {
        (0u32..).step_by(64).zip(&self.dead).flat_map(|(base, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                (w != 0).then(|| {
                    let bit = w.trailing_zeros();
                    w &= w - 1;
                    base + bit
                })
            })
        })
    }

    /// Iterates over the **live** rows in insertion order.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[Const]> {
        self.row_ids(..)
            .filter(move |&r| self.is_live(r))
            .map(move |r| self.row(r))
    }

    /// Enters (or advances) epoch mode: tombstones created from now on
    /// are tagged with `epoch`, so [`ColumnarRelation::visible_at`] can
    /// serve reads pinned at earlier epochs. Epochs must be nonzero and
    /// non-decreasing across calls (the serving layer's round counter).
    pub fn set_epoch(&mut self, epoch: u64) {
        debug_assert!(epoch >= self.epoch, "epochs never go backwards");
        self.epoch = epoch;
    }

    /// Whether row `r` is visible to a reader pinned at `epoch`: live, or
    /// tombstoned in a *later* epoch (the reader pinned before the row
    /// died). Rows at ids `>= frontier` of the reader's pinned snapshot
    /// must be excluded by the caller — this checks liveness only.
    #[inline]
    pub fn visible_at(&self, r: u32, epoch: u64) -> bool {
        self.is_live(r) || self.tomb_at.get(&r).is_some_and(|&te| te > epoch)
    }

    /// Iterates the rows of the pinned snapshot `(frontier, epoch)`:
    /// row ids below `frontier` (the relation's row count when the
    /// snapshot was pinned) that are visible at `epoch`, in insertion
    /// order.
    pub fn rows_iter_at(&self, frontier: usize, epoch: u64) -> impl Iterator<Item = &[Const]> {
        self.row_ids(..frontier)
            .filter(move |&r| self.visible_at(r, epoch))
            .map(move |r| self.row(r))
    }

    /// Drops the death-epoch tags `<= min_epoch` (no reader is pinned at
    /// or below it any more): the rows stay dead, just untagged — dead at
    /// every epoch still pinnable. Compaction-free reclamation.
    pub fn reclaim_tombstones(&mut self, min_epoch: u64) {
        self.tomb_at.retain(|_, te| *te > min_epoch);
    }

    /// The death-epoch tags still held (serving-layer metadata).
    #[cfg(test)]
    pub(crate) fn tomb_tags(&self) -> &FxHashMap<u32, u64> {
        &self.tomb_at
    }

    /// The dedup hash of a tuple — the one [`ColumnarRelation::insert`]
    /// probes with. Callers that test membership first and insert later
    /// compute it **once** and pass it to the `_hashed` variants,
    /// eliminating the find-then-insert double hash on the staged-merge
    /// path.
    #[inline]
    pub(crate) fn hash_row(row: &[Const]) -> u64 {
        hash_ids(row.iter().map(|c| c.0))
    }

    /// Membership test (O(1) expected).
    pub fn contains(&self, row: &[Const]) -> bool {
        self.find_row(row) != NO_ROW
    }

    /// [`ColumnarRelation::contains`] with a memoized
    /// [`ColumnarRelation::hash_row`] hash.
    #[inline]
    pub(crate) fn contains_hashed(&self, row: &[Const], hash: u64) -> bool {
        self.find_row_hashed(row, hash) != NO_ROW
    }

    /// The row id of a tuple, or [`NO_ROW`] if absent (O(1) expected).
    /// Row ids are dense and stable: the provenance subsystem uses them
    /// as node identities of the justification DAG.
    pub fn find_row(&self, row: &[Const]) -> u32 {
        self.find_row_hashed(row, Self::hash_row(row))
    }

    fn find_row_hashed(&self, row: &[Const], hash: u64) -> u32 {
        debug_assert_eq!(row.len(), self.arity);
        debug_assert!(
            !self.slots_stale,
            "dedup probe on a freshly restored relation: a mutating entry \
             point skipped Materialization::ensure_dedup"
        );
        if self.slots.is_empty() {
            return NO_ROW;
        }
        let mask = self.slots.len() - 1;
        let mut i = (hash as usize) & mask;
        loop {
            let s = self.slots[i];
            if s == NO_ROW {
                return NO_ROW;
            }
            if s != TOMB_SLOT && self.row(s) == row {
                return s;
            }
            i = (i + 1) & mask;
        }
    }

    /// Pre-sizes the dedup table for `additional` upcoming inserts, so a
    /// batched merge never rehashes mid-flight. Growth stays geometric —
    /// the table never shrinks, and per-insert growth remains as the
    /// backstop for callers that skip the reservation.
    pub(crate) fn reserve_rows(&mut self, additional: usize) {
        self.ensure_slots();
        let want = self.rows + additional;
        if (want + 1) * 2 > self.slots.len() {
            self.grow_to(table_cap(want + 1));
        }
    }

    /// Appends a row if it is not already present **and live**; returns
    /// whether it was new. Row ids are dense and assigned in insertion
    /// order; re-inserting a tombstoned tuple appends a fresh row id
    /// (the dead row stays dead).
    ///
    /// # Panics
    ///
    /// If the tuple's arity is not the relation's, or if the row would be
    /// past the ceiling: a relation holds at most [`MAX_ROWS`] rows, and
    /// the append refuses the next one before it writes anything.
    pub fn insert(&mut self, row: &[Const]) -> bool {
        self.insert_hashed(row, Self::hash_row(row)).is_some()
    }

    /// [`ColumnarRelation::insert`] with a memoized
    /// [`ColumnarRelation::hash_row`] hash: the append, which returns the
    /// new row's id (`None` if the tuple is present).
    pub(crate) fn insert_hashed(&mut self, row: &[Const], hash: u64) -> Option<u32> {
        assert_eq!(row.len(), self.arity, "tuple arity mismatch");
        self.ensure_slots();
        if (self.rows + 1) * 2 > self.slots.len() {
            self.grow_to((self.slots.len() * 2).max(8));
        }
        let mask = self.slots.len() - 1;
        let mut i = (hash as usize) & mask;
        // First reusable (tombstoned) slot on the probe path, if any.
        let mut reuse: Option<usize> = None;
        loop {
            let s = self.slots[i];
            if s == NO_ROW {
                let id = next_row_id(self.rows);
                self.slots[reuse.unwrap_or(i)] = id;
                self.data.extend_from_slice(row);
                self.rows += 1;
                return Some(id);
            }
            if s == TOMB_SLOT {
                reuse.get_or_insert(i);
            } else if self.row(s) == row {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Tombstones a live row: removes it from the dedup table and marks
    /// it dead. Returns whether the row was live. The row data and id
    /// stay in place — index chains and recorded justifications keep
    /// addressing it; only [`ColumnarRelation::is_live`] flips.
    pub fn tombstone(&mut self, r: usize) -> bool {
        assert!(r < self.rows, "tombstone of nonexistent row");
        let r = id(r);
        if !self.is_live(r) {
            return false;
        }
        self.ensure_slots();
        let words = self.rows.div_ceil(64);
        if self.dead.len() < words {
            self.dead.resize(words, 0);
        }
        self.dead[r as usize >> 6] |= 1 << (r & 63);
        self.dead_rows += 1;
        if self.epoch > 0 {
            self.tomb_at.insert(r, self.epoch);
        }
        // Unlink from the dedup table (the slot may sit mid-probe-chain,
        // so it becomes TOMB_SLOT, not NO_ROW).
        let mask = self.slots.len() - 1;
        let mut i = (Self::hash_row(self.row(r)) as usize) & mask;
        loop {
            let s = self.slots[i];
            debug_assert_ne!(s, NO_ROW, "live row must be in the dedup table");
            if s == r {
                self.slots[i] = TOMB_SLOT;
                return true;
            }
            i = (i + 1) & mask;
        }
    }

    /// Re-slots every live row into a fresh dedup table of `cap` slots.
    fn grow_to(&mut self, cap: usize) {
        debug_assert!(cap.is_power_of_two());
        self.slots = vec![NO_ROW; cap];
        let mask = cap - 1;
        for r in self.row_ids(..) {
            if !self.is_live(r) {
                continue; // tombstoned rows stay out of the dedup table
            }
            let mut i = (Self::hash_row(self.row(r)) as usize) & mask;
            while self.slots[i] != NO_ROW {
                i = (i + 1) & mask;
            }
            self.slots[i] = r;
        }
    }

    /// Rebuilds the dedup table from scratch over the live rows, sized
    /// for the current row count (used after compaction and on the first
    /// write after restore — the probe-history-dependent slot layout is
    /// not serialized).
    fn rebuild_slots(&mut self) {
        self.slots_stale = false;
        if self.rows == 0 {
            self.slots = Vec::new();
            return;
        }
        self.grow_to(table_cap(self.rows + 1));
    }

    /// Number of tombstoned rows.
    #[inline]
    pub fn num_dead(&self) -> usize {
        self.dead_rows
    }

    /// **Compacts** the relation: drops every tombstoned row, renumbers
    /// the survivors densely in their original order, and rebuilds the
    /// dedup table. Returns the old→new row-id map (`remap[old]`, with
    /// [`NO_ROW`] for dropped rows); callers must remap every structure
    /// that addresses rows by id (index chains, recorded justifications).
    ///
    /// Epoch tags are cleared: compaction is only legal when no reader
    /// is pinned below the current epoch (the serving layer defers it
    /// until the last unpin), at which point every tag is unobservable.
    /// The epoch itself is preserved.
    pub fn compact(&mut self) -> Vec<u32> {
        let mut remap = vec![NO_ROW; self.rows];
        let mut data = Vec::with_capacity((self.rows - self.dead_rows) * self.arity.max(1));
        let mut next = 0u32;
        for (r, slot) in self.row_ids(..).zip(&mut remap) {
            if self.is_live(r) {
                *slot = next;
                data.extend_from_slice(self.row(r));
                next += 1;
            }
        }
        self.data = data;
        self.rows = next as usize;
        self.dead = Vec::new();
        self.dead_rows = 0;
        self.tomb_at = FxHashMap::default();
        self.rebuild_slots();
        remap
    }

    // -----------------------------------------------------------------
    // Serialization support (crate::persist)
    // -----------------------------------------------------------------

    /// The tombstone bitset words (may be shorter than `rows/64`; missing
    /// words mean live).
    pub(crate) fn dead_words(&self) -> &[u64] {
        &self.dead
    }

    /// Reassembles a relation from its serialized parts: `rows` rows of
    /// `data` and the tombstone bitset `dead`, whose popcount is the
    /// tombstoned-row count. It comes back out of epoch mode and with no
    /// death-epoch tags — a snapshot holds none, as no reader pinned
    /// before a restart survives it; the store sets its epoch. The dedup
    /// table (slot layout is probe-history dependent and is not
    /// persisted) is **not** rebuilt here: it is write-path state, so the
    /// rebuild is deferred to the first mutating touch
    /// ([`ColumnarRelation::ensure_slots`]) — a restored store that only
    /// serves reads never pays the O(rows) rehash.
    pub(crate) fn from_persist(arity: usize, data: Vec<Const>, rows: usize, dead: Vec<u64>) -> Self {
        debug_assert!(rows <= MAX_ROWS, "the decoder checks the row ceiling");
        Self {
            data,
            rows,
            slots_stale: rows > 0,
            dead_rows: dead.iter().map(|w| w.count_ones() as usize).sum(),
            dead,
            ..Self::new(arity)
        }
    }

    /// Rebuilds the dedup table if a restore left it stale. Cheap when
    /// fresh (one branch); the mutating entry points of
    /// [`crate::materialize::Materialization`] call it before any code
    /// path can probe the table.
    pub(crate) fn ensure_slots(&mut self) {
        if self.slots_stale {
            self.rebuild_slots();
        }
    }
}

/// Rows a bulk build samples to size its key table
/// ([`IncrementalIndex::estimate_keys`]).
const KEY_SAMPLE: usize = 1024;

/// The size of an open-addressing table — an index's key table, a
/// relation's dedup table — for `keys` entries: a power of two, at most
/// half full.
fn table_cap(keys: usize) -> usize {
    (2 * keys).next_power_of_two().max(8)
}

/// Hot-chain size that triggers a freeze, and the floor under which an
/// index never bothers building segments. Freezing when the hot chains
/// outgrow `max(SEG_MIN_HOT, frozen)` means the frozen store at least
/// doubles per freeze, so total freeze work is O(rows) over any insert
/// history.
const SEG_MIN_HOT: usize = 64;

/// The hash of a single-column key value — identical to [`hash_ids`]
/// over the one-element projection, so the single-key and general key
/// tables hash compatibly.
#[inline]
fn hash1(v: u32) -> u64 {
    hash_ids([v])
}

/// The hash of row `r`'s key under `mask`.
fn key_hash(mask: &[usize], rel: &ColumnarRelation, r: u32) -> u64 {
    hash_ids(mask.iter().map(|&p| rel.value(r, p).0))
}

/// Whether rows `a` and `b` agree on `mask`.
fn keys_equal(mask: &[usize], rel: &ColumnarRelation, a: u32, b: u32) -> bool {
    mask.iter().all(|&p| rel.value(a, p) == rel.value(b, p))
}

// The key-table readers below take the table's parts rather than the
// index, so that a build can hold the slots and records it writes apart.

/// The raw key value of occupied slot `s` of a single-column key table
/// over column `col` of the rows `data` (stride `arity`): the key
/// record's, or the inline row's value.
#[inline]
fn slot_value(krecs: &[KeyRec], data: &[Const], arity: usize, col: usize, s: u32) -> u32 {
    if s & INLINE != 0 {
        data[(s & !INLINE) as usize * arity + col].0
    } else {
        krecs[s as usize].key
    }
}

/// A row with the key of occupied slot `s` of a multi-column key table:
/// the inline row, or the key record's representative.
#[inline]
fn slot_row(krecs: &[KeyRec], s: u32) -> u32 {
    if s & INLINE != 0 { s & !INLINE } else { krecs[s as usize].key }
}

/// The key of occupied slot `s` as a [`KeyRec::key`] holds it.
fn slot_key(mask: &[usize], krecs: &[KeyRec], rel: &ColumnarRelation, s: u32) -> u32 {
    match *mask {
        [col] => slot_value(krecs, rel.data(), rel.arity(), col, s),
        _ => slot_row(krecs, s),
    }
}

/// The slot of key value `v` in a single-column key table over column
/// `col` of the rows `data` (stride `arity`), and what it holds: where the
/// key sits, or the empty slot it would take. An inline slot is compared
/// through its row's value — the row a match goes on to read anyway.
#[inline]
fn find1(slots: &[u32], krecs: &[KeyRec], data: &[Const], arity: usize, col: usize, v: u32) -> (usize, u32) {
    let m = slots.len() - 1;
    let mut i = (hash1(v) as usize) & m;
    loop {
        let s = slots[i];
        if s == NO_KEY || slot_value(krecs, data, arity, col, s) == v {
            return (i, s);
        }
        i = (i + 1) & m;
    }
}

/// The slot of row `r`'s key in an open-addressing key table, and what
/// it holds: where the key sits, or the empty slot it would take.
#[inline]
fn find(mask: &[usize], slots: &[u32], krecs: &[KeyRec], rel: &ColumnarRelation, r: u32) -> (usize, u32) {
    if let [col] = *mask {
        return find1(slots, krecs, rel.data(), rel.arity(), col, rel.value(r, col).0);
    }
    let m = slots.len() - 1;
    let mut i = (key_hash(mask, rel, r) as usize) & m;
    loop {
        let s = slots[i];
        if s == NO_KEY || keys_equal(mask, rel, slot_row(krecs, s), r) {
            return (i, s);
        }
        i = (i + 1) & m;
    }
}

/// Per-key record of an [`IncrementalIndex`] key with two rows or more:
/// the hot chain head plus the key's frozen posting segment.
#[derive(Clone, Copy, Debug)]
struct KeyRec {
    /// Single-column index: the raw key value. Otherwise: a
    /// representative row id whose mask projection is the key (row data
    /// never moves between resets, so any row with the key works).
    key: u32,
    /// Newest hot row of the chain; [`NO_ROW`] when fully frozen.
    head: u32,
    /// Frozen segment `pool[seg_off .. seg_off + seg_len]`: this key's
    /// cold row ids, strictly descending.
    seg_off: u32,
    seg_len: u32,
}

/// A traversal cursor over one key's posting list, bounded to a snapshot
/// row range `[lo, hi)`: first the hot chain (newest-first), then the
/// frozen segment (descending, pre-clipped by binary search); an inline
/// key's one row is a chain that ends after it. Row ids
/// come out strictly decreasing — a descending scan of the range for
/// the rows with this key. Obtain via [`IncrementalIndex::probe_range`],
/// advance with [`IncrementalIndex::next_match`].
#[derive(Clone, Copy, Debug)]
pub struct Posting {
    /// Current hot-chain row; [`NO_ROW`] once the chain is done.
    chain: u32,
    /// Snapshot lower bound — a chain row below it ends the chain walk.
    lo: u32,
    /// Frozen-segment cursor and end (pool positions, already clipped).
    seg: u32,
    seg_end: u32,
}

impl Posting {
    const EMPTY: Posting = Posting { chain: NO_ROW, lo: 0, seg: 0, seg_end: 0 };
}

/// A persistent hash index over one [`ColumnarRelation`] and one column
/// mask, extended incrementally as the relation grows.
///
/// A key's rows are inline, chained or segmented (see the module docs,
/// "Layouts"):
///
/// - a key with one row keeps it in its key-table slot (`INLINE | row`);
///   its second row promotes it to a key record, its first row moving to
///   the chain — or, if it is below `frozen`, to a one-row segment;
/// - a key record's recently indexed rows form a chain through `next`,
///   **newest-first** (strictly decreasing row ids);
/// - its cold rows are a frozen segment: a contiguous descending run in
///   one shared `pool`, scanned linearly after the chain.
///
/// Chains and segments never overlap — segment rows are below `frozen`,
/// chained rows at or above it — so a chain row id is always greater than
/// every segment row id of its key, and the concatenated traversal
/// preserves the global descending order.
///
/// [`IncrementalIndex::extend`] from an empty index counts the rows per
/// key and lays every key record's segment out directly; a later extend
/// chains its delta and freezes the chains once they outgrow the
/// segments.
#[derive(Clone, Debug)]
pub struct IncrementalIndex {
    /// The relation this index belongs to (an id into the engine's dense
    /// relation table; opaque to this module).
    rel: usize,
    mask: Box<[usize]>,
    /// Open-addressing key table, one slot per distinct key: an id into
    /// `krecs`, or `INLINE | row` for a key with one row.
    slots: Vec<u32>,
    /// Distinct keys: the inline slots plus the key records.
    keys: usize,
    /// One record per key with two rows or more.
    krecs: Vec<KeyRec>,
    /// Hot chains: `next[r - frozen]` = next-older hot row with the same
    /// key, [`NO_ROW`] at chain end (the key's remaining rows, if any,
    /// are in its segment).
    next: Vec<u32>,
    /// Frozen posting pool (see [`KeyRec::seg_off`]).
    pool: Vec<u32>,
    /// Segment rows are below `frozen`; chained rows at or above it.
    frozen: usize,
    /// Rows `[0, watermark)` are indexed.
    watermark: usize,
}

impl IncrementalIndex {
    /// Creates an empty index for relation id `rel` over `mask`.
    pub fn new(rel: usize, mask: Vec<usize>) -> Self {
        Self {
            rel,
            mask: mask.into_boxed_slice(),
            slots: Vec::new(),
            keys: 0,
            krecs: Vec::new(),
            next: Vec::new(),
            pool: Vec::new(),
            frozen: 0,
            watermark: 0,
        }
    }

    /// The relation id this index covers.
    #[inline]
    pub fn rel(&self) -> usize {
        self.rel
    }

    /// Re-targets the index at a different relation id without touching
    /// its contents. Used when an index object is swapped between two
    /// engines that share the underlying relation but number it
    /// differently (the query cache's external-relation swap); the rows
    /// it describes must be the same on both sides.
    pub(crate) fn set_rel(&mut self, rel: usize) {
        self.rel = rel;
    }

    /// The indexed column positions.
    #[inline]
    pub fn mask(&self) -> &[usize] {
        &self.mask
    }

    /// How many rows are indexed.
    #[inline]
    pub fn watermark(&self) -> usize {
        self.watermark
    }

    /// Number of distinct keys in the index — key records and inline
    /// keys alike. With [`IncrementalIndex::watermark`], this is the
    /// planner's selectivity surface: `watermark / num_keys` is the mean
    /// posting length a probe of this index walks.
    #[inline]
    pub fn num_keys(&self) -> usize {
        self.keys
    }

    /// The hash of the key in occupied slot `s`.
    fn slot_hash(&self, rel: &ColumnarRelation, s: u32) -> u64 {
        match *self.mask {
            [col] => hash1(slot_value(&self.krecs, rel.data(), rel.arity(), col, s)),
            _ => key_hash(&self.mask, rel, slot_row(&self.krecs, s)),
        }
    }

    /// Indexes the rows appended to `rel` since the last call (the delta
    /// `[watermark, num_rows)`). The caller must always pass the same
    /// relation. An empty index — new, or [`IncrementalIndex::reset`] —
    /// is built over all of `rel` in one counted pass, with its key table
    /// sized from the key count; otherwise the delta is chained row by
    /// row, and outgrown hot chains may be frozen into segments. Probes
    /// are unaffected either way (same rows, same order).
    pub fn extend(&mut self, rel: &ColumnarRelation) {
        let upto = rel.num_rows();
        if upto == self.watermark {
            return;
        }
        if self.watermark == 0 {
            self.build(rel, upto);
            return;
        }
        self.next.resize(upto - self.frozen, NO_ROW);
        for r in rel.row_ids(self.watermark..upto) {
            if (self.keys + 1) * 2 > self.slots.len() {
                self.rehash(rel, self.slots.len() * 2);
            }
            self.add_row(rel, r);
        }
        self.watermark = upto;
        if self.watermark - self.frozen >= SEG_MIN_HOT.max(self.frozen) {
            self.freeze();
        }
    }

    /// Indexes rows `[0, n)` of an empty index in one counted pass. The
    /// key table is sized once, from the key count
    /// ([`IncrementalIndex::estimate_keys`]). The first pass counts each
    /// key's rows ([`IncrementalIndex::count_rows`]), the segments are
    /// laid out from the counts, and a second pass scatters the rows of
    /// keys with two or more into them, ascending rows into descending
    /// positions. Everything ends up frozen: no chain, no freeze copy.
    fn build(&mut self, rel: &ColumnarRelation, n: usize) {
        debug_assert!(self.keys == 0 && self.krecs.is_empty() && self.pool.is_empty());
        self.slots = vec![NO_KEY; table_cap(self.estimate_keys(rel, n))];
        let mut rec_of = Vec::new();
        let mut r = 0;
        while r < n {
            // Rows enough to fill the table to half, a new key each at most.
            let room = self.slots.len() / 2 - self.keys;
            if room == 0 {
                self.rehash(rel, self.slots.len() * 2);
                continue;
            }
            self.count_rows(rel, rel.row_ids(r..n.min(r + room)), &mut rec_of);
            r = n.min(r + room);
        }
        // `head` is each segment's fill cursor, from its end down.
        let mut end = 0;
        for krec in &mut self.krecs {
            krec.seg_off = end;
            end += krec.seg_len;
            krec.head = end;
        }
        self.pool = vec![0; end as usize];
        for (r, &k) in rel.row_ids(..).zip(&rec_of) {
            if k != INLINE {
                let krec = &mut self.krecs[k as usize];
                krec.head -= 1;
                self.pool[krec.head as usize] = r;
            }
        }
        for krec in &mut self.krecs {
            debug_assert_eq!(krec.head, krec.seg_off, "every counted row scattered");
            krec.head = NO_ROW;
        }
        if table_cap(self.keys) < self.slots.len() {
            self.rehash(rel, table_cap(self.keys));
        }
        self.frozen = n;
        self.watermark = n;
    }

    /// The counting pass of [`IncrementalIndex::build`] over `rows`, for
    /// which the key table has room: a key's first row goes inline, its
    /// second makes a key record that counts the rest. `rec_of[r]` is row
    /// `r`'s key record, or `INLINE` while its key has one row (a key's
    /// first row takes the record when its second comes). `rec_of` stays
    /// empty until the first key record, so a build whose keys all have
    /// one row never fills it; the first record makes it one `INLINE` per
    /// row of `rel`, written in place from then on.
    fn count_rows(&mut self, rel: &ColumnarRelation, rows: Range<u32>, rec_of: &mut Vec<u32>) {
        let Self { mask, slots, keys, krecs, .. } = self;
        let (data, arity) = (rel.data(), rel.arity());
        let col = if let [col] = **mask { Some(col) } else { None };
        let mut new_keys = 0;
        for r in rows {
            let (i, s) = match col {
                Some(col) => find1(slots, krecs, data, arity, col, data[r as usize * arity + col].0),
                None => find(mask, slots, krecs, rel, r),
            };
            if s & INLINE == 0 {
                krecs[s as usize].seg_len += 1;
                rec_of[r as usize] = s;
            } else if s == NO_KEY {
                slots[i] = INLINE | r;
                new_keys += 1;
            } else {
                let k = id(krecs.len());
                krecs.push(KeyRec { key: slot_key(mask, krecs, rel, s), head: NO_ROW, seg_off: 0, seg_len: 2 });
                slots[i] = k;
                if rec_of.is_empty() {
                    // The build covers every row of `rel`.
                    *rec_of = vec![INLINE; rel.num_rows()];
                }
                rec_of[(s & !INLINE) as usize] = k;
                rec_of[r as usize] = k;
            }
        }
        *keys += new_keys;
    }

    /// The number of distinct keys among rows `[0, n)`, estimated from a
    /// sample of `s` rows — one in 32, at most [`KEY_SAMPLE`] — one drawn
    /// from each of `s` equal strata (a fixed pseudo-random draw, so that
    /// periodic keys do not alias with the stride): the `d` distinct keys
    /// the sample holds plus Chao's estimate of those it missed,
    /// `f1 (f1 - 1) / (2 (f2 + 1))`, from the `f1` keys it holds once and
    /// the `f2` it holds twice; at most `n`. A sample of distinct keys
    /// thus asks for one key per row (up to `s² / 2` rows), one that
    /// repeats a few keys for those few. The estimate only sizes the key
    /// table: a low one costs [`IncrementalIndex::build`] a doubling, a
    /// high one a final move into the table the key count asks for.
    fn estimate_keys(&self, rel: &ColumnarRelation, n: usize) -> usize {
        let s = (n / 32).min(KEY_SAMPLE);
        if s < 64 {
            return n;
        }
        let stratum = n / s;
        // (a row with the key, how often the sample holds it)
        let mut seen = vec![(NO_ROW, 0u32); (2 * s).next_power_of_two()];
        let m = seen.len() - 1;
        for j in 0..s {
            let draw = ((hash_ids([id(j)]) >> 32) as usize * stratum) >> 32;
            let r = id(j * stratum + draw);
            let mut i = (key_hash(&self.mask, rel, r) as usize) & m;
            while seen[i].0 != NO_ROW && !keys_equal(&self.mask, rel, seen[i].0, r) {
                i = (i + 1) & m;
            }
            seen[i] = (r, seen[i].1 + 1);
        }
        let (mut d, mut f1, mut f2) = (0, 0, 0);
        for &(_, c) in &seen {
            d += usize::from(c > 0);
            f1 += usize::from(c == 1);
            f2 += usize::from(c == 2);
        }
        (d + f1 * f1.saturating_sub(1) / (2 * (f2 + 1))).min(n)
    }

    /// Gives the inline key in slot `i` a key record with chain `head`
    /// and segment `pool[seg_off .. seg_off + seg_len]`.
    fn promote(&mut self, rel: &ColumnarRelation, i: usize, head: u32, seg_off: usize, seg_len: usize) {
        let key = slot_key(&self.mask, &self.krecs, rel, self.slots[i]);
        self.slots[i] = id(self.krecs.len());
        self.krecs.push(KeyRec { key, head, seg_off: id(seg_off), seg_len: id(seg_len) });
    }

    /// Chains row `r` under its key: a new key goes inline; a key's
    /// second row promotes it, its first row moving to the chain or, if
    /// already below `frozen`, to a one-row segment at the pool's end.
    fn add_row(&mut self, rel: &ColumnarRelation, r: u32) {
        let (i, s) = find(&self.mask, &self.slots, &self.krecs, rel, r);
        match s {
            NO_KEY => {
                self.slots[i] = INLINE | r;
                self.keys += 1;
            }
            _ if s & INLINE != 0 => {
                let r0 = s & !INLINE;
                if r0 as usize >= self.frozen {
                    self.next[r as usize - self.frozen] = r0;
                    self.promote(rel, i, r, 0, 0);
                } else {
                    self.promote(rel, i, r, self.pool.len(), 1);
                    self.pool.push(r0);
                }
            }
            _ => {
                // newest-first chaining keeps row ids strictly decreasing
                let krec = &mut self.krecs[s as usize];
                self.next[r as usize - self.frozen] = krec.head;
                krec.head = r;
            }
        }
    }

    /// Re-slots every key into a fresh table of `cap` slots — O(slots),
    /// independent of row count.
    fn rehash(&mut self, rel: &ColumnarRelation, cap: usize) {
        let old = std::mem::replace(&mut self.slots, vec![NO_KEY; cap.max(8)]);
        let m = self.slots.len() - 1;
        for s in old.into_iter().filter(|&s| s != NO_KEY) {
            let mut i = (self.slot_hash(rel, s) as usize) & m;
            while self.slots[i] != NO_KEY {
                i = (i + 1) & m;
            }
            self.slots[i] = s;
        }
    }

    /// Folds every hot chain into its key's frozen segment. The chain's
    /// rows (all `>= frozen`) are newer than the old segment's (all
    /// `< frozen`), so chain-then-old-segment concatenation preserves
    /// the strictly-descending per-key order exactly. Inline keys stay
    /// where they are.
    fn freeze(&mut self) {
        let old = std::mem::take(&mut self.pool);
        let mut pool = Vec::with_capacity(self.watermark);
        for krec in &mut self.krecs {
            let off = pool.len();
            let mut r = krec.head;
            while r != NO_ROW {
                pool.push(r);
                r = self.next[r as usize - self.frozen];
            }
            let s = krec.seg_off as usize;
            pool.extend_from_slice(&old[s..s + krec.seg_len as usize]);
            krec.seg_off = id(off);
            krec.seg_len = id(pool.len() - off);
            krec.head = NO_ROW;
        }
        self.pool = pool;
        self.next.clear();
        self.frozen = self.watermark;
    }

    /// The next-older chained row after `r`: [`NO_ROW`] at a chain's
    /// end, and after a row below `frozen` — only an inline key's one row
    /// is ever walked from there.
    #[inline]
    fn chain_next(&self, r: u32) -> u32 {
        self.next.get((r as usize).wrapping_sub(self.frozen)).copied().unwrap_or(NO_ROW)
    }

    /// The posting cursor of occupied slot `s`, clipped to `[lo, hi)`.
    #[inline]
    fn slot_posting(&self, s: u32, lo: usize, hi: usize) -> Posting {
        if s & INLINE == 0 {
            return self.posting(&self.krecs[s as usize], lo, hi);
        }
        // An inline key's one row is a chain that ends after it.
        let r = s & !INLINE;
        debug_assert_eq!(self.chain_next(r), NO_ROW, "an inline row is never chained");
        let chain = if (lo..hi).contains(&(r as usize)) { r } else { NO_ROW };
        Posting { chain, ..Posting::EMPTY }
    }

    /// The posting cursor of a found key record, clipped to `[lo, hi)`.
    fn posting(&self, krec: &KeyRec, lo: usize, hi: usize) -> Posting {
        let mut chain = krec.head;
        while chain != NO_ROW && chain as usize >= hi {
            chain = self.chain_next(chain);
        }
        let seg = &self.pool[krec.seg_off as usize..(krec.seg_off + krec.seg_len) as usize];
        // Descending ids: binary-search the window bounds instead of
        // scanning past out-of-snapshot rows. Every segment row is
        // `< frozen`, so full-range probes (the steady state of a
        // frozen EDB index) skip both searches outright.
        let start = if hi >= self.frozen { 0 } else { seg.partition_point(|&r| r as usize >= hi) };
        let end = if lo == 0 { seg.len() } else { seg.partition_point(|&r| r as usize >= lo) };
        Posting {
            chain,
            lo: id(lo.min(self.watermark)),
            seg: krec.seg_off + id(start),
            seg_end: krec.seg_off + id(end),
        }
    }

    /// Looks up a key (values in mask order) and returns a cursor over
    /// its rows within the snapshot range `[lo, hi)`, newest first.
    /// Advance with [`IncrementalIndex::next_match`]. No allocation.
    pub fn probe_range(&self, rel: &ColumnarRelation, key: &[Const], lo: usize, hi: usize) -> Posting {
        debug_assert_eq!(key.len(), self.mask.len());
        if self.mask.len() == 1 {
            return self.probe1_range(rel, key[0], lo, hi);
        }
        if self.slots.is_empty() {
            return Posting::EMPTY;
        }
        let m = self.slots.len() - 1;
        let mut i = (hash_ids(key.iter().map(|c| c.0)) as usize) & m;
        loop {
            let s = self.slots[i];
            if s == NO_KEY {
                return Posting::EMPTY;
            }
            let rep = slot_row(&self.krecs, s);
            if self.mask.iter().zip(key).all(|(&p, &k)| rel.value(rep, p) == k) {
                return self.slot_posting(s, lo, hi);
            }
            i = (i + 1) & m;
        }
    }

    /// The single-column fast path of [`IncrementalIndex::probe_range`]:
    /// hashes one raw key value, with no key slice. A key record holds
    /// the raw value; an inline slot is compared through its row's value
    /// in `rel` — the row a match goes on to read anyway.
    ///
    /// # Panics
    ///
    /// Unless `mask().len() == 1`: a multi-column key table holds
    /// representative rows, which one raw value cannot be compared with.
    pub fn probe1_range(&self, rel: &ColumnarRelation, key: Const, lo: usize, hi: usize) -> Posting {
        assert_eq!(self.mask.len(), 1, "probe1_range requires a single-column mask");
        if self.slots.is_empty() {
            return Posting::EMPTY;
        }
        match find1(&self.slots, &self.krecs, rel.data(), rel.arity(), self.mask[0], key.0) {
            (_, NO_KEY) => Posting::EMPTY,
            (_, s) => self.slot_posting(s, lo, hi),
        }
    }

    /// The next row of a posting cursor (strictly decreasing row ids),
    /// or [`NO_ROW`] when the snapshot range is exhausted.
    #[inline]
    pub fn next_match(&self, p: &mut Posting) -> u32 {
        let r = p.chain;
        if r != NO_ROW {
            if r >= p.lo {
                p.chain = self.chain_next(r);
                return r;
            }
            p.chain = NO_ROW;
        }
        if p.seg < p.seg_end {
            let r = self.pool[p.seg as usize];
            p.seg += 1;
            return r;
        }
        NO_ROW
    }

    /// Forgets every indexed row (chains, segments, key table,
    /// watermark). The next
    /// [`IncrementalIndex::extend`] re-indexes the relation from row 0 —
    /// used after compaction renumbers the rows.
    pub fn reset(&mut self) {
        self.slots = Vec::new();
        self.keys = 0;
        self.krecs = Vec::new();
        self.next = Vec::new();
        self.pool = Vec::new();
        self.frozen = 0;
        self.watermark = 0;
    }

    /// Words (`u32`-sized) held by the chain, key, and segment stores
    /// (the memory-accounting hook for
    /// [`crate::materialize::Materialization::mem_stats`]): the key
    /// table (one word per slot, at most half full, sized from the key
    /// count), four per key record and one per chained or segmented
    /// row. An inline key costs its slot alone, so an index whose keys
    /// each have one row holds 2–4 words per key.
    pub(crate) fn footprint_words(&self) -> usize {
        self.next.len() + self.slots.len() + self.pool.len() + 4 * self.krecs.len()
    }

    /// Words held by the frozen posting pool alone (reported as
    /// `MemStats::seg_words`; also included in
    /// [`IncrementalIndex::footprint_words`]).
    pub(crate) fn seg_pool_words(&self) -> usize {
        self.pool.len()
    }
}

#[cfg(test)]
mod tests;
