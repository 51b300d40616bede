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
//!   Rows with equal key are chained through a flat `next` array,
//!   newest-first; extending the index with freshly appended rows is
//!   incremental, so semi-naive iterations never rebuild an index.
//! - watermarks — because relations are append-only, the semi-naive
//!   snapshots `old ⊆ full` and the per-iteration `delta` are just row
//!   ranges: `old = [0, old_hi)`, `delta = [old_hi, len)`, `full =
//!   [0, len)`. No cloning, no separate set/vec duplication.
//!
//! The newest-first chain invariant is what makes one index serve all
//! three snapshots: a chain's row ids are strictly decreasing, so a
//! traversal takes the `delta` rows as a prefix and the `old` rows as the
//! remaining suffix.
//!
//! # Cache behaviour
//!
//! Two layout refinements keep the probe loop out of cache trouble
//! without changing what it enumerates:
//!
//! - **Frozen posting segments** — the cold (long-since-indexed) portion
//!   of each key's chain is periodically folded into one contiguous,
//!   descending run of row ids in a shared pool ([`IncrementalIndex`]
//!   freezes when the hot chains outgrow the frozen store, so total
//!   rebuild work stays O(rows)). A probe walks the short hot chain and
//!   then scans its segment linearly — same rows, same order, no
//!   pointer-chasing through the cold store. Snapshot bounds clip the
//!   segment by binary search instead of walking past it row by row.
//! - **Single-key fast path** — an index whose mask has exactly one
//!   column stores raw key values in its key table: probes hash one
//!   `u32` and compare one `u32`, never re-materializing per-row key
//!   slices. The hash is bit-identical to the general path's, so the
//!   two key-table layouts are interchangeable.
//!
//! Both traversal shapes hide behind the [`Posting`] cursor, so the join
//! machinery never sees where a row is stored.

use crate::ast::Const;
use crate::hash::{hash_ids, FxHashMap};

/// Sentinel row id: "no row" / end of an index chain.
pub const NO_ROW: u32 = u32::MAX;

/// Dedup-table sentinel for a slot whose row was tombstoned. Probes
/// continue past it (the slot may sit mid-chain); inserts may reuse it.
/// Never a valid row id ([`ColumnarRelation::insert`] asserts ids stay
/// below it).
const TOMB_SLOT: u32 = u32::MAX - 1;

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
    pub fn row(&self, r: usize) -> &[Const] {
        &self.data[r * self.arity..r * self.arity + self.arity]
    }

    /// The value at row `r`, column `col`.
    #[inline]
    pub fn value(&self, r: usize, col: usize) -> Const {
        self.data[r * self.arity + col]
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
    pub fn is_live(&self, r: usize) -> bool {
        match self.dead.get(r >> 6) {
            None => true,
            Some(w) => (w >> (r & 63)) & 1 == 0,
        }
    }

    /// Iterates over the **live** rows in insertion order.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[Const]> {
        (0..self.rows)
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
    pub fn visible_at(&self, r: usize, epoch: u64) -> bool {
        self.is_live(r) || self.tomb_at.get(&(r as u32)).is_some_and(|&te| te > epoch)
    }

    /// Iterates the rows of the pinned snapshot `(frontier, epoch)`:
    /// row ids below `frontier` (the relation's row count when the
    /// snapshot was pinned) that are visible at `epoch`, in insertion
    /// order.
    pub fn rows_iter_at(&self, frontier: usize, epoch: u64) -> impl Iterator<Item = &[Const]> {
        (0..frontier.min(self.rows))
            .filter(move |&r| self.visible_at(r, epoch))
            .map(move |r| self.row(r))
    }

    /// Drops the death-epoch tags `<= min_epoch` (no reader is pinned at
    /// or below it any more): the rows stay dead, just untagged — dead at
    /// every epoch still pinnable. Compaction-free reclamation.
    pub fn reclaim_tombstones(&mut self, min_epoch: u64) {
        self.tomb_at.retain(|_, te| *te > min_epoch);
    }

    fn hash_row_slice(row: &[Const]) -> u64 {
        hash_ids(row.iter().map(|c| c.0))
    }

    /// The dedup hash of a tuple — the one [`ColumnarRelation::insert`]
    /// probes with. Callers that test membership first and insert later
    /// compute it **once** and pass it to the `_hashed` variants,
    /// eliminating the find-then-insert double hash on the staged-merge
    /// path.
    #[inline]
    pub(crate) fn hash_row(row: &[Const]) -> u64 {
        Self::hash_row_slice(row)
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
        self.find_row_hashed(row, Self::hash_row_slice(row))
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
            if s != TOMB_SLOT && self.row(s as usize) == row {
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
            let mut cap = self.slots.len().max(8);
            while (want + 1) * 2 > cap {
                cap *= 2;
            }
            self.grow_to(cap);
        }
    }

    /// Appends a row if it is not already present **and live**; returns
    /// whether it was new. Row ids are dense and assigned in insertion
    /// order; re-inserting a tombstoned tuple appends a fresh row id
    /// (the dead row stays dead).
    pub fn insert(&mut self, row: &[Const]) -> bool {
        self.insert_hashed(row, Self::hash_row_slice(row))
    }

    /// [`ColumnarRelation::insert`] with a memoized
    /// [`ColumnarRelation::hash_row`] hash.
    pub(crate) fn insert_hashed(&mut self, row: &[Const], hash: u64) -> bool {
        assert_eq!(row.len(), self.arity, "tuple arity mismatch");
        self.ensure_slots();
        if (self.rows + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = (hash as usize) & mask;
        // First reusable (tombstoned) slot on the probe path, if any.
        let mut reuse: Option<usize> = None;
        loop {
            let s = self.slots[i];
            if s == NO_ROW {
                let id = u32::try_from(self.rows).expect("relation row-id overflow");
                assert!(id < TOMB_SLOT, "relation row-id overflow");
                self.slots[reuse.unwrap_or(i)] = id;
                self.data.extend_from_slice(row);
                self.rows += 1;
                return true;
            }
            if s == TOMB_SLOT {
                reuse.get_or_insert(i);
            } else if self.row(s as usize) == row {
                return false;
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
        if !self.is_live(r) {
            return false;
        }
        self.ensure_slots();
        if self.dead.is_empty() {
            self.dead = vec![0; self.rows.div_ceil(64)];
        } else if self.dead.len() < self.rows.div_ceil(64) {
            self.dead.resize(self.rows.div_ceil(64), 0);
        }
        self.dead[r >> 6] |= 1 << (r & 63);
        self.dead_rows += 1;
        if self.epoch > 0 {
            self.tomb_at.insert(r as u32, self.epoch);
        }
        // Unlink from the dedup table (the slot may sit mid-probe-chain,
        // so it becomes TOMB_SLOT, not NO_ROW).
        let mask = self.slots.len() - 1;
        let mut i = (Self::hash_row_slice(self.row(r)) as usize) & mask;
        loop {
            let s = self.slots[i];
            debug_assert_ne!(s, NO_ROW, "live row must be in the dedup table");
            if s == r as u32 {
                self.slots[i] = TOMB_SLOT;
                return true;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        self.grow_to((self.slots.len() * 2).max(8));
    }

    fn grow_to(&mut self, cap: usize) {
        debug_assert!(cap.is_power_of_two());
        self.slots = vec![NO_ROW; cap];
        let mask = cap - 1;
        for r in 0..self.rows {
            if !self.is_live(r) {
                continue; // tombstoned rows stay out of the dedup table
            }
            let mut i = (Self::hash_row_slice(self.row(r)) as usize) & mask;
            while self.slots[i] != NO_ROW {
                i = (i + 1) & mask;
            }
            self.slots[i] = r as u32;
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
        let mut cap = 8usize;
        while (self.rows + 1) * 2 > cap {
            cap *= 2;
        }
        self.slots = vec![NO_ROW; cap];
        let mask = cap - 1;
        for r in 0..self.rows {
            if !self.is_live(r) {
                continue;
            }
            let mut i = (Self::hash_row_slice(self.row(r)) as usize) & mask;
            while self.slots[i] != NO_ROW {
                i = (i + 1) & mask;
            }
            self.slots[i] = r as u32;
        }
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
        for (r, slot) in remap.iter_mut().enumerate() {
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

    /// The epoch new tombstones are tagged with (0 = epoch mode off).
    pub(crate) fn current_epoch(&self) -> u64 {
        self.epoch
    }

    /// The death-epoch tags still held (serving-layer metadata).
    pub(crate) fn tomb_tags(&self) -> &FxHashMap<u32, u64> {
        &self.tomb_at
    }

    /// Reassembles a relation from its serialized parts. The dedup table
    /// (slot layout is probe-history dependent and is not persisted) is
    /// **not** rebuilt here: it is write-path state, so the rebuild is
    /// deferred to the first mutating touch
    /// ([`ColumnarRelation::ensure_slots`]) — a restored store that only
    /// serves reads never pays the O(rows) rehash. `dead_rows` must
    /// equal the popcount of `dead`.
    pub(crate) fn from_persist(
        arity: usize,
        data: Vec<Const>,
        rows: usize,
        dead: Vec<u64>,
        dead_rows: usize,
        epoch: u64,
        tomb_at: FxHashMap<u32, u64>,
    ) -> Self {
        Self {
            arity,
            data,
            rows,
            slots: Vec::new(),
            slots_stale: rows > 0,
            dead,
            dead_rows,
            epoch,
            tomb_at,
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

/// Sentinel key-record id: "no key" in an index's key table.
const NO_KEY: u32 = u32::MAX;

/// Hot-chain size that triggers a freeze, and the floor under which an
/// index never bothers building segments. Freezing when the hot chains
/// outgrow `max(SEG_MIN_HOT, frozen)` means the frozen store at least
/// doubles per freeze, so total freeze work is O(rows) over any insert
/// history.
const SEG_MIN_HOT: usize = 64;

/// Per-key record of an [`IncrementalIndex`]: the hot chain head plus
/// the key's frozen posting segment.
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
/// frozen segment (descending, pre-clipped by binary search). Row ids
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
/// Recently indexed rows with equal key form a chain through `next`,
/// **newest-first** (strictly decreasing row ids). Cold rows live in
/// frozen posting segments: contiguous descending runs in one shared
/// `pool`, scanned linearly after the chain (see the module docs). The
/// two stores never overlap — rows `[0, frozen)` are segmented, rows
/// `[frozen, watermark)` are chained — and a chain row id is always
/// greater than every segment row id of its key, so the concatenated
/// traversal preserves the global descending order.
#[derive(Clone, Debug)]
pub struct IncrementalIndex {
    /// The relation this index belongs to (an id into the engine's dense
    /// relation table; opaque to this module).
    rel: usize,
    mask: Box<[usize]>,
    /// Open-addressing key table: an id into `krecs` per distinct key.
    slots: Vec<u32>,
    /// One record per distinct key.
    krecs: Vec<KeyRec>,
    /// Hot chains: `next[r - frozen]` = next-older hot row with the same
    /// key, [`NO_ROW`] at chain end (the key's remaining rows, if any,
    /// are in its segment).
    next: Vec<u32>,
    /// Frozen posting pool (see [`KeyRec::seg_off`]).
    pool: Vec<u32>,
    /// Rows `[0, frozen)` are segmented; `[frozen, watermark)` chained.
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

    /// Number of distinct keys in the index. With
    /// [`IncrementalIndex::watermark`], this is the planner's
    /// selectivity surface: `watermark / num_keys` is the mean join
    /// chain length a probe of this index walks.
    #[inline]
    pub fn num_keys(&self) -> usize {
        self.krecs.len()
    }

    /// The hash of a single-column key value — identical to
    /// [`hash_ids`] over the one-element projection, so the single-key
    /// and general key tables hash compatibly.
    #[inline]
    fn hash1(v: u32) -> u64 {
        hash_ids([v])
    }

    fn key_hash(&self, rel: &ColumnarRelation, r: usize) -> u64 {
        hash_ids(self.mask.iter().map(|&p| rel.value(r, p).0))
    }

    fn keys_equal(&self, rel: &ColumnarRelation, a: usize, b: usize) -> bool {
        self.mask.iter().all(|&p| rel.value(a, p) == rel.value(b, p))
    }

    /// Indexes the rows appended to `rel` since the last call (the delta
    /// `[watermark, num_rows)`). The caller must always pass the same
    /// relation. May freeze outgrown hot chains into segments — probes
    /// are unaffected (same rows, same order).
    pub fn extend(&mut self, rel: &ColumnarRelation) {
        let upto = rel.num_rows();
        if upto == self.watermark {
            return;
        }
        self.next.resize(upto - self.frozen, NO_ROW);
        for r in self.watermark..upto {
            if (self.krecs.len() + 1) * 2 > self.slots.len() {
                self.grow(rel);
            }
            self.add_row(rel, r);
        }
        self.watermark = upto;
        if self.watermark - self.frozen >= SEG_MIN_HOT.max(self.frozen) {
            self.freeze();
        }
    }

    fn add_row(&mut self, rel: &ColumnarRelation, r: usize) {
        let m = self.slots.len() - 1;
        if self.mask.len() == 1 {
            let v = rel.value(r, self.mask[0]).0;
            let mut i = (Self::hash1(v) as usize) & m;
            loop {
                let id = self.slots[i];
                if id == NO_KEY {
                    self.slots[i] = self.krecs.len() as u32;
                    self.krecs.push(KeyRec { key: v, head: r as u32, seg_off: 0, seg_len: 0 });
                    return;
                }
                let krec = &mut self.krecs[id as usize];
                if krec.key == v {
                    // newest-first chaining keeps row ids strictly decreasing
                    self.next[r - self.frozen] = krec.head;
                    krec.head = r as u32;
                    return;
                }
                i = (i + 1) & m;
            }
        }
        let mut i = (self.key_hash(rel, r) as usize) & m;
        loop {
            let id = self.slots[i];
            if id == NO_KEY {
                self.slots[i] = self.krecs.len() as u32;
                self.krecs.push(KeyRec { key: r as u32, head: r as u32, seg_off: 0, seg_len: 0 });
                return;
            }
            if self.keys_equal(rel, self.krecs[id as usize].key as usize, r) {
                let krec = &mut self.krecs[id as usize];
                self.next[r - self.frozen] = krec.head;
                krec.head = r as u32;
                return;
            }
            i = (i + 1) & m;
        }
    }

    /// Rebuilds the key table at double capacity from the key records —
    /// O(keys), independent of row count.
    fn grow(&mut self, rel: &ColumnarRelation) {
        let cap = (self.slots.len() * 2).max(8);
        self.slots = vec![NO_KEY; cap];
        let m = cap - 1;
        for (id, krec) in self.krecs.iter().enumerate() {
            let h = if self.mask.len() == 1 {
                Self::hash1(krec.key)
            } else {
                self.key_hash(rel, krec.key as usize)
            };
            let mut i = (h as usize) & m;
            while self.slots[i] != NO_KEY {
                i = (i + 1) & m;
            }
            self.slots[i] = id as u32;
        }
    }

    /// Folds every hot chain into its key's frozen segment. The chain's
    /// rows (all `>= frozen`) are newer than the old segment's (all
    /// `< frozen`), so chain-then-old-segment concatenation preserves
    /// the strictly-descending per-key order exactly.
    fn freeze(&mut self) {
        let old = std::mem::take(&mut self.pool);
        let mut pool = Vec::with_capacity(self.watermark);
        for krec in &mut self.krecs {
            let off = pool.len() as u32;
            let mut r = krec.head;
            while r != NO_ROW {
                pool.push(r);
                r = self.next[r as usize - self.frozen];
            }
            let s = krec.seg_off as usize;
            pool.extend_from_slice(&old[s..s + krec.seg_len as usize]);
            krec.seg_off = off;
            krec.seg_len = pool.len() as u32 - off;
            krec.head = NO_ROW;
        }
        self.pool = pool;
        self.next.clear();
        self.frozen = self.watermark;
    }

    /// The posting cursor of a found key record, clipped to `[lo, hi)`.
    fn posting(&self, krec: &KeyRec, lo: usize, hi: usize) -> Posting {
        let mut chain = krec.head;
        while chain != NO_ROW && chain as usize >= hi {
            chain = self.next[chain as usize - self.frozen];
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
            lo: lo.min(self.watermark) as u32,
            seg: krec.seg_off + start as u32,
            seg_end: krec.seg_off + end as u32,
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
            let id = self.slots[i];
            if id == NO_KEY {
                return Posting::EMPTY;
            }
            let krec = &self.krecs[id as usize];
            let rep = krec.key as usize;
            if self.mask.iter().zip(key).all(|(&p, &k)| rel.value(rep, p) == k) {
                return self.posting(krec, lo, hi);
            }
            i = (i + 1) & m;
        }
    }

    /// The single-column fast path of [`IncrementalIndex::probe_range`]:
    /// hashes and compares one raw key value, with no key slice and no
    /// relation access (`_rel` only mirrors `probe_range`'s signature).
    ///
    /// # Panics
    ///
    /// Unless `mask().len() == 1`: a multi-column key table holds
    /// representative rows, which one raw value cannot be compared with.
    pub fn probe1_range(&self, _rel: &ColumnarRelation, key: Const, lo: usize, hi: usize) -> Posting {
        assert_eq!(self.mask.len(), 1, "probe1_range requires a single-column mask");
        if self.slots.is_empty() {
            return Posting::EMPTY;
        }
        let m = self.slots.len() - 1;
        let mut i = (Self::hash1(key.0) as usize) & m;
        loop {
            let id = self.slots[i];
            if id == NO_KEY {
                return Posting::EMPTY;
            }
            let krec = &self.krecs[id as usize];
            if krec.key == key.0 {
                return self.posting(krec, lo, hi);
            }
            i = (i + 1) & m;
        }
    }

    /// The next row of a posting cursor (strictly decreasing row ids),
    /// or [`NO_ROW`] when the snapshot range is exhausted.
    #[inline]
    pub fn next_match(&self, p: &mut Posting) -> u32 {
        let r = p.chain;
        if r != NO_ROW {
            if r >= p.lo {
                p.chain = self.next[r as usize - self.frozen];
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
        self.krecs = Vec::new();
        self.next = Vec::new();
        self.pool = Vec::new();
        self.frozen = 0;
        self.watermark = 0;
    }

    /// Words (`u32`-sized) held by the chain, key, and segment stores
    /// (the memory-accounting hook for
    /// [`crate::materialize::Materialization::mem_stats`]).
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
mod tests {
    use super::*;

    fn c(v: u32) -> Const {
        Const(v)
    }

    /// Drains a posting cursor over `[lo, hi)` into a row-id vector.
    fn collect_range(
        idx: &IncrementalIndex,
        rel: &ColumnarRelation,
        key: &[Const],
        lo: usize,
        hi: usize,
    ) -> Vec<u32> {
        let mut p = idx.probe_range(rel, key, lo, hi);
        let mut rows = Vec::new();
        loop {
            let r = idx.next_match(&mut p);
            if r == NO_ROW {
                break;
            }
            rows.push(r);
        }
        rows
    }

    /// Full-range posting list of a key.
    fn collect(idx: &IncrementalIndex, rel: &ColumnarRelation, key: &[Const]) -> Vec<u32> {
        collect_range(idx, rel, key, 0, rel.num_rows())
    }

    #[test]
    fn insert_dedup_and_membership() {
        let mut rel = ColumnarRelation::new(2);
        assert!(rel.insert(&[c(1), c(2)]));
        assert!(!rel.insert(&[c(1), c(2)]));
        assert!(rel.insert(&[c(2), c(1)]));
        assert_eq!(rel.num_rows(), 2);
        assert!(rel.contains(&[c(1), c(2)]));
        assert!(!rel.contains(&[c(3), c(3)]));
        assert_eq!(rel.row(0), &[c(1), c(2)]);
        assert_eq!(rel.row(1), &[c(2), c(1)]);
    }

    #[test]
    fn find_row_returns_dense_insertion_ids() {
        let mut rel = ColumnarRelation::new(2);
        for i in 0..100u32 {
            rel.insert(&[c(i), c(i + 1)]);
        }
        for i in 0..100u32 {
            assert_eq!(rel.find_row(&[c(i), c(i + 1)]), i);
        }
        assert_eq!(rel.find_row(&[c(1), c(1)]), NO_ROW);
    }

    #[test]
    fn zero_arity_relation_holds_at_most_one_row() {
        let mut rel = ColumnarRelation::new(0);
        assert!(!rel.contains(&[]));
        assert!(rel.insert(&[]));
        assert!(!rel.insert(&[]));
        assert_eq!(rel.num_rows(), 1);
        assert!(rel.contains(&[]));
        assert_eq!(rel.row(0), &[] as &[Const]);
    }

    #[test]
    fn dedup_survives_growth() {
        let mut rel = ColumnarRelation::new(1);
        for i in 0..1000 {
            assert!(rel.insert(&[c(i)]));
        }
        for i in 0..1000 {
            assert!(!rel.insert(&[c(i)]));
            assert!(rel.contains(&[c(i)]));
        }
        assert_eq!(rel.num_rows(), 1000);
    }

    #[test]
    fn index_chains_are_newest_first() {
        let mut rel = ColumnarRelation::new(2);
        // key = column 0; three rows share key 7
        rel.insert(&[c(7), c(0)]);
        rel.insert(&[c(8), c(1)]);
        rel.insert(&[c(7), c(2)]);
        rel.insert(&[c(7), c(3)]);
        let mut idx = IncrementalIndex::new(0, vec![0]);
        idx.extend(&rel);
        let rows = collect(&idx, &rel, &[c(7)]);
        assert_eq!(rows, vec![3, 2, 0], "newest-first, strictly decreasing");
        assert_eq!(collect(&idx, &rel, &[c(9)]), Vec::<u32>::new());
    }

    #[test]
    fn incremental_extension_matches_full_rebuild() {
        let mut rel = ColumnarRelation::new(2);
        let mut incremental = IncrementalIndex::new(0, vec![1]);
        for step in 0..10 {
            for i in 0..50u32 {
                rel.insert(&[c(step * 50 + i), c(i % 7)]);
            }
            incremental.extend(&rel);
        }
        let mut fresh = IncrementalIndex::new(0, vec![1]);
        fresh.extend(&rel);
        for k in 0..7u32 {
            assert_eq!(
                collect(&incremental, &rel, &[c(k)]),
                collect(&fresh, &rel, &[c(k)]),
                "key {k}"
            );
        }
    }

    #[test]
    fn shard_ranges_partition_top_down() {
        for (lo, hi, k) in [(0, 100, 8), (5, 6, 4), (7, 7, 3), (0, 3, 8), (10, 1000, 1)] {
            let shards = shard_ranges(lo, hi, k);
            assert_eq!(shards.len(), k);
            // top-down, contiguous, exactly covering [lo, hi)
            let mut top = hi;
            for &(a, b) in &shards {
                assert_eq!(b, top, "contiguous top-down");
                assert!(a <= b);
                top = a;
            }
            assert_eq!(top, lo);
            let total: usize = shards.iter().map(|(a, b)| b - a).sum();
            assert_eq!(total, hi - lo);
            // balanced: sizes differ by at most one
            let sizes: Vec<usize> = shards.iter().map(|(a, b)| b - a).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "{lo}..{hi} x{k}: {sizes:?}");
        }
    }

    #[test]
    fn tombstone_removes_membership_and_reinsert_gets_new_id() {
        let mut rel = ColumnarRelation::new(2);
        rel.insert(&[c(1), c(2)]);
        rel.insert(&[c(3), c(4)]);
        assert!(rel.tombstone(0));
        assert!(!rel.tombstone(0), "already dead");
        assert!(!rel.contains(&[c(1), c(2)]));
        assert_eq!(rel.find_row(&[c(1), c(2)]), NO_ROW);
        assert!(rel.contains(&[c(3), c(4)]));
        assert!(!rel.is_live(0));
        assert!(rel.is_live(1));
        assert_eq!(rel.num_live(), 1);
        assert_eq!(rel.num_rows(), 2, "row ids never shift");
        // Re-insert appends a fresh id; the dead row stays dead.
        assert!(rel.insert(&[c(1), c(2)]));
        assert_eq!(rel.find_row(&[c(1), c(2)]), 2);
        assert!(!rel.is_live(0));
        assert_eq!(rel.num_live(), 2);
        let live: Vec<_> = rel.rows_iter().collect();
        assert_eq!(live, vec![&[c(3), c(4)][..], &[c(1), c(2)][..]]);
    }

    #[test]
    fn tombstones_survive_growth_and_mass_churn() {
        let mut rel = ColumnarRelation::new(1);
        for i in 0..500u32 {
            rel.insert(&[c(i)]);
        }
        for i in (0..500u32).step_by(2) {
            assert!(rel.tombstone(i as usize));
        }
        // Growth rebuilds the dedup table from live rows only.
        for i in 500..1500u32 {
            assert!(rel.insert(&[c(i)]));
        }
        for i in 0..500u32 {
            assert_eq!(rel.contains(&[c(i)]), i % 2 == 1, "{i}");
        }
        assert_eq!(rel.num_live(), 250 + 1000);
        // Dead tuples re-insert at fresh ids, exactly once.
        for i in (0..500u32).step_by(2) {
            assert!(rel.insert(&[c(i)]));
            assert!(!rel.insert(&[c(i)]));
        }
        assert_eq!(rel.num_live(), 1500);
        assert_eq!(rel.num_rows(), 1750);
    }

    #[test]
    fn rows_appended_after_a_tombstone_are_live() {
        let mut rel = ColumnarRelation::new(1);
        rel.insert(&[c(0)]);
        rel.tombstone(0);
        for i in 1..200u32 {
            rel.insert(&[c(i)]);
            assert!(rel.is_live(i as usize), "{i}");
        }
    }

    #[test]
    fn epoch_tags_resurrect_rows_for_pinned_readers() {
        let mut rel = ColumnarRelation::new(1);
        rel.insert(&[c(0)]); // row 0, alive from epoch 0
        // Round producing epoch 1: insert row 1.
        rel.set_epoch(1);
        rel.insert(&[c(1)]);
        // Round producing epoch 2: retract row 0.
        rel.set_epoch(2);
        rel.tombstone(0);
        // Round producing epoch 3: re-insert the tuple (fresh row id 2).
        rel.set_epoch(3);
        rel.insert(&[c(0)]);

        // A reader pinned at epoch 1 (frontier 2) sees rows 0 and 1: row
        // 0 died in epoch 2 (> 1), row 2 is past the frontier.
        let snap: Vec<Vec<Const>> =
            rel.rows_iter_at(2, 1).map(|r| r.to_vec()).collect();
        assert_eq!(snap, vec![vec![c(0)], vec![c(1)]]);
        // A reader pinned at epoch 2 (frontier 2) no longer sees row 0.
        let snap: Vec<Vec<Const>> =
            rel.rows_iter_at(2, 2).map(|r| r.to_vec()).collect();
        assert_eq!(snap, vec![vec![c(1)]]);
        // A reader at the current epoch (frontier 3) sees the re-insert.
        let snap: Vec<Vec<Const>> =
            rel.rows_iter_at(3, 3).map(|r| r.to_vec()).collect();
        assert_eq!(snap, vec![vec![c(1)], vec![c(0)]]);
        // A frontier beyond the store clamps.
        assert_eq!(rel.rows_iter_at(100, 3).count(), 2);
    }

    #[test]
    fn reclaim_drops_only_unpinnable_tags() {
        let mut rel = ColumnarRelation::new(1);
        for i in 0..4u32 {
            rel.insert(&[c(i)]);
        }
        rel.set_epoch(1);
        rel.tombstone(0);
        rel.set_epoch(2);
        rel.tombstone(1);
        rel.set_epoch(3);
        rel.tombstone(2);
        // Readers pinned at >= 1 remain: tags <= 1 are reclaimable.
        rel.reclaim_tombstones(1);
        // The epoch-1 death (row 0) lost its tag — dead at every epoch.
        assert!(!rel.visible_at(0, 0), "untagged dead row is dead everywhere");
        // Later deaths still resurrect for earlier pins.
        assert!(rel.visible_at(1, 1), "row 1 died in epoch 2");
        assert!(!rel.visible_at(1, 2));
        assert!(rel.visible_at(2, 2), "row 2 died in epoch 3");
        // Full reclamation: nothing resurrects any more.
        rel.reclaim_tombstones(3);
        assert!(!rel.visible_at(1, 1));
        assert!(!rel.visible_at(2, 2));
        assert!(rel.visible_at(3, 0), "live rows are visible at any epoch");
    }

    #[test]
    fn plain_relations_never_populate_the_epoch_table() {
        let mut rel = ColumnarRelation::new(1);
        rel.insert(&[c(7)]);
        rel.tombstone(0); // epoch mode off: no tag
        assert!(!rel.visible_at(0, 0), "dead without a tag is just dead");
        assert_eq!(rel.rows_iter_at(1, 0).count(), 0);
    }

    #[test]
    fn compact_renumbers_survivors_and_rebuilds_dedup() {
        let mut rel = ColumnarRelation::new(2);
        for i in 0..300u32 {
            rel.insert(&[c(i), c(i + 1)]);
        }
        for i in (0..300).step_by(3) {
            rel.tombstone(i);
        }
        let remap = rel.compact();
        assert_eq!(remap.len(), 300);
        assert_eq!(rel.num_rows(), 200);
        assert_eq!(rel.num_dead(), 0);
        let mut expect = 0u32;
        for (old, &new) in remap.iter().enumerate() {
            if old % 3 == 0 {
                assert_eq!(new, NO_ROW, "dead row {old} dropped");
            } else {
                assert_eq!(new, expect, "dense, order-preserving");
                expect += 1;
            }
        }
        for i in 0..300u32 {
            let present = i % 3 != 0;
            assert_eq!(rel.contains(&[c(i), c(i + 1)]), present, "{i}");
            if present {
                assert_eq!(rel.find_row(&[c(i), c(i + 1)]), remap[i as usize]);
            }
        }
        // Inserts keep working after the rebuild, at dense fresh ids.
        assert!(rel.insert(&[c(0), c(1)]));
        assert_eq!(rel.find_row(&[c(0), c(1)]), 200);
        assert!(!rel.insert(&[c(1), c(2)]), "survivor still deduped");
    }

    #[test]
    fn compact_clears_epoch_tags_but_keeps_the_epoch() {
        let mut rel = ColumnarRelation::new(1);
        rel.insert(&[c(0)]);
        rel.insert(&[c(1)]);
        rel.set_epoch(5);
        rel.tombstone(0);
        assert_eq!(rel.tomb_tags().len(), 1);
        let remap = rel.compact();
        assert_eq!(remap, vec![NO_ROW, 0]);
        assert_eq!(rel.tomb_tags().len(), 0);
        assert_eq!(rel.current_epoch(), 5);
        // New tombstones keep getting tagged with the preserved epoch.
        rel.tombstone(0);
        assert_eq!(rel.tomb_tags().get(&0), Some(&5));
    }

    #[test]
    fn from_persist_round_trips_contents_and_liveness() {
        let mut rel = ColumnarRelation::new(2);
        for i in 0..100u32 {
            rel.insert(&[c(i), c(i * 2)]);
        }
        rel.set_epoch(3);
        for i in (0..100).step_by(7) {
            rel.tombstone(i);
        }
        let mut rebuilt = ColumnarRelation::from_persist(
            rel.arity(),
            rel.data().to_vec(),
            rel.num_rows(),
            rel.dead_words().to_vec(),
            rel.num_dead(),
            rel.current_epoch(),
            rel.tomb_tags().clone(),
        );
        // The dedup table comes back lazily: stale until the first
        // mutating touch, then bit-equivalent in behavior.
        rebuilt.ensure_slots();
        assert_eq!(rebuilt.num_rows(), rel.num_rows());
        assert_eq!(rebuilt.num_live(), rel.num_live());
        for i in 0..100u32 {
            let t = [c(i), c(i * 2)];
            assert_eq!(rebuilt.contains(&t), rel.contains(&t), "{i}");
            assert_eq!(rebuilt.find_row(&t), rel.find_row(&t), "{i}");
            assert_eq!(rebuilt.is_live(i as usize), rel.is_live(i as usize));
            assert_eq!(rebuilt.visible_at(i as usize, 2), rel.visible_at(i as usize, 2));
        }
    }

    #[test]
    fn stale_dedup_rebuilds_on_first_write() {
        let mut rel = ColumnarRelation::new(2);
        for i in 0..50u32 {
            rel.insert(&[c(i), c(i + 1)]);
        }
        let mut restored = ColumnarRelation::from_persist(
            rel.arity(),
            rel.data().to_vec(),
            rel.num_rows(),
            rel.dead_words().to_vec(),
            rel.num_dead(),
            rel.current_epoch(),
            rel.tomb_tags().clone(),
        );
        // No explicit ensure: the insert itself must rebuild first, so
        // a duplicate of a restored row still dedups...
        assert!(!restored.insert(&[c(3), c(4)]));
        // ...and a novel row gets the next dense id.
        assert!(restored.insert(&[c(99), c(100)]));
        assert_eq!(restored.find_row(&[c(99), c(100)]), 50);
        assert_eq!(restored.num_rows(), 51);
    }

    #[test]
    fn index_reset_then_extend_matches_fresh() {
        let mut rel = ColumnarRelation::new(2);
        for i in 0..100u32 {
            rel.insert(&[c(i % 5), c(i)]);
        }
        let mut idx = IncrementalIndex::new(0, vec![0]);
        idx.extend(&rel);
        idx.reset();
        assert_eq!(idx.watermark(), 0);
        idx.extend(&rel);
        let mut fresh = IncrementalIndex::new(0, vec![0]);
        fresh.extend(&rel);
        for k in 0..5u32 {
            assert_eq!(collect(&idx, &rel, &[c(k)]), collect(&fresh, &rel, &[c(k)]), "key {k}");
        }
    }

    #[test]
    fn empty_mask_chains_every_row() {
        let mut rel = ColumnarRelation::new(1);
        for i in 0..20u32 {
            rel.insert(&[c(i)]);
        }
        let mut idx = IncrementalIndex::new(0, vec![]);
        idx.extend(&rel);
        let rows = collect(&idx, &rel, &[]);
        assert_eq!(rows.len(), 20);
        assert_eq!(rows, (0..20u32).rev().collect::<Vec<_>>());
    }

    /// Every key, every snapshot window: a posting — hot chain, then
    /// frozen segment — is the brute-force descending scan of `[lo, hi)`
    /// for the rows whose mask projection is the key.
    #[test]
    fn segmented_and_chained_layouts_enumerate_identically() {
        for mask in [vec![0usize], vec![1], vec![0, 1]] {
            let mut rel = ColumnarRelation::new(3);
            let mut idx = IncrementalIndex::new(0, mask.clone());
            // Interleave extensions (some tiny, some spanning several
            // freeze thresholds) so segments and hot chains coexist.
            let mut n = 0u32;
            for batch in [3usize, 90, 7, 400, 1, 150] {
                for _ in 0..batch {
                    // ~11 distinct keys on column 0, ~7 on column 1;
                    // column 2 keeps the rows distinct (insert dedups)
                    rel.insert(&[c(n % 11), c(n % 7), c(n)]);
                    n += 1;
                }
                idx.extend(&rel);
            }
            assert!(idx.seg_pool_words() > 0, "mask {mask:?}: segments built");
            assert!(!idx.next.is_empty(), "mask {mask:?}: hot chains left");
            let keys: Vec<Vec<Const>> = match mask.len() {
                1 => (0..12u32).map(|k| vec![c(k)]).collect(),
                _ => (0..12u32).flat_map(|a| (0..8u32).map(move |b| vec![c(a), c(b)])).collect(),
            };
            let rows = rel.num_rows();
            for key in &keys {
                for (lo, hi) in [(0, rows), (0, 97), (97, rows), (200, 450), (rows, rows)] {
                    let scan: Vec<u32> = (lo..hi)
                        .rev()
                        .filter(|&r| mask.iter().zip(key).all(|(&p, &k)| rel.value(r, p) == k))
                        .map(|r| r as u32)
                        .collect();
                    assert_eq!(
                        collect_range(&idx, &rel, key, lo, hi),
                        scan,
                        "mask {mask:?} key {key:?} range [{lo}, {hi})"
                    );
                }
            }
        }
    }

    /// The freeze policy keeps amortized work linear: the frozen store
    /// at least doubles per freeze, and everything frozen stays probed.
    #[test]
    fn freeze_policy_doubles_and_preserves_postings() {
        let mut rel = ColumnarRelation::new(2);
        let mut idx = IncrementalIndex::new(0, vec![0]);
        let mut frozen_sizes = Vec::new();
        let mut last_pool = 0usize;
        for i in 0..5000u32 {
            // distinct tuples (insert dedups), low-cardinality key column
            rel.insert(&[c(i % 3), c(i)]);
            idx.extend(&rel);
            if idx.seg_pool_words() != last_pool {
                frozen_sizes.push(idx.seg_pool_words());
                last_pool = idx.seg_pool_words();
            }
        }
        assert!(frozen_sizes.len() >= 2, "multiple freezes over 5000 rows");
        for w in frozen_sizes.windows(2) {
            assert!(w[1] >= 2 * w[0], "frozen store at least doubles: {frozen_sizes:?}");
        }
        for k in 0..3u32 {
            let rows = collect(&idx, &rel, &[c(k)]);
            let want: Vec<u32> = (0..5000u32).rev().filter(|r| r % 3 == k).collect();
            assert_eq!(rows, want, "key {k}");
        }
    }

    #[test]
    fn single_key_fast_path_matches_general_probe() {
        let mut rel = ColumnarRelation::new(3);
        for i in 0..500u32 {
            rel.insert(&[c(i % 13), c(i), c(i % 5)]);
        }
        let mut idx = IncrementalIndex::new(0, vec![2]);
        idx.extend(&rel);
        for k in 0..6u32 {
            // probe_range delegates to probe1_range for single masks;
            // both entry points must agree.
            assert_eq!(
                collect(&idx, &rel, &[c(k)]),
                {
                    let mut p = idx.probe1_range(&rel, c(k), 0, rel.num_rows());
                    let mut rows = Vec::new();
                    loop {
                        let r = idx.next_match(&mut p);
                        if r == NO_ROW {
                            break;
                        }
                        rows.push(r);
                    }
                    rows
                },
                "key {k}"
            );
        }
        assert_eq!(idx.num_keys(), 5);
        assert!(collect(&idx, &rel, &[c(99)]).is_empty());
    }

    /// A multi-column key table holds representative rows: probing it
    /// with one raw value must fail loudly, in release builds too.
    #[test]
    #[should_panic(expected = "single-column mask")]
    fn probe1_range_rejects_a_multi_column_index() {
        let mut rel = ColumnarRelation::new(2);
        rel.insert(&[c(1), c(2)]);
        let mut idx = IncrementalIndex::new(0, vec![0, 1]);
        idx.extend(&rel);
        idx.probe1_range(&rel, c(1), 0, 1);
    }

    #[test]
    fn footprint_counts_segment_pool() {
        let mut rel = ColumnarRelation::new(2);
        for i in 0..300u32 {
            rel.insert(&[c(i % 4), c(i)]);
        }
        let mut idx = IncrementalIndex::new(0, vec![0]);
        idx.extend(&rel);
        assert!(idx.seg_pool_words() > 0);
        assert!(idx.footprint_words() >= idx.seg_pool_words());
        idx.reset();
        assert_eq!(idx.seg_pool_words(), 0);
        assert_eq!(idx.footprint_words(), 0);
        // Re-extending re-freezes.
        idx.extend(&rel);
        assert!(idx.seg_pool_words() > 0);
    }
}
