//! The persistent incremental materialization layer.
//!
//! Everything PRs 2–4 built — per-predicate [`ColumnarRelation`]s,
//! persistent [`IncrementalIndex`]es, compiled rule plans, semi-naive
//! watermarks, work counters — used to be transient locals of
//! `eval::evaluate`: one call, one fixpoint, state dropped. This module
//! makes that state a first-class value. A [`Materialization`] is a
//! program's minimum model **kept at fixpoint across updates**:
//!
//! - [`Materialization::insert_facts`] appends novel EDB rows and
//!   resumes semi-naive evaluation with those rows as the next delta —
//!   semi-naive *is* an incremental algorithm, so an update costs work
//!   proportional to the delta and its new derivations, not the store.
//!   The first update round treats every body atom over a grown
//!   relation (EDB included) as a delta position and runs it through
//!   that position's **delta-first update plan**
//!   ([`crate::plan`]), under the "last delta occurrence" convention in
//!   rule-text order.
//! - [`Materialization::retract_facts`] removes EDB rows by
//!   **delete–rederive** (DRed): tombstone the rows
//!   ([`ColumnarRelation::tombstone`]), over-delete every derived row
//!   whose recorded justification transitively uses a deleted row, then
//!   re-derive survivors from the remaining store (a goal-directed
//!   per-tuple check against lazily compiled, selectivity-ordered
//!   re-derivation plans) and propagate the rescues through the normal
//!   insert machinery.
//! - [`Materialization::apply`] batches a whole mixed round — EDB
//!   inserts, retracts, **rule adds** and **rule drops** — into one
//!   DRed pass (a single walk of the persistent reverse-dependency
//!   index, however much the round mixes) plus one semi-naive resume. `insert_facts`,
//!   `retract_facts`, [`Materialization::add_rule`] and
//!   [`Materialization::drop_rule`] are thin single-phase wrappers.
//!   Rule hot-swap works at fixpoint: an added rule seeds its delta
//!   from the existing rows; a dropped rule's derivations are found by
//!   their recorded justification rule ids and over-deleted like any
//!   retraction. Rule ids ([`RuleId`]) are stable plan slots, never
//!   reused.
//! - Batch evaluation is now a *special case*: `eval::evaluate` builds a
//!   materialization, bulk-loads the database, runs to fixpoint once and
//!   reads the result out — same struct, same join code, same counters.
//!
//! A materialization always records justifications (one per derived
//! row, exactly as [`crate::eval::evaluate_with_provenance`] does);
//! that is what makes retraction possible, and it keeps
//! [`Materialization::provenance`] valid across updates. Updates work
//! unchanged under the parallel strategies: shards partition the first
//! join step's row range top-down, so the staged rows merge in exactly
//! the sequential engine's order and row ids, justifications and
//! [`EvalStats`] are identical at every thread and shard count.
//!
//! The executable specification of every update sequence is a naive
//! from-scratch re-evaluation ([`crate::reference`]) of the mirrored
//! database; `tests/engine_equiv.rs` proptests random interleaved
//! insert/retract/query sequences against it.

use crate::ast::{Atom, Const, Pred, Program, Rule, Term, Var};
use crate::db::{Database, Relation, Tuple};
use crate::derivation::Provenance;
use crate::eval::{self, EvalResult, EvalStats, ProvenanceResult, Strategy, OVERSHARD};
use crate::hash::FxHashMap;
use crate::persist::{self, Dec, Enc, PersistError};
use crate::plan::{
    compile_rederive, compile_rule, plan_rule, plan_rule_deltas, Action, HeadOp, KeyOp, Out,
    OrderMode, RederivePlan, RulePlan, Step, NO_INDEX,
};
use crate::pool::ThreadPool;
use crate::storage::{shard_ranges, ColumnarRelation, IncrementalIndex, NO_ROW};
use std::path::Path;
use std::sync::Arc;

mod template;
pub(crate) use template::{ExtLinks, ExtRetracts};

/// Sentinel edge id: end of a reverse-dependency chain.
const NO_EDGE: u32 = u32::MAX;

/// One reverse-dependency edge: a head row whose recorded justification
/// uses the body row owning the chain, plus the next edge of that chain.
#[derive(Clone, Copy, Debug)]
struct RevEdge {
    hrel: u32,
    hrow: u32,
    next: u32,
}

/// The **persistent reverse-dependency index** over the recorded
/// justifications: for every row, the chain of head rows whose
/// justification uses it as a body row. This is what makes DRed
/// over-deletion O(affected): a retraction walks the chains of the
/// seeds' closure instead of re-scanning every live justification.
///
/// Built lazily on the first over-deleting round (one full pass, counted
/// by [`Materialization::csr_builds`]), then maintained incrementally:
/// every merged or rescued row appends one edge per body position.
/// Edges are never removed — a chain may point at head rows that died
/// later; the traversal's `tombstone` call is a no-op on them, and
/// [`Materialization::compact`] rebuilds the index from the live
/// justifications.
#[derive(Clone, Debug, Default)]
struct RevIndex {
    /// Per relation: the newest edge of each row's chain.
    head: Vec<Chains>,
    /// The flat edge pool all chains thread through.
    edges: Vec<RevEdge>,
}

/// The chain heads of one relation's rows ([`NO_EDGE`] / absent = no
/// dependents recorded).
#[derive(Clone, Debug)]
enum Chains {
    /// One slot per row: the store's own relations, most of whose rows
    /// have dependents.
    Dense(Vec<u32>),
    /// Keyed by row id: the *external* relations of a template store
    /// (`materialize/template.rs`), of which a store's justifications
    /// mention a sliver — a dense vector would be sized by the base
    /// relation.
    Sparse(FxHashMap<u32, u32>),
}

impl RevIndex {
    /// Records that head row `(hrel, hrow)`'s justification uses body
    /// row `(brel, brow)`.
    fn add(&mut self, brel: usize, brow: u32, hrel: u32, hrow: u32) {
        if self.head.len() <= brel {
            self.head.resize(brel + 1, Chains::Dense(Vec::new()));
        }
        let slot = match &mut self.head[brel] {
            Chains::Dense(chain) => {
                if chain.len() <= brow as usize {
                    chain.resize(brow as usize + 1, NO_EDGE);
                }
                &mut chain[brow as usize]
            }
            Chains::Sparse(chain) => chain.entry(brow).or_insert(NO_EDGE),
        };
        let id = u32::try_from(self.edges.len()).expect("reverse-index edge overflow");
        self.edges.push(RevEdge {
            hrel,
            hrow,
            next: *slot,
        });
        *slot = id;
    }

    /// The newest edge id of `(brel, brow)`'s chain.
    fn chain(&self, brel: usize, brow: u32) -> u32 {
        match self.head.get(brel) {
            Some(Chains::Dense(chain)) => chain.get(brow as usize).copied(),
            Some(Chains::Sparse(chain)) => chain.get(&brow).copied(),
            None => None,
        }
        .unwrap_or(NO_EDGE)
    }

    /// Words held (memory accounting; a sparse entry is a key and a
    /// head).
    fn footprint_words(&self) -> usize {
        let heads: usize = self
            .head
            .iter()
            .map(|c| match c {
                Chains::Dense(chain) => chain.len(),
                Chains::Sparse(chain) => 2 * chain.len(),
            })
            .sum();
        self.edges.len() * 3 + heads
    }
}

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
/// churn, which the churn benches gate on). See
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
    /// `index_words`, reported separately so the storage benches can
    /// show the segment share).
    pub seg_words: usize,
    /// Words of packed justification entries (offsets + buffers).
    pub just_words: usize,
    /// Words held by the reverse-dependency index (0 until the first
    /// retraction builds it).
    pub rev_words: usize,
}

impl MemStats {
    /// The bounded-memory gate the churn benches compare: the sum of
    /// tuple, index and justification words — the row-addressed
    /// structures a fresh store also carries, so peak-vs-fresh ratios
    /// are meaningful. The reverse index is reported separately: it is
    /// rebuilt live-only at each compaction, so it is bounded by the
    /// same argument, but a freshly evaluated store does not carry one.
    pub fn row_words(&self) -> usize {
        self.tuple_words + self.index_words + self.just_words
    }

    /// Every word tracked, reverse index included.
    pub fn total_words(&self) -> usize {
        self.row_words() + self.rev_words
    }
}

/// Reusable scratch buffers for one evaluation (no per-tuple allocation).
#[derive(Default)]
struct Scratch {
    /// Rule-local slot environment. Values are garbage until a `Bind` or
    /// key-op write at the plan-determined depth; the plan guarantees
    /// every read happens after the corresponding write.
    env: Vec<Const>,
    /// Probe-key buffer, refilled before every index probe.
    key: Vec<Const>,
    /// Head-tuple buffer.
    head: Vec<Const>,
    /// Row id matched at each join depth — the derivation coordinates.
    /// Maintained unconditionally (one word store per matched row); read
    /// only when provenance recording is on.
    rows: Vec<u32>,
    /// Per-shard staged-head filter: head tuples already staged by this
    /// `(rule, delta, shard)` evaluation. Reset at every evaluation
    /// entry; purely suppresses duplicate staging — the merge would drop
    /// the copies anyway — and never affects counters or merge order.
    staged: StagedSet,
}

/// One slot of a [`StagedSet`]: live iff its generation matches the
/// set's, carrying the staged head's memoized hash and its offset into
/// the staging buffer (the set stores no tuple data of its own).
#[derive(Clone, Copy, Default)]
struct StagedSlot {
    gen: u32,
    hash: u64,
    off: u32,
}

/// The staged-head filter as an allocation-free open-addressing set.
/// Entries reference the head tuples already appended to the evaluation's
/// [`PendingTuples::data`] buffer by offset (one `(rule, delta, shard)`
/// evaluation stages heads of a single relation, so one arity governs
/// every entry) and carry the staged copy's memoized row hash — so the
/// filter re-hashes nothing and clones nothing.
/// Generation stamping makes the per-evaluation reset O(1).
#[derive(Default)]
struct StagedSet {
    slots: Vec<StagedSlot>,
    /// Live entries of the current generation (for the load factor).
    len: usize,
    /// Current generation; slots with a stale stamp are empty.
    gen: u32,
}

impl StagedSet {
    /// Starts a fresh evaluation: empties the set in O(1).
    fn begin(&mut self) {
        if self.gen == u32::MAX {
            // Generation wraparound: physically clear so stale stamps
            // can never alias the restarted counter.
            self.slots.iter_mut().for_each(|s| *s = StagedSlot::default());
            self.gen = 0;
        }
        self.gen += 1;
        self.len = 0;
    }

    /// Inserts `head` (with its memoized hash) unless an equal head was
    /// already staged this generation; returns whether it was new. The
    /// caller appends `head` at `data.len()` right after a successful
    /// insert — `data` is the staging buffer earlier entries point into.
    fn insert_if_new(&mut self, head: &[Const], hash: u64, data: &[Const]) -> bool {
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = (hash as usize) & mask;
        loop {
            let s = self.slots[i];
            if s.gen != self.gen {
                self.slots[i] = StagedSlot {
                    gen: self.gen,
                    hash,
                    off: u32::try_from(data.len()).expect("staging buffer overflow"),
                };
                self.len += 1;
                return true;
            }
            if s.hash == hash && &data[s.off as usize..s.off as usize + head.len()] == head {
                return false;
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles the table, re-seating the current generation's entries by
    /// their stored hashes (distinct by construction, so no equality
    /// checks are needed).
    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![StagedSlot::default(); cap]);
        let mask = cap - 1;
        for s in old {
            if s.gen != self.gen {
                continue;
            }
            let mut i = (s.hash as usize) & mask;
            while self.slots[i].gen == self.gen {
                i = (i + 1) & mask;
            }
            self.slots[i] = s;
        }
    }
}

/// Tuples derived during one iteration, buffered flat until the merge
/// (rules within an iteration must not see each other's output).
///
/// When provenance recording is on, every staged tuple also stages its
/// justification as one packed `[rule, body row ids...]` entry in `just`
/// (entry length = 1 + the rule's body length). The merge keeps only the
/// justification of the staged copy that actually inserts the row — the
/// first found in the deterministic merge order.
#[derive(Default)]
struct PendingTuples {
    data: Vec<Const>,
    rels: Vec<u32>,
    /// The staged tuple's dedup hash ([`ColumnarRelation::hash_row`]),
    /// memoized at staging time so the merge's insert probes without
    /// re-hashing (one hash per tuple instead of two).
    hash: Vec<u64>,
    /// Packed justifications, one `[rule, rows...]` entry per staged
    /// tuple (empty when recording is off).
    just: Vec<u32>,
}

/// Per-relation justification store: one packed `[rule, body row ids...]`
/// entry per row, parallel to the relation's row ids, in **one flat
/// buffer** (no per-row `Vec`s — the ROADMAP's recording-overhead item).
/// EDB relations keep empty stores (their rows are leaves). Entries of
/// tombstoned rows linger but are never read: every consumer skips dead
/// rows.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct RelJust {
    /// Entry start offset per row.
    off: Vec<u32>,
    /// Flat entries: `[rule, body row ids...]` per row.
    buf: Vec<u32>,
}

impl RelJust {
    fn push(&mut self, rule: u32, body: &[u32]) {
        self.off
            .push(u32::try_from(self.buf.len()).expect("justification store overflow"));
        self.buf.push(rule);
        self.buf.extend_from_slice(body);
    }

    /// The `(rule, body row ids)` entry of row `r`.
    pub(crate) fn entry(&self, r: usize) -> (u32, &[u32]) {
        let lo = self.off[r] as usize;
        let hi = self
            .off
            .get(r + 1)
            .map_or(self.buf.len(), |&o| o as usize);
        (self.buf[lo], &self.buf[lo + 1..hi])
    }

    /// Number of rows with entries (= the relation's row count for IDB
    /// relations under recording).
    pub(crate) fn len(&self) -> usize {
        self.off.len()
    }

    /// Words held (memory accounting).
    fn footprint_words(&self) -> usize {
        self.off.len() + self.buf.len()
    }

    /// The packed `(offsets, buffer)` pair (serialization).
    fn parts(&self) -> (&[u32], &[u32]) {
        (&self.off, &self.buf)
    }

    /// Reassembles a store from its serialized parts. The caller
    /// validates shape (monotone offsets, entry bounds) before use.
    fn from_parts(off: Vec<u32>, buf: Vec<u32>) -> Self {
        Self { off, buf }
    }
}

/// Work counters for one rule-evaluation pass, with probes split at the
/// sharded depth. `pre` counts the depth-0 probe — work every parallel
/// shard repeats identically (each shard probes or scans its own
/// subrange of the first step exactly once), so only the lead shard's
/// `pre` enters [`EvalStats`]. `post` counts probes at depth ≥ 1 — work
/// partitioned by the first step's rows, summed across shards.
#[derive(Clone, Copy, Debug, Default)]
struct Counters {
    pre: u64,
    post: u64,
    /// Transitive-closure kernel invocations (observability only; never
    /// part of [`EvalStats`]).
    tc_hits: u64,
    /// Full instantiations enumerated inside the kernel.
    tc_rows: u64,
}

/// Which body atom carries the delta in one rule-evaluation pass — and
/// with it which plan runs and how the other atoms' snapshot ranges are
/// chosen (`snapshot_range`).
#[derive(Clone, Copy, Debug, Default)]
enum Delta {
    /// No delta: the rule's batch plan over full relations (EDB-only
    /// rules in the first batch iteration, naive rounds, seeding an
    /// added rule).
    #[default]
    Full,
    /// A batch round: the rule's batch plan with the delta at this
    /// **step depth**. IDB steps before it read full, after it old;
    /// EDB relations never change in a batch and always read full.
    Batch(usize),
    /// An update round: the update plan of this **body position** (see
    /// [`Materialization::plan_for`]). Every atom, EDB included,
    /// follows the watermark convention in rule-text order.
    Update(usize),
}

/// One parallel work item: rule `rule` with delta atom `delta`,
/// the **first join step** restricted to the row subrange `range`,
/// staging into its own buffer. `lead` marks the shard whose `pre`
/// (depth-0) probe count is accounted. Tasks are recycled across
/// iterations so the staging and scratch buffers keep their grown
/// capacity instead of reallocating every iteration.
#[derive(Default)]
struct ShardTask {
    rule: usize,
    delta: Delta,
    range: (usize, usize),
    lead: bool,
    counters: Counters,
    pending: PendingTuples,
    scratch: Scratch,
}

/// Stable identifier of a rule inside a [`Materialization`]: the rule's
/// plan slot. Slots are assigned in program order at construction, then
/// in [`UpdateRound::add_rule`] order, and are **never reused** — a
/// dropped rule leaves its slot behind (recorded justifications index
/// rule slots, so reindexing would corrupt provenance).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RuleId(pub u32);

/// A batched update round: EDB inserts and retracts plus rule adds and
/// drops, applied by [`Materialization::apply`] as **one** mixed batch —
/// one over-deletion pass (a single walk of the persistent
/// reverse-dependency index for the whole round), one rescue pass, one
/// semi-naive resume to fixpoint.
///
/// Within a round the phases are ordered: rule drops, rule adds, EDB
/// retracts, EDB inserts, then propagation. In particular a tuple both
/// retracted and inserted in the same round ends up **present**.
#[derive(Clone, Debug, Default)]
pub struct UpdateRound {
    /// EDB facts to insert (applied after the retracts).
    pub inserts: Vec<(Pred, Tuple)>,
    /// EDB facts to retract (applied before the inserts).
    pub retracts: Vec<(Pred, Tuple)>,
    /// Rules to add at fixpoint: compiled to fresh [`RuleId`]s and
    /// delta-seeded from the existing rows.
    pub rule_adds: Vec<Rule>,
    /// Rules to drop at fixpoint: every row whose justification names a
    /// dropped rule is over-deleted and then eligible for rescue through
    /// the surviving rules.
    pub rule_drops: Vec<RuleId>,
}

impl UpdateRound {
    /// An empty round (applying it is a no-op).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one fact insertion.
    pub fn insert(mut self, pred: Pred, tuple: Tuple) -> Self {
        self.inserts.push((pred, tuple));
        self
    }

    /// Adds fact insertions.
    pub fn insert_all(mut self, pred: Pred, tuples: &[Tuple]) -> Self {
        self.inserts.extend(tuples.iter().map(|t| (pred, t.clone())));
        self
    }

    /// Adds one fact retraction.
    pub fn retract(mut self, pred: Pred, tuple: Tuple) -> Self {
        self.retracts.push((pred, tuple));
        self
    }

    /// Adds fact retractions.
    pub fn retract_all(mut self, pred: Pred, tuples: &[Tuple]) -> Self {
        self.retracts.extend(tuples.iter().map(|t| (pred, t.clone())));
        self
    }

    /// Adds a rule addition.
    pub fn add_rule(mut self, rule: Rule) -> Self {
        self.rule_adds.push(rule);
        self
    }

    /// Adds a rule drop.
    pub fn drop_rule(mut self, id: RuleId) -> Self {
        self.rule_drops.push(id);
        self
    }

    /// Whether the round contains no work at all.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty()
            && self.retracts.is_empty()
            && self.rule_adds.is_empty()
            && self.rule_drops.is_empty()
    }
}

/// What one [`Materialization::apply`] round actually did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundReport {
    /// Novel EDB rows stored (duplicates and untracked predicates skip).
    pub inserted: usize,
    /// EDB rows actually removed (absent tuples skip).
    pub retracted: usize,
    /// Rules compiled in (= `rule_adds.len()` unless a panic aborted).
    pub rules_added: usize,
    /// Rules deactivated (unknown or already-dropped ids skip).
    pub rules_dropped: usize,
}

/// Runtime planner observability (see
/// [`Materialization::planner_report`]): how often the specialized
/// transitive-closure kernel ran, how much work it absorbed, and how
/// large the join indexes are. Runtime-only — reset by restore, never
/// part of [`EvalStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlannerReport {
    /// Kernel invocations (one per `(rule, delta, shard)` evaluation of
    /// a recognized transitive-closure plan — shard-count dependent).
    pub tc_hits: u64,
    /// Full body instantiations enumerated inside the kernel.
    pub tc_rows: u64,
    /// Always 0: plans are static (one batch plan per rule, one update
    /// plan per `(rule, delta atom)`, compiled where the store is
    /// built). The field outlives the adaptive planner it counted for
    /// because external tooling reads it.
    pub replans: u64,
    /// Distinct keys across all join indexes
    /// ([`crate::storage::IncrementalIndex::num_keys`]).
    pub index_keys: u64,
    /// Indexed rows across all join indexes; `index_rows / index_keys`
    /// is the mean chain length a probe walks.
    pub index_rows: u64,
}

/// A program materialized to its minimum model, kept at fixpoint across
/// EDB updates. See the module docs for the update algorithms; see
/// [`crate::eval`] for the batch entry points built on top of this, and
/// [`crate::server`] for the concurrent serving layer.
///
/// # Contract
///
/// - Only facts of **EDB predicates the program's rule bodies mention**
///   are stored; [`Materialization::insert_facts`] /
///   [`Materialization::retract_facts`] on any other predicate (unknown,
///   or an IDB of the program) are no-ops returning 0 — exactly as both
///   evaluators ignore database facts under IDB predicates.
/// - [`EvalStats`] accumulate over the materialization's lifetime (the
///   initial fixpoint plus every update), so the *difference* between
///   two [`Materialization::stats`] readings is the work an update cost.
/// - Update propagation is delta-driven (semi-naive) regardless of the
///   construction strategy; a [`Strategy::Naive`] materialization only
///   uses naive evaluation for its initial fixpoint.
#[derive(Clone, Debug)]
pub struct Materialization {
    rels: Vec<ColumnarRelation>,
    idxs: Vec<IncrementalIndex>,
    /// Per rule slot: the **batch plan** — one cardinality-ordered body
    /// order, run by the initial fixpoint and by added-rule seeding.
    /// Both plan tables are immutable once compiled and sit behind an
    /// `Arc`, so cloning a store never deep-copies them (only a rule
    /// add ever writes, through `Arc::make_mut`).
    plans: Arc<Vec<RulePlan>>,
    /// Per rule slot, per body position `k`: the **update plan** with
    /// atom `k` leading, run by update rounds for the item `(rule, k)`.
    /// Parallel to `plans` in a maintained (justification-recording)
    /// store and empty in a one-shot batch store, which can never be
    /// updated and must not pay for update-only indexes; an inner vector
    /// is empty under [`OrderMode::Shuffled`]. Where
    /// there is no update plan the rule's batch plan serves
    /// ([`Materialization::plan_for`]). Static: compiled by `build`,
    /// `compile_added_rule` and `from_bytes`, never revised.
    delta_plans: Arc<Vec<Vec<RulePlan>>>,
    /// Dense relation ids of the program's IDB predicates.
    idb_rels: Vec<usize>,
    /// Per relation: whether it is an IDB of the program.
    idb_flag: Vec<bool>,
    pred_of_rel: Vec<Pred>,
    rel_of_pred: FxHashMap<Pred, usize>,
    /// Per relation: the semi-naive watermark — rows `[0, old_hi)` are the
    /// previous iteration's `old` snapshot, `[old_hi, len)` the delta.
    /// At fixpoint (between updates) `old_hi == num_rows` everywhere.
    old_hi: Vec<usize>,
    /// New facts appended per productive iteration (convergence profile).
    profile: Vec<u64>,
    /// Per-relation justification stores when provenance recording is
    /// on (`Some` even if a relation never derives — empty is fine).
    prov: Option<Vec<RelJust>>,
    stats: EvalStats,
    strategy: Strategy,
    /// The program's goal (for [`Materialization::answer`]).
    goal: Atom,
    /// The program's rules (for lazy re-derivation-plan compilation).
    rules: Vec<Rule>,
    /// The `(relation, mask) → index id` registry, persisted so the
    /// lazily compiled re-derivation plans share existing indexes.
    idx_of: FxHashMap<(usize, Vec<usize>), usize>,
    /// Goal-directed per-tuple derivability checkers, compiled on the
    /// first retraction.
    rederive: Option<Vec<RederivePlan>>,
    /// Per rule slot: whether the rule is active. Dropped rules keep
    /// their plan (justification rule ids index plan slots) but stop
    /// firing, rescuing and appearing in update items.
    rule_active: Vec<bool>,
    /// How many times the reverse-dependency index was built **from
    /// scratch** by an over-deleting round: once on the first round with
    /// over-deletion work, then zero — the index persists and is
    /// extended incrementally (the regression handle for O(affected)
    /// retracts). Compaction rebuilds are counted by
    /// [`Materialization::compactions`] instead.
    csr_builds: u64,
    /// The serving layer's epoch (0 = epoch mode off): forwarded to
    /// every relation so tombstones are tagged for snapshot readers.
    epoch: u64,
    /// The persistent reverse-dependency index (lazy; see [`RevIndex`]).
    rev: Option<RevIndex>,
    /// Automatic compaction policy (`None` = manual
    /// [`Materialization::compact`] only).
    policy: Option<CompactionPolicy>,
    /// How many compaction passes have run (automatic or manual).
    compactions: u64,
    /// Update-round counter: bumped once per [`Materialization::apply`].
    /// Runtime-only (not persisted), so a freshly restored store reads 0
    /// — which is exactly how the query cache detects that its row-level
    /// links into this store are stale.
    version: u64,
    /// Cumulative count of EDB rows actually retracted (runtime-only).
    /// Lets the query cache skip the deletion pass on insert-only churn.
    edb_retracts: u64,
    /// The EDB rows the last [`Materialization::apply`] tombstoned, as
    /// `(relation, row)` (runtime-only): what a template store one
    /// round behind seeds its own over-deletion from.
    last_retracted: Vec<(u32, u32)>,
    /// Rows a deletion pass has read to find its casualties: reverse
    /// edges walked, plus live rows examined by a template store's
    /// justification scan (runtime-only observability).
    dred_reads: u64,
    /// Per relation: `true` if the relation is *external* — owned by a
    /// base store and only swapped in for maintenance rounds (see
    /// [`Materialization::link_external`]). Empty in ordinary stores.
    /// The reverse-dependency index keys the chains of external rows
    /// sparsely ([`Chains::Sparse`]).
    ext_flag: Vec<bool>,
    /// The body-order mode plans were compiled under (fixed at
    /// construction; persisted).
    order: OrderMode,
    /// Per relation: the live cardinality at construction (after the
    /// EDB load; 0 for relations interned later) — the tie-break basis
    /// of the update plans. Persisted, so a restored store compiles the
    /// same update plans whatever its relations have grown to.
    planned_card: Vec<u64>,
    /// Transitive-closure kernel invocations (runtime-only).
    tc_hits: u64,
    /// Instantiations enumerated inside the kernel (runtime-only).
    tc_rows: u64,
}

impl Materialization {
    /// Materializes `program` over an empty database (seed rules fire;
    /// everything else waits for [`Materialization::insert_facts`]).
    /// Justifications are recorded, so retraction is available.
    pub fn new(program: &Program, strategy: Strategy) -> Self {
        Self::from_database(program, &Database::new(), strategy)
    }

    /// Materializes `program` over `db`: bulk-loads the EDB facts and
    /// runs the batch fixpoint once — the exact code path of
    /// [`crate::eval::evaluate`] — then stands ready to absorb updates.
    /// Justifications are recorded, so retraction is available.
    pub fn from_database(program: &Program, db: &Database, strategy: Strategy) -> Self {
        Self::batch(program, db, strategy, true, OrderMode::Planned)
    }

    /// [`Materialization::from_database`] under an explicit
    /// [`OrderMode`] — the order-independence test hook
    /// ([`OrderMode::Shuffled`]).
    pub fn from_database_with(
        program: &Program,
        db: &Database,
        strategy: Strategy,
        order: OrderMode,
    ) -> Self {
        Self::batch(program, db, strategy, true, order)
    }

    /// The batch entry point the thin `eval` wrappers use: `record`
    /// selects justification recording (off for plain `evaluate`, whose
    /// callers immediately read the result out and drop the state).
    pub(crate) fn batch(
        program: &Program,
        db: &Database,
        strategy: Strategy,
        record: bool,
        order: OrderMode,
    ) -> Self {
        let mut m = Self::build(program, db, strategy, record, order, None);
        m.run_fixpoint(true);
        m
    }

    /// `order_by[i]` is the rule the planner orders rule `i`'s body by
    /// (see [`plan_rule`]) — `None`, the program's own rules, except in
    /// [`Materialization::new_view`].
    fn build(
        program: &Program,
        db: &Database,
        strategy: Strategy,
        record: bool,
        order: OrderMode,
        order_by: Option<&[Rule]>,
    ) -> Self {
        let idbs = program.idb_predicates();

        // Arity resolution mirrors the reference evaluator: database
        // relations first, then rule heads, then body atoms.
        let mut arity: FxHashMap<Pred, usize> = FxHashMap::default();
        for (p, r) in db.iter() {
            arity.insert(p, r.arity());
        }
        for r in &program.rules {
            arity.entry(r.head.pred).or_insert_with(|| r.head.arity());
            for a in &r.body {
                arity.entry(a.pred).or_insert_with(|| a.arity());
            }
        }

        // Dense relation ids: IDB predicates first, then every EDB
        // predicate referenced by a rule body.
        let mut rels: Vec<ColumnarRelation> = Vec::new();
        let mut pred_of_rel: Vec<Pred> = Vec::new();
        let mut rel_of_pred: FxHashMap<Pred, usize> = FxHashMap::default();
        let intern_rel = |p: Pred,
                              rels: &mut Vec<ColumnarRelation>,
                              pred_of_rel: &mut Vec<Pred>,
                              rel_of_pred: &mut FxHashMap<Pred, usize>|
         -> usize {
            *rel_of_pred.entry(p).or_insert_with(|| {
                let id = rels.len();
                rels.push(ColumnarRelation::new(*arity.get(&p).unwrap_or(&0)));
                pred_of_rel.push(p);
                id
            })
        };
        let mut idb_rels = Vec::new();
        for &p in &idbs {
            idb_rels.push(intern_rel(p, &mut rels, &mut pred_of_rel, &mut rel_of_pred));
        }
        for r in &program.rules {
            for a in &r.body {
                intern_rel(a.pred, &mut rels, &mut pred_of_rel, &mut rel_of_pred);
            }
        }

        // Load EDB facts. Facts the database holds for IDB predicates are
        // ignored, exactly as in the reference evaluator (IDB body atoms
        // only ever read the derived snapshots).
        for (p, r) in db.iter() {
            if idbs.contains(&p) {
                continue;
            }
            if let Some(&rid) = rel_of_pred.get(&p) {
                // The input size is known up front: size the dedup
                // table once instead of growing it through every
                // doubling.
                rels[rid].reserve_rows(r.len());
                for t in r.iter() {
                    rels[rid].insert(t);
                }
            }
        }

        // Plan + compile rules; register one index per (relation, mask).
        // Cardinalities are the live row counts after the EDB load (IDB
        // relations are still empty) — the reference evaluator computes
        // the same orders from the input database.
        let mut idxs: Vec<IncrementalIndex> = Vec::new();
        let mut idx_of: FxHashMap<(usize, Vec<usize>), usize> = FxHashMap::default();
        let planned_card: Vec<u64> = rels.iter().map(|r| r.num_live() as u64).collect();
        let plans = {
            let rels = &rels;
            let rel_of_pred_ref = &rel_of_pred;
            let mut card =
                |p: Pred| rel_of_pred_ref.get(&p).map_or(0, |&r| rels[r].num_live() as u64);
            program
                .rules
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    plan_rule(
                        r,
                        order_by.map_or(r, |o| &o[i]),
                        i,
                        &idbs,
                        rel_of_pred_ref,
                        &mut idxs,
                        &mut idx_of,
                        order,
                        &mut card,
                    )
                })
                .collect()
        };

        let mut idb_flag = vec![false; rels.len()];
        for &r in &idb_rels {
            idb_flag[r] = true;
        }
        let old_hi = vec![0; rels.len()];
        let prov = record.then(|| vec![RelJust::default(); rels.len()]);
        let rule_active = vec![true; program.rules.len()];
        let mut m = Self {
            rels,
            idxs,
            plans: Arc::new(plans),
            delta_plans: Arc::default(),
            idb_rels,
            idb_flag,
            pred_of_rel,
            rel_of_pred,
            old_hi,
            profile: Vec::new(),
            prov,
            stats: EvalStats::default(),
            strategy,
            goal: program.goal.clone(),
            rules: program.rules.clone(),
            idx_of,
            rederive: None,
            rule_active,
            csr_builds: 0,
            epoch: 0,
            rev: None,
            policy: Some(CompactionPolicy::default()),
            compactions: 0,
            version: 0,
            edb_retracts: 0,
            last_retracted: Vec::new(),
            dred_reads: 0,
            ext_flag: Vec::new(),
            order,
            planned_card,
            tc_hits: 0,
            tc_rows: 0,
        };
        // A recording store is a maintained one: register the update
        // plans' indexes now, so the initial fixpoint fills them
        // alongside the batch plans' and no update round ever has to.
        if record {
            m.compile_delta_plans(order_by);
        }
        m
    }

    /// The program's IDB predicates, as the plan compilers take them.
    fn idb_preds(&self) -> Vec<Pred> {
        self.idb_rels.iter().map(|&r| self.pred_of_rel[r]).collect()
    }

    /// Compiles the update plans of every rule slot that has none yet
    /// (all of them at construction and restore, the new slot after a
    /// rule add), registering the indexes they probe. `order_by` as in
    /// [`Materialization::build`].
    fn compile_delta_plans(&mut self, order_by: Option<&[Rule]>) {
        let idbs = self.idb_preds();
        let rel_of_pred = &self.rel_of_pred;
        let planned_card = &self.planned_card;
        let mut card = |p: Pred| rel_of_pred.get(&p).map_or(0, |&r| planned_card[r]);
        let delta_plans = Arc::make_mut(&mut self.delta_plans);
        for (i, rule) in self.rules.iter().enumerate().skip(delta_plans.len()) {
            delta_plans.push(plan_rule_deltas(
                rule,
                order_by.map_or(rule, |o| &o[i]),
                &idbs,
                rel_of_pred,
                &mut self.idxs,
                &mut self.idx_of,
                self.order,
                &mut card,
            ));
        }
    }

    /// The plan that evaluates `rule` with delta atom `delta`: the
    /// update plan of that body position where one was compiled, the
    /// rule's batch plan otherwise. Whichever plan runs, an update's
    /// delta atom `k` sits at step depth `plan.step_of_body[k]` and the
    /// snapshot ranges follow rule-text order, so the choice changes
    /// cost, never results.
    fn plan_for(&self, rule: usize, delta: Delta) -> &RulePlan {
        let update = match delta {
            Delta::Update(k) => self.delta_plans.get(rule).and_then(|ps| ps.get(k)),
            _ => None,
        };
        update.unwrap_or(&self.plans[rule])
    }

    // -----------------------------------------------------------------
    // Public state of the materialization
    // -----------------------------------------------------------------

    /// Work counters accumulated since construction (initial fixpoint
    /// plus every update).
    pub fn stats(&self) -> EvalStats {
        self.stats
    }

    /// The strategy updates run under.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The body-order mode this store's plans were compiled under.
    pub fn planner_config(&self) -> OrderMode {
        self.order
    }

    /// Runtime planner observability: kernel hit counts and index sizes.
    pub fn planner_report(&self) -> PlannerReport {
        PlannerReport {
            tc_hits: self.tc_hits,
            tc_rows: self.tc_rows,
            replans: 0,
            index_keys: self.idxs.iter().map(|i| i.num_keys() as u64).sum(),
            index_rows: self.idxs.iter().map(|i| i.watermark() as u64).sum(),
        }
    }

    /// The IDB model as a [`Database`] (live rows only). O(model).
    pub fn idb_database(&self) -> Database {
        let mut out = Database::new();
        for &r in &self.idb_rels {
            let rel = &self.rels[r];
            let dst = out.relation_mut(self.pred_of_rel[r], rel.arity());
            for row in rel.rows_iter() {
                dst.insert(row.to_vec());
            }
        }
        out
    }

    /// Every tracked relation — the stored EDB facts *and* the IDB model
    /// — as a [`Database`] (live rows only). This is the store the
    /// retract-restores-the-store tests compare bit-for-bit.
    pub fn database(&self) -> Database {
        let mut out = Database::new();
        for (r, rel) in self.rels.iter().enumerate() {
            let dst = out.relation_mut(self.pred_of_rel[r], rel.arity());
            for row in rel.rows_iter() {
                dst.insert(row.to_vec());
            }
        }
        out
    }

    /// The goal's answer relation over the current model: selection by
    /// the goal's constants and repeated variables, projection onto its
    /// distinct variables (no intermediate `Database`).
    pub fn answer(&self) -> Relation {
        self.goal_answer(&self.goal)
    }

    /// Applies `goal` over the rows of its predicate — of any tracked
    /// relation, or (`idb_only`) of the program's IDB relations alone,
    /// as the batch entry points read a model — live now, or as of the
    /// snapshot `pin = (per-relation frontier, epoch)`, to which
    /// relations interned after the pin are invisible.
    fn select(&self, goal: &Atom, idb_only: bool, pin: Option<(&[usize], u64)>) -> Relation {
        let (ops, nvars) = eval::goal_plan(goal);
        let rid = self.rel_of_pred.get(&goal.pred).filter(|&&r| !idb_only || self.idb_flag[r]);
        match (rid, pin) {
            (Some(&r), None) => eval::select_project(&ops, nvars, self.rels[r].rows_iter()),
            (Some(&r), Some((frontier, epoch))) if r < frontier.len() => {
                eval::select_project(&ops, nvars, self.rels[r].rows_iter_at(frontier[r], epoch))
            }
            _ => Relation::new(nvars),
        }
    }

    /// Number of live facts stored for `pred` (EDB or IDB), 0 if the
    /// predicate is not tracked.
    pub fn num_facts(&self, pred: Pred) -> usize {
        self.rel_of_pred
            .get(&pred)
            .map_or(0, |&r| self.rels[r].num_live())
    }

    /// A snapshot of the recorded provenance (one justification per
    /// derived live row), valid for the current state — justifications
    /// recorded before an update stay valid afterwards because row ids
    /// never move. O(store) clone.
    pub fn provenance(&self) -> Provenance {
        // Justifications are recorded in original rule-body order
        // whatever order the plan runs the steps in.
        let body_rels = self
            .plans
            .iter()
            .map(|p| p.body_rels.iter().map(|&r| r as u32).collect())
            .collect();
        Provenance::from_engine(
            self.rels.clone(),
            self.pred_of_rel.clone(),
            self.rel_of_pred.clone(),
            self.idb_rels.clone(),
            body_rels,
            self.prov
                .clone()
                .expect("Materialization always records justifications"),
        )
    }

    // -----------------------------------------------------------------
    // Updates
    // -----------------------------------------------------------------

    /// Inserts EDB facts and incrementally maintains the model: novel
    /// rows become the next semi-naive delta and evaluation resumes from
    /// the current fixpoint — no recompute. Returns the number of novel
    /// rows stored. No-op (0) for predicates the program's rule bodies
    /// do not mention, and for IDB predicates (both evaluators ignore
    /// database facts under IDB predicates). Panics on arity mismatch.
    ///
    /// A thin wrapper over [`Materialization::apply`] — one call is one
    /// single-phase round.
    pub fn insert_facts(&mut self, pred: Pred, rows: &[Tuple]) -> usize {
        self.apply(&UpdateRound::new().insert_all(pred, rows)).inserted
    }

    /// Retracts EDB facts by delete–rederive (DRed) and incrementally
    /// maintains the model. Returns the number of rows **actually
    /// removed**: retracting a fact that was never inserted, was already
    /// retracted (double-retract), or whose row was reclaimed by
    /// [`Materialization::compact`] is a guaranteed no-op — it
    /// contributes 0 to the count and leaves the store untouched.
    /// Likewise a no-op (0) for untracked or IDB predicates.
    ///
    /// A thin wrapper over [`Materialization::apply`] — one call is one
    /// single-phase round, O(affected rows) via the persistent
    /// reverse-dependency index (after a one-time lazy build on the
    /// first retract ever; batch mixed work into one [`UpdateRound`] to
    /// share the fixpoint resume).
    pub fn retract_facts(&mut self, pred: Pred, rows: &[Tuple]) -> usize {
        self.apply(&UpdateRound::new().retract_all(pred, rows)).retracted
    }

    /// Adds one rule at fixpoint and seeds its derivations from the
    /// existing rows; returns its stable [`RuleId`]. A thin wrapper over
    /// [`Materialization::apply`].
    ///
    /// # Panics
    ///
    /// If the rule's head predicate is a stored EDB relation of this
    /// materialization (the IDB/EDB partition is fixed at construction),
    /// or on an arity mismatch with an existing relation.
    pub fn add_rule(&mut self, rule: Rule) -> RuleId {
        let id = RuleId(self.plans.len() as u32);
        self.apply(&UpdateRound::new().add_rule(rule));
        id
    }

    /// Drops a rule at fixpoint: every row whose recorded justification
    /// names it is over-deleted and then re-derived through the
    /// surviving rules where possible. Returns whether `id` named an
    /// active rule. A thin wrapper over [`Materialization::apply`].
    pub fn drop_rule(&mut self, id: RuleId) -> bool {
        self.apply(&UpdateRound::new().drop_rule(id)).rules_dropped == 1
    }

    /// Applies one batched update round — EDB inserts and retracts plus
    /// rule adds and drops — as a single mixed batch: **one**
    /// over-deletion walk of the persistent reverse-dependency index,
    /// one rescue pass, one semi-naive resume to fixpoint. Equivalent to any
    /// sequential order of the corresponding single-item calls whenever
    /// the round's insert and retract sets don't overlap (a tuple both
    /// retracted and inserted in one round ends up present: retracts
    /// apply first).
    ///
    /// The phases, in order:
    ///
    /// 1. **Rule drops** deactivate their plan slots; live rows whose
    ///    recorded justification names a dropped rule become
    ///    over-deletion seeds *and* rescue candidates (another rule may
    ///    still derive them).
    /// 2. **Rule adds** compile to fresh plan slots (stable
    ///    [`RuleId`]s). A brand-new head predicate becomes a fresh IDB
    ///    relation; new body predicates become fresh (empty, trackable)
    ///    EDB relations.
    /// 3. **Retracts** tombstone their EDB rows; the over-deletion
    ///    closure for *all* seeds (drops + retracts) walks the
    ///    persistent reverse-dependency index — O(affected rows), with
    ///    one lazy index build on the first over-deleting round ever
    ///    ([`Materialization::csr_builds`]).
    /// 4. **Inserts** append novel EDB rows — into the delta range, the
    ///    watermarks still sit at the old fixpoint.
    /// 5. Added rules **seed** their deltas with one full-range
    ///    evaluation pass each over the settled store.
    /// 6. Over-deleted candidates are **rescued** by goal-directed
    ///    one-step re-derivation against the surviving active rules
    ///    (added rules participate, dropped rules don't). Each rule's
    ///    rescue plan binds the head from the candidate and enters the
    ///    body through the atom with the smallest fan-in — `par(Z, y)`,
    ///    not `anc(x, Z)` — testing fully bound atoms against the dedup
    ///    tables ([`crate::plan`]), so the phase costs O(candidates ×
    ///    fan-in): the order of the insert round that derived the rows.
    /// 7. One semi-naive resume propagates every delta — inserted,
    ///    seeded and rescued rows — to the new fixpoint.
    ///
    /// # Panics
    ///
    /// On tuple/relation arity mismatches, and if an added rule's head
    /// predicate is a stored EDB relation of this materialization.
    pub fn apply(&mut self, round: &UpdateRound) -> RoundReport {
        let mut report = RoundReport::default();

        // Restore fast path: a just-restored store defers the O(rows)
        // dedup-table rebuild to here, its first write — the staging
        // existence probes below consult those tables.
        self.ensure_dedup();

        // 1. Rule drops: deactivate, then seed over-deletion with every
        // live row justified by a dropped rule. Unlike EDB retract seeds
        // these are rescue candidates — the tuples may well survive via
        // other rules.
        let mut dropped: Vec<u32> = Vec::new();
        for &RuleId(id) in &round.rule_drops {
            let i = id as usize;
            if i < self.plans.len() && self.rule_active[i] {
                self.rule_active[i] = false;
                dropped.push(id);
                report.rules_dropped += 1;
            }
        }

        // 2. Rule adds: compile to fresh stable slots. Seeding waits
        // until the round's EDB changes have settled (phase 5).
        let first_new_plan = self.plans.len();
        for rule in &round.rule_adds {
            self.compile_added_rule(rule);
            report.rules_added += 1;
        }

        let mut worklist: Vec<(u32, u32)> = Vec::new();
        let mut candidates: Vec<(u32, u32)> = Vec::new();
        if !dropped.is_empty() {
            let prov = self
                .prov
                .as_ref()
                .expect("Materialization always records justifications");
            let mut seeds: Vec<(u32, u32)> = Vec::new();
            for &hrel in &self.idb_rels {
                for hrow in 0..self.rels[hrel].num_rows() {
                    if self.rels[hrel].is_live(hrow)
                        && dropped.contains(&prov[hrel].entry(hrow).0)
                    {
                        seeds.push((hrel as u32, hrow as u32));
                    }
                }
            }
            for &(srel, srow) in &seeds {
                if self.rels[srel as usize].tombstone(srow as usize) {
                    worklist.push((srel, srow));
                    candidates.push((srel, srow));
                }
            }
        }

        // 3. EDB retract seeds (deliberate removals: not rescuable),
        // kept for the template stores that catch up with this round.
        self.last_retracted.clear();
        for (pred, t) in &round.retracts {
            let Some(&rid) = self.rel_of_pred.get(pred) else {
                continue;
            };
            if self.idb_flag[rid] {
                continue;
            }
            assert_eq!(t.len(), self.rels[rid].arity(), "tuple arity mismatch");
            let r = self.rels[rid].find_row(t);
            if r != NO_ROW && self.rels[rid].tombstone(r as usize) {
                worklist.push((rid as u32, r));
                self.last_retracted.push((rid as u32, r));
                report.retracted += 1;
            }
        }

        // Over-delete everything whose recorded justification
        // transitively uses a seed; the casualties are rescue candidates.
        self.over_delete(worklist, &mut candidates);

        // 4. EDB inserts: novel rows land above the watermarks (the
        // fixpoint's row counts), i.e. in the delta ranges.
        for (pred, t) in &round.inserts {
            let Some(&rid) = self.rel_of_pred.get(pred) else {
                continue;
            };
            if self.idb_flag[rid] {
                continue;
            }
            if self.rels[rid].insert(t) {
                report.inserted += 1;
            }
        }

        // 5. Seed added rules: one full-range pass each over the settled
        // store. The merged rows also land in the delta ranges, so the
        // final resume chains everything — a second added rule reading
        // the first one's head catches up there.
        if first_new_plan < self.plans.len() {
            self.extend_indexes();
            let mut scratch = Scratch::default();
            let mut pending = PendingTuples::default();
            for pi in first_new_plan..self.plans.len() {
                self.eval_rule(pi, Delta::Full, &mut scratch, &mut pending);
            }
            let appended = self.merge_pending(&mut pending);
            self.stats.tuples_derived += appended;
            self.stats.rule_firings += appended;
        }

        // 6. Rescue: re-derive over-deleted survivors from the remaining
        // store (inserted and seeded rows included). The watermarks
        // still sit at the old fixpoint, so every rescued insert lands
        // in the delta range and phase 7 propagates it.
        self.rescue(&candidates);

        // 7. Propagate every delta — inserted, seeded and rescued rows —
        // through the normal update machinery to the new fixpoint.
        self.run_fixpoint(false);

        // Plain (non-serving) stores compact themselves at fixpoint when
        // the policy trips. In epoch mode (`epoch > 0`) the server owns
        // the trigger — it must defer while snapshots are pinned.
        if self.epoch == 0 && self.needs_compaction() {
            self.compact();
        }
        self.version = self.version.wrapping_add(1);
        self.edb_retracts += report.retracted as u64;
        report
    }

    /// Compiles one added rule into a fresh plan slot, interning any
    /// brand-new predicates (head → fresh IDB relation, body → fresh
    /// EDB relations).
    fn compile_added_rule(&mut self, rule: &Rule) {
        match self.rel_of_pred.get(&rule.head.pred) {
            Some(&r) => {
                assert!(
                    self.idb_flag[r],
                    "added rule's head must not be a stored EDB relation \
                     (the IDB/EDB partition is fixed at construction)"
                );
                assert_eq!(self.rels[r].arity(), rule.head.arity(), "tuple arity mismatch");
            }
            None => {
                self.intern_new_rel(rule.head.pred, rule.head.arity(), true);
            }
        }
        for a in &rule.body {
            match self.rel_of_pred.get(&a.pred) {
                Some(&r) => {
                    assert_eq!(self.rels[r].arity(), a.arity(), "tuple arity mismatch");
                }
                None => {
                    self.intern_new_rel(a.pred, a.arity(), false);
                }
            }
        }
        let idbs = self.idb_preds();
        let slot = self.plans.len();
        let plan = {
            let rels = &self.rels;
            let rel_of_pred = &self.rel_of_pred;
            let mut card =
                |p: Pred| rel_of_pred.get(&p).map_or(0, |&r| rels[r].num_live() as u64);
            plan_rule(
                rule,
                rule,
                slot,
                &idbs,
                rel_of_pred,
                &mut self.idxs,
                &mut self.idx_of,
                self.order,
                &mut card,
            )
        };
        Arc::make_mut(&mut self.plans).push(plan);
        self.rules.push(rule.clone());
        self.rule_active.push(true);
        if self.prov.is_some() {
            self.compile_delta_plans(None);
        }
        if self.rederive.is_some() {
            self.ensure_rederive_plans(None);
        }
    }

    /// Interns a relation for a predicate first seen in an added rule.
    fn intern_new_rel(&mut self, pred: Pred, arity: usize, idb: bool) -> usize {
        let r = self.rels.len();
        let mut rel = ColumnarRelation::new(arity);
        if self.epoch > 0 {
            rel.set_epoch(self.epoch);
        }
        self.rels.push(rel);
        self.pred_of_rel.push(pred);
        self.rel_of_pred.insert(pred, r);
        self.idb_flag.push(idb);
        if idb {
            self.idb_rels.push(r);
        }
        self.old_hi.push(0);
        self.planned_card.push(0);
        if !self.ext_flag.is_empty() {
            self.ext_flag.push(false);
        }
        if let Some(prov) = &mut self.prov {
            prov.push(RelJust::default());
        }
        r
    }

    // -----------------------------------------------------------------
    // Rule-slot and serving-layer state
    // -----------------------------------------------------------------

    /// The active rules, as `(id, rule)` in slot order. Slot order is
    /// program order at construction followed by add order, so a
    /// [`Program`] whose `rules` vector lists every rule ever held (in
    /// that order, dropped ones included) aligns with the recorded
    /// justifications for [`Provenance::check`].
    pub fn active_rules(&self) -> Vec<(RuleId, &Rule)> {
        self.rules
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.rule_active[i])
            .map(|(i, r)| (RuleId(i as u32), r))
            .collect()
    }

    /// Total number of rule slots ever allocated (dropped ones
    /// included); the next added rule gets this id.
    pub fn num_rule_slots(&self) -> usize {
        self.plans.len()
    }

    /// Whether `id` names an active rule.
    pub fn is_rule_active(&self, id: RuleId) -> bool {
        (id.0 as usize) < self.rule_active.len() && self.rule_active[id.0 as usize]
    }

    /// How many times the reverse-dependency index was built **from
    /// scratch** by an over-deleting round: exactly once — the first
    /// round with any over-deletion work — and zero afterwards, however
    /// many retracts follow (the index is maintained incrementally; the
    /// rebuild at each [`Materialization::compact`] is counted by
    /// [`Materialization::compactions`] instead).
    pub fn csr_builds(&self) -> u64 {
        self.csr_builds
    }

    /// Builds the reverse-dependency index from every live recorded
    /// justification: one full pass over the packed buffers.
    fn build_rev_index(&self) -> RevIndex {
        let prov = self
            .prov
            .as_ref()
            .expect("Materialization always records justifications");
        let mut rev = RevIndex {
            head: self
                .rels
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    if self.is_external(i) {
                        Chains::Sparse(FxHashMap::default())
                    } else {
                        Chains::Dense(vec![NO_EDGE; r.num_rows()])
                    }
                })
                .collect(),
            edges: Vec::new(),
        };
        for &hrel in &self.idb_rels {
            for hrow in 0..self.rels[hrel].num_rows() {
                if !self.rels[hrel].is_live(hrow) {
                    continue;
                }
                let (rule, body) = prov[hrel].entry(hrow);
                for (k, &brow) in body.iter().enumerate() {
                    let brel = self.plans[rule as usize].body_rels[k];
                    rev.add(brel, brow, hrel as u32, hrow as u32);
                }
            }
        }
        rev
    }

    /// Lazily builds the persistent reverse index (counted by
    /// [`Materialization::csr_builds`]); after this every merge and
    /// rescue appends its edges incrementally.
    fn ensure_rev_index(&mut self) {
        if self.rev.is_none() {
            self.csr_builds += 1;
            self.rev = Some(self.build_rev_index());
        }
    }

    // -----------------------------------------------------------------
    // Compaction (bounded memory under churn)
    // -----------------------------------------------------------------

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
    pub fn needs_compaction(&self) -> bool {
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
    /// current) fixpoint. Results, [`EvalStats`] and subsequent update
    /// behavior are unchanged; only row ids move.
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
            for &hrel in &self.idb_rels {
                let old = std::mem::take(&mut prov[hrel]);
                let mut new = RelJust::default();
                for hrow in 0..old.len() {
                    let new_id = match &remaps[hrel] {
                        Some(m) => m[hrow],
                        None => hrow as u32,
                    };
                    if new_id == NO_ROW {
                        continue;
                    }
                    let (rule, body) = old.entry(hrow);
                    body_scratch.clear();
                    for (k, &brow) in body.iter().enumerate() {
                        let brel = self.plans[rule as usize].body_rels[k];
                        let nb = match &remaps[brel] {
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
        // live-only (also shedding stale edges). Not counted by
        // `csr_builds` — that counter tracks lazy from-scratch builds.
        if self.rev.is_some() {
            self.rev = Some(self.build_rev_index());
        }

        // Row ids moved: what the last round retracted names nothing now.
        self.last_retracted.clear();
        self.compactions += 1;
        reclaimed
    }

    /// A memory snapshot of the row-addressed structures (tuple data,
    /// join indexes, justifications, reverse index), in words — what the
    /// churn benches gate on to prove compaction bounds the store.
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
        if let Some(rev) = &self.rev {
            s.rev_words = rev.footprint_words();
        }
        s
    }

    // -----------------------------------------------------------------
    // Persistence (snapshot / restore; see [`crate::persist`] for the
    // file format)
    // -----------------------------------------------------------------

    /// Serializes the complete materialized state — rows, liveness,
    /// watermarks, justifications, rule slots (deactivated ids
    /// included), counters — into one versioned, length-prefixed,
    /// checksummed snapshot image ([`crate::persist`] documents the
    /// layout). Derived structures whose layout is probe-history
    /// dependent (dedup tables, join indexes, compiled plans, the
    /// reverse index) are rebuilt on restore, so
    /// `to_bytes(from_bytes(x)) == x` bit-for-bit.
    pub fn to_bytes(&self) -> Vec<u8> {
        fn atom(e: &mut Enc, a: &Atom) {
            e.u32(a.pred.0);
            e.usize(a.args.len());
            for t in &a.args {
                match *t {
                    Term::Const(c) => {
                        e.u8(0);
                        e.u32(c.0);
                    }
                    Term::Var(v) => {
                        e.u8(1);
                        e.u32(v.0);
                    }
                }
            }
        }

        let mut e = Enc::default();
        match self.strategy {
            Strategy::Naive => e.u8(0),
            Strategy::SemiNaive => e.u8(1),
            Strategy::SemiNaiveParallel { threads } => {
                e.u8(2);
                e.usize(threads);
            }
            Strategy::SemiNaiveSharded { threads, shards } => {
                e.u8(3);
                e.usize(threads);
                e.usize(shards);
            }
        }
        atom(&mut e, &self.goal);
        e.usize(self.rules.len());
        for r in &self.rules {
            atom(&mut e, &r.head);
            e.usize(r.body.len());
            for a in &r.body {
                atom(&mut e, a);
            }
        }
        e.usize(self.rule_active.len());
        for &a in &self.rule_active {
            e.u8(u8::from(a));
        }
        e.u64(self.epoch);
        e.u64(self.csr_builds);
        e.u64(self.compactions);
        e.usize(self.stats.iterations);
        e.u64(self.stats.rule_firings);
        e.u64(self.stats.tuples_derived);
        e.u64(self.stats.join_probes);
        e.u64s(&self.profile);
        match self.policy {
            None => e.u8(0),
            Some(p) => {
                e.u8(1);
                e.usize(p.min_dead_rows);
                e.u32(p.dead_percent);
            }
        }
        match self.order {
            OrderMode::Planned => e.u8(1),
            OrderMode::Shuffled(seed) => {
                e.u8(2);
                e.u64(seed);
            }
        }
        // Per-rule body permutation of the batch plan (the step depth of
        // each original body atom): restored plans must be bit-identical
        // to the live ones, which a cardinality re-derivation could not
        // guarantee after rule adds.
        for p in self.plans.iter() {
            let sob: Vec<u32> = p.step_of_body.iter().map(|&d| d as u32).collect();
            e.u32s(&sob);
        }
        // The build-time cardinalities the update plans break ties by,
        // so a restored store compiles exactly the live store's.
        e.u64s(&self.planned_card);
        e.usize(self.rels.len());
        for (r, rel) in self.rels.iter().enumerate() {
            e.u32(self.pred_of_rel[r].0);
            e.u8(u8::from(self.idb_flag[r]));
            e.usize(rel.arity());
            e.usize(rel.num_rows());
            e.usize(self.old_hi[r]);
            e.reserve(rel.data().len() * 4);
            for c in rel.data() {
                e.u32(c.0);
            }
            e.u64s(rel.dead_words());
            e.usize(rel.num_dead());
            e.u64(rel.current_epoch());
            // Tags sorted by row id: the hash map's iteration order must
            // not leak into the bytes (bit-for-bit round-trips).
            let mut tags: Vec<(u32, u64)> =
                rel.tomb_tags().iter().map(|(&row, &te)| (row, te)).collect();
            tags.sort_unstable();
            e.usize(tags.len());
            for (row, te) in tags {
                e.u32(row);
                e.u64(te);
            }
        }
        match &self.prov {
            None => e.u8(0),
            Some(prov) => {
                e.u8(1);
                for rj in prov {
                    let (off, buf) = rj.parts();
                    e.u32s(off);
                    e.u32s(buf);
                }
            }
        }
        e.seal()
    }

    /// Reassembles a materialization from a snapshot image, rebuilding
    /// the derived structures (dedup tables, join indexes, compiled
    /// plans) from the persisted rows and rules. The store comes back
    /// **at the persisted fixpoint** — no re-evaluation — ready for
    /// queries and further [`Materialization::apply`] rounds.
    ///
    /// Container framing (magic, version, stored length, FNV-1a 64
    /// checksum) is verified before any payload byte is parsed, and the
    /// payload itself is shape-checked, so a truncated, corrupted or
    /// hand-forged file yields a clean [`PersistError`] — never a
    /// silently wrong store.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PersistError> {
        fn atom(d: &mut Dec<'_>) -> Result<Atom, PersistError> {
            let pred = Pred(d.u32()?);
            let n = d.count(5)?;
            let mut args = Vec::with_capacity(n);
            for _ in 0..n {
                args.push(match d.u8()? {
                    0 => Term::Const(Const(d.u32()?)),
                    1 => Term::Var(Var(d.u32()?)),
                    _ => return Err(PersistError::Corrupt("unknown term tag")),
                });
            }
            Ok(Atom { pred, args })
        }

        let mut d = persist::open(bytes)?;
        let strategy = match d.u8()? {
            0 => Strategy::Naive,
            1 => Strategy::SemiNaive,
            2 => Strategy::SemiNaiveParallel {
                threads: d.usize()?,
            },
            3 => {
                let threads = d.usize()?;
                let shards = d.usize()?;
                Strategy::SemiNaiveSharded { threads, shards }
            }
            _ => return Err(PersistError::Corrupt("unknown strategy tag")),
        };
        let goal = atom(&mut d)?;
        let nrules = d.count(1)?;
        let mut rules = Vec::with_capacity(nrules);
        for _ in 0..nrules {
            let head = atom(&mut d)?;
            let nbody = d.count(1)?;
            let mut body = Vec::with_capacity(nbody);
            for _ in 0..nbody {
                body.push(atom(&mut d)?);
            }
            rules.push(Rule { head, body });
        }
        let nact = d.count(1)?;
        if nact != nrules {
            return Err(PersistError::Corrupt("rule-activity length mismatch"));
        }
        let mut rule_active = Vec::with_capacity(nact);
        for _ in 0..nact {
            rule_active.push(d.u8()? != 0);
        }
        let epoch = d.u64()?;
        let csr_builds = d.u64()?;
        let compactions = d.u64()?;
        let stats = EvalStats {
            iterations: d.usize()?,
            rule_firings: d.u64()?,
            tuples_derived: d.u64()?,
            join_probes: d.u64()?,
        };
        let profile = d.u64s()?;
        let policy = match d.u8()? {
            0 => None,
            1 => Some(CompactionPolicy {
                min_dead_rows: d.usize()?,
                dead_percent: d.u32()?,
            }),
            _ => return Err(PersistError::Corrupt("unknown policy tag")),
        };
        let order = match d.u8()? {
            1 => OrderMode::Planned,
            2 => OrderMode::Shuffled(d.u64()?),
            _ => return Err(PersistError::Corrupt("unknown order-mode tag")),
        };
        // Per-rule body permutations: inverted back into evaluation
        // order and fed straight to `compile_rule`, so the restored
        // plans match the persisted ones exactly regardless of what the
        // planner would pick from today's cardinalities.
        let mut orders: Vec<Vec<usize>> = Vec::with_capacity(nrules);
        for rule in &rules {
            let sob = d.u32s()?;
            if sob.len() != rule.body.len() {
                return Err(PersistError::Corrupt("body-order length mismatch"));
            }
            let mut ord = vec![usize::MAX; sob.len()];
            for (k, &depth) in sob.iter().enumerate() {
                let depth = depth as usize;
                if depth >= ord.len() || ord[depth] != usize::MAX {
                    return Err(PersistError::Corrupt("body order is not a permutation"));
                }
                ord[depth] = k;
            }
            orders.push(ord);
        }
        let planned_card = d.u64s()?;

        let nrels = d.count(1)?;
        if planned_card.len() != nrels {
            return Err(PersistError::Corrupt("cardinality snapshot length mismatch"));
        }
        let mut rels: Vec<ColumnarRelation> = Vec::with_capacity(nrels);
        let mut pred_of_rel: Vec<Pred> = Vec::with_capacity(nrels);
        let mut rel_of_pred: FxHashMap<Pred, usize> = FxHashMap::default();
        let mut idb_flag: Vec<bool> = Vec::with_capacity(nrels);
        let mut old_hi: Vec<usize> = Vec::with_capacity(nrels);
        for rid in 0..nrels {
            let pred = Pred(d.u32()?);
            if rel_of_pred.insert(pred, rid).is_some() {
                return Err(PersistError::Corrupt("duplicate predicate"));
            }
            let idb = match d.u8()? {
                0 => false,
                1 => true,
                _ => return Err(PersistError::Corrupt("bad IDB flag")),
            };
            let arity = d.usize()?;
            let rows = d.usize()?;
            let hi = d.usize()?;
            if hi > rows {
                return Err(PersistError::Corrupt("watermark beyond row count"));
            }
            let ncells = rows
                .checked_mul(arity)
                .filter(|n| n.checked_mul(4).is_some_and(|b| b <= d.remaining()))
                .ok_or(PersistError::Corrupt("row data overruns the file"))?;
            let data: Vec<Const> = d.u32_run(ncells)?.into_iter().map(Const).collect();
            let dead = d.u64s()?;
            let dead_rows = d.usize()?;
            if dead.len() > rows.div_ceil(64) {
                return Err(PersistError::Corrupt("tombstone bitset too long"));
            }
            let mut pop = 0usize;
            for (wi, &w) in dead.iter().enumerate() {
                pop += w.count_ones() as usize;
                let base = wi * 64;
                if base + 64 > rows && (w >> (rows - base)) != 0 {
                    return Err(PersistError::Corrupt("tombstone bit beyond row count"));
                }
            }
            if pop != dead_rows {
                return Err(PersistError::Corrupt("tombstone count mismatch"));
            }
            let rel_epoch = d.u64()?;
            let ntags = d.count(12)?;
            let mut tomb_at = FxHashMap::default();
            let mut prev: Option<u32> = None;
            for _ in 0..ntags {
                let row = d.u32()?;
                let te = d.u64()?;
                if prev.is_some_and(|p| row <= p) {
                    return Err(PersistError::Corrupt("death-epoch tags out of order"));
                }
                prev = Some(row);
                let dead_bit = dead
                    .get(row as usize >> 6)
                    .is_some_and(|w| (w >> (row & 63)) & 1 == 1);
                if !dead_bit {
                    return Err(PersistError::Corrupt("death-epoch tag on a live row"));
                }
                tomb_at.insert(row, te);
            }
            rels.push(ColumnarRelation::from_persist(
                arity, data, rows, dead, dead_rows, rel_epoch, tomb_at,
            ));
            pred_of_rel.push(pred);
            idb_flag.push(idb);
            old_hi.push(hi);
        }

        let prov = match d.u8()? {
            0 => None,
            1 => {
                let mut ps = Vec::with_capacity(nrels);
                for _ in 0..nrels {
                    ps.push(RelJust::from_parts(d.u32s()?, d.u32s()?));
                }
                Some(ps)
            }
            _ => return Err(PersistError::Corrupt("unknown provenance tag")),
        };
        d.finish()?;

        // ------------- shape validation + derived-state rebuild -------------

        // Relation ids of IDB predicates, in increasing order — matching
        // construction, where IDB relations are interned first and added
        // rules only ever append.
        let idb_rels: Vec<usize> = idb_flag
            .iter()
            .enumerate()
            .filter_map(|(r, &f)| f.then_some(r))
            .collect();

        // Every rule must type-check against the relations before plan
        // compilation (which asserts rather than returns).
        for rule in &rules {
            let head_rel = *rel_of_pred
                .get(&rule.head.pred)
                .ok_or(PersistError::Corrupt("rule head over unknown relation"))?;
            if !idb_flag[head_rel] {
                return Err(PersistError::Corrupt("rule head over an EDB relation"));
            }
            if rels[head_rel].arity() != rule.head.arity() {
                return Err(PersistError::Corrupt("rule head arity mismatch"));
            }
            for a in &rule.body {
                let brel = *rel_of_pred
                    .get(&a.pred)
                    .ok_or(PersistError::Corrupt("rule body over unknown relation"))?;
                if rels[brel].arity() != a.arity() {
                    return Err(PersistError::Corrupt("rule body arity mismatch"));
                }
            }
        }

        // Recompile the plans in slot order against the final IDB set.
        // (Safe even for rules compiled before later-added predicates: a
        // predicate can never transition EDB→IDB for a rule that already
        // referenced it — `compile_added_rule` interns unknown body
        // predicates as EDB and rejects EDB heads — so each rule sees
        // the same IDB/EDB partition it was originally compiled under.)
        let idbs: Vec<Pred> = idb_rels.iter().map(|&r| pred_of_rel[r]).collect();
        let mut idxs: Vec<IncrementalIndex> = Vec::new();
        let mut idx_of: FxHashMap<(usize, Vec<usize>), usize> = FxHashMap::default();
        let plans: Vec<RulePlan> = rules
            .iter()
            .zip(&orders)
            .map(|(r, ord)| compile_rule(r, &idbs, &rel_of_pred, &mut idxs, &mut idx_of, ord))
            .collect();

        // Justification shape: parallel to the rows, entries sized by
        // their rule's body, body row ids in range. After this,
        // `RelJust::entry` is panic-free for every persisted row.
        if let Some(prov) = &prov {
            for (r, rj) in prov.iter().enumerate() {
                let (off, buf) = rj.parts();
                if idb_flag[r] {
                    if off.len() != rels[r].num_rows() {
                        return Err(PersistError::Corrupt("justification store length mismatch"));
                    }
                } else if !off.is_empty() || !buf.is_empty() {
                    return Err(PersistError::Corrupt("justifications on an EDB relation"));
                }
                for row in 0..off.len() {
                    let lo = off[row] as usize;
                    let hi = off.get(row + 1).map_or(buf.len(), |&o| o as usize);
                    if lo >= hi || hi > buf.len() {
                        return Err(PersistError::Corrupt("justification entry out of bounds"));
                    }
                    let rule = buf[lo] as usize;
                    if rule >= plans.len() {
                        return Err(PersistError::Corrupt("justification names unknown rule"));
                    }
                    let body_rels = &plans[rule].body_rels;
                    if hi - lo != 1 + body_rels.len() {
                        return Err(PersistError::Corrupt("justification entry length mismatch"));
                    }
                    for (k, &brow) in buf[lo + 1..hi].iter().enumerate() {
                        if brow as usize >= rels[body_rels[k]].num_rows() {
                            return Err(PersistError::Corrupt(
                                "justification references nonexistent row",
                            ));
                        }
                    }
                }
            }
        }

        let mut m = Self {
            rels,
            idxs,
            plans: Arc::new(plans),
            delta_plans: Arc::default(),
            idb_rels,
            idb_flag,
            pred_of_rel,
            rel_of_pred,
            old_hi,
            profile,
            prov,
            stats,
            strategy,
            goal,
            rules,
            idx_of,
            rederive: None,
            rule_active,
            csr_builds,
            epoch,
            rev: None,
            policy,
            compactions,
            version: 0,
            edb_retracts: 0,
            last_retracted: Vec::new(),
            dred_reads: 0,
            ext_flag: Vec::new(),
            order,
            planned_card,
            tc_hits: 0,
            tc_rows: 0,
        };
        m.extend_indexes();
        // The update plans, from the same inputs as at construction
        // (rules, order mode, persisted build-time cardinalities). The
        // indexes only they probe are write-path state, like the dedup
        // tables: registered here, so that a view can link them, and
        // filled by the first round (or view link) that needs them — a
        // restored store that only serves reads never pays for them.
        if m.prov.is_some() {
            m.compile_delta_plans(None);
        }
        // A store that had ever over-deleted carried a reverse index;
        // rebuild it now (live justifications only) so the restored
        // store is behaviorally identical — same O(affected) retracts,
        // same counters — instead of paying a second lazy build.
        if m.csr_builds > 0 && m.prov.is_some() {
            m.rev = Some(m.build_rev_index());
        }
        Ok(m)
    }

    /// Writes a snapshot of the current state to `path` **atomically**
    /// (temp file + rename): a crash mid-save leaves the previous
    /// snapshot intact, never a torn file.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), PersistError> {
        persist::write_atomic(path.as_ref(), &self.to_bytes())?;
        Ok(())
    }

    /// Restores a materialization from a snapshot file written by
    /// [`Materialization::save`] — back at the persisted fixpoint
    /// without re-evaluation. See [`Materialization::from_bytes`] for
    /// the failure guarantees.
    pub fn restore<P: AsRef<Path>>(path: P) -> Result<Self, PersistError> {
        Self::from_bytes(&persist::read_file(path.as_ref())?)
    }

    /// Moves the store into epoch mode for the serving layer: tombstones
    /// from now on are tagged `epoch` so readers pinned at earlier
    /// epochs keep seeing the rows (see
    /// [`ColumnarRelation::set_epoch`]). Called by the server before
    /// each round, with the epoch the round will publish.
    pub(crate) fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
        for rel in &mut self.rels {
            rel.set_epoch(epoch);
        }
    }

    /// Drops tombstone tags at or below `min_epoch` (no reader pinned
    /// there any more) — compaction-free reclamation.
    pub(crate) fn reclaim_epochs(&mut self, min_epoch: u64) {
        for rel in &mut self.rels {
            rel.reclaim_tombstones(min_epoch);
        }
    }

    /// The epoch of the last applied round (0 until the serving layer
    /// moves the store into epoch mode).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Tombstone tags currently retained across all relations — the
    /// per-epoch cost of pinned readers (see
    /// [`Materialization::reclaim_epochs`]). Test-only observability
    /// for the server's reclamation protocol.
    #[cfg(test)]
    pub(crate) fn tagged_tombstones(&self) -> usize {
        self.rels.iter().map(|r| r.tomb_tags().len()).sum()
    }

    /// The per-relation live-row frontiers (current row counts): what a
    /// snapshot pin captures.
    pub(crate) fn frontiers(&self) -> Vec<usize> {
        self.rels.iter().map(ColumnarRelation::num_rows).collect()
    }

    /// [`Materialization::database`] as of a pinned snapshot: rows below
    /// the frontier, visible at `epoch`. Relations interned after the
    /// pin (by rule adds) fall off the end of `frontier` and are
    /// invisible.
    pub(crate) fn database_at(&self, frontier: &[usize], epoch: u64) -> Database {
        let mut out = Database::new();
        for (r, (&f, rel)) in frontier.iter().zip(&self.rels).enumerate() {
            let dst = out.relation_mut(self.pred_of_rel[r], rel.arity());
            for row in rel.rows_iter_at(f, epoch) {
                dst.insert(row.to_vec());
            }
        }
        out
    }

    /// [`Materialization::idb_database`] as of a pinned snapshot.
    pub(crate) fn idb_database_at(&self, frontier: &[usize], epoch: u64) -> Database {
        let mut out = Database::new();
        for (r, (&f, rel)) in frontier.iter().zip(&self.rels).enumerate() {
            if !self.idb_flag[r] {
                continue;
            }
            let dst = out.relation_mut(self.pred_of_rel[r], rel.arity());
            for row in rel.rows_iter_at(f, epoch) {
                dst.insert(row.to_vec());
            }
        }
        out
    }

    /// [`Materialization::answer`] as of a pinned snapshot.
    pub(crate) fn answer_at(&self, frontier: &[usize], epoch: u64) -> Relation {
        self.select(&self.goal, true, Some((frontier, epoch)))
    }

    /// [`Materialization::num_facts`] as of a pinned snapshot.
    pub(crate) fn num_facts_at(&self, pred: Pred, frontier: &[usize], epoch: u64) -> usize {
        match self.rel_of_pred.get(&pred) {
            Some(&r) if r < frontier.len() => {
                self.rels[r].rows_iter_at(frontier[r], epoch).count()
            }
            _ => 0,
        }
    }

    // -----------------------------------------------------------------
    // What the query cache reads off a base store (its own template
    // stores are in `materialize/template.rs`)
    // -----------------------------------------------------------------

    /// Update-round counter (bumped once per [`Materialization::apply`];
    /// runtime-only, so a restored store restarts at 0).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Cumulative EDB rows actually retracted over this store's lifetime
    /// (runtime-only, like [`Materialization::version`]).
    pub fn edb_retracts(&self) -> u64 {
        self.edb_retracts
    }

    /// Rows the deletion passes of this store have read so far to find
    /// what to over-delete (runtime-only): one per reverse edge walked,
    /// one per live row a template store's justification scan examined.
    /// A pass that reads only what it kills is O(affected).
    pub fn dred_reads(&self) -> u64 {
        self.dred_reads
    }

    /// Applies an arbitrary goal atom over the current live rows of its
    /// predicate — EDB or IDB. Unlike [`Materialization::answer`] this
    /// is not tied to the program's own goal; an untracked predicate
    /// yields the empty relation.
    pub fn answer_goal(&self, goal: &Atom) -> Relation {
        self.select(goal, false, None)
    }

    /// [`Materialization::answer_goal`] as of a pinned snapshot.
    pub(crate) fn answer_goal_at(&self, goal: &Atom, frontier: &[usize], epoch: u64) -> Relation {
        self.select(goal, false, Some((frontier, epoch)))
    }

    /// Whether relation `rel` is an external placeholder.
    fn is_external(&self, rel: usize) -> bool {
        self.ext_flag.get(rel).copied().unwrap_or(false)
    }

    // -----------------------------------------------------------------
    // The fixpoint loop
    // -----------------------------------------------------------------

    /// Runs rounds to fixpoint. A round extends the indexes over the
    /// rows the last merge made visible, evaluates its items against
    /// the frozen store, advances the watermarks and merges what was
    /// staged — the next round's delta. The loop ends on a round that
    /// appends nothing, so on exit every watermark sits at the store
    /// length: the next update resumes from "everything is old".
    ///
    /// A **build** (construction) evaluates
    /// [`Materialization::batch_items`] and always counts its first
    /// round; an **update** evaluates
    /// [`Materialization::update_items`] — delta-driven whatever the
    /// strategy — and stops, uncounted, once there are none.
    ///
    /// Items run inline when the strategy is one shard on one thread,
    /// sharded on a pool otherwise ([`Materialization::eval_sharded`]);
    /// the staged rows merge in the inline staging order either way, so
    /// row ids, justifications and [`EvalStats`] are identical at every
    /// thread and shard count.
    fn run_fixpoint(&mut self, build: bool) {
        let (threads, shards) = match self.strategy {
            Strategy::SemiNaiveParallel { threads } if threads >= 2 => {
                (threads, OVERSHARD * threads)
            }
            Strategy::SemiNaiveSharded { threads, shards } if threads >= 2 || shards >= 2 => {
                (threads.max(1), shards.max(1))
            }
            _ => (1, 1),
        };
        // Spawned by the first sharded round and dropped with this call:
        // the spawn cost amortizes over the rounds of one fixpoint. For
        // sub-millisecond workloads the sequential strategy is the right
        // tool; the counters are identical.
        let mut pool: Option<ThreadPool> = None;
        // Recycled task slots: merged-out staging buffers and scratch
        // space return here and are reused next round.
        let mut spare: Vec<ShardTask> = Vec::new();
        let mut scratch = Scratch::default();
        let mut pending = PendingTuples::default();
        let mut seed = build;
        loop {
            let items = if build {
                self.batch_items(seed)
            } else {
                self.update_items()
            };
            if !build && items.is_empty() {
                break;
            }
            self.stats.iterations += 1;
            self.extend_indexes();

            // The seed round of a build runs inline at every strategy:
            // its rules may have empty bodies (no first step to shard),
            // and a fixpoint that converges on it never pays for threads.
            let mut tasks = if seed || (threads, shards) == (1, 1) {
                for &(pi, delta) in &items {
                    self.eval_rule(pi, delta, &mut scratch, &mut pending);
                }
                Vec::new()
            } else {
                self.eval_sharded(&mut pool, threads, shards, &mut spare, &items)
            };

            // Merge: advance the watermarks to the current length, then
            // append this round's new tuples — they become the delta.
            for r in 0..self.rels.len() {
                self.old_hi[r] = self.rels[r].num_rows();
            }
            let mut appended = self.merge_pending(&mut pending);
            for t in &mut tasks {
                appended += self.merge_pending(&mut t.pending);
            }
            spare.append(&mut tasks);
            self.stats.tuples_derived += appended;
            self.stats.rule_firings += appended;
            if appended == 0 {
                break;
            }
            self.profile.push(appended);
            seed = false;
        }
    }

    /// The items of one build round. The seed round fires the rules
    /// without IDB atoms over the loaded EDB; every later round runs
    /// each `(rule, IDB step)` pair with that step as the delta. Under
    /// [`Strategy::Naive`] every round recomputes every rule in full.
    fn batch_items(&self, seed: bool) -> Vec<(usize, Delta)> {
        let mut items = Vec::new();
        for (pi, plan) in self.plans.iter().enumerate() {
            if self.strategy == Strategy::Naive || (seed && plan.idb_steps.is_empty()) {
                items.push((pi, Delta::Full));
            } else if !seed {
                items.extend(plan.idb_steps.iter().map(|&d| (pi, Delta::Batch(d))));
            }
        }
        items
    }

    /// The items of one update round: the `(rule, body atom)` pairs
    /// whose atom's relation has unconsumed delta rows, in deterministic
    /// `(rule, body position)` order. Delta candidates are **every**
    /// body atom over a relation that has grown — EDB atoms included,
    /// which is how freshly inserted facts (and DRed rescues) enter the
    /// join — each run through its own delta-first update plan, under
    /// the "last delta occurrence" convention in rule-text order. After
    /// the first round the EDB deltas are consumed and the loop is
    /// ordinary semi-naive over the derived deltas. Dropped rules never
    /// fire again.
    fn update_items(&self) -> Vec<(usize, Delta)> {
        let mut items = Vec::new();
        for (pi, plan) in self.plans.iter().enumerate() {
            if !self.rule_active[pi] {
                continue;
            }
            for (k, &rel) in plan.body_rels.iter().enumerate() {
                if self.rels[rel].num_rows() > self.old_hi[rel] {
                    items.push((pi, Delta::Update(k)));
                }
            }
        }
        items
    }

    /// Evaluates one round's `items` sharded: every item becomes
    /// [`ShardTask`]s that partition its first join step's snapshot
    /// range — the delta range when the delta leads (every update item
    /// under [`OrderMode::Planned`]), the first step's full or old range
    /// for a mid-body delta (batch rounds — E5's shape — and updates
    /// under [`OrderMode::Shuffled`]), so shards partition the pre-delta
    /// probe work instead of duplicating it. The tasks run on the pool;
    /// counters are accounted from the lead shard's `pre` and every
    /// shard's `post`. Returns the tasks — their staged rows still
    /// unmerged — in `(rule, delta, shard top-down)` order: shards are
    /// top-down subranges of the sequential engine's descending depth-0
    /// enumeration, so this is the sequential staging order, and the
    /// first staged copy of a row, whose justification the merge keeps,
    /// is the one the sequential engine finds.
    fn eval_sharded(
        &mut self,
        pool: &mut Option<ThreadPool>,
        threads: usize,
        shards: usize,
        spare: &mut Vec<ShardTask>,
        items: &[(usize, Delta)],
    ) -> Vec<ShardTask> {
        let mut tasks: Vec<ShardTask> = Vec::new();
        for &(pi, delta) in items {
            let plan = self.plan_for(pi, delta);
            let (slo, shi) = snapshot_range(&self.rels, &self.old_hi, plan, 0, delta);
            for (si, &(lo, hi)) in shard_ranges(slo, shi, shards).iter().enumerate() {
                // The lead shard always runs (it accounts the depth-0
                // probe even over an empty range, exactly like the
                // sequential engine); empty trailing shards contribute
                // nothing.
                if si > 0 && lo == hi {
                    continue;
                }
                let mut t = spare.pop().unwrap_or_default();
                t.rule = pi;
                t.delta = delta;
                t.range = (lo, hi);
                t.lead = si == 0;
                t.counters = Counters::default();
                // t.pending was cleared by the last merge; t.scratch
                // keeps its capacity.
                tasks.push(t);
            }
        }
        {
            let this = &*self;
            let pool = pool.get_or_insert_with(|| ThreadPool::new(threads));
            pool.scope(|s| {
                for t in tasks.iter_mut() {
                    s.execute(move || {
                        this.eval_rule_shard(
                            t.rule,
                            t.delta,
                            Some(t.range),
                            &mut t.scratch,
                            &mut t.pending,
                            &mut t.counters,
                        );
                    });
                }
            });
        }
        for t in &tasks {
            if t.lead {
                self.stats.join_probes += t.counters.pre;
            }
            self.stats.join_probes += t.counters.post;
            self.tc_hits += t.counters.tc_hits;
            self.tc_rows += t.counters.tc_rows;
        }
        tasks
    }

    /// Rebuilds any dedup table a restore left stale
    /// ([`ColumnarRelation::ensure_slots`]). Called at the head of every
    /// mutating entry point (all single mutators funnel through
    /// [`Materialization::apply`]); one branch per relation when fresh.
    fn ensure_dedup(&mut self) {
        for rel in &mut self.rels {
            rel.ensure_slots();
        }
    }

    /// Extends the per-`(relation, mask)` indexes over the rows that
    /// became visible at the last merge (incremental: only the delta
    /// rows are hashed). Unkeyed steps have no index at all
    /// ([`NO_INDEX`]): the join scans their row range directly.
    fn extend_indexes(&mut self) {
        for idx in &mut self.idxs {
            idx.extend(&self.rels[idx.rel()]);
        }
    }

    /// Merges one staging buffer into the relations, deduplicating;
    /// returns how many rows were actually appended. With provenance
    /// recording on, the staged justification of each tuple that
    /// actually inserts (the first staged copy in merge order) is
    /// appended to the head relation's justification store, and — once
    /// the reverse-dependency index exists — one reverse edge per body
    /// position is appended so later retracts stay O(affected).
    fn merge_pending(&mut self, pending: &mut PendingTuples) -> u64 {
        let Self { rels, prov, rev, plans, .. } = self;
        // Pre-size each target's dedup table from the staged count (an
        // upper bound on what actually appends), so the batch never
        // rehashes mid-merge; per-insert growth stays as the backstop.
        let mut counts: FxHashMap<u32, usize> = FxHashMap::default();
        for &rid in &pending.rels {
            *counts.entry(rid).or_insert(0) += 1;
        }
        for (&rid, &n) in &counts {
            rels[rid as usize].reserve_rows(n);
        }
        let mut appended = 0u64;
        let mut off = 0;
        match prov {
            None => {
                for (&rid, &hash) in pending.rels.iter().zip(&pending.hash) {
                    let rel = &mut rels[rid as usize];
                    let ar = rel.arity();
                    if rel.insert_hashed(&pending.data[off..off + ar], hash) {
                        appended += 1;
                    }
                    off += ar;
                }
            }
            Some(prov) => {
                let mut joff = 0;
                for (&rid, &hash) in pending.rels.iter().zip(&pending.hash) {
                    let rel = &mut rels[rid as usize];
                    let ar = rel.arity();
                    let rule = pending.just[joff];
                    let blen = plans[rule as usize].body_rels.len();
                    if rel.insert_hashed(&pending.data[off..off + ar], hash) {
                        appended += 1;
                        let body = &pending.just[joff + 1..joff + 1 + blen];
                        prov[rid as usize].push(rule, body);
                        if let Some(rev) = rev.as_mut() {
                            let hrow = (rel.num_rows() - 1) as u32;
                            for (kb, &brow) in body.iter().enumerate() {
                                rev.add(plans[rule as usize].body_rels[kb], brow, rid, hrow);
                            }
                        }
                    }
                    off += ar;
                    joff += 1 + blen;
                }
                pending.just.clear();
            }
        }
        pending.data.clear();
        pending.rels.clear();
        pending.hash.clear();
        appended
    }

    /// Evaluates one rule with delta atom `delta` over the full
    /// first-step range (the sequential engines' unit of work).
    fn eval_rule(
        &mut self,
        rule: usize,
        delta: Delta,
        scratch: &mut Scratch,
        pending: &mut PendingTuples,
    ) {
        let mut counters = Counters::default();
        self.eval_rule_shard(rule, delta, None, scratch, pending, &mut counters);
        self.stats.join_probes += counters.pre + counters.post;
        self.tc_hits += counters.tc_hits;
        self.tc_rows += counters.tc_rows;
    }

    /// Evaluates one rule with delta atom `delta`, the first join step
    /// optionally restricted to the row subrange `shard0` (the parallel
    /// engine's unit of work; `None` sequentially). The store is only
    /// read, so any number of shards may run concurrently; derived rows
    /// go to the caller's staging buffer and counters.
    fn eval_rule_shard(
        &self,
        rule: usize,
        delta: Delta,
        shard0: Option<(usize, usize)>,
        scratch: &mut Scratch,
        pending: &mut PendingTuples,
        counters: &mut Counters,
    ) {
        let plan = self.plan_for(rule, delta);
        scratch.env.resize(plan.num_slots, Const(0));
        scratch.rows.resize(plan.steps.len(), 0);
        scratch.staged.begin();
        let ctx = JoinCtx {
            rels: &self.rels,
            idxs: &self.idxs,
            old_hi: &self.old_hi,
            delta,
            shard0,
            rule,
            record: self.prov.is_some(),
        };
        if plan.tc {
            tc_kernel(plan, &ctx, scratch, pending, counters);
        } else {
            descend(plan, 0, &ctx, scratch, pending, counters);
        }
    }

    // -----------------------------------------------------------------
    // Re-derivation (the DRed rescue phase)
    // -----------------------------------------------------------------

    /// Compiles the re-derivation plan of every rule slot that has none
    /// yet: all of them on the first call (the first retracting round
    /// of a base store, construction of a template store), the new slot
    /// after a rule add. Orders come from the persisted build-time
    /// cardinalities, so a restored store compiles the plans — and
    /// registers the indexes — of the live one. `order_by` as in
    /// [`Materialization::build`] (`None`: the store's own rules).
    fn ensure_rederive_plans(&mut self, order_by: Option<&[Rule]>) {
        let done = self.rederive.as_ref().map_or(0, Vec::len);
        if self.rederive.is_some() && done == self.rules.len() {
            return; // the common case: called at the head of every rescue
        }
        let idbs = self.idb_preds();
        let rel_of_pred = &self.rel_of_pred;
        let planned_card = &self.planned_card;
        let mut card = |p: Pred| rel_of_pred.get(&p).map_or(0, |&r| planned_card[r]);
        let plans = self.rederive.get_or_insert_with(Vec::new);
        for (ri, rule) in self.rules.iter().enumerate().skip(done) {
            plans.push(compile_rederive(
                ri,
                rule,
                order_by.map_or(rule, |o| &o[ri]),
                &idbs,
                rel_of_pred,
                &mut self.idxs,
                &mut self.idx_of,
                self.order,
                &mut card,
            ));
        }
    }

    /// DRed over-deletion: tombstones the reverse-dependency closure of
    /// the (already tombstoned) `worklist` rows over the recorded
    /// justifications, appending every row it kills to `candidates`.
    /// The first over-deleting round builds the persistent [`RevIndex`]
    /// (one full pass over the packed justification buffers — counted by
    /// `csr_builds`); every later round just walks the chains of the
    /// seeds' closure, so the cost is O(affected rows), not O(total
    /// rows). Chains may hold stale edges to rows that died in earlier
    /// rounds (or to rows whose head re-inserted at a fresh id);
    /// `tombstone` of a dead row is a no-op, so they are skipped.
    fn over_delete(&mut self, mut worklist: Vec<(u32, u32)>, candidates: &mut Vec<(u32, u32)>) {
        if worklist.is_empty() {
            return;
        }
        self.ensure_rev_index();
        // Take the index out while tombstoning through `self.rels` (no
        // edges are added during over-deletion).
        let rev = self.rev.take().expect("just ensured");
        let mut i = 0;
        while i < worklist.len() {
            let (drel, drow) = worklist[i];
            i += 1;
            let mut e = rev.chain(drel as usize, drow);
            while e != NO_EDGE {
                let RevEdge { hrel, hrow, next } = rev.edges[e as usize];
                self.dred_reads += 1;
                if self.rels[hrel as usize].tombstone(hrow as usize) {
                    worklist.push((hrel, hrow));
                    candidates.push((hrel, hrow));
                }
                e = next;
            }
        }
        self.rev = Some(rev);
    }

    /// DRed rescue: every over-deleted candidate that one active rule
    /// still derives from the live store is re-appended (a fresh row id
    /// in the delta range) with the derivation found as its recorded
    /// justification. Each candidate is checked against the rows that
    /// were live when the pass began (`frontier`): an index cannot see
    /// the rows this pass appends — the indexes are extended once, up
    /// front — and a dedup-table step must not either, or which
    /// candidates are rescued here (and with it every later row id)
    /// would depend on the step kinds the planner chose. Whatever this
    /// pass misses, the resume derives from the rescued rows.
    fn rescue(&mut self, candidates: &[(u32, u32)]) {
        if candidates.is_empty() {
            return;
        }
        // The full-key steps read the dedup tables; a restored store
        // (or a template store handed a restored base) may not have
        // rebuilt them.
        self.ensure_dedup();
        self.ensure_rederive_plans(None);
        self.extend_indexes();
        let frontier = self.frontiers();
        let mut scratch = Scratch::default();
        let mut probes = 0u64;
        for &(crel, crow) in candidates {
            let (crel, crow) = (crel as usize, crow as usize);
            let tuple = self.rels[crel].row(crow);
            let Some(rule) = self.rederive_row(crel, tuple, &frontier, &mut scratch, &mut probes)
            else {
                continue;
            };
            scratch.head.clear();
            scratch.head.extend_from_slice(tuple);
            let rel = &mut self.rels[crel];
            // An added rule's seeding pass may have derived the tuple
            // again already; a second row would be a second fact.
            if !rel.insert(&scratch.head) {
                continue;
            }
            let hrow = (rel.num_rows() - 1) as u32;
            self.stats.rule_firings += 1;
            self.stats.tuples_derived += 1;
            let plan = &self.plans[rule as usize];
            let body_rows = &scratch.rows[..plan.body_rels.len()];
            self.prov.as_mut().expect("recording on")[crel].push(rule, body_rows);
            if let Some(rev) = self.rev.as_mut() {
                for (&brel, &brow) in plan.body_rels.iter().zip(body_rows) {
                    rev.add(brel, brow, crel as u32, hrow);
                }
            }
        }
        self.stats.join_probes += probes;
    }

    /// Checks whether `tuple` (of relation `rel`) is derivable in one
    /// rule application from the live rows below `frontier`; returns the
    /// rule of the first derivation found and leaves its body row ids,
    /// in rule-text order, in `scratch.rows`. Goal-directed: the head
    /// binds the rule slots up front, so the body join is keyed on them.
    fn rederive_row(
        &self,
        rel: usize,
        tuple: &[Const],
        frontier: &[usize],
        scratch: &mut Scratch,
        probes: &mut u64,
    ) -> Option<u32> {
        let plans = self.rederive.as_ref().expect("compiled before rescue");
        'plans: for plan in plans
            .iter()
            .filter(|p| p.head_rel == rel && self.rule_active[p.rule as usize])
        {
            scratch.env.clear();
            scratch.env.resize(plan.num_slots, Const(0));
            for (i, op) in plan.head.iter().enumerate() {
                match *op {
                    HeadOp::Const(c) => {
                        if tuple[i] != c {
                            continue 'plans;
                        }
                    }
                    HeadOp::First(s) => scratch.env[s] = tuple[i],
                    HeadOp::Repeat(s) => {
                        if scratch.env[s] != tuple[i] {
                            continue 'plans;
                        }
                    }
                }
            }
            scratch.rows.clear();
            scratch.rows.resize(plan.steps.len(), 0);
            if rederive_descend(plan, 0, &self.rels, &self.idxs, frontier, scratch, probes) {
                return Some(plan.rule);
            }
        }
        None
    }

    // -----------------------------------------------------------------
    // Read-out (used by the thin eval wrappers)
    // -----------------------------------------------------------------

    /// Applies a goal directly over the columnar rows of the goal
    /// predicate (no intermediate `Database`).
    pub(crate) fn goal_answer(&self, goal: &Atom) -> Relation {
        self.select(goal, true, None)
    }

    /// Per-iteration appended-fact counts (the convergence profile).
    pub(crate) fn profile(&self) -> &[u64] {
        &self.profile
    }

    pub(crate) fn into_result(self) -> EvalResult {
        EvalResult {
            idb: self.idb_database(),
            stats: self.stats,
        }
    }

    pub(crate) fn into_provenance_result(self) -> ProvenanceResult {
        // Per rule: the dense relation id of each body atom (what the
        // justification body row ids index into).
        let body_rels = self
            .plans
            .iter()
            .map(|p| p.body_rels.iter().map(|&r| r as u32).collect())
            .collect();
        let provenance = Provenance::from_engine(
            self.rels,
            self.pred_of_rel,
            self.rel_of_pred,
            self.idb_rels,
            body_rels,
            self.prov.expect("provenance recording was on"),
        );
        ProvenanceResult {
            stats: self.stats,
            provenance,
        }
    }
}

// ---------------------------------------------------------------------
// The join
// ---------------------------------------------------------------------

/// Borrowed engine state for one rule-evaluation pass.
struct JoinCtx<'a> {
    rels: &'a [ColumnarRelation],
    idxs: &'a [IncrementalIndex],
    old_hi: &'a [usize],
    /// The delta atom of this pass (and with it the range convention).
    delta: Delta,
    /// Row-range restriction of the **first** join step (one shard of
    /// the parallel engine's depth-0 partition; `None` sequentially).
    shard0: Option<(usize, usize)>,
    /// The rule slot being evaluated (recorded in justifications).
    rule: usize,
    /// Whether to stage justifications alongside derived tuples.
    record: bool,
}

impl JoinCtx<'_> {
    /// The row range the step at `depth` reads: its snapshot range
    /// ([`snapshot_range`]), which a parallel shard additionally
    /// restricts to its subrange at the first step (the subranges
    /// partition exactly that range).
    fn step_range(&self, plan: &RulePlan, depth: usize) -> (usize, usize) {
        match self.shard0 {
            Some(r) if depth == 0 => r,
            _ => snapshot_range(self.rels, self.old_hi, plan, depth, self.delta),
        }
    }
}

/// Snapshot row range of the step at `depth` of `plan` under the "last
/// delta occurrence" convention: atoms before the delta atom read the
/// full relation, the delta atom reads its delta range `[old_hi, len)`,
/// atoms after it read the old part `[0, old_hi)` — so every new
/// combination of rows is enumerated exactly once across a rule's delta
/// positions.
///
/// "Before" is **step depth** in a batch round: every delta position of
/// a rule shares the one batch order, so depth is a consistent total
/// order (and EDB steps, whose relations a batch never changes, read
/// full). In an update round it is **body position**: each delta
/// position has its own step order, and by depth `anc(X,Z), anc(Z,Y)`
/// with both plans delta-first would read the old part on both sides and
/// lose every (Δ, Δ) combination.
fn snapshot_range(
    rels: &[ColumnarRelation],
    old_hi: &[usize],
    plan: &RulePlan,
    depth: usize,
    delta: Delta,
) -> (usize, usize) {
    let step = &plan.steps[depth];
    let rows = rels[step.rel].num_rows();
    let (pos, delta_pos) = match delta {
        Delta::Full => return (0, rows),
        Delta::Batch(_) if !step.idb => return (0, rows),
        Delta::Batch(d) => (depth, d),
        Delta::Update(k) => (plan.body_of_step[depth], k),
    };
    let old = old_hi[step.rel];
    match pos.cmp(&delta_pos) {
        std::cmp::Ordering::Less => (0, rows),
        std::cmp::Ordering::Equal => (old, rows),
        std::cmp::Ordering::Greater => (0, old),
    }
}

/// Builds the head tuple from the bound environment into `scratch.head`.
fn build_head(plan: &RulePlan, scratch: &mut Scratch) {
    scratch.head.clear();
    for op in plan.head.iter() {
        scratch.head.push(match *op {
            Out::Const(c) => c,
            Out::Slot(s) => scratch.env[s],
        });
    }
}

/// The firing point: stages the fully-instantiated head (unless it
/// already exists, or the per-shard staged-head filter has seen it).
/// With provenance recording on, the matched row ids are staged in
/// **original rule-body order** via [`RulePlan::step_of_body`], whatever
/// order the steps ran in.
fn stage_head(
    plan: &RulePlan,
    ctx: &JoinCtx<'_>,
    scratch: &mut Scratch,
    pending: &mut PendingTuples,
) {
    build_head(plan, scratch);
    // One hash serves the existence probe, the staged filter, and — via
    // the staging buffer — the merge's insert.
    let hash = ColumnarRelation::hash_row(&scratch.head);
    // Only buffer tuples not already in the relation (the merge dedups
    // again; this keeps the pending buffer small).
    if ctx.rels[plan.head_rel].contains_hashed(&scratch.head, hash) {
        return;
    }
    if !scratch.staged.insert_if_new(&scratch.head, hash, &pending.data) {
        return;
    }
    pending.data.extend_from_slice(&scratch.head);
    pending.rels.push(plan.head_rel as u32);
    pending.hash.push(hash);
    if ctx.record {
        // The justification, packed: this rule, then the row matched
        // for each body atom in rule-text order.
        pending.just.push(ctx.rule as u32);
        for &d in plan.step_of_body.iter() {
            pending.just.push(scratch.rows[d]);
        }
    }
}

/// Recursive backtracking join over the plan steps. Slots are bound by
/// overwriting (`Action::Bind`); no unbinding is needed on backtrack
/// because the plan guarantees every slot read happens at a depth after
/// its binding depth, and the next row at the binding depth overwrites.
fn descend(
    plan: &RulePlan,
    depth: usize,
    ctx: &JoinCtx<'_>,
    scratch: &mut Scratch,
    pending: &mut PendingTuples,
    counters: &mut Counters,
) {
    if depth == plan.steps.len() {
        stage_head(plan, ctx, scratch, pending);
        return;
    }
    // Staged-head suffix pruning: once every head position is bound,
    // a head that already exists in the (frozen) head relation can
    // never stage anything — kill the whole remaining join suffix
    // before probing it. The check reads only frozen rows, so probe
    // counts stay identical at every thread and shard count.
    if depth == plan.head_ready_depth {
        build_head(plan, scratch);
        if ctx.rels[plan.head_rel].contains(&scratch.head) {
            return;
        }
    }
    let step = &plan.steps[depth];
    let rel = &ctx.rels[step.rel];
    let (lo, hi) = ctx.step_range(plan, depth);

    // The depth-0 probe is identical in every shard (`pre`, accounted
    // once from the lead shard); deeper probes are partitioned by the
    // first step's rows (`post`, summed across shards).
    if depth == 0 {
        counters.pre += 1;
    } else {
        counters.post += 1;
    }

    if step.key.is_empty() {
        // Unkeyed step: the empty-mask chain is exactly the rows in
        // descending id order, so scan the range directly — no index
        // traversal, and (for a sharded first step) no walking through
        // other shards' rows to reach this shard's.
        for r in (lo..hi).rev() {
            match_row(plan, step, rel, r, depth, ctx, scratch, pending, counters);
        }
        return;
    }

    let idx = &ctx.idxs[step.idx];
    // Single-column keys (one key op ⇔ one mask column) take the raw-
    // value fast path: no key buffer, no slice hash.
    let mut cur = if let &[op] = &*step.key {
        let k = match op {
            KeyOp::Const(c) => c,
            KeyOp::Slot(s) => scratch.env[s],
        };
        idx.probe1_range(rel, k, lo, hi)
    } else {
        scratch.key.clear();
        for op in step.key.iter() {
            scratch.key.push(match *op {
                KeyOp::Const(c) => c,
                KeyOp::Slot(s) => scratch.env[s],
            });
        }
        idx.probe_range(rel, &scratch.key, lo, hi)
    };
    loop {
        let row = idx.next_match(&mut cur);
        if row == NO_ROW {
            break;
        }
        match_row(plan, step, rel, row as usize, depth, ctx, scratch, pending, counters);
    }
}

/// Applies one matched row's bind/check actions and, if they pass,
/// descends to the next step. Returns whether the actions passed.
/// Tombstoned rows never match (index chains keep addressing them, but
/// they are no longer facts).
#[allow(clippy::too_many_arguments)]
fn match_row(
    plan: &RulePlan,
    step: &Step,
    rel: &ColumnarRelation,
    r: usize,
    depth: usize,
    ctx: &JoinCtx<'_>,
    scratch: &mut Scratch,
    pending: &mut PendingTuples,
    counters: &mut Counters,
) -> bool {
    if !rel.is_live(r) {
        return false;
    }
    for a in step.actions.iter() {
        match *a {
            Action::Bind { pos, slot } => scratch.env[slot] = rel.value(r, pos),
            Action::Check { pos, slot } => {
                if scratch.env[slot] != rel.value(r, pos) {
                    return false;
                }
            }
        }
    }
    // Derivation coordinate for provenance staging (one word; cheaper
    // than branching on the recording flag here).
    scratch.rows[depth] = r as u32;
    descend(plan, depth + 1, ctx, scratch, pending, counters);
    true
}

/// The specialized transitive-closure kernel: the generic recursive
/// descent flattened into one two-level loop for recognized
/// [`RulePlan::tc`] plans (`tc(x,z) :- tc(x,y), e(y,z)` and its
/// right-linear/nonlinear variants, in any planner order). The action
/// and key shapes are unpacked once, the snapshot ranges hoisted out of
/// the loop, and the per-row recursion replaced by straight-line code.
/// Enumeration order, staging order and every counter are identical to
/// [`descend`] — recognition changes speed, never results. Suffix
/// pruning never applies here: a TC head is only fully bound at full
/// instantiation ([`RulePlan::head_ready_depth`] = 2 = the step count).
fn tc_kernel(
    plan: &RulePlan,
    ctx: &JoinCtx<'_>,
    scratch: &mut Scratch,
    pending: &mut PendingTuples,
    counters: &mut Counters,
) {
    counters.tc_hits += 1;
    let step0 = &plan.steps[0];
    let step1 = &plan.steps[1];
    let rel0 = &ctx.rels[step0.rel];
    let rel1 = &ctx.rels[step1.rel];
    let idx1 = &ctx.idxs[step1.idx];
    let (lo0, hi0) = ctx.step_range(plan, 0);
    let (lo1, hi1) = ctx.step_range(plan, 1);
    // `tc_shape` guarantees exactly these shapes.
    let (Action::Bind { pos: apos, slot: aslot }, Action::Bind { pos: bpos, slot: bslot }) =
        (step0.actions[0], step0.actions[1])
    else {
        unreachable!("tc plan: step 0 is two fresh binds")
    };
    let Action::Bind { pos: cpos, slot: cslot } = step1.actions[0] else {
        unreachable!("tc plan: step 1 is one fresh bind")
    };
    let KeyOp::Slot(kslot) = step1.key[0] else {
        unreachable!("tc plan: step 1 is keyed on a step-0 slot")
    };

    counters.pre += 1;
    for r in (lo0..hi0).rev() {
        if !rel0.is_live(r) {
            continue;
        }
        scratch.env[aslot] = rel0.value(r, apos);
        scratch.env[bslot] = rel0.value(r, bpos);
        scratch.rows[0] = r as u32;
        counters.post += 1;
        // `tc_shape` guarantees a single-column key: raw-value probe,
        // no key buffer.
        let mut cur = idx1.probe1_range(rel1, scratch.env[kslot], lo1, hi1);
        loop {
            let row = idx1.next_match(&mut cur);
            if row == NO_ROW {
                break;
            }
            let rr = row as usize;
            if rel1.is_live(rr) {
                scratch.env[cslot] = rel1.value(rr, cpos);
                scratch.rows[1] = rr as u32;
                counters.tc_rows += 1;
                stage_head(plan, ctx, scratch, pending);
            }
        }
    }
}

/// Backtracking search for **one** body instantiation of a re-derivation
/// plan over the live rows below `frontier`; the row matched for body
/// atom `k` lands in `scratch.rows[k]` whatever depth ran it. Returns on
/// the first success. Body depths are small (rule body length), so
/// recursion is fine here.
fn rederive_descend(
    plan: &RederivePlan,
    depth: usize,
    rels: &[ColumnarRelation],
    idxs: &[IncrementalIndex],
    frontier: &[usize],
    scratch: &mut Scratch,
    probes: &mut u64,
) -> bool {
    if depth == plan.steps.len() {
        return true;
    }
    let step = &plan.steps[depth];
    let rel = &rels[step.rel];
    let hi = frontier[step.rel];
    *probes += 1;

    let mut try_row = |r: usize, scratch: &mut Scratch| -> bool {
        if !rel.is_live(r) {
            return false;
        }
        for a in step.actions.iter() {
            match *a {
                Action::Bind { pos, slot } => scratch.env[slot] = rel.value(r, pos),
                Action::Check { pos, slot } => {
                    if scratch.env[slot] != rel.value(r, pos) {
                        return false;
                    }
                }
            }
        }
        scratch.rows[plan.body_of_step[depth]] = r as u32;
        rederive_descend(plan, depth + 1, rels, idxs, frontier, scratch, probes)
    };

    if step.key.is_empty() {
        return (0..hi).rev().any(|r| try_row(r, scratch));
    }
    scratch.key.clear();
    for op in step.key.iter() {
        scratch.key.push(match *op {
            KeyOp::Const(c) => c,
            KeyOp::Slot(s) => scratch.env[s],
        });
    }
    // The key is only needed for the probe itself; deeper levels are
    // free to reuse the buffer.
    if step.idx == NO_INDEX {
        // Every position is bound: the key is the tuple, and the dedup
        // table holds its one live row, if any.
        let r = rel.find_row(&scratch.key) as usize;
        return r < hi && try_row(r, scratch);
    }
    let idx = &idxs[step.idx];
    let mut cur = idx.probe_range(rel, &scratch.key, 0, hi);
    loop {
        let row = idx.next_match(&mut cur);
        if row == NO_ROW {
            return false;
        }
        if try_row(row as usize, scratch) {
            return true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::reference;

    const SRC_A: &str = "?- anc(john, Y).\n\
                         anc(X, Y) :- par(X, Y).\n\
                         anc(X, Y) :- anc(X, Z), par(Z, Y).";

    fn chain_edges(p: &mut Program, n: usize) -> Vec<Tuple> {
        let mut prev = p.symbols.constant("john");
        (1..=n)
            .map(|i| {
                let c = p.symbols.constant(&format!("c{i}"));
                let t = vec![prev, c];
                prev = c;
                t
            })
            .collect()
    }

    /// Sorted `(pred, tuples)` view of a Database for comparisons.
    fn sorted_model(db: &Database) -> Vec<(Pred, Vec<Tuple>)> {
        db.sorted_models()
    }

    /// The from-scratch executable spec: reference engine on the mirror.
    fn spec_idb(p: &Program, db: &Database) -> Vec<(Pred, Vec<Tuple>)> {
        reference::evaluate(p, db, Strategy::SemiNaive).idb.sorted_models()
    }

    /// One plan's shape: step order, the `(relation, index mask)` probed
    /// per step, kernel flag. Index *ids* are left out on purpose: they
    /// depend on registration order, which a restore legitimately
    /// changes.
    type PlanShape = (Vec<usize>, Vec<(usize, Vec<usize>)>, bool);

    /// The shape of every compiled plan — per rule slot the batch plan
    /// followed by its update plans.
    fn plan_shapes(m: &Materialization) -> Vec<Vec<PlanShape>> {
        let shape = |plan: &RulePlan| {
            let steps = plan
                .steps
                .iter()
                .map(|s| {
                    let mask = if s.idx == crate::plan::NO_INDEX {
                        Vec::new()
                    } else {
                        m.idxs[s.idx].mask().to_vec()
                    };
                    (s.rel, mask)
                })
                .collect();
            (plan.body_of_step.to_vec(), steps, plan.tc)
        };
        m.plans
            .iter()
            .enumerate()
            .map(|(i, batch)| {
                std::iter::once(batch).chain(&m.delta_plans[i]).map(shape).collect()
            })
            .collect()
    }

    /// Plans are static and a pure function of persisted state: a store
    /// restored mid-stream compiles exactly the live store's batch and
    /// update plans (rule adds included) and from then on does
    /// bit-identical work — same row ids, same justifications, same
    /// counters — through inserts, retracts, rule drops and adds, and
    /// the compactions the policy triggers along the way.
    #[test]
    fn delta_plans_survive_restore_and_churn() {
        let mut p = parse_program(
            "?- p(c, Y).\n\
             p(X, Y) :- b1(X, X1), b2(X1, Y).\n\
             p(X, Y) :- b1(X, X1), p(X1, Y1), b2(Y1, Y).",
        )
        .unwrap();
        let b1 = p.symbols.get_predicate("b1").unwrap();
        let b2 = p.symbols.get_predicate("b2").unwrap();
        let pp = p.symbols.get_predicate("p").unwrap();
        let b3 = p.symbols.predicate("b3");
        // A b1-chain of 6 from c into a b2-chain of 6, plus side pairs.
        let mut names = vec!["c".to_owned()];
        names.extend((1..=12).map(|i| format!("n{i}")));
        let node: Vec<Const> = names.iter().map(|n| p.symbols.constant(n)).collect();
        let side: Vec<(Const, Const)> = (0..40)
            .map(|i| {
                (
                    p.symbols.constant(&format!("sa{i}")),
                    p.symbols.constant(&format!("sb{i}")),
                )
            })
            .collect();
        let mut db = Database::new();
        for i in 0..6 {
            db.insert(b1, vec![node[i], node[i + 1]]);
            db.insert(b2, vec![node[6 + i], node[7 + i]]);
        }
        for &(a, b) in &side[..8] {
            db.insert(b1, vec![a, b]);
            db.insert(b2, vec![b, a]);
        }
        let pair = |r: UpdateRound, (a, b): (Const, Const), insert: bool| {
            if insert {
                r.insert(b1, vec![a, b]).insert(b2, vec![b, a])
            } else {
                r.retract(b1, vec![a, b]).retract(b2, vec![b, a])
            }
        };
        let xy = vec![Term::Var(Var(0)), Term::Var(Var(1))];
        let added = Rule {
            head: Atom { pred: pp, args: xy.clone() },
            body: vec![Atom { pred: b3, args: xy }],
        };
        let rounds: Vec<UpdateRound> = vec![
            // Irrelevant pairs in, the middle of the relevant chain out.
            side[8..24].iter().fold(UpdateRound::new(), |r, &s| pair(r, s, true)),
            UpdateRound::new().retract(b1, vec![node[3], node[4]]),
            // A rule over a brand-new EDB predicate, fed in the same round.
            UpdateRound::new()
                .add_rule(added)
                .insert(b3, vec![node[0], node[12]])
                .insert(b1, vec![node[3], node[4]]),
            // -- the snapshot is taken here --
            side[..20].iter().fold(UpdateRound::new(), |r, &s| pair(r, s, false)),
            side[24..40]
                .iter()
                .fold(UpdateRound::new().retract(b2, vec![node[8], node[9]]), |r, &s| {
                    pair(r, s, true)
                }),
            UpdateRound::new().drop_rule(RuleId(0)),
            UpdateRound::new()
                .insert(b2, vec![node[8], node[9]])
                .insert(b3, vec![node[1], node[2]]),
        ];

        let mut live = Materialization::from_database(&p, &db, Strategy::SemiNaive);
        // Low enough that retracting the side pairs compacts the store.
        live.set_compaction_policy(Some(CompactionPolicy { min_dead_rows: 8, dead_percent: 20 }));
        for round in &rounds[..3] {
            live.apply(round);
        }
        let mut restored = Materialization::from_bytes(&live.to_bytes()).unwrap();
        assert_eq!(plan_shapes(&restored), plan_shapes(&live));
        // Every rule slot — the added one too — has one update plan per
        // body atom, led by that atom.
        for (i, rule) in live.rules.iter().enumerate() {
            let leads: Vec<usize> =
                live.delta_plans[i].iter().map(|pl| pl.body_of_step[0]).collect();
            assert_eq!(leads, (0..rule.body.len()).collect::<Vec<_>>());
        }
        for round in &rounds[3..] {
            assert_eq!(live.apply(round), restored.apply(round));
            for (a, b) in live.rels.iter().zip(&restored.rels) {
                assert_eq!(a.data(), b.data(), "row ids diverged");
            }
            assert_eq!(live.provenance(), restored.provenance());
            assert_eq!(live.stats(), restored.stats(), "restored store did different work");
            assert_eq!(plan_shapes(&restored), plan_shapes(&live));
        }
        assert!(live.compactions() > 0, "the stream was meant to cross the policy");
        assert_eq!(live.to_bytes(), restored.to_bytes());
        // And the stream ended where a from-scratch evaluation of the
        // edited program over the edited database does.
        let mut edited = p.clone();
        edited.rules.push(live.rules[2].clone());
        edited.rules.remove(0);
        let mut mirror = Database::new();
        for (pred, name) in [(b1, "b1"), (b2, "b2"), (b3, "b3")] {
            for row in live.database().relation(pred).expect(name).iter() {
                mirror.insert(pred, row.to_vec());
            }
        }
        assert_eq!(sorted_model(&live.idb_database()), spec_idb(&edited, &mirror));
    }

    /// The (Δ, Δ) case. With one step order per delta position, "before
    /// the delta reads full, after it reads old" has to mean *rule-text*
    /// position: by step depth, both delta-first plans of
    /// `anc(X,Z), anc(Z,Y)` would read the old part on the other side
    /// and every combination of two new rows would be lost. Loading a
    /// whole chain in one round makes every longer path exactly such a
    /// combination.
    #[test]
    fn delta_delta_combinations_are_not_lost() {
        let mut p = parse_program(
            "?- anc(john, Y).\n\
             anc(X, Y) :- par(X, Y).\n\
             anc(X, Y) :- anc(X, Z), anc(Z, Y).",
        )
        .unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let edges = chain_edges(&mut p, 9);
        let mut mirror = Database::new();
        for e in &edges {
            mirror.insert(par, e.clone());
        }
        let want = spec_idb(&p, &mirror);
        let run = |strategy: Strategy| {
            let mut m = Materialization::new(&p, strategy);
            m.insert_facts(par, &edges[..5]);
            m.insert_facts(par, &edges[5..]);
            m
        };
        let seq = run(Strategy::SemiNaive);
        assert_eq!(sorted_model(&seq.idb_database()), want);
        assert_eq!(seq.answer().len(), 9);
        seq.provenance().check(&p).expect("valid");
        for strategy in [
            Strategy::SemiNaiveParallel { threads: 2 },
            Strategy::SemiNaiveSharded { threads: 2, shards: 7 },
        ] {
            let m = run(strategy);
            assert_eq!(sorted_model(&m.idb_database()), want, "{strategy:?}");
            assert_eq!(m.provenance(), seq.provenance(), "{strategy:?}");
            assert_eq!(m.stats(), seq.stats(), "{strategy:?}");
        }
    }

    #[test]
    fn insert_resumes_instead_of_recomputing() {
        let mut p = parse_program(SRC_A).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let edges = chain_edges(&mut p, 6);
        let mut db = Database::new();
        for e in &edges[..3] {
            db.insert(par, e.clone());
        }
        let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
        assert_eq!(m.answer().len(), 3);
        let before = m.stats();

        // Absorb the rest of the chain one edge at a time, and total up
        // what a non-incremental system would pay: a full recompute
        // after every update.
        let mut mirror = db.clone();
        let mut recompute_work = 0u64;
        for e in &edges[3..] {
            assert_eq!(m.insert_facts(par, std::slice::from_ref(e)), 1);
            mirror.insert(par, e.clone());
            assert_eq!(sorted_model(&m.idb_database()), spec_idb(&p, &mirror));
            recompute_work += crate::eval::evaluate(&p, &mirror, Strategy::SemiNaive)
                .stats
                .work();
        }
        assert_eq!(m.answer().len(), 6);
        // The updates resumed from the fixpoint instead of recomputing.
        let update_work = m.stats().work() - before.work();
        assert!(
            update_work < recompute_work,
            "update cost {update_work} should undercut per-update recomputes {recompute_work}"
        );
        // Duplicate inserts are no-ops.
        assert_eq!(m.insert_facts(par, &edges), 0);
        m.provenance().check(&p).expect("justifications stay valid");
    }

    #[test]
    fn insert_on_idb_or_unknown_predicates_is_a_noop() {
        let mut p = parse_program(SRC_A).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let anc = p.symbols.get_predicate("anc").unwrap();
        let stranger = p.symbols.predicate("unrelated");
        let a = p.symbols.constant("a");
        let b = p.symbols.constant("b");
        let mut m = Materialization::new(&p, Strategy::SemiNaive);
        assert_eq!(m.insert_facts(anc, &[vec![a, b]]), 0, "IDB facts ignored");
        assert_eq!(m.insert_facts(stranger, &[vec![a, b]]), 0, "untracked pred");
        assert_eq!(m.retract_facts(anc, &[vec![a, b]]), 0);
        assert_eq!(m.retract_facts(stranger, &[vec![a, b]]), 0);
        assert_eq!(m.num_facts(anc), 0);
        assert_eq!(m.insert_facts(par, &[vec![a, b]]), 1);
        assert_eq!(m.num_facts(anc), 1);
        assert_eq!(m.num_facts(par), 1);
    }

    #[test]
    fn retract_cascades_through_derived_facts() {
        let mut p = parse_program(SRC_A).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let edges = chain_edges(&mut p, 5);
        let mut db = Database::new();
        for e in &edges {
            db.insert(par, e.clone());
        }
        let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
        assert_eq!(m.answer().len(), 5);
        // Cut the chain in the middle: everything past c2 is gone.
        assert_eq!(m.retract_facts(par, std::slice::from_ref(&edges[2])), 1);
        let mut mirror = db.clone();
        mirror.remove(par, &edges[2]);
        assert_eq!(sorted_model(&m.idb_database()), spec_idb(&p, &mirror));
        assert_eq!(m.answer().len(), 2);
        m.provenance().check(&p).expect("surviving justifications valid");
        // Retracting an absent fact is a no-op.
        assert_eq!(m.retract_facts(par, std::slice::from_ref(&edges[2])), 0);
    }

    #[test]
    fn retract_rescues_facts_with_alternative_derivations() {
        // The classic DRed diamond: p(a) holds via e(a) AND via f(a).
        // Its recorded justification uses e(a); retracting e(a) must
        // over-delete p(a) and then rescue it through f(a), with the
        // new justification recorded.
        let mut p = parse_program(
            "?- p(Y).\n\
             p(X) :- e(X).\n\
             p(X) :- f(X).\n\
             q(X) :- p(X), g(X).",
        )
        .unwrap();
        let e = p.symbols.get_predicate("e").unwrap();
        let f = p.symbols.get_predicate("f").unwrap();
        let g = p.symbols.get_predicate("g").unwrap();
        let pp = p.symbols.get_predicate("p").unwrap();
        let q = p.symbols.get_predicate("q").unwrap();
        let a = p.symbols.constant("a");
        let mut db = Database::new();
        db.insert(e, vec![a]);
        db.insert(f, vec![a]);
        db.insert(g, vec![a]);
        let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
        let prov = m.provenance();
        let pa = crate::derivation::GroundAtom { pred: pp, args: vec![a] };
        assert_eq!(prov.justification(&pa).map(|(r, _)| r), Some(0), "via e");

        assert_eq!(m.retract_facts(e, &[vec![a]]), 1);
        let mut mirror = db.clone();
        mirror.remove(e, &[a]);
        assert_eq!(sorted_model(&m.idb_database()), spec_idb(&p, &mirror));
        let idb = m.idb_database();
        assert!(idb.relation(pp).unwrap().contains(&[a]), "p(a) rescued");
        assert!(idb.relation(q).unwrap().contains(&[a]), "q(a) survives too");
        let prov = m.provenance();
        prov.check(&p).expect("rescued justification is valid");
        assert_eq!(prov.justification(&pa).map(|(r, _)| r), Some(1), "now via f");

        // Retract the second support: now everything goes.
        assert_eq!(m.retract_facts(f, &[vec![a]]), 1);
        mirror.remove(f, &[a]);
        assert_eq!(sorted_model(&m.idb_database()), spec_idb(&p, &mirror));
        assert_eq!(m.num_facts(pp), 0);
        assert_eq!(m.num_facts(q), 0);
    }

    #[test]
    fn insert_then_retract_restores_the_store() {
        let mut p = parse_program(SRC_A).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let edges = chain_edges(&mut p, 8);
        let mut db = Database::new();
        for e in &edges[..4] {
            db.insert(par, e.clone());
        }
        let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
        let snapshot = sorted_model(&m.database());
        m.insert_facts(par, &edges[4..]);
        assert_ne!(sorted_model(&m.database()), snapshot);
        m.retract_facts(par, &edges[4..]);
        assert_eq!(
            sorted_model(&m.database()),
            snapshot,
            "retracting the inserted rows restores the pre-insert store"
        );
        m.provenance().check(&p).expect("valid after the round trip");
    }

    #[test]
    fn update_sequences_are_strategy_independent() {
        // The same op sequence under every strategy yields the same
        // store — and, because shards merge in sequential order, the
        // same provenance bit-for-bit for the semi-naive family.
        let mut p = parse_program(SRC_A).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let edges = chain_edges(&mut p, 9);
        let mut db = Database::new();
        for e in &edges[..5] {
            db.insert(par, e.clone());
        }
        let run = |strategy: Strategy| {
            let mut m = Materialization::from_database(&p, &db, strategy);
            m.insert_facts(par, &edges[5..]);
            m.retract_facts(par, &edges[2..4]);
            m.insert_facts(par, &edges[2..3]);
            m
        };
        let seq = run(Strategy::SemiNaive);
        let seq_model = sorted_model(&seq.database());
        let seq_prov = seq.provenance();
        for strategy in [
            Strategy::Naive,
            Strategy::SemiNaiveParallel { threads: 2 },
            Strategy::SemiNaiveParallel { threads: 4 },
            Strategy::SemiNaiveSharded { threads: 2, shards: 7 },
        ] {
            let m = run(strategy);
            assert_eq!(sorted_model(&m.database()), seq_model, "{strategy:?}");
            m.provenance().check(&p).expect("valid under every strategy");
            if strategy != Strategy::Naive {
                assert_eq!(
                    m.provenance(),
                    seq_prov,
                    "{strategy:?}: provenance thread/shard independent"
                );
                assert_eq!(m.stats(), seq.stats(), "{strategy:?} counters");
            }
        }
    }

    #[test]
    fn batch_wrappers_are_the_materialization_special_case() {
        let mut p = parse_program(SRC_A).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let edges = chain_edges(&mut p, 7);
        let mut db = Database::new();
        for e in &edges {
            db.insert(par, e.clone());
        }
        let wrapped = crate::eval::evaluate(&p, &db, Strategy::SemiNaive);
        let m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
        assert_eq!(m.stats(), wrapped.stats, "recording changes no counter");
        assert_eq!(sorted_model(&m.idb_database()), sorted_model(&wrapped.idb));
        let (ans, _) = crate::eval::answer(&p, &db, Strategy::SemiNaive);
        assert_eq!(m.answer().sorted(), ans.sorted());
    }

    #[test]
    fn one_csr_build_per_apply_round() {
        // The reverse-dependency index is built lazily exactly once —
        // on the first round with any over-deletion work — and then
        // maintained incrementally: later retracting rounds (batched or
        // single-fact) never rebuild it.
        let mut p = parse_program(SRC_A).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let edges = chain_edges(&mut p, 10);
        let mut db = Database::new();
        for e in &edges {
            db.insert(par, e.clone());
        }
        let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
        assert_eq!(m.csr_builds(), 0, "construction never over-deletes");

        let round = UpdateRound::new()
            .retract_all(par, &edges[6..])
            .drop_rule(RuleId(1));
        let report = m.apply(&round);
        assert_eq!(report.retracted, 4);
        assert_eq!(report.rules_dropped, 1);
        assert_eq!(m.csr_builds(), 1, "one build for the whole mixed round");

        // Insert-only and empty rounds never build the index.
        m.apply(&UpdateRound::new().insert(par, edges[6].clone()));
        m.apply(&UpdateRound::new());
        assert_eq!(m.csr_builds(), 1);

        // A later retracting round reuses the maintained index.
        m.apply(&UpdateRound::new().retract(par, edges[6].clone()));
        assert_eq!(m.csr_builds(), 1, "incremental maintenance, no rebuild");

        // The single-fact path also pays exactly one lazy build, on the
        // first retract call — O(affected) from then on.
        let mut m2 = Materialization::from_database(&p, &db, Strategy::SemiNaive);
        for e in &edges[6..] {
            m2.retract_facts(par, std::slice::from_ref(e));
        }
        assert_eq!(m2.csr_builds(), 1);
    }

    #[test]
    fn batched_mixed_round_matches_sequential_calls() {
        let mut p = parse_program(SRC_A).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let edges = chain_edges(&mut p, 10);
        let mut db = Database::new();
        for e in &edges[..6] {
            db.insert(par, e.clone());
        }
        let mut batched = Materialization::from_database(&p, &db, Strategy::SemiNaive);
        let report = batched.apply(
            &UpdateRound::new()
                .retract_all(par, &edges[2..4])
                .insert_all(par, &edges[6..]),
        );
        assert_eq!(report.inserted, 4);
        assert_eq!(report.retracted, 2);

        let mut sequential = Materialization::from_database(&p, &db, Strategy::SemiNaive);
        for e in &edges[6..] {
            sequential.insert_facts(par, std::slice::from_ref(e));
        }
        for e in &edges[2..4] {
            sequential.retract_facts(par, std::slice::from_ref(e));
        }
        assert_eq!(
            sorted_model(&batched.database()),
            sorted_model(&sequential.database()),
            "one mixed round ≡ any order of the single-fact calls"
        );
        // And both match the from-scratch spec of the edited database.
        let mut mirror = db.clone();
        for e in &edges[6..] {
            mirror.insert(par, e.clone());
        }
        for e in &edges[2..4] {
            mirror.remove(par, e);
        }
        assert_eq!(sorted_model(&batched.idb_database()), spec_idb(&p, &mirror));
        batched.provenance().check(&p).expect("valid after a mixed round");
    }

    #[test]
    fn drop_rule_overdeletes_and_rescues_via_surviving_rules() {
        // The DRed diamond again, but cutting a *rule* instead of a
        // fact: p(a) is justified via rule 0 (p :- e); dropping rule 0
        // must rescue p(a) through rule 1 (p :- f) and keep q(a).
        let mut p = parse_program(
            "?- p(Y).\n\
             p(X) :- e(X).\n\
             p(X) :- f(X).\n\
             q(X) :- p(X), g(X).",
        )
        .unwrap();
        let e = p.symbols.get_predicate("e").unwrap();
        let f = p.symbols.get_predicate("f").unwrap();
        let g = p.symbols.get_predicate("g").unwrap();
        let pp = p.symbols.get_predicate("p").unwrap();
        let q = p.symbols.get_predicate("q").unwrap();
        let a = p.symbols.constant("a");
        let mut db = Database::new();
        db.insert(e, vec![a]);
        db.insert(f, vec![a]);
        db.insert(g, vec![a]);
        let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
        assert!(m.is_rule_active(RuleId(0)));

        assert!(m.drop_rule(RuleId(0)));
        assert!(!m.is_rule_active(RuleId(0)));
        assert!(!m.drop_rule(RuleId(0)), "double drop is a no-op");
        assert_eq!(m.num_facts(pp), 1, "p(a) rescued via rule 1");
        assert_eq!(m.num_facts(q), 1, "q(a) survives");
        let prov = m.provenance();
        // Check against the full original program: rule slots align.
        prov.check(&p).expect("rescued justification valid");
        let pa = crate::derivation::GroundAtom { pred: pp, args: vec![a] };
        assert_eq!(prov.justification(&pa).map(|(r, _)| r), Some(1), "via f now");

        // The edited program is the spec: dropping the last support of
        // p kills everything derived.
        assert!(m.drop_rule(RuleId(1)));
        assert_eq!(m.num_facts(pp), 0);
        assert_eq!(m.num_facts(q), 0);
        // e/f/g facts are untouched.
        assert_eq!(m.num_facts(e), 1);
    }

    #[test]
    fn add_rule_seeds_from_existing_rows() {
        let mut p = parse_program(SRC_A).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let anc = p.symbols.get_predicate("anc").unwrap();
        let edges = chain_edges(&mut p, 5);
        let mut db = Database::new();
        for e in &edges {
            db.insert(par, e.clone());
        }
        let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
        assert_eq!(m.num_rule_slots(), 2);

        // Hot-add: sib(X, Y) :- par(Z, X), par(Z, Y) over a new IDB.
        let extra = parse_program(
            "?- sib(X, Y).\n\
             sib(X, Y) :- par(Z, X), par(Z, Y).",
        )
        .unwrap();
        // Predicate/constant ids are interned per-Symbols; rebuild the
        // rule against p's symbol table for a like-for-like comparison.
        let mut p_plus = p.clone();
        let sib = p_plus.symbols.predicate("sib");
        let rule = {
            let mut r = extra.rules[0].clone();
            r.head.pred = sib;
            for (a, src) in r.body.iter_mut().zip(&extra.rules[0].body) {
                assert_eq!(extra.symbols.pred_name(src.pred), "par");
                a.pred = par;
            }
            r
        };
        p_plus.rules.push(rule.clone());

        let id = m.add_rule(rule);
        assert_eq!(id, RuleId(2));
        assert!(m.is_rule_active(id));
        assert_eq!(m.active_rules().len(), 3);
        // Chain graph: each parent has one child, so sib is the diagonal.
        assert_eq!(m.num_facts(sib), 5, "seeded from the existing rows");
        assert_eq!(
            sorted_model(&m.idb_database()),
            spec_idb(&p_plus, &{
                let mut mirror = Database::new();
                for e in &edges {
                    mirror.insert(par, e.clone());
                }
                mirror
            }),
            "incrementally seeded ≡ from-scratch on the edited program"
        );
        m.provenance().check(&p_plus).expect("seeded justifications valid");

        // New facts keep flowing through the added rule.
        let john = p.symbols.get_constant("john").unwrap();
        let x = p_plus.symbols.constant("x");
        m.insert_facts(par, &[vec![john, x]]);
        assert_eq!(m.num_facts(sib), 5 + 3, "sib(c1,x), sib(x,c1) and sib(x,x)");
        let _ = anc;
    }

    #[test]
    #[should_panic(expected = "head must not be a stored EDB relation")]
    fn add_rule_rejects_edb_heads() {
        let p = parse_program(SRC_A).unwrap();
        let mut m = Materialization::new(&p, Strategy::SemiNaive);
        // par is a stored EDB relation: deriving into it would break the
        // fixed IDB/EDB partition. par(X, Y) :- anc(X, Y).
        let par = p.symbols.get_predicate("par").unwrap();
        let anc = p.symbols.get_predicate("anc").unwrap();
        let args = vec![Term::Var(Var(0)), Term::Var(Var(1))];
        m.add_rule(Rule {
            head: Atom { pred: par, args: args.clone() },
            body: vec![Atom { pred: anc, args }],
        });
    }

    #[test]
    fn apply_round_with_new_predicates_tracks_them() {
        // An added rule may introduce brand-new body predicates; the
        // same round can already insert facts for them.
        let mut p = parse_program(SRC_A).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let edges = chain_edges(&mut p, 3);
        let mut db = Database::new();
        for e in &edges {
            db.insert(par, e.clone());
        }
        let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);

        let mut p_plus = p.clone();
        let anc = p_plus.symbols.get_predicate("anc").unwrap();
        let step = p_plus.symbols.predicate("step");
        let rule = Rule {
            head: Atom {
                pred: anc,
                args: vec![Term::Var(Var(90)), Term::Var(Var(91))],
            },
            body: vec![Atom {
                pred: step,
                args: vec![Term::Var(Var(90)), Term::Var(Var(91))],
            }],
        };
        p_plus.rules.push(rule.clone());
        let a = p_plus.symbols.constant("zz1");
        let b = p_plus.symbols.constant("zz2");
        let report = m.apply(
            &UpdateRound::new()
                .add_rule(rule)
                .insert(step, vec![a, b]),
        );
        assert_eq!(report.rules_added, 1);
        assert_eq!(report.inserted, 1, "the new EDB predicate is tracked");
        let mut mirror = db.clone();
        mirror.insert(step, vec![a, b]);
        assert_eq!(sorted_model(&m.idb_database()), spec_idb(&p_plus, &mirror));
        m.provenance().check(&p_plus).expect("valid");
    }

    #[test]
    fn empty_materialization_fires_seed_rules() {
        // Magic-style seed rules (empty body) fire during the initial
        // fixpoint of an empty materialization; stream inserts build on
        // them.
        let mut p = parse_program(
            "?- reach(Y).\n\
             seed(c).\n\
             reach(Y) :- seed(X), e(X, Y).\n\
             reach(Y) :- reach(X), e(X, Y).",
        )
        .unwrap();
        let e = p.symbols.get_predicate("e").unwrap();
        let seed = p.symbols.get_predicate("seed").unwrap();
        let c = p.symbols.get_constant("c").unwrap();
        let d = p.symbols.constant("d");
        let mut m = Materialization::new(&p, Strategy::SemiNaive);
        assert_eq!(m.num_facts(seed), 1, "seed(c) fired on the empty store");
        assert_eq!(m.insert_facts(e, &[vec![c, d]]), 1);
        assert_eq!(m.answer().len(), 1);
        m.provenance().check(&p).expect("valid");
    }

    // -----------------------------------------------------------------
    // Compaction
    // -----------------------------------------------------------------

    #[test]
    fn compact_preserves_model_provenance_and_update_behavior() {
        let mut p = parse_program(SRC_A).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let edges = chain_edges(&mut p, 12);
        let mut db = Database::new();
        for e in &edges {
            db.insert(par, e.clone());
        }
        let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
        m.set_compaction_policy(None); // manual compaction for this test

        // Churn: cut the chain tail, then reattach a shorter one.
        m.retract_facts(par, &edges[8..]);
        let mut mirror = db.clone();
        for e in &edges[8..] {
            mirror.remove(par, e);
        }
        assert_eq!(sorted_model(&m.idb_database()), spec_idb(&p, &mirror));

        let stats_before = m.stats();
        let mem_before = m.mem_stats();
        assert!(mem_before.total_rows > mem_before.live_rows, "churn left tombstones");

        let reclaimed = m.compact();
        assert!(reclaimed > 0);
        assert_eq!(m.compactions(), 1);
        let mem_after = m.mem_stats();
        assert_eq!(mem_after.total_rows, mem_after.live_rows, "no dead rows survive");
        assert!(mem_after.row_words() < mem_before.row_words());

        // Results, counters and provenance are untouched.
        assert_eq!(m.stats(), stats_before, "compaction does no evaluation work");
        assert_eq!(sorted_model(&m.idb_database()), spec_idb(&p, &mirror));
        m.provenance().check(&p).expect("remapped justifications stay valid");

        // A second compact is a no-op.
        assert_eq!(m.compact(), 0);
        assert_eq!(m.compactions(), 1);

        // Updates keep working against the renumbered store: retract
        // deeper (exercising the rebuilt reverse index), then insert.
        m.retract_facts(par, &edges[4..8]);
        for e in &edges[4..8] {
            mirror.remove(par, e);
        }
        assert_eq!(m.insert_facts(par, &edges[4..6]), 2);
        for e in &edges[4..6] {
            mirror.insert(par, e.clone());
        }
        assert_eq!(sorted_model(&m.idb_database()), spec_idb(&p, &mirror));
        m.provenance().check(&p).expect("post-compact churn provenance valid");
    }

    #[test]
    fn policy_triggers_automatic_compaction() {
        let mut p = parse_program(SRC_A).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let edges = chain_edges(&mut p, 40);
        let mut db = Database::new();
        for e in &edges {
            db.insert(par, e.clone());
        }
        let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
        m.set_compaction_policy(Some(CompactionPolicy {
            min_dead_rows: 8,
            dead_percent: 10,
        }));
        // Cutting the chain at edge 20 tombstones half the closure: far
        // past the 10% threshold, so the apply round compacts itself.
        m.retract_facts(par, std::slice::from_ref(&edges[20]));
        assert!(m.compactions() >= 1, "policy breach compacts automatically");
        let mem = m.mem_stats();
        assert_eq!(mem.total_rows, mem.live_rows);

        let mut mirror = db.clone();
        mirror.remove(par, &edges[20]);
        assert_eq!(sorted_model(&m.idb_database()), spec_idb(&p, &mirror));
    }

    #[test]
    fn retract_is_a_counted_no_op_on_absent_and_double_retracts() {
        let mut p = parse_program(SRC_A).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let edges = chain_edges(&mut p, 6);
        let never = {
            let x = p.symbols.constant("x");
            let y = p.symbols.constant("y");
            vec![x, y]
        };
        let mut db = Database::new();
        for e in &edges {
            db.insert(par, e.clone());
        }
        let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
        let baseline = sorted_model(&m.database());

        // Never-inserted fact: count 0, store untouched.
        assert_eq!(m.retract_facts(par, std::slice::from_ref(&never)), 0);
        assert_eq!(sorted_model(&m.database()), baseline);

        // Real retract counts once; the immediate double-retract counts 0.
        assert_eq!(m.retract_facts(par, std::slice::from_ref(&edges[5])), 1);
        assert_eq!(m.retract_facts(par, std::slice::from_ref(&edges[5])), 0);
        let mut mirror = db.clone();
        mirror.remove(par, &edges[5]);
        assert_eq!(sorted_model(&m.idb_database()), spec_idb(&p, &mirror));

        // Retract-after-compact: the row is gone entirely, still a
        // clean counted no-op.
        assert!(m.compact() > 0);
        assert_eq!(m.retract_facts(par, std::slice::from_ref(&edges[5])), 0);
        // And a mixed round counts only the rows actually removed.
        let r = m.apply(&UpdateRound::new().retract_all(par, &edges[3..6]));
        assert_eq!(r.retracted, 2, "edges[5] is already gone");
        m.provenance().check(&p).expect("valid after no-op retracts");
    }

    // -----------------------------------------------------------------
    // Rescue plans
    // -----------------------------------------------------------------

    const SRC_B: &str = "?- anc(john, Y).\n\
                         anc(X, Y) :- par(X, Y).\n\
                         anc(X, Y) :- par(X, Z), anc(Z, Y).";
    const SRC_C: &str = "?- anc(john, Y).\n\
                         anc(X, Y) :- par(X, Y).\n\
                         anc(X, Y) :- anc(X, Z), anc(Z, Y).";
    const SRC_S7: &str = "?- p(john, Y).\n\
                          p(X, Y) :- b1(X, X1), b2(X1, Y).\n\
                          p(X, Y) :- b1(X, X1), p(X1, Y1), b2(Y1, Y).";
    /// Program A's magic program, the magic predicate derived so that
    /// it is an IDB like a view's.
    const SRC_MAGIC_A: &str = "?- anc_bf(john, Y).\n\
                               m(X) :- seed(X).\n\
                               anc_bf(X, Y) :- m(X), par(X, Y).\n\
                               anc_bf(X, Y) :- m(X), anc_bf(X, Z), par(Z, Y).";

    /// One rescue plan's shape: the body atom run at each step, and per
    /// step the mask of the index it probes — `None` for a step answered
    /// by the dedup table.
    type RescueShape = (Vec<usize>, Vec<Option<Vec<usize>>>);

    fn rescue_shapes(m: &mut Materialization) -> Vec<RescueShape> {
        m.ensure_rederive_plans(None);
        let mask_of = |s: &Step| {
            assert!(!s.key.is_empty(), "every rescue step of these programs is keyed");
            (s.idx != NO_INDEX).then(|| m.idxs[s.idx].mask().to_vec())
        };
        let plans = m.rederive.as_ref().unwrap().iter();
        plans.map(|p| (p.body_of_step.to_vec(), p.steps.iter().map(mask_of).collect())).collect()
    }

    /// The complete DAG on `john, n1, .. n4` under every binary EDB
    /// predicate of `p` (and `john` under a unary one): every derived
    /// tuple has several derivations, so retractions rescue.
    fn dense_db(p: &mut Program) -> Database {
        let mut names = vec!["john".to_owned()];
        names.extend((1..5).map(|i| format!("n{i}")));
        let node: Vec<Const> = names.iter().map(|n| p.symbols.constant(n)).collect();
        let arities: FxHashMap<Pred, usize> = p
            .rules
            .iter()
            .flat_map(|r| &r.body)
            .map(|a| (a.pred, a.arity()))
            .collect();
        let mut db = Database::new();
        for pred in p.edb_predicates() {
            if arities[&pred] == 1 {
                db.insert(pred, vec![node[0]]);
                continue;
            }
            for i in 0..node.len() {
                for j in i + 1..node.len() {
                    db.insert(pred, vec![node[i], node[j]]);
                }
            }
        }
        db
    }

    /// The recursive rule of programs A, B, C, of Section 7 and of a
    /// magic program is rescued through its smallest fan-in — the EDB
    /// atom keyed on the bound head variable, never `anc(x, _)` — with
    /// every fully bound atom a dedup-table lookup; and the rows a rescue
    /// records are a positional instantiation of the rule text whatever
    /// order found them.
    #[test]
    fn rescue_plans_enter_through_the_fan_in_and_record_in_rule_text_order() {
        let some = |m: &[usize]| Some(m.to_vec());
        let cases: [(&str, RescueShape); 5] = [
            // anc(X,Z), par(Z,Y): par(Z, y) first, anc(x, z) is a lookup.
            (SRC_A, (vec![1, 0], vec![some(&[1]), None])),
            // par(X,Z), anc(Z,Y): par(x, Z), then the lookup.
            (SRC_B, (vec![0, 1], vec![some(&[0]), None])),
            // anc(X,Z), anc(Z,Y): nothing to choose between; text order.
            (SRC_C, (vec![0, 1], vec![some(&[0]), None])),
            // b1(X,X1), p(X1,Y1), b2(Y1,Y): both EDB atoms before the
            // IDB atom they bind completely.
            (SRC_S7, (vec![0, 2, 1], vec![some(&[0]), some(&[1]), None])),
            // m(X), anc_bf(X,Z), par(Z,Y): the guard is a lookup, then
            // as program A.
            (SRC_MAGIC_A, (vec![0, 2, 1], vec![None, some(&[1]), None])),
        ];
        for (src, expected) in cases {
            let mut p = parse_program(src).unwrap();
            let db = dense_db(&mut p);
            let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
            let shapes = rescue_shapes(&mut m);
            assert_eq!(shapes.last().unwrap(), &expected, "{src}");
            // The exit rules test their one (or last) atom in the table.
            assert_eq!(shapes[shapes.len() - 2].1.last().unwrap(), &None, "{src}");

            // Retract the binary EDB facts one at a time, in a scrambled
            // order: while other edges still stand, most casualties
            // have a derivation left and are rescued.
            let mut facts: Vec<(Pred, Tuple)> = db
                .iter()
                .filter(|(_, r)| r.arity() == 2)
                .flat_map(|(pred, r)| r.sorted().into_iter().map(move |t| (pred, t)))
                .collect();
            facts.sort_by_key(|(pred, t)| (t[0].0 * 31 + t[1].0 * 17 + pred.0 * 7) % 13);
            let mut mirror = db.clone();
            let mut reappended = 0;
            for (pred, t) in facts {
                let before: Vec<usize> = m.frontiers();
                assert_eq!(m.retract_facts(pred, std::slice::from_ref(&t)), 1);
                mirror.remove(pred, &t);
                assert_eq!(sorted_model(&m.idb_database()), spec_idb(&p, &mirror), "{src}");
                m.provenance().check(&p).unwrap_or_else(|e| panic!("{src}: {e}"));
                reappended +=
                    m.frontiers().iter().zip(&before).map(|(a, b)| a - b).sum::<usize>();
            }
            assert!(reappended > 0, "no retraction rescued anything: {src}");
        }
    }

    /// The rescue of `anc(a, d)` after its recorded support `par(b, d)`
    /// goes: found as `par(c, d)` then `anc(a, c)`, recorded as
    /// `anc(a, c), par(c, d)`.
    #[test]
    fn rescued_justification_reads_in_rule_text_order() {
        let mut p = parse_program(SRC_A).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let anc = p.symbols.get_predicate("anc").unwrap();
        let [a, b, c, d] = ["a", "b", "c", "d"].map(|n| p.symbols.constant(n));
        let mut db = Database::new();
        for e in [[a, b], [a, c], [b, d], [c, d]] {
            db.insert(par, e.to_vec());
        }
        let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
        let ga = |pred, x, y| crate::derivation::GroundAtom { pred, args: vec![x, y] };
        let anc_ad = ga(anc, a, d);
        let via = |m: &Materialization| m.provenance().justification(&anc_ad).unwrap();
        let through_b = via(&m).1 == [ga(anc, a, b), ga(par, b, d)];
        let (first, second) = if through_b { (b, c) } else { (c, b) };
        assert_eq!(m.retract_facts(par, &[vec![first, d]]), 1);
        assert_eq!(via(&m), (1, vec![ga(anc, a, second), ga(par, second, d)]));
        m.provenance().check(&p).expect("valid after the rescue");
    }

    /// A tuple whose only other derivation runs through a row tombstoned
    /// in the same round is not rescued: the dedup table a full-key step
    /// reads holds live rows only — also with the tombstones tagged for
    /// a pinned epoch, and in the first round of a restored store, whose
    /// tables are rebuilt on that first write.
    #[test]
    fn a_dedup_step_never_rescues_through_a_row_that_died_this_round() {
        let mut p = parse_program(SRC_A).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let anc = p.symbols.get_predicate("anc").unwrap();
        let edges = chain_edges(&mut p, 2);
        let mut db = Database::new();
        for e in &edges {
            db.insert(par, e.clone());
        }
        let fresh = Materialization::from_database(&p, &db, Strategy::SemiNaive);
        let pinned = {
            let mut m = fresh.clone();
            m.set_epoch(3);
            m
        };
        let restored = Materialization::from_bytes(&fresh.to_bytes()).unwrap();
        let mut mirror = db.clone();
        mirror.remove(par, &edges[0]);
        for (what, mut m) in [("fresh", fresh), ("pinned", pinned), ("restored", restored)] {
            // anc(john, c2) is over-deleted with anc(john, c1); its other
            // derivation — par(Z, c2), then anc(john, c1) in the table —
            // needs exactly that dead row.
            assert_eq!(m.retract_facts(par, &edges[..1]), 1, "{what}");
            assert_eq!(rescue_shapes(&mut m)[1].1, [Some(vec![1]), None], "{what}");
            assert_eq!(sorted_model(&m.idb_database()), spec_idb(&p, &mirror), "{what}");
            assert_eq!(m.num_facts(anc), 1, "{what}: only anc(c1, c2) is left");
            assert_eq!(m.tagged_tombstones() > 0, what == "pinned");
            m.provenance().check(&p).expect("valid");
        }
    }

    /// [`OrderMode::Shuffled`], the one-order-per-rule mode, rescues in
    /// the original (textual) body order, every keyed step through an
    /// index — full-key steps included.
    #[test]
    fn original_order_keeps_the_textual_rescue_plans() {
        let some = |m: &[usize]| Some(m.to_vec());
        let cases = [
            (SRC_A, vec![vec![some(&[0, 1])], vec![some(&[0]), some(&[0, 1])]]),
            (
                SRC_S7,
                vec![
                    vec![some(&[0]), some(&[0, 1])],
                    vec![some(&[0]), some(&[0]), some(&[0, 1])],
                ],
            ),
        ];
        for (src, expected) in cases {
            let mut p = parse_program(src).unwrap();
            let db = dense_db(&mut p);
            let order = OrderMode::Shuffled(7);
            let mut m = Materialization::from_database_with(&p, &db, Strategy::SemiNaive, order);
            let shapes = rescue_shapes(&mut m);
            for (shape, masks) in shapes.iter().zip(&expected) {
                assert_eq!(shape.0, (0..masks.len()).collect::<Vec<_>>(), "{src}");
                assert_eq!(&shape.1, masks, "{src}");
            }
        }
    }

    /// The base-side twin of the cache's link test: the first retracting
    /// round of a program-A store registers `par[1]` and nothing else —
    /// no `anc[0]`, which would index the whole closure for the rescue
    /// alone.
    #[test]
    fn the_first_retraction_registers_one_edb_index() {
        let mut p = parse_program(SRC_A).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let edges = chain_edges(&mut p, 16);
        let mut db = Database::new();
        for e in &edges {
            db.insert(par, e.clone());
        }
        let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
        let before = m.planner_report().index_rows;
        assert_eq!(m.retract_facts(par, &edges[15..]), 1);
        assert_eq!(m.planner_report().index_rows - before, edges.len() as u64);
    }

    /// A round that adds a rule deriving a tuple it also over-deletes:
    /// the seeding pass re-derives the tuple before the rescue reaches
    /// it, and the rescue must not record a second row for it.
    #[test]
    fn a_candidate_the_seeding_pass_rederived_is_not_rescued_twice() {
        let mut p = parse_program(SRC_A).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let anc = p.symbols.get_predicate("anc").unwrap();
        let alt = p.symbols.predicate("alt");
        let edges = chain_edges(&mut p, 3);
        let mut db = Database::new();
        for e in &edges {
            db.insert(par, e.clone());
        }
        let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
        let xy = vec![Term::Var(Var(0)), Term::Var(Var(1))];
        let added = Rule {
            head: Atom { pred: anc, args: xy.clone() },
            body: vec![Atom { pred: alt, args: xy }],
        };
        p.rules.push(added.clone());
        m.apply(
            &UpdateRound::new()
                .add_rule(added)
                .insert(alt, edges[0].clone())
                .retract(par, edges[0].clone()),
        );
        let mut mirror = db.clone();
        mirror.remove(par, &edges[0]);
        mirror.insert(alt, edges[0].clone());
        assert_eq!(sorted_model(&m.idb_database()), spec_idb(&p, &mirror));
        m.provenance().check(&p).expect("one justification per row");
    }

    // -----------------------------------------------------------------
    // Snapshot / restore
    // -----------------------------------------------------------------

    #[test]
    fn snapshot_round_trip_is_bit_for_bit_and_update_equivalent() {
        let mut p = parse_program(SRC_A).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let edges = chain_edges(&mut p, 14);
        let mut db = Database::new();
        for e in &edges {
            db.insert(par, e.clone());
        }
        let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
        m.set_compaction_policy(None);
        // Leave interesting state behind: tombstones (live dead bitset +
        // stale justifications), a dropped rule slot, a convergence
        // profile, nonzero counters.
        m.retract_facts(par, &edges[10..12]);

        let bytes = m.to_bytes();
        let m2 = Materialization::from_bytes(&bytes).expect("intact snapshot restores");
        assert_eq!(m2.to_bytes(), bytes, "serialize(restore(x)) == x, bit for bit");
        assert_eq!(m2.stats(), m.stats());
        assert_eq!(m2.strategy(), m.strategy());
        assert_eq!(m2.csr_builds(), m.csr_builds());
        assert_eq!(sorted_model(&m2.database()), sorted_model(&m.database()));
        assert_eq!(m2.answer().sorted(), m.answer().sorted());
        m2.provenance().check(&p).expect("restored justifications valid");

        // The same mixed round lands identically on both stores.
        let round = UpdateRound::new()
            .retract_all(par, &edges[4..6])
            .insert_all(par, &edges[10..12]);
        let mut m2 = m2;
        let ra = m.apply(&round);
        let rb = m2.apply(&round);
        assert_eq!(ra, rb);
        assert_eq!(m.stats(), m2.stats(), "identical work on both stores");
        assert_eq!(sorted_model(&m.database()), sorted_model(&m2.database()));
        assert_eq!(m.to_bytes(), m2.to_bytes(), "stores stay bit-identical after the round");
    }

    #[test]
    fn snapshot_round_trips_rule_slots_and_epoch_state() {
        let mut p = parse_program(SRC_A).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let edges = chain_edges(&mut p, 8);
        let mut db = Database::new();
        for e in &edges {
            db.insert(par, e.clone());
        }
        let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
        // Epoch mode with a live tombstone tag, plus a dropped rule.
        m.set_epoch(3);
        m.apply(&UpdateRound::new().retract(par, edges[6].clone()));
        m.apply(&UpdateRound::new().drop_rule(RuleId(1)));

        let bytes = m.to_bytes();
        let m2 = Materialization::from_bytes(&bytes).unwrap();
        assert_eq!(m2.to_bytes(), bytes);
        assert!(!m2.is_rule_active(RuleId(1)));
        assert!(m2.is_rule_active(RuleId(0)));
        assert_eq!(m2.num_rule_slots(), 2, "dropped slots persist");
        // The pinned-epoch view survives: a reader pinned at epoch 3
        // still sees rows tombstoned at epoch > 3.
        let f = m2.frontiers();
        assert_eq!(
            m.database_at(&f, 3).sorted_models(),
            m2.database_at(&f, 3).sorted_models()
        );
    }

    #[test]
    fn save_restore_via_file_is_atomic_and_faithful() {
        let dir = std::env::temp_dir().join(format!("selprop-mat-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.snap");

        let mut p = parse_program(SRC_A).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let edges = chain_edges(&mut p, 10);
        let mut db = Database::new();
        for e in &edges {
            db.insert(par, e.clone());
        }
        let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
        m.save(&path).expect("save");
        let m2 = Materialization::restore(&path).expect("restore");
        assert_eq!(m2.to_bytes(), m.to_bytes());

        // Overwrite with new state; the file is replaced atomically.
        m.retract_facts(par, &edges[8..]);
        m.save(&path).expect("second save");
        let m3 = Materialization::restore(&path).expect("restore updated");
        assert_eq!(m3.to_bytes(), m.to_bytes());

        assert!(matches!(
            Materialization::restore(dir.join("missing.snap")),
            Err(PersistError::Io(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
