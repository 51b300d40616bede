//! The persistent incremental materialization layer.
//!
//! A [`Materialization`] is a program's minimum model **kept at fixpoint
//! across updates** — per-predicate [`ColumnarRelation`]s, persistent
//! [`IncrementalIndex`]es, compiled rule plans, semi-naive watermarks
//! and work counters, held as one value:
//!
//! - [`Materialization::apply`] is the one write: it applies an
//!   [`UpdateRound`] — EDB inserts, retracts, **rule adds** and **rule
//!   drops** — as one DRed pass (a single walk of the persistent
//!   reverse-dependency index, however much the round mixes) plus one
//!   semi-naive resume, and returns a [`RoundReport`] of what it did. A
//!   single insert is a round holding just that insert.
//! - An insert appends novel EDB rows and resumes semi-naive
//!   evaluation with those rows as the next delta — semi-naive *is* an
//!   incremental algorithm, so an update costs work proportional to
//!   the delta and its new derivations, not the store. Every round
//!   treats every body atom over a grown relation (EDB included) as a
//!   delta position and runs it through the rule's plan that atom leads
//!   ([`crate::plan`]), under the "last delta occurrence" convention in
//!   rule-text order.
//! - A retract removes EDB rows by **delete–rederive** (DRed):
//!   tombstone the rows ([`ColumnarRelation::tombstone`]), then walk
//!   the derived rows whose recorded justification transitively uses a
//!   deleted row. Each one the walk reaches first asks for another
//!   derivation (a goal-directed per-tuple join pass of
//!   selectivity-ordered re-derivation plans, compiled with the update
//!   plans, stopping at the first derivation): one through rows that
//!   rank below it — EDB rows, lower rows of its relation, rows of a
//!   lower component of the rule graph — saves it in place, and the
//!   walk goes no further there; otherwise it dies. Rows with a
//!   derivation the age test refused are re-derived from the remaining
//!   store after the walk, and the rescues propagate through the normal
//!   insert machinery.
//! - Rule hot-swap works at fixpoint: an added rule seeds its delta
//!   from the existing rows; a dropped rule's derivations are found by
//!   their recorded justification rule ids and over-deleted like any
//!   retraction. Rule ids ([`RuleId`]) are stable plan slots, never
//!   reused.
//! - Batch evaluation is a *special case*: `eval::evaluate` builds a
//!   materialization, loads the database as settled rows, seeds every
//!   rule as a round adds one, resumes to fixpoint and reads the result
//!   out — same struct, same rounds, same plans, same join code, same
//!   counters. A build is the first update round.
//!
//! Every store a public constructor builds, and every decoded snapshot,
//! records justifications (one per derived row, exactly as
//! [`crate::eval::evaluate_with_provenance`] does); that is what makes
//! retraction possible, and it keeps [`Materialization::provenance`]
//! valid across updates. The one store that records none is the
//! one-shot store behind [`crate::eval::evaluate`], which is read out
//! and dropped without ever taking an update or being saved. Updates work
//! unchanged under the parallel strategy: shards partition the first
//! join step's row range top-down, so the staged rows merge in exactly
//! the sequential engine's order and row ids, justifications and
//! [`EvalStats`] are identical at every thread count.
//!
//! The executable specification of every update sequence is a
//! from-scratch re-evaluation ([`crate::reference`]) of the mirrored
//! database; `tests/engine_equiv.rs` proptests random interleaved
//! insert/retract/query sequences against it.
//!
//! # Layout
//!
//! This file is the store and its round: [`Materialization`], its
//! construction, [`Materialization::apply`], rule slots and the epoch
//! and pin read-outs. Each phase `apply` documents is a file under
//! `materialize/` — `join.rs`, `fixpoint.rs`, `dred.rs`, `compact.rs`,
//! `codec.rs`, and the query cache's `template.rs` — whose header names
//! the `BENCHMARK.json` per-layer metrics it answers to.
//! `provenance.rs` is no phase: it reads [`Provenance`]'s trees and
//! metrics off a store's fields.

use crate::ast::{Atom, Pred, Program, Rule};
use crate::db::{Database, Relation, Tuple};
use crate::derivation::Provenance;
use crate::eval::{self, EvalResult, EvalStats, Strategy};
use crate::hash::FxHashMap;
use crate::plan::{plan_rescue, plan_rule, OrderMode, RulePlan};
use crate::storage::{ColumnarRelation, IncrementalIndex, NO_ROW};
use std::sync::Arc;

mod codec;
mod compact;
mod dred;
mod fixpoint;
mod join;
pub(crate) mod provenance;
mod template;
pub use compact::{CompactionPolicy, MemStats};
use dred::{components, RevIndex};
use fixpoint::Staging;
use template::ExtLinks;

/// Per-relation justification store: one packed `[rule, body row ids...]`
/// entry per row, parallel to the relation's row ids, in **one flat
/// buffer** (no per-row `Vec`s — the ROADMAP's recording-overhead item).
/// EDB relations keep empty stores (their rows are leaves). Entries of
/// tombstoned rows linger but are never read: every consumer skips dead
/// rows.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct RelJust {
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

    /// Overwrites row `r`'s entry with `(rule, body)`, a body as long as
    /// the one it replaces (a deletion walk's save).
    fn replace(&mut self, r: u32, rule: u32, body: &[u32]) {
        debug_assert_eq!(self.entry(r).1.len(), body.len(), "a save keeps the entry length");
        let lo = self.off[r as usize] as usize;
        self.buf[lo] = rule;
        self.buf[lo + 1..lo + 1 + body.len()].copy_from_slice(body);
    }

    /// The `(rule, body row ids)` entry of row `r`.
    fn entry(&self, r: u32) -> (u32, &[u32]) {
        let r = r as usize;
        let lo = self.off[r] as usize;
        let hi = self.off.get(r + 1).map_or(self.buf.len(), |&o| o as usize);
        (self.buf[lo], &self.buf[lo + 1..hi])
    }

    /// Every row's entry, in row order.
    fn entries(&self) -> impl Iterator<Item = (u32, &[u32])> {
        let starts = self.off.iter().map(|&o| o as usize);
        let ends = starts.clone().skip(1).chain([self.buf.len()]);
        starts.zip(ends).map(|(lo, hi)| (self.buf[lo], &self.buf[lo + 1..hi]))
    }

    /// Body row ids held, over every row's entry.
    fn body_len(&self) -> usize {
        self.buf.len() - self.off.len()
    }

    /// Words held (memory accounting).
    fn footprint_words(&self) -> usize {
        self.off.len() + self.buf.len()
    }

    /// The packed entries (serialization; the offsets are not written).
    fn buf(&self) -> &[u32] {
        &self.buf
    }

    /// Reassembles a store from its buffer and the entry offsets the
    /// decoder worked out while it validated the buffer.
    fn from_parts(off: Vec<u32>, buf: Vec<u32>) -> Self {
        Self { off, buf }
    }
}

/// Stable identifier of a rule inside a [`Materialization`]: the rule's
/// plan slot. Slots are assigned in program order at construction, then
/// in [`UpdateRound::add_rule`] order, and are **never reused** — a
/// dropped rule leaves its slot behind (recorded justifications index
/// rule slots, so reindexing would corrupt provenance).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RuleId(pub u32);

/// A batched update round: EDB inserts and retracts plus rule adds and
/// drops, applied by [`Materialization::apply`] as **one** mixed batch —
/// one deletion pass (a single walk of the persistent reverse-dependency
/// index for the whole round), one rescue pass, one semi-naive resume to
/// fixpoint.
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
    /// dropped rule is deleted and then eligible for rescue through the
    /// surviving rules.
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
    /// EDB rows actually removed: a tuple never inserted, already
    /// retracted or reclaimed by [`Materialization::compact`] skips.
    pub retracted: usize,
    /// Rules compiled in (= `rule_adds.len()`).
    pub rules_added: usize,
    /// Rules deactivated (unknown or already-dropped ids skip).
    pub rules_dropped: usize,
    /// The slot the round's first added rule got; later adds follow it
    /// consecutively. A round that adds no rule reports the slot the
    /// next add will get.
    pub first_rule: RuleId,
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
    /// Always 0: plans are static (one per `(rule, body atom)`, compiled
    /// where the store is built). The field outlives the adaptive planner
    /// it counted for because external tooling reads it.
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
///   are stored; a round's inserts and retracts of any other predicate
///   (unknown, or an IDB of the program) are skipped and counted in
///   neither [`RoundReport::inserted`] nor [`RoundReport::retracted`] —
///   exactly as both evaluators ignore database facts under IDB
///   predicates.
/// - [`EvalStats`] accumulate over the materialization's lifetime (the
///   initial fixpoint plus every update), so the *difference* between
///   two [`Materialization::stats`] readings is the work an update cost.
#[derive(Clone, Debug)]
pub struct Materialization {
    rels: Vec<ColumnarRelation>,
    idxs: Vec<IncrementalIndex>,
    /// Per rule slot: its plans, `[k]` led by body atom `k` and run for
    /// the item `(rule, k)` of every round, and by a seeding pass that
    /// enters through atom `k`. Every plan of a slot has the same
    /// `body_rels`, and `[0]` always exists. Static: compiled by
    /// `compile_plans`, never revised; behind an `Arc`, so cloning a
    /// store never deep-copies them (only a rule add ever writes,
    /// through `Arc::make_mut`).
    plans: Arc<Vec<Vec<RulePlan>>>,
    /// Per relation: whether it is an IDB of the program. A relation id
    /// is a `u32` from `intern_new_rel` (or the decoder) on.
    idb_flag: Vec<bool>,
    pred_of_rel: Vec<Pred>,
    rel_of_pred: FxHashMap<Pred, u32>,
    /// Per relation: the semi-naive watermark — rows `[0, old_hi)` are the
    /// previous iteration's `old` snapshot, `[old_hi, len)` the delta.
    /// At fixpoint (between updates) `old_hi == num_rows` everywhere.
    old_hi: Vec<usize>,
    /// Per-relation justification stores when provenance recording is
    /// on (`Some` even if a relation never derives — empty is fine).
    prov: Option<Vec<RelJust>>,
    stats: EvalStats,
    strategy: Strategy,
    /// The program's goal (for [`Materialization::answer`]).
    goal: Atom,
    /// The rules, one per slot (what a rule add compiles, a snapshot
    /// saves and a restore recompiles from).
    rules: Vec<Rule>,
    /// The `(relation, mask) → index id` registry: every plan that
    /// probes a `(relation, mask)` shares its one index.
    idx_of: FxHashMap<(usize, Vec<usize>), usize>,
    /// Per rule slot: its rescue plan, the goal-directed per-tuple
    /// derivability check of DRed — compiled by `compile_plans` with the
    /// slot's update plans in every store that records justifications,
    /// empty in the one-shot store.
    rederive: Vec<RulePlan>,
    /// Per rule slot: whether the rule is active. Dropped rules keep
    /// their plan (justification rule ids index plan slots) but stop
    /// firing, rescuing and appearing in update items.
    rule_active: Vec<bool>,
    /// The epoch of the last round a server ran on this store (0 if
    /// none): the server's published epoch, and the one copy of it.
    /// Persisted, so a restored server numbers on. It switches nothing:
    /// a round's tombstones carry the epoch the round is given
    /// ([`Materialization::apply_checked`]), not this field.
    epoch: u64,
    /// The persistent reverse-dependency index, extended by every merge
    /// of a recording store (see [`RevIndex`]; empty in the one-shot
    /// store).
    rev: RevIndex,
    /// Per relation: its strongly connected component of the rule graph
    /// over every rule slot, the age test of a deletion walk's save (see
    /// [`components`]). Recomputed by `compile_plans` whenever a slot is
    /// added — slots are never reused, so the graph only grows — and so
    /// not persisted.
    comp: Vec<u32>,
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
    /// Tells a template store that missed rounds whether it missed a
    /// retraction.
    edb_retracts: u64,
    /// The EDB rows the last [`Materialization::apply`] tombstoned, as
    /// `(relation, row)` (runtime-only): what a template store one
    /// round behind seeds its own deletion walk from.
    last_retracted: Vec<(u32, u32)>,
    /// Reverse edges the deletion walks have read (runtime-only
    /// observability).
    dred_reads: u64,
    /// A template store's *external* slots: relations and indexes owned
    /// by its base store, empty placeholders here, which the passes of a
    /// sync read off the base ([`Materialization::link_external`]). Empty
    /// in ordinary stores. The reverse-dependency index keys the chains
    /// of external rows sparsely (`Chains::Sparse` in `dred.rs`).
    ext: ExtLinks,
    /// The body-order mode plans were compiled under (fixed at
    /// construction; persisted).
    order: OrderMode,
    /// Per relation: the live cardinality at construction (after the
    /// EDB load; 0 for relations interned later) — the tie-break basis
    /// of every plan. Persisted, so a restored store compiles the same
    /// plans whatever its relations have grown to.
    planned_card: Vec<u64>,
    /// Transitive-closure kernel invocations (runtime-only).
    tc_hits: u64,
    /// Instantiations enumerated inside the kernel (runtime-only).
    tc_rows: u64,
}

impl Materialization {
    /// Materializes `program` over an empty database (seed rules fire;
    /// everything else waits for [`Materialization::apply`]).
    /// Justifications are recorded, so retraction is available.
    pub fn new(program: &Program, strategy: Strategy) -> Self {
        Self::from_database(program, &Database::new(), strategy)
    }

    /// Materializes `program` over `db`: bulk-loads the EDB facts and
    /// runs them to fixpoint once — the exact code path of
    /// [`crate::eval::evaluate`] — then stands ready to absorb updates.
    /// Justifications are recorded, so retraction is available.
    pub fn from_database(program: &Program, db: &Database, strategy: Strategy) -> Self {
        Self::batch(program, db, strategy, true, OrderMode::Planned)
    }

    /// [`Materialization::from_database`] under an explicit
    /// [`OrderMode`] — the order-independence test hook
    /// ([`OrderMode::Shuffled`]), which the store's plans and rescue
    /// plans, and those a restore recompiles, follow.
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
    /// The build is the store's first update round: the loaded EDB is
    /// settled, every rule is seeded as an added one is, and the resume
    /// runs every later round exactly as an update's.
    pub(crate) fn batch(
        program: &Program,
        db: &Database,
        strategy: Strategy,
        record: bool,
        order: OrderMode,
    ) -> Self {
        let mut m = Self::build(program, db, strategy, record, order, None);
        let mut staging = Staging::default();
        m.seed_rules(0, &mut staging);
        m.run_fixpoint(&mut staging, None);
        m
    }

    /// The one store every other starts from — a build's, a template
    /// store's, a restored one's: no relation, rule, row or index, every
    /// counter zero, the default compaction policy and no justification
    /// store. Runtime-only fields are zero in every store by this.
    fn empty(strategy: Strategy, goal: Atom, order: OrderMode) -> Self {
        Self {
            rels: Vec::new(),
            idxs: Vec::new(),
            plans: Arc::default(),
            idb_flag: Vec::new(),
            pred_of_rel: Vec::new(),
            rel_of_pred: FxHashMap::default(),
            old_hi: Vec::new(),
            prov: None,
            stats: EvalStats::default(),
            strategy,
            goal,
            rules: Vec::new(),
            idx_of: FxHashMap::default(),
            rederive: Vec::new(),
            rule_active: Vec::new(),
            epoch: 0,
            rev: RevIndex::default(),
            comp: Vec::new(),
            policy: Some(CompactionPolicy::default()),
            compactions: 0,
            version: 0,
            edb_retracts: 0,
            last_retracted: Vec::new(),
            dred_reads: 0,
            ext: ExtLinks::default(),
            order,
            planned_card: Vec::new(),
            tc_hits: 0,
            tc_rows: 0,
        }
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
        let mut m = Self {
            prov: record.then(Vec::new),
            ..Self::empty(strategy, program.goal.clone(), order)
        };

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
        let body_preds = program.rules.iter().flat_map(|r| &r.body).map(|a| (a.pred, false));
        for (p, idb) in idbs.iter().map(|&p| (p, true)).chain(body_preds) {
            if !m.rel_of_pred.contains_key(&p) {
                m.intern_new_rel(p, *arity.get(&p).unwrap_or(&0), idb);
            }
        }

        // Load EDB facts as settled rows, as a restore loads a relation:
        // below the watermarks, like the facts of a store at fixpoint, and
        // with no dedup table until the first write (a set holds no
        // duplicate). Facts the database holds for IDB predicates are
        // ignored, as in the reference evaluator.
        for (p, r) in db.iter() {
            if idbs.contains(&p) {
                continue;
            }
            if let Some(rid) = m.rel_of_pred.get(&p).map(|&r| r as usize) {
                let mut data = Vec::with_capacity(r.len() * r.arity());
                r.iter().for_each(|t| data.extend_from_slice(t));
                m.rels[rid] = ColumnarRelation::from_settled(r.arity(), data, r.len(), Vec::new());
                m.old_hi[rid] = r.len();
            }
        }

        // Plan + compile rules; register one index per (relation, mask).
        // Cardinalities are the live row counts after the EDB load (IDB
        // relations are still empty). Every plan's indexes are registered
        // now, and the first round that probes one fills it.
        m.planned_card = m.rels.iter().map(|r| r.num_live() as u64).collect();
        m.rules = program.rules.clone();
        m.rule_active = vec![true; m.rules.len()];
        m.compile_plans(order_by);
        m
    }

    /// The program's IDB predicates, as the rescue-plan compiler takes
    /// them.
    pub(crate) fn idb_preds(&self) -> Vec<Pred> {
        self.idb_rels().map(|r| self.pred_of_rel[r as usize]).collect()
    }

    /// Dense ids of the program's IDB relations, ascending.
    pub(crate) fn idb_rels(&self) -> impl Iterator<Item = u32> + '_ {
        (0..).zip(&self.idb_flag).filter_map(|(r, &idb)| idb.then_some(r))
    }

    /// The arity of `pred`'s relation if `pred` is one of the program's
    /// IDB predicates, as the query cache routes goals by it: a scan of
    /// the relations' IDB flags, which hashes and allocates nothing.
    pub(crate) fn idb_arity(&self, pred: Pred) -> Option<usize> {
        let r = self.idb_rels().find(|&r| self.pred_of_rel[r as usize] == pred)?;
        Some(self.rels[r as usize].arity())
    }

    /// Compiles the plans of every rule slot that has none yet (all of
    /// them at construction and restore, the new slot after a rule add)
    /// under the persisted build-time cardinalities, one per body atom,
    /// and — in a store that records justifications — its rescue plan,
    /// registering the indexes they probe; then recomputes the rule
    /// graph's components over every slot. `order_by` as in
    /// [`Materialization::build`]; the rescue plan is ordered by the same
    /// rule.
    fn compile_plans(&mut self, order_by: Option<&[Rule]>) {
        let idbs = self.idb_preds();
        let record = self.prov.is_some();
        let (rel_of_pred, planned_card) = (&self.rel_of_pred, &self.planned_card);
        let mut card = |p: Pred| rel_of_pred.get(&p).map_or(0, |&r| planned_card[r as usize]);
        let plans = Arc::make_mut(&mut self.plans);
        for (i, rule) in self.rules.iter().enumerate().skip(plans.len()) {
            // A rule id is a `u32` from the slot that allocates it on.
            let id = u32::try_from(i).expect("rule ids are u32");
            let order_by = order_by.map_or(rule, |o| &o[i]);
            let (idxs, idx_of) = (&mut self.idxs, &mut self.idx_of);
            let rule_plans = plan_rule(
                rule,
                order_by,
                id,
                rel_of_pred,
                idxs,
                idx_of,
                self.order,
                &mut card,
            );
            if record {
                self.rederive.push(plan_rescue(
                    rule,
                    order_by,
                    id,
                    &idbs,
                    rel_of_pred,
                    idxs,
                    idx_of,
                    self.order,
                    &mut card,
                ));
            }
            plans.push(rule_plans);
        }
        self.comp = components(self.rels.len(), &self.plans);
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
    pub(crate) fn order_mode(&self) -> OrderMode {
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
        self.dump(true, None)
    }

    /// Every tracked relation — the stored EDB facts *and* the IDB model
    /// — as a [`Database`] (live rows only). This is the store the
    /// retract-restores-the-store tests compare bit-for-bit.
    pub fn database(&self) -> Database {
        self.dump(false, None)
    }

    /// The rows of every tracked relation — or (`idb_only`) of the
    /// program's IDB relations alone — as a [`Database`]; `pin` as in
    /// [`Materialization::select`].
    fn dump(&self, idb_only: bool, pin: Option<(&[usize], u64)>) -> Database {
        let mut out = Database::new();
        let visible = pin.map_or(self.rels.len(), |(frontier, _)| frontier.len());
        for (r, rel) in self.rels.iter().enumerate().take(visible) {
            if idb_only && !self.idb_flag[r] {
                continue;
            }
            let rows = match pin {
                None => Relation::from_rows(rel.arity(), rel.rows_iter()),
                Some((frontier, epoch)) => {
                    Relation::from_rows(rel.arity(), rel.rows_iter_at(frontier[r], epoch))
                }
            };
            out.set_relation(self.pred_of_rel[r], rows);
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
    /// relations interned after the pin are invisible. A goal of another
    /// arity than its predicate's relation matches no row.
    fn select(&self, goal: &Atom, idb_only: bool, pin: Option<(&[usize], u64)>) -> Relation {
        let (ops, nvars) = eval::goal_plan(goal);
        let rid = self.rel_of_pred.get(&goal.pred).map(|&r| r as usize);
        let rid = rid.filter(|&r| self.rels[r].arity() == goal.arity());
        match (rid.filter(|&r| !idb_only || self.idb_flag[r]), pin) {
            (Some(r), None) => eval::select_project(&ops, nvars, self.rels[r].rows_iter()),
            (Some(r), Some((frontier, epoch))) if r < frontier.len() => {
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
            .map_or(0, |&r| self.rels[r as usize].num_live())
    }

    /// A snapshot of the recorded provenance (one justification per
    /// derived live row), valid for the current state — justifications
    /// recorded before an update stay valid afterwards because row ids
    /// never move. The [`Provenance`] holds a clone of this whole store:
    /// rows, justifications, join indexes and the reverse index, with
    /// the plans shared behind their `Arc` — O(store) time and memory.
    pub fn provenance(&self) -> Provenance {
        Provenance::new(self.clone())
    }

    // -----------------------------------------------------------------
    // Updates
    // -----------------------------------------------------------------

    /// Applies one batched update round — EDB inserts and retracts plus
    /// rule adds and drops — as a single mixed batch: **one** deletion
    /// walk of the persistent reverse-dependency index, one rescue pass,
    /// one semi-naive resume to fixpoint. Equivalent to any
    /// sequential order of the corresponding single-item rounds whenever
    /// the round's insert and retract sets don't overlap (a tuple both
    /// retracted and inserted in one round ends up present: retracts
    /// apply first). This is the store's one write: a single insert or
    /// rule drop is a round holding just that item, and the returned
    /// [`RoundReport`] says what the round did — the novel rows stored,
    /// the rows actually removed, the rules dropped and the slot the
    /// first added rule got.
    ///
    /// The phases, in order:
    ///
    /// 1. **Rule drops** deactivate their plan slots; live rows whose
    ///    recorded justification names a dropped rule become deletion
    ///    seeds *and* rescue candidates (another rule may still derive
    ///    them).
    /// 2. **Rule adds** compile to fresh plan slots (stable
    ///    [`RuleId`]s) and rescue plans. A brand-new head predicate
    ///    becomes a fresh IDB relation; new body predicates become fresh
    ///    (empty, trackable) EDB relations. Every index is then brought
    ///    up to the settled store — those a restore or the adds
    ///    registered start empty — so the checks and rescues read it
    ///    whole.
    /// 3. **Retracts** tombstone their EDB rows; one deletion walk for
    ///    *all* seeds (drops + retracts) follows the persistent
    ///    reverse-dependency index — O(affected rows). A live row it
    ///    reaches through a dying row of its current justification runs
    ///    its rescue plans first (phase 6's passes, over the store as
    ///    the walk has left it). A derivation as long as the recorded
    ///    one, whose IDB rows are each a lower row of the row's own
    ///    relation or a row of another strongly connected component of
    ///    the rule graph (`dred.rs`), **saves** it: same row id,
    ///    justification overwritten, and the walk does not descend from
    ///    it. Any other derivation kills it and makes it a rescue
    ///    candidate; none kills it for good — the walk only shrinks the
    ///    store, and phase 7 joins what the round adds.
    /// 4. **Inserts** append novel EDB rows — into the delta range, the
    ///    watermarks still sit at the old fixpoint.
    /// 5. Added rules **seed** their deltas with one full-range
    ///    evaluation pass each over the settled store, entering through
    ///    the atom the planner picks first — as every rule of a build is
    ///    seeded.
    /// 6. The candidates — rule-drop seeds and the rows phase 3 refused
    ///    to save — are **rescued** by goal-directed one-step
    ///    re-derivation against the surviving active rules (added rules
    ///    participate, dropped rules don't). Each rule's
    ///    rescue plan binds the head from the candidate and enters the
    ///    body through the atom with the smallest fan-in — `par(Z, y)`,
    ///    not `anc(x, Z)` — testing fully bound atoms against the dedup
    ///    tables ([`crate::plan`]), so the phase costs O(candidates ×
    ///    fan-in): the order of the insert round that derived the rows.
    ///    The plan runs through the round's join as one pass that stops
    ///    at its first derivation, and one merge appends what the passes
    ///    staged, in candidate order.
    /// 7. One semi-naive resume propagates every delta — inserted,
    ///    seeded and rescued rows — to the new fixpoint. The reverse
    ///    index sheds the edges saves left stale once they are a tenth
    ///    of it, whatever the compaction policy, without moving a row.
    /// 8. The store **compacts** ([`Materialization::compact`]) if the
    ///    policy holds at the new fixpoint. A round a
    ///    [`crate::server::Server`] runs stops before this phase: the
    ///    server compacts once no snapshot is pinned.
    ///
    /// # Panics
    ///
    /// On tuple/relation arity mismatches, and if an added rule is not
    /// range-restricted or its head predicate is a stored EDB relation
    /// of this materialization — **before the first mutation**: the
    /// whole round is checked up front and the store left as it was.
    pub fn apply(&mut self, round: &UpdateRound) -> RoundReport {
        if let Err(e) = self.check_round(round) {
            panic!("{e}");
        }
        let report = self.apply_checked(round, None);
        // The store compacts itself at the new fixpoint when the policy
        // trips; a server defers that to the last unpin instead.
        if self.needs_compaction() {
            self.compact();
        }
        report
    }

    /// [`Materialization::apply`] minus the check and the compaction:
    /// `round` has passed [`Materialization::check_round`] against this
    /// very store. With `epoch`, the round is the one a server publishes
    /// as that epoch: the store records it ([`Materialization::epoch`])
    /// and the round's tombstones carry it, for the readers pinned
    /// before it. Without, they carry no tag.
    pub(crate) fn apply_checked(&mut self, round: &UpdateRound, epoch: Option<u64>) -> RoundReport {
        let mut report = RoundReport::default();
        if let Some(epoch) = epoch {
            self.epoch = epoch;
        }

        // A just-built or just-restored store defers the O(rows)
        // dedup-table builds to here, its first write — the staging
        // existence probes below consult those tables.
        self.ensure_dedup();

        // 1. Rule drops: deactivate, then seed the deletion walk with
        // every live row justified by a dropped rule. Unlike EDB retract
        // seeds these are rescue candidates — the tuples may well survive
        // via other rules.
        let mut dropped: Vec<u32> = Vec::new();
        for &RuleId(id) in &round.rule_drops {
            let i = id as usize;
            if i < self.plans.len() && self.rule_active[i] {
                self.rule_active[i] = false;
                dropped.push(id);
                report.rules_dropped += 1;
            }
        }

        // 2. Rule adds: compile to fresh stable slots, the first at the
        // slot past every one ever allocated. Seeding waits until the
        // round's EDB changes have settled (phase 5).
        let first_new_plan = self.plans.len();
        report.first_rule = RuleId(self.plans.last().map_or(0, |p| p[0].rule + 1));
        for rule in &round.rule_adds {
            self.compile_added_rule(rule);
            report.rules_added += 1;
        }
        // The walk's checks and the rescue read every index: fill those
        // a restore or this round's rule adds registered (the dedup
        // tables were rebuilt at the head).
        self.extend_indexes();

        let mut worklist: Vec<(u32, u32)> = Vec::new();
        let mut candidates: Vec<(u32, u32)> = Vec::new();
        if !dropped.is_empty() {
            let prov = self
                .prov
                .as_ref()
                .expect("Materialization always records justifications");
            let mut seeds: Vec<(u32, u32)> = Vec::new();
            for hrel in self.idb_rels() {
                let (rel, just) = (&self.rels[hrel as usize], &prov[hrel as usize]);
                for hrow in rel.row_ids(..) {
                    if rel.is_live(hrow) && dropped.contains(&just.entry(hrow).0) {
                        seeds.push((hrel, hrow));
                    }
                }
            }
            for &(srel, srow) in &seeds {
                if self.rels[srel as usize].tombstone_at(srow as usize, epoch) {
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
            if self.idb_flag[rid as usize] {
                continue;
            }
            let rel = &mut self.rels[rid as usize];
            let r = rel.find_row(t);
            if r != NO_ROW && rel.tombstone_at(r as usize, epoch) {
                worklist.push((rid, r));
                self.last_retracted.push((rid, r));
                report.retracted += 1;
            }
        }

        // Walk everything whose recorded justification transitively
        // uses a seed: a row with a derivation through rows that rank
        // below it is saved, the rest die; those with a refused
        // derivation are rescue candidates.
        self.over_delete(worklist, Some(&mut candidates), epoch, None);

        // 4. EDB inserts: novel rows land above the watermarks (the
        // fixpoint's row counts), i.e. in the delta ranges.
        for (pred, t) in &round.inserts {
            let Some(&rid) = self.rel_of_pred.get(pred) else {
                continue;
            };
            if self.idb_flag[rid as usize] {
                continue;
            }
            if self.rels[rid as usize].insert(t) {
                report.inserted += 1;
            }
        }

        // 5. Seed added rules: one full-range pass each over the settled
        // store. The merged rows also land in the delta ranges, so the
        // final resume chains everything — a second added rule reading
        // the first one's head catches up there.
        let mut staging = Staging::default();
        if first_new_plan < self.plans.len() {
            self.seed_rules(first_new_plan, &mut staging);
        }

        // 6. Rescue: re-derive the candidates from the remaining store.
        // Its indexes cover the settled rows (phase 2), the dedup tables
        // and scans phases 4 and 5's rows too; a derivation through one
        // of those that an indexed step misses, the resume finds. The
        // watermarks still sit at the old fixpoint, so every rescued
        // insert lands in the delta range and phase 7 propagates it.
        self.rescue(&candidates, None);

        // 7. Propagate every delta — inserted, seeded and rescued rows —
        // through the normal update machinery to the new fixpoint.
        self.run_fixpoint(&mut staging, None);
        self.shed_stale_edges();
        self.version = self.version.wrapping_add(1);
        self.edb_retracts += report.retracted as u64;
        report
    }

    /// Checks a whole round before `apply` touches the store: every added
    /// rule range-restricted, its head not a stored EDB relation, each of
    /// its atoms at the arity the store — or an earlier atom of the
    /// round's rules, in [`Materialization::compile_added_rule`]'s
    /// interning order — gives the predicate; every insert and retract
    /// tuple at the arity of the relation it will land in. One read-only
    /// pass, no allocation on a fact-only round.
    pub(crate) fn check_round(&self, round: &UpdateRound) -> Result<(), String> {
        // The relations the round's rules will intern: (pred, arity, idb).
        let mut fresh: Vec<(Pred, usize, bool)> = Vec::new();
        let known = |fresh: &[(Pred, usize, bool)], p: Pred| match self.rel_of_pred.get(&p) {
            Some(&r) => Some((self.rels[r as usize].arity(), self.idb_flag[r as usize])),
            None => fresh.iter().find(|f| f.0 == p).map(|f| (f.1, f.2)),
        };
        let mismatch = |got: usize, arity: usize| {
            Err(format!("tuple arity mismatch: {got} arguments for a relation of arity {arity}"))
        };
        for rule in &round.rule_adds {
            if !rule.is_safe() {
                return Err("added rule is unsafe: a head variable is not bound in its body".into());
            }
            for (k, a) in std::iter::once(&rule.head).chain(&rule.body).enumerate() {
                match known(&fresh, a.pred) {
                    Some((_, false)) if k == 0 => {
                        return Err("added rule's head must not be a stored EDB relation \
                                    (the IDB/EDB partition is fixed at construction)"
                            .into());
                    }
                    Some((arity, _)) if arity != a.arity() => return mismatch(a.arity(), arity),
                    Some(_) => {}
                    None => fresh.push((a.pred, a.arity(), k == 0)),
                }
            }
        }
        for (pred, t) in round.retracts.iter().chain(&round.inserts) {
            // `apply` skips facts of untracked and IDB predicates.
            match known(&fresh, *pred) {
                Some((arity, false)) if arity != t.len() => return mismatch(t.len(), arity),
                _ => {}
            }
        }
        Ok(())
    }

    /// Compiles one added rule into a fresh plan slot, interning any
    /// brand-new predicates (head → fresh IDB relation, body → fresh
    /// EDB relations). [`Materialization::check_round`] has vouched for
    /// the rule.
    fn compile_added_rule(&mut self, rule: &Rule) {
        for (k, a) in std::iter::once(&rule.head).chain(&rule.body).enumerate() {
            if !self.rel_of_pred.contains_key(&a.pred) {
                self.intern_new_rel(a.pred, a.arity(), k == 0);
            }
        }
        self.rules.push(rule.clone());
        self.rule_active.push(true);
        self.compile_plans(None);
    }

    /// Interns a relation for a predicate the store does not track yet
    /// (at construction, or first seen in an added rule).
    fn intern_new_rel(&mut self, pred: Pred, arity: usize, idb: bool) {
        // A relation id is a `u32` from the slot that allocates it on.
        let r = u32::try_from(self.rels.len()).expect("relation ids are u32");
        self.rels.push(ColumnarRelation::new(arity));
        self.pred_of_rel.push(pred);
        self.rel_of_pred.insert(pred, r);
        self.idb_flag.push(idb);
        self.old_hi.push(0);
        self.planned_card.push(0);
        if let Some(prov) = &mut self.prov {
            prov.push(RelJust::default());
        }
    }

    // -----------------------------------------------------------------
    // Rule-slot and serving-layer state
    // -----------------------------------------------------------------

    /// The active rules, as `(id, rule)` in slot order. Slot order is
    /// program order at construction followed by add order, so a
    /// [`Program`] whose `rules` vector lists every rule ever held (in
    /// that order, dropped ones included) aligns with the recorded
    /// justifications for [`Provenance::check`].
    pub(crate) fn active_rules(&self) -> Vec<(RuleId, &Rule)> {
        let slots = self.plans.iter().zip(&self.rules).zip(&self.rule_active);
        slots.filter(|&(_, &active)| active).map(|((p, r), _)| (RuleId(p[0].rule), r)).collect()
    }

    /// Whether `id` names an active rule.
    pub fn is_rule_active(&self, id: RuleId) -> bool {
        (id.0 as usize) < self.rule_active.len() && self.rule_active[id.0 as usize]
    }

    /// `(rule slots, active rules)`, dropped slots included in the first.
    /// Slots are never reused and a dropped rule never returns, so the
    /// pair moves with every rule change: a template store of the query
    /// cache keeps the pair it was compiled under, not the rules.
    pub(crate) fn rule_shape(&self) -> (usize, usize) {
        (self.rule_active.len(), self.rule_active.iter().filter(|&&a| a).count())
    }

    /// Drops tombstone tags at or below `min_epoch` (no reader pinned
    /// there any more) — compaction-free reclamation.
    pub(crate) fn reclaim_epochs(&mut self, min_epoch: u64) {
        for rel in &mut self.rels {
            rel.reclaim_tombstones(min_epoch);
        }
    }

    /// The epoch of the last round a [`crate::server::Server`] ran on
    /// this store — the epoch it published — or the one it was restored
    /// at; 0 for a store no server has written. A round through
    /// [`Materialization::apply`] leaves it as it is.
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
        self.dump(false, Some((frontier, epoch)))
    }

    /// [`Materialization::idb_database`] as of a pinned snapshot.
    pub(crate) fn idb_database_at(&self, frontier: &[usize], epoch: u64) -> Database {
        self.dump(true, Some((frontier, epoch)))
    }

    /// [`Materialization::answer`] as of a pinned snapshot.
    pub(crate) fn answer_at(&self, frontier: &[usize], epoch: u64) -> Relation {
        self.select(&self.goal, true, Some((frontier, epoch)))
    }

    /// [`Materialization::num_facts`] as of a pinned snapshot.
    pub(crate) fn num_facts_at(&self, pred: Pred, frontier: &[usize], epoch: u64) -> usize {
        match self.rel_of_pred.get(&pred) {
            Some(&r) if (r as usize) < frontier.len() => {
                self.rels[r as usize].rows_iter_at(frontier[r as usize], epoch).count()
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

    /// Rows the deletion walks of this store have read so far to find
    /// what to check or kill (runtime-only): one per reverse edge
    /// walked. A walk that reads only what it reaches through a dying row
    /// is O(affected).
    pub fn dred_reads(&self) -> u64 {
        self.dred_reads
    }

    /// Applies an arbitrary goal atom over the current live rows of its
    /// predicate — EDB or IDB. Unlike [`Materialization::answer`] this
    /// is not tied to the program's own goal; an untracked predicate,
    /// or a goal of another arity than its predicate's relation, yields
    /// the empty relation.
    pub fn answer_goal(&self, goal: &Atom) -> Relation {
        self.select(goal, false, None)
    }

    /// [`Materialization::answer_goal`] as of a pinned snapshot.
    pub(crate) fn answer_goal_at(&self, goal: &Atom, frontier: &[usize], epoch: u64) -> Relation {
        self.select(goal, false, Some((frontier, epoch)))
    }

    /// Whether relation `rel` is an external placeholder.
    fn is_external(&self, rel: usize) -> bool {
        self.ext.rels.get(rel).is_some_and(Option::is_some)
    }

    /// Rebuilds any dedup table a build or restore left stale
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
    /// ([`crate::plan::NO_INDEX`]): the join scans their row range directly.
    /// A template store's external slots hold empty placeholders, so
    /// only its own indexes grow; the base keeps its own current.
    fn extend_indexes(&mut self) {
        for idx in &mut self.idxs {
            idx.extend(&self.rels[idx.rel()]);
        }
    }

    // -----------------------------------------------------------------
    // Read-out (used by the thin eval wrappers)
    // -----------------------------------------------------------------

    /// Applies a goal directly over the columnar rows of the goal
    /// predicate (no intermediate `Database`).
    pub(crate) fn goal_answer(&self, goal: &Atom) -> Relation {
        self.select(goal, true, None)
    }

    pub(crate) fn into_result(self) -> EvalResult {
        EvalResult {
            idb: self.idb_database(),
            stats: self.stats,
        }
    }
}

#[cfg(test)]
mod tests;
