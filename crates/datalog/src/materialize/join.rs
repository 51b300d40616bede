//! The join kernel: one `(rule, delta atom)` pass over the frozen store
//! — the backtracking descent, or the transitive-closure kernel for
//! recognized plans — and the buffers it stages new heads into. A DRed
//! rescue is such a pass too, of an existential plan over the whole
//! store, which stops at its first full instantiation. A pass only
//! reads the store, so the passes of a round run concurrently.
//! `BENCHMARK.json`: `eval.join_probes.*`, `plan.tc_hits`, `plan.tc_rows`.

use super::Materialization;
use crate::ast::Const;
use crate::plan::{Action, KeyOp, Out, RulePlan, Step, NO_INDEX};
use crate::storage::{ColumnarRelation, IncrementalIndex, NO_ROW};

/// Reusable scratch buffers for one evaluation (no per-tuple allocation).
#[derive(Default)]
pub(super) struct Scratch {
    /// Rule-local slot environment. Values are garbage until a `Bind` or
    /// key-op write at the plan-determined depth; the plan guarantees
    /// every read happens after the corresponding write.
    pub(super) env: Vec<Const>,
    /// Probe-key buffer, refilled before every index probe.
    pub(super) key: Vec<Const>,
    /// Head-tuple buffer.
    pub(super) head: Vec<Const>,
    /// Row id matched at each join depth — the derivation coordinates.
    /// Maintained unconditionally (one word store per matched row); read
    /// only when provenance recording is on.
    pub(super) rows: Vec<u32>,
    /// Per-shard staged-head filter: head tuples already staged by this
    /// `(rule, delta, shard)` evaluation. Reset at every evaluation
    /// entry; [`stage_head`] asks it before the head relation, and it
    /// never affects counters or merge order.
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
///
/// It is the first dedup check a candidate head meets: a pass reads a
/// frozen store, and every entry was absent from that store when it was
/// staged, so an entry found here is a head the store cannot hold. The
/// set is small and hot where the head relation's dedup table is large
/// and cold, and most candidates of a dense closure repeat a head their
/// pass already staged.
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

    /// The empty slot `head` (with its memoized hash) would take, or
    /// `None` if an equal head was already staged this generation.
    /// `data` is the staging buffer earlier entries point into. The slot
    /// stays valid for [`claim`](Self::claim) while nothing else touches
    /// the set; the table grows here, so a claim never has to.
    fn vacancy(&mut self, head: &[Const], hash: u64, data: &[Const]) -> Option<usize> {
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = (hash as usize) & mask;
        loop {
            let s = self.slots[i];
            if s.gen != self.gen {
                return Some(i);
            }
            if s.hash == hash && &data[s.off as usize..s.off as usize + head.len()] == head {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Stages the head [`vacancy`](Self::vacancy) found `slot` for: its
    /// hash, and the offset `off` the caller appends it at in the staging
    /// buffer.
    fn claim(&mut self, slot: usize, hash: u64, off: usize) {
        let off = u32::try_from(off).expect("staging buffer overflow");
        self.slots[slot] = StagedSlot { gen: self.gen, hash, off };
        self.len += 1;
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
pub(super) struct PendingTuples {
    pub(super) data: Vec<Const>,
    pub(super) rels: Vec<u32>,
    /// The staged tuple's dedup hash ([`ColumnarRelation::hash_row`]),
    /// memoized at staging time so the merge's insert probes without
    /// re-hashing (one hash per tuple instead of two).
    pub(super) hash: Vec<u64>,
    /// Packed justifications, one `[rule, rows...]` entry per staged
    /// tuple (empty when recording is off).
    pub(super) just: Vec<u32>,
}

impl PendingTuples {
    /// Empties the buffer, keeping its capacity.
    pub(super) fn clear(&mut self) {
        self.data.clear();
        self.rels.clear();
        self.hash.clear();
        self.just.clear();
    }
}

/// Work counters for one rule-evaluation pass, with probes split at the
/// sharded depth. `pre` counts the depth-0 probe — work every parallel
/// shard repeats identically (each shard probes or scans its own
/// subrange of the first step exactly once), so only the lead shard's
/// `pre` enters [`crate::eval::EvalStats`]. `post` counts probes at
/// depth ≥ 1 — work partitioned by the first step's rows, summed across
/// shards.
#[derive(Clone, Copy, Debug, Default)]
pub(super) struct Counters {
    pub(super) pre: u64,
    pub(super) post: u64,
    /// Transitive-closure kernel invocations (observability only; never
    /// part of [`crate::eval::EvalStats`]).
    pub(super) tc_hits: u64,
    /// Full instantiations enumerated inside the kernel.
    pub(super) tc_rows: u64,
}

/// Which body atom carries the delta in one rule-evaluation pass, and
/// with it how every atom's snapshot range is chosen (`snapshot_range`).
#[derive(Clone, Copy, Debug, Default)]
pub(super) enum Delta {
    /// No delta: every atom reads its whole relation (a seeding pass —
    /// of a build's every rule, of an added rule — and a rescue).
    #[default]
    Full,
    /// The delta is at this **body position**; every atom, EDB
    /// included, follows the watermark convention in rule-text order.
    Atom(usize),
}

/// One rule-evaluation pass: rule slot `rule`, run on its plan `plan`
/// (an index into the slot's plans) with delta `delta`.
#[derive(Clone, Copy, Debug, Default)]
pub(super) struct Pass {
    pub(super) rule: usize,
    pub(super) plan: usize,
    pub(super) delta: Delta,
}

/// One parallel work item: the pass `pass` with the **first join step**
/// restricted to the row subrange `range`, staging into its own buffer.
/// `lead` marks the shard whose `pre` (depth-0) probe count is
/// accounted. Tasks are recycled across iterations so the staging and
/// scratch buffers keep their grown capacity instead of reallocating
/// every iteration.
#[derive(Default)]
pub(super) struct ShardTask {
    pub(super) pass: Pass,
    pub(super) range: (usize, usize),
    pub(super) lead: bool,
    pub(super) counters: Counters,
    pub(super) pending: PendingTuples,
    pub(super) scratch: Scratch,
}

impl Materialization {
    /// Evaluates one pass over the full first-step range (the
    /// sequential engines' unit of work).
    pub(super) fn eval_rule(
        &mut self,
        pass: Pass,
        scratch: &mut Scratch,
        pending: &mut PendingTuples,
        base: Option<&Materialization>,
    ) {
        let mut counters = Counters::default();
        self.eval_rule_shard(pass, None, scratch, pending, &mut counters, base);
        self.stats.join_probes += counters.pre + counters.post;
        self.tc_hits += counters.tc_hits;
        self.tc_rows += counters.tc_rows;
    }

    /// Evaluates one pass, the first join step optionally restricted to
    /// the row subrange `shard0` (the parallel engine's unit of work;
    /// `None` sequentially). The store is only read, so any number of
    /// shards may run concurrently; derived rows go to the caller's
    /// staging buffer and counters.
    pub(super) fn eval_rule_shard(
        &self,
        pass: Pass,
        shard0: Option<(usize, usize)>,
        scratch: &mut Scratch,
        pending: &mut PendingTuples,
        counters: &mut Counters,
        base: Option<&Materialization>,
    ) {
        let ctx = JoinCtx { slots: self.slots(base), delta: pass.delta, shard0 };
        join(&self.plans[pass.rule][pass.plan], &ctx, scratch, pending, counters);
    }

    /// The relations and indexes a pass reads: the store's own, and a
    /// template store's external ones off its `base`.
    pub(super) fn slots<'a>(&'a self, base: Option<&'a Materialization>) -> Slots<'a> {
        Slots { store: self, base }
    }
}

/// Runs one pass of `plan` under `ctx`, staging what it derives into
/// `pending`. The slots of `scratch.env` the plan reads before binding
/// them — a rescue plan's head slots — must be written. Returns whether
/// an existential plan found an instantiation (and stopped there).
pub(super) fn join(
    plan: &RulePlan,
    ctx: &JoinCtx<'_>,
    scratch: &mut Scratch,
    pending: &mut PendingTuples,
    counters: &mut Counters,
) -> bool {
    scratch.env.resize(plan.num_slots, Const(0));
    scratch.rows.resize(plan.steps.len(), 0);
    scratch.staged.begin();
    if plan.tc {
        tc_kernel(plan, ctx, scratch, pending, counters);
        false
    } else {
        descend(plan, 0, ctx, scratch, pending, counters)
    }
}

/// The one table a pass reads relations and indexes through, by the
/// store's slot ids: own slots from `store`, a template store's external
/// ones from `base`, as the store's links map them
/// (`materialize/template.rs`). A head relation is IDB, so always the
/// store's own.
#[derive(Clone, Copy)]
pub(super) struct Slots<'a> {
    store: &'a Materialization,
    base: Option<&'a Materialization>,
}

impl<'a> Slots<'a> {
    #[inline]
    pub(super) fn rel(self, r: usize) -> &'a ColumnarRelation {
        match (self.base, self.store.ext.rels.get(r)) {
            (Some(base), Some(&Some(b))) => &base.rels[b as usize],
            _ => &self.store.rels[r],
        }
    }

    #[inline]
    fn idx(self, i: usize) -> &'a IncrementalIndex {
        match (self.base, self.store.ext.idxs.get(i)) {
            (Some(base), Some(&Some(b))) => &base.idxs[b],
            _ => &self.store.idxs[i],
        }
    }
}

/// Borrowed engine state for one rule-evaluation pass.
pub(super) struct JoinCtx<'a> {
    pub(super) slots: Slots<'a>,
    /// The delta atom of this pass (and with it the range convention).
    pub(super) delta: Delta,
    /// Row-range restriction of the **first** join step (one shard of
    /// the parallel engine's depth-0 partition; `None` sequentially).
    pub(super) shard0: Option<(usize, usize)>,
}

impl JoinCtx<'_> {
    /// The row range the step at `depth` reads: its snapshot range
    /// ([`snapshot_range`]), which a parallel shard additionally
    /// restricts to its subrange at the first step (the subranges
    /// partition exactly that range).
    fn step_range(&self, plan: &RulePlan, depth: usize) -> (usize, usize) {
        match self.shard0 {
            Some(r) if depth == 0 => r,
            _ => snapshot_range(self.slots, plan, depth, self.delta),
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
/// "Before" is **body position**, whatever order the plan runs the
/// steps in: every delta position runs on the plan it leads, and by
/// step depth `anc(X,Z), anc(Z,Y)` — both plans delta-first — would
/// read the old part on both sides and lose every (Δ, Δ) combination.
pub(super) fn snapshot_range(
    slots: Slots<'_>,
    plan: &RulePlan,
    depth: usize,
    delta: Delta,
) -> (usize, usize) {
    let step = &plan.steps[depth];
    let rows = slots.rel(step.rel).num_rows();
    let Delta::Atom(k) = delta else { return (0, rows) };
    let old = slots.store.old_hi[step.rel];
    match plan.body_of_step[depth].cmp(&k) {
        std::cmp::Ordering::Less => (0, rows),
        std::cmp::Ordering::Equal => (old, rows),
        std::cmp::Ordering::Greater => (0, old),
    }
}

/// Builds the head tuple from the bound environment into `scratch.head`.
pub(super) fn build_head(plan: &RulePlan, scratch: &mut Scratch) {
    scratch.head.clear();
    for op in plan.head.iter() {
        scratch.head.push(match *op {
            Out::Const(c) => c,
            Out::Slot(s) => scratch.env[s],
        });
    }
}

/// The firing point: stages the fully-instantiated head unless the
/// per-shard staged-head filter has seen it or the head relation holds
/// it, asked in that order. The filter comes first because it is small
/// and hot, and sound first because the store is frozen for the pass:
/// a staged head was absent from it when staged, and still is. A head
/// the relation holds is not entered in the filter, so its repeats probe
/// the relation again. With provenance recording on, the matched row ids
/// are staged in **original rule-body order** via
/// [`RulePlan::step_of_body`], whatever order the steps ran in.
fn stage_head(
    plan: &RulePlan,
    ctx: &JoinCtx<'_>,
    scratch: &mut Scratch,
    pending: &mut PendingTuples,
) {
    build_head(plan, scratch);
    // One hash serves the staged filter, the existence probe, and — via
    // the staging buffer — the merge's insert.
    let hash = ColumnarRelation::hash_row(&scratch.head);
    // Only buffer tuples new to the pass and to the relation (the merge
    // dedups again; this keeps the pending buffer small) — but an
    // existential pass stages one head at most, and leaves both checks
    // to the merge.
    if !plan.existential {
        let Some(slot) = scratch.staged.vacancy(&scratch.head, hash, &pending.data) else {
            return;
        };
        if ctx.slots.store.rels[plan.head_rel as usize].contains_hashed(&scratch.head, hash) {
            return;
        }
        scratch.staged.claim(slot, hash, pending.data.len());
    }
    pending.data.extend_from_slice(&scratch.head);
    pending.rels.push(plan.head_rel);
    pending.hash.push(hash);
    if ctx.slots.store.prov.is_some() {
        // The justification, packed: this rule, then the row matched
        // for each body atom in rule-text order.
        pending.just.push(plan.rule);
        for &d in plan.step_of_body.iter() {
            pending.just.push(scratch.rows[d]);
        }
    }
}

/// Recursive backtracking join over the plan steps. Slots are bound by
/// overwriting (`Action::Bind`); no unbinding is needed on backtrack
/// because the plan guarantees every slot read happens at a depth after
/// its binding depth, and the next row at the binding depth overwrites.
/// Returns whether the search is over: an existential plan's first full
/// instantiation ends it.
fn descend(
    plan: &RulePlan,
    depth: usize,
    ctx: &JoinCtx<'_>,
    scratch: &mut Scratch,
    pending: &mut PendingTuples,
    counters: &mut Counters,
) -> bool {
    if depth == plan.steps.len() {
        stage_head(plan, ctx, scratch, pending);
        return plan.existential;
    }
    // Staged-head suffix pruning: once every head position is bound,
    // a head that already exists in the (frozen) head relation can
    // never stage anything — kill the whole remaining join suffix
    // before probing it. The check reads only frozen rows, so probe
    // counts stay identical at every thread and shard count.
    if depth == plan.head_ready_depth {
        build_head(plan, scratch);
        if ctx.slots.store.rels[plan.head_rel as usize].contains(&scratch.head) {
            return false;
        }
    }
    let step = &plan.steps[depth];
    let rel = ctx.slots.rel(step.rel);
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
        return rel.row_ids(lo..hi)
            .rev()
            .any(|r| match_row(plan, step, rel, r, depth, ctx, scratch, pending, counters));
    }

    if step.idx == NO_INDEX {
        // A full-key step: the dedup table holds the key's one live row,
        // if any (rows staged since the range was taken are not in it).
        fill_key(step, scratch);
        let r = rel.find_row(&scratch.key);
        return (lo..hi).contains(&(r as usize))
            && match_row(plan, step, rel, r, depth, ctx, scratch, pending, counters);
    }

    let idx = ctx.slots.idx(step.idx);
    // Single-column keys (one key op ⇔ one mask column) take the raw-
    // value fast path: no key buffer, no slice hash.
    let mut cur = if let &[op] = &*step.key {
        idx.probe1_range(rel, key_value(op, &scratch.env), lo, hi)
    } else {
        fill_key(step, scratch);
        idx.probe_range(rel, &scratch.key, lo, hi)
    };
    loop {
        let row = idx.next_match(&mut cur);
        if row == NO_ROW {
            return false;
        }
        if match_row(plan, step, rel, row, depth, ctx, scratch, pending, counters) {
            return true;
        }
    }
}

/// Writes the probe key of `step` into `scratch.key`, which deeper
/// levels are free to reuse once the probe is made.
fn fill_key(step: &Step, scratch: &mut Scratch) {
    scratch.key.clear();
    scratch.key.extend(step.key.iter().map(|&op| key_value(op, &scratch.env)));
}

/// The value key op `op` stands for under the slot environment `env`.
fn key_value(op: KeyOp, env: &[Const]) -> Const {
    match op {
        KeyOp::Const(c) => c,
        KeyOp::Slot(s) => env[s],
    }
}

/// Applies one matched row's bind/check actions and, if they pass,
/// descends to the next step. Returns whether the search is over
/// ([`descend`]). Tombstoned rows never match (index chains keep
/// addressing them, but they are no longer facts).
#[allow(clippy::too_many_arguments)]
fn match_row(
    plan: &RulePlan,
    step: &Step,
    rel: &ColumnarRelation,
    r: u32,
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
    scratch.rows[depth] = r;
    descend(plan, depth + 1, ctx, scratch, pending, counters)
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
    let rel0 = ctx.slots.rel(step0.rel);
    let rel1 = ctx.slots.rel(step1.rel);
    let idx1 = ctx.slots.idx(step1.idx);
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
    for r in rel0.row_ids(lo0..hi0).rev() {
        if !rel0.is_live(r) {
            continue;
        }
        scratch.env[aslot] = rel0.value(r, apos);
        scratch.env[bslot] = rel0.value(r, bpos);
        scratch.rows[0] = r;
        counters.post += 1;
        // `tc_shape` guarantees a single-column key: raw-value probe,
        // no key buffer.
        let mut cur = idx1.probe1_range(rel1, scratch.env[kslot], lo1, hi1);
        loop {
            let row = idx1.next_match(&mut cur);
            if row == NO_ROW {
                break;
            }
            if rel1.is_live(row) {
                scratch.env[cslot] = rel1.value(row, cpos);
                scratch.rows[1] = row;
                counters.tc_rows += 1;
                stage_head(plan, ctx, scratch, pending);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{PendingTuples, StagedSet};
    use crate::ast::Const;
    use crate::storage::ColumnarRelation;

    /// Stages `head` the way [`super::stage_head`] does, minus the store
    /// probe: returns whether it was new.
    fn stage(set: &mut StagedSet, pending: &mut PendingTuples, head: &[Const]) -> bool {
        let hash = ColumnarRelation::hash_row(head);
        let Some(slot) = set.vacancy(head, hash, &pending.data) else {
            return false;
        };
        set.claim(slot, hash, pending.data.len());
        pending.data.extend_from_slice(head);
        true
    }

    /// Whether `head` probes as staged (the probe may grow the table,
    /// never stage).
    fn staged(set: &mut StagedSet, pending: &PendingTuples, head: &[Const]) -> bool {
        let hash = ColumnarRelation::hash_row(head);
        set.vacancy(head, hash, &pending.data).is_none()
    }

    fn head(a: u32, b: u32) -> [Const; 2] {
        [Const(a), Const(b)]
    }

    #[test]
    fn a_vacancy_is_only_staged_once_claimed() {
        let mut set = StagedSet::default();
        let mut pending = PendingTuples::default();
        set.begin();
        let h = head(1, 2);
        assert!(!staged(&mut set, &pending, &h), "a new head is a vacancy");
        assert_eq!(set.len, 0, "probing stages nothing");
        assert!(stage(&mut set, &mut pending, &h));
        assert!(staged(&mut set, &pending, &h), "after the claim it is staged");
        assert!(!stage(&mut set, &mut pending, &h), "and is not staged twice");
        assert!(!staged(&mut set, &pending, &head(2, 1)), "another head is still a vacancy");
        assert_eq!(set.len, 1);
    }

    #[test]
    fn begin_empties_the_set_without_touching_its_slots() {
        let mut set = StagedSet::default();
        let mut pending = PendingTuples::default();
        set.begin();
        for a in 0..5 {
            assert!(stage(&mut set, &mut pending, &head(a, a)));
        }
        let stamps = |set: &StagedSet| -> Vec<_> {
            set.slots.iter().map(|s| (s.gen, s.hash, s.off)).collect()
        };
        let before = stamps(&set);
        set.begin();
        assert_eq!(set.len, 0);
        assert_eq!(stamps(&set), before, "the reset is a generation bump, not a clear");
        for a in 0..5 {
            assert!(!staged(&mut set, &pending, &head(a, a)), "last generation's head {a}");
        }
    }

    #[test]
    fn growth_reseats_every_entry() {
        let mut set = StagedSet::default();
        let mut pending = PendingTuples::default();
        set.begin();
        let heads: Vec<_> = (0..1_000).map(|i| head(i / 7, i % 7 + 100)).collect();
        for h in &heads {
            assert!(stage(&mut set, &mut pending, h));
        }
        assert!(set.slots.len() > 16, "the table grew past its first size");
        assert_eq!(set.len, heads.len());
        for h in &heads {
            assert!(staged(&mut set, &pending, h), "{h:?} survives every growth");
            assert!(!stage(&mut set, &mut pending, h));
        }
        assert_eq!(pending.data.len(), 2 * heads.len(), "no head was staged twice");
    }

    #[test]
    fn a_wrapped_generation_sees_no_stale_slot() {
        let mut set = StagedSet::default();
        let mut pending = PendingTuples::default();
        // Generation 1 stages `old`; its slot keeps the stamp 1.
        set.begin();
        let old = head(3, 4);
        assert!(stage(&mut set, &mut pending, &old));
        // The last generation before the counter wraps.
        set.gen = u32::MAX;
        set.len = 0;
        assert!(stage(&mut set, &mut pending, &head(5, 6)));
        // Wrapping restarts at generation 1: the stamp `old` carries.
        set.begin();
        assert_eq!(set.gen, 1);
        assert!(set.slots.iter().all(|s| s.gen == 0), "the wrap clears every slot");
        assert!(!staged(&mut set, &pending, &old), "a stale slot aliased the new generation");
        assert!(!staged(&mut set, &pending, &head(5, 6)));
        assert!(stage(&mut set, &mut pending, &old));
    }
}
