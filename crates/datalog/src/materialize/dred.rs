//! Delete–rederive: the reverse-dependency index over the recorded
//! justifications, over-deletion along it, and the rescue of what
//! another derivation still supports, through the selectivity-ordered
//! rescue plans of [`crate::plan`]. `BENCHMARK.json`:
//! `materialize.probes_per_retract_round`,
//! `materialize.rows_killed_per_round`, `materialize.rederive_ratio`.

use super::join::{build_head, Scratch};
use super::Materialization;
use crate::ast::{Const, Pred, Rule};
use crate::hash::FxHashMap;
use crate::plan::{plan_rescue, Action, KeyOp, Out, RulePlan, NO_INDEX};
use crate::storage::{ColumnarRelation, IncrementalIndex, NO_ROW};

/// Sentinel edge id: end of a reverse-dependency chain.
const NO_EDGE: u32 = u32::MAX;

/// One reverse-dependency edge: a head row whose recorded justification
/// uses the body row owning the chain, plus the next edge of that chain.
/// The head row's relation is recorded by runs ([`RevIndex::head_rel`]).
#[derive(Clone, Copy, Debug)]
struct RevEdge {
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
pub(super) struct RevIndex {
    /// Per relation: the newest edge of each row's chain.
    head: Vec<Chains>,
    /// The flat edge pool all chains thread through.
    edges: Vec<RevEdge>,
    /// The edges' head relations, by runs: `(first edge, relation)`,
    /// first edges ascending. A head row's edges are added together, and
    /// a build or a merge adds a relation's rows together, so a run
    /// covers many edges.
    runs: Vec<(u32, u32)>,
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
    pub(super) fn add(&mut self, brel: usize, brow: u32, hrel: u32, hrow: u32) {
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
        self.edges.push(RevEdge { hrow, next: *slot });
        *slot = id;
        if self.runs.last().is_none_or(|&(_, r)| r != hrel) {
            self.runs.push((id, hrel));
        }
    }

    /// The head relation of edge `e`: that of the last run starting at or
    /// before it.
    fn head_rel(&self, e: u32) -> u32 {
        self.runs[self.runs.partition_point(|&(first, _)| first <= e) - 1].1
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

    /// Words held (memory accounting; an edge and a sparse entry are two,
    /// a run two).
    pub(super) fn footprint_words(&self) -> usize {
        let heads: usize = self
            .head
            .iter()
            .map(|c| match c {
                Chains::Dense(chain) => chain.len(),
                Chains::Sparse(chain) => 2 * chain.len(),
            })
            .sum();
        2 * (self.edges.len() + self.runs.len()) + heads
    }
}

impl Materialization {
    /// Builds the reverse-dependency index from every live recorded
    /// justification: one full pass over the packed buffers.
    pub(super) fn build_rev_index(&self) -> RevIndex {
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
            runs: Vec::new(),
        };
        for &hrel in &self.idb_rels {
            for hrow in 0..self.rels[hrel].num_rows() {
                if !self.rels[hrel].is_live(hrow) {
                    continue;
                }
                let (rule, body) = prov[hrel].entry(hrow);
                for (k, &brow) in body.iter().enumerate() {
                    let brel = self.plans[rule as usize][0].body_rels[k];
                    rev.add(brel, brow, hrel as u32, hrow as u32);
                }
            }
        }
        rev
    }

    /// Compiles the rescue plan of every rule slot that has none yet: all
    /// of them on the first call (the first retracting round of a base
    /// store, construction of a template store), the new slot after a
    /// rule add. Orders come from the persisted build-time
    /// cardinalities, so a restored store compiles the plans — and
    /// registers the indexes — of the live one. `order_by` as in
    /// [`Materialization::build`] (`None`: the store's own rules).
    pub(super) fn ensure_rederive_plans(&mut self, order_by: Option<&[Rule]>) {
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
            plans.push(plan_rescue(
                rule,
                order_by.map_or(rule, |o| &o[ri]),
                ri,
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
    pub(super) fn over_delete(
        &mut self,
        mut worklist: Vec<(u32, u32)>,
        candidates: &mut Vec<(u32, u32)>,
    ) {
        if worklist.is_empty() {
            return;
        }
        // Take the index out while tombstoning through `self.rels` (no
        // edges are added during over-deletion), building it on the
        // first over-deleting round; from then on every merge and
        // rescue appends its edges incrementally.
        let rev = self.rev.take().unwrap_or_else(|| {
            self.csr_builds += 1;
            self.build_rev_index()
        });
        let mut i = 0;
        while i < worklist.len() {
            let (drel, drow) = worklist[i];
            i += 1;
            let mut e = rev.chain(drel as usize, drow);
            while e != NO_EDGE {
                let RevEdge { hrow, next } = rev.edges[e as usize];
                let hrel = rev.head_rel(e);
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
    pub(super) fn rescue(&mut self, candidates: &[(u32, u32)]) {
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
            let rel = &mut self.rels[crel];
            // An added rule's seeding pass may have derived the tuple
            // again already; a second row would be a second fact.
            if !rel.insert(&scratch.head) {
                continue;
            }
            let hrow = (rel.num_rows() - 1) as u32;
            self.stats.rule_firings += 1;
            self.stats.tuples_derived += 1;
            let plan = &self.plans[rule as usize][0];
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
    /// in rule-text order, in `scratch.rows`, and a copy of `tuple` in
    /// `scratch.head`. Goal-directed: the tuple is written into the head
    /// slots up front, so the body join is keyed on them — and it is a
    /// candidate for the rule only if the head built back from those
    /// slots is the tuple, which checks the head's constants and
    /// repeated variables in one comparison.
    fn rederive_row(
        &self,
        rel: usize,
        tuple: &[Const],
        frontier: &[usize],
        scratch: &mut Scratch,
        probes: &mut u64,
    ) -> Option<u32> {
        let plans = self.rederive.as_ref().expect("compiled before rescue");
        for (rule, plan) in plans.iter().enumerate() {
            if plan.head_rel != rel || !self.rule_active[rule] {
                continue;
            }
            scratch.env.clear();
            scratch.env.resize(plan.num_slots, Const(0));
            for (op, &v) in plan.head.iter().zip(tuple) {
                if let Out::Slot(s) = *op {
                    scratch.env[s] = v;
                }
            }
            build_head(plan, scratch);
            if scratch.head != tuple {
                continue;
            }
            scratch.rows.clear();
            scratch.rows.resize(plan.steps.len(), 0);
            if rederive_descend(plan, 0, &self.rels, &self.idxs, frontier, scratch, probes) {
                return Some(rule as u32);
            }
        }
        None
    }
}

/// Backtracking search for **one** body instantiation of a rescue plan
/// over the live rows below `frontier`; the row matched for body atom
/// `k` lands in `scratch.rows[k]` whatever depth ran it. Returns on the
/// first success. Body depths are small (rule body length), so
/// recursion is fine here.
fn rederive_descend(
    plan: &RulePlan,
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
