//! Delete–rederive: the reverse-dependency index over the recorded
//! justifications, which a recording store carries from construction,
//! over-deletion along it, and the rescue of what another derivation
//! still supports. A rescue is a join pass like any other: the
//! selectivity-ordered rescue plan of [`crate::plan`] runs through
//! `join.rs` as one existential `(rule, candidate)` pass, and what the
//! passes find enters the store through `fixpoint.rs`'s merge, which
//! also appends the reverse edges. This file probes no index and
//! appends no row. `BENCHMARK.json`:
//! `materialize.probes_per_retract_round`,
//! `materialize.rows_killed_per_round`, `materialize.rederive_ratio`.

use super::join::{build_head, join, Counters, Delta, PendingTuples, Scratch};
use super::{id32, Materialization};
use crate::ast::{Const, Pred, Rule};
use crate::hash::FxHashMap;
use crate::plan::{plan_rescue, Out};

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
/// A recording store carries it from construction: every merged row —
/// a build's, an update's, a rescued one — appends one edge per body
/// position. A template store's chains over external relations are set
/// up sparse when it is linked to its base and when it starts over.
/// Edges are never removed — a chain may point at head rows that died
/// later; the traversal's `tombstone` call is a no-op on them, and
/// [`Materialization::compact`] and a restore rebuild the index from the
/// live justifications ([`Materialization::build_rev_index`]).
#[derive(Clone, Debug, Default)]
pub(super) struct RevIndex {
    /// Per relation: the newest edge of each row's chain.
    head: Vec<Chains>,
    /// The flat edge pool all chains thread through.
    edges: Vec<RevEdge>,
    /// The edges' head relations, by runs: `(first edge, relation)`,
    /// first edges ascending. A head row's edges are added together, and
    /// a rebuild — or one rule's pass in a merge — adds one relation's
    /// rows together, so a run covers many edges.
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
    /// row `body[k]` of relation `body_rels[k]`, for every `k`.
    pub(super) fn add_row(&mut self, hrel: u32, hrow: u32, body_rels: &[usize], body: &[u32]) {
        let first = u32::try_from(self.edges.len()).expect("reverse-index edge overflow");
        if !body.is_empty() && self.runs.last().is_none_or(|&(_, r)| r != hrel) {
            self.runs.push((first, hrel));
        }
        for (&brel, &brow) in body_rels.iter().zip(body) {
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
    /// justification: one full pass over the packed buffers, chains
    /// sparse over external relations.
    pub(super) fn build_rev_index(&self) -> RevIndex {
        let prov = self
            .prov
            .as_ref()
            .expect("Materialization always records justifications");
        let mut rev = RevIndex {
            head: (0..self.rels.len())
                .map(|i| {
                    if self.is_external(i) {
                        Chains::Sparse(FxHashMap::default())
                    } else {
                        Chains::Dense(Vec::new())
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
                let body_rels = &self.plans[rule as usize][0].body_rels;
                rev.add_row(id32(hrel), id32(hrow), body_rels, body);
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
    /// justifications, appending every row it kills to `candidates`: it
    /// walks the [`RevIndex`] chains of the seeds' closure, so the cost
    /// is O(affected rows), not O(total rows). Chains may hold stale
    /// edges to rows that died in earlier rounds (or to rows whose head
    /// re-inserted at a fresh id); `tombstone` of a dead row is a no-op,
    /// so they are skipped.
    pub(super) fn over_delete(
        &mut self,
        mut worklist: Vec<(u32, u32)>,
        candidates: &mut Vec<(u32, u32)>,
    ) {
        let Self { rev, rels, dred_reads, .. } = self;
        let mut i = 0;
        while i < worklist.len() {
            let (drel, drow) = worklist[i];
            i += 1;
            let mut e = rev.chain(drel as usize, drow);
            while e != NO_EDGE {
                let RevEdge { hrow, next } = rev.edges[e as usize];
                let hrel = rev.head_rel(e);
                *dred_reads += 1;
                if rels[hrel as usize].tombstone(hrow as usize) {
                    worklist.push((hrel, hrow));
                    candidates.push((hrel, hrow));
                }
                e = next;
            }
        }
    }

    /// DRed rescue: every over-deleted candidate that one active rule
    /// still derives from the live store is re-appended (a fresh row id
    /// in the delta range) with the derivation found as its recorded
    /// justification. Per candidate, each rule's rescue plan in slot
    /// order gets the tuple in its head slots — the rule can derive it
    /// only if the head built back from them is the tuple, which checks
    /// head constants and repeated variables — and runs as one
    /// existential [`join`] pass, until one finds a derivation. One merge
    /// appends what the passes staged — not a tuple a seeding pass
    /// derived again already — so no pass sees a row another rescued,
    /// whatever step kinds the planner chose; the resume derives
    /// whatever this misses from the rescued rows.
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
        let plans = self.rederive.as_ref().expect("compiled above");
        let mut scratch = Scratch::default();
        let mut pending = PendingTuples::default();
        let mut counters = Counters::default();
        for &(crel, crow) in candidates {
            let tuple = self.rels[crel as usize].row(crow as usize);
            for (rule, plan) in plans.iter().enumerate() {
                if plan.head_rel != crel as usize || !self.rule_active[rule] {
                    continue;
                }
                scratch.env.resize(plan.num_slots, Const(0));
                for (op, &v) in plan.head.iter().zip(tuple) {
                    if let Out::Slot(s) = *op {
                        scratch.env[s] = v;
                    }
                }
                build_head(plan, &mut scratch);
                if scratch.head != tuple {
                    continue;
                }
                let ctx = self.join_ctx(rule, Delta::Full, None);
                if join(plan, &ctx, &mut scratch, &mut pending, &mut counters) {
                    break;
                }
            }
        }
        self.stats.join_probes += counters.pre + counters.post;
        self.merge_pending(&mut pending);
    }
}
