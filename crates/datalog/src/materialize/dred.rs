//! Delete–rederive: the reverse-dependency index over the recorded
//! justifications, which a recording store carries from construction,
//! the deletion walk along it, and the rescue of what another derivation
//! still supports.
//!
//! The walk asks before it kills (the backward/forward idea of
//! Motik–Nenov–Piro–Horrocks, AAAI 2015): a live row it reaches through
//! a dying row runs its rescue plans on the spot. A derivation whose IDB
//! body rows all rank below the row, with a body as long as the recorded
//! one, **saves** it:
//! the row keeps its id, its justification is overwritten in place and
//! the walk does not descend from it. A derivation that fails the age or
//! length test leaves the row to be killed and rescued after the walk,
//! as a candidate; no derivation kills it for good, since the walk only
//! shrinks the live set and the round's resume joins whatever it adds.
//!
//! Age is what keeps two rows that support only each other from saving
//! each other, and it is read off the rule graph ([`components`]), the
//! dependency order of DRed (Gupta–Mumick–Subrahmanian 1993). A body
//! row ranks below its head if it is an EDB row, a row of the head's
//! relation at a lower row id, or a row of a relation in another
//! strongly connected component — which, since the head's rule reads
//! it, is a lower one that cannot read the head's relation back. Every
//! live justification then points down in (component, birth round,
//! relation, row): a merge's body rows are born in earlier rounds or
//! sit in lower components, a same-relation save points to a lower row
//! (born no later), a cross-component save to a lower component. So the
//! recorded derivations stay well-founded. A rule add that merges
//! components needs no special case: after it, a row born before the
//! add can be re-saved only within its relation or into another
//! component, so within its component it reaches only rows born before
//! the add, which the order before the add still ranks; rows born after
//! rank above those. A restored store recomputes the components from its
//! rules and makes exactly the live store's decisions.
//!
//! Both the check and the rescue are join passes like any other: the
//! selectivity-ordered rescue plan of [`crate::plan`] runs through
//! `join.rs` as one existential `(rule, row)` pass, and what a rescue
//! finds enters the store through `fixpoint.rs`'s merge, which also
//! appends the reverse edges. This file probes no index and appends no
//! row. `BENCHMARK.json`: `materialize.probes_per_retract_round`,
//! `materialize.rows_killed_per_round`, `materialize.rederive_ratio`.

use super::join::{build_head, join, Counters, Delta, PendingTuples, Scratch};
use super::{Materialization, RelJust};
use crate::ast::Const;
use crate::hash::FxHashMap;
use crate::plan::{Out, RulePlan};

/// Sentinel edge id: end of a reverse-dependency chain.
const NO_EDGE: u32 = u32::MAX;

/// The reverse index is rebuilt once the edges saves left stale are at
/// least this many…
const SHED_MIN_STALE_EDGES: usize = 64;
/// …and at least this share of its edges, in percent
/// ([`Materialization::shed_stale_edges`]). A rebuild re-adds every live
/// edge, so each stale edge pays for ten; a larger share lets stale
/// edges swell a save-heavy store. Edges, not rows: shedding moves no
/// row, so it is no compaction setting.
const SHED_STALE_PERCENT: usize = 10;

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
/// position, and so does every justification a deletion walk saves a
/// row with. A template store's chains over external relations are set
/// up sparse when it is linked to its base and when it starts over.
/// Edges are never removed, so a chain may point at head rows that died
/// later (the walk skips them) or at rows saved since, whose
/// justification no longer uses the chain's row (the walk checks them
/// like any row it reaches). The second kind is counted (`stale`):
/// once it reaches [`SHED_STALE_PERCENT`] of the edges, the round's end
/// rebuilds the index alone, whatever the compaction policy
/// ([`Materialization::shed_stale_edges`]) — row ids do not move, so
/// neither the cache nor a pinned reader notices.
/// [`Materialization::compact`] and a restore rebuild it too, from the
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
    /// Edges a save left behind: those of the justifications it
    /// overwrote.
    stale: usize,
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
    pub(super) fn add_row(&mut self, hrel: u32, hrow: u32, body_rels: &[u32], body: &[u32]) {
        let first = u32::try_from(self.edges.len()).expect("reverse-index edge overflow");
        if !body.is_empty() && self.runs.last().is_none_or(|&(_, r)| r != hrel) {
            self.runs.push((first, hrel));
        }
        for (&brel, &brow) in body_rels.iter().zip(body) {
            let brel = brel as usize;
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

    /// Whether an edge leaves `(brel, brow)`: after a rebuild, whether a
    /// live row's justification uses it.
    pub(super) fn has_dependents(&self, brel: u32, brow: u32) -> bool {
        self.chain(brel, brow) != NO_EDGE
    }

    /// The head relation of edge `e`: that of the last run starting at or
    /// before it.
    fn head_rel(&self, e: u32) -> u32 {
        self.runs[self.runs.partition_point(|&(first, _)| first <= e) - 1].1
    }

    /// The newest edge id of `(brel, brow)`'s chain.
    fn chain(&self, brel: u32, brow: u32) -> u32 {
        match self.head.get(brel as usize) {
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

/// The strongly connected components of the rule graph over `n`
/// relations — an edge from each rule slot's head relation to each of
/// its body relations, dropped slots included — as one id per relation,
/// numbered in Tarjan's completion order: a relation a rule reads is in
/// the rule head's component or in a lower one. Iterative, so a long
/// chain of relations cannot overflow the stack.
pub(super) fn components(n: usize, plans: &[Vec<RulePlan>]) -> Vec<u32> {
    const UNSEEN: u32 = u32::MAX;
    let mut reads: Vec<Vec<usize>> = vec![Vec::new(); n];
    for plan in plans.iter().map(|p| &p[0]) {
        reads[plan.head_rel as usize].extend(plan.body_rels.iter().map(|&b| b as usize));
    }
    let (mut index, mut low, mut comp) = (vec![UNSEEN; n], vec![0; n], vec![UNSEEN; n]);
    let (mut open, mut calls, mut next, mut done) = (Vec::new(), Vec::new(), 0, 0);
    for root in 0..n {
        if index[root] != UNSEEN {
            continue;
        }
        calls.push((root, 0));
        while let Some(&mut (v, ref mut k)) = calls.last_mut() {
            if index[v] == UNSEEN {
                (index[v], low[v]) = (next, next);
                next += 1;
                open.push(v);
            }
            if let Some(&w) = reads[v].get(*k) {
                *k += 1;
                if index[w] == UNSEEN {
                    calls.push((w, 0));
                } else if comp[w] == UNSEEN {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            calls.pop();
            if let Some(&(u, _)) = calls.last() {
                low[u] = low[u].min(low[v]);
            }
            if low[v] == index[v] {
                while let Some(w) = open.pop() {
                    comp[w] = done;
                    if w == v {
                        break;
                    }
                }
                done += 1;
            }
        }
    }
    comp
}

impl Materialization {
    /// Builds the reverse-dependency index from every live recorded
    /// justification: one full pass over the packed buffers, chains
    /// sparse over external relations. The edge pool and the dense
    /// chains are allocated once, for every recorded body row id and
    /// every row: no vector grows during the pass.
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
                        Chains::Dense(Vec::with_capacity(self.rels[i].num_rows()))
                    }
                })
                .collect(),
            edges: Vec::with_capacity(prov.iter().map(RelJust::body_len).sum()),
            runs: Vec::new(),
            stale: 0,
        };
        for &hrel in &self.idb_rels {
            let rel = &self.rels[hrel as usize];
            for hrow in rel.row_ids(..) {
                if !rel.is_live(hrow) {
                    continue;
                }
                let (rule, body) = prov[hrel as usize].entry(hrow);
                let body_rels = &self.plans[rule as usize][0].body_rels;
                rev.add_row(hrel, hrow, body_rels, body);
            }
        }
        rev
    }

    /// Rebuilds the reverse index alone — no row moves, so the query
    /// cache keeps its views and a pinned reader its rows — once the
    /// edges saves left stale reach [`SHED_MIN_STALE_EDGES`] and
    /// [`SHED_STALE_PERCENT`] of the edges. Called at the end of every
    /// round and template sync.
    pub(super) fn shed_stale_edges(&mut self) {
        let (stale, edges) = (self.rev.stale, self.rev.edges.len());
        if stale >= SHED_MIN_STALE_EDGES && stale * 100 >= SHED_STALE_PERCENT * edges {
            self.rev = self.build_rev_index();
        }
    }

    /// The deletion walk: takes the (already tombstoned) `worklist` rows
    /// and walks the [`RevIndex`] chains of everything that dies, so the
    /// cost is O(affected rows), not O(total rows). Returns the rows it
    /// killed.
    ///
    /// With `candidates`, a live row reached is checked first (module
    /// docs): saved, it stays; refused, it dies and is pushed to
    /// `candidates` for the rescue; underivable, it dies. A row reached
    /// through a stale edge — saved since through other rows — is
    /// checked like any other: saved again, or killed and, if refused,
    /// rescued, as plain DRed would. Without,
    /// every live row reached dies: the walk of a dropped view, whose
    /// rows have no derivation left by construction
    /// ([`Materialization::drop_tag`]).
    pub(super) fn over_delete(
        &mut self,
        mut worklist: Vec<(u32, u32)>,
        mut candidates: Option<&mut Vec<(u32, u32)>>,
    ) -> Vec<(u32, u32)> {
        let mut killed = Vec::new();
        if worklist.is_empty() {
            return killed;
        }
        let (mut scratch, mut pending) = (Scratch::default(), PendingTuples::default());
        let mut counters = Counters::default();
        let mut i = 0;
        while i < worklist.len() {
            let (drel, drow) = worklist[i];
            i += 1;
            let mut e = self.rev.chain(drel, drow);
            while e != NO_EDGE {
                let RevEdge { hrow, next } = self.rev.edges[e as usize];
                let h = (self.rev.head_rel(e), hrow);
                e = next;
                self.dred_reads += 1;
                if !self.rels[h.0 as usize].is_live(hrow) {
                    continue;
                }
                if let Some(candidates) = candidates.as_deref_mut() {
                    let found = self.derive(h, &mut scratch, &mut pending, &mut counters);
                    let saved = found && self.save_row(h, &pending.just);
                    pending.clear();
                    if saved {
                        continue;
                    }
                    if found {
                        candidates.push(h);
                    }
                }
                self.rels[h.0 as usize].tombstone(hrow as usize);
                worklist.push(h);
                killed.push(h);
            }
        }
        self.stats.join_probes += counters.pre + counters.post;
        killed
    }

    /// The check's verdict on the derivation `just` — `[rule, body
    /// rows…]`, staged by [`Materialization::derive`] — found for live
    /// row `h`: it saves `h` if its body is as long as the recorded one
    /// and every body row ranks below `h` in (component, birth round,
    /// relation, row), the order every live justification points down
    /// in (module docs): an EDB row; a row of `h`'s relation below `h`,
    /// born no later; or a row of a relation in another component of the
    /// rule graph — a lower one, since the rule reads it. Two rows of
    /// one component but different relations are refused whatever their
    /// rounds: no runtime record of rounds is kept. A saved row's
    /// justification is overwritten in place, the edges of its new body
    /// are added and those of the old one counted stale.
    fn save_row(&mut self, (hrel, hrow): (u32, u32), just: &[u32]) -> bool {
        let Self { prov, plans, idb_flag, comp, rev, .. } = self;
        let prov = prov.as_mut().expect("Materialization always records justifications");
        let (rule, body) = (just[0], &just[1..]);
        let body_rels = &plans[rule as usize][0].body_rels;
        let h = hrel as usize;
        let below = |(&brel, &brow): (&u32, &u32)| {
            let b = brel as usize;
            !idb_flag[b] || (brel == hrel && brow < hrow) || comp[b] != comp[h]
        };
        if prov[h].entry(hrow).1.len() != body.len() || !body_rels.iter().zip(body).all(below) {
            return false;
        }
        prov[h].replace(hrow, rule, body);
        rev.add_row(hrel, hrow, body_rels, body);
        rev.stale += body.len();
        true
    }

    /// Runs the rescue plan of every active rule over row `c`'s relation
    /// on `c`'s tuple, in slot order, until one derives it, staging the
    /// tuple and the derivation found into `pending`; returns whether one
    /// did. Each plan gets the tuple in its head slots — the rule can
    /// derive it only if the head built back from them is the tuple,
    /// which checks head constants and repeated variables — and runs as
    /// one existential [`join`] pass over the live store.
    fn derive(
        &self,
        (crel, crow): (u32, u32),
        scratch: &mut Scratch,
        pending: &mut PendingTuples,
        counters: &mut Counters,
    ) -> bool {
        let tuple = self.rels[crel as usize].row(crow);
        for (rule, plan) in self.rederive.iter().enumerate() {
            if plan.head_rel != crel || !self.rule_active[rule] {
                continue;
            }
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
            let ctx = self.join_ctx(Delta::Full, None);
            if join(plan, &ctx, scratch, pending, counters) {
                return true;
            }
        }
        false
    }

    /// DRed rescue: every candidate — a row the walk refused to save, or
    /// one a dropped rule justified — that an active rule still derives
    /// from the live store is re-appended (a fresh row id in the delta
    /// range) with the derivation found as its recorded justification
    /// ([`Materialization::derive`]). One merge appends what the passes
    /// staged — not a tuple a seeding pass derived again already — so no
    /// pass sees a row another rescued, whatever step kinds the planner
    /// chose; the resume derives whatever this misses from the rescued
    /// rows.
    pub(super) fn rescue(&mut self, candidates: &[(u32, u32)]) {
        if candidates.is_empty() {
            return;
        }
        let mut scratch = Scratch::default();
        let mut pending = PendingTuples::default();
        let mut counters = Counters::default();
        for &c in candidates {
            self.derive(c, &mut scratch, &mut pending, &mut counters);
        }
        self.stats.join_probes += counters.pre + counters.post;
        self.merge_pending(&mut pending);
    }
}

#[cfg(test)]
mod tests {
    use super::components;
    use crate::materialize::Materialization;
    use crate::parser::parse_program;

    /// One id per strongly connected component, a body relation in its
    /// head's component or a lower one: `p` and `q` read each other, `r`
    /// reads `p`, and `e` is read by `p` and `r`.
    #[test]
    fn components_follow_the_rule_graph() {
        let src = "?- r(X).\np(X) :- e(X).\np(X) :- q(X).\nq(X) :- p(X).\nr(X) :- p(X), e(X).";
        let p = parse_program(src).unwrap();
        let m = Materialization::new(&p, crate::eval::Strategy::SemiNaive);
        let comp = components(m.rels.len(), &m.plans);
        assert_eq!(comp, m.comp, "the store keeps what the rule graph gives");
        let c = |n: &str| comp[m.rel_of_pred[&p.symbols.get_predicate(n).unwrap()] as usize];
        assert_eq!(c("p"), c("q"));
        assert!(c("e") < c("p") && c("p") < c("r"));
    }
}
