//! Delete–rederive: the reverse-dependency index over the recorded
//! justifications, which a recording store carries from construction,
//! the deletion walk along it, and the rescue of what another derivation
//! still supports.
//!
//! The walk asks before it kills (the backward/forward idea of
//! Motik–Nenov–Piro–Horrocks, AAAI 2015): a live row it reaches through
//! a dying row runs its rescue plans on the spot. A derivation whose IDB
//! body rows are all older than the row ([`MergeLog`]), with a body as
//! long as the recorded one, **saves** it:
//! the row keeps its id, its justification is overwritten in place and
//! the walk does not descend from it. A derivation that fails the age or
//! length test leaves the row to be killed and rescued after the walk,
//! as a candidate; no derivation kills it for good, since the walk only
//! shrinks the live set and the round's resume joins whatever it adds.
//! Age is what keeps two rows that support only each other from saving
//! each other: every live justification points to older rows, so the
//! recorded derivations stay well-founded.
//!
//! Both the check and the rescue are join passes like any other: the
//! selectivity-ordered rescue plan of [`crate::plan`] runs through
//! `join.rs` as one existential `(rule, row)` pass, and what a rescue
//! finds enters the store through `fixpoint.rs`'s merge, which also
//! appends the reverse edges and the merge log's runs. This file probes
//! no index and appends no row. `BENCHMARK.json`:
//! `materialize.probes_per_retract_round`,
//! `materialize.rows_killed_per_round`, `materialize.rederive_ratio`.

use super::join::{build_head, join, Counters, Delta, PendingTuples, Scratch};
use super::{id32, Materialization};
use crate::ast::{Const, Pred, Rule};
use crate::hash::FxHashMap;
use crate::plan::{plan_rescue, Out};
use crate::storage::NO_ROW;

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

/// When each derived row entered the store, as the age test of a save
/// reads it: per relation, runs of `(first row, merge seq)`, first rows
/// ascending. Every merge round — a seeding round, a fixpoint round, a
/// rescue — opens a new seq ([`MergeLog::open`]), and `fixpoint.rs`'s
/// merge notes the first row it appends to each relation under it. A
/// merge round's bodies are rows of the store before it, so every
/// recorded justification points to rows of lower seq. Rows no run
/// covers — all of them in a restored store, which keeps no log — are
/// seq 0. [`Materialization::compact`] remaps the runs, a template store
/// that starts over empties them.
///
/// Runs are noted only once a rule reads an IDB relation other than its
/// head's ([`MergeLog::reads_across`]): until then every IDB body row is
/// in its head's relation, where row order alone answers the age test.
/// Rows appended before are seq 0, as in a restored store — older than
/// every row after, which keeps the order strict.
#[derive(Clone, Debug, Default)]
pub(super) struct MergeLog {
    /// Per relation: `(first row, seq)` runs.
    runs: Vec<Vec<(u32, u64)>>,
    /// The seq of the current merge round: 64 bits, so a store merging
    /// a round every nanosecond runs for centuries before it overflows.
    seq: u64,
    /// Whether runs are noted.
    on: bool,
}

impl MergeLog {
    /// Starts noting runs if the rule a plan compiles reads an IDB
    /// relation other than its head's: `body_rels` against `head_rel`,
    /// with `idb` the per-relation IDB flags.
    pub(super) fn reads_across(&mut self, head_rel: usize, body_rels: &[usize], idb: &[bool]) {
        self.on |= body_rels.iter().any(|&b| idb[b] && b != head_rel);
    }

    /// Opens the next merge round: rows appended from here on are newer
    /// than every row before.
    pub(super) fn open(&mut self) {
        self.seq = self.seq.checked_add(1).expect("merge-log seq overflow");
    }

    /// Notes that `row` of relation `rel` was appended in the current
    /// merge round (one run per relation and round: only the first row
    /// starts one).
    pub(super) fn note(&mut self, rel: u32, row: u32) {
        if !self.on {
            return;
        }
        let rel = rel as usize;
        if self.runs.len() <= rel {
            self.runs.resize_with(rel + 1, Vec::new);
        }
        let runs = &mut self.runs[rel];
        if runs.last().is_none_or(|&(_, seq)| seq != self.seq) {
            runs.push((row, self.seq));
        }
    }

    /// The merge seq of `row` of relation `rel`.
    pub(super) fn seq(&self, rel: usize, row: u32) -> u64 {
        let Some(runs) = self.runs.get(rel) else { return 0 };
        match runs.partition_point(|&(first, _)| first <= row) {
            0 => 0,
            i => runs[i - 1].1,
        }
    }

    /// Whether body row `(brel, brow)` is older than head row `(hrel,
    /// hrow)`: of an earlier merge round, or of the same relation at a
    /// lower row id. Both imply a lower `(seq, relation, row)`, a strict
    /// order in which every recorded justification points down.
    fn older(&self, (brel, brow): (usize, u32), (hrel, hrow): (usize, u32)) -> bool {
        (brel == hrel && brow < hrow) || self.seq(brel, brow) < self.seq(hrel, hrow)
    }

    /// Forgets every run: the store holds no row any more.
    pub(super) fn clear(&mut self) {
        self.runs.clear();
    }

    /// Renumbers relation `rel`'s runs through a compaction's
    /// order-preserving old→new row map ([`NO_ROW`] = reclaimed): a run
    /// starts where its first surviving row lands, and a run left
    /// without rows goes.
    pub(super) fn remap(&mut self, rel: usize, map: &[u32]) {
        let Some(runs) = self.runs.get_mut(rel) else { return };
        let mut out: Vec<(u32, u64)> = Vec::with_capacity(runs.len());
        let (mut row, mut live) = (0usize, 0u32);
        for &(first, seq) in runs.iter() {
            for &to in &map[row..first as usize] {
                live += u32::from(to != NO_ROW);
            }
            row = first as usize;
            match out.last_mut() {
                // The run before kept no row.
                Some(last) if last.0 == live => *last = (live, seq),
                _ => out.push((live, seq)),
            }
        }
        let len = live + map[row..].iter().map(|&to| u32::from(to != NO_ROW)).sum::<u32>();
        if out.last().is_some_and(|&(first, _)| first == len) {
            out.pop();
        }
        *runs = out;
    }

    /// Words held (memory accounting; a run is two).
    pub(super) fn footprint_words(&self) -> usize {
        2 * self.runs.iter().map(Vec::len).sum::<usize>()
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
            stale: 0,
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
    /// ([`Materialization::drop_tag`]). The check's plans, indexes and
    /// dedup tables are set up only for a walk that has seeds.
    pub(super) fn over_delete(
        &mut self,
        mut worklist: Vec<(u32, u32)>,
        mut candidates: Option<&mut Vec<(u32, u32)>>,
    ) -> Vec<(u32, u32)> {
        let mut killed = Vec::new();
        if worklist.is_empty() {
            return killed;
        }
        if candidates.is_some() {
            self.ready_rederive();
        }
        let (mut scratch, mut pending) = (Scratch::default(), PendingTuples::default());
        let mut counters = Counters::default();
        let mut i = 0;
        while i < worklist.len() {
            let (drel, drow) = worklist[i];
            i += 1;
            let mut e = self.rev.chain(drel as usize, drow);
            while e != NO_EDGE {
                let RevEdge { hrow, next } = self.rev.edges[e as usize];
                let h = (self.rev.head_rel(e), hrow);
                e = next;
                self.dred_reads += 1;
                if !self.rels[h.0 as usize].is_live(hrow as usize) {
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
    /// and every IDB row of it is older than `h` ([`MergeLog::older`]).
    /// A saved row's justification is overwritten in place, the edges of
    /// its new body are added and those of the old one counted stale.
    fn save_row(&mut self, (hrel, hrow): (u32, u32), just: &[u32]) -> bool {
        let Self { prov, plans, idb_flag, merges, rev, .. } = self;
        let prov = prov.as_mut().expect("Materialization always records justifications");
        let (rule, body) = (just[0], &just[1..]);
        let body_rels = &plans[rule as usize][0].body_rels;
        let head = (hrel as usize, hrow);
        let older = |(&brel, &brow): (&usize, &u32)| !idb_flag[brel] || merges.older((brel, brow), head);
        if prov[head.0].entry(hrow as usize).1.len() != body.len()
            || !body_rels.iter().zip(body).all(older)
        {
            return false;
        }
        prov[head.0].replace(hrow as usize, rule, body);
        rev.add_row(hrel, hrow, body_rels, body);
        rev.stale += body.len();
        true
    }

    /// Sets up what [`Materialization::derive`] reads: the rescue plans,
    /// the indexes they register, and the dedup tables their full-key
    /// steps read, which a restored store (or a template store handed a
    /// restored base) may not have rebuilt yet.
    fn ready_rederive(&mut self) {
        self.ensure_dedup();
        self.ensure_rederive_plans(None);
        self.extend_indexes();
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
        let plans = self.rederive.as_ref().expect("compiled by the caller");
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
            build_head(plan, scratch);
            if scratch.head != tuple {
                continue;
            }
            let ctx = self.join_ctx(rule, Delta::Full, None);
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
        self.ready_rederive();
        let mut scratch = Scratch::default();
        let mut pending = PendingTuples::default();
        let mut counters = Counters::default();
        for &c in candidates {
            self.derive(c, &mut scratch, &mut pending, &mut counters);
        }
        self.stats.join_probes += counters.pre + counters.post;
        self.merges.open();
        self.merge_pending(&mut pending);
    }
}

#[cfg(test)]
mod tests {
    use super::MergeLog;

    /// A long-running store opens a merge round per seeding round,
    /// fixpoint round and rescue, log on or off: the seq counts past
    /// `u32::MAX` and the age test still orders rows across the old
    /// limit.
    #[test]
    fn the_merge_log_opens_rounds_past_u32_max() {
        let mut log = MergeLog { seq: u64::from(u32::MAX) - 1, on: true, ..MergeLog::default() };
        for row in 0..4 {
            log.open();
            log.note(1, row);
        }
        let max = u64::from(u32::MAX);
        assert_eq!((log.seq(1, 0), log.seq(1, 3)), (max, max + 3));
        log.note(0, 0);
        assert!(log.older((1, 2), (0, 0)), "a row of an earlier round is older");
        assert!(!log.older((0, 0), (1, 2)), "and not the other way round");
        assert!(!log.older((1, 3), (0, 0)), "rows of one round are not");
    }
}
