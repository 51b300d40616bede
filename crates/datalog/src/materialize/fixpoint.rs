//! The fixpoint loop behind both a build and an update: a seeding round
//! for rules that have not run yet, then rounds of join passes over the
//! frozen store, each item on the plan its delta atom leads and each
//! round followed by one deterministic merge. Under
//! [`Strategy::SemiNaiveParallel`] a round's join passes are sharded
//! over one [`std::thread::scope`] — threads live for a round, and a
//! round with a single task starts none. `BENCHMARK.json`:
//! `eval.iterations.*`, `eval.rule_firings.*`, `eval.tuples_derived.*`,
//! `eval.par2_speedup`, `materialize.rows_appended_per_round`.

use super::join::{snapshot_range, Counters, Delta, Pass, PendingTuples, Scratch, ShardTask};
use super::{id32, Materialization};
use crate::ast::Pred;
use crate::eval::{Strategy, OVERSHARD};
use crate::hash::FxHashMap;
use crate::plan::seed_atom;
use crate::storage::shard_ranges;
use std::sync::Mutex;

/// The scratch space and staging buffer of the passes that run inline,
/// shared by the rounds of one build or update, its seeding round
/// included: they keep the capacity the largest round grew them to.
/// Also the rows each productive round appended, in order: a build
/// keeps them as its convergence profile, an update drops them.
#[derive(Default)]
pub(super) struct Staging {
    scratch: Scratch,
    pending: PendingTuples,
    pub(super) profile: Vec<u64>,
}

impl Materialization {
    /// Seeds rule slots `from..` — every rule of a build, the added ones
    /// of an update — in one counted round: one `Delta::Full` pass per
    /// rule over the settled store on the plan of the atom [`seed_atom`]
    /// picks from the rows the store holds now, skipped when that
    /// relation has no live rows (an empty body runs its one plan).
    pub(super) fn seed_rules(&mut self, from: usize, staging: &mut Staging) {
        self.stats.iterations += 1;
        self.extend_indexes();
        let Staging { scratch, pending, profile } = staging;
        for rule in from..self.plans.len() {
            let mut live = |p: Pred| self.rels[self.rel_of_pred[&p]].num_live() as u64;
            let plan = match seed_atom(&self.rules[rule], &mut live) {
                None => 0,
                Some(k) if live(self.rules[rule].body[k].pred) == 0 => continue,
                Some(k) => k,
            };
            self.eval_rule(Pass { rule, plan, delta: Delta::Full }, scratch, pending);
        }
        self.merges.open();
        let appended = self.merge_pending(pending);
        if appended > 0 {
            profile.push(appended);
        }
    }

    /// Runs rounds to fixpoint: while a relation holds rows above its
    /// watermark — the delta — a round extends the indexes over them,
    /// evaluates its items against the frozen store, advances the
    /// watermarks and merges what was staged, the next round's delta.
    /// The loop ends after a round that appends nothing, counted as the
    /// specification counts it, so on exit every watermark sits at the
    /// store length: the next update resumes from "everything is old".
    ///
    /// Items run inline under the sequential strategies, sharded over
    /// scoped threads otherwise ([`Materialization::eval_sharded`]); the
    /// staged rows merge in the inline staging order either way, so row
    /// ids, justifications and [`crate::eval::EvalStats`] are identical
    /// at every thread count.
    pub(super) fn run_fixpoint(&mut self, staging: &mut Staging) {
        let threads = match self.strategy {
            Strategy::SemiNaiveParallel { threads } if threads >= 2 => threads,
            _ => 1,
        };
        // Recycled task slots: merged-out staging buffers and scratch
        // space return here and are reused next round.
        let mut spare: Vec<ShardTask> = Vec::new();
        let Staging { scratch, pending, profile } = staging;
        while self.rels.iter().zip(&self.old_hi).any(|(rel, &old)| rel.num_rows() > old) {
            self.stats.iterations += 1;
            self.extend_indexes();
            let items = self.round_items();
            let mut tasks = if threads == 1 {
                for &pass in &items {
                    self.eval_rule(pass, scratch, pending);
                }
                Vec::new()
            } else {
                self.eval_sharded(threads, &mut spare, &items)
            };

            // Merge: advance the watermarks to the current length, then
            // append this round's new tuples — they become the delta.
            for r in 0..self.rels.len() {
                self.old_hi[r] = self.rels[r].num_rows();
            }
            self.merges.open();
            let mut appended = self.merge_pending(pending);
            for t in &mut tasks {
                appended += self.merge_pending(&mut t.pending);
            }
            spare.append(&mut tasks);
            if appended > 0 {
                profile.push(appended);
            }
        }
    }

    /// The passes of one round, in deterministic `(rule, body position)`
    /// order: each `(rule, k)` pair of an active rule whose atom `k`'s
    /// relation has unconsumed delta rows — EDB atoms included, which is
    /// how freshly inserted facts (and DRed rescues) enter the join —
    /// on the plan atom `k` leads, with atom `k` as the delta under the
    /// "last delta occurrence" convention in rule-text order. Dropped
    /// rules never fire again.
    fn round_items(&self) -> Vec<Pass> {
        let mut items = Vec::new();
        for (rule, plans) in self.plans.iter().enumerate() {
            if !self.rule_active[rule] {
                continue;
            }
            for (k, &rel) in plans[0].body_rels.iter().enumerate() {
                if self.rels[rel].num_rows() > self.old_hi[rel] {
                    items.push(Pass { rule, plan: k, delta: Delta::Atom(k) });
                }
            }
        }
        items
    }

    /// Evaluates one round's `items` sharded: every item becomes
    /// [`ShardTask`]s that partition its first join step's snapshot
    /// range, which is the item's delta: every item runs on the plan its
    /// delta atom leads. The tasks run inside one
    /// [`std::thread::scope`]: the calling thread and at most
    /// `threads - 1` spawned workers — never more workers than tasks, so
    /// the one-task rounds of a deep recursion spawn nothing — each pull
    /// the next unstarted task until none is left. Which thread ran a
    /// task shows nowhere: counters are accounted from the lead shard's
    /// `pre` and every shard's `post`. Returns the tasks — their staged
    /// rows still unmerged — in `(rule, delta, shard top-down)` order:
    /// shards are top-down subranges of the sequential engine's
    /// descending depth-0 enumeration, so this is the sequential staging
    /// order, and the first staged copy of a row, whose justification
    /// the merge keeps, is the one the sequential engine finds.
    fn eval_sharded(
        &mut self,
        threads: usize,
        spare: &mut Vec<ShardTask>,
        items: &[Pass],
    ) -> Vec<ShardTask> {
        let shards = OVERSHARD * threads;
        let mut tasks: Vec<ShardTask> = Vec::new();
        for &pass in items {
            let plan = &self.plans[pass.rule][pass.plan];
            let (slo, shi) = snapshot_range(&self.rels, &self.old_hi, plan, 0, pass.delta);
            for (si, &(lo, hi)) in shard_ranges(slo, shi, shards).iter().enumerate() {
                // The lead shard always runs (it accounts the depth-0
                // probe even over an empty range, exactly like the
                // sequential engine); empty trailing shards contribute
                // nothing.
                if si > 0 && lo == hi {
                    continue;
                }
                let mut t = spare.pop().unwrap_or_default();
                t.pass = pass;
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
            let workers = threads.min(tasks.len());
            let queue = Mutex::new(tasks.iter_mut());
            let work = || loop {
                // The guard is a temporary of this statement: the lock is
                // released before the task runs.
                let next = queue.lock().expect("task queue poisoned").next();
                let Some(t) = next else { break };
                this.eval_rule_shard(
                    t.pass,
                    Some(t.range),
                    &mut t.scratch,
                    &mut t.pending,
                    &mut t.counters,
                );
            };
            std::thread::scope(|s| {
                for _ in 1..workers {
                    s.spawn(work);
                }
                work();
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

    /// Merges one staging buffer into the relations, deduplicating;
    /// returns how many rows were actually appended, each one productive
    /// rule firing and derived tuple of [`crate::eval::EvalStats`]. With
    /// provenance recording on, the staged justification of each tuple
    /// that actually inserts (the first staged copy in merge order) is
    /// appended to the head relation's justification store, and one
    /// reverse edge per body position to the reverse-dependency index,
    /// so retracts stay O(affected), and the row is noted in the merge
    /// log under the merge round the caller opened. Every derived row
    /// enters the store here — a round's, a seeding round's, a DRed
    /// rescue's; `compact` and `build_rev_index` only rebuild what it
    /// appended.
    pub(super) fn merge_pending(&mut self, pending: &mut PendingTuples) -> u64 {
        let Self { rels, prov, rev, merges, plans, stats, .. } = self;
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
                    let body_rels = &plans[rule as usize][0].body_rels;
                    let blen = body_rels.len();
                    if rel.insert_hashed(&pending.data[off..off + ar], hash) {
                        appended += 1;
                        let body = &pending.just[joff + 1..joff + 1 + blen];
                        let row = id32(rel.num_rows() - 1);
                        prov[rid as usize].push(rule, body);
                        rev.add_row(rid, row, body_rels, body);
                        merges.note(rid, row);
                    }
                    off += ar;
                    joff += 1 + blen;
                }
            }
        }
        pending.clear();
        stats.rule_firings += appended;
        stats.tuples_derived += appended;
        appended
    }
}
