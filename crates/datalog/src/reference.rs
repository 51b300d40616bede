//! The original tuple-at-a-time evaluator, preserved as the executable
//! specification of the work counters.
//!
//! [`crate::eval`] reimplements the fixpoint on flat columnar storage for
//! speed; its contract is that [`EvalStats`] — iterations, rule firings,
//! derived tuples, join probes — stay **bit-for-bit identical** to this
//! module on every program and database, so the tables in EXPERIMENTS.md
//! remain valid across storage rewrites. The `engine_equiv` property
//! suite and `stats_match_reference_engine_exactly` enforce the contract.
//!
//! This engine allocates a `Vec<Const>` per tuple, clones `old` from
//! `full` each iteration, and rebuilds every hash index per iteration —
//! exactly the costs the storage engine removes. Do not use it for
//! anything but cross-checking.

use std::collections::{HashMap, HashSet};

use crate::ast::{Const, Pred, Program, Rule, Term, Var};
use crate::db::{Database, Tuple};
use crate::derivation::{DerivationTree, GroundAtom};
use crate::eval::{apply_goal, EvalResult, EvalStats, Strategy};
use crate::plan::{body_order, OrderMode, Purpose};

/// Evaluates `program` on `db` with the reference engine under
/// [`OrderMode::Planned`] (the storage engine's order).
///
/// [`Strategy::SemiNaiveParallel`] is evaluated as sequential semi-naive
/// ([`Strategy::sequential_spec`]): the parallel engine's contract is to
/// match that specification's counters bit-for-bit, so the reference for
/// both is the same run.
pub fn evaluate(program: &Program, db: &Database, strategy: Strategy) -> EvalResult {
    evaluate_cfg(program, db, strategy, OrderMode::Planned)
}

/// Evaluates under an explicit body-order mode. The reference mirrors
/// every counter-visible planner decision — body order (from database
/// cardinalities, which equal the engine's live counts at compile
/// time), suffix pruning at the head-ready depth, and merge-time
/// productive firings — so [`EvalStats`] stay bit-for-bit comparable to
/// the storage engine under the same order.
pub fn evaluate_cfg(
    program: &Program,
    db: &Database,
    strategy: Strategy,
    order: OrderMode,
) -> EvalResult {
    Evaluator::new(program, db, order).run(strategy.sequential_spec())
}

/// Evaluates and applies the goal with the reference engine.
pub fn answer(
    program: &Program,
    db: &Database,
    strategy: Strategy,
) -> (crate::db::Relation, EvalStats) {
    let result = evaluate(program, db, strategy);
    let rel = result
        .idb
        .relation(program.goal.pred)
        .cloned()
        .unwrap_or_else(|| crate::db::Relation::new(program.goal.arity()));
    (apply_goal(&program.goal, &rel), result.stats)
}

/// A term pattern compiled to dense rule-local slots.
#[derive(Clone, Copy, Debug)]
enum Pat {
    /// A rule-local variable slot.
    Slot(usize),
    /// A constant that must match.
    Const(Const),
}

#[derive(Clone, Debug)]
struct CompiledAtom {
    pred: Pred,
    pattern: Vec<Pat>,
    /// Argument positions that are bound when this atom is evaluated
    /// left-to-right (constants, slots bound earlier, and repeats within
    /// this atom).
    bound_positions: Vec<usize>,
}

#[derive(Clone, Debug)]
struct CompiledRule {
    head_pred: Pred,
    head_pattern: Vec<Pat>,
    /// Body atoms in **planner order** (the evaluation order).
    body: Vec<CompiledAtom>,
    num_slots: usize,
    /// Body positions (in planner order) whose predicate is an IDB of
    /// the program.
    idb_positions: Vec<usize>,
    /// First body position at which every head slot is bound — the
    /// suffix-prune point, mirroring `RulePlan::head_ready_depth`.
    head_ready: usize,
}

fn compile_rule(rule: &Rule, idbs: &[Pred], order: &[usize]) -> CompiledRule {
    let mut slots: HashMap<Var, usize> = HashMap::new();
    let slot_of = |v: Var, slots: &mut HashMap<Var, usize>| {
        let next = slots.len();
        *slots.entry(v).or_insert(next)
    };
    let mut body = Vec::new();
    let mut bound_slots: Vec<bool> = Vec::new();
    for &ai in order {
        let atom = &rule.body[ai];
        let mut pattern = Vec::new();
        let mut bound_positions = Vec::new();
        let mut seen_here: Vec<usize> = Vec::new();
        for (i, t) in atom.args.iter().enumerate() {
            match t {
                Term::Const(c) => {
                    pattern.push(Pat::Const(*c));
                    bound_positions.push(i);
                }
                Term::Var(v) => {
                    let s = slot_of(*v, &mut slots);
                    if s >= bound_slots.len() {
                        bound_slots.resize(s + 1, false);
                    }
                    // Only slots bound by *earlier atoms* key the index;
                    // a repeat within this atom (e.g. `p(X, X)`) is a
                    // filter applied during tuple matching.
                    if bound_slots[s] {
                        bound_positions.push(i);
                    }
                    seen_here.push(s);
                    pattern.push(Pat::Slot(s));
                }
            }
        }
        for &s in &seen_here {
            bound_slots[s] = true;
        }
        body.push(CompiledAtom {
            pred: atom.pred,
            pattern,
            bound_positions,
        });
    }
    let head_pattern: Vec<Pat> = rule
        .head
        .args
        .iter()
        .map(|t| match t {
            Term::Const(c) => Pat::Const(*c),
            Term::Var(v) => Pat::Slot(*slots.get(v).expect("safe rule")),
        })
        .collect();
    let idb_positions = order
        .iter()
        .enumerate()
        .filter(|&(_, &ai)| idbs.contains(&rule.body[ai].pred))
        .map(|(d, _)| d)
        .collect();
    let head_ready = head_ready_depth(&head_pattern, &body, slots.len());
    CompiledRule {
        head_pred: rule.head.pred,
        head_pattern,
        body,
        num_slots: slots.len(),
        idb_positions,
        head_ready,
    }
}

/// First body-position prefix after which every head slot is bound —
/// the same computation as `plan::head_ready_depth`, over the pattern
/// vocabulary: 0 for all-constant heads, `body.len()` when a head slot
/// is bound only by the last atom.
fn head_ready_depth(head_pattern: &[Pat], body: &[CompiledAtom], num_slots: usize) -> usize {
    let need: Vec<usize> = head_pattern
        .iter()
        .filter_map(|p| match p {
            Pat::Slot(s) => Some(*s),
            Pat::Const(_) => None,
        })
        .collect();
    let mut bound = vec![false; num_slots];
    for (d, atom) in body.iter().enumerate() {
        if need.iter().all(|&s| bound[s]) {
            return d;
        }
        for p in &atom.pattern {
            if let Pat::Slot(s) = p {
                bound[*s] = true;
            }
        }
    }
    body.len()
}

/// Which snapshot a body atom reads from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Source {
    /// EDB relation from the input database.
    Edb,
    /// Current full IDB relation.
    Full,
    /// IDB relation as of the previous iteration.
    Old,
    /// Facts derived exactly in the previous iteration.
    Delta,
}

type Index = HashMap<Vec<Const>, Vec<u32>>;

struct Evaluator<'a> {
    program: &'a Program,
    rules: Vec<CompiledRule>,
    edb: HashMap<Pred, Vec<Tuple>>,
    arity: HashMap<Pred, usize>,
    stats: EvalStats,
}

impl<'a> Evaluator<'a> {
    fn new(program: &'a Program, db: &Database, order: OrderMode) -> Self {
        let idbs = program.idb_predicates();
        // Cardinalities at compile time: database sizes for EDB
        // predicates, 0 for IDBs — exactly the engine's live row counts
        // when it plans (EDB loaded, nothing derived yet), so both
        // sides compute the same body orders.
        let mut card = |p: Pred| {
            if idbs.contains(&p) {
                0
            } else {
                db.relation(p).map_or(0, |r| r.len() as u64)
            }
        };
        let rules = program
            .rules
            .iter()
            .enumerate()
            .map(|(i, r)| {
                compile_rule(r, &idbs, &body_order(r, i, Purpose::Batch, order, &mut card))
            })
            .collect();
        let mut edb: HashMap<Pred, Vec<Tuple>> = HashMap::new();
        let mut arity: HashMap<Pred, usize> = HashMap::new();
        for (p, r) in db.iter() {
            edb.insert(p, r.iter().cloned().collect());
            arity.insert(p, r.arity());
        }
        for r in &program.rules {
            arity.entry(r.head.pred).or_insert_with(|| r.head.arity());
            for a in &r.body {
                arity.entry(a.pred).or_insert_with(|| a.arity());
            }
        }
        Self {
            program,
            rules,
            edb,
            arity,
            stats: EvalStats::default(),
        }
    }

    fn run(mut self, strategy: Strategy) -> EvalResult {
        let idbs = self.program.idb_predicates();
        let mut full: HashMap<Pred, Vec<Tuple>> = idbs.iter().map(|&p| (p, Vec::new())).collect();
        let mut full_set: HashMap<Pred, std::collections::HashSet<Tuple>> =
            idbs.iter().map(|&p| (p, Default::default())).collect();
        let mut old: HashMap<Pred, Vec<Tuple>> = full.clone();
        let mut delta: HashMap<Pred, Vec<Tuple>> = full.clone();

        let mut first = true;
        loop {
            self.stats.iterations += 1;
            let mut new: HashMap<Pred, Vec<Tuple>> = HashMap::new();
            let mut indexes: HashMap<(Pred, Source, Vec<usize>), Index> = HashMap::new();

            let rules = std::mem::take(&mut self.rules);
            for rule in &rules {
                match strategy {
                    Strategy::Naive => {
                        self.eval_rule(
                            rule,
                            None,
                            &full,
                            &old,
                            &delta,
                            &full_set,
                            &mut indexes,
                            |pred, t| {
                                if !full_set[&pred].contains(&t) {
                                    new.entry(pred).or_default().push(t);
                                }
                            },
                        );
                    }
                    _ => {
                        if rule.idb_positions.is_empty() {
                            if first {
                                self.eval_rule(
                                    rule,
                                    None,
                                    &full,
                                    &old,
                                    &delta,
                                    &full_set,
                                    &mut indexes,
                                    |pred, t| {
                                        if !full_set[&pred].contains(&t) {
                                            new.entry(pred).or_default().push(t);
                                        }
                                    },
                                );
                            }
                        } else if !first {
                            for &d in &rule.idb_positions {
                                self.eval_rule(
                                    rule,
                                    Some(d),
                                    &full,
                                    &old,
                                    &delta,
                                    &full_set,
                                    &mut indexes,
                                    |pred, t| {
                                        if !full_set[&pred].contains(&t) {
                                            new.entry(pred).or_default().push(t);
                                        }
                                    },
                                );
                            }
                        }
                    }
                }
            }
            self.rules = rules;

            // merge: old ← full; delta ← new; full ← full ∪ new
            let mut any = false;
            for (&p, f) in &full {
                old.insert(p, f.clone());
            }
            for (p, tuples) in new {
                let set = full_set.get_mut(&p).expect("idb pred");
                let mut added = Vec::new();
                for t in tuples {
                    if set.insert(t.clone()) {
                        added.push(t);
                    }
                }
                self.stats.tuples_derived += added.len() as u64;
                // Productive firings are counted at the merge — the
                // tuples that actually entered the model — mirroring the
                // engine's merge-time accounting.
                self.stats.rule_firings += added.len() as u64;
                if !added.is_empty() {
                    any = true;
                }
                full.get_mut(&p).expect("idb pred").extend(added.iter().cloned());
                delta.insert(p, added);
            }
            // clear deltas of predicates that derived nothing this round
            // (old holds the pre-merge sizes)
            for &p in &idbs {
                if old[&p].len() == full[&p].len() {
                    delta.insert(p, Vec::new());
                }
            }
            if !any {
                break;
            }
            first = false;
        }

        let mut idb_db = Database::new();
        for (&p, tuples) in &full {
            let ar = *self.arity.get(&p).unwrap_or(&0);
            let rel = idb_db.relation_mut(p, ar);
            for t in tuples {
                rel.insert(t.clone());
            }
        }
        EvalResult {
            idb: idb_db,
            stats: self.stats,
        }
    }

    /// Evaluates one rule with an optional delta position, feeding head
    /// tuples to `emit`.
    #[allow(clippy::too_many_arguments)]
    fn eval_rule(
        &mut self,
        rule: &CompiledRule,
        delta_pos: Option<usize>,
        full: &HashMap<Pred, Vec<Tuple>>,
        old: &HashMap<Pred, Vec<Tuple>>,
        delta: &HashMap<Pred, Vec<Tuple>>,
        full_set: &HashMap<Pred, HashSet<Tuple>>,
        indexes: &mut HashMap<(Pred, Source, Vec<usize>), Index>,
        mut emit: impl FnMut(Pred, Tuple),
    ) {
        let ctx = JoinCtx {
            edb: &self.edb,
            full,
            old,
            delta,
            full_set,
            delta_pos,
        };
        let mut env: Vec<Option<Const>> = vec![None; rule.num_slots];
        let mut probes = 0u64;
        descend(rule, 0, &mut env, &ctx, indexes, &mut probes, &mut emit);
        self.stats.join_probes += probes;
    }
}

/// Borrowed snapshots for one rule-evaluation pass.
struct JoinCtx<'b> {
    edb: &'b HashMap<Pred, Vec<Tuple>>,
    full: &'b HashMap<Pred, Vec<Tuple>>,
    old: &'b HashMap<Pred, Vec<Tuple>>,
    delta: &'b HashMap<Pred, Vec<Tuple>>,
    /// The frozen model, for the suffix-prune existence check.
    full_set: &'b HashMap<Pred, HashSet<Tuple>>,
    delta_pos: Option<usize>,
}

impl<'b> JoinCtx<'b> {
    fn source_of(&self, pos: usize, atom: &CompiledAtom) -> Source {
        if !self.full.contains_key(&atom.pred) {
            Source::Edb
        } else {
            // "last delta occurrence" convention: positions before the
            // delta read the up-to-date full relation, positions after it
            // read the previous iteration's relation.
            match self.delta_pos {
                None => Source::Full,
                Some(d) if pos == d => Source::Delta,
                Some(d) if pos < d => Source::Full,
                Some(_) => Source::Old,
            }
        }
    }

    fn tuples_of(&self, src: Source, pred: Pred) -> &'b [Tuple] {
        let map = match src {
            Source::Edb => self.edb,
            Source::Full => self.full,
            Source::Old => self.old,
            Source::Delta => self.delta,
        };
        map.get(&pred).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Recursive backtracking join over the body atoms.
fn descend(
    rule: &CompiledRule,
    pos: usize,
    env: &mut Vec<Option<Const>>,
    ctx: &JoinCtx<'_>,
    indexes: &mut HashMap<(Pred, Source, Vec<usize>), Index>,
    probes: &mut u64,
    emit: &mut dyn FnMut(Pred, Tuple),
) {
    if pos == rule.body.len() {
        let t: Tuple = rule
            .head_pattern
            .iter()
            .map(|p| match p {
                Pat::Const(c) => *c,
                Pat::Slot(s) => env[*s].expect("safe rule binds head slots"),
            })
            .collect();
        emit(rule.head_pred, t);
        return;
    }
    // Suffix pruning: the head is fully bound here; if it already
    // exists in the frozen model, the remaining joins can only
    // re-derive it. The check precedes this depth's probe, exactly
    // like the engine.
    if pos == rule.head_ready {
        let t: Tuple = rule
            .head_pattern
            .iter()
            .map(|p| match p {
                Pat::Const(c) => *c,
                Pat::Slot(s) => env[*s].expect("head-ready depth binds head slots"),
            })
            .collect();
        if ctx.full_set.get(&rule.head_pred).is_some_and(|s| s.contains(&t)) {
            return;
        }
    }
    let atom = &rule.body[pos];
    let src = ctx.source_of(pos, atom);
    let tuples = ctx.tuples_of(src, atom.pred);
    // Build/fetch the hash index for this (pred, source, mask).
    let key = (atom.pred, src, atom.bound_positions.clone());
    let index = indexes.entry(key).or_insert_with(|| {
        let mut idx: Index = HashMap::new();
        for (ti, t) in tuples.iter().enumerate() {
            let k: Vec<Const> = atom.bound_positions.iter().map(|&i| t[i]).collect();
            idx.entry(k).or_default().push(ti as u32);
        }
        idx
    });
    let probe_key: Vec<Const> = atom
        .bound_positions
        .iter()
        .map(|&i| match atom.pattern[i] {
            Pat::Const(c) => c,
            Pat::Slot(s) => env[s].expect("bound slot"),
        })
        .collect();
    *probes += 1;
    let Some(matches) = index.get(&probe_key) else {
        return;
    };
    let matches = matches.clone();
    for ti in matches {
        let t = &tuples[ti as usize];
        // bind free slots; record which to unbind on backtrack
        let mut bound_here: Vec<usize> = Vec::new();
        let mut ok = true;
        for (i, pat) in atom.pattern.iter().enumerate() {
            match pat {
                Pat::Const(c) => {
                    if t[i] != *c {
                        ok = false;
                        break;
                    }
                }
                Pat::Slot(s) => match env[*s] {
                    Some(c) => {
                        if c != t[i] {
                            ok = false;
                            break;
                        }
                    }
                    None => {
                        env[*s] = Some(t[i]);
                        bound_here.push(*s);
                    }
                },
            }
        }
        if ok {
            descend(rule, pos + 1, env, ctx, indexes, probes, emit);
        }
        for s in bound_here {
            env[s] = None;
        }
    }
}

// ---------------------------------------------------------------------
// Naive provenance — the executable specification
// ---------------------------------------------------------------------

/// Provenance-tracking evaluation by naive fixpoint: for every derived
/// IDB fact, one justification (rule index + body ground atoms).
///
/// This is the original tuple-at-a-time provenance from the derivation
/// module, preserved — like the evaluator above — as the executable
/// specification: a simple nested-loop re-matcher over cloned
/// [`GroundAtom`]s, quadratic and clarity-first. The production path is
/// [`crate::eval::evaluate_with_provenance`], which records row-id
/// justifications inside the columnar join; the `engine_equiv` property
/// suite validates both against [`Provenance::check`] /
/// [`crate::derivation::Provenance::check`] and asserts they derive the
/// same facts.
pub struct Provenance {
    just: HashMap<GroundAtom, (usize, Vec<GroundAtom>)>,
    edb_preds: Vec<Pred>,
}

impl Provenance {
    /// Runs a naive fixpoint recording first-found justifications.
    pub fn compute(program: &Program, db: &Database) -> Provenance {
        let mut just: HashMap<GroundAtom, (usize, Vec<GroundAtom>)> = HashMap::new();
        let mut model: Vec<GroundAtom> = Vec::new();
        let mut model_set: std::collections::HashSet<GroundAtom> = Default::default();
        let idbs = program.idb_predicates();
        for (p, rel) in db.iter() {
            // Database facts for IDB predicates are ignored, exactly as
            // in both evaluators (IDB relations start empty) — the spec
            // must derive the same facts the engines derive.
            if idbs.contains(&p) {
                continue;
            }
            for t in rel.iter() {
                let g = GroundAtom {
                    pred: p,
                    args: t.clone(),
                };
                if model_set.insert(g.clone()) {
                    model.push(g);
                }
            }
        }
        loop {
            let mut new: Vec<(GroundAtom, usize, Vec<GroundAtom>)> = Vec::new();
            // Within-round dedup: `model_set` is frozen for the round, so
            // without this set every rule (and every instantiation) that
            // re-derives a head already staged this round would push a
            // duplicate — quadratic memory on dense inputs, all dropped
            // at the merge anyway.
            let mut new_set: std::collections::HashSet<GroundAtom> = Default::default();
            for (ri, rule) in program.rules.iter().enumerate() {
                let mut env: HashMap<crate::ast::Var, Const> = HashMap::new();
                match_body(rule, 0, &model, &mut env, &mut |env| {
                    let head = GroundAtom {
                        pred: rule.head.pred,
                        args: rule
                            .head
                            .args
                            .iter()
                            .map(|t| match t {
                                Term::Const(c) => *c,
                                Term::Var(v) => env[v],
                            })
                            .collect(),
                    };
                    if !model_set.contains(&head) && !new_set.contains(&head) {
                        new_set.insert(head.clone());
                        let body = rule
                            .body
                            .iter()
                            .map(|a| GroundAtom {
                                pred: a.pred,
                                args: a
                                    .args
                                    .iter()
                                    .map(|t| match t {
                                        Term::Const(c) => *c,
                                        Term::Var(v) => env[v],
                                    })
                                    .collect(),
                            })
                            .collect();
                        new.push((head, ri, body));
                    }
                });
            }
            let mut any = false;
            for (head, ri, body) in new {
                if model_set.insert(head.clone()) {
                    model.push(head.clone());
                    just.insert(head, (ri, body));
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
        Provenance {
            just,
            edb_preds: program.edb_predicates(),
        }
    }

    /// Builds the derivation tree of a ground atom, if it was derived (or
    /// is a database fact). Iterative, like the columnar engine's
    /// [`crate::derivation::Provenance::tree`]: the spec must also be
    /// callable on deep-chain proofs.
    pub fn tree(&self, atom: &GroundAtom) -> Option<DerivationTree> {
        if self.edb_preds.contains(&atom.pred) {
            return Some(DerivationTree {
                atom: atom.clone(),
                via: None,
            });
        }
        let (rule0, _) = self.just.get(atom)?;
        struct Frame<'a> {
            atom: &'a GroundAtom,
            rule: usize,
            kids: Vec<DerivationTree>,
        }
        let mut stack = vec![Frame {
            atom,
            rule: *rule0,
            kids: Vec::new(),
        }];
        loop {
            let (fatom, built) = {
                let f = stack.last().expect("non-empty until the root completes");
                (f.atom, f.kids.len())
            };
            let body = &self.just.get(fatom).expect("frames are derived atoms").1;
            if built < body.len() {
                let child = &body[built];
                if self.edb_preds.contains(&child.pred) {
                    stack.last_mut().expect("frame exists").kids.push(DerivationTree {
                        atom: child.clone(),
                        via: None,
                    });
                } else {
                    let (crule, _) = self.just.get(child)?;
                    stack.push(Frame {
                        atom: child,
                        rule: *crule,
                        kids: Vec::new(),
                    });
                }
            } else {
                let f = stack.pop().expect("frame exists");
                let node = DerivationTree {
                    atom: f.atom.clone(),
                    via: Some((f.rule, f.kids)),
                };
                match stack.last_mut() {
                    None => return Some(node),
                    Some(parent) => parent.kids.push(node),
                }
            }
        }
    }

    /// All derived IDB ground atoms.
    pub fn derived(&self) -> impl Iterator<Item = &GroundAtom> {
        self.just.keys()
    }

    /// The recorded justification of a derived atom.
    pub fn justification(&self, atom: &GroundAtom) -> Option<(usize, &[GroundAtom])> {
        self.just.get(atom).map(|(ri, body)| (*ri, body.as_slice()))
    }

    /// Validity check mirroring
    /// [`crate::derivation::Provenance::check`]: every justification is
    /// a genuine rule instantiation over facts of the model, and every
    /// chain bottoms out in EDB facts.
    pub fn check(&self, program: &Program) -> Result<(), String> {
        for (head, (ri, body)) in &self.just {
            let rule = program
                .rules
                .get(*ri)
                .ok_or_else(|| format!("{head:?}: rule {ri} out of range"))?;
            if rule.head.pred != head.pred || body.len() != rule.body.len() {
                return Err(format!("{head:?}: rule shape mismatch"));
            }
            let mut env: HashMap<Var, Const> = HashMap::new();
            let bind = |t: &Term, c: Const, env: &mut HashMap<Var, Const>| match t {
                Term::Const(k) => *k == c,
                Term::Var(v) => *env.entry(*v).or_insert(c) == c,
            };
            for (atom, fact) in rule.body.iter().zip(body) {
                if atom.pred != fact.pred
                    || atom.args.len() != fact.args.len()
                    || !atom
                        .args
                        .iter()
                        .zip(&fact.args)
                        .all(|(t, &c)| bind(t, c, &mut env))
                {
                    return Err(format!("{head:?}: body is not an instantiation"));
                }
                if !self.edb_preds.contains(&fact.pred) && !self.just.contains_key(fact) {
                    return Err(format!("{head:?}: body fact {fact:?} unjustified"));
                }
            }
            if head.args.len() != rule.head.args.len()
                || !rule
                    .head
                    .args
                    .iter()
                    .zip(&head.args)
                    .all(|(t, &c)| bind(t, c, &mut env))
            {
                return Err(format!("{head:?}: head is not the rule instantiation"));
            }
        }
        // Well-foundedness: every justification chain reaches EDB leaves.
        // Body facts strictly predate their head in the naive rounds, so
        // a DFS with an on-path set detects any (impossible) cycle.
        let mut done: std::collections::HashSet<&GroundAtom> = Default::default();
        for root in self.just.keys() {
            if done.contains(root) {
                continue;
            }
            let mut on_path: std::collections::HashSet<&GroundAtom> = Default::default();
            let mut stack: Vec<(&GroundAtom, bool)> = vec![(root, false)];
            while let Some((a, expanded)) = stack.pop() {
                if expanded {
                    on_path.remove(a);
                    done.insert(a);
                    continue;
                }
                if done.contains(a) || self.edb_preds.contains(&a.pred) {
                    continue;
                }
                if !on_path.insert(a) {
                    return Err(format!("{a:?}: cyclic justification"));
                }
                stack.push((a, true));
                let (_, body) = &self.just[a];
                for b in body {
                    stack.push((b, false));
                }
            }
        }
        Ok(())
    }
}

fn match_body(
    rule: &crate::ast::Rule,
    pos: usize,
    model: &[GroundAtom],
    env: &mut HashMap<crate::ast::Var, Const>,
    emit: &mut dyn FnMut(&HashMap<crate::ast::Var, Const>),
) {
    if pos == rule.body.len() {
        emit(env);
        return;
    }
    let atom = &rule.body[pos];
    for fact in model {
        if fact.pred != atom.pred || fact.args.len() != atom.args.len() {
            continue;
        }
        let mut bound: Vec<crate::ast::Var> = Vec::new();
        let mut ok = true;
        for (t, c) in atom.args.iter().zip(&fact.args) {
            match t {
                Term::Const(k) => {
                    if k != c {
                        ok = false;
                        break;
                    }
                }
                Term::Var(v) => match env.get(v) {
                    Some(&b) => {
                        if b != *c {
                            ok = false;
                            break;
                        }
                    }
                    None => {
                        env.insert(*v, *c);
                        bound.push(*v);
                    }
                },
            }
        }
        if ok {
            match_body(rule, pos + 1, model, env, emit);
        }
        for v in bound {
            env.remove(&v);
        }
    }
}

#[cfg(test)]
mod provenance_tests {
    use super::*;
    use crate::parser::parse_program;

    /// Satellite regression: two rules deriving the same fact in the
    /// same round must stage it once (the round-local dedup), and the
    /// recorded justification is the first rule's.
    #[test]
    fn duplicate_heads_within_a_round_are_deduped() {
        let mut p = parse_program(
            "?- p(Y).\n\
             p(X) :- e(X).\n\
             p(X) :- f(X).",
        )
        .unwrap();
        let e = p.symbols.get_predicate("e").unwrap();
        let f = p.symbols.get_predicate("f").unwrap();
        let a = p.symbols.constant("a");
        let mut db = Database::new();
        db.insert(e, vec![a]);
        db.insert(f, vec![a]);
        let prov = Provenance::compute(&p, &db);
        let pp = p.symbols.get_predicate("p").unwrap();
        let atom = GroundAtom {
            pred: pp,
            args: vec![a],
        };
        assert_eq!(prov.derived().count(), 1, "p(a) derived exactly once");
        let (rule, body) = prov.justification(&atom).expect("p(a) justified");
        assert_eq!(rule, 0, "first-found justification is the first rule");
        assert_eq!(body, &[GroundAtom { pred: e, args: vec![a] }]);
        prov.check(&p).expect("naive provenance is valid");
        // The columnar engine agrees on the derived set and the choice.
        let fast = crate::derivation::Provenance::compute(&p, &db);
        assert_eq!(fast.num_derived(), 1);
        assert_eq!(fast.justification(&atom).map(|(r, _)| r), Some(0));
    }

    /// Database facts under IDB predicates are ignored, exactly as both
    /// evaluators ignore them — the spec must not derive from phantom
    /// seeds the engines never see.
    #[test]
    fn idb_predicate_facts_in_the_database_are_ignored() {
        let mut p = parse_program(
            "?- anc(a, Y).\n\
             anc(X, Y) :- par(X, Y).\n\
             anc(X, Y) :- anc(X, Z), par(Z, Y).",
        )
        .unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let anc = p.symbols.get_predicate("anc").unwrap();
        let a = p.symbols.constant("a");
        let b = p.symbols.constant("b");
        let c = p.symbols.constant("c");
        let mut db = Database::new();
        db.insert(par, vec![a, b]);
        db.insert(anc, vec![b, c]); // phantom IDB seed: must be ignored
        let spec = Provenance::compute(&p, &db);
        let mut spec_facts: Vec<_> = spec.derived().cloned().collect();
        spec_facts.sort();
        let engine = crate::derivation::Provenance::compute(&p, &db);
        let mut engine_facts: Vec<_> = engine.derived().collect();
        engine_facts.sort();
        assert_eq!(spec_facts, engine_facts, "spec and engine agree");
        assert_eq!(spec_facts.len(), 1, "only anc(a, b) is derivable");
        spec.check(&p).expect("valid");
    }

    /// The same head re-derived by *many* instantiations of one rule in
    /// one round stages once, not once per instantiation.
    #[test]
    fn duplicate_heads_across_instantiations_are_deduped() {
        let mut p = parse_program(
            "?- q(Y).\n\
             q(Y) :- e(X, Y).",
        )
        .unwrap();
        let e = p.symbols.get_predicate("e").unwrap();
        let b = p.symbols.constant("b");
        let mut db = Database::new();
        for i in 0..20 {
            let c = p.symbols.constant(&format!("s{i}"));
            db.insert(e, vec![c, b]);
        }
        let prov = Provenance::compute(&p, &db);
        assert_eq!(prov.derived().count(), 1);
        prov.check(&p).expect("valid");
    }
}
