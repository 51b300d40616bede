//! The executable specification: a program's minimum model, computed
//! from its definition.
//!
//! Section 2.1 of the paper defines the output of a program on a
//! database as the least set of ground atoms that contains the database
//! and is closed under the rules. This module computes it by iterating
//! the **immediate-consequence operator**: each round evaluates every
//! rule, in rule-text order, against the facts known before the round,
//! joins the body atoms left to right through a hash lookup on the
//! positions the earlier atoms bind, and adds the heads that are new;
//! the first round that adds nothing ends the loop. The first
//! instantiation found for a new fact is recorded as its justification,
//! so [`evaluate`], [`answer`] and [`Provenance::compute`] are three
//! read-outs of one loop.
//!
//! The iteration is the textbook **semi-naive** one: after the first
//! round, a rule is evaluated once per IDB body atom, that atom reading
//! only the facts the previous round added and every other atom all
//! facts. Round `k` still derives exactly the facts of stage `k` — a
//! new fact of stage `k` uses one of stage `k − 1` — but no round
//! re-joins the whole model: naive rounds did, and a 49-round closure
//! in `tests/update_complexity.rs` took the suite's time up by 40 %.
//! The module shares no planner, body order, index, pruning or storage
//! code with the engine ([`crate::eval`]), so an optimizer bug cannot
//! sit on both sides of a comparison. It allocates per tuple: use it
//! for cross-checking only.
//!
//! Of [`EvalStats`] it reports the three counters the model decides —
//! `iterations` (rounds, the final empty one included), `rule_firings`
//! and `tuples_derived` (both the number of facts added) — which do not
//! depend on a strategy, a body order or a thread count; the engine's
//! are tested equal to these. `join_probes` is always 0: a probe count
//! belongs to a plan, and the specification has none.

use std::collections::{BTreeSet, HashMap, HashSet};

use crate::ast::{Atom, Const, Pred, Program, Term, Var};
use crate::db::{Database, Relation, Tuple};
use crate::derivation::GroundAtom;
use crate::eval::{EvalResult, EvalStats, Strategy};

/// Why a fact holds: the rule's index and its body instantiated, in
/// rule-text order.
type Justification = (usize, Vec<GroundAtom>);

/// A variable binding, in binding order: a rule has a handful of
/// variables, and backtracking is a truncation.
type Env = Vec<(Var, Const)>;

/// Facts per predicate, kept sorted so that every run enumerates them —
/// and finds each fact's first justification — in the same order.
type Facts = HashMap<Pred, BTreeSet<Tuple>>;

/// Facts of one predicate, keyed by their values at some positions.
type Lookup<'a> = HashMap<Vec<Const>, Vec<&'a Tuple>>;

/// Evaluates `program` on `db` to its minimum model. Every IDB
/// predicate is present in the result, empty or not; its arity is the
/// database relation's if the database has one, else the rule heads'.
/// The strategy is accepted and ignored: every strategy computes this
/// model with these counters.
pub fn evaluate(program: &Program, db: &Database, _strategy: Strategy) -> EvalResult {
    let model = fixpoint(program, db);
    let mut idb = Database::new();
    for (p, facts) in model.idb {
        let head = program.rules.iter().find(|r| r.head.pred == p).map_or(0, |r| r.head.arity());
        let rel = idb.relation_mut(p, db.relation(p).map_or(head, Relation::arity));
        for t in facts {
            rel.insert(t);
        }
    }
    EvalResult {
        idb,
        stats: model.stats,
    }
}

/// Evaluates and applies the goal: the goal relation's facts that match
/// its constants and repeated variables, projected onto its distinct
/// variables in first-occurrence order.
pub fn answer(program: &Program, db: &Database, strategy: Strategy) -> (Relation, EvalStats) {
    let result = evaluate(program, db, strategy);
    let goal = &program.goal;
    let mut out = Relation::new(goal.vars().collect::<HashSet<Var>>().len());
    for row in result.idb.relation(goal.pred).into_iter().flat_map(|r| r.iter()) {
        // Bound in first-occurrence order, `env` is the projected tuple.
        let mut env = Env::new();
        if unify(&goal.args, row, &mut env) {
            out.insert(env.into_iter().map(|(_, c)| c).collect());
        }
    }
    (out, result.stats)
}

/// What the fixpoint leaves behind.
struct Model {
    /// The facts of every IDB predicate.
    idb: Facts,
    /// One first-found justification per derived fact.
    just: HashMap<GroundAtom, Justification>,
    stats: EvalStats,
}

/// The one loop: semi-naive rounds of the immediate-consequence
/// operator. Database facts under IDB predicates are not part of the
/// input — both the engine and the definition's EDB/IDB split ignore
/// them.
fn fixpoint(program: &Program, db: &Database) -> Model {
    let mut model = Model {
        idb: program.idb_predicates().into_iter().map(|p| (p, BTreeSet::new())).collect(),
        just: HashMap::new(),
        stats: EvalStats::default(),
    };
    // What the previous round added; `None` before the first round.
    let mut delta: Option<Facts> = None;
    loop {
        model.stats.iterations += 1;
        // Each head new this round, with the first instantiation found.
        let mut new: HashMap<GroundAtom, Justification> = HashMap::new();
        let mut round = Round {
            idb: &model.idb,
            delta: delta.as_ref(),
            db,
            lookups: HashMap::new(),
        };
        for (ri, rule) in program.rules.iter().enumerate() {
            // The first round reads every fact; every later pass has
            // one IDB atom read what the previous round added.
            let passes: Vec<Option<usize>> = match delta {
                None => vec![None],
                Some(_) => (0..rule.body.len())
                    .filter(|&i| model.idb.contains_key(&rule.body[i].pred))
                    .map(Some)
                    .collect(),
            };
            for delta_at in passes {
                join(&rule.body, 0, delta_at, &mut Env::new(), &mut round, &mut |env| {
                    let head = ground(&rule.head, env);
                    if !model.idb[&head.pred].contains(&head.args) {
                        let why = || (ri, rule.body.iter().map(|a| ground(a, env)).collect());
                        new.entry(head).or_insert_with(why);
                    }
                });
            }
        }
        if new.is_empty() {
            return model;
        }
        model.stats.rule_firings += new.len() as u64;
        model.stats.tuples_derived += new.len() as u64;
        let mut added = Facts::new();
        for (fact, why) in new {
            model.idb.get_mut(&fact.pred).expect("heads are IDB").insert(fact.args.clone());
            added.entry(fact.pred).or_default().insert(fact.args.clone());
            model.just.insert(fact, why);
        }
        delta = Some(added);
    }
}

/// The facts one round reads — the IDB as of the round's start, what
/// the previous round added, the database for everything else — and
/// the hash lookups built over them on demand, one per `(predicate,
/// reads Δ, bound positions)`.
struct Round<'a> {
    idb: &'a Facts,
    delta: Option<&'a Facts>,
    db: &'a Database,
    lookups: HashMap<(Pred, bool, Vec<usize>), Lookup<'a>>,
}

impl<'a> Round<'a> {
    /// The facts of `atom`'s predicate (only the previous round's if
    /// `from_delta`) that agree with `env` and the atom's constants on
    /// every position those bind.
    fn candidates(&mut self, atom: &Atom, from_delta: bool, env: &Env) -> Vec<&'a Tuple> {
        let (bound, key): (Vec<usize>, Vec<Const>) = atom
            .args
            .iter()
            .enumerate()
            .filter_map(|(i, t)| match t {
                Term::Const(c) => Some((i, *c)),
                Term::Var(v) => value_of(env, *v).map(|c| (i, c)),
            })
            .unzip();
        let (p, idb, delta, db) = (atom.pred, self.idb, self.delta, self.db);
        let entry = self.lookups.entry((p, from_delta, bound));
        let lookup = entry.or_insert_with_key(|(_, _, bound)| {
            let facts: Vec<&'a Tuple> = match idb.get(&p) {
                _ if from_delta => delta.and_then(|d| d.get(&p)).into_iter().flatten().collect(),
                Some(set) => set.iter().collect(),
                None => db.relation(p).into_iter().flat_map(|r| r.iter()).collect(),
            };
            let mut by_key = Lookup::new();
            for t in facts {
                by_key.entry(bound.iter().map(|&i| t[i]).collect()).or_default().push(t);
            }
            by_key
        });
        lookup.get(&key).cloned().unwrap_or_default()
    }
}

/// Calls `emit` once per instantiation of `body[pos..]` that extends
/// `env`, atoms matched in text order, atom `delta_at` reading Δ.
fn join<'a>(
    body: &[Atom],
    pos: usize,
    delta_at: Option<usize>,
    env: &mut Env,
    round: &mut Round<'a>,
    emit: &mut dyn FnMut(&Env),
) {
    let Some(atom) = body.get(pos) else {
        return emit(env);
    };
    for fact in round.candidates(atom, delta_at == Some(pos), env) {
        let mark = env.len();
        if unify(&atom.args, fact, env) {
            join(body, pos + 1, delta_at, env, round, emit);
        }
        env.truncate(mark);
    }
}

/// The value `env` binds `v` to.
fn value_of(env: &Env, v: Var) -> Option<Const> {
    env.iter().find(|&&(w, _)| w == v).map(|&(_, c)| c)
}

/// Extends `env` so that `args` instantiates to `row`; false if a
/// constant or an earlier binding disagrees (the caller truncates what
/// was bound).
fn unify(args: &[Term], row: &[Const], env: &mut Env) -> bool {
    args.len() == row.len()
        && args.iter().zip(row).all(|(t, &c)| match t {
            Term::Const(k) => *k == c,
            Term::Var(v) => match value_of(env, *v) {
                Some(b) => b == c,
                None => {
                    env.push((*v, c));
                    true
                }
            },
        })
}

/// `atom` under `env`, which binds all its variables: a completed body
/// instantiation binds every body variable, and rules are safe.
fn ground(atom: &Atom, env: &Env) -> GroundAtom {
    GroundAtom {
        pred: atom.pred,
        args: atom
            .args
            .iter()
            .map(|t| match t {
                Term::Const(c) => *c,
                Term::Var(v) => value_of(env, *v).expect("bound by the instantiation"),
            })
            .collect(),
    }
}

/// One first-found justification per derived IDB fact, read off the
/// specification's fixpoint: the rule index and the body ground atoms,
/// in rule-text order. The engine records its own
/// ([`crate::eval::evaluate_with_provenance`]); the `engine_equiv`
/// suite validates both with their `check` and asserts they derive the
/// same facts.
pub struct Provenance {
    just: HashMap<GroundAtom, Justification>,
    edb_preds: Vec<Pred>,
}

impl Provenance {
    /// Runs the fixpoint and keeps its justifications.
    pub fn compute(program: &Program, db: &Database) -> Provenance {
        Provenance {
            just: fixpoint(program, db).just,
            edb_preds: program.edb_predicates(),
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
            let mut env = Env::new();
            for (atom, fact) in rule.body.iter().zip(body) {
                if atom.pred != fact.pred || !unify(&atom.args, &fact.args, &mut env) {
                    return Err(format!("{head:?}: body is not an instantiation"));
                }
                if !self.edb_preds.contains(&fact.pred) && !self.just.contains_key(fact) {
                    return Err(format!("{head:?}: body fact {fact:?} unjustified"));
                }
            }
            if !unify(&rule.head.args, &head.args, &mut env) {
                return Err(format!("{head:?}: head is not the rule instantiation"));
            }
        }
        // Well-foundedness: every justification chain reaches EDB leaves.
        // Body facts strictly predate their head in the fixpoint's rounds, so
        // a DFS with an on-path set detects any (impossible) cycle.
        let mut done: HashSet<&GroundAtom> = HashSet::new();
        for root in self.just.keys() {
            let mut on_path: HashSet<&GroundAtom> = HashSet::new();
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
                for b in &self.just[a].1 {
                    stack.push((b, false));
                }
            }
        }
        Ok(())
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
