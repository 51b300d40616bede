//! Batch evaluation entry points: semi-naive and parallel semi-naive
//! fixpoints with instrumented statistics.
//!
//! Minimum-model semantics per Section 2.1 of the paper: the output of a
//! program on a database is the least set of ground atoms containing the
//! database and closed under the rules; the goal then applies a
//! selection/projection. The evaluator reports *work counters*
//! ([`EvalStats`]) — rule firings, join probes, derived tuples — because
//! the paper's performance claims (Example 1.1: Program D ≪ Programs A–C;
//! Section 7: magic pruning) are about work, not wall-clock on any
//! particular machine.
//!
//! # Engine architecture
//!
//! **Batch evaluation is a special case of the persistent engine**:
//! [`evaluate`], [`answer`] and [`evaluate_with_provenance`] are thin
//! wrappers that build a
//! [`crate::materialize::Materialization`], bulk-load the database, run
//! one fixpoint and read the result out. The join machinery — flat
//! columnar [`crate::storage`], watermark snapshots, compiled rule
//! plans, depth-0-sharded parallel rounds — lives in
//! [`crate::materialize`]; what this module owns is the strategy/stat
//! vocabulary and the goal selection/projection.
//!
//! The executable specification is [`crate::reference`]: the minimum
//! model by textbook semi-naive iteration of the immediate-consequence
//! operator in rule-text order, sharing no planner, join, storage or
//! fixpoint code with the engine. The property suites assert the engine
//! computes its model and answers, and — under every strategy, body
//! order and thread count — its `iterations`, `rule_firings` and
//! `tuples_derived`.
//! `join_probes` depends on the plan, so it is checked engine against
//! engine (equal at every thread count), pinned to literal values on
//! fixed inputs, and bounded by the closed forms of
//! `tests/update_complexity.rs`.

use crate::ast::{Atom, Const, Program, Term, Var};
use crate::db::{Database, Relation};
use crate::hash::FxHashSet;
use crate::derivation::Provenance;
use crate::materialize::Materialization;
use crate::plan::OrderMode;

/// First-join-step shards per worker thread in
/// [`Strategy::SemiNaiveParallel`] (`shards = OVERSHARD × threads`, the
/// only shard count the engine runs): each `(rule, delta step)` work
/// item partitions its first body atom's row range into this many
/// contiguous slices per thread. Oversharding keeps the threads busy
/// when per-shard work is skewed: one that finishes a cheap shard pulls
/// the next one instead of idling until the slowest shard finishes. The
/// deterministic `(rule, delta, shard)` merge order and the lead-shard
/// depth-0 probe accounting are shard-count-independent, so
/// [`EvalStats`] stays bit-for-bit identical at any thread count.
pub const OVERSHARD: usize = 4;

/// Evaluation strategy. Both are semi-naive — each derivation uses at
/// least one last-iteration fact — and compute the same rows, row ids,
/// justifications and [`EvalStats`]; they differ in the threads a round
/// runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Delta-driven evaluation on the calling thread.
    SemiNaive,
    /// Semi-naive evaluation with each `(rule, delta step)`'s **first
    /// join step** range-sharded over the threads of one
    /// [`std::thread::scope`] per round — never more threads than the
    /// round has shards, so a one-row delta runs inline.
    /// Counter-identical to [`Strategy::SemiNaive`] by construction —
    /// and, because top-down shards of the first step's descending
    /// enumeration concatenate back into exactly the sequential staging
    /// order, row-id- and justification-identical too. The range is
    /// oversharded ([`OVERSHARD`]` × threads` shards) for load balance.
    /// `threads <= 1` degenerates to the sequential code path.
    SemiNaiveParallel {
        /// Threads per round, the caller's among them (`0`, `1`: sequential).
        threads: usize,
    },
}

/// Work counters accumulated during evaluation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Number of fixpoint iterations until convergence.
    pub iterations: usize,
    /// Productive firings: head rows appended at a round's merge (or
    /// restored by a DRed rescue); re-deriving a stored row is not one.
    pub rule_firings: u64,
    /// Distinct new tuples added to IDB relations.
    pub tuples_derived: u64,
    /// Index probes performed by the join machinery.
    pub join_probes: u64,
}

impl EvalStats {
    /// Total work proxy used by the experiment harness (firings + probes).
    pub fn work(&self) -> u64 {
        self.rule_firings + self.join_probes
    }
}

/// The result of a fixpoint evaluation.
#[derive(Clone, Debug)]
pub struct EvalResult {
    /// Database containing the computed IDB relations.
    pub idb: Database,
    /// Work counters.
    pub stats: EvalStats,
}

/// Evaluates `program` on `db` to the minimum model, returning the IDB
/// relations and statistics.
///
/// A thin wrapper over the persistent engine: build a
/// [`Materialization`], run the batch fixpoint, read the model out. Use
/// [`Materialization::from_database`] directly to keep the state and
/// absorb updates instead of recomputing.
pub fn evaluate(program: &Program, db: &Database, strategy: Strategy) -> EvalResult {
    evaluate_cfg(program, db, strategy, OrderMode::Planned)
}

/// [`evaluate`] under an explicit [`OrderMode`] — the hook the planner
/// property suites use to force adversarial body orders
/// ([`OrderMode::Shuffled`]) on a batch evaluation; a maintained store
/// takes it through [`Materialization::from_database_with`].
pub fn evaluate_cfg(
    program: &Program,
    db: &Database,
    strategy: Strategy,
    order: OrderMode,
) -> EvalResult {
    Materialization::batch(program, db, strategy, false, order).0.into_result()
}

/// Evaluates and applies the goal: the answer relation (arity = number of
/// distinct goal variables) plus statistics.
///
/// Unlike [`evaluate`], this never materializes the full IDB model as a
/// [`Database`]: the goal's selection/projection runs directly over the
/// columnar rows of the goal predicate.
pub fn answer(program: &Program, db: &Database, strategy: Strategy) -> (Relation, EvalStats) {
    let m = Materialization::batch(program, db, strategy, false, OrderMode::Planned).0;
    (m.goal_answer(&program.goal), m.stats())
}

/// Evaluates `program` on `db` while recording **one first-found
/// justification per derived row**: the rule index and the body row ids
/// that instantiated it, captured at staging time inside the join.
///
/// The returned [`Provenance`] holds the evaluated store itself. Its
/// [`Provenance::stats`] are the store's work counters, bit-for-bit
/// those of a plain [`evaluate`] with the same strategy (recording adds
/// no probes or firings). The IDB model is not read out eagerly:
/// [`Provenance::idb_database`] converts on demand, so provenance-only
/// consumers (tree metrics, boundedness measurements) skip that
/// O(model) copy.
///
/// Justifications are deterministic and **thread-count independent**:
/// the sequential engine's staging order is the lexicographic-descending
/// order of the per-step row coordinates, and the parallel engine's
/// shards partition the first step's row range top-down, so
/// concatenating their staged rows in `(rule, delta, shard)` order *is*
/// that sequential order. Any [`Strategy`] therefore yields the same
/// row ids, the same justifications, and the same [`EvalStats`] as
/// sequential semi-naive.
pub fn evaluate_with_provenance(
    program: &Program,
    db: &Database,
    strategy: Strategy,
) -> Provenance {
    evaluate_with_provenance_cfg(program, db, strategy, OrderMode::Planned)
}

/// [`evaluate_with_provenance`] under an explicit [`OrderMode`]:
/// whatever the body order, the recorded justifications stay positional
/// instantiations of the rule text (the staging permutes matched rows
/// back to rule-body order), so [`Provenance::check`] must pass for
/// every order.
pub fn evaluate_with_provenance_cfg(
    program: &Program,
    db: &Database,
    strategy: Strategy,
    order: OrderMode,
) -> Provenance {
    Provenance::new(Materialization::batch(program, db, strategy, true, order).0)
}

// ---------------------------------------------------------------------
// Goal application
// ---------------------------------------------------------------------

/// One compiled goal position.
#[derive(Clone, Copy, Debug)]
pub(crate) enum GoalOp {
    /// The tuple value must equal this constant.
    Const(Const),
    /// First occurrence of the k-th distinct variable: bind it.
    First(usize),
    /// Repeated occurrence of the k-th distinct variable: must match.
    Repeat(usize),
}

/// Compiles a goal atom to per-position ops plus the distinct-variable
/// count. Distinct variables are numbered in first-occurrence order, so
/// the binding array *is* the projected output tuple.
pub(crate) fn goal_plan(goal: &Atom) -> (Vec<GoalOp>, usize) {
    let mut vars: Vec<Var> = Vec::new();
    let ops = goal
        .args
        .iter()
        .map(|t| match t {
            Term::Const(c) => GoalOp::Const(*c),
            Term::Var(v) => match vars.iter().position(|w| w == v) {
                Some(k) => GoalOp::Repeat(k),
                None => {
                    vars.push(*v);
                    GoalOp::First(vars.len() - 1)
                }
            },
        })
        .collect();
    (ops, vars.len())
}

/// Runs a compiled goal over any tuple stream: selection by constants and
/// repeated variables, projection onto the distinct variables in
/// first-occurrence order (the binding array *is* the output tuple).
/// The answer is collected in a plain set and wrapped once
/// ([`Relation`]'s `insert` would check ownership per tuple).
pub(crate) fn select_project<'a>(
    ops: &[GoalOp],
    nvars: usize,
    rows: impl Iterator<Item = &'a [Const]>,
) -> Relation {
    let mut out = FxHashSet::default();
    // fixed-size binding array, reused across tuples (no per-tuple map)
    let mut bind = vec![Const(0); nvars];
    'rows: for row in rows {
        debug_assert_eq!(row.len(), ops.len());
        for (i, op) in ops.iter().enumerate() {
            match *op {
                GoalOp::Const(c) => {
                    if row[i] != c {
                        continue 'rows;
                    }
                }
                GoalOp::First(k) => bind[k] = row[i],
                GoalOp::Repeat(k) => {
                    if bind[k] != row[i] {
                        continue 'rows;
                    }
                }
            }
        }
        out.insert(bind.clone());
    }
    Relation::from_set(nvars, out)
}

/// Applies a goal atom as a selection + projection: keeps tuples matching
/// the goal's constants and repeated variables, projected onto the
/// distinct variables in first-occurrence order.
pub fn apply_goal(goal: &Atom, rel: &Relation) -> Relation {
    let (ops, nvars) = goal_plan(goal);
    select_project(&ops, nvars, rel.iter().map(Vec::as_slice))
}

/// Semi-naive convergence profile: new facts per productive iteration
/// (the executable form of Section 8's boundedness measure). Stage-exact:
/// iteration `k` derives precisely the facts first derivable at stage `k`
/// of the immediate-consequence operator, so this equals the naive
/// round-by-round count at a fraction of the cost. The parallel engine
/// produces the same per-stage deltas as the sequential one.
pub(crate) fn seminaive_profile(program: &Program, db: &Database, strategy: Strategy) -> Vec<u64> {
    Materialization::batch(program, db, strategy, false, OrderMode::Planned).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn chain_db(program: &mut Program, n: usize) -> Database {
        // par chain: c0 -> c1 -> ... -> cn, with john = c0
        let par = program.symbols.get_predicate("par").unwrap();
        let mut db = Database::new();
        let mut prev = program.symbols.constant("john");
        for i in 1..=n {
            let c = program.symbols.constant(&format!("c{i}"));
            db.insert(par, vec![prev, c]);
            prev = c;
        }
        db
    }

    fn program_a() -> Program {
        parse_program(
            "?- anc(john, Y).\n\
             anc(X, Y) :- par(X, Y).\n\
             anc(X, Y) :- anc(X, Z), par(Z, Y).",
        )
        .unwrap()
    }

    #[test]
    fn program_b_right_linear_same_answers() {
        let mut pb = parse_program(
            "?- anc(john, Y).\n\
             anc(X, Y) :- par(X, Y).\n\
             anc(X, Y) :- par(X, Z), anc(Z, Y).",
        )
        .unwrap();
        let db = chain_db(&mut pb, 6);
        let (ans, _) = answer(&pb, &db, Strategy::SemiNaive);
        assert_eq!(ans.len(), 6);
    }

    #[test]
    fn program_c_nonlinear_same_answers() {
        let mut pc = parse_program(
            "?- anc(john, Y).\n\
             anc(X, Y) :- par(X, Y).\n\
             anc(X, Y) :- anc(X, Z), anc(Z, Y).",
        )
        .unwrap();
        let db = chain_db(&mut pc, 6);
        let (ans, _) = answer(&pc, &db, Strategy::SemiNaive);
        assert_eq!(ans.len(), 6);
    }

    #[test]
    fn program_d_monadic_same_answers() {
        let mut pd = parse_program(
            "?- ancjohn(Y).\n\
             ancjohn(Y) :- par(john, Y).\n\
             ancjohn(Y) :- ancjohn(Z), par(Z, Y).",
        )
        .unwrap();
        let db = chain_db(&mut pd, 6);
        let (ans, _) = answer(&pd, &db, Strategy::SemiNaive);
        assert_eq!(ans.len(), 6);
    }

    #[test]
    fn example_1_1_all_four_programs_agree() {
        // The paper's semantic-equivalence claim, checked on a branching DB.
        let sources = [
            "?- anc(john, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), par(Z, Y).",
            "?- anc(john, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- par(X, Z), anc(Z, Y).",
            "?- anc(john, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), anc(Z, Y).",
            "?- ancjohn(Y).\nancjohn(Y) :- par(john, Y).\nancjohn(Y) :- ancjohn(Z), par(Z, Y).",
        ];
        let mut answers = Vec::new();
        for src in sources {
            let mut p = parse_program(src).unwrap();
            let par = p.symbols.get_predicate("par").unwrap();
            let mut db = Database::new();
            let names = ["john", "a", "b", "c", "d", "e"];
            let cs: Vec<Const> = names.iter().map(|n| p.symbols.constant(n)).collect();
            // tree: john->a, john->b, a->c, b->d, d->e, plus an unrelated edge e->john? no: keep acyclic
            for (i, j) in [(0, 1), (0, 2), (1, 3), (2, 4), (4, 5)] {
                db.insert(par, vec![cs[i], cs[j]]);
            }
            let (ans, _) = answer(&p, &db, Strategy::SemiNaive);
            answers.push(ans.sorted());
        }
        for w in answers.windows(2) {
            assert_eq!(w[0], w[1], "Example 1.1 programs must be equivalent");
        }
        assert_eq!(answers[0].len(), 5);
    }

    #[test]
    fn goal_selection_with_repeated_vars() {
        // cycle program: p(X, X) finds nodes on cycles
        let mut p = parse_program(
            "?- p(X, X).\n\
             p(X, Y) :- b(X, Y).\n\
             p(X, Y) :- p(X, Z), b(Z, Y).",
        )
        .unwrap();
        let b = p.symbols.get_predicate("b").unwrap();
        let mut db = Database::new();
        let c: Vec<Const> = (0..5).map(|i| p.symbols.constant(&format!("n{i}"))).collect();
        // cycle n0->n1->n2->n0 and tail n3->n4
        for (i, j) in [(0, 1), (1, 2), (2, 0), (3, 4)] {
            db.insert(b, vec![c[i], c[j]]);
        }
        let (ans, _) = answer(&p, &db, Strategy::SemiNaive);
        assert_eq!(ans.len(), 3); // exactly the cycle nodes
        assert!(ans.contains(&[c[0]]));
        assert!(!ans.contains(&[c[3]]));
    }

    #[test]
    fn boolean_goal() {
        let p = parse_program(
            "?- p(a, b).\n\
             p(X, Y) :- b(X, Y).\n\
             p(X, Y) :- p(X, Z), b(Z, Y).",
        )
        .unwrap();
        let b = p.symbols.get_predicate("b").unwrap();
        let ca = p.symbols.get_constant("a").unwrap();
        let cb = p.symbols.get_constant("b").unwrap();
        let mut db = Database::new();
        db.insert(b, vec![ca, cb]);
        let (ans, _) = answer(&p, &db, Strategy::SemiNaive);
        assert_eq!(ans.arity(), 0);
        assert_eq!(ans.len(), 1); // true

        let mut db2 = Database::new();
        db2.insert(b, vec![cb, ca]);
        let (ans2, _) = answer(&p, &db2, Strategy::SemiNaive);
        assert_eq!(ans2.len(), 0); // false
    }

    #[test]
    fn constants_in_rule_bodies() {
        let mut p = parse_program(
            "?- reach(Y).\n\
             reach(Y) :- e(root, Y).\n\
             reach(Y) :- reach(X), e(X, Y).",
        )
        .unwrap();
        let e = p.symbols.get_predicate("e").unwrap();
        let root = p.symbols.get_constant("root").unwrap();
        let c: Vec<Const> = (0..4).map(|i| p.symbols.constant(&format!("m{i}"))).collect();
        let mut db = Database::new();
        db.insert(e, vec![root, c[0]]);
        db.insert(e, vec![c[0], c[1]]);
        db.insert(e, vec![c[2], c[3]]); // unreachable from root
        let (ans, _) = answer(&p, &db, Strategy::SemiNaive);
        assert_eq!(ans.len(), 2);
    }

    #[test]
    fn empty_database_converges() {
        let p = program_a();
        let db = Database::new();
        let (ans, stats) = answer(&p, &db, Strategy::SemiNaive);
        assert_eq!(ans.len(), 0);
        assert!(stats.iterations <= 2);
    }

    #[test]
    fn same_generation_nonlinear() {
        let mut p = parse_program(
            "?- sg(a, Y).\n\
             sg(X, Y) :- flat(X, Y).\n\
             sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).",
        )
        .unwrap();
        let up = p.symbols.get_predicate("up").unwrap();
        let flat = p.symbols.get_predicate("flat").unwrap();
        let down = p.symbols.get_predicate("down").unwrap();
        let names = ["a", "b", "p1", "p2", "q1", "q2"];
        let cs: Vec<Const> = names.iter().map(|n| p.symbols.constant(n)).collect();
        let mut db = Database::new();
        // a up p1, b up p2, p1 flat p2, p2 down b... build so sg(a,b) holds
        db.insert(up, vec![cs[0], cs[2]]);
        db.insert(flat, vec![cs[2], cs[3]]);
        db.insert(down, vec![cs[3], cs[1]]);
        let (ans, _) = answer(&p, &db, Strategy::SemiNaive);
        assert!(ans.contains(&[cs[1]]));
    }

    #[test]
    fn stats_on_a_nine_edge_chain_are_pinned() {
        // Literal work counters — `[iterations, rule_firings,
        // tuples_derived, join_probes]` — on `chain_db(9)`. A change that
        // moves one (a probe count is the plan's) edits this table and
        // says why. The model and the three counters it decides are also
        // the specification's.
        let pinned = [
            (
                "?- anc(john, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), par(Z, Y).",
                [10, 45, 45, 55],
            ),
            (
                "?- anc(john, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), anc(Z, Y).",
                [6, 45, 45, 101],
            ),
            (
                "?- p(X, X).\np(X, Y) :- par(X, Y).\np(X, Y) :- p(X, Z), par(Z, Y).",
                [10, 45, 45, 55],
            ),
        ];
        for (src, [iterations, rule_firings, tuples_derived, join_probes]) in pinned {
            let mut p = parse_program(src).unwrap();
            let db = chain_db(&mut p, 9);
            let want = EvalStats {
                iterations: iterations as usize,
                rule_firings,
                tuples_derived,
                join_probes,
            };
            let got = evaluate(&p, &db, Strategy::SemiNaive);
            assert_eq!(got.stats, want, "{src}");
            let spec = crate::reference::evaluate(&p, &db, Strategy::SemiNaive);
            assert_eq!(spec.stats, EvalStats { join_probes: 0, ..want }, "{src}");
            assert_eq!(got.idb.sorted_models(), spec.idb.sorted_models(), "{src}");
        }
    }

    #[test]
    fn answer_skips_database_materialization_but_agrees() {
        let mut p = program_a();
        let db = chain_db(&mut p, 7);
        let (fast, s1) = answer(&p, &db, Strategy::SemiNaive);
        let result = evaluate(&p, &db, Strategy::SemiNaive);
        let anc = p.symbols.get_predicate("anc").unwrap();
        let slow = apply_goal(&p.goal, result.idb.relation(anc).unwrap());
        assert_eq!(fast.sorted(), slow.sorted());
        assert_eq!(s1, result.stats);
    }

    /// Unsorted per-predicate rows: observes insertion (row-id) order.
    fn raw_model(result: &EvalResult) -> Vec<(u32, Vec<Vec<Const>>)> {
        let mut v: Vec<(u32, Vec<Vec<Const>>)> = result
            .idb
            .iter()
            .map(|(p, r)| (p.0, r.iter().cloned().collect()))
            .collect();
        v.sort_by_key(|(p, _)| *p);
        v
    }

    #[test]
    fn parallel_matches_sequential_stats_and_model() {
        let sources = [
            "?- anc(john, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), par(Z, Y).",
            "?- anc(john, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- par(X, Z), anc(Z, Y).",
            "?- anc(john, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), anc(Z, Y).",
            "?- p(X, X).\np(X, Y) :- par(X, Y).\np(X, Y) :- p(X, Z), par(Z, Y).",
        ];
        for src in sources {
            let mut p = parse_program(src).unwrap();
            let db = chain_db(&mut p, 9);
            let seq = evaluate(&p, &db, Strategy::SemiNaive);
            for threads in [2, 3, 8] {
                let par = evaluate(&p, &db, Strategy::SemiNaiveParallel { threads });
                assert_eq!(par.stats, seq.stats, "{src} threads={threads}");
                let mut a = raw_model(&par);
                let mut b = raw_model(&seq);
                for (_, rows) in a.iter_mut().chain(b.iter_mut()) {
                    rows.sort();
                }
                assert_eq!(a, b, "{src} threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_one_thread_is_the_sequential_path_byte_for_byte() {
        // `threads <= 1` routes through the sequential code path, so even
        // the row ids (insertion order) are identical.
        let mut p = program_a();
        let db = chain_db(&mut p, 8);
        let seq = evaluate(&p, &db, Strategy::SemiNaive);
        for threads in [0, 1] {
            let par = evaluate(&p, &db, Strategy::SemiNaiveParallel { threads });
            assert_eq!(par.stats, seq.stats);
            assert_eq!(raw_model(&par), raw_model(&seq), "insertion order must match");
        }
    }

    #[test]
    fn parallel_is_deterministic_per_thread_count() {
        // Same thread count => identical row ids across runs (the merge
        // applies staged buffers in (rule, delta, shard) order).
        let mut p = parse_program(
            "?- anc(john, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), anc(Z, Y).",
        )
        .unwrap();
        let db = chain_db(&mut p, 10);
        let first = evaluate(&p, &db, Strategy::SemiNaiveParallel { threads: 4 });
        for _ in 0..3 {
            let again = evaluate(&p, &db, Strategy::SemiNaiveParallel { threads: 4 });
            assert_eq!(again.stats, first.stats);
            assert_eq!(raw_model(&again), raw_model(&first));
        }
    }

    #[test]
    fn parallel_matches_sequential_row_order_exactly() {
        // Depth-0 sharding: shards are top-down subranges of the first
        // step's descending enumeration, so the merged insertion order
        // reproduces the sequential engine's row ids for EVERY rule
        // shape — delta at the front (Program A), mid-body delta
        // (Program B / E5's shape), and nonlinear (Program C).
        let sources = [
            "?- anc(john, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), par(Z, Y).",
            "?- anc(john, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- par(X, Z), anc(Z, Y).",
            "?- anc(john, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), anc(Z, Y).",
        ];
        for src in sources {
            let mut p = parse_program(src).unwrap();
            let db = chain_db(&mut p, 12);
            let seq = evaluate(&p, &db, Strategy::SemiNaive);
            for threads in [2, 4] {
                let par = evaluate(&p, &db, Strategy::SemiNaiveParallel { threads });
                assert_eq!(par.stats, seq.stats, "{src} threads={threads}");
                assert_eq!(raw_model(&par), raw_model(&seq), "{src} threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_answer_and_profile_agree() {
        let mut p = program_a();
        let db = chain_db(&mut p, 7);
        let (seq_ans, seq_stats) = answer(&p, &db, Strategy::SemiNaive);
        let (par_ans, par_stats) = answer(&p, &db, Strategy::SemiNaiveParallel { threads: 3 });
        assert_eq!(par_ans.sorted(), seq_ans.sorted());
        assert_eq!(par_stats, seq_stats);
        assert_eq!(
            seminaive_profile(&p, &db, Strategy::SemiNaive),
            seminaive_profile(&p, &db, Strategy::SemiNaiveParallel { threads: 3 }),
        );
    }

    #[test]
    fn parallel_empty_database_converges() {
        let p = program_a();
        let db = Database::new();
        let (ans, stats) = answer(&p, &db, Strategy::SemiNaiveParallel { threads: 4 });
        assert_eq!(ans.len(), 0);
        assert!(stats.iterations <= 2);
    }

    #[test]
    fn parallel_more_threads_than_delta_rows() {
        // Shards beyond the first step's size are empty and skipped; the
        // lead shard still accounts the sequential probe counts.
        let mut p = program_a();
        let db = chain_db(&mut p, 2);
        let seq = evaluate(&p, &db, Strategy::SemiNaive);
        let par = evaluate(&p, &db, Strategy::SemiNaiveParallel { threads: 16 });
        assert_eq!(par.stats, seq.stats);
    }

    #[test]
    fn apply_goal_repeated_vars_and_constants() {
        let mut sy = crate::ast::Symbols::new();
        let p = sy.predicate("p");
        let a = sy.constant("a");
        let b = sy.constant("b");
        let x = sy.variable("X");
        // goal p(a, X, X): select first = a, positions 2 = 3, project X
        let goal = Atom::new(p, vec![Term::Const(a), Term::Var(x), Term::Var(x)]);
        let rel: Relation = [vec![a, b, b], vec![a, a, b], vec![b, b, b], vec![a, a, a]]
            .into_iter()
            .collect();
        let out = apply_goal(&goal, &rel);
        assert_eq!(out.arity(), 1);
        assert_eq!(out.sorted(), vec![vec![a], vec![b]]);
    }
}
