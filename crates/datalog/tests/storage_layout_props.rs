//! Property tests for the storage layer at a size where it **freezes**:
//! under random interleaved insert/retract/compact/query churn on the
//! gallery and magic-set programs over 24 constants, every read-out of
//! the maintained store equals a from-scratch [`reference::evaluate`]
//! of the mirrored EDB, the recorded provenance passes
//! [`Provenance::check`], the build's iterations, firings and derived
//! tuples are the specification's, and `EvalStats` and provenance (row
//! ids and justifications, compared bit for bit via `Provenance`'s
//! `PartialEq`) are identical at threads 1, 2 and 4.
//!
//! Every database contains the 24-chain and three families of forward
//! skips, so `par` holds 77 rows or more and each unrestricted closure
//! a few hundred: an index registered over existing rows is laid out in
//! segments by one counted pass, the join indexes fold their hot chains
//! into frozen posting segments several times during the build (the
//! freeze threshold is 64 rows, then doubles), a second freeze merges a
//! segment with newer chains, and every script ends by retracting
//! through those segments, compacting — which rebuilds them from the
//! renumbered rows in one pass — and inserting the rows back. The index
//! layouts themselves (one-row keys inline, chains, segments, the bulk
//! build and its promotions) are checked against a brute-force scan by
//! `storage::tests::bulk_and_incremental_builds_equal_the_brute_force_scan`.

use proptest::prelude::*;
use selprop_datalog::ast::{Pred, Program};
use selprop_datalog::db::{Database, Tuple};
use selprop_datalog::eval::Strategy as EvalStrategy;
use selprop_datalog::magic::magic_transform;
use selprop_datalog::parser::parse_program;
use selprop_datalog::{reference, EvalStats, Materialization, Provenance, UpdateRound};

/// Constants `c0 .. c23`.
const N: u8 = 24;
/// How many EDB rows the closing phase of every script retracts.
const TAIL: usize = 8;

/// One churn step: op kind (insert / retract / compact / query) plus
/// two node picks. An insert adds the edge between them; a retract
/// removes an edge the database started with (picked by the pair, so
/// most retracts hit).
type Op = (u8, u8, u8);
type Model = Vec<(Pred, Vec<Tuple>)>;

fn arb_script(max_ops: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..4, 0..N, 0..N), 0..max_ops)
}

fn arb_edges(max_edges: usize) -> impl Strategy<Value = Vec<(u8, u8)>> {
    proptest::collection::vec((0..N, 0..N), 0..max_edges)
}

/// The same gallery the planner property suite uses: the binary
/// recursive ancestor variants plus same-generation.
fn program(idx: usize) -> Program {
    let sources = [
        "?- anc(c0, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), par(Z, Y).",
        "?- anc(c0, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- par(X, Z), anc(Z, Y).",
        "?- anc(c0, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), anc(Z, Y).",
        "?- sg(c0, Y).\nsg(X, Y) :- par(X, Y).\nsg(X, Y) :- par(X, U), sg(U, V), par(V, Y).",
    ];
    parse_program(sources[idx]).unwrap()
}

/// The chain `c0 → c1 → … → c23`, its forward skips of length 2, 5 and
/// 11, then `extra`, duplicates dropped: the initial `par` relation (77
/// rows or more, so its own indexes freeze too), in insertion order.
/// Without `extra` the graph is acyclic and `anc` is the 276 pairs
/// `i < j`; every back edge among the extras or the scripted inserts
/// closes cycles, and every retracted chain edge reroutes or cuts paths.
fn initial_edges(extra: &[(u8, u8)]) -> Vec<(u8, u8)> {
    let mut edges: Vec<(u8, u8)> =
        [1, 2, 5, 11].iter().flat_map(|&d| (0..N - d).map(move |i| (i, i + d))).collect();
    for &e in extra {
        if !edges.contains(&e) {
            edges.push(e);
        }
    }
    edges
}

/// The `par` tuple of an edge (every `c{i}` is interned up front).
fn tuple(p: &Program, (a, b): (u8, u8)) -> Tuple {
    let c = |i: u8| p.symbols.get_constant(&format!("c{i}")).unwrap();
    vec![c(a), c(b)]
}

/// The `par` tuple a scripted insert or retract names.
fn op_tuple(p: &Program, edges: &[(u8, u8)], (kind, a, b): Op) -> Tuple {
    match kind {
        0 => tuple(p, (a, b)),
        _ => tuple(p, edges[(a as usize * N as usize + b as usize) % edges.len()]),
    }
}

/// Everything observable about one churned store: the counters after
/// the build and at the end, every model read-out (one per query op,
/// then three from the closing phase), and the final provenance.
struct Observed {
    built: EvalStats,
    stats: EvalStats,
    models: Vec<Model>,
    prov: Provenance,
}

/// Runs the churn script against a live materialization of `p`, then
/// the closing phase. Compaction runs on demand (op 2) rather than by
/// policy, so it happens at the same script positions at every thread
/// count.
fn churn(
    p: &Program,
    edges: &[(u8, u8)],
    strategy: EvalStrategy,
    script: &[Op],
) -> Result<Observed, TestCaseError> {
    let par = p.symbols.get_predicate("par").unwrap();
    let mut db = Database::new();
    for &e in edges {
        db.insert(par, tuple(p, e));
    }
    let mut m = Materialization::from_database(p, &db, strategy);
    m.set_compaction_policy(None);
    let built = m.stats();
    prop_assert!(m.mem_stats().seg_words > 0, "the build froze no segment");
    let mut models = Vec::new();
    for &op in script {
        match op.0 {
            0 => {
                m.apply(&UpdateRound::new().insert(par, op_tuple(p, edges, op)));
            }
            1 => {
                m.apply(&UpdateRound::new().retract(par, op_tuple(p, edges, op)));
            }
            2 => {
                m.compact();
            }
            _ => models.push(m.idb_database().sorted_models()),
        }
    }
    // The closing phase: retract through the frozen segments (chain
    // edges — much of the closure is over-deleted, then rescued through
    // the skips or lost), compact with those rows dead, insert them back.
    let tail: Vec<Tuple> = edges[..TAIL].iter().map(|&e| tuple(p, e)).collect();
    m.apply(&UpdateRound::new().retract_all(par, &tail));
    models.push(m.idb_database().sorted_models());
    prop_assert!(m.mem_stats().seg_words > 0, "no frozen segment before the compaction");
    m.compact();
    prop_assert_eq!(m.mem_stats().live_rows, m.mem_stats().total_rows);
    prop_assert!(m.mem_stats().seg_words > 0, "no frozen segment after the compaction");
    models.push(m.idb_database().sorted_models());
    m.apply(&UpdateRound::new().insert_all(par, &tail));
    models.push(m.idb_database().sorted_models());
    Ok(Observed { built, stats: m.stats(), models, prov: m.provenance() })
}

/// The counters the model decides, whatever plan computed it.
fn semantic(s: EvalStats) -> (usize, u64, u64) {
    (s.iterations, s.rule_firings, s.tuples_derived)
}

/// What [`churn`] must observe: the from-scratch semantic counters of
/// the build, and the reference model of the mirrored EDB at every
/// read-out.
fn spec(p: &Program, edges: &[(u8, u8)], script: &[Op]) -> ((usize, u64, u64), Vec<Model>) {
    let par = p.symbols.get_predicate("par").unwrap();
    let mut mirror = Database::new();
    for &e in edges {
        mirror.insert(par, tuple(p, e));
    }
    let eval = |db: &Database| reference::evaluate(p, db, EvalStrategy::SemiNaive);
    let built = semantic(eval(&mirror).stats);
    let mut models = Vec::new();
    for &op in script {
        match op.0 {
            0 => {
                mirror.insert(par, op_tuple(p, edges, op));
            }
            1 => {
                mirror.remove(par, &op_tuple(p, edges, op));
            }
            2 => {}
            _ => models.push(eval(&mirror).idb.sorted_models()),
        }
    }
    for &e in &edges[..TAIL] {
        mirror.remove(par, &tuple(p, e));
    }
    let cut = eval(&mirror).idb.sorted_models();
    models.extend([cut.clone(), cut]);
    for &e in &edges[..TAIL] {
        mirror.insert(par, tuple(p, e));
    }
    models.push(eval(&mirror).idb.sorted_models());
    (built, models)
}

/// Churns `p` at threads 1, 2 and 4 against the reference.
fn check(p: &mut Program, extra: &[(u8, u8)], script: &[Op]) -> Result<(), TestCaseError> {
    // Intern every constant the chain and the script can touch.
    for k in 0..N {
        p.symbols.constant(&format!("c{k}"));
    }
    let edges = initial_edges(extra);
    let (built, models) = spec(p, &edges, script);
    let mut sequential: Option<Observed> = None;
    for threads in [1usize, 2, 4] {
        let strategy = if threads == 1 {
            EvalStrategy::SemiNaive
        } else {
            EvalStrategy::SemiNaiveParallel { threads }
        };
        let got = churn(p, &edges, strategy, script)?;
        prop_assert_eq!(semantic(got.built), built, "threads={}: build counters", threads);
        prop_assert_eq!(got.models.len(), models.len());
        let drift = got.models.iter().zip(&models).position(|(a, b)| a != b);
        prop_assert!(drift.is_none(), "threads={}: model drift at read-out {:?}", threads, drift);
        got.prov.check(p).map_err(TestCaseError::fail)?;
        // Every run does exactly what the sequential one did.
        if let Some(base) = &sequential {
            prop_assert_eq!(got.built, base.built, "threads={}: build EvalStats drift", threads);
            prop_assert_eq!(got.stats, base.stats, "threads={}: EvalStats drift", threads);
            prop_assert!(
                got.prov == base.prov,
                "threads={}: row-id/justification drift",
                threads
            );
        } else {
            sequential = Some(got);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Gallery programs under churn, every thread count, one
    /// observation contract.
    #[test]
    fn frozen_segments_survive_churn(
        idx in 0usize..4,
        extra in arb_edges(30),
        script in arb_script(12),
    ) {
        check(&mut program(idx), &extra, &script)?;
    }

    /// Magic-set rewritten programs (guard-heavy rules, the shapes the
    /// planner rewrites hardest) under the same churn contract.
    #[test]
    fn magic_frozen_segments_survive_churn(
        idx in 0usize..4,
        extra in arb_edges(30),
        script in arb_script(10),
    ) {
        check(&mut magic_transform(&program(idx)).unwrap().program, &extra, &script)?;
    }
}
