//! Property tests for the magic-set query cache ([`selprop_datalog::cache`]):
//! random interleavings of EDB inserts, retracts and bound queries
//! against a live [`QueryCache`] must agree, at every step, with a
//! from-scratch magic transform of the *current* EDB — across the
//! sequential and parallel evaluation strategies — and eviction
//! pressure must never change an answer, only the cost of producing it.
//! The last property throws everything else in as well: rule adds and
//! drops, a second binding pattern, base compactions, and view budgets
//! small enough that template stores fill with dropped views' rows and
//! are compacted under the live ones.
//!
//! A view also memoises its answer (`cache` module docs, "Answers"):
//! the same script, with every goal asked twice after every step, shows
//! that no memo outlives a change to its view, and the tests at the end
//! count — through `QueryCache::answer_builds` — which answers a round
//! makes the next reader build again: those of the views it changed.
//! The last property runs such scripts through a [`Server`] with pinned
//! snapshots, and shows that a memo is never served to a pin outside the
//! epochs it answers.

use std::collections::VecDeque;

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use selprop_datalog::ast::{Atom, Const, Pred, Program, Term, Var};
use selprop_datalog::db::{Database, Tuple};
use selprop_datalog::eval::{answer, Strategy as EvalStrategy};
use selprop_datalog::magic::magic_transform;
use selprop_datalog::materialize::Materialization;
use selprop_datalog::parser::parse_program;
use selprop_datalog::{
    reference, CacheConfig, CompactionPolicy, QueryCache, Rule, RuleId, Server, Snapshot,
    UpdateRound,
};

/// The recursive ancestor variants of Example 1.1 plus same-generation
/// — linear, right-linear and nonlinear recursion shapes.
fn program(idx: usize) -> Program {
    let sources = [
        "?- anc(c0, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), par(Z, Y).",
        "?- anc(c0, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- par(X, Z), anc(Z, Y).",
        "?- sg(c0, Y).\nsg(X, Y) :- par(X, Y).\nsg(X, Y) :- par(X, U), sg(U, V), par(V, Y).",
    ];
    parse_program(sources[idx]).unwrap()
}

fn strategy(threads: usize) -> EvalStrategy {
    if threads <= 1 {
        EvalStrategy::SemiNaive
    } else {
        EvalStrategy::SemiNaiveParallel { threads }
    }
}

/// The from-scratch reference: bake the concrete goal into the program,
/// magic-transform, and batch-evaluate over the current EDB.
fn oracle(p: &Program, goal: &Atom, edb: &Database) -> Vec<Tuple> {
    let mut pg = p.clone();
    pg.goal = goal.clone();
    let m = magic_transform(&pg).expect("transformable goal");
    let (ans, _) = answer(&m.program, edb, EvalStrategy::SemiNaive);
    ans.sorted()
}

/// Interns the node constants and the query variable up front so every
/// later `Const`/`Var` id is stable across program clones.
fn setup(p: &mut Program, n: usize) -> (Vec<Const>, Var) {
    let nodes = (0..n)
        .map(|i| p.symbols.constant(&format!("c{i}")))
        .collect();
    let qy = p.symbols.variable("QY");
    (nodes, qy)
}

/// Deduplicated random edge pool over `nodes` (one mirror slot per
/// distinct edge, so the present/absent bookkeeping stays exact).
fn dedup_pool(nodes: &[Const], raw: &[(u8, u8)]) -> Vec<(Const, Const)> {
    let mut pool: Vec<(Const, Const)> = raw
        .iter()
        .map(|&(a, b)| (nodes[a as usize % nodes.len()], nodes[b as usize % nodes.len()]))
        .collect();
    pool.sort();
    pool.dedup();
    pool
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole property: however inserts, retracts and bound
    /// queries interleave — and whatever strategy maintains the base —
    /// every cached answer is bit-identical to rebuilding the magic
    /// program from scratch on the current EDB.
    #[test]
    fn interleaved_churn_matches_scratch_oracle(
        idx in 0usize..3,
        tsel in 0usize..3,
        raw_pool in proptest::collection::vec((0u8..6, 0u8..6), 4..16),
        ops in proptest::collection::vec((0u8..3, 0u8..16, 0u8..6), 1..20),
    ) {
        let threads = [1usize, 2, 4][tsel];
        let mut p = program(idx);
        let (nodes, qy) = setup(&mut p, 6);
        let par = p.symbols.get_predicate("par").unwrap();
        let goal_pred = p.goal.pred;
        let pool = dedup_pool(&nodes, &raw_pool);

        let mut present = vec![false; pool.len()];
        let mut edb = Database::new();
        let mut base = Materialization::from_database(&p, &edb, strategy(threads));
        let mut cache = QueryCache::new(&p);

        for (kind, ei, node) in ops {
            let ei = ei as usize % pool.len();
            let edge: Tuple = vec![pool[ei].0, pool[ei].1];
            match kind {
                0 => {
                    if !present[ei] {
                        present[ei] = true;
                        base.apply(&UpdateRound::new().insert(par, edge.clone()));
                        edb.insert(par, edge);
                    }
                }
                1 => {
                    if present[ei] {
                        present[ei] = false;
                        base.apply(&UpdateRound::new().retract(par, edge.clone()));
                        edb.remove(par, &edge);
                    }
                }
                _ => {
                    let c = nodes[node as usize];
                    let goal = Atom::new(goal_pred, vec![Term::Const(c), Term::Var(qy)]);
                    prop_assert_eq!(
                        cache.query(&mut base, &goal).sorted(),
                        oracle(&p, &goal, &edb)
                    );
                }
            }
        }

        // Final sweep: every binding constant, plus the all-free goal
        // (routed direct — must equal the full model's projection).
        for &c in &nodes {
            let goal = Atom::new(goal_pred, vec![Term::Const(c), Term::Var(qy)]);
            prop_assert_eq!(
                cache.query(&mut base, &goal).sorted(),
                oracle(&p, &goal, &edb)
            );
        }
        let qx = p.symbols.variable("QX");
        let free = Atom::new(goal_pred, vec![Term::Var(qx), Term::Var(qy)]);
        prop_assert_eq!(
            cache.query(&mut base, &free).sorted(),
            oracle(&p, &free, &edb)
        );
    }

    /// Eviction-then-requery equivalence: a cache squeezed to zero, one
    /// or two view slots — or to a row budget a single view can exceed —
    /// thrashes across six keys and still answers every query exactly
    /// like the from-scratch transform; every view it ever built is
    /// live or was evicted, and the template was compiled once.
    #[test]
    fn eviction_never_changes_answers(
        idx in 0usize..3,
        raw_pool in proptest::collection::vec((0u8..6, 0u8..6), 6..18),
        rounds in 1usize..4,
        limit in 0usize..4,
    ) {
        let mut p = program(idx);
        let (nodes, qy) = setup(&mut p, 6);
        let par = p.symbols.get_predicate("par").unwrap();
        let goal_pred = p.goal.pred;
        let pool = dedup_pool(&nodes, &raw_pool);

        let mut edb = Database::new();
        for &(a, b) in &pool {
            edb.insert(par, vec![a, b]);
        }
        let mut base = Materialization::from_database(&p, &edb, EvalStrategy::SemiNaive);
        let config = [
            CacheConfig { max_views: 0, max_rows: 1 << 20 },
            CacheConfig { max_views: 1, max_rows: 1 << 20 },
            CacheConfig { max_views: 2, max_rows: 1 << 20 },
            CacheConfig { max_views: 64, max_rows: 12 },
        ][limit];
        let mut cache = QueryCache::with_config(&p, config);

        for _ in 0..rounds {
            for &c in &nodes {
                let goal = Atom::new(goal_pred, vec![Term::Const(c), Term::Var(qy)]);
                prop_assert_eq!(
                    cache.query(&mut base, &goal).sorted(),
                    oracle(&p, &goal, &edb)
                );
            }
        }
        let s = cache.stats();
        prop_assert!(s.views <= config.max_views);
        if limit < 3 {
            prop_assert!(s.evictions > 0, "six keys through two slots must evict");
        }
        prop_assert_eq!(s.misses, s.evictions + s.views as u64);
        prop_assert_eq!((s.template_compiles, s.invalidations), (1, 0));
    }

    /// Everything at once. Over eight nodes: EDB inserts and retracts,
    /// queries under two binding patterns (two templates), a rule added
    /// to the base and dropped again, explicit base compactions next to
    /// the ones an aggressive policy triggers, and a view budget of 0,
    /// 1, 2 or 64 views — or of a handful of rows — so that views are
    /// dropped, come back under fresh tags, and their template stores
    /// are compacted under the ones still live. Every answer equals the
    /// from-scratch magic evaluation of the current rules over the
    /// current EDB, through the write path and, where the view is
    /// synced, the read path.
    #[test]
    fn every_interleaving_matches_the_scratch_oracle(
        idx in 0usize..3,
        limit in 0usize..5,
        aggressive in 0u8..3,
        raw_pool in proptest::collection::vec((0u8..8, 0u8..8), 12..28),
        ops in proptest::collection::vec((0u8..32, 0u8..28, 0u8..8), 20..120),
    ) {
        let mut p = program(idx);
        let (nodes, qy) = setup(&mut p, 8);
        let qx = p.symbols.variable("QX");
        let par = p.symbols.get_predicate("par").unwrap();
        let goal_pred = p.goal.pred;
        let pool = dedup_pool(&nodes, &raw_pool);

        let mut present = vec![false; pool.len()];
        let mut edb = Database::new();
        let mut base = Materialization::from_database(&p, &edb, EvalStrategy::SemiNaive);
        base.set_compaction_policy((aggressive == 1).then_some(CompactionPolicy {
            min_dead_rows: 1,
            dead_percent: 1,
        }));
        let config = [
            CacheConfig { max_views: 0, max_rows: 1 << 20 },
            CacheConfig { max_views: 1, max_rows: 1 << 20 },
            CacheConfig { max_views: 2, max_rows: 1 << 20 },
            CacheConfig { max_views: 64, max_rows: 1 << 20 },
            CacheConfig { max_views: 64, max_rows: 30 },
        ][limit];
        let mut cache = QueryCache::with_config(&p, config);
        // The hot-swapped rule: the goal predicate also runs backwards.
        // Its variables are interned after the cache took its copy of
        // the symbol table, the last of them where that copy would put
        // the fourth variable a binary template makes up — the tag.
        let [.., ex, ey] = ["EA", "EB", "EX", "EY"].map(|n| Term::Var(p.symbols.variable(n)));
        let extra = Rule::new(
            Atom::new(goal_pred, vec![ex, ey]),
            vec![Atom::new(par, vec![ey, ex])],
        );
        // The rules the oracle evaluates, and the slot of `extra` while
        // it is in. Nobody tells the cache when it comes or goes.
        let mut current = p.clone();
        let mut extra_slot = None;

        for (kind, ei, node) in ops {
            let ei = ei as usize % pool.len();
            let edge: Tuple = vec![pool[ei].0, pool[ei].1];
            let c = Term::Const(nodes[node as usize]);
            match kind {
                0..=7 => {
                    if !present[ei] {
                        present[ei] = true;
                        base.apply(&UpdateRound::new().insert(par, edge.clone()));
                        edb.insert(par, edge);
                    }
                }
                8..=12 => {
                    if present[ei] {
                        present[ei] = false;
                        base.apply(&UpdateRound::new().retract(par, edge.clone()));
                        edb.remove(par, &edge);
                    }
                }
                13 => match extra_slot.take() {
                    None => {
                        extra_slot = Some(
                            base.apply(&UpdateRound::new().add_rule(extra.clone())).first_rule,
                        );
                        current.rules.push(extra.clone());
                    }
                    Some(id) => {
                        prop_assert_eq!(
                            base.apply(&UpdateRound::new().drop_rule(id)).rules_dropped,
                            1
                        );
                        current.rules.pop();
                    }
                },
                14 => {
                    base.compact();
                }
                _ => {
                    // Mostly `goal(c, Y)`, sometimes `goal(X, c)`.
                    let goal = if kind < 18 {
                        Atom::new(goal_pred, vec![Term::Var(qx), c])
                    } else {
                        Atom::new(goal_pred, vec![c, Term::Var(qy)])
                    };
                    let want = oracle(&current, &goal, &edb);
                    prop_assert_eq!(cache.query(&mut base, &goal).sorted(), want.clone());
                    if let Some(got) = cache.lookup(&base, &goal) {
                        prop_assert_eq!(got.sorted(), want);
                    }
                    prop_assert!(cache.stats().views <= config.max_views);
                }
            }
        }
        let s = cache.stats();
        // One compile per pattern and rule-set era, at most.
        prop_assert!(s.template_compiles <= 2 * (s.invalidations + 1));
    }

    /// A memo is never served across a change. After **every** step of
    /// a churning script — an insert, a retract (over random graphs on
    /// eight nodes most of them rescue rows through a second path: the
    /// same tuple, re-appended under a new row id), the recursive rule's
    /// mirror image added or dropped, a base compaction, and under the
    /// small budgets an eviction and a rebuild under a fresh tag per
    /// goal, with the template store compacted below the live views —
    /// four goals are each asked twice: once through the write path,
    /// which syncs, once through the read path, which must find the view
    /// live and may only hand out the memo (it builds nothing). Both
    /// answers equal the from-scratch magic evaluation. The cache stands
    /// alone here, at epoch 0 throughout: the stamp cannot lean on a
    /// server's epochs.
    #[test]
    fn a_memoised_answer_never_outlives_a_change(
        idx in 0usize..3,
        limit in 0usize..4,
        aggressive in 0u8..2,
        raw_pool in proptest::collection::vec((0u8..8, 0u8..8), 12..28),
        ops in proptest::collection::vec((0u8..16, 0u8..28), 10..50),
    ) {
        let mut p = program(idx);
        let (nodes, qy) = setup(&mut p, 8);
        let qx = p.symbols.variable("QX");
        let par = p.symbols.get_predicate("par").unwrap();
        let goal_pred = p.goal.pred;
        let pool = dedup_pool(&nodes, &raw_pool);
        let goals = [
            Atom::new(goal_pred, vec![Term::Const(nodes[0]), Term::Var(qy)]),
            Atom::new(goal_pred, vec![Term::Const(nodes[1]), Term::Var(qy)]),
            Atom::new(goal_pred, vec![Term::Const(nodes[2]), Term::Var(qy)]),
            Atom::new(goal_pred, vec![Term::Var(qx), Term::Const(nodes[0])]),
        ];

        let mut present = vec![false; pool.len()];
        let mut edb = Database::new();
        let mut base = Materialization::from_database(&p, &edb, EvalStrategy::SemiNaive);
        base.set_compaction_policy((aggressive == 1).then_some(CompactionPolicy {
            min_dead_rows: 1,
            dead_percent: 1,
        }));
        let config = [
            CacheConfig { max_views: 1, max_rows: 1 << 20 },
            CacheConfig { max_views: 2, max_rows: 1 << 20 },
            CacheConfig { max_views: 64, max_rows: 1 << 20 },
            CacheConfig { max_views: 64, max_rows: 30 },
        ][limit];
        let mut cache = QueryCache::with_config(&p, config);
        let [ex, ey] = ["EX", "EY"].map(|n| Term::Var(p.symbols.variable(n)));
        let extra = Rule::new(
            Atom::new(goal_pred, vec![ex, ey]),
            vec![Atom::new(par, vec![ey, ex])],
        );
        let mut current = p.clone();
        let mut extra_slot = None;

        for (kind, ei) in ops {
            let ei = ei as usize % pool.len();
            let edge: Tuple = vec![pool[ei].0, pool[ei].1];
            match kind {
                0..=6 if !present[ei] => {
                    present[ei] = true;
                    base.apply(&UpdateRound::new().insert(par, edge.clone()));
                    edb.insert(par, edge);
                }
                0..=13 if present[ei] => {
                    present[ei] = false;
                    base.apply(&UpdateRound::new().retract(par, edge.clone()));
                    edb.remove(par, &edge);
                }
                14 => match extra_slot.take() {
                    None => {
                        extra_slot = Some(
                            base.apply(&UpdateRound::new().add_rule(extra.clone())).first_rule,
                        );
                        current.rules.push(extra.clone());
                    }
                    Some(id) => {
                        prop_assert_eq!(
                            base.apply(&UpdateRound::new().drop_rule(id)).rules_dropped,
                            1
                        );
                        current.rules.pop();
                    }
                },
                15 => {
                    base.compact();
                }
                _ => {}
            }
            for goal in &goals {
                let want = oracle(&current, goal, &edb);
                prop_assert_eq!(cache.query(&mut base, goal).sorted(), want.clone());
                let builds = cache.answer_builds();
                let again = cache.lookup(&base, goal).expect("just asked for: live and synced");
                prop_assert_eq!(again.sorted(), want);
                prop_assert_eq!(cache.answer_builds(), builds, "a hit hands out the memo");
            }
        }
        if limit < 2 {
            prop_assert!(cache.stats().evictions > 0, "four goals through two slots");
        }
    }
}

// ---------------------------------------------------------------------
// What a tag is, case by case (see the `cache` module docs)
// ---------------------------------------------------------------------

const PROGRAM_A: &str =
    "?- anc(c0, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), par(Z, Y).";

/// A chain `c0 → c1 → … → cn` loaded into a fresh base store.
fn chain_store(p: &mut Program, n: usize) -> (Vec<Tuple>, Database, Materialization) {
    let par = p.symbols.get_predicate("par").unwrap();
    let (nodes, _) = setup(p, n + 1);
    let edges: Vec<Tuple> = nodes.windows(2).map(<[Const]>::to_vec).collect();
    let mut edb = Database::new();
    for e in &edges {
        edb.insert(par, e.clone());
    }
    let mut base = Materialization::from_database(p, &edb, EvalStrategy::SemiNaive);
    // The tests below watch one template store across rounds; a base
    // compaction would start it over.
    base.set_compaction_policy(None);
    (edges, edb, base)
}

fn goal_from(p: &mut Program, node: &str) -> Atom {
    let (c, y) = (p.symbols.constant(node), p.symbols.variable("QY"));
    Atom::new(p.goal.pred, vec![Term::Const(c), Term::Var(y)])
}

/// A view dropped and asked for again is a new tag: nothing the old one
/// derived — rows that have since become wrong included — shows through.
#[test]
fn an_evicted_goal_never_sees_its_old_rows() {
    let mut p = parse_program(PROGRAM_A).unwrap();
    let par = p.symbols.get_predicate("par").unwrap();
    let (edges, mut edb, mut base) = chain_store(&mut p, 8);
    let mut cache = QueryCache::with_config(&p, CacheConfig { max_views: 1, max_rows: 1 << 22 });
    let (g0, g1) = (goal_from(&mut p, "c0"), goal_from(&mut p, "c1"));

    assert_eq!(cache.query(&mut base, &g0).len(), 8);
    cache.query(&mut base, &g1); // evicts c0's view
    assert_eq!(cache.stats().evictions, 1);
    // Its rows are dead; make them wrong as well.
    base.apply(&UpdateRound::new().retract_all(par, &edges[4..5]));
    edb.remove(par, &edges[4]);
    assert_eq!(cache.query(&mut base, &g0).sorted(), oracle(&p, &g0, &edb));
    assert_eq!(cache.query(&mut base, &g0).len(), 4);
    let s = cache.stats();
    assert_eq!((s.misses, s.evictions, s.views, s.template_compiles), (3, 2, 1, 1));
}

/// Views of one template share relations, indexes and — under right
/// recursion — magic sets that contain each other: `anc(c2, Y)`'s rows
/// are derived for c0's view too, under c0's tag. Each goal still reads
/// its own rows only, through churn that hits all of them, and one sync
/// per round serves the four.
#[test]
fn views_of_one_template_never_see_each_others_rows() {
    let mut p = program(1);
    let par = p.symbols.get_predicate("par").unwrap();
    let (edges, mut edb, mut base) = chain_store(&mut p, 10);
    let mut cache = QueryCache::new(&p);
    let goals: Vec<Atom> = ["c0", "c2", "c5", "c9"].iter().map(|n| goal_from(&mut p, n)).collect();
    let check = |cache: &mut QueryCache, base: &mut Materialization, edb: &Database| {
        for g in &goals {
            assert_eq!(cache.query(base, g).sorted(), oracle(&p, g, edb));
            assert_eq!(cache.lookup(base, g).expect("synced").sorted(), oracle(&p, g, edb));
        }
    };
    check(&mut cache, &mut base, &edb);
    // c0's view alone holds the closure of the whole chain.
    assert!(cache.view_rows() > 10 * 11 / 2);
    base.apply(&UpdateRound::new().retract_all(par, &edges[6..7]));
    edb.remove(par, &edges[6]);
    check(&mut cache, &mut base, &edb);
    base.apply(&UpdateRound::new().insert_all(par, &edges[6..7]));
    edb.insert(par, edges[6].clone());
    check(&mut cache, &mut base, &edb);
    let s = cache.stats();
    assert_eq!((s.misses, s.views, s.template_compiles, s.syncs), (4, 4, 1, 2));
}

/// Dropped views leave dead rows in the template store; once a quarter
/// of it is dead it is compacted in place, under the views still live.
/// The row budget (`view_rows`) counts live rows only, and the store's
/// footprint stays within a constant of what the live views need,
/// however many views have come and gone.
#[test]
fn a_template_store_sheds_the_rows_of_dropped_views() {
    let mut p = parse_program(PROGRAM_A).unwrap();
    let par = p.symbols.get_predicate("par").unwrap();
    let (edges, mut edb, mut base) = chain_store(&mut p, 40);
    let mut cache = QueryCache::with_config(&p, CacheConfig { max_views: 2, max_rows: 1 << 22 });
    let goals: Vec<Atom> = (0..6).map(|i| goal_from(&mut p, &format!("c{i}"))).collect();
    let mut two_views = 0;
    for round in 0..4 {
        for (i, g) in goals.iter().enumerate() {
            assert_eq!(cache.query(&mut base, g).sorted(), oracle(&p, g, &edb));
            assert_eq!(cache.lookup(&base, g).expect("synced").sorted(), oracle(&p, g, &edb));
            // The two live views: this goal's and the one before it.
            let live: usize = [i, (i + 5) % 6]
                .iter()
                .filter(|&&j| round > 0 || j <= i)
                .map(|&j| oracle(&p, &goals[j], &edb).len() + 2)
                .sum();
            assert_eq!(cache.view_rows(), live);
            if (round, i) == (0, 1) {
                two_views = cache.view_words();
            }
        }
        // Churn between the sweeps goes through the compacted store.
        base.apply(&UpdateRound::new().retract_all(par, &edges[30 + round..31 + round]));
        edb.remove(par, &edges[30 + round]);
    }
    assert!(cache.view_words() < 3 * two_views, "24 builds through two slots");
    let s = cache.stats();
    assert_eq!((s.misses, s.evictions, s.invalidations, s.template_compiles), (24, 22, 0, 1));
}

/// A cache in step with its base (one sync per round) takes a retract
/// round's casualties from the reverse chains of the rows that round
/// removed: it reads the rows it kills. One that missed a round which
/// retracted rows does not know which rows died: the template's views
/// go, and the next query builds its view again — reading no row to
/// find casualties, and answering the same. One that missed only
/// insert-only rounds catches up and keeps its views.
#[test]
fn a_cache_that_missed_a_retracting_round_starts_its_views_over() {
    // `(invalidations, misses, retract_reads)` the last query added.
    let run = |lag: bool, retract: bool| {
        let mut p = parse_program(PROGRAM_A).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let (edges, mut edb, mut base) = chain_store(&mut p, 16);
        let mut cache = QueryCache::new(&p);
        let goal = p.goal.clone();
        assert_eq!(cache.query(&mut base, &goal).len(), 16);
        // Two rounds; the second cuts the last two edges off, or
        // extends the chain by one.
        let aside = vec![p.symbols.constant("x"), p.symbols.constant("y")];
        base.apply(&UpdateRound::new().insert(par, aside.clone()));
        edb.insert(par, aside);
        if !lag {
            cache.query(&mut base, &goal);
        }
        if retract {
            base.apply(&UpdateRound::new().retract_all(par, &edges[14..]));
            for e in &edges[14..] {
                edb.remove(par, e);
            }
        } else {
            let next = vec![edges[15][1], p.symbols.constant("c17")];
            base.apply(&UpdateRound::new().insert(par, next.clone()));
            edb.insert(par, next);
        }
        let (before, reads) = (cache.stats(), cache.retract_reads());
        assert_eq!(cache.query(&mut base, &goal).sorted(), oracle(&p, &goal, &edb));
        let after = cache.stats();
        (
            after.invalidations - before.invalidations,
            after.misses - before.misses,
            cache.retract_reads() - reads,
        )
    };
    // anc(c0, c15) and anc(c0, c16), each reached over its par edge,
    // the second again over the first.
    assert_eq!(run(false, true), (0, 0, 3));
    assert_eq!(run(true, true), (1, 1, 0), "the view starts over");
    assert_eq!(run(true, false), (0, 0, 0), "the view is kept");
}

/// One template store for 32 views of `tc_serve`'s layered DAG holds one
/// set of own indexes, not 32: fewer words than the per-view stores it
/// replaced held for the same views (242 880, measured at commit 752cf80
/// on this construction), although every row is a column wider. (Those
/// stores kept no answers; the memos `view_words` also counts are taken
/// out of the comparison. Nor, never having retracted, did they carry a
/// reverse index, which every store now builds with its rows, edge for
/// edge as the per-view stores would: 115 216 words over these 16 256
/// rows, 7.1 a row, and eight a row are allowed for it.)
#[test]
fn thirty_two_views_share_one_set_of_indexes() {
    let mut p = parse_program(PROGRAM_A).unwrap();
    let par = p.symbols.get_predicate("par").unwrap();
    let (layers, width) = (32, 16);
    let rank: Vec<Vec<String>> =
        (0..=layers).map(|l| (0..width).map(|i| format!("l{l}_{i}")).collect()).collect();
    let mut edb = Database::new();
    for l in 0..layers {
        for a in &rank[l] {
            for b in &rank[l + 1] {
                edb.insert(par, vec![p.symbols.constant(a), p.symbols.constant(b)]);
            }
        }
    }
    let mut base = Materialization::from_database(&p, &edb, EvalStrategy::SemiNaive);
    let mut cache = QueryCache::new(&p);
    for v in 0..32 {
        let goal = goal_from(&mut p, &rank[v % 2][v / 2]);
        assert_eq!(cache.query(&mut base, &goal).len(), (layers - v % 2) * width);
    }
    let answer_rows = 16 * (32 + 31) * width;
    assert_eq!(cache.view_rows(), answer_rows + 2 * 32);
    // On top of the store, each query left its answer memoised: a
    // constant, a `Vec` header and a set slot per tuple.
    let store_words = cache.view_words() - answer_rows * (1 + 4);
    let reverse_index = 8 * cache.view_rows();
    assert!(store_words < 242_880 + reverse_index, "{store_words} words");
}

// ---------------------------------------------------------------------
// Who builds an answer, and when (see the `cache` module docs, "Answers")
// ---------------------------------------------------------------------

/// Asks every goal `times` times through the read path; returns how many
/// answers that made the cache build.
fn hits(cache: &QueryCache, base: &Materialization, goals: &[Atom], times: usize) -> u64 {
    let before = cache.answer_builds();
    for _ in 0..times {
        for g in goals {
            cache.lookup(base, g).expect("live and synced");
        }
    }
    cache.answer_builds() - before
}

/// A cold query appends rows to the store its template's other views
/// live in, under its own tag: their memos stand. Afterwards only the
/// new view's answer has been built.
#[test]
fn a_cold_query_rebuilds_no_other_view() {
    let mut p = parse_program(PROGRAM_A).unwrap();
    let (_, edb, mut base) = chain_store(&mut p, 12);
    let mut cache = QueryCache::new(&p);
    let warm: Vec<Atom> = ["c0", "c3", "c6"].iter().map(|n| goal_from(&mut p, n)).collect();
    for g in &warm {
        cache.query(&mut base, g);
    }
    assert_eq!(cache.answer_builds(), 3);
    assert_eq!(hits(&cache, &base, &warm, 4), 0, "twelve hits, twelve reference counts");

    let cold = goal_from(&mut p, "c9");
    assert_eq!(cache.query(&mut base, &cold).sorted(), oracle(&p, &cold, &edb));
    assert_eq!(cache.answer_builds(), 4, "the new view's answer, nobody else's");
    assert_eq!(hits(&cache, &base, &warm, 1), 0);
    assert_eq!(cache.stats().template_compiles, 1, "one template, one store, four tags");
}

/// N hits over V views between two rounds cost the builds of the views
/// the first round changed — V at most, whatever N — and a round that
/// changes no view costs none. On the chain `c0 → … → c12` with views at
/// c0, c4 and c8: a new tail edge lengthens all three closures, cutting
/// `c2 → c3` shortens c0's alone (and mending it restores that one), an
/// edge between strangers reaches nobody.
#[test]
fn hits_between_rounds_cost_one_build_per_changed_view() {
    let mut p = parse_program(PROGRAM_A).unwrap();
    let par = p.symbols.get_predicate("par").unwrap();
    let (edges, mut edb, mut base) = chain_store(&mut p, 12);
    let mut cache = QueryCache::new(&p);
    let goals: Vec<Atom> = ["c0", "c4", "c8"].iter().map(|n| goal_from(&mut p, n)).collect();
    let tail = vec![edges[11][1], p.symbols.constant("tail")];
    let strangers = vec![p.symbols.constant("x"), p.symbols.constant("y")];
    let sync_and_check = |cache: &mut QueryCache, base: &mut Materialization, edb: &Database| {
        for g in &goals {
            assert_eq!(cache.query(base, g).sorted(), oracle(&p, g, edb));
        }
    };
    sync_and_check(&mut cache, &mut base, &edb);
    assert_eq!(cache.answer_builds(), 3);

    base.apply(&UpdateRound::new().insert(par, tail.clone()));
    edb.insert(par, tail);
    let before = cache.answer_builds();
    sync_and_check(&mut cache, &mut base, &edb);
    assert_eq!(cache.answer_builds() - before, 3, "every view reaches the tail");
    assert_eq!(hits(&cache, &base, &goals, 5), 0, "fifteen hits on three fresh memos");

    for mend in [false, true] {
        if mend {
            base.apply(&UpdateRound::new().insert_all(par, &edges[2..3]));
            edb.insert(par, edges[2].clone());
        } else {
            base.apply(&UpdateRound::new().retract_all(par, &edges[2..3]));
            edb.remove(par, &edges[2]);
        }
        let before = cache.answer_builds();
        sync_and_check(&mut cache, &mut base, &edb);
        assert_eq!(cache.answer_builds() - before, 1, "c2 -> c3 is upstream of c0's view only");
        assert_eq!(hits(&cache, &base, &goals, 5), 0);
    }

    base.apply(&UpdateRound::new().insert(par, strangers.clone()));
    edb.insert(par, strangers);
    let before = cache.answer_builds();
    sync_and_check(&mut cache, &mut base, &edb);
    assert_eq!(cache.answer_builds() - before, 0, "the sync ran and found no view to stamp");
    assert_eq!(cache.stats().syncs, 4, "one per round");
}

/// A retraction that kills a row the view can still derive another way
/// rescues it — the same tuple, appended again under a new row id, while
/// its neighbour stays dead. The memo from before the round holds both;
/// it must not be what the next reader gets.
#[test]
fn a_rescued_row_does_not_keep_a_stale_memo_alive() {
    let mut p = parse_program(PROGRAM_A).unwrap();
    let par = p.symbols.get_predicate("par").unwrap();
    let [c0, a, b, d, e] = ["c0", "a", "b", "d", "e"].map(|n| p.symbols.constant(n));
    // A diamond c0 → {a, b} → d, and e hanging off a alone.
    let edges = [vec![c0, a], vec![c0, b], vec![a, d], vec![b, d], vec![a, e]];
    let mut edb = Database::new();
    for t in &edges {
        edb.insert(par, t.clone());
    }
    let mut base = Materialization::from_database(&p, &edb, EvalStrategy::SemiNaive);
    base.set_compaction_policy(None);
    let mut cache = QueryCache::new(&p);
    let goal = p.goal.clone();
    assert_eq!(cache.query(&mut base, &goal).len(), 4, "a, b, d, e");
    assert_eq!(hits(&cache, &base, std::slice::from_ref(&goal), 3), 0);

    // Cut c0 → a: a and e go, d is over-deleted with them if it was
    // recorded through a, and comes back through b.
    base.apply(&UpdateRound::new().retract_all(par, &edges[..1]));
    edb.remove(par, &edges[0]);
    for _ in 0..2 {
        assert_eq!(cache.query(&mut base, &goal).sorted(), oracle(&p, &goal, &edb));
    }
    assert_eq!(cache.lookup(&base, &goal).expect("synced").sorted(), vec![vec![b], vec![d]]);
    assert_eq!(cache.answer_builds(), 2, "built, changed, built again, then handed out");
}

// ---------------------------------------------------------------------
// Pinned reads: a memo answers the epochs of its interval, and no other
// ---------------------------------------------------------------------

/// How [`a_pinned_read_is_served_only_a_memo_of_its_epoch`]'s pinned
/// reads were served, where the script can tell (see there).
#[derive(Debug, Default)]
struct PinnedPaths {
    reads: usize,
    /// The view had not changed since the pin: its live memo.
    live: usize,
    /// It had, and a memo other than the live one covered the pin.
    covered: usize,
    /// It had, no memo covered the pin: read off the rows at its frontier.
    rebuilt: usize,
}

/// A pinned snapshot and what the script knew when it took it.
struct Pin {
    snap: Snapshot,
    /// Per goal: whether its view was live (queried since the last event
    /// that drops views), and what pinned reads have built for it.
    live: [bool; 3],
    builds: [u64; 3],
    /// The script's counts of view-dropping events and of rounds that
    /// may change a goal's view, at the pin.
    drops: u64,
    changes: u64,
}

/// One script of [`a_pinned_read_is_served_only_a_memo_of_its_epoch`]
/// over program `idx`: `raw_pool` draws the edges between the goals'
/// nodes, `ops` the steps.
fn pinned_script(
    idx: usize,
    raw_pool: &[(u8, u8)],
    ops: &[(u8, u8, u8)],
    dir: &std::path::Path,
    paths: &mut PinnedPaths,
) -> Result<(), TestCaseError> {
    let mut p = program(idx);
    let (nodes, qy) = setup(&mut p, 6);
    let qx = p.symbols.variable("QX");
    let par = p.symbols.get_predicate("par").unwrap();
    let gp = p.goal.pred;
    let pool = dedup_pool(&nodes, raw_pool);
    // A diamond c0 → {a, b} → d, whose `a → d` the rescue rounds toggle:
    // `(c0, d)` dies with it and comes back through `b`, re-appended.
    let [a, b, d] = ["da", "db", "dd"].map(|n| p.symbols.constant(n));
    let rescue: Tuple = vec![a, d];
    // Strangers: rounds among them change no goal's view, and their own
    // goals are what evicts the goals' views.
    let strangers: Vec<Const> = (0..4).map(|i| p.symbols.constant(&format!("s{i}"))).collect();
    let bound = |c: Const| Atom::new(gp, vec![Term::Const(c), Term::Var(qy)]);
    let to_c3 = Atom::new(gp, vec![Term::Var(qx), Term::Const(nodes[3])]);
    let goals = [bound(nodes[0]), bound(nodes[1]), to_c3];
    let cold = [bound(strangers[0]), bound(strangers[1])];
    let aggressive = Some(CompactionPolicy { min_dead_rows: 1, dead_percent: 1 });

    let mut edb = Database::new();
    for t in [vec![nodes[0], a], vec![nodes[0], b], rescue.clone(), vec![b, d]] {
        edb.insert(par, t);
    }
    // The rules in force, for the specification; the slot of the
    // recursive rule while it is in.
    let mut rules = p.clone();
    let mut recursive = Some(RuleId(1));
    let spec = |rules: &Program, edb: &Database| -> Vec<Vec<Tuple>> {
        goals
            .iter()
            .map(|g| {
                let mut pg = rules.clone();
                pg.goal = g.clone();
                reference::answer(&pg, edb, EvalStrategy::SemiNaive).0.sorted()
            })
            .collect()
    };
    // `expected[e][g]`: goal `g` over the facts and rules of epoch `e`.
    let mut expected = vec![spec(&rules, &edb)];
    let mut server = Server::from_database(&p, &edb, EvalStrategy::SemiNaive);
    server.set_compaction_policy(aggressive);

    let mut pins: VecDeque<Pin> = VecDeque::new();
    let (mut live, mut drops, mut changes) = ([false; 3], 0u64, 0u64);
    // A base compaction drops the views at the cache's next validation,
    // which the next round runs for certain; until then no query is
    // known to leave a view behind.
    let mut compactions = server.compactions();
    let mut compacted = false;
    for &(kind, x, y) in ops {
        let (from, to) = pool[x as usize % pool.len()];
        let hot = vec![from, to];
        let (mut round, mut rules_changed, mut pin) = (None, false, false);
        match kind {
            // A pin, three times in four right after a round nobody has
            // read yet.
            0..=3 => {
                if x < 24 {
                    changes += 1;
                    round = Some(toggle(&mut edb, par, hot));
                }
                pin = true;
            }
            4..=5 => drop(pins.pop_front()),
            // One goal, or all three.
            6..=10 => {
                let e = server.current_epoch() as usize;
                for g in (0..3).filter(|&g| x < 8 || g == x as usize % 3) {
                    prop_assert_eq!(server.query(&goals[g]).sorted(), expected[e][g].clone());
                    live[g] |= !compacted;
                }
            }
            11..=16 => {
                changes += 1;
                round = Some(toggle(&mut edb, par, hot));
            }
            17..=18 => {
                let edge = vec![strangers[x as usize % 4], strangers[y as usize % 4]];
                round = Some(toggle(&mut edb, par, edge));
            }
            19 => {
                changes += 1;
                round = Some(toggle(&mut edb, par, rescue.clone()));
            }
            20 if y % 4 == 0 => {
                // One or two view slots, as many stranger goals: every
                // goal's view is evicted, and comes back under a new tag.
                let slots = 1 + x as usize % 2;
                server.set_cache_config(CacheConfig { max_views: slots, max_rows: 1 << 20 });
                for g in &cold[..slots] {
                    server.query(g);
                }
                server.set_cache_config(CacheConfig::default());
                (live, drops) = ([false; 3], drops + 1);
            }
            21 if y % 4 == 0 => {
                // A restart: no pin survives it, and the cache comes back
                // empty, as it stays when started over.
                pins.clear();
                let path = dir.join("pinned.snap");
                server.save(&path).expect("save");
                server = Server::restore(&path).expect("restore");
                server.enable_query_cache(&p);
                server.set_compaction_policy(aggressive);
                (live, drops) = ([false; 3], drops + 1);
                (compactions, compacted) = (server.compactions(), false);
            }
            22 if y % 4 == 0 => {
                // The recursive rule dropped, or added back in a new slot.
                // Either drops every template, and its views with it.
                match recursive.take() {
                    Some(id) => {
                        prop_assert_eq!(
                            server.apply(&UpdateRound::new().drop_rule(id)).rules_dropped,
                            1
                        );
                        rules.rules.pop();
                    }
                    None => {
                        recursive = Some(
                            server
                                .apply(&UpdateRound::new().add_rule(p.rules[1].clone()))
                                .first_rule,
                        );
                        rules.rules.push(p.rules[1].clone());
                    }
                }
                rules_changed = true;
            }
            _ => {
                let now = server.current_epoch() as usize;
                // The oldest pin or the newest.
                let slot = if x < 16 { 0 } else { pins.len().saturating_sub(1) };
                if let Some(pin) = pins.get_mut(slot) {
                    let e = pin.snap.epoch() as usize;
                    for (g, goal) in goals.iter().enumerate() {
                        let before = server.cache_answer_builds();
                        let got = pin.snap.query(goal).sorted();
                        let built = server.cache_answer_builds() - before;
                        let at = format!("goal {g} pinned at {e}, read at {now}");
                        prop_assert_eq!(&got, &expected[e][g], "{}", at);
                        pin.builds[g] += built;
                        prop_assert!(pin.builds[g] <= 1, "goal {} pinned at {}: built twice", g, e);
                        paths.reads += 1;
                        // Told apart only where the script knows the read
                        // went through the view that was live at the pin.
                        if pin.live[g] && pin.drops == drops {
                            let moved = expected[e][g] != expected[now][g];
                            match (pin.changes == changes, moved, built) {
                                (true, _, 0) => paths.live += 1,
                                (_, true, 0) => paths.covered += 1,
                                (_, true, 1) => paths.rebuilt += 1,
                                _ => {}
                            }
                        }
                    }
                }
            }
        }
        if let Some(round) = &round {
            server.apply(round);
        }
        if round.is_some() || rules_changed {
            expected.push(spec(&rules, &edb));
            if rules_changed || compacted {
                (live, drops, compacted) = ([false; 3], drops + 1, false);
            }
        }
        if server.compactions() != compactions {
            compactions = server.compactions();
            (live, drops, compacted) = ([false; 3], drops + 1, true);
        }
        if pin {
            if pins.len() == 3 {
                pins.pop_front();
            }
            let snap = server.snapshot();
            pins.push_back(Pin { snap, live, builds: [0; 3], drops, changes });
        }
    }
    Ok(())
}

/// Toggles `edge` of `pred` in `edb`, and returns the round that does the
/// same to a store.
fn toggle(edb: &mut Database, pred: Pred, edge: Tuple) -> UpdateRound {
    if edb.remove(pred, &edge) {
        UpdateRound::new().retract(pred, edge)
    } else {
        edb.insert(pred, edge.clone());
        UpdateRound::new().insert(pred, edge)
    }
}

/// A memo is never served to a pin outside the epochs it answers, and a
/// pin costs one answer build per view at most, however often it asks.
/// Each script runs through a [`Server`] under an aggressive compaction
/// policy, over three goals on six nodes and a diamond. Its steps are:
/// - pins (three at most, most of them right after a round nobody has
///   read yet) and unpins, the last of which compacts the base store;
/// - live queries;
/// - rounds that toggle an edge among the goals' nodes;
/// - rounds among strangers, which change no goal's view;
/// - rescue rounds, which kill and re-append a goal's row;
/// - an eviction of every goal's view under one or two view slots;
/// - a save, restore and a cache started over;
/// - the recursive rule dropped or added back;
/// - reads of every goal through the oldest or the newest pin.
///
/// Every answer equals the specification over its epoch's facts and
/// rules. Where the script knows a read went through the view that was
/// live at its pin, `Server::cache_answer_builds` tells its path apart.
/// If no round that may change the view has landed since the pin, a read
/// that builds nothing took the live memo. If the answer has moved
/// since the pin, a read that builds nothing took a memo that covers
/// the pin, and one that builds an answer read it off the rows at the
/// pinned frontier. The suite must take each path at least 50 times.
#[test]
fn a_pinned_read_is_served_only_a_memo_of_its_epoch() {
    const CASES: usize = 128;
    let mut rng = TestRng::from_name("a_pinned_read_is_served_only_a_memo_of_its_epoch");
    let cases = (
        0usize..3,
        proptest::collection::vec((0u8..6, 0u8..6), 4..14),
        proptest::collection::vec((0u8..32, 0u8..32, 0u8..32), 60..120),
    );
    let dir = std::env::temp_dir().join(format!("selprop-pinned-reads-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut paths = PinnedPaths::default();
    for case in 0..CASES {
        let (idx, raw_pool, ops) = cases.new_value(&mut rng);
        if let Err(e) = pinned_script(idx, &raw_pool, &ops, &dir, &mut paths) {
            panic!("case {}/{CASES} failed: {e}", case + 1);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    println!("{paths:?}");
    assert!(paths.live >= 50 && paths.covered >= 50 && paths.rebuilt >= 50, "{paths:?}");
}
