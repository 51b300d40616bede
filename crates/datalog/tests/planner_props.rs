//! Property tests for the cost-based join planner: on randomized
//! gallery and magic-set programs, **every body order computes the same
//! model** — the planner's selectivity-chosen order and adversarial
//! forced-random orders ([`OrderMode::Shuffled`]) — and recorded
//! provenance stays valid ([`Provenance::check`]) and thread-count
//! independent under each of them — in a batch evaluation, and in a
//! store maintained through update rounds and a snapshot.
//!
//! The specification (`reference`, the minimum model by semi-naive
//! iteration) has no body order: every order mode, strategy and thread
//! count must reach its model, and the three counters the model decides
//! (iterations, rule firings, tuples derived) must equal its own. Full
//! `EvalStats`, `join_probes` included, are compared engine against
//! engine across thread counts under each order.
//!
//! Three properties are **complexity oracles**. For the delta-first
//! plans an update round runs: the work an update round costs must not depend on how
//! much unrelated data the store holds. For the rescue plans of a
//! retracting round: it must not depend on the fan-out of the
//! candidates' bound first argument either. For the query cache's
//! tagged template stores: what a round costs the cache must not depend
//! on how many live views the round does not touch.

use proptest::prelude::*;
use selprop_datalog::ast::Program;
use selprop_datalog::db::{Database, Tuple};
use selprop_datalog::eval::{
    evaluate_cfg, evaluate_with_provenance_cfg, EvalStats, Strategy as EvalStrategy,
};
use selprop_datalog::magic::magic_transform;
use selprop_datalog::parser::parse_program;
use selprop_datalog::{
    reference, Atom, CacheConfig, Materialization, OrderMode, Pred, QueryCache, RoundReport, Term,
    UpdateRound,
};

/// Random edge lists over `n` nodes.
fn arb_edges(n: usize, max_edges: usize) -> impl Strategy<Value = Vec<(u8, u8)>> {
    proptest::collection::vec((0..n as u8, 0..n as u8), 0..max_edges)
}

/// The binary recursive ancestor variants from Example 1.1 plus
/// same-generation — the gallery the planner's shape analysis and
/// ordering decisions must never change semantics on.
fn program(idx: usize) -> Program {
    let sources = [
        "?- anc(c0, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), par(Z, Y).",
        "?- anc(c0, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- par(X, Z), anc(Z, Y).",
        "?- anc(c0, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), anc(Z, Y).",
        "?- sg(c0, Y).\nsg(X, Y) :- par(X, Y).\nsg(X, Y) :- par(X, U), sg(U, V), par(V, Y).",
    ];
    parse_program(sources[idx]).unwrap()
}

fn build_db(p: &mut Program, edges: &[(u8, u8)]) -> Database {
    let par = p.symbols.get_predicate("par").unwrap();
    let mut db = Database::new();
    for &(a, b) in edges {
        let ca = p.symbols.constant(&format!("c{a}"));
        let cb = p.symbols.constant(&format!("c{b}"));
        db.insert(par, vec![ca, cb]);
    }
    db
}

/// The order modes under test: the planner's, and a forced-random order
/// (the adversarial case for the staged-head pruning and provenance
/// permutations).
fn configs(seed: u64) -> [OrderMode; 2] {
    [OrderMode::Planned, OrderMode::Shuffled(seed)]
}

/// The counters the model decides, whatever plan computed it.
fn semantic(s: EvalStats) -> (usize, u64, u64) {
    (s.iterations, s.rule_firings, s.tuples_derived)
}

/// Under both order modes and threads {1, 2, 3}: the specification's
/// model and semantic counters — and, within one order, the same
/// `EvalStats` at every thread count.
fn assert_every_order_computes_the_spec(
    p: &Program,
    db: &Database,
    seed: u64,
) -> Result<(), TestCaseError> {
    let spec = reference::evaluate(p, db, EvalStrategy::SemiNaive);
    let model = spec.idb.sorted_models();
    for cfg in configs(seed) {
        let seq = evaluate_cfg(p, db, EvalStrategy::SemiNaive, cfg);
        let strategies = (1..=3).map(|threads| EvalStrategy::SemiNaiveParallel { threads });
        for strategy in std::iter::once(EvalStrategy::SemiNaive).chain(strategies) {
            let got = evaluate_cfg(p, db, strategy, cfg);
            let what = format!("{cfg:?} {strategy:?}");
            prop_assert_eq!(semantic(got.stats), semantic(spec.stats), "{}", what);
            prop_assert_eq!(&got.idb.sorted_models(), &model, "{}", what);
            prop_assert_eq!(got.stats, seq.stats, "{}", what);
        }
    }
    Ok(())
}

/// A random **chain program** over EDB `e0..e2` and IDB `p`, `q`: every
/// rule is `h(X0, Xn) :- a1(X0, X1), …, an(Xn-1, Xn)`. Each IDB gets an
/// EDB-only base rule; `picks` chooses the heads and body atoms of the
/// remaining (recursive, mutually recursive or plain) rules.
fn chain_program(picks: &[(u8, Vec<u8>)]) -> Program {
    const ATOMS: [&str; 5] = ["e0", "e1", "e2", "p", "q"];
    let mut src = String::from("?- p(c0, Y).\np(X0, X1) :- e0(X0, X1).\nq(X0, X1) :- e1(X0, X1).\n");
    for (head, body) in picks {
        let atoms: Vec<String> = body
            .iter()
            .enumerate()
            .map(|(i, &a)| format!("{}(X{i}, X{})", ATOMS[a as usize % 5], i + 1))
            .collect();
        let head = ["p", "q"][*head as usize % 2];
        src.push_str(&format!("{head}(X0, X{}) :- {}.\n", body.len(), atoms.join(", ")));
    }
    parse_program(&src).unwrap()
}

/// A random **left-linear** chain program over the same predicates:
/// every picked rule is `h(X0, Xn) :- i(X0, X1), e(X1, X2), …` — one IDB
/// atom, then EDB atoms only. Bound on both ends, such a body can be
/// walked backwards from `Xn` through stored relations alone.
fn left_linear_program(picks: &[(u8, u8, Vec<u8>)]) -> Program {
    let mut src =
        String::from("?- p(c0, Y).\np(X0, X1) :- e0(X0, X1).\nq(X0, X1) :- e1(X0, X1).\n");
    for (head, first, tail) in picks {
        let idb = |i: u8| ["p", "q"][i as usize % 2];
        let mut atoms = vec![format!("{}(X0, X1)", idb(*first))];
        for (i, &e) in tail.iter().enumerate() {
            atoms.push(format!("e{}(X{}, X{})", e % 3, i + 1, i + 2));
        }
        let (head, last) = (idb(*head), tail.len() + 1);
        src.push_str(&format!("{head}(X0, X{last}) :- {}.\n", atoms.join(", ")));
    }
    parse_program(&src).unwrap()
}

/// What one round cost and left behind.
#[derive(Debug, PartialEq)]
struct RoundOutcome {
    /// `join_probes` and `rule_firings` spent by `apply`.
    probes: u64,
    firings: u64,
    report: RoundReport,
    /// The goal's answer after the round.
    answer: Vec<Tuple>,
}

fn round_outcome(p: &Program, db: &Database, round: &UpdateRound) -> RoundOutcome {
    let mut m = Materialization::from_database(p, db, EvalStrategy::SemiNaive);
    let before = m.stats();
    let report = m.apply(round);
    let after = m.stats();
    RoundOutcome {
        probes: after.join_probes - before.join_probes,
        firings: after.rule_firings - before.rule_firings,
        report,
        answer: m.answer().sorted(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Update work scales with the delta, not the store: the same round
    /// applied to a store and to that store plus ten times as many
    /// disconnected noise facts (over fresh constants; the same number
    /// in every EDB relation, so no cardinality tie-break flips) spends
    /// **exactly** the same probes and firings. A plan that scans a
    /// relation to find the delta mid-body — what cardinality
    /// re-planning used to produce — pays per noise row and fails this.
    #[test]
    fn update_round_work_is_independent_of_unrelated_store_size(
        picks in proptest::collection::vec((0u8..2, proptest::collection::vec(0u8..5, 2..4)), 1..4),
        edges in proptest::collection::vec((0u8..3, 0u8..6, 0u8..6), 1..16),
        inserts in proptest::collection::vec((0u8..3, 0u8..6, 0u8..6), 0..6),
        retract_every in 2usize..5,
    ) {
        let mut p = chain_program(&picks);
        let edb: Vec<Pred> = (0..3).map(|i| p.symbols.predicate(&format!("e{i}"))).collect();
        let node: Vec<_> = (0..6).map(|i| p.symbols.constant(&format!("c{i}"))).collect();
        let mut db = Database::new();
        for &(e, a, b) in &edges {
            db.insert(edb[e as usize], vec![node[a as usize], node[b as usize]]);
        }
        let mut round = UpdateRound::new();
        for &(e, a, b) in &inserts {
            round = round.insert(edb[e as usize], vec![node[a as usize], node[b as usize]]);
        }
        for &(e, a, b) in edges.iter().step_by(retract_every) {
            round = round.retract(edb[e as usize], vec![node[a as usize], node[b as usize]]);
        }

        let mut noisy = db.clone();
        for (j, &e) in edb.iter().enumerate() {
            for i in 0..10 * edges.len() {
                let a = p.symbols.constant(&format!("z{j}a{i}"));
                let b = p.symbols.constant(&format!("z{j}b{i}"));
                noisy.insert(e, vec![a, b]);
            }
        }

        prop_assert_eq!(
            round_outcome(&p, &db, &round),
            round_outcome(&p, &noisy, &round),
            "the round's work changed with the noise"
        );
    }

    /// Rescue work scales with the fan-in of the over-deleted rows, not
    /// with the fan-out of their first argument. One edge `(a, b)` of a
    /// random DAG is retracted (and, in half the cases, re-inserted in
    /// the same round, so that every casualty is rescued); the same
    /// round is applied to the store plus `k` fresh successors under
    /// every node up to `a` — every first argument a candidate can have
    /// — in every EDB relation. No path to a fresh node crosses the
    /// edge, so the casualties are the same, and the round must spend
    /// **exactly** the same probes and firings: a rescue that enumerates
    /// `p(x, _)` to re-derive `p(x, y)` pays per successor and fails
    /// this.
    #[test]
    fn rescue_work_is_independent_of_the_fan_out_of_the_bound_argument(
        picks in proptest::collection::vec(
            (0u8..2, 0u8..2, proptest::collection::vec(0u8..3, 1..3)),
            1..4,
        ),
        edges in proptest::collection::vec((0usize..3, 0usize..5, 0usize..5), 1..20),
        cut in 0usize..20,
        reinsert in 0u8..2,
    ) {
        let mut p = left_linear_program(&picks);
        let edb: Vec<Pred> = (0..3).map(|i| p.symbols.predicate(&format!("e{i}"))).collect();
        let node: Vec<_> = (0..6).map(|i| p.symbols.constant(&format!("c{i}"))).collect();
        // Edges point from a lower to a higher node.
        let dag: Vec<(usize, usize, usize)> =
            edges.iter().map(|&(e, a, d)| (e, a, a + 1 + d % (5 - a))).collect();
        let mut db = Database::new();
        for &(e, a, b) in &dag {
            db.insert(edb[e], vec![node[a], node[b]]);
        }
        let (e, a, b) = dag[cut % dag.len()];
        let mut round = UpdateRound::new().retract(edb[e], vec![node[a], node[b]]);
        if reinsert == 1 {
            round = round.insert(edb[e], vec![node[a], node[b]]);
        }

        let mut fanned = db.clone();
        for (j, &e) in edb.iter().enumerate() {
            for (x, &from) in node.iter().enumerate().take(a + 1) {
                for i in 0..8 {
                    let z = p.symbols.constant(&format!("z{j}x{x}n{i}"));
                    fanned.insert(e, vec![from, z]);
                }
            }
        }

        let cost = |db: &Database| {
            let o = round_outcome(&p, db, &round);
            (o.probes, o.firings, o.report)
        };
        prop_assert_eq!(cost(&db), cost(&fanned), "the round's work changed with the fan-out");
    }

    /// View maintenance scales with the views a round touches, not the
    /// views that exist. A random chain program, a random bound goal,
    /// one insert round and one retract round over the goal's nodes;
    /// beside the goal's view, `k` more views of the same template, each
    /// rooted on an island of its own that no round fact mentions. The
    /// rounds must cost the cache **exactly** the same probes, firings
    /// and derivations — and read the same rows to find what to
    /// over-delete — at `k` = 0, 8 and 64: an update plan led by a base
    /// row probes the template store's shared indexes once and meets
    /// the rows that join it, in however many other views' postings it
    /// does not look. One store per view pays per view and fails this.
    /// (Goals bind their first argument: a chain body passes bindings
    /// left to right, so the magic set of `p(a, Y)` is what `a` reaches.
    /// Under `p(X, b)` the first body atom is called all-free, every
    /// view holds the whole model, and no round leaves any untouched.)
    #[test]
    fn view_maintenance_is_independent_of_the_untouched_live_views(
        picks in proptest::collection::vec((0u8..2, proptest::collection::vec(0u8..5, 2..4)), 1..4),
        edges in proptest::collection::vec((0u8..3, 0u8..6, 0u8..6), 1..16),
        inserts in proptest::collection::vec((0u8..3, 0u8..6, 0u8..6), 1..6),
        retract_every in 1usize..4,
        goal_pick in (0u8..2, 0u8..2, 0u8..6, 0u8..6),
    ) {
        const ISLANDS: usize = 64;
        let mut p = chain_program(&picks);
        let edb: Vec<Pred> = (0..3).map(|i| p.symbols.predicate(&format!("e{i}"))).collect();
        let node: Vec<_> = (0..6).map(|i| p.symbols.constant(&format!("c{i}"))).collect();
        let qy = p.symbols.variable("QY");
        let (gpred, both, ga, gb) = goal_pick;
        let gpred = p.symbols.get_predicate(["p", "q"][gpred as usize]).unwrap();
        // bf or bb over the given pair of constants.
        let goal_over = |a, b| {
            let second = if both == 1 { Term::Const(b) } else { Term::Var(qy) };
            Atom::new(gpred, vec![Term::Const(a), second])
        };
        let goal = goal_over(node[ga as usize], node[gb as usize]);

        let mut db = Database::new();
        for &(e, a, b) in &edges {
            db.insert(edb[e as usize], vec![node[a as usize], node[b as usize]]);
        }
        // Island `j`: a two-edge path in every EDB relation, and a goal
        // of the same pattern from its first node to its last.
        let island_goals: Vec<Atom> = (0..ISLANDS)
            .map(|j| {
                let w: Vec<_> =
                    (0..3).map(|i| p.symbols.constant(&format!("w{j}_{i}"))).collect();
                for &e in &edb {
                    db.insert(e, vec![w[0], w[1]]);
                    db.insert(e, vec![w[1], w[2]]);
                }
                goal_over(w[0], w[2])
            })
            .collect();
        let mut insert_round = UpdateRound::new();
        for &(e, a, b) in &inserts {
            insert_round =
                insert_round.insert(edb[e as usize], vec![node[a as usize], node[b as usize]]);
        }
        let mut retract_round = UpdateRound::new();
        for &(e, a, b) in edges.iter().step_by(retract_every) {
            retract_round =
                retract_round.retract(edb[e as usize], vec![node[a as usize], node[b as usize]]);
        }

        let costs = |k: usize| {
            let mut base = Materialization::from_database(&p, &db, EvalStrategy::SemiNaive);
            base.set_compaction_policy(None);
            let mut cache =
                QueryCache::with_config(&p, CacheConfig { max_views: 2 * ISLANDS, max_rows: 1 << 22 });
            cache.query(&mut base, &goal);
            for g in &island_goals[..k] {
                cache.query(&mut base, g);
            }
            assert_eq!(cache.stats().views, k + 1);
            let mut out = Vec::new();
            for round in [&insert_round, &retract_round] {
                base.apply(round);
                let (before, reads) = (cache.eval_stats(), cache.retract_reads());
                let answer = cache.query(&mut base, &goal).sorted();
                let after = cache.eval_stats();
                out.push((
                    after.join_probes - before.join_probes,
                    after.rule_firings - before.rule_firings,
                    after.tuples_derived - before.tuples_derived,
                    cache.retract_reads() - reads,
                    answer,
                ));
            }
            assert_eq!(cache.stats().syncs, 2, "one sync per round for the whole template");
            // The untouched views are still there and still right.
            for g in &island_goals[..k] {
                let got = cache.lookup(&base, g).expect("synced").sorted();
                assert_eq!(got, base.answer_goal(g).sorted());
            }
            out
        };
        let alone = costs(0);
        prop_assert_eq!(&costs(8), &alone, "8 untouched views changed the rounds' cost");
        prop_assert_eq!(&costs(ISLANDS), &alone, "64 untouched views changed the rounds' cost");
        // And the answers are the base model's.
        let mut base = Materialization::from_database(&p, &db, EvalStrategy::SemiNaive);
        base.apply(&insert_round);
        prop_assert_eq!(&alone[0].4, &base.answer_goal(&goal).sorted());
        base.apply(&retract_round);
        prop_assert_eq!(&alone[1].4, &base.answer_goal(&goal).sorted());
    }

    /// Engine vs specification under each order strategy and threads
    /// {1, 2, 3}: the spec's model and semantic counters, and
    /// bit-identical counters across thread counts.
    #[test]
    fn every_body_order_computes_the_same_model(
        idx in 0usize..4,
        edges in arb_edges(6, 14),
        seed in 0u64..u64::MAX,
    ) {
        let mut p = program(idx);
        let db = build_db(&mut p, &edges);
        assert_every_order_computes_the_spec(&p, &db, seed)?;
    }

    /// The update-round twin: a store built under each order strategy
    /// and taken through an insert round, a retract round (with
    /// rescues), a snapshot and a re-insert round holds, after each, the
    /// model both batch engines compute from scratch under that order —
    /// the same model under every order — with valid justifications.
    #[test]
    fn every_body_order_maintains_the_same_model(
        idx in 0usize..4,
        edges in arb_edges(6, 14),
        seed in 0u64..u64::MAX,
        strat in 0usize..3,
    ) {
        let strategy = [
            EvalStrategy::SemiNaive,
            EvalStrategy::SemiNaiveParallel { threads: 2 },
            EvalStrategy::SemiNaiveParallel { threads: 4 },
        ][strat];
        let mut p = program(idx);
        let par = p.symbols.get_predicate("par").unwrap();
        let all = build_db(&mut p, &edges).relation(par).map_or(Vec::new(), |r| r.sorted());
        let (held, late) = all.split_at(all.len() / 2);
        let gone: Vec<Tuple> = all.iter().step_by(3).cloned().collect();
        let mut models = Vec::new();
        for cfg in configs(seed) {
            let mut db = Database::new();
            for t in held {
                db.insert(par, t.clone());
            }
            let mut m = Materialization::from_database_with(&p, &db, strategy, cfg);
            let mut trace = Vec::new();
            let script = [(late, true), (&gone[..], false), (&gone[..], true)];
            for (step, (facts, insert)) in script.into_iter().enumerate() {
                if step == 2 {
                    let bytes = m.to_bytes();
                    m = Materialization::from_bytes(&bytes).expect("an intact snapshot restores");
                    prop_assert_eq!(m.to_bytes(), bytes);
                }
                if insert {
                    prop_assert_eq!(m.insert_facts(par, facts), facts.len());
                    for t in facts {
                        db.insert(par, t.clone());
                    }
                } else {
                    prop_assert_eq!(m.retract_facts(par, facts), facts.len());
                    for t in facts {
                        db.remove(par, t);
                    }
                }
                let got = m.idb_database().sorted_models();
                let scratch = evaluate_cfg(&p, &db, EvalStrategy::SemiNaive, cfg);
                let spec = reference::evaluate(&p, &db, EvalStrategy::SemiNaive);
                prop_assert_eq!(&got, &scratch.idb.sorted_models(), "step {}", step);
                prop_assert_eq!(&got, &spec.idb.sorted_models(), "step {}", step);
                m.provenance().check(&p).map_err(TestCaseError::fail)?;
                trace.push(got);
            }
            models.push(trace);
        }
        prop_assert_eq!(&models[0], &models[1]);
    }

    /// Magic-set rewritten programs (whose rules carry magic guards in
    /// front — the order the planner most aggressively rewrites) keep
    /// their model, answers and semantic counters under every order
    /// strategy.
    #[test]
    fn magic_programs_survive_every_body_order(
        idx in 0usize..4,
        edges in arb_edges(6, 14),
        seed in 0u64..u64::MAX,
    ) {
        let mut p = program(idx);
        let db = build_db(&mut p, &edges);
        let magic = magic_transform(&p).unwrap();
        assert_every_order_computes_the_spec(&magic.program, &db, seed)?;
    }

    /// Provenance stays valid, thread-count independent, and
    /// model-complete under every order strategy × threads {1, 2, 4}.
    /// Justifications are stored in original-body order regardless of
    /// the join order that found them — `Provenance::check` replays
    /// them against the rule text, so a permutation bug cannot pass.
    #[test]
    fn provenance_is_valid_under_every_order_and_thread_count(
        idx in 0usize..4,
        edges in arb_edges(5, 10),
        seed in 0u64..u64::MAX,
    ) {
        let mut p = program(idx);
        let db = build_db(&mut p, &edges);
        for cfg in configs(seed) {
            let baseline =
                evaluate_with_provenance_cfg(&p, &db, EvalStrategy::SemiNaive, cfg);
            baseline.provenance.check(&p).map_err(TestCaseError::fail)?;
            let want = baseline.provenance.idb_database().sorted_models();
            let spec = reference::evaluate(&p, &db, EvalStrategy::SemiNaive);
            prop_assert_eq!(&want, &spec.idb.sorted_models());
            for threads in [2usize, 4] {
                let par = evaluate_with_provenance_cfg(
                    &p,
                    &db,
                    EvalStrategy::SemiNaiveParallel { threads },
                    cfg,
                );
                prop_assert_eq!(par.stats, baseline.stats);
                par.provenance.check(&p).map_err(TestCaseError::fail)?;
                prop_assert_eq!(&par.provenance.idb_database().sorted_models(), &want);
            }
        }
    }
}
