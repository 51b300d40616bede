//! Closed-form complexity checks for update rounds on the paper's two
//! serving shapes: what a round costs is a function of the delta and of
//! what it derives — never of the size of the store it lands in.
//!
//! The randomized counterparts (same round, store with and without 10×
//! unrelated facts — or, for retractions, extra fan-out under the
//! candidates' bound argument — identical counters) live in
//! `crates/datalog/tests/planner_props.rs`; these use the workload
//! generators of `selprop_core`, which that crate cannot see. The first
//! three are about insert rounds (the third adds a rule), the next four
//! about the DRed walk and rescue of a retract round, the last about what a round
//! costs the query cache: a function of the delta, not of the number of
//! live views.

use selprop_core::workload;
use selprop_datalog::eval::{evaluate, EvalStats, Strategy};
use selprop_datalog::{
    parse_program, reference, Atom, CacheConfig, GroundAtom, Materialization, QueryCache, Rule,
    Term, UpdateRound,
};

const SECTION_7: &str = "?- p(c, Y).\n\
                         p(X, Y) :- b1(X, X1), b2(X1, Y).\n\
                         p(X, Y) :- b1(X, X1), p(X1, Y1), b2(Y1, Y).";

const PROGRAM_A: &str = "?- anc(john, Y).\n\
                         anc(X, Y) :- par(X, Y).\n\
                         anc(X, Y) :- anc(X, Z), par(Z, Y).";

fn spent(before: EvalStats, after: EvalStats) -> (u64, u64, u64) {
    (
        after.join_probes - before.join_probes,
        after.rule_firings - before.rule_firings,
        after.tuples_derived - before.tuples_derived,
    )
}

/// Section 7's program over `layered_b1_b2(20, n)`: inserting 64
/// goal-irrelevant `b1`/`b2` pairs costs the same probes whether the
/// store holds 10³ or 10⁴ such pairs already.
#[test]
fn section_7_noise_round_costs_the_same_at_every_store_size() {
    let round_cost = |noise: usize| {
        let mut p = parse_program(SECTION_7).unwrap();
        let db = workload::layered_b1_b2(&mut p, "c", 20, noise);
        let b1 = p.symbols.get_predicate("b1").unwrap();
        let b2 = p.symbols.get_predicate("b2").unwrap();
        let mut round = UpdateRound::new();
        for i in 0..64 {
            let a = p.symbols.constant(&format!("fresh_a{i}"));
            let b = p.symbols.constant(&format!("fresh_b{i}"));
            round = round.insert(b1, vec![a, b]).insert(b2, vec![b, a]);
        }
        let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
        let before = m.stats();
        assert_eq!(m.apply(&round).inserted, 128);
        spent(before, m.stats())
    };
    let small = round_cost(1_000);
    let large = round_cost(10_000);
    assert_eq!(small, large, "(probes, firings, derived) at n = 10^3 vs 10^4");
    // Each pair derives exactly p(a, a); a few probes per inserted fact.
    assert_eq!(small.2, 64);
    assert!(small.0 <= 4 * (128 + 64), "{} probes for 128 facts", small.0);
}

/// Program A over a layered DAG: hanging fresh leaves under last-rank
/// nodes appends one `anc` row per ancestor of the parent, and costs at
/// most 4 probes per appended row (EDB and derived) — on a closure four
/// times the size just as on the small one.
#[test]
fn leaf_inserts_cost_a_bounded_number_of_probes_per_appended_row() {
    for (layers, width) in [(6usize, 4usize), (12, 8)] {
        let mut p = parse_program(PROGRAM_A).unwrap();
        let db = workload::layered_dag(&mut p, "par", "john", layers, width);
        let par = p.symbols.get_predicate("par").unwrap();
        let mut round = UpdateRound::new();
        for i in 0..width {
            let parent = p.symbols.constant(&format!("l{layers}_{i}"));
            let leaf = p.symbols.constant(&format!("leaf{i}"));
            round = round.insert(par, vec![parent, leaf]);
        }
        let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
        let before = m.stats();
        assert_eq!(m.apply(&round).inserted, width);
        let (probes, firings, derived) = spent(before, m.stats());
        // A last-rank node has john and every node of the ranks above as
        // ancestors; its leaf inherits them and gains the parent.
        assert_eq!(derived as usize, width * (layers * width + 2));
        assert_eq!(firings, derived);
        let appended = width as u64 + derived;
        assert!(
            probes <= 4 * appended,
            "layered_dag({layers}, {width}): {probes} probes for {appended} appended rows"
        );
    }
}

/// A round that adds a rule seeds it with one pass over the store,
/// entering through the atom the planner picks first from the rows the
/// store holds when the pass runs. Program A over the star
/// `par(john, c_i)`, whose closure has `n` rows; one round inserts
/// `mark(c0)` and adds `q(X) :- anc(X, Y), mark(Y)`. The pass enters
/// through `mark`, one row, and probes `anc` on `Y`: the round costs
/// the same at n = 1 000 and 4 000. Entered through `anc` — which ties
/// with the new `mark` on build-time cardinality and comes first in the
/// text — it scans the closure.
#[test]
fn an_added_rule_seeds_through_its_smallest_relation() {
    let round_cost = |n: usize| {
        let mut p = parse_program(PROGRAM_A).unwrap();
        let [anc, par] = ["anc", "par"].map(|name| p.symbols.get_predicate(name).unwrap());
        let john = p.symbols.constant("john");
        let mut db = selprop_datalog::Database::new();
        for i in 0..n {
            db.insert(par, vec![john, p.symbols.constant(&format!("c{i}"))]);
        }
        let (q, mark) = (p.symbols.predicate("q"), p.symbols.predicate("mark"));
        let [x, y] = ["X", "Y"].map(|v| Term::Var(p.symbols.variable(v)));
        let rule = Rule::new(
            Atom::new(q, vec![x]),
            vec![Atom::new(anc, vec![x, y]), Atom::new(mark, vec![y])],
        );
        let round = UpdateRound::new().add_rule(rule).insert(mark, vec![p.symbols.constant("c0")]);
        let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
        assert_eq!(m.num_facts(anc), n);
        let before = m.stats();
        m.apply(&round);
        assert_eq!(m.num_facts(q), 1, "q(john)");
        spent(before, m.stats())
    };
    let small = round_cost(1_000);
    assert_eq!(small, round_cost(4_000), "(probes, firings, derived) at n = 10^3 vs 4·10^3");
    assert_eq!(small, (4, 1, 1), "two probes to seed, two to resume from the mark row");
}

/// Program A over a random forest: retracting a leaf hung directly under
/// the root over-deletes `anc(john, leaf)` and fails to rescue it in a
/// handful of probes — through `par(Z, leaf)`, which is empty — however
/// many descendants `john` has. Entering the recursive rule through
/// `anc(john, Z)` instead walks all of them.
#[test]
fn a_leaf_retract_under_the_root_costs_the_same_at_every_store_size() {
    let round_cost = |n: usize| {
        let mut p = parse_program(PROGRAM_A).unwrap();
        let mut db = workload::random_forest(&mut p, "par", "john", n, 7);
        let par = p.symbols.get_predicate("par").unwrap();
        let leaf = vec![p.symbols.constant("john"), p.symbols.constant("leaf")];
        db.insert(par, leaf.clone());
        let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
        let before = m.stats();
        assert_eq!(m.apply(&UpdateRound::new().retract(par, leaf)).retracted, 1);
        spent(before, m.stats())
    };
    let small = round_cost(1_000);
    assert_eq!(small, round_cost(10_000), "(probes, firings, derived) at n = 10^3 vs 10^4");
    assert!(small.0 <= 8, "{} probes to give up on one candidate", small.0);
    assert_eq!(small.2, 0, "nothing is rescued");
}

/// Program A over a layered DAG with four leaves per last-rank node,
/// each hung under two of them. For a quarter of the leaves, retracting
/// the edge `anc(john, leaf)` is recorded through reaches every `anc`
/// row recorded through it, and the deletion walk saves all but one in
/// place through the other parent, at no more than 6 probes per row
/// checked: each asks `par(Z, leaf)` for the surviving parent and the
/// dedup table for `anc(x, parent)`. A walk over `anc(x, _)` visits the
/// other leaves under `x` first — the untouched three quarters. Per
/// leaf the edge itself and the cut parent's own row are gone for good,
/// and nothing is re-appended.
#[test]
fn rescuing_through_the_other_parent_costs_a_bounded_number_of_probes_per_row() {
    for (layers, width) in [(6usize, 4usize), (12, 8)] {
        let mut p = parse_program(PROGRAM_A).unwrap();
        let mut db = workload::layered_dag(&mut p, "par", "john", layers, width);
        let par = p.symbols.get_predicate("par").unwrap();
        let anc = p.symbols.get_predicate("anc").unwrap();
        let john = p.symbols.constant("john");
        let leaves: Vec<_> = (0..4 * width)
            .map(|i| {
                let leaf = p.symbols.constant(&format!("leaf{i}"));
                for parent in [i % width, (i + 1) % width] {
                    let parent = p.symbols.constant(&format!("l{layers}_{parent}"));
                    db.insert(par, vec![parent, leaf]);
                }
                leaf
            })
            .collect();
        let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
        m.set_compaction_policy(None);
        // The edge anc(john, leaf) is recorded through.
        let prov = m.provenance();
        let round = leaves[..width].iter().fold(UpdateRound::new(), |round, &leaf| {
            let (_, body) = prov
                .justification(&GroundAtom { pred: anc, args: vec![john, leaf] })
                .expect("john reaches every leaf");
            round.retract(par, body[1].args.clone())
        });
        let (mem, before) = (m.mem_stats(), m.stats());
        assert_eq!(m.apply(&round).retracted, width);
        let (probes, _, _) = spent(before, m.stats());
        let after = m.mem_stats();
        let reappended = after.total_rows - mem.total_rows;
        let killed = (after.total_rows - after.live_rows) - (mem.total_rows - mem.live_rows);
        assert_eq!((killed, reappended), (2 * width, 0));
        // Every row the walk checked: the `width` it killed, and those
        // it saved under another justification.
        let now = m.provenance();
        let rows = m.idb_database().relation(anc).expect("anc derived").sorted();
        let saved = rows
            .into_iter()
            .map(|args| GroundAtom { pred: anc, args })
            .filter(|atom| prov.justification(atom) != now.justification(atom))
            .count();
        assert!(saved > 0);
        let checked = saved + width;
        assert!(
            probes as usize <= 6 * checked,
            "layered_dag({layers}, {width}): {probes} probes for {checked} rows checked"
        );
    }
}

/// Program A over a layered DAG: a chain of 48 fresh nodes hung off the
/// root goes in as one round and comes out as another, at no more than
/// 4× the probes — every over-deleted `anc(x, v_j)` asks
/// `par(Z, v_j)` for its one parent and the dedup table for
/// `anc(x, Z)`. A rescue plan entered through `anc(x, _)` walks the
/// descendants of `x`, and `john` has the whole DAG. Both halves are
/// checked against from-scratch evaluation and the reference evaluator.
#[test]
fn retracting_a_chain_costs_at_most_four_times_the_probes_of_inserting_it() {
    let (layers, width, n) = (12, 8, 48);
    let mut p = parse_program(PROGRAM_A).unwrap();
    let db = workload::layered_dag(&mut p, "par", "john", layers, width);
    let par = p.symbols.get_predicate("par").unwrap();
    let chain = workload::chain(&mut p, "par", "john", n).relation(par).unwrap().sorted();
    let mut db_with = db.clone();
    for e in &chain {
        db_with.insert(par, e.clone());
    }

    let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
    let model_is = |m: &Materialization, edb| {
        let model = m.idb_database().sorted_models();
        assert_eq!(model, evaluate(&p, edb, Strategy::SemiNaive).idb.sorted_models());
        assert_eq!(model, reference::evaluate(&p, edb, Strategy::SemiNaive).idb.sorted_models());
    };
    let start = m.stats();
    assert_eq!(m.apply(&UpdateRound::new().insert_all(par, &chain)).inserted, n);
    let inserted = m.stats();
    model_is(&m, &db_with);
    assert_eq!(m.apply(&UpdateRound::new().retract_all(par, &chain)).retracted, n);
    model_is(&m, &db);
    assert_eq!(m.database().relation(par), db.relation(par), "the stored EDB is the input again");

    let (insert, retract) = (spent(start, inserted).0, spent(inserted, m.stats()).0);
    assert!(
        retract <= 4 * insert,
        "layered_dag({layers}, {width}): retract({n}) spent {retract} probes, insert({n}) \
         {insert}: {:.2}x",
        retract as f64 / insert as f64
    );
}

/// The deletion walk asks whether a row it reaches is still derivable,
/// and stops at the first derivation. `p(a)` has `k` of them, `e(a,
/// y_i), f(y_i)`, and loses the one it is recorded through. Its check
/// probes `e` on `a` once (depth 0), skips the dead row and probes the
/// dedup table of `f` for the next `e` row, which answers: 2 probes at
/// every `k`, and `p(a)` is saved at its row id — no firing, no row
/// appended. A search that went on would probe `f` once per live `e`
/// row, `1 + (k - 1)`.
#[test]
fn a_rescue_stops_at_its_first_derivation() {
    for k in [2usize, 16, 128] {
        let mut p = parse_program("?- p(X).\np(X) :- e(X, Y), f(Y).").unwrap();
        let [pp, e, f] = ["p", "e", "f"].map(|n| p.symbols.get_predicate(n).unwrap());
        let a = p.symbols.constant("a");
        let mut db = selprop_datalog::Database::new();
        for i in 0..k {
            let y = p.symbols.constant(&format!("y{i}"));
            db.insert(e, vec![a, y]);
            db.insert(f, vec![y]);
        }
        let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
        let p_a = GroundAtom { pred: pp, args: vec![a] };
        let recorded = m.provenance().justification(&p_a).expect("p(a) derived").1[0].clone();
        let (before, rows) = (m.stats(), m.mem_stats().total_rows);
        assert_eq!(m.apply(&UpdateRound::new().retract(e, recorded.args)).retracted, 1);
        assert_eq!(spent(before, m.stats()), (2, 0, 0), "k = {k}: (probes, firings, derived)");
        assert_eq!(m.num_facts(pp), 1, "k = {k}: p(a) is saved");
        assert_eq!(m.mem_stats().total_rows, rows, "k = {k}: at its old row id");
    }
}

/// `noise_serve`'s shape: Section 7's program over `layered_b1_b2(20,
/// n)`, views on the root, along the `b1`-chain and in the noise. A
/// round of 64 fresh `b1`/`b2` pairs — relevant to no view — costs the
/// cache `5 + 6·64` probes: one per update item for the delta scan it
/// leads with (three items read `b1`, two `b2`), and per pair three
/// `b1` rows probed into the magic set, the `b2` row of the exit rule
/// through `b1[X1]` to the magic set (two), the `b2` row of the
/// recursive rule into `p_bf[Y1]`. That is a function of 64 alone — at
/// 1, 32 and 128 live views — and retracting the pairs again reads no
/// view row at all: none was recorded through them.
#[test]
fn a_noise_round_costs_the_cache_the_same_at_1_32_and_128_live_views() {
    let costs = |views: usize| {
        let mut p = parse_program(SECTION_7).unwrap();
        let db = workload::layered_b1_b2(&mut p, "c", 20, 400);
        let b1 = p.symbols.get_predicate("b1").unwrap();
        let b2 = p.symbols.get_predicate("b2").unwrap();
        let mut base = Materialization::from_database(&p, &db, Strategy::SemiNaive);
        base.set_compaction_policy(None);
        let mut cache = QueryCache::with_config(&p, CacheConfig { max_views: 128, max_rows: 1 << 22 });
        let roots = std::iter::once("c".to_owned())
            .chain((1..=20).map(|i| format!("u{i}")))
            .chain((0..107).map(|i| format!("xa{i}")));
        let goals: Vec<Atom> = roots
            .take(views)
            .map(|name| {
                let mut g = p.goal.clone();
                g.args[0] = Term::Const(p.symbols.constant(&name));
                g
            })
            .collect();
        let answers: Vec<_> = goals.iter().map(|g| cache.query(&mut base, g).sorted()).collect();
        assert_eq!(cache.stats().views, views);

        let pairs: Vec<_> = (0..64)
            .map(|i| {
                let a = p.symbols.constant(&format!("fresh_a{i}"));
                let b = p.symbols.constant(&format!("fresh_b{i}"));
                (vec![a, b], vec![b, a])
            })
            .collect();
        let insert = pairs.iter().fold(UpdateRound::new(), |r, (ab, ba)| {
            r.insert(b1, ab.clone()).insert(b2, ba.clone())
        });
        let retract = pairs.iter().fold(UpdateRound::new(), |r, (ab, ba)| {
            r.retract(b1, ab.clone()).retract(b2, ba.clone())
        });
        let mut out = Vec::new();
        for round in [&insert, &retract] {
            base.apply(round);
            let (before, reads, rows) =
                (cache.eval_stats(), cache.retract_reads(), cache.view_rows());
            // The first query syncs the template; the rest are hits.
            for (g, answer) in goals.iter().zip(&answers) {
                assert_eq!(&cache.query(&mut base, g).sorted(), answer);
            }
            assert_eq!(cache.view_rows(), rows, "no view gained or lost a row");
            out.push((spent(before, cache.eval_stats()), cache.retract_reads() - reads));
        }
        assert_eq!(cache.stats().syncs, 2);
        out
    };
    let one = costs(1);
    assert_eq!(one[0], ((5 + 6 * 64, 0, 0), 0), "insert round: (probes, firings, derived), reads");
    assert_eq!(one[1], ((0, 0, 0), 0), "retract round");
    assert_eq!(costs(32), one);
    assert_eq!(costs(128), one);
}
