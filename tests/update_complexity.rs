//! Closed-form complexity checks for update rounds on the paper's two
//! serving shapes: what a round costs is a function of the delta and of
//! what it derives — never of the size of the store it lands in.
//!
//! The randomized counterpart (same round, store with and without 10×
//! unrelated facts, identical counters) lives in
//! `crates/datalog/tests/planner_props.rs`; these two use the workload
//! generators of `selprop_core`, which that crate cannot see.

use selprop_core::workload;
use selprop_datalog::eval::{EvalStats, Strategy};
use selprop_datalog::{parse_program, Materialization, UpdateRound};

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
