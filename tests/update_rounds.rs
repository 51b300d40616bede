//! Batched update rounds and rule hot-swap, property-tested.
//!
//! Two contracts from the serving layer, checked over the paper's
//! program gallery (and its magic-transformed closure) with randomized
//! workloads:
//!
//! - **Batch ≡ any sequential order.** One mixed
//!   [`UpdateRound`] (disjoint inserts ∉ store, retracts ⊆ store) must
//!   leave exactly the store that the equivalent single-fact
//!   `insert_facts`/`retract_facts` calls leave in a seed-shuffled
//!   order — sorted-relation equality on the full database plus
//!   [`Provenance::check`] — across strategies × threads ∈ {1, 2, 4};
//!   a second round then undoes the first.
//! - **Hot-swap ≡ from-scratch on the edited program.** Dropping a
//!   random subset of rules at fixpoint must leave the model of the
//!   program-without-those-rules; re-adding them must restore the
//!   original model — both against from-scratch evaluation by both
//!   engines.
//!
//! Every case runs under the planner's body orders and under
//! [`OrderMode::Shuffled`] with the case's seed, and passes the store
//! through a snapshot between its two rounds: the plans, the rescue
//! plans and the plans a restore recompiles must compute the same model
//! in any order.
//!
//! [`Provenance::check`]: selprop_datalog::Provenance::check

mod common;

use common::{assert_at_fixpoint_over, build_db, restored};
use proptest::prelude::*;
use selprop_core::gallery::gallery;
use selprop_datalog::db::Tuple;
use selprop_datalog::eval::Strategy;
use selprop_datalog::{
    Database, Materialization, OrderMode, Pred, Program, RoundReport, RuleId, UpdateRound,
};

/// The order modes every case runs under.
fn modes(seed: u64) -> [OrderMode; 2] {
    [OrderMode::Planned, OrderMode::Shuffled(seed)]
}

/// A deterministic Fisher–Yates shuffle (xorshift64*), so "any
/// sequential order" is driven by the proptest seed.
fn shuffle<T>(items: &mut [T], mut seed: u64) {
    seed |= 1;
    for i in (1..items.len()).rev() {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        items.swap(i, (seed as usize) % (i + 1));
    }
}

/// One single-fact update operation of the shuffled sequential replay.
#[derive(Clone)]
enum Op {
    Insert(Pred, Tuple),
    Retract(Pred, Tuple),
}

/// What one round cost a store: its report, the growth of its work
/// counters `[iterations, rule_firings, tuples_derived, join_probes]`
/// and the reverse edges its deletion walk read.
fn round_cost(m: &mut Materialization, round: &UpdateRound) -> (RoundReport, [u64; 4], u64) {
    let (before, reads) = (m.stats(), m.dred_reads());
    let report = m.apply(round);
    let after = m.stats();
    let work = [
        (after.iterations - before.iterations) as u64,
        after.rule_firings - before.rule_firings,
        after.tuples_derived - before.tuples_derived,
        after.join_probes - before.join_probes,
    ];
    (report, work, m.dred_reads() - reads)
}

/// Batched mixed round vs a seed-shuffled order of the equivalent
/// single-fact rounds (restored from a snapshot halfway): identical
/// stores, identical report counts, valid justifications on both sides.
/// A twin that is never restored takes the same single-fact rounds: a
/// restored store makes the live store's decisions, so every round
/// reports the same counts and leaves the same rows at the same ids
/// under the same justifications. It also costs the same work and
/// reverse-edge reads, if the twin's reverse index held no edge the
/// restore dropped — the edges of dead rows and those saves left stale,
/// which the twin's walks still read. Then the batched store, restored,
/// takes the inverse round back to `db0`.
fn assert_batch_matches_sequential(
    program: &Program,
    db0: &Database,
    pool: &Database,
    order_seed: u64,
    strategy: Strategy,
    order: OrderMode,
) {
    // Inserts: pool facts genuinely absent from db0. Retracts: every
    // third stored fact. Disjoint by construction, so any interleaving
    // of the single-fact calls is equivalent to the batch.
    let mut inserts: Vec<(Pred, Tuple)> = Vec::new();
    for (pred, rel) in pool.iter() {
        for t in rel.sorted() {
            if !db0.relation(pred).is_some_and(|r| r.contains(&t)) {
                inserts.push((pred, t));
            }
        }
    }
    inserts.sort_by(|a, b| (a.0 .0, &a.1).cmp(&(b.0 .0, &b.1)));
    inserts.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);
    let mut retracts: Vec<(Pred, Tuple)> = Vec::new();
    {
        let mut all: Vec<(Pred, Vec<Tuple>)> = db0.iter().map(|(p, r)| (p, r.sorted())).collect();
        all.sort_by_key(|(p, _)| p.0);
        for (pred, tuples) in all {
            retracts.extend(tuples.into_iter().step_by(3).map(|t| (pred, t)));
        }
    }

    let (mut round, mut undo) = (UpdateRound::new(), UpdateRound::new());
    for (p, t) in &inserts {
        round = round.insert(*p, t.clone());
        undo = undo.retract(*p, t.clone());
    }
    for (p, t) in &retracts {
        round = round.retract(*p, t.clone());
        undo = undo.insert(*p, t.clone());
    }

    let mut batched = Materialization::from_database_with(program, db0, strategy, order);
    let report = batched.apply(&round);
    assert_eq!(report.inserted, inserts.len(), "every insert was novel");
    assert_eq!(report.retracted, retracts.len(), "every retract was stored");

    let mut ops: Vec<Op> = inserts
        .iter()
        .map(|(p, t)| Op::Insert(*p, t.clone()))
        .chain(retracts.iter().map(|(p, t)| Op::Retract(*p, t.clone())))
        .collect();
    shuffle(&mut ops, order_seed);
    let mut sequential = Materialization::from_database_with(program, db0, strategy, order);
    let mut twin = Materialization::from_database_with(program, db0, strategy, order);
    let mut same_edges = true;
    for (i, op) in ops.iter().enumerate() {
        if i == ops.len() / 2 {
            sequential = restored(&sequential);
            same_edges = sequential.mem_stats().rev_words == twin.mem_stats().rev_words;
        }
        let round = match op {
            Op::Insert(p, t) => UpdateRound::new().insert(*p, t.clone()),
            Op::Retract(p, t) => UpdateRound::new().retract(*p, t.clone()),
        };
        let (cost, twin_cost) = (round_cost(&mut sequential, &round), round_cost(&mut twin, &round));
        assert_eq!(cost.0.inserted + cost.0.retracted, 1);
        assert_eq!(cost.0, twin_cost.0, "op {i}: the never-restored twin's report");
        assert!(sequential.provenance() == twin.provenance(), "op {i}: the twin's rows");
        if same_edges {
            assert_eq!(cost, twin_cost, "op {i}: the never-restored twin's work");
        }
    }

    assert_eq!(
        batched.database().sorted_models(),
        sequential.database().sorted_models(),
        "one mixed round ≡ the shuffled single-fact sequence"
    );
    assert_eq!(batched.answer().sorted(), sequential.answer().sorted(), "goal answers");
    batched.provenance().check(program).expect("batched justifications valid");
    sequential.provenance().check(program).expect("sequential justifications valid");

    // The batch also matches the from-scratch model of the mutated db.
    let mut mirror = db0.clone();
    for (p, t) in &retracts {
        assert!(mirror.remove(*p, t));
    }
    for (p, t) in &inserts {
        mirror.insert(*p, t.clone());
    }
    assert_at_fixpoint_over(&batched, program, &mirror, "the mutated database");

    // And the inverse round, on what a snapshot of the store restores
    // to, leaves the model of `db0`.
    let mut batched = restored(&batched);
    let report = batched.apply(&undo);
    assert_eq!((report.inserted, report.retracted), (retracts.len(), inserts.len()));
    assert_at_fixpoint_over(&batched, program, db0, "the round undone");
    batched.provenance().check(program).expect("justifications valid after the second round");
}

/// Rule hot-swap vs from-scratch: drop a random subset at fixpoint,
/// compare against the edited program; re-add — to what a snapshot of
/// the store restores to — compare against the original (and validate
/// justifications across the whole swap).
fn assert_hot_swap_matches_reference(
    program: &Program,
    db: &Database,
    drop_mask: u32,
    strategy: Strategy,
    order: OrderMode,
) {
    let dropped: Vec<usize> = (0..program.rules.len())
        .filter(|i| drop_mask & (1 << (i % 32)) != 0)
        .collect();
    let mut m = Materialization::from_database_with(program, db, strategy, order);

    // Drop the subset in one round.
    let mut round = UpdateRound::new();
    for &i in &dropped {
        round = round.drop_rule(RuleId(i as u32));
    }
    let report = m.apply(&round);
    assert_eq!(report.rules_dropped, dropped.len());
    for &i in &dropped {
        assert!(!m.is_rule_active(RuleId(i as u32)));
    }

    // The edited program: same goal, surviving rules only.
    let mut p_minus = program.clone();
    p_minus.rules = program
        .rules
        .iter()
        .enumerate()
        .filter(|(i, _)| !dropped.contains(i))
        .map(|(_, r)| r.clone())
        .collect();
    assert_at_fixpoint_over(&m, &p_minus, db, "after drops, the edited program");

    // Re-add the dropped rules (fresh slots, in original order).
    let mut m = restored(&m);
    let mut p_check = program.clone(); // rule slots 0..n, re-adds appended
    for &i in &dropped {
        let id = m.add_rule(program.rules[i].clone());
        assert!(m.is_rule_active(id));
        p_check.rules.push(program.rules[i].clone());
    }
    assert_at_fixpoint_over(&m, program, db, "after re-adds, the original program");
    // Justifications may now name re-added slots; `p_check` lists every
    // slot ever allocated, in slot order.
    m.provenance().check(&p_check).expect("justifications valid across the swap");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn batched_round_matches_any_sequential_order_on_gallery(
        which in 0usize..10,
        shape in 0u8..4,
        n in 3usize..10,
        seed in 0u64..10_000,
        order_seed in 0u64..u64::MAX,
        strat in 0usize..4,
    ) {
        let strategy = [
            Strategy::SemiNaive,
            Strategy::SemiNaiveParallel { threads: 1 },
            Strategy::SemiNaiveParallel { threads: 2 },
            Strategy::SemiNaiveParallel { threads: 4 },
        ][strat];
        let entries = gallery();
        let entry = &entries[which % entries.len()];
        let mut program = entry.chain().program;
        let db0 = build_db(&mut program, shape, n, seed);
        let pool = build_db(&mut program, shape.wrapping_add(1), n, seed ^ 0x9e37);
        for order in modes(order_seed) {
            assert_batch_matches_sequential(&program, &db0, &pool, order_seed, strategy, order);
        }
    }

    #[test]
    fn batched_round_matches_any_sequential_order_on_magic_programs(
        which in 0usize..10,
        n in 3usize..8,
        seed in 0u64..10_000,
        order_seed in 0u64..u64::MAX,
        strat in 0usize..3,
    ) {
        let strategy = [
            Strategy::SemiNaive,
            Strategy::SemiNaiveParallel { threads: 2 },
            Strategy::SemiNaiveParallel { threads: 4 },
        ][strat];
        let entries = gallery();
        let entry = &entries[which % entries.len()];
        let original = entry.chain().program;
        let Ok(magic) = selprop_datalog::magic::magic_transform(&original) else {
            return Ok(()); // diagonal goals reject magic; nothing to test
        };
        let mut program = magic.program;
        let db0 = build_db(&mut program, 0, n, seed);
        let pool = build_db(&mut program, 0, n, seed ^ 0x517c);
        for order in modes(order_seed) {
            assert_batch_matches_sequential(&program, &db0, &pool, order_seed, strategy, order);
        }
    }

    #[test]
    fn rule_hot_swap_matches_from_scratch_on_gallery(
        which in 0usize..10,
        shape in 0u8..4,
        n in 3usize..10,
        seed in 0u64..10_000,
        drop_mask in 0u32..u32::MAX,
        strat in 0usize..3,
    ) {
        let strategy = [
            Strategy::SemiNaive,
            Strategy::SemiNaiveParallel { threads: 2 },
            Strategy::SemiNaiveParallel { threads: 4 },
        ][strat];
        let entries = gallery();
        let entry = &entries[which % entries.len()];
        let mut program = entry.chain().program;
        let db = build_db(&mut program, shape, n, seed);
        for order in modes(seed ^ u64::from(drop_mask)) {
            assert_hot_swap_matches_reference(&program, &db, drop_mask, strategy, order);
        }
    }

    #[test]
    fn rule_hot_swap_matches_from_scratch_on_magic_programs(
        which in 0usize..10,
        n in 3usize..8,
        seed in 0u64..10_000,
        drop_mask in 0u32..u32::MAX,
    ) {
        // Magic-transformed programs stress 0-ary magic predicates and
        // empty-body seed rules under drop/re-add.
        let entries = gallery();
        let entry = &entries[which % entries.len()];
        let original = entry.chain().program;
        let Ok(magic) = selprop_datalog::magic::magic_transform(&original) else {
            return Ok(()); // diagonal goals reject magic; nothing to test
        };
        let mut program = magic.program;
        let db = build_db(&mut program, 0, n, seed);
        for order in modes(seed ^ u64::from(drop_mask)) {
            assert_hot_swap_matches_reference(&program, &db, drop_mask, Strategy::SemiNaive, order);
        }
    }
}
