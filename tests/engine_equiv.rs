//! Cross-engine equivalence: the columnar storage engine
//! (`selprop_datalog::eval`) against the executable specification
//! (`selprop_datalog::reference`, the minimum model by semi-naive iteration),
//! over the paper's program gallery and randomized workloads.
//!
//! The contract: under every body order ([`OrderMode`]) and thread
//! count the engine computes the specification's IDB model and
//! goal answer, and the three counters the model decides — iterations,
//! rule firings, tuples derived — equal the specification's. The fourth,
//! `join_probes`, belongs to the plan: it is compared engine against
//! engine (bit-for-bit across thread counts) and pinned to literal
//! values on fixed inputs (`work_counters_are_pinned_on_the_gallery`),
//! because EXPERIMENTS.md records work counts, not wall-clock.

mod common;

use common::{assert_at_fixpoint_over, build_db, restored};
use proptest::prelude::*;
use selprop_core::bounded::convergence_iterations;
use selprop_core::gallery::gallery;
use selprop_core::workload;
use selprop_datalog::db::Tuple;
use selprop_datalog::eval::{self, EvalStats, Strategy};
use selprop_datalog::reference;
use selprop_datalog::{
    CompactionPolicy, Database, Materialization, OrderMode, Pred, Program, QueryCache, RuleId,
    Term, UpdateRound,
};

/// Sorted `(pred, sorted tuples)` view of the IDB model, keyed by
/// predicate id for a stable comparison.
fn model_of(result: &eval::EvalResult) -> Vec<(u32, Vec<Vec<selprop_datalog::Const>>)> {
    let mut v: Vec<_> = result.idb.iter().map(|(p, r)| (p.0, r.sorted())).collect();
    v.sort();
    v
}

/// The counters the model decides, whatever plan computed it.
fn semantic(s: EvalStats) -> (usize, u64, u64) {
    (s.iterations, s.rule_firings, s.tuples_derived)
}

/// The engine against the specification, under both order modes and
/// threads {1, 2, 3}.
fn assert_engines_agree(program: &Program, db: &Database, seed: u64) {
    let spec = reference::evaluate(program, db, Strategy::SemiNaive);
    let [planned, _] = [OrderMode::Planned, OrderMode::Shuffled(seed)].map(|order| {
        let run = |strategy| eval::evaluate_cfg(program, db, strategy, order);
        let sn = run(Strategy::SemiNaive);
        assert_eq!(
            semantic(sn.stats),
            semantic(spec.stats),
            "{order:?}: the semantic counters are the spec's"
        );
        assert_eq!(model_of(&sn), model_of(&spec), "{order:?}: IDB model");

        // the sharded parallel engine: same minimum model, and EvalStats
        // bit-for-bit identical to the sequential engine under the same
        // order, for degenerate (1), even (2), and odd (3) thread counts —
        // 8 and 12 first-step shards (`OVERSHARD × threads`), more than
        // most of these ranges have rows: the (rule, delta, shard) merge
        // order keeps counters and model shard-count independent
        for threads in [1usize, 2, 3] {
            let par = run(Strategy::SemiNaiveParallel { threads });
            assert_eq!(
                par.stats, sn.stats,
                "{order:?} parallel({threads}) EvalStats must be bit-for-bit identical"
            );
            assert_eq!(model_of(&par), model_of(&spec), "{order:?} parallel({threads}) IDB model");
        }
        sn.stats
    });

    // the allocation-free answer path agrees with the spec's goal
    // selection over its model
    let (fast_ans, fast_stats) = eval::answer(program, db, Strategy::SemiNaive);
    let (ref_ans, _) = reference::answer(program, db, Strategy::SemiNaive);
    assert_eq!(fast_ans.sorted(), ref_ans.sorted(), "goal answers");
    assert_eq!(fast_stats, planned);

    let (par_ans, par_stats) =
        eval::answer(program, db, Strategy::SemiNaiveParallel { threads: 2 });
    assert_eq!(par_ans.sorted(), fast_ans.sorted(), "parallel goal answers");
    assert_eq!(par_stats, fast_stats);
}

/// `[iterations, rule_firings, tuples_derived, join_probes]`.
type Counters = [u64; 4];

/// Literal work counters on one fixed input per program — every gallery
/// program, then its magic rewrite where `magic_transform` succeeds, on
/// `build_db(shape 0, n 12, seed 1)` — under `OrderMode::Planned`, then
/// `OrderMode::Shuffled(5)` (under which the staged-head prune fires).
/// First recorded where the engine's counters had to equal a
/// planner-mirroring reference bit for bit. A change that moves a probe
/// count edits this table and says why.
const PINNED: [(&str, bool, Counters, Counters); 18] = [
    ("program_a", false, [9, 63, 63, 72], [9, 63, 63, 72]),
    ("program_a", true, [6, 7, 7, 21], [6, 7, 7, 39]),
    ("program_b", false, [9, 63, 63, 72], [9, 63, 63, 72]),
    ("program_b", true, [10, 42, 42, 130], [10, 42, 42, 155]),
    ("program_c", false, [5, 63, 63, 135], [5, 63, 63, 135]),
    ("program_c", true, [12, 42, 42, 190], [12, 42, 42, 171]),
    ("balanced", false, [3, 13, 13, 38], [3, 13, 13, 36]),
    ("balanced", true, [8, 19, 19, 96], [8, 19, 19, 253]),
    ("cycle_program", false, [9, 63, 63, 72], [9, 63, 63, 72]),
    ("finite_two_words", false, [2, 15, 15, 10], [2, 15, 15, 10]),
    ("finite_two_words", true, [3, 3, 3, 5], [3, 3, 3, 5]),
    ("finite_diagonal", false, [2, 48, 48, 60], [2, 48, 48, 60]),
    ("b1_b2star", false, [4, 17, 17, 21], [4, 17, 17, 21]),
    ("b1_b2star", true, [5, 4, 4, 14], [5, 4, 4, 27]),
    ("even_paths", false, [5, 62, 62, 215], [5, 62, 62, 215]),
    ("even_paths", true, [4, 7, 7, 34], [4, 7, 7, 145]),
    ("palindromic", false, [7, 51, 51, 247], [7, 51, 51, 254]),
    ("palindromic", true, [7, 40, 40, 349], [7, 40, 40, 686]),
];

#[test]
fn work_counters_are_pinned_on_the_gallery() {
    let mut runs = Vec::new();
    for entry in gallery() {
        let original = entry.chain().program;
        let magic = selprop_datalog::magic::magic_transform(&original).ok();
        runs.push((entry.name, false, original));
        runs.extend(magic.map(|m| (entry.name, true, m.program)));
    }
    assert_eq!(runs.len(), PINNED.len(), "one pinned row per program");
    for ((name, magic, mut program), (pinned_name, pinned_magic, planned, shuffled)) in
        runs.into_iter().zip(PINNED)
    {
        assert_eq!((name, magic), (pinned_name, pinned_magic), "table order");
        let db = build_db(&mut program, 0, 12, 1);
        for (order, [iterations, rule_firings, tuples_derived, join_probes]) in
            [(OrderMode::Planned, planned), (OrderMode::Shuffled(5), shuffled)]
        {
            let want = EvalStats {
                iterations: iterations as usize,
                rule_firings,
                tuples_derived,
                join_probes,
            };
            let got = eval::evaluate_cfg(&program, &db, Strategy::SemiNaive, order).stats;
            assert_eq!(got, want, "{name} (magic: {magic}) {order:?}");
        }
    }
}

/// `[join_probes, rule_firings, tuples_derived, dred_reads, rows
/// appended]` one round spent.
type RoundCost = [u64; 5];

/// The retract script on a maintained store of `program` over `db`, and
/// what each of its rounds spent: retract every third EDB fact; drop
/// rule 0; re-add rule 0 and retract the next third in the same round —
/// the round whose seeding pass re-derives tuples the retraction
/// over-deletes before the rescue reaches them. Compaction is off, so
/// row counts only grow. The store is checked against the specification
/// after every round.
fn retract_script(program: &Program, db: &Database, order: OrderMode) -> [RoundCost; 3] {
    let mut m = Materialization::from_database_with(program, db, Strategy::SemiNaive, order);
    m.set_compaction_policy(None);
    let facts: Vec<(Pred, Tuple)> = db
        .sorted_models()
        .into_iter()
        .flat_map(|(pred, rows)| rows.into_iter().map(move |t| (pred, t)))
        .collect();
    let third = |k: usize| facts.iter().skip(k).step_by(3).cloned().collect::<Vec<_>>();
    let rounds = [
        UpdateRound { retracts: third(0), ..UpdateRound::new() },
        UpdateRound::new().drop_rule(RuleId(0)),
        UpdateRound { retracts: third(1), ..UpdateRound::new().add_rule(program.rules[0].clone()) },
    ];
    let mut without_rule_0 = program.clone();
    without_rule_0.rules.remove(0);
    let mut edb = db.clone();
    rounds.map(|round| {
        let (stats, reads, rows) = (m.stats(), m.dred_reads(), m.mem_stats().total_rows);
        m.apply(&round);
        for (pred, t) in &round.retracts {
            edb.remove(*pred, t);
        }
        let rules = if round.rule_drops.is_empty() { program } else { &without_rule_0 };
        assert_at_fixpoint_over(&m, rules, &edb, "retract script");
        let after = m.stats();
        [
            after.join_probes - stats.join_probes,
            after.rule_firings - stats.rule_firings,
            after.tuples_derived - stats.tuples_derived,
            m.dred_reads() - reads,
            (m.mem_stats().total_rows - rows) as u64,
        ]
    })
}

/// What [`retract_script`] spends per round on the inputs of [`PINNED`],
/// under `OrderMode::Planned`, then `OrderMode::Shuffled(5)`. The
/// rescue's probes are in the first column: a change to how a rescue
/// searches, or to which candidates it searches, moves them. A change
/// that moves a count edits this table and says why.
#[rustfmt::skip]
const PINNED_RETRACT: [(&str, bool, [RoundCost; 3], [RoundCost; 3]); 18] = [
    ("program_a", false, [[192, 2, 2, 60, 2], [70, 0, 0, 22, 0], [8, 6, 6, 27, 6]],
        [[192, 2, 2, 60, 2], [70, 0, 0, 22, 0], [8, 6, 6, 27, 6]]),
    ("program_a", true, [[22, 1, 1, 4, 1], [14, 0, 0, 4, 0], [2, 0, 0, 2, 0]],
        [[29, 1, 1, 4, 1], [14, 0, 0, 4, 0], [2, 0, 0, 2, 0]]),
    ("program_b", false, [[192, 3, 3, 54, 3], [62, 0, 0, 22, 0], [8, 6, 6, 31, 6]],
        [[357, 3, 3, 54, 3], [52, 0, 0, 22, 0], [8, 6, 6, 31, 6]]),
    ("program_b", true, [[111, 2, 2, 40, 2], [40, 0, 0, 16, 0], [7, 0, 0, 37, 0]],
        [[112, 2, 2, 40, 2], [40, 0, 0, 14, 0], [7, 0, 0, 37, 0]]),
    ("program_c", false, [[323, 5, 5, 62, 5], [57, 0, 0, 51, 0], [15, 6, 6, 7, 6]],
        [[365, 5, 5, 63, 5], [52, 0, 0, 50, 0], [15, 6, 6, 7, 6]]),
    ("program_c", true, [[177, 2, 2, 47, 2], [41, 0, 0, 49, 0], [2, 0, 0, 3, 0]],
        [[183, 2, 2, 47, 2], [44, 0, 0, 49, 0], [2, 0, 0, 3, 0]]),
    ("balanced", false, [[34, 0, 0, 12, 0], [32, 0, 0, 2, 0], [5, 1, 1, 8, 1]],
        [[40, 0, 0, 12, 0], [43, 0, 0, 2, 0], [5, 1, 1, 8, 1]]),
    ("balanced", true, [[69, 0, 0, 29, 0], [0, 0, 0, 0, 0], [2, 0, 0, 10, 0]],
        [[81, 0, 0, 29, 0], [0, 0, 0, 0, 0], [7, 0, 0, 10, 0]]),
    ("cycle_program", false, [[192, 2, 2, 60, 2], [70, 0, 0, 22, 0], [8, 6, 6, 27, 6]],
        [[192, 2, 2, 60, 2], [70, 0, 0, 22, 0], [8, 6, 6, 27, 6]]),
    ("finite_two_words", false, [[21, 0, 0, 9, 0], [12, 0, 0, 0, 0], [9, 2, 2, 7, 2]],
        [[18, 0, 0, 9, 0], [8, 0, 0, 0, 0], [13, 2, 2, 7, 2]]),
    ("finite_two_words", true, [[6, 0, 0, 3, 0], [0, 0, 0, 0, 0], [2, 0, 0, 0, 0]],
        [[8, 0, 0, 3, 0], [0, 0, 0, 0, 0], [2, 0, 0, 0, 0]]),
    ("finite_diagonal", false, [[170, 2, 2, 47, 2], [42, 7, 7, 0, 7], [47, 5, 5, 67, 5]],
        [[170, 2, 2, 47, 2], [51, 7, 7, 0, 7], [60, 5, 5, 67, 5]]),
    ("b1_b2star", false, [[32, 0, 0, 10, 0], [40, 0, 0, 5, 0], [6, 3, 3, 6, 3]],
        [[32, 0, 0, 10, 0], [40, 0, 0, 5, 0], [6, 3, 3, 6, 3]]),
    ("b1_b2star", true, [[26, 0, 0, 4, 0], [0, 0, 0, 0, 0], [2, 0, 0, 1, 0]],
        [[21, 0, 0, 4, 0], [0, 0, 0, 0, 0], [2, 0, 0, 1, 0]]),
    ("even_paths", false, [[437, 11, 11, 81, 11], [112, 0, 0, 19, 0], [10, 1, 1, 65, 1]],
        [[562, 11, 11, 81, 11], [100, 0, 0, 19, 0], [10, 1, 1, 65, 1]]),
    ("even_paths", true, [[50, 2, 2, 7, 2], [20, 0, 0, 3, 0], [2, 0, 0, 7, 0]],
        [[70, 2, 2, 7, 2], [20, 0, 0, 3, 0], [8, 0, 0, 7, 0]]),
    ("palindromic", false, [[345, 2, 2, 47, 2], [98, 0, 0, 8, 0], [43, 0, 0, 50, 0]],
        [[446, 2, 2, 47, 2], [95, 0, 0, 8, 0], [42, 0, 0, 50, 0]]),
    ("palindromic", true, [[327, 0, 0, 77, 0], [0, 0, 0, 0, 0], [2, 0, 0, 33, 0]],
        [[480, 0, 0, 77, 0], [0, 0, 0, 0, 0], [2, 0, 0, 33, 0]]),
];

#[test]
fn retract_counters_are_pinned_on_the_gallery() {
    let mut row = 0;
    for entry in gallery() {
        let original = entry.chain().program;
        let magic = selprop_datalog::magic::magic_transform(&original).ok();
        for (is_magic, mut program) in
            std::iter::once((false, original)).chain(magic.map(|m| (true, m.program)))
        {
            let (name, pinned_magic, planned, shuffled) = PINNED_RETRACT[row];
            assert_eq!((entry.name, is_magic), (name, pinned_magic), "table order");
            let db = build_db(&mut program, 0, 12, 1);
            for (order, want) in [(OrderMode::Planned, planned), (OrderMode::Shuffled(5), shuffled)]
            {
                let got = retract_script(&program, &db, order);
                assert_eq!(got, want, "{name} (magic: {is_magic}) {order:?}");
            }
            row += 1;
        }
    }
    assert_eq!(row, PINNED_RETRACT.len(), "one pinned row per program");
}

/// [`cache_retract_script`]'s counts: the first round rescues inside
/// the views' template stores, the other two start them over.
#[test]
fn cache_retract_counters_are_pinned_on_program_a() {
    let want = [[92, 1, 1, 21], [-158, -22, -22, -21], [14, 2, 2, 0]];
    assert_eq!(cache_retract_script("program_a"), want);
}

/// The same counts on programs B and C: the right-linear and the
/// nonlinear `anc`, whose templates the magic rewrite reshapes — B's
/// magic set grows along `par`, C's rules join two adorned atoms.
#[test]
fn cache_retract_counters_are_pinned_on_programs_b_and_c() {
    let want_b = [[417, 2, 2, 209], [-816, -133, -133, -209], [-6, -2, -2, 0]];
    assert_eq!(cache_retract_script("program_b"), want_b);
    let want_c = [[569, 2, 2, 248], [-1213, -138, -138, -248], [28, 3, 3, 0]];
    assert_eq!(cache_retract_script("program_c"), want_c);
}

/// The retract script's rounds on a base store of gallery program
/// `name` (an `anc` over `par`), each followed by a query of four views
/// (`anc(root, Y)`, `anc(v1, Y)`, `anc(v2, Y)`, `anc(v3, Y)`) that
/// syncs them; per round, what the cache's template stores spent,
/// `[join_probes, rule_firings, tuples_derived, retract_reads]`. A rule
/// change drops the stores and their counts with them, so a delta may be
/// negative.
fn cache_retract_script(name: &str) -> [[i64; 4]; 3] {
    let entry = gallery().into_iter().find(|e| e.name == name).expect("in the gallery");
    let mut program = entry.chain().program;
    let db = build_db(&mut program, 0, 12, 1);
    let goals: Vec<_> = ["v1", "v2", "v3"]
        .iter()
        .map(|v| program.symbols.constant(v))
        .fold(vec![program.goal.clone()], |mut goals, c| {
            let mut g = program.goal.clone();
            g.args[0] = Term::Const(c);
            goals.push(g);
            goals
        });
    let mut base = Materialization::from_database(&program, &db, Strategy::SemiNaive);
    base.set_compaction_policy(None);
    let mut cache = QueryCache::new(&program);
    for g in &goals {
        cache.query(&mut base, g);
    }
    assert_eq!(cache.stats().views, 4);
    let facts: Vec<(Pred, Tuple)> = db
        .sorted_models()
        .into_iter()
        .flat_map(|(pred, rows)| rows.into_iter().map(move |t| (pred, t)))
        .collect();
    let third = |k: usize| facts.iter().skip(k).step_by(3).cloned().collect::<Vec<_>>();
    let rounds = [
        UpdateRound { retracts: third(0), ..UpdateRound::new() },
        UpdateRound::new().drop_rule(RuleId(0)),
        UpdateRound { retracts: third(1), ..UpdateRound::new().add_rule(program.rules[0].clone()) },
    ];
    rounds.map(|round| {
        let (before, reads) = (cache.eval_stats(), cache.retract_reads());
        base.apply(&round);
        for g in &goals {
            assert_eq!(cache.query(&mut base, g).sorted(), base.answer_goal(g).sorted());
        }
        let after = cache.eval_stats();
        let delta = |a: u64, b: u64| a as i64 - b as i64;
        [
            delta(after.join_probes, before.join_probes),
            delta(after.rule_firings, before.rule_firings),
            delta(after.tuples_derived, before.tuples_derived),
            delta(cache.retract_reads(), reads),
        ]
    })
}

/// The provenance contract, asserted on one `(program, db)` pair:
///
/// 1. recording justifications changes no counter and no model row;
/// 2. every recorded justification is a genuine rule instantiation whose
///    chains bottom out in EDB rows ([`Provenance::check`]);
/// 3. the specification (`reference::Provenance`) derives the same facts,
///    and its own justifications pass the mirror checker;
/// 4. justifications are **bit-for-bit identical** across thread counts
///    {1, 2, 3, 4}.
///
/// [`Provenance::check`]: selprop_datalog::Provenance::check
fn assert_provenance_contract(program: &Program, db: &Database) {
    let plain = eval::evaluate(program, db, Strategy::SemiNaive);
    let seq = eval::evaluate_with_provenance(program, db, Strategy::SemiNaive);
    assert_eq!(
        seq.stats(), plain.stats,
        "recording justifications must not change the work counters"
    );
    seq.check(program)
        .expect("engine justifications are valid rule instantiations over EDB leaves");

    // the recorded derived set IS the IDB model, and matches the
    // executable specification
    let spec = reference::Provenance::compute(program, db);
    spec.check(program).expect("spec justifications are valid");
    let mut engine_facts: Vec<_> = seq.derived().collect();
    engine_facts.sort();
    engine_facts.dedup();
    let mut spec_facts: Vec<_> = spec.derived().cloned().collect();
    spec_facts.sort();
    assert_eq!(engine_facts, spec_facts, "derived sets agree with the spec");
    assert_eq!(
        seq.num_derived() as u64,
        plain.stats.tuples_derived,
        "one justification per derived tuple"
    );

    // thread- and shard-count independence, bit-for-bit (row ids
    // included — Provenance equality compares the full row stores)
    for strategy in [
        Strategy::SemiNaiveParallel { threads: 1 },
        Strategy::SemiNaiveParallel { threads: 2 },
        Strategy::SemiNaiveParallel { threads: 3 },
        Strategy::SemiNaiveParallel { threads: 4 },
    ] {
        let par = eval::evaluate_with_provenance(program, db, strategy);
        assert_eq!(par.stats(), seq.stats(), "{strategy:?} counters");
        assert_eq!(
            par, seq,
            "{strategy:?}: justifications must be identical at every thread/shard count"
        );
    }
}

/// `m` against a from-scratch evaluation of `edb`
/// ([`assert_at_fixpoint_over`]), its IDB model relation for relation —
/// empty ones included — and every recorded justification a genuine
/// rule instance over live rows.
fn assert_matches_reference(m: &Materialization, program: &Program, edb: &Database) {
    let spec = assert_at_fixpoint_over(m, program, edb, "from scratch");
    assert_eq!(
        m.idb_database().sorted_models(),
        spec.idb.sorted_models(),
        "IDB model must equal the from-scratch spec"
    );
    m.provenance().check(program).expect("justifications stay valid across updates");
}

/// The update-sequence contract: a [`Materialization`] driven through an
/// interleaved insert/retract/query sequence must, after **every** op,
/// equal a from-scratch re-evaluation (the reference engine) of
/// the mirrored database — bit-for-bit relation equality on the IDB
/// model, the stored EDB, and the goal answer — and its recorded
/// justifications must stay valid.
fn assert_update_sequence_matches_reference(
    program: &Program,
    db0: &Database,
    pool: &Database,
    strategy: Strategy,
) {
    let mut m = Materialization::from_database(program, db0, strategy);
    let mut mirror = db0.clone();

    // The pool's facts, grouped per predicate in a deterministic order,
    // drive the update stream.
    let mut pool_facts: Vec<(Pred, Vec<Tuple>)> =
        pool.iter().map(|(p, r)| (p, r.sorted())).collect();
    pool_facts.sort_by_key(|(p, _)| p.0);

    // Op 1: insert the first half of each pool relation.
    for (pred, tuples) in &pool_facts {
        let half = &tuples[..tuples.len() / 2];
        let novel = half.iter().filter(|t| !mirror.relation(*pred).is_some_and(|r| r.contains(t))).count();
        assert_eq!(m.apply(&UpdateRound::new().insert_all(*pred, half)).inserted, novel);
        for t in half {
            mirror.insert(*pred, t.clone());
        }
    }
    assert_matches_reference(&m, program, &mirror);

    // Op 2: retract every third fact currently in the mirror (originals
    // and freshly inserted facts alike).
    let mut retractions: Vec<(Pred, Vec<Tuple>)> = Vec::new();
    {
        let mut all: Vec<(Pred, Vec<Tuple>)> =
            mirror.iter().map(|(p, r)| (p, r.sorted())).collect();
        all.sort_by_key(|(p, _)| p.0);
        for (pred, tuples) in all {
            let victims: Vec<Tuple> = tuples.iter().step_by(3).cloned().collect();
            if !victims.is_empty() {
                retractions.push((pred, victims));
            }
        }
    }
    for (pred, victims) in &retractions {
        assert_eq!(
            m.apply(&UpdateRound::new().retract_all(*pred, victims)).retracted,
            victims.len()
        );
        for t in victims {
            assert!(mirror.remove(*pred, t));
        }
    }
    assert_matches_reference(&m, program, &mirror);

    // Op 3: insert the second half of the pool (plus re-insert one
    // retracted victim, exercising resurrection at a fresh row id).
    for (pred, tuples) in &pool_facts {
        let rest = &tuples[tuples.len() / 2..];
        m.apply(&UpdateRound::new().insert_all(*pred, rest));
        for t in rest {
            mirror.insert(*pred, t.clone());
        }
    }
    if let Some((pred, victims)) = retractions.first() {
        m.apply(&UpdateRound::new().insert_all(*pred, &victims[..1]));
        mirror.insert(*pred, victims[0].clone());
    }
    assert_matches_reference(&m, program, &mirror);
}

/// The compaction contract: interleaved churn with an explicit
/// compaction and a policy-triggered one must leave the store
/// indistinguishable — after **every** compaction — from a from-scratch
/// reference evaluation of the mirrored database, with valid recorded
/// justifications throughout, and the snapshot codec must round-trip
/// the store bit-for-bit at the end.
fn assert_churn_compact_churn_matches_reference(
    program: &Program,
    db0: &Database,
    pool: &Database,
    strategy: Strategy,
) {
    let mut m = Materialization::from_database(program, db0, strategy);
    m.set_compaction_policy(None); // phase 1 compacts explicitly
    let mut mirror = db0.clone();

    // Churn 1: add the whole pool, then retract every second fact.
    let mut pool_facts: Vec<(Pred, Vec<Tuple>)> =
        pool.iter().map(|(p, r)| (p, r.sorted())).collect();
    pool_facts.sort_by_key(|(p, _)| p.0);
    for (pred, tuples) in &pool_facts {
        m.apply(&UpdateRound::new().insert_all(*pred, tuples));
        for t in tuples {
            mirror.insert(*pred, t.clone());
        }
    }
    let mut all: Vec<(Pred, Vec<Tuple>)> = mirror.iter().map(|(p, r)| (p, r.sorted())).collect();
    all.sort_by_key(|(p, _)| p.0);
    let mut churned = 0usize;
    for (pred, tuples) in &all {
        let victims: Vec<Tuple> = tuples.iter().step_by(2).cloned().collect();
        churned += m.apply(&UpdateRound::new().retract_all(*pred, &victims)).retracted;
        for t in &victims {
            mirror.remove(*pred, t);
        }
    }
    assert_matches_reference(&m, program, &mirror);

    // Explicit compaction: reclaims every tombstone, drops no live row,
    // changes nothing observable.
    let before = m.mem_stats();
    m.compact();
    let after = m.mem_stats();
    assert_eq!(after.live_rows, after.total_rows, "no tombstones survive a compaction");
    assert_eq!(after.live_rows, before.live_rows, "no live row is lost");
    assert_matches_reference(&m, program, &mirror);

    // Churn 2 over the remapped store: resurrect the victims, then let
    // an aggressive policy trigger the second compaction on its own.
    m.set_compaction_policy(Some(CompactionPolicy {
        min_dead_rows: 1,
        dead_percent: 1,
    }));
    for (pred, tuples) in &all {
        let victims: Vec<Tuple> = tuples.iter().step_by(2).cloned().collect();
        m.apply(&UpdateRound::new().insert_all(*pred, &victims));
        for t in &victims {
            mirror.insert(*pred, t.clone());
        }
    }
    let compactions_before = m.compactions();
    let mut churned2 = 0usize;
    for (pred, tuples) in &all {
        let victims: Vec<Tuple> = tuples.iter().skip(1).step_by(2).cloned().collect();
        churned2 += m.apply(&UpdateRound::new().retract_all(*pred, &victims)).retracted;
        for t in &victims {
            mirror.remove(*pred, t);
        }
    }
    if churned2 > 0 {
        assert!(
            m.compactions() > compactions_before,
            "the policy must have compacted during churn 2"
        );
        let stats = m.mem_stats();
        assert_eq!(stats.live_rows, stats.total_rows, "policy compaction reclaimed all");
    }
    assert_matches_reference(&m, program, &mirror);

    // Updates keep working over the twice-compacted store.
    if let Some((pred, tuples)) = all.first() {
        let back: Vec<Tuple> = tuples.iter().skip(1).step_by(2).cloned().collect();
        m.apply(&UpdateRound::new().insert_all(*pred, &back));
        for t in &back {
            mirror.insert(*pred, t.clone());
        }
        assert_matches_reference(&m, program, &mirror);
    }
    let _ = churned;

    restored(&m);
}

/// Bounded memory under churn, and the control that gives the bound
/// teeth: each round retracts one of the last four edges of program A's
/// 32-edge chain and puts it back, tombstoning the closure rows above it
/// and re-appending them under fresh row ids. Under a
/// [`CompactionPolicy`] peak `mem_stats().total_words()` — the reverse
/// index and its stale edges included — stays within 2× a freshly
/// evaluated store of the same database; with the policy off the
/// same loop outgrows that. Afterwards the compacted store equals the
/// reference model and its snapshot re-encodes byte for byte —
/// sequentially and on 2 and 4 threads.
#[test]
fn compaction_bounds_memory_under_churn_and_its_absence_does_not() {
    const ROUNDS: usize = 1_200;
    let mut p = selprop_datalog::parse_program(
        "?- anc(john, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), par(Z, Y).",
    )
    .unwrap();
    let par = p.symbols.get_predicate("par").unwrap();
    let db = workload::chain(&mut p, "par", "john", 32);
    let edges = db.relation(par).unwrap().sorted();

    let parallel = |threads| Strategy::SemiNaiveParallel { threads };
    for strategy in [Strategy::SemiNaive, parallel(2), parallel(4)] {
        let fresh = Materialization::from_database(&p, &db, strategy).mem_stats().total_words();
        let churn = |policy| {
            let mut m = Materialization::from_database(&p, &db, strategy);
            m.set_compaction_policy(policy);
            let mut peak = 0;
            for i in 0..ROUNDS {
                let victim = &edges[edges.len() - 1 - i % 4..][..1];
                assert_eq!(
                    m.apply(&UpdateRound::new().retract_all(par, victim)).retracted,
                    1,
                    "round {i}"
                );
                assert_eq!(
                    m.apply(&UpdateRound::new().insert_all(par, victim)).inserted,
                    1,
                    "round {i}"
                );
                peak = peak.max(m.mem_stats().total_words());
            }
            (m, peak)
        };

        let policy = CompactionPolicy { min_dead_rows: 32, dead_percent: 30 };
        let (m, peak) = churn(Some(policy));
        let (control, control_peak) = churn(None);
        assert!(
            peak <= 2 * fresh && m.compactions() > 0,
            "{strategy:?}: peak {peak} words over {ROUNDS} rounds against {fresh} fresh \
             ({:.2}x), {} compactions",
            peak as f64 / fresh as f64,
            m.compactions()
        );
        assert!(
            control_peak > 2 * fresh && control.compactions() == 0,
            "{strategy:?}: without a policy the loop must outgrow the bound, peaked at \
             {control_peak} words against {fresh} fresh"
        );
        assert_matches_reference(&m, &p, &db);
        restored(&m);
    }
}

/// A save leaves the edges of the justification it overwrote stale; a
/// save-only churn loop sheds them without compacting. A diamond `v48 →
/// b, c → d` hangs under the chain `john → v1 → … → v48`, and its two
/// `par(_, d)` edges go and come back in turn, one round each, so every
/// retraction saves the 49 rows `anc(x, d)` recorded through the edge
/// (only `anc(b, d)` or `anc(c, d)` dies, and comes back with its edge).
/// The stale edges reach a tenth of the reverse index, which is then
/// rebuilt alone: peak `total_words` stays within 2× a fresh store of
/// the same database, `compactions()` stays 0, and a query cache over
/// the store keeps its view — no miss, no template compiled —
/// answering as the base does every round — and the view's store, which
/// has no compaction policy, sheds its own (its words stay within 2×
/// the first round's). 256 unrelated `par`
/// edges keep the retracted rows under the policy's dead share.
#[test]
fn a_save_only_churn_loop_sheds_stale_edges_without_compacting() {
    const ROUNDS: usize = 400;
    let mut p = selprop_datalog::parse_program(
        "?- anc(john, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), par(Z, Y).",
    )
    .unwrap();
    let par = p.symbols.get_predicate("par").unwrap();
    let mut db = workload::chain(&mut p, "par", "john", 48);
    let [top, b, c, d] = ["v48", "b", "c", "d"].map(|n| p.symbols.constant(n));
    for e in [[top, b], [top, c], [b, d], [c, d]] {
        db.insert(par, e.to_vec());
    }
    for i in 0..256 {
        let e = [format!("s{i}"), format!("t{i}")].map(|n| p.symbols.constant(&n));
        db.insert(par, e.to_vec());
    }
    let fresh = Materialization::from_database(&p, &db, Strategy::SemiNaive).mem_stats();
    let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
    let goal = p.goal.clone();
    let mut cache = QueryCache::new(&p);
    cache.query(&mut m, &goal);
    let (start, view_words) = (cache.stats(), cache.view_words());
    let (mut peak, mut view_peak, mut sheds) = (0, 0, 0);
    for i in 0..ROUNDS {
        let edge = vec![[b, c][i / 2 % 2], d];
        let round = if i % 2 == 0 {
            UpdateRound::new().retract(par, edge)
        } else {
            UpdateRound::new().insert(par, edge)
        };
        let before = m.mem_stats();
        m.apply(&round);
        let after = m.mem_stats();
        sheds += usize::from(after.rev_words < before.rev_words);
        peak = peak.max(after.total_words());
        assert_eq!(cache.query(&mut m, &goal).sorted(), m.answer_goal(&goal).sorted(), "round {i}");
        view_peak = view_peak.max(cache.view_words());
    }
    assert!(sheds > 0, "the stale edges were never shed");
    assert!(
        peak <= 2 * fresh.total_words(),
        "peak {peak} words over {ROUNDS} rounds against {} fresh",
        fresh.total_words()
    );
    assert_eq!(m.compactions(), 0, "shedding compacts nothing");
    let end = cache.stats();
    assert_eq!((end.misses, end.template_compiles), (start.misses, start.template_compiles));
    assert_eq!(end.views, 1);
    // The view's store sheds its own stale edges.
    assert!(view_peak <= 2 * view_words, "view peak {view_peak} words, {view_words} at start");
    assert_matches_reference(&m, &p, &db);
}

/// A view's rows are saved in place too — through the magic row, of a
/// relation in a lower component of the template's rule graph — and
/// still after the store starts over on a base compaction. The view
/// `anc(john, Y)` over a diamond `john → b, c → d` loses one `par(_, d)`
/// edge, gets it back, then loses the other, synced after every round:
/// one of the two retractions reaches the `anc(john, d)` row through
/// the edge it is recorded through, and the other edge saves it. The
/// syncs derive nothing and answer as the base does.
#[test]
fn a_view_row_is_saved_in_place_before_and_after_its_store_starts_over() {
    let mut p = selprop_datalog::parse_program(
        "?- anc(john, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), par(Z, Y).",
    )
    .unwrap();
    let par = p.symbols.get_predicate("par").unwrap();
    let [john, b, c, d] = ["john", "b", "c", "d"].map(|n| p.symbols.constant(n));
    let mut db = Database::new();
    for e in [[john, b], [john, c], [b, d], [c, d]] {
        db.insert(par, e.to_vec());
    }
    let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
    m.set_compaction_policy(None);
    let goal = p.goal.clone();
    let mut cache = QueryCache::new(&p);
    for start_over in [false, true] {
        if start_over {
            // A base compaction starts the template store over.
            assert!(m.compact() > 0);
        }
        cache.query(&mut m, &goal);
        let before = cache.eval_stats();
        let rounds = [
            UpdateRound::new().retract(par, vec![b, d]),
            UpdateRound::new().insert(par, vec![b, d]),
            UpdateRound::new().retract(par, vec![c, d]),
            UpdateRound::new().insert(par, vec![c, d]),
        ];
        for round in &rounds[..3] {
            m.apply(round);
            let answer = cache.query(&mut m, &goal).sorted();
            assert_eq!(answer, m.answer_goal(&goal).sorted());
            assert_eq!(answer.len(), 3, "anc(john, Y) for Y in b, c, d");
        }
        assert_eq!(cache.eval_stats().tuples_derived, before.tuples_derived, "saved, not derived");
        m.apply(&rounds[3]);
    }
    assert_eq!(cache.stats().invalidations, 1);
}

/// A complete layered DAG makes every pass stage mostly heads it staged
/// already (each node reaches the next rank through every node of its
/// own), the regime `build_db`'s shapes never reach. The staged-head
/// filter decides those candidates before the store does, so the
/// engines must still agree with the specification, row ids and
/// justifications included, at every thread count and under both
/// orders. Program A's counters on `layered_dag(6, 4)` are pinned.
#[test]
fn a_dense_closure_of_repeated_heads_agrees_across_engines() {
    for (layers, width) in [(6usize, 4usize), (4, 8)] {
        for name in ["program_a", "program_b", "program_c"] {
            let entry = gallery().into_iter().find(|e| e.name == name).expect("gallery program");
            let mut program = entry.chain().program;
            let db = workload::layered_dag(&mut program, "par", "john", layers, width);
            assert_engines_agree(&program, &db, 7);
            assert_provenance_contract(&program, &db);
        }
    }
    let entry = gallery().into_iter().find(|e| e.name == "program_a").expect("program A");
    let mut program = entry.chain().program;
    let db = workload::layered_dag(&mut program, "par", "john", 6, 4);
    let want =
        EvalStats { iterations: 8, rule_firings: 364, tuples_derived: 364, join_probes: 372 };
    for order in [OrderMode::Planned, OrderMode::Shuffled(5)] {
        let got = eval::evaluate_cfg(&program, &db, Strategy::SemiNaive, order).stats;
        assert_eq!(got, want, "program A on layered_dag(6, 4), {order:?}");
    }
}

/// Program C's recursive rule reads two `anc` atoms, so its trees
/// branch: a node's children are two subtrees, each a range further down
/// the node array. On a small layered DAG, every derived atom's tree has
/// the size and height its justifications give, each internal node's
/// children are its justification's body atoms in rule-text order,
/// every leaf is a database fact, and a clone equals its original.
#[test]
fn branching_trees_follow_their_justifications() {
    let entry = gallery().into_iter().find(|e| e.name == "program_c").expect("program C");
    let mut program = entry.chain().program;
    let db = workload::layered_dag(&mut program, "par", "john", 3, 2);
    let prov = eval::evaluate_with_provenance(&program, &db, Strategy::SemiNaive);
    let edbs = program.edb_predicates();
    let mut branching = 0;
    for atom in prov.derived() {
        let tree = prov.tree(&atom).expect("a derived atom has a tree");
        assert_eq!(tree.nodes().first().map(|root| &root.atom), Some(&atom));
        assert_eq!(Some(tree.size() as u64), prov.tree_size(&atom), "{atom:?}");
        assert_eq!(Some(tree.height() as u64), prov.tree_height(&atom), "{atom:?}");
        for node in tree.nodes() {
            let kids = &tree.nodes()[node.children.clone()];
            match node.rule {
                None => assert!(edbs.contains(&node.atom.pred) && kids.is_empty(), "{node:?}"),
                Some(rule) => {
                    let body = kids.iter().map(|k| k.atom.clone()).collect();
                    assert_eq!(prov.justification(&node.atom), Some((rule, body)));
                }
            }
            branching += usize::from(kids.iter().filter(|k| k.rule.is_some()).count() == 2);
        }
        assert_eq!(tree.clone(), tree);
    }
    assert!(branching > 0, "some node has two derived children");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn storage_engine_matches_reference_on_gallery(
        which in 0usize..10,
        shape in 0u8..4,
        n in 3usize..14,
        seed in 0u64..10_000,
    ) {
        let entries = gallery();
        let entry = &entries[which % entries.len()];
        let mut program = entry.chain().program;
        let db = build_db(&mut program, shape, n, seed);
        assert_engines_agree(&program, &db, seed);
    }

    #[test]
    fn storage_engine_matches_reference_on_magic_programs(
        which in 0usize..10,
        n in 3usize..10,
        seed in 0u64..10_000,
    ) {
        // Magic-transformed programs stress 0-ary magic predicates,
        // empty-body seed rules, and constants in rule bodies.
        let entries = gallery();
        let entry = &entries[which % entries.len()];
        let original = entry.chain().program;
        let Ok(magic) = selprop_datalog::magic::magic_transform(&original) else {
            return Ok(()); // diagonal goals reject magic; nothing to test
        };
        let mut program = magic.program;
        let db = build_db(&mut program, 0, n, seed);
        assert_engines_agree(&program, &db, seed);
    }

    #[test]
    fn provenance_contract_on_gallery(
        which in 0usize..10,
        shape in 0u8..4,
        n in 3usize..10,
        seed in 0u64..10_000,
    ) {
        let entries = gallery();
        let entry = &entries[which % entries.len()];
        let mut program = entry.chain().program;
        let db = build_db(&mut program, shape, n, seed);
        assert_provenance_contract(&program, &db);
    }

    #[test]
    fn provenance_contract_on_magic_programs(
        which in 0usize..10,
        n in 3usize..8,
        seed in 0u64..10_000,
    ) {
        // Magic-transformed programs stress 0-ary magic predicates,
        // empty-body seed rules, and constants in rule bodies — all of
        // which must still record valid justifications.
        let entries = gallery();
        let entry = &entries[which % entries.len()];
        let original = entry.chain().program;
        let Ok(magic) = selprop_datalog::magic::magic_transform(&original) else {
            return Ok(()); // diagonal goals reject magic; nothing to test
        };
        let mut program = magic.program;
        let db = build_db(&mut program, 0, n, seed);
        assert_provenance_contract(&program, &db);
    }

    #[test]
    fn incremental_updates_match_from_scratch_on_gallery(
        which in 0usize..10,
        shape in 0u8..4,
        n in 3usize..10,
        seed in 0u64..10_000,
        strat in 0usize..5,
    ) {
        // Random interleaved insert/retract/query sequences against the
        // from-scratch reference, across the strategy family and
        // threads ∈ {1, 2, 3, 4}.
        let strategy = [
            Strategy::SemiNaive,
            Strategy::SemiNaiveParallel { threads: 1 },
            Strategy::SemiNaiveParallel { threads: 2 },
            Strategy::SemiNaiveParallel { threads: 4 },
            Strategy::SemiNaiveParallel { threads: 3 },
        ][strat];
        let entries = gallery();
        let entry = &entries[which % entries.len()];
        let mut program = entry.chain().program;
        let db0 = build_db(&mut program, shape, n, seed);
        // A second workload over the same predicates = the update pool.
        let pool = build_db(&mut program, shape.wrapping_add(1), n, seed ^ 0x9e37);
        assert_update_sequence_matches_reference(&program, &db0, &pool, strategy);
    }

    #[test]
    fn incremental_updates_match_from_scratch_on_magic_programs(
        which in 0usize..10,
        n in 3usize..8,
        seed in 0u64..10_000,
        strat in 0usize..3,
    ) {
        // Magic-transformed programs stress 0-ary magic predicates,
        // empty-body seed rules, and constants in rule bodies — the
        // update machinery must handle all of them.
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
        assert_update_sequence_matches_reference(&program, &db0, &pool, strategy);
    }

    #[test]
    fn insert_then_retract_roundtrip_restores_the_store(
        which in 0usize..10,
        shape in 0u8..4,
        n in 3usize..10,
        seed in 0u64..10_000,
        threads in 1usize..4,
    ) {
        let entries = gallery();
        let entry = &entries[which % entries.len()];
        let mut program = entry.chain().program;
        let db0 = build_db(&mut program, shape, n, seed);
        let pool = build_db(&mut program, shape.wrapping_add(2), n, seed ^ 0x2b);
        let mut m = Materialization::from_database(
            &program,
            &db0,
            Strategy::SemiNaiveParallel { threads },
        );
        let snapshot = m.database().sorted_models();
        // Insert only facts genuinely absent from the store, so the
        // retraction of exactly those facts must restore it.
        let mut inserted: Vec<(Pred, Vec<Tuple>)> = Vec::new();
        for (pred, rel) in pool.iter() {
            let novel: Vec<Tuple> = rel
                .sorted()
                .into_iter()
                .filter(|t| !db0.relation(pred).is_some_and(|r| r.contains(t)))
                .collect();
            if !novel.is_empty() {
                m.apply(&UpdateRound::new().insert_all(pred, &novel));
                inserted.push((pred, novel));
            }
        }
        for (pred, novel) in &inserted {
            prop_assert_eq!(
                m.apply(&UpdateRound::new().retract_all(*pred, novel)).retracted,
                novel.len()
            );
        }
        prop_assert_eq!(
            m.database().sorted_models(),
            snapshot,
            "insert-then-retract must restore the pre-insert store bit-for-bit"
        );
    }

    #[test]
    fn churn_compact_churn_matches_from_scratch(
        which in 0usize..10,
        shape in 0u8..4,
        n in 3usize..10,
        seed in 0u64..10_000,
        strat in 0usize..4,
    ) {
        // Random churn → compact → churn sequences against the
        // from-scratch reference, across the strategy family and
        // threads ∈ {1, 2, 4}.
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
        let pool = build_db(&mut program, shape.wrapping_add(3), n, seed ^ 0x71f3);
        assert_churn_compact_churn_matches_reference(&program, &db0, &pool, strategy);
    }

    #[test]
    fn convergence_profile_is_stage_exact(
        shape in 0u8..4,
        n in 3usize..12,
        seed in 0u64..10_000,
    ) {
        // Section 8's stage count is the specification's: its rounds
        // less the final empty one, at every thread count.
        let entries = gallery();
        let mut chain = entries[0].chain(); // program A: unbounded, several stages
        let db = build_db(&mut chain.program, shape, n, seed);
        let spec = reference::evaluate(&chain.program, &db, Strategy::SemiNaive).stats.iterations;
        let stages = convergence_iterations(&chain, std::slice::from_ref(&db));
        prop_assert_eq!(stages, vec![spec - 1]);
        let par = eval::answer(&chain.program, &db, Strategy::SemiNaiveParallel { threads: 2 }).1;
        prop_assert_eq!(par.iterations, spec);
    }
}
