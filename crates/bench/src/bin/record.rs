//! Records the evaluation baseline: work counters **and** wall-clock for
//! the headline experiment configs, including the large-scale (>10⁶
//! derived tuples) workloads and the thread-scaling sweep of the
//! parallel engine, into `BENCH_eval.json` at the repo root.
//!
//! Work counters are machine-independent and must never drift (the
//! reference engine is run on every config as a cross-check, and every
//! per-thread-count run is cross-checked against the sequential storage
//! engine); wall-clock is machine-dependent and recorded so future PRs
//! can track the perf trajectory on the same box. **A cross-check
//! mismatch terminates the process with a nonzero exit code** — CI and
//! scripts must be able to rely on that. Run with:
//!
//! ```text
//! cargo run --release -p selprop-bench --bin record
//! ```
//!
//! Flags (used by the bench crate's integration tests):
//!
//! - `--smoke`: tiny configs only, output to a temp path — exercises the
//!   full pipeline (including thread rows) in seconds;
//! - `--corrupt-cross-check`: deliberately corrupts one reference
//!   counter before the comparison, proving the failure path really
//!   propagates to a nonzero exit.

use std::fmt::Write as _;
use std::time::Instant;

use selprop_bench::THREAD_SWEEP;
use selprop_core::workload;
use selprop_datalog::db::{Database, Tuple};
use selprop_datalog::eval::{
    answer, apply_goal, evaluate, evaluate_with_provenance, EvalStats, Strategy,
};
use selprop_datalog::magic::magic_transform;
use selprop_datalog::parser::parse_program;
use selprop_datalog::{
    reference, CompactionPolicy, Materialization, Program, Server, UpdateRound,
};

struct Row {
    experiment: &'static str,
    config: String,
    threads: usize,
    answers: usize,
    stats: EvalStats,
    wall_ms: f64,
    /// Reference-engine wall-clock; `None` for per-thread-count rows
    /// (those cross-check against the sequential storage run instead).
    reference_wall_ms: Option<f64>,
}

/// The cross-check: counters and answer counts must agree exactly.
/// Returns a descriptive error (propagated to a nonzero process exit)
/// on any drift.
fn cross_check(
    label: &str,
    stats: EvalStats,
    answers: usize,
    want_stats: EvalStats,
    want_answers: usize,
) -> Result<(), String> {
    if stats != want_stats {
        return Err(format!(
            "{label}: counter drift\n  got:  {stats:?}\n  want: {want_stats:?}"
        ));
    }
    if answers != want_answers {
        return Err(format!(
            "{label}: answer drift (got {answers}, want {want_answers})"
        ));
    }
    Ok(())
}

/// Mean wall-clock (ms) of `runs` invocations of `f`, plus the last
/// invocation's result — the one measurement idiom every sweep uses.
fn timed<T>(runs: u32, mut f: impl FnMut() -> T) -> (f64, T) {
    assert!(runs >= 1);
    let mut total = 0.0;
    let mut out = None;
    for _ in 0..runs {
        let t0 = Instant::now();
        let v = f();
        total += t0.elapsed().as_secs_f64() * 1e3;
        out = Some(v);
    }
    (total / f64::from(runs), out.expect("runs >= 1"))
}

/// Mean wall-clock of `runs` storage-engine evaluations plus one
/// reference-engine run (which doubles as the counter cross-check).
/// `corrupt` perturbs the reference counters first — the self-test of
/// the failure path.
fn measure(
    experiment: &'static str,
    config: String,
    p: &Program,
    db: &Database,
    runs: u32,
    corrupt: bool,
) -> Result<Row, String> {
    let (wall_ms, (answers, stats)) = timed(runs, || {
        let (ans, stats) = answer(p, db, Strategy::SemiNaive);
        (ans.len(), stats)
    });

    let t0 = Instant::now();
    let (ref_ans, mut ref_stats) = reference::answer(p, db, Strategy::SemiNaive);
    let reference_wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    if corrupt {
        // Deliberate drift: the caller expects the pipeline to fail.
        ref_stats.join_probes += 1;
    }
    cross_check(
        &format!("{experiment}/{config}"),
        stats,
        answers,
        ref_stats,
        ref_ans.len(),
    )?;

    println!(
        "{experiment:<4} {config:<28} answers={answers:<8} tuples={:<9} work={:<11} storage={wall_ms:>9.2}ms reference={reference_wall_ms:>10.2}ms speedup={:>5.1}x",
        stats.tuples_derived,
        stats.work(),
        reference_wall_ms / wall_ms,
    );
    Ok(Row {
        experiment,
        config,
        threads: 1,
        answers,
        stats,
        wall_ms,
        reference_wall_ms: Some(reference_wall_ms),
    })
}

/// Appends one row per [`THREAD_SWEEP`] entry for the same config,
/// cross-checking every parallel run against the sequential storage
/// stats (which the preceding [`measure`] already checked against the
/// reference engine).
#[allow(clippy::too_many_arguments)]
fn measure_threads(
    rows: &mut Vec<Row>,
    experiment: &'static str,
    config: &str,
    p: &Program,
    db: &Database,
    runs: u32,
    want_stats: EvalStats,
    want_answers: usize,
) -> Result<(), String> {
    let mut wall_by_thread = Vec::new();
    for &threads in &THREAD_SWEEP {
        let (wall_ms, (answers, stats)) = timed(runs, || {
            let (ans, stats) = answer(p, db, Strategy::SemiNaiveParallel { threads });
            (ans.len(), stats)
        });
        cross_check(
            &format!("{experiment}/{config}/threads={threads}"),
            stats,
            answers,
            want_stats,
            want_answers,
        )?;
        println!(
            "{experiment:<4} {:<28} answers={answers:<8} tuples={:<9} work={:<11} storage={wall_ms:>9.2}ms",
            format!("{config}/threads={threads}"),
            stats.tuples_derived,
            stats.work(),
        );
        wall_by_thread.push((threads, wall_ms));
        rows.push(Row {
            experiment,
            config: format!("{config}/threads={threads}"),
            threads,
            answers,
            stats,
            wall_ms,
            reference_wall_ms: None,
        });
    }
    if let (Some(&(_, w1)), Some(&(_, w8))) = (
        wall_by_thread.iter().find(|(t, _)| *t == 1),
        wall_by_thread.iter().find(|(t, _)| *t == 8),
    ) {
        println!("     {config:<28} thread-scaling 8t vs 1t: {:.2}x", w1 / w8);
    }
    Ok(())
}

fn e1_rows(rows: &mut Vec<Row>, smoke: bool) -> Result<(), String> {
    const PROGRAMS: [(&str, &str); 4] = [
        ("A", "?- anc(john, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), par(Z, Y)."),
        ("B", "?- anc(john, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- par(X, Z), anc(Z, Y)."),
        ("C", "?- anc(john, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), anc(Z, Y)."),
        ("D", "?- ancjohn(Y).\nancjohn(Y) :- par(john, Y).\nancjohn(Y) :- ancjohn(Z), par(Z, Y)."),
    ];
    let sizes: &[usize] = if smoke { &[60] } else { &[100, 400] };
    for &n in sizes {
        for (name, src) in PROGRAMS {
            let mut p = parse_program(src).unwrap();
            let mut db = workload::random_forest(&mut p, "par", "john", n, 11);
            let noise = workload::wide(&mut p, "par", "elsewhere", 0, n / 20, 10);
            for (pred, rel) in noise.iter() {
                for t in rel.iter() {
                    db.insert(pred, t.clone());
                }
            }
            let row = measure("e1", format!("{name}/n={n}"), &p, &db, 5, false)?;
            let (stats, answers) = (row.stats, row.answers);
            rows.push(row);
            if name == "A" {
                if smoke {
                    // Smoke mode exercises the thread sweep on the small
                    // config instead of the large closure.
                    measure_threads(
                        rows,
                        "e1",
                        &format!("{name}/n={n}"),
                        &p,
                        &db,
                        2,
                        stats,
                        answers,
                    )?;
                }
                let magic = magic_transform(&p).unwrap();
                rows.push(measure(
                    "e1",
                    format!("magic({name})/n={n}"),
                    &magic.program,
                    &db,
                    5,
                    false,
                )?);
            }
        }
    }
    if smoke {
        return Ok(());
    }
    // Large scale: >10^6 derived anc tuples from a 28_820-edge layered
    // DAG. Program A materializes the full closure; Program D (monadic)
    // shows the paper's point — selection propagation stays linear.
    // Program A's closure is the headline thread-scaling config.
    for (name, src) in [PROGRAMS[0], PROGRAMS[3]] {
        let mut p = parse_program(src).unwrap();
        let db = workload::layered_dag(&mut p, "par", "john", 72, 20);
        let config = format!("{name}/layered_dag(72,20)");
        let row = measure("e1", config.clone(), &p, &db, 2, false)?;
        let (stats, answers) = (row.stats, row.answers);
        rows.push(row);
        if name == "A" {
            measure_threads(rows, "e1", &config, &p, &db, 2, stats, answers)?;
        }
    }
    Ok(())
}

fn e5_rows(rows: &mut Vec<Row>, smoke: bool) -> Result<(), String> {
    const SRC: &str = "?- p(c, Y).\n\
                       p(X, Y) :- b1(X, X1), b2(X1, Y).\n\
                       p(X, Y) :- b1(X, X1), p(X1, Y1), b2(Y1, Y).";
    let orig = parse_program(SRC).unwrap();
    let magic = magic_transform(&orig).unwrap();
    let configs: &[(usize, usize)] = if smoke {
        &[(8, 40)]
    } else {
        &[(10, 50), (20, 400), (40, 3200)]
    };
    for &(layers, noise) in configs {
        let mut p1 = orig.clone();
        let db1 = workload::layered_b1_b2(&mut p1, "c", layers, noise);
        rows.push(measure("e5", format!("original/{layers}x{noise}"), &p1, &db1, 5, false)?);
        let mut p2 = magic.program.clone();
        let db2 = workload::layered_b1_b2(&mut p2, "c", layers, noise);
        rows.push(measure("e5", format!("magic/{layers}x{noise}"), &p2, &db2, 5, false)?);
    }
    if smoke {
        return Ok(());
    }
    // Large scale: 10^6 noise pairs each deriving one irrelevant p fact —
    // the magic-pruning scenario at a size where storage costs dominate.
    // The untransformed program is the second thread-scaling config.
    let (layers, noise) = (20usize, 1_000_000usize);
    let mut p1 = orig.clone();
    let db1 = workload::layered_b1_b2(&mut p1, "c", layers, noise);
    let config = format!("original/{layers}x{noise}");
    let row = measure("e5", config.clone(), &p1, &db1, 2, false)?;
    let (stats, answers) = (row.stats, row.answers);
    rows.push(row);
    measure_threads(rows, "e5", &config, &p1, &db1, 2, stats, answers)?;
    let mut p2 = magic.program.clone();
    let db2 = workload::layered_b1_b2(&mut p2, "c", layers, noise);
    rows.push(measure("e5", format!("magic/{layers}x{noise}"), &p2, &db2, 2, false)?);
    Ok(())
}

/// Provenance-overhead rows (`prov=off` vs `prov=on` on the same
/// config — the counters are identical by contract, so the pair
/// isolates the wall-clock cost of recording justifications).
fn prov_rows(rows: &mut Vec<Row>, smoke: bool) -> Result<(), String> {
    const SRC_A: &str =
        "?- anc(john, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), par(Z, Y).";
    let n = if smoke { 60 } else { 400 };
    let runs = if smoke { 2 } else { 5 };
    let mut p = parse_program(SRC_A).unwrap();
    let mut db = workload::random_forest(&mut p, "par", "john", n, 11);
    let noise = workload::wide(&mut p, "par", "elsewhere", 0, n / 20, 10);
    for (pred, rel) in noise.iter() {
        for t in rel.iter() {
            db.insert(pred, t.clone());
        }
    }
    let config = format!("A/n={n}");
    prov_pair(rows, &config, &p, &db, runs)?;
    if smoke {
        return Ok(());
    }
    // The headline >10^6-tuple closure: provenance overhead where
    // storage costs dominate.
    let mut p = parse_program(SRC_A).unwrap();
    let db = workload::layered_dag(&mut p, "par", "john", 72, 20);
    prov_pair(rows, "A/layered_dag(72,20)", &p, &db, 2)
}

fn prov_pair(
    rows: &mut Vec<Row>,
    config: &str,
    p: &Program,
    db: &Database,
    runs: u32,
) -> Result<(), String> {
    let off = || {
        let (ans, stats) = answer(p, db, Strategy::SemiNaive);
        (ans.len(), stats)
    };
    let on = || evaluate_with_provenance(p, db, Strategy::SemiNaive);
    // One untimed evaluation of each side first: otherwise the loop
    // that runs first pays for the cold caches and the allocator's
    // first growth, and can read slower than the side that does
    // strictly more.
    off();
    on();
    let (off_wall, (want_answers, want_stats)) = timed(runs, off);
    let (on_wall, result) = timed(runs, on);
    // Outside the timed loop: the lazy model conversion is a consumer
    // choice, not part of the recording overhead being measured.
    let idb = result.provenance.idb_database();
    let ans = idb
        .relation(p.goal.pred)
        .map(|rel| apply_goal(&p.goal, rel).len())
        .unwrap_or(0);
    cross_check(
        &format!("prov/{config}"),
        result.stats,
        ans,
        want_stats,
        want_answers,
    )?;
    if result.provenance.num_derived() as u64 != want_stats.tuples_derived {
        return Err(format!(
            "prov/{config}: justification count {} != derived tuples {}",
            result.provenance.num_derived(),
            want_stats.tuples_derived
        ));
    }
    for (mode, wall) in [("off", off_wall), ("on", on_wall)] {
        println!(
            "prov {:<28} answers={want_answers:<8} tuples={:<9} work={:<11} storage={wall:>9.2}ms",
            format!("{config}/prov={mode}"),
            want_stats.tuples_derived,
            want_stats.work(),
        );
        rows.push(Row {
            experiment: "prov",
            config: format!("{config}/prov={mode}"),
            threads: 1,
            answers: want_answers,
            stats: want_stats,
            wall_ms: wall,
            reference_wall_ms: None,
        });
    }
    println!(
        "     {config:<28} provenance recording overhead: {:.2}x",
        (on_wall / off_wall).max(0.0)
    );
    Ok(())
}

/// Sorted-model equality of two databases (the incremental group's
/// cross-check currency: row ids churn across updates, live tuple sets
/// must not).
fn models_equal(label: &str, got: &Database, want: &Database) -> Result<(), String> {
    let (g, w) = (got.sorted_models(), want.sorted_models());
    if g != w {
        return Err(format!(
            "{label}: model drift (got {} relations / {} facts, want {} / {})",
            g.len(),
            g.iter().map(|(_, t)| t.len()).sum::<usize>(),
            w.len(),
            w.iter().map(|(_, t)| t.len()).sum::<usize>()
        ));
    }
    Ok(())
}

/// The incremental-maintenance group: insert ~1% new edges into the E1
/// closure as a live update, compare its latency against a full
/// recompute, then retract them and verify the pre-insert store is
/// restored — **cross-checked against a from-scratch evaluation (and
/// the reference engine) both times** — at no more than four times the
/// insert's probes. Any drift, or a dearer retract, propagates as `Err`
/// (→ process exit 2).
fn incremental_rows(rows: &mut Vec<Row>, smoke: bool) -> Result<(), String> {
    const SRC_A: &str =
        "?- anc(john, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), par(Z, Y).";
    // Non-smoke: the headline 10^6-tuple closure (28_800 edges); the new
    // edges are 1% of the input — a chain of fresh nodes off the root,
    // so the update genuinely derives new closure tuples.
    let (layers, width, new_edges) = if smoke { (6, 4, 8) } else { (72, 20, 288) };
    let mut p = parse_program(SRC_A).unwrap();
    let par = p.symbols.get_predicate("par").unwrap();
    let db = workload::layered_dag(&mut p, "par", "john", layers, width);
    let config = format!("A/layered_dag({layers},{width})");

    let mut edges: Vec<Tuple> = Vec::with_capacity(new_edges);
    let mut prev = p.symbols.get_constant("john").unwrap();
    for i in 0..new_edges {
        let c = p.symbols.constant(&format!("live{i}"));
        edges.push(vec![prev, c]);
        prev = c;
    }
    let mut db_after = db.clone();
    for e in &edges {
        db_after.insert(par, e.clone());
    }

    // Build the materialization (one batch fixpoint, recording on).
    let (build_ms, mut m) = timed(1, || Materialization::from_database(&p, &db, Strategy::SemiNaive));
    let build_stats = m.stats();
    let base_answers = m.answer().len();
    rows.push(Row {
        experiment: "incremental",
        config: format!("{config}/build"),
        threads: 1,
        answers: base_answers,
        stats: build_stats,
        wall_ms: build_ms,
        reference_wall_ms: None,
    });

    // Live insert vs full recompute.
    let (insert_ms, novel) = timed(1, || m.insert_facts(par, &edges));
    if novel != new_edges {
        return Err(format!(
            "incremental/{config}: expected {new_edges} novel edges, stored {novel}"
        ));
    }
    let insert_stats = diff_stats(m.stats(), build_stats);
    let (recompute_ms, scratch) = timed(1, || evaluate(&p, &db_after, Strategy::SemiNaive));
    models_equal(
        &format!("incremental/{config}/insert"),
        &m.idb_database(),
        &scratch.idb,
    )?;
    let t0 = Instant::now();
    let spec = reference::evaluate(&p, &db_after, Strategy::SemiNaive);
    let reference_wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    models_equal(
        &format!("incremental/{config}/insert(reference)"),
        &m.idb_database(),
        &spec.idb,
    )?;
    let insert_answers = m.answer().len();
    rows.push(Row {
        experiment: "incremental",
        config: format!("{config}/insert({new_edges})"),
        threads: 1,
        answers: insert_answers,
        stats: insert_stats,
        wall_ms: insert_ms,
        reference_wall_ms: None,
    });
    rows.push(Row {
        experiment: "incremental",
        config: format!("{config}/recompute_after_insert"),
        threads: 1,
        answers: insert_answers,
        stats: scratch.stats,
        wall_ms: recompute_ms,
        reference_wall_ms: Some(reference_wall_ms),
    });
    println!(
        "incr {config:<28} insert {new_edges} edges: {insert_ms:>9.2}ms vs full recompute {recompute_ms:>9.2}ms  speedup={:>5.1}x",
        recompute_ms / insert_ms
    );

    // Retract the same edges: the pre-insert store must come back.
    let pre_insert_stats = m.stats();
    let (retract_ms, removed) = timed(1, || m.retract_facts(par, &edges));
    if removed != new_edges {
        return Err(format!(
            "incremental/{config}: expected {new_edges} retracted edges, removed {removed}"
        ));
    }
    let retract_stats = diff_stats(m.stats(), pre_insert_stats);
    // The rescue plans enter a body through its fan-in, so taking the
    // edges out costs the order of putting them in. A plan that walks
    // `anc(x, _)` per over-deleted row reads 12x here.
    if retract_stats.join_probes > 4 * insert_stats.join_probes {
        return Err(format!(
            "incremental/{config}: retract({new_edges}) spent {} probes, more than 4x the {} of \
             insert({new_edges})",
            retract_stats.join_probes, insert_stats.join_probes
        ));
    }
    // Cross-check "both times": from-scratch storage engine AND the
    // reference engine on the restored database.
    let scratch0 = evaluate(&p, &db, Strategy::SemiNaive);
    models_equal(
        &format!("incremental/{config}/retract"),
        &m.idb_database(),
        &scratch0.idb,
    )?;
    let t0 = Instant::now();
    let spec0 = reference::evaluate(&p, &db, Strategy::SemiNaive);
    let reference_wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    models_equal(
        &format!("incremental/{config}/retract(reference)"),
        &m.idb_database(),
        &spec0.idb,
    )?;
    let mut edb_after_retract = Database::new();
    for (pred, rel) in m.database().iter() {
        if pred == par {
            for t in rel.iter() {
                edb_after_retract.insert(pred, t.clone());
            }
        }
    }
    models_equal(
        &format!("incremental/{config}/retract(edb)"),
        &edb_after_retract,
        &db,
    )?;
    if m.answer().len() != base_answers {
        return Err(format!(
            "incremental/{config}/retract: answer drift (got {}, want {base_answers})",
            m.answer().len()
        ));
    }
    println!(
        "incr {config:<28} retract {new_edges} edges: {retract_ms:>9.2}ms (store restored bit-for-bit)"
    );
    rows.push(Row {
        experiment: "incremental",
        config: format!("{config}/retract({new_edges})"),
        threads: 1,
        answers: base_answers,
        stats: retract_stats,
        wall_ms: retract_ms,
        reference_wall_ms: Some(reference_wall_ms),
    });
    Ok(())
}

/// The serving group: (a) one batched mixed [`UpdateRound`] against the
/// equivalent sequence of single-fact calls on the same store — the
/// batch must be cheaper (it builds the reverse-dependency CSR once,
/// asserted via [`Materialization::csr_builds`]) and leave the
/// bit-identical store, cross-checked against a from-scratch evaluation;
/// (b) concurrent read throughput of epoch-pinned [`Server`] snapshots
/// under live write load, every read checked against the precomputed
/// reference answer of its pinned round prefix. Any drift propagates as
/// `Err` (→ process exit 2).
fn server_rows(rows: &mut Vec<Row>, smoke: bool) -> Result<(), String> {
    const SRC_A: &str =
        "?- anc(john, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), par(Z, Y).";
    // Non-smoke: the headline 10^6-tuple closure, as in the incremental
    // group; the round touches a fresh chain off the root.
    let (layers, width, k) = if smoke { (6, 4, 8) } else { (72, 20, 32) };
    let mut p = parse_program(SRC_A).unwrap();
    let par = p.symbols.get_predicate("par").unwrap();
    let db = workload::layered_dag(&mut p, "par", "john", layers, width);
    let config = format!("A/layered_dag({layers},{width})");

    // Prep: a 2k-edge live chain off the root, present in both stores.
    let mut chain: Vec<Tuple> = Vec::with_capacity(2 * k);
    let mut prev = p.symbols.get_constant("john").unwrap();
    for i in 0..2 * k {
        let c = p.symbols.constant(&format!("live{i}"));
        chain.push(vec![prev, c]);
        prev = c;
    }
    // The mixed round: retract the chain's tail half, insert a fresh
    // branch of k edges off the surviving tip.
    let retracts: Vec<Tuple> = chain[k..].to_vec();
    let mut inserts: Vec<Tuple> = Vec::with_capacity(k);
    let mut prev = chain[k - 1][1];
    for i in 0..k {
        let c = p.symbols.constant(&format!("branch{i}"));
        inserts.push(vec![prev, c]);
        prev = c;
    }

    let make_store = || {
        let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
        m.insert_facts(par, &chain);
        m
    };
    let mut batched = make_store();
    let mut single = make_store();
    let round = {
        let mut r = UpdateRound::new();
        for t in &retracts {
            r = r.retract(par, t.clone());
        }
        for t in &inserts {
            r = r.insert(par, t.clone());
        }
        r
    };

    let csr0 = batched.csr_builds();
    let stats0 = batched.stats();
    let (batched_ms, report) = timed(1, || batched.apply(&round));
    if report.retracted != retracts.len() || report.inserted != inserts.len() {
        return Err(format!(
            "server/{config}/batched: round report drift (retracted {}, inserted {})",
            report.retracted, report.inserted
        ));
    }
    if batched.csr_builds() - csr0 != 1 {
        return Err(format!(
            "server/{config}/batched: {} CSR builds for one round (want 1)",
            batched.csr_builds() - csr0
        ));
    }
    let batched_stats = diff_stats(batched.stats(), stats0);

    let csr0 = single.csr_builds();
    let stats0 = single.stats();
    let (single_ms, ()) = timed(1, || {
        for t in &retracts {
            single.retract_facts(par, std::slice::from_ref(t));
        }
        for t in &inserts {
            single.insert_facts(par, std::slice::from_ref(t));
        }
    });
    // The persistent reverse index makes even the single-fact sequence
    // pay at most one lazy from-scratch build (not one per call).
    if single.csr_builds() - csr0 > 1 {
        return Err(format!(
            "server/{config}/single: {} reverse-index builds for {} retract calls (want ≤1)",
            single.csr_builds() - csr0,
            retracts.len()
        ));
    }
    let single_stats = diff_stats(single.stats(), stats0);

    // The two stores must be bit-identical, and both must equal the
    // from-scratch model of the mutated database.
    models_equal(
        &format!("server/{config}/batched-vs-single"),
        &batched.database(),
        &single.database(),
    )?;
    let mut db_after = db.clone();
    for t in &chain[..k] {
        db_after.insert(par, t.clone());
    }
    for t in &inserts {
        db_after.insert(par, t.clone());
    }
    let scratch = evaluate(&p, &db_after, Strategy::SemiNaive);
    models_equal(
        &format!("server/{config}/batched(scratch)"),
        &batched.idb_database(),
        &scratch.idb,
    )?;
    let answers = batched.answer().len();
    for (mode, wall, stats) in [
        ("batched", batched_ms, batched_stats),
        ("single_fact", single_ms, single_stats),
    ] {
        println!(
            "srv  {:<28} answers={answers:<8} tuples={:<9} work={:<11} storage={wall:>9.2}ms",
            format!("{config}/round={mode}"),
            stats.tuples_derived,
            stats.work(),
        );
        rows.push(Row {
            experiment: "server",
            config: format!("{config}/round({k}ins+{k}ret)/{mode}"),
            threads: 1,
            answers,
            stats,
            wall_ms: wall,
            reference_wall_ms: None,
        });
    }
    println!(
        "     {config:<28} batched round vs single-fact calls: {:.2}x cheaper",
        single_ms / batched_ms
    );

    // (b) Read throughput under write load: readers take epoch-pinned
    // snapshots while the writer applies the same round split into
    // per-edge rounds; every read is checked against the reference
    // answer count of its prefix.
    let rounds: Vec<UpdateRound> = retracts
        .iter()
        .map(|t| UpdateRound::new().retract(par, t.clone()))
        .chain(inserts.iter().map(|t| UpdateRound::new().insert(par, t.clone())))
        .collect();
    let replay = Server::from_database(&p, &db, Strategy::SemiNaive);
    replay.insert_facts(par, &chain);
    let mut expected = vec![replay.answer().len()];
    for r in &rounds {
        replay.apply(r);
        expected.push(replay.answer().len());
    }
    let expected = std::sync::Arc::new(expected);

    let server = Server::from_database(&p, &db, Strategy::SemiNaive);
    server.insert_facts(par, &chain);
    let base_epoch = server.current_epoch();
    let base_stats = server.stats();
    let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let readers = 4usize;
    let t0 = Instant::now();
    let handles: Vec<_> = (0..readers)
        .map(|_| {
            let server = server.clone();
            let expected = std::sync::Arc::clone(&expected);
            let done = std::sync::Arc::clone(&done);
            std::thread::spawn(move || -> Result<usize, String> {
                let mut reads = 0usize;
                while !done.load(std::sync::atomic::Ordering::Acquire) {
                    let snap = server.snapshot();
                    let e = (snap.epoch() - base_epoch) as usize;
                    let got = snap.answer().len();
                    if e >= expected.len() || got != expected[e] {
                        return Err(format!(
                            "read at prefix {e}: {got} answers, want {:?}",
                            expected.get(e)
                        ));
                    }
                    reads += 1;
                }
                Ok(reads)
            })
        })
        .collect();
    for r in &rounds {
        server.apply(r);
    }
    done.store(true, std::sync::atomic::Ordering::Release);
    let mut total_reads = 0usize;
    for h in handles {
        total_reads += h
            .join()
            .map_err(|_| "server reader thread panicked".to_owned())?
            .map_err(|e| format!("server/{config}/reads: consistency drift: {e}"))?;
    }
    let churn_wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    models_equal(
        &format!("server/{config}/post-churn"),
        &server.snapshot().database(),
        &batched.database(),
    )?;
    println!(
        "srv  {:<28} reads={total_reads:<7} rounds={:<3} wall={churn_wall_ms:>9.2}ms ({:.0} reads/s under write load)",
        format!("{config}/readers={readers}"),
        rounds.len(),
        total_reads as f64 / (churn_wall_ms / 1e3),
    );
    rows.push(Row {
        experiment: "server",
        config: format!("{config}/readers={readers}/rounds={}/reads={total_reads}", rounds.len()),
        threads: readers,
        answers,
        stats: diff_stats(server.stats(), base_stats),
        wall_ms: churn_wall_ms,
        reference_wall_ms: None,
    });
    Ok(())
}

/// One churn round paired with its per-fact `(pred, tuple, inserted)`
/// mirror script — the query-cache sweep's unit of work.
type ChurnRound = (UpdateRound, Vec<(selprop_datalog::ast::Pred, Tuple, bool)>);

/// One row of the durability group: free-form numeric metrics (memory
/// footprints, latencies, ratios) keyed by name, rendered into the
/// `"durability"` section of `BENCH_eval.json`.
struct DurRow {
    config: String,
    metrics: Vec<(&'static str, f64)>,
}

/// The durability group: (a) the churn-loop memory table — ≥10^4
/// interleaved insert/retract rounds on the E1 closure with and without
/// compaction, gating peak row-addressed words at 2x of a fresh store —
/// and (b) snapshot save/restore latency against a full recompute of
/// the same closure, gating restore at ≥20x faster (non-smoke). Every
/// run is cross-checked for drift against the from-scratch reference,
/// and the snapshot round-trip must be bit-for-bit. Any violation
/// propagates as `Err` (→ process exit 2).
fn durability_rows(smoke: bool) -> Result<Vec<DurRow>, String> {
    const SRC_A: &str =
        "?- anc(john, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), par(Z, Y).";
    let mut out = Vec::new();

    // (a) The churn loop: every round kills one chain edge (rotating
    // through the tail region) and restores it — steady live state,
    // maximal tombstone pressure.
    let (n, rounds) = if smoke { (32usize, 200usize) } else { (64, 10_000) };
    let mut p = parse_program(SRC_A).unwrap();
    let par = p.symbols.get_predicate("par").unwrap();
    let mut prev = p.symbols.constant("john");
    let edges: Vec<Tuple> = (1..=n)
        .map(|i| {
            let c = p.symbols.constant(&format!("c{i}"));
            let t = vec![prev, c];
            prev = c;
            t
        })
        .collect();
    let mut db0 = Database::new();
    for e in &edges {
        db0.insert(par, e.clone());
    }
    let fresh_words = Materialization::from_database(&p, &db0, Strategy::SemiNaive)
        .mem_stats()
        .row_words();
    for (policy, label, rds) in [
        (
            Some(CompactionPolicy { min_dead_rows: 32, dead_percent: 30 }),
            "on",
            rounds,
        ),
        // The control's footprint grows with every round, so cap it.
        (None, "off", rounds.min(1_000)),
    ] {
        let mut m = Materialization::from_database(&p, &db0, Strategy::SemiNaive);
        m.set_compaction_policy(policy);
        let mut peak = 0usize;
        let t0 = Instant::now();
        for i in 0..rds {
            let victim = n - 1 - (i % 4);
            if m.retract_facts(par, &edges[victim..=victim]) != 1 {
                return Err(format!("durability/churn: round {i} retracted nothing"));
            }
            if m.insert_facts(par, &edges[victim..=victim]) != 1 {
                return Err(format!("durability/churn: round {i} re-inserted nothing"));
            }
            peak = peak.max(m.mem_stats().row_words());
        }
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        // No drift: every round restored what it killed, so the final
        // store must equal the from-scratch model of the original EDB.
        let spec = reference::evaluate(&p, &db0, Strategy::SemiNaive);
        models_equal(
            &format!("durability/churn/compaction={label}"),
            &m.idb_database(),
            &spec.idb,
        )?;
        let ratio = peak as f64 / fresh_words as f64;
        if policy.is_some() {
            if ratio > 2.0 {
                return Err(format!(
                    "durability/churn: peak {peak} words exceeds 2x the fresh store ({fresh_words} words): {ratio:.2}x"
                ));
            }
            if m.compactions() == 0 {
                return Err("durability/churn: the policy never compacted".into());
            }
        }
        println!(
            "dur  {:<28} peak={peak:<8} fresh={fresh_words:<8} ratio={ratio:<5.2} compactions={:<5} wall={wall_ms:>9.2}ms",
            format!("churn({rds})/compaction={label}"),
            m.compactions(),
        );
        out.push(DurRow {
            config: format!("A/chain({n})/churn({rds})/compaction={label}"),
            metrics: vec![
                ("rounds", rds as f64),
                ("peak_words", peak as f64),
                ("fresh_words", fresh_words as f64),
                ("peak_over_fresh", ratio),
                ("compactions", m.compactions() as f64),
                ("wall_ms", wall_ms),
            ],
        });
    }

    // (b) Restore vs recompute on the headline closure (>10^6 derived
    // tuples non-smoke): loading the snapshot must beat re-running the
    // fixpoint by ≥20x.
    let (layers, width) = if smoke { (6usize, 4usize) } else { (72, 20) };
    let mut p = parse_program(SRC_A).unwrap();
    let db = workload::layered_dag(&mut p, "par", "john", layers, width);
    let (recompute_ms, m) = timed(1, || {
        Materialization::from_database(&p, &db, Strategy::SemiNaive)
    });
    let path = std::env::temp_dir().join(format!("selprop_record_{}.snap", std::process::id()));
    let (save_ms, ()) = timed(1, || m.save(&path).expect("snapshot save"));
    let (restore_ms, m2) = timed(1, || Materialization::restore(&path).expect("snapshot restore"));
    let snapshot_bytes = std::fs::metadata(&path).map(|md| md.len()).unwrap_or(0);
    std::fs::remove_file(&path).ok();
    if m2.to_bytes() != m.to_bytes() {
        return Err("durability/restore: round-trip is not bit-for-bit".into());
    }
    let speedup = recompute_ms / restore_ms;
    if !smoke && speedup < 20.0 {
        return Err(format!(
            "durability/restore: {restore_ms:.2}ms vs recompute {recompute_ms:.2}ms — only {speedup:.1}x, want ≥20x"
        ));
    }
    println!(
        "dur  {:<28} restore={restore_ms:>9.2}ms save={save_ms:>9.2}ms recompute={recompute_ms:>9.2}ms speedup={speedup:>5.1}x ({snapshot_bytes} bytes)",
        format!("layered_dag({layers},{width})/restore"),
    );
    out.push(DurRow {
        config: format!("A/layered_dag({layers},{width})/restore"),
        metrics: vec![
            ("tuples_derived", m.stats().tuples_derived as f64),
            ("snapshot_bytes", snapshot_bytes as f64),
            ("save_ms", save_ms),
            ("restore_ms", restore_ms),
            ("recompute_ms", recompute_ms),
            ("restore_speedup", speedup),
        ],
    });
    Ok(out)
}

/// The query-cache group: per-query latency of the cached magic views
/// ([`Server::query`]) against the cold batch magic transform on the
/// headline >10^6-tuple E1/E5 workloads, plus view memory against the
/// full base materialization. Every served answer — cold, cached, and
/// after churn rounds — is compared bit-for-bit against a from-scratch
/// magic transform of the current EDB; non-smoke runs additionally gate
/// cached-after-churn at ≥10x faster than the cold batch and view
/// memory at <10% of the base store. Any violation propagates as `Err`
/// (→ process exit 2).
fn query_cache_rows(smoke: bool) -> Result<Vec<DurRow>, String> {
    let mut out = Vec::new();

    // The from-scratch oracle: the goal is already baked into `p`, so
    // transform and batch-evaluate over the mirrored EDB.
    let oracle = |p: &Program, edb: &Database| -> Vec<Tuple> {
        let magic = magic_transform(p).expect("transformable goal");
        answer(&magic.program, edb, Strategy::SemiNaive).0.sorted()
    };
    let runs = if smoke { 2 } else { 3 };

    // One workload's sweep: cold batch / cold view / cached hit, then
    // per-churn-round (apply + post-churn query latency + oracle).
    let mut sweep = |experiment: &'static str,
                     config: String,
                     p: &Program,
                     edb: &mut Database,
                     server: &Server,
                     rounds: Vec<ChurnRound>|
     -> Result<(), String> {
        let goal = p.goal.clone();
        let (cold_batch_ms, want) = timed(runs, || oracle(p, edb));

        let (cold_view_ms, got) = timed(1, || server.query(&goal).sorted());
        if got != want {
            return Err(format!("query_cache/{config}/cold: answers drift from batch magic"));
        }
        let s = server.cache_stats();
        if s.template_compiles != 1 || s.misses != 1 {
            return Err(format!(
                "query_cache/{config}/cold: want one compile and one miss, got {} / {}",
                s.template_compiles, s.misses
            ));
        }
        let (cached_ms, got) = timed(runs, || server.query(&goal).sorted());
        if got != want {
            return Err(format!("query_cache/{config}/cached: answers drift from batch magic"));
        }

        // Churn rounds: the writer's round syncs the views, so the
        // post-churn query must be a read-path hit (no new miss), and
        // its answers must match a fresh transform of the mutated EDB.
        let mut churn_ms = 0.0;
        let mut after_ms = 0.0;
        for (i, (round, mirror)) in rounds.iter().enumerate() {
            let (apply_ms, _) = timed(1, || server.apply(round));
            for (pred, t, insert) in mirror {
                if *insert {
                    edb.insert(*pred, t.clone());
                } else {
                    edb.remove(*pred, t);
                }
            }
            let misses0 = server.cache_stats().misses;
            let want = oracle(p, edb);
            let (q_ms, got) = timed(runs, || server.query(&goal).sorted());
            if got != want {
                return Err(format!(
                    "query_cache/{config}/churn{i}: answers drift from batch magic"
                ));
            }
            if server.cache_stats().misses != misses0 {
                return Err(format!(
                    "query_cache/{config}/churn{i}: post-churn query rebuilt the view \
                     (want a read-path hit — rounds sync views in-line)"
                ));
            }
            churn_ms += apply_ms;
            after_ms = q_ms; // last round's post-churn latency
        }

        let view_words = server.cache_view_words();
        let base_words = server.mem_stats().total_words();
        let view_frac = view_words as f64 / base_words as f64;
        let speedup = cold_batch_ms / after_ms;
        if !smoke {
            if speedup < 10.0 {
                return Err(format!(
                    "query_cache/{config}: cached-after-churn {after_ms:.3}ms vs cold batch \
                     {cold_batch_ms:.3}ms — only {speedup:.1}x, want ≥10x"
                ));
            }
            if view_frac >= 0.10 {
                return Err(format!(
                    "query_cache/{config}: views hold {view_words} words vs base {base_words} \
                     ({:.1}%), want <10%",
                    view_frac * 100.0
                ));
            }
        }
        let s = server.cache_stats();
        println!(
            "qc   {config:<28} answers={:<8} cold_batch={cold_batch_ms:>9.2}ms cold_view={cold_view_ms:>9.2}ms cached={cached_ms:>9.3}ms after_churn={after_ms:>9.3}ms speedup={speedup:>7.1}x views={:.1}%",
            want.len(),
            view_frac * 100.0,
        );
        out.push(DurRow {
            config: format!("{experiment}/{config}"),
            metrics: vec![
                ("answers", want.len() as f64),
                ("cold_batch_ms", cold_batch_ms),
                ("cold_view_ms", cold_view_ms),
                ("cached_ms", cached_ms),
                ("churn_rounds", rounds.len() as f64),
                ("churn_apply_ms", churn_ms),
                ("cached_after_churn_ms", after_ms),
                ("speedup_vs_cold_batch", speedup),
                ("view_words", view_words as f64),
                ("base_words", base_words as f64),
                ("view_over_base", view_frac),
                ("template_compiles", s.template_compiles as f64),
                ("hits", s.hits as f64),
                ("syncs", s.syncs as f64),
            ],
        });
        Ok(())
    };

    // E1: the >10^6-tuple closure; the bound view holds only
    // `anc(john, ·)`. Churn: a fresh 1%-of-input chain off the root,
    // inserted then half-retracted (exercising DRed in the views).
    {
        let (layers, width, k) = if smoke { (6usize, 4usize, 4usize) } else { (72, 20, 288) };
        let src = "?- anc(john, Y).\n\
                   anc(X, Y) :- par(X, Y).\n\
                   anc(X, Y) :- anc(X, Z), par(Z, Y).";
        let mut p = parse_program(src).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let mut edb = workload::layered_dag(&mut p, "par", "john", layers, width);
        let mut chain: Vec<Tuple> = Vec::with_capacity(k);
        let mut prev = p.symbols.get_constant("john").unwrap();
        for i in 0..k {
            let c = p.symbols.constant(&format!("live{i}"));
            chain.push(vec![prev, c]);
            prev = c;
        }
        let server = Server::from_database(&p, &edb, Strategy::SemiNaive);
        let mut insert_round = UpdateRound::new();
        let mut insert_mirror = Vec::new();
        for t in &chain {
            insert_round = insert_round.insert(par, t.clone());
            insert_mirror.push((par, t.clone(), true));
        }
        let mut retract_round = UpdateRound::new();
        let mut retract_mirror = Vec::new();
        for t in &chain[k / 2..] {
            retract_round = retract_round.retract(par, t.clone());
            retract_mirror.push((par, t.clone(), false));
        }
        sweep(
            "e1",
            format!("A/layered_dag({layers},{width})"),
            &p,
            &mut edb,
            &server,
            vec![(insert_round, insert_mirror), (retract_round, retract_mirror)],
        )?;
    }

    // E5: 10^6 noise pairs the magic views never touch; the full base
    // materialization derives a p fact per pair. Churn: cut the b1
    // chain's last link (answers vanish), then splice it back alongside
    // fresh noise (answers return; the views skip the noise).
    {
        let (layers, noise, k) = if smoke { (8usize, 40usize, 4usize) } else { (20, 1_000_000, 64) };
        let src = "?- p(c, Y).\n\
                   p(X, Y) :- b1(X, X1), b2(X1, Y).\n\
                   p(X, Y) :- b1(X, X1), p(X1, Y1), b2(Y1, Y).";
        let mut p = parse_program(src).unwrap();
        let b1 = p.symbols.get_predicate("b1").unwrap();
        let b2 = p.symbols.get_predicate("b2").unwrap();
        let mut edb = workload::layered_b1_b2(&mut p, "c", layers, noise);
        let cut: Tuple = vec![
            p.symbols.get_constant(&format!("u{}", layers - 1)).unwrap(),
            p.symbols.get_constant(&format!("u{layers}")).unwrap(),
        ];
        let mut fresh: Vec<(selprop_datalog::ast::Pred, Tuple)> = Vec::with_capacity(2 * k);
        for i in 0..k {
            let a = p.symbols.constant(&format!("qa{i}"));
            let b = p.symbols.constant(&format!("qb{i}"));
            fresh.push((b1, vec![a, b]));
            fresh.push((b2, vec![b, a]));
        }
        let server = Server::from_database(&p, &edb, Strategy::SemiNaive);
        let cut_round = UpdateRound::new().retract(b1, cut.clone());
        let mut splice_round = UpdateRound::new().insert(b1, cut.clone());
        let mut splice_mirror = vec![(b1, cut.clone(), true)];
        for (pred, t) in &fresh {
            splice_round = splice_round.insert(*pred, t.clone());
            splice_mirror.push((*pred, t.clone(), true));
        }
        sweep(
            "e5",
            format!("magic_view/{layers}x{noise}"),
            &p,
            &mut edb,
            &server,
            vec![
                (cut_round, vec![(b1, cut, false)]),
                (splice_round, splice_mirror),
            ],
        )?;
    }
    Ok(out)
}

/// Detected CPU resources: logical count from `available_parallelism`
/// and the affinity mask from `/proc/self/status` (`Cpus_allowed_list`),
/// so the long-standing "thread rows measured on a 1-CPU box" caveat is
/// machine-readable next to the wall-clock numbers it qualifies.
fn cpu_info() -> (usize, String) {
    let count = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let affinity = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:").map(|v| v.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".to_owned());
    (count, affinity)
}

/// Per-op stats: the counter delta between two cumulative readings of a
/// materialization's lifetime stats.
fn diff_stats(after: EvalStats, before: EvalStats) -> EvalStats {
    EvalStats {
        iterations: after.iterations - before.iterations,
        rule_firings: after.rule_firings - before.rule_firings,
        tuples_derived: after.tuples_derived - before.tuples_derived,
        join_probes: after.join_probes - before.join_probes,
    }
}

fn render_json(rows: &[Row], durability: &[DurRow], query_cache: &[DurRow]) -> String {
    let (cpus, affinity) = cpu_info();
    let mut json = format!(
        "{{\n  \"generated_by\": \"cargo run --release -p selprop-bench --bin record\",\n  \"engine\": \"columnar-watermark\",\n  \"machine\": {{\"cpus\": {cpus}, \"cpus_allowed_list\": \"{affinity}\"}},\n  \"experiments\": [\n"
    );
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"experiment\": \"{}\", \"config\": \"{}\", \"threads\": {}, \"answers\": {}, \"iterations\": {}, \"rule_firings\": {}, \"tuples_derived\": {}, \"join_probes\": {}, \"wall_ms_mean\": {:.3}",
            r.experiment,
            r.config,
            r.threads,
            r.answers,
            r.stats.iterations,
            r.stats.rule_firings,
            r.stats.tuples_derived,
            r.stats.join_probes,
            r.wall_ms,
        );
        if let Some(ref_ms) = r.reference_wall_ms {
            let _ = write!(json, ", \"wall_ms_reference\": {ref_ms:.3}");
        }
        let _ = write!(json, "}}{}", if i + 1 == rows.len() { "" } else { "," });
        json.push('\n');
    }
    for (section, group) in [("durability", durability), ("query_cache", query_cache)] {
        let _ = write!(json, "  ],\n  \"{section}\": [\n");
        for (i, r) in group.iter().enumerate() {
            let _ = write!(json, "    {{\"config\": \"{}\"", r.config);
            for (name, value) in &r.metrics {
                let _ = write!(json, ", \"{name}\": {value:.3}");
            }
            let _ = write!(json, "}}{}", if i + 1 == group.len() { "" } else { "," });
            json.push('\n');
        }
    }
    json.push_str("  ]\n}\n");
    json
}

/// Runs the failure-path self-test: a deliberately corrupted reference
/// counter must surface as `Err` from the measurement pipeline.
fn corrupt_cross_check() -> Result<(), String> {
    let mut p = parse_program(
        "?- anc(john, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), par(Z, Y).",
    )
    .unwrap();
    let db = workload::random_forest(&mut p, "par", "john", 30, 11);
    measure("e1", "corrupt-self-test".to_owned(), &p, &db, 1, true).map(|_| ())
}

fn record(smoke: bool) -> Result<String, String> {
    let mut rows = Vec::new();
    println!("== recording evaluation baseline (storage engine vs reference) ==");
    e1_rows(&mut rows, smoke)?;
    e5_rows(&mut rows, smoke)?;
    prov_rows(&mut rows, smoke)?;
    incremental_rows(&mut rows, smoke)?;
    server_rows(&mut rows, smoke)?;
    let durability = durability_rows(smoke)?;
    let query_cache = query_cache_rows(smoke)?;
    let json = render_json(&rows, &durability, &query_cache);
    let path = if smoke {
        // Per-process name: concurrent smoke runs must not race on one file.
        std::env::temp_dir()
            .join(format!("BENCH_eval_smoke_{}.json", std::process::id()))
            .to_string_lossy()
            .into_owned()
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_eval.json").to_owned()
    };
    std::fs::write(&path, json).map_err(|e| format!("write {path}: {e}"))?;
    Ok(path)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--corrupt-cross-check") {
        // Self-test of the failure path: this MUST exit nonzero.
        match corrupt_cross_check() {
            Ok(()) => {
                eprintln!("cross-check FAILED to detect deliberate corruption");
                std::process::exit(3);
            }
            Err(e) => {
                eprintln!("cross-check mismatch (expected by --corrupt-cross-check): {e}");
                std::process::exit(2);
            }
        }
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    match record(smoke) {
        Ok(path) => println!("\nwrote {path}"),
        Err(e) => {
            eprintln!("cross-check mismatch: {e}");
            std::process::exit(2);
        }
    }
}
