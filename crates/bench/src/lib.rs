//! Shared helpers for the E1–E10 bench targets under `benches/` — the
//! paper's experiments and this crate's only targets.
//!
//! Every bench prints, before timing, the *work-count table* for its
//! experiment (rule firings, join probes, tuples derived) — the
//! machine-independent numbers EXPERIMENTS.md records — and then lets
//! Criterion measure wall time on the same configurations.

#![forbid(unsafe_code)]

use selprop_datalog::db::Database;
use selprop_datalog::eval::{answer, EvalStats, Strategy};
use selprop_datalog::Program;

/// Evaluates and returns `(answer count, stats)`.
pub fn run(program: &Program, db: &Database, strategy: Strategy) -> (usize, EvalStats) {
    let (ans, stats) = answer(program, db, strategy);
    (ans.len(), stats)
}

/// Prints one row of a work table.
pub fn row(label: &str, n: usize, answers: usize, stats: &EvalStats) {
    println!(
        "{label:<24} n={n:<8} answers={answers:<8} tuples={:<10} work={:<12} iters={}",
        stats.tuples_derived,
        stats.work(),
        stats.iterations
    );
}

/// The evaluation strategy selected by the `SELPROP_THREADS` environment
/// variable: `>= 2` picks the sharded parallel engine with that many
/// workers, anything else (unset, `0`, `1`, garbage) the sequential
/// semi-naive engine. Lets CI exercise the parallel path on every bench
/// without a separate harness (`SELPROP_THREADS=4 cargo bench ...`).
pub fn strategy_from_env() -> Strategy {
    match std::env::var("SELPROP_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
    {
        Some(threads) if threads >= 2 => Strategy::SemiNaiveParallel { threads },
        _ => Strategy::SemiNaive,
    }
}

/// Thread counts for the scaling sweeps in the E1/E5 benches.
pub const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];
