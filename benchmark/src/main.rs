//! `selprop-benchmark` — see the crate docs and `README.md`.
//!
//! ```text
//! selprop-benchmark run --workload <name> --seed <u64> [--seconds <n>] [--trace <0|1>] [--smoke] [--corrupt-oracle]
//! selprop-benchmark compare <a.json> <b.json> [--bounds BENCHMARK.json]
//! selprop-benchmark aa [--sets 2] [--runs 5] [--workload <name>]... [--seconds <n>] [--busy 1] [--bounds BENCHMARK.json]
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use selprop_benchmark::catalog::RUN_SECONDS;
use selprop_benchmark::compare::{self, flag, parsed};
use selprop_benchmark::driver::{self, Options};
use selprop_benchmark::json;

/// Traces and temp files go next to the crate when the command runs
/// from the repository root, else into `./out`.
fn default_out_dir() -> PathBuf {
    if std::path::Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let opts = Options {
        workload: flag(args, "--workload").ok_or("run: --workload <name> is required")?,
        seed: parsed(args, "--seed", 1u64)?,
        seconds: parsed(args, "--seconds", RUN_SECONDS)?,
        trace: parsed(args, "--trace", 0u8)? != 0,
        smoke: args.iter().any(|a| a == "--smoke"),
        corrupt_oracle: args.iter().any(|a| a == "--corrupt-oracle"),
        out_dir: flag(args, "--out-dir").map_or_else(default_out_dir, PathBuf::from),
    };
    let outcome = driver::run(&opts)?;
    print!("{}", outcome.report);
    println!(
        "{}",
        json::result_line(outcome.attempted, outcome.failed, &outcome.metrics)
    );
    Ok(outcome.failed == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => compare::compare_command(&args[1..]),
        Some("aa") => compare::aa_command(&args[1..]),
        Some("spin") => compare::spin(),
        _ => Err("usage: selprop-benchmark <run|compare|aa> ... (see README.md)".to_owned()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("selprop-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
