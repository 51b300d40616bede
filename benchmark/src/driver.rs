//! One benchmark run: generate the script, replay episodes until the
//! catalog's count or the `--seconds` deadline, check, aggregate.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::catalog;
use crate::json::Reported;
use crate::oracle::{Mode, Oracle};
use crate::run::{run_episode, Episode, Prepared};
use crate::script::generate;
use crate::{stats, trace};

/// Timed episodes a full-size run never goes below, deadline or not:
/// the per-op minimum needs replays to take a minimum over.
pub const MIN_EPISODES: usize = 3;

/// Options of one run.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Script seed.
    pub seed: u64,
    /// Deadline for starting further episodes.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Toy sizes, reference oracle on every op.
    pub smoke: bool,
    /// Flip one expected tuple: the run must fail.
    pub corrupt_oracle: bool,
    /// Where temp files and traces go.
    pub out_dir: PathBuf,
}

/// What a run produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// `script_hash`.
    pub script_hash: u64,
    /// Ops per episode.
    pub ops: usize,
    /// Checked comparisons.
    pub attempted: u64,
    /// Comparisons that disagreed.
    pub failed: u64,
    /// Descriptions of the first disagreements.
    pub failures: Vec<String>,
    /// The metrics to print: end-to-end (untraced) or per-layer (traced).
    pub metrics: Vec<Reported>,
    /// The human-readable report.
    pub report: String,
    /// The engine's counters at the end of each episode's script, the
    /// checked episode's first.
    pub end_states: Vec<crate::run::EndState>,
}

/// The episodes of a server pass.
pub struct Replay {
    /// Episode 0: every answer checked against the oracle between the
    /// timed regions. Its timings are not used — the checks leave the
    /// caches cold and their extra questions warm views early, so its
    /// ops do not do the work the other replays do.
    pub checked: Episode,
    /// The replays the estimator takes its per-op minimum over; each is
    /// held to the checked episode's answer hashes and counters.
    pub timed: Vec<Episode>,
}

/// Replays the script: the checked episode, then up to `max` timed
/// ones — at least `min`, after which none is started that would end
/// past `deadline`.
pub fn replay(
    prep: &Prepared,
    oracle: &mut Oracle,
    max: usize,
    min: usize,
    deadline: Instant,
    extras: bool,
) -> Replay {
    let checked = run_episode(prep, 0, Some(oracle), extras);
    let mut timed: Vec<Episode> = Vec::new();
    let mut last = Duration::ZERO;
    for e in 1..=max {
        if timed.len() >= min && Instant::now() + last > deadline {
            break;
        }
        let t = Instant::now();
        let ep = run_episode(prep, e, None, extras);
        last = t.elapsed();
        for (i, (a, b)) in checked.hashes.iter().zip(&ep.hashes).enumerate() {
            oracle.record(a == b, || {
                format!("episode {e} op {i}: answer hash differs from episode 0")
            });
        }
        // The checked episode asks extra (untimed) questions, which are
        // cache hits; every other counter must repeat exactly.
        let mut end = ep.end;
        end.cache.hits = checked.end.cache.hits;
        let same = checked.peak_words == ep.peak_words && checked.end == end;
        oracle.record(same, || {
            format!("episode {e}: end-of-script counters differ from episode 0")
        });
        timed.push(ep);
    }
    Replay { checked, timed }
}

/// Runs one workload once.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let w = catalog::workload(&opts.workload).ok_or_else(|| {
        let names: Vec<&str> = catalog::WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {:?} (one of {})",
            opts.workload,
            names.join(", ")
        )
    })?;
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("{}: {e}", opts.out_dir.display()))?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs(opts.seconds);
    let prep = Prepared::new(generate(w, opts.seed, opts.smoke), &opts.out_dir);
    let sizes = prep.script.sizes;
    let mode = if opts.smoke {
        Mode::Reference
    } else {
        Mode::Full(sizes.oracle)
    };
    let mut oracle = Oracle::new(prep.program(), &prep.script.db, mode, opts.corrupt_oracle);
    let mut report = format!(
        "workload {} seed {} script_hash {:016x} ops {} facts {} generated in {:.3} s\n",
        w.name,
        opts.seed,
        prep.script.hash,
        prep.script.ops.len(),
        prep.script.db.num_facts(),
        start.elapsed().as_secs_f64()
    );
    let min = if opts.smoke { 1 } else { MIN_EPISODES };
    let (pass, metrics) = if opts.trace {
        let traced = trace::run(&prep, &mut oracle, deadline, min);
        report.push_str(&traced.report);
        (traced.pass, traced.metrics)
    } else {
        let pass = replay(&prep, &mut oracle, sizes.episodes, min, deadline, false);
        let metrics = stats::end_to_end(&prep.script, &pass.checked, &pass.timed);
        (pass, metrics)
    };
    report.push_str(&format!(
        "episodes 1 checked + {} timed in {:.3} s\n",
        pass.timed.len(),
        start.elapsed().as_secs_f64()
    ));
    report.push_str(&stats::table(&prep.script, &pass.timed));
    for (name, value, unit) in &metrics {
        report.push_str(&format!("{name:<40} {value:>16.6} {unit}\n"));
    }
    for f in &oracle.failures {
        report.push_str(&format!("FAILED {f}\n"));
    }
    Ok(Outcome {
        script_hash: prep.script.hash,
        ops: prep.script.ops.len(),
        attempted: oracle.attempted,
        failed: oracle.failed,
        failures: oracle.failures.clone(),
        metrics,
        report,
        end_states: std::iter::once(&pass.checked)
            .chain(&pass.timed)
            .map(|e| e.end)
            .collect(),
    })
}
