//! The A/A gate: `compare` two result files against the bounds of
//! `BENCHMARK.json`, and `aa`, which runs two (or more) sets of runs of
//! the same code alternately and compares the per-set medians — the
//! check the benchmark has to pass before any bound means anything.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use crate::catalog::{Better, RUN_SECONDS, WORKLOADS};
use crate::json::{self, Value};
use crate::stats::median;

/// One end-to-end metric's gate.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Improvement direction.
    pub better: Better,
    /// Share of the reference by which the metric may get worse.
    pub bound: f64,
}

/// Reads the end-to-end bounds out of a `BENCHMARK.json`.
pub fn load_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = doc
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("end_to_end entry without a name")?;
            let better = match m.get("better").and_then(Value::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                other => return Err(format!("{name}: better is {other:?}")),
            };
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{name}: no bound"))?;
            Ok(Bound {
                name: name.to_owned(),
                better,
                bound,
            })
        })
        .collect()
}

/// Every result line (`{"correct": …, "metrics": …}`) in `text`, as
/// metric name → value. Other lines are skipped.
pub fn parse_results(text: &str) -> Result<Vec<BTreeMap<String, f64>>, String> {
    let mut runs = Vec::new();
    for line in text.lines().filter(|l| l.trim_start().starts_with('{')) {
        let doc = json::parse(line)?;
        let Some(metrics) = doc.get("metrics").and_then(Value::as_obj) else {
            continue;
        };
        if doc.get("correct") != Some(&Value::Bool(true)) {
            return Err("a run in the file is not correct".to_owned());
        }
        let run = metrics
            .iter()
            .map(|(k, v)| {
                let x = v
                    .get("value")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("{k}: no value"))?;
                Ok((k.clone(), x))
            })
            .collect::<Result<_, String>>()?;
        runs.push(run);
    }
    if runs.is_empty() {
        return Err("no result line found".to_owned());
    }
    Ok(runs)
}

/// Per metric, the median over `runs`.
pub fn medians(runs: &[BTreeMap<String, f64>]) -> BTreeMap<String, f64> {
    let mut by_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for run in runs {
        for (k, &v) in run {
            by_name.entry(k.clone()).or_default().push(v);
        }
    }
    by_name
        .into_iter()
        .map(|(k, mut v)| (k, median(&mut v)))
        .collect()
}

/// The share of `a` by which `b` is worse (negative when better).
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Compares set `b` with reference `a`; returns the printed table and
/// whether every bounded metric stayed within its bound.
pub fn compare(
    a: &BTreeMap<String, f64>,
    b: &BTreeMap<String, f64>,
    bounds: &[Bound],
) -> (String, bool) {
    let mut out = format!(
        "{:<22} {:>14} {:>14} {:>9} {:>7}\n",
        "metric", "a", "b", "worse by", "bound"
    );
    let mut ok = true;
    for bd in bounds {
        let (Some(&x), Some(&y)) = (a.get(&bd.name), b.get(&bd.name)) else {
            out.push_str(&format!("{:<22} missing from one side\n", bd.name));
            ok = false;
            continue;
        };
        let w = worse_by(bd.better, x, y);
        let pass = w <= bd.bound;
        ok &= pass;
        out.push_str(&format!(
            "{:<22} {:>14.6} {:>14.6} {:>8.2}% {:>6.1}%{}\n",
            bd.name,
            x,
            y,
            w * 100.0,
            bd.bound * 100.0,
            if pass { "" } else { "  EXCEEDED" }
        ));
    }
    (out, ok)
}

/// The value of `--name`, if present.
pub fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// The value of `--name` read as a `T`, or `default` when absent.
pub fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{name}: cannot read {v:?}")),
    }
}

fn bounds_path(args: &[String]) -> PathBuf {
    flag(args, "--bounds").map_or_else(|| PathBuf::from("BENCHMARK.json"), PathBuf::from)
}

/// `compare <a.json> <b.json> [--bounds BENCHMARK.json]`: each file
/// holds the result lines of one or more runs of one workload.
pub fn compare_command(args: &[String]) -> Result<bool, String> {
    let files: Vec<&String> = args.iter().take_while(|a| !a.starts_with("--")).collect();
    let [a, b] = files[..] else {
        return Err("compare: expected <a.json> <b.json>".to_owned());
    };
    let bounds = load_bounds(&bounds_path(args))?;
    let read = |p: &String| -> Result<_, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Ok(medians(
            &parse_results(&text).map_err(|e| format!("{p}: {e}"))?,
        ))
    };
    let (table, ok) = compare(&read(a)?, &read(b)?, &bounds);
    print!("{table}");
    Ok(ok)
}

/// Kills and reaps the competing busy process when the A/A check ends,
/// however it ends.
struct Busy(Child);

impl Drop for Busy {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// `aa [--sets 2] [--runs 5] [--workload w]... [--seconds n] [--busy 1]`:
/// runs the sets alternately (same seeds in every set), compares each
/// later set's medians with the first set's.
pub fn aa_command(args: &[String]) -> Result<bool, String> {
    let sets: usize = parsed(args, "--sets", 2)?;
    let runs: u64 = parsed(args, "--runs", 5)?;
    let seconds = parsed(args, "--seconds", RUN_SECONDS)?;
    let busy = parsed(args, "--busy", 0u8)? != 0;
    let mut workloads: Vec<String> = args
        .windows(2)
        .filter(|w| w[0] == "--workload")
        .map(|w| w[1].clone())
        .collect();
    if workloads.is_empty() {
        workloads = WORKLOADS.iter().map(|w| w.name.to_owned()).collect();
    }
    if sets < 2 || runs == 0 {
        return Err("aa: need at least two sets of at least one run".to_owned());
    }
    let bounds = load_bounds(&bounds_path(args))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let _busy = if busy {
        let mut spin = Command::new(&exe);
        spin.arg("spin").stdout(Stdio::null());
        Some(Busy(spin.spawn().map_err(|e| e.to_string())?))
    } else {
        None
    };
    let mut all_ok = true;
    for w in &workloads {
        let mut results: Vec<Vec<BTreeMap<String, f64>>> = vec![Vec::new(); sets];
        for r in 0..runs {
            for set in results.iter_mut() {
                let out = Command::new(&exe)
                    .args([
                        "run",
                        "--workload",
                        w,
                        "--seed",
                        &(r + 1).to_string(),
                        "--seconds",
                        &seconds.to_string(),
                    ])
                    .stderr(Stdio::inherit())
                    .output()
                    .map_err(|e| e.to_string())?;
                if !out.status.success() {
                    return Err(format!("aa: run of {w} failed ({})", out.status));
                }
                let text = String::from_utf8_lossy(&out.stdout);
                let last = text.lines().last().unwrap_or_default();
                set.extend(parse_results(last)?);
            }
        }
        let reference = medians(&results[0]);
        for (k, set) in results.iter().enumerate().skip(1) {
            let (table, ok) = compare(&reference, &medians(set), &bounds);
            println!(
                "== {w}: set {k} against set 0 ({runs} runs each{})",
                if busy {
                    ", one busy process beside"
                } else {
                    ""
                }
            );
            print!("{table}");
            all_ok &= ok;
        }
    }
    Ok(all_ok)
}

/// `spin`: a busy loop for `aa --busy 1` to compete with; runs until killed.
pub fn spin() -> ! {
    let mut x = 0u64;
    loop {
        x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_respects_direction() {
        assert!((worse_by(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worse_by(Better::Lower, 10.0, 9.0) < 0.0);
    }

    #[test]
    fn compare_flags_only_regressions_past_the_bound() {
        let bounds = vec![
            Bound {
                name: "lat".into(),
                better: Better::Lower,
                bound: 0.05,
            },
            Bound {
                name: "thr".into(),
                better: Better::Higher,
                bound: 0.05,
            },
        ];
        let a: BTreeMap<String, f64> =
            [("lat".to_owned(), 100.0), ("thr".to_owned(), 100.0)].into();
        let within: BTreeMap<String, f64> =
            [("lat".to_owned(), 104.0), ("thr".to_owned(), 200.0)].into();
        let beyond: BTreeMap<String, f64> =
            [("lat".to_owned(), 90.0), ("thr".to_owned(), 94.0)].into();
        assert!(compare(&a, &within, &bounds).1);
        assert!(!compare(&a, &beyond, &bounds).1);
    }

    #[test]
    fn parse_results_takes_result_lines_only() {
        let text = "class n\n{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"x\": {\"value\": 2.5, \"unit\": \"ms\"}}}\n";
        let runs = parse_results(text).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0]["x"], 2.5);
        assert!(parse_results("nothing here").is_err());
    }
}
