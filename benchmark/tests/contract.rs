//! The contract between the benchmark and `BENCHMARK.json`, checked on
//! `--smoke` sizes: what is printed is what is listed, with the same
//! unit; nothing printed is under-sampled in the full-size catalog;
//! a corrupted oracle fails the run.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use selprop_benchmark::catalog::{
    self, Class, END_TO_END, FLOOR_EPISODES, FLOOR_PLENTIFUL, PER_LAYER, WORKLOADS,
};
use selprop_benchmark::driver::{self, Options, MIN_EPISODES};
use selprop_benchmark::json::{self, Value};
use selprop_benchmark::script::generate;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .unwrap()
}

fn out_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("contract-{tag}"))
}

fn opts(workload: &str, trace: bool, tag: &str) -> Options {
    Options {
        workload: workload.to_owned(),
        seed: 5,
        seconds: 60,
        trace,
        smoke: true,
        corrupt_oracle: false,
        out_dir: out_dir(&format!("{tag}-{workload}-{trace}")),
    }
}

/// name → unit of one of BENCHMARK.json's metric lists.
fn listed(doc: &Value, key: &str) -> BTreeMap<String, String> {
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Value::as_str).unwrap().to_owned(),
                m.get("unit").and_then(Value::as_str).unwrap().to_owned(),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_catalog() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let list = doc.get(key).and_then(Value::as_arr).unwrap();
        assert_eq!(list.len(), defs.len(), "{key}");
        for (m, d) in list.iter().zip(defs) {
            assert_eq!(m.get("name").and_then(Value::as_str), Some(d.name));
            assert_eq!(
                m.get("unit").and_then(Value::as_str),
                Some(d.unit),
                "{}",
                d.name
            );
            assert_eq!(
                m.get("better").and_then(Value::as_str),
                Some(d.better.as_str()),
                "{}",
                d.name
            );
            assert!(
                d.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                d.name
            );
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            if key == "end_to_end" {
                let bound = m.get("bound").and_then(Value::as_f64).unwrap();
                assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", d.name);
            }
        }
    }
    let workloads = doc.get("workloads").and_then(Value::as_arr).unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (j, w) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(j.get("name").and_then(Value::as_str), Some(w.name));
        assert_eq!(j.get("why").and_then(Value::as_str), Some(w.why));
        assert!(w.why.len() <= 200 && !w.why.contains('\n'));
    }
    assert_eq!(
        doc.get("run_seconds").and_then(Value::as_f64),
        Some(catalog::RUN_SECONDS as f64)
    );
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
}

#[test]
fn smoke_runs_print_what_is_listed_in_under_ten_seconds() {
    let doc = benchmark_json();
    let start = Instant::now();
    for w in WORKLOADS {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let out = driver::run(&opts(w.name, trace, "smoke")).unwrap();
            assert_eq!(
                out.failed, 0,
                "{} trace {trace}: {:?}",
                w.name, out.failures
            );
            assert!(out.attempted >= 1);
            // The result line parses and has exactly the contract's keys.
            let line = json::result_line(out.attempted, out.failed, &out.metrics);
            let v = json::parse(&line).unwrap();
            let keys: Vec<&str> = v.as_obj().unwrap().keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
            // Exactly the listed names, with the listed units, all finite.
            let want = listed(&doc, key);
            let got: BTreeMap<String, String> = out
                .metrics
                .iter()
                .map(|(n, _, u)| (n.clone(), u.clone()))
                .collect();
            assert_eq!(got, want, "{} trace {trace}", w.name);
            for (name, value, _) in &out.metrics {
                assert!(value.is_finite(), "{}: {name} = {value}", w.name);
                if !trace {
                    assert!(
                        *value > 0.0,
                        "{}: end-to-end {name} must never be 0",
                        w.name
                    );
                }
            }
            // The table prints median, top percentile and n per class.
            let header = out
                .report
                .lines()
                .find(|l| l.starts_with("class"))
                .expect("a table");
            for col in ["n", "median", "top percentile"] {
                assert!(header.contains(col), "table header lacks {col:?}");
            }
            assert!(out.report.contains("script_hash"));
        }
        assert!(out_dir(&format!("smoke-{}-true", w.name))
            .join(format!("trace-{}.json", w.name))
            .exists());
    }
    assert!(
        start.elapsed().as_secs() < 10,
        "smoke took {:?}",
        start.elapsed()
    );
}

#[test]
fn no_printed_pair_is_below_the_sample_floor_at_full_size() {
    // The class behind each end-to-end metric that is a class statistic.
    let backing = [
        Class::QueryFirst,
        Class::Cold,
        Class::Hit,
        Class::Pinned,
        Class::Insert,
        Class::Retract,
        Class::Save,
        Class::Restore,
        Class::BatchOriginal,
        Class::BatchMagic,
        Class::BatchPropagated,
        Class::Decide,
        Class::Build,
    ];
    for w in WORKLOADS {
        let counts = generate(w, 1, false).class_counts();
        assert!(
            w.full.episodes >= FLOOR_EPISODES && MIN_EPISODES >= 3,
            "{}",
            w.name
        );
        for class in backing {
            let n = counts.get(&class).copied().unwrap_or(0);
            if catalog::is_scarce(class) {
                assert!(n >= 1, "{}: no {class:?} op", w.name);
            } else {
                assert!(
                    n >= FLOOR_PLENTIFUL,
                    "{}: only {n} {class:?} ops per episode",
                    w.name
                );
            }
        }
    }
}

#[test]
fn the_binary_passes_clean_and_fails_on_a_corrupt_oracle() {
    let exe = env!("CARGO_BIN_EXE_selprop-benchmark");
    let dir = out_dir("binary");
    let run = |extra: &[&str]| {
        Command::new(exe)
            .args([
                "run",
                "--workload",
                "tc_serve",
                "--seed",
                "9",
                "--seconds",
                "5",
                "--trace",
                "0",
                "--smoke",
            ])
            .args(["--out-dir", dir.to_str().unwrap()])
            .args(extra)
            .output()
            .unwrap()
    };
    let clean = run(&[]);
    assert!(clean.status.success());
    let text = String::from_utf8(clean.stdout).unwrap();
    let last = json::parse(text.lines().last().unwrap()).unwrap();
    assert_eq!(last.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(last.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);

    let corrupt = run(&["--corrupt-oracle"]);
    assert!(
        !corrupt.status.success(),
        "a corrupted oracle must fail the run"
    );
    let text = String::from_utf8(corrupt.stdout).unwrap();
    let last = json::parse(text.lines().last().unwrap()).unwrap();
    assert!(last.get("failed").and_then(Value::as_f64).unwrap() > 0.0);
    assert_eq!(last.get("correct"), Some(&Value::Bool(false)));

    // Temp directories are per process and per episode, and gone afterwards.
    let left: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.file_name())
        .collect();
    assert!(
        left.iter()
            .all(|n| !n.to_string_lossy().starts_with("tmp-")),
        "{left:?}"
    );
}
