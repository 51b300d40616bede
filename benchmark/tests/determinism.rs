//! Same `(workload, seed)` ⇒ same script and same counters; different
//! seeds ⇒ the same amount of work (the seed only permutes ids and
//! picks among symmetric members).

use std::path::PathBuf;

use selprop_benchmark::catalog::WORKLOADS;
use selprop_benchmark::driver::{self, Options};
use selprop_benchmark::script::generate;

fn opts(workload: &str, seed: u64, tag: &str) -> Options {
    Options {
        workload: workload.to_owned(),
        seed,
        seconds: 60,
        trace: false,
        smoke: true,
        corrupt_oracle: false,
        // Per test and per call: tests run on parallel threads.
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("determinism-{tag}-{workload}-{seed}")),
    }
}

#[test]
fn same_seed_same_script_and_counters() {
    for w in WORKLOADS {
        let a = driver::run(&opts(w.name, 7, "a")).unwrap();
        let b = driver::run(&opts(w.name, 7, "b")).unwrap();
        assert_eq!(a.failed, 0, "{}: {:?}", w.name, a.failures);
        assert_eq!(a.script_hash, b.script_hash, "{}: script_hash", w.name);
        assert_eq!(a.ops, b.ops, "{}: op count", w.name);
        assert_eq!(a.attempted, b.attempted, "{}: attempted", w.name);
        // EvalStats, CacheStats, MemStats and the compaction count at
        // the end of every episode's script.
        assert_eq!(
            a.end_states, b.end_states,
            "{}: end-of-script counters",
            w.name
        );
    }
}

#[test]
fn full_size_scripts_hash_the_same_for_one_seed_and_differ_between_seeds() {
    for w in WORKLOADS.iter().filter(|w| w.name != "noise_serve") {
        let a = generate(w, 3, false);
        let b = generate(w, 3, false);
        let c = generate(w, 4, false);
        assert_eq!(a.hash, b.hash, "{}", w.name);
        assert_ne!(a.hash, c.hash, "{}: the seed must reach the script", w.name);
        assert_eq!(
            a.class_counts(),
            c.class_counts(),
            "{}: op counts are constants of the catalog",
            w.name
        );
    }
}

/// `|a - b| <= 2 % of the larger`, or both tiny.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 0.02 * a.max(b) || a.max(b) < 50.0
}

#[test]
fn different_seeds_do_the_same_work() {
    for w in WORKLOADS {
        let runs: Vec<_> = [1u64, 2, 3]
            .iter()
            .map(|&s| driver::run(&opts(w.name, s, "s")).unwrap())
            .collect();
        for r in &runs[1..] {
            assert_eq!(r.failed, 0, "{}: {:?}", w.name, r.failures);
            assert_eq!(r.ops, runs[0].ops, "{}: op count", w.name);
            let (x, y) = (
                runs[0].end_states.last().unwrap(),
                r.end_states.last().unwrap(),
            );
            let counts = |e: &selprop_benchmark::run::EndState| {
                [
                    e.stats.iterations as f64,
                    e.stats.rule_firings as f64,
                    e.stats.tuples_derived as f64,
                    e.stats.join_probes as f64,
                    e.cache.hits as f64,
                    e.cache.misses as f64,
                    e.cache.syncs as f64,
                    e.cache.evictions as f64,
                    e.mem.live_rows as f64,
                    e.mem.total_rows as f64,
                    e.mem.tuple_words as f64,
                    e.mem.just_words as f64,
                    e.compactions as f64,
                ]
            };
            for (i, (a, b)) in counts(x).into_iter().zip(counts(y)).enumerate() {
                assert!(
                    close(a, b),
                    "{}: work count #{i} differs between seeds: {a} vs {b}",
                    w.name
                );
            }
        }
    }
}
