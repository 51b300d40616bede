//! The estimator. Every episode replays the identical script from the
//! same inputs, so op *i* does identical work each time and the only
//! thing that differs between replays is interference (preemption,
//! cache state left by the checks). `t_i = min over episodes` strips
//! it; a class is then summarized by the median of its ops' `t_i`
//! (`*_us`/`*_ms`) and the script by `N / Σ t_i` (`ops_per_s`). Raw
//! wall clock, no calibration loop.

use std::collections::BTreeMap;

use crate::catalog::Class;
use crate::json::Reported;
use crate::run::Episode;
use crate::script::{Action, Op, Script};

/// Median of `v` (sorts it).
///
/// # Panics
///
/// On an empty slice or a NaN.
pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile of the ladder that still has at least ten of
/// `n` samples beyond it.
pub fn top_percentile(n: usize) -> Option<f64> {
    // In per-mille, so that 100 samples do have ten beyond p90.
    [999usize, 990, 950, 900, 750]
        .into_iter()
        .find(|pm| n * (1000 - pm) >= 10_000)
        .map(|pm| pm as f64 / 10.0)
}

/// The `p`-th percentile (nearest rank) of a sorted slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `t_i`: the per-op minimum over the episodes.
pub fn per_op_min(episodes: &[Episode]) -> Vec<u64> {
    let n = episodes[0].times.len();
    (0..n)
        .map(|i| {
            episodes
                .iter()
                .map(|e| e.times[i])
                .min()
                .expect("at least one episode")
        })
        .collect()
}

/// What one timed sample of `op` is divided by to get the time of one
/// user-level operation.
pub fn divisor(op: &Op) -> f64 {
    match op.action {
        Action::Decide { reps, .. } | Action::Batch { reps, .. } => f64::from(reps),
        _ => op.count as f64,
    }
}

/// Per class: the per-operation nanoseconds of each of its ops.
pub fn class_samples(script: &Script, t: &[u64]) -> BTreeMap<Class, Vec<f64>> {
    let mut m: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
    for (op, &ns) in script.ops.iter().zip(t) {
        m.entry(op.class).or_default().push(ns as f64 / divisor(op));
    }
    m
}

/// `setup_s`: the three set-up ops' per-op minima over the replays,
/// summed — the estimator of every other metric. A run sets up once per
/// replay, some thirty times. The median over those set-ups read 35 %
/// higher in a slow phase of the box in which the minimum over the same
/// work read 3 % higher, and a median over five groups' minima still
/// moved by 47 % inside one set of ten runs while `batch_original_s`,
/// the same fixpoint through the minimum, moved by 12 % (`NOISE.md`).
pub fn setup_seconds(script: &Script, t: &[u64]) -> f64 {
    script
        .ops
        .iter()
        .zip(t)
        .filter(|(op, _)| matches!(op.class, Class::Build | Class::QueryFirst | Class::Warm))
        .map(|(_, &ns)| ns as f64 * 1e-9)
        .sum()
}

/// Served operations per second over `Σ t_i`.
pub fn ops_per_second(script: &Script, t: &[u64]) -> f64 {
    let (mut n, mut ns) = (0usize, 0u64);
    for (op, &x) in script.ops.iter().zip(t) {
        if op.class.is_served() {
            n += op.count;
            ns += x;
        }
    }
    n as f64 / (ns as f64 * 1e-9)
}

/// The end-to-end metrics of a run, in catalog order: times from the
/// `timed` episodes, the fresh-store words from the `checked` one.
pub fn end_to_end(script: &Script, checked: &Episode, episodes: &[Episode]) -> Vec<Reported> {
    let t = per_op_min(episodes);
    let mut samples = class_samples(script, &t);
    let mut med = |c: Class, scale: f64| {
        median(samples.get_mut(&c).expect("every script has every class")) * scale
    };
    let query_first_ms = med(Class::QueryFirst, 1e-6);
    let query_cold_ms = med(Class::Cold, 1e-6);
    let query_hit_us = med(Class::Hit, 1e-3);
    let pinned_query_us = med(Class::Pinned, 1e-3);
    let insert_round_ms = med(Class::Insert, 1e-6);
    let retract_round_ms = med(Class::Retract, 1e-6);
    let restore_ms = med(Class::Restore, 1e-6);
    // The batch metrics add up the programs of the workload.
    let sum = |c: Class, scale: f64| samples[&c].iter().sum::<f64>() * scale;
    let peak = episodes
        .iter()
        .map(|e| e.peak_words)
        .max()
        .expect("at least one episode");
    let fresh = checked
        .fresh_words
        .expect("the checked episode builds the fresh store");
    let values = [
        setup_seconds(script, &t),
        query_first_ms,
        query_cold_ms,
        query_hit_us,
        pinned_query_us,
        insert_round_ms,
        retract_round_ms,
        ops_per_second(script, &t),
        restore_ms,
        peak as f64 / fresh as f64,
        sum(Class::BatchOriginal, 1e-9),
        sum(Class::BatchMagic, 1e-9),
        sum(Class::BatchPropagated, 1e-9),
        sum(Class::Decide, 1e-6),
    ];
    crate::catalog::END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name.to_owned(), v, m.unit.to_owned()))
        .collect()
}

fn human(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns * 1e-9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns * 1e-6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns * 1e-3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// The human-readable table: per class the median, the highest
/// percentile with at least ten samples beyond it, and `n`.
pub fn table(script: &Script, episodes: &[Episode]) -> String {
    let t = per_op_min(episodes);
    let mut out = format!(
        "{:<18} {:>6} {:>8} {:>14} {:>22}\n",
        "class", "n", "per-op", "median", "top percentile"
    );
    let per_op: BTreeMap<Class, usize> = script
        .ops
        .iter()
        .map(|op| (op.class, divisor(op) as usize))
        .collect();
    for (class, mut v) in class_samples(script, &t) {
        let n = v.len();
        let m = median(&mut v);
        let top = match top_percentile(n) {
            Some(p) => format!("p{p} {}", human(percentile_sorted(&v, p))),
            None => "-".to_owned(),
        };
        out.push_str(&format!(
            "{:<18} {:>6} {:>8} {:>14} {:>22}\n",
            class.label(),
            n,
            per_op[&class],
            human(m),
            top
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(top_percentile(9), None);
        assert_eq!(top_percentile(40), Some(75.0));
        assert_eq!(top_percentile(100), Some(90.0));
        assert_eq!(top_percentile(200), Some(95.0));
        assert_eq!(top_percentile(1000), Some(99.0));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 90.0), 90.0);
        assert_eq!(percentile_sorted(&v, 99.9), 100.0);
    }
}
