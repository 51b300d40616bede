//! E5 — Section 7: magic sets = quotients, on the paper's worked example
//! `L(H) = b1^n b2^n` over layered databases with growing noise.
//!
//! Expected shape: magic-transformed work ≈ O(relevant region);
//! naive original work grows with the whole database; the pruning factor
//! grows with the noise fraction. The envelope quotient is `b1*` for
//! every rule (the paper's magic set).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use selprop_bench::{row, run, strategy_from_env, THREAD_SWEEP};
use selprop_core::chain::ChainProgram;
use selprop_core::magic_chain::{analyze, transform};
use selprop_core::workload;
use selprop_datalog::eval::Strategy;

const SRC: &str = "?- p(c, Y).\n\
                   p(X, Y) :- b1(X, X1), b2(X1, Y).\n\
                   p(X, Y) :- b1(X, X1), p(X1, Y1), b2(Y1, Y).";

fn bench(c: &mut Criterion) {
    println!("\n== E5: magic = quotient (b1^n b2^n) ==");
    let chain = ChainProgram::parse(SRC).unwrap();
    let analysis = analyze(&chain).unwrap();
    println!(
        "envelope exact: {}; per-rule quotient states: {:?}",
        analysis.envelope_exact,
        analysis
            .rules
            .iter()
            .map(|r| r.envelope_quotient.num_states())
            .collect::<Vec<_>>()
    );
    let magic = transform(&chain).unwrap();

    // The timed sweep honors SELPROP_THREADS (parallel engine smoke in
    // CI); work counters are strategy-invariant.
    let strategy = strategy_from_env();
    let mut group = c.benchmark_group("e5_magic");
    group.sample_size(10);
    for (layers, noise) in [(10usize, 50usize), (20, 400), (40, 3200)] {
        let mut p1 = chain.program.clone();
        let db1 = workload::layered_b1_b2(&mut p1, "c", layers, noise);
        let mut p2 = magic.program.clone();
        let db2 = workload::layered_b1_b2(&mut p2, "c", layers, noise);
        let (a1, s1) = run(&p1, &db1, Strategy::SemiNaive);
        let (a2, s2) = run(&p2, &db2, Strategy::SemiNaive);
        assert_eq!(a1, a2, "magic preserves answers");
        if strategy != Strategy::SemiNaive {
            assert_eq!(run(&p1, &db1, strategy), (a1, s1), "parallel strategy drift");
            assert_eq!(run(&p2, &db2, strategy), (a2, s2), "magic parallel strategy drift");
        }
        row("original", layers * 2 + noise * 2, a1, &s1);
        row("magic", layers * 2 + noise * 2, a2, &s2);
        group.bench_with_input(
            BenchmarkId::new("original", format!("{layers}x{noise}")),
            &layers,
            |b, _| b.iter(|| run(&p1, &db1, strategy)),
        );
        group.bench_with_input(
            BenchmarkId::new("magic", format!("{layers}x{noise}")),
            &layers,
            |b, _| b.iter(|| run(&p2, &db2, strategy)),
        );
    }
    // quotient computation cost
    group.bench_function("analyze_quotients", |b| b.iter(|| analyze(&chain).unwrap()));

    // Large-scale wall-clock configuration (10^6 noise pairs, >10^6
    // derived p tuples for the untransformed program); opt-in via
    // SELPROP_LARGE=1.
    if std::env::var_os("SELPROP_LARGE").is_some() {
        let (layers, noise) = (20usize, 1_000_000usize);
        let mut p1 = chain.program.clone();
        let db1 = workload::layered_b1_b2(&mut p1, "c", layers, noise);
        let mut p2 = magic.program;
        let db2 = workload::layered_b1_b2(&mut p2, "c", layers, noise);
        let (a1, s1) = run(&p1, &db1, Strategy::SemiNaive);
        let (a2, s2) = run(&p2, &db2, Strategy::SemiNaive);
        assert_eq!(a1, a2, "magic preserves answers");
        row("original", layers * 2 + noise * 2, a1, &s1);
        row("magic", layers * 2 + noise * 2, a2, &s2);
        group.sample_size(2);
        group.bench_with_input(
            BenchmarkId::new("original", format!("{layers}x{noise}")),
            &layers,
            |b, _| b.iter(|| run(&p1, &db1, Strategy::SemiNaive)),
        );
        group.bench_with_input(
            BenchmarkId::new("magic", format!("{layers}x{noise}")),
            &layers,
            |b, _| b.iter(|| run(&p2, &db2, Strategy::SemiNaive)),
        );
        // Thread-scaling sweep on the untransformed large config (the
        // delta step of the recursive rule sits mid-join here, so this
        // exercises sharding with duplicated pre-delta work).
        for threads in THREAD_SWEEP {
            let strategy = Strategy::SemiNaiveParallel { threads };
            let (pa, ps) = run(&p1, &db1, strategy);
            assert_eq!((pa, ps), (a1, s1), "parallel drift at {threads}t");
            group.bench_with_input(
                BenchmarkId::new("original_threads", threads),
                &threads,
                |b, _| b.iter(|| run(&p1, &db1, strategy)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
