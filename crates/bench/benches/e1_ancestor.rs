//! E1 — Example 1.1: the four ancestor programs A–D plus magic(A..C) on
//! random parent forests with disconnected noise.
//!
//! Expected shape (paper, Section 1): D (monadic) ≪ A, B, C;
//! magic(A)/magic(B) land near D; magic(C) stays expensive.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use selprop_bench::{row, run, strategy_from_env, THREAD_SWEEP};
use selprop_core::workload;
use selprop_datalog::db::Database;
use selprop_datalog::eval::Strategy;
use selprop_datalog::magic::magic_transform;
use selprop_datalog::parser::parse_program;
use selprop_datalog::Program;

const PROGRAMS: [(&str, &str); 4] = [
    ("A", "?- anc(john, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), par(Z, Y)."),
    ("B", "?- anc(john, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- par(X, Z), anc(Z, Y)."),
    ("C", "?- anc(john, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), anc(Z, Y)."),
    ("D", "?- ancjohn(Y).\nancjohn(Y) :- par(john, Y).\nancjohn(Y) :- ancjohn(Z), par(Z, Y)."),
];

fn build_db(program: &mut Program, n: usize) -> Database {
    let mut db = workload::random_forest(program, "par", "john", n, 11);
    let noise = workload::wide(program, "par", "elsewhere", 0, n / 20, 10);
    for (p, rel) in noise.iter() {
        for t in rel.iter() {
            db.insert(p, t.clone());
        }
    }
    db
}

fn bench(c: &mut Criterion) {
    println!("\n== E1: Example 1.1 work table ==");
    for n in [100usize, 400] {
        for (name, src) in PROGRAMS {
            let mut p = parse_program(src).unwrap();
            let db = build_db(&mut p, n);
            let (answers, stats) = run(&p, &db, Strategy::SemiNaive);
            row(name, n, answers, &stats);
            if name != "D" {
                let magic = magic_transform(&p).unwrap();
                let (ma, ms) = run(&magic.program, &db, Strategy::SemiNaive);
                row(&format!("magic({name})"), n, ma, &ms);
            }
        }
    }

    // Large-scale wall-clock configuration (>10^6 derived anc tuples);
    // opt-in via SELPROP_LARGE=1 so the default bench run stays quick.
    if std::env::var_os("SELPROP_LARGE").is_some() {
        let mut group = c.benchmark_group("e1_ancestor_large");
        group.sample_size(2);
        for (name, src) in [PROGRAMS[0], PROGRAMS[3]] {
            let mut p = parse_program(src).unwrap();
            let db = workload::layered_dag(&mut p, "par", "john", 72, 20);
            let (answers, stats) = run(&p, &db, Strategy::SemiNaive);
            row(&format!("{name}/layered_dag"), db.num_facts(), answers, &stats);
            group.bench_with_input(BenchmarkId::new(name, "layered_dag_72x20"), &name, |b, _| {
                b.iter(|| run(&p, &db, Strategy::SemiNaive))
            });
            // Thread-scaling sweep of the sharded parallel engine on the
            // same closure, counters asserted equal before timing.
            if name == "A" {
                for threads in THREAD_SWEEP {
                    let strategy = Strategy::SemiNaiveParallel { threads };
                    let (pa, ps) = run(&p, &db, strategy);
                    assert_eq!((pa, ps), (answers, stats), "parallel drift at {threads}t");
                    group.bench_with_input(
                        BenchmarkId::new(format!("{name}_threads"), threads),
                        &threads,
                        |b, _| b.iter(|| run(&p, &db, strategy)),
                    );
                }
            }
        }
        group.finish();
    }

    // The timed sweep honors SELPROP_THREADS (CI smoke-runs the parallel
    // engine with SELPROP_THREADS=4); counters are strategy-invariant,
    // which the assert checks on every config.
    let strategy = strategy_from_env();
    let mut group = c.benchmark_group("e1_ancestor");
    group.sample_size(10);
    for n in [100usize, 400] {
        for (name, src) in PROGRAMS {
            let mut p = parse_program(src).unwrap();
            let db = build_db(&mut p, n);
            if strategy != Strategy::SemiNaive {
                assert_eq!(
                    run(&p, &db, strategy),
                    run(&p, &db, Strategy::SemiNaive),
                    "{name}/n={n}: parallel strategy drift"
                );
            }
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter(|| run(&p, &db, strategy))
            });
            if name != "D" {
                let magic = magic_transform(&p).unwrap();
                if strategy != Strategy::SemiNaive {
                    assert_eq!(
                        run(&magic.program, &db, strategy),
                        run(&magic.program, &db, Strategy::SemiNaive),
                        "magic({name})/n={n}: parallel strategy drift"
                    );
                }
                group.bench_with_input(BenchmarkId::new(format!("magic_{name}"), n), &n, |b, _| {
                    b.iter(|| run(&magic.program, &db, strategy))
                });
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
