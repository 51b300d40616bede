//! Ablation benches for the design choices called out in DESIGN.md §4:
//!
//! - **Hopcroft minimization on/off** in the rewrite pipeline (monadic
//!   rewrite size = one IDB per DFA state);
//! - **envelope tightness**: Mohri–Nederhof envelope vs exact DFA when
//!   both are available (strongly regular grammars).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use selprop_bench::run;
use selprop_core::chain::ChainProgram;
use selprop_core::rewrite::monadic_rewrite;
use selprop_core::workload;
use selprop_datalog::eval::Strategy;
use selprop_grammar::regular::approximate;
use selprop_automata::minimize::minimize;

fn bench(c: &mut Criterion) {
    println!("\n== Ablations ==");
    let chain = ChainProgram::parse(
        "?- anc(c, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), par(Z, Y).",
    )
    .unwrap();

    // 1. minimization on/off: rewrite size
    let approx = approximate(&chain.grammar());
    let raw = approx.dfa();
    let min = minimize(&raw);
    let rewrite_raw = monadic_rewrite(&chain, &raw).unwrap();
    let rewrite_min = monadic_rewrite(&chain, &min).unwrap();
    println!(
        "rewrite size: raw DFA {} states → {} rules; minimized {} states → {} rules",
        raw.num_states(),
        rewrite_raw.rules.len(),
        min.num_states(),
        rewrite_min.rules.len()
    );
    assert!(rewrite_min.rules.len() <= rewrite_raw.rules.len());
    let mut group = c.benchmark_group("ablation_minimize");
    group.sample_size(10);
    for n in [200usize, 800] {
        let mut p1 = rewrite_raw.clone();
        let db1 = workload::chain(&mut p1, "par", "c", n);
        let mut p2 = rewrite_min.clone();
        let db2 = workload::chain(&mut p2, "par", "c", n);
        let (a1, _) = run(&p1, &db1, Strategy::SemiNaive);
        let (a2, _) = run(&p2, &db2, Strategy::SemiNaive);
        assert_eq!(a1, a2);
        group.bench_with_input(BenchmarkId::new("raw_dfa_rewrite", n), &n, |b, _| {
            b.iter(|| run(&p1, &db1, Strategy::SemiNaive))
        });
        group.bench_with_input(BenchmarkId::new("min_dfa_rewrite", n), &n, |b, _| {
            b.iter(|| run(&p2, &db2, Strategy::SemiNaive))
        });
    }
    group.finish();

    // 2. envelope tightness on strongly regular vs mixed grammars
    println!("envelope tightness:");
    for (name, src) in [
        ("strongly_regular", "anc -> par | anc par"),
        ("mixed_regular", "anc -> par | anc anc"),
        ("balanced", "p -> b1 b2 | b1 p b2"),
    ] {
        let g = selprop_grammar::Cfg::parse(src).unwrap();
        let a = approximate(&g);
        let dfa = minimize(&a.dfa());
        let lang_words = selprop_grammar::analysis::words_up_to(&g, 8).len();
        let env_words = dfa.words_up_to(8).len();
        println!(
            "  {name:<18} exact={} |L∩Σ≤8|={lang_words} |R(H)∩Σ≤8|={env_words}",
            a.exact
        );
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
