//! Ablation benches for the design choices called out in DESIGN.md §4:
//!
//! - **Hopcroft minimization on/off** in the rewrite pipeline (monadic
//!   rewrite size = one IDB per DFA state);
//! - **envelope tightness**: Mohri–Nederhof envelope vs exact DFA when
//!   both are available (strongly regular grammars);
//! - **the floor under a derived tuple**: program A's closure by the
//!   engine's `answer` against a semi-naive loop over a hash set of
//!   pairs, on the same layered DAG, in ns per candidate head.

use std::hint::black_box;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use selprop_bench::run;
use selprop_core::chain::ChainProgram;
use selprop_core::rewrite::monadic_rewrite;
use selprop_core::workload;
use selprop_datalog::eval::{answer, Strategy};
use selprop_datalog::hash::{FxHashMap, FxHashSet};
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

    // 3. the floor under a derived tuple: both run the same semi-naive
    // rounds over the same edges, so they enumerate the same candidate
    // heads; the engine's cost over the floor's is the constant factor
    // left to remove
    let mut program = chain.program;
    let db = workload::layered_dag(&mut program, "par", "c", 32, 16);
    let par = program.symbols.get_predicate("par").unwrap();
    let edges: Vec<(u32, u32)> =
        db.relation(par).unwrap().iter().map(|t| (t[0].0, t[1].0)).collect();
    let (closure, candidates) = floor_closure(&edges);
    let (_, stats) = answer(&program, &db, Strategy::SemiNaive);
    assert_eq!(closure.len() as u64, stats.tuples_derived, "the floor's closure is the engine's");
    let per_candidate = |f: &dyn Fn()| {
        let best = (0..7)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed()
            })
            .min()
            .unwrap();
        best.as_nanos() as f64 / candidates as f64
    };
    let engine = per_candidate(&|| drop(black_box(answer(&program, &db, Strategy::SemiNaive))));
    let floor = per_candidate(&|| drop(black_box(floor_closure(black_box(&edges)))));
    println!(
        "derived-tuple floor on layered_dag(32, 16): {} tuples, {candidates} candidate heads; \
         answer {engine:.1} ns, hash-set loop {floor:.1} ns a candidate ({:.1}x)",
        closure.len(),
        engine / floor
    );
}

/// Program A's closure of `par` by semi-naive iteration over a hash set
/// of pairs, and the number of candidate heads it enumerated: the floor
/// a derived tuple's probe and insert cost.
fn floor_closure(par: &[(u32, u32)]) -> (FxHashSet<(u32, u32)>, u64) {
    let mut succ: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
    for &(x, y) in par {
        succ.entry(x).or_default().push(y);
    }
    let mut anc: FxHashSet<(u32, u32)> = par.iter().copied().collect();
    let mut candidates = par.len() as u64;
    let mut delta: Vec<(u32, u32)> = anc.iter().copied().collect();
    while !delta.is_empty() {
        let mut next = Vec::new();
        for &(x, z) in &delta {
            for &y in succ.get(&z).map_or(&[][..], Vec::as_slice) {
                candidates += 1;
                if anc.insert((x, y)) {
                    next.push((x, y));
                }
            }
        }
        delta = next;
    }
    (anc, candidates)
}

criterion_group!(benches, bench);
criterion_main!(benches);
