//! E4 — Corollary 3.4: the decision pipeline on the program gallery.
//!
//! The per-program group times the verdict, `propagate`: the decidable
//! certificates (finiteness, strong regularity, self-embedding) cost
//! microseconds, and an `Unknown` costs steps 1–4 and nothing more. The
//! `balanced_budget_{4,6}` sweep times the undecidable region's evidence,
//! `Undecided::evidence`, which costs what its sampling budget says (one
//! CYK column per trie node: prefixes × suffix-trie nodes for the Nerode
//! bound, the envelope's live paths for the tightness check). The
//! trichotomy lands exactly where ground truth puts it.

use criterion::{criterion_group, criterion_main, Criterion};
use selprop_core::chain::ChainProgram;
use selprop_core::propagate::{propagate, Propagation, PropagationBudget};

const GALLERY: [(&str, &str, &str); 7] = [
    ("left_linear", "propagated",
     "?- anc(c, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), par(Z, Y)."),
    ("right_linear", "propagated",
     "?- anc(c, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- par(X, Z), anc(Z, Y)."),
    ("finite", "propagated",
     "?- p(c, Y).\np(X, Y) :- b1(X, Y).\np(X, Y) :- b1(X, Z), b2(Z, Y)."),
    ("nonlinear_regular", "propagated",
     "?- anc(c, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), anc(Z, Y)."),
    ("balanced", "unknown",
     "?- p(c, Y).\np(X, Y) :- b1(X, X1), b2(X1, Y).\np(X, Y) :- b1(X, X1), p(X1, X2), b2(X2, Y)."),
    ("diagonal_infinite", "impossible",
     "?- p(X, X).\np(X, Y) :- b(X, Y).\np(X, Y) :- p(X, Z), b(Z, Y)."),
    // L = Σ⁺ over four letters through a self-embedding grammar: its
    // evidence's tightness check would walk all 4 + … + 4¹⁰ words of the
    // exact envelope; the verdict walks none.
    ("wide_self_embedding", "unknown",
     "?- p(c, Y).\np(X, Y) :- p(X, Z), p(Z, Y).\np(X, Y) :- e0(X, Y).\np(X, Y) :- e1(X, Y).\np(X, Y) :- e2(X, Y).\np(X, Y) :- e3(X, Y)."),
];

fn outcome_label(p: &Propagation) -> &'static str {
    match p {
        Propagation::Propagated { .. } => "propagated",
        Propagation::Impossible { .. } => "impossible",
        Propagation::Unknown(_) => "unknown",
    }
}

fn bench(c: &mut Criterion) {
    println!("\n== E4: decision trichotomy ==");
    for (name, expected, src) in GALLERY {
        let chain = ChainProgram::parse(src).unwrap();
        let outcome = propagate(&chain).unwrap();
        println!("{name:<20} expected={expected:<11} got={}", outcome_label(&outcome));
        assert_eq!(outcome_label(&outcome), expected, "trichotomy mismatch for {name}");
    }

    let mut group = c.benchmark_group("e4_decide");
    group.sample_size(10);
    for (name, _, src) in GALLERY {
        let chain = ChainProgram::parse(src).unwrap();
        group.bench_function(name, |b| b.iter(|| propagate(&chain).unwrap()));
    }
    // budget sweep for the undecidable region's evidence
    let balanced = ChainProgram::parse(GALLERY[4].2).unwrap();
    let Propagation::Unknown(balanced) = propagate(&balanced).unwrap() else {
        unreachable!("the trichotomy check above found balanced unknown");
    };
    for nerode in [4usize, 6] {
        let budget = PropagationBudget {
            nerode_max_len: nerode,
            envelope_sample_len: 8,
        };
        group.bench_function(format!("balanced_budget_{nerode}"), |b| {
            b.iter(|| balanced.evidence(budget))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
