//! Integration tests for Section 8: uniformity and containment
//! (Prop. 8.1), boundedness / FO-expressibility (Prop. 8.2).

use selprop_core::bounded::{boundedness, convergence_iterations, Boundedness};
use selprop_core::chain::ChainProgram;
use selprop_core::contain::{contained, equivalent, is_uniform, uniformize, Containment};
use selprop_core::workload;
use selprop_datalog::db::Database;

#[test]
fn prop_8_2_three_way_equivalence_bounded_side() {
    // finite L(H) ⇒ bounded ⇒ FO form exists and is equivalent
    let chain = ChainProgram::parse(
        "?- p(c, Y).\n\
         p(X, Y) :- b(X, Y).\n\
         p(X, Y) :- b(X, Z1), b(Z1, Z2), b(Z2, Y).",
    )
    .unwrap();
    let Boundedness::Bounded {
        fo_program,
        depth_bound,
        words,
    } = boundedness(&chain)
    else {
        panic!("finite language must be bounded");
    };
    assert_eq!(words.len(), 2);
    assert_eq!(depth_bound, 4);
    assert!(
        !fo_program.is_idb(
            fo_program
                .rules
                .iter()
                .flat_map(|r| r.body.iter())
                .map(|a| a.pred)
                .find(|&p| !fo_program.is_idb(p))
                .unwrap()
        ),
        "FO form must be nonrecursive over EDBs"
    );
    // convergence profile constant across database sizes
    let mut p1 = chain.program.clone();
    let mut p2 = chain.program.clone();
    let dbs = vec![
        workload::chain(&mut p1, "b", "c", 4),
        workload::chain(&mut p2, "b", "c", 12),
    ];
    let mut shared = chain;
    shared.program.symbols = p2.symbols;
    let iters = convergence_iterations(&shared, &dbs);
    assert_eq!(iters[0], iters[1], "bounded ⇒ constant iterations: {iters:?}");
}

#[test]
fn prop_8_2_unbounded_side() {
    let chain = ChainProgram::parse(
        "?- anc(c, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), par(Z, Y).",
    )
    .unwrap();
    let Boundedness::Unbounded { pump } = boundedness(&chain) else {
        panic!("par+ is infinite");
    };
    assert!(pump.word(1).len() > pump.word(0).len());
    // iterations grow with data: not FO
    let mut p1 = chain.program.clone();
    let mut p2 = chain.program.clone();
    let dbs = vec![
        workload::chain(&mut p1, "par", "c", 4),
        workload::chain(&mut p2, "par", "c", 12),
    ];
    let mut shared = chain;
    shared.program.symbols = p2.symbols;
    let iters = convergence_iterations(&shared, &dbs);
    assert!(iters[1] > iters[0], "unbounded ⇒ growing iterations: {iters:?}");
}

#[test]
fn prop_8_1_uniform_programs() {
    // a uniform chain program: each IDB has a dedicated EDB
    let u = ChainProgram::parse(
        "?- p(c, Y).\n\
         p(X, Y) :- bp(X, Y).\n\
         p(X, Y) :- p(X, Z), q(Z, Y).\n\
         q(X, Y) :- bq(X, Y).",
    )
    .unwrap();
    assert!(is_uniform(&u));

    let not_u = ChainProgram::parse(
        "?- p(c, Y).\np(X, Y) :- e(X, Y).\np(X, Y) :- p(X, Z), e(Z, Y).",
    )
    .unwrap();
    assert!(!is_uniform(&not_u));
    let made = uniformize(&not_u);
    assert!(is_uniform(&made));
    // uniformization strictly extends the language (new terminals appear)
    let g_old = not_u.grammar();
    let g_new = made.grammar();
    assert!(g_new.alphabet.len() > g_old.alphabet.len());
}

#[test]
fn containment_decidable_fragments() {
    // regular/regular: decidable with witnesses
    let a = ChainProgram::parse(
        "?- anc(c, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), par(Z, Y).",
    )
    .unwrap();
    let even = ChainProgram::parse(
        "?- e(c, Y).\ne(X, Y) :- par(X, Z), par(Z, Y).\ne(X, Y) :- e(X, Z), par(Z, W), par(W, Y).",
    )
    .unwrap();
    // even-length paths ⊂ all paths
    assert_eq!(contained(&even, &a, 6), Containment::Contained);
    match contained(&a, &even, 6) {
        Containment::NotContained(w) => assert_eq!(w.len(), 1),
        other => panic!("expected odd-length witness, got {other:?}"),
    }
    // equivalence of A and B forms
    let b = ChainProgram::parse(
        "?- anc(c, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- par(X, Z), anc(Z, Y).",
    )
    .unwrap();
    assert_eq!(equivalent(&a, &b, 6), Containment::Contained);
}

#[test]
fn containment_agrees_with_query_answers() {
    // language containment ⇒ query containment on every database
    let small = ChainProgram::parse(
        "?- e(c, Y).\ne(X, Y) :- par(X, Z), par(Z, Y).\ne(X, Y) :- e(X, Z), par(Z, W), par(W, Y).",
    )
    .unwrap();
    let big = ChainProgram::parse(
        "?- anc(c, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), par(Z, Y).",
    )
    .unwrap();
    assert_eq!(contained(&small, &big, 6), Containment::Contained);
    for seed in 0..4u64 {
        let mut p1 = small.program.clone();
        let db1 = workload::random_labeled_digraph(&mut p1, &["par"], "c", 10, 25, seed);
        let mut p2 = big.program.clone();
        let db2 = workload::random_labeled_digraph(&mut p2, &["par"], "c", 10, 25, seed);
        let run = |p: &selprop_datalog::Program, db: &Database| -> Vec<Vec<String>> {
            let (ans, _) =
                selprop_datalog::eval::answer(p, db, selprop_datalog::eval::Strategy::SemiNaive);
            let mut v: Vec<Vec<String>> = ans
                .iter()
                .map(|t| {
                    t.iter()
                        .map(|&c| p.symbols.const_name(c).to_owned())
                        .collect()
                })
                .collect();
            v.sort();
            v
        };
        let a1 = run(&p1, &db1);
        let a2 = run(&p2, &db2);
        for t in &a1 {
            assert!(a2.contains(t), "query containment violated on seed {seed}");
        }
    }
}

#[test]
fn undecidable_region_returns_unknown_not_wrong() {
    // two non-regular programs with equal languages: must not refute
    let p1 = ChainProgram::parse(
        "?- p(c, Y).\n\
         p(X, Y) :- b1(X, X1), b2(X1, Y).\n\
         p(X, Y) :- b1(X, X1), p(X1, X2), b2(X2, Y).",
    )
    .unwrap();
    let p2 = ChainProgram::parse(
        "?- q(c, Y).\n\
         q(X, Y) :- b1(X, X1), r(X1, Y).\n\
         r(X, Y) :- b2(X, Y).\n\
         r(X, Y) :- q(X, Z), b2(Z, Y).",
    )
    .unwrap();
    // languages: p = b1^n b2^n; q = b1 r; r = b2 | q b2 → q = b1^n b2^n too
    if let Containment::NotContained(w) = contained(&p1, &p2, 8) {
        panic!("false witness {w:?}");
    }
    if let Containment::NotContained(w) = contained(&p2, &p1, 8) {
        panic!("false witness {w:?}");
    }
}
