//! Integration tests spanning Sections 5 (WS1S), 6 (MGS/symmetry) and
//! 7 (magic sets as quotients).

use selprop_automata::equiv::equivalent;
use selprop_automata::regex::Regex;
use selprop_core::chain::ChainProgram;
use selprop_core::magic_chain;
use selprop_core::workload;
use selprop_datalog::parser::parse_program;
use selprop_mgs::logic::{cyclic_sigma, disconnected_sigma, emso_check};
use selprop_mgs::structure::FiniteStructure;
use selprop_mgs::symmetry::{
    cycle_colors_uniform, distinguishes, monadic_probe_programs, program_cycle,
};
use selprop_ws1s::encode::{encode_monadic_program, extract_language};

// ───────────────────────── Section 5 ─────────────────────────

#[test]
fn lemma_5_1_pipeline_on_handwritten_monadic_programs() {
    // Each monadic program defines a regular language on labeled lines —
    // mechanized Lemma 5.1/5.3 with explicit expected languages.
    let cases = [
        (
            "?- p(Y).\np(Y) :- b(c, Y).\np(Y) :- p(Z), b(Z, Y).",
            "c",
            "b b*",
        ),
        (
            "?- q2(Y).\nq1(Y) :- b1(c, Y).\nq1(Y) :- q2(Z), b1(Z, Y).\nq2(Y) :- q1(Z), b2(Z, Y).",
            "c",
            "b1 b2 (b1 b2)*",
        ),
        (
            // only length-≥2 b-paths (two seed steps)
            "?- p(Y).\nstart(Y) :- b(c, Y).\np(Y) :- start(Z), b(Z, Y).\np(Y) :- p(Z), b(Z, Y).",
            "c",
            "b b b*",
        ),
    ];
    for (src, origin, expected) in cases {
        let h = parse_program(src).unwrap();
        assert!(h.is_monadic());
        let enc = encode_monadic_program(&h, origin).unwrap();
        let lang = extract_language(&enc);
        let mut al = enc.alphabet.clone();
        let want = Regex::parse(expected, &mut al).unwrap().to_dfa(&al);
        assert!(
            equivalent(&lang, &want),
            "Lemma 5.1 language mismatch for {src}: expected {expected}"
        );
    }
}

// ───────────────────────── Section 6 ─────────────────────────

#[test]
fn mgs_examples_2_2() {
    // 2.2.1 disconnectedness
    let connected = FiniteStructure::path(5, "b").symmetric_closure("b");
    let split = FiniteStructure::path(2, "b")
        .disjoint_union(&FiniteStructure::path(3, "b"))
        .symmetric_closure("b");
    assert!(!emso_check(&connected, &["w"], &disconnected_sigma()));
    assert!(emso_check(&split, &["w"], &disconnected_sigma()));
    // 2.2.3 cyclicity
    assert!(emso_check(&FiniteStructure::cycle(5, "b"), &["w"], &cyclic_sigma()));
    assert!(!emso_check(&FiniteStructure::path(5, "b"), &["w"], &cyclic_sigma()));
}

#[test]
fn section_6_symmetry_and_blindness() {
    // monadic probes: uniform colors on cycles, blind to P vs P ⊎ C
    let path = FiniteStructure::path(7, "b");
    let with_cycle = path.disjoint_union(&FiniteStructure::cycle(4, "b"));
    for probe in monadic_probe_programs() {
        assert!(cycle_colors_uniform(&probe, 6));
        assert!(!distinguishes(&probe, &path, &with_cycle));
    }
    // the binary CYCLE program distinguishes (via a 0-ary wrapper)
    let cycle_boolean = parse_program(
        "?- yes.\nyes :- p(X, X).\np(X, Y) :- b(X, Y).\np(X, Y) :- p(X, Z), b(Z, Y).",
    )
    .unwrap();
    assert!(distinguishes(&cycle_boolean, &path, &with_cycle));
    let _ = program_cycle();
}

#[test]
fn cycle_program_answers_exactly_cycle_nodes() {
    let p = program_cycle();
    let mut p2 = p;
    let s = FiniteStructure::path(4, "b")
        .disjoint_union(&FiniteStructure::cycle(3, "b"))
        .disjoint_union(&FiniteStructure::cycle(2, "b"));
    let (db, ids) = s.to_database(&mut p2.symbols);
    let (ans, _) = selprop_datalog::eval::answer(
        &p2,
        &db,
        selprop_datalog::eval::Strategy::SemiNaive,
    );
    assert_eq!(ans.len(), 5); // 3-cycle + 2-cycle nodes
    for id in &ids[4..9] {
        assert!(ans.contains(&[*id]));
    }
}

// ───────────────────────── Section 7 ─────────────────────────

#[test]
fn section_7_quotients_and_pruning() {
    let mut chain = ChainProgram::parse(
        "?- p(c, Y).\n\
         p(X, Y) :- b1(X, X1), b2(X1, Y).\n\
         p(X, Y) :- b1(X, X1), p(X1, Y1), b2(Y1, Y).",
    )
    .unwrap();
    let analysis = magic_chain::analyze(&chain).unwrap();
    let al = chain.grammar().alphabet;
    let mut al2 = al;
    let b1_star = Regex::parse("b1*", &mut al2).unwrap().to_dfa(&al2);
    for rq in &analysis.rules {
        assert!(equivalent(&rq.envelope_quotient, &b1_star));
    }
    // pruning grows with noise
    let db_small = workload::layered_b1_b2(&mut chain.program, "c", 6, 5);
    let (o1, m1) = magic_chain::work_comparison(&chain, &db_small).unwrap();
    let db_large = workload::layered_b1_b2(&mut chain.program, "c", 6, 200);
    let (o2, m2) = magic_chain::work_comparison(&chain, &db_large).unwrap();
    let ratio_small = o1.tuples_derived as f64 / m1.tuples_derived.max(1) as f64;
    let ratio_large = o2.tuples_derived as f64 / m2.tuples_derived.max(1) as f64;
    assert!(
        ratio_large > ratio_small,
        "pruning factor should grow with irrelevant data: {ratio_small:.2} vs {ratio_large:.2}"
    );
}

#[test]
fn cycle_program_agrees_with_fixpoint_negation_on_random_graphs() {
    // three independent cyclicity deciders must agree: the binary CYCLE
    // chain program (Section 6), the Example 6.3 monadic fixpoint with
    // negation, and the ∃MSO sentence of Example 2.2.3.
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use selprop_mgs::fixpoint::has_cycle_via_fixpoint;
    let cycle_boolean = parse_program(
        "?- yes.\nyes :- p(X, X).\np(X, Y) :- b(X, Y).\np(X, Y) :- p(X, Z), b(Z, Y).",
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(2024);
    for _ in 0..20 {
        let n = rng.gen_range(2..6usize);
        let m = rng.gen_range(0..9usize);
        let mut s = FiniteStructure::new(n);
        for _ in 0..m {
            s.add_edge("b", rng.gen_range(0..n), rng.gen_range(0..n));
        }
        let via_fixpoint = has_cycle_via_fixpoint(&s);
        let via_emso = emso_check(&s, &["w"], &selprop_mgs::logic::cyclic_sigma());
        let mut p = cycle_boolean.clone();
        let (db, _) = s.to_database(&mut p.symbols);
        let (ans, _) = selprop_datalog::eval::answer(
            &p,
            &db,
            selprop_datalog::eval::Strategy::SemiNaive,
        );
        let via_datalog = !ans.is_empty();
        assert_eq!(via_fixpoint, via_emso, "fixpoint vs EMSO on {s:?}");
        assert_eq!(via_fixpoint, via_datalog, "fixpoint vs CYCLE on {s:?}");
    }
}

#[test]
fn magic_equals_quotient_reachability_on_random_graphs() {
    let chain = ChainProgram::parse(
        "?- p(c, Y).\n\
         p(X, Y) :- b1(X, X1), b2(X1, Y).\n\
         p(X, Y) :- b1(X, X1), p(X1, Y1), b2(Y1, Y).",
    )
    .unwrap();
    let al = chain.grammar().alphabet;
    let mut al2 = al;
    let b1_star = Regex::parse("b1*", &mut al2).unwrap().to_dfa(&al2);
    for seed in 0..5u64 {
        let mut c = chain.clone();
        let db = workload::random_labeled_digraph(
            &mut c.program,
            &["b1", "b2"],
            "c",
            14,
            35,
            seed,
        );
        let (marked, reachable) =
            magic_chain::magic_extension_vs_language(&c, &db, &b1_star).unwrap();
        assert_eq!(marked, reachable, "seed {seed}");
    }
}
