//! Integration tests for Theorem 3.3 — both directions, across crates.
//!
//! The "if" direction is tested constructively: the engine's rewrites are
//! validated for finite-query equivalence against the original program on
//! randomized databases and on IG truncations. The "only if" direction is
//! tested through its machinery: the Lemma 5.1 encoding (WS1S) certifies
//! that every monadic program the engine emits defines a regular
//! language, and the diagonal case's pumping certificates are checked
//! against CYK membership.

use selprop_automata::equiv::equivalent as dfa_equivalent;
use selprop_core::chain::ChainProgram;
use selprop_core::propagate::{propagate, Propagation};
use selprop_core::workload;
use selprop_datalog::db::Database;
use selprop_datalog::eval::{answer, Strategy};
use selprop_grammar::cnf::CnfGrammar;
use selprop_ws1s::encode::{encode_monadic_program, extract_language};

/// Evaluates a program on a database built over its own symbol space and
/// returns answers as name vectors.
fn run(program: &selprop_datalog::Program, db: &Database) -> Vec<Vec<String>> {
    let (ans, _) = answer(program, db, Strategy::SemiNaive);
    let mut v: Vec<Vec<String>> = ans
        .iter()
        .map(|t| {
            t.iter()
                .map(|&c| program.symbols.const_name(c).to_owned())
                .collect()
        })
        .collect();
    v.sort();
    v
}

fn equivalent_on_random_dbs(chain: &ChainProgram, rewrite: &selprop_datalog::Program) {
    let edbs: Vec<String> = chain
        .edbs()
        .iter()
        .map(|&p| chain.program.symbols.pred_name(p).to_owned())
        .collect();
    let edb_refs: Vec<&str> = edbs.iter().map(String::as_str).collect();
    for seed in 0..6u64 {
        let mut p1 = chain.program.clone();
        let db1 = workload::random_labeled_digraph(&mut p1, &edb_refs, "c", 12, 30, seed);
        let mut p2 = rewrite.clone();
        let db2 = workload::random_labeled_digraph(&mut p2, &edb_refs, "c", 12, 30, seed);
        assert_eq!(
            run(&p1, &db1),
            run(&p2, &db2),
            "rewrite differs from original on seed {seed}"
        );
    }
}

const REGULAR_GALLERY: [&str; 4] = [
    // Program A, goal p(c, Y)
    "?- anc(c, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), par(Z, Y).",
    // Program B, goal p(X, c)
    "?- anc(X, c).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- par(X, Z), anc(Z, Y).",
    // two-EDB regular, goal p(c, Y): L = b1 b2*
    "?- p(c, Y).\np(X, Y) :- b1(X, Y).\np(X, Y) :- p(X, Z), b2(Z, Y).",
    // boolean goal p(c, d): L = b1 b2+ (left-linear-ish)
    "?- p(c, d).\np(X, Y) :- b1(X, X1), b2(X1, Y).\np(X, Y) :- p(X, Z), b2(Z, Y).",
];

#[test]
fn if_direction_rewrites_are_equivalent() {
    for src in REGULAR_GALLERY {
        let chain = ChainProgram::parse(src).unwrap();
        let Propagation::Propagated { program, .. } = propagate(&chain).unwrap() else {
            panic!("gallery program should propagate: {src}");
        };
        assert!(program.is_monadic(), "rewrite must be monadic");
        equivalent_on_random_dbs(&chain, &program);
    }
}

#[test]
fn only_if_machinery_rewrites_define_l_h() {
    // For goal p(c, Y) rewrites: feed them to the Lemma 5.1 encoder; the
    // extracted regular language must equal L(H) (checked against the
    // grammar's own exact compilation).
    let sources = [
        "?- anc(c, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), par(Z, Y).",
        "?- p(c, Y).\np(X, Y) :- b1(X, Y).\np(X, Y) :- p(X, Z), b2(Z, Y).",
    ];
    for src in sources {
        let chain = ChainProgram::parse(src).unwrap();
        let Propagation::Propagated {
            program,
            certificate,
        } = propagate(&chain).unwrap()
        else {
            panic!("should propagate");
        };
        let origin = match &chain.goal_form {
            selprop_core::chain::GoalForm::BoundFirst(c) => c.clone(),
            _ => unreachable!(),
        };
        let enc = encode_monadic_program(&program, &origin).expect("rewrite encodes");
        let lang = extract_language(&enc);
        let expected = certificate.dfa(&chain);
        // alphabets may order EDBs identically (both derive from the
        // program's EDB order), so direct equivalence applies
        assert!(
            dfa_equivalent(&lang, &expected),
            "WS1S language of the rewrite differs from L(H) for {src}"
        );
    }
}

#[test]
fn diagonal_decision_is_exact_on_gallery() {
    let finite = [
        "?- p(X, X).\np(X, Y) :- b(X, Y).",
        "?- p(X, X).\np(X, Y) :- b(X, Y).\np(X, Y) :- b(X, Z), b(Z, Y).",
        "?- p(X, X).\np(X, Y) :- b1(X, Z), b2(Z, Y).\np(X, Y) :- b2(X, Y).",
    ];
    for src in finite {
        let chain = ChainProgram::parse(src).unwrap();
        assert!(
            propagate(&chain).unwrap().is_propagated(),
            "finite L(H) must propagate: {src}"
        );
    }
    let infinite = [
        "?- p(X, X).\np(X, Y) :- b(X, Y).\np(X, Y) :- p(X, Z), b(Z, Y).",
        "?- p(X, X).\np(X, Y) :- b1(X, X1), b2(X1, Y).\np(X, Y) :- b1(X, X1), p(X1, X2), b2(X2, Y).",
        "?- p(X, X).\np(X, Y) :- b(X, Y).\np(X, Y) :- p(X, Z), p(Z, Y).",
    ];
    for src in infinite {
        let chain = ChainProgram::parse(src).unwrap();
        match propagate(&chain).unwrap() {
            Propagation::Impossible { pump } => {
                let cnf = CnfGrammar::from_cfg(&chain.grammar());
                for i in 0..4 {
                    assert!(cnf.accepts(&pump.word(i)), "bad pump witness for {src}");
                }
            }
            other => panic!("infinite L(H) must be Impossible for {src}, got {other:?}"),
        }
    }
}

#[test]
fn diagonal_rewrite_equivalence_on_cycle_unions() {
    let chain = ChainProgram::parse(
        "?- p(X, X).\n\
         p(X, Y) :- b(X, Y).\n\
         p(X, Y) :- b(X, Z1), b(Z1, Z2), b(Z2, Y).",
    )
    .unwrap();
    let Propagation::Propagated { program, .. } = propagate(&chain).unwrap() else {
        panic!("finite L");
    };
    // L = {b, b^3}: on unions of cycles the diagonal answers are the
    // nodes on cycles of length dividing 1 or 3 — i.e. self-loops and
    // 3-cycles (and 1-cycles count for both).
    for lengths in [vec![1usize, 3], vec![2, 3, 4], vec![5], vec![1, 2, 6]] {
        let mut p1 = chain.program.clone();
        let db1 = workload::cycles(&mut p1, "b", &lengths);
        let mut p2 = program.clone();
        let db2 = workload::cycles(&mut p2, "b", &lengths);
        assert_eq!(run(&p1, &db1), run(&p2, &db2), "cycles {lengths:?}");
    }
}

#[test]
fn rewrites_validate_on_ig_truncations() {
    // Prop 3.1 as a rewrite test bench: original and rewrite agree on IG_n.
    use selprop_core::inf_model::h_of_ig;
    let chain = ChainProgram::parse(
        "?- p(c, Y).\np(X, Y) :- b1(X, Y).\np(X, Y) :- p(X, Z), b2(Z, Y).",
    )
    .unwrap();
    let Propagation::Propagated { program, .. } = propagate(&chain).unwrap() else {
        panic!("regular L");
    };
    let rewrite_chain_view = ChainProgram {
        program: program.clone(),
        goal_form: chain.goal_form.clone(),
    };
    // h_of_ig needs a chain-shaped goal only for the origin name; build
    // truncations manually for the rewrite by sharing the EDB alphabet:
    let from_h = h_of_ig(&chain, 5);
    // evaluate the rewrite on the same truncation
    let (chain2, trunc) = selprop_core::inf_model::ig_truncation(&chain, 5);
    let mut p2 = program;
    // copy facts into the rewrite's symbol space by name
    let mut db2 = Database::new();
    for (pred, rel) in trunc.db.iter() {
        let name = chain2.program.symbols.pred_name(pred).to_owned();
        let p = p2.symbols.predicate(&name);
        for t in rel.iter() {
            let named: Vec<_> = t
                .iter()
                .map(|&c| {
                    let n = chain2.program.symbols.const_name(c).to_owned();
                    p2.symbols.constant(&n)
                })
                .collect();
            db2.insert(p, named);
        }
    }
    let (ans2, _) = answer(&p2, &db2, Strategy::SemiNaive);
    // compare answer node label-sets
    let mut names2: Vec<String> = ans2
        .iter()
        .map(|t| p2.symbols.const_name(t[0]).to_owned())
        .collect();
    names2.sort();
    let al = chain.grammar().alphabet;
    let mut names1: Vec<String> = from_h
        .iter()
        .map(|w| {
            let mut s = String::from("n");
            for &sym in w {
                s.push('_');
                s.push_str(al.name(sym));
            }
            s
        })
        .collect();
    names1.sort();
    assert_eq!(names1, names2, "rewrite disagrees with H on IG_5");
    let _ = rewrite_chain_view;
}

/// One program's text and symbol counts, the form the golden test pins.
fn pinned(program: &selprop_datalog::Program) -> String {
    format!(
        "{}[{} predicates, {} variables]\n",
        program.render(),
        program.symbols.num_predicates(),
        program.symbols.num_variables()
    )
}

/// Golden text of every program and database `selprop-core` constructs:
/// the monadic rewrite for each constant goal form and for the empty
/// language, the diagonal tableaux (also for no words), the FO form of a
/// bounded program, the envelope-guarded program and `IG_3`. A change to
/// a construction's rules, their order, names or interned symbols shows
/// here.
#[test]
fn constructions_are_pinned() {
    use selprop_automata::dfa::Dfa;
    use selprop_automata::minimize::minimize;
    use selprop_automata::Nfa;
    use selprop_core::bounded::{boundedness, Boundedness};
    use selprop_core::gallery::gallery;
    use selprop_core::inf_model::ig_truncation;
    use selprop_core::magic_chain::envelope_guarded_program;
    use selprop_core::rewrite::{monadic_rewrite, tableaux_rewrite};
    use selprop_grammar::regular::approximate;

    let source = |name: &str| {
        let entry = gallery().into_iter().find(|e| e.name == name);
        entry.expect("gallery entry").source
    };
    let entry = |name: &str| ChainProgram::parse(source(name)).unwrap();
    let mut out = String::new();
    for goal in ["anc(john, Y)", "anc(X, john)", "anc(john, mary)"] {
        let text = source("program_a").replacen("anc(john, Y)", goal, 1);
        let chain = ChainProgram::parse(&text).unwrap();
        let dfa = minimize(&approximate(&chain.grammar()).dfa());
        out += &pinned(&monadic_rewrite(&chain, &dfa).unwrap());
    }
    let b1_b2star = entry("b1_b2star");
    let empty = Dfa::from_nfa(&Nfa::empty(b1_b2star.grammar().alphabet));
    out += &pinned(&monadic_rewrite(&b1_b2star, &empty).unwrap());
    let finite_diagonal = entry("finite_diagonal");
    let words = finite_diagonal.language_words(4);
    out += &pinned(&tableaux_rewrite(&finite_diagonal, &words).unwrap());
    out += &pinned(&tableaux_rewrite(&finite_diagonal, &[]).unwrap());
    let Boundedness::Bounded { fo_program, .. } = boundedness(&entry("finite_two_words")) else {
        panic!("a finite language is bounded");
    };
    out += &pinned(&fo_program);
    out += &pinned(&envelope_guarded_program(&entry("balanced")).unwrap());
    let (chain, trunc) = ig_truncation(&b1_b2star, 3);
    let names = &chain.program.symbols;
    let alphabet = b1_b2star.grammar().alphabet;
    for (c, word) in &trunc.nodes {
        out += &format!("{} = [{}]\n", names.const_name(*c), alphabet.render_word(word));
    }
    let mut facts: Vec<String> = trunc
        .db
        .iter()
        .flat_map(|(pred, rel)| {
            rel.iter().map(move |t| {
                format!(
                    "{}({}, {})",
                    names.pred_name(pred),
                    names.const_name(t[0]),
                    names.const_name(t[1])
                )
            })
        })
        .collect();
    facts.sort();
    out += &facts.join("\n");
    assert_eq!(out, GOLDEN);
}

const GOLDEN: &str = r"?- ans(Y_0).
n0(john).
n1(Y_0) :- n0(Z_0), par(Z_0, Y_0).
n1(Y_0) :- n1(Z_0), par(Z_0, Y_0).
ans(Y_0) :- n1(Y_0).
[5 predicates, 5 variables]
?- ans(Y_0).
n0(john).
n1(Y_0) :- n0(Z_0), par(Y_0, Z_0).
n1(Y_0) :- n1(Z_0), par(Y_0, Z_0).
ans(Y_0) :- n1(Y_0).
[5 predicates, 5 variables]
?- ans.
n0(john).
n1(Y_0) :- n0(Z_0), par(Z_0, Y_0).
n1(Y_0) :- n1(Z_0), par(Z_0, Y_0).
ans :- n1(mary).
[5 predicates, 5 variables]
?- ans(Y_0).
never(X0) :- never(X0).
ans(X0) :- never(X0).
[5 predicates, 6 variables]
?- ans(X_0).
ans(X_0) :- b(X_0, X_0).
ans(X_0) :- b(X_0, Z0), b(Z0, Z1_0), b(Z1_0, X_0).
[3 predicates, 7 variables]
?- ans(X_0).
never(X_0) :- never(X_0).
ans(X_0) :- never(X_0).
[4 predicates, 5 variables]
?- p_fo(c, Y).
p_fo(X_0, Y_0) :- b1(X_0, Y_0).
p_fo(X_0, Y_0) :- b1(X_0, Z0), b2(Z0, Y_0).
[4 predicates, 6 variables]
?- p(c, Y).
useful0(c).
useful1(Gy) :- useful0(Gz), b1(Gz, Gy).
useful1(Gy) :- useful1(Gz), b1(Gz, Gy).
useful3(Gy) :- useful1(Gz), b2(Gz, Gy).
useful3(Gy) :- useful3(Gz), b2(Gz, Gy).
useful(Gy) :- useful0(Gy).
useful(Gy) :- useful1(Gy).
useful(Gy) :- useful3(Gy).
p(X, Y) :- useful(X), b1(X, X1), b2(X1, Y).
p(X, Y) :- useful(X), b1(X, X1), p(X1, X2), b2(X2, Y).
[7 predicates, 6 variables]
c = [ε]
n_b1 = [b1]
n_b2 = [b2]
n_b1_b1 = [b1 b1]
n_b1_b2 = [b1 b2]
n_b2_b1 = [b2 b1]
n_b2_b2 = [b2 b2]
n_b1_b1_b1 = [b1 b1 b1]
n_b1_b1_b2 = [b1 b1 b2]
n_b1_b2_b1 = [b1 b2 b1]
n_b1_b2_b2 = [b1 b2 b2]
n_b2_b1_b1 = [b2 b1 b1]
n_b2_b1_b2 = [b2 b1 b2]
n_b2_b2_b1 = [b2 b2 b1]
n_b2_b2_b2 = [b2 b2 b2]
b1(c, n_b1)
b1(n_b1, n_b1_b1)
b1(n_b1_b1, n_b1_b1_b1)
b1(n_b1_b2, n_b1_b2_b1)
b1(n_b2, n_b2_b1)
b1(n_b2_b1, n_b2_b1_b1)
b1(n_b2_b2, n_b2_b2_b1)
b2(c, n_b2)
b2(n_b1, n_b1_b2)
b2(n_b1_b1, n_b1_b1_b2)
b2(n_b1_b2, n_b1_b2_b2)
b2(n_b2, n_b2_b2)
b2(n_b2_b1, n_b2_b1_b2)
b2(n_b2_b2, n_b2_b2_b2)";
