//! Containment and equivalence of chain programs (Proposition 8.1 and
//! the surrounding discussion).
//!
//! Shmueli (ref.\[25\]) showed finite-query containment of chain programs
//! undecidable by reduction from CFL containment; Prop. 8.1 sharpens this
//! to **uniform** chain programs via Blattner's sentential-form theorem.
//! This module implements:
//!
//! - the uniformity check and the uniformizing transformation,
//! - containment/equivalence testing with the decidable fragments done
//!   exactly (both languages finite; both grammars compiling exactly to
//!   DFAs) and a bounded refutation search elsewhere — `Unknown` marks
//!   the undecidable region, as in the propagation engine,
//! - the sentential-form reduction objects (for the record and the
//!   experiments).

use selprop_automata::equiv;
use selprop_automata::minimize::minimize;
use selprop_grammar::analysis::{finiteness, words_up_to, Finiteness};
use selprop_grammar::cfg::Cfg;
use selprop_grammar::cnf::CnfGrammar;
use selprop_grammar::regular::approximate;

use crate::chain::ChainProgram;

/// Outcome of a containment test `L(H1) ⊆ L(H2)` (which, for chain
/// programs with matching goals, coincides with finite query containment
/// — the claim of ref.\[25\] our Section 3 machinery relies on).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Containment {
    /// Containment holds (with a decidable certificate).
    Contained,
    /// A counterexample word in `L(H1) \ L(H2)`.
    NotContained(Vec<selprop_automata::Symbol>),
    /// Undecidable region: no counterexample up to the search bound, but
    /// no certificate either.
    Unknown,
}

/// Tests `L(H1) ⊆ L(H2)`; both programs must share their EDB alphabet
/// (same names, same order).
pub fn contained(h1: &ChainProgram, h2: &ChainProgram, search_len: usize) -> Containment {
    let g1 = h1.grammar();
    let g2 = h2.grammar();
    assert_eq!(
        g1.alphabet, g2.alphabet,
        "containment requires a shared EDB alphabet"
    );
    cfg_contained(&g1, &g2, search_len)
}

/// Equivalence via two containments.
pub fn equivalent(h1: &ChainProgram, h2: &ChainProgram, search_len: usize) -> Containment {
    match contained(h1, h2, search_len) {
        Containment::Contained => contained(h2, h1, search_len),
        other => other,
    }
}

/// Tests `L(G1) ⊆ L(G2)` over a shared alphabet: the decidable
/// fragments exactly, then a bounded refutation search, then the one
/// one-sided certificate; `Unknown` if none decides.
fn cfg_contained(g1: &Cfg, g2: &Cfg, search_len: usize) -> Containment {
    // decidable: L1 finite — check each word
    if let Finiteness::Finite(words) = finiteness(g1) {
        let cnf2 = CnfGrammar::from_cfg(g2);
        return match words.into_iter().find(|w| !cnf2.accepts(w)) {
            None => Containment::Contained,
            Some(w) => Containment::NotContained(w),
        };
    }
    // decidable: both compile exactly to DFAs
    let a1 = approximate(g1);
    let a2 = approximate(g2);
    if a1.exact && a2.exact {
        let d1 = minimize(&a1.dfa());
        let d2 = minimize(&a2.dfa());
        // inclusion via difference emptiness, with a shortest witness
        return match d1.difference(&d2).find_accepted_word() {
            None => Containment::Contained,
            Some(w) => Containment::NotContained(w),
        };
    }
    // sound refutation: L1-words up to the bound not in L2
    let cnf2 = CnfGrammar::from_cfg(g2);
    if let Some(w) = words_up_to(g1, search_len).into_iter().find(|w| !cnf2.accepts(w)) {
        return Containment::NotContained(w);
    }
    // one-sided decidable case: envelope of g1 inside an exact g2
    // (L1 ⊆ R(G1) ⊆ L2)
    if a2.exact && equiv::included(&minimize(&a1.dfa()), &minimize(&a2.dfa())) {
        return Containment::Contained;
    }
    Containment::Unknown
}

/// The Prop. 8.1 reduction object: containment of **uniform** chain
/// programs is interreducible with containment of *sentential-form
/// languages* (Blattner's undecidable problem). This helper builds both
/// sentential-form grammars over a shared extended alphabet and applies
/// the same decidable-fragments-then-bounded-search discipline as
/// [`contained`]. For uniform programs a discrepancy between sentential
/// forms is witnessed by an actual database (substitute the dedicated
/// EDBs), so a `NotContained` here refutes program containment.
pub fn sentential_contained(
    h1: &ChainProgram,
    h2: &ChainProgram,
    search_len: usize,
) -> Containment {
    use selprop_grammar::sentential::sentential_forms;
    let s1 = sentential_forms(&h1.grammar());
    let s2 = sentential_forms(&h2.grammar());
    assert_eq!(
        s1.alphabet, s2.alphabet,
        "sentential comparison requires equal EDBs and equally named IDBs"
    );
    cfg_contained(&s1, &s2, search_len)
}

/// Whether the chain program is **uniform**: every IDB `p` has a
/// dedicated EDB `b_p` appearing in exactly one rule, `p(X, Y) :-
/// b_p(X, Y)`, and nowhere else.
pub fn is_uniform(chain: &ChainProgram) -> bool {
    let idbs = chain.program.idb_predicates();
    for &p in &idbs {
        // find candidate dedicated EDBs: bodies of unit rules for p
        let unit_edbs: Vec<_> = chain
            .program
            .rules
            .iter()
            .filter(|r| r.head.pred == p && r.body.len() == 1)
            .map(|r| r.body[0].pred)
            .filter(|q| !idbs.contains(q))
            .collect();
        let dedicated = unit_edbs.iter().find(|&&b| {
            // b appears in exactly one rule overall
            chain
                .program
                .rules
                .iter()
                .flat_map(|r| r.body.iter())
                .filter(|a| a.pred == b)
                .count()
                == 1
        });
        if dedicated.is_none() {
            return false;
        }
    }
    true
}

/// Uniformizes a chain program: adds a fresh dedicated EDB `u_p` and the
/// rule `p(X, Y) :- u_p(X, Y)` for every IDB lacking one. The result is
/// uniform and its language is the original's with the new terminals
/// adjoined (the Prop. 8.1 reduction shape).
pub fn uniformize(chain: &ChainProgram) -> ChainProgram {
    let mut program = chain.program.clone();
    let idbs = program.idb_predicates();
    let x = program.symbols.fresh_variable("Ux");
    let y = program.symbols.fresh_variable("Uy");
    for &p in &idbs {
        let name = format!("u_{}", program.symbols.pred_name(p));
        let b = program.symbols.fresh_predicate(&name);
        program.rules.push(selprop_datalog::ast::Rule::new(
            selprop_datalog::ast::Atom::new(
                p,
                vec![
                    selprop_datalog::ast::Term::Var(x),
                    selprop_datalog::ast::Term::Var(y),
                ],
            ),
            vec![selprop_datalog::ast::Atom::new(
                b,
                vec![
                    selprop_datalog::ast::Term::Var(x),
                    selprop_datalog::ast::Term::Var(y),
                ],
            )],
        ));
    }
    ChainProgram::from_program(program).expect("uniformization preserves chain form")
}

/// Empirical cross-check of a containment verdict on concrete data:
/// interns the same `(edb, from, to)` edges into both programs'
/// symbol spaces, evaluates both queries semi-naively, and returns a
/// counterexample answer of `H1` missing from `H2`'s answers (as
/// constant-name tuples), or `None` if the answer sets nest.
///
/// For chain programs with the same goal form, `L(H1) ⊆ L(H2)` implies
/// answer containment on every database, so a counterexample here
/// refutes language containment outright — a cheap sanity layer over
/// the symbolic [`contained`] now that evaluation runs on the columnar
/// engine.
pub fn empirical_counterexample(
    h1: &ChainProgram,
    h2: &ChainProgram,
    edges: &[(&str, &str, &str)],
) -> Option<Vec<String>> {
    use selprop_datalog::eval::{answer, Strategy};
    let run = |chain: &ChainProgram| -> Vec<Vec<String>> {
        let mut p = chain.program.clone();
        let mut db = selprop_datalog::Database::new();
        for &(edb, u, v) in edges {
            let pred = p.symbols.predicate(edb);
            let cu = p.symbols.constant(u);
            let cv = p.symbols.constant(v);
            db.insert(pred, vec![cu, cv]);
        }
        let (ans, _) = answer(&p, &db, Strategy::SemiNaive);
        ans.iter()
            .map(|t| t.iter().map(|&c| p.symbols.const_name(c).to_owned()).collect())
            .collect()
    };
    let sup: std::collections::HashSet<Vec<String>> = run(h2).into_iter().collect();
    run(h1).into_iter().find(|t| !sup.contains(t))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ChainProgram {
        ChainProgram::parse(src).unwrap()
    }

    #[test]
    fn equivalent_regular_programs() {
        // Programs A and B of Example 1.1: both define par+.
        let a = parse(
            "?- anc(c, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), par(Z, Y).",
        );
        let b = parse(
            "?- anc(c, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- par(X, Z), anc(Z, Y).",
        );
        assert_eq!(equivalent(&a, &b, 6), Containment::Contained);
    }

    #[test]
    fn strict_containment_detected() {
        let small = parse("?- p(c, Y).\np(X, Y) :- par(X, Y).");
        let big = parse(
            "?- anc(c, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), par(Z, Y).",
        );
        assert_eq!(contained(&small, &big, 6), Containment::Contained);
        match contained(&big, &small, 6) {
            Containment::NotContained(w) => assert_eq!(w.len(), 2),
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn empirical_counterexample_matches_symbolic_verdict() {
        let small = parse("?- p(c, Y).\np(X, Y) :- par(X, Y).");
        let big = parse(
            "?- anc(c, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), par(Z, Y).",
        );
        let edges = [("par", "c", "a"), ("par", "a", "b"), ("par", "b", "d")];
        // small ⊆ big: no empirical counterexample either
        assert_eq!(empirical_counterexample(&small, &big, &edges), None);
        // big ⊄ small: anc(c, b) is a two-step answer small cannot produce
        let cex = empirical_counterexample(&big, &small, &edges).expect("refutation");
        assert!(cex == vec!["b".to_owned()] || cex == vec!["d".to_owned()]);
    }

    #[test]
    fn nonregular_vs_envelope() {
        // b1^n b2^n ⊆ b1+ b2+ — decidable one-sidedly via the envelope.
        let balanced = parse(
            "?- p(c, Y).\n\
             p(X, Y) :- b1(X, X1), b2(X1, Y).\n\
             p(X, Y) :- b1(X, X1), p(X1, X2), b2(X2, Y).",
        );
        let upper = parse(
            "?- q(c, Y).\n\
             q(X, Y) :- b1(X, X1), r(X1, Y).\n\
             q(X, Y) :- b1(X, X1), q(X1, Y).\n\
             r(X, Y) :- b2(X, Y).\n\
             r(X, Y) :- b2(X, X1), r(X1, Y).",
        );
        // note: alphabets must match (b1, b2 in the same order)
        assert_eq!(contained(&balanced, &upper, 8), Containment::Contained);
        // converse fails with a small witness (b1 b2 b2 ∈ upper \ balanced)
        match contained(&upper, &balanced, 8) {
            Containment::NotContained(w) => assert!(w.len() <= 3),
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn nonlinear_same_language_unknown_or_contained() {
        // Program C vs Program A: equivalent languages (par+), but C's
        // grammar is not exactly compilable — the honest outcome is
        // either Contained (via the envelope arm) or Unknown, never
        // NotContained.
        let a = parse(
            "?- anc(c, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), par(Z, Y).",
        );
        let c = parse(
            "?- anc(c, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), anc(Z, Y).",
        );
        assert_ne!(
            contained(&c, &a, 8),
            Containment::NotContained(vec![]),
            "placeholder shape check"
        );
        match contained(&c, &a, 8) {
            Containment::Contained | Containment::Unknown => {}
            Containment::NotContained(w) => {
                panic!("false counterexample {w:?} for equivalent programs")
            }
        }
        // A ⊆ C decidable? A exact, C not: refutation search + envelope —
        // here a1 exact but a2 (C) not exact, so Unknown is acceptable;
        // NotContained would be wrong.
        if let Containment::NotContained(w) = contained(&a, &c, 8) {
            panic!("false counterexample {w:?} for equivalent programs")
        }
    }

    #[test]
    fn uniformity() {
        let u = parse(
            "?- p(c, Y).\n\
             p(X, Y) :- bp(X, Y).\n\
             p(X, Y) :- p(X, Z), par(Z, Y).",
        );
        assert!(is_uniform(&u));
        let not_u = parse(
            "?- p(c, Y).\n\
             p(X, Y) :- par(X, Y).\n\
             p(X, Y) :- p(X, Z), par(Z, Y).",
        );
        assert!(!is_uniform(&not_u)); // par appears in two rules
        let made = uniformize(&not_u);
        assert!(is_uniform(&made));
        // uniformization adds exactly one rule per IDB
        assert_eq!(made.program.rules.len(), not_u.program.rules.len() + 1);
    }

    #[test]
    fn sentential_forms_distinguish_rule_shapes() {
        // Programs A and B define the same language par+, but their
        // *sentential forms* differ: A derives "@anc par", B derives
        // "par @anc" — exactly why Prop 8.1's reduction needs
        // uniformity/sentential forms rather than plain languages.
        let a = parse(
            "?- anc(c, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), par(Z, Y).",
        );
        let b = parse(
            "?- anc(c, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- par(X, Z), anc(Z, Y).",
        );
        // plain language containment holds both ways...
        assert_eq!(equivalent(&a, &b, 6), Containment::Contained);
        // ...but sentential-form containment fails in both directions
        match sentential_contained(&a, &b, 5) {
            Containment::NotContained(_) => {}
            other => panic!("A's forms ⊄ B's forms, got {other:?}"),
        }
        match sentential_contained(&b, &a, 5) {
            Containment::NotContained(_) => {}
            other => panic!("B's forms ⊄ A's forms, got {other:?}"),
        }
        // and reflexively it holds
        assert_ne!(
            sentential_contained(&a, &a, 5),
            Containment::Unknown,
            "self-containment should be certified or at least not refuted"
        );
        match sentential_contained(&a, &a, 5) {
            Containment::Contained => {}
            other => panic!("self containment, got {other:?}"),
        }
    }

    #[test]
    fn finite_cases_fully_decidable() {
        let f1 = parse("?- p(c, Y).\np(X, Y) :- a(X, Y).\np(X, Y) :- a(X, Z), b(Z, Y).");
        let f2 = parse(
            "?- q(c, Y).\nq(X, Y) :- a(X, Y).\nq(X, Y) :- a(X, Z), b(Z, Y).\nq(X, Y) :- b(X, Y).",
        );
        assert_eq!(contained(&f1, &f2, 4), Containment::Contained);
        match contained(&f2, &f1, 4) {
            Containment::NotContained(w) => assert_eq!(w.len(), 1),
            other => panic!("expected counterexample, got {other:?}"),
        }
    }
}
