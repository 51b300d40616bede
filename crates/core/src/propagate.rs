//! The selection-propagation engine — Theorem 3.3 and Corollary 3.4 as an
//! API.
//!
//! Theorem 3.3: selection with a constant propagates **iff `L(H)` is
//! regular** (undecidable); selection `p(X, X)` propagates **iff `L(H)`
//! is finite** (decidable). The engine therefore returns a *trichotomy*
//! for constant goals — `Propagated` with a machine-checkable regularity
//! certificate, `Impossible` with a finiteness/pumping certificate where
//! applicable, or `Unknown` with the evidence gathered — and a genuine
//! decision for diagonal goals. `Unknown` is not a weakness of the
//! implementation: Corollary 3.4 proves no complete procedure can exist.

use selprop_automata::dfa::Dfa;
use selprop_automata::minimize::minimize;
use selprop_automata::Symbol;
use selprop_datalog::ast::Program;
use selprop_grammar::analysis::{finiteness, Finiteness, PumpWitness};
use selprop_grammar::cnf::CnfGrammar;
use selprop_grammar::regular::{approximate, is_strongly_regular};
use selprop_grammar::self_embedding::{self_embedding, SelfEmbedding};

use crate::chain::{ChainProgram, GoalForm};
use crate::rewrite::{monadic_rewrite, tableaux_rewrite};

/// How regularity of `L(H)` was established.
#[derive(Clone, Debug)]
pub enum RegularityCertificate {
    /// `L(H)` is finite (finite ⇒ regular); the words are listed.
    FiniteLanguage(Vec<Vec<Symbol>>),
    /// `G(H)` is strongly regular (every SCC purely left- or
    /// right-linear), so the Mohri–Nederhof compilation is exact.
    StronglyRegular(Dfa),
    /// `G(H)` is not self-embedding; by Chomsky's theorem `L(H)` is
    /// regular and the compilation is exact.
    NonSelfEmbedding(Dfa),
    /// The EDB alphabet is unary: every one-letter CFL is regular
    /// (Parikh), and the ultimately periodic length set was computed
    /// exactly (`selprop_grammar::unary`). Covers the paper's Program C,
    /// whose mixed self-embedding grammar hides the regular `par⁺`.
    UnaryPeriodic(Dfa),
}

impl RegularityCertificate {
    /// The DFA recognizing `L(H)` under this certificate.
    pub fn dfa(&self, chain: &ChainProgram) -> Dfa {
        match self {
            RegularityCertificate::FiniteLanguage(words) => {
                let grammar = chain.grammar();
                let mut nfa = selprop_automata::Nfa::empty(grammar.alphabet.clone());
                for w in words {
                    nfa = nfa.union(&selprop_automata::Nfa::from_word(
                        grammar.alphabet.clone(),
                        w,
                    ));
                }
                minimize(&Dfa::from_nfa(&nfa))
            }
            RegularityCertificate::StronglyRegular(d)
            | RegularityCertificate::NonSelfEmbedding(d)
            | RegularityCertificate::UnaryPeriodic(d) => d.clone(),
        }
    }

    /// A short human-readable label.
    pub fn describe(&self) -> String {
        match self {
            RegularityCertificate::FiniteLanguage(w) => {
                format!("finite language ({} words)", w.len())
            }
            RegularityCertificate::StronglyRegular(d) => {
                format!("strongly regular grammar (exact DFA, {} states)", d.num_states())
            }
            RegularityCertificate::NonSelfEmbedding(d) => format!(
                "non-self-embedding grammar (Chomsky ⇒ regular; exact DFA, {} states)",
                d.num_states()
            ),
            RegularityCertificate::UnaryPeriodic(d) => format!(
                "unary alphabet (Parikh ⇒ regular; periodic length set, DFA {} states)",
                d.num_states()
            ),
        }
    }
}

/// Evidence gathered when the engine cannot decide (the undecidable
/// region of Corollary 3.4).
#[derive(Clone, Debug)]
pub struct UndecidedEvidence {
    /// A self-embedding nonterminal of `G(H)` (why the decidable
    /// sufficient conditions did not fire).
    pub self_embedding_nonterminal: Option<String>,
    /// The Mohri–Nederhof envelope `R(H) ⊇ L(H)` (Section 7's fallback).
    pub envelope: Dfa,
    /// Lower bound on the size of any DFA for `L(H)`: a set of pairwise
    /// Myhill–Nerode-distinguishable prefixes found by sampling. A bound
    /// that keeps growing with the sampling budget is (non-conclusive)
    /// evidence of non-regularity.
    pub nerode_lower_bound: usize,
    /// All envelope words up to the sampled length were in `L(H)` — if
    /// `true`, the envelope looks exact on the sample (non-conclusive
    /// evidence of regularity).
    pub envelope_tight_on_sample: bool,
}

/// The outcome of selection propagation.
// Propagated carries a whole Program by value; the enum is built a
// handful of times per decision, so boxing (which would ripple through
// every caller's match) buys nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum Propagation {
    /// An equivalent monadic program exists and was constructed.
    Propagated {
        /// The monadic Datalog program.
        program: Program,
        /// How regularity (or finiteness) was established.
        certificate: RegularityCertificate,
    },
    /// No equivalent monadic program exists.
    Impossible {
        /// The pumping certificate showing `L(H)` infinite (diagonal
        /// goals; Theorem 3.3(2) "only if").
        pump: PumpWitness,
    },
    /// The engine could not decide (possible only for constant goals —
    /// Corollary 3.4).
    Unknown(Box<UndecidedEvidence>),
}

impl Propagation {
    /// Whether a monadic rewrite was produced.
    pub fn is_propagated(&self) -> bool {
        matches!(self, Propagation::Propagated { .. })
    }
}

/// Tuning knobs for the undecidable region's evidence gathering.
#[derive(Clone, Copy, Debug)]
pub struct PropagationBudget {
    /// Maximum prefix length sampled for the Nerode lower bound.
    pub nerode_max_len: usize,
    /// Maximum word length enumerated when comparing the envelope with
    /// `L(H)`.
    pub envelope_sample_len: usize,
}

impl Default for PropagationBudget {
    fn default() -> Self {
        Self {
            nerode_max_len: 6,
            envelope_sample_len: 10,
        }
    }
}

/// Runs the propagation decision for `chain` (see [`Propagation`]).
pub fn propagate(chain: &ChainProgram) -> Result<Propagation, String> {
    propagate_with(chain, PropagationBudget::default())
}

/// [`propagate`] with an explicit evidence budget.
pub fn propagate_with(
    chain: &ChainProgram,
    budget: PropagationBudget,
) -> Result<Propagation, String> {
    let grammar = chain.grammar();
    match &chain.goal_form {
        GoalForm::Free => Err("goal p(X, Y) carries no selection to propagate".to_owned()),
        GoalForm::Diagonal => {
            // Theorem 3.3(2): decidable both ways.
            match finiteness(&grammar) {
                Finiteness::Finite(words) => {
                    let program = tableaux_rewrite(chain, &words)?;
                    debug_assert!(program.is_monadic());
                    Ok(Propagation::Propagated {
                        program,
                        certificate: RegularityCertificate::FiniteLanguage(words),
                    })
                }
                Finiteness::Infinite(pump) => Ok(Propagation::Impossible { pump }),
            }
        }
        GoalForm::BoundFirst(_) | GoalForm::BoundSecond(_) | GoalForm::BoundBoth(_, _) => {
            // 1. finite ⇒ regular
            if let Finiteness::Finite(words) = finiteness(&grammar) {
                let certificate = RegularityCertificate::FiniteLanguage(words);
                let dfa = certificate.dfa(chain);
                let program = monadic_rewrite(chain, &dfa)?;
                debug_assert!(program.is_monadic());
                return Ok(Propagation::Propagated {
                    program,
                    certificate,
                });
            }
            // 2. strongly regular ⇒ exact compilation
            if is_strongly_regular(&grammar) {
                let dfa = minimize(&approximate(&grammar).dfa());
                let program = monadic_rewrite(chain, &dfa)?;
                return Ok(Propagation::Propagated {
                    program,
                    certificate: RegularityCertificate::StronglyRegular(dfa),
                });
            }
            // 3. non-self-embedding ⇒ regular (Chomsky). After cleaning,
            // NSE implies strongly regular, so this arm fires only in the
            // (rare) gap where cleaning exposed it; keep it for the
            // certificate's sake.
            let se = self_embedding(&grammar);
            if se.is_non_self_embedding() {
                let dfa = minimize(&approximate(&grammar).dfa());
                let program = monadic_rewrite(chain, &dfa)?;
                return Ok(Propagation::Propagated {
                    program,
                    certificate: RegularityCertificate::NonSelfEmbedding(dfa),
                });
            }
            // 4. unary alphabet ⇒ regular (Parikh), decidable within the
            // size cap of the periodic-length-set construction.
            if let Some(u) = selprop_grammar::unary::unary_regularity(&grammar) {
                let dfa = u.dfa;
                let program = monadic_rewrite(chain, &dfa)?;
                return Ok(Propagation::Propagated {
                    program,
                    certificate: RegularityCertificate::UnaryPeriodic(dfa),
                });
            }
            // 5. undecidable region: gather evidence.
            let envelope = minimize(&approximate(&grammar).dfa());
            let nerode = nerode_lower_bound(&grammar, budget.nerode_max_len);
            let cnf = CnfGrammar::from_cfg(&grammar);
            let envelope_tight_on_sample = envelope
                .words_up_to(budget.envelope_sample_len)
                .iter()
                .all(|w| cnf.accepts(w));
            let se_name = match se {
                SelfEmbedding::Yes { nonterminal } => Some(nonterminal),
                SelfEmbedding::No => None,
            };
            Ok(Propagation::Unknown(Box::new(UndecidedEvidence {
                self_embedding_nonterminal: se_name,
                envelope,
                nerode_lower_bound: nerode,
                envelope_tight_on_sample,
            })))
        }
    }
}

/// Counts pairwise Myhill–Nerode-distinguishable prefixes of `L(G)` found
/// by sampling prefixes and suffixes up to `max_len`: a lower bound on
/// the state count of any DFA for `L(G)`.
pub fn nerode_lower_bound(g: &selprop_grammar::Cfg, max_len: usize) -> usize {
    let cnf = CnfGrammar::from_cfg(g);
    // Candidate prefixes and probe suffixes: words in length-lexicographic
    // order, capped at 256. Generated breadth-first with an early stop so
    // the (exponential) full word set up to `max_len` is never
    // materialized — only the capped slice the signatures actually use.
    const CAP: usize = 256;
    let symbols: Vec<Symbol> = g.alphabet.symbols().collect();
    let mut all: Vec<Vec<Symbol>> = vec![vec![]];
    let mut level_start = 0;
    for _ in 0..max_len {
        if all.len() >= CAP {
            break;
        }
        let level_end = all.len();
        for wi in level_start..level_end {
            for &s in &symbols {
                let mut w2 = all[wi].clone();
                w2.push(s);
                all.push(w2);
                if all.len() >= CAP {
                    break;
                }
            }
            if all.len() >= CAP {
                break;
            }
        }
        level_start = level_end;
    }
    let prefixes: Vec<&Vec<Symbol>> = all.iter().take(CAP).collect();
    let suffixes: Vec<&Vec<Symbol>> = all.iter().take(CAP).collect();
    // signature of a prefix = acceptance vector over probe suffixes
    let mut signatures: Vec<Vec<bool>> = Vec::new();
    for p in &prefixes {
        let sig: Vec<bool> = suffixes
            .iter()
            .map(|s| {
                let mut w = (*p).clone();
                w.extend_from_slice(s);
                cnf.accepts(&w)
            })
            .collect();
        if !signatures.contains(&sig) {
            signatures.push(sig);
        }
    }
    signatures.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use selprop_datalog::db::Database;
    use selprop_datalog::eval::{answer, Strategy};

    fn check_equivalent(chain: &ChainProgram, rewrite: &Program, edges: &[(&str, &str, &str)]) {
        let run = |p: &Program| -> Vec<Vec<String>> {
            let mut p = p.clone();
            let mut db = Database::new();
            for &(b, u, v) in edges {
                let pred = p.symbols.predicate(b);
                let cu = p.symbols.constant(u);
                let cv = p.symbols.constant(v);
                db.insert(pred, vec![cu, cv]);
            }
            let (ans, _) = answer(&p, &db, Strategy::SemiNaive);
            let mut v: Vec<Vec<String>> = ans
                .iter()
                .map(|t| t.iter().map(|&c| p.symbols.const_name(c).to_owned()).collect())
                .collect();
            v.sort();
            v
        };
        assert_eq!(run(&chain.program), run(rewrite));
    }

    #[test]
    fn program_a_propagates() {
        let chain = ChainProgram::parse(
            "?- anc(john, Y).\n\
             anc(X, Y) :- par(X, Y).\n\
             anc(X, Y) :- anc(X, Z), par(Z, Y).",
        )
        .unwrap();
        match propagate(&chain).unwrap() {
            Propagation::Propagated {
                program,
                certificate,
            } => {
                assert!(program.is_monadic());
                assert!(matches!(
                    certificate,
                    RegularityCertificate::StronglyRegular(_)
                ));
                check_equivalent(
                    &chain,
                    &program,
                    &[
                        ("par", "john", "a"),
                        ("par", "a", "b"),
                        ("par", "q", "john"),
                        ("par", "u", "v"),
                    ],
                );
            }
            other => panic!("expected propagation, got {other:?}"),
        }
    }

    #[test]
    fn program_b_right_linear_propagates() {
        let chain = ChainProgram::parse(
            "?- anc(john, Y).\n\
             anc(X, Y) :- par(X, Y).\n\
             anc(X, Y) :- par(X, Z), anc(Z, Y).",
        )
        .unwrap();
        assert!(propagate(&chain).unwrap().is_propagated());
    }

    #[test]
    fn program_c_nonlinear_propagates_via_unary_arm() {
        // anc → par | anc anc: the grammar is self-embedding and mixed,
        // so the structural conditions do not fire — but the alphabet is
        // unary, so the Parikh arm decides: L = par+ is regular.
        let chain = ChainProgram::parse(
            "?- anc(john, Y).\n\
             anc(X, Y) :- par(X, Y).\n\
             anc(X, Y) :- anc(X, Z), anc(Z, Y).",
        )
        .unwrap();
        match propagate(&chain).unwrap() {
            Propagation::Propagated {
                program,
                certificate,
            } => {
                assert!(program.is_monadic());
                assert!(matches!(
                    certificate,
                    RegularityCertificate::UnaryPeriodic(_)
                ));
                // L = par+ → minimal DFA 2 live states (+ sink)
                let dfa = certificate.dfa(&chain);
                assert!(dfa.num_states() <= 3);
                check_equivalent(
                    &chain,
                    &program,
                    &[
                        ("par", "john", "a"),
                        ("par", "a", "b"),
                        ("par", "b", "c"),
                        ("par", "x", "john"),
                    ],
                );
            }
            other => panic!("expected UnaryPeriodic propagation, got {other:?}"),
        }
    }

    #[test]
    fn balanced_pairs_is_unknown_with_growing_nerode_bound() {
        let chain = ChainProgram::parse(
            "?- p(c, Y).\n\
             p(X, Y) :- b1(X, X1), b2(X1, Y).\n\
             p(X, Y) :- b1(X, X1), p(X1, X2), b2(X2, Y).",
        )
        .unwrap();
        match propagate_with(
            &chain,
            PropagationBudget {
                nerode_max_len: 7,
                envelope_sample_len: 8,
            },
        )
        .unwrap()
        {
            Propagation::Unknown(ev) => {
                // b1^n b2^n is not regular: the bound grows with budget
                // and the envelope (b1+ b2+) is visibly not tight.
                assert!(ev.nerode_lower_bound >= 6, "got {}", ev.nerode_lower_bound);
                assert!(!ev.envelope_tight_on_sample);
            }
            other => panic!("expected Unknown, got {other:?}"),
        }
    }

    #[test]
    fn diagonal_finite_propagates() {
        let chain = ChainProgram::parse(
            "?- p(X, X).\n\
             p(X, Y) :- b(X, Y).\n\
             p(X, Y) :- b(X, Z), b(Z, Y).",
        )
        .unwrap();
        match propagate(&chain).unwrap() {
            Propagation::Propagated {
                program,
                certificate,
            } => {
                assert!(program.is_monadic());
                assert!(matches!(
                    certificate,
                    RegularityCertificate::FiniteLanguage(_)
                ));
                check_equivalent(
                    &chain,
                    &program,
                    &[("b", "a", "a"), ("b", "u", "v"), ("b", "v", "u")],
                );
            }
            other => panic!("expected propagation, got {other:?}"),
        }
    }

    #[test]
    fn diagonal_infinite_is_impossible() {
        // Program CYCLE (Section 6): L = b+ infinite ⇒ impossible.
        let chain = ChainProgram::parse(
            "?- p(X, X).\n\
             p(X, Y) :- b(X, Y).\n\
             p(X, Y) :- p(X, Z), b(Z, Y).",
        )
        .unwrap();
        match propagate(&chain).unwrap() {
            Propagation::Impossible { pump } => {
                // pump words stay in L
                let cnf = CnfGrammar::from_cfg(&chain.grammar());
                for i in 0..4 {
                    assert!(cnf.accepts(&pump.word(i)));
                }
            }
            other => panic!("expected Impossible, got {other:?}"),
        }
    }

    #[test]
    fn free_goal_rejected() {
        let chain = ChainProgram::parse(
            "?- p(X, Y).\n\
             p(X, Y) :- b(X, Y).\n\
             p(X, Y) :- p(X, Z), b(Z, Y).",
        )
        .unwrap();
        assert!(propagate(&chain).is_err());
    }

    #[test]
    fn finite_language_with_constant_goal() {
        let chain = ChainProgram::parse(
            "?- p(c, Y).\n\
             p(X, Y) :- b1(X, Y).\n\
             p(X, Y) :- b1(X, Z), b2(Z, Y).",
        )
        .unwrap();
        match propagate(&chain).unwrap() {
            Propagation::Propagated {
                program,
                certificate,
            } => {
                assert!(matches!(
                    certificate,
                    RegularityCertificate::FiniteLanguage(ref w) if w.len() == 2
                ));
                check_equivalent(
                    &chain,
                    &program,
                    &[("b1", "c", "a"), ("b2", "a", "b"), ("b1", "b", "d")],
                );
            }
            other => panic!("expected propagation, got {other:?}"),
        }
    }

    #[test]
    fn nerode_bound_on_regular_language_is_bounded() {
        let g = selprop_grammar::Cfg::parse("anc -> par | anc par").unwrap();
        let b4 = nerode_lower_bound(&g, 4);
        let b6 = nerode_lower_bound(&g, 6);
        assert_eq!(b4, b6, "regular language: bound saturates");
        assert!(b4 <= 3);
    }

    #[test]
    fn nerode_bound_on_nonregular_language_grows() {
        let g = selprop_grammar::Cfg::parse("p -> b1 b2 | b1 p b2").unwrap();
        let b3 = nerode_lower_bound(&g, 3);
        let b6 = nerode_lower_bound(&g, 6);
        assert!(b6 > b3, "b1^n b2^n: bound must grow ({b3} vs {b6})");
    }

    #[test]
    fn same_constant_boolean_goal_p_c_c() {
        // the paper's fourth constant form: p(c, c) — does a word of
        // L(H) loop from c back to c?
        let chain = ChainProgram::parse(
            "?- p(home, home).\n\
             p(X, Y) :- b(X, Y).\n\
             p(X, Y) :- p(X, Z), b(Z, Y).",
        )
        .unwrap();
        let Propagation::Propagated { program, .. } = propagate(&chain).unwrap() else {
            panic!("b+ is regular");
        };
        assert!(program.is_monadic());
        assert_eq!(program.goal.arity(), 0);
        // positive: a cycle through home; negative: home on a dead end
        check_equivalent(
            &chain,
            &program,
            &[("b", "home", "x"), ("b", "x", "home"), ("b", "y", "z")],
        );
        check_equivalent(&chain, &program, &[("b", "home", "x"), ("b", "x", "y")]);
    }

    #[test]
    fn multi_idb_chain_propagates() {
        // two mutually recursive IDBs, strongly regular: q = (b1 b2)+
        let chain = ChainProgram::parse(
            "?- q(c, Y).\n\
             q(X, Y) :- b1(X, Z), r(Z, Y).\n\
             r(X, Y) :- b2(X, Y).\n\
             r(X, Y) :- b2(X, Z), q2(Z, Y).\n\
             q2(X, Y) :- b1(X, Z), r(Z, Y).",
        )
        .unwrap();
        let Propagation::Propagated { program, .. } = propagate(&chain).unwrap() else {
            panic!("right-linear multi-IDB should propagate");
        };
        assert!(program.is_monadic());
        check_equivalent(
            &chain,
            &program,
            &[
                ("b1", "c", "a"),
                ("b2", "a", "b"),
                ("b1", "b", "d"),
                ("b2", "d", "e"),
                ("b2", "c", "w"), // wrong first letter
            ],
        );
    }

    #[test]
    fn words_up_to_sanity() {
        // decision path 1 exercises words_up_to indirectly; pin it here
        let chain = ChainProgram::parse(
            "?- p(c, Y).\n\
             p(X, Y) :- b1(X, Y).\n\
             p(X, Y) :- b1(X, Z), b2(Z, Y).",
        )
        .unwrap();
        let words = selprop_grammar::analysis::words_up_to(&chain.grammar(), 3);
        assert_eq!(words.len(), 2);
    }
}
