//! The selection-propagation engine — Theorem 3.3 and Corollary 3.4 as an
//! API.
//!
//! Theorem 3.3: selection with a constant propagates **iff `L(H)` is
//! regular** (undecidable); selection `p(X, X)` propagates **iff `L(H)`
//! is finite** (decidable). The engine therefore returns a *trichotomy*
//! for constant goals — `Propagated` with a machine-checkable regularity
//! certificate, `Impossible` with a finiteness/pumping certificate where
//! applicable, or `Unknown` — and a genuine decision for diagonal goals.
//! `Unknown` is not a weakness of the implementation: Corollary 3.4
//! proves no complete procedure can exist.
//!
//! [`propagate`] returns the verdict alone: `Unknown` carries what steps
//! 1–4 found, an [`Undecided`] (the grammar `G(H)` and its self-embedding
//! nonterminal), and step 5's evidence is computed on request by
//! [`Undecided::evidence`].

use selprop_automata::dfa::Dfa;
use selprop_automata::minimize::minimize;
use selprop_automata::Symbol;
use selprop_datalog::ast::Program;
use selprop_grammar::analysis::{finiteness, Finiteness, PumpWitness};
use selprop_grammar::cnf::{CnfGrammar, Recognizer};
use selprop_grammar::regular::{approximate, is_strongly_regular};
use selprop_grammar::self_embedding::{self_embedding, SelfEmbedding};
use selprop_grammar::Cfg;
use std::collections::{BTreeSet, HashSet};

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
                let alphabet = chain.alphabet();
                let mut nfa = selprop_automata::Nfa::empty(alphabet.clone());
                for w in words {
                    nfa = nfa.union(&selprop_automata::Nfa::from_word(alphabet.clone(), w));
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

/// What steps 1–4 found for a constant goal none of them decided (the
/// undecidable region of Corollary 3.4); [`Undecided::evidence`] reads
/// it.
#[derive(Clone, Debug)]
pub struct Undecided {
    /// The grammar `G(H)`.
    grammar: Cfg,
    /// A self-embedding nonterminal of `G(H)` (why the decidable
    /// sufficient conditions did not fire).
    self_embedding_nonterminal: String,
}

/// Step 5's evidence on an [`Undecided`] program
/// ([`Undecided::evidence`]).
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
    Unknown(Undecided),
}

impl Propagation {
    /// Whether a monadic rewrite was produced.
    pub fn is_propagated(&self) -> bool {
        matches!(self, Propagation::Propagated { .. })
    }
}

/// The sampling budget of [`Undecided::evidence`] (its cost model is
/// there).
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
            match regularity(&grammar) {
                Ok(certificate) => {
                    let program = monadic_rewrite(chain, &certificate.dfa(chain))?;
                    debug_assert!(program.is_monadic());
                    Ok(Propagation::Propagated {
                        program,
                        certificate,
                    })
                }
                Err(self_embedding_nonterminal) => Ok(Propagation::Unknown(Undecided {
                    grammar,
                    self_embedding_nonterminal,
                })),
            }
        }
    }
}

/// Steps 1–4 of the decision for a constant goal: the certificate of the
/// first sufficient condition for regularity of `L(G)` that holds, or,
/// when none does, the self-embedding nonterminal step 3 found.
fn regularity(grammar: &Cfg) -> Result<RegularityCertificate, String> {
    // 1. finite ⇒ regular
    if let Finiteness::Finite(words) = finiteness(grammar) {
        return Ok(RegularityCertificate::FiniteLanguage(words));
    }
    // 2. strongly regular ⇒ exact compilation
    let exact = || minimize(&approximate(grammar).dfa());
    if is_strongly_regular(grammar) {
        return Ok(RegularityCertificate::StronglyRegular(exact()));
    }
    // 3. non-self-embedding ⇒ regular (Chomsky). After cleaning, NSE
    // implies strongly regular, so this arm fires only in the (rare) gap
    // where cleaning exposed it; keep it for the certificate's sake.
    let SelfEmbedding::Yes { nonterminal } = self_embedding(grammar) else {
        return Ok(RegularityCertificate::NonSelfEmbedding(exact()));
    };
    // 4. unary alphabet ⇒ regular (Parikh), decidable within the size
    // cap of the periodic-length-set construction.
    match selprop_grammar::unary::unary_regularity(grammar) {
        Some(u) => Ok(RegularityCertificate::UnaryPeriodic(u.dfa)),
        None => Err(nonterminal),
    }
}

impl Undecided {
    /// Step 5, the undecidable region's evidence, sampled within `budget`.
    ///
    /// Builds one CNF of `G(H)` and walks word tries with one incremental
    /// CYK [`Recognizer`], one pushed symbol — one table column — per
    /// trie edge. Its cost model, in pushes:
    ///
    /// - the Nerode bound costs prefixes × suffix-trie nodes: both are
    ///   the first `min(256, Σ_{i ≤ nerode_max_len} |Σ|ⁱ)` words, so at
    ///   most 256 × 255 (see [`nerode_lower_bound`]);
    /// - the envelope check costs `Σ_{i ≤ envelope_sample_len} |Σ|ⁱ` over
    ///   live paths, the envelope's words and their live prefixes, and
    ///   stops at the first envelope word outside `L(H)`. An exact `Σ⁺`
    ///   envelope over four letters at the default 10 is 1.4 M pushes;
    ///   that term, not the Nerode one, is the one that grows with the
    ///   alphabet.
    ///
    /// A push at depth `d` fills `d` cells from at most `d` splits each.
    pub fn evidence(&self, budget: PropagationBudget) -> UndecidedEvidence {
        let grammar = &self.grammar;
        let envelope = minimize(&approximate(grammar).dfa());
        let mut rec = CnfGrammar::from_cfg(grammar).recognizer();
        let symbols: Vec<Symbol> = grammar.alphabet.symbols().collect();
        let nerode = nerode_bound(&mut rec, &symbols, budget.nerode_max_len);
        let envelope_tight_on_sample =
            envelope_tight(&envelope, &mut rec, budget.envelope_sample_len);
        UndecidedEvidence {
            self_embedding_nonterminal: Some(self.self_embedding_nonterminal.clone()),
            envelope,
            nerode_lower_bound: nerode,
            envelope_tight_on_sample,
        }
    }
}

/// Counts pairwise Myhill–Nerode-distinguishable prefixes of `L(G)` found
/// by sampling prefixes and suffixes up to `max_len`: a lower bound on
/// the state count of any DFA for `L(G)`.
///
/// Prefixes and probe suffixes are the same words: the first 256 words
/// of length at most `max_len` in length-lexicographic order, a
/// prefix-closed set and so a trie. A prefix's signature is its
/// acceptance bit over every suffix; the bound is the number of distinct
/// signatures. One [`Recognizer`] walks the prefix trie depth first and,
/// under each prefix, the suffix trie, pushing a symbol per trie edge:
/// the cost is prefixes × suffix-trie nodes pushes (at most 256 × 255),
/// each computing one CYK column of at most `2 · max_len` cells.
pub fn nerode_lower_bound(g: &Cfg, max_len: usize) -> usize {
    let mut rec = CnfGrammar::from_cfg(g).recognizer();
    let symbols: Vec<Symbol> = g.alphabet.symbols().collect();
    nerode_bound(&mut rec, &symbols, max_len)
}

/// [`nerode_lower_bound`] on an empty recognizer of the grammar.
fn nerode_bound(rec: &mut Recognizer, symbols: &[Symbol], max_len: usize) -> usize {
    const CAP: usize = 256;
    // children[w]: (symbol, child) for each child of word w in the trie
    // of the first CAP words in length-lexicographic order, generated
    // breadth first; word 0 is ε.
    let mut children: Vec<Vec<(Symbol, usize)>> = vec![Vec::new()];
    let mut depth = vec![0usize];
    let mut next = 0;
    while next < children.len() && children.len() < CAP && depth[next] < max_len {
        for &a in symbols {
            if children.len() == CAP {
                break;
            }
            let child = children.len();
            children[next].push((a, child));
            children.push(Vec::new());
            depth.push(depth[next] + 1);
        }
        next += 1;
    }
    let mut signatures: HashSet<Vec<u64>> = HashSet::new();
    let mut sig = vec![0u64; children.len().div_ceil(64)];
    walk(&children, 0, rec, &mut |_, rec| {
        sig.fill(0);
        walk(&children, 0, rec, &mut |suffix, rec| {
            if rec.accepts() {
                sig[suffix / 64] |= 1 << (suffix % 64);
            }
        });
        if !signatures.contains(&sig) {
            signatures.insert(sig.clone());
        }
    });
    signatures.len()
}

/// Visits every word of the trie below `word` depth first, with the
/// word's symbols pushed onto `rec` during its visit.
fn walk(
    children: &[Vec<(Symbol, usize)>],
    word: usize,
    rec: &mut Recognizer,
    visit: &mut dyn FnMut(usize, &mut Recognizer),
) {
    visit(word, rec);
    for &(a, child) in &children[word] {
        rec.push(a);
        walk(children, child, rec, visit);
        rec.pop();
    }
}

/// Whether every word of `envelope` up to `max_len` is in the language
/// of `rec`'s grammar. Walks the envelope's live word trie depth first —
/// the paths from the start through live states, a superset of the
/// accepted words' prefixes — with one push per trie edge, and stops at
/// the first accepted word the grammar rejects. The cost is the number
/// of live paths of length at most `max_len`, `Σ |Σ|ⁱ` for an envelope
/// whose every state is live.
fn envelope_tight(envelope: &Dfa, rec: &mut Recognizer, max_len: usize) -> bool {
    fn go(
        d: &Dfa,
        live: &BTreeSet<usize>,
        symbols: &[Symbol],
        q: usize,
        left: usize,
        rec: &mut Recognizer,
    ) -> bool {
        if d.is_accept(q) && !rec.accepts() {
            return false;
        }
        if left == 0 {
            return true;
        }
        for &a in symbols {
            let r = d.step(q, a);
            if live.contains(&r) {
                rec.push(a);
                let tight = go(d, live, symbols, r, left - 1, rec);
                rec.pop();
                if !tight {
                    return false;
                }
            }
        }
        true
    }
    let live = envelope.live_states();
    let symbols: Vec<Symbol> = envelope.alphabet.symbols().collect();
    !live.contains(&envelope.start())
        || go(envelope, &live, &symbols, envelope.start(), max_len, rec)
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

    /// `b1ⁿ b2ⁿ`, n ≥ 1.
    const BALANCED: &str = "?- p(c, Y).\n\
        p(X, Y) :- b1(X, X1), b2(X1, Y).\n\
        p(X, Y) :- b1(X, X1), p(X1, X2), b2(X2, Y).";

    /// `p → p p | e0 | e1 | e2 | e3`: `L = Σ⁺` through a self-embedding
    /// grammar over four letters.
    const WIDE: &str = "?- p(c, Y).\n\
        p(X, Y) :- p(X, Z), p(Z, Y).\n\
        p(X, Y) :- e0(X, Y).\n\
        p(X, Y) :- e1(X, Y).\n\
        p(X, Y) :- e2(X, Y).\n\
        p(X, Y) :- e3(X, Y).";

    #[test]
    fn balanced_pairs_is_unknown_with_growing_nerode_bound() {
        let chain = ChainProgram::parse(BALANCED).unwrap();
        match propagate(&chain).unwrap() {
            Propagation::Unknown(undecided) => {
                // b1^n b2^n is not regular: the bound grows with budget
                // and the envelope (b1+ b2+) is visibly not tight.
                let ev = undecided.evidence(PropagationBudget {
                    nerode_max_len: 7,
                    envelope_sample_len: 8,
                });
                assert!(ev.nerode_lower_bound >= 6, "got {}", ev.nerode_lower_bound);
                assert!(!ev.envelope_tight_on_sample);
            }
            other => panic!("expected Unknown, got {other:?}"),
        }
    }

    #[test]
    fn wide_self_embedding_grammar_is_unknown_with_a_tight_envelope() {
        // p -> p p | e0 | e1 | e2 | e3: L = Σ⁺ is regular, but the grammar
        // is self-embedding over four letters, so step 5 gathers evidence.
        // Its envelope Σ⁺ is exact, and the tightness check walks all of
        // its 4 + 4² + … + 4¹⁰ words.
        let ev = evidence_of(WIDE);
        assert_eq!(ev.self_embedding_nonterminal.as_deref(), Some("p"));
        assert_eq!(ev.nerode_lower_bound, 2);
        assert!(ev.envelope_tight_on_sample);
        let alphabet = &ev.envelope.alphabet;
        let names: Vec<&str> = alphabet.symbols().map(|a| alphabet.name(a)).collect();
        assert_eq!(names, ["e0", "e1", "e2", "e3"]);
        assert_eq!(ev.envelope.transition_table(), [[1, 1, 1, 1], [1, 1, 1, 1]]);
        assert_eq!(ev.envelope.start(), 0);
        assert_eq!(ev.envelope.accepting(), [false, true]);
    }

    /// What `propagate` leaves undecided on `source`.
    fn undecided(source: &str) -> Undecided {
        let chain = ChainProgram::parse(source).unwrap();
        let Propagation::Unknown(undecided) = propagate(&chain).unwrap() else {
            panic!("undecided: {source}");
        };
        undecided
    }

    /// The evidence on `source`, an undecided program, at the default
    /// budget.
    fn evidence_of(source: &str) -> UndecidedEvidence {
        undecided(source).evidence(PropagationBudget::default())
    }

    #[test]
    fn undecided_evidence_is_pinned() {
        use crate::gallery::{gallery, ExpectedOutcome};
        let entries = gallery();
        let source = |name| entries.iter().find(|e| e.name == name).unwrap().source;
        let unknown = entries.iter().filter(|e| e.expected == ExpectedOutcome::Unknown);
        assert_eq!(unknown.map(|e| e.name).collect::<Vec<_>>(), ["balanced", "palindromic"]);
        // The balanced-pairs test's program is the gallery's `balanced`.
        assert_eq!(source("balanced"), BALANCED);
        // (program, Nerode bound, envelope tight on sample, the envelope's
        // accepting states and transitions); every grammar self-embeds at
        // `p` and every envelope starts in state 0.
        type Pin = (&'static str, usize, bool, &'static [bool], &'static [&'static [usize]]);
        let pinned: [Pin; 3] = [
            (
                BALANCED,
                13,
                false,
                &[false, false, false, true],
                &[&[1, 2], &[1, 3], &[2, 2], &[2, 3]],
            ),
            (
                source("palindromic"),
                127,
                false,
                &[false, false, false, true],
                &[&[1, 2], &[3, 2], &[1, 3], &[3, 3]],
            ),
            (WIDE, 2, true, &[false, true], &[&[1, 1, 1, 1], &[1, 1, 1, 1]]),
        ];
        for (source, nerode, tight, accepting, transitions) in pinned {
            let ev = evidence_of(source);
            assert_eq!(ev.self_embedding_nonterminal.as_deref(), Some("p"), "{source}");
            assert_eq!(ev.nerode_lower_bound, nerode, "{source}");
            assert_eq!(ev.envelope_tight_on_sample, tight, "{source}");
            assert_eq!(ev.envelope.start(), 0, "{source}");
            assert_eq!(ev.envelope.accepting(), accepting, "{source}");
            assert_eq!(ev.envelope.transition_table(), transitions, "{source}");
        }
    }

    #[test]
    fn the_decision_over_eight_letters_runs_no_step_5() {
        // p -> p p | e0 | … | e7: step 5 at the default budget walks
        // Σ_{i ≤ 10} 8ⁱ ≈ 1.2 · 10⁹ envelope paths; the verdict walks none.
        let mut source = String::from("?- p(c, Y).\np(X, Y) :- p(X, Z), p(Z, Y).\n");
        for i in 0..8 {
            source.push_str(&format!("p(X, Y) :- e{i}(X, Y).\n"));
        }
        let undecided = undecided(&source);
        assert_eq!(undecided.self_embedding_nonterminal, "p");
        let ev = undecided.evidence(PropagationBudget {
            nerode_max_len: 2,
            envelope_sample_len: 3,
        });
        assert_eq!(ev.self_embedding_nonterminal.as_deref(), Some("p"));
        assert_eq!(ev.nerode_lower_bound, 2);
        assert!(ev.envelope_tight_on_sample);
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
