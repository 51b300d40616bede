//! Property-based tests for the CFG toolkit.
//!
//! Random small grammars over a 2-symbol alphabet are generated as raw
//! production lists; every analysis is cross-checked against CYK
//! membership and bounded enumeration.

use proptest::prelude::*;
use selprop_grammar::analysis::{finiteness, words_up_to, Finiteness};
use selprop_grammar::barhillel::intersect;
use selprop_grammar::cfg::{Cfg, NonTerminal, Sym};
use selprop_grammar::cnf::CnfGrammar;
use selprop_grammar::quotient::right_quotient;
use selprop_grammar::regular::approximate;
use selprop_grammar::self_embedding::{self_embedding, SelfEmbedding};
use selprop_grammar::sentential::sentential_forms;
use selprop_automata::alphabet::Alphabet;
use selprop_automata::regex::Regex;
use selprop_automata::Symbol;

const NT: usize = 3; // nonterminals per generated grammar
const MAX_BODY: usize = 3;

/// A random grammar over terminals {a, b} and nonterminals {n0, n1, n2}.
fn arb_cfg() -> impl Strategy<Value = Cfg> {
    // each production: (head in 0..NT, body of symbols encoded 0..=4)
    // 0 => a, 1 => b, 2..=4 => n0..n2
    let prod = (0..NT as u32, proptest::collection::vec(0u8..5, 0..=MAX_BODY));
    proptest::collection::vec(prod, 1..8).prop_map(|prods| {
        let al = Alphabet::from_names(["a", "b"]);
        let mut g = Cfg::new(al, "n0");
        for i in 1..NT {
            g.add_nonterminal(&format!("n{i}"));
        }
        for (head, body) in prods {
            let body: Vec<Sym> = body
                .into_iter()
                .map(|code| match code {
                    0 => Sym::T(Symbol(0)),
                    1 => Sym::T(Symbol(1)),
                    k => Sym::N(NonTerminal(u32::from(k) - 2)),
                })
                .collect();
            g.add_production(NonTerminal(head), body);
        }
        g
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn enumeration_agrees_with_cyk(g in arb_cfg()) {
        let cnf = CnfGrammar::from_cfg(&g);
        let words = words_up_to(&g, 5);
        // every enumerated word is accepted
        for w in &words {
            prop_assert!(cnf.accepts(w), "enumerated word rejected by CYK");
        }
        // every word of length ≤ 4 accepted by CYK is enumerated
        let mut frontier: Vec<Vec<Symbol>> = vec![vec![]];
        let mut all: Vec<Vec<Symbol>> = vec![vec![]];
        for _ in 0..4 {
            let mut next = Vec::new();
            for w in &frontier {
                for s in [Symbol(0), Symbol(1)] {
                    let mut w2 = w.clone();
                    w2.push(s);
                    next.push(w2);
                }
            }
            all.extend(next.iter().cloned());
            frontier = next;
        }
        for w in all {
            prop_assert_eq!(cnf.accepts(&w), words.contains(&w));
        }
    }

    #[test]
    fn recognizer_scripts_agree_with_enumeration(
        g in arb_cfg(),
        script in proptest::collection::vec(0u8..7, 0..40),
    ) {
        // 0..=3 push a or b, 4..=5 pop, 6 clear; the word stays within
        // the oracle's horizon (a push at the horizon pops instead)
        const HORIZON: usize = 6;
        let words = words_up_to(&g, HORIZON);
        let cnf = CnfGrammar::from_cfg(&g);
        let mut rec = cnf.recognizer();
        let mut word: Vec<Symbol> = Vec::new();
        prop_assert_eq!(rec.accepts(), words.contains(&word));
        for op in script {
            match op {
                0..=3 if word.len() < HORIZON => {
                    let a = Symbol(u32::from(op % 2));
                    rec.push(a);
                    word.push(a);
                }
                0..=5 => prop_assert_eq!(rec.pop(), word.pop()),
                _ => {
                    rec.clear();
                    word.clear();
                }
            }
            prop_assert_eq!(rec.accepts(), words.contains(&word), "on {:?}", word);
        }
    }

    #[test]
    fn finiteness_decision_is_sound(g in arb_cfg()) {
        match finiteness(&g) {
            Finiteness::Finite(words) => {
                // enumeration up to a larger bound finds nothing new
                let max = words.iter().map(Vec::len).max().unwrap_or(0);
                let more = words_up_to(&g, max + 3);
                prop_assert_eq!(words, more);
            }
            Finiteness::Infinite(w) => {
                let cnf = CnfGrammar::from_cfg(&g);
                for i in 0..4 {
                    prop_assert!(cnf.accepts(&w.word(i)),
                        "pump witness iteration {} not in language", i);
                }
                // pumping changes length
                prop_assert!(w.word(1).len() > w.word(0).len());
            }
        }
    }

    #[test]
    fn approximation_is_superset(g in arb_cfg()) {
        let approx = approximate(&g);
        let dfa = approx.dfa();
        for w in words_up_to(&g, 6) {
            prop_assert!(dfa.accepts_word(&w), "approximation lost a word");
        }
    }

    #[test]
    fn exact_approximation_is_equal(g in arb_cfg()) {
        let approx = approximate(&g);
        if approx.exact {
            // language of the automaton restricted to short words must
            // match the grammar's enumeration exactly
            let cnf = CnfGrammar::from_cfg(&g);
            for w in dfa_words(&approx.dfa(), 6) {
                prop_assert!(cnf.accepts(&w), "exact automaton gained a word");
            }
        }
    }

    #[test]
    fn nse_implies_exact(g in arb_cfg()) {
        if self_embedding(&g) == SelfEmbedding::No {
            let approx = approximate(&g);
            prop_assert!(approx.exact,
                "non-self-embedding grammar must compile exactly, got {:?}",
                approx.approximated_sccs);
        }
    }

    #[test]
    fn barhillel_is_exact_intersection(g in arb_cfg()) {
        let mut al = g.alphabet.clone();
        let r = Regex::parse("a (a|b)*", &mut al).unwrap().to_dfa(&al);
        let i = intersect(&g, &r);
        let cnf = CnfGrammar::from_cfg(&g);
        let icnf = CnfGrammar::from_cfg(&i);
        for w in all_words(5) {
            let expected = cnf.accepts(&w) && r.accepts_word(&w);
            prop_assert_eq!(icnf.accepts(&w), expected, "intersection wrong on {:?}", w);
        }
    }

    #[test]
    fn quotient_is_sound_and_complete(g in arb_cfg()) {
        let mut al = g.alphabet.clone();
        let r = Regex::parse("b*", &mut al).unwrap().to_dfa(&al);
        let q = right_quotient(&g, &r);
        let qcnf = CnfGrammar::from_cfg(&q);
        let lw = words_up_to(&g, 8);
        let rw = r.words_up_to(8);
        for x in all_words(4) {
            let expected = rw.iter().any(|y| {
                let mut xy = x.clone();
                xy.extend_from_slice(y);
                lw.contains(&xy)
            });
            // soundness+completeness up to the enumeration horizon: the
            // brute-force check only sees xy up to length 8, so only
            // require agreement when the CFG quotient also says yes with
            // a witness that short — here both directions hold because
            // r's pumping adds only b's and L's words ≤ 8 cover x ≤ 4.
            if expected {
                prop_assert!(qcnf.accepts(&x), "quotient missing {:?}", x);
            }
        }
    }

    #[test]
    fn sentential_forms_contain_language(g in arb_cfg()) {
        let sf = sentential_forms(&g);
        let lang = words_up_to(&g, 4);
        let forms = words_up_to(&sf, 4);
        for w in &lang {
            prop_assert!(forms.contains(w));
        }
    }
}

/// All words over {a, b} of length ≤ n.
fn all_words(n: usize) -> Vec<Vec<Symbol>> {
    let mut out: Vec<Vec<Symbol>> = vec![vec![]];
    let mut frontier: Vec<Vec<Symbol>> = vec![vec![]];
    for _ in 0..n {
        let mut next = Vec::new();
        for w in &frontier {
            for s in [Symbol(0), Symbol(1)] {
                let mut w2 = w.clone();
                w2.push(s);
                next.push(w2);
            }
        }
        out.extend(next.iter().cloned());
        frontier = next;
    }
    out
}

fn dfa_words(dfa: &selprop_automata::Dfa, n: usize) -> Vec<Vec<Symbol>> {
    dfa.words_up_to(n)
}
