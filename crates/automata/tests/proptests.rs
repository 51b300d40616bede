//! Property-based tests for the regular-language toolkit.
//!
//! Strategy: generate random regular expressions over a 2-symbol alphabet,
//! compile them to DFAs, and check algebraic laws of the language algebra
//! against brute-force word enumeration.

use proptest::prelude::*;
use selprop_automata::alphabet::Alphabet;
use selprop_automata::dfa::Dfa;
use selprop_automata::equiv::{counterexample, equivalent, equivalent_hk, included};
use selprop_automata::minimize::{minimize, minimize_moore, tables_identical};
use selprop_automata::ops::{prefixes, right_quotient, suffixes};
use selprop_automata::regex::{dfa_to_regex, Regex};
use selprop_automata::Symbol;

fn alphabet() -> Alphabet {
    Alphabet::from_names(["a", "b"])
}

/// Random regex of bounded depth.
fn arb_regex() -> impl Strategy<Value = Regex> {
    let leaf = prop_oneof![
        Just(Regex::Epsilon),
        Just(Regex::Sym(Symbol(0))),
        Just(Regex::Sym(Symbol(1))),
    ];
    leaf.prop_recursive(4, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Regex::concat(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Regex::alt(a, b)),
            inner.prop_map(Regex::star),
        ]
    })
}

/// A random DFA over {a, b} with up to five states and a sink: every
/// state is accepting with probability 1/3, and every transition has a
/// chance of one in (states + 1) to enter the sink, which is never left.
fn arb_dfa_with_sink() -> impl Strategy<Value = Dfa> {
    (
        1usize..=5,
        proptest::collection::vec(0usize..6, 10),
        proptest::collection::vec(0u8..3, 5),
    )
        .prop_map(|(n, targets, accept)| {
            let sink = n;
            let mut transitions: Vec<Vec<usize>> = (0..n)
                .map(|q| (0..2).map(|a| targets[2 * q + a] % (n + 1)).collect())
                .collect();
            transitions.push(vec![sink, sink]);
            let mut accepting: Vec<bool> = accept[..n].iter().map(|&c| c == 0).collect();
            accepting.push(false);
            Dfa::from_parts(alphabet(), transitions, 0, accepting)
        })
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn minimization_preserves_language(re in arb_regex()) {
        let al = alphabet();
        let dfa = re.to_dfa(&al);
        let min = minimize(&dfa);
        for w in all_words(6) {
            prop_assert_eq!(dfa.accepts_word(&w), min.accepts_word(&w));
        }
    }

    #[test]
    fn hopcroft_agrees_with_moore(re in arb_regex()) {
        let al = alphabet();
        let dfa = re.to_dfa(&al);
        let m1 = minimize(&dfa);
        let m2 = minimize_moore(&dfa);
        prop_assert!(tables_identical(&m1, &m2));
    }

    #[test]
    fn minimal_dfa_is_no_larger(re in arb_regex()) {
        let al = alphabet();
        let dfa = re.to_dfa(&al);
        let min = minimize(&dfa);
        prop_assert!(min.num_states() <= dfa.num_states());
    }

    #[test]
    fn complement_is_involution(re in arb_regex()) {
        let al = alphabet();
        let dfa = re.to_dfa(&al);
        let cc = dfa.complement().complement();
        prop_assert!(equivalent(&dfa, &cc));
    }

    #[test]
    fn de_morgan(re1 in arb_regex(), re2 in arb_regex()) {
        let al = alphabet();
        let d1 = re1.to_dfa(&al);
        let d2 = re2.to_dfa(&al);
        let lhs = d1.union(&d2).complement();
        let rhs = d1.complement().intersect(&d2.complement());
        prop_assert!(equivalent(&lhs, &rhs));
    }

    #[test]
    fn equivalence_methods_agree(re1 in arb_regex(), re2 in arb_regex()) {
        let al = alphabet();
        let d1 = re1.to_dfa(&al);
        let d2 = re2.to_dfa(&al);
        let product = equivalent(&d1, &d2);
        let hk = equivalent_hk(&d1, &d2);
        let iso = tables_identical(&minimize(&d1), &minimize(&d2));
        prop_assert_eq!(product, hk);
        prop_assert_eq!(product, iso);
    }

    #[test]
    fn counterexample_is_sound(re1 in arb_regex(), re2 in arb_regex()) {
        let al = alphabet();
        let d1 = re1.to_dfa(&al);
        let d2 = re2.to_dfa(&al);
        match counterexample(&d1, &d2) {
            Some(ce) => {
                prop_assert_ne!(d1.accepts_word(&ce.word), d2.accepts_word(&ce.word));
                prop_assert_eq!(ce.in_a, d1.accepts_word(&ce.word));
            }
            None => prop_assert!(equivalent(&d1, &d2)),
        }
    }

    #[test]
    fn inclusion_is_reflexive_and_antisymmetric(re1 in arb_regex(), re2 in arb_regex()) {
        let al = alphabet();
        let d1 = re1.to_dfa(&al);
        let d2 = re2.to_dfa(&al);
        prop_assert!(included(&d1, &d1));
        if included(&d1, &d2) && included(&d2, &d1) {
            prop_assert!(equivalent(&d1, &d2));
        }
    }

    #[test]
    fn dfa_regex_roundtrip(re in arb_regex()) {
        let al = alphabet();
        let dfa = re.to_dfa(&al);
        let re2 = dfa_to_regex(&dfa);
        let dfa2 = re2.to_dfa(&al);
        prop_assert!(equivalent(&dfa, &dfa2));
    }

    #[test]
    fn quotient_by_epsilon_is_identity(re in arb_regex()) {
        let al = alphabet();
        let dfa = re.to_dfa(&al);
        let eps = Regex::Epsilon.to_dfa(&al);
        let q = right_quotient(&dfa, &eps);
        prop_assert!(equivalent(&q, &dfa));
    }

    #[test]
    fn quotient_matches_brute_force(re1 in arb_regex(), re2 in arb_regex()) {
        let al = alphabet();
        let l = re1.to_dfa(&al);
        let r = re2.to_dfa(&al);
        let q = right_quotient(&l, &r);
        // brute force on words up to length 4 (suffixes up to length 8)
        let lw = l.words_up_to(12);
        let rw = r.words_up_to(8);
        for x in all_words(4) {
            let expected = rw.iter().any(|y| {
                let mut xy = x.clone();
                xy.extend_from_slice(y);
                lw.contains(&xy)
            });
            prop_assert_eq!(q.accepts_word(&x), expected,
                "quotient mismatch on {:?}", x);
        }
    }

    #[test]
    fn prefix_closure_contains_language(re in arb_regex()) {
        let al = alphabet();
        let dfa = re.to_dfa(&al);
        let p = prefixes(&dfa);
        prop_assert!(included(&dfa, &p));
        // every prefix of an accepted word is accepted by p
        for w in dfa.words_up_to(5) {
            for i in 0..=w.len() {
                prop_assert!(p.accepts_word(&w[..i]));
            }
        }
    }

    #[test]
    fn suffix_closure_contains_language(re in arb_regex()) {
        let al = alphabet();
        let dfa = re.to_dfa(&al);
        let s = suffixes(&dfa);
        prop_assert!(included(&dfa, &s));
        for w in dfa.words_up_to(5) {
            for i in 0..=w.len() {
                prop_assert!(s.accepts_word(&w[i..]));
            }
        }
    }

    #[test]
    fn finiteness_agrees_with_enumeration_growth(re in arb_regex()) {
        let al = alphabet();
        let dfa = re.to_dfa(&al);
        let min = minimize(&dfa);
        if min.is_finite() {
            // every word longer than the state count is rejected
            let n = min.num_states();
            for w in min.words_up_to(n + 3) {
                prop_assert!(w.len() <= n);
            }
        } else {
            // there are accepted words longer than the state count
            let n = min.num_states();
            let has_long = !min
                .words_up_to(2 * n + 2)
                .iter()
                .all(|w| w.len() <= n);
            prop_assert!(has_long);
        }
    }

    #[test]
    fn count_words_matches_enumeration(re in arb_regex()) {
        let al = alphabet();
        let dfa = re.to_dfa(&al);
        let counts = dfa.count_words_by_length(5);
        let words = dfa.words_up_to(5);
        for (len, &count) in counts.iter().enumerate().take(6) {
            let n = words.iter().filter(|w| w.len() == len).count() as u64;
            prop_assert_eq!(count, n);
        }
    }

    #[test]
    fn words_up_to_prunes_sinks_without_losing_words(dfa in arb_dfa_with_sink()) {
        const N: usize = 7;
        let counts = dfa.count_words_by_length(N);
        let words = dfa.words_up_to(N);
        for (len, &count) in counts.iter().enumerate() {
            let n = words.iter().filter(|w| w.len() == len).count() as u64;
            prop_assert_eq!(count, n, "length {}", len);
        }
        let brute: Vec<Vec<Symbol>> = all_words(N)
            .into_iter()
            .filter(|w| dfa.accepts_word(w))
            .collect();
        prop_assert_eq!(words, brute);
    }

    #[test]
    fn nfa_reversal_is_involution_on_language(re in arb_regex()) {
        let al = alphabet();
        let dfa = re.to_dfa(&al);
        let rev2 = Dfa::from_nfa(&dfa.to_nfa().reversed().reversed());
        prop_assert!(equivalent(&dfa, &rev2));
    }
}
