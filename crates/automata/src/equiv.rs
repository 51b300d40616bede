//! Language equivalence and inclusion for regular languages.
//!
//! Two independent algorithms are provided and cross-checked by the test
//! suite:
//!
//! 1. product automaton + emptiness (`L1 ⊆ L2 iff L1 ∩ ¬L2 = ∅`), and
//! 2. Hopcroft–Karp style union-find bisimulation on the pair graph,
//!
//! plus a counterexample extractor. These power the "outputs identical"
//! validation of every rewrite the propagation engine produces, and the
//! `Language(φ) = L(H)` checks of the WS1S experiments (Lemma 5.1).

use std::collections::VecDeque;

use crate::alphabet::Symbol;
use crate::dfa::Dfa;

/// Whether `L(a) ⊆ L(b)`, by emptiness of `a ∩ ¬b`.
pub fn included(a: &Dfa, b: &Dfa) -> bool {
    a.difference(b).is_empty()
}

/// Whether `L(a) = L(b)`, by emptiness of the symmetric difference.
pub fn equivalent(a: &Dfa, b: &Dfa) -> bool {
    a.symmetric_difference(b).is_empty()
}

/// A shortest word in exactly one of the two languages, or `None` if the
/// languages are equal. The witness reports which side contains it.
pub fn counterexample(a: &Dfa, b: &Dfa) -> Option<Counterexample> {
    let diff = a.symmetric_difference(b);
    let word = diff.find_accepted_word()?;
    let in_a = a.accepts_word(&word);
    Some(Counterexample { word, in_a })
}

/// A word distinguishing two regular languages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counterexample {
    /// The distinguishing word.
    pub word: Vec<Symbol>,
    /// `true` if the word belongs to the first language (and not the
    /// second); `false` for the converse.
    pub in_a: bool,
}

/// Hopcroft–Karp union-find equivalence check (no product automaton is
/// materialized; pairs are merged on the fly).
pub fn equivalent_hk(a: &Dfa, b: &Dfa) -> bool {
    assert_eq!(a.alphabet, b.alphabet, "equivalence requires a shared alphabet");
    let symbols: Vec<Symbol> = a.alphabet.symbols().collect();
    // Union-find over the disjoint union of state spaces:
    // ids 0..a.n are a's states, a.n.. are b's.
    let offset = a.num_states();
    let total = offset + b.num_states();
    let mut parent: Vec<usize> = (0..total).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut queue = VecDeque::new();
    queue.push_back((a.start(), b.start()));
    while let Some((p, q)) = queue.pop_front() {
        let rp = find(&mut parent, p);
        let rq = find(&mut parent, offset + q);
        if rp == rq {
            continue;
        }
        if a.is_accept(p) != b.is_accept(q) {
            return false;
        }
        parent[rp] = rq;
        for &s in &symbols {
            queue.push_back((a.step(p, s), b.step(q, s)));
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::nfa::Nfa;

    fn setup() -> (Alphabet, Symbol, Symbol) {
        let al = Alphabet::from_names(["a", "b"]);
        (al.clone(), al.get("a").unwrap(), al.get("b").unwrap())
    }

    #[test]
    fn inclusion_basic() {
        let (al, a, b) = setup();
        let ab = Dfa::from_nfa(&Nfa::from_word(al.clone(), &[a, b]));
        let all = Dfa::from_nfa(&Nfa::sigma_star(al));
        assert!(included(&ab, &all));
        assert!(!included(&all, &ab));
        let _ = b;
    }

    #[test]
    fn equivalence_of_different_constructions() {
        let (al, a, b) = setup();
        // a(ba)* vs (ab)*a
        let l1 = Nfa::from_word(al.clone(), &[a]).concat(&Nfa::from_word(al.clone(), &[b, a]).star());
        let l2 = Nfa::from_word(al.clone(), &[a, b]).star().concat(&Nfa::from_word(al, &[a]));
        let d1 = Dfa::from_nfa(&l1);
        let d2 = Dfa::from_nfa(&l2);
        assert!(equivalent(&d1, &d2));
        assert!(equivalent_hk(&d1, &d2));
    }

    #[test]
    fn counterexample_is_shortest() {
        let (al, a, b) = setup();
        // a* vs a*b? differ on shortest word "b"? a* = {ε,a,aa,...}; a*b adds words ending in b.
        let d1 = Dfa::from_nfa(&Nfa::from_word(al.clone(), &[a]).star());
        let d2 = Dfa::from_nfa(
            &Nfa::from_word(al.clone(), &[a])
                .star()
                .concat(&Nfa::from_word(al, &[b])),
        );
        let ce = counterexample(&d1, &d2).unwrap();
        // shortest distinguishing word: ε (in a*, not in a*b)
        assert_eq!(ce.word, Vec::<Symbol>::new());
        assert!(ce.in_a);
    }

    #[test]
    fn counterexample_none_for_equal() {
        let (al, a, _) = setup();
        let d1 = Dfa::from_nfa(&Nfa::from_word(al.clone(), &[a]));
        let d2 = Dfa::from_nfa(&Nfa::from_word(al, &[a]));
        assert!(counterexample(&d1, &d2).is_none());
    }

    #[test]
    fn hk_disagrees_on_acceptance_mismatch() {
        let (al, a, _) = setup();
        let d1 = Dfa::from_nfa(&Nfa::from_word(al.clone(), &[a]));
        let d2 = Dfa::from_nfa(&Nfa::from_word(al, &[a, a]));
        assert!(!equivalent_hk(&d1, &d2));
        assert!(!equivalent(&d1, &d2));
    }
}
