//! Nondeterministic finite automata with ε-transitions.
//!
//! The NFA is the workhorse intermediate representation: regular
//! expressions, left-/right-linear grammars (the paper's `H_left`
//! construction in Theorem 3.3) and Mohri–Nederhof approximations all
//! produce NFAs, which are then determinized ([`crate::dfa::Dfa::from_nfa`])
//! and minimized for decision procedures.

use std::collections::{BTreeSet, HashMap, VecDeque};

use crate::alphabet::{Alphabet, Symbol};

/// A state id within an [`Nfa`].
pub type StateId = usize;

/// A nondeterministic finite automaton with ε-transitions over an
/// interned [`Alphabet`].
#[derive(Clone, Debug)]
pub struct Nfa {
    /// Shared alphabet.
    pub alphabet: Alphabet,
    /// `transitions[q]` maps a symbol to the set of successor states.
    transitions: Vec<HashMap<Symbol, BTreeSet<StateId>>>,
    /// `epsilon[q]` is the set of ε-successors of `q`.
    epsilon: Vec<BTreeSet<StateId>>,
    /// Initial states.
    starts: BTreeSet<StateId>,
    /// Accepting states.
    accepts: BTreeSet<StateId>,
}

impl Nfa {
    /// Creates an empty NFA (no states, empty language) over `alphabet`.
    pub fn new(alphabet: Alphabet) -> Self {
        Self {
            alphabet,
            transitions: Vec::new(),
            epsilon: Vec::new(),
            starts: BTreeSet::new(),
            accepts: BTreeSet::new(),
        }
    }

    /// Adds a fresh state and returns its id.
    pub fn add_state(&mut self) -> StateId {
        self.transitions.push(HashMap::new());
        self.epsilon.push(BTreeSet::new());
        self.transitions.len() - 1
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.transitions.len()
    }

    /// Marks `q` as an initial state.
    pub fn set_start(&mut self, q: StateId) {
        self.starts.insert(q);
    }

    /// Marks `q` as accepting.
    pub fn set_accept(&mut self, q: StateId) {
        self.accepts.insert(q);
    }

    /// Whether `q` is accepting.
    pub fn is_accept(&self, q: StateId) -> bool {
        self.accepts.contains(&q)
    }

    /// The set of initial states.
    pub fn starts(&self) -> &BTreeSet<StateId> {
        &self.starts
    }

    /// The set of accepting states.
    pub fn accepts(&self) -> &BTreeSet<StateId> {
        &self.accepts
    }

    /// Adds a labeled transition `q --a--> r`.
    pub fn add_transition(&mut self, q: StateId, a: Symbol, r: StateId) {
        self.transitions[q].entry(a).or_default().insert(r);
    }

    /// Adds an ε-transition `q --ε--> r`.
    pub fn add_epsilon(&mut self, q: StateId, r: StateId) {
        self.epsilon[q].insert(r);
    }

    /// Successors of `q` on symbol `a` (without ε-closure).
    pub fn successors(&self, q: StateId, a: Symbol) -> impl Iterator<Item = StateId> + '_ {
        self.transitions[q]
            .get(&a)
            .into_iter()
            .flat_map(|s| s.iter().copied())
    }

    /// Iterates over all labeled transitions `(q, a, r)`.
    pub fn transitions(&self) -> impl Iterator<Item = (StateId, Symbol, StateId)> + '_ {
        self.transitions.iter().enumerate().flat_map(|(q, m)| {
            m.iter()
                .flat_map(move |(&a, set)| set.iter().map(move |&r| (q, a, r)))
        })
    }

    /// Iterates over all ε-transitions `(q, r)`.
    pub fn epsilon_transitions(&self) -> impl Iterator<Item = (StateId, StateId)> + '_ {
        self.epsilon
            .iter()
            .enumerate()
            .flat_map(|(q, set)| set.iter().map(move |&r| (q, r)))
    }

    /// ε-closure of a set of states.
    pub fn epsilon_closure(&self, set: &BTreeSet<StateId>) -> BTreeSet<StateId> {
        let mut closure = set.clone();
        let mut queue: VecDeque<StateId> = set.iter().copied().collect();
        while let Some(q) = queue.pop_front() {
            for &r in &self.epsilon[q] {
                if closure.insert(r) {
                    queue.push_back(r);
                }
            }
        }
        closure
    }

    /// Whether the NFA accepts `word`.
    pub fn accepts_word(&self, word: &[Symbol]) -> bool {
        let mut current = self.epsilon_closure(&self.starts);
        for &a in word {
            let mut next = BTreeSet::new();
            for &q in &current {
                for r in self.successors(q, a) {
                    next.insert(r);
                }
            }
            current = self.epsilon_closure(&next);
            if current.is_empty() {
                return false;
            }
        }
        current.iter().any(|q| self.accepts.contains(q))
    }

    /// The reversal automaton: accepts `w` iff `self` accepts `w` reversed.
    ///
    /// Used for the `p(X, c)` goal form of Theorem 3.3, where the selection
    /// binds the *second* argument and the natural construction is
    /// right-linear / reversed.
    pub fn reversed(&self) -> Nfa {
        let mut rev = Nfa::new(self.alphabet.clone());
        for _ in 0..self.num_states() {
            rev.add_state();
        }
        for (q, a, r) in self.transitions() {
            rev.add_transition(r, a, q);
        }
        for (q, r) in self.epsilon_transitions() {
            rev.add_epsilon(r, q);
        }
        for &q in &self.accepts {
            rev.set_start(q);
        }
        for &q in &self.starts {
            rev.set_accept(q);
        }
        rev
    }

    /// Union of two NFAs over the same alphabet (language union).
    pub fn union(&self, other: &Nfa) -> Nfa {
        assert_eq!(
            self.alphabet, other.alphabet,
            "union requires a shared alphabet"
        );
        let mut out = self.clone();
        let offset = out.num_states();
        for _ in 0..other.num_states() {
            out.add_state();
        }
        for (q, a, r) in other.transitions() {
            out.add_transition(q + offset, a, r + offset);
        }
        for (q, r) in other.epsilon_transitions() {
            out.add_epsilon(q + offset, r + offset);
        }
        for &q in other.starts() {
            out.set_start(q + offset);
        }
        for &q in other.accepts() {
            out.set_accept(q + offset);
        }
        out
    }

    /// Concatenation: the language `L(self) · L(other)`.
    pub fn concat(&self, other: &Nfa) -> Nfa {
        assert_eq!(
            self.alphabet, other.alphabet,
            "concat requires a shared alphabet"
        );
        let mut out = self.clone();
        let offset = out.num_states();
        for _ in 0..other.num_states() {
            out.add_state();
        }
        for (q, a, r) in other.transitions() {
            out.add_transition(q + offset, a, r + offset);
        }
        for (q, r) in other.epsilon_transitions() {
            out.add_epsilon(q + offset, r + offset);
        }
        let old_accepts: Vec<StateId> = out.accepts.iter().copied().collect();
        out.accepts.clear();
        for &f in &old_accepts {
            for &s in other.starts() {
                out.add_epsilon(f, s + offset);
            }
        }
        for &q in other.accepts() {
            out.set_accept(q + offset);
        }
        out
    }

    /// Kleene star of the language.
    pub fn star(&self) -> Nfa {
        let mut out = self.clone();
        let new_start = out.add_state();
        for &s in &out.starts.clone() {
            out.add_epsilon(new_start, s);
        }
        for &f in &out.accepts.clone() {
            out.add_epsilon(f, new_start);
        }
        out.starts.clear();
        out.set_start(new_start);
        out.set_accept(new_start);
        out
    }

    /// An NFA accepting exactly the single word `word`.
    pub fn from_word(alphabet: Alphabet, word: &[Symbol]) -> Nfa {
        let mut nfa = Nfa::new(alphabet);
        let mut q = nfa.add_state();
        nfa.set_start(q);
        for &a in word {
            let r = nfa.add_state();
            nfa.add_transition(q, a, r);
            q = r;
        }
        nfa.set_accept(q);
        nfa
    }

    /// An NFA accepting the empty language.
    pub fn empty(alphabet: Alphabet) -> Nfa {
        Nfa::new(alphabet)
    }

    /// An NFA accepting `Σ*` (all words).
    pub fn sigma_star(alphabet: Alphabet) -> Nfa {
        let mut nfa = Nfa::new(alphabet);
        let q = nfa.add_state();
        nfa.set_start(q);
        nfa.set_accept(q);
        for a in nfa.alphabet.symbols().collect::<Vec<_>>() {
            nfa.add_transition(q, a, q);
        }
        nfa
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ab() -> (Alphabet, Symbol, Symbol) {
        let a = Alphabet::from_names(["a", "b"]);
        let sa = a.get("a").unwrap();
        let sb = a.get("b").unwrap();
        (a, sa, sb)
    }

    #[test]
    fn single_word_acceptance() {
        let (al, a, b) = ab();
        let nfa = Nfa::from_word(al, &[a, b, a]);
        assert!(nfa.accepts_word(&[a, b, a]));
        assert!(!nfa.accepts_word(&[a, b]));
        assert!(!nfa.accepts_word(&[]));
        assert!(!nfa.accepts_word(&[a, b, a, a]));
    }

    #[test]
    fn union_accepts_both() {
        let (al, a, b) = ab();
        let n1 = Nfa::from_word(al.clone(), &[a]);
        let n2 = Nfa::from_word(al, &[b, b]);
        let u = n1.union(&n2);
        assert!(u.accepts_word(&[a]));
        assert!(u.accepts_word(&[b, b]));
        assert!(!u.accepts_word(&[b]));
    }

    #[test]
    fn concat_and_star() {
        let (al, a, b) = ab();
        let n1 = Nfa::from_word(al.clone(), &[a]);
        let n2 = Nfa::from_word(al, &[b]);
        let cat = n1.concat(&n2); // {ab}
        assert!(cat.accepts_word(&[a, b]));
        assert!(!cat.accepts_word(&[a]));
        let st = cat.star(); // (ab)*
        assert!(st.accepts_word(&[]));
        assert!(st.accepts_word(&[a, b, a, b]));
        assert!(!st.accepts_word(&[a, b, a]));
    }

    #[test]
    fn reversal() {
        let (al, a, b) = ab();
        let nfa = Nfa::from_word(al, &[a, a, b]);
        let rev = nfa.reversed();
        assert!(rev.accepts_word(&[b, a, a]));
        assert!(!rev.accepts_word(&[a, a, b]));
    }

    #[test]
    fn sigma_star_accepts_everything() {
        let (al, a, b) = ab();
        let nfa = Nfa::sigma_star(al);
        assert!(nfa.accepts_word(&[]));
        assert!(nfa.accepts_word(&[a, b, b, a]));
    }

    #[test]
    fn empty_language() {
        let (al, a, _) = ab();
        let nfa = Nfa::empty(al);
        assert!(!nfa.accepts_word(&[]));
        assert!(!nfa.accepts_word(&[a]));
    }

    #[test]
    fn epsilon_closure_chases_chains() {
        let (al, _, _) = ab();
        let mut nfa = Nfa::new(al);
        let q0 = nfa.add_state();
        let q1 = nfa.add_state();
        let q2 = nfa.add_state();
        nfa.add_epsilon(q0, q1);
        nfa.add_epsilon(q1, q2);
        let c = nfa.epsilon_closure(&BTreeSet::from([q0]));
        assert_eq!(c, BTreeSet::from([q0, q1, q2]));
    }
}
