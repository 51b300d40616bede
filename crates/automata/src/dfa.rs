//! Deterministic finite automata: subset construction, products,
//! complement, and the language queries (emptiness, finiteness,
//! membership, shortest word, bounded enumeration) that drive the
//! decision procedures of Theorem 3.3 and Section 7.

use std::collections::{BTreeSet, HashMap, VecDeque};

use crate::alphabet::{Alphabet, Symbol};
use crate::nfa::{Nfa, StateId};

/// A deterministic finite automaton.
///
/// The transition function is *total*: every state has an outgoing edge on
/// every alphabet symbol. Totality is maintained by construction (a sink
/// state is added when needed), which makes complementation a pure
/// accept-flip and keeps product constructions simple.
#[derive(Clone, Debug)]
pub struct Dfa {
    /// Shared alphabet.
    pub alphabet: Alphabet,
    /// `transitions[q][a.index()]` is the unique successor of `q` on `a`.
    transitions: Vec<Vec<StateId>>,
    /// Initial state.
    start: StateId,
    /// `accepting[q]` marks accepting states.
    accepting: Vec<bool>,
}

impl Dfa {
    /// Builds a DFA from raw parts. `transitions[q]` must have exactly one
    /// entry per alphabet symbol.
    pub fn from_parts(
        alphabet: Alphabet,
        transitions: Vec<Vec<StateId>>,
        start: StateId,
        accepting: Vec<bool>,
    ) -> Self {
        let k = alphabet.len();
        assert_eq!(transitions.len(), accepting.len());
        assert!(start < transitions.len() || transitions.is_empty());
        for row in &transitions {
            assert_eq!(row.len(), k, "transition table must be total");
        }
        Self {
            alphabet,
            transitions,
            start,
            accepting,
        }
    }

    /// Determinizes an NFA by subset construction (ε-closures included).
    pub fn from_nfa(nfa: &Nfa) -> Self {
        let alphabet = nfa.alphabet.clone();
        let symbols: Vec<Symbol> = alphabet.symbols().collect();
        let mut subset_ids: HashMap<BTreeSet<StateId>, StateId> = HashMap::new();
        let mut transitions: Vec<Vec<StateId>> = Vec::new();
        let mut accepting: Vec<bool> = Vec::new();
        let mut queue: VecDeque<BTreeSet<StateId>> = VecDeque::new();

        let start_set = nfa.epsilon_closure(nfa.starts());
        subset_ids.insert(start_set.clone(), 0);
        transitions.push(vec![usize::MAX; symbols.len()]);
        accepting.push(start_set.iter().any(|&q| nfa.is_accept(q)));
        queue.push_back(start_set);

        while let Some(set) = queue.pop_front() {
            let id = subset_ids[&set];
            for &a in &symbols {
                let mut next = BTreeSet::new();
                for &q in &set {
                    next.extend(nfa.successors(q, a));
                }
                let next = nfa.epsilon_closure(&next);
                let next_id = *subset_ids.entry(next.clone()).or_insert_with(|| {
                    let nid = transitions.len();
                    transitions.push(vec![usize::MAX; symbols.len()]);
                    accepting.push(next.iter().any(|&q| nfa.is_accept(q)));
                    queue.push_back(next);
                    nid
                });
                transitions[id][a.index()] = next_id;
            }
        }
        Self {
            alphabet,
            transitions,
            start: 0,
            accepting,
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.transitions.len()
    }

    /// Initial state.
    pub fn start(&self) -> StateId {
        self.start
    }

    /// Whether state `q` is accepting.
    pub fn is_accept(&self, q: StateId) -> bool {
        self.accepting[q]
    }

    /// The unique successor of `q` on symbol `a`.
    pub fn step(&self, q: StateId, a: Symbol) -> StateId {
        self.transitions[q][a.index()]
    }

    /// Runs the DFA on `word` from the start state.
    pub fn run(&self, word: &[Symbol]) -> StateId {
        word.iter().fold(self.start, |q, &a| self.step(q, a))
    }

    /// Whether the DFA accepts `word`.
    pub fn accepts_word(&self, word: &[Symbol]) -> bool {
        self.accepting[self.run(word)]
    }

    /// Complement: accepts exactly the words this DFA rejects.
    pub fn complement(&self) -> Dfa {
        let mut out = self.clone();
        for b in &mut out.accepting {
            *b = !*b;
        }
        out
    }

    /// Product construction with a boolean combiner on acceptance.
    ///
    /// `combine(self_accepts, other_accepts)` decides acceptance of the
    /// pair state; intersection, union and difference are thin wrappers.
    pub fn product(&self, other: &Dfa, combine: impl Fn(bool, bool) -> bool) -> Dfa {
        assert_eq!(
            self.alphabet, other.alphabet,
            "product requires a shared alphabet"
        );
        let symbols: Vec<Symbol> = self.alphabet.symbols().collect();
        let mut ids: HashMap<(StateId, StateId), StateId> = HashMap::new();
        let mut transitions: Vec<Vec<StateId>> = Vec::new();
        let mut accepting: Vec<bool> = Vec::new();
        let mut queue = VecDeque::new();

        let start = (self.start, other.start);
        ids.insert(start, 0);
        transitions.push(vec![usize::MAX; symbols.len()]);
        accepting.push(combine(
            self.accepting[start.0],
            other.accepting[start.1],
        ));
        queue.push_back(start);

        while let Some((p, q)) = queue.pop_front() {
            let id = ids[&(p, q)];
            for &a in &symbols {
                let next = (self.step(p, a), other.step(q, a));
                let next_id = *ids.entry(next).or_insert_with(|| {
                    let nid = transitions.len();
                    transitions.push(vec![usize::MAX; symbols.len()]);
                    accepting.push(combine(self.accepting[next.0], other.accepting[next.1]));
                    queue.push_back(next);
                    nid
                });
                transitions[id][a.index()] = next_id;
            }
        }
        Dfa {
            alphabet: self.alphabet.clone(),
            transitions,
            start: 0,
            accepting,
        }
    }

    /// Intersection of languages.
    pub fn intersect(&self, other: &Dfa) -> Dfa {
        self.product(other, |x, y| x && y)
    }

    /// Union of languages.
    pub fn union(&self, other: &Dfa) -> Dfa {
        self.product(other, |x, y| x || y)
    }

    /// Difference `L(self) \ L(other)`.
    pub fn difference(&self, other: &Dfa) -> Dfa {
        self.product(other, |x, y| x && !y)
    }

    /// Symmetric difference — empty iff the two languages are equal.
    pub fn symmetric_difference(&self, other: &Dfa) -> Dfa {
        self.product(other, |x, y| x != y)
    }

    /// Whether the language is empty (no accepting state reachable).
    pub fn is_empty(&self) -> bool {
        self.find_accepted_word().is_none()
    }

    /// A shortest accepted word, if any (BFS).
    pub fn find_accepted_word(&self) -> Option<Vec<Symbol>> {
        if self.transitions.is_empty() {
            return None;
        }
        let symbols: Vec<Symbol> = self.alphabet.symbols().collect();
        let mut pred: Vec<Option<(StateId, Symbol)>> = vec![None; self.num_states()];
        let mut seen = vec![false; self.num_states()];
        let mut queue = VecDeque::new();
        seen[self.start] = true;
        queue.push_back(self.start);
        let mut hit = None;
        if self.accepting[self.start] {
            hit = Some(self.start);
        }
        while hit.is_none() {
            let Some(q) = queue.pop_front() else { break };
            for &a in &symbols {
                let r = self.step(q, a);
                if !seen[r] {
                    seen[r] = true;
                    pred[r] = Some((q, a));
                    if self.accepting[r] {
                        hit = Some(r);
                    }
                    queue.push_back(r);
                }
            }
        }
        let mut q = hit?;
        let mut word = Vec::new();
        while let Some((p, a)) = pred[q] {
            word.push(a);
            q = p;
        }
        word.reverse();
        Some(word)
    }

    /// Whether the language is finite.
    ///
    /// The language is infinite iff some state that is both reachable from
    /// the start and co-reachable to an accepting state lies on a cycle.
    pub fn is_finite(&self) -> bool {
        let live = self.live_states();
        // Detect a cycle within the live subgraph via iterative DFS coloring.
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let mut color = vec![Color::White; self.num_states()];
        let symbols: Vec<Symbol> = self.alphabet.symbols().collect();
        for &root in &live {
            if color[root] != Color::White {
                continue;
            }
            // stack of (state, next symbol index to explore)
            let mut stack: Vec<(StateId, usize)> = vec![(root, 0)];
            color[root] = Color::Gray;
            while let Some(&mut (q, ref mut i)) = stack.last_mut() {
                if *i < symbols.len() {
                    let a = symbols[*i];
                    *i += 1;
                    let r = self.step(q, a);
                    if !live.contains(&r) {
                        continue;
                    }
                    match color[r] {
                        Color::Gray => return false, // cycle among live states
                        Color::White => {
                            color[r] = Color::Gray;
                            stack.push((r, 0));
                        }
                        Color::Black => {}
                    }
                } else {
                    color[q] = Color::Black;
                    stack.pop();
                }
            }
        }
        true
    }

    /// States reachable from the start *and* co-reachable to acceptance.
    pub fn live_states(&self) -> BTreeSet<StateId> {
        if self.transitions.is_empty() {
            return BTreeSet::new();
        }
        let symbols: Vec<Symbol> = self.alphabet.symbols().collect();
        // forward reachability
        let mut fwd = vec![false; self.num_states()];
        let mut queue = VecDeque::from([self.start]);
        fwd[self.start] = true;
        while let Some(q) = queue.pop_front() {
            for &a in &symbols {
                let r = self.step(q, a);
                if !fwd[r] {
                    fwd[r] = true;
                    queue.push_back(r);
                }
            }
        }
        // backward reachability from accepting states
        let mut rev: Vec<Vec<StateId>> = vec![Vec::new(); self.num_states()];
        for q in 0..self.num_states() {
            for &a in &symbols {
                rev[self.step(q, a)].push(q);
            }
        }
        let mut bwd = vec![false; self.num_states()];
        let mut queue: VecDeque<StateId> = (0..self.num_states())
            .filter(|&q| self.accepting[q])
            .collect();
        for &q in &queue {
            bwd[q] = true;
        }
        while let Some(q) = queue.pop_front() {
            for &p in &rev[q] {
                if !bwd[p] {
                    bwd[p] = true;
                    queue.push_back(p);
                }
            }
        }
        (0..self.num_states())
            .filter(|&q| fwd[q] && bwd[q])
            .collect()
    }

    /// Enumerates all accepted words of length at most `max_len`,
    /// in length-lexicographic order. The frontier keeps only paths
    /// through live states, so it grows with the language, not with
    /// `|Σ|^len`.
    pub fn words_up_to(&self, max_len: usize) -> Vec<Vec<Symbol>> {
        let symbols: Vec<Symbol> = self.alphabet.symbols().collect();
        let live = self.live_states();
        let mut out = Vec::new();
        if !live.contains(&self.start) {
            return out;
        }
        // frontier of (state, word) pairs at the current length
        let mut frontier: Vec<(StateId, Vec<Symbol>)> = vec![(self.start, Vec::new())];
        if self.accepting[self.start] {
            out.push(Vec::new());
        }
        for _ in 0..max_len {
            let mut next = Vec::new();
            for (q, w) in &frontier {
                for &a in &symbols {
                    let r = self.step(*q, a);
                    // prune states that can never reach acceptance
                    if !live.contains(&r) {
                        continue;
                    }
                    let mut w2 = w.clone();
                    w2.push(a);
                    if self.accepting[r] {
                        out.push(w2.clone());
                    }
                    next.push((r, w2));
                }
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        out.sort_by(|x, y| x.len().cmp(&y.len()).then_with(|| x.cmp(y)));
        out.dedup();
        out
    }

    /// Counts accepted words of each length `0..=max_len` (dynamic
    /// programming; useful for the experiment harness's language-size
    /// series).
    pub fn count_words_by_length(&self, max_len: usize) -> Vec<u64> {
        let symbols: Vec<Symbol> = self.alphabet.symbols().collect();
        let n = self.num_states();
        let mut counts = Vec::with_capacity(max_len + 1);
        // paths[q] = number of paths of current length from start to q
        let mut paths = vec![0u64; n];
        paths[self.start] = 1;
        let accepted =
            |paths: &[u64]| -> u64 { (0..n).filter(|&q| self.accepting[q]).map(|q| paths[q]).sum() };
        counts.push(accepted(&paths));
        for _ in 0..max_len {
            let mut next = vec![0u64; n];
            for (q, &count) in paths.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                for &a in &symbols {
                    let r = self.step(q, a);
                    next[r] = next[r].saturating_add(count);
                }
            }
            paths = next;
            counts.push(accepted(&paths));
        }
        counts
    }

    /// All accepted words of a finite language. Panics if the language is
    /// infinite (check [`Dfa::is_finite`] first).
    pub fn finite_language(&self) -> Vec<Vec<Symbol>> {
        assert!(self.is_finite(), "finite_language on an infinite language");
        // Any accepted word of a finite language has length < number of
        // live states (otherwise it would repeat a live state, giving a
        // pumpable cycle).
        let bound = self.live_states().len();
        self.words_up_to(bound)
    }

    /// Converts back to an NFA (for reuse of NFA combinators).
    pub fn to_nfa(&self) -> Nfa {
        let mut nfa = Nfa::new(self.alphabet.clone());
        for _ in 0..self.num_states() {
            nfa.add_state();
        }
        for q in 0..self.num_states() {
            for a in self.alphabet.symbols() {
                nfa.add_transition(q, a, self.step(q, a));
            }
            if self.accepting[q] {
                nfa.set_accept(q);
            }
        }
        if self.num_states() > 0 {
            nfa.set_start(self.start);
        }
        nfa
    }

    /// The accepting-state bitmap.
    pub fn accepting(&self) -> &[bool] {
        &self.accepting
    }

    /// The raw transition table (`[state][symbol index] -> state`).
    pub fn transition_table(&self) -> &[Vec<StateId>] {
        &self.transitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;

    fn ab() -> (Alphabet, Symbol, Symbol) {
        let a = Alphabet::from_names(["a", "b"]);
        (a.clone(), a.get("a").unwrap(), a.get("b").unwrap())
    }

    fn word_dfa(word: &[Symbol]) -> Dfa {
        let (al, _, _) = ab();
        Dfa::from_nfa(&Nfa::from_word(al, word))
    }

    #[test]
    fn determinization_preserves_language() {
        let (al, a, b) = ab();
        // (ab)* via NFA combinators
        let nfa = Nfa::from_word(al.clone(), &[a])
            .concat(&Nfa::from_word(al, &[b]))
            .star();
        let dfa = Dfa::from_nfa(&nfa);
        assert!(dfa.accepts_word(&[]));
        assert!(dfa.accepts_word(&[a, b]));
        assert!(dfa.accepts_word(&[a, b, a, b]));
        assert!(!dfa.accepts_word(&[a]));
        assert!(!dfa.accepts_word(&[b, a]));
    }

    #[test]
    fn complement_flips_membership() {
        let (_, a, b) = ab();
        let dfa = word_dfa(&[a, b]);
        let comp = dfa.complement();
        assert!(!comp.accepts_word(&[a, b]));
        assert!(comp.accepts_word(&[]));
        assert!(comp.accepts_word(&[b, a]));
    }

    #[test]
    fn products() {
        let (al, a, b) = ab();
        // L1 = words starting with a; L2 = words ending with b
        let starts_a = Dfa::from_nfa(
            &Nfa::from_word(al.clone(), &[a]).concat(&Nfa::sigma_star(al.clone())),
        );
        let ends_b =
            Dfa::from_nfa(&Nfa::sigma_star(al.clone()).concat(&Nfa::from_word(al, &[b])));
        let both = starts_a.intersect(&ends_b);
        assert!(both.accepts_word(&[a, b]));
        assert!(both.accepts_word(&[a, a, b]));
        assert!(!both.accepts_word(&[a, a]));
        assert!(!both.accepts_word(&[b, a, b]));
        let either = starts_a.union(&ends_b);
        assert!(either.accepts_word(&[a, a]));
        assert!(either.accepts_word(&[b, b]));
        assert!(!either.accepts_word(&[b, a]));
        let diff = starts_a.difference(&ends_b);
        assert!(diff.accepts_word(&[a, a]));
        assert!(!diff.accepts_word(&[a, b]));
    }

    #[test]
    fn emptiness_and_shortest_word() {
        let (al, a, b) = ab();
        let dfa = word_dfa(&[a, b, b]);
        assert!(!dfa.is_empty());
        assert_eq!(dfa.find_accepted_word().unwrap(), vec![a, b, b]);
        let empty = Dfa::from_nfa(&Nfa::empty(al));
        assert!(empty.is_empty());
        assert!(empty.find_accepted_word().is_none());
    }

    #[test]
    fn finiteness() {
        let (al, a, b) = ab();
        assert!(word_dfa(&[a, b]).is_finite());
        let star = Dfa::from_nfa(&Nfa::from_word(al.clone(), &[a]).star());
        assert!(!star.is_finite());
        let empty = Dfa::from_nfa(&Nfa::empty(al));
        assert!(empty.is_finite());
    }

    #[test]
    fn finite_language_enumeration() {
        let (al, a, b) = ab();
        let n1 = Nfa::from_word(al.clone(), &[a, b]);
        let n2 = Nfa::from_word(al, &[b]);
        let dfa = Dfa::from_nfa(&n1.union(&n2));
        let words = dfa.finite_language();
        assert_eq!(words, vec![vec![b], vec![a, b]]);
    }

    #[test]
    fn words_up_to_enumerates_in_order() {
        let (al, a, _) = ab();
        let star = Dfa::from_nfa(&Nfa::from_word(al, &[a]).star());
        let words = star.words_up_to(3);
        assert_eq!(words, vec![vec![], vec![a], vec![a, a], vec![a, a, a]]);
        // the sink reached on `b` is never expanded: 2^60 paths would be
        assert_eq!(star.words_up_to(60).len(), 61);
    }

    #[test]
    fn count_words_by_length_matches_enumeration() {
        let (al, a, b) = ab();
        // all words over {a,b}: counts should be 1,2,4,8
        let all = Dfa::from_nfa(&Nfa::sigma_star(al));
        assert_eq!(all.count_words_by_length(3), vec![1, 2, 4, 8]);
        let ab_dfa = word_dfa(&[a, b]);
        assert_eq!(ab_dfa.count_words_by_length(3), vec![0, 0, 1, 0]);
    }

    #[test]
    fn symmetric_difference_detects_equality() {
        let (al, a, b) = ab();
        let l1 = Nfa::from_word(al.clone(), &[a]).concat(&Nfa::from_word(al.clone(), &[b]));
        let l2 = Nfa::from_word(al, &[a, b]);
        let d1 = Dfa::from_nfa(&l1);
        let d2 = Dfa::from_nfa(&l2);
        assert!(d1.symmetric_difference(&d2).is_empty());
    }
}
