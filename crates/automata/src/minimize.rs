//! DFA minimization (Hopcroft's partition-refinement algorithm) and
//! canonical forms.
//!
//! Minimization matters twice in this reproduction: it keeps the monadic
//! rewrites produced by Theorem 3.3's "if" direction small (one monadic
//! IDB per DFA state), and a canonical minimal DFA gives a second,
//! independent language-equivalence check (isomorphism of minimal DFAs)
//! used to cross-validate the product-based test in [`crate::equiv`].

use std::collections::{BTreeMap, HashMap, VecDeque};

use crate::alphabet::Symbol;
use crate::dfa::Dfa;
use crate::nfa::StateId;

/// Returns the minimal DFA for the language of `dfa`.
///
/// The result is restricted to states reachable from the start, has at most
/// one dead (non-live) state, and is unique up to state renaming. States
/// are numbered canonically by a BFS from the start state with symbols in
/// alphabet order, so two calls on language-equal inputs produce *identical*
/// tables (see [`canonicalize`]).
pub fn minimize(dfa: &Dfa) -> Dfa {
    let reachable = reachable_order(dfa);
    if reachable.is_empty() {
        return dfa.clone();
    }
    // Re-index to reachable states only.
    let mut index_of = vec![usize::MAX; dfa.num_states()];
    for (i, &q) in reachable.iter().enumerate() {
        index_of[q] = i;
    }
    let n = reachable.len();
    let symbols: Vec<Symbol> = dfa.alphabet.symbols().collect();
    let k = symbols.len();
    let trans: Vec<Vec<usize>> = reachable
        .iter()
        .map(|&q| symbols.iter().map(|&a| index_of[dfa.step(q, a)]).collect())
        .collect();
    let accepting: Vec<bool> = reachable.iter().map(|&q| dfa.is_accept(q)).collect();

    // Hopcroft partition refinement.
    // partition: class id per state; classes: list of member lists.
    let mut class_of: Vec<usize> = accepting.iter().map(|&b| usize::from(b)).collect();
    let has_accepting = accepting.iter().any(|&b| b);
    let has_rejecting = accepting.iter().any(|&b| !b);
    let mut num_classes = usize::from(has_accepting) + usize::from(has_rejecting);
    if !has_accepting {
        // all rejecting: single class 0 already
        class_of.fill(0);
        num_classes = 1;
    } else if !has_rejecting {
        class_of.fill(0);
        num_classes = 1;
    }

    // Precompute reverse transitions: rev[a][q] = predecessors of q on a.
    let mut rev: Vec<Vec<Vec<usize>>> = vec![vec![Vec::new(); n]; k];
    for (q, row) in trans.iter().enumerate() {
        for (ai, &r) in row.iter().enumerate() {
            rev[ai][r].push(q);
        }
    }

    let mut worklist: VecDeque<(usize, usize)> = VecDeque::new(); // (class, symbol index)
    for ai in 0..k {
        for c in 0..num_classes {
            worklist.push_back((c, ai));
        }
    }

    let mut members: Vec<Vec<usize>> = vec![Vec::new(); num_classes];
    for (q, &c) in class_of.iter().enumerate() {
        members[c].push(q);
    }

    while let Some((c, ai)) = worklist.pop_front() {
        // X = states with a transition on `ai` into class `c`.
        let mut x: Vec<usize> = Vec::new();
        for &q in &members[c] {
            x.extend(rev[ai][q].iter().copied());
        }
        if x.is_empty() {
            continue;
        }
        // Group X by current class, then split classes.
        let mut hits: HashMap<usize, Vec<usize>> = HashMap::new();
        for q in x {
            hits.entry(class_of[q]).or_default().push(q);
        }
        for (cls, hit) in hits {
            if hit.len() == members[cls].len() {
                continue; // no split
            }
            // Split class `cls` into hit / rest.
            let new_cls = members.len();
            let mut hit_sorted = hit;
            hit_sorted.sort_unstable();
            hit_sorted.dedup();
            if hit_sorted.len() == members[cls].len() {
                continue;
            }
            for &q in &hit_sorted {
                class_of[q] = new_cls;
            }
            members[cls].retain(|&q| class_of[q] == cls);
            members.push(hit_sorted);
            for aj in 0..k {
                // Conservative variant of Hopcroft's worklist rule: after a
                // split, enqueue *both* parts for every symbol. Textbook
                // Hopcroft enqueues only the smaller part when the parent
                // class is not pending; enqueueing both is always correct
                // and the asymptotic loss is irrelevant at our state counts
                // (rewrite DFAs have tens of states).
                worklist.push_back((cls, aj));
                worklist.push_back((new_cls, aj));
            }
        }
    }

    // Build quotient DFA.
    let num_classes = members.len();
    let mut qtrans = vec![vec![usize::MAX; k]; num_classes];
    let mut qacc = vec![false; num_classes];
    for q in 0..n {
        let c = class_of[q];
        qacc[c] = accepting[q];
        for ai in 0..k {
            qtrans[c][ai] = class_of[trans[q][ai]];
        }
    }
    // Some classes may be empty (created then fully drained) — compact.
    let live: Vec<usize> = (0..num_classes).filter(|&c| !members[c].is_empty()).collect();
    let mut remap = vec![usize::MAX; num_classes];
    for (i, &c) in live.iter().enumerate() {
        remap[c] = i;
    }
    let transitions: Vec<Vec<StateId>> = live
        .iter()
        .map(|&c| qtrans[c].iter().map(|&r| remap[r]).collect())
        .collect();
    let accepting: Vec<bool> = live.iter().map(|&c| qacc[c]).collect();
    let start = remap[class_of[0]]; // reachable[0] is the original start

    canonicalize(&Dfa::from_parts(
        dfa.alphabet.clone(),
        transitions,
        start,
        accepting,
    ))
}

/// Renumbers states by BFS discovery order (start first, symbols in
/// alphabet order), yielding a canonical table: two isomorphic DFAs
/// canonicalize to byte-identical tables.
pub fn canonicalize(dfa: &Dfa) -> Dfa {
    let order = reachable_order(dfa);
    let mut index_of = vec![usize::MAX; dfa.num_states()];
    for (i, &q) in order.iter().enumerate() {
        index_of[q] = i;
    }
    let symbols: Vec<Symbol> = dfa.alphabet.symbols().collect();
    let transitions: Vec<Vec<StateId>> = order
        .iter()
        .map(|&q| symbols.iter().map(|&a| index_of[dfa.step(q, a)]).collect())
        .collect();
    let accepting: Vec<bool> = order.iter().map(|&q| dfa.is_accept(q)).collect();
    Dfa::from_parts(dfa.alphabet.clone(), transitions, 0, accepting)
}

/// BFS order of reachable states, deterministic in alphabet order.
fn reachable_order(dfa: &Dfa) -> Vec<StateId> {
    if dfa.num_states() == 0 {
        return Vec::new();
    }
    let symbols: Vec<Symbol> = dfa.alphabet.symbols().collect();
    let mut seen = vec![false; dfa.num_states()];
    let mut order = Vec::new();
    let mut queue = VecDeque::from([dfa.start()]);
    seen[dfa.start()] = true;
    while let Some(q) = queue.pop_front() {
        order.push(q);
        for &a in &symbols {
            let r = dfa.step(q, a);
            if !seen[r] {
                seen[r] = true;
                queue.push_back(r);
            }
        }
    }
    order
}

/// Checks whether two canonical DFAs are byte-identical (used as the
/// isomorphism test after [`minimize`]).
pub fn tables_identical(a: &Dfa, b: &Dfa) -> bool {
    if a.alphabet != b.alphabet
        || a.num_states() != b.num_states()
        || a.start() != b.start()
        || a.accepting() != b.accepting()
    {
        return false;
    }
    a.transition_table() == b.transition_table()
}

/// Moore's O(kn²) partition refinement — a slow, obviously-correct
/// reference implementation used by the property tests to validate
/// [`minimize`].
pub fn minimize_moore(dfa: &Dfa) -> Dfa {
    let order = reachable_order(dfa);
    if order.is_empty() {
        return dfa.clone();
    }
    let mut index_of = vec![usize::MAX; dfa.num_states()];
    for (i, &q) in order.iter().enumerate() {
        index_of[q] = i;
    }
    let symbols: Vec<Symbol> = dfa.alphabet.symbols().collect();
    let n = order.len();
    let trans: Vec<Vec<usize>> = order
        .iter()
        .map(|&q| symbols.iter().map(|&a| index_of[dfa.step(q, a)]).collect())
        .collect();
    let accepting: Vec<bool> = order.iter().map(|&q| dfa.is_accept(q)).collect();

    let mut class_of: Vec<usize> = accepting.iter().map(|&b| usize::from(b)).collect();
    loop {
        // signature: (class, classes of successors)
        let mut sig_ids: BTreeMap<(usize, Vec<usize>), usize> = BTreeMap::new();
        let mut next_class = vec![0usize; n];
        for q in 0..n {
            let sig = (
                class_of[q],
                trans[q].iter().map(|&r| class_of[r]).collect::<Vec<_>>(),
            );
            let next_id = sig_ids.len();
            let id = *sig_ids.entry(sig).or_insert(next_id);
            next_class[q] = id;
        }
        if next_class == class_of {
            break;
        }
        class_of = next_class;
    }
    let num_classes = class_of.iter().copied().max().unwrap_or(0) + 1;
    let mut qtrans = vec![vec![usize::MAX; symbols.len()]; num_classes];
    let mut qacc = vec![false; num_classes];
    for q in 0..n {
        let c = class_of[q];
        qacc[c] = accepting[q];
        for (ai, &r) in trans[q].iter().enumerate() {
            qtrans[c][ai] = class_of[r];
        }
    }
    canonicalize(&Dfa::from_parts(
        dfa.alphabet.clone(),
        qtrans,
        class_of[0],
        qacc,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::nfa::Nfa;

    fn ab() -> (Alphabet, Symbol, Symbol) {
        let a = Alphabet::from_names(["a", "b"]);
        (a.clone(), a.get("a").unwrap(), a.get("b").unwrap())
    }

    #[test]
    fn minimize_collapses_redundant_states() {
        let (al, a, b) = ab();
        // (a|b)(a|b) built wastefully: 'aa' | 'ab' | 'ba' | 'bb'
        let words = [[a, a], [a, b], [b, a], [b, b]];
        let mut nfa = Nfa::from_word(al.clone(), &words[0]);
        for w in &words[1..] {
            nfa = nfa.union(&Nfa::from_word(al.clone(), w));
        }
        let dfa = Dfa::from_nfa(&nfa);
        let min = minimize(&dfa);
        // minimal DFA for "exactly two letters": q0 -> q1 -> q2(acc) -> sink
        assert_eq!(min.num_states(), 4);
        assert!(min.accepts_word(&[a, b]));
        assert!(!min.accepts_word(&[a]));
        assert!(!min.accepts_word(&[a, b, a]));
    }

    #[test]
    fn minimize_agrees_with_moore() {
        let (al, a, b) = ab();
        let nfa = Nfa::from_word(al.clone(), &[a])
            .star()
            .concat(&Nfa::from_word(al, &[b]));
        let dfa = Dfa::from_nfa(&nfa);
        let m1 = minimize(&dfa);
        let m2 = minimize_moore(&dfa);
        assert!(tables_identical(&m1, &m2));
    }

    #[test]
    fn minimize_is_idempotent() {
        let (al, a, b) = ab();
        let nfa = Nfa::from_word(al, &[a, b]).star();
        let dfa = Dfa::from_nfa(&nfa);
        let m1 = minimize(&dfa);
        let m2 = minimize(&m1);
        assert!(tables_identical(&m1, &m2));
        let _ = al;
    }

    #[test]
    fn canonical_equal_for_isomorphic_dfas() {
        let (al, a, b) = ab();
        // Build (ab)* two different ways.
        let d1 = Dfa::from_nfa(
            &Nfa::from_word(al.clone(), &[a]).concat(&Nfa::from_word(al.clone(), &[b])).star(),
        );
        let d2 = Dfa::from_nfa(&Nfa::from_word(al, &[a, b]).star());
        assert!(tables_identical(&minimize(&d1), &minimize(&d2)));
    }

    #[test]
    fn minimize_empty_language() {
        let (al, a, _) = ab();
        let dfa = Dfa::from_nfa(&Nfa::empty(al));
        let min = minimize(&dfa);
        assert!(min.is_empty());
        assert!(!min.accepts_word(&[a]));
        assert_eq!(min.num_states(), 1); // single dead state
    }
}
