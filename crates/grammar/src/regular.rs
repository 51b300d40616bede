//! Regular approximation and exact regular compilation of CFGs
//! (Mohri–Nederhof).
//!
//! Section 7 of the paper needs a "**regular envelope** `R(H)`" — a
//! regular superset of `L(H)` to approximate magic-set quotients when the
//! exact quotient is not known to be regular. Mohri & Nederhof's
//! transformation provides exactly this:
//!
//! - A grammar is **strongly regular** when every mutually-recursive SCC
//!   of nonterminals is purely left-linear or purely right-linear *within
//!   the SCC*. Strongly regular grammars compile to finite automata
//!   **exactly** (this covers the paper's Programs A and B, every
//!   non-self-embedding grammar after cleaning, and every grammar built
//!   from a DFA by [`selprop_automata::linear`]).
//! - Any other SCC is transformed into a right-linear over-approximation;
//!   the compiled automaton then recognizes a regular **superset** of
//!   `L(G)`.
//!
//! [`approximate`] reports which case occurred via
//! [`RegularApproximation::exact`] — when `true`, the automaton is a
//! *certificate of regularity* for `L(G)`, which is how the propagation
//! engine (Theorem 3.3(1) "if" direction) establishes regularity.

use std::collections::BTreeSet;

use selprop_automata::dfa::Dfa;
use selprop_automata::nfa::{Nfa, StateId};

use crate::cfg::{Cfg, NonTerminal, Production, Sym};
use crate::clean::normalize;

/// Result of compiling a CFG to a finite automaton.
#[derive(Clone, Debug)]
pub struct RegularApproximation {
    /// Automaton with `L(nfa) ⊇ L(G)`; equality iff `exact`.
    pub nfa: Nfa,
    /// `true` iff the (cleaned) grammar was strongly regular, making the
    /// automaton exact.
    pub exact: bool,
    /// Names of the SCCs that had to be over-approximated (empty iff
    /// `exact`).
    pub approximated_sccs: Vec<Vec<String>>,
}

impl RegularApproximation {
    /// Convenience: determinized form of the automaton.
    pub fn dfa(&self) -> Dfa {
        Dfa::from_nfa(&self.nfa)
    }
}

/// How an SCC's recursion is shaped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SccShape {
    /// No production in the SCC references the SCC (trivial).
    Trivial,
    /// Every in-SCC reference is the last body symbol.
    RightLinear,
    /// Every in-SCC reference is the first body symbol.
    LeftLinear,
    /// Mixed — requires the Mohri–Nederhof transformation.
    Mixed,
}

/// Whether the cleaned form of `g` is strongly regular.
pub fn is_strongly_regular(g: &Cfg) -> bool {
    let (clean, _) = normalize(g);
    let sccs = condensation(&clean);
    sccs.iter()
        .all(|scc| classify_scc(&clean, scc) != SccShape::Mixed)
}

/// Compiles `g` to a finite automaton: exact if strongly regular,
/// otherwise a Mohri–Nederhof regular superset.
pub fn approximate(g: &Cfg) -> RegularApproximation {
    let (clean, eps) = normalize(g);
    if clean.productions.is_empty() {
        let mut nfa = Nfa::empty(g.alphabet.clone());
        if eps {
            let q = nfa.add_state();
            nfa.set_start(q);
            nfa.set_accept(q);
        }
        return RegularApproximation {
            nfa,
            exact: true,
            approximated_sccs: Vec::new(),
        };
    }

    // Transform mixed SCCs to right-linear (the approximation step).
    let mut approximated_sccs = Vec::new();
    let mut work = clean;
    loop {
        let sccs = condensation(&work);
        let mixed = sccs
            .iter()
            .find(|scc| classify_scc(&work, scc) == SccShape::Mixed)
            .cloned();
        match mixed {
            None => break,
            Some(scc) => {
                approximated_sccs.push(
                    scc.iter().map(|n| work.name(*n).to_owned()).collect(),
                );
                work = transform_scc(&work, &scc);
            }
        }
    }
    let exact = approximated_sccs.is_empty();

    // Compile the strongly-regular grammar bottom-up over its SCC DAG.
    let mut lang: Vec<Option<Nfa>> = vec![None; work.num_nonterminals()];
    for scc in condensation(&work) {
        compile_scc(&work, &scc, &mut lang);
    }
    let mut nfa = lang[work.start.index()]
        .clone()
        .unwrap_or_else(|| Nfa::empty(work.alphabet.clone()));
    if eps {
        nfa = nfa.union(&Nfa::from_word(work.alphabet, &[]));
    }
    RegularApproximation {
        nfa,
        exact,
        approximated_sccs,
    }
}

/// SCCs of the nonterminal reference graph, in dependency-first
/// (reverse-topological) order — exactly the order bottom-up compilation
/// wants. Iterative Tarjan.
fn condensation(g: &Cfg) -> Vec<Vec<NonTerminal>> {
    let n = g.num_nonterminals();
    let mut edges: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    for p in &g.productions {
        for s in &p.body {
            if let Sym::N(m) = s {
                edges[p.head.index()].insert(m.index());
            }
        }
    }
    let edges: Vec<Vec<usize>> = edges
        .into_iter()
        .map(|s| s.into_iter().collect())
        .collect();

    let mut index = vec![usize::MAX; n];
    let mut low = vec![usize::MAX; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut counter = 0usize;
    let mut out: Vec<Vec<NonTerminal>> = Vec::new();

    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        // iterative Tarjan: frames of (node, child cursor)
        let mut frames: Vec<(usize, usize)> = vec![(root, 0)];
        index[root] = counter;
        low[root] = counter;
        counter += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some(&mut (v, ref mut cursor)) = frames.last_mut() {
            if *cursor < edges[v].len() {
                let w = edges[v][*cursor];
                *cursor += 1;
                if index[w] == usize::MAX {
                    index[w] = counter;
                    low[w] = counter;
                    counter += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&mut (u, _)) = frames.last_mut() {
                    low[u] = low[u].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack");
                        on_stack[w] = false;
                        scc.push(NonTerminal(w as u32));
                        if w == v {
                            break;
                        }
                    }
                    scc.sort();
                    out.push(scc);
                }
            }
        }
    }
    out
}

/// Classifies the recursion shape of an SCC.
fn classify_scc(g: &Cfg, scc: &[NonTerminal]) -> SccShape {
    let in_scc: BTreeSet<NonTerminal> = scc.iter().copied().collect();
    let mut right_ok = true;
    let mut left_ok = true;
    let mut any = false;
    for p in &g.productions {
        if !in_scc.contains(&p.head) {
            continue;
        }
        let occ: Vec<usize> = p
            .body
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, Sym::N(m) if in_scc.contains(m)))
            .map(|(i, _)| i)
            .collect();
        if occ.is_empty() {
            continue;
        }
        any = true;
        if occ.len() > 1 {
            return SccShape::Mixed;
        }
        let pos = occ[0];
        if pos != p.body.len() - 1 {
            right_ok = false;
        }
        if pos != 0 {
            left_ok = false;
        }
        if !right_ok && !left_ok {
            return SccShape::Mixed;
        }
    }
    if !any {
        SccShape::Trivial
    } else if right_ok {
        SccShape::RightLinear
    } else {
        SccShape::LeftLinear
    }
}

/// The Mohri–Nederhof transformation of one mixed SCC: introduces a primed
/// partner `A'` per nonterminal and rewrites the SCC's productions to a
/// right-linear shape recognizing a superset of the original language.
fn transform_scc(g: &Cfg, scc: &[NonTerminal]) -> Cfg {
    let in_scc: BTreeSet<NonTerminal> = scc.iter().copied().collect();
    let mut out = g.clone();
    // primed partner ids
    let mut primed = std::collections::BTreeMap::new();
    for &a in scc {
        let name = format!("{}'", g.name(a));
        primed.insert(a, out.add_nonterminal(&name));
    }
    let mut new_productions: Vec<Production> = Vec::new();
    for p in &g.productions {
        if !in_scc.contains(&p.head) {
            new_productions.push(p.clone());
            continue;
        }
        // Split body at in-SCC occurrences: α0 B1 α1 B2 ... Bm αm.
        let mut segments: Vec<Vec<Sym>> = vec![Vec::new()];
        let mut bs: Vec<NonTerminal> = Vec::new();
        for &s in &p.body {
            match s {
                Sym::N(m) if in_scc.contains(&m) => {
                    bs.push(m);
                    segments.push(Vec::new());
                }
                other => segments.last_mut().expect("nonempty").push(other),
            }
        }
        let a = p.head;
        let a_primed = primed[&a];
        if bs.is_empty() {
            // A → α0 A'
            let mut body = segments[0].clone();
            body.push(Sym::N(a_primed));
            new_productions.push(Production { head: a, body });
        } else {
            // A → α0 B1
            let mut body = segments[0].clone();
            body.push(Sym::N(bs[0]));
            new_productions.push(Production { head: a, body });
            // Bi' → αi B(i+1)
            for i in 0..bs.len() - 1 {
                let mut body = segments[i + 1].clone();
                body.push(Sym::N(bs[i + 1]));
                new_productions.push(Production {
                    head: primed[&bs[i]],
                    body,
                });
            }
            // Bm' → αm A'
            let m = bs.len() - 1;
            let mut body = segments[m + 1].clone();
            body.push(Sym::N(a_primed));
            new_productions.push(Production {
                head: primed[&bs[m]],
                body,
            });
        }
    }
    // A' → ε for every member (the "forget the return address" step that
    // makes this an over-approximation).
    for &a in scc {
        new_productions.push(Production {
            head: primed[&a],
            body: Vec::new(),
        });
    }
    out.productions = new_productions;
    out
}

/// Compiles one SCC of a strongly-regular grammar, given the automata of
/// all lower SCCs in `lang`.
fn compile_scc(g: &Cfg, scc: &[NonTerminal], lang: &mut [Option<Nfa>]) {
    let shape = classify_scc(g, scc);
    debug_assert_ne!(shape, SccShape::Mixed, "compile requires strong regularity");
    let reverse = shape == SccShape::LeftLinear;
    let in_scc: BTreeSet<NonTerminal> = scc.iter().copied().collect();

    // One shared automaton for the whole SCC: a state per member plus a
    // common final state; bodies are threaded between them.
    let mut nfa = Nfa::new(g.alphabet.clone());
    let mut state_of: std::collections::BTreeMap<NonTerminal, StateId> =
        std::collections::BTreeMap::new();
    for &a in scc {
        state_of.insert(a, nfa.add_state());
    }
    let final_state = nfa.add_state();
    nfa.set_accept(final_state);

    for p in &g.productions {
        if !in_scc.contains(&p.head) {
            continue;
        }
        // Determine the in-SCC tail (if any) and the atom sequence.
        let atoms: Vec<Sym>;
        let mut tail: Option<NonTerminal> = None;
        if reverse {
            // left-linear: body = [B?] atoms...; reversed it becomes
            // right-linear: rev(atoms) [B?] with reversed atom languages.
            let mut body = p.body.clone();
            if let Some(Sym::N(m)) = body.first() {
                if in_scc.contains(m) {
                    tail = Some(*m);
                    body.remove(0);
                }
            }
            body.reverse();
            atoms = body;
        } else {
            let mut body = p.body.clone();
            if let Some(Sym::N(m)) = body.last() {
                if in_scc.contains(m) {
                    tail = Some(*m);
                    body.pop();
                }
            }
            atoms = std::mem::take(&mut body);
        }
        // Thread the atoms from state(head) towards tail-or-final.
        let mut cur = state_of[&p.head];
        for &atom in &atoms {
            let sub = atom_nfa(g, atom, lang, reverse);
            let offset = nfa.num_states();
            for _ in 0..sub.num_states() {
                nfa.add_state();
            }
            for (q, a, r) in sub.transitions() {
                nfa.add_transition(q + offset, a, r + offset);
            }
            for (q, r) in sub.epsilon_transitions() {
                nfa.add_epsilon(q + offset, r + offset);
            }
            for &s in sub.starts() {
                nfa.add_epsilon(cur, s + offset);
            }
            let joint = nfa.add_state();
            for &f in sub.accepts() {
                nfa.add_epsilon(f + offset, joint);
            }
            cur = joint;
        }
        match tail {
            Some(b) => nfa.add_epsilon(cur, state_of[&b]),
            None => nfa.add_epsilon(cur, final_state),
        }
    }

    // Extract the per-member language: paths state(A) → final, reversed
    // for left-linear SCCs.
    for &a in scc {
        let mut member = nfa.clone();
        // reset starts
        let mut fresh = Nfa::new(g.alphabet.clone());
        for _ in 0..member.num_states() {
            fresh.add_state();
        }
        for (q, s, r) in member.transitions() {
            fresh.add_transition(q, s, r);
        }
        for (q, r) in member.epsilon_transitions() {
            fresh.add_epsilon(q, r);
        }
        fresh.set_start(state_of[&a]);
        fresh.set_accept(final_state);
        member = fresh;
        if reverse {
            member = member.reversed();
        }
        lang[a.index()] = Some(member);
    }
}

/// The automaton of a single body symbol: a one-letter NFA for a terminal,
/// the (already compiled) language for a lower-SCC nonterminal; reversed
/// when compiling a left-linear SCC.
fn atom_nfa(g: &Cfg, atom: Sym, lang: &[Option<Nfa>], reverse: bool) -> Nfa {
    match atom {
        Sym::T(t) => Nfa::from_word(g.alphabet.clone(), &[t]),
        Sym::N(m) => {
            let sub = lang[m.index()]
                .clone()
                .unwrap_or_else(|| Nfa::empty(g.alphabet.clone()));
            if reverse {
                sub.reversed()
            } else {
                sub
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::words_up_to;
    use crate::cnf::CnfGrammar;
    use selprop_automata::equiv::{equivalent, included};
    use selprop_automata::regex::Regex;

    fn regex_dfa(g: &Cfg, text: &str) -> Dfa {
        let mut al = g.alphabet.clone();
        Regex::parse(text, &mut al).unwrap().to_dfa(&al)
    }

    #[test]
    fn left_linear_ancestor_is_exact() {
        let g = Cfg::parse("anc -> par | anc par").unwrap();
        assert!(is_strongly_regular(&g));
        let approx = approximate(&g);
        assert!(approx.exact);
        let expected = regex_dfa(&g, "par par*");
        assert!(equivalent(&approx.dfa(), &expected));
    }

    #[test]
    fn right_linear_ancestor_is_exact() {
        let g = Cfg::parse("anc -> par | par anc").unwrap();
        let approx = approximate(&g);
        assert!(approx.exact);
        let expected = regex_dfa(&g, "par par*");
        assert!(equivalent(&approx.dfa(), &expected));
    }

    #[test]
    fn nested_sccs_compile_exactly() {
        // s right-recursive over l, l left-recursive over terminals:
        // l = a+, s = (a+ b)* a+ c ... choose: s -> l c | l b s.
        let g = Cfg::parse("s -> l c | l b s\nl -> a | l a").unwrap();
        let approx = approximate(&g);
        assert!(approx.exact);
        let expected = regex_dfa(&g, "(a a* b)* a a* c");
        assert!(equivalent(&approx.dfa(), &expected));
    }

    #[test]
    fn balanced_pairs_is_approximated() {
        let g = Cfg::parse("p -> b1 b2 | b1 p b2").unwrap();
        assert!(!is_strongly_regular(&g));
        let approx = approximate(&g);
        assert!(!approx.exact);
        assert_eq!(approx.approximated_sccs.len(), 1);
        // The approximation must contain the language...
        let dfa = approx.dfa();
        let cnf = CnfGrammar::from_cfg(&g);
        for w in words_up_to(&g, 10) {
            assert!(cnf.accepts(&w));
            assert!(dfa.accepts_word(&w), "approximation must be a superset");
        }
        // ...and for MN on this grammar it is b1 (b1|b2)* b2 ∩ ... at
        // least the unbalanced word b1 b2 b2 shows properness:
        let b1 = g.alphabet.get("b1").unwrap();
        let b2 = g.alphabet.get("b2").unwrap();
        assert!(dfa.accepts_word(&[b1, b1, b2]) || dfa.accepts_word(&[b1, b2, b2]));
    }

    #[test]
    fn approximation_is_superset_for_palindromes() {
        let g = Cfg::parse("s -> a | b | a s a | b s b").unwrap();
        let approx = approximate(&g);
        assert!(!approx.exact);
        let dfa = approx.dfa();
        let cnf = CnfGrammar::from_cfg(&g);
        for w in words_up_to(&g, 7) {
            assert!(cnf.accepts(&w));
            assert!(dfa.accepts_word(&w));
        }
    }

    #[test]
    fn program_c_nonlinear_approximation_contains_par_plus() {
        // Program C from Example 1.1: anc → par | anc anc. L = par+,
        // regular — but the grammar is mixed, so MN over-approximates.
        let g = Cfg::parse("anc -> par | anc anc").unwrap();
        let approx = approximate(&g);
        assert!(!approx.exact);
        let par_plus = regex_dfa(&g, "par par*");
        assert!(included(&par_plus, &approx.dfa()));
        // For a unary alphabet the superset of par+ within par* is par+
        // or par*; either way it stays within par*.
        let par_star = regex_dfa(&g, "par*");
        assert!(included(&approx.dfa(), &par_star));
    }

    #[test]
    fn finite_language_is_exact() {
        let g = Cfg::parse("s -> a b | c").unwrap();
        let approx = approximate(&g);
        assert!(approx.exact);
        let expected = regex_dfa(&g, "a b | c");
        assert!(equivalent(&approx.dfa(), &expected));
    }

    #[test]
    fn empty_language_compiles() {
        let g = Cfg::parse("s -> s a").unwrap();
        let approx = approximate(&g);
        assert!(approx.exact);
        assert!(approx.dfa().is_empty());
    }

    #[test]
    fn epsilon_preserved() {
        let g = Cfg::parse("s -> eps | a s").unwrap();
        let approx = approximate(&g);
        assert!(approx.exact);
        let dfa = approx.dfa();
        assert!(dfa.accepts_word(&[]));
        let a = g.alphabet.get("a").unwrap();
        assert!(dfa.accepts_word(&[a, a]));
    }

    #[test]
    fn non_self_embedding_compiles_exactly() {
        // NSE but with both left and right recursion in *different* SCCs.
        let g = Cfg::parse("s -> l r\nl -> a | l a\nr -> b | b r").unwrap();
        let approx = approximate(&g);
        assert!(approx.exact);
        let expected = regex_dfa(&g, "a a* b b*");
        assert!(equivalent(&approx.dfa(), &expected));
    }
}
