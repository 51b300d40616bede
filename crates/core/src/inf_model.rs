//! The infinite structure `IG` (Section 3) and its finite truncations.
//!
//! `IG` is the complete infinite `Σ`-labeled tree: one node per string of
//! `Σ*`, rooted at the origin `c` (the empty string), with exactly one
//! outgoing edge per EDB label at every node. Proposition 3.1:
//! `h(IG) = H(IG) = L(H)` for any program `h` finitely equivalent to a
//! chain program `H` with goal `p(c, Y)`.
//!
//! `IG` is infinite, but Lemma 3.2 says every derivation lives in a
//! finite subgraph, and for a chain program the derivation for node `w`
//! lives entirely on the path from the root to `w`. Hence the depth-`n`
//! truncation `IG_n` (all strings of length ≤ n) computes
//! `H(IG_n) = L(H) ∩ Σ^{≤n}` **exactly** — which is what
//! [`check_proposition_3_1`] verifies against the grammar-side
//! enumeration of `L(H)`.

use selprop_automata::{Alphabet, Symbol};
use selprop_datalog::ast::{Const, Pred, Symbols};
use selprop_datalog::db::{Database, Relation};
use selprop_datalog::eval::{answer, Strategy};

use crate::chain::{ChainProgram, GoalForm};

/// A materialized truncation `IG_n`.
#[derive(Clone, Debug)]
pub struct IgTruncation {
    /// The database (one binary relation per EDB).
    pub db: Database,
    /// Depth of the truncation.
    pub depth: usize,
    /// Node constant ↔ label string, in BFS order (root first).
    pub nodes: Vec<(Const, Vec<Symbol>)>,
}

/// Builds `IG_n` for the chain program's EDB alphabet, naming the root
/// after the goal's constant (so the program's `p(c, Y)` goal applies
/// directly). The nodes are interned into the returned program's
/// symbols, by the builder [`monadic_on_ig`] uses too. Node count is
/// `(kⁿ⁺¹-1)/(k-1)` for `k` EDBs — keep `n` small for multi-letter
/// alphabets.
pub fn ig_truncation(chain: &ChainProgram, depth: usize) -> (ChainProgram, IgTruncation) {
    let origin = match &chain.goal_form {
        GoalForm::BoundFirst(c) | GoalForm::BoundBoth(c, _) => c.as_str(),
        _ => "c",
    };
    let alphabet = chain.alphabet();
    let edge = chain.edb_preds(&alphabet);
    let mut out = chain.clone();
    let (db, nodes) = ig(&mut out.program.symbols, &alphabet, &edge, origin, depth);
    (out, IgTruncation { db, depth, nodes })
}

/// `IG_n` over `alphabet`: the complete labeled tree of depth `depth`
/// rooted at the constant `origin`, the node of word `w` named
/// `n_{w[0]}_…_{w[last]}`, one `edge[s]` fact ([`ChainProgram::edb_preds`])
/// per tree edge labeled `s`. Returns the database and the nodes with
/// their words in BFS order, root first.
fn ig(
    symbols: &mut Symbols,
    alphabet: &Alphabet,
    edge: &[Pred],
    origin: &str,
    depth: usize,
) -> (Database, Vec<(Const, Vec<Symbol>)>) {
    let mut db = Database::new();
    let mut nodes = vec![(symbols.constant(origin), Vec::new())];
    let mut parent = 0;
    while parent < nodes.len() && nodes[parent].1.len() < depth {
        for s in alphabet.symbols() {
            let mut word = nodes[parent].1.clone();
            word.push(s);
            let name = word.iter().fold("n".to_owned(), |n, &a| n + "_" + alphabet.name(a));
            let child = symbols.constant(&name);
            db.insert(edge[s.index()], vec![nodes[parent].0, child]);
            nodes.push((child, word));
        }
        parent += 1;
    }
    (db, nodes)
}

/// The words of the nodes `ans` holds, shortest first, then in
/// lexicographic order.
fn answer_words(ans: &Relation, nodes: &[(Const, Vec<Symbol>)]) -> Vec<Vec<Symbol>> {
    let mut out: Vec<Vec<Symbol>> = nodes
        .iter()
        .filter(|(c, _)| ans.contains(std::slice::from_ref(c)))
        .map(|(_, w)| w.clone())
        .collect();
    out.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
    out
}

/// Section 4 meets Section 5: evaluates an arbitrary **monadic** program
/// `h` (chain EDBs, origin constant, unary goal) on the truncation
/// `IG_n` — built as [`ig_truncation`] builds it, over the alphabet of
/// `edb_names` — and returns the answer nodes as label strings, as
/// [`h_of_ig`] reads them: a finite approximation of `h(IG)`, which
/// Lemma 4.1 proves regular via the corridor/pigeonhole automaton. The
/// test suite cross-checks this against the independent WS1S route
/// (`selprop_ws1s::encode`): both must agree on `h(IG) ∩ Σ^{≤n}`.
pub fn monadic_on_ig(
    h: &selprop_datalog::Program,
    origin: &str,
    edb_names: &[&str],
    depth: usize,
) -> Result<Vec<Vec<Symbol>>, String> {
    if !h.is_monadic() {
        return Err("Lemma 4.1 concerns monadic programs".to_owned());
    }
    let mut h = h.clone();
    let alphabet = Alphabet::from_names(edb_names.iter().copied());
    let edge: Vec<Pred> = edb_names.iter().map(|n| h.symbols.predicate(n)).collect();
    let (db, nodes) = ig(&mut h.symbols, &alphabet, &edge, origin, depth);
    let (ans, _) = answer(&h, &db, Strategy::SemiNaive);
    if ans.arity() != 1 {
        return Err("expected a unary goal".to_owned());
    }
    Ok(answer_words(&ans, &nodes))
}

/// Evaluates `H` on `IG_n` and returns the answer nodes as label strings
/// (the `H(IG)` of Proposition 3.1, truncated).
pub fn h_of_ig(chain: &ChainProgram, depth: usize) -> Vec<Vec<Symbol>> {
    let (chain, trunc) = ig_truncation(chain, depth);
    let (ans, _) = answer(&chain.program, &trunc.db, Strategy::SemiNaive);
    answer_words(&ans, &trunc.nodes)
}

/// Proposition 3.1, checked on the truncation: `H(IG_n)` equals
/// `L(H) ∩ Σ^{≤n}` (grammar-side enumeration). Returns the two sets for
/// reporting; they must be equal.
pub fn check_proposition_3_1(
    chain: &ChainProgram,
    depth: usize,
) -> (Vec<Vec<Symbol>>, Vec<Vec<Symbol>>, bool) {
    let from_ig = h_of_ig(chain, depth);
    let from_grammar = chain.language_words(depth);
    let ok = from_ig == from_grammar;
    (from_ig, from_grammar, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ancestor_on_ig() {
        let chain = ChainProgram::parse(
            "?- anc(c, Y).\n\
             anc(X, Y) :- par(X, Y).\n\
             anc(X, Y) :- anc(X, Z), par(Z, Y).",
        )
        .unwrap();
        let (ig, grammar, ok) = check_proposition_3_1(&chain, 5);
        assert!(ok, "IG {ig:?} vs grammar {grammar:?}");
        assert_eq!(ig.len(), 5); // par, par², ..., par⁵
    }

    #[test]
    fn balanced_pairs_on_ig() {
        let chain = ChainProgram::parse(
            "?- p(c, Y).\n\
             p(X, Y) :- b1(X, X1), b2(X1, Y).\n\
             p(X, Y) :- b1(X, X1), p(X1, X2), b2(X2, Y).",
        )
        .unwrap();
        let (ig, _, ok) = check_proposition_3_1(&chain, 6);
        assert!(ok);
        assert_eq!(ig.len(), 3); // b1b2, b1²b2², b1³b2³
    }

    #[test]
    fn nonlinear_program_c_on_ig() {
        // Program C has the same language par+ — Prop 3.1 sees through
        // the rule shape.
        let chain = ChainProgram::parse(
            "?- anc(c, Y).\n\
             anc(X, Y) :- par(X, Y).\n\
             anc(X, Y) :- anc(X, Z), anc(Z, Y).",
        )
        .unwrap();
        let (ig, _, ok) = check_proposition_3_1(&chain, 4);
        assert!(ok);
        assert_eq!(ig.len(), 4);
    }

    #[test]
    fn truncation_size() {
        let chain = ChainProgram::parse(
            "?- p(c, Y).\n\
             p(X, Y) :- b1(X, X1), b2(X1, Y).\n\
             p(X, Y) :- b1(X, X1), p(X1, X2), b2(X2, Y).",
        )
        .unwrap();
        let (_, trunc) = ig_truncation(&chain, 3);
        // binary alphabet: 1 + 2 + 4 + 8 = 15 nodes, 14 edges
        assert_eq!(trunc.nodes.len(), 15);
        assert_eq!(trunc.db.num_facts(), 14);
    }

    #[test]
    fn lemma_4_1_cross_checks_lemma_5_1() {
        // h(IG) via direct truncation evaluation (Section 4's object)
        // must agree with Language(φ_h) from the WS1S route (Section 5)
        // on all words of length ≤ depth - the two lower-bound proofs
        // computing the same regular language two ways.
        let sources = [
            (
                "?- ancjohn(Y).\n\
                 ancjohn(Y) :- par(john, Y).\n\
                 ancjohn(Y) :- ancjohn(Z), par(Z, Y).",
                "john",
                vec!["par"],
                6usize,
            ),
            (
                "?- q2(Y).\n\
                 q1(Y) :- b1(c, Y).\n\
                 q1(Y) :- q2(Z), b1(Z, Y).\n\
                 q2(Y) :- q1(Z), b2(Z, Y).",
                "c",
                vec!["b1", "b2"],
                6usize,
            ),
        ];
        for (src, origin, edbs, depth) in sources {
            let h = selprop_datalog::parser::parse_program(src).unwrap();
            let ig_words =
                monadic_on_ig(&h, origin, &edbs, depth).expect("monadic program on IG");
            let enc = selprop_ws1s::encode::encode_monadic_program(&h, origin).unwrap();
            let lang = selprop_ws1s::encode::extract_language(&enc);
            // compare word sets up to the truncation depth; both
            // alphabets intern EDBs in the same order
            let ws1s_words: Vec<Vec<Symbol>> = lang.words_up_to(depth);
            let mut ws1s_sorted = ws1s_words;
            ws1s_sorted.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
            assert_eq!(ig_words, ws1s_sorted, "Sections 4 and 5 disagree for {src}");
        }
    }

    #[test]
    fn finite_language_saturates() {
        let chain = ChainProgram::parse(
            "?- p(c, Y).\n\
             p(X, Y) :- b1(X, Y).\n\
             p(X, Y) :- b1(X, Z), b2(Z, Y).",
        )
        .unwrap();
        let at3 = h_of_ig(&chain, 3);
        let at5 = h_of_ig(&chain, 5);
        assert_eq!(at3, at5, "finite language: deeper truncations add nothing");
        assert_eq!(at3.len(), 2);
    }
}
