//! Chomsky normal form and CYK membership.
//!
//! CNF powers the exact membership test used everywhere a construction
//! must be validated against the language it claims to produce (quotient
//! grammars in Section 7, sentential-form grammars in Prop. 8.1). There
//! is one CYK, the incremental [`Recognizer`]: [`CnfGrammar::accepts`]
//! pushes its word onto a fresh one, and a caller testing many words
//! that share prefixes (the Nerode sampling and envelope check of
//! `selprop-core`'s decision) walks them as a trie on one recognizer.

use crate::cfg::{Cfg, Sym};
use crate::clean::normalize;
use selprop_automata::alphabet::Symbol;

/// A grammar in Chomsky normal form.
///
/// All productions are `A → B C` (`pairs`) or `A → a` (`terms`); whether ε
/// belongs to the language is carried in [`CnfGrammar::epsilon`].
#[derive(Clone, Debug)]
pub struct CnfGrammar {
    /// Number of nonterminals.
    pub num_nonterminals: usize,
    /// Start nonterminal index.
    pub start: usize,
    /// Binary productions `(head, left, right)`.
    pub pairs: Vec<(usize, usize, usize)>,
    /// Terminal productions `(head, terminal)`.
    pub terms: Vec<(usize, Symbol)>,
    /// Whether ε is in the language.
    pub epsilon: bool,
    /// Nonterminal names (for diagnostics).
    pub names: Vec<String>,
}

impl CnfGrammar {
    /// Converts an arbitrary CFG to CNF (normalizing first).
    pub fn from_cfg(g: &Cfg) -> CnfGrammar {
        let (g, epsilon) = normalize(g);
        let mut names = g.nonterminal_names.clone();
        let mut pairs = Vec::new();
        let mut terms = Vec::new();

        // TERM: map each terminal to a proxy nonterminal (lazily).
        let mut term_proxy: Vec<Option<usize>> = vec![None; g.alphabet.len()];
        let mut proxy_for = |t: Symbol, names: &mut Vec<String>, terms: &mut Vec<(usize, Symbol)>| {
            if let Some(p) = term_proxy[t.index()] {
                return p;
            }
            let p = names.len();
            names.push(format!("T_{}", t.index()));
            terms.push((p, t));
            term_proxy[t.index()] = Some(p);
            p
        };

        for p in &g.productions {
            match p.body.as_slice() {
                [Sym::T(t)] => terms.push((p.head.index(), *t)),
                [_] => unreachable!("unit productions removed by normalize"),
                [] => unreachable!("ε-productions removed by normalize"),
                body => {
                    // Replace terminals by proxies, then binarize
                    // left-to-right with fresh glue nonterminals.
                    let ids: Vec<usize> = body
                        .iter()
                        .map(|&s| match s {
                            Sym::N(n) => n.index(),
                            Sym::T(t) => proxy_for(t, &mut names, &mut terms),
                        })
                        .collect();
                    let mut rhs = ids[ids.len() - 1];
                    for i in (1..ids.len() - 1).rev() {
                        let glue = names.len();
                        names.push(format!("G{}", names.len()));
                        pairs.push((glue, ids[i], rhs));
                        rhs = glue;
                    }
                    pairs.push((p.head.index(), ids[0], rhs));
                }
            }
        }
        CnfGrammar {
            num_nonterminals: names.len(),
            start: g.start.index(),
            pairs,
            terms,
            epsilon,
            names,
        }
    }

    /// CYK membership test: the word pushed, symbol by symbol, onto a
    /// fresh [`Recognizer`].
    pub fn accepts(&self, word: &[Symbol]) -> bool {
        let mut rec = self.recognizer();
        for &a in word {
            rec.push(a);
        }
        rec.accepts()
    }

    /// An incremental CYK recognizer over this grammar, holding the
    /// empty word.
    pub fn recognizer(&self) -> Recognizer {
        Recognizer::new(self)
    }
}

/// Incremental CYK membership (Younger 1967) for a word built by pushing
/// and popping symbols at its end.
///
/// The table is triangular and stored column by column: column `j` holds
/// the cells of the spans `i..=j`, `i ≤ j`, so the word's last symbol
/// owns the last column. Pushing a symbol computes that one column —
/// `j + 1` cells from the `j` columns before it — and popping drops it.
/// A word that shares a prefix with the one before it therefore costs
/// only the columns after the shared prefix: walking a trie of words
/// depth first costs one column per trie node, not one parse per word.
///
/// Each cell is a nonterminal bitset of `⌈m / 64⌉` words, `m` the
/// grammar's nonterminal count, so there is no limit on `m`. Binary
/// productions are grouped by their left child: a cell combines a split
/// by visiting the set bits of its left part only.
#[derive(Debug)]
pub struct Recognizer {
    /// Words per cell, `⌈m / 64⌉`.
    stride: usize,
    /// The start nonterminal, or `None` when the grammar has no
    /// nonterminal (its language holds at most ε).
    start: Option<usize>,
    /// Whether ε is in the language.
    epsilon: bool,
    /// `leaves[a * stride..][..stride]`: the nonterminals `A` with
    /// `A → a`.
    leaves: Vec<u64>,
    /// `by_left[left_start[b]..left_start[b + 1]]`: the `(head, right)`
    /// of every binary production `head → b right`.
    left_start: Vec<usize>,
    by_left: Vec<(usize, usize)>,
    /// The heads of the binary productions: a cell holding all of them
    /// is complete after any split.
    heads: Vec<u64>,
    /// The word pushed so far.
    word: Vec<Symbol>,
    /// The triangular table, column-major; column `j` starts at cell
    /// `j (j + 1) / 2` and cell `(i, j)` derives `word[i..=j]`.
    table: Vec<u64>,
}

impl Recognizer {
    fn new(g: &CnfGrammar) -> Recognizer {
        let m = g.num_nonterminals;
        let stride = m.div_ceil(64);
        let num_symbols = g
            .terms
            .iter()
            .map(|&(_, t)| t.index() + 1)
            .max()
            .unwrap_or(0);
        let mut leaves = vec![0u64; num_symbols * stride];
        for &(h, t) in &g.terms {
            leaves[t.index() * stride + h / 64] |= 1 << (h % 64);
        }
        let mut left_start = vec![0usize; m + 1];
        for &(_, l, _) in &g.pairs {
            left_start[l + 1] += 1;
        }
        for b in 0..m {
            left_start[b + 1] += left_start[b];
        }
        let mut fill = left_start.clone();
        let mut by_left = vec![(0, 0); g.pairs.len()];
        let mut heads = vec![0u64; stride];
        for &(h, l, r) in &g.pairs {
            by_left[fill[l]] = (h, r);
            fill[l] += 1;
            heads[h / 64] |= 1 << (h % 64);
        }
        Recognizer {
            stride,
            start: (g.start < m).then_some(g.start),
            epsilon: g.epsilon,
            leaves,
            left_start,
            by_left,
            heads,
            word: Vec::new(),
            table: Vec::new(),
        }
    }

    /// Empties the word.
    pub fn clear(&mut self) {
        self.word.clear();
        self.table.clear();
    }

    /// Appends `a` to the word, computing the table's new column.
    pub fn push(&mut self, a: Symbol) {
        let s = self.stride;
        let j = self.word.len();
        self.word.push(a);
        let col = j * (j + 1) / 2 * s;
        self.table.resize(col + (j + 1) * s, 0);
        let (before, column) = self.table.split_at_mut(col);
        // a symbol past every terminal production derives nothing
        if let Some(leaf) = self.leaves.get(a.index() * s..(a.index() + 1) * s) {
            column[j * s..].copy_from_slice(leaf);
        }
        // Cell (i, j) joins cell (i, k) of column k with cell (k + 1, j)
        // of this column, k in i..j; the latter is already computed
        // because cells are filled bottom up (i descending).
        for i in (0..j).rev() {
            let (cell, right_cells) = column[i * s..].split_at_mut(s);
            for k in i..j {
                let right = &right_cells[(k - i) * s..][..s];
                let left = &before[(k * (k + 1) / 2 + i) * s..][..s];
                if right.iter().all(|&w| w == 0) {
                    continue;
                }
                for (wi, &lw) in left.iter().enumerate() {
                    let mut bits = lw;
                    while bits != 0 {
                        let b = wi * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        for &(h, r) in &self.by_left[self.left_start[b]..self.left_start[b + 1]] {
                            if right[r / 64] >> (r % 64) & 1 == 1 {
                                cell[h / 64] |= 1 << (h % 64);
                            }
                        }
                    }
                }
                // a cell holding every binary head gains nothing more
                if cell.iter().zip(&self.heads).all(|(&c, &h)| c & h == h) {
                    break;
                }
            }
        }
    }

    /// Removes the word's last symbol and its column; `None` on the empty
    /// word.
    pub fn pop(&mut self) -> Option<Symbol> {
        let a = self.word.pop()?;
        let j = self.word.len();
        self.table.truncate(j * (j + 1) / 2 * self.stride);
        Some(a)
    }

    /// Whether the grammar derives the word pushed so far.
    pub fn accepts(&self) -> bool {
        let n = self.word.len();
        if n == 0 {
            return self.epsilon;
        }
        let Some(start) = self.start else {
            return false;
        };
        // cell (0, n - 1): the first cell of the last column
        let cell = (n - 1) * n / 2 * self.stride;
        self.table[cell + start / 64] >> (start % 64) & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syms(g: &Cfg, text: &str) -> Vec<Symbol> {
        text.split_whitespace()
            .map(|t| g.alphabet.get(t).unwrap())
            .collect()
    }

    #[test]
    fn balanced_pairs() {
        // Section 7's example language: b1^n b2^n, n ≥ 1.
        let g = Cfg::parse("p -> b1 b2 | b1 p b2").unwrap();
        let cnf = CnfGrammar::from_cfg(&g);
        assert!(cnf.accepts(&syms(&g, "b1 b2")));
        assert!(cnf.accepts(&syms(&g, "b1 b1 b2 b2")));
        assert!(cnf.accepts(&syms(&g, "b1 b1 b1 b2 b2 b2")));
        assert!(!cnf.accepts(&syms(&g, "b1 b2 b2")));
        assert!(!cnf.accepts(&syms(&g, "b2 b1")));
        assert!(!cnf.accepts(&[]));
    }

    #[test]
    fn ancestor_language() {
        let g = Cfg::parse("anc -> par | anc par").unwrap();
        let cnf = CnfGrammar::from_cfg(&g);
        assert!(cnf.accepts(&syms(&g, "par")));
        assert!(cnf.accepts(&syms(&g, "par par par")));
        assert!(!cnf.accepts(&[]));
    }

    #[test]
    fn epsilon_language() {
        let g = Cfg::parse("s -> eps | a s").unwrap();
        let cnf = CnfGrammar::from_cfg(&g);
        assert!(cnf.epsilon);
        assert!(cnf.accepts(&[]));
        assert!(cnf.accepts(&syms(&g, "a a")));
    }

    #[test]
    fn long_chain_bodies_binarize() {
        let g = Cfg::parse("s -> a b c d e").unwrap();
        let cnf = CnfGrammar::from_cfg(&g);
        assert!(cnf.accepts(&syms(&g, "a b c d e")));
        assert!(!cnf.accepts(&syms(&g, "a b c d")));
    }

    #[test]
    fn empty_language() {
        let g = Cfg::parse("s -> s a").unwrap();
        let cnf = CnfGrammar::from_cfg(&g);
        assert!(!cnf.accepts(&[]));
        let a = g.alphabet.get("a").unwrap();
        assert!(!cnf.accepts(&[a]));
    }

    #[test]
    fn more_than_64_nonterminals() {
        // 70 terminal proxies plus 68 glue nonterminals: cells span three
        // words.
        let body: Vec<String> = (1..=70).map(|i| format!("a{i}")).collect();
        let g = Cfg::parse(&format!("s -> {}", body.join(" "))).unwrap();
        let cnf = CnfGrammar::from_cfg(&g);
        assert!(cnf.num_nonterminals > 128, "{}", cnf.num_nonterminals);
        let word = syms(&g, &body.join(" "));
        assert!(cnf.accepts(&word));
        assert!(!cnf.accepts(&word[..69]));
        assert!(!cnf.accepts(&word[1..]));
        let mut swapped = word.clone();
        swapped.swap(68, 69);
        assert!(!cnf.accepts(&swapped));
        // popping back to a shorter word and pushing the tail again
        let mut rec = cnf.recognizer();
        for &a in &word {
            rec.push(a);
        }
        assert!(rec.accepts());
        for _ in 0..5 {
            rec.pop();
        }
        assert!(!rec.accepts());
        for &a in &word[65..] {
            rec.push(a);
        }
        assert!(rec.accepts());
    }

    #[test]
    fn no_productions_and_no_nonterminals() {
        // `s -> s a` derives no word: it cleans to a bare start symbol
        // without productions.
        let g = Cfg::parse("s -> s a").unwrap();
        let cnf = CnfGrammar::from_cfg(&g);
        assert!(cnf.pairs.is_empty() && cnf.terms.is_empty());
        let a = g.alphabet.get("a").unwrap();
        // a grammar with no nonterminal at all has zero-word cells
        let bare = CnfGrammar {
            num_nonterminals: 0,
            start: 0,
            pairs: Vec::new(),
            terms: Vec::new(),
            epsilon: true,
            names: Vec::new(),
        };
        for (cnf, epsilon) in [(cnf, false), (bare, true)] {
            let mut rec = cnf.recognizer();
            assert_eq!(rec.accepts(), epsilon);
            for _ in 0..3 {
                rec.push(a);
                assert!(!rec.accepts());
            }
            assert_eq!(rec.pop(), Some(a));
            rec.clear();
            assert_eq!(rec.pop(), None);
            assert_eq!(rec.accepts(), epsilon);
        }
    }

    #[test]
    fn push_and_pop_agree_with_fresh_parses() {
        let g = Cfg::parse("p -> b1 b2 | b1 p b2").unwrap();
        let cnf = CnfGrammar::from_cfg(&g);
        let script = "b1 b1 b2 b2 b2";
        let word = syms(&g, script);
        let mut rec = cnf.recognizer();
        for (n, &a) in word.iter().enumerate() {
            rec.push(a);
            assert_eq!(rec.accepts(), cnf.accepts(&word[..=n]));
        }
        rec.pop();
        rec.pop();
        rec.push(word[3]);
        assert!(rec.accepts());
        rec.clear();
        assert!(!rec.accepts());
        rec.push(word[0]);
        rec.push(word[4]);
        assert!(rec.accepts());
    }

    #[test]
    fn nonlinear_ancestor_program_c() {
        // Program C: anc -> par | anc anc, language par+.
        let g = Cfg::parse("anc -> par | anc anc").unwrap();
        let cnf = CnfGrammar::from_cfg(&g);
        for n in 1..6 {
            let w = vec![g.alphabet.get("par").unwrap(); n];
            assert!(cnf.accepts(&w), "par^{n} should be accepted");
        }
        assert!(!cnf.accepts(&[]));
    }
}
