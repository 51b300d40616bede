//! Self-embedding detection.
//!
//! Chomsky's theorem: a context-free grammar that is **not**
//! self-embedding (no nonterminal `A` with `A ⇒* αAβ`, `α, β` deriving
//! nonempty strings) generates a *regular* language. Self-embedding is
//! decidable, so this gives the propagation engine its main *sound,
//! decidable sufficient condition* for the regularity required by
//! Theorem 3.3(1) — while the full regularity question stays undecidable
//! (Corollary 3.4), exactly as the paper proves.
//!
//! On a cleaned ε-free grammar, every symbol derives a nonempty terminal
//! string, so `A ⇒* αAβ` is self-embedding iff α and β are nonempty as
//! symbol sequences. We compute the relation
//! `A ⇝(l,r) B` = "A derives a sentential form with B, where l/r records
//! whether material exists to the left/right" by transitive closure.

use std::collections::VecDeque;

use crate::cfg::{Cfg, Sym};
use crate::clean::normalize;

/// The outcome of the self-embedding test.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SelfEmbedding {
    /// The grammar is not self-embedding, hence `L(G)` is regular
    /// (Chomsky). The Mohri–Nederhof compilation of such a grammar is
    /// exact.
    No,
    /// The grammar is self-embedding; the named nonterminal satisfies
    /// `A ⇒* αAβ` with nonempty α, β. (The *language* may still be
    /// regular — self-embedding is a property of the grammar.)
    Yes {
        /// Name of a self-embedding nonterminal.
        nonterminal: String,
    },
}

/// Decides whether (the cleaned form of) `g` is self-embedding.
pub fn self_embedding(g: &Cfg) -> SelfEmbedding {
    let (clean, _eps) = normalize(g);
    let n = clean.num_nonterminals();
    if n == 0 {
        return SelfEmbedding::No;
    }
    // reach[a][b] = Some((l, r)) best-known flags for A ⇝ B; flags only
    // ever turn on, so saturation terminates. We track all flag
    // combinations reached: a 2x2 bitmask per pair.
    let flag_bit = |l: bool, r: bool| 1u8 << (usize::from(l) * 2 + usize::from(r));
    let mut reach = vec![vec![0u8; n]; n];
    let mut queue: VecDeque<(usize, usize, bool, bool)> = VecDeque::new();

    // Base step: one production application.
    for p in &clean.productions {
        for (pos, s) in p.body.iter().enumerate() {
            if let Sym::N(b) = s {
                let l = pos > 0;
                let r = pos + 1 < p.body.len();
                let a = p.head.index();
                let bit = flag_bit(l, r);
                if reach[a][b.index()] & bit == 0 {
                    reach[a][b.index()] |= bit;
                    queue.push_back((a, b.index(), l, r));
                }
            }
        }
    }
    // Transitive closure: (A ⇝(l1,r1) B) ∘ (B ⇝(l2,r2) C).
    // Precompute the one-step relation for composing on the right.
    let one_step: Vec<Vec<(usize, bool, bool)>> = {
        let mut os = vec![Vec::new(); n];
        for p in &clean.productions {
            for (pos, s) in p.body.iter().enumerate() {
                if let Sym::N(b) = s {
                    os[p.head.index()].push((b.index(), pos > 0, pos + 1 < p.body.len()));
                }
            }
        }
        os
    };
    while let Some((a, b, l1, r1)) = queue.pop_front() {
        if a == b && l1 && r1 {
            return SelfEmbedding::Yes {
                nonterminal: clean.nonterminal_names[a].clone(),
            };
        }
        for &(c, l2, r2) in &one_step[b] {
            let l = l1 || l2;
            let r = r1 || r2;
            let bit = flag_bit(l, r);
            if reach[a][c] & bit == 0 {
                reach[a][c] |= bit;
                queue.push_back((a, c, l, r));
            }
        }
    }
    SelfEmbedding::No
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn left_linear_is_nse() {
        // Program A from Example 1.1: anc → par | anc par.
        let g = Cfg::parse("anc -> par | anc par").unwrap();
        assert_eq!(self_embedding(&g), SelfEmbedding::No);
    }

    #[test]
    fn right_linear_is_nse() {
        // Program B: anc → par | par anc.
        let g = Cfg::parse("anc -> par | par anc").unwrap();
        assert_eq!(self_embedding(&g), SelfEmbedding::No);
    }

    #[test]
    fn balanced_pairs_is_self_embedding() {
        // Section 7 example: p → b1 b2 | b1 p b2 — the classic
        // non-regular b1^n b2^n.
        let g = Cfg::parse("p -> b1 b2 | b1 p b2").unwrap();
        match self_embedding(&g) {
            SelfEmbedding::Yes { nonterminal } => assert_eq!(nonterminal, "p"),
            SelfEmbedding::No => panic!("b1^n b2^n grammar must self-embed"),
        }
    }

    #[test]
    fn nonlinear_same_language_self_embeds() {
        // Program C: anc → par | anc anc. L = par+ is regular, but the
        // grammar itself is self-embedding (anc ⇒ anc anc ⇒ anc anc anc
        // with anc in the middle) — demonstrating that self-embedding is
        // a grammar property, not a language property.
        let g = Cfg::parse("anc -> par | anc anc").unwrap();
        assert!(matches!(self_embedding(&g), SelfEmbedding::Yes { .. }));
    }

    #[test]
    fn indirect_self_embedding() {
        // s ⇒ a t, t ⇒ s b: s ⇒* a s b — self-embedding through a cycle.
        let g = Cfg::parse("s -> a t | c\nt -> s b").unwrap();
        assert!(matches!(self_embedding(&g), SelfEmbedding::Yes { .. }));
    }

    #[test]
    fn mixed_but_separate_sccs_is_nse() {
        // Left recursion in one nonterminal, right recursion in another,
        // non-mutually-recursive: still NSE.
        let g = Cfg::parse("s -> l r\nl -> a | l a\nr -> b | b r").unwrap();
        assert_eq!(self_embedding(&g), SelfEmbedding::No);
    }

    #[test]
    fn useless_self_embedding_ignored() {
        // The self-embedding nonterminal is unreachable: cleaning drops it.
        let g = Cfg::parse("s -> a\nq -> a q b | c").unwrap();
        assert_eq!(self_embedding(&g), SelfEmbedding::No);
    }

    #[test]
    fn empty_grammar_is_nse() {
        let g = Cfg::parse("s -> s a").unwrap();
        assert_eq!(self_embedding(&g), SelfEmbedding::No);
    }
}
