//! Context-free grammars over interned alphabets.
//!
//! Section 3 of the paper associates with every chain program `H` a
//! context-free grammar `G(H)`: IDB predicates become nonterminals, EDB
//! predicates become terminals, each chain rule becomes a production, and
//! the goal predicate becomes the start symbol. This module provides the
//! grammar representation that `selprop-core` targets with exactly that
//! transformation.

use std::fmt;

use selprop_automata::alphabet::{Alphabet, Symbol};

/// A nonterminal, identified by a dense index into [`Cfg::nonterminal_names`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NonTerminal(pub u32);

impl NonTerminal {
    /// The dense index of this nonterminal.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NonTerminal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

/// A grammar symbol: terminal or nonterminal.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Sym {
    /// A terminal symbol from the grammar's alphabet.
    T(Symbol),
    /// A nonterminal.
    N(NonTerminal),
}

/// A production `head → body`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Production {
    /// The head nonterminal.
    pub head: NonTerminal,
    /// The body: a (possibly empty) sequence of symbols.
    pub body: Vec<Sym>,
}

/// A context-free grammar.
///
/// Invariants maintained by the constructors: every nonterminal mentioned
/// in a production exists in `nonterminal_names`; the start nonterminal
/// exists. Emptiness of bodies (ε-productions) is allowed — chain-program
/// grammars never produce them (chain rule bodies are nonempty, Section 3),
/// but derived grammars (quotients, Section 7) may.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// Terminal alphabet.
    pub alphabet: Alphabet,
    /// Nonterminal names, indexed by [`NonTerminal`].
    pub nonterminal_names: Vec<String>,
    /// Start nonterminal.
    pub start: NonTerminal,
    /// Productions.
    pub productions: Vec<Production>,
}

impl Cfg {
    /// Creates a grammar with a single nonterminal named `start` and no
    /// productions (the empty language).
    pub fn new(alphabet: Alphabet, start_name: &str) -> Self {
        Self {
            alphabet,
            nonterminal_names: vec![start_name.to_owned()],
            start: NonTerminal(0),
            productions: Vec::new(),
        }
    }

    /// Adds a nonterminal with the given name, returning its handle.
    pub fn add_nonterminal(&mut self, name: &str) -> NonTerminal {
        let id = NonTerminal(
            u32::try_from(self.nonterminal_names.len()).expect("too many nonterminals"),
        );
        self.nonterminal_names.push(name.to_owned());
        id
    }

    /// Finds a nonterminal by name.
    pub fn nonterminal(&self, name: &str) -> Option<NonTerminal> {
        self.nonterminal_names
            .iter()
            .position(|n| n == name)
            .map(|i| NonTerminal(i as u32))
    }

    /// Adds a production.
    pub fn add_production(&mut self, head: NonTerminal, body: Vec<Sym>) {
        debug_assert!(head.index() < self.nonterminal_names.len());
        debug_assert!(body.iter().all(|s| match s {
            Sym::N(n) => n.index() < self.nonterminal_names.len(),
            Sym::T(t) => t.index() < self.alphabet.len(),
        }));
        self.productions.push(Production { head, body });
    }

    /// Number of nonterminals.
    pub fn num_nonterminals(&self) -> usize {
        self.nonterminal_names.len()
    }

    /// Iterates over the productions of a given head.
    pub fn productions_of(&self, head: NonTerminal) -> impl Iterator<Item = &Production> {
        self.productions.iter().filter(move |p| p.head == head)
    }

    /// The name of a nonterminal.
    pub fn name(&self, n: NonTerminal) -> &str {
        &self.nonterminal_names[n.index()]
    }

    /// Renders a symbol using grammar names.
    pub fn render_sym(&self, s: Sym) -> String {
        match s {
            Sym::T(t) => self.alphabet.name(t).to_owned(),
            Sym::N(n) => self.name(n).to_owned(),
        }
    }

    /// Renders the grammar in the paper's arrow notation, start symbol first.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut prods: Vec<&Production> = self.productions.iter().collect();
        prods.sort_by_key(|p| (p.head != self.start, p.head.index()));
        for p in prods {
            let rhs = if p.body.is_empty() {
                "ε".to_owned()
            } else {
                p.body
                    .iter()
                    .map(|&s| self.render_sym(s))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            out.push_str(&format!("{} → {}\n", self.name(p.head), rhs));
        }
        out
    }

    /// Parses a grammar from arrow notation, e.g.
    ///
    /// ```text
    /// anc -> par
    /// anc -> anc par
    /// ```
    ///
    /// Identifiers seen on the left of `->` anywhere in the text are
    /// nonterminals (the first head is the start symbol); everything else
    /// is a terminal interned into a fresh alphabet. `|` separates
    /// alternative bodies, and the literal `eps` denotes ε.
    ///
    /// ```
    /// use selprop_grammar::{Cfg, analysis};
    /// let g = Cfg::parse("p -> b1 b2 | b1 p b2").unwrap();
    /// // L(G) = { b1^n b2^n : n ≥ 1 } — infinite, with a pump witness
    /// assert!(!analysis::finiteness(&g).is_finite());
    /// ```
    pub fn parse(text: &str) -> Result<Cfg, String> {
        let mut heads: Vec<String> = Vec::new();
        let mut lines: Vec<(String, Vec<Vec<String>>)> = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (lhs, rhs) = line
                .split_once("->")
                .or_else(|| line.split_once('→'))
                .ok_or_else(|| format!("line {}: missing '->'", lineno + 1))?;
            let head = lhs.trim().to_owned();
            if head.is_empty() || head.contains(char::is_whitespace) {
                return Err(format!("line {}: bad head '{head}'", lineno + 1));
            }
            if !heads.contains(&head) {
                heads.push(head.clone());
            }
            let alts: Vec<Vec<String>> = rhs
                .split('|')
                .map(|alt| {
                    alt.split_whitespace()
                        .map(str::to_owned)
                        .filter(|t| t != "eps" && t != "ε")
                        .collect()
                })
                .collect();
            lines.push((head, alts));
        }
        if heads.is_empty() {
            return Err("no productions".to_owned());
        }
        let mut alphabet = Alphabet::new();
        // terminals: all tokens that never appear as heads
        for (_, alts) in &lines {
            for alt in alts {
                for tok in alt {
                    if !heads.contains(tok) {
                        alphabet.intern(tok);
                    }
                }
            }
        }
        let mut cfg = Cfg::new(alphabet, &heads[0]);
        for h in &heads[1..] {
            cfg.add_nonterminal(h);
        }
        for (head, alts) in &lines {
            let head_nt = cfg.nonterminal(head).expect("head interned");
            for alt in alts {
                let body = alt
                    .iter()
                    .map(|tok| match cfg.nonterminal(tok) {
                        Some(n) => Sym::N(n),
                        None => Sym::T(cfg.alphabet.get(tok).expect("terminal interned")),
                    })
                    .collect();
                cfg.add_production(head_nt, body);
            }
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_by_hand() {
        let al = Alphabet::from_names(["par"]);
        let par = al.get("par").unwrap();
        let mut g = Cfg::new(al, "anc");
        let anc = g.start;
        g.add_production(anc, vec![Sym::T(par)]);
        g.add_production(anc, vec![Sym::N(anc), Sym::T(par)]);
        assert_eq!(g.num_nonterminals(), 1);
        assert_eq!(g.productions.len(), 2);
        assert_eq!(g.productions_of(anc).count(), 2);
    }

    #[test]
    fn parse_ancestor_grammar() {
        let g = Cfg::parse("anc -> par | anc par").unwrap();
        assert_eq!(g.num_nonterminals(), 1);
        assert_eq!(g.productions.len(), 2);
        assert_eq!(g.name(g.start), "anc");
        assert!(g.alphabet.get("par").is_some());
    }

    #[test]
    fn parse_multiline_with_comments() {
        let text = "# Program C from Example 1.1\nanc -> par\nanc -> anc anc\n";
        let g = Cfg::parse(text).unwrap();
        assert_eq!(g.productions.len(), 2);
        let anc = g.start;
        let bodies: Vec<_> = g.productions_of(anc).map(|p| p.body.len()).collect();
        assert!(bodies.contains(&1));
        assert!(bodies.contains(&2));
    }

    #[test]
    fn parse_epsilon() {
        let g = Cfg::parse("s -> eps | a s").unwrap();
        assert!(g.productions.iter().any(|p| p.body.is_empty()));
    }

    #[test]
    fn parse_errors() {
        assert!(Cfg::parse("").is_err());
        assert!(Cfg::parse("no arrow here").is_err());
    }

    #[test]
    fn render_shows_start_first() {
        let g = Cfg::parse("p -> b1 b2 | b1 p b2").unwrap();
        let text = g.render();
        assert!(text.starts_with("p →"));
        assert!(text.contains("b1 p b2"));
    }
}
