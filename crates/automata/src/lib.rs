//! # selprop-automata
//!
//! Finite automata and regular-language toolkit for the reproduction of
//! *Beeri, Kanellakis, Bancilhon, Ramakrishnan — "Bounds on the
//! Propagation of Selection into Logic Programs"* (PODS 1987 / JCSS 1990).
//!
//! The paper ties selection propagation on chain Datalog programs to the
//! **regularity** of an associated context-free language `L(H)`
//! (Theorem 3.3). Regular languages therefore carry most of the
//! reproduction's machinery:
//!
//! - [`alphabet`] — interned alphabets shared by grammars and automata;
//! - [`nfa`], [`dfa`] — automata with the boolean algebra of languages,
//!   emptiness/finiteness tests and word enumeration;
//! - [`minimize`] — Hopcroft minimization and canonical forms (keeps the
//!   monadic rewrites of Theorem 3.3 small);
//! - [`equiv`] — language equivalence/inclusion with counterexamples
//!   (validates every rewrite the propagation engine emits);
//! - [`ops`] — quotients `L/R` (the semantics of magic sets, Section 7),
//!   prefix/suffix closures, renaming homomorphisms (Lemma 6.1's
//!   single-EDB reduction);
//! - [`regex`] — expressions, parsing, Thompson construction, and DFA →
//!   regex certificates, including Section 7's `* t1 * t2 ... *` patterns;
//! - [`linear`] — left-/right-linear grammars ⇄ automata, the bridge the
//!   Theorem 3.3 "if" direction walks to build monadic programs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alphabet;
pub mod dfa;
pub mod equiv;
pub mod linear;
pub mod minimize;
pub mod nfa;
pub mod ops;
pub mod regex;

pub use alphabet::{Alphabet, Symbol};
pub use dfa::Dfa;
pub use nfa::Nfa;
pub use regex::Regex;
