//! # selprop-mgs
//!
//! Monadic generalized spectra and the Section 6 symmetry arguments, for
//! the reproduction of *Beeri, Kanellakis, Bancilhon, Ramakrishnan —
//! "Bounds on the Propagation of Selection into Logic Programs"*
//! (PODS 1987 / JCSS 1990).
//!
//! The paper's Theorem 3.3(2) lower bound ("`p(X,X)` propagable only if
//! `L(H)` finite") is proved via Fagin's monadic generalized spectra:
//! DAGs are not an MGS (Lemma 6.2), and monadic programs are blind to
//! cycles. This crate provides the finite-model-theory toolkit to
//! *exhibit* those phenomena:
//!
//! - [`structure`] — finite structures: paths, cycles, disjoint unions,
//!   export to Datalog databases;
//! - [`logic`] — FO and existential-MSO model checking, with the paper's
//!   Examples 2.2.1 (disconnectedness), 2.2.2 (source–sink
//!   non-reachability) and 2.2.3 (cyclicity) as ready-made sentences;
//! - [`symmetry`] — executable cycle symmetry: monadic programs color
//!   all nodes of a cycle identically, cannot distinguish `P_n` from
//!   `P_n ⊎ C_k` or two large cycles, while the binary Program CYCLE
//!   does.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fixpoint;
pub mod logic;
pub mod structure;
pub mod symmetry;

pub use fixpoint::{has_cycle_via_fixpoint, MonadicFixpoint};
pub use logic::{emso_check, fo_sentence, FoFormula, FoTerm};
pub use structure::FiniteStructure;
