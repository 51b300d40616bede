//! # selprop-grammar
//!
//! Context-free grammar toolkit for the reproduction of *Beeri,
//! Kanellakis, Bancilhon, Ramakrishnan — "Bounds on the Propagation of
//! Selection into Logic Programs"* (PODS 1987 / JCSS 1990).
//!
//! Section 3 of the paper associates with every chain program `H` a
//! grammar `G(H)` and language `L(H)`; the paper's results are stated in
//! terms of `L(H)`:
//!
//! - **finiteness** of `L(H)` — decidable — characterizes propagation of
//!   the `p(X,X)` selection (Theorem 3.3(2)) and boundedness /
//!   first-order expressibility (Prop. 8.2): [`analysis`];
//! - **regularity** of `L(H)` — undecidable — characterizes propagation
//!   of selections with constants (Theorem 3.3(1)); this crate provides
//!   the decidable machinery around that undecidable core:
//!   [`self_embedding`] (Chomsky's sufficient condition) and [`regular`]
//!   (strongly-regular exact compilation plus the Mohri–Nederhof
//!   envelope `R(H)` of Section 7);
//! - **quotients** `L(H)/R` — the semantics of magic sets (Section 7):
//!   [`quotient`], with [`barhillel`] products as supporting machinery;
//! - **sentential forms** — the undecidability reduction of Prop. 8.1:
//!   [`sentential`];
//! - **unary alphabets** — effective regularity for one-letter languages
//!   (every unary CFL is regular): [`unary`];
//! - [`cnf`] — Chomsky normal form and CYK membership, the ground truth
//!   every construction is validated against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod barhillel;
pub mod cfg;
pub mod clean;
pub mod cnf;
pub mod quotient;
pub mod regular;
pub mod self_embedding;
pub mod sentential;
pub mod unary;

pub use cfg::{Cfg, NonTerminal, Production, Sym};
pub use cnf::CnfGrammar;
