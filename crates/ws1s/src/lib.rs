//! # selprop-ws1s
//!
//! Weak monadic second-order logic of one successor (WS1S) on finite
//! words, for the reproduction of *Beeri, Kanellakis, Bancilhon,
//! Ramakrishnan — "Bounds on the Propagation of Selection into Logic
//! Programs"* (PODS 1987 / JCSS 1990).
//!
//! Section 5 of the paper proves the hard direction of Theorem 3.3(1) by
//! translating a hypothetical monadic Datalog program into a WS1S formula
//! and invoking Büchi–Elgot regularity. This crate makes that argument
//! executable:
//!
//! - [`syntax`] — WS1S formulas (first-order position variables, weak
//!   second-order set variables, `succ`, order, membership);
//! - [`compile`](mod@compile) — the Büchi–Elgot–Trakhtenbrot decision procedure:
//!   formulas compile to DFAs over bit-vector track alphabets, so
//!   `Language(φ)` is regular *constructively*;
//! - [`encode`] — the Lemma 5.1 construction: a monadic Datalog program
//!   over binary (chain) EDBs becomes a formula whose models, read
//!   through the EDB partition tracks, are exactly the language the
//!   program defines on labeled line databases.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
pub mod encode;
pub mod syntax;

pub use compile::{compile, CompiledFormula};
pub use encode::{encode_monadic_program, extract_language, ChainEncoding};
pub use syntax::{Formula, VarAllocator, VarId};
