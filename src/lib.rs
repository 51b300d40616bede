//! # selprop — umbrella crate
//!
//! One-stop re-export of the reproduction of *Beeri, Kanellakis,
//! Bancilhon, Ramakrishnan — "Bounds on the Propagation of Selection
//! into Logic Programs"* (PODS 1987 / JCSS 1990).
//!
//! The actual machinery lives in the workspace crates; this package
//! re-exports them under stable names and owns the repository-level
//! integration tests (`tests/`, keyed to the paper's theorems) and the
//! runnable walkthroughs (`examples/`). See the repository `README.md`
//! for the crate map and `EXPERIMENTS.md` for the E1–E10 harness.
//!
//! ```
//! use selprop::core::chain::ChainProgram;
//! use selprop::core::propagate::{propagate, Propagation};
//!
//! let chain = ChainProgram::parse(
//!     "?- anc(john, Y).\n\
//!      anc(X, Y) :- par(X, Y).\n\
//!      anc(X, Y) :- anc(X, Z), par(Z, Y).",
//! )
//! .unwrap();
//! assert!(matches!(
//!     propagate(&chain).unwrap(),
//!     Propagation::Propagated { .. }
//! ));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use selprop_automata as automata;
pub use selprop_core as core;
pub use selprop_datalog as datalog;
pub use selprop_grammar as grammar;
pub use selprop_mgs as mgs;
pub use selprop_ws1s as ws1s;
