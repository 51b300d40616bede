//! # selprop-core
//!
//! Selection propagation for chain Datalog programs: the primary
//! contribution of *Beeri, Kanellakis, Bancilhon, Ramakrishnan — "Bounds
//! on the Propagation of Selection into Logic Programs"* (PODS 1987 /
//! JCSS 1990), reproduced end-to-end.
//!
//! ## The paper in one paragraph
//!
//! A chain program `H` (binary recursive Datalog whose rule bodies thread
//! `X → X1 → ... → Y`) induces a context-free language `L(H)` over its
//! EDB predicates. Propagating a selection into `H` — finding an
//! equivalent program whose derived predicates are all **monadic** — is
//! possible **iff `L(H)` is regular** when the goal carries a constant
//! (`p(c,Y)`, `p(X,c)`, `p(c,c1)`, `p(c,c)`), and **iff `L(H)` is
//! finite** for the diagonal goal `p(X,X)` (Theorem 3.3). The first
//! condition is undecidable, the second decidable (Corollary 3.4).
//!
//! ## Crate map
//!
//! - [`chain`] — chain programs, goal classification, the grammar `G(H)`;
//! - [`propagate`](mod@propagate) — the decision engine: `Propagated` with a
//!   machine-checkable certificate, `Impossible` with a pumping witness,
//!   or `Unknown` with what steps 1–4 found; the evidence (the
//!   undecidability made visible) is sampled on request by
//!   [`Undecided::evidence`](propagate::Undecided::evidence);
//! - [`rewrite`] — the constructive direction: DFA → monadic program
//!   (Example 1.1's Program A → Program D, generalized), and the finite
//!   tableaux rewrite for `p(X,X)`;
//! - [`inf_model`] — the infinite tree `IG` and Proposition 3.1 on its
//!   truncations;
//! - [`bounded`] — Proposition 8.2: FO-expressible ⇔ bounded ⇔ `L(H)`
//!   finite, with the FO form constructed;
//! - [`contain`] — Proposition 8.1: uniformity, containment and
//!   equivalence with the decidable fragments exact;
//! - [`magic_chain`] — Section 7: magic sets as language quotients
//!   `L(H)/R_i`, with the regular envelope `R(H)/R_i` fallback;
//! - [`workload`] — deterministic database generators for the experiment
//!   harness (E1–E10 in `EXPERIMENTS.md`);
//! - [`gallery`] — the paper's program corpus with ground truth, shared
//!   by examples, tests and benches.
//!
//! ## Quickstart
//!
//! ```
//! use selprop_core::chain::ChainProgram;
//! use selprop_core::propagate::{propagate, Propagation};
//!
//! let chain = ChainProgram::parse(
//!     "?- anc(john, Y).\n\
//!      anc(X, Y) :- par(X, Y).\n\
//!      anc(X, Y) :- anc(X, Z), par(Z, Y).",
//! ).unwrap();
//! match propagate(&chain).unwrap() {
//!     Propagation::Propagated { program, certificate } => {
//!         assert!(program.is_monadic());
//!         println!("{}\n-- via {}", program.render(), certificate.describe());
//!     }
//!     other => panic!("ancestors propagate: {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounded;
pub mod chain;
pub mod contain;
pub mod gallery;
pub mod inf_model;
pub mod magic_chain;
pub mod propagate;
pub mod rewrite;
pub mod workload;

pub use chain::{ChainProgram, GoalForm};
pub use propagate::{propagate, Propagation, RegularityCertificate};
