//! # selprop-datalog
//!
//! A Datalog engine built as the substrate for the reproduction of
//! *Beeri, Kanellakis, Bancilhon, Ramakrishnan — "Bounds on the
//! Propagation of Selection into Logic Programs"* (PODS 1987 / JCSS 1990).
//!
//! The paper's Section 2.1 semantics are implemented exactly:
//!
//! - [`ast`] — the three disjoint symbol spaces (constants, variables,
//!   predicates), atoms, rules, programs with a distinguished goal;
//! - [`parser`] — the Prolog-like surface syntax of the paper's examples;
//! - [`db`] — databases as finite structures;
//! - [`materialize`] — the **persistent incremental materialization
//!   layer**: a [`materialize::Materialization`] keeps a program's
//!   minimum model at fixpoint across updates. Its one write,
//!   [`materialize::Materialization::apply`], takes an
//!   [`materialize::UpdateRound`]: inserted facts resume semi-naive
//!   evaluation as the delta (no recompute), and retracted facts are
//!   removed by delete–rederive over the recorded justifications.
//!   `materialize.rs` is the store and its round; each phase of a round
//!   is a file under `materialize/`, named for the `materialize.*` (and
//!   `eval.*`) per-layer metrics of `BENCHMARK.json` it answers to: `join.rs`
//!   (one rule pass, which asks its own staged heads whether a candidate
//!   head is a duplicate before it asks the store: the store is frozen
//!   for the pass, so a staged head is one the store does not hold),
//!   `fixpoint.rs` (rounds, depth-0-sharded over one
//!   [`std::thread::scope`] each, and the merge), `dred.rs`
//!   (over-delete and rescue), `compact.rs`, `codec.rs` (the snapshot
//!   payload) and `template.rs` (the query cache's view stores);
//!   `provenance.rs`, no phase, reads derivation trees off the store;
//! - [`eval`] — minimum-model semantics via instrumented
//!   **semi-naive** and **parallel semi-naive** bottom-up fixpoints
//!   (work counters power the experiment harness). Batch evaluation is
//!   a special case of the incremental engine: the entry points are
//!   thin wrappers that build a materialization, run its first round to
//!   fixpoint and read the result out (the recording store itself, as a
//!   [`derivation::Provenance`]). Of [`eval::EvalStats`], iterations, firings
//!   and derived tuples equal the specification's under every strategy,
//!   order and thread count; join probes, the plan's own, are pinned on
//!   fixed inputs;
//! - [`plan`] — compiled join plans and the **cost-based join
//!   planner**: one plan per (rule, body atom), that atom first and
//!   the rest selectivity-ordered, so an update round costs O(|Δ| +
//!   derivations); a build is the first update round, whose seeding
//!   pass enters each rule through the atom the greedy order starts
//!   with; staged-head existence pruning, and
//!   structural recognition of the transitive-closure shape for the
//!   specialized kernel. Plans are static — compiled where a store is
//!   built, a rule added or a snapshot restored; one planning entry
//!   point serves the engine, the magic-set views and rule hot-swap.
//!   The one setting is the body order, [`plan::OrderMode`], whose
//!   `Shuffled` value is the order-independence test hook for every
//!   plan a store compiles (`BENCHMARK.json`: `plan.*`);
//! - [`storage`] — columnar relations (one flat `Vec<Const>` per
//!   predicate, rows deduplicated by an [`hash::FxHasher`] row table)
//!   and the incremental join indexes (`BENCHMARK.json`: `storage.*`);
//! - [`mod@reference`] — the executable specification: the minimum
//!   model by textbook semi-naive iteration of the immediate-consequence
//!   operator in rule-text order, importing nothing from the planner or
//!   the engine. One loop yields the model, the goal answer and one
//!   first-found justification per fact ([`reference::Provenance`], the
//!   spec for the engine's recorded justifications);
//! - [`derivation`] — the operational semantics: derivation trees and
//!   convergence profiles (the executable form of boundedness,
//!   Section 8). [`eval::evaluate_with_provenance`] records one
//!   first-found justification (rule + body row ids) per derived row
//!   inside the columnar join — deterministic at every thread and shard
//!   count — and [`derivation::Provenance`], a read-only view that holds
//!   the recording store and reads its rows, justifications and rule
//!   slots (no second copy), reconstructs trees and computes their
//!   size and height. A [`DerivationTree`] is one flat node array, so
//!   the 10⁵-deep proofs of the chain workloads cannot overflow the
//!   stack;
//! - [`magic`] — adornments and the generalized magic-sets rewriting (ref.\[5\]),
//!   which Section 7 of the paper interprets as language quotients; a
//!   [`magic::MagicTemplate`] is the constant-free form compiled once
//!   per (predicate, binding pattern) and instantiated per constant
//!   vector through a seed predicate;
//! - [`cache`] — **selection propagation as a service**: a
//!   [`cache::QueryCache`] holds small magic-template materializations
//!   ("views") keyed by (predicate, binding pattern, bound constants)
//!   that share the base store's EDB rows and are kept at fixpoint
//!   incrementally as the base churns — so a bound query pays the
//!   magic-pruned cost once and near-zero afterwards;
//! - [`persist`] — **durability**: the versioned, length-prefixed,
//!   checksummed snapshot container (FNV-1a 64, atomic writes;
//!   `BENCHMARK.json`: `persist.*`) around the payload that
//!   `materialize/codec.rs` writes; [`materialize::Materialization::save`] /
//!   [`materialize::Materialization::restore`] round-trip the complete
//!   materialized state bit-for-bit, so a store (or a whole
//!   [`server::Server`]) comes back at its persisted fixpoint without
//!   re-evaluation, and truncated or corrupted snapshot files always
//!   fail cleanly ([`persist::PersistError`]) instead of restoring a
//!   wrong store. Bounded memory under churn comes from
//!   [`materialize::Materialization::compact`] (tombstone reclamation
//!   with dense row-id remapping, policy-triggered via
//!   [`materialize::CompactionPolicy`]);
//! - [`server`] — the **concurrent live materialization server**: a
//!   [`server::Server`] shares one materialization between many reader
//!   threads and a writer applying batched
//!   [`materialize::UpdateRound`]s (fact churn + rule hot-swap).
//!   Readers pin epoch-tagged snapshots ([`server::Snapshot`]) that
//!   keep serving their exact pinned fixpoint — never a stale mix,
//!   never a mid-round state — while unobservable epochs are reclaimed
//!   compaction-free.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod cache;
pub mod db;
pub mod derivation;
pub mod eval;
pub mod hash;
pub mod magic;
pub mod materialize;
pub mod parser;
pub mod persist;
pub mod plan;
pub mod reference;
pub mod server;
pub mod storage;

pub use ast::{Atom, Const, Pred, Program, Rule, Symbols, Term, Var};
pub use cache::{CacheConfig, CacheStats, QueryCache};
pub use db::{Database, Relation};
pub use derivation::{DerivationTree, GroundAtom, Provenance};
pub use eval::{
    answer, evaluate, evaluate_cfg, evaluate_with_provenance, evaluate_with_provenance_cfg,
    EvalStats, Strategy,
};
pub use materialize::{
    CompactionPolicy, Materialization, MemStats, RoundReport, RuleId, UpdateRound,
};
pub use parser::parse_program;
pub use persist::PersistError;
pub use plan::OrderMode;
pub use server::{Server, Snapshot};
