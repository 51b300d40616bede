//! Derivation trees and convergence profiling.
//!
//! Section 2.1 of the paper gives the operational semantics of Datalog via
//! derivation trees: a ground atom is in the minimum model iff it has a
//! tree whose leaves are database facts and whose internal nodes are rule
//! instantiations. This module exposes one such tree per derived fact,
//! and measures the **convergence profile** (new facts per iteration)
//! used by the boundedness experiments: a program is bounded w.r.t. its
//! goal iff derivation-tree size — equivalently, iterations to fixpoint —
//! is bounded independently of the database (Section 8).
//!
//! # Provenance at scale
//!
//! [`Provenance`] is a view over the columnar engine's justification
//! store: [`crate::eval::evaluate_with_provenance`] records, at staging
//! time inside the join, one first-found justification per derived row —
//! the rule index plus the body **row ids** into the
//! [`crate::storage::ColumnarRelation`] store. The view holds that
//! [`crate::materialize::Materialization`] and nothing else: atoms are
//! looked up in its rows, trees follow its justification entries, and
//! a justification's body relations are read off its rule slot's plan
//! (the type's read code is `materialize/provenance.rs`, next to the
//! store's fields). No `GroundAtom` is ever cloned during evaluation;
//! atoms materialize lazily when a tree or a justification is asked
//! for. Justifications are deterministic and identical at every thread
//! and shard count of the parallel engine.
//!
//! The paper's own workloads produce proofs that are deep, not just big
//! (a chain program's derivation is as deep as the chain is long). A
//! [`DerivationTree`] is therefore one flat array of [`Node`]s in
//! breadth-first order, each naming its children by an index range:
//! no value nests inside another, so cloning, comparing, printing and
//! dropping a 10⁵-deep tree take no more stack than a leaf, and
//! [`Provenance::tree`] fills the array from a queue. The metrics
//! [`Provenance::tree_size`] and [`Provenance::tree_height`] read the
//! justifications without building a tree.
//!
//! The specification's justifications, read off its fixpoint, are
//! [`crate::reference::Provenance`]; the equivalence suite checks both
//! and asserts they derive the same facts.

use crate::ast::{Pred, Program};
use crate::db::{Database, Tuple};
pub use crate::materialize::provenance::Provenance;
use std::ops::Range;

/// A ground atom `pred(c1, ..., ck)`.
#[derive(Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct GroundAtom {
    /// The predicate.
    pub pred: Pred,
    /// The constant arguments.
    pub args: Tuple,
}

/// A derivation tree for a ground atom: its nodes in breadth-first
/// order, the root first. A node's children are the contiguous range
/// of the array that the node's rule body fills, in rule-text order,
/// placed after every node before them; the shape of a tree fixes its
/// array, so the derived equality is structural. The array nests no
/// value in another, so every operation on a tree, derived ones
/// included, is a walk over a slice.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DerivationTree {
    pub(crate) nodes: Vec<Node>,
}

/// One node of a [`DerivationTree`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Node {
    /// The ground atom derived at this node.
    pub atom: GroundAtom,
    /// The index of the rule that derived it; `None` for a database fact
    /// (a leaf).
    pub rule: Option<usize>,
    /// Where the node's children sit in the tree's array, one per body
    /// atom of its rule in rule-text order; empty for a leaf.
    pub children: Range<usize>,
}

impl DerivationTree {
    /// Number of nodes.
    pub fn size(&self) -> usize {
        self.nodes.len()
    }

    /// Height (a leaf has height 1): one pass from the last node back to
    /// the root, every child sitting after its parent.
    pub fn height(&self) -> usize {
        let mut h = vec![0; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate().rev() {
            h[i] = 1 + h[node.children.clone()].iter().max().unwrap_or(&0);
        }
        h[0]
    }

    /// All nodes in breadth-first order, the root first: a node's
    /// children are `&tree.nodes()[node.children.clone()]`.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }
}

/// The convergence profile of a program on a database: `new_facts[i]` is
/// the number of facts first derived at iteration `i+1` of the semi-naive
/// fixpoint; `iterations` is its length. Prop. 8.2: for a chain program,
/// the profile length is bounded independently of the input iff `L(H)` is
/// finite.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConvergenceProfile {
    /// New facts per iteration.
    pub new_facts: Vec<u64>,
}

impl ConvergenceProfile {
    /// Measures the profile in one semi-naive run: the engine's watermark
    /// deltas *are* the per-stage new-fact counts. Semi-naive with the
    /// last-delta-occurrence convention is stage-exact — iteration `k`
    /// derives precisely the facts first derivable at stage `k` of the
    /// immediate-consequence operator — so this equals the naive
    /// round-by-round count without re-running rounds against snapshots.
    pub fn measure(program: &Program, db: &Database) -> ConvergenceProfile {
        Self::measure_with(program, db, crate::eval::Strategy::SemiNaive)
    }

    /// [`ConvergenceProfile::measure`] with an explicit strategy, so the
    /// thread count of [`crate::eval::Strategy::SemiNaiveParallel`] can
    /// flow through. The parallel engine's per-iteration deltas are
    /// identical to the sequential engine's, so the measured profile
    /// does not depend on the thread count.
    pub fn measure_with(
        program: &Program,
        db: &Database,
        strategy: crate::eval::Strategy,
    ) -> ConvergenceProfile {
        ConvergenceProfile {
            new_facts: crate::eval::seminaive_profile(program, db, strategy),
        }
    }

    /// Number of iterations to fixpoint.
    pub fn iterations(&self) -> usize {
        self.new_facts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Const;
    use crate::eval::{evaluate_with_provenance, Strategy};
    use crate::parser::parse_program;

    fn setup(n: usize) -> (Program, Database) {
        let mut p = parse_program(
            "?- anc(john, Y).\n\
             anc(X, Y) :- par(X, Y).\n\
             anc(X, Y) :- anc(X, Z), par(Z, Y).",
        )
        .unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let mut db = Database::new();
        let mut prev = p.symbols.constant("john");
        for i in 1..=n {
            let c = p.symbols.constant(&format!("c{i}"));
            db.insert(par, vec![prev, c]);
            prev = c;
        }
        (p, db)
    }

    #[test]
    fn derivation_tree_for_chain() {
        let (p, db) = setup(4);
        let prov = Provenance::compute(&p, &db);
        let anc = p.symbols.get_predicate("anc").unwrap();
        let john = p.symbols.get_constant("john").unwrap();
        let c4 = p.symbols.get_constant("c4").unwrap();
        let atom = GroundAtom {
            pred: anc,
            args: vec![john, c4],
        };
        let tree = prov.tree(&atom).expect("anc(john, c4) derivable");
        // Program A is left-linear: tree height grows with distance.
        assert_eq!(tree.height(), 5); // anc-anc-anc-anc chain + par leaf
        assert!(tree.size() >= 8);
        // The DAG metrics agree with the materialized tree.
        assert_eq!(prov.tree_height(&atom), Some(tree.height() as u64));
        assert_eq!(prov.tree_size(&atom), Some(tree.size() as u64));
        assert_eq!(tree.nodes().len(), tree.size());
    }

    #[test]
    fn leaves_are_database_facts() {
        let (p, db) = setup(2);
        let prov = Provenance::compute(&p, &db);
        let anc = p.symbols.get_predicate("anc").unwrap();
        let john = p.symbols.get_constant("john").unwrap();
        let c2 = p.symbols.get_constant("c2").unwrap();
        let tree = prov
            .tree(&GroundAtom {
                pred: anc,
                args: vec![john, c2],
            })
            .unwrap();
        let edbs = p.edb_predicates();
        assert!(tree
            .nodes()
            .iter()
            .filter(|t| t.rule.is_none())
            .all(|t| edbs.contains(&t.atom.pred)));
        prov.check(&p).expect("engine provenance is valid");
    }

    #[test]
    fn underivable_atom_has_no_tree() {
        let (p, db) = setup(2);
        let prov = Provenance::compute(&p, &db);
        let anc = p.symbols.get_predicate("anc").unwrap();
        let c1 = p.symbols.get_constant("c1").unwrap();
        let john = p.symbols.get_constant("john").unwrap();
        let atom = GroundAtom {
            pred: anc,
            args: vec![c1, john], // backwards
        };
        assert!(prov.tree(&atom).is_none());
        assert!(prov.tree_height(&atom).is_none());
        assert!(prov.justification(&atom).is_none());
    }

    #[test]
    fn justifications_are_rule_instantiations() {
        let (p, db) = setup(3);
        let prov = Provenance::compute(&p, &db);
        let anc = p.symbols.get_predicate("anc").unwrap();
        let john = p.symbols.get_constant("john").unwrap();
        let c3 = p.symbols.get_constant("c3").unwrap();
        let (rule, body) = prov
            .justification(&GroundAtom {
                pred: anc,
                args: vec![john, c3],
            })
            .unwrap();
        // anc(john, c3) can only come from the recursive rule.
        assert_eq!(rule, 1);
        assert_eq!(body.len(), 2);
        assert_eq!(prov.num_derived(), 6); // all anc pairs on a 3-chain
        assert_eq!(prov.derived().count(), 6);
    }

    #[test]
    fn provenance_identical_across_thread_and_shard_counts() {
        let (p, db) = setup(9);
        let seq = evaluate_with_provenance(&p, &db, Strategy::SemiNaive);
        for strategy in [
            Strategy::SemiNaiveParallel { threads: 2 },
            Strategy::SemiNaiveParallel { threads: 3 },
            Strategy::SemiNaiveParallel { threads: 4 },
        ] {
            let par = evaluate_with_provenance(&p, &db, strategy);
            assert_eq!(par.stats(), seq.stats(), "{strategy:?}");
            assert_eq!(par, seq, "{strategy:?}");
        }
    }

    /// A 200k-deep chain tree built by hand, in the breadth-first
    /// layout: node `i` derives `p(0, DEPTH - i)` from node `i + 1`, the
    /// last node a database fact. Must pass in the default (dev) test
    /// profile, where thread stacks are smallest — a tree type that
    /// nests its subtrees recurses in clone, equality and drop.
    #[test]
    fn deep_chain_tree_metrics_are_iterative_200k() {
        const DEPTH: usize = 200_000;
        let nodes = (0..DEPTH)
            .map(|i| {
                let leaf = i + 1 == DEPTH;
                Node {
                    atom: GroundAtom {
                        pred: Pred(u32::from(leaf)),
                        args: vec![Const(0), Const((DEPTH - i) as u32)],
                    },
                    rule: (!leaf).then_some(0),
                    children: if leaf { DEPTH..DEPTH } else { i + 1..i + 2 },
                }
            })
            .collect();
        let t = DerivationTree { nodes };
        assert_eq!(t.height(), DEPTH);
        assert_eq!(t.size(), DEPTH);
        assert_eq!(t.nodes().len(), DEPTH);
        // Clone and structural equality walk the array.
        let c = t.clone();
        assert_eq!(c.height(), DEPTH);
        assert!(c == t, "eq on the deep clone");
        // The implicit drops of `t` and `c` here complete the test: a
        // nested tree's drop glue would recurse 200k frames deep.
    }

    /// A ≥200k-deep proof produced by the engine, reconstructed and
    /// measured through the columnar provenance. Uses the monadic
    /// Program D (linear model) so the fixpoint itself stays O(n).
    #[test]
    fn deep_chain_provenance_reconstruction_200k() {
        const N: usize = 200_000;
        let mut p = parse_program(
            "?- ancjohn(Y).\n\
             ancjohn(Y) :- par(john, Y).\n\
             ancjohn(Y) :- ancjohn(Z), par(Z, Y).",
        )
        .unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let mut db = Database::new();
        let mut prev = p.symbols.constant("john");
        let mut last = prev;
        for i in 1..=N {
            let c = p.symbols.constant(&format!("c{i}"));
            db.insert(par, vec![prev, c]);
            prev = c;
            last = c;
        }
        let prov = Provenance::compute(&p, &db);
        let ancjohn = p.symbols.get_predicate("ancjohn").unwrap();
        let deepest = GroundAtom {
            pred: ancjohn,
            args: vec![last],
        };
        // DAG metrics without materialization.
        assert_eq!(prov.tree_height(&deepest), Some(N as u64 + 1));
        assert_eq!(prov.tree_size(&deepest), Some(2 * N as u64));
        assert_eq!(prov.max_height(), N as u64 + 1);
        // Full reconstruction of the 400k-node tree — and its drop at
        // scope end.
        let tree = prov.tree(&deepest).expect("deepest fact derivable");
        assert_eq!(tree.height(), N + 1);
        assert_eq!(tree.size(), 2 * N);
    }

    #[test]
    fn convergence_profile_grows_with_chain() {
        let (p, db) = setup(6);
        let prof = ConvergenceProfile::measure(&p, &db);
        // transitive closure of a 6-chain: 6 rounds of new facts
        assert_eq!(prof.iterations(), 6);
        let total: u64 = prof.new_facts.iter().sum();
        // all anc pairs on a 6-chain: 6+5+4+3+2+1 = 21
        assert_eq!(total, 21);
    }

    #[test]
    fn bounded_program_profile_is_constant() {
        // grandparent: bounded (nonrecursive) — 1 iteration regardless of n
        let mut p = parse_program(
            "?- gp(john, Y).\n\
             gp(X, Y) :- par(X, Z), par(Z, Y).",
        )
        .unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        for n in [3usize, 10] {
            let mut db = Database::new();
            let mut prev = p.symbols.constant("john");
            for i in 1..=n {
                let c = p.symbols.constant(&format!("k{n}_{i}"));
                db.insert(par, vec![prev, c]);
                prev = c;
            }
            let prof = ConvergenceProfile::measure(&p, &db);
            assert_eq!(prof.iterations(), 1, "nonrecursive program is bounded");
        }
    }
}
