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
//! Because the paper's own workloads produce proofs that are deep, not
//! just big (a chain program's derivation is as deep as the chain is
//! long), **every** tree operation here is iterative: reconstruction
//! ([`Provenance::tree`]), the metrics ([`DerivationTree::size`],
//! [`DerivationTree::height`], [`Provenance::tree_size`],
//! [`Provenance::tree_height`]), node iteration
//! ([`DerivationTree::nodes`]), and even `Drop` (the derive'd drop glue
//! would recurse through 10⁵ nested nodes and overflow the stack of a
//! default test thread).
//!
//! The specification's justifications, read off its fixpoint, are
//! [`crate::reference::Provenance`]; the equivalence suite checks both
//! and asserts they derive the same facts.

use crate::ast::{Pred, Program};
use crate::db::{Database, Tuple};
pub use crate::materialize::provenance::Provenance;

/// A ground atom `pred(c1, ..., ck)`.
#[derive(Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct GroundAtom {
    /// The predicate.
    pub pred: Pred,
    /// The constant arguments.
    pub args: Tuple,
}

/// A derivation tree for a ground atom.
///
/// All operations — size, height, node iteration, clone, equality, and
/// drop — are iterative, so trees hundreds of thousands of nodes deep
/// are safe on default-size thread stacks. (The one exception is the
/// derived `Debug` formatting, whose output is inherently nested — do
/// not debug-print ultra-deep trees.)
#[derive(Debug, Eq)]
pub struct DerivationTree {
    /// The derived ground atom at this node.
    pub atom: GroundAtom,
    /// `None` for database facts (leaves); otherwise the rule index used
    /// and the subtrees deriving the body atoms.
    pub via: Option<(usize, Vec<DerivationTree>)>,
}

impl DerivationTree {
    /// Number of nodes (iterative; deep chains do not overflow).
    pub fn size(&self) -> usize {
        self.nodes().count()
    }

    /// Height (a leaf has height 1; iterative).
    pub fn height(&self) -> usize {
        let mut max = 0usize;
        let mut stack: Vec<(&DerivationTree, usize)> = vec![(self, 1)];
        while let Some((t, h)) = stack.pop() {
            max = max.max(h);
            if let Some((_, kids)) = &t.via {
                stack.extend(kids.iter().map(|k| (k, h + 1)));
            }
        }
        max
    }

    /// Iterates over all nodes (pre-order, iterative).
    pub fn nodes(&self) -> impl Iterator<Item = &DerivationTree> {
        let mut stack = vec![self];
        std::iter::from_fn(move || {
            let t = stack.pop()?;
            if let Some((_, kids)) = &t.via {
                stack.extend(kids.iter());
            }
            Some(t)
        })
    }
}

impl Clone for DerivationTree {
    /// Iterative clone: the derived clone glue recurses per nested
    /// node, which overflows the stack on the ≥10⁵-deep proofs the
    /// chain workloads produce.
    fn clone(&self) -> Self {
        let Some((rule0, kids0)) = &self.via else {
            return DerivationTree {
                atom: self.atom.clone(),
                via: None,
            };
        };
        struct Frame<'a> {
            atom: &'a GroundAtom,
            rule: usize,
            src: &'a [DerivationTree],
            kids: Vec<DerivationTree>,
        }
        let mut stack = vec![Frame {
            atom: &self.atom,
            rule: *rule0,
            src: kids0,
            kids: Vec::with_capacity(kids0.len()),
        }];
        loop {
            let (src, built) = {
                let f = stack.last().expect("non-empty until the root completes");
                (f.src, f.kids.len())
            };
            if built < src.len() {
                let child = &src[built];
                match &child.via {
                    None => stack
                        .last_mut()
                        .expect("frame exists")
                        .kids
                        .push(DerivationTree {
                            atom: child.atom.clone(),
                            via: None,
                        }),
                    Some((crule, ckids)) => stack.push(Frame {
                        atom: &child.atom,
                        rule: *crule,
                        src: ckids,
                        kids: Vec::with_capacity(ckids.len()),
                    }),
                }
            } else {
                let f = stack.pop().expect("frame exists");
                let node = DerivationTree {
                    atom: f.atom.clone(),
                    via: Some((f.rule, f.kids)),
                };
                match stack.last_mut() {
                    None => return node,
                    Some(parent) => parent.kids.push(node),
                }
            }
        }
    }
}

impl PartialEq for DerivationTree {
    /// Iterative structural equality (the derived impl recurses).
    fn eq(&self, other: &Self) -> bool {
        let mut stack = vec![(self, other)];
        while let Some((a, b)) = stack.pop() {
            if a.atom != b.atom {
                return false;
            }
            match (&a.via, &b.via) {
                (None, None) => {}
                (Some((ra, ka)), Some((rb, kb))) => {
                    if ra != rb || ka.len() != kb.len() {
                        return false;
                    }
                    stack.extend(ka.iter().zip(kb.iter()));
                }
                _ => return false,
            }
        }
        true
    }
}

impl Drop for DerivationTree {
    /// Iterative drop: the derived drop glue recurses through nested
    /// nodes, which overflows the stack on the ≥10⁵-deep proofs the
    /// chain workloads produce.
    fn drop(&mut self) {
        if let Some((_, kids)) = self.via.take() {
            let mut stack = kids;
            while let Some(mut t) = stack.pop() {
                if let Some((_, mut k)) = t.via.take() {
                    stack.append(&mut k);
                    // `t` drops here with `via == None`: no recursion.
                }
            }
        }
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
        assert_eq!(tree.nodes().count(), tree.size());
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
            .filter(|t| t.via.is_none())
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

    /// Satellite regression: a ≥200k-deep manually-built chain tree.
    /// Must pass in the default (dev) test profile, where thread stacks
    /// are smallest — recursion in size/height/drop would overflow.
    #[test]
    fn deep_chain_tree_metrics_are_iterative_200k() {
        const DEPTH: usize = 200_000;
        let mut t = DerivationTree {
            atom: GroundAtom {
                pred: Pred(1),
                args: vec![Const(0), Const(1)],
            },
            via: None,
        };
        for i in 1..DEPTH {
            t = DerivationTree {
                atom: GroundAtom {
                    pred: Pred(0),
                    args: vec![Const(0), Const(i as u32 + 1)],
                },
                via: Some((0, vec![t])),
            };
        }
        assert_eq!(t.height(), DEPTH);
        assert_eq!(t.size(), DEPTH);
        assert_eq!(t.nodes().count(), DEPTH);
        // Clone and structural equality are iterative too.
        let c = t.clone();
        assert_eq!(c.height(), DEPTH);
        assert!(c == t, "iterative eq on the deep clone");
        // The implicit drops of `t` and `c` here complete the test:
        // derive'd drop glue would recurse 200k frames deep.
    }

    /// Satellite regression: a ≥200k-deep proof produced by the engine,
    /// reconstructed and measured through the columnar provenance. Uses
    /// the monadic Program D (linear model) so the fixpoint itself stays
    /// O(n).
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
        // Full iterative reconstruction of the 400k-node tree — and its
        // iterative drop at scope end.
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
