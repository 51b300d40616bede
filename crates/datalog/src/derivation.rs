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
//! [`crate::storage::ColumnarRelation`] store. No `GroundAtom` is ever
//! cloned during evaluation; atoms materialize lazily when a tree or a
//! justification is asked for. Justifications are deterministic and
//! identical at every thread and shard count of the parallel engine.
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
use crate::db::{Database, Relation, Tuple};
use crate::hash::FxHashMap;
use crate::materialize::RelJust;
use crate::storage::{ColumnarRelation, NO_ROW};

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

/// Sentinel metric values (also used as memo-table states).
const UNSET: u64 = u64::MAX;
const PENDING: u64 = u64::MAX - 1;
/// Metrics saturate here so they never collide with the sentinels.
const METRIC_CAP: u64 = u64::MAX - 2;

/// Row-id provenance recorded by the columnar engine: for every derived
/// IDB row, the rule index and the body row ids that first derived it.
///
/// Produced by [`crate::eval::evaluate_with_provenance`]. Equality is
/// bit-for-bit over the row stores and justification tables — what the
/// thread-determinism tests assert.
#[derive(Clone, Debug, PartialEq)]
pub struct Provenance {
    rels: Vec<ColumnarRelation>,
    pred_of_rel: Vec<Pred>,
    rel_of_pred: FxHashMap<Pred, u32>,
    /// Per relation: whether it is an IDB of the program (has
    /// justifications; EDB rows are leaves).
    idb: Vec<bool>,
    just: Vec<RelJust>,
    /// Per rule: the dense relation id of each body atom.
    body_rels: Vec<Vec<u32>>,
}

impl Provenance {
    pub(crate) fn from_engine(
        rels: Vec<ColumnarRelation>,
        pred_of_rel: Vec<Pred>,
        rel_of_pred: FxHashMap<Pred, u32>,
        idb_rels: Vec<u32>,
        body_rels: Vec<Vec<u32>>,
        just: Vec<RelJust>,
    ) -> Self {
        let mut idb = vec![false; rels.len()];
        for r in idb_rels {
            idb[r as usize] = true;
        }
        debug_assert!(idb
            .iter()
            .zip(&rels)
            .zip(&just)
            .all(|((&i, r), j)| !i || j.len() == r.num_rows()));
        Self {
            rels,
            pred_of_rel,
            rel_of_pred,
            idb,
            just,
            body_rels,
        }
    }

    /// Evaluates `program` on `db` with the columnar engine, recording
    /// one first-found justification per derived fact (sequential
    /// semi-naive; use [`crate::eval::evaluate_with_provenance`] for an
    /// explicit strategy — the justifications are identical).
    pub fn compute(program: &Program, db: &Database) -> Provenance {
        crate::eval::evaluate_with_provenance(program, db, crate::eval::Strategy::SemiNaive)
            .provenance
    }

    /// Locates an atom in the row store.
    fn rel_row(&self, atom: &GroundAtom) -> Option<(usize, u32)> {
        let rel = *self.rel_of_pred.get(&atom.pred)? as usize;
        if self.rels[rel].arity() != atom.args.len() {
            return None;
        }
        let row = self.rels[rel].find_row(&atom.args);
        (row != NO_ROW).then_some((rel, row))
    }

    /// The atom stored at `(rel, row)`.
    fn atom_at(&self, rel: usize, row: u32) -> GroundAtom {
        GroundAtom {
            pred: self.pred_of_rel[rel],
            args: self.rels[rel].row(row).to_vec(),
        }
    }

    /// The recorded justification of a row: `None` for EDB rows
    /// (leaves), `Some((rule, body row ids))` for derived rows.
    fn just_of(&self, rel: usize, row: u32) -> Option<(u32, &[u32])> {
        if !self.idb[rel] {
            return None;
        }
        Some(self.just[rel].entry(row))
    }

    /// The justification of a derived fact: the rule index and the body
    /// ground atoms of its first-found derivation. `None` if the atom is
    /// not a derived IDB fact in the model.
    pub fn justification(&self, atom: &GroundAtom) -> Option<(usize, Vec<GroundAtom>)> {
        let (rel, row) = self.rel_row(atom)?;
        let (rule, body) = self.just_of(rel, row)?;
        let atoms = body
            .iter()
            .enumerate()
            .map(|(k, &b)| self.atom_at(self.body_rels[rule as usize][k] as usize, b))
            .collect();
        Some((rule as usize, atoms))
    }

    /// All derived live IDB ground atoms, in derivation (row id) order
    /// per predicate (tombstoned rows — retracted by the incremental
    /// maintenance layer — are skipped).
    pub fn derived(&self) -> impl Iterator<Item = GroundAtom> + '_ {
        self.rels
            .iter()
            .enumerate()
            .filter(|&(r, _)| self.idb[r])
            .flat_map(move |(r, rel)| {
                rel.row_ids(..)
                    .filter(move |&row| rel.is_live(row))
                    .map(move |row| self.atom_at(r, row))
            })
    }

    /// Number of derived live IDB facts (= live rows, each of which
    /// carries a justification).
    pub fn num_derived(&self) -> usize {
        self.rels
            .iter()
            .enumerate()
            .filter(|&(r, _)| self.idb[r])
            .map(|(_, rel)| rel.num_live())
            .sum()
    }

    /// Materializes the IDB model as a [`Database`] (what a plain
    /// [`crate::eval::evaluate`] returns). O(model) — built on demand so
    /// provenance-only consumers (tree metrics, boundedness
    /// measurements) never pay for it.
    pub fn idb_database(&self) -> Database {
        let mut idb_db = Database::new();
        for (r, rel) in self.rels.iter().enumerate() {
            if !self.idb[r] {
                continue;
            }
            let rows = Relation::from_rows(rel.arity(), rel.rows_iter());
            idb_db.set_relation(self.pred_of_rel[r], rows);
        }
        idb_db
    }

    /// Builds the derivation tree of a ground atom, if it is in the
    /// model (a leaf for database facts). Iterative: proof depth is
    /// bounded by memory, not stack.
    pub fn tree(&self, atom: &GroundAtom) -> Option<DerivationTree> {
        let (rel0, row0) = self.rel_row(atom)?;
        let Some((rule0, _)) = self.just_of(rel0, row0) else {
            return Some(DerivationTree {
                atom: self.atom_at(rel0, row0),
                via: None,
            });
        };
        struct Frame {
            rel: usize,
            row: u32,
            rule: u32,
            kids: Vec<DerivationTree>,
        }
        let mut stack = vec![Frame {
            rel: rel0,
            row: row0,
            rule: rule0,
            kids: Vec::new(),
        }];
        loop {
            let (frel, frow, frule, built) = {
                let f = stack.last().expect("non-empty until the root completes");
                (f.rel, f.row, f.rule, f.kids.len())
            };
            let body = self.just_of(frel, frow).expect("frames are derived rows").1;
            if built < body.len() {
                let crel = self.body_rels[frule as usize][built] as usize;
                let crow = body[built];
                match self.just_of(crel, crow) {
                    None => stack
                        .last_mut()
                        .expect("frame exists")
                        .kids
                        .push(DerivationTree {
                            atom: self.atom_at(crel, crow),
                            via: None,
                        }),
                    Some((crule, _)) => stack.push(Frame {
                        rel: crel,
                        row: crow,
                        rule: crule,
                        kids: Vec::new(),
                    }),
                }
            } else {
                let f = stack.pop().expect("frame exists");
                let node = DerivationTree {
                    atom: self.atom_at(f.rel, f.row),
                    via: Some((f.rule as usize, f.kids)),
                };
                match stack.last_mut() {
                    None => return Some(node),
                    Some(parent) => parent.kids.push(node),
                }
            }
        }
    }

    /// Number of nodes of the atom's derivation tree, without
    /// materializing it: iterative memoized dynamic programming over the
    /// justification DAG (shared sub-derivations are counted once per
    /// occurrence, as the tree semantics demands; values saturate).
    pub fn tree_size(&self, atom: &GroundAtom) -> Option<u64> {
        let (rel, row) = self.rel_row(atom)?;
        let mut ctx = MetricCtx::new(self, false);
        Some(ctx.get(rel, row).expect("engine provenance is acyclic"))
    }

    /// Height of the atom's derivation tree (a leaf has height 1),
    /// without materializing it.
    pub fn tree_height(&self, atom: &GroundAtom) -> Option<u64> {
        let (rel, row) = self.rel_row(atom)?;
        let mut ctx = MetricCtx::new(self, true);
        Some(ctx.get(rel, row).expect("engine provenance is acyclic"))
    }

    /// Derivation-tree heights of every live row of `pred`, in row
    /// (first derivation) order; empty if the predicate derived nothing.
    pub fn heights(&self, pred: Pred) -> Vec<u64> {
        let Some(&rel) = self.rel_of_pred.get(&pred) else {
            return Vec::new();
        };
        let (rel, cr) = (rel as usize, &self.rels[rel as usize]);
        let mut ctx = MetricCtx::new(self, true);
        cr.row_ids(..)
            .filter(|&row| cr.is_live(row))
            .map(|row| ctx.get(rel, row).expect("engine provenance is acyclic"))
            .collect()
    }

    /// The maximum derivation-tree height over all derived live facts
    /// (0 if nothing was derived) — the executable form of the Section 8
    /// boundedness measure.
    pub fn max_height(&self) -> u64 {
        let mut ctx = MetricCtx::new(self, true);
        let mut max = 0;
        for (rel, cr) in self.rels.iter().enumerate() {
            if !self.idb[rel] {
                continue;
            }
            for row in cr.row_ids(..) {
                if !cr.is_live(row) {
                    continue;
                }
                max = max.max(ctx.get(rel, row).expect("engine provenance is acyclic"));
            }
        }
        max
    }

    /// Validity check: every recorded justification is a genuine
    /// instantiation of its rule (constants match, repeated variables
    /// bind consistently, the head instantiates to the derived row), all
    /// body row ids are real rows, and every justification chain is
    /// well-founded — it bottoms out in EDB rows. This is the bridge the
    /// equivalence suite uses between this engine-recorded provenance
    /// and the specification's [`crate::reference::Provenance`].
    pub fn check(&self, program: &Program) -> Result<(), String> {
        use crate::ast::Term;
        let edbs = program.edb_predicates();
        for (rel, cr) in self.rels.iter().enumerate() {
            if !self.idb[rel] {
                if cr.num_live() > 0 && !edbs.contains(&self.pred_of_rel[rel]) {
                    return Err(format!(
                        "leaf relation {rel} is not an EDB predicate of the program"
                    ));
                }
                continue;
            }
            for row in cr.row_ids(..) {
                if !cr.is_live(row) {
                    continue; // retracted rows keep stale, unread entries
                }
                let (rule_i, body) = self
                    .just_of(rel, row)
                    .expect("IDB rows carry justifications");
                let rule = program
                    .rules
                    .get(rule_i as usize)
                    .ok_or_else(|| format!("row {rel}/{row}: rule {rule_i} out of range"))?;
                if rule.head.pred != self.pred_of_rel[rel] {
                    return Err(format!("row {rel}/{row}: rule {rule_i} heads another predicate"));
                }
                if body.len() != rule.body.len() {
                    return Err(format!("row {rel}/{row}: body arity mismatch"));
                }
                let mut env: FxHashMap<crate::ast::Var, crate::ast::Const> = FxHashMap::default();
                let bind = |t: &Term, c: crate::ast::Const, env: &mut FxHashMap<_, _>| match t {
                    Term::Const(k) => *k == c,
                    Term::Var(v) => *env.entry(*v).or_insert(c) == c,
                };
                for (k, (atom, &brow)) in rule.body.iter().zip(body).enumerate() {
                    let brel = self.body_rels[rule_i as usize][k] as usize;
                    if self.pred_of_rel[brel] != atom.pred {
                        return Err(format!("row {rel}/{row}: body {k} wrong predicate"));
                    }
                    if brow as usize >= self.rels[brel].num_rows() {
                        return Err(format!("row {rel}/{row}: body {k} row {brow} out of range"));
                    }
                    if !self.rels[brel].is_live(brow) {
                        return Err(format!(
                            "row {rel}/{row}: body {k} row {brow} was retracted"
                        ));
                    }
                    let tuple = self.rels[brel].row(brow);
                    if atom.args.len() != tuple.len()
                        || !atom
                            .args
                            .iter()
                            .zip(tuple)
                            .all(|(t, &c)| bind(t, c, &mut env))
                    {
                        return Err(format!(
                            "row {rel}/{row}: body {k} is not an instantiation"
                        ));
                    }
                }
                let head_row = cr.row(row);
                if rule.head.args.len() != head_row.len()
                    || !rule
                        .head
                        .args
                        .iter()
                        .zip(head_row)
                        .all(|(t, &c)| bind(t, c, &mut env))
                {
                    return Err(format!("row {rel}/{row}: head is not the rule instantiation"));
                }
            }
        }
        // Well-foundedness: height computation visits every chain and
        // fails on a cycle (a cycle would mean a "justification" that
        // never reaches EDB leaves).
        let mut ctx = MetricCtx::new(self, true);
        for (rel, cr) in self.rels.iter().enumerate() {
            if self.idb[rel] {
                for row in cr.row_ids(..) {
                    if cr.is_live(row) {
                        ctx.get(rel, row)?;
                    }
                }
            }
        }
        Ok(())
    }
}

/// Shared-memo iterative DP over the justification DAG: size or height
/// per row. Detects cycles (corrupt stores) instead of hanging.
struct MetricCtx<'a> {
    prov: &'a Provenance,
    memo: Vec<Vec<u64>>,
    height: bool,
}

impl<'a> MetricCtx<'a> {
    fn new(prov: &'a Provenance, height: bool) -> Self {
        Self {
            prov,
            memo: prov.rels.iter().map(|r| vec![UNSET; r.num_rows()]).collect(),
            height,
        }
    }

    fn get(&mut self, rel0: usize, row0: u32) -> Result<u64, String> {
        let mut stack: Vec<(usize, u32, bool)> = vec![(rel0, row0, false)];
        while let Some((rel, row, expanded)) = stack.pop() {
            let cur = self.memo[rel][row as usize];
            if cur != UNSET && cur != PENDING {
                continue;
            }
            let Some((rule, body)) = self.prov.just_of(rel, row) else {
                self.memo[rel][row as usize] = 1; // EDB leaf
                continue;
            };
            if expanded {
                let mut acc = 0u64;
                for (k, &b) in body.iter().enumerate() {
                    let brel = self.prov.body_rels[rule as usize][k] as usize;
                    let v = self.memo[brel][b as usize];
                    debug_assert!(v != UNSET && v != PENDING, "children computed first");
                    acc = if self.height {
                        acc.max(v)
                    } else {
                        acc.saturating_add(v)
                    };
                }
                self.memo[rel][row as usize] = acc.saturating_add(1).min(METRIC_CAP);
            } else {
                self.memo[rel][row as usize] = PENDING;
                stack.push((rel, row, true));
                for (k, &b) in body.iter().enumerate() {
                    let brel = self.prov.body_rels[rule as usize][k] as usize;
                    match self.memo[brel][b as usize] {
                        PENDING => {
                            return Err(format!(
                                "cycle in justification DAG at relation {brel} row {b}"
                            ))
                        }
                        UNSET => stack.push((brel, b, false)),
                        _ => {}
                    }
                }
            }
        }
        Ok(self.memo[rel0][row0 as usize])
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
            assert_eq!(par.stats, seq.stats, "{strategy:?}");
            assert_eq!(par.provenance, seq.provenance, "{strategy:?}");
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
