//! The provenance view of a recording store: [`Provenance`] holds the
//! store it was taken from and answers every question through that
//! store's rows, justifications and rule slots — there is no second
//! copy to keep in step. Trees, metrics and the validity check are read
//! here; the tree type and the module story are `crate::derivation`'s.
//! The decoder walks a restored store's justifications for cycles with
//! the same metric code, but only in a rule-graph component of two or
//! more relations, which no `BENCHMARK.json` workload's program has: no
//! metric runs this file.

use super::{Materialization, RelJust};
use crate::ast::{Const, Pred, Program, Term, Var};
use crate::db::Database;
use crate::derivation::{DerivationTree, GroundAtom, Node};
use crate::eval::{EvalStats, Strategy};
use crate::hash::FxHashMap;
use crate::storage::{ColumnarRelation, NO_ROW};

/// Sentinel metric values (also used as memo-table states).
const UNSET: u64 = u64::MAX;
const PENDING: u64 = u64::MAX - 1;
/// Metrics saturate here so they never collide with the sentinels.
const METRIC_CAP: u64 = u64::MAX - 2;

/// Row-id provenance recorded by the columnar engine: for every derived
/// IDB row, the rule index and the body row ids that first derived it.
///
/// A read-only view of the recording store it came from
/// ([`crate::eval::evaluate_with_provenance`],
/// [`Materialization::provenance`]): it holds that store and reads its
/// rows, justifications and rule slots. Two provenances are equal when
/// their relations (rows, tombstones and epoch tags), the predicate of
/// each relation and every justification entry are — what the
/// thread-determinism tests assert. Strategy, counters, plans and
/// indexes are not compared.
#[derive(Clone, Debug)]
pub struct Provenance {
    store: Materialization,
}

impl PartialEq for Provenance {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (&self.store, &other.store);
        a.rels == b.rels && a.pred_of_rel == b.pred_of_rel && a.prov == b.prov
    }
}

impl Provenance {
    /// The view of `store`, a store that records justifications. A
    /// freshly restored store's dedup tables are rebuilt here, so atoms
    /// can be looked up.
    pub(crate) fn new(mut store: Materialization) -> Self {
        store.ensure_dedup();
        Self { store }
    }

    /// Evaluates `program` on `db` with the columnar engine, recording
    /// one first-found justification per derived fact (sequential
    /// semi-naive; use [`crate::eval::evaluate_with_provenance`] for an
    /// explicit strategy — the justifications are identical).
    pub fn compute(program: &Program, db: &Database) -> Provenance {
        crate::eval::evaluate_with_provenance(program, db, Strategy::SemiNaive)
    }

    /// The store's work counters — for a batch evaluation, bit-for-bit
    /// those of a plain [`crate::eval::evaluate`] with the same strategy
    /// (recording adds no probes or firings).
    pub fn stats(&self) -> EvalStats {
        self.store.stats
    }

    /// The program's IDB relations, by relation id.
    fn idb_rels(&self) -> impl Iterator<Item = (usize, &ColumnarRelation)> {
        self.store.idb_rels().map(|r| (r as usize, &self.store.rels[r as usize]))
    }

    /// Locates an atom in the row store.
    fn rel_row(&self, atom: &GroundAtom) -> Option<(usize, u32)> {
        let rel = *self.store.rel_of_pred.get(&atom.pred)? as usize;
        let cr = &self.store.rels[rel];
        if cr.arity() != atom.args.len() {
            return None;
        }
        let row = cr.find_row(&atom.args);
        (row != NO_ROW).then_some((rel, row))
    }

    /// The atom stored at `(rel, row)`.
    fn atom_at(&self, rel: usize, row: u32) -> GroundAtom {
        GroundAtom {
            pred: self.store.pred_of_rel[rel],
            args: self.store.rels[rel].row(row).to_vec(),
        }
    }

    /// The justification of a derived fact: the rule index and the body
    /// ground atoms of its first-found derivation. `None` if the atom is
    /// not a derived IDB fact in the model.
    pub fn justification(&self, atom: &GroundAtom) -> Option<(usize, Vec<GroundAtom>)> {
        let (rel, row) = self.rel_row(atom)?;
        let (rule, body) = self.store.just_of(rel, row)?;
        let atoms = body
            .iter()
            .enumerate()
            .map(|(k, &b)| self.atom_at(self.store.body_rel(rule, k), b))
            .collect();
        Some((rule as usize, atoms))
    }

    /// All derived live IDB ground atoms, in derivation (row id) order
    /// per predicate (tombstoned rows — retracted by the incremental
    /// maintenance layer — are skipped).
    pub fn derived(&self) -> impl Iterator<Item = GroundAtom> + '_ {
        self.idb_rels().flat_map(move |(r, rel)| {
            rel.row_ids(..)
                .filter(move |&row| rel.is_live(row))
                .map(move |row| self.atom_at(r, row))
        })
    }

    /// Number of derived live IDB facts (= live rows, each of which
    /// carries a justification).
    pub fn num_derived(&self) -> usize {
        self.idb_rels().map(|(_, rel)| rel.num_live()).sum()
    }

    /// Materializes the IDB model as a [`Database`] (what a plain
    /// [`crate::eval::evaluate`] returns):
    /// [`Materialization::idb_database`] of the store. O(model) — built
    /// on demand so provenance-only consumers (tree metrics, boundedness
    /// measurements) never pay for it.
    pub fn idb_database(&self) -> Database {
        self.store.idb_database()
    }

    /// Builds the derivation tree of a ground atom, if it is in the
    /// model (a single leaf for a database fact), breadth-first: a node's
    /// justification queues its body rows behind every row already
    /// queued, and node `i` is the `i`-th row of the queue.
    pub fn tree(&self, atom: &GroundAtom) -> Option<DerivationTree> {
        let mut queue = vec![self.rel_row(atom)?];
        let mut nodes = Vec::new();
        while let Some(&(rel, row)) = queue.get(nodes.len()) {
            let just = self.store.just_of(rel, row);
            let start = queue.len();
            if let Some((rule, body)) = just {
                queue.extend(body.iter().enumerate().map(|(k, &b)| (self.store.body_rel(rule, k), b)));
            }
            let rule = just.map(|(rule, _)| rule as usize);
            nodes.push(Node { atom: self.atom_at(rel, row), rule, children: start..queue.len() });
        }
        Some(DerivationTree { nodes })
    }

    /// Number of nodes of the atom's derivation tree, without
    /// materializing it: iterative memoized dynamic programming over the
    /// justification DAG (shared sub-derivations are counted once per
    /// occurrence, as the tree semantics demands; values saturate).
    pub fn tree_size(&self, atom: &GroundAtom) -> Option<u64> {
        let (rel, row) = self.rel_row(atom)?;
        let mut ctx = MetricCtx::new(&self.store, false);
        Some(ctx.get(rel, row).expect("engine provenance is acyclic"))
    }

    /// Height of the atom's derivation tree (a leaf has height 1),
    /// without materializing it.
    pub fn tree_height(&self, atom: &GroundAtom) -> Option<u64> {
        let (rel, row) = self.rel_row(atom)?;
        let mut ctx = MetricCtx::new(&self.store, true);
        Some(ctx.get(rel, row).expect("engine provenance is acyclic"))
    }

    /// Derivation-tree heights of every live row of `pred`, in row
    /// (first derivation) order; empty if the predicate derived nothing.
    pub fn heights(&self, pred: Pred) -> Vec<u64> {
        let Some(&rel) = self.store.rel_of_pred.get(&pred) else {
            return Vec::new();
        };
        let (rel, cr) = (rel as usize, &self.store.rels[rel as usize]);
        let mut ctx = MetricCtx::new(&self.store, true);
        cr.row_ids(..)
            .filter(|&row| cr.is_live(row))
            .map(|row| ctx.get(rel, row).expect("engine provenance is acyclic"))
            .collect()
    }

    /// The maximum derivation-tree height over all derived live facts
    /// (0 if nothing was derived) — the executable form of the Section 8
    /// boundedness measure.
    pub fn max_height(&self) -> u64 {
        let mut ctx = MetricCtx::new(&self.store, true);
        let mut max = 0;
        for (rel, cr) in self.idb_rels() {
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
        let (rels, pred_of_rel) = (&self.store.rels, &self.store.pred_of_rel);
        let edbs = program.edb_predicates();
        for (rel, cr) in rels.iter().enumerate() {
            if !self.store.idb_flag[rel] {
                if cr.num_live() > 0 && !edbs.contains(&pred_of_rel[rel]) {
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
                let (rule_i, body) = self.store.just_of(rel, row).expect("IDB rows carry justifications");
                let rule = program
                    .rules
                    .get(rule_i as usize)
                    .ok_or_else(|| format!("row {rel}/{row}: rule {rule_i} out of range"))?;
                if rule.head.pred != pred_of_rel[rel] {
                    return Err(format!("row {rel}/{row}: rule {rule_i} heads another predicate"));
                }
                if body.len() != rule.body.len() {
                    return Err(format!("row {rel}/{row}: body arity mismatch"));
                }
                let mut env: FxHashMap<Var, Const> = FxHashMap::default();
                let bind = |t: &Term, c: Const, env: &mut FxHashMap<_, _>| match t {
                    Term::Const(k) => *k == c,
                    Term::Var(v) => *env.entry(*v).or_insert(c) == c,
                };
                for (k, (atom, &brow)) in rule.body.iter().zip(body).enumerate() {
                    let brel = self.store.body_rel(rule_i, k);
                    if pred_of_rel[brel] != atom.pred {
                        return Err(format!("row {rel}/{row}: body {k} wrong predicate"));
                    }
                    if brow as usize >= rels[brel].num_rows() {
                        return Err(format!("row {rel}/{row}: body {k} row {brow} out of range"));
                    }
                    if !rels[brel].is_live(brow) {
                        return Err(format!(
                            "row {rel}/{row}: body {k} row {brow} was retracted"
                        ));
                    }
                    let tuple = rels[brel].row(brow);
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
        self.store.well_founded(self.idb_rels().map(|(rel, _)| rel))
    }
}

impl Materialization {
    /// The recorded justification of a row: `None` for EDB rows
    /// (leaves), `Some((rule, body row ids))` for derived rows.
    fn just_of(&self, rel: usize, row: u32) -> Option<(u32, &[u32])> {
        if !self.idb_flag[rel] {
            return None;
        }
        let just: &[RelJust] = self.prov.as_deref().expect("a store read for justifications records them");
        Some(just[rel].entry(row))
    }

    /// The relation of body atom `k` of rule slot `rule`, in rule-text
    /// order — what a justification's body row ids index into, whatever
    /// order the slot's plans run the steps in.
    fn body_rel(&self, rule: u32, k: usize) -> usize {
        self.plans[rule as usize][0].body_rels[k] as usize
    }

    /// Well-foundedness of the live rows of `rels`: every justification
    /// chain from them bottoms out in EDB rows. The height computation
    /// visits every chain and fails on a cycle, a "justification" that
    /// never reaches a leaf.
    pub(super) fn well_founded(&self, rels: impl IntoIterator<Item = usize>) -> Result<(), String> {
        let mut ctx = MetricCtx::new(self, true);
        for rel in rels {
            let cr = &self.rels[rel];
            for row in cr.row_ids(..).filter(|&row| cr.is_live(row)) {
                ctx.get(rel, row)?;
            }
        }
        Ok(())
    }
}

/// Shared-memo iterative DP over the justification DAG: size or height
/// per row. Detects cycles (corrupt stores) instead of hanging.
struct MetricCtx<'a> {
    store: &'a Materialization,
    memo: Vec<Vec<u64>>,
    height: bool,
}

impl<'a> MetricCtx<'a> {
    fn new(store: &'a Materialization, height: bool) -> Self {
        Self {
            store,
            memo: store.rels.iter().map(|r| vec![UNSET; r.num_rows()]).collect(),
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
            let Some((rule, body)) = self.store.just_of(rel, row) else {
                self.memo[rel][row as usize] = 1; // EDB leaf
                continue;
            };
            if expanded {
                let mut acc = 0u64;
                for (k, &b) in body.iter().enumerate() {
                    let brel = self.store.body_rel(rule, k);
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
                    let brel = self.store.body_rel(rule, k);
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
