//! Template stores: the query cache's storage layer.
//!
//! A *template store* is an ordinary [`Materialization`] of a tagged
//! magic template (see [`crate::cache`]): every relation the template
//! owns — seed, magic, adorned — carries a **tag** in column 0, and one
//! store holds the rows of every cached view of its template, told
//! apart by tag. Its non-IDB relations that the base store also tracks
//! are marked **external**: they belong to the base, and the template
//! store holds empty placeholders for them. A maintenance round borrows
//! the base and runs the standard update machinery: a read of an
//! external slot — a relation, or a shared index over one — goes to the
//! base's object ([`ExtLinks`] maps the slots), and every write goes to
//! an own relation (the `old_hi` watermarks over external slots persist
//! between rounds, so base rows appended since the last sync are
//! exactly the delta). The base keeps its own indexes current. The store
//! therefore holds only *derived* rows; base EDB rows are never copied,
//! and never leave the base, even during a sync.
//!
//! Base deletions reach a store one way: the rows the base's last round
//! tombstoned seed its over-deletion through their reverse chains, so a
//! sync reads only the rows recorded through a dying row — each checked,
//! then saved or killed — and no others. That needs the store to be at
//! most one round behind, as every store of a [`crate::server::Server`]
//! is. Each store decides its own catch-up from the base's counts as of
//! its last sync ([`ExtLinks`]): behind insert-only rounds it resumes;
//! behind a retracting round it missed (which of its rows lost their
//! support is not recorded) or a base compaction (the base row ids it
//! holds have moved), it empties itself and starts over. A base of
//! another rule shape than the store was compiled under, or below its
//! round (a restored store), is **foreign**, and no sync mends that
//! ([`Materialization::is_foreign`]): the cache compiles it again.
//!
//! Nothing here knows what a tag means. A view is created by inserting
//! its seed row, which is an EDB insert; it is dropped by over-deleting
//! from that row, which needs no rescue because every rule of a tagged
//! template carries the tag from a body atom to the head — a row with
//! tag `t` has no derivation that does not start at `seed(t, …)`; and
//! it is read through an index whose key begins with the tag. Dead rows
//! (dropped views, retracted derivations) are reclaimed by
//! [`Materialization::compact`], which on a template store touches the
//! own relations only: the external slots hold empty placeholders, and
//! a justification keeps addressing base rows by ids the pass does not
//! move.

use super::fixpoint::Staging;
use super::{Materialization, RelJust};
use crate::ast::{Atom, Const, Pred, Program, Rule, Symbols};
use crate::db::{Database, Relation};
use crate::eval::{self, Strategy};
use crate::plan::OrderMode;
use crate::storage::{ColumnarRelation, IncrementalIndex, NO_ROW};

/// A template store's links to its base store, made once by
/// [`Materialization::link_external`]: the base slot each external slot
/// stands for — every pass of a [`Materialization::sync_external`] reads
/// the external relations and indexes off the base through them — and
/// the base as of the compile and the last sync.
#[derive(Clone, Debug, Default)]
pub(super) struct ExtLinks {
    /// Per relation: the base relation it stands for, if external.
    pub(super) rels: Vec<Option<u32>>,
    /// Per index slot: the base index slot it stands for, if its
    /// relation is external.
    pub(super) idxs: Vec<Option<usize>>,
    /// The base at the compile, and at the link or the last sync.
    base_at: BaseMark,
}

/// A base's rule shape at the compile, and its round, EDB retraction and
/// compaction counts at the link or the last sync: which base a template
/// store was compiled for, and how far behind it the store is.
#[derive(Clone, Copy, Debug, Default)]
struct BaseMark {
    rules: (usize, usize),
    version: u64,
    retracts: u64,
    compactions: u64,
}

impl BaseMark {
    fn of(base: &Materialization, rules: (usize, usize)) -> Self {
        let (version, retracts, compactions) = (base.version, base.edb_retracts, base.compactions);
        Self { rules, version, retracts, compactions }
    }
}

impl Materialization {
    /// Live and total stored rows — what the cache's row budget and its
    /// compaction trigger read.
    pub(crate) fn row_counts(&self) -> (usize, usize) {
        self.rels.iter().fold((0, 0), |(live, total), r| (live + r.num_live(), total + r.num_rows()))
    }

    /// The active rules as a [`Program`] for [`crate::magic`] to
    /// transform, its goal a placeholder on `pred`. A template is a
    /// function of the rules and the binding pattern alone, so the name
    /// table is a fresh one, padded with placeholder names to cover
    /// every predicate this store tracks and every variable those rules
    /// mention: each name the transform makes up (`MT`, `MB*`, `MQ*`;
    /// adorned, magic and seed predicates) gets an id no rule and no
    /// relation of this store already uses. Constants keep their ids and
    /// need no name.
    pub(crate) fn active_program(&self, pred: Pred) -> Program {
        let rules: Vec<Rule> = self.active_rules().into_iter().map(|(_, r)| r.clone()).collect();
        let mut symbols = Symbols::new();
        let preds = self.pred_of_rel.iter().map(|p| p.0 as usize + 1).max().unwrap_or(0);
        for i in 0..preds {
            symbols.predicate(&format!("q_{i}"));
        }
        let vars = rules.iter().flat_map(Rule::all_vars).map(|v| v.0 as usize + 1).max().unwrap_or(0);
        for i in 0..vars {
            symbols.variable(&format!("V_{i}"));
        }
        Program { rules, goal: Atom::new(pred, Vec::new()), symbols }
    }

    /// Builds an empty template store for a tagged magic template:
    /// semi-naive, justification recording on — so its rescue plans are
    /// compiled with its update plans, as in every recording store, and
    /// every index it will ever probe exists before
    /// [`Materialization::link_external`] maps index slots — and
    /// automatic compaction off (the cache decides when; see
    /// [`crate::cache`]). Bodies, rescue plans' included, are ordered by
    /// the `untagged` rules — the template as
    /// [`crate::magic::magic_template`] wrote it, rule for rule — so the
    /// tag changes no plan's order ([`crate::plan::plan_rule`]).
    pub(crate) fn new_view(program: &Program, untagged: &[Rule], order: OrderMode) -> Self {
        let db = Database::new();
        let mut m = Self::build(program, &db, Strategy::SemiNaive, true, order, Some(untagged));
        m.policy = None;
        m
    }

    /// Registers (or reuses) an index over `pred`'s relation and `mask`
    /// and brings it up to the relation's current rows: the base-side
    /// half of [`Materialization::link_external`], and how the cache
    /// gets the index it reads a view through.
    pub(crate) fn ensure_index(&mut self, pred: Pred, mask: Vec<usize>) -> usize {
        let rel = self.rel_of_pred[&pred] as usize;
        let idxs = &mut self.idxs;
        let id = *self.idx_of.entry((rel, mask.clone())).or_insert_with(|| {
            idxs.push(IncrementalIndex::new(rel, mask));
            idxs.len() - 1
        });
        self.idxs[id].extend(&self.rels[rel]);
        id
    }

    /// Marks every non-IDB relation of this (still empty) template store
    /// that `base` also stores as external, links the slots for
    /// [`Materialization::sync_external`] ([`ExtLinks`]), registering
    /// the shared indexes on the base, and sets the external
    /// watermarks to the base's current row counts: an empty template
    /// store is at fixpoint over any EDB — each of its rules has an own
    /// atom in the body — so from here on everything, the first view
    /// included, is an update. Relations the base does not track
    /// (notably the template's seed predicate) stay store-owned. The
    /// reverse index is set up here, its chains over external relations
    /// sparse: dense ones would be sized by base row ids. `rules` is the
    /// base's rule shape.
    pub(crate) fn link_external(
        &mut self,
        base: &mut Materialization,
        rules: (usize, usize),
    ) -> Result<(), String> {
        let mut links = ExtLinks {
            rels: vec![None; self.rels.len()],
            idxs: vec![None; self.idxs.len()],
            base_at: BaseMark::of(base, rules),
        };
        for (v, &pred) in self.pred_of_rel.iter().enumerate() {
            if self.idb_flag[v] {
                continue;
            }
            let Some(&br) = base.rel_of_pred.get(&pred) else {
                continue;
            };
            let b = br as usize;
            if base.idb_flag[b] {
                return Err(
                    "view treats a base IDB predicate as external EDB (program mismatch)"
                        .to_owned(),
                );
            }
            if self.rels[v].arity() != base.rels[b].arity() {
                return Err("view/base arity mismatch on shared relation".to_owned());
            }
            self.old_hi[v] = base.rels[b].num_rows();
            links.rels[v] = Some(br);
        }
        for (vi, idx) in self.idxs.iter().enumerate() {
            if links.rels[idx.rel()].is_some() {
                let mask = idx.mask().to_vec();
                links.idxs[vi] = Some(base.ensure_index(self.pred_of_rel[idx.rel()], mask));
            }
        }
        self.ext = links;
        self.rev = self.build_rev_index();
        Ok(())
    }

    /// Empties a template store whose rows can no longer be maintained —
    /// its base has compacted, so the base row ids in its justifications
    /// and reverse chains have moved, or it missed a base round that
    /// retracted rows — and re-pins the external watermarks and the
    /// base's counts at `base` now. The reverse index starts over empty,
    /// sparse over external relations as [`Materialization::link_external`]
    /// set it up. Plans, index registrations, the rule graph's components
    /// and the links stand: neither case moves relation or index slots.
    fn clear_rows(&mut self, base: &Materialization) {
        for rel in &mut self.rels {
            *rel = ColumnarRelation::new(rel.arity());
        }
        for idx in &mut self.idxs {
            idx.reset();
        }
        for just in self.prov.iter_mut().flatten() {
            *just = RelJust::default();
        }
        self.rev = self.build_rev_index();
        for (old, link) in self.old_hi.iter_mut().zip(&self.ext.rels) {
            *old = link.map_or(0, |br| base.rels[br as usize].num_rows());
        }
        self.ext.base_at = BaseMark::of(base, self.ext.base_at.rules);
    }

    /// Whether the store has synced since `base`'s last round.
    pub(crate) fn at_base_version(&self, base: &Materialization) -> bool {
        self.ext.base_at.version == base.version
    }

    /// Whether the store was compiled for another base than `base`, of
    /// rule shape `rules`: other rules, or a version below the store's
    /// mark, as a restored store's is. No sync mends that.
    pub(crate) fn is_foreign(&self, base: &Materialization, rules: (usize, usize)) -> bool {
        self.ext.base_at.rules != rules || base.version < self.ext.base_at.version
    }

    /// Catches a template store up with its base, which it only reads:
    /// every pass of the sync reads an external slot's relation or index
    /// off `base` ([`ExtLinks`]). Stores `seed` — the seed row of a new
    /// view — if one is given, delete-rederives for the base rows that
    /// died since the last sync, then runs one semi-naive resume over the
    /// seed and the appended base rows (the external `old_hi` watermarks
    /// make them exactly the delta). The cost follows what the delta
    /// joins: the plan a base row leads probes the own relations through
    /// indexes whose postings hold the rows of every view, and meets
    /// exactly the (tag, row) pairs it combines with, however many views
    /// are live.
    ///
    /// The store reads how far behind `base` it is off the counts it kept
    /// ([`ExtLinks`]). One round behind, its deletion seeds are the rows
    /// that round tombstoned (the base's `last_retracted`), whose reverse
    /// chains hold the own rows recorded through them; behind insert-only
    /// rounds, or none, there are none. Behind a retracting round it
    /// missed, or a base compaction, it first empties itself
    /// ([`Materialization::clear_rows`]), and `seed` lands on the fresh
    /// store. The cascade and rescue mirror [`Materialization::apply`]'s
    /// phases over this store's own reverse index, the check before each
    /// kill included: the base's relations are EDB here, so a derivation
    /// through them needs no age test.
    ///
    /// The rows the walk kills carry `epoch`, that of the server round
    /// the sync runs in, if any. Returns them, as `(relation, row)` —
    /// the rescued ones included: they live on under a new row id. A
    /// row the walk saved is not among them: it keeps its id and its
    /// tuple, so no answer changed. With the row counts from before the
    /// call that is everything the sync changed
    /// ([`Materialization::for_each_touched_key`]). Returns `None` if the
    /// store started over instead: every row it held before is gone.
    pub(crate) fn sync_external(
        &mut self,
        base: &Materialization,
        seed: Option<(Pred, &[Const])>,
        epoch: Option<u64>,
    ) -> Option<Vec<(u32, u32)>> {
        // The base's rounds index every row they append; a sync extends
        // no index of the base, and a join over a lagging one would miss
        // base rows without an error.
        for &i in self.ext.idxs.iter().flatten() {
            assert_eq!(base.idxs[i].watermark(), base.index_frontier(i), "a linked base index lags");
        }
        let at = self.ext.base_at;
        let last_round = at.version.wrapping_add(1) == base.version;
        let start_over =
            at.compactions != base.compactions || (at.retracts != base.edb_retracts && !last_round);
        if start_over {
            self.clear_rows(base);
        }
        self.ext.base_at = BaseMark::of(base, at.rules);
        if let Some((pred, row)) = seed {
            let rid = self.rel_of_pred[&pred];
            self.rels[rid as usize].insert(row);
        }
        // Dead already, in the base's numbering.
        let retracted = if last_round && !start_over { &base.last_retracted[..] } else { &[] };
        let slot = |br| (0u32..).zip(&self.ext.rels).find_map(|(v, &b)| (b == Some(br)).then_some(v));
        let worklist = retracted.iter().filter_map(|&(br, r)| Some((slot(br)?, r))).collect();
        let mut candidates: Vec<(u32, u32)> = Vec::new();
        let killed = self.over_delete(worklist, Some(&mut candidates), epoch, Some(base));
        self.rescue(&candidates, Some(base));
        // Readers go through an index: the resume's last round, which
        // appends nothing, indexed every row before it.
        self.run_fixpoint(&mut Staging::default(), Some(base));
        // The cache compacts a template store when its rows die; a view
        // whose rows are saved round after round kills none, so its
        // stale edges are shed here.
        self.shed_stale_edges();
        (!start_over).then_some(killed)
    }

    /// Calls `f` with the key under which index `idx` files each row a
    /// sync touched in the relation the index covers: the rows appended
    /// since the relation had `from` rows, and those of `killed`
    /// ([`Materialization::sync_external`]'s return) that are its own.
    /// O(touched rows) — this is how the cache learns which views a
    /// round changed without looking at the others.
    pub(crate) fn for_each_touched_key(
        &self,
        idx: usize,
        from: usize,
        killed: &[(u32, u32)],
        mut f: impl FnMut(&[Const]),
    ) {
        let index = &self.idxs[idx];
        let rel = &self.rels[index.rel()];
        let killed = killed.iter().filter(|k| k.0 as usize == index.rel()).map(|k| k.1);
        let mut key = Vec::with_capacity(index.mask().len());
        for row in rel.row_ids(from..).chain(killed) {
            key.clear();
            key.extend(index.mask().iter().map(|&col| rel.value(row, col)));
            f(&key);
        }
    }

    /// Drops a view: tombstones its seed row `seed` and everything
    /// recorded through it — by construction every row carrying the
    /// seed's tag, and nothing else. A kill-only walk, and no rescue
    /// pass: without the seed, no rule derives a row with that tag, and
    /// a saved row's stale edges lead to rows of the same tag. No pinned
    /// reader reads a dropped view, so the tombstones carry no epoch.
    pub(crate) fn drop_tag(&mut self, seed_pred: Pred, seed: &[Const]) {
        let rid = self.rel_of_pred[&seed_pred];
        let row = self.rels[rid as usize].find_row(seed);
        if row != NO_ROW && self.rels[rid as usize].tombstone(row as usize) {
            self.over_delete(vec![(rid, row)], None, None, None);
        }
    }

    /// The row count of the relation index `idx` covers — what a
    /// snapshot pins to keep reading a view as of now.
    pub(crate) fn index_frontier(&self, idx: usize) -> usize {
        self.rels[self.idxs[idx].rel()].num_rows()
    }

    /// Answers `goal` — an atom over the **untagged** columns of the
    /// relation `idx` covers — from the postings of `key` in that index:
    /// selection by the goal's constants and repeated variables,
    /// projection onto its distinct variables. `key` starts with the
    /// view's tag, so the rows of other views are never touched. With
    /// `pin = (frontier, epoch)` the answer is as of that snapshot.
    pub(crate) fn answer_tag(
        &self,
        idx: usize,
        key: &[Const],
        goal: &Atom,
        pin: Option<(usize, u64)>,
    ) -> Relation {
        let index = &self.idxs[idx];
        let rel = &self.rels[index.rel()];
        let (ops, nvars) = eval::goal_plan(goal);
        let hi = pin.map_or(rel.num_rows(), |(frontier, _)| frontier.min(rel.num_rows()));
        let mut cur = index.probe_range(rel, key, 0, hi);
        let rows = std::iter::from_fn(|| loop {
            let r = index.next_match(&mut cur);
            if r == NO_ROW {
                return None;
            }
            let visible = match pin {
                Some((_, epoch)) => rel.visible_at(r, epoch),
                None => rel.is_live(r),
            };
            if visible {
                return Some(&rel.row(r)[1..]);
            }
        });
        eval::select_project(&ops, nvars, rows)
    }
}
