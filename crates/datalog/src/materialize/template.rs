//! Template stores: the query cache's storage layer.
//!
//! A *template store* is an ordinary [`Materialization`] of a tagged
//! magic template (see [`crate::cache`]): every relation the template
//! owns — seed, magic, adorned — carries a **tag** in column 0, and one
//! store holds the rows of every cached view of its template, told
//! apart by tag. Its non-IDB relations that the base store also tracks
//! are marked **external**: they belong to the base, and the template
//! store holds empty placeholders for them. For every maintenance round
//! the base's relation objects — and the shared incremental indexes
//! over them — are `mem::swap`ped into the placeholder slots, the
//! standard update machinery runs (the `old_hi` watermarks over
//! external slots persist between rounds, so base rows appended since
//! the last sync are exactly the delta), and everything is swapped
//! back. The store therefore holds only *derived* rows; base EDB rows
//! are never copied.
//!
//! Base deletions reach a store one way: the rows the base's last round
//! tombstoned seed its over-deletion through their reverse chains, so a
//! sync reads the rows it kills and no others. That needs the store to
//! be at most one round behind, as every store of a
//! [`crate::server::Server`] is. A store that missed a round which
//! retracted rows cannot tell which of its rows lost their support, and
//! is emptied and starts over ([`Materialization::clear_rows`]), as after
//! a base compaction; one that missed insert-only rounds just catches
//! up.
//!
//! Nothing here knows what a tag means. A view is created by inserting
//! its seed row, which is an EDB insert; it is dropped by over-deleting
//! from that row, which needs no rescue because every rule of a tagged
//! template carries the tag from a body atom to the head — a row with
//! tag `t` has no derivation that does not start at `seed(t, …)`; and
//! it is read through an index whose key begins with the tag. Dead rows
//! (dropped views, retracted derivations) are reclaimed by
//! [`Materialization::compact`], which on a template store touches the
//! own relations only: the external slots hold empty placeholders
//! between rounds, and a justification keeps addressing base rows by
//! ids the pass does not move.

use super::fixpoint::Staging;
use super::{Materialization, RelJust};
use crate::ast::{Atom, Const, Pred, Program, Rule, Symbols};
use crate::db::{Database, Relation};
use crate::eval::{self, Strategy};
use crate::plan::OrderMode;
use crate::storage::{ColumnarRelation, IncrementalIndex, NO_ROW};

/// The slot pairing between a template store and its base store,
/// computed once by [`Materialization::link_external`] and replayed by
/// every [`Materialization::sync_external`] round trip.
#[derive(Clone, Debug, Default)]
pub(crate) struct ExtLinks {
    /// `(template rel id, base rel id)` per external relation.
    rels: Vec<(usize, usize)>,
    /// `(template idx slot, base idx slot, template rel id, base rel id)`
    /// per shared index over an external relation.
    idxs: Vec<(usize, usize, usize, usize)>,
}

impl Materialization {
    /// Live and total stored rows over the store's *own* (non-external)
    /// relations — what the cache's row budget and its compaction
    /// trigger read.
    pub(crate) fn own_rows(&self) -> (usize, usize) {
        let mut live = 0;
        let mut total = 0;
        for (r, rel) in self.rels.iter().enumerate() {
            if !self.is_external(r) {
                live += rel.num_live();
                total += rel.num_rows();
            }
        }
        (live, total)
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
    /// semi-naive, justification recording on, re-derivation plans
    /// compiled **eagerly** — every index the store will ever probe must
    /// exist before [`Materialization::link_external`] maps index slots,
    /// or a later lazy compile would register a private index over an
    /// external relation and fill it with the whole base store — and
    /// automatic compaction off (the cache decides when; see
    /// [`crate::cache`]). Bodies are ordered by the `untagged` rules —
    /// the template as [`crate::magic::magic_template`] wrote it, rule
    /// for rule — so the tag changes no plan's order
    /// ([`crate::plan::plan_rule`]).
    pub(crate) fn new_view(program: &Program, untagged: &[Rule], order: OrderMode) -> Self {
        let db = Database::new();
        let mut m = Self::build(program, &db, Strategy::SemiNaive, true, order, Some(untagged));
        m.ensure_rederive_plans(Some(untagged));
        m.policy = None;
        m
    }

    /// Registers (or reuses) an index over `pred`'s relation and `mask`
    /// and brings it up to the relation's current rows: the base-side
    /// half of [`Materialization::link_external`], and how the cache
    /// gets the index it reads a view through.
    pub(crate) fn ensure_index(&mut self, pred: Pred, mask: Vec<usize>) -> usize {
        let rel = self.rel_of_pred[&pred];
        let idxs = &mut self.idxs;
        let id = *self.idx_of.entry((rel, mask.clone())).or_insert_with(|| {
            idxs.push(IncrementalIndex::new(rel, mask));
            idxs.len() - 1
        });
        self.idxs[id].extend(&self.rels[rel]);
        id
    }

    /// Marks every non-IDB relation of this (still empty) template store
    /// that `base` also stores as external, pairs the slots for
    /// [`Materialization::sync_external`], and sets the external
    /// watermarks to the base's current row counts: an empty template
    /// store is at fixpoint over any EDB — each of its rules has an own
    /// atom in the body — so from here on everything, the first view
    /// included, is an update. Relations the base does not track
    /// (notably the template's seed predicate) stay store-owned. The
    /// reverse index is set up here, its chains over external relations
    /// sparse: dense ones would be sized by base row ids.
    pub(crate) fn link_external(&mut self, base: &mut Materialization) -> Result<ExtLinks, String> {
        let mut links = ExtLinks::default();
        let mut ext = vec![false; self.rels.len()];
        let mut base_of_rel = vec![usize::MAX; self.rels.len()];
        for vr in 0..self.rels.len() {
            if self.idb_flag[vr] {
                continue;
            }
            let pred = self.pred_of_rel[vr];
            let Some(&br) = base.rel_of_pred.get(&pred) else {
                continue;
            };
            if base.idb_flag[br] {
                return Err(
                    "view treats a base IDB predicate as external EDB (program mismatch)"
                        .to_owned(),
                );
            }
            if self.rels[vr].arity() != base.rels[br].arity() {
                return Err("view/base arity mismatch on shared relation".to_owned());
            }
            ext[vr] = true;
            base_of_rel[vr] = br;
            self.old_hi[vr] = base.rels[br].num_rows();
            links.rels.push((vr, br));
        }
        for vi in 0..self.idxs.len() {
            let vr = self.idxs[vi].rel();
            if !ext[vr] {
                continue;
            }
            let bi = base.ensure_index(self.pred_of_rel[vr], self.idxs[vi].mask().to_vec());
            links.idxs.push((vi, bi, vr, base_of_rel[vr]));
        }
        self.ext_flag = ext;
        self.rev = self.build_rev_index();
        Ok(links)
    }

    /// Empties a template store whose rows can no longer be maintained —
    /// its base has compacted, so the base row ids in its justifications
    /// and reverse chains have moved, or it missed a base round that
    /// retracted rows — and re-pins the external watermarks at the
    /// base's current row counts. The reverse index starts over empty,
    /// sparse over external relations as [`Materialization::link_external`]
    /// set it up, and so does the merge log. Plans, index registrations and `links` stand: neither
    /// case moves relation or index slots.
    pub(crate) fn clear_rows(&mut self, base: &Materialization, links: &ExtLinks) {
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
        self.merges.clear();
        self.old_hi.fill(0);
        for &(vr, br) in &links.rels {
            self.old_hi[vr] = base.rels[br].num_rows();
        }
    }

    /// Swaps the base's external relation objects (and the shared
    /// indexes over them) into this store's slots — or back out again;
    /// the operation is an involution.
    fn swap_external(&mut self, base: &mut Materialization, links: &ExtLinks) {
        for &(vr, br) in &links.rels {
            std::mem::swap(&mut self.rels[vr], &mut base.rels[br]);
        }
        for &(vi, bi, vr, br) in &links.idxs {
            std::mem::swap(&mut self.idxs[vi], &mut base.idxs[bi]);
            // Each side numbers the shared relation differently; fix the
            // id so `extend_indexes` reads the right slot.
            self.idxs[vi].set_rel(vr);
            base.idxs[bi].set_rel(br);
        }
    }

    /// Catches a template store up with its base, in one swap-in /
    /// swap-out: stores `seed` — the seed row of a new view — if one is
    /// given, delete-rederives for the base rows that died since the
    /// last sync, then runs one semi-naive resume over the seed and the
    /// appended base rows (the external `old_hi` watermarks make them
    /// exactly the delta). The cost follows what the delta joins: the
    /// plan a base row leads probes the own relations through indexes
    /// whose postings hold the rows of every view, and meets exactly the
    /// (tag, row) pairs it combines with, however many views are live.
    ///
    /// The deletion seeds have one source: with `last_round` — the store
    /// lags the base by exactly one round — the rows that round
    /// tombstoned (the base's `last_retracted`), whose reverse chains
    /// hold the own rows recorded through them; otherwise none. A store
    /// that missed a round which retracted rows cannot be caught up, as
    /// which rows died in between is not recorded: the caller empties it
    /// ([`Materialization::clear_rows`]) instead. The cascade and rescue
    /// then mirror [`Materialization::apply`]'s phases over this store's
    /// own reverse index, the check before each kill included: the
    /// base's relations are EDB here, so a derivation through them needs
    /// no age test.
    ///
    /// Returns the own rows the deletion walk killed, as `(relation,
    /// row)` — the rescued ones included: they live on under a new row
    /// id. A row the walk saved is not among them: it keeps its id and
    /// its tuple, so no answer changed. With the row counts from before
    /// the call that is everything the sync changed
    /// ([`Materialization::for_each_touched_key`]).
    pub(crate) fn sync_external(
        &mut self,
        base: &mut Materialization,
        links: &ExtLinks,
        seed: Option<(Pred, &[Const])>,
        last_round: bool,
    ) -> Vec<(u32, u32)> {
        self.swap_external(base, links);
        if let Some((pred, row)) = seed {
            let rid = self.rel_of_pred[&pred];
            self.rels[rid].insert(row);
        }
        // Dead already, in the base's numbering.
        let retracted = if last_round { &base.last_retracted[..] } else { &[] };
        let worklist = retracted
            .iter()
            .filter_map(|&(br, row)| {
                let &(vr, _) = links.rels.iter().find(|&&(_, b)| b == br as usize)?;
                Some((vr as u32, row))
            })
            .collect();
        let mut candidates: Vec<(u32, u32)> = Vec::new();
        let killed = self.over_delete(worklist, Some(&mut candidates));
        self.rescue(&candidates);
        // Readers go through an index: the resume's last round, which
        // appends nothing, indexed every row before it.
        self.run_fixpoint(&mut Staging::default());
        // The cache compacts a template store when its rows die; a view
        // whose rows are saved round after round kills none, so its
        // stale edges are shed here.
        self.shed_stale_edges();
        self.version = self.version.wrapping_add(1);
        self.swap_external(base, links);
        killed
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
        let killed = killed.iter().filter(|k| k.0 as usize == index.rel()).map(|k| k.1 as usize);
        let mut key = Vec::with_capacity(index.mask().len());
        for row in (from..rel.num_rows()).chain(killed) {
            key.clear();
            key.extend(index.mask().iter().map(|&col| rel.value(row, col)));
            f(&key);
        }
    }

    /// Drops a view: tombstones its seed row `seed` and everything
    /// recorded through it — by construction every row carrying the
    /// seed's tag, and nothing else. A kill-only walk, and no rescue
    /// pass: without the seed, no rule derives a row with that tag, and
    /// a saved row's stale edges lead to rows of the same tag.
    pub(crate) fn drop_tag(&mut self, seed_pred: Pred, seed: &[Const]) {
        let rid = self.rel_of_pred[&seed_pred];
        let row = self.rels[rid].find_row(seed);
        if row != NO_ROW && self.rels[rid].tombstone(row as usize) {
            self.over_delete(vec![(rid as u32, row)], None);
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
            let r = r as usize;
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
