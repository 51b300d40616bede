//! The snapshot payload codec: what a store writes inside the container
//! of [`crate::persist`] and how it is read back and shape-checked; the
//! format is specified on [`Materialization::to_bytes`]. `BENCHMARK.json`:
//! `materialize.encode_ms`, `materialize.decode_ms`,
//! `materialize.snapshot_bytes`.

use super::{CompactionPolicy, Materialization, RelJust};
use crate::ast::{Atom, Const, Pred, Rule, Term, Var};
use crate::eval::{EvalStats, Strategy};
use crate::hash::FxHashMap;
use crate::persist::{self, Dec, Enc, PersistError};
use crate::plan::OrderMode;
use crate::storage::ColumnarRelation;
use std::path::Path;

impl Materialization {
    /// Serializes the complete materialized state — rows, liveness,
    /// watermarks, justifications, rule slots (deactivated ids
    /// included), counters — into one versioned, length-prefixed,
    /// checksummed snapshot image: the container of [`crate::persist`]
    /// around the payload sections below. Derived structures whose
    /// layout is probe-history dependent (dedup tables, join indexes,
    /// compiled plans, the reverse index) are rebuilt on restore, so
    /// `to_bytes(from_bytes(x)) == x` bit-for-bit — but for section 5's
    /// middle word, which an older file may hold as 0 and re-encodes as 1.
    ///
    /// # Payload sections, in order
    ///
    /// All integers are little-endian; a count or `usize` is a `u64`.
    ///
    /// 1. **Strategy** — tag `u8`: 1 semi-naive, 2 parallel followed by
    ///    its `threads` as `u64`. Any other tag is
    ///    [`PersistError::Corrupt`] — 0 and 3 included, under which some
    ///    version-4 files carry a naive strategy, and a parallel one with
    ///    an explicit shard count.
    /// 2. **Goal atom** — predicate `u32`, argument count `u64`, then per
    ///    term a tag `u8` (0 constant, 1 variable) and its `u32` id.
    /// 3. **Rules** — count, then every rule slot ever allocated (dropped
    ///    ones included — justifications index rule slots) as head atom +
    ///    body atoms.
    /// 4. **Rule activity** — one `u8` per slot (0 = dropped).
    /// 5. **Counters** — serving epoch, the word 1 ("the reverse index is
    ///    built"; read and ignored — older files of stores that had never
    ///    retracted hold 0), compactions (`u64` each).
    /// 6. **EvalStats** — iterations, rule firings, tuples derived, join
    ///    probes (`u64` each).
    /// 7. **Convergence profile** — count + `u64` per productive iteration
    ///    of the build (files written before update rounds stopped adding
    ///    theirs hold those too, and read the same).
    /// 8. **Compaction policy** — presence `u8`, then `min_dead_rows u64`,
    ///    `dead_percent u32`.
    /// 9. **Planner** — order mode tag `u8` (1 planned, 2 shuffled + its
    ///    `u64` seed), then per rule slot a body permutation (count +
    ///    `u32` step depth of each body atom; checked to be one on
    ///    restore, never compiled from) — written from plan `[0]`, the
    ///    one body atom 0 leads; older files hold the greedy order there,
    ///    and read the same — then the per-relation build-time
    ///    cardinalities (count + `u64`s) every plan breaks ties by.
    /// 10. **Relations** — count, then per dense relation id: predicate
    ///     `u32`, IDB flag `u8`, arity `u64`, row count `u64`, watermark
    ///     `u64`, the flat row-major tuple data (`rows × arity` × `u32`),
    ///     tombstone bitset (word count + `u64` words), tombstoned-row
    ///     count `u64`, relation epoch `u64`, and the death-epoch tags as
    ///     count + `(row u32, epoch u64)` pairs sorted by row id
    ///     (deterministic bytes).
    /// 11. **Justifications** — presence `u8`, always 1 (every store that
    ///     can be saved records them; any other value is
    ///     [`PersistError::Corrupt`]), then per relation its packed store:
    ///     offsets (count + `u32`s) and buffer (count + `u32`s).
    ///
    /// Deliberately **not** serialized (rebuilt on restore): the dedup
    /// tables (probe-history-dependent slot layout; write-path state, so
    /// the rebuild is deferred to the first mutating round after restore),
    /// the join indexes and index registry (registered at restore, and
    /// re-hashed from the rows, frozen posting segments included, by the
    /// first round or view link that needs them, so a restored store that
    /// only serves reads never pays for them), compiled plans and
    /// rescue plans (recompiled together from the rules, the order mode
    /// and the persisted cardinalities, as construction compiled them),
    /// the rule graph's components (recomputed with the plans), and the
    /// reverse dependency index (rebuilt from the live justifications by
    /// every restore). Restore therefore returns at the exact persisted
    /// fixpoint without any re-evaluation: the expensive state is the
    /// rows and justifications, which round-trip bit-for-bit.
    pub fn to_bytes(&self) -> Vec<u8> {
        fn atom(e: &mut Enc, a: &Atom) {
            e.u32(a.pred.0);
            e.usize(a.args.len());
            for t in &a.args {
                match *t {
                    Term::Const(c) => {
                        e.u8(0);
                        e.u32(c.0);
                    }
                    Term::Var(v) => {
                        e.u8(1);
                        e.u32(v.0);
                    }
                }
            }
        }

        let mut e = Enc::default();
        match self.strategy {
            Strategy::SemiNaive => e.u8(1),
            Strategy::SemiNaiveParallel { threads } => {
                e.u8(2);
                e.usize(threads);
            }
        }
        atom(&mut e, &self.goal);
        e.usize(self.rules.len());
        for r in &self.rules {
            atom(&mut e, &r.head);
            e.usize(r.body.len());
            for a in &r.body {
                atom(&mut e, a);
            }
        }
        e.usize(self.rule_active.len());
        for &a in &self.rule_active {
            e.u8(u8::from(a));
        }
        e.u64(self.epoch);
        e.u64(1); // "the reverse index is built"
        e.u64(self.compactions);
        e.usize(self.stats.iterations);
        e.u64(self.stats.rule_firings);
        e.u64(self.stats.tuples_derived);
        e.u64(self.stats.join_probes);
        e.u64s(&self.profile);
        match self.policy {
            None => e.u8(0),
            Some(p) => {
                e.u8(1);
                e.usize(p.min_dead_rows);
                e.u32(p.dead_percent);
            }
        }
        match self.order {
            OrderMode::Planned => e.u8(1),
            OrderMode::Shuffled(seed) => {
                e.u8(2);
                e.u64(seed);
            }
        }
        // Per-rule body permutation of plan 0 (the step depth of each
        // original body atom).
        for plans in self.plans.iter() {
            let sob: Vec<u32> = plans[0].step_of_body.iter().map(|&d| d as u32).collect();
            e.u32s(&sob);
        }
        // The build-time cardinalities every plan breaks ties by, so a
        // restored store compiles exactly the live store's plans.
        e.u64s(&self.planned_card);
        e.usize(self.rels.len());
        for (r, rel) in self.rels.iter().enumerate() {
            e.u32(self.pred_of_rel[r].0);
            e.u8(u8::from(self.idb_flag[r]));
            e.usize(rel.arity());
            e.usize(rel.num_rows());
            e.usize(self.old_hi[r]);
            e.reserve(rel.data().len() * 4);
            for c in rel.data() {
                e.u32(c.0);
            }
            e.u64s(rel.dead_words());
            e.usize(rel.num_dead());
            e.u64(rel.current_epoch());
            // Tags sorted by row id: the hash map's iteration order must
            // not leak into the bytes (bit-for-bit round-trips).
            let mut tags: Vec<(u32, u64)> =
                rel.tomb_tags().iter().map(|(&row, &te)| (row, te)).collect();
            tags.sort_unstable();
            e.usize(tags.len());
            for (row, te) in tags {
                e.u32(row);
                e.u64(te);
            }
        }
        e.u8(1);
        let prov = self.prov.as_ref().expect("a store that can be saved records justifications");
        for rj in prov {
            let (off, buf) = rj.parts();
            e.u32s(off);
            e.u32s(buf);
        }
        e.seal()
    }

    /// Reassembles a materialization from a snapshot image, rebuilding
    /// the derived structures (dedup tables, join indexes, compiled
    /// plans, the reverse index) from the persisted rows and rules. The
    /// store comes back **at the persisted fixpoint** — no re-evaluation
    /// — ready for queries and further [`Materialization::apply`] rounds.
    ///
    /// Container framing (magic, version, stored length, FNV-1a 64
    /// checksum) is verified before any payload byte is parsed, and the
    /// payload itself is shape-checked, so a truncated, corrupted or
    /// hand-forged file yields a clean [`PersistError`] — never a
    /// silently wrong store.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PersistError> {
        fn atom(d: &mut Dec<'_>) -> Result<Atom, PersistError> {
            let pred = Pred(d.u32()?);
            let n = d.count(5)?;
            let mut args = Vec::with_capacity(n);
            for _ in 0..n {
                args.push(match d.u8()? {
                    0 => Term::Const(Const(d.u32()?)),
                    1 => Term::Var(Var(d.u32()?)),
                    _ => return Err(PersistError::Corrupt("unknown term tag")),
                });
            }
            Ok(Atom { pred, args })
        }

        let mut d = persist::open(bytes)?;
        let strategy = match d.u8()? {
            1 => Strategy::SemiNaive,
            2 => Strategy::SemiNaiveParallel {
                threads: d.usize()?,
            },
            _ => return Err(PersistError::Corrupt("unknown strategy tag")),
        };
        let goal = atom(&mut d)?;
        let nrules = d.count(1)?;
        let mut rules = Vec::with_capacity(nrules);
        for _ in 0..nrules {
            let head = atom(&mut d)?;
            let nbody = d.count(1)?;
            let mut body = Vec::with_capacity(nbody);
            for _ in 0..nbody {
                body.push(atom(&mut d)?);
            }
            rules.push(Rule { head, body });
        }
        let nact = d.count(1)?;
        if nact != nrules {
            return Err(PersistError::Corrupt("rule-activity length mismatch"));
        }
        let mut rule_active = Vec::with_capacity(nact);
        for _ in 0..nact {
            rule_active.push(d.u8()? != 0);
        }
        let epoch = d.u64()?;
        d.u64()?; // "the reverse index is built": every restore builds it
        let compactions = d.u64()?;
        let stats = EvalStats {
            iterations: d.usize()?,
            rule_firings: d.u64()?,
            tuples_derived: d.u64()?,
            join_probes: d.u64()?,
        };
        let profile = d.u64s()?;
        let policy = match d.u8()? {
            0 => None,
            1 => Some(CompactionPolicy {
                min_dead_rows: d.usize()?,
                dead_percent: d.u32()?,
            }),
            _ => return Err(PersistError::Corrupt("unknown policy tag")),
        };
        let order = match d.u8()? {
            1 => OrderMode::Planned,
            2 => OrderMode::Shuffled(d.u64()?),
            _ => return Err(PersistError::Corrupt("unknown order-mode tag")),
        };
        // Per-rule body permutations: checked, not compiled from — the
        // plans are recompiled below from what construction compiled
        // them from.
        for rule in &rules {
            let sob = d.u32s()?;
            if sob.len() != rule.body.len() {
                return Err(PersistError::Corrupt("body-order length mismatch"));
            }
            let mut seen = vec![false; sob.len()];
            for &depth in &sob {
                let depth = depth as usize;
                if depth >= seen.len() || std::mem::replace(&mut seen[depth], true) {
                    return Err(PersistError::Corrupt("body order is not a permutation"));
                }
            }
        }
        let planned_card = d.u64s()?;

        let nrels = d.count(1)?;
        if planned_card.len() != nrels {
            return Err(PersistError::Corrupt("cardinality snapshot length mismatch"));
        }
        let mut rels: Vec<ColumnarRelation> = Vec::with_capacity(nrels);
        let mut pred_of_rel: Vec<Pred> = Vec::with_capacity(nrels);
        let mut rel_of_pred: FxHashMap<Pred, usize> = FxHashMap::default();
        let mut idb_flag: Vec<bool> = Vec::with_capacity(nrels);
        let mut old_hi: Vec<usize> = Vec::with_capacity(nrels);
        for rid in 0..nrels {
            let pred = Pred(d.u32()?);
            if rel_of_pred.insert(pred, rid).is_some() {
                return Err(PersistError::Corrupt("duplicate predicate"));
            }
            let idb = match d.u8()? {
                0 => false,
                1 => true,
                _ => return Err(PersistError::Corrupt("bad IDB flag")),
            };
            let arity = d.usize()?;
            let rows = d.usize()?;
            let hi = d.usize()?;
            if hi > rows {
                return Err(PersistError::Corrupt("watermark beyond row count"));
            }
            let ncells = rows
                .checked_mul(arity)
                .filter(|n| n.checked_mul(4).is_some_and(|b| b <= d.remaining()))
                .ok_or(PersistError::Corrupt("row data overruns the file"))?;
            let data: Vec<Const> = d.u32_run(ncells)?.into_iter().map(Const).collect();
            let dead = d.u64s()?;
            let dead_rows = d.usize()?;
            if dead.len() > rows.div_ceil(64) {
                return Err(PersistError::Corrupt("tombstone bitset too long"));
            }
            let mut pop = 0usize;
            for (wi, &w) in dead.iter().enumerate() {
                pop += w.count_ones() as usize;
                let base = wi * 64;
                if base + 64 > rows && (w >> (rows - base)) != 0 {
                    return Err(PersistError::Corrupt("tombstone bit beyond row count"));
                }
            }
            if pop != dead_rows {
                return Err(PersistError::Corrupt("tombstone count mismatch"));
            }
            // A 0-ary relation's rows hold no cells, so only this bounds
            // their count by the bytes of the file (its tombstone bitset):
            // `()` has one live row at most.
            if arity == 0 && rows - dead_rows > 1 {
                return Err(PersistError::Corrupt("0-ary relation with more than one live row"));
            }
            let rel_epoch = d.u64()?;
            let ntags = d.count(12)?;
            let mut tomb_at = FxHashMap::default();
            let mut last_row = None;
            for _ in 0..ntags {
                let row = d.u32()?;
                let te = d.u64()?;
                if last_row.is_some_and(|p| row <= p) {
                    return Err(PersistError::Corrupt("death-epoch tags out of order"));
                }
                last_row = Some(row);
                let dead_bit = dead
                    .get(row as usize >> 6)
                    .is_some_and(|w| (w >> (row & 63)) & 1 == 1);
                if !dead_bit {
                    return Err(PersistError::Corrupt("death-epoch tag on a live row"));
                }
                tomb_at.insert(row, te);
            }
            rels.push(ColumnarRelation::from_persist(
                arity, data, rows, dead, dead_rows, rel_epoch, tomb_at,
            ));
            pred_of_rel.push(pred);
            idb_flag.push(idb);
            old_hi.push(hi);
        }

        if d.u8()? != 1 {
            return Err(PersistError::Corrupt("unknown provenance tag"));
        }
        let mut prov = Vec::with_capacity(nrels);
        for _ in 0..nrels {
            prov.push(RelJust::from_parts(d.u32s()?, d.u32s()?));
        }
        d.finish()?;

        // ------------- shape validation + derived-state rebuild -------------

        // Relation ids of IDB predicates, in increasing order — matching
        // construction, where IDB relations are interned first and added
        // rules only ever append.
        let idb_rels: Vec<usize> = idb_flag
            .iter()
            .enumerate()
            .filter_map(|(r, &f)| f.then_some(r))
            .collect();

        // Every rule must type-check against the relations before plan
        // compilation (which asserts rather than returns); per rule, the
        // relations of its body atoms in rule-text order.
        let mut body_rels: Vec<Vec<usize>> = Vec::with_capacity(nrules);
        for rule in &rules {
            let head_rel = *rel_of_pred
                .get(&rule.head.pred)
                .ok_or(PersistError::Corrupt("rule head over unknown relation"))?;
            if !idb_flag[head_rel] {
                return Err(PersistError::Corrupt("rule head over an EDB relation"));
            }
            if rels[head_rel].arity() != rule.head.arity() {
                return Err(PersistError::Corrupt("rule head arity mismatch"));
            }
            for a in &rule.body {
                let brel = *rel_of_pred
                    .get(&a.pred)
                    .ok_or(PersistError::Corrupt("rule body over unknown relation"))?;
                if rels[brel].arity() != a.arity() {
                    return Err(PersistError::Corrupt("rule body arity mismatch"));
                }
            }
            body_rels.push(rule.body.iter().map(|a| rel_of_pred[&a.pred]).collect());
        }

        // Justification shape: parallel to the rows, entries sized by
        // their rule's body, body row ids in range, and below the head's
        // in its own relation. After this, `RelJust::entry` is panic-free
        // for every persisted row.
        for (r, rj) in prov.iter().enumerate() {
            let (off, buf) = rj.parts();
            if idb_flag[r] {
                if off.len() != rels[r].num_rows() {
                    return Err(PersistError::Corrupt("justification store length mismatch"));
                }
            } else if !off.is_empty() || !buf.is_empty() {
                return Err(PersistError::Corrupt("justifications on an EDB relation"));
            }
            for row in 0..off.len() {
                let lo = off[row] as usize;
                let hi = off.get(row + 1).map_or(buf.len(), |&o| o as usize);
                if lo >= hi || hi > buf.len() {
                    return Err(PersistError::Corrupt("justification entry out of bounds"));
                }
                let Some(brels) = body_rels.get(buf[lo] as usize) else {
                    return Err(PersistError::Corrupt("justification names unknown rule"));
                };
                if hi - lo != 1 + brels.len() {
                    return Err(PersistError::Corrupt("justification entry length mismatch"));
                }
                for (&brel, &brow) in brels.iter().zip(&buf[lo + 1..hi]) {
                    if brow as usize >= rels[brel].num_rows() {
                        return Err(PersistError::Corrupt("justification references nonexistent row"));
                    }
                    // A deletion walk's age test reads row order within
                    // a relation, which every justification a store
                    // writes follows.
                    if brel == r && brow as usize >= row {
                        return Err(PersistError::Corrupt(
                            "justification body row not below its head row",
                        ));
                    }
                }
            }
        }

        let mut m = Self {
            rels,
            idb_rels,
            idb_flag,
            pred_of_rel,
            rel_of_pred,
            old_hi,
            profile,
            prov: Some(prov),
            stats,
            rules,
            rule_active,
            epoch,
            policy,
            compactions,
            planned_card,
            ..Self::empty(strategy, goal, order)
        };
        // The update and rescue plans, from the inputs construction
        // compiled them from: rules, order mode, persisted build-time
        // cardinalities. Their indexes are write-path state, like the
        // dedup tables: registered here, so that a view can link them,
        // and filled by the first round (or view link).
        m.compile_plans(None);
        m.rev = m.build_rev_index();
        Ok(m)
    }

    /// Writes a snapshot of the current state to `path` **atomically**
    /// (temp file + rename): a crash mid-save leaves the previous
    /// snapshot intact, never a torn file.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), PersistError> {
        persist::write_atomic(path.as_ref(), &self.to_bytes())?;
        Ok(())
    }

    /// Restores a materialization from a snapshot file written by
    /// [`Materialization::save`] — back at the persisted fixpoint
    /// without re-evaluation. See [`Materialization::from_bytes`] for
    /// the failure guarantees.
    pub fn restore<P: AsRef<Path>>(path: P) -> Result<Self, PersistError> {
        Self::from_bytes(&persist::read_file(path.as_ref())?)
    }
}
