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
use crate::storage::{ColumnarRelation, MAX_ROWS};
use std::path::Path;

impl Materialization {
    /// Serializes the materialized fixpoint — rules and their activity,
    /// counters, rows, liveness, justifications — into one versioned,
    /// length-prefixed, checksummed snapshot image: the container of
    /// [`crate::persist`] around the payload sections below. The payload
    /// holds only what a restore reads, and everything a restore rebuilds
    /// it rebuilds from these fields alone, so `to_bytes(from_bytes(x))
    /// == x` bit for bit.
    ///
    /// # Payload sections, in order
    ///
    /// All integers are little-endian; a count or `usize` is a `u64`.
    ///
    /// 1. **Strategy** — tag `u8`: 1 semi-naive, 2 parallel followed by
    ///    its `threads` as `u64`. Any other tag is
    ///    [`PersistError::Corrupt`].
    /// 2. **Goal atom** — predicate `u32`, argument count `u64`, then per
    ///    term a tag `u8` (0 constant, 1 variable) and its `u32` id.
    /// 3. **Rules** — count, then every rule slot ever allocated (dropped
    ///    ones included — justifications index rule slots) as head atom +
    ///    body atoms.
    /// 4. **Rule activity** — one `u8` per slot (0 = dropped).
    /// 5. **Counters** — serving epoch, compactions (`u64` each).
    /// 6. **EvalStats** — iterations, rule firings, tuples derived, join
    ///    probes (`u64` each). Rounds add to these six words, and the
    ///    epoch `u64::MAX` marks an open memo ([`crate::cache`]), so one
    ///    at or above 2^63 is [`PersistError::Corrupt`].
    /// 7. **Compaction policy** — presence `u8`, then `min_dead_rows u64`,
    ///    `dead_percent u32`.
    /// 8. **Planner** — order mode tag `u8` (1 planned, 2 shuffled + its
    ///    `u64` seed), then the per-relation build-time cardinalities
    ///    (count + `u64`s) every plan breaks ties by.
    /// 9. **Relations** — count, then per dense relation id: predicate
    ///    `u32`, IDB flag `u8`, arity `u64`, row count `u64` (at most
    ///    [`MAX_ROWS`], the ceiling a relation's append enforces), the flat
    ///    row-major tuple data (`rows × arity` × `u32`), the tombstone
    ///    bitset (word count + `u64` words) and the justification buffer
    ///    (count + `u32`s): per row, in row order, its rule slot and then
    ///    its body row ids in rule-text order — empty for an EDB
    ///    relation. A live row's entry names an active rule and live
    ///    body rows, and no chain of live entries leads back to its
    ///    row; a dead row's is stale and unread.
    ///
    /// Deliberately **not** serialized (rebuilt on restore): the dedup
    /// tables (probe-history-dependent slot layout; write-path state, so
    /// the rebuild waits for the first mutating round, as after a build),
    /// the join indexes and index registry (registered at restore, and
    /// re-hashed from the rows, frozen posting segments included, by the
    /// first round or view link that needs them, so a restored store that
    /// only serves reads never pays for them), compiled plans and
    /// rescue plans (recompiled together from the rules, the order mode
    /// and the persisted cardinalities, as construction compiled them),
    /// the rule graph's components (recomputed with the plans), and the
    /// reverse dependency index (rebuilt from the live justifications by
    /// every restore). Worked out on restore instead of stored: each
    /// relation's watermark (its row count — a store is saved at
    /// fixpoint) and tombstoned-row count (the bitset's popcount), and
    /// the justification offsets (each entry is 1 plus its rule's body
    /// length). Dropped: the death-epoch tags, which only a pinned
    /// snapshot reads, and no pin survives a restart. Restore
    /// therefore returns at the exact persisted fixpoint without any
    /// re-evaluation: the expensive state is the rows and
    /// justifications, which round-trip bit-for-bit.
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
        e.u64(self.compactions);
        e.usize(self.stats.iterations);
        e.u64(self.stats.rule_firings);
        e.u64(self.stats.tuples_derived);
        e.u64(self.stats.join_probes);
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
        // The build-time cardinalities every plan breaks ties by, so a
        // restored store compiles exactly the live store's plans.
        e.u64s(&self.planned_card);
        let prov = self.prov.as_ref().expect("a store that can be saved records justifications");
        e.usize(self.rels.len());
        for (r, rel) in self.rels.iter().enumerate() {
            debug_assert_eq!(self.old_hi[r], rel.num_rows(), "a store is saved at fixpoint");
            e.u32(self.pred_of_rel[r].0);
            e.u8(u8::from(self.idb_flag[r]));
            e.usize(rel.arity());
            e.usize(rel.num_rows());
            e.reserve(rel.data().len() * 4);
            for c in rel.data() {
                e.u32(c.0);
            }
            e.u64s(rel.dead_words());
            e.u32s(prov[r].buf());
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
        // 2^63 rounds of headroom, which no store spends (see `to_bytes`).
        let epoch = d.u64()?;
        if epoch >= 1 << 63 {
            return Err(PersistError::Corrupt("serving epoch at its ceiling"));
        }
        let compactions = d.u64()?;
        let stats = EvalStats {
            iterations: d.usize()?,
            rule_firings: d.u64()?,
            tuples_derived: d.u64()?,
            join_probes: d.u64()?,
        };
        let s = &stats;
        let counters =
            [compactions, s.iterations as u64, s.rule_firings, s.tuples_derived, s.join_probes];
        if counters.iter().any(|&c| c >= 1 << 63) {
            return Err(PersistError::Corrupt("counter at its ceiling"));
        }
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
        let planned_card = d.u64s()?;

        let nrels = d.count(1)?;
        if planned_card.len() != nrels {
            return Err(PersistError::Corrupt("cardinality snapshot length mismatch"));
        }
        // Relation ids are `u32` from here on, as a store interns them.
        let nrels32 = u32::try_from(nrels).map_err(|_| PersistError::Corrupt("too many relations"))?;
        let mut rels: Vec<ColumnarRelation> = Vec::with_capacity(nrels);
        let mut pred_of_rel: Vec<Pred> = Vec::with_capacity(nrels);
        let mut rel_of_pred: FxHashMap<Pred, u32> = FxHashMap::default();
        let mut idb_flag: Vec<bool> = Vec::with_capacity(nrels);
        let mut bufs: Vec<Vec<u32>> = Vec::with_capacity(nrels);
        for rid in 0..nrels32 {
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
            // The row ceiling, an error here before the constructor panics.
            if rows > MAX_ROWS {
                return Err(PersistError::Corrupt("relation row count above the row ceiling"));
            }
            let ncells = rows
                .checked_mul(arity)
                .filter(|n| n.checked_mul(4).is_some_and(|b| b <= d.remaining()))
                .ok_or(PersistError::Corrupt("row data overruns the file"))?;
            let data: Vec<Const> = d.u32_run(ncells)?.into_iter().map(Const).collect();
            let dead = d.u64s()?;
            if dead.len() > rows.div_ceil(64) {
                return Err(PersistError::Corrupt("tombstone bitset too long"));
            }
            for (wi, &w) in dead.iter().enumerate() {
                let base = wi * 64;
                if base + 64 > rows && (w >> (rows - base)) != 0 {
                    return Err(PersistError::Corrupt("tombstone bit beyond row count"));
                }
            }
            let rel = ColumnarRelation::from_settled(arity, data, rows, dead);
            // A 0-ary relation's rows hold no cells, so only this bounds
            // their count by the bytes of the file (its tombstone bitset):
            // `()` has one live row at most.
            if arity == 0 && rel.num_live() > 1 {
                return Err(PersistError::Corrupt("0-ary relation with more than one live row"));
            }
            rels.push(rel);
            pred_of_rel.push(pred);
            idb_flag.push(idb);
            bufs.push(d.u32s()?);
        }
        d.finish()?;

        // ------------- shape validation + derived-state rebuild -------------

        // The goal is read over its predicate's relation.
        if rel_of_pred.get(&goal.pred).is_some_and(|&r| rels[r as usize].arity() != goal.arity()) {
            return Err(PersistError::Corrupt("goal atom does not match its relation"));
        }

        // Every rule must type-check against the relations before plan
        // compilation (which asserts rather than returns); per rule, the
        // relation of its head and those of its body atoms in rule-text
        // order.
        let mut shapes: Vec<(u32, Vec<u32>)> = Vec::with_capacity(nrules);
        for rule in &rules {
            let head_rel = *rel_of_pred
                .get(&rule.head.pred)
                .ok_or(PersistError::Corrupt("rule head over unknown relation"))?;
            if !idb_flag[head_rel as usize] {
                return Err(PersistError::Corrupt("rule head over an EDB relation"));
            }
            if rels[head_rel as usize].arity() != rule.head.arity() {
                return Err(PersistError::Corrupt("rule head arity mismatch"));
            }
            for a in &rule.body {
                let brel = *rel_of_pred
                    .get(&a.pred)
                    .ok_or(PersistError::Corrupt("rule body over unknown relation"))?;
                if rels[brel as usize].arity() != a.arity() {
                    return Err(PersistError::Corrupt("rule body arity mismatch"));
                }
            }
            shapes.push((head_rel, rule.body.iter().map(|a| rel_of_pred[&a.pred]).collect()));
        }

        // Justification shape: one entry per row of an IDB relation, each
        // its rule slot — a rule that heads this relation — and as many
        // body row ids as the rule has body atoms, each in range and below
        // the head's in its own relation, the entries consuming the buffer
        // exactly. The offsets fall out of the walk. After this,
        // `RelJust::entry` is panic-free for every persisted row. A live
        // row's entry is its current derivation, as DRed keeps it: an
        // active rule over live body rows (compaction remaps body rows
        // through it, and a walk that never reaches a row justified only
        // by a dropped rule would keep a row outside the model). A dead
        // row keeps its stale entry, unchecked. The rule is checked here;
        // the body rows' liveness on the rebuilt reverse index, below.
        const UNEVEN: PersistError = PersistError::Corrupt("justification buffer not consumed exactly");
        let mut prov = Vec::with_capacity(nrels);
        for (r, (buf, rel)) in bufs.into_iter().zip(&rels).enumerate() {
            if !idb_flag[r] && !buf.is_empty() {
                return Err(PersistError::Corrupt("justifications on an EDB relation"));
            }
            let rows = if idb_flag[r] { rel.row_ids(..) } else { 0..0 };
            let mut off = Vec::with_capacity(rows.len());
            let mut lo = 0;
            for row in rows {
                let &rule = buf.get(lo).ok_or(UNEVEN)?;
                let Some((head_rel, brels)) = shapes.get(rule as usize) else {
                    return Err(PersistError::Corrupt("justification names unknown rule"));
                };
                if *head_rel as usize != r {
                    return Err(PersistError::Corrupt("justification rule heads another relation"));
                }
                if !rule_active[rule as usize] && rel.is_live(row) {
                    return Err(PersistError::Corrupt("live row justified by a dropped rule"));
                }
                let hi = lo + 1 + brels.len();
                let body = buf.get(lo + 1..hi).ok_or(UNEVEN)?;
                for (&brel, &brow) in brels.iter().zip(body) {
                    if brow as usize >= rels[brel as usize].num_rows() {
                        return Err(PersistError::Corrupt("justification references nonexistent row"));
                    }
                    // A deletion walk's age test reads row order within
                    // a relation, which every justification a store
                    // writes follows.
                    if brel as usize == r && brow >= row {
                        return Err(PersistError::Corrupt(
                            "justification body row not below its head row",
                        ));
                    }
                }
                off.push(u32::try_from(lo).map_err(|_| PersistError::Corrupt("justification buffer too long"))?);
                lo = hi;
            }
            if lo != buf.len() {
                return Err(UNEVEN);
            }
            prov.push(RelJust::from_parts(off, buf));
        }

        let mut m = Self {
            rels,
            idb_flag,
            pred_of_rel,
            rel_of_pred,
            prov: Some(prov),
            stats,
            rules,
            rule_active,
            policy,
            epoch,
            compactions,
            planned_card,
            ..Self::empty(strategy, goal, order)
        };
        m.old_hi = m.frontiers();
        // The update and rescue plans, from the inputs construction
        // compiled them from: rules, order mode, persisted build-time
        // cardinalities. Their indexes are write-path state, like the
        // dedup tables: registered here, so that a view can link them,
        // and filled by the first round (or view link).
        m.compile_plans(None);
        m.rev = m.build_rev_index();
        // The rebuilt index holds the live rows' edges only, so a live
        // row justified through a dead row is a dead row with an edge:
        // a walk over the tombstones, not over every body row id.
        for (r, rel) in (0..nrels32).zip(&m.rels) {
            if rel.dead_row_ids().any(|row| m.rev.has_dependents(r, row)) {
                return Err(PersistError::Corrupt("live row justified through a dead row"));
            }
        }
        // A rule reads its own component of the rule graph or a lower
        // one, and a body row of the head's own relation sits below it,
        // so a justification cycle stays in one component and crosses
        // its relations: only the live rows of components of two or
        // more relations are walked, none for most programs.
        let mut span = vec![0u32; nrels];
        for &c in &m.comp {
            span[c as usize] += 1;
        }
        let tangled: Vec<usize> = (0..nrels).filter(|&r| span[m.comp[r] as usize] > 1).collect();
        if !tangled.is_empty() {
            m.well_founded(tangled).map_err(|_| PersistError::Corrupt("justifications form a cycle"))?;
        }
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
