//! The concurrent live materialization server.
//!
//! A [`Server`] wraps a [`Materialization`] for the many-readers /
//! one-round-at-a-time-writer pattern the paper's selection-propagation
//! machinery ultimately serves: readers keep querying the maintained
//! fixpoint while batched [`UpdateRound`]s — fact churn and rule
//! hot-swap — stream in. Three guarantees, proved adversarially by
//! `tests/server_stress.rs` and `tests/query_cache_props.rs`:
//!
//! - **No mid-round reads.** A round is applied under the store's write
//!   lock and its epoch is published only after the round reaches
//!   fixpoint, so every read observes the result of a whole *prefix* of
//!   the applied rounds — never a half-propagated state (linearizable
//!   at round granularity).
//! - **Epoch-pinned snapshot reads.** [`Server::snapshot`] pins the
//!   current epoch with a cheap handle: a per-relation live-row
//!   **frontier** (the append-only store's row counts) plus the pinned
//!   epoch number. Later rounds keep appending rows (above every
//!   pinned frontier) and tombstoning rows (tagged with the round's
//!   epoch — see [`crate::storage::ColumnarRelation::set_epoch`]), so a
//!   pinned [`Snapshot`] keeps reading its exact state-as-of-pin for as
//!   long as it lives, without cloning any data.
//! - **Coherent cached queries.** [`Server::query`] routes bound goals
//!   through a [`QueryCache`] of incrementally-maintained magic-set
//!   views (see [`crate::cache`]). Views are caught up *inside* the
//!   writer's round — after the base reaches its new fixpoint, before
//!   the round's epoch is published — so the base facts and every
//!   cached answer always come from the same fixpoint, and a pinned
//!   snapshot's [`Snapshot::query`] answers as of its pin (from the
//!   pinned view when it survives, by filtering the pinned base state
//!   otherwise — identical answers either way). An answer is built
//!   once per change of its view, by the first reader to ask, and
//!   handed out by reference count until the next change — and after
//!   it, to the snapshots pinned before it, for as long as they live.
//!
//! Reclamation and compaction are **deferred maintenance**: when the
//! last reader below an epoch unpins, the new horizon — the first
//! pinned epoch, or the published one when nothing is pinned — is
//! applied by whoever holds, or next takes, the store's write lock. The
//! unpinning reader drains it itself when the store is idle
//! (`try_write` succeeds); under write contention the horizon is
//! *handed off*, never lost. The pin table is the ledger: the horizon
//! never decreases (pins are taken at the published epoch, which only
//! grows, and an unpin only raises the first pinned one), so the unpin
//! records it by removing its pin. Every write-lock holder drains the
//! table inside the epochs critical section as its very last act before
//! releasing the store, so an unpin that loses the `try_write` race has
//! either already removed its pin (the holder drains the horizon) or is
//! still blocked on the epochs lock and will retry the idle store right
//! after. Dead rows stay dead either way; pinned frontiers/tags are the
//! only per-epoch cost.
//!
//! [`Materialization::compact`] rides the same protocol: a
//! policy-triggered compaction (see
//! [`crate::materialize::CompactionPolicy`]) would clear the epoch tags
//! and remap the row ids pinned snapshots rely on, so while any pin
//! exists it is only *queued* (`compact_pending`) — the drain after the
//! last unpin runs it. A compaction also remaps the base row ids cached
//! views reference, so the cache drops its views at the next
//! validation and rebuilds on demand (templates survive). The cache's
//! own template stores shed their dead rows in the same drain, under
//! the same condition: a pinned snapshot reads views by row frontier
//! too.
//!
//! Lock order is `state → epochs` everywhere that takes both (the
//! unpinning path takes `epochs` first but only ever *tries* the state
//! lock, so it cannot deadlock). Durability: [`Server::save`] writes the
//! store's checksummed snapshot file at the published epoch, and
//! [`Server::restore`] resumes serving from it — same fixpoint, same
//! epoch counter, no re-evaluation. A restored server's cache is built
//! as a new server's is, and serves bound goals from views from its
//! first query: a template is compiled from the store's rules by id
//! (see [`crate::cache`], "Coherence"), so the names a snapshot does not
//! persist are never needed. The cache keeps no copy of the rules
//! either: it reads them from the store, so rule hot-swap — before a
//! save or after — needs no bookkeeping here.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::ast::{Atom, Pred, Program};
use crate::cache::{CacheConfig, CacheStats, QueryCache, ViewPins};
use crate::db::{Database, Relation};
use crate::derivation::Provenance;
use crate::eval::{EvalStats, Strategy};
use crate::materialize::{CompactionPolicy, Materialization, MemStats, RoundReport, UpdateRound};
use crate::persist::PersistError;

/// Everything guarded by the server's writer lock: the base store and
/// the query cache whose views must advance in lockstep with it.
struct ServerState {
    /// The maintained fixpoint.
    store: Materialization,
    /// The magic-set view cache over `store` (see [`crate::cache`]).
    cache: QueryCache,
}

/// The shared state behind one server and all of its snapshots.
struct Shared {
    /// The store + cache pair. Readers pin and query under the read
    /// lock; the writer applies whole rounds under the write lock.
    state: RwLock<ServerState>,
    /// The epoch table: the published epoch plus reader pin counts.
    epochs: Mutex<EpochTable>,
}

/// What a poisoned lock means is decided here and nowhere else: a
/// thread panicked while holding it, the state behind it may be torn,
/// and every later caller panics in turn.
impl Shared {
    fn read(&self) -> RwLockReadGuard<'_, ServerState> {
        self.state.read().expect("state lock poisoned")
    }

    fn write(&self) -> RwLockWriteGuard<'_, ServerState> {
        self.state.write().expect("state lock poisoned")
    }

    fn epochs(&self) -> MutexGuard<'_, EpochTable> {
        self.epochs.lock().expect("epoch lock poisoned")
    }
}

/// The published epoch, the readers pinned per epoch, and the deferred
/// maintenance ledger (see the module docs).
struct EpochTable {
    /// The epoch of the last published round (0 = the initial fixpoint).
    current: u64,
    /// Pin count per pinned epoch (absent = zero). A `BTreeMap` so the
    /// minimum pinned epoch — the reclamation horizon — is the first
    /// key.
    pins: BTreeMap<u64, usize>,
    /// A policy-triggered compaction queued while snapshots were pinned
    /// (compaction clears epoch tags and remaps row ids, so it must
    /// wait for the last unpin).
    compact_pending: bool,
}

impl EpochTable {
    /// The reclamation horizon: every tombstone tag at or below this
    /// epoch is unobservable. With no pins that is the published epoch
    /// itself (tags are never issued above it). It never decreases (see
    /// the module docs), so the pin table alone carries an unpin's
    /// horizon to whoever drains next.
    fn min_observable(&self) -> u64 {
        self.pins.keys().next().copied().unwrap_or(self.current)
    }

    fn new(current: u64) -> Self {
        EpochTable {
            current,
            pins: BTreeMap::new(),
            compact_pending: false,
        }
    }

    /// Applies all deferred maintenance to a write-locked state:
    /// reclaims every unobservable tombstone tag (in the base store and
    /// the cache's template stores), tells the cache the epochs pinned
    /// now (the memos it may keep for them), and runs (or queues) the
    /// policy-triggered compaction. Callers must hold the epochs lock
    /// for the *remainder* of their write-lock tenure — the state guard is
    /// dropped inside the critical section — so no horizon recorded by
    /// a contending unpin can slip between the drain and the release.
    fn drain(&mut self, state: &mut ServerState) {
        let horizon = self.min_observable();
        state.store.reclaim_epochs(horizon);
        state.cache.reclaim_epochs(horizon, self.pins.keys().copied());
        if self.pins.is_empty() {
            if self.compact_pending || state.store.needs_compaction() {
                state.store.compact();
            }
            self.compact_pending = false;
            state.cache.compact();
        } else if state.store.needs_compaction() {
            self.compact_pending = true;
        }
    }
}

/// A concurrent handle on a live materialization: cheap to clone, safe
/// to share across threads. Any thread may take snapshots and read;
/// [`Server::apply`] serializes writers (rounds are atomic — see the
/// module docs).
#[derive(Clone)]
pub struct Server {
    shared: Arc<Shared>,
}

impl Server {
    /// Serves `program` materialized over an empty database.
    pub fn new(program: &Program, strategy: Strategy) -> Self {
        Self::from_database(program, &Database::new(), strategy)
    }

    /// Serves `program` materialized over `db`: runs the initial batch
    /// fixpoint (epoch 0), then stands ready for readers and rounds.
    /// The query cache is armed from the start.
    pub fn from_database(program: &Program, db: &Database, strategy: Strategy) -> Self {
        let store = Materialization::from_database(program, db, strategy);
        let cache = QueryCache::serving(&store);
        Self {
            shared: Arc::new(Shared {
                state: RwLock::new(ServerState { store, cache }),
                epochs: Mutex::new(EpochTable::new(0)),
            }),
        }
    }

    /// Saves the published fixpoint to a checksummed snapshot file (see
    /// [`Materialization::save`]). Runs under the read lock, so it
    /// captures a whole round boundary — never a mid-round state — and
    /// the atomic write leaves any previous snapshot at `path` intact if
    /// the save dies partway. Cached views are derived state and are
    /// not persisted; a restored server rebuilds them on demand.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), PersistError> {
        self.shared.read().store.save(path)
    }

    /// Resumes serving from a snapshot file written by [`Server::save`]
    /// (or [`Materialization::save`]): the store comes back at its
    /// persisted fixpoint and the server republishes the persisted
    /// epoch, so rounds applied after the restart keep numbering where
    /// the saved process left off. No reader survives a restart, and a
    /// snapshot holds no tombstone tag: every dead row is dead at every
    /// epoch a new reader can pin.
    ///
    /// The query cache is built as [`Server::from_database`] builds it:
    /// it reads the store's rules at once, so the first bound query —
    /// on any predicate the store holds as IDB, hot-swapped ones
    /// included — already gets a view. Views are derived state and were
    /// not persisted; each is rebuilt by its first query.
    pub fn restore<P: AsRef<Path>>(path: P) -> Result<Self, PersistError> {
        let store = Materialization::restore(path)?;
        let epoch = store.epoch();
        let cache = QueryCache::serving(&store);
        Ok(Self {
            shared: Arc::new(Shared {
                state: RwLock::new(ServerState { store, cache }),
                epochs: Mutex::new(EpochTable::new(epoch)),
            }),
        })
    }

    /// Starts the query cache over: every view and template is dropped,
    /// and the next bound query of each goal builds it again from the
    /// store's rules. Tags go on counting, so a snapshot pinned before
    /// the call takes no view built after it for its own. `program` is
    /// not read — the cache needs neither its rules nor its names — and
    /// the parameter stays for the callers written when a restored
    /// server's cache waited for it.
    pub fn enable_query_cache(&self, _program: &Program) {
        let mut state = self.shared.write();
        let ServerState { store, cache } = &mut *state;
        cache.start_over(store);
    }

    /// The query cache's observability counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.read().cache.stats()
    }

    /// Answers the cache has materialised from view rows
    /// ([`QueryCache::answer_builds`]); every other cached answer was a
    /// reference count.
    pub fn cache_answer_builds(&self) -> u64 {
        self.shared.read().cache.answer_builds()
    }

    /// Replaces the cache's eviction limits (see [`CacheConfig`]).
    pub fn set_cache_config(&self, config: CacheConfig) {
        self.shared.write().cache.set_config(config);
    }

    /// Total words resident in cached views (tuples, indexes,
    /// justifications, memoised answers — those kept for pinned
    /// snapshots included; see [`QueryCache::view_words`]). Base rows
    /// are shared with the store, not copied, so this is the cache's
    /// real marginal footprint.
    pub fn cache_view_words(&self) -> usize {
        self.shared.read().cache.view_words()
    }

    /// Sets (or clears) the compaction policy of the underlying store.
    /// If the new policy already holds, the compaction runs right away
    /// when no snapshot is pinned, and is queued for the last unpin
    /// otherwise — exactly like a round-triggered compaction.
    pub fn set_compaction_policy(&self, policy: Option<CompactionPolicy>) {
        let mut state = self.shared.write();
        state.store.set_compaction_policy(policy);
        let mut epochs = self.shared.epochs();
        epochs.drain(&mut state);
        drop(state);
    }

    /// Number of compactions the underlying store has run (policy- or
    /// drain-triggered).
    pub fn compactions(&self) -> u64 {
        self.shared.read().store.compactions()
    }

    /// Memory footprint counters of the underlying store (see
    /// [`Materialization::mem_stats`]).
    pub fn mem_stats(&self) -> MemStats {
        self.shared.read().store.mem_stats()
    }

    /// Applies one batched [`UpdateRound`] and publishes the resulting
    /// epoch. The round runs under the write lock — readers either see
    /// the epoch before it or the epoch after it, never the middle —
    /// and unobservable tombstone tags are reclaimed on the way out.
    /// Cached views are caught up before the epoch is published, so the
    /// new epoch's base facts and cached answers come from the same
    /// fixpoint. The round marks the views whose rows it changed, and
    /// of each one's memoised answer writes one `u64`, the epoch up to
    /// which that answer is the view's; it leaves the answers alone —
    /// building one, or freeing the tuples of a stale or displaced one,
    /// is reader's work (see [`crate::cache`], "Answers"). The drain on
    /// the way out copies the epochs snapshots are pinned at into the
    /// cache and looks at no view.
    ///
    /// Writer calls are serialized by the write lock; each applied
    /// round increments the published epoch by one. This is the
    /// server's one write: a single insert or rule add is a round
    /// holding just that item. The report's
    /// [`RoundReport::first_rule`] is written under the same lock the
    /// round runs under, so concurrent callers that add rules each
    /// learn their own slots.
    ///
    /// # Panics
    ///
    /// On a malformed round, as [`Materialization::apply`] does: before
    /// anything changes and with the write lock already released, so
    /// the store, the epoch and the cached views are as they were and
    /// no other client notices.
    pub fn apply(&self, round: &UpdateRound) -> RoundReport {
        let mut state = self.shared.write();
        if let Err(e) = state.store.check_round(round) {
            // Unwinding with the guard held would poison it for everyone.
            drop(state);
            panic!("{e}");
        }
        let next = {
            let epochs = self.shared.epochs();
            epochs.current + 1
        };
        let report = {
            let ServerState { store, cache } = &mut *state;
            // Tombstones of this round are tagged `next`: dead at
            // `next`, still visible to every reader pinned at `< next`.
            store.set_epoch(next);
            let report = store.apply_checked(round);
            // Catch every template store up with the new fixpoint (a
            // round that changed the rules drops them instead: the
            // cache reads the store's rule slots, see `crate::cache`).
            cache.sync_all(store);
            report
        };
        // Publish, then drain deferred maintenance (tag reclamation and
        // any queued compaction). The state guard is released *inside*
        // the epochs critical section: an unpin that lost the
        // `try_write` race against this round has either recorded its
        // horizon already (we drain it here) or is still waiting on the
        // epochs lock and will retry the idle store right after.
        let mut epochs = self.shared.epochs();
        epochs.current = next;
        epochs.drain(&mut state);
        drop(state);
        report
    }

    /// Answers an ad-hoc `goal` over the current model, through the
    /// magic-set view cache when the goal has usable bindings (see
    /// [`crate::cache`] for the routing rules) and by filtering the
    /// base model otherwise. Answers are always exact — the cache only
    /// changes cost.
    ///
    /// The fast path (an up-to-date view, or a direct route) runs under
    /// the read lock and blocks no readers. Only a query that must
    /// build or catch up a view takes the write lock.
    ///
    /// A hit on a view no round has changed since it was last read is a
    /// reference count: the view keeps its last answer, and the
    /// [`Relation`] returned shares that answer's tuples with the cache
    /// and with every other client that was given it. It is the
    /// caller's to keep for as long as it likes, across any number of
    /// rounds, and to write to — writes copy first. After a round that
    /// did change the view, the first reader builds the new answer
    /// (under the read lock); [`Server::apply`] never does.
    pub fn query(&self, goal: &Atom) -> Relation {
        {
            let state = self.shared.read();
            if let Some(answer) = state.cache.lookup(&state.store, goal) {
                return answer;
            }
        }
        let mut state = self.shared.write();
        let ServerState { store, cache } = &mut *state;
        cache.query(store, goal)
    }

    /// Pins the current epoch and returns a read handle on it: a
    /// per-relation frontier plus the epoch number — no data is cloned.
    /// The snapshot keeps serving its exact pinned state however many
    /// rounds the writer applies afterwards; dropping it unpins (and
    /// opportunistically reclaims).
    pub fn snapshot(&self) -> Snapshot {
        // Hold the read lock across the pin: the writer can neither be
        // mid-round (the frontier is a published fixpoint) nor publish
        // and reclaim between reading `current` and pinning it.
        let state = self.shared.read();
        let epoch = {
            let mut epochs = self.shared.epochs();
            let current = epochs.current;
            *epochs.pins.entry(current).or_insert(0) += 1;
            current
        };
        let frontier = state.store.frontiers();
        let views = state.cache.view_pins();
        drop(state);
        Snapshot {
            shared: Arc::clone(&self.shared),
            epoch,
            frontier,
            views,
        }
    }

    /// The published epoch (= number of rounds applied so far).
    pub fn current_epoch(&self) -> u64 {
        self.shared.epochs().current
    }

    /// Work counters accumulated by the underlying materialization.
    pub fn stats(&self) -> EvalStats {
        self.shared.read().store.stats()
    }

    /// The goal's answer over the **current** model (an unpinned read:
    /// equivalent to `snapshot().answer()` but cheaper).
    pub fn answer(&self) -> Relation {
        self.shared.read().store.answer()
    }

    /// A provenance snapshot of the current model: a clone of the whole
    /// store, indexes included, taken under the read lock — O(store)
    /// time and memory (see [`Materialization::provenance`]).
    pub fn provenance(&self) -> Provenance {
        self.shared.read().store.provenance()
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("epoch", &self.current_epoch())
            .finish_non_exhaustive()
    }
}

/// A pinned point-in-time view of a [`Server`]'s store: the state after
/// exactly the first `epoch` applied rounds. Reads take the store's
/// read lock briefly but never block on (or observe) the writer's
/// in-progress round. Dropping the snapshot unpins its epoch.
pub struct Snapshot {
    shared: Arc<Shared>,
    epoch: u64,
    /// Per-relation row counts at pin time: rows at or above the
    /// frontier (and whole relations interned later) are invisible.
    frontier: Vec<usize>,
    /// Cached-view pins: which views were live at pin time, and one row
    /// frontier per template store. [`Snapshot::query`] answers from a
    /// pinned view while it survives, and falls back to filtering the
    /// pinned base state when it doesn't — same fixpoint, identical
    /// answers.
    views: ViewPins,
}

impl Snapshot {
    /// The pinned epoch (= how many applied rounds this view includes).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The goal's answer relation as of the pinned state.
    pub fn answer(&self) -> Relation {
        self.shared.read().store.answer_at(&self.frontier, self.epoch)
    }

    /// Answers an ad-hoc `goal` as of the pinned state. Bound goals
    /// whose cached view was live at pin time are answered from the
    /// view at its pinned frontier; everything else filters the base
    /// store at the snapshot's own frontier. Both read the same pinned
    /// fixpoint, so the route never changes the answer. A view that no
    /// round has changed since the pin *is* at its pinned state, and is
    /// answered the way [`Server::query`] answers it — from the view's
    /// memoised answer, by reference count. One that has changed is
    /// answered, by reference count too, from the memo that covers the
    /// pinned epoch: the view keeps the answers it displaces for as long
    /// as a snapshot pinned inside their epochs lives. Where none does,
    /// the first call reads the answer off the view's rows below the
    /// pinned frontier, and the view keeps it for the calls after (see
    /// [`crate::cache`], "Answers").
    pub fn query(&self, goal: &Atom) -> Relation {
        let state = self.shared.read();
        state
            .cache
            .answer_pinned(&state.store, goal, &self.views, &self.frontier, self.epoch)
    }

    /// The IDB model as of the pinned state.
    pub fn idb_database(&self) -> Database {
        self.shared.read().store.idb_database_at(&self.frontier, self.epoch)
    }

    /// Every tracked relation (stored EDB facts and the IDB model) as of
    /// the pinned state.
    pub fn database(&self) -> Database {
        self.shared.read().store.database_at(&self.frontier, self.epoch)
    }

    /// Number of facts stored for `pred` as of the pinned state.
    pub fn num_facts(&self, pred: Pred) -> usize {
        self.shared.read().store.num_facts_at(pred, &self.frontier, self.epoch)
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("epoch", &self.epoch)
            .finish_non_exhaustive()
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        let mut epochs = self.shared.epochs();
        if let Some(n) = epochs.pins.get_mut(&self.epoch) {
            *n -= 1;
            if *n == 0 {
                epochs.pins.remove(&self.epoch);
            }
        }
        // The pin is gone *before* the state lock is tried: if the store
        // is busy, the pin table — not this thread — carries the new
        // horizon (and any queued compaction) to whoever holds or next
        // takes the write lock.
        //
        // Opportunistic drain while still inside the epochs critical
        // section, only if the store is idle right now (`try_write`
        // never blocks, so the epochs→state order here cannot deadlock
        // against the state→epochs order elsewhere: holders of both
        // only ever block on epochs, never on the state).
        if let Ok(mut state) = self.shared.state.try_write() {
            epochs.drain(&mut state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Rule, Term};
    use crate::db::Tuple;
    use crate::materialize::RuleId;
    use crate::parser::parse_program;

    const SRC: &str = "?- anc(john, Y).\n\
                       anc(X, Y) :- par(X, Y).\n\
                       anc(X, Y) :- anc(X, Z), par(Z, Y).";

    fn chain(p: &mut Program, n: usize) -> Vec<Tuple> {
        let mut prev = p.symbols.constant("john");
        (1..=n)
            .map(|i| {
                let c = p.symbols.constant(&format!("c{i}"));
                let t = vec![prev, c];
                prev = c;
                t
            })
            .collect()
    }

    #[test]
    fn snapshots_pin_their_epoch_across_churn() {
        let mut p = parse_program(SRC).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let edges = chain(&mut p, 6);
        let server = Server::new(&p, Strategy::SemiNaive);

        assert_eq!(server.apply(&UpdateRound::new().insert_all(par, &edges[..3])).inserted, 3);
        assert_eq!(server.current_epoch(), 1);
        let pinned = server.snapshot();
        assert_eq!(pinned.epoch(), 1);
        assert_eq!(pinned.answer().len(), 3);

        // Churn after the pin: grow, then cut the chain at the root.
        server.apply(&UpdateRound::new().insert_all(par, &edges[3..]));
        server.apply(&UpdateRound::new().retract_all(par, &edges[..1]));
        assert_eq!(server.current_epoch(), 3);

        // The pinned snapshot still serves its exact state...
        assert_eq!(pinned.answer().len(), 3, "pinned reads don't move");
        assert_eq!(pinned.num_facts(par), 3);
        // ...while fresh snapshots see the current state.
        let fresh = server.snapshot();
        assert_eq!(fresh.epoch(), 3);
        assert_eq!(fresh.answer().len(), 0, "root edge retracted");
        assert_eq!(fresh.num_facts(par), 5);
        drop(pinned);

        // After the unpin the next round reclaims; the current state is
        // unaffected.
        server.apply(&UpdateRound::new().insert_all(par, &edges[..1]));
        assert_eq!(server.answer().len(), 6);
    }

    #[test]
    fn rounds_are_atomic_for_overlapping_snapshots() {
        let mut p = parse_program(SRC).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let edges = chain(&mut p, 8);
        let mut db = Database::new();
        for e in &edges[..4] {
            db.insert(par, e.clone());
        }
        let server = Server::from_database(&p, &db, Strategy::SemiNaive);
        let before = server.snapshot();
        // One mixed round: retract the tail edge, insert the rest.
        server.apply(
            &UpdateRound::new()
                .retract(par, edges[3].clone())
                .insert_all(par, &edges[4..]),
        );
        let after = server.snapshot();
        assert_eq!(before.answer().len(), 4);
        assert_eq!(after.answer().len(), 3, "chain cut at edge 3");
        assert_eq!(after.epoch(), before.epoch() + 1);
        // Snapshot databases are exactly the two fixpoints.
        assert_eq!(
            before.database().sorted_models(),
            {
                let m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
                m.database().sorted_models()
            },
            "pinned = the pre-round fixpoint"
        );
        let mut db2 = db.clone();
        db2.remove(par, &edges[3]);
        for e in &edges[4..] {
            db2.insert(par, e.clone());
        }
        assert_eq!(
            after.database().sorted_models(),
            {
                let m = Materialization::from_database(&p, &db2, Strategy::SemiNaive);
                m.database().sorted_models()
            },
            "published = the post-round fixpoint"
        );
    }

    #[test]
    fn rule_hot_swap_through_the_server() {
        let mut p = parse_program(SRC).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let anc = p.symbols.get_predicate("anc").unwrap();
        let edges = chain(&mut p, 4);
        let server = Server::new(&p, Strategy::SemiNaive);
        server.apply(&UpdateRound::new().insert_all(par, &edges));
        let pinned = server.snapshot();
        assert_eq!(pinned.num_facts(anc), 10, "4+3+2+1 ancestor pairs");

        // Drop the transitive rule: only direct parents remain.
        assert_eq!(server.apply(&UpdateRound::new().drop_rule(RuleId(1))).rules_dropped, 1);
        assert_eq!(server.snapshot().num_facts(anc), 4);
        assert_eq!(pinned.num_facts(anc), 10, "pinned view unaffected");

        // Re-add it (fresh slot) — the model is restored.
        let readd = p.rules[1].clone();
        let id = server.apply(&UpdateRound::new().add_rule(readd)).first_rule;
        assert_eq!(id, RuleId(2));
        assert_eq!(server.snapshot().num_facts(anc), 10);
        assert_eq!(pinned.num_facts(anc), 10);

        // The four row dumps — live or pinned, whole store or IDB only —
        // over a store holding the drop's tombstones (tagged: `pinned`
        // still reads them) and `sib`, interned after the pin.
        let sib = p.symbols.predicate("sib");
        let xy = vec![Term::Var(p.symbols.variable("X")), Term::Var(p.symbols.variable("Y"))];
        let sib_rule = Rule::new(Atom::new(sib, xy.clone()), vec![Atom::new(par, xy)]);
        server.apply(&UpdateRound::new().add_rule(sib_rule.clone()));
        let mut db = Database::new();
        for e in &edges {
            db.insert(par, e.clone());
        }
        let before = Materialization::from_database(&p, &db, Strategy::SemiNaive);
        p.rules.push(sib_rule);
        let after = Materialization::from_database(&p, &db, Strategy::SemiNaive);
        assert_eq!(pinned.database().sorted_models(), before.database().sorted_models());
        assert_eq!(pinned.idb_database().sorted_models(), before.idb_database().sorted_models());
        assert!(pinned.database().relation(sib).is_none(), "interned after the pin");
        let now = server.snapshot();
        assert_eq!(now.database().sorted_models(), after.database().sorted_models());
        assert_eq!(now.idb_database().sorted_models(), after.idb_database().sorted_models());
        assert_eq!(now.idb_database().relation(sib).map(Relation::len), Some(4));
        assert!(now.idb_database().relation(par).is_none(), "IDB only");
        let state = server.shared.state.read().expect("state lock poisoned");
        assert!(state.store.mem_stats().total_rows > state.store.mem_stats().live_rows);
        assert_eq!(state.store.database().sorted_models(), after.database().sorted_models());
        assert_eq!(
            state.store.idb_database().sorted_models(),
            after.idb_database().sorted_models()
        );
    }

    /// A round's `first_rule` is read under the write lock the round
    /// runs under: two threads adding rules at once are never handed the
    /// same id, nor each other's — dropping by the reported id removes
    /// exactly the caller's rule.
    #[test]
    fn concurrent_add_rule_calls_get_their_own_ids() {
        const PER_THREAD: usize = 24;
        let mut p = parse_program(SRC).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let edges = chain(&mut p, 2);
        let (x, y) = (p.symbols.variable("X"), p.symbols.variable("Y"));
        // One head predicate per added rule: h_t_i(X, Y) :- par(X, Y).
        let heads: Vec<Vec<Pred>> = (0..2)
            .map(|t| (0..PER_THREAD).map(|i| p.symbols.predicate(&format!("h_{t}_{i}"))).collect())
            .collect();
        let server = Server::new(&p, Strategy::SemiNaive);
        server.apply(&UpdateRound::new().insert_all(par, &edges));
        let rule_for = move |head: Pred| {
            let args = vec![Term::Var(x), Term::Var(y)];
            Rule::new(Atom::new(head, args.clone()), vec![Atom::new(par, args)])
        };
        let adders: Vec<_> = heads
            .iter()
            .cloned()
            .map(|mine| {
                let server = server.clone();
                std::thread::spawn(move || {
                    let add = |h| server.apply(&UpdateRound::new().add_rule(rule_for(h)));
                    mine.iter().map(|&h| (h, add(h).first_rule)).collect::<Vec<_>>()
                })
            })
            .collect();
        let added: Vec<(Pred, RuleId)> =
            adders.into_iter().flat_map(|t| t.join().expect("adder thread")).collect();

        let mut ids: Vec<RuleId> = added.iter().map(|&(_, id)| id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 2 * PER_THREAD, "every call got an id of its own");
        for &(head, id) in &added {
            assert_eq!(server.snapshot().num_facts(head), 2);
            assert_eq!(server.apply(&UpdateRound::new().drop_rule(id)).rules_dropped, 1);
            assert_eq!(server.snapshot().num_facts(head), 0, "the id named the caller's rule");
        }
    }

    /// A round that adds rules reports the slot of its first; the rest
    /// follow it. A round that adds none reports the slot the next add
    /// gets, and leaves it free.
    #[test]
    fn a_round_reports_the_slot_of_its_first_added_rule() {
        let mut p = parse_program(SRC).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let edges = chain(&mut p, 3);
        let (x, y) = (p.symbols.variable("X"), p.symbols.variable("Y"));
        let [h0, h1, h2] = ["h0", "h1", "h2"].map(|n| p.symbols.predicate(n));
        let rule_for = |head: Pred| {
            let args = vec![Term::Var(x), Term::Var(y)];
            Rule::new(Atom::new(head, args.clone()), vec![Atom::new(par, args)])
        };
        let server = Server::new(&p, Strategy::SemiNaive);
        let next = RuleId(2); // past the program's two rules

        let facts = server.apply(&UpdateRound::new().insert_all(par, &edges));
        assert_eq!((facts.inserted, facts.rules_added, facts.first_rule), (3, 0, next));

        let two = server.apply(&UpdateRound::new().add_rule(rule_for(h0)).add_rule(rule_for(h1)));
        assert_eq!((two.rules_added, two.first_rule), (2, next));
        let second = RuleId(next.0 + 1);
        assert_eq!(server.apply(&UpdateRound::new().drop_rule(second)).rules_dropped, 1);
        assert_eq!(server.snapshot().num_facts(h1), 0, "the second add got the next slot");
        assert_eq!(server.snapshot().num_facts(h0), 3);

        let empty = server.apply(&UpdateRound::new());
        assert_eq!(empty.first_rule, RuleId(next.0 + 2));
        let one = server.apply(&UpdateRound::new().add_rule(rule_for(h2)));
        assert_eq!(one.first_rule, empty.first_rule, "a round with no add consumed no slot");
        assert_eq!(server.snapshot().num_facts(h2), 3);
        assert_eq!(server.apply(&UpdateRound::new().drop_rule(one.first_rule)).rules_dropped, 1);
        assert_eq!(server.snapshot().num_facts(h2), 0, "the reported slot holds the rule");
    }

    #[test]
    fn server_is_shareable_across_threads() {
        let mut p = parse_program(SRC).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let edges = chain(&mut p, 32);
        let server = Server::new(&p, Strategy::SemiNaive);
        server.apply(&UpdateRound::new().insert_all(par, &edges[..1]));

        let readers: Vec<_> = (0..3)
            .map(|_| {
                let server = server.clone();
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    let mut reads = 0usize;
                    while last < 8 {
                        let snap = server.snapshot();
                        // Answers are a function of the pinned epoch:
                        // epoch e = e edges inserted (one per round).
                        assert_eq!(snap.answer().len() as u64, snap.epoch());
                        assert!(snap.epoch() >= last, "epochs are monotone");
                        last = snap.epoch();
                        reads += 1;
                    }
                    reads
                })
            })
            .collect();
        for e in &edges[1..8] {
            server.apply(&UpdateRound::new().insert(par, e.clone()));
        }
        for r in readers {
            assert!(r.join().expect("reader thread") > 0);
        }
    }

    /// Count of retained (pinned-reader) tombstone tags in the store.
    fn tags(server: &Server) -> usize {
        server
            .shared
            .state
            .read()
            .unwrap()
            .store
            .tagged_tombstones()
    }

    #[test]
    fn idle_unpin_reclaims_immediately_without_another_round() {
        let mut p = parse_program(SRC).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let edges = chain(&mut p, 4);
        let server = Server::new(&p, Strategy::SemiNaive);
        server.apply(&UpdateRound::new().insert_all(par, &edges));
        let pinned = server.snapshot();
        server.apply(&UpdateRound::new().retract_all(par, &edges[..1]));
        assert!(tags(&server) > 0, "tags retained for the pinned reader");
        // The store is idle: the unpinning Drop reclaims on the spot —
        // no later round needed.
        drop(pinned);
        assert_eq!(tags(&server), 0, "last unpin reclaimed immediately");
    }

    #[test]
    fn unpin_under_write_contention_hands_off_reclamation() {
        let mut p = parse_program(SRC).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let edges = chain(&mut p, 4);
        let server = Server::new(&p, Strategy::SemiNaive);
        server.apply(&UpdateRound::new().insert_all(par, &edges)); // epoch 1
        let pinned = server.snapshot(); // pins epoch 1
        // Epoch 2: its tags are kept for the pin.
        server.apply(&UpdateRound::new().retract_all(par, &edges[..1]));
        assert!(tags(&server) > 0);

        // A writer holds the state's write lock while the last unpin
        // happens. `Drop`'s try_write must lose this race — but the
        // horizon is in the pin table, not lost.
        let writer = server.shared.state.write().unwrap();
        drop(pinned);
        {
            let epochs = server.shared.epochs.lock().unwrap();
            assert!(epochs.pins.is_empty(), "unpinned despite the contention");
            assert_eq!(epochs.min_observable(), 2, "horizon handed off via the pin table");
        }

        // The write-lock holder drains on its way out — the exact
        // sequence `Server::apply` runs after publishing.
        {
            let mut state = writer;
            let mut epochs = server.shared.epochs.lock().unwrap();
            epochs.drain(&mut state);
            drop(state);
        }
        assert_eq!(tags(&server), 0, "handed-off horizon was applied");
    }

    /// A row the deletion walk saves keeps its row id and is never
    /// tombstoned: a snapshot pinned before the round reads the same
    /// answers after it, off the base and through the view the pin
    /// holds.
    #[test]
    fn a_pin_taken_before_a_round_that_saves_a_row_reads_the_same_answers() {
        let mut p = parse_program(SRC).unwrap();
        let [par, anc] = ["par", "anc"].map(|n| p.symbols.get_predicate(n).unwrap());
        let [john, b, c, d] = ["john", "b", "c", "d"].map(|n| p.symbols.constant(n));
        let server = Server::new(&p, Strategy::SemiNaive);
        server.apply(
            &UpdateRound::new()
                .insert_all(par, &[vec![john, b], vec![john, c], vec![b, d], vec![c, d]]),
        );
        let goal = p.goal;
        let live = server.query(&goal).sorted();
        assert_eq!(live.len(), 3, "anc(john, Y) for Y in b, c, d");
        let pinned = server.snapshot();
        let (answer, view) = (pinned.answer().sorted(), pinned.query(&goal).sorted());
        let anc_d = crate::derivation::GroundAtom { pred: anc, args: vec![john, d] };
        let (_, body) = server.provenance().justification(&anc_d).expect("derived");
        let (rows, derived) = (server.mem_stats().total_rows, server.stats().tuples_derived);
        let cut = UpdateRound::new().retract(par, body[1].args.clone());
        assert_eq!(server.apply(&cut).retracted, 1);
        assert_eq!(server.stats().tuples_derived, derived, "anc(john, d) saved, not re-derived");
        assert_eq!(server.mem_stats().total_rows, rows, "nothing re-appended");
        assert_eq!(server.query(&goal).sorted(), live);
        assert_eq!(pinned.answer().sorted(), answer);
        assert_eq!(pinned.query(&goal).sorted(), view);
    }

    #[test]
    fn compaction_defers_until_the_last_unpin() {
        let mut p = parse_program(SRC).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let edges = chain(&mut p, 16);
        let server = Server::new(&p, Strategy::SemiNaive);
        server.set_compaction_policy(Some(CompactionPolicy {
            min_dead_rows: 1,
            dead_percent: 1,
        }));
        server.apply(&UpdateRound::new().insert_all(par, &edges));
        let pinned = server.snapshot();
        let pinned_len = pinned.answer().len();

        // Heavy churn far past the policy bounds: compaction would clear
        // the tags and remap the rows the pin relies on, so it queues.
        server.apply(&UpdateRound::new().retract_all(par, &edges[8..]));
        assert_eq!(server.compactions(), 0, "compaction deferred under a pin");
        assert!(server.shared.epochs.lock().unwrap().compact_pending);
        assert_eq!(pinned.answer().len(), pinned_len, "pinned view intact");
        let live = server.answer().len();

        // Last unpin over an idle store: the queued compaction runs.
        drop(pinned);
        assert_eq!(server.compactions(), 1, "queued compaction ran at unpin");
        assert_eq!(tags(&server), 0);
        assert_eq!(server.answer().len(), live, "model unchanged by compaction");

        // The pin machinery still works over the rebuilt store.
        let snap = server.snapshot();
        server.apply(&UpdateRound::new().insert_all(par, &edges[8..10]));
        assert_eq!(snap.answer().len(), live);
        assert_eq!(server.answer().len(), live + 2);
    }

    #[test]
    fn server_restore_resumes_at_the_persisted_epoch() {
        let dir = std::env::temp_dir().join(format!("selprop-srv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("server.snap");

        let mut p = parse_program(SRC).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let edges = chain(&mut p, 8);
        let server = Server::new(&p, Strategy::SemiNaive);
        server.apply(&UpdateRound::new().insert_all(par, &edges)); // epoch 1
        server.apply(&UpdateRound::new().retract_all(par, &edges[4..5])); // epoch 2
        assert_eq!(server.current_epoch(), 2);
        server.save(&path).unwrap();

        let restored = Server::restore(&path).unwrap();
        assert_eq!(restored.current_epoch(), 2, "epoch counter survives restart");
        assert_eq!(
            restored.snapshot().database().sorted_models(),
            server.snapshot().database().sorted_models(),
            "restored fixpoint is the saved fixpoint"
        );
        assert_eq!(tags(&restored), 0, "no reader survives a restart");

        // Rounds keep numbering where the saved process left off, and
        // incremental maintenance picks up without re-evaluation.
        restored.apply(&UpdateRound::new().insert_all(par, &edges[4..5]));
        assert_eq!(restored.current_epoch(), 3);
        server.apply(&UpdateRound::new().insert_all(par, &edges[4..5]));
        assert_eq!(
            restored.snapshot().database().sorted_models(),
            server.snapshot().database().sorted_models(),
            "same round on both sides of the restart, same fixpoint"
        );

        std::fs::remove_dir_all(&dir).ok();
    }

    // ------------------------------------------------------------------
    // The magic-set query cache through the server
    // ------------------------------------------------------------------

    /// A goal whose arity differs from its predicate's relation matches
    /// no fact, on every read path: it used to index past a row (and
    /// poison the lock for every caller after), answer off the wrong
    /// view, or cache a failed template for its binding pattern.
    #[test]
    fn a_goal_of_the_wrong_arity_answers_nothing_and_breaks_nothing() {
        let mut p = parse_program(SRC).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let anc = p.symbols.get_predicate("anc").unwrap();
        let edges = chain(&mut p, 5);
        let server = Server::new(&p, Strategy::SemiNaive);
        server.apply(&UpdateRound::new().insert_all(par, &edges));
        let john = Term::Const(p.symbols.constant("john"));
        let [y, z] = ["Y", "Z"].map(|v| Term::Var(p.symbols.variable(v)));
        let short = Atom::new(anc, vec![john]);
        let long = Atom::new(anc, vec![john, y, z]);
        let bad_edb = Atom::new(par, vec![john]);
        let good = Atom::new(anc, vec![john, y]);
        for goal in [&short, &long, &bad_edb] {
            assert!(server.query(goal).is_empty(), "{goal:?} before any view");
        }
        assert_eq!(server.cache_stats().template_compiles, 0, "no template for a malformed goal");
        assert_eq!(server.query(&good).len(), 5);
        let stats = server.cache_stats();
        assert_eq!((stats.template_compiles, stats.views), (1, 1), "the pattern still gets a view");
        let snap = server.snapshot();
        for goal in [&short, &long, &bad_edb] {
            assert!(server.query(goal).is_empty(), "{goal:?} beside the view");
            assert!(snap.query(goal).is_empty(), "{goal:?} through a snapshot");
        }
        assert_eq!(snap.query(&good).len(), 5);
        assert_eq!(server.query(&good).len(), 5);
        assert_eq!(server.cache_stats().template_compiles, 1);
        let model = snap.idb_database();
        assert!(crate::eval::apply_goal(&short, model.relation(anc).unwrap()).is_empty());
    }

    #[test]
    fn query_serves_bound_goals_through_views() {
        let mut p = parse_program(SRC).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let anc = p.symbols.get_predicate("anc").unwrap();
        let edges = chain(&mut p, 12);
        let server = Server::new(&p, Strategy::SemiNaive);
        server.apply(&UpdateRound::new().insert_all(par, &edges));

        // The program goal, asked ad hoc: the cached view must agree
        // with the store's own full-model answer.
        let goal = p.goal.clone(); // anc(john, Y)
        let full = server.answer().sorted();
        assert_eq!(server.query(&goal).sorted(), full);
        let s1 = server.cache_stats();
        assert_eq!((s1.misses, s1.template_compiles, s1.views), (1, 1, 1));

        // Same query again: pure read-path hit, no new view.
        assert_eq!(server.query(&goal).sorted(), full);
        let s2 = server.cache_stats();
        assert!(s2.hits >= 1);
        assert_eq!(s2.misses, 1);

        // A different constant under the same binding pattern reuses
        // the memoized template (one compile per pattern).
        let c3 = p.symbols.constant("c3");
        let y = p.symbols.variable("Y");
        let goal3 = Atom::new(anc, vec![Term::Const(c3), Term::Var(y)]);
        assert_eq!(server.query(&goal3).len(), edges.len() - 3, "c3's descendants");
        let s3 = server.cache_stats();
        assert_eq!((s3.misses, s3.template_compiles, s3.views), (2, 1, 2));

        // All-free goals route direct — exact, uncached.
        let x = p.symbols.variable("X");
        let free = Atom::new(anc, vec![Term::Var(x), Term::Var(y)]);
        let n = edges.len();
        assert_eq!(server.query(&free).len(), n * (n + 1) / 2);
        assert!(server.cache_stats().direct >= 1);

        // EDB goals route direct too.
        let bound_par = Atom::new(par, vec![Term::Const(c3), Term::Var(y)]);
        assert_eq!(server.query(&bound_par).len(), 1);
        assert_eq!(server.cache_stats().views, 2, "no view for an EDB goal");
    }

    #[test]
    fn cached_views_advance_inside_update_rounds() {
        let mut p = parse_program(SRC).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let edges = chain(&mut p, 10);
        let server = Server::new(&p, Strategy::SemiNaive);
        server.apply(&UpdateRound::new().insert_all(par, &edges[..6]));

        let goal = p.goal.clone();
        assert_eq!(server.query(&goal).len(), 6);

        // Growth, then a cut, each a round of its own: the view is
        // caught up inside `apply`, so these are read-path hits.
        server.apply(&UpdateRound::new().insert_all(par, &edges[6..]));
        let hits_before = server.cache_stats().hits;
        assert_eq!(server.query(&goal).len(), 10);
        server.apply(&UpdateRound::new().retract_all(par, &edges[4..5]));
        assert_eq!(server.query(&goal).len(), 4, "chain cut at edge 4");
        let s = server.cache_stats();
        assert_eq!(s.misses, 1, "the view was built exactly once");
        assert!(s.syncs >= 2, "rounds advanced the live view");
        assert!(s.hits >= hits_before + 2, "post-round queries hit");

        // At every point the view agrees with the full-model filter.
        assert_eq!(server.query(&goal).sorted(), server.answer().sorted());
    }

    #[test]
    fn snapshot_queries_answer_as_of_their_pin() {
        let mut p = parse_program(SRC).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let edges = chain(&mut p, 5);
        let server = Server::new(&p, Strategy::SemiNaive);
        server.apply(&UpdateRound::new().insert_all(par, &edges));

        let goal = p.goal.clone();
        // Pinned before any view exists: queries filter the pinned base.
        let early = server.snapshot();
        assert_eq!(server.query(&goal).len(), 5);
        // Pinned with the view live.
        let pinned = server.snapshot();

        server.apply(&UpdateRound::new().retract_all(par, &edges[..1]));
        assert_eq!(server.query(&goal).len(), 0, "current model: root cut");
        assert_eq!(early.query(&goal).len(), 5, "pre-view pin: base fallback");
        assert_eq!(pinned.query(&goal).len(), 5, "pinned view answer");
        assert_eq!(
            pinned.query(&goal).sorted(),
            pinned.answer().sorted(),
            "pinned view agrees with the pinned base filter"
        );
    }

    #[test]
    fn rule_changes_rebuild_cached_views() {
        let mut p = parse_program(SRC).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let edges = chain(&mut p, 4);
        let server = Server::new(&p, Strategy::SemiNaive);
        server.apply(&UpdateRound::new().insert_all(par, &edges));

        let goal = p.goal.clone();
        assert_eq!(server.query(&goal).len(), 4);

        // Dropping the transitive rule invalidates the view; the next
        // query recompiles against the surviving rules.
        assert_eq!(server.apply(&UpdateRound::new().drop_rule(RuleId(1))).rules_dropped, 1);
        assert_eq!(server.query(&goal).len(), 1, "only the direct parent");

        // Re-adding it (fresh slot) recompiles again.
        let id = server.apply(&UpdateRound::new().add_rule(p.rules[1].clone())).first_rule;
        assert_eq!(id, RuleId(2));
        assert_eq!(server.query(&goal).len(), 4, "closure restored");
        let s = server.cache_stats();
        assert!(s.invalidations >= 2);
        assert_eq!(s.template_compiles, 3, "one compile per rule-set era");
    }

    /// A hot-swapped rule may be written in symbols only the caller's
    /// copy of the table knows. The names a template makes up must land
    /// on none of them — here `W` sits where the server's copy would put
    /// the tag variable.
    #[test]
    fn rule_over_caller_interned_symbols_keeps_queries_exact() {
        let mut p = parse_program(SRC).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let anc = p.symbols.get_predicate("anc").unwrap();
        let edges = chain(&mut p, 3);
        let server = Server::new(&p, Strategy::SemiNaive);
        server.apply(&UpdateRound::new().insert_all(par, &edges));
        let goal = p.goal.clone();
        assert_eq!(server.query(&goal).len(), 3);

        let hop = p.symbols.predicate("hop");
        let [s, t, u, w] = ["S", "T", "U", "W"].map(|n| Term::Var(p.symbols.variable(n)));
        let hops = |v: [Term; 4]| v.windows(2).map(|e| Atom::new(hop, e.to_vec())).collect();
        let id = server
            .apply(
                &UpdateRound::new()
                    .add_rule(Rule::new(Atom::new(anc, vec![s, w]), hops([s, t, u, w]))),
            )
            .first_rule;
        let far = p.symbols.constant("far");
        let rows = [edges[0].clone(), edges[1].clone(), vec![edges[1][1], far]];
        server.apply(&UpdateRound::new().insert_all(hop, &rows));
        assert_eq!(server.query(&goal).len(), 4, "anc(john, far), three hops away");
        server.apply(&UpdateRound::new().retract_all(hop, &rows[1..2]));
        assert_eq!(server.query(&goal).sorted(), server.answer().sorted());
        server.apply(&UpdateRound::new().insert_all(hop, &rows[1..2]));
        assert_eq!(server.query(&goal).sorted(), server.answer().sorted());
        assert_eq!(server.apply(&UpdateRound::new().drop_rule(id)).rules_dropped, 1);
        assert_eq!(server.query(&goal).len(), 3);
    }

    /// The snapshot holds the rules the server was saved with, and the
    /// restored cache reads them from there: `p`, which the restored
    /// server never sees, still lists the rule that was swapped out.
    #[test]
    fn server_saved_after_a_rule_swap_restores_with_a_working_cache() {
        let dir = std::env::temp_dir().join(format!("selprop-srvswap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("server.snap");

        let mut p = parse_program(SRC).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let edges = chain(&mut p, 5);
        let server = Server::new(&p, Strategy::SemiNaive);
        server.apply(&UpdateRound::new().insert_all(par, &edges));
        // Swap the transitive rule for one that stops at grandchildren.
        let anc = p.goal.pred;
        let [x, y, z] = ["X", "Y", "Z"].map(|n| Term::Var(p.symbols.variable(n)));
        let body = vec![Atom::new(par, vec![x, z]), Atom::new(par, vec![z, y])];
        let mut swapped = p.clone();
        swapped.rules[1] = Rule::new(Atom::new(anc, vec![x, y]), body);
        assert_eq!(server.apply(&UpdateRound::new().drop_rule(RuleId(1))).rules_dropped, 1);
        server.apply(&UpdateRound::new().add_rule(swapped.rules[1].clone()));
        server.save(&path).unwrap();

        let restored = Server::restore(&path).unwrap();
        let mut db = Database::new();
        for e in &edges {
            db.insert(par, e.clone());
        }
        let (scratch, _) = crate::eval::answer(&swapped, &db, Strategy::SemiNaive);
        assert_eq!(scratch.len(), 2, "child and grandchild");
        assert_eq!(restored.query(&p.goal).sorted(), scratch.sorted());
        let s = restored.cache_stats();
        assert_eq!((s.misses, s.direct), (1, 0), "a view, built by the first query");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Starting the cache over reads the store's rules at once. `via` is
    /// IDB only in the store — hot-swapped in before the save, absent
    /// from `p.rules` — and the first bound query on it, with no write
    /// round in between to make the cache look, still gets a view.
    #[test]
    fn a_rearmed_cache_knows_the_stores_idb_predicates_before_the_first_round() {
        let dir = std::env::temp_dir().join(format!("selprop-srvidb-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("server.snap");

        let mut p = parse_program(SRC).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let edges = chain(&mut p, 5);
        let via = p.symbols.predicate("via");
        let [x, y, z] = ["X", "Y", "Z"].map(|n| Term::Var(p.symbols.variable(n)));
        let two_hops = vec![Atom::new(par, vec![x, z]), Atom::new(par, vec![z, y])];
        let server = Server::new(&p, Strategy::SemiNaive);
        server.apply(&UpdateRound::new().insert_all(par, &edges));
        server.apply(&UpdateRound::new().add_rule(Rule::new(Atom::new(via, vec![x, y]), two_hops)));
        server.save(&path).unwrap();

        let restored = Server::restore(&path).unwrap();
        assert!(!p.idb_predicates().contains(&via), "the program given does not list it");
        restored.enable_query_cache(&p);
        let goal = Atom::new(via, vec![Term::Const(edges[0][0]), y]);
        assert_eq!(restored.query(&goal).sorted(), vec![vec![edges[1][1]]], "john's grandchild");
        let s = restored.cache_stats();
        assert_eq!((s.misses, s.direct, s.views), (1, 0, 1), "a view, not a scan of the model");
        assert_eq!(restored.query(&goal).len(), 1);
        assert_eq!(restored.cache_stats().hits, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A snapshot persists rules by id and no name, and a template needs
    /// none: the first bound query after a restore — no call in between —
    /// builds a view, and the view stays live through churn.
    #[test]
    fn a_restored_server_serves_views_from_its_first_query() {
        let dir = std::env::temp_dir().join(format!("selprop-srvqc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("server.snap");

        let mut p = parse_program(SRC).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let edges = chain(&mut p, 6);
        let server = Server::new(&p, Strategy::SemiNaive);
        server.apply(&UpdateRound::new().insert_all(par, &edges));
        let goal = p.goal.clone();
        assert_eq!(server.query(&goal).len(), 6, "views live before the save");
        server.save(&path).unwrap();

        let restored = Server::restore(&path).unwrap();
        assert_eq!(restored.query(&goal).sorted(), restored.answer().sorted());
        let s = restored.cache_stats();
        assert_eq!((s.misses, s.direct), (1, 0), "a view, built by the first query");
        assert_eq!(restored.query(&goal).len(), 6);
        assert_eq!(restored.cache_stats().hits, 1);
        restored.apply(&UpdateRound::new().retract_all(par, &edges[2..3]));
        assert_eq!(restored.query(&goal).len(), 2, "chain cut at edge 2");
        assert_eq!(restored.query(&goal).sorted(), restored.answer().sorted());
        assert_eq!(restored.cache_stats().misses, 1, "maintained, never rebuilt");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_malformed_round_costs_its_caller_a_panic_and_nobody_else_anything() {
        let mut p = parse_program(SRC).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let anc = p.symbols.get_predicate("anc").unwrap();
        let edges = chain(&mut p, 6);
        let server = Server::new(&p, Strategy::SemiNaive);
        server.apply(&UpdateRound::new().insert_all(par, &edges));
        let goal = p.goal.clone();
        assert_eq!(server.query(&goal).len(), 6, "view built up front");

        let [x, y] = [0, 1].map(|v| Term::Var(crate::ast::Var(v)));
        let rule = |head, body| UpdateRound::new().add_rule(Rule::new(head, vec![body]));
        let bad_rounds = [
            // Phases 1 and 3 used to run before phase 4 tripped.
            UpdateRound::new()
                .retract(par, edges[2].clone())
                .drop_rule(RuleId(1))
                .insert(par, vec![edges[0][0]]),
            rule(Atom::new(par, vec![x, y]), Atom::new(anc, vec![x, y])),
            rule(Atom::new(anc, vec![x, y]), Atom::new(par, vec![x, y, y])),
        ];
        let reader = server.clone();
        let seen = || {
            let stats = reader.cache_stats();
            (
                reader.current_epoch(),
                reader.answer(),
                reader.snapshot().database().sorted_models(),
                reader.query(&goal),
                (stats.views, stats.misses, stats.invalidations),
            )
        };
        for (i, round) in bad_rounds.into_iter().enumerate() {
            let before = seen();
            let writer = server.clone();
            let outcome = std::thread::spawn(move || writer.apply(&round)).join();
            assert!(outcome.is_err(), "round {i} must panic");
            assert_eq!(seen(), before, "round {i}: same epoch, model and cached view");
        }

        // The server is open for business: the next well-formed round
        // lands, publishes, and reaches the cached view.
        assert_eq!(reader.apply(&UpdateRound::new().retract_all(par, &edges[2..3])).retracted, 1);
        assert_eq!(server.current_epoch(), 2, "the initial insert, then this round");
        assert_eq!(server.query(&goal).len(), 2, "chain cut at edge 2");
        assert_eq!(server.query(&goal), server.answer());
    }

    /// The view cache has 2³² − 1 tags. Spending the last used to panic
    /// under the write lock and poison it for every later client; now a
    /// goal that needs a new view once none is left is answered
    /// directly, and the views already built keep serving.
    #[test]
    fn when_view_tags_run_out_new_goals_are_answered_directly() {
        let mut p = parse_program(SRC).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let anc = p.symbols.get_predicate("anc").unwrap();
        let y = Term::Var(p.symbols.variable("Y"));
        let edges = chain(&mut p, 6);
        let mut db = Database::new();
        for e in &edges {
            db.insert(par, e.clone());
        }
        let server = Server::from_database(&p, &db, Strategy::SemiNaive);
        server.shared.write().cache.start_tags_at(u32::MAX - 1);
        let goal = |i: usize| Atom::new(anc, vec![Term::Const(edges[i][0]), y]);
        let oracle = |goal: &Atom| {
            let q = Program { goal: goal.clone(), ..p.clone() };
            crate::eval::answer(&q, &db, Strategy::SemiNaive).0.sorted()
        };

        // The last tag builds a view; the next new goal finds none left.
        assert_eq!(server.query(&goal(1)).sorted(), oracle(&goal(1)));
        let built = server.cache_stats();
        assert_eq!((built.views, built.misses), (1, 1));
        assert_eq!(server.query(&goal(2)).sorted(), oracle(&goal(2)));
        let spent = server.cache_stats();
        assert_eq!((spent.views, spent.misses, spent.direct), (1, 1, built.direct + 1));
        // The old goal is still answered by its view.
        assert_eq!(server.query(&goal(1)).sorted(), oracle(&goal(1)));
        assert_eq!((server.cache_stats().misses, server.cache_stats().hits), (1, spent.hits + 1));

        // Another client is served afterwards: no lock was poisoned.
        let g3 = goal(3);
        let answer = std::thread::spawn(move || server.query(&g3)).join().expect("served");
        assert_eq!(answer.sorted(), oracle(&goal(3)));
    }

    #[test]
    fn concurrent_bound_queries_under_churn() {
        let mut p = parse_program(SRC).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let edges = chain(&mut p, 16);
        let server = Server::new(&p, Strategy::SemiNaive);
        server.apply(&UpdateRound::new().insert_all(par, &edges[..1]));
        let goal = p.goal.clone();
        assert_eq!(server.query(&goal).len(), 1, "view built up front");

        let readers: Vec<_> = (0..2)
            .map(|_| {
                let server = server.clone();
                let goal = goal.clone();
                std::thread::spawn(move || {
                    let mut last = 0;
                    while last < 8 {
                        // Each query sees some whole round prefix; the
                        // writer only grows the chain, so lengths are
                        // monotone in real time.
                        let n = server.query(&goal).len();
                        assert!(n >= last, "query answers move forward only");
                        last = n;
                    }
                })
            })
            .collect();
        for e in &edges[1..8] {
            server.apply(&UpdateRound::new().insert(par, e.clone()));
        }
        for r in readers {
            r.join().expect("reader thread");
        }
        // All that concurrency built exactly one view.
        assert_eq!(server.cache_stats().misses, 1);
    }
}
