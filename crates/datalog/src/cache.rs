//! The magic-set query cache: selection propagation as a service.
//!
//! The paper's transformation (see [`crate::magic`]) makes a *bound*
//! query — `anc(john, Y)?` — cheap by deriving only goal-relevant
//! facts, but as a batch rewrite it pays a full evaluation per call.
//! This module keeps the transformed programs **live**: a
//! [`QueryCache`] holds, per `(predicate, binding pattern)`, one
//! **template store** — a [`Materialization`] of the constant-free
//! magic template that reads the base store's EDB rows in place: a sync
//! borrows the base and neither copies nor moves them (the mechanics
//! are in `materialize/template.rs`) — and a cached *view* of one
//! concrete bound query is a **tag** in it.
//!
//! # Tags
//!
//! When a template is compiled, one extra variable is prepended to
//! every atom over a predicate the template owns (seed, magic,
//! adorned), the same variable throughout a rule:
//!
//! ```text
//! m_anc_bf(T, B)      :- anc_bf_seed(T, B).
//! anc_bf(T, X, Y)     :- m_anc_bf(T, X), par(X, Y).
//! anc_bf(T, X, Y)     :- m_anc_bf(T, X), anc_bf(T, X, Z), par(Z, Y).
//! ```
//!
//! The program is `k` disjoint copies of the magic program, one per
//! seed row `(t, c̄)`, evaluated in one store by one set of plans and
//! indexes. Building a view for `anc(john, Y)?` is an EDB insert —
//! the row `(t, john)` with a fresh tag `t` — followed by the engine's
//! ordinary update fixpoint; answering it reads the postings of
//! `(t, john)` in the goal relation's index over the tag and the bound
//! positions, so other views' rows are never touched; dropping it
//! over-deletes from the seed row, which reaches every row with tag
//! `t` (each is recorded through a body row with the same tag, back to
//! the seed) and needs no rescue pass, because no rule derives a row
//! with tag `t` from rows without it. Tags are never reused: a goal
//! queried again after its view was dropped gets a new one.
//!
//! What this buys is that **a round's cost follows the views it
//! touches, not the views that exist.** Magic and adorned predicates
//! are just more IDB relations, so the engine's delta-first plans and
//! DRed propagate base churn into the template store unchanged — once
//! per template, not once per view. An inserted base row `par(z, y)`
//! leads the plan of its atom and probes `anc_bf[Z]` once;
//! the postings it finds are exactly the (tag, row) pairs it joins
//! with, whether 1 or 128 views are live. A retracted base row seeds
//! the over-deletion through its reverse-dependency chain (the store's
//! reverse index records external body rows too, sparsely), so a
//! retract reads only the rows recorded through a dying row — each one
//! checked for another derivation, then saved in place or killed — and
//! no others.
//!
//! # Routing
//!
//! An all-free goal, a goal on an EDB (or untracked) predicate, and a
//! goal whose bound positions are repeated variables (`p(X, X)`) go
//! **direct** — filtered off the base store's full model, which the
//! base maintains anyway. Everything else gets a view, while view tags
//! last: a cache hands out 2³² − 1 of them in its lifetime, and a goal
//! that would need a new view after the last goes direct too. Answers
//! are therefore always exact; the cache only changes *cost*.
//!
//! Whether a predicate is IDB, and at what arity, is read off the base
//! store on every route — a scan of its IDB relations, nothing hashed
//! or allocated — so the cache keeps no list of its own: a fresh cache,
//! a restored store and a hot-swapped rule route alike from the first
//! lookup on.
//!
//! # Coherence
//!
//! Every [`Materialization::apply`] bumps the base's update-round
//! `version`. A template store answers from cache only while it is at
//! the base's version; otherwise the next query of one of its views (or
//! the serving layer's write round) runs one catch-up sync for the
//! whole template, and the store decides what that sync does
//! (`materialize/template.rs`). One round behind — every sync of a
//! [`crate::server::Server`] — it seeds its deletion walk from the rows
//! that round retracted; behind insert-only rounds it just catches up.
//! A store that missed a retracting round, or is behind a compaction of
//! the base (whose row ids its justifications hold), notices at that
//! sync: it empties itself and starts over, and only its template's
//! views go — the next query of each builds it again. Until then a view
//! answers from its own rows, which a base compaction does not move
//! (under a server, the round after the compaction syncs). A restored
//! base starts its version at 0: a version that went backwards drops
//! every template (the compiled templates survive a compaction or a
//! missed round — they hold no row ids).
//!
//! The cache keeps no copy of the rules, and no names. A template is
//! compiled from the rules the base store holds at that moment, by id —
//! the paper's template is a function of the rules and the binding
//! pattern alone — and the predicates and variables the rewrite adds
//! take ids past every one the store uses, from a name table of the
//! template's own (`materialize/template.rs`). So a store restored from
//! a snapshot, which persists its rules by id and no name, gets views
//! like any other. Every entry point that may write compares the
//! store's (rule slots, active rules) pair with the one it last saw:
//! slots are never reused and a dropped rule never returns, so the pair
//! moves with every rule change, whoever made it. A moved pair drops
//! the templates — the next bound query recompiles. The program a cache
//! is created with is not read.
//!
//! # Answers
//!
//! A view's rows are engine rows; what a client gets is a [`Relation`],
//! a hash set of boxed tuples that costs on the order of 100 ns a
//! tuple to build and free (EXPERIMENTS.md, "Memoised answers"). A hit
//! computes nothing, so it should build nothing either: each view
//! **memoises** the last answer read off its rows, and since a
//! `Relation` shares its set ([`crate::db`]), handing the memo out is a
//! reference count. The answer of a goal that gets a view depends on
//! the view alone — its variables are distinct, or it would have gone
//! direct — so the memo is not keyed by goal.
//!
//! A memo carries the epochs `[from, to)` over which it *is* the
//! view's answer: `from` is the epoch of the view's last change when
//! the memo was read, and `to` the epoch of its next one. A memo is
//! **open while its interval is** (`to` is `u64::MAX`), and a view
//! holds its memos in one list, the open one (if any) first, so a hit
//! reads one slot. A sync appends rows to the template's goal relation
//! and kills rows of it; each such row starts with the columns of a
//! seed row, so reading those columns off the rows the sync touched —
//! the appended range, and the deletion pass's casualties, rescued ones
//! included — names the views whose answers may have moved, in O(Δ) and
//! without looking at any other view. Of each, the sync closes the open
//! memo at the round's epoch and records that epoch as the view's last
//! change, for pinned readers — one store each, the first through
//! `Mutex::get_mut`, under the write lock the sync holds anyway. A
//! standalone cache has no pins: its syncs write the store's epoch (0
//! unless a server once ran the store), which closes the memo all the
//! same.
//!
//! One rule says which memos a view keeps: **a closed memo stays while
//! a snapshot is pinned at an epoch in its interval**. The epochs
//! snapshots are pinned at reach the cache from the server's
//! deferred-maintenance drain, which copies them in and looks at no
//! view. Intervals of one view never overlap, so a view keeps at most
//! one closed memo per pinned epoch.
//!
//! A snapshot pinned at or after a view's last change reads the live
//! answer, memo and all. One pinned before it takes whichever of the
//! view's memos covers its epoch: the last one closed, if no reader has
//! released it yet, or an earlier one the rule kept. Only when none
//! does is the answer read off the rows at the pinned frontier; it joins
//! the list as a memo of that epoch alone, so a pin costs one build per
//! view at most, never one per read.
//!
//! Who does the work: the **next reader** of a changed view rebuilds
//! its answer — the cost every hit used to pay — puts it first, and
//! releases every closed memo the rule does not keep, the one it
//! displaced included; all under the lock it already holds for reading
//! (the memos have their own small mutex, so readers of one stale view
//! queue behind a single build) and the frees after letting go of the
//! memos' lock. A hit on a view with closed memos releases them the
//! same way. The **writer does neither**: dropping a memo where it goes
//! stale would free every answer a round changes, boxed tuple by boxed
//! tuple, with every reader locked out — tried, it made `tc_serve`'s
//! insert rounds 30 % and its retract rounds 64 % slower
//! (EXPERIMENTS.md); and releasing closed memos by walking the views in
//! the drain, a lock each, made `batch_pipeline`'s rounds 27 % and 50 %
//! slower. So a closed memo stays where it is, counted in
//! [`QueryCache::view_words`], until a reader releases it or its view
//! goes (eviction, a rule change, a base compaction, a restore).
//! [`QueryCache::answer_builds`] counts the answers materialised from
//! rows; hits that it does not count were handed out.
//!
//! # Dead rows
//!
//! Dropped views and retracted derivations leave tombstoned rows
//! behind. A template store a quarter of whose rows are dead (and at
//! least 64 of them) is compacted — its own relations only; the base
//! rows its justifications address do not move. [`QueryCache::query`]
//! does this at its end. A server, where a pinned
//! [`crate::server::Snapshot`] reads views by row frontier, runs the
//! query without that step and compacts in its deferred-maintenance
//! drain, after the last unpin, exactly like the base store.
//!
//! Only the syncs a server runs inside its rounds tag the rows they kill
//! with the round's epoch, as the base's are. A query's sync kills
//! nothing under a server, which syncs every template each round, and a
//! pinned reader finds an evicted view gone and reads the base instead.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::ast::{Atom, Const, Pred, Program, Rule, Term};
use crate::db::Relation;
use crate::eval::EvalStats;
use crate::hash::FxHashMap;
use crate::magic::{magic_template, MagicTemplate};
use crate::materialize::Materialization;

/// Eviction configuration for [`QueryCache`].
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Maximum number of live views; least-recently-used views beyond
    /// this are dropped.
    pub max_views: usize,
    /// Maximum total live rows across all views (each view's own
    /// derived + magic rows; shared base rows don't count). The
    /// most-recently-used view always survives, even alone over budget.
    pub max_rows: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            max_views: 64,
            max_rows: 1 << 22,
        }
    }
}

/// Observability counters for [`QueryCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from an up-to-date view with no work.
    pub hits: u64,
    /// Queries that built a new view.
    pub misses: u64,
    /// Catch-up syncs run, one per stale template: by a query that
    /// found its view's template behind the base, or by the serving
    /// layer's write round. One that starts its store over, or builds a
    /// view (a miss), is not counted.
    pub syncs: u64,
    /// Queries routed to base-store filtering (all-free patterns, EDB
    /// predicates, repeated-variable bindings, and goals that would need
    /// a new view once every view tag is spent).
    pub direct: u64,
    /// Views dropped by LRU/size pressure.
    pub evictions: u64,
    /// Times live views were cleared: all of them, by a rule change or a
    /// restored base, or one template's, whose store started over at a
    /// sync after a base compaction or a missed retracting round.
    pub invalidations: u64,
    /// Magic templates compiled — one per (predicate, binding pattern),
    /// however many constant vectors instantiate it (the memoization
    /// guarantee).
    pub template_compiles: u64,
    /// Live views right now.
    pub views: usize,
}

/// A template key: predicate and binding pattern (bit `i` set =
/// argument `i` bound).
type TemplateKey = (Pred, u64);

/// The most arguments a goal that gets a view may have: a binding
/// pattern is a `u64`, and [`QueryCache::route`] collects the bound
/// constants into a buffer of this many.
const MAX_ARITY: usize = 64;

/// What a [`Snapshot`](crate::server::Snapshot) needs to keep answering
/// from the views that were live when it was pinned: the tag counter at
/// pin time — tags are handed out in increasing order and never reused,
/// so a view found under its key *now* was live *then* exactly if its
/// tag is below the mark — and one row frontier per template store.
pub(crate) struct ViewPins {
    before: u32,
    frontiers: FxHashMap<TemplateKey, usize>,
}

/// A compiled, tagged magic template for one (predicate, binding
/// pattern) and the store that holds the rows of all of its views.
struct Template {
    /// The template's seed predicate: one row per view, `(tag, bound
    /// constants)`.
    seed_pred: Pred,
    store: Materialization,
    /// The store's index over the goal relation that views are read
    /// through: on the tag column, then the goal's bound positions —
    /// the columns of a seed row, in order.
    goal_idx: usize,
    /// The live views, by their bound constants in positional order —
    /// a seed row without its tag, and the key columns (tag dropped)
    /// under which `goal_idx` files a view's rows.
    views: FxHashMap<Vec<Const>, CachedView>,
}

impl Template {
    /// Builds the (empty) store of the tagged template `tpl` for binding
    /// pattern `bound` and links it to `base`; `None` if the template
    /// does not fit the base store. `untagged` are the template's rules
    /// as [`magic_template`] wrote them, which the planner orders
    /// bodies by.
    fn new(
        tpl: &MagicTemplate,
        untagged: &[Rule],
        bound: u64,
        base: &mut Materialization,
    ) -> Option<Self> {
        let mut store = Materialization::new_view(&tpl.program, untagged, base.order_mode());
        let goal_mask = (0..64).filter(|i| bound >> i & 1 == 1).map(|i| i + 1);
        let goal_idx = store.ensure_index(tpl.goal_pred, std::iter::once(0).chain(goal_mask).collect());
        store.link_external(base).ok()?;
        Some(Self {
            seed_pred: tpl.seed_pred,
            store,
            goal_idx,
            views: FxHashMap::default(),
        })
    }

    /// Brings the store to the base's current fixpoint in one sync,
    /// storing `seed` — a new view's seed row — on the way, and closes
    /// the open memo of each view whose answer the sync changed
    /// (module docs, "Answers"): it reads the key of each goal-relation
    /// row it appended or killed and touches nothing else of any view.
    /// The rows it kills carry `epoch`, that of the server round it runs in.
    /// Returns `false` if the store started over instead: its views go
    /// with its rows, counted in `invalidations` if there were any.
    fn catch_up(
        &mut self,
        base: &Materialization,
        seed: Option<&[Const]>,
        epoch: Option<u64>,
        invalidations: &mut u64,
    ) -> bool {
        let seed = seed.map(|row| (self.seed_pred, row));
        let rows_before = self.store.index_frontier(self.goal_idx);
        let Some(killed) = self.store.sync_external(base, seed, epoch) else {
            if !self.views.is_empty() {
                self.views.clear();
                *invalidations += 1;
            }
            return false;
        };
        let (views, published) = (&mut self.views, base.epoch());
        self.store.for_each_touched_key(self.goal_idx, rows_before, &killed, |key| {
            // A view's answer is the rows filed under its whole seed
            // row. Its tag also marks rows under other constants (a
            // right-recursive template derives `anc(c2, Y)` for
            // `anc(c0, Y)`'s view, under c0's tag), which are in no
            // answer; and a new view's rows find nothing: it is filed
            // after the sync that builds it, with no answer to go stale.
            if let Some(v) = views.get_mut(&key[1..]).filter(|v| v.seed == key) {
                // An open memo answers up to this epoch: one store, no
                // lock (the sync holds the view exclusively).
                let memos = v.memos.get_mut().unwrap_or_else(PoisonError::into_inner);
                if let Some(m) = memos.first_mut().filter(|m| m.to == u64::MAX) {
                    m.to = published;
                }
                v.changed_epoch = published;
            }
        });
        true
    }
}

/// One live view: a tag in its template's store.
struct CachedView {
    /// The view's seed row: its tag, then the bound constants — also
    /// the key its answers are read under. A rebuilt view under the
    /// same key gets a fresh tag.
    seed: Vec<Const>,
    /// LRU stamp (atomic so read-path hits can touch it).
    last_used: AtomicU64,
    /// `base.epoch()` at the last sync that appended or killed a
    /// goal-relation row of this view ([`Template::catch_up`]; at the
    /// view's build before the first): a snapshot pinned at or after it
    /// reads what a live query reads, and a memo read now answers from
    /// this epoch on.
    changed_epoch: u64,
    /// The answers materialised from the view's rows, their intervals
    /// disjoint, the open one (if any) first: added and released by
    /// readers, under the cache's read lock or its write lock alike. A
    /// sync writes one thing here, the `to` of the open memo, through
    /// `Mutex::get_mut`.
    memos: Mutex<Vec<Memo>>,
}

/// An answer of one view and the epochs `[from, to)` over which it *is*
/// the view's answer (module docs, "Answers").
struct Memo {
    /// The view's `changed_epoch` when the answer was read (the pinned
    /// epoch, for one read at a pinned frontier).
    from: u64,
    /// The epoch of the view's first change after the read, written by
    /// that sync; `u64::MAX` until then, which is what makes the memo
    /// open.
    to: u64,
    answer: Relation,
}

impl Memo {
    fn covers(&self, epoch: u64) -> bool {
        self.from <= epoch && epoch < self.to
    }

    /// Words the answer holds: per tuple its constants, the `Vec`
    /// header and the set's slot.
    fn words(&self) -> usize {
        self.answer.len() * (self.answer.arity() + 4)
    }
}

impl CachedView {
    /// Marks the view most recently used, on the cache's `clock`.
    fn touch(&self, clock: &AtomicU64) {
        self.last_used.store(clock.fetch_add(1, Ordering::Relaxed) + 1, Ordering::Relaxed);
    }

    fn lock_memos(&self) -> MutexGuard<'_, Vec<Memo>> {
        // Whoever panicked holding it left whole memos behind: each is
        // moved in or out in one piece.
        self.memos.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Words the memoised answers hold, open and closed.
    fn memo_words(&self) -> usize {
        self.lock_memos().iter().map(Memo::words).sum()
    }
}

/// Prepends the tag variable to every atom over a predicate the
/// template owns — its IDB predicates and the seed — so one store can
/// hold any number of instantiations side by side (see the module
/// docs). Every rule of a magic template has such an atom in its body
/// (the guard, or the seed), so the tagged rules stay safe.
fn tag_template(tpl: &mut MagicTemplate) {
    let p = &mut tpl.program;
    let mut own = p.idb_predicates();
    own.push(tpl.seed_pred);
    let tag = Term::Var(p.symbols.fresh_variable("MT"));
    let atoms = p
        .rules
        .iter_mut()
        .flat_map(|r| std::iter::once(&mut r.head).chain(&mut r.body))
        .chain(std::iter::once(&mut p.goal));
    for atom in atoms {
        if own.contains(&atom.pred) {
            atom.args.insert(0, tag);
        }
    }
}

/// An incrementally-maintained magic-set query cache over one base
/// [`Materialization`]. See the module docs for semantics; see
/// [`crate::server::Server::query`] for the concurrent serving wrapper.
///
/// A cache is bound to the base store it first queried: using it
/// against a different store is a logic error (detected only when the
/// stores' shapes diverge). `QueryCache::default()` is
/// [`QueryCache::disabled`].
#[derive(Default)]
pub struct QueryCache {
    /// The base's (rule slots, active rules) at the last validation;
    /// `(0, 0)` before the first.
    seen_rules: (usize, usize),
    /// One template per (predicate, binding pattern), holding its live
    /// views; `None` caches "this pattern has no usable template" (e.g.
    /// transform failure).
    templates: FxHashMap<TemplateKey, Option<Template>>,
    config: CacheConfig,
    /// The epochs snapshots were pinned at, ascending, when the serving
    /// layer's drain last published them (empty in a standalone cache):
    /// a displaced memo is kept while one of them lies in its interval.
    pinned_epochs: Vec<u64>,
    seen_version: u64,
    /// The next view's tag (cache-wide, so that tags order views by
    /// age); `u32::MAX` once every tag is spent.
    next_tag: u32,
    clock: AtomicU64,
    hits: AtomicU64,
    direct: AtomicU64,
    answer_builds: AtomicU64,
    misses: u64,
    syncs: u64,
    evictions: u64,
    invalidations: u64,
    template_compiles: u64,
}

impl QueryCache {
    /// A cache with default eviction limits. `program` is not read:
    /// rules and IDB predicates are read off the store (module docs,
    /// "Routing" and "Coherence").
    pub fn new(program: &Program) -> Self {
        Self::with_config(program, CacheConfig::default())
    }

    /// A cache with explicit eviction limits. `program` is not read.
    pub fn with_config(_program: &Program, config: CacheConfig) -> Self {
        Self { config, ..Self::default() }
    }

    /// An empty cache with default eviction limits, as
    /// [`QueryCache::new`] makes for any program. The name outlived the
    /// state it named — a cache that never cached, for a store whose
    /// names were not known — because callers still use it as a
    /// placeholder; templates need no names and routing no program.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Current counters (see [`CacheStats`]).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses,
            syncs: self.syncs,
            direct: self.direct.load(Ordering::Relaxed),
            evictions: self.evictions,
            invalidations: self.invalidations,
            template_compiles: self.template_compiles,
            views: self.views().count(),
        }
    }

    /// Answers materialised from a view's rows so far, by a query or a
    /// pinned read: what the memo spares (module docs, "Answers") is
    /// the hits this does not count. Not a [`CacheStats`] field: it
    /// moves with every question asked, whoever asks it.
    pub fn answer_builds(&self) -> u64 {
        self.answer_builds.load(Ordering::Relaxed)
    }

    /// Replaces the eviction limits (enforced from the next query on).
    pub fn set_config(&mut self, config: CacheConfig) {
        self.config = config;
    }

    fn stores(&self) -> impl Iterator<Item = &Materialization> {
        self.templates.values().flatten().map(|t| &t.store)
    }

    fn views(&self) -> impl Iterator<Item = &CachedView> {
        self.templates.values().flatten().flat_map(|t| t.views.values())
    }

    /// Total live rows across all views — the resident footprint the
    /// `max_rows` limit bounds. (A template store reads its base's rows
    /// where the base keeps them, so every row it stores is its own;
    /// dead rows are bounded separately, by compaction.)
    pub fn view_rows(&self) -> usize {
        self.stores().map(|s| s.row_counts().0).sum()
    }

    /// Total words held by the template stores (tuples, indexes,
    /// justifications, reverse index) and by the views' memoised
    /// answers, closed ones included until a reader finds that no pinned
    /// snapshot can ask for them — at most one per view and pinned
    /// epoch, and one more per view a round changed since its last
    /// read; base rows are shared, not copied, so this is the cache's
    /// real resident cost.
    pub fn view_words(&self) -> usize {
        let stores: usize = self.stores().map(|s| s.mem_stats().total_words()).sum();
        stores + self.views().map(CachedView::memo_words).sum::<usize>()
    }

    /// The engine's work counters summed over the live template stores:
    /// what building and maintaining the views has cost. The difference
    /// between two readings is the work in between (a rule change drops
    /// the stores, and their counts with them).
    pub fn eval_stats(&self) -> EvalStats {
        self.stores().fold(EvalStats::default(), |mut sum, s| {
            let st = s.stats();
            sum.iterations += st.iterations;
            sum.rule_firings += st.rule_firings;
            sum.tuples_derived += st.tuples_derived;
            sum.join_probes += st.join_probes;
            sum
        })
    }

    /// View rows the deletion passes have read
    /// ([`Materialization::dred_reads`]), summed over the live template
    /// stores.
    pub fn retract_reads(&self) -> u64 {
        self.stores().map(Materialization::dred_reads).sum()
    }

    /// Answers `goal` against `base`, through a view when the goal has
    /// usable bindings (building the view or catching its template up
    /// as needed), directly off the base model otherwise; then compacts
    /// the template stores the query left dead-heavy (module docs, "Dead
    /// rows").
    pub fn query(&mut self, base: &mut Materialization, goal: &Atom) -> Relation {
        let answer = self.serve(base, goal);
        self.compact();
        answer
    }

    /// [`QueryCache::query`] without the compaction: the server's slow
    /// path, which compacts in its drain once no snapshot is pinned.
    pub(crate) fn serve(&mut self, base: &mut Materialization, goal: &Atom) -> Relation {
        self.validate(base);
        let mut buf = [Const(0); MAX_ARITY];
        if let Some((tkey, consts)) = Self::route(base, goal, &mut buf) {
            if self.ensure_view(base, goal.arity(), tkey, consts).is_some() {
                // Answer before evicting: under `max_views: 0` even the
                // view just built is dropped again.
                let (t, v) = self.view(tkey, consts).expect("just ensured");
                let answer = self.answer(t, v, goal);
                self.evict();
                return answer;
            }
        }
        self.direct.fetch_add(1, Ordering::Relaxed);
        base.answer_goal(goal)
    }

    /// The read-only fast path: answers without touching the base — a
    /// direct route, or a view whose template is already synced to the
    /// base's current version, whose answer is its memo unless a round
    /// changed the view since (module docs, "Answers"). Returns `None`
    /// when the slow path ([`QueryCache::query`], which may build or
    /// sync) is needed.
    pub fn lookup(&self, base: &Materialization, goal: &Atom) -> Option<Relation> {
        let mut buf = [Const(0); MAX_ARITY];
        let Some((tkey, consts)) = Self::route(base, goal, &mut buf) else {
            self.direct.fetch_add(1, Ordering::Relaxed);
            return Some(base.answer_goal(goal));
        };
        let (t, v) = self.view(tkey, consts)?;
        // A version that went backwards means a different store (e.g.
        // restored); hand off to the slow path's validate.
        if base.version() < self.seen_version || !t.store.at_base_version(base) {
            return None;
        }
        v.touch(&self.clock);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(self.answer(t, v, goal))
    }

    /// The current answer of `view`, one of `t`'s: its open memo if no
    /// sync has changed the view since that was read, else read off the
    /// rows and put first as the open memo. Every goal routed to a view
    /// has the same answer — its variables are distinct, so selection
    /// and projection are fixed by the binding pattern — which is why
    /// the memo is not keyed by goal. Concurrent readers of one stale view
    /// queue on its memos: one builds, the rest clone. Closed memos no
    /// pin can ask for any more are released on the way.
    fn answer(&self, t: &Template, view: &CachedView, goal: &Atom) -> Relation {
        let mut memos = view.lock_memos();
        let answer = match memos.first().filter(|m| m.to == u64::MAX) {
            Some(open) if memos.len() == 1 => return open.answer.clone(),
            Some(open) => open.answer.clone(),
            None => {
                let answer = t.store.answer_tag(t.goal_idx, &view.seed, goal, None);
                self.answer_builds.fetch_add(1, Ordering::Relaxed);
                let open = Memo {
                    from: view.changed_epoch,
                    to: u64::MAX,
                    answer: answer.clone(),
                };
                // The open memo goes first and the one it displaces
                // last: closed memos keep the order they joined in, so
                // an old pin finds its memo near the front.
                memos.push(open);
                let last = memos.len() - 1;
                memos.swap(0, last);
                answer
            }
        };
        let released = self.release(&mut memos);
        // Freeing an old answer is tuple-by-tuple work; let the next
        // reader in first.
        drop(memos);
        drop(released);
        answer
    }

    /// Takes the closed memos in whose interval no snapshot is pinned
    /// out of `memos`, for the caller to drop once it has let go of the
    /// lock: the one rule for which answers a view keeps.
    fn release(&self, memos: &mut Vec<Memo>) -> Vec<Memo> {
        let pinned_in = |m: &Memo| {
            let i = self.pinned_epochs.partition_point(|&e| e < m.from);
            self.pinned_epochs.get(i).is_some_and(|&e| e < m.to)
        };
        memos.extract_if(.., |m| m.to != u64::MAX && !pinned_in(m)).collect()
    }

    /// Catches every template store up with the base — the serving
    /// layer calls this inside each write round (after the base reached
    /// its new fixpoint, before the round's epoch is published), so a
    /// pinned epoch always sees base facts and cached answers from the
    /// same fixpoint. One sync per template, whatever the number of
    /// live views. The rows the syncs kill carry the round's `epoch`.
    pub(crate) fn sync_all(&mut self, base: &Materialization, epoch: u64) {
        self.validate(base);
        for t in self.templates.values_mut().flatten() {
            if !t.store.at_base_version(base)
                && t.catch_up(base, None, Some(epoch), &mut self.invalidations)
            {
                self.syncs += 1;
            }
        }
    }

    /// Forwards epoch reclamation to every template store, and takes
    /// note of the epochs snapshots are pinned at, ascending (the
    /// serving layer's drain). Nothing here looks at a view: readers
    /// release the memos no pin can ask for any more, on their own time.
    pub(crate) fn reclaim_epochs(&mut self, min_epoch: u64, pinned: impl Iterator<Item = u64>) {
        for t in self.templates.values_mut().flatten() {
            t.store.reclaim_epochs(min_epoch);
        }
        self.pinned_epochs.clear();
        self.pinned_epochs.extend(pinned);
    }

    /// Compacts every template store with a quarter of its rows dead
    /// (see the module docs). Row ids move, so no [`ViewPins`] taken
    /// before may be used after: the serving layer calls this only
    /// while no snapshot is pinned.
    pub(crate) fn compact(&mut self) {
        for t in self.templates.values_mut().flatten() {
            let (live, total) = t.store.row_counts();
            let dead = total - live;
            if dead >= 64 && dead * 4 >= total {
                t.store.compact();
            }
        }
    }

    /// The pin set a snapshot captures (see [`ViewPins`]).
    pub(crate) fn view_pins(&self) -> ViewPins {
        ViewPins {
            before: self.next_tag,
            frontiers: self
                .templates
                .iter()
                .filter_map(|(&k, t)| {
                    let t = t.as_ref()?;
                    Some((k, t.store.index_frontier(t.goal_idx)))
                })
                .collect(),
        }
    }

    /// Answers `goal` as of a pinned snapshot: from its view if that
    /// was live at pin time and still is, else by filtering the base
    /// store at its pinned frontier (same fixpoint, so identical
    /// answers). A view no round has changed since the pin is read as a
    /// live query reads it, memo and all. One that has changed answers
    /// from whichever of its memos covers `epoch`; failing that, it is
    /// read off its rows at the pinned frontier, once, and that answer
    /// joins its memos as one of `epoch` alone.
    pub(crate) fn answer_pinned(
        &self,
        base: &Materialization,
        goal: &Atom,
        pins: &ViewPins,
        base_frontier: &[usize],
        epoch: u64,
    ) -> Relation {
        let mut buf = [Const(0); MAX_ARITY];
        if let Some((tkey, consts)) = Self::route(base, goal, &mut buf) {
            let pinned = self.view(tkey, consts).filter(|(_, v)| v.seed[0].0 < pins.before);
            if let (Some((t, v)), Some(&frontier)) = (pinned, pins.frontiers.get(&tkey)) {
                if v.changed_epoch <= epoch {
                    return self.answer(t, v, goal);
                }
                let mut memos = v.lock_memos();
                if let Some(m) = memos.iter().find(|m| m.covers(epoch)) {
                    return m.answer.clone();
                }
                let answer = t.store.answer_tag(t.goal_idx, &v.seed, goal, Some((frontier, epoch)));
                self.answer_builds.fetch_add(1, Ordering::Relaxed);
                memos.push(Memo {
                    from: epoch,
                    to: epoch + 1,
                    answer: answer.clone(),
                });
                return answer;
            }
        }
        base.answer_goal_at(goal, base_frontier, epoch)
    }

    // -----------------------------------------------------------------
    // Internals
    // -----------------------------------------------------------------

    /// Drops every template, and each view's memos, when the base's rules
    /// changed (module docs, "Coherence") or its version went *backwards*:
    /// another store (e.g. restored), whose row ids the templates never
    /// saw. Each template store meets a compaction at its own next sync.
    fn validate(&mut self, base: &Materialization) {
        let rules = base.rule_shape();
        if rules != self.seen_rules || base.version() < self.seen_version {
            self.seen_rules = rules;
            self.clear_views();
        }
        self.seen_version = base.version();
    }

    /// Forgets every template, and its views with it — as a rule change
    /// does; the next bound query of each goal compiles its template
    /// again. Tags go on counting, so a snapshot pinned before the call
    /// takes no view built after it for its own.
    pub(crate) fn clear_views(&mut self) {
        if !self.templates.is_empty() {
            self.invalidations += 1;
        }
        self.templates.clear();
    }

    /// Classifies a goal. Only goals on an IDB predicate of `base`,
    /// with at least one bound position, all of whose bound positions
    /// are constants, get views — `Some` of the template and, collected
    /// into `buf`, the bound constants in positional order; everything
    /// else — EDB/untracked predicates, goals of another arity than
    /// their predicate's (which match no fact, and must never compile a
    /// template), all-free patterns, repeated-variable bindings (their
    /// seed would need domain enumeration), more than [`MAX_ARITY`]
    /// arguments — filters the base model directly.
    /// Nothing is allocated: a view is looked up by the borrowed key.
    fn route<'a>(
        base: &Materialization,
        goal: &Atom,
        buf: &'a mut [Const; MAX_ARITY],
    ) -> Option<(TemplateKey, &'a [Const])> {
        if base.idb_arity(goal.pred) != Some(goal.arity()) || goal.arity() > MAX_ARITY {
            return None;
        }
        let mut bound = 0u64;
        let mut n = 0;
        for (i, t) in goal.args.iter().enumerate() {
            match t {
                Term::Const(c) => {
                    bound |= 1 << i;
                    buf[n] = *c;
                    n += 1;
                }
                // Bound by an earlier occurrence: no constant to seed.
                Term::Var(_) if goal.args[..i].contains(t) => return None,
                Term::Var(_) => {}
            }
        }
        (bound != 0).then_some(((goal.pred, bound), &buf[..n]))
    }

    /// The view of `tkey` bound to `consts`, and the template whose
    /// store holds it.
    fn view(&self, tkey: TemplateKey, consts: &[Const]) -> Option<(&Template, &CachedView)> {
        let t = self.templates.get(&tkey)?.as_ref()?;
        Some((t, t.views.get(consts)?))
    }

    /// Makes sure an up-to-date view of `tkey` (a goal of `arity`
    /// arguments) bound to `consts` exists; `None` means the pattern
    /// has no usable template, or the view would be new and every tag
    /// is spent, and the caller must go direct.
    fn ensure_view(
        &mut self,
        base: &mut Materialization,
        arity: usize,
        tkey: TemplateKey,
        consts: &[Const],
    ) -> Option<()> {
        if !self.templates.contains_key(&tkey) {
            let t = Self::build_template(tkey, arity, base);
            if t.is_some() {
                self.template_compiles += 1;
            }
            self.templates.insert(tkey, t);
        }
        let t = self.templates.get_mut(&tkey)?.as_mut()?;
        if t.views.contains_key(consts) {
            if t.store.at_base_version(base) {
                self.hits.fetch_add(1, Ordering::Relaxed);
            } else if t.catch_up(base, None, None, &mut self.invalidations) {
                self.syncs += 1;
            }
            // A store that started over took the view with it.
            if let Some(v) = t.views.get(consts) {
                v.touch(&self.clock);
                return Some(());
            }
        }
        // A new view is a fresh tag: one seed row, and the update
        // fixpoint it sets off (which also catches a stale store up).
        // `u32::MAX` is never a tag, so `next_tag` stays above every
        // view's for the pins that compare against it.
        let tag = Const(self.next_tag);
        self.next_tag = self.next_tag.checked_add(1)?;
        let seed: Vec<Const> = std::iter::once(tag).chain(consts.iter().copied()).collect();
        t.catch_up(base, Some(&seed), None, &mut self.invalidations);
        let view = CachedView {
            seed,
            last_used: AtomicU64::new(0),
            changed_epoch: base.epoch(),
            memos: Mutex::default(),
        };
        view.touch(&self.clock);
        self.misses += 1;
        t.views.insert(consts.to_vec(), view);
        Some(())
    }

    /// Compiles the tagged magic template for one (predicate, binding
    /// pattern) — the memoized unit — from the rules the base store
    /// holds now, and builds its empty store.
    fn build_template(
        (pred, bound): TemplateKey,
        arity: usize,
        base: &mut Materialization,
    ) -> Option<Template> {
        let active = base.active_program(pred);
        let adn = (0..arity).map(|i| bound >> i & 1 == 1).collect();
        let mut tpl = magic_template(&active, pred, &adn).ok()?;
        let untagged = tpl.program.rules.clone();
        tag_template(&mut tpl);
        Template::new(&tpl, &untagged, bound, base)
    }

    /// Drops the view of `tkey` bound to `consts`: its rows are
    /// tombstoned, its memoised answer goes with it.
    fn drop_view(&mut self, tkey: TemplateKey, consts: &[Const]) {
        let Some(Some(t)) = self.templates.get_mut(&tkey) else {
            return;
        };
        if let Some(v) = t.views.remove(consts) {
            t.store.drop_tag(t.seed_pred, &v.seed);
        }
    }

    /// LRU/size eviction; the most-recently-used view survives the row
    /// budget (not `max_views: 0`).
    fn evict(&mut self) {
        loop {
            let views = self.views().count();
            if views <= self.config.max_views
                && (views <= 1 || self.view_rows() <= self.config.max_rows)
            {
                return;
            }
            let (tkey, consts) = self
                .templates
                .iter()
                .filter_map(|(&tkey, t)| Some((tkey, t.as_ref()?)))
                .flat_map(|(tkey, t)| t.views.iter().map(move |(consts, v)| (tkey, consts, v)))
                .min_by_key(|(_, _, v)| v.last_used.load(Ordering::Relaxed))
                .map(|(tkey, consts, _)| (tkey, consts.clone()))
                .expect("non-empty");
            self.drop_view(tkey, &consts);
            self.evictions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Program;
    use crate::db::{Database, Tuple};
    use crate::eval::Strategy;
    use crate::magic::magic_transform;
    use crate::materialize::{RuleId, UpdateRound};
    use crate::parser::parse_program;

    const SRC: &str = "?- anc(john, Y).\n\
                       anc(X, Y) :- par(X, Y).\n\
                       anc(X, Y) :- anc(X, Z), par(Z, Y).";

    impl QueryCache {
        /// Starts the view tags at `tag`, so a test can spend them.
        pub(crate) fn start_tags_at(&mut self, tag: u32) {
            self.next_tag = tag;
        }

        /// Words the template stores hold: [`QueryCache::view_words`]
        /// without the memoised answers.
        pub(crate) fn store_words(&self) -> usize {
            self.stores().map(|s| s.mem_stats().total_words()).sum()
        }
    }

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

    /// The from-scratch reference: magic-transform the concretely-bound
    /// goal against the current EDB and batch-evaluate.
    fn oracle(p: &Program, goal: &Atom, edb: &Database) -> Vec<Tuple> {
        let mut pg = p.clone();
        pg.goal = goal.clone();
        let m = magic_transform(&pg).expect("transformable");
        let (ans, _) = crate::eval::answer(&m.program, edb, Strategy::SemiNaive);
        ans.sorted()
    }

    /// A store restored from a server's save is a plain store: it
    /// compacts on its policy and tags no tombstone, exactly as one
    /// restored from a bare save, and so does a standalone cache over
    /// it. Each round retracts and re-inserts one of edges 1–5 of a
    /// 400-edge chain, so dead rows pile up until a compaction.
    #[test]
    fn a_store_restored_from_a_server_save_churns_as_a_bare_one() {
        let dir = std::env::temp_dir().join(format!("selprop-bare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (served_path, bare_path) = (dir.join("served.snap"), dir.join("bare.snap"));

        let mut p = parse_program(SRC).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let edges = chain(&mut p, 400);
        let load = UpdateRound::new().insert_all(par, &edges);
        let server = crate::server::Server::new(&p, Strategy::SemiNaive);
        server.apply(&load);
        server.save(&served_path).unwrap();
        let mut bare = Materialization::new(&p, Strategy::SemiNaive);
        bare.apply(&load);
        bare.save(&bare_path).unwrap();

        let mut served = Materialization::restore(&served_path).unwrap();
        let mut bare = Materialization::restore(&bare_path).unwrap();
        assert_eq!((served.epoch(), bare.epoch()), (1, 0), "the server's epoch is persisted");
        let mut cache = QueryCache::new(&p);
        let goal = p.goal.clone();
        let before = cache.query(&mut served, &goal);
        for i in 0..120 {
            let e = edges[1 + i % 5].clone();
            let round = UpdateRound::new().retract(par, e.clone()).insert(par, e);
            assert_eq!(served.apply(&round), bare.apply(&round), "round {i}");
            assert_eq!(cache.query(&mut served, &goal), before, "round {i}");
        }
        assert!(bare.compactions() > 0, "the churn trips the policy");
        assert_eq!(served.compactions(), bare.compactions());
        assert_eq!(served.mem_stats(), bare.mem_stats());
        assert_eq!(served.database().sorted_models(), bare.database().sorted_models());
        assert_eq!((served.tagged_tombstones(), bare.tagged_tombstones()), (0, 0));
        let view_tags: usize = cache.stores().map(Materialization::tagged_tombstones).sum();
        assert_eq!(view_tags, 0, "the view's store tags nothing either");

        std::fs::remove_dir_all(&dir).ok();
    }

    /// Interleaved inserts, retracts and queries; at every query the live
    /// view must agree with a from-scratch transform of the current EDB
    /// (and the read path with the write path). A cache queried after
    /// every round maintains its one view throughout. One queried only
    /// where the script says misses rounds, and twice a missed round
    /// retracted rows: the view starts over there.
    #[test]
    fn cached_answers_match_the_batch_magic_oracle_through_churn() {
        // (misses, invalidations, syncs): in step, one sync per round
        // after the first.
        for (in_step, stats) in [(true, (1, 0, 7)), (false, (3, 2, 2))] {
            let s = churn_through_a_cache(in_step);
            assert_eq!((s.misses, s.invalidations, s.syncs), stats, "in step: {in_step}");
        }
    }

    fn churn_through_a_cache(in_step: bool) -> CacheStats {
        let mut p = parse_program(SRC).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let edges = chain(&mut p, 16);
        let mut edb = Database::new();
        let mut base = Materialization::from_database(&p, &edb, Strategy::SemiNaive);
        // No auto-compaction: a view is cleared and rebuilt only where
        // the cache missed a retracting round.
        base.set_compaction_policy(None);
        let mut cache = QueryCache::new(&p);
        let goal = p.goal.clone();

        let script: &[(&str, std::ops::Range<usize>)] = &[
            ("ins", 0..6),
            ("q", 0..0),
            ("ins", 6..12),
            ("q", 0..0),
            ("ret", 3..4),
            ("q", 0..0),
            ("ins", 3..4),
            ("ret", 0..2),
            ("q", 0..0),
            ("ins", 0..2),
            ("ins", 12..16),
            ("ret", 8..10),
            ("q", 0..0),
        ];
        for (op, r) in script {
            match *op {
                "ins" => {
                    base.apply(&UpdateRound::new().insert_all(par, &edges[r.clone()]));
                    for e in &edges[r.clone()] {
                        edb.insert(par, e.clone());
                    }
                }
                "ret" => {
                    base.apply(&UpdateRound::new().retract_all(par, &edges[r.clone()]));
                    for e in &edges[r.clone()] {
                        edb.remove(par, e);
                    }
                }
                _ => {}
            }
            if *op == "q" || in_step {
                let got = cache.query(&mut base, &goal).sorted();
                assert_eq!(got, oracle(&p, &goal, &edb));
                assert_eq!(
                    cache.lookup(&base, &goal).expect("synced").sorted(),
                    got,
                    "read path agrees with write path"
                );
            }
        }
        cache.stats()
    }

    #[test]
    fn one_template_compile_per_binding_pattern() {
        let mut p = parse_program(SRC).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let anc = p.symbols.get_predicate("anc").unwrap();
        let edges = chain(&mut p, 8);
        let y = p.symbols.variable("Y");
        let x = p.symbols.variable("X");
        let mut edb = Database::new();
        for e in &edges {
            edb.insert(par, e.clone());
        }
        let mut base = Materialization::from_database(&p, &edb, Strategy::SemiNaive);
        let mut cache = QueryCache::new(&p);

        // Five constant vectors under the bf pattern: one compile.
        for name in ["john", "c1", "c2", "c3", "c4"] {
            let c = p.symbols.constant(name);
            let goal = Atom::new(anc, vec![Term::Const(c), Term::Var(y)]);
            assert_eq!(
                cache.query(&mut base, &goal).sorted(),
                oracle(&p, &goal, &edb)
            );
        }
        let s = cache.stats();
        assert_eq!(s.template_compiles, 1, "bf compiled exactly once");
        assert_eq!((s.misses, s.views), (5, 5));

        // A second pattern (fb) compiles its own template, once.
        for name in ["c5", "c6"] {
            let c = p.symbols.constant(name);
            let goal = Atom::new(anc, vec![Term::Var(x), Term::Const(c)]);
            assert_eq!(
                cache.query(&mut base, &goal).sorted(),
                oracle(&p, &goal, &edb)
            );
        }
        assert_eq!(cache.stats().template_compiles, 2);
    }

    #[test]
    fn routing_sends_unusable_goals_direct() {
        let mut p = parse_program(SRC).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let anc = p.symbols.get_predicate("anc").unwrap();
        let edges = chain(&mut p, 6);
        let x = p.symbols.variable("X");
        let y = p.symbols.variable("Y");
        let mut edb = Database::new();
        for e in &edges {
            edb.insert(par, e.clone());
        }
        let mut base = Materialization::from_database(&p, &edb, Strategy::SemiNaive);
        let mut cache = QueryCache::new(&p);

        // All-free: the full model, no view.
        let free = Atom::new(anc, vec![Term::Var(x), Term::Var(y)]);
        assert_eq!(cache.query(&mut base, &free).len(), 6 * 7 / 2);
        // EDB predicate: filtered base facts, no view.
        let c2 = p.symbols.constant("c2");
        let bound_par = Atom::new(par, vec![Term::Const(c2), Term::Var(y)]);
        assert_eq!(cache.query(&mut base, &bound_par).len(), 1);
        // Repeated variable in a bound position: no cycle in a chain.
        let diag = Atom::new(anc, vec![Term::Var(x), Term::Var(x)]);
        assert_eq!(cache.query(&mut base, &diag).len(), 0);
        let s = cache.stats();
        assert_eq!(s.direct, 3);
        assert_eq!((s.misses, s.views, s.template_compiles), (0, 0, 0));
    }

    #[test]
    fn lru_eviction_and_requery_equivalence() {
        let mut p = parse_program(SRC).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let anc = p.symbols.get_predicate("anc").unwrap();
        let edges = chain(&mut p, 8);
        let y = p.symbols.variable("Y");
        let mut edb = Database::new();
        for e in &edges {
            edb.insert(par, e.clone());
        }
        let mut base = Materialization::from_database(&p, &edb, Strategy::SemiNaive);
        let mut cache =
            QueryCache::with_config(&p, CacheConfig { max_views: 2, max_rows: 1 << 22 });

        let goal_for = |p: &mut Program, name: &str| {
            let c = p.symbols.constant(name);
            Atom::new(anc, vec![Term::Const(c), Term::Var(y)])
        };
        let g_john = goal_for(&mut p, "john");
        let g_c1 = goal_for(&mut p, "c1");
        let g_c2 = goal_for(&mut p, "c2");
        let baseline = cache.query(&mut base, &g_john).sorted();
        let first_tag = cache.views().next().expect("john's view").seed[0];
        cache.query(&mut base, &g_c1);
        cache.query(&mut base, &g_c2); // evicts john (LRU)
        let s = cache.stats();
        assert_eq!(s.views, 2);
        assert!(s.evictions >= 1);

        // Requery after eviction: rebuilt under a tag never used before,
        // identical answers.
        assert_eq!(cache.query(&mut base, &g_john).sorted(), baseline);
        assert!(cache.views().all(|v| v.seed[0] != first_tag));
        assert_eq!(cache.query(&mut base, &g_john).sorted(), oracle(&p, &g_john, &edb));
        assert_eq!(cache.stats().template_compiles, 1, "template survived eviction");

        // max_views = 0 keeps nothing but still answers exactly.
        cache.set_config(CacheConfig { max_views: 0, max_rows: 1 << 22 });
        assert_eq!(cache.query(&mut base, &g_c1).sorted(), oracle(&p, &g_c1, &edb));
        assert_eq!(cache.stats().views, 0);
    }

    #[test]
    fn unannounced_rule_change_recompiles_the_template() {
        let mut p = parse_program(SRC).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let edges = chain(&mut p, 5);
        let mut edb = Database::new();
        for e in &edges {
            edb.insert(par, e.clone());
        }
        let mut base = Materialization::from_database(&p, &edb, Strategy::SemiNaive);
        let mut cache = QueryCache::new(&p);
        let goal = p.goal.clone();
        assert_eq!(cache.query(&mut base, &goal).len(), 5);

        // Nobody tells the cache about rule changes: it sees the store's
        // rule slots move and compiles the template again, once, against
        // the rules the store holds now. `up` is `anc` backwards, in
        // variables only this copy of the symbol table has interned.
        let anc = p.symbols.get_predicate("anc").unwrap();
        let [s, t, u] = ["S", "T", "U"].map(|n| Term::Var(p.symbols.variable(n)));
        let up = Rule::new(
            Atom::new(anc, vec![s, t]),
            vec![Atom::new(par, vec![u, s]), Atom::new(anc, vec![u, t])],
        );
        let id = base.apply(&UpdateRound::new().add_rule(up)).first_rule;
        for _ in 0..2 {
            assert_eq!(cache.query(&mut base, &goal).sorted(), base.answer().sorted());
        }
        let st = cache.stats();
        assert_eq!((st.template_compiles, st.misses, st.invalidations, st.views), (2, 2, 1, 1));

        // The same for drops: only the direct parent is left.
        let drops = UpdateRound::new().drop_rule(id).drop_rule(RuleId(1));
        assert_eq!(base.apply(&drops).rules_dropped, 2);
        assert_eq!(cache.query(&mut base, &goal).len(), 1);
        assert_eq!(cache.stats().template_compiles, 3);
    }

    #[test]
    fn compaction_clears_views_but_keeps_templates() {
        let mut p = parse_program(SRC).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let edges = chain(&mut p, 12);
        let mut edb = Database::new();
        for e in &edges {
            edb.insert(par, e.clone());
        }
        let mut base = Materialization::from_database(&p, &edb, Strategy::SemiNaive);
        base.set_compaction_policy(Some(crate::materialize::CompactionPolicy {
            min_dead_rows: 1,
            dead_percent: 1,
        }));
        let mut cache = QueryCache::new(&p);
        let goal = p.goal.clone();
        assert_eq!(cache.query(&mut base, &goal).len(), 12);

        // Heavy retraction triggers a base compaction, which remaps the
        // row ids the view's justifications reference.
        base.apply(&UpdateRound::new().retract_all(par, &edges[6..]));
        for e in &edges[6..] {
            edb.remove(par, e);
        }
        assert!(base.compactions() > 0, "policy fired");
        assert_eq!(cache.query(&mut base, &goal).sorted(), oracle(&p, &goal, &edb));
        let s = cache.stats();
        assert!(s.invalidations >= 1, "compaction cleared the views");
        assert_eq!(s.misses, 2, "view rebuilt once");
        assert_eq!(s.template_compiles, 1, "template has no row ids — kept");
    }

    /// The restore half of clean invalidation: a restored store starts
    /// again at version 0 — all the cache can see of it — and every
    /// template goes, its row-level links being into the old store.
    #[test]
    fn a_restored_base_clears_the_templates() {
        let mut p = parse_program(SRC).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let edges = chain(&mut p, 12);
        let mut edb = Database::new();
        for e in &edges[..10] {
            edb.insert(par, e.clone());
        }
        let mut base = Materialization::from_database(&p, &edb, Strategy::SemiNaive);
        let mut cache = QueryCache::new(&p);
        let shape = |cache: &QueryCache| {
            let s = cache.stats();
            (s.invalidations, s.template_compiles, s.views)
        };
        let goal = p.goal.clone();
        let c3 = Term::Const(p.symbols.constant("c3"));
        let other = Atom::new(goal.pred, vec![c3, goal.args[1]]);
        cache.query(&mut base, &goal);
        cache.query(&mut base, &other);
        base.apply(&UpdateRound::new().insert_all(par, &edges[10..11]));
        edb.insert(par, edges[10].clone());
        assert_eq!(cache.query(&mut base, &goal).len(), 11);
        assert_eq!(shape(&cache), (0, 1, 2), "two views of one template");

        let mut restored = Materialization::from_bytes(&base.to_bytes()).unwrap();
        assert!(base.version() > restored.version());
        assert!(cache.lookup(&restored, &goal).is_none(), "a view of another store");
        assert_eq!(cache.query(&mut restored, &goal).sorted(), oracle(&p, &goal, &edb));
        assert_eq!(shape(&cache), (1, 2, 1));
        restored.apply(&UpdateRound::new().retract_all(par, &edges[4..5]));
        edb.remove(par, &edges[4]);
        assert_eq!(cache.query(&mut restored, &goal).sorted(), oracle(&p, &goal, &edb));
        restored.apply(&UpdateRound::new().insert_all(par, &edges[11..12]));
        edb.insert(par, edges[11].clone());
        assert_eq!(cache.query(&mut restored, &goal).sorted(), oracle(&p, &goal, &edb));
        assert_eq!(shape(&cache), (1, 2, 1), "maintained from there on");
    }

    /// Routing reads the store, not a list the cache was given: a cache
    /// made with no program sends a bound goal on one of the store's IDB
    /// predicates to the slow path from its first lookup, and that
    /// query builds a view.
    #[test]
    fn a_cache_routes_by_its_store_from_the_first_lookup() {
        let mut p = parse_program(SRC).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let mut edb = Database::new();
        for e in chain(&mut p, 5) {
            edb.insert(par, e);
        }
        let mut base = Materialization::from_database(&p, &edb, Strategy::SemiNaive);
        let mut cache = QueryCache::disabled();
        assert!(cache.lookup(&base, &p.goal).is_none(), "a view to build, not a direct answer");
        assert_eq!(cache.query(&mut base, &p.goal).sorted(), base.answer().sorted());
        let s = cache.stats();
        assert_eq!((s.misses, s.direct, s.views), (1, 0, 1));
    }

    /// A sync joins through the base's indexes and extends none of them,
    /// so one that lags its relation would drop base rows from the
    /// answer. A restored store's indexes are empty until its first
    /// round; a template still linked to the old store refuses to sync
    /// against it, in every build profile.
    #[test]
    #[should_panic(expected = "a linked base index lags")]
    fn a_sync_refuses_a_lagging_base_index() {
        let mut p = parse_program(SRC).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let mut edb = Database::new();
        for e in chain(&mut p, 4) {
            edb.insert(par, e);
        }
        let mut base = Materialization::from_database(&p, &edb, Strategy::SemiNaive);
        let mut cache = QueryCache::new(&p);
        cache.query(&mut base, &p.goal);
        let restored = Materialization::from_bytes(&base.to_bytes()).unwrap();
        for t in cache.templates.values_mut().flatten() {
            t.store.sync_external(&restored, None, None);
        }
    }

    #[test]
    fn views_stay_small_relative_to_the_base() {
        let mut p = parse_program(SRC).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let edges = chain(&mut p, 64);
        let mut edb = Database::new();
        for e in &edges {
            edb.insert(par, e.clone());
        }
        // Base holds the full quadratic closure (64·65/2 anc rows); the
        // view holds only anc(john, ·) — linear — plus a one-row magic
        // set, sharing the base's par rows in place.
        let mut base = Materialization::from_database(&p, &edb, Strategy::SemiNaive);
        let mut cache = QueryCache::new(&p);
        let goal = p.goal.clone();
        assert_eq!(cache.query(&mut base, &goal).len(), 64);
        let base_words = base.mem_stats().total_words();
        let view_words = cache.view_words();
        assert!(
            view_words * 4 < base_words,
            "view footprint {view_words} should be well under base {base_words}"
        );
    }

    /// A template store's reverse chains over base relations are sparse
    /// from its first view and again after it starts over: its
    /// `rev_words` follow its own rows, not the base's row ids — here
    /// past 50 000 disconnected edges.
    #[test]
    fn a_template_stores_reverse_index_is_sized_by_its_own_rows() {
        let mut p = parse_program(SRC).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let mut edb = Database::new();
        for i in 0..50_000 {
            let (a, b) = (p.symbols.constant(&format!("a{i}")), p.symbols.constant(&format!("b{i}")));
            edb.insert(par, vec![a, b]);
        }
        let edges = chain(&mut p, 12);
        let mut base = Materialization::from_database(&p, &edb, Strategy::SemiNaive);
        base.apply(&UpdateRound::new().insert_all(par, &edges));
        let goals: Vec<Atom> = ["john", "c1", "c2", "c3"]
            .iter()
            .map(|c| Atom::new(p.goal.pred, vec![Term::Const(p.symbols.constant(c)), p.goal.args[1]]))
            .collect();
        let mut cache = QueryCache::new(&p);
        let sized_by_own_rows = |cache: &mut QueryCache, base: &mut Materialization| {
            for g in &goals {
                cache.query(base, g);
            }
            for s in cache.stores() {
                let (words, (_, rows)) = (s.mem_stats().rev_words, s.row_counts());
                assert!(words <= 16 * rows, "{words} reverse-index words over {rows} own rows");
            }
        };
        sized_by_own_rows(&mut cache, &mut base);
        // Two retracting rounds the cache does not see: its store starts
        // over, and every view is built again.
        base.apply(&UpdateRound::new().retract_all(par, &edges[10..11]));
        base.apply(&UpdateRound::new().retract_all(par, &edges[11..12]));
        sized_by_own_rows(&mut cache, &mut base);
        assert_eq!(cache.stats().invalidations, 1, "the store started over");
    }

    const SRC_S7: &str = "?- p(c, Y).\n\
                          p(X, Y) :- b1(X, X1), b2(X1, Y).\n\
                          p(X, Y) :- b1(X, X1), p(X1, Y1), b2(Y1, Y).";

    /// Section 7's layered structure: a `b1`-chain of `layers` edges
    /// from `c` into a `b2`-chain of `layers` edges, plus `noise`
    /// disconnected `b1`/`b2` pairs.
    fn layered(p: &mut Program, layers: usize, noise: usize) -> Database {
        let b1 = p.symbols.get_predicate("b1").unwrap();
        let b2 = p.symbols.get_predicate("b2").unwrap();
        let mut db = Database::new();
        let mut prev = p.symbols.constant("c");
        for (pred, tag) in [(b1, "u"), (b2, "d")] {
            for i in 1..=layers {
                let c = p.symbols.constant(&format!("{tag}{i}"));
                db.insert(pred, vec![prev, c]);
                prev = c;
            }
        }
        for i in 0..noise {
            let a = p.symbols.constant(&format!("xa{i}"));
            let b = p.symbols.constant(&format!("xb{i}"));
            db.insert(b1, vec![a, b]);
            db.insert(b2, vec![b, a]);
        }
        db
    }

    /// The view path of the delta-first plans: catching a view up with
    /// an EDB insert costs the same whatever the size of the base EDB it
    /// shares (the same noise-scaling oracle as the base store's, in
    /// `tests/planner_props.rs`).
    #[test]
    fn view_sync_work_is_independent_of_the_base_edb_size() {
        let sync_cost = |noise: usize| {
            let mut p = parse_program(SRC_S7).unwrap();
            let edb = layered(&mut p, 6, noise);
            let b1 = p.symbols.get_predicate("b1").unwrap();
            let b2 = p.symbols.get_predicate("b2").unwrap();
            let mut base = Materialization::from_database(&p, &edb, Strategy::SemiNaive);
            let mut cache = QueryCache::new(&p);
            let goal = p.goal.clone();
            assert_eq!(cache.query(&mut base, &goal).len(), 1, "p(c, d6)");

            // Eight irrelevant pairs and one relevant one: `u6` is in
            // the view's magic set, so p(u6, w2) is derived there.
            let mut round = crate::materialize::UpdateRound::new();
            for i in 0..8 {
                let a = p.symbols.constant(&format!("fresh_a{i}"));
                let b = p.symbols.constant(&format!("fresh_b{i}"));
                round = round.insert(b1, vec![a, b]).insert(b2, vec![b, a]);
            }
            let u6 = p.symbols.constant("u6");
            let (w1, w2) = (p.symbols.constant("w1"), p.symbols.constant("w2"));
            round = round.insert(b1, vec![u6, w1]).insert(b2, vec![w1, w2]);
            assert_eq!(base.apply(&round).inserted, 18);

            let before = cache.eval_stats();
            assert_eq!(cache.query(&mut base, &goal).len(), 1);
            assert_eq!(cache.stats().syncs, 1, "the query caught the view up");
            let after = cache.eval_stats();
            (
                after.join_probes - before.join_probes,
                after.rule_firings - before.rule_firings,
                after.tuples_derived - before.tuples_derived,
            )
        };
        let small = sync_cost(50);
        assert_eq!(small, sync_cost(500), "(probes, firings, derived) of one view sync");
        assert!(small.2 >= 1, "the relevant pair reached the view");
    }

    /// Every index a view will ever probe is registered when its
    /// template is linked, and on these programs the base already
    /// maintains each one: its update plans, one per body atom, and its
    /// rescue plans, compiled with them, cover what the views probe, so
    /// linking the first view fills no base index row. On program A the
    /// view's rescue plan enters `anc(x, y)` through `par(Z, y)`, the
    /// atom with the small fan-in — `par[1]`, the base rescue plan's
    /// index — and tests `anc(x, z)` and `par(x, y)` against the dedup
    /// tables, which need no index. On Section 7 the view's plans probe
    /// `b1[0]` behind the magic guard and its rescue of the recursive
    /// rule reaches `p(X1, Y1)` through `b2(Y1, y)`, `b2[1]` — the two
    /// indexes the base's rescue plans enter through; `b1[1]`, which the
    /// rescue of a magic row enters through, the base's update plans
    /// maintain. Later queries register nothing either.
    #[test]
    fn linking_a_view_registers_no_base_index_for_the_update_plans() {
        let growth = |src: &str, edb_of: &dyn Fn(&mut Program) -> Database| {
            let mut p = parse_program(src).unwrap();
            let edb = edb_of(&mut p);
            let mut base = Materialization::from_database(&p, &edb, Strategy::SemiNaive);
            let mut cache = QueryCache::new(&p);
            let goal = p.goal.clone();
            let fresh = base.planner_report().index_rows;
            cache.query(&mut base, &goal);
            let linked = base.planner_report().index_rows;
            // A second constant under the same template links nothing.
            let other = match &goal.args[0] {
                Term::Const(_) => {
                    let mut g = goal.clone();
                    g.args[0] = Term::Const(p.symbols.constant("elsewhere"));
                    g
                }
                Term::Var(_) => unreachable!("the test programs bind the first argument"),
            };
            cache.query(&mut base, &other);
            assert_eq!(base.planner_report().index_rows, linked);
            linked - fresh
        };
        let par_rows = 16;
        let a = growth(SRC, &|p| {
            let par = p.symbols.get_predicate("par").unwrap();
            let mut db = Database::new();
            for e in chain(p, par_rows) {
                db.insert(par, e);
            }
            db
        });
        assert_eq!(a, 0, "program A: par[1] is the base's rescue index");
        let s7 = growth(SRC_S7, &|p| layered(p, 6, 40));
        assert_eq!(s7, 0, "Section 7: b1[0] and b2[1] are the base's rescue indexes");
    }

    /// `disabled` names no state any more: the cache has seen no store
    /// and no program, reads the rules off the store at its first query,
    /// and serves that query from a view.
    #[test]
    fn a_disabled_cache_is_an_empty_one_and_serves_views() {
        let mut p = parse_program(SRC).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let edges = chain(&mut p, 4);
        let mut edb = Database::new();
        for e in &edges {
            edb.insert(par, e.clone());
        }
        let mut base = Materialization::from_database(&p, &edb, Strategy::SemiNaive);
        let mut cache = QueryCache::disabled();
        let goal = p.goal.clone();
        assert_eq!(cache.query(&mut base, &goal).sorted(), base.answer().sorted());
        assert_eq!(
            cache.lookup(&base, &goal).expect("a synced view").sorted(),
            base.answer().sorted()
        );
        let s = cache.stats();
        assert_eq!((s.misses, s.hits, s.direct, s.views), (1, 1, 0, 1));
    }
}
