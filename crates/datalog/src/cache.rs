//! The magic-set query cache: selection propagation as a service.
//!
//! The paper's transformation (see [`crate::magic`]) makes a *bound*
//! query — `anc(john, Y)?` — cheap by deriving only goal-relevant
//! facts, but as a batch rewrite it pays a full evaluation per call.
//! This module keeps the transformed programs **live**: a
//! [`QueryCache`] holds small magic-template [`Materialization`]s
//! ("views"), keyed by `(predicate, binding pattern, bound constants)`,
//! that share the base store's EDB rows (see the shared-EDB section of
//! [`crate::materialize`]) and are caught up incrementally — magic and
//! adorned predicates are just more IDB relations, so the engine's
//! DRed + semi-naive resume propagates base churn into every view
//! unchanged.
//!
//! Routing: an all-free goal, a goal on an EDB (or untracked)
//! predicate, and a goal whose bound positions are repeated variables
//! (`p(X, X)`) go **direct** — filtered off the base store's full
//! model, which the base maintains anyway. Everything else gets a view.
//! Answers are therefore always exact; the cache only changes *cost*.
//!
//! Coherence: every [`Materialization::apply`] bumps the base's
//! update-round `version`. A view answers from cache only while its
//! synced version matches; otherwise the next query (or the serving
//! layer's write round) runs one catch-up sync. Base compactions and
//! restores remap or forget row ids that views' justifications and
//! index links reference, so they clear the views (templates survive a
//! compaction — they hold no row ids); an unannounced rule change
//! disables the cache entirely (every query then routes direct, which
//! is always correct).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::ast::{Atom, Const, Pred, Program, Rule, Term};
use crate::db::{Relation, Tuple};
use crate::hash::FxHashMap;
use crate::magic::{goal_adornment, magic_template, render_adornment, Adornment};
use crate::materialize::{ExtLinks, Materialization, RuleId};

/// Eviction configuration for [`QueryCache`].
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Maximum number of live views; least-recently-used views beyond
    /// this are dropped.
    pub max_views: usize,
    /// Maximum total stored rows across all views (each view's own
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
    /// Queries that found their view but ran a catch-up sync first.
    pub syncs: u64,
    /// Queries routed to base-store filtering (all-free patterns, EDB
    /// predicates, repeated-variable bindings, or a disabled cache).
    pub direct: u64,
    /// Views dropped by LRU/size pressure or dead-row rebuilds.
    pub evictions: u64,
    /// Times base-store shape changes (compaction, restore, unannounced
    /// rule changes) cleared the live views.
    pub invalidations: u64,
    /// Magic templates compiled — one per (predicate, binding pattern),
    /// however many constant vectors instantiate it (the memoization
    /// guarantee).
    pub template_compiles: u64,
    /// Live views right now.
    pub views: usize,
}

/// A view key: predicate, rendered binding pattern, bound constants in
/// positional order.
pub(crate) type ViewKey = (Pred, String, Vec<Const>);

/// What a [`Snapshot`](crate::server::Snapshot) needs to keep answering
/// from a pinned view: its key, its instance (rebuilt views get a new
/// one, so stale pins fall back to base filtering), and its per-relation
/// row frontier at pin time.
pub(crate) type ViewPin = (ViewKey, u64, Vec<usize>);

/// A compiled magic template for one (predicate, binding pattern):
/// clone the prototype, insert one seed row, and you have a view.
struct Template {
    prototype: Materialization,
    links: ExtLinks,
    goal_pred: Pred,
    seed_pred: Pred,
}

/// One live view: a magic materialization at fixpoint for one concrete
/// bound query.
struct CachedView {
    mat: Materialization,
    links: ExtLinks,
    /// Monotone id; a rebuilt view under the same key gets a fresh one.
    instance: u64,
    /// `base.version()` this view last synced at.
    synced_version: u64,
    /// `base.edb_retracts()` at last sync — unchanged means the next
    /// sync can skip the delete-rederive scan.
    synced_retracts: u64,
    /// LRU stamp (atomic so read-path hits can touch it).
    last_used: AtomicU64,
}

enum Route {
    Direct,
    View(Pred, Adornment, Vec<Const>),
}

/// An incrementally-maintained magic-set query cache over one base
/// [`Materialization`]. See the module docs for semantics; see
/// [`crate::server::Server::query`] for the concurrent serving wrapper.
///
/// A cache is bound to the base store it first queried: using it
/// against a different store is a logic error (detected only when the
/// stores' shapes diverge).
pub struct QueryCache {
    /// The base store's program mirror (rules in slot order, dropped
    /// ones included). `None` = disabled: every query routes direct.
    program: Option<Program>,
    /// Mirror of the base's rule-slot activity, for detecting rule
    /// changes that didn't come through [`QueryCache::note_rule_added`] /
    /// [`QueryCache::note_rule_dropped`].
    active_mirror: Vec<bool>,
    /// One template per (predicate, rendered adornment); `None` caches
    /// "this pattern has no usable template" (e.g. transform failure).
    templates: FxHashMap<(Pred, String), Option<Template>>,
    views: FxHashMap<ViewKey, CachedView>,
    config: CacheConfig,
    seen_version: u64,
    seen_compactions: u64,
    next_instance: u64,
    clock: AtomicU64,
    hits: AtomicU64,
    direct: AtomicU64,
    misses: u64,
    syncs: u64,
    evictions: u64,
    invalidations: u64,
    template_compiles: u64,
}

impl QueryCache {
    /// A cache for a base store materializing `program`, with default
    /// eviction limits.
    pub fn new(program: &Program) -> Self {
        Self::with_config(program, CacheConfig::default())
    }

    /// A cache with explicit eviction limits.
    pub fn with_config(program: &Program, config: CacheConfig) -> Self {
        Self {
            active_mirror: vec![true; program.rules.len()],
            program: Some(program.clone()),
            templates: FxHashMap::default(),
            views: FxHashMap::default(),
            config,
            seen_version: 0,
            seen_compactions: 0,
            next_instance: 0,
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            direct: AtomicU64::new(0),
            misses: 0,
            syncs: 0,
            evictions: 0,
            invalidations: 0,
            template_compiles: 0,
        }
    }

    /// A permanently-direct cache, for base stores whose program is not
    /// known (e.g. restored from a snapshot, which persists rules but
    /// not the full symbol table semantics the transform needs). Every
    /// query filters the base model — correct, never cached.
    pub fn disabled() -> Self {
        let empty = Program {
            rules: Vec::new(),
            goal: Atom::new(Pred(0), Vec::new()),
            symbols: crate::ast::Symbols::new(),
        };
        let mut c = Self::with_config(&empty, CacheConfig::default());
        c.program = None;
        c
    }

    /// Whether queries can be cached at all (`false` after
    /// [`QueryCache::disabled`] or an unannounced rule change).
    pub fn is_enabled(&self) -> bool {
        self.program.is_some()
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
            views: self.views.len(),
        }
    }

    /// Replaces the eviction limits (enforced from the next query on).
    pub fn set_config(&mut self, config: CacheConfig) {
        self.config = config;
    }

    /// Total stored rows across all views — the resident footprint the
    /// `max_rows` limit bounds.
    pub fn view_rows(&self) -> usize {
        // A view's external relations are empty placeholders between
        // syncs, so its own rows are all it stores — and counting them
        // touches no index (eviction asks after every view build).
        self.views.values().map(|v| v.mat.own_rows().1).sum()
    }

    /// Total words held by the views (tuples, indexes, justifications);
    /// base rows are shared, not copied, so this is the cache's real
    /// resident cost.
    pub fn view_words(&self) -> usize {
        self.views.values().map(|v| v.mat.mem_stats().total_words()).sum()
    }

    /// Answers `goal` against `base`, through a view when the goal has
    /// usable bindings (building or catching the view up as needed),
    /// directly off the base model otherwise.
    pub fn query(&mut self, base: &mut Materialization, goal: &Atom) -> Relation {
        self.validate(base);
        match self.route(goal) {
            Route::Direct => {
                self.direct.fetch_add(1, Ordering::Relaxed);
                base.answer_goal(goal)
            }
            Route::View(pred, adn, consts) => {
                let key: ViewKey = (pred, render_adornment(&adn), consts);
                if self.ensure_view(base, goal, &key, &adn).is_none() {
                    self.direct.fetch_add(1, Ordering::Relaxed);
                    return base.answer_goal(goal);
                }
                // Answer before evicting: under `max_views: 0` even the
                // view just built is dropped again.
                let answer = self.views[&key].mat.answer();
                self.evict();
                answer
            }
        }
    }

    /// The read-only fast path: answers without touching the base — a
    /// direct route, or a view that is already synced to the base's
    /// current version. Returns `None` when the slow path
    /// ([`QueryCache::query`], which may build or sync) is needed.
    pub fn lookup(&self, base: &Materialization, goal: &Atom) -> Option<Relation> {
        match self.route(goal) {
            Route::Direct => {
                self.direct.fetch_add(1, Ordering::Relaxed);
                Some(base.answer_goal(goal))
            }
            Route::View(pred, adn, consts) => {
                // A version that went backwards means a different store
                // (e.g. restored); hand off to the slow path's validate.
                if base.version() < self.seen_version {
                    return None;
                }
                let key: ViewKey = (pred, render_adornment(&adn), consts);
                let v = self.views.get(&key)?;
                if v.synced_version != base.version() {
                    return None;
                }
                v.last_used
                    .store(self.clock.fetch_add(1, Ordering::Relaxed) + 1, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v.mat.answer())
            }
        }
    }

    /// Catches every live view up with the base — the serving layer
    /// calls this inside each write round (after the base reached its
    /// new fixpoint, before the round's epoch is published), so a pinned
    /// epoch always sees base facts and cached answers from the same
    /// fixpoint. `epoch` tags view tombstones for pinned readers (0 =
    /// epoch mode off). Dead-heavy views are dropped instead of synced
    /// (views never compact — their justifications hold base row ids —
    /// so a rebuild on next use is the bounded-memory path).
    pub(crate) fn sync_all(&mut self, base: &mut Materialization, epoch: u64) {
        self.validate(base);
        let before = self.views.len();
        self.views.retain(|_, v| {
            let (live, total) = v.mat.own_rows();
            !(total > 512 && live * 2 < total)
        });
        self.evictions += (before - self.views.len()) as u64;
        for v in self.views.values_mut() {
            if epoch > 0 {
                v.mat.set_epoch(epoch);
            }
            if v.synced_version != base.version() {
                let check = v.synced_retracts != base.edb_retracts();
                v.mat.swap_external(base, &v.links);
                v.mat.sync_external(check);
                v.mat.swap_external(base, &v.links);
                v.synced_version = base.version();
                v.synced_retracts = base.edb_retracts();
                self.syncs += 1;
            }
        }
    }

    /// Forwards epoch reclamation to every view (the serving layer's
    /// last-unpin drain).
    pub(crate) fn reclaim_epochs(&mut self, min_epoch: u64) {
        for v in self.views.values_mut() {
            v.mat.reclaim_epochs(min_epoch);
        }
    }

    /// The pin set a snapshot captures: every live view's key, instance
    /// and row frontier.
    pub(crate) fn view_pins(&self) -> Vec<ViewPin> {
        self.views
            .iter()
            .map(|(k, v)| (k.clone(), v.instance, v.mat.frontiers()))
            .collect()
    }

    /// Answers `goal` as of a pinned snapshot: from the pinned view if
    /// it is still the same instance, else by filtering the base store
    /// at its pinned frontier (same fixpoint, so identical answers).
    pub(crate) fn answer_pinned(
        &self,
        base: &Materialization,
        goal: &Atom,
        pins: &[ViewPin],
        base_frontier: &[usize],
        epoch: u64,
    ) -> Relation {
        if let Route::View(pred, adn, consts) = self.route(goal) {
            let key: ViewKey = (pred, render_adornment(&adn), consts);
            if let Some((_, instance, frontier)) = pins.iter().find(|(k, _, _)| *k == key) {
                if let Some(v) = self.views.get(&key) {
                    if v.instance == *instance {
                        return v.mat.answer_at(frontier, epoch);
                    }
                }
            }
        }
        base.answer_goal_at(goal, base_frontier, epoch)
    }

    /// Tells the cache a rule was added to the base store. The mirror
    /// program grows so future templates see it; existing templates and
    /// views are built for the old program and are cleared.
    pub fn note_rule_added(&mut self, rule: &Rule) {
        let Some(p) = &mut self.program else {
            return;
        };
        // Pred ids in `rule` come from the caller's symbol table, which
        // extends the one the mirror was built with; pad the mirror's
        // table so rendering and adornment stay in range (the placeholder
        // names only show up in generated predicate names).
        let max_id = std::iter::once(rule.head.pred)
            .chain(rule.body.iter().map(|a| a.pred))
            .map(|p| p.0 as usize)
            .max()
            .unwrap_or(0);
        while p.symbols.num_predicates() <= max_id {
            p.symbols.fresh_predicate("q");
        }
        p.rules.push(rule.clone());
        self.active_mirror.push(true);
        self.clear_views(true);
    }

    /// Tells the cache a rule was dropped from the base store.
    pub fn note_rule_dropped(&mut self, id: RuleId) {
        if self.program.is_none() {
            return;
        }
        let i = id.0 as usize;
        if i < self.active_mirror.len() && self.active_mirror[i] {
            self.active_mirror[i] = false;
            self.clear_views(true);
        }
    }

    // -----------------------------------------------------------------
    // Internals
    // -----------------------------------------------------------------

    /// Reconciles cached state with the base store's observable shape.
    /// Tiers: an unannounced rule change disables the cache outright; a
    /// version that went *backwards* means a different (e.g. restored)
    /// store whose row ids and index slots we never saw — clear
    /// everything; a compaction remapped base row ids that view
    /// justifications and links reference — clear views, keep templates
    /// (prototypes are empty: no row ids, and the base index slots they
    /// link to survive compaction).
    fn validate(&mut self, base: &Materialization) {
        if self.program.is_some() {
            let slots = self.active_mirror.len();
            let slots_ok = base.num_rule_slots() == slots
                && (0..slots).all(|i| base.is_rule_active(RuleId(i as u32)) == self.active_mirror[i]);
            if !slots_ok {
                self.program = None;
                self.clear_views(true);
            } else if base.version() < self.seen_version {
                self.clear_views(true);
            } else if base.compactions() != self.seen_compactions {
                self.clear_views(false);
            }
        }
        self.seen_version = base.version();
        self.seen_compactions = base.compactions();
    }

    fn clear_views(&mut self, templates_too: bool) {
        if !self.views.is_empty() || (templates_too && !self.templates.is_empty()) {
            self.invalidations += 1;
        }
        self.views.clear();
        if templates_too {
            self.templates.clear();
        }
    }

    /// Classifies a goal. Only IDB goals with at least one bound
    /// position, all of whose bound positions are constants, get views;
    /// everything else — EDB/untracked predicates, all-free patterns,
    /// repeated-variable bindings (their seed would need domain
    /// enumeration), disabled cache — filters the base model directly.
    fn route(&self, goal: &Atom) -> Route {
        let Some(p) = &self.program else {
            return Route::Direct;
        };
        if !p.is_idb(goal.pred) {
            return Route::Direct;
        }
        let adn = goal_adornment(goal);
        if !adn.iter().any(|&b| b) {
            return Route::Direct;
        }
        let mut consts = Vec::new();
        for (i, t) in goal.args.iter().enumerate() {
            if adn[i] {
                match t {
                    Term::Const(c) => consts.push(*c),
                    Term::Var(_) => return Route::Direct,
                }
            }
        }
        Route::View(goal.pred, adn, consts)
    }

    /// Makes sure an up-to-date view exists under `key`; `None` means
    /// the pattern has no usable template and the caller must go direct.
    fn ensure_view(
        &mut self,
        base: &mut Materialization,
        goal: &Atom,
        key: &ViewKey,
        adn: &Adornment,
    ) -> Option<()> {
        if let Some(v) = self.views.get_mut(key) {
            if v.synced_version != base.version() {
                let check = v.synced_retracts != base.edb_retracts();
                v.mat.swap_external(base, &v.links);
                v.mat.sync_external(check);
                v.mat.swap_external(base, &v.links);
                v.synced_version = base.version();
                v.synced_retracts = base.edb_retracts();
                self.syncs += 1;
            } else {
                self.hits.fetch_add(1, Ordering::Relaxed);
            }
            v.last_used
                .store(self.clock.fetch_add(1, Ordering::Relaxed) + 1, Ordering::Relaxed);
            return Some(());
        }

        let tkey = (key.0, key.1.clone());
        if !self.templates.contains_key(&tkey) {
            let t = self.build_template(goal.pred, adn, base);
            if t.is_some() {
                self.template_compiles += 1;
            }
            self.templates.insert(tkey.clone(), t);
        }
        // Instantiate: clone the prototype, point its goal at the
        // concrete query, seed the bound constants, run the batch
        // fixpoint with the base swapped in.
        let t = self.templates.get(&tkey)?.as_ref()?;
        let mut mat = t.prototype.clone();
        mat.set_goal(Atom::new(t.goal_pred, goal.args.clone()));
        if base.epoch() > 0 {
            mat.set_epoch(base.epoch());
        }
        let seed: Tuple = key.2.clone();
        let links = t.links.clone();
        let seed_pred = t.seed_pred;
        mat.swap_external(base, &links);
        mat.fill_view(seed_pred, &seed);
        mat.swap_external(base, &links);
        let view = CachedView {
            mat,
            links,
            instance: self.next_instance,
            synced_version: base.version(),
            synced_retracts: base.edb_retracts(),
            last_used: AtomicU64::new(self.clock.fetch_add(1, Ordering::Relaxed) + 1),
        };
        self.next_instance += 1;
        self.misses += 1;
        self.views.insert(key.clone(), view);
        Some(())
    }

    /// Compiles the magic template for one (predicate, adornment) — the
    /// memoized unit. The template program uses only the mirror's
    /// *active* rules, so dropped rules stop contributing the moment the
    /// drop is noted.
    fn build_template(
        &mut self,
        pred: Pred,
        adn: &Adornment,
        base: &mut Materialization,
    ) -> Option<Template> {
        let p = self.program.as_ref()?;
        let active = Program {
            rules: p
                .rules
                .iter()
                .enumerate()
                .filter(|&(i, _)| self.active_mirror.get(i).copied().unwrap_or(true))
                .map(|(_, r)| r.clone())
                .collect(),
            goal: p.goal.clone(),
            symbols: p.symbols.clone(),
        };
        let tpl = magic_template(&active, pred, adn).ok()?;
        let mut prototype = Materialization::new_view(&tpl.program, base.planner_config());
        let links = prototype.link_external(base).ok()?;
        Some(Template {
            prototype,
            links,
            goal_pred: tpl.goal_pred,
            seed_pred: tpl.seed_pred,
        })
    }

    /// LRU/size eviction; the most-recently-used view always survives.
    fn evict(&mut self) {
        while self.views.len() > 1
            && (self.views.len() > self.config.max_views || self.view_rows() > self.config.max_rows)
        {
            let key = self
                .views
                .iter()
                .min_by_key(|(_, v)| v.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone())
                .expect("non-empty");
            self.views.remove(&key);
            self.evictions += 1;
        }
        if self.views.len() > self.config.max_views {
            // max_views == 0: even the freshest view must go.
            self.views.clear();
            self.evictions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Program;
    use crate::db::Database;
    use crate::eval::Strategy;
    use crate::magic::magic_transform;
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

    /// The from-scratch reference: magic-transform the concretely-bound
    /// goal against the current EDB and batch-evaluate.
    fn oracle(p: &Program, goal: &Atom, edb: &Database) -> Vec<Tuple> {
        let mut pg = p.clone();
        pg.goal = goal.clone();
        let m = magic_transform(&pg).expect("transformable");
        let (ans, _) = crate::eval::answer(&m.program, edb, Strategy::SemiNaive);
        ans.sorted()
    }

    #[test]
    fn cached_answers_match_the_batch_magic_oracle_through_churn() {
        let mut p = parse_program(SRC).unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        let edges = chain(&mut p, 16);
        let mut edb = Database::new();
        let mut base = Materialization::from_database(&p, &edb, Strategy::SemiNaive);
        // No auto-compaction: this test asserts the view is *maintained*
        // across every step, never cleared and rebuilt.
        base.set_compaction_policy(None);
        let mut cache = QueryCache::new(&p);
        let goal = p.goal.clone();

        // Interleave inserts, retracts and queries; at every query the
        // live view must agree with a from-scratch transform of the
        // current EDB (and the read path must agree with the write
        // path).
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
                    base.insert_facts(par, &edges[r.clone()]);
                    for e in &edges[r.clone()] {
                        edb.insert(par, e.clone());
                    }
                }
                "ret" => {
                    base.retract_facts(par, &edges[r.clone()]);
                    for e in &edges[r.clone()] {
                        edb.remove(par, e);
                    }
                }
                _ => {
                    let got = cache.query(&mut base, &goal).sorted();
                    assert_eq!(got, oracle(&p, &goal, &edb));
                    assert_eq!(
                        cache.lookup(&base, &goal).expect("synced").sorted(),
                        got,
                        "read path agrees with write path"
                    );
                }
            }
        }
        let s = cache.stats();
        assert_eq!(s.misses, 1, "one view, maintained — never rebuilt");
        assert!(s.syncs >= 3, "queries after churn caught the view up");
        assert_eq!(s.invalidations, 0);
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
        cache.query(&mut base, &g_c1);
        cache.query(&mut base, &g_c2); // evicts john (LRU)
        let s = cache.stats();
        assert_eq!(s.views, 2);
        assert!(s.evictions >= 1);

        // Requery after eviction: rebuilt, identical answers.
        assert_eq!(cache.query(&mut base, &g_john).sorted(), baseline);
        assert_eq!(cache.query(&mut base, &g_john).sorted(), oracle(&p, &g_john, &edb));
        assert_eq!(cache.stats().template_compiles, 1, "template survived eviction");

        // max_views = 0 keeps nothing but still answers exactly.
        cache.set_config(CacheConfig { max_views: 0, max_rows: 1 << 22 });
        assert_eq!(cache.query(&mut base, &g_c1).sorted(), oracle(&p, &g_c1, &edb));
        assert_eq!(cache.stats().views, 0);
    }

    #[test]
    fn unannounced_rule_change_disables_the_cache() {
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
        assert!(cache.is_enabled());

        // A rule added behind the cache's back (not via note_rule_added):
        // the slot mirror no longer matches, so the cache shuts off —
        // and keeps answering exactly, just uncached.
        base.add_rule(p.rules[0].clone());
        assert_eq!(
            cache.query(&mut base, &goal).sorted(),
            base.answer().sorted()
        );
        assert!(!cache.is_enabled());
        assert_eq!(cache.stats().views, 0);
        assert!(cache.stats().invalidations >= 1);
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
        base.retract_facts(par, &edges[6..]);
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

            let view = |cache: &QueryCache| cache.views.values().next().expect("one view").mat.stats();
            let before = view(&cache);
            assert_eq!(cache.query(&mut base, &goal).len(), 1);
            assert_eq!(cache.stats().syncs, 1, "the query caught the view up");
            let after = view(&cache);
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

    /// Base churn that is irrelevant to a view costs the view close to
    /// nothing where the rule joins it directly behind the magic guard:
    /// those items run guard-first (one probe per magic row into the
    /// delta range), not delta-first (one probe per delta row). Only
    /// the `b2` atoms, which sit deeper in their rules, are met from
    /// the delta's side — three probes per inserted pair.
    #[test]
    fn irrelevant_churn_next_to_the_guard_is_met_from_the_views_side() {
        let sync_probes = |pairs: usize| {
            let mut p = parse_program(SRC_S7).unwrap();
            let edb = layered(&mut p, 6, 30);
            let b1 = p.symbols.get_predicate("b1").unwrap();
            let b2 = p.symbols.get_predicate("b2").unwrap();
            let mut base = Materialization::from_database(&p, &edb, Strategy::SemiNaive);
            let mut cache = QueryCache::new(&p);
            let goal = p.goal.clone();
            let answer = cache.query(&mut base, &goal).sorted();
            let mut round = crate::materialize::UpdateRound::new();
            for i in 0..pairs {
                let a = p.symbols.constant(&format!("fresh_a{i}"));
                let b = p.symbols.constant(&format!("fresh_b{i}"));
                round = round.insert(b1, vec![a, b]).insert(b2, vec![b, a]);
            }
            base.apply(&round);
            let view = |cache: &QueryCache| cache.views.values().next().expect("one view").mat.stats();
            let before = view(&cache);
            assert_eq!(cache.query(&mut base, &goal).sorted(), answer);
            let after = view(&cache);
            assert_eq!(after.tuples_derived, before.tuples_derived, "nothing was relevant");
            after.join_probes - before.join_probes
        };
        // The magic set of `c` is {c, u1..u6}: seven rows, however many
        // pairs arrive. Delta-first throughout would cost six probes
        // per pair (the three b1 items one each) instead of three.
        let (small, large) = (sync_probes(40), sync_probes(140));
        assert_eq!(large - small, 3 * 100, "only the b2 items scale with the delta");
    }

    /// Every index a view will ever probe is registered when its
    /// template is linked — and the update plans add none to the base
    /// beyond what views always needed. On program A the first query
    /// registers `par[1]`: the view's re-derivation plan enters
    /// `anc(x, y)` through `par(Z, y)`, the atom with the small fan-in,
    /// and tests `anc(x, z)` and `par(x, y)` against the dedup tables,
    /// which need no index. On Section 7 it registers `b1[0]` (the
    /// view's batch plans probe `b1` behind the magic guard) and
    /// `b2[1]` (the rescue of the recursive rule reaches `p(X1, Y1)`
    /// through `b2(Y1, y)`); `b1[1]`, which the rescue of a magic row
    /// enters through, the base's own plans already maintain, like
    /// everything else the view probes. Later queries register nothing.
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
        assert_eq!(a, par_rows as u64, "program A: par[1]");
        let s7 = growth(SRC_S7, &|p| layered(p, 6, 40));
        assert_eq!(s7, 2 * (6 + 40), "Section 7: b1[0] and b2[1]");
    }

    #[test]
    fn disabled_cache_is_permanently_direct() {
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
        assert!(!cache.is_enabled());
        assert_eq!(
            cache.query(&mut base, &goal).sorted(),
            base.answer().sorted()
        );
        assert_eq!(
            cache.lookup(&base, &goal).expect("direct is always ready").sorted(),
            base.answer().sorted()
        );
        assert_eq!(cache.stats().views, 0);
        assert!(cache.stats().direct >= 2);
    }
}
