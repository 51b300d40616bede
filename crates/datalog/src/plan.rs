//! Compiled join plans and the **cost-based join planner**.
//!
//! The plan vocabulary (`KeyOp`, `Action`, `Out`, `Step`, `RulePlan`)
//! and its compilers (`compile_rule`, `compile_step`), behind two
//! planning entry points that differ only in the body order and in
//! whether the head is input: `plan_rule`, which every consumer — batch
//! evaluation, incremental rounds, magic-set views, rule hot-swap —
//! compiles its rules' plans through, and `plan_rescue`, the DRed rescue
//! plan of a rule. `BENCHMARK.json` reads this layer as `plan.*`.
//!
//! What the planner adds on top of the mechanical compilation:
//!
//! - **One plan per body atom** (`plan_rule`): a rule's plan `k` runs
//!   atom `k` **first** and orders the rest greedily, preferring atoms
//!   with the most bound positions (constants + variables bound by
//!   earlier steps), breaking ties toward the smaller relation and then
//!   the original position (`order_body`). Every round — of a build as
//!   of an update — runs its `(rule, k)` items through plan `k`, so the
//!   delta is scanned at depth 0 and everything else is probed keyed: an
//!   update round costs O(|Δ| + derivations), never a scan of the store.
//!   Snapshot ranges follow **rule-text order** (atom `j < k` reads the
//!   full relation, `j > k` its old part — `RulePlan::body_of_step`), so
//!   any plan of a rule can run any of its items.
//! - **A seeding pass enters through the atom the planner picks first**
//!   (`seed_atom`): the first round of a build, and of a rule add, runs
//!   each rule once over the whole settled store on the plan of that
//!   atom — most constants, then the fewest rows the store holds when
//!   the pass runs, then the text position — and not at all when that
//!   relation is empty, as a magic relation is before its seed.
//!   Plan cardinalities are the row counts after the EDB load
//!   ([`crate::storage::ColumnarRelation::num_live`]), persisted, so the
//!   same program and database always compile the same plans. All plans
//!   are **static**: compiled where the store is built (or a rule is
//!   added, or a snapshot restored — from the persisted cardinalities, so
//!   a restored store does identical work) and never revised; every index
//!   a round will ever probe is registered up front, and filled by the
//!   first round that needs it.
//! - **Selectivity-ordered rescue plans** (`plan_rescue`): the DRed
//!   rescue of an over-deleted row runs the rule body with the head
//!   bound, entering through the atom with the smallest fan-in
//!   (`rederive_order`) and answering fully bound atoms from the dedup
//!   table instead of an index, so a retract round costs what the insert
//!   round that derived the rows cost. A bound head variable keys every
//!   atom it occurs in, but an atom keyed on it may still match its whole
//!   fan-out (`anc(x, _)` has one row per descendant of `x`), hence the
//!   order. A rescue plan is a `RulePlan` like any other, compiled with
//!   the head as input and run by the join like any other, which stops
//!   at its first full instantiation (`RulePlan::existential`); every
//!   store that records justifications compiles it with the rule's
//!   update plans, and its indexes are registered and extended like all
//!   others.
//! - **Staged-head existence ordering**: `RulePlan::head_ready_depth`
//!   marks the first join depth at which every head position is bound;
//!   when that is before the last step, the join probes the head
//!   relation's dedup table there and prunes the entire remaining
//!   suffix for heads that already exist. At the firing point a
//!   candidate head is looked up first in a per-shard staged-head
//!   filter, which suppresses re-staging duplicates within a pass, and
//!   only on a miss in the head relation's dedup table. The order is
//!   sound because a pass reads a frozen store and a staged head was
//!   absent from it when staged; it is fast because the filter is small
//!   and hot and, in a dense closure, most candidates repeat a head
//!   their pass already staged. `rule_firings` therefore counts
//!   **productive** firings —
//!   head tuples actually added, at merge time — which are shard- and
//!   order-invariant where completed body instantiations are not.
//! - **Transitive-closure kernel recognition** (`RulePlan::tc`): the
//!   binary-recursive shape `tc(x,z) :- tc(x,y), e(y,z)` (and its
//!   right-linear / nonlinear variants) is detected structurally so the
//!   join can run a specialized two-level loop instead of the general
//!   recursive descent. The kernel is enumeration-order- and
//!   counter-identical to the generic join — recognition changes speed,
//!   never results.
//!
//! Justifications are recorded in **original rule-body order**
//! whatever order the steps run in (`RulePlan::step_of_body` maps
//! body atom → step depth), so recorded provenance stays a positional
//! instantiation of the rule text and every existing decoder
//! (delete–rederive, compaction remap, persistence validation,
//! [`crate::derivation::Provenance::check`]) is order-independent.

use crate::ast::{Atom, Const, Pred, Rule, Term, Var};
use crate::hash::FxHashMap;
use crate::storage::IncrementalIndex;

/// Sentinel index id for unkeyed (empty-mask) steps: they scan rows
/// directly, so no [`IncrementalIndex`] exists for them.
pub(crate) const NO_INDEX: usize = usize::MAX;

/// How the planner orders rule bodies: the one setting of a
/// [`crate::materialize::Materialization`], fixed at construction and
/// persisted. `body_order` reads it to pick the body permutation of
/// every plan — a rule's plans and its rescue plan — and nothing else
/// does: both modes compile and run alike.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OrderMode {
    /// Greedy selectivity-aware ordering.
    Planned,
    /// A deterministic pseudo-random permutation per plan, derived from
    /// the seed. Any order is semantically valid — this mode exists so
    /// property tests can drive the engine through adversarial orders
    /// and still compare models and provenance exactly.
    Shuffled(u64),
}

/// What a body order is for: which atom, if any, must lead, and what is
/// bound before the first step.
#[derive(Clone, Copy, Debug)]
enum Purpose<'a> {
    /// The plan led by this body position.
    Lead(usize),
    /// The rescue plan: the head variables are bound. Carries the
    /// program's IDB predicates ([`rederive_order`] ranks by them).
    Rescue(&'a [Pred]),
}

/// A key component of a join step: where the bound value comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum KeyOp {
    /// A constant from the rule text.
    Const(Const),
    /// A rule-local slot bound by an earlier step.
    Slot(usize),
}

/// What to do with one *unguaranteed* argument position of a matched row.
/// Positions covered by the index mask are skipped entirely: the probe
/// already guaranteed them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Action {
    /// First occurrence of a free slot in this atom: bind it.
    Bind {
        /// Argument position within the atom.
        pos: usize,
        /// The rule-local slot to bind.
        slot: usize,
    },
    /// Repeated occurrence within this atom: must equal the bound value.
    Check {
        /// Argument position within the atom.
        pos: usize,
        /// The already-bound rule-local slot to compare against.
        slot: usize,
    },
}

/// Where a head position comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Out {
    /// A constant from the rule text.
    Const(Const),
    /// A bound slot.
    Slot(usize),
}

/// One body atom, compiled: which relation/index to probe, how to build
/// the probe key, and how to bind/check the remaining positions.
#[derive(Clone, Debug)]
pub(crate) struct Step {
    pub(crate) rel: usize,
    /// Index id, or [`NO_INDEX`] for steps that register no index at
    /// all: unkeyed steps (empty mask), which scan their row range
    /// directly, and the full-key steps of a rescue plan, which take the
    /// row the dedup table holds for the key if it is in their range.
    pub(crate) idx: usize,
    pub(crate) key: Box<[KeyOp]>,
    pub(crate) actions: Box<[Action]>,
}

/// A rule compiled to a flat join plan, steps in **planner order**.
#[derive(Clone, Debug)]
pub(crate) struct RulePlan {
    /// The rule slot this plan belongs to (recorded in justifications).
    pub(crate) rule: u32,
    pub(crate) head_rel: u32,
    pub(crate) head: Box<[Out]>,
    pub(crate) steps: Box<[Step]>,
    pub(crate) num_slots: usize,
    /// Dense relation id of each **original** body atom — the decode
    /// order of recorded justifications, invariant under reordering, so
    /// the same in every plan of a rule.
    pub(crate) body_rels: Box<[u32]>,
    /// `step_of_body[k]` = the step depth that runs original body atom
    /// `k`. Staging permutes the per-depth matched rows through this
    /// map so justifications are always recorded in rule-text order.
    pub(crate) step_of_body: Box<[usize]>,
    /// The inverse: `body_of_step[d]` = the original body atom run at
    /// step depth `d`. Snapshot ranges are keyed on it.
    pub(crate) body_of_step: Box<[usize]>,
    /// First join depth at which every head position is bound (0 =
    /// before any step; `steps.len()` = only at full instantiation),
    /// where the join prunes a head that exists. An existential plan's
    /// is `steps.len()`: it never prunes, so a candidate another pass
    /// re-derived is still searched, and its probes counted.
    pub(crate) head_ready_depth: usize,
    /// Whether this plan has the binary-recursive transitive-closure
    /// shape the specialized kernel handles (never an existential plan).
    pub(crate) tc: bool,
    /// Whether the plan only asks if its given head is derivable (a
    /// rescue plan): the join stops at its first full instantiation.
    pub(crate) existential: bool,
}

// ---------------------------------------------------------------------
// Ordering
// ---------------------------------------------------------------------

/// The greedy loop both planners share: repeatedly pick the unchosen
/// atom with the smallest `rank(atom, bound positions)` — constants and
/// variables in `bound` (the head variables of a re-derivation, plus
/// whatever the atoms chosen so far bind) count as bound — the earlier
/// textual position winning ties. With `lead = Some(k)` the first pick is
/// forced to atom `k`.
fn greedy_order<K: Ord>(
    rule: &Rule,
    lead: Option<usize>,
    mut bound: Vec<Var>,
    rank: &mut dyn FnMut(&Atom, usize) -> K,
) -> Vec<usize> {
    let n = rule.body.len();
    let mut chosen = vec![false; n];
    let mut out = Vec::with_capacity(n);
    for pick in 0..n {
        let forced = lead.filter(|_| pick == 0);
        let ai = forced.unwrap_or_else(|| {
            let mut best: Option<(usize, K)> = None;
            for (ai, atom) in rule.body.iter().enumerate() {
                if chosen[ai] {
                    continue;
                }
                let b = atom
                    .args
                    .iter()
                    .filter(|t| match t {
                        Term::Const(_) => true,
                        Term::Var(v) => bound.contains(v),
                    })
                    .count();
                let k = rank(atom, b);
                // Strict comparison: first-seen (lowest textual
                // position) wins ties.
                if best.as_ref().is_none_or(|(_, bk)| k < *bk) {
                    best = Some((ai, k));
                }
            }
            best.expect("nonempty body").0
        });
        chosen[ai] = true;
        for t in &rule.body[ai].args {
            if let Term::Var(v) = t {
                if !bound.contains(v) {
                    bound.push(*v);
                }
            }
        }
        out.push(ai);
    }
    out
}

/// Greedy selectivity-aware body order: repeatedly pick the unchosen
/// atom with the most bound argument positions (constants plus
/// variables bound by already-chosen atoms), breaking ties toward the
/// smaller relation cardinality and then the earlier textual position.
/// With `lead = Some(k)` the first pick is forced to atom `k` and the
/// greedy choice orders the rest.
///
/// Pure and deterministic in `(rule, lead, card)`; the engine calls it
/// with build-time row counts, at which IDB relations count 0.
fn order_body(rule: &Rule, lead: Option<usize>, card: &mut dyn FnMut(Pred) -> u64) -> Vec<usize> {
    greedy_order(rule, lead, Vec::new(), &mut |atom, b| {
        (std::cmp::Reverse(b), card(atom.pred))
    })
}

/// The body order of a **re-derivation plan**: the head variables are
/// bound before the first step, and each pick takes
///
/// 1. an atom whose every position is bound — a membership test — else
/// 2. an atom with a bound position over an unkeyed one (ranked above
///    the next rule: an unkeyed EDB atom is a scan of the store),
/// 3. an EDB atom over an IDB atom — the derived relation of a
///    recursive rule is the closure of the stored one, so keyed on the
///    same variable it matches at least as many rows,
/// 4. fewer unbound positions,
/// 5. the smaller `card` — the store's persisted build-time
///    cardinalities, never live row counts: those grow with unrelated
///    rows, and a restored store must compile the plans of the live one,
/// 6. the earlier textual position.
fn rederive_order(rule: &Rule, idbs: &[Pred], card: &mut dyn FnMut(Pred) -> u64) -> Vec<usize> {
    greedy_order(rule, None, rule.head.vars().collect(), &mut |atom, b| {
        let unbound = atom.args.len() - b;
        (unbound != 0, b == 0, idbs.contains(&atom.pred), unbound, card(atom.pred))
    })
}

/// A deterministic Fisher–Yates shuffle (xorshift64) of `atoms` from
/// `(seed, rule_idx, salt)`. The mixed seed goes through the splitmix64
/// finalizer first: the first draw's low bit — the whole choice for a
/// two-atom tail — would otherwise read one bit of the seed, and every
/// seed below 128 would give the same order.
fn shuffle(atoms: &mut [usize], seed: u64, rule_idx: u32, salt: usize) {
    let mut s = seed
        ^ (u64::from(rule_idx) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (salt as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
    s = (s ^ (s >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    s = (s ^ (s >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    s = (s ^ (s >> 31)) | 1;
    for i in (1..atoms.len()).rev() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        atoms.swap(i, (s % (i as u64 + 1)) as usize);
    }
}

/// The body permutation of one plan: `order[d]` is the original
/// body-atom index run at step depth `d`. The one place the mode is
/// read: [`OrderMode::Planned`] ranks the atoms the `purpose` leaves
/// free, [`OrderMode::Shuffled`] permutes them — the whole body of a
/// rescue plan, the tail behind the leading atom of a rule's plan —
/// from `(seed, rule_idx, purpose)`.
fn body_order(
    rule: &Rule,
    rule_idx: u32,
    purpose: Purpose,
    mode: OrderMode,
    card: &mut dyn FnMut(Pred) -> u64,
) -> Vec<usize> {
    let OrderMode::Shuffled(seed) = mode else {
        return match purpose {
            Purpose::Lead(k) => order_body(rule, Some(k), card),
            Purpose::Rescue(idbs) => rederive_order(rule, idbs, card),
        };
    };
    let n = rule.body.len();
    let mut order: Vec<usize> = (0..n).collect();
    match purpose {
        Purpose::Lead(_) if n == 0 => {}
        Purpose::Lead(k) => {
            order[..=k].rotate_right(1);
            shuffle(&mut order[1..], seed, rule_idx, k + 1);
        }
        Purpose::Rescue(_) => shuffle(&mut order, seed, rule_idx, n + 1),
    }
    order
}

// ---------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------

/// Compiles one body atom against the slot state: the index mask (bound
/// positions), probe key ops and bind/check actions, registering the
/// `(relation, mask)` index it probes. `bound_slots` is updated with the
/// slots this atom binds. With `dedup_full_key`, a step whose key covers
/// every argument position registers nothing: its key *is* the tuple,
/// and the caller looks it up in the relation's dedup table.
fn compile_step(
    atom: &Atom,
    rel: usize,
    slots: &mut FxHashMap<Var, usize>,
    bound_slots: &mut Vec<bool>,
    dedup_full_key: bool,
    idxs: &mut Vec<IncrementalIndex>,
    idx_of: &mut FxHashMap<(usize, Vec<usize>), usize>,
) -> Step {
    let mut mask: Vec<usize> = Vec::new();
    let mut key: Vec<KeyOp> = Vec::new();
    let mut actions: Vec<Action> = Vec::new();
    let mut seen_here: Vec<usize> = Vec::new();
    for (i, t) in atom.args.iter().enumerate() {
        match t {
            Term::Const(c) => {
                mask.push(i);
                key.push(KeyOp::Const(*c));
            }
            Term::Var(v) => {
                let next = slots.len();
                let s = *slots.entry(*v).or_insert(next);
                if s >= bound_slots.len() {
                    bound_slots.resize(s + 1, false);
                }
                if bound_slots[s] {
                    // Bound by an earlier atom (or the re-derivation
                    // head): part of the index key; the probe guarantees
                    // equality, so no action.
                    mask.push(i);
                    key.push(KeyOp::Slot(s));
                } else if seen_here.contains(&s) {
                    // Repeat within this atom: a filter, not a key
                    // component.
                    actions.push(Action::Check { pos: i, slot: s });
                } else {
                    seen_here.push(s);
                    actions.push(Action::Bind { pos: i, slot: s });
                }
            }
        }
    }
    for &s in &seen_here {
        bound_slots[s] = true;
    }
    // Unkeyed steps scan their snapshot range directly — an empty-mask
    // index would never be extended or probed, so none is registered.
    let idx = if mask.is_empty() || (dedup_full_key && mask.len() == atom.args.len()) {
        NO_INDEX
    } else {
        *idx_of.entry((rel, mask.clone())).or_insert_with(|| {
            idxs.push(IncrementalIndex::new(rel, mask));
            idxs.len() - 1
        })
    };
    Step {
        rel,
        idx,
        key: key.into_boxed_slice(),
        actions: actions.into_boxed_slice(),
    }
}

/// First prefix length after which every head position is bound: 0 for
/// all-constant heads, `steps.len()` when a head slot is bound only by
/// the last step.
fn head_ready_depth(head: &[Out], steps: &[Step]) -> usize {
    let need: Vec<usize> = head
        .iter()
        .filter_map(|o| match o {
            Out::Slot(s) => Some(*s),
            Out::Const(_) => None,
        })
        .collect();
    let mut bound: Vec<usize> = Vec::new();
    for (d, step) in steps.iter().enumerate() {
        if need.iter().all(|s| bound.contains(s)) {
            return d;
        }
        for a in step.actions.iter() {
            if let Action::Bind { slot, .. } = a {
                bound.push(*slot);
            }
        }
    }
    steps.len()
}

/// Structural recognition of the binary-recursive transitive-closure
/// shape: an unkeyed first step binding both columns of a binary atom,
/// a second step over a binary relation keyed on exactly one of those
/// slots and binding the other column, and a head projecting two bound
/// slots. Covers the linear (`tc(x,z) :- tc(x,y), e(y,z)`),
/// right-linear and nonlinear variants in any planner order.
fn tc_shape(head: &[Out], steps: &[Step]) -> bool {
    if steps.len() != 2 || head.len() != 2 {
        return false;
    }
    let (s0, s1) = (&steps[0], &steps[1]);
    // First step: full scan of a binary atom, two fresh binds.
    if s0.idx != NO_INDEX || !s0.key.is_empty() || s0.actions.len() != 2 {
        return false;
    }
    let (a, b) = match (s0.actions[0], s0.actions[1]) {
        (Action::Bind { pos: 0, slot: a }, Action::Bind { pos: 1, slot: b }) if a != b => (a, b),
        _ => return false,
    };
    // Second step: keyed on exactly one column by one of those slots,
    // binding the other column to a fresh slot.
    if s1.idx == NO_INDEX || s1.key.len() != 1 || s1.actions.len() != 1 {
        return false;
    }
    if !matches!(s1.key[0], KeyOp::Slot(s) if s == a || s == b) {
        return false;
    }
    let c = match s1.actions[0] {
        Action::Bind { pos, slot } if pos < 2 && slot != a && slot != b => slot,
        _ => return false,
    };
    // Head: two bound slots (any combination of a, b, c).
    head.iter().all(|o| matches!(o, Out::Slot(s) if *s == a || *s == b || *s == c))
}

/// Compiles one rule against the dense relation table in the given body
/// `order`, registering the `(relation, mask)` indexes it probes.
///
/// With `head_input` — a rescue plan, which checks whether a given head
/// tuple is derivable — the head variables take the first slots, bound
/// before the first step, so the body step masks include them; a step
/// whose key covers every position registers no index and is answered
/// by the relation's dedup table. The plan is existential, never prunes
/// on its head and never runs the kernel.
///
/// The index masks (bound positions) determine the `join_probes`
/// counter, which the test suites pin on fixed inputs.
fn compile_rule(
    rule: &Rule,
    rule_idx: u32,
    rel_of_pred: &FxHashMap<Pred, u32>,
    idxs: &mut Vec<IncrementalIndex>,
    idx_of: &mut FxHashMap<(usize, Vec<usize>), usize>,
    order: &[usize],
    head_input: bool,
) -> RulePlan {
    debug_assert_eq!(order.len(), rule.body.len());
    let mut slots: FxHashMap<Var, usize> = FxHashMap::default();
    if head_input {
        for v in rule.head.vars() {
            let next = slots.len();
            slots.entry(v).or_insert(next);
        }
    }
    let mut bound_slots: Vec<bool> = vec![true; slots.len()];
    let mut steps = Vec::new();
    let mut step_of_body = vec![0usize; rule.body.len()];
    for (d, &ai) in order.iter().enumerate() {
        let atom = &rule.body[ai];
        step_of_body[ai] = d;
        let rel = rel_of_pred[&atom.pred] as usize;
        steps.push(compile_step(atom, rel, &mut slots, &mut bound_slots, head_input, idxs, idx_of));
    }
    let head: Box<[Out]> = rule
        .head
        .args
        .iter()
        .map(|t| match t {
            Term::Const(c) => Out::Const(*c),
            Term::Var(v) => Out::Slot(*slots.get(v).expect("safe rule binds head slots")),
        })
        .collect();
    let body_rels: Box<[u32]> = rule.body.iter().map(|a| rel_of_pred[&a.pred]).collect();
    let hrd = if head_input { steps.len() } else { head_ready_depth(&head, &steps) };
    let tc = !head_input && tc_shape(&head, &steps);
    RulePlan {
        rule: rule_idx,
        head_rel: rel_of_pred[&rule.head.pred],
        head,
        steps: steps.into_boxed_slice(),
        num_slots: slots.len(),
        body_rels,
        step_of_body: step_of_body.into_boxed_slice(),
        body_of_step: order.into(),
        head_ready_depth: hrd,
        tc,
        existential: head_input,
    }
}

/// Plans and compiles the plans of one rule, one per body atom (one for
/// an empty body): plan `k` led by body atom `k`, the rest behind it in
/// the mode's order (the planner's greedy order breaks ties by `card`,
/// the store's persisted build-time cardinalities, then by textual
/// position). The single entry point every consumer uses.
///
/// The order is computed from `order_by` — `rule` itself everywhere but
/// in a template store ([`crate::cache`]), whose rules are those of a
/// magic template with a tag column prepended to the template's own
/// atoms. There `order_by` is the untagged rule: the tag is bound as
/// soon as any own atom has run, and counted as a bound position it
/// would tip every own-versus-EDB tie the planner's way — `m(T, X)` on
/// its tag alone, a walk over a view's whole magic set, ahead of
/// `b1(X, X1)` keyed on `X1`. Ordered by the untagged rule, a template
/// store runs the template's plans with one more key column, and
/// registers exactly the template's indexes over the shared EDB.
#[allow(clippy::too_many_arguments)]
pub(crate) fn plan_rule(
    rule: &Rule,
    order_by: &Rule,
    rule_idx: u32,
    rel_of_pred: &FxHashMap<Pred, u32>,
    idxs: &mut Vec<IncrementalIndex>,
    idx_of: &mut FxHashMap<(usize, Vec<usize>), usize>,
    mode: OrderMode,
    card: &mut dyn FnMut(Pred) -> u64,
) -> Vec<RulePlan> {
    (0..rule.body.len().max(1))
        .map(|k| {
            let order = body_order(order_by, rule_idx, Purpose::Lead(k), mode, card);
            compile_rule(rule, rule_idx, rel_of_pred, idxs, idx_of, &order, false)
        })
        .collect()
}

/// The body atom a **seeding pass** of `rule` enters through — one pass
/// over the whole settled store, on the plan that atom leads: the
/// planner's first pick with nothing bound ([`order_body`]: the most
/// constants, then the fewest `rows` — what each relation holds when the
/// pass runs — then the earlier textual position), under every
/// [`OrderMode`]. `None` for an empty body.
pub(crate) fn seed_atom(rule: &Rule, rows: &mut dyn FnMut(Pred) -> u64) -> Option<usize> {
    order_body(rule, None, rows).first().copied()
}

/// Plans and compiles the **rescue plan** of one rule: the plan with the
/// head as input ([`compile_rule`]) in the rescue order, which enters the
/// body through the atom with the smallest fan-in ([`rederive_order`];
/// `idbs` are the program's IDB predicates). `order_by` as in
/// [`plan_rule`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn plan_rescue(
    rule: &Rule,
    order_by: &Rule,
    rule_idx: u32,
    idbs: &[Pred],
    rel_of_pred: &FxHashMap<Pred, u32>,
    idxs: &mut Vec<IncrementalIndex>,
    idx_of: &mut FxHashMap<(usize, Vec<usize>), usize>,
    mode: OrderMode,
    card: &mut dyn FnMut(Pred) -> u64,
) -> RulePlan {
    let order = body_order(order_by, rule_idx, Purpose::Rescue(idbs), mode, card);
    compile_rule(rule, rule_idx, rel_of_pred, idxs, idx_of, &order, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use std::collections::HashSet;

    fn rules(src: &str) -> Vec<Rule> {
        parse_program(src).unwrap().rules
    }

    /// Dense relation ids for every predicate appearing in the program.
    fn rel_table(p: &crate::ast::Program) -> FxHashMap<Pred, u32> {
        let mut rel_of: FxHashMap<Pred, u32> = FxHashMap::default();
        let intern = |pr: Pred, rel_of: &mut FxHashMap<Pred, u32>| {
            let next = u32::try_from(rel_of.len()).unwrap();
            rel_of.entry(pr).or_insert(next);
        };
        for r in &p.rules {
            intern(r.head.pred, &mut rel_of);
            for a in &r.body {
                intern(a.pred, &mut rel_of);
            }
        }
        rel_of
    }

    /// Programs A, B, C of Example 1.1 (left-linear, right-linear,
    /// nonlinear ancestor) and the Section 7 program.
    const SRC_A: &str =
        "?- anc(john, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), par(Z, Y).";
    const SRC_B: &str =
        "?- anc(john, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- par(X, Z), anc(Z, Y).";
    const SRC_C: &str =
        "?- anc(john, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), anc(Z, Y).";
    const SRC_S7: &str = "?- p(c, Y).\np(X, Y) :- b1(X, X1), b2(X1, Y).\n\
                          p(X, Y) :- b1(X, X1), p(X1, Y1), b2(Y1, Y).";

    /// `(relation, mask)` of registered indexes.
    type IndexKeys = Vec<(usize, Vec<usize>)>;

    /// The plans of rule `rule` of `src`, with EDB relations counted
    /// large and the IDB empty (what `build` sees after the EDB load):
    /// the plans, and the `(relation, mask)` of every index they
    /// registered.
    fn plans_of(
        src: &str,
        rule: usize,
        mode: OrderMode,
    ) -> (crate::ast::Program, Vec<RulePlan>, IndexKeys) {
        let p = parse_program(src).unwrap();
        let rel_of = rel_table(&p);
        let idbs = p.idb_predicates();
        let mut idxs = Vec::new();
        let mut idx_of = FxHashMap::default();
        let mut card = |pr: Pred| if idbs.contains(&pr) { 0 } else { 1000 };
        let r = &p.rules[rule];
        let id = u32::try_from(rule).unwrap();
        let plans = plan_rule(r, r, id, &rel_of, &mut idxs, &mut idx_of, mode, &mut card);
        let registered = idxs.iter().map(|i| (i.rel(), i.mask().to_vec())).collect();
        (p, plans, registered)
    }

    #[test]
    fn every_delta_atom_leads_its_update_plan() {
        for src in [SRC_A, SRC_B, SRC_C, SRC_S7] {
            let (p, plans, _) = plans_of(src, 1, OrderMode::Planned);
            assert_eq!(plans.len(), p.rules[1].body.len(), "{src}");
            for (k, plan) in plans.iter().enumerate() {
                assert_eq!(plan.body_of_step[0], k, "atom {k} leads: {src}");
                assert_eq!(plan.step_of_body[k], 0, "{src}");
                // Everything behind the delta is probed keyed: the
                // update never scans a relation it was not handed.
                for step in &plan.steps[1..] {
                    assert!(!step.key.is_empty(), "unkeyed step behind the delta: {src}");
                }
                // step_of_body and body_of_step are inverse permutations.
                for (d, &b) in plan.body_of_step.iter().enumerate() {
                    assert_eq!(plan.step_of_body[b], d, "{src}");
                }
            }
        }
    }

    #[test]
    fn section_7_update_plans_order_the_rest_by_boundness() {
        let (p, plans, registered) = plans_of(SRC_S7, 1, OrderMode::Planned);
        let orders: Vec<&[usize]> = plans.iter().map(|pl| &*pl.body_of_step).collect();
        // b1 leads: p is bound on X1, then b2 on Y1. p leads: b1 and b2
        // tie on one bound column and equal size, textual order decides.
        // b2 leads: p is bound on Y1, then b1 on X1.
        assert_eq!(orders, [&[0, 1, 2][..], &[1, 0, 2], &[2, 1, 0]]);
        // The b2-led plan is the one that needs p indexed on column 1.
        let rel_of = rel_table(&p);
        let p_rel = rel_of[&p.rules[1].head.pred] as usize;
        assert!(registered.contains(&(p_rel, vec![1])), "{registered:?}");
        assert!(registered.contains(&(p_rel, vec![0])), "{registered:?}");
    }

    #[test]
    fn tc_kernel_is_recognised_on_both_update_plans() {
        for src in [SRC_A, SRC_B, SRC_C] {
            let (_, plans, _) = plans_of(src, 1, OrderMode::Planned);
            assert_eq!(plans.len(), 2);
            for (k, plan) in plans.iter().enumerate() {
                assert!(plan.tc, "delta atom {k}: {src}");
            }
        }
    }

    /// The delta atom leads under every mode; what `Shuffled` permutes
    /// is the tail behind it.
    #[test]
    fn shuffled_update_plans_lead_with_the_delta_atom() {
        let orders = |seed: u64| -> Vec<Vec<usize>> {
            let (_, plans, _) = plans_of(SRC_S7, 1, OrderMode::Shuffled(seed));
            plans.iter().map(|pl| pl.body_of_step.to_vec()).collect()
        };
        let seven = orders(7);
        assert_eq!(seven.len(), 3, "one update plan per body atom");
        for (k, order) in seven.iter().enumerate() {
            assert_eq!(order[0], k, "atom {k} leads");
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, [0, 1, 2], "a permutation");
        }
        // Seed 9 runs every tail of seed 7 the other way round.
        for (k, (nine, seven)) in orders(9).iter().zip(&seven).enumerate() {
            assert_ne!(nine, seven, "plan {k}: the mode still shuffles");
        }
    }

    /// Small seeds reach both orders of a two-atom tail: over seeds
    /// `0..16`, each of S7's three update plans runs its tail both ways.
    #[test]
    fn small_seeds_shuffle_a_two_atom_tail_both_ways() {
        for k in 0..3 {
            let tails: HashSet<Vec<usize>> = (0..16)
                .map(|seed| {
                    let (_, plans, _) = plans_of(SRC_S7, 1, OrderMode::Shuffled(seed));
                    plans[k].body_of_step[1..].to_vec()
                })
                .collect();
            assert_eq!(tails.len(), 2, "update plan {k}: {tails:?}");
        }
    }

    #[test]
    fn planned_order_moves_bound_atoms_forward() {
        // Right-linear: par(X, Z), anc(Z, Y) — the IDB atom (card 0)
        // moves first, then par is keyed on Z.
        let rs = rules(
            "?- anc(john, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- par(X, Z), anc(Z, Y).",
        );
        let par = rs[1].body[0].pred;
        let mut card = |p: Pred| if p == par { 100 } else { 0 };
        assert_eq!(order_body(&rs[1], None, &mut card), vec![1, 0]);
    }

    #[test]
    fn planned_order_prefers_constants() {
        // e(root, Y) has a bound (constant) position; reach(X) has none
        // once both cardinalities tie.
        let rs = rules(
            "?- out(Y).\nout(Y) :- reach(X), e(X, Y), e(root, Y).",
        );
        let mut card = |_: Pred| 10u64;
        let order = order_body(&rs[0], None, &mut card);
        assert_eq!(order[0], 2, "constant-bound atom first: {order:?}");
    }

    /// "Is stored" must not outrank "is keyed": with the head of
    /// `p1(X, Y)` bound, `e1(A, B)` is the only EDB atom and the only
    /// one with nothing bound — leading with it scans the relation.
    #[test]
    fn rescue_order_takes_a_keyed_idb_atom_before_an_unkeyed_edb_atom() {
        let p = parse_program(
            "?- p1(c, Y).\np0(X, Y) :- e0(X, Y).\np1(X, Y) :- p0(X, A), e1(A, B), p0(B, Y).",
        )
        .unwrap();
        let idbs = p.idb_predicates();
        // p0(x, A) keys e1 on A; e1 then binds all of p0(B, y).
        assert_eq!(rederive_order(&p.rules[1], &idbs, &mut |_| 0), vec![0, 1, 2]);
        // Were e1 the smaller relation it would still wait its turn.
        let e1 = p.rules[1].body[1].pred;
        let mut card = |pr: Pred| if pr == e1 { 1 } else { 1000 };
        assert_eq!(rederive_order(&p.rules[1], &idbs, &mut card)[0], 0);
    }

    #[test]
    fn shuffled_order_is_a_deterministic_permutation() {
        for n in 1..6usize {
            for seed in [1u64, 7, 99] {
                let shuffled = || {
                    let mut v: Vec<usize> = (0..n).collect();
                    shuffle(&mut v, seed, 3, 0);
                    v
                };
                let a = shuffled();
                assert_eq!(a, shuffled(), "deterministic");
                let mut s = a.clone();
                s.sort_unstable();
                assert_eq!(s, (0..n).collect::<Vec<_>>(), "a permutation");
            }
        }
    }

    #[test]
    fn tc_shape_recognized_for_linear_and_nonlinear_variants() {
        let sources = [
            "?- a(c, Y).\na(X, Y) :- e(X, Y).\na(X, Y) :- a(X, Z), e(Z, Y).",
            "?- a(c, Y).\na(X, Y) :- e(X, Y).\na(X, Y) :- e(X, Z), a(Z, Y).",
            "?- a(c, Y).\na(X, Y) :- e(X, Y).\na(X, Y) :- a(X, Z), a(Z, Y).",
        ];
        for src in sources {
            let (_, plans, _) = plans_of(src, 1, OrderMode::Planned);
            assert!(plans[0].tc, "{src}");
            assert_eq!(plans[0].head_ready_depth, 2, "{src}");
            // The non-recursive base rule is a single step, never TC.
            let (_, base, _) = plans_of(src, 0, OrderMode::Planned);
            assert!(!base[0].tc, "{src}");
        }
    }

    #[test]
    fn justification_permutation_is_recorded() {
        // sg(X,Y) :- par(X,U), sg(U,V), par(V,Y): plan 1 moves the IDB
        // atom first; step_of_body inverts the move.
        let p = parse_program(
            "?- sg(c, Y).\nsg(X, Y) :- par(X, Y).\nsg(X, Y) :- par(X, U), sg(U, V), par(V, Y).",
        )
        .unwrap();
        let rel_of = rel_table(&p);
        let idbs = [p.rules[1].head.pred];
        let mut idxs = Vec::new();
        let mut idx_of = FxHashMap::default();
        let mut card = |pr: Pred| if idbs.contains(&pr) { 0 } else { 50 };
        let r = &p.rules[1];
        let planned = OrderMode::Planned;
        let plans = plan_rule(r, r, 1, &rel_of, &mut idxs, &mut idx_of, planned, &mut card);
        let plan = &plans[1];
        assert_eq!(plan.body_of_step[0], 1, "the IDB atom leads");
        // body_rels is in rule-text order regardless of step order.
        let par_rel = rel_of[&p.rules[1].body[0].pred];
        let sg_rel = rel_of[&p.rules[1].body[1].pred];
        assert_eq!(&*plan.body_rels, &[par_rel, sg_rel, par_rel]);
        // step_of_body is the inverse permutation of the step order.
        let mut seen: Vec<usize> = plan.step_of_body.to_vec();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2]);
        for (k, &d) in plan.step_of_body.iter().enumerate() {
            assert_eq!(plan.steps[d].rel, plan.body_rels[k] as usize);
        }
    }
}
