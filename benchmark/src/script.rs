//! Fixed scripts. A workload's script is a pure function of
//! `(workload, seed)`: op kinds, counts and order are constants of the
//! catalog; the seed only permutes constant ids and picks among
//! **symmetric** members (nodes of one DAG rank, interchangeable noise
//! pairs and islands). So op *i* does the same work in every episode of
//! every run of one seed, and near-identical work across seeds.
//!
//! All four workloads share one script grammar — batch phase, set-up,
//! blocks of hits / rounds / cold / pinned reads, save, restart — so
//! each prints every end-to-end metric; they differ in inputs, sizes
//! and mix (see `catalog.rs` and the README).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selprop_core::workload;
use selprop_datalog::ast::{Atom, Const, Pred, Program, Term};
use selprop_datalog::db::{Database, Tuple};
use selprop_datalog::{parse_program, UpdateRound};

use crate::catalog::{Class, Graph, Sizes, Workload};

/// Which cold batch evaluation a [`Action::Batch`] op runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// `answer(program, db)`.
    Original,
    /// `magic_transform` + `answer`.
    Magic,
    /// `answer` of the program the decision hands back: the monadic
    /// rewrite when the selection propagates, the magic program when it
    /// does not (Section 7's fallback).
    Propagated,
}

/// What one script op does.
#[derive(Clone, Debug)]
pub enum Action {
    /// `ChainProgram::from_program` + `propagate`, `reps` times.
    Decide {
        /// Index into [`Script::programs`].
        prog: usize,
        /// Repeats inside the timed sample.
        reps: u32,
    },
    /// One cold batch evaluation, `reps` times.
    Batch {
        /// Index into [`Script::programs`].
        prog: usize,
        /// Which evaluation.
        variant: Variant,
        /// Repeats inside the timed sample.
        reps: u32,
    },
    /// `Server::from_database` plus compaction policy and cache config.
    Build,
    /// `Server::query` on each goal in turn.
    Query(Vec<Atom>),
    /// `Server::snapshot`; the pin joins the queue of live pins.
    Pin,
    /// `Snapshot::query` on each goal against the oldest live pin, then
    /// the unpin.
    Pinned(Vec<Atom>),
    /// `Server::apply`.
    Round(UpdateRound),
    /// `Server::save`.
    Save,
    /// `Server::restore` + `enable_query_cache` + one bound query.
    Restore(Atom),
}

/// One script op.
#[derive(Clone, Debug)]
pub struct Op {
    /// Aggregation class.
    pub class: Class,
    /// What to run.
    pub action: Action,
    /// User-level operations this op stands for (queries in a batch; 1
    /// for a round).
    pub count: usize,
    /// Whether episode 0 runs an oracle checkpoint right after this op.
    pub checkpoint: bool,
}

/// A generated script with its inputs.
#[derive(Clone, Debug)]
pub struct Script {
    /// The workload this script belongs to.
    pub workload: &'static Workload,
    /// The sizes it was generated for.
    pub sizes: Sizes,
    /// Program(s); `[0]` is the served one. All share one symbol table.
    pub programs: Vec<Program>,
    /// The initial EDB.
    pub db: Database,
    /// Hot goals (warmed in set-up, hit ever after).
    pub hot: Vec<Atom>,
    /// The ops, in order.
    pub ops: Vec<Op>,
    /// FNV-1a over the ops' rendering: equal for equal `(workload, seed)`.
    pub hash: u64,
}

impl Script {
    /// Ops per class, for the sample-floor checks.
    pub fn class_counts(&self) -> BTreeMap<Class, usize> {
        let mut m = BTreeMap::new();
        for op in &self.ops {
            *m.entry(op.class).or_insert(0) += 1;
        }
        m
    }
}

/// FNV-1a 64.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// Interns `names` in a seed-shuffled order, so constant ids — and with
/// them hash-table positions and row orders — differ between seeds
/// while the instance stays isomorphic. The generators intern by name
/// afterwards and find every constant already there.
fn intern_shuffled(program: &mut Program, mut names: Vec<String>, rng: &mut StdRng) {
    shuffle(&mut names, rng);
    for n in &names {
        program.symbols.constant(n);
    }
}

/// The constant called `name`; every name is interned before use.
fn named(p: &Program, name: &str) -> Const {
    p.symbols.get_constant(name).expect("interned")
}

/// Node `i` of rank `l` of a layered DAG.
fn node(p: &Program, l: usize, i: usize) -> Const {
    named(p, &format!("l{l}_{i}"))
}

/// Shared script assembly: the block grammar every workload uses.
struct Builder {
    ops: Vec<Op>,
    goal_pred: Pred,
    free: Term,
}

impl Builder {
    fn goal(&self, c: Const) -> Atom {
        Atom::new(self.goal_pred, vec![Term::Const(c), self.free])
    }

    fn push(&mut self, class: Class, action: Action, count: usize) {
        self.ops.push(Op {
            class,
            action,
            count,
            checkpoint: false,
        });
    }

    fn batch_phase(&mut self, programs: usize, reps: [u32; 4]) {
        for prog in 0..programs {
            self.push(
                Class::Decide,
                Action::Decide {
                    prog,
                    reps: reps[0],
                },
                1,
            );
            for (class, variant, reps) in [
                (Class::BatchOriginal, Variant::Original, reps[1]),
                (Class::BatchMagic, Variant::Magic, reps[2]),
                (Class::BatchPropagated, Variant::Propagated, reps[3]),
            ] {
                self.push(
                    class,
                    Action::Batch {
                        prog,
                        variant,
                        reps,
                    },
                    1,
                );
            }
        }
    }

    fn setup(&mut self, hot: &[Atom]) {
        self.push(Class::Build, Action::Build, 1);
        self.push(Class::QueryFirst, Action::Query(vec![hot[0].clone()]), 1);
        self.push(Class::Warm, Action::Query(hot[1..].to_vec()), hot.len() - 1);
    }

    /// `batches` hit batches of `len` queries cycling through `hot`.
    fn hits(&mut self, hot: &[Atom], batches: usize, len: usize, cursor: &mut usize) {
        for _ in 0..batches {
            let goals: Vec<Atom> = (0..len)
                .map(|i| hot[(*cursor + i) % hot.len()].clone())
                .collect();
            *cursor = (*cursor + len) % hot.len();
            self.push(Class::Hit, Action::Query(goals), len);
        }
    }

    fn cold(&mut self, consts: &[Const]) {
        let goals: Vec<Atom> = consts.iter().map(|&c| self.goal(c)).collect();
        self.push(Class::Cold, Action::Query(goals), consts.len());
    }

    /// Takes this block's pin (a block begins with it).
    fn pin(&mut self) {
        self.push(Class::Pin, Action::Pin, 1);
    }

    /// Once a pin is `lag` blocks old, reads and drops the oldest (a
    /// block ends with it, so with `lag` 0 the pin spans just the
    /// block's rounds and compaction can run between blocks).
    fn pinned(&mut self, hot: &[Atom], block: usize, lag: usize, len: usize) {
        if block >= lag {
            let goals: Vec<Atom> = (0..len)
                .map(|i| hot[(block + i) % hot.len()].clone())
                .collect();
            self.push(Class::Pinned, Action::Pinned(goals), len);
        }
    }

    fn round(&mut self, class: Class, round: UpdateRound) {
        self.push(class, Action::Round(round), 1);
    }

    /// Cut then splice back one EDB fact a hot view depends on.
    fn splice(&mut self, pred: Pred, fact: &Tuple) {
        self.round(
            Class::RelevantRetract,
            UpdateRound::new().retract(pred, fact.clone()),
        );
        self.round(
            Class::RelevantInsert,
            UpdateRound::new().insert(pred, fact.clone()),
        );
    }

    fn checkpoint(&mut self) {
        self.ops
            .last_mut()
            .expect("checkpoint after an op")
            .checkpoint = true;
    }

    /// The bookkeeping every block ends with.
    fn end_block(&mut self, s: &Sizes, block: usize) {
        if s.save_every > 0 && (block + 1).is_multiple_of(s.save_every) {
            self.push(Class::Save, Action::Save, 1);
        }
        if (block + 1).is_multiple_of(s.checkpoint_every) {
            self.checkpoint();
        }
    }

    /// Drains the pins still live, saves, restarts.
    fn finish(&mut self, hot: &[Atom], s: &Sizes) {
        for b in 0..s.pin_lag.min(s.blocks) {
            let goals: Vec<Atom> = (0..s.pinned_batch)
                .map(|i| hot[(b + i) % hot.len()].clone())
                .collect();
            self.push(Class::Pinned, Action::Pinned(goals), s.pinned_batch);
        }
        self.push(Class::Save, Action::Save, 1);
        self.checkpoint();
        self.push(Class::Restore, Action::Restore(hot[0].clone()), 1);
    }
}

/// Blocks at which the `splices` cut/splice pairs run.
fn splice_blocks(s: &Sizes) -> Vec<usize> {
    (0..s.splices)
        .map(|k| (k + 1) * s.blocks / (s.splices + 1))
        .collect()
}

fn facts_round(pred: Pred, facts: &[Tuple], insert: bool) -> UpdateRound {
    if insert {
        UpdateRound::new().insert_all(pred, facts)
    } else {
        UpdateRound::new().retract_all(pred, facts)
    }
}

/// Generates the script of `workload` for `seed`.
///
/// # Panics
///
/// If the catalog sizes are inconsistent (e.g. more hot goals than the
/// graph has symmetric members) — a bug in the catalog, not in the input.
pub fn generate(workload: &'static Workload, seed: u64, smoke: bool) -> Script {
    let sizes = workload.sizes(smoke);
    let mut programs: Vec<Program> = workload
        .programs
        .iter()
        .map(|s| parse_program(s).expect("catalog program parses"))
        .collect();
    // Mix the workload name in, so one seed does not give four
    // workloads the same permutation.
    let mut rng = StdRng::seed_from_u64(seed ^ fnv1a(workload.name.as_bytes()));
    let goal = programs[0].goal.clone();
    let mut b = Builder {
        ops: Vec::new(),
        goal_pred: goal.pred,
        free: goal.args[1],
    };
    b.batch_phase(programs.len(), sizes.batch_reps);
    let (db, hot) = match sizes.graph {
        Graph::LayeredDag { layers, width } if sizes.diamonds == 0 => {
            dag_script(&mut b, &mut programs[0], &sizes, layers, width, &mut rng)
        }
        Graph::LayeredDag { layers, width } => {
            churn_script(&mut b, &mut programs[0], &sizes, layers, width, &mut rng)
        }
        Graph::B1B2 { layers, noise } => {
            noise_script(&mut b, &mut programs[0], &sizes, layers, noise, &mut rng)
        }
        Graph::Forest { n } => forest_script(&mut b, &mut programs[0], &sizes, n, &mut rng),
    };
    // Every program of a workload is over the same predicates and
    // variables in the same first-occurrence order, so the served
    // program's table (now holding every constant) fits them all.
    let symbols = programs[0].symbols.clone();
    for p in &mut programs[1..] {
        for name in ["anc", "par"] {
            assert_eq!(
                p.symbols.get_predicate(name),
                symbols.get_predicate(name),
                "symbol tables diverge"
            );
        }
        p.symbols = symbols.clone();
    }
    let hash = fnv1a(format!("{:?}", b.ops).as_bytes());
    Script {
        workload,
        sizes,
        programs,
        db,
        hot,
        ops: b.ops,
        hash,
    }
}

/// What the two layered-DAG scripts start from.
struct DagBase {
    db: Database,
    par: Pred,
    hot: Vec<Atom>,
    /// One pre-existing leaf under each of `splices` hot constants —
    /// the facts the cut/splice pairs remove and restore.
    anchors: Vec<Tuple>,
    /// `(rank, node)` pairs that already are a hot or cold goal.
    used: BTreeSet<(usize, usize)>,
}

/// Interns every name (the DAG's, `extra`, the anchors'), generates the
/// DAG and picks the hot goals: evenly spread over the ranks, the node
/// within a rank by seed.
fn dag_base(
    b: &Builder,
    p: &mut Program,
    s: &Sizes,
    layers: usize,
    width: usize,
    extra: Vec<String>,
    rng: &mut StdRng,
) -> DagBase {
    assert!(s.hot <= layers && s.splices <= s.hot);
    let mut names: Vec<String> = (0..=layers)
        .flat_map(|l| (0..width).map(move |i| format!("l{l}_{i}")))
        .collect();
    names.extend(extra);
    names.extend((0..s.splices).map(|a| format!("z{a}")));
    intern_shuffled(p, names, rng);
    let mut db = workload::layered_dag(p, "par", "john", layers, width);
    let par = p.symbols.predicate("par");
    let mut used = BTreeSet::new();
    let hot_consts: Vec<Const> = (0..s.hot)
        .map(|k| {
            let at = (k * layers / s.hot, rng.gen_range(0..width));
            used.insert(at);
            node(p, at.0, at.1)
        })
        .collect();
    let anchors = (0..s.splices)
        .map(|a| {
            let t = vec![
                hot_consts[a * s.hot / s.splices],
                named(p, &format!("z{a}")),
            ];
            db.insert(par, t.clone());
            t
        })
        .collect();
    DagBase {
        db,
        par,
        hot: hot_consts.iter().map(|&c| b.goal(c)).collect(),
        anchors,
        used,
    }
}

/// The block's cold goal: the rank walks a fixed cycle (answer size
/// depends on it), the node within the rank is by seed; once a rank is
/// used up, the next one takes over.
fn cold_node(
    used: &mut BTreeSet<(usize, usize)>,
    blk: usize,
    layers: usize,
    width: usize,
    rng: &mut StdRng,
) -> (usize, usize) {
    let rank = (blk * 5 + 2) % (layers + 1);
    let mut tries = 0;
    loop {
        let at = (
            (rank + tries / (4 * width)) % (layers + 1),
            rng.gen_range(0..width),
        );
        tries += 1;
        if used.insert(at) {
            return at;
        }
    }
}

/// `tc_serve`: program A over a layered DAG; leaf edges under the low
/// ranks come and go (over-delete, nothing to rescue).
fn dag_script(
    b: &mut Builder,
    p: &mut Program,
    s: &Sizes,
    layers: usize,
    width: usize,
    rng: &mut StdRng,
) -> (Database, Vec<Atom>) {
    assert!(s.round_size < layers && s.blocks <= (layers + 1) * (width - 1));
    let fresh = (0..s.blocks)
        .flat_map(|blk| (0..s.round_size).map(move |j| format!("f{blk}_{j}")))
        .collect();
    let DagBase {
        db,
        par,
        hot,
        anchors,
        mut used,
    } = dag_base(b, p, s, layers, width, fresh, rng);

    b.setup(&hot);
    let splice_at = splice_blocks(s);
    let mut cursor = 0;
    let mut pending: VecDeque<Vec<Tuple>> = Default::default();
    for blk in 0..s.blocks {
        b.pin();
        b.hits(&hot, s.hit_batches, s.hit_batch, &mut cursor);
        // Leaf edges under ranks 1..=round_size: a leaf under rank r has
        // r·width + 1 ancestors, so the round's work is fixed by the
        // ranks and the node within a rank is free.
        let leaves: Vec<Tuple> = (0..s.round_size)
            .map(|j| {
                vec![
                    node(p, 1 + j, rng.gen_range(0..width)),
                    named(p, &format!("f{blk}_{j}")),
                ]
            })
            .collect();
        b.round(Class::Insert, facts_round(par, &leaves, true));
        pending.push_back(leaves);
        if pending.len() > s.retract_lag {
            let old = pending.pop_front().expect("nonempty");
            b.round(Class::Retract, facts_round(par, &old, false));
        }
        if let Some(a) = splice_at.iter().position(|&x| x == blk) {
            b.splice(par, &anchors[a]);
        }
        let at = cold_node(&mut used, blk, layers, width, rng);
        b.cold(&[node(p, at.0, at.1)]);
        b.pinned(&hot, blk, s.pin_lag, s.pinned_batch);
        b.end_block(s, blk);
    }
    b.finish(&hot, s);
    (db, hot)
}

/// `churn_durable`: program A over a small layered DAG with `diamonds`
/// two-parent leaves. A retract round removes, for `round_size` leaves,
/// the parent edge that currently *supports* the leaf's `anc` tuples, so
/// every tuple is over-deleted and rescued through the other parent;
/// the insert round puts the edge back. Visits alternate parents, so
/// every retract is in the rescue regime.
fn churn_script(
    b: &mut Builder,
    p: &mut Program,
    s: &Sizes,
    layers: usize,
    width: usize,
    rng: &mut StdRng,
) -> (Database, Vec<Atom>) {
    assert!(width >= 2 && s.diamonds >= s.round_size && layers >= 3);
    let mut extra: Vec<String> = (0..s.diamonds).map(|j| format!("g{j}")).collect();
    extra.extend((0..s.blocks).map(|blk| format!("f{blk}")));
    let DagBase {
        mut db,
        par,
        hot,
        anchors,
        mut used,
    } = dag_base(b, p, s, layers, width, extra, rng);
    // Rescue leaf j hangs under two nodes of rank third + j mod third
    // (its over-delete/rescue cost is fixed by the rank).
    let third = layers / 3;
    let diamonds: Vec<[Tuple; 2]> = (0..s.diamonds)
        .map(|j| {
            let rank = third + j % third;
            let a = rng.gen_range(0..width);
            let c = (a + 1 + rng.gen_range(0..width - 1)) % width;
            let g = named(p, &format!("g{j}"));
            [vec![node(p, rank, a), g], vec![node(p, rank, c), g]]
        })
        .collect();
    for d in &diamonds {
        db.insert(par, d[0].clone());
    }

    b.setup(&hot);
    // Prime: the second parents arrive after the fixpoint, so every
    // leaf's tuples are supported through parent 0 — a known state.
    let seconds: Vec<Tuple> = diamonds.iter().map(|d| d[1].clone()).collect();
    b.round(Class::Other, facts_round(par, &seconds, true));
    let splice_at = splice_blocks(s);
    let mut cursor = 0;
    let mut last_leaf: Option<Tuple> = None;
    for blk in 0..s.blocks {
        b.pin();
        b.hits(&hot, s.hit_batches, s.hit_batch, &mut cursor);
        let edges: Vec<Tuple> = (0..s.round_size)
            .map(|t| {
                let visit = blk * s.round_size + t;
                diamonds[visit % s.diamonds][(visit / s.diamonds) % 2].clone()
            })
            .collect();
        b.round(Class::Retract, facts_round(par, &edges, false));
        b.round(Class::Insert, facts_round(par, &edges, true));
        if blk % 4 == 0 {
            // Leaf churn: append-only growth and plain over-deletes
            // between the rescue rounds.
            let leaf = vec![
                node(p, layers, rng.gen_range(0..width)),
                named(p, &format!("f{blk}")),
            ];
            let mut round = UpdateRound::new().insert(par, leaf.clone());
            if let Some(old) = last_leaf.replace(leaf) {
                round = round.retract(par, old);
            }
            b.round(Class::Other, round);
        }
        if let Some(a) = splice_at.iter().position(|&x| x == blk) {
            b.splice(par, &anchors[a]);
        }
        let at = cold_node(&mut used, blk, layers, width, rng);
        b.cold(&[node(p, at.0, at.1)]);
        b.pinned(&hot, blk, s.pin_lag, s.pinned_batch);
        b.end_block(s, blk);
    }
    b.finish(&hot, s);
    (db, hot)
}

/// `noise_serve`: the Section 7 program over a short relevant chain and
/// a sea of irrelevant `b1`/`b2` pairs.
fn noise_script(
    b: &mut Builder,
    p: &mut Program,
    s: &Sizes,
    layers: usize,
    noise: usize,
    rng: &mut StdRng,
) -> (Database, Vec<Atom>) {
    let hot_chain = (s.hot / 2).min(layers);
    let hot_noise = s.hot - hot_chain;
    assert!(hot_noise + s.blocks * s.cold_batch <= noise && s.retract_lag == 0);
    let mut names: Vec<String> = (1..=layers)
        .flat_map(|i| [format!("u{i}"), format!("d{i}")])
        .collect();
    names.extend((0..noise).flat_map(|i| [format!("xa{i}"), format!("xb{i}")]));
    let fresh = s.blocks * s.round_size;
    names.extend((0..fresh).flat_map(|i| [format!("fa{i}"), format!("fb{i}")]));
    intern_shuffled(p, names, rng);
    let db = workload::layered_b1_b2(p, "c", layers, noise);
    let b1 = p.symbols.predicate("b1");
    let b2 = p.symbols.predicate("b2");

    // Noise pairs are interchangeable: draw hot and cold ones without
    // replacement from one seed-shuffled order.
    let mut order: Vec<usize> = (0..noise).collect();
    shuffle(&mut order, rng);
    let mut next_noise = order.into_iter().map(|i| named(p, &format!("xa{i}")));
    let mut hot_consts: Vec<Const> = vec![named(p, "c")];
    hot_consts.extend((1..hot_chain).map(|i| named(p, &format!("u{i}"))));
    hot_consts.extend(next_noise.by_ref().take(hot_noise));
    let hot: Vec<Atom> = hot_consts.iter().map(|&c| b.goal(c)).collect();
    // The fact the goal's answer hangs on: the last `b1` chain edge.
    let last = vec![
        if layers == 1 {
            named(p, "c")
        } else {
            named(p, &format!("u{}", layers - 1))
        },
        named(p, &format!("u{layers}")),
    ];

    b.setup(&hot);
    let splice_at = splice_blocks(s);
    let mut cursor = 0;
    for blk in 0..s.blocks {
        b.pin();
        let pairs: Vec<(Const, Const)> = (0..s.round_size)
            .map(|j| {
                let i = blk * s.round_size + j;
                (named(p, &format!("fa{i}")), named(p, &format!("fb{i}")))
            })
            .collect();
        let mut ins = UpdateRound::new();
        let mut ret = UpdateRound::new();
        for &(x, y) in &pairs {
            ins = ins.insert(b1, vec![x, y]).insert(b2, vec![y, x]);
            ret = ret.retract(b1, vec![x, y]).retract(b2, vec![y, x]);
        }
        b.round(Class::Insert, ins);
        b.hits(&hot, s.hit_batches, s.hit_batch, &mut cursor);
        b.round(Class::Retract, ret);
        if splice_at.contains(&blk) {
            b.splice(b1, &last);
        }
        let cold: Vec<Const> = next_noise.by_ref().take(s.cold_batch).collect();
        b.cold(&cold);
        b.pinned(&hot, blk, s.pin_lag, s.pinned_batch);
        b.end_block(s, blk);
    }
    b.finish(&hot, s);
    (db, hot)
}

/// Structure seed of the forest: fixed, so every `--seed` sees the same
/// tree shape (E1 uses the same one). Path lengths of a random forest
/// vary by ±5 % between structure seeds, which no bound would survive.
const FOREST_SEED: u64 = 11;
/// Edges per `wide` island (E1's `build_db`).
const ISLAND_LEN: usize = 10;

/// `batch_pipeline`: Example 1.1's programs over E1's forest + islands.
/// The serve phase reads the islands, which are isomorphic, so the seed
/// has symmetric members to pick from; its rounds write under the
/// forest's first nodes, which are the same for every seed.
fn forest_script(
    b: &mut Builder,
    p: &mut Program,
    s: &Sizes,
    n: usize,
    rng: &mut StdRng,
) -> (Database, Vec<Atom>) {
    let islands = n / 20;
    assert!(s.hot + s.blocks * s.cold_batch <= islands && s.splices <= s.hot && s.round_size < n);
    let mut names: Vec<String> = (1..n).map(|i| format!("v{i}")).collect();
    names.extend((0..islands).flat_map(|k| (0..=ISLAND_LEN).map(move |i| format!("i{k}_{i}"))));
    names.extend(
        (0..s.blocks).flat_map(|blk| (0..s.round_size).map(move |j| format!("f{blk}_{j}"))),
    );
    names.extend((0..s.splices).map(|a| format!("z{a}")));
    intern_shuffled(p, names, rng);
    let mut db = workload::random_forest(p, "par", "john", n, FOREST_SEED);
    let wide = workload::wide(p, "par", "elsewhere", 0, islands, ISLAND_LEN);
    for (pred, rel) in wide.iter() {
        for t in rel.iter() {
            db.insert(pred, t.clone());
        }
    }
    let par = p.symbols.predicate("par");

    let mut order: Vec<usize> = (0..islands).collect();
    shuffle(&mut order, rng);
    let hot_islands: Vec<usize> = order[..s.hot].to_vec();
    let mut next_cold = order[s.hot..].iter().map(|&k| named(p, &format!("i{k}_0")));
    let hot: Vec<Atom> = hot_islands
        .iter()
        .map(|&k| b.goal(named(p, &format!("i{k}_0"))))
        .collect();
    let anchors: Vec<Tuple> = (0..s.splices)
        .map(|a| {
            let t = vec![
                named(p, &format!("i{}_{ISLAND_LEN}", hot_islands[a])),
                named(p, &format!("z{a}")),
            ];
            db.insert(par, t.clone());
            t
        })
        .collect();

    b.setup(&hot);
    let splice_at = splice_blocks(s);
    let mut cursor = 0;
    let mut pending: VecDeque<Vec<Tuple>> = Default::default();
    for blk in 0..s.blocks {
        b.pin();
        b.hits(&hot, s.hit_batches, s.hit_batch, &mut cursor);
        // Fresh leaves under the forest's first nodes, the same parents
        // in every block: the tree's shape does not depend on the seed,
        // so neither does the work. Retracting such a leaf re-derives
        // `anc(x, leaf)` for its few ancestors `x` by walking all of
        // `anc(x, _)` — every forest node for `john` — so the round is
        // probe-bound, like `tc_serve`'s. (Leaves on the islands make
        // an 80 µs round of a few hundred dependent cache misses, which
        // reads 40 % higher whenever the host's memory is busy:
        // `NOISE.md`, "The refused pair".)
        let leaves: Vec<Tuple> = (0..s.round_size)
            .map(|j| {
                vec![
                    named(p, &format!("v{}", 1 + j)),
                    named(p, &format!("f{blk}_{j}")),
                ]
            })
            .collect();
        b.round(Class::Insert, facts_round(par, &leaves, true));
        pending.push_back(leaves);
        if pending.len() > s.retract_lag {
            let old = pending.pop_front().expect("nonempty");
            b.round(Class::Retract, facts_round(par, &old, false));
        }
        if let Some(a) = splice_at.iter().position(|&x| x == blk) {
            b.splice(par, &anchors[a]);
        }
        let cold: Vec<Const> = next_cold.by_ref().take(s.cold_batch).collect();
        b.cold(&cold);
        b.pinned(&hot, blk, s.pin_lag, s.pinned_batch);
        b.end_block(s, blk);
    }
    b.finish(&hot, s);
    (db, hot)
}
