//! The episode runner: one client thread, closed loop, `Server` with
//! `Strategy::SemiNaive`. An episode builds everything from the same
//! inputs and replays the script, timing each op with the raw wall
//! clock; checks happen between the timed regions.

use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use selprop_core::chain::ChainProgram;
use selprop_core::propagate::{propagate, Propagation};
use selprop_datalog::ast::{Atom, Program, Term, Var};
use selprop_datalog::db::Relation;
use selprop_datalog::eval::{answer, EvalStats, Strategy};
use selprop_datalog::magic::magic_transform;
use selprop_datalog::{
    CacheConfig, CacheStats, CompactionPolicy, Materialization, MemStats, RoundReport, Server,
    Snapshot,
};

use crate::catalog::{Class, Sizes};
use crate::oracle::Oracle;
use crate::script::{Action, Script, Variant};

/// The one evaluation strategy of the benchmark (the box has two cores;
/// a second busy thread would measure the scheduler).
pub const STRATEGY: Strategy = Strategy::SemiNaive;

/// A script plus what is derived from it once per run, untimed.
pub struct Prepared {
    /// The script.
    pub script: Script,
    /// Per program, the program the decision hands back: the monadic
    /// rewrite, or the magic program when the selection does not
    /// propagate.
    pub propagated: Vec<Program>,
    /// Per program, whether the selection propagated.
    pub propagates: Vec<bool>,
    /// Where temp files and traces go.
    pub out_dir: PathBuf,
}

/// `ChainProgram::from_program` + `propagate` — the decision.
pub fn decide(program: &Program) -> (ChainProgram, Propagation) {
    let chain =
        ChainProgram::from_program(program.clone()).expect("catalog programs are chain programs");
    let prop = propagate(&chain).expect("bound goal");
    (chain, prop)
}

impl Prepared {
    /// Prepares `script` for running; temp files go under `out_dir`.
    pub fn new(script: Script, out_dir: &Path) -> Self {
        let mut propagated = Vec::new();
        let mut propagates = Vec::new();
        for p in &script.programs {
            match decide(p).1 {
                Propagation::Propagated { program, .. } => {
                    propagated.push(program);
                    propagates.push(true);
                }
                _ => {
                    propagated.push(magic_transform(p).expect("bound goal transforms").program);
                    propagates.push(false);
                }
            }
        }
        Self {
            script,
            propagated,
            propagates,
            out_dir: out_dir.to_owned(),
        }
    }

    /// The served program.
    pub fn program(&self) -> &Program {
        &self.script.programs[0]
    }

    /// The all-free goal over the served predicate (a direct route).
    pub fn free_goal(&self) -> Atom {
        let goal = &self.program().goal;
        let y = goal.args[1];
        let x = (0..)
            .map(Var)
            .map(Term::Var)
            .find(|t| *t != y)
            .expect("some variable");
        Atom::new(goal.pred, vec![x, y])
    }
}

/// A per-process, per-episode unique directory, removed on drop — two
/// runs (or two tests) never share a snapshot path.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `<out_dir>/tmp-<pid>-<tag>`.
    pub fn new(out_dir: &Path, tag: &str) -> std::io::Result<Self> {
        let dir = out_dir.join(format!("tmp-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// An order-independent hash of an answer: cheap enough to fold inside
/// the timed loop (the client does read its answers).
pub fn answer_hash(rel: &Relation) -> u64 {
    let mut h = rel.len() as u64;
    for t in rel.iter() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for c in t {
            x = (x ^ u64::from(c.0)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h = h.wrapping_add(x ^ (x >> 29));
    }
    h
}

/// The engine's counters at the end of an episode's script.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EndState {
    /// `Server::stats`.
    pub stats: EvalStats,
    /// `Server::cache_stats`.
    pub cache: CacheStats,
    /// `Server::mem_stats`.
    pub mem: MemStats,
    /// `Server::compactions`.
    pub compactions: u64,
}

/// What one episode measured.
#[derive(Clone, Debug)]
pub struct Episode {
    /// Wall-clock nanoseconds per op.
    pub times: Vec<u64>,
    /// When each op began, in nanoseconds since the episode began.
    pub starts: Vec<u64>,
    /// Answer hash per op (round reports for rounds, 0 where an op has
    /// no answer).
    pub hashes: Vec<u64>,
    /// Peak `mem_stats().total_words()` after any round.
    pub peak_words: usize,
    /// Counters after the last served op.
    pub end: EndState,
    /// Words of a fresh store built from the final EDB (checked episode only).
    pub fresh_words: Option<usize>,
    /// `Server::answer` and an all-free `Server::query`, nanoseconds
    /// (traced runs only).
    pub extras: Option<(u64, u64)>,
}

fn ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).expect("an op shorter than 584 years")
}

/// Runs `goals` through `query`, returning nanoseconds and the folded hash.
fn timed_queries(goals: &[Atom], mut query: impl FnMut(&Atom) -> Relation) -> (u64, u64) {
    let mut h = 0u64;
    let t = Instant::now();
    for g in goals {
        h = h.rotate_left(1) ^ answer_hash(&query(g));
    }
    (ns(t), h)
}

/// One cold batch evaluation; returns nanoseconds and the answer.
pub fn timed_batch(prep: &Prepared, prog: usize, variant: Variant, reps: u32) -> (u64, Relation) {
    let program = &prep.script.programs[prog];
    let db = &prep.script.db;
    let mut last = None;
    let t = Instant::now();
    for _ in 0..reps {
        let rel = match variant {
            Variant::Original => answer(program, db, STRATEGY).0,
            Variant::Magic => {
                let magic = magic_transform(program).expect("bound goal transforms");
                answer(&magic.program, db, STRATEGY).0
            }
            Variant::Propagated => answer(&prep.propagated[prog], db, STRATEGY).0,
        };
        last = Some(black_box(rel));
    }
    (ns(t), last.expect("reps >= 1"))
}

/// The store's compaction policy under `sizes` (none at 0 %).
pub fn compaction_policy(sizes: &Sizes) -> Option<CompactionPolicy> {
    (sizes.compaction_percent > 0).then(|| CompactionPolicy {
        dead_percent: sizes.compaction_percent,
        ..CompactionPolicy::default()
    })
}

/// The view cache's configuration under `sizes`.
pub fn cache_config(sizes: &Sizes) -> CacheConfig {
    CacheConfig {
        max_views: sizes.max_views,
        ..CacheConfig::default()
    }
}

/// A round's report folded into the op's answer hash.
pub fn report_hash(report: &RoundReport) -> u64 {
    (report.inserted as u64) << 32 | report.retracted as u64
}

/// Builds the server the way the `Build` op does.
pub fn build_server(prep: &Prepared) -> Server {
    let s = &prep.script.sizes;
    let server = Server::from_database(prep.program(), &prep.script.db, STRATEGY);
    if let Some(policy) = compaction_policy(s) {
        server.set_compaction_policy(Some(policy));
    }
    server.set_cache_config(cache_config(s));
    server
}

/// Replays the script once. With an oracle this is the checked episode.
///
/// # Panics
///
/// If the snapshot file cannot be written or read back (the temp
/// directory is the benchmark's own), or the script is malformed.
pub fn run_episode(
    prep: &Prepared,
    index: usize,
    mut oracle: Option<&mut Oracle>,
    extras: bool,
) -> Episode {
    let script = &prep.script;
    let tmp =
        TempDir::new(&prep.out_dir, &format!("e{index}")).expect("temp dir under the out dir");
    let snap_path = tmp.path().join("server.snap");
    let origin = Instant::now();
    let mut times = Vec::with_capacity(script.ops.len());
    let mut starts = Vec::with_capacity(script.ops.len());
    let mut hashes = Vec::with_capacity(script.ops.len());
    let mut server: Option<Server> = None;
    let mut pins: VecDeque<(Snapshot, HashMap<Atom, u64>)> = VecDeque::new();
    let mut peak_words = 0usize;
    let mut batch_answers: Vec<Relation> = Vec::new();
    // Goals queried since the last checkpoint that the next one re-checks.
    let mut recent_cold: Vec<Atom> = Vec::new();

    for (i, op) in script.ops.iter().enumerate() {
        let at = || format!("op {i} ({})", op.class.label());
        starts.push(ns(origin));
        let (t, h) = match &op.action {
            Action::Decide { prog, reps } => {
                let t = Instant::now();
                for _ in 0..*reps {
                    black_box(decide(&script.programs[*prog]));
                }
                (ns(t), 0)
            }
            Action::Batch {
                prog,
                variant,
                reps,
            } => {
                let (t, rel) = timed_batch(prep, *prog, *variant, *reps);
                let h = answer_hash(&rel);
                if let Some(o) = oracle.as_deref_mut() {
                    // The three evaluations of one program must agree.
                    if *variant == Variant::Original {
                        batch_answers.clear();
                    } else {
                        let ok = batch_answers[0] == rel;
                        o.record(ok, || {
                            format!("{}: {variant:?} answer differs from the original's", at())
                        });
                    }
                    batch_answers.push(rel);
                }
                (t, h)
            }
            Action::Build => {
                let t = Instant::now();
                server = Some(build_server(prep));
                (ns(t), 0)
            }
            Action::Query(goals) => {
                let srv = server.as_ref().expect("Build comes first");
                let (t, h) = timed_queries(goals, |g| srv.query(g));
                if op.class == Class::Cold {
                    recent_cold.clone_from(goals);
                }
                (t, h)
            }
            Action::Pin => {
                let srv = server.as_ref().expect("Build comes first");
                let t = Instant::now();
                let snap = srv.snapshot();
                let t = ns(t);
                // Checked episode: remember what the hot goals answer
                // now, so the pinned read can be held to it.
                let mut live = HashMap::new();
                if oracle.is_some() {
                    for g in &script.hot {
                        live.insert(g.clone(), answer_hash(&srv.query(g)));
                    }
                }
                pins.push_back((snap, live));
                (t, 0)
            }
            Action::Pinned(goals) => {
                let (snap, live) = pins.pop_front().expect("a Pin precedes every Pinned");
                let t = Instant::now();
                let mut h = 0u64;
                for g in goals {
                    h = h.rotate_left(1) ^ answer_hash(&snap.query(g));
                }
                drop(snap);
                let t = ns(t);
                if let Some(o) = oracle.as_deref_mut() {
                    let expected = goals.iter().fold(0u64, |h, g| h.rotate_left(1) ^ live[g]);
                    o.record(expected == h, || {
                        format!(
                            "{}: pinned answers differ from the answers at pin time",
                            at()
                        )
                    });
                }
                (t, h)
            }
            Action::Round(round) => {
                let srv = server.as_ref().expect("Build comes first");
                let t = Instant::now();
                let report = srv.apply(round);
                let t = ns(t);
                peak_words = peak_words.max(srv.mem_stats().total_words());
                if let Some(o) = oracle.as_deref_mut() {
                    o.apply(round);
                    // Scripts are built so that no operation fails: every
                    // insert is novel, every retract hits.
                    let ok = report.inserted == round.inserts.len()
                        && report.retracted == round.retracts.len();
                    o.record(ok, || format!("{}: round report {report:?}", at()));
                }
                (t, report_hash(&report))
            }
            Action::Save => {
                let srv = server.as_ref().expect("Build comes first");
                let t = Instant::now();
                srv.save(&snap_path)
                    .expect("save under the benchmark's temp dir");
                (ns(t), 0)
            }
            Action::Restore(goal) => {
                let t = Instant::now();
                let restored = Server::restore(&snap_path).expect("restore what Save just wrote");
                restored.enable_query_cache(prep.program());
                let rel = restored.query(goal);
                let t = ns(t);
                let h = answer_hash(&rel);
                if let Some(o) = oracle.as_deref_mut() {
                    // The restarted server must hold the pre-save model.
                    let srv = server.as_ref().expect("Build comes first");
                    let ok = restored.snapshot().database().sorted_models()
                        == srv.snapshot().database().sorted_models();
                    o.record(ok, || {
                        format!("{}: restored model differs from the saved server's", at())
                    });
                    o.check_goal(goal, &rel, &at());
                }
                (t, h)
            }
        };
        times.push(t);
        hashes.push(h);

        if let Some(o) = oracle.as_deref_mut() {
            let every_op = o.checks_every_op();
            if let (Some(srv), true) = (server.as_ref(), op.checkpoint || every_op) {
                if every_op {
                    o.check_model(&srv.snapshot().idb_database(), &at());
                }
                for g in script.hot.iter().chain(&recent_cold) {
                    o.check_goal(g, &srv.query(g), &at());
                }
                recent_cold.clear();
            }
        }
    }

    let srv = server.as_ref().expect("every script builds a server");
    let end = EndState {
        stats: srv.stats(),
        cache: srv.cache_stats(),
        mem: srv.mem_stats(),
        compactions: srv.compactions(),
    };
    let extras = extras.then(|| {
        let t = Instant::now();
        black_box(srv.answer());
        let answer_ns = ns(t);
        let free = prep.free_goal();
        let t = Instant::now();
        black_box(srv.query(&free));
        (answer_ns, ns(t))
    });
    let mut fresh_words = None;
    if let Some(o) = oracle {
        // The final model against one batch evaluation of the final EDB,
        // which also is the fresh store `peak_over_fresh` divides by.
        let fresh = Materialization::from_database(prep.program(), o.mirror(), STRATEGY);
        o.record(fresh.answer() == srv.answer(), || {
            "end: Server::answer differs from the batch answer over the final EDB".to_owned()
        });
        fresh_words = Some(fresh.mem_stats().total_words());
    }
    Episode {
        times,
        starts,
        hashes,
        peak_words,
        end,
        fresh_words,
        extras,
    }
}
