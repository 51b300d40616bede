//! The traced run. Spans are recorded from the benchmark's own code,
//! around the calls into each layer (timers inside the engine are a
//! later change): a **server pass** replays the script on `Server`
//! exactly as an untraced run does, and a **layer pass** replays it
//! against the layers unbundled — a bare `Materialization` and a bare
//! `QueryCache` called in the order `Server::apply`/`Server::query`
//! call them, `to_bytes`/`from_bytes` beside `save`/`restore` — reading
//! the layers' public counters at the same boundaries. Per-layer times
//! are self times (span minus children), per-op-min over the pass's
//! episodes. Spans stay in memory until the run ends.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write as _;
use std::time::Instant;

use selprop_core::chain::ChainProgram;
use selprop_core::propagate::propagate;
use selprop_datalog::eval::{answer, EvalStats, Strategy};
use selprop_datalog::magic::magic_transform;
use selprop_datalog::materialize::PlannerReport;
use selprop_datalog::{parse_program, CacheStats, Database, Materialization, MemStats, QueryCache};

use crate::catalog::{Class, PER_LAYER};
use crate::driver::{replay, Replay};
use crate::json::Reported;
use crate::kernels::{self, KernelTimes};
use crate::oracle::Oracle;
use crate::run::{
    answer_hash, cache_config, compaction_policy, report_hash, Episode, Prepared, TempDir, STRATEGY,
};
use crate::script::{Action, Variant};
use crate::stats::{self, median};

/// Marks a span without a parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// `layer.what`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The script op the span belongs to (spans of one op share it).
    pub op: u32,
}

/// An in-memory span recorder.
pub struct Tracer {
    origin: Instant,
    /// Every span recorded so far, in start order.
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    /// The op id stamped on new spans.
    pub op: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run shorter than 584 years")
    }

    /// Runs `f` inside a span; returns the span's nanoseconds and `f`'s result.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (u64, T) {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
        });
        self.stack.push(id);
        let out = f(self);
        let end_ns = self.now();
        self.stack.pop();
        self.spans[id as usize].end_ns = end_ns;
        (end_ns - start_ns, out)
    }

    /// Per span, its duration minus the part its direct children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut t: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                t[s.parent as usize] = t[s.parent as usize].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        t
    }
}

/// The counters the layer pass reads at layer boundaries (they repeat
/// exactly between episodes; the last episode's are reported).
#[derive(Clone, Debug, Default)]
struct Counters {
    insert_probes: Vec<f64>,
    insert_firings: Vec<f64>,
    retract_probes: Vec<f64>,
    appended: Vec<f64>,
    killed: Vec<f64>,
    retract_appended: f64,
    retract_killed: f64,
    dead_rows_peak: usize,
    compactions: u64,
    snapshot_bytes: usize,
    file_bytes: u64,
    live_rows_at_save: usize,
    mem: MemStats,
    plan_built: PlannerReport,
    plan_end: PlannerReport,
    cache: CacheStats,
    view_words: usize,
    view_rows: usize,
    /// Summed over the workload's programs: original, magic, propagated.
    eval: [EvalStats; 3],
    magic_rules: usize,
}

struct LayerEpisode {
    tracer: Tracer,
    hashes: Vec<u64>,
    counters: Counters,
}

fn add(a: &mut EvalStats, b: EvalStats) {
    a.iterations += b.iterations;
    a.rule_firings += b.rule_firings;
    a.tuples_derived += b.tuples_derived;
    a.join_probes += b.join_probes;
}

/// Replays the script once against the unbundled layers.
fn layer_episode(prep: &Prepared, index: usize) -> LayerEpisode {
    let script = &prep.script;
    let sizes = &script.sizes;
    let program = prep.program();
    let tmp =
        TempDir::new(&prep.out_dir, &format!("l{index}")).expect("temp dir under the out dir");
    let path = tmp.path().join("store.snap");
    let mut tr = Tracer::new();
    let mut c = Counters::default();
    let mut hashes = Vec::with_capacity(script.ops.len());
    let mut store: Option<Materialization> = None;
    let mut cache = QueryCache::disabled();

    for (i, op) in script.ops.iter().enumerate() {
        tr.op = u32::try_from(i).expect("fewer than 2^32 ops");
        let (_, h) = tr.span("script.op", |tr| match &op.action {
            Action::Decide { prog, reps } => {
                for _ in 0..*reps {
                    let p = &script.programs[*prog];
                    let chain = tr
                        .span("core.chain_parse", |_| {
                            ChainProgram::from_program(p.clone())
                        })
                        .1;
                    let chain = chain.expect("catalog programs are chain programs");
                    black_box(
                        tr.span("core.propagate", |_| propagate(&chain))
                            .1
                            .expect("bound goal"),
                    );
                }
                0
            }
            Action::Batch {
                prog,
                variant,
                reps,
            } => {
                let p = &script.programs[*prog];
                let mut out = None;
                for _ in 0..*reps {
                    out = Some(match variant {
                        Variant::Original => {
                            tr.span("eval.original", |_| answer(p, &script.db, STRATEGY))
                                .1
                        }
                        Variant::Magic => {
                            let magic = tr
                                .span("magic.transform", |_| magic_transform(p))
                                .1
                                .expect("bound goal");
                            c.magic_rules += magic.program.rules.len();
                            tr.span("eval.magic", |_| {
                                answer(&magic.program, &script.db, STRATEGY)
                            })
                            .1
                        }
                        Variant::Propagated => {
                            tr.span("eval.propagated", |_| {
                                answer(&prep.propagated[*prog], &script.db, STRATEGY)
                            })
                            .1
                        }
                    });
                }
                let (rel, stats) = out.expect("reps >= 1");
                add(&mut c.eval[*variant as usize], stats);
                answer_hash(&rel)
            }
            Action::Build => {
                let mut m = tr
                    .span("materialize.build", |_| {
                        Materialization::from_database(program, &script.db, STRATEGY)
                    })
                    .1;
                if let Some(policy) = compaction_policy(sizes) {
                    m.set_compaction_policy(Some(policy));
                }
                c.plan_built = m.planner_report();
                store = Some(m);
                cache = QueryCache::with_config(program, cache_config(sizes));
                0
            }
            Action::Query(goals) => {
                let m = store.as_mut().expect("Build comes first");
                let name = match op.class {
                    Class::QueryFirst => "cache.first_build",
                    Class::Hit => "cache.lookup",
                    _ => "cache.build",
                };
                tr.span(name, |_| {
                    goals.iter().fold(0u64, |h, g| {
                        // `Server::query`: the read path first, the write path on a miss.
                        let rel = match cache.lookup(m, g) {
                            Some(rel) => rel,
                            None => cache.query(m, g),
                        };
                        h.rotate_left(1) ^ answer_hash(&rel)
                    })
                })
                .1
            }
            // Pins exist only on a `Server`: the server pass measures them.
            Action::Pin | Action::Pinned(_) => 0,
            Action::Round(round) => {
                let m = store.as_mut().expect("Build comes first");
                let (s0, m0) = (m.stats(), m.mem_stats());
                let report = tr.span("materialize.apply", |_| m.apply(round)).1;
                let (s1, m1) = (m.stats(), m.mem_stats());
                let dead = |x: &MemStats| (x.total_rows - x.live_rows) as f64;
                let appended = m1.total_rows as f64 - m0.total_rows as f64;
                match op.class {
                    Class::Insert => {
                        c.insert_probes
                            .push((s1.join_probes - s0.join_probes) as f64);
                        c.insert_firings
                            .push((s1.rule_firings - s0.rule_firings) as f64);
                        c.appended.push(appended);
                    }
                    Class::Retract => {
                        c.retract_probes
                            .push((s1.join_probes - s0.join_probes) as f64);
                        c.killed.push(dead(&m1) - dead(&m0));
                        c.retract_appended += appended;
                        c.retract_killed += dead(&m1) - dead(&m0);
                    }
                    _ => {}
                }
                c.dead_rows_peak = c.dead_rows_peak.max(m1.total_rows - m1.live_rows);
                // `Server::apply` catches every live view up inside the
                // round. From outside only a query can do that, and a
                // query also builds the answer — which the lookup right
                // after measures alone, to be subtracted.
                for g in &script.hot {
                    tr.span("cache.sync", |_| black_box(cache.query(m, g)));
                    tr.span("cache.sync_lookup", |_| black_box(cache.lookup(m, g)));
                }
                report_hash(&report)
            }
            Action::Save => {
                let m = store.as_ref().expect("Build comes first");
                let bytes = tr.span("materialize.encode", |_| m.to_bytes()).1;
                tr.span("persist.save", |_| m.save(&path))
                    .1
                    .expect("save under the benchmark's temp dir");
                c.snapshot_bytes = bytes.len();
                c.file_bytes = std::fs::metadata(&path).expect("just saved").len();
                c.live_rows_at_save = m.mem_stats().live_rows;
                0
            }
            Action::Restore(goal) => {
                let mut restored = tr
                    .span("persist.restore", |_| Materialization::restore(&path))
                    .1
                    .expect("restore what Save wrote");
                let mut fresh_cache = QueryCache::new(program);
                let rel = tr
                    .span("cache.build", |_| fresh_cache.query(&mut restored, goal))
                    .1;
                let bytes = std::fs::read(&path).expect("just saved");
                black_box(
                    tr.span("materialize.decode", |_| {
                        Materialization::from_bytes(&bytes)
                    })
                    .1
                    .expect("decodes"),
                );
                answer_hash(&rel)
            }
        });
        hashes.push(h);
        if matches!(op.action, Action::Save) {
            // The last save ends the served script (only the restart follows).
            let m = store.as_ref().expect("Build comes first");
            c.mem = m.mem_stats();
            c.plan_end = m.planner_report();
            c.cache = cache.stats();
            c.view_words = cache.view_words();
            c.view_rows = cache.view_rows();
            c.compactions = m.compactions();
        }
    }
    tr.op = u32::try_from(script.ops.len()).expect("fewer than 2^32 ops");
    let m = store.as_mut().expect("every script builds a store");
    tr.span("materialize.compact", |_| m.compact());
    LayerEpisode {
        tracer: tr,
        hashes,
        counters: c,
    }
}

/// What the once-per-run auxiliary phase measured.
struct Aux {
    tracer: Tracer,
    parser_program_ns: u64,
    parser_facts_per_s: f64,
    par2_speedup: f64,
    kernels: KernelTimes,
}

/// Facts rendered for the parser kernel (the EDB is capped at this many).
const PARSER_FACTS: usize = 50_000;
/// Rows of the storage kernels.
const KERNEL_ROWS: usize = 200_000;

fn render_facts(prep: &Prepared, cap: usize) -> (String, usize) {
    let symbols = &prep.program().symbols;
    let mut text = String::new();
    let mut n = 0;
    'all: for (pred, rows) in prep.script.db.sorted_models() {
        for t in rows {
            let args: Vec<&str> = t.iter().map(|&c| symbols.const_name(c)).collect();
            text.push_str(&format!(
                "{}({}).\n",
                symbols.pred_name(pred),
                args.join(", ")
            ));
            n += 1;
            if n == cap {
                break 'all;
            }
        }
    }
    (text, n)
}

fn aux_phase(prep: &Prepared, smoke: bool) -> Aux {
    let mut tr = Tracer::new();
    tr.op = u32::MAX;
    let parser_program_ns = tr
        .span("parser.program", |_| {
            for s in prep.script.workload.programs {
                black_box(parse_program(s).expect("catalog program parses"));
            }
        })
        .0;
    let (text, facts) = render_facts(prep, PARSER_FACTS);
    let mut symbols = prep.program().symbols.clone();
    let (ns, db) = tr.span("parser.facts", |_| {
        Database::parse_facts(&text, &mut symbols)
    });
    assert_eq!(db.expect("rendered facts parse").num_facts(), facts);
    let parser_facts_per_s = facts as f64 / (ns as f64 * 1e-9);
    // ROADMAP item 1's decision input: does the parallel engine help at
    // two threads on this box?
    let (mut seq, mut par) = (0u64, 0u64);
    for p in &prep.script.programs {
        seq += tr
            .span("eval.original", |_| {
                black_box(answer(p, &prep.script.db, STRATEGY))
            })
            .0;
        par += tr
            .span("eval.original_par2", |_| {
                black_box(answer(
                    p,
                    &prep.script.db,
                    Strategy::SemiNaiveParallel { threads: 2 },
                ))
            })
            .0;
    }
    let rows = if smoke { 2_000 } else { KERNEL_ROWS };
    let mut k = kernels::run(rows, &mut tr);
    for _ in 0..2 {
        k = k.min(kernels::run(rows, &mut tr));
    }
    Aux {
        tracer: tr,
        parser_program_ns,
        parser_facts_per_s,
        par2_speedup: seq as f64 / par as f64,
        kernels: k,
    }
}

/// `a / b`, or 0 when there is nothing to divide by.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The result of a traced run.
pub struct Traced {
    /// The server pass.
    pub pass: Replay,
    /// Every per-layer metric, in catalog order.
    pub metrics: Vec<Reported>,
    /// Human-readable notes (where the trace went, re-measured end-to-end).
    pub report: String,
}

/// Self times of the layer pass, per-op-min over its episodes, indexed
/// like the spans of any one episode (the sequence is identical).
fn min_self_times(eps: &[LayerEpisode]) -> Vec<u64> {
    let mut t = eps[0].tracer.self_times();
    for e in &eps[1..] {
        let other = e.tracer.self_times();
        assert_eq!(
            other.len(),
            t.len(),
            "layer-pass episodes record the same spans"
        );
        for (a, b) in t.iter_mut().zip(other) {
            *a = (*a).min(b);
        }
    }
    t
}

/// Runs the traced passes and derives every per-layer metric.
pub fn run(prep: &Prepared, oracle: &mut Oracle, deadline: Instant, min: usize) -> Traced {
    let script = &prep.script;
    let sizes = &script.sizes;
    let n = sizes.traced_episodes;
    let smoke = oracle.checks_every_op();

    // Server pass: the untraced run's own code, plus the server extras.
    let pass = replay(prep, oracle, n, min.min(n), deadline, true);
    let episodes = &pass.timed;
    let server_t = stats::per_op_min(episodes);

    // Layer pass.
    let layers: Vec<LayerEpisode> = (0..n).map(|e| layer_episode(prep, e)).collect();
    for (e, l) in layers.iter().enumerate() {
        for (i, op) in script.ops.iter().enumerate() {
            if !matches!(
                op.action,
                Action::Pin | Action::Pinned(_) | Action::Decide { .. }
            ) {
                let same = l.hashes[i] == pass.checked.hashes[i];
                oracle.record(same, || {
                    format!("layer pass {e} op {i}: answer differs from the server pass")
                });
            }
        }
    }
    let aux = aux_phase(prep, smoke);

    let spans = &layers[0].tracer.spans;
    let self_t = min_self_times(&layers);
    // Per op: nanoseconds by span name.
    let mut by_op: Vec<BTreeMap<&'static str, u64>> = vec![BTreeMap::new(); script.ops.len() + 1];
    for (s, &t) in spans.iter().zip(&self_t) {
        *by_op[s.op as usize].entry(s.name).or_insert(0) += t;
    }
    let of = |i: usize, name: &str| by_op[i].get(name).copied().unwrap_or(0) as f64;
    let ops_of = |class: Class| -> Vec<usize> {
        script
            .ops
            .iter()
            .enumerate()
            .filter(|(_, op)| op.class == class)
            .map(|(i, _)| i)
            .collect()
    };
    // Median over a class's ops of one span's per-operation nanoseconds.
    let class_median = |classes: &[Class], name: &str| -> f64 {
        let mut v: Vec<f64> = classes
            .iter()
            .flat_map(|&c| ops_of(c))
            .map(|i| of(i, name) / stats::divisor(&script.ops[i]))
            .collect();
        if v.is_empty() {
            0.0
        } else {
            median(&mut v)
        }
    };
    let class_sum = |class: Class, name: &str| -> f64 {
        ops_of(class)
            .into_iter()
            .map(|i| of(i, name) / stats::divisor(&script.ops[i]))
            .sum()
    };
    let med = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            median(&mut v.to_vec())
        }
    };

    let c = &layers.last().expect("at least one layer episode").counters;
    let rounds = [Class::Insert, Class::Retract];
    // What a round costs in the layer pass, without the lookups that
    // exist only to be subtracted.
    let round_layers =
        |i: usize| of(i, "materialize.apply") + of(i, "cache.sync") - of(i, "cache.sync_lookup");
    let sync_per_view = {
        let mut v: Vec<f64> = rounds
            .iter()
            .flat_map(|&cl| ops_of(cl))
            .map(|i| {
                ((of(i, "cache.sync") - of(i, "cache.sync_lookup")) / script.hot.len() as f64)
                    .max(0.0)
            })
            .collect();
        median(&mut v)
    };
    let apply_overhead = {
        let mut v: Vec<f64> = rounds
            .iter()
            .flat_map(|&cl| ops_of(cl))
            .map(|i| server_t[i] as f64 - round_layers(i))
            .collect();
        median(&mut v)
    };
    // Tracing overhead: the layer pass's root spans (less the layer-only
    // extras) against the server pass, over the classes both replay alike.
    let (mut traced_ns, mut plain_ns) = (0.0, 0.0);
    for (i, op) in script.ops.iter().enumerate() {
        if !matches!(
            op.class,
            Class::Pin | Class::Pinned | Class::Save | Class::Restore
        ) {
            let root: f64 = by_op[i].values().map(|&x| x as f64).sum();
            traced_ns += root - of(i, "cache.sync_lookup");
            plain_ns += server_t[i] as f64;
        }
    }
    let pin_us = stats::class_samples(script, &server_t)
        .get_mut(&Class::Pin)
        .map_or(0.0, |v| median(v))
        * 1e-3;
    let extras = |f: fn(&(u64, u64)) -> u64| {
        episodes
            .iter()
            .filter_map(|e| e.extras.as_ref().map(f))
            .min()
            .unwrap_or(0) as f64
            * 1e-6
    };
    let save_ns = class_median(&[Class::Save], "persist.save");
    let encode_ns = class_median(&[Class::Save], "materialize.encode");
    let total_spans: usize = layers.iter().map(|l| l.tracer.spans.len()).sum::<usize>()
        + aux.tracer.spans.len()
        + episodes.len() * script.ops.len();
    let eval = |i: usize, f: fn(&EvalStats) -> f64| f(&c.eval[i]);
    let k = &aux.kernels;
    let rewrite_rules: usize = prep
        .propagated
        .iter()
        .zip(&prep.propagates)
        .filter(|(_, &ok)| ok)
        .map(|(p, _)| p.rules.len())
        .sum();

    let values: Vec<f64> = vec![
        class_sum(Class::Decide, "core.chain_parse") * 1e-3,
        class_sum(Class::Decide, "core.propagate") * 1e-6,
        rewrite_rules as f64,
        aux.parser_program_ns as f64 * 1e-3,
        aux.parser_facts_per_s,
        class_sum(Class::BatchMagic, "magic.transform") * 1e-3,
        // `reps` repeats of one transform count its rules `reps` times.
        c.magic_rules as f64 / f64::from(sizes.batch_reps[2]),
        eval(0, |s| s.iterations as f64),
        eval(1, |s| s.iterations as f64),
        eval(2, |s| s.iterations as f64),
        eval(0, |s| s.rule_firings as f64),
        eval(1, |s| s.rule_firings as f64),
        eval(2, |s| s.rule_firings as f64),
        eval(0, |s| s.join_probes as f64),
        eval(1, |s| s.join_probes as f64),
        eval(2, |s| s.join_probes as f64),
        eval(0, |s| s.tuples_derived as f64),
        eval(1, |s| s.tuples_derived as f64),
        eval(2, |s| s.tuples_derived as f64),
        eval(0, |s| ratio(s.tuples_derived as f64, s.rule_firings as f64)),
        eval(1, |s| ratio(s.tuples_derived as f64, s.rule_firings as f64)),
        eval(2, |s| ratio(s.tuples_derived as f64, s.rule_firings as f64)),
        aux.par2_speedup,
        (c.plan_end.replans - c.plan_built.replans) as f64,
        (c.plan_end.tc_hits - c.plan_built.tc_hits) as f64,
        (c.plan_end.tc_rows - c.plan_built.tc_rows) as f64,
        c.plan_end.index_keys as f64,
        c.plan_end.index_rows as f64,
        k.insert_ns_per_row,
        k.contains_ns,
        k.extend_ns_per_row,
        k.probe1_ns,
        k.probe_ns,
        k.tombstone_ns,
        k.compact_ns_per_row,
        class_sum(Class::Build, "materialize.build") * 1e-9,
        class_median(&[Class::Insert], "materialize.apply") * 1e-6,
        class_median(&[Class::Retract], "materialize.apply") * 1e-6,
        class_median(&[Class::RelevantInsert], "materialize.apply") * 1e-6,
        med(&c.insert_probes),
        med(&c.insert_firings),
        med(&c.retract_probes),
        med(&c.appended),
        med(&c.killed),
        ratio(c.retract_appended, c.retract_killed),
        of(script.ops.len(), "materialize.compact") * 1e-6,
        c.compactions as f64,
        encode_ns * 1e-6,
        class_median(&[Class::Restore], "materialize.decode") * 1e-6,
        c.snapshot_bytes as f64,
        c.mem.total_words() as f64,
        c.mem.index_words as f64,
        c.mem.seg_words as f64,
        c.mem.just_words as f64,
        c.dead_rows_peak as f64,
        class_median(&[Class::Hit], "cache.lookup") * 1e-3,
        class_median(&[Class::Cold], "cache.build") * 1e-6,
        class_sum(Class::QueryFirst, "cache.first_build") * 1e-6,
        sync_per_view * 1e-6,
        c.cache.hits as f64,
        c.cache.misses as f64,
        c.cache.syncs as f64,
        c.cache.direct as f64,
        c.cache.evictions as f64,
        c.cache.invalidations as f64,
        c.cache.template_compiles as f64,
        ratio(
            c.cache.hits as f64,
            (c.cache.hits + c.cache.misses + c.cache.syncs) as f64,
        ),
        c.view_words as f64,
        c.view_rows as f64,
        ratio(c.view_words as f64, c.mem.total_words() as f64),
        apply_overhead * 1e-6,
        pin_us,
        extras(|x| x.0),
        extras(|x| x.1),
        save_ns * 1e-6,
        class_median(&[Class::Restore], "persist.restore") * 1e-6,
        c.file_bytes as f64,
        ratio(c.file_bytes as f64, c.live_rows_at_save as f64),
        ratio(save_ns - encode_ns, save_ns),
        total_spans as f64,
        ratio(traced_ns, plain_ns) - 1.0,
    ];
    assert_eq!(
        values.len(),
        PER_LAYER.len(),
        "one value per per-layer metric"
    );
    let metrics: Vec<Reported> = PER_LAYER
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name.to_owned(), v, m.unit.to_owned()))
        .collect();

    let mut report = String::new();
    let path = prep
        .out_dir
        .join(format!("trace-{}.json", script.workload.name));
    match write_trace(&path, prep, episodes, &layers, &aux) {
        Ok(()) => report.push_str(&format!(
            "trace: {total_spans} spans written to {}\n",
            path.display()
        )),
        Err(e) => report.push_str(&format!("trace: could not write {}: {e}\n", path.display())),
    }
    report.push_str("end-to-end, re-measured by the traced run's server pass (the gated numbers come from an untraced run):\n");
    for (name, value, unit) in stats::end_to_end(script, &pass.checked, episodes) {
        report.push_str(&format!("  {name:<38} {value:>16.6} {unit}\n"));
    }
    Traced {
        pass,
        metrics,
        report,
    }
}

/// Writes every span of the run as one JSON document.
fn write_trace(
    path: &std::path::Path,
    prep: &Prepared,
    episodes: &[Episode],
    layers: &[LayerEpisode],
    aux: &Aux,
) -> std::io::Result<()> {
    let script = &prep.script;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        f,
        "{{\"workload\": \"{}\", \"script_hash\": \"{:016x}\", \"ops\": {}, \"spans\": [",
        script.workload.name,
        script.hash,
        script.ops.len()
    )?;
    let mut first = true;
    let mut emit = |f: &mut std::io::BufWriter<std::fs::File>,
                    pass: &str,
                    episode: usize,
                    id: usize,
                    name: &str,
                    start: u64,
                    end: u64,
                    parent: i64,
                    op: i64|
     -> std::io::Result<()> {
        if !first {
            writeln!(f, ",")?;
        }
        first = false;
        write!(
            f,
            "{{\"pass\": \"{pass}\", \"episode\": {episode}, \"id\": {id}, \"name\": \"{name}\", \"start_ns\": {start}, \"end_ns\": {end}, \"parent\": {parent}, \"op\": {op}}}"
        )
    };
    // Server pass: one span per op, named after its class (a `Server`
    // call is one opaque unit from outside).
    for (e, ep) in episodes.iter().enumerate() {
        for (i, op) in script.ops.iter().enumerate() {
            // The batch phase never touches a `Server`.
            let layer = if matches!(op.action, Action::Decide { .. } | Action::Batch { .. }) {
                "batch"
            } else {
                "server"
            };
            let name = format!("{layer}.{}", op.class.label());
            emit(
                &mut f,
                "server",
                e,
                i,
                &name,
                ep.starts[i],
                ep.starts[i] + ep.times[i],
                -1,
                i as i64,
            )?;
        }
    }
    let parent = |p: u32| if p == NO_PARENT { -1 } else { i64::from(p) };
    for (e, l) in layers.iter().enumerate() {
        for (id, s) in l.tracer.spans.iter().enumerate() {
            emit(
                &mut f,
                "layers",
                e,
                id,
                s.name,
                s.start_ns,
                s.end_ns,
                parent(s.parent),
                i64::from(s.op),
            )?;
        }
    }
    for (id, s) in aux.tracer.spans.iter().enumerate() {
        emit(
            &mut f,
            "aux",
            0,
            id,
            s.name,
            s.start_ns,
            s.end_ns,
            parent(s.parent),
            -1,
        )?;
    }
    writeln!(f, "\n]}}")?;
    f.flush()
}
