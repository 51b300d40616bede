//! The catalog: every metric name the benchmark prints and every size
//! constant of the four workloads. Scripts are count-based — nothing
//! here depends on time — and `BENCHMARK.json` must list exactly these
//! names (checked by `tests/contract.rs`).

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the catalog.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Printed name (letters, digits, `_`, `.`, `-`).
    pub name: &'static str,
    /// Printed unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The end-to-end metrics: what a user of `Server` (or of the batch
/// pipeline) waits for. Every workload prints every one of them on an
/// untraced run. `Server::save` is not among them: its `sync_all` made
/// it differ by 17–24 % between runs of the same code (`NOISE.md`), so
/// it is the per-layer `persist.save_ms`, beside `materialize.encode_ms`
/// and `persist.io_share`; saves still count in `ops_per_s`.
pub const END_TO_END: &[MetricDef] = &[
    lo("setup_s", "s"),
    lo("query_first_ms", "ms"),
    lo("query_cold_ms", "ms"),
    lo("query_hit_us", "us"),
    lo("pinned_query_us", "us"),
    lo("insert_round_ms", "ms"),
    lo("retract_round_ms", "ms"),
    hi("ops_per_s", "1/s"),
    lo("restore_ms", "ms"),
    lo("peak_over_fresh", "ratio"),
    lo("batch_original_s", "s"),
    lo("batch_magic_s", "s"),
    lo("batch_propagated_s", "s"),
    lo("decide_ms", "ms"),
];

/// The per-layer metrics (layers = modules of the engine), printed by a
/// traced run. None is gated.
pub const PER_LAYER: &[MetricDef] = &[
    lo("core.chain_parse_us", "us"),
    lo("core.propagate_ms", "ms"),
    lo("core.rewrite_rules", "count"),
    lo("parser.program_us", "us"),
    hi("parser.facts_per_s", "1/s"),
    lo("magic.transform_us", "us"),
    lo("magic.rules_out", "count"),
    lo("eval.iterations.original", "count"),
    lo("eval.iterations.magic", "count"),
    lo("eval.iterations.propagated", "count"),
    lo("eval.rule_firings.original", "count"),
    lo("eval.rule_firings.magic", "count"),
    lo("eval.rule_firings.propagated", "count"),
    lo("eval.join_probes.original", "count"),
    lo("eval.join_probes.magic", "count"),
    lo("eval.join_probes.propagated", "count"),
    lo("eval.tuples_derived.original", "count"),
    lo("eval.tuples_derived.magic", "count"),
    lo("eval.tuples_derived.propagated", "count"),
    hi("eval.firings_per_tuple.original", "ratio"),
    hi("eval.firings_per_tuple.magic", "ratio"),
    hi("eval.firings_per_tuple.propagated", "ratio"),
    hi("eval.par2_speedup", "ratio"),
    lo("plan.replans", "count"),
    hi("plan.tc_hits", "count"),
    lo("plan.tc_rows", "count"),
    lo("plan.index_keys", "count"),
    lo("plan.index_rows", "count"),
    lo("storage.insert_ns_per_row", "ns"),
    lo("storage.contains_ns", "ns"),
    lo("storage.extend_ns_per_row", "ns"),
    lo("storage.probe1_ns", "ns"),
    lo("storage.probe_ns", "ns"),
    lo("storage.tombstone_ns", "ns"),
    lo("storage.compact_ns_per_row", "ns"),
    lo("materialize.build_s", "s"),
    lo("materialize.insert_round_ms", "ms"),
    lo("materialize.retract_round_ms", "ms"),
    lo("materialize.relevant_insert_ms", "ms"),
    lo("materialize.probes_per_insert_round", "count"),
    lo("materialize.firings_per_insert_round", "count"),
    lo("materialize.probes_per_retract_round", "count"),
    lo("materialize.rows_appended_per_round", "count"),
    lo("materialize.rows_killed_per_round", "count"),
    lo("materialize.rederive_ratio", "ratio"),
    lo("materialize.compact_ms", "ms"),
    lo("materialize.compactions", "count"),
    lo("materialize.encode_ms", "ms"),
    lo("materialize.decode_ms", "ms"),
    lo("materialize.snapshot_bytes", "count"),
    lo("materialize.total_words", "count"),
    lo("materialize.index_words", "count"),
    lo("materialize.seg_words", "count"),
    lo("materialize.just_words", "count"),
    lo("materialize.dead_rows_peak", "count"),
    lo("cache.lookup_us", "us"),
    lo("cache.build_ms", "ms"),
    lo("cache.first_build_ms", "ms"),
    lo("cache.sync_ms_per_view", "ms"),
    hi("cache.hits", "count"),
    lo("cache.misses", "count"),
    lo("cache.syncs", "count"),
    lo("cache.direct", "count"),
    lo("cache.evictions", "count"),
    lo("cache.invalidations", "count"),
    lo("cache.template_compiles", "count"),
    hi("cache.hit_ratio", "ratio"),
    lo("cache.view_words", "count"),
    lo("cache.view_rows", "count"),
    lo("cache.view_over_base", "ratio"),
    lo("server.apply_overhead_ms", "ms"),
    lo("server.snapshot_pin_us", "us"),
    lo("server.answer_ms", "ms"),
    lo("server.direct_query_ms", "ms"),
    lo("persist.save_ms", "ms"),
    lo("persist.restore_ms", "ms"),
    lo("persist.bytes", "count"),
    lo("persist.bytes_per_fact", "ratio"),
    lo("persist.io_share", "ratio"),
    lo("trace.spans", "count"),
    lo("trace.overhead_share", "ratio"),
];

/// The class of a script operation: the unit of aggregation. One cost
/// regime per class per workload — a class median over two regimes
/// describes neither.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// `ChainProgram::from_program` + `propagate`.
    Decide,
    /// Cold `answer(program, db)`.
    BatchOriginal,
    /// Cold `magic_transform` + `answer`.
    BatchMagic,
    /// Cold `answer` of the program the decision hands back.
    BatchPropagated,
    /// `Server::from_database` (+ policy/config).
    Build,
    /// First bound query of a binding pattern on the fresh server.
    QueryFirst,
    /// Warming the remaining hot views.
    Warm,
    /// A batch of bound queries answered from up-to-date views.
    Hit,
    /// A batch of bound queries on constants with no live view.
    Cold,
    /// `Server::snapshot`.
    Pin,
    /// A batch of `Snapshot::query` on an old pin, then the unpin.
    Pinned,
    /// One fixed-size insert-only round.
    Insert,
    /// One fixed-size retract-only round.
    Retract,
    /// Re-inserting one EDB fact a hot view depends on (the splice).
    RelevantInsert,
    /// Retracting one EDB fact a hot view depends on (the cut).
    RelevantRetract,
    /// A round that only keeps the script going (priming, leaf churn);
    /// counted in `ops_per_s` only.
    Other,
    /// `Server::save`.
    Save,
    /// `Server::restore` + `enable_query_cache` + first bound answer.
    Restore,
}

impl Class {
    /// Whether ops of this class are served operations, i.e. count in
    /// `ops_per_s` (set-up, the batch phase and the restart do not).
    pub fn is_served(self) -> bool {
        !matches!(
            self,
            Class::Decide
                | Class::BatchOriginal
                | Class::BatchMagic
                | Class::BatchPropagated
                | Class::Build
                | Class::QueryFirst
                | Class::Warm
                | Class::Restore
        )
    }

    /// Short label for the human-readable table.
    pub fn label(self) -> &'static str {
        match self {
            Class::Decide => "decide",
            Class::BatchOriginal => "batch_original",
            Class::BatchMagic => "batch_magic",
            Class::BatchPropagated => "batch_propagated",
            Class::Build => "build",
            Class::QueryFirst => "query_first",
            Class::Warm => "warm",
            Class::Hit => "hit",
            Class::Cold => "cold",
            Class::Pin => "pin",
            Class::Pinned => "pinned",
            Class::Insert => "insert",
            Class::Retract => "retract",
            Class::RelevantInsert => "relevant_insert",
            Class::RelevantRetract => "relevant_retract",
            Class::Other => "other",
            Class::Save => "save",
            Class::Restore => "restore",
        }
    }
}

/// `run_seconds` of `BENCHMARK.json`: `--seconds` when the command line
/// does not say.
pub const RUN_SECONDS: u64 = 30;

/// The sample floor: a class backs a printed metric only with this many
/// ops per episode …
pub const FLOOR_PLENTIFUL: usize = 40;
/// … unless its ops cannot be made short and plentiful, in which case
/// one per episode over this many episodes is the floor.
pub const FLOOR_EPISODES: usize = 5;

/// Classes whose ops are long or once-per-lifetime by nature (the
/// second kind of sample floor).
pub fn is_scarce(class: Class) -> bool {
    matches!(
        class,
        Class::Decide
            | Class::BatchOriginal
            | Class::BatchMagic
            | Class::BatchPropagated
            | Class::Build
            | Class::QueryFirst
            | Class::Save
            | Class::Restore
    )
}

/// How episode 0's answers are checked (see `oracle.rs`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OracleKind {
    /// One from-scratch `magic_transform` + `answer` per goal: cheap
    /// when the EDB is small next to the model.
    MagicPerGoal,
    /// One from-scratch `evaluate` per EDB state, goals filtered off the
    /// model: cheap when the EDB load dominates.
    FullModel,
}

/// The input graph of a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Graph {
    /// `workload::layered_dag(layers, width)` on `par`, root `john`.
    LayeredDag {
        /// Ranks below rank 0.
        layers: usize,
        /// Nodes per rank.
        width: usize,
    },
    /// `workload::layered_b1_b2(layers, noise)`, root `c`.
    B1B2 {
        /// Length of the `b1` chain (and of the `b2` chain).
        layers: usize,
        /// Disconnected `b1`/`b2` pairs.
        noise: usize,
    },
    /// E1's `build_db`: `random_forest(n)` rooted at `john` plus
    /// `n / 20` ten-edge `wide` islands.
    Forest {
        /// Forest nodes.
        n: usize,
    },
}

/// Every size constant of one workload. The script (`script.rs`) is a
/// pure function of these and the seed.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Input graph.
    pub graph: Graph,
    /// Hot goals warmed during set-up and hit ever after.
    pub hot: usize,
    /// Blocks per episode.
    pub blocks: usize,
    /// Hit batches per block.
    pub hit_batches: usize,
    /// Queries per hit batch.
    pub hit_batch: usize,
    /// Queries per cold batch (one batch per block).
    pub cold_batch: usize,
    /// Queries per pinned batch (one batch per block once a pin is old enough).
    pub pinned_batch: usize,
    /// Blocks between taking a pin and reading it.
    pub pin_lag: usize,
    /// Facts groups (edges, noise pairs, rescue leaves) per round.
    pub round_size: usize,
    /// Blocks between an insert round and the round retracting it.
    pub retract_lag: usize,
    /// Rescue leaves (two parents each) — `churn_durable` only.
    pub diamonds: usize,
    /// A `save` every this many blocks (0 = only the one at the end).
    pub save_every: usize,
    /// Cut/splice pairs per episode, spread over the blocks.
    pub splices: usize,
    /// `CompactionPolicy::dead_percent` of the store (0 = no policy).
    pub compaction_percent: u32,
    /// `CacheConfig::max_views`.
    pub max_views: usize,
    /// Repeats inside one timed sample of `decide`, `original`, `magic`,
    /// `propagated` (so no sample is shorter than a few milliseconds).
    pub batch_reps: [u32; 4],
    /// Oracle for episode 0.
    pub oracle: OracleKind,
    /// A checkpoint every this many blocks (and one at the end).
    pub checkpoint_every: usize,
    /// Timed episodes a run replays after the checked one, unless the
    /// `--seconds` deadline cuts it short.
    pub episodes: usize,
    /// Timed episodes of each of the two passes of a traced run.
    pub traced_episodes: usize,
}

/// One workload of the catalog.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it is in the benchmark (one line, copied to `BENCHMARK.json`).
    pub why: &'static str,
    /// Program sources; the first is the one served.
    pub programs: &'static [&'static str],
    /// Full sizes.
    pub full: Sizes,
    /// `--smoke` sizes (toy; the reference evaluator checks every op).
    pub smoke: Sizes,
}

impl Workload {
    /// The sizes for a run.
    pub fn sizes(&self, smoke: bool) -> Sizes {
        if smoke {
            self.smoke
        } else {
            self.full
        }
    }
}

/// Example 1.1's program A, the program every DAG/forest workload serves.
pub const PROGRAM_A: &str =
    "?- anc(john, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), par(Z, Y).";
/// Example 1.1's program B (right-linear).
pub const PROGRAM_B: &str =
    "?- anc(john, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- par(X, Z), anc(Z, Y).";
/// Example 1.1's program C (non-linear).
pub const PROGRAM_C: &str =
    "?- anc(john, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), anc(Z, Y).";
/// The Section 7 program: `L(H) = { b1ⁿ b2ⁿ }`, not regular, so the
/// selection does not propagate and magic sets are the fallback.
pub const PROGRAM_S7: &str =
    "?- p(c, Y).\np(X, Y) :- b1(X, X1), b2(X1, Y).\np(X, Y) :- b1(X, X1), p(X1, Y1), b2(Y1, Y).";

/// The four workloads.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "tc_serve",
        why: "reads dominate a 140k-tuple closure beyond the private cache; each round syncs 32 live views (materialize, cache, storage work; core idle)",
        programs: &[PROGRAM_A],
        full: Sizes {
            graph: Graph::LayeredDag { layers: 32, width: 16 },
            hot: 32,
            blocks: 44,
            hit_batches: 4,
            hit_batch: 64,
            cold_batch: 1,
            pinned_batch: 64,
            pin_lag: 4,
            round_size: 4,
            retract_lag: 4,
            diamonds: 0,
            save_every: 0,
            splices: 4,
            compaction_percent: 0,
            max_views: 64,
            batch_reps: [64, 1, 8, 8],
            oracle: OracleKind::MagicPerGoal,
            checkpoint_every: 5,
            episodes: 32,
            traced_episodes: 6,
        },
        smoke: Sizes {
            graph: Graph::LayeredDag { layers: 6, width: 3 },
            hot: 4,
            blocks: 4,
            hit_batches: 1,
            hit_batch: 4,
            cold_batch: 1,
            pinned_batch: 4,
            pin_lag: 1,
            round_size: 2,
            retract_lag: 1,
            diamonds: 0,
            save_every: 0,
            splices: 1,
            compaction_percent: 0,
            max_views: 64,
            batch_reps: [1, 1, 1, 1],
            oracle: OracleKind::MagicPerGoal,
            checkpoint_every: 2,
            episodes: 2,
            traced_episodes: 1,
        },
    },
    Workload {
        name: "noise_serve",
        why: "goal-relevant fraction 1e-4: views do almost nothing per round, EDB load, index build and planning do everything (ROADMAP item 3's regime)",
        programs: &[PROGRAM_S7],
        full: Sizes {
            graph: Graph::B1B2 { layers: 20, noise: 50_000 },
            hot: 32,
            blocks: 44,
            hit_batches: 4,
            hit_batch: 1024,
            cold_batch: 64,
            pinned_batch: 256,
            pin_lag: 2,
            round_size: 64,
            retract_lag: 0,
            diamonds: 0,
            save_every: 0,
            splices: 4,
            compaction_percent: 0,
            max_views: 128,
            batch_reps: [1, 1, 1, 1],
            oracle: OracleKind::FullModel,
            checkpoint_every: 5,
            episodes: 29,
            traced_episodes: 6,
        },
        smoke: Sizes {
            graph: Graph::B1B2 { layers: 3, noise: 40 },
            hot: 4,
            blocks: 4,
            hit_batches: 1,
            hit_batch: 4,
            cold_batch: 3,
            pinned_batch: 4,
            pin_lag: 1,
            round_size: 2,
            retract_lag: 0,
            diamonds: 0,
            save_every: 0,
            splices: 1,
            compaction_percent: 0,
            max_views: 8,
            batch_reps: [1, 1, 1, 1],
            oracle: OracleKind::FullModel,
            checkpoint_every: 2,
            episodes: 2,
            traced_episodes: 1,
        },
    },
    Workload {
        name: "churn_durable",
        why: "rescue-heavy DRed, tombstones, compaction and saves of a store with dead rows on a small closure; the view cache is nearly idle",
        programs: &[PROGRAM_A],
        full: Sizes {
            graph: Graph::LayeredDag { layers: 24, width: 12 },
            hot: 4,
            blocks: 96,
            hit_batches: 1,
            hit_batch: 64,
            cold_batch: 1,
            pinned_batch: 64,
            pin_lag: 0,
            round_size: 2,
            retract_lag: 0,
            diamonds: 16,
            save_every: 12,
            splices: 4,
            compaction_percent: 10,
            max_views: 64,
            batch_reps: [64, 1, 16, 16],
            oracle: OracleKind::FullModel,
            checkpoint_every: 12,
            episodes: 34,
            traced_episodes: 6,
        },
        smoke: Sizes {
            graph: Graph::LayeredDag { layers: 5, width: 3 },
            hot: 2,
            blocks: 6,
            hit_batches: 1,
            hit_batch: 4,
            cold_batch: 1,
            pinned_batch: 4,
            pin_lag: 1,
            round_size: 2,
            retract_lag: 0,
            diamonds: 4,
            save_every: 3,
            splices: 1,
            compaction_percent: 10,
            max_views: 64,
            batch_reps: [1, 1, 1, 1],
            oracle: OracleKind::FullModel,
            checkpoint_every: 3,
            episodes: 2,
            traced_episodes: 1,
        },
    },
    Workload {
        name: "batch_pipeline",
        why: "the paper's own comparison: programs A, B, C evaluated cold as original, magic and propagated; eval, plan, magic, core do the work, the serving layers little",
        programs: &[PROGRAM_A, PROGRAM_B, PROGRAM_C],
        full: Sizes {
            graph: Graph::Forest { n: 15_000 },
            hot: 16,
            blocks: 44,
            hit_batches: 1,
            hit_batch: 512,
            cold_batch: 8,
            pinned_batch: 256,
            pin_lag: 2,
            round_size: 2,
            retract_lag: 2,
            diamonds: 0,
            save_every: 0,
            splices: 4,
            compaction_percent: 0,
            max_views: 64,
            batch_reps: [1, 1, 1, 1],
            oracle: OracleKind::MagicPerGoal,
            checkpoint_every: 10,
            episodes: 32,
            traced_episodes: 6,
        },
        smoke: Sizes {
            graph: Graph::Forest { n: 200 },
            hot: 2,
            blocks: 4,
            hit_batches: 1,
            hit_batch: 4,
            cold_batch: 2,
            pinned_batch: 4,
            pin_lag: 1,
            round_size: 2,
            retract_lag: 1,
            diamonds: 0,
            save_every: 0,
            splices: 1,
            compaction_percent: 0,
            max_views: 64,
            batch_reps: [1, 1, 1, 1],
            oracle: OracleKind::MagicPerGoal,
            checkpoint_every: 2,
            episodes: 2,
            traced_episodes: 1,
        },
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
