//! Reader/writer stress: N reader threads pin epoch snapshots and
//! query while the writer applies a randomized churn stream of batched
//! update rounds (fact inserts, retractions, mixed rounds, and a rule
//! drop/re-add pair).
//!
//! The consistency contract, asserted on **every** read:
//!
//! - the observed database equals the from-scratch `reference`
//!   evaluation of exactly the applied-round prefix named by the
//!   snapshot's epoch (linearizable at round granularity — a mid-round
//!   state matches no prefix and would fail);
//! - epochs observed by one reader never go backwards;
//! - a snapshot held across arbitrary churn keeps serving its pinned
//!   prefix.
//!
//! The acceptance bar is ≥1000 such reads across the strategy × reader
//! sweep; the run prints its tally and asserts it.
//!
//! The next test does the same for **bound queries through the view
//! cache**: the writer interleaves rounds with cached queries under a
//! view budget that keeps changing, readers pin snapshots, let the
//! churn run on, and ask the pinned epoch — and every answer, current
//! or pinned, equals the from-scratch magic evaluation of that epoch.
//!
//! The tests after it are about the **answers** themselves, which the
//! cache memoises per view and hands out by reference count (`cache`
//! module docs, "Answers"): readers fill memos under the read lock while
//! the writer stamps views under the write lock, a client may keep — and
//! write to — an answer for as long as it likes, a pinned read takes
//! whichever memo covers its epoch (the view keeps one per live pin and
//! none once the pins are gone), and the writer itself never builds or
//! frees an answer.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use selprop_datalog::db::Tuple;
use selprop_datalog::eval::{answer, Strategy};
use selprop_datalog::magic::magic_transform;
use selprop_datalog::reference;
use selprop_datalog::{
    parse_program, Atom, CacheConfig, CompactionPolicy, Database, Pred, Program, RuleId, Server,
    Snapshot, Term, UpdateRound,
};

const ROUNDS: usize = 24;
const READERS: usize = 4;
const MIN_READS_PER_READER: usize = 100;
/// How long the writer waits on its readers before it fails instead of
/// hanging.
const WAIT: Duration = Duration::from_secs(60);

/// Deterministic xorshift64* stream for the churn schedule.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Sorted nonempty `(pred, tuples)` view — the canonical form both the
/// snapshot database and the reference model are reduced to (stores
/// keep every relation they ever tracked; the reference only the
/// program's).
fn canon(db: &Database) -> Vec<(Pred, Vec<Tuple>)> {
    db.sorted_models().into_iter().filter(|(_, rows)| !rows.is_empty()).collect()
}

/// The full expected state for one prefix: stored EDB facts plus the
/// from-scratch reference IDB model of the prefix's program variant.
fn expected_state(program: &Program, edb: &Database) -> Vec<(Pred, Vec<Tuple>)> {
    let spec = reference::evaluate(program, edb, Strategy::SemiNaive);
    let mut merged = edb.clone();
    for (p, r) in spec.idb.iter() {
        for t in r.sorted() {
            merged.insert(p, t);
        }
    }
    canon(&merged)
}

/// One strategy's full stress run; returns the number of consistent
/// concurrent reads it performed. With `policy` set, churn keeps
/// tripping the compaction bounds, so compactions interleave with the
/// pinned readers (queued while pins exist, run at drain points).
fn stress_one_strategy(strategy: Strategy, seed: u64, policy: Option<CompactionPolicy>) -> usize {
    let mut p = parse_program(
        "?- anc(john, Y).\n\
         anc(X, Y) :- par(X, Y).\n\
         anc(X, Y) :- anc(X, Z), par(Z, Y).",
    )
    .expect("valid program");
    let par = p.symbols.get_predicate("par").unwrap();
    // The edited program variant for prefixes where the transitive rule
    // is dropped.
    let mut p_minus = p.clone();
    p_minus.rules = vec![p.rules[0].clone()];

    // A pool of chain edges rooted at john; rounds draw from it.
    let names: Vec<_> = (0..=6 * ROUNDS)
        .map(|i| {
            if i == 0 {
                p.symbols.constant("john")
            } else {
                p.symbols.constant(&format!("c{i}"))
            }
        })
        .collect();
    let edge = |i: usize| -> Tuple { vec![names[i], names[i + 1]] };

    // Bulk-load a prefix of the chain, then build the randomized churn
    // stream AND the expected state per applied-round prefix, up front.
    let mut db0 = Database::new();
    let mut len = 8usize;
    for i in 0..len {
        db0.insert(par, edge(i));
    }
    let mut rng = Rng(seed | 1);
    let mut rounds: Vec<UpdateRound> = Vec::new();
    let mut expected: Vec<Vec<(Pred, Vec<Tuple>)>> = Vec::new();
    let mut mirror = db0.clone();
    let mut closure_active = true;
    // The rule drop and its re-add land at two fixed rounds mid-stream.
    let drop_at = ROUNDS / 3;
    let readd_at = 2 * ROUNDS / 3;
    expected.push(expected_state(&p, &mirror)); // epoch 0
    for r in 0..ROUNDS {
        let mut round = UpdateRound::new();
        if r == drop_at {
            round = round.drop_rule(RuleId(1));
            closure_active = false;
        } else if r == readd_at {
            round = round.add_rule(p.rules[1].clone());
            closure_active = true;
        }
        // Fact churn rides along in the same round.
        match rng.below(3) {
            0 => {
                // Grow the chain by 1–4 edges.
                for _ in 0..=rng.below(4) {
                    round = round.insert(par, edge(len));
                    mirror.insert(par, edge(len));
                    len += 1;
                }
            }
            1 if len > 4 => {
                // Cut 1–2 edges off the tail.
                for _ in 0..=rng.below(2).min(len - 4) {
                    len -= 1;
                    round = round.retract(par, edge(len));
                    assert!(mirror.remove(par, &edge(len)));
                }
            }
            _ => {
                // Mixed: cut the tail edge and grow two — one DRed +
                // one resume pass for the whole batch.
                len -= 1;
                round = round.retract(par, edge(len));
                assert!(mirror.remove(par, &edge(len)));
                for _ in 0..2 {
                    round = round.insert(par, edge(len));
                    mirror.insert(par, edge(len));
                    len += 1;
                }
            }
        }
        rounds.push(round);
        let variant = if closure_active { &p } else { &p_minus };
        expected.push(expected_state(variant, &mirror));
    }
    let expected = Arc::new(expected);

    let server = Server::from_database(&p, &db0, strategy);
    if let Some(pol) = policy {
        server.set_compaction_policy(Some(pol));
    }
    let writer_done = Arc::new(AtomicBool::new(false));
    let concurrent_reads = Arc::new(AtomicUsize::new(0));

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let server = server.clone();
            let expected = Arc::clone(&expected);
            let writer_done = Arc::clone(&writer_done);
            let concurrent_reads = Arc::clone(&concurrent_reads);
            thread::spawn(move || {
                let mut last_epoch = 0u64;
                let mut reads = 0usize;
                loop {
                    let was_concurrent = !writer_done.load(Ordering::Acquire);
                    let snap = server.snapshot();
                    let e = snap.epoch() as usize;
                    assert!(e < expected.len(), "epoch beyond the stream");
                    assert!(
                        snap.epoch() >= last_epoch,
                        "per-reader epochs must be monotone ({last_epoch} -> {e})"
                    );
                    last_epoch = snap.epoch();
                    // The read IS a from-scratch-checked prefix: full
                    // database equality against the precomputed
                    // reference model of applied-round prefix `e`.
                    assert_eq!(
                        canon(&snap.database()),
                        expected[e],
                        "read at epoch {e} must equal the reference model of that prefix"
                    );
                    reads += 1;
                    if was_concurrent {
                        concurrent_reads.fetch_add(1, Ordering::Relaxed);
                    }
                    if reads >= MIN_READS_PER_READER && writer_done.load(Ordering::Acquire) {
                        return reads;
                    }
                }
            })
        })
        .collect();

    // The writer: apply the stream, holding one snapshot pinned across
    // the whole second half (including the rule re-add) to prove
    // reclamation never disturbs a pinned view.
    let mut held: Option<selprop_datalog::Snapshot> = None;
    for (i, round) in rounds.iter().enumerate() {
        server.apply(round);
        if i == ROUNDS / 2 {
            held = Some(server.snapshot());
        }
    }
    let held = held.expect("pinned mid-stream");
    assert_eq!(
        canon(&held.database()),
        expected[held.epoch() as usize],
        "a snapshot held across churn still serves its pinned prefix"
    );
    writer_done.store(true, Ordering::Release);

    let total: usize = readers
        .into_iter()
        .map(|r| r.join().expect("reader thread panicked"))
        .sum();
    // The pinned snapshot survives every later round, reclamation, and
    // however many compactions were queued and drained around it.
    assert_eq!(canon(&held.database()), expected[held.epoch() as usize]);
    assert_eq!(server.current_epoch() as usize, ROUNDS);
    drop(held);
    if policy.is_some() {
        // The last unpin drained over the idle store: whatever
        // compaction the churn queued has run, and memory is bounded by
        // the live rows again.
        let ms = server.mem_stats();
        assert_eq!(ms.live_rows, ms.total_rows, "final drain left tombstones behind");
        assert!(
            server.compactions() >= 1,
            "churn under an aggressive policy must have compacted"
        );
    }
    assert_eq!(
        canon(&server.snapshot().database()),
        expected[ROUNDS],
        "final state = the full-stream reference model"
    );
    println!(
        "{strategy:?}: {total} reads ({} while the writer was live), all prefix-consistent",
        concurrent_reads.load(Ordering::Relaxed)
    );
    total
}

#[test]
fn concurrent_reads_are_prefix_consistent_across_strategies() {
    let mut total = 0usize;
    for (strategy, seed) in [
        (Strategy::SemiNaive, 0xA5A5_0001u64),
        (Strategy::SemiNaiveParallel { threads: 2 }, 0xA5A5_0002),
        (Strategy::SemiNaiveParallel { threads: 4 }, 0xA5A5_0003),
    ] {
        total += stress_one_strategy(strategy, seed, None);
    }
    assert!(
        total >= 1000,
        "acceptance bar: ≥1000 randomized reads under churn (got {total})"
    );
    println!("total consistent reads across strategies: {total}");
}

#[test]
fn compaction_under_pinned_readers_stays_prefix_consistent() {
    // Same harness, but an aggressive policy keeps tripping the
    // compaction bounds on every retracting round: compactions queue
    // while readers hold pins, run whenever a drain finds the table
    // unpinned, and must never disturb a pinned view or a concurrent
    // read. Every read is still checked against the from-scratch
    // reference model of its exact epoch prefix.
    let aggressive = CompactionPolicy {
        min_dead_rows: 1,
        dead_percent: 1,
    };
    let mut total = 0usize;
    for (strategy, seed) in [
        (Strategy::SemiNaive, 0xC0DE_0001u64),
        (Strategy::SemiNaiveParallel { threads: 2 }, 0xC0DE_0002),
        (Strategy::SemiNaiveParallel { threads: 4 }, 0xC0DE_0003),
    ] {
        total += stress_one_strategy(strategy, seed, Some(aggressive));
    }
    assert!(
        total >= 1000,
        "acceptance bar: ≥1000 randomized reads under compacting churn (got {total})"
    );
    println!("total consistent reads across compacting strategies: {total}");
}

/// A churn stream for the view cache and what every goal answers after
/// each of its rounds.
struct ViewChurn {
    program: Program,
    /// `anc(c, Y)` and `anc(X, c)` for each of the ten nodes: two
    /// binding patterns, one template each.
    goals: Vec<Atom>,
    rounds: Vec<UpdateRound>,
    /// `expected[e][g]`: the batch magic evaluation of goal `g` over the
    /// rules and facts of the first `e` rounds.
    expected: Vec<Vec<Vec<Tuple>>>,
}

/// `stream` random rounds over a ten-node graph: one to four edge
/// inserts and retracts each (growth first, churn later), the recursive
/// rule dropped a third of the way in and re-added at two thirds.
fn view_churn(seed: u64, stream: usize) -> ViewChurn {
    const NODES: usize = 10;
    let mut p = parse_program(
        "?- anc(c0, Y).\n\
         anc(X, Y) :- par(X, Y).\n\
         anc(X, Y) :- anc(X, Z), par(Z, Y).",
    )
    .expect("valid program");
    let par = p.symbols.get_predicate("par").unwrap();
    let anc = p.symbols.get_predicate("anc").unwrap();
    let node: Vec<_> = (0..NODES).map(|i| p.symbols.constant(&format!("c{i}"))).collect();
    let (qx, qy) = (p.symbols.variable("QX"), p.symbols.variable("QY"));
    let mut p_minus = p.clone();
    p_minus.rules.truncate(1);
    let goals: Vec<Atom> = node
        .iter()
        .flat_map(|&c| {
            [
                Atom::new(anc, vec![Term::Const(c), Term::Var(qy)]),
                Atom::new(anc, vec![Term::Var(qx), Term::Const(c)]),
            ]
        })
        .collect();
    let oracle = |program: &Program, edb: &Database| -> Vec<Vec<Tuple>> {
        goals
            .iter()
            .map(|g| {
                let mut pg = program.clone();
                pg.goal = g.clone();
                let magic = magic_transform(&pg).expect("bound goal");
                answer(&magic.program, edb, Strategy::SemiNaive).0.sorted()
            })
            .collect()
    };

    let mut rng = Rng(seed);
    let mut present = [false; NODES * NODES];
    let mut mirror = Database::new();
    let mut closure_active = true;
    let mut rounds = Vec::new();
    let mut expected = vec![oracle(&p, &mirror)];
    for r in 0..stream {
        let mut round = UpdateRound::new();
        if r == stream / 3 {
            round = round.drop_rule(RuleId(1));
            closure_active = false;
        } else if r == 2 * stream / 3 {
            round = round.add_rule(p.rules[1].clone());
            closure_active = true;
        }
        let mut touched = Vec::new();
        for _ in 0..1 + rng.below(4) {
            let (a, b) = (rng.below(NODES), rng.below(NODES));
            // Once per round: a tuple both retracted and inserted in one
            // round ends up present, whatever order they were drawn in.
            if touched.contains(&(a, b)) {
                continue;
            }
            touched.push((a, b));
            let edge: Tuple = vec![node[a], node[b]];
            // Grow early, churn later.
            if present[a * NODES + b] && (r > 8 || rng.below(2) == 0) {
                present[a * NODES + b] = false;
                mirror.remove(par, &edge);
                round = round.retract(par, edge);
            } else if !present[a * NODES + b] {
                present[a * NODES + b] = true;
                mirror.insert(par, edge.clone());
                round = round.insert(par, edge);
            }
        }
        rounds.push(round);
        expected.push(oracle(if closure_active { &p } else { &p_minus }, &mirror));
    }
    ViewChurn { program: p, goals, rounds, expected }
}

/// Bound queries under churn, on two kinds of thread. The writer applies
/// a random stream of rounds over a ten-node graph (edge inserts and
/// retracts, the recursive rule dropped a third of the way in and
/// re-added at two thirds), asks cached bound queries between rounds —
/// building, evicting and rebuilding views as it cycles the view budget
/// through 64, 2, 1 and 0 views and a 40-row cap — and so keeps tripping
/// base compactions (aggressive policy) and template-store compactions
/// (dropped views' rows), both of which wait for the readers' pins.
/// Readers pin a snapshot, keep it while later rounds land, and query
/// it: from the pinned view while that survives, off the pinned base
/// rows once it was evicted or rebuilt. Every answer — `Server::query`
/// at the writer's known epoch, `Snapshot::query` at the pinned one —
/// must equal the batch magic evaluation of that epoch's rules over that
/// epoch's facts.
#[test]
fn cached_and_pinned_queries_match_the_oracle_under_churn() {
    const STREAM: usize = 96;
    let ViewChurn { program: p, goals, rounds, expected } = view_churn(0x7A66_ED01, STREAM);
    let expected = Arc::new(expected);
    let goals = Arc::new(goals);

    let server = Server::new(&p, Strategy::SemiNaive);
    server.set_compaction_policy(Some(CompactionPolicy { min_dead_rows: 4, dead_percent: 10 }));
    let writer_done = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..2u64)
        .map(|t| {
            let server = server.clone();
            let (expected, goals) = (Arc::clone(&expected), Arc::clone(&goals));
            let writer_done = Arc::clone(&writer_done);
            thread::spawn(move || {
                let mut rng = Rng(0xBEEF_0001 + t);
                // Up to three snapshots pinned at once; the oldest is
                // queried after the rounds that landed meanwhile.
                let mut held: std::collections::VecDeque<Snapshot> = Default::default();
                let (mut reads, mut stale) = (0usize, 0usize);
                while !writer_done.load(Ordering::Acquire) || reads < 200 {
                    held.push_back(server.snapshot());
                    if held.len() < 3 {
                        continue;
                    }
                    let snap = held.pop_front().expect("three held");
                    let e = snap.epoch() as usize;
                    stale += usize::from(server.current_epoch() as usize > e);
                    for _ in 0..4 {
                        let g = rng.below(goals.len());
                        assert_eq!(
                            snap.query(&goals[g]).sorted(),
                            expected[e][g],
                            "pinned answer of goal {g} at epoch {e}"
                        );
                        reads += 1;
                    }
                    // Now and then let go of everything, so that the
                    // deferred compactions find a moment without pins.
                    if reads % 64 == 0 {
                        held.clear();
                    }
                }
                (reads, stale)
            })
        })
        .collect();

    let budgets = [
        CacheConfig { max_views: 64, max_rows: 1 << 22 },
        CacheConfig { max_views: 2, max_rows: 1 << 22 },
        CacheConfig { max_views: 1, max_rows: 1 << 22 },
        CacheConfig { max_views: 64, max_rows: 40 },
        CacheConfig { max_views: 0, max_rows: 1 << 22 },
    ];
    let mut wrng = Rng(0x57A7_E001);
    for (i, round) in rounds.iter().enumerate() {
        server.apply(round);
        if i % 5 == 0 {
            server.set_cache_config(budgets[(i / 5) % budgets.len()]);
        }
        for _ in 0..12 {
            let g = wrng.below(goals.len());
            assert_eq!(
                server.query(&goals[g]).sorted(),
                expected[i + 1][g],
                "cached answer of goal {g} after round {i}"
            );
        }
    }
    writer_done.store(true, Ordering::Release);
    let (reads, stale) = readers
        .into_iter()
        .map(|r| r.join().expect("reader thread panicked"))
        .fold((0, 0), |(a, b), (c, d)| (a + c, b + d));
    assert!(reads >= 400, "{reads} pinned reads");

    // Idle, unpinned: the drains have run every queued compaction, and
    // the cache did what its counters say.
    let s = server.cache_stats();
    assert!(server.compactions() >= 1);
    assert!(s.misses > s.views as u64 && s.evictions > 0, "{s:?}");
    // The rule drop, the re-add, and any base compaction that found a
    // moment without pins while views were live; two patterns per era.
    assert!(s.invalidations >= 2, "{s:?}");
    assert!(s.template_compiles >= 6 && s.template_compiles <= 2 * (s.invalidations + 1), "{s:?}");
    server.set_cache_config(budgets[0]);
    for round in 0..2 {
        for (g, goal) in goals.iter().enumerate() {
            assert_eq!(server.query(goal).sorted(), expected[STREAM][g]);
        }
        // The last unpin drains over the idle store; the second sweep
        // reads whatever that compacted.
        drop(server.snapshot());
        assert_eq!(server.cache_stats().views, goals.len(), "sweep {round}");
    }
    println!("{reads} pinned reads ({stale} of snapshots behind the writer), {s:?}");
}

/// Readers fill memos under the read lock while the writer stamps views
/// under the write lock, and an answer belongs to whoever holds it. Two
/// readers ask `Server::query` between and during the writer's rounds —
/// no budget pressure: views live on, so most answers are a memo's
/// reference count, and every round makes the next reader of a changed
/// view replace one — and keep up to eight answers each while the rounds
/// go on. Every answer is one of the epochs' it was asked between; kept
/// across rounds that changed, rebuilt or dropped its view it still
/// equals what it was; written to, it changes for its holder alone. A
/// pinned read right after its pin (the memo, unless a round slipped in
/// between) answers its epoch.
#[test]
fn an_answer_a_client_keeps_outlives_the_rounds_that_replace_it() {
    const STREAM: usize = 72;
    let ViewChurn { program: mut p, goals, rounds, expected } = view_churn(0xC0FF_EE01, STREAM);
    let (expected, goals) = (Arc::new(expected), Arc::new(goals));
    let nobody: Tuple = vec![p.symbols.constant("nobody")];
    let server = Server::new(&p, Strategy::SemiNaive);
    let writer_done = Arc::new(AtomicBool::new(false));
    // Answers given so far: the writer waits for six more before each
    // round, so that every round finds memos to make stale and answers
    // in the readers' hands.
    let answered = Arc::new(AtomicUsize::new(0));
    let readers: Vec<_> = (0..2u64)
        .map(|t| {
            let server = server.clone();
            let (expected, goals) = (Arc::clone(&expected), Arc::clone(&goals));
            let (writer_done, nobody) = (Arc::clone(&writer_done), nobody.clone());
            let answered = Arc::clone(&answered);
            thread::spawn(move || {
                let mut rng = Rng(0xFEED_0001 + t);
                let mut kept: std::collections::VecDeque<(usize, selprop_datalog::Relation, Vec<Tuple>)> =
                    Default::default();
                let (mut reads, mut outlived) = (0usize, 0usize);
                while !writer_done.load(Ordering::Acquire) || reads < 300 {
                    let g = rng.below(goals.len());
                    let lo = server.current_epoch() as usize;
                    let answer = server.query(&goals[g]);
                    let hi = server.current_epoch() as usize;
                    let rows = answer.sorted();
                    assert!(
                        (lo..=hi).any(|e| expected[e][g] == rows),
                        "answer of goal {g} asked between epochs {lo} and {hi}"
                    );
                    kept.push_back((hi, answer, rows));
                    reads += 1;
                    answered.fetch_add(1, Ordering::Release);

                    let snap = server.snapshot();
                    let e = snap.epoch() as usize;
                    assert_eq!(snap.query(&goals[g]).sorted(), expected[e][g], "pinned at {e}");
                    drop(snap);

                    if kept.len() < 8 {
                        continue;
                    }
                    let (asked_at, answer, rows) = kept.pop_front().expect("eight kept");
                    outlived += usize::from(server.current_epoch() as usize > asked_at);
                    assert_eq!(answer.sorted(), rows, "a kept answer is what it was");
                    // The holder's own writes copy; the cache's memo and
                    // every other holder keep the original.
                    let mut mine = answer.clone();
                    assert!(mine.insert(nobody.clone()));
                    if let Some(first) = rows.first() {
                        assert!(mine.remove(first));
                    }
                    assert_eq!(answer.sorted(), rows, "a write to a clone stays in the clone");
                }
                (reads, outlived)
            })
        })
        .collect();
    let (start, mut applied) = (Instant::now(), 0);
    'rounds: for round in &rounds {
        let so_far = answered.load(Ordering::Acquire);
        while answered.load(Ordering::Acquire) < so_far + 6 {
            // Readers run until the writer is done: one that finished
            // has panicked.
            if start.elapsed() > WAIT || readers.iter().any(|r| r.is_finished()) {
                break 'rounds;
            }
            thread::yield_now();
        }
        server.apply(round);
        applied += 1;
    }
    writer_done.store(true, Ordering::Release);
    // A reader's panic is the test's failure.
    let (reads, outlived) = readers
        .into_iter()
        .map(|r| r.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
        .fold((0, 0), |(a, b), (c, d)| (a + c, b + d));
    let waited = start.elapsed();
    assert_eq!(applied, rounds.len(), "waited {waited:?} for six more answers before a round");

    // Idle: every goal's view is live, nothing a reader wrote got back
    // into the cache, and the memos did most of the answering.
    for (g, goal) in goals.iter().enumerate() {
        assert_eq!(server.query(goal).sorted(), expected[STREAM][g]);
    }
    let (s, builds) = (server.cache_stats(), server.cache_answer_builds());
    assert!(builds >= goals.len() as u64 && builds < s.hits + s.misses, "{builds} builds, {s:?}");
    println!("{reads} answers ({outlived} kept past a round), {builds} built, {s:?}");
}

/// A pinned read answers from whichever memo covers its epoch. While no
/// round has changed its view since the pin that is the live memo. After
/// one has, it is the memo the round displaced, which answers up to the
/// round's epoch and is retained while the pin lives. Only a pin taken
/// while its view's memo was already stale finds no memo. It reads the
/// rows below its frontier once, and that answer is retained for its
/// epoch. The writer builds nothing: the views a round changes are stale
/// until somebody asks.
#[test]
fn a_pinned_read_takes_the_memo_that_covers_its_epoch() {
    let mut p = parse_program(
        "?- anc(c0, Y).\n\
         anc(X, Y) :- par(X, Y).\n\
         anc(X, Y) :- anc(X, Z), par(Z, Y).",
    )
    .expect("valid program");
    let par = p.symbols.get_predicate("par").unwrap();
    let node: Vec<_> = (0..=8).map(|i| p.symbols.constant(&format!("c{i}"))).collect();
    let edges: Vec<Tuple> = node.windows(2).map(<[_]>::to_vec).collect();
    let y = p.symbols.variable("Y");
    let goal = |i: usize| Atom::new(p.goal.pred, vec![Term::Const(node[i]), Term::Var(y)]);
    let (up, down) = (goal(0), goal(5));
    let server = Server::new(&p, Strategy::SemiNaive);
    server.apply(&UpdateRound::new().insert_all(par, &edges));
    let built = |since: u64| server.cache_answer_builds() - since;

    assert_eq!((server.query(&up).len(), server.query(&down).len()), (8, 3));
    let pin = server.snapshot();
    let at_pin = (server.query(&up), server.query(&down));
    assert_eq!(server.cache_answer_builds(), 2, "two views, two answers, two hits");

    // Cut c2 → c3: upstream of c0's view, not of c5's.
    let mark = server.cache_answer_builds();
    server.apply(&UpdateRound::new().retract_all(par, &edges[2..3]));
    assert_eq!(built(mark), 0, "the round stamped a view and built nothing");
    assert_eq!(pin.query(&down), at_pin.1);
    assert_eq!(built(mark), 0, "unchanged since the pin: the live memo");
    assert_eq!(pin.query(&up), at_pin.0);
    assert_eq!(pin.query(&up), at_pin.0);
    assert_eq!(built(mark), 0, "changed since: the memo read at the pin answers up to the cut");
    assert_eq!((at_pin.0.len(), at_pin.1.len()), (8, 3), "what the clients hold has not moved");

    assert_eq!((server.query(&up).len(), server.query(&down).len()), (2, 3));
    assert_eq!(built(mark), 1, "the live reader replaced the stale memo");
    let later = server.snapshot();
    assert_eq!(later.query(&up).len(), 2);
    assert_eq!(pin.query(&up), at_pin.0);
    assert_eq!(built(mark), 1, "the later pin took the live memo, the earlier the retained one");

    // Mend the cut and pin before anyone reads `up` again: its memo is
    // stale at the pin, covering the epochs before the mend only. Then
    // cut c6 → c7, below both views; `down`'s memo, current at the pin,
    // covers the epochs up to this cut.
    server.apply(&UpdateRound::new().insert_all(par, &edges[2..3]));
    let blind = server.snapshot();
    server.apply(&UpdateRound::new().retract_all(par, &edges[6..7]));
    let mark = server.cache_answer_builds();
    assert_eq!(blind.query(&down).len(), 3);
    assert_eq!(built(mark), 0, "`down`'s memo, stale now, covers the pin");
    assert_eq!(blind.query(&up).len(), 8);
    assert_eq!(built(mark), 1, "no memo covers the pin: read at the frontier, once");
    assert_eq!(blind.query(&up).len(), 8);
    assert_eq!(pin.query(&up), at_pin.0);
    assert_eq!(later.query(&up).len(), 2);
    assert_eq!(built(mark), 1, "three pins of `up`, three memos, none built again");
    assert_eq!((server.query(&up).len(), server.query(&down).len()), (6, 1));
    assert_eq!(built(mark), 3, "the live readers replaced both stale memos");
}

/// A round with V stale memos outstanding builds, patches and frees none
/// of them: the answers are rebuilt one by one as they are asked for, and
/// until then still count as the cache's words. The same holds with a
/// pin live and the memos it can ask for retained next to the current
/// ones.
#[test]
fn the_writer_builds_and_frees_no_answer() {
    const VIEWS: usize = 6;
    let mut p = parse_program(
        "?- anc(c0, Y).\n\
         anc(X, Y) :- par(X, Y).\n\
         anc(X, Y) :- anc(X, Z), par(Z, Y).",
    )
    .expect("valid program");
    let par = p.symbols.get_predicate("par").unwrap();
    let node: Vec<_> = (0..=15).map(|i| p.symbols.constant(&format!("c{i}"))).collect();
    let edges: Vec<Tuple> = node.windows(2).map(<[_]>::to_vec).collect();
    let y = p.symbols.variable("Y");
    let goals: Vec<Atom> = (0..VIEWS)
        .map(|i| Atom::new(p.goal.pred, vec![Term::Const(node[i]), Term::Var(y)]))
        .collect();
    let server = Server::new(&p, Strategy::SemiNaive);
    server.apply(&UpdateRound::new().insert_all(par, &edges[..12]));
    let held: Vec<_> = goals.iter().map(|g| server.query(g)).collect();
    assert_eq!(server.cache_answer_builds(), VIEWS as u64);
    let words = server.cache_view_words();

    // One more edge at the tail: every view's closure grows by a tuple.
    server.apply(&UpdateRound::new().insert_all(par, &edges[12..13]));
    assert_eq!(server.cache_answer_builds(), VIEWS as u64, "six stale memos, none rebuilt");
    assert!(server.cache_view_words() > words, "the stale answers still count, next to the new rows");
    for (i, g) in goals.iter().enumerate() {
        assert_eq!(held[i].len(), 12 - i, "what a client holds is what it was given");
        assert_eq!(server.query(g).len(), 13 - i);
        assert_eq!(server.cache_answer_builds(), (VIEWS + i + 1) as u64, "built when asked for");
    }

    // Pinned now, the memos just read answer the pin. The next round
    // makes them stale and the readers after it displace them: retained
    // for the pin, next to the new ones. The round after that stamps the
    // new ones and leaves every memo where it is.
    let pin = server.snapshot();
    server.apply(&UpdateRound::new().insert_all(par, &edges[13..14]));
    for (i, g) in goals.iter().enumerate() {
        assert_eq!(server.query(g).len(), 14 - i);
    }
    let (builds, words) = (server.cache_answer_builds(), server.cache_view_words());
    assert_eq!(builds, 3 * VIEWS as u64);
    server.apply(&UpdateRound::new().insert_all(par, &edges[14..]));
    assert_eq!(server.cache_answer_builds(), builds, "twelve memos outstanding, none rebuilt");
    assert!(server.cache_view_words() > words, "none freed, next to the new rows");
    for (i, g) in goals.iter().enumerate() {
        assert_eq!(pin.query(g).len(), 13 - i);
    }
    assert_eq!(server.cache_answer_builds(), builds, "the pin took the retained memos");
}

/// Retention is bounded by the pins and ends with them. Two servers take
/// the same rounds, each an edge appended to a chain that grows the
/// answers of two views by a tuple, and a live reader reads both views
/// after every round. One of the servers also takes a pin before every
/// other round and keeps the last `K`. It holds exactly one memo more per
/// view and live pin than the other: the answer at the pin, which its
/// pinned reads take without building anything. The answers of the
/// epochs between the pins, which no pin can ask for, are not kept.
/// After the last unpin and one live read per view the two hold the same
/// words.
#[test]
fn a_view_retains_one_memo_per_live_pin_and_none_after_the_last_unpin() {
    const K: usize = 3;
    const ROUNDS: usize = 12;
    let mut p = parse_program(
        "?- anc(c0, Y).\n\
         anc(X, Y) :- par(X, Y).\n\
         anc(X, Y) :- anc(X, Z), par(Z, Y).",
    )
    .expect("valid program");
    let par = p.symbols.get_predicate("par").unwrap();
    let node: Vec<_> = (0..=ROUNDS + 8).map(|i| p.symbols.constant(&format!("c{i}"))).collect();
    let edges: Vec<Tuple> = node.windows(2).map(<[_]>::to_vec).collect();
    let y = p.symbols.variable("Y");
    let goals = [0, 2].map(|i| Atom::new(p.goal.pred, vec![Term::Const(node[i]), Term::Var(y)]));
    // At epoch `e` the chain has `7 + e` edges; the view of `c{2i}` answers
    // `7 + e - 2i` tuples, a constant, a `Vec` header and a set slot each.
    let len = |i: usize, e: u64| 7 + e as usize - 2 * i;
    let memo_words = |e: u64| (0..goals.len()).map(|i| len(i, e) * 5).sum::<usize>();
    let [plain, pinned] = [(); 2].map(|()| {
        let s = Server::new(&p, Strategy::SemiNaive);
        s.apply(&UpdateRound::new().insert_all(par, &edges[..8]));
        goals.iter().for_each(|g| drop(s.query(g)));
        s
    });
    let mut pins = std::collections::VecDeque::new();
    for r in 0..ROUNDS {
        if r % 2 == 0 {
            if pins.len() == K {
                pins.pop_front();
            }
            pins.push_back(pinned.snapshot());
        }
        for s in [&plain, &pinned] {
            s.apply(&UpdateRound::new().insert_all(par, &edges[8 + r..9 + r]));
            for (i, g) in goals.iter().enumerate() {
                assert_eq!(s.query(g).len(), len(i, s.current_epoch()));
            }
        }
        let builds = pinned.cache_answer_builds();
        for pin in &pins {
            for (i, g) in goals.iter().enumerate() {
                assert_eq!(pin.query(g).len(), len(i, pin.epoch()));
            }
        }
        assert_eq!(pinned.cache_answer_builds(), builds, "round {r}: the pins took their memos");
        let retained: usize = pins.iter().map(|pin| memo_words(pin.epoch())).sum();
        assert_eq!(
            pinned.cache_view_words(),
            plain.cache_view_words() + retained,
            "round {r}: one memo per view and live pin, no more"
        );
    }
    drop(pins);
    for g in &goals {
        pinned.query(g);
    }
    assert_eq!(pinned.cache_view_words(), plain.cache_view_words(), "nothing retained");
}
