//! The live materialization server: N reader threads pin epoch
//! snapshots and query while a writer thread applies a churn stream of
//! batched update rounds — fact inserts, retractions, and a rule
//! hot-swap — to the shared fixpoint.
//!
//! ```bash
//! cargo run --example server
//! ```
//!
//! Every reader asserts two things on every read, so this walkthrough
//! doubles as a smoke test of the server's consistency contract:
//!
//! - **round atomicity** — the observed answer is exactly the answer of
//!   a whole applied-round prefix, precomputed up front by replaying
//!   the same stream single-threadedly (never a mid-round state);
//! - **snapshot pinning** — re-reading a held snapshot returns the same
//!   answer even though the writer has moved on.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use selprop_datalog::db::Tuple;
use selprop_datalog::eval::Strategy;
use selprop_datalog::{parse_program, Database, RuleId, Server, UpdateRound};

/// Rounds in the churn stream (plus the rule drop/re-add rounds).
const ROUNDS: usize = 24;
/// Reader threads racing the writer.
const READERS: usize = 4;

fn main() {
    let mut p = parse_program(
        "?- anc(john, Y).\n\
         anc(X, Y) :- par(X, Y).\n\
         anc(X, Y) :- anc(X, Z), par(Z, Y).",
    )
    .expect("valid program");
    let par = p.symbols.get_predicate("par").unwrap();

    // A parent chain rooted at john; the churn stream grows it in
    // batches and occasionally cuts a suffix back off.
    let names: Vec<_> = (0..=4 * ROUNDS)
        .map(|i| {
            if i == 0 {
                p.symbols.constant("john")
            } else {
                p.symbols.constant(&format!("c{i}"))
            }
        })
        .collect();
    let edge = |i: usize| -> Tuple { vec![names[i], names[i + 1]] };

    // Build the churn stream: alternating grow-by-4 / cut-back-2 rounds.
    // Mixed rounds exercise batched retract+insert in one apply.
    let mut rounds: Vec<UpdateRound> = Vec::new();
    let mut len = 0usize; // edges currently in the chain
    for r in 0..ROUNDS {
        let mut round = UpdateRound::new();
        if r % 3 == 2 {
            // Cut two edges off the tail, then regrow one: one mixed
            // DRed + resume round.
            round = round
                .retract(par, edge(len - 1))
                .retract(par, edge(len - 2))
                .insert(par, edge(len - 2));
            len -= 1;
        } else {
            for _ in 0..4 {
                round = round.insert(par, edge(len));
                len += 1;
            }
        }
        rounds.push(round);
    }

    // The reference answers: answer length after each applied prefix.
    // Epoch e = "the first e rounds applied", so expected[e] is the
    // oracle every concurrent read is checked against.
    let mut expected = vec![0usize];
    let replay = Server::new(&p, Strategy::SemiNaive);
    for round in &rounds {
        replay.apply(round);
        expected.push(replay.answer().len());
    }
    let expected = Arc::new(expected);

    let server = Server::from_database(&p, &Database::new(), Strategy::SemiNaive);
    let done = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let server = server.clone();
            let expected = Arc::clone(&expected);
            let done = Arc::clone(&done);
            thread::spawn(move || {
                let mut reads = 0usize;
                let mut last_epoch = 0u64;
                while !done.load(Ordering::Acquire) {
                    let snap = server.snapshot();
                    let e = snap.epoch() as usize;
                    let first = snap.answer().len();
                    assert!(
                        e < expected.len() && first == expected[e],
                        "read at epoch {e} saw {first} answers, reference says {}",
                        expected[e.min(expected.len() - 1)]
                    );
                    // The pinned snapshot must not move even if the
                    // writer publishes more rounds in between.
                    assert_eq!(snap.answer().len(), first, "pinned read moved");
                    assert!(snap.epoch() >= last_epoch, "epochs went backwards");
                    last_epoch = snap.epoch();
                    reads += 1;
                }
                reads
            })
        })
        .collect();

    // The writer: apply the stream, pinning one long-lived snapshot
    // mid-stream to prove reclamation never steals a pinned view.
    let mut held = None;
    for (i, round) in rounds.iter().enumerate() {
        server.apply(round);
        if i == ROUNDS / 2 {
            held = Some((server.snapshot(), server.current_epoch()));
        }
    }
    let (held_snap, held_epoch) = held.expect("snapshot pinned mid-stream");
    assert_eq!(held_snap.epoch(), held_epoch);
    assert_eq!(
        held_snap.answer().len(),
        expected[held_epoch as usize],
        "long-lived pinned snapshot must still serve its epoch"
    );

    done.store(true, Ordering::Release);
    let total_reads: usize = readers
        .into_iter()
        .map(|r| r.join().expect("reader thread panicked"))
        .sum();
    println!(
        "{READERS} readers made {total_reads} consistent reads while the writer \
         applied {ROUNDS} rounds (final epoch {})",
        server.current_epoch()
    );

    // Rule hot-swap on the live server: drop the transitive rule, the
    // answer collapses to direct children; re-add it, the full model is
    // restored — the pinned snapshot never moves.
    let full = server.answer().len();
    assert_eq!(
        server.apply(&UpdateRound::new().drop_rule(RuleId(1))).rules_dropped,
        1,
        "transitive rule was active"
    );
    let direct = server.answer().len();
    assert!(direct < full, "dropping the closure rule shrinks the answer");
    assert_eq!(held_snap.answer().len(), expected[held_epoch as usize]);
    let readded = server.apply(&UpdateRound::new().add_rule(p.rules[1].clone())).first_rule;
    assert_eq!(server.answer().len(), full, "re-added rule restores the model");
    println!(
        "rule hot-swap: {full} answers -> drop closure rule -> {direct} -> re-add \
         (slot {:?}) -> {full}; pinned snapshot at epoch {held_epoch} unmoved",
        readded
    );
}
