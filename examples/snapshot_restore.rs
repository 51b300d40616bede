//! Durable, bounded-memory materializations: churn a live fixpoint,
//! watch compaction reclaim the tombstones, save a checksummed snapshot
//! atomically, simulate a crash mid-save, and restart the server from
//! the last intact snapshot at the persisted epoch — no re-evaluation.
//!
//! ```bash
//! cargo run --example snapshot_restore
//! ```
//!
//! The walkthrough doubles as a smoke test of the durability contract:
//!
//! - **bounded memory** — after heavy insert/retract churn with a
//!   compaction policy set, the store holds live rows only;
//! - **crash safety** — a torn temp file from an interrupted save is
//!   rejected cleanly, while the previously completed snapshot restores
//!   bit-for-bit;
//! - **restart at fixpoint** — the restored server answers identically,
//!   resumes rounds at the persisted epoch, and keeps accepting updates.

use selprop_datalog::db::Tuple;
use selprop_datalog::eval::Strategy;
use selprop_datalog::{
    parse_program, CompactionPolicy, Materialization, Server, UpdateRound,
};

fn main() {
    let mut p = parse_program(
        "?- anc(john, Y).\n\
         anc(X, Y) :- par(X, Y).\n\
         anc(X, Y) :- anc(X, Z), par(Z, Y).",
    )
    .expect("valid program");
    let par = p.symbols.get_predicate("par").unwrap();

    // A 32-edge parent chain rooted at john.
    let mut prev = p.symbols.constant("john");
    let edges: Vec<Tuple> = (1..=32)
        .map(|i| {
            let c = p.symbols.constant(&format!("c{i}"));
            let t = vec![prev, c];
            prev = c;
            t
        })
        .collect();

    let server = Server::new(&p, Strategy::SemiNaive);
    server.insert_facts(par, &edges);
    server.set_compaction_policy(Some(CompactionPolicy {
        min_dead_rows: 16,
        dead_percent: 20,
    }));

    // Churn: every round retracts one edge and restores it. Each
    // retract kills the closure span above the edge; without compaction
    // the tombstoned rows would accumulate forever.
    for i in 0..200 {
        let victim = 31 - (i % 4);
        server.apply(
            &UpdateRound::new()
                .retract(par, edges[victim].clone())
                .insert(par, edges[victim].clone()),
        );
    }
    let ms = server.mem_stats();
    println!(
        "after 200 churn rounds: {} live rows / {} stored rows, {} compactions",
        ms.live_rows,
        ms.total_rows,
        server.compactions()
    );
    assert!(
        server.compactions() > 0,
        "the policy should have compacted under this churn"
    );
    assert!(
        ms.total_rows < 2 * ms.live_rows,
        "compaction should keep dead rows bounded ({} of {})",
        ms.total_rows - ms.live_rows,
        ms.total_rows
    );
    let answer_before = server.snapshot().answer().sorted();

    // Save: versioned, length-prefixed, checksummed, written atomically
    // (temp file + rename) so a crash never tears the snapshot.
    let dir = std::env::temp_dir().join(format!("selprop-example-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("store.snap");
    server.save(&path).expect("snapshot save");
    let epoch_saved = server.current_epoch();
    println!(
        "saved {} bytes at epoch {epoch_saved}",
        std::fs::metadata(&path).expect("snapshot written").len()
    );

    // Simulate a crash during a *later* save: the temp file holds a
    // torn prefix and the rename never happened.
    server.apply(&UpdateRound::new().retract(par, edges[31].clone()));
    let torn = std::fs::read(&path).expect("read snapshot");
    std::fs::write(dir.join("store.snap.tmp"), &torn[..torn.len() / 2]).expect("torn tmp");

    // The torn temp file never restores silently...
    let err = Materialization::restore(dir.join("store.snap.tmp"))
        .expect_err("a torn snapshot must be rejected");
    println!("torn temp file rejected: {err}");

    // ...while the completed snapshot restores the server at its
    // persisted epoch and fixpoint — no re-evaluation.
    let restored = Server::restore(&path).expect("restore from the intact snapshot");
    assert_eq!(restored.current_epoch(), epoch_saved, "rounds resume at the persisted epoch");
    assert_eq!(
        restored.snapshot().answer().sorted(),
        answer_before,
        "the restored fixpoint answers identically"
    );

    // The restored server is fully live: apply the same round to both
    // and they stay equivalent.
    let round = UpdateRound::new().retract(par, edges[30].clone());
    server.insert_facts(par, &edges[31..32]); // undo the post-save edit first
    server.apply(&round);
    restored.apply(&round);
    assert_eq!(
        server.snapshot().answer().sorted(),
        restored.snapshot().answer().sorted(),
        "original and restored servers stay equivalent under updates"
    );
    println!(
        "restarted at epoch {epoch_saved}: answers match, updates keep flowing"
    );

    std::fs::remove_dir_all(&dir).ok();
}
