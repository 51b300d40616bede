//! Live updates: a persistent materialization absorbing a stream of
//! edge inserts — and a retraction — without ever recomputing.
//!
//! ```bash
//! cargo run --example live_updates
//! ```
//!
//! The batch evaluator (`selprop::datalog::eval::evaluate`) recomputes
//! the least fixpoint from scratch on every call; a live workload that
//! trickles in facts wants the fixpoint to be a *value* that updates
//! resume from. That is `Materialization`: build once, then `apply` an
//! `UpdateRound`: its inserts make the new rows the next semi-naive
//! delta, and its retracts remove facts by delete–rederive over the
//! recorded justifications.

use std::time::Instant;

use selprop_datalog::db::Tuple;
use selprop_datalog::eval::{evaluate, Strategy};
use selprop_datalog::{parse_program, Database, Materialization, UpdateRound};

fn main() {
    // The classic ancestor program (Example 1.1's Program A).
    let mut p = parse_program(
        "?- anc(john, Y).\n\
         anc(X, Y) :- par(X, Y).\n\
         anc(X, Y) :- anc(X, Z), par(Z, Y).",
    )
    .expect("valid program");
    let par = p.symbols.get_predicate("par").unwrap();

    // A binary tree of parent edges as the initial bulk load.
    let mut db = Database::new();
    let nodes: Vec<_> = (0..512)
        .map(|i| {
            if i == 0 {
                p.symbols.constant("john")
            } else {
                p.symbols.constant(&format!("p{i}"))
            }
        })
        .collect();
    for i in 1..nodes.len() {
        db.insert(par, vec![nodes[(i - 1) / 2], nodes[i]]);
    }

    let t0 = Instant::now();
    let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
    println!(
        "bulk load: {} edges -> {} descendants of john in {:.2?}",
        db.num_facts(),
        m.answer().len(),
        t0.elapsed()
    );

    // A stream of updates: new family branches arriving one at a time.
    let mut stream: Vec<Tuple> = Vec::new();
    let mut prev = nodes[300];
    for i in 0..64 {
        let c = p.symbols.constant(&format!("new{i}"));
        stream.push(vec![prev, c]);
        prev = c;
    }
    let t0 = Instant::now();
    for edge in &stream {
        m.apply(&UpdateRound::new().insert(par, edge.clone()));
    }
    let elapsed = t0.elapsed();
    println!(
        "absorbed {} live edge inserts in {:.2?} ({:.0?} per update); answers now {}",
        stream.len(),
        elapsed,
        elapsed / stream.len() as u32,
        m.answer().len()
    );

    // The incremental model is exactly the from-scratch model.
    let mut db_now = db.clone();
    for edge in &stream {
        db_now.insert(par, edge.clone());
    }
    let scratch = evaluate(&p, &db_now, Strategy::SemiNaive);
    let anc = p.symbols.get_predicate("anc").unwrap();
    assert_eq!(
        m.idb_database().relation(anc).map(|r| r.sorted()),
        scratch.idb.relation(anc).map(|r| r.sorted()),
        "incremental maintenance must equal recomputation"
    );
    println!("cross-check vs from-scratch recompute: identical model");

    // Retract the whole new branch: delete-rederive restores the
    // pre-stream store.
    let t0 = Instant::now();
    let removed = m.apply(&UpdateRound::new().retract_all(par, &stream)).retracted;
    println!(
        "retracted {} edges in {:.2?}; answers back to {}",
        removed,
        t0.elapsed(),
        m.answer().len()
    );
    let base = evaluate(&p, &db, Strategy::SemiNaive);
    assert_eq!(
        m.idb_database().relation(anc).map(|r| r.sorted()),
        base.idb.relation(anc).map(|r| r.sorted()),
        "retraction must restore the pre-insert model"
    );
    println!("cross-check vs pre-insert model: restored bit-for-bit");
}
