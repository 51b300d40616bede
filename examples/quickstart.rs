//! Quickstart: propagate the selection `anc(john, Y)` into the classic
//! ancestor program and run both versions on a small family tree.
//!
//! ```bash
//! cargo run --example quickstart
//! ```

use selprop_core::chain::ChainProgram;
use selprop_core::propagate::{propagate, Propagation};
use selprop_core::workload;
use selprop_datalog::eval::{answer, Strategy};

fn main() {
    // Program A from Example 1.1 of the paper.
    let chain = ChainProgram::parse(
        "?- anc(john, Y).\n\
         anc(X, Y) :- par(X, Y).\n\
         anc(X, Y) :- anc(X, Z), par(Z, Y).",
    )
    .expect("valid chain program");

    println!("== Original (binary recursive) program ==");
    println!("{}", chain.program.render());

    // The propagation engine establishes that L(H) = par+ is regular
    // (strongly regular grammar) and builds the monadic rewrite — the
    // paper's Program D, up to state naming.
    let Propagation::Propagated {
        program: monadic,
        certificate,
    } = propagate(&chain).expect("constant goal")
    else {
        unreachable!("ancestors always propagate");
    };
    println!("== Monadic rewrite (certificate: {}) ==", certificate.describe());
    println!("{}", monadic.render());

    // Evaluate both on a random family forest and compare work.
    let mut original = chain.program;
    let db1 = workload::random_forest(&mut original, "par", "john", 2_000, 7);
    let (ans1, stats1) = answer(&original, &db1, Strategy::SemiNaive);

    let mut rewritten = monadic;
    let db2 = workload::random_forest(&mut rewritten, "par", "john", 2_000, 7);
    let (ans2, stats2) = answer(&rewritten, &db2, Strategy::SemiNaive);

    assert_eq!(ans1.len(), ans2.len(), "finite query equivalence");
    println!("answers: {} descendants of john", ans1.len());
    println!(
        "work (rule firings + join probes): binary = {}, monadic = {}  ({}x less)",
        stats1.work(),
        stats2.work(),
        stats1.work() / stats2.work().max(1)
    );
}
