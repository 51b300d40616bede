//! Example 1.1 of the paper, end to end: the four ancestor programs
//! A, B, C, D are semantically equivalent but cost wildly different
//! amounts to evaluate; magic sets close most of the gap for A and B.
//!
//! ```bash
//! cargo run --example ancestor_four_ways
//! ```

use selprop_datalog::db::Database;
use selprop_datalog::eval::{answer, evaluate_with_provenance, Strategy};
use selprop_datalog::magic::magic_transform;
use selprop_datalog::parser::parse_program;
use selprop_core::workload;

const PROGRAMS: [(&str, &str); 4] = [
    (
        "A (left-linear)",
        "?- anc(john, Y).\n\
         anc(X, Y) :- par(X, Y).\n\
         anc(X, Y) :- anc(X, Z), par(Z, Y).",
    ),
    (
        "B (right-linear)",
        "?- anc(john, Y).\n\
         anc(X, Y) :- par(X, Y).\n\
         anc(X, Y) :- par(X, Z), anc(Z, Y).",
    ),
    (
        "C (nonlinear)",
        "?- anc(john, Y).\n\
         anc(X, Y) :- par(X, Y).\n\
         anc(X, Y) :- anc(X, Z), anc(Z, Y).",
    ),
    (
        "D (monadic)",
        "?- ancjohn(Y).\n\
         ancjohn(Y) :- par(john, Y).\n\
         ancjohn(Y) :- ancjohn(Z), par(Z, Y).",
    ),
];

fn main() {
    let n = 400;
    println!(
        "Example 1.1 — four equivalent ancestor programs on a random forest \
         ({n} nodes) plus disconnected noise\n"
    );
    println!(
        "{:<18} {:>9} {:>12} {:>12} {:>12}",
        "program", "answers", "tuples", "work", "iterations"
    );

    let mut reference: Option<usize> = None;
    for (name, src) in PROGRAMS {
        let mut program = parse_program(src).unwrap();
        let mut db = workload::random_forest(&mut program, "par", "john", n, 11);
        // noise: chains not reachable from john
        let noise = workload::wide(&mut program, "par", "elsewhere", 0, 20, 10);
        merge(&mut db, &noise);
        let (ans, stats) = answer(&program, &db, Strategy::SemiNaive);
        match reference {
            None => reference = Some(ans.len()),
            Some(r) => assert_eq!(r, ans.len(), "Example 1.1 equivalence"),
        }
        println!(
            "{:<18} {:>9} {:>12} {:>12} {:>12}",
            name,
            ans.len(),
            stats.tuples_derived,
            stats.work(),
            stats.iterations
        );
    }

    println!("\nWith the magic-sets transformation applied:\n");
    println!("{:<18} {:>9} {:>12} {:>12}", "program", "answers", "tuples", "work");
    for (name, src) in &PROGRAMS[..3] {
        let mut program = parse_program(src).unwrap();
        let mut db = workload::random_forest(&mut program, "par", "john", n, 11);
        let noise = workload::wide(&mut program, "par", "elsewhere", 0, 20, 10);
        merge(&mut db, &noise);
        let magic = magic_transform(&program).unwrap();
        let (ans, stats) = answer(&magic.program, &db, Strategy::SemiNaive);
        println!(
            "{:<18} {:>9} {:>12} {:>12}",
            format!("magic({})", name.chars().next().unwrap()),
            ans.len(),
            stats.tuples_derived,
            stats.work()
        );
        let _ = name;
    }
    println!(
        "\nReading: D is the efficient monadic form; magic(A)/magic(B) restrict \
         the computation to (roughly) what D does; magic helps C far less — \
         exactly the paper's Section 1 narrative."
    );

    // Section 2.1 made executable: the engine can record one
    // justification per derived fact while it evaluates, at identical
    // work counts, and reconstruct the derivation trees afterwards.
    println!("\nProvenance (program A, same database):\n");
    let mut program = parse_program(PROGRAMS[0].1).unwrap();
    let mut db = workload::random_forest(&mut program, "par", "john", n, 11);
    let noise = workload::wide(&mut program, "par", "elsewhere", 0, 20, 10);
    merge(&mut db, &noise);
    let (_, plain_stats) = answer(&program, &db, Strategy::SemiNaive);
    let prov = evaluate_with_provenance(&program, &db, Strategy::SemiNaive);
    assert_eq!(
        prov.stats(),
        plain_stats,
        "recording justifications changes no work counter"
    );
    let anc = program.symbols.get_predicate("anc").unwrap();
    let heights = prov.heights(anc);
    let max_h = heights.iter().copied().max().unwrap_or(0);
    println!(
        "derived facts: {} (one justification each), max derivation-tree height: {max_h}",
        prov.num_derived()
    );
    // `heights` is in row order = `derived()` order (anc is the only
    // IDB), so the deepest proof is an index lookup, not a rescan.
    let deepest_row = heights
        .iter()
        .position(|&h| h == max_h)
        .expect("nonempty model");
    let deepest = prov.derived().nth(deepest_row).expect("row exists");
    let tree = prov.tree(&deepest).expect("derived fact has a tree");
    let par = program.symbols.get_predicate("par").unwrap();
    assert!(tree.nodes().iter().filter(|n| n.rule.is_none()).all(|n| n.atom.pred == par));
    println!(
        "deepest proof: {}({}, {}) — tree height {} with {} nodes, all leaves par facts",
        program.symbols.pred_name(deepest.pred),
        program.symbols.const_name(deepest.args[0]),
        program.symbols.const_name(deepest.args[1]),
        tree.height(),
        tree.size(),
    );
    let (rule, body) = prov.justification(&deepest).expect("derived");
    println!(
        "its last step: rule {rule} over {} body fact(s) — e.g. {}({}, {})",
        body.len(),
        program.symbols.pred_name(body[0].pred),
        program.symbols.const_name(body[0].args[0]),
        program.symbols.const_name(body[0].args[1]),
    );
}

fn merge(into: &mut Database, from: &Database) {
    for (p, rel) in from.iter() {
        for t in rel.iter() {
            into.insert(p, t.clone());
        }
    }
}
