//! Section 7 worked example: magic sets on the `b1^n b2^n` chain program
//! read as language quotients.
//!
//! ```bash
//! cargo run --example magic_sets
//! ```

use selprop_core::chain::ChainProgram;
use selprop_core::magic_chain::{analyze, magic_extension_vs_language, transform, work_comparison};
use selprop_core::workload;
use selprop_automata::regex::{dfa_to_regex, Regex};

fn main() {
    let mut chain = ChainProgram::parse(
        "?- p(c, Y).\n\
         p(X, Y) :- b1(X, X1), b2(X1, Y).\n\
         p(X, Y) :- b1(X, X1), p(X1, Y1), b2(Y1, Y).",
    )
    .unwrap();
    println!("Chain program H with L(H) = {{ b1^n b2^n : n ≥ 1 }}:\n");
    println!("{}", chain.program.render());

    let analysis = analyze(&chain).unwrap();
    let al = chain.grammar().alphabet;
    println!(
        "Regular envelope R(H): {}   (exact: {})",
        dfa_to_regex(&analysis.envelope).display(&al),
        analysis.envelope_exact,
    );
    for rq in &analysis.rules {
        println!(
            "rule {}: pattern {} → envelope quotient {}  (CFG quotient exact-regular: {})",
            rq.rule_index,
            rq.pattern.display(&al),
            dfa_to_regex(&rq.envelope_quotient).display(&al),
            rq.quotient_exact,
        );
    }

    println!("\nTransformed program (paper's Section 7 display):\n");
    let magic = transform(&chain).unwrap();
    println!("{}", magic.program.render());

    // Validate the semantic reading: magic = b1*-reachability from c.
    let db = workload::layered_b1_b2(&mut chain.program, "c", 30, 100);
    let mut al2 = al;
    let b1_star = Regex::parse("b1*", &mut al2).unwrap().to_dfa(&al2);
    let (marked, reachable) = magic_extension_vs_language(&chain, &db, &b1_star).unwrap();
    assert_eq!(marked, reachable);
    println!(
        "On a 30-layer database with 100 noise pairs: magic set = b1*-reachable \
         set = {} nodes ✓",
        marked.len()
    );

    let (orig, magical) = work_comparison(&chain, &db).unwrap();
    println!(
        "work: original = {} (tuples {}), magic = {} (tuples {})",
        orig.work(),
        orig.tuples_derived,
        magical.work(),
        magical.tuples_derived
    );
}
