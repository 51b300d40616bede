//! The symmetry arguments of Section 6, executable.
//!
//! Lemma 6.1's proof rests on two facts about **monadic** Datalog
//! programs that we check on concrete structures:
//!
//! 1. *Cycle symmetry*: on a directed cycle, a monadic program assigns
//!    the same set of colors (derived monadic IDB facts) to every node —
//!    rule applications are invariant under rotation
//!    ([`cycle_colors_uniform`]).
//! 2. *Cycle blindness*: two cycles larger than the program's symbol
//!    count are indistinguishable by any monadic program
//!    ([`distinguishes`] on `C_m` vs `C_n`), and a path `P_n` is
//!    indistinguishable from `P_n ⊎ C_k` — whereas the paper's binary
//!    Program CYCLE distinguishes them, which is why `p(X, X)` selection
//!    cannot be propagated when `L(H)` is infinite (Theorem 3.3(2),
//!    "only if").

use selprop_datalog::ast::Program;
use selprop_datalog::eval::{answer, evaluate, Strategy};

use crate::structure::FiniteStructure;

/// The paper's Program CYCLE (Section 6): binary, goal `p(X, X)`,
/// answering the set of nodes on directed cycles of `b`.
pub fn program_cycle() -> Program {
    selprop_datalog::parser::parse_program(
        "?- p(X, X).\n\
         p(X, Y) :- b(X, Y).\n\
         p(X, Y) :- p(X, Z), b(Z, Y).",
    )
    .expect("CYCLE parses")
}

/// Runs `program` on a structure and returns, per domain element, the set
/// of monadic IDB predicates ("colors") derived for it.
pub fn node_colors(program: &Program, s: &FiniteStructure) -> Vec<Vec<String>> {
    let mut program = program.clone();
    let (db, ids) = s.to_database(&mut program.symbols);
    let result = evaluate(&program, &db, Strategy::SemiNaive);
    let idbs = program.idb_predicates();
    let mut colors: Vec<Vec<String>> = vec![Vec::new(); s.domain];
    for &p in &idbs {
        let Some(rel) = result.idb.relation(p) else {
            continue;
        };
        if rel.arity() != 1 {
            continue;
        }
        for t in rel.iter() {
            if let Some(i) = ids.iter().position(|&c| c == t[0]) {
                colors[i].push(program.symbols.pred_name(p).to_owned());
            }
        }
    }
    for c in &mut colors {
        c.sort();
        c.dedup();
    }
    colors
}

/// Section 6, case (b): on a directed cycle every node receives the same
/// color set from a monadic program. Returns `true` when uniform.
pub fn cycle_colors_uniform(program: &Program, cycle_len: usize) -> bool {
    assert!(program.is_monadic(), "symmetry claim is about monadic programs");
    let c = FiniteStructure::cycle(cycle_len, "b");
    let colors = node_colors(program, &c);
    colors.windows(2).all(|w| w[0] == w[1])
}

/// Whether the program's boolean goal (0-ary or via nonempty answer set)
/// distinguishes the two structures: returns `true` if the answer
/// nonemptiness differs.
pub fn distinguishes(program: &Program, s1: &FiniteStructure, s2: &FiniteStructure) -> bool {
    let run = |s: &FiniteStructure| -> bool {
        let mut p = program.clone();
        let (db, _) = s.to_database(&mut p.symbols);
        let (ans, _) = answer(&p, &db, Strategy::SemiNaive);
        !ans.is_empty()
    };
    run(s1) != run(s2)
}

/// A family of monadic probe programs over a single binary EDB `b`, used
/// by the experiments as concrete instances of "all monadic programs":
/// reachability-from-everywhere, in/out-degree marks, k-step marks and
/// their boolean combinations via multiple IDBs.
pub fn monadic_probe_programs() -> Vec<Program> {
    let sources = [
        // reach: a node with an outgoing edge, transitively marked backwards
        "?- yes.\n\
         yes :- w(X).\n\
         w(X) :- b(X, Y).\n\
         w(X) :- b(X, Y), w(Y).",
        // two-colors: alternate marks along edges
        "?- yes.\n\
         yes :- wa(X), wb(X).\n\
         wa(X) :- b(X, Y).\n\
         wb(Y) :- wa(X), b(X, Y).\n\
         wa(Y) :- wb(X), b(X, Y).",
        // three-step marks
        "?- yes.\n\
         yes :- w3(X).\n\
         w1(Y) :- b(X, Y).\n\
         w2(Y) :- w1(X), b(X, Y).\n\
         w3(Y) :- w2(X), b(X, Y).",
        // sources and sinks interplay: mark every edge endpoint
        "?- yes.\n\
         yes :- ws(X).\n\
         ws(X) :- b(X, Y).\n\
         ws(Y) :- b(X, Y).\n\
         ws(X) :- ws(Y), b(X, Y).",
    ];
    sources
        .iter()
        .map(|s| selprop_datalog::parser::parse_program(s).expect("probe parses"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_program_finds_cycle_nodes() {
        let p = program_cycle();
        let mut p2 = p;
        let s = FiniteStructure::path(3, "b").disjoint_union(&FiniteStructure::cycle(3, "b"));
        let (db, ids) = s.to_database(&mut p2.symbols);
        let (ans, _) = answer(&p2, &db, Strategy::SemiNaive);
        // exactly the three cycle nodes (shifted by 3)
        assert_eq!(ans.len(), 3);
        for id in &ids[3..6] {
            assert!(ans.contains(&[*id]));
        }
    }

    #[test]
    fn binary_cycle_program_distinguishes_path_from_path_plus_cycle() {
        let p = program_cycle();
        // boolean variant: does any cycle exist?
        let pb = selprop_datalog::parser::parse_program(
            "?- yes.\n\
             yes :- p(X, X).\n\
             p(X, Y) :- b(X, Y).\n\
             p(X, Y) :- p(X, Z), b(Z, Y).",
        )
        .unwrap();
        let path = FiniteStructure::path(6, "b");
        let with_cycle = path.disjoint_union(&FiniteStructure::cycle(4, "b"));
        assert!(distinguishes(&pb, &path, &with_cycle));
        let _ = p;
    }

    #[test]
    fn monadic_probes_do_not_distinguish() {
        // Lemma 6.2's operative content on concrete probes: none of the
        // monadic probe programs can tell P_n from P_n ⊎ C_k (for n, k
        // comfortably above their symbol counts).
        let path = FiniteStructure::path(8, "b");
        let with_cycle = path.disjoint_union(&FiniteStructure::cycle(5, "b"));
        for (i, p) in monadic_probe_programs().iter().enumerate() {
            assert!(p.is_monadic(), "probe {i} must be monadic");
            assert!(
                !distinguishes(p, &path, &with_cycle),
                "monadic probe {i} unexpectedly distinguished the structures"
            );
        }
    }

    #[test]
    fn wait_probe_zero_finds_outgoing_edges_on_both() {
        // sanity: the probes do fire (they answer true on both structures,
        // not false on both vacuously) — except where genuinely empty.
        let path = FiniteStructure::path(8, "b");
        let p = &monadic_probe_programs()[0];
        let mut p2 = p.clone();
        let (db, _) = path.to_database(&mut p2.symbols);
        let (ans, _) = answer(&p2, &db, Strategy::SemiNaive);
        assert!(!ans.is_empty());
    }

    #[test]
    fn cycle_symmetry_for_probes() {
        for (i, p) in monadic_probe_programs().iter().enumerate() {
            for len in [3usize, 5, 8] {
                assert!(
                    cycle_colors_uniform(p, len),
                    "probe {i} broke cycle symmetry at length {len}"
                );
            }
        }
    }

    #[test]
    fn monadic_cannot_distinguish_large_cycles() {
        // Section 6 case (b): two cycles above the program's symbol count
        // are indistinguishable...
        let c9 = FiniteStructure::cycle(9, "b");
        let c11 = FiniteStructure::cycle(11, "b");
        for p in &monadic_probe_programs() {
            assert!(!distinguishes(p, &c9, &c11));
        }
        // ...while a chain program with goal p(X,X) and L(H) = {b^10}
        // (say, 10-step cycles) distinguishes C_10 from C_11.
        let pb = selprop_datalog::parser::parse_program(
            "?- yes.\n\
             yes :- p(X, X).\n\
             p(X, Y) :- b(X, Z1), b(Z1, Z2), b(Z2, Z3), b(Z3, Z4), b(Z4, Y).",
        )
        .unwrap();
        let c5 = FiniteStructure::cycle(5, "b");
        let c7 = FiniteStructure::cycle(7, "b");
        assert!(distinguishes(&pb, &c5, &c7));
    }
}
