//! Workload generators for the experiment harness (E1–E10).
//!
//! All generators are deterministic given a seed and intern their node
//! constants into the target program's symbol table, so the same
//! generator call against two programs sharing a symbol-space clone
//! produces identical databases.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selprop_datalog::ast::{Const, Pred, Program};
use selprop_datalog::db::Database;

/// A named edge to insert: `(edb, from, to)`.
pub type Edge = (String, usize, usize);

/// Interns `n` node constants `v0..v{n-1}` and inserts the given edges.
pub fn materialize(program: &mut Program, n: usize, edges: &[Edge]) -> Database {
    let ids: Vec<Const> = (0..n)
        .map(|i| program.symbols.constant(&format!("v{i}")))
        .collect();
    let mut db = Database::new();
    for (name, a, b) in edges {
        let pred = program.symbols.predicate(name);
        db.insert(pred, vec![ids[*a], ids[*b]]);
    }
    db
}

/// A simple chain `c → v1 → ... → vn` on one EDB, rooted at a named
/// constant (Example 1.1 style).
pub fn chain(program: &mut Program, edb: &str, root: &str, n: usize) -> Database {
    let pred = program.symbols.predicate(edb);
    let mut db = Database::new();
    let mut prev = program.symbols.constant(root);
    for i in 1..=n {
        let c = program.symbols.constant(&format!("v{i}"));
        db.insert(pred, vec![prev, c]);
        prev = c;
    }
    db
}

/// A random forest of parent edges: every node except roots has exactly
/// one parent among earlier nodes; the named root is node 0.
pub fn random_forest(
    program: &mut Program,
    edb: &str,
    root: &str,
    n: usize,
    seed: u64,
) -> Database {
    let pred = program.symbols.predicate(edb);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    let mut ids: Vec<Const> = Vec::with_capacity(n);
    ids.push(program.symbols.constant(root));
    for i in 1..n {
        ids.push(program.symbols.constant(&format!("v{i}")));
        let parent = rng.gen_range(0..i);
        db.insert(pred, vec![ids[parent], ids[i]]);
    }
    db
}

/// A random labeled digraph: `m` edges over `n` nodes, labels drawn
/// uniformly from `edbs`; node 0 is the named root.
pub fn random_labeled_digraph(
    program: &mut Program,
    edbs: &[&str],
    root: &str,
    n: usize,
    m: usize,
    seed: u64,
) -> Database {
    let preds: Vec<Pred> = edbs.iter().map(|e| program.symbols.predicate(e)).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    let mut ids: Vec<Const> = Vec::with_capacity(n);
    ids.push(program.symbols.constant(root));
    for i in 1..n {
        ids.push(program.symbols.constant(&format!("v{i}")));
    }
    for _ in 0..m {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        let p = preds[rng.gen_range(0..preds.len())];
        db.insert(p, vec![ids[a], ids[b]]);
    }
    db
}

/// The Section 7 layered structure: a `b1`-chain of `layers` edges from
/// the root, a `b2`-chain of `layers` edges continuing from its end, and
/// `noise` disconnected `b1`/`b2` pairs (irrelevant to the root's query).
pub fn layered_b1_b2(
    program: &mut Program,
    root: &str,
    layers: usize,
    noise: usize,
) -> Database {
    let b1 = program.symbols.predicate("b1");
    let b2 = program.symbols.predicate("b2");
    let mut db = Database::new();
    let mut prev = program.symbols.constant(root);
    for i in 1..=layers {
        let c = program.symbols.constant(&format!("u{i}"));
        db.insert(b1, vec![prev, c]);
        prev = c;
    }
    for i in 1..=layers {
        let c = program.symbols.constant(&format!("d{i}"));
        db.insert(b2, vec![prev, c]);
        prev = c;
    }
    for i in 0..noise {
        let a = program.symbols.constant(&format!("xa{i}"));
        let b = program.symbols.constant(&format!("xb{i}"));
        db.insert(b1, vec![a, b]);
        db.insert(b2, vec![b, a]);
    }
    db
}

/// A layered complete-bipartite DAG on one EDB: `layers + 1` ranks of
/// `width` nodes, every node of rank `i` pointing to every node of rank
/// `i + 1`, with the named root feeding rank 0.
///
/// The wall-clock stress generator: `layers·width²` edges produce
/// `Θ(layers²·width²)` transitive-closure facts (e.g. `layers = 72,
/// width = 20` → 28_800 edges, >10⁶ derived `anc` tuples), so a full
/// ancestor run exercises the storage layer at scale from a tiny input.
/// Deterministic — no seed.
pub fn layered_dag(
    program: &mut Program,
    edb: &str,
    root: &str,
    layers: usize,
    width: usize,
) -> Database {
    let pred = program.symbols.predicate(edb);
    let mut db = Database::new();
    let rank: Vec<Vec<Const>> = (0..=layers)
        .map(|l| {
            (0..width)
                .map(|i| program.symbols.constant(&format!("l{l}_{i}")))
                .collect()
        })
        .collect();
    let r = program.symbols.constant(root);
    for &c in &rank[0] {
        db.insert(pred, vec![r, c]);
    }
    for l in 0..layers {
        for &a in &rank[l] {
            for &b in &rank[l + 1] {
                db.insert(pred, vec![a, b]);
            }
        }
    }
    db
}

/// A union of disjoint directed cycles with the given lengths, on one EDB
/// (the Section 6 / E3 structures).
pub fn cycles(program: &mut Program, edb: &str, lengths: &[usize]) -> Database {
    let pred = program.symbols.predicate(edb);
    let mut db = Database::new();
    for (ci, &len) in lengths.iter().enumerate() {
        let ids: Vec<Const> = (0..len)
            .map(|i| program.symbols.constant(&format!("c{ci}_{i}")))
            .collect();
        for i in 0..len {
            db.insert(pred, vec![ids[i], ids[(i + 1) % len]]);
        }
    }
    db
}

/// A "wide" database: a relevant chain from the root plus many irrelevant
/// chains (the magic-sets pruning scenario of E1/E5).
pub fn wide(
    program: &mut Program,
    edb: &str,
    root: &str,
    relevant: usize,
    islands: usize,
    island_len: usize,
) -> Database {
    let pred = program.symbols.predicate(edb);
    let mut db = chain(program, edb, root, relevant);
    for k in 0..islands {
        let mut prev = program.symbols.constant(&format!("i{k}_0"));
        for i in 1..=island_len {
            let c = program.symbols.constant(&format!("i{k}_{i}"));
            db.insert(pred, vec![prev, c]);
            prev = c;
        }
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use selprop_datalog::parser::parse_program;

    fn anc_program() -> Program {
        parse_program(
            "?- anc(c, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), par(Z, Y).",
        )
        .unwrap()
    }

    #[test]
    fn chain_has_n_edges() {
        let mut p = anc_program();
        let db = chain(&mut p, "par", "c", 7);
        assert_eq!(db.num_facts(), 7);
    }

    #[test]
    fn forest_is_connected_from_root() {
        let mut p = anc_program();
        let db = random_forest(&mut p, "par", "c", 50, 42);
        assert_eq!(db.num_facts(), 49); // n-1 edges
        let (ans, _) = selprop_datalog::eval::answer(
            &p,
            &db,
            selprop_datalog::eval::Strategy::SemiNaive,
        );
        assert_eq!(ans.len(), 49, "every non-root is an answer in a tree");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut p1 = anc_program();
        let mut p2 = anc_program();
        let d1 = random_labeled_digraph(&mut p1, &["par"], "c", 20, 40, 7);
        let d2 = random_labeled_digraph(&mut p2, &["par"], "c", 20, 40, 7);
        assert_eq!(d1.num_facts(), d2.num_facts());
    }

    #[test]
    fn layered_counts() {
        let mut p = parse_program(
            "?- p(c, Y).\np(X, Y) :- b1(X, X1), b2(X1, Y).\np(X, Y) :- b1(X, X1), p(X1, X2), b2(X2, Y).",
        )
        .unwrap();
        let db = layered_b1_b2(&mut p, "c", 5, 3);
        assert_eq!(db.num_facts(), 5 + 5 + 6);
    }

    #[test]
    fn layered_dag_counts_and_closure() {
        let mut p = anc_program();
        let db = layered_dag(&mut p, "par", "c", 3, 4);
        assert_eq!(db.num_facts(), 4 + 3 * 16);
        let result = selprop_datalog::eval::evaluate(
            &p,
            &db,
            selprop_datalog::eval::Strategy::SemiNaive,
        );
        let anc = p.symbols.get_predicate("anc").unwrap();
        // closure: root reaches all 16 nodes; rank i reaches all deeper
        // ranks: 16 + 4*(3+2+1)*4 = 16 + 96
        assert_eq!(result.idb.relation(anc).unwrap().len(), 16 + 96);
    }

    #[test]
    fn cycles_counts() {
        let mut p = parse_program(
            "?- p(X, X).\np(X, Y) :- b(X, Y).\np(X, Y) :- p(X, Z), b(Z, Y).",
        )
        .unwrap();
        let db = cycles(&mut p, "b", &[3, 5]);
        assert_eq!(db.num_facts(), 8);
    }

    #[test]
    fn wide_counts() {
        let mut p = anc_program();
        let db = wide(&mut p, "par", "c", 4, 3, 5);
        assert_eq!(db.num_facts(), 4 + 15);
    }
}
