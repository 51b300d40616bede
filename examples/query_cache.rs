//! Incrementally-maintained magic-set query views, served through the
//! epoch server: `Server::query` answers bound goals from a
//! [`selprop_datalog::QueryCache`] — one magic-template store per
//! binding pattern, sharing the base store's EDB rows, in which each
//! cached view is a tag — kept at fixpoint as update rounds stream in.
//!
//! ```bash
//! cargo run --example query_cache
//! ```
//!
//! The walkthrough is self-asserting — it doubles as a smoke test of
//! the cache's contract:
//!
//! - every cached answer is **bit-identical** to a from-scratch magic
//!   transform of the current EDB (the batch oracle);
//! - one template compile per (predicate, binding pattern), however
//!   many constants instantiate it;
//! - views advance **inside** the writer's rounds, so post-churn
//!   queries are read-path hits;
//! - a pinned snapshot keeps answering as of its pin while the server
//!   moves on;
//! - view memory stays a small fraction of the base store.

use selprop_datalog::ast::{Atom, Term};
use selprop_datalog::db::Tuple;
use selprop_datalog::eval::{answer, Strategy};
use selprop_datalog::magic::magic_transform;
use selprop_datalog::{parse_program, Database, Server};

/// Chain length; the base closure is quadratic in it, the bound views
/// linear.
const N: usize = 160;

fn main() {
    let mut p = parse_program(
        "?- anc(john, Y).\n\
         anc(X, Y) :- par(X, Y).\n\
         anc(X, Y) :- anc(X, Z), par(Z, Y).",
    )
    .expect("valid program");
    let par = p.symbols.get_predicate("par").unwrap();
    let anc = p.symbols.get_predicate("anc").unwrap();

    // A parent chain john -> c1 -> ... -> cN.
    let mut prev = p.symbols.constant("john");
    let mut edges: Vec<Tuple> = Vec::new();
    let mut edb = Database::new();
    for i in 1..=N {
        let c = p.symbols.constant(&format!("c{i}"));
        edges.push(vec![prev, c]);
        edb.insert(par, vec![prev, c]);
        prev = c;
    }
    let server = Server::from_database(&p, &edb, Strategy::SemiNaive);
    let y = p.symbols.variable("QY");
    let mid_consts: Vec<_> = ["c40", "c80", "c120"]
        .iter()
        .map(|name| p.symbols.constant(name))
        .collect();

    // The from-scratch oracle: bake the goal in, magic-transform, run
    // the batch fixpoint over the current EDB.
    let oracle = |goal: &Atom, edb: &Database| -> Vec<Tuple> {
        let mut pg = p.clone();
        pg.goal = goal.clone();
        let m = magic_transform(&pg).expect("transformable");
        answer(&m.program, edb, Strategy::SemiNaive).0.sorted()
    };

    // --- Cold query: builds the view (one template compile). --------
    let goal = p.goal.clone(); // anc(john, Y)
    let got = server.query(&goal).sorted();
    assert_eq!(got.len(), N, "john reaches the whole chain");
    assert_eq!(got, oracle(&goal, &edb), "cold view == batch magic");
    let s = server.cache_stats();
    assert_eq!((s.misses, s.template_compiles), (1, 1));
    println!("cold query:    {:>5} answers, view built", got.len());

    // --- More constants, same binding pattern: template reused. -----
    for &c in &mid_consts {
        let g = Atom::new(anc, vec![Term::Const(c), Term::Var(y)]);
        assert_eq!(server.query(&g).sorted(), oracle(&g, &edb));
    }
    let s = server.cache_stats();
    assert_eq!(s.template_compiles, 1, "one compile per binding pattern");
    assert_eq!((s.views, s.misses), (4, 4));
    println!("3 more consts: template compiles still {}", s.template_compiles);

    // --- Churn rounds: views advance inside the writer's round. -----
    server.retract_facts(par, &edges[99..100]); // cut at c99 -> c100
    for e in &edges[99..100] {
        edb.remove(par, e);
    }
    let hits_before = server.cache_stats().hits;
    let got = server.query(&goal).sorted();
    assert_eq!(got.len(), 99, "chain now stops at c99");
    assert_eq!(got, oracle(&goal, &edb), "post-churn view == batch magic");
    assert!(
        server.cache_stats().hits > hits_before,
        "the round caught the view up: this query was a read-path hit"
    );
    server.insert_facts(par, &edges[99..100]);
    for e in &edges[99..100] {
        edb.insert(par, e.clone());
    }
    assert_eq!(server.query(&goal).sorted(), oracle(&goal, &edb));
    println!("churned twice: answers still oracle-identical, served from cache");

    // --- Snapshot pinning composes with cached queries. -------------
    let pinned = server.snapshot();
    server.retract_facts(par, &edges[..1]); // cut the root
    assert_eq!(server.query(&goal).len(), 0, "current model: root cut");
    assert_eq!(pinned.query(&goal).len(), N, "pinned snapshot: full chain");
    assert_eq!(
        pinned.query(&goal).sorted(),
        pinned.answer().sorted(),
        "pinned view route == pinned base filter"
    );
    drop(pinned);
    server.insert_facts(par, &edges[..1]);
    println!("snapshot:      pinned query answered as of its pin");

    // --- The point of it all: views are small. ----------------------
    let base_words = server.mem_stats().total_words();
    let view_words = server.cache_view_words();
    assert!(
        view_words * 5 < base_words,
        "views ({view_words} words) must stay well under the base ({base_words})"
    );
    println!(
        "memory:        views {view_words} words vs base {base_words} ({:.1}%)",
        100.0 * view_words as f64 / base_words as f64
    );

    let s = server.cache_stats();
    println!(
        "cache stats:   {} hits, {} misses, {} syncs, {} compiles, {} views",
        s.hits, s.misses, s.syncs, s.template_compiles, s.views
    );
    println!("ok: cached magic views stayed oracle-identical through churn");
}
