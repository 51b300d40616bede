//! A cold path costs what its rows cost, not what the name table holds —
//! asserted without a clock.
//!
//! `Symbols` shares its three spaces copy-on-write, and the one place a
//! space can be deep-copied bumps a thread-local counter by the number of
//! names copied (`Symbols::names_copied`). Over a table of 10⁵ constants
//! (the `noise_serve` input) a copy of the constant space reads ≥ 10⁵ on
//! that counter, so "fewer than a few hundred names" means **no constant
//! was copied**: what the cold paths may copy is the handful of predicate
//! and variable names a rewrite adds its own to.
//!
//! The second half is the case the sharing creates: a client that goes on
//! interning into the `Program` it handed to a `Server`.

use selprop_core::chain::ChainProgram;
use selprop_core::propagate::{propagate, Propagation};
use selprop_core::workload;
use selprop_datalog::eval::Strategy;
use selprop_datalog::magic::{magic_template, magic_transform};
use selprop_datalog::{
    parse_program, reference, Atom, Database, Program, Server, Symbols, Term, UpdateRound,
};

const SECTION_7: &str = "?- p(c, Y).\n\
                         p(X, Y) :- b1(X, X1), b2(X1, Y).\n\
                         p(X, Y) :- b1(X, X1), p(X1, Y1), b2(Y1, Y).";

const PROGRAM_A: &str = "?- anc(john, Y).\n\
                         anc(X, Y) :- par(X, Y).\n\
                         anc(X, Y) :- anc(X, Z), par(Z, Y).";

const LAYERS: usize = 20;
const NOISE: usize = 50_000;
/// The root, `2 × LAYERS` chain nodes, `2 × NOISE` noise nodes.
const CONSTANTS: usize = 1 + 2 * LAYERS + 2 * NOISE;

/// `f`'s result and how many names this thread deep-copied while it ran.
fn copied<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = Symbols::names_copied();
    let out = f();
    (out, Symbols::names_copied() - before)
}

/// What a path may copy: predicate and variable spaces, a few times over
/// (each holder of a clone unshares a space at most once) — two orders of
/// magnitude below one copy of the constant space.
fn small(p: &Program) -> usize {
    8 * (p.symbols.num_predicates() + p.symbols.num_variables() + 8)
}

/// `source` over the `noise_serve` name table: `CONSTANTS` constants.
fn noisy(source: &str, root: &str) -> (Program, Database) {
    let mut p = parse_program(source).unwrap();
    let db = workload::layered_b1_b2(&mut p, root, LAYERS, NOISE);
    assert!(p.symbols.get_constant(&format!("xb{}", NOISE - 1)).is_some());
    assert!(small(&p) * 100 < CONSTANTS);
    (p, db)
}

fn bound(p: &Program, first: Option<&str>, second: Option<&str>) -> Atom {
    let term = |name: Option<&str>, var: &str| match name {
        Some(c) => Term::Const(p.symbols.get_constant(c).unwrap()),
        None => Term::Var(p.symbols.get_variable(var).unwrap()),
    };
    Atom::new(p.goal.pred, vec![term(first, "X"), term(second, "Y")])
}

#[test]
fn serving_cold_copies_no_constant() {
    let (p, db) = noisy(SECTION_7, "c");
    let cap = small(&p);

    let (server, n) = copied(|| Server::from_database(&p, &db, Strategy::SemiNaive));
    assert!(n <= cap, "from_database copied {n} names");
    let (_, n) = copied(|| server.enable_query_cache(&p));
    assert!(n <= cap, "enable_query_cache copied {n} names");

    // Two binding patterns, two templates, two first queries.
    let last = format!("d{LAYERS}");
    for goal in [bound(&p, Some("c"), None), bound(&p, None, Some(&last))] {
        let (answer, n) = copied(|| server.query(&goal));
        assert_eq!(answer.len(), 1);
        assert!(n <= cap, "a first query copied {n} names");
    }

    let dir = std::env::temp_dir().join(format!("selprop-name-sharing-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("noise.snap");
    server.save(&path).unwrap();
    let (answer, n) = copied(|| {
        let restored = Server::restore(&path).unwrap();
        restored.enable_query_cache(&p);
        restored.query(&p.goal)
    });
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(answer.len(), 1);
    assert!(n <= cap, "restore + enable_query_cache + first query copied {n} names");
}

#[test]
fn rewriting_and_deciding_copy_no_constant() {
    let (s7, _) = noisy(SECTION_7, "c");
    let (a, _) = noisy(PROGRAM_A, "john");

    for p in [&s7, &a] {
        let cap = small(p);
        let (magic, n) = copied(|| magic_transform(p).unwrap());
        assert!(n <= cap, "magic_transform copied {n} names");
        // The rewritten program still reads the constants it shares.
        assert!(magic.program.render().contains(&p.render_term(p.goal.args[0])));

        let (_, n) = copied(|| magic_template(p, p.goal.pred, &vec![true, false]).unwrap());
        assert!(n <= cap, "magic_template copied {n} names");

        let (chain, n) = copied(|| ChainProgram::from_program(p.clone()).unwrap());
        assert!(n <= cap, "ChainProgram::from_program(p.clone()) copied {n} names");

        let (verdict, n) = copied(|| propagate(&chain).unwrap());
        assert!(n <= cap, "propagate copied {n} names");
        match verdict {
            Propagation::Propagated { program, .. } => {
                // Program A: the monadic program it hands back shares the
                // table it was decided over, constants included.
                assert_eq!(p.goal.pred, a.goal.pred);
                assert!(program.is_monadic());
                assert!(program.symbols.get_constant("xa0").is_some());
            }
            other => {
                assert_eq!(p.goal.pred, s7.goal.pred);
                assert!(matches!(other, Propagation::Unknown(_)));
            }
        }
    }
}

/// The client keeps interning into the `Program` it built the server
/// from and applies rounds over the new constants: the answers are the
/// reference's at every round, the client copies no constant — the
/// server and its cache hold no share of its name table — and the
/// server's views survive — synced, never recompiled or invalidated. (A
/// smaller sea of noise: the reference evaluates the whole program twice
/// a round.)
#[test]
fn a_client_interning_after_the_handover_copies_no_constant_and_breaks_nothing() {
    let noise = 500;
    let mut p = parse_program(SECTION_7).unwrap();
    let mut db = workload::layered_b1_b2(&mut p, "c", LAYERS, noise);
    let constants = 1 + 2 * LAYERS + 2 * noise;
    let server = Server::from_database(&p, &db, Strategy::SemiNaive);
    let b1 = p.symbols.get_predicate("b1").unwrap();
    let b2 = p.symbols.get_predicate("b2").unwrap();
    let c = p.symbols.get_constant("c").unwrap();
    let goal = p.goal.clone();
    assert_eq!(server.query(&goal).len(), 1);
    let compiled = server.cache_stats().template_compiles;

    let before = Symbols::names_copied();
    for round in 0..6 {
        let up = p.symbols.constant(&format!("client_up{round}"));
        let down = p.symbols.constant(&format!("client_down{round}"));
        server.apply(&UpdateRound::new().insert(b1, vec![c, up]).insert(b2, vec![up, down]));
        db.insert(b1, vec![c, up]);
        db.insert(b2, vec![up, down]);

        let by_first = server.query(&goal);
        assert_eq!(by_first, reference::answer(&p, &db, Strategy::SemiNaive).0, "round {round}");
        assert_eq!(by_first.len(), round + 2);
        let mut asked = p.clone();
        asked.goal = Atom::new(goal.pred, vec![goal.args[1], Term::Const(down)]);
        assert_eq!(
            server.query(&asked.goal),
            reference::answer(&asked, &db, Strategy::SemiNaive).0,
            "round {round}, bound by a constant only the client named"
        );
    }
    let paid = Symbols::names_copied() - before;
    assert!(paid <= small(&p), "the client copied {paid} names ({constants} constants)");

    let stats = server.cache_stats();
    assert_eq!(stats.template_compiles, compiled + 1, "one more template: the second pattern's");
    assert_eq!(stats.invalidations, 0);
    assert_eq!(server.query(&goal).len(), 7);
    assert_eq!(server.cache_stats().hits, stats.hits + 1, "the first view is still there");
}
