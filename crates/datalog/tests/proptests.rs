//! Property tests for the Datalog engine: program-variant agreement,
//! magic-set equivalence, and goal-application laws on randomized programs and
//! databases; and the independence of `Symbols` clones, which share
//! their storage copy-on-write.

use proptest::prelude::*;
use selprop_datalog::ast::{Const, Pred, Program, Symbols, Var};
use selprop_datalog::db::Database;
use selprop_datalog::eval::{answer, apply_goal, evaluate, Strategy as EvalStrategy};
use selprop_datalog::magic::magic_transform;
use selprop_datalog::parser::parse_program;

/// Random edge lists over `n` nodes.
fn arb_edges(n: usize, max_edges: usize) -> impl Strategy<Value = Vec<(u8, u8)>> {
    proptest::collection::vec((0..n as u8, 0..n as u8), 0..max_edges)
}

/// The three binary recursive ancestor variants from Example 1.1, plus
/// same-generation, keyed by index.
fn program(idx: usize) -> Program {
    let sources = [
        "?- anc(c0, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), par(Z, Y).",
        "?- anc(c0, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- par(X, Z), anc(Z, Y).",
        "?- anc(c0, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), anc(Z, Y).",
        "?- sg(c0, Y).\nsg(X, Y) :- par(X, Y).\nsg(X, Y) :- par(X, U), sg(U, V), par(V, Y).",
    ];
    parse_program(sources[idx]).unwrap()
}

fn build_db(p: &mut Program, edges: &[(u8, u8)]) -> Database {
    let par = p.symbols.get_predicate("par").unwrap();
    let mut db = Database::new();
    for &(a, b) in edges {
        let ca = p.symbols.constant(&format!("c{a}"));
        let cb = p.symbols.constant(&format!("c{b}"));
        db.insert(par, vec![ca, cb]);
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn example_11_variants_agree(edges in arb_edges(6, 14)) {
        // Programs A, B, C are finite-query equivalent (Example 1.1).
        let mut answers = Vec::new();
        for idx in 0..3 {
            let mut p = program(idx);
            let db = build_db(&mut p, &edges);
            let (a, _) = answer(&p, &db, EvalStrategy::SemiNaive);
            answers.push(a.sorted());
        }
        prop_assert_eq!(&answers[0], &answers[1]);
        prop_assert_eq!(&answers[1], &answers[2]);
    }

    #[test]
    fn magic_preserves_answers(idx in 0usize..4, edges in arb_edges(6, 14)) {
        let mut p = program(idx);
        let db = build_db(&mut p, &edges);
        let (want, _) = answer(&p, &db, EvalStrategy::SemiNaive);
        let magic = magic_transform(&p).unwrap();
        let (got, _) = answer(&magic.program, &db, EvalStrategy::SemiNaive);
        prop_assert_eq!(got.sorted(), want.sorted());
    }

    #[test]
    fn magic_never_does_more_deriving(edges in arb_edges(7, 16)) {
        // Magic may add magic-predicate tuples, but IDB tuples of the
        // adorned goal predicate are a subset of the original relation.
        let mut p = program(0);
        let db = build_db(&mut p, &edges);
        let orig = evaluate(&p, &db, EvalStrategy::SemiNaive);
        let magic = magic_transform(&p).unwrap();
        let m = evaluate(&magic.program, &db, EvalStrategy::SemiNaive);
        let anc = p.symbols.get_predicate("anc").unwrap();
        let key = (anc, "bf".to_owned());
        let adorned = magic.adorned[&key];
        let orig_rel = orig.idb.relation(anc);
        if let Some(m_rel) = m.idb.relation(adorned) {
            for t in m_rel.iter() {
                prop_assert!(
                    orig_rel.map(|r| r.contains(t)).unwrap_or(false),
                    "magic derived a tuple the original did not"
                );
            }
        }
    }

    #[test]
    fn goal_application_is_idempotent_on_output(idx in 0usize..3, edges in arb_edges(5, 10)) {
        let mut p = program(idx);
        let db = build_db(&mut p, &edges);
        let (ans, _) = answer(&p, &db, EvalStrategy::SemiNaive);
        // answers are unary: every tuple matches a fresh all-free goal
        prop_assert!(ans.iter().all(|t| t.len() == 1));
    }

    #[test]
    fn monotonicity(edges in arb_edges(5, 10), extra in arb_edges(5, 4)) {
        // Datalog is monotone: adding facts never removes answers.
        let mut p = program(0);
        let db = build_db(&mut p, &edges);
        let (small, _) = answer(&p, &db, EvalStrategy::SemiNaive);
        let mut all_edges = edges.clone();
        all_edges.extend_from_slice(&extra);
        let mut p2 = program(0);
        let db2 = build_db(&mut p2, &all_edges);
        let (big, _) = answer(&p2, &db2, EvalStrategy::SemiNaive);
        for t in small.iter() {
            prop_assert!(big.contains(t), "monotonicity violated");
        }
    }
}

/// What `Symbols` must behave like: three name lists, copied eagerly.
#[derive(Clone, Default)]
struct EagerSymbols {
    consts: Vec<String>,
    vars: Vec<String>,
    preds: Vec<String>,
}

fn model_intern(space: &mut Vec<String>, name: &str) -> u32 {
    let at = space.iter().position(|n| n == name).unwrap_or_else(|| {
        space.push(name.to_owned());
        space.len() - 1
    });
    at as u32
}

fn model_fresh(space: &mut Vec<String>, hint: &str) -> u32 {
    let mut name = hint.to_owned();
    let mut i = 0;
    while space.contains(&name) {
        name = format!("{hint}_{i}");
        i += 1;
    }
    model_intern(space, &name)
}

/// Every name→id and id→name answer of `sy` is `model`'s, over every
/// name any live clone knows: a name interned elsewhere must be absent.
fn check_against(sy: &Symbols, model: &EagerSymbols, universe: &[String]) -> Result<(), String> {
    let at = |space: &[String], name: &str| space.iter().position(|n| n == name).map(|i| i as u32);
    if sy.num_predicates() != model.preds.len() || sy.num_variables() != model.vars.len() {
        return Err("a space changed size".to_owned());
    }
    for name in universe {
        if sy.get_constant(name) != at(&model.consts, name).map(Const)
            || sy.get_variable(name) != at(&model.vars, name).map(Var)
            || sy.get_predicate(name) != at(&model.preds, name).map(Pred)
        {
            return Err(format!("name {name} resolves differently"));
        }
    }
    fn ids(space: &[String]) -> impl Iterator<Item = (u32, &str)> {
        (0..).zip(space.iter().map(String::as_str))
    }
    if ids(&model.consts).any(|(i, n)| sy.const_name(Const(i)) != n)
        || ids(&model.vars).any(|(i, n)| sy.var_name(Var(i)) != n)
        || ids(&model.preds).any(|(i, n)| sy.pred_name(Pred(i)) != n)
    {
        return Err("an id names something else".to_owned());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Clones of a name table are independent, whatever the order of
    /// clones, interns and drops: each behaves as if it had been
    /// deep-copied when it was made.
    #[test]
    fn symbols_clones_are_independent(
        ops in proptest::collection::vec((0u8..8, 0u8..8, 0u8..10), 1..60),
    ) {
        let mut live: Vec<(Symbols, EagerSymbols)> = vec![Default::default()];
        for (kind, which, name) in ops {
            let k = which as usize % live.len();
            let name = format!("n{name}");
            let (sy, model) = &mut live[k];
            match kind {
                0 | 1 => {
                    let twin = (sy.clone(), model.clone());
                    live.push(twin);
                }
                2 => prop_assert_eq!(sy.constant(&name).0, model_intern(&mut model.consts, &name)),
                3 => prop_assert_eq!(sy.variable(&name).0, model_intern(&mut model.vars, &name)),
                4 => prop_assert_eq!(sy.predicate(&name).0, model_intern(&mut model.preds, &name)),
                5 => prop_assert_eq!(sy.fresh_variable(&name).0, model_fresh(&mut model.vars, &name)),
                6 => prop_assert_eq!(sy.fresh_predicate(&name).0, model_fresh(&mut model.preds, &name)),
                _ => {
                    if live.len() > 1 {
                        live.swap_remove(k);
                    }
                }
            }
            let mut universe: Vec<String> = live
                .iter()
                .flat_map(|(_, m)| m.consts.iter().chain(&m.vars).chain(&m.preds).cloned())
                .collect();
            universe.sort();
            universe.dedup();
            for (sy, model) in &live {
                let verdict = check_against(sy, model, &universe);
                prop_assert!(verdict.is_ok(), "{:?}", verdict);
            }
        }
    }
}

#[test]
fn apply_goal_repeated_vars_and_constants() {
    let mut p = parse_program("?- q(X).\nq(X) :- e(X).").unwrap();
    let e2 = p.symbols.predicate("pair");
    let x = p.symbols.variable("X");
    let c = p.symbols.constant("k");
    let mut rel = selprop_datalog::Relation::new(2);
    let c0 = Const(100);
    let c1 = Const(101);
    rel.insert(vec![c0, c0]);
    rel.insert(vec![c0, c1]);
    rel.insert(vec![c, c]);
    // goal pair(X, X): diagonal only
    let goal = selprop_datalog::Atom::new(
        e2,
        vec![
            selprop_datalog::Term::Var(x),
            selprop_datalog::Term::Var(x),
        ],
    );
    let out = apply_goal(&goal, &rel);
    assert_eq!(out.len(), 2);
    // goal pair(k, X): selection on first column
    let goal2 = selprop_datalog::Atom::new(
        e2,
        vec![
            selprop_datalog::Term::Const(c),
            selprop_datalog::Term::Var(x),
        ],
    );
    let out2 = apply_goal(&goal2, &rel);
    assert_eq!(out2.len(), 1);
}
