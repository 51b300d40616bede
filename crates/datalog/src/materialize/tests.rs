use super::*;
use crate::ast::{Const, Term, Var};
use crate::parser::parse_program;
use crate::persist::PersistError;
use crate::plan::{Step, NO_INDEX};
use crate::reference;
use crate::server::Server;

const SRC_A: &str = "?- anc(john, Y).\n\
                     anc(X, Y) :- par(X, Y).\n\
                     anc(X, Y) :- anc(X, Z), par(Z, Y).";

fn chain_edges(p: &mut Program, n: usize) -> Vec<Tuple> {
    let mut prev = p.symbols.constant("john");
    (1..=n)
        .map(|i| {
            let c = p.symbols.constant(&format!("c{i}"));
            let t = vec![prev, c];
            prev = c;
            t
        })
        .collect()
}

/// The from-scratch executable spec: reference engine on the mirror.
fn spec_idb(p: &Program, db: &Database) -> Vec<(Pred, Vec<Tuple>)> {
    reference::evaluate(p, db, Strategy::SemiNaive).idb.sorted_models()
}

/// One plan's shape: step order, the `(relation, index mask)` probed
/// per step, kernel flag. Index *ids* are left out on purpose: they
/// depend on registration order, which a restore legitimately
/// changes.
type PlanShape = (Vec<usize>, Vec<(usize, Vec<usize>)>, bool);

/// The shape of every compiled plan, per rule slot.
fn plan_shapes(m: &Materialization) -> Vec<Vec<PlanShape>> {
    let shape = |plan: &RulePlan| {
        let steps = plan
            .steps
            .iter()
            .map(|s| {
                let mask = if s.idx == crate::plan::NO_INDEX {
                    Vec::new()
                } else {
                    m.idxs[s.idx].mask().to_vec()
                };
                (s.rel, mask)
            })
            .collect();
        (plan.body_of_step.to_vec(), steps, plan.tc)
    };
    m.plans.iter().map(|plans| plans.iter().map(shape).collect()).collect()
}

/// Plans are static and a pure function of persisted state: a store
/// restored mid-stream compiles exactly the live store's plans (rule
/// adds included) and from then on does
/// bit-identical work — same row ids, same justifications, same
/// counters — through inserts, retracts, rule drops and adds, and
/// the compactions the policy triggers along the way.
#[test]
fn plans_survive_restore_and_churn() {
    let mut p = parse_program(
        "?- p(c, Y).\n\
         p(X, Y) :- b1(X, X1), b2(X1, Y).\n\
         p(X, Y) :- b1(X, X1), p(X1, Y1), b2(Y1, Y).",
    )
    .unwrap();
    let b1 = p.symbols.get_predicate("b1").unwrap();
    let b2 = p.symbols.get_predicate("b2").unwrap();
    let pp = p.symbols.get_predicate("p").unwrap();
    let b3 = p.symbols.predicate("b3");
    // A b1-chain of 6 from c into a b2-chain of 6, plus side pairs.
    let mut names = vec!["c".to_owned()];
    names.extend((1..=12).map(|i| format!("n{i}")));
    let node: Vec<Const> = names.iter().map(|n| p.symbols.constant(n)).collect();
    let side: Vec<(Const, Const)> = (0..40)
        .map(|i| {
            (
                p.symbols.constant(&format!("sa{i}")),
                p.symbols.constant(&format!("sb{i}")),
            )
        })
        .collect();
    let mut db = Database::new();
    for i in 0..6 {
        db.insert(b1, vec![node[i], node[i + 1]]);
        db.insert(b2, vec![node[6 + i], node[7 + i]]);
    }
    for &(a, b) in &side[..8] {
        db.insert(b1, vec![a, b]);
        db.insert(b2, vec![b, a]);
    }
    let pair = |r: UpdateRound, (a, b): (Const, Const), insert: bool| {
        if insert {
            r.insert(b1, vec![a, b]).insert(b2, vec![b, a])
        } else {
            r.retract(b1, vec![a, b]).retract(b2, vec![b, a])
        }
    };
    let xy = vec![Term::Var(Var(0)), Term::Var(Var(1))];
    let added = Rule {
        head: Atom { pred: pp, args: xy.clone() },
        body: vec![Atom { pred: b3, args: xy }],
    };
    let rounds: Vec<UpdateRound> = vec![
        // Irrelevant pairs in, the middle of the relevant chain out.
        side[8..24].iter().fold(UpdateRound::new(), |r, &s| pair(r, s, true)),
        UpdateRound::new().retract(b1, vec![node[3], node[4]]),
        // A rule over a brand-new EDB predicate, fed in the same round.
        UpdateRound::new()
            .add_rule(added)
            .insert(b3, vec![node[0], node[12]])
            .insert(b1, vec![node[3], node[4]]),
        // -- the snapshot is taken here --
        side[..20].iter().fold(UpdateRound::new(), |r, &s| pair(r, s, false)),
        side[24..40]
            .iter()
            .fold(UpdateRound::new().retract(b2, vec![node[8], node[9]]), |r, &s| {
                pair(r, s, true)
            }),
        UpdateRound::new().drop_rule(RuleId(0)),
        UpdateRound::new()
            .insert(b2, vec![node[8], node[9]])
            .insert(b3, vec![node[1], node[2]]),
    ];

    let mut live = Materialization::from_database(&p, &db, Strategy::SemiNaive);
    // Low enough that retracting the side pairs compacts the store.
    live.set_compaction_policy(Some(CompactionPolicy { min_dead_rows: 8, dead_percent: 20 }));
    for round in &rounds[..3] {
        live.apply(round);
    }
    let mut restored = Materialization::from_bytes(&live.to_bytes()).unwrap();
    assert_eq!(plan_shapes(&restored), plan_shapes(&live));
    // Every rule slot — the added one too — has one plan per body
    // atom, led by that atom.
    for (i, rule) in live.rules.iter().enumerate() {
        let leads: Vec<usize> = live.plans[i].iter().map(|pl| pl.body_of_step[0]).collect();
        assert_eq!(leads, (0..rule.body.len()).collect::<Vec<_>>());
    }
    for round in &rounds[3..] {
        assert_eq!(live.apply(round), restored.apply(round));
        for (a, b) in live.rels.iter().zip(&restored.rels) {
            assert_eq!(a.data(), b.data(), "row ids diverged");
        }
        assert_eq!(live.provenance(), restored.provenance());
        assert_eq!(live.stats(), restored.stats(), "restored store did different work");
        assert_eq!(plan_shapes(&restored), plan_shapes(&live));
    }
    assert!(live.compactions() > 0, "the stream was meant to cross the policy");
    assert_eq!(live.to_bytes(), restored.to_bytes());
    // And the stream ended where a from-scratch evaluation of the
    // edited program over the edited database does.
    let mut edited = p.clone();
    edited.rules.push(live.rules[2].clone());
    edited.rules.remove(0);
    let mut mirror = Database::new();
    for (pred, name) in [(b1, "b1"), (b2, "b2"), (b3, "b3")] {
        for row in live.database().relation(pred).expect(name).iter() {
            mirror.insert(pred, row.to_vec());
        }
    }
    assert_eq!(live.idb_database().sorted_models(), spec_idb(&edited, &mirror));
}

/// The (Δ, Δ) case. With one step order per delta position, "before
/// the delta reads full, after it reads old" has to mean *rule-text*
/// position: by step depth, both delta-first plans of
/// `anc(X,Z), anc(Z,Y)` would read the old part on the other side
/// and every combination of two new rows would be lost. Loading a
/// whole chain in one round makes every longer path exactly such a
/// combination.
#[test]
fn delta_delta_combinations_are_not_lost() {
    let mut p = parse_program(
        "?- anc(john, Y).\n\
         anc(X, Y) :- par(X, Y).\n\
         anc(X, Y) :- anc(X, Z), anc(Z, Y).",
    )
    .unwrap();
    let par = p.symbols.get_predicate("par").unwrap();
    let edges = chain_edges(&mut p, 9);
    let mut mirror = Database::new();
    for e in &edges {
        mirror.insert(par, e.clone());
    }
    let want = spec_idb(&p, &mirror);
    let run = |strategy: Strategy| {
        let mut m = Materialization::new(&p, strategy);
        m.apply(&UpdateRound::new().insert_all(par, &edges[..5]));
        m.apply(&UpdateRound::new().insert_all(par, &edges[5..]));
        m
    };
    let seq = run(Strategy::SemiNaive);
    assert_eq!(seq.idb_database().sorted_models(), want);
    assert_eq!(seq.answer().len(), 9);
    seq.provenance().check(&p).expect("valid");
    for threads in [2, 3] {
        let strategy = Strategy::SemiNaiveParallel { threads };
        let m = run(strategy);
        assert_eq!(m.idb_database().sorted_models(), want, "{strategy:?}");
        assert_eq!(m.provenance(), seq.provenance(), "{strategy:?}");
        assert_eq!(m.stats(), seq.stats(), "{strategy:?}");
    }
}

/// Provenance equality compares justification entries, not only rows:
/// two stores with the same rows, one `p` row justified through the
/// other rule in the second, compare unequal — though both
/// justifications are valid.
#[test]
fn provenances_with_one_different_justification_compare_unequal() {
    let mut p = parse_program("?- p(X).\np(X) :- a(X).\np(X) :- b(X).").unwrap();
    let [a, b] = ["a", "b"].map(|n| p.symbols.get_predicate(n).unwrap());
    let one = p.symbols.constant("one");
    let mut db = Database::new();
    db.insert(a, vec![one]);
    db.insert(b, vec![one]);
    let m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
    let mut other = m.clone();
    assert_eq!(other.provenance(), m.provenance(), "a clone's provenance is equal");
    // `p(one)` is row 0 of its relation, and `one` row 0 of `a` and `b`.
    let prel = other.rel_of_pred[&p.goal.pred] as usize;
    let just = &mut other.prov.as_mut().unwrap()[prel];
    let rule = just.entry(0).0;
    just.replace(0, 1 - rule, &[0]);

    let p_one = crate::derivation::GroundAtom { pred: p.goal.pred, args: vec![one] };
    let via = |m: &Materialization| m.provenance().justification(&p_one).unwrap().0;
    assert_eq!(via(&other), 1 - via(&m));
    other.provenance().check(&p).expect("the other rule derives p(one) too");
    assert_eq!(other.database().sorted_models(), m.database().sorted_models());
    assert_ne!(other.provenance(), m.provenance());
}

/// A new root over a chain closure derives one row per round: one
/// task, fewer than the workers a round may start, so it runs inline —
/// and still reproduces the sequential engine row id for row id.
#[test]
fn rounds_with_fewer_tasks_than_workers_match_sequential() {
    let mut p = parse_program(SRC_A).unwrap();
    let par = p.symbols.get_predicate("par").unwrap();
    let edges = chain_edges(&mut p, 24);
    let john = edges[0][0];
    let roots: Vec<Tuple> = (0..6).map(|i| vec![p.symbols.constant(&format!("r{i}")), john]).collect();
    let run = |strategy: Strategy| {
        let mut m = Materialization::new(&p, strategy);
        m.apply(&UpdateRound::new().insert_all(par, &edges));
        for root in &roots {
            m.apply(&UpdateRound::new().insert(par, root.clone()));
        }
        m
    };
    let (seq, par4) = (run(Strategy::SemiNaive), run(Strategy::SemiNaiveParallel { threads: 4 }));
    assert!(seq.stats().iterations > 6 * 24, "a round per link, per root");
    assert_eq!(par4.stats(), seq.stats());
    assert_eq!(par4.database().sorted_models(), seq.database().sorted_models());
    assert_eq!(par4.provenance(), seq.provenance());
}

#[test]
fn insert_resumes_instead_of_recomputing() {
    let mut p = parse_program(SRC_A).unwrap();
    let par = p.symbols.get_predicate("par").unwrap();
    let edges = chain_edges(&mut p, 6);
    let mut db = Database::new();
    for e in &edges[..3] {
        db.insert(par, e.clone());
    }
    let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
    assert_eq!(m.answer().len(), 3);
    let before = m.stats();

    // Absorb the rest of the chain one edge at a time, and total up
    // what a non-incremental system would pay: a full recompute
    // after every update.
    let mut mirror = db.clone();
    let mut recompute_work = 0u64;
    for e in &edges[3..] {
        assert_eq!(m.apply(&UpdateRound::new().insert(par, e.clone())).inserted, 1);
        mirror.insert(par, e.clone());
        assert_eq!(m.idb_database().sorted_models(), spec_idb(&p, &mirror));
        recompute_work += crate::eval::evaluate(&p, &mirror, Strategy::SemiNaive)
            .stats
            .work();
    }
    assert_eq!(m.answer().len(), 6);
    // The updates resumed from the fixpoint instead of recomputing.
    let update_work = m.stats().work() - before.work();
    assert!(
        update_work < recompute_work,
        "update cost {update_work} should undercut per-update recomputes {recompute_work}"
    );
    // Duplicate inserts are no-ops.
    assert_eq!(m.apply(&UpdateRound::new().insert_all(par, &edges)).inserted, 0);
    m.provenance().check(&p).expect("justifications stay valid");
}

#[test]
fn insert_on_idb_or_unknown_predicates_is_a_noop() {
    let mut p = parse_program(SRC_A).unwrap();
    let par = p.symbols.get_predicate("par").unwrap();
    let anc = p.symbols.get_predicate("anc").unwrap();
    let stranger = p.symbols.predicate("unrelated");
    let a = p.symbols.constant("a");
    let b = p.symbols.constant("b");
    let mut m = Materialization::new(&p, Strategy::SemiNaive);
    assert_eq!(
        m.apply(&UpdateRound::new().insert(anc, vec![a, b])).inserted,
        0,
        "IDB facts ignored"
    );
    assert_eq!(
        m.apply(&UpdateRound::new().insert(stranger, vec![a, b])).inserted,
        0,
        "untracked pred"
    );
    assert_eq!(m.apply(&UpdateRound::new().retract(anc, vec![a, b])).retracted, 0);
    assert_eq!(m.apply(&UpdateRound::new().retract(stranger, vec![a, b])).retracted, 0);
    assert_eq!(m.num_facts(anc), 0);
    assert_eq!(m.apply(&UpdateRound::new().insert(par, vec![a, b])).inserted, 1);
    assert_eq!(m.num_facts(anc), 1);
    assert_eq!(m.num_facts(par), 1);
}

#[test]
fn retract_cascades_through_derived_facts() {
    let mut p = parse_program(SRC_A).unwrap();
    let par = p.symbols.get_predicate("par").unwrap();
    let edges = chain_edges(&mut p, 5);
    let mut db = Database::new();
    for e in &edges {
        db.insert(par, e.clone());
    }
    let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
    assert_eq!(m.answer().len(), 5);
    // Cut the chain in the middle: everything past c2 is gone.
    assert_eq!(m.apply(&UpdateRound::new().retract(par, edges[2].clone())).retracted, 1);
    let mut mirror = db.clone();
    mirror.remove(par, &edges[2]);
    assert_eq!(m.idb_database().sorted_models(), spec_idb(&p, &mirror));
    assert_eq!(m.answer().len(), 2);
    m.provenance().check(&p).expect("surviving justifications valid");
    // Retracting an absent fact is a no-op.
    assert_eq!(m.apply(&UpdateRound::new().retract(par, edges[2].clone())).retracted, 0);
}

#[test]
fn retract_rescues_facts_with_alternative_derivations() {
    // The classic DRed diamond: p(a) holds via e(a) AND via f(a).
    // Its recorded justification uses e(a); retracting e(a) must
    // over-delete p(a) and then rescue it through f(a), with the
    // new justification recorded.
    let mut p = parse_program(
        "?- p(Y).\n\
         p(X) :- e(X).\n\
         p(X) :- f(X).\n\
         q(X) :- p(X), g(X).",
    )
    .unwrap();
    let e = p.symbols.get_predicate("e").unwrap();
    let f = p.symbols.get_predicate("f").unwrap();
    let g = p.symbols.get_predicate("g").unwrap();
    let pp = p.symbols.get_predicate("p").unwrap();
    let q = p.symbols.get_predicate("q").unwrap();
    let a = p.symbols.constant("a");
    let mut db = Database::new();
    db.insert(e, vec![a]);
    db.insert(f, vec![a]);
    db.insert(g, vec![a]);
    let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
    let prov = m.provenance();
    let pa = crate::derivation::GroundAtom { pred: pp, args: vec![a] };
    assert_eq!(prov.justification(&pa).map(|(r, _)| r), Some(0), "via e");

    assert_eq!(m.apply(&UpdateRound::new().retract(e, vec![a])).retracted, 1);
    let mut mirror = db.clone();
    mirror.remove(e, &[a]);
    assert_eq!(m.idb_database().sorted_models(), spec_idb(&p, &mirror));
    let idb = m.idb_database();
    assert!(idb.relation(pp).unwrap().contains(&[a]), "p(a) rescued");
    assert!(idb.relation(q).unwrap().contains(&[a]), "q(a) survives too");
    let prov = m.provenance();
    prov.check(&p).expect("rescued justification is valid");
    assert_eq!(prov.justification(&pa).map(|(r, _)| r), Some(1), "now via f");

    // Retract the second support: now everything goes.
    assert_eq!(m.apply(&UpdateRound::new().retract(f, vec![a])).retracted, 1);
    mirror.remove(f, &[a]);
    assert_eq!(m.idb_database().sorted_models(), spec_idb(&p, &mirror));
    assert_eq!(m.num_facts(pp), 0);
    assert_eq!(m.num_facts(q), 0);
}

#[test]
fn insert_then_retract_restores_the_store() {
    let mut p = parse_program(SRC_A).unwrap();
    let par = p.symbols.get_predicate("par").unwrap();
    let edges = chain_edges(&mut p, 8);
    let mut db = Database::new();
    for e in &edges[..4] {
        db.insert(par, e.clone());
    }
    let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
    let snapshot = m.database().sorted_models();
    m.apply(&UpdateRound::new().insert_all(par, &edges[4..]));
    assert_ne!(m.database().sorted_models(), snapshot);
    m.apply(&UpdateRound::new().retract_all(par, &edges[4..]));
    assert_eq!(
        m.database().sorted_models(),
        snapshot,
        "retracting the inserted rows restores the pre-insert store"
    );
    m.provenance().check(&p).expect("valid after the round trip");
}

#[test]
fn update_sequences_are_strategy_independent() {
    // The same op sequence under every strategy yields the same
    // store — and, because shards merge in sequential order, the
    // same provenance bit-for-bit.
    let mut p = parse_program(SRC_A).unwrap();
    let par = p.symbols.get_predicate("par").unwrap();
    let edges = chain_edges(&mut p, 9);
    let mut db = Database::new();
    for e in &edges[..5] {
        db.insert(par, e.clone());
    }
    let run = |strategy: Strategy| {
        let mut m = Materialization::from_database(&p, &db, strategy);
        m.apply(&UpdateRound::new().insert_all(par, &edges[5..]));
        m.apply(&UpdateRound::new().retract_all(par, &edges[2..4]));
        m.apply(&UpdateRound::new().insert_all(par, &edges[2..3]));
        m
    };
    let seq = run(Strategy::SemiNaive);
    let seq_model = seq.database().sorted_models();
    let seq_prov = seq.provenance();
    for threads in [2, 3, 4] {
        let strategy = Strategy::SemiNaiveParallel { threads };
        let m = run(strategy);
        assert_eq!(m.database().sorted_models(), seq_model, "{strategy:?}");
        m.provenance().check(&p).expect("valid under every strategy");
        assert_eq!(m.provenance(), seq_prov, "{strategy:?}: provenance thread/shard independent");
        assert_eq!(m.stats(), seq.stats(), "{strategy:?} counters");
    }
}

#[test]
fn batch_wrappers_are_the_materialization_special_case() {
    let mut p = parse_program(SRC_A).unwrap();
    let par = p.symbols.get_predicate("par").unwrap();
    let edges = chain_edges(&mut p, 7);
    let mut db = Database::new();
    for e in &edges {
        db.insert(par, e.clone());
    }
    let wrapped = crate::eval::evaluate(&p, &db, Strategy::SemiNaive);
    let m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
    assert_eq!(m.stats(), wrapped.stats, "recording changes no counter");
    assert_eq!(m.idb_database().sorted_models(), wrapped.idb.sorted_models());
    let (ans, _) = crate::eval::answer(&p, &db, Strategy::SemiNaive);
    assert_eq!(m.answer().sorted(), ans.sorted());
}

/// The reverse-dependency index is built with the store: a build's
/// merges append its edges, and a restore rebuilds the same index from
/// the justifications, so the first retract round costs the same on a
/// restored store as on the original and leaves the same state.
/// `rev_words` is the index alone.
#[test]
fn a_store_carries_its_reverse_index_from_construction() {
    let mut p = parse_program(SRC_A).unwrap();
    let par = p.symbols.get_predicate("par").unwrap();
    let edges = chain_edges(&mut p, 10);
    let mut db = Database::new();
    for e in &edges {
        db.insert(par, e.clone());
    }
    let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
    let words = m.mem_stats().rev_words;
    assert!(words > 0, "a build appends reverse edges");
    assert_eq!(words, m.rev.footprint_words());
    let mut restored = Materialization::from_bytes(&m.to_bytes()).unwrap();
    assert_eq!(restored.mem_stats().rev_words, words, "a restore rebuilds the same index");

    let round = UpdateRound::new().retract_all(par, &edges[6..]).drop_rule(RuleId(1));
    let first_round = |m: &mut Materialization| {
        let (reads, probes) = (m.dred_reads(), m.stats().join_probes);
        m.apply(&round);
        (m.dred_reads() - reads, m.stats().join_probes - probes)
    };
    let (reads, probes) = first_round(&mut m);
    assert!(reads > 0, "the round over-deletes");
    assert_eq!(first_round(&mut restored), (reads, probes));
    assert_eq!(restored.database().sorted_models(), m.database().sorted_models());
    assert_eq!(restored.to_bytes(), m.to_bytes());
}

/// Rows that support only each other die together. `p(a)` is recorded
/// through `e(a)` and the row `r(a)` through `p(a)`; once `e(a)` goes,
/// `r(a)` still derives `p(a)`, but `r(a)` does not rank below `p(a)`,
/// and the deletion walk refuses a derivation through such a row: `p(a)`
/// dies, and `r(a)` with it. `r` is `q`, another relation of `p`'s
/// component of the rule graph, and `p` itself, swapped (`p(b, a)`, a
/// higher row id); both also on a restored store. Every store is
/// checked against the specification and its provenance.
#[test]
fn rows_that_support_only_each_other_die_together() {
    let cases = [
        "?- p(X).\np(X) :- e(X).\np(X) :- q(X).\nq(X) :- p(X).",
        "?- p(X, Y).\np(X, Y) :- e(X, Y).\np(X, Y) :- p(Y, X).",
    ];
    for src in cases {
        let mut p = parse_program(src).unwrap();
        let e = p.symbols.get_predicate("e").unwrap();
        let arity = p.rules[0].body[0].arity();
        let [a, b, c] = ["a", "b", "c"].map(|n| p.symbols.constant(n));
        let (gone, kept) = ([a, b][..arity].to_vec(), [c, b][..arity].to_vec());
        let mut db = Database::new();
        db.insert(e, gone.clone());
        db.insert(e, kept);
        let m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
        let restored = Materialization::from_bytes(&m.to_bytes()).unwrap();
        let mut mirror = db.clone();
        mirror.remove(e, &gone);
        for mut m in [m, restored] {
            let before = m.idb_database().sorted_models();
            assert_eq!(m.apply(&UpdateRound::new().retract(e, gone.clone())).retracted, 1);
            let after = m.idb_database().sorted_models();
            assert_eq!(after, spec_idb(&p, &mirror), "{src}");
            assert_ne!(after, before, "{src}: two rows went");
            m.provenance().check(&p).unwrap_or_else(|e| panic!("{src}: {e}"));
        }
    }
}

/// `h(X) :- b(X). h(X) :- g(X). b(X) :- e(X).`, and `b(X) :- h(X),
/// k(X)` or `b(X) :- h(X)` for a later rule add, over one constant `a`.
const SRC_AGE: &str =
    "?- h(X).\nh(X) :- b(X).\nh(X) :- g(X).\nb(X) :- e(X).\nb(X) :- h(X), k(X).\nb(X) :- h(X).";

/// The store of [`SRC_AGE`]'s first three rules after `g(a)`, then
/// `e(a)`, then the retraction of `g(a)`, with its program, the database
/// it holds and `a`. `h(a)` is recorded through `g(a)` and derived
/// again, through the newer row `b(a)`, when `e(a)` arrives.
fn saved_through_a_newer_row() -> (Program, Materialization, Database, Const) {
    let mut p = parse_program(SRC_AGE).unwrap();
    let [g, e] = ["g", "e"].map(|n| p.symbols.get_predicate(n).unwrap());
    let a = p.symbols.constant("a");
    let mut first = p.clone();
    first.rules.truncate(3);
    let mut m = Materialization::new(&first, Strategy::SemiNaive);
    m.apply(&UpdateRound::new().insert(g, vec![a]));
    m.apply(&UpdateRound::new().insert(e, vec![a]));
    assert_eq!(m.apply(&UpdateRound::new().retract(g, vec![a])).retracted, 1);
    let mut db = Database::new();
    db.insert(e, vec![a]);
    assert_eq!(m.idb_database().sorted_models(), spec_idb(&first, &db));
    m.provenance().check(&first).expect("valid after the retraction");
    (p, m, db, a)
}

/// In [`saved_through_a_newer_row`], `b` is in a lower component of the
/// rule graph than `h`, so the retraction of `g(a)` saves `h(a)` through
/// `b(a)` in place: same row id, nothing appended. A restored copy of
/// that store then retracts `e(a)` exactly as the live one does.
#[test]
fn a_row_saved_through_a_newer_row_of_a_lower_component_keeps_its_id() {
    let (p, mut m, _, a) = saved_through_a_newer_row();
    let [h, e] = ["h", "e"].map(|n| p.symbols.get_predicate(n).unwrap());
    let hrel = m.rel_of_pred[&h] as usize;
    assert!(m.rels[hrel].is_live(0), "h(a) keeps its row id");
    assert_eq!(m.rels[hrel].num_rows(), 1, "and nothing is appended");
    let mut restored = Materialization::from_bytes(&m.to_bytes()).unwrap();
    for m in [&mut m, &mut restored] {
        assert_eq!(m.apply(&UpdateRound::new().retract(e, vec![a])).retracted, 1);
        assert!(m.idb_database().sorted_models().iter().all(|(_, rows)| rows.is_empty()));
    }
    assert_eq!(restored.to_bytes(), m.to_bytes());
}

/// A rule add that merges two components: after
/// [`saved_through_a_newer_row`], `b(X) :- h(X), k(X)` puts `h` and `b`
/// in one component, and `k(a)` derives `b(a)` again through `h(a)`,
/// which is recorded through `b(a)`. Retracting `e(a)` must not save
/// `b(a)` through `h(a)`: the two would support only each other. Then
/// `k(a)` goes too. `b(X) :- h(X)` is the same add with a derivation as
/// long as `b(a)`'s recorded one, which only the age test refuses (`k`
/// is then untracked and its rounds change nothing). The model equals
/// the specification's every round.
#[test]
fn a_rule_add_that_merges_components_saves_no_cycle() {
    for added in [3, 4] {
        let (p, mut m, mut db, a) = saved_through_a_newer_row();
        let [e, k] = ["e", "k"].map(|n| p.symbols.get_predicate(n).unwrap());
        let mut prog = p.clone();
        prog.rules = [&p.rules[..3], &p.rules[added..=added]].concat();
        m.apply(&UpdateRound::new().add_rule(p.rules[added].clone()));
        assert_eq!(m.idb_database().sorted_models(), spec_idb(&prog, &db));
        let rounds = [
            UpdateRound::new().insert(k, vec![a]),
            UpdateRound::new().retract(e, vec![a]),
            UpdateRound::new().retract(k, vec![a]),
        ];
        for round in &rounds {
            m.apply(round);
            for (pred, t) in &round.inserts {
                db.insert(*pred, t.clone());
            }
            for (pred, t) in &round.retracts {
                db.remove(*pred, t);
            }
            assert_eq!(m.idb_database().sorted_models(), spec_idb(&prog, &db), "rule {added}");
            m.provenance().check(&prog).expect("valid after every round");
        }
    }
}

#[test]
fn batched_mixed_round_matches_sequential_calls() {
    let mut p = parse_program(SRC_A).unwrap();
    let par = p.symbols.get_predicate("par").unwrap();
    let edges = chain_edges(&mut p, 10);
    let mut db = Database::new();
    for e in &edges[..6] {
        db.insert(par, e.clone());
    }
    let mut batched = Materialization::from_database(&p, &db, Strategy::SemiNaive);
    let report = batched.apply(
        &UpdateRound::new()
            .retract_all(par, &edges[2..4])
            .insert_all(par, &edges[6..]),
    );
    assert_eq!(report.inserted, 4);
    assert_eq!(report.retracted, 2);

    let mut sequential = Materialization::from_database(&p, &db, Strategy::SemiNaive);
    for e in &edges[6..] {
        sequential.apply(&UpdateRound::new().insert(par, e.clone()));
    }
    for e in &edges[2..4] {
        sequential.apply(&UpdateRound::new().retract(par, e.clone()));
    }
    assert_eq!(
        batched.database().sorted_models(),
        sequential.database().sorted_models(),
        "one mixed round ≡ any order of the single-fact calls"
    );
    // And both match the from-scratch spec of the edited database.
    let mut mirror = db.clone();
    for e in &edges[6..] {
        mirror.insert(par, e.clone());
    }
    for e in &edges[2..4] {
        mirror.remove(par, e);
    }
    assert_eq!(batched.idb_database().sorted_models(), spec_idb(&p, &mirror));
    batched.provenance().check(&p).expect("valid after a mixed round");
}

#[test]
fn drop_rule_overdeletes_and_rescues_via_surviving_rules() {
    // The DRed diamond again, but cutting a *rule* instead of a
    // fact: p(a) is justified via rule 0 (p :- e); dropping rule 0
    // must rescue p(a) through rule 1 (p :- f) and keep q(a).
    let mut p = parse_program(
        "?- p(Y).\n\
         p(X) :- e(X).\n\
         p(X) :- f(X).\n\
         q(X) :- p(X), g(X).",
    )
    .unwrap();
    let e = p.symbols.get_predicate("e").unwrap();
    let f = p.symbols.get_predicate("f").unwrap();
    let g = p.symbols.get_predicate("g").unwrap();
    let pp = p.symbols.get_predicate("p").unwrap();
    let q = p.symbols.get_predicate("q").unwrap();
    let a = p.symbols.constant("a");
    let mut db = Database::new();
    db.insert(e, vec![a]);
    db.insert(f, vec![a]);
    db.insert(g, vec![a]);
    let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
    assert!(m.is_rule_active(RuleId(0)));

    assert_eq!(m.apply(&UpdateRound::new().drop_rule(RuleId(0))).rules_dropped, 1);
    assert!(!m.is_rule_active(RuleId(0)));
    assert_eq!(
        m.apply(&UpdateRound::new().drop_rule(RuleId(0))).rules_dropped,
        0,
        "double drop is a no-op"
    );
    assert_eq!(m.num_facts(pp), 1, "p(a) rescued via rule 1");
    assert_eq!(m.num_facts(q), 1, "q(a) survives");
    let prov = m.provenance();
    // Check against the full original program: rule slots align.
    prov.check(&p).expect("rescued justification valid");
    let pa = crate::derivation::GroundAtom { pred: pp, args: vec![a] };
    assert_eq!(prov.justification(&pa).map(|(r, _)| r), Some(1), "via f now");

    // The edited program is the spec: dropping the last support of
    // p kills everything derived.
    assert_eq!(m.apply(&UpdateRound::new().drop_rule(RuleId(1))).rules_dropped, 1);
    assert_eq!(m.num_facts(pp), 0);
    assert_eq!(m.num_facts(q), 0);
    // e/f/g facts are untouched.
    assert_eq!(m.num_facts(e), 1);
}

#[test]
fn add_rule_seeds_from_existing_rows() {
    let mut p = parse_program(SRC_A).unwrap();
    let par = p.symbols.get_predicate("par").unwrap();
    let anc = p.symbols.get_predicate("anc").unwrap();
    let edges = chain_edges(&mut p, 5);
    let mut db = Database::new();
    for e in &edges {
        db.insert(par, e.clone());
    }
    let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
    assert_eq!(m.rule_shape().0, 2);

    // Hot-add: sib(X, Y) :- par(Z, X), par(Z, Y) over a new IDB.
    let extra = parse_program(
        "?- sib(X, Y).\n\
         sib(X, Y) :- par(Z, X), par(Z, Y).",
    )
    .unwrap();
    // Predicate/constant ids are interned per-Symbols; rebuild the
    // rule against p's symbol table for a like-for-like comparison.
    let mut p_plus = p.clone();
    let sib = p_plus.symbols.predicate("sib");
    let rule = {
        let mut r = extra.rules[0].clone();
        r.head.pred = sib;
        for (a, src) in r.body.iter_mut().zip(&extra.rules[0].body) {
            assert_eq!(extra.symbols.pred_name(src.pred), "par");
            a.pred = par;
        }
        r
    };
    p_plus.rules.push(rule.clone());

    let id = m.apply(&UpdateRound::new().add_rule(rule)).first_rule;
    assert_eq!(id, RuleId(2));
    assert!(m.is_rule_active(id));
    assert_eq!(m.active_rules().len(), 3);
    // Chain graph: each parent has one child, so sib is the diagonal.
    assert_eq!(m.num_facts(sib), 5, "seeded from the existing rows");
    assert_eq!(
        m.idb_database().sorted_models(),
        spec_idb(&p_plus, &{
            let mut mirror = Database::new();
            for e in &edges {
                mirror.insert(par, e.clone());
            }
            mirror
        }),
        "incrementally seeded ≡ from-scratch on the edited program"
    );
    m.provenance().check(&p_plus).expect("seeded justifications valid");

    // New facts keep flowing through the added rule.
    let john = p.symbols.get_constant("john").unwrap();
    let x = p_plus.symbols.constant("x");
    m.apply(&UpdateRound::new().insert(par, vec![john, x]));
    assert_eq!(m.num_facts(sib), 5 + 3, "sib(c1,x), sib(x,c1) and sib(x,x)");
    let _ = anc;
}

#[test]
#[should_panic(expected = "head must not be a stored EDB relation")]
fn add_rule_rejects_edb_heads() {
    let p = parse_program(SRC_A).unwrap();
    let mut m = Materialization::new(&p, Strategy::SemiNaive);
    // par is a stored EDB relation: deriving into it would break the
    // fixed IDB/EDB partition. par(X, Y) :- anc(X, Y).
    let par = p.symbols.get_predicate("par").unwrap();
    let anc = p.symbols.get_predicate("anc").unwrap();
    let args = vec![Term::Var(Var(0)), Term::Var(Var(1))];
    m.apply(&UpdateRound::new().add_rule(Rule {
        head: Atom { pred: par, args: args.clone() },
        body: vec![Atom { pred: anc, args }],
    }));
}

#[test]
fn a_malformed_round_panics_before_the_first_mutation() {
    let mut p = parse_program(SRC_A).unwrap();
    let par = p.symbols.get_predicate("par").unwrap();
    let anc = p.symbols.get_predicate("anc").unwrap();
    let q = p.symbols.predicate("q");
    let edges = chain_edges(&mut p, 4);
    let mut m = Materialization::new(&p, Strategy::SemiNaive);
    m.apply(&UpdateRound::new().insert_all(par, &edges));
    m.apply(&UpdateRound::new().retract_all(par, &edges[3..])); // the rescue plans are compiled

    let [x, y, z] = [0, 1, 2].map(|v| Term::Var(Var(v)));
    let atom = |pred, args: &[Term]| Atom::new(pred, args.to_vec());
    let rule = |head, body| UpdateRound::new().add_rule(Rule::new(head, body));
    let john = edges[0][0];
    let bad_rounds = [
        // Each used to drop the rule, and the first to over-delete, first.
        UpdateRound::new()
            .drop_rule(RuleId(1))
            .retract(par, edges[1].clone())
            .insert(par, vec![john]),
        UpdateRound::new().drop_rule(RuleId(1)).retract(par, vec![john]),
        rule(atom(anc, &[x, y]), vec![atom(par, &[x, y, y])]).drop_rule(RuleId(1)),
        rule(atom(anc, &[x, y]), vec![atom(q, &[x, y]), atom(q, &[x])]),
        rule(atom(anc, &[x, z]), vec![atom(par, &[x, y])]),
        // The second rule's head is the first one's fresh EDB relation.
        rule(atom(anc, &[x, y]), vec![atom(q, &[x, y])])
            .add_rule(Rule::new(atom(q, &[x, y]), vec![atom(par, &[x, y])])),
        rule(atom(anc, &[x, x]), vec![atom(q, &[x])]).retract(q, vec![john, john]),
    ];
    let seen = |m: &Materialization| {
        let rules: Vec<RuleId> = m.active_rules().iter().map(|&(id, _)| id).collect();
        (m.database().sorted_models(), rules, m.rule_shape().0, m.version(), m.stats())
    };
    for (i, round) in bad_rounds.iter().enumerate() {
        let before = seen(&m);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.apply(round)));
        assert!(outcome.is_err(), "round {i} must panic");
        assert_eq!(seen(&m), before, "round {i} left a mark on the store");
    }

    // Facts of untracked and IDB predicates are skipped, whatever their length.
    let skipped = UpdateRound::new().insert(q, vec![john]).insert(anc, vec![john]);
    let nothing = RoundReport { first_rule: RuleId(2), ..RoundReport::default() };
    assert_eq!(m.apply(&skipped), nothing, "no fact counted, no rule slot taken");
    // And the store still takes a well-formed round.
    assert_eq!(m.apply(&UpdateRound::new().insert_all(par, &edges[3..])).inserted, 1);
    assert_eq!(m.num_facts(anc), 10, "the closure of the 4-chain");
}

#[test]
fn apply_round_with_new_predicates_tracks_them() {
    // An added rule may introduce brand-new body predicates; the
    // same round can already insert facts for them.
    let mut p = parse_program(SRC_A).unwrap();
    let par = p.symbols.get_predicate("par").unwrap();
    let edges = chain_edges(&mut p, 3);
    let mut db = Database::new();
    for e in &edges {
        db.insert(par, e.clone());
    }
    let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);

    let mut p_plus = p.clone();
    let anc = p_plus.symbols.get_predicate("anc").unwrap();
    let step = p_plus.symbols.predicate("step");
    let rule = Rule {
        head: Atom {
            pred: anc,
            args: vec![Term::Var(Var(90)), Term::Var(Var(91))],
        },
        body: vec![Atom {
            pred: step,
            args: vec![Term::Var(Var(90)), Term::Var(Var(91))],
        }],
    };
    p_plus.rules.push(rule.clone());
    let a = p_plus.symbols.constant("zz1");
    let b = p_plus.symbols.constant("zz2");
    let report = m.apply(
        &UpdateRound::new()
            .add_rule(rule)
            .insert(step, vec![a, b]),
    );
    assert_eq!(report.rules_added, 1);
    assert_eq!(report.inserted, 1, "the new EDB predicate is tracked");
    let mut mirror = db.clone();
    mirror.insert(step, vec![a, b]);
    assert_eq!(m.idb_database().sorted_models(), spec_idb(&p_plus, &mirror));
    m.provenance().check(&p_plus).expect("valid");
}

#[test]
fn empty_materialization_fires_seed_rules() {
    // Magic-style seed rules (empty body) fire during the initial
    // fixpoint of an empty materialization; stream inserts build on
    // them.
    let mut p = parse_program(
        "?- reach(Y).\n\
         seed(c).\n\
         reach(Y) :- seed(X), e(X, Y).\n\
         reach(Y) :- reach(X), e(X, Y).",
    )
    .unwrap();
    let e = p.symbols.get_predicate("e").unwrap();
    let seed = p.symbols.get_predicate("seed").unwrap();
    let c = p.symbols.get_constant("c").unwrap();
    let d = p.symbols.constant("d");
    let mut m = Materialization::new(&p, Strategy::SemiNaive);
    assert_eq!(m.num_facts(seed), 1, "seed(c) fired on the empty store");
    assert_eq!(m.apply(&UpdateRound::new().insert(e, vec![c, d])).inserted, 1);
    assert_eq!(m.answer().len(), 1);
    m.provenance().check(&p).expect("valid");
}

// -----------------------------------------------------------------
// Compaction
// -----------------------------------------------------------------

#[test]
fn compact_preserves_model_provenance_and_update_behavior() {
    let mut p = parse_program(SRC_A).unwrap();
    let par = p.symbols.get_predicate("par").unwrap();
    let edges = chain_edges(&mut p, 12);
    let mut db = Database::new();
    for e in &edges {
        db.insert(par, e.clone());
    }
    let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
    m.set_compaction_policy(None); // manual compaction for this test

    // Churn: cut the chain tail, then reattach a shorter one.
    m.apply(&UpdateRound::new().retract_all(par, &edges[8..]));
    let mut mirror = db.clone();
    for e in &edges[8..] {
        mirror.remove(par, e);
    }
    assert_eq!(m.idb_database().sorted_models(), spec_idb(&p, &mirror));

    let stats_before = m.stats();
    let mem_before = m.mem_stats();
    assert!(mem_before.total_rows > mem_before.live_rows, "churn left tombstones");

    let reclaimed = m.compact();
    assert!(reclaimed > 0);
    assert_eq!(m.compactions(), 1);
    let mem_after = m.mem_stats();
    assert_eq!(mem_after.total_rows, mem_after.live_rows, "no dead rows survive");
    assert!(mem_after.total_words() < mem_before.total_words());

    // Results, counters and provenance are untouched.
    assert_eq!(m.stats(), stats_before, "compaction does no evaluation work");
    assert_eq!(m.idb_database().sorted_models(), spec_idb(&p, &mirror));
    m.provenance().check(&p).expect("remapped justifications stay valid");

    // A second compact is a no-op.
    assert_eq!(m.compact(), 0);
    assert_eq!(m.compactions(), 1);

    // Updates keep working against the renumbered store: retract
    // deeper (exercising the rebuilt reverse index), then insert.
    m.apply(&UpdateRound::new().retract_all(par, &edges[4..8]));
    for e in &edges[4..8] {
        mirror.remove(par, e);
    }
    assert_eq!(m.apply(&UpdateRound::new().insert_all(par, &edges[4..6])).inserted, 2);
    for e in &edges[4..6] {
        mirror.insert(par, e.clone());
    }
    assert_eq!(m.idb_database().sorted_models(), spec_idb(&p, &mirror));
    m.provenance().check(&p).expect("post-compact churn provenance valid");
}

#[test]
fn policy_triggers_automatic_compaction() {
    let mut p = parse_program(SRC_A).unwrap();
    let par = p.symbols.get_predicate("par").unwrap();
    let edges = chain_edges(&mut p, 40);
    let mut db = Database::new();
    for e in &edges {
        db.insert(par, e.clone());
    }
    let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
    m.set_compaction_policy(Some(CompactionPolicy {
        min_dead_rows: 8,
        dead_percent: 10,
    }));
    // Cutting the chain at edge 20 tombstones half the closure: far
    // past the 10% threshold, so the apply round compacts itself.
    m.apply(&UpdateRound::new().retract(par, edges[20].clone()));
    assert!(m.compactions() >= 1, "policy breach compacts automatically");
    let mem = m.mem_stats();
    assert_eq!(mem.total_rows, mem.live_rows);

    let mut mirror = db.clone();
    mirror.remove(par, &edges[20]);
    assert_eq!(m.idb_database().sorted_models(), spec_idb(&p, &mirror));
}

#[test]
fn retract_is_a_counted_no_op_on_absent_and_double_retracts() {
    let mut p = parse_program(SRC_A).unwrap();
    let par = p.symbols.get_predicate("par").unwrap();
    let edges = chain_edges(&mut p, 6);
    let never = {
        let x = p.symbols.constant("x");
        let y = p.symbols.constant("y");
        vec![x, y]
    };
    let mut db = Database::new();
    for e in &edges {
        db.insert(par, e.clone());
    }
    let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
    let baseline = m.database().sorted_models();

    // Never-inserted fact: count 0, store untouched.
    assert_eq!(m.apply(&UpdateRound::new().retract(par, never)).retracted, 0);
    assert_eq!(m.database().sorted_models(), baseline);

    // Real retract counts once; the immediate double-retract counts 0.
    assert_eq!(m.apply(&UpdateRound::new().retract(par, edges[5].clone())).retracted, 1);
    assert_eq!(m.apply(&UpdateRound::new().retract(par, edges[5].clone())).retracted, 0);
    let mut mirror = db.clone();
    mirror.remove(par, &edges[5]);
    assert_eq!(m.idb_database().sorted_models(), spec_idb(&p, &mirror));

    // Retract-after-compact: the row is gone entirely, still a
    // clean counted no-op.
    assert!(m.compact() > 0);
    assert_eq!(m.apply(&UpdateRound::new().retract(par, edges[5].clone())).retracted, 0);
    // And a mixed round counts only the rows actually removed.
    let r = m.apply(&UpdateRound::new().retract_all(par, &edges[3..6]));
    assert_eq!(r.retracted, 2, "edges[5] is already gone");
    m.provenance().check(&p).expect("valid after no-op retracts");
}

// -----------------------------------------------------------------
// Rescue plans
// -----------------------------------------------------------------

const SRC_B: &str = "?- anc(john, Y).\n\
                     anc(X, Y) :- par(X, Y).\n\
                     anc(X, Y) :- par(X, Z), anc(Z, Y).";
const SRC_C: &str = "?- anc(john, Y).\n\
                     anc(X, Y) :- par(X, Y).\n\
                     anc(X, Y) :- anc(X, Z), anc(Z, Y).";
const SRC_S7: &str = "?- p(john, Y).\n\
                      p(X, Y) :- b1(X, X1), b2(X1, Y).\n\
                      p(X, Y) :- b1(X, X1), p(X1, Y1), b2(Y1, Y).";
/// Program A's magic program, the magic predicate derived so that
/// it is an IDB like a view's.
const SRC_MAGIC_A: &str = "?- anc_bf(john, Y).\n\
                           m(X) :- seed(X).\n\
                           anc_bf(X, Y) :- m(X), par(X, Y).\n\
                           anc_bf(X, Y) :- m(X), anc_bf(X, Z), par(Z, Y).";

/// One rescue plan's shape: the body atom run at each step, and per
/// step the mask of the index it probes — empty for an unkeyed step (a
/// scan), `None` for a step answered by the dedup table.
type RescueShape = (Vec<usize>, Vec<Option<Vec<usize>>>);

fn rescue_shapes(m: &Materialization) -> Vec<RescueShape> {
    let mask_of = |s: &Step| match s.idx {
        NO_INDEX if s.key.is_empty() => Some(Vec::new()),
        NO_INDEX => None,
        idx => Some(m.idxs[idx].mask().to_vec()),
    };
    let plans = m.rederive.iter();
    plans.map(|p| (p.body_of_step.to_vec(), p.steps.iter().map(mask_of).collect())).collect()
}

/// The complete DAG on `john, n1, .. n4` under every binary EDB
/// predicate of `p` (and `john` under a unary one): every derived
/// tuple has several derivations, so retractions rescue.
fn dense_db(p: &mut Program) -> Database {
    let mut names = vec!["john".to_owned()];
    names.extend((1..5).map(|i| format!("n{i}")));
    let node: Vec<Const> = names.iter().map(|n| p.symbols.constant(n)).collect();
    let arities: FxHashMap<Pred, usize> = p
        .rules
        .iter()
        .flat_map(|r| &r.body)
        .map(|a| (a.pred, a.arity()))
        .collect();
    let mut db = Database::new();
    for pred in p.edb_predicates() {
        if arities[&pred] == 1 {
            db.insert(pred, vec![node[0]]);
            continue;
        }
        for i in 0..node.len() {
            for j in i + 1..node.len() {
                db.insert(pred, vec![node[i], node[j]]);
            }
        }
    }
    db
}

/// The recursive rule of programs A, B, C, of Section 7 and of a
/// magic program is rescued through its smallest fan-in — the EDB
/// atom keyed on the bound head variable, never `anc(x, _)` — with
/// every fully bound atom a dedup-table lookup; and the rows a rescue
/// records are a positional instantiation of the rule text whatever
/// order found them.
#[test]
fn rescue_plans_enter_through_the_fan_in_and_record_in_rule_text_order() {
    let some = |m: &[usize]| Some(m.to_vec());
    let cases: [(&str, RescueShape); 5] = [
        // anc(X,Z), par(Z,Y): par(Z, y) first, anc(x, z) is a lookup.
        (SRC_A, (vec![1, 0], vec![some(&[1]), None])),
        // par(X,Z), anc(Z,Y): par(x, Z), then the lookup.
        (SRC_B, (vec![0, 1], vec![some(&[0]), None])),
        // anc(X,Z), anc(Z,Y): nothing to choose between; text order.
        (SRC_C, (vec![0, 1], vec![some(&[0]), None])),
        // b1(X,X1), p(X1,Y1), b2(Y1,Y): both EDB atoms before the
        // IDB atom they bind completely.
        (SRC_S7, (vec![0, 2, 1], vec![some(&[0]), some(&[1]), None])),
        // m(X), anc_bf(X,Z), par(Z,Y): the guard is a lookup, then
        // as program A.
        (SRC_MAGIC_A, (vec![0, 2, 1], vec![None, some(&[1]), None])),
    ];
    for (src, expected) in cases {
        // Every rule twice: the build records each row through the first
        // copy, and the first round drops the first copies, so every row
        // is a rescue candidate for the second.
        let rules = src.split_once('\n').unwrap().1;
        let mut p = parse_program(&format!("{src}\n{rules}")).unwrap();
        let first_copies: Vec<RuleId> = (0..p.rules.len() / 2).map(|i| RuleId(i as u32)).collect();
        let db = dense_db(&mut p);
        let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
        let shapes = rescue_shapes(&m);
        assert_eq!(shapes.last().unwrap(), &expected, "{src}");
        // The exit rules test their one (or last) atom in the table.
        assert_eq!(shapes[shapes.len() - 2].1.last().unwrap(), &None, "{src}");

        // Retract the binary EDB facts one at a time, in a scrambled
        // order, the first with the drop: while other edges still stand,
        // most rows a retraction reaches have a derivation left and are
        // saved in place, and the rows of the dropped copies are
        // rescued.
        let mut facts: Vec<(Pred, Tuple)> = db
            .iter()
            .filter(|(_, r)| r.arity() == 2)
            .flat_map(|(pred, r)| r.sorted().into_iter().map(move |t| (pred, t)))
            .collect();
        facts.sort_by_key(|(pred, t)| (t[0].0 * 31 + t[1].0 * 17 + pred.0 * 7) % 13);
        let mut mirror = db.clone();
        let mut reappended = 0;
        for (k, (pred, t)) in facts.into_iter().enumerate() {
            let before: Vec<usize> = m.frontiers();
            let mut round = UpdateRound::new().retract(pred, t.clone());
            if k == 0 {
                round.rule_drops.clone_from(&first_copies);
            }
            assert_eq!(m.apply(&round).retracted, 1);
            mirror.remove(pred, &t);
            assert_eq!(m.idb_database().sorted_models(), spec_idb(&p, &mirror), "{src}");
            m.provenance().check(&p).unwrap_or_else(|e| panic!("{src}: {e}"));
            reappended +=
                m.frontiers().iter().zip(&before).map(|(a, b)| a - b).sum::<usize>();
        }
        assert!(reappended > 0, "no retraction rescued anything: {src}");
    }
}

/// The rescue of `anc(a, d)` after its recorded support `par(b, d)`
/// goes: found as `par(c, d)` then `anc(a, c)`, recorded as
/// `anc(a, c), par(c, d)`.
#[test]
fn rescued_justification_reads_in_rule_text_order() {
    let mut p = parse_program(SRC_A).unwrap();
    let par = p.symbols.get_predicate("par").unwrap();
    let anc = p.symbols.get_predicate("anc").unwrap();
    let [a, b, c, d] = ["a", "b", "c", "d"].map(|n| p.symbols.constant(n));
    let mut db = Database::new();
    for e in [[a, b], [a, c], [b, d], [c, d]] {
        db.insert(par, e.to_vec());
    }
    let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
    let ga = |pred, x, y| crate::derivation::GroundAtom { pred, args: vec![x, y] };
    let anc_ad = ga(anc, a, d);
    let via = |m: &Materialization| m.provenance().justification(&anc_ad).unwrap();
    let through_b = via(&m).1 == [ga(anc, a, b), ga(par, b, d)];
    let (first, second) = if through_b { (b, c) } else { (c, b) };
    assert_eq!(m.apply(&UpdateRound::new().retract(par, vec![first, d])).retracted, 1);
    assert_eq!(via(&m), (1, vec![ga(anc, a, second), ga(par, second, d)]));
    m.provenance().check(&p).expect("valid after the rescue");
}

/// A rescue plan binds a candidate by writing its head slots, and the
/// rule is a candidate's only if the head built back from those slots
/// is the tuple: that one comparison checks a repeated head variable and
/// a head constant. Every rule is there twice, and the round drops the
/// first copies, so every row is a rescue candidate for the second
/// ones. `p(a, a)` and `q(a, c)` also lose the `e`/`h` row they are
/// recorded through: both are rescued through the other one. `p(d, a)`
/// and `q(a, d)` have one derivation, through `g`, by the rule after a
/// rule that must refuse them: `p(X, X)` would find `p(a, a)` from the
/// slot `a` the tuple wrote last, and `q(X, c)` would find `q(a, c)`
/// from `a`, and a rescue that took either as the candidate's would
/// never try `g`.
#[test]
fn a_rescue_checks_repeated_head_variables_and_head_constants() {
    let rules = "p(X, X) :- e(X, Y), f(Y, X).\n\
                 p(X, Y) :- g(X, Y).\n\
                 q(X, c) :- h(X, Y).\n\
                 q(X, Y) :- g(X, Y).";
    let mut p = parse_program(&format!("?- p(a, Y).\n{rules}\n{rules}")).unwrap();
    let [e, f, g, h, pp, q] =
        ["e", "f", "g", "h", "p", "q"].map(|n| p.symbols.get_predicate(n).unwrap());
    let [a, b1, b2, c, d] = ["a", "b1", "b2", "c", "d"].map(|n| p.symbols.constant(n));
    let mut db = Database::new();
    for (pred, t) in [
        (e, [a, b1]),
        (e, [a, b2]),
        (f, [b1, a]),
        (f, [b2, a]),
        (h, [a, b1]),
        (h, [a, b2]),
        (g, [d, a]),
        (g, [a, d]),
    ] {
        db.insert(pred, t.to_vec());
    }
    let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
    let ga = |pred, x, y| crate::derivation::GroundAtom { pred, args: vec![x, y] };
    let via = |m: &Materialization, atom| m.provenance().justification(&atom).map(|(_, b)| b);
    // The `b` each fact is recorded through, and the other one.
    let b_of = |body: Vec<crate::derivation::GroundAtom>| body[0].args[1];
    let other = |b| if b == b1 { b2 } else { b1 };
    let bp = b_of(via(&m, ga(pp, a, a)).expect("p(a, a) derived"));
    let bq = b_of(via(&m, ga(q, a, c)).expect("q(a, c) derived"));
    let mut round = UpdateRound::new().retract(e, vec![a, bp]).retract(h, vec![a, bq]);
    round.rule_drops = (0..4).map(RuleId).collect();
    let before = m.frontiers();
    assert_eq!(m.apply(&round).retracted, 2);
    let mut mirror = db.clone();
    for (pred, t) in &round.retracts {
        mirror.remove(*pred, t);
    }
    assert_eq!(m.idb_database().sorted_models(), spec_idb(&p, &mirror));
    m.provenance().check(&p).expect("valid after the rescue");
    assert_eq!(via(&m, ga(pp, a, a)), Some(vec![ga(e, a, other(bp)), ga(f, other(bp), a)]));
    assert_eq!(via(&m, ga(q, a, c)), Some(vec![ga(h, a, other(bq))]));
    assert_eq!(via(&m, ga(pp, d, a)), Some(vec![ga(g, d, a)]));
    assert_eq!(via(&m, ga(q, a, d)), Some(vec![ga(g, a, d)]));
    let reappended: usize = m.frontiers().iter().zip(&before).map(|(x, y)| x - y).sum();
    assert_eq!(reappended, 6, "every p and q row, rescued");
}

/// A tuple whose only other derivation runs through a row tombstoned
/// in the same round is not rescued: the dedup table a full-key step
/// reads holds live rows only — also with the tombstones tagged for
/// a pinned epoch, through a server, and in the first round of a freshly
/// built or restored store, whose tables are built on that first write.
/// The same round inserts a loaded fact again, which those tables must
/// find, and a new one: every store reports one insert and one retract.
#[test]
fn a_dedup_step_never_rescues_through_a_row_that_died_this_round() {
    let mut p = parse_program(SRC_A).unwrap();
    let par = p.symbols.get_predicate("par").unwrap();
    let anc = p.symbols.get_predicate("anc").unwrap();
    let edges = chain_edges(&mut p, 2);
    let new_edge = vec![p.symbols.constant("x"), p.symbols.constant("y")];
    let mut db = Database::new();
    for e in &edges {
        db.insert(par, e.clone());
    }
    let fresh = Materialization::from_database(&p, &db, Strategy::SemiNaive);
    let pinned = fresh.clone();
    let restored = Materialization::from_bytes(&fresh.to_bytes()).unwrap();
    // anc(john, c2) is over-deleted with anc(john, c1); its other
    // derivation — par(Z, c2), then anc(john, c1) in the table — needs
    // exactly that dead row. par(c1, c2) is loaded already.
    let round = UpdateRound::new()
        .retract_all(par, &edges[..1])
        .insert(par, edges[1].clone())
        .insert(par, new_edge.clone());
    let mut mirror = db.clone();
    mirror.remove(par, &edges[0]);
    mirror.insert(par, new_edge);
    let served = Server::from_database(&p, &db, Strategy::SemiNaive);
    let report = served.apply(&round);
    assert_eq!((report.inserted, report.retracted), (1, 1));
    assert_eq!(served.snapshot().idb_database().sorted_models(), spec_idb(&p, &mirror));
    let mut bytes = Vec::new();
    for (what, mut m) in [("fresh", fresh), ("pinned", pinned), ("restored", restored)] {
        // The pinned store's round is one a server publishes as epoch 3.
        if what == "pinned" {
            assert_eq!(m.apply_checked(&round, Some(3)), report, "{what}");
        } else {
            assert_eq!(m.apply(&round), report, "{what}");
            bytes.push(m.to_bytes());
        }
        assert_eq!(rescue_shapes(&m)[1].1, [Some(vec![1]), None], "{what}");
        assert_eq!(m.idb_database().sorted_models(), spec_idb(&p, &mirror), "{what}");
        assert_eq!(m.num_facts(anc), 2, "{what}: only anc(c1, c2) and anc(x, y) are left");
        assert_eq!(m.tagged_tombstones() > 0, what == "pinned");
        m.provenance().check(&p).expect("valid");
    }
    assert_eq!(bytes[0], bytes[1], "the fresh and the restored store end alike");
}

/// A build loads its EDB facts as a restore loads a relation, and the
/// dedup tables wait for the first write: after a batch evaluation —
/// the store `eval::answer` and `evaluate` read out — and after a
/// recording build, no loaded relation has one; after the first round,
/// every relation does.
#[test]
fn a_build_leaves_the_edb_dedup_tables_to_the_first_write() {
    let mut p = parse_program(SRC_S7).unwrap();
    let db = dense_db(&mut p);
    let loaded = |m: &Materialization| -> Vec<usize> {
        let edb = (0..m.rels.len()).filter(|&r| !m.idb_flag[r]);
        edb.filter(|&r| m.rels[r].num_rows() > 0).collect()
    };
    let planned = OrderMode::Planned;
    let batch = Materialization::batch(&p, &db, Strategy::SemiNaive, false, planned);
    let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
    for m in [&batch, &m] {
        assert!(!loaded(m).is_empty());
        assert!(loaded(m).iter().all(|&r| !m.rels[r].dedup_built()));
    }
    let (pred, row) = db.iter().find_map(|(p, r)| Some((p, r.iter().next()?.clone()))).unwrap();
    let mut mirror = db;
    mirror.remove(pred, &row);
    assert_eq!(m.apply(&UpdateRound::new().retract(pred, row)).retracted, 1);
    assert!(m.rels.iter().all(ColumnarRelation::dedup_built));
    assert_eq!(m.idb_database().sorted_models(), spec_idb(&p, &mirror));
}

/// [`OrderMode::Shuffled`] changes orders and nothing else: a recording
/// store holds one plan per (rule, body atom), that atom leading, and
/// its rescue plans are body permutations whose fully bound steps ask
/// the dedup table — as under the planner.
#[test]
fn shuffled_order_compiles_the_plans_the_planner_does_in_another_order() {
    for src in [SRC_A, SRC_S7] {
        let mut p = parse_program(src).unwrap();
        let db = dense_db(&mut p);
        let build = |seed| {
            let order = OrderMode::Shuffled(seed);
            Materialization::from_database_with(&p, &db, Strategy::SemiNaive, order)
        };
        let m = build(7);
        for (rule, plans) in p.rules.iter().zip(m.plans.iter()) {
            assert_eq!(plans.len(), rule.body.len(), "{src}");
            for (k, plan) in plans.iter().enumerate() {
                assert_eq!(plan.body_of_step[0], k, "{src}");
            }
        }
        for (rule, (order, masks)) in p.rules.iter().zip(rescue_shapes(&m)) {
            let mut atoms = order.clone();
            atoms.sort_unstable();
            assert_eq!(atoms, (0..rule.body.len()).collect::<Vec<_>>(), "{src}");
            for (&k, mask) in order.iter().zip(&masks) {
                assert!(mask.as_ref().is_none_or(|m| m.len() < rule.body[k].arity()), "{src}");
            }
            // In these chains the last atom of any order is fully bound.
            assert_eq!(masks.last().unwrap(), &None, "{src}");
        }
        // The mode still shuffles behind the delta atom: bit 7 of the
        // seed decides the first draw of a two-atom tail.
        let tails = |m: &Materialization| -> Vec<Vec<usize>> {
            m.plans[1].iter().map(|pl| pl.body_of_step.to_vec()).collect()
        };
        assert_eq!(tails(&m) != tails(&build(7 | 1 << 7)), src == SRC_S7, "{src}");
    }
}

/// Sorted `(relation, mask)` keys of a store's index registry.
fn registry(m: &Materialization) -> Vec<(usize, Vec<usize>)> {
    let mut keys: Vec<(usize, Vec<usize>)> = m.idx_of.keys().cloned().collect();
    keys.sort();
    keys
}

/// The registry keys a store holds beyond `of`'s (both sorted).
fn registry_beyond(m: &Materialization, of: &Materialization) -> Vec<(usize, Vec<usize>)> {
    let base = registry(of);
    registry(m).into_iter().filter(|k| !base.contains(k)).collect()
}

/// A one-shot store — what `evaluate` and `answer` build — is built as a
/// recording store is: over the Section 7 magic program it registers
/// the recording store's `(relation, mask)` set but for the indexes the
/// rescue plans alone probe (the one-shot store compiles none), the
/// reverse `b1[1]` index that the plan led by the recursive atom
/// `p_bf(X1, Y1)` probes included, runs the same plans to the same
/// counters, and reaches the same model.
#[test]
fn a_one_shot_store_builds_through_the_plans_a_recording_store_does() {
    let p = parse_program(SRC_S7).unwrap();
    let mut magic = crate::magic::magic_transform(&p).unwrap().program;
    let db = dense_db(&mut magic);
    let [b1, b2] = ["b1", "b2"].map(|n| magic.symbols.get_predicate(n).unwrap());
    let one_shot =
        Materialization::batch(&magic, &db, Strategy::SemiNaive, false, OrderMode::Planned);
    let recording = Materialization::from_database(&magic, &db, Strategy::SemiNaive);
    assert!(one_shot.rederive.is_empty());
    let mut expected = registry(&one_shot);
    let rescue_steps = recording.rederive.iter().flat_map(|plan| &plan.steps);
    let idxs = rescue_steps.filter(|s| s.idx != NO_INDEX).map(|s| &recording.idxs[s.idx]);
    expected.extend(idxs.map(|idx| (idx.rel(), idx.mask().to_vec())));
    expected.sort();
    expected.dedup();
    assert_eq!(registry(&recording), expected);
    assert_eq!(registry_beyond(&recording, &one_shot), [(recording.rel_of_pred[&b2] as usize, vec![1])]);
    assert!(registry(&one_shot).contains(&(one_shot.rel_of_pred[&b1] as usize, vec![1])));
    assert_eq!(recording.stats(), one_shot.stats(), "the same plans ran");
    assert_eq!(recording.idb_database().sorted_models(), one_shot.idb_database().sorted_models());
}

/// The base-side twin of the cache's link test: a program-A store
/// registers `par[1]`, the index its rescue plan enters `anc(x, y)`
/// through, at construction and nothing else for the rescue — no
/// `anc[0]`, which would index the whole closure for the rescue alone —
/// and the build fills it, so its first retracting round registers and
/// fills no index.
#[test]
fn a_store_registers_its_rescue_index_at_construction() {
    let mut p = parse_program(SRC_A).unwrap();
    let par = p.symbols.get_predicate("par").unwrap();
    let edges = chain_edges(&mut p, 16);
    let mut db = Database::new();
    for e in &edges {
        db.insert(par, e.clone());
    }
    let one_shot = Materialization::batch(&p, &db, Strategy::SemiNaive, false, OrderMode::Planned);
    let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
    assert_eq!(registry_beyond(&m, &one_shot), [(m.rel_of_pred[&par] as usize, vec![1])]);
    let (keys, before) = (registry(&m), m.planner_report().index_rows);
    assert_eq!(m.apply(&UpdateRound::new().retract_all(par, &edges[15..])).retracted, 1);
    assert_eq!(registry(&m), keys);
    assert_eq!(m.planner_report().index_rows - before, 0);
}

/// A restore compiles the rescue plans with the update plans, as the
/// build did: before its first round, a restored store registers every
/// index the live store had registered by the time it was saved — its
/// rescue plans' `par[1]` included.
#[test]
fn a_restored_store_registers_what_the_live_one_had() {
    let mut p = parse_program(SRC_A).unwrap();
    let par = p.symbols.get_predicate("par").unwrap();
    let edges = chain_edges(&mut p, 8);
    let mut db = Database::new();
    for e in &edges {
        db.insert(par, e.clone());
    }
    let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
    assert_eq!(m.apply(&UpdateRound::new().retract_all(par, &edges[7..])).retracted, 1);
    let restored = Materialization::from_bytes(&m.to_bytes()).unwrap();
    assert_eq!(registry(&restored), registry(&m));
    assert!(registry(&restored).contains(&(restored.rel_of_pred[&par] as usize, vec![1])));
}

/// A round that adds a rule deriving a tuple it also over-deletes:
/// the seeding pass re-derives the tuple before the rescue reaches
/// it, and the rescue must not record a second row for it.
#[test]
fn a_candidate_the_seeding_pass_rederived_is_not_rescued_twice() {
    let mut p = parse_program(SRC_A).unwrap();
    let par = p.symbols.get_predicate("par").unwrap();
    let anc = p.symbols.get_predicate("anc").unwrap();
    let alt = p.symbols.predicate("alt");
    let edges = chain_edges(&mut p, 3);
    let mut db = Database::new();
    for e in &edges {
        db.insert(par, e.clone());
    }
    let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
    let xy = vec![Term::Var(Var(0)), Term::Var(Var(1))];
    let added = Rule {
        head: Atom { pred: anc, args: xy.clone() },
        body: vec![Atom { pred: alt, args: xy }],
    };
    p.rules.push(added.clone());
    m.apply(
        &UpdateRound::new()
            .add_rule(added)
            .insert(alt, edges[0].clone())
            .retract(par, edges[0].clone()),
    );
    let mut mirror = db.clone();
    mirror.remove(par, &edges[0]);
    mirror.insert(alt, edges[0].clone());
    assert_eq!(m.idb_database().sorted_models(), spec_idb(&p, &mirror));
    m.provenance().check(&p).expect("one justification per row");
}

/// A body atom that shares no variable with the head or the other
/// atoms is an unkeyed step of the rescue plan — a scan: `p(a)` loses
/// the `r` row its justification names and is rescued through the one
/// that is left, and dies with the last.
#[test]
fn a_rescue_scans_a_body_atom_nothing_binds() {
    let mut p = parse_program("?- p(X).\np(X) :- s(X).\np(X) :- q(X), r(Y).").unwrap();
    let [pp, q, r] = ["p", "q", "r"].map(|n| p.symbols.get_predicate(n).unwrap());
    let [a, b1, b2] = ["a", "b1", "b2"].map(|n| p.symbols.constant(n));
    let mut db = Database::new();
    db.insert(q, vec![a]);
    db.insert(r, vec![b1]);
    db.insert(r, vec![b2]);
    let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
    assert_eq!(rescue_shapes(&m)[1], (vec![0, 1], vec![None, Some(Vec::new())]));
    let p_a = crate::derivation::GroundAtom { pred: pp, args: vec![a] };
    let named = m.provenance().justification(&p_a).unwrap().1[1].args.clone();
    let other = vec![if named[0] == b1 { b2 } else { b1 }];
    for (gone, left) in [(named, 1), (other, 0)] {
        let probes = m.stats().join_probes;
        assert_eq!(m.apply(&UpdateRound::new().retract(r, gone.clone())).retracted, 1);
        db.remove(r, &gone);
        assert!(m.stats().join_probes > probes, "the rescue ran");
        assert_eq!(m.num_facts(pp), left);
        assert_eq!(m.idb_database().sorted_models(), spec_idb(&p, &db));
        let scratch = eval::evaluate(&p, &db, Strategy::SemiNaive);
        assert_eq!(m.idb_database().sorted_models(), scratch.idb.sorted_models());
        m.provenance().check(&p).expect("valid after the rescue");
    }
}

// -----------------------------------------------------------------
// Snapshot / restore
// -----------------------------------------------------------------

#[test]
fn snapshot_round_trip_is_bit_for_bit_and_update_equivalent() {
    let mut p = parse_program(SRC_A).unwrap();
    let par = p.symbols.get_predicate("par").unwrap();
    let edges = chain_edges(&mut p, 14);
    let mut db = Database::new();
    for e in &edges {
        db.insert(par, e.clone());
    }
    let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
    m.set_compaction_policy(None);
    // Leave interesting state behind: tombstones (live dead bitset +
    // stale justifications), nonzero counters.
    m.apply(&UpdateRound::new().retract_all(par, &edges[10..12]));

    let bytes = m.to_bytes();
    let m2 = Materialization::from_bytes(&bytes).expect("intact snapshot restores");
    assert_eq!(m2.to_bytes(), bytes, "serialize(restore(x)) == x, bit for bit");
    assert_eq!(m2.stats(), m.stats());
    assert_eq!(m2.strategy(), m.strategy());
    assert_eq!(m2.database().sorted_models(), m.database().sorted_models());
    assert_eq!(m2.answer().sorted(), m.answer().sorted());
    m2.provenance().check(&p).expect("restored justifications valid");
    // A restored store's provenance looks atoms up as the live one's.
    let anc = p.symbols.get_predicate("anc").unwrap();
    let deepest = crate::derivation::GroundAtom { pred: anc, args: vec![edges[0][0], edges[9][1]] };
    let tree = m2.provenance().tree(&deepest).expect("a derived atom has a tree");
    assert_eq!(Some(&tree), m.provenance().tree(&deepest).as_ref());
    assert_eq!((tree.height(), m2.provenance().tree_height(&deepest)), (11, Some(11)));

    // The same mixed round lands identically on both stores.
    let round = UpdateRound::new()
        .retract_all(par, &edges[4..6])
        .insert_all(par, &edges[10..12]);
    let mut m2 = m2;
    let ra = m.apply(&round);
    let rb = m2.apply(&round);
    assert_eq!(ra, rb);
    assert_eq!(m.stats(), m2.stats(), "identical work on both stores");
    assert_eq!(m.database().sorted_models(), m2.database().sorted_models());
    assert_eq!(m.to_bytes(), m2.to_bytes(), "stores stay bit-identical after the round");
}

#[test]
fn snapshot_round_trips_rule_slots_and_epoch_state() {
    let mut p = parse_program(SRC_A).unwrap();
    let par = p.symbols.get_predicate("par").unwrap();
    let edges = chain_edges(&mut p, 8);
    let mut db = Database::new();
    for e in &edges {
        db.insert(par, e.clone());
    }
    let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
    // A server's epoch-3 round with a live tombstone tag, plus a dropped rule.
    m.apply_checked(&UpdateRound::new().retract(par, edges[6].clone()), Some(3));
    m.apply_checked(&UpdateRound::new().drop_rule(RuleId(1)), Some(3));

    let bytes = m.to_bytes();
    let m2 = Materialization::from_bytes(&bytes).unwrap();
    assert_eq!(m2.to_bytes(), bytes);
    assert!(!m2.is_rule_active(RuleId(1)));
    assert!(m2.is_rule_active(RuleId(0)));
    assert_eq!(m2.rule_shape().0, 2, "dropped slots persist");
    // No pin survives a restart, so the tags stay behind: the restored
    // store holds none, and reads as the live one at the current epoch.
    assert!(m.tagged_tombstones() > 0);
    assert_eq!(m2.tagged_tombstones(), 0);
    assert_eq!(m2.epoch(), 3);
    let f = m2.frontiers();
    assert_eq!(
        m.database_at(&f, 3).sorted_models(),
        m2.database_at(&f, 3).sorted_models()
    );
}

#[test]
fn save_restore_via_file_is_atomic_and_faithful() {
    let dir = std::env::temp_dir().join(format!("selprop-mat-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("store.snap");

    let mut p = parse_program(SRC_A).unwrap();
    let par = p.symbols.get_predicate("par").unwrap();
    let edges = chain_edges(&mut p, 10);
    let mut db = Database::new();
    for e in &edges {
        db.insert(par, e.clone());
    }
    let mut m = Materialization::from_database(&p, &db, Strategy::SemiNaive);
    m.save(&path).expect("save");
    let m2 = Materialization::restore(&path).expect("restore");
    assert_eq!(m2.to_bytes(), m.to_bytes());

    // Overwrite with new state; the file is replaced atomically.
    m.apply(&UpdateRound::new().retract_all(par, &edges[8..]));
    m.save(&path).expect("second save");
    let m3 = Materialization::restore(&path).expect("restore updated");
    assert_eq!(m3.to_bytes(), m.to_bytes());

    assert!(matches!(
        Materialization::restore(dir.join("missing.snap")),
        Err(PersistError::Io(_))
    ));
    let _ = std::fs::remove_dir_all(&dir);
}
