//! Magic sets on chain programs as language quotients — Section 7.
//!
//! For a chain program `H` with goal `p(c, Y)`, each rule `i` yields a
//! "don't care" regular expression `R_i` (start with `*`, end with `*`,
//! keep the rule's terminals, replace nonterminals by `*`). The magic
//! set for the rule's first variable corresponds to the quotient
//! `L(H)/R_i`; when that quotient is regular, the magic predicate is
//! computable by monadic rules. When the quotient is not *known* regular,
//! the paper's fallback applies: quotient a regular envelope,
//! `R(H)/R_i`, instead — always regular, always a superset, so pruning
//! stays sound.
//!
//! [`analyze`] computes all of this per rule; [`transform`] applies the
//! general magic-sets rewriting (which, on chain programs with a
//! left-to-right SIPS, produces exactly the paper's displayed program)
//! and [`magic_extension_vs_language`] validates the semantic
//! reading: on any database, the magic predicate's extension is exactly
//! the set of nodes reachable from `c` by a path labeled in the
//! *prefix-closure quotient* `Pref(L(H))`-restricted envelope.

use selprop_automata::dfa::Dfa;
use selprop_automata::minimize::minimize;
use selprop_automata::ops;
use selprop_automata::regex::Regex;
use selprop_datalog::ast::{Atom, Rule};
use selprop_datalog::db::Database;
use selprop_datalog::eval::{answer, evaluate, Strategy};
use selprop_datalog::magic::{magic_transform, MagicProgram};
use selprop_grammar::cfg::Sym;
use selprop_grammar::quotient::right_quotient;
use selprop_grammar::regular::approximate;

use crate::chain::{ChainProgram, GoalForm};
use crate::rewrite::automaton_marking;

/// Per-rule quotient analysis.
#[derive(Clone, Debug)]
pub struct RuleQuotient {
    /// Index of the rule in the chain program.
    pub rule_index: usize,
    /// The `* t1 * t2 ... *` pattern of the rule.
    pub pattern: Regex,
    /// The exact quotient `L(H)/R_i` as a CFG.
    pub quotient_grammar: selprop_grammar::Cfg,
    /// Whether the quotient grammar compiled exactly (then the quotient
    /// is certified regular).
    pub quotient_exact: bool,
    /// The envelope quotient `R(H)/R_i` — always regular, always ⊇ the
    /// exact quotient.
    pub envelope_quotient: Dfa,
}

/// Section 7 analysis of a chain program with goal `p(c, Y)`.
#[derive(Clone, Debug)]
pub struct MagicAnalysis {
    /// The Mohri–Nederhof envelope `R(H)` (exact iff `envelope_exact`).
    pub envelope: Dfa,
    /// Whether `R(H) = L(H)` was certified (strongly regular grammar).
    pub envelope_exact: bool,
    /// Per-rule quotients.
    pub rules: Vec<RuleQuotient>,
}

/// Builds the rule patterns and quotients of Section 7.
pub fn analyze(chain: &ChainProgram) -> Result<MagicAnalysis, String> {
    if !matches!(chain.goal_form, GoalForm::BoundFirst(_)) {
        return Err("Section 7 analysis assumes the goal form p(c, Y)".to_owned());
    }
    let grammar = chain.grammar();
    let approx = approximate(&grammar);
    let envelope = minimize(&approx.dfa());
    let mut rules = Vec::new();
    for (i, production) in grammar.productions.iter().enumerate() {
        // the paper's pattern: * then each symbol (terminal kept,
        // nonterminal → *), then *
        let mut pattern = Regex::sigma_star(&grammar.alphabet);
        for &s in &production.body {
            match s {
                Sym::T(t) => {
                    pattern = Regex::concat(pattern, Regex::Sym(t));
                }
                Sym::N(_) => {
                    pattern = Regex::concat(pattern, Regex::sigma_star(&grammar.alphabet));
                }
            }
        }
        pattern = Regex::concat(pattern, Regex::sigma_star(&grammar.alphabet));
        let pattern_dfa = pattern.to_dfa(&grammar.alphabet);
        let quotient_grammar = right_quotient(&grammar, &pattern_dfa);
        let q_approx = approximate(&quotient_grammar);
        let envelope_quotient = minimize(&ops::right_quotient(&envelope, &pattern_dfa));
        rules.push(RuleQuotient {
            rule_index: i,
            pattern,
            quotient_grammar,
            quotient_exact: q_approx.exact,
            envelope_quotient,
        });
    }
    Ok(MagicAnalysis {
        envelope,
        envelope_exact: approx.exact,
        rules,
    })
}

/// Applies the generalized magic transformation to the chain program
/// (producing the paper's Section 7 program shape).
pub fn transform(chain: &ChainProgram) -> Result<MagicProgram, String> {
    magic_transform(&chain.program)
}

/// Semantic validation on a concrete database: the magic predicate for
/// the goal's adornment marks exactly the nodes reachable from `c` by a
/// path whose label string is accepted by `prefix_language`
/// (the Kleene-prefix language of the binding-passing descent). Returns
/// `(magic_marked, reachable_by_prefix)` as sorted node-name lists.
pub fn magic_extension_vs_language(
    chain: &ChainProgram,
    db: &Database,
    prefix_language: &Dfa,
) -> Result<(Vec<String>, Vec<String>), String> {
    let GoalForm::BoundFirst(origin) = &chain.goal_form else {
        return Err("goal form must be p(c, Y)".to_owned());
    };
    let magic = transform(chain)?;
    let result = evaluate(&magic.program, db, Strategy::SemiNaive);
    let goal_pred = chain.goal_pred();
    let key = (goal_pred, "bf".to_owned());
    let magic_pred = magic.magic[&key];
    let mut marked: Vec<String> = result
        .idb
        .relation(magic_pred)
        .map(|rel| {
            rel.iter()
                .map(|t| magic.program.symbols.const_name(t[0]).to_owned())
                .collect()
        })
        .unwrap_or_default();
    marked.sort();
    marked.dedup();

    // reachability with label strings in prefix_language, by BFS over
    // (node, dfa state) pairs
    let alphabet = chain.alphabet();
    let edges: Vec<_> = alphabet.symbols().zip(chain.edb_preds(&alphabet)).collect();
    let origin_const = chain
        .program
        .symbols
        .get_constant(origin)
        .ok_or("origin constant not interned")?;
    let mut reach: std::collections::BTreeSet<(selprop_datalog::ast::Const, usize)> =
        std::collections::BTreeSet::new();
    let mut queue = std::collections::VecDeque::new();
    reach.insert((origin_const, prefix_language.start()));
    queue.push_back((origin_const, prefix_language.start()));
    while let Some((node, q)) = queue.pop_front() {
        for &(sym, pred) in &edges {
            let Some(rel) = db.relation(pred) else { continue };
            for t in rel.iter() {
                if t[0] == node {
                    let next = (t[1], prefix_language.step(q, sym));
                    if reach.insert(next) {
                        queue.push_back(next);
                    }
                }
            }
        }
    }
    let mut reachable: Vec<String> = reach
        .iter()
        .filter(|&&(_, q)| prefix_language.is_accept(q))
        .map(|&(c, _)| chain.program.symbols.const_name(c).to_owned())
        .collect();
    reachable.sort();
    reachable.dedup();
    Ok((marked, reachable))
}


/// Section 7's "quotients correspond to monadic programs" made literal:
/// instead of the syntactic magic rewriting, guard the original rules
/// with a *monadic automaton marking*. The prefix language
/// `Pref(R(H))` of the regular envelope is compiled to a DFA; the
/// marking Theorem 3.3's rewrite builds (`rewrite.rs`'s
/// `automaton_marking`), here `useful_q(Gy) :- useful_p(Gz), b(Gz, Gy)`
/// with answer `useful`, marks each node with the DFA states reachable
/// from `c`; every original rule gets the guard "the rule's first
/// variable is `useful`". Answers are preserved (the guard accepts every
/// useful prefix) and work shrinks on noisy databases like the magic
/// transformation's.
pub fn envelope_guarded_program(chain: &ChainProgram) -> Result<selprop_datalog::Program, String> {
    let GoalForm::BoundFirst(origin) = &chain.goal_form else {
        return Err("envelope guarding assumes the goal form p(c, Y)".to_owned());
    };
    let envelope = minimize(&approximate(&chain.grammar()).dfa());
    let prefix_dfa = minimize(&ops::prefixes(&envelope));
    let mut program = chain.program.clone();
    let names = ["useful", "useful", "Gy", "Gz"];
    let (mut rules, useful) =
        automaton_marking(chain, &mut program.symbols, &prefix_dfa, origin, names, false, None);
    // guard every original rule on its head's first variable
    rules.extend(program.rules.iter().map(|rule| {
        let mut body = vec![Atom::new(useful.pred, vec![rule.head.args[0]])];
        body.extend(rule.body.iter().cloned());
        Rule::new(rule.head.clone(), body)
    }));
    program.rules = rules;
    program.validate()?;
    Ok(program)
}

/// Work comparison on a database: `(original, magic)` evaluation
/// statistics for the same goal.
pub fn work_comparison(
    chain: &ChainProgram,
    db: &Database,
) -> Result<(selprop_datalog::EvalStats, selprop_datalog::EvalStats), String> {
    let (_, orig) = answer(&chain.program, db, Strategy::SemiNaive);
    let magic = transform(chain)?;
    let (_, magical) = answer(&magic.program, db, Strategy::SemiNaive);
    Ok((orig, magical))
}

#[cfg(test)]
mod tests {
    use super::*;
    use selprop_automata::equiv::equivalent;

    fn paper_program() -> ChainProgram {
        ChainProgram::parse(
            "?- p(c, Y).\n\
             p(X, Y) :- b1(X, X1), b2(X1, Y).\n\
             p(X, Y) :- b1(X, X1), p(X1, Y1), b2(Y1, Y).",
        )
        .unwrap()
    }

    fn regex_dfa(chain: &ChainProgram, text: &str) -> Dfa {
        let mut al = chain.grammar().alphabet;
        Regex::parse(text, &mut al).unwrap().to_dfa(&al)
    }

    #[test]
    fn paper_envelope_and_quotients() {
        let chain = paper_program();
        let analysis = analyze(&chain).unwrap();
        // L = b1^n b2^n is not strongly regular; envelope is b1+ b2+
        assert!(!analysis.envelope_exact);
        let tight = regex_dfa(&chain, "b1 b1* b2 b2*");
        assert!(equivalent(&analysis.envelope, &tight));
        // both envelope quotients are b1* — the paper's "positive number
        // of b1's" magic set, with the seed c included as the empty prefix
        let b1_star = regex_dfa(&chain, "b1*");
        for rq in &analysis.rules {
            assert!(
                equivalent(&rq.envelope_quotient, &b1_star),
                "rule {} quotient should be b1*",
                rq.rule_index
            );
        }
    }

    #[test]
    fn transformed_program_matches_paper_display() {
        let chain = paper_program();
        let magic = transform(&chain).unwrap();
        let text = magic.program.render();
        assert!(text.contains("m_p_bf(c)."));
        assert!(text.contains("m_p_bf(X1) :- m_p_bf(X), b1(X, X1)."));
    }

    /// Layered database: a b1-chain of `layers` nodes from c, then a
    /// b2-chain back of the same length, plus `noise` disconnected
    /// b1/b2 pairs.
    fn layered_db(chain: &mut ChainProgram, layers: usize, noise: usize) -> Database {
        let b1 = chain.program.symbols.get_predicate("b1").unwrap();
        let b2 = chain.program.symbols.get_predicate("b2").unwrap();
        let mut db = Database::new();
        let mut prev = chain.program.symbols.constant("c");
        let mut mids = vec![prev];
        for i in 1..=layers {
            let n = chain.program.symbols.constant(&format!("u{i}"));
            db.insert(b1, vec![prev, n]);
            prev = n;
            mids.push(n);
        }
        for i in 1..=layers {
            let n = chain.program.symbols.constant(&format!("d{i}"));
            db.insert(b2, vec![prev, n]);
            prev = n;
        }
        for i in 0..noise {
            let a = chain.program.symbols.constant(&format!("xa{i}"));
            let b = chain.program.symbols.constant(&format!("xb{i}"));
            db.insert(b1, vec![a, b]);
            db.insert(b2, vec![b, a]);
        }
        db
    }

    #[test]
    fn magic_extension_is_b1_star_reachability() {
        let mut chain = paper_program();
        let db = layered_db(&mut chain, 4, 6);
        let b1_star = regex_dfa(&chain, "b1*");
        let (marked, reachable) =
            magic_extension_vs_language(&chain, &db, &b1_star).unwrap();
        assert_eq!(
            marked, reachable,
            "magic set must equal b1*-reachability from c"
        );
        assert_eq!(marked.len(), 5); // c, u1..u4
    }

    #[test]
    fn magic_prunes_noise() {
        let mut chain = paper_program();
        let db = layered_db(&mut chain, 4, 40);
        let (orig, magical) = work_comparison(&chain, &db).unwrap();
        assert!(
            magical.tuples_derived < orig.tuples_derived,
            "magic must derive fewer tuples: {} vs {}",
            magical.tuples_derived,
            orig.tuples_derived
        );
    }

    #[test]
    fn magic_answers_preserved_on_layered_db() {
        let mut chain = paper_program();
        let db = layered_db(&mut chain, 3, 5);
        let (want, _) = answer(&chain.program, &db, Strategy::SemiNaive);
        let magic = transform(&chain).unwrap();
        let (got, _) = answer(&magic.program, &db, Strategy::SemiNaive);
        assert_eq!(want.sorted(), got.sorted());
        assert_eq!(want.len(), 1); // the single balanced endpoint d{layers}...
                                   // (paths: b1^k b2^k from c: exactly k=3 reaches d3?
                                   //  c->u1->u2->u3 then d1,d2,d3: b1^3 b2^3 ends at d3)
    }

    #[test]
    fn envelope_guarding_preserves_answers_and_prunes() {
        let mut chain = paper_program();
        let db = layered_db(&mut chain, 5, 30);
        let guarded = envelope_guarded_program(&chain).unwrap();
        let (want, orig_stats) = answer(&chain.program, &db, Strategy::SemiNaive);
        let (got, guard_stats) = answer(&guarded, &db, Strategy::SemiNaive);
        assert_eq!(want.sorted(), got.sorted());
        assert!(
            guard_stats.tuples_derived < orig_stats.tuples_derived + 60,
            "guarding must not blow up: {} vs {}",
            guard_stats.tuples_derived,
            orig_stats.tuples_derived
        );
        // the binary p-tuples derived under the guard are a subset
        let p = chain.goal_pred();
        let orig_eval = selprop_datalog::eval::evaluate(
            &chain.program,
            &db,
            Strategy::SemiNaive,
        );
        let guard_eval = selprop_datalog::eval::evaluate(&guarded, &db, Strategy::SemiNaive);
        let orig_p = orig_eval.idb.relation(p).unwrap();
        if let Some(guard_p) = guard_eval.idb.relation(p) {
            for t in guard_p.iter() {
                assert!(orig_p.contains(t));
            }
            assert!(guard_p.len() <= orig_p.len());
        }
    }

    #[test]
    fn envelope_guarding_on_random_graphs() {
        let chain = paper_program();
        let guarded = envelope_guarded_program(&chain).unwrap();
        for seed in 0..4u64 {
            let mut c1 = chain.clone();
            let db1 = crate::workload::random_labeled_digraph(
                &mut c1.program, &["b1", "b2"], "c", 12, 30, seed,
            );
            let mut g2 = guarded.clone();
            let db2 = crate::workload::random_labeled_digraph(
                &mut g2, &["b1", "b2"], "c", 12, 30, seed,
            );
            let (a1, _) = answer(&c1.program, &db1, Strategy::SemiNaive);
            let (a2, _) = answer(&g2, &db2, Strategy::SemiNaive);
            assert_eq!(a1.sorted(), a2.sorted(), "seed {seed}");
        }
    }

    #[test]
    fn analyze_requires_bound_first_goal() {
        let chain = ChainProgram::parse(
            "?- p(X, X).\np(X, Y) :- b(X, Y).\np(X, Y) :- p(X, Z), b(Z, Y).",
        )
        .unwrap();
        assert!(analyze(&chain).is_err());
    }

    #[test]
    fn exact_quotient_flag_for_regular_program() {
        // For a strongly regular H, the quotient grammars may or may not
        // compile exactly, but the envelope IS the language, so the
        // envelope quotient is the exact quotient.
        let chain = ChainProgram::parse(
            "?- anc(c, Y).\n\
             anc(X, Y) :- par(X, Y).\n\
             anc(X, Y) :- anc(X, Z), par(Z, Y).",
        )
        .unwrap();
        let analysis = analyze(&chain).unwrap();
        assert!(analysis.envelope_exact);
        // L = par+; pattern of rule 0 (anc → par): * par *; quotient
        // par+/(Σ* par Σ*) = par* (can always strip a suffix containing a par)
        let par_star = regex_dfa(&chain, "par*");
        assert!(equivalent(&analysis.rules[0].envelope_quotient, &par_star));
    }
}
