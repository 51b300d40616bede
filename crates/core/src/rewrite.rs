//! Monadic rewrites — the constructive ("if") direction of Theorem 3.3.
//!
//! Given a DFA for a *regular* `L(H)` and a goal with a constant, the
//! rewrite introduces one monadic IDB per live DFA state: `n_q(v)` holds
//! iff some path from the bound constant to `v` drives the automaton from
//! its start to `q`. This is Example 1.1's Program A → Program D
//! transformation generalized from the left-linear grammar to an
//! arbitrary DFA (the paper routes it through a left-linear grammar
//! `H_left`; a DFA *is* a left-linear grammar by
//! [`selprop_automata::linear::LinearGrammar::from_dfa_left`], so the
//! composition is the same construction).
//!
//! For the diagonal goal `p(X, X)` with *finite* `L(H)`, the rewrite is a
//! union of tagged tableaux (one nonrecursive rule per word, Section 3's
//! "if (part 2)").
//!
//! Two builders make every such program in this crate:
//! `automaton_marking` turns a DFA into monadic marking rules (the
//! rewrite above, and Section 7's envelope guard,
//! [`crate::magic_chain::envelope_guarded_program`]), and `word_path`
//! turns a word into a chain of EDB atoms (the tableaux, and the FO form
//! of [`crate::bounded::boundedness`]).

use selprop_automata::dfa::Dfa;
use selprop_automata::Symbol;
use selprop_datalog::ast::{Atom, Pred, Program, Rule, Symbols, Term, Var};

use crate::chain::{ChainProgram, GoalForm};

/// Builds the monadic program for a constant-goal chain program from a
/// DFA with `L(dfa) = L(H)`.
///
/// Goal handling:
/// - `p(c, Y)`: forward marking from `c`; answers `ans(Y)`.
/// - `p(X, c)`: the same construction on the *reversed* automaton,
///   marking backwards from `c`; answers `ans(X)`.
/// - `p(c, c1)` / `p(c, c)`: forward marking from `c`, 0-ary answer
///   `ans :- n_f(c1)`.
///
/// An empty `L(dfa)` leaves `ans` no rule; it gets one over `never`,
/// which derives nothing.
pub fn monadic_rewrite(chain: &ChainProgram, dfa: &Dfa) -> Result<Program, String> {
    let reversed;
    let (dfa, origin, backwards, at) = match &chain.goal_form {
        GoalForm::BoundFirst(c) => (dfa, c, false, None),
        GoalForm::BoundSecond(c) => {
            reversed = Dfa::from_nfa(&dfa.to_nfa().reversed());
            (&reversed, c, true, None)
        }
        GoalForm::BoundBoth(c, c1) => (dfa, c, false, Some(c1.as_str())),
        GoalForm::Free => return Err("goal p(X, Y) carries no selection to propagate".to_owned()),
        GoalForm::Diagonal => {
            return Err(
                "diagonal goals rewrite via finite tableaux, not a DFA — use tableaux_rewrite"
                    .to_owned(),
            )
        }
    };
    let mut symbols = chain.program.symbols.clone();
    let names = ["n", "ans", "Y", "Z"];
    let (mut rules, goal) =
        automaton_marking(chain, &mut symbols, dfa, origin, names, backwards, at);
    if !rules.iter().any(|r| r.head.pred == goal.pred) {
        let x = symbols.fresh_variable("X0");
        rules.extend(never_rules(&mut symbols, &goal, x));
    }
    Ok(Program {
        rules,
        goal,
        symbols,
    })
}

/// The monadic marking of `dfa` from the constant `origin` (Theorem
/// 3.3's "if" construction), interned into `symbols`:
/// - a predicate `{state}{q}` per live state `q`;
/// - the seed fact `{state}{q0}(origin)`;
/// - per live transition `q → q'` on `b`, `{state}{q'}(Y) :- {state}{q}(Z),
///   b(Z, Y)`, the edge read backwards, `b(Y, Z)`, when `backwards`;
/// - per live accepting `f`, `{answer}(Y) :- {state}{f}(Y)`, or with `at`
///   the 0-ary `{answer} :- {state}{f}(at)`.
///
/// `names` are the hints `[state, answer, Y, Z]`. Returns the rules and
/// the answer atom they define.
pub(crate) fn automaton_marking(
    chain: &ChainProgram,
    symbols: &mut Symbols,
    dfa: &Dfa,
    origin: &str,
    [state, answer, y, z]: [&str; 4],
    backwards: bool,
    at: Option<&str>,
) -> (Vec<Rule>, Atom) {
    let edge = chain.edb_preds(&dfa.alphabet);
    let live = dfa.live_states();
    let n_pred: Vec<Option<Pred>> = (0..dfa.num_states())
        .map(|q| live.contains(&q).then(|| symbols.fresh_predicate(&format!("{state}{q}"))))
        .collect();
    let ans = symbols.fresh_predicate(answer);
    let c = symbols.constant(origin);
    let (y, z) = (Term::Var(symbols.fresh_variable(y)), Term::Var(symbols.fresh_variable(z)));
    let mut rules = Vec::new();
    if let Some(p0) = n_pred[dfa.start()] {
        rules.push(Rule::new(Atom::new(p0, vec![Term::Const(c)]), Vec::new()));
    }
    for q in live.iter().copied() {
        for s in dfa.alphabet.symbols() {
            let (Some(pq), Some(pq2)) = (n_pred[q], n_pred[dfa.step(q, s)]) else {
                continue;
            };
            let hop = if backwards { vec![y, z] } else { vec![z, y] };
            rules.push(Rule::new(
                Atom::new(pq2, vec![y]),
                vec![Atom::new(pq, vec![z]), Atom::new(edge[s.index()], hop)],
            ));
        }
    }
    let (goal, arg) = match at {
        None => (Atom::new(ans, vec![y]), y),
        Some(c1) => (Atom::new(ans, Vec::new()), Term::Const(symbols.constant(c1))),
    };
    for q in live.iter().copied().filter(|&q| dfa.is_accept(q)) {
        if let Some(pq) = n_pred[q] {
            rules.push(Rule::new(goal.clone(), vec![Atom::new(pq, vec![arg])]));
        }
    }
    (rules, goal)
}

/// The rules of a rewrite whose language is empty: `never(X) :-
/// never(X)`, which derives nothing, and `goal`'s predicate over it —
/// `ans(X) :- never(X)`, or `ans :- never(X)` for a 0-ary goal.
fn never_rules(symbols: &mut Symbols, goal: &Atom, x: Var) -> [Rule; 2] {
    let never = Atom::new(symbols.fresh_predicate("never"), vec![Term::Var(x)]);
    let head = Atom::new(goal.pred, goal.args.iter().map(|_| Term::Var(x)).collect());
    [Rule::new(never.clone(), vec![never.clone()]), Rule::new(head, vec![never])]
}

/// The path a word labels, `b_{w[0]}(from, Z0), …, b_{w[last]}(Z, to)`:
/// one atom per letter, over `edge` ([`ChainProgram::edb_preds`]), a
/// fresh variable `Z{i}` between consecutive letters.
pub(crate) fn word_path(
    symbols: &mut Symbols,
    edge: &[Pred],
    word: &[Symbol],
    from: Term,
    to: Term,
) -> Vec<Atom> {
    assert!(!word.is_empty(), "chain languages are ε-free");
    let mut prev = from;
    let mut atoms = Vec::with_capacity(word.len());
    for (i, s) in word.iter().enumerate() {
        let next = if i + 1 == word.len() {
            to
        } else {
            Term::Var(symbols.fresh_variable(&format!("Z{i}")))
        };
        atoms.push(Atom::new(edge[s.index()], vec![prev, next]));
        prev = next;
    }
    atoms
}

/// The diagonal rewrite (Theorem 3.3(2), "if"): for finite
/// `L(H) = {w1, ..., wk}`, one nonrecursive monadic rule per word:
/// `ans(X) :- b_{w_i[0]}(X, Z1), ..., b_{w_i[last]}(Z_{n-1}, X)`.
pub fn tableaux_rewrite(
    chain: &ChainProgram,
    words: &[Vec<Symbol>],
) -> Result<Program, String> {
    if chain.goal_form != GoalForm::Diagonal {
        return Err("tableaux rewrite applies to the p(X, X) goal".to_owned());
    }
    let edge = chain.edb_preds(&chain.alphabet());
    let mut symbols = chain.program.symbols.clone();
    let ans = symbols.fresh_predicate("ans");
    let x = symbols.fresh_variable("X");
    let goal = Atom::new(ans, vec![Term::Var(x)]);
    let mut rules: Vec<Rule> = words
        .iter()
        .map(|w| Rule::new(goal.clone(), word_path(&mut symbols, &edge, w, Term::Var(x), Term::Var(x))))
        .collect();
    if rules.is_empty() {
        rules.extend(never_rules(&mut symbols, &goal, x));
    }
    Ok(Program {
        rules,
        goal,
        symbols,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use selprop_datalog::db::Database;
    use selprop_datalog::eval::{answer, Strategy};
    use selprop_grammar::regular::approximate;

    fn eval_both(
        chain: &ChainProgram,
        rewrite: &Program,
        db_edges: &[(&str, &str, &str)],
    ) -> (Vec<Vec<selprop_datalog::Const>>, Vec<Vec<selprop_datalog::Const>>) {
        let mut p1 = chain.program.clone();
        let mut db1 = Database::new();
        for &(b, u, v) in db_edges {
            let pred = p1.symbols.predicate(b);
            let cu = p1.symbols.constant(u);
            let cv = p1.symbols.constant(v);
            db1.insert(pred, vec![cu, cv]);
        }
        let (a1, _) = answer(&p1, &db1, Strategy::SemiNaive);

        let mut p2 = rewrite.clone();
        let mut db2 = Database::new();
        for &(b, u, v) in db_edges {
            let pred = p2.symbols.predicate(b);
            let cu = p2.symbols.constant(u);
            let cv = p2.symbols.constant(v);
            db2.insert(pred, vec![cu, cv]);
        }
        let (a2, _) = answer(&p2, &db2, Strategy::SemiNaive);
        // compare by rendered constant names (symbol spaces differ)
        let names = |p: &Program, rel: &selprop_datalog::Relation| -> Vec<Vec<String>> {
            let mut v: Vec<Vec<String>> = rel
                .iter()
                .map(|t| t.iter().map(|&c| p.symbols.const_name(c).to_owned()).collect())
                .collect();
            v.sort();
            v
        };
        let n1 = names(&p1, &a1);
        let n2 = names(&p2, &a2);
        assert_eq!(n1, n2, "rewrite must be finite-query equivalent");
        (a1.sorted(), a2.sorted())
    }

    #[test]
    fn ancestor_rewrite_matches_program_d() {
        let chain = ChainProgram::parse(
            "?- anc(john, Y).\n\
             anc(X, Y) :- par(X, Y).\n\
             anc(X, Y) :- anc(X, Z), par(Z, Y).",
        )
        .unwrap();
        let approx = approximate(&chain.grammar());
        assert!(approx.exact);
        let dfa = selprop_automata::minimize::minimize(&approx.dfa());
        let rewrite = monadic_rewrite(&chain, &dfa).unwrap();
        assert!(rewrite.is_monadic());
        eval_both(
            &chain,
            &rewrite,
            &[
                ("par", "john", "a"),
                ("par", "a", "b"),
                ("par", "b", "c"),
                ("par", "x", "y"), // irrelevant island
                ("par", "y", "john"), // incoming edge to john
            ],
        );
    }

    #[test]
    fn bound_second_rewrite() {
        let chain = ChainProgram::parse(
            "?- anc(X, mary).\n\
             anc(X, Y) :- par(X, Y).\n\
             anc(X, Y) :- anc(X, Z), par(Z, Y).",
        )
        .unwrap();
        let approx = approximate(&chain.grammar());
        let dfa = approx.dfa();
        let rewrite = monadic_rewrite(&chain, &dfa).unwrap();
        assert!(rewrite.is_monadic());
        eval_both(
            &chain,
            &rewrite,
            &[
                ("par", "a", "b"),
                ("par", "b", "mary"),
                ("par", "mary", "c"),
                ("par", "z", "w"),
            ],
        );
    }

    #[test]
    fn bound_both_rewrite_boolean() {
        let chain = ChainProgram::parse(
            "?- p(s, t).\n\
             p(X, Y) :- b1(X, X1), b2(X1, Y).\n\
             p(X, Y) :- p(X, Z), b2(Z, Y).",
        )
        .unwrap();
        let approx = approximate(&chain.grammar());
        assert!(approx.exact); // left-linear-ish: p -> b1 b2 | p b2
        let rewrite = monadic_rewrite(&chain, &approx.dfa()).unwrap();
        assert!(rewrite.is_monadic());
        eval_both(
            &chain,
            &rewrite,
            &[("b1", "s", "m"), ("b2", "m", "t"), ("b2", "t", "u")],
        );
        // negative instance
        eval_both(&chain, &rewrite, &[("b1", "s", "m"), ("b1", "m", "t")]);
    }

    #[test]
    fn two_edb_rewrite() {
        // L = b1 b2* (left-linear via p -> b1 | p b2)
        let chain = ChainProgram::parse(
            "?- p(c, Y).\n\
             p(X, Y) :- b1(X, Y).\n\
             p(X, Y) :- p(X, Z), b2(Z, Y).",
        )
        .unwrap();
        let approx = approximate(&chain.grammar());
        assert!(approx.exact);
        let rewrite = monadic_rewrite(&chain, &approx.dfa()).unwrap();
        assert!(rewrite.is_monadic());
        eval_both(
            &chain,
            &rewrite,
            &[
                ("b1", "c", "a"),
                ("b2", "a", "b"),
                ("b2", "b", "d"),
                ("b1", "d", "e"), // b1 later: e not an answer via b1 b2*? it is not reachable as b1 b2*
                ("b2", "c", "z"), // b2 first: z not an answer
            ],
        );
    }

    #[test]
    fn tableaux_rewrite_for_finite_language() {
        // L = {b, b b} — via two nonrecursive chain rules.
        let chain = ChainProgram::parse(
            "?- p(X, X).\n\
             p(X, Y) :- b(X, Y).\n\
             p(X, Y) :- b(X, Z), b(Z, Y).",
        )
        .unwrap();
        let words = chain.language_words(4);
        assert_eq!(words.len(), 2);
        let rewrite = tableaux_rewrite(&chain, &words).unwrap();
        assert!(rewrite.is_monadic());
        // self-loop at a: p(a, a) via b and via b b
        eval_both(
            &chain,
            &rewrite,
            &[("b", "a", "a"), ("b", "u", "v"), ("b", "v", "u")],
        );
    }

    #[test]
    fn rewrite_size_tracks_dfa_size() {
        let chain = ChainProgram::parse(
            "?- anc(john, Y).\n\
             anc(X, Y) :- par(X, Y).\n\
             anc(X, Y) :- anc(X, Z), par(Z, Y).",
        )
        .unwrap();
        let approx = approximate(&chain.grammar());
        let min = selprop_automata::minimize::minimize(&approx.dfa());
        let rewrite = monadic_rewrite(&chain, &min).unwrap();
        // par+: 2 live states → seed + 2·1 step rules + 1 answer rule-ish
        assert!(rewrite.rules.len() <= 6, "rewrite blew up: {}", rewrite.render());
    }
}
