//! Chain Datalog programs and their associated grammars (Section 2.1,
//! definition (1), and the Section 3 grammar construction).
//!
//! A **chain rule** has the form
//!
//! ```text
//! r(X, Y) :- r1(X, X1), r2(X1, X2), ..., rn(Xn-1, Y).     (n ≥ 1)
//! ```
//!
//! with all predicates binary and the variables distinct. A **chain
//! program** is a program of chain rules; its goal takes one of six
//! forms: `p(X, Y)`, `p(X, X)`, `p(c, Y)`, `p(X, c)`, `p(c, c1)`,
//! `p(c, c)`. The grammar `G(H)` replaces IDBs by nonterminals, EDBs by
//! terminals, rules by productions, and the goal predicate by the start
//! symbol; `L(H) = L(G(H))`.

use selprop_automata::{Alphabet, Symbol};
use selprop_datalog::ast::{Atom, Pred, Program, Term, Var};
use selprop_grammar::cfg::{Cfg, Sym};

/// The six goal forms of Section 2.1 (the five selection forms plus the
/// unselected `p(X, Y)`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GoalForm {
    /// `p(X, Y)` — no selection.
    Free,
    /// `p(c, Y)` — constant in the first argument.
    BoundFirst(String),
    /// `p(X, c)` — constant in the second argument.
    BoundSecond(String),
    /// `p(c, c1)` — two (distinct or equal) constants; the paper's
    /// `p(c, c1)` and `p(c, c)` cases, distinguished by string equality.
    BoundBoth(String, String),
    /// `p(X, X)` — the diagonal selection.
    Diagonal,
}

impl GoalForm {
    /// Whether the goal mentions a constant (the undecidable side of
    /// Corollary 3.4).
    pub fn has_constant(&self) -> bool {
        matches!(
            self,
            GoalForm::BoundFirst(_) | GoalForm::BoundSecond(_) | GoalForm::BoundBoth(_, _)
        )
    }
}

/// A validated chain program.
#[derive(Clone, Debug)]
pub struct ChainProgram {
    /// The underlying Datalog program.
    pub program: Program,
    /// The classified goal form.
    pub goal_form: GoalForm,
}

impl ChainProgram {
    /// Parses and validates a chain program from the paper's surface
    /// syntax.
    pub fn parse(text: &str) -> Result<ChainProgram, String> {
        let program = selprop_datalog::parser::parse_program(text)?;
        ChainProgram::from_program(program)
    }

    /// Validates an existing program as a chain program and classifies
    /// its goal.
    pub fn from_program(program: Program) -> Result<ChainProgram, String> {
        for rule in &program.rules {
            validate_chain_rule(&program, rule)?;
        }
        let goal_form = classify_goal(&program)?;
        Ok(ChainProgram { program, goal_form })
    }

    /// The goal predicate.
    pub fn goal_pred(&self) -> Pred {
        self.program.goal.pred
    }

    /// The EDB predicates, in first-appearance order (the alphabet `Σ`).
    pub fn edbs(&self) -> Vec<Pred> {
        self.program.edb_predicates()
    }

    /// The terminal alphabet `Σ` of `G(H)`: one symbol per EDB name, in
    /// [`ChainProgram::edbs`] order.
    pub(crate) fn alphabet(&self) -> Alphabet {
        Alphabet::from_names(self.edbs().iter().map(|&p| self.program.symbols.pred_name(p)))
    }

    /// The EDB predicate each symbol of `alphabet` names, indexed by
    /// [`Symbol::index`] — the one lookup of a letter's predicate.
    pub(crate) fn edb_preds(&self, alphabet: &Alphabet) -> Vec<Pred> {
        let (edbs, names) = (self.edbs(), &self.program.symbols);
        let named = |s: Symbol| edbs.iter().find(|&&p| names.pred_name(p) == alphabet.name(s));
        alphabet.symbols().map(|s| *named(s).expect("alphabet symbol names an EDB")).collect()
    }

    /// The grammar `G(H)` of Section 3. Terminals are EDB names,
    /// nonterminals IDB names, the start symbol is the goal predicate.
    pub fn grammar(&self) -> Cfg {
        let idbs = self.program.idb_predicates();
        // start must be the goal predicate: list it first
        let goal = self.goal_pred();
        let mut order: Vec<Pred> = vec![goal];
        order.extend(idbs.iter().copied().filter(|&p| p != goal));
        let mut cfg = Cfg::new(self.alphabet(), self.program.symbols.pred_name(goal));
        for &p in &order[1..] {
            cfg.add_nonterminal(self.program.symbols.pred_name(p));
        }
        let nt_of = |p: Pred| -> selprop_grammar::NonTerminal {
            let i = order.iter().position(|&q| q == p).expect("idb");
            selprop_grammar::NonTerminal(i as u32)
        };
        for rule in &self.program.rules {
            let body = rule
                .body
                .iter()
                .map(|a| {
                    if idbs.contains(&a.pred) {
                        Sym::N(nt_of(a.pred))
                    } else {
                        let name = self.program.symbols.pred_name(a.pred);
                        Sym::T(cfg.alphabet.get(name).expect("edb interned"))
                    }
                })
                .collect();
            cfg.add_production(nt_of(rule.head.pred), body);
        }
        cfg
    }

    /// Words of `L(H)` up to a length bound (via the grammar).
    pub fn language_words(&self, max_len: usize) -> Vec<Vec<Symbol>> {
        selprop_grammar::analysis::words_up_to(&self.grammar(), max_len)
    }

    /// Replaces the goal, revalidating the form (used to compare the same
    /// rules under different selections).
    pub fn with_goal(&self, goal: Atom) -> Result<ChainProgram, String> {
        let mut program = self.program.clone();
        program.goal = goal;
        ChainProgram::from_program(program)
    }
}

fn validate_chain_rule(
    program: &Program,
    rule: &selprop_datalog::ast::Rule,
) -> Result<(), String> {
    let render = || program.render_rule(rule);
    // head: two distinct variables
    let (hx, hy) = match rule.head.args.as_slice() {
        [Term::Var(x), Term::Var(y)] if x != y => (*x, *y),
        _ => {
            return Err(format!(
                "chain rule head must be p(X, Y) with distinct variables: {}",
                render()
            ))
        }
    };
    if rule.body.is_empty() {
        return Err(format!("chain rule body must be nonempty: {}", render()));
    }
    // body: binary atoms threading X -> X1 -> ... -> Y
    let mut expected: Var = hx;
    let mut seen: Vec<Var> = vec![hx];
    for (i, atom) in rule.body.iter().enumerate() {
        let (ax, ay) = match atom.args.as_slice() {
            [Term::Var(x), Term::Var(y)] => (*x, *y),
            _ => {
                return Err(format!(
                    "chain body atoms must be binary over variables: {}",
                    render()
                ))
            }
        };
        if ax != expected {
            return Err(format!(
                "chain variables must thread left to right: {}",
                render()
            ));
        }
        let last = i == rule.body.len() - 1;
        if last {
            if ay != hy {
                return Err(format!(
                    "last body atom must end at the head's second variable: {}",
                    render()
                ));
            }
        } else {
            if seen.contains(&ay) || ay == hy {
                return Err(format!("chain variables must be distinct: {}", render()));
            }
            seen.push(ay);
        }
        expected = ay;
    }
    Ok(())
}

fn classify_goal(program: &Program) -> Result<GoalForm, String> {
    let goal = &program.goal;
    if goal.arity() != 2 {
        return Err("chain program goals are binary".to_owned());
    }
    let name = |c: selprop_datalog::ast::Const| program.symbols.const_name(c).to_owned();
    Ok(match (goal.args[0], goal.args[1]) {
        (Term::Var(x), Term::Var(y)) if x == y => GoalForm::Diagonal,
        (Term::Var(_), Term::Var(_)) => GoalForm::Free,
        (Term::Const(c), Term::Var(_)) => GoalForm::BoundFirst(name(c)),
        (Term::Var(_), Term::Const(c)) => GoalForm::BoundSecond(name(c)),
        (Term::Const(c), Term::Const(d)) => GoalForm::BoundBoth(name(c), name(d)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use selprop_grammar::analysis::{finiteness, Finiteness};

    const PROGRAM_A: &str = "?- anc(john, Y).\n\
                             anc(X, Y) :- par(X, Y).\n\
                             anc(X, Y) :- anc(X, Z), par(Z, Y).";

    #[test]
    fn program_a_is_chain() {
        let c = ChainProgram::parse(PROGRAM_A).unwrap();
        assert_eq!(c.goal_form, GoalForm::BoundFirst("john".to_owned()));
        assert!(c.goal_form.has_constant());
    }

    #[test]
    fn goal_forms_classified() {
        let base = "p(X, Y) :- b(X, Y).\np(X, Y) :- p(X, Z), b(Z, Y).";
        let cases = [
            ("?- p(X, Y).", GoalForm::Free),
            ("?- p(X, X).", GoalForm::Diagonal),
            ("?- p(c, Y).", GoalForm::BoundFirst("c".into())),
            ("?- p(X, c).", GoalForm::BoundSecond("c".into())),
            ("?- p(c, d).", GoalForm::BoundBoth("c".into(), "d".into())),
            ("?- p(c, c).", GoalForm::BoundBoth("c".into(), "c".into())),
        ];
        for (goal, form) in cases {
            let c = ChainProgram::parse(&format!("{goal}\n{base}")).unwrap();
            assert_eq!(c.goal_form, form, "for {goal}");
        }
    }

    #[test]
    fn non_chain_rules_rejected() {
        // repeated variable in head
        assert!(ChainProgram::parse("?- p(X, X).\np(X, X) :- b(X, X).").is_err());
        // unary atom in body
        assert!(ChainProgram::parse("?- p(c, Y).\np(X, Y) :- u(X), b(X, Y).").is_err());
        // broken threading
        assert!(
            ChainProgram::parse("?- p(c, Y).\np(X, Y) :- b(X, Z), b(X, Y).").is_err()
        );
        // constants in body
        assert!(ChainProgram::parse("?- p(c, Y).\np(X, Y) :- b(X, c), b(c, Y).").is_err());
        // empty body (fact)
        assert!(ChainProgram::parse("?- p(c, Y).\np(a, b).").is_err());
        // non-binary goal predicate
        assert!(ChainProgram::parse("?- q(X).\nq(X) :- e(X, X).").is_err());
    }

    #[test]
    fn grammar_of_program_a() {
        let c = ChainProgram::parse(PROGRAM_A).unwrap();
        let g = c.grammar();
        assert_eq!(g.num_nonterminals(), 1);
        assert_eq!(g.productions.len(), 2);
        match finiteness(&g) {
            Finiteness::Infinite(_) => {}
            Finiteness::Finite(_) => panic!("ancestor language is infinite"),
        }
        // L(H) = par+
        let words = c.language_words(3);
        assert_eq!(words.len(), 3);
    }

    #[test]
    fn grammar_start_is_goal_pred() {
        // goal predicate is not the first rule's head
        let src = "?- q(c, Y).\n\
                   p(X, Y) :- b1(X, Y).\n\
                   q(X, Y) :- p(X, Z), b2(Z, Y).";
        let c = ChainProgram::parse(src).unwrap();
        let g = c.grammar();
        assert_eq!(g.name(g.start), "q");
        let words = c.language_words(2);
        assert_eq!(words.len(), 1); // b1 b2
        assert_eq!(words[0].len(), 2);
    }

    #[test]
    fn with_goal_reclassifies() {
        let c = ChainProgram::parse(PROGRAM_A).unwrap();
        let anc = c.goal_pred();
        let mut program = c.program.clone();
        let x = program.symbols.variable("X");
        let goal = Atom::new(anc, vec![Term::Var(x), Term::Var(x)]);
        let c2 = c.with_goal(goal).unwrap();
        assert_eq!(c2.goal_form, GoalForm::Diagonal);
        let _ = program;
    }

    #[test]
    fn multi_edb_chain() {
        let src = "?- p(c, Y).\n\
                   p(X, Y) :- b1(X, X1), b2(X1, Y).\n\
                   p(X, Y) :- b1(X, X1), p(X1, X2), b2(X2, Y).";
        let c = ChainProgram::parse(src).unwrap();
        let g = c.grammar();
        assert_eq!(g.alphabet.len(), 2);
        // L = b1^n b2^n
        let words = c.language_words(4);
        assert_eq!(words.len(), 2);
    }
}
