//! Property tests for the propagation engine: random *regular-by-
//! construction* chain programs must always propagate, and their rewrites
//! must agree with the originals on random databases; random chain
//! programs never produce an unsound outcome.

use proptest::prelude::*;
use selprop_core::chain::{ChainProgram, GoalForm};
use selprop_core::propagate::{propagate, Propagation};
use selprop_core::workload;
use selprop_datalog::eval::{answer, Strategy as EvalStrategy};
use selprop_grammar::cnf::CnfGrammar;

/// Builds a random right-linear chain program over EDBs {b1, b2}:
/// guaranteed-regular language, arbitrary shape.
fn arb_right_linear() -> impl Strategy<Value = String> {
    // rules: p -> terminal word (1..3) | terminal word then p
    let word = proptest::collection::vec(0u8..2, 1..3);
    proptest::collection::vec((word, proptest::bool::ANY), 1..4).prop_map(|rules| {
        let mut s = String::from("?- p(c, Y).\n");
        let mut any_base = false;
        for (w, recurse) in &rules {
            let mut vars = vec!["X".to_owned()];
            for i in 0..w.len() {
                vars.push(format!("V{i}"));
            }
            *vars.last_mut().unwrap() = "Y".to_owned();
            let mut body: Vec<String> = w
                .iter()
                .enumerate()
                .map(|(i, &b)| format!("b{}({}, {})", b + 1, vars[i], vars[i + 1]))
                .collect();
            if *recurse {
                // rewrite last hop through p: ... p(Vk, Y)
                let k = w.len();
                let pre_var = if k == 1 { "X" } else { &vars[k - 1] };
                body.pop();
                body.push(format!("b{}({}, M)", w[k - 1] + 1, pre_var));
                body.push("p(M, Y)".to_owned());
            } else {
                any_base = true;
            }
            s.push_str(&format!("p(X, Y) :- {}.\n", body.join(", ")));
        }
        if !any_base {
            s.push_str("p(X, Y) :- b1(X, Y).\n");
        }
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn right_linear_programs_always_propagate(src in arb_right_linear()) {
        let chain = ChainProgram::parse(&src).expect("generated program is chain");
        prop_assert_eq!(&chain.goal_form, &GoalForm::BoundFirst("c".to_owned()));
        let outcome = propagate(&chain).unwrap();
        prop_assert!(outcome.is_propagated(), "right-linear must propagate: {}", src);
    }

    #[test]
    fn rewrites_agree_with_originals(src in arb_right_linear(), seed in 0u64..1000) {
        let chain = ChainProgram::parse(&src).unwrap();
        let Propagation::Propagated { program, .. } = propagate(&chain).unwrap() else {
            return Err(TestCaseError::fail("should propagate"));
        };
        prop_assert!(program.is_monadic());
        let mut p1 = chain.program;
        let db1 = workload::random_labeled_digraph(&mut p1, &["b1", "b2"], "c", 10, 24, seed);
        let mut p2 = program;
        let db2 = workload::random_labeled_digraph(&mut p2, &["b1", "b2"], "c", 10, 24, seed);
        let run = |p: &selprop_datalog::Program, db: &selprop_datalog::Database| {
            let (ans, _) = answer(p, db, EvalStrategy::SemiNaive);
            let mut v: Vec<Vec<String>> = ans
                .iter()
                .map(|t| t.iter().map(|&c| p.symbols.const_name(c).to_owned()).collect())
                .collect();
            v.sort();
            v
        };
        prop_assert_eq!(run(&p1, &db1), run(&p2, &db2));
    }

    #[test]
    fn diagonal_outcomes_are_sound(src in arb_right_linear()) {
        // switch the goal to p(X, X): outcome must be Propagated (finite)
        // or Impossible (infinite) and certificates must check out.
        let base = ChainProgram::parse(&src).unwrap();
        let p = base.goal_pred();
        let mut program = base.program;
        let x = program.symbols.variable("X");
        program.goal = selprop_datalog::Atom::new(
            p,
            vec![selprop_datalog::Term::Var(x), selprop_datalog::Term::Var(x)],
        );
        let chain = ChainProgram::from_program(program).unwrap();
        match propagate(&chain).unwrap() {
            Propagation::Propagated { program, .. } => {
                prop_assert!(program.is_monadic());
            }
            Propagation::Impossible { pump } => {
                let cnf = CnfGrammar::from_cfg(&chain.grammar());
                for i in 0..3 {
                    prop_assert!(cnf.accepts(&pump.word(i)));
                }
            }
            Propagation::Unknown(_) => {
                return Err(TestCaseError::fail("diagonal goals are decidable"));
            }
        }
    }

    #[test]
    fn certificates_match_language_membership(src in arb_right_linear()) {
        // the certificate DFA and the grammar agree on short words
        let chain = ChainProgram::parse(&src).unwrap();
        let Propagation::Propagated { certificate, .. } = propagate(&chain).unwrap() else {
            return Err(TestCaseError::fail("should propagate"));
        };
        let dfa = certificate.dfa(&chain);
        let cnf = CnfGrammar::from_cfg(&chain.grammar());
        for w in dfa.words_up_to(5) {
            prop_assert!(cnf.accepts(&w), "certificate DFA accepted {:?} not in L(H)", w);
        }
        for w in selprop_grammar::analysis::words_up_to(&chain.grammar(), 5) {
            prop_assert!(dfa.accepts_word(&w), "certificate DFA missed a language word");
        }
    }
}
