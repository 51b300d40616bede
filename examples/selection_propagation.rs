//! The decision pipeline (Theorem 3.3 / Corollary 3.4) on a gallery of
//! chain programs: regular, finite, non-regular and grammar-obscured
//! languages, under both constant and diagonal selections.
//!
//! ```bash
//! cargo run --example selection_propagation
//! ```

use selprop_core::chain::ChainProgram;
use selprop_core::propagate::{propagate, Propagation, PropagationBudget};

const GALLERY: [(&str, &str); 7] = [
    (
        "par+ via left-linear rules, goal anc(c, Y)",
        "?- anc(c, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), par(Z, Y).",
    ),
    (
        "par+ via right-linear rules, goal anc(X, c)",
        "?- anc(X, c).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- par(X, Z), anc(Z, Y).",
    ),
    (
        "par+ via nonlinear rules (grammar hides regularity)",
        "?- anc(c, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), anc(Z, Y).",
    ),
    (
        "finite {b1, b1 b2}, goal p(c, Y)",
        "?- p(c, Y).\np(X, Y) :- b1(X, Y).\np(X, Y) :- b1(X, Z), b2(Z, Y).",
    ),
    (
        "b1^n b2^n (not regular), goal p(c, Y)",
        "?- p(c, Y).\np(X, Y) :- b1(X, X1), b2(X1, Y).\np(X, Y) :- b1(X, X1), p(X1, X2), b2(X2, Y).",
    ),
    (
        "finite {b, bb}, diagonal goal p(X, X)",
        "?- p(X, X).\np(X, Y) :- b(X, Y).\np(X, Y) :- b(X, Z), b(Z, Y).",
    ),
    (
        "b+ (Program CYCLE), diagonal goal p(X, X)",
        "?- p(X, X).\np(X, Y) :- b(X, Y).\np(X, Y) :- p(X, Z), b(Z, Y).",
    ),
];

fn main() {
    for (label, src) in GALLERY {
        let chain = ChainProgram::parse(src).expect("gallery programs are chain programs");
        println!("─── {label}");
        println!("    goal form: {:?}", chain.goal_form);
        match propagate(&chain).expect("selection goal") {
            Propagation::Propagated {
                program,
                certificate,
            } => {
                println!("    PROPAGATED — {}", certificate.describe());
                let idbs = program.idb_predicates().len();
                println!(
                    "    monadic rewrite: {} rules, {} monadic IDB(s)",
                    program.rules.len(),
                    idbs
                );
            }
            Propagation::Impossible { pump } => {
                println!(
                    "    IMPOSSIBLE — L(H) is infinite; pumping at nonterminal '{}'",
                    pump.nonterminal
                );
                let g = chain.grammar();
                let show = |w: &[selprop_automata::Symbol]| g.alphabet.render_word(w);
                println!(
                    "    witness family: {} / {} / {} ...",
                    show(&pump.word(0)),
                    show(&pump.word(1)),
                    show(&pump.word(2)),
                );
            }
            Propagation::Unknown(undecided) => {
                println!("    UNKNOWN — the undecidable region (Corollary 3.4)");
                let ev = undecided.evidence(PropagationBudget::default());
                if let Some(nt) = &ev.self_embedding_nonterminal {
                    println!("    grammar self-embeds at '{nt}'");
                }
                println!(
                    "    envelope R(H): {} states; tight on sample: {}; Nerode lower bound: {}",
                    ev.envelope.num_states(),
                    ev.envelope_tight_on_sample,
                    ev.nerode_lower_bound
                );
            }
        }
        println!();
    }
}
