//! Boundedness and first-order expressibility (Proposition 8.2).
//!
//! For a chain program `H` the following are equivalent:
//! (1) the query of `H` is first-order expressible over finite
//! structures, (2) `H` is bounded w.r.t. its goal (derivation-tree size
//! admits a database-independent bound), (3) `L(H)` is finite.
//!
//! Since finiteness of `L(H)` is decidable, so is boundedness for chain
//! programs — in contrast to general Datalog, where it is undecidable
//! (Gaifman–Mairson–Sagiv–Vardi, ref.\[17\]; discussed in Section 9). The
//! decision procedure returns, in the bounded case, the *witnessing FO
//! form*: a nonrecursive union-of-conjunctive-queries program, plus the
//! numeric depth bound; in the unbounded case, a pumping certificate.

use selprop_automata::{Alphabet, Symbol};
use selprop_datalog::ast::{Atom, Program, Rule, Term};
use selprop_datalog::db::Database;
use selprop_datalog::{derivation::Provenance, eval::{answer, Strategy}};
use selprop_grammar::analysis::{finiteness, Finiteness, PumpWitness};

use crate::chain::ChainProgram;
use crate::rewrite::word_path;

/// The boundedness decision.
#[derive(Clone, Debug)]
pub enum Boundedness {
    /// `L(H)` is finite: the program is bounded and FO-expressible.
    Bounded {
        /// A nonrecursive (hence first-order) program equivalent to `H`
        /// under the trivial goal `p(X, Y)` — one conjunctive rule per
        /// word of `L(H)`.
        fo_program: Program,
        /// Every output fact has a derivation of size ≤ this bound
        /// (nodes of the rewrite's derivation tree: one rule + its
        /// leaves).
        depth_bound: usize,
        /// The words of `L(H)`.
        words: Vec<Vec<Symbol>>,
    },
    /// `L(H)` is infinite: unbounded, not FO-expressible.
    Unbounded {
        /// The pumping certificate.
        pump: PumpWitness,
    },
}

impl Boundedness {
    /// Whether the program was found bounded.
    pub fn is_bounded(&self) -> bool {
        matches!(self, Boundedness::Bounded { .. })
    }
}

/// Decides boundedness of a chain program (Prop. 8.2, effective by
/// reduction to CFL finiteness).
pub fn boundedness(chain: &ChainProgram) -> Boundedness {
    let grammar = chain.grammar();
    match finiteness(&grammar) {
        Finiteness::Finite(words) => {
            let fo_program = fo_form(chain, &grammar.alphabet, &words);
            let depth_bound = words.iter().map(Vec::len).max().unwrap_or(0) + 1;
            Boundedness::Bounded {
                fo_program,
                depth_bound,
                words,
            }
        }
        Finiteness::Infinite(pump) => Boundedness::Unbounded { pump },
    }
}

/// The FO (nonrecursive) form: `p_fo(X, Y) :- b_{w[0]}(X, Z0), ...` per
/// word `w ∈ L(H)` (the path [`crate::rewrite`] builds for its tableaux,
/// ending at `Y`), with the original goal's selection re-applied.
fn fo_form(chain: &ChainProgram, alphabet: &Alphabet, words: &[Vec<Symbol>]) -> Program {
    let edge = chain.edb_preds(alphabet);
    let mut symbols = chain.program.symbols.clone();
    let p_fo = symbols.fresh_predicate("p_fo");
    let x = Term::Var(symbols.fresh_variable("X"));
    let y = Term::Var(symbols.fresh_variable("Y"));
    let head = Atom::new(p_fo, vec![x, y]);
    let mut rules: Vec<Rule> = words
        .iter()
        .map(|w| Rule::new(head.clone(), word_path(&mut symbols, &edge, w, x, y)))
        .collect();
    if rules.is_empty() {
        // empty language: p_fo(X, Y) :- p_fo(X, Y). derives nothing
        rules.push(Rule::new(head.clone(), vec![head]));
    }
    // reapply the original goal's selection, with predicate renamed
    let goal = Atom::new(p_fo, chain.program.goal.args.clone());
    Program {
        rules,
        goal,
        symbols,
    }
}

/// Empirical side of Prop. 8.2: the semi-naive stages that derive a fact
/// on each database. For a bounded program the count is constant; for an
/// unbounded one it grows with the data.
pub fn convergence_iterations(chain: &ChainProgram, dbs: &[Database]) -> Vec<usize> {
    dbs.iter()
        .map(|db| answer(&chain.program, db, Strategy::SemiNaive).1.iterations - 1)
        .collect()
}

/// The *direct* Section-8 measure, now computable at scale: the maximum
/// derivation-tree height over all facts derived from each database,
/// read off the columnar engine's recorded justifications
/// ([`selprop_datalog::eval::evaluate_with_provenance`]). Boundedness is
/// *defined* through bounded tree size; for a bounded program this is
/// constant in the data, for an unbounded one it grows. Unlike
/// [`convergence_iterations`] (a proxy via fixpoint stages), this
/// measures the trees themselves — iteratively, so chain databases deep
/// enough to overflow a recursive traversal are fine.
pub fn derivation_heights(chain: &ChainProgram, dbs: &[Database]) -> Vec<u64> {
    dbs.iter()
        .map(|db| Provenance::compute(&chain.program, db).max_height())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_db(program: &mut Program, n: usize) -> Database {
        let edb = program.edb_predicates()[0];
        let mut db = Database::new();
        let mut prev = program.symbols.constant("v0");
        for i in 1..=n {
            let c = program.symbols.constant(&format!("v{i}"));
            db.insert(edb, vec![prev, c]);
            prev = c;
        }
        db
    }

    #[test]
    fn nonrecursive_chain_is_bounded() {
        let chain = ChainProgram::parse(
            "?- p(c, Y).\n\
             p(X, Y) :- b(X, Y).\n\
             p(X, Y) :- b(X, Z), b(Z, Y).",
        )
        .unwrap();
        match boundedness(&chain) {
            Boundedness::Bounded {
                fo_program,
                depth_bound,
                words,
            } => {
                assert_eq!(words.len(), 2);
                assert_eq!(depth_bound, 3);
                // FO form equivalent to the original under the goal
                let mut orig = chain.program.clone();
                let db = chain_db(&mut orig, 4);
                let (want, _) = answer(&orig, &db, Strategy::SemiNaive);
                let mut fo = fo_program;
                let db2 = chain_db(&mut fo, 4);
                let (got, _) = answer(&fo, &db2, Strategy::SemiNaive);
                // same symbol universe names: compare by name
                let names = |p: &Program, r: &selprop_datalog::Relation| {
                    let mut v: Vec<Vec<String>> = r
                        .iter()
                        .map(|t| {
                            t.iter()
                                .map(|&c| p.symbols.const_name(c).to_owned())
                                .collect()
                        })
                        .collect();
                    v.sort();
                    v
                };
                assert_eq!(names(&orig, &want), names(&fo, &got));
            }
            Boundedness::Unbounded { .. } => panic!("finite language must be bounded"),
        }
    }

    #[test]
    fn ancestor_is_unbounded() {
        let chain = ChainProgram::parse(
            "?- anc(c, Y).\n\
             anc(X, Y) :- par(X, Y).\n\
             anc(X, Y) :- anc(X, Z), par(Z, Y).",
        )
        .unwrap();
        assert!(!boundedness(&chain).is_bounded());
    }

    #[test]
    fn convergence_profile_separates() {
        // bounded program: iterations constant in n
        let bounded = ChainProgram::parse(
            "?- p(c, Y).\n\
             p(X, Y) :- b(X, Y).\n\
             p(X, Y) :- b(X, Z), b(Z, Y).",
        )
        .unwrap();
        // rebuild per size so each database names a fresh chain; clones
        // of the same program intern identical names to identical ids
        let mut p1 = bounded.program.clone();
        let mut p2 = bounded.program.clone();
        let mut p3 = bounded.program.clone();
        let dbs = vec![chain_db(&mut p1, 3), chain_db(&mut p2, 6), chain_db(&mut p3, 9)];
        let mut with_syms = bounded;
        with_syms.program.symbols = p3.symbols; // superset of constants
        let iters = convergence_iterations(&with_syms, &dbs);
        assert!(
            iters.windows(2).all(|w| w[0] == w[1]),
            "bounded: constant iterations, got {iters:?}"
        );

        // unbounded program: iterations grow
        let unbounded = ChainProgram::parse(
            "?- anc(c, Y).\n\
             anc(X, Y) :- par(X, Y).\n\
             anc(X, Y) :- anc(X, Z), par(Z, Y).",
        )
        .unwrap();
        let mut q1 = unbounded.program.clone();
        let mut q2 = unbounded.program.clone();
        let dbs2 = vec![chain_db(&mut q1, 3), chain_db(&mut q2, 8)];
        let mut u = unbounded;
        u.program.symbols = q2.symbols;
        let iters2 = convergence_iterations(&u, &dbs2);
        assert!(iters2[1] > iters2[0], "unbounded: growing iterations, got {iters2:?}");
    }

    #[test]
    fn derivation_heights_separate_bounded_from_unbounded() {
        // Bounded program: max derivation-tree height is a constant
        // (here 3: p-node over one or two b-leaves) at every data size —
        // the definitional form of Section 8 boundedness.
        let bounded = ChainProgram::parse(
            "?- p(c, Y).\n\
             p(X, Y) :- b(X, Y).\n\
             p(X, Y) :- b(X, Z), b(Z, Y).",
        )
        .unwrap();
        let mut p1 = bounded.program.clone();
        let mut p2 = bounded.program.clone();
        let mut p3 = bounded.program.clone();
        let dbs = vec![chain_db(&mut p1, 3), chain_db(&mut p2, 8), chain_db(&mut p3, 16)];
        let mut with_syms = bounded.clone();
        with_syms.program.symbols = p3.symbols;
        let hs = derivation_heights(&with_syms, &dbs);
        assert!(
            hs.windows(2).all(|w| w[0] == w[1]),
            "bounded: constant tree height, got {hs:?}"
        );
        assert!(hs[0] <= 3, "p over b-leaves: height ≤ 3, got {hs:?}");

        // The FO rewrite's derivations are one rule node over EDB
        // leaves: height exactly 2, size within the decision's bound.
        if let Boundedness::Bounded { fo_program, depth_bound, .. } = boundedness(&bounded) {
            let mut fo = fo_program;
            let db = chain_db(&mut fo, 8);
            let prov = Provenance::compute(&fo, &db);
            assert!(prov.num_derived() > 0);
            assert_eq!(prov.max_height(), 2, "FO form: rule node over leaves");
            for atom in prov.derived() {
                let size = prov.tree_size(&atom).expect("derived fact has a tree");
                assert!(
                    size as usize <= depth_bound + 1,
                    "FO derivation size {size} exceeds bound {depth_bound}"
                );
            }
        } else {
            panic!("finite language must be bounded");
        }

        // Unbounded program: the deepest tree tracks the chain length.
        let unbounded = ChainProgram::parse(
            "?- anc(c, Y).\n\
             anc(X, Y) :- par(X, Y).\n\
             anc(X, Y) :- anc(X, Z), par(Z, Y).",
        )
        .unwrap();
        let mut q1 = unbounded.program.clone();
        let mut q2 = unbounded.program.clone();
        let dbs2 = vec![chain_db(&mut q1, 4), chain_db(&mut q2, 12)];
        let mut u = unbounded;
        u.program.symbols = q2.symbols;
        let hs2 = derivation_heights(&u, &dbs2);
        assert!(hs2[1] > hs2[0], "unbounded: growing tree height, got {hs2:?}");
        assert_eq!(hs2[1], 13, "left-linear anc: height = chain length + 1");
    }
}
