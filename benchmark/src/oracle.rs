//! Correctness, outside the timed regions. Episode 0 is the checked
//! episode: the oracle mirrors the EDB in a plain [`Database`] and
//! answers every question from scratch — by `magic_transform` +
//! `answer` per goal, by one `evaluate` per EDB state, or (in `--smoke`
//! sizes, after every op) by the textbook `reference` evaluator. Later
//! episodes only compare answer hashes with episode 0.

use selprop_datalog::ast::{Atom, Program, Term};
use selprop_datalog::db::{Database, Relation};
use selprop_datalog::eval::{answer, apply_goal, evaluate, Strategy};
use selprop_datalog::magic::magic_transform;
use selprop_datalog::{reference, UpdateRound};

use crate::catalog::OracleKind;

/// How expected answers are produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// See [`OracleKind`].
    Full(OracleKind),
    /// `reference::evaluate` — the executable specification.
    Reference,
}

/// The from-scratch oracle and the run's `attempted`/`failed` tally.
pub struct Oracle {
    program: Program,
    mirror: Database,
    mode: Mode,
    /// The IDB model of the current mirror, when already computed.
    model: Option<Database>,
    /// `--corrupt-oracle`: flip one tuple of the next expected answer.
    corrupt_pending: bool,
    /// Checked comparisons so far.
    pub attempted: u64,
    /// Comparisons that disagreed.
    pub failed: u64,
    /// The first few disagreements, for the report.
    pub failures: Vec<String>,
}

impl Oracle {
    /// An oracle for `program` over the initial EDB `db`.
    pub fn new(program: &Program, db: &Database, mode: Mode, corrupt: bool) -> Self {
        Self {
            program: program.clone(),
            mirror: db.clone(),
            mode,
            model: None,
            corrupt_pending: corrupt,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Whether every op is checked (smoke sizes).
    pub fn checks_every_op(&self) -> bool {
        self.mode == Mode::Reference
    }

    /// The mirrored EDB.
    pub fn mirror(&self) -> &Database {
        &self.mirror
    }

    /// Mirrors one round (retracts before inserts, as the engine does).
    pub fn apply(&mut self, round: &UpdateRound) {
        for (p, t) in &round.retracts {
            self.mirror.remove(*p, t);
        }
        for (p, t) in &round.inserts {
            self.mirror.insert(*p, t.clone());
        }
        self.model = None;
    }

    /// The from-scratch IDB model of the current mirror.
    pub fn model(&mut self) -> &Database {
        if self.model.is_none() {
            let idb = match self.mode {
                Mode::Reference => {
                    reference::evaluate(&self.program, &self.mirror, Strategy::SemiNaive).idb
                }
                Mode::Full(_) => evaluate(&self.program, &self.mirror, Strategy::SemiNaive).idb,
            };
            self.model = Some(idb);
        }
        self.model.as_ref().expect("just computed")
    }

    /// The expected answer of `goal` over the current mirror.
    pub fn expected(&mut self, goal: &Atom) -> Relation {
        let mut rel = if self.mode == Mode::Full(OracleKind::MagicPerGoal) {
            let mut p = self.program.clone();
            p.goal = goal.clone();
            let magic = magic_transform(&p).expect("bound goal transforms");
            answer(&magic.program, &self.mirror, Strategy::SemiNaive).0
        } else {
            match self.model().relation(goal.pred) {
                Some(r) => apply_goal(goal, r),
                None => apply_goal(goal, &Relation::new(goal.arity())),
            }
        };
        if self.corrupt_pending {
            self.corrupt_pending = false;
            let first = rel.iter().next().cloned();
            match first {
                Some(t) => {
                    rel.remove(&t);
                }
                None => {
                    let bogus = goal.args.iter().find_map(|a| match a {
                        Term::Const(c) => Some(*c),
                        Term::Var(_) => None,
                    });
                    rel.insert(vec![bogus.expect("bound goal"); rel.arity()]);
                }
            }
        }
        rel
    }

    /// Records one comparison.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Compares `got` with the expected answer of `goal`.
    pub fn check_goal(&mut self, goal: &Atom, got: &Relation, at: &str) {
        let expected = self.expected(goal);
        let ok = expected == *got;
        let (e, g) = (expected.len(), got.len());
        self.record(ok, || {
            format!("{at}: answer of {goal:?} has {g} tuples, oracle {e}")
        });
    }

    /// Compares a whole IDB model with the from-scratch one.
    pub fn check_model(&mut self, got: &Database, at: &str) {
        let nonempty = |db: &Database| -> Vec<_> {
            db.sorted_models()
                .into_iter()
                .filter(|(_, rows)| !rows.is_empty())
                .collect()
        };
        let expected = nonempty(self.model());
        let ok = expected == nonempty(got);
        self.record(ok, || {
            format!("{at}: IDB model differs from the from-scratch model")
        });
    }
}
