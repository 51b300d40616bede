//! Datalog abstract syntax: terms, atoms, rules, programs, goals.
//!
//! The syntax follows Section 2.1 of the paper exactly: three disjoint
//! interned symbol spaces (constants, variables, predicates), atoms
//! `r(u)` over them, rules `r(u) :- r1(u1), ..., rn(un)`, and a program
//! as a finite set of rules plus a distinguished **goal** atom whose
//! predicate heads some rule.

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// An interned constant (`c, c1, ...` in the paper; `john` in Example 1.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Const(pub u32);

/// An interned variable (`X, Y, Z, X1, ...`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

/// An interned predicate symbol (`p, p1, b, b1, ...`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pred(pub u32);

impl fmt::Debug for Const {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}
impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "V{}", self.0)
    }
}
impl fmt::Debug for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

thread_local! {
    /// Names deep-copied on this thread so far (see [`Symbols::names_copied`]).
    static NAMES_COPIED: Cell<usize> = const { Cell::new(0) };
}

/// Interning table for one symbol space.
#[derive(Debug, Default)]
struct Space {
    names: Vec<String>,
    index: HashMap<String, u32>,
}

/// The one place a name table is deep-copied — `Arc::make_mut` on a
/// shared space calls it — so the one place the copy counter is bumped.
impl Clone for Space {
    fn clone(&self) -> Self {
        NAMES_COPIED.with(|n| n.set(n.get() + self.names.len()));
        Self {
            names: self.names.clone(),
            index: self.index.clone(),
        }
    }
}

impl Space {
    /// Looks `name` up first: a name the table already has never unshares
    /// it; an absent one copies a shared space once, then appends.
    fn intern(this: &mut Arc<Self>, name: &str) -> u32 {
        if let Some(i) = this.get(name) {
            return i;
        }
        let space = Arc::make_mut(this);
        let i = u32::try_from(space.names.len()).expect("symbol space overflow");
        space.names.push(name.to_owned());
        space.index.insert(name.to_owned(), i);
        i
    }
    fn get(&self, name: &str) -> Option<u32> {
        self.index.get(name).copied()
    }
    fn name(&self, i: u32) -> &str {
        &self.names[i as usize]
    }
}

/// The three disjoint symbol spaces of a program and its databases.
///
/// **Sharing contract.** `clone` is O(1): each space sits behind an
/// `Arc`, and a clone shares all three with its source. Lookups
/// (`get_*`, `*_name`, `num_*`) and interning a name the table *already
/// has* never copy anything. Interning a *new* name into a table that
/// shares that space with another holder copies that one space first —
/// the cost an eager `clone` used to pay, paid later, for one space
/// instead of three, and at most once per holder (afterwards the space
/// is its own). Clones are independent: a name interned into one is
/// absent from the others, and ids never move.
#[derive(Clone, Debug, Default)]
pub struct Symbols {
    consts: Arc<Space>,
    vars: Arc<Space>,
    preds: Arc<Space>,
}

impl Symbols {
    /// Creates empty symbol spaces.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a constant name.
    pub fn constant(&mut self, name: &str) -> Const {
        Const(Space::intern(&mut self.consts, name))
    }
    /// Interns a variable name.
    pub fn variable(&mut self, name: &str) -> Var {
        Var(Space::intern(&mut self.vars, name))
    }
    /// Interns a predicate name.
    pub fn predicate(&mut self, name: &str) -> Pred {
        Pred(Space::intern(&mut self.preds, name))
    }

    /// Looks up a constant without interning.
    pub fn get_constant(&self, name: &str) -> Option<Const> {
        self.consts.get(name).map(Const)
    }
    /// Looks up a predicate without interning.
    pub fn get_predicate(&self, name: &str) -> Option<Pred> {
        self.preds.get(name).map(Pred)
    }
    /// Looks up a variable without interning.
    pub fn get_variable(&self, name: &str) -> Option<Var> {
        self.vars.get(name).map(Var)
    }

    /// The name of a constant.
    pub fn const_name(&self, c: Const) -> &str {
        self.consts.name(c.0)
    }
    /// The name of a variable.
    pub fn var_name(&self, v: Var) -> &str {
        self.vars.name(v.0)
    }
    /// The name of a predicate.
    pub fn pred_name(&self, p: Pred) -> &str {
        self.preds.name(p.0)
    }

    /// Number of interned predicates.
    pub fn num_predicates(&self) -> usize {
        self.preds.names.len()
    }

    /// Number of interned variables.
    pub fn num_variables(&self) -> usize {
        self.vars.names.len()
    }

    /// How many names this thread has deep-copied so far, over all tables:
    /// the test hook behind "no cold path copies a constant". Only
    /// differences between two reads mean anything.
    #[doc(hidden)]
    pub fn names_copied() -> usize {
        NAMES_COPIED.with(Cell::get)
    }

    /// Makes a fresh predicate that does not collide with existing names.
    pub fn fresh_predicate(&mut self, hint: &str) -> Pred {
        let mut name = hint.to_owned();
        let mut i = 0;
        while self.preds.get(&name).is_some() {
            name = format!("{hint}_{i}");
            i += 1;
        }
        self.predicate(&name)
    }

    /// Makes a fresh variable that does not collide with existing names.
    pub fn fresh_variable(&mut self, hint: &str) -> Var {
        let mut name = hint.to_owned();
        let mut i = 0;
        while self.vars.get(&name).is_some() {
            name = format!("{hint}_{i}");
            i += 1;
        }
        self.variable(&name)
    }
}

/// A term: variable or constant.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Term {
    /// A variable.
    Var(Var),
    /// A constant.
    Const(Const),
}

impl Term {
    /// The variable inside, if any.
    pub fn as_var(self) -> Option<Var> {
        match self {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        }
    }
}

/// An atom `r(t1, ..., ta)`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Atom {
    /// The predicate.
    pub pred: Pred,
    /// The argument terms.
    pub args: Vec<Term>,
}

impl Atom {
    /// Builds an atom.
    pub fn new(pred: Pred, args: Vec<Term>) -> Self {
        Self { pred, args }
    }

    /// Arity.
    pub fn arity(&self) -> usize {
        self.args.len()
    }

    /// Iterates over the variables, in argument order (with repeats).
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.args.iter().filter_map(|t| t.as_var())
    }
}

/// A rule `head :- body`. An empty body makes the rule a fact schema
/// (the head must then be ground for the program to be safe).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Rule {
    /// Head atom.
    pub head: Atom,
    /// Body atoms.
    pub body: Vec<Atom>,
}

impl Rule {
    /// Builds a rule.
    pub fn new(head: Atom, body: Vec<Atom>) -> Self {
        Self { head, body }
    }

    /// All variables of the rule (head and body), deduplicated in first
    /// occurrence order.
    pub fn all_vars(&self) -> Vec<Var> {
        let mut out = Vec::new();
        let mut push = |v: Var| {
            if !out.contains(&v) {
                out.push(v);
            }
        };
        for t in &self.head.args {
            if let Term::Var(v) = t {
                push(*v);
            }
        }
        for a in &self.body {
            for t in &a.args {
                if let Term::Var(v) = t {
                    push(*v);
                }
            }
        }
        out
    }

    /// Safety (range restriction): every head variable occurs in the body.
    pub fn is_safe(&self) -> bool {
        self.head
            .vars()
            .all(|v| self.body.iter().any(|a| a.vars().any(|w| w == v)))
    }
}

/// A Datalog program: rules plus a goal atom.
#[derive(Clone, Debug)]
pub struct Program {
    /// The rules.
    pub rules: Vec<Rule>,
    /// The goal atom; its predicate must head some rule.
    pub goal: Atom,
    /// The symbol spaces this program's ids refer to.
    pub symbols: Symbols,
}

impl Program {
    /// Predicates that appear in some rule head (IDBs).
    pub fn idb_predicates(&self) -> Vec<Pred> {
        let mut out = Vec::new();
        for r in &self.rules {
            if !out.contains(&r.head.pred) {
                out.push(r.head.pred);
            }
        }
        out
    }

    /// Predicates that appear only in rule bodies (EDBs).
    pub fn edb_predicates(&self) -> Vec<Pred> {
        let idbs = self.idb_predicates();
        let mut out = Vec::new();
        for r in &self.rules {
            for a in &r.body {
                if !idbs.contains(&a.pred) && !out.contains(&a.pred) {
                    out.push(a.pred);
                }
            }
        }
        out
    }

    /// Whether `p` is an IDB of this program.
    pub fn is_idb(&self, p: Pred) -> bool {
        self.rules.iter().any(|r| r.head.pred == p)
    }

    /// Validation: every rule safe; goal predicate is an IDB; arities
    /// consistent per predicate.
    pub fn validate(&self) -> Result<(), String> {
        let mut arities: HashMap<Pred, usize> = HashMap::new();
        let mut check = |a: &Atom, symbols: &Symbols| -> Result<(), String> {
            match arities.get(&a.pred) {
                Some(&ar) if ar != a.arity() => Err(format!(
                    "predicate {} used with arities {} and {}",
                    symbols.pred_name(a.pred),
                    ar,
                    a.arity()
                )),
                _ => {
                    arities.insert(a.pred, a.arity());
                    Ok(())
                }
            }
        };
        for r in &self.rules {
            check(&r.head, &self.symbols)?;
            for a in &r.body {
                check(a, &self.symbols)?;
            }
            if !r.is_safe() {
                return Err(format!(
                    "unsafe rule: head variable not bound in body of {}",
                    self.render_rule(r)
                ));
            }
        }
        check(&self.goal, &self.symbols)?;
        if !self.is_idb(self.goal.pred) {
            return Err(format!(
                "goal predicate {} heads no rule",
                self.symbols.pred_name(self.goal.pred)
            ));
        }
        Ok(())
    }

    /// Maximum arity of any IDB predicate — the paper's measure of
    /// propagation success (monadic = all IDB arities ≤ 1).
    pub fn max_idb_arity(&self) -> usize {
        let idbs = self.idb_predicates();
        self.rules
            .iter()
            .flat_map(|r| {
                std::iter::once(&r.head)
                    .chain(r.body.iter())
                    .filter(|a| idbs.contains(&a.pred))
            })
            .map(Atom::arity)
            .max()
            .unwrap_or(0)
    }

    /// Whether the program is monadic: all IDB predicates of arity ≤ 1
    /// (Section 2.1, definition (2) — EDBs may have any arity and rules
    /// may contain constants).
    pub fn is_monadic(&self) -> bool {
        self.max_idb_arity() <= 1
    }

    /// Renders a term.
    pub fn render_term(&self, t: Term) -> String {
        match t {
            Term::Var(v) => self.symbols.var_name(v).to_owned(),
            Term::Const(c) => self.symbols.const_name(c).to_owned(),
        }
    }

    /// Renders an atom.
    pub fn render_atom(&self, a: &Atom) -> String {
        let args: Vec<String> = a.args.iter().map(|&t| self.render_term(t)).collect();
        if args.is_empty() {
            self.symbols.pred_name(a.pred).to_owned()
        } else {
            format!("{}({})", self.symbols.pred_name(a.pred), args.join(", "))
        }
    }

    /// Renders a rule.
    pub fn render_rule(&self, r: &Rule) -> String {
        if r.body.is_empty() {
            format!("{}.", self.render_atom(&r.head))
        } else {
            let body: Vec<String> = r.body.iter().map(|a| self.render_atom(a)).collect();
            format!("{} :- {}.", self.render_atom(&r.head), body.join(", "))
        }
    }

    /// Renders the whole program, goal first (paper style `?goal`).
    pub fn render(&self) -> String {
        let mut out = format!("?- {}.\n", self.render_atom(&self.goal));
        for r in &self.rules {
            out.push_str(&self.render_rule(r));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ancestor() -> Program {
        let mut sy = Symbols::new();
        let par = sy.predicate("par");
        let anc = sy.predicate("anc");
        let x = sy.variable("X");
        let y = sy.variable("Y");
        let z = sy.variable("Z");
        let john = sy.constant("john");
        let rules = vec![
            Rule::new(
                Atom::new(anc, vec![Term::Var(x), Term::Var(y)]),
                vec![Atom::new(par, vec![Term::Var(x), Term::Var(y)])],
            ),
            Rule::new(
                Atom::new(anc, vec![Term::Var(x), Term::Var(y)]),
                vec![
                    Atom::new(anc, vec![Term::Var(x), Term::Var(z)]),
                    Atom::new(par, vec![Term::Var(z), Term::Var(y)]),
                ],
            ),
        ];
        Program {
            rules,
            goal: Atom::new(anc, vec![Term::Const(john), Term::Var(y)]),
            symbols: sy,
        }
    }

    #[test]
    fn idb_edb_split() {
        let p = ancestor();
        let anc = p.symbols.get_predicate("anc").unwrap();
        let par = p.symbols.get_predicate("par").unwrap();
        assert_eq!(p.idb_predicates(), vec![anc]);
        assert_eq!(p.edb_predicates(), vec![par]);
    }

    #[test]
    fn validation_passes() {
        assert!(ancestor().validate().is_ok());
    }

    #[test]
    fn unsafe_rule_rejected() {
        let mut p = ancestor();
        let anc = p.symbols.get_predicate("anc").unwrap();
        let w = p.symbols.variable("W");
        let x = p.symbols.get_variable("X").unwrap();
        p.rules.push(Rule::new(
            Atom::new(anc, vec![Term::Var(x), Term::Var(w)]),
            vec![Atom::new(anc, vec![Term::Var(x), Term::Var(x)])],
        ));
        assert!(p.validate().is_err());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut p = ancestor();
        let anc = p.symbols.get_predicate("anc").unwrap();
        let x = p.symbols.get_variable("X").unwrap();
        p.rules.push(Rule::new(
            Atom::new(anc, vec![Term::Var(x)]),
            vec![Atom::new(anc, vec![Term::Var(x), Term::Var(x)])],
        ));
        assert!(p.validate().is_err());
    }

    #[test]
    fn monadicity() {
        let p = ancestor();
        assert!(!p.is_monadic());
        assert_eq!(p.max_idb_arity(), 2);
    }

    #[test]
    fn render_roundtrip_shape() {
        let p = ancestor();
        let text = p.render();
        assert!(text.contains("?- anc(john, Y)."));
        assert!(text.contains("anc(X, Y) :- par(X, Y)."));
        assert!(text.contains("anc(X, Y) :- anc(X, Z), par(Z, Y)."));
    }

    #[test]
    fn fresh_symbols_do_not_collide() {
        let mut sy = Symbols::new();
        let a = sy.predicate("magic");
        let b = sy.fresh_predicate("magic");
        assert_ne!(a, b);
        assert_eq!(sy.pred_name(b), "magic_0");
    }

    #[test]
    fn a_clone_shares_until_a_new_name_then_copies_that_space_once() {
        let mut sy = Symbols::new();
        for i in 0..10 {
            sy.constant(&format!("k{i}"));
        }
        sy.variable("X");
        sy.predicate("p");
        let before = Symbols::names_copied();
        let copied = || Symbols::names_copied() - before;

        let mut twin = sy.clone();
        assert_eq!(twin.constant("k3"), Const(3));
        assert_eq!(twin.fresh_predicate("q"), Pred(1));
        assert_eq!(copied(), 1, "a name it has copies nothing; a new one, its own space");
        twin.predicate("r");
        assert_eq!(copied(), 1, "the space is the twin's own now");
        assert_eq!(twin.constant("k10"), Const(10));
        assert_eq!(copied(), 11);

        assert_eq!(sy.get_predicate("q"), None);
        assert_eq!(sy.get_constant("k10"), None);
        assert_eq!(sy.constant("mine"), Const(10));
        assert_eq!(copied(), 11, "nobody shares the source's constants any more");
        assert_eq!(twin.const_name(Const(10)), "k10");
    }
}
