//! Formulas of weak monadic second-order logic of one successor (WS1S),
//! interpreted over finite words.
//!
//! The paper's Section 5 works in WS1S over the nonnegative integers with
//! finite-set (weak) second-order quantification [9, 15, 26]; its models
//! `Models(φ)` are encoded as strings and the key fact is that
//! `Language(φ)` is regular. We implement the equivalent *finite-word*
//! presentation (Thatcher–Wright, ref.\[26\]): a model is a finite word, a
//! first-order variable denotes a position, a second-order variable a set
//! of positions. The paper's "complete initial segment of the integers"
//! (Lemma 5.1, formula φ3) *is* a finite word, so nothing is lost for the
//! Lemma 5.1 mechanization — see `DESIGN.md`'s substitution table.

use std::fmt;

/// A variable index (a *track* of the compiled automaton's bit-vector
/// alphabet). Whether it is first- or second-order is determined by how
/// it is used/quantified, and enforced by the compiler.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct VarId(pub usize);

/// A WS1S formula over finite words.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Formula {
    /// Truth.
    True,
    /// Falsity.
    False,
    /// `x = y` (positions).
    Eq(VarId, VarId),
    /// `succ(x, y)`: `y` is the position after `x`.
    Succ(VarId, VarId),
    /// `x < y` (position order).
    Lt(VarId, VarId),
    /// `x ∈ W`.
    In(VarId, VarId),
    /// `x` is the first position (`0` in the paper's integer reading).
    IsFirst(VarId),
    /// `x` is the last position of the word.
    IsLast(VarId),
    /// Negation.
    Not(Box<Formula>),
    /// Conjunction.
    And(Box<Formula>, Box<Formula>),
    /// Disjunction.
    Or(Box<Formula>, Box<Formula>),
    /// Implication.
    Implies(Box<Formula>, Box<Formula>),
    /// First-order existential: `∃x φ` (over positions).
    ExistsFo(VarId, Box<Formula>),
    /// First-order universal: `∀x φ`.
    ForallFo(VarId, Box<Formula>),
    /// Weak second-order existential: `∃W φ` (over finite sets ≡ sets of
    /// word positions).
    ExistsSo(VarId, Box<Formula>),
    /// Weak second-order universal: `∀W φ` — the only second-order
    /// quantifier Lemma 5.1 needs ("a prefix of universal weak
    /// second-order monadic quantifiers").
    ForallSo(VarId, Box<Formula>),
}

impl Formula {
    /// `¬φ`.
    // A DSL constructor taking the operand by value, not an `ops::Not`
    // impl (which would force `!f` syntax on boxed formulas).
    #[allow(clippy::should_implement_trait)]
    pub fn not(f: Formula) -> Formula {
        Formula::Not(Box::new(f))
    }
    /// `φ ∧ ψ` (with unit simplification).
    pub fn and(a: Formula, b: Formula) -> Formula {
        match (a, b) {
            (Formula::True, x) | (x, Formula::True) => x,
            (Formula::False, _) | (_, Formula::False) => Formula::False,
            (a, b) => Formula::And(Box::new(a), Box::new(b)),
        }
    }
    /// `φ ∨ ψ` (with unit simplification).
    pub fn or(a: Formula, b: Formula) -> Formula {
        match (a, b) {
            (Formula::False, x) | (x, Formula::False) => x,
            (Formula::True, _) | (_, Formula::True) => Formula::True,
            (a, b) => Formula::Or(Box::new(a), Box::new(b)),
        }
    }
    /// `φ ⇒ ψ`.
    pub fn implies(a: Formula, b: Formula) -> Formula {
        Formula::Implies(Box::new(a), Box::new(b))
    }
    /// `φ ⇔ ψ`.
    pub fn iff(a: Formula, b: Formula) -> Formula {
        Formula::and(
            Formula::implies(a.clone(), b.clone()),
            Formula::implies(b, a),
        )
    }
    /// Conjunction of many.
    pub fn all(fs: impl IntoIterator<Item = Formula>) -> Formula {
        fs.into_iter().fold(Formula::True, Formula::and)
    }
    /// Disjunction of many.
    pub fn any(fs: impl IntoIterator<Item = Formula>) -> Formula {
        fs.into_iter().fold(Formula::False, Formula::or)
    }
    /// `∃x φ`.
    pub fn exists_fo(x: VarId, f: Formula) -> Formula {
        Formula::ExistsFo(x, Box::new(f))
    }
    /// `∀x φ`.
    pub fn forall_fo(x: VarId, f: Formula) -> Formula {
        Formula::ForallFo(x, Box::new(f))
    }
    /// `∃W φ`.
    pub fn exists_so(w: VarId, f: Formula) -> Formula {
        Formula::ExistsSo(w, Box::new(f))
    }
    /// `∀W φ`.
    pub fn forall_so(w: VarId, f: Formula) -> Formula {
        Formula::ForallSo(w, Box::new(f))
    }

    /// The largest variable index mentioned (used to size the track
    /// alphabet).
    pub fn max_var(&self) -> Option<usize> {
        match self {
            Formula::True | Formula::False => None,
            Formula::Eq(a, b) | Formula::Succ(a, b) | Formula::Lt(a, b) | Formula::In(a, b) => {
                Some(a.0.max(b.0))
            }
            Formula::IsFirst(a) | Formula::IsLast(a) => Some(a.0),
            Formula::Not(f) => f.max_var(),
            Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) => {
                match (a.max_var(), b.max_var()) {
                    (Some(x), Some(y)) => Some(x.max(y)),
                    (x, None) => x,
                    (None, y) => y,
                }
            }
            Formula::ExistsFo(v, f)
            | Formula::ForallFo(v, f)
            | Formula::ExistsSo(v, f)
            | Formula::ForallSo(v, f) => Some(f.max_var().map_or(v.0, |m| m.max(v.0))),
        }
    }
}

/// A small helper for allocating variables with readable names.
#[derive(Clone, Debug, Default)]
pub struct VarAllocator {
    names: Vec<String>,
}

impl VarAllocator {
    /// Creates an empty allocator.
    pub fn new() -> Self {
        Self::default()
    }
    /// Allocates a fresh variable.
    pub fn fresh(&mut self, name: &str) -> VarId {
        self.names.push(name.to_owned());
        VarId(self.names.len() - 1)
    }
    /// The name of a variable.
    pub fn name(&self, v: VarId) -> &str {
        &self.names[v.0]
    }
    /// Number of variables allocated.
    pub fn len(&self) -> usize {
        self.names.len()
    }
    /// Whether no variables were allocated.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::True => write!(f, "⊤"),
            Formula::False => write!(f, "⊥"),
            Formula::Eq(a, b) => write!(f, "x{} = x{}", a.0, b.0),
            Formula::Succ(a, b) => write!(f, "succ(x{}, x{})", a.0, b.0),
            Formula::Lt(a, b) => write!(f, "x{} < x{}", a.0, b.0),
            Formula::In(a, b) => write!(f, "x{} ∈ W{}", a.0, b.0),
            Formula::IsFirst(a) => write!(f, "first(x{})", a.0),
            Formula::IsLast(a) => write!(f, "last(x{})", a.0),
            Formula::Not(g) => write!(f, "¬({g})"),
            Formula::And(a, b) => write!(f, "({a} ∧ {b})"),
            Formula::Or(a, b) => write!(f, "({a} ∨ {b})"),
            Formula::Implies(a, b) => write!(f, "({a} ⇒ {b})"),
            Formula::ExistsFo(v, g) => write!(f, "∃x{} ({g})", v.0),
            Formula::ForallFo(v, g) => write!(f, "∀x{} ({g})", v.0),
            Formula::ExistsSo(v, g) => write!(f, "∃W{} ({g})", v.0),
            Formula::ForallSo(v, g) => write!(f, "∀W{} ({g})", v.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_simplify_units() {
        let x = VarId(0);
        let w = VarId(1);
        let f = Formula::and(Formula::True, Formula::In(x, w));
        assert_eq!(f, Formula::In(x, w));
        let g = Formula::or(Formula::In(x, w), Formula::False);
        assert_eq!(g, Formula::In(x, w));
        assert_eq!(Formula::and(Formula::False, g), Formula::False);
        let _ = g;
    }

    #[test]
    fn max_var_tracks_quantifiers() {
        let mut va = VarAllocator::new();
        let x = va.fresh("x");
        let w = va.fresh("w");
        let f = Formula::exists_fo(x, Formula::In(x, w));
        assert_eq!(f.max_var(), Some(1));
        assert_eq!(va.name(w), "w");
    }

    #[test]
    fn display_renders() {
        let f = Formula::forall_so(
            VarId(2),
            Formula::implies(Formula::In(VarId(0), VarId(2)), Formula::True),
        );
        let s = format!("{f}");
        assert!(s.contains("∀W2"));
    }
}
