//! Databases: finite relations over interned constants.
//!
//! A database is a finite structure (Section 2.1): a vector of finite
//! relations, one per EDB predicate. Evaluation output adds IDB relations
//! to the same representation.
//!
//! [`Relation`] is the exchange format at every API boundary — what a
//! caller loads facts into and what every evaluator, store and server
//! answers with. It is a value, and a cheap one to pass on: the tuple
//! set sits behind a reference count, `clone` copies no tuple, and the
//! first write to a relation that shares its set copies the set for the
//! writer alone. That is what lets the query cache keep the answer it
//! gave one client and give it to the next ([`crate::cache`],
//! "Answers").

use std::sync::Arc;

use crate::ast::{Const, Pred, Symbols};
use crate::hash::{FxHashMap, FxHashSet};

/// A tuple of constants.
pub type Tuple = Vec<Const>;

/// A finite relation of fixed arity.
///
/// Tuple storage is hash-set based and keyed with the in-tree
/// [`crate::hash::FxHasher`] — materializing a large evaluation result
/// is insert-bound, and SipHash dominated the profile before the swap.
/// (The evaluator itself works on [`crate::storage::ColumnarRelation`];
/// this type is the stable exchange format at API boundaries.)
///
/// The set is **shared and copy-on-write**: `clone` is a reference
/// count, whatever the relation holds, so an answer can be kept by the
/// cache that built it and handed to any number of clients
/// ([`crate::cache`], "Answers"). [`Relation::insert`] and
/// [`Relation::remove`] on a relation that shares its set copy the set
/// first — O(len), once, after which the relation owns its copy — and
/// cost one atomic check when it does not; no holder ever observes
/// another's writes. Equality compares contents (and is immediate
/// between two handles on one set).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Relation {
    arity: usize,
    tuples: Arc<FxHashSet<Tuple>>,
}

impl Relation {
    /// Creates an empty relation of the given arity.
    pub fn new(arity: usize) -> Self {
        Self::from_set(arity, FxHashSet::default())
    }

    /// Wraps a finished set of `arity`-tuples: what a bulk producer
    /// calls once, instead of paying [`Relation::insert`]'s ownership
    /// check per tuple.
    pub(crate) fn from_set(arity: usize, tuples: FxHashSet<Tuple>) -> Self {
        debug_assert!(tuples.iter().all(|t| t.len() == arity), "tuple arity mismatch");
        Self {
            arity,
            tuples: Arc::new(tuples),
        }
    }

    /// Copies `rows` (each of `arity` constants) into a new relation.
    pub(crate) fn from_rows<'a>(arity: usize, rows: impl Iterator<Item = &'a [Const]>) -> Self {
        Self::from_set(arity, rows.map(<[Const]>::to_vec).collect())
    }

    /// The arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Inserts a tuple; returns whether it was new.
    pub fn insert(&mut self, t: Tuple) -> bool {
        assert_eq!(t.len(), self.arity, "tuple arity mismatch");
        Arc::make_mut(&mut self.tuples).insert(t)
    }

    /// Membership.
    pub fn contains(&self, t: &[Const]) -> bool {
        self.tuples.contains(t)
    }

    /// Removes a tuple; returns whether it was present. (The mirror
    /// operation of [`Relation::insert`], used by the incremental-
    /// maintenance harnesses to keep a from-scratch reference database
    /// in step with a `Materialization`.)
    pub fn remove(&mut self, t: &[Const]) -> bool {
        Arc::make_mut(&mut self.tuples).remove(t)
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Iterates over the tuples (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }

    /// The tuples in sorted order (deterministic output for tests and
    /// experiment reports).
    pub fn sorted(&self) -> Vec<Tuple> {
        let mut v: Vec<Tuple> = self.tuples.iter().cloned().collect();
        v.sort();
        v
    }
}

impl FromIterator<Tuple> for Relation {
    fn from_iter<I: IntoIterator<Item = Tuple>>(iter: I) -> Self {
        let mut tuples = FxHashSet::default();
        let mut arity = None;
        for t in iter {
            match arity {
                None => arity = Some(t.len()),
                Some(a) => assert_eq!(a, t.len(), "mixed arities"),
            }
            tuples.insert(t);
        }
        Relation::from_set(arity.unwrap_or(0), tuples)
    }
}

/// A database: a finite relation per predicate.
#[derive(Clone, Debug, Default)]
pub struct Database {
    relations: FxHashMap<Pred, Relation>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a fact; creates the relation on first use.
    pub fn insert(&mut self, pred: Pred, tuple: Tuple) -> bool {
        let arity = tuple.len();
        self.relations
            .entry(pred)
            .or_insert_with(|| Relation::new(arity))
            .insert(tuple)
    }

    /// Removes a fact; returns whether it was present.
    pub fn remove(&mut self, pred: Pred, tuple: &[Const]) -> bool {
        self.relations
            .get_mut(&pred)
            .is_some_and(|r| r.remove(tuple))
    }

    /// The relation of a predicate, empty if absent.
    pub fn relation(&self, pred: Pred) -> Option<&Relation> {
        self.relations.get(&pred)
    }

    /// Mutable relation access, creating with the given arity if absent.
    pub fn relation_mut(&mut self, pred: Pred, arity: usize) -> &mut Relation {
        self.relations
            .entry(pred)
            .or_insert_with(|| Relation::new(arity))
    }

    /// Stores `rel` as the relation of `pred`, whole — the bulk
    /// counterpart of [`Database::relation_mut`].
    pub(crate) fn set_relation(&mut self, pred: Pred, rel: Relation) {
        self.relations.insert(pred, rel);
    }

    /// Iterates over (predicate, relation) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Pred, &Relation)> {
        self.relations.iter().map(|(&p, r)| (p, r))
    }

    /// Total number of facts.
    pub fn num_facts(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }

    /// Sorted `(pred, sorted tuples)` view of the whole database — the
    /// deterministic comparison currency of the equivalence suites and
    /// the incremental-maintenance cross-checks (row order and hash
    /// iteration order never leak into it).
    pub fn sorted_models(&self) -> Vec<(Pred, Vec<Tuple>)> {
        let mut v: Vec<(Pred, Vec<Tuple>)> = self
            .relations
            .iter()
            .map(|(&p, r)| (p, r.sorted()))
            .collect();
        v.sort_by_key(|&(p, _)| p);
        v
    }

    /// All constants mentioned in the database (the active domain).
    pub fn active_domain(&self) -> Vec<Const> {
        let mut set: FxHashSet<Const> = FxHashSet::default();
        for r in self.relations.values() {
            for t in r.iter() {
                set.extend(t.iter().copied());
            }
        }
        let mut v: Vec<Const> = set.into_iter().collect();
        v.sort();
        v
    }

    /// Parses facts in `pred(c1, c2).` form (constants only), interning
    /// into `symbols`.
    pub fn parse_facts(text: &str, symbols: &mut Symbols) -> Result<Database, String> {
        let mut db = Database::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim().trim_end_matches('.');
            if line.is_empty() || line.starts_with('%') || line.starts_with('#') {
                continue;
            }
            let (name, rest) = line
                .split_once('(')
                .ok_or_else(|| format!("line {}: expected fact", lineno + 1))?;
            let args = rest
                .strip_suffix(')')
                .ok_or_else(|| format!("line {}: missing ')'", lineno + 1))?;
            let pred = symbols.predicate(name.trim());
            let tuple: Tuple = args
                .split(',')
                .map(|c| symbols.constant(c.trim()))
                .collect();
            db.insert(pred, tuple);
        }
        Ok(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relation_basics() {
        let mut r = Relation::new(2);
        assert!(r.insert(vec![Const(0), Const(1)]));
        assert!(!r.insert(vec![Const(0), Const(1)]));
        assert!(r.contains(&[Const(0), Const(1)]));
        assert!(!r.contains(&[Const(1), Const(0)]));
        assert_eq!(r.len(), 1);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_enforced() {
        let mut r = Relation::new(2);
        r.insert(vec![Const(0)]);
    }

    #[test]
    fn database_facts_and_domain() {
        let mut sy = Symbols::new();
        let db = Database::parse_facts(
            "par(john, mary).\npar(mary, sue).\n% comment\n",
            &mut sy,
        )
        .unwrap();
        assert_eq!(db.num_facts(), 2);
        assert_eq!(db.active_domain().len(), 3);
        let par = sy.get_predicate("par").unwrap();
        let john = sy.get_constant("john").unwrap();
        let mary = sy.get_constant("mary").unwrap();
        assert!(db.relation(par).unwrap().contains(&[john, mary]));
    }

    #[test]
    fn a_clone_shares_until_either_side_writes() {
        let mut r = Relation::new(2);
        r.insert(vec![Const(0), Const(1)]);
        r.insert(vec![Const(1), Const(2)]);
        let kept = r.clone();
        assert!(Arc::ptr_eq(&r.tuples, &kept.tuples), "clone is a reference count");

        // Writes to the original copy first; the clone keeps what it had.
        assert!(r.insert(vec![Const(2), Const(3)]));
        assert!(r.remove(&[Const(0), Const(1)]));
        assert_eq!(kept.sorted(), vec![vec![Const(0), Const(1)], vec![Const(1), Const(2)]]);
        assert_eq!(r.sorted(), vec![vec![Const(1), Const(2)], vec![Const(2), Const(3)]]);
        // ...and so do writes to a clone.
        let mut other = kept.clone();
        assert!(!other.remove(&[Const(7), Const(7)]));
        assert!(other.remove(&[Const(1), Const(2)]));
        assert_eq!(kept.len(), 2);
        assert_ne!(other, kept);

        // Equality is by content: shared, independently built, or built
        // in bulk.
        assert_eq!(kept, kept.clone());
        let mut built = Relation::new(2);
        built.insert(vec![Const(1), Const(2)]);
        built.insert(vec![Const(0), Const(1)]);
        assert_eq!(built, kept);
        let bulk: Relation = kept.sorted().into_iter().collect();
        assert_eq!(bulk, kept);
        assert_eq!(Relation::from_rows(2, kept.iter().map(Vec::as_slice)), kept);
        assert_ne!(Relation::new(1), Relation::new(2), "arity is part of the value");
    }

    #[test]
    fn sorted_is_deterministic() {
        let mut r = Relation::new(1);
        r.insert(vec![Const(5)]);
        r.insert(vec![Const(1)]);
        r.insert(vec![Const(3)]);
        assert_eq!(
            r.sorted(),
            vec![vec![Const(1)], vec![Const(3)], vec![Const(5)]]
        );
    }
}
