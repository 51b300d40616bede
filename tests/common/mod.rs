//! What the gallery property suites share: the workload a program runs
//! over, and the checks a maintained store must pass against a
//! from-scratch evaluation and through a snapshot.

use selprop_core::workload;
use selprop_datalog::db::Tuple;
use selprop_datalog::eval::{self, EvalResult, Strategy};
use selprop_datalog::reference;
use selprop_datalog::{Database, Materialization, Pred, Program, Term};

/// The goal's bound constant if any (workload root), else "c".
fn root_of(program: &Program) -> String {
    program
        .goal
        .args
        .iter()
        .find_map(|t| match t {
            Term::Const(c) => Some(program.symbols.const_name(*c).to_owned()),
            Term::Var(_) => None,
        })
        .unwrap_or_else(|| "c".to_owned())
}

/// Builds one of the workload-generator shapes, selected by `shape`,
/// over the program's EDB predicates in first-occurrence order.
pub fn build_db(program: &mut Program, shape: u8, n: usize, seed: u64) -> Database {
    let root = root_of(program);
    let names: Vec<String> = program
        .edb_predicates()
        .iter()
        .map(|&p| program.symbols.pred_name(p).to_owned())
        .collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    match shape % 4 {
        0 => workload::random_labeled_digraph(program, &name_refs, &root, n, 2 * n, seed),
        1 => workload::random_forest(program, name_refs[0], &root, n.max(2), seed),
        2 => workload::cycles(program, name_refs[0], &[3, n.max(1), n / 2 + 1]),
        _ => workload::wide(program, name_refs[0], &root, n / 2, 3, n / 3 + 1),
    }
}

/// Sorted `(pred, sorted tuples)` view of a Database, empty relations
/// dropped (stores track every relation they ever saw; from-scratch
/// evaluation only the ones of the program at hand).
pub fn nonempty_sorted(db: &Database) -> Vec<(Pred, Vec<Tuple>)> {
    db.sorted_models().into_iter().filter(|(_, rows)| !rows.is_empty()).collect()
}

/// `m` through a snapshot, which must re-encode to the bytes it was
/// read from and hold the same store. What comes back runs the plans
/// and rescue plans it compiled itself.
pub fn restored(m: &Materialization) -> Materialization {
    let bytes = m.to_bytes();
    let back = Materialization::from_bytes(&bytes).expect("an intact snapshot restores");
    assert_eq!(back.to_bytes(), bytes, "to_bytes(from_bytes(x)) == x");
    assert_eq!(back.database().sorted_models(), m.database().sorted_models());
    back
}

/// `m` holds `db` and the model both engines compute for `program` over
/// it from scratch, and answers the goal as the specification does.
/// Returns the specification's evaluation.
pub fn assert_at_fixpoint_over(
    m: &Materialization,
    program: &Program,
    db: &Database,
    what: &str,
) -> EvalResult {
    let spec = reference::evaluate(program, db, Strategy::SemiNaive);
    let scratch = eval::evaluate(program, db, Strategy::SemiNaive);
    assert_eq!(nonempty_sorted(&scratch.idb), nonempty_sorted(&spec.idb), "{what}: the engines");
    let mut want = nonempty_sorted(db);
    want.extend(nonempty_sorted(&spec.idb));
    want.sort_by_key(|(p, _)| p.0);
    assert_eq!(nonempty_sorted(&m.database()), want, "{what}: maintained ≡ from-scratch");
    let (spec_ans, _) = reference::answer(program, db, Strategy::SemiNaive);
    assert_eq!(m.answer().sorted(), spec_ans.sorted(), "{what}: goal answers");
    spec
}
