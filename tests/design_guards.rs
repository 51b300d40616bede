//! Design guards: a design the repository deleted stays deleted.
//!
//! Each row of [`GUARDS`] names a design that was replaced — a second
//! join in DRed, a lazily built index, a hand-written recursive tree —
//! and the literal text by which it would grow back. One loop reads
//! every row's files and reports each line that breaks a row as the
//! guard's name plus `file:line`. A guard that needs two checks — two
//! limits, two sets of files, or needles with and without the word-end
//! flag — is two rows under one name.
//!
//! Needles are plain substrings: there is no pattern syntax, so a needle
//! means what it says, and `every_guard_flags_its_own_example` checks
//! that each row catches a line of the code it keeps out.

use std::fs;
use std::path::Path;

/// Which lines of a file a guard reads.
enum Scope {
    /// Every line.
    File,
    /// The lines before the file's first test module: a line `mod
    /// <name>` whose name, of lowercase letters and underscores, contains
    /// `tests`. A `#[cfg(test)]` item above it is read.
    BeforeTests,
}

/// How many matching lines a guard allows.
enum Limit {
    /// Across all of the guard's files together.
    Total(usize),
    /// In each file.
    EachFile(usize),
}

/// One check: the lines of `paths` that contain one of `needles`, read
/// within `scope`, may number at most `limit`.
struct Guard {
    /// The design kept.
    name: &'static str,
    /// Files and directories, walked recursively, from the repository
    /// root. Each must exist.
    paths: &'static [&'static str],
    /// File names under `paths` that the guard skips.
    exempt: &'static [&'static str],
    /// When set, only files with a line holding this text (ending a
    /// word) are read.
    defining: Option<&'static str>,
    /// A line matches when it holds any of these. The empty needle
    /// matches every line.
    needles: &'static [&'static str],
    /// A needle counts only where no identifier character follows it.
    word_end: bool,
    scope: Scope,
    limit: Limit,
    /// A line the guard must flag.
    example: &'static str,
}

/// Defaults of every row; each row sets what differs.
const ROW: Guard = Guard {
    name: "",
    paths: &["crates/datalog/src"],
    exempt: &[],
    defining: None,
    needles: &[],
    word_end: false,
    scope: Scope::File,
    limit: Limit::Total(0),
    example: "",
};

const GUARDS: &[Guard] = &[
    // The engine is one file per layer BENCHMARK.json names
    // (materialize/{join,fixpoint,dred,compact,codec,template}.rs, plus
    // materialize/provenance.rs, which reads the store); a file growing
    // past 2000 lines is two layers sharing one again.
    Guard {
        name: "Engine file sizes",
        needles: &[""],
        limit: Limit::EachFile(2000),
        example: "let x = 0;",
        ..ROW
    },
    // The specification every model, answer and provenance test compares
    // against is the minimum model from its definition: it imports
    // nothing from the planner, the engine or its storage, so an
    // optimizer bug cannot sit on both sides of a comparison.
    Guard {
        name: "Specification independence",
        paths: &["crates/datalog/src/reference.rs"],
        needles: &[
            "crate::plan",
            "crate::materialize",
            "crate::storage",
            "OrderMode",
            "apply_goal",
        ],
        example: "use crate::plan::OrderMode;",
        ..ROW
    },
    // The engine has one backtracking join: a DRed rescue runs its plan
    // through materialize/join.rs as an existential pass, and what it
    // finds enters the store through the round's merge. dred.rs probing
    // an index itself is a second join growing back.
    Guard {
        name: "DRed asks the join",
        paths: &["crates/datalog/src/materialize/dred.rs"],
        needles: &["probe_range", "probe1_range", "next_match"],
        example: "let hits = idx.probe_range(key, lo, hi);",
        ..ROW
    },
    // A build is the first update round: each rule is seeded through the
    // atom the planner picks first, and every later item runs on the plan
    // its delta atom leads. A per-rule lead plan, and a flag choosing
    // between it and the update plans, is a second evaluation convention
    // growing back.
    Guard {
        name: "A build is an update round",
        needles: &["every_atom", "Purpose::Lead(None)"],
        example: "let plan = plan_for(rule, Purpose::Lead(None));",
        ..ROW
    },
    Guard {
        name: "A build is an update round",
        needles: &["self.lead"],
        word_end: true,
        example: "let plan = &self.lead[rule];",
        ..ROW
    },
    // A magic template is a function of the rules and the binding
    // pattern: it compiles over the store's ids, with a name table of its
    // own. A cache holding the client's names, and a disabled state
    // waiting for them, is the restore path's second half growing back.
    Guard {
        name: "The view cache holds no names",
        paths: &["crates/datalog/src/cache.rs", "crates/datalog/src/server.rs"],
        needles: &["Symbols", "is_enabled", "cache_enabled"],
        example: "    symbols: Symbols,",
        ..ROW
    },
    // A store that records justifications carries its reverse index from
    // construction: every merge appends its edges, and a restore or a
    // compaction rebuilds it. An optional index, a counter of its first
    // builds, or a word count that leaves it out is the lazy
    // first-retraction build growing back.
    Guard {
        name: "The reverse index is built with the store",
        needles: &["csr_builds", "rev: Option", "row_words", "rev.take()"],
        example: "    rev: Option<RevIndex>,",
        ..ROW
    },
    // A store that records justifications compiles each rule slot's
    // rescue plan with its update plans, in `compile_plans`, at build,
    // restore, rule add and template construction alike. An optional
    // plan table, a second compile entry point or a per-walk setup is the
    // lazy first-retraction compile growing back.
    Guard {
        name: "Rescue plans are compiled with the store",
        needles: &[
            "ensure_rederive_plans",
            "ready_rederive",
            "rederive: Option",
            "compiled by the caller",
        ],
        example: "        self.ensure_rederive_plans();",
        ..ROW
    },
    // A deletion walk's save reads a row's age off the rule graph: a body
    // row of another strongly connected component, or of the head's
    // relation at a lower row id. A runtime log of merge rounds, switched
    // on per store and remapped by compaction, is the second age order
    // growing back.
    Guard {
        name: "Age is read off the rule graph",
        needles: &["MergeLog", "reads_across", "merges.", "merge seq"],
        example: "    merges: Option<MergeLog>,",
        ..ROW
    },
    // A snapshot holds the fixpoint and nothing a restore does not read:
    // no death-epoch tags, relation epochs, convergence profile, body
    // permutations or constant words. Any of these in the codec is a
    // dropped field growing back.
    Guard {
        name: "The snapshot holds the fixpoint",
        paths: &["crates/datalog/src/materialize/codec.rs"],
        needles: &[
            "tomb_tags",
            "current_epoch",
            "profile",
            "step_of_body",
            "reverse index is built",
            "provenance tag",
        ],
        example: "        e.usize(rel.tomb_tags.len());",
        ..ROW
    },
    // A candidate head is looked up first in its pass's staged set, which
    // is small and hot, and only on a miss in the head relation's dedup
    // table, which is large and cold. A combined insert-if-new behind the
    // store probe is the relation-first order growing back.
    Guard {
        name: "A duplicate head is caught in the staged set",
        paths: &["crates/datalog/src/materialize/join.rs"],
        needles: &["insert_if_new"],
        example: "        if rel.insert_if_new(&row) {",
        ..ROW
    },
    // A row id is a `u32` from the moment a relation's append makes it,
    // checked there against the one row ceiling, and relation and rule
    // ids are narrowed where they are allocated: everything else only
    // widens them. A narrowing cast or a checked `id32` outside
    // `storage.rs` is a second ceiling growing back. The `tests.rs` files
    // are test code.
    Guard {
        name: "Row ids are born u32",
        exempt: &["tests.rs", "storage.rs"],
        needles: &["as u32", "id32"],
        scope: Scope::BeforeTests,
        example: "    let id = rows.len() as u32;",
        ..ROW
    },
    // A provenance is a view of the recording store it came from: it
    // holds that store and reads its rows, justifications and rule slots.
    // A constructor taking the store apart, a result type pairing a copy
    // with the counters, a per-rule body-relation table, or a second
    // vector of relations or justifications in the file that defines a
    // `Provenance` is the hand-kept copy growing back.
    Guard {
        name: "Provenance reads the store",
        needles: &["fn from_engine", "ProvenanceResult", "fn body_rels("],
        example: "    pub fn from_engine(m: &Materialization) -> Self {",
        ..ROW
    },
    Guard {
        name: "Provenance reads the store",
        defining: Some("pub struct Provenance"),
        needles: &["Vec<ColumnarRelation>", "Vec<RelJust>"],
        example: "    rels: Vec<ColumnarRelation>,",
        ..ROW
    },
    // A derivation tree is one array of nodes in breadth-first order, a
    // node's children an index range, so its derived Clone, PartialEq and
    // drop glue walk a slice however deep the proof. A hand-written one
    // of these, or a tree nesting subtrees, is the recursive type growing
    // back.
    Guard {
        name: "Derivation trees are flat",
        needles: &[
            "impl Clone for DerivationTree",
            "impl PartialEq for DerivationTree",
            "impl Drop for DerivationTree",
            "Vec<DerivationTree>",
        ],
        example: "    children: Vec<DerivationTree>,",
        ..ROW
    },
    // selprop-core builds each shape once: one lookup of an alphabet
    // letter's EDB predicate (`ChainProgram::edb_preds`) and one emitter
    // of an automaton's transition rules (`rewrite.rs`'s
    // `automaton_marking`, shared by Theorem 3.3's rewrite and Section
    // 7's envelope guard). A second match is a second construction
    // growing back.
    Guard {
        name: "One construction per shape (selprop-core)",
        paths: &["crates/core/src"],
        needles: &["alphabet symbol names an EDB", "edb in alphabet"],
        limit: Limit::Total(1),
        example: "    .map(|s| *named(s).expect(\"alphabet symbol names an EDB\"))",
        ..ROW
    },
    Guard {
        name: "One construction per shape (selprop-core)",
        paths: &["crates/core/src"],
        needles: &[".step(q, s)"],
        limit: Limit::Total(1),
        example: "        let next = dfa.step(q, s);",
        ..ROW
    },
    // The decision returns its verdict: `propagate` stops after steps
    // 1–4, and an `Unknown` carries what they found. Step 5's evidence
    // runs only through `Undecided::evidence`, the one call its budget
    // reaches. A budgeted second entry, or an `Unknown` that boxes the
    // evidence, is the eager decision growing back.
    Guard {
        name: "The decision runs no step 5",
        paths: &["crates/core/src", "crates/bench/benches", "examples"],
        needles: &["propagate_with", "Box<UndecidedEvidence>"],
        example: "    Unknown(Box<UndecidedEvidence>),",
        ..ROW
    },
    // A write is a round: `Materialization::apply` and `Server::apply`
    // take an `UpdateRound` and report what it did, the slot of its first
    // added rule included. A single-phase wrapper beside them, a second
    // write-lock path or a separate next-slot query is the second write
    // vocabulary growing back.
    Guard {
        name: "A write is a round",
        paths: &["crates/datalog/src", "crates/datalog/tests", "examples"],
        needles: &[
            "fn insert_facts",
            "fn retract_facts",
            "fn add_rule(&",
            "fn drop_rule(&",
            "apply_locked",
            "next_rule_id",
        ],
        example: "    pub fn insert_facts(&mut self, pred: Pred, rows: &[Tuple]) -> usize {",
        ..ROW
    },
    // The epoch is the server's: a server passes each round's epoch to
    // the store's round and to its view syncs, and the store's
    // `epoch()` is the one copy of the published epoch. An epoch a
    // relation, a store or a cache keeps as a mode — the tags it writes,
    // the compaction it skips — or a second copy in the pin table is
    // the spread growing back.
    Guard {
        name: "The epoch is the server's",
        needles: &[
            "set_epoch",
            "compaction_deferred",
            "epochs.current",
            "self.epoch > 0",
            "self.epoch == 0",
        ],
        example: "    pub fn set_epoch(&mut self, epoch: u64) {",
        ..ROW
    },
    // EDB facts load as settled rows: a build copies each relation of
    // the database into its row buffer, as a restore decodes one, and the
    // dedup table waits for the first write. A per-fact insert, or a
    // reserved table for it, is the load paying that table up front.
    Guard {
        name: "EDB facts load as settled rows",
        paths: &["crates/datalog/src/materialize.rs"],
        needles: &["reserve_rows(r.len())", "m.rels[rid].insert("],
        example: "                    m.rels[rid].insert(t);",
        ..ROW
    },
    // A template store reads its base: a view sync borrows the base
    // store and reads each external relation and index in place, through
    // the one table every pass reads its slots from. Moving the base's
    // objects into the template store for a sync — and re-numbering an
    // index's relation on the way — is the swap growing back.
    Guard {
        name: "A template store reads its base",
        needles: &[
            "swap_external",
            "set_rel(",
            "mem::swap(&mut self.rels",
            "mem::swap(&mut self.idxs",
        ],
        example: "            self.idxs[vi].set_rel(vr);",
        ..ROW
    },
    // Read off the store: the query cache routes a goal by asking the
    // base store whether its predicate is IDB, and Section 8's stage
    // count is a build's `EvalStats::iterations` less one. A cache-side
    // IDB list (and the arming that filled it) or a per-round profile
    // carried out of a build is a second copy of what the store knows.
    Guard {
        name: "Read off the store",
        paths: &["crates/datalog/src", "crates/core/src"],
        needles: &[
            "idb_arities",
            "fn start_over",
            "idb: Vec<(Pred, usize)>",
            "seminaive_profile",
            "ConvergenceProfile",
            "profile: Vec<u64>",
        ],
        example: "    idb: Vec<(Pred, usize)>,",
        ..ROW
    },
    // Membership has one CYK: `CnfGrammar::accepts` pushes the word onto
    // a `Recognizer`, whose table is one flat column-major triangle of
    // nonterminal bitsets. A per-call n × n × m table of bools is the
    // second parser growing back.
    Guard {
        name: "One CYK",
        paths: &["crates/grammar/src/cnf.rs"],
        needles: &["vec![vec![vec!"],
        example: "    let mut table = vec![vec![vec![false; m]; n]; n];",
        ..ROW
    },
    // A view keeps its answers in one list, the open memo first, and one
    // rule says which closed ones stay: a snapshot is pinned in their
    // interval. A current slot beside a retained list, a reader that
    // keeps the memo it displaces by a test of its own, or a wrapper
    // around `answer_tag` is the second copy of that rule growing back.
    Guard {
        name: "A view keeps its answers in one list",
        paths: &["crates/datalog/src/cache.rs"],
        needles: &[
            "struct Memos",
            "memos.retained",
            "memos.current",
            "fn replace(",
            "fn read(&self, view",
        ],
        example: "struct Memos {",
        ..ROW
    },
    // A template store decides its own catch-up: it keeps the base's
    // counts as of its last sync and works out whether to seed its walk,
    // resume or start over. Stamps of the base in the cache, a per-template
    // tier in `validate` or a flag telling the sync what round it is in
    // is that decision split over two modules again.
    Guard {
        name: "A template store decides its own catch-up",
        paths: &["crates/datalog/src/cache.rs", "crates/datalog/src/materialize/template.rs"],
        needles: &[
            "synced_version",
            "synced_retracts",
            "seen_compactions",
            "fn missed_a_retraction",
            "last_round: bool",
        ],
        example: "    synced_version: u64,",
        ..ROW
    },
    // The cache keeps no mark of its base: each template store keeps the
    // rule shape it was compiled under beside the base's counts, and tells
    // a foreign template from a stale one itself. Cache-wide copies of the
    // base's rule shape or version, and a pass that drops all templates
    // when such a copy moves, are that mark held twice again.
    Guard {
        name: "The cache keeps no mark of its base",
        paths: &["crates/datalog/src/cache.rs"],
        needles: &["seen_rules", "seen_version", "fn validate"],
        example: "    seen_version: u64,",
        ..ROW
    },
];

/// Whether `line` holds `needle`, followed by no identifier character
/// when `word_end` is set.
fn holds(line: &str, needle: &str, word_end: bool) -> bool {
    line.match_indices(needle).any(|(at, _)| {
        let next = line[at + needle.len()..].chars().next();
        !word_end || !next.is_some_and(|c| c.is_alphanumeric() || c == '_')
    })
}

/// Whether `line` opens a test module (see [`Scope::BeforeTests`]).
fn opens_tests(line: &str) -> bool {
    line.strip_prefix("mod ").is_some_and(|rest| {
        let name = rest.split(|c: char| !(c.is_ascii_lowercase() || c == '_')).next();
        name.is_some_and(|name| name.contains("tests"))
    })
}

/// Every violation of `guard` among `files` (paths from the repository
/// root, and their text), as `path:line: text`: every matching line
/// when their total passes a [`Limit::Total`], the first line past a
/// [`Limit::EachFile`] in each file that passes it.
fn violations(guard: &Guard, files: &[(String, String)]) -> Vec<String> {
    let mut total = Vec::new();
    let mut out = Vec::new();
    for (path, text) in files {
        let name = path.rsplit('/').next().unwrap_or(path);
        if guard.exempt.contains(&name) {
            continue;
        }
        if guard.defining.is_some_and(|d| !text.lines().any(|l| holds(l, d, true))) {
            continue;
        }
        let lines = text.lines().enumerate().take_while(|(_, l)| match guard.scope {
            Scope::File => true,
            Scope::BeforeTests => !opens_tests(l),
        });
        let hits: Vec<String> = lines
            .filter(|(_, l)| guard.needles.iter().any(|n| holds(l, n, guard.word_end)))
            .map(|(i, l)| format!("{path}:{}: {}", i + 1, l.trim()))
            .collect();
        match guard.limit {
            Limit::EachFile(n) => out.extend(hits.into_iter().nth(n)),
            Limit::Total(_) => total.extend(hits),
        }
    }
    if matches!(guard.limit, Limit::Total(n) if total.len() > n) {
        out.extend(total);
    }
    out
}

/// The files under `path` (relative to the repository root), sorted,
/// with their text; appended to `out`. A missing path panics, so a
/// renamed file cannot leave a guard reading nothing.
fn read_tree(root: &Path, path: &str, out: &mut Vec<(String, String)>) {
    let full = root.join(path);
    if full.is_dir() {
        let mut entries: Vec<String> = fs::read_dir(&full)
            .unwrap_or_else(|e| panic!("{path}: {e}"))
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        entries.sort();
        for entry in entries {
            read_tree(root, &format!("{path}/{entry}"), out);
        }
    } else {
        let bytes = fs::read(&full).unwrap_or_else(|e| panic!("{path}: {e}"));
        out.push((path.to_owned(), String::from_utf8_lossy(&bytes).into_owned()));
    }
}

#[test]
fn designs_that_were_deleted_stay_deleted() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut broken = Vec::new();
    for guard in GUARDS {
        let mut files = Vec::new();
        for path in guard.paths {
            read_tree(root, path, &mut files);
        }
        for v in violations(guard, &files) {
            broken.push(format!("{}: {v}", guard.name));
        }
    }
    assert!(broken.is_empty(), "a deleted design grew back:\n{}", broken.join("\n"));
}

/// The row holding `needle`.
fn row(needle: &str) -> &'static Guard {
    GUARDS.iter().find(|g| g.needles.contains(&needle)).unwrap()
}

/// The violations of `guard` in one file at `path` holding `lines`.
fn flags(guard: &Guard, path: &str, lines: &[&str]) -> Vec<String> {
    violations(guard, &[(path.to_owned(), lines.join("\n"))])
}

/// Each row flags its example once the example appears one time more
/// than the row's limit, and not at the limit, in a file the row reads:
/// a row whose needles cannot match the code it keeps out fails here.
#[test]
fn every_guard_flags_its_own_example() {
    for guard in GUARDS {
        let dir = guard.paths[0];
        let path = if dir.ends_with(".rs") { dir.to_owned() } else { format!("{dir}/example.rs") };
        let allowed = match guard.limit {
            Limit::Total(n) | Limit::EachFile(n) => n,
        };
        let head = guard.defining.map(|d| format!("{d} {{}}"));
        let lines = |copies| {
            let mut lines: Vec<&str> = head.iter().map(String::as_str).collect();
            lines.extend(std::iter::repeat_n(guard.example, copies));
            lines
        };
        let (name, example) = (guard.name, guard.example);
        assert!(!flags(guard, &path, &lines(allowed + 1)).is_empty(), "{name} misses `{example}`");
        let at_limit = flags(guard, &path, &lines(allowed));
        assert!(at_limit.is_empty(), "{name} flags `{example}` {allowed} times");
    }
}

#[test]
fn a_word_end_needle_skips_a_longer_name() {
    let lead = row("self.lead");
    assert!(flags(lead, "crates/datalog/src/plan.rs", &["let l = self.leader;"]).is_empty());
    let hits = flags(lead, "crates/datalog/src/plan.rs", &["x", "let l = self.lead;"]);
    assert_eq!(hits, ["crates/datalog/src/plan.rs:2: let l = self.lead;"]);
}

#[test]
fn row_ids_are_read_above_the_test_module_outside_storage() {
    let ids = row("id32");
    let dred = "crates/datalog/src/materialize/dred.rs";
    let below = ["fn f() {}", "#[cfg(test)]", "mod prop_tests {", "    let i = n as u32;", "}"];
    assert!(flags(ids, dred, &below).is_empty());
    let above = ["let i = id32(n);", "mod tests {", "}"];
    assert_eq!(flags(ids, dred, &above), [format!("{dred}:1: let i = id32(n);")]);
    assert!(flags(ids, "crates/datalog/src/storage.rs", &above).is_empty());
    assert!(flags(ids, "crates/datalog/src/materialize/tests.rs", &above).is_empty());
}

#[test]
fn a_provenance_copy_is_read_only_where_provenance_is_defined() {
    let copy = row("Vec<RelJust>");
    let elsewhere = ["pub struct ProvenanceView {", "    just: Vec<RelJust>,", "}"];
    assert!(flags(copy, "crates/datalog/src/materialize.rs", &elsewhere).is_empty());
    let defining = ["pub struct Provenance {", "    just: Vec<RelJust>,", "}"];
    assert_eq!(flags(copy, "crates/datalog/src/materialize/provenance.rs", &defining).len(), 1);
}
