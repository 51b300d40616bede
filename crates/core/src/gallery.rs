//! The paper's program corpus, with ground truth.
//!
//! Every numbered example and construction in the paper refers to a small
//! set of chain programs. This module collects them (plus the boundary
//! cases the test suite exercises) as named [`GalleryEntry`] values with
//! machine-readable ground truth — what `L(H)` is, whether it is
//! regular/finite, and what the propagation engine should conclude. The
//! examples, tests and benches all draw from here.

use crate::chain::ChainProgram;

/// Ground truth about `L(H)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LanguageClass {
    /// Finite language.
    Finite,
    /// Infinite but regular.
    Regular,
    /// Context-free, not regular.
    NonRegular,
}

/// What the propagation engine is expected to return.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExpectedOutcome {
    /// `Propagation::Propagated`.
    Propagated,
    /// `Propagation::Impossible` (diagonal goal, infinite language).
    Impossible,
    /// `Propagation::Unknown` (constant goal, regularity not established
    /// — or genuinely non-regular).
    Unknown,
}

/// A named gallery program.
#[derive(Clone, Debug)]
pub struct GalleryEntry {
    /// Short identifier (used in bench labels).
    pub name: &'static str,
    /// Where in the paper it comes from.
    pub provenance: &'static str,
    /// Program source.
    pub source: &'static str,
    /// A human-readable description of `L(H)`.
    pub language: &'static str,
    /// Ground-truth classification of `L(H)`.
    pub class: LanguageClass,
    /// Expected engine outcome.
    pub expected: ExpectedOutcome,
}

impl GalleryEntry {
    /// Parses the program.
    pub fn chain(&self) -> ChainProgram {
        ChainProgram::parse(self.source).expect("gallery entries are valid chain programs")
    }
}

/// The full gallery.
pub fn gallery() -> Vec<GalleryEntry> {
    vec![
        GalleryEntry {
            name: "program_a",
            provenance: "Example 1.1, Program A",
            source: "?- anc(john, Y).\n\
                     anc(X, Y) :- par(X, Y).\n\
                     anc(X, Y) :- anc(X, Z), par(Z, Y).",
            language: "par+ (left-linear)",
            class: LanguageClass::Regular,
            expected: ExpectedOutcome::Propagated,
        },
        GalleryEntry {
            name: "program_b",
            provenance: "Example 1.1, Program B",
            source: "?- anc(john, Y).\n\
                     anc(X, Y) :- par(X, Y).\n\
                     anc(X, Y) :- par(X, Z), anc(Z, Y).",
            language: "par+ (right-linear)",
            class: LanguageClass::Regular,
            expected: ExpectedOutcome::Propagated,
        },
        GalleryEntry {
            name: "program_c",
            provenance: "Example 1.1, Program C",
            source: "?- anc(john, Y).\n\
                     anc(X, Y) :- par(X, Y).\n\
                     anc(X, Y) :- anc(X, Z), anc(Z, Y).",
            language: "par+ (nonlinear grammar; unary Parikh arm decides)",
            class: LanguageClass::Regular,
            expected: ExpectedOutcome::Propagated,
        },
        GalleryEntry {
            name: "balanced",
            provenance: "Section 7 worked example",
            source: "?- p(c, Y).\n\
                     p(X, Y) :- b1(X, X1), b2(X1, Y).\n\
                     p(X, Y) :- b1(X, X1), p(X1, X2), b2(X2, Y).",
            language: "b1^n b2^n, n ≥ 1",
            class: LanguageClass::NonRegular,
            expected: ExpectedOutcome::Unknown,
        },
        GalleryEntry {
            name: "cycle_program",
            provenance: "Section 6, Program CYCLE",
            source: "?- p(X, X).\n\
                     p(X, Y) :- b(X, Y).\n\
                     p(X, Y) :- p(X, Z), b(Z, Y).",
            language: "b+ under the diagonal selection",
            class: LanguageClass::Regular,
            expected: ExpectedOutcome::Impossible,
        },
        GalleryEntry {
            name: "finite_two_words",
            provenance: "finiteness boundary (Thm 3.3(2), Prop 8.2)",
            source: "?- p(c, Y).\n\
                     p(X, Y) :- b1(X, Y).\n\
                     p(X, Y) :- b1(X, Z), b2(Z, Y).",
            language: "{b1, b1 b2}",
            class: LanguageClass::Finite,
            expected: ExpectedOutcome::Propagated,
        },
        GalleryEntry {
            name: "finite_diagonal",
            provenance: "tableaux rewrite case (Thm 3.3(2) 'if')",
            source: "?- p(X, X).\n\
                     p(X, Y) :- b(X, Y).\n\
                     p(X, Y) :- b(X, Z1), b(Z1, Z2), b(Z2, Y).",
            language: "{b, b^3} under the diagonal selection",
            class: LanguageClass::Finite,
            expected: ExpectedOutcome::Propagated,
        },
        GalleryEntry {
            name: "b1_b2star",
            provenance: "left-linear two-EDB family (E2)",
            source: "?- p(c, Y).\n\
                     p(X, Y) :- b1(X, Y).\n\
                     p(X, Y) :- p(X, Z), b2(Z, Y).",
            language: "b1 b2*",
            class: LanguageClass::Regular,
            expected: ExpectedOutcome::Propagated,
        },
        GalleryEntry {
            name: "even_paths",
            provenance: "containment probe (Prop 8.1 tests)",
            source: "?- e(c, Y).\n\
                     e(X, Y) :- par(X, Z), par(Z, Y).\n\
                     e(X, Y) :- e(X, Z), par(Z, W), par(W, Y).",
            language: "(par par)+",
            class: LanguageClass::Regular,
            expected: ExpectedOutcome::Propagated,
        },
        GalleryEntry {
            name: "palindromic",
            provenance: "a further non-regular family",
            source: "?- p(c, Y).\n\
                     p(X, Y) :- b1(X, X1), b1(X1, Y).\n\
                     p(X, Y) :- b2(X, X1), b2(X1, Y).\n\
                     p(X, Y) :- b1(X, X1), p(X1, X2), b1(X2, Y).\n\
                     p(X, Y) :- b2(X, X1), p(X1, X2), b2(X2, Y).",
            language: "even-length palindromes over {b1, b2}",
            class: LanguageClass::NonRegular,
            expected: ExpectedOutcome::Unknown,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagate::{propagate, Propagation};
    use selprop_grammar::analysis::{finiteness, Finiteness};

    #[test]
    fn gallery_parses() {
        for entry in gallery() {
            let chain = entry.chain();
            assert!(!chain.program.rules.is_empty(), "{}", entry.name);
        }
    }

    #[test]
    fn finiteness_ground_truth() {
        for entry in gallery() {
            let g = entry.chain().grammar();
            let is_finite = matches!(finiteness(&g), Finiteness::Finite(_));
            assert_eq!(
                is_finite,
                entry.class == LanguageClass::Finite,
                "finiteness mismatch for {}",
                entry.name
            );
        }
    }

    #[test]
    fn engine_matches_expected_outcomes() {
        for entry in gallery() {
            let outcome = propagate(&entry.chain()).unwrap();
            let got = match outcome {
                Propagation::Propagated { .. } => ExpectedOutcome::Propagated,
                Propagation::Impossible { .. } => ExpectedOutcome::Impossible,
                Propagation::Unknown(_) => ExpectedOutcome::Unknown,
            };
            assert_eq!(got, entry.expected, "outcome mismatch for {}", entry.name);
        }
    }

    #[test]
    fn propagated_entries_yield_monadic_programs() {
        for entry in gallery() {
            if entry.expected != ExpectedOutcome::Propagated {
                continue;
            }
            let Propagation::Propagated { program, .. } = propagate(&entry.chain()).unwrap()
            else {
                panic!("{} should propagate", entry.name);
            };
            assert!(program.is_monadic(), "{}", entry.name);
            assert!(program.validate().is_ok(), "{}", entry.name);
        }
    }

    #[test]
    fn nonregular_entries_have_growing_nerode_bounds() {
        use crate::propagate::nerode_lower_bound;
        for entry in gallery() {
            if entry.class != LanguageClass::NonRegular {
                continue;
            }
            let g = entry.chain().grammar();
            let small = nerode_lower_bound(&g, 3);
            let large = nerode_lower_bound(&g, 6);
            assert!(
                large > small,
                "{}: Nerode bound should grow ({} vs {})",
                entry.name,
                small,
                large
            );
        }
    }

    #[test]
    fn nerode_bounds_are_pinned() {
        use crate::propagate::nerode_lower_bound;
        // (name, bound at budgets 3, 6, 7)
        const PINNED: [(&str, [usize; 3]); 10] = [
            ("program_a", [2, 2, 2]),
            ("program_b", [2, 2, 2]),
            ("program_c", [2, 2, 2]),
            ("balanced", [7, 13, 15]),
            ("cycle_program", [2, 2, 2]),
            ("finite_two_words", [4, 4, 4]),
            ("finite_diagonal", [4, 5, 5]),
            ("b1_b2star", [3, 3, 3]),
            ("even_paths", [3, 3, 3]),
            ("palindromic", [15, 127, 255]),
        ];
        let entries = gallery();
        assert_eq!(entries.len(), PINNED.len());
        for (entry, (name, bounds)) in entries.iter().zip(PINNED) {
            assert_eq!(entry.name, name);
            let g = entry.chain().grammar();
            let got = [3, 6, 7].map(|budget| nerode_lower_bound(&g, budget));
            assert_eq!(got, bounds, "{name}");
        }
    }

    #[test]
    fn names_are_unique() {
        let names: Vec<&str> = gallery().iter().map(|e| e.name).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len());
    }
}
