//! Parser for the Prolog-like surface syntax used throughout the paper.
//!
//! ```text
//! ?- anc(john, Y).
//! anc(X, Y) :- par(X, Y).
//! anc(X, Y) :- anc(X, Z), par(Z, Y).
//! ```
//!
//! Conventions (Prolog / paper notation): identifiers starting with an
//! uppercase letter or `_` are variables; everything else (identifiers
//! starting lowercase or digits) are constants. The goal line starts with
//! `?-` or `?` and may appear anywhere (first, in the paper's examples).
//!
//! The reader walks the input `&str` in place: a name is a slice of it,
//! never a copy, and an error's position is a byte offset into the text.

use crate::ast::{Atom, Program, Rule, Symbols, Term};

/// Parses a full program (rules + goal).
///
/// ```
/// use selprop_datalog::{parse_program, Database, answer, Strategy};
/// let mut p = parse_program(
///     "?- anc(ann, Y).\n\
///      anc(X, Y) :- par(X, Y).\n\
///      anc(X, Y) :- anc(X, Z), par(Z, Y).",
/// ).unwrap();
/// let par = p.symbols.get_predicate("par").unwrap();
/// let ann = p.symbols.get_constant("ann").unwrap();
/// let bob = p.symbols.constant("bob");
/// let mut db = Database::new();
/// db.insert(par, vec![ann, bob]);
/// let (ans, _) = answer(&p, &db, Strategy::SemiNaive);
/// assert_eq!(ans.len(), 1);
/// ```
pub fn parse_program(text: &str) -> Result<Program, String> {
    let mut symbols = Symbols::new();
    let mut rules = Vec::new();
    let mut goal: Option<Atom> = None;
    let mut p = Tokens::new(text);
    while !p.eof() {
        if p.try_consume("?-") || p.try_consume("?") {
            let atom = parse_atom(&mut p, &mut symbols)?;
            p.try_consume(".");
            if goal.is_some() {
                return Err("multiple goals".to_owned());
            }
            goal = Some(atom);
            continue;
        }
        let head = parse_atom(&mut p, &mut symbols)?;
        let mut body = Vec::new();
        if p.try_consume(":-") {
            loop {
                body.push(parse_atom(&mut p, &mut symbols)?);
                if !p.try_consume(",") {
                    break;
                }
            }
        }
        if !p.try_consume(".") {
            return Err(format!("expected '.' near position {}", p.pos));
        }
        rules.push(Rule::new(head, body));
    }
    let goal = goal.ok_or_else(|| "missing goal (start a line with `?-`)".to_owned())?;
    let program = Program {
        rules,
        goal,
        symbols,
    };
    program.validate()?;
    Ok(program)
}

/// Parses a single atom against existing symbol spaces (used by tests and
/// the query API to build goals programmatically from text).
pub fn parse_atom_str(text: &str, symbols: &mut Symbols) -> Result<Atom, String> {
    let mut p = Tokens::new(text);
    let atom = parse_atom(&mut p, symbols)?;
    p.skip_ws();
    if !p.eof() {
        return Err("trailing input after atom".to_owned());
    }
    Ok(atom)
}

fn parse_atom(p: &mut Tokens, symbols: &mut Symbols) -> Result<Atom, String> {
    let name = p
        .ident()
        .ok_or_else(|| format!("expected predicate name at position {}", p.pos))?;
    let pred = symbols.predicate(name);
    let mut args = Vec::new();
    if p.try_consume("(") {
        loop {
            let tok = p
                .ident()
                .ok_or_else(|| format!("expected term at position {}", p.pos))?;
            // `ident()` never returns an empty token, but arbitrary input
            // must go through `Err`, not a panicking `expect`.
            let first = tok
                .chars()
                .next()
                .ok_or_else(|| format!("empty term at position {}", p.pos))?;
            let term = if first.is_uppercase() || first == '_' {
                Term::Var(symbols.variable(tok))
            } else {
                Term::Const(symbols.constant(tok))
            };
            args.push(term);
            if !p.try_consume(",") {
                break;
            }
        }
        if !p.try_consume(")") {
            return Err(format!("expected ')' at position {}", p.pos));
        }
    }
    Ok(Atom::new(pred, args))
}

/// The unread rest of the input is `text[pos..]`; `pos` is a byte
/// offset, and always on a character boundary.
struct Tokens<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Tokens<'a> {
    fn new(text: &'a str) -> Self {
        Self { text, pos: 0 }
    }

    fn rest(&self) -> &'a str {
        &self.text[self.pos..]
    }

    fn skip_ws(&mut self) {
        loop {
            let rest = self.rest().trim_start();
            self.pos = self.text.len() - rest.len();
            // comments: % or # to end of line
            if rest.starts_with(['%', '#']) {
                self.pos += rest.find('\n').unwrap_or(rest.len());
            } else {
                break;
            }
        }
    }

    fn eof(&mut self) -> bool {
        self.skip_ws();
        self.pos >= self.text.len()
    }

    fn try_consume(&mut self, what: &str) -> bool {
        self.skip_ws();
        // avoid matching "?" as prefix of "?-": handled by caller order;
        // avoid matching ":" alone etc. — fixed token set keeps it simple.
        if self.rest().starts_with(what) {
            self.pos += what.len();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Option<&'a str> {
        self.skip_ws();
        let rest = self.rest();
        let len = rest.find(|c: char| !(c.is_alphanumeric() || c == '_')).unwrap_or(rest.len());
        self.pos += len;
        (len > 0).then(|| &rest[..len])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_program_a() {
        // Program A from Example 1.1.
        let p = parse_program(
            "?- anc(john, Y).\n\
             anc(X, Y) :- par(X, Y).\n\
             anc(X, Y) :- anc(X, Z), par(Z, Y).",
        )
        .unwrap();
        assert_eq!(p.rules.len(), 2);
        assert_eq!(p.symbols.pred_name(p.goal.pred), "anc");
        assert!(matches!(p.goal.args[0], Term::Const(_)));
        assert!(matches!(p.goal.args[1], Term::Var(_)));
    }

    #[test]
    fn parse_program_d_monadic() {
        // Program D: the monadic rewrite.
        let p = parse_program(
            "?- ancjohn(Y).\n\
             ancjohn(Y) :- par(john, Y).\n\
             ancjohn(Y) :- ancjohn(Z), par(Z, Y).",
        )
        .unwrap();
        assert!(p.is_monadic());
        assert_eq!(p.rules.len(), 2);
    }

    #[test]
    fn comments_and_whitespace() {
        let p = parse_program(
            "% the goal\n?- q(X).\n# a rule\nq(X) :- e(X, Y).  % trailing\n",
        )
        .unwrap();
        assert_eq!(p.rules.len(), 1);
    }

    #[test]
    fn zero_ary_predicates() {
        let p = parse_program("?- yes.\nyes :- e(X, X).").unwrap();
        assert_eq!(p.goal.arity(), 0);
        assert!(p.is_monadic());
    }

    #[test]
    fn facts_allowed_when_ground() {
        let p = parse_program("?- q(X).\nq(a).\nq(X) :- e(X).").unwrap();
        assert_eq!(p.rules.len(), 2);
        assert!(p.rules[0].body.is_empty());
    }

    #[test]
    fn missing_goal_rejected() {
        assert!(parse_program("q(X) :- e(X).").is_err());
    }

    #[test]
    fn goal_must_be_idb() {
        assert!(parse_program("?- e(X).\nq(X) :- e(X).").is_err());
    }

    #[test]
    fn unsafe_program_rejected() {
        assert!(parse_program("?- q(X).\nq(X) :- e(Y).").is_err());
    }

    #[test]
    fn underscore_vars() {
        let p = parse_program("?- q(X).\nq(X) :- e(X, _Y).").unwrap();
        let rule = &p.rules[0];
        assert_eq!(rule.body[0].vars().count(), 2);
    }

    #[test]
    fn parse_atom_helper() {
        let mut sy = Symbols::new();
        let a = parse_atom_str("anc(john, Y)", &mut sy).unwrap();
        assert_eq!(a.arity(), 2);
        assert!(parse_atom_str("anc(john", &mut sy).is_err());
    }

    mod fuzz {
        //! `parse_program`, `parse_atom_str` and `Database::parse_facts`
        //! must return `Err`, never panic, on arbitrary input. Three
        //! generators: raw byte soup (lossily decoded, so invalid UTF-8
        //! becomes replacement characters), soup built from the
        //! parser's own token vocabulary (reaches deep states that
        //! random bytes rarely hit), and mutated valid programs
        //! (near-misses around every position).

        use super::*;
        use proptest::prelude::*;

        /// Tokens of the surface syntax plus adversarial near-tokens.
        const TOKENS: &[&str] = &[
            "?-", "?", ":-", ":", "-", ".", ",", "(", ")", "anc", "par", "X", "Y", "_",
            "_Y", "john", "q", "e", "%", "# c\n", "\n", " ", "\t", "0", "12", "α", "Ω",
            "?.", "()", "((", "))", ".." ,
        ];

        /// A valid program that mutations start from.
        const SEED: &str = "?- anc(john, Y).\nanc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), par(Z, Y).";

        fn never_panics(text: &str) {
            // Every entry point: whole programs, single atoms and fact
            // lists.
            let _ = parse_program(text);
            let mut sy = Symbols::new();
            let _ = parse_atom_str(text, &mut sy);
            let _ = crate::db::Database::parse_facts(text, &mut sy);
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(500))]

            #[test]
            fn random_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..120)) {
                never_panics(&String::from_utf8_lossy(&bytes));
            }

            #[test]
            fn token_soup_never_panics(picks in proptest::collection::vec(0usize..TOKENS.len(), 0..60)) {
                let text: String = picks.iter().map(|&i| TOKENS[i]).collect();
                never_panics(&text);
            }

            #[test]
            fn mutated_valid_programs_never_panic(
                cut in 0usize..SEED.len(),
                insert in 0usize..TOKENS.len(),
                drop_len in 0usize..8,
            ) {
                // Splice a token into (or over) a char boundary of a valid
                // program: the classic near-miss neighborhood.
                let cut = (0..=cut).rev().find(|&i| SEED.is_char_boundary(i)).unwrap_or(0);
                let end = (cut + drop_len).min(SEED.len());
                let end = (end..=SEED.len()).find(|&i| SEED.is_char_boundary(i)).unwrap_or(SEED.len());
                let text = format!("{}{}{}", &SEED[..cut], TOKENS[insert], &SEED[end..]);
                never_panics(&text);
            }
        }
    }
}
