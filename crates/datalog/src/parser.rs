//! Tokenizer and recursive-descent parser for the surface syntax.
//!
//! Grammar (terminals in quotes):
//!
//! ```text
//! program  := clause*
//! clause   := rule | fact | query
//! rule     := atom ":-" atom ("," atom)* "."
//! fact     := atom "."
//! query    := "?-" atom "."
//! atom     := IDENT "(" term ("," term)* ")"
//! term     := IDENT            -- variable (any identifier)
//!           | NUMBER           -- constant
//!           | "'" chars "'"    -- named constant
//! ```
//!
//! Following the paper, identifiers in argument position are variables
//! regardless of case (`x`, `Z`, `y1` are all variables); constants are
//! numerals or quoted names (`'a'`). Comments run from `%` or `//` to the end
//! of the line.

use crate::error::ParseError;
use crate::rule::{Program, Rule};
use crate::term::{Atom, Term, Value};
use std::fmt;

/// A parsed clause: either a rule/fact or a goal query `?- P(...)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Clause {
    /// A rule (a fact is a rule with an empty body).
    Rule(Rule),
    /// A query goal.
    Query(Atom),
}

/// Result of parsing a full source text.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParseOutput {
    /// The rules and facts, in source order.
    pub program: Program,
    /// The queries, in source order.
    pub queries: Vec<Atom>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Number(String),
    Quoted(String),
    LParen,
    RParen,
    Comma,
    Dot,
    Implies,   // :-
    QueryMark, // ?-
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier `{s}`"),
            Tok::Number(s) => write!(f, "number `{s}`"),
            Tok::Quoted(s) => write!(f, "constant `'{s}'`"),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::Comma => write!(f, "`,`"),
            Tok::Dot => write!(f, "`.`"),
            Tok::Implies => write!(f, "`:-`"),
            Tok::QueryMark => write!(f, "`?-`"),
        }
    }
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

#[derive(Debug, Clone)]
struct Spanned {
    tok: Tok,
    line: usize,
    col: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            column: self.col,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'%') => {
                    while let Some(c) = self.bump() {
                        if c == b'\n' {
                            break;
                        }
                    }
                }
                Some(b'/') if self.src.get(self.pos + 1) == Some(&b'/') => {
                    while let Some(c) = self.bump() {
                        if c == b'\n' {
                            break;
                        }
                    }
                }
                _ => return,
            }
        }
    }

    fn tokens(mut self) -> Result<Vec<Spanned>, ParseError> {
        let mut out = Vec::new();
        loop {
            self.skip_trivia();
            let (line, col) = (self.line, self.col);
            let Some(c) = self.peek() else { break };
            let tok = match c {
                b'(' => {
                    self.bump();
                    Tok::LParen
                }
                b')' => {
                    self.bump();
                    Tok::RParen
                }
                b',' => {
                    self.bump();
                    Tok::Comma
                }
                b'.' => {
                    self.bump();
                    Tok::Dot
                }
                b':' => {
                    self.bump();
                    if self.peek() == Some(b'-') {
                        self.bump();
                        Tok::Implies
                    } else {
                        return Err(self.err("expected `-` after `:`"));
                    }
                }
                b'?' => {
                    self.bump();
                    if self.peek() == Some(b'-') {
                        self.bump();
                        Tok::QueryMark
                    } else {
                        return Err(self.err("expected `-` after `?`"));
                    }
                }
                b'\'' => {
                    self.bump();
                    let start = self.pos;
                    loop {
                        match self.bump() {
                            Some(b'\'') => break,
                            Some(_) => {}
                            None => return Err(self.err("unterminated quoted constant")),
                        }
                    }
                    // The quotes are ASCII, so the source between them is
                    // whole UTF-8 and nothing is replaced.
                    let text = &self.src[start..self.pos - 1];
                    Tok::Quoted(String::from_utf8_lossy(text).into_owned())
                }
                c if c.is_ascii_digit() => {
                    let mut s = String::new();
                    while let Some(c) = self.peek() {
                        if c.is_ascii_digit() {
                            s.push(c as char);
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    Tok::Number(s)
                }
                c if c.is_ascii_alphabetic() || c == b'_' => {
                    let mut s = String::new();
                    while let Some(c) = self.peek() {
                        if c.is_ascii_alphanumeric() || c == b'_' {
                            s.push(c as char);
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    Tok::Ident(s)
                }
                other => return Err(self.err(format!("unexpected character `{}`", other as char))),
            };
            out.push(Spanned { tok, line, col });
        }
        Ok(out)
    }
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn err_at(&self, message: impl Into<String>) -> ParseError {
        let (line, column) = self
            .toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map(|s| (s.line, s.col))
            .unwrap_or((1, 1));
        ParseError {
            line,
            column,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|s| &s.tok)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|s| s.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, want: &Tok) -> Result<(), ParseError> {
        match self.peek() {
            Some(t) if t == want => {
                self.bump();
                Ok(())
            }
            Some(t) => Err(self.err_at(format!("expected {want}, found {t}"))),
            None => Err(self.err_at(format!("expected {want}, found end of input"))),
        }
    }

    fn term(&mut self) -> Result<Term, ParseError> {
        match self.bump() {
            Some(Tok::Ident(name)) => Ok(Term::var(&name)),
            Some(Tok::Number(n)) => Ok(Term::Const(Value::named(&n))),
            Some(Tok::Quoted(s)) => Ok(Term::Const(Value::named(&s))),
            Some(t) => Err(self.err_at(format!("expected a term, found {t}"))),
            None => Err(self.err_at("expected a term, found end of input")),
        }
    }

    fn atom(&mut self) -> Result<Atom, ParseError> {
        let name = match self.bump() {
            Some(Tok::Ident(name)) => name,
            Some(t) => return Err(self.err_at(format!("expected a predicate name, found {t}"))),
            None => return Err(self.err_at("expected a predicate name, found end of input")),
        };
        self.expect(&Tok::LParen)?;
        let mut terms = vec![self.term()?];
        while self.peek() == Some(&Tok::Comma) {
            self.bump();
            terms.push(self.term()?);
        }
        self.expect(&Tok::RParen)?;
        Ok(Atom::new(name.as_str(), terms))
    }

    fn clause(&mut self) -> Result<Clause, ParseError> {
        if self.peek() == Some(&Tok::QueryMark) {
            self.bump();
            let goal = self.atom()?;
            self.expect(&Tok::Dot)?;
            return Ok(Clause::Query(goal));
        }
        let head = self.atom()?;
        let mut body = Vec::new();
        if self.peek() == Some(&Tok::Implies) {
            self.bump();
            body.push(self.atom()?);
            while self.peek() == Some(&Tok::Comma) {
                self.bump();
                body.push(self.atom()?);
            }
        }
        self.expect(&Tok::Dot)?;
        Ok(Clause::Rule(Rule::new(head, body)))
    }
}

/// Parses a full source text into rules/facts and queries.
pub fn parse(src: &str) -> Result<ParseOutput, ParseError> {
    let toks = Lexer::new(src).tokens()?;
    let mut parser = Parser { toks, pos: 0 };
    let mut out = ParseOutput::default();
    while parser.peek().is_some() {
        match parser.clause()? {
            Clause::Rule(r) => out.program.rules.push(r),
            Clause::Query(q) => out.queries.push(q),
        }
    }
    Ok(out)
}

/// Parses a program (rules and facts only); queries are rejected.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let out = parse(src)?;
    if !out.queries.is_empty() {
        return Err(ParseError {
            line: 1,
            column: 1,
            message: "unexpected query in program source".into(),
        });
    }
    Ok(out.program)
}

/// Parses a single rule, e.g. `P(x,y) :- A(x,z), P(z,y).`
pub fn parse_rule(src: &str) -> Result<Rule, ParseError> {
    let program = parse_program(src)?;
    match <[Rule; 1]>::try_from(program.rules) {
        Ok([r]) => Ok(r),
        Err(rules) => Err(ParseError {
            line: 1,
            column: 1,
            message: format!("expected exactly one rule, found {}", rules.len()),
        }),
    }
}

/// Parses a single atom, e.g. `P(x, 'a', 3)`.
pub fn parse_atom(src: &str) -> Result<Atom, ParseError> {
    let toks = Lexer::new(src).tokens()?;
    let mut parser = Parser { toks, pos: 0 };
    let atom = parser.atom()?;
    if parser.peek().is_some() {
        return Err(parser.err_at("trailing input after atom"));
    }
    Ok(atom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::Symbol;

    #[test]
    fn parses_s1a() {
        let r = parse_rule("P(x, y) :- A(x, z), P(z, y).").unwrap();
        assert_eq!(r.head.predicate, Symbol::intern("P"));
        assert_eq!(r.body.len(), 2);
        assert!(r.is_linear_recursive());
        assert_eq!(r.to_string(), "P(x, y) :- A(x, z), P(z, y).");
    }

    #[test]
    fn parses_facts_and_constants() {
        let p = parse_program("A(1, 2).\nA(2, 3).\nB('a', x).").unwrap();
        assert_eq!(p.rules.len(), 3);
        assert_eq!(p.rules[0].head.terms[0], Term::Const(Value::named("1")));
        assert_eq!(p.rules[2].head.terms[0], Term::Const(Value::named("a")));
        assert_eq!(p.rules[2].head.terms[1], Term::var("x"));
    }

    #[test]
    fn parses_queries() {
        let out = parse("P(x,y) :- E(x,y).\n?- P('a', z).").unwrap();
        assert_eq!(out.program.rules.len(), 1);
        assert_eq!(out.queries.len(), 1);
        assert_eq!(out.queries[0].predicate, Symbol::intern("P"));
        assert_eq!(out.queries[0].terms[0], Term::constant("a"));
    }

    #[test]
    fn comments_are_skipped() {
        let p = parse_program("% header comment\nA(1,2). // trailing\n% tail").unwrap();
        assert_eq!(p.rules.len(), 1);
    }

    #[test]
    fn uppercase_identifiers_are_variables_in_argument_position() {
        let r = parse_rule("P(X, y) :- A(X, y).").unwrap();
        assert!(r.head.terms[0].is_var());
    }

    #[test]
    fn error_positions_are_reported() {
        let e = parse_program("A(1,\n   ?).").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("term") || e.message.contains('-'));
    }

    #[test]
    fn missing_dot_is_an_error() {
        assert!(parse_program("A(1,2)").is_err());
    }

    #[test]
    fn unterminated_quote_is_an_error() {
        let e = parse_program("A('oops, 2).").unwrap_err();
        assert!(e.message.contains("unterminated"));
    }

    #[test]
    fn a_quoted_constant_keeps_its_utf8_text() {
        let p = parse_program("E('café', 'λ→b').").unwrap();
        assert_eq!(p.rules[0].head.terms[0], Term::constant("café"));
        assert_eq!(p.rules[0].head.terms[1], Term::constant("λ→b"));
        let a = parse_atom("P(x, 'naïve')").unwrap();
        assert_eq!(a.terms[1], Term::Const(Value::named("naïve")));
    }

    #[test]
    fn parse_rule_rejects_multiple() {
        assert!(parse_rule("A(1,2). B(2,3).").is_err());
    }

    #[test]
    fn parse_atom_works() {
        let a = parse_atom("P(x, 'b', 3)").unwrap();
        assert_eq!(a.arity(), 3);
        assert!(parse_atom("P(x) extra").is_err());
    }

    #[test]
    fn zero_arity_is_rejected() {
        // The grammar requires at least one argument; propositional atoms are
        // outside the paper's fragment.
        assert!(parse_program("P().").is_err());
    }

    #[test]
    fn display_parse_round_trip() {
        let src = "P(x, y, z) :- A(x, u), B(y, v), P(u, v, w), C(w, z).";
        let r = parse_rule(src).unwrap();
        let r2 = parse_rule(&r.to_string()).unwrap();
        assert_eq!(r, r2);
    }
}
