//! Error types for the Datalog substrate.

use crate::symbol::Symbol;
use std::fmt;

/// Any error produced by the Datalog substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatalogError {
    /// A syntax error from the parser.
    Parse(ParseError),
    /// A predicate was used with two different arities.
    ArityMismatch {
        /// The offending predicate.
        predicate: Symbol,
        /// Arity seen first.
        expected: usize,
        /// Conflicting arity.
        found: usize,
    },
    /// A relation was not present in the database.
    UnknownRelation(Symbol),
    /// A variable was used where no binding for it exists (e.g. a head
    /// variable missing from the body during evaluation).
    UnboundVariable(Symbol),
    /// A tuple's width did not match the relation's arity.
    TupleArity {
        /// The relation.
        relation: Symbol,
        /// The relation's arity.
        expected: usize,
        /// The tuple's width.
        found: usize,
    },
    /// The program violates one of the paper's structural restrictions.
    Validation(ValidationError),
    /// Outside input named a relation in the namespace reserved for the
    /// relations the planner and view maintenance synthesize (see
    /// [`crate::validate::is_reserved`]).
    ReservedName(Symbol),
}

/// A syntax error with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub column: usize,
    /// Human-readable description.
    pub message: String,
}

/// Violations of the paper's restrictions on recursive statements
/// (section 2: function-free, single linear recursion, no constants,
/// distinct variables under the recursive predicate, range restriction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// No recursive rule was found.
    NoRecursiveRule,
    /// More than one recursive rule (the paper assumes single recursion).
    MultipleRecursiveRules(usize),
    /// The recursive rule mentions the recursive predicate more than once in
    /// its body (non-linear recursion).
    NonLinear {
        /// The recursive predicate.
        predicate: Symbol,
        /// Number of body occurrences.
        occurrences: usize,
    },
    /// A constant appears in the recursive statement.
    ConstantInRecursiveRule,
    /// A variable appears more than once (or a constant appears) under the
    /// recursive predicate.
    RepeatedVariableUnderRecursivePredicate {
        /// The offending atom, printed.
        atom: String,
    },
    /// A head variable does not occur in the body.
    NotRangeRestricted {
        /// The offending variable.
        variable: Symbol,
    },
    /// Head and body occurrences of the recursive predicate disagree in arity.
    RecursiveArityMismatch {
        /// Head arity.
        head: usize,
        /// Body-occurrence arity.
        body: usize,
    },
    /// An exit rule is recursive or otherwise malformed.
    MalformedExitRule {
        /// The offending rule, printed.
        rule: String,
    },
    /// No exit rule is present; the recursion can never produce tuples.
    NoExitRule,
    /// A predicate is used at two different arities within the program.
    InconsistentArity {
        /// The offending predicate.
        predicate: Symbol,
        /// The arity seen first.
        first: usize,
        /// The conflicting arity.
        second: usize,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.column, self.message)
    }
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::NoRecursiveRule => write!(f, "no recursive rule in program"),
            ValidationError::MultipleRecursiveRules(n) => {
                write!(f, "expected a single recursive rule, found {n}")
            }
            ValidationError::NonLinear {
                predicate,
                occurrences,
            } => write!(
                f,
                "recursion on {predicate} is not linear ({occurrences} body occurrences)"
            ),
            ValidationError::ConstantInRecursiveRule => {
                write!(f, "constants are not allowed in the recursive statement")
            }
            ValidationError::RepeatedVariableUnderRecursivePredicate { atom } => write!(
                f,
                "arguments of the recursive predicate must be distinct variables: {atom}"
            ),
            ValidationError::NotRangeRestricted { variable } => write!(
                f,
                "head variable {variable} does not occur in the body (not range restricted)"
            ),
            ValidationError::RecursiveArityMismatch { head, body } => write!(
                f,
                "recursive predicate arity mismatch: head {head}, body occurrence {body}"
            ),
            ValidationError::MalformedExitRule { rule } => {
                write!(f, "malformed exit rule: {rule}")
            }
            ValidationError::NoExitRule => write!(f, "no exit rule for the recursive predicate"),
            ValidationError::InconsistentArity {
                predicate,
                first,
                second,
            } => write!(
                f,
                "predicate {predicate} used at arities {first} and {second}"
            ),
        }
    }
}

impl fmt::Display for DatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatalogError::Parse(e) => write!(f, "parse error: {e}"),
            DatalogError::ArityMismatch {
                predicate,
                expected,
                found,
            } => write!(
                f,
                "predicate {predicate} used with arity {found}, previously {expected}"
            ),
            DatalogError::UnknownRelation(p) => write!(f, "unknown relation {p}"),
            DatalogError::UnboundVariable(v) => write!(f, "unbound variable {v}"),
            DatalogError::TupleArity {
                relation,
                expected,
                found,
            } => write!(
                f,
                "tuple of width {found} inserted into {relation} of arity {expected}"
            ),
            DatalogError::Validation(v) => write!(f, "invalid program: {v}"),
            DatalogError::ReservedName(p) => write!(
                f,
                "relation name {p} is reserved: names containing `__` belong to synthesized \
                 relations"
            ),
        }
    }
}

impl std::error::Error for DatalogError {}
impl std::error::Error for ParseError {}

impl From<ParseError> for DatalogError {
    fn from(e: ParseError) -> Self {
        DatalogError::Parse(e)
    }
}

impl From<ValidationError> for DatalogError {
    fn from(e: ValidationError) -> Self {
        DatalogError::Validation(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = DatalogError::TupleArity {
            relation: Symbol::intern("A"),
            expected: 2,
            found: 3,
        };
        let s = e.to_string();
        assert!(s.contains('A') && s.contains('2') && s.contains('3'));
    }

    #[test]
    fn parse_error_position() {
        let e = ParseError {
            line: 3,
            column: 7,
            message: "unexpected token".into(),
        };
        assert_eq!(e.to_string(), "3:7: unexpected token");
    }

    #[test]
    fn conversions() {
        let v = ValidationError::NoExitRule;
        let d: DatalogError = v.clone().into();
        assert_eq!(d, DatalogError::Validation(v));
    }
}
