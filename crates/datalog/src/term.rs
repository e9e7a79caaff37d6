//! Terms and atoms of the function-free (Datalog) fragment.

use crate::symbol::Symbol;
use std::fmt;

/// A constant of the domain. Constants are interned names (which may be
/// numerals); data generators typically produce `Value::from_u64` constants.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Value(pub Symbol);

impl Value {
    /// Interns a numeric constant such as `42`.
    pub fn from_u64(n: u64) -> Value {
        // Numerals intern like any other name; this keeps tuples uniform.
        Value(Symbol::intern(itoa(n).as_str()))
    }

    /// Interns a named constant such as `a`.
    pub fn named(name: &str) -> Value {
        Value(Symbol::intern(name))
    }

    /// The constant's printable name.
    pub fn as_str(self) -> &'static str {
        self.0.as_str()
    }
}

fn itoa(n: u64) -> String {
    n.to_string()
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A term: either a variable or a constant.
///
/// The paper's recursive statements contain no constants, but queries do
/// (`P(a, b, Z)`), and exit relations may be defined over constants, so the
/// full term language carries both.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// A variable, e.g. `x`, `y1`.
    Var(Symbol),
    /// A constant, e.g. `a`, `42`.
    Const(Value),
}

impl Term {
    /// Convenience constructor for a variable term.
    pub fn var(name: &str) -> Term {
        Term::Var(Symbol::intern(name))
    }

    /// Convenience constructor for a named-constant term.
    pub fn constant(name: &str) -> Term {
        Term::Const(Value::named(name))
    }

    /// Is this term a variable?
    pub fn is_var(&self) -> bool {
        matches!(self, Term::Var(_))
    }

    /// The variable symbol, if this is a variable.
    pub fn as_var(&self) -> Option<Symbol> {
        match self {
            Term::Var(v) => Some(*v),
            Term::Const(_) => None,
        }
    }

    /// The constant value, if this is a constant.
    pub fn as_const(&self) -> Option<Value> {
        match self {
            Term::Var(_) => None,
            Term::Const(c) => Some(*c),
        }
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "{c}"),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// An atom `Pred(t1, ..., tn)`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    /// Predicate symbol.
    pub predicate: Symbol,
    /// Argument terms.
    pub terms: Vec<Term>,
}

impl Atom {
    /// Builds an atom from a predicate name and terms.
    pub fn new(predicate: impl Into<Symbol>, terms: Vec<Term>) -> Atom {
        Atom {
            predicate: predicate.into(),
            terms,
        }
    }

    /// Number of argument positions.
    pub fn arity(&self) -> usize {
        self.terms.len()
    }

    /// Iterator over the variables occurring in the atom, in position order
    /// (with repeats if a variable occurs more than once).
    pub fn variables(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.terms.iter().filter_map(Term::as_var)
    }

    /// The atom's distinct variables in first-occurrence order — the
    /// columns of its answer relation.
    pub fn distinct_variables(&self) -> Vec<Symbol> {
        let mut seen = Vec::new();
        for v in self.variables() {
            if !seen.contains(&v) {
                seen.push(v);
            }
        }
        seen
    }

    /// True if every argument is a distinct variable — the paper requires
    /// this of the recursive predicate's occurrences.
    pub fn has_distinct_variables(&self) -> bool {
        let mut seen = Vec::with_capacity(self.terms.len());
        for t in &self.terms {
            match t.as_var() {
                Some(v) if !seen.contains(&v) => seen.push(v),
                _ => return false,
            }
        }
        true
    }
}

impl fmt::Debug for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.predicate)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_from_u64_round_trips() {
        let v = Value::from_u64(42);
        assert_eq!(v.as_str(), "42");
        assert_eq!(v, Value::named("42"));
    }

    #[test]
    fn term_classification() {
        assert!(Term::var("x").is_var());
        assert!(!Term::constant("a").is_var());
        assert_eq!(Term::var("x").as_var(), Some(Symbol::intern("x")));
        assert_eq!(Term::constant("a").as_const(), Some(Value::named("a")));
        assert_eq!(Term::var("x").as_const(), None);
        assert_eq!(Term::constant("a").as_var(), None);
    }

    #[test]
    fn atom_display() {
        let a = Atom::new("P", vec![Term::var("x"), Term::constant("a")]);
        assert_eq!(a.to_string(), "P(x, a)");
        assert_eq!(a.arity(), 2);
    }

    #[test]
    fn distinct_variables_check() {
        let ok = Atom::new("P", vec![Term::var("x"), Term::var("y")]);
        assert!(ok.has_distinct_variables());
        let repeated = Atom::new("P", vec![Term::var("x"), Term::var("x")]);
        assert!(!repeated.has_distinct_variables());
        let with_const = Atom::new("P", vec![Term::var("x"), Term::constant("a")]);
        assert!(!with_const.has_distinct_variables());
    }

    #[test]
    fn variables_iterator_keeps_order() {
        let a = Atom::new(
            "Q",
            vec![Term::var("z"), Term::constant("c"), Term::var("x")],
        );
        let vars: Vec<_> = a.variables().collect();
        assert_eq!(vars, vec![Symbol::intern("z"), Symbol::intern("x")]);
    }
}
