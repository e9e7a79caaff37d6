//! Rules, programs, and the *linear recursion* view the paper analyses.

use crate::symbol::Symbol;
use crate::term::{Atom, Term};
use std::collections::BTreeSet;
use std::fmt;

/// A Horn rule `head :- body1, ..., bodyn.`  An empty body is a fact.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Rule {
    /// The consequent.
    pub head: Atom,
    /// The antecedent literals (all positive; the fragment is negation-free).
    pub body: Vec<Atom>,
}

impl Rule {
    /// Builds a rule.
    pub fn new(head: Atom, body: Vec<Atom>) -> Rule {
        Rule { head, body }
    }

    /// All body atoms whose predicate equals `p`.
    pub fn body_atoms_of(&self, p: Symbol) -> impl Iterator<Item = &Atom> {
        self.body.iter().filter(move |a| a.predicate == p)
    }

    /// Number of body occurrences of predicate `p`.
    pub(crate) fn occurrences_of(&self, p: Symbol) -> usize {
        self.body_atoms_of(p).count()
    }

    /// True if the rule is recursive, i.e. the head predicate occurs in the body.
    pub fn is_recursive(&self) -> bool {
        self.occurrences_of(self.head.predicate) > 0
    }

    /// True if the rule is *linear* recursive: exactly one body occurrence of
    /// the head predicate.
    pub fn is_linear_recursive(&self) -> bool {
        self.occurrences_of(self.head.predicate) == 1
    }

    /// The set of variables occurring anywhere in the rule, sorted by name.
    pub fn variables(&self) -> BTreeSet<Symbol> {
        let mut vars: BTreeSet<Symbol> = self.head.variables().collect();
        for atom in &self.body {
            vars.extend(atom.variables());
        }
        vars
    }

    /// Range restriction: the first head variable (by name) that occurs
    /// nowhere in the body, or `None` when every one does.
    pub(crate) fn unrestricted_variable(&self) -> Option<Symbol> {
        let body: BTreeSet<Symbol> = self.body.iter().flat_map(|a| a.variables()).collect();
        let head: BTreeSet<Symbol> = self.head.variables().collect();
        head.into_iter().find(|v| !body.contains(v))
    }

    /// True if no constant appears anywhere in the rule.
    pub(crate) fn is_constant_free(&self) -> bool {
        std::iter::once(&self.head)
            .chain(self.body.iter())
            .all(|a| a.terms.iter().all(Term::is_var))
    }
}

impl fmt::Debug for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.head)?;
        if !self.body.is_empty() {
            write!(f, " :- ")?;
            for (i, atom) in self.body.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{atom}")?;
            }
        }
        write!(f, ".")
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// A Datalog program: an ordered list of rules.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    /// The rules, in source order.
    pub rules: Vec<Rule>,
}

impl Program {
    /// Builds a program from rules.
    pub fn new(rules: Vec<Rule>) -> Program {
        Program { rules }
    }

    /// All predicates appearing as a rule head (the IDB predicates).
    pub fn idb_predicates(&self) -> BTreeSet<Symbol> {
        self.rules.iter().map(|r| r.head.predicate).collect()
    }

    /// All predicates appearing only in bodies (the EDB predicates).
    pub fn edb_predicates(&self) -> BTreeSet<Symbol> {
        let idb = self.idb_predicates();
        self.rules
            .iter()
            .flat_map(|r| r.body.iter().map(|a| a.predicate))
            .filter(|p| !idb.contains(p))
            .collect()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for rule in &self.rules {
            writeln!(f, "{rule}")?;
        }
        Ok(())
    }
}

/// The single-recursion setting of the paper: one linear recursive rule for a
/// predicate `P`, together with one or more non-recursive *exit* rules
/// `P :- E ...` for the same predicate.
///
/// The paper treats the exit rules generically (writing `E` for the exit
/// expression); this view keeps them explicit so plans can be executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinearRecursion {
    /// The recursive predicate `P`.
    pub predicate: Symbol,
    /// The linear recursive rule.
    pub recursive_rule: Rule,
    /// The exit rules (non-recursive rules for `P`).
    pub exit_rules: Vec<Rule>,
}

impl LinearRecursion {
    /// Extracts the linear-recursion view from a program, if the program has
    /// exactly one recursive rule and it is linear. Returns `None` otherwise
    /// (use [`crate::validate`] for diagnostics).
    pub fn from_program(program: &Program) -> Option<LinearRecursion> {
        let mut recursive: Vec<&Rule> = Vec::new();
        for rule in &program.rules {
            if rule.is_recursive() {
                recursive.push(rule);
            }
        }
        let [rec] = recursive.as_slice() else {
            return None;
        };
        if !rec.is_linear_recursive() {
            return None;
        }
        let p = rec.head.predicate;
        let exits: Vec<Rule> = program
            .rules
            .iter()
            .filter(|r| r.head.predicate == p && !r.is_recursive())
            .cloned()
            .collect();
        // Rules for other (non-recursive) predicates are outside the paper's
        // single-recursion setting; reject them so analyses stay honest.
        if program.rules.iter().any(|r| r.head.predicate != p) {
            return None;
        }
        Some(LinearRecursion {
            predicate: p,
            recursive_rule: (*rec).clone(),
            exit_rules: exits,
        })
    }

    /// The recursive body atom `P(y1, ..., yn)` of the recursive rule.
    pub fn recursive_body_atom(&self) -> &Atom {
        let Some(atom) = self.recursive_rule.body_atoms_of(self.predicate).next() else {
            // Unreachable: every constructor checks is_linear_recursive().
            panic!("linear recursion must contain a recursive body atom")
        };
        atom
    }

    /// The non-recursive body atoms of the recursive rule, in source order.
    pub fn nonrecursive_body_atoms(&self) -> impl Iterator<Item = &Atom> {
        self.recursive_rule
            .body
            .iter()
            .filter(move |a| a.predicate != self.predicate)
    }

    /// The *dimension* of the formula: the arity of the recursive predicate.
    pub fn dimension(&self) -> usize {
        self.recursive_rule.head.arity()
    }

    /// The whole program (recursive rule followed by exit rules).
    pub fn to_program(&self) -> Program {
        let mut rules = vec![self.recursive_rule.clone()];
        rules.extend(self.exit_rules.iter().cloned());
        Program::new(rules)
    }
}

impl fmt::Display for LinearRecursion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_program())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atom(p: &str, vars: &[&str]) -> Atom {
        Atom::new(p, vars.iter().map(|v| Term::var(v)).collect())
    }

    /// `P(x,y) :- A(x,z), P(z,y).` — the transitive-closure shape (s1a).
    fn s1a() -> Rule {
        Rule::new(
            atom("P", &["x", "y"]),
            vec![atom("A", &["x", "z"]), atom("P", &["z", "y"])],
        )
    }

    #[test]
    fn recursion_detection() {
        let r = s1a();
        assert!(r.is_recursive());
        assert!(r.is_linear_recursive());
        let exit = Rule::new(atom("P", &["x", "y"]), vec![atom("E", &["x", "y"])]);
        assert!(!exit.is_recursive());
    }

    #[test]
    fn nonlinear_rule_detected() {
        let r = Rule::new(
            atom("P", &["x", "y"]),
            vec![atom("P", &["x", "z"]), atom("P", &["z", "y"])],
        );
        assert!(r.is_recursive());
        assert!(!r.is_linear_recursive());
    }

    #[test]
    fn range_restriction() {
        assert_eq!(s1a().unrestricted_variable(), None);
        let bad = Rule::new(atom("P", &["x", "w"]), vec![atom("A", &["x", "z"])]);
        assert_eq!(bad.unrestricted_variable(), Some(Symbol::intern("w")));
    }

    #[test]
    fn constant_freedom() {
        assert!(s1a().is_constant_free());
        let with_const = Rule::new(
            atom("P", &["x", "y"]),
            vec![Atom::new("A", vec![Term::var("x"), Term::constant("a")])],
        );
        assert!(!with_const.is_constant_free());
    }

    #[test]
    fn program_predicate_partition() {
        let p = Program::new(vec![
            s1a(),
            Rule::new(atom("P", &["x", "y"]), vec![atom("E", &["x", "y"])]),
        ]);
        let idb = p.idb_predicates();
        let edb = p.edb_predicates();
        assert!(idb.contains(&Symbol::intern("P")));
        assert!(edb.contains(&Symbol::intern("A")));
        assert!(edb.contains(&Symbol::intern("E")));
        assert!(!edb.contains(&Symbol::intern("P")));
    }

    #[test]
    fn linear_recursion_extraction() {
        let p = Program::new(vec![
            s1a(),
            Rule::new(atom("P", &["x", "y"]), vec![atom("E", &["x", "y"])]),
        ]);
        let lr = LinearRecursion::from_program(&p).expect("should extract");
        assert_eq!(lr.predicate, Symbol::intern("P"));
        assert_eq!(lr.dimension(), 2);
        assert_eq!(lr.exit_rules.len(), 1);
        assert_eq!(lr.recursive_body_atom(), &atom("P", &["z", "y"]));
        let nonrec: Vec<_> = lr.nonrecursive_body_atoms().collect();
        assert_eq!(nonrec.len(), 1);
        assert_eq!(nonrec[0].predicate, Symbol::intern("A"));
    }

    #[test]
    fn extraction_rejects_multiple_recursive_rules() {
        let p = Program::new(vec![s1a(), s1a()]);
        assert!(LinearRecursion::from_program(&p).is_none());
    }

    #[test]
    fn extraction_rejects_foreign_idb() {
        let p = Program::new(vec![
            s1a(),
            Rule::new(atom("Q", &["x"]), vec![atom("A", &["x", "x"])]),
        ]);
        assert!(LinearRecursion::from_program(&p).is_none());
    }

    #[test]
    fn rule_display_round_trip_shape() {
        assert_eq!(s1a().to_string(), "P(x, y) :- A(x, z), P(z, y).");
    }
}
