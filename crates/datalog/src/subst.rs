//! Substitutions, unification, and renaming-apart.
//!
//! Unfolding a linear recursive rule (the paper's k-th *expansion*) is a
//! resolution step: the renamed head of the rule is unified with the recursive
//! body atom of the previous expansion. Because the fragment is function-free
//! and the recursive predicate's arguments are distinct variables, unification
//! here never needs an occurs check, but the implementation below is a full
//! syntactic unifier so it also serves queries with constants.

use crate::rule::Rule;
use crate::symbol::Symbol;
use crate::term::{Atom, Term};
use std::collections::BTreeMap;

/// A simultaneous substitution from variables to terms.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Subst {
    map: BTreeMap<Symbol, Term>,
}

impl Subst {
    /// The empty substitution.
    pub fn new() -> Subst {
        Subst::default()
    }

    /// Looks a variable up.
    pub fn get(&self, v: Symbol) -> Option<&Term> {
        self.map.get(&v)
    }

    /// Binds `v` to `t`, following existing bindings of `t` is the caller's
    /// concern (the unifier resolves chains itself).
    pub fn bind(&mut self, v: Symbol, t: Term) {
        self.map.insert(v, t);
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if there are no bindings.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Resolves a term through the substitution until a fixpoint (chases
    /// variable-to-variable bindings).
    pub fn resolve(&self, t: Term) -> Term {
        let mut current = t;
        let mut steps = 0;
        while let Term::Var(v) = current {
            match self.map.get(&v) {
                Some(&next) if next != current => {
                    current = next;
                    steps += 1;
                    // A substitution produced by the unifier is acyclic, but
                    // guard against pathological hand-built ones.
                    if steps > self.map.len() {
                        return current;
                    }
                }
                _ => break,
            }
        }
        current
    }

    /// Applies the substitution to an atom.
    pub(crate) fn apply_atom(&self, atom: &Atom) -> Atom {
        Atom {
            predicate: atom.predicate,
            terms: atom.terms.iter().map(|&t| self.resolve(t)).collect(),
        }
    }

    /// Applies the substitution to a rule.
    pub(crate) fn apply_rule(&self, rule: &Rule) -> Rule {
        Rule {
            head: self.apply_atom(&rule.head),
            body: rule.body.iter().map(|a| self.apply_atom(a)).collect(),
        }
    }

    /// Iterates over the bindings in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &Term)> {
        self.map.iter().map(|(&v, t)| (v, t))
    }
}

/// Unifies two atoms, returning the most general unifier if one exists.
pub(crate) fn unify_atoms(a: &Atom, b: &Atom) -> Option<Subst> {
    if a.predicate != b.predicate || a.arity() != b.arity() {
        return None;
    }
    let mut subst = Subst::new();
    for (&ta, &tb) in a.terms.iter().zip(&b.terms) {
        unify_terms(ta, tb, &mut subst)?;
    }
    Some(subst)
}

fn unify_terms(a: Term, b: Term, subst: &mut Subst) -> Option<()> {
    let ra = subst.resolve(a);
    let rb = subst.resolve(b);
    match (ra, rb) {
        (Term::Var(va), Term::Var(vb)) if va == vb => Some(()),
        (Term::Var(va), t) => {
            subst.bind(va, t);
            Some(())
        }
        (t, Term::Var(vb)) => {
            subst.bind(vb, t);
            Some(())
        }
        (Term::Const(ca), Term::Const(cb)) if ca == cb => Some(()),
        _ => None,
    }
}

/// Renames every variable of `rule` to a fresh one (suffix `_k` with `k`
/// drawn from `counter`) that neither `rule` nor `beside`, the rule it is
/// spliced into, names; returns the renamed rule and the renaming used.
/// This is the paper's "renumbering variables" step before unification.
pub(crate) fn rename_apart(rule: &Rule, beside: &Rule, counter: &mut u32) -> (Rule, Subst) {
    let mut taken = rule.variables();
    taken.extend(beside.variables());
    let mut renaming = Subst::new();
    for v in rule.variables() {
        let fresh = Symbol::fresh(v.as_str(), counter, &taken);
        renaming.bind(v, Term::Var(fresh));
    }
    (renaming.apply_rule(rule), renaming)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_atom, parse_rule};

    #[test]
    fn unify_identical_atoms() {
        let a = parse_atom("P(x, y)").unwrap();
        let s = unify_atoms(&a, &a).unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn unify_binds_variables() {
        let a = parse_atom("P(x, y)").unwrap();
        let b = parse_atom("P('c', z)").unwrap();
        let s = unify_atoms(&a, &b).unwrap();
        assert_eq!(s.resolve(Term::var("x")), Term::constant("c"));
        // y and z unify to the same representative.
        assert_eq!(s.resolve(Term::var("y")), s.resolve(Term::var("z")));
    }

    #[test]
    fn unify_fails_on_predicate_mismatch() {
        let a = parse_atom("P(x)").unwrap();
        let b = parse_atom("Q(x)").unwrap();
        assert!(unify_atoms(&a, &b).is_none());
    }

    #[test]
    fn unify_fails_on_arity_mismatch() {
        let a = parse_atom("P(x)").unwrap();
        let b = parse_atom("P(x, y)").unwrap();
        assert!(unify_atoms(&a, &b).is_none());
    }

    #[test]
    fn unify_fails_on_constant_clash() {
        let a = parse_atom("P('a')").unwrap();
        let b = parse_atom("P('b')").unwrap();
        assert!(unify_atoms(&a, &b).is_none());
    }

    #[test]
    fn unify_chains_through_shared_variables() {
        // P(x, x) with P('a', y) must bind both x and y to 'a'.
        let a = parse_atom("P(x, x)").unwrap();
        let b = parse_atom("P('a', y)").unwrap();
        let s = unify_atoms(&a, &b).unwrap();
        assert_eq!(s.resolve(Term::var("x")), Term::constant("a"));
        assert_eq!(s.resolve(Term::var("y")), Term::constant("a"));
    }

    #[test]
    fn unify_detects_deep_clash() {
        // P(x, x) against P('a', 'b') must fail.
        let a = parse_atom("P(x, x)").unwrap();
        let b = parse_atom("P('a', 'b')").unwrap();
        assert!(unify_atoms(&a, &b).is_none());
    }

    #[test]
    fn apply_rule_substitutes_everywhere() {
        let r = parse_rule("P(x, y) :- A(x, z), P(z, y).").unwrap();
        let mut s = Subst::new();
        s.bind(Symbol::intern("x"), Term::constant("a"));
        let r2 = s.apply_rule(&r);
        assert_eq!(r2.to_string(), "P('a', y) :- A('a', z), P(z, y).");
    }

    #[test]
    fn rename_apart_produces_disjoint_variables() {
        let r = parse_rule("P(x, y) :- A(x, z), P(z, y).").unwrap();
        let mut counter = 0;
        let (renamed, _) = rename_apart(&r, &r, &mut counter);
        let original_vars = r.variables();
        for v in renamed.variables() {
            assert!(!original_vars.contains(&v), "{v} leaked through renaming");
        }
        // Structure is preserved.
        assert_eq!(renamed.body.len(), 2);
        assert!(renamed.is_linear_recursive());
    }

    #[test]
    fn rename_apart_twice_is_disjoint() {
        let r = parse_rule("P(x, y) :- A(x, z), P(z, y).").unwrap();
        let mut counter = 0;
        let (r1, _) = rename_apart(&r, &r, &mut counter);
        let (r2, _) = rename_apart(&r, &r, &mut counter);
        let v1 = r1.variables();
        for v in r2.variables() {
            assert!(!v1.contains(&v));
        }
    }

    #[test]
    fn resolve_handles_var_chains() {
        let mut s = Subst::new();
        s.bind(Symbol::intern("x"), Term::var("y"));
        s.bind(Symbol::intern("y"), Term::constant("k"));
        assert_eq!(s.resolve(Term::var("x")), Term::constant("k"));
    }
}
