//! The paper's compression Remark (section 3) as an executable rule
//! transformation: several undirected edges within one connectivity group
//! compress into a single combined predicate —
//!
//! ```text
//! P(x, y) :- A(x, u), B(x, z), C(z, u), P(u, y)
//!   ⇒  P(x, y) :- ABC(x, u), P(u, y)
//! ```
//!
//! where the relation `ABC` is the join of `A`, `B`, `C` projected onto the
//! group's *interface* variables (those touched by directed edges). The
//! compressed rule has the same I-graph class and, with each combined
//! predicate defined by the rule `ABC(x, u) :- A(x, u), B(x, z), C(z, u).`
//! in front of it ([`Compressed::to_program`]), the same answers — both
//! facts are tested. Compression is also a practical optimization: the
//! inner joins are evaluated once, in the seeding round, instead of once per
//! fixpoint iteration.

use recurs_datalog::rule::{LinearRecursion, Program, Rule};
use recurs_datalog::term::{Atom, Term};
use recurs_datalog::Symbol;
use recurs_igraph::condense::condense;
use recurs_igraph::igraph_of;
use std::collections::{BTreeSet, HashMap};

/// One combined predicate produced by compression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CombinedPredicate {
    /// The fresh predicate name (concatenated member labels).
    pub name: Symbol,
    /// The interface variables, in the order they appear in the combined
    /// atom.
    pub interface: Vec<Symbol>,
    /// The original atoms this predicate replaces.
    pub members: Vec<Atom>,
}

/// The result of compressing a formula.
#[derive(Debug, Clone)]
pub struct Compressed {
    /// The rewritten formula.
    pub lr: LinearRecursion,
    /// The combined predicates the rewritten rule joins against.
    pub combined: Vec<CombinedPredicate>,
}

impl CombinedPredicate {
    /// The predicate's definition: `Name(interface) :- members.`
    pub fn rule(&self) -> Rule {
        let interface = self.interface.iter().map(|&v| Term::Var(v)).collect();
        Rule::new(Atom::new(self.name, interface), self.members.clone())
    }
}

impl Compressed {
    /// The combined predicates' definitions followed by the rewritten
    /// recursion — one program for whichever evaluator the caller holds
    /// (the definitions are non-recursive, so they are done after its
    /// seeding round).
    pub fn to_program(&self) -> Program {
        let mut rules: Vec<Rule> = self.combined.iter().map(CombinedPredicate::rule).collect();
        rules.extend(self.lr.to_program().rules);
        Program::new(rules)
    }
}

/// Compresses the recursive rule: within each undirected-connectivity group,
/// if two or more non-recursive atoms exist, they are replaced by a single
/// combined atom over the group's interface variables (variables that are
/// endpoints of directed edges, i.e. occur in the recursive predicate's head
/// or body occurrence). Groups with fewer than two atoms, or atoms whose
/// group lacks an interface, are left untouched.
pub fn compress(lr: &LinearRecursion) -> Compressed {
    let rule = &lr.recursive_rule;
    let condensed = condense(&igraph_of(rule));
    let rec_atom = lr.recursive_body_atom().clone();
    // Interface variables: endpoints of directed edges.
    let interface_vars: BTreeSet<Symbol> =
        rule.head.variables().chain(rec_atom.variables()).collect();
    // Group → atoms.
    let mut group_atoms: HashMap<usize, Vec<Atom>> = HashMap::new();
    for atom in lr.nonrecursive_body_atoms() {
        let var = atom
            .variables()
            .next()
            .expect("atoms have at least one variable");
        group_atoms
            .entry(condensed.group(var))
            .or_default()
            .push(atom.clone());
    }
    let mut combined: Vec<CombinedPredicate> = Vec::new();
    let mut new_body: Vec<Atom> = Vec::new();
    // Keep group order deterministic.
    let mut groups: Vec<usize> = group_atoms.keys().copied().collect();
    groups.sort_unstable();
    for g in groups {
        let atoms = &group_atoms[&g];
        let interface: Vec<Symbol> = condensed.groups[g]
            .iter()
            .copied()
            .filter(|v| interface_vars.contains(v))
            .collect();
        if atoms.len() < 2 || interface.is_empty() {
            new_body.extend(atoms.iter().cloned());
            continue;
        }
        let mut label: String = atoms
            .iter()
            .map(|a| a.predicate.as_str())
            .collect::<Vec<_>>()
            .join("");
        // Avoid clashing with an existing predicate of the program.
        while lr
            .to_program()
            .rules
            .iter()
            .flat_map(|r| r.body.iter().map(|a| a.predicate))
            .any(|p| p.as_str() == label)
        {
            label.push('_');
        }
        let predicate = CombinedPredicate {
            name: Symbol::intern(&label),
            interface,
            members: atoms.clone(),
        };
        new_body.push(predicate.rule().head);
        combined.push(predicate);
    }
    new_body.push(rec_atom);
    let compressed_rule = Rule::new(rule.head.clone(), new_body);
    Compressed {
        lr: LinearRecursion {
            predicate: lr.predicate,
            recursive_rule: compressed_rule,
            exit_rules: lr.exit_rules.clone(),
        },
        combined,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::Classification;
    use recurs_datalog::database::Database;
    use recurs_datalog::eval::semi_naive;
    use recurs_datalog::parser::parse_program;
    use recurs_datalog::relation::Relation;
    use recurs_datalog::validate::validate_with_generic_exit;

    fn lr(src: &str) -> LinearRecursion {
        validate_with_generic_exit(&parse_program(src).unwrap()).unwrap()
    }

    #[test]
    fn remark_example_compresses_to_abc() {
        let f = lr("P(x, y) :- A(x, u), B(x, z), C(z, u), P(u, y).");
        let c = compress(&f);
        assert_eq!(c.combined.len(), 1);
        let cp = &c.combined[0];
        assert_eq!(cp.name.as_str(), "ABC");
        assert_eq!(cp.members.len(), 3);
        // Interface: x and u (z is internal).
        assert_eq!(cp.interface, vec![Symbol::intern("u"), Symbol::intern("x")]);
        // The compressed rule is the paper's P(x,y) :- ABC(x,u), P(u,y)
        // (argument order follows the group's sorted interface).
        assert_eq!(c.lr.recursive_rule.body.len(), 2);
        assert!(Classification::of(&c.lr.recursive_rule).is_strongly_stable());
    }

    #[test]
    fn compression_preserves_class() {
        for src in [
            "P(x, y) :- A(x, u), B(x, z), C(z, u), P(u, y).",
            "P(x, y, z) :- A(x, u), B(y, v), P(u, v, w), C(w, z).",
            "P(x, y) :- A(x, x1), B(y, y1), C(x1, y1), P(x1, y1).",
        ] {
            let f = lr(src);
            let c = compress(&f);
            assert_eq!(
                Classification::of(&f.recursive_rule).class,
                Classification::of(&c.lr.recursive_rule).class,
                "class changed for {src}"
            );
        }
    }

    #[test]
    fn compression_preserves_answers() {
        let f = lr("P(x, y) :- A(x, u), B(x, z), C(z, u), P(u, y).");
        let c = compress(&f);
        let mut db = Database::new();
        db.insert_relation("A", Relation::from_pairs([(1, 2), (2, 3), (3, 4)]));
        db.insert_relation("B", Relation::from_pairs([(1, 8), (2, 9), (3, 7)]));
        db.insert_relation("C", Relation::from_pairs([(8, 2), (9, 3), (7, 5)]));
        db.insert_relation("E", Relation::from_pairs([(2, 20), (3, 30), (4, 40)]));
        let mut db2 = db.clone();
        semi_naive(&mut db, &f.to_program(), None).unwrap();
        semi_naive(&mut db2, &c.to_program(), None).unwrap();
        assert_eq!(db.get("P").unwrap(), db2.get("P").unwrap());
        assert_eq!(
            c.combined[0].rule().to_string(),
            "ABC(u, x) :- A(x, u), B(x, z), C(z, u)."
        );
    }

    #[test]
    fn single_atom_groups_untouched() {
        let f = lr("P(x, y) :- A(x, z), P(z, y).");
        let c = compress(&f);
        assert!(c.combined.is_empty());
        assert_eq!(c.lr.recursive_rule, f.recursive_rule);
    }

    #[test]
    fn trivial_groups_are_not_compressed() {
        // D(a,b), G(b,c) form a trivial two-atom component with no interface
        // variable — compression must leave them alone (they gate levels,
        // and the interface projection would be nullary).
        let f = lr("P(x, y) :- A(x, z), D(a, b), G(b, cc), P(z, y).");
        let c = compress(&f);
        assert!(c.combined.is_empty());
        assert_eq!(c.lr.recursive_rule.body.len(), f.recursive_rule.body.len());
    }

    #[test]
    fn name_clash_is_avoided() {
        // A body already using predicate "AB" forces the combined name to
        // grow a suffix.
        let f = lr("P(x, y) :- A(x, u), B(u, x), AB(x, q), P(u, y).");
        let c = compress(&f);
        // Group of {x, u, q}: atoms A, B, AB → label "ABAB"? members sorted
        // by body order; whatever the label, it must not equal an existing
        // predicate.
        for cp in &c.combined {
            assert_ne!(cp.name.as_str(), "A");
            assert_ne!(cp.name.as_str(), "B");
            assert_ne!(cp.name.as_str(), "AB");
        }
    }
}
