//! A named store of relations (the extensional database, plus derived IDB
//! relations during evaluation).

use crate::error::DatalogError;
use crate::relation::{Relation, Tuple};
use crate::rule::Program;
use crate::symbol::Symbol;
use crate::term::{Term, Value};
use std::collections::BTreeMap;
use std::fmt;

/// A database: predicate symbol → relation.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Database {
    relations: BTreeMap<Symbol, Relation>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Registers an empty relation of the given arity (idempotent if the
    /// arity matches).
    pub fn declare(&mut self, name: impl Into<Symbol>, arity: usize) -> Result<(), DatalogError> {
        let name = name.into();
        match self.relations.get(&name) {
            Some(existing) if existing.arity() != arity => Err(DatalogError::ArityMismatch {
                predicate: name,
                expected: existing.arity(),
                found: arity,
            }),
            Some(_) => Ok(()),
            None => {
                self.relations.insert(name, Relation::new(arity));
                Ok(())
            }
        }
    }

    /// Inserts a whole relation under `name`, replacing any existing one.
    pub fn insert_relation(&mut self, name: impl Into<Symbol>, relation: Relation) {
        self.relations.insert(name.into(), relation);
    }

    /// Adds one tuple to `name`, declaring the relation on first use.
    pub fn insert(&mut self, name: impl Into<Symbol>, t: Tuple) -> Result<bool, DatalogError> {
        let name = name.into();
        let rel = self
            .relations
            .entry(name)
            .or_insert_with(|| Relation::new(t.len()));
        if rel.arity() != t.len() {
            return Err(DatalogError::TupleArity {
                relation: name,
                expected: rel.arity(),
                found: t.len(),
            });
        }
        Ok(rel.insert(t))
    }

    /// Removes one tuple from `name`; returns true if it was present. An
    /// unknown relation holds no tuples, so removing from it is `Ok(false)`;
    /// a width mismatch against a known relation is an error, as for
    /// [`Database::insert`].
    pub fn remove(&mut self, name: impl Into<Symbol>, t: &[Value]) -> Result<bool, DatalogError> {
        let name = name.into();
        let Some(rel) = self.relations.get_mut(&name) else {
            return Ok(false);
        };
        if rel.arity() != t.len() {
            return Err(DatalogError::TupleArity {
                relation: name,
                expected: rel.arity(),
                found: t.len(),
            });
        }
        Ok(rel.remove(t))
    }

    /// Looks up a relation.
    pub fn get(&self, name: impl Into<Symbol>) -> Option<&Relation> {
        self.relations.get(&name.into())
    }

    /// Looks up a relation mutably (e.g. to merge derived tuples in place —
    /// cloning accumulated relations per fixpoint iteration is quadratic).
    pub fn get_mut(&mut self, name: impl Into<Symbol>) -> Option<&mut Relation> {
        self.relations.get_mut(&name.into())
    }

    /// Looks up a relation, failing loudly if absent.
    pub fn require(&self, name: impl Into<Symbol>) -> Result<&Relation, DatalogError> {
        let name = name.into();
        self.relations
            .get(&name)
            .ok_or(DatalogError::UnknownRelation(name))
    }

    /// True if the relation exists (even if empty).
    pub fn contains(&self, name: impl Into<Symbol>) -> bool {
        self.relations.contains_key(&name.into())
    }

    /// Iterates over `(name, relation)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &Relation)> {
        self.relations.iter().map(|(&s, r)| (s, r))
    }

    /// Names of all relations.
    pub fn names(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.relations.keys().copied()
    }

    /// Loads the ground facts of `program` into the database and returns the
    /// remaining (non-fact) rules. A fact is a rule with an empty body and
    /// all-constant head.
    pub fn load_facts(&mut self, program: &Program) -> Result<Program, DatalogError> {
        let mut rest = Vec::new();
        for rule in &program.rules {
            let ground = rule.body.is_empty() && rule.head.terms.iter().all(|t| !t.is_var());
            if ground {
                let t: Tuple = rule
                    .head
                    .terms
                    .iter()
                    .map(|t| match t {
                        Term::Const(c) => *c,
                        Term::Var(_) => unreachable!("checked ground"),
                    })
                    .collect();
                self.insert(rule.head.predicate, t)?;
            } else {
                rest.push(rule.clone());
            }
        }
        Ok(Program::new(rest))
    }
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Database(")?;
        for (i, (name, rel)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{name}/{}: {}", rel.arity(), rel.len())?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::relation::tuple_u64;

    #[test]
    fn declare_and_insert() {
        let mut db = Database::new();
        db.declare("A", 2).unwrap();
        assert!(db.insert("A", tuple_u64([1, 2])).unwrap());
        assert!(!db.insert("A", tuple_u64([1, 2])).unwrap());
        assert_eq!(db.require("A").unwrap().len(), 1);
    }

    #[test]
    fn declare_conflicting_arity_fails() {
        let mut db = Database::new();
        db.declare("A", 2).unwrap();
        assert!(matches!(
            db.declare("A", 3),
            Err(DatalogError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn insert_wrong_width_fails() {
        let mut db = Database::new();
        db.declare("A", 2).unwrap();
        assert!(matches!(
            db.insert("A", tuple_u64([1, 2, 3])),
            Err(DatalogError::TupleArity { .. })
        ));
    }

    #[test]
    fn require_missing_fails() {
        let db = Database::new();
        assert!(matches!(
            db.require("Nope"),
            Err(DatalogError::UnknownRelation(_))
        ));
    }

    #[test]
    fn load_facts_splits_program() {
        let program = parse_program("A(1,2). A(2,3). P(x,y) :- A(x,y).").unwrap();
        let mut db = Database::new();
        let rest = db.load_facts(&program).unwrap();
        assert_eq!(db.require("A").unwrap().len(), 2);
        assert_eq!(rest.rules.len(), 1);
        assert!(rest.rules[0].head.terms[0].is_var());
    }
}
