//! Stable fingerprints for programs and database snapshots.
//!
//! A [`Fingerprint`] is a 64-bit FNV-1a hash over a *canonical rendering*
//! of the value — never over interner ids or in-memory addresses — so it is
//! stable across runs, processes, and symbol-interning order. Two programs
//! that pretty-print identically fingerprint identically; a database
//! fingerprints the same no matter what order its tuples were inserted in.
//!
//! Fingerprints key the serving layer's saturation cache (`recurs-serve`)
//! and let `--check` report *which* program/database version was verified.
//! They are not cryptographic: collisions are astronomically unlikely for
//! cache keys but an adversary could construct one.

use crate::database::Database;
use crate::relation::Tuple;
use crate::rule::Program;
use crate::symbol::Symbol;
use crate::term::{Atom, Value};
use std::collections::BTreeMap;
use std::fmt;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A stable 64-bit content hash; displays as 16 hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u64);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// FNV-1a over a byte string, seeded from `state` so hashes compose.
fn fnv(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// Fingerprints an arbitrary string.
pub fn of_str(s: &str) -> Fingerprint {
    Fingerprint(fnv(FNV_OFFSET, s.as_bytes()))
}

/// Fingerprints a program over the canonical rendering of its rules, in
/// rule order (rule order is part of program identity).
pub fn of_program(program: &Program) -> Fingerprint {
    let mut state = FNV_OFFSET;
    for rule in &program.rules {
        state = fnv(state, rule.to_string().as_bytes());
        state = fnv(state, b"\n");
    }
    Fingerprint(state)
}

/// Fingerprints an atom (e.g. a query) over its canonical rendering.
pub fn of_atom(atom: &Atom) -> Fingerprint {
    of_str(&atom.to_string())
}

/// The hash one tuple contributes to its relation's [`RelationSum`].
pub fn tuple_hash(t: &[Value]) -> u64 {
    let mut h = FNV_OFFSET;
    for v in t {
        h = fnv(h, v.as_str().as_bytes());
        h = fnv(h, &[0u8]);
    }
    h
}

/// One relation's share of a database fingerprint: its arity, its tuple
/// count, and the wrapping sum of its [`tuple_hash`]es. The sum is
/// commutative, so set-iteration order cannot leak into the fingerprint, and
/// invertible, so a holder of the sums can follow single-tuple changes
/// without rehashing the relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelationSum {
    arity: usize,
    len: u64,
    sum: u64,
}

impl RelationSum {
    /// The sum of an empty relation of the given arity.
    pub fn new(arity: usize) -> RelationSum {
        RelationSum {
            arity,
            len: 0,
            sum: 0,
        }
    }

    /// The sum of a relation given as its arity and (distinct) tuples.
    pub fn of<'a>(arity: usize, tuples: impl IntoIterator<Item = &'a Tuple>) -> RelationSum {
        let mut sum = RelationSum::new(arity);
        for t in tuples {
            sum.add(t);
        }
        sum
    }

    /// Accounts for a tuple that entered the relation.
    pub fn add(&mut self, t: &[Value]) {
        self.len += 1;
        self.sum = self.sum.wrapping_add(tuple_hash(t));
    }

    /// Accounts for a tuple that left the relation.
    pub fn remove(&mut self, t: &[Value]) {
        self.len -= 1;
        self.sum = self.sum.wrapping_sub(tuple_hash(t));
    }
}

/// Folds per-relation sums, given in relation-name order (a `&BTreeMap`
/// iterates that way), into the database fingerprint.
pub fn fold<'a>(relations: impl IntoIterator<Item = (&'a Symbol, &'a RelationSum)>) -> Fingerprint {
    let mut state = FNV_OFFSET;
    for (name, rel) in relations {
        state = fnv(state, name.as_str().as_bytes());
        state = fnv(state, &[0u8]);
        state = fnv(state, &(rel.arity as u64).to_le_bytes());
        state = fnv(state, &rel.sum.to_le_bytes());
        state = fnv(state, &rel.len.to_le_bytes());
    }
    Fingerprint(state)
}

/// Fingerprints a database snapshot: the [`fold`] of its relations'
/// [`RelationSum`]s in name order.
pub fn of_database(db: &Database) -> Fingerprint {
    let sums: BTreeMap<Symbol, RelationSum> = db
        .iter()
        .map(|(name, rel)| (name, RelationSum::of(rel.arity(), rel.iter())))
        .collect();
    fold(&sums)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::relation::{tuple_u64, Relation};

    fn program(src: &str) -> Program {
        parse_program(src).expect("test program parses")
    }

    #[test]
    fn identical_programs_fingerprint_identically() {
        let a = program("P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).");
        let b = program("P(x,y):-A(x,z),P(z,y).  P(x,y) :- E(x,y).");
        assert_eq!(of_program(&a), of_program(&b));
    }

    #[test]
    fn different_programs_fingerprint_differently() {
        let a = program("P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).");
        let b = program("P(x, y) :- P(z, y), A(x, z).\nP(x, y) :- E(x, y).");
        assert_ne!(of_program(&a), of_program(&b));
    }

    #[test]
    fn rule_order_is_part_of_identity() {
        let a = program("P(x, y) :- E(x, y).\nP(x, y) :- A(x, z), P(z, y).");
        let b = program("P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).");
        assert_ne!(of_program(&a), of_program(&b));
    }

    #[test]
    fn database_fingerprint_is_insertion_order_independent() {
        let mut forward = Database::new();
        let mut reverse = Database::new();
        forward.insert_relation("A", Relation::new(2));
        reverse.insert_relation("A", Relation::new(2));
        for i in 0..100u64 {
            forward
                .insert("A", tuple_u64([i, i + 1]))
                .expect("arity matches");
        }
        for i in (0..100u64).rev() {
            reverse
                .insert("A", tuple_u64([i, i + 1]))
                .expect("arity matches");
        }
        assert_eq!(of_database(&forward), of_database(&reverse));
    }

    #[test]
    fn database_fingerprint_sees_content_changes() {
        let mut db = Database::new();
        db.insert_relation("A", Relation::from_pairs([(1, 2), (2, 3)]));
        let before = of_database(&db);
        db.insert("A", tuple_u64([3, 4])).expect("arity matches");
        assert_ne!(before, of_database(&db));
    }

    #[test]
    fn relation_name_distinguishes_databases() {
        let mut a = Database::new();
        a.insert_relation("A", Relation::from_pairs([(1, 2)]));
        let mut b = Database::new();
        b.insert_relation("B", Relation::from_pairs([(1, 2)]));
        assert_ne!(of_database(&a), of_database(&b));
    }

    #[test]
    fn empty_relation_vs_absent_relation_differ() {
        let mut with_empty = Database::new();
        with_empty.insert_relation("A", Relation::new(2));
        let empty = Database::new();
        assert_ne!(of_database(&with_empty), of_database(&empty));
    }

    #[test]
    fn display_renders_sixteen_hex_digits() {
        let fp = of_str("x");
        assert_eq!(fp.to_string().len(), 16);
        assert!(fp.to_string().chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn atom_fingerprint_distinguishes_constants() {
        use crate::term::Term;
        let a = Atom::new("P", vec![Term::constant("1"), Term::var("x")]);
        let b = Atom::new("P", vec![Term::constant("2"), Term::var("x")]);
        assert_ne!(of_atom(&a), of_atom(&b));
    }
}
