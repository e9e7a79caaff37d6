//! In-memory relations: sets of fixed-arity tuples with hash indexes.

use crate::term::Value;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A tuple of constants.
pub type Tuple = Box<[Value]>;

/// Builds a tuple from values.
pub fn tuple(values: impl IntoIterator<Item = Value>) -> Tuple {
    values.into_iter().collect()
}

/// Builds a tuple of numeric constants — the workhorse of synthetic workloads.
pub fn tuple_u64(values: impl IntoIterator<Item = u64>) -> Tuple {
    values.into_iter().map(Value::from_u64).collect()
}

/// A set of tuples of a fixed arity.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Relation {
    arity: usize,
    tuples: HashSet<Tuple>,
}

impl Relation {
    /// Creates an empty relation of the given arity.
    pub fn new(arity: usize) -> Relation {
        Relation {
            arity,
            tuples: HashSet::new(),
        }
    }

    /// Creates a relation from tuples. Panics if widths disagree.
    pub fn from_tuples(arity: usize, tuples: impl IntoIterator<Item = Tuple>) -> Relation {
        let mut r = Relation::new(arity);
        for t in tuples {
            r.insert(t);
        }
        r
    }

    /// Builds a binary relation from `(from, to)` pairs of numeric constants.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (u64, u64)>) -> Relation {
        Relation::from_tuples(2, pairs.into_iter().map(|(a, b)| tuple_u64([a, b])))
    }

    /// The arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True if the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Inserts a tuple; returns true if it was new. Panics on width mismatch
    /// (a relation's arity is an invariant, not a runtime condition).
    pub fn insert(&mut self, t: Tuple) -> bool {
        assert_eq!(
            t.len(),
            self.arity,
            "tuple width {} does not match relation arity {}",
            t.len(),
            self.arity
        );
        self.tuples.insert(t)
    }

    /// Membership test.
    pub fn contains(&self, t: &[Value]) -> bool {
        self.tuples.contains(t)
    }

    /// Removes a tuple; returns true if it was present.
    pub fn remove(&mut self, t: &[Value]) -> bool {
        self.tuples.remove(t)
    }

    /// Iterates over tuples in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }

    /// Tuples in sorted order — deterministic for tests and reports.
    pub fn iter_sorted(&self) -> Vec<&Tuple> {
        let mut v: Vec<&Tuple> = self.tuples.iter().collect();
        v.sort();
        v
    }

    /// Inserts every tuple of `other`; returns the number of new tuples.
    pub fn union_in_place(&mut self, other: &Relation) -> usize {
        assert_eq!(self.arity, other.arity, "union of mismatched arities");
        let before = self.len();
        for t in other.iter() {
            self.tuples.insert(t.clone());
        }
        self.len() - before
    }

    /// The tuples of `self` not present in `other` (set difference).
    pub fn difference(&self, other: &Relation) -> Relation {
        assert_eq!(self.arity, other.arity, "difference of mismatched arities");
        Relation {
            arity: self.arity,
            tuples: self.tuples.difference(&other.tuples).cloned().collect(),
        }
    }

    /// Builds a hash index on the given key columns: key values → tuples.
    pub fn index_on(&self, cols: &[usize]) -> HashMap<Vec<Value>, Vec<&Tuple>> {
        let mut idx: HashMap<Vec<Value>, Vec<&Tuple>> = HashMap::new();
        for t in &self.tuples {
            let key: Vec<Value> = cols.iter().map(|&c| t[c]).collect();
            idx.entry(key).or_default().push(t);
        }
        idx
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Relation(arity={}, {} tuples)", self.arity, self.len())
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{{")?;
        for t in self.iter_sorted() {
            write!(f, "  (")?;
            for (i, v) in t.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v}")?;
            }
            writeln!(f, ")")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<Tuple> for Relation {
    /// Collects tuples into a relation, inferring arity from the first tuple.
    /// An empty iterator yields an empty nullary relation.
    fn from_iter<I: IntoIterator<Item = Tuple>>(iter: I) -> Relation {
        let mut it = iter.into_iter().peekable();
        let arity = it.peek().map_or(0, |t| t.len());
        Relation::from_tuples(arity, it)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_dedup() {
        let mut r = Relation::new(2);
        assert!(r.insert(tuple_u64([1, 2])));
        assert!(!r.insert(tuple_u64([1, 2])));
        assert!(r.insert(tuple_u64([2, 3])));
        assert_eq!(r.len(), 2);
        assert!(r.contains(&[Value::from_u64(1), Value::from_u64(2)]));
    }

    #[test]
    #[should_panic(expected = "does not match relation arity")]
    fn width_mismatch_panics() {
        let mut r = Relation::new(2);
        r.insert(tuple_u64([1]));
    }

    #[test]
    fn union_counts_new_tuples() {
        let mut a = Relation::from_pairs([(1, 2), (2, 3)]);
        let b = Relation::from_pairs([(2, 3), (3, 4)]);
        let added = a.union_in_place(&b);
        assert_eq!(added, 1);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn difference_is_set_minus() {
        let a = Relation::from_pairs([(1, 2), (2, 3)]);
        let b = Relation::from_pairs([(2, 3)]);
        let d = a.difference(&b);
        assert_eq!(d.len(), 1);
        assert!(d.contains(&[Value::from_u64(1), Value::from_u64(2)]));
    }

    #[test]
    fn index_groups_by_key() {
        let r = Relation::from_pairs([(1, 2), (1, 3), (2, 3)]);
        let idx = r.index_on(&[0]);
        assert_eq!(idx[&vec![Value::from_u64(1)]].len(), 2);
        assert_eq!(idx[&vec![Value::from_u64(2)]].len(), 1);
    }

    #[test]
    fn sorted_iteration_is_deterministic() {
        let r = Relation::from_pairs([(3, 1), (1, 2), (2, 3)]);
        let sorted = r.iter_sorted();
        let firsts: Vec<&str> = sorted.iter().map(|t| t[0].as_str()).collect();
        assert_eq!(firsts, vec!["1", "2", "3"]);
    }

    #[test]
    fn from_iterator_infers_arity() {
        let r: Relation = [tuple_u64([1, 2, 3])].into_iter().collect();
        assert_eq!(r.arity(), 3);
        let empty: Relation = std::iter::empty().collect();
        assert_eq!(empty.arity(), 0);
        assert!(empty.is_empty());
    }
}
