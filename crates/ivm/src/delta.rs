//! Update deltas: ground fact operations, their normalization against a
//! database, and the IDB patch a maintenance pass reports back.

use recurs_datalog::database::Database;
use recurs_datalog::error::DatalogError;
use recurs_datalog::relation::{Relation, Tuple};
use recurs_datalog::symbol::Symbol;
use std::collections::{BTreeMap, HashMap};

/// One ground fact operation from an update stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FactOp {
    /// Insert a ground tuple into the named EDB relation.
    Insert(Symbol, Tuple),
    /// Delete a ground tuple from the named EDB relation.
    Delete(Symbol, Tuple),
}

impl FactOp {
    /// The relation the operation touches.
    pub fn predicate(&self) -> Symbol {
        match self {
            FactOp::Insert(p, _) | FactOp::Delete(p, _) => *p,
        }
    }
}

/// The net effect of an update group on the EDB, normalized against a
/// concrete database: inserted tuples are genuinely new, deleted tuples were
/// genuinely present, and a tuple appears on at most one side.
#[derive(Debug, Clone, Default)]
pub struct EdbDelta {
    /// Tuples to add, per relation. Disjoint from the database.
    pub inserted: BTreeMap<Symbol, Relation>,
    /// Tuples to drop, per relation. Subset of the database.
    pub deleted: BTreeMap<Symbol, Relation>,
}

impl EdbDelta {
    /// Replays `ops` in order against the membership state of `db` and keeps
    /// only the net changes: duplicate inserts, absent-fact deletes, and
    /// insert/delete pairs that cancel out all normalize away. Arity
    /// conflicts (against the database or within the ops) are errors.
    pub fn normalize(ops: &[FactOp], db: &Database) -> Result<EdbDelta, DatalogError> {
        // Current membership of every touched fact, starting from `db`.
        let mut state: HashMap<(Symbol, Tuple), bool> = HashMap::new();
        let mut arities: HashMap<Symbol, usize> = HashMap::new();
        for op in ops {
            let (pred, tuple, target) = match op {
                FactOp::Insert(p, t) => (*p, t, true),
                FactOp::Delete(p, t) => (*p, t, false),
            };
            let expected = match db.get(pred) {
                Some(rel) => rel.arity(),
                None => *arities.entry(pred).or_insert(tuple.len()),
            };
            if expected != tuple.len() {
                return Err(DatalogError::TupleArity {
                    relation: pred,
                    expected,
                    found: tuple.len(),
                });
            }
            state
                .entry((pred, tuple.clone()))
                .or_insert_with(|| db.get(pred).is_some_and(|r| r.contains(tuple)));
            if let Some(present) = state.get_mut(&(pred, tuple.clone())) {
                *present = target;
            }
        }
        let mut delta = EdbDelta::default();
        for ((pred, tuple), now) in state {
            let before = db.get(pred).is_some_and(|r| r.contains(&tuple));
            if now == before {
                continue;
            }
            let side = if now {
                &mut delta.inserted
            } else {
                &mut delta.deleted
            };
            side.entry(pred)
                .or_insert_with(|| Relation::new(tuple.len()))
                .insert(tuple);
        }
        Ok(delta)
    }

    /// True when the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty() && self.deleted.is_empty()
    }

    /// Total number of inserted tuples.
    pub fn inserted_count(&self) -> usize {
        self.inserted.values().map(Relation::len).sum()
    }

    /// Total number of deleted tuples.
    pub fn deleted_count(&self) -> usize {
        self.deleted.values().map(Relation::len).sum()
    }

    /// True when the delta touches `pred` on either side.
    pub fn touches(&self, pred: Symbol) -> bool {
        self.inserted.contains_key(&pred) || self.deleted.contains_key(&pred)
    }

    /// Applies the delta to a plain database (declaring inserted relations
    /// on first use). Used both to install the new snapshot and to bring a
    /// materialization's plain EDB up to date before it is patched.
    /// Idempotent: re-inserting present tuples and re-deleting absent ones
    /// are no-ops.
    pub fn apply_to(&self, db: &mut Database) -> Result<(), DatalogError> {
        for (&pred, rel) in &self.inserted {
            db.declare(pred, rel.arity())?;
            for t in rel.iter() {
                db.insert(pred, t.clone())?;
            }
        }
        for (&pred, rel) in &self.deleted {
            for t in rel.iter() {
                db.remove(pred, t)?;
            }
        }
        Ok(())
    }
}

/// The net change a maintenance pass made to the recursive predicate's
/// materialized relation — what a cache can apply to patch stored answers.
#[derive(Debug, Clone)]
pub struct IdbPatch {
    /// Tuples newly derived by the patch.
    pub inserted: Relation,
    /// Tuples no longer derivable after the patch.
    pub deleted: Relation,
}

impl IdbPatch {
    /// An empty patch for a predicate of the given arity.
    pub fn empty(arity: usize) -> IdbPatch {
        IdbPatch {
            inserted: Relation::new(arity),
            deleted: Relation::new(arity),
        }
    }

    /// Records a tuple as (re)derived, cancelling a pending deletion first.
    pub(crate) fn record_insert(&mut self, t: Tuple) {
        if !self.deleted.remove(&t) {
            self.inserted.insert(t);
        }
    }

    /// Records a tuple as removed, cancelling a pending insertion first.
    pub(crate) fn record_delete(&mut self, t: Tuple) {
        if !self.inserted.remove(&t) {
            self.deleted.insert(t);
        }
    }

    /// True when the patch changes nothing.
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty() && self.deleted.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recurs_datalog::relation::tuple_u64;

    fn db() -> Database {
        let mut db = Database::new();
        db.insert_relation("A", Relation::from_pairs([(1, 2), (2, 3)]));
        db
    }

    #[test]
    fn duplicate_inserts_and_absent_deletes_normalize_away() {
        let a = Symbol::intern("A");
        let ops = vec![
            FactOp::Insert(a, tuple_u64([1, 2])), // already present
            FactOp::Delete(a, tuple_u64([9, 9])), // absent
        ];
        let delta = EdbDelta::normalize(&ops, &db()).unwrap();
        assert!(delta.is_empty());
    }

    #[test]
    fn insert_then_delete_cancels() {
        let a = Symbol::intern("A");
        let ops = vec![
            FactOp::Insert(a, tuple_u64([5, 6])),
            FactOp::Delete(a, tuple_u64([5, 6])),
        ];
        let delta = EdbDelta::normalize(&ops, &db()).unwrap();
        assert!(delta.is_empty());
        // The other order nets out to a pure delete of a present tuple.
        let ops = vec![
            FactOp::Delete(a, tuple_u64([1, 2])),
            FactOp::Insert(a, tuple_u64([1, 2])),
        ];
        let delta = EdbDelta::normalize(&ops, &db()).unwrap();
        assert!(delta.is_empty());
    }

    #[test]
    fn net_changes_survive_normalization() {
        let a = Symbol::intern("A");
        let b = Symbol::intern("B");
        let ops = vec![
            FactOp::Insert(a, tuple_u64([3, 4])),
            FactOp::Delete(a, tuple_u64([1, 2])),
            FactOp::Insert(b, tuple_u64([7, 8])), // declares B
        ];
        let delta = EdbDelta::normalize(&ops, &db()).unwrap();
        assert_eq!(delta.inserted_count(), 2);
        assert_eq!(delta.deleted_count(), 1);
        assert!(delta.inserted[&a].contains(&tuple_u64([3, 4])));
        assert!(delta.deleted[&a].contains(&tuple_u64([1, 2])));
        let mut db = db();
        delta.apply_to(&mut db).unwrap();
        assert!(db.get("A").unwrap().contains(&tuple_u64([3, 4])));
        assert!(!db.get("A").unwrap().contains(&tuple_u64([1, 2])));
        assert!(db.get("B").unwrap().contains(&tuple_u64([7, 8])));
    }

    #[test]
    fn arity_conflicts_are_errors() {
        let a = Symbol::intern("A");
        let ops = vec![FactOp::Insert(a, tuple_u64([1]))];
        assert!(EdbDelta::normalize(&ops, &db()).is_err());
        let n = Symbol::intern("New");
        let ops = vec![
            FactOp::Insert(n, tuple_u64([1])),
            FactOp::Insert(n, tuple_u64([1, 2])),
        ];
        assert!(EdbDelta::normalize(&ops, &Database::new()).is_err());
    }

    #[test]
    fn idb_patch_cancels_opposing_records() {
        let mut patch = IdbPatch::empty(2);
        patch.record_delete(tuple_u64([1, 2]));
        patch.record_insert(tuple_u64([1, 2]));
        assert!(patch.is_empty());
        patch.record_insert(tuple_u64([3, 4]));
        patch.record_delete(tuple_u64([3, 4]));
        assert!(patch.is_empty());
    }
}
