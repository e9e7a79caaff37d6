//! Update deltas: ground fact operations, their normalization against a
//! store, and the IDB patch a maintenance pass reports back.

use recurs_datalog::error::DatalogError;
use recurs_datalog::relation::Tuple;
use recurs_datalog::symbol::Symbol;
use recurs_datalog::term::Value;
use recurs_engine::{EngineDb, IndexedRelation};
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
/// concrete store: inserted tuples are genuinely new, deleted tuples were
/// genuinely present, and a tuple appears on at most one side.
#[derive(Debug, Clone, Default)]
pub struct EdbDelta {
    /// Tuples to add, per relation. Disjoint from the store.
    pub inserted: BTreeMap<Symbol, IndexedRelation>,
    /// Tuples to drop, per relation. Subset of the store.
    pub deleted: BTreeMap<Symbol, IndexedRelation>,
}

impl EdbDelta {
    /// Replays `ops` in order against the membership state of `db` and keeps
    /// only the net changes: duplicate inserts, absent-fact deletes, and
    /// insert/delete pairs that cancel out all normalize away. Arity
    /// conflicts (against the store or within the ops) are errors.
    pub fn normalize(ops: &[FactOp], db: &EngineDb) -> Result<EdbDelta, DatalogError> {
        // Where the group leaves every fact it touches: the last op wins.
        let mut state: HashMap<(Symbol, &[Value]), bool> = HashMap::new();
        let mut arities: HashMap<Symbol, usize> = HashMap::new();
        for op in ops {
            let (pred, tuple, target) = match op {
                FactOp::Insert(p, t) => (*p, &**t, true),
                FactOp::Delete(p, t) => (*p, &**t, false),
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
            state.insert((pred, tuple), target);
        }
        let mut delta = EdbDelta::default();
        for ((pred, tuple), now) in state {
            let before = db.get(pred).is_some_and(|r| r.contains(tuple));
            if now == before {
                continue;
            }
            let side = if now {
                &mut delta.inserted
            } else {
                &mut delta.deleted
            };
            side.entry(pred)
                .or_insert_with(|| IndexedRelation::new(tuple.len()))
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
        self.inserted.values().map(IndexedRelation::len).sum()
    }

    /// Total number of deleted tuples.
    pub fn deleted_count(&self) -> usize {
        self.deleted.values().map(IndexedRelation::len).sum()
    }

    /// True when the delta touches `pred` on either side.
    pub fn touches(&self, pred: Symbol) -> bool {
        self.inserted.contains_key(&pred) || self.deleted.contains_key(&pred)
    }

    /// Applies the delta to a store (declaring inserted relations on first
    /// use), copying only the relations it names if the store shares them.
    /// Used both to install the new snapshot and to complete a
    /// materialization's EDB before a cold rebuild. Idempotent:
    /// re-inserting present tuples and re-deleting absent ones are no-ops.
    pub fn apply_to(&self, db: &mut EngineDb) -> Result<(), DatalogError> {
        write(db, &self.inserted, true)?;
        write(db, &self.deleted, false)
    }
}

/// Adds (`insert`) or drops the tuples of `rels` in `db`. An inserted
/// relation is declared on first use; dropping from an unknown one is a
/// no-op.
pub(crate) fn write(
    db: &mut EngineDb,
    rels: &BTreeMap<Symbol, IndexedRelation>,
    insert: bool,
) -> Result<(), DatalogError> {
    for (&pred, rel) in rels {
        if insert {
            db.declare(pred, rel.arity())?;
        }
        let Some(stored) = db.get_mut(pred) else {
            continue;
        };
        for t in rel.iter() {
            if insert {
                stored.insert(t);
            } else {
                stored.remove(t);
            }
        }
    }
    Ok(())
}

/// The net change a maintenance pass made to the recursive predicate's
/// materialized relation — what a cache can apply to patch stored answers.
#[derive(Debug, Clone)]
pub struct IdbPatch {
    /// Tuples newly derived by the patch.
    pub inserted: IndexedRelation,
    /// Tuples no longer derivable after the patch.
    pub deleted: IndexedRelation,
}

impl IdbPatch {
    /// An empty patch for a predicate of the given arity.
    pub fn empty(arity: usize) -> IdbPatch {
        IdbPatch {
            inserted: IndexedRelation::new(arity),
            deleted: IndexedRelation::new(arity),
        }
    }

    /// Records a tuple as (re)derived, cancelling a pending deletion first.
    pub(crate) fn record_insert(&mut self, t: &[Value]) {
        if !self.deleted.remove(t) {
            self.inserted.insert(t);
        }
    }

    /// Records a tuple as removed, cancelling a pending insertion first.
    pub(crate) fn record_delete(&mut self, t: &[Value]) {
        if !self.inserted.remove(t) {
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
    use recurs_datalog::relation::{tuple_u64, Relation};

    fn db() -> EngineDb {
        let mut db = EngineDb::new();
        db.load(Symbol::intern("A"), &Relation::from_pairs([(1, 2), (2, 3)]));
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
        assert!(db.get(a).unwrap().contains(&tuple_u64([3, 4])));
        assert!(!db.get(a).unwrap().contains(&tuple_u64([1, 2])));
        assert!(db.get(b).unwrap().contains(&tuple_u64([7, 8])));
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
        assert!(EdbDelta::normalize(&ops, &EngineDb::new()).is_err());
    }

    #[test]
    fn idb_patch_cancels_opposing_records() {
        let mut patch = IdbPatch::empty(2);
        patch.record_delete(&tuple_u64([1, 2]));
        patch.record_insert(&tuple_u64([1, 2]));
        assert!(patch.is_empty());
        patch.record_insert(&tuple_u64([3, 4]));
        patch.record_delete(&tuple_u64([3, 4]));
        assert!(patch.is_empty());
    }
}
