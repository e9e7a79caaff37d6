//! Versioned, immutable snapshots of the served facts with copy-on-write
//! updates.
//!
//! A [`Snapshot`] is a never-mutated engine store — every base relation in
//! the indexed layout the kernels execute on — plus a monotonically
//! increasing version number and a content [`Fingerprint`]. Readers load the
//! current snapshot in O(1) (an `Arc` clone under a brief read lock) and
//! evaluate against it for as long as they like: a kernel clones the store
//! (one refcount bump per relation) and writes only relations of its own.
//! Writers build the *next* store from a clone of the current one, which
//! copies the relations the delta names and shares the rest, and install it
//! atomically. In-flight queries are never torn: they observe exactly the
//! version they loaded, no matter how many updates land while they run.

use crate::version::Version;
use recurs_datalog::error::DatalogError;
use recurs_datalog::fingerprint::{self, Fingerprint, RelationSum};
use recurs_datalog::symbol::Symbol;
use recurs_engine::EngineDb;
use recurs_ivm::{EdbDelta, FactOp};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// One immutable version of the served facts.
#[derive(Debug)]
pub struct Snapshot {
    version: Version,
    fingerprint: Fingerprint,
    /// What `fingerprint` folds: one sum per relation of `store`, carried
    /// from version to version and adjusted by each delta.
    sums: BTreeMap<Symbol, RelationSum>,
    store: EngineDb,
}

impl Snapshot {
    /// The snapshot's version number; the initial facts are version 0 and
    /// every installed update increments it by one.
    pub fn version(&self) -> Version {
        self.version
    }

    /// Stable content hash of this snapshot's facts — the value
    /// [`fingerprint::of_database`] gives the same facts in plain form.
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }

    /// The snapshot's facts. Immutable and shared: evaluators clone the
    /// store, which copies nothing, and add relations of their own.
    pub fn store(&self) -> &EngineDb {
        &self.store
    }
}

/// What [`SnapshotStore::apply_delta`] did.
#[derive(Debug)]
pub enum SnapshotUpdate {
    /// The operations were all no-ops (duplicate inserts, absent deletes, or
    /// pairs that cancel): nothing was installed and the version did not
    /// move. Carries the still-current snapshot.
    Unchanged(Arc<Snapshot>),
    /// A new snapshot version was installed.
    Installed {
        /// The version the delta was normalized against.
        previous: Version,
        /// The newly installed snapshot.
        snapshot: Arc<Snapshot>,
        /// The net EDB change from `previous` to the new snapshot — what
        /// incremental maintenance consumes.
        delta: EdbDelta,
    },
}

/// The mutable cell holding the current snapshot.
///
/// Reads (`load`) take a read lock only long enough to clone an `Arc`.
/// Writes serialize on a dedicated writer mutex so two concurrent writers
/// cannot both start from version *n* and race to install their result (one
/// would silently lose its edit).
#[derive(Debug)]
pub struct SnapshotStore {
    current: RwLock<Arc<Snapshot>>,
    writer: Mutex<()>,
}

impl SnapshotStore {
    /// Wraps an initial store as version 0.
    pub fn new(store: EngineDb) -> SnapshotStore {
        let sums: BTreeMap<Symbol, RelationSum> = store
            .iter()
            .map(|(name, rel)| {
                let mut sum = RelationSum::new(rel.arity());
                rel.iter().for_each(|t| sum.add(t));
                (name, sum)
            })
            .collect();
        SnapshotStore {
            current: RwLock::new(Arc::new(Snapshot {
                version: Version::ZERO,
                fingerprint: fingerprint::fold(&sums),
                sums,
                store,
            })),
            writer: Mutex::new(()),
        }
    }

    /// The current snapshot. Cheap; the returned `Arc` stays valid (and
    /// unchanged) however many updates are installed afterwards.
    pub fn load(&self) -> Arc<Snapshot> {
        self.current
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn publish(&self, next: Snapshot) -> Arc<Snapshot> {
        let next = Arc::new(next);
        *self.current.write().unwrap_or_else(PoisonError::into_inner) = next.clone();
        next
    }

    /// Normalizes a group of fact operations against the current snapshot
    /// and, if the net delta is non-empty, installs the next version. The
    /// membership check and the install happen inside the writer lock, so
    /// they are one atomic step. The next store is a clone of the current
    /// one with the delta applied — only the relations the delta names are
    /// copied, and the fingerprint moves by the delta's tuples — and readers
    /// are blocked by none of it, only by the final pointer swap. If the
    /// operations fail to apply, nothing is installed. Duplicate inserts and
    /// absent-fact deletes are no-ops: an all-no-op group reports
    /// [`SnapshotUpdate::Unchanged`] without bumping the version. The
    /// returned delta is exactly the difference between the two snapshots.
    pub fn apply_delta(&self, ops: &[FactOp]) -> Result<SnapshotUpdate, DatalogError> {
        let _writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let base = self.load();
        let delta = EdbDelta::normalize(ops, &base.store)?;
        if delta.is_empty() {
            return Ok(SnapshotUpdate::Unchanged(base));
        }
        let mut store = base.store.clone();
        delta.apply_to(&mut store)?;
        let mut sums = base.sums.clone();
        for (insert, side) in [(true, &delta.inserted), (false, &delta.deleted)] {
            for (&pred, rel) in side {
                let sum = sums
                    .entry(pred)
                    .or_insert_with(|| RelationSum::new(rel.arity()));
                for t in rel.iter() {
                    if insert {
                        sum.add(t);
                    } else {
                        sum.remove(t);
                    }
                }
            }
        }
        let snapshot = self.publish(Snapshot {
            version: base.version.next(),
            fingerprint: fingerprint::fold(&sums),
            sums,
            store,
        });
        Ok(SnapshotUpdate::Installed {
            previous: base.version,
            snapshot,
            delta,
        })
    }

    /// Makes sure the current snapshot's relations maintain the `needed`
    /// `(predicate, key columns)` indexes, and returns it. Indexes travel
    /// with the snapshot: a missing one is built here once, under the writer
    /// lock, over the rows the current snapshot keeps sharing, and the result
    /// republished *at the same version and fingerprint* (the facts did not
    /// change); every later version inherits it through the relation clone.
    /// So a pipeline that probes the snapshot finds its indexes there instead
    /// of rebuilding them on its private clone, miss after miss.
    /// The snapshot returned may be newer than the one the caller loaded, if
    /// an update was installed in between.
    pub fn with_indexes(&self, needed: &[(Symbol, Vec<usize>)]) -> Arc<Snapshot> {
        let _writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let base = self.load();
        if base
            .store
            .missing_indexes(needed.iter().map(|(p, c)| (*p, c.as_slice())))
            .is_empty()
        {
            return base; // another reader got here first
        }
        let mut store = base.store.clone();
        store.build_indexes(needed);
        self.publish(Snapshot {
            version: base.version,
            fingerprint: base.fingerprint,
            sums: base.sums.clone(),
            store,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recurs_datalog::relation::{tuple_u64, Relation};

    fn a() -> Symbol {
        Symbol::intern("A")
    }

    fn store() -> SnapshotStore {
        let mut db = EngineDb::new();
        db.load(a(), &Relation::from_pairs([(1, 2), (2, 3)]));
        SnapshotStore::new(db)
    }

    /// Applies `ops` and returns the snapshot they installed.
    fn install(s: &SnapshotStore, ops: &[FactOp]) -> Arc<Snapshot> {
        match s.apply_delta(ops).unwrap() {
            SnapshotUpdate::Installed { snapshot, .. } => snapshot,
            other => panic!("expected Installed, got {other:?}"),
        }
    }

    fn len_of_a(snap: &Snapshot) -> usize {
        snap.store().get(a()).unwrap().len()
    }

    #[test]
    fn initial_version_is_zero() {
        let s = store();
        let snap = s.load();
        assert_eq!(snap.version(), 0);
        assert_eq!(len_of_a(&snap), 2);
    }

    #[test]
    fn update_installs_next_version_and_readers_keep_theirs() {
        let s = store();
        let before = s.load();
        let installed = install(&s, &[FactOp::Insert(a(), tuple_u64([3, 4]))]);
        assert_eq!(installed.version(), 1);
        assert_ne!(before.fingerprint(), installed.fingerprint());
        // The old snapshot is untouched (copy-on-write).
        assert_eq!(len_of_a(&before), 2);
        assert_eq!(len_of_a(&installed), 3);
        assert_eq!(s.load().version(), 1);
    }

    #[test]
    fn failed_update_installs_nothing() {
        let s = store();
        let err = s.apply_delta(&[FactOp::Insert(a(), tuple_u64([1]))]);
        assert!(err.is_err());
        assert_eq!(s.load().version(), 0);
        assert_eq!(len_of_a(&s.load()), 2);
    }

    #[test]
    fn no_op_delta_does_not_bump_the_version() {
        let s = store();
        let ops = vec![
            FactOp::Insert(a(), tuple_u64([1, 2])), // already present
            FactOp::Delete(a(), tuple_u64([9, 9])), // absent
        ];
        match s.apply_delta(&ops).unwrap() {
            SnapshotUpdate::Unchanged(snap) => assert_eq!(snap.version(), 0),
            other => panic!("expected Unchanged, got {other:?}"),
        }
        assert_eq!(s.load().version(), 0);
    }

    #[test]
    fn delta_install_carries_the_net_change() {
        let s = store();
        let ops = vec![
            FactOp::Insert(a(), tuple_u64([3, 4])),
            FactOp::Delete(a(), tuple_u64([1, 2])),
            FactOp::Insert(a(), tuple_u64([1, 2])), // cancels the delete
        ];
        match s.apply_delta(&ops).unwrap() {
            SnapshotUpdate::Installed {
                previous,
                snapshot,
                delta,
            } => {
                assert_eq!(previous, Version::ZERO);
                assert_eq!(snapshot.version(), 1);
                assert_eq!(delta.inserted_count(), 1);
                assert_eq!(delta.deleted_count(), 0);
                assert_eq!(len_of_a(&snapshot), 3);
            }
            other => panic!("expected Installed, got {other:?}"),
        }
    }

    #[test]
    fn identical_content_has_identical_fingerprint_across_versions() {
        let s = store();
        let v0 = s.load();
        let v1 = install(&s, &[FactOp::Insert(a(), tuple_u64([9, 9]))]);
        let v2 = install(&s, &[FactOp::Delete(a(), tuple_u64([9, 9]))]);
        assert_ne!(v0.fingerprint(), v1.fingerprint());
        assert_eq!(v0.fingerprint(), v2.fingerprint());
        assert_eq!(v2.version(), 2);
    }

    #[test]
    fn an_index_is_republished_once_and_inherited_by_later_versions() {
        let s = store();
        let v0 = s.load();
        let needed = vec![(a(), vec![0usize])];
        let indexed = s.with_indexes(&needed);
        assert_eq!(indexed.version(), v0.version());
        assert_eq!(indexed.fingerprint(), v0.fingerprint());
        assert!(indexed.store().get(a()).unwrap().has_index(&[0]));
        assert!(
            !v0.store().get(a()).unwrap().has_index(&[0]),
            "v0 is immutable"
        );
        // Asking again republishes nothing.
        assert!(Arc::ptr_eq(&s.with_indexes(&needed), &indexed));
        // An index on an unknown relation is nobody's to build.
        let unknown = vec![(Symbol::intern("Nope"), vec![0usize])];
        assert!(Arc::ptr_eq(&s.with_indexes(&unknown), &indexed));
        let v1 = install(&s, &[FactOp::Insert(a(), tuple_u64([3, 4]))]);
        let rel = v1.store().get(a()).unwrap();
        assert_eq!(
            rel.probe(&[0], &[tuple_u64([3])[0]]).map(Iterator::count),
            Some(1)
        );
    }
}
