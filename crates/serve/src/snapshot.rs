//! Versioned, immutable database snapshots with copy-on-write updates.
//!
//! A [`Snapshot`] is an `Arc`-shared, never-mutated [`Database`] plus a
//! monotonically increasing version number and a content [`Fingerprint`].
//! Readers load the current snapshot in O(1) (an `Arc` clone under a brief
//! read lock) and keep evaluating against it for as long as they like;
//! writers build the *next* database copy-on-write and install it atomically.
//! In-flight queries are never torn: they observe exactly the version they
//! loaded, no matter how many updates land while they run.

use crate::version::Version;
use recurs_datalog::database::Database;
use recurs_datalog::error::DatalogError;
use recurs_datalog::fingerprint::{self, Fingerprint};
use recurs_ivm::{EdbDelta, FactOp};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// One immutable version of the served database.
#[derive(Debug)]
pub struct Snapshot {
    version: Version,
    fingerprint: Fingerprint,
    db: Arc<Database>,
}

impl Snapshot {
    /// The snapshot's version number; the initial database is version 0 and
    /// every installed update increments it by one.
    pub fn version(&self) -> Version {
        self.version
    }

    /// Stable content hash of this snapshot's database.
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }

    /// The snapshot's database. Immutable: evaluators clone what they must
    /// saturate.
    pub fn database(&self) -> &Database {
        &self.db
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
/// Writes serialize on a dedicated writer mutex so two concurrent
/// `apply_delta` calls cannot both copy version *n* and race to install
/// version *n + 1* (one would silently lose its edit).
#[derive(Debug)]
pub struct SnapshotStore {
    current: RwLock<Arc<Snapshot>>,
    writer: Mutex<()>,
}

impl SnapshotStore {
    /// Wraps an initial database as version 0.
    pub fn new(db: Database) -> SnapshotStore {
        let fingerprint = fingerprint::of_database(&db);
        SnapshotStore {
            current: RwLock::new(Arc::new(Snapshot {
                version: Version::ZERO,
                fingerprint,
                db: Arc::new(db),
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

    /// Normalizes a group of fact operations against the current snapshot
    /// (inside the writer lock, so the membership check and the install are
    /// one atomic step) and installs the next version copy-on-write if — and
    /// only if — the net delta is non-empty: concurrent readers are never
    /// blocked by the database copy, only by the final pointer swap. If the
    /// operations fail to apply nothing is installed. Duplicate inserts and absent-fact deletes are
    /// no-ops: an all-no-op group reports [`SnapshotUpdate::Unchanged`]
    /// without bumping the version. The returned delta is exactly the EDB
    /// difference between the two snapshots.
    pub fn apply_delta(&self, ops: &[FactOp]) -> Result<SnapshotUpdate, DatalogError> {
        let _writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let base = self.load();
        let delta = EdbDelta::normalize(ops, &base.db)?;
        if delta.is_empty() {
            return Ok(SnapshotUpdate::Unchanged(base));
        }
        let mut db = (*base.db).clone();
        delta.apply_to(&mut db)?;
        let next = Arc::new(Snapshot {
            version: base.version.next(),
            fingerprint: fingerprint::of_database(&db),
            db: Arc::new(db),
        });
        *self.current.write().unwrap_or_else(PoisonError::into_inner) = next.clone();
        Ok(SnapshotUpdate::Installed {
            previous: base.version,
            snapshot: next,
            delta,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recurs_datalog::relation::{tuple_u64, Relation};
    use recurs_datalog::symbol::Symbol;

    fn store() -> SnapshotStore {
        let mut db = Database::new();
        db.insert_relation("A", Relation::from_pairs([(1, 2), (2, 3)]));
        SnapshotStore::new(db)
    }

    /// Applies `ops` and returns the snapshot they installed.
    fn install(s: &SnapshotStore, ops: &[FactOp]) -> Arc<Snapshot> {
        match s.apply_delta(ops).unwrap() {
            SnapshotUpdate::Installed { snapshot, .. } => snapshot,
            other => panic!("expected Installed, got {other:?}"),
        }
    }

    #[test]
    fn initial_version_is_zero() {
        let s = store();
        let snap = s.load();
        assert_eq!(snap.version(), 0);
        assert_eq!(snap.database().require("A").unwrap().len(), 2);
    }

    #[test]
    fn update_installs_next_version_and_readers_keep_theirs() {
        let s = store();
        let before = s.load();
        let a = Symbol::intern("A");
        let installed = install(&s, &[FactOp::Insert(a, tuple_u64([3, 4]))]);
        assert_eq!(installed.version(), 1);
        assert_ne!(before.fingerprint(), installed.fingerprint());
        // The old snapshot is untouched (copy-on-write).
        assert_eq!(before.database().require("A").unwrap().len(), 2);
        assert_eq!(installed.database().require("A").unwrap().len(), 3);
        assert_eq!(s.load().version(), 1);
    }

    #[test]
    fn failed_update_installs_nothing() {
        let s = store();
        let err = s.apply_delta(&[FactOp::Insert(Symbol::intern("A"), tuple_u64([1]))]);
        assert!(err.is_err());
        assert_eq!(s.load().version(), 0);
        assert_eq!(s.load().database().require("A").unwrap().len(), 2);
    }

    #[test]
    fn no_op_delta_does_not_bump_the_version() {
        let s = store();
        let a = Symbol::intern("A");
        let ops = vec![
            FactOp::Insert(a, tuple_u64([1, 2])), // already present
            FactOp::Delete(a, tuple_u64([9, 9])), // absent
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
        let a = Symbol::intern("A");
        let ops = vec![
            FactOp::Insert(a, tuple_u64([3, 4])),
            FactOp::Delete(a, tuple_u64([1, 2])),
            FactOp::Insert(a, tuple_u64([1, 2])), // cancels the delete
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
                assert!(snapshot.database().require("A").unwrap().len() == 3);
            }
            other => panic!("expected Installed, got {other:?}"),
        }
    }

    #[test]
    fn identical_content_has_identical_fingerprint_across_versions() {
        let s = store();
        let v0 = s.load();
        let a = Symbol::intern("A");
        let v1 = install(&s, &[FactOp::Insert(a, tuple_u64([9, 9]))]);
        let v2 = install(&s, &[FactOp::Delete(a, tuple_u64([9, 9]))]);
        assert_ne!(v0.fingerprint(), v1.fingerprint());
        assert_eq!(v0.fingerprint(), v2.fingerprint());
        assert_eq!(v2.version(), 2);
    }
}
