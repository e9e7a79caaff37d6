//! Shared by the ivm suites: the plain-facts control database each test
//! keeps beside the materialization's engine store, for the oracle to read.
#![allow(dead_code)]

use recurs_datalog::database::Database;
use recurs_engine::EngineDb;
use recurs_ivm::EdbDelta;

/// Applies a normalized delta to the control database.
pub fn apply_plain(delta: &EdbDelta, db: &mut Database) {
    for (&pred, rel) in &delta.inserted {
        for t in rel.iter() {
            db.insert(pred, t.into()).unwrap();
        }
    }
    for (&pred, rel) in &delta.deleted {
        for t in rel.iter() {
            db.remove(pred, t).unwrap();
        }
    }
}

/// Every relation of an engine store, copied out as plain facts.
pub fn plain(store: &EngineDb) -> Database {
    let mut db = Database::new();
    for (name, rel) in store.iter() {
        db.insert_relation(name, rel.to_relation());
    }
    db
}
