//! Indexed tuple storage for the execution engine.
//!
//! The oracle evaluator (`recurs_datalog::eval`) rebuilds a hash index on the
//! inner side of every join, every fixpoint iteration. [`IndexedRelation`]
//! instead keeps *persistent* indexes: each is built once when a compiled
//! rule first asks for it, and afterwards maintained incrementally as derived
//! tuples are inserted. Across a long fixpoint this turns the per-iteration
//! cost of indexing from O(|relation|) into O(|delta|).

use recurs_datalog::database::Database;
use recurs_datalog::error::DatalogError;
use recurs_datalog::relation::{Relation, Tuple};
use recurs_datalog::symbol::Symbol;
use recurs_datalog::term::Value;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// A hash index: key columns → (key values → ids of matching tuples).
type Index = HashMap<Box<[Value]>, Vec<u32>>;

/// Counters describing index maintenance work, for [`crate::EngineStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexCounters {
    /// Full index constructions (one per distinct key-column set).
    pub builds: u64,
    /// Incremental key insertions performed while merging deltas.
    pub updates: u64,
}

impl IndexCounters {
    fn absorb(&mut self, other: IndexCounters) {
        self.builds += other.builds;
        self.updates += other.updates;
    }

    /// The work done since `earlier` was read off the same store. A
    /// relation's counters live (and are copied) with it, so for a store
    /// that shares relations with others this is the only per-run reading.
    pub fn since(self, earlier: IndexCounters) -> IndexCounters {
        IndexCounters {
            builds: self.builds - earlier.builds,
            updates: self.updates - earlier.updates,
        }
    }
}

/// The tuples of a relation: the arena, its free list, and the dedup map.
#[derive(Debug, Clone, Default)]
struct Rows {
    tuples: Vec<Option<Tuple>>,
    free: Vec<u32>,
    ids: HashMap<Tuple, u32>,
}

/// A relation stored as a tuple arena plus persistent hash indexes on the
/// column sets the compiled rules join on.
///
/// Tuple ids are `u32` arena slots; indexes store ids, not tuple copies, so
/// a tuple is owned exactly once however many indexes cover it. Removal
/// (used by incremental view maintenance) tombstones the slot, unlinks the
/// id from every index and puts the slot on a free list the next insert
/// draws from — an id is stable for the lifetime of its tuple, and the
/// arena stays as long as the relation's high-water mark however many
/// insert / remove rounds pass over it.
///
/// The rows and each index are reference-counted, so cloning a relation
/// copies no tuple and no index: the clone shares them all. Writes are
/// copy-on-write ([`Arc::make_mut`]): adding an index to a clone builds that
/// index and shares the rest; inserting or removing a tuple copies the rows
/// and the indexes once, if another clone still holds them, and writes in
/// place from then on. A holder therefore never sees a relation move under
/// it, and a writer pays for what it changes.
#[derive(Debug, Clone, Default)]
pub struct IndexedRelation {
    arity: usize,
    rows: Arc<Rows>,
    indexes: HashMap<Vec<usize>, Arc<Index>>,
    counters: IndexCounters,
}

impl IndexedRelation {
    /// An empty relation of the given arity.
    pub fn new(arity: usize) -> IndexedRelation {
        IndexedRelation {
            arity,
            ..IndexedRelation::default()
        }
    }

    /// Copies a plain [`Relation`] into indexed storage.
    pub fn from_relation(rel: &Relation) -> IndexedRelation {
        let mut r = IndexedRelation::new(rel.arity());
        for t in rel.iter() {
            r.insert(t.clone());
        }
        r
    }

    /// The arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of (live) tuples.
    pub fn len(&self) -> usize {
        self.rows.ids.len()
    }

    /// True if no tuple is stored.
    pub fn is_empty(&self) -> bool {
        self.rows.ids.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, t: &[Value]) -> bool {
        self.rows.ids.contains_key(t)
    }

    /// The id of a stored tuple.
    pub fn id_of(&self, t: &[Value]) -> Option<u32> {
        self.rows.ids.get(t).copied()
    }

    /// Inserts a tuple, updating every existing index. Returns true if the
    /// tuple was new.
    pub fn insert(&mut self, t: Tuple) -> bool {
        self.insert_id(t).is_some()
    }

    /// [`IndexedRelation::insert`], returning the id the tuple was stored
    /// under (`None` if it was already present) — a freed slot when there is
    /// one, so callers keeping per-id side tables overwrite, never grow.
    pub fn insert_id(&mut self, t: Tuple) -> Option<u32> {
        assert_eq!(
            t.len(),
            self.arity,
            "tuple width {} does not match relation arity {}",
            t.len(),
            self.arity
        );
        if self.contains(&t) {
            return None;
        }
        let rows = Arc::make_mut(&mut self.rows);
        let id = match rows.free.pop() {
            Some(id) => id,
            None => {
                let Ok(id) = u32::try_from(rows.tuples.len()) else {
                    // u32 ids are a storage invariant; 2^32 arena slots
                    // exceeds every budget this engine runs under.
                    panic!("IndexedRelation overflow: more than u32::MAX tuples");
                };
                rows.tuples.push(None);
                id
            }
        };
        for (cols, index) in &mut self.indexes {
            let key: Box<[Value]> = cols.iter().map(|&c| t[c]).collect();
            Arc::make_mut(index).entry(key).or_default().push(id);
            self.counters.updates += 1;
        }
        rows.ids.insert(t.clone(), id);
        rows.tuples[id as usize] = Some(t);
        Some(id)
    }

    /// Removes a tuple, unlinking its id from every existing index and
    /// freeing its arena slot for reuse. Returns true if the tuple was
    /// present.
    pub fn remove(&mut self, t: &[Value]) -> bool {
        let Some(id) = self.id_of(t) else {
            return false;
        };
        let rows = Arc::make_mut(&mut self.rows);
        rows.ids.remove(t);
        for (cols, index) in &mut self.indexes {
            let index = Arc::make_mut(index);
            let key: Box<[Value]> = cols.iter().map(|&c| t[c]).collect();
            if let Some(bucket) = index.get_mut(&key) {
                bucket.retain(|&i| i != id);
                if bucket.is_empty() {
                    index.remove(&key);
                }
            }
            self.counters.updates += 1;
        }
        rows.tuples[id as usize] = None;
        rows.free.push(id);
        true
    }

    /// True if an index on `cols` is maintained.
    pub fn has_index(&self, cols: &[usize]) -> bool {
        self.indexes.contains_key(cols)
    }

    /// Makes sure an index on `cols` exists, building it from the current
    /// tuples if not. Idempotent; subsequent inserts keep it fresh. The
    /// rows are only read, so a clone stays shared while it is indexed.
    pub fn ensure_index(&mut self, cols: &[usize]) {
        if self.has_index(cols) {
            return;
        }
        let mut index: Index = HashMap::new();
        for (id, t) in self.rows.tuples.iter().enumerate() {
            let Some(t) = t else { continue };
            let key: Box<[Value]> = cols.iter().map(|&c| t[c]).collect();
            index.entry(key).or_default().push(id as u32);
        }
        self.indexes.insert(cols.to_vec(), Arc::new(index));
        self.counters.builds += 1;
    }

    /// The ids of tuples whose `cols` projection equals `key`. Returns
    /// `None` if no index on `cols` exists (compiled rules declare their
    /// indexes up front, so the driver treats that as an internal error);
    /// a present index with no matching key returns `Some(&[])`.
    pub fn probe(&self, cols: &[usize], key: &[Value]) -> Option<&[u32]> {
        let index = self.indexes.get(cols)?;
        Some(index.get(key).map_or(&[], Vec::as_slice))
    }

    /// The tuple with the given id. Ids only reach callers through `probe`,
    /// which never returns a removed tuple's id.
    pub fn tuple(&self, id: u32) -> &Tuple {
        match &self.rows.tuples[id as usize] {
            Some(t) => t,
            None => unreachable!("probe returned the id of a removed tuple"),
        }
    }

    /// Iterates over all live tuples in arena order (insertion order until
    /// a removal frees a slot).
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.rows.tuples.iter().flatten()
    }

    /// Copies the storage back into a plain [`Relation`].
    pub fn to_relation(&self) -> Relation {
        Relation::from_tuples(self.arity, self.iter().cloned())
    }

    /// Index-maintenance counters so far.
    pub fn counters(&self) -> IndexCounters {
        self.counters
    }

    /// Number of distinct indexes currently maintained.
    pub fn index_count(&self) -> usize {
        self.indexes.len()
    }

    /// Approximate working-set bytes of the live tuples: arena slot plus the
    /// dedup set (each owns a copy of every tuple) plus index entries. An
    /// estimate for budget enforcement, not an allocator measurement.
    pub fn approx_bytes(&self) -> usize {
        let per_tuple = self.arity * std::mem::size_of::<Value>() + 48;
        let mut bytes = 2 * self.len() * per_tuple;
        for (cols, index) in &self.indexes {
            bytes += index.len() * (cols.len() * std::mem::size_of::<Value>() + 48);
            bytes += self.len() * std::mem::size_of::<u32>();
        }
        bytes
    }
}

/// The engine's store: predicate → indexed relation.
///
/// Cloning a store clones its relations, which share their rows and indexes
/// (see [`IndexedRelation`]): the clone copies no tuple, and each side then
/// pays only for the relations it writes. That is what lets one store be the
/// read-only base of many evaluations — each clones it and adds relations
/// of its own — and of the next version of itself.
///
/// The fixpoint driver reads EDB relations and reads/extends IDB relations
/// through it, and the results stay here for whoever ran it to select from,
/// maintain or copy back out.
#[derive(Debug, Clone, Default)]
pub struct EngineDb {
    rels: BTreeMap<Symbol, IndexedRelation>,
}

/// The one conversion from the plain-facts format: every relation copied
/// into indexed storage (no index is built until a pipeline asks for one).
impl From<&Database> for EngineDb {
    fn from(db: &Database) -> EngineDb {
        let mut store = EngineDb::new();
        for (name, rel) in db.iter() {
            store.load(name, rel);
        }
        store
    }
}

impl EngineDb {
    /// An empty store.
    pub fn new() -> EngineDb {
        EngineDb::default()
    }

    /// Registers `pred` as an empty relation of the given arity if absent.
    /// A relation already stored under `pred` is left alone; one of a
    /// different arity is an error.
    pub fn declare(&mut self, pred: Symbol, arity: usize) -> Result<(), DatalogError> {
        let rel = self
            .rels
            .entry(pred)
            .or_insert_with(|| IndexedRelation::new(arity));
        if rel.arity() != arity {
            return Err(DatalogError::ArityMismatch {
                predicate: pred,
                expected: rel.arity(),
                found: arity,
            });
        }
        Ok(())
    }

    /// Copies a relation into the store (replacing any existing one).
    pub fn load(&mut self, pred: Symbol, rel: &Relation) {
        self.rels.insert(pred, IndexedRelation::from_relation(rel));
    }

    /// Looks up a relation.
    pub fn get(&self, pred: Symbol) -> Option<&IndexedRelation> {
        self.rels.get(&pred)
    }

    /// Looks up a relation mutably.
    pub fn get_mut(&mut self, pred: Symbol) -> Option<&mut IndexedRelation> {
        self.rels.get_mut(&pred)
    }

    /// Iterates over `(name, relation)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &IndexedRelation)> {
        self.rels.iter().map(|(&name, rel)| (name, rel))
    }

    /// Set-inserts `tuples` into `pred`'s relation and returns the ones that
    /// were new, in order — the set-semantics merge for
    /// [`crate::drive_rounds`]. An unknown predicate stores nothing.
    pub fn insert_fresh(&mut self, pred: Symbol, mut tuples: Vec<Tuple>) -> Vec<Tuple> {
        match self.rels.get_mut(&pred) {
            Some(rel) => tuples.retain(|t| rel.insert(t.clone())),
            None => tuples.clear(),
        }
        tuples
    }

    /// The `(predicate, key columns)` pairs among `needed` that name a
    /// stored relation without that index. An index built on a clone stays
    /// with the clone; a holder that wants its relations indexed once for
    /// every future clone asks what is missing and builds it on its own
    /// copy.
    pub fn missing_indexes<'a>(
        &self,
        needed: impl IntoIterator<Item = (Symbol, &'a [usize])>,
    ) -> Vec<(Symbol, Vec<usize>)> {
        let lacks = |pred, cols: &[usize]| self.get(pred).is_some_and(|rel| !rel.has_index(cols));
        let mut missing: Vec<(Symbol, Vec<usize>)> = needed
            .into_iter()
            .filter(|&(pred, cols)| lacks(pred, cols))
            .map(|(pred, cols)| (pred, cols.to_vec()))
            .collect();
        missing.sort();
        missing.dedup();
        missing
    }

    /// Builds the `(predicate, key columns)` indexes [`EngineDb::missing_indexes`]
    /// reported (idempotent), here, where every later clone inherits them.
    pub fn build_indexes(&mut self, needed: &[(Symbol, Vec<usize>)]) {
        for (pred, cols) in needed {
            if let Some(rel) = self.rels.get_mut(pred) {
                rel.ensure_index(cols);
            }
        }
    }

    /// Builds every index `rule`'s pipeline probes (idempotent). Callers do
    /// this once per compiled rule, before the first round that runs it.
    pub fn ensure_indexes(&mut self, rule: &crate::compile::CompiledRule) {
        for (pred, cols) in rule.required_indexes() {
            if let Some(rel) = self.rels.get_mut(&pred) {
                rel.ensure_index(cols);
            }
        }
    }

    /// Sums the index counters of every relation — lifetime counters of
    /// relations that may be older than this store; see
    /// [`IndexCounters::since`].
    pub fn index_counters(&self) -> IndexCounters {
        let mut total = IndexCounters::default();
        for rel in self.rels.values() {
            total.absorb(rel.counters());
        }
        total
    }

    /// Total number of persistent indexes across all relations.
    pub fn index_count(&self) -> usize {
        self.rels.values().map(IndexedRelation::index_count).sum()
    }

    /// Sums [`IndexedRelation::approx_bytes`] across all relations.
    pub fn approx_bytes(&self) -> usize {
        self.rels.values().map(IndexedRelation::approx_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recurs_datalog::relation::tuple_u64;

    fn v(n: u64) -> Value {
        Value::from_u64(n)
    }

    #[test]
    fn insert_dedupes_and_counts() {
        let mut r = IndexedRelation::new(2);
        assert!(r.insert(tuple_u64([1, 2])));
        assert!(!r.insert(tuple_u64([1, 2])));
        assert!(r.insert(tuple_u64([2, 3])));
        assert_eq!(r.len(), 2);
        assert!(r.contains(&[v(1), v(2)]));
        assert!(!r.contains(&[v(9), v(9)]));
    }

    #[test]
    fn ensure_index_then_probe() {
        let mut r = IndexedRelation::from_relation(&Relation::from_pairs([(1, 2), (1, 3), (2, 3)]));
        r.ensure_index(&[0]);
        assert_eq!(r.probe(&[0], &[v(1)]).unwrap().len(), 2);
        assert_eq!(r.probe(&[0], &[v(2)]).unwrap().len(), 1);
        assert_eq!(r.probe(&[0], &[v(7)]).unwrap().len(), 0);
        // No index on column 1 was ever ensured.
        assert!(r.probe(&[1], &[v(2)]).is_none());
        assert_eq!(r.counters().builds, 1);
    }

    #[test]
    fn index_is_maintained_incrementally() {
        let mut r = IndexedRelation::new(2);
        r.ensure_index(&[1]);
        r.insert(tuple_u64([1, 2]));
        r.insert(tuple_u64([3, 2]));
        assert_eq!(r.probe(&[1], &[v(2)]).unwrap().len(), 2);
        // Two inserts, one index each: two incremental updates, no rebuild.
        assert_eq!(
            r.counters(),
            IndexCounters {
                builds: 1,
                updates: 2
            }
        );
        // Re-ensuring is a no-op.
        r.ensure_index(&[1]);
        assert_eq!(r.counters().builds, 1);
    }

    #[test]
    fn multi_column_index_keys() {
        let mut r = IndexedRelation::new(3);
        r.insert(tuple_u64([1, 2, 3]));
        r.insert(tuple_u64([1, 2, 4]));
        r.insert(tuple_u64([1, 5, 3]));
        r.ensure_index(&[0, 1]);
        assert_eq!(r.probe(&[0, 1], &[v(1), v(2)]).unwrap().len(), 2);
        let id = r.probe(&[0, 1], &[v(1), v(5)]).unwrap()[0];
        assert_eq!(&r.tuple(id)[..], &[v(1), v(5), v(3)]);
    }

    #[test]
    fn remove_unlinks_indexes_and_tombstones_the_slot() {
        let mut r = IndexedRelation::from_relation(&Relation::from_pairs([(1, 2), (1, 3), (2, 3)]));
        r.ensure_index(&[0]);
        r.ensure_index(&[1]);
        assert!(r.remove(&[v(1), v(2)]));
        assert!(!r.remove(&[v(1), v(2)]), "second remove is a no-op");
        assert_eq!(r.len(), 2);
        assert!(!r.contains(&[v(1), v(2)]));
        assert_eq!(r.probe(&[0], &[v(1)]).unwrap().len(), 1);
        assert_eq!(r.probe(&[1], &[v(2)]).unwrap().len(), 0);
        // Iteration and round-tripping skip the tombstone.
        assert_eq!(r.iter().count(), 2);
        assert_eq!(r.to_relation(), Relation::from_pairs([(1, 3), (2, 3)]));
        // Reinsertion after removal is probe-visible again.
        assert!(r.insert(tuple_u64([1, 2])));
        assert_eq!(r.probe(&[0], &[v(1)]).unwrap().len(), 2);
        assert_eq!(r.iter().count(), 3);
    }

    #[test]
    fn round_trips_through_relation() {
        let rel = Relation::from_pairs([(1, 2), (2, 3), (3, 4)]);
        let r = IndexedRelation::from_relation(&rel);
        assert_eq!(r.to_relation(), rel);
    }

    #[test]
    fn engine_db_declares_and_sums_counters() {
        let mut db = EngineDb::new();
        let a = Symbol::intern("A");
        db.load(a, &Relation::from_pairs([(1, 2)]));
        db.declare(a, 2).unwrap(); // no-op: already present
        assert!(db.declare(a, 3).is_err(), "arity conflict");
        db.get_mut(a).unwrap().ensure_index(&[0]);
        assert_eq!(db.index_counters().builds, 1);
        assert_eq!(db.index_count(), 1);
        assert_eq!(db.get(a).unwrap().len(), 1);
    }

    #[test]
    fn clones_share_rows_and_indexes_until_one_writes() {
        let mut base = IndexedRelation::from_relation(&Relation::from_pairs([(1, 2), (2, 3)]));
        base.ensure_index(&[0]);
        let shares_rows = |x: &IndexedRelation, y: &IndexedRelation| Arc::ptr_eq(&x.rows, &y.rows);
        let shares_index = |x: &IndexedRelation, y: &IndexedRelation, cols: &[usize]| {
            Arc::ptr_eq(&x.indexes[cols], &y.indexes[cols])
        };

        // Indexing a clone builds that index and copies nothing.
        let mut copy = base.clone();
        copy.ensure_index(&[0]);
        copy.ensure_index(&[1]);
        assert!(shares_rows(&base, &copy) && shares_index(&base, &copy, &[0]));
        assert!(
            !base.has_index(&[1]),
            "the original is not indexed behind its back"
        );
        assert_eq!(copy.counters().since(base.counters()).builds, 1);

        // A write copies rows and indexes once; the original keeps its
        // content, its indexes and its counters.
        let before = base.counters();
        assert!(
            !copy.insert(tuple_u64([1, 2])),
            "a duplicate writes nothing"
        );
        assert!(shares_rows(&base, &copy));
        assert!(copy.insert(tuple_u64([3, 4])));
        assert!(!shares_rows(&base, &copy) && !shares_index(&base, &copy, &[0]));
        assert_eq!((base.len(), copy.len()), (2, 3));
        assert_eq!(base.probe(&[0], &[v(3)]).unwrap().len(), 0);
        assert_eq!(copy.probe(&[0], &[v(3)]).unwrap().len(), 1);
        assert_eq!(base.counters(), before);

        // Sole owner of its rows now: the next write is in place.
        let held = Arc::as_ptr(&copy.rows);
        assert!(copy.remove(&[v(1), v(2)]));
        assert_eq!(Arc::as_ptr(&copy.rows), held);
        assert_eq!(base.probe(&[0], &[v(1)]).unwrap().len(), 1);
    }

    #[test]
    fn missing_indexes_names_each_absent_index_once() {
        let a = Symbol::intern("A");
        let mut db = EngineDb::new();
        db.load(a, &Relation::from_pairs([(1, 2)]));
        db.get_mut(a).unwrap().ensure_index(&[0]);
        let unknown = Symbol::intern("Unknown");
        let needed: [(Symbol, &[usize]); 4] = [(a, &[0]), (a, &[1]), (a, &[1]), (unknown, &[0])];
        assert_eq!(db.missing_indexes(needed), vec![(a, vec![1])]);
    }
}
