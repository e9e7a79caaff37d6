//! Flat tuple storage for the execution engine.
//!
//! The oracle evaluator (`recurs_datalog::eval`) rebuilds a hash index on the
//! inner side of every join, every fixpoint iteration. [`IndexedRelation`]
//! instead keeps *persistent* indexes: each is built once when a compiled
//! rule first asks for it, and afterwards maintained incrementally as derived
//! tuples are inserted. Across a long fixpoint this turns the per-iteration
//! cost of indexing from O(|relation|) into O(|delta|).
//!
//! Nothing here owns a tuple by itself. A relation's tuples are rows of one
//! row-major arena; the dedup table and every index are open-addressing
//! tables of row ids ([`IdTable`]) that hash and compare their keys where
//! they already are, in the arena; and rows in flight — pipeline rows, head
//! batches, deltas — travel in a [`Batch`], one flat buffer reused from
//! round to round. Allocation follows buffer growth, never tuple count.
//!
//! A round's head batch is merged in bulk (`IndexedRelation::insert_batch`):
//! one probe a row, the id written where the probe stopped, the rows and
//! indexes un-shared once, and the dedup table grown once for what the
//! batch is expected to add rather than doubled row by row.

use crate::error::EngineError;
use recurs_datalog::database::Database;
use recurs_datalog::error::DatalogError;
use recurs_datalog::relation::{Relation, Tuple};
use recurs_datalog::symbol::Symbol;
use recurs_datalog::term::Value;
use std::hash::{BuildHasher, RandomState};
use std::sync::{Arc, OnceLock};

/// "No row": an empty table slot, an exhausted probe.
const NONE: u32 = u32::MAX;

/// Hashes a key — its values in key-column order — down to the 32 bits an
/// [`IdTable`] keeps: a rotate-xor-multiply per value, seeded once per
/// process so that stored constants (which arrive from outside) cannot be
/// chosen to collide.
fn hash_key(key: impl IntoIterator<Item = Value>) -> u32 {
    static SEED: OnceLock<u64> = OnceLock::new();
    let seed = *SEED.get_or_init(|| RandomState::new().hash_one(0u8));
    let mixed = key.into_iter().fold(seed, |h, v| {
        (h.rotate_left(5) ^ u64::from(v.0.id())).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    });
    (mixed >> 32) as u32
}

/// One slot of an [`IdTable`]: a row id (or [`NONE`]) and its key's hash.
#[derive(Debug, Clone, Copy)]
struct Slot {
    hash: u32,
    id: u32,
}

/// An open-addressing (linear probing) table of row ids. The keys stay in
/// the arena: a lookup hands in the hash and a predicate that compares a
/// candidate id's key in place. Each slot remembers its hash, so a probe
/// touches the arena only on a 32-bit match, and growth and deletion
/// (backward shift — no tombstones) never touch it. Allocates nothing until
/// the first insert, then 8 slots, doubling at three-quarters full — or, for
/// a batch, growing at once to what it expects to add.
#[derive(Debug, Clone, Default)]
struct IdTable {
    /// Empty, or a power of two long.
    slots: Vec<Slot>,
    len: usize,
}

impl IdTable {
    const MIN_SLOTS: usize = 8;

    /// The slot a hash starts probing at: its top bits.
    fn home(&self, hash: u32) -> usize {
        (hash >> (32 - self.slots.len().trailing_zeros())) as usize
    }

    /// The slot holding the id `is_match` accepts among those stored under
    /// `hash` or, failing that, the vacant slot the probe stopped at: where
    /// an insert of that key belongs, unless the table is due to grow (an
    /// unallocated table always is, and answers slot 0).
    fn probe(&self, hash: u32, is_match: impl Fn(u32) -> bool) -> Result<usize, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(hash);
        loop {
            let slot = self.slots[i];
            if slot.id == NONE {
                return Err(i);
            }
            if slot.hash == hash && is_match(slot.id) {
                return Ok(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// Puts `id` under `hash` in the vacant slot `at` its key's probe
    /// stopped at. If that would fill the table past three-quarters, the
    /// table first grows, to the smallest power of two (8 slots at least)
    /// with room for `expected()` more ids — but at least one and at most
    /// twice the ids it holds, so from a doubling to a quadrupling.
    fn insert_at(&mut self, mut at: usize, hash: u32, id: u32, expected: impl FnOnce() -> usize) {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            let want = (self.len + expected().clamp(1, 2 * self.len.max(1))) * 4;
            let grown = want.div_ceil(3).next_power_of_two().max(IdTable::MIN_SLOTS);
            let empty = Slot { hash: 0, id: NONE };
            let old = std::mem::replace(&mut self.slots, vec![empty; grown]);
            for slot in old.into_iter().filter(|s| s.id != NONE) {
                let at = self.vacant(slot.hash);
                self.slots[at] = slot;
            }
            at = self.vacant(hash);
        }
        self.slots[at] = Slot { hash, id };
        self.len += 1;
    }

    /// The first vacant slot on `hash`'s probe path.
    fn vacant(&self, hash: u32) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.home(hash);
        while self.slots[i].id != NONE {
            i = (i + 1) & mask;
        }
        i
    }

    /// Empties slot `i`, then shifts back every later slot of the run that
    /// the gap would otherwise cut off from its home.
    fn remove_at(&mut self, mut i: usize) {
        let mask = self.slots.len() - 1;
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            let slot = self.slots[j];
            if slot.id == NONE {
                break;
            }
            // `slot` may move to the gap iff the gap lies on its probe path:
            // cyclically within [home, j).
            let home = self.home(slot.hash);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(i) & mask) {
                self.slots[i] = slot;
                i = j;
            }
        }
        self.slots[i].id = NONE;
        self.len -= 1;
    }
}

/// Heap bytes a buffer holds.
fn bytes<T>(buffer: &Vec<T>) -> usize {
    buffer.capacity() * std::mem::size_of::<T>()
}

/// A batch of equal-width rows in one flat buffer: pipeline rows, the head
/// rows a round derives, a delta. Cleared and refilled round after round, so
/// it allocates only while it grows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Batch {
    width: usize,
    /// Row count (`values.len() / width`, were it not for width 0).
    rows: usize,
    values: Vec<Value>,
}

impl Batch {
    /// An empty batch of `width`-column rows.
    pub fn new(width: usize) -> Batch {
        Batch {
            width,
            ..Batch::default()
        }
    }

    /// A batch holding `rows`, each `width` long.
    pub fn from_rows<R: AsRef<[Value]>>(width: usize, rows: impl IntoIterator<Item = R>) -> Batch {
        let mut batch = Batch::new(width);
        for row in rows {
            batch.push(row.as_ref().iter().copied());
        }
        batch
    }

    /// Columns per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True if no row is held.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Empties the batch for rows of `width`, keeping its buffer.
    pub fn reset(&mut self, width: usize) {
        self.width = width;
        self.rows = 0;
        self.values.clear();
    }

    /// Appends one row; `row` must yield exactly [`Batch::width`] values.
    pub fn push(&mut self, row: impl IntoIterator<Item = Value>) {
        self.values.extend(row);
        self.rows += 1;
        debug_assert_eq!(self.values.len(), self.rows * self.width);
    }

    /// The rows, in insertion order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[Value]> + Clone + '_ {
        let width = self.width;
        (0..self.rows).map(move |i| &self.values[i * width..(i + 1) * width])
    }
}

/// The tuples of a relation: the row-major arena (slot `id` is
/// `values[id * arity..][..arity]`), which slots are live, the freed ones,
/// and the dedup table over whole rows.
#[derive(Debug, Clone, Default)]
struct Rows {
    values: Vec<Value>,
    /// Arena slots handed out so far, live or freed.
    slots: usize,
    /// Bit `id` is set while slot `id` holds a tuple.
    live: Vec<u64>,
    free: Vec<u32>,
    ids: IdTable,
}

impl Rows {
    fn is_live(&self, id: usize) -> bool {
        self.live[id / 64] & (1 << (id % 64)) != 0
    }
}

/// A hash index on `cols`: the table holds the newest row of each distinct
/// key, and `next` chains every row to the one with the same key stored
/// before it.
#[derive(Debug, Clone)]
struct Index {
    cols: Vec<usize>,
    heads: IdTable,
    /// Per arena slot: the next-older row with the same key, or [`NONE`].
    next: Vec<u32>,
}

impl Index {
    /// The hash of a key — `key(i)` is its value for `cols[i]` — and the
    /// table slot of its chain if a stored row carries it, else the one it
    /// would go in ([`IdTable::probe`]).
    fn chain(
        &self,
        values: &[Value],
        arity: usize,
        key: impl Fn(usize) -> Value,
    ) -> (u32, Result<usize, usize>) {
        let hash = hash_key((0..self.cols.len()).map(&key));
        let slot = self.heads.probe(hash, |id| {
            let row = &values[id as usize * arity..];
            self.cols.iter().enumerate().all(|(i, &c)| row[c] == key(i))
        });
        (hash, slot)
    }

    /// Puts row `id` (already in the arena) at the head of its key's chain.
    fn link(&mut self, values: &[Value], arity: usize, id: u32) {
        if self.next.len() <= id as usize {
            self.next.resize(id as usize + 1, NONE);
        }
        let row = &values[id as usize * arity..];
        let (hash, slot) = self.chain(values, arity, |i| row[self.cols[i]]);
        self.next[id as usize] = match slot {
            Ok(slot) => std::mem::replace(&mut self.heads.slots[slot].id, id),
            Err(at) => {
                self.heads.insert_at(at, hash, id, || 1);
                NONE
            }
        };
    }

    /// Takes row `id` (still in the arena) out of its key's chain.
    fn unlink(&mut self, values: &[Value], arity: usize, id: u32) {
        let row = &values[id as usize * arity..];
        let (_, Ok(slot)) = self.chain(values, arity, |i| row[self.cols[i]]) else {
            unreachable!("an indexed row's key has a chain");
        };
        let older = self.next[id as usize];
        let head = self.heads.slots[slot].id;
        if head != id {
            let mut newer = head;
            while self.next[newer as usize] != id {
                newer = self.next[newer as usize];
            }
            self.next[newer as usize] = older;
        } else if older != NONE {
            self.heads.slots[slot].id = older;
        } else {
            self.heads.remove_at(slot);
        }
    }
}

/// One index of an [`IndexedRelation`], resolved once so that a pipeline
/// step probing it row after row does not look it up each time.
#[derive(Debug, Clone, Copy)]
pub struct IndexView<'a> {
    values: &'a [Value],
    arity: usize,
    index: &'a Index,
}

impl<'a> IndexView<'a> {
    /// The key columns.
    pub fn cols(&self) -> &'a [usize] {
        &self.index.cols
    }

    /// The ids of the tuples whose key columns equal `key`, newest first.
    pub fn probe(&self, key: &[Value]) -> Probe<'a> {
        let (_, slot) = self.index.chain(self.values, self.arity, |i| key[i]);
        Probe {
            next: &self.index.next,
            at: slot.map_or(NONE, |slot| self.index.heads.slots[slot].id),
        }
    }
}

/// The ids one [`IndexView::probe`] matched.
#[derive(Debug, Clone)]
pub struct Probe<'a> {
    next: &'a [u32],
    at: u32,
}

impl Iterator for Probe<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        let id = self.at;
        (id != NONE).then(|| {
            self.at = self.next[id as usize];
            id
        })
    }
}

/// A relation stored as a flat tuple arena plus persistent hash indexes on
/// the column sets the compiled rules join on.
///
/// Tuple ids are `u32` arena slots; the dedup table and the indexes store
/// ids, not tuple copies, so a tuple's values exist exactly once however
/// many indexes cover it. Removal (used by incremental view maintenance)
/// clears the slot's live bit, unlinks the id from every index and puts the
/// slot on a free list the next insert draws from — an id is stable for the
/// lifetime of its tuple, and the arena stays as long as the relation's
/// high-water mark however many insert / remove rounds pass over it.
///
/// The rows and each index are reference-counted, so cloning a relation
/// copies no tuple and no index: the clone shares them all. Writes are
/// copy-on-write ([`Arc::make_mut`]): adding an index to a clone builds that
/// index and shares the rest; inserting or removing a tuple copies the rows
/// and the indexes once — a few flat buffers each — if another clone still
/// holds them, and writes in place from then on. A holder therefore never
/// sees a relation move under it, and a writer pays for what it changes.
#[derive(Debug, Clone, Default)]
pub struct IndexedRelation {
    arity: usize,
    rows: Arc<Rows>,
    indexes: Vec<Arc<Index>>,
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
            r.insert(t);
        }
        r
    }

    /// The arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of (live) tuples.
    pub fn len(&self) -> usize {
        self.rows.ids.len
    }

    /// True if no tuple is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test.
    pub fn contains(&self, t: &[Value]) -> bool {
        self.id_of(t).is_some()
    }

    /// The hash of `t` and the dedup-table slot that holds it, if stored,
    /// else the one it would go in ([`IdTable::probe`]).
    fn lookup(&self, t: &[Value]) -> (u32, Result<usize, usize>) {
        let rows = &*self.rows;
        let hash = hash_key(t.iter().copied());
        let slot = rows.ids.probe(hash, |id| {
            &rows.values[id as usize * self.arity..][..self.arity] == t
        });
        (hash, slot)
    }

    /// The id of a stored tuple: one lookup in the dedup table.
    pub fn id_of(&self, t: &[Value]) -> Option<u32> {
        let slot = self.lookup(t).1.ok()?;
        Some(self.rows.ids.slots[slot].id)
    }

    /// Inserts a tuple, updating every existing index. Returns true if the
    /// tuple was new.
    pub fn insert(&mut self, t: &[Value]) -> bool {
        self.insert_id(t).is_some()
    }

    /// [`IndexedRelation::insert`], returning the id the tuple was stored
    /// under (`None` if it was already present) — a freed slot when there is
    /// one, so callers keeping per-id side tables overwrite, never grow.
    pub fn insert_id(&mut self, t: &[Value]) -> Option<u32> {
        assert_eq!(t.len(), self.arity, "tuple width != arity");
        let mut stored = None;
        self.merge(std::iter::once(t), |_, id| stored = Some(id));
        stored
    }

    /// Set-inserts the rows of `heads` and appends the new ones, in order,
    /// to `fresh`: what [`IndexedRelation::insert`] row by row would store,
    /// index and report, in one pass.
    pub(crate) fn insert_batch(&mut self, heads: &Batch, fresh: &mut Batch) {
        assert_eq!(heads.width(), self.arity, "batch width != arity");
        self.merge(heads.iter(), |row, _| fresh.push(row.iter().copied()));
    }

    /// Stores the rows of `batch` not stored yet, handing each new one and
    /// its id to `stored`, in order. On shared rows a batch only reads up to
    /// its first new row, so duplicates leave them shared; from there the
    /// rows and each index are un-shared once, a new row takes a freed slot
    /// while there is one and its id goes in the vacant table slot its one
    /// probe stopped at, and the indexes link the new ids after the pass,
    /// in order. A dedup table due to grow grows once for what the batch
    /// still expects to add — its rest, at the share of new rows so far —
    /// but by at most twice its ids, so a batch that turns out to repeat
    /// itself holds at most twice the table row-by-row inserts would grow.
    fn merge<'r, B>(&mut self, batch: B, mut stored: impl FnMut(&'r [Value], u32))
    where
        B: ExactSizeIterator<Item = &'r [Value]> + Clone,
    {
        let (arity, len) = (self.arity, batch.len());
        let unique = Arc::get_mut(&mut self.rows).is_some();
        let Some(first) = batch.clone().position(|row| unique || !self.contains(row)) else {
            return;
        };
        let rows = Arc::make_mut(&mut self.rows);
        let (slots_before, mut top, mut added) = (rows.slots, rows.free.len(), 0);
        for (n, row) in batch.enumerate().skip(first) {
            let hash = hash_key(row.iter().copied());
            let is_row = |id: u32| &rows.values[id as usize * arity..][..arity] == row;
            let Err(at) = rows.ids.probe(hash, is_row) else {
                continue;
            };
            let id = if top > 0 {
                top -= 1;
                rows.values[rows.free[top] as usize * arity..][..arity].copy_from_slice(row);
                rows.free[top]
            } else {
                // u32 ids are a storage invariant (`NONE` is not an id);
                // 2^32 arena slots exceeds every budget this engine runs
                // under.
                let overflow = "IndexedRelation overflow: more than u32::MAX tuples";
                assert!(rows.slots < NONE as usize, "{overflow}");
                rows.values.extend_from_slice(row);
                rows.slots += 1;
                rows.live.resize(rows.slots.div_ceil(64), 0);
                rows.slots as u32 - 1
            };
            rows.live[id as usize / 64] |= 1 << (id % 64);
            // The rest of the batch, at the share of new rows so far.
            let expected = || ((len - n) * (added + 1)).div_ceil(n + 1);
            rows.ids.insert_at(at, hash, id, expected);
            stored(row, id);
            added += 1;
        }
        // The freed slots taken, latest freed first, then the new ones.
        let new_ids = rows.free[top..].iter().rev().copied();
        let new_ids = new_ids.chain(slots_before as u32..rows.slots as u32);
        for index in &mut self.indexes {
            let index = Arc::make_mut(index);
            for id in new_ids.clone() {
                index.link(&rows.values, arity, id);
            }
        }
        rows.free.truncate(top);
    }

    /// Removes a tuple, unlinking its id from every existing index and
    /// freeing its arena slot for reuse. Returns true if the tuple was
    /// present.
    pub fn remove(&mut self, t: &[Value]) -> bool {
        let Ok(slot) = self.lookup(t).1 else {
            return false;
        };
        // A private copy of the rows has the same table layout: `slot` holds.
        let rows = Arc::make_mut(&mut self.rows);
        let id = rows.ids.slots[slot].id;
        for index in &mut self.indexes {
            Arc::make_mut(index).unlink(&rows.values, self.arity, id);
        }
        rows.ids.remove_at(slot);
        rows.live[id as usize / 64] &= !(1 << (id % 64));
        rows.free.push(id);
        true
    }

    fn index_on(&self, cols: &[usize]) -> Option<&Arc<Index>> {
        self.indexes.iter().find(|index| index.cols == cols)
    }

    fn view<'a>(&'a self, index: &'a Index) -> IndexView<'a> {
        IndexView {
            values: &self.rows.values,
            arity: self.arity,
            index,
        }
    }

    /// True if an index on `cols` is maintained.
    pub fn has_index(&self, cols: &[usize]) -> bool {
        self.index_on(cols).is_some()
    }

    /// Makes sure an index on `cols` exists, building it from the current
    /// tuples if not. Idempotent; subsequent inserts keep it fresh. The
    /// rows are only read, so a clone stays shared while it is indexed.
    pub fn ensure_index(&mut self, cols: &[usize]) {
        if self.has_index(cols) {
            return;
        }
        let rows = &*self.rows;
        let mut index = Index {
            cols: cols.to_vec(),
            heads: IdTable::default(),
            next: vec![NONE; rows.slots],
        };
        for id in (0..rows.slots).filter(|&id| rows.is_live(id)) {
            index.link(&rows.values, self.arity, id as u32);
        }
        self.indexes.push(Arc::new(index));
    }

    /// The index on exactly `cols`, if one is maintained.
    pub fn index(&self, cols: &[usize]) -> Option<IndexView<'_>> {
        self.index_on(cols).map(|index| self.view(index))
    }

    /// The widest maintained index keyed on nothing but columns of `bound`
    /// — the one a selection binding those columns narrows the most by.
    pub fn index_within(&self, bound: &[usize]) -> Option<IndexView<'_>> {
        self.indexes
            .iter()
            .filter(|index| index.cols.iter().all(|c| bound.contains(c)))
            .max_by_key(|index| index.cols.len())
            .map(|index| self.view(index))
    }

    /// The ids of tuples whose `cols` projection equals `key`. Returns
    /// `None` if no index on `cols` exists (compiled rules declare their
    /// indexes up front, so the driver treats that as an internal error);
    /// a present index with no matching key yields no id.
    pub fn probe(&self, cols: &[usize], key: &[Value]) -> Option<Probe<'_>> {
        Some(self.index(cols)?.probe(key))
    }

    /// The tuple with the given id. Ids only reach callers through `probe`,
    /// `id_of` and `insert_id`, which never return a removed tuple's id.
    pub fn tuple(&self, id: u32) -> &[Value] {
        debug_assert!(self.rows.is_live(id as usize), "the id of a removed tuple");
        &self.rows.values[id as usize * self.arity..][..self.arity]
    }

    /// Iterates over all live tuples in arena order (insertion order until
    /// a removal frees a slot).
    pub fn iter(&self) -> impl Iterator<Item = &[Value]> + '_ {
        let (rows, arity) = (&*self.rows, self.arity);
        (0..rows.slots)
            .filter(|&id| rows.is_live(id))
            .map(move |id| &rows.values[id * arity..(id + 1) * arity])
    }

    /// The same tuples, sharing this relation's rows and keeping none of
    /// its indexes: what a select that keeps every tuple whole answers.
    pub(crate) fn unindexed(&self) -> IndexedRelation {
        IndexedRelation {
            arity: self.arity,
            rows: Arc::clone(&self.rows),
            indexes: Vec::new(),
        }
    }

    /// Copies the storage back into a plain [`Relation`].
    pub fn to_relation(&self) -> Relation {
        Relation::from_tuples(self.arity, self.iter().map(Tuple::from))
    }

    /// Number of distinct indexes currently maintained.
    pub fn index_count(&self) -> usize {
        self.indexes.len()
    }

    /// Heap bytes the relation's buffers hold — arena, live bits, free list,
    /// dedup table, and each index's table and chain links, by capacity —
    /// whether or not other clones share them; O(indexes). Tests measure a
    /// store's footprint with it.
    pub fn heap_bytes(&self) -> usize {
        let rows = &*self.rows;
        let of_index = |i: &Arc<Index>| bytes(&i.cols) + bytes(&i.heads.slots) + bytes(&i.next);
        bytes(&rows.values)
            + bytes(&rows.live)
            + bytes(&rows.free)
            + bytes(&rows.ids.slots)
            + bytes(&self.indexes)
            + self.indexes.iter().map(of_index).sum::<usize>()
    }
}

/// The engine's store: predicate → indexed relation, kept in name order and
/// found by id.
///
/// Cloning a store clones its relations, which share their rows and indexes
/// (see [`IndexedRelation`]): the clone copies no tuple, and each side then
/// pays only for the relations it writes. That is what lets one store be the
/// read-only base of many evaluations — each clones it and adds relations
/// of its own — and of the next version of itself.
///
/// The fixpoint driver reads EDB relations and reads/extends IDB relations
/// through it, and the results stay here for whoever ran it to select from,
/// maintain or copy back out. A lookup runs once per join step and once per
/// merge, so it compares symbol ids — a scan of the few relations a program
/// names — never the names themselves; only adding a relation places it by
/// name, so that [`EngineDb::iter`] runs in name order.
#[derive(Debug, Clone, Default)]
pub struct EngineDb {
    rels: Vec<(Symbol, IndexedRelation)>,
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

    /// Where `pred`'s relation sits, found by id.
    fn at(&self, pred: Symbol) -> Option<usize> {
        self.rels.iter().position(|(name, _)| *name == pred)
    }

    /// The relation stored under `pred`, added empty (of `arity`), in name
    /// order, if there is none.
    fn entry(&mut self, pred: Symbol, arity: usize) -> &mut IndexedRelation {
        let at = self.at(pred).unwrap_or_else(|| {
            let at = self.rels.partition_point(|(name, _)| *name < pred);
            self.rels.insert(at, (pred, IndexedRelation::new(arity)));
            at
        });
        &mut self.rels[at].1
    }

    /// Registers `pred` as an empty relation of the given arity if absent.
    /// A relation already stored under `pred` is left alone; one of a
    /// different arity is an error.
    pub fn declare(&mut self, pred: Symbol, arity: usize) -> Result<(), DatalogError> {
        let rel = self.entry(pred, arity);
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
        *self.entry(pred, rel.arity()) = IndexedRelation::from_relation(rel);
    }

    /// Looks up a relation.
    pub fn get(&self, pred: Symbol) -> Option<&IndexedRelation> {
        self.at(pred).map(|at| &self.rels[at].1)
    }

    /// The relation a compiled pipeline reads: one the driver never loaded
    /// is its own bug, an internal error.
    pub(crate) fn relation(&self, pred: Symbol) -> Result<&IndexedRelation, EngineError> {
        let unloaded = "compiled rule references a relation the driver never loaded";
        self.get(pred).ok_or(EngineError::Internal(unloaded))
    }

    /// Looks up a relation mutably.
    pub fn get_mut(&mut self, pred: Symbol) -> Option<&mut IndexedRelation> {
        self.at(pred).map(|at| &mut self.rels[at].1)
    }

    /// Iterates over `(name, relation)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &IndexedRelation)> {
        self.rels.iter().map(|(name, rel)| (*name, rel))
    }

    /// Set-inserts the rows of `heads` into `pred`'s relation and appends
    /// the ones that were new, in order, to `fresh` — the set-semantics
    /// merge for [`crate::drive_rounds`]. An unknown predicate stores
    /// nothing.
    pub fn insert_fresh(&mut self, pred: Symbol, heads: &Batch, fresh: &mut Batch) {
        if let Some(rel) = self.get_mut(pred) {
            rel.insert_batch(heads, fresh);
        }
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
            if let Some(rel) = self.get_mut(*pred) {
                rel.ensure_index(cols);
            }
        }
    }

    /// Builds every index `rule`'s pipeline probes (idempotent). Callers do
    /// this once per compiled rule, before the first round that runs it.
    pub fn ensure_indexes(&mut self, rule: &crate::compile::CompiledRule) {
        for (pred, cols) in rule.required_indexes() {
            if let Some(rel) = self.get_mut(pred) {
                rel.ensure_index(cols);
            }
        }
    }

    /// Total number of persistent indexes across all relations.
    pub fn index_count(&self) -> usize {
        self.iter().map(|(_, rel)| rel.index_count()).sum()
    }

    /// Sums [`IndexedRelation::heap_bytes`] across all relations.
    pub fn heap_bytes(&self) -> usize {
        self.iter().map(|(_, rel)| rel.heap_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recurs_datalog::relation::tuple_u64;
    use std::collections::HashSet;

    fn v(n: u64) -> Value {
        Value::from_u64(n)
    }

    fn probe_len(r: &IndexedRelation, cols: &[usize], key: &[Value]) -> usize {
        r.probe(cols, key).unwrap().count()
    }

    #[test]
    fn insert_dedupes_and_counts() {
        let mut r = IndexedRelation::new(2);
        assert!(r.insert(&tuple_u64([1, 2])));
        assert!(!r.insert(&tuple_u64([1, 2])));
        assert!(r.insert(&tuple_u64([2, 3])));
        assert_eq!(r.len(), 2);
        assert!(r.contains(&[v(1), v(2)]));
        assert!(!r.contains(&[v(9), v(9)]));
        assert!(!r.contains(&[v(1)]), "a tuple of another width is absent");
    }

    #[test]
    fn a_relation_without_columns_holds_the_empty_tuple_at_most_once() {
        let mut r = IndexedRelation::new(0);
        assert!(r.insert(&[]) && !r.insert(&[]));
        assert_eq!((r.len(), r.iter().count()), (1, 1));
        assert!(r.remove(&[]) && r.is_empty());
        assert_eq!(r.insert_id(&[]), Some(0), "the freed slot is reused");
    }

    #[test]
    fn ensure_index_then_probe() {
        let mut r = IndexedRelation::from_relation(&Relation::from_pairs([(1, 2), (1, 3), (2, 3)]));
        r.ensure_index(&[0]);
        assert_eq!(probe_len(&r, &[0], &[v(1)]), 2);
        assert_eq!(probe_len(&r, &[0], &[v(2)]), 1);
        assert_eq!(probe_len(&r, &[0], &[v(7)]), 0);
        // No index on column 1 was ever ensured.
        assert!(r.probe(&[1], &[v(2)]).is_none());
        assert_eq!(r.index_count(), 1);
    }

    #[test]
    fn index_is_maintained_incrementally() {
        let mut r = IndexedRelation::new(2);
        r.ensure_index(&[1]);
        let first = r.insert_id(&tuple_u64([1, 2])).unwrap();
        let second = r.insert_id(&tuple_u64([3, 2])).unwrap();
        let hits: Vec<u32> = r.probe(&[1], &[v(2)]).unwrap().collect();
        assert_eq!(hits, vec![second, first], "newest first");
        // Re-ensuring is a no-op.
        r.ensure_index(&[1]);
        assert_eq!(r.index_count(), 1);
    }

    #[test]
    fn multi_column_index_keys() {
        let mut r = IndexedRelation::new(3);
        r.insert(&tuple_u64([1, 2, 3]));
        r.insert(&tuple_u64([1, 2, 4]));
        r.insert(&tuple_u64([1, 5, 3]));
        r.ensure_index(&[0, 1]);
        assert_eq!(probe_len(&r, &[0, 1], &[v(1), v(2)]), 2);
        let id = r.probe(&[0, 1], &[v(1), v(5)]).unwrap().next().unwrap();
        assert_eq!(r.tuple(id), &[v(1), v(5), v(3)]);
        // The widest index inside the bound columns wins; none outside does.
        r.ensure_index(&[0]);
        assert_eq!(r.index_within(&[0, 1, 2]).unwrap().cols(), &[0, 1]);
        assert_eq!(r.index_within(&[0, 2]).unwrap().cols(), &[0]);
        assert!(r.index_within(&[1, 2]).is_none());
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
        assert_eq!(probe_len(&r, &[0], &[v(1)]), 1);
        assert_eq!(probe_len(&r, &[1], &[v(2)]), 0);
        // Iteration and round-tripping skip the freed slot.
        assert_eq!(r.iter().count(), 2);
        assert_eq!(r.to_relation(), Relation::from_pairs([(1, 3), (2, 3)]));
        // Reinsertion after removal is probe-visible again.
        assert!(r.insert(&tuple_u64([1, 2])));
        assert_eq!(probe_len(&r, &[0], &[v(1)]), 2);
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
        assert_eq!(db.index_count(), 1);
        assert_eq!(db.get(a).unwrap().len(), 1);
    }

    #[test]
    fn clones_share_rows_and_indexes_until_one_writes() {
        let mut base = IndexedRelation::from_relation(&Relation::from_pairs([(1, 2), (2, 3)]));
        base.ensure_index(&[0]);
        let shares_rows = |x: &IndexedRelation, y: &IndexedRelation| Arc::ptr_eq(&x.rows, &y.rows);
        let shares_index = |x: &IndexedRelation, y: &IndexedRelation, cols: &[usize]| {
            Arc::ptr_eq(x.index_on(cols).unwrap(), y.index_on(cols).unwrap())
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
        assert_eq!((base.index_count(), copy.index_count()), (1, 2));

        // A write copies rows and indexes once; the original keeps its
        // content and its indexes.
        assert!(
            !copy.insert(&tuple_u64([1, 2])),
            "a duplicate writes nothing"
        );
        assert!(shares_rows(&base, &copy));
        assert!(copy.insert(&tuple_u64([3, 4])));
        assert!(!shares_rows(&base, &copy) && !shares_index(&base, &copy, &[0]));
        assert_eq!((base.len(), copy.len()), (2, 3));
        assert_eq!(probe_len(&base, &[0], &[v(3)]), 0);
        assert_eq!(probe_len(&copy, &[0], &[v(3)]), 1);
        assert_eq!(base.index_count(), 1);

        // Sole owner of its rows now: the next write is in place.
        let held = Arc::as_ptr(&copy.rows);
        assert!(copy.remove(&[v(1), v(2)]));
        assert_eq!(Arc::as_ptr(&copy.rows), held);
        assert_eq!(probe_len(&base, &[0], &[v(1)]), 1);
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

    #[test]
    fn empty_relations_hold_no_buffer_and_small_ones_a_small_table() {
        let mut r = IndexedRelation::new(2);
        assert_eq!(r.heap_bytes(), 0);
        r.insert(&tuple_u64([1, 2]));
        assert_eq!(r.rows.ids.slots.len(), 8);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// A batch merged in bulk (in two halves) and row by row into clones
        /// of the same relation — built by a random history of inserts and
        /// removes under up to two indexes, so it has freed slots to reuse —
        /// where the small domain repeats rows inside the batch and against
        /// the relation. Both sides store the same tuples under the same ids,
        /// report the same fresh rows in the same order and probe alike on
        /// every index; the bulk table is at most twice the row-by-row one;
        /// the relation they were cloned from never changes; and a batch of
        /// stored rows only leaves the rows shared.
        #[test]
        fn a_bulk_merge_is_row_by_row_inserts(
            arity in 1usize..4,
            domain in 2u64..6,
            masks in (0u8..8, 0u8..8),
            history in proptest::collection::vec((0u8..3, 0u64..216), 0..60),
            codes in proptest::collection::vec(0u64..216, 0..150),
        ) {
            let tuple = |code: u64| -> Vec<Value> {
                (0..arity as u32).map(|i| v(code / domain.pow(i) % domain)).collect()
            };
            let indexes: Vec<Vec<usize>> = [masks.0, masks.1]
                .iter()
                .map(|mask| (0..arity).filter(|c| mask & (1 << c) != 0).collect())
                .filter(|cols: &Vec<usize>| !cols.is_empty())
                .collect();
            let mut base = IndexedRelation::new(arity);
            for cols in &indexes {
                base.ensure_index(cols);
            }
            for (kind, code) in history {
                match kind {
                    0 | 1 => base.insert(&tuple(code)),
                    _ => base.remove(&tuple(code)),
                };
            }
            let contents = |r: &IndexedRelation| -> Vec<Vec<Value>> {
                r.iter().map(<[Value]>::to_vec).collect()
            };
            let probes = |r: &IndexedRelation| -> Vec<Vec<u32>> {
                let keys = (0..216).map(tuple);
                keys.flat_map(|t| indexes.iter().map(move |cols| (cols, t.clone())))
                    .map(|(cols, t)| {
                        let key: Vec<Value> = cols.iter().map(|&c| t[c]).collect();
                        r.probe(cols, &key).unwrap().collect()
                    })
                    .collect()
            };
            let (held, held_probes) = (contents(&base), probes(&base));
            let heads = Batch::from_rows(arity, codes.iter().map(|&code| tuple(code)));

            let (mut rowwise, mut rowwise_fresh) = (base.clone(), Batch::new(arity));
            for row in heads.iter() {
                if rowwise.insert(row) {
                    rowwise_fresh.push(row.iter().copied());
                }
            }
            // Two batches: the first lands on shared rows, the second on
            // rows the first made the relation's own (when it added any).
            let (mut bulk, mut bulk_fresh) = (base.clone(), Batch::new(arity));
            let (front, back) = codes.split_at(codes.len() / 2);
            for half in [front, back] {
                let half = Batch::from_rows(arity, half.iter().map(|&code| tuple(code)));
                bulk.insert_batch(&half, &mut bulk_fresh);
            }

            proptest::prop_assert_eq!(&bulk_fresh, &rowwise_fresh);
            proptest::prop_assert_eq!(bulk.len(), rowwise.len());
            let ids = |r: &IndexedRelation| -> Vec<Option<u32>> {
                (0..216).map(|code| r.id_of(&tuple(code))).collect()
            };
            proptest::prop_assert_eq!(ids(&bulk), ids(&rowwise));
            proptest::prop_assert_eq!(contents(&bulk), contents(&rowwise));
            proptest::prop_assert_eq!(probes(&bulk), probes(&rowwise));
            proptest::prop_assert!(
                bulk.heap_bytes() <= 2 * rowwise.heap_bytes(),
                "bulk {} B, row by row {} B", bulk.heap_bytes(), rowwise.heap_bytes()
            );
            proptest::prop_assert_eq!(contents(&base), held);
            proptest::prop_assert_eq!(probes(&base), held_probes);

            let stored = Batch::from_rows(arity, base.iter().chain(base.iter()));
            let (mut copy, mut none) = (base.clone(), Batch::new(arity));
            copy.insert_batch(&stored, &mut none);
            proptest::prop_assert!(none.is_empty() && Arc::ptr_eq(&copy.rows, &base.rows));
        }
    }

    /// The id table under a hasher that collides on purpose: every key lands
    /// in one of two probe runs, one of them starting at the last slot, so
    /// runs wrap around the end of the table, grow through several doublings
    /// and lose members from their middle — against a `HashSet` model.
    #[test]
    fn id_table_survives_a_colliding_hasher() {
        let hash_of = |id: u32| if id.is_multiple_of(3) { u32::MAX } else { 0 };
        let mut table = IdTable::default();
        let mut model: HashSet<u32> = HashSet::new();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for step in 0..20_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Fill up, thin out, fill up again.
            let id = (state >> 8) as u32 % 200;
            let adding = (step / 2_000) % 2 == 0 || state & 3 == 0;
            let found = table.probe(hash_of(id), |other| other == id);
            assert_eq!(found.is_ok(), model.contains(&id), "id {id}");
            match (adding, found) {
                (true, Err(at)) => {
                    table.insert_at(at, hash_of(id), id, || 1);
                    model.insert(id);
                }
                (false, Ok(slot)) => {
                    table.remove_at(slot);
                    model.remove(&id);
                }
                _ => {}
            }
            assert_eq!(table.len, model.len());
        }
        assert!(table.slots.len() >= 256, "the table grew");
        for id in 0..200 {
            let found = table.probe(hash_of(id), |other| other == id).ok();
            assert_eq!(found.is_some(), model.contains(&id), "id {id}");
        }
    }
}
