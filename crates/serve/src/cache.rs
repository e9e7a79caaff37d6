//! LRU cache of completed query answers.
//!
//! An entry is keyed by the query's [`Selection`] — the engine's own
//! select/project of the adorned query with its constants filled in, which is
//! the query itself up to variable renaming: `P(c, X)` and `P(c, Y)` are one
//! key, `P(x, x)` and `P(x, y)` two — and the cache carries the one
//! [`Version`] its entries are exact at. `SaturationCache::get` hits only
//! when the caller's snapshot version is the cache's, and
//! `SaturationCache::insert` is dropped when the cache has moved on: a
//! reader holding an older snapshot, or one that raced a writer, misses and
//! its late answer is discarded. That is the whole no-stale-reply invariant.
//! A version bump does not cost the cache: when incremental maintenance
//! produces the exact change to the recursive predicate,
//! `SaturationCache::advance` sends each changed tuple to the entries it
//! can reach — one per key shape present — patches them in place and
//! restamps the cache. Only when no patch exists (cold fallback, a freshly
//! built view) does `SaturationCache::retain_version` clear it.
//!
//! Only [`Outcome::Complete`](recurs_datalog::govern::Outcome) answers are
//! admitted by the service: a truncated answer is a budget-dependent
//! under-approximation and must not be replayed to a caller with a more
//! generous budget.
//!
//! An entry holds its answers and, once a hit has been served, a
//! `RowsText` cell: the text of their JSON `answers` rows as the
//! protocol's one row writer rendered them uncut, set by the first hit that
//! renders them and sent by every hit after it. The text is exact while the
//! answers are, so the entry drops its cell whenever they change — an
//! insert replacing them, the slot's eviction, an `advance` whose patch
//! moves one of their rows, `clear` — and keeps it when an `advance`
//! carries the entry to the next version unchanged. A hit that renders
//! after the entry has dropped its cell fills a cell no entry holds any
//! more, so rows rendered from answers the cache has left are never sent.
//! Only entries that have been hit hold text, each as long as its rows:
//! one frame at most on a framed transport, the whole answer set's where
//! replies are unframed (`serve --stdin`). The capacity counts entries, not
//! bytes.

use crate::version::Version;
use recurs_datalog::term::Value;
use recurs_engine::{IndexedRelation, Selection};
use recurs_ivm::IdbPatch;
use recurs_obs::Obs;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// The cache's monotone operation counts, as `QueryService::stats` reads
/// them back from `recurs_serve_cache_ops_total{op}` — the counter
/// `SaturationCache` records every operation into.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups that found an entry while the cache was at their version.
    pub hits: u64,
    /// Lookups that found nothing, or the cache at another version.
    pub misses: u64,
    /// Completed answers offered (a late one is also an invalidation).
    pub insertions: u64,
    /// Entries discarded to stay within capacity (LRU order).
    pub evictions: u64,
    /// Entries dropped because a version landed without a patch, plus
    /// answers that arrived for a version the cache had left.
    pub invalidations: u64,
    /// Entries whose answers a patch tuple changed as the cache moved to
    /// the next version; the entries merely carried are not counted.
    pub patched: u64,
}

impl serde::Serialize for CacheCounters {
    fn to_value(&self) -> serde::Value {
        serde::Value::object([
            ("hits", self.hits.to_value()),
            ("misses", self.misses.to_value()),
            ("insertions", self.insertions.to_value()),
            ("evictions", self.evictions.to_value()),
            ("invalidations", self.invalidations.to_value()),
            ("patched", self.patched.to_value()),
        ])
    }
}

/// One cached answer set under the [`Selection`] that produced it. Answers
/// are the query's distinct variables in first-occurrence order, so a
/// matching base tuple maps to *exactly one* answer row and, conversely, each
/// answer row pins every column (constants from the key, the rest from the
/// row): the mapping is one-to-one and deletions are as precise as
/// insertions.
#[derive(Debug)]
struct Entry {
    key: Selection,
    answers: IndexedRelation,
    /// The cell for the text of `answers`' JSON rows, made by the first hit;
    /// dropped with every change to `answers`.
    rows: Option<RowsText>,
    /// Neighbours in the recency ring: the newest entry's `newer` is the
    /// oldest entry, whose `older` is the newest.
    newer: usize,
    older: usize,
}

#[derive(Debug, Default)]
struct Lru {
    /// The one snapshot version every entry is exact at.
    version: Version,
    /// Key → position in `entries`. Entries leave by eviction (the arriving
    /// entry takes the position) or all at once: there are no holes.
    slots: HashMap<Selection, usize>,
    entries: Vec<Entry>,
    newest: usize,
    /// Per key shape present ([`Selection::same_shape`]), a key of that shape
    /// — its constants are scratch, rebound to each patch tuple — and how
    /// many entries share it: the lookups one patch tuple is worth. A handful
    /// per predicate, so a list.
    shapes: Vec<(Selection, usize)>,
}

impl Lru {
    /// Makes entry `i` the most recently used by moving its links: a hit
    /// clones no key and allocates nothing.
    fn touch(&mut self, i: usize) {
        if self.newest != i {
            let (newer, older) = (self.entries[i].newer, self.entries[i].older);
            (self.entries[newer].older, self.entries[older].newer) = (older, newer);
            self.link_newest(i);
        }
    }

    fn link_newest(&mut self, i: usize) {
        let was = std::mem::replace(&mut self.newest, i);
        let oldest = self.entries[was].newer;
        (self.entries[i].newer, self.entries[i].older) = (oldest, was);
        (self.entries[was].newer, self.entries[oldest].older) = (i, i);
    }

    /// A hit hands out the entry's rows and the cell for their text, made
    /// on its first hit, by reference count.
    fn get(&mut self, key: &Selection, version: Version) -> Option<Hit> {
        if self.version != version {
            return None;
        }
        let i = *self.slots.get(key)?;
        self.touch(i);
        let entry = &mut self.entries[i];
        let rows = entry.rows.get_or_insert_with(RowsText::default);
        Some((entry.answers.clone(), rows.clone()))
    }

    /// Counts one entry of `key`'s shape in, or out.
    fn count_shape(&mut self, key: &Selection, arriving: bool) {
        let at = self.shapes.iter().position(|(s, _)| s.same_shape(key));
        match (at, arriving) {
            (Some(at), true) => self.shapes[at].1 += 1,
            (None, true) => self.shapes.push((key.clone(), 1)),
            (Some(at), false) if self.shapes[at].1 > 1 => self.shapes[at].1 -= 1,
            (Some(at), false) => {
                self.shapes.swap_remove(at);
            }
            (None, false) => {}
        }
    }

    /// Returns whether an entry was evicted to make room, or `None` when the
    /// answer was discarded: the cache is not (or no longer) at `version`.
    fn insert(
        &mut self,
        key: Selection,
        version: Version,
        answers: IndexedRelation,
        capacity: usize,
    ) -> Option<bool> {
        if self.version != version {
            return None;
        }
        if let Some(&i) = self.slots.get(&key) {
            self.entries[i].answers = answers;
            self.entries[i].rows = None;
            self.touch(i);
            return Some(false);
        }
        self.count_shape(&key, true);
        let mut i = self.entries.len();
        let full = i >= capacity;
        if full {
            // The least recently used entry goes; the new one takes its place.
            i = self.entries[self.newest].newer;
            let evicted = std::mem::replace(&mut self.entries[i].key, key.clone());
            self.entries[i].answers = answers;
            self.entries[i].rows = None;
            self.slots.remove(&evicted);
            self.count_shape(&evicted, false);
        } else {
            // Linked to itself: a ring of one until `touch` splices it in.
            self.entries.push(Entry {
                key: key.clone(),
                answers,
                rows: None,
                newer: i,
                older: i,
            });
        }
        self.touch(i);
        self.slots.insert(key, i);
        Some(full)
    }

    /// Drops every entry and stamps the cache `to`; returns how many went.
    fn clear(&mut self, to: Version) -> u64 {
        let dropped = self.entries.len() as u64;
        *self = Lru {
            version: to,
            ..Lru::default()
        };
        dropped
    }

    /// Applies the patch to every entry it reaches: per patch tuple and key
    /// shape present, the key the tuple reaches is looked up once. Returns
    /// how many entries' answers changed; their rows' text goes with the
    /// change. The rows of an answer set are copied only if a reply still
    /// holds them.
    fn patch(&mut self, patch: &IdbPatch) -> u64 {
        // A patch neither adds nor evicts an entry, so the shapes hold still.
        let mut shapes = std::mem::take(&mut self.shapes);
        let mut changed: HashSet<usize> = HashSet::new();
        let mut row: Vec<Value> = Vec::new();
        for (side, insert) in [(&patch.deleted, false), (&patch.inserted, true)] {
            for t in side.iter() {
                for (key, _) in &mut shapes {
                    // With the tuple's own constants, only a repeated
                    // variable can still reject it.
                    key.rebind(t);
                    if !key.admits(t) {
                        continue;
                    }
                    let Some(&i) = self.slots.get(key) else {
                        continue;
                    };
                    row.clear();
                    row.extend(key.project(t));
                    let entry = &mut self.entries[i];
                    let moved = if insert {
                        entry.answers.insert(&row)
                    } else {
                        entry.answers.remove(&row)
                    };
                    if moved {
                        entry.rows = None;
                        changed.insert(i);
                    }
                }
            }
        }
        self.shapes = shapes;
        changed.len() as u64
    }
}

/// The text of an entry's JSON answer rows, empty until a hit renders them
/// uncut. Shared by the entry and the hits it hands the cell to, for as long
/// as its answers stay the same.
pub(crate) type RowsText = Arc<OnceLock<Box<str>>>;

/// What a hit hands out: the entry's answers and the cell for their text.
pub(crate) type Hit = (IndexedRelation, RowsText);

/// One LRU answer cache of `capacity` entries behind one lock. Its readers
/// are the queries holding an admission permit, and its one writer the
/// update that carries it to the next version.
#[derive(Debug)]
pub(crate) struct SaturationCache {
    lru: Mutex<Lru>,
    capacity: usize,
    obs: Obs,
}

impl SaturationCache {
    /// Builds a cache of `capacity` entries (floored at 1), stamped
    /// [`Version::ZERO`]. Every cache operation is counted into
    /// `recurs_serve_cache_ops_total{op}` on `obs` — the only place
    /// hit / miss / insert / evict / invalidate / patch counts are kept.
    pub(crate) fn new(capacity: usize, obs: Obs) -> SaturationCache {
        SaturationCache {
            lru: Mutex::default(),
            capacity: capacity.max(1),
            obs,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Lru> {
        self.lru.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn record_op(&self, op: &'static str, delta: u64) {
        if delta > 0 {
            self.obs
                .counter("recurs_serve_cache_ops_total", &[("op", op)], delta);
        }
    }

    /// Looks up a completed answer exact at `version`, refreshing its
    /// recency on a hit. A cache stamped with another version misses.
    pub(crate) fn get(&self, key: &Selection, version: Version) -> Option<Hit> {
        let hit = self.lock().get(key, version);
        self.record_op(if hit.is_some() { "hit" } else { "miss" }, 1);
        hit
    }

    /// Admits a completed answer computed against `version`, evicting the
    /// least recently used entry if over capacity. An answer for any
    /// version but the cache's is discarded, and counted as an insert that
    /// was invalidated.
    pub(crate) fn insert(&self, key: Selection, version: Version, answers: IndexedRelation) {
        let evicted = self.lock().insert(key, version, answers, self.capacity);
        self.record_op("insert", 1);
        match evicted {
            Some(evicted) => self.record_op("evict", evicted.into()),
            None => self.record_op("invalidate", 1),
        }
    }

    /// Clears the cache if it is still behind `version` and stamps it
    /// `version`. Called by the service when a snapshot lands without an
    /// exact IDB patch (cold fallback, a freshly built view): nothing cached
    /// can be carried to it.
    pub(crate) fn retain_version(&self, version: Version) {
        self.step(version, None);
    }

    /// Carries the cache from `from` to version `to` by applying the exact
    /// change to the recursive predicate to the entries it reaches — the
    /// incremental-maintenance counterpart of [`retain_version`]:
    /// O(|patch| × shapes), whatever the number of entries. A cache at
    /// neither `from` nor at or past `to` (the caller skipped a version) is
    /// cleared; one at or past `to` is left alone, so the stamp never moves
    /// back. The lock is held until every entry is patched, so no reader
    /// sees a stamp its entries are not exact for.
    ///
    /// [`retain_version`]: SaturationCache::retain_version
    pub(crate) fn advance(&self, from: Version, to: Version, patch: &IdbPatch) {
        self.step(to, Some((from, patch)));
    }

    fn step(&self, to: Version, carried: Option<(Version, &IdbPatch)>) {
        let mut lru = self.lock();
        let (op, n) = match carried {
            Some((from, patch)) if lru.version == from => {
                let patched = lru.patch(patch);
                lru.version = to;
                ("patch", patched)
            }
            _ if lru.version < to => ("invalidate", lru.clear(to)),
            _ => return,
        };
        drop(lru);
        self.record_op(op, n);
    }

    /// Number of live entries.
    pub(crate) fn len(&self) -> usize {
        self.lock().entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recurs_datalog::parser::parse_atom;
    use recurs_datalog::relation::{tuple_u64, Relation};
    use std::sync::Arc;

    fn pat(query: &str) -> Selection {
        Selection::of(&parse_atom(query).unwrap())
    }

    fn v(n: u64) -> Version {
        Version::from(n)
    }

    fn rel(n: u64) -> IndexedRelation {
        IndexedRelation::from_relation(&Relation::from_pairs([(n, n)]))
    }

    fn unary(ns: &[u64]) -> Relation {
        Relation::from_tuples(1, ns.iter().map(|n| tuple_u64([*n])))
    }

    /// Where the relation's rows live: equal for two clones exactly while
    /// they share one arena.
    fn rows_at(answers: &IndexedRelation) -> *const Value {
        answers.iter().next().unwrap().as_ptr()
    }

    /// A cache recording into an aggregator, and the count of one `op` —
    /// what `QueryService::stats` reads from its own.
    fn counted(capacity: usize) -> (SaturationCache, impl Fn(&str) -> u64) {
        let metrics = Arc::new(recurs_obs::aggregate::Aggregator::default());
        let cache = SaturationCache::new(capacity, Obs::new(metrics.clone()));
        let ops =
            move |op: &str| metrics.counter_value("recurs_serve_cache_ops_total", &[("op", op)]);
        (cache, ops)
    }

    #[test]
    fn canonical_key_normalizes_variable_names() {
        assert_eq!(pat("P(1, x)"), pat("P(1, y)"));
        assert_ne!(pat("P(1, x)"), pat("P(2, x)"));
        assert_ne!(pat("P(1, x)"), pat("P(x, 1)"));
    }

    #[test]
    fn canonical_key_distinguishes_repeated_variables() {
        assert_ne!(pat("P(x, y)"), pat("P(x, x)"));
        assert_eq!(pat("P(x, x)"), pat("P(z, z)"));
        assert!(pat("P(x, y)").same_shape(&pat("P(u, v)")));
        assert!(!pat("P(x, y)").same_shape(&pat("P(x, x)")));
        assert!(pat("P(1, x)").same_shape(&pat("P(2, y)")));
        assert!(!pat("P(1, x)").same_shape(&pat("P(x, 1)")));
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let (cache, ops) = counted(8);
        let k = pat("P(1, x)");
        assert!(cache.get(&k, v(0)).is_none());
        cache.insert(k.clone(), v(0), rel(1));
        assert_eq!(cache.get(&k, v(0)).unwrap().0.len(), 1);
        assert_eq!((ops("hit"), ops("miss"), ops("insert")), (1, 1, 1));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let (cache, ops) = counted(2);
        let (k1, k2, k3) = (pat("P(1, x)"), pat("P(2, x)"), pat("P(x, 3)"));
        cache.insert(k1.clone(), v(0), rel(1));
        cache.insert(k2.clone(), v(0), rel(2));
        // Touch k1 so k2 is the LRU entry when k3 arrives.
        assert!(cache.get(&k1, v(0)).is_some());
        cache.insert(k3.clone(), v(0), rel(3));
        assert!(cache.get(&k1, v(0)).is_some());
        assert!(cache.get(&k2, v(0)).is_none());
        assert!(cache.get(&k3, v(0)).is_some());
        assert_eq!(ops("evict"), 1);
        assert_eq!(cache.len(), 2);
        // Recency survives any order of touches, and the per-shape counts
        // follow the evictions: the cache ends with the entries it reports.
        for round in 4..40u64 {
            let fresh = pat(&format!("P({round}, x)"));
            let kept = if round % 3 == 0 { &k1 } else { &k3 };
            let kept_hits = cache.get(kept, v(0)).is_some();
            cache.insert(fresh.clone(), v(0), rel(round));
            assert_eq!(cache.get(kept, v(0)).is_some(), kept_hits, "round {round}");
            assert!(cache.get(&fresh, v(0)).is_some());
            assert_eq!(cache.len(), 2);
        }
        let lru = cache.lock();
        assert_eq!(lru.shapes.iter().map(|(_, n)| n).sum::<usize>(), 2);
        assert_eq!(lru.slots.len(), 2);
    }

    #[test]
    fn version_change_invalidates_precisely() {
        let (cache, ops) = counted(16);
        cache.insert(pat("P(1, x)"), v(0), rel(1));
        cache.insert(pat("P(2, x)"), v(0), rel(2));
        // An answer for a version the cache is not at is never admitted.
        cache.insert(pat("P(1, x)"), v(1), rel(3));
        assert_eq!((cache.len(), ops("insert"), ops("invalidate")), (2, 3, 1));
        cache.retain_version(v(1));
        assert_eq!((cache.len(), ops("invalidate")), (0, 3));
        assert!(cache.get(&pat("P(1, x)"), v(0)).is_none());
        assert!(cache.get(&pat("P(1, x)"), v(1)).is_none());
        cache.insert(pat("P(1, x)"), v(1), rel(3));
        cache.insert(pat("P(2, x)"), v(0), rel(2)); // a reader still at 0: dropped
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&pat("P(1, x)"), v(0)).is_none());
        assert!(cache.get(&pat("P(1, x)"), v(1)).is_some());
        assert!(cache.get(&pat("P(2, x)"), v(1)).is_none());
        // Restamping at the version the cache is already at drops nothing.
        cache.retain_version(v(1));
        assert_eq!((cache.len(), ops("invalidate")), (1, 4));
    }

    #[test]
    fn reinsert_same_key_does_not_grow() {
        let (cache, ops) = counted(4);
        let k = pat("P(1, x)");
        cache.insert(k.clone(), v(0), rel(1));
        cache.insert(k.clone(), v(0), rel(2));
        assert_eq!(cache.len(), 1);
        assert_eq!(ops("evict"), 0);
        assert_eq!(
            cache.get(&k, v(0)).unwrap().0.to_relation(),
            rel(2).to_relation()
        );
    }

    #[test]
    fn pattern_projects_matching_tuples_one_to_one() {
        let project = |query: &str, t: &[u64]| {
            let (p, t) = (pat(query), tuple_u64(t.iter().copied()));
            p.admits(&t).then(|| p.project(&t).collect::<Vec<Value>>())
        };
        assert_eq!(project("P(1, x)", &[1, 5]), Some(tuple_u64([5]).to_vec()));
        assert_eq!(project("P(1, x)", &[2, 5]), None);
        assert_eq!(project("P(x, x)", &[4, 4]), Some(tuple_u64([4]).to_vec()));
        assert_eq!(project("P(x, x)", &[4, 5]), None);
        assert_eq!(
            project("P(x, y)", &[4, 5]),
            Some(tuple_u64([4, 5]).to_vec())
        );
        assert_eq!(project("P(4, 5)", &[4, 5]), Some(Vec::new()));
        // A tuple reaches, per shape, the key with its own constants.
        for (query, shape) in [
            ("P(4, x)", "P(0, x)"),
            ("P(x, 5)", "P(x, 0)"),
            ("P(4, 5)", "P(0, 0)"),
            ("P(x, y)", "P(u, v)"),
            ("P(x, x)", "P(u, u)"),
        ] {
            let mut reached = pat(shape);
            reached.rebind(&tuple_u64([4, 5]));
            assert_eq!(reached, pat(query), "{query}");
        }
    }

    #[test]
    fn advance_patches_warm_entries_to_the_next_version() {
        let (cache, ops) = counted(16);
        // Answers of P(1, x) over {P(1,2), P(1,3)}, of P(x, y), and of two
        // queries the patch does not reach.
        let stored = |rel: &Relation| IndexedRelation::from_relation(rel);
        cache.insert(pat("P(1, x)"), v(0), stored(&unary(&[2, 3])));
        let free = Relation::from_pairs([(1, 2), (1, 3)]);
        cache.insert(pat("P(x, y)"), v(0), stored(&free));
        cache.insert(pat("P(7, x)"), v(0), rel(7));
        cache.insert(pat("P(x, x)"), v(0), IndexedRelation::new(1));
        // The recursion gained P(1,4) and P(9,9), and lost P(1,2).
        let mut patch = IdbPatch::empty(2);
        patch.inserted.insert(&tuple_u64([1, 4]));
        patch.inserted.insert(&tuple_u64([9, 9]));
        patch.deleted.insert(&tuple_u64([1, 2]));
        cache.advance(Version::ZERO, v(1), &patch);
        assert_eq!(cache.len(), 4);
        assert!(cache.get(&pat("P(1, x)"), v(0)).is_none(), "0 is dead");
        let at_1 = |query: &str| cache.get(&pat(query), v(1)).unwrap().0.to_relation();
        assert_eq!(
            at_1("P(1, x)"),
            unary(&[3, 4]),
            "constant-bound entry sees only its matching changes"
        );
        assert_eq!(
            at_1("P(x, y)"),
            Relation::from_pairs([(1, 3), (1, 4), (9, 9)])
        );
        assert_eq!(at_1("P(x, x)"), unary(&[9]));
        assert_eq!(at_1("P(7, x)"), rel(7).to_relation());
        assert_eq!(ops("patch"), 3, "the entries whose answers changed");
        assert_eq!(ops("invalidate"), 0);
    }

    #[test]
    fn an_empty_or_unrelated_patch_leaves_every_arc_pointer_equal() {
        let cache = SaturationCache::new(16, Obs::noop());
        let queries = ["P(1, x)", "P(x, 1)", "P(1, 1)", "P(x, x)"];
        let held: Vec<_> = queries.iter().map(|_| rel(1)).collect();
        for (query, answers) in queries.iter().zip(&held) {
            cache.insert(pat(query), v(0), answers.clone());
        }
        cache.advance(v(0), v(1), &IdbPatch::empty(2));
        let mut unrelated = IdbPatch::empty(2);
        unrelated.inserted.insert(&tuple_u64([2, 3]));
        unrelated.deleted.insert(&tuple_u64([3, 2]));
        cache.advance(v(1), v(2), &unrelated);
        for (query, answers) in queries.iter().zip(&held) {
            let carried = cache.get(&pat(query), v(2)).unwrap().0;
            assert_eq!(rows_at(&carried), rows_at(answers), "{query} was copied");
        }
    }

    #[test]
    fn a_patched_entry_is_copied_only_while_a_reply_holds_it() {
        let cache = SaturationCache::new(4, Obs::noop());
        let answers = IndexedRelation::from_relation(&unary(&[2]));
        cache.insert(pat("P(1, x)"), v(0), answers);
        let reply = cache.get(&pat("P(1, x)"), v(0)).unwrap().0;
        let mut patch = IdbPatch::empty(2);
        patch.inserted.insert(&tuple_u64([1, 4]));
        cache.advance(v(0), v(1), &patch);
        assert_eq!(
            reply.to_relation(),
            unary(&[2]),
            "a reply in flight keeps its answers"
        );
        let patched = cache.get(&pat("P(1, x)"), v(1)).unwrap().0;
        assert_eq!(patched.to_relation(), unary(&[2, 4]));
        assert_ne!(rows_at(&patched), rows_at(&reply));
        let before = rows_at(&patched);
        drop((reply, patched));
        let mut patch = IdbPatch::empty(2);
        patch.deleted.insert(&tuple_u64([1, 4]));
        cache.advance(v(1), v(2), &patch);
        let after = cache.get(&pat("P(1, x)"), v(2)).unwrap().0;
        assert_eq!(rows_at(&after), before, "nobody held it: patched in place");
        assert_eq!(after.to_relation(), unary(&[2]));
    }

    /// The cell `key`'s entry hands a hit at `version`.
    fn cell(cache: &SaturationCache, key: &str, version: Version) -> RowsText {
        cache.get(&pat(key), version).unwrap().1
    }

    /// The text `key`'s entry holds at `version`.
    fn text(cache: &SaturationCache, key: &str, version: Version) -> Option<String> {
        cell(cache, key, version).get().map(|t| t.to_string())
    }

    /// What a hit that rendered `rows` leaves in the cell it was handed.
    fn render(cell: &RowsText, rows: &str) {
        let _ = cell.set(Box::from(rows));
    }

    /// One answer `n` of a query with one free variable.
    fn col(n: u64) -> IndexedRelation {
        IndexedRelation::from_relation(&unary(&[n]))
    }

    #[test]
    fn kept_rows_go_whenever_the_answers_change() {
        let cache = SaturationCache::new(2, Obs::noop());
        let some = |s: &str| Some(s.to_string());
        // The first hit's cell starts empty, and the first text set stays.
        cache.insert(pat("P(1, x)"), v(0), col(1));
        let first = cell(&cache, "P(1, x)", v(0));
        assert_eq!(first.get(), None);
        render(&first, "first");
        render(&cell(&cache, "P(1, x)", v(0)), "second");
        assert_eq!(text(&cache, "P(1, x)", v(0)), some("first"));
        // An insert replacing the answers drops it.
        cache.insert(pat("P(1, x)"), v(0), col(2));
        assert_eq!(text(&cache, "P(1, x)", v(0)), None);
        // So does the eviction of its slot: the arriving entry holds none.
        render(&cell(&cache, "P(1, x)", v(0)), "one");
        cache.insert(pat("P(2, x)"), v(0), col(2));
        render(&cell(&cache, "P(2, x)", v(0)), "two");
        cache.insert(pat("P(3, x)"), v(0), col(3));
        assert!(
            cache.get(&pat("P(1, x)"), v(0)).is_none(),
            "the LRU entry went"
        );
        assert_eq!(text(&cache, "P(3, x)", v(0)), None);
        assert_eq!(text(&cache, "P(2, x)", v(0)), some("two"));
        // An advance whose patch changes an entry's answers drops its text.
        render(&cell(&cache, "P(3, x)", v(0)), "three");
        let mut patch = IdbPatch::empty(2);
        patch.inserted.insert(&tuple_u64([3, 4]));
        cache.advance(v(0), v(1), &patch);
        assert_eq!(text(&cache, "P(3, x)", v(1)), None);
        assert_eq!(text(&cache, "P(2, x)", v(1)), some("two"));
        // A patch tuple that reaches an entry but moves nothing keeps it.
        render(&cell(&cache, "P(3, x)", v(1)), "three");
        let mut again = IdbPatch::empty(2);
        again.inserted.insert(&tuple_u64([3, 3]));
        again.deleted.insert(&tuple_u64([2, 9]));
        cache.advance(v(1), v(2), &again);
        assert_eq!(text(&cache, "P(3, x)", v(2)), some("three"));
        // `retain_version` and a skipped version clear every entry, text and all.
        cache.retain_version(v(3));
        assert_eq!(cache.len(), 0);
        cache.insert(pat("P(2, x)"), v(3), col(2));
        render(&cell(&cache, "P(2, x)", v(3)), "two");
        cache.advance(v(4), v(5), &IdbPatch::empty(2));
        assert_eq!(cache.len(), 0);
        cache.insert(pat("P(2, x)"), v(5), col(2));
        assert_eq!(text(&cache, "P(2, x)", v(5)), None);
    }

    #[test]
    fn an_advance_that_misses_an_entry_keeps_its_text_and_a_late_render_is_never_sent() {
        let cache = SaturationCache::new(4, Obs::noop());
        cache.insert(pat("P(1, x)"), v(0), col(1));
        let held = cell(&cache, "P(1, x)", v(0));
        render(&held, r#"["1"]"#);
        let mut unrelated = IdbPatch::empty(2);
        unrelated.inserted.insert(&tuple_u64([2, 3]));
        cache.advance(v(0), v(1), &unrelated);
        let carried = cell(&cache, "P(1, x)", v(1));
        assert!(Arc::ptr_eq(&carried, &held), "the same text, not a copy");
        // A hit at 1 renders after the cache left 1 for 2: the entry was
        // patched, so its rows no longer describe the answers, and they land
        // in a cell the entry has dropped.
        cache.insert(pat("P(2, x)"), v(1), col(2));
        let (late, late_cell) = cache.get(&pat("P(2, x)"), v(1)).unwrap();
        let mut reaching = IdbPatch::empty(2);
        reaching.inserted.insert(&tuple_u64([2, 5]));
        cache.advance(v(1), v(2), &reaching);
        render(&late_cell, r#"["2"]"#);
        assert_eq!(late.len(), 1);
        assert_eq!(text(&cache, "P(2, x)", v(2)), None);
    }

    #[test]
    fn advances_out_of_order_never_leave_an_entry_at_a_version_it_is_not_exact_for() {
        // Writer B's step (1 → 2) arrives before writer A's (0 → 1).
        let (cache, ops) = counted(16);
        let queries = ["P(1, x)", "P(2, x)", "P(x, 3)", "P(x, y)"];
        for query in queries {
            cache.insert(pat(query), v(0), rel(1));
        }
        let mut b = IdbPatch::empty(2);
        b.inserted.insert(&tuple_u64([1, 5]));
        cache.advance(v(1), v(2), &b);
        let mut a = IdbPatch::empty(2);
        a.inserted.insert(&tuple_u64([1, 4]));
        cache.advance(v(0), v(1), &a);
        // Nothing at 0 could be carried to 2 by B's patch alone: it was
        // dropped, counted, and A's late step moved no stamp back.
        assert_eq!((cache.len(), ops("invalidate"), ops("patch")), (0, 4, 0));
        for version in 0..=2 {
            for query in queries {
                assert!(cache.get(&pat(query), v(version)).is_none());
            }
        }
        // The cache is live at 2 and nowhere else.
        cache.insert(pat("P(1, x)"), v(1), rel(1));
        cache.insert(pat("P(1, x)"), v(2), rel(2));
        assert_eq!(cache.len(), 1);
        let live = cache.get(&pat("P(1, x)"), v(2)).unwrap().0;
        assert_eq!(live.to_relation(), rel(2).to_relation());
    }
}
