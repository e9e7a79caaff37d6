//! Sharded LRU cache of completed query answers.
//!
//! Entries are keyed by `(program fingerprint, snapshot version, canonical
//! adorned query)` — see [`canonical_query_key`] — so a cache hit is only
//! possible for the *same* program, the *same* database version, and a query
//! that is literally the same selection pattern up to variable renaming.
//! A version bump no longer has to cost the whole cache: when incremental
//! maintenance produces the exact change to the recursive predicate,
//! [`SaturationCache::advance`] *patches* each warm entry's answers through
//! its stored [`QueryPattern`] and rekeys it to the new version. Only when
//! no patch is available (cold fallback, generic edits) does
//! [`SaturationCache::retain_version`] fall back to dropping dead versions.
//!
//! Only [`Outcome::Complete`](recurs_datalog::govern::Outcome) answers are
//! admitted by the service: a truncated answer is a budget-dependent
//! under-approximation and must not be replayed to a caller with a more
//! generous budget.

use crate::version::Version;
use recurs_datalog::fingerprint::{self, Fingerprint};
use recurs_datalog::relation::{Relation, Tuple};
use recurs_datalog::term::{Atom, Term, Value};
use recurs_ivm::IdbPatch;
use recurs_obs::Obs;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, PoisonError};

/// Cache key: program identity, snapshot version, canonical query.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Fingerprint of the served program.
    pub program: Fingerprint,
    /// Snapshot version the answer was computed against.
    pub version: Version,
    /// Canonical rendering of the query atom (see [`canonical_query_key`]).
    pub query: String,
}

/// One column of a point query's selection pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
enum PatternCol {
    /// Must equal this constant.
    Const(Value),
    /// Projects into the answer row at this distinct-variable index
    /// (first-occurrence order; a repeated variable repeats the index).
    Var(usize),
}

/// The select/project a point query applies to the recursive predicate —
/// enough to translate a change of a base tuple into a change of the cached
/// answer relation. Answers are the query's distinct variables in
/// first-occurrence order, so a matching base tuple maps to *exactly one*
/// answer row and, conversely, each answer row pins every column (constants
/// from the pattern, the rest from the row): the mapping is one-to-one and
/// deletions are as precise as insertions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPattern {
    cols: Vec<PatternCol>,
    vars: usize,
}

impl QueryPattern {
    /// Extracts the pattern from a query atom.
    pub fn of(query: &Atom) -> QueryPattern {
        let mut seen: Vec<recurs_datalog::symbol::Symbol> = Vec::new();
        let cols = query
            .terms
            .iter()
            .map(|t| match t {
                Term::Const(c) => PatternCol::Const(*c),
                Term::Var(v) => match seen.iter().position(|s| s == v) {
                    Some(i) => PatternCol::Var(i),
                    None => {
                        seen.push(*v);
                        PatternCol::Var(seen.len() - 1)
                    }
                },
            })
            .collect();
        QueryPattern {
            cols,
            vars: seen.len(),
        }
    }

    /// Projects a base tuple to its answer row, or `None` when the tuple
    /// does not match the pattern's constants / repeated variables.
    pub fn project(&self, t: &[Value]) -> Option<Tuple> {
        if t.len() != self.cols.len() {
            return None;
        }
        let mut row: Vec<Option<Value>> = vec![None; self.vars];
        for (col, v) in self.cols.iter().zip(t) {
            match col {
                PatternCol::Const(c) => {
                    if c != v {
                        return None;
                    }
                }
                PatternCol::Var(i) => match row[*i] {
                    None => row[*i] = Some(*v),
                    Some(prev) => {
                        if prev != *v {
                            return None;
                        }
                    }
                },
            }
        }
        row.into_iter().collect()
    }
}

/// Renders a query atom canonically: constants verbatim, variables numbered
/// by first occurrence. `P(c, X)` and `P(c, Y)` share a key; `P(x, x)` and
/// `P(x, y)` do not.
pub fn canonical_query_key(query: &Atom) -> String {
    let mut out = String::new();
    let _ = write!(out, "{}(", query.predicate);
    let mut seen: Vec<_> = Vec::new();
    for (i, t) in query.terms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match t {
            Term::Const(c) => {
                let _ = write!(out, "'{c}'");
            }
            Term::Var(v) => {
                let n = match seen.iter().position(|s| s == v) {
                    Some(n) => n,
                    None => {
                        seen.push(*v);
                        seen.len() - 1
                    }
                };
                let _ = write!(out, "${n}");
            }
        }
    }
    out.push(')');
    out
}

/// The cache's monotone operation counts, as `QueryService::stats` reads
/// them back from `recurs_serve_cache_ops_total{op}` summed over shards —
/// the counter [`SaturationCache`] records every operation into.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Completed answers admitted.
    pub insertions: u64,
    /// Entries discarded to stay within capacity (LRU order).
    pub evictions: u64,
    /// Entries discarded because their snapshot version died.
    pub invalidations: u64,
    /// Entries carried across a version bump by patching their answers.
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

#[derive(Debug)]
struct Entry {
    tick: u64,
    answers: Arc<Relation>,
    pattern: QueryPattern,
}

#[derive(Debug, Default)]
struct Shard {
    map: HashMap<CacheKey, Entry>,
    /// Recency tick → key, the LRU order index.
    order: BTreeMap<u64, CacheKey>,
    tick: u64,
}

impl Shard {
    fn touch(&mut self, key: &CacheKey) -> Option<Arc<Relation>> {
        let entry = self.map.get(key)?;
        let (old_tick, value) = (entry.tick, entry.answers.clone());
        self.order.remove(&old_tick);
        self.tick += 1;
        let tick = self.tick;
        self.order.insert(tick, key.clone());
        if let Some(entry) = self.map.get_mut(key) {
            entry.tick = tick;
        }
        Some(value)
    }

    fn insert(
        &mut self,
        key: CacheKey,
        answers: Arc<Relation>,
        pattern: QueryPattern,
        capacity: usize,
    ) -> u64 {
        if let Some(old) = self.map.remove(&key) {
            self.order.remove(&old.tick);
        }
        self.tick += 1;
        self.order.insert(self.tick, key.clone());
        self.map.insert(
            key,
            Entry {
                tick: self.tick,
                answers,
                pattern,
            },
        );
        let mut evicted = 0;
        while self.map.len() > capacity {
            // BTreeMap iterates ticks in ascending order: pop the oldest.
            let Some((&oldest, _)) = self.order.iter().next() else {
                break;
            };
            if let Some(key) = self.order.remove(&oldest) {
                self.map.remove(&key);
                evicted += 1;
            }
        }
        evicted
    }

    fn retain_version(&mut self, version: Version) -> u64 {
        let before = self.map.len();
        self.map.retain(|k, _| k.version == version);
        self.order.retain(|_, k| k.version == version);
        (before - self.map.len()) as u64
    }

    /// Rekeys every `from`-version entry to `to`, patching its answers
    /// through its stored pattern. Returns the number of entries carried.
    /// Entries at other versions are untouched (they can no longer hit and
    /// age out by recency). Because the shard index ignores the version,
    /// rekeying never moves an entry across shards.
    fn advance(&mut self, from: Version, to: Version, patch: &IdbPatch) -> u64 {
        let keys: Vec<CacheKey> = self
            .map
            .keys()
            .filter(|k| k.version == from)
            .cloned()
            .collect();
        for key in &keys {
            let Some(mut entry) = self.map.remove(key) else {
                continue;
            };
            if !patch.is_empty() {
                let mut answers = (*entry.answers).clone();
                for t in patch.deleted.iter() {
                    if let Some(row) = entry.pattern.project(t) {
                        answers.remove(&row);
                    }
                }
                for t in patch.inserted.iter() {
                    if let Some(row) = entry.pattern.project(t) {
                        answers.insert(row);
                    }
                }
                entry.answers = Arc::new(answers);
            }
            let mut key = key.clone();
            key.version = to;
            self.order.insert(entry.tick, key.clone());
            self.map.insert(key, entry);
        }
        keys.len() as u64
    }
}

/// A sharded LRU answer cache. Shards are independent mutexes keyed by the
/// query hash, so concurrent lookups for different queries rarely contend.
#[derive(Debug)]
pub struct SaturationCache {
    shards: Box<[Mutex<Shard>]>,
    capacity_per_shard: usize,
    obs: Obs,
    /// Each shard's index rendered once, as the `shard` metric label.
    shard_labels: Box<[String]>,
}

impl SaturationCache {
    /// Builds a cache with `capacity` total entries spread over `shards`
    /// mutex-protected shards (both floored at 1; per-shard capacity is
    /// rounded up so total capacity is at least `capacity`). Every cache
    /// operation is counted into `recurs_serve_cache_ops_total{op, shard}`
    /// on `obs` — the only place hit / miss / insert / evict / invalidate /
    /// patch counts are kept.
    pub fn new(capacity: usize, shards: usize, obs: Obs) -> SaturationCache {
        let shards = shards.max(1);
        SaturationCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            capacity_per_shard: capacity.max(1).div_ceil(shards),
            obs,
            shard_labels: (0..shards).map(|i| i.to_string()).collect(),
        }
    }

    /// Deliberately version-independent: an entry carried across a version
    /// bump by [`SaturationCache::advance`] must stay in its shard, so
    /// rekeying can happen under one shard lock.
    fn shard_index(&self, key: &CacheKey) -> usize {
        let h = fingerprint::of_str(&key.query).0 ^ key.program.0;
        (h % self.shards.len() as u64) as usize
    }

    fn record_op(&self, op: &'static str, shard: usize, delta: u64) {
        if delta > 0 {
            self.obs.counter(
                "recurs_serve_cache_ops_total",
                &[("op", op), ("shard", &self.shard_labels[shard])],
                delta,
            );
        }
    }

    /// Looks up a completed answer, refreshing its recency on a hit.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<Relation>> {
        let idx = self.shard_index(key);
        let hit = {
            let mut shard = self.shards[idx]
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            shard.touch(key)
        };
        self.record_op(if hit.is_some() { "hit" } else { "miss" }, idx, 1);
        hit
    }

    /// Admits a completed answer (with the query's selection pattern, for
    /// later patching), evicting least-recently-used entries of the same
    /// shard if over capacity.
    pub fn insert(&self, key: CacheKey, value: Arc<Relation>, pattern: QueryPattern) {
        let idx = self.shard_index(&key);
        let evicted = {
            let mut shard = self.shards[idx]
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            shard.insert(key, value, pattern, self.capacity_per_shard)
        };
        self.record_op("insert", idx, 1);
        self.record_op("evict", idx, evicted);
    }

    /// Drops every entry whose snapshot version is not `version`. Called by
    /// the service when a snapshot lands without an exact IDB patch (cold
    /// fallback or a generic edit): old-version keys can never be looked up
    /// again.
    pub fn retain_version(&self, version: Version) {
        for (idx, shard) in self.shards.iter().enumerate() {
            let dropped = shard
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .retain_version(version);
            self.record_op("invalidate", idx, dropped);
        }
    }

    /// Carries every `from`-version entry to version `to` by patching its
    /// answers with the exact change to the recursive predicate — the
    /// incremental-maintenance counterpart of [`retain_version`]
    /// (`retain_version`: a version bump costs the warm cache;
    /// `advance`: it costs one select/project per changed tuple per entry).
    ///
    /// [`retain_version`]: SaturationCache::retain_version
    pub fn advance(&self, from: Version, to: Version, patch: &IdbPatch) {
        for (idx, shard) in self.shards.iter().enumerate() {
            let carried = shard
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .advance(from, to, patch);
            self.record_op("patch", idx, carried);
        }
    }

    /// Number of live entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).map.len())
            .sum()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recurs_datalog::parser::parse_atom;

    fn key(version: u64, query: &str) -> CacheKey {
        CacheKey {
            program: Fingerprint(7),
            version: Version::from(version),
            query: canonical_query_key(&parse_atom(query).unwrap()),
        }
    }

    fn pat(query: &str) -> QueryPattern {
        QueryPattern::of(&parse_atom(query).unwrap())
    }

    fn rel(n: u64) -> Arc<Relation> {
        Arc::new(Relation::from_pairs([(n, n)]))
    }

    /// A cache recording into a capture, and the count of one `op` summed
    /// over shards — what `QueryService::stats` reads from its aggregator.
    fn counted(capacity: usize, shards: usize) -> (SaturationCache, impl Fn(&str) -> u64) {
        let capture = Arc::new(recurs_obs::CaptureRecorder::new());
        let cache = SaturationCache::new(capacity, shards, Obs::new(capture.clone()));
        let ops =
            move |op: &str| capture.counter_where("recurs_serve_cache_ops_total", &[("op", op)]);
        (cache, ops)
    }

    #[test]
    fn canonical_key_normalizes_variable_names() {
        let a = parse_atom("P(1, x)").unwrap();
        let b = parse_atom("P(1, y)").unwrap();
        assert_eq!(canonical_query_key(&a), canonical_query_key(&b));
        assert_eq!(canonical_query_key(&a), "P('1',$0)");
    }

    #[test]
    fn canonical_key_distinguishes_repeated_variables() {
        let xy = parse_atom("P(x, y)").unwrap();
        let xx = parse_atom("P(x, x)").unwrap();
        assert_ne!(canonical_query_key(&xy), canonical_query_key(&xx));
        assert_eq!(canonical_query_key(&xx), "P($0,$0)");
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let (cache, ops) = counted(8, 2);
        let k = key(0, "P(1, x)");
        assert!(cache.get(&k).is_none());
        cache.insert(k.clone(), rel(1), pat("P(1, x)"));
        assert_eq!(cache.get(&k).unwrap().len(), 1);
        assert_eq!((ops("hit"), ops("miss"), ops("insert")), (1, 1, 1));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let (cache, ops) = counted(2, 1);
        let (k1, k2, k3) = (key(0, "P(1, x)"), key(0, "P(2, x)"), key(0, "P(3, x)"));
        cache.insert(k1.clone(), rel(1), pat("P(1, x)"));
        cache.insert(k2.clone(), rel(2), pat("P(2, x)"));
        // Touch k1 so k2 is the LRU entry when k3 arrives.
        assert!(cache.get(&k1).is_some());
        cache.insert(k3.clone(), rel(3), pat("P(3, x)"));
        assert!(cache.get(&k1).is_some());
        assert!(cache.get(&k2).is_none());
        assert!(cache.get(&k3).is_some());
        assert_eq!(ops("evict"), 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn version_change_invalidates_precisely() {
        let (cache, ops) = counted(16, 4);
        cache.insert(key(0, "P(1, x)"), rel(1), pat("P(1, x)"));
        cache.insert(key(0, "P(2, x)"), rel(2), pat("P(2, x)"));
        cache.insert(key(1, "P(1, x)"), rel(3), pat("P(1, x)"));
        cache.retain_version(Version::from(1));
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&key(0, "P(1, x)")).is_none());
        assert!(cache.get(&key(1, "P(1, x)")).is_some());
        assert_eq!(ops("invalidate"), 2);
    }

    #[test]
    fn reinsert_same_key_does_not_grow() {
        let (cache, ops) = counted(4, 1);
        let k = key(0, "P(1, x)");
        cache.insert(k.clone(), rel(1), pat("P(1, x)"));
        cache.insert(k.clone(), rel(2), pat("P(1, x)"));
        assert_eq!(cache.len(), 1);
        assert_eq!(ops("evict"), 0);
    }

    #[test]
    fn pattern_projects_matching_tuples_one_to_one() {
        use recurs_datalog::relation::tuple_u64;
        let p = pat("P(1, x)");
        assert_eq!(p.project(&tuple_u64([1, 5])), Some(tuple_u64([5])));
        assert_eq!(p.project(&tuple_u64([2, 5])), None);
        let p = pat("P(x, x)");
        assert_eq!(p.project(&tuple_u64([4, 4])), Some(tuple_u64([4])));
        assert_eq!(p.project(&tuple_u64([4, 5])), None);
        let p = pat("P(x, y)");
        assert_eq!(p.project(&tuple_u64([4, 5])), Some(tuple_u64([4, 5])));
        assert_eq!(p.project(&tuple_u64([4])), None, "arity mismatch");
    }

    #[test]
    fn advance_patches_warm_entries_to_the_next_version() {
        use recurs_datalog::relation::tuple_u64;
        let (cache, ops) = counted(16, 4);
        // Answers of P(1, x) over {P(1,2), P(1,3)}, and of P(x, y).
        cache.insert(
            key(0, "P(1, x)"),
            Arc::new(Relation::from_tuples(1, [tuple_u64([2]), tuple_u64([3])])),
            pat("P(1, x)"),
        );
        cache.insert(
            key(0, "P(x, y)"),
            Arc::new(Relation::from_pairs([(1, 2), (1, 3)])),
            pat("P(x, y)"),
        );
        // The recursion gained P(1,4) and P(9,9), and lost P(1,2).
        let mut patch = IdbPatch::empty(2);
        patch.inserted.insert(tuple_u64([1, 4]));
        patch.inserted.insert(tuple_u64([9, 9]));
        patch.deleted.insert(tuple_u64([1, 2]));
        cache.advance(Version::ZERO, Version::from(1), &patch);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(0, "P(1, x)")).is_none(), "old keys are dead");
        let bound = cache.get(&key(1, "P(1, x)")).unwrap();
        assert_eq!(
            *bound,
            Relation::from_tuples(1, [tuple_u64([3]), tuple_u64([4])]),
            "constant-bound entry sees only its matching changes"
        );
        let free = cache.get(&key(1, "P(x, y)")).unwrap();
        assert_eq!(*free, Relation::from_pairs([(1, 3), (1, 4), (9, 9)]));
        assert_eq!(ops("patch"), 2);
        assert_eq!(ops("invalidate"), 0);
    }

    #[test]
    fn advance_with_empty_patch_rekeys_without_copying() {
        let cache = SaturationCache::new(16, 4, Obs::noop());
        let answers = rel(1);
        cache.insert(key(0, "P(1, x)"), answers.clone(), pat("P(1, x)"));
        cache.advance(Version::ZERO, Version::from(1), &IdbPatch::empty(2));
        let carried = cache.get(&key(1, "P(1, x)")).unwrap();
        assert!(Arc::ptr_eq(&carried, &answers), "no clone on empty patch");
    }
}
