//! The engine store as the one place derived tuples live, held to a
//! `HashSet` model under random interleavings of every write it offers;
//! removal must recycle arena slots (a maintained view sees endless insert /
//! remove rounds); and `select` must answer a query atom the way a
//! pipeline's seed filter would, reading no more of the relation than the
//! query's constants leave it to.

use proptest::prelude::*;
use recurs_datalog::database::Database;
use recurs_datalog::eval::answer_query;
use recurs_datalog::parser::parse_atom;
use recurs_datalog::relation::{tuple_u64, Relation};
use recurs_datalog::term::Value;
use recurs_engine::compile::ProbeCounters;
use recurs_engine::{select, select_counted, IndexedRelation, Selection};
use std::collections::{BTreeSet, HashMap, HashSet};

#[test]
fn freed_slots_are_reused_so_the_arena_stays_at_its_high_water_mark() {
    // The serve-update shape: the same 50 tuples leave and come back,
    // 10 000 times over, next to 50 that stay.
    let pair = |i: u64| [Value::from_u64(i), Value::from_u64(i + 1)];
    let mut r = IndexedRelation::new(2);
    r.ensure_index(&[0]);
    for i in 0..100 {
        r.insert(&pair(i));
    }
    let mut flat = None;
    for _ in 0..10_000 {
        for i in 0..50 {
            assert!(r.remove(&pair(i)));
        }
        for i in 0..50 {
            // Ids index the arena: it never grows past live + 50 slots.
            let id = r.insert_id(&pair(i)).unwrap();
            assert!((id as usize) < r.len() + 50, "id {id}");
            assert_eq!(r.id_of(&pair(i)), Some(id));
            assert_eq!(r.tuple(id), &pair(i));
        }
        // The first round sized the free list; from then on not one buffer
        // of the relation grows.
        assert_eq!(*flat.get_or_insert(r.heap_bytes()), r.heap_bytes());
    }
    assert_eq!(r.len(), 100);
    assert_eq!(r.probe(&[0], &[Value::from_u64(7)]).unwrap().count(), 1);
    assert_eq!(r.insert_id(&pair(7)), None, "already present");
}

/// Every query shape over a binary and a ternary relation — free, bound,
/// ground (whose answer is the empty tuple, `[[]]`, or nothing, `[]`) and
/// with repeated variables — scanned, and again probed through an index the
/// constants cover, against the oracle's `answer_query` on the same facts.
#[test]
fn select_filters_and_projects_like_a_seed() {
    let triples = [[1, 2, 2], [1, 2, 3], [1, 3, 3], [2, 2, 2], [2, 3, 1]];
    let mut db = Database::new();
    db.insert_relation("A", Relation::from_pairs([(1, 1), (1, 2), (3, 3), (2, 1)]));
    db.insert_relation("T", Relation::from_tuples(3, triples.map(tuple_u64)));
    let queries = [
        (
            "A",
            vec!["A(x, y)", "A(1, y)", "A(x, 1)", "A(9, y)", "A(x, x)"],
        ),
        ("A", vec!["A(2, 1)", "A(1, 3)"]),
        (
            "T",
            vec!["T(x, y, z)", "T(1, x, x)", "T(x, x, x)", "T(x, y, x)"],
        ),
        (
            "T",
            vec!["T(1, 2, z)", "T(2, x, x)", "T(1, 2, 3)", "T(1, 2, 1)"],
        ),
    ];
    for (name, queries) in queries {
        let plain = db.get(name).unwrap();
        let mut stored = IndexedRelation::from_relation(plain);
        for covering in [None, Some(&[0usize][..])] {
            if let Some(cols) = covering {
                stored.ensure_index(cols);
            }
            for query in &queries {
                let atom = parse_atom(query).unwrap();
                let want = answer_query(&db, &atom).unwrap();
                let got = select(&stored, &Selection::of(&atom));
                assert_eq!(got.arity(), want.arity(), "{query}");
                assert_eq!(got.to_relation(), want, "{query} (index: {covering:?})");
            }
        }
    }
    // What a ground query's arity-0 answer looks like from outside.
    let a = IndexedRelation::from_relation(db.get("A").unwrap());
    let ask = |q: &str| select(&a, &Selection::of(&parse_atom(q).unwrap()));
    let rows = |r: &IndexedRelation| r.iter().map(<[Value]>::to_vec).collect::<Vec<_>>();
    assert_eq!(rows(&ask("A(2, 1)")), vec![Vec::new()], "yes: [[]]");
    assert_eq!(rows(&ask("A(1, 3)")), Vec::<Vec<Value>>::new(), "no: []");
    assert_eq!((ask("A(x, x)").len(), ask("A(x, x)").arity()), (2, 1));
}

#[test]
fn select_reads_what_the_constants_leave_it_to() {
    // 30 sources with 10 targets each.
    let pairs = (0..300u64).map(|i| (i / 10, 1_000 + i));
    let mut a = IndexedRelation::from_relation(&Relation::from_pairs(pairs));
    let ask = |a: &IndexedRelation, q: &str| {
        let mut counters = ProbeCounters::default();
        let query = Selection::of(&parse_atom(q).unwrap());
        let answers = select_counted(a, &query, &mut counters);
        (answers.len(), counters.probes, counters.hits)
    };
    // No index: a bound query scans. A ground one never does.
    assert_eq!(ask(&a, "A(7, y)"), (10, 0, 300));
    assert_eq!(ask(&a, "A(7, 1071)"), (1, 1, 1));
    assert_eq!(ask(&a, "A(7, 1081)"), (0, 1, 0));
    // An index the constants cover is probed: it visits the answers.
    a.ensure_index(&[0]);
    assert_eq!(ask(&a, "A(7, y)"), (10, 1, 10));
    assert_eq!(ask(&a, "A(99, y)"), (0, 1, 0));
    assert_eq!(ask(&a, "A(x, x)"), (0, 0, 300), "nothing bound: a scan");
    // One the constants do not cover is no help, and none is ever built.
    assert_eq!(ask(&a, "A(x, 1071)"), (1, 0, 300));
    assert_eq!(a.index_count(), 1);
}

/// One relation and what the model says it holds.
#[derive(Clone)]
struct Modelled {
    rel: IndexedRelation,
    /// Live tuples and the id each was stored under.
    ids: HashMap<Vec<Value>, u32>,
    /// Ids of removed tuples not handed out again yet.
    freed: HashSet<u32>,
    /// Arena slots ever handed out.
    slots: u32,
    indexes: BTreeSet<Vec<usize>>,
}

impl Modelled {
    fn new(arity: usize) -> Modelled {
        Modelled {
            rel: IndexedRelation::new(arity),
            ids: HashMap::new(),
            freed: HashSet::new(),
            slots: 0,
            indexes: BTreeSet::new(),
        }
    }

    fn insert(&mut self, t: &[Value]) -> Result<(), TestCaseError> {
        let id = self.rel.insert_id(t);
        prop_assert_eq!(id.is_none(), self.ids.contains_key(t), "insert {:?}", t);
        prop_assert_eq!(self.rel.insert(t), false, "a second insert is a no-op");
        let Some(id) = id else { return Ok(()) };
        // A freed slot if there is one, the next new slot otherwise — never
        // the slot of a live tuple.
        if !self.freed.remove(&id) {
            prop_assert!(self.freed.is_empty(), "id {} skips a freed slot", id);
            prop_assert_eq!(id, self.slots);
            self.slots += 1;
        }
        self.ids.insert(t.to_vec(), id);
        Ok(())
    }

    fn remove(&mut self, t: &[Value]) -> Result<(), TestCaseError> {
        let id = self.ids.remove(t);
        prop_assert_eq!(self.rel.remove(t), id.is_some(), "remove {:?}", t);
        prop_assert!(!self.rel.remove(t), "a second remove is a no-op");
        self.freed.extend(id);
        Ok(())
    }

    fn ensure_index(&mut self, cols: Vec<usize>) {
        self.rel.ensure_index(&cols);
        self.indexes.insert(cols);
    }

    /// Everything observable about the relation equals the model.
    fn check(&self) -> Result<(), TestCaseError> {
        let rel = &self.rel;
        prop_assert_eq!(rel.len(), self.ids.len());
        prop_assert_eq!(rel.is_empty(), self.ids.is_empty());
        let mut iterated: Vec<Vec<Value>> = rel.iter().map(<[Value]>::to_vec).collect();
        let mut held: Vec<Vec<Value>> = self.ids.keys().cloned().collect();
        iterated.sort();
        held.sort();
        prop_assert_eq!(&iterated, &held, "iteration yields each live tuple once");
        for (t, &id) in &self.ids {
            prop_assert_eq!(rel.id_of(t), Some(id), "the id of {:?} moved", t);
            prop_assert_eq!(rel.tuple(id), &t[..]);
        }
        prop_assert_eq!(rel.index_count(), self.indexes.len());
        for cols in &self.indexes {
            let key_of = |t: &[Value]| cols.iter().map(|&c| t[c]).collect::<Vec<Value>>();
            let mut scanned: HashMap<Vec<Value>, BTreeSet<u32>> = HashMap::new();
            for (t, &id) in &self.ids {
                scanned.entry(key_of(t)).or_default().insert(id);
            }
            for (key, ids) in &scanned {
                let probed: Vec<u32> = rel.probe(cols, key).unwrap().collect();
                let distinct: BTreeSet<u32> = probed.iter().copied().collect();
                prop_assert_eq!(probed.len(), distinct.len(), "a probe repeats an id");
                prop_assert_eq!(&distinct, ids, "index {:?} key {:?}", cols, key);
            }
        }
        Ok(())
    }

    /// A key no live tuple has probes empty on every index.
    fn check_absent(&self, t: &[Value]) -> Result<(), TestCaseError> {
        for cols in &self.indexes {
            let key: Vec<Value> = cols.iter().map(|&c| t[c]).collect();
            let expected = self
                .ids
                .keys()
                .filter(|held| cols.iter().all(|&c| held[c] == t[c]))
                .count();
            prop_assert_eq!(self.rel.probe(cols, &key).unwrap().count(), expected);
        }
        prop_assert_eq!(self.rel.contains(t), self.ids.contains_key(t));
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random interleavings of insert / remove / ensure_index on a relation
    /// and on a clone of it taken part-way: each side equals its own model
    /// after every step, so neither ever observes the other's writes. The
    /// small value domain makes re-inserts, removals and freed-slot reuse
    /// common, and the tables pass through every size from 8 slots up.
    #[test]
    fn the_store_agrees_with_a_set_model(
        arity in 1usize..5,
        domain in 2u64..7,
        ops in prop::collection::vec((0u8..10, 0u8..2, 0u64..2401, 1u8..16), 1..160),
    ) {
        let mut sides = vec![Modelled::new(arity)];
        for (kind, side, code, mask) in ops {
            // The tuple `code` spells in base `domain`.
            let t: Vec<Value> = (0..arity as u32)
                .map(|i| Value::from_u64(code / domain.pow(i) % domain))
                .collect();
            let side = (side as usize).min(sides.len() - 1);
            match kind {
                0..=4 => sides[side].insert(&t)?,
                5..=7 => sides[side].remove(&t)?,
                8 => {
                    let cols = (0..arity).filter(|c| mask & (1 << c) != 0).collect::<Vec<_>>();
                    if !cols.is_empty() {
                        sides[side].ensure_index(cols);
                    }
                }
                // Clone (again): the copy starts as the original's equal.
                _ => {
                    let copy = sides[0].clone();
                    sides.truncate(1);
                    sides.push(copy);
                }
            }
            for modelled in &sides {
                modelled.check()?;
                modelled.check_absent(&t)?;
            }
        }
    }
}
