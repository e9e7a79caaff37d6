//! The engine store as the one place derived tuples live: removal must
//! recycle arena slots (a maintained view sees endless insert / remove
//! rounds), and `select` must answer a query atom the way a pipeline's
//! seed filter would.

use recurs_datalog::parser::parse_atom;
use recurs_datalog::relation::{tuple_u64, Relation};
use recurs_datalog::term::Value;
use recurs_engine::{select, IndexedRelation};

#[test]
fn freed_slots_are_reused_so_the_arena_stays_at_its_high_water_mark() {
    // The serve-update shape: the same 50 tuples leave and come back,
    // 10 000 times over, next to 50 that stay.
    let pair = |i: u64| [Value::from_u64(i), Value::from_u64(i + 1)];
    let mut r = IndexedRelation::new(2);
    r.ensure_index(&[0]);
    for i in 0..100 {
        r.insert(tuple_u64([i, i + 1]));
    }
    let flat = r.approx_bytes();
    for _ in 0..10_000 {
        for i in 0..50 {
            assert!(r.remove(&pair(i)));
        }
        assert!(r.approx_bytes() < flat);
        for i in 0..50 {
            // Ids index the arena: it never grows past live + 50 slots.
            let id = r.insert_id(tuple_u64([i, i + 1])).unwrap();
            assert!((id as usize) < r.len() + 50, "id {id}");
            assert_eq!(r.id_of(&pair(i)), Some(id));
            assert_eq!(&r.tuple(id)[..], &pair(i));
        }
        assert_eq!(r.approx_bytes(), flat);
    }
    assert_eq!(r.len(), 100);
    assert_eq!(r.probe(&[0], &[Value::from_u64(7)]).unwrap().len(), 1);
    assert_eq!(r.insert_id(tuple_u64([7, 8])), None, "already present");
}

#[test]
fn select_filters_and_projects_like_a_seed() {
    let a = IndexedRelation::from_relation(&Relation::from_pairs([(1, 1), (1, 2), (3, 3), (2, 1)]));
    let ask = |q: &str| select(&a, &parse_atom(q).unwrap());
    assert_eq!(ask("A(x, y)"), a.to_relation());
    assert_eq!(
        ask("A(1, y)"),
        Relation::from_tuples(1, [tuple_u64([1]), tuple_u64([2])])
    );
    assert_eq!(ask("A(x, x)").len(), 2);
    assert_eq!(ask("A(2, 1)").len(), 1, "a ground hit is the empty tuple");
    assert_eq!(ask("A(2, 1)").arity(), 0);
    assert!(ask("A(9, y)").is_empty());
}
