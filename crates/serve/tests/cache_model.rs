//! The answer cache's one knob: a cache of capacity N keeps any N distinct
//! queries; and two racing writers carry every warm entry. Replies held to a
//! plain-facts model across patches, evictions and concurrent writers are
//! `crates/net/tests/stack_model.rs`'s.

use recurs_datalog::database::Database;
use recurs_datalog::eval::{answer_query, semi_naive};
use recurs_datalog::parser::{parse_atom, parse_program};
use recurs_datalog::relation::{tuple_u64, Relation};
use recurs_datalog::rule::LinearRecursion;
use recurs_datalog::symbol::Symbol;
use recurs_datalog::term::Atom;
use recurs_datalog::validate::validate_with_generic_exit;
use recurs_serve::{CacheOutcome, FactOp, QueryService, ServeConfig};

fn tc() -> LinearRecursion {
    validate_with_generic_exit(
        &parse_program("P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).").unwrap(),
    )
    .unwrap()
}

/// The one knob means what it says: a cache of capacity N holds any N
/// distinct queries at once, so asked again, every one of them hits. The
/// last capacity is the service's default.
#[test]
fn a_cache_of_capacity_n_keeps_any_n_queries() {
    let chain = Relation::from_pairs((1..=40).map(|i| (i, i + 1)));
    let mut db = Database::new();
    db.insert_relation("A", chain.clone());
    db.insert_relation("E", chain);
    for capacity in [8u64, 16, 64, 1024] {
        let config = ServeConfig {
            cache_capacity: capacity as usize,
            ..ServeConfig::default()
        };
        let service = QueryService::new(tc(), db.clone(), config);
        let queries: Vec<Atom> = (1..=capacity)
            .map(|i| parse_atom(&format!("P({i}, y)")).unwrap())
            .collect();
        for query in &queries {
            service.query(query).unwrap();
        }
        let hits = queries
            .iter()
            .filter(|query| service.query(query).unwrap().stats.cache == CacheOutcome::Hit)
            .count();
        assert_eq!(
            (hits, service.cache_len()),
            (capacity as usize, capacity as usize),
            "(second-pass hits, live entries) at capacity {capacity}"
        );
    }
}

/// Two writers race their updates; each moves the cache while it still
/// holds the write lock its version was installed under, so every warm entry
/// is carried across every patch, none stranded or dropped, and each carried
/// hit equals the oracle's answer at the final version.
#[test]
fn two_writers_leave_the_warm_cache_exact_at_the_final_version() {
    let chain = Relation::from_pairs((1..16).map(|i| (i, i + 1)));
    let mut db = Database::new();
    db.insert_relation("A", chain.clone());
    db.insert_relation("E", chain);
    let service = QueryService::new(tc(), db, ServeConfig::default());
    let extend =
        |n: u64| ["A", "E"].map(|r| FactOp::Insert(Symbol::intern(r), tuple_u64([n, n + 1])));
    // The first update builds the view; every one after it is a patch.
    service.apply_update(&extend(1000)).unwrap();
    let queries = [
        "P(1, y)",
        "P(x, y)",
        "P(1, 5)",
        "P(1000, y)",
        "P(x, 1003)",
        "P(x, 18)",
        "P(x, x)",
    ];
    let queries: Vec<Atom> = queries.iter().map(|q| parse_atom(q).unwrap()).collect();
    queries.iter().for_each(|q| _ = service.query(q).unwrap());
    let warm = service.stats();
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        for tail in [16, 1001] {
            let (service, start, extend) = (&service, &start, &extend);
            s.spawn(move || {
                start.wait();
                (tail..tail + 24).for_each(|n| _ = service.apply_update(&extend(n)).unwrap());
            });
        }
    });
    // Both chains, whole, saturated by the oracle.
    let grown = (1..40).chain(1000..1025).map(|i| (i, i + 1));
    let mut oracle = Database::new();
    oracle.insert_relation("A", Relation::from_pairs(grown.clone()));
    oracle.insert_relation("E", Relation::from_pairs(grown));
    semi_naive(&mut oracle, &tc().to_program(), None).unwrap();
    for q in &queries {
        let reply = service.query(q).unwrap();
        assert_eq!(reply.stats.snapshot_version, 49);
        assert_eq!(reply.stats.cache, CacheOutcome::Hit, "{q} was not carried");
        assert_eq!(
            reply.answers.to_relation(),
            answer_query(&oracle, q).unwrap(),
            "{q} is not exact at the final version"
        );
    }
    let stats = service.stats();
    assert!(stats.cache.patched > 0);
    assert_eq!(stats.cache.invalidations, warm.cache.invalidations);
    assert_eq!(stats.cache.misses, warm.cache.misses);
}
