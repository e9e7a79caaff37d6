//! The answer cache's one knob: a cache of capacity N keeps any N distinct
//! queries. Replies held to a plain-facts model across patches, evictions
//! and concurrent writers are `crates/net/tests/stack_model.rs`'s.

use recurs_datalog::database::Database;
use recurs_datalog::parser::{parse_atom, parse_program};
use recurs_datalog::relation::Relation;
use recurs_datalog::rule::LinearRecursion;
use recurs_datalog::term::Atom;
use recurs_datalog::validate::validate_with_generic_exit;
use recurs_serve::{CacheOutcome, QueryService, ServeConfig};

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
