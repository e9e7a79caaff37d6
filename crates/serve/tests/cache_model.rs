//! The answer cache against a model that is just plain facts: one random
//! script of signed update groups and queries in every shape is played to a
//! service with a small cache, to a service with none, and to a plain
//! `Database`. Every reply of both services must be `naive` on the model at
//! the version the reply names — whether it was a kernel miss, a view
//! select, a hit on an entry cached at this version, or a hit on an entry
//! carried here across inserts and DRed deletes by patches. The cache is
//! small enough that entries are evicted mid-run, the first update builds
//! the view (the one step that clears the cache instead of patching it), and
//! a script that never hit, never patched or never evicted proves nothing
//! and fails.

use proptest::prelude::*;
use recurs_datalog::database::Database;
use recurs_datalog::eval::{answer_query, naive};
use recurs_datalog::parser::{parse_atom, parse_program};
use recurs_datalog::relation::{tuple_u64, Relation};
use recurs_datalog::rule::LinearRecursion;
use recurs_datalog::symbol::Symbol;
use recurs_datalog::term::Atom;
use recurs_datalog::validate::validate_with_generic_exit;
use recurs_serve::{CacheOutcome, FactOp, QueryService, ServeConfig, UpdateOutcome};
use std::collections::HashMap;

fn tc() -> LinearRecursion {
    validate_with_generic_exit(
        &parse_program("P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).").unwrap(),
    )
    .unwrap()
}

/// One step of a script: `kind` picks an update group or a query shape, then
/// come its two vertices and four bits of signs and relations.
type Step = (u8, u64, u64, u64);

/// A group of one or two signed operations on `A` / `E` over vertices 1–6.
/// Deleting an absent edge, inserting a present one and an insert cancelled
/// by its own delete all occur: those groups must install nothing.
fn group(&(kind, a, b, bits): &Step) -> Vec<FactOp> {
    let op = |bits: u64, from: u64, to: u64| {
        let pred = Symbol::intern(["A", "E"][(bits / 2 % 2) as usize]);
        match bits % 2 {
            0 => FactOp::Insert(pred, tuple_u64([from, to])),
            _ => FactOp::Delete(pred, tuple_u64([from, to])),
        }
    };
    match kind {
        // A chain edge (mid-chain when deleted: everything past it goes).
        0 => vec![op(bits, a, a % 6 + 1)],
        1 => vec![op(bits, a, b)],
        _ => vec![op(bits, a, b), op(bits / 4, b, a % 6 + 1)],
    }
}

/// A query in one of the five shapes, over the same vertices.
fn query(&(kind, a, b, ..): &Step) -> Atom {
    let text = match kind % 5 {
        0 => format!("P({a}, y)"),
        1 => format!("P(x, {b})"),
        2 => format!("P({a}, {b})"),
        3 => "P(x, y)".to_string(),
        _ => "P(x, x)".to_string(),
    };
    parse_atom(&text).unwrap()
}

fn apply_to_model(model: &mut Database, ops: &[FactOp]) {
    for op in ops {
        match op {
            FactOp::Insert(pred, t) => model.insert(*pred, t.clone()).unwrap(),
            FactOp::Delete(pred, t) => model.remove(*pred, t).unwrap(),
        };
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cached_replies_follow_the_model_across_patches_and_evictions(
        script in prop::collection::vec((0u8..12, 1u64..7, 1u64..7, 0u64..16), 160..200),
    ) {
        let lr = tc();
        let mut model = Database::new();
        model.insert_relation("A", Relation::from_pairs((1..6).map(|i| (i, i + 1))));
        model.insert_relation("E", Relation::from_pairs((1..6).map(|i| (i, i + 1))));
        let service = |cache_capacity| {
            let config = ServeConfig { cache_capacity, ..ServeConfig::default() };
            QueryService::new(lr.clone(), model.clone(), config)
        };
        // Sixteen entries for the 50 distinct queries the script draws
        // from: enough to hit, too few not to evict.
        let (cached, uncached) = (service(16), service(0));
        let (mut version, mut dred, mut carried_hits) = (0u64, false, 0u64);
        // The version each query was last answered by a miss at, so cached at.
        let mut cached_at: HashMap<Atom, u64> = HashMap::new();
        for step in &script {
            if step.0 < 3 {
                let ops = group(step);
                let before = model.clone();
                apply_to_model(&mut model, &ops);
                let outcomes = [&cached, &uncached].map(|s| s.apply_update(&ops).unwrap());
                for outcome in outcomes {
                    match outcome {
                        UpdateOutcome::Unchanged { version: at } => {
                            prop_assert_eq!(&model, &before, "{:?} changed the model", ops);
                            prop_assert_eq!(at, version);
                        }
                        UpdateOutcome::Installed { snapshot, deleted, maintenance, .. } => {
                            prop_assert!(model != before, "{:?} is a no-op", ops);
                            prop_assert_eq!(snapshot.version(), version + 1);
                            // The first installed group builds the view; every
                            // later one patches it, deletions through DRed.
                            prop_assert_eq!(maintenance == "saturate", version == 0);
                            dred |= deleted > 0 && version > 0;
                        }
                    }
                }
                version = cached.snapshot().version().get();
                continue;
            }
            let query = query(step);
            let mut fixpoint = model.clone();
            naive(&mut fixpoint, &lr.to_program(), None).unwrap();
            let want = answer_query(&fixpoint, &query).unwrap();
            for (service, caches) in [(&cached, true), (&uncached, false)] {
                let reply = service.query(&query).unwrap();
                prop_assert_eq!(reply.stats.snapshot_version, version);
                prop_assert_eq!(reply.stats.cache == CacheOutcome::Bypass, !caches);
                prop_assert_eq!(
                    &reply.answers.to_relation(), &want,
                    "{} at version {} ({:?}, {:?})",
                    query, version, reply.stats.cache, reply.stats.kernel
                );
                match reply.stats.cache {
                    CacheOutcome::Miss => drop(cached_at.insert(query.clone(), version)),
                    CacheOutcome::Hit => carried_hits += u64::from(cached_at[&query] < version),
                    CacheOutcome::Bypass => {}
                }
            }
        }
        let stats = cached.stats().cache;
        prop_assert!(dred, "no deletion was maintained");
        prop_assert!(stats.hits > 0 && carried_hits > 0, "vacuous: {:?}", stats);
        prop_assert!(stats.patched > 0 && stats.evictions > 0, "vacuous: {:?}", stats);
        prop_assert!(cached.cache_len() <= 16);
        prop_assert_eq!(uncached.stats().cache, Default::default());
    }
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
