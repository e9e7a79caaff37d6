//! Differential property tests for the serving layer: for random bound
//! queries over random workloads, the class-aware point-query kernel must
//! return exactly what filtering the full governed saturation returns —
//! with the cache on and off, and across a snapshot update.

use proptest::prelude::*;
use recurs_datalog::database::Database;
use recurs_datalog::eval::{answer_query, semi_naive};
use recurs_datalog::relation::{Relation, Tuple};
use recurs_datalog::term::{Atom, Term, Value};
use recurs_serve::{
    CacheOutcome, FactOp, PointKernelKind, QueryService, ServeConfig, UpdateOutcome,
};
use recurs_workload::{
    all_query_atoms, random_database, random_linear_recursion, random_query, RuleConfig,
};

/// The reference: saturate a copy of the database with the plain oracle,
/// then select/project the query over the fixpoint.
fn filtered_saturation(
    lr: &recurs_datalog::rule::LinearRecursion,
    db: &Database,
    query: &Atom,
) -> Relation {
    let mut db = db.clone();
    semi_naive(&mut db, &lr.to_program(), None).expect("oracle saturates generated workloads");
    answer_query(&db, query).expect("oracle answers the query")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn point_kernel_equals_filtered_saturation(
        rule_seed in 0u64..10_000,
        db_seed in 0u64..10_000,
        query_seed in 0u64..10_000,
        tuples in 1usize..30,
        domain in 2u64..7,
        bound_prob in 0u32..=100,
        cache_on in 0usize..2,
    ) {
        let lr = random_linear_recursion(rule_seed, RuleConfig::default());
        let edb = random_database(&lr, tuples, domain, db_seed);
        let query = random_query(&lr, domain, bound_prob, query_seed);
        let config = ServeConfig {
            cache_capacity: if cache_on == 1 { 256 } else { 0 },
            ..ServeConfig::default()
        };
        let service = QueryService::new(lr.clone(), edb.clone(), config);
        let kernel = service.kernel_for(&query);

        // First ask: computed by the dispatched kernel.
        let first = service.query(&query).expect("service answers the query");
        prop_assert!(first.outcome.is_complete(), "unbudgeted query truncated");
        let want = filtered_saturation(&lr, &edb, &query);
        prop_assert_eq!(
            &first.answers.to_relation(), &want,
            "kernel {:?} ≠ filtered saturation (rule_seed={} db_seed={} query={} rule={})",
            kernel, rule_seed, db_seed, query, lr.recursive_rule
        );

        // Second ask: served from cache when enabled; identical either way.
        let second = service.query(&query).expect("repeat query succeeds");
        prop_assert_eq!(&second.answers.to_relation(), &want);
        if cache_on == 1 {
            prop_assert_eq!(second.stats.cache, CacheOutcome::Hit);
        } else {
            prop_assert_eq!(second.stats.cache, CacheOutcome::Bypass);
        }

        // Install a new snapshot (one extra random tuple in the first EDB
        // relation) and re-check equivalence against the *new* database.
        let (rel_name, arity) = {
            let (name, rel) = edb
                .iter()
                .next()
                .expect("generated workloads have at least one EDB relation");
            (name, rel.arity())
        };
        let extra: Tuple = (0..arity)
            .map(|i| Value::from_u64((db_seed + query_seed + i as u64) % domain + 1))
            .collect();
        // A tuple the relation already holds is a no-op: no new version.
        let installed = service
            .apply_update(&[FactOp::Insert(rel_name, extra.clone())])
            .expect("snapshot update succeeds");
        let version = u64::from(matches!(installed, UpdateOutcome::Installed { .. }));

        prop_assert_eq!(service.snapshot().version(), version);
        // The reference is the test's own model, not the service's storage.
        let mut new_db = edb.clone();
        new_db.insert(rel_name, extra).expect("arity matches");
        let want_after = filtered_saturation(&lr, &new_db, &query);
        let third = service.query(&query).expect("post-update query succeeds");
        prop_assert!(third.outcome.is_complete());
        if cache_on == 1 && version == 1 {
            // A new version must never be served from the old version's cache.
            prop_assert_eq!(third.stats.cache, CacheOutcome::Miss);
        }
        prop_assert_eq!(third.stats.snapshot_version, version);
        prop_assert_eq!(
            &third.answers.to_relation(), &want_after,
            "post-update answers diverge (rule_seed={} db_seed={} query={})",
            rule_seed, db_seed, query
        );
    }
}

/// The query shapes a view select must get right: all 2ⁿ adornments (with
/// constants from the data's domain), every variable the same (`P(x, x)`),
/// a repeated variable next to a constant, and constants no fact mentions.
fn view_queries(lr: &recurs_datalog::rule::LinearRecursion, domain: u64, seed: u64) -> Vec<Atom> {
    let n = lr.dimension();
    let present: Vec<u64> = (0..n as u64).map(|i| (seed + i) % domain + 1).collect();
    let mut queries = all_query_atoms(lr, &present);
    queries.extend(all_query_atoms(lr, &[domain + 7]));
    queries.push(Atom::new(lr.predicate, vec![Term::var("x"); n]));
    let mut mixed = vec![Term::var("x"); n];
    mixed[n - 1] = Term::Const(Value::from_u64(present[0]));
    queries.push(Atom::new(lr.predicate, mixed));
    queries
}

/// Every single-bound adornment: one column bound to each constant of
/// `1..=last`, the others distinct variables.
fn single_bound_queries(lr: &recurs_datalog::rule::LinearRecursion, last: u64) -> Vec<Atom> {
    let n = lr.dimension();
    let query = |col: usize, c: u64| {
        let term = |i: usize| {
            if i == col {
                Term::Const(Value::from_u64(c))
            } else {
                Term::var(&format!("x{i}"))
            }
        };
        Atom::new(lr.predicate, (0..n).map(term).collect())
    };
    (0..n)
        .flat_map(|col| (1..=last).map(move |c| query(col, c)))
        .collect()
}

/// Stored tuples the service's selects and pipelines have read so far: the
/// engine's probe-hit counter, off the metrics page.
fn rows_visited(service: &QueryService) -> usize {
    let metrics = service.metrics_text();
    let line = metrics
        .lines()
        .find(|line| line.starts_with("recurs_engine_probe_hits_total"))
        .unwrap_or("recurs_engine_probe_hits_total 0");
    line.rsplit(' ')
        .next()
        .and_then(|n| n.parse().ok())
        .expect("a count")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The maintained view answers by select/project over its stored
    // relation. With the cache off every reply below comes from it: after
    // the update that builds it, after a patched insert, after a patched
    // delete. Each time, a select binding one column reads its answers and
    // no other row: the view keeps an index on every column throughout.
    #[test]
    fn view_select_equals_filtered_saturation_for_every_adornment(
        rule_seed in 0u64..10_000,
        db_seed in 0u64..10_000,
        tuples in 1usize..20,
        domain in 2u64..6,
    ) {
        let lr = random_linear_recursion(rule_seed, RuleConfig::default());
        let edb = random_database(&lr, tuples, domain, db_seed);
        let config = ServeConfig { cache_capacity: 0, ..ServeConfig::default() };
        let service = QueryService::new(lr.clone(), edb.clone(), config);
        let (rel_name, arity) = {
            let (name, rel) = edb.iter().next().expect("at least one EDB relation");
            (name, rel.arity())
        };
        // Tuples outside the generated domain, so every step is a real
        // change: the first insert builds the view, the second is patched
        // in, the delete is patched out.
        let fresh = |k: u64| -> Tuple {
            (0..arity).map(|i| Value::from_u64(if i == 0 { domain + k } else { 1 })).collect()
        };
        let steps = [
            FactOp::Insert(rel_name, fresh(1)),
            FactOp::Insert(rel_name, fresh(2)),
            FactOp::Delete(rel_name, fresh(1)),
        ];
        let mut db = edb.clone();
        for (i, op) in steps.into_iter().enumerate() {
            match &op {
                FactOp::Insert(rel, t) => db.insert(*rel, t.clone()).expect("arity matches"),
                FactOp::Delete(rel, t) => db.remove(*rel, t).expect("arity matches"),
            };
            let outcome = service.apply_update(&[op]).expect("update applies");
            prop_assert!(matches!(outcome, UpdateOutcome::Installed { .. }));
            for query in view_queries(&lr, domain, db_seed) {
                let reply = service.query(&query).expect("view answers the query");
                prop_assert_eq!(reply.stats.kernel, PointKernelKind::MaterializedView);
                prop_assert_eq!(
                    &reply.answers.to_relation(),
                    &filtered_saturation(&lr, &db, &query),
                    "view ≠ filtered saturation after step {} (query={} rule={})",
                    i, query, lr.recursive_rule
                );
            }
            // The fresh tuples' first column is `domain + 1` or `domain + 2`.
            for query in single_bound_queries(&lr, domain + 2) {
                let before = rows_visited(&service);
                let reply = service.query(&query).expect("view answers the query");
                prop_assert_eq!(
                    rows_visited(&service) - before,
                    reply.answers.len(),
                    "a select read more than its answers after step {} (query={})",
                    i, query
                );
            }
        }
    }
}
