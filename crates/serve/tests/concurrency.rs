//! Concurrency suite: N reader threads issuing mixed bound/free queries
//! while a writer installs new snapshot versions. Every reply must be
//! internally consistent — answered entirely against the single snapshot
//! version it reports (no torn reads), never served stale from the cache,
//! and `Complete` or a sound `Truncated` under-approximation.

use recurs_datalog::database::Database;
use recurs_datalog::eval::{answer_query, semi_naive};
use recurs_datalog::govern::EvalBudget;
use recurs_datalog::parser::{parse_atom, parse_program};
use recurs_datalog::relation::{tuple_u64, Relation};
use recurs_datalog::rule::LinearRecursion;
use recurs_datalog::symbol::Symbol;
use recurs_datalog::term::{Atom, Term, Value};
use recurs_serve::{CacheOutcome, FactOp, QueryService, ServeConfig, UpdateOutcome};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

const BASE: u64 = 16; // base chain 1 → … → BASE
const UPDATES: u64 = 5; // writer extends the chain this many times

fn tc() -> LinearRecursion {
    recurs_datalog::validate::validate_with_generic_exit(
        &parse_program("P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).").unwrap(),
    )
    .expect("TC validates")
}

/// The chain database after `v` writer updates (version `v`).
fn db_at_version(v: u64) -> Database {
    let mut db = Database::new();
    let n = BASE + v;
    db.insert_relation("A", Relation::from_pairs((1..n).map(|i| (i, i + 1))));
    db.insert_relation("E", Relation::from_pairs((1..n).map(|i| (i, i + 1))));
    db
}

/// The writer's edit: one more link `n → n + 1` on the chain.
fn extend_chain(n: u64) -> [FactOp; 2] {
    ["A", "E"].map(|rel| FactOp::Insert(Symbol::intern(rel), tuple_u64([n, n + 1])))
}

/// Oracle fixpoints for every version the writer will install.
fn oracles() -> Vec<Database> {
    let lr = tc();
    (0..=UPDATES)
        .map(|v| {
            let mut db = db_at_version(v);
            semi_naive(&mut db, &lr.to_program(), None).expect("oracle saturates");
            db
        })
        .collect()
}

fn reader_queries() -> Vec<Atom> {
    let mut queries = Vec::new();
    for c in 1..=BASE {
        queries.push(Atom::new(
            "P",
            vec![Term::Const(Value::from_u64(c)), Term::var("y")],
        ));
    }
    queries.push(parse_atom("P(x, y)").expect("query parses"));
    queries.push(parse_atom("P(1, 5)").expect("query parses"));
    queries
}

#[test]
fn readers_and_writer_never_tear_or_serve_stale() {
    let service = QueryService::new(tc(), db_at_version(0), ServeConfig::default());
    let oracles = oracles();
    let queries = reader_queries();
    let readers = 6;
    let rounds = 24;
    let checked = AtomicUsize::new(0);

    std::thread::scope(|s| {
        for r in 0..readers {
            let service = &service;
            let oracles = &oracles;
            let queries = &queries;
            let checked = &checked;
            s.spawn(move || {
                for i in 0..rounds {
                    let q = &queries[(r * 7 + i * 3) % queries.len()];
                    let reply = service.query(q).expect("query succeeds");
                    assert!(
                        reply.outcome.is_complete(),
                        "unbudgeted query reported truncation"
                    );
                    // No torn read: the answers must equal the oracle for
                    // exactly the version the reply claims it used.
                    let v = reply.stats.snapshot_version as usize;
                    assert!(v < oracles.len(), "impossible version {v}");
                    let want = answer_query(&oracles[v], q).expect("oracle answers");
                    assert_eq!(
                        reply.answers.to_relation(),
                        want,
                        "reply diverges from version {v} (query {q}, cache {:?})",
                        reply.stats.cache
                    );
                    checked.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        s.spawn(|| {
            for v in 0..UPDATES {
                std::thread::sleep(std::time::Duration::from_millis(3));
                let n = BASE + v;
                match service
                    .apply_update(&extend_chain(n))
                    .expect("update succeeds")
                {
                    UpdateOutcome::Installed { snapshot, .. } => {
                        assert_eq!(snapshot.version(), v + 1)
                    }
                    other => panic!("expected Installed, got {other:?}"),
                }
            }
        });
    });

    assert_eq!(checked.load(Ordering::Relaxed), readers * rounds);
    let stats = service.stats();
    assert_eq!(stats.queries, (readers * rounds) as u64);
    assert_eq!(stats.truncated, 0);
    assert_eq!(stats.snapshot_version, UPDATES);
    assert_eq!(stats.snapshot_updates, UPDATES);
    // The final cache only holds entries for the final version: re-asking
    // any query must produce answers for the live snapshot.
    for q in &queries {
        let reply = service.query(q).expect("post-run query succeeds");
        assert_eq!(reply.stats.snapshot_version, UPDATES);
        let want = answer_query(&oracles[UPDATES as usize], q).expect("oracle answers");
        assert_eq!(
            reply.answers.to_relation(),
            want,
            "stale cache entry for {q}"
        );
    }
}

#[test]
fn budgeted_concurrent_replies_are_sound_underapproximations() {
    let tight = EvalBudget::unlimited().with_max_tuples(40);
    let service = QueryService::new(
        tc(),
        db_at_version(0),
        ServeConfig {
            budget: tight,
            ..ServeConfig::default()
        },
    );
    let oracles = oracles();
    let queries = reader_queries();

    std::thread::scope(|s| {
        for r in 0..4 {
            let service = &service;
            let oracles = &oracles;
            let queries = &queries;
            s.spawn(move || {
                for i in 0..16 {
                    let q = &queries[(r * 5 + i) % queries.len()];
                    let reply = service.query(q).expect("query succeeds");
                    let v = reply.stats.snapshot_version as usize;
                    let want = answer_query(&oracles[v], q).expect("oracle answers");
                    if reply.outcome.is_complete() {
                        assert_eq!(
                            reply.answers.to_relation(),
                            want,
                            "Complete reply missed tuples"
                        );
                    } else {
                        // Soundly truncated: a subset of the true answers.
                        for t in reply.answers.iter() {
                            assert!(
                                want.contains(t),
                                "truncated reply over-approximated for {q}"
                            );
                        }
                    }
                }
            });
        }
        s.spawn(|| {
            for v in 0..UPDATES {
                std::thread::sleep(std::time::Duration::from_millis(2));
                let n = BASE + v;
                service
                    .apply_update(&extend_chain(n))
                    .expect("update succeeds");
            }
        });
    });

    // Truncated answers must never have been cached.
    let stats = service.stats();
    assert_eq!(stats.cache.insertions, stats.complete - stats.cache.hits);
}

#[test]
fn two_writers_leave_the_warm_cache_exact_at_the_final_version() {
    // Two writers grow two disjoint chains, so the final database does not
    // depend on how their updates interleave: 1 → … → BASE + EACH and
    // FAR → … → FAR + 1 + EACH.
    const EACH: u64 = 24;
    const FAR: u64 = 1_000;
    let service = QueryService::new(tc(), db_at_version(0), ServeConfig::default());
    // The first update builds the view; every one after it is a patch.
    service.apply_update(&extend_chain(FAR)).unwrap();
    let mut queries = reader_queries();
    queries.extend(
        ["P(1000, y)", "P(x, 1003)", "P(x, 18)", "P(x, x)"].map(|q| parse_atom(q).unwrap()),
    );
    for q in &queries {
        service.query(q).expect("warm-up query succeeds");
    }
    let warm = service.stats();
    assert_eq!(warm.cache.insertions, queries.len() as u64);

    let start = Barrier::new(2);
    std::thread::scope(|s| {
        for tail in [BASE, FAR + 1] {
            let (service, start) = (&service, &start);
            s.spawn(move || {
                start.wait();
                for i in 0..EACH {
                    service
                        .apply_update(&extend_chain(tail + i))
                        .expect("update succeeds");
                }
            });
        }
    });

    let last = 1 + 2 * EACH;
    let mut oracle = Database::new();
    let edges = || {
        (1..BASE + EACH)
            .chain(FAR..FAR + 1 + EACH)
            .map(|i| (i, i + 1))
    };
    oracle.insert_relation("A", Relation::from_pairs(edges()));
    oracle.insert_relation("E", Relation::from_pairs(edges()));
    semi_naive(&mut oracle, &tc().to_program(), None).expect("oracle saturates");
    // Each writer moved the cache while it still held the write lock its
    // version was installed under, so no step ran ahead of the one before
    // it: every warm entry was carried, none stranded or dropped.
    for q in &queries {
        let reply = service.query(q).expect("post-run query succeeds");
        assert_eq!(reply.stats.snapshot_version, last);
        assert_eq!(reply.stats.cache, CacheOutcome::Hit, "{q} was not carried");
        let want = answer_query(&oracle, q).expect("oracle answers");
        assert_eq!(
            reply.answers.to_relation(),
            want,
            "stale cache entry for {q}"
        );
    }
    let stats = service.stats();
    assert!(stats.cache.patched > 0);
    assert_eq!(stats.cache.invalidations, warm.cache.invalidations);
    assert_eq!(stats.cache.misses, warm.cache.misses);
}
