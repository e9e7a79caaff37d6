//! Serving throughput: what a query costs through each `recurs-serve` path,
//! against the cold baseline a classification-unaware server would pay.
//!
//! Per workload (transitive closure over a chain; same generation over a
//! complete binary tree) and size, one bound query is answered three ways:
//!
//! * **cold** — saturate the whole database, then filter: the full-saturation
//!   fallback every query would pay without class-aware dispatch;
//! * **point** — the service with the cache disabled: each ask runs the
//!   dispatched point kernel (magic iteration for these A1 formulas, seeded
//!   with the query constant);
//! * **cached** — the service with the cache warm: each ask is a shared-`Arc`
//!   cache hit.
//!
//! Every path is asserted equal to the filtered oracle fixpoint before it is
//! timed. A local tool: EXPERIMENTS.md §3 records the shapes, and the
//! perfbench `serve-hot` / `serve-cold` workloads measure these paths end to
//! end.
//!
//! `cold_miss_split` takes one served miss apart on the `serve-cold` graph
//! (TC over 40 chains of 50 vertices, all 4 000 bound queries, cache off):
//! `QueryService::query` per miss, then the executor's phases — lower, store
//! clone + declares + seed, compile, saturate, select — timed one by one
//! under the no-op recorder, each of the service's two recorders, and both.
//! EXPERIMENTS.md §20 records it. Its last lane is a round's cost: `P(1, n)`
//! served cold on one TC chain `1 → … → n` of 25 / 100 / 400 / 1 600
//! vertices, a frontier walk that moves one tuple a round to the end of the
//! chain, where the one answer is, as µs a miss divided by its rounds, and as
//! the slope between the shortest and longest chain (the per-miss costs
//! cancel). EXPERIMENTS.md §25 and §29 record it.
//!
//! `served_hit` gives a warm hit's protocol its own lane: the same cached
//! answer set of 24, 37, 40 or 400 rows (`P(c, y)` on one TC chain) asked
//! through `protocol::handle_line_with` and through `QueryService::query`,
//! so `line − query` is the request's parse plus its reply's render (the
//! rows' text its cache entry keeps, since the hit before it rendered them);
//! and one aggregator call with the served query counter's three labels.
//! EXPERIMENTS.md §28 and §36 record it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use recurs_core::plan::{plan_query, QueryPlan};
use recurs_datalog::adornment::QueryForm;
use recurs_datalog::eval::{answer_query, semi_naive};
use recurs_datalog::govern::EvalBudget;
use recurs_datalog::parser::{parse_atom, parse_program};
use recurs_datalog::relation::Relation;
use recurs_datalog::rule::LinearRecursion;
use recurs_datalog::term::Atom;
use recurs_datalog::validate::validate_with_generic_exit;
use recurs_datalog::Database;
use recurs_engine::{
    evaluate, run_linear, saturate, select, CompiledProgram, EngineConfig, EngineDb, Selection,
};
use recurs_obs::aggregate::Aggregator;
use recurs_obs::{FlightRecorder, Obs, Recorder};
use recurs_serve::protocol::{handle_line_with, LineOptions, LineOutcome};
use recurs_serve::{CacheOutcome, QueryService, ServeConfig};
use recurs_workload::graphs::chain;
use std::collections::hash_map::{Entry, HashMap};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tc_formula() -> LinearRecursion {
    validate_with_generic_exit(
        &parse_program(
            "P(x, y) :- A(x, z), P(z, y).\n\
             P(x, y) :- E(x, y).",
        )
        .unwrap(),
    )
    .unwrap()
}

fn sg_formula() -> LinearRecursion {
    validate_with_generic_exit(
        &parse_program(
            "SG(x, y) :- Up(x, u), SG(u, v), Down(v, y).\n\
             SG(x, y) :- Flat(x, y).",
        )
        .unwrap(),
    )
    .unwrap()
}

fn tc_db(n: u64) -> Database {
    let mut db = Database::new();
    db.insert_relation("A", chain(n));
    db.insert_relation("E", chain(n));
    db
}

fn sg_db(n: u64) -> Database {
    let down: Vec<(u64, u64)> = (2..=n).map(|child| ((child - 2) / 2 + 1, child)).collect();
    let mut db = Database::new();
    db.insert_relation(
        "Up",
        Relation::from_pairs(down.iter().map(|&(p, c)| (c, p))),
    );
    db.insert_relation("Down", Relation::from_pairs(down));
    db.insert_relation("Flat", Relation::from_pairs([(1u64, 1u64)]));
    db
}

/// The cold baseline: saturate a clone of the whole database with the
/// indexed engine, then select/project the query — what every ask costs
/// without class-aware point dispatch.
fn cold_full_saturation(db: &Database, f: &LinearRecursion, query: &Atom) -> Relation {
    let mut db = db.clone();
    let config = EngineConfig {
        budget: EvalBudget::unlimited(),
        ..EngineConfig::default()
    };
    let sat = run_linear(&mut db, f, &config).unwrap();
    assert!(sat.outcome.is_complete());
    answer_query(&db, query).unwrap()
}

fn service(f: &LinearRecursion, db: &Database, cache: bool) -> QueryService {
    QueryService::new(
        f.clone(),
        db.clone(),
        ServeConfig {
            cache_capacity: if cache { 1024 } else { 0 },
            ..ServeConfig::default()
        },
    )
}

fn serve_sweep(
    c: &mut Criterion,
    group_name: &str,
    f: &LinearRecursion,
    cases: &[(u64, Database, Atom)],
) {
    let mut group = c.benchmark_group(group_name);
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for (n, db, query) in cases {
        // Certify every path against the filtered oracle fixpoint.
        let mut oracle = db.clone();
        semi_naive(&mut oracle, &f.to_program(), None).unwrap();
        let expected = answer_query(&oracle, query).unwrap();
        assert_eq!(cold_full_saturation(db, f, query), expected);

        let point = service(f, db, false);
        assert_ne!(
            point.kernel_for(query).unwrap().family(),
            "saturate",
            "{group_name}/{n}: a bound query must push its binding (frontier walk or magic)"
        );
        let reply = point.query(query).unwrap();
        assert!(reply.outcome.is_complete());
        assert_eq!(reply.answers.to_relation(), expected);

        let cached = service(f, db, true);
        cached.query(query).unwrap(); // warm
        let hit = cached.query(query).unwrap();
        assert_eq!(hit.stats.cache, CacheOutcome::Hit);
        assert_eq!(hit.answers.to_relation(), expected);

        group.bench_with_input(BenchmarkId::new("cold", n), db, |b, db| {
            b.iter(|| black_box(cold_full_saturation(db, f, query)));
        });
        group.bench_with_input(BenchmarkId::new("point", n), &point, |b, s| {
            b.iter(|| black_box(s.query(query).unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("cached", n), &cached, |b, s| {
            b.iter(|| black_box(s.query(query).unwrap()));
        });
    }
    group.finish();
}

fn tc_serving(c: &mut Criterion) {
    let f = tc_formula();
    let cases: Vec<(u64, Database, Atom)> = [200u64, 400, 800]
        .iter()
        .map(|&n| {
            // Midpoint source: the magic kernel only walks half the chain.
            let q = parse_atom(&format!("P({}, y)", n / 2)).unwrap();
            (n, tc_db(n), q)
        })
        .collect();
    serve_sweep(c, "serve_throughput_tc", &f, &cases);
}

fn sg_serving(c: &mut Criterion) {
    let f = sg_formula();
    let cases: Vec<(u64, Database, Atom)> = [255u64, 511, 1023]
        .iter()
        .map(|&n| (n, sg_db(n), parse_atom("SG(2, y)").unwrap()))
        .collect();
    serve_sweep(c, "serve_throughput_sg", &f, &cases);
}

/// Chains and vertices per chain of the `serve-cold` graph.
const COLD_CHAINS: u64 = 40;
const COLD_LENGTH: u64 = 50;

/// The `serve-cold` graph — `A = E` = 40 disjoint chains of 50 vertices —
/// and its 4 000 bound queries (`P(v, y)` and `P(x, v)` for every vertex),
/// each with its closed-form answer count.
fn cold_forest() -> (Database, Vec<(Atom, usize)>) {
    let vertex = |c: u64, p: u64| c * COLD_LENGTH + p + 1;
    let edges: Vec<(u64, u64)> = (0..COLD_CHAINS)
        .flat_map(|c| (0..COLD_LENGTH - 1).map(move |p| (vertex(c, p), vertex(c, p + 1))))
        .collect();
    let mut db = Database::new();
    db.insert_relation("A", Relation::from_pairs(edges.iter().copied()));
    db.insert_relation("E", Relation::from_pairs(edges));
    let mut queries = Vec::new();
    for c in 0..COLD_CHAINS {
        for p in 0..COLD_LENGTH {
            let v = vertex(c, p);
            let forward = (COLD_LENGTH - 1 - p) as usize;
            queries.push((parse_atom(&format!("P({v}, y)")).unwrap(), forward));
            queries.push((parse_atom(&format!("P(x, {v})")).unwrap(), p as usize));
        }
    }
    (db, queries)
}

/// Microseconds per miss of each executor phase over `misses` (a plan, its
/// query and the answer count), the median of `passes` passes, plus the
/// mean rounds a miss ran. Each miss runs the steps
/// `recurs_engine::evaluate` runs, against `base`, which already holds every
/// index the pipelines probe (as a served snapshot does after the first miss
/// of a form).
fn phase_split(
    misses: &[(&QueryPlan, &Atom, usize)],
    base: &EngineDb,
    config: &EngineConfig,
    passes: usize,
) -> ([f64; 5], f64) {
    let mut per_pass: Vec<[f64; 5]> = Vec::new();
    let mut rounds = 0;
    for _ in 0..passes {
        let mut total = [Duration::ZERO; 5];
        rounds = 0;
        for &(plan, query, expected) in misses {
            let t0 = Instant::now();
            let lowered = plan.lower(query).unwrap();
            let t1 = Instant::now();
            let mut store = base.clone();
            let rules = lowered.program.rules.iter();
            let atoms = rules.flat_map(|r| std::iter::once(&r.head).chain(&r.body));
            for atom in atoms.chain([&lowered.answer]) {
                store.declare(atom.predicate, atom.arity()).unwrap();
            }
            if let Some((pred, constants)) = &lowered.seed {
                store.get_mut(*pred).unwrap().insert(constants);
            }
            let t2 = Instant::now();
            let compiled = CompiledProgram::compile(lowered.program, &store).unwrap();
            let t3 = Instant::now();
            let saturation = saturate(&mut store, &compiled, lowered.round_cap, config).unwrap();
            let t4 = Instant::now();
            let stored = store.get(lowered.answer.predicate).unwrap();
            let answers = select(stored, &Selection::of(&lowered.answer));
            let t5 = Instant::now();
            assert_eq!(answers.len(), expected, "{query}");
            rounds += saturation.stats.iterations.len();
            let phases = [(t0, t1), (t1, t2), (t2, t3), (t3, t4), (t4, t5)];
            for (slot, (from, to)) in total.iter_mut().zip(phases) {
                *slot += to - from;
            }
        }
        per_pass.push(total.map(|d| d.as_secs_f64() * 1e6 / misses.len() as f64));
    }
    let median = std::array::from_fn(|phase| {
        let mut column: Vec<f64> = per_pass.iter().map(|p| p[phase]).collect();
        column.sort_by(f64::total_cmp);
        column[column.len() / 2]
    });
    (median, rounds as f64 / misses.len() as f64)
}

fn cold_miss_split(c: &mut Criterion) {
    let f = tc_formula();
    let (db, queries) = cold_forest();

    // The served miss, end to end in process: cache off, so every ask runs
    // its plan; one warm-up pass republishes the indexes each form probes.
    let point = service(&f, &db, false);
    for (query, expected) in &queries {
        let reply = point.query(query).unwrap();
        assert!(reply.outcome.is_complete());
        assert_eq!(reply.answers.len(), *expected, "{query}");
    }
    let mut group = c.benchmark_group("cold_miss_split");
    group.sample_size(10);
    group.bench_function("query", |b| {
        let mut next = queries.iter().cycle();
        b.iter(|| black_box(point.query(&next.next().unwrap().0).unwrap()));
    });
    group.finish();

    // The same misses, phase by phase: one plan per query form, as the
    // service caches them, over a store indexed for both forms.
    let mut plans: HashMap<QueryForm, QueryPlan> = HashMap::new();
    let mut base = EngineDb::from(&db);
    for (query, _) in &queries {
        if let Entry::Vacant(slot) = plans.entry(QueryForm::of_atom(query)) {
            let plan = slot.insert(plan_query(&f, query).unwrap());
            let config = EngineConfig::default();
            evaluate(plan, query, &base.clone(), &config, |missing| {
                base.build_indexes(missing);
                None
            })
            .unwrap();
        }
    }
    let misses: Vec<(&QueryPlan, &Atom, usize)> = queries
        .iter()
        .map(|(query, expected)| (&plans[&QueryForm::of_atom(query)], query, *expected))
        .collect();
    let service_recorders: Vec<Arc<dyn Recorder>> = vec![
        Arc::new(Aggregator::default()),
        Arc::new(FlightRecorder::default()),
    ];
    for (label, obs) in [
        ("noop", Obs::noop()),
        ("aggregator", Obs::new(Arc::new(Aggregator::default()))),
        ("flight", Obs::new(Arc::new(FlightRecorder::default()))),
        ("service", Obs::fanout(service_recorders)),
    ] {
        let config = EngineConfig {
            budget: ServeConfig::default().budget,
            obs,
        };
        let passes = 5;
        let (us, rounds) = phase_split(&misses, &base, &config, passes);
        println!(
            "cold_miss_split/{label}  lower {:.2}  clone+declare+seed {:.2}  compile {:.2}  \
             saturate {:.2}  select {:.2}  µs per miss  ({rounds:.1} rounds, {} misses, \
             median of {passes} passes)",
            us[0],
            us[1],
            us[2],
            us[3],
            us[4],
            misses.len()
        );
    }
    println!();
    walk_rounds(&f);
}

/// Chain lengths of the per-round lane.
const WALK_LENGTHS: [u64; 4] = [25, 100, 400, 1_600];

/// µs a round of a one-tuple frontier walk: `P(1, n)` served with the cache
/// off on one chain `1 → … → n` of each of [`WALK_LENGTHS`] — a ground query
/// whose one answer is found in the last round, so the walk still visits
/// every vertex — the median of 5 passes of about 0.2 s each.
fn walk_rounds(f: &LinearRecursion) {
    let mut points = Vec::new();
    for n in WALK_LENGTHS {
        let query = parse_atom(&format!("P(1, {n})")).unwrap();
        let service = service(f, &tc_db(n), false);
        let warm = service.query(&query).unwrap(); // the form's plan and indexes
        assert_eq!(warm.stats.kernel.label(), "frontier");
        assert_eq!(warm.answers.len(), 1);
        let rounds = warm.stats.fixpoint_iterations;
        let reps = (320_000 / n) as u32;
        let mut passes: Vec<f64> = (0..5)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..reps {
                    black_box(service.query(&query).unwrap());
                }
                start.elapsed().as_secs_f64() * 1e6 / f64::from(reps)
            })
            .collect();
        passes.sort_by(f64::total_cmp);
        let us = passes[passes.len() / 2];
        println!(
            "cold_miss_split/walk/{n}  {us:.2} µs per miss  {rounds} rounds  {:.3} µs a round",
            us / rounds as f64
        );
        points.push((rounds as f64, us));
    }
    let ((r0, t0), (r1, t1)) = (points[0], points[points.len() - 1]);
    println!(
        "cold_miss_split/walk  slope {:.3} µs a round ({} to {} vertices)",
        (t1 - t0) / (r1 - r0),
        WALK_LENGTHS[0],
        WALK_LENGTHS[WALK_LENGTHS.len() - 1]
    );
}

/// Rows of the warm hits `served_hit` times: `serve-cold`'s median reply,
/// about `serve-hot`'s mean, and a short and a long reply of one chain.
const HIT_ROWS: [u64; 4] = [24, 37, 40, 400];

fn served_hit(c: &mut Criterion) {
    let service = service(&tc_formula(), &tc_db(401), true);
    let opts = LineOptions::default();
    let mut group = c.benchmark_group("served_hit");
    group.sample_size(30);
    for rows in HIT_ROWS {
        let text = format!("P({}, y)", 401 - rows);
        let (line, query) = (format!("?- {text}."), parse_atom(&text).unwrap());
        handle_line_with(&service, &line, &opts); // the miss that fills the entry
        let (LineOutcome::Reply(reply), _) = handle_line_with(&service, &line, &opts) else {
            panic!("no reply to {line}");
        };
        assert!(reply.contains(&format!(r#""count":{rows},"#)), "{reply}");
        assert!(reply.contains(r#""cache":"hit""#), "{reply}");
        assert_eq!(
            service.query(&query).unwrap().stats.cache,
            CacheOutcome::Hit
        );
        group.bench_function(BenchmarkId::new("line", rows), |b| {
            b.iter(|| black_box(handle_line_with(&service, &line, &opts)));
        });
        group.bench_function(BenchmarkId::new("query", rows), |b| {
            b.iter(|| black_box(service.query(&query).unwrap()));
        });
    }
    let aggregator = Aggregator::default();
    let labels = [
        ("kernel", "frontier"),
        ("cache", "hit"),
        ("outcome", "complete"),
    ];
    group.bench_function("aggregator_call", |b| {
        b.iter(|| aggregator.counter("recurs_serve_queries_total", black_box(&labels), 1));
    });
    group.finish();
}

criterion_group!(benches, served_hit, tc_serving, sg_serving, cold_miss_split);
criterion_main!(benches);
