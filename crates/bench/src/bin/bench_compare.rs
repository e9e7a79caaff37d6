//! Regression gate for the engine-scaling benchmark, and the recorder's
//! overhead audit.
//!
//! Re-times the `engine_scaling` workloads (oracle evaluator and indexed
//! engine, the two configurations that are meaningful on any core count)
//! with the project's own lightweight median timer and diffs the fresh
//! numbers against the recorded baseline in `BENCH_engine.json`:
//!
//! * an indexed-engine configuration more than `--gate` percent (default
//!   25) slower than its baseline median — after dividing out the same-run
//!   oracle drift, which controls for machine load — fails the run with a
//!   non-zero exit;
//! * the indexed engine is additionally timed with a live metric
//!   [`Aggregator`] attached, so the cost of *enabled* observability is
//!   visible next to the no-op cost (the instrumented engine with the
//!   default no-op recorder IS the plain "indexed" measurement — its
//!   drift-corrected delta against the pre-instrumentation baseline is the
//!   no-op overhead).
//!
//! With `--write <path>` the full comparison is serialized as JSON — this is
//! how `BENCH_obs.json` at the repository root is produced:
//!
//! ```text
//! cargo run --release -p recurs-bench --bin bench_compare -- \
//!     --samples 10 --write BENCH_obs.json
//! ```
//!
//! The incremental-maintenance lane re-times single-fact insert/delete
//! patches against a cold refixpoint on tc/800 and diffs against
//! `BENCH_ivm.json` (`--ivm-baseline`): the patched rows are gated with the
//! same drift-corrected tripwire (the same-run cold refixpoint is the
//! control), and the run additionally fails if the measured patched-vs-cold
//! median speedup drops below `--ivm-speedup` (default 5).
//!
//! `--quick` trims to the smallest size per workload with fewer samples,
//! which is what the CI lane runs as a smoke-level regression tripwire.
//!
//! `--reaudit-obs <path>` appends this run's no-op-overhead verdict to the
//! `"reaudits"` array of an existing `BENCH_obs.json` (keeping the last
//! five), so the recorded overhead claim is re-checked — without rewriting
//! the pinned baseline rows — every time the CI bench lane runs.

use recurs_datalog::eval::semi_naive;
use recurs_datalog::govern::EvalBudget;
use recurs_datalog::parser::parse_program;
use recurs_datalog::relation::tuple_u64;
use recurs_datalog::relation::Relation;
use recurs_datalog::rule::LinearRecursion;
use recurs_datalog::symbol::Symbol;
use recurs_datalog::validate::validate_with_generic_exit;
use recurs_datalog::Database;
use recurs_engine::{run_linear, EngineConfig, EngineDb};
use recurs_ivm::{EdbDelta, FactOp, Materialization};
use recurs_obs::aggregate::Aggregator;
use recurs_obs::Obs;
use recurs_workload::graphs::chain;
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// One (workload, size, configuration) comparison row.
struct Row {
    workload: &'static str,
    size: u64,
    config: &'static str,
    baseline_ms: f64,
    measured_ms: f64,
    /// Median with a live `Aggregator` recorder (indexed rows only).
    enabled_ms: Option<f64>,
    /// Same-run oracle medians (indexed rows only), used to cancel machine
    /// drift out of the baseline comparison.
    control: Option<(f64, f64)>,
}

impl Row {
    /// Raw measured-vs-baseline drift. On a shared machine this mixes code
    /// changes with load changes, so it is reported but not gated on.
    fn delta_pct(&self) -> f64 {
        (self.measured_ms / self.baseline_ms - 1.0) * 100.0
    }

    /// Machine-drift-corrected delta: the oracle evaluator shares the run
    /// (interleaved sample-by-sample) but not the code under test, so
    /// dividing this row's measured/baseline ratio by the oracle's cancels
    /// how fast the machine happens to be today. The control ratio is
    /// clamped at >= 1: a control that ran *faster* than at baseline time
    /// would tighten the gate and fail rows whose raw delta is well inside
    /// the tripwire (the control's own sample noise masquerading as a
    /// regression), so machine slowdown is credited but machine speedup
    /// falls back to the raw comparison. Falls back to the raw delta for
    /// rows without a control (the oracle itself).
    fn corrected_pct(&self) -> f64 {
        match self.control {
            Some((oracle_baseline, oracle_measured)) => {
                let own = self.measured_ms / self.baseline_ms;
                let control = (oracle_measured / oracle_baseline).max(1.0);
                (own / control - 1.0) * 100.0
            }
            None => self.delta_pct(),
        }
    }
}

fn tc_formula() -> LinearRecursion {
    validate_with_generic_exit(
        &parse_program("P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).").unwrap(),
    )
    .unwrap()
}

fn sg_formula() -> LinearRecursion {
    validate_with_generic_exit(
        &parse_program("SG(x, y) :- Up(x, u), SG(u, v), Down(v, y).\nSG(x, y) :- Flat(x, y).")
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

/// Same-generation EDB over a complete binary tree of `n` nodes (the same
/// construction as `benches/engine_scaling.rs`).
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

/// Median of a sample vector (sorts in place).
fn median(times: &mut [f64]) -> f64 {
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

fn time_once(work: impl FnOnce()) -> f64 {
    let start = Instant::now();
    work();
    start.elapsed().as_secs_f64() * 1e3
}

/// Times the oracle evaluator, the indexed engine (default no-op recorder),
/// and the indexed engine with a live [`Aggregator`] — *interleaved*
/// sample-by-sample, so all three medians see the same machine conditions
/// and their ratios are meaningful even when absolute speed drifts between
/// runs. Returns `(oracle_ms, indexed_ms, indexed_aggregator_ms)` medians.
fn interleaved_medians(db: &Database, f: &LinearRecursion, samples: usize) -> (f64, f64, f64) {
    let program = f.to_program();
    let config = |obs: Obs| EngineConfig {
        budget: EvalBudget::unlimited(),
        obs,
    };
    let noop = config(Obs::noop());
    let enabled = config(Obs::new(Arc::new(Aggregator::default())));
    let (mut oracle, mut indexed, mut aggregated) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..samples {
        oracle.push(time_once(|| {
            let mut db = db.clone();
            semi_naive(&mut db, &program, None).unwrap();
            black_box(&db);
        }));
        for (cfg, times) in [(&noop, &mut indexed), (&enabled, &mut aggregated)] {
            times.push(time_once(|| {
                let mut db = db.clone();
                let sat = run_linear(&mut db, f, cfg).unwrap();
                assert!(sat.outcome.is_complete());
                black_box(&db);
            }));
        }
    }
    (
        median(&mut oracle),
        median(&mut indexed),
        median(&mut aggregated),
    )
}

/// Pulls `"<size>": { ..., "<config>": <ms>, ... }` out of the baseline
/// file's `"<workload>"` section. The baseline is data this repository
/// publishes, so a missing entry is a hard error, not a skip.
fn baseline_ms(text: &str, workload: &str, size: u64, config: &str) -> Result<f64, String> {
    let section = text
        .split_once(&format!("\"{workload}\""))
        .ok_or_else(|| format!("baseline has no workload {workload:?}"))?
        .1;
    let line = section
        .lines()
        .find(|l| l.trim_start().starts_with(&format!("\"{size}\":")))
        .ok_or_else(|| format!("baseline {workload} has no size {size}"))?;
    let after = line
        .split_once(&format!("\"{config}\":"))
        .ok_or_else(|| format!("baseline {workload}/{size} has no config {config:?}"))?
        .1;
    let number: String = after
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    number
        .parse()
        .map_err(|e| format!("bad number for {workload}/{size}/{config}: {e}"))
}

struct Options {
    samples: usize,
    gate_pct: f64,
    baseline: String,
    ivm_baseline: String,
    ivm_speedup: f64,
    write: Option<String>,
    reaudit_obs: Option<String>,
    quick: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        samples: 10,
        gate_pct: 25.0,
        baseline: "BENCH_engine.json".to_string(),
        ivm_baseline: "BENCH_ivm.json".to_string(),
        ivm_speedup: 5.0,
        write: None,
        reaudit_obs: None,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--samples" => {
                opts.samples = value("--samples")?.parse().map_err(|e| format!("{e}"))?
            }
            "--gate" => opts.gate_pct = value("--gate")?.parse().map_err(|e| format!("{e}"))?,
            "--baseline" => opts.baseline = value("--baseline")?,
            "--ivm-baseline" => opts.ivm_baseline = value("--ivm-baseline")?,
            "--ivm-speedup" => {
                opts.ivm_speedup = value("--ivm-speedup")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--write" => opts.write = Some(value("--write")?),
            "--reaudit-obs" => opts.reaudit_obs = Some(value("--reaudit-obs")?),
            "--quick" => opts.quick = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if opts.samples == 0 {
        return Err("--samples must be positive".to_string());
    }
    Ok(opts)
}

/// One benchmark family: name, formula, EDB builder, sizes to time.
type Workload = (
    &'static str,
    LinearRecursion,
    fn(u64) -> Database,
    &'static [u64],
);

fn measure(opts: &Options, baseline: &str) -> Result<Vec<Row>, String> {
    let tc_sizes: &'static [u64] = if opts.quick { &[200] } else { &[200, 400, 800] };
    let sg_sizes: &'static [u64] = if opts.quick {
        &[255]
    } else {
        &[255, 511, 1023]
    };
    let workloads: [Workload; 2] = [
        ("engine_scaling_tc", tc_formula(), tc_db, tc_sizes),
        ("engine_scaling_sg", sg_formula(), sg_db, sg_sizes),
    ];
    let mut rows = Vec::new();
    for (workload, f, make_db, sizes) in workloads {
        for &size in sizes {
            let db = make_db(size);
            let (oracle_ms, indexed_ms, aggregated_ms) = interleaved_medians(&db, &f, opts.samples);
            let oracle_baseline = baseline_ms(baseline, workload, size, "oracle")?;
            let oracle = Row {
                workload,
                size,
                config: "oracle",
                baseline_ms: oracle_baseline,
                measured_ms: oracle_ms,
                enabled_ms: None,
                control: None,
            };
            let indexed = Row {
                workload,
                size,
                config: "indexed",
                baseline_ms: baseline_ms(baseline, workload, size, "indexed")?,
                measured_ms: indexed_ms,
                enabled_ms: Some(aggregated_ms),
                control: Some((oracle_baseline, oracle_ms)),
            };
            eprintln!(
                "{workload}/{size}: oracle {:.2} ms ({:+.1}% raw) | indexed {:.2} ms \
                 ({:+.1}% raw, {:+.1}% drift-corrected) | aggregator on {:.2} ms",
                oracle.measured_ms,
                oracle.delta_pct(),
                indexed.measured_ms,
                indexed.delta_pct(),
                indexed.corrected_pct(),
                aggregated_ms
            );
            rows.push(oracle);
            rows.push(indexed);
        }
    }
    Ok(rows)
}

/// Serializes the comparison in the same spirit as the other `BENCH_*.json`
/// reports: medians per workload/size plus the overhead verdict.
fn report_json(
    opts: &Options,
    rows: &[Row],
    noop_median_pct: f64,
    noop_max_pct: f64,
    gate_ok: bool,
) -> String {
    use serde::Value;
    let mut workloads: Vec<(String, Value)> = Vec::new();
    for row in rows {
        let entry = Value::object(
            [
                ("baseline_ms", Value::Float(row.baseline_ms)),
                ("measured_ms", Value::Float(row.measured_ms)),
                ("delta_pct", Value::Float(row.delta_pct())),
            ]
            .into_iter()
            .chain(row.control.map(|_| {
                (
                    "drift_corrected_delta_pct",
                    Value::Float(row.corrected_pct()),
                )
            }))
            .chain(
                row.enabled_ms
                    .map(|ms| ("aggregator_on_ms", Value::Float(ms))),
            ),
        );
        workloads.push((
            format!("{}/{}/{}", row.workload, row.size, row.config),
            entry,
        ));
    }
    let value = Value::object([
        (
            "bench",
            Value::string("crates/bench/src/bin/bench_compare.rs"),
        ),
        (
            "command",
            Value::string(format!(
                "cargo run --release -p recurs-bench --bin bench_compare -- --samples {}{}",
                opts.samples,
                opts.write
                    .as_deref()
                    .map(|w| format!(" --write {w}"))
                    .unwrap_or_default()
            )),
        ),
        ("baseline", Value::string(opts.baseline.clone())),
        (
            "units",
            Value::string(format!(
                "milliseconds, median of {} interleaved samples; delta_pct is raw \
                 measured vs baseline, drift_corrected_delta_pct divides out the \
                 same-run oracle drift (the oracle evaluator is untouched by the \
                 recorder instrumentation, so it controls for machine speed)",
                opts.samples
            )),
        ),
        ("gate_pct", Value::Float(opts.gate_pct)),
        ("gate_ok", Value::Bool(gate_ok)),
        ("rows", Value::object(workloads)),
        (
            "noop_overhead",
            Value::object([
                (
                    "note",
                    Value::string(
                        "indexed rows time the obs-instrumented engine with the default \
                         no-op recorder against the pre-instrumentation baseline; the \
                         drift-corrected deltas bound the no-op recorder cost (negative \
                         = faster than baseline). The verdict uses the median across \
                         workload/size configurations: each configuration's correction \
                         relies on its recorded oracle/indexed ratio, and a single \
                         stale ratio (recorded under different machine load) would \
                         otherwise dominate the max. aggregator_on_ms shows the same \
                         run with a live metric aggregator attached.",
                    ),
                ),
                (
                    "median_indexed_drift_corrected_delta_pct",
                    Value::Float(noop_median_pct),
                ),
                (
                    "max_indexed_drift_corrected_delta_pct",
                    Value::Float(noop_max_pct),
                ),
                ("limit_pct", Value::Float(5.0)),
                ("within_limit", Value::Bool(noop_median_pct <= 5.0)),
            ]),
        ),
    ]);
    serde::json::to_string_pretty(&value)
}

/// Times single-fact maintenance on tc/800: insert the tip edge
/// `E(800, 801)` and patch the standing materialization, delete it again
/// and patch, and refixpoint the inserted database from scratch —
/// interleaved sample-by-sample so the cold refixpoint doubles as the
/// same-run machine-drift control for the patched rows. Both patch
/// directions are certified tuple-identical to from-scratch saturation
/// before timing. Returns the rows plus the measured patched-vs-cold
/// median speedup (cold over the slower patch direction).
fn measure_ivm(opts: &Options, baseline: &str) -> Result<(Vec<Row>, f64), String> {
    const WORKLOAD: &str = "update_latency_tc";
    const SIZE: u64 = 800;
    let f = tc_formula();
    let budget = EvalBudget::unlimited();
    let db = tc_db(SIZE);
    let e = Symbol::intern("E");
    let tip = tuple_u64([SIZE, SIZE + 1]);
    let mut inserted_db = db.clone();
    inserted_db
        .insert(e, tip.clone())
        .map_err(|e| format!("{e}"))?;
    // Each delta is normalized against the state it will be applied to.
    let insert = EdbDelta::normalize(&[FactOp::Insert(e, tip.clone())], &EngineDb::from(&db))
        .map_err(|e| format!("{e}"))?;
    let delete = EdbDelta::normalize(&[FactOp::Delete(e, tip)], &EngineDb::from(&inserted_db))
        .map_err(|e| format!("{e}"))?;

    let refixpoint = |edb: &Database| {
        let mut db = edb.clone();
        db.insert_relation(f.predicate, Relation::new(f.dimension()));
        semi_naive(&mut db, &f.to_program(), None).unwrap();
        db.get(f.predicate).unwrap().clone()
    };
    let mut mat =
        Materialization::saturate(&f, &db, &budget, &Obs::noop()).map_err(|e| format!("{e}"))?;
    // Certify both directions once before timing anything.
    mat.apply(&insert, &budget).map_err(|e| format!("{e}"))?;
    assert_eq!(mat.relation().to_relation(), refixpoint(&inserted_db));
    mat.apply(&delete, &budget).map_err(|e| format!("{e}"))?;
    assert_eq!(mat.relation().to_relation(), refixpoint(&db));

    let (mut ins_times, mut del_times, mut cold_times) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..opts.samples {
        ins_times.push(time_once(|| {
            black_box(mat.apply(&insert, &budget).unwrap());
        }));
        del_times.push(time_once(|| {
            black_box(mat.apply(&delete, &budget).unwrap());
        }));
        cold_times.push(time_once(|| {
            black_box(refixpoint(&inserted_db));
        }));
    }
    let (ins_ms, del_ms, cold_ms) = (
        median(&mut ins_times),
        median(&mut del_times),
        median(&mut cold_times),
    );
    let cold_baseline = baseline_ms(baseline, WORKLOAD, SIZE, "cold")?;
    let rows = vec![
        Row {
            workload: WORKLOAD,
            size: SIZE,
            config: "cold",
            baseline_ms: cold_baseline,
            measured_ms: cold_ms,
            enabled_ms: None,
            control: None,
        },
        Row {
            workload: WORKLOAD,
            size: SIZE,
            config: "patched_insert",
            baseline_ms: baseline_ms(baseline, WORKLOAD, SIZE, "patched_insert")?,
            measured_ms: ins_ms,
            enabled_ms: None,
            control: Some((cold_baseline, cold_ms)),
        },
        Row {
            workload: WORKLOAD,
            size: SIZE,
            config: "patched_delete",
            baseline_ms: baseline_ms(baseline, WORKLOAD, SIZE, "patched_delete")?,
            measured_ms: del_ms,
            enabled_ms: None,
            control: Some((cold_baseline, cold_ms)),
        },
    ];
    let speedup = cold_ms / ins_ms.max(del_ms);
    eprintln!(
        "{WORKLOAD}/{SIZE}: patched insert {ins_ms:.3} ms | patched delete {del_ms:.3} ms \
         | cold {cold_ms:.2} ms | speedup {speedup:.0}x"
    );
    Ok((rows, speedup))
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_options(&args)?;
    let baseline = std::fs::read_to_string(&opts.baseline)
        .map_err(|e| format!("cannot read baseline {}: {e}", opts.baseline))?;
    let ivm_baseline = std::fs::read_to_string(&opts.ivm_baseline)
        .map_err(|e| format!("cannot read baseline {}: {e}", opts.ivm_baseline))?;
    let mut rows = measure(&opts, &baseline)?;
    let (ivm_rows, ivm_speedup) = measure_ivm(&opts, &ivm_baseline)?;
    rows.extend(ivm_rows);

    // The gate judges the code under test (the instrumented indexed
    // engine) on its drift-corrected delta; the oracle rows are the
    // control and are reported but never gated — their raw drift is
    // machine load, which would make the gate flaky for no signal.
    let regressions: Vec<&Row> = rows
        .iter()
        .filter(|r| r.control.is_some() && r.corrected_pct() > opts.gate_pct)
        .collect();
    let mut corrected: Vec<f64> = rows
        .iter()
        .filter(|r| r.config == "indexed")
        .map(Row::corrected_pct)
        .collect();
    let noop_max_pct = corrected.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let noop_median_pct = median(&mut corrected);
    let speedup_ok = ivm_speedup >= opts.ivm_speedup;
    let gate_ok = regressions.is_empty() && speedup_ok;

    if let Some(path) = &opts.write {
        std::fs::write(
            path,
            report_json(&opts, &rows, noop_median_pct, noop_max_pct, gate_ok) + "\n",
        )
        .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    if let Some(path) = &opts.reaudit_obs {
        append_reaudit(path, &opts, noop_median_pct, noop_max_pct)?;
        eprintln!("appended no-op overhead re-audit to {path}");
    }
    eprintln!(
        "no-op overhead (drift-corrected indexed delta vs baseline): \
         median {noop_median_pct:+.1}%, max {noop_max_pct:+.1}%"
    );
    for r in &regressions {
        eprintln!(
            "REGRESSION {}/{}/{}: {:.2} ms vs baseline {:.2} ms \
             ({:+.1}% drift-corrected > {:.0}%)",
            r.workload,
            r.size,
            r.config,
            r.measured_ms,
            r.baseline_ms,
            r.corrected_pct(),
            opts.gate_pct
        );
    }
    if !speedup_ok {
        eprintln!(
            "REGRESSION update_latency_tc/800: patched-vs-cold speedup {ivm_speedup:.1}x \
             below the {:.0}x acceptance floor",
            opts.ivm_speedup
        );
    }
    Ok(gate_ok)
}

/// How many `--reaudit-obs` records `BENCH_obs.json` retains.
const MAX_REAUDITS: usize = 5;

/// Appends this run's no-op-overhead verdict to the `"reaudits"` array of
/// an existing `BENCH_obs.json`, keeping the last [`MAX_REAUDITS`] records.
/// The pinned baseline rows and the original `noop_overhead` verdict are
/// left untouched; the array is an append-only audit trail showing the
/// overhead claim still holds on the current tree.
fn append_reaudit(path: &str, opts: &Options, median_pct: f64, max_pct: f64) -> Result<(), String> {
    use serde::Value;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut doc =
        recurs_obs::jsonl::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
    let Value::Object(fields) = &mut doc else {
        return Err(format!("{path} is not a JSON object"));
    };
    let record = Value::object([
        ("samples", Value::UInt(opts.samples as u64)),
        ("quick", Value::Bool(opts.quick)),
        (
            "median_indexed_drift_corrected_delta_pct",
            Value::Float(median_pct),
        ),
        (
            "max_indexed_drift_corrected_delta_pct",
            Value::Float(max_pct),
        ),
        ("limit_pct", Value::Float(5.0)),
        ("within_limit", Value::Bool(median_pct <= 5.0)),
    ]);
    match fields.iter_mut().find(|(k, _)| k == "reaudits") {
        Some((_, Value::Array(items))) => {
            items.push(record);
            if items.len() > MAX_REAUDITS {
                let excess = items.len() - MAX_REAUDITS;
                items.drain(..excess);
            }
        }
        Some((_, other)) => return Err(format!("{path}: \"reaudits\" is not an array: {other:?}")),
        None => fields.push(("reaudits".to_string(), Value::Array(vec![record]))),
    }
    std::fs::write(path, serde::json::to_string_pretty(&doc) + "\n")
        .map_err(|e| format!("cannot write {path}: {e}"))
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_compare: {e}");
            ExitCode::FAILURE
        }
    }
}
