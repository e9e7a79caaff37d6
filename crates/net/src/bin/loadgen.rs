//! `loadgen` — replay a mixed read/write workload against a running
//! `recurs serve --listen` server and score it.
//!
//! ```text
//! loadgen --addr 127.0.0.1:4004 --qps 200 --duration-ms 2000 \
//!         --connections 4 --update-ratio 0.1 --deadline-ms 1000 \
//!         --key-space 100 --seed 1 [--out report.json]
//! ```
//!
//! The scored report (p50/p95/p99 latency, shed rate, saturation) is
//! written as one-line JSON to `--out` or stdout; a human summary goes to
//! stderr. Exit codes: 0 on a clean run, 1 on usage or connection errors.

use recurs_net::loadgen::{run, LoadSpec};
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args).and_then(|(spec, out)| execute(&spec, out.as_deref())) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("loadgen: {e}");
            std::process::exit(1);
        }
    }
}

fn execute(spec: &LoadSpec, out: Option<&str>) -> Result<(), String> {
    let report = run(spec).map_err(|e| e.to_string())?;
    eprintln!(
        "loadgen: {:.0}/{:.0} qps (saturation {:.2}), p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms, shed {:.1}%, {} transport errors",
        report.achieved_qps,
        report.target_qps,
        report.saturation,
        report.p50_ms,
        report.p95_ms,
        report.p99_ms,
        report.shed_rate * 100.0,
        report.samples.transport_errors,
    );
    let json = report.to_json();
    match out {
        Some(path) => std::fs::write(path, json + "\n").map_err(|e| format!("{path}: {e}"))?,
        None => println!("{json}"),
    }
    Ok(())
}

fn parse(args: &[String]) -> Result<(LoadSpec, Option<String>), String> {
    let mut spec = LoadSpec::default();
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            eprintln!(
                "usage: loadgen [--addr HOST:PORT] [--connections N] [--qps N] \
                 [--duration-ms N] [--update-ratio F] [--deadline-ms N|none] \
                 [--key-space N] [--seed N] [--max-retries N] [--out FILE]"
            );
            std::process::exit(0);
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value for {flag}: {e}");
        match flag.as_str() {
            "--addr" => spec.addr = value.clone(),
            "--connections" => spec.connections = value.parse().map_err(|e| bad(&e))?,
            "--qps" => spec.qps = value.parse().map_err(|e| bad(&e))?,
            "--duration-ms" => {
                spec.duration = Duration::from_millis(value.parse().map_err(|e| bad(&e))?)
            }
            "--update-ratio" => spec.update_ratio = value.parse().map_err(|e| bad(&e))?,
            "--deadline-ms" => {
                spec.deadline_ms = if value == "none" {
                    None
                } else {
                    Some(value.parse().map_err(|e| bad(&e))?)
                }
            }
            "--key-space" => spec.key_space = value.parse().map_err(|e| bad(&e))?,
            "--seed" => spec.seed = value.parse().map_err(|e| bad(&e))?,
            "--max-retries" => spec.retry.max_retries = value.parse().map_err(|e| bad(&e))?,
            "--query-predicate" => spec.query_predicate = value.clone(),
            "--update-predicate" => spec.update_predicate = value.clone(),
            "--out" => out = Some(value.clone()),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    if !(0.0..=1.0).contains(&spec.update_ratio) {
        return Err("--update-ratio must be in 0.0..=1.0".to_string());
    }
    Ok((spec, out))
}
