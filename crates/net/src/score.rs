//! Scoring for load-generator runs: latency percentiles, shed rate, and
//! saturation, separated from the driving harness (`loadgen`) so the same
//! scorer can grade live runs, replayed samples, and bench lanes.

use serde::{Serialize as _, Value};
use std::time::Duration;

/// Raw samples from one load run (mergeable across workers).
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// Per-request wall latency in milliseconds, successful requests only.
    pub latencies_ms: Vec<f64>,
    /// Trace id per latency sample, index-aligned with `latencies_ms`
    /// (empty string for untraced requests, e.g. write pairs). Lets the
    /// report name the exact server-side traces behind the p99 tail.
    pub traces: Vec<String>,
    /// Requests answered `ok`.
    pub ok: u64,
    /// `overloaded` replies observed (each retry attempt counts).
    pub shed_replies: u64,
    /// Requests abandoned after exhausting retries on shed.
    pub shed_final: u64,
    /// Requests answered with a `deadline` error.
    pub deadline: u64,
    /// Requests answered with any other error.
    pub errors: u64,
    /// Retry attempts performed (after shed replies).
    pub retries: u64,
    /// Transport-level failures (torn frame, closed connection).
    pub transport_errors: u64,
}

impl Samples {
    /// Folds another worker's samples in.
    pub fn merge(&mut self, other: Samples) {
        self.latencies_ms.extend(other.latencies_ms);
        self.traces.extend(other.traces);
        self.ok += other.ok;
        self.shed_replies += other.shed_replies;
        self.shed_final += other.shed_final;
        self.deadline += other.deadline;
        self.errors += other.errors;
        self.retries += other.retries;
        self.transport_errors += other.transport_errors;
    }

    /// Logical requests that reached a final outcome.
    pub fn completed(&self) -> u64 {
        self.ok + self.shed_final + self.deadline + self.errors + self.transport_errors
    }
}

/// The scored result of one load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Offered load target, requests/second.
    pub target_qps: f64,
    /// Completed-request throughput actually achieved.
    pub achieved_qps: f64,
    /// `achieved_qps / target_qps` — below ~1.0 the server saturated (or
    /// the generator could not keep pace).
    pub saturation: f64,
    /// Measured run duration in seconds.
    pub duration_s: f64,
    /// Latency percentiles over successful requests, milliseconds.
    pub p50_ms: f64,
    /// 95th percentile latency, milliseconds.
    pub p95_ms: f64,
    /// 99th percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Mean latency, milliseconds.
    pub mean_ms: f64,
    /// `shed_replies / (completed + shed_replies)` — how often admission
    /// pushed back, counting every shed attempt.
    pub shed_rate: f64,
    /// The slowest traced requests at or above the p99 latency (worst
    /// first, capped at [`MAX_STRAGGLERS`]): `(trace_id, latency_ms)`.
    /// Feed an id to `obsctl spans <trace-file>` to see where it stalled.
    pub stragglers: Vec<(String, f64)>,
    /// The raw counters behind the rates.
    pub samples: Samples,
}

/// Cap on [`LoadReport::stragglers`].
pub const MAX_STRAGGLERS: usize = 5;

/// The traced samples at or above the `p99` cutoff, worst first, capped.
fn straggler_traces(samples: &Samples, p99: f64) -> Vec<(String, f64)> {
    let mut tail: Vec<(String, f64)> = samples
        .traces
        .iter()
        .zip(&samples.latencies_ms)
        .filter(|(trace, &lat)| !trace.is_empty() && lat >= p99)
        .map(|(trace, &lat)| (trace.clone(), lat))
        .collect();
    tail.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    tail.truncate(MAX_STRAGGLERS);
    tail
}

/// Nearest-rank percentile (q in 0..=100) over unsorted samples.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Scores one run's samples against its offered load.
pub fn score(samples: Samples, target_qps: f64, elapsed: Duration) -> LoadReport {
    let duration_s = elapsed.as_secs_f64().max(f64::EPSILON);
    let completed = samples.completed();
    let achieved_qps = completed as f64 / duration_s;
    let attempts = completed + samples.shed_replies;
    let shed_rate = if attempts == 0 {
        0.0
    } else {
        samples.shed_replies as f64 / attempts as f64
    };
    let mean_ms = if samples.latencies_ms.is_empty() {
        0.0
    } else {
        samples.latencies_ms.iter().sum::<f64>() / samples.latencies_ms.len() as f64
    };
    let p99_ms = percentile(&samples.latencies_ms, 99.0);
    LoadReport {
        target_qps,
        achieved_qps,
        saturation: if target_qps > 0.0 {
            achieved_qps / target_qps
        } else {
            0.0
        },
        duration_s,
        p50_ms: percentile(&samples.latencies_ms, 50.0),
        p95_ms: percentile(&samples.latencies_ms, 95.0),
        p99_ms,
        mean_ms,
        shed_rate,
        stragglers: straggler_traces(&samples, p99_ms),
        samples,
    }
}

impl LoadReport {
    /// The report as a JSON value (what the `loadgen` binary writes).
    pub fn to_value(&self) -> Value {
        Value::object([
            ("target_qps", self.target_qps.to_value()),
            ("achieved_qps", round3(self.achieved_qps)),
            ("saturation", round3(self.saturation)),
            ("duration_s", round3(self.duration_s)),
            ("p50_ms", round3(self.p50_ms)),
            ("p95_ms", round3(self.p95_ms)),
            ("p99_ms", round3(self.p99_ms)),
            ("mean_ms", round3(self.mean_ms)),
            ("shed_rate", round3(self.shed_rate)),
            ("ok", self.samples.ok.to_value()),
            ("shed_replies", self.samples.shed_replies.to_value()),
            ("shed_final", self.samples.shed_final.to_value()),
            ("deadline", self.samples.deadline.to_value()),
            ("errors", self.samples.errors.to_value()),
            ("retries", self.samples.retries.to_value()),
            ("transport_errors", self.samples.transport_errors.to_value()),
            (
                "stragglers",
                Value::Array(
                    self.stragglers
                        .iter()
                        .map(|(trace, latency_ms)| {
                            Value::object([
                                ("trace", Value::string(trace.clone())),
                                ("latency_ms", round3(*latency_ms)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// The report as one-line JSON text.
    pub fn to_json(&self) -> String {
        serde::json::to_string(&self.to_value())
    }
}

fn round3(v: f64) -> Value {
    Value::Float((v * 1000.0).round() / 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn score_computes_rates() {
        let samples = Samples {
            latencies_ms: vec![1.0, 2.0, 3.0, 4.0],
            traces: vec![String::new(); 4],
            ok: 4,
            shed_replies: 4,
            shed_final: 2,
            deadline: 1,
            errors: 1,
            retries: 2,
            transport_errors: 0,
        };
        let report = score(samples, 8.0, Duration::from_secs(1));
        assert_eq!(report.samples.completed(), 8);
        assert!((report.achieved_qps - 8.0).abs() < 1e-9);
        assert!((report.saturation - 1.0).abs() < 1e-9);
        assert!((report.shed_rate - 4.0 / 12.0).abs() < 1e-9);
        assert!((report.mean_ms - 2.5).abs() < 1e-9);
        assert_eq!(report.p50_ms, 2.0);
    }

    #[test]
    fn report_serializes_to_flat_json() {
        let report = score(Samples::default(), 10.0, Duration::from_secs(2));
        let json = report.to_json();
        assert!(json.contains("\"target_qps\":10"), "{json}");
        assert!(json.contains("\"shed_rate\":0"), "{json}");
        assert!(json.contains("\"p99_ms\":0"), "{json}");
    }

    #[test]
    fn stragglers_name_the_p99_tail_worst_first() {
        let n = 200;
        let samples = Samples {
            latencies_ms: (1..=n).map(f64::from).collect(),
            // Every odd sample is traced; even ones (e.g. the 200ms worst)
            // are untraced writes and must not appear.
            traces: (1..=n)
                .map(|i| {
                    if i % 2 == 1 {
                        format!("{i:016x}")
                    } else {
                        String::new()
                    }
                })
                .collect(),
            ok: n as u64,
            ..Samples::default()
        };
        let report = score(samples, 100.0, Duration::from_secs(2));
        assert_eq!(report.p99_ms, 198.0);
        assert_eq!(report.stragglers.len(), 1, "{:?}", report.stragglers);
        assert_eq!(report.stragglers[0], (format!("{:016x}", 199), 199.0));
        let json = report.to_json();
        assert!(
            json.contains("\"stragglers\":[{\"trace\":\"00000000000000c7\""),
            "{json}"
        );
        // An untraced run reports an empty straggler list, not a panic.
        let report = score(Samples::default(), 10.0, Duration::from_secs(1));
        assert!(report.stragglers.is_empty());
        assert!(report.to_json().contains("\"stragglers\":[]"));
    }

    #[test]
    fn merge_folds_counters_and_latencies() {
        let mut a = Samples {
            latencies_ms: vec![1.0],
            ok: 1,
            ..Samples::default()
        };
        a.merge(Samples {
            latencies_ms: vec![2.0, 3.0],
            ok: 2,
            shed_replies: 1,
            retries: 1,
            ..Samples::default()
        });
        assert_eq!(a.latencies_ms.len(), 3);
        assert_eq!(a.ok, 3);
        assert_eq!(a.shed_replies, 1);
    }
}
