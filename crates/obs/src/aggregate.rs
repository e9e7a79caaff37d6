//! In-memory metric aggregation.
//!
//! The [`Aggregator`] is the metrics sink: counters and histograms land in
//! one map of series under one lock, hashed by metric name + label set. A
//! series is found by its borrowed name and labels, in whatever order the
//! caller lists them; its owned [`LabelSet`] is built once, when the series
//! is first seen, so recording into a known series allocates nothing. The
//! series hash is FxHash's unkeyed multiply-rotate, and the map takes it as
//! its own hash: label values are [`Label`]s chosen in code, so no client
//! can pick labels that collide, and a collision only shares a bucket.
//! Events are ignored — provenance goes to the trace sink. A histogram's
//! `count` and `sum` are its counters: no counter restates them, and a
//! reader that wants a total reads the histogram. Reads
//! ([`Aggregator::snapshot`], [`Aggregator::counter_where`],
//! [`Aggregator::histogram_where`]) walk every series; they run at
//! query/report time, never on the hot path.

use crate::{Label, Recorder};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Histogram bucket upper bounds for durations, in seconds: 1µs … 60s.
/// Sub-decade points (2.5×/5×) cover the sub-millisecond range so
/// microsecond-scale warm-cache hits spread across buckets instead of
/// collapsing into one — percentile estimates for the serve hit path stay
/// meaningful. Values above the last bound land in the implicit `+Inf`
/// bucket.
pub const SECONDS_BOUNDS: &[f64] = &[
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 0.1, 0.5,
    1.0, 5.0, 10.0, 60.0,
];

/// A label set, sorted by key (the aggregation identity of a series).
pub type LabelSet = Vec<(String, String)>;

fn label_set(labels: &[Label]) -> LabelSet {
    let mut set: LabelSet = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    set.sort();
    set
}

/// A fixed-bound histogram: cumulative-ready bucket counts plus sum/count.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Bucket upper bounds; `buckets` has one extra slot for `+Inf`.
    pub bounds: &'static [f64],
    /// Per-bucket (non-cumulative) observation counts.
    pub buckets: Vec<u64>,
    /// Sum of all observed values.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
}

impl Histogram {
    fn new(bounds: &'static [f64]) -> Histogram {
        Histogram {
            bounds,
            buckets: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    fn record(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|b| value <= *b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx] += 1;
        self.sum += value;
        self.count += 1;
    }
}

/// The value of one metric series in a [`snapshot`](Aggregator::snapshot).
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotonic counter.
    Counter(u64),
    /// A distribution.
    Histogram(Histogram),
}

/// One metric series: name, sorted labels, and its current value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// The metric name (e.g. `recurs_serve_queries_total`).
    pub name: &'static str,
    /// The series' label set, sorted by key.
    pub labels: LabelSet,
    /// The current value.
    pub value: MetricValue,
}

#[derive(Debug)]
enum Cell {
    Counter(u64),
    Histogram(Histogram),
}

/// One stored series.
#[derive(Debug)]
struct Series {
    name: &'static str,
    labels: LabelSet,
    cell: Cell,
}

impl Series {
    /// Whether this is the series `name` with exactly `labels`, in any
    /// order (a label set names each key once).
    fn is(&self, name: &str, labels: &[(&str, &str)]) -> bool {
        self.name == name
            && self.labels.len() == labels.len()
            && labels
                .iter()
                .all(|(k, v)| self.labels.iter().any(|(sk, sv)| sk == k && sv == v))
    }
}

/// Series keyed by [`series_hash`]; equal hashes share a bucket.
type SeriesMap = HashMap<u64, Vec<Series>, BuildHasherDefault<PassThrough>>;

/// The map's hasher: a key is a [`series_hash`] already, so it is used as
/// it is.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0 = text_hash(self.0, bytes);
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// One FxHash step: mixes `word` into `h`.
fn fx(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// Mixes `bytes` into `h`: their length, then eight bytes at a time.
fn text_hash(h: u64, bytes: &[u8]) -> u64 {
    let word = |chunk: &[u8]| chunk.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b));
    let h = fx(h, bytes.len() as u64);
    bytes.chunks(8).fold(h, |h, chunk| fx(h, word(chunk)))
}

/// A series' identity, hashed without building it: the name, then the sum
/// of the per-label hashes, so the order the labels are listed in does not
/// matter. The last rotation moves the product's well-mixed high bits down
/// to the bits the map picks a slot by.
fn series_hash(name: &str, labels: &[(&str, &str)]) -> u64 {
    let label = |(k, v): &(&str, &str)| text_hash(text_hash(0, k.as_bytes()), v.as_bytes());
    let labels_hash = labels.iter().map(label).fold(0, u64::wrapping_add);
    fx(text_hash(0, name.as_bytes()), labels_hash).rotate_left(26)
}

/// The metric store. See the [module docs](self).
#[derive(Debug, Default)]
pub struct Aggregator {
    series: Mutex<SeriesMap>,
}

impl Aggregator {
    fn lock(&self) -> MutexGuard<'_, SeriesMap> {
        self.series.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Applies `apply` to the series `name` with `labels`, creating it with
    /// `fresh` the first time it is seen.
    fn record(
        &self,
        name: &'static str,
        labels: &[Label],
        fresh: impl FnOnce() -> Cell,
        apply: impl FnOnce(&mut Cell),
    ) {
        let hash = series_hash(name, labels);
        let mut series = self.lock();
        let bucket = series.entry(hash).or_default();
        let at = match bucket.iter().position(|s| s.is(name, labels)) {
            Some(at) => at,
            None => {
                bucket.push(Series {
                    name,
                    labels: label_set(labels),
                    cell: fresh(),
                });
                bucket.len() - 1
            }
        };
        apply(&mut bucket[at].cell);
    }

    /// Current value of the counter with *exactly* this label set.
    pub fn counter_value(&self, name: &str, labels: &[(&'static str, &str)]) -> u64 {
        let hash = series_hash(name, labels);
        let series = self.lock();
        let found = series
            .get(&hash)
            .and_then(|bucket| bucket.iter().find(|s| s.is(name, labels)));
        match found.map(|s| &s.cell) {
            Some(Cell::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Sums a counter across every series whose labels contain all of
    /// `required` (an empty slice sums all series of that name).
    pub fn counter_where(&self, name: &str, required: &[(&str, &str)]) -> u64 {
        let mut total = 0;
        self.each_where(name, required, |cell| {
            if let Cell::Counter(v) = cell {
                total += v;
            }
        });
        total
    }

    /// A histogram's `(count, sum)` across every series whose labels
    /// contain all of `required`, summed the way
    /// [`counter_where`](Aggregator::counter_where) sums a counter.
    pub fn histogram_where(&self, name: &str, required: &[(&str, &str)]) -> (u64, f64) {
        let (mut count, mut sum) = (0, 0.0);
        self.each_where(name, required, |cell| {
            if let Cell::Histogram(h) = cell {
                count += h.count;
                sum += h.sum;
            }
        });
        (count, sum)
    }

    /// Calls `visit` with every series `name` whose labels contain all of
    /// `required`.
    fn each_where(&self, name: &str, required: &[(&str, &str)], mut visit: impl FnMut(&Cell)) {
        for series in self.lock().values().flatten() {
            if series.name == name
                && required
                    .iter()
                    .all(|(rk, rv)| series.labels.iter().any(|(k, v)| k == rk && v == rv))
            {
                visit(&series.cell);
            }
        }
    }

    /// Every series currently held, sorted by `(name, labels)` so output
    /// is deterministic.
    pub fn snapshot(&self) -> Vec<Metric> {
        let mut out: Vec<Metric> = self
            .lock()
            .values()
            .flatten()
            .map(|series| Metric {
                name: series.name,
                labels: series.labels.clone(),
                value: match &series.cell {
                    Cell::Counter(v) => MetricValue::Counter(*v),
                    Cell::Histogram(h) => MetricValue::Histogram(h.clone()),
                },
            })
            .collect();
        out.sort_by(|a, b| (a.name, &a.labels).cmp(&(b.name, &b.labels)));
        out
    }

    /// Renders the current contents in Prometheus text exposition format
    /// (see [`crate::prometheus::render`]).
    pub fn prometheus_text(&self) -> String {
        crate::prometheus::render(&self.snapshot())
    }
}

impl Recorder for Aggregator {
    fn counter(&self, name: &'static str, labels: &[Label], delta: u64) {
        self.record(
            name,
            labels,
            || Cell::Counter(0),
            |cell| match cell {
                Cell::Counter(v) => *v += delta,
                // A name can't be both a counter and a histogram; if a caller
                // mixes kinds, the first emission wins and the rest are
                // dropped rather than corrupting the series.
                Cell::Histogram(_) => {}
            },
        );
    }

    fn observe(&self, name: &'static str, labels: &[Label], value: f64) {
        self.record(
            name,
            labels,
            || Cell::Histogram(Histogram::new(SECONDS_BOUNDS)),
            |cell| match cell {
                Cell::Histogram(h) => h.record(value),
                Cell::Counter(_) => {}
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_aggregate_per_label_set() {
        let agg = Aggregator::default();
        agg.counter("q", &[("kernel", "magic")], 1);
        agg.counter("q", &[("kernel", "magic")], 2);
        agg.counter("q", &[("kernel", "saturate")], 5);
        assert_eq!(agg.counter_value("q", &[("kernel", "magic")]), 3);
        assert_eq!(agg.counter_value("q", &[("kernel", "saturate")]), 5);
        assert_eq!(agg.counter_value("q", &[("kernel", "bounded")]), 0);
        assert_eq!(agg.counter_where("q", &[]), 8);
        assert_eq!(agg.counter_where("q", &[("kernel", "magic")]), 3);
    }

    #[test]
    fn label_order_does_not_split_series() {
        let agg = Aggregator::default();
        agg.counter("c", &[("a", "1"), ("b", "2")], 1);
        agg.counter("c", &[("b", "2"), ("a", "1")], 1);
        assert_eq!(agg.counter_value("c", &[("a", "1"), ("b", "2")]), 2);
        assert_eq!(agg.snapshot().len(), 1);
    }

    #[test]
    fn a_series_is_found_whatever_order_its_labels_are_listed_in() {
        let agg = Aggregator::default();
        let labels = [
            ("kernel", "magic"),
            ("cache", "miss"),
            ("outcome", "complete"),
        ];
        let orders = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        for order in orders {
            let listed = order.map(|i| labels[i]);
            assert_eq!(series_hash("q", &listed), series_hash("q", &labels));
            agg.counter("q", &listed, 1);
            agg.observe("h", &listed, 0.5);
        }
        assert_eq!(
            agg.counter_value("q", &[labels[2], labels[0], labels[1]]),
            6
        );
        assert_eq!(agg.histogram_where("h", &labels), (6, 3.0));
        assert_eq!(agg.snapshot().len(), 2);
    }

    #[test]
    fn two_label_sets_that_hash_alike_stay_two_series() {
        // A collision is planted: a foreign series in the bucket that
        // `c{a="1"}` hashes to, ahead of it.
        let agg = Aggregator::default();
        agg.counter("c", &[("a", "1")], 1);
        let foreign = Series {
            name: "c",
            labels: label_set(&[("a", "2")]),
            cell: Cell::Counter(10),
        };
        let hash = series_hash("c", &[("a", "1")]);
        agg.lock().get_mut(&hash).unwrap().insert(0, foreign);
        agg.counter("c", &[("a", "1")], 1);
        assert_eq!(agg.counter_value("c", &[("a", "1")]), 2);
        let values: Vec<_> = agg
            .snapshot()
            .into_iter()
            .map(|m| (m.labels, m.value))
            .collect();
        let series = |v: &'static str, n| (label_set(&[("a", v)]), MetricValue::Counter(n));
        assert_eq!(values, [series("1", 2), series("2", 10)]);
    }

    #[test]
    fn series_are_told_apart_by_every_label_not_only_the_hash() {
        let agg = Aggregator::default();
        agg.counter("c", &[("a", "1"), ("b", "2")], 1);
        agg.counter("c", &[("a", "2"), ("b", "1")], 10);
        agg.counter("c", &[("a", "1")], 100);
        agg.counter("d", &[("a", "1"), ("b", "2")], 1000);
        assert_eq!(agg.counter_value("c", &[("b", "2"), ("a", "1")]), 1);
        assert_eq!(agg.counter_value("c", &[("a", "2"), ("b", "1")]), 10);
        assert_eq!(agg.counter_value("c", &[("a", "1")]), 100);
        assert_eq!(agg.counter_value("c", &[("a", "1"), ("b", "1")]), 0);
        assert_eq!(agg.counter_where("c", &[("a", "1")]), 101);
        assert_eq!(agg.snapshot().len(), 4);
    }

    #[test]
    fn histogram_where_sums_count_and_sum_across_matching_series() {
        let agg = Aggregator::default();
        agg.observe("lat", &[("kernel", "magic"), ("cache", "miss")], 0.25);
        agg.observe("lat", &[("kernel", "magic"), ("cache", "hit")], 0.5);
        agg.observe("lat", &[("kernel", "frontier")], 2.0);
        agg.counter("lat_total", &[("kernel", "magic")], 9);
        assert_eq!(agg.histogram_where("lat", &[]), (3, 2.75));
        assert_eq!(
            agg.histogram_where("lat", &[("kernel", "magic")]),
            (2, 0.75)
        );
        assert_eq!(
            agg.histogram_where("lat", &[("kernel", "bounded")]),
            (0, 0.0)
        );
        assert_eq!(agg.histogram_where("lat_total", &[]), (0, 0.0));
    }

    #[test]
    fn histogram_buckets_and_sum() {
        let agg = Aggregator::default();
        agg.observe("lat", &[], 0.0005); // ≤ 1e-3
        agg.observe("lat", &[], 0.02); // ≤ 0.1
        agg.observe("lat", &[], 120.0); // +Inf
        let snap = agg.snapshot();
        assert_eq!(snap.len(), 1);
        match &snap[0].value {
            MetricValue::Histogram(h) => {
                assert_eq!(h.count, 3);
                assert!((h.sum - 120.0205).abs() < 1e-9);
                assert_eq!(h.buckets.iter().sum::<u64>(), 3);
                assert_eq!(h.buckets[h.bounds.len()], 1); // +Inf slot
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn microsecond_scale_hits_spread_across_sub_millisecond_buckets() {
        // Warm-cache latencies (a few µs to a few hundred µs) must land in
        // distinct buckets, not collapse into one — otherwise serve p50 on
        // the hit path is meaningless.
        let agg = Aggregator::default();
        for v in [2e-6, 8e-6, 3e-5, 2e-4, 7e-4] {
            agg.observe("hit", &[], v);
        }
        let snap = agg.snapshot();
        match &snap[0].value {
            MetricValue::Histogram(h) => {
                let occupied = h.buckets.iter().filter(|c| **c > 0).count();
                assert_eq!(occupied, 5, "each observation in its own bucket: {h:?}");
                // And the sub-millisecond range alone offers enough
                // resolution: at least 8 bounds at or below 1ms.
                assert!(h.bounds.iter().filter(|b| **b <= 1e-3).count() >= 8);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn mixed_kind_emissions_do_not_corrupt_a_series() {
        let agg = Aggregator::default();
        agg.counter("m", &[], 7);
        agg.observe("m", &[], 1.0);
        assert_eq!(agg.counter_value("m", &[]), 7);
    }

    #[test]
    fn snapshot_is_sorted_and_deterministic() {
        let agg = Aggregator::default();
        agg.counter("b", &[], 1);
        agg.counter("a", &[("x", "2")], 1);
        agg.counter("a", &[("x", "1")], 1);
        let names: Vec<_> = agg
            .snapshot()
            .iter()
            .map(|m| (m.name, m.labels.clone()))
            .collect();
        assert_eq!(
            names,
            [
                ("a", vec![("x".to_string(), "1".to_string())]),
                ("a", vec![("x".to_string(), "2".to_string())]),
                ("b", vec![]),
            ]
        );
    }
}
