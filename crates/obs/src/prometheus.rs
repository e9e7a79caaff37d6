//! Prometheus text exposition rendering.
//!
//! [`render`] turns an [`Aggregator`](crate::aggregate::Aggregator)
//! snapshot into the classic text format: one `# TYPE` line per metric
//! family, then one sample line per series. Histograms expand into
//! cumulative `_bucket{le=...}` samples plus `_sum` and `_count`. The
//! output ends with a `# EOF` line (the OpenMetrics terminator), which the
//! serve protocol also uses to frame its one multi-line reply (`!metrics`).

use crate::aggregate::{Metric, MetricValue};
use std::fmt::Write as _;

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline are backslash-escaped.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn write_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    out.push('}');
}

/// Renders a float the way Prometheus expects (`+Inf` aside, plain `{}`
/// formatting is valid: integers render without a dot, which the format
/// accepts).
fn render_bound(b: f64) -> String {
    format!("{b}")
}

/// Renders sorted metric series as Prometheus text exposition, terminated
/// by `# EOF`.
pub(crate) fn render(metrics: &[Metric]) -> String {
    let mut out = String::new();
    let mut last_name: Option<&str> = None;
    for m in metrics {
        if last_name != Some(m.name) {
            let kind = match m.value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Histogram(_) => "histogram",
            };
            let _ = writeln!(out, "# TYPE {} {kind}", m.name);
            last_name = Some(m.name);
        }
        match &m.value {
            MetricValue::Counter(v) => {
                out.push_str(m.name);
                write_labels(&mut out, &m.labels, None);
                let _ = writeln!(out, " {v}");
            }
            MetricValue::Histogram(h) => {
                let mut cumulative = 0u64;
                for (i, count) in h.buckets.iter().enumerate() {
                    cumulative += count;
                    let le = if i < h.bounds.len() {
                        render_bound(h.bounds[i])
                    } else {
                        "+Inf".to_string()
                    };
                    let _ = write!(out, "{}_bucket", m.name);
                    write_labels(&mut out, &m.labels, Some(("le", &le)));
                    let _ = writeln!(out, " {cumulative}");
                }
                let _ = write!(out, "{}_sum", m.name);
                write_labels(&mut out, &m.labels, None);
                let _ = writeln!(out, " {}", h.sum);
                let _ = write!(out, "{}_count", m.name);
                write_labels(&mut out, &m.labels, None);
                let _ = writeln!(out, " {}", h.count);
            }
        }
    }
    out.push_str("# EOF\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::Aggregator;
    use crate::Recorder as _;

    #[test]
    fn counters_render_with_type_headers_and_labels() {
        let agg = Aggregator::default();
        agg.counter("recurs_q_total", &[("kernel", "magic")], 3);
        agg.counter("recurs_q_total", &[("kernel", "bounded")], 1);
        agg.counter("recurs_snap_total", &[], 2);
        let text = agg.prometheus_text();
        assert!(text.contains("# TYPE recurs_q_total counter"));
        assert!(text.contains("recurs_q_total{kernel=\"bounded\"} 1"));
        assert!(text.contains("recurs_q_total{kernel=\"magic\"} 3"));
        assert!(text.contains("recurs_snap_total 2"));
        assert!(text.ends_with("# EOF\n"));
        // One TYPE line per family, not per series.
        assert_eq!(text.matches("# TYPE recurs_q_total").count(), 1);
    }

    #[test]
    fn histograms_render_cumulative_buckets() {
        let agg = Aggregator::default();
        agg.observe("recurs_lat_seconds", &[("path", "p")], 0.0005);
        agg.observe("recurs_lat_seconds", &[("path", "p")], 0.0007);
        agg.observe("recurs_lat_seconds", &[("path", "p")], 2.0);
        let text = agg.prometheus_text();
        assert!(text.contains("# TYPE recurs_lat_seconds histogram"));
        assert!(text.contains("recurs_lat_seconds_bucket{path=\"p\",le=\"0.001\"} 2"));
        assert!(text.contains("recurs_lat_seconds_bucket{path=\"p\",le=\"5\"} 3"));
        assert!(text.contains("recurs_lat_seconds_bucket{path=\"p\",le=\"+Inf\"} 3"));
        assert!(text.contains("recurs_lat_seconds_count{path=\"p\"} 3"));
        assert!(text.contains("recurs_lat_seconds_sum{path=\"p\"} 2.0012"));
    }

    #[test]
    fn label_values_escape() {
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn empty_snapshot_is_just_the_terminator() {
        let agg = Aggregator::default();
        assert_eq!(agg.prometheus_text(), "# EOF\n");
    }
}
