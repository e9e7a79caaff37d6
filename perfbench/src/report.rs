//! Command-line flags in, one JSON result line out — shared by the driver
//! and the layer probe.

use std::collections::HashMap;
use std::fmt::Write as _;

/// Parses `--flag value` pairs into a map keyed by the flag name without
/// its dashes. Anything else is a usage error.
pub fn flags(args: impl Iterator<Item = String>) -> Result<HashMap<String, String>, String> {
    let mut map = HashMap::new();
    let mut args = args;
    while let Some(flag) = args.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got `{flag}`"))?;
        let value = args
            .next()
            .ok_or_else(|| format!("--{name} needs a value"))?;
        map.insert(name.to_string(), value);
    }
    Ok(map)
}

/// Takes and parses one required flag out of a [`flags`] map.
pub fn take<T: std::str::FromStr>(
    flags: &mut HashMap<String, String>,
    name: &str,
) -> Result<T, String> {
    let value = flags
        .remove(name)
        .ok_or_else(|| format!("missing --{name}"))?;
    value
        .parse()
        .map_err(|_| format!("bad value for --{name}: `{value}`"))
}

/// One named measurement.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// The name listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// The unit listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric; `value` must be finite (JSON has no NaN).
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        Metric { name, value, unit }
    }
}

/// Renders metrics as the *inside* of a JSON object (no braces), so the
/// driver can splice the probe's metrics next to its own.
pub fn metrics_fragment(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("writing to a String");
    }
    out
}

/// The result line the benchmark contract asks for.
pub fn result_line(correct: bool, attempted: usize, failed: usize, fragment: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{fragment}}}}}"
    )
}

/// The unsigned integer value of `"field":N` in a one-line JSON reply. The
/// replies are flat enough (and the keys probed unique enough) that a scan
/// does; the driver must not link the crates' serializer.
pub fn json_u64(reply: &str, field: &str) -> Option<u64> {
    let key = format!("\"{field}\":");
    let rest = &reply[reply.find(&key)? + key.len()..];
    let digits = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
    rest[..digits].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scans_counts_out_of_replies() {
        let reply = r#"{"ok":true,"count":49,"answers":[["10"]],"cache":{"hits":7,"misses":0}}"#;
        assert_eq!(json_u64(reply, "count"), Some(49));
        assert_eq!(json_u64(reply, "hits"), Some(7));
        assert_eq!(json_u64(reply, "patched"), None);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let fragment = metrics_fragment(&[
            Metric::new("op_p50_ms", 1.25, "ms"),
            Metric::new("setup_s", 0.5, "s"),
        ]);
        assert_eq!(
            result_line(true, 10, 0, &fragment),
            r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"op_p50_ms": {"value": 1.25, "unit": "ms"}, "setup_s": {"value": 0.5, "unit": "s"}}}"#
        );
    }
}
