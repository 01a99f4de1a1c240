//! Metric collection and the output format: a readable table, then the
//! one-line JSON result.

use crate::stats::{quantile_sorted, Summary};
use std::fmt::Write as _;

/// Named metrics with units, in print order.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Add one metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        debug_assert!(
            self.entries.iter().all(|(n, _, _)| *n != name),
            "{name} twice"
        );
        self.entries.push((name, value, unit));
    }

    /// Add a timing distribution as `<name>.p50`, `<name>.tail` (the
    /// highest percentile with ten samples beyond it) and `<name>.n`.
    pub fn push_summary(&mut self, name: &str, s: Summary, unit: &'static str) {
        self.push(format!("{name}.p50"), s.p50, unit);
        self.push(format!("{name}.tail"), s.tail, unit);
        self.push(format!("{name}.n"), s.n as f64, "count");
    }

    /// Print `name value unit` lines.
    pub fn print_table(&self) {
        for (name, value, unit) in &self.entries {
            println!("{name:<34} {value:>18.6} {unit}");
        }
    }

    /// The result line.
    pub fn to_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // `{}` on f64 prints the shortest string that reads back as
            // the same value: every digit, no rounding.
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// p50, p99 and p99.99 of sorted auction latencies.
pub fn auction_quantiles(l: &[f64]) -> (f64, f64, f64) {
    (
        quantile_sorted(l, 0.50),
        quantile_sorted(l, 0.99),
        quantile_sorted(l, 0.9999),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let mut m = Metrics::default();
        m.push("wall_s", 9.123456789012, "s");
        m.push_summary(
            "x",
            Summary {
                p50: 1.5,
                tail: 7.0,
                n: 3,
            },
            "us",
        );
        let line = m.to_json(true, 10, 0);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"wall_s\": {\"value\": 9.123456789012, \"unit\": \"s\"}, \
             \"x.p50\": {\"value\": 1.5, \"unit\": \"us\"}, \
             \"x.tail\": {\"value\": 7, \"unit\": \"us\"}, \
             \"x.n\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
    }
}
