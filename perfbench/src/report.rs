//! Order statistics and the result a run prints: human-readable metric
//! lines, then one JSON object as the last line of standard output.

use std::time::Duration;

/// Median of `values` (the mean of the middle two for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile, reported only when at least
/// [`MIN_BEYOND`] samples lie above it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value, where it is an order statistic.
    pub samples: Option<usize>,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
        }
    }

    pub fn with_samples(mut self, n: usize) -> Self {
        self.samples = Some(n);
        self
    }
}

/// What a run measured and how many of its requests or checks failed.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed_requests: u64,
    /// One message per failed output, durability or self check.
    pub failed_checks: Vec<String>,
    /// The metrics printed in the final JSON object.
    pub metrics: Vec<Metric>,
    /// Further figures printed for people only (not in the JSON).
    pub notes: Vec<Metric>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed_checks.push(what());
        }
    }

    pub fn failed(&self) -> u64 {
        self.failed_requests + self.failed_checks.len() as u64
    }

    pub fn correct(&self) -> bool {
        self.failed() == 0 && self.attempted > 0
    }

    /// Prints the human-readable lines, then the JSON result line.
    pub fn print(&self, workload: &str, trace: bool) {
        let mode = if trace { "per-layer" } else { "end-to-end" };
        println!("# {workload} ({mode})");
        for metric in self.metrics.iter().chain(&self.notes) {
            let samples = metric
                .samples
                .map(|n| format!("  n={n}"))
                .unwrap_or_default();
            println!(
                "{:<40} {:>14.4} {}{samples}",
                metric.name, metric.value, metric.unit
            );
        }
        for failure in &self.failed_checks {
            println!("FAILED: {failure}");
        }
        println!("{}", self.to_json());
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed(),
            metrics.join(", ")
        )
    }
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let values: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&values, 90.0), None);
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 90.0), Some(90.0));
        assert_eq!(percentile(&values, 50.0), Some(50.0));
    }

    #[test]
    fn median_of_even_count_averages() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
