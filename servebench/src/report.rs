//! Small measurement helpers: percentiles, process memory, and the
//! metric list the benchmark prints.

use std::fmt::Write as _;

/// The nearest-rank `p`-th percentile (`0 < p < 100`) of `values`,
/// with how many samples lie above it. `None` when there are none.
pub fn percentile(values: &mut [f64], p: f64) -> Option<(f64, usize)> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    let ix = rank.clamp(1, values.len()) - 1;
    Some((values[ix], values.len() - 1 - ix))
}

/// The median of `values`, or 0 when there are none.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    percentile(&mut v, 50.0).map_or(0.0, |(m, _)| m)
}

/// A `kB` field of `/proc/self/status`, in KiB (`VmRSS`, `VmHWM`).
pub fn proc_status_kib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| {
            let rest = line.strip_prefix(field)?.strip_prefix(':')?;
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .unwrap_or(0.0)
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub samples: usize,
}

/// Metrics in the order they were added.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        // JSON has no NaN or infinity; an empty sample reads as 0.
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// One human-readable line per metric.
    pub fn print_lines(&self) {
        for m in &self.0 {
            println!(
                "metric {:<34} {:>14.4} {:<6} samples={}",
                m.name, m.value, m.unit, m.samples
            );
        }
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn result_json(&self, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
            failed == 0
        );
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), Some((500.0, 500)));
        assert_eq!(percentile(&mut v, 99.0), Some((990.0, 10)));
        assert_eq!(percentile(&mut [], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn result_json_has_the_four_keys() {
        let mut m = Metrics::default();
        m.add("latency_ms", 1.25, "ms", 10);
        m.add("setup_s", f64::NAN, "s", 0);
        assert_eq!(
            m.result_json(10, 0),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
    }
}
