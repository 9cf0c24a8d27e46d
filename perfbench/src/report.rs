//! Metric collection and the one-line JSON result.

/// Named metrics with units, in insertion order.
#[derive(Default, Debug)]
pub struct Metrics {
    pub entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.put_owned(name.to_string(), value, unit);
    }

    pub fn put_owned(&mut self, name: String, value: f64, unit: &'static str) {
        // JSON has no NaN or infinity; an undefined ratio reads 0.
        let value = if value.is_finite() { value } else { 0.0 };
        self.entries.push((name, value, unit));
    }
}

/// The result line: `{"correct": …, "attempted": …, "failed": …,
/// "metrics": {name: {"value": …, "unit": …}}}`.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .entries
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A `/proc/self/status` memory field (`VmRSS`, `VmHWM`) in KiB, or 0
/// where the file is unavailable.
pub fn rss_kb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0)
}
