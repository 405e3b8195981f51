//! Result assembly: named metrics with units, the end-to-end figures every
//! workload reports, and the one-line JSON result.

use crate::stats::{median, tail_percentile};

/// Metrics in the order they were measured.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Records one metric.
    ///
    /// # Panics
    /// Panics on a non-finite value: a metric the benchmark cannot compute
    /// is a bug in the benchmark, not a number to report.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.entries.push((name, value, unit));
    }

    /// Records the median and p99 of `samples`, scaled by `scale`, as
    /// `<name>.p50` and `<name>.p99`.
    pub fn put_tail(&mut self, name: &str, samples: &[f64], scale: f64, unit: &'static str) {
        self.put(format!("{name}.p50"), median(samples) * scale, unit);
        self.put(format!("{name}.p99"), tail_percentile(samples, 0.99) * scale, unit);
    }

    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|(n, _, _)| n == name).map(|&(_, value, _)| value)
    }

    /// One line per metric for the human reading stderr.
    pub fn table(&self) -> String {
        self.entries
            .iter()
            .map(|(name, value, unit)| format!("# {name} = {value} {unit}\n"))
            .collect()
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .entries
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// What one measured pass — an open-loop phase and a saturating phase —
/// yields for the end-to-end metrics.  Class 0 is the interactive class.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    /// Saturating phase: median segment rate of requests taken into
    /// service.
    pub capacity_rps: f64,
    /// Saturating phase: share of completions that were correct and within
    /// their class SLO (best-effort completions always count).
    pub good_share: f64,
    /// Open-loop phase from here on.
    pub interactive_sent: usize,
    pub interactive_good: usize,
    pub p50_s: f64,
    pub p99_s: f64,
    pub interactive_p99_s: f64,
    pub lag_p99_s: f64,
}

impl Summary {
    /// Records the end-to-end metrics.
    pub fn end_to_end(&self, setup_s: f64, weights_bytes: usize, m: &mut Metrics) {
        m.put("setup_s", setup_s, "s");
        m.put("throughput_rps", self.capacity_rps, "1/s");
        m.put("goodput_rps", self.capacity_rps * self.good_share, "1/s");
        m.put("p50_ms", self.p50_s * 1e3, "ms");
        m.put("p99_ms", self.p99_s * 1e3, "ms");
        m.put("interactive_p99_ms", self.interactive_p99_s * 1e3, "ms");
        m.put(
            "slo_attainment",
            self.interactive_good as f64 / self.interactive_sent.max(1) as f64,
            "frac",
        );
        m.put("weights_mb", weights_bytes as f64 / 1e6, "MB");
        m.put("peak_rss_mb", peak_rss_mb(), "MB");
    }

    /// Records the tracing overhead: the traced pass (`self`) against an
    /// untraced pass over the same arrivals.
    pub fn overhead_against(&self, untraced: &Summary, m: &mut Metrics) {
        m.put("trace.overhead.throughput", 1.0 - self.capacity_rps / untraced.capacity_rps, "frac");
        m.put("trace.overhead.p50", self.p50_s / untraced.p50_s - 1.0, "frac");
    }
}

/// Peak resident memory of this process, in MB, from `/proc/self/status`.
///
/// # Panics
/// Panics where the kernel does not report `VmHWM` (non-Linux hosts).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib * 1024.0 / 1e6
}

/// The result line: the last line of the benchmark's standard output.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object_with_full_precision() {
        let mut m = Metrics::default();
        m.put("p50_ms", 1.203_456_789_012, "ms");
        m.put("serve.shed.deadline", 12.0, "count");
        let line = result_line(true, 10, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"p50_ms\": \
             {\"value\": 1.203456789012, \"unit\": \"ms\"}, \"serve.shed.deadline\": \
             {\"value\": 12.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn non_finite_metrics_are_rejected() {
        Metrics::default().put("p99_ms", f64::NAN, "ms");
    }
}
