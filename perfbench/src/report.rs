//! Checks, metrics and the result line.

/// Checks attempted and failed. A check is one scenario campaign's
/// invariants, one trace's round trip and strict verify, or one digest
/// against its pin (or, away from the pinned seed, against the first
/// repetition of the same run).
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks attempted.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check; `what` describes it when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Failed checks over attempted checks.
    pub fn fail_share(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// One named metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A workload's result: its checks and its metrics.
#[derive(Debug, Default)]
pub struct Report {
    /// Correctness checks.
    pub checks: Checks,
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Adds a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if !m.value.is_finite() {
                    "0".to_string()
                } else if m.unit == "count" && m.value.fract() == 0.0 {
                    format!("{}", m.value as u64)
                } else {
                    format!("{}", m.value)
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks.failed == 0,
            self.checks.attempted.max(1),
            self.checks.failed,
            metrics.join(", ")
        )
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile of `n` samples with at least ten samples
/// beyond it, the `100 (n - 10) / n`th. Below 21 samples that
/// percentile is not above the median, so the tail is the maximum.
pub fn tail(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n <= 20 => v[n - 1],
        n => v[n - 11],
    }
}
