//! Result assembly: order statistics and the one-line JSON result.

/// Quantile `q` (0..=1) of `samples` by linear interpolation between order
/// statistics (the "inclusive" method); 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The result of one benchmark run.
#[derive(Default)]
pub struct RunResult {
    /// Verdicts attempted.
    pub attempted: u64,
    /// Attempts that failed: a verdict disagreeing with its oracle, exit
    /// code 2 or 3, a protocol error, a timeout or a refusal.
    pub failed: u64,
    /// Human-readable description of each failure (printed on stderr).
    pub failures: Vec<String>,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl RunResult {
    /// Record one attempt; `Err` counts as a failure.
    pub fn attempt(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(e);
            }
        }
    }

    /// Add a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Share of attempts that delivered a correct verdict.
    pub fn ok_frac(&self) -> f64 {
        1.0 - ratio(self.failed as f64, self.attempted as f64)
    }

    /// True when every attempt agreed with its oracle.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    /// Values print in Rust's shortest round-trip form, every digit kept.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!(r#""{name}": {{"value": {value:?}, "unit": "{unit}"}}"#)
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn result_line_shape() {
        let mut o = RunResult::default();
        o.attempt(Ok(()));
        o.metric("latency_ms", 1.5, "ms");
        let line = o.to_json();
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"latency_ms": {"value": 1.5, "unit": "ms"}}}"#
        );
        assert!(obs::Json::parse(&line.replace("1.5", "1")).is_ok());
    }
}
