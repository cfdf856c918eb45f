//! Metric collection, answer-check accounting and the output format: one
//! human-readable line per metric, then the result JSON as the last line.

/// One reported metric: the median of its samples.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: usize,
    quartiles: (f64, f64),
}

/// Everything one run reports.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

/// Median of `v` (NaN when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` of `v` (NaN when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

impl Report {
    /// Records the median of `samples` as metric `name`.
    pub fn samples(&mut self, name: &'static str, unit: &'static str, samples: &[f64]) {
        self.metrics.push(Metric {
            name,
            unit,
            value: median(samples),
            samples: samples.len(),
            quartiles: (quantile(samples, 0.25), quantile(samples, 0.75)),
        });
    }

    /// Counts one checked program run; `Err` carries why its answer was
    /// rejected (printed to stderr).
    pub fn check(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            eprintln!("rhpl-perfbench: FAILED {what}: {why}");
        }
    }

    /// Prints every metric, then the result line.
    pub fn print(&self) {
        println!(
            "fail_frac = {} ({} failed of {} checked runs)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        for m in &self.metrics {
            println!(
                "{:<28} = {:>14.6} {:<8} (median of n={}, quartiles {:.6} .. {:.6})",
                m.name, m.value, m.unit, m.samples, m.quartiles.0, m.quartiles.1
            );
        }
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0 && finite,
            self.attempted.max(1),
            if self.attempted == 0 { 1 } else { self.failed },
            metrics.join(", ")
        );
    }
}
