//! The metrics one run reports, and the result line the benchmark prints.

/// Metrics in report order: `(name, value, unit)`.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.0.iter().all(|(n, _, _)| n != name),
            "metric {name} reported twice"
        );
        self.0.push((name.to_string(), value, unit));
    }

    /// One metric per line, for people reading the log.
    pub fn print_table(&self) {
        for (name, value, unit) in &self.0 {
            println!("  {name:<32} {value:>14.6} {unit}");
        }
    }

    fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// What a workload run hands back to `main`.
pub struct Outcome {
    /// Every checked result matched its reference.
    pub correct: bool,
    /// Statements attempted in the measured window.
    pub attempted: u64,
    /// Statements that failed (errors, refusals, timeouts).
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// A run with a failed or wrong statement: no metrics are reported.
    pub fn wrong(attempted: u64, failed: u64) -> Outcome {
        Outcome {
            correct: false,
            attempted,
            failed,
            metrics: Metrics::default(),
        }
    }

    pub fn json_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics.to_json()
        )
    }
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
