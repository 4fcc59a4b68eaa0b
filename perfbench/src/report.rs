//! A run's result and the lines it prints: one line per metric, then
//! the result object as the last line of standard output.

use crate::spec::Reported;
use std::fmt::Write as _;

/// Errors a run keeps in full; later ones are only counted.
const KEPT_ERRORS: usize = 20;

/// What one run measured and whether every output was right.
#[derive(Default)]
pub struct Outcome {
    /// Rows (or requests) whose output was checked.
    pub attempted: u64,
    /// Checked rows that were wrong.
    pub failed: u64,
    /// Correctness failures, row-level or run-level.
    errors: Vec<String>,
    errors_dropped: usize,
    /// Metric values by name.
    metrics: Vec<(&'static str, f64)>,
    /// Sample counts and other context printed before the metrics.
    notes: Vec<String>,
}

impl Outcome {
    /// Records a run-level correctness failure.
    pub fn error(&mut self, message: String) {
        if self.errors.len() < KEPT_ERRORS {
            self.errors.push(message);
        } else {
            self.errors_dropped += 1;
        }
    }

    /// Records one checked row: a failure when `problem` is set.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(message) = problem {
            self.failed += 1;
            self.error(message);
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            self.metrics.iter().all(|(n, _)| *n != name),
            "{name} set twice"
        );
        self.metrics.push((name, value));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.errors_dropped == 0 && self.failed == 0 && self.attempted > 0
    }

    fn value(&self, name: &str) -> Option<f64> {
        let value = self.metrics.iter().find(|(n, _)| *n == name)?.1;
        assert!(value.is_finite(), "metric {name} is {value}");
        Some(value)
    }

    /// Prints the notes, one `name = value unit` line per reported
    /// metric with the reason it is reported, the errors, and last the
    /// result object. A run cut short by an error may lack metrics; it
    /// prints no result object.
    pub fn print(&self, reported: &[Reported]) {
        for note in &self.notes {
            println!("# {note}");
        }
        for m in reported {
            if let Some(value) = self.value(m.name) {
                println!("{} = {value} {}  # {}", m.name, m.unit, m.about);
            }
        }
        for e in &self.errors {
            eprintln!("error: {e}");
        }
        if self.errors_dropped > 0 {
            eprintln!("error: ... and {} more", self.errors_dropped);
        }
        if let Some(json) = self.result_json(reported) {
            println!("{json}");
        }
    }

    /// The result object: `correct`, `attempted`, `failed` and every
    /// reported metric with its unit; `None` while a metric is missing.
    pub fn result_json(&self, reported: &[Reported]) -> Option<String> {
        let metrics = reported
            .iter()
            .map(|m| {
                let value = self.value(m.name)?;
                Some(format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                ))
            })
            .collect::<Option<Vec<String>>>()?;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_object_carries_every_reported_metric() {
        let mut o = Outcome::default();
        o.check(None);
        o.set("latency_ms", 1.25);
        o.set("setup_s", 0.5);
        let reported = [
            Reported {
                name: "latency_ms",
                unit: "ms",
                about: "",
            },
            Reported {
                name: "setup_s",
                unit: "s",
                about: "",
            },
        ];
        let json = o.result_json(&reported).unwrap();
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn a_missing_metric_withholds_the_result_object() {
        let mut o = Outcome::default();
        o.check(None);
        let reported = [Reported {
            name: "latency_ms",
            unit: "ms",
            about: "",
        }];
        assert_eq!(o.result_json(&reported), None);
    }

    #[test]
    fn one_wrong_row_makes_the_run_incorrect() {
        let mut o = Outcome::default();
        o.check(None);
        assert!(o.correct());
        o.check(Some("row 3 differs".to_string()));
        assert!(!o.correct());
        assert_eq!((o.attempted, o.failed), (2, 1));
    }

    #[test]
    fn a_run_that_checked_nothing_is_not_correct() {
        assert!(!Outcome::default().correct());
    }
}
