//! The run's result: correctness, operation counts and named metrics,
//! rendered as the one-line JSON object the benchmark prints last.

use std::fmt::Write as _;

use crate::summary::median;

/// A named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Outcome of one benchmark run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Every correctness check passed.
    pub correct: bool,
    /// Requests sent (dialogue turns or SQL statements).
    pub attempted: u64,
    /// Requests that returned an error or an aborted transaction.
    pub failed: u64,
    /// Metrics of the untraced run (end to end).
    pub end_to_end: Vec<Metric>,
    /// Metrics of the traced run (per layer).
    pub per_layer: Vec<Metric>,
    /// Facts about the run that are not gated metrics: sizes, counts,
    /// digests. Printed before the JSON line.
    pub notes: Vec<(String, String)>,
    /// Workload-specific figures printed under their own names before
    /// the JSON line.
    pub detail: Vec<Metric>,
}

impl Report {
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Human-readable lines: notes, then workload detail, then the
    /// metrics of the chosen mode.
    pub fn text_lines(&self, traced: bool) -> Vec<String> {
        let mut lines: Vec<String> = self
            .notes
            .iter()
            .map(|(k, v)| format!("note   {k} = {v}"))
            .collect();
        lines.extend(self.detail.iter().map(|m| metric_line("detail", m)));
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        lines.extend(metrics.iter().map(|m| metric_line("metric", m)));
        lines.push(format!(
            "result correct={} attempted={} failed={}",
            self.correct, self.attempted, self.failed
        ));
        lines
    }

    /// The final JSON line: end-to-end metrics, or per-layer metrics for
    /// a traced run.
    pub fn to_json(&self, traced: bool) -> String {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut body = String::new();
        for (i, m) in metrics.iter().enumerate() {
            if i > 0 {
                body.push_str(", ");
            }
            let _ = write!(
                body,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

fn metric_line(tag: &str, m: &Metric) -> String {
    format!("{tag} {} = {} {}", m.name, m.value, m.unit)
}

/// JSON has no NaN or infinity; a metric that could not be measured is
/// written as `null` so the result is visibly incomplete rather than
/// silently zero.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Metric constructor.
pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// The per-layer metrics every workload reports: set-up phases, one
/// statistics recompute of the workload's largest table, log records and
/// bytes per commit, and the tracing overhead (see
/// [`crate::trace::Tracer::overhead_pct`]).
pub(crate) fn common_layers(
    corpus_s: &[f64],
    load_s: &[f64],
    stats_compute_ms: &[f64],
    wal_records_per_commit: &[f64],
    wal_bytes_per_commit: &[f64],
    overhead_pct: f64,
) -> Vec<Metric> {
    vec![
        metric("setup.corpus_s", median(corpus_s), "s"),
        metric("setup.load_s", median(load_s), "s"),
        metric("stats.compute_ms", median(stats_compute_ms), "ms"),
        metric(
            "wal.records_per_commit",
            median(wal_records_per_commit),
            "count",
        ),
        metric("wal.bytes_per_commit", median(wal_bytes_per_commit), "B"),
        metric("trace.overhead_pct", overhead_pct, "%"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            correct: true,
            attempted: 12,
            failed: 1,
            end_to_end: vec![metric("setup_s", 0.8127, "s"), metric("op_us", 3.0, "us")],
            per_layer: vec![metric("wal.records_per_commit", 3.0, "count")],
            ..Report::default()
        }
    }

    #[test]
    fn json_has_the_result_keys_and_full_precision() {
        assert_eq!(
            sample().to_json(false),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 1, \"metrics\": {\
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"op_us\": {\"value\": 3.0, \"unit\": \"us\"}}}"
        );
        let mut r = sample();
        r.end_to_end[0].value = 1.0 / 3.0;
        assert!(r.to_json(false).contains("0.3333333333333333"));
    }

    #[test]
    fn traced_json_carries_per_layer_metrics() {
        let json = sample().to_json(true);
        assert!(json.contains("wal.records_per_commit"));
        assert!(!json.contains("setup_s"));
    }

    #[test]
    fn unmeasured_values_are_null() {
        let mut r = sample();
        r.end_to_end[1].value = f64::NAN;
        assert!(r.to_json(false).contains("\"op_us\": {\"value\": null"));
    }

    #[test]
    fn text_ends_with_the_result_line() {
        let mut r = sample();
        r.note("n_flows", 4);
        let lines = r.text_lines(false);
        assert_eq!(lines[0], "note   n_flows = 4");
        assert_eq!(
            lines.last().unwrap(),
            "result correct=true attempted=12 failed=1"
        );
    }
}
