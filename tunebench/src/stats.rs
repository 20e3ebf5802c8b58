//! Percentiles and the one-line JSON result the benchmark ends with.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sort a sample set for [`percentile`].
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// Nearest-rank median; 0 for an empty sample (a bypassed layer).
pub fn median(xs: Vec<f64>) -> f64 {
    percentile(&sorted(xs), 0.5).unwrap_or(0.0)
}

/// One named, unit-tagged number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Render as one JSON line. Values keep every digit (`{}` prints the
    /// shortest exact form of an f64); a non-finite value, which JSON cannot
    /// hold, is written as 0 and makes the line report `correct: false`.
    pub fn to_json(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && finite,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// An f64 as a JSON number: integral values keep a `.0` so every value
/// parses back as a float.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    #[test]
    fn nearest_rank_percentile() {
        let xs = sorted((1..=10).rev().map(f64::from).collect());
        assert_eq!(percentile(&xs, 0.5), Some(5.0));
        assert_eq!(percentile(&xs, 0.9), Some(9.0));
        assert_eq!(percentile(&xs, 0.91), Some(10.0));
        assert_eq!(percentile(&xs, 1.0), Some(10.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[3.5], 0.99), Some(3.5));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(vec![]), 0.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    fn number(v: &Value) -> f64 {
        match v {
            Value::Float(f) => *f,
            Value::Int(i) => *i as f64,
            Value::UInt(u) => *u as f64,
            other => panic!("not a number: {other:?}"),
        }
    }

    #[test]
    fn result_line_round_trips_through_json() {
        let outcome = Outcome {
            correct: true,
            attempted: 1234,
            failed: 0,
            metrics: vec![
                Metric::new("suggest_p50_us", 1012.4567891234, "us"),
                Metric::new("setup_s", 0.000123456789, "s"),
                Metric::new("throughput_rps", 2048.0, "req/s"),
                Metric::new("proto.report_frame_bytes", 3e21, "bytes"),
            ],
        };
        let line = outcome.to_json();
        let v = serde_json::value_from_str(&line).expect("valid JSON");
        assert!(matches!(v.get_field("correct"), Value::Bool(true)));
        assert_eq!(number(v.get_field("attempted")), 1234.0);
        assert_eq!(number(v.get_field("failed")), 0.0);
        let Value::Object(fields) = v.get_field("metrics") else {
            panic!("metrics is not an object");
        };
        assert_eq!(fields.len(), outcome.metrics.len());
        for (m, (name, body)) in outcome.metrics.iter().zip(fields) {
            assert_eq!(&m.name, name);
            assert_eq!(number(body.get_field("value")).to_bits(), m.value.to_bits());
            assert!(matches!(body.get_field("unit"), Value::Str(u) if *u == m.unit));
        }
    }

    #[test]
    fn non_finite_values_fail_the_line() {
        let outcome = Outcome {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![Metric::new("cost_ratio", f64::NAN, "ratio")],
        };
        let v = serde_json::value_from_str(&outcome.to_json()).expect("valid JSON");
        assert!(matches!(v.get_field("correct"), Value::Bool(false)));
    }
}
