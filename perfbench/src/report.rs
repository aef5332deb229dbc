//! Metric values, their validation, and the result line the benchmark
//! prints last.

use byzcast_harness::record::JsonObject;

/// One named measurement with its unit.
#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Whether `name` is a valid metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1–16 characters from `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Nearest-rank percentile of an ascending slice (`q` in `(0, 1]`); `None`
/// when the slice is empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// The highest of the reported percentiles (p50, p90, p99, p99.9, p99.99)
/// that still has at least ten samples beyond its nearest rank among `n`
/// samples, so a tail figure never rests on a handful of outliers. `None`
/// when even the median lacks ten samples beyond it.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [0.9999, 0.999, 0.99, 0.9, 0.5].into_iter().find(|&q| {
        let rank = (n as f64 * q).ceil() as usize;
        n >= rank + 10
    })
}

/// The median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The benchmark's verdict for one invocation.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The one-line JSON result. Fails on an invalid or repeated name or
    /// unit, or a non-finite value, rather than printing a result the
    /// consumer would have to second-guess.
    pub fn to_json(&self) -> Result<String, String> {
        let mut metrics = JsonObject::new();
        let mut seen = std::collections::BTreeSet::new();
        for m in &self.metrics {
            if !valid_name(&m.name) || !valid_unit(m.unit) {
                return Err(format!(
                    "invalid metric name or unit: {} [{}]",
                    m.name, m.unit
                ));
            }
            if !seen.insert(m.name.as_str()) {
                return Err(format!("metric {} reported twice", m.name));
            }
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value));
            }
            let mut value = JsonObject::new();
            value.f64("value", m.value).str("unit", m.unit);
            metrics.raw(&m.name, &value.finish());
        }
        let mut out = JsonObject::new();
        out.bool("correct", self.correct)
            .u64("attempted", self.attempted)
            .u64("failed", self.failed)
            .raw("metrics", &metrics.finish());
        Ok(out.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_metric_alphabet() {
        for ok in [
            "setup_s",
            "core.packet.data_n",
            "sim.self_s",
            "a",
            "9-lives",
        ] {
            assert!(valid_name(ok), "{ok} should be valid");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "_x",
            "has space",
            "µs",
            "a/b",
            "q\"",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad:?} should be invalid");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn units_follow_the_unit_alphabet() {
        for ok in ["s", "ms", "1/s", "%", "frames/copy", "MiB", "count"] {
            assert!(valid_unit(ok), "{ok} should be valid");
        }
        for bad in ["", "µs", "per copy", "abcdefghijklmnopq"] {
            assert!(!valid_unit(bad), "{bad:?} should be invalid");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        assert_eq!(percentile(&xs, 0.99), Some(99.0));
        assert_eq!(percentile(&xs, 1.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn supported_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(99), Some(0.5));
        assert_eq!(highest_supported_percentile(100), Some(0.9));
        assert_eq!(highest_supported_percentile(999), Some(0.9));
        assert_eq!(highest_supported_percentile(1000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
        assert_eq!(highest_supported_percentile(18_000), Some(0.999));
        assert_eq!(highest_supported_percentile(100_000), Some(0.9999));
        // The definition itself, at every size up to 30k.
        for n in 1..30_000usize {
            if let Some(q) = highest_supported_percentile(n) {
                let rank = (n as f64 * q).ceil() as usize;
                assert!(n - rank >= 10, "n={n} q={q}");
            }
        }
    }

    #[test]
    fn median_handles_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn result_line_rejects_bad_metrics() {
        let metric = |name: &str, value: f64| Metric {
            name: name.to_owned(),
            unit: "s",
            value,
        };
        let mut outcome = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![metric("run_s", 1.25)],
        };
        assert_eq!(
            outcome.to_json().unwrap(),
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"run_s":{"value":1.25,"unit":"s"}}}"#
        );
        outcome.metrics.push(metric("run_s", 2.0));
        assert!(outcome.to_json().is_err(), "duplicate name");
        outcome.metrics = vec![metric("bad name", 1.0)];
        assert!(outcome.to_json().is_err(), "invalid name");
        outcome.metrics = vec![metric("nan", f64::NAN)];
        assert!(outcome.to_json().is_err(), "non-finite value");
    }
}
