//! Per-run JSONL records — the harness's structured observability layer.
//!
//! Every run a sweep executes can be exported as one JSON object on one
//! line: the experiment id, the sweep-point label and parameters, the seed,
//! wall-clock time, every [`RunSummary`] field, each counter set the run
//! carries (keys in the set's declaration order), and any
//! experiment-specific extras. The writer is hand-rolled
//! (the build environment has no serde); non-finite floats serialize as
//! `null` since JSON has no `Infinity`.

use std::fmt::Write as _;

use byzcast_sim::CounterSet;

use crate::summary::RunSummary;

/// An incremental writer for one JSON object.
#[derive(Debug, Default)]
pub struct JsonObject {
    buf: String,
    first: bool,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObject {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        push_json_string(&mut self.buf, key);
        self.buf.push(':');
    }

    /// Adds a string field.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        push_json_string(&mut self.buf, value);
        self
    }

    /// Adds an integer field.
    pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Adds a float field (`null` when non-finite — JSON has no infinity).
    pub fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.buf, "{value}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds a pre-serialized JSON value verbatim.
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.key(key);
        self.buf.push_str(json);
        self
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

fn push_json_string(buf: &mut String, s: &str) {
    buf.push('"');
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(buf, "\\u{:04x}", c as u32);
            }
            c => buf.push(c),
        }
    }
    buf.push('"');
}

/// Identity of one run within a sweep: which experiment, which point (with
/// its parameters), which seed, and where it fell in execution order.
#[derive(Debug)]
pub struct RecordMeta<'a> {
    /// Experiment id, e.g. `"r1_overhead"`.
    pub experiment: &'a str,
    /// Sweep-point label.
    pub label: &'a str,
    /// Sweep-point parameters as key/value strings.
    pub params: &'a [(String, String)],
    /// The seed this replication ran with.
    pub seed: u64,
    /// Index of this run in the (point-major, then seed) grid.
    pub run_index: usize,
    /// Wall-clock time of the run in milliseconds (observability only).
    pub wall_ms: f64,
}

/// Serializes one completed run as a single JSONL line (no trailing
/// newline).
///
/// `extras` are experiment-specific named measurements.
pub fn run_record(
    meta: &RecordMeta<'_>,
    summary: &RunSummary,
    extras: &[(&'static str, f64)],
) -> String {
    // Four counters also appear at the top level, 0 when the run has none.
    let c = summary.counters.unwrap_or_default();
    let mut o = JsonObject::new();
    o.str("experiment", meta.experiment)
        .str("point", meta.label)
        .raw("params", &params_json(meta.params))
        .u64("seed", meta.seed)
        .u64("run_index", meta.run_index as u64)
        .f64("wall_ms", meta.wall_ms)
        .str("protocol", &summary.protocol)
        .u64("n", summary.n as u64)
        .u64("correct", summary.correct as u64)
        .u64("messages", summary.messages as u64)
        .f64("delivery_ratio", summary.delivery_ratio)
        .f64("min_delivery_ratio", summary.min_delivery_ratio)
        .u64("frames_sent", summary.frames_sent)
        .u64("bytes_sent", summary.bytes_sent)
        .u64("data_frames", summary.data_frames)
        .u64("control_frames", summary.control_frames)
        .f64("frames_per_delivery", summary.frames_per_delivery)
        .f64("mean_latency_s", summary.mean_latency_s)
        .f64("p99_latency_s", summary.p99_latency_s)
        .f64("max_latency_s", summary.max_latency_s)
        .u64("collisions", summary.collisions)
        .u64("noise_losses", summary.noise_losses)
        .u64("requests", c.requests_sent)
        .u64("finds", c.finds_sent)
        .u64("recoveries_served", c.recoveries_served)
        .u64("recovered", c.recovered_via_request)
        .u64("store_high_water", summary.store_high_water as u64)
        .u64("true_suspicions", summary.true_suspicions)
        .u64("false_suspicions", summary.false_suspicions);
    if let Some(size) = summary.overlay_size {
        o.u64("overlay_size", size as u64);
    }
    if let Some(ok) = summary.overlay_ok {
        o.bool("overlay_ok", ok);
    }
    if let Some(c) = &summary.counters {
        o.raw("counters", &counters_json(c));
    }
    if !summary.frame_kinds.is_empty() {
        let mut ko = JsonObject::new();
        for (kind, frames, bytes) in &summary.frame_kinds {
            ko.raw(kind, &format!("[{frames},{bytes}]"));
        }
        o.raw("frames_by_kind", &ko.finish());
    }
    if let Some(f) = &summary.faults {
        o.raw("faults", &counters_json(f));
    }
    if let Some(r) = &summary.resources {
        o.raw("resources", &counters_json(r));
    }
    if let Some(r) = &summary.recovery {
        o.raw("recovery", &counters_json(r));
    }
    if !summary.oracle_outcomes.is_empty() {
        let mut oo = JsonObject::new();
        let mut total = 0u64;
        for (oracle, count) in &summary.oracle_outcomes {
            oo.u64(oracle, *count);
            total += count;
        }
        o.raw("oracles", &oo.finish());
        o.u64("violations", total);
    }
    for (name, value) in extras {
        o.f64(name, *value);
    }
    o.finish()
}

/// One counter set as a JSON object, keys in declaration order.
fn counters_json(set: &impl CounterSet) -> String {
    let mut o = JsonObject::new();
    set.visit(&mut |name, value| {
        o.u64(name, value);
    });
    o.finish()
}

fn params_json(params: &[(String, String)]) -> String {
    let mut o = JsonObject::new();
    for (k, v) in params {
        o.str(k, v);
    }
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_builds_valid_json() {
        let mut o = JsonObject::new();
        o.str("a", "x\"y\n")
            .u64("b", 7)
            .f64("c", 1.5)
            .bool("d", true);
        assert_eq!(o.finish(), r#"{"a":"x\"y\n","b":7,"c":1.5,"d":true}"#);
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut o = JsonObject::new();
        o.f64("inf", f64::INFINITY).f64("nan", f64::NAN);
        assert_eq!(o.finish(), r#"{"inf":null,"nan":null}"#);
    }

    #[test]
    fn run_record_is_one_line_with_core_fields() {
        let summary = RunSummary {
            protocol: "byzcast/cds".into(),
            n: 10,
            correct: 9,
            delivery_ratio: 0.875,
            frames_per_delivery: f64::INFINITY,
            overlay_size: Some(4),
            overlay_ok: Some(true),
            counters: Some(Default::default()),
            frame_kinds: vec![("data".into(), 3, 300)],
            ..RunSummary::default()
        };
        let params = vec![("n".to_owned(), "10".to_owned())];
        let meta = RecordMeta {
            experiment: "r1",
            label: "n=10/byzcast",
            params: &params,
            seed: 42,
            run_index: 0,
            wall_ms: 12.5,
        };
        let line = run_record(&meta, &summary, &[("episodes", 2.0)]);
        assert!(!line.contains('\n'));
        assert!(line.contains(r#""experiment":"r1""#));
        assert!(line.contains(r#""params":{"n":"10"}"#));
        assert!(line.contains(r#""seed":42"#));
        assert!(line.contains(r#""frames_per_delivery":null"#));
        assert!(line.contains(r#""overlay_ok":true"#));
        assert!(line.contains(r#""counters":{"data_originated":0"#));
        assert!(line.contains(r#""frames_by_kind":{"data":[3,300]}"#));
        assert!(line.contains(r#""episodes":2"#));
    }
}
