//! Host-time spans recorded around the benchmark's calls into each crate.
//!
//! Spans are kept in memory and written out once the run ends. A disabled
//! recorder still times the calls the metrics need (set-up, scans,
//! planning) but records nothing, so the untraced run pays only for the
//! `Instant` reads it would make anyway.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span: what ran, when (µs since the recorder started), and
/// which span caused it.
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span as a child of the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_us: self.now_us(),
            end_us: f64::NAN,
        });
        self.open.push(id);
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("close matches an open span");
        self.spans[id].end_us = self.now_us();
    }

    /// Run `f` inside a span named `name`, returning its result and its
    /// host duration in seconds (timed whether or not spans are recorded).
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        self.open(name);
        let t = Instant::now();
        let r = f();
        let secs = t.elapsed().as_secs_f64();
        self.close();
        (r, secs)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per layer, in ms: each span's duration minus the part of
    /// it its children cover, summed by the layer its call enters.
    /// Children run strictly inside their parent and never overlap each
    /// other (the recorder is a stack).
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut out: BTreeMap<_, _> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
        for s in &self.spans {
            *out.entry(layer_of(s.name)).or_insert(0.0) +=
                (s.end_us - s.start_us - child_us[s.id]).max(0.0) / 1e3;
        }
        out
    }

    /// Every span as one JSON object per line; `root` is the workload span
    /// it belongs to.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let mut root = 0;
        for s in &self.spans {
            if s.parent.is_none() {
                root = s.id;
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"root\": {root}, \"parent\": {parent}, \"name\": \"{}\", \"layer\": \"{}\", \"start_us\": {:.1}, \"end_us\": {:.1}}}",
                s.id, s.name, layer_of(s.name), s.start_us, s.end_us
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

/// Every layer a span can be attributed to; `bench` is the benchmark's
/// own code between calls.
pub const LAYERS: [&str; 10] = [
    "bench",
    "storage",
    "tpcc",
    "sim",
    "planner",
    "migration",
    "query",
    "telemetry",
    "energy",
    "txn",
];

/// The layer (crate) a span's call enters.
fn layer_of(name: &str) -> &'static str {
    match name {
        "build" => "storage",
        "start" => "tpcc",
        "run_for" => "sim",
        "plan_scale_out" => "planner",
        "rebalance_planned" => "migration",
        "scan" => "query",
        "export_timeline_string" => "telemetry",
        "score_jsonl" => "energy",
        "version_stats" => "txn",
        _ => "bench",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new(true);
        s.spans = vec![
            Span {
                id: 0,
                parent: None,
                name: "workload",
                start_us: 0.0,
                end_us: 100.0,
            },
            Span {
                id: 1,
                parent: Some(0),
                name: "run_for",
                start_us: 10.0,
                end_us: 30.0,
            },
            Span {
                id: 2,
                parent: Some(0),
                name: "run_for",
                start_us: 40.0,
                end_us: 90.0,
            },
            Span {
                id: 3,
                parent: Some(2),
                name: "scan",
                start_us: 50.0,
                end_us: 60.0,
            },
        ];
        let m = s.self_ms();
        assert!((m["bench"] - 0.030).abs() < 1e-12);
        assert!((m["sim"] - 0.060).abs() < 1e-12);
        assert!((m["query"] - 0.010).abs() < 1e-12);
    }

    #[test]
    fn disabled_recorder_still_times() {
        let mut s = Spans::new(false);
        let (v, secs) = s.time("x", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert_eq!(s.len(), 0);
    }
}
