//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the harness around its own calls into each layer
//! (name, start, end, parent, request id), kept in memory, and written out
//! as JSON Lines when the run ends. A disabled tracer only runs the
//! closure.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that later spans nest under until [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let rec = SpanRec {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
        };
        self.open.push(self.spans.len());
        self.spans.push(rec);
    }

    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let idx = self.open.pop().expect("end without begin");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a leaf span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Self time of every span (its duration minus its children's), in
    /// microseconds, grouped by span name.
    pub fn self_times_us(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            out.entry(s.name).or_default().push(self_ns as f64 / 1e3);
        }
        out
    }

    /// The spans as JSON Lines, one object per span.
    pub fn to_jsonl(&self, tag: &str) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"phase\": \"{tag}\", \"span\": {i}, \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.begin("root");
        t.span("leaf", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.end();
        let st = t.self_times_us();
        assert!(st["leaf"][0] >= 5000.0);
        assert!(st["root"][0] < st["leaf"][0]);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.begin("root");
        assert_eq!(t.span("leaf", || 3), 3);
        t.end();
        assert!(t.spans().is_empty());
    }
}
