//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each public library call it makes in a span
//! (name, start, end, parent span, run id). Spans stay in memory and
//! are written out once, when the run ends. With tracing off nothing
//! is recorded and `begin`/`end` cost one branch.

use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
    pub run: u64,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    run: u64,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (`None` while tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(on: bool, run: u64) -> Self {
        Self {
            on,
            run,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Turn recording on or off between operations (the traced run
    /// interleaves untraced operations to measure its own overhead).
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled with spans open");
        self.on = on;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_s: self.t0.elapsed().as_secs_f64(),
            end_s: f64::NAN,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        self.spans[id].end_s = self.t0.elapsed().as_secs_f64();
    }

    /// Rename the most recently opened span (e.g. once the call it
    /// wraps reported what kind of work it did).
    pub fn relabel_last(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        if let Some(s) = self.spans.last_mut() {
            s.name = name;
        }
    }

    /// Total duration of every span with this name.
    pub fn total_s(&self, name: &str) -> f64 {
        self.named(name).map(|s| s.end_s - s.start_s).sum()
    }

    /// Total self time (duration minus direct children) of every span
    /// with this name.
    pub fn self_s(&self, name: &str) -> f64 {
        let child_time = |id: usize| -> f64 {
            self.spans
                .iter()
                .filter(|c| c.parent == Some(id))
                .map(|c| c.end_s - c.start_s)
                .sum()
        };
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(id, s)| s.end_s - s.start_s - child_time(id))
            .sum()
    }

    pub fn count(&self, name: &str) -> usize {
        self.named(name).count()
    }

    /// Distinct span names, in first-recorded order.
    pub fn names(&self) -> Vec<&'static str> {
        let mut out: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !out.contains(&s.name) {
                out.push(s.name);
            }
        }
        out
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Write every recorded span as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent},\"run\":{}}}\n",
                s.name, s.start_s, s.end_s, s.run
            ));
        }
        std::fs::write(path, out)
    }
}
