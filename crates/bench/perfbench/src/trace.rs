//! Wall-clock span recorder for the traced run.
//!
//! Spans (name, start, end, parent) are kept in memory and written out once
//! the run ends. The benchmark records them around its own calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! With the recorder off, `span` is a plain call.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// In-memory span and counter store.
pub struct Tracer {
    on: bool,
    /// Work counts are taken from one traced pass plus the sections, which
    /// run exactly once, so every count repeats from run to run.
    counting: bool,
    origin: Instant,
    stack: Vec<usize>,
    spans: Vec<Span>,
    calls: BTreeMap<&'static str, (u64, f64)>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            counting: false,
            origin: Instant::now(),
            stack: Vec::new(),
            spans: Vec::new(),
            calls: BTreeMap::new(),
            counts: BTreeMap::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn set_counting(&mut self, counting: bool) {
        self.counting = self.on && counting;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        let end_ns = self.now_ns();
        self.spans[index].end_ns = end_ns;
        if self.counting {
            let c = self.calls.entry(name).or_default();
            c.0 += 1;
            c.1 += (end_ns - start_ns) as f64 * 1e-9;
        }
        out
    }

    /// Add `v` to the work counter `name` (counted passes only).
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.counting {
            *self.counts.entry(name).or_default() += v;
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Calls of span `name` in the counted passes.
    pub fn calls(&self, name: &str) -> f64 {
        self.calls.get(name).map_or(0.0, |c| c.0 as f64)
    }

    /// Seconds spent in span `name` in the counted passes, to divide by a
    /// work count taken over the same calls.
    pub fn counted_s(&self, name: &str) -> f64 {
        self.calls.get(name).map_or(0.0, |c| c.1)
    }

    /// Total seconds and number of spans named `name`, over every pass.
    pub fn total(&self, name: &str) -> (f64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(t, n), s| {
                (t + (s.end_ns - s.start_ns) as f64 * 1e-9, n + 1)
            })
    }

    /// Mean span duration in seconds (0 when the span never ran).
    pub fn mean_s(&self, name: &str) -> f64 {
        let (t, n) = self.total(name);
        if n == 0 {
            0.0
        } else {
            t / n as f64
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Write every span as one JSON line: name, start and end in
    /// microseconds since the recorder started, parent span index, and self
    /// time (duration minus the time its children cover).
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let dur = s.end_ns - s.start_ns;
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"self_us\":{:.3}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                dur.saturating_sub(child_ns[i]) as f64 / 1e3
            )?;
        }
        out.flush()
    }
}
