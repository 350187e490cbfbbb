//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! Spans live in memory and are written out once, at exit. No span is
//! added inside any crate of the repository: what is timed here is what a
//! caller of the public API sees.

use std::collections::BTreeMap;
use std::fs;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Which migration / replay / probe this span belongs to.
    pub run: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans; nesting follows the call structure.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    run: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    /// Start a new run id; later spans carry it.
    pub fn next_run(&mut self) -> u32 {
        self.run += 1;
        self.run
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Time `f` as a span named `name`, nested under whatever span is open.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            run: self.run,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    /// Self time per span name within `run`, in milliseconds: each span's
    /// duration minus the part its direct children cover.
    pub fn self_time_ms(&self, run: u32) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.run == run {
                let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
                *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
            }
        }
        out
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as one JSON document:
    /// `{"spans": [{"id", "name", "run", "parent", "start_ns", "end_ns"}]}`.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(fs::File::create(path)?);
        writeln!(w, "{{\"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"run\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}{comma}",
                s.name, s.run, s.start_ns, s.end_ns
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_runs_are_separate() {
        let mut t = Tracer::new();
        let run = t.next_run();
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let other = t.next_run();
        t.span("outer", |_| {});
        let own = t.self_time_ms(run);
        assert!(own["inner"] >= 10.0);
        // The outer span did nothing but call its children.
        assert!(own["outer"] < own["inner"] / 2.0);
        assert!(!t.self_time_ms(other).contains_key("inner"));
        assert_eq!(t.len(), 4);
    }
}
