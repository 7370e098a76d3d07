//! In-memory span recorder for the traced runs.
//!
//! A span is one call into a layer's public entry point, recorded from
//! the benchmark's own code: a name (`"core.mat.train"`), start and end
//! instants, the id of the span that caused it, and the id of the root
//! span it descends from (one root per re-driven unit or job, so the
//! spans of one request share that id). Spans stay in memory until the
//! run ends; [`Recorder::write_jsonl`] writes them out.
//!
//! Nesting is tracked per thread, so a span's children are the spans
//! opened on the same thread while it was open. They never overlap one
//! another, so a span's self time is its duration minus the sum of its
//! children's durations.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub root: usize,
    pub name: &'static str,
    /// Seconds since the recorder was created.
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

thread_local! {
    /// `(span id, root id)` of the spans open on this thread.
    static OPEN: RefCell<Vec<(usize, usize)>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans from any number of threads.
pub struct Recorder {
    origin: Instant,
    next_id: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            next_id: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`, parented to the innermost
    /// span open on this thread.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, root) = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let outer = open.last().copied();
            let root = outer.map_or(id, |(_, root)| root);
            open.push((id, root));
            (outer.map(|(pid, _)| pid), root)
        });
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        OPEN.with(|open| open.borrow_mut().pop());
        let span = Span {
            id,
            parent,
            root,
            name,
            start: (start - self.origin).as_secs_f64(),
            end: (end - self.origin).as_secs_f64(),
        };
        self.spans.lock().expect("span list poisoned").push(span);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span list poisoned").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Sum of the inclusive durations of spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Self time per span name: each span's duration minus the time its
    /// children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut child_time: BTreeMap<usize, f64> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                *child_time.entry(p).or_default() += s.secs();
            }
        }
        let mut out = BTreeMap::new();
        for s in &spans {
            let own = s.secs() - child_time.get(&s.id).copied().unwrap_or(0.0);
            *out.entry(s.name).or_default() += own.max(0.0);
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"root\":{},\"name\":\"{}\",\"start_s\":{},\"end_s\":{}}}",
                s.id, parent, s.root, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_roots_propagate() {
        let rec = Recorder::new();
        rec.span("outer", || {
            rec.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.root, outer.id);
        let selfs = rec.self_times();
        assert!((selfs["outer"] - (outer.secs() - inner.secs())).abs() < 1e-9);
        assert!(selfs["outer"] < outer.secs());
    }
}
