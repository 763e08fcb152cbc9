//! Spans recorded around the benchmark's calls into the program.
//!
//! Each thread keeps its own [`SpanLog`] in memory; the logs are merged and
//! written out when the run ends. A span records its name, the update (or
//! read) it belongs to, its parent span, and its start and end. Self time is
//! a span's duration minus the part of it its child spans cover. With
//! tracing off every call is a no-op apart from running the closure.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Shared by every span of one update or read.
    pub id: u64,
    /// Index of the parent span in the same log.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct SpanLog {
    on: bool,
    t0: Instant,
    thread: &'static str,
    spans: Vec<Span>,
}

/// Count, total and self time of all spans with one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl SpanTotals {
    /// Mean duration in milliseconds (0 when no span was recorded).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e6
        }
    }
}

impl SpanLog {
    /// A log whose times count from `t0` (shared by all threads of a run).
    pub fn new(on: bool, t0: Instant, thread: &'static str) -> Self {
        SpanLog {
            on,
            t0,
            thread,
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span; `None` when tracing is off.
    pub fn begin(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Some(self.spans.len() - 1)
    }

    pub fn end(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.now();
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let s = self.begin(name, id, parent);
        let r = f();
        self.end(s);
        r
    }

    /// Records a span whose start and end the caller measured.
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        if self.on {
            let ns = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
            self.spans.push(Span {
                name,
                id,
                parent: None,
                start_ns: ns(start),
                end_ns: ns(end),
            });
        }
    }

    /// Per-name totals, with self time computed against the log's own
    /// child spans.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            let dur = s.end_ns - s.start_ns;
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur - covered.min(dur);
        }
        out
    }

    /// Appends this log's spans to `path` as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let mut w = std::io::BufWriter::new(file);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{{\"thread\":\"{}\",\"index\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                self.thread, s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// One printable line per span name: count, total and self time.
pub fn summary(totals: &BTreeMap<&'static str, SpanTotals>) -> Vec<String> {
    totals
        .iter()
        .map(|(name, t)| {
            format!(
                "span {name}: {} spans, total {:.6} s, self {:.6} s",
                t.count,
                t.total_ns as f64 / 1e9,
                t.self_ns as f64 / 1e9
            )
        })
        .collect()
}

/// Merges per-name totals of several logs.
pub fn merge_totals(logs: &[&SpanLog]) -> BTreeMap<&'static str, SpanTotals> {
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for log in logs {
        for (name, t) in log.totals() {
            let e = out.entry(name).or_default();
            e.count += t.count;
            e.total_ns += t.total_ns;
            e.self_ns += t.self_ns;
        }
    }
    out
}
