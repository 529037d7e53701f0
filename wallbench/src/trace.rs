//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! library; the library itself is not instrumented beyond its existing
//! `cdpu_telemetry` counters. Spans stay in memory until the run ends and
//! are then written out in one go.
//!
//! The serving engine's calls run on its own worker threads, so their
//! spans (`serve.call`, with `serve.wait` and `serve.service` children)
//! are rebuilt from the engine's event log: they are in the engine's
//! virtual time, placed from the start of the engine run that served
//! them.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the trace's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the trace, if any.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one benchmark operation.
    pub call: u64,
    /// Uncompressed bytes the spanned work covered (0 when not a codec call).
    pub bytes: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A growing list of spans sharing one time origin.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    next_call: u64,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            next_call: 0,
        }
    }

    /// A fresh operation identifier.
    pub fn new_call(&mut self) -> u64 {
        self.next_call += 1;
        self.next_call
    }

    /// Nanoseconds from the trace's origin to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span from its start and end instants and
    /// returns its index (the handle children name as their parent).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        call: u64,
        bytes: u64,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.record_ns(name, start_ns, end_ns, parent, call, bytes)
    }

    /// [`record`](Self::record) with times already in nanoseconds from
    /// the origin.
    pub fn record_ns(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        call: u64,
        bytes: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            call,
            bytes,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span and returns its result with the elapsed time.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        call: u64,
        bytes: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, start, end, parent, call, bytes);
        (out, end - start)
    }

    /// Widens a span's end to `end` (parents are opened before their
    /// children finish).
    pub fn close(&mut self, span: usize, end: Instant) {
        let ns = self.ns(end);
        self.spans[span].end_ns = ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: count, total time, self time (total minus the time
    /// its direct children cover) and bytes, ordered by name.
    pub fn summary(&self) -> BTreeMap<&'static str, NameSummary> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, NameSummary> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += s.duration_ns();
            e.self_ns += s.duration_ns().saturating_sub(child);
            e.bytes += s.bytes;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"call\":{},\"bytes\":{}}}",
                s.name, s.start_ns, s.end_ns, s.call, s.bytes
            )?;
        }
        w.flush()
    }
}

/// Aggregate of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameSummary {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub bytes: u64,
}

impl NameSummary {
    /// Throughput over the spans' total time, MB/s.
    pub fn mb_s(&self) -> f64 {
        self.bytes as f64 * 1e3 / self.total_ns.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Trace::new();
        let o = t.origin;
        let at = |ns: u64| o + Duration::from_nanos(ns);
        let root = t.record("op", at(0), at(100), None, 1, 0);
        let child = t.record("call", at(10), at(70), Some(root), 1, 64);
        t.record("stage", at(20), at(50), Some(child), 1, 64);
        let s = t.summary();
        assert_eq!(s["op"].self_ns, 40);
        assert_eq!(s["call"].self_ns, 30);
        assert_eq!(s["stage"].self_ns, 30);
        assert_eq!(s["call"].bytes, 64);
        // Counting grandchildren against the root would give 10, not 40.
        assert_ne!(s["op"].self_ns, 10);
    }
}
