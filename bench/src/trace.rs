//! Harness-side spans: kept in memory while the workload runs, written out
//! when it ends, and summarised into self times.
//!
//! The engine is not instrumented here; a span wraps a call *into* the
//! engine (or a probe of one layer's public API), so a span's self time is
//! the part of it no child span covers.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::stats;

/// Handle returned by [`Tracer::begin`]; 0 means "tracing is off".
pub type SpanId = u32;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: SpanId,
    /// 0 for a root span.
    pub parent: SpanId,
    pub name: &'static str,
    /// Sequence number of the operation this span belongs to.
    pub op_seq: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    op_seq: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op_seq: 0,
        }
    }

    pub fn set_on(&mut self, on: bool) {
        // Room for a long window's spans up front: growing the vector in the
        // middle of one would show up as a latency spike of the workload.
        if on && self.spans.capacity() == 0 {
            self.spans.reserve(1 << 20);
        }
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Every span begun from now on belongs to operation `seq`.
    pub fn set_op(&mut self, seq: u64) {
        self.op_seq = seq;
    }

    /// Open a span under the innermost open one. With tracing off this is a
    /// branch and nothing else, so the untraced run executes the same code.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        let parent = self.open.last().copied().unwrap_or(0);
        self.begin_under(parent, name)
    }

    /// Open a span caused by `parent`, which may already have ended: a probe
    /// group follows the operation whose inputs it replays.
    pub fn begin_under(&mut self, parent: SpanId, name: &'static str) -> SpanId {
        if !self.on {
            return 0;
        }
        let id = self.spans.len() as SpanId + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            op_seq: self.op_seq,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: SpanId) {
        if id == 0 {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id as usize - 1].end_ns = now;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line: `{id, parent, name, op_seq, start_ns, end_ns}`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"op_seq\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.name, s.op_seq, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }

    pub fn summary(&self) -> Vec<SpanSummary> {
        summarise(&self.spans)
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// All spans of one name.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanSummary {
    pub name: &'static str,
    pub count: u64,
    pub p50_ns: f64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of durations minus the time direct children cover.
    pub self_ns: u64,
}

pub fn summarise(spans: &[Span]) -> Vec<SpanSummary> {
    // Time of each span that its direct children cover. A child counts only
    // for the part of it inside its parent's interval (span ids are indices).
    let mut child_ns = vec![0u64; spans.len() + 1];
    for s in spans.iter().filter(|s| s.parent != 0) {
        let p = &spans[s.parent as usize - 1];
        let covered = s
            .end_ns
            .min(p.end_ns)
            .saturating_sub(s.start_ns.max(p.start_ns));
        child_ns[s.parent as usize] += covered;
    }
    let mut by_name: BTreeMap<&'static str, (Vec<f64>, u64, u64)> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let e = by_name.entry(s.name).or_default();
        e.0.push(dur as f64);
        e.1 += dur;
        e.2 += dur.saturating_sub(child_ns[s.id as usize]);
    }
    by_name
        .into_iter()
        .map(|(name, (mut durs, total_ns, self_ns))| {
            stats::sort(&mut durs);
            SpanSummary {
                name,
                count: durs.len() as u64,
                p50_ns: stats::percentile(&durs, 50.0),
                total_ns,
                self_ns,
            }
        })
        .collect()
}

/// The per-name table printed after a traced run.
pub fn render_summary(rows: &[SpanSummary]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  {:<28} {:>9} {:>12} {:>12} {:>12}",
        "span", "count", "p50_us", "total_ms", "self_ms"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "  {:<28} {:>9} {:>12.3} {:>12.3} {:>12.3}",
            r.name,
            r.count,
            r.p50_ns / 1e3,
            r.total_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6
        );
    }
    out
}
