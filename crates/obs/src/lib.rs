//! Observability primitives for the DataSpread engine: a registry of named
//! atomic counters/gauges/latency histograms, plus a lightweight span
//! tracer. No dependencies, lock-free on the hot path.
//!
//! Design (see `docs/OBSERVABILITY.md` for the metric catalog):
//!
//! * **Handles are `Arc`-backed.** [`Counter`], [`Gauge`], and
//!   [`Histogram`] clone cheaply; components keep their own handle and bump
//!   it with one relaxed atomic op — no registry lookup, no lock, on the
//!   hot path. The registry only locks on get-or-create and on snapshot.
//! * **Relaxed ordering everywhere.** Metrics are monotonic tallies read
//!   for reporting, not for synchronization; torn cross-counter reads are
//!   acceptable and documented (`docs/CONCURRENCY.md`).
//! * **One-pass [`Registry::snapshot`].** A single walk under the registry
//!   lock copies every value, so exports are one coherent pass rather than
//!   N racy reads spread over time (individual counters are still read
//!   relaxed — coherence is per-pass, not transactional).
//! * **Source-of-truth [`METRICS`] table.** Every metric name the engine
//!   registers or exports must have a row here (enforced by the `xcheck`
//!   `metric-name` check), so the catalog in `docs/OBSERVABILITY.md` and
//!   Prometheus scrapes can never drift from the code.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

// ---- metric handles ------------------------------------------------------

/// A monotonically increasing `u64` counter. Clone freely: every clone
/// shares the same cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh, unregistered counter (components that meter per-instance
    /// state own one of these; aggregation happens at scrape time).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add 1.
    #[inline]
    pub fn bump(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Zero the counter (bench phase boundaries only — Prometheus counters
    /// are otherwise monotonic).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A settable signed gauge (last-write-wins).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A fresh, unregistered gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Set the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjust by a (possibly negative) delta.
    #[inline]
    pub fn adjust(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Fixed-bucket latency histogram. Buckets are cumulative-export,
/// per-bucket-stored: `observe` does one binary search plus two relaxed
/// adds, no allocation, no lock.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistInner>);

#[derive(Debug)]
struct HistInner {
    /// Upper bounds (inclusive), strictly increasing. An implicit `+Inf`
    /// bucket follows.
    bounds: Vec<u64>,
    /// One slot per bound plus the `+Inf` overflow slot.
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

/// Default latency bounds in nanoseconds: 1µs → 1s, one decade apart with
/// a 3× midpoint, which is plenty to tell "page-cache fsync" from "real
/// disk" from "stalled".
pub const LATENCY_NS_BOUNDS: &[u64] = &[
    1_000,
    10_000,
    100_000,
    300_000,
    1_000_000,
    3_000_000,
    10_000_000,
    30_000_000,
    100_000_000,
    1_000_000_000,
];

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new(LATENCY_NS_BOUNDS)
    }
}

impl Histogram {
    /// A fresh histogram over the given inclusive upper bounds (must be
    /// strictly increasing; an `+Inf` bucket is appended implicitly).
    pub fn new(bounds: &[u64]) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        let counts = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(HistInner {
            bounds: bounds.to_vec(),
            counts,
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }))
    }

    /// Record one observation (e.g. elapsed nanoseconds).
    #[inline]
    pub fn observe(&self, v: u64) {
        let i = self.0.bounds.partition_point(|&b| b < v);
        self.0.counts[i].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a [`Duration`] in nanoseconds.
    #[inline]
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// One-pass copy of the bucket counts.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            bounds: self.0.bounds.clone(),
            counts: self
                .0
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum: self.0.sum.load(Ordering::Relaxed),
            count: self.0.count.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Inclusive upper bounds; the final slot of `counts` is `+Inf`.
    pub bounds: Vec<u64>,
    /// Per-bucket (non-cumulative) counts, one per bound plus overflow.
    pub counts: Vec<u64>,
    /// Sum of all observations.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
}

// ---- the source-of-truth metric table ------------------------------------

/// What a metric is, for export formatting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic tally.
    Counter,
    /// Settable level.
    Gauge,
    /// Fixed-bucket distribution.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` word.
    pub fn as_str(&self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One row of the [`METRICS`] registry: the canonical name, kind, and help
/// text of a metric the engine exports.
#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    /// Prometheus-legal name: `[a-z0-9_]+`.
    pub name: &'static str,
    /// Counter, gauge, or histogram.
    pub kind: MetricKind,
    /// One-line description (the `# HELP` text).
    pub help: &'static str,
}

/// Every metric name the engine registers or exports. The `xcheck`
/// `metric-name` check enforces that names used at call sites appear here,
/// are unique, match `[a-z0-9_]+`, and have a row in
/// `docs/OBSERVABILITY.md`.
pub const METRICS: &[MetricSpec] = &[
    MetricSpec {
        name: "wal_appends",
        kind: MetricKind::Counter,
        help: "WAL records appended (ops, BEGIN/COMMIT frames included)",
    },
    MetricSpec {
        name: "wal_commits",
        kind: MetricKind::Counter,
        help: "WAL transactions committed (explicit commits plus autocommits)",
    },
    MetricSpec {
        name: "wal_fsyncs",
        kind: MetricKind::Counter,
        help: "WAL fsync calls issued by the group-commit leader",
    },
    MetricSpec {
        name: "wal_poison_flips",
        kind: MetricKind::Counter,
        help: "Times the WAL writer flipped into the sticky poisoned state",
    },
    MetricSpec {
        name: "table_page_reads",
        kind: MetricKind::Counter,
        help: "Logical table page reads by live-table DML and scans (TableStats)",
    },
    MetricSpec {
        name: "table_page_writes",
        kind: MetricKind::Counter,
        help: "Logical table page writes by DML and schema changes (TableStats)",
    },
    MetricSpec {
        name: "vfs_file_reads",
        kind: MetricKind::Counter,
        help: "Positioned reads issued through the metered Vfs",
    },
    MetricSpec {
        name: "vfs_read_bytes",
        kind: MetricKind::Counter,
        help: "Bytes read through the metered Vfs",
    },
    MetricSpec {
        name: "vfs_file_writes",
        kind: MetricKind::Counter,
        help: "Positioned writes issued through the metered Vfs",
    },
    MetricSpec {
        name: "vfs_write_bytes",
        kind: MetricKind::Counter,
        help: "Bytes written through the metered Vfs",
    },
    MetricSpec {
        name: "vfs_fsyncs",
        kind: MetricKind::Counter,
        help: "File and directory syncs issued through the metered Vfs",
    },
    MetricSpec {
        name: "vfs_fsync_ns",
        kind: MetricKind::Histogram,
        help: "Latency of metered Vfs sync calls, nanoseconds",
    },
    MetricSpec {
        name: "exec_queries",
        kind: MetricKind::Counter,
        help: "SELECT statements executed",
    },
    MetricSpec {
        name: "exec_rows_scanned",
        kind: MetricKind::Counter,
        help: "Rows produced by leaf scans (table and range scans)",
    },
    MetricSpec {
        name: "exec_rows_output",
        kind: MetricKind::Counter,
        help: "Rows returned to clients by SELECT statements",
    },
    MetricSpec {
        name: "exec_join_build_rows",
        kind: MetricKind::Counter,
        help: "Rows materialized into join build sides",
    },
    MetricSpec {
        name: "exec_join_probe_rows",
        kind: MetricKind::Counter,
        help: "Rows streamed through join probe sides",
    },
    MetricSpec {
        name: "calc_passes",
        kind: MetricKind::Counter,
        help: "Formula recomputation passes run",
    },
    MetricSpec {
        name: "calc_cells_dirtied",
        kind: MetricKind::Counter,
        help: "Cell positions marked dirty by grid edits",
    },
    MetricSpec {
        name: "calc_cells_recomputed",
        kind: MetricKind::Counter,
        help: "Formula cells evaluated or poisoned with #CYCLE!",
    },
    MetricSpec {
        name: "calc_topo_depth",
        kind: MetricKind::Gauge,
        help: "Topological depth (levels) of the last recompute pass",
    },
    MetricSpec {
        name: "calc_graph_nodes_visited",
        kind: MetricKind::Counter,
        help: "Formula cells recompute passes examined (each pass's work set)",
    },
    MetricSpec {
        name: "calc_range_memo_hits",
        kind: MetricKind::Counter,
        help: "Aggregate range folds served from a recompute pass's memo instead of a walk",
    },
    MetricSpec {
        name: "calc_index_stabs",
        kind: MetricKind::Counter,
        help: "Point stabs of the formula dependents index: one per dirty position or work-set member on a sheet some formula reads, one per poisoned formula outside the pass",
    },
    MetricSpec {
        name: "bind_refreshes",
        kind: MetricKind::Counter,
        help: "Bound-region refresh passes that re-rendered a table",
    },
    MetricSpec {
        name: "bind_cells_diffed",
        kind: MetricKind::Counter,
        help: "Sheet cells actually rewritten by binding sync diffs",
    },
    MetricSpec {
        name: "spans_recorded",
        kind: MetricKind::Counter,
        help: "Spans completed and recorded by the tracer",
    },
    MetricSpec {
        name: "spans_slow",
        kind: MetricKind::Counter,
        help: "Spans whose duration exceeded the slow-op threshold",
    },
];

/// The spec for `name`, if it is a registered metric.
pub fn spec_of(name: &str) -> Option<&'static MetricSpec> {
    METRICS.iter().find(|s| s.name == name)
}

/// Prometheus name rule this repo enforces: `[a-z0-9_]+`.
pub fn is_valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
}

// ---- the registry --------------------------------------------------------

#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A named collection of metric handles. Get-or-create takes the registry
/// lock once; the returned handle is then lock-free forever.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Metric>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        debug_assert!(is_valid_metric_name(name), "bad metric name {name:?}");
        let mut m = self.lock();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c.clone(),
            other => panic_kind(name, other),
        }
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        debug_assert!(is_valid_metric_name(name), "bad metric name {name:?}");
        let mut m = self.lock();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::new()))
        {
            Metric::Gauge(g) => g.clone(),
            other => panic_kind(name, other),
        }
    }

    /// Get or create the histogram `name` over `bounds`.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        debug_assert!(is_valid_metric_name(name), "bad metric name {name:?}");
        let mut m = self.lock();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::new(bounds)))
        {
            Metric::Histogram(h) => h.clone(),
            other => panic_kind(name, other),
        }
    }

    /// Attach an existing counter handle under `name`, replacing any prior
    /// registration — how a component-owned counter (a WAL's)
    /// becomes scrape-visible without moving its hot path through the
    /// registry.
    pub fn register_counter(&self, name: &str, c: &Counter) {
        debug_assert!(is_valid_metric_name(name), "bad metric name {name:?}");
        self.lock()
            .insert(name.to_string(), Metric::Counter(c.clone()));
    }

    /// Attach an existing histogram handle under `name` (see
    /// [`Registry::register_counter`]).
    pub fn register_histogram(&self, name: &str, h: &Histogram) {
        debug_assert!(is_valid_metric_name(name), "bad metric name {name:?}");
        self.lock()
            .insert(name.to_string(), Metric::Histogram(h.clone()));
    }

    /// One coherent pass over every registered metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let m = self.lock();
        let samples = m
            .iter()
            .map(|(name, metric)| Sample {
                name: name.clone(),
                value: match metric {
                    Metric::Counter(c) => SampleValue::Counter(c.get()),
                    Metric::Gauge(g) => SampleValue::Gauge(g.get()),
                    Metric::Histogram(h) => SampleValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        Snapshot { samples }
    }
}

fn panic_kind(name: &str, other: &Metric) -> ! {
    let kind = match other {
        Metric::Counter(_) => "counter",
        Metric::Gauge(_) => "gauge",
        Metric::Histogram(_) => "histogram",
    };
    panic!("metric `{name}` is already registered as a {kind}")
}

/// The process-wide registry, for callers without a component-scoped one.
/// Engine components prefer per-workbook registries (test isolation);
/// `global()` exists so ad-hoc tools and future long-running servers share
/// one scrape surface.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

// ---- snapshots and export formats ----------------------------------------

/// One exported metric value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SampleValue {
    /// Monotonic tally.
    Counter(u64),
    /// Settable level.
    Gauge(i64),
    /// Distribution copy.
    Histogram(HistSnapshot),
}

/// A named sample in a [`Snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sample {
    /// Metric name (`[a-z0-9_]+`).
    pub name: String,
    /// The copied value.
    pub value: SampleValue,
}

/// A one-pass copy of a registry (plus any scrape-time computed samples),
/// renderable as Prometheus text or JSON.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Samples, kept sorted by name via [`Snapshot::sort`].
    pub samples: Vec<Sample>,
}

impl Snapshot {
    /// Append a computed counter sample (scrape-time aggregation).
    pub fn push_counter(&mut self, name: &str, v: u64) {
        debug_assert!(is_valid_metric_name(name), "bad metric name {name:?}");
        self.samples.push(Sample {
            name: name.to_string(),
            value: SampleValue::Counter(v),
        });
    }

    /// Append a computed gauge sample.
    pub fn push_gauge(&mut self, name: &str, v: i64) {
        debug_assert!(is_valid_metric_name(name), "bad metric name {name:?}");
        self.samples.push(Sample {
            name: name.to_string(),
            value: SampleValue::Gauge(v),
        });
    }

    /// The counter value of `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.samples.iter().find(|s| s.name == name).and_then(|s| {
            if let SampleValue::Counter(v) = s.value {
                Some(v)
            } else {
                None
            }
        })
    }

    /// Sort samples by name; later pushes for the same name win (stable
    /// sort keeps first — callers avoid duplicates, xcheck enforces names).
    pub fn sort(&mut self) {
        self.samples.sort_by(|a, b| a.name.cmp(&b.name));
    }

    /// Prometheus text exposition format (`# HELP`/`# TYPE` from
    /// [`METRICS`] when the name is cataloged).
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        for s in &self.samples {
            let spec = spec_of(&s.name);
            if let Some(spec) = spec {
                out.push_str(&format!("# HELP {} {}\n", s.name, spec.help));
                out.push_str(&format!("# TYPE {} {}\n", s.name, spec.kind.as_str()));
            }
            match &s.value {
                SampleValue::Counter(v) => out.push_str(&format!("{} {}\n", s.name, v)),
                SampleValue::Gauge(v) => out.push_str(&format!("{} {}\n", s.name, v)),
                SampleValue::Histogram(h) => {
                    let mut cum = 0u64;
                    for (i, c) in h.counts.iter().enumerate() {
                        cum += c;
                        let le = match h.bounds.get(i) {
                            Some(b) => b.to_string(),
                            None => "+Inf".to_string(),
                        };
                        out.push_str(&format!("{}_bucket{{le=\"{}\"}} {}\n", s.name, le, cum));
                    }
                    out.push_str(&format!("{}_sum {}\n", s.name, h.sum));
                    out.push_str(&format!("{}_count {}\n", s.name, h.count));
                }
            }
        }
        out
    }

    /// A JSON object keyed by metric name. Histograms expand to
    /// `{"buckets": [[le, count], ...], "sum": n, "count": n}` with the
    /// overflow bucket keyed `null`.
    pub fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, s) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":", s.name));
            match &s.value {
                SampleValue::Counter(v) => out.push_str(&v.to_string()),
                SampleValue::Gauge(v) => out.push_str(&v.to_string()),
                SampleValue::Histogram(h) => {
                    out.push_str("{\"buckets\":[");
                    for (j, c) in h.counts.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        match h.bounds.get(j) {
                            Some(b) => out.push_str(&format!("[{b},{c}]")),
                            None => out.push_str(&format!("[null,{c}]")),
                        }
                    }
                    out.push_str(&format!("],\"sum\":{},\"count\":{}}}", h.sum, h.count));
                }
            }
        }
        out.push('}');
        out
    }
}

// ---- span tracing --------------------------------------------------------

/// One completed span in the tracer's ring buffer.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Scope name (static: span sites are compile-time known).
    pub name: &'static str,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// True when `dur_ns` exceeded the slow-op threshold at completion.
    pub slow: bool,
}

#[derive(Debug)]
struct TracerInner {
    ring: Mutex<std::collections::VecDeque<SpanRecord>>,
    cap: usize,
    slow_ns: AtomicU64,
    recorded: Counter,
    slow: Counter,
}

/// A lightweight enter/exit span tracer: completed spans land in a bounded
/// ring buffer (oldest evicted first), and any span over the configurable
/// slow-op threshold is flagged and counted. Clone handles freely.
#[derive(Clone, Debug)]
pub struct Tracer(Arc<TracerInner>);

/// Default slow-op threshold: 10ms — interactive-latency scale.
pub const DEFAULT_SLOW_NS: u64 = 10_000_000;

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(256, Counter::new(), Counter::new())
    }
}

impl Tracer {
    /// A tracer with a ring of `cap` completed spans, reporting through the
    /// given counters (pass registry-created handles to make span tallies
    /// scrape-visible).
    pub fn new(cap: usize, recorded: Counter, slow: Counter) -> Tracer {
        Tracer(Arc::new(TracerInner {
            ring: Mutex::new(std::collections::VecDeque::with_capacity(cap)),
            cap: cap.max(1),
            slow_ns: AtomicU64::new(DEFAULT_SLOW_NS),
            recorded,
            slow,
        }))
    }

    /// Set the slow-op threshold.
    pub fn set_slow_threshold(&self, d: Duration) {
        self.0
            .slow_ns
            .store(d.as_nanos().min(u64::MAX as u128) as u64, Ordering::Relaxed);
    }

    /// The current slow-op threshold in nanoseconds.
    pub fn slow_threshold_ns(&self) -> u64 {
        self.0.slow_ns.load(Ordering::Relaxed)
    }

    /// Enter a scope; the returned guard records the span on drop.
    pub fn span(&self, name: &'static str) -> Span {
        Span {
            tracer: Arc::clone(&self.0),
            name,
            start: Instant::now(),
        }
    }

    /// The most recent completed spans, oldest first.
    pub fn recent(&self) -> Vec<SpanRecord> {
        self.0
            .ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// The recent spans that crossed the slow-op threshold, oldest first.
    pub fn recent_slow(&self) -> Vec<SpanRecord> {
        self.recent().into_iter().filter(|s| s.slow).collect()
    }

    /// Spans recorded since creation.
    pub fn recorded(&self) -> u64 {
        self.0.recorded.get()
    }

    /// Slow spans recorded since creation.
    pub fn slow_count(&self) -> u64 {
        self.0.slow.get()
    }

    fn record(&self, rec: SpanRecord) {
        self.0.recorded.bump();
        if rec.slow {
            self.0.slow.bump();
        }
        let mut ring = self.0.ring.lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() >= self.0.cap {
            ring.pop_front();
        }
        ring.push_back(rec);
    }
}

/// RAII guard for one traced scope (see [`Tracer::span`]).
pub struct Span {
    tracer: Arc<TracerInner>,
    name: &'static str,
    start: Instant,
}

impl Drop for Span {
    fn drop(&mut self) {
        let dur_ns = self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let slow = dur_ns > self.tracer.slow_ns.load(Ordering::Relaxed);
        Tracer(Arc::clone(&self.tracer)).record(SpanRecord {
            name: self.name,
            dur_ns,
            slow,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counters_and_gauges_share_cells_across_clones() {
        let r = Registry::new();
        let a = r.counter("wal_commits");
        let b = r.counter("wal_commits");
        a.bump();
        b.add(2);
        assert_eq!(a.get(), 3);
        let g = r.gauge("calc_topo_depth");
        g.set(7);
        g.adjust(-2);
        assert_eq!(r.gauge("calc_topo_depth").get(), 5);
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper() {
        let h = Histogram::new(&[10, 100, 1000]);
        // Exactly on a bound lands IN that bucket (inclusive upper).
        h.observe(10);
        // Strictly above a bound lands in the next.
        h.observe(11);
        // Below the first bound.
        h.observe(0);
        // Above every bound: the +Inf overflow slot.
        h.observe(1001);
        let s = h.snapshot();
        assert_eq!(s.counts, vec![2, 1, 0, 1]);
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 10 + 11 + 1001);
        assert_eq!(s.bounds, vec![10, 100, 1000]);
    }

    #[test]
    fn histogram_edge_cases_single_bound_and_max() {
        let h = Histogram::new(&[5]);
        h.observe(5);
        h.observe(6);
        h.observe(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.counts, vec![1, 2]);
    }

    #[test]
    fn concurrent_increments_sum_exactly() {
        // N threads x M bumps ≡ N·M, and snapshots taken under concurrent
        // writers are coherent single reads (monotone, never torn).
        const N: usize = 8;
        const M: u64 = 10_000;
        let r = Arc::new(Registry::new());
        let c = r.counter("exec_queries");
        let h = r.histogram("vfs_fsync_ns", &[100, 10_000]);
        let workers: Vec<_> = (0..N)
            .map(|_| {
                let c = c.clone();
                let h = h.clone();
                thread::spawn(move || {
                    for i in 0..M {
                        c.bump();
                        h.observe(i % 20_000);
                    }
                })
            })
            .collect();
        // Snapshot while writers run: counts only grow.
        let mut last = 0;
        for _ in 0..100 {
            let snap = r.snapshot();
            let v = snap.counter("exec_queries").unwrap();
            assert!(v >= last, "counter went backwards: {v} < {last}");
            last = v;
        }
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(c.get(), (N as u64) * M);
        let hs = h.snapshot();
        assert_eq!(hs.count, (N as u64) * M);
        assert_eq!(hs.counts.iter().sum::<u64>(), (N as u64) * M);
    }

    #[test]
    fn snapshot_renders_prometheus_and_json() {
        let r = Registry::new();
        r.counter("wal_commits").add(42);
        r.histogram("vfs_fsync_ns", &[1000]).observe(500);
        let mut snap = r.snapshot();
        snap.push_counter("table_page_reads", 7);
        snap.sort();
        let text = snap.prometheus_text();
        assert!(text.contains("# TYPE wal_commits counter"), "{text}");
        assert!(text.contains("wal_commits 42\n"), "{text}");
        assert!(text.contains("table_page_reads 7\n"), "{text}");
        assert!(
            text.contains("vfs_fsync_ns_bucket{le=\"1000\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("vfs_fsync_ns_bucket{le=\"+Inf\"} 1"),
            "{text}"
        );
        assert!(text.contains("vfs_fsync_ns_count 1"), "{text}");
        let json = snap.json();
        assert!(json.contains("\"wal_commits\":42"), "{json}");
        assert!(
            json.contains(
                "\"vfs_fsync_ns\":{\"buckets\":[[1000,1],[null,0]],\"sum\":500,\"count\":1}"
            ),
            "{json}"
        );
        // Histogram cumulative buckets: every registered METRICS row name
        // in this test is real, so export picked up HELP lines.
        assert!(text.contains("# HELP wal_commits"), "{text}");
    }

    #[test]
    fn metric_name_validation() {
        assert!(is_valid_metric_name("wal_commits"));
        assert!(is_valid_metric_name("a1_b2"));
        assert!(!is_valid_metric_name(""));
        assert!(!is_valid_metric_name("WalCommits"));
        assert!(!is_valid_metric_name("wal-commits"));
        assert!(!is_valid_metric_name("wal.commits"));
    }

    #[test]
    fn metrics_table_is_unique_and_valid() {
        for (i, s) in METRICS.iter().enumerate() {
            assert!(is_valid_metric_name(s.name), "bad name {:?}", s.name);
            assert!(
                !METRICS[..i].iter().any(|p| p.name == s.name),
                "duplicate metric {:?}",
                s.name
            );
            assert!(!s.help.is_empty());
        }
    }

    #[test]
    fn tracer_records_spans_and_flags_slow_ones() {
        let t = Tracer::new(4, Counter::new(), Counter::new());
        t.set_slow_threshold(Duration::from_nanos(0));
        {
            let _s = t.span("sql_execute");
        }
        t.set_slow_threshold(Duration::from_secs(3600));
        {
            let _s = t.span("calc_flush");
        }
        let recent = t.recent();
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].name, "sql_execute");
        assert!(recent[0].slow, "zero threshold flags everything");
        assert!(!recent[1].slow, "huge threshold flags nothing");
        assert_eq!(t.recorded(), 2);
        assert_eq!(t.slow_count(), 1);
        assert_eq!(t.recent_slow().len(), 1);
        // Ring bound: oldest evicted.
        for _ in 0..10 {
            let _s = t.span("calc_flush");
        }
        assert_eq!(t.recent().len(), 4);
        assert_eq!(t.recorded(), 12);
    }

    #[test]
    fn global_registry_is_shared() {
        global().counter("exec_queries").bump();
        assert!(global().snapshot().counter("exec_queries").unwrap() >= 1);
    }
}
