//! The four workloads and the loop that runs any of them.
//!
//! Every workload is closed-loop with one client: the host has two cores and
//! every caller of a workbook waits for its reply. One run is one process:
//! repeated set-up (reported as `setup_s`, not part of the window), a few
//! warm-up operations, a measured window of fixed length, a fixed-count
//! finale where the workload has one, and output checks.

pub mod dml_durable;
pub mod recalc;
pub mod scroll_edit;
pub mod sql_analytics;

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

use dataspread::obs::Snapshot;
use dataspread::Workbook;

use crate::host::{self, Calibration, Host};
use crate::metrics;
use crate::probes::Probes;
use crate::record::{Check, Metric, Record};
use crate::stats;
use crate::trace::{self, Tracer};

/// The names `dsbench run --workload` accepts, in the order `run.sh` and
/// `BENCHMARK.json` list them.
pub const NAMES: [&str; 4] = [
    scroll_edit::ScrollEdit::NAME,
    recalc::Recalc::NAME,
    sql_analytics::SqlAnalytics::NAME,
    dml_durable::DmlDurable::NAME,
];

/// Set-up is repeated this many times per run and the median reported; the
/// last one is the workbook the window runs against.
pub const SETUP_REPEATS: usize = 3;

/// The traced run measures this share of its window with tracing off first,
/// so the tracing overhead is taken within one process.
const UNTRACED_SHARE: f64 = 0.2;

/// How many operations of the seeded stream `op_stream_hash` covers.
pub const HASHED_OPS: usize = 10_000;

/// What one operation did, as the loop needs to know it.
#[derive(Clone, Copy, Debug)]
pub struct Outcome {
    /// Index into the workload's `KINDS`: which latency series the
    /// operation's wall time belongs to.
    pub kind: usize,
    /// Operations attempted (one refresh is six queries).
    pub units: u32,
    /// How many of them returned an error or a wrong answer.
    pub failed: u32,
    /// The position or key the operation touched; the layer probes replay
    /// it against their own structures.
    pub key: u64,
}

/// The window is cut into this many equal slices and a gated percentile is
/// the median of the slices' percentiles. The host slows down for a second
/// or so at a time (memory-bound operations by half as much again); a burst
/// that covers a tenth of the window moved a whole-window p90 by a fifth
/// between runs of one seed, and moves the median of ten slices not at all.
pub const SLICES: usize = 10;

/// Latency series in microseconds: per slice of the window, one per entry
/// of `KINDS`.
pub struct Samples {
    slice: usize,
    by_slice: Vec<Vec<Vec<f64>>>,
}

impl Samples {
    pub fn new(kinds: usize) -> Samples {
        Samples {
            slice: 0,
            by_slice: vec![vec![Vec::new(); kinds]; SLICES],
        }
    }

    /// Samples pushed from now on belong to the slice holding `elapsed`; the
    /// finale's land in the last one.
    pub fn at(&mut self, elapsed: Duration, window: Duration) {
        let slice = elapsed.as_secs_f64() / window.as_secs_f64() * SLICES as f64;
        self.slice = (slice as usize).min(SLICES - 1);
    }

    pub fn push(&mut self, kind: usize, d: Duration) {
        self.by_slice[self.slice][kind].push(d.as_secs_f64() * 1e6);
    }

    fn sorted_of(slice: &[Vec<f64>], kinds: &[usize]) -> Vec<f64> {
        let mut v: Vec<f64> = kinds
            .iter()
            .flat_map(|&k| slice[k].iter().copied())
            .collect();
        stats::sort(&mut v);
        v
    }

    /// The pooled, sorted samples of several kinds over the whole window.
    fn sorted(&self, kinds: &[usize]) -> Vec<f64> {
        let pooled: Vec<Vec<f64>> = (0..self.by_slice[0].len())
            .map(|k| {
                self.by_slice
                    .iter()
                    .flat_map(|s| s[k].iter().copied())
                    .collect()
            })
            .collect();
        Samples::sorted_of(&pooled, kinds)
    }

    /// The median over the slices that have samples of the `p`th percentile
    /// of the pooled `kinds`, and the number of samples behind it.
    pub fn percentile(&self, kinds: &[usize], p: f64) -> (f64, u64) {
        let slices: Vec<Vec<f64>> = self
            .by_slice
            .iter()
            .map(|s| Samples::sorted_of(s, kinds))
            .filter(|v| !v.is_empty())
            .collect();
        let per_slice: Vec<f64> = slices.iter().map(|v| stats::percentile(v, p)).collect();
        (
            stats::median(&per_slice),
            slices.iter().map(|v| v.len() as u64).sum(),
        )
    }
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// Names of the latency series this workload records.
    const KINDS: &'static [&'static str];
    /// The series pooled into `op_p50_us` / `op_tail_us`.
    const PRIMARY: &'static [usize];
    /// The percentile `op_tail_us` reports: the highest that keeps at least
    /// ten samples beyond it at seed speed.
    const TAIL_PCT: f64;
    /// The series `aux_p50_us` reports.
    const AUX: usize;
    /// Operations run before the window opens, so caches fill and lazy
    /// set-up finishes outside it.
    const WARMUP_OPS: usize;
    /// In the traced run a probe group follows every this-many-th operation.
    const PROBE_EVERY: u64;
    /// For the trace summary: root span name → the layer probes that replay
    /// what such an operation asks of each layer, and how many times.
    const ON_PATH: &'static [(&'static str, &'static [(&'static str, f64)])];

    type Op: Hash;

    /// The seeded operation stream. It depends on the seed and the sizes
    /// only — never on timing or on the engine's answers.
    fn ops(seed: u64, smoke: bool) -> Box<dyn Iterator<Item = Self::Op>>;
    fn setup(seed: u64, smoke: bool) -> Self;
    /// The live workbook, for registry snapshots.
    fn workbook(&self) -> &Workbook;
    fn root_span(op: &Self::Op) -> &'static str;
    fn apply(&mut self, op: &Self::Op, tr: &mut Tracer, samples: &mut Samples) -> Outcome;
    /// Fixed-count work after the window; returns (attempted, failed).
    fn finale(&mut self, _tr: &mut Tracer, _samples: &mut Samples) -> (u64, u64) {
        (0, 0)
    }
    /// Output checks, run after the window and the finale.
    fn check(&mut self) -> Vec<Check>;
}

pub struct RunConfig {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
}

/// Hash of the first `n` operations of a workload's seeded stream.
pub fn op_stream_hash<W: Workload>(seed: u64, smoke: bool, n: usize) -> u64 {
    let mut h = DefaultHasher::new();
    for op in W::ops(seed, smoke).take(n) {
        op.hash(&mut h);
    }
    h.finish()
}

pub fn run_by_name(name: &str, cfg: &RunConfig) -> Option<Record> {
    Some(match name {
        scroll_edit::ScrollEdit::NAME => run::<scroll_edit::ScrollEdit>(cfg),
        recalc::Recalc::NAME => run::<recalc::Recalc>(cfg),
        sql_analytics::SqlAnalytics::NAME => run::<sql_analytics::SqlAnalytics>(cfg),
        dml_durable::DmlDurable::NAME => run::<dml_durable::DmlDurable>(cfg),
        _ => return None,
    })
}

fn counter_delta(before: &Snapshot, after: &Snapshot, name: &str) -> f64 {
    after
        .counter(name)
        .unwrap_or(0)
        .saturating_sub(before.counter(name).unwrap_or(0)) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn run<W: Workload>(cfg: &RunConfig) -> Record {
    let host = Host::detect();
    let calib_start = Calibration::measure();
    println!(
        "dsbench {} seed={} window={}s trace={} smoke={} | closed loop, 1 client | host: nproc={} fs={} {} commit={}",
        W::NAME, cfg.seed, cfg.seconds, cfg.trace as u8, cfg.smoke, host.nproc, host.fs, host.rustc, host.commit
    );

    let mut setups = Vec::new();
    let mut w = None;
    for _ in 0..SETUP_REPEATS {
        drop(w.take());
        let t = Instant::now();
        w = Some(W::setup(cfg.seed, cfg.smoke));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut w = w.expect("SETUP_REPEATS is at least one");
    let mem = |at: &str| {
        println!(
            "memory {at}: rss {:.1} MB, peak {:.1} MB",
            host::rss_mb(),
            host::peak_rss_mb()
        )
    };
    mem("after set-up");
    let mut probes = cfg.trace.then(|| Probes::build(cfg.seed, cfg.smoke));

    let mut tr = Tracer::new();
    let mut ops = W::ops(cfg.seed, cfg.smoke);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut seq = 0u64;

    let mut warm = Samples::new(W::KINDS.len());
    for op in ops.by_ref().take(W::WARMUP_OPS) {
        let out = w.apply(&op, &mut tr, &mut warm);
        attempted += out.units as u64;
        failed += out.failed as u64;
        seq += 1;
    }

    // The measured window.
    let window = Duration::from_secs(cfg.seconds);
    let mut samples = Samples::new(W::KINDS.len());
    // A traced run spends the first part of its window with tracing off and
    // keeps those samples apart: the base of `trace.overhead_ratio`.
    let traced_from = window.mul_f64(if cfg.trace { UNTRACED_SHARE } else { 1.0 });
    let mut before_tracing = Samples::new(W::KINDS.len());
    let mut window_units = 0u64;
    let snap_before = w.workbook().metrics_snapshot();
    let t0 = Instant::now();
    loop {
        let elapsed = t0.elapsed();
        if elapsed >= window {
            break;
        }
        tr.set_on(elapsed >= traced_from);
        let op = ops.next().expect("operation streams are endless");
        tr.set_op(seq);
        let series = if cfg.trace && !tr.is_on() {
            &mut before_tracing
        } else {
            &mut samples
        };
        series.at(elapsed, window);
        let t = Instant::now();
        let root = tr.begin(W::root_span(&op));
        let out = w.apply(&op, &mut tr, series);
        tr.end(root);
        series.push(out.kind, t.elapsed());
        window_units += out.units as u64;
        failed += out.failed as u64;
        if tr.is_on() && seq.is_multiple_of(W::PROBE_EVERY) {
            if let Some(p) = probes.as_mut() {
                p.light_group(&mut tr, root, out.key);
            }
        }
        seq += 1;
    }
    let wall = t0.elapsed().as_secs_f64();
    // Memory is read here: what set-up and the window needed. The finale's
    // transient buffers (whole snapshots in memory) come and go with the
    // allocator's mood and are not part of the figure.
    let peak_rss = host::peak_rss_mb();
    mem("after the window");
    let snap_after = w.workbook().metrics_snapshot();
    attempted += window_units;

    tr.set_on(cfg.trace);
    tr.set_op(seq);
    let (fin_attempted, fin_failed) = w.finale(&mut tr, &mut samples);
    attempted += fin_attempted;
    failed += fin_failed;
    let checks = w.check();
    mem("after the finale and checks");

    let mut metrics = Vec::new();
    let mut push = |name: &str, value: f64, n: u64| {
        let spec = metrics::spec_of(name).unwrap_or_else(|| panic!("unlisted metric {name}"));
        metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: spec.unit.to_string(),
            n,
        });
    };

    println!("latency series (us):");
    for (k, name) in W::KINDS.iter().enumerate() {
        let s = samples.sorted(&[k]);
        if s.is_empty() {
            continue;
        }
        println!(
            "  {name:<14} n={:<8} p50={:<12.3} p90={:<12.3} p99={:<12.3} max={:.3}",
            s.len(),
            stats::percentile(&s, 50.0),
            stats::percentile(&s, 90.0),
            stats::percentile(&s, 99.0),
            s[s.len() - 1]
        );
    }

    let (op_p50, op_n) = samples.percentile(W::PRIMARY, 50.0);
    if cfg.trace {
        let p = probes.as_mut().expect("a traced run built its probes");
        p.heavy_suite(&mut tr);
        for (name, value, n) in p.metrics() {
            push(name, value, n);
        }
        let d = |name: &str| counter_delta(&snap_before, &snap_after, name);
        let units = window_units as f64;
        let (hits, misses) = (d("pool_hits"), d("pool_misses"));
        push(
            "pool.hit_ratio",
            ratio(hits, hits + misses),
            (hits + misses) as u64,
        );
        for (name, counter) in [
            ("pool.writeback_bytes_per_op", "pool_writeback_bytes"),
            ("wal.bytes_per_stmt", "vfs_write_bytes"),
            ("wal.fsyncs_per_stmt", "wal_fsyncs"),
            ("calc.recomputed_per_edit", "calc_cells_recomputed"),
            ("bind.cells_diffed_per_stmt", "bind_cells_diffed"),
        ] {
            push(name, ratio(d(counter), units), window_units);
        }
        push(
            "sql.rows_scanned_per_row_out",
            ratio(d("exec_rows_scanned"), d("exec_rows_output")),
            d("exec_rows_output") as u64,
        );
        let (plain_p50, plain_n) = before_tracing.percentile(W::PRIMARY, 50.0);
        push("trace.overhead_ratio", op_p50 / plain_p50, plain_n);

        let path = host::out_dir().join(format!("trace-{}.jsonl", W::NAME));
        tr.write_jsonl(&path)
            .expect("write the span file under bench/out");
        let summary = tr.summary();
        println!("spans: {} written to {}", tr.spans().len(), path.display());
        print!("{}", trace::render_summary(&summary));
        print_layer_shares::<W>(&summary, &metrics);
    } else {
        println!(
            "op = {:?}, tail = p{} ({} samples beyond it), aux = {}; each the median over {SLICES} slices of the window",
            W::PRIMARY.iter().map(|&k| W::KINDS[k]).collect::<Vec<_>>(),
            W::TAIL_PCT,
            stats::samples_beyond(op_n as usize, W::TAIL_PCT),
            W::KINDS[W::AUX]
        );
        let (op_tail, _) = samples.percentile(W::PRIMARY, W::TAIL_PCT);
        let (aux_p50, aux_n) = samples.percentile(&[W::AUX], 50.0);
        push("op_p50_us", op_p50, op_n);
        push("op_tail_us", op_tail, op_n);
        push("aux_p50_us", aux_p50, aux_n);
        push("ops_per_s", window_units as f64 / wall, window_units);
        push("peak_rss_mb", peak_rss, 1);
        push("setup_s", stats::median(&setups), setups.len() as u64);
    }

    drop(w);
    let record = Record {
        workload: W::NAME.to_string(),
        seed: cfg.seed,
        seconds: cfg.seconds,
        trace: cfg.trace,
        smoke: cfg.smoke,
        op_hash: op_stream_hash::<W>(cfg.seed, cfg.smoke, HASHED_OPS),
        attempted,
        failed,
        checks,
        metrics,
        host,
        calib_start,
        calib_end: Calibration::measure(),
    };
    print_record(&record);
    record
}

/// For each kind of operation: what share of its median the on-path layer
/// probes account for, and what is left over.
fn print_layer_shares<W: Workload>(summary: &[trace::SpanSummary], metrics: &[Metric]) {
    println!("layer shares of the median operation (probe p50 x calls / op p50; side structures, so an estimate):");
    for (root, layers) in W::ON_PATH {
        let Some(op) = summary.iter().find(|s| s.name == *root) else {
            continue;
        };
        let mut rest = 1.0;
        print!("  {root:<14} p50={:.3}us:", op.p50_ns / 1e3);
        for (name, calls) in *layers {
            let m = metrics
                .iter()
                .find(|m| m.name == *name)
                .expect("on-path metric is reported");
            let ns = match m.unit.as_str() {
                "ns" => m.value,
                "us" => m.value * 1e3,
                "ms" => m.value * 1e6,
                u => panic!("on-path metric {name} has non-time unit {u}"),
            };
            let share = ns * calls / op.p50_ns;
            rest -= share;
            print!(" {name}x{calls}={:.1}%", share * 100.0);
        }
        println!(" unattributed={:.1}%", rest * 100.0);
    }
}

fn print_record(r: &Record) {
    println!("checks:");
    for c in &r.checks {
        println!(
            "  [{}] {} — {}",
            if c.ok { "ok" } else { "FAILED" },
            c.name,
            c.detail
        );
    }
    println!("metrics:");
    for m in &r.metrics {
        println!(
            "  {:<32} {:>16.4} {:<10} n={}",
            m.name, m.value, m.unit, m.n
        );
    }
    println!(
        "attempted={} failed={} correct={} | calibration: cpu {:.2} -> {:.2} ms (drift {:.1}%), fsync {:.1} -> {:.1} us{}",
        r.attempted,
        r.failed,
        r.correct(),
        r.calib_start.cpu_ms,
        r.calib_end.cpu_ms,
        r.cpu_drift() * 100.0,
        r.calib_start.fsync_us,
        r.calib_end.fsync_us,
        if r.unstable() { " | UNSTABLE: the host's CPU speed moved during this run" } else { "" }
    );
}
