//! Workbook-level observability: one metrics registry + span tracer per
//! [`crate::Workbook`], with every engine counter registered under its
//! canonical [`dataspread_obs::METRICS`] name.
//!
//! The registry is *per workbook*, not process-global: tests (and a future
//! multi-tenant server) need each workbook's counters isolated. Components
//! with their own per-instance counters — the attached WAL writer, each
//! table's page-touch stats — are aggregated into the snapshot at scrape time
//! instead, so their hot paths never route through a registry lookup.

use std::sync::Arc;

use dataspread_obs::{Counter, Gauge, Registry, Tracer};
use dataspread_relstore::VfsMeter;

use crate::exec::ExecMetrics;

/// The observability handles a workbook threads through its layers.
#[derive(Debug)]
pub(crate) struct WbObs {
    /// The workbook's metric registry (scraped by `Workbook::metrics_*`).
    pub registry: Arc<Registry>,
    /// Span tracer: bounded ring of completed spans, slow-op flagging.
    pub tracer: Tracer,
    /// Per-operator executor counters, cloned into every `ExecCtx`.
    pub exec: ExecMetrics,
    /// Recompute passes run.
    pub calc_passes: Counter,
    /// Cell positions marked dirty by grid edits.
    pub calc_cells_dirtied: Counter,
    /// Formula cells evaluated or cycle-poisoned.
    pub calc_cells_recomputed: Counter,
    /// Topological depth (levels) of the last recompute pass.
    pub calc_topo_depth: Gauge,
    /// Formula cells examined by recompute passes.
    pub calc_graph_nodes_visited: Counter,
    /// Aggregate range folds served from a recompute pass's memo.
    pub calc_range_memo_hits: Counter,
    /// Point stabs of the dependents index.
    pub calc_index_stabs: Counter,
    /// Bound-region refresh passes that re-rendered a table.
    pub bind_refreshes: Counter,
    /// Sheet cells actually rewritten by binding sync diffs.
    pub bind_cells_diffed: Counter,
    /// I/O meter wrapped around the store's VFS (save/open attach it).
    pub vfs: VfsMeter,
}

impl Default for WbObs {
    fn default() -> Self {
        let registry = Arc::new(Registry::new());
        let exec = ExecMetrics {
            queries: registry.counter("exec_queries"),
            rows_scanned: registry.counter("exec_rows_scanned"),
            rows_output: registry.counter("exec_rows_output"),
            join_build_rows: registry.counter("exec_join_build_rows"),
            join_probe_rows: registry.counter("exec_join_probe_rows"),
        };
        let tracer = Tracer::new(
            256,
            registry.counter("spans_recorded"),
            registry.counter("spans_slow"),
        );
        let vfs = VfsMeter {
            reads: registry.counter("vfs_file_reads"),
            read_bytes: registry.counter("vfs_read_bytes"),
            writes: registry.counter("vfs_file_writes"),
            write_bytes: registry.counter("vfs_write_bytes"),
            fsyncs: registry.counter("vfs_fsyncs"),
            fsync_ns: registry.histogram("vfs_fsync_ns", dataspread_obs::LATENCY_NS_BOUNDS),
        };
        WbObs {
            exec,
            tracer,
            vfs,
            calc_passes: registry.counter("calc_passes"),
            calc_cells_dirtied: registry.counter("calc_cells_dirtied"),
            calc_cells_recomputed: registry.counter("calc_cells_recomputed"),
            calc_topo_depth: registry.gauge("calc_topo_depth"),
            calc_graph_nodes_visited: registry.counter("calc_graph_nodes_visited"),
            calc_range_memo_hits: registry.counter("calc_range_memo_hits"),
            calc_index_stabs: registry.counter("calc_index_stabs"),
            bind_refreshes: registry.counter("bind_refreshes"),
            bind_cells_diffed: registry.counter("bind_cells_diffed"),
            registry,
        }
    }
}

impl WbObs {
    /// Adopt the [`VfsMeter`] a constructor metered its I/O through before
    /// this workbook existed (`Workbook::open_with_vfs` wraps the VFS
    /// before decoding): re-register the meter's handles under the
    /// canonical names so the pre-decode I/O stays visible.
    pub fn adopt_vfs_meter(&mut self, meter: VfsMeter) {
        self.registry
            .register_counter("vfs_file_reads", &meter.reads);
        self.registry
            .register_counter("vfs_read_bytes", &meter.read_bytes);
        self.registry
            .register_counter("vfs_file_writes", &meter.writes);
        self.registry
            .register_counter("vfs_write_bytes", &meter.write_bytes);
        self.registry.register_counter("vfs_fsyncs", &meter.fsyncs);
        self.registry
            .register_histogram("vfs_fsync_ns", &meter.fsync_ns);
        self.vfs = meter;
    }
}
