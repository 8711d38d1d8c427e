//! The names every later change reports against. `BENCHMARK.json` at the
//! repository root lists the same names, units, directions and bounds;
//! `tests/harness.rs` fails when the two drift apart.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression. Per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the workbook sees. Every workload reports every one of
/// these from its untraced run; which operation `op` and `aux` stand for is
/// fixed per workload (see `Workload::PRIMARY` / `Workload::AUX`).
pub const END_TO_END: &[MetricSpec] = &[
    e2e("op_p50_us", "us", Lower, 0.20),
    e2e("op_tail_us", "us", Lower, 0.25),
    e2e("aux_p50_us", "us", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.20),
    e2e("peak_rss_mb", "MB", Lower, 0.08),
    e2e("setup_s", "s", Lower, 0.25),
];

/// One layer each, measured from this package around the layer's public
/// functions (probes) or read as deltas of `Workbook::metrics_snapshot()`
/// over the traced window (counts). Reported by the traced run only.
pub const PER_LAYER: &[MetricSpec] = &[
    layer("posindex.range_ns", "ns", Lower),
    layer("posindex.insert_at_ns", "ns", Lower),
    layer("gridstore.window_read_us", "us", Lower),
    layer("gridstore.set_ns", "ns", Lower),
    layer("table.scan_window_us", "us", Lower),
    layer("table.update_cell_ns", "ns", Lower),
    layer("table.scan_mrows_per_s", "Mrows/s", Higher),
    layer("pool.hit_ratio", "ratio", Higher),
    layer("pool.writeback_bytes_per_op", "B/op", Lower),
    layer("wal.bytes_per_stmt", "B/stmt", Lower),
    layer("wal.fsyncs_per_stmt", "1/stmt", Lower),
    layer("wal.append_stmt_p50_us", "us", Lower),
    layer("vfs.fsync_p50_us", "us", Lower),
    layer("ckpt.bytes_written", "B", Lower),
    layer("ckpt.mb_per_s", "MB/s", Higher),
    layer("recover.rows_per_s", "rows/s", Higher),
    layer("recover.replay_stmts_per_s", "stmts/s", Higher),
    layer("sql.parse_us", "us", Lower),
    layer("sql.rows_scanned_per_row_out", "rows/row", Lower),
    layer("exec.q1_filter_ms", "ms", Lower),
    layer("exec.q2_topk_ms", "ms", Lower),
    layer("exec.q3_join3_ms", "ms", Lower),
    layer("exec.q4_rangetable_ms", "ms", Lower),
    layer("exec.q5_point_ms", "ms", Lower),
    layer("exec.q6_small_ms", "ms", Lower),
    layer("formula.parse_us", "us", Lower),
    layer("formula.eval_sum100_us", "us", Lower),
    layer("calc.recomputed_per_edit", "cells/op", Lower),
    layer("calc.pass_overhead_us", "us", Lower),
    layer("calc.full_recalc_ms", "ms", Lower),
    layer("bind.cells_diffed_per_stmt", "cells/op", Lower),
    layer("bind.refresh_ms", "ms", Lower),
    layer("bind.noop_sync_ns", "ns", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
];

pub fn spec_of(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}
