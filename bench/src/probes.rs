//! Per-layer probes: each layer's public functions timed from outside the
//! engine, on structures this package owns.
//!
//! The probes are built in the traced run's set-up only and are the same in
//! every workload, so a layer's number means the same thing wherever it is
//! read. *Light* probes run as a group after every n-th operation of the
//! traced window, replaying that operation's position or key; each runs once
//! untimed first where it can, because the workload has had the caches since
//! the last group and a cold first call says little about the layer.
//! *Heavy* probes (whole scans, queries, checkpoints, reopens) run a fixed
//! number of times after the window.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use dataspread::formula::{CellProvider, Formula};
use dataspread::gridstore::{CellStore, TiledGrid};
use dataspread::posindex::{CountedBtree, PositionalIndex, RowKey};
use dataspread::relstore::vfs::{os_vfs, FaultPlan, FaultVfs, RecoveryImage, Vfs, VfsFile};
use dataspread::relstore::wal::{WalOp, WalWriter};
use dataspread::relstore::{ColumnDef, Schema, Table, DEFAULT_POLICY};
use dataspread::sql::parse_statement;
use dataspread::types::{CellAddr, CellError, DataType, Range, SheetRef, Value};
use dataspread::{SheetId, Workbook};
use dataspread_testkit::Rng;

use crate::host;
use crate::stats;
use crate::trace::{SpanId, Tracer};
use crate::workloads::scroll_edit::{big_row, PAGE};
use crate::workloads::{dml_durable, recalc, sql_analytics};

/// How many times each heavy probe runs.
const HEAVY_REPS: usize = 11;
/// Statements appended before each probed checkpoint, and replayed by each
/// probed recovery.
const PERSIST_TAIL: usize = 500;

/// A column of numbers standing in for a sheet.
struct Column(Vec<Value>);

impl CellProvider for Column {
    fn cell_value(&self, _sheet: &SheetRef, addr: CellAddr) -> Result<Value, CellError> {
        Ok(self
            .0
            .get(addr.row as usize)
            .cloned()
            .unwrap_or(Value::Empty))
    }
}

pub struct Probes {
    rng: Rng,
    /// Metric name → samples, already in the metric's unit.
    series: BTreeMap<&'static str, Vec<f64>>,

    btree: CountedBtree,
    next_key: RowKey,
    grid: TiledGrid<Value>,
    grid_rows: usize,
    table: Table,
    wal: WalWriter,
    fsync_file: Box<dyn VfsFile>,
    fsync_dir: std::path::PathBuf,
    fsync_offset: u64,
    statements: Vec<String>,
    sum100: Formula,
    column: Column,
    calc: (Workbook, SheetId),
    bind: Workbook,
    exec: Workbook,
    exec_orders: usize,
    persist: Workbook,
    persist_vfs: Arc<FaultVfs>,
    persist_ops: dml_durable::OpGen,
}

/// Where the in-memory file systems keep the probes' files.
const MEM_DIR: &str = "/dsbench-probe";
const FORMULA_SRC: &str = "=SUM(A1:A100)*2+IF(B1>0,A1,0)";

impl Probes {
    pub fn build(seed: u64, smoke: bool) -> Probes {
        let mut rng = Rng::new(seed ^ 0x9A0B);
        let (keys, cells) = if smoke {
            (10_000, 1_000)
        } else {
            (1_000_000, 100_000)
        };

        let mut grid = TiledGrid::default();
        for r in 0..cells as u32 {
            for c in 0..4 {
                grid.set(CellAddr::new(r, c), Value::Int((r + c) as i64));
            }
        }

        let schema = Schema::new(vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("g", DataType::Int),
            ColumnDef::new("v", DataType::Float),
            ColumnDef::new("s", DataType::Text),
        ])
        .expect("side table schema");
        let mut table = Table::new("side", schema, DEFAULT_POLICY);
        for i in 0..cells {
            table
                .insert(big_row(&mut rng, i).2)
                .expect("fill the side table");
        }

        let mem: Arc<dyn Vfs> = Arc::new(FaultVfs::new(FaultPlan::quiet()));
        mem.create_dir_all(Path::new(MEM_DIR))
            .expect("in-memory directory");
        let wal =
            WalWriter::create_with(&mem, Path::new(MEM_DIR).join("wal.dsp"), 1).expect("side WAL");

        let fsync_dir = host::fresh_dir("probe-fsync");
        let fsync_file = os_vfs()
            .create(&fsync_dir.join("probe.bin"))
            .expect("fsync probe file");

        let mut statements = sql_analytics::statements(5, 2, 0).to_vec();
        statements.extend(
            [
                "INSERT INTO events VALUES (17, 3, 12.25, 'n42')",
                "UPDATE ledger SET amount = 99.75 WHERE id = 1234",
                "INSERT INTO ledger VALUES (1234567, 12, 3.5, 'm7')",
                "DELETE FROM ledger WHERE id = 1234567",
            ]
            .map(String::from),
        );

        let (exec, exec_data) = sql_analytics::build(seed, smoke);
        let persist_sizes = dml_durable::Sizes::probe(smoke);
        let (mut persist, _) = dml_durable::build(seed, persist_sizes);
        let persist_vfs = Arc::new(FaultVfs::new(FaultPlan::quiet()));
        persist
            .save_with_vfs(MEM_DIR, persist_vfs.clone())
            .expect("save the persistence probe's workbook in memory");

        Probes {
            series: BTreeMap::new(),
            btree: CountedBtree::from_keys(0..keys as RowKey).expect("side index"),
            next_key: keys as RowKey,
            grid,
            grid_rows: cells,
            table,
            wal,
            fsync_file,
            fsync_dir,
            fsync_offset: 0,
            statements,
            sum100: Formula::parse("=SUM(A1:A100)").expect("probe formula"),
            column: Column((0..100).map(Value::Int).collect()),
            calc: recalc::Layout::new(smoke).build(),
            bind: dml_durable::build(seed, dml_durable::Sizes::new(smoke)).0,
            exec,
            exec_orders: exec_data.orders.len(),
            persist,
            persist_vfs,
            persist_ops: dml_durable::OpGen::new(seed ^ 0x9E45, persist_sizes, 0),
            rng,
        }
    }

    /// Run `f` under a span named `name`; the seconds it took.
    fn span_secs(
        &mut self,
        tr: &mut Tracer,
        name: &'static str,
        mut f: impl FnMut(&mut Self),
    ) -> f64 {
        let s = tr.begin(name);
        let t = Instant::now();
        f(self);
        let secs = t.elapsed().as_secs_f64();
        tr.end(s);
        secs
    }

    /// Time `f` under a span and record `scale × seconds` as one sample of
    /// `metric`.
    fn timed(
        &mut self,
        tr: &mut Tracer,
        metric: &'static str,
        scale: f64,
        f: impl FnMut(&mut Self),
    ) {
        let secs = self.span_secs(tr, metric, f);
        self.record(metric, secs * scale);
    }

    /// [`Probes::timed`] after one untimed call. The workload has had the
    /// caches since the last group; the layer's own cost is what a second
    /// call takes. Only for probes that may run twice.
    fn timed_warm(
        &mut self,
        tr: &mut Tracer,
        metric: &'static str,
        scale: f64,
        mut f: impl FnMut(&mut Self),
    ) {
        f(self);
        self.timed(tr, metric, scale, f);
    }

    fn record(&mut self, metric: &'static str, value: f64) {
        self.series.entry(metric).or_default().push(value);
    }

    /// One group of light probes, caused by the operation whose root span is
    /// `parent` and which touched `key`.
    pub fn light_group(&mut self, tr: &mut Tracer, parent: SpanId, key: u64) {
        let group = tr.begin_under(parent, "probe.group");
        let key = key as usize;
        // Several calls per sample where one call is near the clock's grain.
        const N: usize = 16;
        let at = move |j: usize, len: usize| (key + j * 7919) % (len - PAGE);

        let len = self.btree.len();
        self.timed_warm(tr, "posindex.range_ns", 1e9 / N as f64, |p| {
            for j in 0..N {
                std::hint::black_box(p.btree.range(at(j, len), PAGE));
            }
        });
        self.timed(tr, "posindex.insert_at_ns", 1e9 / N as f64, |p| {
            for j in 0..N {
                p.btree
                    .insert_at(at(j, len), p.next_key + j as RowKey)
                    .expect("fresh key");
            }
        });
        // Undo the inserts, newest first, so the index keeps its size.
        for j in (0..N).rev() {
            self.btree
                .remove_at(at(j, len))
                .expect("remove what was inserted");
        }
        self.next_key += N as RowKey;

        let rows = self.grid_rows;
        self.timed_warm(tr, "gridstore.window_read_us", 1e6 / 4.0, |p| {
            for j in 0..4 {
                let first = at(j, rows) as u32;
                let mut seen = 0u32;
                p.grid.for_each_in_range(
                    Range::from_bounds(first, 0, first + PAGE as u32 - 1, 3),
                    &mut |_, _| seen += 1,
                );
                std::hint::black_box(seen);
            }
        });
        self.timed(tr, "gridstore.set_ns", 1e9 / N as f64, |p| {
            for j in 0..N {
                p.grid
                    .set(CellAddr::new(at(j, rows) as u32, 2), Value::Int(j as i64));
            }
        });

        self.timed_warm(tr, "table.scan_window_us", 1e6, |p| {
            std::hint::black_box(p.table.scan_window(at(0, rows), PAGE).expect("side window"));
        });
        let keys: Vec<RowKey> = (0..N)
            .map(|j| self.table.key_at(at(j, rows)).expect("row in range"))
            .collect();
        self.timed(tr, "table.update_cell_ns", 1e9 / N as f64, |p| {
            for (j, k) in keys.iter().enumerate() {
                p.table
                    .update_cell(*k, 1, Value::Int(j as i64))
                    .expect("side update");
            }
        });

        let seq = self.fsync_offset;
        self.timed(tr, "wal.append_stmt_p50_us", 1e6, |p| {
            p.wal
                .log(WalOp::Insert {
                    table: "side".into(),
                    key: seq,
                    pos: seq,
                    row: vec![
                        Value::Int(seq as i64),
                        Value::Int(7),
                        Value::Float(2.5),
                        Value::text("x"),
                    ],
                })
                .expect("append to the side WAL");
        });
        self.timed(tr, "vfs.fsync_p50_us", 1e6, |p| {
            p.fsync_file
                .write_all_at(p.fsync_offset * 64, &[0xA5; 64])
                .and_then(|_| p.fsync_file.sync())
                .expect("write+fsync under bench/out");
        });
        self.fsync_offset += 1;

        let n_stmts = self.statements.len() as f64;
        self.timed_warm(tr, "sql.parse_us", 1e6 / n_stmts, |p| {
            for sql in &p.statements {
                std::hint::black_box(parse_statement(sql).expect("probe statement parses"));
            }
        });
        self.timed_warm(tr, "formula.parse_us", 1e6 / 8.0, |_| {
            for _ in 0..8 {
                std::hint::black_box(Formula::parse(FORMULA_SRC).expect("probe formula parses"));
            }
        });
        self.timed_warm(tr, "formula.eval_sum100_us", 1e6 / 8.0, |p| {
            for _ in 0..8 {
                std::hint::black_box(p.sum100.eval(&p.column));
            }
        });

        // A cell nothing reads: what is left is the cost of the pass itself.
        self.timed_warm(tr, "calc.pass_overhead_us", 1e6, |p| {
            let (wb, sheet) = &mut p.calc;
            wb.set_value(*sheet, CellAddr::new(0, 25), Value::Int(key as i64))
                .expect("side edit");
        });
        self.timed_warm(tr, "bind.noop_sync_ns", 1e9 / 64.0, |p| {
            for _ in 0..64 {
                p.bind.sync_bindings().expect("side sync");
            }
        });
        tr.end(group);
    }

    /// The heavy probes, `HEAVY_REPS` times each.
    pub fn heavy_suite(&mut self, tr: &mut Tracer) {
        let suite = tr.begin("probe.suite");
        let rows = self.grid_rows;
        for rep in 0..HEAVY_REPS {
            let secs = self.span_secs(tr, "table.scan_mrows_per_s", |p| {
                std::hint::black_box(p.table.iter_rows_sparse(Some(&[2])).count());
            });
            self.record("table.scan_mrows_per_s", rows as f64 / 1e6 / secs);

            let (qty, status, lookup) = (
                2 + self.rng.below(6) as i64,
                self.rng.index(4),
                self.rng.index(self.exec_orders),
            );
            for (i, sql) in sql_analytics::statements(qty, status, lookup)
                .iter()
                .enumerate()
            {
                const NAMES: [&str; sql_analytics::TEMPLATES] = [
                    "exec.q1_filter_ms",
                    "exec.q2_topk_ms",
                    "exec.q3_join3_ms",
                    "exec.q4_rangetable_ms",
                    "exec.q5_point_ms",
                    "exec.q6_small_ms",
                ];
                self.timed(tr, NAMES[i], 1e3, |p| {
                    std::hint::black_box(p.exec.query(sql).expect("probe query"));
                });
                if rep == 0 {
                    self.print_operators(sql_analytics::TEMPLATE_NAMES[i], sql);
                }
            }

            self.timed(tr, "calc.full_recalc_ms", 1e3, |p| p.calc.0.recalculate());

            let key = self
                .bind
                .catalog()
                .get("ledger")
                .expect("ledger")
                .key_at(rep)
                .expect("row");
            self.bind
                .catalog_mut()
                .get_mut("ledger")
                .expect("ledger")
                .update_cell(key, 2, Value::Float(rep as f64))
                .expect("direct row change");
            self.timed(tr, "bind.refresh_ms", 1e3, |p| {
                p.bind.sync_bindings().expect("side refresh")
            });

            self.persist_rep(tr);
        }
        tr.end(suite);
    }

    fn persist_statements(&mut self, n: usize) {
        for _ in 0..n {
            // Appends only: a bound statement's region refresh would
            // swamp what is being measured here.
            let op = self.persist_ops.append();
            self.persist
                .execute(&op.sql())
                .expect("persistence probe statement");
        }
    }

    /// Cut the power, then reopen under the clock.
    fn persist_reopen(&mut self, tr: &mut Tracer, span: &'static str) -> f64 {
        drop(std::mem::take(&mut self.persist));
        self.persist_vfs.reset_to_recovery(RecoveryImage::Synced);
        self.span_secs(tr, span, |p| {
            let vfs: Arc<dyn Vfs> = p.persist_vfs.clone();
            p.persist = Workbook::open_with_vfs(MEM_DIR, vfs)
                .expect("reopen the persistence probe's store");
        })
    }

    /// One checkpoint, one reopen with an empty log, one reopen that replays
    /// `PERSIST_TAIL` statements.
    fn persist_rep(&mut self, tr: &mut Tracer) {
        self.persist_statements(PERSIST_TAIL);
        let written = |wb: &Workbook| {
            wb.metrics_snapshot()
                .counter("vfs_write_bytes")
                .unwrap_or(0)
        };
        let before = written(&self.persist);
        let secs = self.span_secs(tr, "ckpt.checkpoint", |p| {
            p.persist.checkpoint().expect("probe checkpoint");
        });
        let bytes = (written(&self.persist) - before) as f64;
        self.record("ckpt.bytes_written", bytes);
        self.record("ckpt.mb_per_s", bytes / 1e6 / secs);

        let load = self.persist_reopen(tr, "recover.load");
        let rows: usize = ["ledger", "events"]
            .iter()
            .map(|t| self.persist.catalog().get(t).map_or(0, |t| t.row_count()))
            .sum();
        self.record("recover.rows_per_s", rows as f64 / load);

        self.persist_statements(PERSIST_TAIL);
        let replay = self.persist_reopen(tr, "recover.replay");
        // Replay time is what the tail adds over loading the same store.
        let extra = (replay - load).max(replay * 0.01);
        self.record("recover.replay_stmts_per_s", PERSIST_TAIL as f64 / extra);
    }

    /// Per-operator inclusive times, as `EXPLAIN ANALYZE` reports them.
    fn print_operators(&mut self, template: &str, sql: &str) {
        let Ok((_, plan)) = self.exec.query(&format!("EXPLAIN ANALYZE {sql}")) else {
            return;
        };
        for row in plan {
            let Some(Value::Text(line)) = row.first() else {
                continue;
            };
            let operator = line
                .split_whitespace()
                .next()
                .unwrap_or("")
                .trim_end_matches(':');
            if let Some(ms) = line
                .split("time=")
                .nth(1)
                .and_then(|t| t.split("ms").next())
            {
                println!("  exec.operator {template:<14} {operator:<12} {ms:>10} ms inclusive");
            }
        }
    }

    /// `(metric, median of its samples, sample count)` for every probe.
    pub fn metrics(&self) -> Vec<(&'static str, f64, u64)> {
        self.series
            .iter()
            .map(|(name, samples)| (*name, stats::median(samples), samples.len() as u64))
            .collect()
    }
}

impl Drop for Probes {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.fsync_dir);
    }
}
