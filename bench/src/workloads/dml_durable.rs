//! `dml-durable`: single-row statements against a saved workbook.
//!
//! The workbook is saved to a fresh directory on the real file system, so
//! every autocommitted statement is WAL-logged and fsynced before `execute`
//! returns (flush policy: **fsync per statement**, no group commit with one
//! client). `ledger` is ROM-bound to the sheet and fits its buffer pool;
//! `events` is unbound. The window repeats ten statements — five appends to
//! `events`, two `UPDATE ledger WHERE id =`, two `INSERT INTO ledger`, one
//! `DELETE FROM ledger WHERE id =` — with no checkpoint inside it. The
//! finale has fixed counts: checkpoints after batches of appends, then the
//! store moves onto an in-memory `FaultVfs`, takes a fixed WAL tail, is
//! dropped without a checkpoint, loses every unflushed byte, and is
//! reopened under the clock and compared with the model of acknowledged
//! statements.
//!
//! This uses the table and bind layers the other way round from the other
//! workloads — writes beside `sql-analytics`' reads, table→sheet beside
//! `scroll-edit`'s sheet→table — plus wal, checkpoint and recovery, which
//! nothing else touches.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use dataspread::relstore::vfs::{FaultPlan, FaultVfs, RecoveryImage, Vfs};
use dataspread::types::{CellAddr, Value};
use dataspread::{BindModel, Workbook};
use dataspread_testkit::Rng;

use super::scroll_edit::quarters;
use super::{Outcome, Samples, Workload};
use crate::host;
use crate::record::Check;
use crate::trace::Tracer;

#[derive(Clone, Copy)]
pub struct Sizes {
    pub ledger: usize,
    pub events: usize,
    checkpoints: usize,
    appends_per_checkpoint: usize,
    recovery_cycles: usize,
    tail_appends: usize,
    tail_bound: usize,
}

impl Sizes {
    pub fn new(smoke: bool) -> Sizes {
        if smoke {
            Sizes {
                ledger: 200,
                events: 1_000,
                checkpoints: 2,
                appends_per_checkpoint: 10,
                recovery_cycles: 2,
                tail_appends: 20,
                tail_bound: 2,
            }
        } else {
            Sizes {
                ledger: 20_000,
                events: 100_000,
                checkpoints: 5,
                appends_per_checkpoint: 100,
                recovery_cycles: 9,
                tail_appends: 2_000,
                tail_bound: 4,
            }
        }
    }

    /// The store the persistence probes checkpoint and reopen: a quarter of
    /// the workload's, so that a probe takes milliseconds.
    pub fn probe(smoke: bool) -> Sizes {
        let full = Sizes::new(smoke);
        Sizes {
            ledger: full.ledger / 4,
            events: full.events / 4,
            ..full
        }
    }
}

/// A single-row statement. Amounts are in quarter units; notes and memos
/// are small numbers rendered into short strings.
#[derive(Clone, Hash)]
pub enum Op {
    Append {
        id: i64,
        kind: i64,
        amount: u64,
        note: u64,
    },
    Update {
        id: i64,
        amount: u64,
    },
    Insert {
        id: i64,
        acct: i64,
        amount: u64,
        memo: u64,
    },
    Delete {
        id: i64,
    },
}

impl Op {
    /// Index into `DmlDurable::KINDS`.
    fn kind(&self) -> usize {
        match self {
            Op::Update { .. } | Op::Delete { .. } => 0,
            Op::Insert { .. } => 1,
            Op::Append { .. } => 2,
        }
    }

    pub fn sql(&self) -> String {
        match *self {
            Op::Append {
                id,
                kind,
                amount,
                note,
            } => {
                format!(
                    "INSERT INTO events VALUES ({id}, {kind}, {:?}, 'n{note}')",
                    quarters(amount)
                )
            }
            Op::Update { id, amount } => {
                format!(
                    "UPDATE ledger SET amount = {:?} WHERE id = {id}",
                    quarters(amount)
                )
            }
            Op::Insert {
                id,
                acct,
                amount,
                memo,
            } => {
                format!(
                    "INSERT INTO ledger VALUES ({id}, {acct}, {:?}, 'm{memo}')",
                    quarters(amount)
                )
            }
            Op::Delete { id } => format!("DELETE FROM ledger WHERE id = {id}"),
        }
    }
}

/// Draws statements. Updates hit the initial rows, which are never deleted;
/// a delete removes a row this generator inserted — so no statement can
/// miss, whatever came before it.
pub struct OpGen {
    rng: Rng,
    initial_ledger: u64,
    next_event: i64,
    next_ledger: i64,
    step: usize,
}

impl OpGen {
    /// `first_id` is where this generator's new ids start, beyond the ids
    /// set-up used (events below zero, ledger rows from zero).
    pub fn new(seed: u64, sizes: Sizes, first_id: i64) -> OpGen {
        OpGen {
            rng: Rng::new(seed),
            initial_ledger: sizes.ledger as u64,
            next_event: first_id,
            next_ledger: sizes.ledger as i64 + first_id,
            step: 0,
        }
    }

    pub fn append(&mut self) -> Op {
        self.next_event += 1;
        Op::Append {
            id: self.next_event - 1,
            kind: self.rng.below(10) as i64,
            amount: self.rng.below(4000),
            note: self.rng.below(100_000),
        }
    }

    fn update(&mut self) -> Op {
        Op::Update {
            id: self.rng.below(self.initial_ledger) as i64,
            amount: self.rng.below(4000),
        }
    }

    fn insert(&mut self) -> Op {
        self.next_ledger += 1;
        Op::Insert {
            id: self.next_ledger - 1,
            acct: self.rng.below(100) as i64,
            amount: self.rng.below(4000),
            memo: self.rng.below(100_000),
        }
    }
}

impl Iterator for OpGen {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        // A U A I A U A I A D
        let op = match self.step {
            1 | 5 => self.update(),
            3 | 7 => self.insert(),
            // The older of the two rows this round inserted.
            9 => Op::Delete {
                id: self.next_ledger - 2,
            },
            _ => self.append(),
        };
        self.step = (self.step + 1) % 10;
        Some(op)
    }
}

type LedgerRow = (i64, f64, String);
type EventRow = (i64, i64, f64, String);

/// The harness model of acknowledged statements.
#[derive(Default)]
pub struct Model {
    ledger: HashMap<i64, LedgerRow>,
    events: Vec<EventRow>,
}

impl Model {
    fn apply(&mut self, op: &Op) {
        match *op {
            Op::Append {
                id,
                kind,
                amount,
                note,
            } => {
                self.events
                    .push((id, kind, quarters(amount), format!("n{note}")));
            }
            Op::Update { id, amount } => {
                self.ledger
                    .get_mut(&id)
                    .expect("updates hit initial rows")
                    .1 = quarters(amount);
            }
            Op::Insert {
                id,
                acct,
                amount,
                memo,
            } => {
                self.ledger
                    .insert(id, (acct, quarters(amount), format!("m{memo}")));
            }
            Op::Delete { id } => {
                self.ledger.remove(&id);
            }
        }
    }
}

/// The two tables filled, `ledger` ROM-bound at A1, nothing saved yet.
pub fn build(seed: u64, sizes: Sizes) -> (Workbook, Model) {
    let mut rng = Rng::new(seed);
    let mut wb = Workbook::new();
    wb.execute_script(
        "CREATE TABLE ledger (id INT PRIMARY KEY, acct INT, amount REAL, memo TEXT);
         CREATE TABLE events (id INT, kind INT, amount REAL, note TEXT);",
    )
    .expect("create ledger and events");
    let mut model = Model::default();
    {
        let mut t = wb.catalog_mut().get_mut("ledger").expect("ledger exists");
        for id in 0..sizes.ledger as i64 {
            let row = (
                rng.below(100) as i64,
                quarters(rng.below(4000)),
                format!("m{}", rng.below(100_000)),
            );
            t.insert(vec![
                Value::Int(id),
                Value::Int(row.0),
                Value::Float(row.1),
                Value::text(&*row.2),
            ])
            .expect("insert ledger row");
            model.ledger.insert(id, row);
        }
    }
    {
        let mut t = wb.catalog_mut().get_mut("events").expect("events exists");
        // Negative ids: generators hand out ids from zero up.
        for i in 0..sizes.events as i64 {
            let row = (
                i - sizes.events as i64,
                rng.below(10) as i64,
                quarters(rng.below(4000)),
                format!("n{}", rng.below(100_000)),
            );
            t.insert(vec![
                Value::Int(row.0),
                Value::Int(row.1),
                Value::Float(row.2),
                Value::text(&*row.3),
            ])
            .expect("insert event row");
            model.events.push(row);
        }
    }
    let sheet = wb.current_sheet();
    wb.bind_table(sheet, CellAddr::new(0, 0), "ledger", BindModel::Rom)
        .expect("bind ledger at A1");
    (wb, model)
}

pub struct DmlDurable {
    wb: Workbook,
    model: Model,
    sizes: Sizes,
    /// The on-disk store of the window; removed on drop.
    dir: PathBuf,
    /// Statements of the finale (ids far from the window's).
    finale_ops: OpGen,
    /// Acknowledged rows a reopened store did not hold, over all reopens.
    acked_lost: usize,
    reopens: usize,
}

impl DmlDurable {
    /// Execute one statement and fold it into the model if acknowledged.
    fn statement(&mut self, op: &Op, tr: &mut Tracer) -> bool {
        let sql = op.sql();
        let s = tr.begin("wb.execute");
        let r = self.wb.execute(&sql);
        tr.end(s);
        let ok = matches!(&r, Ok(q) if q.affected() == Some(1));
        if ok {
            self.model.apply(op);
        }
        ok
    }

    /// How many acknowledged rows the workbook does not hold exactly as the
    /// model does, and whether the bound rectangle shows the table.
    fn diff_from_model(&self) -> (usize, bool) {
        let scan = |table: &str| {
            self.wb
                .catalog()
                .get(table)
                .and_then(|t| t.scan())
                .map(|rows| rows.into_iter().map(|(_, r)| r).collect::<Vec<_>>())
                .unwrap_or_default()
        };
        let events = scan("events");
        let mut lost = self.model.events.len().abs_diff(events.len());
        lost += self
            .model
            .events
            .iter()
            .zip(&events)
            .filter(|((id, kind, amount, note), row)| {
                row[..]
                    != [
                        Value::Int(*id),
                        Value::Int(*kind),
                        Value::Float(*amount),
                        Value::text(&**note),
                    ]
            })
            .count();
        let ledger = scan("ledger");
        lost += self.model.ledger.len().abs_diff(ledger.len());
        lost += ledger
            .iter()
            .filter(|row| {
                let Value::Int(id) = row[0] else { return true };
                !matches!(self.model.ledger.get(&id), Some((acct, amount, memo))
                    if row[1..] == [Value::Int(*acct), Value::Float(*amount), Value::text(&**memo)])
            })
            .count();
        let sheet = self.wb.current_sheet();
        let shown = self
            .wb
            .binding_ids()
            .first()
            .and_then(|&id| self.wb.binding_rect(id))
            .map(|rect| self.wb.sheet(sheet).region(rect));
        (lost, shown.as_ref() == Some(&ledger))
    }
}

impl Drop for DmlDurable {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Workload for DmlDurable {
    const NAME: &'static str = "dml-durable";
    const KINDS: &'static [&'static str] = &[
        "bound_by_id",
        "bound_insert",
        "append_stmt",
        "checkpoint",
        "reopen",
    ];
    // UPDATE and DELETE by id cost the same (find the row, refresh the
    // region); a bound INSERT is a third cheaper, and pooling the two would
    // put the median on the edge between the clusters.
    const PRIMARY: &'static [usize] = &[0];
    const TAIL_PCT: f64 = 90.0;
    const AUX: usize = 4;
    const WARMUP_OPS: usize = 20;
    const PROBE_EVERY: u64 = 8;
    const ON_PATH: &'static [(&'static str, &'static [(&'static str, f64)])] = &[
        (
            "op.stmt",
            &[
                ("sql.parse_us", 1.0),
                ("table.update_cell_ns", 1.0),
                ("wal.append_stmt_p50_us", 1.0),
                ("vfs.fsync_p50_us", 1.0),
                ("bind.refresh_ms", 1.0),
            ],
        ),
        (
            "op.append",
            &[
                ("sql.parse_us", 1.0),
                ("wal.append_stmt_p50_us", 1.0),
                ("vfs.fsync_p50_us", 1.0),
            ],
        ),
    ];

    type Op = Op;

    fn ops(seed: u64, smoke: bool) -> Box<dyn Iterator<Item = Op>> {
        Box::new(OpGen::new(seed ^ 0xD31, Sizes::new(smoke), 0))
    }

    fn setup(seed: u64, smoke: bool) -> Self {
        let sizes = Sizes::new(smoke);
        let (mut wb, model) = build(seed, sizes);
        let dir = host::fresh_dir("dml");
        wb.save(&dir).expect("save the workbook under bench/out");
        DmlDurable {
            wb,
            model,
            sizes,
            dir,
            finale_ops: OpGen::new(seed ^ 0xF1A1, sizes, 1 << 40),
            acked_lost: 0,
            reopens: 0,
        }
    }

    fn workbook(&self) -> &Workbook {
        &self.wb
    }

    fn root_span(op: &Op) -> &'static str {
        match op {
            Op::Append { .. } => "op.append",
            _ => "op.stmt",
        }
    }

    fn apply(&mut self, op: &Op, tr: &mut Tracer, _samples: &mut Samples) -> Outcome {
        let ok = self.statement(op, tr);
        let (Op::Append { id, .. }
        | Op::Update { id, .. }
        | Op::Insert { id, .. }
        | Op::Delete { id }) = *op;
        Outcome {
            kind: op.kind(),
            units: 1,
            failed: !ok as u32,
            key: id as u64,
        }
    }

    fn finale(&mut self, tr: &mut Tracer, samples: &mut Samples) -> (u64, u64) {
        let (mut attempted, mut failed) = (0u64, 0u64);
        let before = self
            .wb
            .metrics_snapshot()
            .counter("vfs_write_bytes")
            .unwrap_or(0);
        for _ in 0..self.sizes.checkpoints {
            for _ in 0..self.sizes.appends_per_checkpoint {
                let op = self.finale_ops.append();
                attempted += 1;
                failed += !self.statement(&op, tr) as u64;
            }
            let t = Instant::now();
            let s = tr.begin("op.checkpoint");
            let r = self.wb.checkpoint();
            tr.end(s);
            samples.push(3, t.elapsed());
            attempted += 1;
            failed += r.is_err() as u64;
        }
        let written = self
            .wb
            .metrics_snapshot()
            .counter("vfs_write_bytes")
            .unwrap_or(0)
            - before;
        println!(
            "finale: {} checkpoints of a {}-row store wrote {:.1} MB in all (WAL of {} appends each included)",
            self.sizes.checkpoints,
            self.model.ledger.len() + self.model.events.len(),
            written as f64 / 1e6,
            self.sizes.appends_per_checkpoint
        );

        // From here the store lives in memory, where a power cut can be
        // played exactly: bytes not yet synced are really discarded.
        let fault = Arc::new(FaultVfs::new(FaultPlan::quiet()));
        let vfs: Arc<dyn Vfs> = fault.clone();
        let mem_dir = Path::new("/dsbench-dml");
        self.wb
            .save_with_vfs(mem_dir, vfs.clone())
            .expect("save onto the in-memory file system");
        for _ in 0..self.sizes.recovery_cycles {
            for i in 0..self.sizes.tail_appends + self.sizes.tail_bound {
                let op = if i < self.sizes.tail_appends {
                    self.finale_ops.append()
                } else if i % 2 == 0 {
                    self.finale_ops.update()
                } else {
                    self.finale_ops.insert()
                };
                attempted += 1;
                failed += !self.statement(&op, tr) as u64;
            }
            drop(std::mem::take(&mut self.wb));
            fault.reset_to_recovery(RecoveryImage::Synced);
            let t = Instant::now();
            let s = tr.begin("op.reopen");
            let reopened = Workbook::open_with_vfs(mem_dir, vfs.clone());
            tr.end(s);
            samples.push(4, t.elapsed());
            attempted += 1;
            match reopened {
                Ok(wb) => {
                    self.wb = wb;
                    self.reopens += 1;
                    let (lost, _) = self.diff_from_model();
                    self.acked_lost += lost;
                }
                Err(e) => {
                    println!("reopen failed: {e}");
                    failed += 1;
                }
            }
        }
        (attempted, failed)
    }

    fn check(&mut self) -> Vec<Check> {
        let (lost_now, rect_ok) = self.diff_from_model();
        vec![
            Check {
                name: "acked_lost == 0 (reopened tables == model of acknowledged statements)".into(),
                ok: self.acked_lost + lost_now == 0 && self.reopens == self.sizes.recovery_cycles,
                detail: format!(
                    "{} acknowledged rows lost over {} reopens after a power cut; {} rows differ now",
                    self.acked_lost, self.reopens, lost_now
                ),
            },
            Check {
                name: "bound rect == ledger".into(),
                ok: rect_ok,
                detail: format!("{} ledger rows, {} events", self.model.ledger.len(), self.model.events.len()),
            },
        ]
    }
}
