//! `scroll-edit`: the paper's interactive path.
//!
//! An in-memory workbook whose table `big` is TOM-bound at A1 — several
//! times the table's 1024-page buffer pool — with a small block of header
//! formulas. The stream is 80 % scrolls (the window fetch plus the sheet
//! read of the same rectangle; eight in ten page down, one pages up, one
//! jumps anywhere) and 20 % keystrokes into a bound cell of the visible window.
//! posindex, relstore.table, bind (sheet→table) and gridstore do the work;
//! sql, exec, wal and calc do almost none, so this is the bypass workload
//! for executor and calc changes.

use dataspread::types::{CellAddr, Range, Value};
use dataspread::{BindModel, SheetId, Workbook};
use dataspread_testkit::Rng;

use super::{Outcome, Samples, Workload};
use crate::record::Check;
use crate::trace::Tracer;

/// Rows a viewport shows.
pub const PAGE: usize = 50;
/// Header formulas, in column G, over `C2:C1001`.
const FORMULAS: u32 = 16;
const FORMULA_COL: u32 = 6;
const FORMULA_ROWS: usize = 1000;

fn rows(smoke: bool) -> usize {
    if smoke {
        4_000
    } else {
        400_000
    }
}

/// Quarter units keep every REAL an exact binary fraction, so sums agree
/// bit for bit whatever order the engine adds them in.
pub fn quarters(q: u64) -> f64 {
    q as f64 / 4.0
}

/// Row `i` of `big` (id INT, g INT, v REAL, s TEXT); also what the layer
/// probes fill their side table with.
pub fn big_row(rng: &mut Rng, i: usize) -> (i64, f64, Vec<Value>) {
    let g = rng.below(100) as i64;
    let v = quarters(rng.below(4000));
    let s = format!("s{}", rng.below(100_000));
    (
        g,
        v,
        vec![
            Value::Int(i as i64),
            Value::Int(g),
            Value::Float(v),
            Value::text(s),
        ],
    )
}

#[derive(Hash)]
pub enum Op {
    Scroll {
        pos: usize,
    },
    /// Keystroke into column `g` (an INT) or `v` (a REAL, in quarter
    /// units) of table row `row`, which the current window shows.
    Edit {
        row: usize,
        into_v: bool,
        value: u64,
    },
}

pub struct ScrollEdit {
    wb: Workbook,
    sheet: SheetId,
    /// The harness model: what columns `g` and `v` must hold.
    g: Vec<i64>,
    v: Vec<f64>,
    check_rng: Rng,
}

impl Workload for ScrollEdit {
    const NAME: &'static str = "scroll-edit";
    const KINDS: &'static [&'static str] = &["scroll", "edit"];
    const PRIMARY: &'static [usize] = &[0];
    const TAIL_PCT: f64 = 99.0;
    const AUX: usize = 1;
    const WARMUP_OPS: usize = 2_000;
    const PROBE_EVERY: u64 = 1024;
    const ON_PATH: &'static [(&'static str, &'static [(&'static str, f64)])] = &[
        (
            "op.scroll",
            &[
                ("table.scan_window_us", 1.0),
                ("gridstore.window_read_us", 1.0),
            ],
        ),
        (
            "op.edit",
            &[
                ("table.update_cell_ns", 1.0),
                ("gridstore.set_ns", 1.0),
                ("bind.noop_sync_ns", 1.0),
            ],
        ),
    ];

    type Op = Op;

    fn ops(seed: u64, smoke: bool) -> Box<dyn Iterator<Item = Op>> {
        let n = rows(smoke);
        let mut rng = Rng::new(seed ^ 0x5C01);
        // Start mid-table: the header formulas watch the first rows, and a
        // stream that lingered there would measure calc, not scrolling.
        let mut pos = n / 2;
        Box::new(std::iter::from_fn(move || {
            Some(if rng.below(5) == 0 {
                Op::Edit {
                    row: pos + rng.index(PAGE),
                    into_v: rng.bool(),
                    value: rng.below(4000),
                }
            } else {
                // Mostly paging down, as a reader does. A window seen a
                // moment ago is served from the CPU's caches at half the
                // cost of a fresh one; an even walk up and down split the
                // two 59 : 41 and left the median on the edge between them.
                pos = match rng.below(10) {
                    0 => rng.index(n - PAGE),
                    1 => pos.saturating_sub(PAGE),
                    _ if pos + PAGE > n - PAGE => 0,
                    _ => pos + PAGE,
                };
                Op::Scroll { pos }
            })
        }))
    }

    fn setup(seed: u64, smoke: bool) -> Self {
        let n = rows(smoke);
        let mut wb = Workbook::new();
        wb.execute("CREATE TABLE big (id INT, g INT, v REAL, s TEXT)")
            .expect("create big");
        let mut rng = Rng::new(seed);
        let (mut g, mut v) = (Vec::with_capacity(n), Vec::with_capacity(n));
        {
            let mut t = wb.catalog_mut().get_mut("big").expect("big exists");
            for i in 0..n {
                let (gi, vi, row) = big_row(&mut rng, i);
                g.push(gi);
                v.push(vi);
                t.insert(row).expect("insert into big");
            }
        }
        let sheet = wb.current_sheet();
        wb.bind_table(sheet, CellAddr::new(0, 0), "big", BindModel::Tom)
            .expect("bind big at A1");
        for k in 0..FORMULAS {
            wb.set_input(
                sheet,
                CellAddr::new(k, FORMULA_COL),
                &format!("=SUM(C2:C{})+{k}", FORMULA_ROWS + 1),
            )
            .expect("header formula");
        }
        ScrollEdit {
            wb,
            sheet,
            g,
            v,
            check_rng: Rng::new(seed ^ 0xC4EC),
        }
    }

    fn workbook(&self) -> &Workbook {
        &self.wb
    }

    fn root_span(op: &Op) -> &'static str {
        match op {
            Op::Scroll { .. } => "op.scroll",
            Op::Edit { .. } => "op.edit",
        }
    }

    fn apply(&mut self, op: &Op, tr: &mut Tracer, _samples: &mut Samples) -> Outcome {
        match *op {
            Op::Scroll { pos } => {
                let s = tr.begin("wb.fetch_window");
                let window = self.wb.fetch_window("big", pos, PAGE);
                tr.end(s);
                let s = tr.begin("sheet.region");
                // TOM puts the header on sheet row 0, so table row p is
                // sheet row p + 1.
                let rect = self.wb.sheet(self.sheet).region(Range::from_bounds(
                    pos as u32 + 1,
                    0,
                    (pos + PAGE) as u32,
                    3,
                ));
                tr.end(s);
                let id = Value::Int(pos as i64);
                let ok = matches!(&window, Ok(w) if w.len() == PAGE && w[0].1[0] == id)
                    && rect.len() == PAGE
                    && rect[0][0] == id;
                Outcome {
                    kind: 0,
                    units: 1,
                    failed: !ok as u32,
                    key: pos as u64,
                }
            }
            Op::Edit { row, into_v, value } => {
                let (col, val) = if into_v {
                    self.v[row] = quarters(value);
                    (2, Value::Float(self.v[row]))
                } else {
                    self.g[row] = value as i64;
                    (1, Value::Int(self.g[row]))
                };
                let addr = CellAddr::new(row as u32 + 1, col);
                let s = tr.begin("wb.set_value");
                let set = self.wb.set_value(self.sheet, addr, val.clone());
                tr.end(s);
                let s = tr.begin("wb.cell");
                let shown = self.wb.cell(self.sheet, addr);
                let header = self.wb.cell(
                    self.sheet,
                    CellAddr::new(value as u32 % FORMULAS, FORMULA_COL),
                );
                tr.end(s);
                let ok = set.is_ok() && shown == val && header.is_numeric();
                Outcome {
                    kind: 1,
                    units: 1,
                    failed: !ok as u32,
                    key: row as u64,
                }
            }
        }
    }

    fn check(&mut self) -> Vec<Check> {
        let n = self.v.len();
        // Sampled rows: what the table's window fetch returns is what the
        // sheet shows is what the model holds.
        let mut bad = 0;
        const SAMPLED: usize = 200;
        for _ in 0..SAMPLED {
            let p = self.check_rng.index(n);
            let want = [
                Value::Int(p as i64),
                Value::Int(self.g[p]),
                Value::Float(self.v[p]),
            ];
            let fetched = self.wb.fetch_window("big", p, 1).unwrap_or_default();
            let rect = self.wb.sheet(self.sheet).region(Range::from_bounds(
                p as u32 + 1,
                0,
                p as u32 + 1,
                3,
            ));
            let row_ok = fetched.len() == 1
                && fetched[0].1[..3] == want
                && rect[0][..3] == want
                && rect[0][3] == fetched[0].1[3];
            bad += !row_ok as usize;
        }
        let mut checks = vec![Check {
            name: "fetch_window == sheet rect == model (sampled rows)".into(),
            ok: bad == 0,
            detail: format!("{bad} of {SAMPLED} sampled rows differ"),
        }];

        let want_v: f64 = self.v.iter().sum();
        let want_g: i64 = self.g.iter().sum();
        let got = self.wb.query("SELECT SUM(v), SUM(g) FROM big");
        checks.push(Check {
            name: "SELECT SUM(v), SUM(g) == model".into(),
            ok: matches!(&got, Ok((_, r)) if r[0] == [Value::Float(want_v), Value::Int(want_g)]),
            detail: format!(
                "model ({want_v}, {want_g}), engine {:?}",
                got.map(|(_, r)| r)
            ),
        });

        let want_head: f64 = self.v.iter().take(FORMULA_ROWS).sum();
        let got = self.wb.cell(self.sheet, CellAddr::new(0, FORMULA_COL));
        checks.push(Check {
            name: "header formula == model".into(),
            ok: got == Value::Float(want_head),
            detail: format!("model {want_head}, sheet {got:?}"),
        });
        checks
    }
}
