//! `recalc`: formula recomputation with no tables at all.
//!
//! Inputs in column A and about as many formulas, entered one `set_input`
//! at a time: a per-row formula on most inputs, one long chain, block sums
//! and whole-column sums over the inputs, and a fan-out of readers of one
//! cell. Nine edits in ten change a leaf input, the rest change the chain's
//! head or the fan-out's root; each is followed by reads of its dependents.
//! calc and formula do all the work; relstore, sql, bind and wal do none.
//! Set-up time is itself a cliff here (each `set_input` pays a pass over
//! every formula entered so far), which is why it is reported.

use dataspread::types::{CellAddr, Value};
use dataspread::{SheetId, Workbook};
use dataspread_testkit::Rng;

use super::{Outcome, Samples, Workload};
use crate::record::Check;
use crate::trace::Tracer;

/// Where everything lives on the sheet (0-based columns A..H).
#[derive(Clone, Copy, Debug)]
pub struct Layout {
    /// Inputs `A1..A{inputs}`.
    pub inputs: usize,
    /// `B{i} = A{i}*2+1` for the first `per_row` inputs.
    pub per_row: usize,
    /// `C1 = G1`, `C{k} = C{k-1}+1`.
    pub chain: usize,
    /// `D{b} = SUM` of the b-th block of `block` inputs …
    pub block: usize,
    /// … followed by this many `SUM(A1:A{inputs})+k`.
    pub column_sums: usize,
    /// `F{k} = $E$1+k`.
    pub readers: usize,
}

const COL_A: u32 = 0;
const COL_B: u32 = 1;
const COL_C: u32 = 2;
const COL_D: u32 = 3;
const COL_E: u32 = 4;
const COL_F: u32 = 5;
const COL_G: u32 = 6;

impl Layout {
    pub fn new(smoke: bool) -> Layout {
        if smoke {
            Layout {
                inputs: 100,
                per_row: 80,
                chain: 10,
                block: 10,
                column_sums: 2,
                readers: 5,
            }
        } else {
            Layout {
                inputs: 3000,
                per_row: 2400,
                chain: 300,
                block: 100,
                column_sums: 10,
                readers: 150,
            }
        }
    }

    fn blocks(&self) -> usize {
        self.inputs / self.block
    }

    pub fn formulas(&self) -> usize {
        self.per_row + self.chain + self.blocks() + self.column_sums + self.readers
    }

    /// Initial value of input `i`.
    fn input(i: usize) -> i64 {
        (i % 97) as i64
    }

    /// A workbook holding this layout: inputs in one region write, every
    /// formula through its own `set_input`.
    pub fn build(&self) -> (Workbook, SheetId) {
        let mut wb = Workbook::new();
        let s = wb.current_sheet();
        let inputs: Vec<Vec<Value>> = (0..self.inputs)
            .map(|i| vec![Value::Int(Layout::input(i))])
            .collect();
        wb.set_region(s, CellAddr::new(0, COL_A), &inputs)
            .expect("inputs");
        wb.set_value(s, CellAddr::new(0, COL_E), Value::Int(0))
            .expect("fan-out root");
        wb.set_value(s, CellAddr::new(0, COL_G), Value::Int(0))
            .expect("chain head");
        let mut formula = |row: usize, col: u32, src: String| {
            wb.set_input(s, CellAddr::new(row as u32, col), &src)
                .expect("formula");
        };
        for i in 0..self.per_row {
            formula(i, COL_B, format!("=A{}*2+1", i + 1));
        }
        formula(0, COL_C, "=G1".to_string());
        for k in 1..self.chain {
            formula(k, COL_C, format!("=C{k}+1"));
        }
        for b in 0..self.blocks() {
            let first = b * self.block + 1;
            formula(
                b,
                COL_D,
                format!("=SUM(A{first}:A{})", first + self.block - 1),
            );
        }
        for k in 0..self.column_sums {
            formula(
                self.blocks() + k,
                COL_D,
                format!("=SUM(A1:A{})+{k}", self.inputs),
            );
        }
        for k in 0..self.readers {
            formula(k, COL_F, format!("=$E$1+{k}"));
        }
        (wb, s)
    }
}

#[derive(Hash)]
pub enum Op {
    Leaf { input: usize, value: i64 },
    ChainHead { value: i64 },
    FanRoot { value: i64, reader: usize },
}

pub struct Recalc {
    wb: Workbook,
    sheet: SheetId,
    lay: Layout,
    /// The harness model: the inputs, and the two roots.
    a: Vec<i64>,
    block_sums: Vec<i64>,
    total: i64,
    head: i64,
    root: i64,
}

impl Recalc {
    /// Every formula cell's address with the value the model says it shows.
    fn expected(&self) -> Vec<(CellAddr, Value)> {
        let l = &self.lay;
        let at = |row: usize, col: u32| CellAddr::new(row as u32, col);
        let mut out = Vec::with_capacity(l.formulas());
        out.extend((0..l.per_row).map(|i| (at(i, COL_B), Value::Int(self.a[i] * 2 + 1))));
        out.extend((0..l.chain).map(|k| (at(k, COL_C), Value::Int(self.head + k as i64))));
        out.extend((0..l.blocks()).map(|b| (at(b, COL_D), Value::Int(self.block_sums[b]))));
        out.extend(
            (0..l.column_sums)
                .map(|k| (at(l.blocks() + k, COL_D), Value::Int(self.total + k as i64))),
        );
        out.extend((0..l.readers).map(|k| (at(k, COL_F), Value::Int(self.root + k as i64))));
        out
    }
}

impl Workload for Recalc {
    const NAME: &'static str = "recalc";
    const KINDS: &'static [&'static str] = &["leaf_edit", "chain_edit", "fanout_edit"];
    const PRIMARY: &'static [usize] = &[0, 1, 2];
    // Chain edits are the slowest twentieth of the stream, so p95 sits on
    // the edge of their cluster; p90 sits in the leaf edits' upper tail.
    const TAIL_PCT: f64 = 90.0;
    const AUX: usize = 1;
    const WARMUP_OPS: usize = 200;
    const PROBE_EVERY: u64 = 64;
    const ON_PATH: &'static [(&'static str, &'static [(&'static str, f64)])] = &[(
        "op.edit",
        // A leaf edit re-evaluates its row formula, one block sum and the
        // column sums (each 30 blocks long); the rest is the pass itself.
        &[
            ("gridstore.set_ns", 1.0),
            ("calc.pass_overhead_us", 1.0),
            ("formula.eval_sum100_us", 301.0),
        ],
    )];

    type Op = Op;

    fn ops(seed: u64, smoke: bool) -> Box<dyn Iterator<Item = Op>> {
        let lay = Layout::new(smoke);
        let mut rng = Rng::new(seed ^ 0x4ECA);
        Box::new(std::iter::from_fn(move || {
            let value = rng.below(1000) as i64;
            Some(match rng.below(20) {
                0 => Op::ChainHead { value },
                1 => Op::FanRoot {
                    value,
                    reader: rng.index(lay.readers),
                },
                _ => Op::Leaf {
                    input: rng.index(lay.per_row),
                    value,
                },
            })
        }))
    }

    fn setup(_seed: u64, smoke: bool) -> Self {
        let lay = Layout::new(smoke);
        let (wb, sheet) = lay.build();
        let a: Vec<i64> = (0..lay.inputs).map(Layout::input).collect();
        Recalc {
            wb,
            sheet,
            lay,
            block_sums: a.chunks(lay.block).map(|c| c.iter().sum()).collect(),
            total: a.iter().sum(),
            a,
            head: 0,
            root: 0,
        }
    }

    fn workbook(&self) -> &Workbook {
        &self.wb
    }

    fn root_span(_op: &Op) -> &'static str {
        "op.edit"
    }

    fn apply(&mut self, op: &Op, tr: &mut Tracer, _samples: &mut Samples) -> Outcome {
        let at = |row: usize, col: u32| CellAddr::new(row as u32, col);
        let l = self.lay;
        // What to write, and which dependents to read back against what.
        let (kind, target, value, reads, key) = match *op {
            Op::Leaf { input, value } => {
                let b = input / l.block;
                self.block_sums[b] += value - self.a[input];
                self.total += value - self.a[input];
                self.a[input] = value;
                let reads = [
                    (at(input, COL_B), value * 2 + 1),
                    (at(b, COL_D), self.block_sums[b]),
                    (at(l.blocks(), COL_D), self.total),
                ];
                (0, at(input, COL_A), value, reads.to_vec(), input)
            }
            Op::ChainHead { value } => {
                self.head = value;
                let reads = [(at(l.chain - 1, COL_C), value + l.chain as i64 - 1)];
                (1, at(0, COL_G), value, reads.to_vec(), 0)
            }
            Op::FanRoot { value, reader } => {
                self.root = value;
                let reads = [(at(reader, COL_F), value + reader as i64)];
                (2, at(0, COL_E), value, reads.to_vec(), reader)
            }
        };
        let s = tr.begin("wb.set_value");
        let mut ok = self
            .wb
            .set_value(self.sheet, target, Value::Int(value))
            .is_ok();
        tr.end(s);
        let s = tr.begin("wb.cell");
        for (addr, want) in reads {
            ok &= self.wb.cell(self.sheet, addr) == Value::Int(want);
        }
        tr.end(s);
        Outcome {
            kind,
            units: 1,
            failed: !ok as u32,
            key: key as u64,
        }
    }

    fn check(&mut self) -> Vec<Check> {
        let expected = self.expected();
        let shown = |wb: &mut Workbook| -> Vec<Value> {
            expected
                .iter()
                .map(|(a, _)| wb.cell(self.sheet, *a))
                .collect()
        };
        let incremental = shown(&mut self.wb);
        let wrong = incremental
            .iter()
            .zip(&expected)
            .filter(|(got, (_, want))| *got != want)
            .count();
        self.wb.recalculate();
        let full = shown(&mut self.wb);
        let moved = incremental
            .iter()
            .zip(&full)
            .filter(|(a, b)| a != b)
            .count();
        vec![
            Check {
                name: "incremental values == model".into(),
                ok: wrong == 0,
                detail: format!("{wrong} of {} formula cells differ", expected.len()),
            },
            Check {
                name: "incremental values == recalculate()".into(),
                ok: moved == 0,
                detail: format!(
                    "{moved} of {} formula cells changed under a full recalculation",
                    expected.len()
                ),
            },
        ]
    }
}
