//! Formula evaluation.
//!
//! Evaluation never fails as a `Result`: every failure mode is an in-cell
//! error value (`#DIV/0!`, `#VALUE!`, `#REF!`, …), exactly what the grid
//! displays. Errors propagate through operators and aggregates; `IF`
//! evaluates lazily so an error in the untaken branch is invisible.
//!
//! Numeric semantics keep the `Int`/`Float` split of [`Value`]: integer
//! operands produce integer results when the mathematical result is integral
//! and representable (`4/2 = 2`, `5/2 = 2.5`, overflow widens to float).

use std::ops::ControlFlow;

use dataspread_types::{CellAddr, CellError, Range, SheetRef, Value};

use crate::{BinOp, Expr, Func};

/// Where a formula's references resolve: the engine implements this over the
/// live workbook (cached cell values), tests over plain maps.
pub trait CellProvider {
    /// The current value of one cell. `SheetRef::Current` means the sheet
    /// the formula lives on. `Err` when the referenced sheet does not exist
    /// (surfaced as `#REF!`).
    fn cell_value(&self, sheet: &SheetRef, addr: CellAddr) -> Result<Value, CellError>;

    /// Visit the cells of `range` in **row-major order**, stopping as soon
    /// as `f` breaks. An implementation may skip empty cells; every caller
    /// treats an unvisited cell as [`Value::Empty`]. `Err` when the sheet
    /// does not exist, exactly as [`CellProvider::cell_value`] reports it.
    ///
    /// The default probes `cell_value` once per cell. A provider backed by a
    /// block store overrides it to walk the range a block at a time — every
    /// range a formula walks (aggregates through
    /// [`CellProvider::fold_range`], `CONCAT`, `VLOOKUP`'s key column) goes
    /// through here.
    fn visit_range(
        &self,
        sheet: &SheetRef,
        range: Range,
        f: &mut dyn FnMut(CellAddr, &Value) -> ControlFlow<()>,
    ) -> Result<(), CellError> {
        for addr in range.iter_cells() {
            if f(addr, &self.cell_value(sheet, addr)?).is_break() {
                break;
            }
        }
        Ok(())
    }

    /// Fold the numeric cells of `range` into an aggregate's accumulator;
    /// `Err` is the range's first error in row-major order (or the
    /// provider's own `#REF!`), which poisons the aggregate. Every range or
    /// cell argument of `SUM`/`AVG`/`COUNT`/`MIN`/`MAX` goes through here.
    ///
    /// The default walks the range with [`Acc::fold`]. A provider that
    /// knows the range's cells cannot change between two calls may serve
    /// the second from a memo, but only while `acc` [is
    /// empty](Acc::is_empty): then the result depends on the cells and
    /// [`Acc::func`] alone. Into a non-empty accumulator a fold is
    /// order-sensitive (float sums round, integer sums widen on overflow),
    /// so it must walk.
    fn fold_range(&self, sheet: &SheetRef, range: Range, acc: &mut Acc) -> Result<(), CellError> {
        acc.fold(self, sheet, range)
    }
}

/// Walk `range` until the first error value, row-major: that error (or the
/// provider's own `#REF!`) is the range's error. `f` sees every other cell.
/// Generic, so `f` inlines into the one closure the provider calls per cell.
fn walk_until_error<P: CellProvider + ?Sized>(
    cells: &P,
    sheet: &SheetRef,
    range: Range,
    mut f: impl FnMut(CellAddr, &Value) -> ControlFlow<()>,
) -> Result<(), CellError> {
    let mut first_error = None;
    cells.visit_range(sheet, range, &mut |addr, v| match v.as_error() {
        Some(e) => {
            first_error = Some(e);
            ControlFlow::Break(())
        }
        None => f(addr, v),
    })?;
    first_error.map_or(Ok(()), Err)
}

/// The result of evaluating one argument expression: a scalar, or a range to
/// be iterated by an aggregate.
enum Arg {
    Scalar(Value),
    Cells(SheetRef, Range),
}

/// Evaluate an expression to its display value.
pub fn eval(e: &Expr, cells: &dyn CellProvider) -> Value {
    match eval_arg(e, cells) {
        Arg::Scalar(v) => v,
        // A bare range where a scalar is demanded (`=A1:B2`) is a value error.
        Arg::Cells(..) => Value::Error(CellError::Value),
    }
}

fn eval_arg(e: &Expr, cells: &dyn CellProvider) -> Arg {
    match e {
        Expr::Lit(v) => Arg::Scalar(v.clone()),
        Expr::Cell(c) => Arg::Scalar(match cells.cell_value(&c.sheet, c.addr) {
            Ok(v) => v,
            Err(err) => Value::Error(err),
        }),
        Expr::Range(r) => Arg::Cells(r.sheet.clone(), r.range()),
        Expr::RefError => Arg::Scalar(Value::Error(CellError::Ref)),
        Expr::Neg(a) => Arg::Scalar(negate(eval(a, cells))),
        Expr::Bin(op, a, b) => Arg::Scalar(binary(*op, eval(a, cells), eval(b, cells))),
        Expr::Call(f, args) => Arg::Scalar(call(*f, args, cells)),
    }
}

fn negate(v: Value) -> Value {
    match v {
        Value::Int(i) => match i.checked_neg() {
            Some(n) => Value::Int(n),
            None => Value::Float(-(i as f64)),
        },
        Value::Error(e) => Value::Error(e),
        other => match other.coerce_f64() {
            Ok(f) => Value::Float(-f),
            Err(e) => Value::Error(e),
        },
    }
}

/// Wrap a float result, mapping NaN/∞ to `#NUM!`.
fn num(f: f64) -> Value {
    if f.is_finite() {
        Value::Float(f)
    } else {
        Value::Error(CellError::Num)
    }
}

fn binary(op: BinOp, a: Value, b: Value) -> Value {
    if let Some(e) = a.as_error() {
        return Value::Error(e);
    }
    if let Some(e) = b.as_error() {
        return Value::Error(e);
    }
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Pow => arith(op, &a, &b),
        BinOp::Concat => match (a.coerce_text(), b.coerce_text()) {
            (Ok(x), Ok(y)) => Value::Text(x + &y),
            (Err(e), _) | (_, Err(e)) => Value::Error(e),
        },
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            match a.compare(&b) {
                Some(ord) => Value::Bool(match op {
                    BinOp::Eq => ord.is_eq(),
                    BinOp::Ne => ord.is_ne(),
                    BinOp::Lt => ord.is_lt(),
                    BinOp::Le => ord.is_le(),
                    BinOp::Gt => ord.is_gt(),
                    BinOp::Ge => ord.is_ge(),
                    _ => unreachable!("non-comparison op in comparison arm"),
                }),
                None => Value::Error(CellError::Value),
            }
        }
    }
}

fn arith(op: BinOp, a: &Value, b: &Value) -> Value {
    // Empty and booleans participate as exact integers (`=Z99+1` is `1`,
    // not `1.0`), keeping the Int/Float split stable through arithmetic.
    fn as_int_like(v: &Value) -> Value {
        match v {
            Value::Empty => Value::Int(0),
            Value::Bool(b) => Value::Int(*b as i64),
            other => other.clone(),
        }
    }
    let (a, b) = (&as_int_like(a), &as_int_like(b));
    // Integer fast path: stay integral whenever the result is.
    if let (Value::Int(x), Value::Int(y)) = (a, b) {
        match op {
            BinOp::Add => {
                if let Some(r) = x.checked_add(*y) {
                    return Value::Int(r);
                }
            }
            BinOp::Sub => {
                if let Some(r) = x.checked_sub(*y) {
                    return Value::Int(r);
                }
            }
            BinOp::Mul => {
                if let Some(r) = x.checked_mul(*y) {
                    return Value::Int(r);
                }
            }
            BinOp::Div => {
                if *y == 0 {
                    return Value::Error(CellError::Div0);
                }
                if x % y == 0 {
                    return Value::Int(x / y);
                }
            }
            BinOp::Pow => {
                if (0..=62).contains(y) {
                    if let Some(r) = x.checked_pow(*y as u32) {
                        return Value::Int(r);
                    }
                }
            }
            _ => unreachable!("arith called with non-arithmetic op"),
        }
    }
    let x = match a.coerce_f64() {
        Ok(f) => f,
        Err(e) => return Value::Error(e),
    };
    let y = match b.coerce_f64() {
        Ok(f) => f,
        Err(e) => return Value::Error(e),
    };
    match op {
        BinOp::Add => num(x + y),
        BinOp::Sub => num(x - y),
        BinOp::Mul => num(x * y),
        BinOp::Div => {
            if y == 0.0 {
                Value::Error(CellError::Div0)
            } else {
                num(x / y)
            }
        }
        BinOp::Pow => num(x.powf(y)),
        _ => unreachable!("arith called with non-arithmetic op"),
    }
}

/// An aggregate's running state: the numeric inputs folded so far, in
/// order. The sum stays integral as long as its inputs do.
#[derive(Clone, Debug)]
pub struct Acc {
    func: Func,
    count: u64,
    int_sum: i64,
    float_sum: f64,
    is_float: bool,
    /// Some input was NaN or ±∞: every aggregate over it is `#NUM!`, as
    /// arithmetic on it is (the sums get there through [`num`]).
    non_finite: bool,
    /// Keep `min`/`max` up to date: only `MIN`/`MAX` read them.
    extremes: bool,
    min: Option<Value>,
    max: Option<Value>,
}

impl Acc {
    fn new(func: Func) -> Acc {
        Acc {
            func,
            count: 0,
            int_sum: 0,
            float_sum: 0.0,
            is_float: false,
            non_finite: false,
            extremes: matches!(func, Func::Min | Func::Max),
            min: None,
            max: None,
        }
    }

    /// The aggregate this accumulator folds for.
    pub fn func(&self) -> Func {
        self.func
    }

    /// Nothing folded yet: every input is counted, so this is the state
    /// the aggregate started in.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Push every numeric cell of `range`, walked through `cells` in
    /// row-major order; blanks, text and booleans are skipped. `Err` is the
    /// range's first error, and the accumulator is then left part-folded.
    pub fn fold<P: CellProvider + ?Sized>(
        &mut self,
        cells: &P,
        sheet: &SheetRef,
        range: Range,
    ) -> Result<(), CellError> {
        walk_until_error(cells, sheet, range, |_, v| {
            if v.is_numeric() {
                self.push(v);
            }
            ControlFlow::Continue(())
        })
    }

    fn push(&mut self, v: &Value) {
        self.count += 1;
        match v {
            Value::Int(i) if !self.is_float => match self.int_sum.checked_add(*i) {
                Some(s) => self.int_sum = s,
                None => {
                    self.is_float = true;
                    self.float_sum = self.int_sum as f64 + *i as f64;
                }
            },
            other => {
                let f = other.coerce_f64().unwrap_or(0.0);
                self.non_finite |= !f.is_finite();
                if !self.is_float {
                    self.is_float = true;
                    self.float_sum = self.int_sum as f64;
                }
                self.float_sum += f;
            }
        }
        if !self.extremes {
            return;
        }
        let replace_min = match &self.min {
            Some(m) => v.compare(m) == Some(std::cmp::Ordering::Less),
            None => true,
        };
        if replace_min {
            self.min = Some(v.clone());
        }
        let replace_max = match &self.max {
            Some(m) => v.compare(m) == Some(std::cmp::Ordering::Greater),
            None => true,
        };
        if replace_max {
            self.max = Some(v.clone());
        }
    }

    fn sum(&self) -> Value {
        if self.is_float {
            num(self.float_sum)
        } else {
            Value::Int(self.int_sum)
        }
    }
}

/// `VLOOKUP(needle, table_range, col_index, [approximate])`: find `needle`
/// in the first column of `table_range` and return the row's value at
/// 1-based `col_index`. The optional fourth argument selects approximate
/// matching (default `TRUE`, spreadsheet convention: the last row whose
/// first-column value is ≤ the needle, assuming sorted input); `FALSE`
/// demands an exact match. No hit is `#N/A`; a bad column index is `#VALUE!`
/// below 1 and `#REF!` past the range width.
fn vlookup(args: &[Expr], cells: &dyn CellProvider) -> Value {
    let needle = eval(&args[0], cells);
    if let Some(e) = needle.as_error() {
        return Value::Error(e);
    }
    let (sheet, range) = match eval_arg(&args[1], cells) {
        Arg::Cells(s, r) => (s, r),
        Arg::Scalar(v) => {
            return Value::Error(v.as_error().unwrap_or(CellError::Value));
        }
    };
    let col = match eval(&args[2], cells).coerce_i64() {
        Ok(i) => i,
        Err(e) => return Value::Error(e),
    };
    if col < 1 {
        return Value::Error(CellError::Value);
    }
    if col as u64 > u64::from(range.width()) {
        return Value::Error(CellError::Ref);
    }
    let approximate = match args.get(3) {
        Some(a) => match eval(a, cells).coerce_bool() {
            Ok(b) => b,
            Err(e) => return Value::Error(e),
        },
        None => true,
    };
    let result_col = range.start.col + (col - 1) as u32;
    let keys = Range::from_bounds(
        range.start.row,
        range.start.col,
        range.end.row,
        range.start.col,
    );
    let mut best: Option<u32> = None;
    let walked = walk_until_error(cells, &sheet, keys, |addr, key| {
        if key.is_empty() {
            return ControlFlow::Continue(());
        }
        match key.compare(&needle) {
            Some(std::cmp::Ordering::Equal) => {
                best = Some(addr.row);
                return ControlFlow::Break(());
            }
            Some(std::cmp::Ordering::Less) if approximate => best = Some(addr.row),
            _ => {}
        }
        ControlFlow::Continue(())
    });
    if let Err(e) = walked {
        return Value::Error(e);
    }
    match best {
        Some(row) => match cells.cell_value(&sheet, CellAddr::new(row, result_col)) {
            Ok(v) => v,
            Err(e) => Value::Error(e),
        },
        None => Value::Error(CellError::Na),
    }
}

/// `CONCAT(a, b, …)`: concatenate every argument's text. Range arguments
/// contribute each non-empty cell in row-major order; any error propagates.
fn concat(args: &[Expr], cells: &dyn CellProvider) -> Value {
    let mut out = String::new();
    for arg in args {
        let as_cells = match arg {
            Expr::Cell(c) => Some((c.sheet.clone(), dataspread_types::Range::cell(c.addr))),
            _ => match eval_arg(arg, cells) {
                Arg::Cells(sheet, range) => Some((sheet, range)),
                Arg::Scalar(v) => {
                    if let Some(e) = v.as_error() {
                        return Value::Error(e);
                    }
                    match v.coerce_text() {
                        Ok(t) => out.push_str(&t),
                        Err(e) => return Value::Error(e),
                    }
                    None
                }
            },
        };
        if let Some((sheet, range)) = as_cells {
            // Errors stop the walk, so every cell seen here renders as text.
            let walked = walk_until_error(cells, &sheet, range, |_, v| {
                out.push_str(&v.display_string());
                ControlFlow::Continue(())
            });
            if let Err(e) = walked {
                return Value::Error(e);
            }
        }
    }
    Value::Text(out)
}

fn call(f: Func, args: &[Expr], cells: &dyn CellProvider) -> Value {
    match f {
        Func::Vlookup => return vlookup(args, cells),
        Func::Concat => return concat(args, cells),
        _ => {}
    }
    if f == Func::If {
        // Lazy: only the taken branch is evaluated.
        let cond = eval(&args[0], cells);
        if let Some(e) = cond.as_error() {
            return Value::Error(e);
        }
        let taken = match cond.coerce_bool() {
            Ok(true) => Some(&args[1]),
            Ok(false) => args.get(2),
            Err(e) => return Value::Error(e),
        };
        return match taken {
            Some(branch) => eval(branch, cells),
            // Spreadsheet convention: a missing else-branch yields FALSE.
            None => Value::Bool(false),
        };
    }

    // Aggregates: fold every numeric cell of every argument. Cell and
    // range reference arguments participate only through their numeric
    // cells — blanks, text, and booleans are skipped, like real
    // spreadsheets (`=AVG(A1,4)` with A1 empty is 4, not 2). Direct
    // literal/computed arguments participate with numeric coercion
    // (`=SUM(A1,"5",TRUE)` adds 6 on top of A1). Any error poisons the
    // whole aggregate.
    let mut acc = Acc::new(f);
    for arg in args {
        // A single-cell reference behaves exactly like a 1×1 range.
        let as_cells = match arg {
            Expr::Cell(c) => Some((c.sheet.clone(), dataspread_types::Range::cell(c.addr))),
            _ => match eval_arg(arg, cells) {
                Arg::Cells(sheet, range) => Some((sheet, range)),
                Arg::Scalar(v) => {
                    if let Some(e) = v.as_error() {
                        return Value::Error(e);
                    }
                    if f == Func::Count {
                        if v.is_numeric() {
                            acc.push(&v);
                        }
                        continue;
                    }
                    match v.coerce_f64() {
                        Ok(_) => acc.push(&v),
                        Err(e) => return Value::Error(e),
                    }
                    None
                }
            },
        };
        if let Some((sheet, range)) = as_cells {
            if let Err(e) = cells.fold_range(&sheet, range, &mut acc) {
                return Value::Error(e);
            }
        }
    }
    match f {
        Func::Sum => acc.sum(),
        Func::Count => Value::Int(acc.count as i64),
        Func::Avg => {
            if acc.count == 0 {
                Value::Error(CellError::Div0)
            } else {
                match acc.sum() {
                    Value::Int(s) if s % acc.count as i64 == 0 => Value::Int(s / acc.count as i64),
                    s => match s.coerce_f64() {
                        Ok(total) => num(total / acc.count as f64),
                        Err(e) => Value::Error(e),
                    },
                }
            }
        }
        Func::Min | Func::Max if acc.non_finite => Value::Error(CellError::Num),
        Func::Min => acc.min.unwrap_or(Value::Int(0)),
        Func::Max => acc.max.unwrap_or(Value::Int(0)),
        Func::If | Func::Vlookup | Func::Concat => unreachable!("handled above"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Formula;
    use std::collections::HashMap;

    /// Test provider: one implicit sheet plus optional named sheets.
    #[derive(Default)]
    struct Grid {
        cells: HashMap<(String, CellAddr), Value>,
    }

    impl Grid {
        fn set(&mut self, a1: &str, v: impl Into<Value>) -> &mut Self {
            match a1.split_once('!') {
                Some((s, rest)) => self
                    .cells
                    .insert((s.to_string(), CellAddr::parse_a1(rest).unwrap()), v.into()),
                None => self
                    .cells
                    .insert((String::new(), CellAddr::parse_a1(a1).unwrap()), v.into()),
            };
            self
        }
    }

    impl CellProvider for Grid {
        fn cell_value(&self, sheet: &SheetRef, addr: CellAddr) -> Result<Value, CellError> {
            let key = match sheet {
                SheetRef::Current => String::new(),
                SheetRef::Named(n) => {
                    if n == "Missing" {
                        return Err(CellError::Ref);
                    }
                    n.clone()
                }
            };
            Ok(self.cells.get(&(key, addr)).cloned().unwrap_or_default())
        }
    }

    fn run(src: &str, g: &Grid) -> Value {
        Formula::parse(src).unwrap().eval(g)
    }

    #[test]
    fn arithmetic_keeps_ints_integral() {
        let g = Grid::default();
        assert_eq!(run("=1+2*3", &g), Value::Int(7));
        assert_eq!(run("=4/2", &g), Value::Int(2));
        assert_eq!(run("=5/2", &g), Value::Float(2.5));
        assert_eq!(run("=2^10", &g), Value::Int(1024));
        assert_eq!(run("=2^-1", &g), Value::Float(0.5));
        assert_eq!(run("=-2^2", &g), Value::Int(4), "unary binds tighter");
        assert_eq!(run("=1/0", &g), Value::Error(CellError::Div0));
    }

    #[test]
    fn comparisons_and_concat() {
        let g = Grid::default();
        assert_eq!(run("=1<2", &g), Value::Bool(true));
        assert_eq!(run("=\"a\"&1&TRUE", &g), Value::text("a1TRUE"));
        assert_eq!(run("=\"Apple\"=\"apple\"", &g), Value::Bool(true));
        assert_eq!(run("=1<>2", &g), Value::Bool(true));
    }

    #[test]
    fn cell_refs_and_empty_default() {
        let mut g = Grid::default();
        g.set("A1", 10).set("B1", 2.5);
        assert_eq!(run("=A1*2", &g), Value::Int(20));
        assert_eq!(run("=A1+B1", &g), Value::Float(12.5));
        assert_eq!(run("=Z99+1", &g), Value::Int(1), "empty coerces to 0");
    }

    #[test]
    fn aggregates_skip_non_numeric_range_cells() {
        let mut g = Grid::default();
        g.set("A1", 1)
            .set("A2", "label")
            .set("A3", 3)
            .set("B2", true);
        assert_eq!(run("=SUM(A1:B3)", &g), Value::Int(4));
        assert_eq!(run("=COUNT(A1:B3)", &g), Value::Int(2));
        assert_eq!(run("=AVG(A1:A3)", &g), Value::Int(2));
        assert_eq!(run("=MIN(A1:A3)", &g), Value::Int(1));
        assert_eq!(run("=MAX(A1:A3)", &g), Value::Int(3));
        assert_eq!(run("=AVG(C1:C9)", &g), Value::Error(CellError::Div0));
        assert_eq!(run("=SUM(A1,10)", &g), Value::Int(11));
    }

    #[test]
    fn errors_poison_aggregates_and_operators() {
        let mut g = Grid::default();
        g.set("A1", Value::Error(CellError::Ref)).set("A2", 1);
        assert_eq!(run("=SUM(A1:A2)", &g), Value::Error(CellError::Ref));
        assert_eq!(run("=A1+1", &g), Value::Error(CellError::Ref));
        assert_eq!(run("=A1=A1", &g), Value::Error(CellError::Ref));
    }

    #[test]
    fn non_finite_inputs_make_every_aggregate_num() {
        let mut g = Grid::default();
        g.set("A1", f64::NAN)
            .set("A2", 2)
            .set("A3", f64::INFINITY)
            .set("A4", f64::NEG_INFINITY);
        let num = Value::Error(CellError::Num);
        for src in [
            "=MIN(A1:A3)",
            "=MAX(A1:A3)",
            "=MAX(A2:A3)",
            "=MIN(A2:A4)",
            "=MIN(A2,A3)",
            "=SUM(A1:A3)",
            "=AVG(A1:A3)",
            "=A1+A2",
            "=A2+A3",
        ] {
            assert_eq!(run(src, &g), num, "{src}");
        }
        // COUNT only counts; finite ranges are untouched.
        assert_eq!(run("=COUNT(A1:A4)", &g), Value::Int(4));
        assert_eq!(run("=MIN(A2:A2)", &g), Value::Int(2));
        assert_eq!(run("=MAX(A2,1.5)", &g), Value::Int(2));
    }

    #[test]
    fn if_is_lazy() {
        let mut g = Grid::default();
        g.set("A1", 5).set("B1", Value::Error(CellError::Div0));
        assert_eq!(run("=IF(A1>3,\"big\",B1)", &g), Value::text("big"));
        assert_eq!(run("=IF(A1>9,B1,\"small\")", &g), Value::text("small"));
        assert_eq!(run("=IF(A1>9,1)", &g), Value::Bool(false));
        assert_eq!(run("=IF(B1,1,2)", &g), Value::Error(CellError::Div0));
    }

    #[test]
    fn scalar_context_rejects_bare_range() {
        let g = Grid::default();
        assert_eq!(run("=A1:B2", &g), Value::Error(CellError::Value));
        assert_eq!(run("=1+A1:B2", &g), Value::Error(CellError::Value));
    }

    #[test]
    fn missing_sheet_is_ref_error() {
        let g = Grid::default();
        assert_eq!(run("=Missing!A1", &g), Value::Error(CellError::Ref));
        assert_eq!(run("=SUM(Missing!A1:A9)", &g), Value::Error(CellError::Ref));
    }

    #[test]
    fn text_scalars_coerce_only_as_direct_literals() {
        let mut g = Grid::default();
        g.set("A1", "12");
        // A referenced cell holding text is skipped (like a range cell)…
        assert_eq!(run("=SUM(A1)", &g), Value::Int(0));
        // …but a direct literal argument coerces, and bad text errors.
        assert_eq!(run("=SUM(\"12\")", &g), Value::Float(12.0));
        assert_eq!(run("=SUM(\"abc\")", &g), Value::Error(CellError::Value));
    }

    #[test]
    fn vlookup_exact_and_approximate() {
        let mut g = Grid::default();
        g.set("A1", 10)
            .set("B1", "ten")
            .set("A2", 20)
            .set("B2", "twenty")
            .set("A3", 30)
            .set("B3", "thirty");
        // Exact match.
        assert_eq!(run("=VLOOKUP(20,A1:B3,2,FALSE)", &g), Value::text("twenty"));
        assert_eq!(
            run("=VLOOKUP(25,A1:B3,2,FALSE)", &g),
            Value::Error(CellError::Na)
        );
        // Approximate (default): last key ≤ needle.
        assert_eq!(run("=VLOOKUP(25,A1:B3,2)", &g), Value::text("twenty"));
        assert_eq!(run("=VLOOKUP(99,A1:B3,2)", &g), Value::text("thirty"));
        assert_eq!(
            run("=VLOOKUP(5,A1:B3,2)", &g),
            Value::Error(CellError::Na),
            "needle below every key"
        );
        // Column 1 returns the key itself; text keys compare caselessly.
        assert_eq!(run("=VLOOKUP(30,A1:B3,1,FALSE)", &g), Value::Int(30));
        g.set("A4", "Zed").set("B4", 4);
        assert_eq!(run("=VLOOKUP(\"zed\",A1:B4,2,FALSE)", &g), Value::Int(4));
        // Bad column index: #VALUE! below 1, #REF! past the width.
        assert_eq!(
            run("=VLOOKUP(10,A1:B3,0,FALSE)", &g),
            Value::Error(CellError::Value)
        );
        assert_eq!(
            run("=VLOOKUP(10,A1:B3,3,FALSE)", &g),
            Value::Error(CellError::Ref)
        );
        // A scalar where the table range belongs is #VALUE!.
        assert_eq!(
            run("=VLOOKUP(10,5,1,FALSE)", &g),
            Value::Error(CellError::Value)
        );
        // Empty keys are skipped, not matched.
        assert_eq!(
            run("=VLOOKUP(0,C1:D3,2,FALSE)", &g),
            Value::Error(CellError::Na)
        );
    }

    #[test]
    fn vlookup_propagates_errors() {
        let mut g = Grid::default();
        g.set("A1", Value::Error(CellError::Div0)).set("B1", 1);
        assert_eq!(
            run("=VLOOKUP(1,A1:B1,2,FALSE)", &g),
            Value::Error(CellError::Div0)
        );
        assert_eq!(
            run("=VLOOKUP(A1,C1:D2,2,FALSE)", &g),
            Value::Error(CellError::Div0),
            "error needle propagates"
        );
    }

    #[test]
    fn concat_joins_scalars_and_ranges() {
        let mut g = Grid::default();
        g.set("A1", "a").set("A2", 2).set("A3", true);
        assert_eq!(run("=CONCAT(A1:A3)", &g), Value::text("a2TRUE"));
        assert_eq!(
            run("=CONCAT(\"x\",A1,\"-\",A2)", &g),
            Value::text("xa-2"),
            "scalars and refs interleave"
        );
        // CONCATENATE alias; empties are skipped.
        assert_eq!(run("=CONCATENATE(A1,Z9,A2)", &g), Value::text("a2"));
        // Errors poison the result.
        g.set("A2", Value::Error(CellError::Ref));
        assert_eq!(run("=CONCAT(A1:A3)", &g), Value::Error(CellError::Ref));
    }

    #[test]
    fn empty_cell_reference_args_are_skipped() {
        let g = Grid::default(); // A1 empty
        assert_eq!(run("=AVG(A1,4)", &g), Value::Int(4), "not 2: blank skipped");
        assert_eq!(run("=MIN(A1,5)", &g), Value::Int(5));
        assert_eq!(run("=MAX(A1,5)", &g), Value::Int(5));
        assert_eq!(run("=SUM(A1,5)", &g), Value::Int(5), "stays integral");
        assert_eq!(run("=COUNT(A1,5)", &g), Value::Int(1));
    }
}
