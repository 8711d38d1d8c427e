//! The formula language: the spreadsheet half of DataSpread's front end.
//!
//! The paper's interface is "formulae over cell ranges"; this crate owns that
//! surface. It is deliberately storage-free: a [`Formula`] is parsed from
//! `=`-prefixed source text into an AST over [`CellRef`]/[`RangeRef`]
//! (`dataspread_types`), evaluated against any [`CellProvider`] (the engine
//! implements it over the live workbook), and interrogated for its
//! *precedents* — the ranges it reads — so the engine can maintain a
//! dependency graph and recompute incrementally.
//!
//! Supported surface:
//!
//! * literals: integers, decimals, `"strings"` (`""` escapes a quote),
//!   `TRUE`/`FALSE`
//! * references: `A1`, `$A$1`, `B2:D10`, `Sheet2!A1`, `Data!$A$1:C9`
//! * operators: `+ - * / ^` (unary minus binds tighter than `^`, as in
//!   spreadsheets: `-2^2 = 4`), `&` concatenation, `= <> < <= > >=`
//! * functions: `SUM`, `AVG`/`AVERAGE`, `MIN`, `MAX`, `COUNT`, `IF`,
//!   `VLOOKUP`, `CONCAT`/`CONCATENATE`
//!
//! Structural grid edits (insert/delete rows/columns) rewrite references via
//! [`Formula::adjust`]; a reference whose target is deleted collapses to the
//! poisoned [`Expr::RefError`] node, which evaluates to `#REF!` forever after
//! (exactly how real spreadsheets display a broken formula).

pub mod eval;
pub mod lexer;
pub mod parser;

use std::fmt;

use dataspread_types::addr::{MAX_COL, MAX_ROW};
use dataspread_types::{CellAddr, CellRef, DsResult, RangeRef, SheetRef, Value};

pub use eval::{Acc, CellProvider};

/// Binary operators, in source syntax.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Pow,
    Concat,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl BinOp {
    fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Pow => "^",
            BinOp::Concat => "&",
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
        }
    }
}

/// Built-in functions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Func {
    Sum,
    Avg,
    Min,
    Max,
    Count,
    If,
    Vlookup,
    Concat,
}

impl Func {
    /// Resolve a (case-insensitive) function name.
    pub fn by_name(name: &str) -> Option<Func> {
        Some(match name.to_ascii_uppercase().as_str() {
            "SUM" => Func::Sum,
            "AVG" | "AVERAGE" => Func::Avg,
            "MIN" => Func::Min,
            "MAX" => Func::Max,
            "COUNT" => Func::Count,
            "IF" => Func::If,
            "VLOOKUP" => Func::Vlookup,
            "CONCAT" | "CONCATENATE" => Func::Concat,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Func::Sum => "SUM",
            Func::Avg => "AVG",
            Func::Min => "MIN",
            Func::Max => "MAX",
            Func::Count => "COUNT",
            Func::If => "IF",
            Func::Vlookup => "VLOOKUP",
            Func::Concat => "CONCAT",
        }
    }

    /// Accepted argument count.
    pub fn arity(self) -> std::ops::RangeInclusive<usize> {
        match self {
            Func::If => 2..=3,
            Func::Vlookup => 3..=4,
            _ => 1..=255,
        }
    }
}

/// A parsed formula expression.
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    /// A literal scalar (`42`, `1.5`, `"text"`, `TRUE`).
    Lit(Value),
    /// A single-cell reference.
    Cell(CellRef),
    /// A rectangular range reference, boxed: two corners and a sheet name
    /// would more than double every node's size.
    Range(Box<RangeRef>),
    /// A reference destroyed by a structural edit; evaluates to `#REF!`.
    RefError,
    /// Unary minus.
    Neg(Box<Expr>),
    /// A binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// A function call.
    Call(Func, Vec<Expr>),
}

/// A structural grid edit, as seen by formulas referencing the edited sheet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GridOp {
    /// `count` rows inserted at display row `at`.
    InsertRows { at: u32, count: u32 },
    /// Rows `[at, at + count)` deleted.
    DeleteRows { at: u32, count: u32 },
    /// `count` columns inserted at column `at`.
    InsertCols { at: u32, count: u32 },
    /// Columns `[at, at + count)` deleted.
    DeleteCols { at: u32, count: u32 },
}

impl GridOp {
    /// Where a single cell at `addr` ends up after this edit: `None` when the
    /// cell itself is deleted, or pushed past the last row or column.
    pub fn map_addr(self, addr: CellAddr) -> Option<CellAddr> {
        let (row, col) = (addr.row, addr.col);
        let mapped = match self {
            GridOp::InsertRows { at, count } => (
                if row >= at {
                    GridOp::push(row, count, MAX_ROW)?
                } else {
                    row
                },
                col,
            ),
            GridOp::DeleteRows { at, count } => {
                if row >= at && row < at + count {
                    return None;
                }
                (if row >= at + count { row - count } else { row }, col)
            }
            GridOp::InsertCols { at, count } => (
                row,
                if col >= at {
                    GridOp::push(col, count, MAX_COL)?
                } else {
                    col
                },
            ),
            GridOp::DeleteCols { at, count } => {
                if col >= at && col < at + count {
                    return None;
                }
                (row, if col >= at + count { col - count } else { col })
            }
        };
        Some(CellAddr::new(mapped.0, mapped.1))
    }

    /// Shift one axis index by an insertion of `count`: `None` past `max`,
    /// where the reference leaves the address space (→ `#REF!`).
    fn push(i: u32, count: u32, max: u32) -> Option<u32> {
        i.checked_add(count).filter(|&j| j <= max)
    }

    /// Map one axis index of a *range corner* under a deletion: indices inside
    /// the deleted span clamp to the span edge instead of vanishing, so the
    /// surviving part of the range stays referenced.
    fn clamp_start(at: u32, count: u32, i: u32) -> u32 {
        if i >= at + count {
            i - count
        } else if i >= at {
            at
        } else {
            i
        }
    }

    fn clamp_end(at: u32, count: u32, i: u32) -> Option<u32> {
        if i >= at + count {
            Some(i - count)
        } else if i >= at {
            at.checked_sub(1)
        } else {
            Some(i)
        }
    }
}

/// A parsed formula: the AST plus nothing else. The engine keeps the original
/// source text alongside it for display and persistence.
#[derive(Clone, PartialEq, Debug)]
pub struct Formula {
    /// Root of the expression tree.
    pub expr: Expr,
}

impl Formula {
    /// Parse `=`-prefixed source text. The leading `=` is required — that is
    /// what distinguishes a formula from a literal at the input boundary.
    pub fn parse(src: &str) -> DsResult<Formula> {
        parser::parse(src)
    }

    /// Every range this formula reads, with its sheet qualifier. Single cells
    /// are reported as 1×1 ranges. Used by the engine's dependency graph.
    pub fn precedents(&self) -> Vec<(SheetRef, dataspread_types::Range)> {
        let mut out = Vec::new();
        collect_precedents(&self.expr, &mut out);
        out
    }

    /// Rewrite references for a structural edit on the sheet(s) selected by
    /// `applies_to` (the engine passes a predicate matching the edited sheet,
    /// resolving `SheetRef::Current` by the formula's home sheet). References
    /// wholly inside a deleted span become [`Expr::RefError`]. Returns `true`
    /// when anything changed.
    pub fn adjust(&mut self, op: GridOp, applies_to: &dyn Fn(&SheetRef) -> bool) -> bool {
        adjust_expr(&mut self.expr, op, applies_to)
    }

    /// Does the formula contain a broken (`#REF!`) reference node?
    pub fn has_ref_error(&self) -> bool {
        fn walk(e: &Expr) -> bool {
            match e {
                Expr::RefError => true,
                Expr::Neg(a) => walk(a),
                Expr::Bin(_, a, b) => walk(a) || walk(b),
                Expr::Call(_, args) => args.iter().any(walk),
                _ => false,
            }
        }
        walk(&self.expr)
    }

    /// Evaluate against a provider of cell values. Errors come back as
    /// [`Value::Error`], never as `Err` — a formula always displays something.
    pub fn eval(&self, cells: &dyn CellProvider) -> Value {
        eval::eval(&self.expr, cells)
    }
}

fn collect_precedents(e: &Expr, out: &mut Vec<(SheetRef, dataspread_types::Range)>) {
    match e {
        Expr::Cell(c) => out.push((c.sheet.clone(), dataspread_types::Range::cell(c.addr))),
        Expr::Range(r) => out.push((r.sheet.clone(), r.range())),
        Expr::Neg(a) => collect_precedents(a, out),
        Expr::Bin(_, a, b) => {
            collect_precedents(a, out);
            collect_precedents(b, out);
        }
        Expr::Call(_, args) => {
            for a in args {
                collect_precedents(a, out);
            }
        }
        Expr::Lit(_) | Expr::RefError => {}
    }
}

fn adjust_expr(e: &mut Expr, op: GridOp, applies_to: &dyn Fn(&SheetRef) -> bool) -> bool {
    match e {
        Expr::Cell(c) => {
            if !applies_to(&c.sheet) {
                return false;
            }
            match op.map_addr(c.addr) {
                Some(a) if a == c.addr => false,
                Some(a) => {
                    c.addr = a;
                    true
                }
                None => {
                    *e = Expr::RefError;
                    true
                }
            }
        }
        Expr::Range(r) => {
            if !applies_to(&r.sheet) {
                return false;
            }
            match adjust_range(r, op) {
                Some(changed) => changed,
                None => {
                    *e = Expr::RefError;
                    true
                }
            }
        }
        Expr::Neg(a) => adjust_expr(a, op, applies_to),
        Expr::Bin(_, a, b) => {
            // `|` not `||`: both sides must be visited.
            adjust_expr(a, op, applies_to) | adjust_expr(b, op, applies_to)
        }
        Expr::Call(_, args) => {
            let mut changed = false;
            for a in args {
                changed |= adjust_expr(a, op, applies_to);
            }
            changed
        }
        Expr::Lit(_) | Expr::RefError => false,
    }
}

/// Shift a range for a structural edit. `None` means the whole range was
/// deleted, or a corner pushed past the last row or column (→ `#REF!`);
/// `Some(changed)` otherwise.
fn adjust_range(r: &mut RangeRef, op: GridOp) -> Option<bool> {
    // Work on the normalized rectangle, then write the corners back.
    let rect = r.range();
    let (mut r0, mut c0, mut r1, mut c1) =
        (rect.start.row, rect.start.col, rect.end.row, rect.end.col);
    match op {
        GridOp::InsertRows { at, count } => {
            if r0 >= at {
                r0 = GridOp::push(r0, count, MAX_ROW)?;
            }
            if r1 >= at {
                r1 = GridOp::push(r1, count, MAX_ROW)?;
            }
        }
        GridOp::DeleteRows { at, count } => {
            if r0 >= at && r1 < at + count {
                return None;
            }
            r0 = GridOp::clamp_start(at, count, r0);
            r1 = GridOp::clamp_end(at, count, r1)?;
        }
        GridOp::InsertCols { at, count } => {
            if c0 >= at {
                c0 = GridOp::push(c0, count, MAX_COL)?;
            }
            if c1 >= at {
                c1 = GridOp::push(c1, count, MAX_COL)?;
            }
        }
        GridOp::DeleteCols { at, count } => {
            if c0 >= at && c1 < at + count {
                return None;
            }
            c0 = GridOp::clamp_start(at, count, c0);
            c1 = GridOp::clamp_end(at, count, c1)?;
        }
    }
    if r1 < r0 || c1 < c0 {
        return None;
    }
    let new_start = CellAddr::new(r0, c0);
    let new_end = CellAddr::new(r1, c1);
    let changed = new_start != r.start.addr || new_end != r.end.addr;
    r.start.addr = new_start;
    r.end.addr = new_end;
    Some(changed)
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Lit(Value::Text(s)) => write!(f, "\"{}\"", s.replace('"', "\"\"")),
            // `{:?}` keeps a float a float: `100.0`, not `100`, which
            // would re-parse as an integer.
            Expr::Lit(Value::Float(x)) => write!(f, "{x:?}"),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Cell(c) => write!(f, "{c}"),
            Expr::Range(r) => write!(f, "{r}"),
            Expr::RefError => f.write_str("#REF!"),
            Expr::Neg(a) => write!(f, "-{a}"),
            Expr::Bin(op, a, b) => write!(f, "({a}{}{b})", op.symbol()),
            Expr::Call(func, args) => {
                write!(f, "{}(", func.name())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str(")")
            }
        }
    }
}

impl fmt::Display for Formula {
    /// Canonical rendering, `=`-prefixed. Sub-expressions are parenthesized
    /// rather than re-deriving precedence — unambiguous and re-parseable.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "={}", self.expr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataspread_types::Range;

    fn fx(src: &str) -> Formula {
        Formula::parse(src).unwrap()
    }

    fn all(_: &SheetRef) -> bool {
        true
    }

    #[test]
    fn precedents_cover_cells_and_ranges() {
        let f = fx("=SUM(A1:B2) + C3 * Data!D4");
        let p = f.precedents();
        assert_eq!(p.len(), 3);
        assert_eq!(p[0].1, Range::parse_a1("A1:B2").unwrap());
        assert_eq!(p[1].1, Range::cell(CellAddr::new(2, 2)));
        assert_eq!(p[2].0, SheetRef::Named("Data".into()));
    }

    #[test]
    fn insert_rows_shifts_refs_below() {
        let mut f = fx("=A1 + A10");
        assert!(f.adjust(GridOp::InsertRows { at: 4, count: 3 }, &all));
        assert_eq!(f.to_string(), "=(A1+A13)");
    }

    #[test]
    fn rendered_float_literals_reparse_as_floats() {
        let f = fx("=MAX(1E+2,2.0,1e16,0.5,7)");
        assert_eq!(f.to_string(), "=MAX(100.0,2.0,1e16,0.5,7)");
        assert_eq!(
            fx(&f.to_string()),
            f,
            "the rendering re-parses to the same AST"
        );
    }

    #[test]
    fn insert_inside_range_expands_it() {
        let mut f = fx("=SUM(A2:A5)");
        assert!(f.adjust(GridOp::InsertRows { at: 2, count: 2 }, &all));
        assert_eq!(f.to_string(), "=SUM(A2:A7)");
    }

    #[test]
    fn delete_rows_breaks_cell_ref() {
        let mut f = fx("=A5 + 1");
        assert!(f.adjust(GridOp::DeleteRows { at: 4, count: 1 }, &all));
        assert!(f.has_ref_error());
        assert_eq!(f.to_string(), "=(#REF!+1)");
    }

    #[test]
    fn delete_rows_shrinks_overlapping_range() {
        let mut f = fx("=SUM(A2:A10)");
        // Delete display rows 5..8 (0-based 4..7): the range loses 3 rows.
        assert!(f.adjust(GridOp::DeleteRows { at: 4, count: 3 }, &all));
        assert_eq!(f.to_string(), "=SUM(A2:A7)");
        // Deleting the range wholly kills it.
        let mut f = fx("=SUM(B2:B3)");
        assert!(f.adjust(GridOp::DeleteRows { at: 1, count: 2 }, &all));
        assert!(f.has_ref_error());
    }

    #[test]
    fn delete_cols_and_insert_cols_mirror_rows() {
        let mut f = fx("=SUM(B1:D1)");
        assert!(f.adjust(GridOp::InsertCols { at: 2, count: 1 }, &all));
        assert_eq!(f.to_string(), "=SUM(B1:E1)");
        assert!(f.adjust(GridOp::DeleteCols { at: 0, count: 1 }, &all));
        assert_eq!(f.to_string(), "=SUM(A1:D1)");
    }

    #[test]
    fn references_pushed_off_the_sheet_become_ref_errors() {
        let last_row = CellAddr::new(MAX_ROW, 0).to_a1();
        let last_col = CellAddr::new(0, MAX_COL).to_a1();
        let adjusted = |src: &str, op: GridOp| {
            let mut f = fx(src);
            assert!(f.adjust(op, &all), "{src} under {op:?}");
            // The rewritten source parses back to the same formula.
            assert_eq!(fx(&f.to_string()), f);
            f.to_string()
        };
        // An insertion before the last row or column leaves a reference
        // there nowhere to go, alone or as a range corner.
        let one_row = GridOp::InsertRows { at: 0, count: 1 };
        let one_col = GridOp::InsertCols { at: 0, count: 1 };
        assert_eq!(adjusted(&format!("={last_row}+1"), one_row), "=(#REF!+1)");
        assert_eq!(
            adjusted(&format!("=SUM(A5:{last_row})"), one_row),
            "=SUM(#REF!)"
        );
        assert_eq!(adjusted(&format!("=Data!{last_col}"), one_col), "=#REF!");
        assert_eq!(
            adjusted(&format!("=COUNT(A1:{last_col})"), one_col),
            "=COUNT(#REF!)"
        );
        // A shift that lands exactly on the edge still shifts.
        assert_eq!(
            adjusted("=A1073741823+B1", one_row),
            format!("=({last_row}+B2)")
        );
        let to_edge = GridOp::InsertCols {
            at: 0,
            count: MAX_COL,
        };
        assert_eq!(adjusted("=A1", to_edge), format!("={last_col}"));
    }

    #[test]
    fn adjust_respects_sheet_predicate() {
        let mut f = fx("=A5 + Data!A5");
        let only_data = |s: &SheetRef| matches!(s, SheetRef::Named(n) if n == "Data");
        assert!(f.adjust(GridOp::InsertRows { at: 0, count: 1 }, &only_data));
        assert_eq!(f.to_string(), "=(A5+Data!A6)");
    }

    #[test]
    fn absolute_refs_shift_on_structural_edits_too() {
        // Structural edits move data; `$` only pins refs against copy/paste.
        let mut f = fx("=$A$5");
        assert!(f.adjust(GridOp::InsertRows { at: 0, count: 2 }, &all));
        assert_eq!(f.to_string(), "=$A$7");
    }

    #[test]
    fn display_round_trips_through_parser() {
        for src in [
            "=1+2*3",
            "=SUM(A1:B2,C3)",
            "=IF(A1>2,\"y\",\"n\")",
            "=-A1^2 & \"x\"",
            "=Data!$B$2:C9",
        ] {
            let f = fx(src);
            let again = Formula::parse(&f.to_string()).unwrap();
            assert_eq!(f, again, "{src} → {f}");
        }
    }
}
