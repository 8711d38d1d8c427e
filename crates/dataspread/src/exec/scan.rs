//! Leaf operators: the access path (key probe or streaming scan) and the
//! filter adapter.

use dataspread_relstore::{KeyTuple, Schema, TableSnapshot};
use dataspread_sql::ast::{BinOp, UnOp};
use dataspread_sql::expr::BExpr;
use dataspread_sql::resolver::SheetResolver;
use dataspread_types::{DataType, DsResult, Value};

use super::planner::Used;
use super::{passes, RowStream};

/// The access path: the primary-key tuple `conjuncts` pin, when they pin
/// every key column to a literal (`col = lit` or `lit = col`) of the
/// column's own kind — INT to an integer, TEXT to a string, BOOL to a
/// boolean. Then the key map finds the only row that can pass, and the
/// caller still evaluates every conjunct on it. `None` keeps the scan:
/// no key, a key column left free, a FLOAT or ANY key column, or a
/// literal of another kind (`id = 'abc'`, `id = 4.0`), whose comparison
/// errors or coercions only the scan reproduces exactly. Shared by the
/// `SELECT` leaf and by `UPDATE`/`DELETE`.
pub(crate) fn key_probe(schema: &Schema, conjuncts: &[BExpr]) -> Option<KeyTuple> {
    let pkey = schema.pkey();
    if pkey.is_empty() {
        return None;
    }
    let mut pinned: Vec<Option<Value>> = vec![None; pkey.len()];
    for c in conjuncts {
        let BExpr::Binary {
            left,
            op: BinOp::Eq,
            right,
        } = c
        else {
            continue;
        };
        let (col, lit) = match (&**left, &**right) {
            (BExpr::Col(i), e) | (e, BExpr::Col(i)) => match literal(e) {
                Some(v) => (*i, v),
                None => continue,
            },
            _ => continue,
        };
        let Some(slot) = pkey.iter().position(|&k| k == col) else {
            continue;
        };
        let same_kind = matches!(
            (schema.column(col).dtype, &lit),
            (DataType::Int, Value::Int(_))
                | (DataType::Text, Value::Text(_))
                | (DataType::Bool, Value::Bool(_))
        );
        if same_kind && pinned[slot].is_none() {
            pinned[slot] = Some(lit);
        }
    }
    pinned.into_iter().collect::<Option<Vec<_>>>().map(KeyTuple)
}

/// A literal operand: a constant, or a negated integer constant (`-5`
/// parses as a negation).
fn literal(e: &BExpr) -> Option<Value> {
    match e {
        BExpr::Literal(v) => Some(v.clone()),
        BExpr::Unary {
            op: UnOp::Neg,
            expr,
        } => match &**expr {
            BExpr::Literal(Value::Int(n)) => n.checked_neg().map(Value::Int),
            _ => None,
        },
        _ => None,
    }
}

/// Read a table snapshot through its access path: the key probe's zero or
/// one rows when `probe` is set, else every row in presentation order. With
/// a concrete used-column set either reads only the attribute groups
/// covering it (unused slots come back [`Value::Empty`], so column indices
/// stay valid upstream). The iterator owns the snapshot, so the stream is
/// `'static`: the query runs entirely against the plan-time state, off the
/// lock.
pub(crate) fn table_scan(
    snap: TableSnapshot,
    probe: Option<&KeyTuple>,
    used: &Used,
) -> RowStream<'static> {
    let cols: Option<Vec<usize>> = match used {
        Used::All => None,
        Used::Cols(set) => Some(set.iter().copied().collect()),
    };
    let it = match probe {
        Some(kt) => snap.into_probe_sparse(kt, cols.as_deref()),
        None => snap.into_iter_sparse(cols.as_deref()),
    };
    Box::new(it.map(|r| r.map(|(_, row)| row)))
}

/// Read a `RANGETABLE` region, bounded to the used columns when the
/// resolver can prune (the live-sheet resolver narrows the rectangle handed
/// to `CellStore::for_each_in_range`, touching fewer grid blocks).
pub(crate) fn range_scan<'a>(
    resolver: &'a dyn SheetResolver,
    a1: &str,
    width: usize,
    used: &Used,
) -> DsResult<RowStream<'a>> {
    let rows = match used {
        Used::All => resolver.range_table(a1)?.1,
        Used::Cols(set) => {
            let mut cols: Vec<usize> = set.iter().copied().filter(|&c| c < width).collect();
            cols.sort_unstable();
            resolver.range_table_pruned(a1, &cols)?
        }
    };
    Ok(Box::new(rows.into_iter().map(Ok)))
}

/// The filter operator: forwards rows for which every conjunct is true.
pub(crate) struct FilterIter<'a> {
    input: RowStream<'a>,
    preds: Vec<BExpr>,
}

impl<'a> FilterIter<'a> {
    pub(crate) fn new(input: RowStream<'a>, preds: Vec<BExpr>) -> Self {
        FilterIter { input, preds }
    }
}

impl Iterator for FilterIter<'_> {
    type Item = DsResult<Vec<Value>>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            match self.input.next()? {
                Err(e) => return Some(Err(e)),
                Ok(row) => match passes(&self.preds, &row) {
                    Err(e) => return Some(Err(e)),
                    Ok(true) => return Some(Ok(row)),
                    Ok(false) => {}
                },
            }
        }
    }
}
