//! A naive `SELECT` evaluator: the reference the engine's planner and
//! operators are checked against (`tests/differential.rs`).
//!
//! It shares only the parser and the scalar expression semantics
//! (`dataspread::sql::expr` — `bind`, `eval`, `truth`, `sql_compare`, pinned
//! by the scalar goldens) with the engine. Leaves are plain `SELECT * FROM …`
//! scans through a [`ReadSession`]. Everything above them runs here in
//! syntactic order with no hashing: nested loops per `FROM` node, `WHERE`, a
//! linear `GROUP BY` on `Value::sql_eq`, aggregates over member rows,
//! `HAVING`, projection, first-occurrence `DISTINCT`, a stable `ORDER BY`,
//! and `OFFSET`/`LIMIT`.

use std::cmp::Ordering::{self, Greater, Less};

use dataspread::sql::ast::{
    BinOp, Expr, JoinConstraint, JoinKind, OrderItem, SelectItem, SelectStmt, Statement, TableExpr,
};
use dataspread::sql::expr::{agg_key, bind, eval, sql_compare, truth, AggContext, BExpr, ColInfo};
use dataspread::sql::{parse_statement, SheetResolver};
use dataspread::{ReadSession, Workbook};
use dataspread_types::{DsError, DsResult, Value};

type Rows = Vec<Vec<Value>>;
/// An intermediate relation: qualified columns plus rows.
type Rel = (Vec<ColInfo>, Rows);

/// Parse and evaluate one `SELECT` against `wb`, returning
/// `(column names, rows)` in the order a syntactic nested-loop plan yields.
pub fn query(wb: &Workbook, sql: &str) -> DsResult<(Vec<String>, Rows)> {
    match parse_statement(sql)? {
        Statement::Select(sel) => select(&Leaves(wb.read_session()), &sel),
        _ => Err(DsError::Sql("the naive evaluator runs SELECT only".into())),
    }
}

/// Leaf reads through the engine's read session. It is also the resolver
/// `bind` sees, so `RANGEVALUE` resolves the same way.
struct Leaves<'a>(ReadSession<'a>);

impl SheetResolver for Leaves<'_> {
    fn range_value(&self, a1: &str) -> DsResult<Value> {
        let a1 = a1.replace('\'', "''");
        let (_, rows) = self.0.query(&format!("SELECT RANGEVALUE('{a1}')"))?;
        Ok(rows.into_iter().flatten().next().unwrap_or_default())
    }

    fn range_table(&self, a1: &str) -> DsResult<(Vec<String>, Rows)> {
        let a1 = a1.replace('\'', "''");
        self.0.query(&format!("SELECT * FROM RANGETABLE('{a1}')"))
    }
}

/// Columns named `names`, visible under `qualifier`, over `rows`.
fn rel(qualifier: Option<&str>, (names, rows): (Vec<String>, Rows)) -> Rel {
    let cols = names.into_iter().map(|n| ColInfo::new(qualifier, n));
    (cols.collect(), rows)
}

fn from(lv: &Leaves, te: &TableExpr) -> DsResult<Rel> {
    Ok(match te {
        TableExpr::Named { name, alias } => {
            let scan = lv.0.query(&format!("SELECT * FROM \"{name}\""))?;
            rel(Some(alias.as_deref().unwrap_or(name)), scan)
        }
        TableExpr::RangeTable { range, alias } => rel(alias.as_deref(), lv.range_table(range)?),
        TableExpr::Subquery { query, alias } => rel(Some(alias), select(lv, query)?),
        TableExpr::Join {
            left,
            right,
            kind,
            constraint,
        } => join(lv, from(lv, left)?, from(lv, right)?, *kind, constraint)?,
    })
}

fn binary(left: BExpr, op: BinOp, right: BExpr) -> BExpr {
    let (left, right) = (Box::new(left), Box::new(right));
    BExpr::Binary { left, op, right }
}

/// Nested loops over `left × right`. A `LEFT JOIN` row with no match is
/// null-extended; `NATURAL` keeps one copy of each shared column.
fn join(lv: &Leaves, l: Rel, r: Rel, kind: JoinKind, on: &JoinConstraint) -> DsResult<Rel> {
    let (lw, rw) = (l.0.len(), r.0.len());
    let cols: Vec<ColInfo> = l.0.into_iter().chain(r.0).collect();
    let mut keep: Vec<usize> = (0..lw + rw).collect();
    let pred = match on {
        JoinConstraint::None => None,
        JoinConstraint::On(e) => Some(bind(e, &cols, None, lv)?),
        JoinConstraint::Natural => {
            let pairs = natural_pairs(&cols[..lw], &cols[lw..])?;
            keep.retain(|&i| !pairs.iter().any(|&(_, ri)| lw + ri == i));
            let eq = |&(li, ri): &_| binary(BExpr::Col(li), BinOp::Eq, BExpr::Col(lw + ri));
            pairs.iter().map(eq).reduce(|a, b| binary(a, BinOp::And, b))
        }
    };
    let mut rows = Vec::new();
    for lrow in &l.1 {
        let mut matched = false;
        for rrow in &r.1 {
            let row: Vec<Value> = lrow.iter().chain(rrow).cloned().collect();
            if pred.as_ref().map_or(Ok(true), |p| holds(p, &row, &[]))? {
                matched = true;
                rows.push(row);
            }
        }
        if !matched && kind == JoinKind::Left {
            let nulls = std::iter::repeat_n(Value::Empty, rw);
            rows.push(lrow.iter().cloned().chain(nulls).collect());
        }
    }
    let pick = |row: &Vec<Value>| keep.iter().map(|&i| row[i].clone()).collect();
    let cols = keep.iter().map(|&i| cols[i].clone()).collect();
    Ok((cols, rows.iter().map(pick).collect()))
}

/// The column pairs a `NATURAL JOIN` matches on; a shared name twice on one
/// side is an error.
fn natural_pairs(l: &[ColInfo], r: &[ColInfo]) -> DsResult<Vec<(usize, usize)>> {
    let mut pairs = Vec::new();
    for (li, lc) in l.iter().enumerate() {
        let named = |c: &&ColInfo| c.name.eq_ignore_ascii_case(&lc.name);
        let in_l = l.iter().filter(named).count();
        let in_r = r.iter().filter(named).count();
        if in_r > 0 && in_l.max(in_r) > 1 {
            let (name, side) = (&lc.name, if in_r > 1 { "right" } else { "left" });
            return Err(DsError::Sql(format!(
                "NATURAL JOIN: column `{name}` appears more than once on the {side} side"
            )));
        }
        pairs.extend(r.iter().position(|c| named(&c)).map(|ri| (li, ri)));
    }
    Ok(pairs)
}

/// Does `p` evaluate to SQL TRUE (not FALSE, not NULL)?
fn holds(p: &BExpr, row: &[Value], aggs: &[Value]) -> DsResult<bool> {
    Ok(truth(&eval(p, row, aggs)?)? == Some(true))
}

/// The items of `items` for which `f` holds, in order.
fn kept<T>(mut items: Vec<T>, f: impl FnMut(&T) -> DsResult<bool>) -> DsResult<Vec<T>> {
    let keep: Vec<bool> = items.iter().map(f).collect::<DsResult<_>>()?;
    let mut keep = keep.into_iter();
    items.retain(|_| keep.next() == Some(true));
    Ok(items)
}

fn eval_all(exprs: &[BExpr], row: &[Value], aggs: &[Value]) -> DsResult<Vec<Value>> {
    exprs.iter().map(|e| eval(e, row, aggs)).collect()
}

/// Componentwise `sql_eq`: the grouping and `DISTINCT` equality.
fn same_row(a: &[Value], b: &[Value]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.sql_eq(y))
}

fn select(lv: &Leaves, sel: &SelectStmt) -> DsResult<(Vec<String>, Rows)> {
    let (cols, mut rows) = match &sel.from {
        Some(te) => from(lv, te)?,
        None => (Vec::new(), vec![Vec::new()]),
    };
    if let Some(f) = &sel.filter {
        let p = bind(f, &cols, None, lv)?;
        rows = kept(rows, |r| holds(&p, r, &[]))?;
    }

    // Distinct aggregate calls, from every clause that may hold one.
    let mut calls: Vec<&Expr> = Vec::new();
    let items = sel.projection.iter().filter_map(|item| match item {
        SelectItem::Expr { expr, .. } => Some(expr),
        _ => None,
    });
    let order_exprs = sel.order_by.iter().map(|o| &o.expr);
    for e in items.chain(&sel.having).chain(order_exprs) {
        collect_calls(e, &mut calls);
    }
    let grouped = !sel.group_by.is_empty() || !calls.is_empty() || sel.having.is_some();
    let slots = (0..calls.len()).map(|i| (agg_key(calls[i]), i)).collect();
    let agg_ctx = AggContext { slots };
    let aggs = grouped.then_some(&agg_ctx);

    // Evaluation contexts: (representative row, aggregate values).
    let mut contexts: Vec<(Vec<Value>, Vec<Value>)> = Vec::new();
    if grouped {
        let keys = sel.group_by.iter().map(|e| bind(e, &cols, None, lv));
        let keys = keys.collect::<DsResult<Vec<_>>>()?;
        let mut groups: Vec<(Vec<Value>, Rows)> = Vec::new();
        for row in rows {
            let k = eval_all(&keys, &row, &[])?;
            match groups.iter_mut().find(|(g, _)| same_row(g, &k)) {
                Some((_, members)) => members.push(row),
                None => groups.push((k, vec![row])),
            }
        }
        // A global aggregate over no rows is still one (empty) group.
        if groups.is_empty() && keys.is_empty() {
            groups.push((Vec::new(), Vec::new()));
        }
        for (_, members) in groups {
            let vals = calls.iter().map(|c| aggregate(c, &members, &cols, lv));
            let vals = vals.collect::<DsResult<_>>()?;
            let rep = members.into_iter().next();
            contexts.push((rep.unwrap_or_else(|| vec![Value::Empty; cols.len()]), vals));
        }
    } else {
        contexts = rows.into_iter().map(|r| (r, Vec::new())).collect();
    }
    if let Some(h) = &sel.having {
        let h = bind(h, &cols, aggs, lv)?;
        contexts = kept(contexts, |(r, a)| holds(&h, r, a))?;
    }

    // Projection, with the engine's output naming.
    let mut proj: Vec<(BExpr, String)> = Vec::new();
    for item in &sel.projection {
        let qualifier = match item {
            SelectItem::Expr { expr, alias } => {
                let name = alias.clone().unwrap_or_else(|| label(expr));
                proj.push((bind(expr, &cols, aggs, lv)?, name));
                continue;
            }
            SelectItem::Wildcard => None,
            SelectItem::QualifiedWildcard(t) => Some(t.to_ascii_lowercase()),
        };
        let before = proj.len();
        for (i, c) in cols.iter().enumerate() {
            if qualifier.is_none() || c.qualifier == qualifier {
                proj.push((BExpr::Col(i), c.name.clone()));
            }
        }
        if grouped || proj.len() == before {
            return Err(DsError::Sql("`*` matches no columns here".into()));
        }
    }

    // ORDER BY keys: an output ordinal or name, else a context expression.
    let ordinal = |k: &i64| usize::try_from(*k).ok().and_then(|k| k.checked_sub(1));
    let mut order: Vec<(BExpr, bool)> = Vec::new();
    for OrderItem { expr, asc } in &sel.order_by {
        let hits: Vec<usize> = match expr {
            Expr::Literal(Value::Int(k)) => vec![ordinal(k).unwrap_or(usize::MAX)],
            Expr::Column { table: None, name } => (0..proj.len())
                .filter(|&i| proj[i].1.eq_ignore_ascii_case(name))
                .collect(),
            _ => Vec::new(),
        };
        let key = match hits[..] {
            [] => bind(expr, &cols, aggs, lv)?,
            [i] if i < proj.len() => proj[i].0.clone(),
            _ => return Err(DsError::Sql(format!("bad ORDER BY key {expr:?}"))),
        };
        order.push((key, *asc));
    }
    let (exprs, names): (Vec<BExpr>, Vec<String>) = proj.into_iter().unzip();
    let (keys, asc): (Vec<BExpr>, Vec<bool>) = order.into_iter().unzip();

    let mut out: Vec<(Vec<Value>, Vec<Value>)> = Vec::new();
    for (r, a) in &contexts {
        let row = (eval_all(&exprs, r, a)?, eval_all(&keys, r, a)?);
        if !sel.distinct || !out.iter().any(|(seen, _)| same_row(seen, &row.0)) {
            out.push(row);
        }
    }
    out.sort_by(|(_, x), (_, y)| {
        let by_key = |((x, y), asc): ((&Value, &Value), &bool)| match asc {
            true => x.total_cmp(y),
            false => y.total_cmp(x),
        };
        let mut ords = x.iter().zip(y).zip(&asc).map(by_key);
        ords.find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
    });
    let offset = count(&sel.offset, lv, "OFFSET")?.unwrap_or(0);
    let limit = count(&sel.limit, lv, "LIMIT")?.unwrap_or(usize::MAX);
    let rows = out.into_iter().map(|(v, _)| v).skip(offset).take(limit);
    Ok((names, rows.collect()))
}

/// A `LIMIT`/`OFFSET` argument as a non-negative count.
fn count(e: &Option<Expr>, lv: &Leaves, what: &str) -> DsResult<Option<usize>> {
    let Some(e) = e else { return Ok(None) };
    match eval(&bind(e, &[], None, lv)?, &[], &[])?.coerce_i64() {
        Ok(n) if n >= 0 => Ok(Some(n as usize)),
        _ => Err(DsError::Sql(format!("{what} must be an integer ≥ 0"))),
    }
}

/// The engine's label for an unaliased projection item.
fn label(e: &Expr) -> String {
    match e {
        Expr::Column { name, .. } => name.clone(),
        Expr::Function {
            name, star: true, ..
        } => format!("{}(*)", name.to_ascii_lowercase()),
        Expr::Function { name, .. } => name.to_ascii_lowercase(),
        Expr::RangeValue(r) => format!("rangevalue({r})"),
        Expr::Cast { expr, .. } => label(expr),
        Expr::Literal(v) => v.display_string(),
        _ => "expr".to_string(),
    }
}

/// Append each aggregate call in `e` not already in `out`.
fn collect_calls<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    if e.is_aggregate_call() {
        if !out.contains(&e) {
            out.push(e);
        }
        return;
    }
    for c in children(e) {
        collect_calls(c, out);
    }
}

/// The direct subexpressions of `e`.
fn children(e: &Expr) -> Vec<&Expr> {
    match e {
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => {
            vec![&**expr]
        }
        Expr::Binary { left, right, .. } => vec![&**left, &**right],
        Expr::InList { expr, list, .. } => std::iter::once(&**expr).chain(list).collect(),
        Expr::Between {
            expr, low, high, ..
        } => vec![&**expr, &**low, &**high],
        Expr::Like { expr, pattern, .. } => vec![&**expr, &**pattern],
        Expr::Case {
            operand,
            branches,
            else_,
        } => (operand.iter().chain(else_).map(|b| &**b))
            .chain(branches.iter().flat_map(|(w, t)| [w, t]))
            .collect(),
        Expr::Function { args, .. } => args.iter().collect(),
        Expr::Literal(_) | Expr::Column { .. } | Expr::RangeValue(_) => Vec::new(),
    }
}

/// One aggregate call over a group's member rows. NULL inputs are ignored;
/// `DISTINCT` keeps the first of each `sql_eq` class.
fn aggregate(call: &Expr, members: &Rows, cols: &[ColInfo], lv: &Leaves) -> DsResult<Value> {
    let (name, arg, distinct) = match call {
        Expr::Function { star: true, .. } => return Ok(Value::Int(members.len() as i64)),
        Expr::Function {
            name,
            args,
            distinct,
            ..
        } if args.len() == 1 => (
            name.to_ascii_uppercase(),
            bind(&args[0], cols, None, lv)?,
            *distinct,
        ),
        _ => return Err(DsError::Sql(format!("invalid aggregate call {call:?}"))),
    };
    let mut vals: Vec<Value> = Vec::new();
    for row in members {
        let v = eval(&arg, row, &[])?;
        if !(v.is_empty() || distinct && vals.iter().any(|w| w.sql_eq(&v))) {
            vals.push(v);
        }
    }
    let n = vals.len();
    match name.as_str() {
        "COUNT" => Ok(Value::Int(n as i64)),
        _ if n == 0 => Ok(Value::Empty),
        "SUM" | "AVG" => {
            // Integer sum, spilling to float on overflow or a float input.
            let mut sum = Value::Int(0);
            for v in &vals {
                sum = match (sum, v) {
                    (Value::Int(a), Value::Int(b)) => {
                        (a.checked_add(*b)).map_or(Value::Float(a as f64 + *b as f64), Value::Int)
                    }
                    (Value::Int(a), Value::Float(b)) => Value::Float(a as f64 + b),
                    (Value::Float(a), Value::Int(b)) => Value::Float(a + *b as f64),
                    (Value::Float(a), Value::Float(b)) => Value::Float(a + b),
                    (_, v) => return Err(DsError::Sql(format!("{name} over non-numeric {v:?}"))),
                };
            }
            Ok(match sum {
                Value::Int(s) if name == "AVG" => Value::Float(s as f64 / n as f64),
                Value::Float(s) if name == "AVG" => Value::Float(s / n as f64),
                sum => sum,
            })
        }
        _ => {
            let want = if name == "MIN" { Less } else { Greater };
            let mut best = &vals[0];
            for v in &vals[1..] {
                if sql_compare(v, best)? == Some(want) {
                    best = v;
                }
            }
            Ok(best.clone())
        }
    }
}
