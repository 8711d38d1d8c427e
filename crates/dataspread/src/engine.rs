//! Statement execution: dispatches parsed statements against the catalog,
//! with positional references resolved from the live workbook.
//!
//! `SELECT` runs through the streaming operator pipeline in [`crate::exec`]
//! (planning, pushdown, hash joins, hash aggregation); this module keeps the
//! statement surface around it — the three DML families and DDL including
//! the paper's cheap `ALTER TABLE` path. `UPDATE` and `DELETE` find their
//! rows through the same access path as a `SELECT` leaf
//! (`exec::key_probe`): one primary-key probe when the `WHERE`
//! clause pins the whole key, else a streaming scan, with the predicate
//! checked on every candidate either way. Every DML statement reports what
//! it did as a [`ChangeSet`] — each row inserted, deleted or rewritten,
//! with its display position at apply time — built here around the table
//! calls, so bound regions re-render only the rows at and below the first
//! position the statement touched (an `UPDATE`: only its rows).

use dataspread_relstore::{Catalog, ChangeKind, ChangeSet, ColumnDef, RowKey, Schema, Table};
use dataspread_sql::ast::{AlterAction, Expr, InsertSource, Statement};
use dataspread_sql::expr::{bind, eval, truth, BExpr, ColInfo};
use dataspread_sql::planner::split_conjuncts;
use dataspread_sql::resolver::SheetResolver;
use dataspread_types::{DsError, DsResult, Value};

use crate::exec::{
    analyze_select, eval_standalone, explain_select, key_probe, run_select, ExecCtx, ExecMetrics,
};

/// Outcome of one executed statement.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryResult {
    /// A result set (`SELECT`).
    Rows {
        columns: Vec<String>,
        rows: Vec<Vec<Value>>,
    },
    /// Row count touched by DML.
    Affected(usize),
    /// A DDL statement completed.
    Ddl,
}

impl QueryResult {
    /// The result set, if this was a query.
    pub fn rows(&self) -> Option<(&[String], &[Vec<Value>])> {
        match self {
            QueryResult::Rows { columns, rows } => Some((columns, rows)),
            _ => None,
        }
    }

    /// The affected-row count, if this was DML.
    pub fn affected(&self) -> Option<usize> {
        match self {
            QueryResult::Affected(n) => Some(*n),
            _ => None,
        }
    }
}

/// Execute one statement, returning a DML statement's change set beside
/// its result. A failed statement returns none: whatever rows it did apply
/// are left to the bindings' full diff.
pub(crate) fn execute(
    catalog: &mut Catalog,
    resolver: &dyn SheetResolver,
    stmt: Statement,
    metrics: &ExecMetrics,
) -> DsResult<(QueryResult, Option<ChangeSet>)> {
    match stmt {
        query @ (Statement::Select(_) | Statement::Explain(_) | Statement::ExplainAnalyze(_)) => {
            run_query(catalog, resolver, &query, metrics)
        }
        Statement::Analyze { table } => {
            match table {
                Some(name) => catalog.get_mut(&name)?.analyze()?,
                None => {
                    for name in catalog.table_names() {
                        catalog.get_mut(&name)?.analyze()?;
                    }
                }
            }
            Ok(QueryResult::Ddl)
        }
        Statement::Insert {
            table,
            columns,
            source,
        } => {
            let changes = run_insert(
                catalog,
                resolver,
                metrics,
                &table,
                columns.as_deref(),
                &source,
            )?;
            return Ok(affected(changes));
        }
        Statement::Update {
            table,
            sets,
            filter,
        } => {
            let changes = run_update(catalog, resolver, &table, &sets, filter.as_ref())?;
            return Ok(affected(changes));
        }
        Statement::Delete { table, filter } => {
            let changes = run_delete(catalog, resolver, &table, filter.as_ref())?;
            return Ok(affected(changes));
        }
        Statement::CreateTable {
            name,
            columns,
            if_not_exists,
        } => {
            if if_not_exists && catalog.contains(&name) {
                return Ok((QueryResult::Ddl, None));
            }
            let mut defs = Vec::with_capacity(columns.len());
            let mut pkey: Vec<String> = Vec::new();
            for spec in columns {
                let mut def = ColumnDef::new(spec.name.clone(), spec.dtype);
                if spec.not_null {
                    def = def.not_null();
                }
                if spec.primary_key {
                    pkey.push(spec.name);
                }
                defs.push(def);
            }
            let mut schema = Schema::new(defs)?;
            if !pkey.is_empty() {
                let names: Vec<&str> = pkey.iter().map(String::as_str).collect();
                schema = schema.with_pkey(&names)?;
            }
            catalog.create_table(&name, schema)?;
            Ok(QueryResult::Ddl)
        }
        Statement::DropTable { name, if_exists } => {
            if if_exists && !catalog.contains(&name) {
                return Ok((QueryResult::Ddl, None));
            }
            catalog.drop_table(&name)?;
            Ok(QueryResult::Ddl)
        }
        Statement::AlterTable { name, action } => {
            match action {
                AlterAction::AddColumn { spec, default } => {
                    let default = match default {
                        Some(e) => eval_standalone(&e, resolver)?,
                        None => Value::Empty,
                    };
                    let mut def = ColumnDef::new(spec.name, spec.dtype);
                    if spec.not_null {
                        def = def.not_null();
                    }
                    if spec.primary_key {
                        return Err(DsError::Sql(
                            "ADD COLUMN cannot introduce a primary key".into(),
                        ));
                    }
                    catalog.get_mut(&name)?.add_column(def, default)?;
                }
                AlterAction::DropColumn(col) => {
                    catalog.get_mut(&name)?.drop_column(&col)?;
                }
                AlterAction::RenameColumn { from, to } => {
                    catalog.get_mut(&name)?.rename_column(&from, &to)?;
                }
            }
            Ok(QueryResult::Ddl)
        }
    }
    .map(|result| (result, None))
}

/// Run a `SELECT`, `EXPLAIN`, or `EXPLAIN ANALYZE` under one executor
/// context. `EXPLAIN` forms return their plan lines as a one-column result.
fn run_query(
    catalog: &Catalog,
    resolver: &dyn SheetResolver,
    stmt: &Statement,
    metrics: &ExecMetrics,
) -> DsResult<QueryResult> {
    let ctx = ExecCtx {
        catalog,
        resolver,
        metrics: metrics.clone(),
    };
    let plan = match stmt {
        Statement::Select(sel) => {
            let (columns, rows) = run_select(&ctx, sel)?;
            return Ok(QueryResult::Rows { columns, rows });
        }
        Statement::Explain(sel) => explain_select(&ctx, sel)?,
        Statement::ExplainAnalyze(sel) => analyze_select(&ctx, sel)?.0,
        _ => return Err(DsError::Sql("expected a SELECT or EXPLAIN".into())),
    };
    Ok(QueryResult::Rows {
        columns: vec!["plan".to_string()],
        rows: plan.into_iter().map(|l| vec![Value::Text(l)]).collect(),
    })
}

// ---- DML -----------------------------------------------------------------

/// A DML statement's result: its row count, and its change set.
fn affected(changes: ChangeSet) -> (QueryResult, Option<ChangeSet>) {
    (QueryResult::Affected(changes.len()), Some(changes))
}

fn run_insert(
    catalog: &mut Catalog,
    resolver: &dyn SheetResolver,
    metrics: &ExecMetrics,
    table: &str,
    columns: Option<&[String]>,
    source: &InsertSource,
) -> DsResult<ChangeSet> {
    // Materialize the input first: an INSERT ... SELECT reads the catalog
    // immutably before the write borrow starts.
    let input: Vec<Vec<Value>> = match source {
        InsertSource::Values(tuples) => tuples
            .iter()
            .map(|t| t.iter().map(|e| eval_standalone(e, resolver)).collect())
            .collect::<DsResult<_>>()?,
        InsertSource::Select(sel) => {
            let ctx = ExecCtx {
                catalog,
                resolver,
                metrics: metrics.clone(),
            };
            run_select(&ctx, sel)?.1
        }
    };
    let mut t = catalog.get_mut(table)?;
    let width = t.schema().width();
    let positions: Option<Vec<usize>> = match columns {
        Some(names) => {
            let mut idx = Vec::with_capacity(names.len());
            for n in names {
                let i = t
                    .schema()
                    .index_of(n)
                    .ok_or_else(|| DsError::ColumnNotFound(n.clone()))?;
                if idx.contains(&i) {
                    return Err(DsError::Sql(format!("column `{n}` listed twice")));
                }
                idx.push(i);
            }
            Some(idx)
        }
        None => None,
    };
    let name = t.name().to_string();
    let mut changes = ChangeSet::default();
    for vals in input {
        let row = match &positions {
            Some(idx) => {
                if vals.len() != idx.len() {
                    return Err(DsError::Sql(format!(
                        "INSERT has {} values for {} columns",
                        vals.len(),
                        idx.len()
                    )));
                }
                let mut row = vec![Value::Empty; width];
                for (&i, v) in idx.iter().zip(vals) {
                    row[i] = v;
                }
                row
            }
            None => {
                if vals.len() != width {
                    return Err(DsError::Sql(format!(
                        "INSERT has {} values, table has {width} columns",
                        vals.len()
                    )));
                }
                vals
            }
        };
        let pos = t.row_count();
        let key = t.insert(row)?;
        changes.push(&name, ChangeKind::Insert, key, pos);
    }
    Ok(changes)
}

fn run_update(
    catalog: &mut Catalog,
    resolver: &dyn SheetResolver,
    table: &str,
    sets: &[(String, Expr)],
    filter: Option<&Expr>,
) -> DsResult<ChangeSet> {
    // Find the rows against the immutable table, then apply.
    let (name, updates) = {
        let t = catalog.get(table)?;
        let cols = table_cols(&t, table);
        let mut plan: Vec<(usize, BExpr)> = Vec::with_capacity(sets.len());
        for (name, e) in sets {
            let i = t
                .schema()
                .index_of(name)
                .ok_or_else(|| DsError::ColumnNotFound(name.clone()))?;
            if plan.iter().any(|(j, _)| *j == i) {
                return Err(DsError::Sql(format!("column `{name}` assigned twice")));
            }
            plan.push((i, bind(e, &cols, None, resolver)?));
        }
        let pred = match filter {
            Some(f) => Some(bind(f, &cols, None, resolver)?),
            None => None,
        };
        let mut updates: Vec<(RowKey, usize, Vec<Value>)> = Vec::new();
        for_each_match(&t, pred.as_ref(), &mut |key, pos, row| {
            let mut new_row = row.clone();
            for (i, b) in &plan {
                // SQL semantics: every SET expression sees the OLD row.
                new_row[*i] = eval(b, &row, &[])?;
            }
            updates.push((key, pos, new_row));
            Ok(())
        })?;
        (t.name().to_string(), updates)
    };
    let mut t = catalog.get_mut(table)?;
    let mut changes = ChangeSet::default();
    for (key, pos, row) in updates {
        // An update moves no row, so the position found is the one it
        // applies at.
        t.update_row(key, row)?;
        changes.push(&name, ChangeKind::Update, key, pos);
    }
    Ok(changes)
}

fn run_delete(
    catalog: &mut Catalog,
    resolver: &dyn SheetResolver,
    table: &str,
    filter: Option<&Expr>,
) -> DsResult<ChangeSet> {
    let doomed: Vec<RowKey> = {
        let t = catalog.get(table)?;
        let pred = match filter {
            Some(f) => Some(bind(f, &table_cols(&t, table), None, resolver)?),
            None => None,
        };
        let mut doomed = Vec::new();
        for_each_match(&t, pred.as_ref(), &mut |key, _, _| {
            doomed.push(key);
            Ok(())
        })?;
        doomed
    };
    let mut t = catalog.get_mut(table)?;
    let name = t.name().to_string();
    let mut changes = ChangeSet::default();
    for key in doomed {
        let pos = t.delete_row(key)?;
        changes.push(&name, ChangeKind::Delete, key, pos);
    }
    Ok(changes)
}

/// `t`'s columns, qualified by the name the statement used.
fn table_cols(t: &Table, table: &str) -> Vec<ColInfo> {
    (t.schema().columns().iter())
        .map(|c| ColInfo::new(Some(table), c.name.clone()))
        .collect()
}

/// Visit the rows of `t` that `pred` selects, in presentation order, each
/// with its display position. The access path is the `SELECT` leaf's: a
/// primary-key probe when the predicate's conjuncts pin the whole key, else
/// a streaming scan. Either way the whole predicate is evaluated on every
/// candidate row.
fn for_each_match(
    t: &Table,
    pred: Option<&BExpr>,
    visit: &mut dyn FnMut(RowKey, usize, Vec<Value>) -> DsResult<()>,
) -> DsResult<()> {
    type Rows<'a> = Box<dyn Iterator<Item = DsResult<(usize, (RowKey, Vec<Value>))>> + 'a>;
    let probe = pred.and_then(|p| key_probe(t.schema(), &split_conjuncts(p.clone())));
    let rows: Rows<'_> = match probe {
        Some(kt) => Box::new((t.key_lookup(&kt).into_iter()).map(|key| {
            let pos = t.position_of(key).ok_or_else(|| {
                DsError::Storage(format!("row key {key} not in table {}", t.name()))
            })?;
            Ok((pos, (key, t.get_row(key)?)))
        })),
        None => Box::new(t.iter_rows().enumerate().map(|(pos, r)| Ok((pos, r?)))),
    };
    for item in rows {
        let (pos, (key, row)) = item?;
        let hit = match pred {
            Some(p) => truth(&eval(p, &row, &[])?)? == Some(true),
            None => true,
        };
        if hit {
            visit(key, pos, row)?;
        }
    }
    Ok(())
}
