//! Statement execution: dispatches parsed statements against the catalog,
//! with positional references resolved from the live workbook.
//!
//! `SELECT` runs through the streaming operator pipeline in [`crate::exec`]
//! (planning, pushdown, hash joins, hash aggregation); this module keeps the
//! statement surface around it — the three DML families (streaming their
//! table scans) and DDL including the paper's cheap `ALTER TABLE` path.

use dataspread_relstore::{Catalog, ColumnDef, RowKey, Schema};
use dataspread_sql::ast::{AlterAction, Expr, InsertSource, Statement};
use dataspread_sql::expr::{bind, eval, truth, BExpr, ColInfo};
use dataspread_sql::resolver::SheetResolver;
use dataspread_types::{DsError, DsResult, Value};

use crate::exec::{
    analyze_select, eval_standalone, explain_select, run_select, ExecCtx, ExecMetrics,
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

/// Execute one statement.
pub(crate) fn execute(
    catalog: &mut Catalog,
    resolver: &dyn SheetResolver,
    stmt: Statement,
    metrics: &ExecMetrics,
) -> DsResult<QueryResult> {
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
        } => run_insert(
            catalog,
            resolver,
            metrics,
            &table,
            columns.as_deref(),
            &source,
        ),
        Statement::Update {
            table,
            sets,
            filter,
        } => run_update(catalog, resolver, &table, &sets, filter.as_ref()),
        Statement::Delete { table, filter } => {
            run_delete(catalog, resolver, &table, filter.as_ref())
        }
        Statement::CreateTable {
            name,
            columns,
            if_not_exists,
        } => {
            if if_not_exists && catalog.contains(&name) {
                return Ok(QueryResult::Ddl);
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
                return Ok(QueryResult::Ddl);
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

fn run_insert(
    catalog: &mut Catalog,
    resolver: &dyn SheetResolver,
    metrics: &ExecMetrics,
    table: &str,
    columns: Option<&[String]>,
    source: &InsertSource,
) -> DsResult<QueryResult> {
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
    let mut n = 0;
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
        t.insert(row)?;
        n += 1;
    }
    Ok(QueryResult::Affected(n))
}

fn run_update(
    catalog: &mut Catalog,
    resolver: &dyn SheetResolver,
    table: &str,
    sets: &[(String, Expr)],
    filter: Option<&Expr>,
) -> DsResult<QueryResult> {
    // Plan against the immutable table (streaming the scan), then apply.
    let updates: Vec<(RowKey, Vec<Value>)> = {
        let t = catalog.get(table)?;
        let cols: Vec<ColInfo> = t
            .schema()
            .columns()
            .iter()
            .map(|c| ColInfo::new(Some(table), c.name.clone()))
            .collect();
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
        let mut updates = Vec::new();
        for item in t.iter_rows() {
            let (key, row) = item?;
            let hit = match &pred {
                Some(p) => truth(&eval(p, &row, &[])?)? == Some(true),
                None => true,
            };
            if hit {
                let mut new_row = row.clone();
                for (i, b) in &plan {
                    // SQL semantics: every SET expression sees the OLD row.
                    new_row[*i] = eval(b, &row, &[])?;
                }
                updates.push((key, new_row));
            }
        }
        updates
    };
    let mut t = catalog.get_mut(table)?;
    let n = updates.len();
    for (key, row) in updates {
        t.update_row(key, row)?;
    }
    Ok(QueryResult::Affected(n))
}

fn run_delete(
    catalog: &mut Catalog,
    resolver: &dyn SheetResolver,
    table: &str,
    filter: Option<&Expr>,
) -> DsResult<QueryResult> {
    let doomed: Vec<RowKey> = {
        let t = catalog.get(table)?;
        let cols: Vec<ColInfo> = t
            .schema()
            .columns()
            .iter()
            .map(|c| ColInfo::new(Some(table), c.name.clone()))
            .collect();
        let pred = match filter {
            Some(f) => Some(bind(f, &cols, None, resolver)?),
            None => None,
        };
        let mut doomed = Vec::new();
        for item in t.iter_rows() {
            let (key, row) = item?;
            let hit = match &pred {
                Some(p) => truth(&eval(p, &row, &[])?)? == Some(true),
                None => true,
            };
            if hit {
                doomed.push(key);
            }
        }
        doomed
    };
    let mut t = catalog.get_mut(table)?;
    let n = doomed.len();
    for key in doomed {
        t.delete_row(key)?;
    }
    Ok(QueryResult::Affected(n))
}
