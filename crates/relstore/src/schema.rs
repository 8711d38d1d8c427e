//! Table schemas and key tuples.
//!
//! The paper's "dynamic schema" requirement (§2.2) means schemas here are
//! *mutable values*, not compile-time structures: columns can be added,
//! dropped, and renamed after creation, and the storage layer (see
//! [`crate::table`]) makes those operations cheap.

use std::cmp::Ordering;
use std::fmt;

use dataspread_types::{DataType, DsError, DsResult, Value};

/// One column: a name, a type, and nullability. Primary-key membership is
/// tracked on the [`Schema`], not the column.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnDef {
    /// Column name (SQL identifiers compare case-insensitively).
    pub name: String,
    /// Declared type; stored values are coerced to it.
    pub dtype: DataType,
    /// Whether NULL (`Value::Empty`) is accepted.
    pub nullable: bool,
}

impl ColumnDef {
    /// A nullable column of the given name and type.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        ColumnDef {
            name: name.into(),
            dtype,
            nullable: true,
        }
    }

    /// Builder: mark the column NOT NULL.
    pub fn not_null(mut self) -> Self {
        self.nullable = false;
        self
    }
}

/// An ordered list of columns plus an optional primary key (column indices).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Schema {
    columns: Vec<ColumnDef>,
    pkey: Vec<usize>,
}

impl Schema {
    /// A schema over `columns` (validated: non-empty, distinct names).
    pub fn new(columns: Vec<ColumnDef>) -> DsResult<Self> {
        let s = Schema {
            columns,
            pkey: Vec::new(),
        };
        s.validate()?;
        Ok(s)
    }

    /// Builder: set the primary key by column names. Pk columns become
    /// NOT NULL.
    pub fn with_pkey(mut self, names: &[&str]) -> DsResult<Self> {
        let mut idxs = Vec::with_capacity(names.len());
        for n in names {
            let i = self
                .index_of(n)
                .ok_or_else(|| DsError::ColumnNotFound((*n).to_string()))?;
            if idxs.contains(&i) {
                return Err(DsError::Schema(format!("duplicate pkey column `{n}`")));
            }
            idxs.push(i);
        }
        for &i in &idxs {
            self.columns[i].nullable = false;
        }
        self.pkey = idxs;
        Ok(self)
    }

    fn validate(&self) -> DsResult<()> {
        if self.columns.is_empty() {
            return Err(DsError::Schema("a table needs at least one column".into()));
        }
        for (i, c) in self.columns.iter().enumerate() {
            if c.name.is_empty() {
                return Err(DsError::Schema("empty column name".into()));
            }
            if self.columns[..i]
                .iter()
                .any(|o| o.name.eq_ignore_ascii_case(&c.name))
            {
                return Err(DsError::Schema(format!(
                    "duplicate column name `{}`",
                    c.name
                )));
            }
        }
        Ok(())
    }

    /// The column definitions, in order.
    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Case-insensitive column lookup (SQL identifier semantics).
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// The column at index `i`.
    pub fn column(&self, i: usize) -> &ColumnDef {
        &self.columns[i]
    }

    /// Primary-key column indices (empty when no key is declared).
    pub fn pkey(&self) -> &[usize] {
        &self.pkey
    }

    /// Does the schema declare a primary key?
    pub fn has_pkey(&self) -> bool {
        !self.pkey.is_empty()
    }

    /// Validate a full row against the schema, coercing values to the
    /// declared types (widening Int→Float, text parsing for typed columns).
    pub fn conform_row(&self, row: Vec<Value>) -> DsResult<Vec<Value>> {
        if row.len() != self.columns.len() {
            return Err(DsError::Schema(format!(
                "row has {} values, table has {} columns",
                row.len(),
                self.columns.len()
            )));
        }
        let mut out = Vec::with_capacity(row.len());
        for (v, c) in row.into_iter().zip(&self.columns) {
            out.push(self.conform_value(v, c)?);
        }
        Ok(out)
    }

    /// Validate/coerce one value for one column.
    pub fn conform_value_at(&self, col: usize, v: Value) -> DsResult<Value> {
        let c = self
            .columns
            .get(col)
            .ok_or_else(|| DsError::Schema(format!("column index {col} out of range")))?;
        self.conform_value(v, c)
    }

    fn conform_value(&self, v: Value, c: &ColumnDef) -> DsResult<Value> {
        if v.is_empty() {
            if !c.nullable {
                return Err(DsError::Schema(format!("column `{}` is NOT NULL", c.name)));
            }
            return Ok(Value::Empty);
        }
        c.dtype.coerce_for_storage(v.clone()).ok_or_else(|| {
            DsError::Schema(format!(
                "value {v:?} does not fit column `{}` of type {}",
                c.name, c.dtype
            ))
        })
    }

    /// Serialize the schema (columns then pkey indices) — the layout shared
    /// by the table checkpoint section and the `CREATE TABLE` WAL record.
    pub(crate) fn encode(&self, buf: &mut Vec<u8>) {
        use crate::codec::{put_str, put_u16};
        put_u16(buf, self.width() as u16);
        for c in &self.columns {
            put_str(buf, &c.name);
            buf.push(dtype_code(c.dtype));
            buf.push(c.nullable as u8);
        }
        put_u16(buf, self.pkey.len() as u16);
        for &i in &self.pkey {
            put_u16(buf, i as u16);
        }
    }

    /// Decode a schema serialized by [`Schema::encode`].
    pub(crate) fn decode(cur: &mut crate::codec::Cursor<'_>) -> DsResult<Schema> {
        let ncols = cur.u16()? as usize;
        let mut defs = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let cname = cur.str()?;
            let dtype = dtype_from_code(cur.u8()?)?;
            let nullable = cur.u8()? != 0;
            let mut def = ColumnDef::new(cname, dtype);
            def.nullable = nullable;
            defs.push(def);
        }
        let npk = cur.u16()? as usize;
        let mut pk_names = Vec::with_capacity(npk);
        for _ in 0..npk {
            let i = cur.u16()? as usize;
            if i >= defs.len() {
                return Err(DsError::Storage("schema: pkey index out of range".into()));
            }
            pk_names.push(defs[i].name.clone());
        }
        let mut schema = Schema::new(defs)?;
        if !pk_names.is_empty() {
            let names: Vec<&str> = pk_names.iter().map(String::as_str).collect();
            schema = schema.with_pkey(&names)?;
        }
        Ok(schema)
    }

    /// Extract the primary-key tuple from a conforming row.
    pub fn key_of(&self, row: &[Value]) -> Option<KeyTuple> {
        if self.pkey.is_empty() {
            return None;
        }
        Some(KeyTuple(
            self.pkey.iter().map(|&i| row[i].clone()).collect(),
        ))
    }

    // ---- dynamic schema operations (metadata side) ----------------------

    /// Append a column (the metadata half of `ADD COLUMN`); returns its
    /// index.
    pub fn push_column(&mut self, def: ColumnDef) -> DsResult<usize> {
        if self.index_of(&def.name).is_some() {
            return Err(DsError::Schema(format!(
                "duplicate column name `{}`",
                def.name
            )));
        }
        if def.name.is_empty() {
            return Err(DsError::Schema("empty column name".into()));
        }
        self.columns.push(def);
        Ok(self.columns.len() - 1)
    }

    /// Remove a column; returns its old index. Pk columns cannot be dropped.
    pub fn remove_column(&mut self, name: &str) -> DsResult<usize> {
        let i = self
            .index_of(name)
            .ok_or_else(|| DsError::ColumnNotFound(name.to_string()))?;
        if self.pkey.contains(&i) {
            return Err(DsError::Schema(format!(
                "cannot drop primary key column `{name}`"
            )));
        }
        if self.columns.len() == 1 {
            return Err(DsError::Schema("cannot drop the last column".into()));
        }
        self.columns.remove(i);
        for k in &mut self.pkey {
            if *k > i {
                *k -= 1;
            }
        }
        Ok(i)
    }

    /// Rename a column; returns its index.
    pub fn rename_column(&mut self, from: &str, to: &str) -> DsResult<usize> {
        if to.is_empty() {
            return Err(DsError::Schema("empty column name".into()));
        }
        let i = self
            .index_of(from)
            .ok_or_else(|| DsError::ColumnNotFound(from.to_string()))?;
        if let Some(j) = self.index_of(to) {
            if j != i {
                return Err(DsError::Schema(format!("duplicate column name `{to}`")));
            }
        }
        self.columns[i].name = to.to_string();
        Ok(i)
    }
}

/// On-disk code of a [`DataType`] (shared by snapshots and WAL records).
pub(crate) fn dtype_code(d: DataType) -> u8 {
    match d {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Text => 3,
        DataType::Any => 4,
    }
}

/// Inverse of [`dtype_code`].
pub(crate) fn dtype_from_code(c: u8) -> DsResult<DataType> {
    Ok(match c {
        0 => DataType::Bool,
        1 => DataType::Int,
        2 => DataType::Float,
        3 => DataType::Text,
        4 => DataType::Any,
        other => return Err(DsError::Storage(format!("snapshot: bad dtype {other}"))),
    })
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", c.name, c.dtype)?;
            if !c.nullable {
                write!(f, " NOT NULL")?;
            }
        }
        if !self.pkey.is_empty() {
            write!(
                f,
                ", PRIMARY KEY ({})",
                self.pkey
                    .iter()
                    .map(|&i| self.columns[i].name.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            )?;
        }
        write!(f, ")")
    }
}

/// A primary-key tuple with an exact total order, usable as a `BTreeMap`
/// key. Two keys are equal exactly when SQL `=` holds between their
/// same-typed components: numbers compare by exact value (so
/// `9007199254740993` and `9007199254740992` stay distinct, and
/// `-0.0 = 0.0`), text byte-wise and case-sensitively. Components of
/// different kinds order as [`Value::total_cmp`] does.
#[derive(Clone, Debug, PartialEq)]
pub struct KeyTuple(pub Vec<Value>);

impl Eq for KeyTuple {}

impl PartialOrd for KeyTuple {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for KeyTuple {
    fn cmp(&self, other: &Self) -> Ordering {
        let n = self.0.len().min(other.0.len());
        for i in 0..n {
            let o = key_cmp(&self.0[i], &other.0[i]);
            if o != Ordering::Equal {
                return o;
            }
        }
        self.0.len().cmp(&other.0.len())
    }
}

/// The exact order of one key component. Never goes through `as f64`;
/// NaN sorts above every number and equals itself, so the order is total.
fn key_cmp(a: &Value, b: &Value) -> Ordering {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::Float(x), Value::Float(y)) => match (x.is_nan(), y.is_nan()) {
            (false, false) => x.partial_cmp(y).unwrap_or(Ordering::Equal),
            (nx, ny) => nx.cmp(&ny),
        },
        (Value::Int(x), Value::Float(y)) => int_float_cmp(*x, *y),
        (Value::Float(x), Value::Int(y)) => int_float_cmp(*y, *x).reverse(),
        (Value::Text(x), Value::Text(y)) => x.as_bytes().cmp(y.as_bytes()),
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        _ => a.total_cmp(b),
    }
}

/// `i` against `f` by exact value: the integral parts compare as `i64`
/// (exact inside the `i64` range), then the fraction breaks the tie.
fn int_float_cmp(i: i64, f: f64) -> Ordering {
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    if f.is_nan() || f >= TWO_63 {
        return Ordering::Less;
    }
    if f < -TWO_63 {
        return Ordering::Greater;
    }
    let whole = f.trunc();
    i.cmp(&(whole as i64)).then(if f > whole {
        Ordering::Less
    } else if f < whole {
        Ordering::Greater
    } else {
        Ordering::Equal
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("name", DataType::Text),
            ColumnDef::new("score", DataType::Float),
        ])
        .unwrap()
        .with_pkey(&["id"])
        .unwrap()
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let s = sample();
        assert_eq!(s.index_of("ID"), Some(0));
        assert_eq!(s.index_of("Name"), Some(1));
        assert_eq!(s.index_of("missing"), None);
    }

    #[test]
    fn pkey_columns_become_not_null() {
        let s = sample();
        assert!(!s.column(0).nullable);
        assert!(s.column(1).nullable);
        assert_eq!(s.pkey(), &[0]);
    }

    #[test]
    fn duplicate_columns_rejected() {
        assert!(Schema::new(vec![
            ColumnDef::new("a", DataType::Int),
            ColumnDef::new("A", DataType::Int),
        ])
        .is_err());
    }

    #[test]
    fn conform_row_coerces() {
        let s = sample();
        let row = s
            .conform_row(vec![Value::Int(1), Value::text("bob"), Value::Int(90)])
            .unwrap();
        assert_eq!(row[2], Value::Float(90.0), "Int widened to Float column");
        assert!(
            s.conform_row(vec![Value::Int(1), Value::text("b")])
                .is_err(),
            "arity"
        );
        assert!(
            s.conform_row(vec![Value::Empty, Value::text("b"), Value::Empty])
                .is_err(),
            "NOT NULL pk"
        );
        assert!(
            s.conform_row(vec![Value::text("xyz"), Value::text("b"), Value::Empty])
                .is_err(),
            "bad int"
        );
    }

    #[test]
    fn conform_parses_numeric_text() {
        let s = sample();
        let row = s
            .conform_row(vec![Value::text("17"), Value::Empty, Value::text("2.5")])
            .unwrap();
        assert_eq!(row[0], Value::Int(17));
        assert_eq!(row[2], Value::Float(2.5));
    }

    #[test]
    fn dynamic_schema_ops() {
        let mut s = sample();
        let i = s
            .push_column(ColumnDef::new("grade", DataType::Text))
            .unwrap();
        assert_eq!(i, 3);
        assert!(s
            .push_column(ColumnDef::new("GRADE", DataType::Int))
            .is_err());
        s.rename_column("grade", "letter").unwrap();
        assert!(s.index_of("letter").is_some());
        let old = s.remove_column("name").unwrap();
        assert_eq!(old, 1);
        assert_eq!(s.width(), 3);
        assert!(s.remove_column("id").is_err(), "pk protected");
        // pkey indices survive removal before them.
        assert_eq!(s.pkey(), &[0]);
    }

    #[test]
    fn pkey_index_shifts_on_remove() {
        let mut s = Schema::new(vec![
            ColumnDef::new("a", DataType::Int),
            ColumnDef::new("b", DataType::Int),
            ColumnDef::new("c", DataType::Int),
        ])
        .unwrap()
        .with_pkey(&["c"])
        .unwrap();
        s.remove_column("a").unwrap();
        assert_eq!(s.pkey(), &[1]);
        assert_eq!(s.column(1).name, "c");
    }

    #[test]
    fn key_tuple_ordering() {
        let a = KeyTuple(vec![Value::Int(1), Value::text("a")]);
        let b = KeyTuple(vec![Value::Int(1), Value::text("b")]);
        let c = KeyTuple(vec![Value::Int(2)]);
        assert!(a < b);
        assert!(b < c);
        let mut m = std::collections::BTreeMap::new();
        m.insert(a.clone(), 1);
        m.insert(b, 2);
        assert_eq!(m.get(&a), Some(&1));
    }

    fn key(v: &[Value]) -> KeyTuple {
        KeyTuple(v.to_vec())
    }

    #[test]
    fn key_order_keeps_ints_past_two_to_the_53_distinct() {
        // Both round to the same f64: an order through `as f64` calls the
        // second INSERT a duplicate of the first.
        let lo = key(&[Value::Int(9_007_199_254_740_992)]);
        let hi = key(&[Value::Int(9_007_199_254_740_993)]);
        assert!(lo < hi);
        let mut m = std::collections::BTreeMap::new();
        m.insert(lo.clone(), 1);
        assert!(!m.contains_key(&hi));
        assert_eq!(m.insert(hi, 2), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn key_order_is_case_sensitive_like_sql_equality() {
        // `'ann' = 'Ann'` is false in SQL, so the key map must not call
        // them duplicates.
        let upper = key(&[Value::text("Ann")]);
        let lower = key(&[Value::text("ann")]);
        assert_ne!(upper.cmp(&lower), Ordering::Equal);
        assert!(upper < lower, "byte-wise: 'A' < 'a'");
        let mut m = std::collections::BTreeMap::new();
        m.insert(upper, 1);
        assert!(!m.contains_key(&lower));
    }

    #[test]
    fn key_order_finds_no_duplicate_for_a_rewritten_row() {
        // A row keyed …992 rewritten to …993: the new key must not be
        // found in a map that holds only the old one.
        let mut m = std::collections::BTreeMap::new();
        m.insert(key(&[Value::Int(9_007_199_254_740_992)]), 7u64);
        assert!(!m.contains_key(&key(&[Value::Int(9_007_199_254_740_993)])));
    }

    #[test]
    fn key_order_compares_mixed_numbers_exactly() {
        let k = |v: Value| key(&[v]);
        assert_eq!(k(Value::Int(4)).cmp(&k(Value::Float(4.0))), Ordering::Equal);
        assert_eq!(
            k(Value::Float(-0.0)).cmp(&k(Value::Float(0.0))),
            Ordering::Equal
        );
        assert!(k(Value::Int(4)) < k(Value::Float(4.5)));
        assert!(k(Value::Int(-4)) > k(Value::Float(-4.5)));
        assert!(k(Value::Int(9_007_199_254_740_993)) > k(Value::Float(9_007_199_254_740_992.0)));
        assert!(k(Value::Int(i64::MAX)) < k(Value::Float(f64::INFINITY)));
        assert!(k(Value::Int(i64::MIN)) > k(Value::Float(f64::NEG_INFINITY)));
        assert!(k(Value::Int(i64::MAX)) < k(Value::Float(f64::NAN)));
        assert_eq!(
            k(Value::Float(f64::NAN)).cmp(&k(Value::Float(f64::NAN))),
            Ordering::Equal
        );
        // Across kinds the order is unchanged: numbers, text, booleans.
        assert!(k(Value::Int(1_000)) < k(Value::text("a")));
        assert!(k(Value::text("a")) < k(Value::Bool(false)));
    }

    #[test]
    fn display_round_trips_visually() {
        let s = sample();
        let d = s.to_string();
        assert!(d.contains("id INTEGER NOT NULL"));
        assert!(d.contains("PRIMARY KEY (id)"));
    }
}
