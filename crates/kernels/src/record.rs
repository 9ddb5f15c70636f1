//! Record / page format used by the pushdown operators and the storage
//! engine's data pages.
//!
//! The paper's Storage and Compute engines exchange *pages of records*
//! (§4's predicate-pushdown example reads records from SSD, filters them
//! on the DPU, and ships qualifying tuples). This module defines that
//! on-page representation: a row-major binary page with a fixed schema.

use std::fmt;

/// Column data types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// 64-bit signed integer.
    Int64,
    /// 64-bit float.
    Float64,
    /// Variable-length UTF-8 string.
    Text,
}

/// A table schema: ordered, named, typed columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<(String, ColumnType)>,
}

impl Schema {
    /// Builds a schema from `(name, type)` pairs.
    pub fn new(columns: Vec<(&str, ColumnType)>) -> Self {
        Schema {
            columns: columns
                .into_iter()
                .map(|(n, t)| (n.to_string(), t))
                .collect(),
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Column type by index.
    pub(crate) fn column_type(&self, idx: usize) -> ColumnType {
        self.columns[idx].1
    }

    /// Projects a subset of columns into a new schema.
    pub(crate) fn project(&self, cols: &[usize]) -> Schema {
        Schema {
            columns: cols.iter().map(|&i| self.columns[i].clone()).collect(),
        }
    }
}

/// A single cell value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// String.
    Text(String),
}

impl Value {
    /// Total order within a type (floats: NaN sorts last); cross-type
    /// comparisons return `None`.
    pub(crate) fn partial_cmp_typed(&self, other: &Value) -> Option<std::cmp::Ordering> {
        use std::cmp::Ordering;
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => Some(a.total_cmp(b)),
            (Value::Text(a), Value::Text(b)) => Some(a.cmp(b)),
            (Value::Int(a), Value::Float(b)) => Some((*a as f64).total_cmp(b)),
            (Value::Float(a), Value::Int(b)) => Some(a.total_cmp(&(*b as f64))),
            _ => {
                let _ = Ordering::Equal;
                None
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Text(v) => write!(f, "{v}"),
        }
    }
}

/// One row.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Cell values, schema order.
    pub values: Vec<Value>,
}

impl Record {
    /// Builds a record.
    pub fn new(values: Vec<Value>) -> Self {
        Record { values }
    }

    /// Cell by column index.
    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }
}

/// A batch of rows sharing a schema — the unit pages encode.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// Shared schema.
    pub schema: Schema,
    /// Rows.
    pub rows: Vec<Record>,
}

/// Errors decoding a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageError {
    /// Page shorter than its declared contents.
    Truncated,
    /// A text cell is not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for PageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageError::Truncated => f.write_str("page truncated"),
            PageError::BadUtf8 => f.write_str("invalid utf-8 in text cell"),
        }
    }
}

impl std::error::Error for PageError {}

impl Batch {
    /// Row count.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Serializes rows into a page (schema travels out of band).
    ///
    /// Layout: `u32 nrows | rows...` where each cell is 8-byte LE for
    /// Int/Float and `u32 len | bytes` for Text.
    pub fn encode_page(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.rows.len() * 16);
        out.extend_from_slice(&(self.rows.len() as u32).to_le_bytes());
        for row in &self.rows {
            debug_assert_eq!(row.values.len(), self.schema.arity());
            for v in &row.values {
                match v {
                    Value::Int(i) => out.extend_from_slice(&i.to_le_bytes()),
                    Value::Float(x) => out.extend_from_slice(&x.to_le_bytes()),
                    Value::Text(s) => {
                        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                        out.extend_from_slice(s.as_bytes());
                    }
                }
            }
        }
        out
    }

    /// Decodes a page produced by [`Batch::encode_page`] under `schema`.
    pub fn decode_page(schema: &Schema, page: &[u8]) -> Result<Batch, PageError> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<(), PageError> {
            if *pos + n > page.len() {
                Err(PageError::Truncated)
            } else {
                *pos += n;
                Ok(())
            }
        };
        take(&mut pos, 4)?;
        let nrows = u32::from_le_bytes(page[0..4].try_into().expect("4 bytes")) as usize;
        let mut rows = Vec::with_capacity(nrows);
        for _ in 0..nrows {
            let mut values = Vec::with_capacity(schema.arity());
            for col in 0..schema.arity() {
                match schema.column_type(col) {
                    ColumnType::Int64 => {
                        let start = pos;
                        take(&mut pos, 8)?;
                        values.push(Value::Int(i64::from_le_bytes(
                            page[start..pos].try_into().expect("8 bytes"),
                        )));
                    }
                    ColumnType::Float64 => {
                        let start = pos;
                        take(&mut pos, 8)?;
                        values.push(Value::Float(f64::from_le_bytes(
                            page[start..pos].try_into().expect("8 bytes"),
                        )));
                    }
                    ColumnType::Text => {
                        let start = pos;
                        take(&mut pos, 4)?;
                        let len = u32::from_le_bytes(page[start..pos].try_into().expect("4 bytes"))
                            as usize;
                        let s = pos;
                        take(&mut pos, len)?;
                        let text =
                            std::str::from_utf8(&page[s..pos]).map_err(|_| PageError::BadUtf8)?;
                        values.push(Value::Text(text.to_string()));
                    }
                }
            }
            rows.push(Record::new(values));
        }
        Ok(Batch {
            schema: schema.clone(),
            rows,
        })
    }
}

/// Deterministic sample-data generators used by examples, tests, and the
/// figure harnesses.
pub mod gen {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// An `orders(order_id, customer_id, amount, status)` table — the
    /// kind of table the paper's predicate-pushdown example scans.
    pub(crate) fn orders_schema() -> Schema {
        Schema::new(vec![
            ("order_id", ColumnType::Int64),
            ("customer_id", ColumnType::Int64),
            ("amount", ColumnType::Float64),
            ("status", ColumnType::Text),
        ])
    }

    /// Generates `n` orders with a seeded RNG.
    pub fn orders(n: usize, seed: u64) -> Batch {
        let mut rng = StdRng::seed_from_u64(seed);
        let statuses = ["open", "paid", "shipped", "returned"];
        let rows = (0..n)
            .map(|i| {
                Record::new(vec![
                    Value::Int(i as i64),
                    Value::Int(rng.random_range(0..10_000)),
                    Value::Float((rng.random_range(100..1_000_000) as f64) / 100.0),
                    Value::Text(statuses[rng.random_range(0..statuses.len())].to_string()),
                ])
            })
            .collect();
        Batch {
            schema: orders_schema(),
            rows,
        }
    }
}

#[cfg(test)]
impl Schema {
    /// Column name by index.
    pub(crate) fn name(&self, idx: usize) -> &str {
        &self.columns[idx].0
    }
}

#[cfg(test)]
impl Batch {
    /// Empty batch over a schema.
    pub(crate) fn empty(schema: Schema) -> Self {
        Batch {
            schema,
            rows: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Batch {
        gen::orders(100, 7)
    }

    #[test]
    fn schema_lookup() {
        let s = gen::orders_schema();
        assert_eq!(s.arity(), 4);
        assert_eq!(s.name(3), "status");
        assert_eq!(s.column_type(0), ColumnType::Int64);
    }

    #[test]
    fn page_round_trip() {
        let batch = sample();
        let page = batch.encode_page();
        let back = Batch::decode_page(&batch.schema, &page).unwrap();
        assert_eq!(back, batch);
    }

    #[test]
    fn empty_batch_round_trip() {
        let batch = Batch::empty(gen::orders_schema());
        let page = batch.encode_page();
        let back = Batch::decode_page(&batch.schema, &page).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn truncated_page_rejected() {
        let batch = sample();
        let page = batch.encode_page();
        assert_eq!(
            Batch::decode_page(&batch.schema, &page[..page.len() - 3]),
            Err(PageError::Truncated)
        );
    }

    #[test]
    fn generator_is_deterministic() {
        assert_eq!(gen::orders(50, 42), gen::orders(50, 42));
        assert_ne!(gen::orders(50, 42), gen::orders(50, 43));
    }

    #[test]
    fn value_ordering() {
        use std::cmp::Ordering;
        assert_eq!(
            Value::Int(3).partial_cmp_typed(&Value::Int(5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Float(2.5).partial_cmp_typed(&Value::Int(2)),
            Some(Ordering::Greater)
        );
        assert_eq!(
            Value::Text("a".into()).partial_cmp_typed(&Value::Int(1)),
            None
        );
    }

    #[test]
    fn schema_projection() {
        let s = gen::orders_schema();
        let p = s.project(&[2, 0]);
        assert_eq!(p.name(0), "amount");
        assert_eq!(p.name(1), "order_id");
    }
}
