//! Pushdown relational operators: predicate filtering, projection, and
//! aggregation over [`crate::record::Batch`]es — the "pushdown database
//! operators (e.g., predicates and aggregation)" DPDPU's Compute Engine
//! executes on the DPU (paper §1, §4).

use crate::record::{Batch, Record, Value};

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    fn eval(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

/// A boolean predicate tree over one record.
#[derive(Debug, Clone)]
pub enum Predicate {
    /// `column <op> literal`.
    Cmp {
        /// Column index.
        col: usize,
        /// Operator.
        op: CmpOp,
        /// Literal to compare against.
        value: Value,
    },
    /// Both sides hold.
    And(Box<Predicate>, Box<Predicate>),
    /// Either side holds.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
    /// Always true (scan).
    True,
}

impl Predicate {
    /// Convenience constructor for `column <op> literal`.
    pub fn cmp(col: usize, op: CmpOp, value: Value) -> Self {
        Predicate::Cmp { col, op, value }
    }

    /// `a AND b`.
    pub fn and(self, other: Predicate) -> Self {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// Evaluates against one record. Type-incompatible comparisons are
    /// false (SQL-ish three-valued logic collapsed to false).
    pub fn eval(&self, record: &Record) -> bool {
        match self {
            Predicate::True => true,
            Predicate::Cmp { col, op, value } => record
                .get(*col)
                .partial_cmp_typed(value)
                .map(|ord| op.eval(ord))
                .unwrap_or(false),
            Predicate::And(a, b) => a.eval(record) && b.eval(record),
            Predicate::Or(a, b) => a.eval(record) || b.eval(record),
            Predicate::Not(p) => !p.eval(record),
        }
    }
}

/// Filters a batch, keeping qualifying rows.
pub fn filter(batch: &Batch, predicate: &Predicate) -> Batch {
    Batch {
        schema: batch.schema.clone(),
        rows: batch
            .rows
            .iter()
            .filter(|r| predicate.eval(r))
            .cloned()
            .collect(),
    }
}

/// Selectivity of a predicate over a batch (qualifying fraction).
pub fn selectivity(batch: &Batch, predicate: &Predicate) -> f64 {
    if batch.is_empty() {
        return 0.0;
    }
    let hits = batch.rows.iter().filter(|r| predicate.eval(r)).count();
    hits as f64 / batch.len() as f64
}

/// Projects a batch onto the given column indices.
pub fn project(batch: &Batch, cols: &[usize]) -> Batch {
    Batch {
        schema: batch.schema.project(cols),
        rows: batch
            .rows
            .iter()
            .map(|r| Record::new(cols.iter().map(|&c| r.get(c).clone()).collect()))
            .collect(),
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Row count (column ignored).
    Count,
    /// Sum of a numeric column.
    Sum,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Arithmetic mean.
    Avg,
}

/// One aggregate: function over a column.
#[derive(Debug, Clone, Copy)]
pub struct AggSpec {
    /// Function.
    pub func: AggFunc,
    /// Input column index.
    pub col: usize,
}

fn numeric(v: &Value) -> f64 {
    match v {
        Value::Int(i) => *i as f64,
        Value::Float(f) => *f,
        Value::Text(_) => f64::NAN,
    }
}

struct AggState {
    count: u64,
    sum: f64,
    min: Option<Value>,
    max: Option<Value>,
}

impl AggState {
    fn new() -> Self {
        AggState {
            count: 0,
            sum: 0.0,
            min: None,
            max: None,
        }
    }

    fn update(&mut self, v: &Value) {
        self.count += 1;
        self.sum += numeric(v);
        let better_min = self
            .min
            .as_ref()
            .map(|m| v.partial_cmp_typed(m) == Some(std::cmp::Ordering::Less))
            .unwrap_or(true);
        if better_min {
            self.min = Some(v.clone());
        }
        let better_max = self
            .max
            .as_ref()
            .map(|m| v.partial_cmp_typed(m) == Some(std::cmp::Ordering::Greater))
            .unwrap_or(true);
        if better_max {
            self.max = Some(v.clone());
        }
    }

    fn result(&self, func: AggFunc) -> Value {
        match func {
            AggFunc::Count => Value::Int(self.count as i64),
            AggFunc::Sum => Value::Float(self.sum),
            AggFunc::Min => self.min.clone().unwrap_or(Value::Int(0)),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Int(0)),
            AggFunc::Avg => Value::Float(if self.count == 0 {
                0.0
            } else {
                self.sum / self.count as f64
            }),
        }
    }
}

/// Ungrouped aggregation: one output value per spec.
pub fn aggregate(batch: &Batch, specs: &[AggSpec]) -> Vec<Value> {
    let mut states: Vec<AggState> = specs.iter().map(|_| AggState::new()).collect();
    for row in &batch.rows {
        for (spec, st) in specs.iter().zip(states.iter_mut()) {
            st.update(row.get(spec.col));
        }
    }
    specs
        .iter()
        .zip(states.iter())
        .map(|(s, st)| st.result(s.func))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::gen;

    fn amount_over(threshold: f64) -> Predicate {
        Predicate::cmp(2, CmpOp::Gt, Value::Float(threshold))
    }

    #[test]
    fn filter_keeps_qualifying_rows() {
        let batch = gen::orders(1_000, 1);
        let out = filter(&batch, &amount_over(5_000.0));
        assert!(!out.is_empty() && out.len() < batch.len());
        for row in &out.rows {
            assert!(matches!(row.get(2), Value::Float(a) if *a > 5_000.0));
        }
    }

    #[test]
    fn compound_predicates() {
        let batch = gen::orders(1_000, 2);
        let p = amount_over(3_000.0).and(Predicate::cmp(3, CmpOp::Eq, Value::Text("paid".into())));
        let out = filter(&batch, &p);
        for row in &out.rows {
            assert!(matches!(row.get(3), Value::Text(s) if s == "paid"));
        }
        let all = filter(&batch, &Predicate::True);
        assert_eq!(all.len(), batch.len());
        let none = filter(&batch, &Predicate::Not(Box::new(Predicate::True)));
        assert!(none.is_empty());
    }

    #[test]
    fn selectivity_bounds() {
        let batch = gen::orders(2_000, 3);
        let s = selectivity(&batch, &amount_over(0.0));
        assert!((s - 1.0).abs() < 1e-9);
        let s = selectivity(&batch, &amount_over(f64::MAX));
        assert_eq!(s, 0.0);
    }

    #[test]
    fn projection_reorders_columns() {
        let batch = gen::orders(10, 4);
        let out = project(&batch, &[3, 0]);
        assert_eq!(out.schema.arity(), 2);
        assert_eq!(out.schema.name(0), "status");
        assert_eq!(out.rows[0].values.len(), 2);
    }

    #[test]
    fn ungrouped_aggregates() {
        let batch = gen::orders(500, 5);
        let out = aggregate(
            &batch,
            &[
                AggSpec {
                    func: AggFunc::Count,
                    col: 0,
                },
                AggSpec {
                    func: AggFunc::Sum,
                    col: 2,
                },
                AggSpec {
                    func: AggFunc::Min,
                    col: 2,
                },
                AggSpec {
                    func: AggFunc::Max,
                    col: 2,
                },
                AggSpec {
                    func: AggFunc::Avg,
                    col: 2,
                },
            ],
        );
        assert_eq!(out[0], Value::Int(500));
        let (sum, min, max, avg) = match (&out[1], &out[2], &out[3], &out[4]) {
            (Value::Float(s), Value::Float(mn), Value::Float(mx), Value::Float(av)) => {
                (*s, *mn, *mx, *av)
            }
            other => panic!("unexpected agg types: {other:?}"),
        };
        assert!(min <= avg && avg <= max);
        assert!((sum / 500.0 - avg).abs() < 1e-9);
    }

    #[test]
    fn aggregate_empty_batch() {
        let batch = crate::record::Batch::empty(gen::orders_schema());
        let out = aggregate(
            &batch,
            &[AggSpec {
                func: AggFunc::Count,
                col: 0,
            }],
        );
        assert_eq!(out[0], Value::Int(0));
    }
}
