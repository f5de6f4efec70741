//! The columnar [`Table`].

use std::sync::Arc;

use skalla_expr::{eval_detail, eval_predicate, Batch, Expr};
use skalla_types::{Relation, Result, Row, Schema, SkallaError, Value};

use crate::column::Column;

/// An append-only columnar table with a fixed schema.
///
/// Tables hold the *detail* (fact) data at each site. Base-values relations
/// and query results use the row-oriented [`Relation`] instead.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: Arc<Schema>,
    columns: Vec<Column>,
    len: usize,
}

impl Table {
    /// An empty table with the given schema.
    pub fn empty(schema: Arc<Schema>) -> Table {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::new(f.dtype))
            .collect();
        Table {
            schema,
            columns,
            len: 0,
        }
    }

    /// Build a table directly from columns (lengths and types must agree
    /// with the schema).
    pub fn from_columns(schema: Arc<Schema>, columns: Vec<Column>) -> Result<Table> {
        if columns.len() != schema.len() {
            return Err(SkallaError::schema(format!(
                "{} columns given, schema has {}",
                columns.len(),
                schema.len()
            )));
        }
        let mut len = None;
        for (c, f) in columns.iter().zip(schema.fields()) {
            if c.data_type() != f.dtype {
                return Err(SkallaError::schema(format!(
                    "column `{}` has type {}, got {}",
                    f.name,
                    f.dtype,
                    c.data_type()
                )));
            }
            match len {
                None => len = Some(c.len()),
                Some(l) if l != c.len() => {
                    return Err(SkallaError::schema(format!(
                        "column `{}` has {} rows, expected {}",
                        f.name,
                        c.len(),
                        l
                    )))
                }
                _ => {}
            }
        }
        Ok(Table {
            schema,
            columns,
            len: len.unwrap_or(0),
        })
    }

    /// Build a table from rows.
    pub fn from_rows(schema: Arc<Schema>, rows: &[Row]) -> Result<Table> {
        let mut b = TableBuilder::new(schema);
        for r in rows {
            b.push_row(r)?;
        }
        Ok(b.finish())
    }

    /// The schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The column at `idx`.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// The column named `name`.
    pub fn column_by_name(&self, name: &str) -> Result<&Column> {
        Ok(&self.columns[self.schema.index_of(name)?])
    }

    /// Materialize row `i`.
    pub fn row(&self, i: usize) -> Row {
        self.columns.iter().map(|c| c.get(i)).collect()
    }

    /// A zero-copy [`Batch`] view of rows `start..start + len` across all
    /// columns, for the compiled kernel path.
    pub fn batch(&self, start: usize, len: usize) -> Batch<'_> {
        Batch::new(
            self.columns.iter().map(|c| c.batch(start, len)).collect(),
            len,
        )
    }

    /// Iterate over materialized rows.
    pub fn iter_rows(&self) -> impl Iterator<Item = Row> + '_ {
        (0..self.len).map(|i| self.row(i))
    }

    /// Row indices whose rows satisfy the (detail-only) predicate.
    pub fn filter_indices(&self, pred: &Expr) -> Result<Vec<u32>> {
        let mut out = Vec::new();
        let empty: Row = Vec::new();
        for i in 0..self.len {
            let row = self.row(i);
            if eval_predicate(pred, &empty, &row)? {
                out.push(i as u32);
            }
        }
        Ok(out)
    }

    /// A new table with only the rows at `indices`.
    pub fn take(&self, indices: &[u32]) -> Table {
        let columns = self.columns.iter().map(|c| c.take(indices)).collect();
        Table {
            schema: self.schema.clone(),
            columns,
            len: indices.len(),
        }
    }

    /// A new table with the contiguous rows `start..end` — the
    /// materialization of a range-addressed partition fragment
    /// ([`crate::partition::PartFrag`]). Column payloads are sliced as
    /// typed vectors, so this is a straight memcpy per column.
    pub fn row_range(&self, start: usize, end: usize) -> Result<Table> {
        if start > end || end > self.len {
            return Err(SkallaError::exec(format!(
                "row range {start}..{end} out of bounds for table of {} rows",
                self.len
            )));
        }
        let columns = self
            .columns
            .iter()
            .map(|c| c.slice_rows(start, end))
            .collect();
        Ok(Table {
            schema: self.schema.clone(),
            columns,
            len: end - start,
        })
    }

    /// A new table with the rows satisfying the (detail-only) predicate.
    pub fn filter(&self, pred: &Expr) -> Result<Table> {
        Ok(self.take(&self.filter_indices(pred)?))
    }

    /// Evaluate a detail-only scalar expression for every row.
    pub fn eval_column(&self, expr: &Expr) -> Result<Vec<Value>> {
        let mut out = Vec::with_capacity(self.len);
        for i in 0..self.len {
            let row = self.row(i);
            out.push(eval_detail(expr, &row)?);
        }
        Ok(out)
    }

    /// Project onto columns `indices` as a (columnar) table.
    pub fn project(&self, indices: &[usize]) -> Result<Table> {
        let schema = Arc::new(self.schema.project(indices)?);
        let columns = indices.iter().map(|&i| self.columns[i].clone()).collect();
        Ok(Table {
            schema,
            columns,
            len: self.len,
        })
    }

    /// The *distinct* projection onto `indices`, as a row-oriented
    /// [`Relation`] in first-seen row order (see
    /// [`ScanSource::distinct_project`](crate::ScanSource::distinct_project)).
    pub fn distinct_project(&self, indices: &[usize]) -> Result<Relation> {
        crate::ScanSource::table(self).distinct_project(indices)
    }

    /// Convert the whole table to a row-oriented [`Relation`].
    pub fn to_relation(&self) -> Relation {
        Relation::from_rows_unchecked(self.schema.clone(), self.iter_rows().collect())
    }

    /// Concatenate tables with identical schemas.
    pub fn concat(parts: &[Table]) -> Result<Table> {
        let first = parts
            .first()
            .ok_or_else(|| SkallaError::schema("concat of zero tables"))?;
        let total: usize = parts.iter().map(|p| p.len).sum();
        let mut columns: Vec<Column> = first
            .columns
            .iter()
            .map(|c| Column::with_capacity(c.data_type(), total))
            .collect();
        for p in parts {
            if *p.schema != *first.schema {
                return Err(SkallaError::schema("concat of mismatched schemas"));
            }
            for (out, src) in columns.iter_mut().zip(&p.columns) {
                out.append_range(src, 0, p.len)?;
            }
        }
        Ok(Table {
            schema: first.schema.clone(),
            columns,
            len: total,
        })
    }
}

/// Row-at-a-time builder for [`Table`].
#[derive(Debug)]
pub struct TableBuilder {
    schema: Arc<Schema>,
    columns: Vec<Column>,
    len: usize,
}

impl TableBuilder {
    /// A builder for the given schema.
    pub fn new(schema: Arc<Schema>) -> TableBuilder {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::new(f.dtype))
            .collect();
        TableBuilder {
            schema,
            columns,
            len: 0,
        }
    }

    /// A builder with reserved row capacity.
    pub fn with_capacity(schema: Arc<Schema>, cap: usize) -> TableBuilder {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::with_capacity(f.dtype, cap))
            .collect();
        TableBuilder {
            schema,
            columns,
            len: 0,
        }
    }

    /// Append one row (values cloned).
    pub fn push_row(&mut self, row: &[Value]) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(SkallaError::schema(format!(
                "row has {} values, schema has {} columns",
                row.len(),
                self.schema.len()
            )));
        }
        for (c, v) in self.columns.iter_mut().zip(row) {
            c.push(v.clone())?;
        }
        self.len += 1;
        Ok(())
    }

    /// Number of rows appended so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no rows have been appended.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Finish into a [`Table`].
    pub fn finish(self) -> Table {
        Table {
            schema: self.schema,
            columns: self.columns,
            len: self.len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skalla_types::DataType;

    #[test]
    fn row_range_slices_and_bounds_check() {
        let t = flow_table();
        let n = t.len();
        let mid = t.row_range(1, n).unwrap();
        assert_eq!(mid.len(), n - 1);
        assert_eq!(mid.row(0), t.row(1));
        let empty = t.row_range(2, 2).unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.schema(), t.schema());
        assert!(t.row_range(0, n + 1).is_err());
        assert!(t.row_range(3, 2).is_err());
        // Concatenating the fragment slices reproduces the table exactly.
        let a = t.row_range(0, n / 2).unwrap();
        let b = t.row_range(n / 2, n).unwrap();
        let back = Table::concat(&[a, b]).unwrap();
        for i in 0..n {
            assert_eq!(back.row(i), t.row(i));
        }
    }

    fn flow_schema() -> Arc<Schema> {
        Schema::from_pairs([
            ("sas", DataType::Int64),
            ("das", DataType::Int64),
            ("nb", DataType::Int64),
        ])
        .unwrap()
        .into_arc()
    }

    fn flow_table() -> Table {
        Table::from_rows(
            flow_schema(),
            &[
                vec![Value::Int(1), Value::Int(10), Value::Int(100)],
                vec![Value::Int(1), Value::Int(10), Value::Int(300)],
                vec![Value::Int(2), Value::Int(20), Value::Int(50)],
                vec![Value::Int(1), Value::Int(20), Value::Int(75)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn build_and_access_rows() {
        let t = flow_table();
        assert_eq!(t.len(), 4);
        assert_eq!(
            t.row(2),
            vec![Value::Int(2), Value::Int(20), Value::Int(50)]
        );
        assert_eq!(t.column_by_name("nb").unwrap().get(1), Value::Int(300));
        assert!(t.column_by_name("zz").is_err());
        assert!(!t.is_empty());
    }

    #[test]
    fn from_columns_validates() {
        let s = flow_schema();
        let cols = vec![
            Column::from_i64(vec![1]),
            Column::from_i64(vec![2]),
            Column::from_i64(vec![3]),
        ];
        let t = Table::from_columns(s.clone(), cols).unwrap();
        assert_eq!(t.len(), 1);

        // Arity mismatch.
        assert!(Table::from_columns(s.clone(), vec![Column::from_i64(vec![1])]).is_err());
        // Type mismatch.
        let bad = vec![
            Column::from_strs(["x"]),
            Column::from_i64(vec![2]),
            Column::from_i64(vec![3]),
        ];
        assert!(Table::from_columns(s.clone(), bad).is_err());
        // Length mismatch.
        let bad = vec![
            Column::from_i64(vec![1, 2]),
            Column::from_i64(vec![2]),
            Column::from_i64(vec![3]),
        ];
        assert!(Table::from_columns(s, bad).is_err());
    }

    #[test]
    fn filter_by_predicate() {
        let t = flow_table();
        // nb > 90
        let pred = Expr::detail(2).gt(Expr::lit(90));
        let f = t.filter(&pred).unwrap();
        assert_eq!(f.len(), 2);
        assert_eq!(f.column(2).get(0), Value::Int(100));
        assert_eq!(f.column(2).get(1), Value::Int(300));
    }

    #[test]
    fn distinct_project_builds_base_values() {
        let t = flow_table();
        let b = t.distinct_project(&[0, 1]).unwrap();
        assert_eq!(b.len(), 3); // (1,10), (2,20), (1,20)
        assert_eq!(b.schema().names(), vec!["sas", "das"]);
    }

    #[test]
    fn project_keeps_columnar_form() {
        let t = flow_table();
        let p = t.project(&[2]).unwrap();
        assert_eq!(p.schema().names(), vec!["nb"]);
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn eval_column_computes_per_row() {
        let t = flow_table();
        let e = Expr::detail(2).mul(Expr::lit(2));
        let vs = t.eval_column(&e).unwrap();
        assert_eq!(vs[0], Value::Int(200));
        assert_eq!(vs.len(), 4);
    }

    #[test]
    fn concat_appends_and_checks_schema() {
        let t = flow_table();
        let c = Table::concat(&[t.clone(), t.clone()]).unwrap();
        assert_eq!(c.len(), 8);
        assert!(Table::concat(&[]).is_err());

        let other = Table::empty(
            Schema::from_pairs([("x", DataType::Int64)])
                .unwrap()
                .into_arc(),
        );
        assert!(Table::concat(&[t, other]).is_err());
    }

    #[test]
    fn to_relation_round_trip() {
        let t = flow_table();
        let r = t.to_relation();
        assert_eq!(r.len(), t.len());
        assert_eq!(r.row(3), &t.row(3));
    }

    #[test]
    fn builder_rejects_bad_rows() {
        let mut b = TableBuilder::with_capacity(flow_schema(), 8);
        assert!(b.is_empty());
        assert!(b.push_row(&[Value::Int(1)]).is_err());
        assert!(b
            .push_row(&[Value::Int(1), Value::Int(2), Value::str("x")])
            .is_err());
        assert!(b
            .push_row(&[Value::Int(1), Value::Int(2), Value::Int(3)])
            .is_ok());
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn take_reorders_rows() {
        let t = flow_table();
        let t2 = t.take(&[3, 0]);
        assert_eq!(t2.len(), 2);
        assert_eq!(t2.row(0), t.row(3));
        assert_eq!(t2.row(1), t.row(0));
    }
}
