//! Classical OLAP query forms, expressed as GMDJ expressions.
//!
//! The paper's §1/§2 argue that the GMDJ uniformly captures the OLAP
//! constructs proposed in the literature — Gray et al.'s `CUBE BY` \[12],
//! the `unpivot` operator used for marginal distributions \[11], and
//! multi-feature queries \[18]. This module provides constructors that
//! build those query shapes so they can be evaluated by any Skalla
//! evaluator (centralized or distributed):
//!
//! * [`cube_expr`] / [`rollup_expr`] — a data cube / rollup over a set of
//!   dimensions. The base-values relation enumerates every grouping
//!   combination with `NULL` as the `ALL` marker (exactly Gray et al.'s
//!   representation), and a *single* GMDJ with the condition
//!   `⋀ᵢ (b.dᵢ IS NULL OR b.dᵢ = r.dᵢ)` computes every cell.
//! * [`unpivot_expr`] — the marginal distribution of a set of attributes:
//!   one row per (attribute, value) pair with a count, built as a GMDJ per
//!   attribute over an explicit base.
//! * [`multi_feature_expr`] — the Ross/Srivastava/Chatziantoniou shape:
//!   per group, aggregates at several granularities that reference each
//!   other (a chain of correlated GMDJs).

use std::collections::BTreeSet;
use std::sync::Arc;

use skalla_expr::Expr;
use skalla_storage::Table;
use skalla_types::{Relation, Result, Row, Schema, SkallaError, Value};

use crate::agg::AggSpec;
use crate::op::{BaseSpec, GmdjBlock, GmdjExpr, GmdjOp};

/// Build the cube base-values relation: for every subset of `dims`, the
/// distinct value combinations present in `detail`, with `NULL` (= `ALL`)
/// in the positions outside the subset.
///
/// The relation has one row per cube cell and schema = the dimension
/// columns of `detail` (in `dims` order).
pub fn build_cube_base(detail: &Table, detail_schema: &Schema, dims: &[usize]) -> Result<Relation> {
    let fields: Vec<_> =
        dims.iter()
            .map(|&d| {
                detail_schema.fields().get(d).cloned().ok_or_else(|| {
                    SkallaError::schema(format!("dimension column {d} out of range"))
                })
            })
            .collect::<Result<Vec<_>>>()?;
    let schema = Arc::new(Schema::new(fields)?);

    // Distinct full-dimensional combinations first.
    let mut full: BTreeSet<Row> = BTreeSet::new();
    for i in 0..detail.len() {
        let row = detail.row(i);
        full.insert(dims.iter().map(|&d| row[d].clone()).collect());
    }

    // Project each combination onto every subset (ALL = NULL elsewhere).
    let mut cells: BTreeSet<Row> = BTreeSet::new();
    let n = dims.len();
    for mask in 0..(1u32 << n) {
        for combo in &full {
            let cell: Row = (0..n)
                .map(|i| {
                    if mask & (1 << i) != 0 {
                        combo[i].clone()
                    } else {
                        Value::Null
                    }
                })
                .collect();
            cells.insert(cell);
        }
    }
    Relation::new(schema, cells.into_iter().collect())
}

/// Build a rollup base: like [`build_cube_base`] but only the hierarchical
/// prefixes (`(d₁, …, dₖ, ALL, …, ALL)` for every `k`).
pub fn build_rollup_base(
    detail: &Table,
    detail_schema: &Schema,
    dims: &[usize],
) -> Result<Relation> {
    let fields: Vec<_> =
        dims.iter()
            .map(|&d| {
                detail_schema.fields().get(d).cloned().ok_or_else(|| {
                    SkallaError::schema(format!("dimension column {d} out of range"))
                })
            })
            .collect::<Result<Vec<_>>>()?;
    let schema = Arc::new(Schema::new(fields)?);

    let mut full: BTreeSet<Row> = BTreeSet::new();
    for i in 0..detail.len() {
        let row = detail.row(i);
        full.insert(dims.iter().map(|&d| row[d].clone()).collect());
    }
    let n = dims.len();
    let mut cells: BTreeSet<Row> = BTreeSet::new();
    for k in 0..=n {
        for combo in &full {
            let cell: Row = (0..n)
                .map(|i| if i < k { combo[i].clone() } else { Value::Null })
                .collect();
            cells.insert(cell);
        }
    }
    Relation::new(schema, cells.into_iter().collect())
}

/// The cube matching condition: `⋀ᵢ (b.i IS NULL OR b.i = r.dims[i])`.
///
/// A `NULL` (`ALL`) dimension matches every detail tuple; a concrete value
/// matches by equality. Note this deliberately exploits the GMDJ's
/// overlapping-`RNG` semantics: a detail tuple contributes to *every* cell
/// that covers it.
pub fn cube_theta(dims: &[usize]) -> Expr {
    Expr::conjunction(dims.iter().enumerate().map(|(i, &d)| {
        Expr::base(i)
            .is_null()
            .or(Expr::base(i).eq(Expr::detail(d)))
    }))
}

/// A full data cube over `dims` of the named detail relation, computing
/// `aggs` in every cell. The base relation must be built with
/// [`build_cube_base`] (the coordinator holds it; cube cells are not a
/// distinct projection of the detail relation).
pub fn cube_expr(
    base: Relation,
    detail_name: impl Into<String>,
    dims: &[usize],
    aggs: Vec<AggSpec>,
) -> Result<GmdjExpr> {
    let key: Vec<usize> = (0..dims.len()).collect();
    let op = GmdjOp::new(vec![GmdjBlock::new(aggs, cube_theta(dims))]);
    GmdjExpr::new(BaseSpec::Relation(base), detail_name, vec![op], key)
}

/// A rollup over `dims`: same operator as the cube, hierarchical base.
pub fn rollup_expr(
    base: Relation,
    detail_name: impl Into<String>,
    dims: &[usize],
    aggs: Vec<AggSpec>,
) -> Result<GmdjExpr> {
    cube_expr(base, detail_name, dims, aggs)
}

/// An unpivot/marginal-distribution query: for each listed attribute, the
/// count of each of its values. The base has schema `(attr UTF8, value)`
/// where `value` must share one type across attributes; one GMDJ block per
/// attribute guards the count.
///
/// Returns the expression and the base relation (held at the coordinator).
pub fn unpivot_expr(
    detail: &Table,
    detail_schema: &Schema,
    detail_name: impl Into<String>,
    attrs: &[usize],
) -> Result<(GmdjExpr, Relation)> {
    if attrs.is_empty() {
        return Err(SkallaError::plan("unpivot needs at least one attribute"));
    }
    let vtype = detail_schema.field(attrs[0]).dtype;
    for &a in attrs {
        if detail_schema.field(a).dtype != vtype {
            return Err(SkallaError::plan(
                "unpivot attributes must share one value type",
            ));
        }
    }
    let schema = Arc::new(Schema::from_pairs([
        ("attr", skalla_types::DataType::Utf8),
        ("value", vtype),
    ])?);

    let mut rows: BTreeSet<Row> = BTreeSet::new();
    for i in 0..detail.len() {
        let row = detail.row(i);
        for &a in attrs {
            rows.insert(vec![
                Value::str(detail_schema.field(a).name.clone()),
                row[a].clone(),
            ]);
        }
    }
    let base = Relation::new(schema, rows.into_iter().collect())?;

    // One block per attribute: count detail rows whose attribute value
    // matches, guarded by the attr-name discriminator.
    let blocks: Vec<GmdjBlock> = attrs
        .iter()
        .map(|&a| {
            GmdjBlock::new(
                vec![AggSpec::count_star(format!(
                    "cnt_{}",
                    detail_schema.field(a).name
                ))],
                Expr::base(0)
                    .eq(Expr::lit(detail_schema.field(a).name.as_str()))
                    .and(Expr::base(1).eq(Expr::detail(a))),
            )
        })
        .collect();
    let expr = GmdjExpr::new(
        BaseSpec::Relation(base.clone()),
        detail_name,
        vec![GmdjOp::new(blocks)],
        vec![0, 1],
    )?;
    Ok((expr, base))
}

/// A multi-feature query (paper ref \[18]): per group, a chain of
/// aggregates where each stage's condition may reference earlier results.
/// `stages` supplies, per stage, the aggregates and a θ builder receiving
/// the index where that stage's base columns start.
pub fn multi_feature_expr(
    group_cols: Vec<usize>,
    detail_name: impl Into<String>,
    stages: Vec<(Vec<AggSpec>, Expr)>,
) -> Result<GmdjExpr> {
    if stages.is_empty() {
        return Err(SkallaError::plan("multi-feature query needs stages"));
    }
    let key: Vec<usize> = (0..group_cols.len()).collect();
    let ops = stages
        .into_iter()
        .map(|(aggs, theta)| GmdjOp::new(vec![GmdjBlock::new(aggs, theta)]))
        .collect();
    GmdjExpr::new(
        BaseSpec::DistinctProject { cols: group_cols },
        detail_name,
        ops,
        key,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centralized::eval_expr_centralized;
    use skalla_storage::{Catalog, Table};
    use skalla_types::DataType;

    fn sales() -> (Table, Catalog) {
        let schema = Schema::from_pairs([
            ("region", DataType::Utf8),
            ("product", DataType::Utf8),
            ("amount", DataType::Int64),
        ])
        .unwrap()
        .into_arc();
        let rows = vec![
            vec![Value::str("east"), Value::str("ale"), Value::Int(10)],
            vec![Value::str("east"), Value::str("ale"), Value::Int(20)],
            vec![Value::str("east"), Value::str("rye"), Value::Int(5)],
            vec![Value::str("west"), Value::str("ale"), Value::Int(7)],
        ];
        let t = Table::from_rows(schema, &rows).unwrap();
        let mut c = Catalog::new();
        c.register("sales", t.clone());
        (t, c)
    }

    #[test]
    fn cube_base_enumerates_all_cells() {
        let (t, _) = sales();
        let base = build_cube_base(&t, t.schema(), &[0, 1]).unwrap();
        // Cells: (ALL,ALL); (east,ALL),(west,ALL); (ALL,ale),(ALL,rye);
        // (east,ale),(east,rye),(west,ale) = 8.
        assert_eq!(base.len(), 8);
        assert!(base.rows().contains(&vec![Value::Null, Value::Null]));
        assert!(base.rows().contains(&vec![Value::str("west"), Value::Null]));
        // (west, rye) never occurs in the data → not a cell.
        assert!(!base
            .rows()
            .contains(&vec![Value::str("west"), Value::str("rye")]));
    }

    #[test]
    fn cube_totals_are_correct() {
        let (t, c) = sales();
        let base = build_cube_base(&t, t.schema(), &[0, 1]).unwrap();
        let expr = cube_expr(
            base,
            "sales",
            &[0, 1],
            vec![
                AggSpec::count_star("cnt"),
                AggSpec::sum(Expr::detail(2), "total").unwrap(),
            ],
        )
        .unwrap();
        let out = eval_expr_centralized(&expr, &c).unwrap();
        let get = |region: Value, product: Value| -> (i64, i64) {
            let row = out
                .rows()
                .iter()
                .find(|r| r[0] == region && r[1] == product)
                .unwrap();
            (row[2].as_int().unwrap(), row[3].as_int().unwrap())
        };
        assert_eq!(get(Value::Null, Value::Null), (4, 42)); // grand total
        assert_eq!(get(Value::str("east"), Value::Null), (3, 35));
        assert_eq!(get(Value::Null, Value::str("ale")), (3, 37));
        assert_eq!(get(Value::str("east"), Value::str("ale")), (2, 30));
        assert_eq!(get(Value::str("west"), Value::str("ale")), (1, 7));
    }

    #[test]
    fn rollup_base_is_hierarchical() {
        let (t, _) = sales();
        let base = build_rollup_base(&t, t.schema(), &[0, 1]).unwrap();
        // (ALL,ALL); (east,ALL),(west,ALL); 3 full combos = 6 cells.
        assert_eq!(base.len(), 6);
        assert!(!base.rows().contains(&vec![Value::Null, Value::str("ale")]));
    }

    #[test]
    fn rollup_totals_match_cube_on_shared_cells() {
        let (t, c) = sales();
        let cube_base = build_cube_base(&t, t.schema(), &[0, 1]).unwrap();
        let rollup_base = build_rollup_base(&t, t.schema(), &[0, 1]).unwrap();
        let aggs = || vec![AggSpec::sum(Expr::detail(2), "total").unwrap()];
        let cube =
            eval_expr_centralized(&cube_expr(cube_base, "sales", &[0, 1], aggs()).unwrap(), &c)
                .unwrap();
        let rollup = eval_expr_centralized(
            &rollup_expr(rollup_base, "sales", &[0, 1], aggs()).unwrap(),
            &c,
        )
        .unwrap();
        for r in rollup.rows() {
            assert!(
                cube.rows().contains(r),
                "rollup cell {r:?} missing from cube"
            );
        }
    }

    #[test]
    fn unpivot_counts_marginals() {
        let (t, c) = sales();
        let (expr, base) = unpivot_expr(&t, t.schema(), "sales", &[0, 1]).unwrap();
        // attr/value pairs: (region,east),(region,west),(product,ale),(product,rye)
        assert_eq!(base.len(), 4);
        let out = eval_expr_centralized(&expr, &c).unwrap();
        // Block guards are disjoint: exactly one count column is non-zero
        // per row; the right one carries the marginal frequency.
        let find = |attr: &str, value: &str| -> Vec<i64> {
            let row = out
                .rows()
                .iter()
                .find(|r| r[0] == Value::str(attr) && r[1] == Value::str(value))
                .unwrap();
            vec![row[2].as_int().unwrap(), row[3].as_int().unwrap()]
        };
        assert_eq!(find("region", "east"), vec![3, 0]);
        assert_eq!(find("region", "west"), vec![1, 0]);
        assert_eq!(find("product", "ale"), vec![0, 3]);
        assert_eq!(find("product", "rye"), vec![0, 1]);
    }

    #[test]
    fn unpivot_rejects_mixed_types_and_empty() {
        let (t, _) = sales();
        assert!(unpivot_expr(&t, t.schema(), "sales", &[0, 2]).is_err());
        assert!(unpivot_expr(&t, t.schema(), "sales", &[]).is_err());
    }

    #[test]
    fn multi_feature_chain() {
        let (_, c) = sales();
        // Per region: max amount, then the count of sales at that max.
        let stage1 = (
            vec![AggSpec::max(Expr::detail(2), "mx").unwrap()],
            Expr::base(0).eq(Expr::detail(0)),
        );
        // After stage 1 the base is (region, mx): mx is base col 1.
        let stage2 = (
            vec![AggSpec::count_star("at_max")],
            Expr::base(0)
                .eq(Expr::detail(0))
                .and(Expr::detail(2).eq(Expr::base(1))),
        );
        let expr = multi_feature_expr(vec![0], "sales", vec![stage1, stage2]).unwrap();
        let out = eval_expr_centralized(&expr, &c).unwrap().sorted();
        assert_eq!(
            out.row(0),
            &vec![Value::str("east"), Value::Int(20), Value::Int(1)]
        );
        assert_eq!(
            out.row(1),
            &vec![Value::str("west"), Value::Int(7), Value::Int(1)]
        );
        assert!(multi_feature_expr(vec![0], "sales", vec![]).is_err());
    }
}
