//! Differential property tests for the compiled kernel path.
//!
//! The vectorized kernels of `skalla_expr::compile` must agree with the
//! row-at-a-time interpreter *bit for bit* — including NULL propagation,
//! SQL three-valued logic, and `-0.0`/overflow edge cases — on arbitrary
//! expressions and data. Lanes the compiler flags as deferred errors are
//! exempt (production resolves them by re-running the interpreter), but a
//! non-error lane must match the interpreter exactly, and the whole-GMDJ
//! differential below requires the compiled evaluator and the interpreter
//! to return identical relations (or both to fail), mirroring the existing
//! `nested_loop_agrees_with_hash` test. A second whole-GMDJ differential
//! covers the hash plan with a residual (`b.0 = r.0 AND …`), in memory and
//! over segment files, with floats compared by their bits.

use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use skalla::expr::{eval, CompiledPred, CompiledScalar, Expr, ScalarLanes};
use skalla::gmdj::{eval_gmdj_full, eval_gmdj_sub, eval_gmdj_sub_segments, EvalOptions};
use skalla::prelude::*;
use skalla::storage::{write_segments, SegmentFile};

fn detail_schema() -> std::sync::Arc<Schema> {
    Schema::from_pairs([
        ("g", DataType::Int64),
        ("v", DataType::Int64),
        ("f", DataType::Float64),
        ("s", DataType::Utf8),
        ("b", DataType::Bool),
    ])
    .unwrap()
    .into_arc()
}

fn base_schema() -> std::sync::Arc<Schema> {
    Schema::from_pairs([("k", DataType::Int64), ("w", DataType::Float64)])
        .unwrap()
        .into_arc()
}

type RowTuple = (i64, Option<i64>, Option<f64>, String, Option<bool>);

/// Detail rows with NULLs in every nullable column and float edge values.
fn arb_rows() -> impl Strategy<Value = Vec<RowTuple>> {
    prop::collection::vec(
        (
            -3i64..3,
            prop::option::of(-100i64..100),
            prop::option::of(prop_oneof![-100.0f64..100.0, Just(0.0f64), Just(-0.0f64),]),
            "[ab]{0,2}",
            prop::option::of(any::<bool>()),
        ),
        1..40,
    )
}

fn build_table(rows: &[RowTuple]) -> Table {
    let data: Vec<Vec<Value>> = rows
        .iter()
        .map(|(g, v, f, s, b)| {
            vec![
                Value::Int(*g),
                v.map_or(Value::Null, Value::Int),
                f.map_or(Value::Null, Value::Float),
                Value::str(s.as_str()),
                b.map_or(Value::Null, Value::Bool),
            ]
        })
        .collect();
    Table::from_rows(detail_schema(), &data).unwrap()
}

fn arb_base_row() -> impl Strategy<Value = Vec<Value>> {
    (prop::option::of(-5i64..5), prop::option::of(-10.0f64..10.0)).prop_map(|(k, w)| {
        vec![
            k.map_or(Value::Null, Value::Int),
            w.map_or(Value::Null, Value::Float),
        ]
    })
}

/// Arbitrary expressions over the detail schema (cols 0..5), the two base
/// columns, and literals of every type including NULL. Many draws are
/// ill-typed on purpose: the compiler must either refuse them or defer to
/// the interpreter, never silently diverge.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-20i64..20).prop_map(Expr::lit),
        (-4.0f64..4.0).prop_map(Expr::lit),
        any::<bool>().prop_map(Expr::lit),
        Just(Expr::Lit(Value::Null)),
        "[ab]{0,2}".prop_map(|s| Expr::lit(s.as_str())),
        (0usize..5).prop_map(Expr::detail),
        (0usize..2).prop_map(Expr::base),
    ];
    leaf.prop_recursive(3, 32, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone(), 0usize..11).prop_map(|(a, b, k)| match k {
                0 => a.add(b),
                1 => a.sub(b),
                2 => a.mul(b),
                3 => a.div(b),
                4 => a.rem(b),
                5 => a.eq(b),
                6 => a.ne(b),
                7 => a.lt(b),
                8 => a.le(b),
                9 => a.gt(b),
                _ => a.ge(b),
            }),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.clone().prop_map(|a| a.not()),
            inner.clone().prop_map(|a| a.neg()),
            inner.clone().prop_map(|a| a.is_null()),
            (inner, prop::collection::vec(-5i64..5, 1..4))
                .prop_map(|(a, vs)| a.in_set(vs.into_iter().map(Value::Int))),
        ]
    })
}

/// Detail-only scalar expressions, used as aggregate arguments.
fn arb_agg_arg() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-20i64..20).prop_map(Expr::lit),
        (-4.0f64..4.0).prop_map(Expr::lit),
        Just(Expr::detail(1)),
        Just(Expr::detail(2)),
    ];
    leaf.prop_recursive(2, 16, 2, |inner| {
        (inner.clone(), inner, 0usize..4).prop_map(|(a, b, k)| match k {
            0 => a.add(b),
            1 => a.sub(b),
            2 => a.mul(b),
            _ => a.div(b),
        })
    })
}

/// Base rows with duplicate keys (several base tuples match one detail
/// key), NULL keys, and zero / negative-zero / NULL weights for division
/// lanes.
fn arb_base_rows() -> impl Strategy<Value = Vec<Vec<Value>>> {
    prop::collection::vec(
        (
            prop::option::of(-3i64..3),
            prop::option::of(prop_oneof![
                -10.0f64..10.0,
                Just(0.0f64),
                Just(-0.0f64),
                Just(1.0f64)
            ]),
        )
            .prop_map(|(k, w)| {
                vec![
                    k.map_or(Value::Null, Value::Int),
                    w.map_or(Value::Null, Value::Float),
                ]
            }),
        1..8,
    )
}

/// Well-typed numeric operands over detail columns `v`, `f` and, when
/// `with_base`, base columns `k`, `w`, combined arithmetically (division
/// lanes included).
fn arb_num(with_base: bool) -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-5i64..5).prop_map(Expr::lit),
        prop_oneof![-2.0f64..2.0, Just(0.0f64)].prop_map(Expr::lit),
        Just(Expr::detail(1)),
        Just(Expr::detail(2)),
        Just(if with_base {
            Expr::base(0)
        } else {
            Expr::detail(0)
        }),
        Just(if with_base {
            Expr::base(1)
        } else {
            Expr::detail(2)
        }),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        (inner.clone(), inner, 0usize..4).prop_map(|(a, b, k)| match k {
            0 => a.add(b),
            1 => a.sub(b),
            2 => a.mul(b),
            _ => a.div(b),
        })
    })
}

/// A comparison of two well-typed numeric operands.
fn arb_cmp(with_base: bool) -> impl Strategy<Value = Expr> {
    (arb_num(with_base), arb_num(with_base), 0usize..4).prop_map(|(a, b, k)| match k {
        0 => a.lt(b),
        1 => a.ge(b),
        2 => a.ne(b),
        _ => a.eq(b),
    })
}

/// Hash-block residuals: detail-only ones, base-referencing ones, a
/// detail-only prefix followed by a base-referencing rest, arbitrary
/// (often ill-typed) expressions, and fixed division / modulo shapes whose
/// zero divisors hit matched and unmatched rows alike.
fn arb_residual() -> impl Strategy<Value = Expr> {
    (
        arb_expr(),
        arb_cmp(false),
        arb_cmp(false),
        arb_cmp(true),
        0usize..12,
    )
        .prop_map(|(any_expr, d1, d2, mixed, pick)| match pick {
            // b.k (Int) -> r.v (Int), b.w (Float) -> r.f (Float).
            0 => any_expr.base_into_detail(&|i| i + 1, &|j| j),
            1 => any_expr,
            2 => d1,
            3 => mixed,
            4 => d1.and(mixed),
            5 => d1.and(d2).and(mixed),
            // Detail-only division by zero on every row with v = 0.
            6 => Expr::lit(100).div(Expr::detail(1)).gt(Expr::lit(3)),
            // Base-referencing division: w = 0 / -0.0 / NULL base rows.
            7 => Expr::detail(2).div(Expr::base(1)).ge(Expr::lit(0.0)),
            // Prefix with a modulo-by-zero lane, then a base reference.
            8 => Expr::detail(1)
                .rem(Expr::detail(0))
                .eq(Expr::lit(0))
                .and(Expr::detail(2).lt(Expr::base(1))),
            // Loose base-referencing residuals that pass most rows, so
            // float folds see long runs per group.
            10 => Expr::detail(2).ge(Expr::base(1).sub(Expr::lit(1000.0))),
            11 => Expr::detail(1)
                .ne(Expr::lit(1000))
                .and(Expr::base(0).ne(Expr::detail(1).add(Expr::lit(1000)))),
            // A FALSE prefix must mask the errors of the rest.
            _ => Expr::detail(1).gt(Expr::lit(0)).and(
                Expr::lit(50)
                    .div(Expr::detail(1).sub(Expr::lit(1)))
                    .le(Expr::base(0)),
            ),
        })
}

fn base_relation(rows: Vec<Vec<Value>>) -> Relation {
    Relation::new(base_schema(), rows).unwrap()
}

/// Unique scratch path per segment file (test binaries run concurrently).
fn scratch_path(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "skalla-compiled-{tag}-{}-{n}.seg",
        std::process::id()
    ))
}

/// Row-by-row equality in base order, floats compared by bit pattern.
fn assert_same_bits(got: &Relation, want: &Relation, ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: row count");
    for (i, (g, w)) in got.rows().iter().zip(want.rows()).enumerate() {
        assert_eq!(g.len(), w.len(), "{ctx}: row {i} width");
        for (x, y) in g.iter().zip(w) {
            let same = match (x, y) {
                (Value::Float(p), Value::Float(q)) => p.to_bits() == q.to_bits(),
                _ => x == y,
            };
            assert!(same, "{ctx}: row {i}: {g:?} vs {w:?}");
        }
    }
}

/// Assert that every non-error lane matches the interpreter exactly.
/// Error lanes are the compiler's explicit "ask the interpreter" signal,
/// so they carry no agreement obligation.
fn assert_scalar_lanes_agree(expr: &Expr, base_row: &[Value], table: &Table, lanes: &ScalarLanes) {
    assert_eq!(lanes.len(), table.len());
    for i in 0..table.len() {
        if lanes.is_err(i) {
            continue;
        }
        let row = table.row(i);
        let got = eval(expr, base_row, &row)
            .unwrap_or_else(|e| panic!("interpreter errored on non-error lane {i}: {e}"));
        if lanes.is_null(i) {
            assert_eq!(got, Value::Null, "lane {i} null mismatch for {expr}");
            continue;
        }
        match (lanes, &got) {
            (ScalarLanes::I64(l), Value::Int(v)) => assert_eq!(l.vals[i], *v, "lane {i}: {expr}"),
            (ScalarLanes::F64(l), Value::Float(v)) => assert_eq!(
                l.vals[i].to_bits(),
                v.to_bits(),
                "lane {i} not bit-identical for {expr}"
            ),
            (ScalarLanes::Str(l), Value::Str(v)) => {
                assert_eq!(&l.vals[i], v, "lane {i}: {expr}")
            }
            (ScalarLanes::Bool(l), Value::Bool(v)) => assert_eq!(l.vals[i], *v, "lane {i}: {expr}"),
            (_, other) => panic!("lane type mismatch for {expr}: interpreter produced {other}"),
        }
    }
}

proptest! {
    /// Compiled predicates agree with the interpreter on every non-error
    /// lane: same definite boolean, same NULLs (three-valued logic).
    #[test]
    fn compiled_pred_agrees_with_interpreter(
        rows in arb_rows(),
        base_row in arb_base_row(),
        expr in arb_expr(),
    ) {
        let table = build_table(&rows);
        if let Some(pred) = CompiledPred::compile(&expr, &base_schema(), &detail_schema()) {
            let batch = table.batch(0, table.len());
            let lanes = pred.eval_batch(&base_row, &batch);
            prop_assert_eq!(lanes.vals.len(), table.len());
            for i in 0..table.len() {
                if lanes.errs[i] {
                    continue;
                }
                let row = table.row(i);
                let got = eval(&expr, &base_row, &row)
                    .unwrap_or_else(|e| panic!("interpreter errored on non-error lane {i}: {e}"));
                if lanes.nulls[i] {
                    prop_assert_eq!(got, Value::Null, "lane {} of {}", i, &expr);
                } else {
                    prop_assert_eq!(got, Value::Bool(lanes.vals[i]), "lane {} of {}", i, &expr);
                }
            }
        }
    }

    /// Compiled scalar kernels agree with the interpreter bit-for-bit
    /// (floats compared by bit pattern, so `-0.0` vs `0.0` and NaN payloads
    /// count as differences).
    #[test]
    fn compiled_scalar_agrees_with_interpreter(
        rows in arb_rows(),
        base_row in arb_base_row(),
        expr in arb_expr(),
    ) {
        let table = build_table(&rows);
        if let Some(scalar) = CompiledScalar::compile(&expr, &base_schema(), &detail_schema()) {
            let batch = table.batch(0, table.len());
            let lanes = scalar.eval_batch(&base_row, &batch);
            assert_scalar_lanes_agree(&expr, &base_row, &table, &lanes);
        }
    }

    /// Whole-GMDJ differential: evaluating with the compiled path enabled
    /// and disabled yields identical results — or both paths fail. This is
    /// the end-to-end guarantee the per-kernel tests build toward.
    #[test]
    fn gmdj_compiled_agrees_with_interpreter(
        rows in arb_rows(),
        theta in arb_expr(),
        arg in arb_agg_arg(),
        func_pick in 0usize..5,
    ) {
        let table = build_table(&rows);
        let base = table.distinct_project(&[0]).unwrap();
        let agg = match func_pick {
            0 => AggSpec::sum(arg, "a").unwrap(),
            1 => AggSpec::avg(arg, "a").unwrap(),
            2 => AggSpec::min(arg, "a").unwrap(),
            3 => AggSpec::max(arg, "a").unwrap(),
            _ => AggSpec::count_star("a"),
        };
        // θ references base column 0 (the group key) plus arbitrary
        // structure; base column 1 does not exist here, so clamp it away.
        let theta = Expr::base(0).eq(Expr::detail(0)).or(theta);
        let op = GmdjOp::new(vec![GmdjBlock::new(
            vec![AggSpec::count_star("c"), agg],
            theta,
        )]);
        let schema = detail_schema();
        let compiled = eval_gmdj_full(&base, &table, &schema, &op, &EvalOptions::default());
        let interpreted = eval_gmdj_full(
            &base,
            &table,
            &schema,
            &op,
            &EvalOptions { compiled: false, ..Default::default() },
        );
        match (compiled, interpreted) {
            (Ok((a, _)), Ok((b, _))) => prop_assert_eq!(a.sorted(), b.sorted()),
            (Err(_), Err(_)) => {} // both reject (e.g. ill-typed θ): agreement
            (a, b) => panic!(
                "compiled and interpreted paths disagree on outcome: {:?} vs {:?}",
                a.map(|(r, _)| r),
                b.map(|(r, _)| r),
            ),
        }
    }

    /// Hash θ with a residual: `b.0 = r.0 AND <residual>`, so the block
    /// takes the hash plan. Compiled and interpreted evaluation agree bit
    /// for bit — or both fail — in memory, and over segment files at
    /// several segment sizes (chunked scans resume each fold via the
    /// accumulator state).
    #[test]
    fn gmdj_hash_residual_compiled_agrees_with_interpreter(
        rows in arb_rows(),
        base_rows in arb_base_rows(),
        residuals in prop::collection::vec(arb_residual(), 4..5),
        arg in arb_agg_arg(),
        func_pick in 0usize..5,
    ) {
        let table = build_table(&rows);
        let base = base_relation(base_rows);
        for residual in residuals {
        let arg = arg.clone();
        let agg = match func_pick {
            0 => AggSpec::sum(arg, "a").unwrap(),
            1 => AggSpec::avg(arg, "a").unwrap(),
            2 => AggSpec::min(arg, "a").unwrap(),
            3 => AggSpec::max(arg, "a").unwrap(),
            _ => AggSpec::new(AggFunc::Count, arg, "a").unwrap(),
        };
        let theta = Expr::base(0).eq(Expr::detail(0)).and(residual);
        let op = GmdjOp::new(vec![GmdjBlock::new(
            vec![
                AggSpec::count_star("c"),
                agg,
                AggSpec::sum(Expr::detail(2), "sf").unwrap(),
            ],
            theta.clone(),
        )]);
        let schema = detail_schema();
        let interp_opts = EvalOptions {
            compiled: false,
            with_match_count: true,
            ..Default::default()
        };
        let opts = EvalOptions {
            with_match_count: true,
            ..Default::default()
        };
        let want = eval_gmdj_sub(&base, &table, &schema, &op, &interp_opts);
        let got = eval_gmdj_sub(&base, &table, &schema, &op, &opts);
        match (&got, &want) {
            (Ok((g, _)), Ok((w, _))) => assert_same_bits(g, w, &format!("in memory, θ = {theta}")),
            (Err(_), Err(_)) => {}
            (g, w) => panic!(
                "θ = {theta}: compiled and interpreted disagree on outcome: {:?} vs {:?}",
                g.as_ref().map(|(r, _)| r),
                w.as_ref().map(|(r, _)| r),
            ),
        }
        for seg_rows in [1usize, 3, 16] {
            let path = scratch_path("residual");
            write_segments(&path, &table, seg_rows).unwrap();
            let file = SegmentFile::open(&path).unwrap();
            // Pruning off: a pruned segment never raises the errors its
            // rows would raise, so only the unpruned scan must agree with
            // the in-memory interpreter on failures too.
            let seg = eval_gmdj_sub_segments(&base, &file, &op, &opts, false, None);
            std::fs::remove_file(&path).ok();
            match (&seg, &want) {
                (Ok((g, _, _)), Ok((w, _))) => {
                    assert_same_bits(g, w, &format!("{seg_rows}-row segments, θ = {theta}"))
                }
                (Err(_), Err(_)) => {}
                (g, w) => panic!(
                    "θ = {theta}, {seg_rows}-row segments: outcomes disagree: {:?} vs {:?}",
                    g.as_ref().map(|(r, _, _)| r),
                    w.as_ref().map(|(r, _)| r),
                ),
            }
        }
        }
    }
}

/// Float folds through the hash-residual plan keep the interpreter's
/// order — detail row, then index order — bit for bit: long per-group runs
/// of order-sensitive magnitudes, a multi-match base, and a
/// base-referencing residual, in memory and chunked over segments.
#[test]
fn hash_residual_float_folds_keep_the_interpreter_order() {
    let rows: Vec<RowTuple> = (0..3000i64)
        .map(|i| {
            let mag = [1e16, 1.0, -1e16, 0.1, 3.3e-5, -7.0][(i % 6) as usize];
            let f = (i % 11 != 0).then_some(mag * (1.0 + (i % 13) as f64 / 7.0));
            (i % 3, Some(i % 17), f, String::new(), None)
        })
        .collect();
    let table = build_table(&rows);
    let base = base_relation(
        [(0, 0.5), (1, -2.0), (1, 4.0), (2, 0.0), (0, 9.0)]
            .iter()
            .map(|&(k, w)| vec![Value::Int(k), Value::Float(w)])
            .collect(),
    );
    let op = GmdjOp::new(vec![GmdjBlock::new(
        vec![
            AggSpec::sum(Expr::detail(2), "s").unwrap(),
            AggSpec::avg(
                Expr::detail(2).mul(Expr::lit(3.0)).sub(Expr::detail(1)),
                "a",
            )
            .unwrap(),
        ],
        Expr::base(0)
            .eq(Expr::detail(0))
            .and(Expr::detail(1).ne(Expr::lit(5)))
            .and(Expr::detail(1).ge(Expr::base(1))),
    )]);
    let schema = detail_schema();
    let opts = EvalOptions::default();
    let interp = EvalOptions {
        compiled: false,
        ..Default::default()
    };
    let (want, _) = eval_gmdj_sub(&base, &table, &schema, &op, &interp).unwrap();
    let (got, stats) = eval_gmdj_sub(&base, &table, &schema, &op, &opts).unwrap();
    assert_eq!(stats.blocks_compiled, 1);
    assert_same_bits(&got, &want, "in memory");
    for seg_rows in [7usize, 1000, 1024] {
        let path = scratch_path("folds");
        write_segments(&path, &table, seg_rows).unwrap();
        let file = SegmentFile::open(&path).unwrap();
        let (seg, _, _) = eval_gmdj_sub_segments(&base, &file, &op, &opts, false, None).unwrap();
        std::fs::remove_file(&path).ok();
        assert_same_bits(&seg, &want, &format!("{seg_rows}-row segments"));
    }
}
