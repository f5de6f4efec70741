//! Criterion microbenches for local GMDJ evaluation: hash strategy vs
//! nested loop, across group cardinalities.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use skalla_expr::Expr;
use skalla_gmdj::{eval_gmdj_full, AggSpec, EvalOptions, GmdjBlock, GmdjOp, LocalStrategy};
use skalla_storage::{ScanSource, Table};
use skalla_types::{DataType, Schema, Value};

fn table(rows: usize, groups: i64) -> Table {
    let schema = Schema::from_pairs([("g", DataType::Int64), ("v", DataType::Int64)])
        .unwrap()
        .into_arc();
    let data: Vec<Vec<Value>> = (0..rows)
        .map(|i| {
            vec![
                Value::Int(i as i64 % groups),
                Value::Int((i * 31 % 997) as i64),
            ]
        })
        .collect();
    Table::from_rows(schema, &data).unwrap()
}

fn count_avg_op() -> GmdjOp {
    GmdjOp::new(vec![GmdjBlock::new(
        vec![
            AggSpec::count_star("c"),
            AggSpec::avg(Expr::detail(1), "a").unwrap(),
        ],
        Expr::base(0).eq(Expr::detail(0)),
    )])
}

fn bench_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("gmdj_local");
    group.sample_size(20);
    for &groups in &[10i64, 100, 1000] {
        let t = table(20_000, groups);
        let base = t.distinct_project(&[0]).unwrap();
        let op = count_avg_op();
        group.bench_with_input(BenchmarkId::new("hash", groups), &groups, |b, _| {
            b.iter(|| {
                eval_gmdj_full(&base, &ScanSource::table(&t), &op, &EvalOptions::default()).unwrap()
            })
        });
        // Nested loop is O(|B|·|R|); keep it to the small-group case.
        if groups <= 100 {
            let opts = EvalOptions {
                strategy: LocalStrategy::NestedLoop,
                ..Default::default()
            };
            group.bench_with_input(BenchmarkId::new("nested_loop", groups), &groups, |b, _| {
                b.iter(|| eval_gmdj_full(&base, &ScanSource::table(&t), &op, &opts).unwrap())
            });
        }
    }
    group.finish();
}

fn bench_match_count_overhead(c: &mut Criterion) {
    // The Proposition 1 piggyback: extra COUNT over θ₁ ∨ … ∨ θₘ. The paper
    // argues its overhead is negligible.
    let mut group = c.benchmark_group("gmdj_match_count");
    group.sample_size(20);
    let t = table(20_000, 200);
    let base = t.distinct_project(&[0]).unwrap();
    let op = count_avg_op();
    group.bench_function("without", |b| {
        b.iter(|| {
            skalla_gmdj::eval_gmdj_sub(&base, &ScanSource::table(&t), &op, &EvalOptions::default())
                .unwrap()
        })
    });
    let opts = EvalOptions {
        with_match_count: true,
        ..Default::default()
    };
    group.bench_function("with", |b| {
        b.iter(|| skalla_gmdj::eval_gmdj_sub(&base, &ScanSource::table(&t), &op, &opts).unwrap())
    });
    group.finish();
}

fn bench_parallelism(c: &mut Criterion) {
    // Intra-site parallel scan: Theorem 1 applied within a site.
    let mut group = c.benchmark_group("gmdj_parallel_scan");
    group.sample_size(10);
    let t = table(200_000, 500);
    let base = t.distinct_project(&[0]).unwrap();
    let op = count_avg_op();
    for &par in &[1usize, 2, 4, 8] {
        let opts = EvalOptions {
            parallelism: par,
            ..Default::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(par), &par, |b, _| {
            b.iter(|| eval_gmdj_full(&base, &ScanSource::table(&t), &op, &opts).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_strategies,
    bench_match_count_overhead,
    bench_parallelism
);
criterion_main!(benches);
