//! Differential coverage for the sharded parallel synchronization
//! pipeline, the only engine on the query path: the parallel merge must
//! agree **bit-for-bit** with the reference [`BaseResult`] — 3VL nulls,
//! `-0.0`, and float `AVG` merge order included — across shard/worker
//! counts and chunked (row-blocked) replies, and end to end it must match
//! the centralized evaluator and survive a lossy, duplicating network
//! unchanged.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use skalla::core::{ShardedSync, SyncOptions, SyncOutput, SyncSpec, TieredWarehouse};
use skalla::expr::Expr;
use skalla::prelude::*;

// ---------------------------------------------------------------------------
// Shared shape: base key `k`, aggregates COUNT(*), SUM(float), AVG(float).
// Fragment rows carry the sub-aggregate state columns a site would ship:
// [k, cnt, sum (nullable), avg__sum, avg__count].
// ---------------------------------------------------------------------------

fn base_schema() -> Arc<Schema> {
    Schema::from_pairs([("k", DataType::Int64)])
        .unwrap()
        .into_arc()
}

fn base(groups: i64) -> Relation {
    Relation::new(
        base_schema(),
        (0..groups).map(|i| vec![Value::Int(i)]).collect(),
    )
    .unwrap()
}

fn specs() -> Vec<AggSpec> {
    vec![
        AggSpec::count_star("cnt"),
        AggSpec::sum(Expr::detail(1), "s").unwrap(),
        AggSpec::avg(Expr::detail(2), "a").unwrap(),
    ]
}

fn output_fields() -> Vec<Field> {
    vec![
        Field::new("cnt", DataType::Int64),
        Field::new("s", DataType::Float64),
        Field::new("a", DataType::Float64),
    ]
}

fn state_types() -> Vec<DataType> {
    vec![
        DataType::Int64,   // cnt
        DataType::Float64, // s
        DataType::Float64, // a__sum
        DataType::Int64,   // a__count
    ]
}

fn frag_schema() -> Arc<Schema> {
    Schema::from_pairs([
        ("k", DataType::Int64),
        ("cnt", DataType::Int64),
        ("s", DataType::Float64),
        ("a__sum", DataType::Float64),
        ("a__count", DataType::Int64),
    ])
    .unwrap()
    .into_arc()
}

/// One generated fragment row: (key, count, sum-state, avg-sum, avg-count).
type FragRow = (i64, i64, Option<f64>, f64, i64);

fn frag(rows: &[FragRow]) -> Relation {
    Relation::new(
        frag_schema(),
        rows.iter()
            .map(|&(k, c, s, asum, acnt)| {
                vec![
                    Value::Int(k),
                    Value::Int(c),
                    s.map(Value::Float).unwrap_or(Value::Null),
                    Value::Float(asum),
                    Value::Int(acnt),
                ]
            })
            .collect(),
    )
    .unwrap()
}

fn sharded(opts: SyncOptions, allow_new: bool, seed: Option<&Relation>) -> ShardedSync {
    ShardedSync::new(
        SyncSpec {
            base_schema: base_schema(),
            key_cols: vec![0],
            specs: specs(),
            state_types: state_types(),
            output: SyncOutput::Finalized(output_fields()),
            allow_new,
        },
        seed,
        opts,
    )
    .unwrap()
}

/// Strict equality: schemas match and every float matches by bit pattern
/// (`Value`'s `PartialEq` identifies `-0.0` with `0.0`; this does not).
fn assert_rows_bits_eq(a: &Relation, b: &Relation, ctx: &str) {
    assert_eq!(a.schema().names(), b.schema().names(), "{ctx}: schema");
    assert_eq!(a.len(), b.len(), "{ctx}: row count");
    for (i, (ra, rb)) in a.rows().iter().zip(b.rows()).enumerate() {
        for (va, vb) in ra.iter().zip(rb) {
            match (va, vb) {
                (Value::Float(x), Value::Float(y)) => {
                    assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: row {i}: {va:?} vs {vb:?}")
                }
                _ => assert_eq!(va, vb, "{ctx}: row {i}"),
            }
        }
    }
}

/// Floats whose addition is order-sensitive in bits, plus signed zeros.
fn arb_float() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(-0.0f64),
        Just(0.0f64),
        Just(0.1f64),
        Just(0.2f64),
        Just(1e16),
        Just(-1e16),
        Just(1.0),
        -100.0f64..100.0,
    ]
}

fn arb_frag_rows(groups: i64) -> impl Strategy<Value = Vec<FragRow>> {
    prop::collection::vec(
        (
            0..groups,
            0..5i64,
            prop::option::of(arb_float()),
            arb_float(),
            1..4i64,
        ),
        0..32,
    )
}

/// A round's worth of chunked replies (row blocking): each inner vec is
/// one fragment chunk as `merge_fragment` / `merge_chunk` would see it.
fn arb_chunks(groups: i64) -> impl Strategy<Value = Vec<Vec<FragRow>>> {
    prop::collection::vec(arb_frag_rows(groups), 1..6)
}

const GROUPS: i64 = 12;

/// (workers, shards) pairs covering worker counts {1, 2, 4, 8}, the
/// single-shard layout, workers > shards (clamped to the shard count), and
/// a non-power-of-two shard request (rounded up by the engine).
const LAYOUTS: [(usize, usize); 7] = [(1, 1), (2, 2), (4, 4), (8, 16), (4, 1), (8, 2), (3, 7)];

/// The engine rounds shard requests up to a power of two and clamps the
/// worker count to the shard count; tests assert against these effective
/// values, not the raw request.
fn effective(workers: usize, shards: usize) -> (usize, usize) {
    let s = shards.max(1).next_power_of_two();
    (workers.max(1).min(s), s)
}

proptest! {
    /// Seeded (Theorem 1) mode: every chunk merges into known groups.
    #[test]
    fn sharded_matches_serial_seeded(chunks in arb_chunks(GROUPS)) {
        let b = base(GROUPS);
        let mut serial =
            BaseResult::from_base(&b, &[0], specs(), output_fields()).unwrap();
        for c in &chunks {
            serial.merge_fragment(&frag(c), false).unwrap();
        }
        let expected = serial.finalize().unwrap();

        for (workers, shards) in LAYOUTS {
            let opts = SyncOptions {
                workers,
                shards,
                queue_batches: 2,
                flush_rows: 16,
                flush_rows_max: 64,
            };
            let mut x = sharded(opts, false, Some(&b));
            for c in &chunks {
                x.merge_chunk(frag(c)).unwrap();
            }
            let (got, stats) = x.finish().unwrap();
            let (ew, es) = effective(workers, shards);
            prop_assert_eq!(stats.workers, ew);
            prop_assert_eq!(stats.shards, es);
            assert_rows_bits_eq(&got, &expected, &format!("{workers}w/{shards}s"));
        }
    }

    /// Empty (Proposition 2) mode: groups are created at first sight, and
    /// the output must reproduce the serial insertion order exactly.
    #[test]
    fn sharded_matches_serial_empty_mode(chunks in arb_chunks(GROUPS)) {
        let mut serial =
            BaseResult::empty(base_schema(), &[0], specs(), output_fields());
        for c in &chunks {
            serial.merge_fragment(&frag(c), true).unwrap();
        }
        let expected = serial.finalize().unwrap();

        for (workers, shards) in LAYOUTS {
            let opts = SyncOptions {
                workers,
                shards,
                queue_batches: 2,
                flush_rows: 16,
                flush_rows_max: 64,
            };
            let mut x = sharded(opts, true, None);
            for c in &chunks {
                x.merge_chunk(frag(c)).unwrap();
            }
            let (got, _) = x.finish().unwrap();
            assert_rows_bits_eq(&got, &expected, &format!("{workers}w/{shards}s"));
        }
    }

    /// Chunk boundaries are invisible: merging row-by-row chunks equals
    /// merging one big fragment, serial and sharded alike.
    #[test]
    fn chunking_is_transparent(rows in arb_frag_rows(GROUPS)) {
        let b = base(GROUPS);
        let mut serial =
            BaseResult::from_base(&b, &[0], specs(), output_fields()).unwrap();
        serial.merge_fragment(&frag(&rows), false).unwrap();
        let expected = serial.finalize().unwrap();

        let mut x = sharded(SyncOptions::for_workers(3), false, Some(&b));
        for row in &rows {
            x.merge_chunk(frag(std::slice::from_ref(row))).unwrap();
        }
        let (got, _) = x.finish().unwrap();
        assert_rows_bits_eq(&got, &expected, "row-at-a-time chunks");
    }

    /// Fault-injected rejection is differential: corrupt chunks (a
    /// type-invalid state column mid-chunk) interleaved at arbitrary
    /// positions are rejected all-or-nothing at every layout, so the final
    /// result is bit-identical to a serial merge of only the good chunks.
    #[test]
    fn rejected_chunks_leave_no_trace(
        chunks in arb_chunks(GROUPS),
        bad_before in prop::collection::vec(any::<bool>(), 6..7),
    ) {
        let b = base(GROUPS);
        let mut serial =
            BaseResult::from_base(&b, &[0], specs(), output_fields()).unwrap();
        for c in &chunks {
            serial.merge_fragment(&frag(c), false).unwrap();
        }
        let expected = serial.finalize().unwrap();

        // A chunk whose first row is valid but whose second has a
        // non-numeric state column: the router must reject it without
        // letting the valid first row through.
        let corrupt = || {
            Relation::new(
                frag_schema(),
                vec![
                    vec![
                        Value::Int(1),
                        Value::Int(1),
                        Value::Float(1.0),
                        Value::Float(1.0),
                        Value::Int(1),
                    ],
                    vec![
                        Value::Int(2),
                        Value::Str("oops".into()),
                        Value::Null,
                        Value::Float(0.0),
                        Value::Int(1),
                    ],
                ],
            )
            .unwrap()
        };

        for (workers, shards) in LAYOUTS {
            let opts = SyncOptions {
                workers,
                shards,
                queue_batches: 2,
                flush_rows: 16,
                flush_rows_max: 64,
            };
            let mut x = sharded(opts, false, Some(&b));
            for (i, c) in chunks.iter().enumerate() {
                if bad_before.get(i).copied().unwrap_or(false) {
                    prop_assert!(x.merge_chunk(corrupt()).is_err());
                }
                x.merge_chunk(frag(c)).unwrap();
            }
            let (got, _) = x.finish().unwrap();
            assert_rows_bits_eq(&got, &expected, &format!("{workers}w/{shards}s bad chunks"));
        }
    }
}

/// A rejected chunk must leave every shard untouched (all-or-nothing), and
/// the engine must stay usable for subsequent good chunks.
#[test]
fn rejected_chunk_is_all_or_nothing() {
    let b = base(4);
    let good = vec![(0, 2, Some(1.5), 2.5, 1), (3, 1, None, -0.5, 2)];

    // Reference: serial merge of only the good chunk.
    let mut serial = BaseResult::from_base(&b, &[0], specs(), output_fields()).unwrap();
    serial.merge_fragment(&frag(&good), false).unwrap();
    let expected = serial.finalize().unwrap();

    let mut x = sharded(SyncOptions::for_workers(2), false, Some(&b));

    // Wrong arity is rejected before any row is routed.
    let narrow = Relation::new(base_schema(), vec![vec![Value::Int(0)]]).unwrap();
    let err = x.merge_chunk(narrow).unwrap_err().to_string();
    assert!(err.contains("expected 5"), "unexpected error: {err}");

    // A type-invalid state column mid-chunk rejects the whole chunk.
    let bad_type = Relation::new(
        frag_schema(),
        vec![
            vec![
                Value::Int(1),
                Value::Int(1),
                Value::Float(1.0),
                Value::Float(1.0),
                Value::Int(1),
            ],
            vec![
                Value::Int(2),
                Value::Str("oops".into()),
                Value::Null,
                Value::Float(0.0),
                Value::Int(1),
            ],
        ],
    )
    .unwrap();
    assert!(x.merge_chunk(bad_type).is_err());

    // The engine is not poisoned: the good chunk still merges, and the
    // result shows no trace of the rejected chunks' first rows.
    x.merge_chunk(frag(&good)).unwrap();
    let (got, _) = x.finish().unwrap();
    assert_rows_bits_eq(&got, &expected, "after rejected chunks");
}

/// Chunks large enough to take the split validate+hash pass (the router
/// keeps the lower half, a scoped helper runs the upper half) behave
/// exactly like small ones: a corrupt row hiding in the *second* half
/// rejects the whole chunk all-or-nothing, and a clean large chunk merges
/// bit-identically to the serial path.
#[test]
fn large_chunk_split_validation_is_all_or_nothing() {
    const BIG: usize = 4096; // comfortably past the parallel-pass floor
    let b = base(GROUPS);
    let good: Vec<FragRow> = (0..BIG)
        .map(|i: usize| {
            let asum = if i.is_multiple_of(7) {
                -0.0
            } else {
                i as f64 * 0.01
            };
            (i as i64 % GROUPS, 1, Some(i as f64 * 0.1 - 9.0), asum, 1)
        })
        .collect();

    let mut serial = BaseResult::from_base(&b, &[0], specs(), output_fields()).unwrap();
    serial.merge_fragment(&frag(&good), false).unwrap();
    let expected = serial.finalize().unwrap();

    let mut x = sharded(SyncOptions::for_workers(4), false, Some(&b));

    // Corrupt a row deep in the upper half: the helper thread's error must
    // reject the chunk without any lower-half row leaking through.
    let mut rows: Vec<Vec<Value>> = frag(&good).rows().to_vec();
    rows[BIG - 3][1] = Value::Str("oops".into());
    let bad = Relation::new(frag_schema(), rows).unwrap();
    assert!(x.merge_chunk(bad).is_err());

    // Corrupt a row in the lower half too: same rejection, reported from
    // the router's own half.
    let mut rows: Vec<Vec<Value>> = frag(&good).rows().to_vec();
    rows[5][1] = Value::Str("oops".into());
    let bad = Relation::new(frag_schema(), rows).unwrap();
    assert!(x.merge_chunk(bad).is_err());

    // The engine is untouched: the clean large chunk merges bit-for-bit.
    x.merge_chunk(frag(&good)).unwrap();
    let (got, _) = x.finish().unwrap();
    assert_rows_bits_eq(&got, &expected, "large split-validated chunk");
}

/// In seeded mode an unknown group key is a query-fatal error, same as the
/// serial path — it surfaces at (or before) `finish`.
#[test]
fn unknown_group_key_is_fatal() {
    let b = base(4);
    let mut x = sharded(SyncOptions::for_workers(2), false, Some(&b));
    let stray = vec![(99, 1, Some(1.0), 1.0, 1)];
    // The worker detects the unknown key; the error surfaces either on a
    // later merge_chunk (poisoned) or at finish.
    let res = x
        .merge_chunk(frag(&stray))
        .and_then(|_| x.finish().map(|_| ()));
    let err = res.unwrap_err().to_string();
    assert!(err.contains("unknown group key"), "unexpected error: {err}");
}

// ---------------------------------------------------------------------------
// End-to-end: the parallel coordinator pipeline under a faulty network.
// ---------------------------------------------------------------------------

fn flow_schema() -> Arc<Schema> {
    Schema::from_pairs([("k", DataType::Int64), ("v", DataType::Float64)])
        .unwrap()
        .into_arc()
}

fn flow_table(rows: usize) -> Table {
    let data: Vec<Vec<Value>> = (0..rows)
        .map(|i| {
            let v = if i % 11 == 0 {
                -0.0
            } else {
                (i as f64) * 0.1 - 9.0
            };
            vec![Value::Int((i % 13) as i64), Value::Float(v)]
        })
        .collect();
    Table::from_rows(flow_schema(), &data).unwrap()
}

fn flow_query() -> GmdjExpr {
    let schemas = HashMap::from([("flow".to_string(), flow_schema())]);
    parse_query(
        "BASE DISTINCT k FROM flow;
         MD COUNT(*) AS c, SUM(v) AS s, AVG(v) AS a WHERE b.k = r.k;
         MD COUNT(*) AS hi WHERE b.k = r.k AND r.v >= b.a;",
        &schemas,
    )
    .unwrap()
}

/// The centralized evaluator's answer over the unpartitioned table: the
/// end-to-end reference that does not go through the engine under test.
fn flow_centralized(rows: usize) -> Relation {
    let mut c = Catalog::new();
    c.register("flow", flow_table(rows));
    eval_expr_centralized(&flow_query(), &c).unwrap()
}

fn flow_catalogs(rows: usize, sites: usize) -> Vec<Catalog> {
    let parts = partition_by_hash(&flow_table(rows), 0, sites).unwrap();
    parts
        .parts
        .iter()
        .map(|p| {
            let mut c = Catalog::new();
            c.register("flow", p.clone());
            c
        })
        .collect()
}

fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        deadline: Duration::from_millis(250),
        max_retries: 8,
        backoff: 1.5,
        degraded: DegradedMode::Fail,
    }
}

/// Drop + duplicate faults with row blocking and a 4- or 1-worker
/// coordinator: retransmission and chunk-sequence dedup must feed the
/// pipeline each chunk exactly once, reproducing the fault-free default
/// run and the centralized answer.
#[test]
fn faulty_network_parallel_pipeline_matches_serial() {
    let serial_wh = DistributedWarehouse::launch(flow_catalogs(260, 4), CostModel::free()).unwrap();
    let (serial, _) = serial_wh
        .execute(&DistPlan::unoptimized(flow_query()))
        .unwrap();
    serial_wh.shutdown().unwrap();
    assert_rows_bits_eq(
        &serial.sorted(),
        &flow_centralized(260).sorted(),
        "fault-free vs centralized",
    );

    for workers in [4, 1] {
        let faults = FaultPlan::seeded(0x5A4D)
            .with_drop_rate(0.15)
            .with_dup_rate(0.3);
        let wh = DistributedWarehouse::launch_with_faults(
            flow_catalogs(260, 4),
            CostModel::free(),
            faults,
        )
        .unwrap();
        let plan = DistPlan::unoptimized(flow_query())
            .with_block_rows(16)
            .with_coord_parallelism(workers)
            .with_retry_policy(fast_retry());
        let (parallel, metrics) = wh.execute(&plan).unwrap();
        wh.shutdown().unwrap();

        assert_rows_bits_eq(&parallel.sorted(), &serial.sorted(), "faulty parallel");
        assert_eq!(metrics.sync_workers(), workers);
        assert!(metrics.sync_shards() >= workers);
        assert!(metrics.summary().contains("sync: decode"));
    }
}

/// Deterministic replay: same faults, same parallel plan, twice — the
/// pipeline's ordered merge must make the runs bit-for-bit identical.
#[test]
fn faulty_parallel_runs_are_deterministic() {
    let run = || {
        let faults = FaultPlan::seeded(0xBEEF)
            .with_drop_rate(0.2)
            .with_dup_rate(0.2);
        let wh = DistributedWarehouse::launch_with_faults(
            flow_catalogs(260, 4),
            CostModel::free(),
            faults,
        )
        .unwrap();
        let plan = DistPlan::unoptimized(flow_query())
            .with_block_rows(16)
            .with_coord_parallelism(3)
            .with_retry_policy(fast_retry());
        let (r, _) = wh.execute(&plan).unwrap();
        wh.shutdown().unwrap();
        r
    };
    let (a, b) = (run(), run());
    assert_rows_bits_eq(&a, &b, "deterministic replay");
}

/// The tiered topology reuses the engine for mid-tier pre-synchronization:
/// a tree run with 4 or 1 workers per tier must match the default flat run
/// and the centralized answer exactly.
#[test]
fn parallel_mid_tier_presync_matches_flat() {
    let catalogs = flow_catalogs(300, 8);
    let flat = DistributedWarehouse::launch(catalogs.clone(), CostModel::free()).unwrap();
    let (expected, _) = flat.execute(&DistPlan::unoptimized(flow_query())).unwrap();
    flat.shutdown().unwrap();
    assert_rows_bits_eq(
        &expected.sorted(),
        &flow_centralized(300).sorted(),
        "flat vs centralized",
    );

    for workers in [4, 1] {
        let tw = TieredWarehouse::launch(catalogs.clone(), 3, CostModel::free()).unwrap();
        let plan = DistPlan::unoptimized(flow_query())
            .with_block_rows(32)
            .with_coord_parallelism(workers);
        let (result, _) = tw.execute(&plan).unwrap();
        tw.shutdown().unwrap();

        assert_rows_bits_eq(&result.sorted(), &expected.sorted(), "tiered parallel");
    }
}
