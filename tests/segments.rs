//! Differential tests for the out-of-core segment store (PR 9).
//!
//! The segment path must be *invisible* to query semantics: scanning a
//! table from compressed on-disk segments — with or without zone-map
//! pruning, whole or through a row window, serial or chunked — has to
//! produce bit-for-bit the answer of the in-memory evaluation. These
//! properties drive randomized tables through every encoding edge the
//! format has (NULL runs, `-0.0`/NaN/±∞ floats, RLE run boundaries,
//! dictionary strings, segment-edge row counts) and compare against the
//! in-memory evaluator, treating any diverging bit as a failure.

use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use skalla::expr::Expr;
use skalla::gmdj::{
    eval_gmdj_dual, eval_gmdj_sub, AggSpec, EvalOptions, EvalStats, GmdjBlock, GmdjOp,
};
use skalla::storage::{write_segments, ScanSource, SegmentFile, Store, Table};
use skalla::types::{DataType, Relation, Schema, Value};

/// Unique scratch path per proptest case (cases run concurrently).
fn scratch_path(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "skalla-segtest-{tag}-{}-{n}.seg",
        std::process::id()
    ))
}

fn schema() -> std::sync::Arc<Schema> {
    Schema::from_pairs([
        ("k", DataType::Int64),
        ("f", DataType::Float64),
        ("s", DataType::Utf8),
        ("b", DataType::Bool),
    ])
    .unwrap()
    .into_arc()
}

/// A float generator biased toward the values that break naive codecs and
/// naive comparisons: negative zero, NaN, both infinities.
fn arb_float() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(-0.0f64),
        Just(0.0f64),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        -100.0f64..100.0,
        -1.0f64..1.0,
    ]
}

/// Rows generated as *runs* — `(len, k, f, s, b)` repeated `len` times —
/// so columns contain the repeated stretches the RLE and dictionary
/// encoders trigger on, with run boundaries landing at arbitrary offsets
/// relative to segment boundaries. `None` cells become NULLs.
fn arb_runs() -> impl Strategy<Value = Vec<Vec<Value>>> {
    let run = (
        1usize..6,
        0i64..4,
        prop::option::of(arb_float()),
        prop::option::of(0usize..3),
        any::<bool>(),
    );
    prop::collection::vec(run, 1..30).prop_map(|runs| {
        let mut rows = Vec::new();
        for (len, k, f, s, b) in runs {
            for _ in 0..len {
                rows.push(vec![
                    Value::Int(k),
                    f.map_or(Value::Null, Value::Float),
                    s.map_or(Value::Null, |i| Value::str(["ab", "cd", "ef"][i])),
                    Value::Bool(b),
                ]);
            }
        }
        rows
    })
}

/// Bit-strict relation comparison: floats must agree on raw bits (`Value`
/// equality identifies `-0.0` with `0.0` and NaN with itself, which would
/// mask codec bugs here). Panics propagate to proptest, which shrinks.
fn assert_bits_eq(a: &Relation, b: &Relation, ctx: &str) {
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

/// COUNT + AVG(f) per distinct `k`, filtered by `f ≤ t` — the AVG carries
/// float state (sum + count), and the `f ≤ t` bound is what the zone maps
/// prune on.
fn filtered_op(t: f64) -> GmdjOp {
    GmdjOp::new(vec![GmdjBlock::new(
        vec![
            AggSpec::count_star("cnt"),
            AggSpec::avg(Expr::detail(1), "avg").unwrap(),
        ],
        Expr::base(0)
            .eq(Expr::detail(0))
            .and(Expr::detail(1).le(Expr::lit(t))),
    )])
}

proptest! {
    /// Writing a table as compressed segments and reading it back is the
    /// identity, bit for bit — NULL runs, NaN/-0.0/±∞ floats, dictionary
    /// strings, and every generated row count (including exact segment
    /// multiples) included.
    #[test]
    fn segment_round_trip_is_bit_exact(
        rows in arb_runs(),
        seg_rows in 1usize..24,
    ) {
        let table = Table::from_rows(schema(), &rows).unwrap();
        let path = scratch_path("roundtrip");
        let summary = write_segments(&path, &table, seg_rows).unwrap();
        let file = SegmentFile::open(&path).unwrap();

        prop_assert_eq!(summary.rows, table.len());
        prop_assert_eq!(file.total_rows(), table.len());
        prop_assert_eq!(file.num_segments(), table.len().div_ceil(seg_rows));
        let back = file.read_all().unwrap();
        drop(file);
        std::fs::remove_file(&path).ok();

        let decoded: Vec<Vec<Value>> = (0..back.len()).map(|i| back.row(i)).collect();
        let a = Relation::new(table.schema().clone(), rows).unwrap();
        let b = Relation::new(back.schema().clone(), decoded).unwrap();
        assert_bits_eq(&b, &a, "decoded table");
    }

    /// The segmented evaluator — pruned and unpruned — agrees bit for bit
    /// with the in-memory evaluator on a float-aggregating filtered query.
    /// Pruning on never skips a segment containing a matching row (else
    /// the aggregates would differ), and the scanned/pruned counters
    /// always account for every segment.
    #[test]
    fn segmented_eval_matches_in_memory(
        rows in arb_runs(),
        seg_rows in 1usize..24,
        t in -50.0f64..50.0,
    ) {
        let table = Table::from_rows(schema(), &rows).unwrap();
        let base = table.distinct_project(&[0]).unwrap();
        let op = filtered_op(t);
        let opts = EvalOptions { with_match_count: true, ..Default::default() };

        let path = scratch_path("eval");
        write_segments(&path, &table, seg_rows).unwrap();
        let file = SegmentFile::open(&path).unwrap();

        let (mem, _) = eval_gmdj_sub(&base, &ScanSource::table(&table), &op, &opts).unwrap();
        for prune in [false, true] {
            let source = ScanSource::segments(&file).with_prune(prune);
            let (seg, sc) = eval_gmdj_sub(&base, &source, &op, &opts).unwrap();
            assert_bits_eq(&seg.sorted(), &mem.sorted(), "sub-aggregate");
            prop_assert_eq!(
                (sc.segments_scanned + sc.segments_pruned) as usize,
                file.num_segments(),
                "every segment is either scanned or pruned"
            );
            if !prune {
                prop_assert_eq!(sc.segments_pruned, 0);
            }
        }
        drop(file);
        std::fs::remove_file(&path).ok();
    }

    /// Scanning a row *window* of the segment file matches evaluating the
    /// same slice of the in-memory table — fragment addressing (skew
    /// splits, failover) must not change answers either.
    #[test]
    fn segmented_window_matches_in_memory_slice(
        rows in arb_runs(),
        seg_rows in 1usize..24,
        t in -50.0f64..50.0,
        cut in (0usize..97, 0usize..97),
    ) {
        let table = Table::from_rows(schema(), &rows).unwrap();
        let (mut lo, mut hi) = (cut.0 % (table.len() + 1), cut.1 % (table.len() + 1));
        if lo > hi {
            std::mem::swap(&mut lo, &mut hi);
        }
        let window = table.row_range(lo, hi).unwrap();
        let base = table.distinct_project(&[0]).unwrap();
        let op = filtered_op(t);
        let opts = EvalOptions::default();

        let path = scratch_path("window");
        write_segments(&path, &table, seg_rows).unwrap();
        let file = SegmentFile::open(&path).unwrap();

        let mem = eval_gmdj_dual(&base, &ScanSource::table(&window), &op, &opts).unwrap();
        let range = ScanSource::new([(Store::Segments(&file), lo..hi)]).unwrap();
        let seg = eval_gmdj_dual(&base, &range, &op, &opts).unwrap();
        drop(file);
        std::fs::remove_file(&path).ok();

        assert_bits_eq(&seg.full.sorted(), &mem.full.sorted(), "windowed full");
        prop_assert_eq!(&seg.states, &mem.states, "windowed states");
        prop_assert_eq!(&seg.match_counts, &mem.match_counts, "windowed match counts");
    }
}

/// The chunked out-of-core scan reproduces the in-memory *parallel*
/// dispatch bit for bit: above the parallel threshold both paths cut the
/// scan at identical worker boundaries (which never align with segment
/// boundaries here) and merge partial states in identical order.
#[test]
fn parallel_segmented_scan_is_bit_exact() {
    let schema = schema();
    let rows: Vec<Vec<Value>> = (0..10_000)
        .map(|i| {
            vec![
                Value::Int(i % 7),
                if i % 11 == 0 {
                    Value::Null
                } else {
                    // Sums of these are order-sensitive in f64: any
                    // re-association between chunks changes final bits.
                    Value::Float((i as f64) * 0.1 + 1.0 / ((i % 13 + 1) as f64))
                },
                Value::str(["ab", "cd", "ef"][(i % 3) as usize]),
                Value::Bool(i % 2 == 0),
            ]
        })
        .collect();
    let table = Table::from_rows(schema, &rows).unwrap();
    let base = table.distinct_project(&[0]).unwrap();
    let op = filtered_op(640.0);

    let path = scratch_path("parallel");
    write_segments(&path, &table, 769).unwrap(); // prime: no boundary ever aligns
    let file = SegmentFile::open(&path).unwrap();

    for par in [1usize, 3, 8] {
        let opts = EvalOptions {
            parallelism: par,
            ..Default::default()
        };
        let (mem, _) = eval_gmdj_sub(&base, &ScanSource::table(&table), &op, &opts).unwrap();
        for prune in [false, true] {
            let source = ScanSource::segments(&file).with_prune(prune);
            let (seg, _) = eval_gmdj_sub(&base, &source, &op, &opts).unwrap();
            assert_eq!(seg.sorted(), mem.sorted(), "par {par} prune {prune}");
            for (ra, rb) in seg.sorted().rows().iter().zip(mem.sorted().rows()) {
                for (va, vb) in ra.iter().zip(rb) {
                    if let (Value::Float(x), Value::Float(y)) = (va, vb) {
                        assert_eq!(x.to_bits(), y.to_bits(), "par {par} prune {prune}");
                    }
                }
            }
        }
    }
    // Parallel workers decode the segments their own ranges touch, so a
    // segment straddling a range boundary is decoded twice. The scan's
    // segment counters are settled from the footers before the workers
    // start: at any parallelism they equal the serial scan's, and the
    // answer stays bit-exact with the in-memory scan cut the same way.
    for prune in [false, true] {
        let source = ScanSource::segments(&file).with_prune(prune);
        let (_, serial) = eval_gmdj_sub(&base, &source, &op, &EvalOptions::default()).unwrap();
        let counters = |s: EvalStats| (s.segments_scanned, s.segments_pruned, s.blocks_verified);
        assert!(serial.segments_scanned > 0);
        assert_eq!(serial.segments_pruned > 0, prune);
        for par in [2usize, 4] {
            let opts = EvalOptions {
                parallelism: par,
                ..Default::default()
            };
            let (mem, _) = eval_gmdj_sub(&base, &ScanSource::table(&table), &op, &opts).unwrap();
            let (seg, stats) = eval_gmdj_sub(&base, &source, &op, &opts).unwrap();
            assert_bits_eq(&seg, &mem, &format!("par {par} prune {prune}"));
            assert_eq!(counters(stats), counters(serial), "par {par} prune {prune}");
        }
    }
    drop(file);
    std::fs::remove_file(&path).ok();
}

/// Segment-edge row counts: exactly one segment, exactly full segments,
/// one row over, one row under, and a single-row table all round-trip and
/// evaluate identically.
#[test]
fn segment_edge_row_counts() {
    let schema = schema();
    for n in [1usize, 15, 16, 17, 32, 33] {
        let rows: Vec<Vec<Value>> = (0..n as i64)
            .map(|i| {
                vec![
                    Value::Int(i % 3),
                    Value::Float(-0.0),
                    Value::Null,
                    Value::Bool(false),
                ]
            })
            .collect();
        let table = Table::from_rows(schema.clone(), &rows).unwrap();
        let path = scratch_path("edge");
        write_segments(&path, &table, 16).unwrap();
        let file = SegmentFile::open(&path).unwrap();
        assert_eq!(file.num_segments(), n.div_ceil(16));
        let back = file.read_all().unwrap();
        let decoded: Vec<Vec<Value>> = (0..back.len()).map(|i| back.row(i)).collect();
        assert_eq!(decoded, rows);
        // -0.0 must survive with its sign bit.
        for i in 0..n {
            match back.column(1).get(i) {
                Value::Float(f) => assert!(f.to_bits() == (-0.0f64).to_bits()),
                v => panic!("expected float, got {v:?}"),
            }
        }

        let base = table.distinct_project(&[0]).unwrap();
        let op = filtered_op(1.0);
        let opts = EvalOptions::default();
        let (mem, _) = eval_gmdj_sub(&base, &ScanSource::table(&table), &op, &opts).unwrap();
        let (seg, _) = eval_gmdj_sub(&base, &ScanSource::segments(&file), &op, &opts).unwrap();
        assert_eq!(seg.sorted(), mem.sorted(), "n = {n}");
        drop(file);
        std::fs::remove_file(&path).ok();
    }
}

/// Zone-map pruning vs. runtime errors in θ (DESIGN.md §11): an error θ
/// would raise only on rows of a segment whose zone map refutes one of θ's
/// necessary bounds is not surfaced, because pruning gives that segment
/// identity without evaluating it. With pruning off, and in memory, every
/// row is evaluated, so both raise the same error.
#[test]
fn pruned_segments_do_not_surface_their_rows_errors() {
    let schema = Schema::from_pairs([
        ("k", DataType::Int64),
        ("x", DataType::Int64),
        ("y", DataType::Int64),
        ("z", DataType::Int64),
    ])
    .unwrap()
    .into_arc();
    // x = row number; z = 0 (so y / z raises) only where x < 50.
    let rows: Vec<Vec<Value>> = (0..200i64)
        .map(|i| {
            let z = if i < 50 { 0 } else { 1 };
            vec![
                Value::Int(i % 3),
                Value::Int(i),
                Value::Int(2),
                Value::Int(z),
            ]
        })
        .collect();
    let table = Table::from_rows(schema, &rows).unwrap();
    let base = table.distinct_project(&[0]).unwrap();
    // b.k = r.k AND r.y / r.z > 1 AND r.x > 100
    let op = GmdjOp::new(vec![GmdjBlock::new(
        vec![AggSpec::count_star("c")],
        Expr::base(0)
            .eq(Expr::detail(0))
            .and(Expr::detail(2).div(Expr::detail(3)).gt(Expr::lit(1)))
            .and(Expr::detail(1).gt(Expr::lit(100))),
    )]);

    let path = scratch_path("theta-error");
    write_segments(&path, &table, 50).unwrap();
    let file = SegmentFile::open(&path).unwrap();
    for compiled in [true, false] {
        let opts = EvalOptions {
            compiled,
            ..Default::default()
        };
        // Segments 0 and 1 hold x <= 99, refuting `r.x > 100`.
        let (pruned, stats) = eval_gmdj_sub(&base, &ScanSource::segments(&file), &op, &opts)
            .expect("the erroring rows are all in pruned segments");
        assert_eq!(stats.segments_pruned, 2, "compiled {compiled}");
        assert_eq!(pruned.len(), base.len());

        let unpruned = ScanSource::segments(&file).with_prune(false);
        let full_scan = eval_gmdj_sub(&base, &unpruned, &op, &opts).unwrap_err();
        let in_memory = eval_gmdj_sub(&base, &ScanSource::table(&table), &op, &opts).unwrap_err();
        assert!(
            full_scan.to_string().contains("division by zero"),
            "{full_scan}"
        );
        assert_eq!(
            full_scan.to_string(),
            in_memory.to_string(),
            "compiled {compiled}"
        );
    }
    drop(file);
    std::fs::remove_file(&path).ok();
}
