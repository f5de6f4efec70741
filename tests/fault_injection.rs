//! Fault injection end-to-end: the coordinator's deadline/retry/degradation
//! machinery must mask message drop, duplication, and delay completely, and
//! must handle site crashes according to the configured [`DegradedMode`] —
//! all deterministically under a fixed fault seed.

use std::collections::HashMap;
use std::time::Duration;

use skalla::core::TieredWarehouse;
use skalla::prelude::*;

fn flow_schema() -> std::sync::Arc<Schema> {
    Schema::from_pairs([("k", DataType::Int64), ("v", DataType::Int64)])
        .unwrap()
        .into_arc()
}

/// A small fact table with enough groups to give every site work.
fn table(rows: usize) -> Table {
    let data: Vec<Vec<Value>> = (0..rows)
        .map(|i| vec![Value::Int((i % 7) as i64), Value::Int(i as i64)])
        .collect();
    Table::from_rows(flow_schema(), &data).unwrap()
}

/// A two-operator query so execution spans the base round plus a
/// synchronized GMDJ round (several coordinator↔site exchanges).
fn query() -> GmdjExpr {
    let schemas = HashMap::from([("flow".to_string(), flow_schema())]);
    parse_query(
        "BASE DISTINCT k FROM flow;
         MD COUNT(*) AS c, SUM(v) AS s WHERE b.k = r.k;
         MD COUNT(*) AS hi WHERE b.k = r.k AND r.v >= b.s / b.c;",
        &schemas,
    )
    .unwrap()
}

/// Four per-site catalogs holding a hash partitioning of `table(rows)`.
fn catalogs(rows: usize) -> Vec<Catalog> {
    let parts = partition_by_hash(&table(rows), 0, 4).unwrap();
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

/// A retry policy tight enough for tests: dropped messages are retransmitted
/// after 250 ms rather than the default 10 s.
fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        deadline: Duration::from_millis(250),
        max_retries: 8,
        backoff: 1.5,
        degraded: DegradedMode::Fail,
    }
}

fn ground_truth() -> Relation {
    let mut full = Catalog::new();
    full.register("flow", table(280));
    eval_expr_centralized(&query(), &full).unwrap().sorted()
}

fn run_with_faults(faults: FaultPlan, retry: RetryPolicy) -> (Relation, ExecMetrics) {
    let wh =
        DistributedWarehouse::launch_with_faults(catalogs(280), CostModel::free(), faults).unwrap();
    let mut plan = DistPlan::unoptimized(query());
    plan.retry = retry;
    let (result, metrics) = wh.execute(&plan).unwrap();
    wh.shutdown().unwrap();
    (result.sorted(), metrics)
}

#[test]
fn lossy_network_produces_exact_result() {
    // 20% of unreliable messages dropped on every link: retransmission must
    // recover every round and the result must match the fault-free run.
    let faults = FaultPlan::seeded(0xD05E).with_drop_rate(0.2);
    let (result, metrics) = run_with_faults(faults, fast_retry());
    assert_eq!(result, ground_truth());
    assert_eq!(
        metrics.coverage,
        Some(Coverage {
            responded: 4,
            total: 4
        })
    );
}

#[test]
fn lossy_runs_are_deterministic() {
    // Same seed, same topology, same traffic: two independent warehouses
    // must agree bit-for-bit on the answer.
    let faults = FaultPlan::seeded(0xD05E).with_drop_rate(0.2);
    let (a, _) = run_with_faults(faults.clone(), fast_retry());
    let (b, _) = run_with_faults(faults, fast_retry());
    assert_eq!(a, b);
}

#[test]
fn duplicated_messages_are_discarded() {
    // 40% duplication: duplicate replies must be dropped by sequence
    // numbers, duplicate requests deduplicated by the sites' reply cache.
    let faults = FaultPlan::seeded(0xD0B1E).with_dup_rate(0.4);
    let (result, _) = run_with_faults(faults, fast_retry());
    assert_eq!(result, ground_truth());
}

#[test]
fn delayed_and_reordered_messages_are_tolerated() {
    // Half of all receives are held back behind later traffic (reordering).
    // Epoch/round framing plus sequence numbers must keep the answer exact.
    let faults = FaultPlan::seeded(0xDE1A).with_delay_rate(0.5);
    let (result, _) = run_with_faults(faults, fast_retry());
    assert_eq!(result, ground_truth());
}

#[test]
fn everything_at_once_still_answers() {
    // Drop + duplicate + delay together, still a full-coverage exact answer.
    let faults = FaultPlan::seeded(0xA11)
        .with_drop_rate(0.15)
        .with_dup_rate(0.2)
        .with_delay_rate(0.3);
    let (result, metrics) = run_with_faults(faults, fast_retry());
    assert_eq!(result, ground_truth());
    assert!(metrics.coverage.unwrap().is_complete());
}

#[test]
fn crashed_site_fails_cleanly_naming_the_site() {
    // Site 2 (network node 2) is dead on arrival. Under DegradedMode::Fail
    // the query must error within the deadline budget and name the site.
    let faults = FaultPlan::seeded(1).with_crash(2, 0);
    let wh =
        DistributedWarehouse::launch_with_faults(catalogs(280), CostModel::free(), faults).unwrap();
    let mut plan = DistPlan::unoptimized(query());
    plan.retry = RetryPolicy {
        deadline: Duration::from_millis(100),
        max_retries: 1,
        backoff: 1.0,
        degraded: DegradedMode::Fail,
    };
    let start = std::time::Instant::now();
    let err = wh.execute(&plan).unwrap_err().to_string();
    assert!(err.contains("site 2"), "error should name the site: {err}");
    // Fail-fast: worst case is the initial window plus one retry window.
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "took {:?}",
        start.elapsed()
    );
    wh.shutdown().unwrap();
}

#[test]
fn degraded_partial_reports_coverage() {
    // Same crash, DegradedMode::Partial: the coordinator synchronizes the
    // three live sites and reports coverage 3/4 in the metrics.
    let faults = FaultPlan::seeded(1).with_crash(2, 0);
    let wh =
        DistributedWarehouse::launch_with_faults(catalogs(280), CostModel::free(), faults).unwrap();
    let mut plan = DistPlan::unoptimized(query());
    plan.retry = RetryPolicy {
        deadline: Duration::from_millis(100),
        max_retries: 1,
        backoff: 1.0,
        degraded: DegradedMode::Partial,
    };
    let (result, metrics) = wh.execute(&plan).unwrap();
    wh.shutdown().unwrap();

    let cov = metrics.coverage.expect("partial run must report coverage");
    assert_eq!(
        cov,
        Coverage {
            responded: 3,
            total: 4
        }
    );
    assert!(!cov.is_complete());
    assert_eq!(cov.to_string(), "3/4");
    assert!(metrics.summary().contains("3/4"), "{}", metrics.summary());

    // The partial answer is exactly the centralized answer over the three
    // surviving partitions (site 2 owns catalog index 1).
    let parts = partition_by_hash(&table(280), 0, 4).unwrap();
    let mut survivors = TableBuilder::new(flow_schema());
    for (i, p) in parts.parts.iter().enumerate() {
        if i != 1 {
            for row in p.iter_rows() {
                survivors.push_row(&row).unwrap();
            }
        }
    }
    let mut partial_catalog = Catalog::new();
    partial_catalog.register("flow", survivors.finish());
    let expected = eval_expr_centralized(&query(), &partial_catalog)
        .unwrap()
        .sorted();
    assert_eq!(result.sorted(), expected);
}

#[test]
fn tree_leaf_crash_fails_cleanly_through_the_mid_tier() {
    // Four leaves under two mid-tiers (fanout 2): root 0, mids 1–2, leaves
    // 3–6. Leaf 4 (catalog 1, cluster of mid 1) is dead on arrival. The
    // mid-tier's recv deadline converts the hang into an Error reply, and
    // the root's ladder fails the query cleanly within the retry budget.
    let faults = FaultPlan::seeded(2).with_crash(4, 0);
    let tw =
        TieredWarehouse::launch_with_faults(catalogs(280), 2, CostModel::free(), faults).unwrap();
    let mut plan = DistPlan::unoptimized(query());
    plan.retry = RetryPolicy {
        deadline: Duration::from_millis(100),
        max_retries: 1,
        backoff: 1.0,
        degraded: DegradedMode::Fail,
    };
    let start = std::time::Instant::now();
    let err = tw.execute(&plan).unwrap_err().to_string();
    assert!(err.contains("site"), "error should name the path: {err}");
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "took {:?}",
        start.elapsed()
    );
    tw.shutdown().unwrap();
}

#[test]
fn tree_leaf_crash_degrades_to_the_surviving_cluster() {
    // Same crash under DegradedMode::Partial: the root drops mid-tier 1's
    // whole cluster (leaves 3–4, catalogs 0–1) and synchronizes the
    // surviving cluster — coverage 1/2 mid-tiers, answer exactly the
    // centralized result over the surviving partitions.
    let faults = FaultPlan::seeded(2).with_crash(4, 0);
    let tw =
        TieredWarehouse::launch_with_faults(catalogs(280), 2, CostModel::free(), faults).unwrap();
    let mut plan = DistPlan::unoptimized(query());
    plan.retry = RetryPolicy {
        deadline: Duration::from_millis(100),
        max_retries: 1,
        backoff: 1.0,
        degraded: DegradedMode::Partial,
    };
    let (result, metrics) = tw.execute(&plan).unwrap();
    tw.shutdown().unwrap();

    let cov = metrics.coverage.expect("partial run must report coverage");
    assert_eq!(
        cov,
        Coverage {
            responded: 1,
            total: 2
        }
    );

    let parts = partition_by_hash(&table(280), 0, 4).unwrap();
    let mut survivors = TableBuilder::new(flow_schema());
    for (i, p) in parts.parts.iter().enumerate() {
        if i >= 2 {
            for row in p.iter_rows() {
                survivors.push_row(&row).unwrap();
            }
        }
    }
    let mut partial_catalog = Catalog::new();
    partial_catalog.register("flow", survivors.finish());
    let expected = eval_expr_centralized(&query(), &partial_catalog)
        .unwrap()
        .sorted();
    assert_eq!(result.sorted(), expected);
}

#[test]
fn partial_with_all_sites_dead_is_an_error() {
    // Partial degradation still refuses to fabricate an answer from nothing.
    let faults = FaultPlan::seeded(5)
        .with_crash(1, 0)
        .with_crash(2, 0)
        .with_crash(3, 0)
        .with_crash(4, 0);
    let wh =
        DistributedWarehouse::launch_with_faults(catalogs(80), CostModel::free(), faults).unwrap();
    let mut plan = DistPlan::unoptimized(query());
    plan.retry = RetryPolicy {
        deadline: Duration::from_millis(50),
        max_retries: 0,
        backoff: 1.0,
        degraded: DegradedMode::Partial,
    };
    let err = wh.execute(&plan).unwrap_err().to_string();
    assert!(err.contains("every site failed"), "{err}");
    wh.shutdown().unwrap();
}

/// `rows` rows over 64 groups of `k`.
fn wide_table(rows: usize) -> Table {
    let data: Vec<Vec<Value>> = (0..rows)
        .map(|i| vec![Value::Int((i % 64) as i64), Value::Int(i as i64)])
        .collect();
    Table::from_rows(flow_schema(), &data).unwrap()
}

/// `wide_table(rows)` hash-partitioned on `v` over eight sites: every site
/// holds every group, so a fragment blocked at 16 rows spans several
/// chunks.
fn wide_catalogs(rows: usize) -> Vec<Catalog> {
    let parts = partition_by_hash(&wide_table(rows), 1, 8).unwrap();
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

/// Run `f` on a helper thread; the test fails, instead of hanging, when
/// `f` does not finish within `bound`.
fn within<T: Send + 'static>(bound: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(bound) {
        Ok(v) => v,
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("did not finish within {bound:?}")
        }
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => panic!("helper thread panicked"),
    }
}

/// Launch a tree (fanout 3 over `catalogs`), execute `plan`, and shut the
/// tree down, all within `bound`; returns the sorted result.
fn run_tree_within(
    bound: Duration,
    catalogs: Vec<Catalog>,
    fanout: usize,
    faults: FaultPlan,
    plan: DistPlan,
) -> Result<Relation, SkallaError> {
    within(bound, move || {
        let tw = TieredWarehouse::launch_with_faults(catalogs, fanout, CostModel::free(), faults)
            .unwrap();
        let result = tw.execute(&plan).map(|(rel, _)| rel.sorted());
        tw.shutdown().unwrap();
        result
    })
}

/// Seeds 1..=10 of `faults`: a tree (eight sites, fanout 3) and a flat
/// warehouse under the same faults, with row-blocked fragments, must both
/// answer exactly the centralized result. Mid-tiers collect their
/// clusters under the root's duplicate, retry and deadline rules, so each
/// child chunk is merged exactly once.
fn tree_and_flat_are_exact_under(faults: impl Fn(u64) -> FaultPlan) {
    let mut full = Catalog::new();
    full.register("flow", wide_table(768));
    let truth = eval_expr_centralized(&query(), &full).unwrap().sorted();
    // A 100 ms first window keeps the twenty lossy runs short.
    let plan = DistPlan::unoptimized(query())
        .with_block_rows(16)
        .with_retry_policy(RetryPolicy {
            deadline: Duration::from_millis(100),
            ..fast_retry()
        });
    for seed in 1..=10 {
        let tree = run_tree_within(
            Duration::from_secs(60),
            wide_catalogs(768),
            3,
            faults(seed),
            plan.clone(),
        )
        .unwrap_or_else(|e| panic!("seed {seed}: tree failed: {e}"));
        let wh = DistributedWarehouse::launch_with_faults(
            wide_catalogs(768),
            CostModel::free(),
            faults(seed),
        )
        .unwrap();
        let flat = wh
            .execute(&plan)
            .unwrap_or_else(|e| panic!("seed {seed}: flat failed: {e}"))
            .0
            .sorted();
        wh.shutdown().unwrap();
        assert_eq!(tree, truth, "seed {seed}: tree vs centralized");
        assert_eq!(flat, truth, "seed {seed}: flat vs centralized");
    }
}

#[test]
fn tree_results_are_exact_under_duplication() {
    tree_and_flat_are_exact_under(|seed| FaultPlan::seeded(seed).with_dup_rate(0.3));
}

#[test]
fn tree_results_are_exact_under_drop_and_delay() {
    tree_and_flat_are_exact_under(|seed| {
        FaultPlan::seeded(seed)
            .with_drop_rate(0.05)
            .with_delay_rate(0.2)
    });
}

#[test]
fn lossy_tree_shuts_down_within_a_bound() {
    // Drop faults hit every unreliable send, so a mid-tier relaying the
    // root's Shutdown unreliably could lose it: that leaf never exits and
    // the root's join waits forever.
    let plan = DistPlan::unoptimized(query()).with_retry_policy(fast_retry());
    for seed in 1..=5 {
        let faults = FaultPlan::seeded(seed).with_drop_rate(0.2);
        let result = run_tree_within(
            Duration::from_secs(30),
            catalogs(280),
            2,
            faults,
            plan.clone(),
        )
        .unwrap_or_else(|e| panic!("seed {seed}: tree failed: {e}"));
        assert_eq!(result, ground_truth(), "seed {seed}");
    }
}
