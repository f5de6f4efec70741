//! The multi-tier coordinator topology (paper §6 future work): results
//! must match the flat topology exactly, and the root link must carry less
//! traffic (mid-tiers pre-synchronize their clusters).

use std::collections::HashMap;

use skalla::core::TieredWarehouse;
use skalla::prelude::*;

fn flow_schema() -> std::sync::Arc<Schema> {
    Schema::from_pairs([
        ("sas", DataType::Int64),
        ("das", DataType::Int64),
        ("nb", DataType::Int64),
    ])
    .unwrap()
    .into_arc()
}

fn setup(rows: usize, sites: usize) -> (Table, Partitioning, Vec<Catalog>) {
    let data: Vec<Vec<Value>> = (0..rows)
        .map(|i| {
            vec![
                Value::Int((i % 30) as i64),
                Value::Int((i % 6) as i64),
                Value::Int(((i * 19) % 700) as i64),
            ]
        })
        .collect();
    let table = Table::from_rows(flow_schema(), &data).unwrap();
    let parts = partition_by_hash(&table, 0, sites).unwrap();
    let catalogs = parts
        .parts
        .iter()
        .map(|p| {
            let mut c = Catalog::new();
            c.register("flow", p.clone());
            c
        })
        .collect();
    (table, parts, catalogs)
}

fn query() -> GmdjExpr {
    let schemas = HashMap::from([("flow".to_string(), flow_schema())]);
    parse_query(
        "BASE DISTINCT sas, das FROM flow;
         MD COUNT(*) AS c1, AVG(nb) AS a1 WHERE b.sas = r.sas AND b.das = r.das;
         MD COUNT(*) AS c2 WHERE b.sas = r.sas AND b.das = r.das AND r.nb >= b.a1;",
        &schemas,
    )
    .unwrap()
}

#[test]
fn tree_matches_flat_topology() {
    let (table, _, catalogs) = setup(600, 8);
    let mut full = Catalog::new();
    full.register("flow", table);
    let expected = eval_expr_centralized(&query(), &full).unwrap().sorted();

    for fanout in [1usize, 2, 4, 8] {
        let tw = TieredWarehouse::launch(catalogs.clone(), fanout, CostModel::free()).unwrap();
        assert_eq!(tw.num_leaf_sites(), 8);
        assert_eq!(tw.num_mid_tiers(), 8usize.div_ceil(fanout));
        let (result, _) = tw.execute(&DistPlan::unoptimized(query())).unwrap();
        assert_eq!(result.sorted(), expected, "fanout {fanout}");
        tw.shutdown().unwrap();
    }
}

#[test]
fn tree_handles_optimized_plans() {
    let (table, parts, catalogs) = setup(600, 6);
    let dist = DistributionInfo::from_partitioning(&parts);
    let mut full = Catalog::new();
    full.register("flow", table);
    let expected = eval_expr_centralized(&query(), &full).unwrap().sorted();

    let tw = TieredWarehouse::launch(catalogs, 2, CostModel::free()).unwrap();
    for flags in [
        OptFlags::none(),
        OptFlags {
            site_group_reduction: true,
            ..OptFlags::none()
        },
        OptFlags {
            sync_reduction: true,
            ..OptFlags::none()
        },
        OptFlags::all(),
    ] {
        let (plan, _) = plan_query(&query(), &dist, flags).unwrap();
        let (result, _) = tw.execute(&plan).unwrap();
        assert_eq!(result.sorted(), expected, "flags {flags:?}");
    }
    tw.shutdown().unwrap();
}

#[test]
fn mid_tiers_reduce_root_traffic() {
    let (_, _, catalogs) = setup(900, 8);
    let plan = DistPlan::unoptimized(query());

    // Flat topology: the root receives one H per site.
    let flat = DistributedWarehouse::launch(catalogs.clone(), CostModel::free()).unwrap();
    let (r_flat, m_flat) = flat.execute(&plan).unwrap();
    flat.shutdown().unwrap();

    // Tree with fanout 4: the root receives one pre-merged H per mid-tier.
    let tree = TieredWarehouse::launch(catalogs, 4, CostModel::free()).unwrap();
    let (r_tree, m_tree) = tree.execute(&plan).unwrap();
    tree.shutdown().unwrap();

    assert_eq!(r_flat.sorted(), r_tree.sorted());
    // The tree's root-link upstream tuple count is smaller: per round, at
    // most 2 merged fragments (≤ 2·|Q| rows) instead of 8 full-base
    // fragments (8·|Q| rows).
    assert!(
        m_tree.total_rows_up() < m_flat.total_rows_up(),
        "tree {} vs flat {}",
        m_tree.total_rows_up(),
        m_flat.total_rows_up()
    );
}

#[test]
fn tree_composes_with_row_blocking() {
    let (table, _, catalogs) = setup(600, 6);
    let mut full = Catalog::new();
    full.register("flow", table);
    let expected = eval_expr_centralized(&query(), &full).unwrap().sorted();

    let tw = TieredWarehouse::launch(catalogs, 3, CostModel::free()).unwrap();
    let plan = DistPlan::unoptimized(query()).with_block_rows(10);
    let (result, _) = tw.execute(&plan).unwrap();
    tw.shutdown().unwrap();
    assert_eq!(result.sorted(), expected);
}

#[test]
fn tree_ship_all_baseline_works() {
    let (table, _, catalogs) = setup(400, 4);
    let mut full = Catalog::new();
    full.register("flow", table);
    let expected = eval_expr_centralized(&query(), &full).unwrap().sorted();

    let tw = TieredWarehouse::launch(catalogs, 2, CostModel::free()).unwrap();
    // The root's ship-all goes through the mid-tiers, which union raw data.
    let (result, metrics) = tw.execute_ship_all(&query()).unwrap();
    assert_eq!(result.sorted(), expected);
    // 400 detail tuples crossed the root link.
    assert_eq!(metrics.total_rows_up(), 400);
    tw.shutdown().unwrap();
}

/// Everything at once: tree topology, row blocking, site parallelism, and
/// every optimizer flag — one combined stress configuration.
#[test]
fn kitchen_sink_configuration() {
    let (table, parts, catalogs) = setup(1200, 6);
    let dist = DistributionInfo::from_partitioning(&parts);
    let mut full = Catalog::new();
    full.register("flow", table);
    let expected = eval_expr_centralized(&query(), &full).unwrap().sorted();

    let (plan, _) = plan_query(&query(), &dist, OptFlags::all()).unwrap();
    let plan = plan.with_block_rows(7).with_site_parallelism(3);

    let tw = TieredWarehouse::launch(catalogs, 2, CostModel::lan_2002()).unwrap();
    for _ in 0..3 {
        let (result, _) = tw.execute(&plan).unwrap();
        assert_eq!(result.sorted(), expected);
    }
    tw.shutdown().unwrap();
}

#[test]
fn launch_guards() {
    assert!(TieredWarehouse::launch(vec![], 2, CostModel::free()).is_err());
    let (_, _, catalogs) = setup(10, 2);
    assert!(TieredWarehouse::launch(catalogs, 0, CostModel::free()).is_err());
    // A table whose schema differs across sites is rejected, as the flat
    // launch rejects it, instead of the first site's schema winning.
    let (_, _, mut catalogs) = setup(10, 2);
    let other = Schema::from_pairs([("x", DataType::Int64)])
        .unwrap()
        .into_arc();
    catalogs[1].register("flow", Table::empty(other));
    let err = TieredWarehouse::launch(catalogs, 2, CostModel::free())
        .err()
        .expect("differing schemas must be rejected");
    assert!(err.to_string().contains("differing schemas"), "{err}");
}
