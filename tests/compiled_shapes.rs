//! Regression guard: the paper's §5 query shapes run entirely on the
//! compiled batch kernels.
//!
//! Every shape joins on its grouping attribute and carries a residual
//! (`b.k = r.k AND r.orderdate >= d`, `… AND r.extendedprice >= b.avg1`).
//! Each is executed through `DistributedWarehouse` over in-memory
//! partitions and over segment files, with the unoptimized plan and with
//! every optimization on. Every site must report zero interpreted blocks,
//! and every answer must equal the centralized evaluator bit for bit —
//! so no change can silently send these shapes back to the row-at-a-time
//! interpreter, nor make the compiled path diverge.

use std::collections::HashMap;

use skalla::prelude::*;
use skalla::storage::write_segments;
use skalla::tpcr::{generate, partition_by_nation, TpcrConfig, TIMELINE_DAYS};

const SITES: usize = 3;

/// The §5 shapes as query text. Groups that span sites (clerk, orderkey)
/// aggregate `quantity`, whose whole-number sums merge to the same bits in
/// any order; partitioned groups average `extendedprice`.
fn shapes() -> Vec<(&'static str, String)> {
    let end = TIMELINE_DAYS;
    let lo = end - 400;
    vec![
        (
            "single GMDJ on custname",
            "BASE DISTINCT custname FROM tpcr;
             MD COUNT(*) AS cnt, AVG(extendedprice) AS avg
                WHERE b.custname = r.custname AND r.orderdate >= 40;"
                .to_string(),
        ),
        (
            "Example 1 (correlated AVG)",
            "BASE DISTINCT custname FROM tpcr;
             MD COUNT(*) AS cnt1, AVG(extendedprice) AS avg1
                WHERE b.custname = r.custname AND r.orderdate >= 40;
             MD COUNT(*) AS cnt2
                WHERE b.custname = r.custname AND r.extendedprice >= b.avg1;"
                .to_string(),
        ),
        (
            "Fig. 3 clerk pair",
            "BASE DISTINCT clerk FROM tpcr;
             MD COUNT(*) AS cnt1, AVG(quantity) AS avg1
                WHERE b.clerk = r.clerk AND r.orderdate >= 40;
             MD COUNT(*) AS cnt2, AVG(quantity) AS avg2
                WHERE b.clerk = r.clerk AND r.extendedprice > 250000.0;"
                .to_string(),
        ),
        (
            "orderkey",
            "BASE DISTINCT orderkey FROM tpcr;
             MD COUNT(*) AS cnt, AVG(quantity) AS avg
                WHERE b.orderkey = r.orderkey AND r.orderdate >= 40;"
                .to_string(),
        ),
        (
            "windowed orderdate on nationname",
            format!(
                "BASE DISTINCT nationname FROM tpcr;
                 MD COUNT(*) AS cnt, AVG(extendedprice) AS avg
                    WHERE b.nationname = r.nationname
                      AND r.orderdate >= {lo} AND r.orderdate < {end};"
            ),
        ),
    ]
}

fn same_bits(got: &Relation, want: &Relation) -> bool {
    got.len() == want.len()
        && got.rows().iter().zip(want.rows()).all(|(g, w)| {
            g.len() == w.len()
                && g.iter().zip(w).all(|(x, y)| match (x, y) {
                    (Value::Float(p), Value::Float(q)) => p.to_bits() == q.to_bits(),
                    _ => x == y,
                })
        })
}

#[test]
fn paper_shapes_run_fully_compiled_and_bit_exact() {
    let table = generate(&TpcrConfig::scale(0.1));
    let schemas = HashMap::from([("tpcr".to_string(), table.schema().clone())]);
    let parts = partition_by_nation(&table, SITES).unwrap();
    let dist = DistributionInfo::from_partitioning(&parts);
    let mut full = Catalog::new();
    full.register("tpcr", table);

    let catalogs = || -> Vec<Catalog> {
        parts
            .parts
            .iter()
            .map(|p| {
                let mut c = Catalog::new();
                c.register("tpcr", p.clone());
                c
            })
            .collect()
    };
    let in_memory = DistributedWarehouse::launch(catalogs(), CostModel::free()).unwrap();
    let on_disk = DistributedWarehouse::launch(catalogs(), CostModel::free()).unwrap();
    let dir = std::env::temp_dir().join(format!("skalla-compiled-shapes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let paths: Vec<String> = parts
        .parts
        .iter()
        .enumerate()
        .map(|(site, p)| {
            let path = dir.join(format!("tpcr-{site}.seg"));
            write_segments(&path, p, 256).unwrap();
            path.to_string_lossy().into_owned()
        })
        .collect();
    on_disk.load_segments("tpcr", &paths).unwrap();

    for (name, text) in shapes() {
        let expr = parse_query(&text, &schemas).unwrap();
        let want = eval_expr_centralized(&expr, &full).unwrap().sorted();
        let (optimized, _) = plan_query(&expr, &dist, OptFlags::all()).unwrap();
        for (storage, wh) in [("in-memory", &in_memory), ("segments", &on_disk)] {
            for (plan_name, plan) in [
                ("unoptimized", DistPlan::unoptimized(expr.clone())),
                ("optimized", optimized.clone()),
            ] {
                let ctx = format!("{name}, {storage}, {plan_name} plan");
                let (got, m) = wh.execute(&plan).unwrap();
                assert!(same_bits(&got.sorted(), &want), "{ctx}: answer differs");
                assert!(m.total_blocks_compiled() > 0, "{ctx}: no compiled blocks");
                assert_eq!(
                    m.total_blocks_interpreted(),
                    0,
                    "{ctx}: a block fell back to the interpreter"
                );
            }
        }
    }
    in_memory.shutdown().unwrap();
    on_disk.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
