//! Set-up shared by the workloads: the TPC-R table, the planner inputs the
//! server derives from it, and the common run record.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use skalla_core::{DistPlan, RetryPolicy};
use skalla_gmdj::GmdjExpr;
use skalla_net::CostModel;
use skalla_planner::{choose_plan, parse_query, DistributionInfo};
use skalla_storage::{Table, TableStats};
use skalla_tpcr::{
    generate, partition_by_nation, TpcrConfig, CITYNAME_COL, CUSTKEY_COL, CUSTNAME_COL,
    NATIONKEY_COL,
};
use skalla_types::{Relation, Schema};

use crate::check::Fingerprint;
use crate::shapes::Shape;
use crate::summary::ExecStats;
use crate::trace::Span;

/// TPC-R scale factor of every workload: 120k rows.
pub const SCALE: f64 = 2.0;
pub const SITES: usize = 4;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// What the server's planner holds: schemas, distribution knowledge and
/// table statistics. The benchmark plans with the same inputs, so its
/// plans are the server's plans.
pub struct PlanCtx {
    pub schemas: HashMap<String, Arc<Schema>>,
    pub dist: DistributionInfo,
    pub stats: TableStats,
}

impl PlanCtx {
    pub fn parse(&self, text: &str) -> skalla_types::Result<GmdjExpr> {
        parse_query(text, &self.schemas)
    }

    /// Cost-based plan with the server's defaults: default retry policy
    /// (fail when exhausted), one sync worker, default shards.
    pub fn plan(&self, expr: &GmdjExpr) -> skalla_types::Result<DistPlan> {
        let (mut plan, _, _) = choose_plan(expr, &self.dist, &self.stats, &CostModel::lan_2002())?;
        plan.retry = RetryPolicy::default();
        plan.coord_parallelism = 1;
        plan.sync_shards = None;
        Ok(plan)
    }
}

/// The in-memory table and the planner inputs the server builds from it
/// (`Server::start` derives them the same way), with their timings.
pub struct Data {
    pub table: Table,
    pub ctx: PlanCtx,
    pub generate_s: f64,
    pub stats_s: f64,
}

impl Data {
    pub fn in_memory(cfg: &TpcrConfig) -> Data {
        let t = Instant::now();
        let table = generate(cfg);
        let generate_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let parts = partition_by_nation(&table, SITES).expect("partition tpcr by nation");
        let stats = TableStats::collect(&table);
        let constraints =
            parts.site_constraints_for(&[NATIONKEY_COL, CUSTKEY_COL, CUSTNAME_COL, CITYNAME_COL]);
        let dist =
            DistributionInfo::with_constraints(SITES, Some(NATIONKEY_COL), true, constraints)
                .expect("distribution info for nation partitioning");
        let stats_s = t.elapsed().as_secs_f64();
        let schemas = HashMap::from([("tpcr".to_string(), table.schema().clone())]);
        Data {
            table,
            ctx: PlanCtx {
                schemas,
                dist,
                stats,
            },
            generate_s,
            stats_s,
        }
    }
}

/// The distinct query texts of a run, each with its shape.
#[derive(Default)]
pub struct Texts {
    pub list: Vec<(Shape, String)>,
    index: HashMap<String, usize>,
}

impl Texts {
    pub fn id(&mut self, shape: Shape, text: String) -> usize {
        if let Some(&i) = self.index.get(&text) {
            return i;
        }
        self.list.push((shape, text.clone()));
        self.index.insert(text, self.list.len() - 1);
        self.list.len() - 1
    }

    pub fn text(&self, id: usize) -> &str {
        &self.list[id].1
    }
}

/// One request of the timed window.
#[derive(Debug, Clone)]
pub struct Sample {
    pub shape: Shape,
    pub text: usize,
    /// Client-observed seconds, from the request's due time to decoded rows.
    pub latency_s: f64,
    /// How late the driver sent the request (0 in a closed loop).
    pub lag_s: f64,
    /// `Some` when the request completed; `None` for an error, a `Busy`
    /// refusal or a timeout.
    pub fp: Option<Fingerprint>,
    /// Counters of an executed (non-hit) request.
    pub exec: Option<ExecStats>,
    pub traced: bool,
}

/// Set-up timings of a run (seconds).
#[derive(Debug, Clone, Default)]
pub struct Setup {
    /// Each complete set-up; `setup_s` is their median.
    pub total_s: Vec<f64>,
    pub generate_s: f64,
    pub stats_s: f64,
    pub launch_s: f64,
    pub segment_write_s: f64,
}

/// Counter deltas over the timed window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_invalidations: u64,
    pub submitted: u64,
    pub refused: u64,
}

/// On-disk layout of a segment workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct StorageInfo {
    pub rows: usize,
    pub segments: usize,
    pub bytes: u64,
}

/// Everything a workload run hands to the correctness gate and the report.
pub struct RunOutput {
    pub samples: Vec<Sample>,
    pub window_s: f64,
    pub setup: Setup,
    pub texts: Texts,
    /// Whole replies kept for a row-by-row comparison, by text id.
    pub kept: Vec<(usize, Relation)>,
    pub spans: Vec<Span>,
    pub counters: Counters,
    pub reload_s: Vec<f64>,
    pub storage: StorageInfo,
    /// Structured counters of one in-process execution per shape, for the
    /// fields the TCP reply summary does not carry.
    pub replay: HashMap<&'static str, ExecStats>,
    /// The table every answer is checked against.
    pub table: Table,
    pub schemas: HashMap<String, Arc<Schema>>,
    /// Human-readable facts about the run's sizes.
    pub notes: Vec<String>,
}
