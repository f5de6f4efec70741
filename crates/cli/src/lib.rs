#![warn(missing_docs)]

//! # skalla-cli
//!
//! The interactive shell behind the `skalla` binary: load a TPCR warehouse,
//! type GMDJ queries in the textual language, and inspect plans, costs, and
//! results.
//!
//! ```text
//! skalla> \load 0.05 4
//! loaded tpcr: 3000 tuples across 4 sites (partitioned on nationkey)
//! skalla> BASE DISTINCT nationname FROM tpcr;
//!      -> MD COUNT(*) AS orders, AVG(extendedprice) AS avg_price
//!      ->    WHERE b.nationname = r.nationname;
//!      ->
//! nationname | orders | avg_price
//! ...
//! ```
//!
//! Commands start with `\`; anything else accumulates into the query buffer
//! and executes on an empty line. The session logic lives in [`Session`] so
//! it is unit-testable; `main.rs` is a thin stdin loop.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use skalla_core::{
    CheckpointWal, DegradedMode, DistPlan, DistributedWarehouse, ExecMetrics, OptFlags,
    RetryPolicy, SkewPolicy,
};
use skalla_gmdj::to_sql;
use skalla_net::{CostModel, FaultPlan};
use skalla_planner::{choose_plan, parse_query, plan_query, DistributionInfo};
use skalla_storage::{
    Catalog, DiskFaultGuard, DiskFaultPlan, SegmentFile, TableStats, DEFAULT_SEGMENT_ROWS,
};
use skalla_tpcr::{
    generate, generate_to_dir, partition_by_nation, tpcr_schema, TpcrConfig, CITYNAME_COL,
    CUSTKEY_COL, CUSTNAME_COL, NATIONKEY_COL,
};
use skalla_types::{Relation, Result, Schema, SkallaError};

/// What the shell should do after handling one line.
#[derive(Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Print this text (possibly empty) and continue.
    Continue(String),
    /// The user asked to leave.
    Quit,
}

/// Optimizer-flag selection for the session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlagMode {
    None,
    All,
    /// Cost-based: pick the cheapest flag combination per query.
    Auto,
}

/// An interactive session: a loaded warehouse plus shell state.
pub struct Session {
    warehouse: Option<DistributedWarehouse>,
    dist: Option<DistributionInfo>,
    stats: Option<TableStats>,
    schemas: HashMap<String, Arc<Schema>>,
    flag_mode: FlagMode,
    explain: bool,
    faults: FaultPlan,
    degraded: DegradedMode,
    retry: RetryPolicy,
    /// Partition replication factor applied on the next `\load` (1 = none).
    replication: usize,
    /// When set, every executed query checkpoints each synchronized round
    /// here and resumes from the log on re-execution.
    checkpoint: Option<CheckpointWal>,
    /// Coordinator merge workers applied to every executed plan (>1 runs
    /// synchronization through the sharded pipeline).
    coord_workers: usize,
    /// Sync shard-count override (None = one shard per worker, rounded to
    /// a power of two).
    coord_shards: Option<usize>,
    /// Skew-policy override applied to every executed plan. `None` keeps
    /// whatever the planner decided (Egil auto-enables on replicated,
    /// imbalanced loads); `Some` forces the policy on or off.
    skew: Option<SkewPolicy>,
    /// Metrics of the most recently executed query, for `\metrics`.
    last_metrics: Option<ExecMetrics>,
    /// When set, `\load` generates straight to per-site segment files
    /// under this directory and sites scan out-of-core instead of holding
    /// their partition in memory.
    data_dir: Option<PathBuf>,
    /// Rows per segment for out-of-core loads.
    segment_rows: usize,
    /// Zone-map pruning override applied to every executed plan (`None`
    /// keeps the plan default, which is on).
    segment_prune: Option<bool>,
    /// Per-site segment-file summaries of the current out-of-core load,
    /// for `\segments`.
    segments_info: Option<Vec<SegSiteInfo>>,
    /// Seeded disk-fault plan applied to the next out-of-core `\load`
    /// (installed scoped to the data directory, so only warehouse segment
    /// files are affected).
    disk_faults: Option<DiskFaultPlan>,
    /// Keeps the installed disk-fault scope alive for the lifetime of the
    /// current out-of-core load.
    disk_fault_guard: Option<DiskFaultGuard>,
    buffer: String,
    /// Rows shown per result (keeps wide groups readable).
    pub max_rows: usize,
}

/// One site's segment file in an out-of-core load.
struct SegSiteInfo {
    path: String,
    rows: usize,
    segments: usize,
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl Session {
    /// A fresh, unloaded session.
    pub fn new() -> Session {
        Session {
            warehouse: None,
            dist: None,
            stats: None,
            schemas: HashMap::new(),
            flag_mode: FlagMode::Auto,
            explain: false,
            faults: FaultPlan::none(),
            degraded: DegradedMode::Fail,
            retry: RetryPolicy::default(),
            replication: 1,
            checkpoint: None,
            coord_workers: 1,
            coord_shards: None,
            skew: None,
            last_metrics: None,
            data_dir: None,
            segment_rows: DEFAULT_SEGMENT_ROWS,
            segment_prune: None,
            segments_info: None,
            disk_faults: None,
            disk_fault_guard: None,
            buffer: String::new(),
            max_rows: 20,
        }
    }

    /// `true` while a multi-line query is being accumulated.
    pub fn in_query(&self) -> bool {
        !self.buffer.is_empty()
    }

    /// Handle one input line.
    pub fn handle_line(&mut self, line: &str) -> Outcome {
        let trimmed = line.trim();
        if trimmed.starts_with('\\') {
            return self.command(trimmed);
        }
        if trimmed.is_empty() {
            if self.buffer.is_empty() {
                return Outcome::Continue(String::new());
            }
            let text = std::mem::take(&mut self.buffer);
            return Outcome::Continue(match self.run_query(&text) {
                Ok(out) => out,
                Err(e) => format!("error: {e}"),
            });
        }
        self.buffer.push_str(line);
        self.buffer.push('\n');
        Outcome::Continue(String::new())
    }

    fn command(&mut self, cmd: &str) -> Outcome {
        let mut parts = cmd.split_whitespace();
        let head = parts.next().unwrap_or("");
        let args: Vec<&str> = parts.collect();
        let out = match head {
            "\\q" | "\\quit" | "\\exit" => return Outcome::Quit,
            "\\help" | "\\?" => Ok(HELP.to_string()),
            "\\load" => self.cmd_load(&args),
            "\\tables" => self.cmd_tables(),
            "\\flags" => self.cmd_flags(&args),
            "\\explain" => {
                self.explain = args.first().is_none_or(|a| *a != "off");
                Ok(format!(
                    "explain {}",
                    if self.explain { "on" } else { "off" }
                ))
            }
            "\\sql" => self.cmd_sql(),
            "\\cost" => self.cmd_cost(),
            "\\faults" => self.cmd_faults(&args),
            "\\degrade" => self.cmd_degrade(&args),
            "\\replicate" => self.cmd_replicate(&args),
            "\\failover" => self.cmd_failover(),
            "\\sync" => self.cmd_sync(&args),
            "\\skew" => self.cmd_skew(&args),
            "\\segments" => self.cmd_segments(&args),
            "\\scrub" => self.cmd_scrub(),
            "\\metrics" => self.cmd_metrics(),
            other => Err(SkallaError::parse(format!(
                "unknown command `{other}` (try \\help)"
            ))),
        };
        Outcome::Continue(match out {
            Ok(s) => s,
            Err(e) => format!("error: {e}"),
        })
    }

    fn cmd_load(&mut self, args: &[&str]) -> Result<String> {
        let scale: f64 = args
            .first()
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| SkallaError::parse("usage: \\load <scale> <sites>"))?;
        let sites: usize = args
            .get(1)
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| SkallaError::parse("usage: \\load <scale> <sites>"))?;
        self.load_tpcr(scale, sites)
    }

    /// Install a fault plan for the *next* `\load` (also used by the
    /// `--fault-seed`/`--drop-rate`/`--crash-site` binary flags).
    pub fn set_fault_plan(&mut self, faults: FaultPlan) {
        self.faults = faults;
    }

    /// Set the degraded-mode policy applied to every executed plan.
    pub fn set_degraded_mode(&mut self, mode: DegradedMode) {
        self.degraded = mode;
    }

    /// Set the retry policy applied to every executed plan (deadline,
    /// retries, backoff). The degraded mode set via [`Session::set_degraded_mode`]
    /// or `\degrade` still wins.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// Set the partition replication factor for the next load (also used by
    /// the `--replication` binary flag).
    pub fn set_replication(&mut self, replication: usize) {
        self.replication = replication.max(1);
    }

    /// Seeded disk-fault injection for the next out-of-core `\load`
    /// (the `--disk-fault-seed`/`--bitflip-rate` binary flags). `None`
    /// removes any previously configured plan; the scope installed by an
    /// earlier load stays active until the next load replaces it.
    pub fn set_disk_fault_plan(&mut self, plan: Option<DiskFaultPlan>) {
        self.disk_faults = plan;
    }

    /// Out-of-core mode for the next `\load`: generate straight to
    /// per-site segment files under `dir` and have sites scan from disk
    /// (also used by the `--data-dir` binary flag). `None` restores
    /// in-memory loads.
    pub fn set_data_dir(&mut self, dir: Option<PathBuf>) {
        self.data_dir = dir;
    }

    /// Rows per segment for out-of-core loads (also used by the
    /// `--segment-rows` binary flag). Smaller segments mean tighter zone
    /// maps (more pruning) but more footer metadata and decode calls.
    pub fn set_segment_rows(&mut self, rows: usize) {
        self.segment_rows = rows.max(1);
    }

    /// Set the coordinator sync worker count for every executed plan (also
    /// used by the `--workers` binary flag). Equivalent to `\sync <n>`.
    pub fn set_sync_workers(&mut self, workers: usize) {
        self.coord_workers = workers.max(1);
    }

    /// Override the sharded-sync shard count for every executed plan (also
    /// used by the `--sync-shards` binary flag). Rounded up to a power of
    /// two by the engine; `None` restores the default of 4 shards/worker.
    pub fn set_sync_shards(&mut self, shards: Option<usize>) {
        self.coord_shards = shards.map(|s| s.max(1));
    }

    /// Override the skew policy applied to every executed plan (also used
    /// by the `--skew` binary flag). `None` restores the planner's own
    /// (auto) decision. Equivalent to `\skew on|off|auto`.
    pub fn set_skew_policy(&mut self, skew: Option<SkewPolicy>) {
        self.skew = skew;
    }

    /// Checkpoint every executed query to `wal`, round by round, and resume
    /// from it (also used by the `--checkpoint-dir` binary flag). A session
    /// restarted onto the same log re-executes at most the round that was
    /// in flight when the previous coordinator died; re-running a query the
    /// log already covers completely returns its recorded result directly.
    pub fn set_checkpoint_wal(&mut self, wal: CheckpointWal) {
        self.checkpoint = Some(wal);
    }

    /// `\faults [off | seed <n> | drop <r> | dup <r> | delay <r> | crash <site> <after>]…`
    ///
    /// With no arguments, shows the current plan. Changes take effect on the
    /// next `\load` (the fabric is wired at warehouse launch).
    fn cmd_faults(&mut self, args: &[&str]) -> Result<String> {
        let usage = || {
            SkallaError::parse(
                "usage: \\faults [off | seed <n> | drop <rate> | dup <rate> | delay <rate> | crash <site> <after>]…",
            )
        };
        let mut i = 0;
        while i < args.len() {
            match args[i] {
                "off" => {
                    self.faults = FaultPlan::none();
                    i += 1;
                }
                "seed" => {
                    self.faults.seed = args
                        .get(i + 1)
                        .and_then(|a| a.parse().ok())
                        .ok_or_else(usage)?;
                    i += 2;
                }
                "drop" => {
                    let r: f64 = args
                        .get(i + 1)
                        .and_then(|a| a.parse().ok())
                        .ok_or_else(usage)?;
                    self.faults = std::mem::take(&mut self.faults).with_drop_rate(r);
                    i += 2;
                }
                "dup" => {
                    let r: f64 = args
                        .get(i + 1)
                        .and_then(|a| a.parse().ok())
                        .ok_or_else(usage)?;
                    self.faults = std::mem::take(&mut self.faults).with_dup_rate(r);
                    i += 2;
                }
                "delay" => {
                    let r: f64 = args
                        .get(i + 1)
                        .and_then(|a| a.parse().ok())
                        .ok_or_else(usage)?;
                    self.faults = std::mem::take(&mut self.faults).with_delay_rate(r);
                    i += 2;
                }
                "crash" => {
                    let site: u32 = args
                        .get(i + 1)
                        .and_then(|a| a.parse().ok())
                        .ok_or_else(usage)?;
                    let after: u64 = args
                        .get(i + 2)
                        .and_then(|a| a.parse().ok())
                        .ok_or_else(usage)?;
                    self.faults = std::mem::take(&mut self.faults).with_crash(site, after);
                    i += 3;
                }
                _ => return Err(usage()),
            }
        }
        let f = &self.faults;
        let mut out = if f.is_noop() {
            "faults: none".to_string()
        } else {
            format!(
                "faults: seed {} drop {} dup {} delay {}",
                f.seed, f.drop_rate, f.dup_rate, f.delay_rate
            )
        };
        for c in &f.crashes {
            let _ = write!(out, " crash({} after {})", c.node, c.after_messages);
        }
        if !args.is_empty() && self.warehouse.is_some() {
            out.push_str("\n(applies on next \\load)");
        }
        Ok(out)
    }

    /// `\degrade [fail|partial|failover]` — what the coordinator does after
    /// retries are exhausted: fail the query, return a partial result with
    /// coverage accounting, or (with replicated partitions, see
    /// `\replicate`) re-plan the round onto surviving replicas for an exact
    /// answer.
    fn cmd_degrade(&mut self, args: &[&str]) -> Result<String> {
        match args.first() {
            Some(&"fail") => self.degraded = DegradedMode::Fail,
            Some(&"partial") => self.degraded = DegradedMode::Partial,
            Some(&"failover") => self.degraded = DegradedMode::Failover,
            Some(other) => {
                return Err(SkallaError::parse(format!(
                    "unknown degraded mode `{other}` (fail|partial|failover)"
                )))
            }
            None => {}
        }
        Ok(format!("degraded mode: {}", degraded_name(self.degraded)))
    }

    /// `\replicate [r]` — the partition replication factor (ring placement)
    /// for the next `\load`. `r > 1` is what makes `\degrade failover`
    /// effective: a crashed site's partitions are re-planned onto surviving
    /// replicas and the answer stays exact.
    fn cmd_replicate(&mut self, args: &[&str]) -> Result<String> {
        if let Some(a) = args.first() {
            let r: usize = a
                .parse()
                .map_err(|_| SkallaError::parse("usage: \\replicate [factor]"))?;
            self.replication = r.max(1);
        }
        let mut out = format!("replication factor: {}", self.replication);
        if !args.is_empty() && self.warehouse.is_some() {
            out.push_str("\n(applies on next \\load)");
        }
        Ok(out)
    }

    /// `\failover` — the replica placement of the loaded warehouse and the
    /// failover counters of the last query.
    fn cmd_failover(&self) -> Result<String> {
        let wh = self
            .warehouse
            .as_ref()
            .ok_or_else(|| SkallaError::exec("no warehouse loaded (try \\load 0.05 4)"))?;
        let mut out = String::new();
        match wh.replica_map() {
            None => {
                let _ = writeln!(out, "replication: off (set \\replicate 2 before \\load)");
            }
            Some(map) => {
                let _ = writeln!(
                    out,
                    "table `{}`: {} partitions × {} replicas (ring placement)",
                    map.table,
                    map.num_parts(),
                    map.replication()
                );
                for p in 0..map.num_parts() {
                    let hosts: Vec<String> = map
                        .hosts_of(p)
                        .iter()
                        .map(|s| format!("site {s}"))
                        .collect();
                    let _ = writeln!(out, "  partition {p}: {}", hosts.join(", "));
                }
            }
        }
        let _ = write!(out, "degraded mode: {}", degraded_name(self.degraded));
        if let Some(m) = &self.last_metrics {
            let _ = write!(
                out,
                "\nlast query: {} failover(s), {} partition(s) reassigned, {} lost",
                m.failovers, m.parts_reassigned, m.parts_lost
            );
        }
        Ok(out)
    }

    /// `\sync [workers [shards]]` — merge workers (and optionally the
    /// shard count) of the sharded, pipelined synchronization engine for
    /// every executed plan; each worker owns a fixed shard range.
    fn cmd_sync(&mut self, args: &[&str]) -> Result<String> {
        let usage = || SkallaError::parse("usage: \\sync [workers [shards]]");
        if let Some(a) = args.first() {
            let n: usize = a.parse().map_err(|_| usage())?;
            self.coord_workers = n.max(1);
            self.coord_shards = match args.get(1) {
                Some(s) => Some(s.parse::<usize>().map_err(|_| usage())?.max(1)),
                None => None,
            };
        }
        let shards = match self.coord_shards {
            Some(s) => format!("{s} shards"),
            None => "default shards".to_string(),
        };
        Ok(format!(
            "coordinator sync workers: {} (sharded pipeline, {shards})",
            self.coord_workers
        ))
    }

    /// `\skew [auto | off | on [split_threshold [offload_factor]]]` —
    /// skew-aware execution for every executed plan. `auto` (the default)
    /// defers to the planner, which enables splitting and offload on
    /// replicated warehouses whose learned partition loads are imbalanced;
    /// `on` forces both hot-partition splitting (above the given imbalance
    /// threshold) and mid-round straggler offload (past the given multiple
    /// of the round's median site time); `off` forces the uniform path.
    fn cmd_skew(&mut self, args: &[&str]) -> Result<String> {
        let usage = || SkallaError::parse("usage: \\skew [auto | off | on [threshold [factor]]]");
        match args.first() {
            None => {}
            Some(&"auto") => self.skew = None,
            Some(&"off") => self.skew = Some(SkewPolicy::disabled()),
            Some(&"on") => {
                let mut p = SkewPolicy {
                    split: true,
                    offload: true,
                    ..SkewPolicy::default()
                };
                if let Some(t) = args.get(1) {
                    p.split_threshold = t.parse().map_err(|_| usage())?;
                }
                if let Some(f) = args.get(2) {
                    p.offload_factor = f.parse().map_err(|_| usage())?;
                }
                self.skew = Some(p);
            }
            Some(_) => return Err(usage()),
        }
        Ok(match &self.skew {
            None => "skew execution: auto (planner decides from learned loads)".to_string(),
            Some(p) if p.is_disabled() => "skew execution: off (forced uniform)".to_string(),
            Some(p) => format!(
                "skew execution: on (split above {:.2}× imbalance, offload past {:.1}× median)",
                p.split_threshold, p.offload_factor
            ),
        })
    }

    /// `\scrub` — walk every registered segment file at every site,
    /// verifying checksums off the query path; corrupt files are
    /// quarantined and, when replication permits, repaired from a
    /// surviving replica.
    fn cmd_scrub(&mut self) -> Result<String> {
        let wh = self
            .warehouse
            .as_ref()
            .ok_or_else(|| SkallaError::exec("no warehouse loaded (try \\load 0.05 4)"))?;
        let summary = wh.scrub()?;
        Ok(summary.summary())
    }

    /// `\metrics` — the full per-round cost table of the last query, with
    /// the synchronization breakdown (decode / merge / finalize and, for
    /// sharded rounds, worker/shard counts and utilization).
    fn cmd_metrics(&self) -> Result<String> {
        let m = self
            .last_metrics
            .as_ref()
            .ok_or_else(|| SkallaError::exec("no query executed yet"))?;
        let mut out = String::new();
        let _ = writeln!(out, "{}", m.render_rounds());
        for r in &m.rounds {
            if r.sync_workers == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "{:<14} sync: decode {:.4}s, merge {:.4}s, finalize {:.4}s \
                 ({} workers × {} shards, {:.0}% busy, {:.2}× imbalance)",
                r.label,
                r.sync_decode_s,
                r.sync_merge_s,
                r.sync_finalize_s,
                r.sync_workers,
                r.sync_shards,
                r.sync_utilization * 100.0,
                r.sync_imbalance
            );
        }
        if m.rounds.iter().any(|r| r.sync_workers > 0) {
            let _ = writeln!(
                out,
                "sync worker imbalance: {:.2}× (busiest/mean merge seconds)",
                m.sync_imbalance()
            );
        }
        if m.parts_split + m.offloads > 0 || m.skew_ratio > 0.0 {
            let _ = writeln!(
                out,
                "skew: {:.2}× partition imbalance, top group share {:.0}%, \
                 {} hot split(s), {} offload(s) ({} won by helpers)",
                m.skew_ratio,
                m.skew_top_share * 100.0,
                m.parts_split,
                m.offloads,
                m.offload_wins
            );
        }
        let _ = write!(out, "{}", m.summary());
        Ok(out)
    }

    /// Load a TPCR warehouse (also callable programmatically).
    pub fn load_tpcr(&mut self, scale: f64, sites: usize) -> Result<String> {
        if let Some(dir) = self.data_dir.clone() {
            return self.load_tpcr_out_of_core(scale, sites, &dir);
        }
        self.segments_info = None;
        let table = generate(&TpcrConfig::scale(scale));
        let rows = table.len();
        let parts = partition_by_nation(&table, sites)?;
        self.stats = Some(TableStats::collect(&table));
        // Distribution knowledge: exact per-site value sets for the whole
        // nationkey-derived column family, so the optimizer can discover
        // derived partition attributes (custname, cityname, …).
        let constraints =
            parts.site_constraints_for(&[NATIONKEY_COL, CUSTKEY_COL, CUSTNAME_COL, CITYNAME_COL]);
        self.dist = Some(
            DistributionInfo::with_constraints(sites, Some(NATIONKEY_COL), true, constraints)?
                .with_replication(self.replication),
        );
        self.schemas = HashMap::from([("tpcr".to_string(), table.schema().clone())]);
        if let Some(old) = self.warehouse.take() {
            old.shutdown()?;
        }
        self.warehouse = Some(if self.replication > 1 {
            DistributedWarehouse::launch_replicated(
                "tpcr",
                &parts,
                self.replication,
                CostModel::lan_2002(),
                self.faults.clone(),
            )?
        } else {
            let catalogs: Vec<Catalog> = parts
                .parts
                .iter()
                .map(|p| {
                    let mut c = Catalog::new();
                    c.register("tpcr", p.clone());
                    c
                })
                .collect();
            DistributedWarehouse::launch_with_faults(
                catalogs,
                CostModel::lan_2002(),
                self.faults.clone(),
            )?
        });
        let fault_note = if self.faults.is_noop() {
            String::new()
        } else {
            " [fault injection active]".to_string()
        };
        let replica_note = if self.replication > 1 {
            format!(" [{}-way replicated]", self.replication)
        } else {
            String::new()
        };
        Ok(format!(
            "loaded tpcr: {rows} tuples across {sites} sites (partitioned on nationkey){replica_note}{fault_note}"
        ))
    }

    /// The `--data-dir` load path: the generator streams each site's
    /// partition straight into a segment file, sites open the files and
    /// scan them segment-at-a-time, and catalog statistics come from the
    /// zone-map footers — the full relation is never materialized
    /// anywhere, so scale is bounded by disk, not memory.
    fn load_tpcr_out_of_core(
        &mut self,
        scale: f64,
        sites: usize,
        dir: &std::path::Path,
    ) -> Result<String> {
        if self.replication > 1 {
            return Err(SkallaError::plan(
                "replicated loads are in-memory only (unset --data-dir or \\replicate 1)",
            ));
        }
        // Install the disk-fault scope before generation so write-time
        // faults (bit flips, torn writes) land in the files as durable
        // corruption, exactly as a flaky disk would leave them.
        self.disk_fault_guard = self
            .disk_faults
            .clone()
            .filter(|p| !p.is_noop())
            .map(|p| p.install(dir));
        let cfg = TpcrConfig::scale(scale);
        let paths = generate_to_dir(&cfg, sites, self.segment_rows, dir)?;
        let mut catalogs = Vec::with_capacity(sites);
        let mut stats: Option<TableStats> = None;
        let mut info = Vec::with_capacity(sites);
        for path in &paths {
            let file = Arc::new(SegmentFile::open(path)?);
            let site_stats = file.table_stats();
            match &mut stats {
                None => stats = Some(site_stats),
                Some(acc) => acc.merge(&site_stats),
            }
            info.push(SegSiteInfo {
                path: path.display().to_string(),
                rows: file.total_rows(),
                segments: file.num_segments(),
            });
            let mut c = Catalog::new();
            c.register_segments("tpcr", file);
            catalogs.push(c);
        }
        let rows: usize = info.iter().map(|s| s.rows).sum();
        let nsegs: usize = info.iter().map(|s| s.segments).sum();
        self.stats = stats;
        // Partition knowledge without per-site value sets: deriving exact
        // constraints would mean scanning the data this mode exists to
        // avoid materializing. Nation partitioning is still declared, so
        // Corollary-1 optimizations on nationkey apply.
        self.dist = Some(DistributionInfo {
            num_sites: sites,
            partition_col: Some(NATIONKEY_COL),
            is_partition_attribute: true,
            site_constraints: None,
            replication: 1,
            partition_info: None,
        });
        self.schemas = HashMap::from([("tpcr".to_string(), tpcr_schema())]);
        if let Some(old) = self.warehouse.take() {
            old.shutdown()?;
        }
        self.warehouse = Some(DistributedWarehouse::launch_with_faults(
            catalogs,
            CostModel::lan_2002(),
            self.faults.clone(),
        )?);
        self.segments_info = Some(info);
        let fault_note = if self.faults.is_noop() {
            String::new()
        } else {
            " [fault injection active]".to_string()
        };
        let disk_note = if self.disk_fault_guard.is_some() {
            " [disk-fault injection active]"
        } else {
            ""
        };
        Ok(format!(
            "loaded tpcr out-of-core: {rows} tuples across {sites} sites, {nsegs} segments of \
             ≤{} rows under {} (partitioned on nationkey){fault_note}{disk_note}",
            self.segment_rows,
            dir.display()
        ))
    }

    /// `\segments`: out-of-core storage status, pruning knob, and the last
    /// query's zone-map pruning counters.
    fn cmd_segments(&mut self, args: &[&str]) -> Result<String> {
        match (args.first().copied(), args.get(1).copied()) {
            (Some("prune"), Some(v @ ("on" | "off"))) => {
                self.segment_prune = Some(v == "on");
                return Ok(format!("segment pruning: {v}"));
            }
            (Some("prune"), Some("auto")) => {
                self.segment_prune = None;
                return Ok("segment pruning: auto (plan default: on)".to_string());
            }
            (None, None) => {}
            _ => return Err(SkallaError::parse("usage: \\segments [prune on|off|auto]")),
        }
        let mut out = String::new();
        match &self.segments_info {
            None => {
                let _ = writeln!(
                    out,
                    "storage: in-memory (start with --data-dir <path> for out-of-core segments)"
                );
            }
            Some(sites) => {
                let _ = writeln!(
                    out,
                    "storage: out-of-core, ≤{} rows/segment",
                    self.segment_rows
                );
                for (i, s) in sites.iter().enumerate() {
                    let _ = writeln!(
                        out,
                        "  site {i}: {} rows in {} segment(s) — {}",
                        s.rows, s.segments, s.path
                    );
                }
            }
        }
        let _ = writeln!(
            out,
            "pruning: {}",
            match self.segment_prune {
                None => "auto (on)",
                Some(true) => "on",
                Some(false) => "off",
            }
        );
        if let Some(m) = &self.last_metrics {
            let (sc, sp) = (m.total_segments_scanned(), m.total_segments_pruned());
            if sc + sp > 0 {
                let _ = writeln!(out, "last query: {sc} segment(s) decoded, {sp} pruned");
            }
        }
        Ok(out.trim_end().to_string())
    }

    fn cmd_tables(&self) -> Result<String> {
        if self.schemas.is_empty() {
            return Ok("no warehouse loaded (try \\load 0.05 4)".to_string());
        }
        let mut out = String::new();
        for (name, schema) in &self.schemas {
            let _ = writeln!(out, "{name} {schema}");
            if let Some(stats) = &self.stats {
                let _ = writeln!(out, "  rows: {}", stats.rows);
            }
        }
        Ok(out.trim_end().to_string())
    }

    fn cmd_flags(&mut self, args: &[&str]) -> Result<String> {
        match args.first() {
            Some(&"none") => self.flag_mode = FlagMode::None,
            Some(&"all") => self.flag_mode = FlagMode::All,
            Some(&"auto") => self.flag_mode = FlagMode::Auto,
            Some(other) => {
                return Err(SkallaError::parse(format!(
                    "unknown flag mode `{other}` (none|all|auto)"
                )))
            }
            None => {}
        }
        Ok(format!("flags: {:?}", self.flag_mode).to_lowercase())
    }

    /// Estimate every optimizer-flag combination for the buffered query.
    fn cmd_cost(&self) -> Result<String> {
        use skalla_core::OptFlags;
        use skalla_planner::estimate_plan;

        if self.buffer.trim().is_empty() {
            return Err(SkallaError::parse(
                "type a query first, then \\cost before the terminating blank line",
            ));
        }
        let dist = self
            .dist
            .as_ref()
            .ok_or_else(|| SkallaError::exec("no warehouse loaded (try \\load 0.05 4)"))?;
        let stats = self.stats.as_ref().expect("loaded with warehouse");
        let expr = parse_query(&self.buffer, &self.schemas)?;
        let cost = CostModel::lan_2002();

        let mut out = format!(
            "{:<42} {:>6} {:>10} {:>10} {:>11}
",
            "flags", "syncs", "est_down", "est_up", "est_comm_s"
        );
        let mut best: Option<(f64, String)> = None;
        for bits in 0..16u32 {
            let flags = OptFlags {
                coalesce: bits & 1 != 0,
                site_group_reduction: bits & 2 != 0,
                coord_group_reduction: bits & 4 != 0,
                sync_reduction: bits & 8 != 0,
            };
            let (plan, _) = skalla_planner::plan_query(&expr, dist, flags)?;
            let est = estimate_plan(&plan, stats, dist.num_sites, &cost);
            let mut label = String::new();
            for (on, name) in [
                (flags.coalesce, "coalesce"),
                (flags.site_group_reduction, "site-red"),
                (flags.coord_group_reduction, "coord-red"),
                (flags.sync_reduction, "sync-red"),
            ] {
                if on {
                    if !label.is_empty() {
                        label.push('+');
                    }
                    label.push_str(name);
                }
            }
            if label.is_empty() {
                label = "(none)".to_string();
            }
            out.push_str(&format!(
                "{:<42} {:>6} {:>10} {:>10} {:>11.5}
",
                label, est.syncs, est.est_rows_down, est.est_rows_up, est.est_comm_s
            ));
            if best.as_ref().is_none_or(|(b, _)| est.est_comm_s < *b) {
                best = Some((est.est_comm_s, label));
            }
        }
        if let Some((_, label)) = best {
            out.push_str(&format!("cheapest: {label}"));
        }
        Ok(out)
    }

    fn cmd_sql(&self) -> Result<String> {
        if self.buffer.trim().is_empty() {
            return Err(SkallaError::parse(
                "type a query first, then \\sql before the terminating blank line",
            ));
        }
        let expr = parse_query(&self.buffer, &self.schemas)?;
        let schema = self
            .schemas
            .get(&expr.detail_name)
            .ok_or_else(|| SkallaError::not_found(format!("table `{}`", expr.detail_name)))?;
        to_sql(&expr, schema)
    }

    /// Parse, plan, execute, and render one query.
    pub fn run_query(&mut self, text: &str) -> Result<String> {
        let wh = self
            .warehouse
            .as_ref()
            .ok_or_else(|| SkallaError::exec("no warehouse loaded (try \\load 0.05 4)"))?;
        let dist = self.dist.as_ref().expect("loaded with warehouse");
        let expr = parse_query(text, &self.schemas)?;

        let (mut plan, report): (DistPlan, _) = match self.flag_mode {
            FlagMode::None => plan_query(&expr, dist, OptFlags::none())?,
            FlagMode::All => plan_query(&expr, dist, OptFlags::all())?,
            FlagMode::Auto => {
                let stats = self.stats.as_ref().expect("loaded with warehouse");
                let (plan, report, _) = choose_plan(&expr, dist, stats, &CostModel::lan_2002())?;
                (plan, report)
            }
        };

        plan.retry = self.retry.clone();
        plan.retry.degraded = self.degraded;
        plan.coord_parallelism = self.coord_workers.max(1);
        plan.sync_shards = self.coord_shards;
        if let Some(skew) = self.skew {
            plan.skew = skew;
        }
        if let Some(prune) = self.segment_prune {
            plan = plan.with_segment_prune(prune);
        }

        let mut out = String::new();
        if self.explain {
            let _ = writeln!(out, "{}", report.render());
            let _ = writeln!(out);
        }
        let (result, metrics) = match &self.checkpoint {
            Some(wal) => wh.execute_with_checkpoints(&plan, wal)?,
            None => wh.execute(&plan)?,
        };
        let _ = writeln!(out, "{}", render_preview(&result, self.max_rows));
        if self.explain {
            let _ = writeln!(out, "{}", metrics.render_rounds());
        }
        let _ = write!(out, "-- {} groups | {}", result.len(), metrics.summary());
        self.last_metrics = Some(metrics);
        Ok(out)
    }
}

/// The shell's spelling of a degraded mode.
fn degraded_name(mode: DegradedMode) -> &'static str {
    match mode {
        DegradedMode::Fail => "fail",
        DegradedMode::Partial => "partial",
        DegradedMode::Failover => "failover",
    }
}

/// Render at most `max_rows` rows of a relation (sorted for stability).
pub fn render_preview(rel: &Relation, max_rows: usize) -> String {
    let sorted = rel.sorted();
    if sorted.len() <= max_rows {
        return sorted.to_string();
    }
    let preview = Relation::from_rows_unchecked(
        sorted.schema().clone(),
        sorted.rows().iter().take(max_rows).cloned().collect(),
    );
    format!("{preview}… ({} more rows)", sorted.len() - max_rows)
}

const HELP: &str = "\
commands:
  \\load <scale> <sites>   generate TPCR data and launch a warehouse
  \\tables                 list tables and statistics
  \\flags [none|all|auto]  optimizer flags (auto = cost-based choice)
  \\explain [on|off]       print the Egil plan report before results
  \\sql                    show the SQL reduction of the buffered query
  \\cost                   estimate all 16 flag combinations for the buffered query
  \\faults [spec…]         show or set fault injection (off | seed <n> | drop <r> |
                          dup <r> | delay <r> | crash <site> <after>); applies on \\load
  \\degrade [mode]         coordinator behavior once retries are exhausted
                          (fail | partial | failover)
  \\replicate [r]          partition replication factor (ring) for the next \\load;
                          r > 1 makes `\\degrade failover` give exact answers
  \\failover               replica placement + failover counters of the last query
  \\sync [workers [shards]] merge workers (and shards) of the sharded sync pipeline
  \\skew [mode]            skew-aware execution: auto (planner decides) | off |
                          on [split_threshold [offload_factor]]
  \\segments [prune …]     out-of-core storage status + last query's zone-map pruning
                          counters; `prune on|off|auto` overrides segment pruning
  \\scrub                  verify every segment file's checksums off the query path;
                          quarantine corrupt files and repair from replicas
  \\metrics                per-round cost table + sync/skew breakdown of the last query
  \\help                   this message
  \\q                      quit
queries:
  type a GMDJ query (BASE … ; MD … ;) across any number of lines and
  finish with an empty line to execute it.";

#[cfg(test)]
mod tests {
    use super::*;

    fn loaded() -> Session {
        let mut s = Session::new();
        s.load_tpcr(0.02, 2).unwrap();
        s
    }

    const QUERY: &str = "BASE DISTINCT nationname FROM tpcr;
MD COUNT(*) AS orders, AVG(extendedprice) AS avg_price
   WHERE b.nationname = r.nationname;";

    #[test]
    fn load_and_query_end_to_end() {
        let mut s = loaded();
        let out = s.run_query(QUERY).unwrap();
        assert!(out.contains("nationname"));
        assert!(out.contains("orders"));
        assert!(out.contains("groups |"));
    }

    #[test]
    fn multi_line_accumulation_and_execution() {
        let mut s = loaded();
        for line in QUERY.lines() {
            assert_eq!(s.handle_line(line), Outcome::Continue(String::new()));
            assert!(s.in_query());
        }
        let Outcome::Continue(out) = s.handle_line("") else {
            panic!("query should execute");
        };
        assert!(out.contains("orders"), "{out}");
        assert!(!s.in_query());
    }

    #[test]
    fn commands_work() {
        let mut s = loaded();
        assert!(matches!(s.handle_line("\\help"), Outcome::Continue(h) if h.contains("\\load")));
        assert!(matches!(s.handle_line("\\q"), Outcome::Quit));
        assert!(matches!(s.handle_line("\\tables"), Outcome::Continue(t) if t.contains("tpcr")));
        assert!(
            matches!(s.handle_line("\\flags none"), Outcome::Continue(f) if f.contains("none"))
        );
        assert!(matches!(s.handle_line("\\explain on"), Outcome::Continue(e) if e.contains("on")));
        assert!(
            matches!(s.handle_line("\\bogus"), Outcome::Continue(e) if e.contains("unknown command"))
        );
    }

    #[test]
    fn out_of_core_load_matches_in_memory_and_reports_pruning() {
        let mut mem = loaded();
        let a = mem.run_query(QUERY).unwrap();

        let dir = std::env::temp_dir().join(format!("skalla-cli-ooc-{}", std::process::id()));
        let mut ooc = Session::new();
        ooc.set_data_dir(Some(dir.clone()));
        ooc.set_segment_rows(64);
        let msg = ooc.load_tpcr(0.02, 2).unwrap();
        assert!(msg.contains("out-of-core"), "{msg}");
        let b = ooc.run_query(QUERY).unwrap();

        // Same rendered result table, whatever the storage mode.
        let table = |s: &str| s.split("--").next().unwrap().to_string();
        assert_eq!(table(&a), table(&b));

        // \segments reports the storage layout and the scan counters.
        let Outcome::Continue(seg) = ooc.handle_line("\\segments") else {
            panic!("\\segments should answer");
        };
        assert!(seg.contains("out-of-core"), "{seg}");
        assert!(seg.contains("site 0"), "{seg}");
        assert!(seg.contains("decoded"), "{seg}");

        // The pruning override round-trips and queries still agree.
        assert!(matches!(
            ooc.handle_line("\\segments prune off"),
            Outcome::Continue(s) if s.contains("off")
        ));
        let c = ooc.run_query(QUERY).unwrap();
        assert_eq!(table(&b), table(&c));

        // In-memory sessions say so instead of pretending.
        let Outcome::Continue(seg_mem) = mem.handle_line("\\segments") else {
            panic!("\\segments should answer");
        };
        assert!(seg_mem.contains("in-memory"), "{seg_mem}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn explain_mode_prints_report() {
        let mut s = loaded();
        s.handle_line("\\explain on");
        let out = s.run_query(QUERY).unwrap();
        assert!(out.contains("synchronizations"), "{out}");
        // The per-round table is also shown.
        assert!(out.contains("bytes_down"), "{out}");
    }

    #[test]
    fn flag_modes_agree_on_results() {
        let mut s = loaded();
        let auto = s.run_query(QUERY).unwrap();
        s.handle_line("\\flags none");
        let none = s.run_query(QUERY).unwrap();
        s.handle_line("\\flags all");
        let all = s.run_query(QUERY).unwrap();
        // The rendered table (before the metrics line) must be identical.
        let table = |s: &str| s.split("--").next().unwrap().to_string();
        assert_eq!(table(&auto), table(&none));
        assert_eq!(table(&none), table(&all));
    }

    #[test]
    fn sql_rendering_of_buffered_query() {
        let mut s = loaded();
        for line in QUERY.lines() {
            s.handle_line(line);
        }
        let Outcome::Continue(out) = s.handle_line("\\sql") else {
            panic!()
        };
        assert!(
            out.contains("WITH b0 AS (SELECT DISTINCT nationname FROM tpcr)"),
            "{out}"
        );
        // Buffer still intact: the query can still run.
        let Outcome::Continue(out) = s.handle_line("") else {
            panic!()
        };
        assert!(out.contains("orders"));
    }

    #[test]
    fn sync_reduction_discoverable_on_custname() {
        // The loaded distribution knowledge covers the derived-partitioned
        // column family, so a custname-grouped correlated query collapses
        // to a single synchronization under \flags all.
        let mut s = loaded();
        s.handle_line("\\flags all");
        s.handle_line("\\explain on");
        let out = s
            .run_query(
                "BASE DISTINCT custname FROM tpcr;
                 MD COUNT(*) AS c, AVG(extendedprice) AS a WHERE b.custname = r.custname;
                 MD COUNT(*) AS hi WHERE b.custname = r.custname AND r.extendedprice >= b.a;",
            )
            .unwrap();
        assert!(out.contains("synchronizations:        1"), "{out}");
    }

    #[test]
    fn cost_command_ranks_combinations() {
        let mut s = loaded();
        for line in QUERY.lines() {
            s.handle_line(line);
        }
        let Outcome::Continue(out) = s.handle_line("\\cost") else {
            panic!()
        };
        assert!(out.contains("(none)"), "{out}");
        assert!(out.contains("cheapest:"), "{out}");
        assert!(out.lines().count() >= 17, "{out}");
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let mut s = Session::new();
        // No warehouse yet.
        let Outcome::Continue(out) = s.handle_line("\\tables") else {
            panic!()
        };
        assert!(out.contains("no warehouse"));
        s.handle_line("BASE DISTINCT nope FROM missing;");
        let Outcome::Continue(out) = s.handle_line("") else {
            panic!()
        };
        assert!(out.starts_with("error:"), "{out}");
        // Still usable afterwards.
        s.load_tpcr(0.02, 2).unwrap();
        assert!(s.run_query(QUERY).is_ok());
    }

    #[test]
    fn preview_truncates_long_results() {
        let mut s = loaded();
        s.max_rows = 3;
        let out = s.run_query(QUERY).unwrap();
        assert!(out.contains("more rows"), "{out}");
    }

    #[test]
    fn faults_command_round_trips() {
        let mut s = Session::new();
        let Outcome::Continue(out) = s.handle_line("\\faults") else {
            panic!()
        };
        assert_eq!(out, "faults: none");
        let Outcome::Continue(out) = s.handle_line("\\faults seed 7 drop 0.2 crash 2 5") else {
            panic!()
        };
        assert!(out.contains("seed 7"), "{out}");
        assert!(out.contains("drop 0.2"), "{out}");
        assert!(out.contains("crash(2 after 5)"), "{out}");
        let Outcome::Continue(out) = s.handle_line("\\faults off") else {
            panic!()
        };
        assert_eq!(out, "faults: none");
        let Outcome::Continue(out) = s.handle_line("\\faults drop") else {
            panic!()
        };
        assert!(out.contains("usage"), "{out}");
    }

    #[test]
    fn degrade_command_switches_modes() {
        let mut s = Session::new();
        let Outcome::Continue(out) = s.handle_line("\\degrade") else {
            panic!()
        };
        assert!(out.contains("fail"), "{out}");
        let Outcome::Continue(out) = s.handle_line("\\degrade partial") else {
            panic!()
        };
        assert!(out.contains("partial"), "{out}");
        let Outcome::Continue(out) = s.handle_line("\\degrade bogus") else {
            panic!()
        };
        assert!(out.contains("error"), "{out}");
    }

    #[test]
    fn replicated_failover_matches_fault_free_run() {
        // Crash one of two sites mid-query under 2-way replication: the
        // coordinator re-plans onto the surviving replica and the rendered
        // result is identical to the fault-free run.
        let mut s = Session::new();
        s.handle_line("\\replicate 2");
        s.handle_line("\\degrade failover");
        s.handle_line("\\faults crash 2 4");
        s.set_retry_policy(RetryPolicy {
            deadline: std::time::Duration::from_millis(200),
            ..RetryPolicy::default()
        });
        let msg = s.load_tpcr(0.02, 2).unwrap();
        assert!(msg.contains("2-way replicated"), "{msg}");
        let failed_over = s.run_query(QUERY).unwrap();
        let mut clean = loaded();
        let fault_free = clean.run_query(QUERY).unwrap();
        let table = |s: &str| s.split("--").next().unwrap().to_string();
        assert_eq!(table(&failed_over), table(&fault_free));
        let Outcome::Continue(f) = s.handle_line("\\failover") else {
            panic!()
        };
        assert!(f.contains("2 partitions × 2 replicas"), "{f}");
        assert!(f.contains("failover(s)"), "{f}");
    }

    #[test]
    fn replicate_and_degrade_commands_round_trip() {
        let mut s = Session::new();
        let Outcome::Continue(out) = s.handle_line("\\replicate 3") else {
            panic!()
        };
        assert!(out.contains("replication factor: 3"), "{out}");
        let Outcome::Continue(out) = s.handle_line("\\degrade failover") else {
            panic!()
        };
        assert!(out.contains("failover"), "{out}");
        let Outcome::Continue(out) = s.handle_line("\\failover") else {
            panic!()
        };
        assert!(out.contains("no warehouse"), "{out}");
        let Outcome::Continue(out) = s.handle_line("\\replicate nope") else {
            panic!()
        };
        assert!(out.contains("usage"), "{out}");
    }

    #[test]
    fn checkpointed_query_appends_wal() {
        let dir = std::env::temp_dir().join(format!("skalla-cli-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let wal = CheckpointWal::new(dir.join("cli.wal"));
        wal.clear().unwrap();
        let mut s = loaded();
        s.set_checkpoint_wal(wal.clone());
        let first = s.run_query(QUERY).unwrap();
        assert!(std::fs::metadata(wal.path()).unwrap().len() > 0);
        // Re-running the same query resumes from the completed log: the
        // rendered table is unchanged.
        let resumed = s.run_query(QUERY).unwrap();
        let table = |s: &str| s.split("--").next().unwrap().to_string();
        assert_eq!(table(&first), table(&resumed));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lossy_network_still_answers_queries() {
        // A seeded lossy fabric behind the shell: the retry machinery makes
        // the query come out identical to the fault-free run.
        let mut s = Session::new();
        s.handle_line("\\faults seed 42 drop 0.1");
        s.set_retry_policy(RetryPolicy {
            deadline: std::time::Duration::from_millis(200),
            ..RetryPolicy::default()
        });
        s.load_tpcr(0.02, 2).unwrap();
        let lossy = s.run_query(QUERY).unwrap();
        let mut clean = loaded();
        let fault_free = clean.run_query(QUERY).unwrap();
        let table = |s: &str| s.split("--").next().unwrap().to_string();
        assert_eq!(table(&lossy), table(&fault_free));
    }

    #[test]
    fn sync_command_and_metrics_breakdown() {
        let mut s = loaded();
        // Before any query, \metrics has nothing to show.
        let Outcome::Continue(out) = s.handle_line("\\metrics") else {
            panic!()
        };
        assert!(out.contains("no query executed"), "{out}");

        let Outcome::Continue(out) = s.handle_line("\\sync") else {
            panic!()
        };
        assert_eq!(
            out,
            "coordinator sync workers: 1 (sharded pipeline, default shards)"
        );
        let Outcome::Continue(out) = s.handle_line("\\sync 4") else {
            panic!()
        };
        assert_eq!(
            out,
            "coordinator sync workers: 4 (sharded pipeline, default shards)"
        );
        let Outcome::Continue(out) = s.handle_line("\\sync 4 32") else {
            panic!()
        };
        assert_eq!(
            out,
            "coordinator sync workers: 4 (sharded pipeline, 32 shards)"
        );
        // Dropping the shard override restores the default layout.
        let Outcome::Continue(out) = s.handle_line("\\sync 4") else {
            panic!()
        };
        assert_eq!(
            out,
            "coordinator sync workers: 4 (sharded pipeline, default shards)"
        );
        let Outcome::Continue(out) = s.handle_line("\\sync nope") else {
            panic!()
        };
        assert!(out.contains("usage"), "{out}");
        let Outcome::Continue(out) = s.handle_line("\\sync 4 nope") else {
            panic!()
        };
        assert!(out.contains("usage"), "{out}");

        // Every worker count runs the sharded pipeline: four workers and
        // one agree on results, and \metrics reports each pool's shape.
        let sharded = s.run_query(QUERY).unwrap();
        let Outcome::Continue(m) = s.handle_line("\\metrics") else {
            panic!()
        };
        assert!(m.contains("workers × "), "{m}");
        assert!(m.contains("sync: decode"), "{m}");
        s.handle_line("\\sync 1");
        let one_worker = s.run_query(QUERY).unwrap();
        let Outcome::Continue(m) = s.handle_line("\\metrics") else {
            panic!()
        };
        assert!(m.contains("(1 workers × 1 shards"), "{m}");
        let table = |s: &str| s.split("--").next().unwrap().to_string();
        assert_eq!(table(&sharded), table(&one_worker));
    }

    #[test]
    fn skew_command_round_trips_and_overrides_plans() {
        let mut s = Session::new();
        let Outcome::Continue(out) = s.handle_line("\\skew") else {
            panic!()
        };
        assert!(out.contains("auto"), "{out}");
        let Outcome::Continue(out) = s.handle_line("\\skew on 1.25 2.5") else {
            panic!()
        };
        assert!(out.contains("split above 1.25×"), "{out}");
        assert!(out.contains("offload past 2.5× median"), "{out}");
        let Outcome::Continue(out) = s.handle_line("\\skew off") else {
            panic!()
        };
        assert!(out.contains("forced uniform"), "{out}");
        let Outcome::Continue(out) = s.handle_line("\\skew auto") else {
            panic!()
        };
        assert!(out.contains("auto"), "{out}");
        let Outcome::Continue(out) = s.handle_line("\\skew sideways") else {
            panic!()
        };
        assert!(out.contains("usage"), "{out}");
        let Outcome::Continue(out) = s.handle_line("\\skew on nope") else {
            panic!()
        };
        assert!(out.contains("usage"), "{out}");

        // A forced-on policy rides along on a replicated load and leaves a
        // visible trail in \metrics (the sketches report partition loads
        // even when nothing is hot enough to split).
        s.handle_line("\\replicate 2");
        s.handle_line("\\degrade failover");
        s.handle_line("\\skew on 1.05");
        s.load_tpcr(0.02, 2).unwrap();
        let forced = s.run_query(QUERY).unwrap();
        // Second run: the first run's sketches seed the load cache, so the
        // split decision has data to act on. Results stay identical.
        let again = s.run_query(QUERY).unwrap();
        let table = |s: &str| s.split("--").next().unwrap().to_string();
        assert_eq!(table(&forced), table(&again));
        let Outcome::Continue(m) = s.handle_line("\\metrics") else {
            panic!()
        };
        assert!(m.contains("skew:"), "{m}");
        assert!(m.contains("partition imbalance"), "{m}");

        // And forcing it off matches the uniform path bit-for-bit.
        s.handle_line("\\skew off");
        let uniform = s.run_query(QUERY).unwrap();
        assert_eq!(table(&forced), table(&uniform));
    }

    #[test]
    fn reload_replaces_warehouse() {
        let mut s = loaded();
        let msg = s.load_tpcr(0.01, 3).unwrap();
        assert!(msg.contains("3 sites"));
        assert!(s.run_query(QUERY).is_ok());
    }
}
