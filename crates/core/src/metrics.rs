//! Execution metrics.
//!
//! Fig. 5 (right) of the paper breaks query evaluation time into *site
//! computation*, *coordinator computation*, and *communication overhead*.
//! [`ExecMetrics`] reproduces that breakdown: site and coordinator compute
//! are measured (wall-clock inside the workers), communication is modeled
//! from exact byte counts via [`skalla_net::CostModel`].
//!
//! The modeled response time of a round follows the paper's cost analysis
//! (§5.2): the coordinator's link serializes transfers, so a round costs
//! `Σᵢ send(baseᵢ) + maxᵢ computeᵢ + Σᵢ recv(Hᵢ)` plus the coordinator's
//! synchronization time.

use std::collections::BTreeMap;
use std::fmt;

use skalla_net::{CostModel, NodeId};

/// How many of the plan's sites contributed to the result.
///
/// `n/n` for a fault-free execution; under
/// [`DegradedMode::Partial`](crate::plan::DegradedMode) an execution that
/// lost sites reports the surviving count, e.g. `3/4`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Coverage {
    /// Sites whose replies were synchronized into the result.
    pub responded: usize,
    /// Sites the plan targeted.
    pub total: usize,
}

impl Coverage {
    /// `true` when every targeted site contributed.
    pub fn is_complete(&self) -> bool {
        self.responded == self.total
    }
}

impl fmt::Display for Coverage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.responded, self.total)
    }
}

/// Cost breakdown of one synchronization round (or local-run segment).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundMetrics {
    /// Human-readable label ("base", "round 1", "local-run 1-2", …).
    pub label: String,
    /// Bytes shipped coordinator → sites this round.
    pub bytes_down: u64,
    /// Bytes shipped sites → coordinator this round.
    pub bytes_up: u64,
    /// Relation tuples shipped coordinator → sites this round (the unit of
    /// the paper's Theorem 2 transfer bound).
    pub rows_down: u64,
    /// Relation tuples shipped sites → coordinator this round.
    pub rows_up: u64,
    /// Messages exchanged.
    pub messages: u64,
    /// Maximum per-site compute seconds (sites run in parallel) — the
    /// round's critical path. Sites report thread-CPU seconds, so this
    /// models sites that each own their cores even when the host
    /// time-slices the site threads.
    pub site_compute_max_s: f64,
    /// Total site compute seconds (work performed).
    pub site_compute_total_s: f64,
    /// Coordinator compute seconds (synchronization, filtering).
    pub coord_compute_s: f64,
    /// Modeled communication seconds (serialized at the coordinator link).
    pub comm_modeled_s: f64,
    /// Number of participating sites.
    pub sites: usize,
    /// Groups (rows) in the synchronized structure after this round.
    pub groups: usize,
    /// GMDJ blocks the sites evaluated through compiled (vectorized)
    /// kernels this round, summed across sites.
    pub blocks_compiled: u64,
    /// GMDJ blocks the sites evaluated with the row-at-a-time interpreter
    /// this round, summed across sites.
    pub blocks_interpreted: u64,
    /// Seconds decoding reply fragments off the wire this round (formerly
    /// lumped into the synchronization time).
    pub sync_decode_s: f64,
    /// Seconds merging fragments into the synchronized structure: summed
    /// *busy* worker time of the sharded pipeline (work performed,
    /// overlapped with receive).
    pub sync_merge_s: f64,
    /// Seconds finalizing the synchronized structure into the round's
    /// output relation.
    pub sync_finalize_s: f64,
    /// Merge workers of the [`ShardedSync`](crate::sync::ShardedSync)
    /// pipeline this round (≥ 1; 0 for a round that ran no
    /// synchronization engine, such as the distributed base round).
    pub sync_workers: usize,
    /// Hash shards of the group space.
    pub sync_shards: usize,
    /// Worker-pool utilization of the sharded pipeline this round
    /// (busy / (workers × wall)).
    pub sync_utilization: f64,
    /// Merge-load imbalance across sync workers this round (busiest
    /// worker's busy seconds over the mean; 1.0 = perfectly balanced).
    pub sync_imbalance: f64,
    /// Out-of-core segments the sites decoded this round, summed across
    /// sites (0 when every detail partition was in memory).
    pub segments_scanned: u64,
    /// Out-of-core segments the sites skipped via zone-map pruning this
    /// round, summed across sites.
    pub segments_pruned: u64,
    /// Column chunks whose CRC32C the sites verified while decoding this
    /// round, summed across sites.
    pub blocks_verified: u64,
}

impl RoundMetrics {
    /// Modeled response time of this round.
    pub fn modeled_time_s(&self) -> f64 {
        self.comm_modeled_s + self.site_compute_max_s + self.coord_compute_s
    }
}

/// Cost breakdown of a whole query execution.
#[derive(Debug, Clone, Default)]
pub struct ExecMetrics {
    /// Per-round metrics, in execution order.
    pub rounds: Vec<RoundMetrics>,
    /// Measured wall-clock seconds for the whole execution.
    pub wall_s: f64,
    /// The cost model used for the modeled times.
    pub cost_model: Option<CostModel>,
    /// Site coverage of the result: `None` until execution finishes, then
    /// `k/n` — complete (`n/n`) unless the execution degraded to a partial
    /// result after losing sites. Under replica failover the unit is
    /// *partitions*, so a run that lost a site but recovered every
    /// partition from replicas still reports complete coverage.
    pub coverage: Option<Coverage>,
    /// Requests sent per site across the execution: the initial send plus
    /// every deadline/error re-send, keyed by network node id. A site at 1
    /// answered first time; higher counts localize flaky links or stragglers
    /// that aggregate coverage hides.
    pub site_attempts: BTreeMap<NodeId, u32>,
    /// Failover events: sites written off mid-query whose partitions were
    /// re-planned onto surviving replicas.
    pub failovers: u64,
    /// Partitions reassigned to a surviving replica host by failover.
    pub parts_reassigned: u64,
    /// Partitions permanently lost (site dead and no surviving replica);
    /// non-zero only when failover degraded to partial coverage.
    pub parts_lost: u64,
    /// Seconds spent re-planning waves after site loss (epoch bump,
    /// reassignment, re-sends).
    pub failover_s: f64,
    /// Hot partitions split into row-range fragments across replicas by
    /// the skew planner, summed over rounds (a partition split in every
    /// round counts once per round).
    pub parts_split: u64,
    /// Straggler-offload offers issued: a laggard's residual work was
    /// duplicated to an idle replica under a fresh task id.
    pub offloads: u64,
    /// Offload offers the helper won (its duplicate reply completed
    /// before the laggard's original did).
    pub offload_wins: u64,
    /// Largest per-partition load imbalance (max/mean detail rows) the
    /// sites' sketches reported, 0 when no sketches were shipped.
    pub skew_ratio: f64,
    /// Largest single-group share of any partition's rows reported by the
    /// heavy-hitter sketches, 0 when none were shipped.
    pub skew_top_share: f64,
    /// Round checkpoints appended to the write-ahead log.
    pub checkpoints: u32,
    /// Seconds spent serializing and writing round checkpoints.
    pub checkpoint_s: f64,
    /// Synchronizations restored from a checkpoint instead of re-executed
    /// (a resumed coordinator re-executes at most one round).
    pub resumed_syncs: u32,
    /// Result-cache hits: the query was answered from the coordinator's
    /// plan-fingerprint result cache without touching the sites. Set by
    /// the serving layer's scheduler; always 0 for direct execution.
    pub cache_hits: u64,
    /// Result-cache misses: the query went through the cache but had to
    /// execute. Set by the serving layer's scheduler; always 0 for direct
    /// execution.
    pub cache_misses: u64,
    /// Segment checksum failures the sites reported during this execution.
    /// Each one routed a partition to the degradation ladder (failover
    /// re-plan, partial coverage, or a typed error) instead of retrying.
    pub checksum_failures: u64,
}

impl ExecMetrics {
    /// Total bytes transferred in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.rounds.iter().map(|r| r.bytes_down + r.bytes_up).sum()
    }

    /// Total bytes coordinator → sites.
    pub fn total_bytes_down(&self) -> u64 {
        self.rounds.iter().map(|r| r.bytes_down).sum()
    }

    /// Total bytes sites → coordinator.
    pub fn total_bytes_up(&self) -> u64 {
        self.rounds.iter().map(|r| r.bytes_up).sum()
    }

    /// Total messages.
    pub fn total_messages(&self) -> u64 {
        self.rounds.iter().map(|r| r.messages).sum()
    }

    /// Total tuples shipped coordinator → sites.
    pub fn total_rows_down(&self) -> u64 {
        self.rounds.iter().map(|r| r.rows_down).sum()
    }

    /// Total tuples shipped sites → coordinator.
    pub fn total_rows_up(&self) -> u64 {
        self.rounds.iter().map(|r| r.rows_up).sum()
    }

    /// Modeled end-to-end response time (sum of round times — rounds are
    /// sequential by construction of Alg. GMDJDistribEval).
    pub fn modeled_time_s(&self) -> f64 {
        self.rounds.iter().map(RoundMetrics::modeled_time_s).sum()
    }

    /// Summed site compute (max per round — the parallel critical path).
    pub fn site_compute_s(&self) -> f64 {
        self.rounds.iter().map(|r| r.site_compute_max_s).sum()
    }

    /// Summed coordinator compute.
    pub fn coord_compute_s(&self) -> f64 {
        self.rounds.iter().map(|r| r.coord_compute_s).sum()
    }

    /// Summed modeled communication time.
    pub fn comm_s(&self) -> f64 {
        self.rounds.iter().map(|r| r.comm_modeled_s).sum()
    }

    /// Number of synchronization rounds executed.
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Total GMDJ blocks evaluated through compiled kernels, across all
    /// rounds and sites.
    pub fn total_blocks_compiled(&self) -> u64 {
        self.rounds.iter().map(|r| r.blocks_compiled).sum()
    }

    /// Total GMDJ blocks that fell back to the row-at-a-time interpreter.
    pub fn total_blocks_interpreted(&self) -> u64 {
        self.rounds.iter().map(|r| r.blocks_interpreted).sum()
    }

    /// Total out-of-core segments decoded, across all rounds and sites.
    pub fn total_segments_scanned(&self) -> u64 {
        self.rounds.iter().map(|r| r.segments_scanned).sum()
    }

    /// Total out-of-core segments skipped via zone-map pruning.
    pub fn total_segments_pruned(&self) -> u64 {
        self.rounds.iter().map(|r| r.segments_pruned).sum()
    }

    /// Total column chunks whose CRC32C the sites verified during decode.
    pub fn total_blocks_verified(&self) -> u64 {
        self.rounds.iter().map(|r| r.blocks_verified).sum()
    }

    /// Summed fragment decode seconds across rounds.
    pub fn sync_decode_s(&self) -> f64 {
        self.rounds.iter().map(|r| r.sync_decode_s).sum()
    }

    /// Summed merge seconds across rounds (busy worker time for sharded
    /// rounds).
    pub fn sync_merge_s(&self) -> f64 {
        self.rounds.iter().map(|r| r.sync_merge_s).sum()
    }

    /// Summed finalize seconds across rounds.
    pub fn sync_finalize_s(&self) -> f64 {
        self.rounds.iter().map(|r| r.sync_finalize_s).sum()
    }

    /// Largest worker pool any round synchronized with.
    pub fn sync_workers(&self) -> usize {
        self.rounds
            .iter()
            .map(|r| r.sync_workers)
            .max()
            .unwrap_or(0)
    }

    /// Largest shard count any round synchronized with.
    pub fn sync_shards(&self) -> usize {
        self.rounds.iter().map(|r| r.sync_shards).max().unwrap_or(0)
    }

    /// Mean worker utilization over the rounds that synchronized (0 when
    /// none did).
    pub fn sync_utilization(&self) -> f64 {
        self.mean_over_synced(|r| r.sync_utilization)
    }

    /// Mean merge-load imbalance over the rounds that synchronized (0 when
    /// none did).
    pub fn sync_imbalance(&self) -> f64 {
        self.mean_over_synced(|r| r.sync_imbalance)
    }

    fn mean_over_synced(&self, f: impl Fn(&RoundMetrics) -> f64) -> f64 {
        let synced: Vec<f64> = self
            .rounds
            .iter()
            .filter(|r| r.sync_workers > 0)
            .map(f)
            .collect();
        if synced.is_empty() {
            0.0
        } else {
            synced.iter().sum::<f64>() / synced.len() as f64
        }
    }

    /// A per-round table (label, traffic, compute components) — the
    /// detailed view behind [`ExecMetrics::summary`].
    pub fn render_rounds(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<14} {:>10} {:>10} {:>8} {:>8} {:>9} {:>9} {:>9} {:>7}",
            "round",
            "bytes_down",
            "bytes_up",
            "rows_dn",
            "rows_up",
            "site_max",
            "coord_s",
            "comm_s",
            "groups"
        );
        for r in &self.rounds {
            let _ = writeln!(
                out,
                "{:<14} {:>10} {:>10} {:>8} {:>8} {:>9.4} {:>9.4} {:>9.4} {:>7}",
                r.label,
                r.bytes_down,
                r.bytes_up,
                r.rows_down,
                r.rows_up,
                r.site_compute_max_s,
                r.coord_compute_s,
                r.comm_modeled_s,
                r.groups
            );
        }
        out.trim_end().to_string()
    }

    /// Per-site retry/attempt histogram: how many sites needed how many
    /// request sends, e.g. `3×1 1×4` — three sites answered on the first
    /// send, one needed four. `None` when no attempts were recorded.
    pub fn attempts_histogram(&self) -> Option<String> {
        if self.site_attempts.is_empty() {
            return None;
        }
        let mut buckets: BTreeMap<u32, usize> = BTreeMap::new();
        for &n in self.site_attempts.values() {
            *buckets.entry(n).or_insert(0) += 1;
        }
        let hist: Vec<String> = buckets
            .iter()
            .map(|(attempts, sites)| format!("{sites}\u{d7}{attempts}"))
            .collect();
        let retried: Vec<String> = self
            .site_attempts
            .iter()
            .filter(|(_, &n)| n > 1)
            .map(|(site, n)| format!("site {site}: {n}"))
            .collect();
        let mut s = format!("attempts (sites\u{d7}sends): {}", hist.join(" "));
        if !retried.is_empty() {
            s.push_str(&format!(" [{}]", retried.join(", ")));
        }
        Some(s)
    }

    /// A compact single-line summary.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} rounds | {} B down, {} B up | modeled {:.4}s (site {:.4}s, coord {:.4}s, comm {:.4}s) | wall {:.4}s",
            self.num_rounds(),
            self.total_bytes_down(),
            self.total_bytes_up(),
            self.modeled_time_s(),
            self.site_compute_s(),
            self.coord_compute_s(),
            self.comm_s(),
            self.wall_s,
        );
        let (bc, bi) = (
            self.total_blocks_compiled(),
            self.total_blocks_interpreted(),
        );
        if bc + bi > 0 {
            s.push_str(&format!(" | blocks: {bc} compiled, {bi} interpreted"));
        }
        let (sc, sp) = (self.total_segments_scanned(), self.total_segments_pruned());
        if sc + sp > 0 {
            s.push_str(&format!(" | segments: {sc} scanned, {sp} pruned"));
        }
        let bv = self.total_blocks_verified();
        if bv + self.checksum_failures > 0 {
            s.push_str(&format!(
                " | integrity: {bv} blocks verified, {} checksum failure(s)",
                self.checksum_failures,
            ));
        }
        if self.rounds.iter().any(|r| r.sync_workers > 0) {
            s.push_str(&format!(
                " | sync: decode {:.4}s, merge {:.4}s, finalize {:.4}s \
                 ({} workers × {} shards, {:.0}% busy, {:.2}× imbalance)",
                self.sync_decode_s(),
                self.sync_merge_s(),
                self.sync_finalize_s(),
                self.sync_workers(),
                self.sync_shards(),
                self.sync_utilization() * 100.0,
                self.sync_imbalance(),
            ));
        }
        if self.site_attempts.values().any(|&n| n > 1) {
            if let Some(h) = self.attempts_histogram() {
                s.push_str(&format!(" | {h}"));
            }
        }
        if self.failovers > 0 {
            s.push_str(&format!(
                " | failover: {} site(s), {} part(s) reassigned, {} lost, {:.4}s",
                self.failovers, self.parts_reassigned, self.parts_lost, self.failover_s,
            ));
        }
        if self.parts_split + self.offloads > 0 || self.skew_ratio > 0.0 {
            s.push_str(&format!(
                " | skew: {:.2}× imbalance, top share {:.0}%, {} split(s), {} offload(s) ({} won)",
                self.skew_ratio,
                self.skew_top_share * 100.0,
                self.parts_split,
                self.offloads,
                self.offload_wins,
            ));
        }
        if self.checkpoints > 0 {
            s.push_str(&format!(
                " | checkpoint: {} sync(s), {:.4}s",
                self.checkpoints, self.checkpoint_s,
            ));
        }
        if self.resumed_syncs > 0 {
            s.push_str(&format!(
                " | resumed: {} sync(s) from checkpoint",
                self.resumed_syncs,
            ));
        }
        if self.cache_hits + self.cache_misses > 0 {
            s.push_str(&format!(
                " | cache: {} hit(s), {} miss(es)",
                self.cache_hits, self.cache_misses,
            ));
        }
        if let Some(c) = self.coverage {
            if !c.is_complete() {
                s.push_str(&format!(" | coverage: {c}"));
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(down: u64, up: u64, site_max: f64, coord: f64, comm: f64) -> RoundMetrics {
        RoundMetrics {
            label: "r".into(),
            bytes_down: down,
            bytes_up: up,
            rows_down: down / 10,
            rows_up: up / 10,
            messages: 2,
            site_compute_max_s: site_max,
            site_compute_total_s: site_max * 2.0,
            coord_compute_s: coord,
            comm_modeled_s: comm,
            sites: 2,
            groups: 10,
            blocks_compiled: 2,
            blocks_interpreted: 1,
            sync_decode_s: 0.001,
            sync_merge_s: coord / 2.0,
            sync_finalize_s: 0.002,
            sync_workers: 4,
            sync_shards: 16,
            sync_utilization: 0.5,
            sync_imbalance: 1.25,
            segments_scanned: 3,
            segments_pruned: 5,
            blocks_verified: 9,
        }
    }

    #[test]
    fn totals_sum_rounds() {
        let m = ExecMetrics {
            rounds: vec![round(100, 50, 0.1, 0.02, 0.3), round(10, 5, 0.2, 0.01, 0.1)],
            wall_s: 1.0,
            cost_model: Some(CostModel::free()),
            coverage: Some(Coverage {
                responded: 2,
                total: 2,
            }),
            ..ExecMetrics::default()
        };
        assert_eq!(m.total_bytes_down(), 110);
        assert_eq!(m.total_bytes_up(), 55);
        assert_eq!(m.total_bytes(), 165);
        assert_eq!(m.total_messages(), 4);
        assert_eq!(m.total_rows_down(), 11);
        assert_eq!(m.total_rows_up(), 5);
        assert_eq!(m.num_rounds(), 2);
        assert!((m.modeled_time_s() - (0.42 + 0.31)).abs() < 1e-12);
        assert!((m.site_compute_s() - 0.3).abs() < 1e-12);
        assert!((m.coord_compute_s() - 0.03).abs() < 1e-12);
        assert!((m.comm_s() - 0.4).abs() < 1e-12);
        assert_eq!(m.total_blocks_compiled(), 4);
        assert_eq!(m.total_blocks_interpreted(), 2);
        assert_eq!(m.total_segments_scanned(), 6);
        assert_eq!(m.total_segments_pruned(), 10);
        assert!(m.summary().contains("2 rounds"));
        assert!(m.summary().contains("blocks: 4 compiled, 2 interpreted"));
        assert!(m.summary().contains("segments: 6 scanned, 10 pruned"));
        assert_eq!(m.total_blocks_verified(), 18);
        assert!(m
            .summary()
            .contains("integrity: 18 blocks verified, 0 checksum failure(s)"));
        assert!(m.summary().contains("sync: decode 0.0020s"));
        assert!(m
            .summary()
            .contains("(4 workers × 16 shards, 50% busy, 1.25× imbalance)"));
        assert_eq!(m.sync_workers(), 4);
        assert_eq!(m.sync_shards(), 16);
        assert!((m.sync_decode_s() - 0.002).abs() < 1e-12);
        assert!((m.sync_utilization() - 0.5).abs() < 1e-12);
        let table = m.render_rounds();
        assert!(table.contains("round"));
        assert_eq!(table.lines().count(), 3); // header + 2 rounds
    }

    #[test]
    fn round_modeled_time_components() {
        let r = round(1, 1, 0.5, 0.25, 0.125);
        assert!((r.modeled_time_s() - 0.875).abs() < 1e-12);
    }

    #[test]
    fn coverage_display_and_summary() {
        let full = Coverage {
            responded: 4,
            total: 4,
        };
        let partial = Coverage {
            responded: 3,
            total: 4,
        };
        assert!(full.is_complete());
        assert!(!partial.is_complete());
        assert_eq!(partial.to_string(), "3/4");

        let mut m = ExecMetrics {
            coverage: Some(full),
            ..ExecMetrics::default()
        };
        assert!(!m.summary().contains("coverage"));
        m.coverage = Some(partial);
        assert!(m.summary().contains("coverage: 3/4"));
    }

    #[test]
    fn attempts_histogram_buckets_sites_by_sends() {
        let mut m = ExecMetrics::default();
        assert_eq!(m.attempts_histogram(), None);
        assert!(!m.summary().contains("attempts"));

        m.site_attempts = BTreeMap::from([(1, 1), (2, 1), (3, 1)]);
        // All first-try: histogram available, but the summary stays quiet.
        assert_eq!(
            m.attempts_histogram().unwrap(),
            "attempts (sites\u{d7}sends): 3\u{d7}1"
        );
        assert!(!m.summary().contains("attempts"));

        m.site_attempts.insert(4, 3);
        let h = m.attempts_histogram().unwrap();
        assert!(h.contains("3\u{d7}1"), "{h}");
        assert!(h.contains("1\u{d7}3"), "{h}");
        assert!(h.contains("site 4: 3"), "{h}");
        assert!(m.summary().contains("attempts"), "{}", m.summary());
    }

    #[test]
    fn failover_and_checkpoint_summary_lines() {
        let mut m = ExecMetrics::default();
        let quiet = m.summary();
        assert!(!quiet.contains("failover") && !quiet.contains("checkpoint"));

        m.failovers = 1;
        m.parts_reassigned = 2;
        m.failover_s = 0.5;
        m.checkpoints = 3;
        m.checkpoint_s = 0.25;
        m.resumed_syncs = 2;
        let s = m.summary();
        assert!(
            s.contains("failover: 1 site(s), 2 part(s) reassigned, 0 lost"),
            "{s}"
        );
        assert!(s.contains("checkpoint: 3 sync(s)"), "{s}");
        assert!(s.contains("resumed: 2 sync(s) from checkpoint"), "{s}");
    }

    #[test]
    fn skew_summary_line() {
        let mut m = ExecMetrics::default();
        assert!(!m.summary().contains("skew"), "{}", m.summary());

        m.skew_ratio = 2.5;
        m.skew_top_share = 0.4;
        m.parts_split = 1;
        m.offloads = 2;
        m.offload_wins = 1;
        let s = m.summary();
        assert!(
            s.contains(
                "skew: 2.50\u{d7} imbalance, top share 40%, 1 split(s), 2 offload(s) (1 won)"
            ),
            "{s}"
        );
    }
}
