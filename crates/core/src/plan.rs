//! Distributed evaluation plans.
//!
//! A [`DistPlan`] is what the Skalla query generator hands to the mediator
//! (paper §3.1): the (possibly coalesced) GMDJ expression plus, per round,
//! which reductions apply. Plans are built either directly (see
//! [`DistPlan::unoptimized`]) or by the Egil optimizer in `skalla-planner`.

use std::time::Duration;

use skalla_expr::Expr;
use skalla_gmdj::GmdjExpr;
use skalla_types::{Relation, Result, SkallaError};

/// Which optimizations a plan was built with (informational; execution is
/// driven by the per-round specs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptFlags {
    /// GMDJ coalescing (paper §4.3).
    pub coalesce: bool,
    /// Distribution-independent (site-side) group reduction (Prop. 1).
    pub site_group_reduction: bool,
    /// Distribution-aware (coordinator-side) group reduction (Thm. 4).
    pub coord_group_reduction: bool,
    /// Synchronization reduction (Prop. 2 / Thm. 5 / Cor. 1).
    pub sync_reduction: bool,
}

impl OptFlags {
    /// Everything off (the baseline Alg. GMDJDistribEval).
    pub fn none() -> OptFlags {
        OptFlags::default()
    }

    /// Everything on.
    pub fn all() -> OptFlags {
        OptFlags {
            coalesce: true,
            site_group_reduction: true,
            coord_group_reduction: true,
            sync_reduction: true,
        }
    }
}

/// What the coordinator does with a site that stays silent (or keeps
/// failing) after the whole retry budget of a round is spent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DegradedMode {
    /// Fail the query with an error naming the unresponsive site.
    #[default]
    Fail,
    /// Synchronize from the sites that did respond; the result is marked
    /// with its coverage (`k/n` sites) in the execution metrics.
    Partial,
    /// Re-plan the wave instead of degrading: bump the epoch, reassign the
    /// dead site's partitions to surviving replicas, and re-request just
    /// those partitions, yielding a result bit-for-bit identical to the
    /// fault-free run. Requires the warehouse to have been launched with
    /// replication (see `DistributedWarehouse::launch_replicated`); when a
    /// partition has no surviving replica, the mode falls back to
    /// [`Partial`](DegradedMode::Partial) semantics for that partition —
    /// the degradation ladder is Failover → Partial → Fail.
    Failover,
}

/// Per-round deadline and retry budget for the coordinator's collect loop.
///
/// Round requests are idempotent (sites deduplicate by `(epoch, round)` and
/// replay their cached reply; the coordinator deduplicates reply chunks by
/// sequence number), so re-sending after a deadline is always safe.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// How long the coordinator waits for a round's replies before
    /// re-sending the round request to the silent sites.
    pub deadline: Duration,
    /// How many times a round request is re-sent before the site is
    /// declared unresponsive.
    pub max_retries: u32,
    /// Deadline multiplier applied on each successive retry (exponential
    /// backoff); clamped to at least `1.0`.
    pub backoff: f64,
    /// What to do once the retry budget is exhausted.
    pub degraded: DegradedMode,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            deadline: Duration::from_secs(10),
            max_retries: 3,
            backoff: 2.0,
            degraded: DegradedMode::Fail,
        }
    }
}

impl RetryPolicy {
    /// The deadline for retry attempt `attempt` (attempt 0 is the first
    /// wait), with backoff applied.
    pub fn deadline_for_attempt(&self, attempt: u32) -> Duration {
        let factor = self.backoff.max(1.0).powi(attempt.min(16) as i32);
        self.deadline.mul_f64(factor)
    }
}

/// Skew-aware execution knobs: hot-partition splitting and mid-round
/// straggler offload. Both apply only under replicated placement with
/// [`DegradedMode::Failover`] (they reuse the partition-explicit request
/// and chunk-staging machinery), and both preserve bit-for-bit exactness —
/// splitting addresses disjoint row ranges whose sub-aggregates merge
/// additively, and offload races idempotent recomputation on a replica
/// against the straggler with a first-complete-wins resolution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkewPolicy {
    /// Split hot partitions into row-range fragments across surviving ring
    /// replicas, using the per-partition cardinalities learned from the
    /// sites' round-reply sketches.
    pub split: bool,
    /// A partition is *hot* when its learned detail cardinality exceeds
    /// `split_threshold ×` the mean over assigned partitions.
    pub split_threshold: f64,
    /// Cap on fragments per split partition (`0` = automatic: slices of
    /// roughly a quarter of the mean load, at most 16).
    pub max_split: usize,
    /// Mid-round, offload a straggler's entire remaining work to an idle
    /// replica and let the first complete reply win.
    pub offload: bool,
    /// A site is a straggler once the round has run longer than
    /// `offload_factor ×` the median completion time of the sites that
    /// already finished (and at least half have).
    pub offload_factor: f64,
}

impl Default for SkewPolicy {
    fn default() -> Self {
        SkewPolicy {
            split: false,
            split_threshold: 1.5,
            max_split: 0,
            offload: false,
            offload_factor: 3.0,
        }
    }
}

impl SkewPolicy {
    /// Everything off (the static uniform layout).
    pub fn disabled() -> SkewPolicy {
        SkewPolicy::default()
    }

    /// `true` when neither mechanism is enabled.
    pub fn is_disabled(&self) -> bool {
        !self.split && !self.offload
    }
}

/// How the initial base-values relation `B₀` is obtained and synchronized.
#[derive(Debug, Clone, PartialEq)]
pub enum BaseRound {
    /// Sites compute their local `B₀ᵢ` fragments, ship them, and the
    /// coordinator deduplicates (the default round 0 of
    /// Alg. GMDJDistribEval).
    Distributed,
    /// Proposition 2: the base is computed *locally at each site* and never
    /// synchronized; the first evaluation segment starts from the local
    /// fragments.
    LocalOnly,
    /// The client supplied an explicit base-values relation held at the
    /// coordinator; no base round is needed.
    Coordinator(Relation),
}

/// Per-GMDJ-operator execution options.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundSpec {
    /// Sites ship only groups with `|RNG| > 0` (Proposition 1).
    pub site_group_reduction: bool,
    /// Per-site base filters `¬ψᵢ` applied by the coordinator before
    /// shipping (Theorem 4); `None` disables. A `FALSE` filter excludes the
    /// site from the round entirely.
    pub coord_filters: Option<Vec<Expr>>,
    /// Do **not** synchronize after this operator: the next operator
    /// consumes each site's local result directly (Theorem 5 / Corollary 1).
    /// Must be `false` on the last operator.
    pub local_only: bool,
}

impl RoundSpec {
    /// The unoptimized round: full base shipped, full results returned,
    /// synchronize afterwards.
    pub fn basic() -> RoundSpec {
        RoundSpec {
            site_group_reduction: false,
            coord_filters: None,
            local_only: false,
        }
    }
}

/// A maximal execution unit between synchronizations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Segment {
    /// One operator evaluated with a synchronization after it.
    Standard {
        /// Operator index.
        op: usize,
    },
    /// Operators `start..=end` evaluated locally at each site with a single
    /// synchronization after `end`.
    LocalRun {
        /// First operator index.
        start: usize,
        /// Last operator index (inclusive).
        end: usize,
    },
}

/// A distributed evaluation plan.
#[derive(Debug, Clone, PartialEq)]
pub struct DistPlan {
    /// The (possibly coalesced) expression to evaluate.
    pub expr: GmdjExpr,
    /// How `B₀` is produced.
    pub base_round: BaseRound,
    /// One spec per operator in `expr.ops`.
    pub rounds: Vec<RoundSpec>,
    /// The optimizations that produced this plan.
    pub flags: OptFlags,
    /// Row blocking (paper §3.2/§4): sites ship result relations in chunks
    /// of at most this many rows, letting the coordinator synchronize
    /// fragments from fast sites while slower sites are still computing.
    /// `None` ships each result whole.
    pub block_rows: Option<usize>,
    /// Threads each site uses for its local GMDJ scans (Theorem 1 applied
    /// within the site); `0`/`1` evaluates serially.
    pub site_parallelism: usize,
    /// Merge worker threads of the [`crate::sync::ShardedSync`] pipeline
    /// the coordinator (and every mid-tier) synchronizes with; at least 1.
    pub coord_parallelism: usize,
    /// Hash shards of the synchronization group space (rounded up to a
    /// power of two). `None` picks the [`crate::sync::SyncOptions`]
    /// default of 4 shards per worker.
    pub sync_shards: Option<usize>,
    /// Coordinator deadline/retry budget and degradation behavior for
    /// every synchronization round.
    pub retry: RetryPolicy,
    /// Skew-aware execution: hot-partition splitting across replicas and
    /// mid-round straggler offload. Disabled by default.
    pub skew: SkewPolicy,
    /// Zone-map segment pruning for segment-backed (out-of-core) detail
    /// partitions: a site skips decoding any segment whose footer zone
    /// maps refute every block's condition. Pruning is sound — a skipped
    /// segment provably contains no matching row — so it defaults to on;
    /// turning it off forces full scans (the `BENCH_9` baseline).
    pub segment_prune: bool,
}

impl DistPlan {
    /// The baseline plan: distributed base round, no reductions, one
    /// synchronization per operator — exactly Alg. GMDJDistribEval.
    pub fn unoptimized(expr: GmdjExpr) -> DistPlan {
        let rounds = expr.ops.iter().map(|_| RoundSpec::basic()).collect();
        let base_round = match &expr.base {
            skalla_gmdj::BaseSpec::Relation(r) => BaseRound::Coordinator(r.clone()),
            skalla_gmdj::BaseSpec::DistinctProject { .. } => BaseRound::Distributed,
        };
        DistPlan {
            expr,
            base_round,
            rounds,
            flags: OptFlags::none(),
            block_rows: None,
            site_parallelism: 1,
            coord_parallelism: 1,
            sync_shards: None,
            retry: RetryPolicy::default(),
            skew: SkewPolicy::disabled(),
            segment_prune: true,
        }
    }

    /// Enable row blocking with the given chunk size.
    pub fn with_block_rows(mut self, rows: usize) -> DistPlan {
        self.block_rows = Some(rows.max(1));
        self
    }

    /// Set the per-site scan parallelism.
    pub fn with_site_parallelism(mut self, threads: usize) -> DistPlan {
        self.site_parallelism = threads.max(1);
        self
    }

    /// Set the merge worker count of the coordinator (and mid-tier)
    /// [`crate::sync::ShardedSync`] pipeline (clamped to at least 1).
    pub fn with_coord_parallelism(mut self, workers: usize) -> DistPlan {
        self.coord_parallelism = workers.max(1);
        self
    }

    /// Override the synchronization shard count (rounded up to a power of
    /// two by the sync engine).
    pub fn with_sync_shards(mut self, shards: usize) -> DistPlan {
        self.sync_shards = Some(shards.max(1));
        self
    }

    /// Set the coordinator retry policy.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> DistPlan {
        self.retry = retry;
        self
    }

    /// Set only the degradation behavior, keeping the rest of the retry
    /// policy.
    pub fn with_degraded_mode(mut self, mode: DegradedMode) -> DistPlan {
        self.retry.degraded = mode;
        self
    }

    /// Enable or disable zone-map segment pruning for out-of-core scans.
    pub fn with_segment_prune(mut self, on: bool) -> DistPlan {
        self.segment_prune = on;
        self
    }

    /// Install a full skew policy.
    pub fn with_skew(mut self, skew: SkewPolicy) -> DistPlan {
        self.skew = skew;
        self
    }

    /// Enable hot-partition splitting at the given imbalance threshold
    /// (clamped to at least 1.0; splitting below the mean is meaningless).
    pub fn with_skew_split(mut self, threshold: f64) -> DistPlan {
        self.skew.split = true;
        self.skew.split_threshold = if threshold.is_finite() {
            threshold.max(1.0)
        } else {
            SkewPolicy::default().split_threshold
        };
        self
    }

    /// Enable mid-round straggler offload at the given lag factor over the
    /// median completion time (clamped to at least 0.0).
    pub fn with_skew_offload(mut self, factor: f64) -> DistPlan {
        self.skew.offload = true;
        self.skew.offload_factor = if factor.is_finite() {
            factor.max(0.0)
        } else {
            SkewPolicy::default().offload_factor
        };
        self
    }

    /// Validate internal consistency.
    pub fn validate(&self) -> Result<()> {
        if self.rounds.len() != self.expr.ops.len() {
            return Err(SkallaError::plan(format!(
                "{} round specs for {} operators",
                self.rounds.len(),
                self.expr.ops.len()
            )));
        }
        if let Some(last) = self.rounds.last() {
            if last.local_only {
                return Err(SkallaError::plan(
                    "last round cannot be local_only (final results must reach the coordinator)",
                ));
            }
        }
        if matches!(self.base_round, BaseRound::LocalOnly)
            && matches!(self.expr.base, skalla_gmdj::BaseSpec::Relation(_))
        {
            return Err(SkallaError::plan(
                "LocalOnly base round requires a distinct-project base",
            ));
        }
        if self.skew.split
            && !(self.skew.split_threshold.is_finite() && self.skew.split_threshold >= 1.0)
        {
            return Err(SkallaError::plan(format!(
                "skew split threshold must be a finite ratio >= 1.0, got {}",
                self.skew.split_threshold
            )));
        }
        if self.skew.offload
            && !(self.skew.offload_factor.is_finite() && self.skew.offload_factor >= 0.0)
        {
            return Err(SkallaError::plan(format!(
                "skew offload factor must be finite and non-negative, got {}",
                self.skew.offload_factor
            )));
        }
        Ok(())
    }

    /// Split the rounds into execution [`Segment`]s: a synchronization
    /// happens after each segment.
    pub fn segments(&self) -> Vec<Segment> {
        let mut out = Vec::new();
        let mut start = 0usize;
        for (k, r) in self.rounds.iter().enumerate() {
            if !r.local_only {
                if k == start && !self.first_segment_forced_local(start) {
                    out.push(Segment::Standard { op: k });
                } else {
                    out.push(Segment::LocalRun { start, end: k });
                }
                start = k + 1;
            }
        }
        out
    }

    /// A `LocalOnly` base round forces the first segment to execute as a
    /// local run (the base fragments exist only at the sites), even if it
    /// contains a single operator.
    fn first_segment_forced_local(&self, seg_start: usize) -> bool {
        seg_start == 0 && matches!(self.base_round, BaseRound::LocalOnly)
    }

    /// Number of synchronizations this plan performs (base sync, if any,
    /// plus one per segment). This is the quantity synchronization
    /// reduction minimizes (paper Example 5).
    pub fn num_synchronizations(&self) -> usize {
        let base = match self.base_round {
            BaseRound::Distributed => 1,
            BaseRound::LocalOnly | BaseRound::Coordinator(_) => 0,
        };
        base + self.segments().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skalla_expr::Expr;
    use skalla_gmdj::{AggSpec, BaseSpec, GmdjBlock, GmdjOp};

    fn op(name: &str) -> GmdjOp {
        GmdjOp::new(vec![GmdjBlock::new(
            vec![AggSpec::count_star(name)],
            Expr::base(0).eq(Expr::detail(0)),
        )])
    }

    fn expr(n_ops: usize) -> GmdjExpr {
        let ops = (0..n_ops).map(|i| op(&format!("c{i}"))).collect();
        GmdjExpr::new(
            BaseSpec::DistinctProject { cols: vec![0] },
            "t",
            ops,
            vec![0],
        )
        .unwrap()
    }

    #[test]
    fn unoptimized_plan_has_one_sync_per_round_plus_base() {
        let p = DistPlan::unoptimized(expr(2));
        p.validate().unwrap();
        assert_eq!(p.base_round, BaseRound::Distributed);
        assert_eq!(
            p.segments(),
            vec![Segment::Standard { op: 0 }, Segment::Standard { op: 1 }]
        );
        assert_eq!(p.num_synchronizations(), 3); // paper Example 5: "three synchronizations"
    }

    #[test]
    fn local_only_rounds_form_runs() {
        let mut p = DistPlan::unoptimized(expr(3));
        p.rounds[0].local_only = true;
        p.rounds[1].local_only = true;
        p.validate().unwrap();
        assert_eq!(p.segments(), vec![Segment::LocalRun { start: 0, end: 2 }]);
        assert_eq!(p.num_synchronizations(), 2); // base + one final

        let mut p = DistPlan::unoptimized(expr(3));
        p.rounds[0].local_only = true;
        assert_eq!(
            p.segments(),
            vec![
                Segment::LocalRun { start: 0, end: 1 },
                Segment::Standard { op: 2 }
            ]
        );
    }

    #[test]
    fn local_base_forces_local_first_segment() {
        let mut p = DistPlan::unoptimized(expr(2));
        p.base_round = BaseRound::LocalOnly;
        p.validate().unwrap();
        assert_eq!(
            p.segments(),
            vec![
                Segment::LocalRun { start: 0, end: 0 },
                Segment::Standard { op: 1 }
            ]
        );
        assert_eq!(p.num_synchronizations(), 2);

        // Full Example 5 shape: local base + local run = single sync.
        p.rounds[0].local_only = true;
        assert_eq!(p.segments(), vec![Segment::LocalRun { start: 0, end: 1 }]);
        assert_eq!(p.num_synchronizations(), 1);
    }

    #[test]
    fn validation_rejects_bad_plans() {
        let mut p = DistPlan::unoptimized(expr(2));
        p.rounds.pop();
        assert!(p.validate().is_err());

        let mut p = DistPlan::unoptimized(expr(2));
        p.rounds[1].local_only = true;
        assert!(p.validate().is_err());

        let base_rel = Relation::empty(
            skalla_types::Schema::from_pairs([("k", skalla_types::DataType::Int64)])
                .unwrap()
                .into_arc(),
        );
        let e = GmdjExpr::new(BaseSpec::Relation(base_rel), "t", vec![op("c")], vec![0]).unwrap();
        let mut p = DistPlan::unoptimized(e);
        p.base_round = BaseRound::LocalOnly;
        assert!(p.validate().is_err());
    }

    #[test]
    fn coordinator_base_round_from_relation_base() {
        let base_rel = Relation::empty(
            skalla_types::Schema::from_pairs([("k", skalla_types::DataType::Int64)])
                .unwrap()
                .into_arc(),
        );
        let e = GmdjExpr::new(BaseSpec::Relation(base_rel), "t", vec![op("c")], vec![0]).unwrap();
        let p = DistPlan::unoptimized(e);
        assert!(matches!(p.base_round, BaseRound::Coordinator(_)));
        assert_eq!(p.num_synchronizations(), 1);
    }

    #[test]
    fn retry_policy_backoff_and_defaults() {
        let p = DistPlan::unoptimized(expr(1));
        assert_eq!(p.retry, RetryPolicy::default());
        assert_eq!(p.retry.degraded, DegradedMode::Fail);

        let rp = RetryPolicy {
            deadline: Duration::from_millis(100),
            max_retries: 2,
            backoff: 2.0,
            degraded: DegradedMode::Partial,
        };
        assert_eq!(rp.deadline_for_attempt(0), Duration::from_millis(100));
        assert_eq!(rp.deadline_for_attempt(2), Duration::from_millis(400));

        // Backoff below 1 is clamped: deadlines never shrink.
        let flat = RetryPolicy {
            backoff: 0.5,
            ..RetryPolicy::default()
        };
        assert_eq!(flat.deadline_for_attempt(3), flat.deadline);

        let q = p.with_degraded_mode(DegradedMode::Partial);
        assert_eq!(q.retry.degraded, DegradedMode::Partial);
    }

    #[test]
    fn parallelism_builders_clamp_to_one() {
        let p = DistPlan::unoptimized(expr(1))
            .with_site_parallelism(0)
            .with_coord_parallelism(0);
        assert_eq!(p.site_parallelism, 1);
        assert_eq!(p.coord_parallelism, 1);
        let p = p.with_coord_parallelism(8);
        assert_eq!(p.coord_parallelism, 8);
    }

    #[test]
    fn flags_presets() {
        assert_eq!(OptFlags::none(), OptFlags::default());
        let all = OptFlags::all();
        assert!(all.coalesce && all.site_group_reduction);
        assert!(all.coord_group_reduction && all.sync_reduction);
    }

    #[test]
    fn skew_policy_builders_and_validation() {
        let p = DistPlan::unoptimized(expr(1));
        assert!(p.skew.is_disabled());
        assert!(p.validate().is_ok());

        let p = p.with_skew_split(0.5).with_skew_offload(-3.0);
        assert!(p.skew.split && p.skew.offload);
        // Clamped into their valid ranges.
        assert_eq!(p.skew.split_threshold, 1.0);
        assert_eq!(p.skew.offload_factor, 0.0);
        assert!(p.validate().is_ok());

        // Non-finite knobs fall back to defaults rather than poisoning the plan.
        let p = DistPlan::unoptimized(expr(1)).with_skew_split(f64::NAN);
        assert_eq!(
            p.skew.split_threshold,
            SkewPolicy::default().split_threshold
        );
        assert!(p.validate().is_ok());

        // A hand-built policy with bad values is rejected by validate().
        let mut bad = DistPlan::unoptimized(expr(1));
        bad.skew = SkewPolicy {
            split: true,
            split_threshold: f64::INFINITY,
            ..SkewPolicy::default()
        };
        assert!(bad.validate().is_err());
        bad.skew = SkewPolicy {
            offload: true,
            offload_factor: f64::NAN,
            ..SkewPolicy::default()
        };
        assert!(bad.validate().is_err());
    }
}
