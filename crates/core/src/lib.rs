#![warn(missing_docs)]

//! # skalla-core
//!
//! The Skalla distributed runtime: coordinator, warehouse sites, and
//! **Alg. GMDJDistribEval** (paper §3) with all three optimization families
//! of §4 wired in as executable plan options:
//!
//! * **distribution-independent group reduction** (Proposition 1) — sites
//!   piggyback a `COUNT(*)` over `θ₁ ∨ … ∨ θₘ` and ship only groups with a
//!   positive match count;
//! * **distribution-aware group reduction** (Theorem 4) — the coordinator
//!   applies a per-site base filter `¬ψᵢ` before shipping groups;
//! * **synchronization reduction** (Proposition 2, Theorem 5, Corollary 1)
//!   — runs of GMDJs evaluate entirely locally, with a single final
//!   synchronization.
//!
//! Architecture (paper Fig. 1): a strict coordinator topology. Sites run as
//! OS threads owning their local [`skalla_storage::Catalog`]; every message
//! between coordinator and sites crosses the simulated network of
//! `skalla-net` and is therefore serialized and byte-counted exactly.
//!
//! Modules:
//!
//! * [`plan`] — [`DistPlan`]: the distributed evaluation plan (rounds,
//!   reduction flags, synchronization segments).
//! * [`message`] — the coordinator↔site protocol and its wire encoding.
//! * [`baseresult`] — the single-threaded reference implementation of the
//!   key-indexed base-result structure `X` (Theorem 1), which the
//!   differential suites and the `coord_sync` gate compare
//!   [`ShardedSync`] against.
//! * [`metrics`] — per-round and per-query cost breakdown (site compute,
//!   coordinator compute, communication; measured and modeled).
//! * [`site`] — the site worker loop.
//! * [`warehouse`] — [`DistributedWarehouse`]: launch sites, execute plans,
//!   and the ship-all-detail-data baseline used to demonstrate Theorem 2.
//! * [`sync`] — [`ShardedSync`]: the hash-partitioned, multi-worker
//!   synchronization pipeline every coordinator tier runs (parallel
//!   Theorem 1, bit-for-bit equivalent to [`BaseResult`]).
//! * [`tree`] — [`TieredWarehouse`]: the multi-tier coordinator topology
//!   sketched in the paper's future work (§6).
//! * [`checkpoint`] — round-granular coordinator checkpointing: a small WAL
//!   of synchronized base-results so a restarted coordinator re-executes at
//!   most one round.
//! * [`cache`] — [`ResultCache`]: the coordinator's plan-fingerprint result
//!   cache, so repeated dashboard-style queries short-circuit.
//! * [`sched`] — [`QueryScheduler`]: bounded admission with backpressure
//!   and fair round-robin interleaving of concurrent [`QueryRun`]s over the
//!   shared site engines.

pub mod baseresult;
pub mod cache;
pub mod checkpoint;
mod collect;
pub mod message;
pub mod metrics;
pub mod plan;
pub mod sched;
pub mod site;
pub mod sync;
pub mod tree;
pub mod warehouse;

pub use baseresult::BaseResult;
pub use cache::{CacheStats, PlanKey, ResultCache};
pub use checkpoint::{plan_fingerprint, CheckpointRecord, CheckpointWal};
pub use message::ScrubEntry;
pub use metrics::{Coverage, ExecMetrics, RoundMetrics};
pub use plan::{
    BaseRound, DegradedMode, DistPlan, OptFlags, RetryPolicy, RoundSpec, Segment, SkewPolicy,
};
pub use sched::{Admission, QueryScheduler, QueryTicket, SchedConfig, SchedStats};
pub use sync::{ShardedSync, SyncOptions, SyncOutput, SyncSpec, SyncStats};
pub use tree::TieredWarehouse;
pub use warehouse::{DistributedWarehouse, QueryRun, ScrubSummary};
