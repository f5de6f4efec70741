#![warn(missing_docs)]

//! # skalla-gmdj
//!
//! The GMDJ (Generalized Multi-Dimensional Join) operator — the algebraic
//! workhorse of Skalla (paper §2.2, Definition 1) — together with:
//!
//! * [`agg`] — aggregate functions (`COUNT`, `SUM`, `AVG`, `MIN`, `MAX`)
//!   with the *sub-aggregate / super-aggregate* decomposition of Theorem 1
//!   (following Gray et al.): sites accumulate sub-aggregate state, the
//!   coordinator merges state, and final values are produced by `finalize`.
//! * [`op`] — the [`GmdjBlock`] (one `(lᵢ, θᵢ)` pair), the [`GmdjOp`]
//!   (one `MD` application), and the chained [`GmdjExpr`]
//!   (`MDₙ(⋯MD₁(B₀, R, …)⋯)`).
//! * [`eval`] — local evaluation of one GMDJ over a detail
//!   [`ScanSource`](skalla_storage::ScanSource) (in-memory tables and
//!   segment files alike), with a hash strategy for equi-join conditions
//!   and a nested-loop fallback, in either *sub-aggregate* mode (for
//!   distributed rounds) or *full* mode (finalized outputs).
//! * [`centralized`] — a single-site reference evaluator for whole GMDJ
//!   expressions; the distributed executor is tested for equivalence
//!   against it (Theorem 3).
//! * [`coalesce`] — the GMDJ coalescing transformation of §4.3: adjacent
//!   GMDJs merge into one when the outer conditions do not reference the
//!   inner operator's outputs.
//! * [`slots`] — typed per-group state columns ([`AggSlot`]) for the
//!   coordinator's Theorem 1 merge path, bit-for-bit equivalent to
//!   [`AggSpec::merge`](agg::AggSpec::merge).

pub mod agg;
pub mod centralized;
pub mod coalesce;
mod compiled;
pub mod eval;
pub mod olap;
pub mod op;
pub mod slots;
pub mod sql;

pub use agg::{AggFunc, AggSpec};
pub use centralized::eval_expr_centralized;
pub use coalesce::{coalesce_chain, try_coalesce};
pub use eval::{
    eval_gmdj_dual, eval_gmdj_full, eval_gmdj_sub, DualResult, EvalOptions, EvalStats,
    LocalStrategy,
};
pub use olap::{
    build_cube_base, build_rollup_base, cube_expr, cube_theta, multi_feature_expr, rollup_expr,
    unpivot_expr,
};
pub use op::{BaseSpec, GmdjBlock, GmdjExpr, GmdjOp, MATCH_COUNT_COL};
pub use slots::{slots_for_specs, AggSlot, MergeScratch};
pub use sql::to_sql;
