//! Local evaluation of one GMDJ operator.
//!
//! Conventional SQL group-by machinery does not apply to GMDJs because the
//! `RNG` sets of different base tuples may overlap (paper §2.2). The
//! evaluator here follows the centralized algorithms of [2, 7]:
//!
//! * **Hash strategy** — when `θᵢ` contains equi-join conjuncts
//!   `b.k = r.j`, index the base relation on those columns, probe with each
//!   detail tuple, and check the residual condition per candidate. This
//!   makes the common grouping conditions linear in `|R|`.
//! * **Nested-loop strategy** — the general fallback: every `(r, b)` pair is
//!   tested against `θᵢ`.
//!
//! Two output modes:
//!
//! * [`eval_gmdj_sub`] produces the *sub-aggregate* relation `Hᵢ` shipped to
//!   the coordinator during distributed rounds (state columns, optionally
//!   plus the `__rng_count` match counter of Proposition 1).
//! * [`eval_gmdj_full`] produces finalized output columns (used by the
//!   centralized reference evaluator and by local-only rounds under
//!   synchronization reduction).
//!
//! Every entry point scans one [`ScanSource`]: in-memory tables and
//! segment files alike arrive as zero-copy row windows in global row
//! order. Zone-map pruning is decided from the segment footers before the
//! scan, and the scan is cut into the same worker ranges whatever the
//! storage kind, so answers do not depend on where the rows live.

use std::sync::Arc;

use skalla_expr::{analysis, eval_detail, eval_predicate, DetailBounds, Expr};
use skalla_storage::segment::{zone_may_contain_str, zone_may_overlap};
use skalla_storage::{ColumnStats, HashIndex, ScanSource, Table};
use skalla_types::{DataType, Field, Relation, Result, Row, Schema, Value};

use crate::compiled::{compile_block, run_block, CompiledBlock};
use crate::op::{GmdjOp, MATCH_COUNT_COL};

/// Strategy selection for one GMDJ block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LocalStrategy {
    /// Hash when the condition has equi-join conjuncts, nested loop
    /// otherwise.
    #[default]
    Auto,
    /// Force the nested-loop strategy.
    NestedLoop,
    /// Force the hash strategy (error if no equi-join conjuncts exist — the
    /// caller should know).
    Hash,
}

/// Options for local evaluation.
#[derive(Debug, Clone, Copy)]
pub struct EvalOptions {
    /// Strategy selection.
    pub strategy: LocalStrategy,
    /// Piggyback a `__rng_count` column counting θ-matches per base tuple
    /// (distribution-independent group reduction, Proposition 1). Only
    /// meaningful in sub-aggregate mode.
    pub with_match_count: bool,
    /// Intra-site parallelism: split the detail scan across this many
    /// threads, each accumulating private sub-aggregate state, then merge
    /// (Theorem 1 applied *within* a site — state merging is associative).
    /// `0` or `1` evaluates serially.
    pub parallelism: usize,
    /// Use compiled batch kernels (`skalla_expr::compile`) when the block's
    /// condition and aggregate arguments fall inside the compiled subset;
    /// blocks outside it fall back to the row-at-a-time interpreter
    /// automatically. On by default.
    pub compiled: bool,
}

impl Default for EvalOptions {
    fn default() -> EvalOptions {
        EvalOptions {
            strategy: LocalStrategy::default(),
            with_match_count: false,
            parallelism: 0,
            compiled: true,
        }
    }
}

/// Below this many detail rows the thread fan-out costs more than it saves.
const PARALLEL_MIN_ROWS: usize = 4096;

/// Counters describing one local evaluation. The `blocks_*` and
/// `segments_*` counters count each operator block and each segment once
/// per scan, however many worker ranges or windows the scan was cut into.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Detail rows scanned (per block).
    pub detail_rows_scanned: u64,
    /// `(b, r)` pairs that satisfied a θ.
    pub matches: u64,
    /// Blocks evaluated with the hash strategy.
    pub blocks_hashed: u32,
    /// Blocks evaluated with the nested-loop strategy.
    pub blocks_nested: u32,
    /// Blocks evaluated through compiled batch kernels (a subset of the
    /// hashed/nested counts, which record the join strategy regardless of
    /// execution mode).
    pub blocks_compiled: u32,
    /// Segments decoded and evaluated.
    pub segments_scanned: u64,
    /// Segments skipped because their zone maps refuted every block's θ.
    pub segments_pruned: u64,
    /// Column chunks whose CRC32C was verified during decode (one per
    /// column of each scanned segment).
    pub blocks_verified: u64,
}

impl EvalStats {
    /// Add another part of the same scan's row counters (the block
    /// counters belong to the scan's plan, not to its parts).
    fn add_rows(&mut self, part: &EvalStats) {
        self.detail_rows_scanned += part.detail_rows_scanned;
        self.matches += part.matches;
    }
}

/// Evaluate `op` over (`base`, `detail`) producing **sub-aggregate state**
/// columns: schema = base fields ++ state fields (++ `__rng_count`).
pub fn eval_gmdj_sub(
    base: &Relation,
    detail: &ScanSource<'_>,
    op: &GmdjOp,
    opts: &EvalOptions,
) -> Result<(Relation, EvalStats)> {
    let (states, match_counts, stats) = accumulate(base, detail, op, opts)?;
    let rel = shape_sub(base, detail.schema(), op, opts, &states, &match_counts)?;
    Ok((rel, stats))
}

/// Shape accumulated states as the sub-aggregate relation `Hᵢ`:
/// base fields ++ state fields (++ `__rng_count`).
fn shape_sub(
    base: &Relation,
    detail_schema: &Schema,
    op: &GmdjOp,
    opts: &EvalOptions,
    states: &[Vec<Value>],
    match_counts: &[u64],
) -> Result<Relation> {
    let mut fields = base.schema().fields().to_vec();
    fields.extend(op.state_fields(detail_schema)?);
    if opts.with_match_count {
        fields.push(Field::new(MATCH_COUNT_COL, DataType::Int64));
    }
    let schema = Arc::new(Schema::new(fields)?);

    let mut rows = Vec::with_capacity(base.len());
    for (i, b) in base.rows().iter().enumerate() {
        let mut row = b.clone();
        row.extend(states[i].iter().cloned());
        if opts.with_match_count {
            row.push(Value::Int(match_counts[i] as i64));
        }
        rows.push(row);
    }
    Ok(Relation::from_rows_unchecked(schema, rows))
}

/// Shape accumulated states as the finalized relation:
/// base fields ++ output fields.
fn shape_full(
    base: &Relation,
    detail_schema: &Schema,
    op: &GmdjOp,
    states: &[Vec<Value>],
) -> Result<Relation> {
    let mut fields = base.schema().fields().to_vec();
    fields.extend(op.output_fields(detail_schema)?);
    let schema = Arc::new(Schema::new(fields)?);

    let mut rows = Vec::with_capacity(base.len());
    for (i, b) in base.rows().iter().enumerate() {
        let mut row = b.clone();
        let mut offset = 0;
        for spec in op.all_aggs() {
            let w = spec.state_width();
            row.push(spec.finalize(&states[i][offset..offset + w])?);
            offset += w;
        }
        rows.push(row);
    }
    Ok(Relation::from_rows_unchecked(schema, rows))
}

/// Evaluate `op` over (`base`, `detail`) producing **finalized** output
/// columns: schema = base fields ++ output fields.
pub fn eval_gmdj_full(
    base: &Relation,
    detail: &ScanSource<'_>,
    op: &GmdjOp,
    opts: &EvalOptions,
) -> Result<(Relation, EvalStats)> {
    let (states, _, stats) = accumulate(base, detail, op, opts)?;
    let rel = shape_full(base, detail.schema(), op, &states)?;
    Ok((rel, stats))
}

/// Result of [`eval_gmdj_dual`]: both views of one accumulation pass.
#[derive(Debug, Clone)]
pub struct DualResult {
    /// Finalized relation (base fields ++ output fields) — the base for the
    /// next operator in a local-only run.
    pub full: Relation,
    /// Raw per-base-row aggregate state (concatenated across aggregates) —
    /// the sub-aggregates to ship to the coordinator.
    pub states: Vec<Vec<Value>>,
    /// θ-match count per base row (`|RNG| > 0` detection, Proposition 1).
    pub match_counts: Vec<u64>,
    /// Evaluation counters.
    pub stats: EvalStats,
}

/// Evaluate `op` once and return both the finalized relation and the raw
/// sub-aggregate state. Used by sites executing a synchronization-reduced
/// local run (paper §4.3): the finalized view feeds the next operator
/// locally while the state columns are what ultimately gets shipped.
pub fn eval_gmdj_dual(
    base: &Relation,
    detail: &ScanSource<'_>,
    op: &GmdjOp,
    opts: &EvalOptions,
) -> Result<DualResult> {
    let (states, match_counts, stats) = accumulate(base, detail, op, opts)?;
    let full = shape_full(base, detail.schema(), op, &states)?;
    Ok(DualResult {
        full,
        states,
        match_counts,
        stats,
    })
}

/// Per-base-row aggregate state, the θ-match counts, and scan counters —
/// the raw product of one accumulation pass.
type Accumulated = (Vec<Vec<Value>>, Vec<u64>, EvalStats);

/// Core accumulation: per-base-row aggregate state plus match counts.
///
/// The blocks are planned and the segments pruned once, then the source's
/// rows are cut into worker ranges (one range when the options are serial
/// or the source is too small to amortize the fan-out). Each range threads
/// one running state through its windows in row order via
/// [`accumulate_serial_into`] — on its own thread when there are several —
/// and the ranges merge in worker order. Non-associative float rounding
/// therefore depends only on the range cut, never on the storage kind;
/// pruned segments contribute identity, which is rounding-neutral.
fn accumulate(
    base: &Relation,
    detail: &ScanSource<'_>,
    op: &GmdjOp,
    opts: &EvalOptions,
) -> Result<Accumulated> {
    let (plans, mut stats) = plan_blocks(base, op, detail.schema(), opts);
    let bounds: Vec<DetailBounds> = op
        .blocks
        .iter()
        .map(|b| analysis::detail_bounds(&b.theta))
        .collect();
    // A segment is skipped only when every block is refuted.
    let scan =
        detail.plan(|zones| !bounds.is_empty() && bounds.iter().all(|b| zones_refute(zones, b)));
    stats.segments_scanned = scan.segments_scanned;
    stats.segments_pruned = scan.segments_pruned;
    stats.blocks_verified = scan.blocks_verified;

    let n = detail.num_rows();
    let par = opts.parallelism.max(1);
    let chunk = if par == 1 || n < PARALLEL_MIN_ROWS.max(2 * par) {
        n.max(1)
    } else {
        n.div_ceil(par)
    };
    let ranges: Vec<(usize, usize)> = (0..n.div_ceil(chunk).max(1))
        .map(|w| (w * chunk, ((w + 1) * chunk).min(n)))
        .collect();
    let run = |&(lo, hi): &(usize, usize)| -> Result<Accumulated> {
        let mut acc = fresh_acc(base, op);
        scan.for_each_window(lo..hi, |table, start, len| {
            accumulate_serial_into(base, table, start, len, op, &plans, &mut acc)
        })?;
        Ok(acc)
    };
    let partials: Vec<Result<Accumulated>> = if ranges.len() == 1 {
        vec![run(&ranges[0])]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = ranges
                .iter()
                .map(|range| scope.spawn(move || run(range)))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err(skalla_types::SkallaError::exec("worker panicked")))
                })
                .collect()
        })
    };

    let mut iter = partials.into_iter();
    let (mut states, mut match_counts, first) = iter.next().expect("at least one range")?;
    stats.add_rows(&first);
    for partial in iter {
        let (pstates, pcounts, pstats) = partial?;
        merge_partial_states(op, &mut states, &mut match_counts, pstates, &pcounts)?;
        stats.add_rows(&pstats);
    }
    Ok((states, match_counts, stats))
}

/// Merge a partial accumulation into `states`/`match_counts` (Theorem 1:
/// sub-aggregate state merging is associative, so partials from worker
/// ranges combine in any grouping).
fn merge_partial_states(
    op: &GmdjOp,
    states: &mut [Vec<Value>],
    match_counts: &mut [u64],
    pstates: Vec<Vec<Value>>,
    pcounts: &[u64],
) -> Result<()> {
    for (i, pstate) in pstates.into_iter().enumerate() {
        let state = &mut states[i];
        let mut off = 0;
        for spec in op.all_aggs() {
            let w = spec.state_width();
            spec.merge(&mut state[off..off + w], &pstate[off..off + w])?;
            off += w;
        }
        match_counts[i] += pcounts[i];
    }
    Ok(())
}

/// Fresh per-base-row aggregate states (every aggregate at its identity).
fn init_states(base: &Relation, op: &GmdjOp) -> Vec<Vec<Value>> {
    let total_width = op.state_width();
    (0..base.len())
        .map(|_| {
            let mut s = Vec::with_capacity(total_width);
            for spec in op.all_aggs() {
                s.extend(spec.init_state());
            }
            s
        })
        .collect()
}

/// An empty accumulation: identity states, zero matches, zero counters.
fn fresh_acc(base: &Relation, op: &GmdjOp) -> Accumulated {
    (
        init_states(base, op),
        vec![0u64; base.len()],
        EvalStats::default(),
    )
}

/// The hash strategy's probe structure for one block: the base index on
/// the equi-join columns and the residual checked per candidate.
pub(crate) struct HashJoin {
    pub(crate) index: HashIndex,
    pub(crate) detail_key_cols: Vec<usize>,
    /// θ without its equi-join conjuncts (`TRUE` when none remain).
    pub(crate) residual: Expr,
}

/// How one block runs, decided once per scan so that worker ranges and
/// windows share the base index and the compiled kernels.
struct BlockPlan {
    /// State-column offset of the block's first aggregate.
    offset: usize,
    /// `Some` for the hash strategy, `None` for the nested loop.
    join: Option<HashJoin>,
    /// The block lowered onto batch kernels, when it compiles.
    compiled: Option<CompiledBlock>,
}

/// Plan every block of `op` for one scan, and count each block once.
fn plan_blocks(
    base: &Relation,
    op: &GmdjOp,
    detail_schema: &Schema,
    opts: &EvalOptions,
) -> (Vec<BlockPlan>, EvalStats) {
    let mut stats = EvalStats::default();
    let mut offset = 0;
    let plans = op
        .blocks
        .iter()
        .map(|block| {
            let pairs = analysis::equality_pairs(&block.theta);
            let use_hash = !pairs.is_empty() && opts.strategy != LocalStrategy::NestedLoop;
            let join = use_hash.then(|| {
                let base_key_cols: Vec<usize> = pairs.iter().map(|p| p.base_col).collect();
                HashJoin {
                    index: HashIndex::build_from_rows(base.rows().iter(), &base_key_cols),
                    detail_key_cols: pairs.iter().map(|p| p.detail_col).collect(),
                    residual: analysis::residual_without_pairs(&block.theta, &pairs),
                }
            });
            let compiled = opts
                .compiled
                .then(|| compile_block(block, base.schema(), detail_schema, join.as_ref()))
                .flatten();
            if use_hash {
                stats.blocks_hashed += 1;
            } else {
                stats.blocks_nested += 1;
            }
            if compiled.is_some() {
                stats.blocks_compiled += 1;
            }
            let plan = BlockPlan {
                offset,
                join,
                compiled,
            };
            offset += block.aggs.iter().map(|a| a.state_width()).sum::<usize>();
            plan
        })
        .collect();
    (plans, stats)
}

/// Single-threaded accumulation of rows `start..start + n_detail` of
/// `table`, continuing from existing state. Feeding a scan through this in
/// consecutive windows is *bit-identical* to one pass over their
/// concatenation — every row updates the same running state in the same
/// order, so even non-associative float rounding agrees. Adds to the row
/// counters only; the block counters come from [`plan_blocks`].
fn accumulate_serial_into(
    base: &Relation,
    table: &Table,
    start: usize,
    n_detail: usize,
    op: &GmdjOp,
    plans: &[BlockPlan],
    acc: &mut Accumulated,
) -> Result<()> {
    let (states, match_counts, stats) = acc;

    for (block, plan) in op.blocks.iter().zip(plans) {
        stats.detail_rows_scanned += n_detail as u64;
        let block_off = plan.offset;

        // Compiled batch path: the block was lowered onto typed kernels
        // when the scan was planned.
        if let Some(cb) = &plan.compiled {
            run_block(
                cb,
                block,
                block_off,
                plan.join.as_ref(),
                base,
                table,
                start,
                n_detail,
                states,
                match_counts,
                stats,
            )?;
            continue;
        }

        // Precompute per-detail-row argument values for each aggregate in
        // the block (arguments are detail-only, so this is shared across all
        // matching base tuples).
        let mut arg_vals: Vec<Option<Vec<Value>>> = Vec::with_capacity(block.aggs.len());
        for spec in &block.aggs {
            match &spec.arg {
                None => arg_vals.push(None),
                Some(e) => {
                    let mut vals = Vec::with_capacity(n_detail);
                    for i in 0..n_detail {
                        vals.push(eval_detail(e, &table.row(start + i))?);
                    }
                    arg_vals.push(Some(vals));
                }
            }
        }

        if let Some(join) = &plan.join {
            let skip_residual = join.residual == Expr::lit(true);
            let mut key: Row = Vec::with_capacity(join.detail_key_cols.len());
            for i in 0..n_detail {
                let r = table.row(start + i);
                key.clear();
                // NULL keys never join (SQL equality semantics).
                if join.detail_key_cols.iter().any(|&c| r[c].is_null()) {
                    continue;
                }
                key.extend(join.detail_key_cols.iter().map(|&c| r[c].clone()));
                for &bi in join.index.get(&key) {
                    let bi = bi as usize;
                    let b = &base.rows()[bi];
                    if skip_residual || eval_predicate(&join.residual, b, &r)? {
                        stats.matches += 1;
                        match_counts[bi] += 1;
                        accumulate_row(block, block_off, &mut states[bi], &arg_vals, i)?;
                    }
                }
            }
        } else {
            for i in 0..n_detail {
                let r = table.row(start + i);
                for (bi, b) in base.rows().iter().enumerate() {
                    if eval_predicate(&block.theta, b, &r)? {
                        stats.matches += 1;
                        match_counts[bi] += 1;
                        accumulate_row(block, block_off, &mut states[bi], &arg_vals, i)?;
                    }
                }
            }
        }
    }

    Ok(())
}

/// `true` when the zone maps prove no row of the segment can satisfy the
/// bounds (every bound is a *necessary* condition on matching rows, so one
/// refuted bound refutes the whole conjunction).
fn zones_refute(zones: &[ColumnStats], bounds: &DetailBounds) -> bool {
    bounds
        .num
        .iter()
        .any(|(c, iv)| zones.get(*c).is_some_and(|z| !zone_may_overlap(z, iv)))
        || bounds
            .str_eq
            .iter()
            .any(|(c, s)| zones.get(*c).is_some_and(|z| !zone_may_contain_str(z, s)))
}

fn accumulate_row(
    block: &crate::op::GmdjBlock,
    block_off: usize,
    state: &mut [Value],
    arg_vals: &[Option<Vec<Value>>],
    detail_row: usize,
) -> Result<()> {
    let mut off = block_off;
    for (spec, vals) in block.aggs.iter().zip(arg_vals) {
        let w = spec.state_width();
        let v = match vals {
            None => &Value::Null, // COUNT(*): value unused
            Some(vs) => &vs[detail_row],
        };
        spec.accumulate(&mut state[off..off + w], v)?;
        off += w;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggSpec;
    use crate::op::GmdjBlock;
    use skalla_storage::{SegmentFile, Store};

    fn detail_schema() -> Arc<Schema> {
        Schema::from_pairs([
            ("sas", DataType::Int64),
            ("das", DataType::Int64),
            ("nb", DataType::Int64),
        ])
        .unwrap()
        .into_arc()
    }

    fn flow() -> Table {
        Table::from_rows(
            detail_schema(),
            &[
                vec![Value::Int(1), Value::Int(10), Value::Int(100)],
                vec![Value::Int(1), Value::Int(10), Value::Int(300)],
                vec![Value::Int(2), Value::Int(20), Value::Int(50)],
                vec![Value::Int(1), Value::Int(20), Value::Int(75)],
            ],
        )
        .unwrap()
    }

    fn base() -> Relation {
        flow().distinct_project(&[0, 1]).unwrap()
    }

    fn count_sum_op() -> GmdjOp {
        GmdjOp::new(vec![GmdjBlock::new(
            vec![
                AggSpec::count_star("cnt"),
                AggSpec::sum(Expr::detail(2), "sum").unwrap(),
            ],
            Expr::base(0)
                .eq(Expr::detail(0))
                .and(Expr::base(1).eq(Expr::detail(1))),
        )])
    }

    #[test]
    fn full_eval_groups_correctly() {
        let (out, stats) = eval_gmdj_full(
            &base(),
            &ScanSource::table(&flow()),
            &count_sum_op(),
            &EvalOptions::default(),
        )
        .unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out.schema().names(), vec!["sas", "das", "cnt", "sum"]);
        let sorted = out.sorted();
        // (1,10): cnt 2, sum 400; (1,20): cnt 1, sum 75; (2,20): cnt 1, sum 50.
        assert_eq!(
            sorted.row(0),
            &vec![
                Value::Int(1),
                Value::Int(10),
                Value::Int(2),
                Value::Int(400)
            ]
        );
        assert_eq!(
            sorted.row(1),
            &vec![Value::Int(1), Value::Int(20), Value::Int(1), Value::Int(75)]
        );
        assert_eq!(
            sorted.row(2),
            &vec![Value::Int(2), Value::Int(20), Value::Int(1), Value::Int(50)]
        );
        assert_eq!(stats.blocks_hashed, 1);
        assert_eq!(stats.blocks_nested, 0);
        assert_eq!(stats.matches, 4);
    }

    #[test]
    fn nested_loop_agrees_with_hash() {
        let opts_nl = EvalOptions {
            strategy: LocalStrategy::NestedLoop,
            ..Default::default()
        };
        let (a, sa) = eval_gmdj_full(
            &base(),
            &ScanSource::table(&flow()),
            &count_sum_op(),
            &EvalOptions::default(),
        )
        .unwrap();
        let (b, sb) = eval_gmdj_full(
            &base(),
            &ScanSource::table(&flow()),
            &count_sum_op(),
            &opts_nl,
        )
        .unwrap();
        assert_eq!(a.sorted(), b.sorted());
        assert_eq!(sa.matches, sb.matches);
        assert_eq!(sb.blocks_nested, 1);
    }

    #[test]
    fn sub_eval_ships_state_and_match_count() {
        let opts = EvalOptions {
            with_match_count: true,
            ..Default::default()
        };
        let (out, _) =
            eval_gmdj_sub(&base(), &ScanSource::table(&flow()), &count_sum_op(), &opts).unwrap();
        assert_eq!(
            out.schema().names(),
            vec!["sas", "das", "cnt", "sum", MATCH_COUNT_COL]
        );
        // Every group matched at least once here.
        for r in out.rows() {
            assert!(r[4].as_int().unwrap() > 0);
        }
    }

    #[test]
    fn unmatched_groups_have_zero_match_count() {
        // Base has a group that the (empty-ish) detail can't match.
        let extra_base = {
            let mut b = base();
            b.push(vec![Value::Int(99), Value::Int(99)]).unwrap();
            b
        };
        let opts = EvalOptions {
            with_match_count: true,
            ..Default::default()
        };
        let (out, _) = eval_gmdj_sub(
            &extra_base,
            &ScanSource::table(&flow()),
            &count_sum_op(),
            &opts,
        )
        .unwrap();
        let unmatched: Vec<_> = out
            .rows()
            .iter()
            .filter(|r| r[0] == Value::Int(99))
            .collect();
        assert_eq!(unmatched.len(), 1);
        assert_eq!(unmatched[0][4], Value::Int(0)); // __rng_count
        assert_eq!(unmatched[0][2], Value::Int(0)); // COUNT over empty = 0
        assert_eq!(unmatched[0][3], Value::Null); // SUM over empty = NULL
    }

    #[test]
    fn correlated_condition_uses_prior_aggregates() {
        // Base already carries cnt/sum; θ₂: nb >= sum/cnt (Example 1 round 2).
        let (b1, _) = eval_gmdj_full(
            &base(),
            &ScanSource::table(&flow()),
            &count_sum_op(),
            &EvalOptions::default(),
        )
        .unwrap();
        let md2 = GmdjOp::new(vec![GmdjBlock::new(
            vec![AggSpec::count_star("cnt2")],
            Expr::base(0)
                .eq(Expr::detail(0))
                .and(Expr::base(1).eq(Expr::detail(1)))
                .and(Expr::detail(2).ge(Expr::base(3).div(Expr::base(2)))),
        )]);
        let (out, _) = eval_gmdj_full(
            &b1,
            &ScanSource::table(&flow()),
            &md2,
            &EvalOptions::default(),
        )
        .unwrap();
        let sorted = out.sorted();
        // (1,10): avg 200 → nb ∈ {100,300}, only 300 ≥ 200 → cnt2 = 1.
        assert_eq!(sorted.row(0)[4], Value::Int(1));
        // (1,20): avg 75 → 75 ≥ 75 → 1. (2,20): avg 50 → 1.
        assert_eq!(sorted.row(1)[4], Value::Int(1));
        assert_eq!(sorted.row(2)[4], Value::Int(1));
    }

    #[test]
    fn multi_block_op_accumulates_separately() {
        let op = GmdjOp::new(vec![
            GmdjBlock::new(
                vec![AggSpec::count_star("all_cnt")],
                Expr::base(0).eq(Expr::detail(0)),
            ),
            GmdjBlock::new(
                vec![AggSpec::count_star("big_cnt")],
                Expr::base(0)
                    .eq(Expr::detail(0))
                    .and(Expr::detail(2).gt(Expr::lit(90))),
            ),
        ]);
        let b = flow().distinct_project(&[0]).unwrap();
        let (out, _) = eval_gmdj_full(
            &b,
            &ScanSource::table(&flow()),
            &op,
            &EvalOptions::default(),
        )
        .unwrap();
        let sorted = out.sorted();
        // sas=1: 3 rows, 2 with nb>90; sas=2: 1 row, 0 with nb>90.
        assert_eq!(
            sorted.row(0),
            &vec![Value::Int(1), Value::Int(3), Value::Int(2)]
        );
        assert_eq!(
            sorted.row(1),
            &vec![Value::Int(2), Value::Int(1), Value::Int(0)]
        );
    }

    #[test]
    fn null_join_keys_never_match() {
        let schema = detail_schema();
        let t = Table::from_rows(
            schema.clone(),
            &[
                vec![Value::Int(1), Value::Int(10), Value::Int(5)],
                vec![Value::Null, Value::Int(10), Value::Int(7)],
            ],
        )
        .unwrap();
        let b = Relation::new(
            Arc::new(schema.project(&[0]).unwrap()),
            vec![vec![Value::Int(1)], vec![Value::Null]],
        )
        .unwrap();
        let op = GmdjOp::new(vec![GmdjBlock::new(
            vec![AggSpec::count_star("c")],
            Expr::base(0).eq(Expr::detail(0)),
        )]);
        // Hash and nested loop must agree: NULL = NULL is not TRUE.
        for strat in [LocalStrategy::Auto, LocalStrategy::NestedLoop] {
            let opts = EvalOptions {
                strategy: strat,
                ..Default::default()
            };
            let (out, _) = eval_gmdj_full(&b, &ScanSource::table(&t), &op, &opts).unwrap();
            let sorted = out.sorted();
            assert_eq!(sorted.row(0), &vec![Value::Null, Value::Int(0)]);
            assert_eq!(sorted.row(1), &vec![Value::Int(1), Value::Int(1)]);
        }
    }

    #[test]
    fn parallel_evaluation_matches_serial() {
        // Large enough to cross PARALLEL_MIN_ROWS, with float AVG state to
        // exercise partial-state merging.
        let schema = detail_schema();
        let rows: Vec<Vec<Value>> = (0..10_000)
            .map(|i| {
                vec![
                    Value::Int(i % 13),
                    Value::Int(i % 7),
                    Value::Int((i * 31) % 997),
                ]
            })
            .collect();
        let t = Table::from_rows(schema.clone(), &rows).unwrap();
        let b = t.distinct_project(&[0, 1]).unwrap();
        let op = GmdjOp::new(vec![GmdjBlock::new(
            vec![
                AggSpec::count_star("c"),
                AggSpec::sum(Expr::detail(2), "s").unwrap(),
                AggSpec::min(Expr::detail(2), "mn").unwrap(),
                AggSpec::max(Expr::detail(2), "mx").unwrap(),
                AggSpec::avg(Expr::detail(2), "av").unwrap(),
            ],
            Expr::base(0)
                .eq(Expr::detail(0))
                .and(Expr::base(1).eq(Expr::detail(1))),
        )]);
        let serial =
            eval_gmdj_full(&b, &ScanSource::table(&t), &op, &EvalOptions::default()).unwrap();
        for par in [2usize, 3, 8] {
            let opts = EvalOptions {
                parallelism: par,
                ..Default::default()
            };
            let (out, stats) = eval_gmdj_full(&b, &ScanSource::table(&t), &op, &opts).unwrap();
            assert_eq!(out.sorted(), serial.0.sorted(), "parallelism {par}");
            assert_eq!(stats.matches, serial.1.matches);
            assert_eq!(stats.detail_rows_scanned, serial.1.detail_rows_scanned);
        }
        // Match counts survive parallel merging too.
        let opts = EvalOptions {
            parallelism: 4,
            with_match_count: true,
            ..Default::default()
        };
        let (sub_par, _) = eval_gmdj_sub(&b, &ScanSource::table(&t), &op, &opts).unwrap();
        let opts_serial = EvalOptions {
            with_match_count: true,
            ..Default::default()
        };
        let (sub_ser, _) = eval_gmdj_sub(&b, &ScanSource::table(&t), &op, &opts_serial).unwrap();
        assert_eq!(sub_par.sorted(), sub_ser.sorted());
    }

    #[test]
    fn small_inputs_stay_serial() {
        // Below the threshold the parallel request falls back to the serial
        // path (observable only through identical results — this pins the
        // no-crash behaviour for tiny inputs and parallelism > rows).
        let opts = EvalOptions {
            parallelism: 64,
            ..Default::default()
        };
        let (out, _) =
            eval_gmdj_full(&base(), &ScanSource::table(&flow()), &count_sum_op(), &opts).unwrap();
        let (reference, _) = eval_gmdj_full(
            &base(),
            &ScanSource::table(&flow()),
            &count_sum_op(),
            &EvalOptions::default(),
        )
        .unwrap();
        assert_eq!(out.sorted(), reference.sorted());
    }

    /// The default options route supported blocks through compiled kernels;
    /// disabling compilation must give identical results and identical
    /// strategy counters.
    #[test]
    fn compiled_path_agrees_with_interpreter() {
        let op = GmdjOp::new(vec![
            GmdjBlock::new(
                vec![
                    AggSpec::count_star("c"),
                    AggSpec::sum(Expr::detail(2), "s").unwrap(),
                    AggSpec::min(Expr::detail(2), "mn").unwrap(),
                    AggSpec::max(Expr::detail(2), "mx").unwrap(),
                    AggSpec::avg(Expr::detail(2), "av").unwrap(),
                ],
                Expr::base(0)
                    .eq(Expr::detail(0))
                    .and(Expr::base(1).eq(Expr::detail(1))),
            ),
            GmdjBlock::new(
                vec![AggSpec::count_star("big")],
                Expr::base(0)
                    .eq(Expr::detail(0))
                    .and(Expr::detail(2).gt(Expr::lit(60))),
            ),
        ]);
        let compiled_opts = EvalOptions::default();
        assert!(compiled_opts.compiled);
        let interp_opts = EvalOptions {
            compiled: false,
            ..Default::default()
        };
        let (a, sa) =
            eval_gmdj_full(&base(), &ScanSource::table(&flow()), &op, &compiled_opts).unwrap();
        let (b, sb) =
            eval_gmdj_full(&base(), &ScanSource::table(&flow()), &op, &interp_opts).unwrap();
        assert_eq!(a.sorted(), b.sorted());
        assert_eq!(sa.matches, sb.matches);
        assert_eq!(sa.blocks_hashed, sb.blocks_hashed);
        // Block 1 is a pure equi-join; block 2 carries a detail-only hash
        // residual, which compiles to a per-batch selection bitmap.
        assert_eq!(sa.blocks_compiled, 2);
        assert_eq!(sb.blocks_compiled, 0);
    }

    /// A nested-loop block with an inequality-only θ compiles to a
    /// predicate-bitmap scan.
    #[test]
    fn compiled_nested_loop_predicate() {
        let op = GmdjOp::new(vec![GmdjBlock::new(
            vec![AggSpec::count_star("lt_cnt")],
            Expr::detail(2).lt(Expr::base(2)),
        )]);
        let b = Relation::new(
            Arc::new(
                Schema::from_pairs([
                    ("sas", DataType::Int64),
                    ("das", DataType::Int64),
                    ("cap", DataType::Int64),
                ])
                .unwrap(),
            ),
            vec![
                vec![Value::Int(1), Value::Int(10), Value::Int(80)],
                vec![Value::Int(2), Value::Int(20), Value::Int(500)],
            ],
        )
        .unwrap();
        let (out, stats) = eval_gmdj_full(
            &b,
            &ScanSource::table(&flow()),
            &op,
            &EvalOptions::default(),
        )
        .unwrap();
        assert_eq!(stats.blocks_compiled, 1);
        assert_eq!(stats.blocks_nested, 1);
        let sorted = out.sorted();
        // nb values: 100, 300, 50, 75 → (<80): 2 rows; (<500): 4 rows.
        assert_eq!(sorted.row(0)[3], Value::Int(2));
        assert_eq!(sorted.row(1)[3], Value::Int(4));
        // Interpreter agrees.
        let (out2, s2) = eval_gmdj_full(
            &b,
            &ScanSource::table(&flow()),
            &op,
            &EvalOptions {
                compiled: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(out.sorted(), out2.sorted());
        assert_eq!(s2.blocks_compiled, 0);
    }

    /// A base value that does not match its declared column type (an
    /// unchecked relation) sends exactly its match pairs back to the
    /// interpreter; the answer is unchanged.
    #[test]
    fn compiled_residual_with_mistyped_base_value() {
        let big = 1i64 << 53;
        let t = Table::from_rows(
            detail_schema(),
            &[
                vec![Value::Int(1), Value::Int(10), Value::Int(big)],
                vec![Value::Int(2), Value::Int(20), Value::Int(50)],
            ],
        )
        .unwrap();
        let schema = Arc::new(
            Schema::from_pairs([("sas", DataType::Int64), ("cap", DataType::Float64)]).unwrap(),
        );
        // `cap` is declared Float64, but row 0 holds an Int that no f64
        // represents: only the exact interpreter comparison sees
        // 2^53 < 2^53 + 1.
        let b = Relation::from_rows_unchecked(
            schema,
            vec![
                vec![Value::Int(1), Value::Int(big + 1)],
                vec![Value::Int(2), Value::Float(60.0)],
            ],
        );
        let op = GmdjOp::new(vec![GmdjBlock::new(
            vec![AggSpec::count_star("c")],
            Expr::base(0)
                .eq(Expr::detail(0))
                .and(Expr::detail(2).lt(Expr::base(1))),
        )]);
        let (out, stats) =
            eval_gmdj_full(&b, &ScanSource::table(&t), &op, &EvalOptions::default()).unwrap();
        assert_eq!(stats.blocks_compiled, 1);
        assert_eq!(out.row(0)[2], Value::Int(1));
        assert_eq!(out.row(1)[2], Value::Int(1));
    }

    /// Parallel fan-out hands each worker a table window; the compiled path
    /// must count once per worker-block and still merge correctly.
    #[test]
    fn parallel_compiled_matches_serial() {
        let schema = detail_schema();
        let rows: Vec<Vec<Value>> = (0..8_192)
            .map(|i| {
                vec![
                    Value::Int(i % 5),
                    Value::Int(i % 3),
                    Value::Int((i * 37) % 211),
                ]
            })
            .collect();
        let t = Table::from_rows(schema.clone(), &rows).unwrap();
        let b = t.distinct_project(&[0, 1]).unwrap();
        let op = count_sum_op();
        let serial =
            eval_gmdj_full(&b, &ScanSource::table(&t), &op, &EvalOptions::default()).unwrap();
        assert_eq!(serial.1.blocks_compiled, 1);
        let opts = EvalOptions {
            parallelism: 4,
            ..Default::default()
        };
        let (out, stats) = eval_gmdj_full(&b, &ScanSource::table(&t), &op, &opts).unwrap();
        assert_eq!(out.sorted(), serial.0.sorted());
        assert!(stats.blocks_compiled >= 1);
    }

    /// NULL detail values flow through compiled kernels: null join keys
    /// never match, and null aggregate arguments are skipped by SUM.
    #[test]
    fn compiled_handles_null_keys_and_args() {
        let schema = detail_schema();
        let t = Table::from_rows(
            schema.clone(),
            &[
                vec![Value::Int(1), Value::Int(10), Value::Int(5)],
                vec![Value::Null, Value::Int(10), Value::Int(7)],
                vec![Value::Int(1), Value::Int(10), Value::Null],
            ],
        )
        .unwrap();
        let b = Relation::new(
            Arc::new(schema.project(&[0]).unwrap()),
            vec![vec![Value::Int(1)], vec![Value::Null]],
        )
        .unwrap();
        let op = GmdjOp::new(vec![GmdjBlock::new(
            vec![
                AggSpec::count_star("c"),
                AggSpec::sum(Expr::detail(2), "s").unwrap(),
            ],
            Expr::base(0).eq(Expr::detail(0)),
        )]);
        let (out, stats) =
            eval_gmdj_full(&b, &ScanSource::table(&t), &op, &EvalOptions::default()).unwrap();
        assert_eq!(stats.blocks_compiled, 1);
        let sorted = out.sorted();
        // NULL base key matches nothing; group 1 sees rows {5, NULL}.
        assert_eq!(
            sorted.row(0),
            &vec![Value::Null, Value::Int(0), Value::Null]
        );
        assert_eq!(
            sorted.row(1),
            &vec![Value::Int(1), Value::Int(2), Value::Int(5)]
        );
    }

    fn write_flow_segments(name: &str, t: &Table, seg_rows: usize) -> SegmentFile {
        let dir =
            std::env::temp_dir().join(format!("skalla-gmdj-seg-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.seg");
        skalla_storage::write_segments(&path, t, seg_rows).unwrap();
        SegmentFile::open(&path).unwrap()
    }

    #[test]
    fn segmented_eval_matches_in_memory() {
        let schema = detail_schema();
        let rows: Vec<Vec<Value>> = (0..5_000)
            .map(|i| {
                vec![
                    Value::Int(i % 13),
                    Value::Int(i % 7),
                    Value::Int(i), // monotone → prunable under range θ
                ]
            })
            .collect();
        let t = Table::from_rows(schema.clone(), &rows).unwrap();
        let b = t.distinct_project(&[0, 1]).unwrap();
        let file = write_flow_segments("match", &t, 512);
        let op = GmdjOp::new(vec![GmdjBlock::new(
            vec![
                AggSpec::count_star("c"),
                AggSpec::sum(Expr::detail(2), "s").unwrap(),
            ],
            Expr::base(0)
                .eq(Expr::detail(0))
                .and(Expr::base(1).eq(Expr::detail(1)))
                .and(Expr::detail(2).lt(Expr::lit(1000))),
        )]);
        let opts = EvalOptions {
            with_match_count: true,
            ..Default::default()
        };
        let (mem, _) = eval_gmdj_sub(&b, &ScanSource::table(&t), &op, &opts).unwrap();
        let (seg, sc) = eval_gmdj_sub(&b, &ScanSource::segments(&file), &op, &opts).unwrap();
        assert_eq!(seg.sorted(), mem.sorted());
        // nb < 1000 covers segments 0..2 (rows 0..1024): 2 scanned, 8 pruned.
        assert_eq!(sc.segments_scanned, 2);
        assert_eq!(sc.segments_pruned, 8);
        // Pruning off scans everything and still agrees.
        let unpruned = ScanSource::segments(&file).with_prune(false);
        let (seg2, sc2) = eval_gmdj_sub(&b, &unpruned, &op, &opts).unwrap();
        assert_eq!(seg2.sorted(), mem.sorted());
        assert_eq!(sc2.segments_scanned, 10);
        assert_eq!(sc2.segments_pruned, 0);
    }

    #[test]
    fn segmented_range_matches_row_range() {
        let schema = detail_schema();
        let rows: Vec<Vec<Value>> = (0..3_000)
            .map(|i| {
                vec![
                    Value::Int(i % 5),
                    Value::Int(i % 3),
                    Value::Int(i * 7 % 999),
                ]
            })
            .collect();
        let t = Table::from_rows(schema.clone(), &rows).unwrap();
        let b = t.distinct_project(&[0]).unwrap();
        let file = write_flow_segments("range", &t, 256);
        let op = GmdjOp::new(vec![GmdjBlock::new(
            vec![AggSpec::sum(Expr::detail(2), "s").unwrap()],
            Expr::base(0).eq(Expr::detail(0)),
        )]);
        let opts = EvalOptions::default();
        // A window cutting through segment interiors (300..2050).
        let window = t.row_range(300, 2050).unwrap();
        let (mem, _) = eval_gmdj_full(&b, &ScanSource::table(&window), &op, &opts).unwrap();
        let range = ScanSource::new([(Store::Segments(&file), 300..2050)]).unwrap();
        let dual_seg = eval_gmdj_dual(&b, &range, &op, &opts).unwrap();
        let sc = dual_seg.stats;
        assert_eq!(dual_seg.full.sorted(), mem.sorted());
        // Rows 300..2050 touch segments 1..=8 of 12.
        assert_eq!(sc.segments_scanned + sc.segments_pruned, 8);
        // The state view agrees too.
        let dual_mem = eval_gmdj_dual(&b, &ScanSource::table(&window), &op, &opts).unwrap();
        assert_eq!(dual_seg.full.sorted(), dual_mem.full.sorted());
        assert_eq!(dual_seg.states, dual_mem.states);
        assert_eq!(dual_seg.match_counts, dual_mem.match_counts);
    }

    #[test]
    fn segmented_pruning_never_drops_matches() {
        // NaN/-0.0 payloads + a predicate riding the run boundary: the zone
        // check must keep every segment that holds a matching row.
        let schema = Schema::from_pairs([("g", DataType::Int64), ("x", DataType::Float64)])
            .unwrap()
            .into_arc();
        let rows: Vec<Vec<Value>> = (0..2_000)
            .map(|i| {
                vec![
                    Value::Int(i % 4),
                    if i % 41 == 0 {
                        Value::Float(f64::NAN)
                    } else if i % 29 == 0 {
                        Value::Float(-0.0)
                    } else if i % 11 == 0 {
                        Value::Null
                    } else {
                        Value::Float((i as f64) - 1000.0)
                    },
                ]
            })
            .collect();
        let t = Table::from_rows(schema.clone(), &rows).unwrap();
        let b = t.distinct_project(&[0]).unwrap();
        let file = write_flow_segments("nan", &t, 128);
        for theta_extra in [
            Expr::detail(1).ge(Expr::lit(0.0)),
            Expr::detail(1).lt(Expr::lit(-500.0)),
            Expr::detail(1).eq(Expr::lit(-0.0)),
        ] {
            let op = GmdjOp::new(vec![GmdjBlock::new(
                vec![AggSpec::count_star("c")],
                Expr::base(0).eq(Expr::detail(0)).and(theta_extra),
            )]);
            let opts = EvalOptions::default();
            let (mem, _) = eval_gmdj_full(&b, &ScanSource::table(&t), &op, &opts).unwrap();
            let seg = eval_gmdj_dual(&b, &ScanSource::segments(&file), &op, &opts).unwrap();
            assert_eq!(seg.full.sorted(), mem.sorted());
        }
    }

    /// The block counters count each operator block once per scan: the
    /// serial scan, the parallel in-memory scan and the segment scan (many
    /// segment windows, cut into worker ranges, or all pruned) agree.
    #[test]
    fn block_counters_count_each_block_once_per_scan() {
        let schema = detail_schema();
        let rows: Vec<Vec<Value>> = (0..6_000)
            .map(|i| vec![Value::Int(i % 5), Value::Int(i % 3), Value::Int(i)])
            .collect();
        let t = Table::from_rows(schema.clone(), &rows).unwrap();
        let b = t.distinct_project(&[0, 1]).unwrap();
        let file = write_flow_segments("counters", &t, 512);
        let op = GmdjOp::new(vec![
            GmdjBlock::new(
                vec![AggSpec::sum(Expr::detail(2), "s").unwrap()],
                Expr::base(0)
                    .eq(Expr::detail(0))
                    .and(Expr::detail(2).ge(Expr::base(1))),
            ),
            GmdjBlock::new(
                vec![AggSpec::count_star("c")],
                Expr::detail(1).lt(Expr::base(1)),
            ),
        ]);
        let want = EvalStats {
            blocks_hashed: 1,
            blocks_nested: 1,
            blocks_compiled: 2,
            ..Default::default()
        };
        let blocks = |s: EvalStats| (s.blocks_hashed, s.blocks_nested, s.blocks_compiled);
        for par in [1, 3] {
            let opts = EvalOptions {
                parallelism: par,
                ..Default::default()
            };
            let (mem, sm) = eval_gmdj_sub(&b, &ScanSource::table(&t), &op, &opts).unwrap();
            let (seg, ss) = eval_gmdj_sub(&b, &ScanSource::segments(&file), &op, &opts).unwrap();
            assert_eq!(seg, mem, "parallelism {par}");
            assert_eq!(ss.segments_scanned, 12);
            assert_eq!(blocks(sm), blocks(want), "in-memory, parallelism {par}");
            assert_eq!(blocks(ss), blocks(want), "segments, parallelism {par}");
            assert_eq!(ss.matches, sm.matches);
            assert_eq!(ss.detail_rows_scanned, sm.detail_rows_scanned);
        }
        // Every segment pruned: the blocks were still planned once each.
        let pruned = GmdjOp::new(vec![GmdjBlock::new(
            vec![AggSpec::count_star("c")],
            Expr::base(0)
                .eq(Expr::detail(0))
                .and(Expr::detail(2).lt(Expr::lit(-1))),
        )]);
        let opts = EvalOptions::default();
        let (_, ss) = eval_gmdj_sub(&b, &ScanSource::segments(&file), &pruned, &opts).unwrap();
        let (_, sm) = eval_gmdj_sub(&b, &ScanSource::table(&t), &pruned, &opts).unwrap();
        assert_eq!(ss.segments_pruned, 12);
        assert_eq!(blocks(ss), (1, 0, 1));
        assert_eq!(blocks(ss), blocks(sm));
        // The interpreter counts the same blocks, none compiled.
        let interp = EvalOptions {
            compiled: false,
            ..Default::default()
        };
        let unpruned = ScanSource::segments(&file).with_prune(false);
        let (_, si) = eval_gmdj_sub(&b, &unpruned, &op, &interp).unwrap();
        assert_eq!(blocks(si), (1, 1, 0));
    }

    #[test]
    fn empty_detail_yields_identity_aggregates() {
        let t = Table::empty(detail_schema());
        let (out, stats) = eval_gmdj_full(
            &base(),
            &ScanSource::table(&t),
            &count_sum_op(),
            &EvalOptions::default(),
        )
        .unwrap();
        assert_eq!(out.len(), 3);
        for r in out.rows() {
            assert_eq!(r[2], Value::Int(0));
            assert_eq!(r[3], Value::Null);
        }
        assert_eq!(stats.matches, 0);
    }
}
