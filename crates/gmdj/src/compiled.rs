//! Compiled batch accumulation for GMDJ blocks.
//!
//! When the detail source is (a contiguous window of) a columnar
//! [`Table`], a block whose condition and aggregate arguments fall inside
//! the compiled subset of [`skalla_expr::compile`] is evaluated batch-at-a
//! time: aggregate arguments are lowered to [`CompiledScalar`] programs
//! evaluated once per batch (they are detail-only, so the lanes are shared
//! across every base tuple), and matches fold into *typed* per-group
//! accumulators instead of `Value` state cells. The condition runs one of
//! two ways:
//!
//! * **Hash** — θ has equi-join conjuncts `b.k = r.j`: detail keys probe
//!   the base hash index. The rest of θ (the *residual*, e.g.
//!   `r.orderdate >= 90` or `r.extendedprice >= b.avg1`) runs in two
//!   steps. Its longest detail-only conjunct prefix is one selection
//!   bitmap per batch, and rows where it is definitely FALSE skip the
//!   probe. A residual that reads base columns is then evaluated over
//!   lanes gathered from the batch's `(base row, detail row)` match pairs.
//! * **Nested** — general θ: a [`CompiledPred`] selection bitmap per base
//!   tuple per batch.
//!
//! The typed state converts back into the interpreter's `Vec<Value>`
//! representation at block end, so everything downstream (merge, finalize,
//! wire shipping) is unchanged. Matches fold in the interpreter's order
//! (detail row, then index order), so float folds agree bit for bit.
//!
//! Deferred-error lanes are resolved by re-running the interpreter on just
//! the flagged rows or pairs, which keeps error behaviour (division by
//! zero, SUM overflow, …) identical to the row-at-a-time path.

use skalla_expr::compile::{Batch, CompiledPred, CompiledScalar, Lanes, ScalarLanes, BATCH_ROWS};
use skalla_expr::{analysis, eval_detail, eval_predicate, Expr};
use skalla_storage::{Column, Table};
use skalla_types::{
    total_cmp_f64, DataType, Field, Relation, Result, Row, Schema, SkallaError, Value,
};
use std::sync::Arc;

use crate::agg::{AggFunc, AggSpec};
use crate::eval::{EvalStats, HashJoin};
use crate::op::GmdjBlock;

/// One GMDJ block lowered onto the batch path.
pub(crate) struct CompiledBlock {
    /// Per-aggregate compiled argument (`None` for `COUNT(*)`).
    args: Vec<Option<CompiledScalar>>,
    plan: Plan,
}

enum Plan {
    /// θ has equi-join conjuncts: probe the base hash index with detail
    /// keys, then test the residual (`None` when θ is a pure equi-join).
    Hash { residual: Option<Residual> },
    /// General θ: evaluate a compiled predicate per base tuple over each
    /// batch.
    Nested { pred: CompiledPred },
}

/// A hash block's residual, lowered for batch evaluation.
struct Residual {
    /// The residual as the interpreter tests it per index candidate: the
    /// left-deep conjunction of θ's non-equi-join conjuncts. Error lanes
    /// resolve through it on exactly the pair that raised them.
    expr: Expr,
    /// The longest prefix of the residual's conjuncts that reads only
    /// detail columns, evaluated once per batch with an empty base row. A
    /// row where it is definitely FALSE fails the residual for every
    /// candidate without an error, because the interpreter's AND
    /// short-circuits left to right, so the row skips the probe.
    prefix: Option<CompiledPred>,
    /// The whole residual over match pairs, when it reads base columns.
    /// `None` means the residual is detail-only and `prefix` is all of it.
    pairs: Option<PairPred>,
}

/// A base-referencing residual compiled against a compact schema — the
/// detail columns it reads, then the base columns it reads re-addressed as
/// detail columns — and evaluated over lanes gathered from `(base row,
/// detail row)` pairs.
struct PairPred {
    pred: CompiledPred,
    detail_cols: Vec<usize>,
    base_cols: Vec<usize>,
    /// Declared type of each gathered column, detail columns first.
    types: Vec<DataType>,
}

impl Residual {
    fn compile(expr: &Expr, base: &Schema, detail: &Schema) -> Option<Residual> {
        let conjuncts = analysis::conjuncts(expr);
        let n_prefix = conjuncts.iter().take_while(|c| c.is_detail_only()).count();
        let prefix = match n_prefix {
            0 => None,
            n => {
                let prefix = Expr::conjunction(conjuncts[..n].iter().map(|c| (*c).clone()));
                Some(CompiledPred::compile(&prefix, base, detail)?)
            }
        };
        let pairs = if n_prefix == conjuncts.len() {
            None
        } else {
            Some(PairPred::compile(expr, base, detail)?)
        };
        Some(Residual {
            expr: expr.clone(),
            prefix,
            pairs,
        })
    }
}

impl PairPred {
    fn compile(expr: &Expr, base: &Schema, detail: &Schema) -> Option<PairPred> {
        let detail_cols: Vec<usize> = analysis::detail_cols_used(expr).into_iter().collect();
        let base_cols: Vec<usize> = analysis::base_cols_used(expr).into_iter().collect();
        let mut fields = Vec::with_capacity(detail_cols.len() + base_cols.len());
        for &c in &detail_cols {
            fields.push(Field::new(format!("r{c}"), detail.fields().get(c)?.dtype));
        }
        for &c in &base_cols {
            fields.push(Field::new(format!("b{c}"), base.fields().get(c)?.dtype));
        }
        let compact = Schema::new(fields).ok()?;
        let pos =
            |cols: &[usize], c: usize| cols.binary_search(&c).expect("column collected above");
        let remapped = expr.base_into_detail(&|b| detail_cols.len() + pos(&base_cols, b), &|d| {
            pos(&detail_cols, d)
        });
        Some(PairPred {
            pred: CompiledPred::compile(&remapped, &Schema::empty(), &compact)?,
            types: compact.fields().iter().map(|f| f.dtype).collect(),
            detail_cols,
            base_cols,
        })
    }

    /// Evaluate over `pairs` (`(base row, detail lane)` of `batch`). A base
    /// value that does not match its declared type becomes an error lane,
    /// so the interpreter decides that pair exactly as the kernels'
    /// `Base` lookups would.
    fn eval(&self, pairs: &[(u32, u32)], batch: &Batch<'_>, base: &[Row]) -> Lanes<bool> {
        let mut cols: Vec<Column> = self
            .types
            .iter()
            .map(|&t| Column::with_capacity(t, pairs.len()))
            .collect();
        let (detail, base_side) = cols.split_at_mut(self.detail_cols.len());
        for (col, &c) in detail.iter_mut().zip(&self.detail_cols) {
            for &(_, i) in pairs {
                col.push(batch.cols[c].value(i as usize))
                    .expect("detail lanes carry the column's type");
            }
        }
        let mut mismatched = Vec::new();
        for (col, &c) in base_side.iter_mut().zip(&self.base_cols) {
            let dtype = col.data_type();
            for (k, &(bi, _)) in pairs.iter().enumerate() {
                let v = &base[bi as usize][c];
                let v = if v.data_type().is_none_or(|t| t == dtype) {
                    v.clone()
                } else {
                    mismatched.push(k);
                    Value::Null
                };
                col.push(v).expect("value type checked above");
            }
        }
        let lanes = Batch::new(
            cols.iter().map(|c| c.batch(0, pairs.len())).collect(),
            pairs.len(),
        );
        let mut sel = self.pred.eval_batch(&[], &lanes);
        for k in mismatched {
            sel.errs[k] = true;
        }
        sel
    }
}

/// Typed per-group accumulator state for one aggregate. The variant is
/// picked from `(AggFunc, argument type)` at compile time; unsupported
/// combinations make the whole block fall back to the interpreter.
enum Acc {
    Count {
        counts: Vec<i64>,
        has_arg: bool,
    },
    SumI {
        sums: Vec<i64>,
        seen: Vec<bool>,
    },
    SumF {
        sums: Vec<f64>,
        seen: Vec<bool>,
    },
    AvgI {
        sums: Vec<i64>,
        counts: Vec<i64>,
    },
    AvgF {
        sums: Vec<f64>,
        counts: Vec<i64>,
    },
    MinMaxI {
        best: Vec<i64>,
        seen: Vec<bool>,
        is_min: bool,
    },
    MinMaxF {
        best: Vec<f64>,
        seen: Vec<bool>,
        is_min: bool,
    },
    MinMaxS {
        best: Vec<Option<Arc<str>>>,
        is_min: bool,
    },
}

impl Acc {
    fn new(spec: &AggSpec, arg_type: Option<DataType>, n_groups: usize) -> Option<Acc> {
        Some(match (spec.func, arg_type) {
            (AggFunc::Count, _) => Acc::Count {
                counts: vec![0; n_groups],
                has_arg: spec.arg.is_some(),
            },
            (AggFunc::Sum, Some(DataType::Int64)) => Acc::SumI {
                sums: vec![0; n_groups],
                seen: vec![false; n_groups],
            },
            (AggFunc::Sum, Some(DataType::Float64)) => Acc::SumF {
                sums: vec![0.0; n_groups],
                seen: vec![false; n_groups],
            },
            (AggFunc::Avg, Some(DataType::Int64)) => Acc::AvgI {
                sums: vec![0; n_groups],
                counts: vec![0; n_groups],
            },
            (AggFunc::Avg, Some(DataType::Float64)) => Acc::AvgF {
                sums: vec![0.0; n_groups],
                counts: vec![0; n_groups],
            },
            (AggFunc::Min | AggFunc::Max, Some(t)) => {
                let is_min = spec.func == AggFunc::Min;
                match t {
                    DataType::Int64 => Acc::MinMaxI {
                        best: vec![0; n_groups],
                        seen: vec![false; n_groups],
                        is_min,
                    },
                    DataType::Float64 => Acc::MinMaxF {
                        best: vec![0.0; n_groups],
                        seen: vec![false; n_groups],
                        is_min,
                    },
                    DataType::Utf8 => Acc::MinMaxS {
                        best: vec![None; n_groups],
                        is_min,
                    },
                    // MIN/MAX over booleans stays on the interpreter.
                    DataType::Bool => return None,
                }
            }
            _ => return None,
        })
    }

    /// Seed group `g`'s typed state from the interpreter `Value` cells at
    /// `state[off..]` — the exact inverse of [`Acc::write_state`] (NULL ⇔
    /// nothing folded yet). This lets a compiled run *resume* a fold begun
    /// by an earlier run over a previous chunk of the same detail scan, so
    /// chunked out-of-core scans reproduce the single-pass left-fold (and
    /// its float rounding) bit for bit.
    fn load_state(&mut self, g: usize, state: &[Value], off: usize) {
        match self {
            Acc::Count { counts, .. } => {
                if let Value::Int(c) = state[off] {
                    counts[g] = c;
                }
            }
            Acc::SumI { sums, seen } => {
                if let Value::Int(v) = state[off] {
                    sums[g] = v;
                    seen[g] = true;
                }
            }
            Acc::SumF { sums, seen } => {
                if let Value::Float(v) = state[off] {
                    sums[g] = v;
                    seen[g] = true;
                }
            }
            Acc::AvgI { sums, counts } => {
                if let (Value::Int(s), Value::Int(c)) = (&state[off], &state[off + 1]) {
                    sums[g] = *s;
                    counts[g] = *c;
                }
            }
            Acc::AvgF { sums, counts } => {
                if let (Value::Float(s), Value::Int(c)) = (&state[off], &state[off + 1]) {
                    sums[g] = *s;
                    counts[g] = *c;
                }
            }
            Acc::MinMaxI { best, seen, .. } => {
                if let Value::Int(v) = state[off] {
                    best[g] = v;
                    seen[g] = true;
                }
            }
            Acc::MinMaxF { best, seen, .. } => {
                if let Value::Float(v) = state[off] {
                    best[g] = v;
                    seen[g] = true;
                }
            }
            Acc::MinMaxS { best, .. } => {
                if let Value::Str(s) = &state[off] {
                    best[g] = Some(s.clone());
                }
            }
        }
    }

    /// Fold the matched lane `i` of this batch into group `g`. Lanes must
    /// have had their error flags resolved already.
    fn accumulate(&mut self, g: usize, lanes: Option<&ScalarLanes>, i: usize) -> Result<()> {
        match (self, lanes) {
            (Acc::Count { counts, has_arg }, l) => {
                let null_arg = match l {
                    Some(l) => l.is_null(i),
                    None => false,
                };
                if !*has_arg || !null_arg {
                    counts[g] += 1;
                }
            }
            (Acc::SumI { sums, seen }, Some(ScalarLanes::I64(l))) => {
                if !l.nulls[i] {
                    if seen[g] {
                        sums[g] = sums[g]
                            .checked_add(l.vals[i])
                            .ok_or_else(|| SkallaError::arithmetic("SUM overflow"))?;
                    } else {
                        sums[g] = l.vals[i];
                        seen[g] = true;
                    }
                }
            }
            (Acc::SumF { sums, seen }, Some(ScalarLanes::F64(l))) => {
                if !l.nulls[i] {
                    if seen[g] {
                        sums[g] += l.vals[i];
                    } else {
                        sums[g] = l.vals[i];
                        seen[g] = true;
                    }
                }
            }
            (Acc::AvgI { sums, counts }, Some(ScalarLanes::I64(l))) => {
                if !l.nulls[i] {
                    if counts[g] > 0 {
                        sums[g] = sums[g]
                            .checked_add(l.vals[i])
                            .ok_or_else(|| SkallaError::arithmetic("SUM overflow"))?;
                    } else {
                        sums[g] = l.vals[i];
                    }
                    counts[g] += 1;
                }
            }
            (Acc::AvgF { sums, counts }, Some(ScalarLanes::F64(l))) => {
                if !l.nulls[i] {
                    if counts[g] > 0 {
                        sums[g] += l.vals[i];
                    } else {
                        sums[g] = l.vals[i];
                    }
                    counts[g] += 1;
                }
            }
            (Acc::MinMaxI { best, seen, is_min }, Some(ScalarLanes::I64(l))) => {
                if !l.nulls[i] {
                    let v = l.vals[i];
                    if !seen[g] || (*is_min && v < best[g]) || (!*is_min && v > best[g]) {
                        best[g] = v;
                        seen[g] = true;
                    }
                }
            }
            (Acc::MinMaxF { best, seen, is_min }, Some(ScalarLanes::F64(l))) => {
                if !l.nulls[i] {
                    let v = l.vals[i];
                    let ord = total_cmp_f64(v, best[g]);
                    if !seen[g] || (*is_min && ord.is_lt()) || (!*is_min && ord.is_gt()) {
                        best[g] = v;
                        seen[g] = true;
                    }
                }
            }
            (Acc::MinMaxS { best, is_min }, Some(ScalarLanes::Str(l))) => {
                if !l.nulls[i] {
                    let v = &l.vals[i];
                    let better = match &best[g] {
                        None => true,
                        Some(b) => {
                            if *is_min {
                                v < b
                            } else {
                                v > b
                            }
                        }
                    };
                    if better {
                        best[g] = Some(v.clone());
                    }
                }
            }
            _ => return Err(SkallaError::exec("compiled accumulator/lane type mismatch")),
        }
        Ok(())
    }

    /// Convert group `g`'s typed state back into interpreter `Value` state
    /// cells at `state[off..]`.
    fn write_state(&self, g: usize, state: &mut [Value], off: usize) {
        match self {
            Acc::Count { counts, .. } => state[off] = Value::Int(counts[g]),
            Acc::SumI { sums, seen } => {
                state[off] = if seen[g] {
                    Value::Int(sums[g])
                } else {
                    Value::Null
                };
            }
            Acc::SumF { sums, seen } => {
                state[off] = if seen[g] {
                    Value::Float(sums[g])
                } else {
                    Value::Null
                };
            }
            Acc::AvgI { sums, counts } => {
                state[off] = if counts[g] > 0 {
                    Value::Int(sums[g])
                } else {
                    Value::Null
                };
                state[off + 1] = Value::Int(counts[g]);
            }
            Acc::AvgF { sums, counts } => {
                state[off] = if counts[g] > 0 {
                    Value::Float(sums[g])
                } else {
                    Value::Null
                };
                state[off + 1] = Value::Int(counts[g]);
            }
            Acc::MinMaxI { best, seen, .. } => {
                state[off] = if seen[g] {
                    Value::Int(best[g])
                } else {
                    Value::Null
                };
            }
            Acc::MinMaxF { best, seen, .. } => {
                state[off] = if seen[g] {
                    Value::Float(best[g])
                } else {
                    Value::Null
                };
            }
            Acc::MinMaxS { best, .. } => {
                state[off] = match &best[g] {
                    Some(s) => Value::Str(s.clone()),
                    None => Value::Null,
                };
            }
        }
    }
}

/// Try to lower `block` onto the batch path. `join` is the hash strategy's
/// probe structure (`None`: nested loop). Returns `None` (interpreter
/// fallback for this block) when the condition or any aggregate falls
/// outside the compiled subset.
pub(crate) fn compile_block(
    block: &GmdjBlock,
    base_schema: &Schema,
    detail_schema: &Schema,
    join: Option<&HashJoin>,
) -> Option<CompiledBlock> {
    let plan = match join {
        Some(join) => Plan::Hash {
            residual: match &join.residual {
                r if *r == Expr::lit(true) => None,
                r => Some(Residual::compile(r, base_schema, detail_schema)?),
            },
        },
        None => Plan::Nested {
            pred: CompiledPred::compile(&block.theta, base_schema, detail_schema)?,
        },
    };

    let mut args = Vec::with_capacity(block.aggs.len());
    for spec in &block.aggs {
        let compiled = match &spec.arg {
            None => None,
            Some(e) => {
                let c = CompiledScalar::compile(e, base_schema, detail_schema)?;
                // Probe accumulator support with a zero-group instance.
                Acc::new(spec, Some(c.data_type()), 0)?;
                Some(c)
            }
        };
        args.push(compiled);
    }
    Some(CompiledBlock { args, plan })
}

/// Run one compiled block over rows `t_start..t_start + t_len` of `table`,
/// folding matches into `states`/`match_counts` exactly as the interpreter
/// path would.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_block(
    cb: &CompiledBlock,
    block: &GmdjBlock,
    block_off: usize,
    join: Option<&HashJoin>,
    base: &Relation,
    table: &Table,
    t_start: usize,
    t_len: usize,
    states: &mut [Vec<Value>],
    match_counts: &mut [u64],
    stats: &mut EvalStats,
) -> Result<()> {
    let n_groups = base.len();
    let mut offsets = Vec::with_capacity(block.aggs.len());
    let mut off = block_off;
    for spec in &block.aggs {
        offsets.push(off);
        off += spec.state_width();
    }
    let mut accs: Vec<Acc> = Vec::with_capacity(block.aggs.len());
    for (spec, arg) in block.aggs.iter().zip(&cb.args) {
        let acc = Acc::new(spec, arg.as_ref().map(CompiledScalar::data_type), n_groups)
            .ok_or_else(|| SkallaError::exec("compiled block lost accumulator support"))?;
        accs.push(acc);
    }
    // Resume from whatever the caller already accumulated (identity on the
    // first window): a scan feeds its windows one at a time through the
    // same running state, which must continue the single-pass fold exactly.
    for (g, state) in states.iter().enumerate() {
        for (acc, &o) in accs.iter_mut().zip(&offsets) {
            acc.load_state(g, state, o);
        }
    }

    // The hash plan's match pairs `(base row, detail lane)` of one batch,
    // in probe order (reused across batches).
    let mut pairs: Vec<(u32, u32)> = Vec::new();

    let empty_base: Row = Vec::new();
    let mut key: Row = Vec::new();
    let mut start = 0;
    while start < t_len {
        let len = BATCH_ROWS.min(t_len - start);
        let batch = table.batch(t_start + start, len);
        let detail_row = |i: usize| table.row(t_start + start + i);

        // Aggregate arguments are detail-only: one evaluation per batch,
        // shared across every base tuple. Error lanes resolve through the
        // interpreter so e.g. division-by-zero surfaces identically (the
        // row-at-a-time path evaluates arguments for *all* detail rows up
        // front, matched or not).
        let mut arg_lanes: Vec<Option<ScalarLanes>> = Vec::with_capacity(cb.args.len());
        for (spec, compiled) in block.aggs.iter().zip(&cb.args) {
            match compiled {
                None => arg_lanes.push(None),
                Some(c) => {
                    let mut lanes = c.eval_batch(&empty_base, &batch);
                    if lanes.has_errs() {
                        let e = spec.arg.as_ref().expect("compiled arg implies expr");
                        for i in 0..len {
                            if lanes.is_err(i) {
                                lanes.set(i, &eval_detail(e, &detail_row(i))?)?;
                            }
                        }
                    }
                    arg_lanes.push(Some(lanes));
                }
            }
        }
        let mut fold = |bi: usize, i: usize| -> Result<()> {
            stats.matches += 1;
            match_counts[bi] += 1;
            for (acc, lanes) in accs.iter_mut().zip(&arg_lanes) {
                acc.accumulate(bi, lanes.as_ref(), i)?;
            }
            Ok(())
        };

        match &cb.plan {
            Plan::Hash { residual } => {
                let join = join.expect("hash plan has a join");
                let prefix = residual
                    .as_ref()
                    .and_then(|r| r.prefix.as_ref())
                    .map(|p| p.eval_batch(&empty_base, &batch));
                let detail_only = residual.as_ref().is_some_and(|r| r.pairs.is_none());
                pairs.clear();
                for i in 0..len {
                    if let Some(p) = &prefix {
                        // Definitely FALSE: no candidate can pass. A
                        // detail-only residual that is NULL fails without
                        // an error too.
                        if !p.errs[i]
                            && ((!p.nulls[i] && !p.vals[i]) || (detail_only && p.nulls[i]))
                        {
                            continue;
                        }
                    }
                    // NULL keys never join (SQL equality semantics).
                    if join
                        .detail_key_cols
                        .iter()
                        .any(|&c| batch.cols[c].is_null(i))
                    {
                        continue;
                    }
                    key.clear();
                    key.extend(join.detail_key_cols.iter().map(|&c| batch.cols[c].value(i)));
                    pairs.extend(join.index.get(&key).iter().map(|&bi| (bi, i as u32)));
                }

                match residual {
                    // Pure equi-join, or a detail-only residual whose
                    // per-batch lanes already decided every surviving row
                    // except its error lanes.
                    None | Some(Residual { pairs: None, .. }) => {
                        for &(bi, i) in &pairs {
                            let (bi, i) = (bi as usize, i as usize);
                            let hit = match (&prefix, residual) {
                                (Some(p), Some(r)) if p.errs[i] => {
                                    eval_predicate(&r.expr, &base.rows()[bi], &detail_row(i))?
                                }
                                _ => true,
                            };
                            if hit {
                                fold(bi, i)?;
                            }
                        }
                    }
                    Some(
                        r @ Residual {
                            pairs: Some(pp), ..
                        },
                    ) => {
                        for chunk in pairs.chunks(BATCH_ROWS) {
                            let sel = pp.eval(chunk, &batch, base.rows());
                            for (k, &(bi, i)) in chunk.iter().enumerate() {
                                let (bi, i) = (bi as usize, i as usize);
                                let hit = if sel.errs[k] {
                                    eval_predicate(&r.expr, &base.rows()[bi], &detail_row(i))?
                                } else {
                                    sel.ok(k) && sel.vals[k]
                                };
                                if hit {
                                    fold(bi, i)?;
                                }
                            }
                        }
                    }
                }
            }
            Plan::Nested { pred } => {
                for (bi, b) in base.rows().iter().enumerate() {
                    let mut sel: Lanes<bool> = pred.eval_batch(b, &batch);
                    // Resolve deferred errors with the interpreter, which
                    // also applies its short-circuit semantics exactly.
                    if sel.has_errs() {
                        for i in 0..len {
                            if sel.errs[i] {
                                sel.vals[i] = eval_predicate(&block.theta, b, &detail_row(i))?;
                                sel.nulls[i] = false;
                                sel.errs[i] = false;
                            }
                        }
                    }
                    for i in 0..len {
                        if sel.ok(i) && sel.vals[i] {
                            fold(bi, i)?;
                        }
                    }
                }
            }
        }
        start += len;
    }

    // Convert typed state back into the interpreter's Value cells.
    for (g, state) in states.iter_mut().enumerate() {
        for (acc, &o) in accs.iter().zip(&offsets) {
            acc.write_state(g, state, o);
        }
    }
    Ok(())
}
