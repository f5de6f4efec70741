//! The Skalla site worker.
//!
//! Each site is an OS thread owning its local [`Catalog`] (its partition of
//! the warehouse's fact relations) and an [`Endpoint`] into the simulated
//! network. The worker answers coordinator requests until it receives
//! [`Message::Shutdown`]. Failures are reported back as [`Message::Error`]
//! rather than crashing the fabric.

use std::hash::{Hash, Hasher};

use skalla_gmdj::{
    eval_gmdj_dual, eval_gmdj_sub, BaseSpec, EvalOptions, EvalStats, GmdjExpr, MATCH_COUNT_COL,
};
use skalla_net::Endpoint;
use skalla_storage::{
    partition_table_name, Catalog, PartFrag, PartSketch, ScanSource, SegmentFile, SpaceSaving,
};
use skalla_types::{Relation, Result, Schema, SkallaError, Value};

use crate::message::{Message, ScrubEntry};
use crate::plan::DistPlan;

/// The clock behind every `compute_s` a site reports: per-thread CPU
/// seconds. Sites are threads of one process sharing the host's cores,
/// but they model machines that each own theirs — a wall clock would
/// charge a site for time the OS spent running its neighbours, which
/// inverts every comparison that changes how much sites overlap (a
/// skew-balanced layout looks *slower* than a stragglered one on a
/// small host). Thread CPU time is what the modeled cluster would
/// measure; `RoundMetrics::site_compute_max_s` stays the true parallel
/// critical path at any host core count.
fn site_clock_s() -> f64 {
    crate::sync::thread_cpu_s()
}

/// Run the site worker loop until shutdown. Intended to be the body of a
/// spawned thread; the coordinator is node 0.
pub fn run_site(endpoint: Endpoint, catalog: Catalog) {
    run_site_with_parent(endpoint, catalog, 0)
}

/// [`run_site`] replying to an arbitrary parent node — used by the
/// multi-tier topology, where sites report to a mid-tier coordinator.
pub fn run_site_with_parent(endpoint: Endpoint, catalog: Catalog, parent: skalla_net::NodeId) {
    let mut state = SiteState {
        catalog,
        plan: None,
    };
    // One-entry reply cache keyed by `(epoch, round, task)`. The
    // coordinator re-sends a round request when its deadline expires; a
    // site that already served that exact round replays its reply (the
    // original may have been lost in transit) instead of recomputing. One
    // entry suffices: the coordinator never moves to round r+1 before
    // round r is settled, so a duplicate can only concern the latest round
    // served — the task id keeps a straggler-offload assignment from
    // replaying the site's reply for a different work set in that round.
    let mut reply_cache: Option<(u64, u32, u32, Vec<Message>)> = None;
    loop {
        let env = match endpoint.recv() {
            Ok(e) => e,
            Err(_) => return, // fabric torn down (or this site was crashed)
        };
        let (epoch, round, msg) = match Message::from_wire_framed(&env.payload) {
            Ok(m) => m,
            Err(e) => {
                let _ = reply(
                    &endpoint,
                    parent,
                    0,
                    0,
                    Message::Error {
                        msg: e.to_string(),
                        corrupt: false,
                    },
                );
                continue;
            }
        };
        if matches!(msg, Message::Shutdown) {
            return;
        }
        // Plan installs are idempotent and produce no reply; they bypass
        // the cache so a re-sent Plan + request pair still answers the
        // request.
        if let Message::Plan(p) = msg {
            state.plan = Some(p);
            continue;
        }
        let task = msg.task();
        if let Some((ce, cr, ct, cached)) = &reply_cache {
            if *ce == epoch && *cr == round && *ct == task {
                for resp in cached.clone() {
                    if reply(&endpoint, parent, epoch, round, resp).is_err() {
                        return;
                    }
                }
                continue;
            }
        }
        match state.handle(msg) {
            Ok(responses) => {
                reply_cache = Some((epoch, round, task, responses.clone()));
                for resp in responses {
                    if reply(&endpoint, parent, epoch, round, resp).is_err() {
                        return;
                    }
                }
            }
            // Errors are not cached: a retried request recomputes, which
            // also re-fails for deterministic errors but lets transient
            // conditions clear.
            Err(e) => {
                if reply(
                    &endpoint,
                    parent,
                    epoch,
                    round,
                    Message::Error {
                        msg: e.to_string(),
                        corrupt: e.is_corrupt(),
                    },
                )
                .is_err()
                {
                    return;
                }
            }
        }
    }
}

fn reply(
    endpoint: &Endpoint,
    parent: skalla_net::NodeId,
    epoch: u64,
    round: u32,
    msg: Message,
) -> Result<()> {
    endpoint.send(parent, msg.to_wire_framed(epoch, round))
}

/// Mutable per-site state.
struct SiteState {
    catalog: Catalog,
    plan: Option<DistPlan>,
}

impl SiteState {
    fn handle(&mut self, msg: Message) -> Result<Vec<Message>> {
        match msg {
            Message::Plan(p) => {
                self.plan = Some(p);
                Ok(Vec::new())
            }
            Message::ComputeBase { parts, task } => {
                self.compute_base(parts.as_deref(), task).map(|m| vec![m])
            }
            Message::Round {
                op_idx,
                base,
                parts,
                task,
            } => self.round(op_idx as usize, base, parts.as_deref(), task),
            Message::LocalRun {
                start,
                end,
                base,
                parts,
                task,
            } => self.local_run(start as usize, end as usize, base, parts.as_deref(), task),
            Message::LoadSegments { table, path, part } => {
                let file = std::sync::Arc::new(SegmentFile::open(&path)?);
                let rows = file.total_rows() as u64;
                // Under replicated placement the same rows are also the
                // site's primary partition: bind the mangled alias to the
                // same file, so partition-addressed scans stream from
                // disk exactly like plain-name scans.
                if let Some(p) = part {
                    self.catalog
                        .register_segments(partition_table_name(&table, p as usize), file.clone());
                }
                self.catalog.register_segments(table, file);
                Ok(vec![Message::SegmentsLoaded { rows }])
            }
            Message::ShipAllRequest { table } => {
                let started = site_clock_s();
                let t = self.catalog.get(&table)?;
                let rel = t.to_relation();
                Ok(vec![Message::ShipAllData {
                    rel,
                    compute_s: site_clock_s() - started,
                }])
            }
            Message::ScrubRequest => Ok(vec![self.scrub()]),
            other => Err(SkallaError::exec(format!(
                "site received unexpected message {other:?}"
            ))),
        }
    }

    /// Verify every segment-backed catalog entry's checksums off the query
    /// path. A corrupt file is quarantined — renamed to
    /// `<path>.quarantined` and unregistered — so queries get a typed miss
    /// instead of bad bytes until the coordinator repairs the partition
    /// from a replica.
    fn scrub(&mut self) -> Message {
        let names: Vec<String> = self
            .catalog
            .table_names()
            .into_iter()
            .map(str::to_string)
            .collect();
        // Group segment-backed entries by file: under replicated
        // placement one file is registered under both the plain table
        // name and the primary-partition alias — it is a single disk
        // artifact, verified (and quarantined) once.
        let mut files: Vec<(std::path::PathBuf, std::sync::Arc<SegmentFile>, Vec<String>)> =
            Vec::new();
        for name in names {
            let Some(file) = self.catalog.get_segments(&name) else {
                continue;
            };
            let path = file.path().to_path_buf();
            match files.iter_mut().find(|(p, _, _)| *p == path) {
                Some((_, _, ns)) => ns.push(name),
                None => files.push((path, file, vec![name])),
            }
        }
        let mut entries = Vec::new();
        for (path, file, mut names) in files {
            // Report under the plain name when both are bound — that is
            // the name the coordinator's replica map addresses repairs
            // by.
            names.sort_by_key(|n| n.starts_with("__part::"));
            let name = names[0].clone();
            let entry = match file.verify() {
                Ok(blocks) => ScrubEntry {
                    table: name,
                    path: path.display().to_string(),
                    blocks,
                    error: None,
                },
                Err(e) => {
                    drop(file);
                    let mut q = path.as_os_str().to_owned();
                    q.push(".quarantined");
                    let _ = std::fs::rename(&path, std::path::PathBuf::from(q));
                    // Every name bound to the file must go: a surviving
                    // alias would keep serving the quarantined bytes
                    // through its still-open handle.
                    for n in &names {
                        self.catalog.unregister(n);
                    }
                    ScrubEntry {
                        table: name,
                        path: path.display().to_string(),
                        blocks: 0,
                        error: Some(e.to_string()),
                    }
                }
            };
            entries.push(entry);
        }
        Message::ScrubReport { entries }
    }

    fn plan(&self) -> Result<&DistPlan> {
        self.plan
            .as_ref()
            .ok_or_else(|| SkallaError::exec("no plan installed at site"))
    }

    fn expr(&self) -> Result<&GmdjExpr> {
        Ok(&self.plan()?.expr)
    }

    /// The detail rows a request aggregates over, resolved by the catalog
    /// for either storage kind. `parts: None` is the replication-unaware
    /// protocol — the site's primary partition under the plain table name.
    /// `Some(fs)` names replicated partition fragments; failover uses them
    /// to hand a dead site's partitions to a surviving replica host, and
    /// skew-aware splitting uses row-range fragments to spread a hot
    /// partition over several hosts.
    fn source(&self, name: &str, parts: Option<&[PartFrag]>) -> Result<ScanSource<'_>> {
        let prune = self.plan()?.segment_prune;
        Ok(self.catalog.scan_source(name, parts)?.with_prune(prune))
    }

    /// Per-partition sketches for the partitions a request names. `rows`
    /// is the *whole* partition's cardinality (the site hosts the full
    /// replica even when asked for a fragment of it), so coordinator-side
    /// load estimates are exact regardless of how the request was sliced.
    /// When `heavy_cols` is given, a space-saving heavy-hitter sketch over
    /// those columns is gathered from the requested row ranges.
    fn part_sketches(
        &self,
        name: &str,
        parts: Option<&[PartFrag]>,
        heavy_cols: Option<&[usize]>,
    ) -> Result<Vec<PartSketch>> {
        // The replication-unaware protocol has no partition ids to report.
        let Some(fs) = parts else {
            return Ok(Vec::new());
        };
        let mut out: Vec<PartSketch> = Vec::new();
        // One sketch per partition, accumulated across that partition's
        // fragments (a split partition sends several row ranges to one
        // site; its heavy hitters are a property of the partition, not of
        // any single slice).
        let mut sketches: Vec<SpaceSaving> = Vec::new();
        for f in fs {
            if out.last().map(|s| s.part) != Some(f.part) {
                let pname = partition_table_name(name, f.part as usize);
                out.push(PartSketch {
                    part: f.part,
                    rows: self.catalog.num_rows(&pname)? as u64,
                    heavy: Vec::new(),
                });
                sketches.push(SpaceSaving::new(HEAVY_HITTER_CAP));
            }
            if let Some(cols) = heavy_cols {
                let ss = sketches.last_mut().expect("just pushed");
                // Hash only the group-key columns, straight off each
                // window: no row is materialized, and a fragment's start
                // offset costs nothing.
                let source = self
                    .catalog
                    .scan_source(name, Some(std::slice::from_ref(f)))?;
                source.for_each_window(|t, start, len| {
                    let key_cols: Vec<_> = cols
                        .iter()
                        .map(|&c| (c < t.schema().len()).then(|| t.column(c)))
                        .collect();
                    for i in start..start + len {
                        ss.offer(hash_group_cols(&key_cols, i));
                    }
                    Ok(())
                })?;
            }
        }
        for (sk, ss) in out.iter_mut().zip(&sketches) {
            sk.heavy = ss.top();
        }
        Ok(out)
    }

    /// Compute the local `B₀ᵢ` fragment.
    fn compute_base(&self, parts: Option<&[PartFrag]>, task: u32) -> Result<Message> {
        let started = site_clock_s();
        let expr = self.expr()?;
        let rel = self.local_base(expr, parts)?;
        let heavy_cols = match &expr.base {
            BaseSpec::DistinctProject { cols } => Some(cols.clone()),
            BaseSpec::Relation(_) => None,
        };
        let sketch = self.part_sketches(&expr.detail_name, parts, heavy_cols.as_deref())?;
        Ok(Message::BaseFragment {
            rel,
            compute_s: site_clock_s() - started,
            task,
            sketch,
        })
    }

    fn local_base(&self, expr: &GmdjExpr, parts: Option<&[PartFrag]>) -> Result<Relation> {
        match &expr.base {
            BaseSpec::DistinctProject { cols } => self
                .source(&expr.detail_name, parts)?
                .distinct_project(cols),
            BaseSpec::Relation(_) => Err(SkallaError::exec(
                "coordinator asked a site to compute an explicit base relation",
            )),
        }
    }

    /// One standard round: sub-aggregates for operator `op_idx` over the
    /// shipped base fragment. Row blocking (if enabled in the plan) splits
    /// the reply into chunks, all but the last flagged `last: false`.
    fn round(
        &self,
        op_idx: usize,
        base: Relation,
        parts: Option<&[PartFrag]>,
        task: u32,
    ) -> Result<Vec<Message>> {
        let started = site_clock_s();
        let plan = self.plan()?;
        let op = plan
            .expr
            .ops
            .get(op_idx)
            .ok_or_else(|| SkallaError::exec(format!("operator {op_idx} out of range")))?;
        let reduce = plan.rounds[op_idx].site_group_reduction;
        let source = self.source(plan.expr.detail_for_op(op_idx), parts)?;
        let opts = EvalOptions {
            with_match_count: reduce,
            parallelism: plan.site_parallelism,
            ..Default::default()
        };
        let (h, stats) = eval_gmdj_sub(&base, &source, op, &opts)?;
        let blocks_compiled = stats.blocks_compiled;
        let blocks_interpreted = (stats.blocks_hashed + stats.blocks_nested) - blocks_compiled;
        let h = if reduce { strip_unmatched(h)? } else { h };
        // Cardinality-only sketches (O(#parts)): the coordinator refreshes
        // its load estimates from every reply, not just base rounds.
        let sketch = self.part_sketches(plan.expr.detail_for_op(op_idx), parts, None)?;
        let compute_s = site_clock_s() - started;
        Ok(chunk_relation(h, plan.block_rows)
            .into_iter()
            .enumerate()
            .map(|(seq, (chunk, last))| Message::RoundResult {
                op_idx: op_idx as u32,
                seq: seq as u32,
                h: chunk,
                compute_s: if last { compute_s } else { 0.0 },
                blocks_compiled: if last { blocks_compiled } else { 0 },
                blocks_interpreted: if last { blocks_interpreted } else { 0 },
                last,
                task,
                sketch: if last { sketch.clone() } else { Vec::new() },
                segments_scanned: if last { stats.segments_scanned } else { 0 },
                segments_pruned: if last { stats.segments_pruned } else { 0 },
                blocks_verified: if last { stats.blocks_verified } else { 0 },
            })
            .collect())
    }

    /// A synchronization-reduced local run: evaluate operators
    /// `start..=end` against local data with no intermediate
    /// synchronization, shipping all sub-aggregate states at the end.
    fn local_run(
        &self,
        start: usize,
        end: usize,
        base: Option<Relation>,
        parts: Option<&[PartFrag]>,
        task: u32,
    ) -> Result<Vec<Message>> {
        let started = site_clock_s();
        let plan = self.plan()?;
        let expr = &plan.expr;
        if end >= expr.ops.len() || start > end {
            return Err(SkallaError::exec(format!(
                "local run {start}..={end} out of range"
            )));
        }
        // Site-side group reduction is only sound here when the coordinator
        // already knows the groups (base was shipped); with a local base the
        // shipped rows are the only record of the group's existence.
        let reduce = base.is_some()
            && plan.rounds[start..=end]
                .iter()
                .any(|r| r.site_group_reduction);

        let base_rel = match base {
            Some(b) => b,
            None => self.local_base(expr, parts)?,
        };
        let n = base_rel.len();

        let mut acc_states: Vec<Vec<Value>> = vec![Vec::new(); n];
        let mut total_matches = vec![0u64; n];
        let mut current = base_rel.clone();
        let mut state_fields = Vec::new();
        let mut blocks_compiled = 0u32;
        let mut blocks_interpreted = 0u32;
        let mut seg_total = EvalStats::default();

        for k in start..=end {
            let op = &expr.ops[k];
            let source = self.source(expr.detail_for_op(k), parts)?;
            let opts = EvalOptions {
                parallelism: plan.site_parallelism,
                ..Default::default()
            };
            state_fields.extend(op.state_fields(source.schema())?);
            let dual = eval_gmdj_dual(&current, &source, op, &opts)?;
            seg_total.segments_scanned += dual.stats.segments_scanned;
            seg_total.segments_pruned += dual.stats.segments_pruned;
            seg_total.blocks_verified += dual.stats.blocks_verified;
            for (i, st) in dual.states.iter().enumerate() {
                acc_states[i].extend(st.iter().cloned());
                total_matches[i] += dual.match_counts[i];
            }
            blocks_compiled += dual.stats.blocks_compiled;
            blocks_interpreted +=
                (dual.stats.blocks_hashed + dual.stats.blocks_nested) - dual.stats.blocks_compiled;
            current = dual.full;
        }

        // Ship: original base part ++ concatenated run states.
        let mut fields = base_rel.schema().fields().to_vec();
        fields.extend(state_fields);
        let schema = std::sync::Arc::new(Schema::new(fields)?);
        let mut rows = Vec::with_capacity(n);
        for (i, b) in base_rel.rows().iter().enumerate() {
            if reduce && total_matches[i] == 0 {
                continue;
            }
            let mut row = b.clone();
            row.extend(acc_states[i].iter().cloned());
            rows.push(row);
        }
        let ship = Relation::from_rows_unchecked(schema, rows);
        let sketch = self.part_sketches(&expr.detail_name, parts, None)?;
        let compute_s = site_clock_s() - started;
        Ok(chunk_relation(ship, plan.block_rows)
            .into_iter()
            .enumerate()
            .map(|(seq, (chunk, last))| Message::LocalRunResult {
                end: end as u32,
                seq: seq as u32,
                ship: chunk,
                compute_s: if last { compute_s } else { 0.0 },
                blocks_compiled: if last { blocks_compiled } else { 0 },
                blocks_interpreted: if last { blocks_interpreted } else { 0 },
                last,
                task,
                sketch: if last { sketch.clone() } else { Vec::new() },
                segments_scanned: if last { seg_total.segments_scanned } else { 0 },
                segments_pruned: if last { seg_total.segments_pruned } else { 0 },
                blocks_verified: if last { seg_total.blocks_verified } else { 0 },
            })
            .collect())
    }
}

/// Space-saving counter capacity for the heavy-hitter sketch shipped with
/// base replies: enough to expose a handful of dominant groups without
/// bloating the frame.
const HEAVY_HITTER_CAP: usize = 8;

/// Deterministic 64-bit hash of the group-key columns of a detail row.
/// Only used for sketching — collisions merely blur the skew estimate.
/// Hash row `i`'s group key straight off the columns (type-tagged, `Null`
/// for out-of-range indices). Columnar so the sketch scan never
/// materializes rows it only needs two columns of.
fn hash_group_cols(cols: &[Option<&skalla_storage::Column>], i: usize) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for c in cols {
        match c.map(|c| c.get(i)) {
            None | Some(Value::Null) => 0u8.hash(&mut h),
            Some(Value::Int(v)) => {
                1u8.hash(&mut h);
                v.hash(&mut h);
            }
            Some(Value::Float(v)) => {
                2u8.hash(&mut h);
                v.to_bits().hash(&mut h);
            }
            Some(Value::Str(s)) => {
                3u8.hash(&mut h);
                s.as_bytes().hash(&mut h);
            }
            Some(Value::Bool(b)) => {
                4u8.hash(&mut h);
                b.hash(&mut h);
            }
        }
    }
    h.finish()
}

/// Split a relation into `(chunk, is_last)` pieces of at most `block_rows`
/// rows. With `None` (or an empty relation) a single `last` piece is
/// returned, so every reply carries exactly one `last: true` message.
fn chunk_relation(rel: Relation, block_rows: Option<usize>) -> Vec<(Relation, bool)> {
    let Some(block) = block_rows else {
        return vec![(rel, true)];
    };
    let block = block.max(1);
    if rel.len() <= block {
        return vec![(rel, true)];
    }
    let schema = rel.schema().clone();
    let rows = rel.into_rows();
    let mut out = Vec::with_capacity(rows.len() / block + 1);
    let mut iter = rows.into_iter().peekable();
    while iter.peek().is_some() {
        let chunk: Vec<_> = iter.by_ref().take(block).collect();
        out.push((Relation::from_rows_unchecked(schema.clone(), chunk), false));
    }
    if let Some(last) = out.last_mut() {
        last.1 = true;
    }
    out
}

/// Drop rows with `__rng_count = 0` and remove the counter column
/// (Proposition 1's site-side reduction).
fn strip_unmatched(h: Relation) -> Result<Relation> {
    let count_idx = h.schema().index_of(MATCH_COUNT_COL)?;
    let keep: Vec<usize> = (0..h.schema().len()).filter(|&i| i != count_idx).collect();
    let schema = std::sync::Arc::new(h.schema().project(&keep)?);
    let rows = h
        .rows()
        .iter()
        .filter(|r| r[count_idx] != Value::Int(0))
        .map(|r| keep.iter().map(|&i| r[i].clone()).collect())
        .collect();
    Ok(Relation::from_rows_unchecked(schema, rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use skalla_types::DataType;

    #[test]
    fn strip_unmatched_filters_and_projects() {
        let schema = Schema::from_pairs([
            ("k", DataType::Int64),
            ("cnt", DataType::Int64),
            (MATCH_COUNT_COL, DataType::Int64),
        ])
        .unwrap()
        .into_arc();
        let h = Relation::new(
            schema,
            vec![
                vec![Value::Int(1), Value::Int(3), Value::Int(3)],
                vec![Value::Int(2), Value::Int(0), Value::Int(0)],
                vec![Value::Int(3), Value::Int(1), Value::Int(1)],
            ],
        )
        .unwrap();
        let out = strip_unmatched(h).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.schema().names(), vec!["k", "cnt"]);
        assert_eq!(out.row(0), &vec![Value::Int(1), Value::Int(3)]);
        assert_eq!(out.row(1), &vec![Value::Int(3), Value::Int(1)]);
    }

    #[test]
    fn site_state_requires_plan() {
        let state = SiteState {
            catalog: Catalog::new(),
            plan: None,
        };
        assert!(state.plan().is_err());
        let r = state.round(0, Relation::empty(Schema::empty().into_arc()), None, 0);
        assert!(r.is_err());
    }

    #[test]
    fn chunking_splits_and_flags_last() {
        let schema = Schema::from_pairs([("k", DataType::Int64)])
            .unwrap()
            .into_arc();
        let rel = Relation::new(
            schema.clone(),
            (0..10).map(|i| vec![Value::Int(i)]).collect(),
        )
        .unwrap();
        // No blocking: one last piece.
        let whole = chunk_relation(rel.clone(), None);
        assert_eq!(whole.len(), 1);
        assert!(whole[0].1);
        assert_eq!(whole[0].0.len(), 10);
        // Block of 4: 4 + 4 + 2, only final flagged last.
        let chunks = chunk_relation(rel.clone(), Some(4));
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].0.len(), 4);
        assert_eq!(chunks[2].0.len(), 2);
        assert_eq!(
            chunks.iter().map(|(_, l)| *l).collect::<Vec<_>>(),
            vec![false, false, true]
        );
        // Rows preserved in order.
        assert_eq!(chunks[1].0.row(0)[0], Value::Int(4));
        // Block ≥ len: single last piece. Zero clamps to one row per chunk.
        assert_eq!(chunk_relation(rel.clone(), Some(100)).len(), 1);
        assert_eq!(chunk_relation(rel.clone(), Some(0)).len(), 10);
        // Empty relation: still one last piece.
        let empty = Relation::empty(schema);
        let chunks = chunk_relation(empty, Some(4));
        assert_eq!(chunks.len(), 1);
        assert!(chunks[0].1);
    }
}
