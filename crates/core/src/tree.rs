//! Multi-tier coordinator topology (paper §6 future work).
//!
//! The paper's conclusions propose "a multi-tiered coordinator architecture
//! or spanning-tree networks" as future research. This module implements a
//! two-level tree: the root coordinator talks to `k` **mid-tier
//! coordinators**, each of which fronts a cluster of sites. Mid-tiers relay
//! requests downward and — crucially — *pre-synchronize* their cluster's
//! fragments before forwarding one merged fragment upward. Sub-aggregate
//! state merges associatively (Theorem 1), so tiered synchronization is
//! exact, and the root link carries one fragment per cluster instead of one
//! per site.
//!
//! Limitations (documented, not silent): coordinator-side group-reduction
//! filters are per-*site* while the root only addresses mid-tiers, so
//! [`TieredWarehouse::execute`] ignores `coord_filters` (dropping a
//! reduction is always sound).

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use skalla_gmdj::{AggSpec, EvalStats};
use skalla_net::{CostModel, Endpoint, FaultPlan, NodeId, SimNetwork};
use skalla_storage::Catalog;
use skalla_types::{DataType, Relation, Result, Schema, SkallaError};

use crate::message::Message;
use crate::metrics::ExecMetrics;
use crate::plan::{DistPlan, RetryPolicy};
use crate::site::run_site_with_parent;
use crate::sync::{ShardedSync, SyncOutput, SyncSpec};
use crate::warehouse::{sync_options_for, union_distinct, DistributedWarehouse};

/// A two-level warehouse: root coordinator → mid-tier coordinators → sites.
pub struct TieredWarehouse {
    root: DistributedWarehouse,
    num_mid: usize,
    num_leaf_sites: usize,
}

impl TieredWarehouse {
    /// Launch `catalogs.len()` sites clustered under mid-tier coordinators
    /// of at most `fanout` sites each.
    ///
    /// Node ids: root = 0, mid-tiers = 1..=k, sites = k+1..=k+n.
    pub fn launch(
        catalogs: Vec<Catalog>,
        fanout: usize,
        cost: CostModel,
    ) -> Result<TieredWarehouse> {
        Self::launch_with_faults(catalogs, fanout, cost, FaultPlan::none())
    }

    /// [`TieredWarehouse::launch`] with deterministic fault injection
    /// threaded into every link of the tree — root↔mid-tier and
    /// mid-tier↔site alike — so crashes inside a cluster can be exercised
    /// reproducibly. A crashed leaf surfaces at its mid-tier as a recv
    /// deadline (derived from the plan's retry policy) and travels upward
    /// as an `Error` reply, which the root handles through the same
    /// retry/degradation ladder as a flat warehouse.
    pub fn launch_with_faults(
        catalogs: Vec<Catalog>,
        fanout: usize,
        cost: CostModel,
        faults: FaultPlan,
    ) -> Result<TieredWarehouse> {
        let n = catalogs.len();
        if n == 0 {
            return Err(SkallaError::plan("warehouse needs at least one site"));
        }
        if fanout == 0 {
            return Err(SkallaError::plan("fanout must be positive"));
        }
        let k = n.div_ceil(fanout);

        let mut schemas: HashMap<String, Arc<Schema>> = HashMap::new();
        for c in &catalogs {
            for name in c.table_names() {
                let t = c.get(name)?;
                schemas
                    .entry(name.to_string())
                    .or_insert_with(|| t.schema().clone());
            }
        }

        let (net, mut endpoints) = SimNetwork::full_mesh_with_faults(1 + k + n, cost, faults);
        let mut site_endpoints: Vec<Endpoint> = endpoints.drain(1 + k..).collect();
        let mut mid_endpoints: Vec<Endpoint> = endpoints.drain(1..).collect();
        let coord = endpoints.pop().expect("root endpoint");

        let mut handles = Vec::with_capacity(k + n);

        // Sites report to their mid-tier parent.
        let mut children_of: Vec<Vec<NodeId>> = vec![Vec::new(); k];
        for (i, catalog) in catalogs.into_iter().enumerate() {
            let site_id = (1 + k + i) as NodeId;
            let mid = i / fanout;
            children_of[mid].push(site_id);
            let parent = (1 + mid) as NodeId;
            let ep = site_endpoints.remove(0);
            debug_assert_eq!(ep.id(), site_id);
            handles.push(std::thread::spawn(move || {
                run_site_with_parent(ep, catalog, parent)
            }));
        }

        // Mid-tiers relay between the root and their cluster.
        for (mid, children) in children_of.into_iter().enumerate() {
            let ep = mid_endpoints.remove(0);
            debug_assert_eq!(ep.id(), (1 + mid) as NodeId);
            handles.push(std::thread::spawn(move || run_midtier(ep, children)));
        }

        let root = DistributedWarehouse {
            net,
            coord,
            handles,
            num_sites: k, // the root's children are the mid-tiers
            schemas,
            epoch: std::sync::atomic::AtomicU64::new(0),
            replicas: None,
            skew_loads: parking_lot::Mutex::new(HashMap::new()),
        };
        Ok(TieredWarehouse {
            root,
            num_mid: k,
            num_leaf_sites: n,
        })
    }

    /// Number of mid-tier coordinators.
    pub fn num_mid_tiers(&self) -> usize {
        self.num_mid
    }

    /// Number of leaf sites.
    pub fn num_leaf_sites(&self) -> usize {
        self.num_leaf_sites
    }

    /// The simulated network.
    pub fn network(&self) -> &SimNetwork {
        self.root.network()
    }

    /// Execute a plan through the tree. Coordinator-side filters are
    /// dropped (see module docs); every other optimization applies.
    pub fn execute(&self, plan: &DistPlan) -> Result<(Relation, ExecMetrics)> {
        let mut plan = plan.clone();
        for r in &mut plan.rounds {
            r.coord_filters = None;
        }
        self.root.execute(&plan)
    }

    /// The ship-all-detail baseline through the tree: mid-tiers union their
    /// cluster's raw partitions before forwarding.
    pub fn execute_ship_all(
        &self,
        expr: &skalla_gmdj::GmdjExpr,
    ) -> Result<(Relation, ExecMetrics)> {
        self.root.execute_ship_all(expr)
    }

    /// Shut down mid-tiers (which shut down their sites) and join all
    /// threads.
    pub fn shutdown(self) -> Result<()> {
        self.root.shutdown()
    }
}

/// The mid-tier relay loop.
fn run_midtier(endpoint: Endpoint, children: Vec<NodeId>) {
    let mut state = MidState {
        plan: None,
        epoch: 0,
        round: 0,
        shutdown: Cell::new(false),
    };
    loop {
        let env = match endpoint.recv() {
            Ok(e) => e,
            Err(_) => return,
        };
        // Only root messages drive the relay; child replies are collected
        // synchronously inside each handler. A reply that arrives here is a
        // straggler from a timed-out collection (e.g. a live leaf answering
        // after a crashed sibling exhausted the recv budget) — drop it.
        if env.src != 0 {
            continue;
        }
        let (epoch, round, msg) = match Message::from_wire_framed(&env.payload) {
            Ok(m) => m,
            Err(e) => {
                let _ = endpoint.send(
                    0,
                    Message::Error {
                        msg: e.to_string(),
                        corrupt: false,
                    }
                    .to_wire_framed(0, 0),
                );
                continue;
            }
        };
        let shutdown = matches!(msg, Message::Shutdown);
        state.epoch = epoch;
        state.round = round;
        match state.handle(&endpoint, &children, msg) {
            Ok(responses) => {
                for resp in responses {
                    if endpoint.send(0, resp.to_wire_framed(epoch, round)).is_err() {
                        return;
                    }
                }
            }
            Err(e) => {
                let _ = endpoint.send(
                    0,
                    Message::Error {
                        msg: e.to_string(),
                        corrupt: e.is_corrupt(),
                    }
                    .to_wire_framed(epoch, round),
                );
            }
        }
        if state.shutdown.get() {
            // The root's Shutdown arrived while a child collection was in
            // progress: relay it now that the collection has aborted.
            let _ = state.handle(&endpoint, &children, Message::Shutdown);
            return;
        }
        if shutdown {
            return;
        }
    }
}

struct MidState {
    plan: Option<DistPlan>,
    /// Epoch of the request currently being relayed (stamped on downward
    /// forwards, used to filter child replies).
    epoch: u64,
    /// Round number of the request currently being relayed (echoed by the
    /// children and back to the root).
    round: u32,
    /// Set when the root's `Shutdown` arrives during a child collection.
    /// It is framed under round 0, so the straggler filter would otherwise
    /// drop it and leave the relay loop waiting forever.
    shutdown: Cell<bool>,
}

impl MidState {
    fn handle(&mut self, ep: &Endpoint, children: &[NodeId], msg: Message) -> Result<Vec<Message>> {
        match msg {
            Message::Plan(p) => {
                for &c in children {
                    ep.send(
                        c,
                        Message::Plan(p.clone()).to_wire_framed(self.epoch, self.round),
                    )?;
                }
                self.plan = Some(p);
                Ok(Vec::new())
            }
            Message::Shutdown => {
                for &c in children {
                    let _ = ep.send(c, Message::Shutdown.to_wire_framed(self.epoch, self.round));
                }
                Ok(Vec::new())
            }
            Message::ComputeBase { parts, task } => {
                for &c in children {
                    ep.send(
                        c,
                        Message::ComputeBase {
                            parts: parts.clone(),
                            task,
                        }
                        .to_wire_framed(self.epoch, self.round),
                    )?;
                }
                // Fragments are staged per child and unioned in ascending
                // child id, so the cluster's `B₀` row order depends only on
                // the data, never on which child answered first.
                let mut staged: BTreeMap<NodeId, Relation> = BTreeMap::new();
                let mut max_s: f64 = 0.0;
                let mut sketches = Vec::new();
                for _ in children {
                    let (src, msg) = self.recv(ep)?;
                    match msg {
                        Message::BaseFragment {
                            rel,
                            compute_s,
                            sketch,
                            ..
                        } => {
                            max_s = max_s.max(compute_s);
                            sketches.extend(sketch);
                            staged.insert(src, rel);
                        }
                        other => {
                            return Err(SkallaError::exec(format!(
                                "mid-tier expected BaseFragment, got {other:?}"
                            )))
                        }
                    }
                }
                Ok(vec![Message::BaseFragment {
                    rel: union_distinct(staged.into_values())?,
                    compute_s: max_s,
                    task,
                    sketch: sketches,
                }])
            }
            Message::Round {
                op_idx,
                base,
                parts,
                task,
            } => {
                let specs = self.segment_specs(op_idx as usize, op_idx as usize)?;
                for &c in children {
                    ep.send(
                        c,
                        Message::Round {
                            op_idx,
                            base: base.clone(),
                            parts: parts.clone(),
                            task,
                        }
                        .to_wire_framed(self.epoch, self.round),
                    )?;
                }
                let (merged, max_s, bc, bi, sketches, seg) =
                    self.merge_cluster(ep, children.len(), specs)?;
                Ok(vec![Message::RoundResult {
                    op_idx,
                    seq: 0,
                    h: merged,
                    compute_s: max_s,
                    blocks_compiled: bc,
                    blocks_interpreted: bi,
                    last: true,
                    task,
                    sketch: sketches,
                    segments_scanned: seg.segments_scanned,
                    segments_pruned: seg.segments_pruned,
                    blocks_verified: seg.blocks_verified,
                }])
            }
            Message::LocalRun {
                start,
                end,
                base,
                parts,
                task,
            } => {
                let specs = self.segment_specs(start as usize, end as usize)?;
                for &c in children {
                    ep.send(
                        c,
                        Message::LocalRun {
                            start,
                            end,
                            base: base.clone(),
                            parts: parts.clone(),
                            task,
                        }
                        .to_wire_framed(self.epoch, self.round),
                    )?;
                }
                let (merged, max_s, bc, bi, sketches, seg) =
                    self.merge_cluster(ep, children.len(), specs)?;
                Ok(vec![Message::LocalRunResult {
                    end,
                    seq: 0,
                    ship: merged,
                    compute_s: max_s,
                    blocks_compiled: bc,
                    blocks_interpreted: bi,
                    last: true,
                    task,
                    sketch: sketches,
                    segments_scanned: seg.segments_scanned,
                    segments_pruned: seg.segments_pruned,
                    blocks_verified: seg.blocks_verified,
                }])
            }
            Message::ScrubRequest => {
                // Fan the scrub out and concatenate the cluster's reports:
                // the root sees one flat entry list per mid-tier, exactly
                // as if the leaves were its direct children.
                for &c in children {
                    ep.send(
                        c,
                        Message::ScrubRequest.to_wire_framed(self.epoch, self.round),
                    )?;
                }
                let mut entries = Vec::new();
                for _ in children {
                    match self.recv(ep)?.1 {
                        Message::ScrubReport { entries: e } => entries.extend(e),
                        other => {
                            return Err(SkallaError::exec(format!(
                                "mid-tier expected ScrubReport, got {other:?}"
                            )))
                        }
                    }
                }
                Ok(vec![Message::ScrubReport { entries }])
            }
            Message::ShipAllRequest { table } => {
                for &c in children {
                    ep.send(
                        c,
                        Message::ShipAllRequest {
                            table: table.clone(),
                        }
                        .to_wire_framed(self.epoch, self.round),
                    )?;
                }
                let mut combined: Option<Relation> = None;
                let mut total_s = 0.0;
                for _ in children {
                    match self.recv(ep)?.1 {
                        Message::ShipAllData { rel, compute_s } => {
                            total_s += compute_s;
                            match &mut combined {
                                None => combined = Some(rel),
                                Some(acc) => acc.union_all(rel)?,
                            }
                        }
                        other => {
                            return Err(SkallaError::exec(format!(
                                "mid-tier expected ShipAllData, got {other:?}"
                            )))
                        }
                    }
                }
                Ok(vec![Message::ShipAllData {
                    rel: combined.ok_or_else(|| SkallaError::exec("mid-tier cluster is empty"))?,
                    compute_s: total_s,
                }])
            }
            other => Err(SkallaError::exec(format!(
                "mid-tier received unexpected message {other:?}"
            ))),
        }
    }

    /// Collect one child reply and its sender, bounded by the plan's full
    /// retry budget (the sum of every attempt window). A crashed or silent
    /// child turns into an error instead of hanging the mid-tier forever;
    /// the error travels upward as an `Error` reply, where the root's own
    /// retry/degradation ladder takes over.
    fn recv(&self, ep: &Endpoint) -> Result<(NodeId, Message)> {
        let deadline = Instant::now() + self.recv_budget();
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(SkallaError::exec(
                    "cluster child did not respond within the retry budget",
                ));
            }
            let Some(env) = ep.try_recv_for(remaining)? else {
                continue; // loop re-checks the deadline
            };
            let (epoch, round, msg) = Message::from_wire_framed(&env.payload)?;
            if env.src == 0 && matches!(msg, Message::Shutdown) {
                self.shutdown.set(true);
                return Err(SkallaError::exec("mid-tier shut down during collection"));
            }
            if epoch != self.epoch || round != self.round {
                continue; // straggler from an aborted query or earlier round
            }
            if let Message::Error { msg, corrupt } = msg {
                let m = format!("site {}: {msg}", env.src);
                // Keep the corruption marker as the error crosses the
                // tier: the root skips its retry budget for it.
                return Err(if corrupt {
                    SkallaError::corrupt(m)
                } else {
                    SkallaError::exec(m)
                });
            }
            return Ok((env.src, msg));
        }
    }

    /// The total time this mid-tier will wait on any one child reply:
    /// the installed plan's attempt windows summed (so the subtree never
    /// gives up before the root would), or the default policy's budget
    /// when no plan is installed (ship-all).
    fn recv_budget(&self) -> Duration {
        let default_retry = RetryPolicy::default();
        let retry = self.plan.as_ref().map_or(&default_retry, |p| &p.retry);
        (0..=retry.max_retries)
            .map(|a| retry.deadline_for_attempt(a))
            .sum()
    }

    /// Flattened aggregate specs for the segment `start..=end`.
    fn segment_specs(&self, start: usize, end: usize) -> Result<Vec<AggSpec>> {
        let plan = self
            .plan
            .as_ref()
            .ok_or_else(|| SkallaError::exec("no plan installed at mid-tier"))?;
        if end >= plan.expr.ops.len() || start > end {
            return Err(SkallaError::exec("segment out of range at mid-tier"));
        }
        let mut specs = Vec::new();
        for op in &plan.expr.ops[start..=end] {
            specs.extend(op.all_aggs().cloned());
        }
        Ok(specs)
    }

    /// Pre-synchronize the cluster's fragments (handles row-blocked chunks)
    /// and return the merged state relation, the slowest child time, the
    /// cluster's summed compiled/interpreted block counts, the children's
    /// concatenated skew sketches (relayed upward so the root still learns
    /// per-partition loads through the tree), and the cluster's summed
    /// segment scan/prune counters.
    #[allow(clippy::type_complexity)]
    fn merge_cluster(
        &self,
        ep: &Endpoint,
        num_children: usize,
        specs: Vec<AggSpec>,
    ) -> Result<(
        Relation,
        f64,
        u32,
        u32,
        Vec<skalla_storage::PartSketch>,
        EvalStats,
    )> {
        let plan = self.plan.as_ref().expect("checked in segment_specs");
        let key = plan.expr.key.clone();
        let state_width: usize = specs.iter().map(AggSpec::state_width).sum();

        // The mid-tier pre-synchronizes its cluster with the root's engine
        // and the root's knobs.
        let mut x: Option<ShardedSync> = None;
        let mut pending = num_children;
        let mut max_s: f64 = 0.0;
        let mut total_bc = 0u32;
        let mut total_bi = 0u32;
        let mut sketches = Vec::new();
        let mut seg = EvalStats::default();
        while pending > 0 {
            let (h, compute_s, bc, bi, last, sketch, scanned, pruned, blk_v) =
                match self.recv(ep)?.1 {
                    Message::RoundResult {
                        h,
                        compute_s,
                        blocks_compiled,
                        blocks_interpreted,
                        last,
                        sketch,
                        segments_scanned,
                        segments_pruned,
                        blocks_verified,
                        ..
                    } => (
                        h,
                        compute_s,
                        blocks_compiled,
                        blocks_interpreted,
                        last,
                        sketch,
                        segments_scanned,
                        segments_pruned,
                        blocks_verified,
                    ),
                    Message::LocalRunResult {
                        ship,
                        compute_s,
                        blocks_compiled,
                        blocks_interpreted,
                        last,
                        sketch,
                        segments_scanned,
                        segments_pruned,
                        blocks_verified,
                        ..
                    } => (
                        ship,
                        compute_s,
                        blocks_compiled,
                        blocks_interpreted,
                        last,
                        sketch,
                        segments_scanned,
                        segments_pruned,
                        blocks_verified,
                    ),
                    other => {
                        return Err(SkallaError::exec(format!(
                            "mid-tier expected round result, got {other:?}"
                        )))
                    }
                };
            if last {
                max_s = max_s.max(compute_s);
                total_bc += bc;
                total_bi += bi;
                sketches.extend(sketch);
                seg.segments_scanned += scanned;
                seg.segments_pruned += pruned;
                seg.blocks_verified += blk_v;
                pending -= 1;
            }
            let x = match &mut x {
                Some(x) => x,
                None => {
                    // Lazily shape the structure from the first fragment:
                    // its schema is base columns followed by state columns.
                    if h.schema().len() < state_width {
                        return Err(SkallaError::exec("fragment narrower than aggregate state"));
                    }
                    let base_width = h.schema().len() - state_width;
                    let base_cols: Vec<usize> = (0..base_width).collect();
                    let base_schema = Arc::new(h.schema().project(&base_cols)?);
                    // Declared state types come off the fragment's
                    // schema tail (site ship schemas carry them).
                    let state_types: Vec<DataType> = h.schema().fields()[base_width..]
                        .iter()
                        .map(|f| f.dtype)
                        .collect();
                    let sync = ShardedSync::new(
                        SyncSpec {
                            base_schema,
                            key_cols: key.clone(),
                            specs: specs.clone(),
                            state_types,
                            output: SyncOutput::State,
                            allow_new: true,
                        },
                        None,
                        sync_options_for(plan),
                    )?;
                    x = Some(sync);
                    x.as_mut().expect("just set")
                }
            };
            x.merge_chunk(h)?;
        }
        let merged = match x {
            Some(s) => s.finish()?.0,
            None => return Err(SkallaError::exec("mid-tier cluster produced no fragments")),
        };
        Ok((merged, max_s, total_bc, total_bi, sketches, seg))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;

    use skalla_expr::Expr;
    use skalla_gmdj::{BaseSpec, GmdjBlock, GmdjExpr, GmdjOp};

    use super::*;
    use crate::plan::DegradedMode;

    /// `BASE DISTINCT k FROM flow; MD COUNT(*) WHERE b.k = r.k`.
    fn count_expr() -> GmdjExpr {
        GmdjExpr::new(
            BaseSpec::DistinctProject { cols: vec![0] },
            "flow",
            vec![GmdjOp::new(vec![GmdjBlock::new(
                vec![AggSpec::count_star("c")],
                Expr::base(0).eq(Expr::detail(0)),
            )])],
            vec![0],
        )
        .unwrap()
    }

    fn recv_msg(ep: &Endpoint) -> Message {
        let env = ep.recv_timeout(Duration::from_secs(10)).unwrap();
        Message::from_wire_framed(&env.payload).unwrap().2
    }

    /// The mid-tier unions its children's base fragments in child-id
    /// order, so the cluster's `B₀` has one row order whichever child
    /// answers first.
    #[test]
    fn mid_tier_base_union_ignores_reply_order() {
        let (_net, mut eps) = SimNetwork::full_mesh(4, CostModel::free());
        let c3 = eps.pop().expect("child endpoint");
        let c2 = eps.pop().expect("child endpoint");
        let mid = eps.pop().expect("mid-tier endpoint");
        let root = eps.pop().expect("root endpoint");
        let relay = std::thread::spawn(move || run_midtier(mid, vec![2, 3]));
        let plan = DistPlan::unoptimized(count_expr());
        root.send(1, Message::Plan(plan).to_wire_framed(1, 1))
            .unwrap();
        let schema = Schema::from_pairs([("k", DataType::Int64)])
            .unwrap()
            .into_arc();
        let frag = |ks: &[i64]| {
            let rows = ks.iter().map(|&k| vec![skalla_types::Value::Int(k)]);
            Relation::new(schema.clone(), rows.collect()).unwrap()
        };
        let mut b0s = Vec::new();
        for (epoch, order) in [(1u64, [&c2, &c3]), (2, [&c3, &c2])] {
            let compute = Message::ComputeBase {
                parts: None,
                task: 0,
            };
            root.send(1, compute.to_wire_framed(epoch, 2)).unwrap();
            for child in [&c2, &c3] {
                while !matches!(recv_msg(child), Message::ComputeBase { .. }) {}
            }
            for child in order {
                let keys: &[i64] = if child.id() == 2 { &[1, 2] } else { &[3, 2] };
                let reply = Message::BaseFragment {
                    rel: frag(keys),
                    compute_s: 0.0,
                    task: 0,
                    sketch: Vec::new(),
                };
                child.send(1, reply.to_wire_framed(epoch, 2)).unwrap();
            }
            match recv_msg(&root) {
                Message::BaseFragment { rel, .. } => b0s.push(rel),
                other => panic!("expected BaseFragment, got {other:?}"),
            }
        }
        assert_eq!(b0s[0].rows(), frag(&[1, 2, 3]).rows());
        assert_eq!(b0s[1].rows(), b0s[0].rows());
        root.send_reliable(1, Message::Shutdown.to_wire_framed(2, 0))
            .unwrap();
        relay.join().unwrap();
    }

    /// A root `Shutdown` that arrives while the mid-tier waits on a silent
    /// child must end the relay loop and reach the child, not be dropped
    /// as a straggler of the collection (which left the relay loop, and
    /// the root's join, waiting forever).
    #[test]
    fn shutdown_during_a_child_collection_ends_the_mid_tier() {
        let (_net, mut eps) = SimNetwork::full_mesh(3, CostModel::free());
        let child = eps.pop().expect("child endpoint");
        let mid = eps.pop().expect("mid-tier endpoint");
        let root = eps.pop().expect("root endpoint");
        // A recv budget far beyond the test's own bound.
        let plan = DistPlan::unoptimized(count_expr()).with_retry_policy(RetryPolicy {
            deadline: Duration::from_secs(60),
            max_retries: 0,
            backoff: 1.0,
            degraded: DegradedMode::Fail,
        });
        let (done_tx, done_rx) = mpsc::channel();
        let relay = std::thread::spawn(move || {
            run_midtier(mid, vec![2]);
            let _ = done_tx.send(());
        });
        root.send(1, Message::Plan(plan).to_wire_framed(1, 1))
            .unwrap();
        let compute = Message::ComputeBase {
            parts: None,
            task: 0,
        };
        root.send(1, compute.to_wire_framed(1, 2)).unwrap();
        assert!(matches!(recv_msg(&child), Message::Plan(_)));
        assert!(matches!(recv_msg(&child), Message::ComputeBase { .. }));

        // The child stays silent; the root shuts the tree down.
        root.send_reliable(1, Message::Shutdown.to_wire_framed(1, 0))
            .unwrap();
        done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("mid-tier relay loop exits on Shutdown");
        relay.join().unwrap();
        assert!(matches!(recv_msg(&child), Message::Shutdown));
    }
}
