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
//! A mid-tier collects its cluster through the root's round collector
//! (`collect::Collector`): chunk-sequence and task-id deduplication,
//! per-attempt deadlines, and re-sends of the plan and request to silent
//! children, under the installed plan's retry policy. The mid-tier always
//! collects under [`DegradedMode::Fail`], so a lost leaf fails its whole
//! cluster with an `Error` reply and the root's own ladder counts the
//! cluster as one participant. A root `Shutdown` ends any collection in
//! progress and is relayed reliably to every leaf.
//!
//! Limitations (documented, not silent): coordinator-side group-reduction
//! filters are per-*site* while the root only addresses mid-tiers, so
//! [`TieredWarehouse::execute`] ignores `coord_filters` (dropping a
//! reduction is always sound).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use skalla_gmdj::AggSpec;
use skalla_net::{CostModel, Endpoint, FaultPlan, NodeId, SimNetwork};
use skalla_storage::Catalog;
use skalla_types::{DataType, Relation, Result, SkallaError};

use crate::collect::Collector;
use crate::message::{Fragment, Message, ScrubEntry};
use crate::metrics::ExecMetrics;
use crate::plan::{DegradedMode, DistPlan, RetryPolicy};
use crate::site::run_site_with_parent;
use crate::sync::{ShardedSync, SyncOutput, SyncSpec};
use crate::warehouse::{sync_options_for, table_schemas, union_distinct, DistributedWarehouse};

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
    /// reproducibly. A crashed or silent leaf fails its mid-tier's
    /// collection once the plan's retry budget is spent, and the failure
    /// travels upward as an `Error` reply, which the root handles through
    /// the same retry/degradation ladder as a flat warehouse.
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

        let schemas = table_schemas(&catalogs)?;

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

/// The mid-tier relay loop: forward each root request to the cluster,
/// collect the children's replies through the shared round collector, and
/// answer the root with one pre-synchronized reply.
fn run_midtier(ep: Endpoint, children: Vec<NodeId>) {
    let mut mid = MidTier {
        ep: &ep,
        children,
        plan: None,
    };
    loop {
        let Ok(env) = ep.recv() else { return };
        // Only root messages drive the relay; child replies are collected
        // inside each handler. One that arrives here is a straggler of a
        // finished collection (a duplicate, or a live child answering after
        // a sibling failed the collection) — drop it.
        if env.src != 0 {
            continue;
        }
        let (epoch, round, msg) = match Message::from_wire_framed(&env.payload) {
            Ok(m) => m,
            Err(e) => {
                let _ = ep.send(
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
        if !matches!(msg, Message::Shutdown) {
            let mut col = mid.collector();
            let replies = mid.handle(&mut col, epoch, round, msg).unwrap_or_else(|e| {
                vec![Message::Error {
                    msg: e.to_string(),
                    corrupt: e.is_corrupt(),
                }]
            });
            // A Shutdown that ended the collection is relayed below.
            if !col.shut_down {
                for reply in replies {
                    if ep.send(0, reply.to_wire_framed(epoch, round)).is_err() {
                        return;
                    }
                }
                continue;
            }
        }
        // Relayed reliably, as the root sends it: a leaf that lost its
        // Shutdown would never exit, and the root's join would wait on it
        // forever.
        for &c in &mid.children {
            let _ = ep.send_reliable(c, Message::Shutdown.to_wire_framed(epoch, 0));
        }
        return;
    }
}

struct MidTier<'a> {
    ep: &'a Endpoint,
    children: Vec<NodeId>,
    /// The installed `Message::Plan`, kept as the message the collector
    /// re-sends to children that lost it.
    plan: Option<Message>,
}

impl<'a> MidTier<'a> {
    fn plan(&self) -> Result<&DistPlan> {
        match &self.plan {
            Some(Message::Plan(p)) => Ok(p),
            _ => Err(SkallaError::exec("no plan installed at mid-tier")),
        }
    }

    /// A collector for one request's cluster collection, under the
    /// installed plan's retry policy (the default without one) but always
    /// [`DegradedMode::Fail`]: a lost child fails the cluster whole, and
    /// the root's own ladder and coverage count the cluster as one
    /// participant.
    fn collector(&self) -> Collector<'a> {
        let retry = self
            .plan()
            .map_or_else(|_| RetryPolicy::default(), |p| p.retry.clone());
        let retry = RetryPolicy {
            degraded: DegradedMode::Fail,
            ..retry
        };
        Collector::new(self.ep, self.children.len(), retry)
    }

    /// Forward `req` to every child and hand each accepted reply to `sink`.
    fn collect(
        &self,
        col: &mut Collector<'_>,
        epoch: u64,
        round: u32,
        req: &Message,
        sink: &mut dyn FnMut(NodeId, Message) -> Result<()>,
    ) -> Result<()> {
        let requests = self.children.iter().map(|&c| (c, req.clone())).collect();
        col.collect(epoch, round, self.plan.as_ref(), requests, None, sink)?;
        Ok(())
    }

    fn handle(
        &mut self,
        col: &mut Collector<'_>,
        epoch: u64,
        round: u32,
        msg: Message,
    ) -> Result<Vec<Message>> {
        match msg {
            Message::Plan(_) => {
                // A lost forward is repaired by the collector, which
                // re-sends the plan with every retried request.
                for &c in &self.children {
                    let _ = self.ep.send(c, msg.to_wire_framed(epoch, round));
                }
                self.plan = Some(msg);
                Ok(Vec::new())
            }
            Message::ComputeBase { task, .. } => {
                // Without a plan the children could only fail; failing
                // fast lets the root re-send the plan with its retry.
                self.plan()?;
                // Fragments are staged per child and unioned in ascending
                // child id, so the cluster's `B₀` row order depends only on
                // the data, never on which child answered first.
                let mut staged: BTreeMap<NodeId, Relation> = BTreeMap::new();
                let mut max_s: f64 = 0.0;
                let mut sketches = Vec::new();
                self.collect(col, epoch, round, &msg, &mut |src, reply| {
                    let Message::BaseFragment {
                        rel,
                        compute_s,
                        sketch,
                        ..
                    } = reply
                    else {
                        return Err(SkallaError::exec(format!(
                            "site {src}: expected BaseFragment, got {reply:?}"
                        )));
                    };
                    max_s = max_s.max(compute_s);
                    sketches.extend(sketch);
                    staged.insert(src, rel);
                    Ok(())
                })?;
                Ok(vec![Message::BaseFragment {
                    rel: union_distinct(staged.into_values())?,
                    compute_s: max_s,
                    task,
                    sketch: sketches,
                }])
            }
            Message::Round { op_idx, task, .. } => {
                let c = self.merge_cluster(col, epoch, round, op_idx, op_idx, &msg)?;
                Ok(vec![Message::RoundResult {
                    op_idx,
                    seq: 0,
                    h: c.h,
                    compute_s: c.compute_s,
                    blocks_compiled: c.blocks_compiled,
                    blocks_interpreted: c.blocks_interpreted,
                    last: true,
                    task,
                    sketch: c.sketch,
                    segments_scanned: c.segments_scanned,
                    segments_pruned: c.segments_pruned,
                    blocks_verified: c.blocks_verified,
                }])
            }
            Message::LocalRun {
                start, end, task, ..
            } => {
                let c = self.merge_cluster(col, epoch, round, start, end, &msg)?;
                Ok(vec![Message::LocalRunResult {
                    end,
                    seq: 0,
                    ship: c.h,
                    compute_s: c.compute_s,
                    blocks_compiled: c.blocks_compiled,
                    blocks_interpreted: c.blocks_interpreted,
                    last: true,
                    task,
                    sketch: c.sketch,
                    segments_scanned: c.segments_scanned,
                    segments_pruned: c.segments_pruned,
                    blocks_verified: c.blocks_verified,
                }])
            }
            Message::ScrubRequest => {
                // The cluster's reports concatenated in child order: the
                // root sees one flat entry list per mid-tier, exactly as if
                // the leaves were its direct children.
                let mut staged: BTreeMap<NodeId, Vec<ScrubEntry>> = BTreeMap::new();
                self.collect(col, epoch, round, &msg, &mut |src, reply| {
                    let Message::ScrubReport { entries } = reply else {
                        return Err(SkallaError::exec(format!(
                            "site {src}: expected ScrubReport, got {reply:?}"
                        )));
                    };
                    staged.insert(src, entries);
                    Ok(())
                })?;
                Ok(vec![Message::ScrubReport {
                    entries: staged.into_values().flatten().collect(),
                }])
            }
            Message::ShipAllRequest { .. } => {
                let mut staged: BTreeMap<NodeId, Relation> = BTreeMap::new();
                let mut total_s = 0.0;
                self.collect(col, epoch, round, &msg, &mut |src, reply| {
                    let Message::ShipAllData { rel, compute_s } = reply else {
                        return Err(SkallaError::exec(format!(
                            "site {src}: expected ShipAllData, got {reply:?}"
                        )));
                    };
                    total_s += compute_s;
                    staged.insert(src, rel);
                    Ok(())
                })?;
                let mut parts = staged.into_values();
                let mut rel = parts
                    .next()
                    .ok_or_else(|| SkallaError::exec("mid-tier cluster is empty"))?;
                for p in parts {
                    rel.union_all(p)?;
                }
                Ok(vec![Message::ShipAllData {
                    rel,
                    compute_s: total_s,
                }])
            }
            other => Err(SkallaError::exec(format!(
                "mid-tier received unexpected message {other:?}"
            ))),
        }
    }

    /// Pre-synchronize the cluster's sub-aggregate fragments for operators
    /// `start..=end` (row-blocked chunks included) with the root's engine
    /// and knobs. The reply folds the children's counters: the slowest
    /// compute time, summed block and segment counters, and concatenated
    /// skew sketches (relayed so the root still learns per-partition loads
    /// through the tree).
    fn merge_cluster(
        &self,
        col: &mut Collector<'_>,
        epoch: u64,
        round: u32,
        start: u32,
        end: u32,
        req: &Message,
    ) -> Result<Fragment> {
        let plan = self.plan()?;
        let (start, end) = (start as usize, end as usize);
        if end >= plan.expr.ops.len() || start > end {
            return Err(SkallaError::exec("segment out of range at mid-tier"));
        }
        let specs: Vec<AggSpec> = plan.expr.ops[start..=end]
            .iter()
            .flat_map(|op| op.all_aggs().cloned())
            .collect();
        let state_width: usize = specs.iter().map(AggSpec::state_width).sum();
        let new_sync = |h: &Relation| -> Result<ShardedSync> {
            // Shaped from the first fragment: its schema is base columns
            // followed by state columns, whose declared types site ship
            // schemas carry.
            if h.schema().len() < state_width {
                return Err(SkallaError::exec("fragment narrower than aggregate state"));
            }
            let base_width = h.schema().len() - state_width;
            let base_cols: Vec<usize> = (0..base_width).collect();
            let state_types: Vec<DataType> = h.schema().fields()[base_width..]
                .iter()
                .map(|f| f.dtype)
                .collect();
            ShardedSync::new(
                SyncSpec {
                    base_schema: Arc::new(h.schema().project(&base_cols)?),
                    key_cols: plan.expr.key.clone(),
                    specs: specs.clone(),
                    state_types,
                    output: SyncOutput::State,
                    allow_new: true,
                },
                None,
                sync_options_for(plan),
            )
        };
        let mut sync: Option<ShardedSync> = None;
        let mut max_s: f64 = 0.0;
        let (mut bc, mut bi) = (0u32, 0u32);
        let (mut scanned, mut pruned, mut verified) = (0u64, 0u64, 0u64);
        let mut sketches = Vec::new();
        self.collect(col, epoch, round, req, &mut |src, reply| {
            let f = reply.into_fragment(src)?;
            if f.last {
                max_s = max_s.max(f.compute_s);
                bc += f.blocks_compiled;
                bi += f.blocks_interpreted;
                sketches.extend(f.sketch);
                scanned += f.segments_scanned;
                pruned += f.segments_pruned;
                verified += f.blocks_verified;
            }
            let x = match &mut sync {
                Some(x) => x,
                None => sync.insert(new_sync(&f.h)?),
            };
            x.merge_chunk(f.h)
        })?;
        let sync =
            sync.ok_or_else(|| SkallaError::exec("mid-tier cluster produced no fragments"))?;
        Ok(Fragment {
            h: sync.finish()?.0,
            compute_s: max_s,
            blocks_compiled: bc,
            blocks_interpreted: bi,
            last: true,
            sketch: sketches,
            segments_scanned: scanned,
            segments_pruned: pruned,
            blocks_verified: verified,
        })
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;
    use std::time::Duration;

    use skalla_expr::Expr;
    use skalla_gmdj::{BaseSpec, GmdjBlock, GmdjExpr, GmdjOp};

    use skalla_types::Schema;

    use super::*;

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

    /// The mid-tier expects each child to echo the task id of its own
    /// request: a reply for another task (a superseded assignment) is
    /// dropped, and duplicates of the accepted reply are not merged again.
    #[test]
    fn mid_tier_accepts_only_the_requests_task() {
        let (_net, mut eps) = SimNetwork::full_mesh(3, CostModel::free());
        let child = eps.pop().expect("child endpoint");
        let mid = eps.pop().expect("mid-tier endpoint");
        let root = eps.pop().expect("root endpoint");
        let relay = std::thread::spawn(move || run_midtier(mid, vec![2]));
        let plan = DistPlan::unoptimized(count_expr());
        root.send(1, Message::Plan(plan).to_wire_framed(1, 1))
            .unwrap();
        let compute = Message::ComputeBase {
            parts: None,
            task: 5,
        };
        root.send(1, compute.to_wire_framed(1, 2)).unwrap();
        while !matches!(recv_msg(&child), Message::ComputeBase { task: 5, .. }) {}
        let schema = Schema::from_pairs([("k", DataType::Int64)])
            .unwrap()
            .into_arc();
        let frag = |k: i64| {
            Relation::new(schema.clone(), vec![vec![skalla_types::Value::Int(k)]]).unwrap()
        };
        for (task, k) in [(0, 1), (5, 2), (5, 3)] {
            let reply = Message::BaseFragment {
                rel: frag(k),
                compute_s: 0.0,
                task,
                sketch: Vec::new(),
            };
            child.send(1, reply.to_wire_framed(1, 2)).unwrap();
        }
        match recv_msg(&root) {
            Message::BaseFragment { rel, task, .. } => {
                assert_eq!(task, 5);
                assert_eq!(rel.rows(), frag(2).rows());
            }
            other => panic!("expected BaseFragment, got {other:?}"),
        }
        root.send_reliable(1, Message::Shutdown.to_wire_framed(1, 0))
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
