//! The round collector: every tier's request/reply exchange.
//!
//! A [`Collector`] sends one wave of requests and gathers every reply
//! under a [`RetryPolicy`]: per-attempt deadlines with backoff, re-sends
//! to silent participants, chunk-sequence and task-id deduplication, and
//! the degradation ladder (Fail → Partial, or Failover with a
//! [`FailoverRound`]). The root coordinator collects every query round,
//! ship-all, segment load, scrub and repair through it, and each
//! `core::tree` mid-tier collects its cluster through it — so a cluster's
//! fragments are merged exactly once under the same faults the root
//! masks (Theorem 1 needs nothing more).

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use skalla_net::{Endpoint, NodeId};
use skalla_storage::{PartFrag, ReplicaMap};
use skalla_types::{Result, SkallaError};

use crate::message::Message;
use crate::plan::{DegradedMode, RetryPolicy};

/// One collecting endpoint and its ledger across collections: the
/// participants written off, per-participant request transmissions (first
/// send, retry, or failover restart — the retry histogram in
/// `ExecMetrics`), seconds spent decoding reply frames, and checksum
/// failures reported.
pub(crate) struct Collector<'a> {
    ep: &'a Endpoint,
    /// How many participants the endpoint addresses in all; losing every
    /// one of them leaves no result.
    participants: usize,
    retry: RetryPolicy,
    pub(crate) dead: HashSet<NodeId>,
    pub(crate) attempts: BTreeMap<NodeId, u32>,
    pub(crate) decode_s: f64,
    pub(crate) checksum_failures: u64,
    /// A `Shutdown` frame arrived mid-collection and ended it.
    pub(crate) shut_down: bool,
}

impl<'a> Collector<'a> {
    pub(crate) fn new(ep: &'a Endpoint, participants: usize, retry: RetryPolicy) -> Collector<'a> {
        Collector {
            ep,
            participants,
            retry,
            dead: HashSet::new(),
            attempts: BTreeMap::new(),
            decode_s: 0.0,
            checksum_failures: 0,
            shut_down: false,
        }
    }

    /// Send one round's requests and collect every reply, enforcing the
    /// retry policy's per-round deadline.
    ///
    /// Accepted in-order reply messages are handed to `sink`; duplicated
    /// frames and replayed chunks are discarded by sequence number, and a
    /// reply echoing another task id than its participant's request is
    /// discarded too, so the sink's (non-idempotent) merge sees each chunk
    /// exactly once. Frames from non-participants (a parent's re-sent
    /// request, a straggler) are ignored; a `Shutdown` frame ends the
    /// collection with an error and sets [`Collector::shut_down`]. When a
    /// round's deadline expires, the plan and request are re-sent to every
    /// silent participant (sites replay served rounds from a reply cache,
    /// so this is always safe) with exponential backoff. A participant
    /// that exhausts the budget — or whose channel is gone — is handled
    /// per the degraded mode: [`DegradedMode::Fail`] errors naming it,
    /// [`DegradedMode::Partial`] records it in `dead` and the round
    /// completes from the rest.
    ///
    /// With a [`FailoverRound`] (replicated launch +
    /// [`DegradedMode::Failover`]) the round is fault-transparent instead:
    /// replies are *staged* per site and only merged once the site's final
    /// chunk arrives, so a lost site's partial reply is discarded whole and
    /// its partitions are re-requested from surviving replicas under a
    /// fresh epoch.
    ///
    /// `epoch` is the caller's private epoch: concurrent query runs each
    /// allocate their own, so a site's reply cache can never replay one
    /// query's round to another. The returned epoch is the (possibly
    /// failover-bumped) epoch the round finished under, which the caller
    /// must adopt.
    pub(crate) fn collect(
        &mut self,
        epoch: u64,
        round: u32,
        resend_plan: Option<&Message>,
        requests: Vec<(NodeId, Message)>,
        mut failover: Option<&mut FailoverRound<'_>>,
        sink: &mut dyn FnMut(NodeId, Message) -> Result<()>,
    ) -> Result<u64> {
        let round_start = Instant::now();
        let mut st = RoundState {
            epoch,
            round,
            prog: requests
                .iter()
                .map(|(s, req)| (*s, SiteProgress::expecting(req)))
                .collect(),
            reqs: requests.into_iter().collect(),
            staged: BTreeMap::new(),
        };
        let offload_armed = failover
            .as_deref()
            .is_some_and(|fo| fo.offload_factor.is_some());
        let mut lost: Vec<NodeId> = Vec::new();
        for (site, req) in &st.reqs {
            *self.attempts.entry(*site).or_default() += 1;
            if self
                .ep
                .send(*site, req.to_wire_framed(st.epoch, round))
                .is_err()
            {
                lost.push(*site);
            }
        }
        self.handle_lost(lost, &mut st, failover.as_deref_mut(), resend_plan)?;
        let mut timeouts = 0u32;
        while st.prog.values().any(|p| !p.done) {
            let window = self.retry.deadline_for_attempt(timeouts);
            let mut deadline = Instant::now() + window;
            loop {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    break;
                }
                // With offload armed, wake every couple of milliseconds to
                // check for stragglers instead of blocking out the full
                // attempt window.
                let wait = if offload_armed {
                    remaining.min(Duration::from_millis(2))
                } else {
                    remaining
                };
                let env = match self.ep.try_recv_for(wait) {
                    Ok(Some(env)) => env,
                    Ok(None) => {
                        if let (true, Some(fo)) = (offload_armed, failover.as_deref_mut()) {
                            self.maybe_offload(&mut st, fo, round_start);
                            // Poll tick: the loop head breaks once the real
                            // attempt window has expired.
                            continue;
                        }
                        break; // attempt window expired
                    }
                    Err(e) => {
                        // Every peer endpoint is gone: no reply can ever
                        // arrive for the remaining participants.
                        if self.retry.degraded == DegradedMode::Fail {
                            return Err(e);
                        }
                        let silent = pending_sites(&st.prog);
                        self.handle_lost(silent, &mut st, failover.as_deref_mut(), resend_plan)?;
                        break;
                    }
                };
                let t_decode = Instant::now();
                let decoded = Message::from_wire_framed(&env.payload);
                self.decode_s += t_decode.elapsed().as_secs_f64();
                let Ok((e, r, msg)) = decoded else {
                    continue; // unparseable frame: treated as loss, retry recovers
                };
                if matches!(msg, Message::Shutdown) {
                    self.shut_down = true;
                    return Err(SkallaError::exec("shut down during collection"));
                }
                if e != st.epoch || r != round {
                    continue; // straggler from an aborted query, earlier
                              // round, or pre-failover wave
                }
                let src = env.src;
                match st.prog.get(&src) {
                    Some(p) if !p.done => {}
                    // Not a participant, or a duplicate after completion.
                    _ => continue,
                }
                if let Message::Error { msg, corrupt } = msg {
                    // A checksum failure is deterministic — re-reading the
                    // same bytes fails the same way — so corrupt replies
                    // skip the retry budget entirely and go straight to
                    // failover (replicas are bit-identical) or the
                    // degradation ladder.
                    if corrupt {
                        self.checksum_failures += 1;
                    }
                    let exhausted = corrupt || {
                        let p = st.prog.get_mut(&src).expect("participant checked");
                        p.error_retries += 1;
                        p.error_retries > self.retry.max_retries
                    };
                    if exhausted {
                        if failover.is_some() {
                            // The site keeps failing; its replicas may not.
                            self.handle_lost(
                                vec![src],
                                &mut st,
                                failover.as_deref_mut(),
                                resend_plan,
                            )?;
                            continue;
                        }
                        match self.retry.degraded {
                            DegradedMode::Fail => {
                                let m = format!("site {src}: {msg}");
                                return Err(if corrupt {
                                    SkallaError::corrupt(m)
                                } else {
                                    SkallaError::exec(m)
                                });
                            }
                            // A persistently erroring site (e.g. a mid-tier
                            // whose cluster lost a leaf) degrades like a
                            // silent one: drop it and keep the survivors.
                            DegradedMode::Partial | DegradedMode::Failover => {
                                self.site_lost(src, st.prog.get_mut(&src))?;
                                continue;
                            }
                        }
                    }
                    *self.attempts.entry(src).or_default() += 1;
                    if self.resend(src, resend_plan, &st).is_err() {
                        self.handle_lost(vec![src], &mut st, failover.as_deref_mut(), resend_plan)?;
                    }
                    continue;
                }
                let Some((seq, last)) = reply_seq_last(&msg) else {
                    return Err(SkallaError::exec(format!(
                        "site {src}: expected round reply, got {msg:?}"
                    )));
                };
                {
                    let p = st.prog.get_mut(&src).expect("participant checked");
                    if msg.task() != p.task {
                        continue; // reply for a superseded assignment
                    }
                    if seq != p.expected_seq {
                        continue; // duplicated or replayed chunk
                    }
                    p.expected_seq += 1;
                    if last {
                        p.done = true;
                        p.done_at = Some(Instant::now());
                    }
                }
                match failover.as_deref_mut() {
                    // Under failover, chunks are staged and only merged
                    // once the site's reply is complete: a site lost
                    // mid-reply leaves nothing behind to roll back.
                    Some(fo) => {
                        st.staged.entry(src).or_default().push(msg);
                        if last {
                            for m in st.staged.remove(&src).unwrap_or_default() {
                                sink(src, m)?;
                            }
                            // The site's partitions are now served; a later
                            // failure of this site costs nothing this round.
                            fo.site_parts.remove(&src);
                            // First complete side of an offload offer wins:
                            // the loser's staged chunks are discarded whole
                            // and it owes nothing further this round.
                            if let Some(i) = fo
                                .offers
                                .iter()
                                .position(|o| o.laggard == src || o.helper == src)
                            {
                                let o = fo.offers.swap_remove(i);
                                let loser = if o.helper == src {
                                    fo.events.offload_wins += 1;
                                    // The helper just served the laggard's
                                    // residual work.
                                    fo.site_parts.remove(&o.laggard);
                                    o.laggard
                                } else {
                                    o.helper
                                };
                                st.staged.remove(&loser);
                                if let Some(p) = st.prog.get_mut(&loser) {
                                    p.done = true;
                                }
                            }
                        }
                    }
                    None => sink(src, msg)?,
                }
                // Replies are flowing; extend this attempt's window.
                deadline = Instant::now() + window;
                if st.prog.values().all(|p| p.done) {
                    break;
                }
            }
            let silent = pending_sites(&st.prog);
            if silent.is_empty() {
                break;
            }
            timeouts += 1;
            if timeouts > self.retry.max_retries {
                if let Some(fo) = failover.as_deref_mut() {
                    self.run_failover(silent, fo, &mut st, resend_plan)?;
                    // The re-planned wave earns a fresh deadline budget;
                    // this terminates because every failover permanently
                    // removes at least one site.
                    timeouts = 0;
                } else {
                    match self.retry.degraded {
                        DegradedMode::Fail => {
                            return Err(SkallaError::exec(format!(
                                "site {} did not respond within {:?} after {} retries",
                                silent[0], window, self.retry.max_retries
                            )));
                        }
                        DegradedMode::Partial | DegradedMode::Failover => {
                            for s in silent {
                                self.site_lost(s, st.prog.get_mut(&s))?;
                            }
                        }
                    }
                }
            } else {
                let mut lost = Vec::new();
                for s in silent {
                    *self.attempts.entry(s).or_default() += 1;
                    if self.resend(s, resend_plan, &st).is_err() {
                        lost.push(s);
                    }
                }
                self.handle_lost(lost, &mut st, failover.as_deref_mut(), resend_plan)?;
            }
        }
        Ok(st.epoch)
    }

    /// Mid-round straggler offload: once at least half the round's sites
    /// have delivered their final chunk, a site lagging
    /// `offload_factor ×` the median completion time has its residual
    /// fragments duplicated to one idle replica host under a fresh task
    /// id. Both sides keep computing; the first to finish wins and the
    /// other's staged reply is discarded whole (see the acceptance path in
    /// [`Collector::collect`]). A laggard gets at most one outstanding
    /// offer, and the helper must host every owed fragment's partition —
    /// answers are bit-for-bit unchanged because replicas are
    /// bit-identical and the task-id check keeps the two assignments from
    /// ever mixing.
    fn maybe_offload(
        &mut self,
        st: &mut RoundState,
        fo: &mut FailoverRound<'_>,
        round_start: Instant,
    ) {
        let Some(factor) = fo.offload_factor else {
            return;
        };
        let mut done_times: Vec<f64> = st
            .prog
            .values()
            .filter_map(|p| p.done_at)
            .map(|t| t.duration_since(round_start).as_secs_f64())
            .collect();
        if done_times.len() * 2 < st.prog.len() {
            return; // not enough finishers to estimate the round's pace
        }
        done_times.sort_by(f64::total_cmp);
        let median = done_times[done_times.len() / 2];
        if round_start.elapsed().as_secs_f64() < factor * median {
            return;
        }
        let laggards: Vec<NodeId> = st
            .prog
            .iter()
            .filter(|(s, p)| {
                !p.done
                    && !fo
                        .offers
                        .iter()
                        .any(|o| o.laggard == **s || o.helper == **s)
            })
            .map(|(s, _)| *s)
            .collect();
        for laggard in laggards {
            let owed = match fo.site_parts.get(&laggard) {
                Some(fs) if !fs.is_empty() => fs.clone(),
                _ => continue,
            };
            // The idle site that finished earliest, hosts every owed
            // fragment's partition, and is not already part of an offer.
            let helper = st
                .prog
                .iter()
                .filter(|(s, p)| {
                    **s != laggard
                        && p.done
                        && p.done_at.is_some()
                        && !self.dead.contains(s)
                        && !fo
                            .offers
                            .iter()
                            .any(|o| o.laggard == **s || o.helper == **s)
                        && owed.iter().all(|f| {
                            fo.replicas
                                .hosts_of(f.part as usize)
                                .contains(&(**s as usize - 1))
                        })
                })
                .min_by_key(|(s, p)| (p.done_at.expect("filtered"), **s))
                .map(|(s, _)| *s);
            let Some(helper) = helper else {
                continue;
            };
            let task = fo.next_task;
            fo.next_task += 1;
            let Ok(req) = (fo.mk_request)(&owed, task) else {
                continue;
            };
            if self
                .ep
                .send(helper, req.to_wire_framed(st.epoch, st.round))
                .is_err()
            {
                // The helper's channel is gone; the normal loss paths
                // will detect and handle its death.
                continue;
            }
            st.prog.insert(helper, SiteProgress::expecting(&req));
            st.reqs.insert(helper, req);
            *self.attempts.entry(helper).or_default() += 1;
            fo.offers.push(OffloadOffer { laggard, helper });
            fo.events.offloads += 1;
        }
    }

    /// Route participants that are gone for good either to the failover
    /// re-plan (when this round runs one) or to the degraded-mode ladder.
    fn handle_lost(
        &mut self,
        lost: Vec<NodeId>,
        st: &mut RoundState,
        failover: Option<&mut FailoverRound<'_>>,
        resend_plan: Option<&Message>,
    ) -> Result<()> {
        if lost.is_empty() {
            return Ok(());
        }
        match failover {
            Some(fo) => self.run_failover(lost, fo, st, resend_plan),
            None => {
                for s in lost {
                    self.site_lost(s, st.prog.get_mut(&s))?;
                }
                Ok(())
            }
        }
    }

    /// Re-plan the current wave after `lost` sites failed (Failover rung):
    /// write them off, reassign their unserved partitions to the next
    /// surviving replica in ring order, bump the query epoch — so
    /// fragments computed under the old assignment, in flight or replayed
    /// from a site's reply cache, can never be merged — and restart every
    /// site that still owes partitions with a request rebuilt for the new
    /// assignment. Staged chunks of restarted sites are discarded;
    /// together with reply staging this keeps the invariant that each
    /// partition's detail tuples are folded into the synchronized
    /// base-result exactly once. A partition with no surviving replica is
    /// dropped from the round (Partial semantics, reported as `parts_lost`).
    fn run_failover(
        &mut self,
        lost: Vec<NodeId>,
        fo: &mut FailoverRound<'_>,
        st: &mut RoundState,
        resend_plan: Option<&Message>,
    ) -> Result<()> {
        let t = Instant::now();
        // Outstanding offload offers are void: the epoch bump below
        // invalidates any in-flight offer replies, and restarts below are
        // issued under task 0. Helpers not owing partitions of their own
        // drop back to done.
        for o in std::mem::take(&mut fo.offers) {
            st.staged.remove(&o.helper);
            if let Some(p) = st.prog.get_mut(&o.helper) {
                p.done = true;
            }
        }
        let mut worklist = lost;
        let res = loop {
            for site in std::mem::take(&mut worklist) {
                if !self.dead.insert(site) {
                    continue;
                }
                fo.events.failovers += 1;
                st.staged.remove(&site);
                st.reqs.remove(&site);
                if let Some(p) = st.prog.get_mut(&site) {
                    p.done = true;
                }
                if self.dead.len() == self.participants {
                    break;
                }
                // Fragment-granular re-plan: only the dead site's unserved
                // fragments move, each to the next surviving host of its
                // partition in ring order. A fragment with no surviving
                // host is dropped; the partition-level fix-up below
                // accounts the loss once per partition.
                for frag in fo.site_parts.remove(&site).unwrap_or_default() {
                    let next = fo
                        .replicas
                        .hosts_of(frag.part as usize)
                        .iter()
                        .map(|&h| (h + 1) as NodeId)
                        .find(|h| !self.dead.contains(h));
                    if let Some(h) = next {
                        fo.site_parts.entry(h).or_default().push(frag);
                        fo.events.parts_reassigned += 1;
                    }
                }
                // Ownership fix-up: partitions assigned to the dead site
                // move to their next surviving replica (feeding the next
                // round's layout and the coverage report), or are lost.
                for part in 0..fo.assignment.len() {
                    if fo.assignment[part] != Some(site) {
                        continue;
                    }
                    let next = fo
                        .replicas
                        .hosts_of(part)
                        .iter()
                        .map(|&h| (h + 1) as NodeId)
                        .find(|h| !self.dead.contains(h));
                    fo.assignment[part] = next;
                    if next.is_none() {
                        fo.events.parts_lost += 1;
                    }
                }
            }
            if self.dead.len() == self.participants {
                break Err(SkallaError::exec("every site failed; no result possible"));
            }
            // Everything computed so far under the old assignment is stale.
            st.epoch = fo.epochs.fetch_add(1, Ordering::Relaxed) + 1;
            // Restart every site that still owes fragments — including
            // previously-done sites that just inherited some (only the
            // inherited fragments are requested; their own are already
            // merged). Restarts are the round's authoritative wave again,
            // so they run under task 0.
            let restart: Vec<(NodeId, Vec<PartFrag>)> = fo
                .site_parts
                .iter()
                .map(|(s, ps)| (*s, ps.clone()))
                .collect();
            for (site, mut parts) in restart {
                parts.sort_unstable();
                parts.dedup();
                fo.site_parts.insert(site, parts.clone());
                let req = (fo.mk_request)(&parts, 0)?;
                st.staged.remove(&site);
                st.prog.insert(site, SiteProgress::expecting(&req));
                st.reqs.insert(site, req);
                *self.attempts.entry(site).or_default() += 1;
                if self.resend(site, resend_plan, st).is_err() {
                    worklist.push(site);
                }
            }
            if worklist.is_empty() {
                break Ok(());
            }
        };
        fo.events.failover_s += t.elapsed().as_secs_f64();
        res
    }

    /// Re-send the plan (participants may have lost the original
    /// broadcast) and the participant's round request, under the round's
    /// current epoch.
    fn resend(&self, site: NodeId, plan: Option<&Message>, st: &RoundState) -> Result<()> {
        if let Some(p) = plan {
            self.ep.send(site, p.to_wire_framed(st.epoch, st.round))?;
        }
        let req = st.reqs.get(&site).expect("resend target was a participant");
        self.ep.send(site, req.to_wire_framed(st.epoch, st.round))
    }

    /// A participant is gone for good (crashed channel or exhausted
    /// budget) and no failover is possible: fail or degrade, per the
    /// policy. [`DegradedMode::Failover`] without an applicable replica
    /// map falls back to Partial semantics — the next rung of the ladder.
    /// `prog` is the participant's progress in the current collection,
    /// if one is running.
    pub(crate) fn site_lost(
        &mut self,
        site: NodeId,
        prog: Option<&mut SiteProgress>,
    ) -> Result<()> {
        match self.retry.degraded {
            DegradedMode::Fail => Err(SkallaError::exec(format!(
                "site {site} is unreachable (crashed or disconnected)"
            ))),
            DegradedMode::Partial | DegradedMode::Failover => {
                if let Some(p) = prog {
                    if p.expected_seq > 0 && !p.done {
                        // Some of the site's chunks were already folded into
                        // the synchronized structure; the merge cannot be
                        // rolled back (documented limitation — see
                        // docs/FAULT_MODEL.md; the Failover rung stages
                        // chunks precisely to avoid this).
                        return Err(SkallaError::exec(format!(
                            "site {site} was lost mid-reply; partially merged \
                             chunks cannot be rolled back"
                        )));
                    }
                    p.done = true;
                }
                self.dead.insert(site);
                if self.dead.len() == self.participants {
                    return Err(SkallaError::exec("every site failed; no result possible"));
                }
                Ok(())
            }
        }
    }
}

/// Per-participant reply progress within one collection.
#[derive(Default)]
pub(crate) struct SiteProgress {
    /// The site's `last` chunk was accepted (or the site was written off).
    done: bool,
    /// Next chunk sequence number the collector will accept.
    expected_seq: u32,
    /// How many `Error` replies this site has been retried for.
    error_retries: u32,
    /// Work-assignment id this site's replies must echo: its request's.
    /// Straggler-offload duplicates carry fresh ids, so a reply cached or
    /// in flight for a site's *earlier* assignment in the same round can
    /// never be merged against a newer one.
    task: u32,
    /// When the site's final chunk was accepted; feeds the offload
    /// policy's round-median completion time.
    done_at: Option<Instant>,
}

impl SiteProgress {
    /// Fresh progress for a participant sent `req`.
    fn expecting(req: &Message) -> SiteProgress {
        SiteProgress {
            task: req.task(),
            ..SiteProgress::default()
        }
    }
}

/// Mutable state of one collection, shared between the retry loop and
/// the failover re-planner.
struct RoundState {
    /// Epoch this round's requests are framed with. A failover re-plan
    /// bumps it, instantly invalidating in-flight and cached replies
    /// computed under the old partition assignment.
    epoch: u64,
    round: u32,
    /// Current request per participant (failover rewrites entries).
    reqs: BTreeMap<NodeId, Message>,
    prog: BTreeMap<NodeId, SiteProgress>,
    /// Chunks held back per site until its final chunk arrives (failover
    /// rounds only): a site lost mid-reply leaves nothing merged.
    staged: BTreeMap<NodeId, Vec<Message>>,
}

/// Failover and skew accounting across a query's rounds, folded into
/// `ExecMetrics` at the end of execution.
#[derive(Default)]
pub(crate) struct FailoverEvents {
    pub(crate) failovers: u64,
    pub(crate) parts_reassigned: u64,
    pub(crate) parts_lost: u64,
    pub(crate) failover_s: f64,
    pub(crate) offloads: u64,
    pub(crate) offload_wins: u64,
}

/// An in-flight straggler-offload offer: `helper` was asked to duplicate
/// `laggard`'s remaining work under a fresh task id; the first of the two
/// to deliver its final chunk wins and the other side's reply is
/// discarded whole.
struct OffloadOffer {
    laggard: NodeId,
    helper: NodeId,
}

/// Per-round failover context handed to [`Collector::collect`] when the
/// Failover rung is active.
pub(crate) struct FailoverRound<'a> {
    replicas: &'a ReplicaMap,
    /// The warehouse's epoch counter: a re-plan draws a fresh epoch.
    epochs: &'a AtomicU64,
    /// Live partition→site assignment; `None` marks a partition with no
    /// surviving replica. Persists across rounds.
    assignment: &'a mut Vec<Option<NodeId>>,
    /// Partition fragments each site still owes *this* round; entries
    /// drain as sites deliver their final chunk, so a site that dies
    /// later never triggers re-requests for fragments already merged.
    site_parts: BTreeMap<NodeId, Vec<PartFrag>>,
    /// Rebuild a round request covering exactly the given fragments under
    /// the given task id (used when a failover re-plans the wave and when
    /// a straggler's residual work is offloaded).
    mk_request: &'a dyn Fn(&[PartFrag], u32) -> Result<Message>,
    events: &'a mut FailoverEvents,
    /// `Some(factor)` arms mid-round straggler offload: once half the
    /// round's sites are done, a site lagging `factor ×` the median
    /// completion time has its residual work duplicated to an idle
    /// replica host.
    offload_factor: Option<f64>,
    /// Next work-assignment id for offload duplicates (the original wave
    /// is task 0).
    next_task: u32,
    /// Offers outstanding this round.
    offers: Vec<OffloadOffer>,
}

impl<'a> FailoverRound<'a> {
    pub(crate) fn new(
        replicas: &'a ReplicaMap,
        epochs: &'a AtomicU64,
        assignment: &'a mut Vec<Option<NodeId>>,
        site_parts: BTreeMap<NodeId, Vec<PartFrag>>,
        mk_request: &'a dyn Fn(&[PartFrag], u32) -> Result<Message>,
        events: &'a mut FailoverEvents,
        offload_factor: Option<f64>,
    ) -> FailoverRound<'a> {
        FailoverRound {
            replicas,
            epochs,
            assignment,
            site_parts,
            mk_request,
            events,
            offload_factor,
            next_task: 1,
            offers: Vec::new(),
        }
    }
}

fn pending_sites(prog: &BTreeMap<NodeId, SiteProgress>) -> Vec<NodeId> {
    prog.iter()
        .filter(|(_, p)| !p.done)
        .map(|(s, _)| *s)
        .collect()
}

/// The `(seq, last)` pair of a round reply; `None` for non-reply messages.
/// Single-message replies are their own final chunk.
fn reply_seq_last(msg: &Message) -> Option<(u32, bool)> {
    match msg {
        Message::BaseFragment { .. }
        | Message::ShipAllData { .. }
        | Message::SegmentsLoaded { .. }
        | Message::ScrubReport { .. } => Some((0, true)),
        Message::RoundResult { seq, last, .. } => Some((*seq, *last)),
        Message::LocalRunResult { seq, last, .. } => Some((*seq, *last)),
        _ => None,
    }
}
