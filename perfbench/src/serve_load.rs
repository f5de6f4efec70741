//! The TCP workloads: `adhoc_mem` (closed loop, every request misses the
//! cache) and `dashboard` (open loop over a pool that fits in the cache,
//! with periodic invalidations).

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use skalla_core::DistributedWarehouse;
use skalla_net::{CostModel, WireDecode, WireEncode};
use skalla_serve::{QueryOutcome, Request, Response, ServeClient, ServeConfig, ServeStats, Server};
use skalla_storage::Catalog;
use skalla_tpcr::{partition_by_nation, TpcrConfig};
use skalla_types::Relation;

use crate::check::fingerprint;
use crate::engine::{
    Counters, Data, PlanCtx, RunOutput, Sample, Setup, StorageInfo, Texts, SCALE, SETUP_REPEATS,
    SITES,
};
use crate::rng::Rng;
use crate::shapes::Shape;
use crate::stats::median;
use crate::summary::ExecStats;
use crate::trace::{Recorder, Span};
use crate::Args;

/// A completed request slower than this counts as a timeout.
const TIMEOUT: Duration = Duration::from_secs(5);

const ADHOC_SHAPES: [Shape; 4] = [
    Shape::SingleCust,
    Shape::CorrelatedCust,
    Shape::CoalesceClerk,
    Shape::OrderkeyWide,
];
/// Literals per ad-hoc shape: 4 × 200 distinct texts, cycled, so a text
/// recurs only after 800 others and FIFO eviction (128 entries) has
/// removed it — every request misses.
const ADHOC_LITERALS: u32 = 200;

/// The dashboard pool, one text per panel, with each panel's share of the
/// requests: per-customer panels dominate, so the median request is a
/// custname hit, whose planning (`choose_plan` over 2000 site-constrained
/// values) is the hit path's main CPU cost.
const DASH_PANELS: [(Shape, usize); 4] = [
    (Shape::DashNation, 1),
    (Shape::DashClerk, 1),
    (Shape::DashCity, 1),
    (Shape::DashCust, 5),
];
/// Offered load of the open loop, split over the connections.
const DASH_RATE_QPS: f64 = 100.0;
const DASH_CONNECTIONS: usize = 2;
/// Seconds between data refreshes, on average. A refresh invalidates the
/// cache and reloads every panel; user requests pause for
/// `DASH_REFRESH_WINDOW_S`, so the reload's misses run back to back and
/// the hits around them keep a steady distribution.
const DASH_REFRESH_EVERY_S: f64 = 5.0;
const DASH_REFRESH_WINDOW_S: f64 = 1.0;

/// Start `SETUP_REPEATS` servers one after another, timing each start, and
/// keep the last one running.
fn start_server(cfg: &ServeConfig) -> (Server, Vec<f64>) {
    let mut totals = Vec::with_capacity(SETUP_REPEATS);
    let mut server = None;
    for i in 0..SETUP_REPEATS {
        let t = Instant::now();
        let s = Server::start(cfg.clone()).expect("server start");
        totals.push(t.elapsed().as_secs_f64());
        if i + 1 < SETUP_REPEATS {
            s.shutdown().expect("server shutdown");
        } else {
            server = Some(s);
        }
    }
    (server.expect("at least one set-up"), totals)
}

/// Median round trip of a `Stats` request: session plus protocol cost of
/// a request that never reaches the scheduler's queue.
fn session_floor_ns(client: &mut ServeClient) -> u64 {
    let rtts: Vec<f64> = (0..21)
        .map(|_| {
            let t = Instant::now();
            client.stats().expect("stats request");
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&rtts) as u64
}

fn counters(before: &ServeStats, after: &ServeStats) -> Counters {
    Counters {
        cache_hits: after.cache.hits - before.cache.hits,
        cache_misses: after.cache.misses - before.cache.misses,
        cache_invalidations: after.cache.invalidations - before.cache.invalidations,
        submitted: after.sched.submitted - before.sched.submitted,
        refused: after.sched.rejected - before.sched.rejected,
    }
}

/// Per-thread tracing state: the recorder plus the planner inputs used to
/// time `parse_query`/`choose_plan` on each traced request's text.
struct Tracer<'a> {
    rec: Recorder,
    ctx: &'a PlanCtx,
    session_ns: u64,
}

/// Record the derived spans of one execution under `parent`, starting at
/// `start`: the warehouse round driver with site compute and coordinator
/// sync inside it.
pub fn exec_spans(rec: &mut Recorder, parent: u64, query: u64, start: u64, e: &ExecStats) {
    let ns = |s: f64| (s * 1e9) as u64;
    let exec = rec.record(
        "warehouse.exec",
        Some(parent),
        query,
        start,
        start + ns(e.wall_s),
    );
    let ids = rec.lay_out(
        exec,
        query,
        start,
        &[
            ("site.compute", ns(e.site_max_s)),
            ("sync.coord", ns(e.coord_s)),
        ],
    );
    rec.lay_out(
        ids[1],
        query,
        start + ns(e.site_max_s),
        &[
            ("sync.decode", ns(e.sync_decode_s)),
            ("sync.merge", ns(e.sync_merge_s)),
            ("sync.finalize", ns(e.sync_finalize_s)),
        ],
    );
}

/// Send one query over `client` and measure it from `due`. With a tracer,
/// also time the server's planning and the protocol's encode/decode of
/// this request on the same inputs, and record the query's spans.
/// Returns the reply's rows when `keep` is set.
#[allow(clippy::too_many_arguments)]
fn request(
    client: &mut ServeClient,
    tracer: Option<&mut Tracer<'_>>,
    qid: u64,
    shape: Shape,
    text_id: usize,
    text: &str,
    due: Instant,
    keep: bool,
) -> (Sample, Option<Relation>) {
    let start = Instant::now();
    let sent_ns = tracer.as_deref().map_or(0, |tr| tr.rec.now());
    let outcome = client.query(text);
    let end = Instant::now();
    let mut sample = Sample {
        shape,
        text: text_id,
        latency_s: (end - due).as_secs_f64(),
        lag_s: start.saturating_duration_since(due).as_secs_f64(),
        fp: None,
        exec: None,
        traced: tracer.is_some(),
    };
    let reply = match outcome {
        Ok(QueryOutcome::Done(reply)) if end - due <= TIMEOUT => reply,
        Ok(QueryOutcome::Done(_)) => {
            eprintln!("timeout: {} took {:?}", shape.name(), end - due);
            return (sample, None);
        }
        Ok(QueryOutcome::Busy) => return (sample, None),
        Err(e) => {
            eprintln!("request failed: {}: {e}", shape.name());
            return (sample, None);
        }
    };
    sample.fp = Some(fingerprint(&reply.rows));
    if !reply.cache_hit {
        sample.exec = ExecStats::from_summary(&reply.summary).map(|mut e| {
            e.wall_s = reply.wall_s;
            e
        });
    }
    let kept = keep.then(|| reply.rows.clone());
    if let Some(tr) = tracer {
        // Shadow timings, taken after the reply so they delay no request.
        let t0 = Instant::now();
        let expr = tr.ctx.parse(text);
        let t1 = Instant::now();
        if let Ok(expr) = &expr {
            black_box(tr.ctx.plan(expr).ok());
        }
        let planner_ns = ((t1 - t0).as_nanos() as u64, t1.elapsed().as_nanos() as u64);
        let t = Instant::now();
        black_box(
            Request::Query {
                text: text.to_string(),
            }
            .to_wire(),
        );
        let bytes = Response::Rows(reply).to_wire();
        black_box(Response::from_wire(&bytes).ok());
        let codec_ns = t.elapsed().as_nanos() as u64;

        let rtt_ns = (end - start).as_nanos() as u64;
        let wall_ns = sample.exec.map_or(0, |e| (e.wall_s * 1e9) as u64);
        let serve_ns = rtt_ns.saturating_sub(wall_ns);
        let rec = &mut tr.rec;
        let root = rec.record("query", None, qid, sent_ns, sent_ns + rtt_ns);
        let serve = rec.record(
            "serve.request",
            Some(root),
            qid,
            sent_ns,
            sent_ns + serve_ns,
        );
        rec.lay_out(
            serve,
            qid,
            sent_ns,
            &[
                ("planner.parse", planner_ns.0),
                ("planner.choose_plan", planner_ns.1),
                ("serve.codec", codec_ns),
                ("serve.session", tr.session_ns),
            ],
        );
        if let Some(e) = &sample.exec {
            exec_spans(rec, root, qid, sent_ns + serve_ns, e);
        }
    }
    (sample, kept)
}

/// The first traced miss of each shape, replayed on an in-process
/// warehouse built like the server's, for the counters the reply summary
/// leaves out (site compute total, rows up, messages, groups).
fn replay(data: &Data, texts: &Texts, samples: &[Sample]) -> HashMap<&'static str, ExecStats> {
    let parts = partition_by_nation(&data.table, SITES).expect("partition tpcr by nation");
    let catalogs: Vec<Catalog> = parts
        .parts
        .into_iter()
        .map(|p| {
            let mut c = Catalog::new();
            c.register("tpcr", p);
            c
        })
        .collect();
    let wh = DistributedWarehouse::launch(catalogs, CostModel::lan_2002()).expect("launch");
    let mut out = HashMap::new();
    for s in samples.iter().filter(|s| s.exec.is_some()) {
        if out.contains_key(s.shape.name()) {
            continue;
        }
        let expr = data
            .ctx
            .parse(texts.text(s.text))
            .expect("parse replayed text");
        let plan = data.ctx.plan(&expr).expect("plan replayed text");
        let (_, m) = wh.execute(&plan).expect("replay execution");
        out.insert(s.shape.name(), ExecStats::from_metrics(&m));
    }
    wh.shutdown().expect("replay warehouse shutdown");
    out
}

fn setup_of(totals: Vec<f64>, data: &Data) -> Setup {
    // `Server::start` generates, partitions, collects statistics and
    // launches; the first three are timed on the benchmark's own identical
    // calls, and launch is the remainder.
    let launch_s = median(&totals) - data.generate_s - data.stats_s;
    Setup {
        total_s: totals,
        generate_s: data.generate_s,
        stats_s: data.stats_s,
        launch_s,
        segment_write_s: 0.0,
    }
}

pub fn adhoc_mem(args: &Args) -> RunOutput {
    let cfg = ServeConfig {
        scale: SCALE,
        sites: SITES,
        ..ServeConfig::default()
    };
    let (server, totals) = start_server(&cfg);
    let data = Data::in_memory(&TpcrConfig::scale(SCALE));
    let mut rng = Rng::new(args.seed);
    let literals: Vec<Vec<u32>> = ADHOC_SHAPES
        .iter()
        .map(|_| {
            let mut v: Vec<u32> = (0..ADHOC_LITERALS).collect();
            rng.shuffle(&mut v);
            v
        })
        .collect();
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    // Warm-up with literals outside the measured set.
    for (i, shape) in ADHOC_SHAPES.iter().enumerate() {
        client
            .query(&shape.text(ADHOC_LITERALS + i as u32))
            .expect("warm-up query");
    }
    let session_ns = session_floor_ns(&mut client);
    let mut tracer = args.trace.then(|| Tracer {
        rec: Recorder::new(Instant::now(), 0),
        ctx: &data.ctx,
        session_ns,
    });

    let mut texts = Texts::default();
    let mut samples = Vec::new();
    let mut kept = Vec::new();
    let mut used = [0usize; ADHOC_SHAPES.len()];
    let mut order: Vec<usize> = Vec::new();
    let before = server.stats();
    let t0 = Instant::now();
    let window = Duration::from_secs_f64(args.seconds);
    let mut i = 0u64;
    while t0.elapsed() < window {
        if order.is_empty() {
            order = (0..ADHOC_SHAPES.len()).collect();
            rng.shuffle(&mut order);
        }
        let k = order.pop().expect("refilled above");
        let shape = ADHOC_SHAPES[k];
        let lit = literals[k][used[k] % literals[k].len()];
        let keep = used[k] == 0;
        used[k] += 1;
        let id = texts.id(shape, shape.text(lit));
        let traced = i.is_multiple_of(2);
        let tr = tracer.as_mut().filter(|_| traced);
        let text = texts.text(id).to_string();
        let (sample, rows) = request(&mut client, tr, i, shape, id, &text, Instant::now(), keep);
        samples.push(sample);
        kept.extend(rows.map(|r| (id, r)));
        i += 1;
    }
    let window_s = t0.elapsed().as_secs_f64();
    let counters = counters(&before, &server.stats());
    drop(client);
    server.shutdown().expect("server shutdown");

    let spans: Vec<Span> = tracer.map_or_else(Vec::new, |t| t.rec.into_spans());
    let replay = if args.trace {
        replay(&data, &texts, &samples)
    } else {
        HashMap::new()
    };
    let notes = vec![format!(
        "adhoc_mem: {} rows, {SITES} sites, cache {} entries vs {} distinct texts in the stream \
         ({} used this run), 1 closed-loop TCP client",
        data.table.len(),
        cfg.cache_entries,
        ADHOC_SHAPES.len() as u32 * ADHOC_LITERALS,
        texts.list.len()
    )];
    RunOutput {
        samples,
        window_s,
        setup: setup_of(totals, &data),
        texts,
        kept,
        spans,
        counters,
        reload_s: Vec::new(),
        storage: StorageInfo::default(),
        replay,
        schemas: data.ctx.schemas.clone(),
        table: data.table,
        notes,
    }
}

/// How early the open-loop driver wakes before a request is due; it spins
/// the rest of the way, so timer wake-up jitter does not count as latency.
const WAKE_EARLY: Duration = Duration::from_millis(2);

fn wait_until(due: Instant) {
    if let Some(wait) = due.checked_duration_since(Instant::now() + WAKE_EARLY) {
        std::thread::sleep(wait);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// One open-loop connection's samples, kept replies and spans.
type DriverOutput = (Vec<Sample>, Vec<(usize, Relation)>, Vec<Span>);

/// Seeded refresh times: one per `DASH_REFRESH_EVERY_S` slot, jittered
/// within the middle half of its slot.
fn refresh_times(rng: &mut Rng, seconds: f64) -> Vec<f64> {
    let n = (seconds / DASH_REFRESH_EVERY_S).floor().max(1.0) as usize;
    let slot = seconds / n as f64;
    (0..n)
        .map(|i| (i as f64 + 0.25 + 0.5 * rng.unit()) * slot)
        .collect()
}

pub fn dashboard(args: &Args) -> RunOutput {
    let cfg = ServeConfig {
        scale: SCALE,
        sites: SITES,
        ..ServeConfig::default()
    };
    let (server, totals) = start_server(&cfg);
    let data = Data::in_memory(&TpcrConfig::scale(SCALE));
    let mut rng = Rng::new(args.seed);

    let mut texts = Texts::default();
    let mut pool: Vec<usize> = Vec::new();
    let mut weighted: Vec<usize> = Vec::new();
    for (shape, weight) in DASH_PANELS {
        let id = texts.id(shape, shape.text(rng.below(100) as u32));
        pool.push(id);
        weighted.extend(std::iter::repeat_n(id, weight));
    }
    // The arrival schedule: slot k is due at k / rate, except that slots
    // inside a refresh window are left empty; the weighted pool is cycled,
    // each cycle in a seeded order.
    let refreshes = refresh_times(&mut rng, args.seconds);
    let in_window = |t: f64| {
        refreshes
            .iter()
            .any(|&r| t >= r && t < r + DASH_REFRESH_WINDOW_S)
    };
    let due_s: Vec<f64> = (0..(args.seconds * DASH_RATE_QPS).round() as usize)
        .map(|k| k as f64 / DASH_RATE_QPS)
        .filter(|&t| !in_window(t))
        .collect();
    let mut schedule = Vec::with_capacity(due_s.len());
    while schedule.len() < due_s.len() {
        let mut cycle = weighted.clone();
        rng.shuffle(&mut cycle);
        schedule.extend(cycle);
    }
    schedule.truncate(due_s.len());

    // Fill the cache before timing and measure the session floor.
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    for &id in &pool {
        client.query(texts.text(id)).expect("warm-up query");
    }
    let session_ns = session_floor_ns(&mut client);
    drop(client);

    let before = server.stats();
    let addr = server.local_addr();
    let origin = Instant::now();
    let t0 = origin + Duration::from_millis(20);
    let at = |secs: f64| t0 + Duration::from_secs_f64(secs);
    let (texts_ref, pool_ref, schedule_ref, due_ref, refreshes_ref, ctx) =
        (&texts, &pool, &schedule, &due_s, &refreshes, &data.ctx);
    let per_thread: Vec<DriverOutput> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..DASH_CONNECTIONS)
            .map(|j| {
                s.spawn(move || {
                    let mut client = ServeClient::connect(addr).expect("connect");
                    let mut tracer = args.trace.then(|| Tracer {
                        rec: Recorder::new(origin, j as u64),
                        ctx,
                        session_ns,
                    });
                    let mut next_refresh = 0;
                    let mut seen = vec![false; texts_ref.list.len()];
                    let (mut samples, mut kept) = (Vec::new(), Vec::new());
                    let mut send = |client: &mut ServeClient,
                                    tracer: Option<&mut Tracer<'_>>,
                                    qid: u64,
                                    id: usize,
                                    due: Instant| {
                        let shape = texts_ref.list[id].0;
                        let (sample, rows) = request(
                            client,
                            tracer,
                            qid,
                            shape,
                            id,
                            texts_ref.text(id),
                            due,
                            !seen[id],
                        );
                        if rows.is_some() {
                            seen[id] = true;
                        }
                        samples.push(sample);
                        kept.extend(rows.map(|r| (id, r)));
                    };
                    for k in (j..schedule_ref.len()).step_by(DASH_CONNECTIONS) {
                        let due = at(due_ref[k]);
                        // Connection 0 also plays the refresher: at each
                        // refresh it invalidates the cache and reloads
                        // every panel, all timed from the refresh.
                        while j == 0
                            && next_refresh < refreshes_ref.len()
                            && at(refreshes_ref[next_refresh]) <= due
                        {
                            let r = at(refreshes_ref[next_refresh]);
                            wait_until(r);
                            client.invalidate().expect("invalidate");
                            for (i, &id) in pool_ref.iter().enumerate() {
                                let qid = 1_000_000 + 100 * next_refresh as u64 + i as u64;
                                send(&mut client, tracer.as_mut(), qid, id, r);
                            }
                            next_refresh += 1;
                        }
                        wait_until(due);
                        let tr = tracer
                            .as_mut()
                            .filter(|_| (k / DASH_CONNECTIONS).is_multiple_of(2));
                        send(&mut client, tr, k as u64, schedule_ref[k], due);
                    }
                    let spans = tracer.map_or_else(Vec::new, |t| t.rec.into_spans());
                    (samples, kept, spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("dashboard driver thread panicked"))
            .collect()
    });
    let window_s = t0.elapsed().as_secs_f64();
    let counters = counters(&before, &server.stats());
    server.shutdown().expect("server shutdown");

    let (mut samples, mut kept, mut spans) = (Vec::new(), Vec::new(), Vec::new());
    for (s, k, sp) in per_thread {
        samples.extend(s);
        kept.extend(k);
        spans.extend(sp);
    }
    let replay = if args.trace {
        replay(&data, &texts, &samples)
    } else {
        HashMap::new()
    };
    let notes = vec![format!(
        "dashboard: {} rows, {SITES} sites, cache {} entries vs a pool of {} texts, \
         open loop at {DASH_RATE_QPS} qps over {DASH_CONNECTIONS} TCP connections, \
         {} refreshes (invalidate + reload every panel, user requests paused \
         {DASH_REFRESH_WINDOW_S} s)",
        data.table.len(),
        cfg.cache_entries,
        pool.len(),
        refreshes.len()
    )];
    RunOutput {
        samples,
        window_s,
        setup: setup_of(totals, &data),
        texts,
        kept,
        spans,
        counters,
        reload_s: Vec::new(),
        storage: StorageInfo::default(),
        replay,
        schemas: data.ctx.schemas.clone(),
        table: data.table,
        notes,
    }
}
