//! The `segments_refresh` workload: a closed-loop reader driven in-process
//! through `QueryScheduler` over per-site segment files, while a second
//! driver thread rewrites an identical segment generation and reloads it.
//!
//! `ServeConfig` cannot host segment storage, so this workload calls the
//! layers directly: `parse_query` → `choose_plan` →
//! `QueryScheduler::submit` → `QueryTicket::wait`.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use skalla_core::{DistributedWarehouse, QueryScheduler, SchedConfig};
use skalla_net::CostModel;
use skalla_planner::DistributionInfo;
use skalla_storage::{Catalog, SegmentFile, TableStats};
use skalla_tpcr::{generate, generate_to_dir, tpcr_schema, TpcrConfig, NATIONKEY_COL};
use skalla_types::Relation;

use crate::check::fingerprint;
use crate::engine::{
    Counters, PlanCtx, RunOutput, Sample, Setup, StorageInfo, Texts, SCALE, SETUP_REPEATS, SITES,
};
use crate::rng::Rng;
use crate::serve_load::exec_spans;
use crate::shapes::Shape;
use crate::stats::median;
use crate::summary::ExecStats;
use crate::trace::{Recorder, Span};
use crate::Args;

pub const SEGMENT_ROWS: usize = 2048;
const SHAPES: [Shape; 3] = [Shape::WindowNation, Shape::HistoryNation, Shape::SingleCust];
/// Literals per shape. The result cache is off here, so texts may repeat;
/// a small set keeps the centralized check cheap.
const LITERALS: usize = 8;
/// Longest pause of the writer between two rewrites.
const MAX_PAUSE_S: f64 = 0.1;

/// A launched segment-backed engine.
struct Engine {
    sched: QueryScheduler,
    wh: Arc<DistributedWarehouse>,
    ctx: PlanCtx,
    storage: StorageInfo,
}

impl Engine {
    fn shutdown(self) {
        self.sched.shutdown().expect("scheduler shutdown");
        drop(self.sched);
        match Arc::try_unwrap(self.wh) {
            Ok(wh) => wh.shutdown().expect("warehouse shutdown"),
            Err(_) => panic!("warehouse still shared after scheduler shutdown"),
        }
    }
}

fn paths_of(paths: &[PathBuf]) -> Vec<String> {
    paths.iter().map(|p| p.display().to_string()).collect()
}

/// Write the segment files under `dir`, open them, derive statistics from
/// their footers (as the CLI's `--data-dir` load does) and launch the
/// warehouse and scheduler; returns the engine and the timings of
/// (write, stats, launch).
fn set_up(cfg: &TpcrConfig, dir: &Path) -> (Engine, [f64; 3]) {
    let t = Instant::now();
    let paths = generate_to_dir(cfg, SITES, SEGMENT_ROWS, dir).expect("write segments");
    let write_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut catalogs = Vec::with_capacity(SITES);
    let mut stats: Option<TableStats> = None;
    let mut storage = StorageInfo::default();
    for p in &paths {
        let file = Arc::new(SegmentFile::open(p).expect("open segment file"));
        let site_stats = file.table_stats();
        match &mut stats {
            None => stats = Some(site_stats),
            Some(acc) => acc.merge(&site_stats),
        }
        storage.rows += file.total_rows();
        storage.segments += file.num_segments();
        storage.bytes += std::fs::metadata(p).expect("segment file size").len();
        let mut c = Catalog::new();
        c.register_segments("tpcr", file);
        catalogs.push(c);
    }
    let ctx = PlanCtx {
        schemas: HashMap::from([("tpcr".to_string(), tpcr_schema())]),
        dist: DistributionInfo {
            num_sites: SITES,
            partition_col: Some(NATIONKEY_COL),
            is_partition_attribute: true,
            site_constraints: None,
            replication: 1,
            partition_info: None,
        },
        stats: stats.expect("at least one site"),
    };
    let stats_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let wh =
        Arc::new(DistributedWarehouse::launch(catalogs, CostModel::lan_2002()).expect("launch"));
    let sched = QueryScheduler::launch(
        wh.clone(),
        SchedConfig {
            cache_capacity: 0,
            ..SchedConfig::default()
        },
    );
    let launch_s = t.elapsed().as_secs_f64();
    (
        Engine {
            sched,
            wh,
            ctx,
            storage,
        },
        [write_s, stats_s, launch_s],
    )
}

/// Run one query through the layers, recording spans when traced.
fn query(
    engine: &Engine,
    rec: Option<&mut Recorder>,
    qid: u64,
    shape: Shape,
    text_id: usize,
    text: &str,
    keep: bool,
) -> (Sample, Option<Relation>) {
    let mut sample = Sample {
        shape,
        text: text_id,
        latency_s: 0.0,
        lag_s: 0.0,
        fp: None,
        exec: None,
        traced: rec.is_some(),
    };
    let start = Instant::now();
    let mut marks = [0u64; 4];
    let now = |rec: &Option<&mut Recorder>| rec.as_ref().map_or(0, |r| r.now());
    marks[0] = now(&rec);
    let result = engine.ctx.parse(text).and_then(|expr| {
        marks[1] = now(&rec);
        let plan = engine.ctx.plan(&expr)?;
        marks[2] = now(&rec);
        let out = engine.sched.submit(plan).and_then(|ticket| ticket.wait());
        marks[3] = now(&rec);
        out
    });
    sample.latency_s = start.elapsed().as_secs_f64();
    let (rows, metrics) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("query failed: {}: {e}", shape.name());
            return (sample, None);
        }
    };
    sample.fp = Some(fingerprint(&rows));
    let exec = ExecStats::from_metrics(&metrics);
    sample.exec = (metrics.cache_hits == 0).then_some(exec);
    if let Some(rec) = rec {
        let root = rec.record("query", None, qid, marks[0], marks[3]);
        rec.record("planner.parse", Some(root), qid, marks[0], marks[1]);
        rec.record("planner.choose_plan", Some(root), qid, marks[1], marks[2]);
        // Submission (admission, which a reload holds closed) through the
        // resolved ticket; its self time is the queue wait.
        let wait = rec.record("sched.wait", Some(root), qid, marks[2], marks[3]);
        let wall = (exec.wall_s * 1e9) as u64;
        exec_spans(rec, wait, qid, marks[3].saturating_sub(wall), &exec);
    }
    (sample, keep.then_some(rows))
}

pub fn segments_refresh(args: &Args, work: &Path) -> RunOutput {
    let cfg = TpcrConfig::scale(SCALE).with_time_ordered(true);
    let mut totals = Vec::with_capacity(SETUP_REPEATS);
    let mut parts_s: Vec<[f64; 3]> = Vec::new();
    let mut engine = None;
    for i in 0..SETUP_REPEATS {
        let dir = work.join(format!("setup-{i}"));
        let t = Instant::now();
        let (e, timing) = set_up(&cfg, &dir);
        totals.push(t.elapsed().as_secs_f64());
        parts_s.push(timing);
        if i + 1 < SETUP_REPEATS {
            e.shutdown();
            std::fs::remove_dir_all(&dir).expect("remove set-up segments");
        } else {
            engine = Some((e, dir));
        }
    }
    let (engine, first_dir) = engine.expect("at least one set-up");
    let col = |k: usize| median(&parts_s.iter().map(|p| p[k]).collect::<Vec<_>>());
    let setup = Setup {
        total_s: totals,
        generate_s: 0.0,
        stats_s: col(1),
        launch_s: col(2),
        segment_write_s: col(0),
    };

    let mut rng = Rng::new(args.seed);
    let mut texts = Texts::default();
    let pools: Vec<Vec<usize>> = SHAPES
        .iter()
        .map(|&shape| {
            let range = if shape == Shape::SingleCust { 200 } else { 32 };
            let mut lits: Vec<u32> = (0..range).collect();
            rng.shuffle(&mut lits);
            lits[..LITERALS]
                .iter()
                .map(|&d| texts.id(shape, shape.text(d)))
                .collect()
        })
        .collect();
    // The writer rewrites back to back, after a seeded pause of up to
    // `MAX_PAUSE_S` each time, so reads contend with writes throughout.
    let pauses: Vec<f64> = (0..256).map(|_| MAX_PAUSE_S * rng.unit()).collect();

    // Warm-up: each shape once.
    for pool in &pools {
        let (s, _) = query(
            &engine,
            None,
            0,
            texts.list[pool[0]].0,
            pool[0],
            texts.text(pool[0]),
            false,
        );
        assert!(s.fp.is_some(), "warm-up query failed");
    }

    let before = engine.sched.stats();
    let origin = Instant::now();
    let window = Duration::from_secs_f64(args.seconds);
    let stop = AtomicBool::new(false);
    let (engine_ref, texts_ref) = (&engine, &texts);
    let (reader, writer) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut rec = args.trace.then(|| Recorder::new(origin, 1));
            let mut reload_s = Vec::new();
            let mut current = first_dir.clone();
            for (g, &pause) in pauses.iter().enumerate() {
                let due = Instant::now() + Duration::from_secs_f64(pause);
                while Instant::now() < due && !stop.load(Ordering::Relaxed) {
                    std::thread::sleep((due - Instant::now()).min(Duration::from_millis(20)));
                }
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let qid = 1_000_000 + g as u64;
                let dir = work.join(format!("gen-{}", g + 1));
                let t_w = rec.as_ref().map_or(0, |r| r.now());
                let paths =
                    generate_to_dir(&cfg, SITES, SEGMENT_ROWS, &dir).expect("rewrite segments");
                let t_r = rec.as_ref().map_or(0, |r| r.now());
                let t = Instant::now();
                engine_ref
                    .sched
                    .reload_segments("tpcr", &paths_of(&paths))
                    .expect("reload segments");
                reload_s.push(t.elapsed().as_secs_f64());
                if let Some(rec) = rec.as_mut() {
                    let end = rec.now();
                    let root = rec.record("refresh", None, qid, t_w, end);
                    rec.record("storage.segment_write", Some(root), qid, t_w, t_r);
                    rec.record("storage.reload", Some(root), qid, t_r, end);
                }
                std::fs::remove_dir_all(&current).expect("remove replaced segments");
                current = dir;
            }
            (
                reload_s,
                rec.map_or_else(Vec::new, |r| r.into_spans()),
                current,
            )
        });

        let mut rec = args.trace.then(|| Recorder::new(origin, 0));
        let (mut samples, mut kept) = (Vec::new(), Vec::new());
        let mut seen = vec![false; texts_ref.list.len()];
        let mut order: Vec<usize> = Vec::new();
        let mut i = 0u64;
        while origin.elapsed() < window {
            if order.is_empty() {
                order = (0..SHAPES.len()).collect();
                rng.shuffle(&mut order);
            }
            let k = order.pop().expect("refilled above");
            let id = pools[k][rng.below(LITERALS as u64) as usize];
            let tr = rec.as_mut().filter(|_| i.is_multiple_of(2));
            let (sample, rows) = query(
                engine_ref,
                tr,
                i,
                SHAPES[k],
                id,
                texts_ref.text(id),
                !seen[id],
            );
            if rows.is_some() {
                seen[id] = true;
            }
            samples.push(sample);
            kept.extend(rows.map(|r| (id, r)));
            i += 1;
        }
        stop.store(true, Ordering::Relaxed);
        let window_s = origin.elapsed().as_secs_f64();
        let writer = writer.join().expect("segment writer thread panicked");
        (
            (
                samples,
                kept,
                rec.map_or_else(Vec::new, |r| r.into_spans()),
                window_s,
            ),
            writer,
        )
    });
    let (samples, kept, mut spans, window_s) = reader;
    let (reload_s, writer_spans, last_dir): (Vec<f64>, Vec<Span>, PathBuf) = writer;
    spans.extend(writer_spans);
    let after = engine.sched.stats();
    let storage = engine.storage;
    engine.shutdown();
    std::fs::remove_dir_all(&last_dir).expect("remove segments");

    let table = generate(&cfg);
    let notes = vec![format!(
        "segments_refresh: {} rows in {} segments of {SEGMENT_ROWS} rows, {} bytes on disk \
         over {SITES} sites; result cache off; {} texts; {} rewrites+reloads \
         (atomic publish with fsync)",
        storage.rows,
        storage.segments,
        storage.bytes,
        texts.list.len(),
        reload_s.len()
    )];
    RunOutput {
        samples,
        window_s,
        setup,
        texts,
        kept,
        spans,
        counters: Counters {
            submitted: after.submitted - before.submitted,
            refused: after.rejected - before.rejected,
            ..Counters::default()
        },
        reload_s,
        storage,
        replay: HashMap::new(),
        schemas: HashMap::from([("tpcr".to_string(), table.schema().clone())]),
        table,
        notes,
    }
}
