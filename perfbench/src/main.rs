//! End-to-end benchmark of the Skalla system with a per-layer time
//! breakdown.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload adhoc_mem --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Three seeded workloads run through the system's public entry points:
//!
//! * `adhoc_mem` — one closed-loop TCP client against an in-memory
//!   `skalla_serve::Server`; every request is a distinct text, so every
//!   request misses the result cache. Site scan, sync and wire do the work.
//! * `segments_refresh` — a closed-loop reader driven in-process through
//!   `QueryScheduler` over per-site segment files, while a second thread
//!   rewrites an identical segment generation and reloads it.
//! * `dashboard` — an open loop at a fixed rate over two TCP connections,
//!   cycling a small pool that fits in the cache, with periodic
//!   invalidations causing bursts of misses.
//!
//! Every answer is checked against the centralized evaluator outside the
//! timed window. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`, holding the end-to-end
//! metrics with `--trace 0` and the per-layer metrics with `--trace 1`.
//! A traced run also writes its spans as JSON lines under
//! `perfbench/work/`.

mod check;
mod engine;
mod rng;
mod segments;
mod serve_load;
mod shapes;
mod stats;
mod summary;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use skalla_storage::Catalog;

use engine::RunOutput;
use stats::{mean, median, quantile, ratio, sorted, summarize};
use summary::ExecStats;

/// Where runs keep segment files and traces, relative to the checkout.
const WORK_DIR: &str = "perfbench/work";
/// Threads for the centralized check (the host has two cores).
const CHECK_THREADS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    AdhocMem,
    SegmentsRefresh,
    Dashboard,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "adhoc_mem" => Some(Workload::AdhocMem),
            "segments_refresh" => Some(Workload::SegmentsRefresh),
            "dashboard" => Some(Workload::Dashboard),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::AdhocMem => "adhoc_mem",
            Workload::SegmentsRefresh => "segments_refresh",
            Workload::Dashboard => "dashboard",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1.0..=600.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=600"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Metrics in output order: name → (value, unit).
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        // Non-finite becomes 0; adding 0.0 turns -0.0 into 0.0.
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        self.0.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let items: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!(r#""{n}": {{"value": {v}, "unit": "{u}"}}"#))
            .collect();
        format!("{{{}}}", items.join(", "))
    }
}

fn ms(s: f64) -> f64 {
    s * 1e3
}

/// Mean of `f` over the executed (non-hit) requests.
fn miss_mean(out: &RunOutput, f: impl Fn(&ExecStats) -> f64) -> f64 {
    let v: Vec<f64> = out
        .samples
        .iter()
        .filter_map(|s| s.exec.as_ref())
        .map(f)
        .collect();
    mean(&v)
}

/// Mean of `f` over executed requests, reading the structured counters:
/// the request's own `ExecMetrics` in-process, or its shape's replay over
/// TCP.
fn structured_mean(out: &RunOutput, f: impl Fn(&ExecStats) -> f64) -> f64 {
    let v: Vec<f64> = out
        .samples
        .iter()
        .filter_map(|s| {
            let exec = s.exec.as_ref()?;
            if out.replay.is_empty() {
                Some(f(exec))
            } else {
                out.replay.get(s.shape.name()).map(&f)
            }
        })
        .collect();
    mean(&v)
}

fn miss_sum(out: &RunOutput, f: impl Fn(&ExecStats) -> f64) -> f64 {
    out.samples
        .iter()
        .filter_map(|s| s.exec.as_ref())
        .map(f)
        .sum()
}

fn ok_latencies_ms(out: &RunOutput, pick: impl Fn(&engine::Sample) -> bool) -> Vec<f64> {
    out.samples
        .iter()
        .filter(|s| s.fp.is_some() && pick(s))
        .map(|s| ms(s.latency_s))
        .collect()
}

/// `f` of each distinct executed text, reduced over that text's
/// executions by `reduce`. A text executed twice (two clients missing on
/// it at once) then weighs as much as a text executed once.
fn per_text(
    out: &RunOutput,
    f: impl Fn(&ExecStats) -> f64,
    reduce: impl Fn(&[f64]) -> f64,
) -> Vec<f64> {
    let mut by_text: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for s in &out.samples {
        if let Some(e) = &s.exec {
            by_text.entry(s.text).or_default().push(f(e));
        }
    }
    by_text.values().map(|v| reduce(v)).collect()
}

fn end_to_end(out: &RunOutput) -> Metrics {
    let mut m = Metrics::default();
    let lat = sorted(&ok_latencies_ms(out, |_| true));
    let completed = lat.len() as f64;
    let modeled = per_text(out, |e| ms(e.modeled_s), median);
    let wire = per_text(out, |e| e.bytes_down + e.bytes_up, mean);
    m.put("setup_s", median(&out.setup.total_s), "s");
    m.put("latency_p50_ms", quantile(&lat, 0.5), "ms");
    m.put("latency_p90_ms", quantile(&lat, 0.9), "ms");
    m.put("throughput_qps", completed / out.window_s, "1/s");
    m.put(
        "success_ratio",
        ratio(completed, out.samples.len() as f64),
        "ratio",
    );
    m.put("modeled_p50_ms", median(&modeled), "ms");
    m.put("wire_bytes_per_query", mean(&wire), "B");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    m
}

fn per_layer(out: &RunOutput) -> (Metrics, trace::Breakdown) {
    let mut m = Metrics::default();
    let b = trace::breakdown(&out.spans, "query");
    let traced_queries = b.queries.max(1) as f64;
    let span_total_ms = |name: &str| {
        out.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .sum::<f64>()
            / traced_queries
    };
    let c = &out.counters;

    m.put("planner.parse_ms", b.get("planner.parse"), "ms");
    m.put("planner.choose_plan_ms", b.get("planner.choose_plan"), "ms");
    m.put("serve.overhead_ms", span_total_ms("serve.request"), "ms");
    m.put("serve.codec_ms", b.get("serve.codec"), "ms");
    m.put("serve.session_ms", b.get("serve.session"), "ms");
    // In-process: submit plus ticket wait, minus execution wall. Over TCP, admission
    // wait is not observable on its own: it is what remains of the
    // server-side time after planning, encode/decode and the session floor.
    m.put(
        "sched.queue_wait_ms",
        b.get("sched.wait") + b.get("serve.request"),
        "ms",
    );
    m.put(
        "sched.refused_ratio",
        ratio(c.refused as f64, (c.submitted + c.refused) as f64),
        "ratio",
    );
    let lookups = (c.cache_hits + c.cache_misses) as f64;
    m.put(
        "cache.hit_ratio",
        ratio(c.cache_hits as f64, lookups),
        "ratio",
    );
    m.put("cache.lookups", lookups, "count");
    m.put("cache.invalidations", c.cache_invalidations as f64, "count");

    let misses = out.samples.iter().filter(|s| s.exec.is_some()).count() as f64;
    m.put("warehouse.executed", misses, "count");
    m.put("warehouse.exec_ms", ms(miss_mean(out, |e| e.wall_s)), "ms");
    m.put(
        "warehouse.rounds_per_query",
        miss_mean(out, |e| e.rounds),
        "count",
    );
    m.put(
        "warehouse.unattributed_ms",
        ms(miss_mean(out, |e| e.wall_s - e.site_max_s - e.coord_s)),
        "ms",
    );
    m.put(
        "site.compute_max_ms",
        ms(miss_mean(out, |e| e.site_max_s)),
        "ms",
    );
    m.put(
        "site.compute_total_ms",
        ms(structured_mean(out, |e| e.site_total_s)),
        "ms",
    );
    let compiled = miss_sum(out, |e| e.blocks_compiled);
    m.put(
        "gmdj.compiled_ratio",
        ratio(compiled, compiled + miss_sum(out, |e| e.blocks_interpreted)),
        "ratio",
    );

    let scanned = miss_sum(out, |e| e.segments_scanned);
    let pruned = miss_sum(out, |e| e.segments_pruned);
    m.put(
        "storage.segments_scanned_per_query",
        miss_mean(out, |e| e.segments_scanned),
        "count",
    );
    m.put(
        "storage.pruned_ratio",
        ratio(pruned, scanned + pruned),
        "ratio",
    );
    m.put(
        "storage.blocks_verified_per_query",
        miss_mean(out, |e| e.blocks_verified),
        "count",
    );
    m.put("storage.reload_ms", ms(median(&out.reload_s)), "ms");
    m.put("storage.reloads", out.reload_s.len() as f64, "count");
    m.put(
        "storage.bytes_per_row",
        ratio(out.storage.bytes as f64, out.storage.rows as f64),
        "B",
    );

    m.put(
        "net.bytes_down_per_query",
        miss_mean(out, |e| e.bytes_down),
        "B",
    );
    m.put(
        "net.bytes_up_per_query",
        miss_mean(out, |e| e.bytes_up),
        "B",
    );
    m.put(
        "net.rows_up_per_query",
        structured_mean(out, |e| e.rows_up),
        "count",
    );
    m.put(
        "net.messages_per_query",
        structured_mean(out, |e| e.messages),
        "count",
    );
    m.put(
        "net.comm_modeled_ms",
        ms(miss_mean(out, |e| e.comm_s)),
        "ms",
    );

    m.put(
        "sync.coord_compute_ms",
        ms(miss_mean(out, |e| e.coord_s)),
        "ms",
    );
    m.put(
        "sync.decode_ms",
        ms(miss_mean(out, |e| e.sync_decode_s)),
        "ms",
    );
    m.put(
        "sync.merge_ms",
        ms(miss_mean(out, |e| e.sync_merge_s)),
        "ms",
    );
    m.put(
        "sync.finalize_ms",
        ms(miss_mean(out, |e| e.sync_finalize_s)),
        "ms",
    );
    m.put(
        "sync.groups_per_query",
        structured_mean(out, |e| e.groups),
        "count",
    );

    for shape in shapes::ALL {
        let lat = ok_latencies_ms(out, |s| s.shape == shape);
        m.put(
            format!("shape.{}.latency_p50_ms", shape.name()),
            median(&lat),
            "ms",
        );
    }

    let st = &out.setup;
    m.put("setup.generate_s", st.generate_s, "s");
    m.put("setup.stats_s", st.stats_s, "s");
    m.put("setup.launch_s", st.launch_s, "s");
    m.put("setup.segment_write_s", st.segment_write_s, "s");

    let lag: Vec<f64> = out.samples.iter().map(|s| ms(s.lag_s)).collect();
    m.put("driver.lag_p90_ms", quantile(&sorted(&lag), 0.9), "ms");
    let traced = median(&ok_latencies_ms(out, |s| s.traced));
    let untraced = median(&ok_latencies_ms(out, |s| !s.traced));
    m.put("trace.overhead_ratio", ratio(traced, untraced), "ratio");

    let d = summarize(&ok_latencies_ms(out, |_| true));
    m.put("latency.samples", d.n as f64, "count");
    m.put("latency.tail_pct", d.tail_pct, "%");
    m.put("latency.tail_ms", d.tail, "ms");
    m.put("query.wall_ms", b.wall_ms, "ms");
    m.put("unattributed_ms", unattributed_ms(&b), "ms");
    (m, b)
}

/// Time no layer claims: the self time of the query root and of the
/// round driver.
fn unattributed_ms(b: &trace::Breakdown) -> f64 {
    b.get("query") + b.get("warehouse.exec")
}

/// The per-layer self-time table of the traced queries: each row is a
/// layer's mean self time per query; the rows add up to the mean wall.
fn print_breakdown(b: &trace::Breakdown) {
    println!(
        "# per-query self time by layer ({} traced queries)",
        b.queries
    );
    for (layer, v) in &b.self_ms {
        if *layer == "query" || *layer == "warehouse.exec" {
            continue;
        }
        println!("#   {layer:<22} {v:>10.4} ms");
    }
    println!("#   {:<22} {:>10.4} ms", "unattributed", unattributed_ms(b));
    let total: f64 = b.self_ms.values().sum();
    println!(
        "#   {:<22} {total:>10.4} ms (query wall {:.4} ms)",
        "sum", b.wall_ms
    );
}

/// Check every reply against the centralized evaluator; returns the
/// mismatches found.
fn check(out: &mut RunOutput) -> Result<Vec<String>, String> {
    let texts: Vec<String> = out.texts.list.iter().map(|(_, t)| t.clone()).collect();
    let mut catalog = Catalog::new();
    let table = std::mem::replace(
        &mut out.table,
        skalla_storage::Table::empty(skalla_tpcr::tpcr_schema()),
    );
    catalog.register("tpcr", table);
    let expected = check::centralized(&texts, &out.schemas, &catalog, CHECK_THREADS)?;
    let fps: Vec<check::Fingerprint> = expected.iter().map(check::fingerprint).collect();
    let mut bad = Vec::new();
    for s in &out.samples {
        if let Some(fp) = s.fp {
            if fp != fps[s.text] {
                bad.push(format!(
                    "{}: reply differs from the centralized answer ({} rows, expected {}): {}",
                    s.shape.name(),
                    fp.rows,
                    fps[s.text].rows,
                    texts[s.text]
                        .split_whitespace()
                        .collect::<Vec<_>>()
                        .join(" ")
                ));
            }
        }
    }
    for (id, rows) in &out.kept {
        if let Err(e) = check::compare_bits(rows, &expected[*id]) {
            bad.push(format!("{}: {e}", out.texts.list[*id].0.name()));
        }
    }
    Ok(bad)
}

fn run(args: &Args) -> Result<bool, String> {
    let work = PathBuf::from(WORK_DIR);
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {WORK_DIR}: {e}"))?;
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut out = match args.workload {
        Workload::AdhocMem => serve_load::adhoc_mem(args),
        Workload::Dashboard => serve_load::dashboard(args),
        Workload::SegmentsRefresh => {
            let dir = work.join(format!("segments-{}", std::process::id()));
            let out = segments::segments_refresh(args, &dir);
            std::fs::remove_dir_all(&dir)
                .map_err(|e| format!("removing {}: {e}", dir.display()))?;
            out
        }
    };
    for note in &out.notes {
        println!("# {note}");
    }
    let d = summarize(&ok_latencies_ms(&out, |_| true));
    println!(
        "# latency: n={} p50={:.3} ms p{}={:.3} ms (highest percentile with >= 10 samples beyond it)",
        d.n, d.p50, d.tail_pct, d.tail
    );
    let metrics = if args.trace {
        let path = work.join(format!(
            "trace-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        trace::write_jsonl(&path, &out.spans)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("# spans: {} written to {}", out.spans.len(), path.display());
        let (m, b) = per_layer(&out);
        print_breakdown(&b);
        m
    } else {
        end_to_end(&out)
    };
    let bad = check(&mut out)?;
    for b in bad.iter().take(5) {
        eprintln!("MISMATCH {b}");
    }
    let attempted = out.samples.len();
    let failed = out.samples.iter().filter(|s| s.fp.is_none()).count();
    let correct = bad.is_empty() && attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload adhoc_mem|segments_refresh|dashboard \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    if !Path::new("perfbench").is_dir() {
        eprintln!("perfbench: run from the repository root");
        return ExitCode::from(2);
    }
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_arguments() {
        let a = parse_args(&argv(
            "--workload dashboard --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::Dashboard);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20.0, true));
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 5 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload adhoc_mem --seed 1 --seconds 5 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload adhoc_mem --seed 1 --trace 0")).is_err());
    }

    #[test]
    fn metrics_serialize_every_digit_and_never_nan() {
        let mut m = Metrics::default();
        m.put("a_ms", 1.203_456_789_1, "ms");
        m.put("b", f64::NAN, "count");
        m.put("c", -0.0, "ms");
        assert_eq!(
            m.json(),
            r#"{"a_ms": {"value": 1.2034567891, "unit": "ms"}, "b": {"value": 0, "unit": "count"}, "c": {"value": 0, "unit": "ms"}}"#
        );
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
