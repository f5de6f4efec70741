//! Sharded, pipelined synchronization: the one Theorem 1 engine every
//! coordinator tier runs.
//!
//! The reference [`BaseResult`](crate::baseresult::BaseResult)
//! synchronizes O(|H|) but on one thread, re-hashing a freshly allocated
//! `Vec<Value>` key per fragment row. At coordinator-bound scale (many
//! groups × many sites) that merge loop *is* the response time.
//! [`ShardedSync`] parallelizes it the way morsel-driven engines partition
//! aggregation:
//!
//! * the group space is hash-partitioned into `shards` (a power of two)
//!   disjoint shards by a key hash computed **once** per row;
//! * each of `workers` merge threads **owns a fixed contiguous shard
//!   range** — the router sends a routed row straight to its owner's
//!   bounded queue, so a row crosses exactly one thread boundary and no
//!   worker ever touches another worker's shards;
//! * the router ships **row locators, not row values**: a batch carries
//!   `Arc` references to the fragment chunks plus `(hash, chunk, row)`
//!   coordinates per shard, so the router thread never moves or frees a
//!   `Value` and stays far off the critical path;
//! * batch sizes grow **adaptively under backpressure**: when a worker's
//!   queue is full the router keeps accumulating (up to
//!   [`SyncOptions::flush_rows_max`]) instead of blocking, so saturated
//!   mergers receive fewer, larger batches;
//! * per-group state lives in typed [`AggSlot`] columns, and workers merge
//!   whole batches at a time through [`AggSlot::merge_rows`] — the same
//!   lane-style kernels (`skalla-expr` typed lanes with null masks) the
//!   compiled site path uses, not a scalar `Value` match per row.
//!
//! **Determinism.** The merge is not idempotent and float addition is not
//! commutative-associative in bits, so the engine must replay exactly the
//! serial merge order *within each group*. Every fragment row has a global
//! arrival index (derived from its chunk's base index, never stored per
//! row); the router routes rows in arrival order and each shard therefore
//! sees its rows as a subsequence of the serial order, so a group — which
//! lives in exactly one shard — merges bit-for-bit identically (including
//! float `AVG` state and `-0.0`). Group *creation* arrival indices are
//! recorded, and the output is assembled by a **merge tree**: each worker
//! k-way-merges its shards' creation-ordered groups into one sorted run
//! (rendering final values as it goes), and [`ShardedSync::finish`]
//! k-way-merges the per-worker runs. Both levels preserve creation order,
//! which reproduces the serial structure's insertion order exactly.
//!
//! **All-or-nothing fragments.** Each chunk is validated (arity and state
//! column types) on the router thread *before* any row is routed, so a bad
//! fragment is rejected synchronously without mutating any shard or any
//! pending batch — the same guarantee the serial `merge_fragment`
//! provides.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use skalla_gmdj::{slots_for_specs, AggSlot, AggSpec, MergeScratch};
use skalla_types::{exact_i64, DataType, Field, Relation, Result, Row, Schema, SkallaError, Value};

/// Per-thread CPU seconds (monotonic within a thread).
///
/// Stage timings ([`SyncStats::partition_s`], worker busy, finalize) must
/// stay meaningful on hosts with fewer cores than pipeline threads, where
/// a wall clock silently charges one stage for time the OS spent running
/// another. On Linux/x86_64 this reads `CLOCK_THREAD_CPUTIME_ID` via a
/// raw `clock_gettime` syscall (std exposes no thread CPU clock and the
/// engine takes no libc dependency); elsewhere it falls back to a
/// per-thread wall clock and the stage timings become upper bounds under
/// contention.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub(crate) fn thread_cpu_s() -> f64 {
    const SYS_CLOCK_GETTIME: u64 = 228;
    const CLOCK_THREAD_CPUTIME_ID: u64 = 3;
    let mut ts = [0i64; 2]; // struct timespec { tv_sec, tv_nsec }
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_CLOCK_GETTIME => _,
            in("rdi") CLOCK_THREAD_CPUTIME_ID,
            in("rsi") ts.as_mut_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ts[0] as f64 + ts[1] as f64 * 1e-9
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub(crate) fn thread_cpu_s() -> f64 {
    thread_local! {
        static ANCHOR: Instant = Instant::now();
    }
    ANCHOR.with(|t| t.elapsed().as_secs_f64())
}

/// What [`ShardedSync::finish`] renders per group after the base columns.
#[derive(Debug, Clone)]
pub enum SyncOutput {
    /// Finalized aggregate outputs (the coordinator's `B_k`), under these
    /// fields.
    Finalized(Vec<Field>),
    /// Raw sub-aggregate state columns (the mid-tier ship format,
    /// identical to `BaseResult::to_state_relation`).
    State,
}

/// The shape of one synchronization: schema, key, aggregates, and mode.
#[derive(Debug, Clone)]
pub struct SyncSpec {
    /// Base-part schema of fragment rows.
    pub base_schema: Arc<Schema>,
    /// Key column indices within the base part.
    pub key_cols: Vec<usize>,
    /// The segment's flattened aggregates, in fragment column order.
    pub specs: Vec<AggSpec>,
    /// Declared state column types, flattened across `specs`.
    pub state_types: Vec<DataType>,
    /// What to render at the end.
    pub output: SyncOutput,
    /// Proposition 2 mode: insert unknown groups instead of erroring.
    pub allow_new: bool,
}

/// Parallelism knobs for a [`ShardedSync`].
#[derive(Debug, Clone, Copy)]
pub struct SyncOptions {
    /// Merge worker threads (≥ 1, clamped to the shard count).
    pub workers: usize,
    /// Hash shards of the group space, rounded up to a power of two so the
    /// router can mask instead of divide. Each worker owns a fixed
    /// contiguous range of shards.
    pub shards: usize,
    /// Bounded depth (in routed batches) of each worker's queue — the
    /// backpressure signal that drives adaptive batch growth.
    pub queue_batches: usize,
    /// Router-side accumulation floor: rows buffered per worker before the
    /// router first attempts to push a batch. Smaller values start the
    /// route/merge overlap earlier.
    pub flush_rows: usize,
    /// Adaptive ceiling: under backpressure (owner's queue full) the
    /// router doubles a worker's batch target instead of blocking, up to
    /// this many rows; past it the router blocks, which is the memory
    /// bound.
    pub flush_rows_max: usize,
}

impl SyncOptions {
    /// Sensible defaults for `workers` threads: one shard per worker
    /// (rounded to a power of two), a short queue, and batches that grow
    /// from ~4k to ~64k rows under backpressure.
    ///
    /// One shard per worker is deliberate: a worker walks each batch's
    /// shared chunk memory once per owned shard, at a stride of the total
    /// shard count, so extra shards per worker multiply cache re-walks
    /// without adding balance — uniform hashing already spreads rows
    /// binomially, and because ownership is *contiguous*, hash-space skew
    /// lands on the same worker no matter how finely its range is split.
    /// Raise [`SyncOptions::with_shards`] only to decouple partition
    /// granularity from the worker count (e.g. to replay a plan's shard
    /// layout).
    pub fn for_workers(workers: usize) -> SyncOptions {
        let w = workers.max(1);
        SyncOptions {
            workers: w,
            shards: w.next_power_of_two(),
            queue_batches: 4,
            flush_rows: 4096,
            flush_rows_max: 65536,
        }
    }

    /// Override the shard count (rounded up to a power of two ≥ 1).
    pub fn with_shards(mut self, shards: usize) -> SyncOptions {
        self.shards = shards.max(1);
        self
    }
}

/// Timing breakdown of one sharded synchronization.
///
/// The per-stage timings (`partition_s`, `worker_busy_s`, `finalize_s`)
/// are **thread CPU seconds** where the platform provides a thread CPU
/// clock (Linux), so they measure work actually executed and stay
/// comparable across worker counts even on hosts with fewer cores than
/// pipeline threads; `wall_s` and `drain_s` are wall-clock.
#[derive(Debug, Clone, Default)]
pub struct SyncStats {
    /// Router CPU seconds: validation, key hashing, and locator routing.
    pub partition_s: f64,
    /// Summed busy merge CPU seconds across workers (total work performed).
    pub merge_busy_s: f64,
    /// Per-worker busy merge CPU seconds (`merge_busy_s` is their sum);
    /// the spread is the skew a perfect hash partition would avoid.
    pub worker_busy_s: Vec<f64>,
    /// Finalize CPU seconds: slowest worker's render-merge plus the final
    /// merge of per-worker runs.
    pub finalize_s: f64,
    /// Serialized tail of [`ShardedSync::finish`]: closing the queues to
    /// the ordered result (the only part not overlapped with receive).
    pub drain_s: f64,
    /// Engine lifetime seconds (construction to finish).
    pub wall_s: f64,
    /// Worker threads used.
    pub workers: usize,
    /// Shards used.
    pub shards: usize,
    /// Groups in the result.
    pub groups: usize,
    /// Batches shipped to workers (adaptive growth makes this shrink under
    /// backpressure).
    pub batches: u64,
}

impl SyncStats {
    /// Fraction of the worker pool's capacity spent merging over the
    /// engine's lifetime (1.0 = every worker busy the whole time).
    pub fn utilization(&self) -> f64 {
        if self.wall_s <= 0.0 || self.workers == 0 {
            0.0
        } else {
            (self.merge_busy_s / (self.workers as f64 * self.wall_s)).min(1.0)
        }
    }

    /// The busiest worker's merge seconds.
    pub fn max_worker_busy_s(&self) -> f64 {
        self.worker_busy_s.iter().fold(0.0, |a, &b| a.max(b))
    }

    /// Load imbalance across workers: busiest / mean busy seconds
    /// (1.0 = perfectly balanced hash partition).
    pub fn imbalance(&self) -> f64 {
        if self.worker_busy_s.is_empty() || self.merge_busy_s <= 0.0 {
            return 1.0;
        }
        self.max_worker_busy_s() * self.worker_busy_s.len() as f64 / self.merge_busy_s
    }

    /// The pipeline's critical-path seconds if every stage ran on its own
    /// core: the router and the busiest worker overlap (the slower of the
    /// two bounds), then the finalize merge tree runs. On hosts with fewer
    /// cores than `workers + 1` the measured wall time degenerates toward
    /// the *sum* of the stages instead; this model is what the stage
    /// timings imply for a host that can actually express the parallelism.
    pub fn modeled_parallel_s(&self) -> f64 {
        self.partition_s.max(self.max_worker_busy_s()) + self.finalize_s
    }
}

/// A fragment chunk shared with the workers by reference, plus the global
/// arrival index of its row 0 (row `i`'s arrival is `base_arrival + i`).
struct ChunkRef {
    rel: Arc<Relation>,
    base_arrival: u64,
}

/// One shard's routed row locators: the key hash (computed once, on the
/// router) and a packed `(chunk slot << 32) | row index` coordinate into
/// the batch's chunk list. No row values travel through the channel.
#[derive(Default)]
struct Bucket {
    hashes: Vec<u64>,
    locs: Vec<u64>,
}

/// One batch on a worker's queue: the referenced chunks plus per-shard
/// locator buckets (indexed by the worker's local shard index).
struct WorkerBatch {
    chunks: Vec<ChunkRef>,
    buckets: Vec<Bucket>,
    rows: usize,
}

/// Router-side accumulation state for one worker.
struct Pending {
    chunks: Vec<ChunkRef>,
    buckets: Vec<Bucket>,
    rows: usize,
    /// Current adaptive flush threshold (rows).
    target: usize,
    /// This worker's slot in `chunks` for the chunk currently being
    /// routed, lazily assigned on its first row for this worker.
    chunk_slot: Option<u32>,
}

impl Pending {
    fn take_batch(&mut self) -> WorkerBatch {
        let rows = self.rows;
        self.rows = 0;
        self.chunk_slot = None;
        WorkerBatch {
            chunks: std::mem::take(&mut self.chunks),
            buckets: self.buckets.iter_mut().map(std::mem::take).collect(),
            rows,
        }
    }

    fn put_back(&mut self, b: WorkerBatch) {
        self.chunks = b.chunks;
        self.buckets = b.buckets;
        self.rows = b.rows;
        // `chunk_slot` stays `None`: the next chunk re-registers itself
        // (at worst one duplicate `Arc` per put-back, which is harmless).
    }
}

/// Per-state-column validation, flattened for the router's hot loop —
/// semantically identical to chaining [`AggSlot::validate_incoming`]
/// across the slots.
#[derive(Debug, Clone, Copy)]
enum ColCheck {
    /// Non-null `Int` (`COUNT`, and the count component of `AVG`).
    IntStrict,
    /// `Int` or `NULL`.
    IntOpt,
    /// `Float` or `NULL`.
    FloatOpt,
    /// Anything (`MIN`/`MAX` over non-numeric values).
    Any,
}

impl ColCheck {
    /// The flattened per-column checks for one slot's state columns.
    fn for_slot(slot: &AggSlot) -> Vec<ColCheck> {
        match slot {
            AggSlot::Count { .. } => vec![ColCheck::IntStrict],
            AggSlot::SumI { .. } | AggSlot::MinMaxI { .. } => vec![ColCheck::IntOpt],
            AggSlot::SumF { .. } | AggSlot::MinMaxF { .. } => vec![ColCheck::FloatOpt],
            AggSlot::AvgI { .. } => vec![ColCheck::IntOpt, ColCheck::IntStrict],
            AggSlot::AvgF { .. } => vec![ColCheck::FloatOpt, ColCheck::IntStrict],
            AggSlot::MinMaxV { .. } => vec![ColCheck::Any],
        }
    }

    #[inline]
    fn check(self, v: &Value) -> Result<()> {
        let want = match (self, v) {
            (ColCheck::IntStrict, Value::Int(_)) => return Ok(()),
            (ColCheck::IntOpt, Value::Int(_) | Value::Null) => return Ok(()),
            (ColCheck::FloatOpt, Value::Float(_) | Value::Null) => return Ok(()),
            (ColCheck::Any, _) => return Ok(()),
            (ColCheck::IntStrict, _) => "Int count",
            (ColCheck::IntOpt, _) => "Int or NULL",
            (ColCheck::FloatOpt, _) => "Float or NULL",
        };
        Err(SkallaError::type_error(format!(
            "fragment state column: expected {want}, got {v}"
        )))
    }
}

/// What each worker hands back when its queue closes.
struct WorkerOut {
    /// `(creation arrival index, rendered row)` sorted by the index — one
    /// pre-merged run of the output merge tree.
    rendered: Vec<(u64, Row)>,
    merge_busy_s: f64,
    finalize_s: f64,
    groups: usize,
}

/// The sharded synchronization engine. Feed chunks with
/// [`ShardedSync::merge_chunk`] as they arrive, then call
/// [`ShardedSync::finish`].
pub struct ShardedSync {
    base_schema: Arc<Schema>,
    base_width: usize,
    state_width: usize,
    key_cols: Arc<Vec<usize>>,
    /// Flattened per-state-column checks used for router-side validation.
    checks: Vec<ColCheck>,
    spec_widths: Vec<usize>,
    state_types: Vec<DataType>,
    output: SyncOutput,
    workers: usize,
    shards: usize,
    /// `shards - 1` (the shard count is always a power of two).
    shard_mask: u64,
    /// Shard → owning worker (contiguous ranges).
    owner_of: Vec<u32>,
    /// Shard → index within its owner's shard set.
    local_of: Vec<u32>,
    flush_rows: usize,
    flush_rows_max: usize,
    /// Per-worker accumulating batches.
    pending: Vec<Pending>,
    /// Reusable per-chunk key-hash buffer (filled by the validate pass so
    /// the route pass never re-reads row memory).
    hash_scratch: Vec<u64>,
    txs: Vec<SyncSender<WorkerBatch>>,
    handles: Vec<JoinHandle<Result<WorkerOut>>>,
    poisoned: Arc<AtomicBool>,
    first_err: Arc<Mutex<Option<SkallaError>>>,
    arrival: u64,
    rows_merged: u64,
    partition_s: f64,
    batches: u64,
    started: Instant,
}

impl ShardedSync {
    /// Build the engine, optionally seeding groups from a synchronized
    /// base relation (every aggregate at its identity state, duplicate
    /// base rows collapsing to one group — exactly
    /// `BaseResult::from_base`).
    pub fn new(spec: SyncSpec, seed: Option<&Relation>, opts: SyncOptions) -> Result<ShardedSync> {
        let SyncSpec {
            base_schema,
            key_cols,
            specs,
            state_types,
            output,
            allow_new,
        } = spec;
        let base_width = base_schema.len();
        for &c in &key_cols {
            if c >= base_width {
                return Err(SkallaError::plan(format!(
                    "key column {c} out of range for base width {base_width}"
                )));
            }
        }
        let proto = slots_for_specs(&specs, &state_types)?;
        let checks: Vec<ColCheck> = proto.iter().flat_map(ColCheck::for_slot).collect();
        let spec_widths: Vec<usize> = specs.iter().map(AggSpec::state_width).collect();
        let state_width: usize = spec_widths.iter().sum();
        let shards = opts.shards.max(1).next_power_of_two();
        let workers = opts.workers.max(1).min(shards);
        let shard_mask = shards as u64 - 1;
        let key_cols = Arc::new(key_cols);

        // Fixed ownership: worker `w` owns the contiguous shard range
        // `[w·S/W, (w+1)·S/W)` (sizes differ by at most one shard).
        let mut owner_of = Vec::with_capacity(shards);
        let mut local_of = Vec::with_capacity(shards);
        let mut owned = vec![0u32; workers];
        for s in 0..shards {
            let w = s * workers / shards;
            owner_of.push(w as u32);
            local_of.push(owned[w]);
            owned[w] += 1;
        }

        // Seed the shards on this thread: creation indices 0..n reproduce
        // the serial insertion order of the base rows. Per-shard creation
        // vectors stay sorted because arrivals only grow.
        let mut all_shards: Vec<Shard> = (0..shards).map(|_| Shard::new(&proto)).collect();
        let mut arrival = 0u64;
        if let Some(base) = seed {
            if base.schema().len() != base_width {
                return Err(SkallaError::exec(format!(
                    "group row has {} columns, base schema has {}",
                    base.schema().len(),
                    base_width
                )));
            }
            for row in base.rows() {
                let hash = hash_key(row, &key_cols);
                let shard = &mut all_shards[(hash & shard_mask) as usize];
                shard.seed_group(hash, row, &key_cols, arrival);
                arrival += 1;
            }
        }

        // Hand each worker its owned shard range and a bounded queue.
        let mut per_worker: Vec<Vec<Shard>> = (0..workers).map(|_| Vec::new()).collect();
        for (s, shard) in all_shards.into_iter().enumerate() {
            per_worker[owner_of[s] as usize].push(shard);
        }
        let poisoned = Arc::new(AtomicBool::new(false));
        let first_err = Arc::new(Mutex::new(None));
        let render_state = matches!(output, SyncOutput::State);
        let mut txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        let mut pending = Vec::with_capacity(workers);
        for shard_set in per_worker {
            let (tx, rx) = sync_channel::<WorkerBatch>(opts.queue_batches.max(1));
            txs.push(tx);
            pending.push(Pending {
                chunks: Vec::new(),
                buckets: (0..shard_set.len()).map(|_| Bucket::default()).collect(),
                rows: 0,
                target: opts.flush_rows.max(1),
                chunk_slot: None,
            });
            let ctx = WorkerCtx {
                rx,
                shards: shard_set,
                base_width,
                state_width,
                key_cols: key_cols.clone(),
                allow_new,
                render_state,
            };
            let poisoned = poisoned.clone();
            let first_err = first_err.clone();
            handles.push(std::thread::spawn(move || {
                let res = run_worker(ctx);
                if let Err(e) = &res {
                    poisoned.store(true, Ordering::Release);
                    first_err
                        .lock()
                        .expect("sync error slot")
                        .get_or_insert(e.clone());
                }
                res
            }));
        }
        Ok(ShardedSync {
            base_schema,
            base_width,
            state_width,
            key_cols,
            checks,
            spec_widths,
            state_types,
            output,
            workers,
            shards,
            shard_mask,
            owner_of,
            local_of,
            flush_rows: opts.flush_rows.max(1),
            flush_rows_max: opts.flush_rows_max.max(opts.flush_rows.max(1)),
            pending,
            hash_scratch: Vec::new(),
            txs,
            handles,
            poisoned,
            first_err,
            arrival,
            rows_merged: 0,
            partition_s: 0.0,
            batches: 0,
            started: Instant::now(),
        })
    }

    /// Validate, hash, and route one fragment chunk to its owning workers.
    /// A rejected chunk (arity or state-type mismatch) leaves the engine
    /// exactly as if the chunk never arrived: validation runs to
    /// completion *before* the first row is routed, so nothing — pending
    /// batch, arrival counter, shard — is ever touched by a bad chunk.
    pub fn merge_chunk(&mut self, frag: Relation) -> Result<()> {
        if self.poisoned.load(Ordering::Acquire) {
            return Err(self.stored_error());
        }
        let t = thread_cpu_s();
        let expect = self.base_width + self.state_width;
        if frag.schema().len() != expect {
            return Err(SkallaError::exec(format!(
                "fragment has {} columns, expected {} (base {} + state {})",
                frag.schema().len(),
                expect,
                self.base_width,
                self.state_width
            )));
        }
        let n = frag.len();
        if n == 0 {
            self.partition_s += thread_cpu_s() - t;
            return Ok(());
        }
        // Pass 1: validate every row (synchronous all-or-nothing
        // rejection, before anything is mutated) and hash its key while
        // the row is hot — the hash buffer is scratch, so an error here
        // still leaves the engine untouched. On large chunks with idle
        // merge capacity the pass splits across the chunk halves: the
        // router keeps the lower half (its CPU stays in `partition_s`)
        // while a scoped helper runs the upper half, and the lower half's
        // error is reported first so the surfaced row matches a serial
        // scan's earliest failure half.
        self.hash_scratch.clear();
        self.hash_scratch.resize(n, 0);
        let rows = frag.rows();
        if self.workers > 1 && n >= PAR_VALIDATE_MIN_ROWS {
            let mid = n / 2;
            let (lo_out, hi_out) = self.hash_scratch.split_at_mut(mid);
            let (base_width, checks, key_cols) = (self.base_width, &self.checks, &*self.key_cols);
            let (lo, hi) = std::thread::scope(|s| {
                let hi = s.spawn(move || {
                    validate_and_hash(&rows[mid..], base_width, checks, key_cols, hi_out)
                });
                let lo = validate_and_hash(&rows[..mid], base_width, checks, key_cols, lo_out);
                (lo, hi.join().expect("validate half"))
            });
            lo?;
            hi?;
        } else {
            validate_and_hash(
                rows,
                self.base_width,
                &self.checks,
                &self.key_cols,
                &mut self.hash_scratch,
            )?;
        }
        // Pass 2: route a locator per row to its shard's owner, straight
        // off the precomputed hashes — no row memory is touched. The chunk
        // itself is shared by reference; row values never move.
        let chunk = Arc::new(frag);
        let base_arrival = self.arrival;
        for p in &mut self.pending {
            p.chunk_slot = None;
        }
        for (i, &hash) in self.hash_scratch.iter().enumerate() {
            let shard = (hash & self.shard_mask) as usize;
            let p = &mut self.pending[self.owner_of[shard] as usize];
            let slot = match p.chunk_slot {
                Some(s) => s,
                None => {
                    let s = p.chunks.len() as u32;
                    p.chunks.push(ChunkRef {
                        rel: chunk.clone(),
                        base_arrival,
                    });
                    p.chunk_slot = Some(s);
                    s
                }
            };
            let bucket = &mut p.buckets[self.local_of[shard] as usize];
            bucket.hashes.push(hash);
            bucket.locs.push((u64::from(slot) << 32) | i as u64);
            p.rows += 1;
        }
        self.arrival += n as u64;
        self.rows_merged += n as u64;
        self.partition_s += thread_cpu_s() - t;
        // Sends sit outside the timer: a full queue is backpressure (the
        // mergers are saturated), not router compute.
        for w in 0..self.workers {
            if self.pending[w].rows >= self.pending[w].target {
                self.flush_worker(w)?;
            }
        }
        Ok(())
    }

    /// Try to push worker `w`'s accumulated batch. A full queue grows the
    /// adaptive target (the router keeps accumulating) until the ceiling,
    /// past which the router blocks — the memory bound.
    fn flush_worker(&mut self, w: usize) -> Result<()> {
        let batch = self.pending[w].take_batch();
        if batch.rows == 0 {
            return Ok(());
        }
        let rows = batch.rows;
        match self.txs[w].try_send(batch) {
            Ok(()) => {
                self.batches += 1;
                // Queue had room: decay toward the floor so batch sizes
                // track the mergers' actual drain rate.
                let p = &mut self.pending[w];
                p.target = (p.target * 3 / 4).max(self.flush_rows);
                Ok(())
            }
            Err(TrySendError::Full(b)) => {
                let p = &mut self.pending[w];
                if rows < self.flush_rows_max {
                    p.put_back(b);
                    p.target = (p.target * 2).min(self.flush_rows_max);
                    Ok(())
                } else if self.txs[w].send(b).is_ok() {
                    self.batches += 1;
                    Ok(())
                } else {
                    Err(self.stored_error())
                }
            }
            Err(TrySendError::Disconnected(_)) => Err(self.stored_error()),
        }
    }

    /// Close the queues, join the workers, and merge the per-worker
    /// creation-ordered runs into the synchronized relation — exactly the
    /// serial insertion order.
    pub fn finish(mut self) -> Result<(Relation, SyncStats)> {
        let t_drain = Instant::now();
        // Flush whatever the accumulators still hold, ignoring send errors
        // here — a dead worker's own error is picked up after the join.
        for w in 0..self.workers {
            let batch = self.pending[w].take_batch();
            if batch.rows > 0 && self.txs[w].send(batch).is_ok() {
                self.batches += 1;
            }
        }
        self.txs.clear(); // closes every queue
        let mut outs: Vec<WorkerOut> = Vec::with_capacity(self.handles.len());
        let mut join_err: Option<SkallaError> = None;
        for h in self.handles.drain(..) {
            match h.join() {
                Ok(Ok(o)) => outs.push(o),
                Ok(Err(e)) => {
                    join_err.get_or_insert(e);
                }
                Err(_) => {
                    join_err.get_or_insert(SkallaError::exec("sync worker panicked"));
                }
            }
        }
        if let Some(e) = self.first_err.lock().expect("sync error slot").take() {
            return Err(e);
        }
        if let Some(e) = join_err {
            return Err(e);
        }

        let t_order = thread_cpu_s();
        let groups: usize = outs.iter().map(|o| o.groups).sum();
        let worker_busy_s: Vec<f64> = outs.iter().map(|o| o.merge_busy_s).collect();
        let runs: Vec<Vec<(u64, Row)>> = outs
            .iter_mut()
            .map(|o| std::mem::take(&mut o.rendered))
            .collect();
        let rows = merge_runs(runs, groups);

        let mut fields = self.base_schema.fields().to_vec();
        match &self.output {
            SyncOutput::Finalized(out_fields) => fields.extend(out_fields.iter().cloned()),
            SyncOutput::State => {
                // Same placeholder names as `to_state_relation`, but with
                // the real declared state types.
                let mut off = 0;
                for (i, &w) in self.spec_widths.iter().enumerate() {
                    for j in 0..w {
                        fields.push(Field::new(
                            format!("__state_{i}_{j}"),
                            self.state_types[off + j],
                        ));
                    }
                    off += w;
                }
            }
        }
        let schema = Arc::new(Schema::new(fields)?);
        let rel = Relation::from_rows_unchecked(schema, rows);
        let order_s = thread_cpu_s() - t_order;

        let stats = SyncStats {
            partition_s: self.partition_s,
            merge_busy_s: worker_busy_s.iter().sum(),
            worker_busy_s,
            finalize_s: outs.iter().map(|o| o.finalize_s).fold(0.0, f64::max) + order_s,
            drain_s: t_drain.elapsed().as_secs_f64(),
            wall_s: self.started.elapsed().as_secs_f64(),
            workers: self.workers,
            shards: self.shards,
            groups,
            batches: self.batches,
        };
        Ok((rel, stats))
    }

    /// Rows routed so far (excludes seeded base rows).
    pub fn rows_merged(&self) -> u64 {
        self.rows_merged
    }

    fn stored_error(&self) -> SkallaError {
        self.first_err
            .lock()
            .expect("sync error slot")
            .take()
            .unwrap_or_else(|| SkallaError::exec("sync worker terminated"))
    }
}

impl Drop for ShardedSync {
    /// An engine dropped without [`ShardedSync::finish`] (a round that
    /// failed mid-collection) still joins its workers: closing the queues
    /// ends each one once its queued batches drain. Worker errors are
    /// ignored here; `finish` is the method that reports them.
    fn drop(&mut self) {
        self.txs.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Chunk-row floor below which splitting the validate+hash pass across
/// threads costs more (thread hand-off, cache sharing) than it saves.
const PAR_VALIDATE_MIN_ROWS: usize = 1024;

/// The fused Pass-1 kernel of [`ShardedSync::merge_chunk`] over one slice
/// of a chunk's rows: validate every state column and record each row's
/// key hash in `out` (which must be `rows.len()` long). Runs on the router
/// thread, and on a scoped helper for the upper half of large chunks.
fn validate_and_hash(
    rows: &[Row],
    base_width: usize,
    checks: &[ColCheck],
    key_cols: &[usize],
    out: &mut [u64],
) -> Result<()> {
    debug_assert_eq!(rows.len(), out.len());
    for (row, h) in rows.iter().zip(out.iter_mut()) {
        for (v, c) in row[base_width..].iter().zip(checks) {
            c.check(v)?;
        }
        *h = hash_key(row, key_cols);
    }
    Ok(())
}

/// Top level of the output merge tree: k-way merge of the per-worker
/// creation-ordered runs (creation indices are globally unique).
fn merge_runs(runs: Vec<Vec<(u64, Row)>>, total: usize) -> Vec<Row> {
    let mut nonempty: Vec<Vec<(u64, Row)>> = runs.into_iter().filter(|r| !r.is_empty()).collect();
    if nonempty.len() <= 1 {
        return nonempty
            .pop()
            .unwrap_or_default()
            .into_iter()
            .map(|(_, row)| row)
            .collect();
    }
    let mut iters: Vec<std::vec::IntoIter<(u64, Row)>> =
        nonempty.into_iter().map(Vec::into_iter).collect();
    let mut heads: Vec<Option<Row>> = Vec::with_capacity(iters.len());
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::with_capacity(iters.len());
    for (i, it) in iters.iter_mut().enumerate() {
        let (c, row) = it.next().expect("non-empty run");
        heap.push(Reverse((c, i)));
        heads.push(Some(row));
    }
    let mut out = Vec::with_capacity(total);
    while let Some(Reverse((_, i))) = heap.pop() {
        out.push(heads[i].take().expect("run head"));
        if let Some((c, row)) = iters[i].next() {
            heap.push(Reverse((c, i)));
            heads[i] = Some(row);
        }
    }
    out
}

struct WorkerCtx {
    rx: Receiver<WorkerBatch>,
    /// This worker's owned shards, densely indexed by local shard index.
    shards: Vec<Shard>,
    base_width: usize,
    state_width: usize,
    key_cols: Arc<Vec<usize>>,
    allow_new: bool,
    render_state: bool,
}

fn run_worker(ctx: WorkerCtx) -> Result<WorkerOut> {
    let WorkerCtx {
        rx,
        mut shards,
        base_width,
        state_width,
        key_cols,
        allow_new,
        render_state,
    } = ctx;
    let mut busy = 0.0f64;
    let mut gids: Vec<u32> = Vec::new();
    // One typed scratch per slot, with each slot's state offset within a
    // fragment row: the resolve pass gathers every slot's lanes in its one
    // pass over the (scattered) chunk rows, then the merge kernels sweep
    // contiguous typed memory.
    let (offs, mut scratches): (Vec<usize>, Vec<MergeScratch>) = {
        let slots = &shards.first().expect("worker owns >= 1 shard").slots;
        let mut offs = Vec::with_capacity(slots.len());
        let mut off = base_width;
        for slot in slots {
            offs.push(off);
            off += slot.state_width();
        }
        debug_assert_eq!(off, base_width + state_width);
        (
            offs,
            slots.iter().map(|_| MergeScratch::default()).collect(),
        )
    };
    while let Ok(batch) = rx.recv() {
        let t = thread_cpu_s();
        for (local, bucket) in batch.buckets.iter().enumerate() {
            if bucket.hashes.is_empty() {
                continue;
            }
            let shard = &mut shards[local];
            gids.clear();
            scratches.iter_mut().for_each(MergeScratch::clear);
            // Resolve + gather pass: probe/create each row's group
            // (creation order is bucket order, which is arrival order) and
            // columnarize its state while the row is hot.
            #[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
            for (k, (&hash, &loc)) in bucket.hashes.iter().zip(&bucket.locs).enumerate() {
                // The locators make the access pattern visible ahead of
                // time: start pulling a future row's cache lines now so
                // the scattered dereference below doesn't stall.
                #[cfg(target_arch = "x86_64")]
                if let Some(&loc) = bucket.locs.get(k + 8) {
                    let chunk = &batch.chunks[(loc >> 32) as usize];
                    let ri = (loc & 0xffff_ffff) as usize;
                    let p = chunk.rel.rows()[ri].as_ptr();
                    unsafe {
                        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
                        _mm_prefetch::<_MM_HINT_T0>(p.cast::<i8>());
                    }
                    shard.table.prefetch(bucket.hashes[k + 8]);
                }
                let chunk = &batch.chunks[(loc >> 32) as usize];
                let ri = (loc & 0xffff_ffff) as usize;
                let row: &[Value] = &chunk.rel.rows()[ri];
                let g = shard.resolve(
                    hash,
                    chunk.base_arrival + ri as u64,
                    row,
                    base_width,
                    &key_cols,
                    allow_new,
                )?;
                gids.push(g as u32);
                for (j, slot) in shard.slots.iter().enumerate() {
                    slot.gather_into(row, offs[j], &mut scratches[j]);
                }
            }
            // Merge pass: whole-bucket lane kernels per slot.
            for (slot, scratch) in shard.slots.iter_mut().zip(&scratches) {
                slot.merge_gathered(&gids, scratch)?;
            }
        }
        busy += thread_cpu_s() - t;
    }
    // Bottom level of the output merge tree: k-way merge of this worker's
    // shards (each shard's `created` is sorted by construction), rendering
    // output rows as they are emitted — one sorted run, no sort.
    let t = thread_cpu_s();
    let groups: usize = shards.iter().map(|s| s.rows.len()).sum();
    let mut cursors: Vec<RenderCursor> = shards
        .into_iter()
        .map(|s| RenderCursor {
            rows: s.rows.into_iter(),
            created: s.created,
            slots: s.slots,
            g: 0,
        })
        .collect();
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::with_capacity(cursors.len());
    for (i, c) in cursors.iter().enumerate() {
        debug_assert!(c.created.windows(2).all(|w| w[0] < w[1]));
        if !c.created.is_empty() {
            heap.push(Reverse((c.created[0], i)));
        }
    }
    let mut rendered: Vec<(u64, Row)> = Vec::with_capacity(groups);
    while let Some(Reverse((created, i))) = heap.pop() {
        let c = &mut cursors[i];
        let mut row = c.rows.next().expect("render row");
        let g = c.g;
        c.g += 1;
        if render_state {
            for slot in &c.slots {
                slot.write_state(g, &mut row);
            }
        } else {
            for slot in &c.slots {
                row.push(slot.finalize_value(g));
            }
        }
        rendered.push((created, row));
        if c.g < c.created.len() {
            heap.push(Reverse((c.created[c.g], i)));
        }
    }
    Ok(WorkerOut {
        rendered,
        merge_busy_s: busy,
        finalize_s: thread_cpu_s() - t,
        groups,
    })
}

/// Render-time cursor over one shard's groups in creation order.
struct RenderCursor {
    rows: std::vec::IntoIter<Row>,
    created: Vec<u64>,
    slots: Vec<AggSlot>,
    g: usize,
}

/// One hash partition of the group space: an open-addressing index over
/// stored key hashes, base rows, creation indices, and typed slots.
struct Shard {
    table: GroupTable,
    /// Base parts, in creation order (dense group indices).
    rows: Vec<Row>,
    /// Key values, flattened at `key_cols.len()` per group: a dense copy
    /// of each group's key so probe compares stay inside one hot vector
    /// instead of chasing `rows[g]`'s heap pointer.
    keys: Vec<Value>,
    /// Global arrival index at which each group was created (sorted:
    /// arrivals only grow).
    created: Vec<u64>,
    slots: Vec<AggSlot>,
}

impl Shard {
    fn new(proto: &[AggSlot]) -> Shard {
        Shard {
            table: GroupTable::new(),
            rows: Vec::new(),
            keys: Vec::new(),
            created: Vec::new(),
            slots: proto.to_vec(),
        }
    }

    /// Seed one base row at the identity state (duplicates collapse).
    fn seed_group(&mut self, hash: u64, base_part: &Row, key_cols: &[usize], arrival: u64) {
        let kw = key_cols.len();
        let keys = &self.keys;
        if self
            .table
            .find(hash, |g| keys_eq(&keys[g * kw..], base_part, key_cols))
            .is_some()
        {
            return;
        }
        let g = self.rows.len();
        self.rows.push(base_part.clone());
        self.keys
            .extend(key_cols.iter().map(|&c| base_part[c].clone()));
        self.created.push(arrival);
        for slot in &mut self.slots {
            slot.push_identity();
        }
        self.table.insert(hash, g);
    }

    /// Resolve one routed fragment row to its dense group index, creating
    /// the group at the identity state in Proposition 2 mode.
    fn resolve(
        &mut self,
        hash: u64,
        arrival: u64,
        row: &[Value],
        base_width: usize,
        key_cols: &[usize],
        allow_new: bool,
    ) -> Result<usize> {
        let kw = key_cols.len();
        let keys = &self.keys;
        if let Some(g) = self
            .table
            .find(hash, |g| keys_eq(&keys[g * kw..], row, key_cols))
        {
            return Ok(g);
        }
        if !allow_new {
            let key: Row = key_cols.iter().map(|&c| row[c].clone()).collect();
            return Err(SkallaError::exec(format!(
                "fragment contains unknown group key {key:?}"
            )));
        }
        let g = self.rows.len();
        self.keys.extend(key_cols.iter().map(|&c| row[c].clone()));
        self.rows.push(row[..base_width].to_vec());
        self.created.push(arrival);
        self.table.insert(hash, g);
        for slot in &mut self.slots {
            slot.push_identity();
        }
        Ok(g)
    }
}

/// `stored` is a dense `key_cols.len()`-wide key slice (values in
/// `key_cols` order); `incoming` is a full row indexed by `key_cols`.
fn keys_eq(stored: &[Value], incoming: &[Value], key_cols: &[usize]) -> bool {
    key_cols.iter().zip(stored).all(|(&c, s)| *s == incoming[c])
}

const EMPTY: usize = usize::MAX;

/// Open-addressing group index: slots hold dense group ids, hashes are
/// stored per group so probes compare a `u64` before touching key values.
struct GroupTable {
    mask: usize,
    slots: Box<[usize]>,
    hashes: Vec<u64>,
}

impl GroupTable {
    fn new() -> GroupTable {
        GroupTable {
            mask: 15,
            slots: vec![EMPTY; 16].into_boxed_slice(),
            hashes: Vec::new(),
        }
    }

    /// Hint the CPU to pull the first probe slot for `hash` into cache.
    /// The table is large relative to L1/L2 at realistic group counts, so
    /// issuing this a few rows ahead of [`GroupTable::find`] hides the
    /// dependent-load stall of the open-addressing probe.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    fn prefetch(&self, hash: u64) {
        let i = (hash as usize) & self.mask;
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch::<_MM_HINT_T0>(self.slots.as_ptr().add(i).cast::<i8>());
        }
    }

    fn find(&self, hash: u64, mut eq: impl FnMut(usize) -> bool) -> Option<usize> {
        let mut i = (hash as usize) & self.mask;
        loop {
            let g = self.slots[i];
            if g == EMPTY {
                return None;
            }
            if self.hashes[g] == hash && eq(g) {
                return Some(g);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Insert group `g` (which must equal the current group count) under
    /// `hash`. The caller has already established it is absent.
    fn insert(&mut self, hash: u64, g: usize) {
        debug_assert_eq!(g, self.hashes.len());
        self.hashes.push(hash);
        // Grow at 7/8 load, re-placing every group.
        if self.hashes.len() * 8 >= self.slots.len() * 7 {
            let cap = self.slots.len() * 2;
            self.mask = cap - 1;
            self.slots = vec![EMPTY; cap].into_boxed_slice();
            for g in 0..self.hashes.len() {
                self.place(self.hashes[g], g);
            }
        } else {
            self.place(hash, g);
        }
    }

    fn place(&mut self, hash: u64, g: usize) {
        let mut i = (hash as usize) & self.mask;
        while self.slots[i] != EMPTY {
            i = (i + 1) & self.mask;
        }
        self.slots[i] = g;
    }
}

#[inline]
fn mix(h: u64, w: u64) -> u64 {
    (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// Hash the key columns of a (base-prefixed) row. Consistent with
/// [`Value`]'s equality: `Int(k)`, `Float(k.0)`, and `-0.0`/`0.0` hash
/// identically, and all NaNs (which compare equal under the total order)
/// share one hash.
fn hash_key(row: &[Value], key_cols: &[usize]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &c in key_cols {
        h = match &row[c] {
            Value::Null => mix(h, 0xa5),
            Value::Bool(b) => mix(mix(h, 1), u64::from(*b)),
            Value::Int(i) => mix(mix(h, 2), *i as u64),
            Value::Float(f) => match exact_i64(*f) {
                Some(i) => mix(mix(h, 2), i as u64),
                None => {
                    let bits = if f.is_nan() {
                        f64::NAN.to_bits()
                    } else {
                        f.to_bits()
                    };
                    mix(mix(h, 3), bits)
                }
            },
            Value::Str(s) => {
                let bytes = s.as_bytes();
                let mut acc = mix(h, 4);
                for chunk in bytes.chunks(8) {
                    let mut word = [0u8; 8];
                    word[..chunk.len()].copy_from_slice(chunk);
                    acc = mix(acc, u64::from_le_bytes(word));
                }
                mix(acc, bytes.len() as u64)
            }
        };
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseresult::BaseResult;
    use skalla_expr::Expr;

    fn base() -> Relation {
        let schema = Schema::from_pairs([("k", DataType::Int64)])
            .unwrap()
            .into_arc();
        Relation::new(schema, (0..10).map(|i| vec![Value::Int(i)]).collect()).unwrap()
    }

    fn specs() -> Vec<AggSpec> {
        vec![
            AggSpec::count_star("cnt"),
            AggSpec::avg(Expr::detail(1), "avg").unwrap(),
        ]
    }

    fn output_fields() -> Vec<Field> {
        vec![
            Field::new("cnt", DataType::Int64),
            Field::new("avg", DataType::Float64),
        ]
    }

    fn state_types() -> Vec<DataType> {
        vec![DataType::Int64, DataType::Float64, DataType::Int64]
    }

    fn frag(rows: Vec<Row>) -> Relation {
        let schema = Schema::from_pairs([
            ("k", DataType::Int64),
            ("cnt", DataType::Int64),
            ("avg__sum", DataType::Float64),
            ("avg__count", DataType::Int64),
        ])
        .unwrap()
        .into_arc();
        Relation::new(schema, rows).unwrap()
    }

    fn site_frag(site: usize) -> Relation {
        frag(
            (0..10)
                .map(|k| {
                    vec![
                        Value::Int(k),
                        Value::Int((site + k as usize) as i64 % 3),
                        Value::Float((site as f64 + 0.25) * (k as f64 + 0.5)),
                        Value::Int(1),
                    ]
                })
                .collect(),
        )
    }

    fn engine(opts: SyncOptions, allow_new: bool, seed: Option<&Relation>) -> ShardedSync {
        ShardedSync::new(
            SyncSpec {
                base_schema: base().schema().clone(),
                key_cols: vec![0],
                specs: specs(),
                state_types: state_types(),
                output: SyncOutput::Finalized(output_fields()),
                allow_new,
            },
            seed,
            opts,
        )
        .unwrap()
    }

    fn rows_bits_eq(a: &Relation, b: &Relation) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.schema().names(), b.schema().names());
        for (ra, rb) in a.rows().iter().zip(b.rows()) {
            for (va, vb) in ra.iter().zip(rb) {
                match (va, vb) {
                    (Value::Float(x), Value::Float(y)) => {
                        assert_eq!(x.to_bits(), y.to_bits(), "{va:?} vs {vb:?}")
                    }
                    _ => assert_eq!(va, vb),
                }
            }
        }
    }

    #[test]
    fn matches_serial_bit_for_bit_across_shard_counts() {
        let b = base();
        let mut serial = BaseResult::from_base(&b, &[0], specs(), output_fields()).unwrap();
        for site in 0..5 {
            serial.merge_fragment(&site_frag(site), false).unwrap();
        }
        let expect = serial.finalize().unwrap();

        for (workers, shards) in [(1, 1), (2, 4), (4, 16), (8, 4)] {
            let mut e = engine(
                SyncOptions {
                    workers,
                    shards,
                    queue_batches: 2,
                    flush_rows: 8,
                    flush_rows_max: 32,
                },
                false,
                Some(&b),
            );
            for site in 0..5 {
                e.merge_chunk(site_frag(site)).unwrap();
            }
            let (got, stats) = e.finish().unwrap();
            rows_bits_eq(&expect, &got);
            assert_eq!(stats.groups, 10);
            // Workers are clamped to the shard count.
            assert_eq!(stats.workers, workers.min(shards));
            assert_eq!(stats.worker_busy_s.len(), stats.workers);
            assert!(stats.utilization() >= 0.0 && stats.utilization() <= 1.0);
            assert!(stats.imbalance() >= 1.0 || stats.merge_busy_s == 0.0);
            assert!(stats.batches > 0);
        }
    }

    #[test]
    fn shards_round_up_to_power_of_two() {
        let e = engine(
            SyncOptions {
                workers: 3,
                shards: 7,
                queue_batches: 2,
                flush_rows: 8,
                flush_rows_max: 32,
            },
            false,
            Some(&base()),
        );
        assert_eq!(e.shards, 8);
        assert_eq!(e.workers, 3);
        // Contiguous ownership covering all shards.
        assert_eq!(e.owner_of, vec![0, 0, 0, 1, 1, 1, 2, 2]);
        let (_, stats) = e.finish().unwrap();
        assert_eq!(stats.shards, 8);
    }

    #[test]
    fn empty_mode_inserts_in_arrival_order() {
        // Serial reference in empty (Proposition 2) mode.
        let mut serial = BaseResult::empty(base().schema().clone(), &[0], specs(), output_fields());
        let f1 = frag(vec![
            vec![
                Value::Int(7),
                Value::Int(1),
                Value::Float(1.5),
                Value::Int(1),
            ],
            vec![
                Value::Int(3),
                Value::Int(1),
                Value::Float(2.5),
                Value::Int(1),
            ],
        ]);
        let f2 = frag(vec![
            vec![Value::Int(5), Value::Int(1), Value::Null, Value::Int(0)],
            vec![
                Value::Int(7),
                Value::Int(2),
                Value::Float(-0.0),
                Value::Int(1),
            ],
        ]);
        serial.merge_fragment(&f1, true).unwrap();
        serial.merge_fragment(&f2, true).unwrap();
        let expect = serial.finalize().unwrap();

        let mut e = engine(SyncOptions::for_workers(3), true, None);
        e.merge_chunk(f1).unwrap();
        e.merge_chunk(f2).unwrap();
        let (got, _) = e.finish().unwrap();
        rows_bits_eq(&expect, &got);
        // Insertion order, not key order.
        assert_eq!(got.row(0)[0], Value::Int(7));
        assert_eq!(got.row(1)[0], Value::Int(3));
        assert_eq!(got.row(2)[0], Value::Int(5));
    }

    #[test]
    fn unknown_group_rejected_like_serial() {
        let b = base();
        let mut e = engine(SyncOptions::for_workers(2), false, Some(&b));
        e.merge_chunk(frag(vec![vec![
            Value::Int(99),
            Value::Int(1),
            Value::Float(1.0),
            Value::Int(1),
        ]]))
        .ok(); // error may surface here or at finish
        let err = match e.finish() {
            Err(e) => e,
            Ok(_) => panic!("unknown key must fail"),
        };
        assert!(err.to_string().contains("unknown group key"));
    }

    #[test]
    fn bad_chunk_rejected_before_any_merge() {
        let b = base();
        let mut e = engine(SyncOptions::for_workers(2), false, Some(&b));
        // Wrong arity.
        let bad = Relation::new(
            Schema::from_pairs([("k", DataType::Int64)])
                .unwrap()
                .into_arc(),
            vec![vec![Value::Int(1)]],
        )
        .unwrap();
        assert!(e.merge_chunk(bad).is_err());
        // Wrong state type (string count), mixed into a chunk with a valid
        // row: neither row may merge.
        let mixed = frag(vec![
            vec![
                Value::Int(1),
                Value::Int(1),
                Value::Float(9.0),
                Value::Int(1),
            ],
            vec![Value::Int(2), Value::str("x"), Value::Null, Value::Int(0)],
        ]);
        assert!(e.merge_chunk(mixed).is_err());
        let (got, _) = e.finish().unwrap();
        // All groups still at identity: COUNT 0 everywhere.
        assert!(got.rows().iter().all(|r| r[1] == Value::Int(0)));
    }

    #[test]
    fn state_output_matches_to_state_relation() {
        let b = base();
        let mut serial = BaseResult::from_base(&b, &[0], specs(), Vec::new()).unwrap();
        serial.merge_fragment(&site_frag(0), false).unwrap();
        serial.merge_fragment(&site_frag(1), false).unwrap();
        let expect = serial.to_state_relation().unwrap();

        let mut e = ShardedSync::new(
            SyncSpec {
                base_schema: b.schema().clone(),
                key_cols: vec![0],
                specs: specs(),
                state_types: state_types(),
                output: SyncOutput::State,
                allow_new: false,
            },
            Some(&b),
            SyncOptions::for_workers(4),
        )
        .unwrap();
        e.merge_chunk(site_frag(0)).unwrap();
        e.merge_chunk(site_frag(1)).unwrap();
        let (got, _) = e.finish().unwrap();
        rows_bits_eq(&expect, &got);
        // Unlike the serial placeholder schema, state fields carry the
        // real declared types.
        assert_eq!(got.schema().fields()[2].dtype, DataType::Float64);
    }

    #[test]
    fn adaptive_flush_grows_under_backpressure() {
        // A tiny queue with slow drain (single worker, many rows) must
        // still deliver every row; batch growth is visible as fewer
        // batches than rows/flush_rows would predict.
        let b = base();
        let mut e = engine(
            SyncOptions {
                workers: 1,
                shards: 2,
                queue_batches: 1,
                flush_rows: 4,
                flush_rows_max: 1024,
            },
            false,
            Some(&b),
        );
        for site in 0..50 {
            e.merge_chunk(site_frag(site)).unwrap();
        }
        let (got, stats) = e.finish().unwrap();
        assert_eq!(got.len(), 10);
        // 500 rows at a hard 4-row flush would be 125 batches.
        assert!(stats.batches < 125, "batches = {}", stats.batches);
    }

    #[test]
    fn hash_key_is_equality_consistent() {
        let cols = [0usize];
        let h = |v: Value| hash_key(&[v], &cols);
        assert_eq!(h(Value::Int(42)), h(Value::Float(42.0)));
        assert_eq!(h(Value::Float(0.0)), h(Value::Float(-0.0)));
        assert_eq!(h(Value::Float(f64::NAN)), h(Value::Float(-f64::NAN)));
        assert_ne!(h(Value::Int(1)), h(Value::Int(2)));
        assert_ne!(h(Value::str("ab")), h(Value::str("ba")));
    }

    #[test]
    fn sum_overflow_surfaces_from_workers() {
        let b = base();
        let mut e = ShardedSync::new(
            SyncSpec {
                base_schema: b.schema().clone(),
                key_cols: vec![0],
                specs: vec![AggSpec::sum(Expr::detail(1), "s").unwrap()],
                state_types: vec![DataType::Int64],
                output: SyncOutput::Finalized(vec![Field::new("s", DataType::Int64)]),
                allow_new: false,
            },
            Some(&b),
            SyncOptions::for_workers(2),
        )
        .unwrap();
        let schema = Schema::from_pairs([("k", DataType::Int64), ("s", DataType::Int64)])
            .unwrap()
            .into_arc();
        let big = Relation::new(schema, vec![vec![Value::Int(1), Value::Int(i64::MAX)]]).unwrap();
        e.merge_chunk(big.clone()).unwrap();
        e.merge_chunk(big).unwrap();
        let err = e.finish().unwrap_err();
        assert!(err.to_string().contains("SUM overflow"));
    }
}
