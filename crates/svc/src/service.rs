//! The admission-control service: JSONL requests in, JSONL reports out.
//!
//! Each request line is one task-set document (the same format as
//! `examples/workloads/*.json`), a campaign sweep
//! `{"sweep":{"specs":[...],"ys":[...],"speeds":[...]}}` answered by the
//! incremental [`rbs_core::SweepAnalysis`] engine — one set plus a
//! `(y, s)` grid in, the full grid of `s_min`/`Δ_R` values out — or an
//! online-admission delta `{"delta":{"base":...,"ops":[...]}}` answered
//! by the incremental [`rbs_core::DeltaAnalysis`] engine: admit/evict/
//! replace ops against a base set named inline or by the canonical hash
//! of any previously seen set, cached under the canonical form of the
//! resulting set (byte-identical to analyzing that set directly), or a
//! fleet partitioning `{"partition":{"tasks":[...],"cores":N,...}}`
//! answered by the delta-backed bin-packer in `rbs-partition` — the
//! per-core assignment with each core's exact `s_min`, or the first
//! task the fleet must shed. The
//! service canonicalizes the request (task sets, sweep grids and
//! partition specs live in
//! disjoint canonical domains), consults the sharded LRU [`ResultCache`]
//! (and a bounded negative cache of failed outcomes), and analyzes misses
//! on the fixed-size [`WorkerPool`]; duplicate submissions inside one
//! batch are coalesced so the analysis runs once. Responses come back in
//! submission order and are bit-for-bit independent of the worker count.
//!
//! Failures are structured: every error response carries a
//! [`SvcError`] with a machine-readable [`SvcErrorKind`]
//! (`parse|limits|timeout|panic|oversized|overload`), the same taxonomy
//! the footer counters report. A panicking analysis is contained by the pool
//! ([`WorkerPool::run_ordered_caught`]), a slow one is cut off by the
//! per-request deadline threaded through
//! [`rbs_core::AnalysisLimits::with_deadline`], and an oversized body is
//! rejected before it is even parsed — one poison-pill request can never
//! take the batch (or the daemon) down.

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rbs_core::{
    analyze_with_meta_in, run_delta_in, run_sweep_in, AnalysisError, AnalysisLimits,
    AnalysisScratch, AnalyzeMeta, DeltaBase, DeltaOp, DeltaRequest, DeltaRunError, SweepGrid,
    WalkCounts,
};
use rbs_json::{FromJson, Json, ToJson};
use rbs_model::{CanonicalTaskSet, ImplicitTaskSpec, TaskSet};
use rbs_partition::wire::PartitionRequest;
use rbs_partition::PartitionSpec;

use crate::cache::ResultCache;
use crate::ingest::Request;
use crate::pool::WorkerPool;

/// Task-name marker that makes a worker panic when
/// [`ServiceConfig::fault_injection`] is enabled — the chaos-testing hook
/// behind the crash-isolation test suite and CI's poison-pill smoke.
pub const FAULT_PANIC_TASK: &str = "__rbs_fault_panic__";

/// Task-name prefix (`__rbs_fault_sleep_ms_<N>__`) that makes a worker
/// sleep `N` milliseconds before analyzing when
/// [`ServiceConfig::fault_injection`] is enabled — used to exercise the
/// per-request deadline deterministically.
pub const FAULT_SLEEP_PREFIX: &str = "__rbs_fault_sleep_ms_";

/// Task-name marker that makes the delta engine panic *between* its
/// profile splices when [`ServiceConfig::fault_injection`] is enabled
/// (admitted or replaced tasks only) — the chaos hook proving a
/// half-spliced context is contained and the service keeps answering
/// correctly afterwards.
pub const FAULT_SPLICE_TASK: &str = "__rbs_fault_splice__";

/// Task-name marker that makes the delta engine panic as it enters
/// frontier repair when [`ServiceConfig::fault_injection`] is enabled
/// (admitted or replaced tasks only) — the chaos hook proving a panic
/// inside the repair window (profiles spliced, dirty guard still set)
/// is contained and the next request heals from the set.
pub const FAULT_REPAIR_TASK: &str = "__rbs_fault_repair__";

/// Machine-readable failure class of a request, mirrored in the JSONL
/// `error.kind` field and the footer counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SvcErrorKind {
    /// The request body is not a valid task-set document.
    Parse,
    /// The analysis hit a resource limit (breakpoint budget, overflow) or
    /// rejected its input.
    Limits,
    /// The analysis exceeded the per-request wall-clock deadline.
    Timeout,
    /// The analysis panicked; the worker survived and the panic message is
    /// the detail.
    Panic,
    /// The request body exceeded the configured byte limit and was
    /// rejected before parsing.
    Oversized,
    /// The request was shed before analysis because a bounded queue was
    /// full — the network front-end's load-shedding verdict. The batch
    /// pipeline never emits this kind itself; it is part of the shared
    /// taxonomy so shed requests are classified and counted exactly like
    /// every other failure.
    Overload,
}

impl SvcErrorKind {
    /// The lowercase wire name (`parse`, `limits`, `timeout`, `panic`,
    /// `oversized`, `overload`).
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            SvcErrorKind::Parse => "parse",
            SvcErrorKind::Limits => "limits",
            SvcErrorKind::Timeout => "timeout",
            SvcErrorKind::Panic => "panic",
            SvcErrorKind::Oversized => "oversized",
            SvcErrorKind::Overload => "overload",
        }
    }
}

/// A structured service error: a taxonomy [`kind`](SvcErrorKind) plus a
/// human-readable detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SvcError {
    /// The failure class.
    pub kind: SvcErrorKind,
    /// Human-readable context (parse message, panic payload, …).
    pub detail: String,
}

impl SvcError {
    /// An error of `kind` with `detail`.
    #[must_use]
    pub fn new(kind: SvcErrorKind, detail: impl Into<String>) -> SvcError {
        SvcError {
            kind,
            detail: detail.into(),
        }
    }

    /// Classifies an analysis failure: a missed deadline is a `timeout`,
    /// everything else is `limits`.
    #[must_use]
    pub fn from_analysis(error: &AnalysisError) -> SvcError {
        let kind = match error {
            AnalysisError::DeadlineExceeded { .. } => SvcErrorKind::Timeout,
            _ => SvcErrorKind::Limits,
        };
        SvcError::new(kind, format!("analysis failed: {error}"))
    }

    /// Renders the `{"kind":...,"detail":...}` JSON object.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "{{\"kind\":\"{}\",\"detail\":{}}}",
            self.kind.as_str(),
            Json::Str(self.detail.clone()).render()
        )
    }
}

/// Tunables of a [`Service`] beyond its worker pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Reports kept in the positive cache (0 disables).
    pub cache_capacity: usize,
    /// Failed outcomes kept in the negative cache (0 disables). Bounded
    /// separately so poison pills can never evict good reports wholesale.
    pub negative_cache_capacity: usize,
    /// Analysis resource limits (per-request deadlines are layered on top
    /// of these via [`ServiceConfig::timeout`]).
    pub limits: AnalysisLimits,
    /// Per-request wall-clock deadline for the analysis phase. `None`
    /// disables timeouts.
    pub timeout: Option<Duration>,
    /// Requests with bodies larger than this many bytes are rejected as
    /// `oversized` without parsing. `None` disables the guard.
    pub max_request_bytes: Option<usize>,
    /// Enables the chaos-testing task-name markers
    /// ([`FAULT_PANIC_TASK`], [`FAULT_SLEEP_PREFIX`]). Off by default:
    /// production sets may name tasks anything they like.
    pub fault_injection: bool,
    /// Task sets kept in the base registry that `delta` requests resolve
    /// `"base": "<hash>"` keys against (0 disables key-based bases;
    /// inline bases always work).
    pub base_registry_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            cache_capacity: 1024,
            negative_cache_capacity: 256,
            limits: AnalysisLimits::default(),
            timeout: None,
            max_request_bytes: None,
            fault_injection: false,
            base_registry_capacity: 1024,
        }
    }
}

/// The admission-control service. Cloning shares both caches (and their
/// hit/miss counters) and the scratch pool with the original.
#[derive(Debug, Clone)]
pub struct Service {
    pool: WorkerPool,
    /// Rendered reports by canonical form. Workers hand back each report
    /// as a plain `String`; the thread calling
    /// [`Service::process_batch`] — the long-lived dispatcher in the
    /// daemons — copies it into the `Arc<str>` this cache holds. Cached
    /// report memory is therefore allocated by the dispatcher, not by
    /// the per-batch scoped workers, whose short-lived allocator arenas
    /// would otherwise stay pinned (and fragmented) by a few long-lived
    /// reports each.
    cache: ResultCache,
    negative: ResultCache<SvcError>,
    config: ServiceConfig,
    /// Analysis scratches (profile buffers + parked walk-kernel lanes)
    /// parked between batches. [`WorkerPool`] spawns fresh scoped threads
    /// per batch, so worker-local state alone would start cold every
    /// time; leasing scratches from this shared pool carries the warmed
    /// arenas across batches — the long-running daemons (`--follow`,
    /// rbs-netd micro-batches) reach zero-allocation steady state. At
    /// most `pool.jobs()` scratches are ever leased at once, so the pool
    /// is naturally bounded.
    scratches: Arc<Mutex<Vec<AnalysisScratch>>>,
    /// Canonical-hash → task-set bindings for `delta` base resolution;
    /// shared by clones like the caches. Fed by every successfully
    /// parsed task set (analyze requests, inline delta bases, and delta
    /// results), so a client can chain deltas off the `hash` field of
    /// any earlier response.
    bases: Arc<Mutex<BaseRegistry>>,
}

/// A bounded FIFO registry of canonical-hash → task-set bindings (see
/// [`Service::bases`]). FIFO rather than LRU: resident fleets re-ship a
/// base at most once per eviction, and insertion order is deterministic
/// where recency under parallel batches is not.
#[derive(Debug, Default)]
struct BaseRegistry {
    map: HashMap<u64, Arc<TaskSet>>,
    order: VecDeque<u64>,
}

impl BaseRegistry {
    /// Binds `hash → make()` unless `hash` is already bound; `make` (the
    /// set clone) runs only on an actual insert, so re-registering a
    /// known set — every cache hit does — costs one map probe.
    fn insert_with(&mut self, capacity: usize, hash: u64, make: impl FnOnce() -> Arc<TaskSet>) {
        if capacity == 0 || self.map.contains_key(&hash) {
            return;
        }
        while self.order.len() >= capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.map.remove(&oldest);
            }
        }
        self.order.push_back(hash);
        self.map.insert(hash, make());
    }

    /// Resolves a wire key: exactly the 16 lowercase hex digits a
    /// response's `hash` field carries (the [`CanonicalTaskSet`] display
    /// form), so no other spelling of the same number resolves.
    fn get(&self, key: &str) -> Option<Arc<TaskSet>> {
        if key.len() != 16 || !key.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
            return None;
        }
        let hash = u64::from_str_radix(key, 16).ok()?;
        self.map.get(&hash).cloned()
    }
}

/// A worker's checkout from the [`Service`] scratch pool; returns the
/// scratch (and its grown buffers and arena) on drop — including when a
/// contained panic unwinds the batch closure.
struct ScratchLease {
    pool: Arc<Mutex<Vec<AnalysisScratch>>>,
    scratch: Option<AnalysisScratch>,
}

impl ScratchLease {
    fn get(&mut self) -> &mut AnalysisScratch {
        self.scratch.as_mut().expect("scratch present until drop")
    }
}

impl Drop for ScratchLease {
    fn drop(&mut self) {
        if let Some(scratch) = self.scratch.take() {
            if let Ok(mut pool) = self.pool.lock() {
                pool.push(scratch);
            }
        }
    }
}

/// What the service decided for one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The set was analyzed (or found in the cache).
    Report {
        /// Hex content hash of the canonical form.
        hash: String,
        /// Whether the report came out of the cache.
        cached: bool,
        /// Whether this response rode along on another in-batch
        /// submission's analysis (duplicate coalescing).
        coalesced: bool,
        /// Walk statistics of the analysis that produced the report;
        /// `None` when the report was served from the cache.
        walks: Option<AnalyzeMeta>,
        /// The rendered [`rbs_core::AnalyzeReport`] JSON.
        report_json: Arc<str>,
    },
    /// The request could not be served.
    Error {
        /// The structured failure.
        error: SvcError,
        /// Whether the error came out of the negative cache.
        cached: bool,
    },
}

impl Outcome {
    /// The structured error, when this outcome is one.
    #[must_use]
    pub fn error(&self) -> Option<&SvcError> {
        match self {
            Outcome::Report { .. } => None,
            Outcome::Error { error, .. } => Some(error),
        }
    }
}

/// One response line, paired with the submission index (`seq`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Submission index within the batch.
    pub seq: usize,
    /// Origin label of the request (file path or `stdin:N`).
    pub label: String,
    /// Service time for this request in microseconds (parse + analysis
    /// share; coalesced duplicates are charged only their parse share).
    /// Wall-clock observability only — never part of the cached report
    /// and the only non-deterministic field of a response line.
    pub micros: u64,
    /// The verdict.
    pub outcome: Outcome,
}

impl Response {
    /// Renders the response as one JSONL line.
    #[must_use]
    pub fn render(&self) -> String {
        match &self.outcome {
            Outcome::Report {
                hash,
                cached,
                coalesced,
                walks,
                report_json,
            } => {
                let coalesced = if *coalesced {
                    ",\"coalesced\":true"
                } else {
                    ""
                };
                let mut line = String::with_capacity(report_json.len() + 256);
                let _ = write!(
                    line,
                    "{{\"seq\":{},\"hash\":\"{hash}\",\"cached\":{cached}{coalesced},\"micros\":{}",
                    self.seq, self.micros
                );
                if let Some(meta) = walks {
                    line.push_str(",\"walks\":{");
                    write_walks(&mut line, (*meta).into(), "\"", ':', ',');
                    line.push('}');
                }
                let _ = write!(line, ",\"report\":{report_json}}}");
                line
            }
            Outcome::Error { error, cached } => format!(
                "{{\"seq\":{},\"source\":{},\"cached\":{cached},\"micros\":{},\"error\":{}}}",
                self.seq,
                Json::Str(self.label.clone()).render(),
                self.micros,
                error.render()
            ),
        }
    }
}

/// Error counts by [`SvcErrorKind`] — the footer taxonomy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ErrorCounters {
    /// Bodies that failed to parse as task sets.
    pub parse: usize,
    /// Analyses stopped by resource limits.
    pub limits: usize,
    /// Analyses stopped by the per-request deadline.
    pub timeout: usize,
    /// Analyses that panicked (and were contained).
    pub panic: usize,
    /// Bodies rejected by the byte-size guard.
    pub oversized: usize,
    /// Requests shed by a full bounded queue (network front-end).
    pub overload: usize,
}

impl ErrorCounters {
    /// Increments the counter for `kind`.
    pub fn bump(&mut self, kind: SvcErrorKind) {
        match kind {
            SvcErrorKind::Parse => self.parse += 1,
            SvcErrorKind::Limits => self.limits += 1,
            SvcErrorKind::Timeout => self.timeout += 1,
            SvcErrorKind::Panic => self.panic += 1,
            SvcErrorKind::Oversized => self.oversized += 1,
            SvcErrorKind::Overload => self.overload += 1,
        }
    }

    /// Total errors across all kinds.
    #[must_use]
    pub fn total(&self) -> usize {
        self.parse + self.limits + self.timeout + self.panic + self.oversized + self.overload
    }

    /// Adds every counter of `other` into `self`.
    pub fn absorb(&mut self, other: ErrorCounters) {
        let ErrorCounters {
            parse,
            limits,
            timeout,
            panic,
            oversized,
            overload,
        } = other;
        self.parse += parse;
        self.limits += limits;
        self.timeout += timeout;
        self.panic += panic;
        self.oversized += oversized;
        self.overload += overload;
    }
}

/// Appends the walk counters under their wire names, in wire order, as
/// `sep`-separated `{quote}name{quote}{eq}value` pairs — the one table
/// behind both a response's `walks` object and the footer's `walks{…}`
/// group.
fn write_walks(out: &mut String, counts: WalkCounts, quote: &str, eq: char, sep: char) {
    let WalkCounts {
        integer,
        exact,
        pruned,
        avoided,
        reused_components,
        rebuilt_components,
        lockstep,
        patched,
        repaired,
        kept,
        rewalked,
    } = counts;
    let table = [
        ("integer", integer),
        ("exact", exact),
        ("pruned", pruned),
        ("avoided", avoided),
        ("reused", reused_components),
        ("rebuilt", rebuilt_components),
        ("lockstep", lockstep),
        ("patched", patched),
        ("repaired", repaired),
        ("kept", kept),
        ("rewalked", rewalked),
    ];
    for (i, (name, value)) in table.into_iter().enumerate() {
        if i > 0 {
            out.push(sep);
        }
        let _ = write!(out, "{quote}{name}{quote}{eq}{value}");
    }
}

/// Counters and per-request latencies for one batch (or, in `--follow`
/// mode, accumulated over the stream so far — see
/// [`BatchStats::absorb`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Requests in the batch.
    pub served: usize,
    /// Requests answered with a report.
    pub ok: usize,
    /// Requests answered with an error, by failure class.
    pub errors: ErrorCounters,
    /// Requests answered from the positive cache.
    pub cache_hits: usize,
    /// Requests answered from the negative cache.
    pub negative_hits: usize,
    /// Duplicate submissions that rode along on another request's
    /// analysis inside the same batch.
    pub coalesced: usize,
    /// Analyses actually executed (misses after in-batch coalescing).
    pub analyzed: usize,
    /// Walk counters summed over the executed analyses.
    pub walks: WalkCounts,
    /// Per-request service time in microseconds (parse + analysis share),
    /// indexed by `seq` within the batch.
    pub latencies_micros: Vec<u64>,
}

impl BatchStats {
    /// Folds another batch's counters and latencies into this one —
    /// `--follow` mode keeps one cumulative `BatchStats` across the
    /// stream.
    pub fn absorb(&mut self, other: &BatchStats) {
        self.served += other.served;
        self.ok += other.ok;
        self.errors.absorb(other.errors);
        self.cache_hits += other.cache_hits;
        self.negative_hits += other.negative_hits;
        self.coalesced += other.coalesced;
        self.analyzed += other.analyzed;
        self.walks.absorb(other.walks);
        self.latencies_micros
            .extend_from_slice(&other.latencies_micros);
    }

    /// One-line summary footer for the CLI.
    #[must_use]
    pub fn footer(&self, jobs: usize) -> String {
        let mut sorted = self.latencies_micros.clone();
        sorted.sort_unstable();
        let p50 = median(&sorted);
        let p99 = percentile(&sorted, 99);
        let max = sorted.last().copied().unwrap_or(0);
        let mut walks = String::with_capacity(160);
        write_walks(&mut walks, self.walks, "", '=', ' ');
        let mean = if sorted.is_empty() {
            0
        } else {
            let n = sorted.len() as u64;
            (sorted.iter().sum::<u64>() + n / 2) / n
        };
        format!(
            "rbs-svc: served={} ok={} errors{{total={} parse={} limits={} timeout={} panic={} oversized={} overload={}}} \
             cache{{hits={} negative={}}} coalesced={} analyzed={} jobs={jobs} \
             walks{{{walks}}} latency_micros{{p50={p50} p99={p99} mean={mean} max={max}}}",
            self.served,
            self.ok,
            self.errors.total(),
            self.errors.parse,
            self.errors.limits,
            self.errors.timeout,
            self.errors.panic,
            self.errors.oversized,
            self.errors.overload,
            self.cache_hits,
            self.negative_hits,
            self.coalesced,
            self.analyzed,
        )
    }
}

/// The median of an already-sorted slice: the middle element for odd
/// lengths, the rounded midpoint of the two central elements for even
/// lengths (`sorted[len/2]` alone would systematically overshoot).
fn median(sorted: &[u64]) -> u64 {
    let n = sorted.len();
    if n == 0 {
        return 0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        let (a, b) = (sorted[n / 2 - 1], sorted[n / 2]);
        // Round half up without overflowing near u64::MAX.
        a / 2 + b / 2 + (a % 2 + b % 2).div_ceil(2)
    }
}

/// Nearest-rank percentile of an already-sorted slice. `pct` is clamped
/// to `[0, 100]`: values above 100 would otherwise compute a rank past
/// the end of the slice and panic on the index.
fn percentile(sorted: &[u64], pct: usize) -> u64 {
    let n = sorted.len();
    if n == 0 {
        return 0;
    }
    let rank = (n * pct.min(100)).div_ceil(100).clamp(1, n);
    sorted[rank - 1]
}

/// A parsed request waiting for analysis.
struct Pending {
    canonical: CanonicalTaskSet,
    job: Job,
}

/// The kinds of work a request can ask for.
enum Job {
    /// Classic single-set admission analysis.
    Analyze { set: TaskSet },
    /// A `(y, s)` campaign grid over one spec list, answered by the
    /// incremental sweep engine.
    Sweep { grid: SweepGrid },
    /// Admit/evict/replace ops against a resident base set, answered by
    /// the incremental delta engine. Cached under the canonical form of
    /// the *resulting* set — the report is byte-identical to analyzing
    /// that set directly, so both request kinds share entries.
    Delta {
        base: Arc<TaskSet>,
        ops: Vec<DeltaOp>,
    },
    /// Fleet partitioning: place a set onto the platform's cores with
    /// the delta-backed bin-packer, reporting per-core `s_min`.
    Partition { set: TaskSet, spec: PartitionSpec },
}

/// Per-request bookkeeping between the parse pass and response assembly.
enum Slot {
    Done(Outcome),
    /// Index into the pending (deduplicated) job list.
    Waiting(usize),
}

/// Honors the chaos-testing task-name markers. Only called when
/// [`ServiceConfig::fault_injection`] is enabled.
fn inject_faults(set: &TaskSet) {
    for task in set.iter() {
        fault_for_name(task.name());
    }
}

/// The sweep-request counterpart of [`inject_faults`]: the markers live
/// in spec names, so poison-pill sweeps exercise the same containment.
fn inject_sweep_faults(specs: &[ImplicitTaskSpec]) {
    for spec in specs {
        fault_for_name(spec.name());
    }
}

fn fault_for_name(name: &str) {
    if name == FAULT_PANIC_TASK {
        panic!("injected fault: task '{FAULT_PANIC_TASK}' requested a worker panic");
    }
    if let Some(rest) = name.strip_prefix(FAULT_SLEEP_PREFIX) {
        if let Ok(ms) = rest.trim_end_matches('_').parse::<u64>() {
            std::thread::sleep(Duration::from_millis(ms));
        }
    }
}

impl Service {
    /// A service with `pool` workers and a result cache holding up to
    /// `cache_capacity` reports; everything else at
    /// [`ServiceConfig::default`].
    #[must_use]
    pub fn new(pool: WorkerPool, cache_capacity: usize, limits: AnalysisLimits) -> Service {
        Service::with_config(
            pool,
            ServiceConfig {
                cache_capacity,
                limits,
                ..ServiceConfig::default()
            },
        )
    }

    /// A service with explicit [`ServiceConfig`] tunables.
    #[must_use]
    pub fn with_config(pool: WorkerPool, config: ServiceConfig) -> Service {
        Service {
            pool,
            cache: ResultCache::new(config.cache_capacity),
            negative: ResultCache::new(config.negative_cache_capacity),
            config,
            scratches: Arc::new(Mutex::new(Vec::new())),
            bases: Arc::new(Mutex::new(BaseRegistry::default())),
        }
    }

    /// Binds `canonical → make()` in the base registry unless the key is
    /// already bound (no-op when the registry is disabled or the
    /// poisoned-lock case ever occurs). `make` runs only on insert.
    fn register_base(&self, canonical: &CanonicalTaskSet, make: impl FnOnce() -> Arc<TaskSet>) {
        if self.config.base_registry_capacity == 0 {
            return;
        }
        if let Ok(mut bases) = self.bases.lock() {
            bases.insert_with(
                self.config.base_registry_capacity,
                canonical.content_hash(),
                make,
            );
        }
    }

    /// Checks a scratch out of the shared pool (or starts a fresh one
    /// when the pool is dry — the first batch, or more workers than ever
    /// before).
    fn lease_scratch(&self) -> ScratchLease {
        let scratch = self
            .scratches
            .lock()
            .ok()
            .and_then(|mut pool| pool.pop())
            .unwrap_or_default();
        ScratchLease {
            pool: Arc::clone(&self.scratches),
            scratch: Some(scratch),
        }
    }

    /// The shared (positive) result cache.
    #[must_use]
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// The shared negative cache of failed outcomes.
    #[must_use]
    pub fn negative_cache(&self) -> &ResultCache<SvcError> {
        &self.negative
    }

    /// The configuration this service was built with.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The worker count of the underlying pool.
    #[must_use]
    pub const fn jobs(&self) -> usize {
        self.pool.jobs()
    }

    /// Serves one batch of requests, returning responses in submission
    /// order plus the batch counters.
    #[must_use]
    pub fn process_batch(&self, requests: &[Request]) -> (Vec<Response>, BatchStats) {
        let mut stats = BatchStats {
            served: requests.len(),
            latencies_micros: vec![0; requests.len()],
            ..BatchStats::default()
        };

        // Pass 1 (sequential): guard sizes, parse, canonicalize, consult
        // both caches, and coalesce duplicate submissions onto one
        // analysis job.
        let mut slots: Vec<Slot> = Vec::with_capacity(requests.len());
        let mut pending: Vec<Pending> = Vec::new();
        let mut job_of: HashMap<Vec<u8>, usize> = HashMap::new();
        for (seq, request) in requests.iter().enumerate() {
            let start = Instant::now();
            let slot = self.triage(request, &mut stats, &mut pending, &mut job_of);
            stats.latencies_micros[seq] = elapsed_micros(start);
            slots.push(slot);
        }

        // Pass 2 (parallel): analyze the deduplicated misses on the pool,
        // with panic containment and per-job deadlines. The canonical
        // forms stay on this side of the pool so a panicking job can still
        // be negative-cached.
        stats.analyzed = pending.len();
        let canonicals: Vec<CanonicalTaskSet> =
            pending.iter().map(|job| job.canonical.clone()).collect();
        let config = self.config;
        type JobResult<R> = (Result<(R, WalkCounts), SvcError>, u64);
        let results: Vec<JobResult<String>> = self
            .pool
            .run_ordered_scoped_caught(
                pending,
                || self.lease_scratch(),
                |lease, _, job| {
                    let scratch = lease.get();
                    let start = Instant::now();
                    let limits = match config.timeout {
                        Some(timeout) => config.limits.with_deadline(start + timeout),
                        None => config.limits,
                    };
                    let outcome = match job.job {
                        Job::Analyze { set } => {
                            if config.fault_injection {
                                inject_faults(&set);
                            }
                            analyze_with_meta_in(set, &limits, scratch)
                                .map(|(report, counts)| (rbs_json::to_string(&report), counts))
                                .map_err(|error| SvcError::from_analysis(&error))
                        }
                        Job::Delta { base, ops } => {
                            if config.fault_injection {
                                inject_faults(&base);
                                for op in &ops {
                                    if let DeltaOp::Admit(task) | DeltaOp::Replace { task, .. } = op
                                    {
                                        fault_for_name(task.name());
                                        if task.name() == FAULT_SPLICE_TASK {
                                            rbs_core::DeltaAnalysis::arm_mid_splice_fault();
                                        }
                                        if task.name() == FAULT_REPAIR_TASK {
                                            rbs_core::DeltaAnalysis::arm_mid_repair_fault();
                                        }
                                    }
                                }
                            }
                            run_delta_in((*base).clone(), &ops, &limits, scratch)
                                .map(|(report, counts)| (rbs_json::to_string(&report), counts))
                                .map_err(|error| match error {
                                    // Op validation re-runs inside the worker;
                                    // triage already vetted the sequence, so
                                    // this arm is unreachable in practice but
                                    // keeps the taxonomy honest if it ever
                                    // fires.
                                    DeltaRunError::Delta(e) => SvcError::new(
                                        SvcErrorKind::Parse,
                                        format!("delta op rejected: {e}"),
                                    ),
                                    DeltaRunError::Analysis(e) => SvcError::from_analysis(&e),
                                })
                        }
                        Job::Sweep { grid } => {
                            if config.fault_injection {
                                inject_sweep_faults(&grid.specs);
                            }
                            run_sweep_in(&grid, &limits, scratch)
                                .map(|swept| match swept {
                                    Some((report, counts)) => {
                                        (rbs_json::to_string(&report), counts)
                                    }
                                    // No density-feasible x at any y: a stable
                                    // verdict, cacheable like any report.
                                    None => {
                                        ("{\"infeasible\":true}".to_owned(), WalkCounts::default())
                                    }
                                })
                                .map_err(|error| SvcError::from_analysis(&error))
                        }
                        Job::Partition { set, spec } => {
                            if config.fault_injection {
                                inject_faults(&set);
                            }
                            // Batch-level parallelism already fans out over
                            // the service pool; a width-1 sizing pool avoids
                            // oversubscribing it (the outcome is pool-width
                            // independent either way).
                            rbs_partition::partition_with(&set, &spec, &WorkerPool::new(1), &limits)
                                .map(|outcome| {
                                    (rbs_json::to_string(&outcome.to_json()), outcome.walks())
                                })
                                .map_err(|error| SvcError::from_analysis(&error))
                        }
                    };
                    (outcome, elapsed_micros(start))
                },
            )
            .into_iter()
            .map(|slot| match slot {
                Ok(result) => result,
                // The job unwound before reporting a duration; its panic
                // message becomes the structured detail.
                Err(panic_message) => (Err(SvcError::new(SvcErrorKind::Panic, panic_message)), 0),
            })
            .collect();

        // Pass 3 (sequential): fill both caches and assemble responses.
        // The one copy of each rendered report into its long-lived
        // `Arc<str>` happens here, on the calling thread, so cached
        // reports never pin the heap of the per-batch worker threads that
        // rendered them (see `Service`).
        let results: Vec<JobResult<Arc<str>>> = results
            .into_iter()
            .map(|(outcome, micros)| {
                (
                    outcome.map(|(report_json, counts)| (Arc::<str>::from(report_json), counts)),
                    micros,
                )
            })
            .collect();
        for (canonical, (outcome, _)) in canonicals.iter().zip(&results) {
            match outcome {
                Ok((report_json, counts)) => {
                    self.cache.insert(canonical, Arc::clone(report_json));
                    stats.walks.absorb(*counts);
                }
                Err(error) => {
                    // Every post-parse failure (limits, timeout, panic) is
                    // negative-cached: resubmitting a poison pill answers
                    // from the cache instead of re-running the worst-case
                    // analysis.
                    self.negative.insert(canonical, error.clone());
                }
            }
        }
        let mut charged: Vec<bool> = vec![false; results.len()];
        let responses = slots
            .into_iter()
            .enumerate()
            .map(|(seq, slot)| {
                let outcome = match slot {
                    Slot::Done(outcome) => outcome,
                    Slot::Waiting(job) => {
                        let (result, micros) = &results[job];
                        let coalesced = charged[job];
                        if coalesced {
                            stats.coalesced += 1;
                        } else {
                            // Charge the analysis time to the first
                            // submission only; duplicates carry just their
                            // parse share.
                            stats.latencies_micros[seq] += micros;
                            charged[job] = true;
                        }
                        match result {
                            Ok((report_json, counts)) => Outcome::Report {
                                hash: canonicals[job].to_string(),
                                cached: false,
                                coalesced,
                                walks: Some((*counts).into()),
                                report_json: Arc::clone(report_json),
                            },
                            Err(error) => Outcome::Error {
                                error: error.clone(),
                                cached: false,
                            },
                        }
                    }
                };
                match &outcome {
                    Outcome::Report { .. } => stats.ok += 1,
                    Outcome::Error { error, .. } => stats.errors.bump(error.kind),
                }
                Response {
                    seq,
                    label: requests[seq].label.clone(),
                    micros: stats.latencies_micros[seq],
                    outcome,
                }
            })
            .collect();
        (responses, stats)
    }

    /// Pass-1 decision for one request: an immediate outcome (guard
    /// rejection, parse error, cache hit) or a pending analysis job.
    fn triage(
        &self,
        request: &Request,
        stats: &mut BatchStats,
        pending: &mut Vec<Pending>,
        job_of: &mut HashMap<Vec<u8>, usize>,
    ) -> Slot {
        if let Some(cap) = self.config.max_request_bytes {
            if request.body.len() > cap {
                return Slot::Done(Outcome::Error {
                    error: SvcError::new(
                        SvcErrorKind::Oversized,
                        format!("request body is {} bytes (limit {cap})", request.body.len()),
                    ),
                    cached: false,
                });
            }
        }
        let parsed = match rbs_json::parse(&request.body) {
            Ok(value) => value,
            Err(error) => {
                return Slot::Done(Outcome::Error {
                    error: SvcError::new(SvcErrorKind::Parse, format!("invalid request: {error}")),
                    cached: false,
                });
            }
        };
        // A request is a campaign sweep (an object wrapping the grid
        // under a "sweep" key), a delta (an object wrapping base + ops
        // under a "delta" key — both impossible for a task-set document,
        // which is a JSON array), or a plain task set.
        let (canonical, job) = if let Some(sweep) = parsed.get("sweep") {
            match SweepGrid::from_json(sweep) {
                Ok(grid) => (
                    CanonicalTaskSet::of_sweep(&grid.specs, grid.x, &grid.ys, &grid.speeds),
                    Job::Sweep { grid },
                ),
                Err(error) => {
                    return Slot::Done(Outcome::Error {
                        error: SvcError::new(
                            SvcErrorKind::Parse,
                            format!("invalid sweep request: {error}"),
                        ),
                        cached: false,
                    });
                }
            }
        } else if let Some(delta) = parsed.get("delta") {
            match self.triage_delta(delta) {
                Ok(entry) => entry,
                Err(error) => {
                    return Slot::Done(Outcome::Error {
                        error,
                        cached: false,
                    })
                }
            }
        } else if let Some(partition) = parsed.get("partition") {
            match PartitionRequest::from_json(partition) {
                Ok(request) => (
                    CanonicalTaskSet::of_partition(&request.set, &request.spec.canonical_detail()),
                    Job::Partition {
                        set: request.set,
                        spec: request.spec,
                    },
                ),
                Err(error) => {
                    return Slot::Done(Outcome::Error {
                        error: SvcError::new(
                            SvcErrorKind::Parse,
                            format!("invalid partition request: {error}"),
                        ),
                        cached: false,
                    });
                }
            }
        } else {
            match TaskSet::from_json(&parsed) {
                Ok(set) => {
                    let canonical = CanonicalTaskSet::of(&set);
                    // Every successfully parsed set becomes a delta base
                    // candidate, addressable by the hash echoed in the
                    // response.
                    self.register_base(&canonical, || Arc::new(set.clone()));
                    (canonical, Job::Analyze { set })
                }
                Err(error) => {
                    return Slot::Done(Outcome::Error {
                        error: SvcError::new(
                            SvcErrorKind::Parse,
                            format!("invalid task set: {error}"),
                        ),
                        cached: false,
                    });
                }
            }
        };
        if let Some(report_json) = self.cache.get(&canonical) {
            stats.cache_hits += 1;
            return Slot::Done(Outcome::Report {
                hash: canonical.to_string(),
                cached: true,
                coalesced: false,
                walks: None,
                report_json,
            });
        }
        if let Some(error) = self.negative.get(&canonical) {
            stats.negative_hits += 1;
            return Slot::Done(Outcome::Error {
                error,
                cached: true,
            });
        }
        let slot = *job_of.entry(canonical.bytes().to_vec()).or_insert_with(|| {
            pending.push(Pending { canonical, job });
            pending.len() - 1
        });
        Slot::Waiting(slot)
    }

    /// Pass-1 handling of a `{"delta": ...}` body: decode the request,
    /// resolve its base (inline or registry key), vet the op sequence by
    /// applying it at the set level, and key the job on the canonical
    /// form of the *resulting* set so delta and analyze requests share
    /// cache entries. All rejections here are `parse`-class: they are
    /// properties of the request, not of the analysis.
    fn triage_delta(&self, delta: &Json) -> Result<(CanonicalTaskSet, Job), SvcError> {
        let request = DeltaRequest::from_json(delta).map_err(|error| {
            SvcError::new(
                SvcErrorKind::Parse,
                format!("invalid delta request: {error}"),
            )
        })?;
        let base = match request.base {
            DeltaBase::Inline(set) => {
                let set = Arc::new(set);
                self.register_base(&CanonicalTaskSet::of(&set), || Arc::clone(&set));
                set
            }
            DeltaBase::Key(key) => self
                .bases
                .lock()
                .ok()
                .and_then(|bases| bases.get(&key))
                .ok_or_else(|| {
                    SvcError::new(
                        SvcErrorKind::Parse,
                        format!(
                            "unknown delta base key \"{key}\" (analyze the set first or ship it inline)"
                        ),
                    )
                })?,
        };
        let mut result = (*base).clone();
        for op in &request.ops {
            op.apply_to(&mut result).map_err(|error| {
                SvcError::new(SvcErrorKind::Parse, format!("delta op rejected: {error}"))
            })?;
        }
        let canonical = CanonicalTaskSet::of(&result);
        // The resulting set is itself a base candidate, so clients can
        // chain deltas off each response's hash.
        self.register_base(&canonical, || Arc::new(result));
        Ok((
            canonical,
            Job::Delta {
                base,
                ops: request.ops,
            },
        ))
    }

    /// Serves a single request (a one-element batch).
    #[must_use]
    pub fn handle(&self, request: &Request) -> Response {
        let (mut responses, _) = self.process_batch(std::slice::from_ref(request));
        responses.remove(0)
    }
}

fn elapsed_micros(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_even_and_odd_lengths() {
        assert_eq!(median(&[]), 0);
        assert_eq!(median(&[7]), 7);
        assert_eq!(median(&[1, 3]), 2);
        assert_eq!(median(&[1, 2]), 2); // midpoint 1.5 rounds half up
        assert_eq!(median(&[1, 2, 3, 4]), 3); // midpoint 2.5 rounds half up
        assert_eq!(median(&[1, 2, 3, 4, 5]), 3);
        assert_eq!(median(&[u64::MAX - 1, u64::MAX]), u64::MAX); // no overflow
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&v, 100), 100);
        assert_eq!(percentile(&[5], 99), 5);
        assert_eq!(percentile(&[], 99), 0);
        let small: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&small, 99), 10);
    }

    #[test]
    fn percentile_clamps_out_of_range_requests() {
        let v: Vec<u64> = (1..=100).collect();
        // pct = 0 still selects the first element (rank floor of 1).
        assert_eq!(percentile(&v, 0), 1);
        // pct > 100 must clamp to the maximum instead of indexing past
        // the end of the slice.
        assert_eq!(percentile(&v, 101), 100);
        assert_eq!(percentile(&v, usize::MAX / 128), 100);
        assert_eq!(percentile(&[7], 0), 7);
        assert_eq!(percentile(&[7], 250), 7);
        assert_eq!(percentile(&[], 0), 0);
        assert_eq!(percentile(&[], 250), 0);
    }

    #[test]
    fn error_counters_track_each_kind() {
        let mut counters = ErrorCounters::default();
        for kind in [
            SvcErrorKind::Parse,
            SvcErrorKind::Limits,
            SvcErrorKind::Timeout,
            SvcErrorKind::Panic,
            SvcErrorKind::Oversized,
            SvcErrorKind::Panic,
            SvcErrorKind::Overload,
        ] {
            counters.bump(kind);
        }
        assert_eq!(counters.total(), 7);
        assert_eq!(counters.panic, 2);
        assert_eq!(counters.parse, 1);
        assert_eq!(counters.overload, 1);
    }

    #[test]
    fn svc_error_renders_structured_json() {
        let error = SvcError::new(SvcErrorKind::Timeout, "too \"slow\"");
        let json = error.render();
        assert_eq!(
            json,
            "{\"kind\":\"timeout\",\"detail\":\"too \\\"slow\\\"\"}"
        );
    }

    #[test]
    fn scratch_leases_return_to_the_shared_pool() {
        let service = Service::new(WorkerPool::new(2), 0, AnalysisLimits::default());
        {
            let _a = service.lease_scratch();
            let _b = service.lease_scratch();
            assert_eq!(service.scratches.lock().unwrap().len(), 0);
        }
        assert_eq!(service.scratches.lock().unwrap().len(), 2);
        // A clone shares the pool: the netd dispatcher's cloned service
        // hands the same warmed scratches to every micro-batch.
        let lease = service.clone().lease_scratch();
        drop(lease);
        assert_eq!(service.scratches.lock().unwrap().len(), 2);
    }

    #[test]
    fn base_registry_builds_only_on_insert_and_resolves_the_display_form() {
        let set = Arc::new(TaskSet::empty());
        let hash = 0x00ab_cdef_0000_0001;
        let mut registry = BaseRegistry::default();
        let mut built = 0;
        for _ in 0..3 {
            registry.insert_with(4, hash, || {
                built += 1;
                Arc::clone(&set)
            });
        }
        assert_eq!(built, 1, "a bound key must not rebuild its set");
        // Only the 16-digit lowercase spelling a response's `hash` field
        // carries resolves.
        assert!(registry.get("00abcdef00000001").is_some());
        for other in ["00ABCDEF00000001", "abcdef00000001", "+0abcdef00000001", ""] {
            assert!(registry.get(other).is_none(), "{other:?} resolved");
        }
    }

    #[test]
    fn batch_stats_absorb_accumulates() {
        let mut total = BatchStats::default();
        let mut one = BatchStats {
            served: 2,
            ok: 1,
            cache_hits: 1,
            walks: WalkCounts {
                integer: 3,
                kept: 1,
                ..WalkCounts::default()
            },
            latencies_micros: vec![10, 20],
            ..BatchStats::default()
        };
        one.errors.bump(SvcErrorKind::Panic);
        total.absorb(&one);
        total.absorb(&one);
        assert_eq!(total.served, 4);
        assert_eq!((total.walks.integer, total.walks.kept), (6, 2));
        assert_eq!(total.ok, 2);
        assert_eq!(total.errors.panic, 2);
        assert_eq!(total.latencies_micros, vec![10, 20, 10, 20]);
        let footer = total.footer(4);
        assert!(footer.contains("errors{total=2"), "{footer}");
        assert!(footer.contains("p99="), "{footer}");
    }

    /// The response `walks` object and the footer, pinned byte for byte
    /// with every counter distinct, so a renderer change that reorders,
    /// renames or drops a field cannot pass unnoticed.
    #[test]
    fn walk_counters_render_pinned_wire_bytes() {
        let walks = WalkCounts {
            integer: 1,
            exact: 2,
            pruned: 3,
            avoided: 4,
            reused_components: 5,
            rebuilt_components: 6,
            lockstep: 7,
            patched: 8,
            repaired: 9,
            kept: 10,
            rewalked: 11,
        };
        let response = Response {
            seq: 3,
            label: "stdin:3".to_owned(),
            micros: 42,
            outcome: Outcome::Report {
                hash: "00abcdef00000001".to_owned(),
                cached: false,
                coalesced: true,
                walks: Some(walks.into()),
                report_json: Arc::from("{}"),
            },
        };
        assert_eq!(
            response.render(),
            "{\"seq\":3,\"hash\":\"00abcdef00000001\",\"cached\":false,\"coalesced\":true,\"micros\":42,\"walks\":{\"integer\":1,\"exact\":2,\"pruned\":3,\"avoided\":4,\"reused\":5,\"rebuilt\":6,\"lockstep\":7,\"patched\":8,\"repaired\":9,\"kept\":10,\"rewalked\":11},\"report\":{}}"
        );
        let mut stats = BatchStats {
            served: 7,
            ok: 5,
            cache_hits: 2,
            negative_hits: 1,
            coalesced: 1,
            analyzed: 3,
            walks,
            latencies_micros: vec![10, 20, 30, 40],
            ..BatchStats::default()
        };
        stats.errors.bump(SvcErrorKind::Parse);
        stats.errors.bump(SvcErrorKind::Timeout);
        assert_eq!(
            stats.footer(4),
            "rbs-svc: served=7 ok=5 errors{total=2 parse=1 limits=0 timeout=1 panic=0 oversized=0 overload=0} cache{hits=2 negative=1} coalesced=1 analyzed=3 jobs=4 walks{integer=1 exact=2 pruned=3 avoided=4 reused=5 rebuilt=6 lockstep=7 patched=8 repaired=9 kept=10 rewalked=11} latency_micros{p50=25 p99=40 mean=25 max=40}"
        );
    }
}
