//! One benchmark run of one workload: cold starts, the closed loop, the
//! checks, and (when traced) the in-process replay.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use rbs_core::DeltaOp;
use rbs_svc::{Request, Service, ServiceConfig, WorkerPool};

use crate::client::{
    strip_volatile, Checks, Conn, ConnReport, Keep, Kept, Phase, PhaseStats, Schedule, Walks,
    WALK_FIELDS,
};
use crate::daemon::{Footer, Launch, Target};
use crate::replay::{self, Reference, Replay, BATCH, ENTRY_POINTS, OUTSIDE_BATCH, PASS1};
use crate::trace::Tracer;
use crate::workload::{Kind, Lane, Req, Workload, CONNECTIONS, DEPTH};

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput_rps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("setup_s", "s"),
    ("server_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("net.overhead_us.p50", "us"),
    ("net.overhead_us.p99", "us"),
    ("net.response_bytes.mean", "B"),
    ("svc.frame_ns", "ns"),
    ("json.parse_us", "us"),
    ("model.decode_us", "us"),
    ("model.canonicalize_us", "us"),
    ("svc.cache_get_ns", "ns"),
    ("svc.cache_insert_ns", "ns"),
    ("svc.pass1_us", "us"),
    ("pool.dispatch_us", "us"),
    ("core.run_us", "us"),
    ("core.report_json_us", "us"),
    ("svc.render_us", "us"),
    ("core.walks.integer", "count"),
    ("core.walks.exact", "count"),
    ("core.walks.pruned", "count"),
    ("core.walks.avoided", "count"),
    ("core.components.reused", "count"),
    ("core.components.rebuilt", "count"),
    ("core.walks.lockstep", "count"),
    ("core.profiles.patched", "count"),
    ("core.frontier.repaired", "count"),
    ("core.frontier.kept", "count"),
    ("core.frontier.rewalked", "count"),
    ("core.walks.exact_share", "ratio"),
    ("core.walks.pruned_share", "ratio"),
    ("core.walks.lockstep_share", "ratio"),
    ("svc.cache_hit_ratio", "ratio"),
    ("svc.coalesced_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.closure_gap_pct", "%"),
];

/// Latency samples below which no p99 is reported.
pub const P99_MIN_SAMPLES: usize = 1000;

/// Responses per run compared byte for byte with an in-process service.
const SAMPLED: usize = 64;

/// Largest distance, in percent, between the replay's stage self times
/// and `Service::process_batch` before the accounting counts as open.
pub const CLOSURE_TOLERANCE_PCT: f64 = 15.0;

/// The `core.walks.*`, `core.components.*`, `core.profiles.*` and
/// `core.frontier.*` names of the walk counters, by [`WALK_FIELDS`] slot.
const WALK_METRICS: [&str; 11] = [
    "core.walks.integer",
    "core.walks.exact",
    "core.walks.pruned",
    "core.walks.avoided",
    "core.components.reused",
    "core.components.rebuilt",
    "core.walks.lockstep",
    "core.profiles.patched",
    "core.frontier.repaired",
    "core.frontier.kept",
    "core.frontier.rewalked",
];

/// What to run.
#[derive(Debug, Clone)]
pub struct Settings {
    /// The traffic mix.
    pub kind: Kind,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Whether to measure per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// The daemon under test.
    pub launch: Launch,
    /// Directory for traces and port files.
    pub out: PathBuf,
    /// Daemon cold starts whose median is `setup_s`; the last one serves
    /// the measured run.
    pub cold_starts: usize,
}

/// One metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Whether every check passed.
    pub correct: bool,
    /// Requests sent to the measured daemon.
    pub attempted: u64,
    /// Failed responses, unanswered requests and failed checks.
    pub failed: u64,
    /// The metrics, in table order.
    pub metrics: Vec<Metric>,
    /// Latency samples behind the percentiles.
    pub samples: usize,
    /// Why checks failed, and other remarks for the log.
    pub notes: Vec<String>,
}

impl Outcome {
    fn push(&mut self, table: &[(&'static str, &'static str)], name: &str, value: f64) {
        let &(name, unit) = table
            .iter()
            .find(|(known, _)| *known == name)
            .expect("metric is declared");
        self.metrics.push(Metric { name, value, unit });
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        self.notes.push(message);
    }
}

/// Runs one workload.
///
/// # Errors
///
/// Failures to start, reach or drain the daemon.
pub fn run(settings: &Settings) -> io::Result<Outcome> {
    fs::create_dir_all(&settings.out)?;
    let kind = settings.kind;
    let warmup = (settings.seconds * 0.3).min(3.0);
    let generating = Instant::now();
    let mut workload = Workload::generate(kind, settings.seed, warmup);
    let mut generated = generating.elapsed();
    let keep = |sample: usize, first: usize| {
        move |c: usize| Keep {
            sample,
            first,
            seed: settings.seed ^ ((c as u64 + 1) << 32),
            cached: kind.expects_cached(),
        }
    };

    let mut setups = Vec::with_capacity(settings.cold_starts);
    let mut live = None;
    for start in 0..settings.cold_starts.max(1) {
        let began = Instant::now();
        let target = Target::start(&settings.launch, &settings.out)?;
        let mut conns = open(&target)?;
        let primed = prime(&mut conns, &workload.priming)?;
        setups.push(began.elapsed().as_secs_f64());
        if start + 1 < settings.cold_starts {
            drop(conns);
            target.drain()?;
        } else {
            live = Some((target, conns, primed));
        }
    }
    let (target, mut conns, primed) = live.expect("at least one cold start");

    // The warm-up lets caches, arenas and the allocator settle; the
    // traced replay later covers each lane's first requests.
    let first = if settings.trace {
        replay_per_lane(kind)
    } else {
        0
    };
    let warm_start = Instant::now();
    let warm_end = warm_start + Duration::from_secs_f64(warmup);
    let warm_schedule = Schedule {
        phases: vec![(warm_end, Phase::Warmup)],
    };
    let warm = drive_all(
        &mut conns,
        &mut workload.conns,
        &warm_schedule,
        warm_start,
        keep(0, first),
    )?;
    let warm_ok: u64 = warm.iter().flat_map(|r| &r.phases).map(|p| p.ok).sum();
    let generating = Instant::now();
    workload.fill(1.25 * warm_ok as f64 / warmup, settings.seconds);
    generated += generating.elapsed();

    let epoch = Instant::now();
    let end = epoch + Duration::from_secs_f64(settings.seconds);
    let phases = if settings.trace {
        let half = epoch + Duration::from_secs_f64(settings.seconds / 2.0);
        vec![(half, Phase::Measure), (end, Phase::Traced)]
    } else {
        vec![(end, Phase::Measure)]
    };
    let schedule = Schedule { phases };
    let reports = drive_all(
        &mut conns,
        &mut workload.conns,
        &schedule,
        epoch,
        keep(SAMPLED / CONNECTIONS, 0),
    )?;
    let rss_kib = target.peak_rss_kib();
    drop(conns);
    let footer = target.drain()?;

    let mut outcome = Outcome::default();
    let mut checks = Checks::default();
    for report in primed.iter().chain(&warm).chain(&reports) {
        checks.absorb(&report.checks);
    }
    outcome.attempted = checks.attempted;
    outcome.failed = checks.failed;
    outcome.notes.extend(checks.messages.iter().cloned());
    check_footer(&footer, &checks, kind, &mut outcome);
    check_samples(&workload, &warm, &reports, &mut outcome);
    outcome.notes.push(format!(
        "generated the requests in {:.2} s",
        generated.as_secs_f64()
    ));
    let late: u64 = workload.conns.iter().flatten().map(|lane| lane.late).sum();
    if late > 0 {
        outcome
            .notes
            .push(format!("{late} requests were generated during the run"));
    }

    let measured = merge(&reports, &schedule, Phase::Measure);
    let mut latencies = measured.latencies_ns.clone();
    latencies.sort_unstable();
    outcome.samples = latencies.len();
    if latencies.is_empty() {
        outcome.fail("no response arrived in the measured window".to_owned());
    }
    if settings.trace {
        let traced = merge(&reports, &schedule, Phase::Traced);
        tcp_layer(&mut outcome, &measured, &traced);
        let order = replay_order(&primed, &warm);
        replay_layer(&mut outcome, settings, &footer, &order, &reports)?;
    } else {
        let window = settings.seconds;
        let table = &END_TO_END;
        outcome.push(table, "throughput_rps", measured.ok as f64 / window);
        outcome.push(
            table,
            "latency_p50_us",
            percentile(&latencies, 50) as f64 / 1e3,
        );
        if latencies.len() >= P99_MIN_SAMPLES {
            outcome.push(
                table,
                "latency_p99_us",
                percentile(&latencies, 99) as f64 / 1e3,
            );
        } else {
            outcome.notes.push(format!(
                "latency_p99_us needs {P99_MIN_SAMPLES} samples, the window gave {}",
                latencies.len()
            ));
        }
        outcome.push(table, "setup_s", median_f64(&mut setups));
        match rss_kib {
            Some(kib) => outcome.push(table, "server_rss_mb", kib as f64 / 1024.0),
            None => outcome.fail("cannot read the daemon's VmHWM".to_owned()),
        }
    }
    let table: &[(&str, &str)] = if settings.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    outcome
        .metrics
        .sort_by_key(|m| table.iter().position(|&(name, _)| name == m.name));
    if let Some(metric) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        let message = format!("{} is not a number: {}", metric.name, metric.value);
        outcome.fail(message);
    }
    outcome.correct = outcome.failed == 0;
    Ok(outcome)
}

/// Requests per lane the traced replay covers: enough for stable
/// per-request medians within about a second of replay per mix.
const fn replay_per_lane(kind: Kind) -> usize {
    match kind {
        Kind::Hit => 512,
        Kind::Miss => 128,
        Kind::DeltaChain => 24,
        Kind::Sweep => 48,
        Kind::Partition => 16,
    }
}

fn open(target: &Target) -> io::Result<Vec<Conn>> {
    (0..CONNECTIONS)
        .map(|_| Conn::open(target.addr()))
        .collect()
}

/// Sends the priming requests round-robin over the connections and
/// waits for every answer.
fn prime(conns: &mut [Conn], priming: &[Arc<Req>]) -> io::Result<Vec<ConnReport>> {
    let mut lanes: Vec<Vec<Lane>> = (0..conns.len())
        .map(|c| {
            let share = priming
                .iter()
                .skip(c)
                .step_by(conns.len())
                .cloned()
                .collect();
            vec![Lane::fixed(DEPTH, share)]
        })
        .collect();
    let schedule = Schedule { phases: Vec::new() };
    drive_all(conns, &mut lanes, &schedule, Instant::now(), |c| Keep {
        sample: 0,
        first: usize::MAX,
        seed: c as u64,
        cached: false,
    })
}

/// Drives every connection on its own thread.
fn drive_all(
    conns: &mut [Conn],
    lanes: &mut [Vec<Lane>],
    schedule: &Schedule,
    epoch: Instant,
    keep: impl Fn(usize) -> Keep + Sync,
) -> io::Result<Vec<ConnReport>> {
    thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(lanes.iter_mut())
            .enumerate()
            .map(|(c, (conn, lanes))| {
                let keep = keep(c);
                scope.spawn(move || conn.drive(lanes, schedule, epoch, keep))
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| {
                handle
                    .join()
                    .map_err(|_| io::Error::other("client thread panicked"))?
            })
            .collect()
    })
}

/// One phase's measurements over every connection.
fn merge(reports: &[ConnReport], schedule: &Schedule, phase: Phase) -> PhaseStats {
    let mut merged = PhaseStats::default();
    for report in reports {
        for (stats, &(_, p)) in report.phases.iter().zip(&schedule.phases) {
            if p == phase {
                merged.latencies_ns.extend_from_slice(&stats.latencies_ns);
                merged.overheads_ns.extend_from_slice(&stats.overheads_ns);
                merged.ok += stats.ok;
                merged.bytes += stats.bytes;
            }
        }
    }
    merged
}

/// The drain footer must account for exactly what the client saw.
fn check_footer(footer: &Footer, checks: &Checks, kind: Kind, outcome: &mut Outcome) {
    let hits = if kind.expects_cached() {
        checks.attempted - checks.analyzed
    } else {
        0
    };
    let mut expect = vec![
        ("served", checks.attempted),
        ("ok", checks.attempted - checks.failed),
        ("errors.total", checks.failed),
        ("analyzed", checks.analyzed),
        ("coalesced", 0),
        ("cache.hits", hits),
        ("net.double_done", 0),
    ];
    let walk_keys: Vec<String> = WALK_FIELDS.iter().map(|f| format!("walks.{f}")).collect();
    for (key, &value) in walk_keys.iter().zip(&checks.walks) {
        expect.push((key, value));
    }
    for (key, value) in expect {
        if footer.get(key) != value {
            outcome.fail(format!(
                "footer {key}={} but the client counted {value}",
                footer.get(key)
            ));
        }
    }
}

/// Compares the sampled responses byte for byte (minus `seq` and
/// `micros`) with an in-process service's answer to the same request.
fn check_samples(
    workload: &Workload,
    warm: &[ConnReport],
    reports: &[ConnReport],
    outcome: &mut Outcome,
) {
    for (warm, report) in warm.iter().zip(reports) {
        for kept in &report.sample {
            let expected = reference_answer(workload, warm, report, kept);
            if strip_volatile(&kept.line) != strip_volatile(&expected) {
                outcome.fail(format!(
                    "response {} differs from the in-process service's",
                    kept.req.hash
                ));
            }
        }
    }
}

/// The in-process service's answer to a kept request, in the state the
/// workload puts the daemon in: cached for `hit`, fresh otherwise. A
/// chained delta ships the base its chain had reached (replayed from the
/// chain's ops in `warm` and then `report`) inline.
fn reference_answer(
    workload: &Workload,
    warm: &ConnReport,
    report: &ConnReport,
    kept: &Kept,
) -> String {
    let service = Service::with_config(WorkerPool::new(1), ServiceConfig::default());
    let body = match &kept.req.delta {
        Some((chain, ops)) => {
            let history: Vec<&[DeltaOp]> = std::iter::once(&workload.priming[*chain])
                .chain(&warm.deltas[kept.lane])
                .chain(&report.deltas[kept.lane][..kept.pos])
                .map(|req| chain_ops(req))
                .collect();
            workload.inline_delta(*chain, &history, ops)
        }
        None => kept.req.body().to_owned(),
    };
    let request = Request {
        label: "reference".to_owned(),
        body,
    };
    if workload.kind.expects_cached() {
        let _ = service.handle(&request);
    }
    service.handle(&request).render()
}

fn chain_ops(req: &Req) -> &[DeltaOp] {
    req.delta
        .as_ref()
        .map(|(_, ops)| ops.as_slice())
        .expect("a chain lane sends only deltas")
}

/// Per-layer metrics of the TCP loop: what the untraced half spent
/// outside the service, and what the traced half cost.
fn tcp_layer(outcome: &mut Outcome, measured: &PhaseStats, traced: &PhaseStats) {
    let table = &PER_LAYER;
    let mut overheads = measured.overheads_ns.clone();
    overheads.sort_unstable();
    outcome.push(
        table,
        "net.overhead_us.p50",
        percentile(&overheads, 50) as f64 / 1e3,
    );
    outcome.push(
        table,
        "net.overhead_us.p99",
        percentile(&overheads, 99) as f64 / 1e3,
    );
    let mean_bytes = measured.bytes as f64 / measured.ok.max(1) as f64;
    outcome.push(table, "net.response_bytes.mean", mean_bytes);
    let p50 = |stats: &PhaseStats| {
        let mut latencies = stats.latencies_ns.clone();
        latencies.sort_unstable();
        percentile(&latencies, 50) as f64
    };
    let (untraced, with_spans) = (p50(measured), p50(traced));
    let overhead = 100.0 * (with_spans - untraced) / untraced.max(1.0);
    outcome.push(table, "trace.overhead_pct", overhead);
}

/// The requests the traced replay covers, in an order that keeps every
/// dependency: the priming requests first (they fill the caches and the
/// base registry the rest rely on), then each lane's first requests,
/// interleaved across lanes.
fn replay_order<'a>(primed: &'a [ConnReport], warm: &'a [ConnReport]) -> Vec<&'a Kept> {
    // Priming went out round-robin over the connections.
    let mut order: Vec<&Kept> = primed.iter().flat_map(|r| &r.first).collect();
    order.sort_by_key(|k| k.pos);
    let mut lanes: Vec<&Kept> = warm.iter().flat_map(|r| &r.first).collect();
    lanes.sort_by_key(|k| k.pos);
    order.extend(lanes);
    order
}

/// Per-layer metrics of the in-process replay, its checks against the
/// daemon and `Service::process_batch`, and the accounting closure;
/// writes the trace file.
fn replay_layer(
    outcome: &mut Outcome,
    settings: &Settings,
    footer: &Footer,
    order: &[&Kept],
    reports: &[ConnReport],
) -> io::Result<()> {
    let table = &PER_LAYER;
    let mut replay = Replay::new(Instant::now());
    let mut reference = Reference::default();
    let mut walks: Vec<Walks> = Vec::new();
    for (b, chunk) in order.chunks(BATCH).enumerate() {
        let batch: Vec<(u32, &str)> = chunk
            .iter()
            .enumerate()
            .map(|(i, k)| ((b * BATCH + i) as u32, k.req.line.as_str()))
            .collect();
        // Alternate which side runs first so neither always finds the
        // request bytes warm in cache.
        let (ours, theirs) = if b % 2 == 0 {
            let ours = replay.batch(&batch);
            (ours, reference.batch(&batch))
        } else {
            let theirs = reference.batch(&batch);
            (replay.batch(&batch), theirs)
        };
        for ((kept, ours), theirs) in chunk.iter().zip(ours).zip(theirs) {
            let line = strip_volatile(&ours.line);
            if line != strip_volatile(&kept.line) {
                let hash = &kept.req.hash;
                outcome.fail(format!(
                    "replayed response {hash} differs from the daemon's"
                ));
            }
            if line != strip_volatile(&theirs) {
                let hash = &kept.req.hash;
                outcome.fail(format!(
                    "replayed response {hash} differs from process_batch"
                ));
            }
            walks.extend(ours.walks);
        }
    }

    let tracer = replay.tracer();
    let per_request = tracer.per_request();
    // Per-request medians of a stage's inclusive time, over the requests
    // that reached it.
    let median = |mut values: Vec<u64>| {
        values.sort_unstable();
        percentile(&values, 50) as f64
    };
    let stage = |names: &[&str]| -> f64 {
        median(
            per_request
                .values()
                .filter(|stages| names.iter().any(|n| stages.contains_key(n)))
                .map(|stages| {
                    names
                        .iter()
                        .filter_map(|n| stages.get(n))
                        .map(|s| s.0)
                        .sum()
                })
                .collect(),
        )
    };
    outcome.push(table, "svc.frame_ns", stage(&["svc.frame"]));
    outcome.push(table, "json.parse_us", stage(&["json.parse"]) / 1e3);
    outcome.push(table, "model.decode_us", stage(&["model.decode"]) / 1e3);
    outcome.push(
        table,
        "model.canonicalize_us",
        stage(&["model.canonicalize"]) / 1e3,
    );
    outcome.push(table, "svc.cache_get_ns", stage(&["svc.cache_get"]));
    outcome.push(table, "svc.cache_insert_ns", stage(&["svc.cache_insert"]));
    outcome.push(table, "svc.pass1_us", stage(&PASS1) / 1e3);
    let dispatch = median(replay::pool_dispatch_ns(200));
    outcome.push(table, "pool.dispatch_us", dispatch / 1e3);
    outcome.push(table, "core.run_us", stage(&ENTRY_POINTS) / 1e3);
    outcome.push(
        table,
        "core.report_json_us",
        stage(&["core.report_json"]) / 1e3,
    );
    outcome.push(table, "svc.render_us", stage(&["svc.render"]) / 1e3);

    let mut totals: Walks = [0; 11];
    for counts in &walks {
        for (total, count) in totals.iter_mut().zip(counts) {
            *total += count;
        }
    }
    let executed = walks.len().max(1) as f64;
    for (name, total) in WALK_METRICS.iter().zip(totals) {
        outcome.push(table, name, total as f64 / executed);
    }
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let [integer, exact, pruned, _, _, _, lockstep, ..] = totals;
    outcome.push(
        table,
        "core.walks.exact_share",
        ratio(exact, integer + exact),
    );
    outcome.push(
        table,
        "core.walks.pruned_share",
        ratio(pruned, integer + exact),
    );
    outcome.push(table, "core.walks.lockstep_share", ratio(lockstep, integer));
    let served = footer.get("served");
    outcome.push(
        table,
        "svc.cache_hit_ratio",
        ratio(footer.get("cache.hits"), served),
    );
    outcome.push(
        table,
        "svc.coalesced_ratio",
        ratio(footer.get("coalesced"), served),
    );

    // Accounting closure: the replay's stage self times inside the batch
    // must add up to what the service itself takes for the same batches.
    let inside: u64 = tracer
        .spans()
        .iter()
        .zip(tracer.self_times())
        .filter(|(span, _)| !OUTSIDE_BATCH.contains(&span.name))
        .map(|(_, own)| own)
        .sum();
    let batch_ns = reference.elapsed.as_nanos() as f64;
    let closure = 100.0 * (inside as f64 - batch_ns) / batch_ns.max(1.0);
    outcome.push(table, "trace.closure_gap_pct", closure.abs());
    if closure.abs() > CLOSURE_TOLERANCE_PCT {
        outcome.notes.push(format!(
            "accounting does not close: stages sum to {:.0} us, process_batch took {:.0} us \
             ({closure:+.1} %); self time per stage: {}",
            inside as f64 / 1e3,
            batch_ns / 1e3,
            stage_breakdown(tracer)
        ));
    }

    let round_trips: Vec<String> = reports
        .iter()
        .flat_map(|r| &r.spans)
        .map(|(start, end)| format!("[{start},{end}]"))
        .collect();
    let name = settings.kind.name();
    tracer.write(
        &settings.out.join(format!("TRACE_{name}.json")),
        &[
            ("workload", format!("\"{name}\"")),
            ("seed", settings.seed.to_string()),
            ("replayed", order.len().to_string()),
            ("process_batch_ns", reference.elapsed.as_nanos().to_string()),
            ("tcp_round_trips", format!("[{}]", round_trips.join(","))),
        ],
    )
}

/// `name=self µs` for every span name, largest first.
fn stage_breakdown(tracer: &Tracer) -> String {
    let mut by_name: BTreeMap<&str, u64> = BTreeMap::new();
    for (span, own) in tracer.spans().iter().zip(tracer.self_times()) {
        *by_name.entry(span.name).or_default() += own;
    }
    let mut stages: Vec<(&str, u64)> = by_name.into_iter().collect();
    stages.sort_by_key(|&(_, ns)| Reverse(ns));
    let stages: Vec<String> = stages
        .iter()
        .map(|(name, ns)| format!("{name}={:.0}us", *ns as f64 / 1e3))
        .collect();
    stages.join(" ")
}

/// Nearest-rank percentile of a sorted slice (zero when empty).
#[must_use]
pub fn percentile<T: Copy + Default>(sorted: &[T], pct: usize) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (sorted.len() * pct).div_ceil(100).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn median_f64(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}
