//! The traced replay: requests pass in-process through the public entry
//! point of every layer the daemon runs them through, in the daemon's
//! order, with a span around each call.
//!
//! The replay mirrors `Service::process_batch` on micro-batches:
//!
//! 1. per request, serially: frame (`LineFramer`), parse (`rbs_json`),
//!    decode (the request kind's `from_json`), canonicalize, register
//!    delta bases, and look the result cache up;
//! 2. per distinct miss: run the analysis entry point of its kind (the
//!    daemon spreads this pass over its worker pool; the replay runs it
//!    inline) and render the report to JSON;
//! 3. per analyzed job: fill the cache; per request: render the response
//!    line.
//!
//! Analyses are re-expressed as the public calls their entry points
//! make, in the same order, so the replay's responses — reports and walk
//! counters alike — must equal the daemon's byte for byte. That equality
//! is checked, which keeps the replay honest as the program changes.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rbs_core::lo_mode::minimal_feasible_x;
use rbs_core::speedup::SpeedupBound;
use rbs_core::{
    Analysis, AnalysisError, AnalysisLimits, AnalysisScratch, AnalyzeMeta, AnalyzeReport,
    DeltaAnalysis, DeltaBase, DeltaOp, DeltaRequest, SweepAnalysis, SweepGrid, SweepMode,
    SweepPoint, SweepReport, WalkCounts,
};
use rbs_json::{FromJson, Json, ToJson};
use rbs_model::{CanonicalTaskSet, Mode, TaskSet};
use rbs_partition::wire::PartitionRequest;
use rbs_partition::PartitionSpec;
use rbs_svc::{LineFramer, Outcome, Response, ResultCache, SvcError, SvcErrorKind, WorkerPool};
use rbs_timebase::Rational;

use crate::client::Walks;
use crate::trace::Tracer;

/// Requests per replayed micro-batch.
pub const BATCH: usize = 8;

/// Span names of the serial first pass — the dispatcher's share.
pub const PASS1: [&str; 6] = [
    "svc.frame",
    "json.parse",
    "model.decode",
    "model.canonicalize",
    "svc.register",
    "svc.cache_get",
];

/// Span names of the analysis entry points, one per request kind.
pub const ENTRY_POINTS: [&str; 4] = [
    "core.analyze",
    "core.delta",
    "core.sweep",
    "partition.partition",
];

/// Spans outside `Service::process_batch` (the network front-end frames
/// requests and renders responses around it).
pub const OUTSIDE_BATCH: [&str; 2] = ["svc.frame", "svc.render"];

/// Capacity of the service's result cache and base registry.
const CACHE_CAPACITY: usize = 1024;

/// Capacity of the service's negative cache.
const NEGATIVE_CAPACITY: usize = 256;

/// The analysis a pending request asks for.
enum Job {
    Analyze(TaskSet),
    Sweep(SweepGrid),
    Delta(Arc<TaskSet>, Vec<DeltaOp>),
    Partition(TaskSet, PartitionSpec),
}

enum Slot {
    Done(Outcome),
    Waiting(usize),
}

/// The service state the replay carries between batches.
#[derive(Debug)]
pub struct Replay {
    tracer: Tracer,
    framer: LineFramer,
    cache: ResultCache,
    negative: ResultCache<SvcError>,
    bases: HashMap<String, Arc<TaskSet>>,
    base_order: VecDeque<String>,
    limits: AnalysisLimits,
    profiles: AnalysisScratch,
    arena: AnalysisScratch,
    sizing: WorkerPool,
}

/// One replayed response.
#[derive(Debug, Clone)]
pub struct Replayed {
    /// The rendered response line (`seq` 0, `micros` 0).
    pub line: String,
    /// Walk counters in wire order, when this request ran the analysis.
    pub walks: Option<Walks>,
}

impl Replay {
    /// A replay with empty caches whose spans count from `epoch`.
    #[must_use]
    pub fn new(epoch: Instant) -> Replay {
        Replay {
            tracer: Tracer::new(epoch),
            framer: LineFramer::new(None),
            cache: ResultCache::new(CACHE_CAPACITY),
            negative: ResultCache::new(NEGATIVE_CAPACITY),
            bases: HashMap::new(),
            base_order: VecDeque::new(),
            limits: AnalysisLimits::default(),
            profiles: AnalysisScratch::new(),
            arena: AnalysisScratch::new(),
            sizing: WorkerPool::new(1),
        }
    }

    /// The spans recorded so far.
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Replays one micro-batch of `(request id, request line)` pairs.
    pub fn batch(&mut self, batch: &[(u32, &str)]) -> Vec<Replayed> {
        let mut slots = Vec::with_capacity(batch.len());
        let mut pending: Vec<(CanonicalTaskSet, Job)> = Vec::new();
        let mut owner: Vec<u32> = Vec::new();
        let mut job_of: HashMap<Vec<u8>, usize> = HashMap::new();
        for &(id, line) in batch {
            self.tracer.request(id);
            let slot = match self.triage(line) {
                Ok((canonical, job)) => {
                    let hit =
                        self.tracer
                            .span("svc.cache_get", |_| match self.cache.get(&canonical) {
                                Some(report) => Some(Ok(report)),
                                None => self.negative.get(&canonical).map(Err),
                            });
                    match hit {
                        Some(Err(error)) => Slot::Done(Outcome::Error {
                            error,
                            cached: true,
                        }),
                        Some(Ok(report_json)) => Slot::Done(Outcome::Report {
                            hash: canonical.to_string(),
                            cached: true,
                            coalesced: false,
                            walks: None,
                            report_json,
                        }),
                        None => Slot::Waiting(
                            *job_of.entry(canonical.bytes().to_vec()).or_insert_with(|| {
                                pending.push((canonical, job));
                                owner.push(id);
                                pending.len() - 1
                            }),
                        ),
                    }
                }
                Err(error) => Slot::Done(Outcome::Error {
                    error,
                    cached: false,
                }),
            };
            slots.push(slot);
        }

        let mut results = Vec::with_capacity(pending.len());
        for ((canonical, job), &id) in pending.into_iter().zip(&owner) {
            self.tracer.request(id);
            let result = self.run(job);
            self.tracer.span("svc.cache_insert", |_| match &result {
                Ok((report_json, _)) => self.cache.insert(&canonical, Arc::clone(report_json)),
                Err(error) => self.negative.insert(&canonical, error.clone()),
            });
            results.push((canonical, result));
        }

        let mut charged = vec![false; results.len()];
        slots
            .into_iter()
            .zip(batch)
            .map(|(slot, &(id, _))| {
                let (outcome, walks) = match slot {
                    Slot::Done(outcome) => (outcome, None),
                    Slot::Waiting(job) => {
                        let coalesced = std::mem::replace(&mut charged[job], true);
                        let (canonical, result) = &results[job];
                        match result {
                            Ok((report_json, meta)) => (
                                Outcome::Report {
                                    hash: canonical.to_string(),
                                    cached: false,
                                    coalesced,
                                    walks: Some(*meta),
                                    report_json: Arc::clone(report_json),
                                },
                                (!coalesced).then(|| wire_counters(meta)),
                            ),
                            Err(error) => (
                                Outcome::Error {
                                    error: error.clone(),
                                    cached: false,
                                },
                                None,
                            ),
                        }
                    }
                };
                self.tracer.request(id);
                let response = Response {
                    seq: 0,
                    label: format!("net:{id}"),
                    micros: 0,
                    outcome,
                };
                let line = self.tracer.span("svc.render", |_| response.render());
                Replayed { line, walks }
            })
            .collect()
    }

    /// The serial first pass for one request, up to the cache lookup.
    fn triage(&mut self, line: &str) -> Result<(CanonicalTaskSet, Job), SvcError> {
        let parse_error = |what: &str, error: &dyn std::fmt::Display| {
            SvcError::new(SvcErrorKind::Parse, format!("invalid {what}: {error}"))
        };
        let body = self.tracer.span("svc.frame", |_| {
            self.framer.push(line.as_bytes());
            self.framer.pop()
        });
        let body = body.ok_or_else(|| parse_error("request", &"unterminated line"))?;
        let parsed = self
            .tracer
            .span("json.parse", |_| rbs_json::parse(&body))
            .map_err(|e| parse_error("request", &e))?;
        if let Some(sweep) = parsed.get("sweep") {
            let grid = self
                .tracer
                .span("model.decode", |_| SweepGrid::from_json(sweep))
                .map_err(|e| parse_error("sweep request", &e))?;
            let canonical = self.tracer.span("model.canonicalize", |_| {
                CanonicalTaskSet::of_sweep(&grid.specs, grid.x, &grid.ys, &grid.speeds)
            });
            Ok((canonical, Job::Sweep(grid)))
        } else if let Some(delta) = parsed.get("delta") {
            self.triage_delta(delta)
        } else if let Some(partition) = parsed.get("partition") {
            let request = self
                .tracer
                .span("model.decode", |_| PartitionRequest::from_json(partition))
                .map_err(|e| parse_error("partition request", &e))?;
            let canonical = self.tracer.span("model.canonicalize", |_| {
                CanonicalTaskSet::of_partition(&request.set, &request.spec.canonical_detail())
            });
            Ok((canonical, Job::Partition(request.set, request.spec)))
        } else {
            let set = self
                .tracer
                .span("model.decode", |_| TaskSet::from_json(&parsed))
                .map_err(|e| parse_error("task set", &e))?;
            let canonical = self
                .tracer
                .span("model.canonicalize", |_| CanonicalTaskSet::of(&set));
            let shared = self.tracer.span("svc.register", |_| Arc::new(set.clone()));
            self.register(&canonical, &shared);
            Ok((canonical, Job::Analyze(set)))
        }
    }

    fn triage_delta(&mut self, delta: &Json) -> Result<(CanonicalTaskSet, Job), SvcError> {
        let request = self
            .tracer
            .span("model.decode", |_| DeltaRequest::from_json(delta))
            .map_err(|e| {
                SvcError::new(SvcErrorKind::Parse, format!("invalid delta request: {e}"))
            })?;
        let base = match request.base {
            DeltaBase::Inline(set) => {
                let canonical = self
                    .tracer
                    .span("model.canonicalize", |_| CanonicalTaskSet::of(&set));
                let set = Arc::new(set);
                self.register(&canonical, &set);
                set
            }
            DeltaBase::Key(key) => {
                let base = self
                    .tracer
                    .span("svc.register", |_| self.bases.get(&key).cloned());
                base.ok_or_else(|| {
                    SvcError::new(
                        SvcErrorKind::Parse,
                        format!("unknown delta base key \"{key}\""),
                    )
                })?
            }
        };
        let (result, canonical) = self.tracer.span("model.canonicalize", |_| {
            let mut result = (*base).clone();
            for op in &request.ops {
                op.apply_to(&mut result).map_err(|e| {
                    SvcError::new(SvcErrorKind::Parse, format!("delta op rejected: {e}"))
                })?;
            }
            let canonical = CanonicalTaskSet::of(&result);
            Ok::<_, SvcError>((result, canonical))
        })?;
        self.register(&canonical, &Arc::new(result));
        Ok((canonical, Job::Delta(base, request.ops)))
    }

    /// The service's base registry: a FIFO of canonical hash → set.
    fn register(&mut self, canonical: &CanonicalTaskSet, set: &Arc<TaskSet>) {
        self.tracer.span("svc.register", |_| {
            let key = canonical.to_string();
            if self.bases.contains_key(&key) {
                return;
            }
            while self.base_order.len() >= CACHE_CAPACITY {
                if let Some(oldest) = self.base_order.pop_front() {
                    self.bases.remove(&oldest);
                }
            }
            self.base_order.push_back(key.clone());
            self.bases.insert(key, Arc::clone(set));
        });
    }

    /// The second pass for one job: the analysis entry point of its kind,
    /// then the report rendered to JSON.
    fn run(&mut self, job: Job) -> Result<(Arc<str>, AnalyzeMeta), SvcError> {
        let Replay {
            tracer,
            limits,
            profiles,
            arena,
            sizing,
            ..
        } = self;
        let limits = *limits;
        let failed = |e: AnalysisError| SvcError::from_analysis(&e);
        match job {
            Job::Analyze(set) => {
                let (report, meta) = tracer
                    .span("core.analyze", |t| {
                        arena.with_arena(|| analyze(t, set, &limits, profiles))
                    })
                    .map_err(failed)?;
                Ok((render(tracer, &report), meta))
            }
            Job::Delta(base, ops) => {
                let (report, meta) = tracer
                    .span("core.delta", |t| {
                        arena.with_arena(|| delta(t, &base, &ops, &limits))
                    })
                    .map_err(|e| match e {
                        Fail::Op(e) => {
                            SvcError::new(SvcErrorKind::Parse, format!("delta op rejected: {e}"))
                        }
                        Fail::Analysis(e) => failed(e),
                    })?;
                Ok((render(tracer, &report), meta))
            }
            Job::Sweep(grid) => {
                let swept = tracer
                    .span("core.sweep", |t| {
                        arena.with_arena(|| sweep(t, &grid, &limits, profiles))
                    })
                    .map_err(failed)?;
                Ok(match swept {
                    Some((report, meta)) => (render(tracer, &report), meta),
                    None => (Arc::from("{\"infeasible\":true}"), AnalyzeMeta::default()),
                })
            }
            Job::Partition(set, spec) => {
                let outcome = tracer
                    .span("partition.partition", |_| {
                        rbs_partition::partition_with(&set, &spec, sizing, &limits)
                    })
                    .map_err(failed)?;
                let meta = meta_of(outcome.walks());
                Ok((render(tracer, &outcome.to_json()), meta))
            }
        }
    }
}

fn render(tracer: &mut Tracer, report: &impl ToJson) -> Arc<str> {
    tracer.span("core.report_json", |_| {
        Arc::from(rbs_json::to_string(report))
    })
}

/// The walk counters as the service reports them.
fn meta_of(counts: WalkCounts) -> AnalyzeMeta {
    AnalyzeMeta {
        integer_walks: counts.integer,
        exact_walks: counts.exact,
        pruned_walks: counts.pruned,
        avoided_walks: counts.avoided,
        reused_components: counts.reused_components,
        rebuilt_components: counts.rebuilt_components,
        lockstep_walks: counts.lockstep,
        patched_profiles: counts.patched,
        repaired_frontiers: counts.repaired,
        kept_records: counts.kept,
        rewalked_frontiers: counts.rewalked,
    }
}

/// The walk counters in the order of a response's `walks` block.
fn wire_counters(meta: &AnalyzeMeta) -> Walks {
    [
        meta.integer_walks,
        meta.exact_walks,
        meta.pruned_walks,
        meta.avoided_walks,
        meta.reused_components,
        meta.rebuilt_components,
        meta.lockstep_walks,
        meta.patched_profiles,
        meta.repaired_frontiers,
        meta.kept_records,
        meta.rewalked_frontiers,
    ]
}

/// The report of one set minus the echoed set.
struct Parts {
    lo_schedulable: bool,
    lo_requirement: Rational,
    s_min: SpeedupBound,
    witness: Option<Rational>,
    resetting_rows: Vec<(Rational, rbs_core::resetting::ResettingBound)>,
    sized_speed: Option<Rational>,
}

impl Parts {
    fn into_report(self, set: TaskSet) -> AnalyzeReport {
        AnalyzeReport {
            set,
            lo_schedulable: self.lo_schedulable,
            lo_requirement: self.lo_requirement,
            s_min: self.s_min,
            witness: self.witness,
            resetting_rows: self.resetting_rows,
            sized_speed: self.sized_speed,
        }
    }
}

/// The queries `analyze_with_meta_in` and `run_delta_in` ask of an
/// analysis context, in their order.
fn query_parts(ctx: &Analysis<'_>, t: &mut Tracer) -> Result<Parts, AnalysisError> {
    t.span("analysis.prime_lockstep", |_| ctx.prime_lockstep());
    let lo_schedulable = t.span("analysis.is_lo_schedulable", |_| ctx.is_lo_schedulable())?;
    let lo_requirement = t.span("analysis.lo_speed_requirement", |_| {
        ctx.lo_speed_requirement()
    })?;
    let analysis = t.span("analysis.minimum_speedup", |_| ctx.minimum_speedup())?;
    let s_min = analysis.bound();
    let witness = analysis.witness();
    let mut speeds = vec![Rational::ONE, Rational::new(3, 2), Rational::TWO];
    if let SpeedupBound::Finite(v) = s_min {
        if !speeds.contains(&v) && v.is_positive() {
            speeds.push(v);
            speeds.sort();
        }
    }
    let mut resetting_rows = Vec::with_capacity(speeds.len());
    for s in speeds {
        let row = t.span("analysis.resetting_time", |_| ctx.resetting_time(s))?;
        resetting_rows.push((s, row.bound()));
    }
    let max_period = ctx
        .set()
        .iter()
        .filter_map(|task| task.params(Mode::Hi))
        .map(|p| p.period())
        .max();
    let sized_speed = match max_period {
        Some(p) => t.span("analysis.minimal_speed_within_budget", |_| {
            ctx.minimal_speed_within_budget(
                p * Rational::integer(10),
                Rational::integer(4),
                Rational::new(1, 64),
            )
        })?,
        None => None,
    };
    Ok(Parts {
        lo_schedulable,
        lo_requirement,
        s_min,
        witness,
        resetting_rows,
        sized_speed,
    })
}

/// `analyze_with_meta_in` as its public calls.
fn analyze(
    t: &mut Tracer,
    set: TaskSet,
    limits: &AnalysisLimits,
    profiles: &mut AnalysisScratch,
) -> Result<(AnalyzeReport, AnalyzeMeta), AnalysisError> {
    let ctx = t.span("analysis.new_with_scratch", |_| {
        Analysis::new_with_scratch(&set, limits, profiles)
    });
    let parts = query_parts(&ctx, t);
    let meta = meta_of(ctx.walk_counts());
    ctx.recycle_into(profiles);
    Ok((parts?.into_report(set), meta))
}

enum Fail {
    Op(rbs_core::DeltaError),
    Analysis(AnalysisError),
}

/// `run_delta_in` as its public calls.
fn delta(
    t: &mut Tracer,
    base: &TaskSet,
    ops: &[DeltaOp],
    limits: &AnalysisLimits,
) -> Result<(AnalyzeReport, AnalyzeMeta), Fail> {
    let mut delta = t.span("delta.new", |_| DeltaAnalysis::new(base.clone(), limits));
    t.span("delta.apply_batch", |_| delta.apply_batch(ops.to_vec()))
        .map_err(Fail::Op)?;
    let parts = t
        .span("delta.with_analysis", |t| {
            delta.with_analysis(|ctx| query_parts(ctx, t))
        })
        .map_err(Fail::Analysis)?;
    let meta = meta_of(delta.walk_counts());
    Ok((parts.into_report(delta.into_set()), meta))
}

/// `run_sweep_in` as its public calls.
fn sweep(
    t: &mut Tracer,
    grid: &SweepGrid,
    limits: &AnalysisLimits,
    profiles: &mut AnalysisScratch,
) -> Result<Option<(SweepReport, AnalyzeMeta)>, AnalysisError> {
    let x = t.span("sweep.minimal_feasible_x", |_| {
        grid.x.or_else(|| minimal_feasible_x(&grid.specs))
    });
    let Some(x) = x else { return Ok(None) };
    let mut sweep = t.span("sweep.new_in", |_| {
        SweepAnalysis::new_in(
            &grid.specs,
            x,
            &grid.ys,
            SweepMode::Degraded,
            limits,
            profiles,
        )
    });
    let mut points = Vec::with_capacity(grid.ys.len());
    let mut run = || {
        for &y in &grid.ys {
            t.span("sweep.rescale_lo", |_| sweep.rescale_lo(y));
            let s_min = t
                .span("sweep.minimum_speedup", |_| sweep.minimum_speedup())?
                .bound();
            let mut resetting = Vec::with_capacity(grid.speeds.len());
            for &s in &grid.speeds {
                let row = t.span("sweep.resetting_time", |_| sweep.resetting_time(s))?;
                resetting.push((s, row.bound()));
            }
            points.push(SweepPoint {
                y,
                s_min,
                resetting,
            });
        }
        Ok::<(), AnalysisError>(())
    };
    let result = run();
    let meta = meta_of(sweep.walk_counts());
    sweep.recycle_into(profiles);
    result?;
    Ok(Some((SweepReport { x, points }, meta)))
}

/// Nanoseconds per call of a no-op 8-item batch through
/// `WorkerPool::run_ordered_scoped_caught` with two workers — the
/// dispatch cost every analyzed micro-batch pays — over `rounds` calls.
#[must_use]
pub fn pool_dispatch_ns(rounds: usize) -> Vec<u64> {
    let pool = WorkerPool::new(2);
    (0..rounds)
        .map(|_| {
            let start = Instant::now();
            let out = pool.run_ordered_scoped_caught(
                (0..BATCH as u32).collect(),
                || (),
                |(), _, item| std::hint::black_box(item),
            );
            std::hint::black_box(out);
            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
        .collect()
}

/// Wall time of `Service::process_batch` on a one-worker service, for the
/// accounting closure: with one worker the batch runs inline, so its wall
/// time is the sum of the stages the replay times.
#[derive(Debug)]
pub struct Reference {
    service: rbs_svc::Service,
    /// Summed wall time of every batch.
    pub elapsed: Duration,
}

impl Default for Reference {
    fn default() -> Reference {
        Reference {
            service: rbs_svc::Service::with_config(
                WorkerPool::new(1),
                rbs_svc::ServiceConfig::default(),
            ),
            elapsed: Duration::ZERO,
        }
    }
}

impl Reference {
    /// Serves one micro-batch, timing only `process_batch`; returns the
    /// rendered response lines.
    pub fn batch(&mut self, batch: &[(u32, &str)]) -> Vec<String> {
        let requests: Vec<rbs_svc::Request> = batch
            .iter()
            .map(|&(id, line)| rbs_svc::Request {
                label: format!("net:{id}"),
                body: line.trim_end_matches('\n').to_owned(),
            })
            .collect();
        let start = Instant::now();
        let (responses, _) = self.service.process_batch(&requests);
        self.elapsed += start.elapsed();
        responses.iter().map(Response::render).collect()
    }
}
