//! The per-set analysis entry point: one call producing the full report
//! (LO-mode verdict, Theorem 2's minimum speedup, Corollary 5's resetting
//! times, platform sizing) that the CLI tools and the admission-control
//! service both serve.
//!
//! The report renders to JSON via [`rbs_json::ToJson`] so that every
//! consumer — `rbs-experiments analyze`, `rbs-svc`, tests — emits the exact
//! same bytes for the same task set.

use std::fmt;

use rbs_json::{Json, JsonError, ToJson};
use rbs_model::{ImplicitTaskSpec, TaskSet};
use rbs_timebase::Rational;

use crate::analysis::{Analysis, AnalysisScratch, WalkCounts};
use crate::delta::{DeltaAnalysis, DeltaError, DeltaOp};
use crate::kernel::with_arena;
use crate::lo_mode::minimal_feasible_x;
use crate::resetting::ResettingBound;
use crate::speedup::SpeedupBound;
use crate::sweep::{SweepAnalysis, SweepMode};
use crate::{AnalysisError, AnalysisLimits};

/// The report for one task set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeReport {
    /// The analyzed set (echoed back for context).
    pub set: TaskSet,
    /// Whether LO mode meets all deadlines at nominal speed.
    pub lo_schedulable: bool,
    /// The smallest speed at which LO mode would be schedulable.
    pub lo_requirement: Rational,
    /// Theorem 2's minimum HI-mode speedup.
    pub s_min: SpeedupBound,
    /// The demand witness interval, if finite.
    pub witness: Option<Rational>,
    /// `(s, Δ_R)` rows for a few representative speeds.
    pub resetting_rows: Vec<(Rational, ResettingBound)>,
    /// The smallest speed meeting a 10-"period-scale" reset budget (ten
    /// times the largest HI-mode period), when one exists below 4x.
    pub sized_speed: Option<Rational>,
}

/// [`WalkCounts`] under the field names a service response's `walks`
/// carries (see `rbs_svc::Outcome::Report`). Each counter is documented
/// on the [`WalkCounts`] field it converts to and from; both conversions
/// spell out every field of both types, so a counter added to either
/// fails to compile until it is mapped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AnalyzeMeta {
    /// [`WalkCounts::integer`].
    pub integer_walks: u64,
    /// [`WalkCounts::exact`].
    pub exact_walks: u64,
    /// [`WalkCounts::pruned`].
    pub pruned_walks: u64,
    /// [`WalkCounts::avoided`].
    pub avoided_walks: u64,
    /// [`WalkCounts::reused_components`].
    pub reused_components: u64,
    /// [`WalkCounts::rebuilt_components`].
    pub rebuilt_components: u64,
    /// [`WalkCounts::lockstep`].
    pub lockstep_walks: u64,
    /// [`WalkCounts::patched`].
    pub patched_profiles: u64,
    /// [`WalkCounts::repaired`].
    pub repaired_frontiers: u64,
    /// [`WalkCounts::kept`].
    pub kept_records: u64,
    /// [`WalkCounts::rewalked`].
    pub rewalked_frontiers: u64,
}

impl From<WalkCounts> for AnalyzeMeta {
    fn from(counts: WalkCounts) -> AnalyzeMeta {
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
        AnalyzeMeta {
            integer_walks: integer,
            exact_walks: exact,
            pruned_walks: pruned,
            avoided_walks: avoided,
            reused_components,
            rebuilt_components,
            lockstep_walks: lockstep,
            patched_profiles: patched,
            repaired_frontiers: repaired,
            kept_records: kept,
            rewalked_frontiers: rewalked,
        }
    }
}

impl From<AnalyzeMeta> for WalkCounts {
    fn from(meta: AnalyzeMeta) -> WalkCounts {
        WalkCounts {
            integer: meta.integer_walks,
            exact: meta.exact_walks,
            pruned: meta.pruned_walks,
            avoided: meta.avoided_walks,
            reused_components: meta.reused_components,
            rebuilt_components: meta.rebuilt_components,
            lockstep: meta.lockstep_walks,
            patched: meta.patched_profiles,
            repaired: meta.repaired_frontiers,
            kept: meta.kept_records,
            rewalked: meta.rewalked_frontiers,
        }
    }
}

/// Analyzes a task set, producing the full [`AnalyzeReport`].
///
/// # Errors
///
/// Propagates exact-analysis errors (breakpoint budgets on pathological
/// inputs).
pub fn analyze(set: TaskSet, limits: &AnalysisLimits) -> Result<AnalyzeReport, AnalysisError> {
    analyze_with_meta(set, limits).map(|(report, _)| report)
}

/// [`analyze`] plus walk statistics ([`WalkCounts`]). The report is
/// byte-for-byte the one [`analyze`] returns; all queries share one
/// [`Analysis`] context (each demand profile is built exactly once).
///
/// # Errors
///
/// As for [`analyze`].
pub fn analyze_with_meta(
    set: TaskSet,
    limits: &AnalysisLimits,
) -> Result<(AnalyzeReport, WalkCounts), AnalysisError> {
    let ctx = Analysis::new(&set, limits);
    let result = run_queries(&ctx);
    drop(ctx);
    let (parts, meta) = result?;
    Ok((parts.into_report(set), meta))
}

/// [`analyze_with_meta`] with the profile buffers leased from `scratch`
/// — the allocation-free form for campaign runners and service workers
/// analyzing many sets back to back. The buffers are returned to
/// `scratch` whether or not the analysis succeeds; the report and meta
/// are byte-for-byte those of [`analyze_with_meta`].
///
/// # Errors
///
/// As for [`analyze`].
pub fn analyze_with_meta_in(
    set: TaskSet,
    limits: &AnalysisLimits,
    scratch: &mut AnalysisScratch,
) -> Result<(AnalyzeReport, WalkCounts), AnalysisError> {
    let (arena, result) = with_arena(std::mem::take(&mut scratch.arena), || {
        let ctx = Analysis::new_with_scratch(&set, limits, scratch);
        let result = run_queries(&ctx);
        ctx.recycle_into(scratch);
        result
    });
    scratch.arena = arena;
    let (parts, meta) = result?;
    Ok((parts.into_report(set), meta))
}

/// Everything in an [`AnalyzeReport`] except the echoed set, so the
/// query pass can borrow the set while the caller still owns it.
struct ReportParts {
    lo_schedulable: bool,
    lo_requirement: Rational,
    s_min: SpeedupBound,
    witness: Option<Rational>,
    resetting_rows: Vec<(Rational, ResettingBound)>,
    sized_speed: Option<Rational>,
}

impl ReportParts {
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

fn run_queries(ctx: &Analysis) -> Result<(ReportParts, WalkCounts), AnalysisError> {
    let parts = query_parts(ctx)?;
    Ok((parts, ctx.walk_counts()))
}

/// The query pass behind [`run_queries`], without the walk-count
/// snapshot — the delta entry points take their counts from the
/// resident [`DeltaAnalysis`] instead, which also owns the splice
/// accounting.
fn query_parts(ctx: &Analysis) -> Result<ReportParts, AnalysisError> {
    ctx.prime_lockstep();
    let lo_schedulable = ctx.is_lo_schedulable()?;
    let lo_requirement = ctx.lo_speed_requirement()?;
    let analysis = ctx.minimum_speedup()?;
    let s_min = analysis.bound();
    let witness = analysis.witness();
    let mut speeds: Vec<Rational> = vec![Rational::ONE, Rational::new(3, 2), Rational::TWO];
    if let SpeedupBound::Finite(v) = s_min {
        if !speeds.contains(&v) && v.is_positive() {
            speeds.push(v);
            speeds.sort();
        }
    }
    let mut resetting_rows = Vec::new();
    for s in speeds {
        resetting_rows.push((s, ctx.resetting_time(s)?.bound()));
    }
    let sized_speed = {
        let max_period = ctx
            .set()
            .iter()
            .filter_map(|t| t.params(rbs_model::Mode::Hi))
            .map(|p| p.period())
            .max();
        match max_period {
            Some(p) => ctx.minimal_speed_within_budget(
                p * Rational::integer(10),
                Rational::integer(4),
                Rational::new(1, 64),
            )?,
            None => None,
        }
    };
    Ok(ReportParts {
        lo_schedulable,
        lo_requirement,
        s_min,
        witness,
        resetting_rows,
        sized_speed,
    })
}

impl ToJson for SpeedupBound {
    fn to_json(&self) -> Json {
        match self {
            SpeedupBound::Finite(v) => Json::Object(vec![("Finite".to_owned(), v.to_json())]),
            SpeedupBound::Unbounded => Json::Str("Unbounded".to_owned()),
        }
    }
}

impl rbs_json::FromJson for SpeedupBound {
    fn from_json(value: &Json) -> Result<SpeedupBound, JsonError> {
        bound_from_json(value, "SpeedupBound")
            .map(|v| v.map_or(SpeedupBound::Unbounded, SpeedupBound::Finite))
    }
}

impl ToJson for ResettingBound {
    fn to_json(&self) -> Json {
        match self {
            ResettingBound::Finite(v) => Json::Object(vec![("Finite".to_owned(), v.to_json())]),
            ResettingBound::Unbounded => Json::Str("Unbounded".to_owned()),
        }
    }
}

impl rbs_json::FromJson for ResettingBound {
    fn from_json(value: &Json) -> Result<ResettingBound, JsonError> {
        bound_from_json(value, "ResettingBound")
            .map(|v| v.map_or(ResettingBound::Unbounded, ResettingBound::Finite))
    }
}

/// Shared decoder for the two bound enums: `"Unbounded"` or
/// `{"Finite": rational}`.
fn bound_from_json(value: &Json, what: &str) -> Result<Option<Rational>, JsonError> {
    match value {
        Json::Str(s) if s == "Unbounded" => Ok(None),
        Json::Object(fields) if fields.len() == 1 && fields[0].0 == "Finite" => {
            rbs_json::FromJson::from_json(&fields[0].1).map(Some)
        }
        _ => Err(JsonError::new(format!(
            "expected \"Unbounded\" or {{\"Finite\": rational}} for {what}"
        ))),
    }
}

/// One task set plus the `(y, s)` campaign grid to sweep it over — the
/// wire form of the service's `sweep` request kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepGrid {
    /// The implicit-deadline specs (Section V's `(x, y)` model).
    pub specs: Vec<ImplicitTaskSpec>,
    /// The deadline-shortening factor; `None` derives the minimal
    /// density-feasible `x` ([`minimal_feasible_x`]) per set.
    pub x: Option<Rational>,
    /// Degradation factors to sweep, each `≥ 1`.
    pub ys: Vec<Rational>,
    /// Speeds to probe `Δ_R` at, per `y`.
    pub speeds: Vec<Rational>,
}

impl rbs_json::FromJson for SweepGrid {
    fn from_json(value: &Json) -> Result<SweepGrid, JsonError> {
        let specs = value
            .get("specs")
            .ok_or_else(|| JsonError::new("sweep grid requires \"specs\""))
            .and_then(rbs_json::FromJson::from_json)?;
        let x: Option<Rational> = match value.get("x") {
            Some(v) => rbs_json::FromJson::from_json(v)?,
            None => None,
        };
        if let Some(x) = x {
            if !x.is_positive() || x > Rational::ONE {
                return Err(JsonError::new("sweep grid \"x\" must lie in (0, 1]"));
            }
        }
        let ys: Vec<Rational> = value
            .get("ys")
            .ok_or_else(|| JsonError::new("sweep grid requires \"ys\""))
            .and_then(rbs_json::FromJson::from_json)?;
        if ys.is_empty() {
            return Err(JsonError::new("sweep grid \"ys\" must be non-empty"));
        }
        if ys.iter().any(|&y| y < Rational::ONE) {
            return Err(JsonError::new("sweep grid \"ys\" must all be at least 1"));
        }
        let speeds: Vec<Rational> = value
            .get("speeds")
            .ok_or_else(|| JsonError::new("sweep grid requires \"speeds\""))
            .and_then(rbs_json::FromJson::from_json)?;
        if speeds.is_empty() {
            return Err(JsonError::new("sweep grid \"speeds\" must be non-empty"));
        }
        Ok(SweepGrid {
            specs,
            x,
            ys,
            speeds,
        })
    }
}

/// One `y` row of a [`SweepReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepPoint {
    /// The degradation factor of this row.
    pub y: Rational,
    /// Theorem 2's minimum speedup at this `y`.
    pub s_min: SpeedupBound,
    /// `(s, Δ_R)` for every requested speed, in request order.
    pub resetting: Vec<(Rational, ResettingBound)>,
}

/// The full campaign grid for one task set, bit-identical to running
/// [`analyze`]-style queries at each `(y, s)` point independently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepReport {
    /// The deadline-shortening factor actually used (given or derived).
    pub x: Rational,
    /// One row per requested `y`, in request order.
    pub points: Vec<SweepPoint>,
}

impl ToJson for SweepPoint {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("y".to_owned(), self.y.to_json()),
            ("s_min".to_owned(), self.s_min.to_json()),
            (
                "resetting".to_owned(),
                Json::Array(
                    self.resetting
                        .iter()
                        .map(|(s, dr)| Json::Array(vec![s.to_json(), dr.to_json()]))
                        .collect(),
                ),
            ),
        ])
    }
}

impl ToJson for SweepReport {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("x".to_owned(), self.x.to_json()),
            (
                "points".to_owned(),
                Json::Array(self.points.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

/// Sweeps one task set over a `(y, s)` grid through a single
/// [`SweepAnalysis`], so HI-task demand components are built once and
/// only the LO-task components are re-derived per `y`.
///
/// Returns `Ok(None)` when `grid.x` is absent and no density-feasible
/// `x` exists for the specs (the set is infeasible at every grid point).
///
/// # Errors
///
/// Propagates exact-analysis errors (breakpoint budgets, deadlines).
///
/// # Panics
///
/// Panics if a hand-constructed grid violates the ranges
/// [`SweepGrid`]'s `FromJson` enforces (`x` in `(0, 1]`, every `y ≥ 1`).
pub fn run_sweep(
    grid: &SweepGrid,
    limits: &AnalysisLimits,
) -> Result<Option<(SweepReport, WalkCounts)>, AnalysisError> {
    run_sweep_in(grid, limits, &mut AnalysisScratch::new())
}

/// [`run_sweep`] with the component buffers leased from `scratch` — the
/// allocation-recycling form for service workers. The buffers are
/// returned to `scratch` whether or not the sweep succeeds.
///
/// # Errors
///
/// As for [`run_sweep`].
///
/// # Panics
///
/// As for [`run_sweep`].
pub fn run_sweep_in(
    grid: &SweepGrid,
    limits: &AnalysisLimits,
    scratch: &mut AnalysisScratch,
) -> Result<Option<(SweepReport, WalkCounts)>, AnalysisError> {
    let Some(x) = grid.x.or_else(|| minimal_feasible_x(&grid.specs)) else {
        return Ok(None);
    };
    let (arena, (result, counts)) = with_arena(std::mem::take(&mut scratch.arena), || {
        let mut sweep = SweepAnalysis::new_in(
            &grid.specs,
            x,
            &grid.ys,
            SweepMode::Degraded,
            limits,
            scratch,
        );
        let result = sweep_points(&mut sweep, &grid.ys, &grid.speeds);
        let counts = sweep.walk_counts();
        sweep.recycle_into(scratch);
        (result, counts)
    });
    scratch.arena = arena;
    Ok(Some((SweepReport { x, points: result? }, counts)))
}

fn sweep_points(
    sweep: &mut SweepAnalysis,
    ys: &[Rational],
    speeds: &[Rational],
) -> Result<Vec<SweepPoint>, AnalysisError> {
    let mut points = Vec::with_capacity(ys.len());
    for &y in ys {
        sweep.rescale_lo(y);
        let s_min = sweep.minimum_speedup()?.bound();
        let mut resetting = Vec::with_capacity(speeds.len());
        for &s in speeds {
            resetting.push((s, sweep.resetting_time(s)?.bound()));
        }
        points.push(SweepPoint {
            y,
            s_min,
            resetting,
        });
    }
    Ok(points)
}

/// How a `delta` request names its base set: shipped inline as a bare
/// task array, or by the canonical-form key of a set the service has
/// already analyzed (the hex string its report cache uses).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaBase {
    /// The base set shipped inline.
    Inline(TaskSet),
    /// A canonical-form cache key of a previously analyzed set.
    Key(String),
}

/// One base set plus the admit/evict/replace ops to apply against it —
/// the wire form of the service's `delta` request kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaRequest {
    /// The base set (inline or by cache key).
    pub base: DeltaBase,
    /// The ops, applied in order.
    pub ops: Vec<DeltaOp>,
}

impl rbs_json::FromJson for DeltaRequest {
    fn from_json(value: &Json) -> Result<DeltaRequest, JsonError> {
        let base = match value.get("base") {
            Some(Json::Str(key)) => DeltaBase::Key(key.clone()),
            Some(inline @ Json::Array(_)) => {
                DeltaBase::Inline(rbs_json::FromJson::from_json(inline)?)
            }
            Some(_) => {
                return Err(JsonError::new(
                    "delta \"base\" must be a task array or a cache-key string",
                ))
            }
            None => return Err(JsonError::new("delta requires \"base\"")),
        };
        let Some(Json::Array(raw_ops)) = value.get("ops") else {
            return Err(JsonError::new("delta requires an \"ops\" array"));
        };
        if raw_ops.is_empty() {
            return Err(JsonError::new("delta \"ops\" must be non-empty"));
        }
        let mut ops = Vec::with_capacity(raw_ops.len());
        for raw in raw_ops {
            ops.push(delta_op_from_json(raw)?);
        }
        Ok(DeltaRequest { base, ops })
    }
}

/// Decodes one wire op: `{"admit": task}`, `{"evict": "name"}`, or
/// `{"replace": {"id": "...", "task": {...}}}`.
fn delta_op_from_json(value: &Json) -> Result<DeltaOp, JsonError> {
    let Json::Object(fields) = value else {
        return Err(JsonError::new("each delta op must be a one-key object"));
    };
    let [(kind, body)] = fields.as_slice() else {
        return Err(JsonError::new("each delta op must be a one-key object"));
    };
    match kind.as_str() {
        "admit" => rbs_json::FromJson::from_json(body).map(DeltaOp::Admit),
        "evict" => match body {
            Json::Str(id) => Ok(DeltaOp::Evict(id.clone())),
            _ => Err(JsonError::new("\"evict\" takes a task name string")),
        },
        "replace" => {
            let Some(Json::Str(id)) = body.get("id") else {
                return Err(JsonError::new("\"replace\" requires an \"id\" string"));
            };
            let task = body
                .get("task")
                .ok_or_else(|| JsonError::new("\"replace\" requires a \"task\""))
                .and_then(rbs_json::FromJson::from_json)?;
            Ok(DeltaOp::Replace {
                id: id.clone(),
                task,
            })
        }
        other => Err(JsonError::new(format!(
            "unknown delta op \"{other}\" (expected admit/evict/replace)"
        ))),
    }
}

/// Why a [`run_delta`] call failed: an op in the sequence could not be
/// applied, or analyzing the resulting set hit a limit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaRunError {
    /// An op named an unknown task or would duplicate a name.
    Delta(DeltaError),
    /// The analysis of the resulting set failed.
    Analysis(AnalysisError),
}

impl fmt::Display for DeltaRunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaRunError::Delta(e) => write!(f, "delta op rejected: {e}"),
            DeltaRunError::Analysis(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DeltaRunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DeltaRunError::Delta(e) => Some(e),
            DeltaRunError::Analysis(e) => Some(e),
        }
    }
}

impl From<DeltaError> for DeltaRunError {
    fn from(e: DeltaError) -> DeltaRunError {
        DeltaRunError::Delta(e)
    }
}

impl From<AnalysisError> for DeltaRunError {
    fn from(e: AnalysisError) -> DeltaRunError {
        DeltaRunError::Analysis(e)
    }
}

/// Applies `ops` to `base` through a [`DeltaAnalysis`] and produces the
/// [`AnalyzeReport`] of the resulting set — byte-for-byte the report
/// [`analyze`] would emit for that set, so service caches keyed on the
/// resulting set's canonical form can share entries between the two
/// request kinds. The returned [`WalkCounts`] additionally carry the
/// splice accounting (`patched`, reused/rebuilt components).
///
/// # Errors
///
/// [`DeltaRunError::Delta`] when an op is rejected (the remaining ops
/// are not attempted); [`DeltaRunError::Analysis`] as for [`analyze`].
pub fn run_delta(
    base: TaskSet,
    ops: &[DeltaOp],
    limits: &AnalysisLimits,
) -> Result<(AnalyzeReport, WalkCounts), DeltaRunError> {
    run_delta_in(base, ops, limits, &mut AnalysisScratch::new())
}

/// [`run_delta`] with the walk arena leased from `scratch` — the
/// allocation-recycling form for service workers. (The resident profiles
/// live in the [`DeltaAnalysis`] itself; only the walk arena is shared.)
///
/// # Errors
///
/// As for [`run_delta`].
pub fn run_delta_in(
    base: TaskSet,
    ops: &[DeltaOp],
    limits: &AnalysisLimits,
    scratch: &mut AnalysisScratch,
) -> Result<(AnalyzeReport, WalkCounts), DeltaRunError> {
    let (arena, result) = with_arena(std::mem::take(&mut scratch.arena), || {
        let mut delta = DeltaAnalysis::new(base, limits);
        // One composite splice for the whole request: opposing ops
        // cancel during simulation and the per-splice bookkeeping runs
        // once, while the op-at-a-time sequence it replaces is pinned
        // bit-identical by the delta differential suite.
        delta.apply_batch(ops.to_vec())?;
        let parts = delta.with_analysis(query_parts)?;
        let counts = delta.walk_counts();
        Ok((parts.into_report(delta.into_set()), counts))
    });
    scratch.arena = arena;
    result
}

impl ToJson for AnalyzeReport {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("set".to_owned(), self.set.to_json()),
            ("lo_schedulable".to_owned(), Json::Bool(self.lo_schedulable)),
            ("lo_requirement".to_owned(), self.lo_requirement.to_json()),
            ("s_min".to_owned(), self.s_min.to_json()),
            ("witness".to_owned(), self.witness.to_json()),
            (
                "resetting_rows".to_owned(),
                Json::Array(
                    self.resetting_rows
                        .iter()
                        .map(|(s, dr)| Json::Array(vec![s.to_json(), dr.to_json()]))
                        .collect(),
                ),
            ),
            ("sized_speed".to_owned(), self.sized_speed.to_json()),
        ])
    }
}

impl fmt::Display for AnalyzeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.set)?;
        writeln!(
            f,
            "LO mode at nominal speed: {} (requires speed {:.3})",
            if self.lo_schedulable {
                "schedulable"
            } else {
                "NOT schedulable"
            },
            self.lo_requirement.to_f64()
        )?;
        match self.s_min {
            SpeedupBound::Finite(v) => {
                writeln!(
                    f,
                    "minimum HI-mode speedup s_min = {v} (~{:.4})",
                    v.to_f64()
                )?;
                if let Some(w) = self.witness {
                    writeln!(f, "  critical interval after the switch: Delta = {w}")?;
                }
            }
            SpeedupBound::Unbounded => {
                writeln!(
                    f,
                    "minimum HI-mode speedup: UNBOUNDED — shorten LO-mode deadlines of HI tasks"
                )?;
            }
        }
        writeln!(f, "service resetting times:")?;
        for (s, dr) in &self.resetting_rows {
            writeln!(f, "  s = {:<8} Delta_R = {}", s.to_string(), dr)?;
        }
        if let Some(s) = self.sized_speed {
            writeln!(
                f,
                "suggested platform speed (reset within 10 max periods, <= 4x): {:.3}",
                s.to_f64()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbs_json::FromJson;
    use rbs_model::{Criticality, Task};

    fn table1() -> TaskSet {
        TaskSet::new(vec![
            Task::builder("tau1", Criticality::Hi)
                .period(Rational::integer(5))
                .deadline_lo(Rational::integer(2))
                .deadline_hi(Rational::integer(5))
                .wcet_lo(Rational::integer(1))
                .wcet_hi(Rational::integer(2))
                .build()
                .expect("valid"),
            Task::builder("tau2", Criticality::Lo)
                .period(Rational::integer(10))
                .deadline(Rational::integer(10))
                .wcet(Rational::integer(3))
                .build()
                .expect("valid"),
        ])
    }

    #[test]
    fn report_renders_stable_json() {
        let report = analyze(table1(), &AnalysisLimits::default()).expect("completes");
        let json = rbs_json::to_string(&report);
        assert!(json.starts_with("{\"set\":["), "{json}");
        assert!(
            json.contains("\"s_min\":{\"Finite\":{\"num\":4,\"den\":3}}"),
            "{json}"
        );
        assert!(json.contains("\"lo_schedulable\":true"), "{json}");
        // Rendering is a pure function of the report.
        let again = analyze(table1(), &AnalysisLimits::default()).expect("completes");
        assert_eq!(json, rbs_json::to_string(&again));
    }

    #[test]
    fn scratch_analysis_matches_the_allocating_path() {
        let limits = AnalysisLimits::default();
        let mut scratch = AnalysisScratch::new();
        for _ in 0..3 {
            let (report, meta) = analyze_with_meta(table1(), &limits).expect("completes");
            let (report_in, meta_in) =
                analyze_with_meta_in(table1(), &limits, &mut scratch).expect("completes");
            assert_eq!(
                rbs_json::to_string(&report),
                rbs_json::to_string(&report_in)
            );
            assert_eq!(meta, meta_in);
        }
    }

    #[test]
    fn an_expired_deadline_aborts_analysis_without_changing_results() {
        let expired = AnalysisLimits::default().with_deadline(std::time::Instant::now());
        assert!(matches!(
            analyze(table1(), &expired),
            Err(AnalysisError::DeadlineExceeded { .. })
        ));
        // A generous deadline yields the byte-identical report.
        let far = std::time::Instant::now() + std::time::Duration::from_secs(3600);
        let timed = analyze(table1(), &AnalysisLimits::default().with_deadline(far))
            .expect("completes well before the deadline");
        let plain = analyze(table1(), &AnalysisLimits::default()).expect("completes");
        assert_eq!(rbs_json::to_string(&timed), rbs_json::to_string(&plain));
    }

    #[test]
    fn bounds_round_trip_through_json() {
        for bound in [
            SpeedupBound::Finite(Rational::new(4, 3)),
            SpeedupBound::Unbounded,
        ] {
            let json = rbs_json::to_string(&bound);
            let back =
                SpeedupBound::from_json(&rbs_json::parse(&json).expect("parses")).expect("decodes");
            assert_eq!(back, bound);
        }
        for bound in [
            ResettingBound::Finite(Rational::new(9, 2)),
            ResettingBound::Unbounded,
        ] {
            let json = rbs_json::to_string(&bound);
            let back = ResettingBound::from_json(&rbs_json::parse(&json).expect("parses"))
                .expect("decodes");
            assert_eq!(back, bound);
        }
    }
}
