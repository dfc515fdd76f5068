//! A shared per-task-set analysis context.
//!
//! Every analysis in this crate starts by building one of three demand
//! profiles from the task set — `DBF_LO` ([`crate::dbf::lo_profile`]),
//! `DBF_HI` ([`crate::dbf::hi_profile`]) or `ADB_HI`
//! ([`crate::adb::hi_arrival_profile`]) — and the profile construction
//! (including the integer-timebase rescaling of the `scaled` module) is
//! the part worth sharing: a report runs half a dozen queries against
//! the same three curves. [`Analysis`] builds each profile lazily, once,
//! and threads it through every query. Resetting-time queries
//! additionally share a [`ResetFrontier`] — the full staircase
//! `s ↦ Δ_R(s)` recorded by one walk — so repeated speed probes (and the
//! one-pass [`Analysis::minimal_speed_within_budget`], which replaced an
//! `O(log 1/tol)`-walk bisection) answer by threshold lookup instead of
//! re-walking breakpoints.
//!
//! The context also counts which walk implementation served each query,
//! how many walks pruned early at the utilization-envelope horizon, and
//! how many were avoided outright by frontier reuse ([`WalkCounts`]) so
//! services can report fast-path coverage without affecting any
//! analytical result.
//!
//! Campaign runners that analyze many sets back to back can recycle the
//! profile allocations between contexts through [`AnalysisScratch`].
//!
//! # Examples
//!
//! ```
//! use rbs_core::{Analysis, AnalysisLimits};
//! use rbs_model::{Criticality, Task, TaskSet};
//! use rbs_timebase::Rational;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let set = TaskSet::new(vec![Task::builder("tau1", Criticality::Hi)
//!     .period(Rational::integer(5))
//!     .deadline_lo(Rational::integer(2))
//!     .deadline_hi(Rational::integer(5))
//!     .wcet_lo(Rational::integer(1))
//!     .wcet_hi(Rational::integer(2))
//!     .build()?]);
//! let analysis = Analysis::new(&set, &AnalysisLimits::default());
//! let s_min = analysis.minimum_speedup()?;
//! let reset = analysis.resetting_time(Rational::TWO)?; // reuses ADB_HI
//! assert!(analysis.walk_counts().total() >= 2);
//! # Ok(())
//! # }
//! ```

use std::cell::{Cell, OnceCell, RefCell};

use rbs_model::TaskSet;
use rbs_timebase::Rational;

use crate::adb::{arrival_components_into, hi_arrival_profile};
use crate::dbf::{hi_components_into, hi_profile, lo_components_into, lo_profile};
use crate::demand::{
    fits_lockstep, sup_ratio_lockstep, DemandProfile, PeriodicDemand, ResetFrontier, SupRatio,
    WalkKind, WalkTrace,
};
use crate::kernel::WalkArena;
use crate::qpa::qpa_decision;
use crate::resetting::{ResettingAnalysis, ResettingBound};
use crate::speedup::SpeedupAnalysis;
use crate::{AnalysisError, AnalysisLimits};

/// How many queries each walk implementation served (see
/// [`crate::demand::WalkKind`]), plus the envelope-pruning,
/// component-reuse and frontier-reuse tallies.
///
/// This is the one counter type from the walk to the wire: [`Analysis`],
/// [`crate::sweep::SweepAnalysis`] and [`crate::delta::DeltaAnalysis`]
/// each keep one and [`WalkCounts::record`] every walk they run; callers
/// that combine contexts (the partitioner's cores, a service batch) sum
/// them with [`WalkCounts::absorb`]. The counters never feed back into
/// any analytical result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalkCounts {
    /// Queries served by the common-timebase `i128` fast path.
    pub integer: u64,
    /// Queries that fell back to the exact rational walk.
    pub exact: u64,
    /// Walks (of either kind) that terminated early at a
    /// utilization-envelope horizon: the ceiling could no longer beat
    /// the running best (sup-ratio, fits), or the floor proved a
    /// below-rate first fit `Never` before the hyperperiod did.
    /// Always `≤ integer + exact`.
    pub pruned: u64,
    /// Resetting-time queries answered from a cached [`ResetFrontier`]
    /// without walking any breakpoints. Not included in [`Self::total`].
    pub avoided: u64,
    /// Demand components kept in place instead of being rebuilt: the
    /// sweep engine's unmoved components at each grid point, and the
    /// delta engine's untouched components at each splice (so delta and
    /// partition requests count them too). Always `0` for a plain
    /// [`Analysis`], which builds each profile exactly once.
    pub reused_components: u64,
    /// Demand components constructed (or re-derived after a patch miss),
    /// including the initial profile builds.
    pub rebuilt_components: u64,
    /// Walks completed by the chunked lockstep driver rather than a
    /// dedicated one-shot walk, whether interleaved with other walks for
    /// cache locality or alone in a batch of one ([`Analysis`]'s LO fits
    /// prime). Every lockstep walk is also counted in [`Self::integer`],
    /// so this is not part of [`Self::total`].
    pub lockstep: u64,
    /// Profile updates applied by an in-place patch of the integer fast
    /// path (no full rebuild): the sweep engine's `rescale_lo` hits and
    /// the delta engine's ([`crate::delta::DeltaAnalysis`]) in-place
    /// admit/evict/replace splices. Always `0` for a plain [`Analysis`].
    pub patched: u64,
    /// Deltas after which the resetting-time staircase survived (whole
    /// or truncated to its unchanged prefix) instead of being dropped —
    /// the delta engine's frontier repair. Always `0` for a plain
    /// [`Analysis`], which never mutates its set.
    pub repaired: u64,
    /// Frontier records kept across deltas by repairs; each one is a
    /// staircase segment the next resetting-time query can serve without
    /// re-walking.
    pub kept: u64,
    /// Frontier records invalidated by deltas (whole-staircase drops
    /// included); the walk that rebuilds them runs on the next uncovered
    /// resetting-time query.
    pub rewalked: u64,
}

impl WalkCounts {
    /// Total breakpoint walks run (frontier-served queries excluded).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.integer + self.exact
    }

    /// Tallies one finished breakpoint walk: its implementation, and
    /// whether the envelope bound pruned it or a lockstep batch drove it.
    pub fn record(&mut self, trace: WalkTrace) {
        match trace.kind {
            WalkKind::Integer => self.integer += 1,
            WalkKind::Rational => self.exact += 1,
        }
        self.pruned += u64::from(trace.pruned);
        self.lockstep += u64::from(trace.lockstep);
    }

    /// Adds every counter of `other` into `self` — the one accumulator
    /// for folding per-session, per-core or per-request counts together.
    pub fn absorb(&mut self, other: WalkCounts) {
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
        } = other;
        self.integer += integer;
        self.exact += exact;
        self.pruned += pruned;
        self.avoided += avoided;
        self.reused_components += reused_components;
        self.rebuilt_components += rebuilt_components;
        self.lockstep += lockstep;
        self.patched += patched;
        self.repaired += repaired;
        self.kept += kept;
        self.rewalked += rewalked;
    }
}

/// A per-task-set analysis context: lazily-built, shared demand profiles
/// plus the full set of exact analyses as methods.
///
/// All methods return bit-identical results to the free functions in
/// [`crate::speedup`], [`crate::resetting`], [`crate::lo_mode`],
/// [`crate::qpa`] and [`crate::tuning`]; the context only removes the
/// repeated profile construction.
#[derive(Debug)]
pub struct Analysis<'a> {
    set: &'a TaskSet,
    limits: AnalysisLimits,
    lo: OnceCell<DemandProfile>,
    hi: OnceCell<DemandProfile>,
    arrival: OnceCell<DemandProfile>,
    counts: Cell<WalkCounts>,
    /// The deepest `Δ_R` staircase built so far; covers every speed at or
    /// above the speed it was built for.
    frontier: RefCell<Option<ResetFrontier>>,
    /// Results staged by [`Analysis::prime_lockstep`], consumed by the
    /// first call to the matching query so its answer (and error
    /// propagation) stays bit-identical to the sequential path.
    primed_lo_fits: RefCell<Option<Result<(bool, WalkTrace), AnalysisError>>>,
    primed_lo_sup: RefCell<Option<Result<(SupRatio, WalkTrace), AnalysisError>>>,
    primed_hi_sup: RefCell<Option<Result<(SupRatio, WalkTrace), AnalysisError>>>,
}

impl<'a> Analysis<'a> {
    /// Creates a context for `set`. Profiles are built on first use.
    #[must_use]
    pub fn new(set: &'a TaskSet, limits: &AnalysisLimits) -> Analysis<'a> {
        Analysis {
            set,
            limits: *limits,
            lo: OnceCell::new(),
            hi: OnceCell::new(),
            arrival: OnceCell::new(),
            counts: Cell::new(WalkCounts::default()),
            frontier: RefCell::new(None),
            primed_lo_fits: RefCell::new(None),
            primed_lo_sup: RefCell::new(None),
            primed_hi_sup: RefCell::new(None),
        }
    }

    /// Creates a context whose three profiles are built eagerly into
    /// component buffers leased from `scratch`, so repeated analyses
    /// allocate nothing per set. Pair with [`Analysis::recycle_into`] to
    /// return the buffers when done.
    #[must_use]
    pub fn new_with_scratch(
        set: &'a TaskSet,
        limits: &AnalysisLimits,
        scratch: &mut AnalysisScratch,
    ) -> Analysis<'a> {
        let ctx = Analysis::new(set, limits);
        let mut components = scratch.lease();
        lo_components_into(set, &mut components);
        ctx.note_built(components.len());
        let _ = ctx.lo.set(DemandProfile::new(components));
        let mut components = scratch.lease();
        hi_components_into(set, &mut components);
        ctx.note_built(components.len());
        let _ = ctx.hi.set(DemandProfile::new(components));
        let mut components = scratch.lease();
        arrival_components_into(set, &mut components);
        ctx.note_built(components.len());
        let _ = ctx.arrival.set(DemandProfile::new(components));
        ctx
    }

    /// Applies `update` to the counters (the cell holds them by value).
    fn tally(&self, update: impl FnOnce(&mut WalkCounts)) {
        let mut counts = self.counts.get();
        update(&mut counts);
        self.counts.set(counts);
    }

    fn note_built(&self, components: usize) {
        self.tally(|c| c.rebuilt_components += components as u64);
    }

    /// Creates a context around profiles built elsewhere — the delta
    /// engine's ([`crate::delta::DeltaAnalysis`]) entry point, which
    /// maintains the three profiles across set mutations and lends them
    /// to a context per query session. No components are counted as
    /// built here; the lender does its own reuse accounting.
    ///
    /// `frontier` seeds the resetting-time staircase cache (`None` for
    /// the fresh-context behavior); [`Analysis::release`] hands back
    /// whatever staircase the session deepened it to.
    pub(crate) fn adopt(
        set: &'a TaskSet,
        limits: &AnalysisLimits,
        lo: DemandProfile,
        hi: DemandProfile,
        arrival: DemandProfile,
        frontier: Option<ResetFrontier>,
    ) -> Analysis<'a> {
        let ctx = Analysis::new(set, limits);
        let _ = ctx.lo.set(lo);
        let _ = ctx.hi.set(hi);
        let _ = ctx.arrival.set(arrival);
        *ctx.frontier.borrow_mut() = frontier;
        ctx
    }

    /// Consumes an [`Analysis::adopt`]ed context, handing the profiles
    /// (and the possibly-deepened frontier) back to the lender along
    /// with the session's walk counts.
    ///
    /// # Panics
    ///
    /// Panics when the context was not created via [`Analysis::adopt`]
    /// (the profiles must all be present).
    pub(crate) fn release(
        self,
    ) -> (
        DemandProfile,
        DemandProfile,
        DemandProfile,
        Option<ResetFrontier>,
        WalkCounts,
    ) {
        let counts = self.walk_counts();
        let lo = self.lo.into_inner().expect("adopted context has profiles");
        let hi = self.hi.into_inner().expect("adopted context has profiles");
        let arrival = self
            .arrival
            .into_inner()
            .expect("adopted context has profiles");
        let frontier = self.frontier.into_inner();
        (lo, hi, arrival, frontier, counts)
    }

    /// Consumes the context, returning its profile buffers to `scratch`
    /// for the next [`Analysis::new_with_scratch`] call.
    pub fn recycle_into(self, scratch: &mut AnalysisScratch) {
        for cell in [self.lo, self.hi, self.arrival] {
            if let Some(profile) = cell.into_inner() {
                scratch.reclaim(profile.into_components());
            }
        }
    }

    /// The analyzed task set.
    #[must_use]
    pub fn set(&self) -> &TaskSet {
        self.set
    }

    /// The breakpoint budget every query runs under.
    #[must_use]
    pub fn limits(&self) -> &AnalysisLimits {
        &self.limits
    }

    /// The `DBF_LO` profile (eq. (4)), built on first use.
    #[must_use]
    pub fn lo_profile(&self) -> &DemandProfile {
        self.lo.get_or_init(|| {
            let profile = lo_profile(self.set);
            self.note_built(profile.components().len());
            profile
        })
    }

    /// The `DBF_HI` profile (Lemma 1), built on first use.
    #[must_use]
    pub fn hi_profile(&self) -> &DemandProfile {
        self.hi.get_or_init(|| {
            let profile = hi_profile(self.set);
            self.note_built(profile.components().len());
            profile
        })
    }

    /// The `ADB_HI` profile (Theorem 4), built on first use.
    #[must_use]
    pub fn arrival_profile(&self) -> &DemandProfile {
        self.arrival.get_or_init(|| {
            let profile = hi_arrival_profile(self.set);
            self.note_built(profile.components().len());
            profile
        })
    }

    /// How many breakpoint walks ran so far, by implementation, plus how
    /// many pruned early and how many queries skipped walking entirely.
    /// The counts are deterministic for a given query sequence.
    #[must_use]
    pub fn walk_counts(&self) -> WalkCounts {
        self.counts.get()
    }

    /// Runs the three profile-supremum walks a full report needs — LO
    /// fits at nominal speed, the LO demand-ratio supremum and the HI
    /// demand-ratio supremum — over the integer fast path through the
    /// lockstep halves of [`crate::demand::fits_many`] and
    /// [`crate::demand::sup_ratio_many`] (the two suprema interleaved),
    /// staging each result for the query that consumes it
    /// ([`Analysis::is_lo_schedulable`],
    /// [`Analysis::lo_speed_requirement`],
    /// [`Analysis::minimum_speedup`]).
    ///
    /// Profiles without a fast path (or whose fast path overflows
    /// mid-walk) are simply not staged; the consuming query then runs
    /// its usual sequential walk with the exact-rational fallback.
    /// Results are bit-identical either way.
    pub fn prime_lockstep(&self) {
        let (lo, hi, limits) = (self.lo_profile(), self.hi_profile(), &self.limits);
        let mut fits = fits_lockstep(&[(lo, Rational::ONE, limits)]).into_iter();
        let mut sups = sup_ratio_lockstep(&[(lo, limits), (hi, limits)]).into_iter();
        *self.primed_lo_fits.borrow_mut() = fits.next().flatten();
        *self.primed_lo_sup.borrow_mut() = sups.next().flatten();
        *self.primed_hi_sup.borrow_mut() = sups.next().flatten();
    }

    /// Theorem 2's minimum HI-mode speedup (see
    /// [`crate::speedup::minimum_speedup`]).
    ///
    /// # Errors
    ///
    /// As for [`crate::speedup::minimum_speedup`].
    pub fn minimum_speedup(&self) -> Result<SpeedupAnalysis, AnalysisError> {
        let (sup, trace) = match self.primed_hi_sup.borrow_mut().take() {
            Some(staged) => staged?,
            None => self.hi_profile().sup_ratio_traced(&self.limits)?,
        };
        self.tally(|c| c.record(trace));
        Ok(SpeedupAnalysis::from_sup_ratio(sup))
    }

    /// Whether HI mode is EDF-schedulable at `speed` (see
    /// [`crate::speedup::is_hi_schedulable`]).
    ///
    /// # Errors
    ///
    /// As for [`crate::speedup::is_hi_schedulable`].
    pub fn is_hi_schedulable(&self, speed: Rational) -> Result<bool, AnalysisError> {
        let (fits, trace) = self.hi_profile().fits_traced(speed, &self.limits)?;
        self.tally(|c| c.record(trace));
        Ok(fits)
    }

    /// Corollary 5's service resetting time at `speed` (see
    /// [`crate::resetting::resetting_time`]), bit-identical to a fresh
    /// first-fit walk.
    ///
    /// The first query above the arrival rate builds the full reset
    /// frontier `s ↦ Δ_R(s)` in one walk and caches it; later queries it
    /// covers are answered by threshold lookup with no walk at all
    /// (counted in [`WalkCounts::avoided`]). Speeds at or below the
    /// arrival rate take a plain first-fit walk instead: their fit can be
    /// `Never`, which the frontier does not encode. Strictly below the
    /// rate that walk ends at the envelope-floor horizon rather than a
    /// full hyperperiod (see [`DemandProfile::first_fit_traced`]), and
    /// counts in [`WalkCounts::pruned`] when the cut skipped work.
    ///
    /// # Errors
    ///
    /// As for [`crate::resetting::resetting_time`].
    pub fn resetting_time(&self, speed: Rational) -> Result<ResettingAnalysis, AnalysisError> {
        let profile = self.arrival_profile();
        if speed > profile.rate() {
            if let Some(fit) = self
                .frontier
                .borrow()
                .as_ref()
                .and_then(|frontier| frontier.lookup(speed))
            {
                self.tally(|c| c.avoided += 1);
                return Ok(ResettingAnalysis::from_first_fit(fit, speed));
            }
            let (frontier, kind) = profile.reset_frontier(speed, &self.limits)?;
            self.tally(|c| c.record(WalkTrace::solo(kind, false)));
            let fit = frontier
                .lookup(speed)
                .expect("a frontier built for `speed` covers it");
            *self.frontier.borrow_mut() = Some(frontier);
            return Ok(ResettingAnalysis::from_first_fit(fit, speed));
        }
        let (fit, trace) = self
            .arrival_profile()
            .first_fit_traced(speed, &self.limits)?;
        self.tally(|c| c.record(trace));
        Ok(ResettingAnalysis::from_first_fit(fit, speed))
    }

    /// The smallest speed at which LO mode is EDF-schedulable (see
    /// [`crate::lo_mode::lo_speed_requirement`]).
    ///
    /// # Errors
    ///
    /// As for [`crate::lo_mode::lo_speed_requirement`].
    pub fn lo_speed_requirement(&self) -> Result<Rational, AnalysisError> {
        let (sup, trace) = match self.primed_lo_sup.borrow_mut().take() {
            Some(staged) => staged?,
            None => self.lo_profile().sup_ratio_traced(&self.limits)?,
        };
        self.tally(|c| c.record(trace));
        match sup {
            SupRatio::Finite { value, .. } => Ok(value),
            SupRatio::Unbounded => unreachable!("DBF_LO(0) = 0 for validated tasks"),
        }
    }

    /// Whether LO mode meets all deadlines at nominal speed (see
    /// [`crate::lo_mode::is_lo_schedulable`]).
    ///
    /// # Errors
    ///
    /// As for [`crate::lo_mode::is_lo_schedulable`].
    pub fn is_lo_schedulable(&self) -> Result<bool, AnalysisError> {
        let (fits, trace) = match self.primed_lo_fits.borrow_mut().take() {
            Some(staged) => staged?,
            None => self.lo_profile().fits_traced(Rational::ONE, &self.limits)?,
        };
        self.tally(|c| c.record(trace));
        Ok(fits)
    }

    /// The QPA cross-check of LO-mode schedulability at `speed` (see
    /// [`crate::qpa::is_lo_schedulable_qpa`]), with demand evaluated on
    /// the shared `DBF_LO` profile instead of per-task formulas.
    ///
    /// # Errors
    ///
    /// As for [`crate::qpa::is_lo_schedulable_qpa`].
    pub fn is_lo_schedulable_qpa(&self, speed: Rational) -> Result<bool, AnalysisError> {
        let profile = self.lo_profile();
        qpa_decision(self.set, &|t| profile.eval(t), speed, &self.limits)
    }

    /// The smallest speed within `tolerance` meeting both HI-mode
    /// schedulability and the resetting-time `budget` (see
    /// [`crate::tuning::minimal_speed_within_budget`]).
    ///
    /// One pass, no bisection: the HI-schedulability floor is
    /// `minimum_speedup` (a speed fits HI mode iff it is at least the
    /// demand-ratio supremum), and the least speed draining arrived
    /// demand within `budget` is the infimum of `ADB(Δ)/Δ` over
    /// `(0, budget]`, scanned directly off the profile. The larger of
    /// the two is probed with a single resetting-time query; when the
    /// infimum is an open boundary no speed attains, the probe misses
    /// and the answer steps up by `tolerance` — the same resolution a
    /// bisection would return.
    ///
    /// # Errors
    ///
    /// Propagates exact-analysis errors.
    ///
    /// # Panics
    ///
    /// Panics unless `tolerance > 0`, `budget > 0` and `max_speed > 0`.
    pub fn minimal_speed_within_budget(
        &self,
        budget: Rational,
        max_speed: Rational,
        tolerance: Rational,
    ) -> Result<Option<Rational>, AnalysisError> {
        assert!(tolerance.is_positive(), "tolerance must be positive");
        assert!(budget.is_positive(), "budget must be positive");
        assert!(max_speed.is_positive(), "max_speed must be positive");
        let Some(floor) = self.minimum_speedup()?.bound().as_finite() else {
            return Ok(None);
        };
        if floor > max_speed {
            return Ok(None);
        }
        let (needed, kind) =
            self.arrival_profile()
                .min_ratio_within(budget, floor, tolerance, &self.limits)?;
        self.tally(|c| c.record(WalkTrace::solo(kind, false)));
        let candidate = floor.max(needed);
        if candidate > max_speed {
            // `needed` can overshoot the true infimum by up to
            // `tolerance` (the scan halts once it reaches
            // `rate + tolerance`), so probe `max_speed` itself before
            // concluding infeasibility. When the probe meets, every
            // feasible speed exceeds `max_speed − tolerance`, making
            // `max_speed` a valid within-tolerance answer.
            let meets_max = match self.resetting_time(max_speed)?.bound() {
                ResettingBound::Finite(dr) => dr <= budget,
                ResettingBound::Unbounded => false,
            };
            return Ok(meets_max.then_some(max_speed));
        }
        if !candidate.is_positive() {
            // No demand at all: any positive speed works; report the
            // smallest one on the caller's tolerance grid.
            return Ok(Some(tolerance.min(max_speed)));
        }
        let meets = match self.resetting_time(candidate)?.bound() {
            ResettingBound::Finite(dr) => dr <= budget,
            ResettingBound::Unbounded => false,
        };
        if meets {
            return Ok(Some(candidate));
        }
        if candidate >= max_speed {
            return Ok(None);
        }
        Ok(Some((candidate + tolerance).min(max_speed)))
    }
}

/// Reusable demand-component buffers for
/// [`Analysis::new_with_scratch`]: campaign runners and service workers
/// hand one scratch per worker through thousands of per-set analyses and
/// profile construction stops allocating after the first few sets.
#[derive(Debug, Default)]
pub struct AnalysisScratch {
    buffers: Vec<Vec<PeriodicDemand>>,
    /// Parked walk-kernel lanes carried across batches: report entry
    /// points attach this arena to the thread for the duration of an
    /// analysis so steady-state walks check lanes out instead of
    /// allocating.
    pub(crate) arena: WalkArena,
}

impl AnalysisScratch {
    /// An empty scratch; buffers accumulate as contexts are recycled.
    #[must_use]
    pub fn new() -> AnalysisScratch {
        AnalysisScratch::default()
    }

    pub(crate) fn lease(&mut self) -> Vec<PeriodicDemand> {
        self.buffers.pop().unwrap_or_default()
    }

    pub(crate) fn reclaim(&mut self, mut buffer: Vec<PeriodicDemand>) {
        buffer.clear();
        self.buffers.push(buffer);
    }

    /// Runs `f` with this scratch's walk-kernel arena attached to the
    /// calling thread, so every walk performed inside checks its lanes
    /// out of the arena instead of allocating, and parks them back on
    /// completion. This is the hook external drivers (the fleet
    /// partitioner's per-worker probe loops, custom campaign runners)
    /// use to get the same steady-state zero-allocation behavior as the
    /// report entry points. If `f` unwinds, the scratch is left with an
    /// empty arena (exactly as the report entry points leave it) and
    /// warms back up on the next use.
    pub fn with_arena<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let (arena, result) = crate::kernel::with_arena(std::mem::take(&mut self.arena), f);
        self.arena = arena;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lo_mode;
    use crate::qpa::is_lo_schedulable_qpa;
    use crate::resetting::resetting_time;
    use crate::speedup::{is_hi_schedulable, minimum_speedup};
    use crate::tuning::minimal_speed_within_budget;
    use rbs_model::{Criticality, Task};

    fn int(v: i128) -> Rational {
        Rational::integer(v)
    }

    fn rat(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    fn table1() -> TaskSet {
        TaskSet::new(vec![
            Task::builder("tau1", Criticality::Hi)
                .period(int(5))
                .deadline_lo(int(2))
                .deadline_hi(int(5))
                .wcet_lo(int(1))
                .wcet_hi(int(2))
                .build()
                .expect("valid"),
            Task::builder("tau2", Criticality::Lo)
                .period(int(10))
                .deadline(int(10))
                .wcet(int(3))
                .build()
                .expect("valid"),
        ])
    }

    #[test]
    fn absorb_sums_every_counter() {
        // Distinct powers of two per field: a dropped or crossed field
        // shows up as a wrong bit.
        let one = WalkCounts {
            integer: 1,
            exact: 2,
            pruned: 4,
            avoided: 8,
            reused_components: 16,
            rebuilt_components: 32,
            lockstep: 64,
            patched: 128,
            repaired: 256,
            kept: 512,
            rewalked: 1024,
        };
        let mut total = WalkCounts::default();
        total.absorb(one);
        assert_eq!(total, one);
        total.absorb(one);
        assert_eq!(
            total,
            WalkCounts {
                integer: 2,
                exact: 4,
                pruned: 8,
                avoided: 16,
                reused_components: 32,
                rebuilt_components: 64,
                lockstep: 128,
                patched: 256,
                repaired: 512,
                kept: 1024,
                rewalked: 2048,
            }
        );
    }

    #[test]
    fn context_results_match_free_functions() {
        let set = table1();
        let limits = AnalysisLimits::default();
        let ctx = Analysis::new(&set, &limits);
        assert_eq!(
            ctx.minimum_speedup().expect("ok"),
            minimum_speedup(&set, &limits).expect("ok")
        );
        assert_eq!(
            ctx.lo_speed_requirement().expect("ok"),
            lo_mode::lo_speed_requirement(&set, &limits).expect("ok")
        );
        assert_eq!(
            ctx.is_lo_schedulable().expect("ok"),
            lo_mode::is_lo_schedulable(&set, &limits).expect("ok")
        );
        for speed in [rat(1, 2), Rational::ONE, rat(4, 3), int(2), int(3)] {
            assert_eq!(
                ctx.is_hi_schedulable(speed).expect("ok"),
                is_hi_schedulable(&set, speed, &limits).expect("ok")
            );
            assert_eq!(
                ctx.resetting_time(speed).expect("ok"),
                resetting_time(&set, speed, &limits).expect("ok")
            );
            assert_eq!(
                ctx.is_lo_schedulable_qpa(speed).expect("ok"),
                is_lo_schedulable_qpa(&set, speed, &limits).expect("ok")
            );
        }
        assert_eq!(
            ctx.minimal_speed_within_budget(int(10), int(4), rat(1, 64))
                .expect("ok"),
            minimal_speed_within_budget(&set, int(10), int(4), rat(1, 64), &limits).expect("ok")
        );
    }

    #[test]
    fn profiles_are_built_once_and_shared() {
        let set = table1();
        let limits = AnalysisLimits::default();
        let ctx = Analysis::new(&set, &limits);
        let first = std::ptr::from_ref(ctx.hi_profile());
        ctx.minimum_speedup().expect("ok");
        ctx.is_hi_schedulable(int(2)).expect("ok");
        assert_eq!(first, std::ptr::from_ref(ctx.hi_profile()));
    }

    #[test]
    fn walk_counts_track_queries_deterministically() {
        let set = table1();
        let limits = AnalysisLimits::default();
        let run = || {
            let ctx = Analysis::new(&set, &limits);
            ctx.minimum_speedup().expect("ok");
            ctx.resetting_time(int(2)).expect("ok");
            ctx.is_lo_schedulable().expect("ok");
            ctx.walk_counts()
        };
        let counts = run();
        assert_eq!(counts.total(), 3);
        // Table I is integer-valued: everything takes the fast path.
        assert_eq!(counts.integer, 3);
        assert_eq!(counts.exact, 0);
        // Both sup-style walks stop at the envelope horizon before the
        // hyperperiod; the frontier build never prunes.
        assert_eq!(counts.pruned, 2);
        assert_eq!(counts.avoided, 0);
        assert_eq!(counts, run());
    }

    #[test]
    fn primed_lockstep_queries_match_sequential() {
        let set = table1();
        let limits = AnalysisLimits::default();
        let plain = Analysis::new(&set, &limits);
        let primed = Analysis::new(&set, &limits);
        primed.prime_lockstep();
        assert_eq!(
            primed.is_lo_schedulable().expect("ok"),
            plain.is_lo_schedulable().expect("ok")
        );
        assert_eq!(
            primed.lo_speed_requirement().expect("ok"),
            plain.lo_speed_requirement().expect("ok")
        );
        assert_eq!(
            primed.minimum_speedup().expect("ok"),
            plain.minimum_speedup().expect("ok")
        );
        let counts = primed.walk_counts();
        let expected = plain.walk_counts();
        // Table I has a fast path, so all three staged walks completed
        // in lockstep — with the same per-walk accounting as the
        // sequential queries.
        assert_eq!(counts.lockstep, 3);
        assert_eq!(expected.lockstep, 0);
        assert_eq!(counts.integer, expected.integer);
        assert_eq!(counts.exact, expected.exact);
        assert_eq!(counts.pruned, expected.pruned);
        // A second round of queries re-walks: the staging is one-shot.
        primed.minimum_speedup().expect("ok");
        assert_eq!(primed.walk_counts().lockstep, 3);
        assert_eq!(primed.walk_counts().integer, counts.integer + 1);
    }

    #[test]
    fn repeated_resetting_queries_reuse_the_frontier() {
        let set = table1();
        let limits = AnalysisLimits::default();
        let ctx = Analysis::new(&set, &limits);
        let first = ctx.resetting_time(int(2)).expect("ok");
        let walks_after_build = ctx.walk_counts().total();
        // Same speed and any higher speed are covered by the cached
        // frontier: no further walks, bit-identical answers.
        for speed in [int(2), rat(5, 2), int(3), int(100)] {
            let via_frontier = ctx.resetting_time(speed).expect("ok");
            assert_eq!(
                via_frontier,
                resetting_time(&set, speed, &limits).expect("ok")
            );
        }
        assert_eq!(ctx.resetting_time(int(2)).expect("ok"), first);
        let counts = ctx.walk_counts();
        assert_eq!(counts.total(), walks_after_build);
        assert_eq!(counts.avoided, 5);
        // A lower (but still above-rate) speed forces a deeper rebuild…
        let lower = rat(3, 4); // ADB rate is 7/10
        assert_eq!(
            ctx.resetting_time(lower).expect("ok"),
            resetting_time(&set, lower, &limits).expect("ok")
        );
        assert_eq!(ctx.walk_counts().total(), walks_after_build + 1);
        // …after which the original speed is again served walk-free.
        assert_eq!(ctx.resetting_time(int(2)).expect("ok"), first);
        assert_eq!(ctx.walk_counts().total(), walks_after_build + 1);
    }

    #[test]
    fn below_rate_speeds_match_the_plain_walk() {
        let set = table1();
        let limits = AnalysisLimits::default();
        let ctx = Analysis::new(&set, &limits);
        // ADB rate is 7/10; at or below it the fit can be Never and the
        // context must agree with the free function exactly.
        for speed in [rat(1, 2), rat(7, 10)] {
            assert_eq!(
                ctx.resetting_time(speed).expect("ok"),
                resetting_time(&set, speed, &limits).expect("ok")
            );
        }
    }

    #[test]
    fn scratch_contexts_match_lazy_contexts() {
        let set = table1();
        let limits = AnalysisLimits::default();
        let mut scratch = AnalysisScratch::new();
        for _ in 0..3 {
            let lazy = Analysis::new(&set, &limits);
            let eager = Analysis::new_with_scratch(&set, &limits, &mut scratch);
            assert_eq!(lazy.lo_profile(), eager.lo_profile());
            assert_eq!(lazy.hi_profile(), eager.hi_profile());
            assert_eq!(lazy.arrival_profile(), eager.arrival_profile());
            assert_eq!(
                lazy.minimum_speedup().expect("ok"),
                eager.minimum_speedup().expect("ok")
            );
            eager.recycle_into(&mut scratch);
        }
        // Three profiles recycled each round; the pool holds them all.
        assert_eq!(scratch.buffers.len(), 3);
    }

    #[test]
    fn empty_set_context_works() {
        let set = TaskSet::empty();
        let limits = AnalysisLimits::default();
        let ctx = Analysis::new(&set, &limits);
        assert!(ctx.is_lo_schedulable().expect("ok"));
        assert!(ctx.is_hi_schedulable(Rational::ONE).expect("ok"));
        assert_eq!(ctx.lo_speed_requirement().expect("ok"), Rational::ZERO);
        // Zero demand: the sized speed degenerates to the tolerance grid.
        assert_eq!(
            ctx.minimal_speed_within_budget(int(10), int(4), rat(1, 64))
                .expect("ok"),
            Some(rat(1, 64))
        );
    }
}
