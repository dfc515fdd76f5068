//! The incremental sweep engine: one analysis context serving a whole
//! `(y, s)` campaign grid.
//!
//! The paper's campaigns (Fig. 6, Fig. 7, the tuning bisections) analyze
//! the *same* implicit-deadline spec list at many degradation factors
//! `y` and speeds `s`. Rebuilding the full [`crate::analysis::Analysis`]
//! context per grid point discards structure the parameterization
//! guarantees:
//!
//! * `DBF_LO` (eq. (4)) never mentions `y` — LO deadlines and periods
//!   are nominal in LO mode — so the whole LO profile is built once.
//! * A HI task's `DBF_HI` (Lemma 1) and `ADB_HI` (Theorem 4) components
//!   depend only on `x` (fixed per set): period `T`, offset `T − x·T`,
//!   jump `C(HI) − C(LO)`, ramp `C(LO)`. Built once, reused at every
//!   `y`.
//! * Only a LO task's HI-mode components move with `y`, and only in two
//!   of their six quantities: period `y·T` and offset `y·T − T`.
//!
//! [`SweepAnalysis`] partitions components along exactly that line.
//! [`SweepAnalysis::rescale_lo`] patches the LO-task components of the
//! `DBF_HI`/`ADB_HI` profiles in place — including their integer
//! fast-path forms, on a timebase chosen once over the whole `y` grid
//! (see [`crate::scaled`]) — instead of rebuilding the profiles. The
//! `sup_ratio` horizon bookkeeping and the reset frontier are
//! re-derived per grid point (the frontier still answers an entire `s`
//! sweep by lookup, exactly like [`crate::analysis::Analysis`]).
//!
//! Every query is answered by the same walks over the same curves as a
//! fresh per-point [`crate::analysis::Analysis`], so all results are
//! **bit-identical** to the fresh path — enforced by the differential
//! suite in `tests/sweep_differential.rs`. The engine additionally
//! counts how many demand components each grid point reused versus
//! rebuilt ([`crate::WalkCounts::reused_components`]).
//!
//! # Examples
//!
//! ```
//! use rbs_core::sweep::{SweepAnalysis, SweepMode};
//! use rbs_core::AnalysisLimits;
//! use rbs_model::ImplicitTaskSpec;
//! use rbs_timebase::Rational;
//!
//! # fn main() -> Result<(), rbs_core::AnalysisError> {
//! let specs = [
//!     ImplicitTaskSpec::hi("h", Rational::integer(10), Rational::integer(2), Rational::integer(4)),
//!     ImplicitTaskSpec::lo("l", Rational::integer(8), Rational::integer(2)),
//! ];
//! let ys = [Rational::ONE, Rational::TWO];
//! let mut sweep = SweepAnalysis::new(
//!     &specs,
//!     Rational::new(1, 2),
//!     &ys,
//!     SweepMode::Degraded,
//!     &AnalysisLimits::default(),
//! );
//! for &y in &ys {
//!     sweep.rescale_lo(y);
//!     let s_min = sweep.minimum_speedup()?;
//!     let reset = sweep.resetting_time(Rational::TWO)?;
//! }
//! let counts = sweep.walk_counts();
//! assert!(counts.reused_components > 0);
//! # Ok(())
//! # }
//! ```

use rbs_model::{Criticality, ImplicitTaskSpec};
use rbs_timebase::{lcm_i128, Rational};

use crate::analysis::{AnalysisScratch, WalkCounts};
use crate::demand::{
    drive_lockstep, AnyMachine, AnyOutcome, DemandProfile, PeriodicDemand, ResetFrontier, SupRatio,
    WalkKind, WalkTrace,
};
use crate::resetting::ResettingAnalysis;
use crate::scaled::{FitsMachine, ScaledProfile, SupRatioMachine};
use crate::speedup::SpeedupAnalysis;
use crate::{AnalysisError, AnalysisLimits};

/// What happens to LO tasks after the mode switch — the two HI-mode
/// treatments the paper's experiments use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepMode {
    /// LO service continues degraded: HI-mode period and deadline become
    /// `y·T` (Fig. 6, the tuning procedures). `rescale_lo` patches these
    /// components.
    Degraded,
    /// LO tasks are terminated at the switch (Fig. 7): they place no
    /// HI-mode demand, so every profile is `y`-invariant and
    /// `rescale_lo` only re-arms the per-point caches.
    Terminated,
}

/// A per-task-set campaign context: the `(x, y)`-parameterized demand
/// profiles with LO-task components patched in place per `y` instead of
/// rebuilt, plus the same query surface as
/// [`crate::analysis::Analysis`].
///
/// All methods return bit-identical results to a fresh
/// [`crate::analysis::Analysis`] over
/// [`rbs_model::scaled_task_set`]`(specs, ScalingFactors::new(x, y))`
/// (with [`rbs_model::TaskSet::with_lo_terminated`] applied in
/// [`SweepMode::Terminated`]); the engine only removes the repeated
/// construction work.
#[derive(Debug)]
pub struct SweepAnalysis {
    limits: AnalysisLimits,
    x: Rational,
    y: Rational,
    mode: SweepMode,
    /// `(period, wcet)` of each LO spec, in spec order — the only data
    /// `rescale_lo` needs.
    lo_specs: Vec<(Rational, Rational)>,
    /// Positions of the LO-spec components inside the `hi`/`arrival`
    /// profiles (identical layout in both; empty in
    /// [`SweepMode::Terminated`]).
    lo_indices: Vec<usize>,
    lo: DemandProfile,
    hi: DemandProfile,
    arrival: DemandProfile,
    integer_walks: u64,
    exact_walks: u64,
    pruned_walks: u64,
    avoided_walks: u64,
    reused_components: u64,
    rebuilt_components: u64,
    lockstep_walks: u64,
    patched_profiles: u64,
    /// Reused backing store for the per-`y` patch lists built by
    /// [`SweepAnalysis::rescale_lo`], so rescaling allocates nothing in
    /// the steady state.
    patch_buffer: Vec<PeriodicDemand>,
    /// The per-grid-point `Δ_R` staircase (see
    /// [`crate::analysis::Analysis::resetting_time`]); re-armed by every
    /// [`SweepAnalysis::rescale_lo`].
    frontier: Option<ResetFrontier>,
}

/// The `DBF_LO` component of one spec under deadline shortening `x` —
/// exactly what [`crate::dbf`] builds from the scaled task set.
fn lo_component(spec: &ImplicitTaskSpec, x: Rational) -> PeriodicDemand {
    let deadline = match spec.criticality() {
        Criticality::Hi => x * spec.period(),
        Criticality::Lo => spec.period(),
    };
    PeriodicDemand::step(spec.period(), deadline, spec.wcet_lo())
}

/// A HI spec's `DBF_HI` component (Lemma 1) — `y`-invariant.
fn hi_component_hi(spec: &ImplicitTaskSpec, x: Rational) -> PeriodicDemand {
    PeriodicDemand::new(
        spec.period(),
        spec.wcet_hi(),
        Rational::ZERO,
        spec.period() - x * spec.period(),
        spec.wcet_hi() - spec.wcet_lo(),
        spec.wcet_lo(),
    )
}

/// A LO spec's `DBF_HI` component under degradation `y`: only the period
/// `y·T` and offset `y·T − T` move with `y`.
fn hi_component_lo(period: Rational, wcet: Rational, y: Rational) -> PeriodicDemand {
    PeriodicDemand::new(
        y * period,
        wcet,
        Rational::ZERO,
        y * period - period,
        Rational::ZERO,
        wcet,
    )
}

/// A HI spec's `ADB_HI` component (Theorem 4) — `y`-invariant.
fn arrival_component_hi(spec: &ImplicitTaskSpec, x: Rational) -> PeriodicDemand {
    PeriodicDemand::new(
        spec.period(),
        spec.wcet_hi(),
        spec.wcet_hi(),
        spec.period() - x * spec.period(),
        spec.wcet_hi() - spec.wcet_lo(),
        spec.wcet_lo(),
    )
}

/// A LO spec's `ADB_HI` component under degradation `y`.
fn arrival_component_lo(period: Rational, wcet: Rational, y: Rational) -> PeriodicDemand {
    PeriodicDemand::new(
        y * period,
        wcet,
        wcet,
        y * period - period,
        Rational::ZERO,
        wcet,
    )
}

/// One integer timebase covering the whole `y` grid: the lcm of every
/// component denominator at the construction `y` plus every denominator
/// a hinted `y` can introduce (`y·T` and `y·T − T` of each LO spec).
/// `None` when the lcm overflows — the profiles then fall back to their
/// own per-`y` timebases (or the exact walks), as a fresh build would.
fn grid_scale(
    components: &[&[PeriodicDemand]],
    lo_specs: &[(Rational, Rational)],
    ys: &[Rational],
) -> Option<i128> {
    let mut scale: i128 = 1;
    for profile in components {
        for c in *profile {
            for q in c.raw() {
                scale = lcm_i128(scale, q.denom())?;
            }
        }
    }
    for &y in ys {
        for &(period, _) in lo_specs {
            let degraded = y.checked_mul(period).ok()?;
            let offset = degraded.checked_sub(period).ok()?;
            scale = lcm_i128(scale, degraded.denom())?;
            scale = lcm_i128(scale, offset.denom())?;
        }
    }
    Some(scale)
}

impl SweepAnalysis {
    /// Creates a context for `specs` at deadline shortening `x`,
    /// initially at `y = 1`. `ys` is a *hint*: the timebase of the
    /// integer fast path is chosen to cover these degradation factors,
    /// so [`SweepAnalysis::rescale_lo`] to a hinted `y` patches the
    /// scaled profiles in place. Rescaling to an unhinted `y` is still
    /// correct — the fast path is then rebuilt for that `y`, exactly as
    /// a fresh analysis would build it.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < x ≤ 1` (the [`rbs_model::ScalingFactors`]
    /// range).
    #[must_use]
    pub fn new(
        specs: &[ImplicitTaskSpec],
        x: Rational,
        ys: &[Rational],
        mode: SweepMode,
        limits: &AnalysisLimits,
    ) -> SweepAnalysis {
        SweepAnalysis::new_in(specs, x, ys, mode, limits, &mut AnalysisScratch::new())
    }

    /// [`SweepAnalysis::new`] with the component buffers leased from
    /// `scratch`; pair with [`SweepAnalysis::recycle_into`] so campaign
    /// runners stop allocating in the steady state.
    ///
    /// # Panics
    ///
    /// As for [`SweepAnalysis::new`].
    #[must_use]
    pub fn new_in(
        specs: &[ImplicitTaskSpec],
        x: Rational,
        ys: &[Rational],
        mode: SweepMode,
        limits: &AnalysisLimits,
        scratch: &mut AnalysisScratch,
    ) -> SweepAnalysis {
        assert!(
            x.is_positive() && x <= Rational::ONE,
            "x must lie in (0, 1]"
        );
        let y = Rational::ONE;
        let lo_specs: Vec<(Rational, Rational)> = specs
            .iter()
            .filter(|s| s.criticality() == Criticality::Lo)
            .map(|s| (s.period(), s.wcet_lo()))
            .collect();

        let mut lo_components = scratch.lease();
        lo_components.extend(specs.iter().map(|s| lo_component(s, x)));

        let mut hi_components = scratch.lease();
        let mut arrival_components = scratch.lease();
        let mut lo_indices = Vec::new();
        for spec in specs {
            match spec.criticality() {
                Criticality::Hi => {
                    hi_components.push(hi_component_hi(spec, x));
                    arrival_components.push(arrival_component_hi(spec, x));
                }
                Criticality::Lo => {
                    if mode == SweepMode::Terminated {
                        continue;
                    }
                    lo_indices.push(hi_components.len());
                    hi_components.push(hi_component_lo(spec.period(), spec.wcet_lo(), y));
                    arrival_components.push(arrival_component_lo(spec.period(), spec.wcet_lo(), y));
                }
            }
        }

        // The shared-grid timebase: any common multiple of the per-`y`
        // denominators serves the walks bit-identically (comparisons are
        // scale-invariant, recorded rationals reduce canonically), so one
        // scale can cover the whole grid. A failed grid build falls back
        // to the component's own timebase — fresh-build behavior.
        let scale = if mode == SweepMode::Terminated {
            None
        } else {
            grid_scale(&[&hi_components, &arrival_components], &lo_specs, ys)
        };
        let scaled_with = |components: &[PeriodicDemand]| match scale {
            Some(k) => ScaledProfile::build_with_scale(components, k)
                .or_else(|| ScaledProfile::build(components)),
            None => ScaledProfile::build(components),
        };
        let hi_scaled = scaled_with(&hi_components);
        let arrival_scaled = scaled_with(&arrival_components);
        let rebuilt_components =
            (lo_components.len() + hi_components.len() + arrival_components.len()) as u64;
        SweepAnalysis {
            limits: *limits,
            x,
            y,
            mode,
            lo_specs,
            lo_indices,
            lo: DemandProfile::new(lo_components),
            hi: DemandProfile::from_parts(hi_components, hi_scaled),
            arrival: DemandProfile::from_parts(arrival_components, arrival_scaled),
            integer_walks: 0,
            exact_walks: 0,
            pruned_walks: 0,
            avoided_walks: 0,
            reused_components: 0,
            rebuilt_components,
            lockstep_walks: 0,
            patched_profiles: 0,
            patch_buffer: scratch.lease(),
            frontier: None,
        }
    }

    /// Consumes the context, returning its component buffers to
    /// `scratch` for the next [`SweepAnalysis::new_in`].
    pub fn recycle_into(self, scratch: &mut AnalysisScratch) {
        for profile in [self.lo, self.hi, self.arrival] {
            scratch.reclaim(profile.into_components());
        }
        scratch.reclaim(self.patch_buffer);
    }

    /// The deadline-shortening factor `x` the context was built for.
    #[must_use]
    pub fn x(&self) -> Rational {
        self.x
    }

    /// The degradation factor the profiles currently describe.
    #[must_use]
    pub fn y(&self) -> Rational {
        self.y
    }

    /// The LO-task HI-mode treatment the context was built with.
    #[must_use]
    pub fn mode(&self) -> SweepMode {
        self.mode
    }

    /// Moves the context to the grid point `y`: patches the LO-task
    /// components of the `DBF_HI`/`ADB_HI` profiles (period `y·T`,
    /// offset `y·T − T`) in place and re-arms the per-point caches (the
    /// reset frontier). Everything else — the LO profile, every HI-task
    /// component, the scaled forms of both — is reused.
    ///
    /// After this call every query is bit-identical to a fresh
    /// [`crate::analysis::Analysis`] on the set rescaled to `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `y < 1` (the [`rbs_model::ScalingFactors`] range).
    pub fn rescale_lo(&mut self, y: Rational) {
        assert!(y >= Rational::ONE, "y must be at least 1");
        // A new grid point always starts without a frontier, exactly like
        // the fresh-per-point path, so the avoided-walk accounting (and
        // any frontier rebuilt at a different speed) matches it.
        self.frontier = None;
        let total = (self.lo.components().len()
            + self.hi.components().len()
            + self.arrival.components().len()) as u64;
        if y == self.y || self.lo_indices.is_empty() {
            self.y = y;
            self.reused_components += total;
            return;
        }
        self.y = y;
        let mut patched = std::mem::take(&mut self.patch_buffer);
        patched.clear();
        patched.extend(
            self.lo_specs
                .iter()
                .map(|&(period, wcet)| hi_component_lo(period, wcet, y)),
        );
        self.patch_profile(Profile::Hi, &patched);
        patched.clear();
        patched.extend(
            self.lo_specs
                .iter()
                .map(|&(period, wcet)| arrival_component_lo(period, wcet, y)),
        );
        self.patch_profile(Profile::Arrival, &patched);
        patched.clear();
        self.patch_buffer = patched;
        self.reused_components += self.lo.components().len() as u64;
    }

    fn patch_profile(&mut self, which: Profile, patched: &[PeriodicDemand]) {
        let profile = match which {
            Profile::Hi => &mut self.hi,
            Profile::Arrival => &mut self.arrival,
        };
        let total = profile.components().len() as u64;
        let moved = self.lo_indices.len() as u64;
        if profile.patch_components(&self.lo_indices, patched) {
            self.rebuilt_components += moved;
            self.reused_components += total - moved;
            self.patched_profiles += 1;
        } else {
            // The grid timebase missed this `y`: the rational components
            // are still patched, but the integer fast path was rebuilt
            // from scratch, so count the whole profile as rebuilt.
            self.rebuilt_components += total;
        }
    }

    fn record(&mut self, trace: WalkTrace) {
        match trace.kind {
            WalkKind::Integer => self.integer_walks += 1,
            WalkKind::Rational => self.exact_walks += 1,
        }
        if trace.pruned {
            self.pruned_walks += 1;
        }
        if trace.lockstep {
            self.lockstep_walks += 1;
        }
    }

    /// How many breakpoint walks ran so far (see
    /// [`crate::analysis::Analysis::walk_counts`]) plus the cumulative
    /// reused/rebuilt component tallies across all grid points.
    #[must_use]
    pub fn walk_counts(&self) -> WalkCounts {
        WalkCounts {
            integer: self.integer_walks,
            exact: self.exact_walks,
            pruned: self.pruned_walks,
            avoided: self.avoided_walks,
            reused_components: self.reused_components,
            rebuilt_components: self.rebuilt_components,
            lockstep: self.lockstep_walks,
            patched: self.patched_profiles,
            repaired: 0,
            kept: 0,
            rewalked: 0,
        }
    }

    /// [`SweepAnalysis::minimum_speedup`] across many contexts at once:
    /// the integer fast-path walks of all `sweeps` advance in one
    /// chunked lockstep batch (see [`crate::demand::sup_ratio_many`] for
    /// the chunking rule) instead of running to completion one profile
    /// at a time. Contexts without a fast path — or whose fast path
    /// overflows mid-walk — fall back to their usual sequential query.
    ///
    /// Returns one result per context, in order, each bit-identical to
    /// that context's own [`SweepAnalysis::minimum_speedup`]; walk
    /// counts are recorded on each context exactly as the sequential
    /// query would, plus [`WalkCounts::lockstep`] for batch-served
    /// walks.
    pub fn minimum_speedup_many(
        sweeps: &mut [&mut SweepAnalysis],
    ) -> Vec<Result<SpeedupAnalysis, AnalysisError>> {
        let mut slots: Vec<Option<Result<AnyOutcome, AnalysisError>>> =
            sweeps.iter().map(|_| None).collect();
        let mut live = Vec::with_capacity(sweeps.len());
        for (slot, sweep) in sweeps.iter().enumerate() {
            if let Some(machine) = sweep
                .hi
                .scaled()
                .and_then(|s| SupRatioMachine::new(s, &sweep.limits))
            {
                live.push((slot, AnyMachine::Sup(machine), &sweep.limits));
            }
        }
        drive_lockstep(live, &mut slots);
        sweeps
            .iter_mut()
            .zip(slots)
            .map(|(sweep, slot)| match slot {
                Some(Ok(AnyOutcome::Sup(sup, pruned))) => {
                    sweep.record(WalkTrace {
                        kind: WalkKind::Integer,
                        pruned,
                        lockstep: true,
                    });
                    Ok(SpeedupAnalysis::from_sup_ratio(sup))
                }
                Some(Ok(AnyOutcome::Fits(..))) => {
                    unreachable!("sup-ratio machines produce sup-ratio outcomes")
                }
                Some(Err(err)) => Err(err),
                None => sweep.minimum_speedup(),
            })
            .collect()
    }

    /// [`SweepAnalysis::is_lo_schedulable`] across many contexts in one
    /// lockstep batch; results and per-context walk accounting match the
    /// sequential query bit for bit.
    pub fn is_lo_schedulable_many(
        sweeps: &mut [&mut SweepAnalysis],
    ) -> Vec<Result<bool, AnalysisError>> {
        SweepAnalysis::fits_many_inner(sweeps, FitsTarget::Lo, Rational::ONE)
    }

    /// [`SweepAnalysis::is_hi_schedulable`] at `speed` across many
    /// contexts in one lockstep batch; results and per-context walk
    /// accounting match the sequential query bit for bit.
    pub fn is_hi_schedulable_many(
        sweeps: &mut [&mut SweepAnalysis],
        speed: Rational,
    ) -> Vec<Result<bool, AnalysisError>> {
        SweepAnalysis::fits_many_inner(sweeps, FitsTarget::Hi, speed)
    }

    fn fits_many_inner(
        sweeps: &mut [&mut SweepAnalysis],
        target: FitsTarget,
        speed: Rational,
    ) -> Vec<Result<bool, AnalysisError>> {
        let mut slots: Vec<Option<Result<AnyOutcome, AnalysisError>>> =
            sweeps.iter().map(|_| None).collect();
        // A non-positive speed is an argument error the sequential query
        // reports without walking; leave every slot to the fallback.
        if speed.is_positive() {
            let mut live = Vec::with_capacity(sweeps.len());
            for (slot, sweep) in sweeps.iter().enumerate() {
                let profile = match target {
                    FitsTarget::Lo => &sweep.lo,
                    FitsTarget::Hi => &sweep.hi,
                };
                if let Some(machine) = profile
                    .scaled()
                    .and_then(|s| FitsMachine::new(s, speed, &sweep.limits))
                {
                    live.push((slot, AnyMachine::Fits(machine), &sweep.limits));
                }
            }
            drive_lockstep(live, &mut slots);
        }
        sweeps
            .iter_mut()
            .zip(slots)
            .map(|(sweep, slot)| match slot {
                Some(Ok(AnyOutcome::Fits(fits, pruned))) => {
                    sweep.record(WalkTrace {
                        kind: WalkKind::Integer,
                        pruned,
                        lockstep: true,
                    });
                    Ok(fits)
                }
                Some(Ok(AnyOutcome::Sup(..))) => {
                    unreachable!("fits machines produce fits outcomes")
                }
                Some(Err(err)) => Err(err),
                None => match target {
                    FitsTarget::Lo => sweep.is_lo_schedulable(),
                    FitsTarget::Hi => sweep.is_hi_schedulable(speed),
                },
            })
            .collect()
    }

    /// Theorem 2's minimum HI-mode speedup at the current grid point
    /// (see [`crate::analysis::Analysis::minimum_speedup`]).
    ///
    /// # Errors
    ///
    /// As for [`crate::speedup::minimum_speedup`].
    pub fn minimum_speedup(&mut self) -> Result<SpeedupAnalysis, AnalysisError> {
        let (sup, trace) = self.hi.sup_ratio_traced(&self.limits)?;
        self.record(trace);
        Ok(SpeedupAnalysis::from_sup_ratio(sup))
    }

    /// Whether HI mode is EDF-schedulable at `speed` at the current grid
    /// point (see [`crate::analysis::Analysis::is_hi_schedulable`]).
    ///
    /// # Errors
    ///
    /// As for [`crate::speedup::is_hi_schedulable`].
    pub fn is_hi_schedulable(&mut self, speed: Rational) -> Result<bool, AnalysisError> {
        let (fits, trace) = self.hi.fits_traced(speed, &self.limits)?;
        self.record(trace);
        Ok(fits)
    }

    /// Corollary 5's service resetting time at `speed` for the current
    /// grid point, with the same frontier reuse as
    /// [`crate::analysis::Analysis::resetting_time`]: the first
    /// above-rate query per grid point builds the full staircase, later
    /// covered speeds answer by lookup without walking. Below-rate
    /// speeds take the plain first-fit walk, ended early (and counted as
    /// pruned) at the envelope-floor horizon.
    ///
    /// # Errors
    ///
    /// As for [`crate::resetting::resetting_time`].
    pub fn resetting_time(&mut self, speed: Rational) -> Result<ResettingAnalysis, AnalysisError> {
        if speed > self.arrival.rate() {
            if let Some(fit) = self.frontier.as_ref().and_then(|f| f.lookup(speed)) {
                self.avoided_walks += 1;
                return Ok(ResettingAnalysis::from_first_fit(fit, speed));
            }
            let (frontier, kind) = self.arrival.reset_frontier(speed, &self.limits)?;
            self.record(WalkTrace {
                kind,
                pruned: false,
                lockstep: false,
            });
            let fit = frontier
                .lookup(speed)
                .expect("a frontier built for `speed` covers it");
            self.frontier = Some(frontier);
            return Ok(ResettingAnalysis::from_first_fit(fit, speed));
        }
        let (fit, trace) = self.arrival.first_fit_traced(speed, &self.limits)?;
        self.record(trace);
        Ok(ResettingAnalysis::from_first_fit(fit, speed))
    }

    /// Whether LO mode meets all deadlines at nominal speed
    /// (`y`-invariant; see
    /// [`crate::analysis::Analysis::is_lo_schedulable`]).
    ///
    /// # Errors
    ///
    /// As for [`crate::lo_mode::is_lo_schedulable`].
    pub fn is_lo_schedulable(&mut self) -> Result<bool, AnalysisError> {
        let (fits, trace) = self.lo.fits_traced(Rational::ONE, &self.limits)?;
        self.record(trace);
        Ok(fits)
    }

    /// The smallest speed at which LO mode is EDF-schedulable
    /// (`y`-invariant; see
    /// [`crate::analysis::Analysis::lo_speed_requirement`]).
    ///
    /// # Errors
    ///
    /// As for [`crate::lo_mode::lo_speed_requirement`].
    pub fn lo_speed_requirement(&mut self) -> Result<Rational, AnalysisError> {
        let (sup, trace) = self.lo.sup_ratio_traced(&self.limits)?;
        self.record(trace);
        match sup {
            SupRatio::Finite { value, .. } => Ok(value),
            SupRatio::Unbounded => unreachable!("DBF_LO(0) = 0 for validated tasks"),
        }
    }
}

/// Which patched profile [`SweepAnalysis::patch_profile`] addresses.
#[derive(Clone, Copy)]
enum Profile {
    Hi,
    Arrival,
}

/// Which profile a batched fits query walks.
#[derive(Clone, Copy)]
enum FitsTarget {
    Lo,
    Hi,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Analysis;
    use rbs_model::{scaled_task_set, ScalingFactors};

    fn int(v: i128) -> Rational {
        Rational::integer(v)
    }

    fn rat(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    fn table1_specs() -> Vec<ImplicitTaskSpec> {
        vec![
            ImplicitTaskSpec::hi("tau1", int(5), int(1), int(2)),
            ImplicitTaskSpec::lo("tau2", int(10), int(3)),
        ]
    }

    fn fresh(specs: &[ImplicitTaskSpec], x: Rational, y: Rational) -> rbs_model::TaskSet {
        let factors = ScalingFactors::new(x, y).expect("valid");
        scaled_task_set(specs, factors).expect("valid")
    }

    #[test]
    fn components_match_the_scaled_task_set_profiles() {
        let specs = table1_specs();
        let x = rat(2, 5);
        let limits = AnalysisLimits::default();
        for y in [Rational::ONE, Rational::TWO, int(3), rat(3, 2)] {
            let mut sweep = SweepAnalysis::new(
                &specs,
                x,
                &[Rational::ONE, Rational::TWO, int(3)],
                SweepMode::Degraded,
                &limits,
            );
            sweep.rescale_lo(y);
            let set = fresh(&specs, x, y);
            let ctx = Analysis::new(&set, &limits);
            assert_eq!(sweep.lo.components(), ctx.lo_profile().components());
            assert_eq!(sweep.hi.components(), ctx.hi_profile().components());
            assert_eq!(
                sweep.arrival.components(),
                ctx.arrival_profile().components()
            );
        }
    }

    #[test]
    fn queries_match_a_fresh_context_at_every_grid_point() {
        let specs = table1_specs();
        let x = rat(2, 5);
        let limits = AnalysisLimits::default();
        let ys = [Rational::ONE, Rational::TWO, int(3)];
        let speeds = [rat(1, 2), Rational::ONE, rat(4, 3), Rational::TWO, int(3)];
        let mut sweep = SweepAnalysis::new(&specs, x, &ys, SweepMode::Degraded, &limits);
        for &y in &ys {
            sweep.rescale_lo(y);
            let set = fresh(&specs, x, y);
            let ctx = Analysis::new(&set, &limits);
            assert_eq!(
                sweep.minimum_speedup().expect("ok"),
                ctx.minimum_speedup().expect("ok"),
                "y = {y}"
            );
            assert_eq!(
                sweep.is_lo_schedulable().expect("ok"),
                ctx.is_lo_schedulable().expect("ok")
            );
            assert_eq!(
                sweep.lo_speed_requirement().expect("ok"),
                ctx.lo_speed_requirement().expect("ok")
            );
            for &s in &speeds {
                assert_eq!(
                    sweep.is_hi_schedulable(s).expect("ok"),
                    ctx.is_hi_schedulable(s).expect("ok"),
                    "y = {y}, s = {s}"
                );
                assert_eq!(
                    sweep.resetting_time(s).expect("ok"),
                    ctx.resetting_time(s).expect("ok"),
                    "y = {y}, s = {s}"
                );
            }
        }
    }

    #[test]
    fn terminated_mode_matches_with_lo_terminated() {
        let specs = table1_specs();
        let x = rat(2, 5);
        let limits = AnalysisLimits::default();
        let mut sweep =
            SweepAnalysis::new(&specs, x, &[Rational::ONE], SweepMode::Terminated, &limits);
        let set = fresh(&specs, x, Rational::ONE)
            .with_lo_terminated()
            .expect("valid");
        let ctx = Analysis::new(&set, &limits);
        assert_eq!(sweep.hi.components(), ctx.hi_profile().components());
        assert_eq!(
            sweep.is_hi_schedulable(Rational::TWO).expect("ok"),
            ctx.is_hi_schedulable(Rational::TWO).expect("ok")
        );
        assert_eq!(
            sweep.resetting_time(Rational::TWO).expect("ok"),
            ctx.resetting_time(Rational::TWO).expect("ok")
        );
    }

    #[test]
    fn grid_points_reuse_hi_task_components() {
        let specs = table1_specs();
        let limits = AnalysisLimits::default();
        let ys = [Rational::ONE, Rational::TWO, int(3)];
        let mut sweep = SweepAnalysis::new(&specs, rat(2, 5), &ys, SweepMode::Degraded, &limits);
        // 2 LO + 2 HI + 2 arrival components built up front.
        assert_eq!(sweep.walk_counts().rebuilt_components, 6);
        sweep.rescale_lo(Rational::ONE);
        // First point: everything reused (y unchanged).
        assert_eq!(sweep.walk_counts().reused_components, 6);
        sweep.rescale_lo(Rational::TWO);
        let counts = sweep.walk_counts();
        // Second point: the two LO-task HI-mode components are rebuilt,
        // the HI-task components and the whole LO profile are reused.
        assert_eq!(counts.rebuilt_components, 6 + 2);
        assert_eq!(counts.reused_components, 6 + 4);
    }

    #[test]
    fn unhinted_y_still_answers_identically() {
        let specs = table1_specs();
        let x = rat(2, 5);
        let limits = AnalysisLimits::default();
        // Hint only integers; probe a fractional y (the tuning bisection
        // pattern) — the grid timebase misses it, the engine rebuilds,
        // and the answers still match a fresh context.
        let mut sweep = SweepAnalysis::new(
            &specs,
            x,
            &[Rational::ONE, int(4)],
            SweepMode::Degraded,
            &limits,
        );
        let y = rat(7, 4);
        sweep.rescale_lo(y);
        let set = fresh(&specs, x, y);
        let ctx = Analysis::new(&set, &limits);
        assert_eq!(
            sweep.minimum_speedup().expect("ok"),
            ctx.minimum_speedup().expect("ok")
        );
        assert_eq!(
            sweep.resetting_time(Rational::TWO).expect("ok"),
            ctx.resetting_time(Rational::TWO).expect("ok")
        );
    }

    #[test]
    fn batched_speedup_matches_per_context_queries() {
        let specs_a = table1_specs();
        let specs_b = vec![
            ImplicitTaskSpec::hi("h1", int(7), int(1), int(3)),
            ImplicitTaskSpec::hi("h2", int(12), int(2), int(4)),
            ImplicitTaskSpec::lo("l1", int(9), int(2)),
        ];
        let limits = AnalysisLimits::default();
        let ys = [Rational::ONE, Rational::TWO];
        for &y in &ys {
            let build = |specs: &[ImplicitTaskSpec]| {
                let mut sweep =
                    SweepAnalysis::new(specs, rat(2, 5), &ys, SweepMode::Degraded, &limits);
                sweep.rescale_lo(y);
                sweep
            };
            let mut solo_a = build(&specs_a);
            let mut solo_b = build(&specs_b);
            let expected_a = solo_a.minimum_speedup().expect("ok");
            let expected_b = solo_b.minimum_speedup().expect("ok");
            let mut batched_a = build(&specs_a);
            let mut batched_b = build(&specs_b);
            let mut refs = [&mut batched_a, &mut batched_b];
            let results = SweepAnalysis::minimum_speedup_many(&mut refs);
            assert_eq!(results[0].as_ref().expect("ok"), &expected_a);
            assert_eq!(results[1].as_ref().expect("ok"), &expected_b);
            // The batch records the same walks as the sequential path,
            // tagged as lockstep-served.
            assert_eq!(batched_a.walk_counts().integer, 1);
            assert_eq!(batched_a.walk_counts().lockstep, 1);
            assert_eq!(batched_b.walk_counts().lockstep, 1);
            assert_eq!(solo_a.walk_counts().lockstep, 0);
        }
    }

    #[test]
    fn scratch_round_trips() {
        let specs = table1_specs();
        let limits = AnalysisLimits::default();
        let mut scratch = AnalysisScratch::new();
        for _ in 0..3 {
            let mut sweep = SweepAnalysis::new_in(
                &specs,
                rat(2, 5),
                &[Rational::ONE, Rational::TWO],
                SweepMode::Degraded,
                &limits,
                &mut scratch,
            );
            sweep.rescale_lo(Rational::TWO);
            sweep.minimum_speedup().expect("ok");
            sweep.recycle_into(&mut scratch);
        }
    }

    #[test]
    #[should_panic(expected = "x must lie in (0, 1]")]
    fn zero_x_panics() {
        let _ = SweepAnalysis::new(
            &table1_specs(),
            Rational::ZERO,
            &[Rational::ONE],
            SweepMode::Degraded,
            &AnalysisLimits::default(),
        );
    }

    #[test]
    #[should_panic(expected = "y must be at least 1")]
    fn sub_one_y_panics() {
        let mut sweep = SweepAnalysis::new(
            &table1_specs(),
            rat(2, 5),
            &[Rational::ONE],
            SweepMode::Degraded,
            &AnalysisLimits::default(),
        );
        sweep.rescale_lo(rat(1, 2));
    }
}
