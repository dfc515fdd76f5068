//! Service resetting time under processor speedup (Corollary 5).
//!
//! The system may safely return to LO mode (and nominal speed) at any
//! processor idle instant. Theorem 4's arrived demand bound upper-bounds
//! everything that can have arrived since the switch, so the processor is
//! provably idle at any `Δ` with `Σ_i ADB_HI(τ_i, Δ) ≤ s·Δ`. The service
//! resetting time is the earliest such instant:
//!
//! ```text
//! Δ_R = min{ Δ ≥ 0 : Σ_i ADB_HI(τ_i, Δ) ≤ s·Δ }      (eq. (12))
//! ```
//!
//! Running at exactly `s = s_min` generally yields an *unbounded*
//! resetting time (the supply only asymptotically catches up, cf.
//! Lemma 7); any `s` above the HI-mode utilization yields a finite bound
//! that shrinks as `s` grows — the paper's central "run fast to recover
//! fast" observation (Fig. 3).

use std::fmt;

use rbs_model::TaskSet;
use rbs_timebase::Rational;

use crate::adb::hi_arrival_profile;
use crate::analysis::WalkCounts;
use crate::demand::{DemandProfile, FirstFit, ResetFrontier, WalkKind, WalkTrace};
use crate::{AnalysisError, AnalysisLimits};

/// A bound on the service resetting time, possibly infinite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResettingBound {
    /// The system is guaranteed idle (hence safely reset) within this
    /// long after entering HI mode.
    Finite(Rational),
    /// The chosen speed never provably drains the arrived demand.
    Unbounded,
}

impl ResettingBound {
    /// The finite value, if any.
    #[must_use]
    pub fn as_finite(&self) -> Option<Rational> {
        match self {
            ResettingBound::Finite(v) => Some(*v),
            ResettingBound::Unbounded => None,
        }
    }
}

impl fmt::Display for ResettingBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResettingBound::Finite(v) => write!(f, "{v}"),
            ResettingBound::Unbounded => f.write_str("+inf"),
        }
    }
}

/// The result of a Corollary 5 analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResettingAnalysis {
    bound: ResettingBound,
    speed: Rational,
}

impl ResettingAnalysis {
    /// Wraps a raw first-fit query result for the given assumed speed.
    pub(crate) fn from_first_fit(fit: FirstFit, speed: Rational) -> ResettingAnalysis {
        let bound = match fit {
            FirstFit::At(delta) => ResettingBound::Finite(delta),
            FirstFit::Never => ResettingBound::Unbounded,
        };
        ResettingAnalysis { bound, speed }
    }

    /// The safe service resetting time `Δ_R`.
    #[must_use]
    pub fn bound(&self) -> ResettingBound {
        self.bound
    }

    /// The HI-mode speed the analysis assumed.
    #[must_use]
    pub fn speed(&self) -> Rational {
        self.speed
    }
}

/// Computes Corollary 5's service resetting time `Δ_R` for HI-mode speed
/// `s` exactly.
///
/// # Errors
///
/// * [`AnalysisError::NonPositiveSpeed`] if `s ≤ 0`.
/// * [`AnalysisError::BreakpointBudgetExhausted`] on pathological
///   instances (see [`AnalysisLimits`]).
///
/// # Examples
///
/// Example 2 of the paper: raising the speed shortens the reset. For the
/// reconstructed Table I set, `Δ_R` at `s = 2` is 5 time units, and at
/// `s = 3` it shrinks further:
///
/// ```
/// use rbs_core::resetting::{resetting_time, ResettingBound};
/// use rbs_core::AnalysisLimits;
/// use rbs_model::{Criticality, Task, TaskSet};
/// use rbs_timebase::Rational;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let set = TaskSet::new(vec![
///     Task::builder("tau1", Criticality::Hi)
///         .period(Rational::integer(5))
///         .deadline_lo(Rational::integer(2))
///         .deadline_hi(Rational::integer(5))
///         .wcet_lo(Rational::integer(1))
///         .wcet_hi(Rational::integer(2))
///         .build()?,
///     Task::builder("tau2", Criticality::Lo)
///         .period(Rational::integer(10))
///         .deadline(Rational::integer(10))
///         .wcet(Rational::integer(3))
///         .build()?,
/// ]);
/// let limits = AnalysisLimits::default();
/// let at2 = resetting_time(&set, Rational::integer(2), &limits)?;
/// let at3 = resetting_time(&set, Rational::integer(3), &limits)?;
/// assert_eq!(at2.bound(), ResettingBound::Finite(Rational::integer(5)));
/// assert!(at3.bound().as_finite().expect("finite") < Rational::integer(5));
/// # Ok(())
/// # }
/// ```
pub fn resetting_time(
    set: &TaskSet,
    speed: Rational,
    limits: &AnalysisLimits,
) -> Result<ResettingAnalysis, AnalysisError> {
    let profile = hi_arrival_profile(set);
    Ok(ResettingAnalysis::from_first_fit(
        profile.first_fit(speed, limits)?,
        speed,
    ))
}

/// Corollary 5's resetting time at `speed` on the arrived-demand
/// `profile`, served through the cached staircase `frontier` — the one
/// serving policy behind [`crate::Analysis::resetting_time`] and
/// [`crate::sweep::SweepAnalysis::resetting_time`].
///
/// Above the rate, a speed the cached frontier covers is answered by
/// lookup with no walk (counted in [`WalkCounts::avoided`]); an uncovered
/// one builds the frontier at `speed`, which replaces the cached one.
/// Speeds at or below the rate — whose fit can be `Never`, which the
/// frontier does not encode — and profiles with no integer frontier
/// ([`DemandProfile::reset_frontier`] gives `None`) take a plain
/// first-fit walk. Every path is bit-identical to that walk.
pub(crate) fn serve_resetting_time(
    profile: &DemandProfile,
    frontier: &mut Option<ResetFrontier>,
    speed: Rational,
    limits: &AnalysisLimits,
    counts: &mut WalkCounts,
) -> Result<ResettingAnalysis, AnalysisError> {
    if speed > profile.rate() {
        if let Some(fit) = frontier.as_ref().and_then(|cached| cached.lookup(speed)) {
            counts.avoided += 1;
            return Ok(ResettingAnalysis::from_first_fit(fit, speed));
        }
        if let Some(built) = profile.reset_frontier(speed, limits)? {
            counts.record(WalkTrace::solo(WalkKind::Integer, false));
            let fit = built
                .lookup(speed)
                .expect("a frontier built for `speed` covers it");
            *frontier = Some(built);
            return Ok(ResettingAnalysis::from_first_fit(fit, speed));
        }
    }
    let (fit, trace) = profile.first_fit_traced(speed, limits)?;
    counts.record(trace);
    Ok(ResettingAnalysis::from_first_fit(fit, speed))
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn resetting_time_at_speed_two_is_five() {
        // ADB totals: Δ=0 → 5 (one C(HI) per task), then τ2's carry ramp
        // to 8 at Δ=3, τ1's carry to 10 at Δ=4, plateau at 10 through
        // Δ=5 where τ1's next arrival (2) exactly replaces its completed
        // carry plateau. First Δ with ADB(Δ) ≤ 2Δ is therefore Δ=5
        // (10 ≤ 10).
        let analysis = resetting_time(&table1(), int(2), &AnalysisLimits::default()).expect("ok");
        assert_eq!(analysis.bound(), ResettingBound::Finite(int(5)));
        assert_eq!(analysis.speed(), int(2));
    }

    #[test]
    fn resetting_crosscheck_against_dense_scan() {
        let set = table1();
        let limits = AnalysisLimits::default();
        for speed in [rat(3, 2), int(2), rat(5, 2), int(3), int(4)] {
            let bound = resetting_time(&set, speed, &limits)
                .expect("ok")
                .bound()
                .as_finite()
                .expect("finite");
            // No earlier fit on a fine grid.
            let mut i = 0i128;
            loop {
                let delta = rat(i, 16);
                if delta >= bound {
                    break;
                }
                assert!(
                    crate::adb::total_adb_hi(&set, delta) > speed * delta,
                    "premature fit at Δ={delta} for s={speed}"
                );
                i += 1;
            }
            // The bound itself fits.
            assert!(crate::adb::total_adb_hi(&set, bound) <= speed * bound);
        }
    }

    #[test]
    fn resetting_time_decreases_with_speed() {
        let set = table1();
        let limits = AnalysisLimits::default();
        let mut prev: Option<Rational> = None;
        for speed in [rat(3, 2), int(2), int(3), int(4), int(8)] {
            let bound = resetting_time(&set, speed, &limits)
                .expect("ok")
                .bound()
                .as_finite()
                .expect("finite");
            if let Some(p) = prev {
                assert!(bound <= p, "Δ_R increased: {bound} > {p} at s={speed}");
            }
            prev = Some(bound);
        }
    }

    #[test]
    fn too_slow_never_resets() {
        // HI-mode utilization is 2/5 + 3/10 = 7/10; below that the gap
        // only grows.
        let analysis =
            resetting_time(&table1(), rat(1, 2), &AnalysisLimits::default()).expect("ok");
        assert_eq!(analysis.bound(), ResettingBound::Unbounded);
        assert_eq!(analysis.bound().as_finite(), None);
        assert_eq!(analysis.bound().to_string(), "+inf");
    }

    #[test]
    fn termination_resets_faster() {
        let set = table1();
        let terminated = set.with_lo_terminated().expect("valid");
        let limits = AnalysisLimits::default();
        let full = resetting_time(&set, int(2), &limits)
            .expect("ok")
            .bound()
            .as_finite()
            .expect("finite");
        let term = resetting_time(&terminated, int(2), &limits)
            .expect("ok")
            .bound()
            .as_finite()
            .expect("finite");
        assert!(term < full, "{term} !< {full}");
    }

    #[test]
    fn empty_set_resets_immediately() {
        let analysis =
            resetting_time(&TaskSet::empty(), int(2), &AnalysisLimits::default()).expect("ok");
        assert_eq!(analysis.bound(), ResettingBound::Finite(Rational::ZERO));
    }

    #[test]
    fn non_positive_speed_is_rejected() {
        assert_eq!(
            resetting_time(&table1(), Rational::ZERO, &AnalysisLimits::default())
                .map(|a| a.bound()),
            Err(AnalysisError::NonPositiveSpeed)
        );
    }
}
