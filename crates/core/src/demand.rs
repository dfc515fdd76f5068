//! Exact periodic piecewise-linear demand curves.
//!
//! All three demand quantities of the paper share one shape per task: a
//! periodic pattern of period `T` that per period adds a constant amount
//! of demand and, at an offset within the period, exhibits an upward jump
//! followed by a unit-slope ramp:
//!
//! * `DBF_LO` (eq. (4)): pure step of height `C(LO)` at offset `D(LO)`;
//! * `DBF_HI` (Lemma 1): jump `C(HI)−C(LO)` at offset `D(HI)−D(LO)`,
//!   then a ramp of length `C(LO)`, plus `C(HI)` per full period;
//! * `ADB_HI` (Theorem 4): the same with offset `T(HI)−D(LO)` and an
//!   additional constant `C(HI)` (the carried-over job counts from Δ=0).
//!
//! [`PeriodicDemand`] captures one such component; [`DemandProfile`] sums
//! several and answers the two queries the paper needs:
//!
//! * [`DemandProfile::sup_ratio`] — `sup_{Δ>0} demand(Δ)/Δ`, which is
//!   Theorem 2's minimum speedup when applied to `DBF_HI` curves;
//! * [`DemandProfile::first_fit`] — `min{Δ ≥ 0 : demand(Δ) ≤ s·Δ}`,
//!   which is Corollary 5's resetting time when applied to `ADB_HI`
//!   curves.
//!
//! Both queries walk the curve's breakpoints exactly (no sampling). They
//! terminate because (a) demand is additive over hyperperiods —
//! `demand(Δ+P) = demand(Δ) + rate·P` — so no point beyond the first
//! hyperperiod can improve on the points within it, and (b) once a ratio
//! above the long-run rate is found, `demand(Δ) ≤ rate·Δ + burst` yields
//! a horizon beyond which no improvement is possible. Mirrored below the
//! rate, `demand(Δ) ≥ rate·Δ + floor` yields a horizon beyond which a
//! slower supply can never catch up.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::sync::OnceLock;

use rbs_timebase::{lcm_i128, Rational};

use crate::scaled::{FitsMachine, MachineStep, ScaledProfile, SupRatioMachine};
use crate::splice_buf::{post_edit_index, SpliceBuf};
use crate::{AnalysisError, AnalysisLimits};

/// One periodic demand component (typically: one task's demand curve).
///
/// The curve value at `Δ ≥ 0` is
///
/// ```text
/// constant + floor(Δ/period)·per_period + r(Δ mod period)
/// r(u) = jump + min(u − ramp_start, ramp_len)   if u ≥ ramp_start
///      = 0                                       otherwise
/// ```
///
/// # Examples
///
/// ```
/// use rbs_core::demand::PeriodicDemand;
/// use rbs_timebase::Rational;
///
/// // DBF_LO of a task with T=10, D=4, C=3: step of 3 at 4, 14, 24, ...
/// let step = PeriodicDemand::step(Rational::integer(10),
///                                 Rational::integer(4),
///                                 Rational::integer(3));
/// assert_eq!(step.eval(Rational::integer(3)), Rational::ZERO);
/// assert_eq!(step.eval(Rational::integer(4)), Rational::integer(3));
/// assert_eq!(step.eval(Rational::integer(14)), Rational::integer(6));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PeriodicDemand {
    period: Rational,
    per_period: Rational,
    constant: Rational,
    ramp_start: Rational,
    jump: Rational,
    ramp_len: Rational,
}

impl PeriodicDemand {
    /// Creates a component.
    ///
    /// # Panics
    ///
    /// Panics unless `period > 0`, `0 ≤ ramp_start < period`, all demand
    /// quantities are non-negative, and `jump + ramp_len ≤ per_period`
    /// (which makes the curve non-decreasing — every demand bound
    /// function is).
    #[must_use]
    pub fn new(
        period: Rational,
        per_period: Rational,
        constant: Rational,
        ramp_start: Rational,
        jump: Rational,
        ramp_len: Rational,
    ) -> PeriodicDemand {
        assert!(period.is_positive(), "period must be positive");
        assert!(
            !ramp_start.is_negative() && ramp_start < period,
            "ramp_start must lie in [0, period)"
        );
        assert!(
            !per_period.is_negative()
                && !constant.is_negative()
                && !jump.is_negative()
                && !ramp_len.is_negative(),
            "demand quantities must be non-negative"
        );
        assert!(
            jump + ramp_len <= per_period,
            "jump + ramp_len must not exceed per_period (curve must be non-decreasing)"
        );
        PeriodicDemand {
            period,
            per_period,
            constant,
            ramp_start,
            jump,
            ramp_len,
        }
    }

    /// A pure step curve: `height` demand arriving at
    /// `offset + k·period`. This is the shape of `DBF_LO` (eq. (4)) with
    /// `offset = D` — implicit-deadline tasks (`offset == period`) fold
    /// into pure per-period demand.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < offset ≤ period` and `height ≥ 0`.
    #[must_use]
    pub fn step(period: Rational, offset: Rational, height: Rational) -> PeriodicDemand {
        assert!(
            offset.is_positive() && offset <= period,
            "step offset must lie in (0, period]"
        );
        if offset == period {
            // A step of `height` at every multiple of the period is
            // exactly `height·floor(Δ/period)`.
            return PeriodicDemand::new(
                period,
                height,
                Rational::ZERO,
                Rational::ZERO,
                Rational::ZERO,
                Rational::ZERO,
            );
        }
        PeriodicDemand::new(
            period,
            height,
            Rational::ZERO,
            offset,
            height,
            Rational::ZERO,
        )
    }

    /// The component's period.
    #[must_use]
    pub fn period(&self) -> Rational {
        self.period
    }

    /// Demand added per full period.
    #[must_use]
    pub fn per_period(&self) -> Rational {
        self.per_period
    }

    /// Long-run demand rate `per_period / period`.
    #[must_use]
    pub fn rate(&self) -> Rational {
        self.per_period / self.period
    }

    /// A constant `b` such that `eval(Δ) ≤ rate()·Δ + b` for all `Δ ≥ 0`.
    #[must_use]
    pub fn burst(&self) -> Rational {
        self.constant + self.jump + self.ramp_len
    }

    /// The *tightest* constant `b` with `eval(Δ) ≤ rate()·Δ + b` for all
    /// `Δ ≥ 0`: `constant + sup_u (r(u) − rate·u)`.
    ///
    /// Writing `eval(Δ) − rate·Δ = constant + h(u)` with
    /// `h(u) = r(u) − rate·u` periodic in `u = Δ mod period`, the
    /// supremum of the piecewise-linear `h` sits at one of its segment
    /// endpoints: `u = 0`, the post-jump `u = ramp_start`, or the
    /// (period-clipped) ramp end. This is the pruning bound of the
    /// breakpoint walks — often far below [`PeriodicDemand::burst`],
    /// e.g. zero for an implicit-deadline step (`ramp_start = 0`,
    /// `jump = per_period`).
    #[must_use]
    pub fn envelope_burst(&self) -> Rational {
        let rate = self.rate();
        let clipped = (self.period - self.ramp_start).min(self.ramp_len);
        let at_jump = self.jump - rate * self.ramp_start;
        let at_ramp_end = self.jump + clipped - rate * (self.ramp_start + clipped);
        self.constant + Rational::ZERO.max(at_jump).max(at_ramp_end)
    }

    /// The *tightest* constant `f` with `eval(Δ) ≥ rate()·Δ + f` for all
    /// `Δ ≥ 0` — the lower mirror of [`PeriodicDemand::envelope_burst`]:
    /// `constant + inf_u (r(u) − rate·u)`.
    ///
    /// The infimum of the periodic piecewise-linear `h(u) = r(u) −
    /// rate·u` is approached at a segment end: just before the jump
    /// (`u → ramp_start⁻`, value `−rate·ramp_start`) or just before the
    /// period wraps (`u → period⁻`, value `jump + clipped − per_period`
    /// with `clipped = min(period − ramp_start, ramp_len)`); every other
    /// endpoint lies above one of these two. `None` when an intermediate
    /// overflows `i128` (callers then forgo the bound).
    pub(crate) fn envelope_floor(&self) -> Option<Rational> {
        let rate = self.per_period.checked_div(self.period).ok()?;
        let before_jump = Rational::ZERO
            .checked_sub(rate.checked_mul(self.ramp_start).ok()?)
            .ok()?;
        let clipped = self
            .period
            .checked_sub(self.ramp_start)
            .ok()?
            .min(self.ramp_len);
        let before_wrap = self
            .jump
            .checked_add(clipped)
            .ok()?
            .checked_sub(self.per_period)
            .ok()?;
        self.constant.checked_add(before_jump.min(before_wrap)).ok()
    }

    /// All six quantities in declaration order (`period`, `per_period`,
    /// `constant`, `ramp_start`, `jump`, `ramp_len`) — for the integer
    /// rescaling in [`crate::scaled`].
    pub(crate) fn raw(&self) -> [Rational; 6] {
        [
            self.period,
            self.per_period,
            self.constant,
            self.ramp_start,
            self.jump,
            self.ramp_len,
        ]
    }

    /// The infimum of `{Δ ≥ 0 : eval(Δ) > 0}` — the instant before which
    /// this component contributes nothing — or `None` for an identically
    /// zero curve (which contributes nothing anywhere).
    ///
    /// The curve is non-decreasing and piecewise linear, so it is zero
    /// on `[0, t)` for the returned `t`: a positive `constant` makes it
    /// positive from `Δ = 0`; otherwise the earliest demand is the jump
    /// (or ramp onset) at `ramp_start` and/or the first per-period
    /// accrual at `period`, whichever comes first. This is what the
    /// frontier repair keys on: a delta whose changed components all
    /// have `first_positive_instant ≥ cut` leaves the profile's demand
    /// bit-identical on `[0, cut)`.
    pub(crate) fn first_positive_instant(&self) -> Option<Rational> {
        if self.constant.is_positive() {
            return Some(Rational::ZERO);
        }
        let mut first = self.per_period.is_positive().then_some(self.period);
        if self.jump.is_positive() || self.ramp_len.is_positive() {
            first = Some(match first {
                None => self.ramp_start,
                Some(t) => t.min(self.ramp_start),
            });
        }
        first
    }

    /// The earliest instant at which this curve departs from its
    /// constant term — `None` when it is constant forever.
    fn first_departure_from_constant(&self) -> Option<Rational> {
        let mut first = self.per_period.is_positive().then_some(self.period);
        if self.jump.is_positive() || self.ramp_len.is_positive() {
            first = Some(match first {
                None => self.ramp_start,
                Some(t) => t.min(self.ramp_start),
            });
        }
        first
    }

    /// A lower bound on the earliest instant at which this curve and
    /// `other` differ: `None` when they are identical (they never
    /// diverge), otherwise the first instant either departs from the
    /// shared constant (both are flat before that, so they agree on the
    /// whole prefix). This is the replace-op frontier-repair cut: a
    /// swap whose components agree below `cut` leaves the profile's
    /// demand bit-identical on `[0, cut)` even though both components
    /// contribute demand from `Δ = 0`.
    pub(crate) fn divergence_bound(&self, other: &PeriodicDemand) -> Option<Rational> {
        if self == other {
            return None;
        }
        if self.constant != other.constant {
            return Some(Rational::ZERO);
        }
        match (
            self.first_departure_from_constant(),
            other.first_departure_from_constant(),
        ) {
            // Both flat forever at the same constant: value-equal even
            // when the (irrelevant) periods differ.
            (None, None) => None,
            (Some(t), None) | (None, Some(t)) => Some(t),
            (Some(a), Some(b)) => Some(a.min(b)),
        }
    }

    /// Evaluates the curve at `Δ`.
    ///
    /// # Panics
    ///
    /// Panics if `Δ` is negative.
    #[must_use]
    pub fn eval(&self, delta: Rational) -> Rational {
        assert!(!delta.is_negative(), "demand curves are defined for Δ ≥ 0");
        let k = delta.floor_div(self.period);
        let u = delta - Rational::integer(k) * self.period;
        let base = self.constant + Rational::integer(k) * self.per_period;
        if u >= self.ramp_start {
            base + self.jump + (u - self.ramp_start).min(self.ramp_len)
        } else {
            base
        }
    }
}

/// The outcome of a `sup demand(Δ)/Δ` query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupRatio {
    /// The supremum is finite, attained at `witness` (or zero for an
    /// identically-zero profile, in which case `witness` is `None`).
    Finite {
        /// The supremum value.
        value: Rational,
        /// An interval length `Δ` attaining the supremum.
        witness: Option<Rational>,
    },
    /// Demand is positive at `Δ = 0`: no finite speedup suffices
    /// (the paper's `s_min = +∞` case).
    Unbounded,
}

/// The outcome of a `min{Δ : demand(Δ) ≤ s·Δ}` query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FirstFit {
    /// The earliest `Δ ≥ 0` at which supply has caught up with demand.
    At(Rational),
    /// Supply never catches up (`s` below the long-run demand rate).
    Never,
}

/// Which breakpoint-walk implementation answered a query.
///
/// Results are bit-identical either way; the kind only matters for
/// performance accounting (see [`crate::analysis::Analysis`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkKind {
    /// The common-timebase `i128` fast path.
    Integer,
    /// The exact [`Rational`] fallback walk.
    Rational,
}

/// How a breakpoint walk answered a query: which implementation ran, and
/// whether the envelope bound cut it short.
///
/// Results are bit-identical regardless of either flag; the trace only
/// feeds performance accounting (see [`crate::analysis::Analysis`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkTrace {
    /// Which implementation produced the result.
    pub kind: WalkKind,
    /// Whether a utilization-envelope horizon stopped the walk with
    /// breakpoints still pending below the hyperperiod bound — i.e. the
    /// pruning actually skipped work. Sup-ratio and fits walks prune at
    /// the [`PeriodicDemand::envelope_burst`] ceiling; below-rate
    /// first-fit walks at the envelope-floor horizon (see
    /// [`DemandProfile::first_fit_traced`]).
    pub pruned: bool,
    /// Whether a chunked multi-profile lockstep driver
    /// ([`sup_ratio_many`]/[`fits_many`] or an internal batch prime)
    /// completed this walk interleaved with others, rather than a
    /// dedicated one-shot walk.
    pub lockstep: bool,
}

/// A sum of [`PeriodicDemand`] components with exact sup-ratio and
/// first-fit queries.
///
/// # Examples
///
/// ```
/// use rbs_core::demand::{DemandProfile, PeriodicDemand, SupRatio};
/// use rbs_core::AnalysisLimits;
/// use rbs_timebase::Rational;
///
/// # fn main() -> Result<(), rbs_core::AnalysisError> {
/// // One implicit-deadline task, T = D = 4, C = 1: sup dbf/Δ = C/D = 1/4.
/// let profile = DemandProfile::new(vec![PeriodicDemand::step(
///     Rational::integer(4),
///     Rational::integer(4),
///     Rational::integer(1),
/// )]);
/// let sup = profile.sup_ratio(&AnalysisLimits::default())?;
/// assert_eq!(
///     sup,
///     SupRatio::Finite { value: Rational::new(1, 4), witness: Some(Rational::integer(4)) }
/// );
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DemandProfile {
    components: SpliceBuf<PeriodicDemand>,
    /// The integer fast path, built once here; `None` when the common
    /// timebase does not fit in `i128` (queries then always walk the
    /// exact rational path).
    scaled: Option<ScaledProfile>,
    /// Whole-profile aggregates (rate, bursts, hyperperiod), each
    /// computed on its own first use: every walk prologue needs some of
    /// them and they cost O(n) rational reductions, so repeated queries
    /// on the same profile shouldn't pay them again. Per-field laziness
    /// matters — a caller that only ever asks for the cheap `rate` (the
    /// sweep engine's resetting-time gate) must not be billed for the
    /// much dearer `envelope_burst`. Reset by
    /// [`DemandProfile::patch_components`].
    aggregates: Aggregates,
}

/// Memoized O(components) profile summaries, each filled independently —
/// see [`DemandProfile::aggregates`].
#[derive(Debug, Clone, Default)]
struct Aggregates {
    rate: OnceLock<Rational>,
    burst: OnceLock<Rational>,
    envelope_burst: OnceLock<Rational>,
    envelope_floor: OnceLock<Option<Rational>>,
    hyperperiod: OnceLock<Option<Rational>>,
}

/// The lazily-filled aggregate cache is derived state, so equality is
/// over components and fast path only (as the former `derive` produced).
impl PartialEq for DemandProfile {
    fn eq(&self, other: &DemandProfile) -> bool {
        self.components == other.components && self.scaled == other.scaled
    }
}

impl Eq for DemandProfile {}

impl DemandProfile {
    /// Creates a profile from components.
    #[must_use]
    pub fn new(components: Vec<PeriodicDemand>) -> DemandProfile {
        let scaled = ScaledProfile::build(&components);
        DemandProfile {
            components: components.into(),
            scaled,
            aggregates: Aggregates::default(),
        }
    }

    /// Assembles a profile from components and a pre-built fast path —
    /// the sweep engine's entry point, where the [`ScaledProfile`] is
    /// built on a timebase covering a whole campaign grid rather than
    /// this one component list.
    pub(crate) fn from_parts(
        components: Vec<PeriodicDemand>,
        scaled: Option<ScaledProfile>,
    ) -> DemandProfile {
        DemandProfile {
            components: components.into(),
            scaled,
            aggregates: Aggregates::default(),
        }
    }

    /// Replaces the components at `indices` with `patched` (parallel
    /// slices) and patches the integer fast path in place when the new
    /// components fit its timebase; otherwise rebuilds the fast path
    /// from scratch on the updated components' own timebase — exactly
    /// what [`DemandProfile::new`] would produce. Returns `true` when
    /// the patch stayed in place.
    pub(crate) fn patch_components(
        &mut self,
        indices: &[usize],
        patched: &[PeriodicDemand],
    ) -> bool {
        debug_assert_eq!(indices.len(), patched.len());
        for (&i, component) in indices.iter().zip(patched) {
            self.components[i] = component.clone();
        }
        let in_place = match self.scaled.as_mut() {
            Some(scaled) => scaled.patch(&self.components, indices).is_some(),
            None => false,
        };
        if !in_place {
            self.scaled = ScaledProfile::build(&self.components);
        }
        self.aggregates = Aggregates::default();
        in_place
    }

    /// Applies one composite splice — replace the components at
    /// `patched` (pre-edit indices, ascending), drop the ones at
    /// `removed` (pre-edit, strictly ascending, disjoint from `patched`),
    /// and insert each of `inserted` before its pre-edit index (`len`
    /// appends; ascending, ties land in list order) — patching the
    /// integer fast path with a single aggregate refold (see
    /// [`ScaledProfile::splice_batch`]); otherwise rebuilds the fast path
    /// from scratch, exactly what [`DemandProfile::new`] on the post-edit
    /// list would produce. Returns `true` when the splice stayed in
    /// place.
    pub(crate) fn splice_components(
        &mut self,
        patched: &[(usize, PeriodicDemand)],
        removed: &[usize],
        inserted: &[(usize, PeriodicDemand)],
    ) -> bool {
        for &(i, ref component) in patched {
            self.components[i] = component.clone();
        }
        self.components.remove_sorted(removed);
        for (landed, &(pre, ref component)) in inserted.iter().enumerate() {
            let i = post_edit_index(removed, pre, landed);
            self.components.insert(i, component.clone());
        }
        let in_place = match self.scaled.as_mut() {
            Some(scaled) => scaled
                .splice_batch(patched, removed, inserted, &self.components)
                .is_some(),
            None => false,
        };
        if !in_place {
            self.scaled = ScaledProfile::build(&self.components);
        }
        self.aggregates = Aggregates::default();
        in_place
    }

    /// Whether the profile carries the common-timebase integer fast path.
    #[must_use]
    pub fn has_fast_path(&self) -> bool {
        self.scaled.is_some()
    }

    /// The integer fast path, for callers building resumable walk
    /// machines ([`crate::scaled::SupRatioMachine`] etc.) directly.
    pub(crate) fn scaled(&self) -> Option<&ScaledProfile> {
        self.scaled.as_ref()
    }

    /// The components.
    #[must_use]
    pub fn components(&self) -> &[PeriodicDemand] {
        &self.components
    }

    /// Total demand at `Δ`.
    ///
    /// # Panics
    ///
    /// Panics if `Δ` is negative.
    #[must_use]
    pub fn eval(&self, delta: Rational) -> Rational {
        self.components.iter().map(|c| c.eval(delta)).sum()
    }

    /// Long-run total demand rate.
    #[must_use]
    pub fn rate(&self) -> Rational {
        *self
            .aggregates
            .rate
            .get_or_init(|| self.components.iter().map(PeriodicDemand::rate).sum())
    }

    /// Total burst: `eval(Δ) ≤ rate()·Δ + burst()`.
    #[must_use]
    pub fn burst(&self) -> Rational {
        *self
            .aggregates
            .burst
            .get_or_init(|| self.components.iter().map(PeriodicDemand::burst).sum())
    }

    /// Total tight envelope burst (per-component suprema of
    /// `eval_i(Δ) − rate_i·Δ`, summed): the pruning bound of every walk.
    #[must_use]
    pub fn envelope_burst(&self) -> Rational {
        *self.aggregates.envelope_burst.get_or_init(|| {
            self.components
                .iter()
                .map(PeriodicDemand::envelope_burst)
                .sum()
        })
    }

    /// Total tight envelope floor (per-component infima of
    /// `eval_i(Δ) − rate_i·Δ`, summed): `eval(Δ) ≥ rate()·Δ + floor` for
    /// all `Δ ≥ 0`. `None` when the sum overflows `i128`. Only below-rate
    /// first-fit walks consult it.
    fn envelope_floor(&self) -> Option<Rational> {
        *self.aggregates.envelope_floor.get_or_init(|| {
            self.components.iter().try_fold(Rational::ZERO, |acc, c| {
                acc.checked_add(c.envelope_floor()?).ok()
            })
        })
    }

    /// The envelope-floor horizon of a first-fit walk at `speed`, or
    /// `None` when there is none (`speed ≥ rate()`, or an overflow).
    ///
    /// Below the rate, `eval(Δ) − speed·Δ ≥ (rate − speed)·Δ + floor`,
    /// which is positive for every `Δ > H = max(0, −floor)/(rate −
    /// speed)`: no fit can exist past `H`, so the walk may answer `Never`
    /// there instead of running out a full hyperperiod. At `speed ==
    /// rate` the gap no longer grows with `Δ`, so no horizon follows and
    /// the hyperperiod stays the only stopping rule.
    pub(crate) fn floor_horizon(&self, speed: Rational) -> Option<Rational> {
        let rate = self.rate();
        if speed >= rate {
            return None;
        }
        let deficit = Rational::ZERO.max(Rational::ZERO.checked_sub(self.envelope_floor()?).ok()?);
        deficit.checked_div(rate.checked_sub(speed).ok()?).ok()
    }

    /// Consumes the profile and returns its component vector — the
    /// allocation can then be pooled in an
    /// [`crate::analysis::AnalysisScratch`] and reused for the next set.
    #[must_use]
    pub fn into_components(self) -> Vec<PeriodicDemand> {
        self.components.into_vec()
    }

    /// The demand hyperperiod (lcm of component periods), if it fits in
    /// `i128`.
    #[must_use]
    pub fn hyperperiod(&self) -> Option<Rational> {
        *self.aggregates.hyperperiod.get_or_init(|| {
            let mut acc: Option<Rational> = None;
            for c in self.components.iter() {
                acc = Some(match acc {
                    None => c.period(),
                    Some(a) => a.lcm(c.period())?,
                });
            }
            acc
        })
    }

    /// Computes `sup_{Δ > 0} eval(Δ)/Δ` exactly.
    ///
    /// Applied to the HI-mode demand bound functions this is Theorem 2's
    /// minimum speedup (eq. (8)). The supremum is attained at a curve
    /// breakpoint within the first hyperperiod, or equals the long-run
    /// rate; the walk additionally stops early once the dynamic horizon
    /// `burst/(best − rate)` is passed.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::BreakpointBudgetExhausted`] when the hyperperiod
    /// overflows `i128` *and* the dynamic horizon never materializes
    /// within the breakpoint budget.
    pub fn sup_ratio(&self, limits: &AnalysisLimits) -> Result<SupRatio, AnalysisError> {
        self.sup_ratio_traced(limits).map(|(result, _)| result)
    }

    /// [`DemandProfile::sup_ratio`] plus how it was answered.
    ///
    /// # Errors
    ///
    /// As for [`DemandProfile::sup_ratio`].
    pub fn sup_ratio_traced(
        &self,
        limits: &AnalysisLimits,
    ) -> Result<(SupRatio, WalkTrace), AnalysisError> {
        if let Some(scaled) = &self.scaled {
            if let Some((result, pruned)) = scaled.sup_ratio(limits)? {
                return Ok((
                    result,
                    WalkTrace {
                        kind: WalkKind::Integer,
                        pruned,
                        lockstep: false,
                    },
                ));
            }
        }
        self.sup_ratio_exact_traced(limits).map(|(result, pruned)| {
            (
                result,
                WalkTrace {
                    kind: WalkKind::Rational,
                    pruned,
                    lockstep: false,
                },
            )
        })
    }

    /// The exact rational reference implementation of
    /// [`DemandProfile::sup_ratio`] — the fallback when the integer fast
    /// path overflows, kept public for differential tests and benches.
    ///
    /// Like the fast path, it prunes against the tight
    /// [`DemandProfile::envelope_burst`] bound; the fully unpruned walk
    /// survives as [`DemandProfile::sup_ratio_reference`].
    ///
    /// # Errors
    ///
    /// As for [`DemandProfile::sup_ratio`].
    pub fn sup_ratio_exact(&self, limits: &AnalysisLimits) -> Result<SupRatio, AnalysisError> {
        self.sup_ratio_exact_traced(limits)
            .map(|(result, _)| result)
    }

    /// [`DemandProfile::sup_ratio_exact`] plus whether the envelope bound
    /// pruned the walk.
    pub(crate) fn sup_ratio_exact_traced(
        &self,
        limits: &AnalysisLimits,
    ) -> Result<(SupRatio, bool), AnalysisError> {
        let mut walk = IncrementalWalk::new(&self.components, limits.max_breakpoints());
        if walk.value.is_positive() {
            return Ok((SupRatio::Unbounded, false));
        }
        let rate = self.rate();
        let envelope = self.envelope_burst();
        let hyperperiod = self.hyperperiod();

        let mut best: Option<(Rational, Rational)> = None;
        // eval(Δ) ≤ rate·Δ + envelope ≤ best_ratio·Δ for
        // Δ ≥ envelope/(best_ratio − rate), and the improvement test is
        // strict, so nothing at or past the horizon can displace `best`.
        // Recomputed only when `best` improves (the walk's only division).
        let mut horizon: Option<Rational> = None;
        // Float shadow of `best`'s ratio, for a pre-filter on the exact
        // improvement test. i128→f64 conversion and f64 division are
        // correctly rounded, so each approximation is within a few ulps
        // (relative error < 1e-14) of the true ratio; a breakpoint is
        // skipped only when it trails `best` by more than a 1e-9-scaled
        // margin — far outside that error — so every true improvement
        // still reaches the exact division below.
        let mut best_f = f64::NEG_INFINITY;
        let to_f = |q: Rational| q.numer() as f64 / q.denom() as f64;
        let mut pruned = false;
        let mut examined = 0usize;
        while let Some(delta) = walk.peek_next() {
            if let Some(hp) = hyperperiod {
                if delta > hp {
                    break;
                }
            }
            if let Some(h) = horizon {
                if delta >= h {
                    pruned = true;
                    break;
                }
            }
            examined += 1;
            limits.check_walk(examined)?;
            walk.advance();
            let ratio_f = to_f(walk.value) / to_f(walk.delta);
            let margin = 1e-9 * ratio_f.abs().max(best_f.abs());
            if ratio_f < best_f - margin {
                continue;
            }
            let ratio = walk.value / walk.delta;
            if best.is_none_or(|(b, _)| ratio > b) {
                best = Some((ratio, walk.delta));
                best_f = ratio_f;
                if ratio > rate {
                    horizon = Some(envelope / (ratio - rate));
                }
            }
        }
        let sup = match best {
            None => SupRatio::Finite {
                value: Rational::ZERO,
                witness: None,
            },
            Some((value, witness)) => SupRatio::Finite {
                value,
                witness: Some(witness),
            },
        };
        Ok((sup, pruned))
    }

    /// The pre-pruning reference walk for `sup_{Δ > 0} eval(Δ)/Δ`: stops
    /// only at the hyperperiod or the *loose* `burst/(best − rate)`
    /// horizon. Kept as the independent oracle the envelope-pruned walks
    /// are differentially tested against, and as the bench reference that
    /// quantifies the pruning gain.
    ///
    /// # Errors
    ///
    /// As for [`DemandProfile::sup_ratio`] (the pruned walk may complete
    /// within budgets this reference exhausts).
    pub fn sup_ratio_reference(&self, limits: &AnalysisLimits) -> Result<SupRatio, AnalysisError> {
        let mut walk = IncrementalWalk::new(&self.components, limits.max_breakpoints());
        if walk.value.is_positive() {
            return Ok(SupRatio::Unbounded);
        }
        let rate = self.rate();
        let burst = self.burst();
        let hyperperiod = self.hyperperiod();

        let mut best: Option<(Rational, Rational)> = None;
        let mut horizon: Option<Rational> = None;
        let mut examined = 0usize;
        while let Some(delta) = walk.peek_next() {
            if let Some(hp) = hyperperiod {
                if delta > hp {
                    break;
                }
            }
            if let Some(h) = horizon {
                if delta > h {
                    break;
                }
            }
            examined += 1;
            limits.check_walk(examined)?;
            walk.advance();
            let ratio = walk.value / walk.delta;
            if best.is_none_or(|(b, _)| ratio > b) {
                best = Some((ratio, walk.delta));
                if ratio > rate {
                    horizon = Some(burst / (ratio - rate));
                }
            }
        }
        Ok(match best {
            None => SupRatio::Finite {
                value: Rational::ZERO,
                witness: None,
            },
            Some((value, witness)) => SupRatio::Finite {
                value,
                witness: Some(witness),
            },
        })
    }

    /// Decides `eval(Δ) ≤ speed·Δ` for all `Δ ≥ 0` — the EDF
    /// schedulability test at a given processor speed.
    ///
    /// Unlike [`DemandProfile::sup_ratio`] (which must pin down the exact
    /// supremum and therefore has no small horizon when the margin is
    /// thin), the decision walks breakpoints only up to
    /// `burst/(speed − rate)`: beyond it, `eval(Δ) ≤ rate·Δ + burst ≤
    /// speed·Δ` holds unconditionally. Prefer this for yes/no questions
    /// (LO-mode feasibility, "is `s` enough?").
    ///
    /// # Errors
    ///
    /// * [`AnalysisError::NonPositiveSpeed`] if `speed ≤ 0`.
    /// * [`AnalysisError::BreakpointBudgetExhausted`] only in the
    ///   `speed == rate` corner with an astronomically large hyperperiod.
    pub fn fits(&self, speed: Rational, limits: &AnalysisLimits) -> Result<bool, AnalysisError> {
        self.fits_traced(speed, limits).map(|(result, _)| result)
    }

    /// [`DemandProfile::fits`] plus how it was answered.
    ///
    /// # Errors
    ///
    /// As for [`DemandProfile::fits`].
    pub fn fits_traced(
        &self,
        speed: Rational,
        limits: &AnalysisLimits,
    ) -> Result<(bool, WalkTrace), AnalysisError> {
        if !speed.is_positive() {
            return Err(AnalysisError::NonPositiveSpeed);
        }
        if let Some(scaled) = &self.scaled {
            if let Some((result, pruned)) = scaled.fits(speed, limits)? {
                return Ok((
                    result,
                    WalkTrace {
                        kind: WalkKind::Integer,
                        pruned,
                        lockstep: false,
                    },
                ));
            }
        }
        self.fits_exact_traced(speed, limits)
            .map(|(result, pruned)| {
                (
                    result,
                    WalkTrace {
                        kind: WalkKind::Rational,
                        pruned,
                        lockstep: false,
                    },
                )
            })
    }

    /// The exact rational reference implementation of
    /// [`DemandProfile::fits`] — the fallback when the integer fast path
    /// overflows, kept public for differential tests and benches.
    ///
    /// # Errors
    ///
    /// As for [`DemandProfile::fits`].
    pub fn fits_exact(
        &self,
        speed: Rational,
        limits: &AnalysisLimits,
    ) -> Result<bool, AnalysisError> {
        self.fits_exact_traced(speed, limits)
            .map(|(result, _)| result)
    }

    /// [`DemandProfile::fits_exact`] plus whether the envelope bound
    /// pruned the walk short of the hyperperiod.
    pub(crate) fn fits_exact_traced(
        &self,
        speed: Rational,
        limits: &AnalysisLimits,
    ) -> Result<(bool, bool), AnalysisError> {
        if !speed.is_positive() {
            return Err(AnalysisError::NonPositiveSpeed);
        }
        let mut walk = IncrementalWalk::new(&self.components, limits.max_breakpoints());
        if walk.value.is_positive() {
            // Demand at Δ = 0 can never be served.
            return Ok((false, false));
        }
        let rate = self.rate();
        if speed < rate {
            // Demand grows at `rate` along hyperperiod multiples
            // (eval(kP) ≥ rate·kP); a slower supply eventually loses.
            return Ok((false, false));
        }
        let hyperperiod = self.hyperperiod();
        // At Δ ≥ envelope/(speed − rate) the envelope bound alone gives
        // eval(Δ) ≤ rate·Δ + envelope ≤ speed·Δ: no violation can exist
        // at or past the horizon, so the break may be inclusive.
        let horizon = if speed > rate {
            Some(self.envelope_burst() / (speed - rate))
        } else {
            None
        };
        let mut pruned = false;
        let mut examined = 0usize;
        while let Some(delta) = walk.peek_next() {
            if let Some(h) = horizon {
                if delta >= h {
                    pruned = hyperperiod.is_none_or(|hp| delta <= hp);
                    break;
                }
            }
            if let Some(hp) = hyperperiod {
                if delta > hp {
                    break;
                }
            }
            examined += 1;
            limits.check_walk(examined)?;
            walk.advance();
            if walk.value > speed * walk.delta {
                return Ok((false, false));
            }
        }
        Ok((true, pruned))
    }

    /// Computes `min{Δ ≥ 0 : eval(Δ) ≤ s·Δ}` exactly.
    ///
    /// Applied to the arrived demand bound this is Corollary 5's service
    /// resetting time (eq. (12)): the earliest instant after the mode
    /// switch by which a speed-`s` processor has provably drained all
    /// arrived demand.
    ///
    /// # Errors
    ///
    /// * [`AnalysisError::NonPositiveSpeed`] if `s ≤ 0`.
    /// * [`AnalysisError::BreakpointBudgetExhausted`] when no provable
    ///   stopping horizon is reached within the breakpoint budget.
    pub fn first_fit(
        &self,
        speed: Rational,
        limits: &AnalysisLimits,
    ) -> Result<FirstFit, AnalysisError> {
        self.first_fit_traced(speed, limits)
            .map(|(result, _)| result)
    }

    /// [`DemandProfile::first_fit`] plus how it was answered. A walk at
    /// or above the rate stops at its answer or the hyperperiod, never
    /// early; a below-rate walk that the envelope-floor horizon ends
    /// with `Never` before the hyperperiod bail-out would have fired
    /// reports `pruned`.
    ///
    /// # Errors
    ///
    /// As for [`DemandProfile::first_fit`].
    pub fn first_fit_traced(
        &self,
        speed: Rational,
        limits: &AnalysisLimits,
    ) -> Result<(FirstFit, WalkTrace), AnalysisError> {
        if !speed.is_positive() {
            return Err(AnalysisError::NonPositiveSpeed);
        }
        if let Some(scaled) = &self.scaled {
            if let Some((result, pruned)) =
                scaled.first_fit(speed, self.floor_horizon(speed), limits)?
            {
                return Ok((
                    result,
                    WalkTrace {
                        kind: WalkKind::Integer,
                        pruned,
                        lockstep: false,
                    },
                ));
            }
        }
        self.first_fit_exact_traced(speed, limits)
            .map(|(result, pruned)| {
                (
                    result,
                    WalkTrace {
                        kind: WalkKind::Rational,
                        pruned,
                        lockstep: false,
                    },
                )
            })
    }

    /// The exact rational reference implementation of
    /// [`DemandProfile::first_fit`] — the fallback when the integer fast
    /// path overflows, kept public for differential tests and benches.
    ///
    /// # Errors
    ///
    /// As for [`DemandProfile::first_fit`].
    pub fn first_fit_exact(
        &self,
        speed: Rational,
        limits: &AnalysisLimits,
    ) -> Result<FirstFit, AnalysisError> {
        self.first_fit_exact_traced(speed, limits)
            .map(|(result, _)| result)
    }

    /// [`DemandProfile::first_fit_exact`] plus whether the envelope-floor
    /// horizon cut the walk short of the hyperperiod.
    pub(crate) fn first_fit_exact_traced(
        &self,
        speed: Rational,
        limits: &AnalysisLimits,
    ) -> Result<(FirstFit, bool), AnalysisError> {
        if !speed.is_positive() {
            return Err(AnalysisError::NonPositiveSpeed);
        }
        let mut walk = IncrementalWalk::new(&self.components, limits.max_breakpoints());
        if !walk.value.is_positive() {
            return Ok((FirstFit::At(Rational::ZERO), false));
        }
        let rate = self.rate();
        let hyperperiod = self.hyperperiod();
        let floor_horizon = self.floor_horizon(speed);

        let mut examined = 0usize;
        loop {
            examined += 1;
            limits.check_walk(examined)?;
            let segment_start = walk.delta;
            let value = walk.value;
            let segment_end = walk
                .peek_next()
                .expect("periodic curves have unbounded breakpoints");
            if value <= speed * segment_start {
                return Ok((FirstFit::At(segment_start), false));
            }
            let slope = Rational::integer(i128::from(walk.slope));
            if speed > slope {
                // Solve value + slope·(Δ − start) = speed·Δ.
                let crossing = (value - slope * segment_start) / (speed - slope);
                if crossing < segment_end {
                    return Ok((FirstFit::At(crossing), false));
                }
            }
            if speed <= rate {
                // Supply slope never exceeds the long-run demand rate and
                // one full hyperperiod showed no fit: the gap can only
                // grow (demand(Δ+P) − s(Δ+P) ≥ demand(Δ) − sΔ). Strictly
                // below the rate, the gap is provably positive past the
                // envelope-floor horizon, which usually comes far sooner.
                let past_hyperperiod = hyperperiod.is_some_and(|hp| segment_start > hp);
                if past_hyperperiod || floor_horizon.is_some_and(|h| segment_start > h) {
                    return Ok((FirstFit::Never, !past_hyperperiod));
                }
            }
            walk.advance();
        }
    }

    /// Builds the reset frontier — the full staircase `s ↦ first_fit(s)`
    /// — in a single breakpoint walk, stopping as soon as `min_speed`
    /// itself is served.
    ///
    /// For `min_speed` at or above the rate the walk examines exactly the
    /// segments a plain [`DemandProfile::first_fit`] at `min_speed` would
    /// (same breakpoint budget consumption, same errors), but records
    /// every segment that lowers a serving threshold, so
    /// [`ResetFrontier::lookup`] afterwards answers *any* speed at or
    /// above `min_speed` — and often many below it — without walking
    /// again. Below the rate it runs out the full hyperperiod: the
    /// first-fit walk's envelope-floor cut at `min_speed` would truncate
    /// the staircase of faster speeds still below the rate, whose own
    /// horizons lie further out.
    ///
    /// The returned [`WalkKind`] reports whether the integer fast path
    /// built it.
    ///
    /// # Errors
    ///
    /// As for [`DemandProfile::first_fit`] at `min_speed` (including the
    /// budget exhaustion of a `min_speed ≤ rate()` build whose hyperperiod
    /// overflows).
    pub fn reset_frontier(
        &self,
        min_speed: Rational,
        limits: &AnalysisLimits,
    ) -> Result<(ResetFrontier, WalkKind), AnalysisError> {
        if !min_speed.is_positive() {
            return Err(AnalysisError::NonPositiveSpeed);
        }
        if let Some(scaled) = &self.scaled {
            if let Some(frontier) = scaled.reset_frontier(min_speed, limits)? {
                return Ok((frontier, WalkKind::Integer));
            }
        }
        self.reset_frontier_exact(min_speed, limits)
            .map(|frontier| (frontier, WalkKind::Rational))
    }

    /// The exact rational construction behind
    /// [`DemandProfile::reset_frontier`].
    fn reset_frontier_exact(
        &self,
        min_speed: Rational,
        limits: &AnalysisLimits,
    ) -> Result<ResetFrontier, AnalysisError> {
        let mut walk = IncrementalWalk::new(&self.components, limits.max_breakpoints());
        if !walk.value.is_positive() {
            return Ok(ResetFrontier::everything_fits_at_zero());
        }
        let rate = self.rate();
        let hyperperiod = self.hyperperiod();
        let mut builder = FrontierBuilder::new(min_speed);
        let mut examined = 0usize;
        loop {
            if builder.serves_min_speed() {
                break;
            }
            examined += 1;
            limits.check_walk(examined)?;
            let segment_start = walk.delta;
            let value = walk.value;
            let segment_end = walk
                .peek_next()
                .expect("periodic curves have unbounded breakpoints");
            let slope = Rational::integer(i128::from(walk.slope));
            // Closed threshold ψ: `s ≥ value/start` fits exactly at the
            // segment start (absent for the Δ = 0 segment — its value is
            // positive here, so no speed fits at 0).
            let closed_at = segment_start.is_positive().then(|| value / segment_start);
            // Open threshold θ: the crossing
            // `(value − slope·start)/(s − slope)` lands strictly inside
            // the segment iff `s > slope` and `s > φ_pre(end)` where
            // `φ_pre(end) = (value + slope·(end − start))/end` is the
            // pre-jump ratio at the segment's right end.
            let phi_pre = (value + slope * (segment_end - segment_start)) / segment_end;
            builder.push_segment(
                segment_start,
                value,
                walk.slope,
                closed_at,
                phi_pre.max(slope),
            );
            if min_speed <= rate {
                if let Some(hp) = hyperperiod {
                    if segment_start > hp {
                        // Mirrors first_fit's hyperperiod bail-out:
                        // min_speed is unserved after a full hyperperiod
                        // and can never be; the staircase above it is
                        // complete. (Not its envelope-floor cut — see
                        // `reset_frontier`.)
                        break;
                    }
                }
            }
            walk.advance();
        }
        Ok(builder.finish())
    }

    /// The infimum of `eval(Δ)/Δ` over `(0, horizon]`, early-stopped once
    /// it can no longer matter: scanning stops when the running infimum
    /// reaches `floor` or comes within `tolerance` of the long-run rate
    /// (the ratio's own limit), so the walk is horizon-bound even for
    /// astronomically large `horizon`.
    ///
    /// When the scan runs to completion and the result exceeds `floor`,
    /// it is the exact infimum — though a pre-jump limit at a segment end
    /// is *approached*, not attained, so a caller wanting a speed that
    /// provably fits must probe the returned value (one first-fit) and
    /// step up by its own resolution if the probe misses. When an early
    /// stop fires the result is a genuinely observed ratio at most
    /// `max(floor, rate + tolerance)` — still an upper bound on the
    /// infimum.
    ///
    /// This is the one-walk replacement for bisecting
    /// `minimal_speed_within_budget` queries: the minimal speed whose
    /// first fit lands within `horizon` is exactly this infimum.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::BreakpointBudgetExhausted`] if the scan's
    /// breakpoint budget runs out first.
    pub(crate) fn min_ratio_within(
        &self,
        horizon: Rational,
        floor: Rational,
        tolerance: Rational,
        limits: &AnalysisLimits,
    ) -> Result<(Rational, WalkKind), AnalysisError> {
        assert!(horizon.is_positive(), "horizon must be positive");
        assert!(tolerance.is_positive(), "tolerance must be positive");
        if let Some(scaled) = &self.scaled {
            if let Some(result) = scaled.min_ratio_within(horizon, floor, tolerance, limits)? {
                return Ok((result, WalkKind::Integer));
            }
        }
        self.min_ratio_within_exact(horizon, floor, tolerance, limits)
            .map(|result| (result, WalkKind::Rational))
    }

    /// The exact rational reference implementation of
    /// [`DemandProfile::min_ratio_within`] — the fallback when the
    /// integer fast path overflows.
    fn min_ratio_within_exact(
        &self,
        horizon: Rational,
        floor: Rational,
        tolerance: Rational,
        limits: &AnalysisLimits,
    ) -> Result<Rational, AnalysisError> {
        let mut walk = IncrementalWalk::new(&self.components, limits.max_breakpoints());
        if !walk.value.is_positive() {
            // A zero-at-zero profile is drained instantly at any speed.
            return Ok(Rational::ZERO);
        }
        // Stop once nothing below this can change the caller's answer:
        // ratios never go below `rate`, and `eval(Δ)/Δ ≤ rate + envelope/Δ`
        // guarantees the threshold is reached by Δ = envelope/tolerance,
        // so the scan is bounded even for astronomical horizons.
        let stop_at = floor.max(self.rate() + tolerance);
        let mut best: Option<Rational> = None;
        let mut examined = 0usize;
        loop {
            let segment_start = walk.delta;
            if segment_start > horizon {
                break;
            }
            examined += 1;
            limits.check_walk(examined)?;
            let value = walk.value;
            let segment_end = walk
                .peek_next()
                .expect("periodic curves have unbounded breakpoints");
            let slope = Rational::integer(i128::from(walk.slope));
            // Closed candidate at the segment start.
            if segment_start.is_positive() {
                let phi = value / segment_start;
                best = Some(best.map_or(phi, |b| b.min(phi)));
            }
            if segment_end <= horizon {
                // Pre-jump limit at the segment's right end.
                let phi_pre = (value + slope * (segment_end - segment_start)) / segment_end;
                best = Some(best.map_or(phi_pre, |b| b.min(phi_pre)));
            } else if horizon > segment_start {
                // The horizon cuts this segment: its interior point is
                // the rightmost in-domain candidate.
                let phi_cut = (value + slope * (horizon - segment_start)) / horizon;
                best = Some(best.map_or(phi_cut, |b| b.min(phi_cut)));
            }
            if best.is_some_and(|b| b <= stop_at) {
                break;
            }
            walk.advance();
        }
        Ok(best.expect("a positive-at-zero profile yields a candidate on its first segment"))
    }
}

impl Default for DemandProfile {
    /// The empty profile — identical to `DemandProfile::new(Vec::new())`
    /// (including its fast path, so equality with constructed empties
    /// holds).
    fn default() -> DemandProfile {
        DemandProfile::new(Vec::new())
    }
}

/// Breakpoint batches each live walk advances per round-robin turn of a
/// lockstep driver. Small enough that a batch's walk state (a few SoA
/// lanes) stays cache-resident across the turn, large enough that the
/// round-robin bookkeeping amortizes to noise; results are bit-identical
/// for *any* chunk size, so this is purely a locality knob.
pub(crate) const LOCKSTEP_CHUNK: usize = 64;

/// A heterogeneous resumable walk machine, so one lockstep driver can
/// interleave sup-ratio and fits walks in the same batch.
///
/// The variants differ in size, but boxing the large one would put a
/// heap allocation back on every lockstep walk — the machines live
/// inline in the driver's short-lived batch vector on purpose.
#[allow(clippy::large_enum_variant)]
pub(crate) enum AnyMachine {
    /// A [`SupRatioMachine`] walk.
    Sup(SupRatioMachine),
    /// A [`FitsMachine`] walk.
    Fits(FitsMachine),
}

/// The finished result of an [`AnyMachine`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum AnyOutcome {
    /// `(sup ratio, envelope-pruned)`.
    Sup(SupRatio, bool),
    /// `(fits, envelope-pruned)`.
    Fits(bool, bool),
}

impl AnyMachine {
    fn step(
        &mut self,
        batches: usize,
        limits: &AnalysisLimits,
    ) -> Result<MachineStep<AnyOutcome>, AnalysisError> {
        Ok(match self {
            AnyMachine::Sup(machine) => match machine.step(batches, limits)? {
                MachineStep::Pending => MachineStep::Pending,
                MachineStep::Overflow => MachineStep::Overflow,
                MachineStep::Done((sup, pruned)) => MachineStep::Done(AnyOutcome::Sup(sup, pruned)),
            },
            AnyMachine::Fits(machine) => match machine.step(batches, limits)? {
                MachineStep::Pending => MachineStep::Pending,
                MachineStep::Overflow => MachineStep::Overflow,
                MachineStep::Done((fits, pruned)) => {
                    MachineStep::Done(AnyOutcome::Fits(fits, pruned))
                }
            },
        })
    }
}

/// Drives `live` machines round-robin, [`LOCKSTEP_CHUNK`] breakpoint
/// batches per machine per round, until all finish. Each machine writes
/// its slot: `Some(Ok)` on completion, `Some(Err)` on a budget error,
/// and leaves `None` on integer overflow — the caller then runs the
/// exact rational fallback for those slots.
///
/// Every machine carries its own limits, and per-walk state (`examined`
/// counts, budget checks) is tracked per machine, so results are
/// bit-identical to driving each machine alone — the interleaving
/// affects cache behavior only.
pub(crate) fn drive_lockstep(
    mut live: Vec<(usize, AnyMachine, &AnalysisLimits)>,
    slots: &mut [Option<Result<AnyOutcome, AnalysisError>>],
) {
    while !live.is_empty() {
        live.retain_mut(
            |(i, machine, limits)| match machine.step(LOCKSTEP_CHUNK, limits) {
                Ok(MachineStep::Pending) => true,
                Ok(MachineStep::Done(outcome)) => {
                    slots[*i] = Some(Ok(outcome));
                    false
                }
                Ok(MachineStep::Overflow) => false,
                Err(error) => {
                    slots[*i] = Some(Err(error));
                    false
                }
            },
        );
    }
}

/// [`DemandProfile::sup_ratio_traced`] over many profiles at once,
/// advancing all integer fast-path walks in chunked lockstep for cache
/// locality. Results (and errors) are bit-identical to querying each
/// profile on its own; profiles whose fast path overflows (or is absent)
/// fall back to the exact rational walk afterwards, exactly as the
/// sequential query would. The returned traces report `lockstep: true`
/// for walks the batch driver completed.
///
/// # Errors
///
/// Per slot, as for [`DemandProfile::sup_ratio`].
pub fn sup_ratio_many(
    profiles: &[&DemandProfile],
    limits: &AnalysisLimits,
) -> Vec<Result<(SupRatio, WalkTrace), AnalysisError>> {
    let mut slots: Vec<Option<Result<AnyOutcome, AnalysisError>>> =
        (0..profiles.len()).map(|_| None).collect();
    let live = profiles
        .iter()
        .enumerate()
        .filter_map(|(i, profile)| {
            let machine = SupRatioMachine::new(profile.scaled()?, limits)?;
            Some((i, AnyMachine::Sup(machine), limits))
        })
        .collect();
    drive_lockstep(live, &mut slots);
    profiles
        .iter()
        .zip(slots)
        .map(|(profile, slot)| match slot {
            Some(Ok(AnyOutcome::Sup(sup, pruned))) => Ok((
                sup,
                WalkTrace {
                    kind: WalkKind::Integer,
                    pruned,
                    lockstep: true,
                },
            )),
            Some(Ok(AnyOutcome::Fits(..))) => unreachable!("sup machines yield sup outcomes"),
            Some(Err(error)) => Err(error),
            None => profile.sup_ratio_exact_traced(limits).map(|(sup, pruned)| {
                (
                    sup,
                    WalkTrace {
                        kind: WalkKind::Rational,
                        pruned,
                        lockstep: false,
                    },
                )
            }),
        })
        .collect()
}

/// [`DemandProfile::fits_traced`] over many `(profile, speed)` queries at
/// once, advancing all integer fast-path walks in chunked lockstep — the
/// batch counterpart of [`sup_ratio_many`], with the same bit-identity
/// contract.
///
/// # Errors
///
/// Per slot, as for [`DemandProfile::fits`] (including
/// [`AnalysisError::NonPositiveSpeed`] for that slot's speed).
pub fn fits_many(
    queries: &[(&DemandProfile, Rational)],
    limits: &AnalysisLimits,
) -> Vec<Result<(bool, WalkTrace), AnalysisError>> {
    let mut slots: Vec<Option<Result<AnyOutcome, AnalysisError>>> =
        (0..queries.len()).map(|_| None).collect();
    let mut live = Vec::new();
    for (i, (profile, speed)) in queries.iter().enumerate() {
        if !speed.is_positive() {
            slots[i] = Some(Err(AnalysisError::NonPositiveSpeed));
            continue;
        }
        if let Some(machine) = profile
            .scaled()
            .and_then(|s| FitsMachine::new(s, *speed, limits))
        {
            live.push((i, AnyMachine::Fits(machine), limits));
        }
    }
    drive_lockstep(live, &mut slots);
    queries
        .iter()
        .zip(slots)
        .map(|((profile, speed), slot)| match slot {
            Some(Ok(AnyOutcome::Fits(fits, pruned))) => Ok((
                fits,
                WalkTrace {
                    kind: WalkKind::Integer,
                    pruned,
                    lockstep: true,
                },
            )),
            Some(Ok(AnyOutcome::Sup(..))) => unreachable!("fits machines yield fits outcomes"),
            Some(Err(error)) => Err(error),
            None => profile
                .fits_exact_traced(*speed, limits)
                .map(|(fits, pruned)| {
                    (
                        fits,
                        WalkTrace {
                            kind: WalkKind::Rational,
                            pruned,
                            lockstep: false,
                        },
                    )
                }),
        })
        .collect()
}

impl FromIterator<PeriodicDemand> for DemandProfile {
    fn from_iter<I: IntoIterator<Item = PeriodicDemand>>(iter: I) -> DemandProfile {
        DemandProfile::new(iter.into_iter().collect())
    }
}

/// One recorded walk segment of a [`ResetFrontier`]: a breakpoint
/// interval that lowered a serving threshold when the frontier was
/// built, together with the data needed to reproduce
/// [`DemandProfile::first_fit`]'s answer inside it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FrontierRecord {
    /// Segment start `Δₖ`.
    start: Rational,
    /// Post-jump demand value at `Δₖ`.
    value: Rational,
    /// Integer demand slope on `[Δₖ, Δₖ₊₁)`.
    slope: i64,
    /// Closed threshold `ψₖ = value/start`: any `s ≥ ψₖ` fits exactly at
    /// `start`. Absent for the `Δ = 0` segment of a positive-at-zero
    /// profile (nothing fits at zero).
    closed_at: Option<Rational>,
    /// Open threshold `θₖ = max(slope, φ_pre(end))`: any `s > θₖ`
    /// (that fails the closed test) crosses demand strictly inside the
    /// segment at `(value − slope·start)/(s − slope)`.
    open_above: Rational,
}

impl FrontierRecord {
    /// Whether this record serves `speed`, and if so the exact first-fit
    /// instant — the same closed-then-crossing decision
    /// [`DemandProfile::first_fit`] makes on this segment.
    fn serve(&self, speed: Rational) -> Option<Rational> {
        if self.closed_at.is_some_and(|psi| speed >= psi) {
            return Some(self.start);
        }
        if speed > self.open_above {
            let slope = Rational::integer(i128::from(self.slope));
            return Some((self.value - slope * self.start) / (speed - slope));
        }
        None
    }
}

/// A [`FrontierRecord`] kept on the integer fast path's common timebase:
/// the same segment data as raw scaled integers, with no reduced
/// rationals built at record time. Nearly every walked segment lowers a
/// serving threshold and is recorded, so the integer build defers all
/// gcd-normalizing construction to the one record a lookup actually
/// lands on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ScaledFrontierRecord {
    /// Segment start `Δₖ·K` on the timebase `K`.
    pub(crate) start: i128,
    /// Post-jump demand `value·K` at the segment start.
    pub(crate) value: i128,
    /// Integer demand slope on the segment (scale-free).
    pub(crate) slope: i64,
    /// Raw open threshold `max(φ_pre(end), slope)` as a fraction with a
    /// positive denominator; the scale cancels in both candidates.
    pub(crate) open_num: i128,
    /// Denominator of the raw open threshold.
    pub(crate) open_den: i128,
}

impl ScaledFrontierRecord {
    /// The exact-representation record this scaled record denotes:
    /// `Rational::new`'s canonical reduction cancels the scale, so every
    /// field is bit-identical to what the exact rational build records.
    fn to_exact(&self, scale: i128) -> FrontierRecord {
        FrontierRecord {
            start: Rational::new(self.start, scale),
            value: Rational::new(self.value, scale),
            slope: self.slope,
            closed_at: (self.start > 0).then(|| Rational::new(self.value, self.start)),
            open_above: Rational::new(self.open_num, self.open_den),
        }
    }

    /// [`FrontierRecord::serve`] without materializing the record: the
    /// threshold tests are raw cross-multiplies, and only a served
    /// lookup builds its (reduced) answer. Falls back to the exact
    /// record on `i128` overflow.
    fn serve(&self, scale: i128, speed: Rational) -> Option<Rational> {
        // Closed test: speed ≥ value/start (absent when start = 0).
        if self.start > 0 {
            match cmp_raw(speed, self.value, self.start) {
                Some(Ordering::Greater | Ordering::Equal) => {
                    return Some(Rational::new(self.start, scale));
                }
                Some(Ordering::Less) => {}
                None => return self.to_exact(scale).serve(speed),
            }
        }
        // Crossing test: speed > max(φ_pre, slope), then the crossing
        // (value − slope·start)/(speed − slope) with the scale folded
        // into the denominator:
        // ((v' − m·Δ')/K)/((p − m·q)/q) = (v' − m·Δ')·q / (K·(p − m·q)).
        match cmp_raw(speed, self.open_num, self.open_den) {
            Some(Ordering::Greater) => {}
            Some(_) => return None,
            None => return self.to_exact(scale).serve(speed),
        }
        let slope = i128::from(self.slope);
        let exact = || self.to_exact(scale).serve(speed);
        let Some(num) = slope
            .checked_mul(self.start)
            .and_then(|ms| self.value.checked_sub(ms))
            .and_then(|a| a.checked_mul(speed.denom()))
        else {
            return exact();
        };
        let Some(den) = slope
            .checked_mul(speed.denom())
            .and_then(|mq| speed.numer().checked_sub(mq))
            .and_then(|d| d.checked_mul(scale))
        else {
            return exact();
        };
        Some(Rational::new(num, den))
    }
}

/// `speed.cmp(&(num/den))` by checked cross-multiplication (`den > 0`);
/// `None` when a product overflows `i128`.
fn cmp_raw(speed: Rational, num: i128, den: i128) -> Option<Ordering> {
    let lhs = speed.numer().checked_mul(den)?;
    let rhs = num.checked_mul(speed.denom())?;
    Some(lhs.cmp(&rhs))
}

/// The full non-increasing staircase `s ↦ Δ_R(s)` of a demand profile,
/// built by one breakpoint walk ([`DemandProfile::reset_frontier`]).
///
/// Every speed at or above the `min_speed` the frontier was built for is
/// covered; [`ResetFrontier::lookup`] then answers in time linear in the
/// (small) number of *records* — segments that lowered a serving
/// threshold — instead of re-walking breakpoints, and returns instants
/// bit-identical to a fresh [`DemandProfile::first_fit`] walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResetFrontier {
    repr: FrontierRepr,
    /// The profile's demand at `Δ = 0` is zero, so every positive speed
    /// fits instantly.
    fits_at_zero: bool,
}

/// The two record representations behind a [`ResetFrontier`]: reduced
/// rationals from the exact build, or raw scaled integers from the
/// integer fast path (whose lookups materialize rationals only for the
/// record that serves). Both answer lookups bit-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
enum FrontierRepr {
    Exact {
        records: Vec<FrontierRecord>,
        /// Running minimum of the closed thresholds: `s ≥ closed_cover`
        /// is served by some record's closed test.
        closed_cover: Option<Rational>,
        /// Running minimum of the open thresholds: `s > open_cover` is
        /// served by some record's crossing test.
        open_cover: Option<Rational>,
    },
    Scaled {
        /// The common timebase every record's `start`/`value` is on.
        scale: i128,
        records: Vec<ScaledFrontierRecord>,
        /// As for the exact representation, but raw unreduced fractions
        /// (positive denominators).
        closed_cover: Option<(i128, i128)>,
        open_cover: Option<(i128, i128)>,
    },
}

impl ResetFrontier {
    /// The frontier of a profile with zero demand at `Δ = 0`.
    pub(crate) fn everything_fits_at_zero() -> ResetFrontier {
        ResetFrontier {
            repr: FrontierRepr::Exact {
                records: Vec::new(),
                closed_cover: None,
                open_cover: None,
            },
            fits_at_zero: true,
        }
    }

    /// A frontier built by the integer fast path on timebase `scale`.
    pub(crate) fn from_scaled(
        scale: i128,
        records: Vec<ScaledFrontierRecord>,
        closed_cover: Option<(i128, i128)>,
        open_cover: Option<(i128, i128)>,
    ) -> ResetFrontier {
        ResetFrontier {
            repr: FrontierRepr::Scaled {
                scale,
                records,
                closed_cover,
                open_cover,
            },
            fits_at_zero: false,
        }
    }

    /// Whether [`ResetFrontier::lookup`] can answer for `speed` without
    /// another walk. Coverage is upward-closed: everything at or above
    /// the build's `min_speed` is covered.
    #[must_use]
    pub fn covers(&self, speed: Rational) -> bool {
        if !speed.is_positive() {
            return false;
        }
        if self.fits_at_zero {
            return true;
        }
        match &self.repr {
            FrontierRepr::Exact {
                closed_cover,
                open_cover,
                ..
            } => {
                closed_cover.is_some_and(|psi| speed >= psi)
                    || open_cover.is_some_and(|theta| speed > theta)
            }
            FrontierRepr::Scaled {
                closed_cover,
                open_cover,
                ..
            } => {
                closed_cover.is_some_and(|(num, den)| {
                    match cmp_raw(speed, num, den) {
                        Some(ord) => ord != Ordering::Less,
                        // Overflowing cross-multiply: reduce and retry.
                        None => speed >= Rational::new(num, den),
                    }
                }) || open_cover.is_some_and(|(num, den)| match cmp_raw(speed, num, den) {
                    Some(ord) => ord == Ordering::Greater,
                    None => speed > Rational::new(num, den),
                })
            }
        }
    }

    /// The exact first instant at which a supply of slope `speed` drains
    /// all arrived demand — bit-identical to
    /// [`DemandProfile::first_fit`] at that speed — or `None` when
    /// `speed` is below the frontier's covered range (an uncovered speed
    /// needs a fresh walk; it may or may not fit).
    #[must_use]
    pub fn lookup(&self, speed: Rational) -> Option<FirstFit> {
        if !speed.is_positive() {
            return None;
        }
        if self.fits_at_zero {
            return Some(FirstFit::At(Rational::ZERO));
        }
        if !self.covers(speed) {
            return None;
        }
        // Records are in breakpoint order, so the first serving record is
        // the segment a plain walk would have stopped at: any earlier
        // segment that served `speed` would have lowered the same
        // threshold and been recorded itself.
        match &self.repr {
            FrontierRepr::Exact { records, .. } => records
                .iter()
                .find_map(|record| record.serve(speed))
                .map(FirstFit::At),
            FrontierRepr::Scaled { scale, records, .. } => records
                .iter()
                .find_map(|record| record.serve(*scale, speed))
                .map(FirstFit::At),
        }
    }

    /// Repairs this frontier across a task-set delta whose removed and
    /// added components are all zero on `[0, cut)` (`cut = None`: the
    /// changed components are identically zero, so the whole staircase
    /// survives). Returns the surviving frontier, or `None` when no
    /// record can be kept and the next query must re-walk.
    ///
    /// Demand below `cut` is bit-identical before and after the delta,
    /// so every record whose *whole* segment lies below `cut` still
    /// reproduces [`DemandProfile::first_fit`] on the new profile: its
    /// `value`/`slope`/threshold data only describe demand inside the
    /// segment, and both the closed answer (the segment start) and the
    /// crossing answer land strictly inside it. A record's segment ends
    /// at the next breakpoint, which is at most the next *record's*
    /// start — that is the bound checked here, which conservatively
    /// drops the final record (its end is not stored). Records are kept
    /// in breakpoint order as a prefix, so "first serving record" —
    /// the lookup rule — still selects the segment a fresh walk would
    /// stop at, and the coverage thresholds are refolded over the kept
    /// prefix (a covered speed is thus still served by a kept record).
    #[must_use]
    pub(crate) fn truncated_below(self, cut: Option<Rational>) -> Option<ResetFrontier> {
        let Some(cut) = cut else {
            return Some(self);
        };
        if self.fits_at_zero {
            // Demand at Δ = 0 is still zero (the changed components are
            // zero on [0, cut) ∋ 0), so every positive speed still fits
            // instantly — but only when the cut is not itself at zero.
            return cut.is_positive().then_some(self);
        }
        match self.repr {
            FrontierRepr::Exact { records, .. } => {
                let kept = records
                    .iter()
                    .skip(1)
                    .take_while(|r| r.start <= cut)
                    .count();
                if kept == 0 {
                    return None;
                }
                let mut records = records;
                records.truncate(kept);
                let closed_cover = records.iter().filter_map(|r| r.closed_at).min();
                let open_cover = records.iter().map(|r| r.open_above).min();
                Some(ResetFrontier {
                    repr: FrontierRepr::Exact {
                        records,
                        closed_cover,
                        open_cover,
                    },
                    fits_at_zero: false,
                })
            }
            FrontierRepr::Scaled { scale, records, .. } => {
                let kept = records
                    .iter()
                    .skip(1)
                    .take_while(|r| Rational::new(r.start, scale) <= cut)
                    .count();
                if kept == 0 {
                    return None;
                }
                let mut records = records;
                records.truncate(kept);
                // Raw running minima, exactly as the integer builder
                // tracks them; an overflowing cross-multiply falls back
                // to the reduced comparison (value-equal either way).
                let raw_min = |acc: Option<(i128, i128)>, cand: (i128, i128)| match acc {
                    None => Some(cand),
                    Some(best) => {
                        let cand_smaller =
                            match cmp_raw(Rational::new(cand.0, cand.1), best.0, best.1) {
                                Some(ord) => ord == Ordering::Less,
                                None => {
                                    Rational::new(cand.0, cand.1) < Rational::new(best.0, best.1)
                                }
                            };
                        Some(if cand_smaller { cand } else { best })
                    }
                };
                let closed_cover = records
                    .iter()
                    .filter(|r| r.start > 0)
                    .map(|r| (r.value, r.start))
                    .fold(None, raw_min);
                let open_cover = records
                    .iter()
                    .map(|r| (r.open_num, r.open_den))
                    .fold(None, raw_min);
                Some(ResetFrontier {
                    repr: FrontierRepr::Scaled {
                        scale,
                        records,
                        closed_cover,
                        open_cover,
                    },
                    fits_at_zero: false,
                })
            }
        }
    }

    /// Number of recorded threshold-improving segments (diagnostics).
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.repr {
            FrontierRepr::Exact { records, .. } => records.len(),
            FrontierRepr::Scaled { records, .. } => records.len(),
        }
    }

    /// Whether the frontier holds no records (an empty or zero-at-zero
    /// profile, or a build that bailed before any segment).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Shared accumulation logic behind both the exact and the integer
/// fast-path frontier builds: pushes exactly the segments that lower a
/// serving threshold and tracks when the build's `min_speed` is served.
pub(crate) struct FrontierBuilder {
    min_speed: Rational,
    records: Vec<FrontierRecord>,
    closed_cover: Option<Rational>,
    open_cover: Option<Rational>,
}

impl FrontierBuilder {
    pub(crate) fn new(min_speed: Rational) -> FrontierBuilder {
        FrontierBuilder {
            min_speed,
            records: Vec::new(),
            closed_cover: None,
            open_cover: None,
        }
    }

    /// Whether the segments pushed so far already serve the build's
    /// `min_speed` — the walk's stopping condition, equivalent to a plain
    /// first-fit walk at `min_speed` having returned.
    pub(crate) fn serves_min_speed(&self) -> bool {
        self.closed_cover.is_some_and(|psi| self.min_speed >= psi)
            || self.open_cover.is_some_and(|theta| self.min_speed > theta)
    }

    /// Considers one walk segment; records it iff it lowers the closed or
    /// the open serving threshold.
    pub(crate) fn push_segment(
        &mut self,
        start: Rational,
        value: Rational,
        slope: i64,
        closed_at: Option<Rational>,
        open_above: Rational,
    ) {
        let improves_closed =
            closed_at.is_some_and(|psi| self.closed_cover.is_none_or(|cur| psi < cur));
        let improves_open = self.open_cover.is_none_or(|cur| open_above < cur);
        if improves_closed || improves_open {
            self.records.push(FrontierRecord {
                start,
                value,
                slope,
                closed_at,
                open_above,
            });
            if improves_closed {
                self.closed_cover = closed_at;
            }
            if improves_open {
                self.open_cover = Some(open_above);
            }
        }
    }

    pub(crate) fn finish(self) -> ResetFrontier {
        ResetFrontier {
            repr: FrontierRepr::Exact {
                records: self.records,
                closed_cover: self.closed_cover,
                open_cover: self.open_cover,
            },
            fits_at_zero: false,
        }
    }
}

/// How an [`IncrementalWalk`] schedules its event streams.
///
/// Every stream is strictly periodic, so the walk needs only "next
/// pending time" per stream plus their minimum. When all stream times
/// and periods fit one integer grid (with headroom for the caller's
/// advance budget), the schedule keeps them as flat `i128` lanes and
/// each batch is one linear scan — no rational time arithmetic, no heap
/// sift, and the structure-of-arrays layout of [`crate::kernel`]. The
/// heap fallback covers profiles whose timebase overflows the grid.
///
/// Grid times are exact (`t = t'·K` with `K` the lcm of the stream
/// denominators) and [`IncrementalWalk::peek_next`] rebuilds rationals
/// through `Rational::new`'s canonical reduction, so both schedules
/// produce representation-identical breakpoints in the same order —
/// same-time events fire in stream creation order either way (the heap
/// keys are `(time, stream)` with streams numbered in creation order).
enum Schedule {
    /// Flat integer lanes on the common timebase `scale`.
    Grid {
        scale: i128,
        /// The grid time already advanced to (`delta·scale`).
        at: i128,
        /// Minimum of `times` (meaningless while `times` is empty).
        next: i128,
        /// `next/scale` reduced once per advance, so peeks and the
        /// segment bookkeeping don't re-run the gcd every breakpoint.
        next_q: Rational,
        times: Vec<i128>,
        periods: Vec<i128>,
    },
    /// Exact rational times for profiles off the integer grid.
    Heap {
        heap: BinaryHeap<Reverse<(Rational, usize)>>,
        periods: Vec<Rational>,
    },
}

/// Walks the merged breakpoint stream of a profile while maintaining the
/// exact curve value and slope incrementally — O(events) rational
/// operations per batch instead of a full O(components) re-evaluation
/// with divisions at every breakpoint.
///
/// Invariant after construction / each [`IncrementalWalk::advance`]:
/// `value == Σ_i eval_i(delta)` (the right-continuous, post-jump value)
/// and `slope` is the number of components inside their unit-slope ramp
/// on the right of `delta`.
///
/// Each event stream fires a precomputed `(value, slope)` delta: a wrap
/// stream adds `per_period` minus the carry the ramp reset forfeits, a
/// ramp-start stream adds the jump (and slope 1 for a true ramp), a
/// ramp-end stream subtracts slope 1. Value arithmetic is identical
/// under both schedules — only event *timing* moves to the grid.
struct IncrementalWalk {
    fire_value: Vec<Rational>,
    fire_slope: Vec<i64>,
    schedule: Schedule,
    delta: Rational,
    value: Rational,
    slope: i64,
}

impl IncrementalWalk {
    /// Builds the walk. `max_advances` bounds how many times the caller
    /// will [`IncrementalWalk::advance`]; the grid schedule is chosen
    /// only when every stream time stays in `i128` for that many firings
    /// (queries pass their breakpoint budget — the walk errors out of it
    /// before ever advancing further).
    fn new(components: &[PeriodicDemand], max_advances: usize) -> IncrementalWalk {
        let mut fire_value = Vec::with_capacity(components.len() * 2);
        let mut fire_slope = Vec::with_capacity(components.len() * 2);
        let mut starts = Vec::with_capacity(components.len() * 2);
        let mut periods = Vec::with_capacity(components.len() * 2);
        let mut value = Rational::ZERO;
        let mut slope = 0i64;
        for c in components {
            let ramp_restarts_at_wrap = c.ramp_start.is_zero();
            // Value and slope contributions at Δ = 0.
            value += c.constant;
            if ramp_restarts_at_wrap {
                value += c.jump;
                if c.ramp_len.is_positive() {
                    slope += 1;
                }
            }
            // r just below a period boundary: the ramp clipped at T.
            let carry_at_wrap = c.jump + (c.period - c.ramp_start).min(c.ramp_len);
            let r_at_zero = if ramp_restarts_at_wrap {
                c.jump
            } else {
                Rational::ZERO
            };
            // Just below the wrap the ramp is active iff it has not
            // finished strictly before the period end (a ramp ending
            // exactly at T is still climbing at T⁻).
            let in_ramp_before_wrap =
                c.ramp_len.is_positive() && (c.period - c.ramp_start) <= c.ramp_len;
            let in_ramp_after_wrap = ramp_restarts_at_wrap && c.ramp_len.is_positive();
            // Wrap stream: crossing a period boundary `kT` (`k ≥ 1`)
            // gains `per_period` while the carry term resets from its
            // clipped full value to `r(0)`.
            starts.push(c.period);
            periods.push(c.period);
            fire_value.push(c.per_period - carry_at_wrap + r_at_zero);
            fire_slope.push(i64::from(in_ramp_after_wrap) - i64::from(in_ramp_before_wrap));
            if c.ramp_start.is_positive() {
                // A ramp of positive length raises the slope; a pure
                // step (ramp_len = 0) does not.
                starts.push(c.ramp_start);
                periods.push(c.period);
                fire_value.push(c.jump);
                fire_slope.push(i64::from(!c.ramp_len.is_zero()));
            }
            // Ramp ends are needed even when the ramp starts at offset 0
            // (the wrap event restarts it); clipped ramps (running past
            // the period end) end via the wrap's slope delta instead.
            let ramp_end = c.ramp_start + c.ramp_len;
            if c.ramp_len.is_positive() && ramp_end < c.period {
                starts.push(ramp_end);
                periods.push(c.period);
                fire_value.push(Rational::ZERO);
                fire_slope.push(-1);
            }
        }
        let schedule =
            Schedule::grid(&starts, &periods, max_advances).unwrap_or_else(|| Schedule::Heap {
                heap: starts
                    .iter()
                    .enumerate()
                    .map(|(s, &t)| Reverse((t, s)))
                    .collect(),
                periods,
            });
        IncrementalWalk {
            fire_value,
            fire_slope,
            schedule,
            delta: Rational::ZERO,
            value,
            slope,
        }
    }

    /// The time of the next event batch, if any.
    fn peek_next(&self) -> Option<Rational> {
        match &self.schedule {
            Schedule::Grid { next_q, times, .. } => (!times.is_empty()).then_some(*next_q),
            Schedule::Heap { heap, .. } => heap.peek().map(|Reverse((t, _))| *t),
        }
    }

    /// Advances to the next event batch, applying the linear segment and
    /// every event due at that instant.
    ///
    /// # Panics
    ///
    /// Panics on an empty profile (no events exist), or past the
    /// `max_advances` bound the grid schedule was proofed for.
    fn advance(&mut self) {
        let IncrementalWalk {
            fire_value,
            fire_slope,
            schedule,
            delta,
            value,
            slope,
        } = self;
        match schedule {
            Schedule::Grid {
                scale,
                at,
                next,
                next_q,
                times,
                periods,
            } => {
                assert!(!times.is_empty(), "advance on an empty profile");
                let due = *next;
                // Segment contribution `slope·(next_q − delta)` computed
                // on the grid: one reduction through `Rational::new`
                // instead of a sub/mul rational chain. Canonical forms
                // are unique, so the sum is bit-identical; a slope of
                // zero contributes exactly `ZERO` either way.
                if *slope != 0 {
                    match (due - *at).checked_mul(i128::from(*slope)) {
                        Some(n) => *value += Rational::new(n, *scale),
                        None => {
                            *value += Rational::integer(i128::from(*slope)) * (*next_q - *delta);
                        }
                    }
                }
                *delta = *next_q;
                *at = due;
                let mut new_min = i128::MAX;
                for j in 0..times.len() {
                    let mut t = times[j];
                    if t == due {
                        *value += fire_value[j];
                        *slope += fire_slope[j];
                        t = t
                            .checked_add(periods[j])
                            .expect("grid schedule overflow-proofed at construction");
                        times[j] = t;
                    }
                    new_min = new_min.min(t);
                }
                *next = new_min;
                *next_q = Rational::new(new_min, *scale);
            }
            Schedule::Heap { heap, periods } => {
                let Some(&Reverse((next_t, _))) = heap.peek() else {
                    panic!("advance on an empty profile");
                };
                *value += Rational::integer(i128::from(*slope)) * (next_t - *delta);
                *delta = next_t;
                while let Some(&Reverse((t, s))) = heap.peek() {
                    if t != next_t {
                        break;
                    }
                    heap.pop();
                    *value += fire_value[s];
                    *slope += fire_slope[s];
                    heap.push(Reverse((t + periods[s], s)));
                }
            }
        }
    }
}

impl Schedule {
    /// Attempts the integer grid over the stream start times and periods:
    /// `scale` is the lcm of their denominators, and eligibility requires
    /// every stream's time to stay in `i128` after `max_advances` firings
    /// (each advance moves a stream by at most one period). `None` falls
    /// back to the heap.
    fn grid(starts: &[Rational], periods: &[Rational], max_advances: usize) -> Option<Schedule> {
        let mut scale: i128 = 1;
        for q in starts.iter().chain(periods) {
            scale = lcm_i128(scale, q.denom())?;
        }
        let times: Vec<i128> = starts
            .iter()
            .map(|&q| crate::scaled::to_scaled(q, scale))
            .collect::<Option<_>>()?;
        let periods: Vec<i128> = periods
            .iter()
            .map(|&q| crate::scaled::to_scaled(q, scale))
            .collect::<Option<_>>()?;
        // Overflow headroom: after A advances a stream sits at most at
        // `start + A·period`, and the A-th advance may compute one more
        // reschedule — proof the worst case with margin so the advance
        // loop's reschedule can never wrap.
        let advances = i128::try_from(max_advances).ok()?.checked_add(2)?;
        let start_max = times.iter().copied().max().unwrap_or(0);
        let period_max = periods.iter().copied().max().unwrap_or(0);
        period_max.checked_mul(advances)?.checked_add(start_max)?;
        let next = times.iter().copied().min().unwrap_or(0);
        Some(Schedule::Grid {
            scale,
            at: 0,
            next,
            next_q: Rational::new(next, scale),
            times,
            periods,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(v: i128) -> Rational {
        Rational::integer(v)
    }

    fn rat(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    /// DBF_HI-shaped component of the paper's reconstructed τ1:
    /// T=5, C_L=1, C_H=2, D_L=2, D_H=5 → offset 3, jump 1, ramp 1.
    fn tau1_hi_curve() -> PeriodicDemand {
        PeriodicDemand::new(int(5), int(2), int(0), int(3), int(1), int(1))
    }

    #[test]
    fn step_curve_matches_dbf_lo_formula() {
        // T=10, D=4, C=3.
        let c = PeriodicDemand::step(int(10), int(4), int(3));
        let dbf = |delta: i128| {
            // max(floor((Δ-D)/T)+1, 0) * C
            (((delta - 4).div_euclid(10) + 1).max(0)) * 3
        };
        for delta in 0..=45 {
            assert_eq!(c.eval(int(delta)), int(dbf(delta)), "Δ={delta}");
        }
    }

    #[test]
    fn ramp_curve_values() {
        let c = tau1_hi_curve();
        assert_eq!(c.eval(int(0)), int(0));
        assert_eq!(c.eval(int(2)), int(0));
        assert_eq!(c.eval(int(3)), int(1)); // jump C_H - C_L at offset 3
        assert_eq!(c.eval(rat(7, 2)), rat(3, 2)); // mid-ramp
        assert_eq!(c.eval(int(4)), int(2)); // ramp complete = C_H
        assert_eq!(c.eval(rat(9, 2)), int(2)); // plateau
        assert_eq!(c.eval(int(5)), int(2)); // new period, r resets
        assert_eq!(c.eval(int(8)), int(3));
        assert_eq!(c.eval(int(9)), int(4));
    }

    #[test]
    fn curve_is_non_decreasing() {
        let c = tau1_hi_curve();
        let mut prev = Rational::ZERO;
        for i in 0..200 {
            let delta = rat(i, 7);
            let v = c.eval(delta);
            assert!(v >= prev, "decrease at Δ={delta}");
            prev = v;
        }
    }

    #[test]
    fn rate_and_burst_bound_the_curve() {
        let c = tau1_hi_curve();
        assert_eq!(c.rate(), rat(2, 5));
        for i in 1..300 {
            let delta = rat(i, 3);
            assert!(c.eval(delta) <= c.rate() * delta + c.burst());
        }
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn excess_jump_is_rejected() {
        let _ = PeriodicDemand::new(int(5), int(1), int(0), int(0), int(2), int(0));
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_is_rejected() {
        let _ = PeriodicDemand::new(int(0), int(1), int(0), int(0), int(1), int(0));
    }

    #[test]
    fn sup_ratio_single_implicit_task() {
        // T = D = 4, C = 1: sup at Δ=4, ratio 1/4.
        let p = DemandProfile::new(vec![PeriodicDemand::step(int(4), int(4), int(1))]);
        let sup = p.sup_ratio(&AnalysisLimits::default()).expect("finite");
        assert_eq!(
            sup,
            SupRatio::Finite {
                value: rat(1, 4),
                witness: Some(int(4))
            }
        );
    }

    #[test]
    fn sup_ratio_constrained_deadline_task() {
        // T=10, D=2, C=1: densest at Δ=2: 1/2.
        let p = DemandProfile::new(vec![PeriodicDemand::step(int(10), int(2), int(1))]);
        let sup = p.sup_ratio(&AnalysisLimits::default()).expect("finite");
        assert_eq!(
            sup,
            SupRatio::Finite {
                value: rat(1, 2),
                witness: Some(int(2))
            }
        );
    }

    #[test]
    fn sup_ratio_of_table1_reconstruction_is_four_thirds() {
        // τ1 DBF_HI plus τ2 (LO, no degradation): T=10, D_H=D_L=10, C=3
        // → offset 0, jump 0, ramp 3.
        let tau2 = PeriodicDemand::new(int(10), int(3), int(0), int(0), int(0), int(3));
        let p = DemandProfile::new(vec![tau1_hi_curve(), tau2]);
        let sup = p.sup_ratio(&AnalysisLimits::default()).expect("finite");
        assert_eq!(
            sup,
            SupRatio::Finite {
                value: rat(4, 3),
                witness: Some(int(3))
            }
        );
    }

    #[test]
    fn sup_ratio_detects_unbounded_demand_at_zero() {
        // Jump at offset 0 means demand at Δ=0 is positive: s_min = ∞.
        let c = PeriodicDemand::new(int(5), int(2), int(0), int(0), int(1), int(1));
        let p = DemandProfile::new(vec![c]);
        assert_eq!(
            p.sup_ratio(&AnalysisLimits::default()).expect("ok"),
            SupRatio::Unbounded
        );
    }

    #[test]
    fn sup_ratio_of_empty_profile_is_zero() {
        let p = DemandProfile::default();
        assert_eq!(
            p.sup_ratio(&AnalysisLimits::default()).expect("ok"),
            SupRatio::Finite {
                value: Rational::ZERO,
                witness: None
            }
        );
    }

    #[test]
    fn sup_ratio_matches_dense_scan() {
        // Two tasks with awkward parameters; cross-check against a dense
        // scan at 1/64 resolution over 4 hyperperiods.
        let a = PeriodicDemand::new(int(6), int(3), int(0), rat(5, 2), int(1), int(2));
        let b = PeriodicDemand::step(int(4), int(3), int(1));
        let p = DemandProfile::new(vec![a, b]);
        let sup = p.sup_ratio(&AnalysisLimits::default()).expect("finite");
        let SupRatio::Finite { value, witness } = sup else {
            panic!("finite expected");
        };
        let mut best_scan = Rational::ZERO;
        for i in 1..=(48 * 64) {
            let delta = rat(i, 64);
            best_scan = best_scan.max(p.eval(delta) / delta);
        }
        assert!(value >= best_scan, "sup {value} below scan {best_scan}");
        // The witness attains the reported value.
        let w = witness.expect("witness");
        assert_eq!(p.eval(w) / w, value);
    }

    #[test]
    fn sup_ratio_respects_breakpoint_budget() {
        // Coprime periods with large lcm under a tiny budget. Rate is
        // high enough that demand-at-breakpoints stays below rate for a
        // while only if... here we simply check the error surfaces when
        // the budget is absurdly small.
        let a = PeriodicDemand::step(int(10_007), int(1), int(1));
        let b = PeriodicDemand::step(int(10_009), int(10_008), int(10_000));
        let p = DemandProfile::new(vec![a, b]);
        let result = p.sup_ratio(&AnalysisLimits::new(2));
        assert!(matches!(
            result,
            Err(AnalysisError::BreakpointBudgetExhausted { .. }) | Ok(_)
        ));
    }

    #[test]
    fn first_fit_zero_demand_fits_immediately() {
        let p = DemandProfile::default();
        assert_eq!(
            p.first_fit(Rational::ONE, &AnalysisLimits::default())
                .expect("ok"),
            FirstFit::At(Rational::ZERO)
        );
    }

    #[test]
    fn first_fit_rejects_non_positive_speed() {
        let p = DemandProfile::default();
        assert_eq!(
            p.first_fit(Rational::ZERO, &AnalysisLimits::default()),
            Err(AnalysisError::NonPositiveSpeed)
        );
    }

    #[test]
    fn first_fit_single_burst() {
        // ADB-like: constant 2 at Δ=0, no further demand for a long time
        // (period 100). At speed 1 the fit is at Δ=2.
        let c = PeriodicDemand::new(int(100), int(2), int(2), int(50), int(0), int(2));
        let p = DemandProfile::new(vec![c]);
        assert_eq!(
            p.first_fit(Rational::ONE, &AnalysisLimits::default())
                .expect("ok"),
            FirstFit::At(int(2))
        );
        // At speed 2 the fit is at Δ=1.
        assert_eq!(
            p.first_fit(Rational::TWO, &AnalysisLimits::default())
                .expect("ok"),
            FirstFit::At(int(1))
        );
    }

    #[test]
    fn first_fit_accounts_for_recurring_arrivals() {
        // constant 3 plus 3 more every 4 time units (arrival at each kT,
        // offset 0 jump). At speed 1: demand(Δ) = 3 + 3·floor(Δ/4)+3·[u≥0]
        // Let's model arrivals via ramp at offset 0 with jump 3.
        let c = PeriodicDemand::new(int(4), int(3), int(3), int(0), int(3), int(0));
        let p = DemandProfile::new(vec![c]);
        // demand(Δ) = 6 + 3·⌊Δ/4⌋. On segment [12, 16) demand is 15, so
        // unit-rate supply first catches up at Δ = 15 (supply 15 ≥ 15).
        assert_eq!(
            p.first_fit(Rational::ONE, &AnalysisLimits::default())
                .expect("ok"),
            FirstFit::At(int(15))
        );
    }

    #[test]
    fn first_fit_never_when_speed_below_rate() {
        // rate 1 (C=4 every T=4, plus initial burst): speed 1/2 < 1.
        let c = PeriodicDemand::new(int(4), int(4), int(4), int(0), int(4), int(0));
        let p = DemandProfile::new(vec![c]);
        assert_eq!(
            p.first_fit(rat(1, 2), &AnalysisLimits::default())
                .expect("ok"),
            FirstFit::Never
        );
    }

    #[test]
    fn first_fit_never_when_speed_equals_rate_with_offset_demand() {
        // demand(Δ) = 2 + Δ·1 effectively... use constant 2, rate 1:
        // gap stays 2 forever at speed 1.
        let c = PeriodicDemand::new(int(4), int(4), int(2), int(0), int(4), int(0));
        let p = DemandProfile::new(vec![c]);
        assert_eq!(
            p.first_fit(Rational::ONE, &AnalysisLimits::default())
                .expect("ok"),
            FirstFit::Never
        );
    }

    #[test]
    fn first_fit_lands_mid_segment_exactly() {
        // constant 5, next breakpoint far away; speed 2 → crossing at 5/2.
        let c = PeriodicDemand::new(int(1000), int(5), int(5), int(999), int(0), int(1));
        let p = DemandProfile::new(vec![c]);
        assert_eq!(
            p.first_fit(Rational::TWO, &AnalysisLimits::default())
                .expect("ok"),
            FirstFit::At(rat(5, 2))
        );
    }

    #[test]
    fn first_fit_waits_out_a_ramp() {
        // A ramp with slope 1 starting at 0 of length 10 (period 100,
        // per_period 10), constant 0... demand(0)=0 → fits at 0.
        // Instead: constant 1 then ramp at offset 0: demand = 1 + min(Δ,10)
        // within first period. At speed 1: 1 + Δ > Δ during ramp; after
        // ramp: 11 ≤ Δ at Δ=11 < 100 ✓.
        let c = PeriodicDemand::new(int(100), int(11), int(1), int(0), int(0), int(10));
        let p = DemandProfile::new(vec![c]);
        assert_eq!(
            p.first_fit(Rational::ONE, &AnalysisLimits::default())
                .expect("ok"),
            FirstFit::At(int(11))
        );
    }

    #[test]
    fn incremental_walk_visits_sorted_breakpoints_with_exact_values() {
        let a = PeriodicDemand::step(int(4), int(2), int(1));
        let b = PeriodicDemand::step(int(6), int(2), int(1));
        let profile = DemandProfile::new(vec![a.clone(), b.clone()]);
        let mut walk = IncrementalWalk::new(&[a, b], 64);
        assert_eq!(walk.delta, Rational::ZERO);
        assert_eq!(walk.value, profile.eval(Rational::ZERO));
        let mut visited = Vec::new();
        for _ in 0..12 {
            walk.advance();
            assert_eq!(
                walk.value,
                profile.eval(walk.delta),
                "incremental value diverged at {}",
                walk.delta
            );
            visited.push(walk.delta);
        }
        assert!(visited.windows(2).all(|w| w[0] < w[1]), "{visited:?}");
    }

    #[test]
    fn incremental_walk_tracks_ramps_and_wraps_exactly() {
        // A clipped ramp (runs past the period end), a pure step and an
        // immediate-ramp component exercise every event-kind corner.
        let clipped = PeriodicDemand::new(int(6), int(5), int(1), int(4), int(1), int(4));
        let step = PeriodicDemand::step(int(5), int(3), int(2));
        let immediate = PeriodicDemand::new(int(4), int(3), int(0), int(0), int(1), int(2));
        let comps = vec![clipped, step, immediate];
        let profile = DemandProfile::new(comps.clone());
        let mut walk = IncrementalWalk::new(&comps, 128);
        assert_eq!(walk.value, profile.eval(Rational::ZERO));
        for _ in 0..60 {
            walk.advance();
            assert_eq!(
                walk.value,
                profile.eval(walk.delta),
                "diverged at {}",
                walk.delta
            );
        }
    }

    #[test]
    fn profile_collects_from_iterator() {
        let p: DemandProfile = vec![PeriodicDemand::step(int(4), int(4), int(1))]
            .into_iter()
            .collect();
        assert_eq!(p.components().len(), 1);
        assert_eq!(p.hyperperiod(), Some(int(4)));
    }
}

#[cfg(test)]
mod walk_equivalence_properties {
    use super::*;
    use rbs_rng::Rng;

    const CASES: usize = 128;

    fn int(v: i128) -> Rational {
        Rational::integer(v)
    }

    /// Arbitrary well-formed components covering every shape corner:
    /// steps, ramps, clipped ramps, immediate ramps, zero-offset steps.
    fn arb_component(rng: &mut Rng) -> PeriodicDemand {
        let period = rng.gen_range_i128(1, 12);
        let ramp_start = rng.gen_range_i128(0, 11).min(period - 1);
        let jump = rng.gen_range_i128(0, 6);
        let ramp_len = rng.gen_range_i128(0, 12);
        let extra = rng.gen_range_i128(0, 4);
        let per_period = jump + ramp_len + extra;
        PeriodicDemand::new(
            int(period),
            int(per_period),
            int(extra),
            int(ramp_start),
            int(jump),
            int(ramp_len),
        )
    }

    fn arb_components(rng: &mut Rng, max: usize) -> Vec<PeriodicDemand> {
        let len = rng.gen_range_usize(1, max);
        (0..len).map(|_| arb_component(rng)).collect()
    }

    #[test]
    fn incremental_walk_matches_direct_evaluation() {
        let mut rng = Rng::seed_from_u64(0xd31a_0001);
        for _ in 0..CASES {
            let comps = arb_components(&mut rng, 5);
            let profile = DemandProfile::new(comps.clone());
            let mut walk = IncrementalWalk::new(&comps, 128);
            assert_eq!(walk.value, profile.eval(Rational::ZERO));
            for _ in 0..100 {
                walk.advance();
                assert_eq!(
                    walk.value,
                    profile.eval(walk.delta),
                    "diverged at {}",
                    walk.delta
                );
            }
        }
    }

    #[test]
    fn fits_agrees_with_sup_ratio() {
        let mut rng = Rng::seed_from_u64(0xd31a_0002);
        for _ in 0..CASES {
            let comps = arb_components(&mut rng, 4);
            let num = rng.gen_range_i128(1, 40);
            let profile = DemandProfile::new(comps);
            let limits = AnalysisLimits::default();
            let speed = Rational::new(num, 8);
            let fits = profile.fits(speed, &limits).expect("decision completes");
            match profile.sup_ratio(&limits).expect("sup completes") {
                SupRatio::Unbounded => assert!(!fits),
                SupRatio::Finite { value, .. } => {
                    assert_eq!(
                        fits,
                        speed >= value,
                        "fits={fits} but sup={value} at speed {speed}"
                    );
                }
            }
        }
    }

    #[test]
    fn incremental_slope_matches_finite_differences() {
        let mut rng = Rng::seed_from_u64(0xd31a_0003);
        for _ in 0..CASES {
            let comps = arb_components(&mut rng, 4);
            let profile = DemandProfile::new(comps.clone());
            let mut walk = IncrementalWalk::new(&comps, 128);
            for _ in 0..60 {
                let start = walk.delta;
                let slope = walk.slope;
                walk.advance();
                let end = walk.delta;
                // Probe the open segment (start, end): linear with the
                // tracked slope.
                let mid = (start + end) / Rational::TWO;
                let probe = mid + (end - mid) / Rational::TWO;
                let expected =
                    profile.eval(mid) + Rational::integer(i128::from(slope)) * (probe - mid);
                assert_eq!(profile.eval(probe), expected, "segment [{start}, {end})");
            }
        }
    }

    #[test]
    fn min_ratio_dispatch_matches_exact_reference() {
        let mut rng = Rng::seed_from_u64(0xd31a_0004);
        let limits = AnalysisLimits::default();
        for _ in 0..CASES {
            let comps = arb_components(&mut rng, 4);
            let profile = DemandProfile::new(comps);
            let horizon = Rational::new(rng.gen_range_i128(1, 200), rng.gen_range_i128(1, 4));
            let floor = Rational::new(rng.gen_range_i128(0, 12), 4);
            let tolerance = Rational::new(1, rng.gen_range_i128(1, 128));
            let (value, kind) = profile
                .min_ratio_within(horizon, floor, tolerance, &limits)
                .expect("dispatch completes");
            let exact = profile
                .min_ratio_within_exact(horizon, floor, tolerance, &limits)
                .expect("exact reference completes");
            assert_eq!(
                value, exact,
                "horizon={horizon} floor={floor} tolerance={tolerance}"
            );
            assert_eq!(
                kind,
                WalkKind::Integer,
                "small-grid profiles must take the fast path"
            );
        }
    }
}

#[cfg(test)]
mod floor_cut_properties {
    use super::*;
    use rbs_rng::Rng;

    const CASES: usize = 192;

    fn int(v: i128) -> Rational {
        Rational::integer(v)
    }

    /// The first-fit walk as it stood before the envelope-floor cut: it
    /// answers `Never` only once a full hyperperiod has passed at a speed
    /// at or below the rate. The oracle the cut walks are checked against.
    fn first_fit_hyperperiod_only(
        profile: &DemandProfile,
        speed: Rational,
        limits: &AnalysisLimits,
    ) -> Result<FirstFit, AnalysisError> {
        let mut walk = IncrementalWalk::new(profile.components(), limits.max_breakpoints());
        if !walk.value.is_positive() {
            return Ok(FirstFit::At(Rational::ZERO));
        }
        let rate = profile.rate();
        let hyperperiod = profile.hyperperiod();
        let mut examined = 0usize;
        loop {
            examined += 1;
            limits.check_walk(examined)?;
            let segment_start = walk.delta;
            let value = walk.value;
            let segment_end = walk.peek_next().expect("unbounded breakpoints");
            if value <= speed * segment_start {
                return Ok(FirstFit::At(segment_start));
            }
            let slope = Rational::integer(i128::from(walk.slope));
            if speed > slope {
                let crossing = (value - slope * segment_start) / (speed - slope);
                if crossing < segment_end {
                    return Ok(FirstFit::At(crossing));
                }
            }
            if speed <= rate && hyperperiod.is_some_and(|hp| segment_start > hp) {
                return Ok(FirstFit::Never);
            }
            walk.advance();
        }
    }

    /// Constants, jumps, ramps (clipped or not, immediate or offset) and
    /// implicit steps, on a small integer timebase.
    fn arb_component(rng: &mut Rng) -> PeriodicDemand {
        let period = rng.gen_range_i128(1, 12);
        if rng.gen_range_usize(0, 4) == 0 {
            return PeriodicDemand::step(int(period), int(period), int(rng.gen_range_i128(1, 6)));
        }
        let ramp_start = rng.gen_range_i128(0, 11).min(period - 1);
        let jump = rng.gen_range_i128(0, 6);
        let ramp_len = rng.gen_range_i128(0, 12);
        let extra = rng.gen_range_i128(0, 4);
        PeriodicDemand::new(
            int(period),
            int(jump + ramp_len + extra),
            int(rng.gen_range_i128(0, 6)),
            int(ramp_start),
            int(jump),
            int(ramp_len),
        )
    }

    fn arb_profile(rng: &mut Rng) -> DemandProfile {
        let len = rng.gen_range_usize(1, 5);
        DemandProfile::new((0..len).map(|_| arb_component(rng)).collect())
    }

    #[test]
    fn envelope_floor_is_a_tight_lower_bound() {
        let mut rng = Rng::seed_from_u64(0xf100_0001);
        for case in 0..CASES {
            let c = arb_component(&mut rng);
            let floor = c.envelope_floor().expect("small inputs never overflow");
            let rate = c.rate();
            let step = Rational::new(1, 64);
            let mut lowest: Option<Rational> = None;
            for i in 0..(64 * 3 * 12) {
                let delta = step * int(i);
                let gap = c.eval(delta) - rate * delta;
                assert!(gap >= floor, "case {case}: {gap} < {floor} at Δ={delta}");
                lowest = Some(lowest.map_or(gap, |l| l.min(gap)));
            }
            // The infimum is a left limit at a grid point, so the scan
            // comes within one step's worth of rate of it.
            let lowest = lowest.expect("scanned");
            assert!(
                lowest - floor <= rate * step,
                "case {case}: floor {floor} not tight ({lowest})"
            );
        }
    }

    #[test]
    fn cut_walks_match_the_hyperperiod_only_reference() {
        let mut rng = Rng::seed_from_u64(0xf100_0002);
        let limits = AnalysisLimits::default();
        let (mut pruned, mut late_fits) = (0usize, 0usize);
        for case in 0..CASES {
            let profile = arb_profile(&mut rng);
            let rate = profile.rate();
            // k/8 of the rate — below it, at it, and above it — plus the
            // ratio `eval(Δ)/Δ` at each early breakpoint: a below-rate
            // speed served there fits late, near the horizon, where a
            // cut that came too soon would answer `Never`.
            let mut speeds: Vec<Rational> = [1, 3, 5, 7, 8, 9, 12]
                .iter()
                .map(|&k| rate * Rational::new(k, 8))
                .collect();
            let mut walk = IncrementalWalk::new(profile.components(), 64);
            for _ in 0..48 {
                walk.advance();
                speeds.push(walk.value / walk.delta);
            }
            for speed in speeds.into_iter().filter(Rational::is_positive) {
                let reference = first_fit_hyperperiod_only(&profile, speed, &limits);
                let (fit, trace) = profile
                    .first_fit_traced(speed, &limits)
                    .expect("walk completes");
                assert_eq!(Ok(fit), reference, "case {case} at speed {speed}");
                assert_eq!(
                    profile.first_fit_exact(speed, &limits),
                    reference,
                    "case {case} at speed {speed} (exact)"
                );
                assert!(!trace.pruned || (speed < rate && fit == FirstFit::Never));
                pruned += usize::from(trace.pruned);
                if let (Some(h), FirstFit::At(at)) = (profile.floor_horizon(speed), fit) {
                    late_fits += usize::from(at + at > h);
                }
            }
        }
        assert!(pruned > 0, "the floor cut never fired");
        assert!(
            late_fits > 0,
            "no below-rate fit landed past half its horizon"
        );
    }

    #[test]
    fn a_late_below_rate_fit_is_found_before_the_horizon() {
        // A burst of 20 with the next 100 of demand due at Δ = 50 (rate
        // 1), plus a fine unit-period trickle (rate 1/100) that puts a
        // breakpoint at every integer. At s = 1/2 supply overtakes the
        // burst near Δ = 40.4, past half of the horizon 30/(101/100 −
        // 1/2) ≈ 58.8 — a cut any earlier than `H` would say `Never`.
        let profile = DemandProfile::new(vec![
            PeriodicDemand::new(int(100), int(100), int(20), int(50), int(100), int(0)),
            PeriodicDemand::step(int(1), int(1), Rational::new(1, 100)),
        ]);
        let speed = Rational::new(1, 2);
        let limits = AnalysisLimits::default();
        let horizon = profile.floor_horizon(speed).expect("below the rate");
        let reference = first_fit_hyperperiod_only(&profile, speed, &limits);
        let Ok(FirstFit::At(at)) = reference else {
            panic!("the reference fits: {reference:?}");
        };
        assert!(
            at + at > horizon && at < horizon,
            "fit {at}, horizon {horizon}"
        );
        let (fit, trace) = profile.first_fit_traced(speed, &limits).expect("completes");
        assert_eq!((fit, trace.pruned), (FirstFit::At(at), false));
        assert_eq!(profile.first_fit_exact(speed, &limits), reference);
    }

    #[test]
    fn the_cut_keeps_errors_at_and_above_the_rate() {
        // Without a cut the walks must consume exactly the reference's
        // budget, error payloads included.
        let mut rng = Rng::seed_from_u64(0xf100_0003);
        for case in 0..CASES {
            let profile = arb_profile(&mut rng);
            let limits = AnalysisLimits::new(rng.gen_range_usize(1, 12));
            for k in [8, 9, 12] {
                let speed = profile.rate() * Rational::new(k, 8);
                if !speed.is_positive() {
                    continue;
                }
                let reference = first_fit_hyperperiod_only(&profile, speed, &limits);
                assert_eq!(profile.first_fit(speed, &limits), reference, "case {case}");
                assert_eq!(
                    profile.first_fit_exact(speed, &limits),
                    reference,
                    "case {case}"
                );
            }
        }
    }

    /// Pairwise-coprime periods whose lcm (≈ 1.3·10^39) overflows `i128`:
    /// no hyperperiod exists to stop a below-rate walk. Each component
    /// steps by half its period at mid-period on top of `constant`.
    fn overflowing_hyperperiod_profile(constant_eighths: i128) -> DemandProfile {
        let periods = [1i128 << 43, 3i128.pow(27), 5i128.pow(19)];
        DemandProfile::new(
            periods
                .iter()
                .map(|&t| {
                    let half = Rational::new(t, 2);
                    PeriodicDemand::new(
                        int(t),
                        half,
                        Rational::new(t * constant_eighths, 8),
                        half,
                        half,
                        int(0),
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn the_cut_answers_below_rate_walks_without_a_hyperperiod() {
        let limits = AnalysisLimits::new(2_000);
        // Rate 3/2; floor −Σt/8 < 0, so the horizon lies past Δ = 0.
        let profile = overflowing_hyperperiod_profile(1);
        assert_eq!(profile.hyperperiod(), None);
        assert_eq!(profile.rate(), Rational::new(3, 2));
        let speed = Rational::ONE;
        let horizon = profile.floor_horizon(speed).expect("below the rate");
        assert!(horizon.is_positive());
        // The reference can only run out its budget, having walked well
        // past the horizon without a fit — so `Never` is the truth.
        assert!(matches!(
            first_fit_hyperperiod_only(&profile, speed, &limits),
            Err(AnalysisError::BreakpointBudgetExhausted { .. })
        ));
        let mut walk = IncrementalWalk::new(profile.components(), limits.max_breakpoints());
        for _ in 0..limits.max_breakpoints() {
            walk.advance();
        }
        assert!(walk.delta > horizon);
        let (fit, trace) = profile
            .first_fit_traced(speed, &limits)
            .expect("cut answers");
        assert_eq!(fit, FirstFit::Never);
        assert_eq!(trace.kind, WalkKind::Integer);
        assert!(trace.pruned);
        assert_eq!(profile.first_fit_exact(speed, &limits), Ok(FirstFit::Never));

        // A positive floor (constant above the deficit) puts the horizon
        // at 0: the walk answers on its second segment.
        let surplus = overflowing_hyperperiod_profile(8);
        assert_eq!(surplus.floor_horizon(speed), Some(Rational::ZERO));
        assert_eq!(
            surplus.first_fit(speed, &AnalysisLimits::new(2)),
            Ok(FirstFit::Never)
        );
        assert_eq!(
            surplus.first_fit_exact(speed, &AnalysisLimits::new(2)),
            Ok(FirstFit::Never)
        );

        // At the rate there is no horizon: both walks still exhaust the
        // budget exactly as the reference does.
        let at_rate = surplus.rate();
        let reference = first_fit_hyperperiod_only(&surplus, at_rate, &limits);
        assert!(matches!(
            reference,
            Err(AnalysisError::BreakpointBudgetExhausted { .. })
        ));
        assert_eq!(surplus.first_fit(at_rate, &limits), reference);
        assert_eq!(surplus.first_fit_exact(at_rate, &limits), reference);
    }
}
