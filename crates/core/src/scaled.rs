//! Integer fast path for the demand-curve breakpoint walks.
//!
//! Every quantity of a [`PeriodicDemand`] component is a rational number,
//! so the exact walks in [`crate::demand`] pay a gcd-reduction on every
//! arithmetic step. Task sets in practice share a small common timebase
//! (milliseconds, microseconds, a handful of denominators), which means
//! the whole profile can be rescaled *once* onto a common integer grid:
//! with `K` the lcm of all component denominators, every breakpoint time
//! and every curve value of the scaled profile is an exact `i128`.
//!
//! [`ScaledProfile`] stores that rescaling and re-implements the three
//! queries (`sup_ratio`, `fits`, `first_fit`) over pure integer
//! arithmetic — no gcd, no per-step normalization. All products use
//! checked arithmetic; the moment anything would overflow the fast path
//! *bails out* (returns `Ok(None)`) and the caller falls back to the
//! exact rational walk. The two walks visit breakpoints in the same
//! order and take the same break/return decisions, so results (including
//! breakpoint-budget errors and their `examined` counts) are
//! bit-identical — the differential property tests in
//! `tests/scaled_differential.rs` enforce this.
//!
//! Each query body is written once, generic over the kernel's lane width
//! ([`crate::kernel::Lane`]): when the seed-time headroom proof shows a
//! profile's walk can never leave `i64`, the query runs on 64-bit lanes
//! (single-instruction compares, one widening multiply per
//! cross-product); otherwise it runs on the original `i128` lanes with
//! the original overflow-bail behavior. Narrow eligibility additionally
//! requires external speed rationals to be small ([`narrow_speed`]),
//! keeping every product the narrow bodies form provably inside range —
//! a narrow walk can therefore never bail where the wide walk would
//! not, and results stay bit-identical across the dispatch.
//!
//! Correctness of the pure-integer comparisons rests on three facts:
//!
//! 1. With `Δ' = Δ·K` and `v' = v·K`, the heap keys `(Δ', i, kind)`
//!    order exactly like `(Δ, i, kind)` (`K > 0`).
//! 2. `v/Δ = v'/Δ'` — the scale cancels in ratios, so the best-ratio
//!    bookkeeping of `sup_ratio` needs no division at all.
//! 3. For a rational threshold `h` (horizon or hyperperiod) and integer
//!    `Δ'`, `Δ > h ⟺ Δ' > ⌊h·K⌋`. When `⌊h·K⌋` itself overflows
//!    the lane width, no representable `Δ'` can exceed it, so treating
//!    the threshold as "never reached" cannot change any decision before
//!    the walk bails on its own overflowing breakpoint.

use rbs_timebase::{lcm_i128, Rational};

use crate::demand::{FirstFit, FrontierRecord, PeriodicDemand, ResetFrontier, SupRatio};
use crate::kernel::{KernelWalk, Lane, NarrowHeadroom};
use crate::splice_buf::{post_edit_index, SpliceBuf};
use crate::{AnalysisError, AnalysisLimits};

/// Bails out of the fast path (`return Ok(None)`) when a checked
/// operation overflows; the caller then re-runs the exact rational walk.
macro_rules! ck {
    ($e:expr) => {
        match $e {
            Some(v) => v,
            None => return Ok(None),
        }
    };
}

/// The resumable-machine mirror of [`ck!`]: bails out of a
/// [`MachineStep`]-returning step function on overflow.
macro_rules! mk {
    ($e:expr) => {
        match $e {
            Some(v) => v,
            None => return Ok(MachineStep::Overflow),
        }
    };
}

/// One component with all six quantities on the common integer timebase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ScaledComponent {
    pub(crate) period: i128,
    pub(crate) constant: i128,
    pub(crate) ramp_start: i128,
    pub(crate) jump: i128,
    pub(crate) ramp_len: i128,
    /// Value change when crossing a period boundary (see
    /// `ComponentEvents::wrap_value` in [`crate::demand`]).
    pub(crate) wrap_value: i128,
    /// Slope change at a period boundary.
    pub(crate) wrap_slope: i64,
    pub(crate) ramp_is_step: bool,
}

/// A [`crate::demand::DemandProfile`] rescaled onto one common integer
/// timebase, built once at profile construction.
#[derive(Debug, Clone)]
pub(crate) struct ScaledProfile {
    components: SpliceBuf<ScaledComponent>,
    /// The common denominator `K`: real time `Δ` corresponds to the
    /// integer `Δ·K`, curve values `v` to `v·K`.
    scale: i128,
    /// Exact long-run rate of the profile (scale-free).
    rate: Rational,
    /// Exact utilization-envelope burst of the profile (scale-free):
    /// the same value [`crate::demand::DemandProfile::envelope_burst`]
    /// computes, so horizons derived from it are bit-identical.
    envelope: Rational,
    /// The hyperperiod on the scaled grid (`hp·K`), `None` when the
    /// rational hyperperiod does not exist or does not fit in `i128`.
    hyperperiod: Option<i128>,
    /// Per-component `(rate, envelope)` contributions, kept so
    /// [`ScaledProfile::patch`] can refold the aggregates after swapping
    /// a few components without touching the others.
    contribs: SpliceBuf<(Rational, Rational)>,
    /// Precomputed narrow-lane headroom aggregates (`None` when folding
    /// them overflows — such a profile is never narrow), so each walk's
    /// proof check is O(1) instead of a pass over the components.
    narrow: Option<NarrowHeadroom>,
    /// Lazily-built splice bookkeeping (per-component denominator and
    /// period keys plus their counted multisets), so a task-set delta
    /// re-proves the fresh timebase, hyperperiod, and fold certificate
    /// in O(distinct keys) instead of a pass over the components. Built
    /// by the first splice; a fresh build leaves it empty.
    aux: Option<SpliceAux>,
}

/// The lazily-derived `aux` cache never influences query results, so
/// equality is over the analysis-visible fields only (as the former
/// `derive` produced).
impl PartialEq for ScaledProfile {
    fn eq(&self, other: &ScaledProfile) -> bool {
        self.components == other.components
            && self.scale == other.scale
            && self.rate == other.rate
            && self.envelope == other.envelope
            && self.hyperperiod == other.hyperperiod
            && self.contribs == other.contribs
            && self.narrow == other.narrow
    }
}

impl Eq for ScaledProfile {}

/// Rescales one component onto `scale`, returning its scaled form plus
/// its exact `(rate, envelope)` contributions. `None` when any scaled
/// quantity overflows `i128` or `scale` is not a multiple of one of the
/// component's denominators.
fn scale_component(
    c: &PeriodicDemand,
    scale: i128,
) -> Option<(ScaledComponent, Rational, Rational)> {
    let [period, per_period, constant, ramp_start, jump, ramp_len] = c.raw();
    let period_s = to_scaled(period, scale)?;
    let per_period_s = to_scaled(per_period, scale)?;
    let constant_s = to_scaled(constant, scale)?;
    let ramp_start_s = to_scaled(ramp_start, scale)?;
    let jump_s = to_scaled(jump, scale)?;
    let ramp_len_s = to_scaled(ramp_len, scale)?;
    // Mirrors `IncrementalWalk::new` in crate::demand.
    let ramp_restarts_at_wrap = ramp_start_s == 0;
    let carry_at_wrap =
        jump_s.checked_add((period_s.checked_sub(ramp_start_s)?).min(ramp_len_s))?;
    let r_at_zero = if ramp_restarts_at_wrap { jump_s } else { 0 };
    let in_ramp_before_wrap = ramp_len_s > 0 && period_s.checked_sub(ramp_start_s)? <= ramp_len_s;
    let in_ramp_after_wrap = ramp_restarts_at_wrap && ramp_len_s > 0;
    let scaled = ScaledComponent {
        period: period_s,
        constant: constant_s,
        ramp_start: ramp_start_s,
        jump: jump_s,
        ramp_len: ramp_len_s,
        wrap_value: per_period_s
            .checked_sub(carry_at_wrap)?
            .checked_add(r_at_zero)?,
        wrap_slope: i64::from(in_ramp_after_wrap) - i64::from(in_ramp_before_wrap),
        ramp_is_step: ramp_len_s == 0,
    };
    let rate = per_period.checked_div(period).ok()?;
    // `PeriodicDemand::envelope_burst` on the scaled grid: over
    // the common denominator `K·period'`, the jump/ramp-end
    // suprema are pure `i128` numerators, so the per-component
    // contribution costs integer multiplies instead of rational
    // ones. Canonical reduction makes the summed value — and the
    // horizons divided out of it — bit-identical to the exact
    // walk's `envelope_burst`.
    let clipped_s = (period_s - ramp_start_s).min(ramp_len_s);
    let at_jump = jump_s
        .checked_mul(period_s)?
        .checked_sub(per_period_s.checked_mul(ramp_start_s)?)?;
    let at_ramp_end = jump_s
        .checked_add(clipped_s)?
        .checked_mul(period_s)?
        .checked_sub(per_period_s.checked_mul(ramp_start_s.checked_add(clipped_s)?)?)?;
    let numer = constant_s
        .checked_mul(period_s)?
        .checked_add(at_jump.max(at_ramp_end).max(0))?;
    let envelope = Rational::new(numer, scale.checked_mul(period_s)?);
    Some((scaled, rate, envelope))
}

/// The rational hyperperiod chain over `components`, rescaled to the
/// integer grid — independent of where it is recomputed, so a patched
/// profile's hyperperiod break fires exactly when a fresh build's would.
fn scaled_hyperperiod(components: &[PeriodicDemand], scale: i128) -> Option<i128> {
    let mut hp: Option<Rational> = None;
    for c in components {
        hp = Some(match hp {
            None => c.period(),
            Some(a) => match a.lcm(c.period()) {
                Some(l) => l,
                None => {
                    hp = None;
                    break;
                }
            },
        });
    }
    hp.and_then(|h| to_scaled(h, scale))
}

/// `q·scale` as an exact integer (`None` on overflow or — defensively —
/// when `q`'s denominator does not divide `scale`).
pub(crate) fn to_scaled(q: Rational, scale: i128) -> Option<i128> {
    if scale % q.denom() != 0 {
        return None;
    }
    q.numer().checked_mul(scale / q.denom())
}

/// `⌈q·scale⌉`, `None` when the product overflows.
fn scale_ceil(q: Rational, scale: i128) -> Option<i128> {
    let p = q.numer().checked_mul(scale)?;
    let d = q.denom();
    Some(p.div_euclid(d) + i128::from(p.rem_euclid(d) != 0))
}

/// `⌊q·scale⌋`, `None` when the product overflows.
fn scale_floor(q: Rational, scale: i128) -> Option<i128> {
    Some(q.numer().checked_mul(scale)?.div_euclid(q.denom()))
}

/// Outcome of [`horizon_fast`].
enum HorizonFast {
    /// `value/delta ≤ rate`: no pruning-horizon refresh (matches the
    /// rational path taking its `ratio > rate` branch false).
    NotPast,
    /// The refreshed scaled horizon `⌈scale · envelope / (ratio − rate)⌉`.
    Scaled(i128),
    /// An intermediate product left `i128`; the caller must rerun the
    /// exact rational refresh, which reduces as it goes — so it can
    /// succeed (or panic, exactly where the exact walk would) on inputs
    /// this path cannot handle.
    Overflow,
}

/// The sup-ratio pruning horizon `⌈scale · envelope / (value/delta −
/// rate)⌉` in pure integer arithmetic, for an unreduced breakpoint
/// ratio `value/delta` with `delta > 0`.
///
/// With `rate = rn/rd` and `envelope = en/ed` (denominators positive),
/// the horizon rearranges to `⌈(scale·en·delta·rd) / (ed·(value·rd −
/// rn·delta))⌉` — four multiplies, one subtraction and one euclidean
/// division, no gcd. Whenever every product fits `i128` the result is
/// exactly [`scale_ceil`] of the reduced rational quotient (ceilings of
/// equal rationals are equal); narrow walks bound `value` and `delta`
/// by `i64::MAX/4`, so for the small `rate`/`envelope`/`scale` terms of
/// typical profiles this path essentially always succeeds.
fn horizon_fast(
    value: i128,
    delta: i128,
    rate: Rational,
    envelope: Rational,
    scale: i128,
) -> HorizonFast {
    let (Some(lhs), Some(rhs)) = (
        value.checked_mul(rate.denom()),
        rate.numer().checked_mul(delta),
    ) else {
        return HorizonFast::Overflow;
    };
    if lhs <= rhs {
        return HorizonFast::NotPast;
    }
    let Some(gap) = lhs.checked_sub(rhs) else {
        return HorizonFast::Overflow;
    };
    let num = scale
        .checked_mul(envelope.numer())
        .and_then(|n| n.checked_mul(delta))
        .and_then(|n| n.checked_mul(rate.denom()));
    let (Some(num), Some(den)) = (num, envelope.denom().checked_mul(gap)) else {
        return HorizonFast::Overflow;
    };
    // `den > 0`; the euclidean ceil matches `scale_ceil` for every sign
    // of `num` (a negative envelope yields a negative horizon there too).
    HorizonFast::Scaled(num.div_euclid(den) + i128::from(num.rem_euclid(den) != 0))
}

/// A speed rational small enough that every product a narrow (`i64`)
/// walk body forms with it stays provably inside range: the walk's own
/// times and values are bounded by `i64::MAX / 4` (see
/// `narrow_headroom` in [`crate::kernel`]), so 32-bit speed terms keep
/// linear combinations like `s_num − slope·s_den` far from the `i64`
/// edge, and lane×lane cross-products always fit `i128` exactly.
fn narrow_speed(speed: Rational) -> Option<(i64, i64)> {
    let num = i64::try_from(speed.numer()).ok()?;
    let den = i64::try_from(speed.denom()).ok()?;
    (num.unsigned_abs() <= u64::from(u32::MAX) && den.unsigned_abs() <= u64::from(u32::MAX))
        .then_some((num, den))
}

/// A lane-width walk threshold (horizon or hyperperiod): the scaled
/// `i128` value clamped to the lane maximum. Narrow walks can only
/// reach times below `i64::MAX / 4`, so a clamped-out threshold
/// compares as "never reached" — exactly what the unclamped `i128`
/// compare would conclude.
fn clamp_threshold<L: Lane>(threshold: i128) -> L {
    L::from_i128(threshold).unwrap_or(L::MAX)
}

/// The common integer timebase a fresh [`ScaledProfile::build`] would
/// pick for `components`: the lcm of every quantity's denominator, in
/// declaration order. `None` when the lcm overflows `i128` (the fold is
/// None-sticky, so any association over a superset also overflows).
pub(crate) fn profile_scale(components: &[PeriodicDemand]) -> Option<i128> {
    let mut scale: i128 = 1;
    for c in components {
        for q in c.raw() {
            scale = lcm_i128(scale, q.denom())?;
        }
    }
    Some(scale)
}

/// The lcm of one component's six quantity denominators — its
/// contribution to [`profile_scale`]'s fold. Inside a built profile the
/// result always fits `i128`: every denominator divides the profile
/// scale, so their lcm does too.
fn component_denom_lcm(c: &PeriodicDemand) -> Option<i128> {
    let mut denom: i128 = 1;
    for q in c.raw() {
        denom = lcm_i128(denom, q.denom())?;
    }
    Some(denom)
}

/// Sentinel for a contribution-denominator lcm that overflowed `i128`:
/// real denominators are ≥ 1, and a poisoned key makes the fold
/// certificate fail (forcing the exact refold) without affecting any
/// result.
const POISONED_DENOM: i128 = 0;

/// A small counted multiset over ordered keys. Task sets draw their
/// periods and denominators from small menus in practice, so the
/// distinct-key list stays tiny even for large fleets — which is what
/// makes the splice-time lcm/max refolds O(distinct) instead of O(n).
#[derive(Debug, Clone, PartialEq, Eq)]
struct CountedSet<K: Ord + Copy> {
    entries: Vec<(K, u32)>,
}

impl<K: Ord + Copy> Default for CountedSet<K> {
    fn default() -> CountedSet<K> {
        CountedSet {
            entries: Vec::new(),
        }
    }
}

impl<K: Ord + Copy> CountedSet<K> {
    /// Adds one copy of `key`; `true` when the distinct-key set grew.
    fn add(&mut self, key: K) -> bool {
        match self.entries.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => {
                self.entries[i].1 += 1;
                false
            }
            Err(i) => {
                self.entries.insert(i, (key, 1));
                true
            }
        }
    }

    /// Drops one copy of `key`; `true` when its last copy left the set.
    fn remove(&mut self, key: K) -> bool {
        let Ok(i) = self.entries.binary_search_by_key(&key, |&(k, _)| k) else {
            unreachable!("splice multiset out of sync with its components");
        };
        self.entries[i].1 -= 1;
        if self.entries[i].1 == 0 {
            self.entries.remove(i);
            return true;
        }
        false
    }

    fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.entries.iter().map(|&(k, _)| k)
    }
}

/// One component's keys in the splice multisets, kept so a removal can
/// retract exactly what its insertion added.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AuxRecord {
    /// [`component_denom_lcm`] — the component's timebase contribution.
    denom: i128,
    /// lcm of the `(rate, envelope)` contribution denominators
    /// ([`POISONED_DENOM`] when that lcm overflows).
    contrib_denom: i128,
    /// The reduced rational period, as `(numerator, denominator)`.
    period: (i128, i128),
}

/// Splice-time bookkeeping for one [`ScaledProfile`]: per-component key
/// records (parallel to the component list) and their counted
/// multisets, plus a magnitude bound feeding [`fold_certificate`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct SpliceAux {
    recs: SpliceBuf<AuxRecord>,
    denoms: CountedSet<i128>,
    contrib_denoms: CountedSet<i128>,
    periods: CountedSet<(i128, i128)>,
    /// Upper bound on |numerator| over every contribution the profile
    /// has held since this cache was built — exact right after a build,
    /// and only growing under splices, which keeps the certificate
    /// sound (a looser bound can only force the exact-refold fallback).
    abs_num_max: i128,
    /// Cached key-set folds, maintained across splices so the per-op
    /// cost is O(1) while the distinct-key sets are stable (the common
    /// case — fleets draw periods and denominators from small menus).
    /// An insert extends each fold by one key (`fold(S ∪ {k}) =
    /// op(fold(S), k)` for lcm and max, overflow verdicts included, by
    /// the partial-divides-full argument on the getter docs); only the
    /// departure of a distinct key refolds from the surviving keys.
    folds: AuxFolds,
}

/// The cached key-set folds of a [`SpliceAux`] — see its `folds` field.
#[derive(Debug, Clone, PartialEq, Eq)]
struct AuxFolds {
    /// lcm over the counted denominators (`None`: overflow).
    fresh_scale: Option<i128>,
    /// lcm over the counted contribution denominators (`None`: poisoned
    /// or overflow).
    contrib_lcm: Option<i128>,
    /// Rational hyperperiod over the counted periods (`None`: empty or
    /// overflow).
    hyperperiod: Option<Rational>,
    /// Largest counted period (`None`: empty).
    period_max: Option<Rational>,
}

impl Default for AuxFolds {
    fn default() -> AuxFolds {
        AuxFolds {
            fresh_scale: Some(1),
            contrib_lcm: Some(1),
            hyperperiod: None,
            period_max: None,
        }
    }
}

impl SpliceAux {
    /// Inserts the keys for one component (and its `(rate, envelope)`
    /// contributions) at `index`. `None` when the component's quantity
    /// denominators have no representable lcm — no finite timebase
    /// covers it, so the caller bails to a rebuild.
    fn insert(
        &mut self,
        index: usize,
        c: &PeriodicDemand,
        rate: Rational,
        envelope: Rational,
    ) -> Option<()> {
        let period = c.period();
        let rec = AuxRecord {
            denom: component_denom_lcm(c)?,
            contrib_denom: lcm_i128(rate.denom(), envelope.denom()).unwrap_or(POISONED_DENOM),
            period: (period.numer(), period.denom()),
        };
        if self.denoms.add(rec.denom) {
            self.folds.fresh_scale = self.folds.fresh_scale.and_then(|l| lcm_i128(l, rec.denom));
        }
        if self.contrib_denoms.add(rec.contrib_denom) {
            self.folds.contrib_lcm = if rec.contrib_denom == POISONED_DENOM {
                None
            } else {
                self.folds
                    .contrib_lcm
                    .and_then(|l| lcm_i128(l, rec.contrib_denom))
            };
        }
        if self.periods.add(rec.period) {
            let period = Rational::new(rec.period.0, rec.period.1);
            self.folds.hyperperiod = match self.folds.hyperperiod {
                None if self.periods.entries.len() == 1 => Some(period),
                None => None,
                Some(a) => a.lcm(period),
            };
            self.folds.period_max = Some(match self.folds.period_max {
                None => period,
                Some(m) => m.max(period),
            });
        }
        let num_bound = |q: Rational| q.numer().checked_abs().unwrap_or(i128::MAX);
        self.abs_num_max = self
            .abs_num_max
            .max(num_bound(rate))
            .max(num_bound(envelope));
        self.recs.insert(index, rec);
        Some(())
    }

    /// Swaps the keys of the component at `index` for the keys of `c`
    /// (and its contributions) in place. A patch keeps its rank, so the
    /// remove-then-insert alternative would shift half the record
    /// buffer twice for nothing; here each multiset is touched only
    /// when its key actually changed, and the fold maintenance is the
    /// same retract-then-extend a remove/insert pair performs — the
    /// folds are functions of the final key multiset, so the cached
    /// values (overflow verdicts included) cannot diverge.
    fn replace(
        &mut self,
        index: usize,
        c: &PeriodicDemand,
        rate: Rational,
        envelope: Rational,
    ) -> Option<()> {
        let old = self.recs[index];
        let period = c.period();
        let rec = AuxRecord {
            denom: component_denom_lcm(c)?,
            contrib_denom: lcm_i128(rate.denom(), envelope.denom()).unwrap_or(POISONED_DENOM),
            period: (period.numer(), period.denom()),
        };
        if rec.denom != old.denom {
            if self.denoms.remove(old.denom) {
                self.folds.fresh_scale = self.denoms.keys().try_fold(1i128, lcm_i128);
            }
            if self.denoms.add(rec.denom) {
                self.folds.fresh_scale =
                    self.folds.fresh_scale.and_then(|l| lcm_i128(l, rec.denom));
            }
        }
        if rec.contrib_denom != old.contrib_denom {
            if self.contrib_denoms.remove(old.contrib_denom) {
                self.folds.contrib_lcm = self.refold_contrib_lcm();
            }
            if self.contrib_denoms.add(rec.contrib_denom) {
                self.folds.contrib_lcm = if rec.contrib_denom == POISONED_DENOM {
                    None
                } else {
                    self.folds
                        .contrib_lcm
                        .and_then(|l| lcm_i128(l, rec.contrib_denom))
                };
            }
        }
        if rec.period != old.period {
            let arrived = self.periods.add(rec.period);
            if self.periods.remove(old.period) {
                self.refold_periods();
            } else if arrived {
                let period = Rational::new(rec.period.0, rec.period.1);
                self.folds.hyperperiod = match self.folds.hyperperiod {
                    None if self.periods.entries.len() == 1 => Some(period),
                    None => None,
                    Some(a) => a.lcm(period),
                };
                self.folds.period_max = Some(match self.folds.period_max {
                    None => period,
                    Some(m) => m.max(period),
                });
            }
        }
        let num_bound = |q: Rational| q.numer().checked_abs().unwrap_or(i128::MAX);
        self.abs_num_max = self
            .abs_num_max
            .max(num_bound(rate))
            .max(num_bound(envelope));
        self.recs[index] = rec;
        Some(())
    }

    /// Retracts the keys of the component at `index`.
    fn remove(&mut self, index: usize) {
        let rec = self.recs.remove(index);
        if self.denoms.remove(rec.denom) {
            self.folds.fresh_scale = self.denoms.keys().try_fold(1i128, lcm_i128);
        }
        if self.contrib_denoms.remove(rec.contrib_denom) {
            self.folds.contrib_lcm = self.refold_contrib_lcm();
        }
        if self.periods.remove(rec.period) {
            self.refold_periods();
        }
    }

    /// Refolds the contribution-denominator lcm from the surviving keys.
    fn refold_contrib_lcm(&self) -> Option<i128> {
        self.contrib_denoms.keys().try_fold(1i128, |acc, d| {
            if d == POISONED_DENOM {
                None
            } else {
                lcm_i128(acc, d)
            }
        })
    }

    /// Refolds the hyperperiod and period maximum from the surviving
    /// period keys.
    fn refold_periods(&mut self) {
        let mut hp: Option<Rational> = None;
        let mut overflowed = false;
        let mut max: Option<Rational> = None;
        for (num, den) in self.periods.keys() {
            let period = Rational::new(num, den);
            if !overflowed {
                hp = Some(match hp {
                    None => period,
                    Some(a) => match a.lcm(period) {
                        Some(l) => l,
                        None => {
                            overflowed = true;
                            period // value unused once overflowed
                        }
                    },
                });
            }
            max = Some(match max {
                None => period,
                Some(m) => m.max(period),
            });
        }
        self.folds.hyperperiod = if overflowed { None } else { hp };
        self.folds.period_max = max;
    }

    /// The fresh timebase [`profile_scale`] would pick for the resident
    /// components: the lcm over the counted denominators. Same exact
    /// value and same overflow verdict as the declaration-order fold —
    /// every partial lcm divides the full one, so if the full value
    /// fits every intermediate does, and if it does not then the fold
    /// fails in any order.
    fn fresh_scale(&self) -> Option<i128> {
        self.folds.fresh_scale
    }

    /// The lcm over the counted contribution denominators, `None` when
    /// poisoned or overflowing (the certificate then fails).
    fn contrib_denom_lcm(&self) -> Option<i128> {
        self.folds.contrib_lcm
    }

    /// The scaled hyperperiod over the counted periods — the
    /// [`scaled_hyperperiod`] fold with duplicates collapsed (lcm is
    /// idempotent) in key order instead of declaration order; value and
    /// overflow verdict are order-independent by the same
    /// partial-divides-full argument as [`SpliceAux::fresh_scale`].
    fn hyperperiod(&self, scale: i128) -> Option<i128> {
        to_scaled(self.folds.hyperperiod?, scale)
    }

    /// The largest scaled period over the counted periods — the
    /// `period_max` a fresh narrow-headroom fold over the resident
    /// components would see.
    fn period_max(&self, scale: i128) -> Option<i128> {
        match self.folds.period_max {
            None => Some(0),
            Some(m) => to_scaled(m, scale),
        }
    }
}

/// Proof that no checked rational step over the resident contributions
/// can overflow — neither the O(1) add/subtract shortcut nor any
/// left-to-right refold a fresh build would run. Every partial sum has
/// |value| ≤ `n·a` (each |contribution| is at most its |numerator| ≤
/// `a`) and a reduced denominator dividing `l`, so each intermediate
/// product inside [`Rational::checked_add`] is bounded by `(n+2)·a·l`.
/// When that bound fits `i128`, every fold order reaches the same
/// unique reduced rational — which is what lets a splice update the
/// totals in O(1) and still be bit-identical to the fresh fold.
fn fold_certificate(n: usize, a: i128, l: i128) -> bool {
    i128::try_from(n)
        .ok()
        .and_then(|n| n.checked_add(2))
        .and_then(|n| n.checked_mul(a))
        .and_then(|m| m.checked_mul(l))
        .is_some()
}

/// The running aggregate adjustment of one composite splice, folded as
/// the splice visits each outgoing and incoming component — what
/// [`ScaledProfile::apply_agg_delta`] settles the profile totals from.
struct AggDelta {
    /// Moved contributions so far.
    moved: usize,
    /// lcm of the moved contributions' denominators (`None`: overflow).
    denom_lcm: Option<i128>,
    /// Largest |numerator| among the moved contributions.
    abs_num_max: i128,
    /// The shortcut `(rate, envelope)` totals: the resident totals less
    /// every outgoing and plus every incoming contribution (`None` once
    /// a step overflowed — the certificate then fails as well).
    totals: Option<(Rational, Rational)>,
    /// The narrow-headroom proof retracted and extended the same way
    /// (`None` on a miss or when the resident proof had overflowed);
    /// its `period_max` is settled from the aux state at the end.
    narrow: Option<NarrowHeadroom>,
}

impl AggDelta {
    fn new(profile: &ScaledProfile) -> AggDelta {
        AggDelta {
            moved: 0,
            denom_lcm: Some(1),
            abs_num_max: 0,
            totals: Some((profile.rate, profile.envelope)),
            narrow: profile.narrow,
        }
    }

    /// Folds one moved contribution into the certificate inputs.
    fn note(&mut self, (rate, envelope): (Rational, Rational)) {
        let num_bound = |q: Rational| q.numer().checked_abs().unwrap_or(i128::MAX);
        self.moved += 1;
        self.denom_lcm = self
            .denom_lcm
            .and_then(|l| lcm_i128(l, rate.denom()))
            .and_then(|l| lcm_i128(l, envelope.denom()));
        self.abs_num_max = self
            .abs_num_max
            .max(num_bound(rate))
            .max(num_bound(envelope));
    }

    /// An outgoing component.
    fn retract(&mut self, contrib: (Rational, Rational), c: &ScaledComponent) {
        self.note(contrib);
        self.totals = self.totals.and_then(|(rate, envelope)| {
            Some((
                rate.checked_sub(contrib.0).ok()?,
                envelope.checked_sub(contrib.1).ok()?,
            ))
        });
        self.narrow = self.narrow.and_then(|h| h.retract(c));
    }

    /// An incoming component.
    fn extend(&mut self, contrib: (Rational, Rational), c: &ScaledComponent) {
        self.note(contrib);
        self.totals = self.totals.and_then(|(rate, envelope)| {
            Some((
                rate.checked_add(contrib.0).ok()?,
                envelope.checked_add(contrib.1).ok()?,
            ))
        });
        self.narrow = self.narrow.and_then(|h| h.extend(c));
    }
}

impl ScaledProfile {
    /// Rescales `components` onto their common integer timebase.
    ///
    /// Returns `None` when any scaled quantity (or the exact rate/burst)
    /// overflows `i128` — the profile then has no fast path and every
    /// query runs the exact rational walk.
    pub(crate) fn build(components: &[PeriodicDemand]) -> Option<ScaledProfile> {
        let scale = profile_scale(components)?;
        ScaledProfile::build_with_scale(components, scale)
    }

    /// [`ScaledProfile::build`] on a caller-chosen timebase `scale` — any
    /// common multiple of the component denominators works, because every
    /// query's comparisons are scale-invariant and every reported
    /// rational goes through `Rational::new`'s canonical reduction. The
    /// sweep engine passes one scale covering a whole `y` grid so
    /// patched profiles stay on the integer fast path.
    ///
    /// Returns `None` when a scaled quantity overflows `i128` or `scale`
    /// misses one of the denominators.
    pub(crate) fn build_with_scale(
        components: &[PeriodicDemand],
        scale: i128,
    ) -> Option<ScaledProfile> {
        let mut scaled = Vec::with_capacity(components.len());
        let mut contribs = Vec::with_capacity(components.len());
        let mut rate = Rational::ZERO;
        let mut envelope = Rational::ZERO;
        for c in components {
            let (sc, rate_c, envelope_c) = scale_component(c, scale)?;
            scaled.push(sc);
            contribs.push((rate_c, envelope_c));
            rate = rate.checked_add(rate_c).ok()?;
            envelope = envelope.checked_add(envelope_c).ok()?;
        }
        // Derive the scaled hyperperiod from the *rational* one so that
        // the fast path's hyperperiod break fires exactly when the exact
        // walk's does (lcm overflow behavior included).
        let hyperperiod = scaled_hyperperiod(components, scale);
        let narrow = NarrowHeadroom::fold(&scaled);
        Some(ScaledProfile {
            components: scaled.into(),
            scale,
            rate,
            envelope,
            hyperperiod,
            contribs: contribs.into(),
            narrow,
            aux: None,
        })
    }

    /// Builds the splice bookkeeping from the resident component list
    /// if it is not already present — one O(n) pass paid by the first
    /// splice, amortized across a delta churn. `None` when a component
    /// cannot be keyed (it does not fit the resident scale, or its
    /// denominators have no representable lcm); the caller then bails
    /// to a rebuild, which re-decides the fast path from scratch.
    fn ensure_aux(&mut self, components: &[PeriodicDemand]) -> Option<()> {
        if self.aux.is_some() {
            return Some(());
        }
        let mut aux = SpliceAux::default();
        for c in components {
            let (_, rate_c, envelope_c) = scale_component(c, self.scale)?;
            let at = aux.recs.len();
            aux.insert(at, c, rate_c, envelope_c)?;
        }
        self.aux = Some(aux);
        Some(())
    }

    /// Settles the profile aggregates after a splice has updated
    /// `components`/`contribs`/aux, from the splice's running `delta`:
    /// the `(rate, envelope)` totals take the O(1) shortcut when
    /// [`fold_certificate`] covers the resident contributions plus every
    /// moved one (the aux multisets already describe the post-delta
    /// list, so the moved keys are folded in explicitly — the certificate
    /// must also cover the pre-delta totals the shortcut starts from) and
    /// the exact in-order refold otherwise; the hyperperiod and
    /// narrow-lane proof come from the counted aux state. Bit-identical
    /// to a fresh [`ScaledProfile::build_with_scale`] on the same
    /// components and scale, overflow-bail points included.
    fn apply_agg_delta(&mut self, delta: AggDelta) -> Option<()> {
        let aux = self.aux.as_ref()?;
        let certified = aux
            .contrib_denom_lcm()
            .zip(delta.denom_lcm)
            .and_then(|(resident, moved)| lcm_i128(resident, moved))
            .is_some_and(|l| {
                let n = self.contribs.len() + delta.moved;
                fold_certificate(n, aux.abs_num_max.max(delta.abs_num_max), l)
            });
        let (hyperperiod, period_max) = (aux.hyperperiod(self.scale), aux.period_max(self.scale));
        match delta.totals.filter(|_| certified) {
            Some((rate, envelope)) => {
                self.rate = rate;
                self.envelope = envelope;
            }
            None => {
                // The certificate could not rule out an overflow
                // somewhere, so run the exact fold a fresh build runs —
                // same sums, same order, same bail points.
                let mut rate = Rational::ZERO;
                let mut envelope = Rational::ZERO;
                for &(rate_c, envelope_c) in self.contribs.iter() {
                    rate = rate.checked_add(rate_c).ok()?;
                    envelope = envelope.checked_add(envelope_c).ok()?;
                }
                self.rate = rate;
                self.envelope = envelope;
            }
        }
        self.hyperperiod = hyperperiod;
        // A shortcut miss is authoritative for additions (non-negative
        // sums overflow order-independently) but not for retractions —
        // and a proof that previously overflowed may come back in range
        // after a removal — so a miss re-proves from the survivors.
        self.narrow = match delta.narrow.zip(period_max) {
            Some((headroom, period_max)) => Some(headroom.with_period_max(period_max)),
            None => NarrowHeadroom::fold(&self.components),
        };
        Some(())
    }

    /// Re-scales only the components at `indices` (already updated in
    /// `components`) and refolds the profile aggregates in component
    /// order, exactly as [`ScaledProfile::build_with_scale`] on the same
    /// components and scale would, leaving every other component's
    /// scaled form untouched. Returns `None` when a patched quantity
    /// overflows or its denominator does not divide the profile's scale;
    /// the profile may then be partially updated and the caller must
    /// rebuild it.
    ///
    /// This is the sweep engine's patch, which pins a grid-wide timebase
    /// on purpose and touches most components every call; task-set
    /// deltas go through [`ScaledProfile::splice_batch`] instead, so a
    /// patched profile never carries splice bookkeeping.
    pub(crate) fn patch(&mut self, components: &[PeriodicDemand], indices: &[usize]) -> Option<()> {
        debug_assert!(self.aux.is_none(), "sweep profiles never splice");
        for &i in indices {
            let (sc, rate_c, envelope_c) = scale_component(&components[i], self.scale)?;
            self.components[i] = sc;
            self.contribs[i] = (rate_c, envelope_c);
        }
        let mut rate = Rational::ZERO;
        let mut envelope = Rational::ZERO;
        for &(rate_c, envelope_c) in self.contribs.iter() {
            rate = rate.checked_add(rate_c).ok()?;
            envelope = envelope.checked_add(envelope_c).ok()?;
        }
        self.rate = rate;
        self.envelope = envelope;
        self.hyperperiod = scaled_hyperperiod(components, self.scale);
        self.narrow = NarrowHeadroom::fold(&self.components);
        Some(())
    }

    /// Applies one composite splice — replace the components at
    /// `patched` (pre-edit indices, ascending), drop the ones at
    /// `removed` (pre-edit indices, strictly ascending, disjoint from
    /// `patched`), and insert each of `inserted` before its pre-edit
    /// index (see [`post_edit_index`]) — with a *single* aggregate
    /// refold, overflow-certificate check, and narrow-lane update, so a
    /// k-op delta pays the per-splice bookkeeping once. `components` is
    /// the POST-edit list (used only to bootstrap the splice bookkeeping
    /// on a profile that has never seen a delta).
    ///
    /// Per-component key accounting still happens op by op (it is O(1)
    /// per op while the distinct-key sets are stable), and the one
    /// refold runs through [`ScaledProfile::apply_agg_delta`] over every
    /// moved contribution — the certificate bound
    /// `(n + 2 + |removed| + |added|)·a·l` covers every partial sum of
    /// the combined adjustment in any order, so the shortcut-vs-refold
    /// decision stays bit-identical to a fresh build's bail points.
    /// The splice only stands when the post-edit list keeps the resident
    /// timebase — the scale a fresh build would pick — so overflow-bail
    /// points cannot move. Returns `None` when it does not or anything
    /// overflows; the profile may then be partially updated and the
    /// caller must rebuild.
    pub(crate) fn splice_batch(
        &mut self,
        patched: &[(usize, PeriodicDemand)],
        removed: &[usize],
        inserted: &[(usize, PeriodicDemand)],
        components: &[PeriodicDemand],
    ) -> Option<()> {
        let aux_ready = self.aux.is_some();
        self.ensure_aux(components)?;
        let mut delta = AggDelta::new(self);
        for &(i, ref c) in patched {
            let (sc, rate_c, envelope_c) = scale_component(c, self.scale)?;
            if aux_ready {
                self.aux.as_mut()?.replace(i, c, rate_c, envelope_c)?;
            }
            delta.retract(self.contribs[i], &self.components[i]);
            delta.extend((rate_c, envelope_c), &sc);
            self.components[i] = sc;
            self.contribs[i] = (rate_c, envelope_c);
        }
        if aux_ready {
            // Descending keeps the earlier pre-edit indices valid while
            // the later ones splice out.
            for &i in removed.iter().rev() {
                self.aux.as_mut()?.remove(i);
            }
        }
        for &i in removed {
            delta.retract(self.contribs[i], &self.components[i]);
        }
        self.components.remove_sorted(removed);
        self.contribs.remove_sorted(removed);
        for (landed, &(pre, ref c)) in inserted.iter().enumerate() {
            let i = post_edit_index(removed, pre, landed);
            let (sc, rate_c, envelope_c) = scale_component(c, self.scale)?;
            if aux_ready {
                self.aux.as_mut()?.insert(i, c, rate_c, envelope_c)?;
            }
            delta.extend((rate_c, envelope_c), &sc);
            self.components.insert(i, sc);
            self.contribs.insert(i, (rate_c, envelope_c));
        }
        if self.aux.as_ref()?.fresh_scale()? != self.scale {
            return None;
        }
        self.apply_agg_delta(delta)
    }

    /// Seeds the narrow (`i64`) kernel when the headroom proof covers
    /// `limits`' breakpoint budget.
    fn seed_narrow(&self, limits: &AnalysisLimits) -> Option<KernelWalk<i64>> {
        if !self
            .narrow
            .is_some_and(|headroom| headroom.allows(limits.max_breakpoints()))
        {
            return None;
        }
        KernelWalk::<i64>::seed(&self.components)
    }

    /// Integer fast path of [`crate::demand::DemandProfile::sup_ratio`].
    ///
    /// `Ok(None)` means "overflow — fall back to the exact walk".
    ///
    /// # Errors
    ///
    /// Exactly the budget errors the exact walk would report.
    pub(crate) fn sup_ratio(
        &self,
        limits: &AnalysisLimits,
    ) -> Result<Option<(SupRatio, bool)>, AnalysisError> {
        let Some(mut machine) = SupRatioMachine::new(self, limits) else {
            return Ok(None);
        };
        match machine.step(usize::MAX, limits)? {
            MachineStep::Done(result) => Ok(Some(result)),
            MachineStep::Overflow => Ok(None),
            MachineStep::Pending => unreachable!("a usize::MAX batch budget cannot pause"),
        }
    }

    /// Integer fast path of [`crate::demand::DemandProfile::fits`].
    ///
    /// The caller must have rejected non-positive speeds already.
    ///
    /// # Errors
    ///
    /// Exactly the budget errors the exact walk would report.
    pub(crate) fn fits(
        &self,
        speed: Rational,
        limits: &AnalysisLimits,
    ) -> Result<Option<(bool, bool)>, AnalysisError> {
        let Some(mut machine) = FitsMachine::new(self, speed, limits) else {
            return Ok(None);
        };
        match machine.step(usize::MAX, limits)? {
            MachineStep::Done(result) => Ok(Some(result)),
            MachineStep::Overflow => Ok(None),
            MachineStep::Pending => unreachable!("a usize::MAX batch budget cannot pause"),
        }
    }

    /// Integer fast path of [`crate::demand::DemandProfile::first_fit`],
    /// returning the result plus whether the envelope-floor horizon
    /// `floor_horizon` (the exact walk's, passed in so every lane cuts at
    /// the same segment) ended the walk before the hyperperiod would.
    ///
    /// The caller must have rejected non-positive speeds already.
    ///
    /// # Errors
    ///
    /// Exactly the budget errors the exact walk would report.
    pub(crate) fn first_fit(
        &self,
        speed: Rational,
        floor_horizon: Option<Rational>,
        limits: &AnalysisLimits,
    ) -> Result<Option<(FirstFit, bool)>, AnalysisError> {
        if let Some((s_num, s_den)) = narrow_speed(speed) {
            if let Some(walk) = self.seed_narrow(limits) {
                return self.first_fit_walk(walk, s_num, s_den, speed, floor_horizon, limits);
            }
        }
        let walk = ck!(KernelWalk::<i128>::seed(&self.components));
        self.first_fit_walk(
            walk,
            speed.numer(),
            speed.denom(),
            speed,
            floor_horizon,
            limits,
        )
    }

    /// The width-generic body of [`ScaledProfile::first_fit`].
    fn first_fit_walk<L: Lane>(
        &self,
        mut walk: KernelWalk<L>,
        s_num: L,
        s_den: L,
        speed: Rational,
        floor_horizon: Option<Rational>,
        limits: &AnalysisLimits,
    ) -> Result<Option<(FirstFit, bool)>, AnalysisError> {
        if walk.value <= L::default() {
            return Ok(Some((FirstFit::At(Rational::ZERO), false)));
        }
        // Loop-invariant parts of the "Never" bail-outs. `start > H ⟺
        // start' > ⌊H·K⌋` on the integer grid; an overflowing `⌊H·K⌋`
        // bails to the exact walk, like the fits horizon does.
        let rate_dominates = speed <= self.rate;
        let hyperperiod = self.hyperperiod.map(clamp_threshold::<L>);
        let floor_horizon = match floor_horizon {
            Some(h) => Some(clamp_threshold::<L>(ck!(scale_floor(h, self.scale)))),
            None => None,
        };
        let mut examined = 0usize;
        loop {
            examined += 1;
            limits.check_walk(examined)?;
            let segment_start = walk.delta;
            let value = walk.value;
            let segment_end = walk
                .peek_next()
                .expect("periodic curves have unbounded breakpoints");
            // v ≤ s·Δ ⟺ v'·s_den ≤ s_num·Δ'.
            if ck!(value.mul_widen(s_den)) <= ck!(s_num.mul_widen(segment_start)) {
                return Ok(Some((
                    FirstFit::At(Rational::new(segment_start.widen(), self.scale)),
                    false,
                )));
            }
            let slope = walk.slope;
            let slope_s_den = ck!(L::slope_mul(slope, s_den));
            if s_num > slope_s_den {
                // Exact crossing of value + slope·(Δ − start) = s·Δ:
                //   Δ = (v' − slope·start')·s_den / ((s_num − slope·s_den)·K).
                let num = ck!(
                    ck!(value.sub_check(ck!(L::slope_mul(slope, segment_start)))).mul_widen(s_den)
                );
                // Positive, and in range: both terms fit and differ.
                let den = ck!(s_num.sub_check(slope_s_den));
                // crossing < end ⟺ num < end'·den.
                if num < ck!(segment_end.mul_widen(den)) {
                    return Ok(Some((
                        FirstFit::At(Rational::new(num, ck!(den.mul_i128(self.scale)))),
                        false,
                    )));
                }
            }
            if rate_dominates {
                let past_hyperperiod = hyperperiod.is_some_and(|hp| segment_start > hp);
                if past_hyperperiod || floor_horizon.is_some_and(|h| segment_start > h) {
                    return Ok(Some((FirstFit::Never, !past_hyperperiod)));
                }
            }
            ck!(walk.advance());
        }
    }

    /// Integer fast path of `DemandProfile::min_ratio_within`.
    ///
    /// Candidate ratios live on the scaled grid (`v'/Δ'` — the scale
    /// cancels), so segment scans cost integer cross-multiplies; only the
    /// horizon-cut candidate (at most one per walk) needs rational
    /// arithmetic. All comparisons mirror the exact walk, so the reduced
    /// result is bit-identical.
    ///
    /// # Errors
    ///
    /// Exactly the budget errors the exact walk would report.
    pub(crate) fn min_ratio_within(
        &self,
        horizon: Rational,
        floor: Rational,
        tolerance: Rational,
        limits: &AnalysisLimits,
    ) -> Result<Option<Rational>, AnalysisError> {
        if let Some(walk) = self.seed_narrow(limits) {
            return self.min_ratio_walk(walk, horizon, floor, tolerance, limits);
        }
        let walk = ck!(KernelWalk::<i128>::seed(&self.components));
        self.min_ratio_walk(walk, horizon, floor, tolerance, limits)
    }

    /// The width-generic body of [`ScaledProfile::min_ratio_within`].
    fn min_ratio_walk<L: Lane>(
        &self,
        mut walk: KernelWalk<L>,
        horizon: Rational,
        floor: Rational,
        tolerance: Rational,
        limits: &AnalysisLimits,
    ) -> Result<Option<Rational>, AnalysisError> {
        if walk.value <= L::default() {
            return Ok(Some(Rational::ZERO));
        }
        // Same canonical rate, so the same stop threshold as the exact
        // walk's `floor.max(rate + tolerance)`.
        let stop_at = floor.max(self.rate + tolerance);
        // `start > horizon ⟺ start' > ⌊horizon·K⌋` and
        // `end ≤ horizon ⟺ end' ≤ ⌊horizon·K⌋` (grid points are integer);
        // `horizon > start ⟺ start' < ⌈horizon·K⌉`.
        let horizon_floor = ck!(scale_floor(horizon, self.scale));
        let horizon_ceil = ck!(scale_ceil(horizon, self.scale));
        // Reduced (numerator, denominator) of the running minimum.
        let mut best: Option<(i128, i128)> = None;
        let fold = |best: &mut Option<(i128, i128)>, num: i128, den: i128| -> Option<()> {
            let lower = match *best {
                None => true,
                Some((bn, bd)) => num.checked_mul(bd)? < bn.checked_mul(den)?,
            };
            if lower {
                let reduced = Rational::new(num, den);
                *best = Some((reduced.numer(), reduced.denom()));
            }
            Some(())
        };
        let mut examined = 0usize;
        loop {
            let segment_start = walk.delta.widen();
            if segment_start > horizon_floor {
                break;
            }
            examined += 1;
            limits.check_walk(examined)?;
            let value = walk.value;
            let segment_end = walk
                .peek_next()
                .expect("periodic curves have unbounded breakpoints");
            let slope = walk.slope;
            // Closed candidate at the segment start: v'/Δ' (scale cancels).
            if segment_start > 0 {
                ck!(fold(&mut best, value.widen(), segment_start));
            }
            if segment_end.widen() <= horizon_floor {
                // Pre-jump limit at the segment's right end.
                let dt = ck!(segment_end.sub_check(walk.delta));
                let pre = ck!(value.add_check(ck!(L::slope_mul(slope, dt))));
                ck!(fold(&mut best, pre.widen(), segment_end.widen()));
            } else if segment_start < horizon_ceil {
                // The horizon cuts this segment: evaluate the rightmost
                // in-domain candidate with the exact walk's formula (the
                // off-grid horizon defeats integer arithmetic, but this
                // branch runs at most once per walk).
                let start = Rational::new(segment_start, self.scale);
                let phi_cut = (Rational::new(value.widen(), self.scale)
                    + Rational::integer(i128::from(slope)) * (horizon - start))
                    / horizon;
                ck!(fold(&mut best, phi_cut.numer(), phi_cut.denom()));
            }
            // best ≤ stop_at ⟺ bn·stop_den ≤ stop_num·bd.
            if let Some((bn, bd)) = best {
                if ck!(bn.checked_mul(stop_at.denom())) <= ck!(stop_at.numer().checked_mul(bd)) {
                    break;
                }
            }
            ck!(walk.advance());
        }
        let (bn, bd) =
            best.expect("a positive-at-zero profile yields a candidate on its first segment");
        Ok(Some(Rational::new(bn, bd)))
    }

    /// The build behind [`crate::demand::DemandProfile::reset_frontier`];
    /// `Ok(None)` when `i128` arithmetic overflows.
    ///
    /// The caller must have rejected non-positive `min_speed` already.
    ///
    /// # Errors
    ///
    /// Exactly the budget errors a first-fit walk at `min_speed` reports.
    pub(crate) fn reset_frontier(
        &self,
        min_speed: Rational,
        limits: &AnalysisLimits,
    ) -> Result<Option<ResetFrontier>, AnalysisError> {
        if let Some((s_num, s_den)) = narrow_speed(min_speed) {
            if let Some(walk) = self.seed_narrow(limits) {
                return self.reset_frontier_walk(walk, s_num, s_den, min_speed, limits);
            }
        }
        let walk = ck!(KernelWalk::<i128>::seed(&self.components));
        self.reset_frontier_walk(
            walk,
            min_speed.numer(),
            min_speed.denom(),
            min_speed,
            limits,
        )
    }

    /// The width-generic body of [`ScaledProfile::reset_frontier`].
    fn reset_frontier_walk<L: Lane>(
        &self,
        mut walk: KernelWalk<L>,
        speed_num: L,
        speed_den: L,
        min_speed: Rational,
        limits: &AnalysisLimits,
    ) -> Result<Option<ResetFrontier>, AnalysisError> {
        if walk.value <= L::default() {
            return Ok(Some(ResetFrontier::everything_fits_at_zero()));
        }
        // Raw (unreduced) serving thresholds: every comparison is a
        // checked cross-multiply against a positive denominator, which
        // orders exactly as the reduced rationals do. No reduced rational
        // is built at all — nearly every walked segment improves a
        // threshold on real profiles, so lookups materialize the one
        // record that serves instead ([`FrontierRecord`]).
        let mut records: Vec<FrontierRecord> = Vec::new();
        let mut closed_cover: Option<(L, L)> = None;
        let mut open_cover: Option<(L, L)> = None;
        // Loop-invariant parts of the hyperperiod bail-out.
        let rate_dominates = min_speed <= self.rate;
        let hyperperiod = self.hyperperiod.map(clamp_threshold::<L>);
        let one = L::from_i64(1);
        let mut examined = 0usize;
        loop {
            // Stop once min_speed itself is served: min_speed ≥
            // closed_cover, or min_speed > open_cover.
            let closed_serves = match closed_cover {
                None => false,
                Some((num, den)) => ck!(speed_num.mul_widen(den)) >= ck!(num.mul_widen(speed_den)),
            };
            let open_serves = match open_cover {
                None => false,
                Some((num, den)) => ck!(speed_num.mul_widen(den)) > ck!(num.mul_widen(speed_den)),
            };
            if closed_serves || open_serves {
                break;
            }
            examined += 1;
            limits.check_walk(examined)?;
            let segment_start = walk.delta;
            let value = walk.value;
            let segment_end = walk
                .peek_next()
                .expect("periodic curves have unbounded breakpoints");
            let slope = walk.slope;
            // φ_pre(end) = (v' + slope·(end' − start'))/end', scale-free
            // because the scale cancels (slope is already scale-free); the
            // open threshold is max(φ_pre, slope) = (pre, end) when
            // pre ≥ slope·end, else (slope, 1) — `Rational`'s canonical
            // form makes the tie representation-identical either way.
            let dt = ck!(segment_end.sub_check(segment_start));
            let pre = ck!(value.add_check(ck!(L::slope_mul(slope, dt))));
            let (open_num, open_den) = if pre >= ck!(L::slope_mul(slope, segment_end)) {
                (pre, segment_end)
            } else {
                (L::from_i64(slope), one)
            };
            // ψ = (v'/K)/(Δ'/K) = v'/Δ' — the scale cancels.
            let improves_closed = segment_start > L::default()
                && match closed_cover {
                    None => true,
                    // v/Δ < cn/cd ⟺ v·cd < cn·Δ (all denominators > 0).
                    Some((cn, cd)) => ck!(value.mul_widen(cd)) < ck!(cn.mul_widen(segment_start)),
                };
            let improves_open = match open_cover {
                None => true,
                Some((on, od)) => ck!(open_num.mul_widen(od)) < ck!(on.mul_widen(open_den)),
            };
            if improves_closed || improves_open {
                records.push(FrontierRecord {
                    start: segment_start.widen(),
                    value: value.widen(),
                    slope: walk.slope,
                    open_num: open_num.widen(),
                    open_den: open_den.widen(),
                });
                if improves_closed {
                    closed_cover = Some((value, segment_start));
                }
                if improves_open {
                    open_cover = Some((open_num, open_den));
                }
            }
            if rate_dominates {
                if let Some(hp) = hyperperiod {
                    if segment_start > hp {
                        // Mirrors first_fit's Never bail-out.
                        break;
                    }
                }
            }
            ck!(walk.advance());
        }
        Ok(Some(ResetFrontier::new(
            self.scale,
            records,
            closed_cover.map(|(n, d)| (n.widen(), d.widen())),
            open_cover.map(|(n, d)| (n.widen(), d.widen())),
        )))
    }
}

/// The outcome of driving a resumable walk machine for a bounded number
/// of breakpoint batches.
#[derive(Debug)]
pub(crate) enum MachineStep<T> {
    /// The batch budget ran out before the walk finished — call `step`
    /// again to continue exactly where it paused.
    Pending,
    /// Integer arithmetic overflowed: discard the machine and fall back
    /// to the exact rational walk (the `Ok(None)` of the one-shot path).
    Overflow,
    /// The walk finished with this result.
    Done(T),
}

/// [`ScaledProfile::sup_ratio`] as a resumable machine: `step` drives at
/// most `batches` breakpoint batches and pauses, so a lockstep driver
/// can interleave many profiles' walks for cache locality. Driving a
/// fresh machine with a `usize::MAX` budget *is* the one-shot query —
/// same state transitions in the same order, so results (including
/// budget errors and their `examined` counts) are bit-identical no
/// matter how the stepping is sliced. The machine runs on narrow
/// (`i64`) lanes whenever the headroom proof allows, wide (`i128`)
/// lanes otherwise; results are identical across widths.
pub(crate) enum SupRatioMachine {
    /// Proved-narrow 64-bit lanes.
    Narrow(SupCore<i64>),
    /// General 128-bit lanes with overflow bails.
    Wide(SupCore<i128>),
}

impl SupRatioMachine {
    /// `None` when seeding the walk overflows (no fast path — the caller
    /// falls back to the exact walk).
    pub(crate) fn new(profile: &ScaledProfile, limits: &AnalysisLimits) -> Option<SupRatioMachine> {
        if let Some(walk) = profile.seed_narrow(limits) {
            return Some(SupRatioMachine::Narrow(SupCore::with_walk(walk, profile)));
        }
        let walk = KernelWalk::<i128>::seed(&profile.components)?;
        Some(SupRatioMachine::Wide(SupCore::with_walk(walk, profile)))
    }

    /// Drives at most `batches` further breakpoint batches.
    ///
    /// # Errors
    ///
    /// Exactly the budget errors the exact walk would report, at exactly
    /// the same `examined` counts.
    pub(crate) fn step(
        &mut self,
        batches: usize,
        limits: &AnalysisLimits,
    ) -> Result<MachineStep<(SupRatio, bool)>, AnalysisError> {
        match self {
            SupRatioMachine::Narrow(core) => core.step(batches, limits),
            SupRatioMachine::Wide(core) => core.step(batches, limits),
        }
    }
}

/// The width-generic state of a [`SupRatioMachine`].
pub(crate) struct SupCore<L: Lane> {
    walk: KernelWalk<L>,
    rate: Rational,
    envelope: Rational,
    /// Scaled hyperperiod clamped to the lane width (see
    /// [`clamp_threshold`]).
    hyperperiod: Option<L>,
    scale: i128,
    /// (reduced numerator, reduced denominator, raw scaled witness).
    best: Option<(L, L, L)>,
    /// `⌈horizon·K⌉` (Δ ≥ h ⟺ Δ' ≥ ⌈h·K⌉), clamped to the lane
    /// width; when the scaled product overflows `i128` the fast path
    /// bails — an inclusive sentinel could fire a break the exact walk
    /// would not take.
    horizon: Option<L>,
    pruned: bool,
    examined: usize,
    finished: Option<(SupRatio, bool)>,
}

impl<L: Lane> SupCore<L> {
    fn with_walk(walk: KernelWalk<L>, profile: &ScaledProfile) -> SupCore<L> {
        let finished = (walk.value > L::default()).then_some((SupRatio::Unbounded, false));
        SupCore {
            walk,
            rate: profile.rate,
            envelope: profile.envelope,
            hyperperiod: profile.hyperperiod.map(clamp_threshold::<L>),
            scale: profile.scale,
            best: None,
            horizon: None,
            pruned: false,
            examined: 0,
            finished,
        }
    }

    fn step(
        &mut self,
        batches: usize,
        limits: &AnalysisLimits,
    ) -> Result<MachineStep<(SupRatio, bool)>, AnalysisError> {
        if let Some(done) = self.finished {
            return Ok(MachineStep::Done(done));
        }
        let mut left = batches;
        while let Some(delta) = self.walk.peek_next() {
            if let Some(hp) = self.hyperperiod {
                if delta > hp {
                    break;
                }
            }
            if let Some(h) = self.horizon {
                if delta >= h {
                    self.pruned = true;
                    break;
                }
            }
            if left == 0 {
                return Ok(MachineStep::Pending);
            }
            left -= 1;
            self.examined += 1;
            limits.check_walk(self.examined)?;
            mk!(self.walk.advance());
            // ratio = (v'/K)/(Δ'/K) = v'/Δ' — the scale cancels.
            let improved = match self.best {
                None => true,
                Some((bn, bd, _)) => {
                    mk!(self.walk.value.mul_widen(bd)) > mk!(bn.mul_widen(self.walk.delta))
                }
            };
            if improved {
                if L::NARROW {
                    // Proved-narrow walks keep the running best as the raw
                    // (unreduced) `v'/Δ'` pair — later improvement tests
                    // cross-multiply exactly in `i128` either way, and the
                    // final report reduces once — so the per-improvement
                    // gcd disappears. The horizon refresh runs on the
                    // all-integer path below unless a product leaves
                    // `i128`, where the exact rational refresh takes over
                    // with the same value.
                    self.best = Some((self.walk.value, self.walk.delta, self.walk.delta));
                    match horizon_fast(
                        self.walk.value.widen(),
                        self.walk.delta.widen(),
                        self.rate,
                        self.envelope,
                        self.scale,
                    ) {
                        HorizonFast::NotPast => {}
                        HorizonFast::Scaled(h) => {
                            self.horizon = Some(clamp_threshold::<L>(h));
                        }
                        HorizonFast::Overflow => {
                            let ratio =
                                Rational::new(self.walk.value.widen(), self.walk.delta.widen());
                            if ratio > self.rate {
                                // Same (panicking) rational ops as the exact walk.
                                let h = self.envelope / (ratio - self.rate);
                                self.horizon =
                                    Some(clamp_threshold::<L>(mk!(scale_ceil(h, self.scale))));
                            }
                        }
                    }
                } else {
                    let ratio = Rational::new(self.walk.value.widen(), self.walk.delta.widen());
                    self.best = Some((
                        mk!(L::from_i128(ratio.numer())),
                        mk!(L::from_i128(ratio.denom())),
                        self.walk.delta,
                    ));
                    if ratio > self.rate {
                        // Same (panicking) rational ops as the exact walk.
                        let h = self.envelope / (ratio - self.rate);
                        self.horizon = Some(clamp_threshold::<L>(mk!(scale_ceil(h, self.scale))));
                    }
                }
            }
        }
        let sup = match self.best {
            None => SupRatio::Finite {
                value: Rational::ZERO,
                witness: None,
            },
            Some((bn, bd, delta)) => SupRatio::Finite {
                value: Rational::new(bn.widen(), bd.widen()),
                witness: Some(Rational::new(delta.widen(), self.scale)),
            },
        };
        let done = (sup, self.pruned);
        self.finished = Some(done);
        Ok(MachineStep::Done(done))
    }
}

/// [`ScaledProfile::fits`] as a resumable machine — see
/// [`SupRatioMachine`] for the stepping and width-dispatch contract.
pub(crate) enum FitsMachine {
    /// Proved-narrow 64-bit lanes.
    Narrow(FitsCore<i64>),
    /// General 128-bit lanes with overflow bails.
    Wide(FitsCore<i128>),
}

impl FitsMachine {
    /// `None` when seeding (or the horizon rescale) overflows. The
    /// caller must have rejected non-positive speeds already.
    pub(crate) fn new(
        profile: &ScaledProfile,
        speed: Rational,
        limits: &AnalysisLimits,
    ) -> Option<FitsMachine> {
        if let Some((s_num, s_den)) = narrow_speed(speed) {
            if let Some(walk) = profile.seed_narrow(limits) {
                return FitsCore::with_walk(walk, profile, speed, s_num, s_den)
                    .map(FitsMachine::Narrow);
            }
        }
        let walk = KernelWalk::<i128>::seed(&profile.components)?;
        FitsCore::with_walk(walk, profile, speed, speed.numer(), speed.denom())
            .map(FitsMachine::Wide)
    }

    /// Drives at most `batches` further breakpoint batches.
    ///
    /// # Errors
    ///
    /// Exactly the budget errors the exact walk would report, at exactly
    /// the same `examined` counts.
    pub(crate) fn step(
        &mut self,
        batches: usize,
        limits: &AnalysisLimits,
    ) -> Result<MachineStep<(bool, bool)>, AnalysisError> {
        match self {
            FitsMachine::Narrow(core) => core.step(batches, limits),
            FitsMachine::Wide(core) => core.step(batches, limits),
        }
    }
}

/// The width-generic state of a [`FitsMachine`].
pub(crate) struct FitsCore<L: Lane> {
    walk: KernelWalk<L>,
    /// Scaled hyperperiod clamped to the lane width.
    hyperperiod: Option<L>,
    horizon: Option<L>,
    s_num: L,
    s_den: L,
    pruned: bool,
    examined: usize,
    finished: Option<(bool, bool)>,
}

impl<L: Lane> FitsCore<L> {
    fn with_walk(
        walk: KernelWalk<L>,
        profile: &ScaledProfile,
        speed: Rational,
        s_num: L,
        s_den: L,
    ) -> Option<FitsCore<L>> {
        // Same early-return order as the one-shot query: positive demand
        // at Δ = 0 first, then a rate deficit — and the horizon rescale
        // (whose overflow bails the fast path) only happens when neither
        // early return fired.
        let finished =
            (walk.value > L::default() || speed < profile.rate).then_some((false, false));
        let horizon = if finished.is_none() && speed > profile.rate {
            // Same (panicking) rational ops as the exact walk.
            let h = profile.envelope / (speed - profile.rate);
            Some(clamp_threshold::<L>(scale_ceil(h, profile.scale)?))
        } else {
            None
        };
        Some(FitsCore {
            walk,
            hyperperiod: profile.hyperperiod.map(clamp_threshold::<L>),
            horizon,
            s_num,
            s_den,
            pruned: false,
            examined: 0,
            finished,
        })
    }

    fn step(
        &mut self,
        batches: usize,
        limits: &AnalysisLimits,
    ) -> Result<MachineStep<(bool, bool)>, AnalysisError> {
        if let Some(done) = self.finished {
            return Ok(MachineStep::Done(done));
        }
        let mut left = batches;
        while let Some(delta) = self.walk.peek_next() {
            if let Some(h) = self.horizon {
                if delta >= h {
                    self.pruned = self.hyperperiod.is_none_or(|hp| delta <= hp);
                    break;
                }
            }
            if let Some(hp) = self.hyperperiod {
                if delta > hp {
                    break;
                }
            }
            if left == 0 {
                return Ok(MachineStep::Pending);
            }
            left -= 1;
            self.examined += 1;
            limits.check_walk(self.examined)?;
            mk!(self.walk.advance());
            // v > s·Δ ⟺ v'·s_den > s_num·Δ' (K > 0, s_den > 0).
            if mk!(self.walk.value.mul_widen(self.s_den))
                > mk!(self.s_num.mul_widen(self.walk.delta))
            {
                self.finished = Some((false, false));
                return Ok(MachineStep::Done((false, false)));
            }
        }
        let done = (true, self.pruned);
        self.finished = Some(done);
        Ok(MachineStep::Done(done))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::DemandProfile;

    fn int(v: i128) -> Rational {
        Rational::integer(v)
    }

    fn rat(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn scale_is_lcm_of_denominators() {
        let a = PeriodicDemand::new(
            rat(5, 2),
            rat(3, 4),
            int(0),
            rat(1, 3),
            rat(1, 4),
            rat(1, 2),
        );
        let p = ScaledProfile::build(&[a]).expect("fits");
        assert_eq!(p.scale, 12);
        assert_eq!(p.components[0].period, 30);
        assert_eq!(p.components[0].ramp_start, 4);
    }

    #[test]
    fn integer_inputs_scale_by_one() {
        let a = PeriodicDemand::step(int(4), int(2), int(1));
        let p = ScaledProfile::build(&[a]).expect("fits");
        assert_eq!(p.scale, 1);
        assert_eq!(p.hyperperiod, Some(4));
    }

    #[test]
    fn huge_denominators_refuse_the_fast_path() {
        let huge = 1i128 << 100;
        let a = PeriodicDemand::step(rat(1, huge), rat(1, huge), int(1));
        let b = PeriodicDemand::step(rat(1, huge - 1), rat(1, huge - 1), int(1));
        assert!(ScaledProfile::build(&[a, b]).is_none());
    }

    #[test]
    fn small_profiles_walk_on_narrow_lanes() {
        let comps = vec![
            PeriodicDemand::step(int(5), int(3), int(2)),
            PeriodicDemand::step(int(7), int(2), int(1)),
        ];
        let scaled = ScaledProfile::build(&comps).expect("fits");
        let limits = AnalysisLimits::default();
        assert!(scaled.seed_narrow(&limits).is_some());
        assert!(matches!(
            SupRatioMachine::new(&scaled, &limits),
            Some(SupRatioMachine::Narrow(_))
        ));
    }

    #[test]
    fn wide_quantities_keep_the_wide_kernel() {
        let big = i128::from(i64::MAX);
        let comps = vec![PeriodicDemand::step(int(big), int(big / 2), int(1))];
        let scaled = ScaledProfile::build(&comps).expect("fits");
        let limits = AnalysisLimits::default();
        assert!(scaled.seed_narrow(&limits).is_none());
        assert!(matches!(
            SupRatioMachine::new(&scaled, &limits),
            Some(SupRatioMachine::Wide(_))
        ));
    }

    #[test]
    fn narrow_and_wide_sup_ratio_agree() {
        let comps = vec![
            PeriodicDemand::new(int(6), int(5), int(1), int(4), int(1), int(4)),
            PeriodicDemand::step(int(5), int(3), int(2)),
            PeriodicDemand::new(rat(7, 2), int(3), int(0), int(0), int(1), int(2)),
        ];
        let scaled = ScaledProfile::build(&comps).expect("fits");
        let limits = AnalysisLimits::default();
        let narrow_walk = scaled.seed_narrow(&limits).expect("narrow proof holds");
        let mut narrow = SupCore::with_walk(narrow_walk, &scaled);
        let wide_walk = KernelWalk::<i128>::seed(&scaled.components).expect("fits");
        let mut wide = SupCore::with_walk(wide_walk, &scaled);
        let narrow_done = narrow.step(usize::MAX, &limits).expect("completes");
        let wide_done = wide.step(usize::MAX, &limits).expect("completes");
        match (narrow_done, wide_done) {
            (MachineStep::Done(n), MachineStep::Done(w)) => assert_eq!(n, w),
            _ => panic!("both widths complete"),
        }
    }

    #[test]
    fn narrow_and_wide_first_fit_cut_at_the_same_segment() {
        // Positive at zero and dense enough that the envelope-floor
        // horizon falls well inside the hyperperiod (lcm 210).
        let comps = vec![
            PeriodicDemand::new(int(6), int(5), int(1), int(4), int(1), int(4)),
            PeriodicDemand::step(int(5), int(3), int(2)),
            PeriodicDemand::new(rat(7, 2), int(3), int(0), int(0), int(1), int(2)),
            PeriodicDemand::new(int(10), int(4), int(3), int(5), int(4), int(0)),
        ];
        let profile = DemandProfile::new(comps.clone());
        let scaled = ScaledProfile::build(&comps).expect("fits");
        let rate = profile.rate();
        let mut pruned = 0;
        for budget in [1, 2, 3, 5, 8, 13, 21, 1_000] {
            let limits = AnalysisLimits::new(budget);
            for k in [1, 2, 4, 6, 7, 8] {
                let speed = rate * rat(k, 8);
                let horizon = profile.floor_horizon(speed);
                let (s_num, s_den) = narrow_speed(speed).expect("small speed");
                let narrow_walk = scaled.seed_narrow(&limits).expect("narrow proof holds");
                let narrow =
                    scaled.first_fit_walk(narrow_walk, s_num, s_den, speed, horizon, &limits);
                let wide_walk = KernelWalk::<i128>::seed(&scaled.components).expect("fits");
                let wide = scaled.first_fit_walk(
                    wide_walk,
                    speed.numer(),
                    speed.denom(),
                    speed,
                    horizon,
                    &limits,
                );
                assert_eq!(narrow, wide, "budget {budget} at {k}/8 of the rate");
                let exact = profile.first_fit_exact_traced(speed, &limits);
                assert_eq!(
                    narrow.map(|done| done.expect("no overflow")),
                    exact,
                    "budget {budget} at {k}/8 of the rate"
                );
                pruned += usize::from(matches!(exact, Ok((_, true))));
            }
        }
        assert!(pruned > 0, "the floor cut never fired");
    }

    #[test]
    fn scaled_walk_matches_profile_eval() {
        let comps = vec![
            PeriodicDemand::new(int(6), int(5), int(1), int(4), int(1), int(4)),
            PeriodicDemand::step(int(5), int(3), int(2)),
            PeriodicDemand::new(rat(7, 2), int(3), int(0), int(0), int(1), int(2)),
        ];
        let profile = DemandProfile::new(comps.clone());
        let scaled = ScaledProfile::build(&comps).expect("fits");
        let mut walk = KernelWalk::<i64>::seed(&scaled.components).expect("fits");
        for _ in 0..200 {
            walk.advance().expect("fits");
            let delta = Rational::new(walk.delta.widen(), scaled.scale);
            let value = Rational::new(walk.value.widen(), scaled.scale);
            assert_eq!(value, profile.eval(delta), "diverged at {delta}");
        }
    }
}
