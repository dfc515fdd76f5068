//! Differential property tests for the batched lockstep drivers: walking
//! many profiles at once through the SoA kernel ([`sup_ratio_many`],
//! [`fits_many`]) must agree *bit-for-bit* with querying each profile on
//! its own — same values, same errors (including `examined` payloads),
//! same overflow-fallback boundaries — and with the plain exact rational
//! walks underneath.

use rbs_core::demand::{
    fits_many, sup_ratio_many, DemandProfile, FirstFit, PeriodicDemand, WalkKind,
};
use rbs_core::{AnalysisError, AnalysisLimits};
use rbs_rng::Rng;
use rbs_timebase::Rational;

const CASES: usize = 64;

fn int(v: i128) -> Rational {
    Rational::integer(v)
}

fn rat(n: i128, d: i128) -> Rational {
    Rational::new(n, d)
}

fn arb_den(rng: &mut Rng) -> i128 {
    [1, 2, 3, 4][rng.gen_range_usize(0, 3)]
}

/// Arbitrary well-formed components over a rational timebase, covering
/// steps, ramps, clipped ramps, immediate ramps and zero-offset jumps.
fn arb_component(rng: &mut Rng) -> PeriodicDemand {
    let period = rat(rng.gen_range_i128(1, 12), arb_den(rng));
    let ramp_start = period * rat(rng.gen_range_i128(0, 3), 4);
    let jump = rat(rng.gen_range_i128(0, 5), arb_den(rng));
    let ramp_len = rat(rng.gen_range_i128(0, 11), arb_den(rng));
    let extra = rat(rng.gen_range_i128(0, 3), arb_den(rng));
    PeriodicDemand::new(
        period,
        jump + ramp_len + extra,
        extra,
        ramp_start,
        jump,
        ramp_len,
    )
}

fn arb_profile(rng: &mut Rng, max: usize) -> DemandProfile {
    let len = rng.gen_range_usize(1, max);
    DemandProfile::new((0..len).map(|_| arb_component(rng)).collect())
}

/// A profile whose common scale overflows i128, so it has no integer
/// fast path at all (batch slots must fall back to the exact walk).
fn no_fast_path_profile() -> DemandProfile {
    let d2 = 1i128 << 80;
    let d3 = 3i128.pow(31);
    DemandProfile::new(vec![PeriodicDemand::step(
        rat(3, d2),
        rat(1, d2),
        rat(1, d3),
    )])
}

/// An all-integer profile whose fast-path walk overflows mid-query (the
/// improvement cross-multiply exceeds i128), forcing the bail-out.
fn mid_walk_overflow_profile() -> DemandProfile {
    let big = (i128::MAX / 16) | 1;
    DemandProfile::new(vec![
        PeriodicDemand::step(int(1), int(1), int(1)),
        PeriodicDemand::step(int(3), int(3), int(1)),
        PeriodicDemand::step(int(64), int(64), int(big)),
    ])
}

#[test]
fn sup_ratio_many_matches_per_profile_queries() {
    let mut rng = Rng::seed_from_u64(0xba7c_0001);
    let limits = AnalysisLimits::default();
    for case in 0..CASES {
        let profiles: Vec<DemandProfile> = (0..rng.gen_range_usize(1, 12))
            .map(|_| arb_profile(&mut rng, 5))
            .collect();
        let refs: Vec<_> = profiles.iter().map(|p| (p, &limits)).collect();
        let batched = sup_ratio_many(&refs);
        assert_eq!(batched.len(), profiles.len());
        for (slot, (profile, result)) in profiles.iter().zip(&batched).enumerate() {
            let solo = profile.sup_ratio(&limits);
            assert_eq!(
                result.as_ref().map(|(sup, _)| *sup).map_err(Clone::clone),
                solo,
                "case {case} slot {slot}"
            );
            let exact = profile.sup_ratio_exact(&limits);
            assert_eq!(
                result.as_ref().map(|(sup, _)| *sup).map_err(Clone::clone),
                exact,
                "case {case} slot {slot} vs exact"
            );
        }
    }
}

#[test]
fn fits_many_matches_per_profile_queries() {
    let mut rng = Rng::seed_from_u64(0xba7c_0002);
    let limits = AnalysisLimits::default();
    for case in 0..CASES {
        let queries: Vec<(DemandProfile, Rational)> = (0..rng.gen_range_usize(1, 12))
            .map(|_| (arb_profile(&mut rng, 4), rat(rng.gen_range_i128(1, 40), 8)))
            .collect();
        let refs: Vec<_> = queries
            .iter()
            .map(|(profile, speed)| (profile, *speed, &limits))
            .collect();
        let batched = fits_many(&refs);
        for (slot, ((profile, speed), result)) in queries.iter().zip(&batched).enumerate() {
            let solo = profile.fits(*speed, &limits);
            assert_eq!(
                result.as_ref().map(|(fits, _)| *fits).map_err(Clone::clone),
                solo,
                "case {case} slot {slot} at speed {speed}"
            );
            let exact = profile.fits_exact(*speed, &limits);
            assert_eq!(
                result.as_ref().map(|(fits, _)| *fits).map_err(Clone::clone),
                exact,
                "case {case} slot {slot} vs exact at speed {speed}"
            );
        }
    }
}

#[test]
fn fast_path_batches_report_lockstep_traces() {
    let mut rng = Rng::seed_from_u64(0xba7c_0003);
    let limits = AnalysisLimits::default();
    let profiles: Vec<DemandProfile> = (0..8).map(|_| arb_profile(&mut rng, 4)).collect();
    assert!(profiles.iter().all(DemandProfile::has_fast_path));
    let refs: Vec<_> = profiles.iter().map(|p| (p, &limits)).collect();
    for result in sup_ratio_many(&refs) {
        let (_, trace) = result.expect("fast-path batch completes");
        assert_eq!(trace.kind, WalkKind::Integer);
        assert!(trace.lockstep, "fast-path slot must run in lockstep");
    }
}

#[test]
fn batches_larger_than_the_lockstep_chunk_stay_bit_identical() {
    // 150 profiles > LOCKSTEP_CHUNK (64): the driver must split the
    // batch into chunks without perturbing any slot's result.
    let mut rng = Rng::seed_from_u64(0xba7c_0004);
    let limits = AnalysisLimits::default();
    let profiles: Vec<DemandProfile> = (0..150).map(|_| arb_profile(&mut rng, 4)).collect();
    let refs: Vec<_> = profiles.iter().map(|p| (p, &limits)).collect();
    let batched = sup_ratio_many(&refs);
    assert_eq!(batched.len(), 150);
    for (slot, (profile, result)) in profiles.iter().zip(&batched).enumerate() {
        assert_eq!(
            result.as_ref().map(|(sup, _)| *sup).map_err(Clone::clone),
            profile.sup_ratio(&limits),
            "slot {slot}"
        );
    }
}

#[test]
fn overflow_boundary_slots_fall_back_inside_a_batch() {
    // A batch mixing healthy fast-path profiles with (a) a profile that
    // has no fast path at all and (b) one that overflows mid-walk: the
    // poisoned slots must fall back to the exact walk (reporting
    // rational, non-lockstep traces) without disturbing their neighbors.
    let mut rng = Rng::seed_from_u64(0xba7c_0005);
    let limits = AnalysisLimits::default();
    let healthy_a = arb_profile(&mut rng, 4);
    let healthy_b = arb_profile(&mut rng, 4);
    let unscalable = no_fast_path_profile();
    let bailing = mid_walk_overflow_profile();
    let profiles = [&healthy_a, &unscalable, &bailing, &healthy_b];
    let batched = sup_ratio_many(&profiles.map(|p| (p, &limits)));
    for (slot, (profile, result)) in profiles.iter().zip(&batched).enumerate() {
        assert_eq!(
            result.as_ref().map(|(sup, _)| *sup).map_err(Clone::clone),
            profile.sup_ratio_exact(&limits),
            "slot {slot}"
        );
    }
    let (_, trace) = batched[1].as_ref().expect("exact walk completes");
    assert_eq!(trace.kind, WalkKind::Rational);
    assert!(!trace.lockstep);
    let (_, trace) = batched[2].as_ref().expect("exact walk completes");
    assert_eq!(trace.kind, WalkKind::Rational, "mid-walk overflow bails");
    assert!(!trace.lockstep);
}

#[test]
fn budget_errors_match_per_slot_under_tight_limits() {
    // Budget errors (and their `examined` payloads) must match even when
    // the budget cuts lockstep walks mid-chunk.
    let mut rng = Rng::seed_from_u64(0xba7c_0006);
    for case in 0..CASES {
        let limits = AnalysisLimits::new(rng.gen_range_usize(1, 12));
        let profiles: Vec<DemandProfile> = (0..rng.gen_range_usize(2, 8))
            .map(|_| arb_profile(&mut rng, 4))
            .collect();
        let refs: Vec<_> = profiles.iter().map(|p| (p, &limits)).collect();
        let batched = sup_ratio_many(&refs);
        for (slot, (profile, result)) in profiles.iter().zip(&batched).enumerate() {
            assert_eq!(
                result.as_ref().map(|(sup, _)| *sup).map_err(Clone::clone),
                profile.sup_ratio(&limits),
                "case {case} slot {slot}"
            );
        }
    }
}

#[test]
fn coprime_budget_exhaustion_is_identical_in_batch() {
    let profile = DemandProfile::new(vec![
        PeriodicDemand::step(int(10_007), int(10_007), int(1)),
        PeriodicDemand::step(int(10_009), int(10_009), int(10_000)),
    ]);
    let limits = AnalysisLimits::new(2);
    let solo = profile.sup_ratio(&limits);
    assert!(matches!(
        solo,
        Err(AnalysisError::BreakpointBudgetExhausted { .. })
    ));
    // Each slot walks under its own limits: the roomy one completes.
    let roomy = AnalysisLimits::default();
    let batched = sup_ratio_many(&[(&profile, &limits), (&profile, &limits), (&profile, &roomy)]);
    for result in &batched[..2] {
        assert_eq!(
            result.as_ref().map(|(sup, _)| *sup).map_err(Clone::clone),
            solo
        );
    }
    assert_eq!(
        batched[2]
            .as_ref()
            .map(|(sup, _)| *sup)
            .map_err(Clone::clone),
        profile.sup_ratio(&roomy)
    );
    assert!(batched[2].is_ok());
}

#[test]
fn non_positive_speeds_error_per_slot_in_fits_many() {
    let mut rng = Rng::seed_from_u64(0xba7c_0007);
    let limits = AnalysisLimits::default();
    let good = arb_profile(&mut rng, 4);
    let queries = [
        (&good, Rational::ONE),
        (&good, int(0)),
        (&good, int(-2)),
        (&good, Rational::TWO),
    ];
    let batched = fits_many(&queries.map(|(profile, speed)| (profile, speed, &limits)));
    for ((profile, speed), result) in queries.iter().zip(&batched) {
        assert_eq!(
            result.as_ref().map(|(fits, _)| *fits).map_err(Clone::clone),
            profile.fits(*speed, &limits),
            "speed {speed}"
        );
    }
    assert!(matches!(batched[1], Err(AnalysisError::NonPositiveSpeed)));
    assert!(matches!(batched[2], Err(AnalysisError::NonPositiveSpeed)));
}

/// The six raw quantities of one arbitrary component (same shapes as
/// [`arb_component`]), so the test can build it at two time scales.
fn arb_raw(rng: &mut Rng) -> [Rational; 6] {
    let period = rat(rng.gen_range_i128(1, 12), arb_den(rng));
    let ramp_start = period * rat(rng.gen_range_i128(0, 3), 4);
    let jump = rat(rng.gen_range_i128(0, 5), arb_den(rng));
    let ramp_len = rat(rng.gen_range_i128(0, 11), arb_den(rng));
    let extra = rat(rng.gen_range_i128(0, 3), arb_den(rng));
    let constant = rat(rng.gen_range_i128(0, 4), arb_den(rng));
    [
        period,
        jump + ramp_len + extra,
        constant,
        ramp_start,
        jump,
        ramp_len,
    ]
}

/// The profile with every time and demand quantity multiplied by
/// `factor`: `eval'(factor·Δ) = factor·eval(Δ)`, so first fits scale by
/// `factor` and the walks visit the same breakpoints in the same order.
fn profile_at_scale(raws: &[[Rational; 6]], factor: Rational) -> DemandProfile {
    DemandProfile::new(
        raws.iter()
            .map(
                |&[period, per_period, constant, ramp_start, jump, ramp_len]| {
                    PeriodicDemand::new(
                        period * factor,
                        per_period * factor,
                        constant * factor,
                        ramp_start * factor,
                        jump * factor,
                        ramp_len * factor,
                    )
                },
            )
            .collect(),
    )
}

/// `speed` nudged down by one part in 2^33: the odd factor `2^33 − 1`
/// survives reduction in the numerator, which then exceeds `u32::MAX`,
/// so the query can only run on the wide lane.
fn wide_only(speed: Rational) -> Rational {
    speed * rat((1 << 33) - 1, 1 << 33)
}

#[test]
fn below_rate_first_fits_agree_across_narrow_wide_and_exact() {
    // Every query below the rate must cut at the same segment on every
    // lane: equal results, equal pruned flags, and equal budget errors —
    // sweeping the budget, the `examined` payloads pin the cut segment.
    // Small grids and small speeds take the narrow lane; the same
    // profile at a `wide_only` speed takes the wide lane; and the
    // profile stretched by 2^55 takes the wide lane at any speed, its
    // periods times the default budget exceeding i64::MAX/4 (while the
    // build's envelope products still fit i128).
    let stretch = int(1i128 << 55);
    let mut rng = Rng::seed_from_u64(0xba7c_0008);
    let (mut pruned, mut exhausted) = (0usize, 0usize);
    for case in 0..CASES {
        let raws: Vec<[Rational; 6]> = (0..rng.gen_range_usize(1, 5))
            .map(|_| arb_raw(&mut rng))
            .collect();
        let profile = profile_at_scale(&raws, Rational::ONE);
        let stretched = profile_at_scale(&raws, stretch);
        for k in [1, 3, 5, 7, 8] {
            let base = profile.rate() * rat(k, 8);
            if !base.is_positive() {
                continue;
            }
            for speed in [base, wide_only(base)] {
                for budget in [1, 2, 3, 5, 8, 13, 21, 34] {
                    let limits = AnalysisLimits::new(budget);
                    let exact = profile.first_fit_exact(speed, &limits);
                    exhausted += usize::from(exact.is_err());
                    assert_eq!(
                        profile.first_fit(speed, &limits),
                        exact,
                        "case {case} at {speed} under budget {budget}"
                    );
                }
                let limits = AnalysisLimits::default();
                let (fit, trace) = profile
                    .first_fit_traced(speed, &limits)
                    .expect("walk completes");
                assert_eq!(trace.kind, WalkKind::Integer, "case {case}");
                assert_eq!(Ok(fit), profile.first_fit_exact(speed, &limits));
                pruned += usize::from(trace.pruned);
            }
            let limits = AnalysisLimits::default();
            let (fit, trace) = profile.first_fit_traced(base, &limits).expect("completes");
            let (far_fit, far_trace) = stretched
                .first_fit_traced(base, &limits)
                .expect("completes");
            let expected = match fit {
                FirstFit::At(delta) => FirstFit::At(delta * stretch),
                FirstFit::Never => FirstFit::Never,
            };
            assert_eq!(far_fit, expected, "case {case} at {k}/8 of the rate");
            assert_eq!(far_trace.kind, WalkKind::Integer, "case {case}");
            assert_eq!(far_trace.pruned, trace.pruned, "case {case}");
            assert_eq!(stretched.first_fit_exact(base, &limits), Ok(expected));
        }
    }
    assert!(pruned > 0, "the floor cut never fired");
    assert!(exhausted > 0, "no budget cut a walk short");
}
