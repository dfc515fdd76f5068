//! Differential property tests: the integer fast-path walks must agree
//! *bit-for-bit* with the exact rational walks — same `SupRatio` /
//! `FirstFit` / verdict values, same errors, same `examined` counts —
//! across random rational-timebase profiles, and the fallback must
//! engage (with identical results) at the overflow boundary.

use rbs_core::adb::hi_arrival_profile;
use rbs_core::demand::{DemandProfile, FirstFit, PeriodicDemand, WalkKind};
use rbs_core::resetting::ResettingBound;
use rbs_core::{Analysis, AnalysisError, AnalysisLimits, WalkCounts};
use rbs_model::{Criticality, Task, TaskSet};
use rbs_rng::Rng;
use rbs_timebase::Rational;

const CASES: usize = 256;

fn int(v: i128) -> Rational {
    Rational::integer(v)
}

fn rat(n: i128, d: i128) -> Rational {
    Rational::new(n, d)
}

/// A small positive denominator: mixed timebases (halves, thirds,
/// quarters) exercise a non-trivial common scale.
fn arb_den(rng: &mut Rng) -> i128 {
    [1, 2, 3, 4][rng.gen_range_usize(0, 3)]
}

/// Arbitrary well-formed components over a rational timebase, covering
/// steps, ramps, clipped ramps, immediate ramps and zero-offset jumps.
fn arb_component(rng: &mut Rng) -> PeriodicDemand {
    let period = rat(rng.gen_range_i128(1, 12), arb_den(rng));
    // ramp_start = period·k/4 ∈ [0, period).
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

/// A HI task with `D(HI) = T` and the given `D(LO)`.
fn hi_task(name: &str, period: Rational, deadline_lo: Rational, wcet: [Rational; 2]) -> Task {
    Task::builder(name, Criticality::Hi)
        .period(period)
        .deadline_lo(deadline_lo)
        .deadline_hi(period)
        .wcet_lo(wcet[0])
        .wcet_hi(wcet[1])
        .build()
        .expect("valid task")
}

/// `Δ_R` queries through an [`Analysis`] of `set`, whose arrival profile
/// has no integer reset frontier at any of the `above`-rate speeds:
/// every query — at each speed in `above`, at the rate and at `below` —
/// answers exactly what the exact first-fit walk answers and counts as a
/// walk, never as an avoided frontier lookup.
fn resetting_times_walk_without_a_frontier(
    set: &TaskSet,
    above: &[Rational],
    below: Rational,
) -> WalkCounts {
    let limits = AnalysisLimits::default();
    let analysis = Analysis::new(set, &limits);
    let profile = analysis.arrival_profile();
    let rate = profile.rate();
    assert!(below < rate);
    for &speed in above {
        assert!(speed > rate, "{speed} is not above the rate {rate}");
        assert_eq!(
            profile.reset_frontier(speed, &limits),
            Ok(None),
            "at {speed}"
        );
    }
    let speeds: Vec<Rational> = above.iter().copied().chain([rate, below]).collect();
    for &speed in &speeds {
        let expected = match profile.first_fit_exact(speed, &limits).expect("completes") {
            FirstFit::At(delta) => ResettingBound::Finite(delta),
            FirstFit::Never => ResettingBound::Unbounded,
        };
        let served = analysis.resetting_time(speed).expect("completes");
        assert_eq!(served.bound(), expected, "at {speed}");
    }
    let counts = analysis.walk_counts();
    assert_eq!(counts.avoided, 0, "{counts:?}");
    assert_eq!(counts.total(), speeds.len() as u64, "{counts:?}");
    counts
}

#[test]
fn sup_ratio_dispatch_agrees_with_exact_walk() {
    let mut rng = Rng::seed_from_u64(0x5ca1_0001);
    let limits = AnalysisLimits::default();
    for case in 0..CASES {
        let profile = arb_profile(&mut rng, 5);
        let exact = profile.sup_ratio_exact(&limits);
        let dispatched = profile.sup_ratio(&limits);
        assert_eq!(dispatched, exact, "case {case}: {profile:?}");
    }
}

#[test]
fn fits_dispatch_agrees_with_exact_walk() {
    let mut rng = Rng::seed_from_u64(0x5ca1_0002);
    let limits = AnalysisLimits::default();
    for case in 0..CASES {
        let profile = arb_profile(&mut rng, 4);
        let speed = rat(rng.gen_range_i128(1, 40), 8);
        let exact = profile.fits_exact(speed, &limits);
        let dispatched = profile.fits(speed, &limits);
        assert_eq!(dispatched, exact, "case {case} at speed {speed}");
    }
}

#[test]
fn first_fit_dispatch_agrees_with_exact_walk() {
    let mut rng = Rng::seed_from_u64(0x5ca1_0003);
    let limits = AnalysisLimits::default();
    for case in 0..CASES {
        let profile = arb_profile(&mut rng, 4);
        let speed = rat(rng.gen_range_i128(1, 40), 8);
        let exact = profile.first_fit_exact(speed, &limits);
        let dispatched = profile.first_fit(speed, &limits);
        assert_eq!(dispatched, exact, "case {case} at speed {speed}");
    }
}

#[test]
fn small_timebases_take_the_integer_fast_path() {
    let mut rng = Rng::seed_from_u64(0x5ca1_0004);
    let limits = AnalysisLimits::default();
    for case in 0..CASES {
        let profile = arb_profile(&mut rng, 4);
        assert!(profile.has_fast_path(), "case {case}");
        let speed = rat(rng.gen_range_i128(1, 40), 8);
        let (_, sup_trace) = profile.sup_ratio_traced(&limits).expect("completes");
        let (_, fits_trace) = profile.fits_traced(speed, &limits).expect("completes");
        let (_, fit_trace) = profile.first_fit_traced(speed, &limits).expect("completes");
        for trace in [sup_trace, fits_trace, fit_trace] {
            assert_eq!(trace.kind, WalkKind::Integer, "case {case}");
        }
    }
}

#[test]
fn huge_denominators_fall_back_to_the_exact_walk() {
    // The period's denominator (2^80) and the height's denominator
    // (3^31) are individually comfortable for exact rational arithmetic
    // — times and values never mix into one fraction — but their lcm
    // (the would-be common scale, ≈ 2^129) overflows i128, so the fast
    // path must be refused at construction.
    let d2 = 1i128 << 80;
    let d3 = 3i128.pow(31);
    let profile = DemandProfile::new(vec![PeriodicDemand::step(
        rat(3, d2),
        rat(1, d2),
        rat(1, d3),
    )]);
    assert!(!profile.has_fast_path());
    let limits = AnalysisLimits::default();
    let (sup, trace) = profile.sup_ratio_traced(&limits).expect("completes");
    assert_eq!(trace.kind, WalkKind::Rational);
    assert_eq!(sup, profile.sup_ratio_exact(&limits).expect("completes"));
    let (fits, trace) = profile.fits_traced(int(1), &limits).expect("completes");
    assert_eq!(trace.kind, WalkKind::Rational);
    assert_eq!(
        fits,
        profile.fits_exact(int(1), &limits).expect("completes")
    );
    // No fast path, so no reset frontier either.
    assert_eq!(profile.reset_frontier(int(1), &limits), Ok(None));
    // A task set whose arrival profile is refused the fast path the same
    // way: the period's 2^66 denominator puts the scaled period and the
    // scaled jump near 2^66 each, and their product overflows i128. Every
    // Δ_R query then walks on the exact lane.
    let den = 1i128 << 66;
    let period = rat(den + 1, den);
    let set = TaskSet::new(vec![hi_task("tau", period, period, [rat(1, 2), rat(3, 4)])]);
    let counts =
        resetting_times_walk_without_a_frontier(&set, &[int(1), rat(7, 8), int(1)], rat(1, 2));
    assert_eq!(counts.exact, 5, "{counts:?}");
}

#[test]
fn mid_walk_overflow_bails_to_the_exact_walk() {
    // All-integer inputs (scale 1), so the fast path is available — but
    // the walk overflows mid-query. At Δ = 64 the huge step makes the
    // best ratio's reduced denominator 16; at Δ = 65 the fast path's
    // improvement cross-multiply `value·bd` exceeds i128 and bails. The
    // exact walk's rational comparisons are overflow-free, the supremum
    // sits exactly at the rate (so no horizon division ever runs), and
    // values stay near 3·big ≪ i128::MAX — it completes normally.
    let big = (i128::MAX / 16) | 1;
    let profile = DemandProfile::new(vec![
        PeriodicDemand::step(int(1), int(1), int(1)),
        PeriodicDemand::step(int(3), int(3), int(1)),
        PeriodicDemand::step(int(64), int(64), int(big)),
    ]);
    assert!(profile.has_fast_path());
    let limits = AnalysisLimits::default();
    let (sup, trace) = profile.sup_ratio_traced(&limits).expect("completes");
    assert_eq!(
        trace.kind,
        WalkKind::Rational,
        "overflow must trigger fallback"
    );
    assert_eq!(sup, profile.sup_ratio_exact(&limits).expect("completes"));
    // Its demand is zero at Δ = 0, so its (trivial) frontier never walks;
    // a member of the same family — all-integer, on the fast path — that
    // is positive at zero with values and instants near 2^62 overflows
    // the frontier build's cross-multiplies at speed 1 instead. Every Δ_R
    // query then takes a plain first-fit walk, the repeated one included.
    assert!(profile
        .reset_frontier(int(1), &limits)
        .expect("completes")
        .is_some());
    let t = 1i128 << 62;
    let set = TaskSet::new(vec![
        hi_task("a", int(t), int(t / 2), [int(t / 4), int(t / 2)]),
        hi_task("b", int(2 * t), int(t), [int(t / 2), int(t / 2 + 1)]),
    ]);
    assert!(hi_arrival_profile(&set).has_fast_path());
    resetting_times_walk_without_a_frontier(&set, &[int(1), int(1)], rat(1, 2));
}

#[test]
fn frontier_lookups_survive_overflowing_cross_multiplies() {
    // Demand heights on a 2^-56 grid put the frontier's records on the
    // timebase K = 2^56 (raw starts and values near 2^57–2^62), which
    // the build's own cross-multiplies still fit. A lookup speed on a
    // 2^-70 grid has a numerator near 2^72, so its closed test
    // (speed vs value/start), its open test (speed vs the open
    // threshold) and its raw crossing numerator all overflow i128; each
    // must then answer exactly what the exact walk answers.
    let e = rat(1, 1 << 56);
    let profile = DemandProfile::new(vec![
        PeriodicDemand::new(int(5), int(3) + e, int(2) + e, int(1), int(1) + e, int(2)),
        PeriodicDemand::new(
            int(7),
            int(2) + e * int(3),
            int(1),
            int(0),
            e * int(3),
            int(2),
        ),
    ]);
    assert!(profile.has_fast_path());
    let limits = AnalysisLimits::default();
    let frontier = profile
        .reset_frontier(int(1), &limits)
        .expect("completes")
        .expect("the build fits i128");
    assert!(frontier.len() > 1, "{frontier:?}");
    let nudge = rat(1, 1 << 70);
    let mut served = 0;
    for num in 1..48 {
        for speed in [rat(num, 8) + nudge, rat(num, 8) - nudge] {
            let Some(fit) = frontier.lookup(speed) else {
                continue;
            };
            served += 1;
            assert_eq!(
                fit,
                profile.first_fit_exact(speed, &limits).expect("completes"),
                "at {speed}"
            );
        }
    }
    assert!(served > 60, "{served} lookups served");
}

#[test]
fn budget_errors_carry_identical_examined_counts() {
    // Coprime periods with a huge lcm under a tiny budget: both walks
    // must exhaust the budget at exactly the same breakpoint. Implicit
    // deadlines keep the utilization envelope at zero, so no pruning
    // horizon can legitimately finish the walk first.
    let profile = DemandProfile::new(vec![
        PeriodicDemand::step(int(10_007), int(10_007), int(1)),
        PeriodicDemand::step(int(10_009), int(10_009), int(10_000)),
    ]);
    assert!(profile.has_fast_path());
    let limits = AnalysisLimits::new(2);
    let exact = profile.sup_ratio_exact(&limits);
    let dispatched = profile.sup_ratio(&limits);
    assert!(matches!(
        dispatched,
        Err(AnalysisError::BreakpointBudgetExhausted { .. })
    ));
    assert_eq!(dispatched, exact);
}

#[test]
fn random_profiles_agree_under_tight_budgets() {
    // Budget errors (and their `examined` payloads) must match even when
    // the budget cuts the walk mid-flight.
    let mut rng = Rng::seed_from_u64(0x5ca1_0005);
    for case in 0..CASES {
        let profile = arb_profile(&mut rng, 4);
        let limits = AnalysisLimits::new(rng.gen_range_usize(1, 12));
        let speed = rat(rng.gen_range_i128(1, 40), 8);
        assert_eq!(
            profile.sup_ratio(&limits),
            profile.sup_ratio_exact(&limits),
            "case {case}"
        );
        assert_eq!(
            profile.fits(speed, &limits),
            profile.fits_exact(speed, &limits),
            "case {case} at speed {speed}"
        );
        assert_eq!(
            profile.first_fit(speed, &limits),
            profile.first_fit_exact(speed, &limits),
            "case {case} at speed {speed}"
        );
    }
}
