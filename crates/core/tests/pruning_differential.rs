//! Differential property tests for the envelope-pruned walks and the
//! reset frontier: pruning must never change a supremum, and frontier
//! lookups must be bit-identical to plain first-fit walks — across
//! seeded random profiles, seeded random task sets, and the degenerate
//! shapes (empty, unbounded-at-zero, single-component).

use rbs_core::demand::{DemandProfile, FirstFit, PeriodicDemand};
use rbs_core::resetting::{resetting_time, ResettingBound};
use rbs_core::speedup::is_hi_schedulable;
use rbs_core::{Analysis, AnalysisLimits};
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

/// A random well-formed dual-criticality task (integer parameters keep
/// hyperperiods small enough for exhaustive cross-checks).
fn arb_task(rng: &mut Rng, index: usize) -> Task {
    let period = rng.gen_range_i128(2, 12);
    let wcet_seed = rng.gen_range_i128(1, 4);
    let is_hi = rng.gen_bool(0.5);
    let dl_seed = rng.gen_range_i128(1, 3);
    let gamma_seed = rng.gen_range_i128(0, 3);

    let wcet_lo = wcet_seed.min(period - 1).max(1);
    if is_hi {
        let d_lo = (wcet_lo + dl_seed - 1).min(period - 1).max(1);
        let wcet_hi = (wcet_lo + gamma_seed).min(period);
        Task::builder(format!("hi{index}"), Criticality::Hi)
            .period(int(period))
            .deadline_lo(int(d_lo))
            .deadline_hi(int(period))
            .wcet_lo(int(wcet_lo))
            .wcet_hi(int(wcet_hi))
            .build()
            .expect("generated HI task is valid")
    } else {
        let d_lo = (wcet_lo + dl_seed).min(period).max(1);
        Task::builder(format!("lo{index}"), Criticality::Lo)
            .period(int(period))
            .deadline(int(d_lo))
            .wcet(int(wcet_lo))
            .build()
            .expect("generated LO task is valid")
    }
}

fn arb_set(rng: &mut Rng) -> TaskSet {
    let len = rng.gen_range_usize(1, 6);
    TaskSet::new((0..len).map(|i| arb_task(rng, i)).collect())
}

#[test]
fn pruned_sup_ratio_matches_the_unpruned_reference() {
    let mut rng = Rng::seed_from_u64(0x9e11_0001);
    let limits = AnalysisLimits::default();
    for case in 0..CASES {
        let profile = arb_profile(&mut rng, 5);
        let reference = profile.sup_ratio_reference(&limits).expect("completes");
        assert_eq!(
            profile.sup_ratio(&limits).expect("completes"),
            reference,
            "case {case}: {profile:?}"
        );
        assert_eq!(
            profile.sup_ratio_exact(&limits).expect("completes"),
            reference,
            "case {case} (exact walk): {profile:?}"
        );
    }
}

#[test]
fn frontier_lookup_matches_plain_first_fit_above_the_rate() {
    let mut rng = Rng::seed_from_u64(0x9e11_0002);
    let limits = AnalysisLimits::default();
    for case in 0..CASES {
        let profile = arb_profile(&mut rng, 4);
        // Build strictly above the long-run rate: coverage of every
        // speed at or above the build speed is then guaranteed.
        let min_speed = profile.rate() + rat(rng.gen_range_i128(1, 16), 8);
        let frontier = profile
            .reset_frontier(min_speed, &limits)
            .expect("completes")
            .expect("fast path");
        for step in 0..6 {
            let speed = min_speed + rat(step, 4);
            let plain = profile.first_fit(speed, &limits).expect("completes");
            assert_eq!(
                plain,
                profile.first_fit_exact(speed, &limits).expect("completes"),
                "case {case} at speed {speed}"
            );
            assert_eq!(
                frontier.lookup(speed),
                Some(plain),
                "case {case} at speed {speed}: {profile:?}"
            );
        }
    }
}

#[test]
fn frontier_lookups_below_the_build_speed_never_lie() {
    // A frontier only *covers* speeds at or above its build speed, but
    // any Some it does return for a lower speed must still be the plain
    // walk's answer (None merely means "not covered").
    let mut rng = Rng::seed_from_u64(0x9e11_0003);
    let limits = AnalysisLimits::default();
    for case in 0..CASES {
        let profile = arb_profile(&mut rng, 4);
        let min_speed = profile.rate() + rat(1, 8);
        let frontier = profile
            .reset_frontier(min_speed, &limits)
            .expect("completes")
            .expect("fast path");
        for num in 1..8 {
            let speed = min_speed * rat(num, 8);
            if let Some(fit) = frontier.lookup(speed) {
                assert_eq!(
                    fit,
                    profile.first_fit_exact(speed, &limits).expect("completes"),
                    "case {case} at speed {speed}: {profile:?}"
                );
            }
        }
    }
}

#[test]
fn degenerate_profiles_agree() {
    let limits = AnalysisLimits::default();

    // Empty profile: zero demand fits instantly at any positive speed.
    let empty = DemandProfile::new(Vec::new());
    assert_eq!(
        empty.sup_ratio(&limits).expect("completes"),
        empty.sup_ratio_reference(&limits).expect("completes")
    );
    let frontier = empty
        .reset_frontier(rat(1, 3), &limits)
        .expect("completes")
        .expect("fast path");
    for speed in [rat(1, 3), int(1), int(50)] {
        assert_eq!(frontier.lookup(speed), Some(FirstFit::At(Rational::ZERO)));
        assert_eq!(
            frontier.lookup(speed),
            Some(empty.first_fit(speed, &limits).expect("completes"))
        );
    }

    // Unbounded-at-zero: a positive constant makes the ratio supremum
    // blow up at Δ → 0, but first fits stay well-defined.
    let bursty = DemandProfile::new(vec![PeriodicDemand::new(
        int(5),
        int(3),
        int(3),
        int(1),
        int(1),
        int(2),
    )]);
    assert_eq!(
        bursty.sup_ratio(&limits).expect("completes"),
        bursty.sup_ratio_reference(&limits).expect("completes")
    );
    let frontier = bursty
        .reset_frontier(int(1), &limits)
        .expect("completes")
        .expect("fast path");
    for speed in [int(1), int(2), int(7)] {
        assert_eq!(
            frontier.lookup(speed),
            Some(bursty.first_fit(speed, &limits).expect("completes")),
            "speed {speed}"
        );
    }

    // Single step component (one task, implicit deadline).
    let single = DemandProfile::new(vec![PeriodicDemand::step(int(7), int(7), int(3))]);
    assert_eq!(
        single.sup_ratio(&limits).expect("completes"),
        single.sup_ratio_reference(&limits).expect("completes")
    );
    let frontier = single
        .reset_frontier(rat(1, 2), &limits)
        .expect("completes")
        .expect("fast path");
    for num in 1..12 {
        let speed = rat(num, 2);
        assert_eq!(
            frontier.lookup(speed),
            Some(single.first_fit(speed, &limits).expect("completes")),
            "speed {speed}"
        );
    }
}

#[test]
fn context_resetting_times_match_free_walks_on_random_sets() {
    let mut rng = Rng::seed_from_u64(0x9e11_0004);
    let limits = AnalysisLimits::default();
    for case in 0..64 {
        let set = arb_set(&mut rng);
        let ctx = Analysis::new(&set, &limits);
        // Mixed above/below-rate speeds in a cache-hostile order:
        // repeats, descents (forcing frontier rebuilds) and re-ascents.
        for speed in [
            int(2),
            int(3),
            int(2),
            rat(1, 2),
            rat(5, 4),
            int(10),
            rat(5, 4),
            rat(1, 3),
        ] {
            assert_eq!(
                ctx.resetting_time(speed).expect("completes"),
                resetting_time(&set, speed, &limits).expect("completes"),
                "case {case} at speed {speed}: {set:?}"
            );
        }
    }
}

#[test]
fn one_pass_speed_sizing_is_minimal_on_random_sets() {
    let mut rng = Rng::seed_from_u64(0x9e11_0005);
    let limits = AnalysisLimits::default();
    let tolerance = rat(1, 64);
    for case in 0..64 {
        let set = arb_set(&mut rng);
        let budget = int(rng.gen_range_i128(1, 40));
        let max_speed = rat(rng.gen_range_i128(1, 16), 2);
        let ctx = Analysis::new(&set, &limits);
        let meets = |s: Rational| -> bool {
            is_hi_schedulable(&set, s, &limits).expect("completes")
                && matches!(
                    resetting_time(&set, s, &limits).expect("completes").bound(),
                    ResettingBound::Finite(d) if d <= budget
                )
        };
        match ctx
            .minimal_speed_within_budget(budget, max_speed, tolerance)
            .expect("completes")
        {
            Some(s) => {
                assert!(s.is_positive() && s <= max_speed, "case {case}: s = {s}");
                assert!(meets(s), "case {case}: returned speed fails: {set:?}");
                let below = s - tolerance;
                if below.is_positive() {
                    assert!(
                        !meets(below),
                        "case {case}: {below} also meets, so {s} is not minimal: {set:?}"
                    );
                }
            }
            None => {
                assert!(
                    !meets(max_speed),
                    "case {case}: max_speed {max_speed} meets but sizing said None: {set:?}"
                );
            }
        }
    }
}
