//! Differential property tests for the incremental sweep engine: a
//! [`SweepAnalysis`] driven across a `(y, s)` campaign grid must be
//! bit-identical to an independent [`Analysis`] built fresh at every
//! grid point — values, verdicts, and walk outcomes alike — across
//! seeded random spec lists and the degenerate shapes (HI-only, LO-only,
//! single-point grids, infeasible sets, and grids whose shared timebase
//! overflows back to exact rationals).

use rbs_core::lo_mode::minimal_feasible_x;
use rbs_core::resetting::ResettingBound;
use rbs_core::speedup::SpeedupBound;
use rbs_core::{
    run_sweep, Analysis, AnalysisLimits, SweepAnalysis, SweepGrid, SweepMode, WalkCounts,
};
use rbs_model::{scaled_task_set, ImplicitTaskSpec, ScalingFactors, TaskSet};
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

/// A random implicit-deadline spec list. Per-task utilizations stay
/// modest so a density-feasible `x` usually exists; when it does not,
/// the case doubles as infeasibility coverage.
fn arb_specs(rng: &mut Rng) -> Vec<ImplicitTaskSpec> {
    let len = rng.gen_range_usize(1, 5);
    (0..len)
        .map(|i| {
            let period = rat(rng.gen_range_i128(2, 20), arb_den(rng));
            let wcet_lo = period * rat(rng.gen_range_i128(1, 3), 8);
            if rng.gen_bool(0.5) {
                let wcet_hi = (wcet_lo * rat(rng.gen_range_i128(4, 9), 4)).min(period);
                ImplicitTaskSpec::hi(format!("hi{i}"), period, wcet_lo, wcet_hi)
            } else {
                ImplicitTaskSpec::lo(format!("lo{i}"), period, wcet_lo)
            }
        })
        .collect()
}

fn fresh(specs: &[ImplicitTaskSpec], x: Rational, y: Rational) -> TaskSet {
    let factors = ScalingFactors::new(x, y).expect("factors validated by construction");
    scaled_task_set(specs, factors).expect("specs validated by the model crate")
}

/// Drives `sweep` and a fresh per-point context through every query of
/// the campaign grid, asserting bit-identical results, and returns the
/// fresh contexts' summed walk counters for outcome comparison.
fn assert_grid_matches(
    sweep: &mut SweepAnalysis,
    specs: &[ImplicitTaskSpec],
    x: Rational,
    ys: &[Rational],
    speeds: &[Rational],
    limits: &AnalysisLimits,
    label: &str,
) -> (u64, u64, u64) {
    let mut walks = 0u64;
    let mut pruned = 0u64;
    let mut avoided = 0u64;
    for &y in ys {
        sweep.rescale_lo(y);
        let set = fresh(specs, x, y);
        let ctx = Analysis::new(&set, limits);
        assert_eq!(
            sweep.minimum_speedup().expect("completes"),
            ctx.minimum_speedup().expect("completes"),
            "{label}: s_min at y = {y}"
        );
        assert_eq!(
            sweep.is_lo_schedulable().expect("completes"),
            ctx.is_lo_schedulable().expect("completes"),
            "{label}: LO verdict at y = {y}"
        );
        for &s in speeds {
            assert_eq!(
                sweep.is_hi_schedulable(s).expect("completes"),
                ctx.is_hi_schedulable(s).expect("completes"),
                "{label}: HI verdict at y = {y}, s = {s}"
            );
            assert_eq!(
                sweep.resetting_time(s).expect("completes"),
                ctx.resetting_time(s).expect("completes"),
                "{label}: Delta_R at y = {y}, s = {s}"
            );
        }
        let counts = ctx.walk_counts();
        assert_counts_consistent(counts);
        walks += counts.integer + counts.exact;
        pruned += counts.pruned;
        avoided += counts.avoided;
    }
    (walks, pruned, avoided)
}

/// The invariants every set of walk counters keeps.
fn assert_counts_consistent(w: WalkCounts) {
    assert!(w.pruned <= w.integer + w.exact, "{w:?}");
    assert!(w.lockstep <= w.integer, "{w:?}");
    assert!(w.kept == 0 || w.repaired > 0, "{w:?}");
}

#[test]
fn random_grids_match_fresh_contexts_bit_identically() {
    let mut rng = Rng::seed_from_u64(0x5ee9_0001);
    let limits = AnalysisLimits::default();
    let speeds = [
        rat(1, 2),
        Rational::ONE,
        rat(4, 3),
        Rational::TWO,
        rat(7, 2),
    ];
    let mut feasible_cases = 0usize;
    for case in 0..CASES {
        let specs = arb_specs(&mut rng);
        // Mixed integer and fractional degradation factors, y = 1 first
        // (the undegraded point) and non-monotonic order after it.
        let ys = [Rational::ONE, int(3), rat(3, 2), Rational::TWO, rat(9, 8)];
        let Some(x) = minimal_feasible_x(&specs) else {
            continue;
        };
        feasible_cases += 1;
        let mut sweep = SweepAnalysis::new(&specs, x, &ys, SweepMode::Degraded, &limits);
        let (walks, pruned, avoided) = assert_grid_matches(
            &mut sweep,
            &specs,
            x,
            &ys,
            &speeds,
            &limits,
            &format!("case {case}"),
        );
        // Walk outcomes, not just values: the sweep runs exactly the
        // walks the fresh contexts run, prunes the same ones, and
        // answers the same resetting queries from its frontier.
        let counts = sweep.walk_counts();
        assert_counts_consistent(counts);
        assert_eq!(
            counts.integer + counts.exact,
            walks,
            "case {case}: walk totals diverge"
        );
        assert_eq!(counts.pruned, pruned, "case {case}");
        assert_eq!(counts.avoided, avoided, "case {case}");
    }
    assert!(
        feasible_cases >= CASES / 2,
        "generator produced too few feasible sets ({feasible_cases}/{CASES})"
    );
}

#[test]
fn small_integer_grids_match_walk_kinds_exactly() {
    // With small integer parameters no timebase can overflow, so the
    // shared grid scale and the per-point scales put every walk on the
    // same (integer) fast path — the per-kind counters must agree, not
    // just the totals.
    let specs = vec![
        ImplicitTaskSpec::hi("h1", int(5), int(1), int(2)),
        ImplicitTaskSpec::hi("h2", int(8), int(1), int(3)),
        ImplicitTaskSpec::lo("l1", int(10), int(3)),
        ImplicitTaskSpec::lo("l2", int(12), int(2)),
    ];
    let limits = AnalysisLimits::default();
    let x = minimal_feasible_x(&specs).expect("feasible");
    let ys = [Rational::ONE, Rational::TWO, int(3), int(4)];
    let speeds = [Rational::ONE, rat(3, 2), Rational::TWO, int(3)];
    let mut sweep = SweepAnalysis::new(&specs, x, &ys, SweepMode::Degraded, &limits);
    let mut integer = 0u64;
    let mut exact = 0u64;
    for &y in &ys {
        sweep.rescale_lo(y);
        let set = fresh(&specs, x, y);
        let ctx = Analysis::new(&set, &limits);
        for &s in &speeds {
            assert_eq!(
                sweep.resetting_time(s).expect("completes"),
                ctx.resetting_time(s).expect("completes"),
                "y = {y}, s = {s}"
            );
        }
        assert_eq!(
            sweep.minimum_speedup().expect("completes"),
            ctx.minimum_speedup().expect("completes")
        );
        let counts = ctx.walk_counts();
        integer += counts.integer;
        exact += counts.exact;
    }
    let counts = sweep.walk_counts();
    assert_eq!(counts.integer, integer);
    assert_eq!(counts.exact, exact);
    assert!(counts.integer > 0, "fast path never engaged");
    assert_eq!(counts.exact, 0, "small integers must stay integer");
}

#[test]
fn hi_only_and_lo_only_sets_agree() {
    let limits = AnalysisLimits::default();
    let ys = [Rational::ONE, rat(3, 2), int(3)];
    let speeds = [Rational::ONE, Rational::TWO];

    // HI-only: no LO components exist, so every rescale is a pure reuse.
    let hi_only = vec![
        ImplicitTaskSpec::hi("h1", int(6), int(1), int(2)),
        ImplicitTaskSpec::hi("h2", int(9), int(2), int(3)),
    ];
    let x = minimal_feasible_x(&hi_only).expect("feasible");
    let mut sweep = SweepAnalysis::new(&hi_only, x, &ys, SweepMode::Degraded, &limits);
    assert_grid_matches(&mut sweep, &hi_only, x, &ys, &speeds, &limits, "HI-only");
    let counts = sweep.walk_counts();
    // Two HI specs contribute one LO-mode, one HI-demand, and one
    // arrival component each, all built exactly once for the whole grid.
    assert_eq!(counts.rebuilt_components, 6);

    // LO-only: minimal_x_density is 0, exercising the x clamp.
    let lo_only = vec![
        ImplicitTaskSpec::lo("l1", int(8), int(2)),
        ImplicitTaskSpec::lo("l2", int(12), int(3)),
    ];
    let x = minimal_feasible_x(&lo_only).expect("feasible");
    assert_eq!(x, rat(1, 1000), "LO-only sets clamp x up from zero");
    let mut sweep = SweepAnalysis::new(&lo_only, x, &ys, SweepMode::Degraded, &limits);
    assert_grid_matches(&mut sweep, &lo_only, x, &ys, &speeds, &limits, "LO-only");
}

#[test]
fn single_point_grids_and_y_equal_one_agree() {
    // y = 1 is the undegraded point: the sweep must not disturb the
    // initially-built components (they are counted reused, not rebuilt).
    let specs = vec![
        ImplicitTaskSpec::hi("h", int(5), int(1), int(2)),
        ImplicitTaskSpec::lo("l", int(10), int(3)),
    ];
    let limits = AnalysisLimits::default();
    let x = minimal_feasible_x(&specs).expect("feasible");
    let ys = [Rational::ONE];
    let mut sweep = SweepAnalysis::new(&specs, x, &ys, SweepMode::Degraded, &limits);
    assert_grid_matches(
        &mut sweep,
        &specs,
        x,
        &ys,
        &[rat(4, 3), Rational::TWO],
        &limits,
        "single point",
    );
    let counts = sweep.walk_counts();
    assert_eq!(counts.rebuilt_components, 6, "initial build only");
    assert_eq!(counts.reused_components, 6, "y = 1 reuses everything");
}

#[test]
fn infeasible_specs_are_infeasible_at_every_y() {
    // LO density at or above 1 leaves no headroom at any degradation
    // factor — x is y-independent, so the whole sweep is infeasible.
    let specs = vec![
        ImplicitTaskSpec::lo("full", int(4), int(4)),
        ImplicitTaskSpec::hi("h", int(8), int(1), int(2)),
    ];
    assert_eq!(minimal_feasible_x(&specs), None);
    let grid = SweepGrid {
        specs,
        x: None,
        ys: vec![Rational::ONE, Rational::TWO, int(10)],
        speeds: vec![Rational::TWO],
    };
    let swept = run_sweep(&grid, &AnalysisLimits::default()).expect("completes");
    assert!(swept.is_none(), "infeasible sets yield no report");
}

#[test]
fn grid_timebase_overflow_falls_back_to_per_point_scales() {
    // Each hinted y carries a distinct large prime denominator, so the
    // shared grid timebase — an lcm over every hinted point — overflows
    // i128 while each individual point's scale stays comfortable. The
    // engine must fall back to fresh per-profile scales and match the
    // per-point contexts walk-for-walk (all still on the integer path).
    let specs = vec![
        ImplicitTaskSpec::hi("h", int(5), int(1), int(2)),
        ImplicitTaskSpec::lo("l", int(10), int(3)),
    ];
    let limits = AnalysisLimits::default();
    let x = minimal_feasible_x(&specs).expect("feasible");
    let primes = [
        100_000_007i128,
        100_000_037,
        100_000_039,
        100_000_049,
        100_000_073,
    ];
    let mut ys = vec![Rational::ONE];
    ys.extend(primes.iter().map(|&p| int(2) + rat(1, p)));
    let speeds = [Rational::TWO, int(4)];
    let mut sweep = SweepAnalysis::new(&specs, x, &ys, SweepMode::Degraded, &limits);
    let (walks, pruned, avoided) = assert_grid_matches(
        &mut sweep,
        &specs,
        x,
        &ys,
        &speeds,
        &limits,
        "overflowing grid timebase",
    );
    let counts = sweep.walk_counts();
    assert_eq!(counts.integer + counts.exact, walks);
    assert_eq!(counts.pruned, pruned);
    assert_eq!(counts.avoided, avoided);
    assert_eq!(counts.exact, 0, "per-point scales keep the fast path");
}

#[test]
fn profile_timebase_overflow_falls_back_to_exact_rationals() {
    // A shared grid timebase exists — every denominator divides 3 — but
    // applying it overflows: the HI task's period is 2^126, and 3·2^126
    // exceeds i128. `build_with_scale` and the per-profile `build` both
    // refuse, so every profile at every grid point runs exact rational
    // walks, and the sweep must still agree with fresh contexts
    // bit-for-bit. The construction keeps the exact walks panic-free:
    // the huge task's quantities are all powers of two (x = 1/2 keeps
    // x·T integral), the thirds-denominated task's breakpoints start at
    // 1024/3 ≈ 341 — beyond every walk's pruning horizon (≈ 10–100,
    // driven by the small envelopes), so no walk ever mixes its times
    // into an accumulated rational — and its rate 3/(1024·y) reduces to
    // a power-of-two denominator.
    let specs = vec![
        ImplicitTaskSpec::hi("huge", int(1 << 126), int(16), int(32)),
        ImplicitTaskSpec::lo("beat", int(2), int(1)),
        ImplicitTaskSpec::lo("thirds", rat(1024, 3), int(1)),
    ];
    let limits = AnalysisLimits::default();
    // The density-minimal x would be clamped to 1/1000, whose scaled
    // deadline 2^126/1000 has an unrepresentable complement T − x·T;
    // x = 1/2 is equally valid and keeps every quantity a power of two.
    let x = rat(1, 2);
    let ys = [Rational::ONE, Rational::TWO];
    let mut sweep = SweepAnalysis::new(&specs, x, &ys, SweepMode::Degraded, &limits);
    let (walks, pruned, avoided) = assert_grid_matches(
        &mut sweep,
        &specs,
        x,
        &ys,
        &[Rational::ONE, Rational::TWO],
        &limits,
        "overflowing profile timebase",
    );
    let counts = sweep.walk_counts();
    assert_eq!(counts.integer + counts.exact, walks);
    assert_eq!(counts.pruned, pruned);
    assert_eq!(counts.avoided, avoided);
    assert!(
        counts.exact > 0,
        "this set is engineered off the integer fast path: {counts:?}"
    );
    assert_eq!(counts.integer, 0, "no applicable scale exists for this set");
}

#[test]
fn run_sweep_reports_match_per_point_analysis() {
    let mut rng = Rng::seed_from_u64(0x5ee9_0002);
    let limits = AnalysisLimits::default();
    for case in 0..16 {
        let specs = arb_specs(&mut rng);
        let Some(x) = minimal_feasible_x(&specs) else {
            continue;
        };
        let ys = vec![Rational::ONE, rat(3, 2), int(3)];
        let speeds = vec![Rational::ONE, Rational::TWO];
        let grid = SweepGrid {
            specs: specs.clone(),
            x: None,
            ys: ys.clone(),
            speeds: speeds.clone(),
        };
        let (report, _) = run_sweep(&grid, &limits)
            .expect("completes")
            .expect("feasible");
        assert_eq!(report.x, x, "case {case}");
        assert_eq!(report.points.len(), ys.len());
        for (point, &y) in report.points.iter().zip(&ys) {
            let set = fresh(&specs, x, y);
            let ctx = Analysis::new(&set, &limits);
            let s_min: SpeedupBound = ctx.minimum_speedup().expect("completes").bound();
            assert_eq!(point.y, y);
            assert_eq!(point.s_min, s_min, "case {case}, y = {y}");
            assert_eq!(point.resetting.len(), speeds.len());
            for ((probed, bound), &s) in point.resetting.iter().zip(&speeds) {
                let reference: ResettingBound = ctx.resetting_time(s).expect("completes").bound();
                assert_eq!(*probed, s);
                assert_eq!(*bound, reference, "case {case}, y = {y}, s = {s}");
            }
        }
    }
}

#[test]
fn terminated_mode_matches_fresh_termination_on_random_sets() {
    // The Fig. 7 path: LO tasks terminated at the mode switch instead of
    // degraded, single-point grid, pure construction sharing.
    let mut rng = Rng::seed_from_u64(0x5ee9_0003);
    let limits = AnalysisLimits::default();
    for case in 0..32 {
        let specs = arb_specs(&mut rng);
        let Some(x) = minimal_feasible_x(&specs) else {
            continue;
        };
        let mut sweep =
            SweepAnalysis::new(&specs, x, &[Rational::ONE], SweepMode::Terminated, &limits);
        let set = fresh(&specs, x, Rational::ONE)
            .with_lo_terminated()
            .expect("LO tasks terminate");
        let ctx = Analysis::new(&set, &limits);
        assert_eq!(
            sweep.is_lo_schedulable().expect("completes"),
            ctx.is_lo_schedulable().expect("completes"),
            "case {case}"
        );
        for s in [Rational::ONE, Rational::TWO] {
            assert_eq!(
                sweep.is_hi_schedulable(s).expect("completes"),
                ctx.is_hi_schedulable(s).expect("completes"),
                "case {case}, s = {s}"
            );
            assert_eq!(
                sweep.resetting_time(s).expect("completes"),
                ctx.resetting_time(s).expect("completes"),
                "case {case}, s = {s}"
            );
        }
    }
}
