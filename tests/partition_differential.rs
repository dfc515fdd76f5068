//! Differential suite for the delta-backed fleet partitioner: for every
//! heuristic × objective combination, the resident-[`DeltaAnalysis`]
//! engine must produce *bit-identical* results to the fresh-analysis
//! reference — the same per-core assignments, the same per-core
//! `s_min`, the same unplaced task on a shed, and the same examined-walk
//! outcomes (integer/exact/pruned/avoided/lockstep counters; the
//! reuse/patch counters legitimately differ — that difference *is* the
//! optimization). Three generator lanes steer the probes down the
//! integer fast path (exact), a mildly fractional timebase (narrow),
//! and a churning timebase (wide) so splice, patch and rebuild paths
//! all get differential coverage.
//!
//! [`DeltaAnalysis`]: rbs_core::DeltaAnalysis

use rbs_core::{AnalysisLimits, WalkCounts};
use rbs_model::{Criticality, Task, TaskSet};
use rbs_partition::{
    partition, partition_with, partition_with_engine, Engine, Heuristic, Objective, Partition,
    PartitionOutcome, PartitionSpec, PlatformCap,
};
use rbs_pool::WorkerPool;
use rbs_rng::Rng;
use rbs_timebase::Rational;

const CASES_PER_LANE: usize = 6;

fn rat(n: i128, d: i128) -> Rational {
    Rational::new(n, d)
}

/// Period denominators per lane: `exact` keeps every probe on the
/// shared integer timebase, `narrow` shifts it occasionally, `wide`
/// churns it so admits regularly fall back from splice to rebuild.
#[derive(Debug, Clone, Copy)]
enum Lane {
    Exact,
    Narrow,
    Wide,
}

impl Lane {
    fn denominators(self) -> &'static [i128] {
        match self {
            Lane::Exact => &[1],
            Lane::Narrow => &[1, 2],
            Lane::Wide => &[1, 2, 3, 4],
        }
    }
}

/// A random valid task in one of the model's three shapes (HI with a
/// shortened LO deadline, degraded LO, terminated LO), with the lane
/// choosing how fractional periods get.
fn arb_task(rng: &mut Rng, lane: Lane, name: &str) -> Task {
    let dens = lane.denominators();
    let den = dens[rng.gen_range_usize(0, dens.len() - 1)];
    let period = rat(rng.gen_range_i128(2, 20), den);
    let wcet = period * rat(rng.gen_range_i128(1, 3), 8);
    match rng.gen_range_usize(0, 2) {
        0 => {
            let deadline_lo = period * rat(rng.gen_range_i128(2, 4), 4);
            let wcet_hi = (wcet * rat(rng.gen_range_i128(4, 9), 4)).min(period);
            Task::builder(name, Criticality::Hi)
                .period(period)
                .deadline_lo(deadline_lo)
                .deadline_hi(period)
                .wcet_lo(wcet)
                .wcet_hi(wcet_hi)
                .build()
                .expect("valid HI task")
        }
        1 => {
            let stretch = rat(rng.gen_range_i128(4, 8), 4);
            Task::builder(name, Criticality::Lo)
                .period(period)
                .deadline(period)
                .period_hi(period * stretch)
                .deadline_hi(period * stretch)
                .wcet(wcet)
                .build()
                .expect("valid degraded LO task")
        }
        _ => Task::builder(name, Criticality::Lo)
            .period(period)
            .deadline(period)
            .wcet(wcet)
            .terminated()
            .build()
            .expect("valid terminated LO task"),
    }
}

fn arb_set(rng: &mut Rng, lane: Lane) -> TaskSet {
    let n = rng.gen_range_usize(8, 18);
    TaskSet::new(
        (0..n)
            .map(|i| arb_task(rng, lane, &format!("t{i}")))
            .collect(),
    )
}

/// The walk counters both engines must agree on: what was *examined*.
/// The reuse/rebuild/patch counters describe how profiles came to be
/// and legitimately differ between a resident context and a fresh one.
fn examined(w: WalkCounts) -> [u64; 5] {
    [w.integer, w.exact, w.pruned, w.avoided, w.lockstep]
}

/// The invariants every set of walk counters keeps.
fn assert_counts_consistent(w: WalkCounts) {
    assert!(w.pruned <= w.integer + w.exact, "{w:?}");
    assert!(w.lockstep <= w.integer, "{w:?}");
    assert!(w.kept == 0 || w.repaired > 0, "{w:?}");
}

/// Per-core task names, preserving core order.
fn assignment(p: &Partition) -> Vec<Vec<String>> {
    p.cores()
        .iter()
        .map(|core| core.iter().map(|t| t.name().to_owned()).collect())
        .collect()
}

fn assert_engines_agree(outcome: &PartitionOutcome, reference: &PartitionOutcome, label: &str) {
    match (outcome.partition(), reference.partition()) {
        (Some(a), Some(b)) => {
            assert_eq!(assignment(a), assignment(b), "{label}: assignments differ");
            assert_eq!(
                a.core_speedups(),
                b.core_speedups(),
                "{label}: per-core s_min differ"
            );
        }
        (None, None) => {
            assert_eq!(
                outcome.unplaced(),
                reference.unplaced(),
                "{label}: shed task differs"
            );
        }
        _ => panic!(
            "{label}: delta fit={} but fresh fit={}",
            outcome.is_fit(),
            reference.is_fit()
        ),
    }
    assert_counts_consistent(outcome.walks());
    assert_counts_consistent(reference.walks());
    assert_eq!(
        examined(outcome.walks()),
        examined(reference.walks()),
        "{label}: examined-walk counters differ"
    );
    assert_eq!(outcome.probes(), reference.probes(), "{label}: probes");
    assert_eq!(
        outcome.screened(),
        reference.screened(),
        "{label}: screened"
    );
}

#[test]
fn delta_and_fresh_engines_are_bit_identical_across_the_matrix() {
    let limits = AnalysisLimits::default();
    let pool = WorkerPool::new(1);
    let mut rng = Rng::seed_from_u64(0x9a27_1207);
    let heuristics = [Heuristic::FirstFit, Heuristic::BestFit, Heuristic::WorstFit];
    for lane in [Lane::Exact, Lane::Narrow, Lane::Wide] {
        for case in 0..CASES_PER_LANE {
            let set = arb_set(&mut rng, lane);
            let cores = rng.gen_range_usize(2, 5);
            let cap = [rat(3, 2), rat(2, 1), rat(3, 1)][rng.gen_range_usize(0, 2)];
            let objectives = [
                Objective::CapOnly,
                Objective::MinMaxSpeedup,
                // One budget that usually binds and one that rarely does.
                Objective::SharedBudget(rat(cores as i128, 1)),
                Objective::SharedBudget(rat(3 * cores as i128, 2)),
            ];
            for heuristic in heuristics {
                for objective in objectives {
                    let spec = PartitionSpec::new(PlatformCap::new(cores, cap), heuristic)
                        .with_objective(objective);
                    let label = format!("case {case} {lane:?} {heuristic:?} {objective:?}");
                    let delta = partition_with_engine(&set, &spec, Engine::Delta, &pool, &limits)
                        .expect("delta engine completes");
                    let fresh = partition_with_engine(&set, &spec, Engine::Fresh, &pool, &limits)
                        .expect("fresh engine completes");
                    assert_engines_agree(&delta, &fresh, &label);
                }
            }
        }
    }
}

#[test]
fn the_compat_entry_point_matches_the_outcome_api() {
    let limits = AnalysisLimits::default();
    let pool = WorkerPool::new(1);
    let mut rng = Rng::seed_from_u64(0x9a27_1208);
    for lane in [Lane::Exact, Lane::Wide] {
        let set = arb_set(&mut rng, lane);
        let cap = PlatformCap::new(3, Rational::TWO);
        for heuristic in [Heuristic::FirstFit, Heuristic::BestFit, Heuristic::WorstFit] {
            let compat = partition(&set, cap, heuristic, &limits).expect("completes");
            let spec = PartitionSpec::new(cap, heuristic);
            let outcome = partition_with(&set, &spec, &pool, &limits).expect("completes");
            assert_eq!(compat, outcome.into_partition());
        }
    }
}

#[test]
fn worker_pool_width_never_changes_the_outcome() {
    let limits = AnalysisLimits::default();
    let mut rng = Rng::seed_from_u64(0x9a27_1209);
    let set = arb_set(&mut rng, Lane::Wide);
    let spec = PartitionSpec::new(PlatformCap::new(6, Rational::TWO), Heuristic::WorstFit)
        .with_objective(Objective::MinMaxSpeedup);
    let narrow = partition_with(&set, &spec, &WorkerPool::new(1), &limits).expect("completes");
    let wide = partition_with(&set, &spec, &WorkerPool::new(8), &limits).expect("completes");
    assert_eq!(narrow, wide);
}
