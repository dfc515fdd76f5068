//! Benchmarks for the `run-and-be-safe` workspace.
//!
//! Five suites (run with `cargo bench --workspace`):
//!
//! * `analysis` — micro-benchmarks of the exact analyses (Theorem 2's
//!   `s_min`, Corollary 5's `Δ_R`, demand-curve evaluation, minimal-`x`
//!   tuning) across workload sizes;
//! * `figures` — one benchmark per paper table/figure, regenerating a
//!   scaled-down version of the corresponding experiment;
//! * `simulation` — event-loop throughput of the variable-speed EDF
//!   simulator under sustained and sporadic overruns;
//! * `net` — round-trip overhead of the TCP admission front-end;
//! * `partition` — campaign-scale fleet bin-packing, delta-backed vs
//!   fresh-per-probe.
//!
//! The suites are plain `harness = false` binaries driven by the
//! dependency-free [`harness`] in this crate; shared fixtures live here so
//! the suites stay in sync.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;

use rbs_gen::synth::SynthConfig;
use rbs_model::{Criticality, ImplicitTaskSpec, Task, TaskSet};
use rbs_timebase::Rational;

/// The reconstructed Table I task set.
#[must_use]
pub fn table1() -> TaskSet {
    TaskSet::new(vec![
        Task::builder("tau1", Criticality::Hi)
            .period(Rational::integer(5))
            .deadline_lo(Rational::integer(2))
            .deadline_hi(Rational::integer(5))
            .wcet_lo(Rational::integer(1))
            .wcet_hi(Rational::integer(2))
            .build()
            .expect("valid"),
        Task::builder("tau2", Criticality::Lo)
            .period(Rational::integer(10))
            .deadline(Rational::integer(10))
            .wcet(Rational::integer(3))
            .build()
            .expect("valid"),
    ])
}

/// A deterministic synthetic workload of roughly `size` tasks, prepared
/// with minimal `x` and `y = 2`.
#[must_use]
pub fn synthetic_set(size: usize, seed: u64) -> TaskSet {
    // u per task averages ~0.105, so target utilization ≈ size × 0.105.
    let target = Rational::new(21 * size as i128, 200);
    let generator = SynthConfig::new(target).period_range_ms(5, 100);
    let specs = generator.generate(seed);
    prepare_or_shrink(&specs)
}

/// A deterministic synthetic spec list of roughly `size` tasks for which
/// a density-feasible `x` exists (tasks are dropped from the tail until
/// it does) — the campaign-sweep analogue of [`synthetic_set`].
#[must_use]
pub fn synthetic_specs(size: usize, seed: u64) -> Vec<ImplicitTaskSpec> {
    let target = Rational::new(21 * size as i128, 200);
    let generator = SynthConfig::new(target).period_range_ms(5, 100);
    let mut specs = generator.generate(seed);
    while rbs_core::lo_mode::minimal_x_density(&specs).is_none() {
        specs.pop();
        assert!(!specs.is_empty(), "fixture became empty");
    }
    specs
}

/// A deterministic fleet-scale workload: `size` uniquely named tasks
/// (40% HI with a halved LO deadline and doubled HI WCET, 60% LO
/// terminated at the mode switch) drawn from an avionics-style harmonic
/// period menu, each contributing 1/128 to 3/128 of a processor — so a
/// core holds ~60 tasks and campaign-scale bin-packing probes many
/// nearly-full candidates. The LO tasks are terminated because a
/// continuing task with `D(HI) = D(LO)` adds a full unit to the sup
/// ratio (its carry-over job can be due *at* the switch, eq. (7)), so
/// `s_min` would grow with the per-core task count instead of the
/// per-core load. Unlike [`synthetic_set`], the result is *not* shrunk
/// to single-processor feasibility; it is meant for the multicore
/// partitioner.
#[must_use]
pub fn fleet_set(size: usize, seed: u64) -> TaskSet {
    // All menu entries are multiples of 128, so every WCET below lands
    // on the integer grid and the resident profiles keep one stable
    // timebase — admit/evict splices stay in place instead of rescaling.
    const PERIOD_MENU: [i128; 10] = [256, 384, 512, 640, 768, 896, 1024, 1280, 1536, 1920];
    let mut rng = rbs_rng::Rng::seed_from_u64(seed);
    let tasks = (0..size)
        .map(|id| {
            let period =
                Rational::integer(PERIOD_MENU[rng.gen_range_usize(0, PERIOD_MENU.len() - 1)]);
            let wcet = period * Rational::new(rng.gen_range_i128(1, 3), 128);
            if rng.gen_bool(0.4) {
                Task::builder(format!("hi{id}"), Criticality::Hi)
                    .period(period)
                    .deadline_lo(period * Rational::new(1, 2))
                    .deadline_hi(period)
                    .wcet_lo(wcet)
                    .wcet_hi(wcet * Rational::TWO)
                    .build()
                    .expect("fleet HI parameters satisfy eq. (1)")
            } else {
                Task::builder(format!("lo{id}"), Criticality::Lo)
                    .period(period)
                    .deadline(period)
                    .wcet(wcet)
                    .terminated()
                    .build()
                    .expect("fleet LO parameters satisfy eq. (2)")
            }
        })
        .collect();
    TaskSet::new(tasks)
}

fn prepare_or_shrink(specs: &[ImplicitTaskSpec]) -> TaskSet {
    let mut specs = specs.to_vec();
    loop {
        if let Some(x) = rbs_core::lo_mode::minimal_x_density(&specs) {
            let x = x.max(Rational::new(1, 1000)).min(Rational::ONE);
            let factors = rbs_model::ScalingFactors::new(x, Rational::TWO).expect("valid");
            return rbs_model::scaled_task_set(&specs, factors).expect("valid");
        }
        specs.pop();
        assert!(!specs.is_empty(), "fixture became empty");
    }
}
