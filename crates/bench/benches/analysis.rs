//! Micro-benchmarks of the exact analyses.

use rbs_bench::harness::Runner;
use rbs_bench::{fleet_set, synthetic_set, synthetic_specs, table1};
use rbs_core::adb::hi_arrival_profile;
use rbs_core::dbf::{hi_profile, total_dbf_hi};
use rbs_core::demand::sup_ratio_many;
use rbs_core::lo_mode::{is_lo_schedulable, minimal_feasible_x, minimal_x_density};
use rbs_core::resetting::resetting_time;
use rbs_core::speedup::minimum_speedup;
use rbs_core::tuning::minimal_speed_within_budget;
use rbs_core::{Analysis, AnalysisLimits, DeltaAnalysis, DeltaOp, SweepAnalysis, SweepMode};
use rbs_gen::fms;
use rbs_gen::synth::SynthConfig;
use rbs_model::{Criticality, Task, TaskSet};
use rbs_rng::Rng;
use rbs_timebase::Rational;
use std::collections::VecDeque;
use std::hint::black_box;

/// A small-utilization fleet candidate drawn from a harmonic period
/// menu (all periods divide 4800, as in avionics-style rate groups), so
/// the resident timebase never shifts and exact rate sums stay
/// representable at any fleet size — the same construction as
/// `examples/online_monitor.rs --fleet`.
fn fleet_candidate(rng: &mut Rng, id: usize) -> Task {
    const PERIOD_MENU: [i128; 10] = [200, 240, 320, 400, 480, 600, 800, 960, 1200, 1600];
    let period = Rational::integer(PERIOD_MENU[rng.gen_range_usize(0, PERIOD_MENU.len() - 1)]);
    let wcet = Rational::integer(rng.gen_range_i128(1, 3));
    if rng.gen_bool(0.4) {
        Task::builder(format!("hi{id}"), Criticality::Hi)
            .period(period)
            .deadline_lo(period * Rational::new(1, 2))
            .deadline_hi(period)
            .wcet_lo(wcet)
            .wcet_hi(wcet * Rational::TWO)
            .build()
            .expect("candidate parameters satisfy eq. (1)")
    } else {
        Task::builder(format!("lo{id}"), Criticality::Lo)
            .period(period)
            .deadline(period)
            .wcet(wcet)
            .build()
            .expect("candidate parameters satisfy eq. (2)")
    }
}

/// A `fleet_candidate` variant whose LO tasks are terminated at the
/// mode switch (eq. (3)): they carry no `ADB_HI` component, so churning
/// them never touches the arrival profile — the workload the frontier
/// repair is built for.
fn frontier_candidate(rng: &mut Rng, id: usize) -> Task {
    let task = fleet_candidate(rng, id);
    if task.criticality() == Criticality::Hi {
        return task;
    }
    terminated_candidate(rng, id)
}

/// A HI-terminated LO candidate from the same menu (the churned share
/// of the `churn_frontier` fleet).
fn terminated_candidate(rng: &mut Rng, id: usize) -> Task {
    const PERIOD_MENU: [i128; 10] = [200, 240, 320, 400, 480, 600, 800, 960, 1200, 1600];
    let period = Rational::integer(PERIOD_MENU[rng.gen_range_usize(0, PERIOD_MENU.len() - 1)]);
    let wcet = Rational::integer(rng.gen_range_i128(1, 3));
    Task::builder(format!("stop{id}"), Criticality::Lo)
        .period(period)
        .deadline(period)
        .wcet(wcet)
        .terminated()
        .build()
        .expect("candidate parameters satisfy eq. (3)")
}

fn main() {
    let runner = Runner::new("analysis");
    let limits = AnalysisLimits::default();

    let set = table1();
    runner.bench("minimum_speedup/table1", || {
        minimum_speedup(black_box(&set), &limits).expect("completes")
    });
    for size in [5usize, 10, 20, 40] {
        let set = synthetic_set(size, 42);
        runner.bench(&format!("minimum_speedup/synthetic/{size}"), || {
            minimum_speedup(black_box(&set), &limits).expect("completes")
        });
    }

    for size in [10usize, 20, 40] {
        let set = synthetic_set(size, 42);
        let profile = hi_profile(&set);
        runner.bench(&format!("sup_ratio/hi_profile/{size}"), || {
            black_box(&profile).sup_ratio(&limits).expect("completes")
        });
        // The pruned exact rational walk on the same profile — the
        // dispatch/pruned pair quantifies the integer fast path's gain.
        runner.bench(&format!("sup_ratio_pruned/hi_profile/{size}"), || {
            black_box(&profile)
                .sup_ratio_exact(&limits)
                .expect("completes")
        });
        // The unpruned full-hyperperiod reference walk — the pruned/exact
        // pair quantifies the utilization-envelope horizon's gain.
        runner.bench(&format!("sup_ratio_exact/hi_profile/{size}"), || {
            black_box(&profile)
                .sup_ratio_reference(&limits)
                .expect("completes")
        });
        // The same walk through the batched SoA driver with a single
        // machine — soa/dispatch quantifies the lockstep driver's
        // overhead on top of the raw kernel walk (should be ~nil).
        runner.bench(&format!("sup_ratio_soa/hi_profile/{size}"), || {
            sup_ratio_many(black_box(&[&profile]), &limits)
                .pop()
                .expect("one slot")
                .expect("completes")
        });
    }

    // Fleet sizing in one call: N cores' HI profiles walked in chunked
    // lockstep (the `crates/partition` speedup-bound pass) vs N separate
    // kernel walks.
    for fleet in [64usize, 256] {
        let sets: Vec<_> = (0..fleet)
            .map(|core| synthetic_set(8, 100 + core as u64))
            .collect();
        let profiles: Vec<_> = sets.iter().map(hi_profile).collect();
        let refs: Vec<&_> = profiles.iter().collect();
        runner.bench(&format!("walk_many/fleet/{fleet}"), || {
            for result in sup_ratio_many(black_box(&refs), &limits) {
                result.expect("completes");
            }
        });
    }

    for size in [10usize, 20] {
        let set = synthetic_set(size, 43);
        let profile = hi_arrival_profile(&set);
        let speed = Rational::integer(3);
        runner.bench(&format!("first_fit/adb_s3/{size}"), || {
            black_box(&profile)
                .first_fit(speed, &limits)
                .expect("completes")
        });
        runner.bench(&format!("first_fit_exact/adb_s3/{size}"), || {
            black_box(&profile)
                .first_fit_exact(speed, &limits)
                .expect("completes")
        });
    }

    // Below-rate first fits on a 256-task fleet's arrival profile (rate
    // ≈ 2.4, the daemon's delta-chain shape): both answers are `Never`,
    // proved at the envelope-floor horizon instead of after a full
    // hyperperiod of the period menu (~30k breakpoints).
    let profile = hi_arrival_profile(&fleet_set(256, 2015));
    runner.bench("first_fit/adb_below_rate/fleet_256", || {
        for speed in [Rational::ONE, Rational::TWO] {
            black_box(&profile)
                .first_fit(speed, &limits)
                .expect("completes");
        }
    });

    let set = table1();
    runner.bench("resetting_time/table1_s2", || {
        resetting_time(black_box(&set), Rational::TWO, &limits).expect("completes")
    });
    for size in [5usize, 10, 20, 40] {
        let set = synthetic_set(size, 43);
        runner.bench(&format!("resetting_time/synthetic_s3/{size}"), || {
            resetting_time(black_box(&set), Rational::integer(3), &limits).expect("completes")
        });
    }

    // The one-pass reset frontier: build cost, and a whole speed sweep
    // answered from one frontier (vs one breakpoint walk per speed).
    for size in [10usize, 20] {
        let set = synthetic_set(size, 43);
        let profile = hi_arrival_profile(&set);
        let min_speed = Rational::TWO;
        runner.bench(&format!("reset_frontier/build_s2/{size}"), || {
            black_box(&profile)
                .reset_frontier(min_speed, &limits)
                .expect("completes")
        });
        let (frontier, _) = profile
            .reset_frontier(min_speed, &limits)
            .expect("completes");
        runner.bench(&format!("reset_frontier/lookup_sweep/{size}"), || {
            let mut fits = 0usize;
            for num in 8..40 {
                if black_box(&frontier).lookup(Rational::new(num, 4)).is_some() {
                    fits += 1;
                }
            }
            fits
        });
    }

    let set = synthetic_set(20, 44);
    runner.bench("demand_eval/point_formula_200_samples", || {
        let mut acc = Rational::ZERO;
        for i in 1..=200 {
            acc += total_dbf_hi(black_box(&set), Rational::integer(i));
        }
        acc
    });
    runner.bench("demand_eval/build_hi_profile", || {
        hi_profile(black_box(&set))
    });
    runner.bench("demand_eval/build_adb_profile", || {
        hi_arrival_profile(black_box(&set))
    });

    let set = synthetic_set(20, 45);
    runner.bench("lo_mode/exact_schedulability_20_tasks", || {
        is_lo_schedulable(black_box(&set), &limits).expect("completes")
    });
    let specs = SynthConfig::new(Rational::new(7, 10))
        .period_range_ms(5, 100)
        .generate(46);
    runner.bench("lo_mode/minimal_x_density", || {
        minimal_x_density(black_box(&specs))
    });

    let tolerance = Rational::new(1, 64);
    let set = table1();
    runner.bench("tuning/minimal_speed_within_budget/table1", || {
        minimal_speed_within_budget(
            black_box(&set),
            Rational::integer(10),
            Rational::integer(4),
            tolerance,
            &limits,
        )
        .expect("completes")
    });
    for size in [10usize, 20] {
        let set = synthetic_set(size, 47);
        runner.bench(
            &format!("tuning/minimal_speed_within_budget/synthetic/{size}"),
            || {
                minimal_speed_within_budget(
                    black_box(&set),
                    Rational::integer(200),
                    Rational::integer(4),
                    tolerance,
                    &limits,
                )
                .expect("completes")
            },
        );
    }

    // The incremental sweep engine's per-`y` step: patch the LO-task
    // components in place and answer `s_min` — what a campaign pays per
    // grid row after the one-off construction, vs a full fresh context.
    for size in [10usize, 40] {
        let specs = synthetic_specs(size, 48);
        let x = minimal_feasible_x(&specs).expect("feasible by construction");
        let ys = [Rational::ONE, Rational::new(3, 2), Rational::TWO];
        let mut sweep = SweepAnalysis::new(&specs, x, &ys, SweepMode::Degraded, &limits);
        let mut turn = 0usize;
        runner.bench(&format!("sweep/rescale_lo/{size}"), || {
            turn += 1;
            sweep.rescale_lo(ys[turn % ys.len()]);
            sweep.minimum_speedup().expect("completes")
        });
    }

    // Incremental delta-admission on a resident fleet vs fresh
    // re-analysis of the same set: `admit_one` is one admission decision
    // (admit + s_min + evict back), `churn_fleet` one steady-state
    // replacement (a batched evict + admit, then s_min), and
    // `fresh_fleet` the from-scratch analysis both are measured against
    // — the churn case is required to stay at least 5x below it at this
    // fleet size.
    {
        let fleet = 256usize;
        let mut rng = Rng::seed_from_u64(2015);
        let mut delta = DeltaAnalysis::new(TaskSet::empty(), &limits);
        let mut residents = VecDeque::with_capacity(fleet);
        for id in 0..fleet {
            let task = fleet_candidate(&mut rng, id);
            residents.push_back(task.name().to_owned());
            delta.admit(task).expect("admits");
        }
        delta.minimum_speedup().expect("completes");
        let mut next_id = fleet;
        runner.bench(&format!("delta/admit_one/{fleet}"), || {
            let task = fleet_candidate(&mut rng, next_id);
            let name = task.name().to_owned();
            next_id += 1;
            delta.admit(task).expect("admits");
            let s_min = delta.minimum_speedup().expect("completes");
            delta.evict(&name).expect("evicts");
            s_min
        });
        runner.bench(&format!("delta/churn_fleet/{fleet}"), || {
            let victim = residents.pop_front().expect("resident fleet");
            let task = fleet_candidate(&mut rng, next_id);
            next_id += 1;
            residents.push_back(task.name().to_owned());
            delta
                .apply_batch(vec![DeltaOp::Evict(victim), DeltaOp::Admit(task)])
                .expect("applies");
            delta.minimum_speedup().expect("completes")
        });
        runner.bench(&format!("delta/fresh_fleet/{fleet}"), || {
            let set = delta.set().clone();
            let fresh = Analysis::new(&set, &limits);
            fresh.minimum_speedup().expect("completes")
        });
    }

    // Batched multi-op splices: one composite 8-op churn burst against
    // the single replace it collapses to. The burst carries two
    // transient admit/evict pairs (cancelled during simulation, before
    // any profile work) and a four-link replace chain on one resident
    // (collapsed to the chain's last task), so the batch performs one
    // effective splice — one aux adjustment, one certificate check, one
    // frontier repair — and must land under 3x the single op, not 8x.
    for fleet in [256usize, 4096] {
        let mut rng = Rng::seed_from_u64(2015);
        let mut delta = DeltaAnalysis::new(TaskSet::empty(), &limits);
        let mut residents = VecDeque::with_capacity(fleet);
        for id in 0..fleet {
            let task = fleet_candidate(&mut rng, id);
            residents.push_back(task.name().to_owned());
            delta.admit(task).expect("admits");
        }
        let mut next_id = fleet;
        runner.bench(&format!("delta/single_op/{fleet}"), || {
            let victim = residents.pop_front().expect("resident fleet");
            let task = fleet_candidate(&mut rng, next_id);
            next_id += 1;
            residents.push_back(task.name().to_owned());
            delta.replace(&victim, task).expect("replaces")
        });
        runner.bench(&format!("delta/batched_ops/{fleet}"), || {
            let victim = residents.pop_front().expect("resident fleet");
            let transient_a = fleet_candidate(&mut rng, next_id);
            let transient_b = fleet_candidate(&mut rng, next_id + 1);
            let chain: Vec<Task> = (0..4)
                .map(|link| fleet_candidate(&mut rng, next_id + 2 + link))
                .collect();
            next_id += 6;
            residents.push_back(chain[3].name().to_owned());
            let ops = vec![
                DeltaOp::Admit(transient_a.clone()),
                DeltaOp::Replace {
                    id: victim,
                    task: chain[0].clone(),
                },
                DeltaOp::Admit(transient_b.clone()),
                DeltaOp::Evict(transient_a.name().to_owned()),
                DeltaOp::Replace {
                    id: chain[0].name().to_owned(),
                    task: chain[1].clone(),
                },
                DeltaOp::Replace {
                    id: chain[1].name().to_owned(),
                    task: chain[2].clone(),
                },
                DeltaOp::Evict(transient_b.name().to_owned()),
                DeltaOp::Replace {
                    id: chain[2].name().to_owned(),
                    task: chain[3].clone(),
                },
            ];
            delta.apply_batch(ops).expect("applies")
        });
    }

    // A composite splice with a HI-mode activity flip: one 8-op burst
    // turns a resident HI-terminated task HI-active (its `DBF_HI` and
    // `ADB_HI` components insert mid-profile), turns an earlier flip
    // back to terminated, and churns three terminated residents, then
    // asks for `s_min`. The fleet's mix stays fixed across iterations.
    {
        let fleet = 256usize;
        let mut rng = Rng::seed_from_u64(2015);
        let mut delta = DeltaAnalysis::new(TaskSet::empty(), &limits);
        let mut stopped = VecDeque::with_capacity(fleet);
        for id in 0..fleet {
            let task = frontier_candidate(&mut rng, id);
            if task.is_terminated_in_hi() {
                stopped.push_back(task.name().to_owned());
            }
            delta.admit(task).expect("admits");
        }
        let mut next_id = fleet;
        let mut flipped = VecDeque::new();
        for _ in 0..4 {
            let task = fleet_candidate(&mut rng, next_id);
            next_id += 1;
            let victim = stopped.pop_front().expect("terminated residents");
            flipped.push_back(task.name().to_owned());
            delta.replace(&victim, task).expect("replaces");
        }
        delta.minimum_speedup().expect("completes");
        runner.bench(&format!("delta/flip_batch/{fleet}"), || {
            let mut ops = Vec::with_capacity(8);
            let active = fleet_candidate(&mut rng, next_id);
            flipped.push_back(active.name().to_owned());
            ops.push(DeltaOp::Replace {
                id: stopped.pop_front().expect("terminated residents"),
                task: active,
            });
            let stop = terminated_candidate(&mut rng, next_id + 1);
            ops.push(DeltaOp::Replace {
                id: flipped.pop_front().expect("flipped residents"),
                task: stop.clone(),
            });
            stopped.push_back(stop.name().to_owned());
            for churn in 0..3 {
                let stop = terminated_candidate(&mut rng, next_id + 2 + churn);
                ops.push(DeltaOp::Evict(
                    stopped.pop_front().expect("terminated residents"),
                ));
                stopped.push_back(stop.name().to_owned());
                ops.push(DeltaOp::Admit(stop));
            }
            next_id += 5;
            delta.apply_batch(ops).expect("applies");
            delta.minimum_speedup().expect("completes")
        });
    }

    // Frontier repair under churn-dominated admission: the churned
    // tasks are HI-terminated (eq. (3)), so every delta leaves the
    // `ADB_HI` profile untouched and the repaired staircase keeps
    // serving `Δ_R` queries without a walk — the resident HI base is
    // what the staircase describes. The pre-repair engine re-walked the
    // arrival profile on every delta here.
    for (fleet, speed) in [(256usize, 4), (4096, 16)] {
        let mut rng = Rng::seed_from_u64(2015);
        let mut delta = DeltaAnalysis::new(TaskSet::empty(), &limits);
        let mut residents = VecDeque::with_capacity(fleet);
        for id in 0..fleet {
            let task = frontier_candidate(&mut rng, id);
            if task.criticality() == Criticality::Lo {
                residents.push_back(task.name().to_owned());
            }
            delta.admit(task).expect("admits");
        }
        let speed = Rational::integer(speed);
        delta.resetting_time(speed).expect("completes");
        let mut next_id = fleet;
        runner.bench(&format!("delta/churn_frontier/{fleet}"), || {
            let victim = residents.pop_front().expect("resident fleet");
            let task = terminated_candidate(&mut rng, next_id);
            next_id += 1;
            residents.push_back(task.name().to_owned());
            delta
                .apply_batch(vec![DeltaOp::Evict(victim), DeltaOp::Admit(task)])
                .expect("applies");
            delta.resetting_time(speed).expect("completes")
        });
    }

    let specs = fms::specs(Rational::TWO);
    runner.bench("fms_full_analysis", || {
        let x = minimal_x_density(black_box(&specs)).expect("feasible");
        let factors = rbs_model::ScalingFactors::new(x, Rational::TWO).expect("valid");
        let set = rbs_model::scaled_task_set(&specs, factors).expect("valid");
        let s = minimum_speedup(&set, &limits).expect("completes");
        let r = resetting_time(&set, Rational::TWO, &limits).expect("completes");
        (s, r)
    });

    runner.finish();
}
