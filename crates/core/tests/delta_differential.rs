//! Differential property tests for incremental delta admission: a
//! [`DeltaAnalysis`] churned through admit/evict/replace sequences must
//! be bit-identical to a fresh [`Analysis`] of the resulting set —
//! values, verdicts, errors, and examined-walk outcomes alike — across
//! seeded random churn (one op at a time, and k-op batches on the
//! narrow, wide and exact walk lanes), sets engineered off the integer
//! fast path (overflow fallback), wall-clock deadlines, and a panic
//! mid-query (the panic-pill self-heal path).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use rbs_core::{
    analyze, run_delta, Analysis, AnalysisError, AnalysisLimits, DeltaAnalysis, DeltaOp, DeltaPlan,
    WalkCounts,
};
use rbs_model::{Criticality, Task, TaskSet};
use rbs_rng::Rng;
use rbs_timebase::Rational;

const CASES: usize = 48;
const OPS_PER_CASE: usize = 8;
const BATCH_CASES_PER_LANE: usize = 12;
const BATCHES_PER_CASE: usize = 6;
const PLAN_CASES: usize = 256;

fn int(v: i128) -> Rational {
    Rational::integer(v)
}

fn rat(n: i128, d: i128) -> Rational {
    Rational::new(n, d)
}

/// Which walk lane a churn's tasks are engineered for. `Narrow` stays
/// in small integers so every scaled walk fits the proved-`i64` kernel;
/// `Wide` scales periods by a huge power of two so scaled quantities
/// need the full `i128` lanes; `Exact` mixes power-of-two and thirds
/// denominators so large that no shared integer timebase exists and
/// every walk runs on exact rationals.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Lane {
    Narrow,
    Wide,
    Exact,
}

/// How the churn loop feeds its ops to the delta context.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Feed {
    /// One admit/evict/replace at a time.
    Single,
    /// k-op batches through one composite splice.
    Batched,
}

/// Task shapes of the model, in [`arb_shaped_task`]'s draw order.
const HI_SHAPE: usize = 0;
const DEGRADED_SHAPE: usize = 1;
const TERMINATED_SHAPE: usize = 2;

/// A random valid narrow-lane task of any shape (see
/// [`arb_shaped_task`]).
fn arb_task(rng: &mut Rng, name: &str) -> Task {
    arb_shaped_task(rng, Lane::Narrow, name, None)
}

/// A random valid task on `lane`, of the given shape or (for `None`) a
/// random one of all three: a HI task with a shortened LO deadline (eq.
/// (1)), a LO task degraded in HI mode (eq. (2)), and a LO task
/// terminated at the switch (eq. (3)). Fractional periods keep the
/// shared timebase moving so splices land on both the in-place and
/// rebuild paths.
fn arb_shaped_task(rng: &mut Rng, lane: Lane, name: &str, shape: Option<usize>) -> Task {
    let scale = match lane {
        Lane::Narrow => Rational::ONE,
        Lane::Wide => Rational::integer(1 << 40),
        Lane::Exact => {
            if rng.gen_bool(0.5) {
                Rational::integer(1 << 96)
            } else {
                rat(3 << 94, 1)
            }
        }
    };
    let den = [1, 2, 3, 4][rng.gen_range_usize(0, 3)];
    let period = rat(rng.gen_range_i128(2, 20), den) * scale;
    let wcet = period * rat(rng.gen_range_i128(1, 3), 8);
    match shape.unwrap_or_else(|| rng.gen_range_usize(0, 2)) {
        HI_SHAPE => {
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
        DEGRADED_SHAPE => {
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

/// Runs the full query surface on `delta` and on an independent fresh
/// context of the same set, asserting bit-identical results (values and
/// errors), and returns the fresh context's walk counters so callers
/// can pin walk *outcomes*, not just answers.
fn assert_checkpoint(
    delta: &mut DeltaAnalysis,
    limits: &AnalysisLimits,
    label: &str,
) -> WalkCounts {
    let set = delta.set().clone();
    let ctx = Analysis::new(&set, limits);
    assert_eq!(
        delta.minimum_speedup(),
        ctx.minimum_speedup(),
        "{label}: s_min"
    );
    assert_eq!(
        delta.is_lo_schedulable(),
        ctx.is_lo_schedulable(),
        "{label}: LO verdict"
    );
    assert_eq!(
        delta.lo_speed_requirement(),
        ctx.lo_speed_requirement(),
        "{label}: LO speed requirement"
    );
    for s in [Rational::ONE, rat(3, 2), Rational::TWO] {
        assert_eq!(
            delta.is_hi_schedulable(s),
            ctx.is_hi_schedulable(s),
            "{label}: HI verdict at s = {s}"
        );
        assert_eq!(
            delta.resetting_time(s),
            ctx.resetting_time(s),
            "{label}: Delta_R at s = {s}"
        );
    }
    ctx.walk_counts()
}

/// The invariants every set of walk counters keeps.
fn assert_counts_consistent(w: WalkCounts) {
    assert!(w.pruned <= w.integer + w.exact, "{w:?}");
    assert!(w.lockstep <= w.integer, "{w:?}");
    assert!(w.kept == 0 || w.repaired > 0, "{w:?}");
}

fn fresh_name(next_id: &mut usize) -> String {
    let name = format!("t{next_id}");
    *next_id += 1;
    name
}

/// A random valid batch of at least `k` ops against `set`: admits,
/// evicts, replaces that flip a task between HI-terminated and
/// HI-active (both directions, half of them renaming), and rename
/// chains that swap two names through a temporary. Validity is tracked
/// against the simulated set as ops are drawn, so every batch applies.
/// Returns the batch and how many residents it leaves HI-active that
/// were HI-terminated before it — the mid-profile inserts the batch's
/// canonical plan splices (a resident flipped there and back within
/// the batch collapses to an in-place patch and does not count).
fn arb_batch(
    rng: &mut Rng,
    lane: Lane,
    next_id: &mut usize,
    set: &TaskSet,
    k: usize,
) -> (Vec<DeltaOp>, usize) {
    // Every task the batch can still name: (name, HI-terminated now,
    // HI-terminated before the batch — `None` for a batch admit).
    let mut live: Vec<(String, bool, Option<bool>)> = set
        .iter()
        .map(|t| {
            let terminated = t.is_terminated_in_hi();
            (t.name().to_owned(), terminated, Some(terminated))
        })
        .collect();
    let mut ops = Vec::with_capacity(k + 2);
    while ops.len() < k {
        match rng.gen_range_usize(0, 3) {
            1 if !live.is_empty() => {
                let (id, _, _) = live.remove(rng.gen_range_usize(0, live.len() - 1));
                ops.push(DeltaOp::Evict(id));
            }
            2 if !live.is_empty() => {
                let i = rng.gen_range_usize(0, live.len() - 1);
                let (id, terminated, before) = live[i].clone();
                let shape = if terminated {
                    rng.gen_range_usize(HI_SHAPE, DEGRADED_SHAPE)
                } else {
                    TERMINATED_SHAPE
                };
                let name = if rng.gen_bool(0.5) {
                    fresh_name(next_id)
                } else {
                    id.clone()
                };
                let task = arb_shaped_task(rng, lane, &name, Some(shape));
                live[i] = (name, !terminated, before);
                ops.push(DeltaOp::Replace { id, task });
            }
            3 if live.len() >= 2 => {
                let i = rng.gen_range_usize(0, live.len() - 1);
                let j = (i + rng.gen_range_usize(1, live.len() - 1)) % live.len();
                let (a, b) = (live[i].0.clone(), live[j].0.clone());
                let tmp = fresh_name(next_id);
                let to_tmp = arb_shaped_task(rng, lane, &tmp, None);
                let to_a = arb_shaped_task(rng, lane, &a, None);
                let to_b = arb_shaped_task(rng, lane, &b, None);
                live[i] = (b.clone(), to_b.is_terminated_in_hi(), live[i].2);
                live[j] = (a.clone(), to_a.is_terminated_in_hi(), live[j].2);
                ops.push(DeltaOp::Replace {
                    id: a,
                    task: to_tmp,
                });
                ops.push(DeltaOp::Replace { id: b, task: to_a });
                ops.push(DeltaOp::Replace {
                    id: tmp,
                    task: to_b,
                });
            }
            _ => {
                let name = fresh_name(next_id);
                let task = arb_shaped_task(rng, lane, &name, None);
                live.push((name, task.is_terminated_in_hi(), None));
                ops.push(DeltaOp::Admit(task));
            }
        }
    }
    let inserts = live
        .iter()
        .filter(|&&(_, terminated, before)| before == Some(true) && !terminated)
        .count();
    (ops, inserts)
}

/// Random churn through `feed`, checking every step against a fresh
/// context: results at each checkpoint, examined-walk counts per case.
fn churn(feed: Feed, lane: Lane, seed: u64, cases: usize, steps: usize) {
    let mut rng = Rng::seed_from_u64(seed);
    let limits = AnalysisLimits::default();
    let mut inserts = 0;
    for case in 0..cases {
        let case = format!("{feed:?}/{lane:?} case {case}");
        let mut next_id = 0usize;
        let base_len = match feed {
            Feed::Single => rng.gen_range_usize(1, 4),
            Feed::Batched => rng.gen_range_usize(3, 8),
        };
        let base: Vec<Task> = (0..base_len)
            .map(|_| {
                let name = fresh_name(&mut next_id);
                arb_shaped_task(&mut rng, lane, &name, None)
            })
            .collect();
        let mut delta = DeltaAnalysis::new(TaskSet::new(base), &limits);
        let mut fresh = WalkCounts::default();
        fresh.absorb(assert_checkpoint(
            &mut delta,
            &limits,
            &format!("{case} base"),
        ));
        for step in 0..steps {
            match feed {
                Feed::Single => single_step(&mut rng, &mut next_id, &mut delta),
                Feed::Batched => {
                    let k = rng.gen_range_usize(2, 8);
                    let (ops, planned) = arb_batch(&mut rng, lane, &mut next_id, delta.set(), k);
                    inserts += planned;
                    delta.apply_batch(ops).expect("vetted batch applies");
                }
            }
            fresh.absorb(assert_checkpoint(
                &mut delta,
                &limits,
                &format!("{case} step {step}"),
            ));
            assert_counts_consistent(delta.walk_counts());
        }
        assert_counts_consistent(fresh);
        // Walk outcomes, not just answers: a churned profile stays on
        // the same fast-path/exact split a fresh context picks, and
        // frontier repair can only *save* walks — every query the delta
        // context does walk examines what a fresh walk examines, and
        // every walk it skips shows up as an extra frontier hit instead.
        let counts = delta.walk_counts();
        assert!(
            counts.integer <= fresh.integer,
            "{case}: integer walks grew ({} > {})",
            counts.integer,
            fresh.integer
        );
        assert!(
            counts.exact <= fresh.exact,
            "{case}: exact walks grew ({} > {})",
            counts.exact,
            fresh.exact
        );
        assert!(
            counts.pruned <= fresh.pruned,
            "{case}: prunes grew ({} > {})",
            counts.pruned,
            fresh.pruned
        );
        assert!(
            counts.avoided >= fresh.avoided,
            "{case}: frontier hits shrank ({} < {})",
            counts.avoided,
            fresh.avoided
        );
        assert_eq!(counts.lockstep, fresh.lockstep, "{case}: lockstep");
        // The saved walks are exactly the repaired-frontier hits: when
        // the delta context never repairs a staircase, its counters
        // must match the fresh accumulation bit for bit.
        if counts.repaired == 0 {
            assert_eq!(counts.integer, fresh.integer, "{case}: integer walks");
            assert_eq!(counts.exact, fresh.exact, "{case}: exact walks");
            assert_eq!(counts.pruned, fresh.pruned, "{case}: pruned walks");
            assert_eq!(counts.avoided, fresh.avoided, "{case}: avoided walks");
        }
        if lane == Lane::Exact {
            assert!(counts.exact > 0, "{case}: lane never left the fast path");
        }
    }
    if feed == Feed::Batched {
        assert!(
            inserts > 0,
            "{lane:?}: no batch turned a HI-terminated resident HI-active"
        );
    }
}

/// One random admit, evict or replace (half the replacements rename).
fn single_step(rng: &mut Rng, next_id: &mut usize, delta: &mut DeltaAnalysis) {
    let names: Vec<String> = delta.set().iter().map(|t| t.name().to_owned()).collect();
    let roll = rng.gen_range_usize(0, 2);
    if roll == 0 || names.is_empty() {
        let name = fresh_name(next_id);
        delta
            .admit(arb_task(rng, &name))
            .expect("fresh name admits");
    } else if roll == 1 {
        let victim = &names[rng.gen_range_usize(0, names.len() - 1)];
        delta.evict(victim).expect("present task evicts");
    } else {
        let victim = names[rng.gen_range_usize(0, names.len() - 1)].clone();
        let name = if rng.gen_bool(0.5) {
            fresh_name(next_id)
        } else {
            victim.clone()
        };
        let task = arb_task(rng, &name);
        delta.replace(&victim, task).expect("present task replaces");
    }
}

#[test]
fn random_churn_matches_fresh_contexts_bit_identically() {
    churn(Feed::Single, Lane::Narrow, 0xde17_a001, CASES, OPS_PER_CASE);
    for (lane, seed) in [
        (Lane::Narrow, 0xba7c_0001),
        (Lane::Wide, 0xba7c_0002),
        (Lane::Exact, 0xba7c_0003),
    ] {
        churn(
            Feed::Batched,
            lane,
            seed,
            BATCH_CASES_PER_LANE,
            BATCHES_PER_CASE,
        );
    }
}

#[test]
fn overflow_fallback_churn_stays_bit_identical() {
    // The HI task's power-of-two period is so large that combining it
    // with the thirds-denominated LO task overflows every shared
    // timebase — fresh builds of this set run exact rational walks. The
    // delta engine must follow: its in-place splice is only kept when
    // the patched profile stays on the scale a fresh build would pick,
    // so admitting and evicting `thirds` must flip the profiles between
    // the exact and integer paths exactly as fresh rebuilds do. (The
    // construction keeps the exact walks panic-free: every quantity of
    // the huge task is a power of two, and the thirds task's
    // breakpoints start beyond the walks' pruning horizons.)
    let limits = AnalysisLimits::default();
    let huge = Task::builder("huge", Criticality::Hi)
        .period(int(1 << 126))
        .deadline_lo(int(1 << 125))
        .deadline_hi(int(1 << 126))
        .wcet_lo(int(16))
        .wcet_hi(int(32))
        .build()
        .expect("valid HI task");
    // Both LO tasks continue into HI mode unchanged: their demand
    // envelopes are what keep every walk's pruning horizon small (far
    // below the huge task's breakpoints), so the exact walks stay
    // panic-free.
    let beat = Task::builder("beat", Criticality::Lo)
        .period(int(2))
        .deadline(int(2))
        .wcet(int(1))
        .build()
        .expect("valid LO task");
    let thirds = Task::builder("thirds", Criticality::Lo)
        .period(rat(1024, 3))
        .deadline(rat(1024, 3))
        .wcet(int(1))
        .build()
        .expect("valid LO task");

    let mut delta = DeltaAnalysis::new(TaskSet::new(vec![huge, beat]), &limits);
    let mut fresh_exact = 0u64;
    let mut fresh_integer = 0u64;
    let counts = assert_checkpoint(&mut delta, &limits, "powers of two");
    fresh_exact += counts.exact;
    fresh_integer += counts.integer;

    // Admitting the thirds task overflows the shared timebase: both
    // engines must drop to exact walks.
    delta.admit(thirds).expect("fresh name admits");
    let counts = assert_checkpoint(&mut delta, &limits, "with thirds");
    assert!(counts.exact > 0, "set engineered off the fast path");
    fresh_exact += counts.exact;
    fresh_integer += counts.integer;

    // Evicting it restores a representable timebase: the delta profiles
    // must return to the integer path like a fresh rebuild would.
    delta.evict("thirds").expect("present task evicts");
    let counts = assert_checkpoint(&mut delta, &limits, "thirds evicted");
    fresh_exact += counts.exact;
    fresh_integer += counts.integer;

    let counts = delta.walk_counts();
    assert_eq!(counts.exact, fresh_exact, "exact walks diverge");
    assert_eq!(counts.integer, fresh_integer, "integer walks diverge");
}

#[test]
fn expired_deadlines_error_identically_after_deltas() {
    // A deadline can only turn a slow success into an error, never
    // change a value — and the error itself is part of the bit-identity
    // contract (same variant, same examined count).
    let base = TaskSet::new(vec![
        Task::builder("h", Criticality::Hi)
            .period(int(5))
            .deadline_lo(int(2))
            .deadline_hi(int(5))
            .wcet_lo(int(1))
            .wcet_hi(int(2))
            .build()
            .expect("valid HI task"),
        Task::builder("l", Criticality::Lo)
            .period(int(10))
            .deadline(int(10))
            .wcet(int(3))
            .build()
            .expect("valid LO task"),
    ]);
    let expired = AnalysisLimits::default().with_deadline(Instant::now());
    let mut delta = DeltaAnalysis::new(base.clone(), &expired);
    delta
        .admit(
            Task::builder("x", Criticality::Lo)
                .period(int(4))
                .deadline(int(4))
                .wcet(int(1))
                .terminated()
                .build()
                .expect("valid LO task"),
        )
        .expect("fresh name admits");
    let mut grown = base.clone();
    DeltaOp::Admit(
        Task::builder("x", Criticality::Lo)
            .period(int(4))
            .deadline(int(4))
            .wcet(int(1))
            .terminated()
            .build()
            .expect("valid LO task"),
    )
    .apply_to(&mut grown)
    .expect("fresh name admits");
    let ctx = Analysis::new(&grown, &expired);
    assert_eq!(
        delta.minimum_speedup(),
        ctx.minimum_speedup(),
        "expired deadline must classify identically"
    );
    assert!(matches!(
        delta.minimum_speedup(),
        Err(AnalysisError::DeadlineExceeded { examined: 1 })
    ));

    // A generous deadline changes nothing: results match the
    // deadline-free analysis bit for bit.
    let generous =
        AnalysisLimits::default().with_deadline(Instant::now() + Duration::from_secs(3600));
    let mut timed = DeltaAnalysis::new(grown.clone(), &generous);
    let mut untimed = DeltaAnalysis::new(grown, &AnalysisLimits::default());
    assert_eq!(timed.minimum_speedup(), untimed.minimum_speedup());
    assert_eq!(
        timed.resetting_time(Rational::TWO),
        untimed.resetting_time(Rational::TWO)
    );
}

#[test]
fn a_panicking_query_session_heals_back_to_bit_identity() {
    let mut rng = Rng::seed_from_u64(0xde17_a003);
    let limits = AnalysisLimits::default();
    let base: Vec<Task> = (0..3)
        .map(|i| arb_task(&mut rng, &format!("t{i}")))
        .collect();
    let mut delta = DeltaAnalysis::new(TaskSet::new(base), &limits);
    let _ = delta.minimum_speedup().expect("completes");

    // The pill: a query session that unwinds mid-lend takes the lent
    // profiles down with it.
    let result = catch_unwind(AssertUnwindSafe(|| {
        delta.with_analysis(|_| panic!("poison pill"));
    }));
    assert!(result.is_err(), "the pill must propagate");

    // The next use rebuilds from the set, and every subsequent delta
    // still matches fresh contexts exactly.
    assert_checkpoint(&mut delta, &limits, "after panic");
    delta
        .admit(arb_task(&mut rng, "t3"))
        .expect("fresh name admits");
    assert_checkpoint(&mut delta, &limits, "admit after panic");
    delta.evict("t0").expect("present task evicts");
    assert_checkpoint(&mut delta, &limits, "evict after panic");
}

#[test]
fn run_delta_reports_are_byte_identical_to_fresh_analyze() {
    let mut rng = Rng::seed_from_u64(0xde17_a002);
    let limits = AnalysisLimits::default();
    for case in 0..16 {
        let base: Vec<Task> = (0..rng.gen_range_usize(1, 3))
            .map(|i| arb_task(&mut rng, &format!("t{i}")))
            .collect();
        let first = base[0].name().to_owned();
        let base = TaskSet::new(base);
        let ops = vec![
            DeltaOp::Admit(arb_task(&mut rng, "new")),
            DeltaOp::Replace {
                id: first,
                task: arb_task(&mut rng, "swapped"),
            },
        ];
        let mut resulting = base.clone();
        for op in &ops {
            op.apply_to(&mut resulting).expect("ops apply");
        }
        let plan = DeltaPlan::resolve(&base, ops).expect("ops resolve");
        let (report, counts) = run_delta(base, &plan, &limits).expect("completes");
        let fresh = analyze(resulting, &limits).expect("completes");
        assert_eq!(report, fresh, "case {case}: reports diverge");
        assert_eq!(
            rbs_json::to_string(&report),
            rbs_json::to_string(&fresh),
            "case {case}: rendered bytes diverge"
        );
        // The delta run did real incremental work: the admit landed as
        // either an in-place patch or a counted rebuild, never silently.
        assert!(
            counts.patched > 0 || counts.rebuilt_components > 0,
            "case {case}: no profile accounting"
        );
    }
}

/// Inserts one op into `ops` at a random position where it must fail
/// against the set the ops before it leave: an evict or a replace of an
/// unknown name, a duplicate admit, or a replace renamed onto another
/// live name. The ops before it are untouched, so it is the first
/// failing op.
fn insert_invalid_op(rng: &mut Rng, next_id: &mut usize, base: &TaskSet, ops: &mut Vec<DeltaOp>) {
    let at = rng.gen_range_usize(0, ops.len());
    let mut live = base.clone();
    for op in &ops[..at] {
        op.apply_to(&mut live).expect("drawn prefix applies");
    }
    let names: Vec<String> = live.iter().map(|t| t.name().to_owned()).collect();
    let pick = |rng: &mut Rng| names[rng.gen_range_usize(0, names.len() - 1)].clone();
    let op = match rng.gen_range_usize(0, 3) {
        2 if !names.is_empty() => {
            let name = pick(rng);
            DeltaOp::Admit(arb_task(rng, &name))
        }
        3 if names.len() >= 2 => {
            let id = pick(rng);
            let onto = loop {
                let onto = pick(rng);
                if onto != id {
                    break onto;
                }
            };
            DeltaOp::Replace {
                id,
                task: arb_task(rng, &onto),
            }
        }
        1 => {
            let name = fresh_name(next_id);
            DeltaOp::Replace {
                id: fresh_name(next_id),
                task: arb_task(rng, &name),
            }
        }
        _ => DeltaOp::Evict(fresh_name(next_id)),
    };
    ops.insert(at, op);
}

#[test]
fn resolved_plans_match_sequential_replay_including_failures() {
    let mut rng = Rng::seed_from_u64(0x91a0_0001);
    let limits = AnalysisLimits::default();
    let mut rejected = 0;
    for case in 0..PLAN_CASES {
        let mut next_id = 0usize;
        let base = TaskSet::new(
            (0..rng.gen_range_usize(0, 6))
                .map(|_| {
                    let name = fresh_name(&mut next_id);
                    arb_task(&mut rng, &name)
                })
                .collect(),
        );
        let k = rng.gen_range_usize(1, 8);
        let (mut ops, _) = arb_batch(&mut rng, Lane::Narrow, &mut next_id, &base, k);
        let invalid = rng.gen_bool(0.5);
        if invalid {
            insert_invalid_op(&mut rng, &mut next_id, &base, &mut ops);
        }
        // The oracle: the ops one at a time, up to the first failure.
        let mut expected = base.clone();
        let oracle = ops.iter().try_for_each(|op| op.apply_to(&mut expected));
        assert_eq!(oracle.is_err(), invalid, "case {case}: {ops:?}");
        match (DeltaPlan::resolve(&base, ops.clone()), oracle) {
            (Ok(plan), Ok(())) => {
                let mut spliced = base.clone();
                plan.splice_set(&mut spliced);
                assert_eq!(spliced, expected, "case {case}: spliced set");
                let mut delta = DeltaAnalysis::new(base, &limits);
                delta.apply_plan(&plan);
                assert_eq!(delta.set(), &expected, "case {case}: analysis set");
            }
            (Err(got), Err(want)) => {
                assert_eq!(got, want, "case {case}: first failing op");
                rejected += 1;
            }
            (got, want) => panic!("case {case}: plan {got:?}, sequential replay {want:?}"),
        }
    }
    assert!(rejected > 0, "no invalid batch was drawn");
}

#[test]
fn a_plan_from_a_set_of_another_length_panics() {
    let mut rng = Rng::seed_from_u64(0x91a0_0002);
    let limits = AnalysisLimits::default();
    let tasks: Vec<Task> = (0..3)
        .map(|i| arb_task(&mut rng, &format!("t{i}")))
        .collect();
    let plan = DeltaPlan::resolve(
        &TaskSet::new(tasks.clone()),
        vec![DeltaOp::Evict("t0".into())],
    )
    .expect("t0 is present");
    let other = TaskSet::new(tasks[..2].to_vec());
    let message = |payload: Box<dyn std::any::Any + Send>| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default()
    };
    let mut delta = DeltaAnalysis::new(other.clone(), &limits);
    let spliced = catch_unwind(AssertUnwindSafe(|| delta.apply_plan(&plan)));
    assert!(
        message(spliced.expect_err("a foreign plan must not splice")).contains("3 tasks"),
        "the panic names the plan's base length"
    );
    let mut set = other;
    let spliced = catch_unwind(AssertUnwindSafe(|| plan.splice_set(&mut set)));
    assert!(
        spliced.is_err(),
        "a foreign plan must not splice a bare set"
    );
}
