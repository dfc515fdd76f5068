//! Round-trip properties of every wire type's one encoder, driven by a
//! seeded deterministic RNG.
//!
//! For each decodable type `T` and generated value `x`:
//! `T::from_json(&parse(&to_string(x))) == x` (the bytes decode back to the
//! value) and `parse(&to_string(x)).render() == to_string(x)` (the bytes
//! are already in the tree renderer's canonical layout). The generators
//! reach the encoders' edges: task names with quotes, backslashes, every
//! control character U+0000–U+001F, non-ASCII and astral characters, and
//! integers at `±i128::MAX` and `i64::MIN/MAX ± 1`. The report types,
//! which have no decoder, check that `to_json()` is the tree `parse`
//! builds from the written bytes.

use std::fmt::Debug;

use rbs_core::resetting::ResettingBound;
use rbs_core::speedup::SpeedupBound;
use rbs_core::{analyze, AnalysisLimits};
use rbs_json::{parse, to_string, FromJson, ToJson};
use rbs_model::{Criticality, ImplicitTaskSpec, ModeParams, ScalingFactors, Task, TaskSet};
use rbs_partition::{partition_with, Heuristic, PartitionSpec, PlatformCap};
use rbs_pool::WorkerPool;
use rbs_rng::Rng;
use rbs_timebase::Rational;

const CASES: usize = 256;

const I64_MAX: i128 = i64::MAX as i128;
const I64_MIN: i128 = i64::MIN as i128;

/// Integers the encoders must get right, signs and digit counts included.
const EDGES: [i128; 12] = [
    1,
    2,
    7,
    10,
    I64_MAX - 1,
    I64_MAX,
    I64_MAX + 1,
    I64_MAX + 2,
    -I64_MAX,
    I64_MIN,
    I64_MIN - 1,
    i128::MAX,
];

/// Characters a name draws from: everything the escaper treats specially
/// plus multi-byte UTF-8 of every width.
fn name_alphabet() -> Vec<char> {
    let mut chars: Vec<char> = (0u8..0x20).map(char::from).collect();
    chars.extend([
        '"', '\\', '/', 'a', 'Z', '0', ' ', '\u{7f}', 'é', 'τ', '\u{2028}', '🚀',
    ]);
    chars
}

fn name(rng: &mut Rng, alphabet: &[char]) -> String {
    let len = rng.gen_range_usize(0, 12);
    (0..len)
        .map(|_| alphabet[rng.gen_range_usize(0, alphabet.len() - 1)])
        .collect()
}

/// A positive integer: small most of the time, an edge otherwise.
fn magnitude(rng: &mut Rng) -> i128 {
    if rng.gen_bool(0.5) {
        rng.gen_range_i128(1, 1000)
    } else {
        EDGES[rng.gen_range_usize(0, EDGES.len() - 1)].abs()
    }
}

fn rational(rng: &mut Rng) -> Rational {
    let num = if rng.gen_bool(0.1) { 0 } else { magnitude(rng) };
    let num = if rng.gen_bool(0.3) { -num } else { num };
    Rational::new(num, magnitude(rng))
}

fn positive(rng: &mut Rng) -> Rational {
    Rational::new(magnitude(rng), magnitude(rng))
}

/// Four positive values in ascending order.
fn ascending(rng: &mut Rng) -> [Rational; 4] {
    let mut values = [positive(rng), positive(rng), positive(rng), positive(rng)];
    values.sort();
    values
}

fn task(rng: &mut Rng, name: String) -> Option<Task> {
    let [c_lo, c_hi, d_lo, t] = ascending(rng);
    let builder = if rng.gen_bool(0.5) {
        Task::builder(name, Criticality::Hi)
            .period(t)
            .deadline_lo(d_lo)
            .deadline_hi(t)
            .wcet_lo(c_lo)
            .wcet_hi(c_hi)
    } else {
        let lo = Task::builder(name, Criticality::Lo)
            .period(t)
            .deadline(d_lo)
            .wcet(c_lo);
        if rng.gen_bool(0.5) {
            lo.terminated()
        } else {
            lo
        }
    };
    builder.build().ok()
}

fn bound(rng: &mut Rng) -> Option<Rational> {
    rng.gen_bool(0.8).then(|| rational(rng))
}

/// Both round-trip properties for one value.
fn assert_round_trip<T: ToJson + FromJson + PartialEq + Debug>(value: &T) {
    let text = to_string(value);
    let tree = parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
    assert_eq!(tree.render(), text, "re-render of {value:?}");
    let back = T::from_json(&tree).unwrap_or_else(|e| panic!("{e}: {text}"));
    assert_eq!(&back, value, "decode of {text}");
}

#[test]
fn every_edge_integer_round_trips_as_a_rational() {
    for &num in &EDGES {
        for den in [1, 3, I64_MAX, I64_MAX + 1, i128::MAX] {
            assert_round_trip(&Rational::new(num, den));
            assert_round_trip(&Rational::new(-num, den));
        }
    }
    assert_round_trip(&Rational::new(-i128::MAX, 1));
    assert_round_trip(&Rational::ZERO);
}

#[test]
fn model_types_round_trip() {
    let alphabet = name_alphabet();
    let mut rng = Rng::seed_from_u64(0x3a7e_0028);
    let mut built = 0;
    for _ in 0..CASES {
        assert_round_trip(&rational(&mut rng));
        assert_round_trip(&ModeParams::new(
            rational(&mut rng),
            rational(&mut rng),
            rational(&mut rng),
        ));
        let [lo, _, _, hi] = ascending(&mut rng);
        let spec_name = name(&mut rng, &alphabet);
        assert_round_trip(&if rng.gen_bool(0.5) {
            ImplicitTaskSpec::hi(spec_name, hi, lo, hi)
        } else {
            ImplicitTaskSpec::lo(spec_name, hi, lo)
        });
        let (a, b) = (magnitude(&mut rng), magnitude(&mut rng));
        let (a, b) = (a.min(b), a.max(b));
        let factors = ScalingFactors::new(Rational::new(a, b), Rational::new(b, a));
        assert_round_trip(&factors.expect("x <= 1 <= y"));

        let len = rng.gen_range_usize(0, 6);
        let tasks: Vec<Task> = (0..len)
            .filter_map(|_| {
                let task_name = name(&mut rng, &alphabet);
                task(&mut rng, task_name)
            })
            .collect();
        built += tasks.len();
        for task in &tasks {
            assert_round_trip(task);
        }
        assert_round_trip(&TaskSet::new(tasks));
    }
    assert!(built > CASES, "only {built} tasks were valid");
}

#[test]
fn bounds_round_trip() {
    let mut rng = Rng::seed_from_u64(0xb0_0d5);
    for _ in 0..CASES {
        assert_round_trip(&bound(&mut rng).map_or(SpeedupBound::Unbounded, SpeedupBound::Finite));
        assert_round_trip(
            &bound(&mut rng).map_or(ResettingBound::Unbounded, ResettingBound::Finite),
        );
    }
}

/// `to_json()` is the tree parsed from the written bytes, and rendering
/// that tree reproduces them.
fn assert_tree_is_the_bytes(value: &impl ToJson) {
    let text = to_string(value);
    let tree = value.to_json();
    assert_eq!(Some(&tree), parse(&text).ok().as_ref());
    assert_eq!(tree.render(), text);
}

/// A small, analyzable set with escaping-heavy unique names.
fn analyzable_set(rng: &mut Rng, alphabet: &[char]) -> TaskSet {
    let len = rng.gen_range_usize(1, 6);
    let tasks = (0..len).map(|i| {
        let period = Rational::integer(rng.gen_range_i128(4, 40));
        let wcet = Rational::new(rng.gen_range_i128(1, 8), 4);
        let task_name = format!("{i}{}", name(rng, alphabet));
        if rng.gen_bool(0.5) {
            Task::builder(task_name, Criticality::Hi)
                .period(period)
                .deadline_lo(period / Rational::TWO)
                .deadline_hi(period)
                .wcet_lo(wcet)
                .wcet_hi(wcet * Rational::TWO)
                .build()
        } else {
            Task::builder(task_name, Criticality::Lo)
                .period(period)
                .deadline(period)
                .wcet(wcet)
                .build()
        }
        .expect("valid task")
    });
    TaskSet::new(tasks.collect())
}

#[test]
fn report_trees_are_the_parse_of_their_bytes() {
    let alphabet = name_alphabet();
    let mut rng = Rng::seed_from_u64(0x7e_d0c5);
    let limits = AnalysisLimits::default();
    let pool = WorkerPool::new(1);
    let (mut reports, mut outcomes) = (0, 0);
    for _ in 0..32 {
        let set = analyzable_set(&mut rng, &alphabet);
        if let Ok(report) = analyze(set.clone(), &limits) {
            assert_tree_is_the_bytes(&report);
            reports += 1;
        }
        for heuristic in [Heuristic::FirstFit, Heuristic::WorstFit] {
            let spec = PartitionSpec::new(PlatformCap::new(2, Rational::TWO), heuristic);
            if let Ok(outcome) = partition_with(&set, &spec, &pool, &limits) {
                assert_tree_is_the_bytes(&outcome);
                outcomes += 1;
            }
        }
    }
    assert!(
        reports > 16 && outcomes > 32,
        "{reports} reports, {outcomes} outcomes"
    );
}
