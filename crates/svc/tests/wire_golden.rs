//! Frozen wire bytes: the `rbs-svc` binary's answers to a committed
//! JSONL corpus, and fixed canonical byte strings and hashes.
//!
//! Unlike `golden.rs`, which compares the service with a direct render
//! from the same build, the expectations here are committed files and
//! literals, so a change to any encoder (reports, errors, walk counters,
//! canonical keys) fails this test instead of moving both sides at once.
//!
//! The corpus covers: analyze and its repeat (coalesced in batch mode, a
//! cache hit under `--follow`), single-op and 8-op deltas, a keyed delta
//! chain, a feasible, an `x`-pinned and an infeasible sweep, partitions
//! under all three heuristics (one fit, three sheds), a parse error, an
//! unknown base key and an oversized line under `--max-request-bytes
//! 8192`. Task names carry quotes, backslashes, tabs, control characters,
//! non-ASCII and astral characters. The only field that varies between
//! runs, `micros`, is zeroed, and the footer's `latency_micros` block is
//! dropped.

use std::io::Write;
use std::process::{Command, Stdio};

use rbs_model::{CanonicalTaskSet, Criticality, ImplicitTaskSpec, Task, TaskSet};
use rbs_partition::{Heuristic, Objective, PartitionSpec, PlatformCap};
use rbs_timebase::Rational;

const CORPUS: &str = include_str!("wire/corpus.jsonl");

/// Runs the binary over the corpus and returns its stdout followed by
/// its stderr footer, with the wall-clock fields removed.
fn run(extra: &[&str]) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_rbs-svc"))
        .args(["--jobs", "2", "--max-request-bytes", "8192"])
        .args(extra)
        .arg("-")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(CORPUS.as_bytes())
        .expect("corpus written");
    let output = child.wait_with_output().expect("binary exits");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    let stderr = String::from_utf8(output.stderr).expect("utf-8 stderr");
    format!(
        "{}{}",
        zero_field(&stdout, "\"micros\":"),
        drop_block(&stderr, " latency_micros{")
    )
}

/// Replaces the digits after every `key` with a single `0`.
fn zero_field(text: &str, key: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find(key) {
        let after = at + key.len();
        out.push_str(&rest[..after]);
        out.push('0');
        rest = rest[after..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// Removes every `opening … }` block.
fn drop_block(text: &str, opening: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find(opening) {
        out.push_str(&rest[..at]);
        let close = rest[at..].find('}').expect("block closes");
        rest = &rest[at + close + 1..];
    }
    out.push_str(rest);
    out
}

/// Compares line by line so a failure names the first differing line.
fn assert_same_lines(actual: &str, expected: &str) {
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "line {} differs", i + 1);
    }
    assert_eq!(actual.lines().count(), expected.lines().count());
}

#[test]
fn batch_answers_match_the_frozen_bytes() {
    assert_same_lines(&run(&[]), include_str!("wire/batch.expected"));
}

#[test]
fn follow_answers_match_the_frozen_bytes() {
    assert_same_lines(&run(&["--follow"]), include_str!("wire/follow.expected"));
}

fn r(num: i128, den: i128) -> Rational {
    Rational::new(num, den)
}

const I64_MAX: i128 = i64::MAX as i128;

fn vector_set() -> TaskSet {
    let task = |name: &str, crit, t: Rational, d_lo: Rational, c_lo: Rational, c_hi| {
        let builder = Task::builder(name, crit)
            .period(t)
            .deadline_lo(d_lo)
            .wcet_lo(c_lo);
        match c_hi {
            Some(c_hi) => builder.deadline_hi(t).wcet_hi(c_hi),
            None => builder.terminated(),
        }
        .build()
        .expect("valid task")
    };
    TaskSet::new(vec![
        task(
            "q\"uo\\te\n",
            Criticality::Hi,
            r(I64_MAX + 1, 3),
            r(I64_MAX - 1, 7),
            r(5, 2),
            Some(r(I64_MAX, 11)),
        ),
        task(
            "τ 🚀",
            Criticality::Lo,
            r(i128::MAX, 1),
            r(i128::MAX, 2),
            r(I64_MAX + 2, 1),
            Some(r(I64_MAX + 2, 1)),
        ),
        task("lo", Criticality::Lo, r(25, 2), r(25, 2), r(1, 3), None),
        task("a", Criticality::Lo, r(25, 2), r(25, 2), r(1, 3), None),
    ])
}

fn vector_specs() -> Vec<ImplicitTaskSpec> {
    vec![
        ImplicitTaskSpec::lo("s\"2", r(I64_MAX - 1, 1), r(3, 1)),
        ImplicitTaskSpec::hi("b", r(40, 3), r(1, 2), r(2, 1)),
        ImplicitTaskSpec::hi("a", r(40, 3), r(1, 2), r(2, 1)),
    ]
}

fn assert_canonical(canon: &CanonicalTaskSet, bytes: &str, hash: u64) {
    assert_eq!(
        String::from_utf8_lossy(canon.bytes()),
        bytes,
        "canonical bytes"
    );
    assert_eq!(canon.content_hash(), hash, "canonical hash");
}

#[test]
fn canonical_task_set_bytes_and_hash_are_frozen() {
    assert_canonical(&CanonicalTaskSet::of(&vector_set()), SET_BYTES, SET_HASH);
}

#[test]
fn canonical_sweep_bytes_and_hash_are_frozen() {
    let specs = vector_specs();
    let ys = [r(1, 1), r(3, 2), r(I64_MAX + 1, 2)];
    let speeds = [r(-7, 3), r(0, 1), r(-i128::MAX, 1), r(I64_MAX, 1)];
    assert_canonical(
        &CanonicalTaskSet::of_sweep(&specs, None, &ys, &speeds),
        SWEEP_BYTES,
        SWEEP_HASH,
    );
    assert_canonical(
        &CanonicalTaskSet::of_sweep(&specs, Some(r(3, 4)), &ys[..1], &speeds[..1]),
        SWEEP_X_BYTES,
        SWEEP_X_HASH,
    );
}

#[test]
fn canonical_partition_bytes_and_hash_are_frozen() {
    let spec = PartitionSpec::new(PlatformCap::new(12, r(I64_MAX + 3, 2)), Heuristic::WorstFit)
        .with_objective(Objective::SharedBudget(r(9, 2)));
    assert_canonical(
        &CanonicalTaskSet::of_partition(&vector_set(), &spec.canonical_detail()),
        PARTITION_BYTES,
        PARTITION_HASH,
    );
}

// The canonical bytes are part of every cache key and base-registry hash.
const SET_BYTES: &str = "Ta\0L 25/2 25/2 1/3X;Tlo\0L 25/2 25/2 1/3X;Tτ 🚀\0L 170141183460469231731687303715884105727/1 170141183460469231731687303715884105727/2 9223372036854775809/1C 170141183460469231731687303715884105727/1 170141183460469231731687303715884105727/1 9223372036854775809/1;Tq\"uo\\te\n\0H 9223372036854775808/3 9223372036854775806/7 5/2C 9223372036854775808/3 9223372036854775808/3 9223372036854775807/11;";
const SET_HASH: u64 = 0x3c23dd0f666b1d4f;
const SWEEP_BYTES: &str = "sweep*| 1/1 3/2 4611686018427387904/1| -7/3 0/1 -170141183460469231731687303715884105727/1 9223372036854775807/1|Ss\"2\0L 9223372036854775806/1 3/1 3/1;Sa\0H 40/3 1/2 2/1;Sb\0H 40/3 1/2 2/1;";
const SWEEP_HASH: u64 = 0x7b960810965b1287;
const SWEEP_X_BYTES: &str = "sweep 3/4| 1/1| -7/3|Ss\"2\0L 9223372036854775806/1 3/1 3/1;Sa\0H 40/3 1/2 2/1;Sb\0H 40/3 1/2 2/1;";
const SWEEP_X_HASH: u64 = 0x2d159bb109d431c1;
const PARTITION_BYTES: &str = "partitioncores 12|cap 4611686018427387905/1|h wf|obj budget 9/2|Ta\0L 25/2 25/2 1/3X;Tlo\0L 25/2 25/2 1/3X;Tτ 🚀\0L 170141183460469231731687303715884105727/1 170141183460469231731687303715884105727/2 9223372036854775809/1C 170141183460469231731687303715884105727/1 170141183460469231731687303715884105727/1 9223372036854775809/1;Tq\"uo\\te\n\0H 9223372036854775808/3 9223372036854775806/7 5/2C 9223372036854775808/3 9223372036854775808/3 9223372036854775807/11;";
const PARTITION_HASH: u64 = 0x29e48a7fa5faf6fd;
