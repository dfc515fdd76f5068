//! Runs every workload for about a second against an in-process
//! `rbs_net::Server`, untraced and traced, so the generators, the
//! response checks, the replay with its accounting closure, and the
//! metric names `BENCHMARK.json` declares are all exercised by
//! `cargo test --manifest-path e2ebench/Cargo.toml`.

use std::path::PathBuf;

use rbs_e2e::daemon::Launch;
use rbs_e2e::run::{self, Settings, CLOSURE_TOLERANCE_PCT, END_TO_END, P99_MIN_SAMPLES, PER_LAYER};
use rbs_e2e::workload::Kind;
use rbs_json::Json;

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
    rbs_json::parse(&text).expect("BENCHMARK.json is JSON")
}

/// `(name, unit)` of every entry of a `BENCHMARK.json` metric list.
fn declared(json: &Json, list: &str) -> Vec<(String, String)> {
    json.get(list)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|metric| {
            let field = |key| {
                metric
                    .get(key)
                    .and_then(Json::as_str)
                    .expect("string field")
            };
            (field("name").to_owned(), field("unit").to_owned())
        })
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|&(name, unit)| (name.to_owned(), unit.to_owned()))
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_the_reported_metrics() {
    let json = benchmark_json();
    assert_eq!(declared(&json, "end_to_end"), owned(&END_TO_END));
    assert_eq!(declared(&json, "per_layer"), owned(&PER_LAYER));
    let workloads: Vec<&str> = json
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workload list")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    let kinds: Vec<&str> = Kind::ALL.iter().map(|kind| kind.name()).collect();
    assert_eq!(workloads, kinds);
}

#[test]
fn every_workload_passes_its_checks_untraced_and_traced() {
    for kind in Kind::ALL {
        for trace in [false, true] {
            let settings = Settings {
                kind,
                seed: 7,
                seconds: 1.0,
                trace,
                launch: Launch::InProcess,
                out: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("bench-out"),
                cold_starts: 1,
            };
            let outcome = run::run(&settings).expect("the run completes");
            let what = format!("{} (trace {trace})", kind.name());
            assert!(outcome.correct, "{what}: {:#?}", outcome.notes);
            assert_eq!(outcome.failed, 0, "{what}");
            assert!(outcome.attempted > 0, "{what}");

            let table = if trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            let reported: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
            let expected: Vec<&str> = table
                .iter()
                .map(|&(name, _)| name)
                .filter(|&name| name != "latency_p99_us" || outcome.samples >= P99_MIN_SAMPLES)
                .collect();
            assert_eq!(reported, expected, "{what}");
            assert!(
                outcome.metrics.iter().all(|m| m.value.is_finite()),
                "{what}: {:?}",
                outcome.metrics
            );

            if trace {
                let gap = outcome
                    .metrics
                    .iter()
                    .find(|m| m.name == "trace.closure_gap_pct")
                    .expect("traced runs report the closure")
                    .value;
                assert!(
                    gap <= CLOSURE_TOLERANCE_PCT,
                    "{what}: stage self times miss process_batch by {gap:.1} %: {:#?}",
                    outcome.notes
                );
            }
        }
    }
}
