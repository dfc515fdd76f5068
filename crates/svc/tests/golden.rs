//! Golden tests: the service must answer with exactly the bytes a direct
//! `rbs_core::analyze` call renders, and resubmissions must be cache hits
//! with the identical report.

use rbs_core::{analyze, AnalysisLimits, WalkCounts};
use rbs_model::TaskSet;
use rbs_svc::{read_source, Outcome, Request, Service, WorkerPool};

fn workloads_dir() -> String {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/workloads").to_owned()
}

fn service(jobs: usize) -> Service {
    Service::new(WorkerPool::new(jobs), 64, AnalysisLimits::default())
}

/// The invariants every set of walk counters keeps.
fn assert_counts_consistent(w: WalkCounts) {
    assert!(w.pruned <= w.integer + w.exact, "{w:?}");
    assert!(w.lockstep <= w.integer, "{w:?}");
    assert!(w.kept == 0 || w.repaired > 0, "{w:?}");
}

#[test]
fn responses_match_direct_analyze_bytes_for_every_workload() {
    let requests = read_source(&workloads_dir()).expect("workloads readable");
    assert_eq!(requests.len(), 3, "expected the three shipped workloads");
    let svc = service(4);
    let (responses, stats) = svc.process_batch(&requests);
    assert_eq!(stats.ok, requests.len());
    assert_eq!(stats.errors.total(), 0);
    assert_eq!(stats.cache_hits, 0);
    assert_eq!(stats.analyzed, requests.len());
    for (request, response) in requests.iter().zip(&responses) {
        let Outcome::Report {
            cached,
            report_json,
            ..
        } = &response.outcome
        else {
            panic!("{}: expected a report, got {:?}", request.label, response);
        };
        assert!(!cached);
        let set: TaskSet = rbs_json::from_str(&request.body).expect("workload parses");
        let direct = analyze(set, &AnalysisLimits::default()).expect("analysis completes");
        assert_eq!(
            report_json.as_ref(),
            rbs_json::to_string(&direct),
            "{}: service bytes differ from direct analyze()",
            request.label
        );
    }
}

#[test]
fn resubmission_is_a_cache_hit_with_the_identical_report() {
    let requests = read_source(&workloads_dir()).expect("workloads readable");
    let svc = service(2);
    let (first, _) = svc.process_batch(&requests);
    let (second, stats) = svc.process_batch(&requests);
    assert_eq!(stats.cache_hits, requests.len());
    assert_eq!(stats.analyzed, 0);
    for (a, b) in first.iter().zip(&second) {
        let (
            Outcome::Report {
                hash: ha,
                report_json: ra,
                ..
            },
            Outcome::Report {
                hash: hb,
                cached,
                report_json: rb,
                ..
            },
        ) = (&a.outcome, &b.outcome)
        else {
            panic!("expected reports");
        };
        assert!(cached, "second submission must be served from the cache");
        assert_eq!(ha, hb);
        assert_eq!(ra, rb, "cached report differs from the computed one");
    }
}

#[test]
fn task_order_does_not_defeat_the_cache() {
    let requests = read_source(&workloads_dir()).expect("workloads readable");
    let svc = service(2);
    let _ = svc.process_batch(&requests);
    // Reverse every set's task order; the canonical form must still hit.
    let reversed: Vec<Request> = requests
        .iter()
        .map(|r| {
            let set: TaskSet = rbs_json::from_str(&r.body).expect("parses");
            let mut tasks: Vec<_> = set.iter().cloned().collect();
            tasks.reverse();
            Request {
                label: format!("{} (reversed)", r.label),
                body: rbs_json::to_string(&TaskSet::new(tasks)),
            }
        })
        .collect();
    let (responses, stats) = svc.process_batch(&reversed);
    assert_eq!(stats.cache_hits, reversed.len());
    for response in &responses {
        assert!(matches!(
            &response.outcome,
            Outcome::Report { cached: true, .. }
        ));
    }
}

#[test]
fn duplicate_lines_in_one_batch_are_coalesced() {
    let requests = read_source(&workloads_dir()).expect("workloads readable");
    let doubled: Vec<Request> = requests.iter().chain(&requests).cloned().collect();
    let svc = service(4);
    let (responses, stats) = svc.process_batch(&doubled);
    assert_eq!(stats.served, doubled.len());
    assert_eq!(stats.analyzed, requests.len(), "duplicates must coalesce");
    for (a, b) in responses[..requests.len()]
        .iter()
        .zip(&responses[requests.len()..])
    {
        let (
            Outcome::Report {
                report_json: ra, ..
            },
            Outcome::Report {
                report_json: rb, ..
            },
        ) = (&a.outcome, &b.outcome)
        else {
            panic!("expected reports");
        };
        assert_eq!(ra, rb);
    }
}

#[test]
fn worker_count_never_changes_the_rendered_responses() {
    let requests = read_source(&workloads_dir()).expect("workloads readable");
    let render = |jobs: usize| -> Vec<String> {
        let (responses, _) = service(jobs).process_batch(&requests);
        responses
            .into_iter()
            .map(|mut response| {
                // `micros` is wall-clock — the one deliberately
                // non-deterministic field. Everything else must match.
                response.micros = 0;
                response.render()
            })
            .collect()
    };
    assert_eq!(render(1), render(8));
}

#[test]
fn walk_counters_are_reported_and_deterministic() {
    let requests = read_source(&workloads_dir()).expect("workloads readable");
    let svc = service(2);
    let (first, stats) = svc.process_batch(&requests);
    let mut total = (0u64, 0u64);
    for response in &first {
        let Outcome::Report { walks, .. } = &response.outcome else {
            panic!("expected a report");
        };
        let meta = walks.expect("fresh analyses must carry walk stats");
        assert!(
            meta.integer_walks > 0,
            "integer-timebase workloads must use the fast path"
        );
        total.0 += meta.integer_walks;
        total.1 += meta.exact_walks;
        assert_counts_consistent(meta.into());
        let line = response.render();
        assert!(line.contains("\"walks\":{\"integer\":"), "{line}");
        assert!(line.contains("\"micros\":"), "{line}");
    }
    assert_eq!((stats.walks.integer, stats.walks.exact), total);
    assert_counts_consistent(stats.walks);
    // Cache hits carry no walk stats (no analysis ran) ...
    let (second, stats) = svc.process_batch(&requests);
    assert_eq!((stats.walks.integer, stats.walks.exact), (0, 0));
    for response in &second {
        let Outcome::Report { walks, .. } = &response.outcome else {
            panic!("expected a report");
        };
        assert_eq!(*walks, None);
        assert!(!response.render().contains("\"walks\""));
    }
    // ... and re-analyzing from scratch reproduces the exact counts.
    let (_, again) = service(1).process_batch(&requests);
    assert_eq!((again.walks.integer, again.walks.exact), total);
}

#[test]
fn malformed_lines_get_error_responses_without_poisoning_the_batch() {
    let mut requests = read_source(&workloads_dir()).expect("workloads readable");
    requests.insert(
        1,
        Request {
            label: "stdin:2".to_owned(),
            body: "{\"not\": \"a task set\"}".to_owned(),
        },
    );
    let svc = service(2);
    let (responses, stats) = svc.process_batch(&requests);
    assert_eq!(stats.errors.total(), 1);
    assert_eq!(stats.errors.parse, 1);
    assert_eq!(stats.ok, requests.len() - 1);
    let line = responses[1].render();
    assert!(line.contains("\"error\":"), "{line}");
    assert!(line.contains("stdin:2"), "{line}");
}
