//! Fault-injection suite: a panicking, a timed-out, and an oversized
//! request must each be classified by the error taxonomy while every
//! other request in the batch is still served, in submission order,
//! bit-identically for any worker count.

use std::time::Duration;

use rbs_core::AnalysisLimits;
use rbs_svc::{
    Outcome, Request, Service, ServiceConfig, SvcErrorKind, WorkerPool, FAULT_PANIC_TASK,
    FAULT_REPAIR_TASK, FAULT_SLEEP_PREFIX, FAULT_SPLICE_TASK,
};

/// One LO task as a JSON object; distinct periods make distinct sets.
fn lo_task(name: &str, period: i128, wcet: i128) -> String {
    format!(
        "{{\"name\":\"{name}\",\"criticality\":\"Lo\",\
         \"lo\":{{\"period\":{{\"num\":{period},\"den\":1}},\
         \"deadline\":{{\"num\":{period},\"den\":1}},\
         \"wcet\":{{\"num\":{wcet},\"den\":1}}}},\
         \"hi\":{{\"Continue\":{{\"period\":{{\"num\":{period},\"den\":1}},\
         \"deadline\":{{\"num\":{period},\"den\":1}},\
         \"wcet\":{{\"num\":{wcet},\"den\":1}}}}}}}}"
    )
}

fn request(label: &str, tasks: &[String]) -> Request {
    Request {
        label: label.to_owned(),
        body: format!("[{}]", tasks.join(",")),
    }
}

fn good(label: &str, period: i128) -> Request {
    request(label, &[lo_task("worker", period, 1)])
}

fn panicking(label: &str) -> Request {
    request(label, &[lo_task(FAULT_PANIC_TASK, 7, 1)])
}

fn sleepy(label: &str, ms: u64) -> Request {
    request(
        label,
        &[lo_task(&format!("{FAULT_SLEEP_PREFIX}{ms}__"), 11, 1)],
    )
}

fn chaos_config() -> ServiceConfig {
    ServiceConfig {
        fault_injection: true,
        timeout: Some(Duration::from_millis(5)),
        max_request_bytes: Some(2048),
        ..ServiceConfig::default()
    }
}

fn kind(outcome: &Outcome) -> Option<SvcErrorKind> {
    outcome.error().map(|e| e.kind)
}

#[test]
fn a_panicking_request_is_contained_and_classified() {
    let svc = Service::with_config(WorkerPool::new(4), chaos_config());
    let batch = vec![good("a", 5), panicking("boom"), good("b", 9)];
    let (responses, stats) = svc.process_batch(&batch);
    assert_eq!(responses.len(), 3);
    assert!(matches!(responses[0].outcome, Outcome::Report { .. }));
    assert_eq!(kind(&responses[1].outcome), Some(SvcErrorKind::Panic));
    assert!(matches!(responses[2].outcome, Outcome::Report { .. }));
    assert_eq!(stats.ok, 2);
    assert_eq!(stats.errors.panic, 1);
    assert_eq!(stats.errors.total(), 1);
    let detail = &responses[1].outcome.error().expect("error").detail;
    assert!(detail.contains("injected fault"), "{detail}");
}

#[test]
fn a_timed_out_request_is_classified_and_others_served() {
    // The sleep marker burns the whole 5 ms deadline before the walk
    // starts; the first cooperative check then fires deterministically.
    let svc = Service::with_config(WorkerPool::new(4), chaos_config());
    let batch = vec![good("a", 5), sleepy("slow", 50), good("b", 9)];
    let (responses, stats) = svc.process_batch(&batch);
    assert_eq!(kind(&responses[1].outcome), Some(SvcErrorKind::Timeout));
    assert!(matches!(responses[0].outcome, Outcome::Report { .. }));
    assert!(matches!(responses[2].outcome, Outcome::Report { .. }));
    assert_eq!(stats.errors.timeout, 1);
    assert_eq!(stats.ok, 2);
    let detail = &responses[1].outcome.error().expect("error").detail;
    assert!(detail.contains("deadline"), "{detail}");
}

#[test]
fn an_oversized_request_is_rejected_before_parsing() {
    let svc = Service::with_config(WorkerPool::new(2), chaos_config());
    let huge = Request {
        label: "huge".to_owned(),
        // Not even valid JSON — the guard must fire before the parser.
        body: "x".repeat(4096),
    };
    let (responses, stats) = svc.process_batch(&[good("a", 5), huge]);
    assert!(matches!(responses[0].outcome, Outcome::Report { .. }));
    assert_eq!(kind(&responses[1].outcome), Some(SvcErrorKind::Oversized));
    assert_eq!(stats.errors.oversized, 1);
    let detail = &responses[1].outcome.error().expect("error").detail;
    assert!(detail.contains("4096"), "{detail}");
    assert!(detail.contains("2048"), "{detail}");
}

#[test]
fn a_mixed_poison_batch_is_bit_identical_for_any_worker_count() {
    let batch = vec![
        good("g1", 5),
        panicking("boom"),
        good("g2", 9),
        sleepy("slow", 50),
        Request {
            label: "bad-json".to_owned(),
            body: "{\"not\": \"a task set\"}".to_owned(),
        },
        Request {
            label: "huge".to_owned(),
            body: "y".repeat(4096),
        },
        good("g3", 13),
    ];
    let run = |jobs: usize| -> (Vec<String>, rbs_svc::BatchStats) {
        // A fresh service per run: shared caches would otherwise make the
        // second run's `cached` flags differ.
        let svc = Service::with_config(WorkerPool::new(jobs), chaos_config());
        let (responses, stats) = svc.process_batch(&batch);
        let lines = responses
            .into_iter()
            .map(|mut response| {
                response.micros = 0; // the only non-deterministic field
                response.render()
            })
            .collect();
        (lines, stats)
    };
    let (lines1, stats1) = run(1);
    let (lines8, stats8) = run(8);
    assert_eq!(lines1, lines8, "responses must not depend on --jobs");
    assert_eq!(stats1.ok, 3);
    assert_eq!(stats1.errors.panic, 1);
    assert_eq!(stats1.errors.timeout, 1);
    assert_eq!(stats1.errors.parse, 1);
    assert_eq!(stats1.errors.oversized, 1);
    assert_eq!(stats1.errors.total(), 4);
    assert_eq!(stats8.errors, stats1.errors);
    // Submission order is preserved: seq fields count up.
    for (seq, line) in lines1.iter().enumerate() {
        assert!(line.starts_with(&format!("{{\"seq\":{seq},")), "{line}");
    }
    // Each failure is classified in the rendered JSONL too.
    assert!(lines1[1].contains("\"kind\":\"panic\""), "{}", lines1[1]);
    assert!(lines1[3].contains("\"kind\":\"timeout\""), "{}", lines1[3]);
    assert!(lines1[4].contains("\"kind\":\"parse\""), "{}", lines1[4]);
    assert!(
        lines1[5].contains("\"kind\":\"oversized\""),
        "{}",
        lines1[5]
    );
}

/// A sweep request whose spec names carry a fault-injection marker.
fn sweep_request(label: &str, marker_name: &str) -> Request {
    Request {
        label: label.to_owned(),
        body: format!(
            "{{\"sweep\":{{\"specs\":[\
             {{\"name\":\"{marker_name}\",\"criticality\":\"Hi\",\
             \"period\":{{\"num\":5,\"den\":1}},\
             \"wcet_lo\":{{\"num\":1,\"den\":1}},\
             \"wcet_hi\":{{\"num\":2,\"den\":1}}}}],\
             \"ys\":[{{\"num\":1,\"den\":1}},{{\"num\":2,\"den\":1}}],\
             \"speeds\":[{{\"num\":2,\"den\":1}}]}}}}"
        ),
    }
}

#[test]
fn poisoned_sweep_requests_share_the_error_taxonomy() {
    // The chaos markers live in spec names for sweeps, so the same
    // containment (panic, deadline) must classify a poisoned sweep while
    // a healthy sweep in the same batch is still served.
    let svc = Service::with_config(WorkerPool::new(4), chaos_config());
    let batch = vec![
        sweep_request("ok", "tau1"),
        sweep_request("boom", FAULT_PANIC_TASK),
        sweep_request("slow", &format!("{FAULT_SLEEP_PREFIX}50__")),
        good("plain", 5),
    ];
    let (responses, stats) = svc.process_batch(&batch);
    assert!(matches!(responses[0].outcome, Outcome::Report { .. }));
    assert_eq!(kind(&responses[1].outcome), Some(SvcErrorKind::Panic));
    assert_eq!(kind(&responses[2].outcome), Some(SvcErrorKind::Timeout));
    assert!(matches!(responses[3].outcome, Outcome::Report { .. }));
    assert_eq!(stats.ok, 2);
    assert_eq!(stats.errors.panic, 1);
    assert_eq!(stats.errors.timeout, 1);
    // The healthy sweep reports the incremental engine's reuse counters.
    assert!(stats.walks.reused_components > 0, "{stats:?}");
    assert!(stats.walks.rebuilt_components > 0, "{stats:?}");
    // Poisoned sweeps are negative-cached like poisoned task sets.
    let (again, stats) = svc.process_batch(&[sweep_request("boom", FAULT_PANIC_TASK)]);
    assert_eq!(stats.analyzed, 0);
    assert_eq!(stats.negative_hits, 1);
    assert_eq!(kind(&again[0].outcome), Some(SvcErrorKind::Panic));
}

#[test]
fn failed_analyses_are_negative_cached() {
    // A zero breakpoint budget fails every analysis deterministically.
    let svc = Service::with_config(
        WorkerPool::new(2),
        ServiceConfig {
            limits: AnalysisLimits::new(0),
            ..ServiceConfig::default()
        },
    );
    let batch = vec![good("a", 5)];
    let (first, stats) = svc.process_batch(&batch);
    assert_eq!(stats.analyzed, 1);
    assert_eq!(stats.errors.limits, 1);
    let Outcome::Error { error, cached } = &first[0].outcome else {
        panic!("expected a limits error");
    };
    assert!(!cached);
    // Resubmission: answered from the negative cache, nothing re-analyzed.
    let (second, stats) = svc.process_batch(&batch);
    assert_eq!(stats.analyzed, 0, "poison pill must not re-run");
    assert_eq!(stats.negative_hits, 1);
    assert_eq!(stats.errors.limits, 1);
    let Outcome::Error {
        error: again,
        cached,
    } = &second[0].outcome
    else {
        panic!("expected the cached error");
    };
    assert!(cached, "second failure must come from the negative cache");
    assert_eq!(again, error);
    assert!(second[0].render().contains("\"cached\":true"));
}

#[test]
fn panics_are_negative_cached_too() {
    let svc = Service::with_config(WorkerPool::new(2), chaos_config());
    let batch = vec![panicking("boom")];
    let (_, stats) = svc.process_batch(&batch);
    assert_eq!(stats.analyzed, 1);
    assert_eq!(stats.errors.panic, 1);
    let (responses, stats) = svc.process_batch(&batch);
    assert_eq!(stats.analyzed, 0);
    assert_eq!(stats.negative_hits, 1);
    assert_eq!(kind(&responses[0].outcome), Some(SvcErrorKind::Panic));
}

#[test]
fn a_zero_capacity_negative_cache_disables_negative_caching() {
    let svc = Service::with_config(
        WorkerPool::new(1),
        ServiceConfig {
            limits: AnalysisLimits::new(0),
            negative_cache_capacity: 0,
            ..ServiceConfig::default()
        },
    );
    let batch = vec![good("a", 5)];
    let _ = svc.process_batch(&batch);
    let (_, stats) = svc.process_batch(&batch);
    assert_eq!(stats.analyzed, 1, "disabled cache must re-run");
    assert_eq!(stats.negative_hits, 0);
}

#[test]
fn coalesced_duplicates_are_marked_and_charged_once() {
    let svc = Service::with_config(WorkerPool::new(4), ServiceConfig::default());
    let batch = vec![good("a", 5), good("b", 5), good("c", 5), good("d", 9)];
    let (responses, stats) = svc.process_batch(&batch);
    assert_eq!(stats.analyzed, 2, "three duplicates coalesce onto one job");
    assert_eq!(stats.coalesced, 2);
    assert_eq!(stats.ok, 4);
    let coalesced_flags: Vec<bool> = responses
        .iter()
        .map(|r| match &r.outcome {
            Outcome::Report { coalesced, .. } => *coalesced,
            Outcome::Error { .. } => panic!("expected reports"),
        })
        .collect();
    assert_eq!(coalesced_flags, vec![false, true, true, false]);
    // Rendered lines advertise coalescing (and never claim a cache hit).
    assert!(!responses[0].render().contains("\"coalesced\""));
    assert!(responses[1].render().contains("\"coalesced\":true"));
    assert!(responses[1].render().contains("\"cached\":false"));
    // All three duplicates share the identical report bytes.
    let reports: Vec<&str> = responses[..3]
        .iter()
        .map(|r| match &r.outcome {
            Outcome::Report { report_json, .. } => report_json.as_ref(),
            Outcome::Error { .. } => unreachable!(),
        })
        .collect();
    assert_eq!(reports[0], reports[1]);
    assert_eq!(reports[1], reports[2]);
}

/// A fleet-partitioning request over the given task objects.
fn partition_request(label: &str, tasks: &[String], cores: usize) -> Request {
    Request {
        label: label.to_owned(),
        body: format!(
            "{{\"partition\":{{\"tasks\":[{}],\"cores\":{cores},\
             \"max_speedup\":{{\"num\":2,\"den\":1}}}}}}",
            tasks.join(",")
        ),
    }
}

fn report_of(outcome: &Outcome) -> &str {
    match outcome {
        Outcome::Report { report_json, .. } => report_json.as_ref(),
        Outcome::Error { error, .. } => panic!("expected a report, got {error:?}"),
    }
}

#[test]
fn partition_requests_are_served_poisoned_and_cached() {
    let svc = Service::with_config(WorkerPool::new(4), chaos_config());
    let fit = partition_request("fit", &[lo_task("a", 5, 1), lo_task("b", 7, 1)], 2);
    let batch = vec![
        fit.clone(),
        partition_request("boom", &[lo_task(FAULT_PANIC_TASK, 7, 1)], 1),
        // Three half-utilization tasks cannot share one core: the fleet
        // must shed (a healthy report naming the task), not error.
        partition_request(
            "shed",
            &[lo_task("x", 2, 1), lo_task("y", 2, 1), lo_task("z", 2, 1)],
            1,
        ),
    ];
    let (responses, stats) = svc.process_batch(&batch);
    let placed = report_of(&responses[0].outcome);
    assert!(placed.contains("\"fits\":true"), "{placed}");
    assert!(placed.contains("\"s_min\""), "{placed}");
    assert_eq!(kind(&responses[1].outcome), Some(SvcErrorKind::Panic));
    let shed = report_of(&responses[2].outcome);
    assert!(shed.contains("\"fits\":false"), "{shed}");
    assert!(shed.contains("\"unplaced\""), "{shed}");
    assert_eq!(stats.ok, 2);
    assert_eq!(stats.errors.panic, 1);
    // The placement ran real walks, surfaced through the footer counters.
    assert!(stats.walks.integer + stats.walks.exact > 0, "{stats:?}");
    // Resubmission answers from the result cache without re-partitioning.
    let (again, stats) = svc.process_batch(&[fit]);
    assert_eq!(stats.analyzed, 0);
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(report_of(&again[0].outcome), placed);
}

#[test]
fn a_mid_splice_delta_fault_is_contained() {
    let svc = Service::with_config(WorkerPool::new(2), chaos_config());
    let poisoned = Request {
        label: "splice".to_owned(),
        body: format!(
            "{{\"delta\":{{\"base\":[{}],\"ops\":[{{\"admit\":{}}}]}}}}",
            lo_task("w", 5, 1),
            lo_task(FAULT_SPLICE_TASK, 7, 1)
        ),
    };
    let (responses, stats) = svc.process_batch(&[poisoned, good("after", 9)]);
    assert_eq!(kind(&responses[0].outcome), Some(SvcErrorKind::Panic));
    let detail = &responses[0].outcome.error().expect("error").detail;
    assert!(detail.contains("mid-splice"), "{detail}");
    // The worker that unwound mid-splice still serves the next request.
    assert!(matches!(responses[1].outcome, Outcome::Report { .. }));
    assert_eq!(stats.ok, 1);
    assert_eq!(stats.errors.panic, 1);
}

#[test]
fn a_mid_repair_delta_fault_is_contained() {
    let svc = Service::with_config(WorkerPool::new(2), chaos_config());
    let poisoned = Request {
        label: "repair".to_owned(),
        body: format!(
            "{{\"delta\":{{\"base\":[{}],\"ops\":[{{\"admit\":{}}}]}}}}",
            lo_task("w", 5, 1),
            lo_task(FAULT_REPAIR_TASK, 7, 1)
        ),
    };
    let (responses, stats) = svc.process_batch(&[poisoned, good("after", 9)]);
    assert_eq!(kind(&responses[0].outcome), Some(SvcErrorKind::Panic));
    let detail = &responses[0].outcome.error().expect("error").detail;
    assert!(detail.contains("mid-repair"), "{detail}");
    // The worker that unwound inside frontier repair still serves the
    // next request.
    assert!(matches!(responses[1].outcome, Outcome::Report { .. }));
    assert_eq!(stats.ok, 1);
    assert_eq!(stats.errors.panic, 1);
}

#[test]
fn duplicate_heavy_batches_charge_the_analysis_time_once() {
    // 32 copies of one heavy-ish set: if every duplicate were charged the
    // full analysis time (the old bug), the latency sum would be ~32x the
    // analyzed time. Charging once keeps duplicate latencies at their
    // parse-only share, so the maximum latency dominates the sum.
    let svc = Service::with_config(WorkerPool::new(4), ServiceConfig::default());
    let tasks: Vec<String> = (0..12)
        .map(|i| lo_task(&format!("t{i}"), 97 + i128::from(i) * 2, 1))
        .collect();
    let batch: Vec<Request> = (0..32).map(|_| request("dup", &tasks)).collect();
    let (responses, stats) = svc.process_batch(&batch);
    assert_eq!(stats.analyzed, 1);
    assert_eq!(stats.coalesced, 31);
    let latencies = &stats.latencies_micros;
    let max = *latencies.iter().max().expect("non-empty");
    let sum: u64 = latencies.iter().sum();
    // The single charged response holds the analysis share; the other 31
    // parse-only latencies cannot add up to more than that again.
    assert!(
        sum <= max.saturating_mul(2),
        "duplicates appear to be double-charged: sum={sum} max={max} latencies={latencies:?}"
    );
    assert_eq!(responses.len(), 32);
}
