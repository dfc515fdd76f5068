//! `rbs-svc` binary: JSONL admission control over stdin/files/directories,
//! in one-shot batch mode or as a long-running `--follow` daemon.

use std::io;
use std::process::ExitCode;
use std::time::Duration;

use rbs_svc::{read_source, serve_jsonl, Outcome, Service, ServiceConfig, StreamEnd, WorkerPool};

const USAGE: &str = "\
usage: rbs-svc [INPUT] [--follow] [--jobs N] [--cache-size N] [options]

INPUT is '-' (default: JSON Lines on stdin, one request per line), a
workload file, or a directory containing *.json workloads. A request is
either a task-set document (a JSON array of tasks) or a campaign sweep:

  {\"sweep\":{\"specs\":[...],\"x\":RAT?,\"ys\":[RAT,...],\"speeds\":[RAT,...]}}

where specs are implicit-deadline tasks ({\"name\",\"criticality\",
\"period\",\"wcet_lo\",\"wcet_hi\"}), rationals are {\"num\":N,\"den\":N},
\"x\" is optional (omitted: the minimal density-feasible x is derived),
and the answer is the whole (y, s) grid computed by the incremental
sweep engine — s_min plus the resetting time at every speed, per y —
e.g.:

  {\"sweep\":{\"specs\":[{\"name\":\"t1\",\"criticality\":\"Hi\",\
\"period\":{\"num\":5,\"den\":1},\"wcet_lo\":{\"num\":1,\"den\":1},\
\"wcet_hi\":{\"num\":2,\"den\":1}}],\"ys\":[{\"num\":1,\"den\":1}],\
\"speeds\":[{\"num\":2,\"den\":1}]}}

Every request is answered on stdout with one JSON line:

  {\"seq\":N,\"hash\":\"<canonical hash>\",\"cached\":BOOL,\"report\":{...}}
  {\"seq\":N,\"source\":\"...\",\"cached\":BOOL,\"error\":{\"kind\":\"...\",\"detail\":\"...\"}}

where error kind is one of parse|limits|timeout|panic|oversized|overload
(overload is shed by the rbs-netd front-end, never this binary), and a
summary footer (request counters, error taxonomy, cache hits, walk and
component-reuse counters, latency percentiles) goes to stderr. Sweep
responses report infeasible spec lists as {\"infeasible\":true}. Fresh
analyses carry their walk and component-reuse counters in a \"walks\"
block; cache hits omit it.

modes:
  (default)       batch: read all of INPUT, answer every request, exit
                  non-zero if any request failed
  --follow        daemon: read stdin incrementally, answer each line as it
                  arrives (flushing per line), drain gracefully on EOF and
                  exit zero; per-request failures are reported in-band

options:
  --jobs N               worker threads (default: available parallelism)
  --cache-size N         cached reports across shards (default: 1024; 0 disables)
  --neg-cache-size N     cached failed outcomes (default: 256; 0 disables)
  --timeout-ms N         per-request analysis deadline (default: 0 = none)
  --max-request-bytes N  reject larger request bodies as oversized
                         (default: 0 = unlimited)
  --stats-every N        in --follow mode, print the cumulative footer to
                         stderr every N requests (default: 0 = only at EOF)
  --fault-injection      honor chaos-testing task-name markers
                         (__rbs_fault_panic__, __rbs_fault_sleep_ms_N__,
                         __rbs_fault_splice__, __rbs_fault_repair__)
";

struct Args {
    input: String,
    follow: bool,
    jobs: Option<usize>,
    stats_every: usize,
    config: ServiceConfig,
}

fn parse_args(args: &[String]) -> Result<Option<Args>, String> {
    let mut parsed = Args {
        input: "-".to_owned(),
        follow: false,
        jobs: None,
        stats_every: 0,
        config: ServiceConfig::default(),
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => return Ok(None),
            "--follow" => {
                parsed.follow = true;
                i += 1;
            }
            "--fault-injection" => {
                parsed.config.fault_injection = true;
                i += 1;
            }
            flag @ ("--jobs"
            | "--cache-size"
            | "--neg-cache-size"
            | "--timeout-ms"
            | "--max-request-bytes"
            | "--stats-every") => {
                let Some(value) = args.get(i + 1).and_then(|v| v.parse::<usize>().ok()) else {
                    return Err(format!("{flag} requires a non-negative integer"));
                };
                match flag {
                    "--jobs" => parsed.jobs = Some(value),
                    "--cache-size" => parsed.config.cache_capacity = value,
                    "--neg-cache-size" => parsed.config.negative_cache_capacity = value,
                    "--timeout-ms" => {
                        parsed.config.timeout =
                            (value > 0).then(|| Duration::from_millis(value as u64));
                    }
                    "--max-request-bytes" => {
                        parsed.config.max_request_bytes = (value > 0).then_some(value);
                    }
                    "--stats-every" => parsed.stats_every = value,
                    _ => unreachable!("covered by the outer match"),
                }
                i += 2;
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag: {other}"));
            }
            other => {
                parsed.input = other.to_owned();
                i += 1;
            }
        }
    }
    Ok(Some(parsed))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("{message}");
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let pool = match args.jobs {
        Some(n) => WorkerPool::new(n),
        None => WorkerPool::with_available_parallelism(),
    };
    let service = Service::with_config(pool, args.config);
    if args.follow {
        run_follow(&service, args.stats_every)
    } else {
        run_batch(&service, &args.input)
    }
}

/// One-shot mode: read everything, answer everything, exit non-zero if
/// any request failed.
fn run_batch(service: &Service, input: &str) -> ExitCode {
    let requests = match read_source(input) {
        Ok(requests) => requests,
        Err(error) => {
            eprintln!("cannot read {input}: {error}");
            return ExitCode::FAILURE;
        }
    };
    let (responses, stats) = service.process_batch(&requests);
    let mut failed = false;
    for response in &responses {
        println!("{}", response.render());
        failed |= matches!(response.outcome, Outcome::Error { .. });
    }
    eprintln!("{}", stats.footer(service.jobs()));
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Daemon mode: answer each stdin line as it arrives, flushing per line;
/// keep cumulative stats, print the footer periodically and at EOF, then
/// drain gracefully. Per-request failures are reported in-band, so a
/// clean drain exits zero; only transport failures (stdout gone) don't.
/// The protocol itself lives in [`serve_jsonl`], shared with the network
/// front-end's differential suite.
fn run_follow(service: &Service, stats_every: usize) -> ExitCode {
    let stdin = io::stdin();
    let mut reader = stdin.lock();
    let stdout = io::stdout();
    let mut writer = stdout.lock();
    let jobs = service.jobs();
    let outcome = serve_jsonl(
        service,
        &mut reader,
        &mut writer,
        "stdin",
        stats_every,
        |stats| eprintln!("{}", stats.footer(jobs)),
    );
    if let Some(StreamEnd::Read(error)) = &outcome.end {
        eprintln!("rbs-svc: stdin read error: {error}");
    }
    eprintln!("{}", outcome.stats.footer(jobs));
    match outcome.end {
        // Reader went away (broken pipe): only transport failures on the
        // response side fail the daemon.
        Some(StreamEnd::Write(_)) => ExitCode::FAILURE,
        _ => ExitCode::SUCCESS,
    }
}
