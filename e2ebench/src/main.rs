//! `rbs-e2e` command line: runs one workload (`--workload NAME`) or all
//! five, prints every metric with its unit, and ends with one JSON line.

use std::path::PathBuf;
use std::process::ExitCode;

use rbs_e2e::daemon::Launch;
use rbs_e2e::run::{self, Outcome, Settings};
use rbs_e2e::workload::Kind;

const USAGE: &str = "\
usage: rbs-e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
               [--netd PATH]

Drives rbs-netd in a closed loop (2 connections, 4 requests outstanding
each) and prints end-to-end metrics, or with --trace 1 the per-layer
metrics of an in-process traced replay, whose spans go to
bench-out/TRACE_<workload>.json. Workloads: hit, miss, delta_chain,
sweep, partition (default: all five). The last line of standard output
is a JSON object with correct/attempted/failed/metrics. The exit code
is non-zero if any response or check failed. --netd defaults to the
rbs-netd next to this executable.
";

/// Cold starts per untraced run; their median is `setup_s`.
const COLD_STARTS: usize = 5;

struct Args {
    kinds: Vec<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    netd: Option<PathBuf>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        kinds: Kind::ALL.to_vec(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        netd: None,
    };
    let mut i = 0;
    while i < raw.len() {
        let flag = raw[i].as_str();
        let value = raw.get(i + 1).filter(|v| !v.starts_with("--"));
        let need = || value.ok_or_else(|| format!("{flag} requires a value"));
        match flag {
            "--workload" => {
                let name = need()?;
                args.kinds =
                    vec![Kind::parse(name).ok_or_else(|| format!("unknown workload {name}"))?];
            }
            "--seed" => args.seed = need()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                args.seconds = need()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".to_owned());
                }
            }
            // A bare `--trace` means `--trace 1`.
            "--trace" => {
                args.trace = match value.map(String::as_str) {
                    None | Some("1") => true,
                    Some("0") => false,
                    Some(other) => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--netd" => args.netd = Some(PathBuf::from(need()?)),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1 + usize::from(value.is_some());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("rbs-e2e: {message}");
            }
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let netd = args.netd.clone().unwrap_or_else(|| {
        let exe = std::env::current_exe().unwrap_or_default();
        exe.with_file_name(format!("rbs-netd{}", std::env::consts::EXE_SUFFIX))
    });
    if !netd.is_file() {
        eprintln!(
            "rbs-e2e: no rbs-netd at {} (build it or pass --netd)",
            netd.display()
        );
        return ExitCode::from(2);
    }
    // A single workload prints the metrics its mode asks for; the
    // all-workloads form prints the end-to-end table and, under --trace,
    // the per-layer table after it.
    let single = args.kinds.len() == 1;
    let modes = if !single && args.trace {
        vec![false, true]
    } else {
        vec![args.trace]
    };
    let mut runs = Vec::new();
    for trace in modes {
        for &kind in &args.kinds {
            let settings = Settings {
                kind,
                seed: args.seed,
                seconds: args.seconds,
                trace,
                launch: Launch::Netd(netd.clone()),
                out: PathBuf::from("bench-out"),
                cold_starts: if trace { 1 } else { COLD_STARTS },
            };
            match run::run(&settings) {
                Ok(outcome) => {
                    report(kind, &outcome);
                    runs.push((kind, outcome));
                }
                Err(error) => {
                    eprintln!("rbs-e2e: {} failed: {error}", kind.name());
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    println!("{}", json_line(&runs, single));
    if runs.iter().all(|(_, outcome)| outcome.correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The human-readable table of one run, plus its notes on stderr.
fn report(kind: Kind, outcome: &Outcome) {
    for metric in &outcome.metrics {
        println!(
            "{:<12} {:<28} {:>14.3} {}",
            kind.name(),
            metric.name,
            metric.value,
            metric.unit
        );
    }
    println!(
        "{:<12} {:<28} {:>14} (attempted {}, failed {})",
        kind.name(),
        "latency_samples",
        outcome.samples,
        outcome.attempted,
        outcome.failed
    );
    for note in &outcome.notes {
        eprintln!("rbs-e2e: {}: {note}", kind.name());
    }
}

/// The result line; with several workloads, metric names are prefixed
/// with the workload's.
fn json_line(runs: &[(Kind, Outcome)], single: bool) -> String {
    let metrics: Vec<String> = runs
        .iter()
        .flat_map(|(kind, outcome)| outcome.metrics.iter().map(move |m| (kind, m)))
        .map(|(kind, m)| {
            let name = if single {
                m.name.to_owned()
            } else {
                format!("{}.{}", kind.name(), m.name)
            };
            // A run with a non-finite value has already failed; keep the
            // line valid JSON anyway.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{}\"}}", m.unit)
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        runs.iter().all(|(_, o)| o.correct),
        runs.iter().map(|(_, o)| o.attempted).sum::<u64>(),
        runs.iter().map(|(_, o)| o.failed).sum::<u64>(),
        metrics.join(",")
    )
}
