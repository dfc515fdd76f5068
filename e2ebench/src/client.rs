//! The closed-loop client: one thread per connection keeps each lane's
//! requests outstanding, answers every response with the lane's next
//! request, and checks every response as it arrives.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rbs_rng::Rng;

use crate::workload::{Lane, Req};

/// The walk counters of a response's `walks` block, in wire order.
pub const WALK_FIELDS: [&str; 11] = [
    "integer", "exact", "pruned", "avoided", "reused", "rebuilt", "lockstep", "patched",
    "repaired", "kept", "rewalked",
];

/// Walk counters indexed like [`WALK_FIELDS`].
pub type Walks = [u64; 11];

/// Longest wait for a response line.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// Failure messages kept per connection; the rest are only counted.
const MAX_MESSAGES: usize = 8;

/// The deterministic header of one success line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Parsed<'a> {
    /// Per-connection sequence number.
    pub seq: u64,
    /// Canonical hash of the request.
    pub hash: &'a str,
    /// Whether the report came from the cache.
    pub cached: bool,
    /// Whether the report rode on another in-batch submission.
    pub coalesced: bool,
    /// Service time the daemon charged, in microseconds.
    pub micros: u64,
    /// Walk counters, present when the request was analyzed.
    pub walks: Option<Walks>,
}

/// Parses a response line, or says why it is not a success line.
///
/// # Errors
///
/// An error line, or a line that breaks the response format.
pub fn parse_response(line: &str) -> Result<Parsed<'_>, String> {
    let line = line.trim_end();
    let bad = || format!("malformed response: {}", clip(line));
    let rest = line.strip_prefix("{\"seq\":").ok_or_else(bad)?;
    let (seq, rest) = number(rest).ok_or_else(bad)?;
    let Some(rest) = rest.strip_prefix(",\"hash\":\"") else {
        return Err(format!("error response: {}", clip(line)));
    };
    let (hash, rest) = rest.split_once('"').ok_or_else(bad)?;
    let rest = rest.strip_prefix(",\"cached\":").ok_or_else(bad)?;
    let (cached, rest) = match rest.strip_prefix("true") {
        Some(rest) => (true, rest),
        None => (false, rest.strip_prefix("false").ok_or_else(bad)?),
    };
    let (coalesced, rest) = match rest.strip_prefix(",\"coalesced\":true") {
        Some(rest) => (true, rest),
        None => (false, rest),
    };
    let rest = rest.strip_prefix(",\"micros\":").ok_or_else(bad)?;
    let (micros, mut rest) = number(rest).ok_or_else(bad)?;
    let mut walks = None;
    if let Some(mut block) = rest.strip_prefix(",\"walks\":{") {
        let mut counts = [0; 11];
        for (i, field) in WALK_FIELDS.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            block = block
                .strip_prefix(sep)
                .and_then(|b| b.strip_prefix('"'))
                .and_then(|b| b.strip_prefix(field))
                .and_then(|b| b.strip_prefix("\":"))
                .ok_or_else(bad)?;
            let (value, after) = number(block).ok_or_else(bad)?;
            counts[i] = value;
            block = after;
        }
        rest = block.strip_prefix('}').ok_or_else(bad)?;
        walks = Some(counts);
    }
    if !rest.starts_with(",\"report\":") || !rest.ends_with('}') {
        return Err(bad());
    }
    Ok(Parsed {
        seq,
        hash,
        cached,
        coalesced,
        micros,
        walks,
    })
}

/// The response line without its two volatile fields, `seq` (which
/// connection-local counter answered) and `micros` (wall clock).
#[must_use]
pub fn strip_volatile(line: &str) -> String {
    let line = line.trim_end();
    let Some(rest) = line.strip_prefix("{\"seq\":") else {
        return line.to_owned();
    };
    let rest = rest.trim_start_matches(|c: char| c.is_ascii_digit());
    let rest = rest.strip_prefix(',').unwrap_or(rest);
    let Some(at) = rest.find(",\"micros\":") else {
        return format!("{{{rest}");
    };
    let tail = rest[at + ",\"micros\":".len()..].trim_start_matches(|c: char| c.is_ascii_digit());
    format!("{{{}{tail}", &rest[..at])
}

fn number(text: &str) -> Option<(u64, &str)> {
    let end = text
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(text.len());
    Some((text[..end].parse().ok()?, &text[end..]))
}

fn clip(line: &str) -> &str {
    let mut end = line.len().min(160);
    while !line.is_char_boundary(end) {
        end -= 1;
    }
    &line[..end]
}

/// What happens to responses received before a phase boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Unmeasured: lets caches, arenas and the allocator settle.
    Warmup,
    /// Measured with tracing off.
    Measure,
    /// Measured while the client records a span per round trip.
    Traced,
}

/// Consecutive phases: phase `i` ends at `phases[i].0`; after the last
/// one the client stops sending and drains what is outstanding.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Phase ends, in order.
    pub phases: Vec<(Instant, Phase)>,
}

/// Responses received during one phase.
#[derive(Debug, Default, Clone)]
pub struct PhaseStats {
    /// Round trips, write to read, in nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// Round trip minus the daemon's `micros`, in nanoseconds.
    pub overheads_ns: Vec<i64>,
    /// Success responses.
    pub ok: u64,
    /// Response bytes, newlines included.
    pub bytes: u64,
}

/// A response kept for a later byte-for-byte comparison.
#[derive(Debug, Clone)]
pub struct Kept {
    /// The request.
    pub req: Arc<Req>,
    /// The lane that sent it.
    pub lane: usize,
    /// How many requests that lane sent before it.
    pub pos: usize,
    /// The response line.
    pub line: String,
}

/// Response checks of one connection.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    /// Requests sent.
    pub attempted: u64,
    /// Responses that failed a check, plus requests never answered.
    pub failed: u64,
    /// The first few failure messages.
    pub messages: Vec<String>,
    /// Sum of the `walks` blocks of analyzed, non-coalesced responses.
    pub walks: Walks,
    /// Responses that carried a `walks` block without riding on another
    /// submission's analysis.
    pub analyzed: u64,
}

impl Checks {
    /// Records one failure.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < MAX_MESSAGES {
            self.messages.push(message);
        }
    }

    /// Folds another connection's checks into these.
    pub fn absorb(&mut self, other: &Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.analyzed += other.analyzed;
        for (total, part) in self.walks.iter_mut().zip(other.walks) {
            *total += part;
        }
        for message in &other.messages {
            if self.messages.len() < MAX_MESSAGES {
                self.messages.push(message.clone());
            }
        }
    }
}

/// Everything one connection observed.
#[derive(Debug, Default)]
pub struct ConnReport {
    /// Per-phase measurements, indexed like [`Schedule::phases`].
    pub phases: Vec<PhaseStats>,
    /// Response checks.
    pub checks: Checks,
    /// A seeded reservoir sample of responses.
    pub sample: Vec<Kept>,
    /// The responses to each lane's first requests, in arrival order.
    pub first: Vec<Kept>,
    /// Requests each lane sent.
    pub sent: Vec<usize>,
    /// Every delta each lane sent, in order: the chain history an
    /// in-process reference needs to rebuild a delta's base.
    pub deltas: Vec<Vec<Arc<Req>>>,
    /// Round trips of the traced phase: start and end, in nanoseconds
    /// since the run's epoch.
    pub spans: Vec<(u64, u64)>,
}

/// What a connection keeps beyond its measurements.
#[derive(Debug, Clone, Copy)]
pub struct Keep {
    /// Responses to sample (seeded reservoir).
    pub sample: usize,
    /// Responses to keep from the start of each lane.
    pub first: usize,
    /// Seed of the reservoir.
    pub seed: u64,
    /// Whether responses must come from the cache.
    pub cached: bool,
}

/// One open connection.
#[derive(Debug)]
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// Sequence number the daemon gives the next request.
    next_seq: u64,
}

impl Conn {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        // A daemon that stops answering fails the run instead of hanging it.
        writer.set_read_timeout(Some(READ_TIMEOUT))?;
        let reader = BufReader::with_capacity(1 << 18, writer.try_clone()?);
        Ok(Conn {
            writer,
            reader,
            next_seq: 0,
        })
    }

    /// Runs `lanes` through this connection in a closed loop until the
    /// schedule ends (or, for fixed lanes, until they run out), then
    /// drains what is outstanding.
    ///
    /// # Errors
    ///
    /// Propagates socket failures.
    pub fn drive(
        &mut self,
        lanes: &mut [Lane],
        schedule: &Schedule,
        epoch: Instant,
        keep: Keep,
    ) -> io::Result<ConnReport> {
        struct InFlight {
            seq: u64,
            lane: usize,
            pos: usize,
            req: Arc<Req>,
            sent: Instant,
        }
        let mut report = ConnReport {
            phases: vec![PhaseStats::default(); schedule.phases.len()],
            sent: vec![0; lanes.len()],
            deltas: vec![Vec::new(); lanes.len()],
            ..ConnReport::default()
        };
        let end = schedule.phases.last().map(|&(end, _)| end);
        let mut rng = Rng::seed_from_u64(keep.seed);
        let mut received = 0u64;
        let mut outstanding = vec![0usize; lanes.len()];
        let mut inflight: VecDeque<InFlight> = VecDeque::new();
        let mut line = String::new();
        let mut sending = true;
        let mut refill: Vec<usize> = (0..lanes.len()).collect();
        loop {
            if sending {
                for lane in refill.drain(..) {
                    while outstanding[lane] < lanes[lane].depth {
                        let Some(req) = lanes[lane].next_request() else {
                            break;
                        };
                        let sent = Instant::now();
                        self.writer.write_all(req.line.as_bytes())?;
                        inflight.push_back(InFlight {
                            seq: self.next_seq,
                            lane,
                            pos: report.sent[lane],
                            req: Arc::clone(&req),
                            sent,
                        });
                        report.sent[lane] += 1;
                        if req.delta.is_some() {
                            report.deltas[lane].push(req);
                        }
                        self.next_seq += 1;
                        outstanding[lane] += 1;
                        report.checks.attempted += 1;
                    }
                }
            }
            let Some(front) = inflight.front() else { break };
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                let missing = inflight.len();
                report.checks.fail(format!(
                    "connection closed with {missing} requests unanswered"
                ));
                report.checks.failed += missing as u64 - 1;
                break;
            }
            let now = Instant::now();
            let parsed = parse_response(&line);
            let index = match &parsed {
                Ok(p) if p.seq == front.seq => Some(0),
                Ok(p) => inflight.iter().position(|f| f.seq == p.seq),
                // Error lines name their seq too; fall back to order.
                Err(_) => Some(0),
            };
            let Some(index) = index else {
                report
                    .checks
                    .fail(format!("response for an unknown seq: {}", clip(&line)));
                continue;
            };
            let flight = inflight.remove(index).expect("index is in range");
            outstanding[flight.lane] -= 1;
            refill.push(flight.lane);
            let phase = schedule.phases.iter().position(|&(end, _)| now < end);
            let ok = match parsed {
                Ok(p) => check(&p, &flight.req, keep.cached, &mut report.checks),
                Err(message) => {
                    report.checks.fail(message);
                    None
                }
            };
            if let (Some(phase), Some(micros)) = (phase, ok) {
                let rtt = u64::try_from((now - flight.sent).as_nanos()).unwrap_or(u64::MAX);
                let stats = &mut report.phases[phase];
                stats.latencies_ns.push(rtt);
                stats.overheads_ns.push(rtt as i64 - (micros * 1000) as i64);
                stats.ok += 1;
                stats.bytes += line.len() as u64;
                if schedule.phases[phase].1 == Phase::Traced {
                    let since = |t: Instant| (t - epoch).as_nanos() as u64;
                    report.spans.push((since(flight.sent), since(now)));
                }
            }
            let kept = || Kept {
                req: Arc::clone(&flight.req),
                lane: flight.lane,
                pos: flight.pos,
                line: line.clone(),
            };
            if flight.pos < keep.first {
                report.first.push(kept());
            }
            received += 1;
            if report.sample.len() < keep.sample {
                report.sample.push(kept());
            } else if keep.sample > 0 {
                let slot = rng.gen_range_u64(0, received - 1) as usize;
                if slot < keep.sample {
                    report.sample[slot] = kept();
                }
            }
            if end.is_some_and(|end| now >= end) {
                sending = false;
            }
        }
        Ok(report)
    }
}

/// Checks one success line against its request; returns the daemon's
/// `micros` when every check passes.
fn check(parsed: &Parsed<'_>, req: &Req, cached: bool, checks: &mut Checks) -> Option<u64> {
    if parsed.hash != req.hash {
        checks.fail(format!(
            "hash {} where {} was expected",
            parsed.hash, req.hash
        ));
        return None;
    }
    if parsed.cached != cached || parsed.coalesced || parsed.walks.is_some() == parsed.cached {
        checks.fail(format!(
            "response {} has cached={} coalesced={} walks={} where cached={cached} was expected",
            parsed.hash,
            parsed.cached,
            parsed.coalesced,
            parsed.walks.is_some()
        ));
        return None;
    }
    if let Some(walks) = parsed.walks {
        checks.analyzed += 1;
        for (total, part) in checks.walks.iter_mut().zip(walks) {
            *total += part;
        }
    }
    Some(parsed.micros)
}

#[cfg(test)]
mod tests {
    use super::*;

    const HIT: &str =
        "{\"seq\":7,\"hash\":\"00ff\",\"cached\":true,\"micros\":12,\"report\":{\"x\":1}}";
    const FRESH: &str = "{\"seq\":3,\"hash\":\"abcd\",\"cached\":false,\"micros\":90,\"walks\":{\"integer\":5,\"exact\":0,\"pruned\":2,\"avoided\":1,\"reused\":0,\"rebuilt\":9,\"lockstep\":3,\"patched\":0,\"repaired\":0,\"kept\":0,\"rewalked\":0},\"report\":{\"x\":1}}\n";

    #[test]
    fn parses_cached_and_fresh_responses() {
        let hit = parse_response(HIT).expect("parses");
        assert_eq!(
            (hit.seq, hit.hash, hit.cached, hit.micros),
            (7, "00ff", true, 12)
        );
        assert!(hit.walks.is_none());
        let fresh = parse_response(FRESH).expect("parses");
        assert_eq!(fresh.walks, Some([5, 0, 2, 1, 0, 9, 3, 0, 0, 0, 0]));
        assert!(!fresh.cached && !fresh.coalesced);
    }

    #[test]
    fn error_and_truncated_lines_are_failures() {
        let error = "{\"seq\":1,\"source\":\"net:2\",\"cached\":false,\"micros\":0,\"error\":{\"kind\":\"parse\",\"detail\":\"x\"}}";
        assert!(parse_response(error)
            .unwrap_err()
            .starts_with("error response"));
        assert!(parse_response(&HIT[..40]).is_err());
    }

    #[test]
    fn stripping_drops_only_seq_and_micros() {
        assert_eq!(
            strip_volatile(HIT),
            "{\"hash\":\"00ff\",\"cached\":true,\"report\":{\"x\":1}}"
        );
        assert!(strip_volatile(FRESH).starts_with("{\"hash\":\"abcd\",\"cached\":false,\"walks\":"));
    }
}
