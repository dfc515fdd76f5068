//! In-memory spans recorded around calls into the program's layers.
//!
//! A span has a name, a start, an end, a parent and the request it
//! belongs to. Spans stay in memory until the run ends and are then
//! written to `bench-out/TRACE_<workload>.json`. A span's self time is
//! its duration minus the part covered by its children.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// The parent of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer call the span covers, e.g. `json.parse`.
    pub name: &'static str,
    /// Start, in nanoseconds since the epoch.
    pub start: u64,
    /// End, in nanoseconds since the epoch.
    pub end: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The request the span worked for.
    pub request: u32,
}

/// A single-threaded span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u32,
}

impl Tracer {
    /// A tracer whose times count from `epoch`.
    #[must_use]
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Attributes the spans that follow to `request`.
    pub fn request(&mut self, request: u32) {
        self.request = request;
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span called `name`; spans `f` records become its
    /// children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let index = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(index);
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request: self.request,
        });
        let result = f(self);
        let end = self.now();
        self.spans[index as usize].end = end;
        self.open.pop();
        result
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like [`Tracer::spans`].
    #[must_use]
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for span in &self.spans {
            if span.parent != NO_PARENT {
                let parent = &mut own[span.parent as usize];
                *parent = parent.saturating_sub(span.end - span.start);
            }
        }
        own
    }

    /// Per request, the inclusive and the self nanoseconds of each span
    /// name (a name that recurs within one request is summed).
    #[must_use]
    pub fn per_request(&self) -> BTreeMap<u32, BTreeMap<&'static str, (u64, u64)>> {
        let own = self.self_times();
        let mut out: BTreeMap<u32, BTreeMap<&'static str, (u64, u64)>> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(own) {
            let entry = out
                .entry(span.request)
                .or_default()
                .entry(span.name)
                .or_default();
            entry.0 += span.end - span.start;
            entry.1 += own;
        }
        out
    }

    /// Writes the spans, a per-name self-time summary and `extra`
    /// top-level JSON fields to `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn write(&self, path: &Path, extra: &[(&str, String)]) -> io::Result<()> {
        let own = self.self_times();
        let mut summary: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(&own) {
            let entry = summary.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.end - span.start;
            entry.2 += own;
        }
        let mut out = BufWriter::new(File::create(path)?);
        write!(out, "{{")?;
        for (key, value) in extra {
            write!(out, "\"{key}\":{value},")?;
        }
        write!(out, "\"stages\":{{")?;
        for (i, (name, (count, total, own))) in summary.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(
                out,
                "{sep}\"{name}\":{{\"count\":{count},\"total_ns\":{total},\"self_ns\":{own}}}"
            )?;
        }
        write!(
            out,
            "}},\"span_fields\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"request\"],\"spans\":["
        )?;
        for (i, span) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = if span.parent == NO_PARENT {
                -1
            } else {
                i64::from(span.parent)
            };
            write!(
                out,
                "{sep}\n[\"{}\",{},{},{parent},{}]",
                span.name, span.start, span.end, span.request
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::new(Instant::now());
        tracer.request(3);
        tracer.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("inner", |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[1].parent, spans[2].parent), (0, 0));
        assert!(spans.iter().all(|s| s.request == 3));
        let own = tracer.self_times();
        let children = (spans[1].end - spans[1].start) + (spans[2].end - spans[2].start);
        assert_eq!(own[0], (spans[0].end - spans[0].start) - children);
        let per = tracer.per_request();
        assert_eq!(per[&3]["inner"].0, children);
    }
}
