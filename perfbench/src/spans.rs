//! In-memory span recorder for the traced run.
//!
//! A span is one call into a crate's public API, timed from the
//! benchmark's side: its name, start, end and the span that caused it.
//! Spans of one simulation run, crash point, transaction or crash cycle
//! share a group id. Recording is off in untraced rounds, where `begin`
//! and `end` cost one branch each.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Returned by [`Spans::begin`] while recording is off; `end` ignores it.
pub const NO_SPAN: usize = usize::MAX;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub group: u64,
    /// Index of the enclosing span, or [`NO_SPAN`] for a root.
    pub parent: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Spans {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    next_group: u64,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            on: false,
            t0: Instant::now(),
            spans: Vec::new(),
            next_group: 0,
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// A fresh group id.
    pub fn group(&mut self) -> u64 {
        self.next_group += 1;
        self.next_group
    }

    pub fn begin(&mut self, name: &'static str, group: u64, parent: usize) -> usize {
        if !self.on {
            return NO_SPAN;
        }
        let now = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            group,
            parent,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, idx: usize) {
        if idx != NO_SPAN {
            self.spans[idx].end_ns = self.t0.elapsed().as_nanos() as u64;
        }
    }

    /// Number of spans recorded so far (a mark for [`Spans::since`]).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn since(&self, mark: usize) -> &[Span] {
        &self.spans[mark..]
    }

    /// Drops every span recorded after `mark`.
    pub fn truncate(&mut self, mark: usize) {
        self.spans.truncate(mark);
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_SPAN {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"group\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.group, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// Durations in nanoseconds of every span named `name` in `spans`.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ns)
        .collect()
}

/// Total nanoseconds of every span named `name` in `spans`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    durations(spans, name).iter().sum()
}
