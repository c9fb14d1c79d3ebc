//! Request-keyed spans recorded from outside the crates.
//!
//! A span is `(id, parent, name, request, start_ns, end_ns)`. Spans of
//! one request share `request`; a handler span names the service span of
//! the same request as its parent. Spans stay in memory during the run
//! and are written as JSON lines when it ends. Spans inside `crates/` are
//! ROADMAP item 3.

use std::collections::HashMap;
use std::io::{self, Write};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique within a log, from 1.
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub name: &'static str,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn with_capacity(n: usize) -> Self {
        Self {
            spans: Vec::with_capacity(n),
        }
    }

    /// Record a span and return its id.
    pub fn record(
        &mut self,
        parent: u64,
        name: &'static str,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            request,
            start_ns,
            end_ns,
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span id: its duration minus its children's
    /// durations. Signed, because the handler spans come from a second
    /// replay of the same requests and one noisy child can outlast its
    /// parent; clamping would bias the mean upward.
    pub fn self_times(&self) -> HashMap<u64, i64> {
        let mut out: HashMap<u64, i64> = self
            .spans
            .iter()
            .map(|s| (s.id, s.duration_ns() as i64))
            .collect();
        for s in self.spans.iter().filter(|s| s.parent != 0) {
            if let Some(parent) = out.get_mut(&s.parent) {
                *parent -= s.duration_ns() as i64;
            }
        }
        out
    }

    /// One JSON object per line, tagged with the workload, for the spans
    /// of requests below `request_limit`.
    pub fn write_jsonl(
        &self,
        workload: &str,
        request_limit: u64,
        out: &mut impl Write,
    ) -> io::Result<()> {
        for s in self.spans.iter().filter(|s| s.request < request_limit) {
            writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut log = SpanLog::default();
        let svc = log.record(0, "service", 9, 100, 1100);
        let handler = log.record(svc, "handler", 9, 0, 700);
        let lock = log.record(handler, "lock", 9, 10, 110);
        let lone = log.record(0, "service", 10, 2000, 2050);
        let own = log.self_times();
        assert_eq!(own[&svc], 300);
        assert_eq!(own[&handler], 600);
        assert_eq!(own[&lock], 100);
        assert_eq!(own[&lone], 50);
        // Self times of one request add back up to its root's duration.
        assert_eq!(own[&svc] + own[&handler] + own[&lock], 1000);
    }

    #[test]
    fn a_child_longer_than_its_parent_goes_negative_not_to_zero() {
        let mut log = SpanLog::default();
        let svc = log.record(0, "service", 1, 0, 100);
        log.record(svc, "handler", 1, 0, 130);
        assert_eq!(log.self_times()[&svc], -30);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut log = SpanLog::default();
        log.record(0, "service", 3, 5, 8);
        log.record(0, "service", 4, 8, 9);
        let mut buf = Vec::new();
        log.write_jsonl("svc_read", 4, &mut buf).unwrap();
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            "{\"workload\":\"svc_read\",\"id\":1,\"parent\":0,\"name\":\"service\",\"request\":3,\"start_ns\":5,\"end_ns\":8}\n"
        );
    }
}
