//! Wall-clock spans recorded by the harness around its calls into the
//! engine and into each layer's public functions. Kept in memory and
//! written out when the run ends; the engine's own (virtual-time) trace is
//! a separate file.

use crate::json::Json;
use std::time::Instant;

/// Index of a span in its [`SpanLog`].
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Spans of one update share its id (the training iteration); replay
    /// spans carry the repetition number.
    pub update_id: u64,
}

#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Record a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        update_id: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            update_id,
        });
        self.spans.len() - 1
    }

    /// Open a span whose end is not known yet (a root recorded before its
    /// children); close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, start: Instant, update_id: u64) -> SpanId {
        self.record(name, start, start, None, update_id)
    }

    pub fn close(&mut self, id: SpanId, end: Instant) {
        self.spans[id].end_ns = self.ns(end);
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Every span's self time: its duration minus the part of it its
    /// direct children cover (overlapping children are counted once).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut children)| {
                children.sort_unstable();
                let mut covered = 0;
                let mut frontier = span.start_ns;
                for (start, end) in children {
                    let start = start.max(frontier);
                    let end = end.min(span.end_ns);
                    if end > start {
                        covered += end - start;
                        frontier = end;
                    }
                }
                (span.end_ns - span.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .zip(self.self_times_ns())
                .map(|(s, self_ns)| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Int(s.start_ns as i64)),
                        ("end_ns", Json::Int(s.end_ns as i64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                        ),
                        ("update_id", Json::Int(s.update_id as i64)),
                        ("self_ns", Json::Int(self_ns as i64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let mut log = SpanLog::new();
        let t = |us: u64| log.origin + Duration::from_micros(us);
        let (t0, t10, t30, t40, t60, t100) = (t(0), t(10), t(30), t(40), t(60), t(100));
        let root = log.open("root", t0, 7);
        log.close(root, t100);
        let a = log.record("a", t10, t40, Some(root), 7);
        // Overlaps `a` on [30, 40): that stretch counts once.
        log.record("b", t30, t60, Some(root), 7);
        // A grandchild only reduces its own parent's self time.
        log.record("a.inner", t10, t30, Some(a), 7);
        let self_ns = log.self_times_ns();
        assert_eq!(self_ns[root], 50_000, "100 - [10, 60)");
        assert_eq!(self_ns[a], 10_000, "30 - [10, 30)");
        assert_eq!(self_ns[2], 30_000, "a leaf is all self time");
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let mut log = SpanLog::new();
        let t = |us: u64| log.origin + Duration::from_micros(us);
        let (t10, t15, t20, t25) = (t(10), t(15), t(20), t(25));
        let root = log.record("root", t10, t20, None, 1);
        log.record("late", t15, t25, Some(root), 1);
        assert_eq!(log.self_times_ns()[root], 5_000);
    }
}
