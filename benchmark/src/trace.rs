//! The benchmark's own in-memory span recorder. Spans wrap calls into
//! one layer's public functions; the clock is read once per batch of
//! tuples, never per tuple. Spans stay in memory until the process
//! writes them out at exit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<operation>`, e.g. `core.operator.admit`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one (`None` for a root).
    pub parent: Option<u32>,
    /// Spans of one repetition share an identifier.
    pub run_id: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans against one monotonic origin.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    run_id: u32,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), run_id: 0 }
    }
}

impl Recorder {
    /// Nanoseconds since the recorder's origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Spans recorded from now on belong to repetition `run_id`.
    pub fn set_run(&mut self, run_id: u32) {
        self.run_id = run_id;
    }

    /// Time `f` as a span named `name`, child of the innermost open
    /// span; `f` may open further spans through the recorder it gets.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        self.timed(name, f).0
    }

    /// [`Recorder::span`], also returning the span's duration in
    /// nanoseconds.
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> (R, u64) {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run_id: self.run_id,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id as usize].end_ns = end_ns;
        (out, end_ns - start_ns)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 2);
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run_id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.run_id
            )
            .expect("write to String");
        }
        out.push(']');
        out
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its direct children cover (overlapping children — two threads
/// under one parent — are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Total self time per span name, over the spans selected by `keep`.
pub fn self_time_by_name(
    spans: &[Span],
    keep: impl Fn(&Span) -> bool,
) -> BTreeMap<&'static str, u64> {
    let mut by_name = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        if keep(s) {
            *by_name.entry(s.name).or_insert(0) += self_ns;
        }
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span { name, start_ns, end_ns, parent, run_id: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span("rep", 0, 100, None),
            span("low", 10, 30, Some(0)),
            span("admit", 30, 70, Some(0)),
            span("flush", 40, 50, Some(2)),
            // Two overlapping children (a producer and a consumer
            // thread) cover 75..95 of the root once, not twice.
            span("ring", 75, 90, Some(0)),
            span("ring", 80, 95, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 20 - 40 - 20, 20, 30, 10, 15, 15]);
        let by_name = self_time_by_name(&spans, |_| true);
        assert_eq!(by_name["rep"], 20);
        assert_eq!(by_name["ring"], 30);
        assert_eq!(self_time_by_name(&spans, |s| s.parent.is_none()).len(), 1);
    }

    #[test]
    fn recorder_nests_and_serialises() {
        let mut rec = Recorder::default();
        rec.set_run(3);
        let answer = rec.span("outer", |rec| {
            rec.span("inner", |_| ());
            rec.timed("sibling", |_| 41).0 + 1
        });
        assert_eq!(answer, 42);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].parent, spans[1].parent, spans[2].parent), (None, Some(0), Some(0)));
        assert!(spans.iter().all(|s| s.run_id == 3 && s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let json = rec.to_json();
        assert!(json.starts_with("[{\"id\":0,\"name\":\"outer\""));
        assert!(json.contains("\"parent\":null") && json.contains("\"parent\":0"));
    }
}
