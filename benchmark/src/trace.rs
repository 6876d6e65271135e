//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls into each
//! layer: name, start, end, the span that caused it, and an operation count.  They
//! stay in memory and are written out once, when the run ends.  A disabled recorder
//! (the untraced run) only calls the closure.

use crate::api::Json;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Operations the span covers (requests of an `execute`, iterations of a probe).
    pub count: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    workload: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool, workload: &str) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Pauses or resumes recording; used to time one window with tracing off inside
    /// the traced run, which is how the tracing overhead is measured.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Runs `f` inside a span named `name` covering `count` operations; spans opened
    /// by `f` become its children.
    pub fn span<T>(&mut self, name: &str, count: u64, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            count,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of the spans named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum();
        ns as f64 / 1e9
    }

    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj(vec![
                    ("id", Json::U64(id as u64)),
                    ("name", Json::str(s.name.clone())),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                    ),
                    ("start_ns", Json::U64(s.start_ns)),
                    ("end_ns", Json::U64(s.end_ns)),
                    ("count", Json::U64(s.count)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("workload", Json::str(self.workload.clone())),
            ("spans", Json::Arr(spans)),
        ])
    }
}

/// A span's self time: its duration minus the part its child spans cover.  Children
/// of one parent never overlap here (one thread records them in sequence), so the
/// covered part is the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// The first span that starts before or ends after its parent, if any.
pub fn first_escaping_child(spans: &[Span]) -> Option<&Span> {
    spans.iter().find(|s| {
        s.parent.is_some_and(|p| {
            let parent = &spans[p];
            s.start_ns < parent.start_ns || s.end_ns > parent.end_ns
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.to_string(),
            parent,
            start_ns,
            end_ns,
            count: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("setup", None, 0, 100),
            span("build_app", Some(0), 10, 60),
            span("prepare", Some(0), 60, 70),
            span("index", Some(1), 20, 50),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 10, 30]);
        assert!(first_escaping_child(&spans).is_none());
    }

    #[test]
    fn escaping_child_is_found() {
        let spans = vec![span("a", None, 10, 20), span("b", Some(0), 15, 25)];
        assert_eq!(
            first_escaping_child(&spans).map(|s| s.name.as_str()),
            Some("b")
        );
    }

    #[test]
    fn recorder_nests_and_disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(true, "wl");
        let out = rec.span("outer", 2, |rec| rec.span("inner", 1, |_| 7));
        assert_eq!(out, 7);
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert!(first_escaping_child(rec.spans()).is_none());
        rec.set_enabled(false);
        rec.span("skipped", 1, |_| ());
        assert_eq!(rec.spans().len(), 2);
        let json = rec.to_json().to_text();
        assert!(json.contains("\"workload\":\"wl\"") || json.contains("\"workload\": \"wl\""));
    }
}
