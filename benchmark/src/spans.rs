//! The benchmark's own spans: one around every unit, every client query and
//! every probe call, kept in memory on the global recorder's clock so they
//! line up with the program's events when the two are merged.

use mics_trace::{Arg, Trace};

/// Process name the benchmark's spans are written under.
pub const BENCH_PROCESS: &str = "benchmark";

/// One recorded span. `parent` is an index into the same log.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The unit this span belongs to (spans of one unit share it).
    pub unit: u64,
}

/// An append-only span log owned by one thread (`track` names it).
#[derive(Debug)]
pub struct SpanLog {
    track: String,
    pub spans: Vec<Span>,
}

/// Nanoseconds on the clock every span uses.
pub fn now_ns() -> u64 {
    mics_trace::global().now_ns()
}

impl SpanLog {
    pub fn new(track: impl Into<String>) -> Self {
        SpanLog { track: track.into(), spans: Vec::new() }
    }

    /// Start a span now; [`SpanLog::close`] ends it. Spans opened in between
    /// name it as their `parent`.
    pub fn open(&mut self, name: &'static str, unit: u64, parent: Option<usize>) -> usize {
        let start_ns = now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, unit });
        self.spans.len() - 1
    }

    /// End span `id` now and return its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let span = &mut self.spans[id];
        span.end_ns = now_ns();
        (span.end_ns - span.start_ns) as f64 / 1e9
    }

    /// Time `f` as a leaf span; returns its result and duration in seconds.
    pub fn timed<R>(
        &mut self,
        name: &'static str,
        unit: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(name, unit, parent);
        let out = f();
        (out, self.close(id))
    }

    /// Time `reps` calls of `f`, each a span under one parent span called
    /// `name`; returns the calls' durations in seconds.
    pub fn probe(&mut self, name: &'static str, reps: usize, mut f: impl FnMut()) -> Vec<f64> {
        let parent = self.open(name, 0, None);
        let secs = (0..reps).map(|_| self.timed("call", 0, Some(parent), &mut f).1).collect();
        self.close(parent);
        secs
    }

    /// Durations of every span called `name`, in seconds.
    pub fn secs_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    /// Append the log to `trace` as one track of the benchmark process.
    pub fn write_into(&self, trace: &mut Trace) {
        for (id, s) in self.spans.iter().enumerate() {
            let mut args = vec![("span", Arg::from(id)), ("unit", Arg::from(s.unit))];
            if let Some(p) = s.parent {
                args.push(("parent", Arg::from(p)));
            }
            trace.span(
                BENCH_PROCESS,
                &self.track,
                s.name,
                "benchmark",
                s.start_ns,
                s.end_ns - s.start_ns,
                args,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export() {
        let mut log = SpanLog::new("main");
        let unit = log.open("unit", 3, None);
        let (v, secs) = log.timed("query", 3, Some(unit), || 41 + 1);
        assert!(log.close(unit) >= secs);
        assert_eq!(v, 42);
        assert_eq!(log.spans[1].parent, Some(unit));
        assert_eq!(log.secs_of("query").len(), 1);
        let mut trace = Trace::new();
        log.write_into(&mut trace);
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.processes(), vec![BENCH_PROCESS]);
        assert!(trace.to_json().contains("\"parent\""));
    }
}
