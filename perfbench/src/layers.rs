//! Wall-clock spans the benchmark records around its own calls into each
//! layer's public functions. Spans live in memory and are folded into
//! per-layer totals when the workload ends; a disabled recorder reads no
//! clock at all, so the untraced run pays nothing.

use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.poll_jobs`.
    pub name: &'static str,
    /// Seconds since the recorder was created.
    pub start: f64,
    /// Seconds since the recorder was created.
    pub end: f64,
}

/// An open span, closed with [`Layers::close`].
#[must_use]
pub struct Open(Option<usize>);

/// The span recorder. The benchmark's spans never nest: each wraps one
/// call into the program.
#[derive(Debug)]
pub struct Layers {
    origin: Option<Instant>,
    spans: Vec<Span>,
}

impl Layers {
    /// A recorder that records (`enabled`) or does nothing.
    pub fn new(enabled: bool) -> Self {
        Layers {
            origin: enabled.then(Instant::now),
            spans: Vec::new(),
        }
    }

    /// Open a span.
    pub fn open(&mut self, name: &'static str) -> Open {
        let Some(origin) = self.origin else {
            return Open(None);
        };
        let start = origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start,
            end: start,
        });
        Open(Some(self.spans.len() - 1))
    }

    /// Close `open`, naming it `name` (a call is classified by what it
    /// returned, e.g. a poll that asked for jobs). Returns its seconds.
    pub fn close(&mut self, open: Open, name: &'static str) -> f64 {
        let (Some(origin), Some(idx)) = (self.origin, open.0) else {
            return 0.0;
        };
        let span = &mut self.spans[idx];
        span.end = origin.elapsed().as_secs_f64();
        span.name = name;
        span.end - span.start
    }

    /// Record `f` as one span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.open(name);
        let out = f();
        self.close(open, name);
        out
    }

    /// Durations of every span named `name`, in the order they opened.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Total seconds of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_are_renamed_on_close_and_folded_by_name() {
        let mut l = Layers::new(true);
        let o = l.open("poll");
        let secs = l.close(o, "poll.jobs");
        assert_eq!(l.time("poll.jobs", || 7), 7);
        let d = l.durations("poll.jobs");
        assert_eq!(d.len(), 2);
        assert_eq!(d[0], secs);
        assert!(d.iter().all(|&x| x >= 0.0));
        assert_eq!(l.total("poll.jobs"), d[0] + d[1]);
        assert!(l.durations("poll").is_empty());
        assert_eq!(l.total("missing"), 0.0);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut l = Layers::new(false);
        let o = l.open("x");
        assert_eq!(l.close(o, "x"), 0.0);
        assert_eq!(l.time("y", || 1), 1);
        assert!(l.durations("x").is_empty() && l.durations("y").is_empty());
    }
}
