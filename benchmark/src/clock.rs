//! Host time: the benchmark's one wall-clock read, its span recorder,
//! per-call timers and the peak-memory probe.
//!
//! Spans are recorded around calls into the repository's public
//! functions, from this crate only: the program under test carries no
//! instrumentation, so a span's self time (its duration minus the part its
//! child spans cover) is what the benchmark can attribute from outside.
//! Calls too frequent for a span each (one per simulated op or crash
//! point) go into a [`CallTimer`] instead, whose distribution is the
//! repository's own mergeable [`LatencyHistogram`].

use std::fmt::Write as _;
use std::time::Instant;

use bbb_sim::LatencyHistogram;

/// Reads the host clock. Every timing in the benchmark goes through this
/// function, so the repository's determinism lint has one exempted site.
#[must_use]
#[allow(clippy::disallowed_methods)] // host-time benchmark: reading the wall clock is its purpose
pub fn now() -> Instant {
    Instant::now()
}

/// Seconds elapsed since `start`.
#[must_use]
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Nanoseconds elapsed since `start`.
#[must_use]
pub fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One recorded span: a call into a layer, timed from outside.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.sync_media`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The simulation point (spec, sweep configuration or litmus shape)
    /// the span belongs to; children inherit their parent's.
    pub point: Option<usize>,
}

impl Span {
    /// Duration in ns.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder, written out once when the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` that inherits the enclosing
    /// span's point.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let point = self.open.last().and_then(|&p| self.spans[p].point);
        self.point_span(name, point, f)
    }

    /// Runs `f` inside a span named `name` belonging to `point`.
    pub fn point_span<R>(
        &mut self,
        name: &'static str,
        point: Option<usize>,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let id = self.spans.len();
        let start_ns = ns_since(self.origin);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            point,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = ns_since(self.origin);
        out
    }

    /// Every span recorded so far, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span named `name`, in seconds.
    #[must_use]
    pub fn total_s(&self, name: &str) -> f64 {
        self.named(name).map(Span::ns).sum::<u64>() as f64 * 1e-9
    }

    /// Durations of every span named `name`, in ns.
    #[must_use]
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.named(name).map(Span::ns).collect()
    }

    /// Summed self time (duration minus the time direct children cover)
    /// of every span named `name`, in seconds.
    #[must_use]
    pub fn self_s(&self, name: &str) -> f64 {
        let mut total = 0i128;
        for (id, span) in self.spans.iter().enumerate() {
            if span.name != name {
                continue;
            }
            let children: u64 = self
                .spans
                .iter()
                .filter(|c| c.parent == Some(id))
                .map(Span::ns)
                .sum();
            total += i128::from(span.ns()) - i128::from(children);
        }
        total as f64 * 1e-9
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// The spans as JSON lines, one object per span.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or_else(|| "null".to_owned(), |v| v.to_string());
            writeln!(
                out,
                r#"{{"id":{id},"name":"{}","start_ns":{},"end_ns":{},"parent":{},"point":{}}}"#,
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.point)
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

/// Times every call of one kind: a distribution in ns plus the total.
#[derive(Debug, Clone, Default)]
pub struct CallTimer {
    /// Per-call durations in ns.
    pub hist: LatencyHistogram,
    /// Sum of every call's duration in ns.
    pub total_ns: u64,
}

impl CallTimer {
    /// Runs and times one call.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = now();
        let out = f();
        let ns = ns_since(start);
        self.hist.record(ns);
        self.total_ns += ns;
        out
    }

    /// The per-call duration at `permille` rank (500 = p50), in ns.
    #[must_use]
    pub fn percentile_ns(&self, permille: u32) -> f64 {
        self.hist.percentile_permille(permille) as f64
    }

    /// Total time across calls, in seconds.
    #[must_use]
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 * 1e-9
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
///
/// # Errors
///
/// Fails where `/proc/self/status` is unreadable or lacks `VmHWM`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new();
        t.point_span("point", Some(3), |t| {
            t.span("child", |t| t.span("grandchild", |_| ()));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.point == Some(3)), "point inherited");
        let point = spans[0].ns() as f64 * 1e-9;
        let child = spans[1].ns() as f64 * 1e-9;
        assert!((t.self_s("point") - (point - child)).abs() < 1e-12);
        assert_eq!(t.to_jsonl().lines().count(), 3);
    }
}
