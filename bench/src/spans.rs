//! In-memory spans recorded from outside the system under test, around
//! the harness's calls into each layer.
//!
//! A span is `(name, start, end, parent, request id)`. Spans nest by
//! call order on the recording thread; they stay in memory for the
//! whole run and are written to `bench/out/trace-<workload>.json` when
//! it ends. A disabled tracer records nothing, which is how the traced
//! run prices its own overhead (`trace.overhead_share`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = u32;

/// One recorded interval. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `driver.mc.copy` or `image.restore`.
    pub name: &'static str,
    /// Start of the interval.
    pub start_ns: u64,
    /// End of the interval (equal to `start_ns` while still open).
    pub end_ns: u64,
    /// The span that was open when this one started.
    pub parent: Option<SpanId>,
    /// Stream position of the request this span belongs to, shared by
    /// every span the request caused.
    pub request: Option<u64>,
}

impl Span {
    /// Length of the interval.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// Every span's self time: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
/// `spans` must be in start order, as a [`Tracer`] records them.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    // How far into each span its children seen so far reach.
    let mut reach: Vec<u64> = spans.iter().map(|s| s.start_ns).collect();
    for span in spans {
        let Some(parent) = span.parent else { continue };
        let parent = parent as usize;
        let start = span.start_ns.max(reach[parent]);
        let end = span.end_ns.min(spans[parent].end_ns);
        if end > start {
            covered[parent] += end - start;
            reach[parent] = end;
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(span, covered)| span.duration_ns() - covered)
        .collect()
}

/// Count, total and self time per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let t = totals.entry(span.name).or_default();
        t.count += 1;
        t.total_ns += span.duration_ns();
        t.self_ns += self_ns;
    }
    totals
}

/// Records spans on the calling thread.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every call.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, request: Option<u64>) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when no span is open (unbalanced harness code).
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id as usize].end_ns = now;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        self.enter(name, request);
        let out = f();
        self.exit();
        out
    }

    /// A second tracer on the same clock, so its spans can later be
    /// appended to this one's.
    pub fn sibling(&self, enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: self.epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Ends recording and hands the spans over.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Appends a sibling tracer's spans, keeping their parent links.
pub fn append(spans: &mut Vec<Span>, other: Vec<Span>) {
    let base = spans.len() as SpanId;
    spans.extend(other.into_iter().map(|mut span| {
        span.parent = span.parent.map(|p| p + base);
        span
    }));
}

/// Renders spans and their per-name totals as one JSON document.
pub fn trace_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 96);
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"time_unit\":\"ns\",\"totals\":["
    );
    for (i, (name, t)) in totals_by_name(spans).iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n{{\"name\":\"{name}\",\"count\":{},\"total\":{},\"self\":{}}}",
            t.count, t.total_ns, t.self_ns
        );
    }
    out.push_str("],\"spans\":[");
    let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"request\":{}}}",
            s.name,
            s.start_ns,
            s.end_ns,
            opt(s.parent.map(u64::from)),
            opt(s.request)
        );
    }
    out.push_str("]}\n");
    out
}
