//! Order statistics and the in-memory span tracer.
//!
//! The tracer records one span per call into a layer's public function,
//! from the benchmark's own code: name, tag (the request class or MC
//! workload the call served), start, end and parent. Spans stay in memory and are folded into
//! per-name call counts, inclusive time and self time when the run ends.
//! A layer's self time is its span's duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// Nearest-rank percentile of an ascending sample: the value at 1-based
/// rank `ceil(q·n)`, clamped into the sample; `None` for an empty sample.
pub fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of a sample (mean of the middle two for an even count);
/// `NaN` for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// One recorded span, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span<'a> {
    /// Layer metric name, e.g. `sim.body_us`.
    pub name: &'static str,
    /// Class or workload name, or `""` for none.
    pub tag: &'a str,
    /// Start offset.
    pub start_ns: u64,
    /// End offset.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Per-name totals folded from a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Sum of span durations.
    pub inclusive_ns: u64,
    /// Sum of durations minus the time covered by direct children.
    pub self_ns: u64,
}

impl SpanTotals {
    /// Mean inclusive time per call in microseconds.
    pub fn mean_us(&self) -> f64 {
        self.inclusive_ns as f64 / 1e3 / self.calls.max(1) as f64
    }

    /// Mean self time per call in microseconds.
    pub fn mean_self_us(&self) -> f64 {
        self.self_ns as f64 / 1e3 / self.calls.max(1) as f64
    }
}

/// In-memory span recorder. A disabled tracer never reads the clock, so
/// the same replay code runs untraced for the overhead comparison.
#[derive(Debug)]
pub struct Tracer<'a> {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span<'a>>,
    open: Vec<usize>,
}

impl<'a> Tracer<'a> {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` tagged `tag`; spans opened by
    /// `f` become its children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        tag: &'a str,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            tag,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
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

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span<'a>] {
        &self.spans
    }
}

/// Folds spans into totals under the key `key` gives each span.
pub fn fold_spans(spans: &[Span], key: impl Fn(&Span) -> String) -> BTreeMap<String, SpanTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.end_ns - span.start_ns;
        }
    }
    let mut totals = BTreeMap::<String, SpanTotals>::new();
    for (span, children) in spans.iter().zip(child_ns) {
        let duration = span.end_ns - span.start_ns;
        let entry = totals.entry(key(span)).or_default();
        entry.calls += 1;
        entry.inclusive_ns += duration;
        entry.self_ns += duration.saturating_sub(children);
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_computed_cases() {
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&hundred, 0.50), Some(50));
        assert_eq!(nearest_rank(&hundred, 0.99), Some(99));
        assert_eq!(nearest_rank(&hundred, 0.999), Some(100));
        // n = 4: rank ceil(0.5·4) = 2.
        let four = [10u64, 20, 30, 40];
        assert_eq!(nearest_rank(&four, 0.5), Some(20));
        assert_eq!(nearest_rank(&four, 0.75), Some(30));
        // n = 10 000: p999 is rank 9990, leaving ten samples above it.
        let big: Vec<u64> = (1..=10_000).collect();
        assert_eq!(nearest_rank(&big, 0.999), Some(9_990));
        assert_eq!(nearest_rank(&[7u64], 0.999), Some(7));
        assert_eq!(nearest_rank::<u64>(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // request [0, 100) holds clone [10, 30) and body [30, 90); body
        // holds mvm [40, 60). Self: request 20, clone 20, body 40, mvm 20.
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            tag: "",
            start_ns,
            end_ns,
            parent,
        };
        let spans = [
            span("request", 0, 100, None),
            span("clone", 10, 30, Some(0)),
            span("body", 30, 90, Some(0)),
            span("mvm", 40, 60, Some(2)),
            span("request", 100, 150, None),
        ];
        let totals = fold_spans(&spans, |s| s.name.to_owned());
        let request = totals["request"];
        assert_eq!(request.calls, 2);
        assert_eq!(request.inclusive_ns, 150);
        assert_eq!(request.self_ns, 20 + 50);
        assert_eq!(totals["clone"].self_ns, 20);
        assert_eq!(totals["body"].inclusive_ns, 60);
        assert_eq!(totals["body"].self_ns, 40);
        assert_eq!(totals["mvm"].self_ns, 20);
        assert_eq!(request.mean_us(), 0.075);
        assert_eq!(request.mean_self_us(), 0.035);
    }

    #[test]
    fn tracer_nests_spans_and_keys_tags() {
        let mut tracer = Tracer::new(true);
        tracer.span("outer", "aes", |t| {
            t.span("inner", "aes", |_| ());
            t.span("inner", "gemm", |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let totals = fold_spans(spans, |s| format!("{}.{}", s.name, s.tag));
        assert!(totals.contains_key("outer.aes"));
        assert!(totals.contains_key("inner.aes"));
        assert!(totals.contains_key("inner.gemm"));
        let outer = totals["outer.aes"];
        assert!(outer.inclusive_ns >= outer.self_ns);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", "", |_| 5), 5);
        assert!(off.spans().is_empty());
    }
}
