//! Spans recorded by the benchmark around its calls into each layer, and
//! the order statistics every metric is computed with.
//!
//! A span has a name, a start and an end, the op it belongs to, and the
//! span that caused it (its parent). A layer's self time is its span's
//! duration minus the part its child spans cover. Spans are kept in memory
//! and written out as JSON lines when the run ends. With tracing off,
//! [`Trace::span`] only calls through, so untraced runs carry no recording
//! cost.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// The span log of one run.
pub struct Trace {
    enabled: bool,
    origin: Instant,
    op: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
    /// Figures derived from spans that are not one span's self time, by
    /// name.
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Trace {
    pub fn new(enabled: bool) -> Trace {
        Trace {
            enabled,
            origin: Instant::now(),
            op: 0,
            open: Vec::new(),
            spans: Vec::new(),
            samples: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a new op: spans recorded from here on share its identifier.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans `f` opens become its
    /// children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Records `value` under `name`, when tracing is on.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.samples.entry(name).or_default().push(value);
        }
    }

    /// The values recorded under `name`.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Self time in milliseconds of every span, grouped by name.
    pub fn self_times_ms(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            out.entry(span.name).or_default().push(own as f64 / 1e6);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// Times `f` in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as f64 / 1e6)
}

/// Nearest-rank quantile `q` in `[0, 1]` of unsorted samples; `NaN` when
/// there are none.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}
