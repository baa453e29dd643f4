//! In-memory span recorder for the traced run.
//!
//! A span is a named interval around one call into a layer's public
//! API, with the span that caused it and the cell, mix or job it
//! belongs to. Spans stay in memory and are written once, as Chrome
//! trace-event JSON, when the run ends.

use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The cell, mix or job the span belongs to (`4B/n8/w3`, `job:fresh`).
    pub id: String,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Thread-safe span store.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn spans_mut(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span store poisoned: a traced call panicked")
    }

    /// Open a span and return its index; close it with [`end`](Self::end).
    pub fn begin(&self, name: &'static str, parent: Option<usize>, id: &str) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.spans_mut();
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id: id.to_string(),
        });
        spans.len() - 1
    }

    pub fn end(&self, idx: usize) {
        let now = self.now_ns();
        self.spans_mut()[idx].end_ns = now;
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        id: &str,
        f: impl FnOnce() -> R,
    ) -> R {
        let idx = self.begin(name, parent, id);
        let r = f();
        self.end(idx);
        r
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans_mut().clone()
    }
}

/// Total duration in seconds of every span named `name` (0 if none).
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    durations_s(spans, name).iter().fold(0.0, |a, d| a + d)
}

/// Durations in seconds of every span named `name`, in record order.
pub fn durations_s(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_s)
        .collect()
}

/// Self time of span `idx`: its duration minus the time its direct
/// children cover (children of one span never overlap: they run on the
/// thread that opened the parent).
pub fn self_s(spans: &[Span], idx: usize) -> f64 {
    let children: f64 = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(Span::dur_s)
        .sum();
    spans[idx].dur_s() - children
}

/// Chrome trace-event JSON (`X` events, microseconds), loadable in
/// `chrome://tracing` or Perfetto.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\"id\":\"{}\",\"self_us\":{:.3}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.id,
            self_s(spans, i) * 1e6
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mk = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: String::new(),
        };
        let spans = vec![
            mk("cell", 0, 1_000, None),
            mk("prewarm", 100, 400, Some(0)),
            mk("run", 400, 900, Some(0)),
            mk("inner", 500, 600, Some(2)),
        ];
        assert!((self_s(&spans, 0) - 200e-9).abs() < 1e-15);
        assert!((self_s(&spans, 2) - 400e-9).abs() < 1e-15);
        assert!((total_s(&spans, "run") - 500e-9).abs() < 1e-15);
    }
}
