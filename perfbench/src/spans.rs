//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each public call
//! it makes into the compiler and simulator, plus child spans rebuilt from
//! the records those calls return (compile passes, the solver's
//! search/proof split, the native build). Nothing is written until the run
//! ends; [`Tracer::chrome_json`] then renders Chrome trace-event JSON,
//! which Perfetto and `chrome://tracing` open offline.
//!
//! A disabled tracer records nothing, so the untraced run pays one branch
//! per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Index of a recorded span.
pub type SpanId = usize;

/// One timed interval, as offsets from the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// Layer the time is charged to: a crate name, or `bench` for the
    /// benchmark's own glue (checks, trace building).
    pub layer: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<SpanId>,
    /// Job the span belongs to; every span of one job shares it.
    pub job: u64,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub(crate) fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Switch recording on or off between jobs (the traced run alternates
    /// so it can measure its own overhead).
    pub(crate) fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Open a span now; close it with [`Tracer::end`].
    pub(crate) fn begin(
        &mut self,
        name: impl Into<String>,
        layer: &'static str,
        job: u64,
        parent: Option<SpanId>,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name: name.into(),
            layer,
            start: now,
            end: now,
            parent,
            job,
        });
        Some(self.spans.len() - 1)
    }

    pub(crate) fn end(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end = self.epoch.elapsed();
        }
    }

    /// Record a finished child span of `parent`, starting `offset` after
    /// the parent's start and lasting `duration`. Used for intervals the
    /// program measured itself and returned in its records.
    pub(crate) fn child(
        &mut self,
        parent: Option<SpanId>,
        name: impl Into<String>,
        layer: &'static str,
        offset: Duration,
        duration: Duration,
    ) -> Option<SpanId> {
        let p = &self.spans[parent?];
        let start = (p.start + offset).min(p.end);
        let end = (start + duration).min(p.end);
        let job = p.job;
        self.spans.push(Span {
            name: name.into(),
            layer,
            start,
            end,
            parent,
            job,
        });
        Some(self.spans.len() - 1)
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover (children are sequential and inside their parent).
    fn self_times(&self) -> Vec<Duration> {
        let mut covered = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.duration();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.duration().saturating_sub(c))
            .collect()
    }

    /// Self time summed per layer, and the summed wall time of the job
    /// (root) spans. The per-layer sums add up to the root total.
    pub fn layer_self_times(&self) -> (BTreeMap<&'static str, Duration>, Duration) {
        let mut by_layer = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *by_layer.entry(s.layer).or_insert(Duration::ZERO) += t;
        }
        let roots = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration)
            .sum();
        (by_layer, roots)
    }

    /// Chrome trace-event JSON ("X" complete events, microseconds), with
    /// `meta` as top-level `otherData` string pairs.
    pub fn chrome_json(&self, meta: &[(&str, String)]) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"id\":{i},\"parent\":{parent},\"job\":{}}}}}",
                escape(&s.name),
                s.layer,
                s.start.as_secs_f64() * 1e6,
                s.duration().as_secs_f64() * 1e6,
                s.job
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("],\n\"displayTimeUnit\":\"ms\",\n\"otherData\":{");
        for (i, (k, v)) in meta.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{}\":\"{}\"",
                if i > 0 { "," } else { "" },
                k,
                escape(v)
            );
        }
        out.push_str("}}\n");
        out
    }
}

/// Escape a string for a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_cover_the_root() {
        let mut t = Tracer::new(true);
        let root = t.begin("job", "bench", 1, None);
        let a = t.begin("a", "x", 1, root);
        std::thread::sleep(Duration::from_millis(2));
        t.end(a);
        t.child(a, "a1", "y", Duration::ZERO, Duration::from_millis(1));
        t.end(root);
        let (layers, roots) = t.layer_self_times();
        let sum: Duration = layers.values().sum();
        assert_eq!(sum, roots);
        assert!(layers["y"] <= Duration::from_millis(1));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let root = t.begin("job", "bench", 1, None);
        t.child(root, "c", "x", Duration::ZERO, Duration::from_millis(1));
        t.end(root);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn chrome_json_is_escaped() {
        let mut t = Tracer::new(true);
        let root = t.begin("say \"hi\"", "bench", 7, None);
        t.end(root);
        let json = t.chrome_json(&[("seed", "3".into())]);
        assert!(json.contains("say \\\"hi\\\""));
        assert!(json.contains("\"otherData\":{\"seed\":\"3\"}"));
    }
}
