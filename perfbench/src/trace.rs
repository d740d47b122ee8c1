//! In-memory span and counter recorder for the traced run.
//!
//! Spans are recorded only from the benchmark's own code, around its
//! calls into each layer's public functions. They are kept in memory
//! and written out as JSON when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span, used as the parent of nested spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
}

/// Span recorder. When disabled, [`Tracer::time`] still returns the
/// duration of the closure but records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<String, f64>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.t0).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` under `parent`, and returns
    /// its result with its wall time in seconds. `f` receives the id of
    /// the new span (`None` when tracing is off) for its own children.
    pub fn time<R>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> (R, f64) {
        let id = self.enabled.then(|| {
            let mut spans = self.spans.lock().expect("span list lock poisoned");
            spans.push(Span {
                name: name.to_owned(),
                start_ns: 0,
                end_ns: 0,
                parent,
            });
            SpanId(spans.len() - 1)
        });
        let start = Instant::now();
        let r = f(id);
        let end = Instant::now();
        if let Some(SpanId(i)) = id {
            let (s, e) = (self.ns(start), self.ns(end));
            let mut spans = self.spans.lock().expect("span list lock poisoned");
            spans[i].start_ns = s;
            spans[i].end_ns = e;
        }
        (r, end.duration_since(start).as_secs_f64())
    }

    /// Sets a counter recorded at a layer boundary.
    pub fn count(&self, name: &str, value: f64) {
        if self.enabled {
            self.counters
                .lock()
                .expect("counter lock poisoned")
                .insert(name.to_owned(), value);
        }
    }

    /// Serializes every span (name, start, end, parent) and counter.
    /// `header` is a pre-rendered JSON object body (provenance).
    pub fn to_json(&self, header: &str) -> String {
        let spans = self.spans.lock().expect("span list lock poisoned");
        let counters = self.counters.lock().expect("counter lock poisoned");
        let mut s = String::new();
        let _ = writeln!(s, "{{\n  \"provenance\": {header},\n  \"spans\": [");
        for (i, sp) in spans.iter().enumerate() {
            let parent = sp
                .parent
                .map_or("null".to_owned(), |SpanId(p)| p.to_string());
            let comma = if i + 1 < spans.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "    {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}{comma}",
                sp.name, sp.start_ns, sp.end_ns
            );
        }
        s.push_str("  ],\n  \"counters\": {");
        for (i, (k, v)) in counters.iter().enumerate() {
            let comma = if i + 1 < counters.len() { "," } else { "" };
            let _ = write!(s, "\n    \"{k}\": {}{comma}", crate::json_num(*v));
        }
        s.push_str("\n  }\n}\n");
        s
    }
}
