//! Spans around the benchmark's own calls into each layer.
//!
//! Spans are held in memory and written out as JSON when the run ends. A
//! span's parent is the span that was open when it began, so a layer's
//! self time is its span minus its children. With tracing off, `enter`
//! and `exit` do nothing.

use std::time::Instant;

pub struct Span {
    /// Pass the span belongs to.
    pub run: usize,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

pub struct Tracer {
    on: bool,
    run: usize,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (`None` while tracing is off).
#[must_use]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            run: 0,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Attribute the spans that follow to pass `run`.
    pub fn begin_run(&mut self, run: usize) {
        self.run = run;
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            run: self.run,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        self.spans[id].end_ns = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn current<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (usize, &'a Span)> + 'a {
        let run = self.run;
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.run == run && s.name == name)
    }

    /// Each duration of span `name` in the current pass, in seconds.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.current(name)
            .map(|(_, s)| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    /// Total time in span `name` in the current pass, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_s(name).iter().sum()
    }

    /// Time in span `name` not covered by its child spans, in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        let ids: Vec<usize> = self.current(name).map(|(i, _)| i).collect();
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| ids.contains(&p)))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        self.total_s(name) - children as f64 / 1e9
    }

    /// Every span as a JSON array.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"run\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}}}",
                    s.run,
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_string(), |p| p.to_string())
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}
