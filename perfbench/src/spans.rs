//! The traced run's instruments: a counting event sink and in-memory host
//! spans around each call into the simulator.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use ztm_trace::{DigestSink, Event, Metrics, TraceSink, Tracer};

/// Event sink of the traced run: folds every event into the repository's
/// [`Metrics`] aggregates and streaming [`DigestSink`], and keeps nothing
/// else, so its counts and digest are those a `Recorder` reports for the
/// same stream.
#[derive(Debug, Default)]
pub struct CountingSink {
    /// Full-stream aggregates.
    pub metrics: Metrics,
    /// Full-stream digest.
    pub digest: DigestSink,
}

impl TraceSink for CountingSink {
    fn record(&mut self, clock: u64, cpu: u16, event: Event) {
        self.metrics.observe(clock, cpu, &event);
        self.digest.fold(clock, cpu, &event);
    }
}

impl CountingSink {
    /// A fresh sink and a tracer feeding it.
    pub fn attach() -> (Tracer, Arc<Mutex<CountingSink>>) {
        let sink = Arc::new(Mutex::new(CountingSink::default()));
        let shared: Arc<Mutex<dyn TraceSink + Send>> = sink.clone();
        (Tracer::with_sink(shared), sink)
    }
}

/// One timed call: name, host interval relative to the run's start, the
/// enclosing span, and the segment every span of one simulated system
/// shares.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// Segment id (one fresh `System` each).
    pub segment: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the run began.
    pub start_ns: u64,
    /// End, in ns since the run began.
    pub end_ns: u64,
}

/// In-memory span log, written out once when the run ends. A log that
/// does not record still times every span for its caller.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    record: bool,
    spans: Vec<Span>,
    /// Start and log index (when recorded) of every open span.
    open: Vec<(u64, Option<usize>)>,
    segment: u32,
}

impl Spans {
    /// An empty log; `record` keeps the spans, otherwise only times them.
    pub fn new(record: bool) -> Spans {
        Spans {
            epoch: Instant::now(),
            record,
            spans: Vec::new(),
            open: Vec::new(),
            segment: 0,
        }
    }

    /// Starts a new segment id for the spans that follow.
    pub fn begin_segment(&mut self) {
        self.segment += 1;
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let start_ns = self.now();
        let index = self.record.then(|| {
            self.spans.push(Span {
                name,
                segment: self.segment,
                parent: self.open.last().and_then(|o| o.1),
                start_ns,
                end_ns: start_ns,
            });
            self.spans.len() - 1
        });
        self.open.push((start_ns, index));
    }

    /// Closes the innermost open span and returns its duration.
    ///
    /// # Panics
    ///
    /// Panics if no span is open.
    pub fn exit(&mut self) -> Duration {
        let (start_ns, index) = self.open.pop().expect("span exit without enter");
        let end_ns = self.now();
        if let Some(i) = index {
            self.spans[i].end_ns = end_ns;
        }
        Duration::from_nanos(end_ns - start_ns)
    }

    /// Runs `f` inside a span and returns its result and duration.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        self.enter(name);
        let out = f();
        (out, self.exit())
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut s = String::from("[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{{\"id\": {i}, \"name\": \"{}\", \"segment\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}{}",
                sp.name,
                sp.segment,
                sp.start_ns,
                sp.end_ns,
                if i + 1 == self.spans.len() { "\n" } else { ",\n" }
            );
        }
        s.push(']');
        s
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}
