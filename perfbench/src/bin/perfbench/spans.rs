//! Host-time spans recorded around the benchmark's calls into each layer.
//!
//! Spans live in memory and are written once, when the run ends. They are
//! host time only and never pass through the simulator's cycle-domain
//! telemetry.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// A monotonic host clock reading nanoseconds since the run started.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    origin: Instant,
}

impl Clock {
    pub fn start() -> Clock {
        Clock { origin: now() }
    }

    /// Nanoseconds since [`Clock::start`].
    pub fn ns(&self) -> u64 {
        u64::try_from(now().duration_since(self.origin).as_nanos())
            .expect("run shorter than 584 years")
    }

    /// Seconds since [`Clock::start`].
    pub fn seconds(&self) -> f64 {
        self.ns() as f64 * 1e-9
    }
}

/// The only wall-clock read of the benchmark: it measures host time, and no
/// simulated result depends on it.
fn now() -> Instant {
    Instant::now() // lint:allow(wall-clock)
}

/// One closed span: `[start, end)` in clock nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// The session or pass the span belongs to.
    pub run: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

#[derive(Debug)]
pub struct Recorder {
    pub clock: Clock,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(clock: Clock) -> Recorder {
        Recorder {
            clock,
            spans: Vec::new(),
        }
    }

    /// Opens a span; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, run: u64) -> usize {
        let start = self.clock.ns();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            run,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) -> u64 {
        let end = self.clock.ns();
        let span = &mut self.spans[id];
        span.end = end;
        span.ns()
    }

    /// Durations in nanoseconds of every span called `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    /// Writes every span as CSV: `name,start_ns,end_ns,parent,run` (parent
    /// is the row index of the enclosing span, or -1).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        writeln!(out, "name,start_ns,end_ns,parent,run")?;
        for span in &self.spans {
            let parent = span.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{},{},{},{},{}",
                span.name, span.start, span.end, parent, span.run
            )?;
        }
        out.flush()
    }
}
