//! Spans recorded by the benchmark around calls into the layers.
//!
//! A [`Recorder`] is handed to every rig. Switched off (the untraced run)
//! it only times rounds; switched on it also keeps one [`Span`] per layer
//! call — name, start, end, parent span, round — in memory, counts
//! allocations inside the timed region, and hands the spans over to be
//! written to `trace.json` when the run ends. The program under test is
//! not instrumented: every span is opened and closed in this crate.

use crate::counting_alloc;
use crate::host::{thread_cpu_ns, Stopwatch};
use payloadpark::jsonio::{obj, Value};
use std::time::Instant;

/// Marks a span without a parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer and operation, e.g. `cluster.process_wave`.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The round the span belongs to.
    pub round: u32,
}

/// An open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// What one round cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundSample {
    /// Wall ns of the timed region.
    pub wall_ns: f64,
    /// Process CPU ns (all threads) of the timed region.
    pub cpu_ns: f64,
    /// CPU ns of the calling thread alone.
    pub thread_cpu_ns: f64,
    /// Allocations made inside the timed region (traced rounds only).
    pub allocs: u64,
    /// Bytes requested inside the timed region (traced rounds only).
    pub alloc_bytes: u64,
}

/// Times rounds and, when tracing, records spans.
pub struct Recorder {
    tracing: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    round: u32,
}

/// A round's timed region, open.
pub struct OpenRound {
    span: SpanId,
    watch: Stopwatch,
    thread_cpu: u64,
}

impl Recorder {
    /// A recorder that times rounds and records no spans.
    pub fn off() -> Recorder {
        Recorder {
            tracing: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
        }
    }

    /// A recorder that also keeps spans; `capacity` spans are reserved up
    /// front so that recording never reallocates inside a timed region.
    pub fn tracing(capacity: usize) -> Recorder {
        Recorder {
            tracing: true,
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
            ..Recorder::off()
        }
    }

    /// Whether spans are being recorded.
    pub fn is_tracing(&self) -> bool {
        self.tracing
    }

    /// Sets the round id stamped on spans opened from now on.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.tracing {
            return SpanId(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Span { name, start_ns: 0, end_ns: 0, parent, round: self.round });
        self.open.push(id);
        // Stamped last: the bookkeeping above is charged to the parent.
        self.spans[id as usize].start_ns = self.now_ns();
        SpanId(id)
    }

    /// Closes a span; spans close innermost first.
    pub fn end(&mut self, id: SpanId) {
        if !self.tracing {
            return;
        }
        let now = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id.0), "spans must close innermost first");
        self.spans[id.0 as usize].end_ns = now;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Starts a round's timed region (and its `round` span).
    pub fn start_round(&mut self) -> OpenRound {
        if self.tracing {
            counting_alloc::reset_and_enable();
        }
        let span = self.begin("round");
        OpenRound { span, thread_cpu: thread_cpu_ns(), watch: Stopwatch::start() }
    }

    /// Stops a round's timed region.
    pub fn stop_round(&mut self, open: OpenRound) -> RoundSample {
        let (wall_ns, cpu_ns) = open.watch.stop();
        let thread_cpu = (thread_cpu_ns() - open.thread_cpu) as f64;
        self.end(open.span);
        let (allocs, alloc_bytes) =
            if self.tracing { counting_alloc::disable_and_read() } else { (0, 0) };
        RoundSample { wall_ns, cpu_ns, thread_cpu_ns: thread_cpu, allocs, alloc_bytes }
    }

    /// Per-round total duration of the spans called `name`, in ns, indexed
    /// by round id (rounds without such a span are omitted).
    pub fn per_round_ns(&self, name: &str) -> Vec<f64> {
        let mut sums: Vec<Option<f64>> = Vec::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            let r = s.round as usize;
            if sums.len() <= r {
                sums.resize(r + 1, None);
            }
            *sums[r].get_or_insert(0.0) += (s.end_ns - s.start_ns) as f64;
        }
        sums.into_iter().flatten().collect()
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Renders one section of `trace.json`.
pub fn section_json(section: &str, spans: &[Span]) -> Value {
    let rows = spans
        .iter()
        .map(|s| {
            obj(vec![
                ("name", Value::str(s.name)),
                ("start_ns", Value::num(s.start_ns)),
                ("end_ns", Value::num(s.end_ns)),
                ("parent", if s.parent == NO_PARENT { Value::Null } else { Value::num(s.parent) }),
                ("round", Value::num(s.round)),
            ])
        })
        .collect();
    obj(vec![("section", Value::str(section)), ("spans", Value::Arr(rows))])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_round_and_sum_per_round() {
        let mut rec = Recorder::tracing(16);
        for round in 0..2 {
            rec.set_round(round);
            let open = rec.start_round();
            rec.span("layer.a", || std::hint::black_box(1 + 1));
            rec.span("layer.a", || std::hint::black_box(2 + 2));
            rec.span("layer.b", || ());
            let sample = rec.stop_round(open);
            assert!(sample.wall_ns > 0.0);
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 8);
        assert_eq!(spans[0].name, "round");
        assert_eq!(spans[0].parent, NO_PARENT);
        assert!(spans[1..4].iter().all(|s| s.parent == 0 && s.round == 0));
        assert!(spans[5..8].iter().all(|s| s.parent == 4 && s.round == 1));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(rec.per_round_ns("layer.a").len(), 2);
        assert_eq!(rec.per_round_ns("layer.b").len(), 2);
        assert!(rec.per_round_ns("absent").is_empty());
        let json = section_json("t", spans).render();
        assert!(json.contains("\"parent\":null") && json.contains("\"parent\":4"), "{json}");
    }

    #[test]
    fn an_idle_recorder_keeps_nothing() {
        let mut rec = Recorder::off();
        let open = rec.start_round();
        rec.span("layer.a", || ());
        let sample = rec.stop_round(open);
        assert!(rec.spans().is_empty());
        assert_eq!((sample.allocs, sample.alloc_bytes), (0, 0));
    }
}
