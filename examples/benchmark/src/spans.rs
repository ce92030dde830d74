//! The benchmark-owned trace sink: every span of a traced run, kept in
//! memory and written out only at exit.
//!
//! Two sources feed one store. The journal (`FlConfig.trace`) reports the
//! trainer's `round` / `hydrate` / `aggregate` / `evaluate` spans and each
//! client's worker-side host time (`ClientDone`); the benchmark adds its own
//! outer spans around workload build, `Trainer::new_with_workers`, warm-up
//! and every `run_round()` call. A journal span arrives when it *ends* and
//! carries only its duration, so its start is reconstructed as
//! `arrival − duration`; `client` spans ran on a worker thread and are
//! placed the same way at the moment the journal merged them.

use fedca_core::{TraceEvent, TraceRecord, TraceSink};
use std::borrow::Cow;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const RUN_ROUND: &str = "run_round";

/// One closed span. `round` is the id every span of one round shares
/// (0 for spans outside any round: set-up).
pub struct Span {
    /// Borrowed for the benchmark's own names and for `client` (the bulk of
    /// a trace, recorded on the trainer's thread), owned for journal names.
    pub name: Cow<'static, str>,
    pub round: u64,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

struct Store {
    epoch: Instant,
    spans: Vec<Span>,
    /// Journal spans that ended since the last `round` span closed: the
    /// children of the round still open.
    orphans: Vec<usize>,
    rounds_closed: u64,
    /// Index of the first span of the measured loop; totals start here so
    /// set-up and warm-up stay out of the shares.
    measured_from: usize,
}

/// Cloneable handle: one clone goes into the tracer as its sink, the
/// benchmark keeps the other to add its own spans and read the result.
#[derive(Clone)]
pub struct SpanStore(Arc<Mutex<Store>>);

impl SpanStore {
    pub fn new() -> Self {
        SpanStore(Arc::new(Mutex::new(Store {
            epoch: Instant::now(),
            spans: Vec::new(),
            orphans: Vec::new(),
            rounds_closed: 0,
            measured_from: 0,
        })))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Store> {
        self.0
            .lock()
            .expect("span store poisoned by a panicking sink")
    }

    /// Records a benchmark-owned span that started at `started` and ends
    /// now; returns its index.
    pub fn close_outer(&self, name: &'static str, started: Instant) -> usize {
        let mut s = self.lock();
        let end_us = s.epoch.elapsed().as_secs_f64() * 1e6;
        let start_us = started.duration_since(s.epoch).as_secs_f64() * 1e6;
        let round = if name == RUN_ROUND {
            s.rounds_closed
        } else {
            0
        };
        s.spans.push(Span {
            name: Cow::Borrowed(name),
            round,
            start_us,
            end_us,
            parent: None,
        });
        s.spans.len() - 1
    }

    /// The span around one `run_round()` call: it adopts the journal's
    /// `round` span that closed inside it.
    pub fn close_run_round(&self, started: Instant) {
        let idx = self.close_outer(RUN_ROUND, started);
        let mut s = self.lock();
        let round = s.rounds_closed;
        if let Some(inner) = s.spans[..idx]
            .iter_mut()
            .rev()
            .find(|sp| sp.name == "round" && sp.round == round)
        {
            inner.parent = Some(idx);
        }
    }

    /// Starts the measured part: spans recorded from here on count.
    pub fn mark_measured(&self) {
        let mut s = self.lock();
        s.measured_from = s.spans.len();
    }

    /// Sum of the durations of every measured span called `name`, in
    /// microseconds.
    pub fn total_us(&self, name: &str) -> f64 {
        let s = self.lock();
        s.spans[s.measured_from..]
            .iter()
            .filter(|sp| sp.name == name)
            .map(Span::dur_us)
            .fold(0.0, |acc, us| acc + us)
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.lock().spans.len()
    }

    /// One JSON object per line: name, round, start, end, parent.
    pub fn to_jsonl(&self) -> String {
        let s = self.lock();
        let mut out = String::new();
        for (i, sp) in s.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"round\":{},\"start_us\":{:?},\"end_us\":{:?},\"parent\":{parent}}}\n",
                sp.name, sp.round, sp.start_us, sp.end_us
            ));
        }
        out
    }
}

impl TraceSink for SpanStore {
    fn record(&mut self, rec: &TraceRecord) {
        let name = match &rec.event {
            TraceEvent::Span { name } => Cow::Owned(name.clone()),
            TraceEvent::ClientDone { .. } => Cow::Borrowed("client"),
            _ => return,
        };
        let mut s = self.lock();
        let end_us = s.epoch.elapsed().as_secs_f64() * 1e6;
        let idx = s.spans.len();
        let round = s.rounds_closed + 1;
        let closes_round = name == "round";
        s.spans.push(Span {
            name,
            round,
            start_us: end_us - rec.host_us,
            end_us,
            parent: None,
        });
        if closes_round {
            for child in std::mem::take(&mut s.orphans) {
                s.spans[child].parent = Some(idx);
            }
            s.rounds_closed = round;
        } else {
            s.orphans.push(idx);
        }
    }
}
