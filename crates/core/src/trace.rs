//! Structured tracing for the round pipeline: a zero-cost-when-disabled
//! event journal whose canonical stream is a pure function of the
//! experiment seed.
//!
//! FedCA's claims are trajectory claims — time-to-accuracy, per-layer
//! eager-transmission timing, aggregation-cut placement — so the simulator
//! records *typed events* for every decision the pipeline takes: round
//! open/close, client checkout/done/failed, fault firings, eager
//! transmissions, aggregation cuts, anchor profiling, and wall-clock spans.
//!
//! ## Determinism contract
//!
//! The canonical stream is ordered by `(virtual time, ordinal, intra-client
//! sequence)` and contains **no host-time data**, so it is byte-identical
//! across reruns and across worker-pool sizes:
//!
//! * client-side events are buffered locally on the worker (inside the
//!   client's own deterministic round) and merged by the trainer in
//!   canonical order at round close — the OS-level completion order of
//!   workers never reaches the stream;
//! * host-time deltas ([`TraceRecord::host_us`]) ride along on every record
//!   for profiling sinks, but the canonical JSONL line
//!   ([`TraceRecord::canonical_line`]) omits them; a span's delta is the
//!   number the round record carries for the same interval
//!   ([`Tracer::span`]), measured once;
//! * when tracing is disabled ([`Tracer::disabled`], the default), the hot
//!   path is a single inline boolean check and no event is ever
//!   materialized.
//!
//! Events implement `Serialize`/`Deserialize` (externally-tagged JSON), so
//! a dumped JSONL trace can be parsed back for regression diffing.

use fedca_sim::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Ordinal used for server-scoped records (round framing, cuts, spans)
/// that do not belong to one selected client.
pub const SERVER_ORD: usize = usize::MAX;

/// Sentinel sequence number for *offstream* records: profiling-only events
/// (e.g. the server's `aggregate` span) that ride through the sinks without
/// consuming a canonical stream slot. Golden fixtures pin every canonical
/// record's `seq`; an offstream record never shifts them and is excluded
/// from [`Tracer::canonical_jsonl`].
pub const OFFSTREAM_SEQ: u64 = u64::MAX;

/// Tracing section of [`FlConfig`](crate::config::FlConfig). The default is
/// disabled and behaviourally invisible.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Master switch. When off, no event is recorded anywhere.
    #[serde(default)]
    pub enabled: bool,
}

impl TraceConfig {
    /// Tracing off (the default).
    pub fn disabled() -> Self {
        TraceConfig { enabled: false }
    }

    /// Tracing on.
    pub fn enabled() -> Self {
        TraceConfig { enabled: true }
    }
}

/// Capacity of the trainer's built-in ring buffer (records). A traced
/// `pop_dense` round emits about 400, so a run outgrows it only after
/// ~160 such rounds — and then [`Tracer::canonical_jsonl`] refuses to
/// answer rather than return a suffix.
pub const RING_CAPACITY: usize = 1 << 16;

/// One typed event in the round pipeline. Externally-tagged JSON keeps the
/// kind readable in a JSONL dump: `{"RoundOpen":{"round":0,...}}`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A trainer run began (first record of a dumped stream).
    RunStart {
        /// Scheme name (`FedAvg`, `FedCA`, …).
        scheme: String,
        /// Workload name.
        workload: String,
        /// Master experiment seed.
        seed: u64,
        /// Worker-pool size. Excluded from the canonical *comparison* in
        /// the golden test's 1-vs-N check via [`TraceEvent::is_canonical`].
        n_workers: usize,
    },
    /// A communication round opened.
    RoundOpen {
        /// Round index.
        round: usize,
        /// Clients selected this round.
        n_selected: usize,
        /// Round deadline `T_R` (duration from round start).
        deadline: SimTime,
    },
    /// A selected client was made resident in the lazy client store.
    /// Excluded from the canonical stream: residency is an operational
    /// concern (cache policy, memory), and an eager run hydrates everything
    /// up front while a lazy run hydrates per selection — their
    /// trajectories are identical regardless.
    ClientHydrated {
        /// Round index.
        round: usize,
        /// Client id.
        client: usize,
        /// `true` when the client was derived fresh from `(seed, id)` (a
        /// real hydration), `false` on a residency-cache hit.
        fresh: bool,
    },
    /// A selected client's state was checked out to the worker pool.
    ClientCheckout {
        /// Round index.
        round: usize,
        /// Client id.
        client: usize,
        /// Planned local iterations.
        planned_iters: usize,
        /// Whether this is an unoptimized profiling (anchor) participation.
        is_anchor: bool,
    },
    /// The fault plan armed at least one fault for this `(round, client)`.
    FaultArmed {
        /// Round index.
        round: usize,
        /// Client id.
        client: usize,
        /// Names of the armed fault classes, in canonical order.
        kinds: Vec<String>,
    },
    /// An armed fault actually fired inside the client round.
    FaultFired {
        /// Round index.
        round: usize,
        /// Client id.
        client: usize,
        /// Fault class name (`crash`, `result_loss`, `result_delay`).
        kind: String,
        /// Local iteration at which it fired (0 for end-of-round faults).
        iter: usize,
    },
    /// A layer crossed its eager-transmission threshold and was uploaded
    /// mid-round (§4.3).
    EagerTransmit {
        /// Round index.
        round: usize,
        /// Client id.
        client: usize,
        /// Layer index within the model layout.
        layer: usize,
        /// Local iteration of the transmission.
        iter: usize,
        /// Payload bytes on the wire.
        bytes: f64,
    },
    /// The client stopped before its planned iterations (§4.2).
    EarlyStop {
        /// Round index.
        round: usize,
        /// Client id.
        client: usize,
        /// First iteration *not* executed.
        iter: usize,
    },
    /// An anchor round finished profiling (§4.1).
    AnchorProfiled {
        /// Round index.
        round: usize,
        /// Client id.
        client: usize,
        /// Iterations recorded into the curves.
        k: usize,
        /// Sampled scalars across all layers.
        sampled_params: usize,
    },
    /// A client round ran to completion and its state returned home.
    ClientDone {
        /// Round index.
        round: usize,
        /// Client id.
        client: usize,
        /// Iterations actually executed.
        iters_done: usize,
        /// Whether the client early-stopped.
        early_stopped: bool,
        /// Virtual arrival time of the upload (`None` if it never arrives:
        /// crashed or lost).
        upload_done: Option<SimTime>,
    },
    /// A client's worker panicked; its in-flight state was destroyed and
    /// the trainer rebuilt it from the blueprint.
    ClientFailed {
        /// Round index.
        round: usize,
        /// Client id.
        client: usize,
    },
    /// The streaming aggregator placed the round's arrival cut (§5.1).
    AggregationCut {
        /// Round index.
        round: usize,
        /// Virtual completion time of the round.
        completion: SimTime,
        /// Reports whose uploads made the cut.
        n_collected: usize,
        /// Uploads that actually arrived (finite arrival times).
        n_finite: usize,
    },
    /// The round closed and its record was pushed.
    RoundClose {
        /// Round index.
        round: usize,
        /// Virtual end time.
        end: SimTime,
        /// Clients aggregated.
        n_aggregated: usize,
        /// Clients lost to crashes or panics.
        n_crashed: usize,
        /// Survivors whose upload missed the cut, lost results (arriving at
        /// +∞) included.
        n_deadline_missed: usize,
    },
    /// A named wall-clock span closed; its duration is in the record's
    /// [`host_us`](TraceRecord::host_us) (never in the canonical line).
    Span {
        /// Span name (`hydrate`, `aggregate`, `evaluate`, `round`).
        name: String,
    },
    /// A shard's link went down, or the shard could not be (re)started,
    /// greeted or dispatched to, or it stalled past the io timeout: its child process
    /// was killed and the shard is out for the round. Excluded from the
    /// canonical stream (quarantine is a recovery action, not a trajectory
    /// event — the reassigned work produces identical results).
    ShardQuarantined {
        /// Round index.
        round: usize,
        /// Quarantined shard.
        shard: usize,
        /// The check that fired (`eof`, `frame checksum mismatch…`,
        /// `sequence gap…`, `io timeout…`, `shard handshake failed…`,
        /// `killed by kill plan`, …).
        reason: String,
    },
    /// An unresolved ordinal from a quarantined shard was re-executed on
    /// the coordinator's local executor. Excluded from the canonical
    /// stream (the re-execution is bit-identical to the shard's).
    OrdinalReassigned {
        /// Round index.
        round: usize,
        /// Quarantined shard the ordinal was taken from.
        shard: usize,
        /// Selection ordinal that moved.
        ord: usize,
        /// Client id at that ordinal.
        client: usize,
    },
}

impl TraceEvent {
    /// Short kind name (`round_open`, `span`, …), for counting events.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::RunStart { .. } => "run_start",
            TraceEvent::RoundOpen { .. } => "round_open",
            TraceEvent::ClientHydrated { .. } => "client_hydrated",
            TraceEvent::ClientCheckout { .. } => "client_checkout",
            TraceEvent::FaultArmed { .. } => "fault_armed",
            TraceEvent::FaultFired { .. } => "fault_fired",
            TraceEvent::EagerTransmit { .. } => "eager_transmit",
            TraceEvent::EarlyStop { .. } => "early_stop",
            TraceEvent::AnchorProfiled { .. } => "anchor_profiled",
            TraceEvent::ClientDone { .. } => "client_done",
            TraceEvent::ClientFailed { .. } => "client_failed",
            TraceEvent::AggregationCut { .. } => "aggregation_cut",
            TraceEvent::RoundClose { .. } => "round_close",
            TraceEvent::Span { .. } => "span",
            TraceEvent::ShardQuarantined { .. } => "shard_quarantined",
            TraceEvent::OrdinalReassigned { .. } => "ordinal_reassigned",
        }
    }

    /// Whether the event belongs to the canonical (worker-count-invariant)
    /// stream. `RunStart` names the pool size and is excluded, and so is
    /// `ClientHydrated` (residency is a cache policy). Shard-failover events
    /// (quarantines, reassignments) depend on host timing
    /// and on which child died when, never on the trajectory, so a run that
    /// lost shards keeps a canonical stream byte-identical to one that did
    /// not.
    pub fn is_canonical(&self) -> bool {
        !matches!(
            self,
            TraceEvent::RunStart { .. }
                | TraceEvent::ClientHydrated { .. }
                | TraceEvent::ShardQuarantined { .. }
                | TraceEvent::OrdinalReassigned { .. }
        )
    }
}

/// One journal record: a typed event stamped with virtual time, the
/// client's round ordinal (or [`SERVER_ORD`]), a stream sequence number,
/// and a host-time delta that is *never* part of the canonical line.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceRecord {
    /// Virtual time of the event.
    pub time: SimTime,
    /// Ordinal within the round's selection, or [`SERVER_ORD`].
    pub ord: usize,
    /// Position in the merged stream (assigned at emission).
    pub seq: u64,
    /// Host wall-clock microseconds attributed to the event (span
    /// durations, worker-side client-round cost); 0 when not measured.
    pub host_us: f64,
    /// The typed event.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// The canonical JSONL line: deterministic fields only, in a fixed
    /// field order. This is what golden-trace fixtures are made of.
    pub fn canonical_line(&self) -> String {
        let ord = if self.ord == SERVER_ORD {
            serde::Value::Null
        } else {
            serde::Value::Number(serde::Number::PosInt(self.ord as u64))
        };
        let obj = serde::Value::Object(vec![
            ("t".to_string(), self.time.to_value()),
            ("ord".to_string(), ord),
            ("seq".to_string(), self.seq.to_value()),
            ("event".to_string(), self.event.to_value()),
        ]);
        serde_json::to_string(&obj).expect("value trees always serialize")
    }
}

/// Where trace records go. Sinks are driven from the trainer thread only;
/// `Send` lets a tracer move with its trainer.
pub trait TraceSink: Send {
    /// Consumes one record (records arrive in canonical stream order).
    fn record(&mut self, rec: &TraceRecord);
}

/// Bounded in-memory sink: keeps the most recent `capacity` records.
pub struct RingBufferSink {
    capacity: usize,
    buf: VecDeque<TraceRecord>,
    /// Records evicted because the ring was full.
    dropped: u64,
}

impl RingBufferSink {
    /// Creates a ring holding at most `capacity` records (at least one).
    pub fn new(capacity: usize) -> Self {
        RingBufferSink {
            capacity: capacity.max(1),
            buf: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Records currently held, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.buf.iter()
    }

    /// Records evicted since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl TraceSink for RingBufferSink {
    fn record(&mut self, rec: &TraceRecord) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(rec.clone());
    }
}

/// Streams canonical JSONL to any writer (a file, a `Vec<u8>`, stdout).
/// A buffered file writer flushes when the sink drops with its tracer.
pub struct JsonlSink<W: Write + Send> {
    writer: W,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> Self {
        JsonlSink { writer }
    }
}

impl JsonlSink<std::io::BufWriter<std::fs::File>> {
    /// Creates (truncating) a JSONL trace file.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        Ok(JsonlSink::new(std::io::BufWriter::new(
            std::fs::File::create(path)?,
        )))
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn record(&mut self, rec: &TraceRecord) {
        let _ = writeln!(self.writer, "{}", rec.canonical_line());
    }
}

/// An event with its virtual timestamp, buffered inside a client round
/// before the trainer merges it into the canonical stream.
#[derive(Clone, Debug, PartialEq)]
pub struct PendingEvent {
    /// Virtual time of the event.
    pub time: SimTime,
    /// Host wall-clock microseconds attributed to the event (0 when not
    /// measured); never part of the canonical line.
    pub host_us: f64,
    /// The typed event.
    pub event: TraceEvent,
}

struct TracerInner {
    sinks: Vec<Box<dyn TraceSink>>,
    /// Built-in ring buffer, always attached when tracing is on.
    ring: RingBufferSink,
    next_seq: u64,
}

/// Locks `m`, ignoring poisoning: a sink that panicked mid-record must not
/// wedge the journal. The recovered state is valid, because the sequence
/// counter and the ring are updated before any sink runs.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The tracing handle the trainer carries. Cloning shares the journal.
///
/// A disabled tracer ([`Tracer::disabled`]) is a unit value: every call
/// short-circuits on one inline boolean, so the hot path pays nothing.
#[derive(Clone)]
pub struct Tracer {
    inner: Option<Arc<Mutex<TracerInner>>>,
}

impl Tracer {
    /// The no-op tracer (the default when `TraceConfig.enabled` is false).
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// An enabled tracer whose built-in ring holds `capacity` records
    /// ([`RING_CAPACITY`] for a trainer's).
    pub fn enabled(capacity: usize) -> Self {
        Tracer {
            inner: Some(Arc::new(Mutex::new(TracerInner {
                sinks: Vec::new(),
                ring: RingBufferSink::new(capacity),
                next_seq: 0,
            }))),
        }
    }

    /// Builds a tracer from the config section.
    pub fn from_config(cfg: &TraceConfig) -> Self {
        if cfg.enabled {
            Tracer::enabled(RING_CAPACITY)
        } else {
            Tracer::disabled()
        }
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Attaches an additional sink (a file writer, a profiler's store, …).
    /// No-op on a disabled tracer.
    pub fn add_sink(&self, sink: Box<dyn TraceSink>) {
        if let Some(inner) = &self.inner {
            lock(inner).sinks.push(sink);
        }
    }

    /// Emits one record into every sink, assigning the next stream
    /// sequence number. No-op (a single branch) when disabled.
    #[inline]
    pub fn emit(&self, time: SimTime, ord: usize, host_us: f64, event: TraceEvent) {
        self.push(time, ord, host_us, event, false);
    }

    /// Emits one *offstream* record: it reaches every sink (ring included)
    /// but carries [`OFFSTREAM_SEQ`] instead of consuming the next stream
    /// sequence number, so canonical seqs — and the golden fixtures that
    /// pin them — are untouched. Use for host-profiling events whose
    /// presence must not depend on being replayed identically (spans
    /// measured around server-side work).
    #[inline]
    pub fn emit_offstream(&self, time: SimTime, ord: usize, host_us: f64, event: TraceEvent) {
        self.push(time, ord, host_us, event, true);
    }

    /// Emits a server-scoped [`TraceEvent::Span`] whose host delta is a
    /// duration the caller already measured — the round record's own
    /// number for the same interval, so a span never disagrees with the
    /// record. `offstream` routes it through
    /// [`emit_offstream`](Self::emit_offstream). Builds nothing when
    /// tracing is off.
    #[inline]
    pub fn span(&self, name: &str, time: SimTime, host_us: f64, offstream: bool) {
        if self.is_enabled() {
            let event = TraceEvent::Span {
                name: name.to_string(),
            };
            self.push(time, SERVER_ORD, host_us, event, offstream);
        }
    }

    #[inline]
    fn push(&self, time: SimTime, ord: usize, host_us: f64, event: TraceEvent, offstream: bool) {
        let Some(inner) = &self.inner else { return };
        let mut inner = lock(inner);
        let seq = if offstream {
            OFFSTREAM_SEQ
        } else {
            let seq = inner.next_seq;
            inner.next_seq += 1;
            seq
        };
        let rec = TraceRecord {
            time,
            ord,
            seq,
            host_us,
            event,
        };
        inner.ring.record(&rec);
        for sink in &mut inner.sinks {
            sink.record(&rec);
        }
    }

    /// Merges per-client buffered events into the canonical stream:
    /// a stable sort by `(virtual time, ordinal)` — intra-client emission
    /// order is preserved by stability — then emission in that order.
    /// The result is independent of worker count and completion order
    /// because the buffers themselves are per-client deterministic.
    pub fn merge_client_events(&self, mut batches: Vec<(usize, Vec<PendingEvent>)>) {
        if self.inner.is_none() {
            return;
        }
        batches.sort_by_key(|(ord, _)| *ord);
        let mut merged: Vec<(SimTime, usize, PendingEvent)> = Vec::new();
        for (ord, events) in batches {
            for e in events {
                merged.push((e.time, ord, e));
            }
        }
        merged.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("virtual times are never NaN")
                .then(a.1.cmp(&b.1))
        });
        for (time, ord, e) in merged {
            self.emit(time, ord, e.host_us, e.event);
        }
    }

    /// Snapshot of the built-in ring buffer (empty when disabled).
    pub fn ring_records(&self) -> Vec<TraceRecord> {
        match &self.inner {
            Some(inner) => lock(inner).ring.records().cloned().collect(),
            None => Vec::new(),
        }
    }

    /// Canonical JSONL of the ring's *canonical* records — the golden-trace
    /// text. `RunStart` (which names the worker count) and offstream
    /// records ([`OFFSTREAM_SEQ`]) are excluded.
    ///
    /// # Panics
    /// Panics if the ring has evicted anything: the text would be a suffix
    /// of the stream, and two equal suffixes prove nothing.
    pub fn canonical_jsonl(&self) -> String {
        let Some(inner) = &self.inner else {
            return String::new();
        };
        let inner = lock(inner);
        let dropped = inner.ring.dropped();
        assert!(
            dropped == 0,
            "the trace ring evicted {dropped} records; the canonical stream is incomplete"
        );
        let mut out = String::new();
        for rec in inner.ring.records() {
            if rec.event.is_canonical() && rec.seq != OFFSTREAM_SEQ {
                out.push_str(&rec.canonical_line());
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(round: usize) -> TraceEvent {
        TraceEvent::RoundOpen {
            round,
            n_selected: 4,
            deadline: 2.5,
        }
    }

    /// An attached sink that shares the seqs it saw with the test.
    #[derive(Clone, Default)]
    struct Seqs(Arc<Mutex<Vec<u64>>>);

    impl TraceSink for Seqs {
        fn record(&mut self, rec: &TraceRecord) {
            lock(&self.0).push(rec.seq);
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.emit(1.0, 0, 0.0, ev(0));
        t.merge_client_events(vec![(
            0,
            vec![PendingEvent {
                time: 1.0,
                host_us: 0.0,
                event: ev(0),
            }],
        )]);
        assert!(t.ring_records().is_empty());
        t.span("noop", 1.0, 5.0, false);
        assert!(t.ring_records().is_empty());
        assert!(t.canonical_jsonl().is_empty());
    }

    #[test]
    fn emit_assigns_monotone_seq_and_feeds_every_sink() {
        let t = Tracer::enabled(16);
        let sink = Seqs::default();
        t.add_sink(Box::new(sink.clone()));
        for i in 0..3 {
            t.emit(i as f64, SERVER_ORD, 0.0, ev(i));
        }
        let recs = t.ring_records();
        assert_eq!(
            recs.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(*lock(&sink.0), vec![0, 1, 2]);
    }

    #[test]
    fn a_sink_that_panics_does_not_wedge_the_journal() {
        struct PanicsOnce(bool);
        impl TraceSink for PanicsOnce {
            fn record(&mut self, _: &TraceRecord) {
                assert!(std::mem::replace(&mut self.0, true), "sink failed");
            }
        }
        let t = Tracer::enabled(16);
        t.add_sink(Box::new(PanicsOnce(false)));
        let emit = std::panic::AssertUnwindSafe(|| t.emit(0.0, SERVER_ORD, 0.0, ev(0)));
        assert!(std::panic::catch_unwind(emit).is_err());
        // The lock the panic poisoned still opens, for emitters and readers.
        t.emit(1.0, SERVER_ORD, 0.0, ev(1));
        let seqs: Vec<u64> = t.ring_records().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1]);
    }

    #[test]
    fn offstream_records_reach_sinks_but_not_the_canonical_stream() {
        let t = Tracer::enabled(16);
        let sink = Seqs::default();
        t.add_sink(Box::new(sink.clone()));
        t.emit(0.0, SERVER_ORD, 0.0, ev(0));
        t.span("aggregate", 0.5, 12.5, true);
        t.emit(1.0, SERVER_ORD, 0.0, ev(1));
        let recs = t.ring_records();
        // The span rode through the ring and the sink with the sentinel seq,
        // carrying the measured duration it was handed, and the canonical
        // seqs on either side were not shifted by it.
        assert_eq!(*lock(&sink.0), vec![0, OFFSTREAM_SEQ, 1]);
        assert_eq!(
            recs.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, OFFSTREAM_SEQ, 1]
        );
        assert!(matches!(&recs[1].event, TraceEvent::Span { name } if name == "aggregate"));
        assert_eq!(recs[1].host_us, 12.5);
        // ...and the golden-trace text contains only the two round opens.
        let jsonl = t.canonical_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(!jsonl.contains("Span"), "offstream span leaked: {jsonl}");
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut ring = RingBufferSink::new(2);
        for i in 0..5u64 {
            ring.record(&TraceRecord {
                time: i as f64,
                ord: SERVER_ORD,
                seq: i,
                host_us: 0.0,
                event: ev(i as usize),
            });
        }
        assert_eq!(ring.dropped(), 3);
        let seqs: Vec<u64> = ring.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
    }

    #[test]
    fn canonical_line_has_fixed_shape_and_no_host_time() {
        let rec = TraceRecord {
            time: 1.5,
            ord: 2,
            seq: 7,
            host_us: 123.4,
            event: TraceEvent::EarlyStop {
                round: 3,
                client: 5,
                iter: 4,
            },
        };
        let line = rec.canonical_line();
        assert!(line.starts_with("{\"t\":1.5,\"ord\":2,\"seq\":7,\"event\":"));
        assert!(!line.contains("host"), "host time leaked: {line}");
        // Server-scoped ordinals serialize as null.
        let server = TraceRecord {
            ord: SERVER_ORD,
            ..rec
        };
        assert!(server.canonical_line().contains("\"ord\":null"));
    }

    #[test]
    fn merge_orders_by_time_then_ordinal_regardless_of_batch_order() {
        let batch = |ord: usize, times: &[f64]| {
            (
                ord,
                times
                    .iter()
                    .map(|&t| PendingEvent {
                        time: t,
                        host_us: 0.0,
                        event: TraceEvent::EagerTransmit {
                            round: 0,
                            client: ord,
                            layer: 0,
                            iter: 1,
                            bytes: 1.0,
                        },
                    })
                    .collect::<Vec<_>>(),
            )
        };
        let run = |batches: Vec<(usize, Vec<PendingEvent>)>| {
            let t = Tracer::enabled(64);
            t.merge_client_events(batches);
            t.canonical_jsonl()
        };
        // Completion order scrambled (2, 0, 1) vs sorted — same stream.
        let a = run(vec![
            batch(2, &[0.5, 2.0]),
            batch(0, &[1.0]),
            batch(1, &[0.5]),
        ]);
        let b = run(vec![
            batch(0, &[1.0]),
            batch(1, &[0.5]),
            batch(2, &[0.5, 2.0]),
        ]);
        assert_eq!(a, b);
        // Time is the primary key, ordinal breaks ties.
        let ords: Vec<Option<u64>> = a
            .lines()
            .map(|l| {
                let v = serde_json::parse(l).unwrap();
                match v.get("ord").unwrap() {
                    serde::Value::Number(n) => n.as_u64(),
                    _ => None,
                }
            })
            .collect();
        assert_eq!(ords, vec![Some(1), Some(2), Some(0), Some(2)]);
    }

    #[test]
    #[should_panic(expected = "evicted 1 records")]
    fn canonical_jsonl_refuses_a_ring_that_evicted() {
        let t = Tracer::enabled(2);
        for i in 0..3 {
            t.emit(i as f64, SERVER_ORD, 0.0, ev(i));
        }
        t.canonical_jsonl();
    }

    #[test]
    fn jsonl_sink_writes_one_parseable_line_per_record() {
        let mut out = Vec::new();
        JsonlSink::new(&mut out).record(&TraceRecord {
            time: 2.0,
            ord: 1,
            seq: 0,
            host_us: 9.0,
            event: ev(4),
        });
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(!text.contains("host"), "host time reached the file: {text}");
        let v = serde_json::parse(text.lines().next().unwrap()).unwrap();
        let back = TraceEvent::from_value(v.get("event").unwrap());
        assert_eq!(back.unwrap(), ev(4));
    }

    #[test]
    fn trace_event_serde_round_trips_every_variant() {
        let variants = vec![
            TraceEvent::RunStart {
                scheme: "FedCA".into(),
                workload: "cnn".into(),
                seed: 7,
                n_workers: 4,
            },
            ev(1),
            TraceEvent::ClientHydrated {
                round: 1,
                client: 2,
                fresh: true,
            },
            TraceEvent::ClientCheckout {
                round: 1,
                client: 2,
                planned_iters: 6,
                is_anchor: true,
            },
            TraceEvent::FaultArmed {
                round: 1,
                client: 2,
                kinds: vec!["crash".into(), "deadline_slip".into()],
            },
            TraceEvent::FaultFired {
                round: 1,
                client: 2,
                kind: "crash".into(),
                iter: 3,
            },
            TraceEvent::EagerTransmit {
                round: 1,
                client: 2,
                layer: 0,
                iter: 4,
                bytes: 1024.0,
            },
            TraceEvent::EarlyStop {
                round: 1,
                client: 2,
                iter: 5,
            },
            TraceEvent::AnchorProfiled {
                round: 0,
                client: 2,
                k: 6,
                sampled_params: 107,
            },
            TraceEvent::ClientDone {
                round: 1,
                client: 2,
                iters_done: 6,
                early_stopped: false,
                upload_done: Some(3.5),
            },
            TraceEvent::ClientDone {
                round: 1,
                client: 3,
                iters_done: 2,
                early_stopped: false,
                upload_done: None,
            },
            TraceEvent::ClientFailed {
                round: 1,
                client: 2,
            },
            TraceEvent::AggregationCut {
                round: 1,
                completion: 9.5,
                n_collected: 3,
                n_finite: 4,
            },
            TraceEvent::RoundClose {
                round: 1,
                end: 9.5,
                n_aggregated: 3,
                n_crashed: 1,
                n_deadline_missed: 0,
            },
            TraceEvent::Span {
                name: "evaluate".into(),
            },
            TraceEvent::ShardQuarantined {
                round: 2,
                shard: 1,
                reason: "io timeout: no progress in 30s".into(),
            },
            TraceEvent::OrdinalReassigned {
                round: 2,
                shard: 1,
                ord: 5,
                client: 17,
            },
        ];
        for v in variants {
            let json = serde_json::to_string(&v).unwrap();
            let back: TraceEvent = serde_json::from_str(&json).unwrap();
            assert_eq!(back, v, "round trip failed for {json}");
            assert!(!v.kind().is_empty());
        }
    }

    #[test]
    fn shard_failover_events_are_offstream_only() {
        // A run that lost shards must never shift canonical seqs.
        let events = [
            TraceEvent::ShardQuarantined {
                round: 0,
                shard: 0,
                reason: "test".into(),
            },
            TraceEvent::OrdinalReassigned {
                round: 0,
                shard: 0,
                ord: 0,
                client: 0,
            },
        ];
        for e in events {
            assert!(!e.is_canonical(), "{} must be non-canonical", e.kind());
        }
    }

    #[test]
    fn trace_config_defaults_off_and_round_trips() {
        assert!(!TraceConfig::default().enabled);
        let on = TraceConfig::enabled();
        let json = serde_json::to_string(&on).unwrap();
        let back: TraceConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, on);
        // `#[serde(default)]` drift guard: an empty object is the default.
        let empty: TraceConfig = serde_json::from_str("{}").unwrap();
        assert_eq!(empty, TraceConfig::default());
    }
}
