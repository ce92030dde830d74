//! Sharded multi-process execution with hierarchical aggregation.
//!
//! The population is split across N shard processes, client `id` on shard
//! `id % N`. Each shard runs its own [`RoundExecutor`] worker pool and
//! forwards every finished client to the root coordinator, which performs
//! the one and only cut by folding reports in **ordinal order** — exactly
//! what the single-process path does — so the merged `(SimTime,
//! ordinal)`-sorted stream (golden trace, round records, final parameters)
//! is byte-identical for any topology.
//!
//! [`ShardPool`] speaks the executor's vocabulary: [`ClientWork`] in,
//! [`ClientDone`] out. The root owns all cross-round state: the lazy
//! [`ClientStore`](crate::population::ClientStore), the selection RNG, the
//! global model and the tracer. The pool keeps each checked-out
//! [`ClientState`] beside its outstanding ordinal; a [`WorkItem`] ships
//! `{ordinal, client id, plan, snapshot}` and the stateless child rebuilds
//! the client as `factory.build(id)` + `apply_snapshot` — bit-identical to
//! the root re-hydrating an evicted client — and the snapshot it sends back
//! is applied onto the retained state.
//!
//! There is **one failure rule: a shard fault ends the run.** Whatever goes
//! wrong with a shard — a spawn or handshake fails, its [`Link`] reports
//! `Down` (EOF, a frame or checksum error, a sequence gap), a dispatch
//! cannot be written, a message makes no sense, or nothing arrives within
//! the io timeout — the pool kills every child and returns a [`ShardError`]
//! that names the shard and the check, and the trainer panics with it. A
//! client that panics inside a child is not a shard fault: the child's
//! `catch_unwind` reports it as [`FromShard::Failed`], and the root sees a
//! [`ClientDone::Failed`] as it would from its own workers.
//!
//! Transport is the [`Link`] over Unix domain sockets: sequenced,
//! checksummed frames ([`Frame`], defined beside the link in
//! [`crate::transport`]) — detection only, no repair. Frame metadata is
//! JSON (all non-finite-capable floats cross as IEEE bit patterns, because
//! the vendored serde maps non-finite floats to `null`) plus an optional
//! binary payload holding the client's encoded wire update or the broadcast
//! global parameters. Every coordinator wait is bounded by the one
//! [`io_timeout`](crate::config::ShardConfig::io_timeout): the accept of a
//! spawned child, the `Init`/`Hello` handshake (read straight off the
//! socket, before either end wraps it in a link), every write (the root's
//! link carries a write timeout), and progress — link threads pump events
//! into an mpsc channel, and the coordinator only ever blocks in
//! `recv_timeout`.

use crate::algorithms::Scheme;
use crate::checkpoint::ClientSnapshot;
use crate::client::{ClientOptions, ClientRoundReport, ClientState, RoundPlan};
use crate::config::FlConfig;
use crate::eager::LayerOutcome;
use crate::executor::{
    ClientCompletion, ClientDone, ClientFailure, ClientWork, RoundCtx, RoundExecutor,
};
use crate::params::ModelLayout;
use crate::population::{apply_snapshot, snapshot_client, ClientFactory};
use crate::trace::{PendingEvent, TraceEvent};
use crate::transport::{
    encode_message, read_frame, Frame, FrameError, Link, LinkEvent, MAX_FRAME_LEN,
};
use crate::workload::{Workload, WorkloadSpec};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::{ErrorKind, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Environment variable carrying the coordinator's socket path. Its
/// presence turns a process into a shard child (see [`maybe_run_child`]).
pub const ENV_SOCKET: &str = "FEDCA_SHARD_SOCKET";
/// Environment variable carrying the child's shard id (diagnostics only;
/// the authoritative id arrives in [`ToShard::Init`]).
pub const ENV_SHARD_ID: &str = "FEDCA_SHARD_ID";

/// Errors from the sharded execution layer.
#[derive(Debug)]
pub enum ShardError {
    /// Nothing was outstanding, and no event arrived within the timeout.
    Timeout,
    /// The pool has been shut down.
    Disconnected,
    /// A shard process could not be spawned or did not connect within the
    /// io timeout.
    Spawn(String),
    /// A shard connected but the `Init`/`Hello` handshake did not complete
    /// within the io timeout.
    Handshake(String),
    /// Socket-level I/O failure.
    Io(std::io::Error),
    /// The peer violated the protocol.
    Protocol(String),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Timeout => write!(f, "timed out waiting for a shard event"),
            ShardError::Disconnected => write!(f, "shard pool is shut down"),
            ShardError::Spawn(why) => write!(f, "failed to start shard process: {why}"),
            ShardError::Handshake(why) => write!(f, "shard handshake failed: {why}"),
            ShardError::Io(e) => write!(f, "shard socket i/o error: {e}"),
            ShardError::Protocol(why) => write!(f, "shard protocol violation: {why}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl ShardError {
    /// The same error, its message prefixed with the shard it came from.
    fn on_shard(self, s: usize) -> Self {
        let at = |why: String| format!("shard {s}: {why}");
        match self {
            ShardError::Spawn(why) => ShardError::Spawn(at(why)),
            ShardError::Handshake(why) => ShardError::Handshake(at(why)),
            ShardError::Protocol(why) => ShardError::Protocol(at(why)),
            ShardError::Io(e) => ShardError::Io(std::io::Error::new(e.kind(), at(e.to_string()))),
            other => other,
        }
    }
}

impl From<std::io::Error> for ShardError {
    fn from(e: std::io::Error) -> Self {
        ShardError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Protocol messages
// ---------------------------------------------------------------------------

/// One client's work assignment, shipped root → shard. The snapshot is
/// everything a stateless child needs to rebuild the exact client state
/// the root checked out.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WorkItem {
    /// Global round ordinal (position in the selection list).
    pub ord: usize,
    /// Client id.
    pub client_id: usize,
    /// The round plan (all fields finite — JSON-lossless).
    pub plan: RoundPlan,
    /// Durable client state; `None` means "freshly built is exact".
    pub snapshot: Option<ClientSnapshot>,
}

/// Root → shard control messages (frame metadata; `RoundStart` carries the
/// broadcast global parameters as the binary payload, f32 little-endian).
#[derive(Clone, Debug, Serialize, Deserialize)]
// Transient protocol envelopes, one live at a time per connection — the
// size skew between variants is irrelevant and boxing would only churn.
#[allow(clippy::large_enum_variant)]
pub enum ToShard {
    /// Handshake: everything a stateless child needs to rebuild the
    /// federation-wide derivation context.
    Init {
        /// This child's shard id.
        shard_id: usize,
        /// Worker threads per shard.
        n_workers: usize,
        /// Federation hyperparameters.
        fl: FlConfig,
        /// Training scheme.
        scheme: Scheme,
        /// Registry spec the child rebuilds its workload from.
        workload: WorkloadSpec,
    },
    /// Dispatch one round's cohort for this shard.
    RoundStart {
        /// Round index.
        round: usize,
        /// The cohort.
        items: Vec<WorkItem>,
    },
    /// Clean shutdown: the child exits 0.
    Shutdown,
}

/// A trace event with its bit-exact timestamps (both can be non-finite in
/// principle; bits round-trip through JSON losslessly).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WireEvent {
    /// `PendingEvent::time` as f64 bits.
    pub time_bits: u64,
    /// `PendingEvent::host_us` as f64 bits.
    pub host_us_bits: u64,
    /// The event body (fully serde).
    pub event: TraceEvent,
}

impl WireEvent {
    fn from_pending(p: PendingEvent) -> Self {
        WireEvent {
            time_bits: p.time.to_bits(),
            host_us_bits: p.host_us.to_bits(),
            event: p.event,
        }
    }

    fn into_pending(self) -> PendingEvent {
        PendingEvent {
            time: f64::from_bits(self.time_bits),
            host_us: f64::from_bits(self.host_us_bits),
            event: self.event,
        }
    }
}

/// The socket encoding of one [`ClientCompletion`], shard → root: the
/// report field for field with every non-finite-capable float as IEEE bits,
/// plus the post-round durable client state. The report's wire update — the
/// exact bytes the in-process path hands its aggregator — travels as the
/// frame's binary payload (empty when the client sent nothing); the root's
/// ingest judges them by the same rule either way.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DoneMsg {
    /// Round index (protocol validation).
    pub round: usize,
    /// Global round ordinal.
    pub ord: usize,
    /// Client id.
    pub client_id: usize,
    /// `report.weight` bits.
    pub weight_bits: u64,
    /// Iterations completed.
    pub iters_done: usize,
    /// Early-stop flag.
    pub early_stopped: bool,
    /// `report.download_done` bits.
    pub download_done_bits: u64,
    /// `report.compute_done` bits.
    pub compute_done_bits: u64,
    /// `report.upload_done` bits (+inf ⇒ the upload never arrives).
    pub upload_done_bits: u64,
    /// Per-layer eager outcomes.
    pub eager_outcomes: Vec<LayerOutcome>,
    /// `report.bytes_uploaded` bits.
    pub bytes_uploaded_bits: u64,
    /// `report.wire_bytes_uploaded` bits.
    pub wire_bytes_uploaded_bits: u64,
    /// `report.wire_bytes_dense` bits.
    pub wire_bytes_dense_bits: u64,
    /// `report.train_loss` bits (f32; NaN when no iterations ran).
    pub train_loss_bits: u32,
    /// Crash fault fired.
    pub crashed: bool,
    /// Host-side wall time in the worker (f64 bits).
    pub host_us_bits: u64,
    /// The client's trace buffer.
    pub trace: Vec<WireEvent>,
    /// Post-round durable state, applied to the root's checked-out copy.
    pub snapshot: ClientSnapshot,
}

/// Shard → root messages.
#[derive(Clone, Debug, Serialize, Deserialize)]
// Transient protocol envelopes, one live at a time per connection — the
// size skew between variants is irrelevant and boxing would only churn.
#[allow(clippy::large_enum_variant)]
pub enum FromShard {
    /// Connection handshake.
    Hello {
        /// Shard id echoed back.
        shard_id: usize,
    },
    /// One client finished (payload: its wire update, if it sent one).
    Done(DoneMsg),
    /// One client's worker panicked.
    Failed {
        /// Round index.
        round: usize,
        /// Global round ordinal.
        ord: usize,
        /// Client id.
        client_id: usize,
        /// Panic message.
        panic_msg: String,
    },
}

// ---------------------------------------------------------------------------
// Transport helpers
// ---------------------------------------------------------------------------

/// Parses a link-delivered frame's JSON metadata into a protocol message.
fn parse_meta<T: serde::Deserialize>(frame: &Frame) -> Result<T, ShardError> {
    let meta = std::str::from_utf8(&frame.meta)
        .map_err(|_| ShardError::Protocol("frame metadata is not utf-8".into()))?;
    serde_json::from_str::<T>(meta)
        .map_err(|e| ShardError::Protocol(format!("bad frame metadata: {e}")))
}

/// Reads one handshake message straight off the socket, before either end
/// has wrapped it in a [`Link`]. `read_frame` reads exactly one frame's
/// bytes, so nothing that follows is lost to a buffer.
fn read_handshake<T: serde::Deserialize>(stream: &mut UnixStream) -> Result<T, ShardError> {
    match read_frame(stream, MAX_FRAME_LEN) {
        Ok(Some(frame)) => parse_meta(&frame),
        Ok(None) => Err(ShardError::Protocol("peer closed the socket".into())),
        Err(FrameError::Io(e)) => Err(ShardError::Io(e)),
        Err(e) => Err(ShardError::Protocol(e.to_string())),
    }
}

impl DoneMsg {
    /// Encodes one completed client for the socket: the message plus the
    /// frame payload (the report's wire update).
    pub fn from_completion(round: usize, done: ClientCompletion) -> (DoneMsg, Option<Vec<u8>>) {
        let r = done.report;
        let msg = DoneMsg {
            round,
            ord: done.ord,
            client_id: r.client_id,
            weight_bits: r.weight.to_bits(),
            iters_done: r.iters_done,
            early_stopped: r.early_stopped,
            download_done_bits: r.download_done.to_bits(),
            compute_done_bits: r.compute_done.to_bits(),
            upload_done_bits: r.upload_done.to_bits(),
            eager_outcomes: r.eager_outcomes,
            bytes_uploaded_bits: r.bytes_uploaded.to_bits(),
            wire_bytes_uploaded_bits: r.wire_bytes_uploaded.to_bits(),
            wire_bytes_dense_bits: r.wire_bytes_dense.to_bits(),
            train_loss_bits: r.train_loss.to_bits(),
            crashed: r.crashed,
            host_us_bits: done.host_us.to_bits(),
            trace: r.trace.into_iter().map(WireEvent::from_pending).collect(),
            snapshot: snapshot_client(&done.client),
        };
        (msg, r.wire_update)
    }

    /// Rebuilds the completion on the root: the report is bit-identical to
    /// the in-process one, and `client` — the state the pool kept for this
    /// ordinal — comes home with the shard's snapshot applied, which is
    /// bit-identical to the local state coming home whole.
    fn into_completion(self, payload: Vec<u8>, mut client: ClientState) -> ClientCompletion {
        apply_snapshot(&mut client, &self.snapshot);
        ClientCompletion {
            ord: self.ord,
            client,
            report: ClientRoundReport {
                client_id: self.client_id,
                weight: f64::from_bits(self.weight_bits),
                wire_update: (!payload.is_empty()).then_some(payload),
                iters_done: self.iters_done,
                early_stopped: self.early_stopped,
                download_done: f64::from_bits(self.download_done_bits),
                compute_done: f64::from_bits(self.compute_done_bits),
                upload_done: f64::from_bits(self.upload_done_bits),
                eager_outcomes: self.eager_outcomes,
                bytes_uploaded: f64::from_bits(self.bytes_uploaded_bits),
                wire_bytes_uploaded: f64::from_bits(self.wire_bytes_uploaded_bits),
                wire_bytes_dense: f64::from_bits(self.wire_bytes_dense_bits),
                train_loss: f32::from_bits(self.train_loss_bits),
                crashed: self.crashed,
                trace: self
                    .trace
                    .into_iter()
                    .map(WireEvent::into_pending)
                    .collect(),
            },
            host_us: f64::from_bits(self.host_us_bits),
        }
    }
}

// ---------------------------------------------------------------------------
// Shared execution world
// ---------------------------------------------------------------------------

/// Everything a shard child needs to rebuild and run clients from
/// [`WorkItem`]s, built once per process.
struct ShardWorld {
    factory: ClientFactory,
    workload: Workload,
    layout: Arc<ModelLayout>,
    opts: ClientOptions,
}

fn build_world(
    fl: &FlConfig,
    scheme: &Scheme,
    spec: &WorkloadSpec,
) -> Result<ShardWorld, ShardError> {
    let workload = spec
        .build()
        .ok_or_else(|| ShardError::Protocol(format!("unknown workload spec {:?}", spec)))?;
    let model = (workload.model_factory)();
    let layout = Arc::new(ModelLayout::from_spans(model.spans()));
    drop(model);
    Ok(ShardWorld {
        factory: ClientFactory::new(fl, &workload, layout.clone()),
        workload,
        layout,
        opts: scheme.client_options(),
    })
}

// ---------------------------------------------------------------------------
// Shard child
// ---------------------------------------------------------------------------

/// If this process was launched as a shard child (the [`ENV_SOCKET`]
/// variable is set), runs the shard server to completion and returns
/// `true` — the caller should then return from `main` immediately.
/// Exits the process with status 70 on a protocol or I/O error.
pub fn maybe_run_child() -> bool {
    let path = match std::env::var(ENV_SOCKET) {
        Ok(p) if !p.is_empty() => p,
        _ => return false,
    };
    if let Err(e) = run_child(&path) {
        let id = std::env::var(ENV_SHARD_ID).unwrap_or_else(|_| "?".into());
        eprintln!("fedca shard child {id}: fatal: {e}");
        std::process::exit(70);
    }
    true
}

/// Receives the next application message from the child's link.
/// `Ok(None)` on clean EOF (the coordinator closed the connection).
fn recv_link(rx: &Receiver<LinkEvent>) -> Result<Option<(ToShard, Vec<u8>)>, ShardError> {
    match rx.recv() {
        Err(_) => Err(ShardError::Disconnected),
        Ok(LinkEvent::Frame(frame)) => {
            let msg = parse_meta::<ToShard>(&frame)?;
            Ok(Some((msg, frame.payload)))
        }
        Ok(LinkEvent::Down(reason)) if reason == crate::transport::EOF => Ok(None),
        Ok(LinkEvent::Down(reason)) => Err(ShardError::Protocol(format!("link down: {reason}"))),
    }
}

fn run_child(path: &str) -> Result<(), ShardError> {
    // The handshake mirrors the coordinator's: one frame each way on the
    // raw stream, then the link takes over with both directions at seq 0.
    let mut stream = UnixStream::connect(path)?;
    let (shard_id, n_workers, fl, scheme, spec) = match read_handshake::<ToShard>(&mut stream)? {
        ToShard::Init {
            shard_id,
            n_workers,
            fl,
            scheme,
            workload,
        } => (shard_id, n_workers, fl, scheme, workload),
        other => {
            return Err(ShardError::Protocol(format!(
                "expected Init, got {other:?}"
            )))
        }
    };
    // Hello goes out *before* the world build so the coordinator's
    // handshake bound covers transport latency only, never model or
    // dataset construction time.
    stream.write_all(&encode_message(0, &FromShard::Hello { shard_id }, None)?)?;
    let (tx, rx) = channel::<LinkEvent>();
    let link = Link::new(stream, shard_id, None, move |ev| {
        let _ = tx.send(ev);
    })?;

    let world = build_world(&fl, &scheme, &spec)?;
    let mut executor = RoundExecutor::new(n_workers);

    loop {
        match recv_link(&rx)? {
            None | Some((ToShard::Shutdown, _)) => return Ok(()),
            Some((ToShard::Init { .. }, _)) => {
                return Err(ShardError::Protocol("duplicate Init".into()))
            }
            Some((ToShard::RoundStart { round, items }, global_payload)) => {
                run_child_round(
                    &link,
                    &mut executor,
                    &world,
                    &fl,
                    round,
                    items,
                    &global_payload,
                )?;
            }
        }
    }
}

fn run_child_round(
    link: &Link,
    executor: &mut RoundExecutor,
    world: &ShardWorld,
    fl: &FlConfig,
    round: usize,
    items: Vec<WorkItem>,
    global_payload: &[u8],
) -> Result<(), ShardError> {
    let layout = &world.layout;
    if global_payload.len() != 4 * layout.total_params() {
        return Err(ShardError::Protocol(format!(
            "global payload is {} bytes, expected {}",
            global_payload.len(),
            4 * layout.total_params()
        )));
    }
    let mut global = Vec::with_capacity(layout.total_params());
    for chunk in global_payload.chunks_exact(4) {
        global.push(f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]));
    }

    let ctx = Arc::new(RoundCtx {
        layout: layout.clone(),
        workload: world.workload.clone(),
        fl: fl.clone(),
        opts: world.opts.clone(),
        global,
    });

    let work = items
        .into_iter()
        .map(|item| {
            let mut client = world.factory.build(item.client_id);
            if let Some(snap) = &item.snapshot {
                apply_snapshot(&mut client, snap);
            }
            ClientWork {
                ord: item.ord,
                client,
                plan: item.plan,
                ctx: ctx.clone(),
            }
        })
        .collect();

    // Each completion goes out as it resolves; the root folds at the cut
    // in ordinal order, so arrival order never reaches the trajectory.
    // After a failed send the rest of the cohort still runs, and its
    // results are dropped.
    let mut sent = Ok(());
    executor
        .run_cohort(work, |done| {
            let (msg, payload) = match done {
                ClientDone::Completed(done) => {
                    let (msg, payload) = DoneMsg::from_completion(round, done);
                    (FromShard::Done(msg), payload)
                }
                ClientDone::Failed(fail) => {
                    let msg = FromShard::Failed {
                        round,
                        ord: fail.ord,
                        client_id: fail.client_id,
                        panic_msg: fail.panic_msg,
                    };
                    (msg, None)
                }
            };
            if sent.is_ok() {
                sent = link.send(&msg, payload);
            }
        })
        .map_err(|e| ShardError::Protocol(format!("executor died: {e}")))?;
    sent?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

/// One thing a shard's link handed the coordinator: a protocol message
/// with its payload, or the fault that ended the link.
struct PoolEvent {
    shard: usize,
    body: Result<(FromShard, Vec<u8>), ShardError>,
}

/// One live shard: its child process, the link to it, and the work it still
/// owes this round, by ordinal — the checked-out client state waits here for
/// the shard's snapshot.
struct ShardConn {
    child: Child,
    link: Link,
    outstanding: BTreeMap<usize, ClientWork>,
}

impl ShardConn {
    /// Kills the child and drops the link.
    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

static POOL_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The root-side coordinator: spawns shard processes, routes
/// [`ClientWork`] to shard `client id % n_shards`, and streams back
/// [`ClientDone`] events like a [`RoundExecutor`] does. Every wait is
/// bounded; there is no unbounded socket read anywhere on this side (link
/// threads pump events into an mpsc channel, and the coordinator only
/// blocks in `recv_timeout`). The first shard fault kills every child and
/// leaves the pool shut down.
pub struct ShardPool {
    n_workers: usize,
    /// Every shard while the pool is up; empty once it is shut down.
    conns: Vec<ShardConn>,
    rx: Receiver<PoolEvent>,
    round: usize,
}

impl ShardPool {
    /// Spawns `fl.shard.n_shards` child processes and completes the
    /// `Init`/`Hello` handshake with each. A shard that does not come up is
    /// an error, and the children already up are shut down.
    pub fn new(
        fl: &FlConfig,
        scheme: &Scheme,
        spec: WorkloadSpec,
        n_workers: usize,
    ) -> Result<Self, ShardError> {
        let dir = std::env::temp_dir().join(format!(
            "fedca-shard-{}-{}",
            std::process::id(),
            POOL_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        let (tx, rx) = channel();
        let mut pool = ShardPool {
            n_workers,
            conns: Vec::new(),
            rx,
            round: 0,
        };
        let spawned = (0..fl.shard.n_shards.max(1)).try_for_each(|s| {
            let init = ToShard::Init {
                shard_id: s,
                n_workers,
                fl: fl.clone(),
                scheme: scheme.clone(),
                workload: spec.clone(),
            };
            let conn = spawn_shard(s, fl, &dir, &init, tx.clone()).map_err(|e| e.on_shard(s))?;
            pool.conns.push(conn);
            Ok(())
        });
        let _ = std::fs::remove_dir_all(&dir);
        spawned.map(|()| pool)
    }

    /// Worker threads per shard.
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    fn live(&self) -> Result<(), ShardError> {
        if self.conns.is_empty() {
            Err(ShardError::Disconnected)
        } else {
            Ok(())
        }
    }

    /// A shard fault ends the run: every child is killed at once — a wedged
    /// one must not hold up the caller's unwind — and the pool is left shut
    /// down. Returns `e`, naming shard `s`.
    fn fail(&mut self, s: usize, e: ShardError) -> ShardError {
        self.conns.drain(..).for_each(ShardConn::kill);
        e.on_shard(s)
    }

    /// Dispatches one round's cohort: routes each client to its shard —
    /// shipping a [`WorkItem`] and keeping the work itself as outstanding —
    /// and broadcasts the round's global parameters. A write that fails
    /// within the io timeout is a shard fault.
    pub fn begin_round(&mut self, work: Vec<ClientWork>) -> Result<(), ShardError> {
        self.live()?;
        let Some(first) = work.first() else {
            return Ok(());
        };
        let round = first.plan.round;
        self.round = round;
        let mut global = Vec::with_capacity(4 * first.ctx.global.len());
        for v in &first.ctx.global {
            global.extend_from_slice(&v.to_le_bytes());
        }

        let n = self.conns.len();
        let mut by_shard: Vec<Vec<ClientWork>> = (0..n).map(|_| Vec::new()).collect();
        for w in work {
            by_shard[w.client.id % n].push(w);
        }

        for (s, work) in by_shard.into_iter().enumerate() {
            if work.is_empty() {
                continue;
            }
            let items = work
                .iter()
                .map(|w| WorkItem {
                    ord: w.ord,
                    client_id: w.client.id,
                    plan: w.plan.clone(),
                    snapshot: Some(snapshot_client(&w.client)),
                })
                .collect();
            let msg = ToShard::RoundStart { round, items };
            if let Err(e) = self.conns[s].link.send(&msg, Some(global.clone())) {
                let e = io_error(e.kind(), format!("dispatch: {e}"));
                return Err(self.fail(s, e));
            }
            self.conns[s].outstanding = work.into_iter().map(|w| (w.ord, w)).collect();
        }
        Ok(())
    }

    /// Waits for the next resolved client. The wait is a watchdog: when
    /// nothing arrives within `timeout` and a shard still owes work, that
    /// shard stalled, which is a fault. `Err(Timeout)` means the pool was
    /// idle — nothing was outstanding, so waiting was a caller bug.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<ClientDone, ShardError> {
        self.live()?;
        let Ok(PoolEvent { shard, body }) = self.rx.recv_timeout(timeout) else {
            return match self.conns.iter().position(|c| !c.outstanding.is_empty()) {
                Some(s) => {
                    let why = format!("io timeout: no progress in {timeout:?}");
                    Err(self.fail(s, io_error(ErrorKind::TimedOut, why)))
                }
                None => Err(ShardError::Timeout),
            };
        };
        let (msg, payload) = body.map_err(|e| self.fail(shard, e))?;
        match msg {
            FromShard::Hello { .. } => {
                let e = ShardError::Protocol("Hello after the handshake".into());
                Err(self.fail(shard, e))
            }
            FromShard::Done(d) => {
                let work = self.claim(shard, d.round, d.ord)?;
                Ok(ClientDone::Completed(
                    d.into_completion(payload, work.client),
                ))
            }
            FromShard::Failed {
                round,
                ord,
                client_id,
                panic_msg,
            } => {
                self.claim(shard, round, ord)?;
                Ok(ClientDone::Failed(ClientFailure {
                    ord,
                    client_id,
                    panic_msg,
                }))
            }
        }
    }

    /// Takes the outstanding work that shard `s`'s event for `(round, ord)`
    /// resolves. An event for another round, or for an ordinal the shard
    /// does not owe, is a protocol fault.
    fn claim(&mut self, s: usize, round: usize, ord: usize) -> Result<ClientWork, ShardError> {
        let why = if round != self.round {
            format!("event for round {round} in round {}", self.round)
        } else if let Some(work) = self.conns[s].outstanding.remove(&ord) {
            return Ok(work);
        } else {
            format!("event for ordinal {ord}, which it does not owe")
        };
        Err(self.fail(s, ShardError::Protocol(why)))
    }
}

/// Asks every child to exit, gives them 5 s between them, and kills
/// whatever is left.
impl Drop for ShardPool {
    fn drop(&mut self) {
        for conn in &self.conns {
            let _ = conn.link.send(&ToShard::Shutdown, None);
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        for mut conn in self.conns.drain(..) {
            while matches!(conn.child.try_wait(), Ok(None)) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            conn.kill();
        }
    }
}

fn io_error(kind: ErrorKind, why: String) -> ShardError {
    ShardError::Io(std::io::Error::new(kind, why))
}

/// Spawns shard `s`'s child, accepts its connection and greets it with
/// `init`. Each step waits at most the io timeout; a child that fails one is
/// killed.
fn spawn_shard(
    s: usize,
    fl: &FlConfig,
    dir: &Path,
    init: &ToShard,
    tx: Sender<PoolEvent>,
) -> Result<ShardConn, ShardError> {
    let sock = dir.join(format!("shard-{s}.sock"));
    let listener = UnixListener::bind(&sock)?;
    listener.set_nonblocking(true)?;
    let exe =
        std::env::current_exe().map_err(|e| ShardError::Spawn(format!("current_exe: {e}")))?;
    let mut child = Command::new(exe)
        .args(&fl.shard.child_args)
        .env(ENV_SOCKET, &sock)
        .env(ENV_SHARD_ID, s.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| ShardError::Spawn(format!("spawn: {e}")))?;
    let timeout = fl.shard.io_timeout();
    let link = accept(&mut child, &listener, timeout)
        .and_then(|stream| greet(stream, s, init, timeout))
        .and_then(|stream| attach(stream, s, timeout, tx));
    match link {
        Ok(link) => Ok(ShardConn {
            child,
            link,
            outstanding: BTreeMap::new(),
        }),
        Err(e) => {
            let _ = child.kill();
            let _ = child.wait();
            Err(e)
        }
    }
}

/// Bounded accept: polls the nonblocking listener for up to `timeout`,
/// watching for an early child exit so a crash surfaces at once.
fn accept(
    child: &mut Child,
    listener: &UnixListener,
    timeout: Duration,
) -> Result<UnixStream, ShardError> {
    let deadline = Instant::now() + timeout;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                return Ok(stream);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            Err(e) => return Err(ShardError::Io(e)),
        }
        if let Ok(Some(status)) = child.try_wait() {
            return Err(ShardError::Spawn(format!(
                "exited before connecting: {status}"
            )));
        }
        if Instant::now() >= deadline {
            return Err(ShardError::Spawn(
                "did not connect within the io timeout".into(),
            ));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The `Init`/`Hello` handshake, on the raw stream: `Init` fits the socket
/// buffer of a child that never reads it, and the read of `Hello` waits at
/// most `timeout`. The read timeout is lifted again before the stream is
/// handed back — a link's reader inherits it, and a child idle between
/// rounds is not a dead one.
fn greet(
    mut stream: UnixStream,
    s: usize,
    init: &ToShard,
    timeout: Duration,
) -> Result<UnixStream, ShardError> {
    let mut handshake = || -> Result<(), ShardError> {
        stream.set_read_timeout(Some(timeout))?;
        stream.write_all(&encode_message(0, init, None)?)?;
        match read_handshake::<FromShard>(&mut stream)? {
            FromShard::Hello { shard_id } if shard_id == s => {}
            other => {
                return Err(ShardError::Protocol(format!(
                    "sent {other:?} instead of its Hello"
                )))
            }
        }
        stream.set_read_timeout(None)?;
        Ok(())
    };
    handshake().map_err(|e| match e {
        ShardError::Io(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
            ShardError::Handshake("no Hello within the io timeout".into())
        }
        e => ShardError::Handshake(e.to_string()),
    })?;
    Ok(stream)
}

/// Wraps a greeted stream in the root's [`Link`], whose writes are bounded
/// by `timeout`, feeding the pool's event channel.
fn attach(
    stream: UnixStream,
    s: usize,
    timeout: Duration,
    tx: Sender<PoolEvent>,
) -> Result<Link, ShardError> {
    let sink = move |ev: LinkEvent| {
        let body = match ev {
            LinkEvent::Frame(frame) => {
                parse_meta::<FromShard>(&frame).map(|msg| (msg, frame.payload))
            }
            LinkEvent::Down(reason) => Err(io_error(
                ErrorKind::ConnectionAborted,
                format!("link down: {reason}"),
            )),
        };
        let _ = tx.send(PoolEvent { shard: s, body });
    };
    Ok(Link::new(stream, s, Some(timeout), sink)?)
}

/// Drops a `#[test]`-shaped entry point into an integration-test binary so
/// the coordinator can re-exec it as a shard child. A child spawned from a
/// test binary needs argv `["shard_child_entry", "--exact", "--nocapture"]`
/// (see [`test_child_args`]) so libtest runs exactly this one "test" —
/// which serves the shard protocol and never returns control to libtest's
/// suite runner. Without [`ENV_SOCKET`] set it is an instant no-op pass.
#[macro_export]
macro_rules! shard_child_entry {
    () => {
        #[test]
        fn shard_child_entry() {
            $crate::shard::maybe_run_child();
        }
    };
}

/// The `child_args` a test binary must put in `ShardConfig` so re-execing
/// itself lands in the [`shard_child_entry!`] test.
pub fn test_child_args() -> Vec<String> {
    vec![
        "shard_child_entry".into(),
        "--exact".into(),
        "--nocapture".into(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forged_message_kinds_are_typed_protocol_errors() {
        // A frame of a kind the protocol does not have (a level-1 round
        // summary, say) is a protocol violation, not a silent skip.
        let frame = Frame {
            kind: crate::transport::FrameKind::Control,
            seq: 1,
            meta: br#"{"RoundSummary":{"round":0,"n_resolved":1}}"#.to_vec(),
            payload: Vec::new(),
        };
        assert!(matches!(
            parse_meta::<FromShard>(&frame),
            Err(ShardError::Protocol(_))
        ));
        let hello = Frame {
            meta: br#"{"Hello":{"shard_id":2}}"#.to_vec(),
            ..frame
        };
        assert!(matches!(
            parse_meta::<FromShard>(&hello),
            Ok(FromShard::Hello { shard_id: 2 })
        ));
    }

    #[test]
    fn wire_events_preserve_non_finite_timestamps() {
        let p = PendingEvent {
            time: f64::INFINITY,
            host_us: f64::NAN,
            event: TraceEvent::ClientFailed {
                round: 2,
                client: 4,
            },
        };
        let w = WireEvent::from_pending(p.clone());
        let json = serde_json::to_string(&w).unwrap();
        let back: WireEvent = serde_json::from_str(&json).unwrap();
        let q = back.into_pending();
        assert_eq!(q.time.to_bits(), p.time.to_bits());
        assert_eq!(q.host_us.to_bits(), p.host_us.to_bits());
        assert_eq!(q.event, p.event);
    }
}
