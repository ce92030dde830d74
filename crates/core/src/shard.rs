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
//! global model, the tracer, and snapshots. The pool keeps each
//! checked-out [`ClientState`] beside its outstanding ordinal; a
//! [`WorkItem`] ships `{ordinal, client id, plan, snapshot}` and the
//! stateless child rebuilds the client as
//! `factory.build(id)` + `apply_snapshot` — bit-identical to the root
//! re-hydrating an evicted client — and the snapshot it sends back is
//! applied onto the retained state. Because of that, a lost shard loses
//! nothing, and there is **one failure rule**: whatever goes wrong with a
//! shard — its [`Link`] reports `Down` (EOF, a frame or checksum error, a
//! sequence gap), a (re)spawn or handshake fails, a dispatch cannot be
//! written, a protocol message makes no sense, or nothing arrives within the
//! io timeout — the child is killed and the shard's unresolved
//! [`ClientWork`], live state and round context included, is handed as-is
//! to a root-local [`RoundExecutor`]. That is exactly how `Backend::Local`
//! would have run it, so a dead shard costs time and never the trajectory.
//! The process is lazily respawned for the next round that routes work to
//! it. The only [`ClientDone::Failed`] a pool ever produces is one a child
//! reported from its own `catch_unwind` ([`FromShard::Failed`]) or the
//! local executor produced the same way. (The same work re-running in the
//! root is also why a shard isolates the host killing or wedging a child,
//! not a client that aborts its process: that client would abort the root
//! next.)
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
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::Write;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
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
    /// No event arrived within the timeout.
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
    /// `report.upload_done` bits (+inf ⇒ dropped past deadline).
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
    /// Dropped past the deadline.
    pub dropped: bool,
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
            dropped: r.dropped,
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
                dropped: self.dropped,
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
        factory: ClientFactory::new(fl, scheme, &workload, layout.clone()),
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

    let mut remaining: BTreeSet<usize> = items.iter().map(|i| i.ord).collect();
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

    // The executor resolves clients in host completion order, which is
    // nondeterministic under a multi-worker pool. The wire order must not
    // be: the root's deterministic kill plans count consumed events per
    // shard, so completions are buffered and emitted in ascending ordinal
    // order. The trajectory itself never depends on arrival order (the
    // root folds at the cut in ordinal order), so this only pins the one
    // thing that does — chaos-test kill points. After a failed send the
    // rest of the cohort still runs, and its results are dropped.
    let mut unsent: BTreeMap<usize, (FromShard, Option<Vec<u8>>)> = BTreeMap::new();
    let mut sent = Ok(());
    executor
        .run_cohort(work, |done| {
            match done {
                ClientDone::Completed(done) => {
                    let (msg, payload) = DoneMsg::from_completion(round, done);
                    unsent.insert(msg.ord, (FromShard::Done(msg), payload));
                }
                ClientDone::Failed(fail) => {
                    let msg = FromShard::Failed {
                        round,
                        ord: fail.ord,
                        client_id: fail.client_id,
                        panic_msg: fail.panic_msg,
                    };
                    unsent.insert(fail.ord, (msg, None));
                }
            }
            while let Some((msg, payload)) = remaining.first().and_then(|ord| unsent.remove(ord)) {
                remaining.pop_first();
                if sent.is_ok() {
                    sent = link.send(&msg, payload);
                }
            }
        })
        .map_err(|e| ShardError::Protocol(format!("executor died: {e}")))?;
    sent?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

/// One thing a shard's link handed the coordinator.
struct PoolEvent {
    shard: usize,
    /// The connection it came from; events of torn-down or superseded
    /// connections are discarded.
    incarnation: u64,
    /// A protocol message with its payload, or why the link went down.
    body: Result<(FromShard, Vec<u8>), String>,
}

#[derive(Default)]
struct ShardConn {
    child: Option<Child>,
    /// `Some` while the shard is up; taken (with the child killed) the
    /// moment anything goes wrong with it.
    link: Option<Link>,
    /// Bumped at the start of every (re)spawn attempt; events from stale
    /// incarnations are discarded.
    incarnation: u64,
    /// Unresolved work for the current round, by ordinal: the checked-out
    /// client state waits here for the shard's snapshot, and when the
    /// shard is quarantined this is what the local executor runs.
    outstanding: BTreeMap<usize, ClientWork>,
    /// Events (Done or Failed) consumed from this shard this round —
    /// the deterministic kill plan counts these.
    done_this_round: usize,
}

struct KillPoint {
    round: usize,
    shard: usize,
    after_done: usize,
    fired: bool,
}

static POOL_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The root-side coordinator: spawns shard processes, routes
/// [`ClientWork`] to shard `client id % n_shards`, and streams back
/// [`ClientDone`] events like a [`RoundExecutor`] does. Every wait is
/// bounded; there is no unbounded socket read anywhere on this side (link
/// threads pump events into an mpsc channel, and the coordinator only
/// blocks in `recv_timeout`).
pub struct ShardPool {
    fl: FlConfig,
    scheme: Scheme,
    spec: WorkloadSpec,
    n_workers: usize,
    dir: PathBuf,
    conns: Vec<ShardConn>,
    tx: Sender<PoolEvent>,
    rx: Receiver<PoolEvent>,
    /// Locally re-executed results, served before touching the channel.
    pending: VecDeque<ClientDone>,
    kill_plan: Vec<KillPoint>,
    round: usize,
    /// Lazily built local executor a quarantined shard's work runs on.
    local_exec: Option<RoundExecutor>,
    /// Failover trace notes (`ShardQuarantined`, `OrdinalReassigned`),
    /// drained per round. All offstream.
    notes: Vec<TraceEvent>,
    down: bool,
    spawn_counter: u64,
}

impl ShardPool {
    /// Spawns `fl.shard.n_shards` child processes and completes the
    /// `Init`/`Hello` handshake with each. A shard that does not come up is
    /// reported on stderr and left down: its work runs in the root, and
    /// every round that routes it work tries the spawn again.
    pub fn new(
        fl: &FlConfig,
        scheme: &Scheme,
        spec: WorkloadSpec,
        n_workers: usize,
    ) -> Result<Self, ShardError> {
        let n_shards = fl.shard.n_shards.max(1);
        let dir = std::env::temp_dir().join(format!(
            "fedca-shard-{}-{}",
            std::process::id(),
            POOL_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        let (tx, rx) = channel();
        let mut pool = ShardPool {
            fl: fl.clone(),
            scheme: scheme.clone(),
            spec,
            n_workers,
            dir,
            conns: (0..n_shards).map(|_| ShardConn::default()).collect(),
            tx,
            rx,
            pending: VecDeque::new(),
            kill_plan: Vec::new(),
            round: 0,
            local_exec: None,
            notes: Vec::new(),
            down: false,
            spawn_counter: 0,
        };
        for s in 0..n_shards {
            if let Err(e) = pool.spawn_shard(s) {
                eprintln!("fedca shard {s}: not started, its work runs in the root: {e}");
            }
        }
        Ok(pool)
    }

    /// Worker threads per shard.
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    fn spawn_shard(&mut self, s: usize) -> Result<(), ShardError> {
        // Bump first so a failed attempt can never alias a previous
        // incarnation's events.
        self.conns[s].incarnation += 1;
        let incarnation = self.conns[s].incarnation;
        self.spawn_counter += 1;
        let sock = self
            .dir
            .join(format!("shard-{s}-{}.sock", self.spawn_counter));
        let _ = std::fs::remove_file(&sock);
        let listener = UnixListener::bind(&sock)?;
        listener.set_nonblocking(true)?;

        let exe =
            std::env::current_exe().map_err(|e| ShardError::Spawn(format!("current_exe: {e}")))?;
        let child = Command::new(exe)
            .args(&self.fl.shard.child_args)
            .env(ENV_SOCKET, &sock)
            .env(ENV_SHARD_ID, s.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| ShardError::Spawn(format!("spawn: {e}")))?;
        self.conns[s].child = Some(child);

        let up = self
            .accept(s, &listener)
            .and_then(|stream| self.greet(s, stream))
            .and_then(|stream| self.attach(s, incarnation, stream));
        let _ = std::fs::remove_file(&sock);
        if up.is_err() {
            self.teardown_conn(s);
        }
        up
    }

    /// Bounded accept: polls the nonblocking listener for up to the io
    /// timeout, watching for an early child exit so a crash surfaces at
    /// once.
    fn accept(&mut self, s: usize, listener: &UnixListener) -> Result<UnixStream, ShardError> {
        let deadline = Instant::now() + self.fl.shard.io_timeout();
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    return Ok(stream);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(ShardError::Io(e)),
            }
            let child = self.conns[s].child.as_mut().expect("spawned above");
            if let Ok(Some(status)) = child.try_wait() {
                return Err(ShardError::Spawn(format!(
                    "shard {s} exited before connecting: {status}"
                )));
            }
            if Instant::now() >= deadline {
                return Err(ShardError::Spawn(format!(
                    "shard {s} did not connect within the io timeout"
                )));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The `Init`/`Hello` handshake, on the raw stream: `Init` fits the
    /// socket buffer of a child that never reads it, and the read of
    /// `Hello` waits at most the io timeout. The read timeout is lifted
    /// again before the stream is handed back — a link's reader inherits
    /// it, and a child idle between rounds is not a dead one.
    fn greet(&self, s: usize, mut stream: UnixStream) -> Result<UnixStream, ShardError> {
        let init = ToShard::Init {
            shard_id: s,
            n_workers: self.n_workers,
            fl: self.fl.clone(),
            scheme: self.scheme.clone(),
            workload: self.spec.clone(),
        };
        let mut handshake = || -> Result<(), ShardError> {
            stream.set_read_timeout(Some(self.fl.shard.io_timeout()))?;
            stream.write_all(&encode_message(0, &init, None)?)?;
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
        handshake().map_err(|e| ShardError::Handshake(format!("shard {s}: {e}")))?;
        Ok(stream)
    }

    /// Wraps a greeted stream in the root's [`Link`], whose writes are
    /// bounded by the io timeout, and makes it the shard's connection.
    fn attach(&mut self, s: usize, incarnation: u64, stream: UnixStream) -> Result<(), ShardError> {
        let tx = self.tx.clone();
        let sink = move |ev: LinkEvent| {
            let body = match ev {
                LinkEvent::Frame(frame) => parse_meta::<FromShard>(&frame)
                    .map(|msg| (msg, frame.payload))
                    .map_err(|e| e.to_string()),
                LinkEvent::Down(reason) => Err(reason),
            };
            let _ = tx.send(PoolEvent {
                shard: s,
                incarnation,
                body,
            });
        };
        let write_bound = Some(self.fl.shard.io_timeout());
        self.conns[s].link = Some(Link::new(stream, s, write_bound, sink)?);
        Ok(())
    }

    /// Kills the child process and drops the link. Leaves `outstanding`
    /// untouched. Idempotent.
    fn teardown_conn(&mut self, s: usize) {
        let conn = &mut self.conns[s];
        if let Some(mut child) = conn.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        conn.link = None;
    }

    /// The one recovery path. Whatever went wrong with shard `s`, its
    /// child is killed and `work` — the very [`ClientWork`] the shard was
    /// (or would have been) sent a copy of — runs on the lazily built local
    /// executor, its results queued like any other resolved client. The
    /// trajectory cannot tell this from the shard having done the work.
    fn quarantine(&mut self, s: usize, reason: &str, work: Vec<ClientWork>) {
        self.teardown_conn(s);
        self.notes.push(TraceEvent::ShardQuarantined {
            round: self.round,
            shard: s,
            reason: reason.to_string(),
        });
        if work.is_empty() {
            return;
        }
        let n_workers = self.n_workers;
        for w in &work {
            self.notes.push(TraceEvent::OrdinalReassigned {
                round: self.round,
                shard: s,
                ord: w.ord,
                client: w.client.id,
            });
        }
        let pending = &mut self.pending;
        self.local_exec
            .get_or_insert_with(|| RoundExecutor::new(n_workers))
            .run_cohort(work, |done| pending.push_back(done))
            .expect("local executor alive while the pool exists");
    }

    /// [`quarantine`](Self::quarantine) mid-round: everything the shard
    /// still owes runs locally.
    fn quarantine_outstanding(&mut self, s: usize, reason: &str) {
        let work = std::mem::take(&mut self.conns[s].outstanding);
        self.quarantine(s, reason, work.into_values().collect());
    }

    /// Schedules a deterministic kill: shard `shard` dies in `round`
    /// after the coordinator has consumed `after_done` of its events
    /// (`0` = at dispatch, before any work lands).
    pub fn schedule_kill(&mut self, round: usize, shard: usize, after_done: usize) {
        self.kill_plan.push(KillPoint {
            round,
            shard,
            after_done,
            fired: false,
        });
    }

    fn take_kill(&mut self, round: usize, shard: usize, done: usize) -> bool {
        for kp in &mut self.kill_plan {
            if !kp.fired && kp.round == round && kp.shard == shard && kp.after_done == done {
                kp.fired = true;
                return true;
            }
        }
        false
    }

    /// Dispatches one round's cohort: routes each client to its shard —
    /// shipping a [`WorkItem`] and keeping the work itself as outstanding —
    /// broadcasting the round's global parameters, respawning dead shards
    /// lazily. A shard that cannot be respawned, greeted or written to is
    /// quarantined and its share runs locally before this returns; the only
    /// `Err` is a pool that was already shut down.
    pub fn begin_round(&mut self, work: Vec<ClientWork>) -> Result<(), ShardError> {
        if self.down {
            return Err(ShardError::Disconnected);
        }
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
            self.conns[s].done_this_round = 0;
            if work.is_empty() {
                continue;
            }
            let fault = if self.take_kill(round, s, 0) {
                Some("killed by kill plan".to_string())
            } else {
                self.dispatch(s, round, &work, &global)
                    .err()
                    .map(|e| e.to_string())
            };
            match fault {
                Some(reason) => self.quarantine(s, &reason, work),
                None => self.conns[s].outstanding = work.into_iter().map(|w| (w.ord, w)).collect(),
            }
        }
        Ok(())
    }

    /// Brings shard `s` up if it is down and sends it its share of the
    /// round.
    fn dispatch(
        &mut self,
        s: usize,
        round: usize,
        work: &[ClientWork],
        global: &[u8],
    ) -> Result<(), ShardError> {
        if self.conns[s].link.is_none() {
            self.spawn_shard(s)?;
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
        let link = self.conns[s].link.as_ref().expect("spawned above");
        link.send(&ToShard::RoundStart { round, items }, Some(global.to_vec()))?;
        Ok(())
    }

    /// Waits for the next resolved client. The wait is a watchdog, not a
    /// poll: when nothing arrives within `timeout`, every shard that still
    /// owes events is quarantined (killed, its outstanding ordinals run
    /// locally). `Err(Timeout)` therefore means the pool was idle — nothing
    /// was outstanding, so waiting was a caller bug, not a stall.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<ClientDone, ShardError> {
        if self.down {
            return Err(ShardError::Disconnected);
        }
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(ev) = self.pending.pop_front() {
                return Ok(ev);
            }
            // Disconnected is unreachable (we hold a Sender clone); fold it
            // into the timeout defensively.
            let ev = match self
                .rx
                .recv_timeout(deadline.saturating_duration_since(Instant::now()))
            {
                Ok(ev) => ev,
                Err(_) if self.quarantine_stalled(timeout) => continue,
                Err(_) => return Err(ShardError::Timeout),
            };
            let shard = ev.shard;
            let conn = &self.conns[shard];
            if ev.incarnation != conn.incarnation || conn.link.is_none() {
                continue;
            }
            match ev.body {
                Err(reason) => self.quarantine_outstanding(shard, &reason),
                Ok((FromShard::Hello { .. }, _)) => {
                    self.quarantine_outstanding(shard, "protocol: Hello after the handshake")
                }
                Ok((FromShard::Done(d), payload)) => {
                    if let Some(work) = self.claim(shard, d.round, d.ord) {
                        let done = d.into_completion(payload, work.client);
                        return Ok(self.consumed(shard, ClientDone::Completed(done)));
                    }
                }
                Ok((
                    FromShard::Failed {
                        round,
                        ord,
                        client_id,
                        panic_msg,
                    },
                    _,
                )) => {
                    if self.claim(shard, round, ord).is_some() {
                        let failure = ClientFailure {
                            ord,
                            client_id,
                            panic_msg,
                        };
                        return Ok(self.consumed(shard, ClientDone::Failed(failure)));
                    }
                }
            }
        }
    }

    /// Takes the outstanding work that a shard's event for `(round, ord)`
    /// resolves. An event for another round quarantines the shard; one for
    /// an ordinal that is not outstanding is a ghost (the link delivers
    /// each frame once, so only a test injects these) and is dropped.
    fn claim(&mut self, shard: usize, round: usize, ord: usize) -> Option<ClientWork> {
        if round != self.round {
            let reason = format!("protocol: event for round {round} in round {}", self.round);
            self.quarantine_outstanding(shard, &reason);
            return None;
        }
        self.conns[shard].outstanding.remove(&ord)
    }

    /// Counts one event consumed from `shard` — the deterministic kill plan
    /// fires on these — and passes it through.
    fn consumed(&mut self, shard: usize, ev: ClientDone) -> ClientDone {
        self.conns[shard].done_this_round += 1;
        let done = self.conns[shard].done_this_round;
        if self.take_kill(self.round, shard, done) {
            self.quarantine_outstanding(shard, "killed by kill plan");
        }
        ev
    }

    /// Quarantines every shard that still owes events for the current
    /// round. Returns whether there was any.
    fn quarantine_stalled(&mut self, timeout: Duration) -> bool {
        let stalled: Vec<usize> = (0..self.conns.len())
            .filter(|&s| !self.conns[s].outstanding.is_empty())
            .collect();
        for &s in &stalled {
            self.quarantine_outstanding(s, &format!("io timeout: no progress in {timeout:?}"));
        }
        !stalled.is_empty()
    }

    /// Drains the round's failover trace notes.
    pub fn take_round_notes(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.notes)
    }

    /// Feeds a raw protocol message into the coordinator's event queue as
    /// if a link had delivered it. Test seam for ingest-dedup properties.
    #[doc(hidden)]
    pub fn inject_msg_for_test(
        &self,
        shard: usize,
        incarnation: u64,
        msg: FromShard,
        payload: Vec<u8>,
    ) {
        let _ = self.tx.send(PoolEvent {
            shard,
            incarnation,
            body: Ok((msg, payload)),
        });
    }

    /// Current incarnation of a shard connection. Test seam.
    #[doc(hidden)]
    pub fn incarnation_for_test(&self, shard: usize) -> u64 {
        self.conns[shard].incarnation
    }

    /// Process id of a shard's live child. Test seam: the failover suite
    /// SIGSTOPs a child so that only the io watchdog can notice.
    #[doc(hidden)]
    pub fn child_pid_for_test(&self, shard: usize) -> Option<u32> {
        self.conns[shard].child.as_ref().map(Child::id)
    }

    fn shutdown(&mut self) {
        if self.down {
            return;
        }
        self.down = true;
        for s in 0..self.conns.len() {
            let conn = &mut self.conns[s];
            if let Some(link) = &conn.link {
                let _ = link.send(&ToShard::Shutdown, None);
            }
            // Give the child up to 5 s to exit on its own; teardown kills
            // whatever is left.
            let deadline = Instant::now() + Duration::from_secs(5);
            while let Some(child) = &mut conn.child {
                if !matches!(child.try_wait(), Ok(None)) || Instant::now() >= deadline {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            self.teardown_conn(s);
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.shutdown();
    }
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
