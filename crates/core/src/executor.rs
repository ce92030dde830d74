//! Event-driven round execution: a persistent worker pool with per-worker
//! client arenas.
//!
//! The [`Trainer`](crate::runner::Trainer) spawns one [`RoundExecutor`] at
//! construction and keeps it for its whole life. Each round it moves the
//! selected clients' state into [`ClientWork`] items and hands the whole
//! list to [`RoundExecutor::run_cohort`]; workers pull messages from a
//! shared queue, run [`run_client_round`] on each item, and send the
//! [`ClientDone`] events back over a channel *as messages finish*, so the
//! server can feed its streaming aggregator without waiting for a barrier.
//!
//! A message carries a chunk of consecutive ordinals, and its events come
//! back together when the chunk ends, so the main thread wakes once per
//! chunk rather than once per client. `run_cohort` cuts the list in
//! ordinal order, each chunk `clamp(⌊B / c̄⌋, 1, ⌈remaining / (4·W)⌉)`
//! items long: `c̄` is the mean host time of a client in this executor's
//! previous cohort (its first cohort runs single clients), `W` the worker
//! count, and `B` ([`CHUNK_BUDGET_US`]) the worker time one message should
//! carry. A hand-off — one send, one wake of the main thread, which on a
//! 2-vCPU host preempts a worker — costs ≈ 5–8 µs of round time there
//! (Sapphire Rapids VM, 128 clients of ≈ 40 µs); at `B` = 200 µs that is
//! a few percent of the work it carries. Clients of a millisecond or more
//! keep one-client messages; the `pop_dense` benchmark's ≈ 40 µs clients
//! travel about five at a time. The `⌈remaining / (4·W)⌉` bound tapers
//! the chunks to single clients at the tail, so no worker is left holding
//! a long chunk while the others idle. [`submit`](RoundExecutor::submit)
//! and [`recv`](RoundExecutor::recv) are the one-client case of the same
//! worker loop.
//!
//! Every worker owns a [`ClientArena`]: one cached model instance (built
//! once from the workload's factory, fully overwritten by
//! `set_flat_params` at the start of every client round) plus a flat
//! parameter scratch buffer. Reuse is bit-safe: the optimizer is stateless
//! and batch norm keeps no statistics between forwards, so a freshly-built
//! model and a reset arena model are indistinguishable.
//!
//! Determinism does not depend on scheduling or on chunking: each client
//! still runs under its own `catch_unwind` with its own RNG streams, all
//! timing flows through the virtual clock inside each client's report, and
//! aggregation folds in ordinal order at close, so neither the OS-level
//! completion order of workers nor which clients shared a message can
//! reach the results.

use crate::client::{run_client_round, ClientOptions, ClientRoundReport, ClientState, RoundPlan};
use crate::config::FlConfig;
use crate::params::ModelLayout;
use crate::workload::Workload;
use fedca_nn::Model;
use fedca_tensor::Tensor;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Per-worker reusable resources: a cached model instance (which owns the
/// layer `Workspace` scratch arena), a persistent logits-gradient buffer,
/// flat-param scratch space, and the upload codec's buffers. Once warm, a
/// worker's SGD iterations allocate nothing — see
/// `crates/nn/tests/zero_alloc.rs` — and its upload allocates the wire
/// buffer and nothing else of the model's size.
pub struct ClientArena {
    /// The worker's model instance; overwritten with the round's global
    /// parameters before any client computation touches it.
    pub model: Model,
    /// Scratch for flat-parameter snapshots (profiling, eager sends) and,
    /// at round end, the update itself: the delta is formed, compensated
    /// and framed in place here.
    pub flat: Vec<f32>,
    /// Compressor scratch (quantization levels, binary16 halves) reused
    /// across layers and rounds.
    pub codec: fedca_compress::CodecScratch,
    /// Persistent logits-gradient buffer for the SGD hot loop (resized in
    /// place by `softmax_cross_entropy_into`).
    pub grad: Tensor,
}

impl ClientArena {
    /// Builds an arena from the workload's model factory.
    pub fn new(workload: &Workload) -> Self {
        ClientArena::from_model((workload.model_factory)())
    }

    /// Wraps an existing model instance (tests, examples).
    pub fn from_model(model: Model) -> Self {
        let flat = Vec::with_capacity(model.num_params());
        ClientArena {
            model,
            flat,
            codec: fedca_compress::CodecScratch::default(),
            grad: Tensor::zeros([0]),
        }
    }
}

/// Everything a worker needs for one round, shared across its clients.
pub struct RoundCtx {
    /// The model layout.
    pub layout: Arc<ModelLayout>,
    /// The experiment workload (datasets and factories are `Arc`-backed,
    /// so this is a cheap handle).
    pub workload: Workload,
    /// Federation hyperparameters.
    pub fl: FlConfig,
    /// Scheme-derived client options.
    pub opts: ClientOptions,
    /// The round's global parameters.
    pub global: Vec<f32>,
}

/// One unit of work: run `client` through its round under `plan`.
pub struct ClientWork {
    /// Position within the round's selection (report ordinal).
    pub ord: usize,
    /// The client's persistent state, moved to the worker for the round.
    pub client: ClientState,
    /// The server's plan for this client.
    pub plan: RoundPlan,
    /// Shared round context.
    pub ctx: Arc<RoundCtx>,
}

/// Event streamed back as each client's work item resolves.
// Completed carries the full client state by design: the channel transfers
// ownership back to the trainer, and boxing it would add a heap allocation
// per client round to shrink a variant that only exists transiently.
#[allow(clippy::large_enum_variant)]
pub enum ClientDone {
    /// The client round ran to completion.
    Completed(ClientCompletion),
    /// The client code panicked on the worker; the worker itself survived
    /// (it caught the unwind) but the client's in-flight state was
    /// destroyed. The server must exclude the client from the round exactly
    /// like a straggler past the aggregation cut.
    Failed(ClientFailure),
}

/// Successful completion event.
pub struct ClientCompletion {
    /// Position within the round's selection.
    pub ord: usize,
    /// The client's state, handed back to the trainer.
    pub client: ClientState,
    /// The round report.
    pub report: ClientRoundReport,
    /// Host wall-clock microseconds the worker spent inside
    /// `run_client_round` for this item. Profiling data only — it rides on
    /// trace records as a host-time delta and never enters the canonical
    /// (deterministic) stream.
    pub host_us: f64,
}

/// A client whose round died in a panic on the worker.
#[derive(Debug)]
pub struct ClientFailure {
    /// Position within the round's selection.
    pub ord: usize,
    /// The failed client's id (its `ClientState` was lost in the unwind).
    pub client_id: usize,
    /// The panic payload, stringified.
    pub panic_msg: String,
}

/// Why [`RoundExecutor::recv`]/[`submit`](RoundExecutor::submit) could not
/// proceed. Returned instead of blocking forever (or panicking) when the
/// worker pool cannot make progress.
#[derive(Debug, PartialEq, Eq)]
pub enum ExecutorError {
    /// Every worker thread has exited; no result can ever arrive.
    Disconnected,
    /// No result arrived within the timeout — a hang upstream (only
    /// `recv_timeout` returns this).
    Timeout,
}

impl std::fmt::Display for ExecutorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecutorError::Disconnected => {
                write!(f, "worker pool disconnected (all workers exited)")
            }
            ExecutorError::Timeout => write!(f, "timed out waiting for a worker result"),
        }
    }
}

impl std::error::Error for ExecutorError {}

/// Worker time, in microseconds, one hand-off message should carry: the
/// `B` of the chunk rule in the module docs.
pub const CHUNK_BUDGET_US: f64 = 200.0;

/// Length of the next chunk of a cohort: `max_chunk` clients, tapered to
/// `⌈remaining / (4·n_workers)⌉` so the cohort's tail runs as single
/// clients, and never less than one.
pub fn chunk_len(max_chunk: usize, remaining: usize, n_workers: usize) -> usize {
    let taper = remaining.div_ceil(4 * n_workers.max(1)).max(1);
    max_chunk.clamp(1, taper)
}

enum WorkerMsg {
    /// Consecutive work items, run in order; their events return together.
    Work(Vec<ClientWork>),
    Shutdown,
}

/// A persistent pool of client-execution workers.
///
/// Spawned once (by `Trainer::new`) and fed a cohort at a time with
/// [`run_cohort`](Self::run_cohort), or one client at a time with
/// [`submit`](Self::submit) and [`recv`](Self::recv); threads are joined on
/// drop. A panic inside client code is caught on the worker, which
/// survives and reports a [`ClientDone::Failed`] event instead — the pool
/// never deadlocks on a dying client, and a dead pool surfaces as
/// [`ExecutorError::Disconnected`] rather than a blocked `recv`.
pub struct RoundExecutor {
    work_tx: Sender<WorkerMsg>,
    done_rx: Receiver<Vec<ClientDone>>,
    /// Mean host µs of a completed client in the previous cohort; `None`
    /// until a cohort has completed a client.
    mean_client_us: Option<f64>,
    handles: Vec<JoinHandle<()>>,
}

impl RoundExecutor {
    /// Spawns `n_workers` (at least one) worker threads.
    pub fn new(n_workers: usize) -> Self {
        let n_workers = n_workers.max(1);
        let (work_tx, work_rx) = channel::<WorkerMsg>();
        let work_rx = Arc::new(Mutex::new(work_rx));
        let (done_tx, done_rx) = channel::<Vec<ClientDone>>();
        let handles = (0..n_workers)
            .map(|w| {
                let rx = Arc::clone(&work_rx);
                let tx = done_tx.clone();
                std::thread::Builder::new()
                    .name(format!("fedca-worker-{w}"))
                    .spawn(move || worker_loop(rx, tx))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        RoundExecutor {
            work_tx,
            done_rx,
            mean_client_us: None,
            handles,
        }
    }

    /// Number of worker threads.
    pub fn n_workers(&self) -> usize {
        self.handles.len()
    }

    /// Runs a whole cohort: sends `work` in ordinal-order chunks sized by
    /// the rule in the module docs, hands each resolved client to
    /// `on_done` (exactly one event per item, in chunk completion order),
    /// and returns once every item has resolved. The pool must be idle:
    /// nothing submitted and not yet received.
    pub fn run_cohort(
        &mut self,
        work: Vec<ClientWork>,
        on_done: impl FnMut(ClientDone),
    ) -> Result<(), ExecutorError> {
        // ⌊B / c̄⌋ saturates to usize::MAX when c̄ is 0; chunk_len clamps it.
        let max_chunk = self
            .mean_client_us
            .map_or(1, |c| (CHUNK_BUDGET_US / c) as usize);
        self.run_cohort_chunked(work, max_chunk, on_done)
    }

    /// [`run_cohort`](Self::run_cohort) with `max_chunk` in place of the
    /// cost-derived `⌊B / c̄⌋`; the tail still tapers to single clients.
    pub fn run_cohort_chunked(
        &mut self,
        work: Vec<ClientWork>,
        max_chunk: usize,
        mut on_done: impl FnMut(ClientDone),
    ) -> Result<(), ExecutorError> {
        let (n, n_workers) = (work.len(), self.n_workers());
        let mut items = work.into_iter();
        let mut remaining = n;
        while remaining > 0 {
            let len = chunk_len(max_chunk, remaining, n_workers);
            self.send(items.by_ref().take(len).collect())?;
            remaining -= len;
        }
        let (mut resolved, mut completed, mut host_us) = (0, 0, 0.0);
        while resolved < n {
            let chunk = self
                .done_rx
                .recv()
                .map_err(|_| ExecutorError::Disconnected)?;
            resolved += chunk.len();
            for done in chunk {
                if let ClientDone::Completed(c) = &done {
                    completed += 1;
                    host_us += c.host_us;
                }
                on_done(done);
            }
        }
        if completed > 0 {
            self.mean_client_us = Some(host_us / completed as f64);
        }
        Ok(())
    }

    /// Enqueues one client round as a one-item chunk; returns immediately.
    /// Fails (returning the error instead of panicking) if every worker
    /// has exited.
    pub fn submit(&self, work: ClientWork) -> Result<(), ExecutorError> {
        self.send(vec![work])
    }

    fn send(&self, chunk: Vec<ClientWork>) -> Result<(), ExecutorError> {
        self.work_tx
            .send(WorkerMsg::Work(chunk))
            .map_err(|_| ExecutorError::Disconnected)
    }

    /// Blocks until the next client's work item resolves (in completion
    /// order, not submission order). A panic inside client code arrives as
    /// [`ClientDone::Failed`]; a dead worker pool is detected and returned
    /// as [`ExecutorError::Disconnected`] instead of blocking forever.
    pub fn recv(&self) -> Result<ClientDone, ExecutorError> {
        let chunk = self.done_rx.recv();
        chunk.map(only).map_err(|_| ExecutorError::Disconnected)
    }

    /// Like [`recv`](Self::recv) but bounded: returns
    /// [`ExecutorError::Timeout`] if nothing resolves within `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<ClientDone, ExecutorError> {
        let chunk = self.done_rx.recv_timeout(timeout);
        chunk.map(only).map_err(|e| match e {
            RecvTimeoutError::Timeout => ExecutorError::Timeout,
            RecvTimeoutError::Disconnected => ExecutorError::Disconnected,
        })
    }

    /// Stops and joins every worker. Afterwards `submit`/`recv` return
    /// `Err(Disconnected)` — this is the disconnect path a crashed pool
    /// takes, exposed directly so shutdown and the chaos suite can exercise
    /// it deterministically.
    pub fn halt(&mut self) {
        for _ in &self.handles {
            // Ignore send failures: a worker that already exited no longer
            // needs a shutdown message.
            let _ = self.work_tx.send(WorkerMsg::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for RoundExecutor {
    fn drop(&mut self) {
        self.halt();
    }
}

fn worker_loop(rx: Arc<Mutex<Receiver<WorkerMsg>>>, tx: Sender<Vec<ClientDone>>) {
    // The arena persists across rounds; it is built lazily from the first
    // work item's context so the pool itself stays workload-agnostic.
    let mut arena: Option<ClientArena> = None;
    loop {
        let msg = rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
        let chunk = match msg {
            Ok(WorkerMsg::Work(chunk)) => chunk,
            Ok(WorkerMsg::Shutdown) | Err(_) => return,
        };
        let done = chunk
            .into_iter()
            .map(|work| run_caught(&mut arena, work))
            .collect();
        if tx.send(done).is_err() {
            return;
        }
    }
}

/// Runs one work item under its own `catch_unwind`, so a panicking client
/// fails alone and its chunk-mates still run.
fn run_caught(arena: &mut Option<ClientArena>, work: ClientWork) -> ClientDone {
    // Remember enough to attribute a failure: the unwind destroys the
    // work item (and the client state moved into it).
    let (ord, client_id) = (work.ord, work.client.id);
    match catch_unwind(AssertUnwindSafe(|| execute(arena, work))) {
        Ok(done) => ClientDone::Completed(done),
        Err(payload) => ClientDone::Failed(ClientFailure {
            ord,
            client_id,
            panic_msg: panic_message(&payload),
        }),
    }
}

/// The event of a one-item chunk, which is what [`RoundExecutor::submit`]
/// sends; `run_cohort` receives every chunk it sends before it returns.
fn only(mut chunk: Vec<ClientDone>) -> ClientDone {
    assert_eq!(chunk.len(), 1, "recv met a multi-client chunk");
    chunk.pop().expect("length checked")
}

/// Stringifies a panic payload (panics carry `&str` or `String` in practice).
fn panic_message(payload: &Box<dyn Any + Send + 'static>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn execute(arena_slot: &mut Option<ClientArena>, work: ClientWork) -> ClientCompletion {
    let ClientWork {
        ord,
        mut client,
        plan,
        ctx,
    } = work;
    let arena = arena_slot.get_or_insert_with(|| ClientArena::new(&ctx.workload));
    let started = std::time::Instant::now();
    let report = run_client_round(
        &mut client,
        arena,
        &ctx.layout,
        &ctx.global,
        &ctx.workload.train,
        &ctx.workload,
        &ctx.fl,
        &ctx.opts,
        &plan,
    );
    ClientCompletion {
        ord,
        client,
        report,
        host_us: started.elapsed().as_secs_f64() * 1e6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_spawns_joins_and_clamps_to_one() {
        let pool = RoundExecutor::new(0);
        assert_eq!(pool.n_workers(), 1);
        let pool = RoundExecutor::new(3);
        assert_eq!(pool.n_workers(), 3);
        drop(pool); // must join cleanly with no work submitted
    }

    #[test]
    fn arena_reuses_scratch_capacity() {
        let w = Workload::tiny_mlp(1);
        let mut arena = ClientArena::new(&w);
        let n = arena.model.num_params();
        assert!(arena.flat.capacity() >= n, "scratch not pre-sized");
        arena.model.flat_params_into(&mut arena.flat);
        assert_eq!(arena.flat.len(), n);
    }

    #[test]
    fn halted_pool_reports_disconnected_instead_of_blocking() {
        let mut pool = RoundExecutor::new(2);
        pool.halt();
        assert!(matches!(pool.recv(), Err(ExecutorError::Disconnected)));
        assert!(matches!(
            pool.recv_timeout(Duration::from_millis(50)),
            Err(ExecutorError::Disconnected)
        ));
    }

    #[test]
    fn recv_timeout_bounds_the_wait_on_an_idle_pool() {
        let pool = RoundExecutor::new(1);
        let t0 = std::time::Instant::now();
        assert!(matches!(
            pool.recv_timeout(Duration::from_millis(20)),
            Err(ExecutorError::Timeout)
        ));
        assert!(t0.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn chunks_hold_the_cap_then_taper_to_singles() {
        // 128 clients on 2 workers at a cap of 5: five at a time until the
        // taper bound ⌈remaining / 8⌉ drops below the cap, then shorter.
        let mut lens = Vec::new();
        let mut remaining = 128;
        while remaining > 0 {
            let len = chunk_len(5, remaining, 2);
            assert!((1..=5).contains(&len));
            assert!(remaining > 8 || len == 1, "{remaining} left, chunk {len}");
            lens.push(len);
            remaining -= len;
        }
        assert_eq!(lens[0], 5);
        assert!(lens.windows(2).all(|w| w[0] >= w[1]), "{lens:?}");
        // A cap of 0 (clients slower than the budget) still moves one.
        assert_eq!(chunk_len(0, 128, 2), 1);
        assert_eq!(chunk_len(usize::MAX, 3, 4), 1);
    }

    #[test]
    fn executor_errors_display_and_compare() {
        assert_ne!(ExecutorError::Disconnected, ExecutorError::Timeout);
        assert!(ExecutorError::Disconnected
            .to_string()
            .contains("disconnected"));
        assert!(ExecutorError::Timeout.to_string().contains("timed out"));
    }
}
