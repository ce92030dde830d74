//! Event-driven round execution: a persistent worker pool with per-worker
//! client arenas.
//!
//! The [`Trainer`](crate::runner::Trainer) spawns one [`RoundExecutor`] at
//! construction and keeps it for its whole life. Each round it moves the
//! selected clients' state into [`ClientWork`] messages; workers pull work
//! from a shared queue, run [`run_client_round`], and stream
//! [`ClientDone`] events back over a channel *as clients finish*, so the
//! server can feed its streaming aggregator without waiting for a barrier.
//!
//! Every worker owns a [`ClientArena`]: one cached model instance (built
//! once from the workload's factory, fully overwritten by
//! `set_flat_params` at the start of every client round) plus a flat
//! parameter scratch buffer. Reuse is bit-safe: the optimizer is stateless
//! and batch-norm running statistics never affect training-mode forward
//! passes, so a freshly-built model and a reset arena model are
//! indistinguishable.
//!
//! Determinism does not depend on scheduling: all timing flows through the
//! virtual clock inside each client's report, and aggregation folds in
//! canonical report order, so the OS-level completion order of workers is
//! irrelevant to the results.

use crate::client::{run_client_round, ClientOptions, ClientRoundReport, ClientState, RoundPlan};
use crate::config::FlConfig;
use crate::params::ModelLayout;
use crate::workload::Workload;
use fedca_nn::Model;
use fedca_tensor::Tensor;
use parking_lot::Mutex;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
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

enum WorkerMsg {
    Work(Box<ClientWork>),
    Shutdown,
}

/// A persistent pool of client-execution workers.
///
/// Spawned once (by `Trainer::new`), fed with [`submit`](Self::submit), and
/// drained with [`recv`](Self::recv); threads are joined on drop. A panic
/// inside client code is caught on the worker, which survives and reports a
/// [`ClientDone::Failed`] event instead — the pool never deadlocks on a
/// dying client, and a dead pool surfaces as [`ExecutorError::Disconnected`]
/// rather than a blocked `recv`.
pub struct RoundExecutor {
    work_tx: Sender<WorkerMsg>,
    done_rx: Receiver<ClientDone>,
    handles: Vec<JoinHandle<()>>,
}

impl RoundExecutor {
    /// Spawns `n_workers` (at least one) worker threads.
    pub fn new(n_workers: usize) -> Self {
        let n_workers = n_workers.max(1);
        let (work_tx, work_rx) = channel::<WorkerMsg>();
        let work_rx = Arc::new(Mutex::new(work_rx));
        let (done_tx, done_rx) = channel::<ClientDone>();
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
            handles,
        }
    }

    /// Number of worker threads.
    pub fn n_workers(&self) -> usize {
        self.handles.len()
    }

    /// Enqueues one client round; returns immediately. Fails (returning the
    /// error instead of panicking) if every worker has exited.
    pub fn submit(&self, work: ClientWork) -> Result<(), ExecutorError> {
        self.work_tx
            .send(WorkerMsg::Work(Box::new(work)))
            .map_err(|_| ExecutorError::Disconnected)
    }

    /// Blocks until the next client's work item resolves (in completion
    /// order, not submission order). A panic inside client code arrives as
    /// [`ClientDone::Failed`]; a dead worker pool is detected and returned
    /// as [`ExecutorError::Disconnected`] instead of blocking forever.
    pub fn recv(&self) -> Result<ClientDone, ExecutorError> {
        self.done_rx.recv().map_err(|_| ExecutorError::Disconnected)
    }

    /// Like [`recv`](Self::recv) but bounded: returns
    /// [`ExecutorError::Timeout`] if nothing resolves within `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<ClientDone, ExecutorError> {
        self.done_rx.recv_timeout(timeout).map_err(|e| match e {
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

fn worker_loop(rx: Arc<Mutex<Receiver<WorkerMsg>>>, tx: Sender<ClientDone>) {
    // The arena persists across rounds; it is built lazily from the first
    // work item's context so the pool itself stays workload-agnostic.
    let mut arena: Option<ClientArena> = None;
    loop {
        let msg = rx.lock().recv();
        let work = match msg {
            Ok(WorkerMsg::Work(w)) => w,
            Ok(WorkerMsg::Shutdown) | Err(_) => return,
        };
        // Remember enough to attribute a failure: the unwind destroys the
        // work item (and the client state moved into it).
        let (ord, client_id) = (work.ord, work.client.id);
        let result = match catch_unwind(AssertUnwindSafe(|| execute(&mut arena, *work))) {
            Ok(done) => ClientDone::Completed(done),
            Err(payload) => ClientDone::Failed(ClientFailure {
                ord,
                client_id,
                panic_msg: panic_message(&payload),
            }),
        };
        if tx.send(result).is_err() {
            return;
        }
    }
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
    fn executor_errors_display_and_compare() {
        assert_ne!(ExecutorError::Disconnected, ExecutorError::Timeout);
        assert!(ExecutorError::Disconnected
            .to_string()
            .contains("disconnected"));
        assert!(ExecutorError::Timeout.to_string().contains("timed out"));
    }
}
