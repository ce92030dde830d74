//! The experiment driver: multi-round FL on a persistent worker pool with
//! deterministic virtual time.
//!
//! [`Trainer::run_round`] is the paper's server loop (§5.1), one private
//! stage per step:
//!
//! 1. `open` — select the cohort, set the round deadline and the per-client
//!    iteration plans (FedAda's tuning), journal `RoundOpen`;
//! 2. `hydrate` — make the cohort resident in the lazy [`ClientStore`];
//! 3. `check_out` — move each client's state out with its plan: the anchor
//!    cadence, the fault draw, the latest parameters and the deadline;
//! 4. `run_cohort` — run the clients on the [`RoundExecutor`]'s workers
//!    (spawned once per trainer, each owning a reusable
//!    [`ClientArena`](crate::executor::ClientArena)) or the shard pool, and
//!    stream completed reports into the server's
//!    [`StreamingAggregator`];
//! 5. `close` — fold the earliest 90% of uploads, advance the clock to the
//!    cut, merge the clients' trace events, journal `AggregationCut`;
//! 6. `evaluate_if_due` — test accuracy every `eval_every` rounds;
//! 7. `record` — fault accounting, `RoundClose`, the residency cap, the
//!    [`RoundRecord`].
//!
//! Every client owns its state while training, so the run is data-race
//! free by construction and bit-identical regardless of which worker
//! finishes first.

use crate::algorithms::Scheme;
use crate::client::{ClientRoundReport, ClientState, RoundPlan};
use crate::config::FlConfig;
use crate::executor::{ClientCompletion, ClientDone, ClientWork, RoundCtx, RoundExecutor};
use crate::metrics::{outcomes_to_events, RoundRecord, TrainerOutput};
use crate::params::ModelLayout;
use crate::population::{ClientFactory, ClientStore, TrainerError};
use crate::server::{AggregationResult, Server, StreamingAggregator};
use crate::shard::ShardPool;
use crate::trace::{PendingEvent, TraceEvent, Tracer, SERVER_ORD};
use crate::workload::Workload;
use fedca_nn::loss::accuracy;
use fedca_nn::Model;
use fedca_sim::faults::FaultPlan;
use fedca_sim::network::Link;
use fedca_sim::SimTime;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// How the round's client work is executed: an in-process worker pool
/// (the default) or a pool of shard processes (`fl.shard.n_shards > 0`).
/// Both feed the identical root-side ordinal-order fold, so the choice is
/// behaviourally invisible.
enum Backend {
    Local(RoundExecutor),
    Sharded(Box<ShardPool>),
}

impl Backend {
    fn n_workers(&self) -> usize {
        match self {
            Backend::Local(e) => e.n_workers(),
            Backend::Sharded(p) => p.n_workers(),
        }
    }

    /// Runs one cohort: dispatches `work`, hands each resolved client to
    /// `on_done` as it finishes (exactly one event per work item — a client
    /// whose worker panicked arrives as [`ClientDone::Failed`], a client
    /// whose shard died is re-run in the root, so the round can never
    /// hang), and returns the round's shard-failover notes (none
    /// in-process).
    fn run_cohort(
        &mut self,
        work: Vec<ClientWork>,
        io_timeout: std::time::Duration,
        mut on_done: impl FnMut(ClientDone),
    ) -> Vec<TraceEvent> {
        match self {
            Backend::Local(executor) => {
                executor
                    .run_cohort(work, on_done)
                    .expect("worker pool alive while the trainer exists");
                Vec::new()
            }
            Backend::Sharded(pool) => {
                let n = work.len();
                pool.begin_round(work)
                    .unwrap_or_else(|e| panic!("shard dispatch failed: {e}"));
                for _ in 0..n {
                    on_done(
                        pool.recv_timeout(io_timeout)
                            .unwrap_or_else(|e| panic!("shard pool failed: {e}")),
                    );
                }
                pool.take_round_notes()
            }
        }
    }
}

/// Drives one `(scheme, workload)` experiment.
///
/// Client state is held by a lazy [`ClientStore`]: any client's initial
/// state is a pure function of `(fl.seed, id)`, so only the selected cohort
/// is ever materialized — a million-client population costs memory
/// proportional to the residency cap, not the population.
pub struct Trainer {
    fl: FlConfig,
    scheme: Scheme,
    workload: Workload,
    layout: Arc<ModelLayout>,
    server: Server,
    /// The lazy, rederivable client population.
    store: ClientStore,
    fault_plan: FaultPlan,
    backend: Backend,
    tracer: Tracer,
    eval_model: Model,
    clock: SimTime,
    rng: StdRng,
    records: Vec<RoundRecord>,
    /// Evaluate the global model every this many rounds (default 1).
    pub eval_every: usize,
}

/// Test samples per evaluation: the first this many of the test set.
const EVAL_SAMPLES: usize = 512;

/// Hydration/checkout invariants are upheld by the round loop itself, so a
/// violation mid-round is a bug, not a recoverable condition — but it now
/// carries a typed, descriptive error instead of a bare `expect`.
fn invariant<T>(r: Result<T, TrainerError>) -> T {
    r.unwrap_or_else(|e| panic!("client-store invariant violated: {e}"))
}

/// The default worker-pool size: one worker per selected client, at most
/// one per core.
fn default_workers(fl: &FlConfig) -> usize {
    fl.clients_per_round.clamp(
        1,
        std::thread::available_parallelism().map_or(8, |n| n.get()),
    )
}

/// One round as its stages hand it on: what `open` decided, and what the
/// later stages counted, timed and buffered for the trace and the record.
#[derive(Default)]
struct Round {
    index: usize,
    start: SimTime,
    selected: Vec<usize>,
    deadline: SimTime,
    /// Planned iterations per ordinal.
    plans: Vec<usize>,
    /// Whether any client of the cohort runs an anchor round.
    is_anchor: bool,
    /// Clients derived fresh by `hydrate` (not residency-cache hits).
    n_hydrated: usize,
    hydrate_host_us: f64,
    /// Client-side trace buffers, keyed by ordinal. Collected in completion
    /// order but merged canonically at close, so the journal never observes
    /// worker scheduling.
    trace_batches: Vec<(usize, Vec<PendingEvent>)>,
    /// Shard-failover notes (none in-process).
    shard_notes: Vec<TraceEvent>,
    n_quarantined: usize,
    n_reassigned: usize,
    aggregate_host_us: f64,
    /// The closed round's reports in ordinal order, `None` where the worker
    /// panicked.
    reports: Vec<Option<ClientRoundReport>>,
    accuracy: Option<f32>,
}

impl Trainer {
    /// Builds the federation: partitions the data non-IID, assigns device
    /// speeds/dynamics, and initializes the global model.
    pub fn new(fl: FlConfig, scheme: Scheme, workload: Workload) -> Self {
        let n_workers = default_workers(&fl);
        Self::new_with_workers(fl, scheme, workload, n_workers)
    }

    /// Like [`new`](Self::new) but with an explicit worker-pool size
    /// (determinism tests compare 1-worker vs N-worker runs bit-for-bit).
    pub fn new_with_workers(
        fl: FlConfig,
        scheme: Scheme,
        workload: Workload,
        n_workers: usize,
    ) -> Self {
        // Latch the kernel tier here, on the caller's thread: a bad
        // `FEDCA_FORCE_KERNEL` then fails once, now, instead of in every
        // worker's first GEMM, where each panic would only fail a client.
        fedca_tensor::gemm::active_kernel();
        let model = (workload.model_factory)();
        let layout = Arc::new(ModelLayout::from_spans(model.spans()));
        let initial = model.flat_params();

        // Derive-at-id population: no per-client table is built here. Any
        // client's shard, speed class, and RNG streams are pure functions of
        // `(fl.seed, id)`, hydrated on first selection.
        let store = ClientStore::new(ClientFactory::new(&fl, &workload, layout.clone()));

        // Optimistic default duration: nominal compute + both transfers.
        let link = Link::paper_client();
        let default_duration = workload.iter_work_seconds * fl.local_iters as f64
            + 2.0 * link.serialize_time(workload.wire_model_bytes);
        let server = Server::new(
            layout.clone(),
            initial,
            fl.aggregation_fraction,
            default_duration,
        );

        let tracer = Tracer::from_config(&fl.trace);
        tracer.emit(
            0.0,
            SERVER_ORD,
            0.0,
            TraceEvent::RunStart {
                scheme: scheme.name(),
                workload: workload.name.clone(),
                seed: fl.seed,
                n_workers: n_workers.max(1),
            },
        );

        // The pool lives for the trainer's whole life (workers are joined
        // — or shard children shut down — when the trainer drops).
        let backend = if fl.shard.n_shards > 0 {
            let spec = workload.spec.clone().unwrap_or_else(|| {
                panic!(
                    "sharded execution needs a registry workload \
                     (cnn/lstm/wrn/tiny_mlp) so shard children can rebuild it"
                )
            });
            let pool = ShardPool::new(&fl, &scheme, spec, n_workers.max(1))
                .unwrap_or_else(|e| panic!("failed to start shard pool: {e}"));
            Backend::Sharded(Box::new(pool))
        } else {
            Backend::Local(RoundExecutor::new(n_workers))
        };
        Trainer {
            rng: StdRng::seed_from_u64(fl.seed.wrapping_add(0xA11CE)),
            eval_model: model,
            backend,
            tracer,
            fault_plan: FaultPlan::new(fl.faults.clone()),
            fl,
            scheme,
            workload,
            layout,
            server,
            store,
            clock: 0.0,
            records: Vec::new(),
            eval_every: 1,
        }
    }

    /// The model layout shared by the federation.
    pub fn layout(&self) -> &Arc<ModelLayout> {
        &self.layout
    }

    /// Completed round records.
    pub fn records(&self) -> &[RoundRecord] {
        &self.records
    }

    /// The trainer's trace journal. Disabled (a no-op handle) unless
    /// `FlConfig::trace.enabled` is set; attach extra sinks with
    /// [`Tracer::add_sink`] before running rounds.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Access to a client (tests, examples), hydrating it on demand —
    /// which is why this takes `&mut self` now.
    pub fn client(&mut self, id: usize) -> &ClientState {
        &*invariant(self.store.client_mut(id))
    }

    /// The lazy client store (residency stats, direct hydration).
    pub fn store(&self) -> &ClientStore {
        &self.store
    }

    /// Current global parameters.
    pub fn global_params(&self) -> &[f32] {
        self.server.global().as_slice()
    }

    /// Worker threads per executor (per shard process when sharded).
    pub fn n_workers(&self) -> usize {
        self.backend.n_workers()
    }

    /// Mutable access to the shard pool when running sharded — chaos tests
    /// schedule deterministic kills through this. `None` in-process.
    pub fn shard_pool_mut(&mut self) -> Option<&mut ShardPool> {
        match &mut self.backend {
            Backend::Sharded(p) => Some(p),
            Backend::Local(_) => None,
        }
    }

    /// Runs one communication round; returns its record. The stages are
    /// the paper's server loop (§5.1): open the round (select, deadline,
    /// plans), hydrate the cohort, check it out, run it, close the
    /// aggregation, evaluate, record.
    ///
    /// Each host interval the record reports is measured once, and the
    /// trace's `hydrate`, `aggregate` and `round` spans carry those same
    /// numbers.
    pub fn run_round(&mut self) -> &RoundRecord {
        let host_t0 = Instant::now();
        let mut round = self.open();
        self.hydrate(&mut round);
        let work = self.check_out(&mut round);
        let agg = self.run_cohort(&mut round, work);
        let cut = self.close(&mut round, agg);
        self.evaluate_if_due(&mut round);
        self.record(host_t0, round, cut)
    }

    /// Selects the cohort, sets the round deadline and the per-client
    /// iteration plans (FedAda's tuning; K for everyone else), and opens
    /// the round in the trace.
    fn open(&mut self) -> Round {
        let index = self.records.len();
        let selected =
            self.server
                .select_clients(self.fl.n_clients, self.fl.clients_per_round, &mut self.rng);
        let deadline = self.server.round_deadline(&selected);
        let plans = self
            .server
            .plan_iterations(&self.scheme, &selected, self.fl.local_iters);
        let event = TraceEvent::RoundOpen {
            round: index,
            n_selected: selected.len(),
            deadline,
        };
        self.tracer.emit(self.clock, SERVER_ORD, 0.0, event);
        Round {
            index,
            start: self.clock,
            selected,
            deadline,
            plans,
            ..Round::default()
        }
    }

    /// Makes the cohort resident: derives any client not already resident
    /// from `(fl.seed, id)`, applying its dirty overlay if it was evicted
    /// earlier. Hydration is trajectory-neutral — the per-client events are
    /// non-canonical and the host time is operational — but the span itself
    /// is emitted identically on the eager and lazy paths, so it stays in
    /// the canonical stream. Its host time is the sum of the per-client
    /// hydrate intervals: the journal's own cost is not hydration.
    fn hydrate(&mut self, round: &mut Round) {
        for &client in &round.selected {
            let t0 = Instant::now();
            let fresh = invariant(self.store.hydrate(client));
            round.hydrate_host_us += t0.elapsed().as_secs_f64() * 1e6;
            round.n_hydrated += usize::from(fresh);
            let event = TraceEvent::ClientHydrated {
                round: round.index,
                client,
                fresh,
            };
            self.tracer.emit(round.start, SERVER_ORD, 0.0, event);
        }
        self.tracer
            .span("hydrate", round.start, round.hydrate_host_us, false);
    }

    /// Checks each client out with its plan: the anchor cadence counts that
    /// client's own participations, and its faults are drawn here.
    fn check_out(&mut self, round: &mut Round) -> Vec<ClientWork> {
        let ctx = Arc::new(RoundCtx {
            layout: self.layout.clone(),
            workload: self.workload.clone(),
            fl: self.fl.clone(),
            opts: self.scheme.client_options(),
            global: self.server.global().as_slice().to_vec(),
        });
        let period = self.scheme.profile_period();
        let mut work = Vec::with_capacity(round.selected.len());
        for (ord, &cid) in round.selected.iter().enumerate() {
            let client = invariant(self.store.checkout(cid));
            // A period of 0 (every scheme but FedCA) never profiles.
            let is_anchor = self.store.bump_participation(cid).checked_rem(period) == Some(0);
            round.is_anchor |= is_anchor;
            let plan = RoundPlan {
                round: round.index,
                start: round.start,
                deadline: round.deadline,
                planned_iters: round.plans[ord],
                is_anchor,
                faults: self.fault_plan.draw(round.index, cid, round.plans[ord]),
            };
            let event = TraceEvent::ClientCheckout {
                round: round.index,
                client: cid,
                planned_iters: plan.planned_iters,
                is_anchor,
            };
            self.tracer.emit(round.start, ord, 0.0, event);
            let kinds = self.tracer.is_enabled().then(|| plan.faults.active_kinds());
            if let Some(kinds) = kinds.filter(|kinds| !kinds.is_empty()) {
                let event = TraceEvent::FaultArmed {
                    round: round.index,
                    client: cid,
                    kinds,
                };
                self.tracer.emit(round.start, ord, 0.0, event);
            }
            work.push(ClientWork {
                ord,
                client,
                plan,
                ctx: Arc::clone(&ctx),
            });
        }
        work
    }

    /// Runs the cohort on the backend and streams each completion into the
    /// aggregator as its client finishes. The fold at `close` runs in
    /// ordinal order, so results do not depend on which worker (or shard)
    /// reports first.
    fn run_cohort(&mut self, round: &mut Round, work: Vec<ClientWork>) -> StreamingAggregator {
        let mut agg = self.server.begin_round(round.start, round.selected.len());
        agg.set_deadline(round.deadline);
        let collect = |done: ClientDone| match done {
            ClientDone::Completed(ClientCompletion {
                ord,
                client,
                mut report,
                host_us,
            }) => {
                let cid = round.selected[ord];
                debug_assert_eq!(report.client_id, cid, "report/client mismatch");
                debug_assert_eq!(client.id, cid, "state/client mismatch");
                if self.tracer.is_enabled() {
                    let mut events = std::mem::take(&mut report.trace);
                    let upload_done = report.upload_done.is_finite().then_some(report.upload_done);
                    let event = TraceEvent::ClientDone {
                        round: round.index,
                        client: cid,
                        iters_done: report.iters_done,
                        early_stopped: report.early_stopped,
                        upload_done,
                    };
                    let time = upload_done.unwrap_or(report.compute_done);
                    events.push(PendingEvent {
                        time,
                        host_us,
                        event,
                    });
                    round.trace_batches.push((ord, events));
                }
                invariant(self.store.check_in(client));
                agg.ingest(ord, report);
            }
            ClientDone::Failed(failure) => {
                let (ord, client) = (failure.ord, round.selected[failure.ord]);
                debug_assert_eq!(failure.client_id, client, "failure/client mismatch");
                // The checked-out state died with the worker's unwind (in
                // this process or in a shard child); derive it afresh.
                invariant(self.store.rebuild_failed(client));
                if self.tracer.is_enabled() {
                    // The unwind destroyed the client's buffered events;
                    // journal the failure itself at round start (the
                    // panic's virtual time died with the state).
                    let event = TraceEvent::ClientFailed {
                        round: round.index,
                        client,
                    };
                    let failed = PendingEvent {
                        time: round.start,
                        host_us: 0.0,
                        event,
                    };
                    round.trace_batches.push((ord, vec![failed]));
                }
                agg.mark_failed(ord);
            }
        };
        let notes = self
            .backend
            .run_cohort(work, self.fl.shard.io_timeout(), collect);
        let n_notes = |kind: &str| notes.iter().filter(|ev| ev.kind() == kind).count();
        round.n_quarantined = n_notes("shard_quarantined");
        round.n_reassigned = n_notes("ordinal_reassigned");
        round.shard_notes = notes;
        agg
    }

    /// Folds the collected uploads into the global model — the interval the
    /// `aggregate` span times — moves the clock to the cut, and journals
    /// the shard notes, the clients' buffered events and the cut.
    fn close(&mut self, round: &mut Round, agg: StreamingAggregator) -> AggregationResult {
        let t0 = Instant::now();
        let (agg, reports) = agg.close(&mut self.server);
        round.reports = reports;
        round.aggregate_host_us = t0.elapsed().as_secs_f64() * 1e6;
        // The aggregate span and the shard notes are off-stream: they reach
        // sinks for observability but never consume a canonical sequence
        // number, so neither timing nor a dying shard can shift golden
        // traces.
        let end = agg.completion;
        self.tracer
            .span("aggregate", end, round.aggregate_host_us, true);
        self.clock = end;
        for ev in std::mem::take(&mut round.shard_notes) {
            self.tracer.emit_offstream(end, SERVER_ORD, 0.0, ev);
        }
        self.tracer
            .merge_client_events(std::mem::take(&mut round.trace_batches));
        let event = TraceEvent::AggregationCut {
            round: round.index,
            completion: end,
            n_collected: agg.collected.len(),
            n_finite: agg.n_finite,
        };
        self.tracer.emit(end, SERVER_ORD, 0.0, event);
        agg
    }

    /// Evaluates the new global model every `eval_every` rounds, under an
    /// `evaluate` span.
    fn evaluate_if_due(&mut self, round: &mut Round) {
        if self.eval_every != 0 && round.index.is_multiple_of(self.eval_every) {
            let t0 = Instant::now();
            round.accuracy = Some(self.evaluate());
            let eval_us = t0.elapsed().as_secs_f64() * 1e6;
            self.tracer.span("evaluate", self.clock, eval_us, false);
        }
    }

    /// Accounts for every selected client, closes the round in the trace,
    /// enforces the residency cap and appends the round's record. `host_ms`
    /// (the `round` span) is read after the evictions.
    fn record(&mut self, host_t0: Instant, round: Round, agg: AggregationResult) -> &RoundRecord {
        let (end, collected, reports) = (agg.completion, &agg.collected, &round.reports);
        let loss_sum: f64 = collected
            .iter()
            .map(|&i| reports[i].as_ref().expect("collected").train_loss as f64)
            .sum();
        let mean_train_loss = (loss_sum / collected.len().max(1) as f64) as f32;
        let arrived = || reports.iter().flatten();
        let eager_events = arrived()
            .flat_map(|r| outcomes_to_events(r.client_id, &r.eager_outcomes))
            .collect();
        // Fault accounting: panics destroyed the client and left no report;
        // crashes returned a report with the crash flag; ingest rejected some arrived uploads;
        // other survivors whose upload landed after the cut — late, or lost
        // and so arriving at +inf — missed the deadline and had their update
        // discarded. A rejected client's work and bytes still count below.
        let n_crashed = reports.len() - arrived().filter(|r| !r.crashed).count();
        let n_deadline_missed = reports
            .iter()
            .enumerate()
            .filter(|&(ord, r)| {
                r.as_ref()
                    .is_some_and(|r| !r.crashed && r.upload_done > end)
                    && agg.rejected.binary_search(&ord).is_err()
            })
            .count();
        let event = TraceEvent::RoundClose {
            round: round.index,
            end,
            n_aggregated: collected.len(),
            n_crashed,
            n_deadline_missed,
        };
        self.tracer.emit(end, SERVER_ORD, 0.0, event);
        // Enforce the residency cap now that every client is home: beyond
        // `population.cache_clients`, least-recently-selected clients move
        // their mutated state to the compact dirty overlay.
        let n_evicted = self.store.end_round();
        let host_ms = host_t0.elapsed().as_secs_f64() * 1e3;
        self.tracer.span("round", end, host_ms * 1e3, false);
        let total = |f: fn(&ClientRoundReport) -> f64| arrived().map(f).sum();
        self.records.push(RoundRecord {
            round: round.index,
            start: round.start,
            end,
            accuracy: round.accuracy,
            mean_train_loss,
            n_selected: round.selected.len(),
            n_aggregated: collected.len(),
            n_crashed,
            n_deadline_missed,
            n_rejected: agg.rejected.len(),
            iters_done: reports
                .iter()
                .map(|r| r.as_ref().map_or(0, |r| r.iters_done))
                .collect(),
            iters_planned: round.plans,
            early_stops: reports
                .iter()
                .map(|r| r.as_ref().is_some_and(|r| r.early_stopped))
                .collect(),
            eager_events,
            bytes_uploaded: total(|r| r.bytes_uploaded),
            wire_bytes_uploaded: total(|r| r.wire_bytes_uploaded),
            wire_bytes_dense: total(|r| r.wire_bytes_dense),
            is_anchor: round.is_anchor,
            host_ms,
            n_hydrated: round.n_hydrated,
            n_evicted,
            hydrate_host_us: round.hydrate_host_us,
            decode_host_us: agg.decode_host_us,
            aggregate_host_us: round.aggregate_host_us,
            n_retries: 0,
            n_heartbeat_missed: 0,
            n_quarantined: round.n_quarantined,
            n_reassigned: round.n_reassigned,
        });
        self.records.last().expect("just pushed")
    }

    /// Evaluates the global model's test accuracy.
    ///
    /// Batch-norm note: only trainable parameters are federated, so there
    /// are no running statistics to evaluate with; batch norm normalizes
    /// with the statistics of each 64-sample eval batch — the standard
    /// workaround for BN in FedAvg-style systems, and the layer's only mode
    /// (DESIGN §4 item 12).
    pub fn evaluate(&mut self) -> f32 {
        self.eval_model
            .set_flat_params(self.server.global().as_slice());
        let test = &self.workload.test;
        let n = test.len().min(EVAL_SAMPLES);
        let mut correct = 0.0f64;
        let mut seen = 0usize;
        let mut start = 0usize;
        let mut idx: Vec<usize> = Vec::with_capacity(64);
        while start < n {
            let end = (start + 64).min(n);
            idx.clear();
            idx.extend(start..end);
            let (x, y) = test.batch(&idx);
            let logits = self.eval_model.forward(&x);
            correct += accuracy(&logits, &y) as f64 * idx.len() as f64;
            seen += idx.len();
            start = end;
        }
        (correct / seen.max(1) as f64) as f32
    }

    /// Runs `rounds` rounds, returning the full output.
    pub fn run(&mut self, rounds: usize) -> TrainerOutput {
        for _ in 0..rounds {
            self.run_round();
        }
        self.output()
    }

    /// Runs until test accuracy reaches `target` (or `max_rounds`).
    pub fn run_until_accuracy(&mut self, target: f32, max_rounds: usize) -> TrainerOutput {
        for _ in 0..max_rounds {
            if self.run_round().accuracy.is_some_and(|a| a >= target) {
                break;
            }
        }
        self.output()
    }

    /// Snapshot of the results so far.
    pub fn output(&self) -> TrainerOutput {
        TrainerOutput {
            scheme: self.scheme.name(),
            workload: self.workload.name.clone(),
            rounds: self.records.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::FedCaOptions;
    use crate::config::FaultConfig;
    use crate::workload::Workload;

    fn tiny_fl() -> FlConfig {
        FlConfig {
            n_clients: 8,
            clients_per_round: 4,
            local_iters: 6,
            batch_size: 8,
            lr: 0.05,
            weight_decay: 0.0,
            aggregation_fraction: 0.9,
            dirichlet_alpha: 0.5,
            seed: 11,
            heterogeneity: true,
            dynamicity: false,
            compression: Default::default(),
            faults: FaultConfig::none(),
            trace: Default::default(),
            population: Default::default(),
            shard: Default::default(),
        }
    }

    #[test]
    fn fedavg_round_advances_clock_and_records() {
        let mut t = Trainer::new(tiny_fl(), Scheme::FedAvg, Workload::tiny_mlp(1));
        let out = t.run(3);
        assert_eq!(out.rounds.len(), 3);
        assert!(out.rounds[0].end > 0.0);
        assert!(out.rounds[2].end > out.rounds[1].end);
        assert_eq!(out.rounds[0].n_selected, 4);
        assert!(out.rounds[0].n_aggregated >= 3);
        assert!(out.rounds[0].accuracy.is_some());
        assert!(out
            .rounds
            .iter()
            .all(|r| r.iters_done.iter().all(|&i| i == 6)));
    }

    #[test]
    fn training_improves_accuracy_on_tiny_task() {
        let mut t = Trainer::new(tiny_fl(), Scheme::FedAvg, Workload::tiny_mlp(2));
        let first = t.evaluate();
        let out = t.run(15);
        let best = out.best_accuracy();
        assert!(
            best > first + 0.2,
            "no learning: initial {first}, best {best}"
        );
    }

    #[test]
    fn worker_pool_is_spawned_once_and_reused() {
        let mut t = Trainer::new(tiny_fl(), Scheme::FedAvg, Workload::tiny_mlp(6));
        let n = t.n_workers();
        assert!(
            (1..=4).contains(&n),
            "pool sized by clients_per_round, got {n}"
        );
        t.run(3);
        assert_eq!(t.n_workers(), n, "pool must persist across rounds");
        assert!(t.records().iter().all(|r| r.host_ms > 0.0));
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let mut t = Trainer::new(tiny_fl(), Scheme::fedca_default(), Workload::tiny_mlp(3));
            t.run(5)
        };
        let a = run();
        let b = run();
        for (ra, rb) in a.rounds.iter().zip(&b.rounds) {
            assert_eq!(ra.end, rb.end, "round {} time diverged", ra.round);
            assert_eq!(
                ra.accuracy, rb.accuracy,
                "round {} accuracy diverged",
                ra.round
            );
            assert_eq!(ra.iters_done, rb.iters_done);
        }
    }

    #[test]
    fn inert_fault_plan_leaves_trajectories_byte_identical() {
        // A seeded FaultConfig with all probabilities at zero must produce
        // exactly the trajectory of the default (fault-free) config.
        let mut zeroed = FaultConfig::none();
        zeroed.seed = 999; // seed alone must not perturb anything
        let base = Trainer::new(tiny_fl(), Scheme::FedAvg, Workload::tiny_mlp(1)).run(3);
        let faulted = Trainer::new(
            FlConfig {
                faults: zeroed,
                ..tiny_fl()
            },
            Scheme::FedAvg,
            Workload::tiny_mlp(1),
        )
        .run(3);
        for (ra, rb) in base.rounds.iter().zip(&faulted.rounds) {
            assert_eq!(ra.end, rb.end);
            assert_eq!(ra.accuracy, rb.accuracy);
            assert_eq!(ra.iters_done, rb.iters_done);
            assert_eq!(rb.n_crashed, 0);
        }
    }

    #[test]
    fn chaos_round_survives_panics_and_accounts_faults() {
        let fl = FlConfig {
            faults: FaultConfig::chaos(7),
            seed: 7,
            ..tiny_fl()
        };
        let mut t = Trainer::new(fl, Scheme::FedAvg, Workload::tiny_mlp(1));
        let out = t.run(6);
        assert_eq!(out.rounds.len(), 6, "chaos must not stall the trainer");
        let total_faults: usize = out.rounds.iter().map(|r| r.n_crashed).sum();
        assert!(
            total_faults > 0,
            "chaos(7) over 24 client-rounds drew no fault"
        );
        for r in &out.rounds {
            assert!(r.end >= r.start, "round {} clock went backwards", r.round);
            assert_eq!(r.iters_done.len(), r.n_selected);
            // Every selected client is accounted for exactly once.
            assert_eq!(
                r.n_aggregated + r.n_crashed + r.n_deadline_missed + r.n_rejected,
                r.n_selected,
                "round {}: {r:?}",
                r.round
            );
        }
        // Every client slot must be occupied again (panicked ones rebuilt).
        for id in 0..8 {
            assert_eq!(t.client(id).id, id);
        }
    }

    #[test]
    fn tracing_disabled_by_default_and_records_when_enabled() {
        let mut off = Trainer::new(tiny_fl(), Scheme::FedAvg, Workload::tiny_mlp(1));
        off.run(1);
        assert!(!off.tracer().is_enabled());
        assert!(off.tracer().ring_records().is_empty());

        let fl = FlConfig {
            trace: crate::trace::TraceConfig::enabled(),
            ..tiny_fl()
        };
        let mut on = Trainer::new(fl, Scheme::FedAvg, Workload::tiny_mlp(1));
        on.run(2);
        let recs = on.tracer().ring_records();
        let kind_count = |k: &str| recs.iter().filter(|r| r.event.kind() == k).count();
        assert_eq!(kind_count("run_start"), 1);
        assert_eq!(kind_count("round_open"), 2);
        assert_eq!(kind_count("round_close"), 2);
        assert_eq!(kind_count("aggregation_cut"), 2);
        assert_eq!(kind_count("client_checkout"), 8, "4 clients × 2 rounds");
        assert_eq!(kind_count("client_done"), 8);
        assert_eq!(kind_count("client_hydrated"), 8, "one per selection");
        assert_eq!(kind_count("fault_armed"), 0, "fault-free run");
        // Spans: "hydrate" + "round" + "evaluate" per round with canonical
        // seqs, plus one off-stream "aggregate" span per round.
        assert_eq!(kind_count("span"), 8);
        assert!(recs
            .iter()
            .filter(|r| r.event.kind() == "span")
            .all(|r| r.host_us > 0.0));
        assert_eq!(
            recs.iter()
                .filter(|r| r.seq == crate::trace::OFFSTREAM_SEQ)
                .count(),
            2,
            "one off-stream aggregate span per round"
        );
        // Seq numbers are the canonical stream order; off-stream records
        // never consume one.
        for (i, r) in recs
            .iter()
            .filter(|r| r.seq != crate::trace::OFFSTREAM_SEQ)
            .enumerate()
        {
            assert_eq!(r.seq, i as u64);
        }
    }

    #[test]
    fn spans_carry_the_records_own_timings_bit_for_bit() {
        let fl = FlConfig {
            trace: crate::trace::TraceConfig::enabled(),
            ..tiny_fl()
        };
        let mut t = Trainer::new(fl, Scheme::FedAvg, Workload::tiny_mlp(1));
        t.run(3);
        let recs = t.tracer().ring_records();
        let span_us = |name: &str| -> Vec<f64> {
            recs.iter()
                .filter(|r| matches!(&r.event, TraceEvent::Span { name: n } if n == name))
                .map(|r| r.host_us)
                .collect()
        };
        let records = t.records();
        let field = |f: fn(&RoundRecord) -> f64| records.iter().map(f).collect::<Vec<_>>();
        assert_eq!(span_us("hydrate"), field(|r| r.hydrate_host_us));
        assert_eq!(span_us("aggregate"), field(|r| r.aggregate_host_us));
        assert_eq!(span_us("round"), field(|r| r.host_ms * 1000.0));
        assert_eq!(span_us("evaluate").len(), 3);
    }

    #[test]
    fn enabling_tracing_never_perturbs_the_trajectory() {
        let base = Trainer::new(tiny_fl(), Scheme::fedca_default(), Workload::tiny_mlp(3)).run(4);
        let traced = Trainer::new(
            FlConfig {
                trace: crate::trace::TraceConfig::enabled(),
                ..tiny_fl()
            },
            Scheme::fedca_default(),
            Workload::tiny_mlp(3),
        )
        .run(4);
        for (ra, rb) in base.rounds.iter().zip(&traced.rounds) {
            assert_eq!(ra.end, rb.end, "round {} time diverged", ra.round);
            assert_eq!(ra.accuracy, rb.accuracy);
            assert_eq!(ra.iters_done, rb.iters_done);
        }
    }

    #[test]
    fn fedca_first_participation_is_anchor() {
        let mut t = Trainer::new(tiny_fl(), Scheme::fedca_default(), Workload::tiny_mlp(4));
        let rec = t.run_round();
        assert!(rec.is_anchor, "first participations must profile");
        // All selected clients ran the full workload on their anchor round.
        assert!(rec.iters_done.iter().all(|&i| i == 6));
    }

    #[test]
    fn anchor_cadence_counts_each_clients_own_participations() {
        let scheme = Scheme::FedCa(FedCaOptions::full_with(crate::config::FedCaConfig {
            profile_period: 3,
            ..Default::default()
        }));
        let fl = FlConfig {
            trace: crate::trace::TraceConfig::enabled(),
            ..tiny_fl()
        };
        let mut t = Trainer::new(fl, scheme, Workload::tiny_mlp(4));
        t.run(20);
        // Per client, `is_anchor` of each checkout in participation order.
        let mut anchors: Vec<Vec<bool>> = vec![Vec::new(); 8];
        for r in t.tracer().ring_records() {
            if let TraceEvent::ClientCheckout {
                client, is_anchor, ..
            } = r.event
            {
                anchors[client].push(is_anchor);
            }
        }
        assert!(anchors.iter().any(|a| a.len() >= 7), "{anchors:?}");
        for (client, a) in anchors.iter().enumerate() {
            let want: Vec<bool> = (0..a.len()).map(|i| i % 3 == 0).collect();
            assert_eq!(
                a, &want,
                "client {client}: anchors at participations 1, 4, 7, …"
            );
        }
    }

    #[test]
    fn rejected_uploads_keep_their_work_and_bytes_in_the_record() {
        let mut faults = FaultConfig::none();
        faults.corrupt_update_prob = 0.3;
        let fl = FlConfig {
            faults,
            trace: crate::trace::TraceConfig::enabled(),
            ..tiny_fl()
        };
        let mut t = Trainer::new(fl, Scheme::FedAvg, Workload::tiny_mlp(1));
        t.run(6);
        // FedAvg uploads the same dense payload from every client, so a
        // fault-free round prices each round's uploads.
        let clean = Trainer::new(tiny_fl(), Scheme::FedAvg, Workload::tiny_mlp(1)).run(1);
        let recs = t.tracer().ring_records();
        let mut n_rejected = 0;
        for r in t.records() {
            n_rejected += r.n_rejected;
            assert_eq!(
                r.n_aggregated + r.n_crashed + r.n_deadline_missed + r.n_rejected,
                r.n_selected,
                "round {}: {r:?}",
                r.round
            );
            assert_eq!(r.bytes_uploaded, clean.rounds[0].bytes_uploaded);
            assert_eq!(r.wire_bytes_uploaded, clean.rounds[0].wire_bytes_uploaded);
            for (ord, &iters) in r.iters_done.iter().enumerate() {
                let traced = recs.iter().find_map(|rec| match rec.event {
                    TraceEvent::ClientDone {
                        round, iters_done, ..
                    } if round == r.round && rec.ord == ord => Some(iters_done),
                    _ => None,
                });
                assert_eq!(Some(iters), traced, "round {} ordinal {ord}", r.round);
            }
        }
        assert!(n_rejected > 0, "corrupt_update_prob 0.3 rejected nothing");
    }

    /// Relations that follow from the paper's definitions or the
    /// simulator's own. Both sides of each row — a config and a scheme —
    /// train the same global model bit for bit and report the same round
    /// ends, accuracies, plans, iterations, early stops, crashes, bytes and
    /// eager events: a run repeats itself; a seeded all-zero fault plan is no
    /// fault plan; tracing observes without perturbing; FedCA with every
    /// mechanism off is FedAvg plus profiling; with F = 1 every participation
    /// is an unoptimized anchor (footnote 3); on homogeneous devices FedAda's
    /// tuning is the identity. v1 and v2 are threshold settings of v3, so
    /// their runs are checked against what the thresholds promise: v1 (an
    /// unreachable `T_e`) never sends eagerly, and v2 (a `T_r` below every
    /// cosine) sends but never retransmits.
    #[test]
    fn related_schemes_train_bit_identical_models() {
        use crate::config::FedCaConfig;
        use fedca_compress::Compression;
        let off = FedCaOptions {
            early_stop: false,
            ..FedCaOptions::v1()
        };
        for compression in [Compression::None, Compression::Int8] {
            let fl = FlConfig {
                local_iters: 12,
                dynamicity: true,
                compression,
                ..tiny_fl()
            };
            // The fault plan's seed alone must not perturb anything.
            let zero_faults = FlConfig {
                faults: FaultConfig {
                    seed: 999,
                    ..FaultConfig::none()
                },
                ..fl.clone()
            };
            let traced = FlConfig {
                trace: crate::trace::TraceConfig::enabled(),
                ..fl.clone()
            };
            let homogeneous = FlConfig {
                heterogeneity: false,
                dynamicity: false,
                ..fl.clone()
            };
            // Every client believes its deadline is out of reach, so with
            // β = 0 the marginal-utility test can never stop it early.
            let slipped = FlConfig {
                faults: FaultConfig {
                    deadline_slip_prob: 1.0,
                    deadline_slip_max: 1e12,
                    ..FaultConfig::none()
                },
                ..fl.clone()
            };
            let mut v1_beta0 = FedCaOptions::v1();
            v1_beta0.config.beta = 0.0;
            let v1_beta0 = Scheme::FedCa(v1_beta0);
            let with = |scheme: Scheme| (fl.clone(), scheme);
            let fedca = Scheme::fedca_default();
            let rows = [
                ("same run twice", with(fedca.clone()), with(fedca.clone())),
                (
                    "seeded all-zero fault plan = none",
                    (zero_faults, fedca.clone()),
                    with(fedca.clone()),
                ),
                ("tracing on = off", (traced, fedca.clone()), with(fedca)),
                (
                    "all mechanisms off = FedAvg",
                    with(Scheme::FedCa(off.clone())),
                    with(Scheme::FedAvg),
                ),
                (
                    "F = 1: FedCA = FedAvg",
                    with(Scheme::FedCa(FedCaOptions::full_with(FedCaConfig {
                        profile_period: 1,
                        ..Default::default()
                    }))),
                    with(Scheme::FedAvg),
                ),
                (
                    "homogeneous devices: FedAda = FedAvg",
                    (homogeneous.clone(), Scheme::fedada_default()),
                    (homogeneous, Scheme::FedAvg),
                ),
                (
                    "beta = 0, unreachable deadline: v1 = FedAvg",
                    (slipped.clone(), v1_beta0),
                    (slipped, Scheme::FedAvg),
                ),
            ];
            let run = |(fl, scheme): &(FlConfig, Scheme)| {
                let mut t = Trainer::new(fl.clone(), scheme.clone(), Workload::tiny_mlp(11));
                t.run(10);
                t
            };
            let bits = |t: &Trainer| {
                t.global_params()
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>()
            };
            let key = |r: &RoundRecord| {
                let bits = (
                    r.end.to_bits(),
                    r.accuracy.map(f32::to_bits),
                    r.bytes_uploaded.to_bits(),
                );
                let plans = (
                    r.iters_planned.clone(),
                    r.iters_done.clone(),
                    r.early_stops.clone(),
                );
                (bits, plans, r.n_crashed, r.eager_events.clone())
            };
            let (mut stops, mut eager) = (0, 0);
            for (name, a, b) in &rows {
                let (ta, tb) = (run(a), run(b));
                let tag = format!("{name}, {compression:?}");
                assert!(bits(&ta) == bits(&tb), "{tag}: global parameters differ");
                assert_eq!(ta.records().len(), 10);
                for (ra, rb) in ta.records().iter().zip(tb.records()) {
                    assert_eq!(key(ra), key(rb), "{tag}: round {}", ra.round);
                    stops += ra.early_stops.iter().filter(|&&s| s).count();
                    eager += ra.eager_events.len();
                }
            }
            assert!(
                stops > 0 && eager > 0,
                "{compression:?}: {stops} stops, {eager} eager"
            );
            // v1 sends nothing eagerly; v2 sends, and keeps all it sent.
            for (o, sends) in [(FedCaOptions::v1(), false), (FedCaOptions::v2(), true)] {
                let t = run(&with(Scheme::FedCa(o)));
                let events: Vec<_> = t.records().iter().flat_map(|r| &r.eager_events).collect();
                assert_eq!(!events.is_empty(), sends, "{compression:?}: {events:?}");
                assert!(events.iter().all(|e| !e.retransmitted), "{compression:?}");
            }
        }
    }
}
