//! The experiment driver: multi-round FL on a persistent worker pool with
//! deterministic virtual time.
//!
//! Each round: the server selects clients, offloads the latest parameters
//! plus the round deadline (§5.1), the selected clients' state is moved to
//! the [`RoundExecutor`]'s workers (spawned once per trainer, each owning a
//! reusable [`ClientArena`](crate::executor::ClientArena)), and completed
//! reports stream back into the server's
//! [`StreamingAggregator`](crate::server::StreamingAggregator), which
//! collects the earliest 90% of uploads. Every client owns its state while
//! training, so the run is data-race free by construction and bit-identical
//! regardless of which worker finishes first.

use crate::algorithms::Scheme;
use crate::checkpoint::{fnv1a, CheckpointEnvelope, CheckpointError};
use crate::client::{ClientState, RoundPlan};
use crate::config::FlConfig;
use crate::executor::{ClientCompletion, ClientDone, ClientWork, RoundCtx, RoundExecutor};
use crate::metrics::{outcomes_to_events, RoundRecord, TrainerOutput};
use crate::params::ModelLayout;
use crate::population::{ClientFactory, ClientStore, TrainerError};
use crate::server::Server;
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
        let n = work.len();
        match self {
            Backend::Local(executor) => {
                for w in work {
                    executor
                        .submit(w)
                        .expect("worker pool alive while the trainer exists");
                }
                for _ in 0..n {
                    on_done(
                        executor
                            .recv()
                            .expect("worker pool alive while the trainer exists"),
                    );
                }
                Vec::new()
            }
            Backend::Sharded(pool) => {
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

/// `FlConfig` sections that cannot change the trajectory: whether tracing
/// is on, how many hydrated clients stay resident, and the process
/// topology.
const TRAJECTORY_NEUTRAL_SECTIONS: [&str; 3] = ["trace", "population", "shard"];

/// The text a snapshot's fingerprint hashes: the `FlConfig` with its
/// [`TRAJECTORY_NEUTRAL_SECTIONS`] *removed*, plus the scheme and the
/// workload name. Removed, not reset to their defaults: the shape of a
/// section the trajectory does not depend on (a field added to or retired
/// from `ShardConfig`, say) must not move the fingerprint, and a restore may
/// use a different tracing setup, residency cap or shard count than the run
/// that took the snapshot.
fn run_identity(fl: &FlConfig, scheme: &Scheme, workload: &str) -> String {
    let serde::Value::Object(mut sections) = serde_json::to_value(fl).expect("config serializes")
    else {
        unreachable!("FlConfig serializes to an object");
    };
    sections.retain(|(key, _)| !TRAJECTORY_NEUTRAL_SECTIONS.contains(&key.as_str()));
    let config = serde_json::to_string(&serde::Value::Object(sections)).expect("value serializes");
    let scheme = serde_json::to_string(scheme).expect("scheme serializes");
    format!("{config}|{scheme}|{workload}")
}

/// The default worker-pool size: one worker per selected client, at most
/// one per core.
fn default_workers(fl: &FlConfig) -> usize {
    fl.clients_per_round.clamp(
        1,
        std::thread::available_parallelism().map_or(8, |n| n.get()),
    )
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
        let model = (workload.model_factory)();
        let layout = Arc::new(ModelLayout::from_spans(model.spans()));
        let initial = model.flat_params();

        // Derive-at-id population: no per-client table is built here. Any
        // client's shard, speed class, and RNG streams are pure functions of
        // `(fl.seed, id)`, hydrated on first selection.
        let store = ClientStore::new(ClientFactory::new(&fl, &scheme, &workload, layout.clone()));

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

    /// The virtual clock (end of the last completed round).
    pub fn clock(&self) -> SimTime {
        self.clock
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

    /// Runs one communication round; returns its record.
    ///
    /// Each host interval the record reports is measured once, and the
    /// trace's `hydrate`, `aggregate` and `round` spans carry those same
    /// numbers.
    pub fn run_round(&mut self) -> &RoundRecord {
        let host_t0 = Instant::now();
        let tracing = self.tracer.is_enabled();
        let round = self.records.len();
        self.store.begin_round();
        let selected =
            self.server
                .select_clients(self.fl.n_clients, self.fl.clients_per_round, &mut self.rng);

        let deadline = self.server.round_deadline(&selected);
        let plans = self
            .server
            .plan_iterations(&self.scheme, &selected, self.fl.local_iters);
        let opts = self.scheme.client_options();
        let profile_period = self.scheme.profile_period();

        let round_start = self.clock;
        self.tracer.emit(
            round_start,
            SERVER_ORD,
            0.0,
            TraceEvent::RoundOpen {
                round,
                n_selected: selected.len(),
                deadline,
            },
        );

        // Hydrate the cohort: derive any client not already resident from
        // `(fl.seed, id)` (applying its dirty overlay if it was evicted
        // earlier). Hydration is trajectory-neutral — the per-client events
        // are non-canonical and the host time is operational — but the span
        // itself is emitted identically on the eager and lazy paths, so it
        // stays in the canonical stream. Its host time is the sum of the
        // per-client hydrate intervals: the journal's own cost is not
        // hydration.
        let mut hydrate_host_us = 0.0;
        for &cid in &selected {
            let hydrate_t0 = Instant::now();
            let fresh = invariant(self.store.hydrate(cid));
            hydrate_host_us += hydrate_t0.elapsed().as_secs_f64() * 1e6;
            if tracing {
                self.tracer.emit(
                    self.clock,
                    SERVER_ORD,
                    0.0,
                    TraceEvent::ClientHydrated {
                        round,
                        client: cid,
                        fresh,
                    },
                );
            }
        }
        self.tracer
            .span("hydrate", self.clock, hydrate_host_us, false);

        // Check each client out to the backend with its plan; the anchor
        // cadence is per participation, read off the checked-out state.
        let ctx = Arc::new(RoundCtx {
            layout: self.layout.clone(),
            workload: self.workload.clone(),
            fl: self.fl.clone(),
            opts,
            global: self.server.global().as_slice().to_vec(),
        });
        let is_fedca = matches!(self.scheme, Scheme::FedCa(_));
        let mut any_anchor = false;
        let mut work: Vec<ClientWork> = Vec::with_capacity(selected.len());
        for (ord, &cid) in selected.iter().enumerate() {
            let mut client = invariant(self.store.checkout(cid));
            let is_anchor = is_fedca
                && profile_period != 0
                && client.participations.is_multiple_of(profile_period);
            any_anchor |= is_anchor;
            client.participations += 1;
            self.store.bump_participation(cid);
            let plan = RoundPlan {
                round,
                start: round_start,
                deadline,
                planned_iters: plans[ord],
                is_anchor,
                faults: self.fault_plan.draw(round, cid, plans[ord]),
            };
            if tracing {
                self.tracer.emit(
                    round_start,
                    ord,
                    0.0,
                    TraceEvent::ClientCheckout {
                        round,
                        client: cid,
                        planned_iters: plan.planned_iters,
                        is_anchor,
                    },
                );
                let kinds = plan.faults.active_kinds();
                if !kinds.is_empty() {
                    self.tracer.emit(
                        round_start,
                        ord,
                        0.0,
                        TraceEvent::FaultArmed {
                            round,
                            client: cid,
                            kinds,
                        },
                    );
                }
            }
            work.push(ClientWork {
                ord,
                client,
                plan,
                ctx: Arc::clone(&ctx),
            });
        }

        // Stream completions into the aggregator as clients finish; the
        // fold at close() runs in ordinal order, so results do not depend
        // on which worker (or shard) reports first.
        let mut agg = self.server.begin_round(round_start, selected.len());
        agg.set_deadline(deadline);
        let mut n_panicked = 0usize;
        // Client-side trace buffers, keyed by ordinal. Collected in
        // completion order but merged canonically below, so the journal
        // never observes worker scheduling.
        let mut trace_batches: Vec<(usize, Vec<PendingEvent>)> = Vec::new();
        let store = &mut self.store;
        let collect = |done: ClientDone| match done {
            ClientDone::Completed(ClientCompletion {
                ord,
                client,
                mut report,
                host_us,
            }) => {
                let cid = selected[ord];
                debug_assert_eq!(report.client_id, cid, "report/client mismatch");
                debug_assert_eq!(client.id, cid, "state/client mismatch");
                if tracing {
                    let mut events = std::mem::take(&mut report.trace).into_events();
                    let r = &report;
                    let end_time = if r.upload_done.is_finite() {
                        r.upload_done
                    } else {
                        r.compute_done
                    };
                    events.push(PendingEvent {
                        time: end_time,
                        host_us,
                        event: TraceEvent::ClientDone {
                            round,
                            client: cid,
                            iters_done: r.iters_done,
                            early_stopped: r.early_stopped,
                            upload_done: r.upload_done.is_finite().then_some(r.upload_done),
                        },
                    });
                    trace_batches.push((ord, events));
                }
                invariant(store.check_in(client));
                agg.ingest(ord, report);
            }
            ClientDone::Failed(failure) => {
                let cid = selected[failure.ord];
                debug_assert_eq!(failure.client_id, cid, "failure/client mismatch");
                // The checked-out state died with the worker's unwind (in
                // this process or in a shard child); derive it afresh.
                invariant(store.rebuild_failed(cid));
                n_panicked += 1;
                if tracing {
                    // The unwind destroyed the client's buffered events;
                    // journal the failure itself at round start (the
                    // panic's virtual time died with the state).
                    trace_batches.push((
                        failure.ord,
                        vec![PendingEvent {
                            time: round_start,
                            host_us: 0.0,
                            event: TraceEvent::ClientFailed { round, client: cid },
                        }],
                    ));
                }
                agg.mark_failed(failure.ord);
            }
        };
        let shard_notes = self
            .backend
            .run_cohort(work, self.fl.shard.io_timeout(), collect);
        let n_notes = |kind: &str| shard_notes.iter().filter(|ev| ev.kind() == kind).count();
        let n_quarantined = n_notes("shard_quarantined");
        let n_reassigned = n_notes("ordinal_reassigned");
        let close_t0 = Instant::now();
        let (agg, reports) = agg.close(&mut self.server);
        let aggregate_host_us = close_t0.elapsed().as_secs_f64() * 1e6;
        // The aggregate span is off-stream: it reaches sinks for
        // observability but never consumes a canonical sequence number, so
        // golden traces are unaffected.
        self.tracer
            .span("aggregate", agg.completion, aggregate_host_us, true);
        self.clock = agg.completion;
        // Shard-failover notes (none in-process) are offstream events: they
        // reach sinks for observability but never consume canonical
        // sequence numbers, so a dying shard cannot shift golden traces.
        for ev in shard_notes {
            self.tracer
                .emit_offstream(agg.completion, SERVER_ORD, 0.0, ev);
        }
        self.tracer.merge_client_events(trace_batches);
        self.tracer.emit(
            agg.completion,
            SERVER_ORD,
            0.0,
            TraceEvent::AggregationCut {
                round,
                completion: agg.completion,
                n_collected: agg.collected.len(),
                n_finite: agg.n_finite,
            },
        );

        let accuracy = if self.eval_every != 0 && round.is_multiple_of(self.eval_every) {
            let eval_t0 = Instant::now();
            let acc = self.evaluate();
            let eval_us = eval_t0.elapsed().as_secs_f64() * 1e6;
            self.tracer.span("evaluate", self.clock, eval_us, false);
            Some(acc)
        } else {
            None
        };

        let mean_train_loss = {
            let collected = &agg.collected;
            let sum: f64 = collected
                .iter()
                .map(|&i| reports[i].as_ref().expect("collected").train_loss as f64)
                .sum();
            (sum / collected.len().max(1) as f64) as f32
        };
        let eager_events = reports
            .iter()
            .flatten()
            .flat_map(|r| outcomes_to_events(r.client_id, &r.eager_outcomes))
            .collect();
        // Fault accounting: panics destroyed the client; crashes returned a
        // report with the crash flag; ingest rejected some arrived uploads;
        // other survivors whose upload landed after the cut — late, or lost
        // and so arriving at +inf — missed the deadline and had their update
        // discarded. A rejected client's work and bytes still count below.
        let n_crashed = n_panicked + reports.iter().flatten().filter(|r| r.crashed).count();
        let n_deadline_missed = reports
            .iter()
            .enumerate()
            .filter(|&(ord, r)| {
                r.as_ref()
                    .is_some_and(|r| !r.dropped && !r.crashed && r.upload_done > agg.completion)
                    && agg.rejected.binary_search(&ord).is_err()
            })
            .count();
        self.tracer.emit(
            agg.completion,
            SERVER_ORD,
            0.0,
            TraceEvent::RoundClose {
                round,
                end: agg.completion,
                n_aggregated: agg.collected.len(),
                n_crashed,
                n_deadline_missed,
            },
        );
        // Enforce the residency cap now that every client is home: beyond
        // `population.cache_clients`, least-recently-selected clients move
        // their mutated state to the compact dirty overlay.
        self.store.end_round();
        let (n_hydrated, n_evicted) = self.store.round_stats();
        let host_ms = host_t0.elapsed().as_secs_f64() * 1e3;
        self.tracer
            .span("round", agg.completion, host_ms * 1e3, false);
        self.records.push(RoundRecord {
            round,
            start: round_start,
            end: agg.completion,
            accuracy,
            mean_train_loss,
            n_selected: selected.len(),
            n_aggregated: agg.collected.len(),
            n_dropped: reports.iter().flatten().filter(|r| r.dropped).count(),
            n_crashed,
            n_deadline_missed,
            n_rejected: agg.rejected.len(),
            iters_done: reports
                .iter()
                .map(|r| r.as_ref().map_or(0, |r| r.iters_done))
                .collect(),
            iters_planned: plans,
            early_stops: reports
                .iter()
                .map(|r| r.as_ref().is_some_and(|r| r.early_stopped))
                .collect(),
            eager_events,
            bytes_uploaded: reports.iter().flatten().map(|r| r.bytes_uploaded).sum(),
            wire_bytes_uploaded: reports
                .iter()
                .flatten()
                .map(|r| r.wire_bytes_uploaded)
                .sum(),
            wire_bytes_dense: reports.iter().flatten().map(|r| r.wire_bytes_dense).sum(),
            is_anchor: any_anchor,
            host_ms,
            n_hydrated,
            n_evicted,
            hydrate_host_us,
            decode_host_us: agg.decode_host_us,
            aggregate_host_us,
            n_retries: 0,
            n_heartbeat_missed: 0,
            n_quarantined,
            n_reassigned,
        });
        self.records.last().expect("just pushed")
    }

    /// Evaluates the global model's test accuracy.
    ///
    /// Batch-norm note: only trainable parameters are federated (running
    /// statistics never leave clients, as in the paper's PyTorch setup), so
    /// evaluation keeps training-mode normalization and uses batch
    /// statistics over each 64-sample eval batch — the standard workaround
    /// for BN in FedAvg-style systems.
    pub fn evaluate(&mut self) -> f32 {
        self.eval_model
            .set_flat_params(self.server.global().as_slice());
        self.eval_model.set_training(true);
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

    /// Fingerprint of the run identity a snapshot belongs to: see
    /// [`run_identity`]. Restore refuses envelopes from a different
    /// identity before any component-level restore runs.
    fn run_fingerprint(&self) -> u64 {
        fnv1a(run_identity(&self.fl, &self.scheme, &self.workload.name).as_bytes())
    }

    /// Captures the full cross-round training state. Only valid between
    /// rounds — errors with [`TrainerError::ClientsInFlight`] if any client
    /// is still checked out to a worker (`run_round` upholds that). The
    /// envelope is sparse: only clients that ever participated appear.
    pub fn snapshot(&self) -> Result<CheckpointEnvelope, TrainerError> {
        let clients = self.store.snapshot_all()?;
        Ok(CheckpointEnvelope {
            fingerprint: self.run_fingerprint(),
            n_clients: self.fl.n_clients,
            rounds_done: self.records.len(),
            clock: self.clock,
            selection_rng: self.rng.state().to_vec(),
            global: self.server.global().as_slice().to_vec(),
            estimator_ema: self.server.estimator().snapshot(),
            participations: self.store.participations_snapshot(),
            clients,
            records: self.records.clone(),
        })
    }

    /// Overwrites this trainer's mutable state with a snapshot taken by an
    /// identically-configured run. Everything config-derived (partition,
    /// speed classes, fault plan, profiler sample indices) was already
    /// rebuilt by the constructor and is left untouched.
    ///
    /// All or nothing: every check runs before the first write, so a refused
    /// envelope leaves the trainer exactly as it was.
    pub fn restore(&mut self, env: &CheckpointEnvelope) -> Result<(), CheckpointError> {
        let actual = self.run_fingerprint();
        if env.fingerprint != actual {
            return Err(CheckpointError::ConfigMismatch {
                expected: env.fingerprint,
                actual,
            });
        }
        let (n_clients, n_params) = (self.fl.n_clients, self.layout.total_params());
        if env.n_clients != n_clients
            || env.records.len() != env.rounds_done
            || env.global.len() != n_params
        {
            return Err(CheckpointError::Malformed(format!(
                "population {} (trainer has {n_clients}), {} records for \
                 rounds_done={}, {} global parameters (layout has {n_params})",
                env.n_clients,
                env.records.len(),
                env.rounds_done,
                env.global.len(),
            )));
        }
        let rng_state: [u64; 4] = env.selection_rng.as_slice().try_into().map_err(|_| {
            CheckpointError::Malformed("selection RNG state must be 4 words".into())
        })?;
        if let Some(&(id, _)) = env.estimator_ema.iter().find(|&&(id, _)| id >= n_clients) {
            return Err(TrainerError::UnknownClient { id, n_clients }.into());
        }
        // The sparse client set becomes the store's dirty overlay; clients
        // rehydrate (fresh derivation + overlay) on their next selection.
        // The store checks its ids and that no client is in flight before it
        // writes anything, and nothing after it can fail.
        self.store.restore(&env.clients, &env.participations)?;
        self.rng = StdRng::from_state(rng_state);
        self.clock = env.clock;
        self.records = env.records.clone();
        self.server.restore_global(env.global.clone());
        self.server
            .estimator_mut()
            .restore(env.estimator_ema.clone());
        Ok(())
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
            dropout_prob: 0.0,
            compression: Default::default(),
            faults: FaultConfig::none(),
            trace: Default::default(),
            population: Default::default(),
            shard: Default::default(),
        }
    }

    #[test]
    fn run_identity_ignores_the_trajectory_neutral_sections_entirely() {
        let base = tiny_fl();
        let identity = |fl: &FlConfig| run_identity(fl, &Scheme::fedca_default(), "tiny_mlp");
        let want = identity(&base);
        // The hashed text does not even name the three sections, so adding or
        // retiring a field inside one of them cannot move a fingerprint.
        for section in TRAJECTORY_NEUTRAL_SECTIONS {
            assert!(!want.contains(section), "`{section}` in {want}");
        }
        // No value of any of them changes it.
        let mut busy = base.clone();
        busy.trace = crate::trace::TraceConfig::enabled();
        busy.population.cache_clients = 5;
        busy.shard.n_shards = 4;
        busy.shard.io_timeout_secs = 1.5;
        busy.shard.child_args = vec!["shard_child_entry".into()];
        assert_eq!(identity(&busy), want);
        // Anything the trajectory does depend on still does.
        let mut other = base.clone();
        other.seed += 1;
        assert_ne!(identity(&other), want);
        let mut other = base;
        other.faults = FaultConfig::chaos(1);
        assert_ne!(identity(&other), want);
        assert_ne!(run_identity(&tiny_fl(), &Scheme::FedAvg, "tiny_mlp"), want);
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
                r.n_aggregated + r.n_crashed + r.n_dropped + r.n_deadline_missed + r.n_rejected,
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
                r.n_aggregated + r.n_crashed + r.n_dropped + r.n_deadline_missed + r.n_rejected,
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

    #[test]
    fn fedca_with_all_mechanisms_off_matches_fedavg_updates() {
        // FedCA with early_stop/eager disabled must be behaviourally
        // identical to FedAvg except for anchor-round profiling.
        let opts = FedCaOptions {
            early_stop: false,
            eager: false,
            retransmit: false,
            adaptive_batch_min: None,
            config: Default::default(),
        };
        let mut a = Trainer::new(tiny_fl(), Scheme::FedCa(opts), Workload::tiny_mlp(5));
        let mut b = Trainer::new(tiny_fl(), Scheme::FedAvg, Workload::tiny_mlp(5));
        let oa = a.run(4);
        let ob = b.run(4);
        for (ra, rb) in oa.rounds.iter().zip(&ob.rounds) {
            assert_eq!(ra.accuracy, rb.accuracy, "round {}", ra.round);
        }
    }
}
