//! The FL client: local training loop with FedCA's intra-round hooks.
//!
//! Mirrors the paper's implementation (§5.1): the client runs plain SGD,
//! calls `TryEarlyStop()` and `TryEagerTransmit()` after each local
//! iteration and `TryRetransmit()` after the round. [`run_client_round`] is
//! that loop, over a private step machine: `begin` (link faults, download,
//! anchor start, the dropout draw), `step(tau)` per iteration (one SGD
//! iteration, then the hooks) until it reports why the loop ended, and
//! `finish` (anchor finish, Eq. 6 and the upload, then the result faults).
//! Each paper hook is one named call: `try_early_stop` (Eq. 2–4),
//! `try_eager_transmit` (Eq. 5) and `finish_upload` (Eq. 6 plus the final
//! upload). All timing flows through the client's virtual device/links; all
//! learning is real SGD on the client's shard.

use crate::algorithms::FedCaOptions;
use crate::config::FlConfig;
use crate::eager::{EagerState, LayerOutcome};
use crate::params::ModelLayout;
use crate::profiler::{ProfiledCurves, SampledProfiler};
use crate::trace::{PendingEvent, TraceEvent};
use crate::workload::Workload;
use fedca_compress::{wire, CodecScratch, Compression, ErrorFeedback};
use fedca_data::{BatchSampler, InMemoryDataset};
use fedca_nn::{softmax_cross_entropy_into, Sgd};
use fedca_sim::device::DeviceSpeed;
use fedca_sim::faults::ClientFaults;
use fedca_sim::network::Link;
use fedca_sim::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Per-client persistent state (survives across rounds).
pub struct ClientState {
    /// Client id within the federation.
    pub id: usize,
    /// Indices into the global training pool owned by this client.
    pub shard: Vec<usize>,
    /// Local batch scheduler.
    pub sampler: BatchSampler,
    /// Device speed process (heterogeneous + dynamic).
    pub device: DeviceSpeed,
    /// Uplink to the server (13.7 Mbps in the paper).
    pub uplink: Link,
    /// Downlink from the server.
    pub downlink: Link,
    /// Periodical-sampling profiler (FedCA only; inert otherwise).
    pub profiler: SampledProfiler,
    /// Base seed for per-round RNG derivation.
    pub seed: u64,
    /// Residual accumulator for lossy update compression (inert when
    /// `FlConfig::compression` is `None`).
    pub error_feedback: ErrorFeedback,
}

/// What the server hands a selected client at round start.
///
/// Serializable because sharded execution ships the whole plan — including
/// the root-drawn fault assignment — to the shard process that runs the
/// client; every field is finite by construction, so JSON transport is
/// lossless.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct RoundPlan {
    /// Round index.
    pub round: usize,
    /// Virtual time of round start.
    pub start: SimTime,
    /// Round deadline `T_R` as a duration from round start (Eq. 3's input,
    /// offloaded by the server with the latest parameters — §5.1).
    pub deadline: SimTime,
    /// Local iterations to run (may be < K under FedAda).
    pub planned_iters: usize,
    /// Whether FedCA profiles this round (anchor rounds run unoptimized).
    pub is_anchor: bool,
    /// Injected faults for this `(round, client)` pair
    /// ([`ClientFaults::none`] on the happy path).
    pub faults: ClientFaults,
}

/// Client-side training options derived from the scheme.
#[derive(Clone, Debug, Default)]
pub struct ClientOptions {
    /// FedProx proximal coefficient (0 disables).
    pub prox_mu: f32,
    /// FedCA mechanisms (None for the baselines).
    pub fedca: Option<FedCaOptions>,
}

/// What a client reports back after a round.
#[derive(Clone, Debug)]
pub struct ClientRoundReport {
    /// Client id.
    pub client_id: usize,
    /// Aggregation weight (local shard size).
    pub weight: f64,
    /// The update as the bytes that crossed the wire — its only form: the
    /// final `UpdateMessage` (non-eager layers under the configured
    /// compression) followed by a dense sidecar message carrying the
    /// eager-accepted snapshots, walkable with [`wire::for_each_layer`].
    /// Together the messages tile the layout exactly; the server decodes
    /// them at ingest. `None` when nothing was sent (dropped or crashed).
    pub wire_update: Option<Vec<u8>>,
    /// Iterations actually executed.
    pub iters_done: usize,
    /// Whether the client stopped before its planned iterations.
    pub early_stopped: bool,
    /// Virtual time the model download finished.
    pub download_done: SimTime,
    /// Virtual time local compute finished.
    pub compute_done: SimTime,
    /// Virtual time the last byte of this client's upload left the uplink.
    pub upload_done: SimTime,
    /// Per-layer eager outcomes (empty when eager transmission is off).
    pub eager_outcomes: Vec<LayerOutcome>,
    /// Total bytes this client uploaded this round.
    pub bytes_uploaded: f64,
    /// Exact encoded size of everything this client put on the wire this
    /// round (eager frames plus the final message), in bytes.
    pub wire_bytes_uploaded: f64,
    /// What the same transmissions would have occupied shipped dense (f32);
    /// `wire_bytes_uploaded / wire_bytes_dense` is the compression ratio.
    pub wire_bytes_dense: f64,
    /// Mean training loss over executed iterations.
    pub train_loss: f32,
    /// Whether the client dropped out mid-round (availability churn).
    pub dropped: bool,
    /// Whether an injected crash killed the client mid-round (its state
    /// survives on the trainer, but the upload never arrives).
    pub crashed: bool,
    /// Events recorded inside this client round (empty unless
    /// `FlConfig::trace` is enabled). Buffered here — deterministically,
    /// inside the client's own virtual-time round — and merged into the
    /// canonical stream by the trainer at round close, so the journal never
    /// observes worker scheduling.
    pub trace: Vec<PendingEvent>,
}

/// Runs one client round: download → K local iterations (with FedCA hooks)
/// → upload, all in virtual time.
///
/// `arena` supplies the model instance and scratch buffers; its weights are
/// fully overwritten by the global parameters, so a reused arena behaves
/// identically to a freshly-built one. Returns the round report.
#[allow(clippy::too_many_arguments)]
pub fn run_client_round(
    state: &mut ClientState,
    arena: &mut crate::executor::ClientArena,
    layout: &Arc<ModelLayout>,
    global: &[f32],
    data: &InMemoryDataset,
    workload: &Workload,
    fl: &FlConfig,
    opts: &ClientOptions,
    plan: &RoundPlan,
) -> ClientRoundReport {
    let mut round =
        ClientRound::begin(state, arena, layout, global, data, workload, fl, opts, plan);
    let end = (1..=plan.planned_iters).find_map(|tau| round.step(tau));
    round.finish(end.unwrap_or(End::Planned))
}

/// Why a round's iteration loop ended; the three early ends are exclusive.
#[derive(Clone, Copy, PartialEq)]
enum End {
    /// Every planned iteration ran.
    Planned,
    /// TryEarlyStop fired.
    EarlyStop,
    /// An injected crash killed the client: its state survives, its upload
    /// never arrives.
    Crash,
    /// The client dropped out (availability churn): gone is gone.
    Dropout,
}

/// One client round in flight. Its counters, times, bytes and trace live in
/// the report being built.
struct ClientRound<'a> {
    state: &'a mut ClientState,
    arena: &'a mut crate::executor::ClientArena,
    layout: &'a ModelLayout,
    global: &'a [f32],
    data: &'a InMemoryDataset,
    workload: &'a Workload,
    fl: &'a FlConfig,
    plan: &'a RoundPlan,
    fedca: Option<&'a FedCaOptions>,
    opt: Sgd,
    /// Batch sampling and the dropout draw.
    rng: StdRng,
    /// Dedicated stream for the compression path, derived from a distinct
    /// odd constant: enabling (stochastic) compression never perturbs the
    /// draws above, and the deterministic schemes never consume it at all.
    qrng: StdRng,
    /// FedCA's profiled curves, cloned up front (cheap: (layers+1)·K floats)
    /// so the profiler can record an anchor round without borrow conflicts.
    curves: Option<ProfiledCurves>,
    is_anchor: bool,
    eager: EagerState,
    /// The deadline the client *believes*: a slipped one makes it think it
    /// has more time than the server granted.
    deadline: SimTime,
    drop_time: Option<SimTime>,
    now: SimTime,
    /// Wall time of the last iteration (optimistic prior: its nominal work).
    last_iter_wall: f64,
    loss_sum: f64,
    report: ClientRoundReport,
}

impl<'a> ClientRound<'a> {
    /// Link faults, the model download, the anchor start and the dropout
    /// draw. Both round RNGs are seeded before anything draws from them.
    #[allow(clippy::too_many_arguments)]
    fn begin(
        state: &'a mut ClientState,
        arena: &'a mut crate::executor::ClientArena,
        layout: &'a ModelLayout,
        global: &'a [f32],
        data: &'a InMemoryDataset,
        workload: &'a Workload,
        fl: &'a FlConfig,
        opts: &'a ClientOptions,
        plan: &'a RoundPlan,
    ) -> Self {
        assert_eq!(
            global.len(),
            layout.total_params(),
            "global parameter length mismatch"
        );
        let seeded = |k: u64| {
            let seed = state.seed.wrapping_mul(k).wrapping_add(plan.round as u64);
            StdRng::seed_from_u64(seed)
        };
        let (mut rng, qrng) = (seeded(0x9E37_79B9_7F4A_7C15), seeded(0xC2B2_AE3D_27D4_EB4F));
        // Round starts never decrease and every device query of this round
        // falls at or after the start (`download_done ≥ start`), so the
        // speed history before it is dead weight in every snapshot.
        state.device.prune_before(plan.start);
        // Degraded links run slow for the whole round; every round (re)sets them.
        state.uplink.set_rate_scale(plan.faults.bandwidth_factor);
        state.downlink.set_rate_scale(plan.faults.bandwidth_factor);
        let download_done = state
            .downlink
            .transmit(plan.start, workload.wire_model_bytes);
        arena.model.set_flat_params(global);
        let fedca = opts.fedca.as_ref();
        let is_anchor = plan.is_anchor && fedca.is_some();
        // Anchor rounds run unoptimized: no curve reaches the hooks.
        let curves = if is_anchor {
            state.profiler.begin_anchor(plan.round);
            None
        } else {
            fedca.and_then(|_| state.profiler.curves().cloned())
        };
        // §3.1 availability churn: the client may drop out mid-round.
        let drop_time = (fl.dropout_prob > 0.0 && rng.gen_range(0.0..1.0) < fl.dropout_prob)
            .then(|| plan.start + rng.gen_range(0.0..1.0) * plan.deadline.min(1e9));
        state.sampler.set_batch_size(fl.batch_size);
        let report = ClientRoundReport {
            client_id: state.id,
            weight: state.shard.len() as f64,
            wire_update: None,
            iters_done: 0,
            early_stopped: false,
            download_done,
            compute_done: download_done,
            upload_done: f64::INFINITY,
            eager_outcomes: Vec::new(),
            bytes_uploaded: 0.0,
            wire_bytes_uploaded: 0.0,
            wire_bytes_dense: 0.0,
            train_loss: f32::NAN,
            dropped: false,
            crashed: false,
            trace: Vec::new(),
        };
        ClientRound {
            state,
            arena,
            layout,
            global,
            data,
            workload,
            fl,
            plan,
            fedca,
            opt: Sgd::new(fl.lr, fl.weight_decay).with_prox(opts.prox_mu),
            rng,
            qrng,
            curves,
            is_anchor,
            eager: EagerState::new(layout.num_layers()),
            deadline: plan.deadline + plan.faults.deadline_slip,
            drop_time,
            now: download_done,
            last_iter_wall: workload.iter_work_seconds,
            loss_sum: 0.0,
            report,
        }
    }

    /// Iteration `tau` (1-based): the fault hooks and TryEarlyStop, one real
    /// SGD iteration, then profiling (anchor rounds) or TryEagerTransmit.
    /// Returns why the loop ends if it ends before this iteration runs.
    fn step(&mut self, tau: usize) -> Option<End> {
        let plan = self.plan;
        let faults = &plan.faults;
        // An injected worker panic unwinds out of the worker thread; the
        // executor catches it and reports the client as failed.
        if faults.panic_at_iter == Some(tau) {
            let (client, round) = (self.state.id, plan.round);
            panic!("injected fault: worker panic (client {client}, round {round}, iter {tau})");
        }
        if faults.crash_at_iter == Some(tau) {
            self.fault(self.now, "crash", tau);
            return Some(End::Crash);
        }
        if self.drop_time.is_some_and(|t| self.now >= t) {
            self.fault(self.now, "dropout", tau);
            return Some(End::Dropout);
        }
        if self.try_early_stop(tau) {
            let event = |round, client| TraceEvent::EarlyStop {
                round,
                client,
                iter: tau,
            };
            self.trace(self.now, event);
            return Some(End::EarlyStop);
        }

        let a = &mut *self.arena;
        let batch = self.state.sampler.next_batch(&mut self.rng);
        let (x, y) = self.data.batch(&batch);
        let logits = a.model.forward(&x);
        let loss = softmax_cross_entropy_into(&logits, &y, &mut a.grad);
        a.model.recycle(logits);
        a.model.zero_grad();
        a.model.backward_params(&a.grad);
        let prox_anchor = (self.opt.prox_mu > 0.0).then_some(self.global);
        a.model.step(&self.opt, prox_anchor);
        self.loss_sum += loss as f64;
        self.report.iters_done = tau;

        // The device's pace for this iteration; compute scales with the batch.
        let batch_size = self.state.sampler.batch_size();
        let work = self.workload.iter_work_seconds * batch_size as f64 / self.fl.batch_size as f64;
        let before = self.now;
        self.now = self.state.device.execute(before, work);
        self.last_iter_wall = self.now - before;

        // §6 extension: if the projected finish overruns the deadline, halve
        // the batch (per-iteration cost drops proportionally) instead of
        // waiting for early stop to truncate the round.
        if let Some(min_batch) = self.fedca.and_then(|o| o.adaptive_batch_min) {
            if !self.is_anchor && tau < plan.planned_iters && batch_size > min_batch {
                let remaining = (plan.planned_iters - tau) as f64;
                if (self.now - plan.start) + remaining * self.last_iter_wall > self.deadline {
                    let halved = (batch_size / 2).max(min_batch);
                    self.state.sampler.set_batch_size(halved);
                }
            }
        }

        if self.is_anchor {
            let a = &mut *self.arena;
            a.model.flat_params_into(&mut a.flat);
            self.state.profiler.record_iteration(self.global, &a.flat);
        } else {
            self.try_eager_transmit(tau);
        }
        None
    }

    /// TryEarlyStop (Eq. 2–4), checked *before* spending iteration `tau`: at
    /// least one iteration always runs so the client reports something.
    fn try_early_stop(&self, tau: usize) -> bool {
        let (Some(o), Some(curves)) = (self.fedca, &self.curves) else {
            return false;
        };
        let curve = &curves.model;
        let t_pred = (self.now - self.plan.start) + self.last_iter_wall;
        o.early_stop
            && tau >= 2
            && crate::early_stop::should_stop(
                curve,
                tau.min(curve.len()),
                t_pred,
                self.deadline,
                o.config.beta,
            )
    }

    /// TryEagerTransmit (Eq. 5): each layer whose profiled progress reached
    /// `T_e` at iteration `tau` sends its accumulated update now, so the
    /// transmission overlaps the remaining iterations' compute.
    fn try_eager_transmit(&mut self, tau: usize) {
        let (Some(o), Some(curves)) = (self.fedca.filter(|o| o.eager), &self.curves) else {
            return;
        };
        let t_e = o.config.eager_threshold;
        let pending: Vec<usize> = (0..self.layout.num_layers())
            .filter(|&l| self.eager.should_send(l, &curves.layers[l], tau, t_e))
            .collect();
        if pending.is_empty() {
            return; // only materialize the flat params if some layer fires
        }
        let fl = self.fl;
        self.arena.model.flat_params_into(&mut self.arena.flat);
        for l in pending {
            let r = self.layout.range(l);
            let delta: Vec<f32> = self.arena.flat[r.clone()]
                .iter()
                .zip(&self.global[r.clone()])
                .map(|(c, g)| c - g)
                .collect();
            let nominal = self
                .workload
                .wire_bytes_for(r.len(), self.layout.total_params());
            // Each eager send is its own framed message (header + layer id +
            // payload). Under compression the snapshot the server keeps is
            // what its decoder reconstructs — so the client encodes that
            // message and reads it back with the server's parser — and the
            // priced bytes shrink by the exact encoded/dense ratio.
            let dense_len = wire::dense_payload_wire_len(r.len());
            let dense_frame = (wire::HEADER_LEN + 4 + dense_len) as f64;
            let (snapshot, bytes, frame) = if fl.compression == Compression::None {
                (delta, nominal, dense_frame)
            } else {
                let payload_len = fl.compression.payload_wire_len(r.len());
                let frame_len = wire::HEADER_LEN + 4 + payload_len;
                let mut msg = wire::MessageWriter::with_capacity(frame_len);
                msg.begin(self.plan.round as u32, self.state.id as u32, 1);
                let (c, codec) = (fl.compression, &mut self.arena.codec);
                c.encode_layer(&mut msg, l as u32, &delta, &mut self.qrng, codec);
                let mut snapshot = vec![0.0f32; r.len()];
                wire::for_each_layer(&msg.finish(), |_, view| {
                    view.decode_into(&mut snapshot);
                    Ok(())
                })
                .expect("a client parses its own message");
                let bytes = nominal * payload_len as f64 / dense_len as f64;
                (snapshot, bytes, frame_len as f64)
            };
            self.report.wire_bytes_uploaded += frame;
            self.report.wire_bytes_dense += dense_frame;
            self.state.uplink.transmit(self.now, bytes);
            self.report.bytes_uploaded += bytes;
            self.eager.mark_sent(l, tau, snapshot);
            let event = |round, client| TraceEvent::EagerTransmit {
                round,
                client,
                layer: l,
                iter: tau,
                bytes,
            };
            self.trace(self.now, event);
        }
    }

    /// The anchor finish, TryRetransmit (Eq. 6) and the final upload, then
    /// the result faults.
    fn finish(mut self, end: End) -> ClientRoundReport {
        let (plan, layout) = (self.plan, self.layout);
        let r = &mut self.report;
        r.compute_done = self.now;
        r.early_stopped = end == End::EarlyStop;
        r.crashed = end == End::Crash;
        r.dropped = end == End::Dropout;
        let vanished = r.crashed || r.dropped;
        if r.iters_done > 0 {
            r.train_loss = (self.loss_sum / r.iters_done as f64) as f32;
        }
        // Only an anchor round that ran and was not cut short profiles. One
        // cut short by a crash or dropout would store a truncated curve that
        // misleads every hook until the next anchor; it keeps the previous
        // curves instead, and the next anchor's `begin_anchor` discards its
        // partial recording.
        if self.is_anchor && !vanished && self.report.iters_done > 0 {
            let k = self.state.profiler.finish_anchor().k;
            let sampled_params = self.state.profiler.sampled_param_count();
            let event = |round, client| TraceEvent::AnchorProfiled {
                round,
                client,
                k,
                sampled_params,
            };
            self.trace(self.now, event);
        }

        // TryRetransmit + final upload, in place in the arena: `flat`
        // becomes the accumulated update w − g.
        let a = &mut *self.arena;
        a.model.flat_delta_into(self.global, &mut a.flat);
        let cx = UploadCtx {
            layout,
            workload: self.workload,
            compression: self.fl.compression,
            fedca: self.fedca,
            round: plan.round as u32,
            client: self.state.id as u32,
            send: !vanished,
        };
        let ef = &mut self.state.error_feedback;
        let upload = finish_upload(
            &mut a.flat,
            &self.eager,
            ef,
            &mut a.codec,
            &mut self.qrng,
            &cx,
        );
        let r = &mut self.report;
        r.eager_outcomes = upload.eager_outcomes;
        r.wire_bytes_uploaded += upload.wire_len as f64;
        r.wire_bytes_dense += upload.dense_wire_len as f64;
        r.wire_update = upload.wire;
        if vanished {
            return self.report; // nothing else reaches the server this round
        }
        r.bytes_uploaded += upload.payload_bytes;
        let sent = self.state.uplink.transmit(self.now, upload.payload_bytes);
        let faults = &plan.faults;
        if faults.corrupt_update {
            // Injected in-flight corruption: the bytes the server receives
            // decode to NaN (the upload itself still arrives on time, priced
            // as the honest one); the server's ingest must reject them.
            r.wire_update = Some(wire::encode(&wire::UpdateMessage {
                round: cx.round,
                client: cx.client,
                layers: (0..layout.num_layers())
                    .map(|l| {
                        let nan = vec![f32::NAN; layout.layer_len(l)];
                        (l as u32, wire::Payload::Dense(nan))
                    })
                    .collect(),
            }));
            self.fault(sent, "corrupt_update", 0);
        }
        if faults.lose_result {
            // The upload left the client but the message never arrived.
            self.fault(sent, "result_loss", 0);
        } else {
            if faults.result_delay > 0.0 {
                self.fault(sent, "result_delay", 0);
            }
            self.report.upload_done = sent + faults.result_delay;
        }
        self.report
    }

    /// Buffers the event `event(round, client)`, built only when tracing is
    /// on (the buffer stays unallocated otherwise).
    fn trace(&mut self, time: SimTime, event: impl FnOnce(usize, usize) -> TraceEvent) {
        if self.fl.trace.enabled {
            let event = event(self.plan.round, self.state.id);
            self.report.trace.push(PendingEvent {
                time,
                host_us: 0.0,
                event,
            });
        }
    }

    /// Buffers an injected fault's trace event.
    fn fault(&mut self, time: SimTime, kind: &str, iter: usize) {
        let event = |round, client| TraceEvent::FaultFired {
            round,
            client,
            kind: kind.into(),
            iter,
        };
        self.trace(time, event);
    }
}

/// What [`finish_upload`] needs besides the buffers it works in.
struct UploadCtx<'a> {
    layout: &'a ModelLayout,
    workload: &'a Workload,
    compression: Compression,
    fedca: Option<&'a FedCaOptions>,
    round: u32,
    client: u32,
    /// False when the client vanished mid-round (dropped or crashed): the
    /// eager outcomes are still resolved, but nothing is framed.
    send: bool,
}

/// The end-of-round upload of one client.
struct Upload {
    /// Eq. 6 verdict per layer.
    eager_outcomes: Vec<LayerOutcome>,
    /// What the final upload costs on the virtual uplink.
    payload_bytes: f64,
    /// Encoded length of the final message (0 when nothing is sent).
    wire_len: usize,
    /// Encoded length the same layers would have shipped dense.
    dense_wire_len: usize,
    /// The final message followed by the dense sidecar of eager-accepted
    /// layers; `None` when nothing is sent.
    wire: Option<Vec<u8>>,
}

/// TryRetransmit + final upload serialization, in place.
///
/// `delta` is the accumulated update `w − g`, lying in the arena's flat
/// scratch. Eq. 6 reads layer slices of it, error feedback compensates it
/// where it lies, and each non-eager layer is compressed straight from its
/// slice into one buffer of the exact final size; the encoded bytes are the
/// report's only form of the update, so what the server aggregates is
/// exactly what the wire carried. Eager-accepted layers never travel in the
/// final message (the server already holds their snapshots), so the wire
/// form of the *complete* update appends a dense sidecar message carrying
/// them: the two messages tile the layout.
/// The sidecar is server-side bookkeeping, not a retransmission — it
/// contributes no priced wire bytes.
///
/// Lossy schemes (§2.2 baselines, one scale per layer as QSGD does per
/// tensor) compose with early stopping *and* eager transmission: error
/// feedback absorbs both the quantization error and the eager snapshots'
/// staleness, replaying the residual into the next participation's
/// upload. Per element, with `r` the stored residual: `c = (w − g) + r`
/// is what gets compressed (scale = max |c| over the layer), and the new
/// residual is `c − dequant(q(c))`, or `c − snapshot` for an eager-accepted
/// layer. The transmitted values are not recomputed on the side: the client
/// parses the bytes it just wrote with the server's [`wire::for_each_layer`]
/// and decodes each layer with [`wire::PayloadView::decode_into`] into the
/// residual's own slice, so what it subtracts is, by construction, what the
/// server folds.
fn finish_upload(
    delta: &mut [f32],
    eager_state: &EagerState,
    error_feedback: &mut ErrorFeedback,
    codec: &mut CodecScratch,
    qrng: &mut StdRng,
    cx: &UploadCtx<'_>,
) -> Upload {
    let layout = cx.layout;
    let total_params = layout.total_params();
    // Without retransmission the eager value is final, however stale: no
    // cosine is below −2 (and NaN compares false either way).
    let t_r = match cx.fedca {
        Some(o) if o.retransmit => o.config.retransmit_threshold,
        _ => -2.0,
    };
    let mut eager_outcomes = Vec::with_capacity(layout.num_layers());
    let mut payload_bytes = 0.0f64;
    // Exact sizes of the final message, its dense yardstick and the sidecar.
    let mut wire_len = wire::HEADER_LEN;
    let mut dense_wire_len = wire::HEADER_LEN;
    let mut sidecar_len = wire::HEADER_LEN;
    let mut n_eager = 0usize;
    for l in 0..layout.num_layers() {
        let final_layer = &delta[layout.range(l)];
        let outcome = eager_state.resolve(l, final_layer, t_r);
        let n = final_layer.len();
        let dense = 4 + wire::dense_payload_wire_len(n);
        if matches!(outcome, LayerOutcome::Eager { .. }) {
            n_eager += 1;
            sidecar_len += dense;
        } else {
            payload_bytes += cx.workload.wire_bytes_for(n, total_params);
            wire_len += 4 + cx.compression.payload_wire_len(n);
            dense_wire_len += dense;
        }
        eager_outcomes.push(outcome);
    }
    if !cx.send {
        return Upload {
            eager_outcomes,
            payload_bytes,
            wire_len: 0,
            dense_wire_len: 0,
            wire: None,
        };
    }

    let compressing = cx.compression != Compression::None;
    if compressing {
        error_feedback.apply(delta);
    }
    let is_eager = |l: usize| matches!(eager_outcomes[l], LayerOutcome::Eager { .. });
    let capacity = wire_len + if n_eager > 0 { sidecar_len } else { 0 };
    let mut writer = wire::MessageWriter::with_capacity(capacity);
    writer.begin(cx.round, cx.client, layout.num_layers() - n_eager);
    for l in (0..layout.num_layers()).filter(|&l| !is_eager(l)) {
        let compensated = &delta[layout.range(l)];
        cx.compression
            .encode_layer(&mut writer, l as u32, compensated, qrng, codec);
    }
    debug_assert_eq!(writer.len(), wire_len);
    if n_eager > 0 {
        writer.begin(cx.round, cx.client, n_eager);
        for l in (0..layout.num_layers()).filter(|&l| is_eager(l)) {
            let snapshot = eager_state.snapshot(l).expect("sent layer has snapshot");
            writer.put_dense(l as u32, snapshot);
        }
    }
    debug_assert_eq!(writer.len(), capacity);
    let wire = writer.finish();
    if compressing {
        // What was transmitted is read back from the bytes just written,
        // with the server's parser and decoder, into the residual's own
        // slice, which then becomes `compensated − transmitted`.
        wire::for_each_layer(&wire, |l, view| {
            let range = layout.range(l as usize);
            error_feedback.absorb_layer(range.start, &delta[range], |t| view.decode_into(t));
            Ok(())
        })
        .expect("a client parses its own upload");
        // Re-price the final payload at the exact encoded/dense ratio (the
        // wire model scales with the workload's nominal size).
        payload_bytes *= wire_len as f64 / dense_wire_len as f64;
    }
    Upload {
        eager_outcomes,
        payload_bytes,
        wire_len,
        dense_wire_len,
        wire: Some(wire),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Scheme;
    use crate::executor::ClientArena;
    use crate::workload::Workload;
    use fedca_sim::device::DynamicsConfig;

    /// One client of `tiny_mlp(seed)` with a fresh arena, and the round
    /// call every test below makes.
    struct Fixture {
        w: Workload,
        client: ClientState,
        arena: ClientArena,
        layout: Arc<ModelLayout>,
        global: Vec<f32>,
        fl: FlConfig,
    }

    impl Fixture {
        fn new(seed: u64, id: usize) -> Self {
            let w = Workload::tiny_mlp(seed);
            let arena = ClientArena::from_model((w.model_factory)());
            let layout = Arc::new(ModelLayout::from_spans(arena.model.spans()));
            let shard: Vec<usize> = (0..w.train.len()).collect();
            let client = ClientState {
                id,
                shard: shard.clone(),
                sampler: BatchSampler::new(shard, 8),
                device: DeviceSpeed::new(1.0, DynamicsConfig::static_device(), 42 + id as u64),
                uplink: Link::new(1.0e6),
                downlink: Link::new(1.0e6),
                profiler: SampledProfiler::new(layout.clone(), 100, 7 + id as u64),
                seed: 99 + id as u64,
                error_feedback: ErrorFeedback::new(),
            };
            let fl = FlConfig {
                lr: 0.05,
                weight_decay: 0.0,
                batch_size: 8,
                ..FlConfig::scaled()
            };
            let global = arena.model.flat_params();
            Fixture {
                w,
                client,
                arena,
                layout,
                global,
                fl,
            }
        }

        fn run(&mut self, opts: &ClientOptions, plan: &RoundPlan) -> ClientRoundReport {
            let (w, layout) = (&self.w, &self.layout);
            let arena = &mut self.arena;
            let (global, fl) = (&self.global, &self.fl);
            run_client_round(
                &mut self.client,
                arena,
                layout,
                global,
                &w.train,
                w,
                fl,
                opts,
                plan,
            )
        }
    }

    /// What the server would decode from the report's wire bytes.
    fn decoded_update(report: &ClientRoundReport, layout: &ModelLayout) -> Vec<f32> {
        let buf = report.wire_update.as_ref().expect("upload sent");
        let mut dense = vec![0.0f32; layout.total_params()];
        wire::for_each_layer(buf, |l, view| {
            view.decode_into(&mut dense[layout.range(l as usize)]);
            Ok(())
        })
        .expect("upload parses");
        dense
    }

    fn base_plan(k: usize) -> RoundPlan {
        RoundPlan {
            round: 0,
            start: 0.0,
            deadline: 1e9,
            planned_iters: k,
            is_anchor: false,
            faults: ClientFaults::none(),
        }
    }

    /// The upload tail as it was before it moved into the arena: the delta
    /// in a fresh `UpdateVec`, a `compensated` copy, one owned `Payload` per
    /// layer, `wire::encode` per message, the residual from `to_dense()`.
    /// Kept as the oracle `finish_upload` must match bit for bit.
    fn reference_upload(
        local: &[f32],
        global: &[f32],
        eager_state: &EagerState,
        error_feedback: &mut ErrorFeedback,
        qrng: &mut StdRng,
        layout: &Arc<ModelLayout>,
        cx: &UploadCtx<'_>,
    ) -> Upload {
        use crate::params::UpdateVec;
        let total_params = layout.total_params();
        let mut final_update = UpdateVec::zeros(layout.clone());
        for (i, u) in final_update.as_mut_slice().iter_mut().enumerate() {
            *u = local[i] - global[i];
        }
        let retransmit_enabled = cx.fedca.is_some_and(|o| o.retransmit);
        let t_r = cx
            .fedca
            .map(|o| o.config.retransmit_threshold)
            .unwrap_or(0.6);
        let mut eager_outcomes = Vec::new();
        let mut payload_bytes = 0.0f64;
        for l in 0..layout.num_layers() {
            let outcome = if retransmit_enabled {
                eager_state.resolve(l, final_update.layer(l), t_r)
            } else if eager_state.is_sent(l) {
                match eager_state.resolve(l, final_update.layer(l), -2.0) {
                    LayerOutcome::Eager { iter } => LayerOutcome::Eager { iter },
                    _ => unreachable!("threshold -2 accepts everything"),
                }
            } else {
                LayerOutcome::Regular
            };
            if !matches!(outcome, LayerOutcome::Eager { .. }) {
                payload_bytes += cx
                    .workload
                    .wire_bytes_for(layout.layer_len(l), total_params);
            }
            eager_outcomes.push(outcome);
        }
        let compressing = cx.compression != Compression::None;
        let mut compensated = Vec::new();
        let to_send: &[f32] = if compressing {
            compensated.extend_from_slice(final_update.as_slice());
            error_feedback.apply(&mut compensated);
            &compensated
        } else {
            final_update.as_slice()
        };
        let mut msg = wire::UpdateMessage {
            round: cx.round,
            client: cx.client,
            layers: Vec::new(),
        };
        let mut sidecar = msg.clone();
        for (l, outcome) in eager_outcomes.iter().enumerate() {
            if matches!(outcome, LayerOutcome::Eager { .. }) {
                let snap = eager_state.snapshot(l).expect("sent layer has snapshot");
                sidecar
                    .layers
                    .push((l as u32, wire::Payload::Dense(snap.to_vec())));
            } else {
                let payload = cx.compression.compress(&to_send[layout.range(l)], qrng);
                msg.layers.push((l as u32, payload));
            }
        }
        let encoded = wire::encode(&msg);
        let dense_wire_len = wire::dense_message_wire_len(&msg);
        if compressing {
            let mut transmitted = vec![0.0f32; total_params];
            for (l, payload) in msg.layers.iter().chain(&sidecar.layers) {
                transmitted[layout.range(*l as usize)].copy_from_slice(&payload.to_dense());
            }
            error_feedback.absorb(&compensated, &transmitted);
            payload_bytes *= encoded.len() as f64 / dense_wire_len as f64;
        }
        let wire_len = encoded.len();
        let mut joined = encoded;
        if !sidecar.layers.is_empty() {
            joined.extend_from_slice(&wire::encode(&sidecar));
        }
        Upload {
            eager_outcomes,
            payload_bytes,
            wire_len,
            dense_wire_len,
            wire: Some(joined),
        }
    }

    #[test]
    fn a_clients_snapshot_keeps_a_bounded_device_history() {
        // Without pruning, a dynamic device accumulates one segment per
        // fast/slow period since t = 0 — here ≈ 170 over 8,000 virtual s —
        // and every eviction copies them all into the dirty overlay.
        let mut fx = Fixture::new(5, 2);
        fx.client.device = DeviceSpeed::new(1.0, DynamicsConfig::paper(), 17);
        let mut start = 0.0;
        for round in 0..200 {
            let plan = RoundPlan {
                round,
                start,
                ..base_plan(3)
            };
            let report = fx.run(&ClientOptions::default(), &plan);
            assert!(report.upload_done >= start);
            let segments = crate::population::snapshot_client(&fx.client)
                .device
                .segments
                .len();
            // The fence, the segments the round spanned, and the one
            // after the upload.
            assert!(segments <= 6, "round {round}: {segments} segments kept");
            start = report.upload_done + 40.0;
        }
        assert!(start > 8_000.0);
    }

    #[test]
    fn in_place_upload_matches_the_reference_tail_bit_for_bit() {
        let w = Workload::tiny_mlp(11);
        let model = (w.model_factory)();
        let layout = Arc::new(ModelLayout::from_spans(model.spans()));
        let global = model.flat_params();
        let n = global.len();
        assert!(
            layout.num_layers() >= 4,
            "needs a few layers to mix outcomes"
        );
        // Two consecutive participations with different trained weights (the
        // second one replays the first one's residual).
        let trained = |salt: u64| -> Vec<f32> {
            let mut rng = StdRng::seed_from_u64(salt);
            global
                .iter()
                .map(|g| g + rng.gen_range(-0.05f32..0.05))
                .collect()
        };
        let opts = FedCaOptions::v3();
        for compression in [
            Compression::None,
            Compression::Int8,
            Compression::Quantize { bits: 4 },
            Compression::TopK { keep: 0.1 },
        ] {
            // No eager layer / an accepted one / a retransmitted one (plus
            // an accepted one, so the sidecar and the final message mix).
            for scenario in ["regular", "eager", "retransmitted"] {
                let mut ef_new = ErrorFeedback::new();
                let mut ef_ref = ErrorFeedback::new();
                let mut codec = CodecScratch::default();
                for participation in 0..2u64 {
                    let local = trained(100 + participation);
                    let delta: Vec<f32> = local.iter().zip(&global).map(|(l, g)| l - g).collect();
                    let mut eager_state = EagerState::new(layout.num_layers());
                    if scenario != "regular" {
                        // A slightly stale snapshot of layer 0 passes Eq. 6.
                        let stale: Vec<f32> =
                            delta[layout.range(0)].iter().map(|d| d * 0.9).collect();
                        eager_state.mark_sent(0, 3, stale);
                    }
                    if scenario == "retransmitted" {
                        // The opposite direction on layer 2 fails it.
                        let opposite: Vec<f32> =
                            delta[layout.range(2)].iter().map(|d| -d).collect();
                        eager_state.mark_sent(2, 5, opposite);
                    }
                    let cx = UploadCtx {
                        layout: &layout,
                        workload: &w,
                        compression,
                        fedca: Some(&opts),
                        round: participation as u32,
                        client: 7,
                        send: true,
                    };
                    let seed = 555 + participation;
                    let want = reference_upload(
                        &local,
                        &global,
                        &eager_state,
                        &mut ef_ref,
                        &mut StdRng::seed_from_u64(seed),
                        &layout,
                        &cx,
                    );
                    let mut flat = delta.clone();
                    let got = finish_upload(
                        &mut flat,
                        &eager_state,
                        &mut ef_new,
                        &mut codec,
                        &mut StdRng::seed_from_u64(seed),
                        &cx,
                    );
                    let tag = format!("{compression:?}/{scenario}/participation {participation}");
                    assert_eq!(got.wire, want.wire, "{tag}: wire bytes");
                    assert_eq!(got.wire_len, want.wire_len, "{tag}: wire length");
                    assert_eq!(got.dense_wire_len, want.dense_wire_len, "{tag}");
                    assert_eq!(
                        got.payload_bytes.to_bits(),
                        want.payload_bytes.to_bits(),
                        "{tag}: priced bytes"
                    );
                    assert_eq!(got.eager_outcomes, want.eager_outcomes, "{tag}");
                    let bits = |ef: &ErrorFeedback| -> Vec<u32> {
                        ef.snapshot().iter().map(|v| v.to_bits()).collect()
                    };
                    assert_eq!(bits(&ef_new), bits(&ef_ref), "{tag}: residual");
                    assert_eq!(
                        ef_new.snapshot().len(),
                        if compression == Compression::None {
                            0
                        } else {
                            n
                        },
                        "{tag}: residual is sized only when compressing"
                    );
                    // The scenario really is what its name says.
                    let expect = |l: usize| &got.eager_outcomes[l];
                    match scenario {
                        "regular" => assert!(got
                            .eager_outcomes
                            .iter()
                            .all(|o| *o == LayerOutcome::Regular)),
                        "eager" => assert_eq!(*expect(0), LayerOutcome::Eager { iter: 3 }),
                        _ => {
                            assert_eq!(*expect(0), LayerOutcome::Eager { iter: 3 });
                            assert_eq!(*expect(2), LayerOutcome::Retransmitted { iter: 5 });
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fedavg_round_runs_all_iterations_and_moves_weights() {
        let mut f = Fixture::new(1, 0);
        f.fl.weight_decay = f.w.weight_decay;
        let report = f.run(&ClientOptions::default(), &base_plan(10));
        assert_eq!(report.iters_done, 10);
        assert!(!report.early_stopped);
        let update = decoded_update(&report, &f.layout);
        assert!(fedca_tensor::l2_norm(&update) > 0.0, "no learning happened");
        assert!(report.train_loss.is_finite());
        // Timing: download then compute then upload, in order.
        assert!(report.download_done > 0.0);
        assert!(report.compute_done > report.download_done);
        assert!(report.upload_done >= report.compute_done);
        // 10 iterations × 0.05 s at unit speed.
        assert!((report.compute_done - report.download_done - 0.5).abs() < 1e-9);
        assert!(report
            .eager_outcomes
            .iter()
            .all(|o| *o == LayerOutcome::Regular));
    }

    #[test]
    fn update_equals_local_minus_global() {
        let mut f = Fixture::new(2, 1);
        let report = f.run(&ClientOptions::default(), &base_plan(5));
        let local = f.arena.model.flat_params();
        let update = decoded_update(&report, &f.layout);
        for i in 0..local.len() {
            assert!(
                (update[i] - (local[i] - f.global[i])).abs() < 1e-6,
                "update[{i}] inconsistent"
            );
        }
    }

    #[test]
    fn anchor_round_profiles_and_disables_optimizations() {
        let mut f = Fixture::new(3, 2);
        let mut plan = base_plan(8);
        plan.is_anchor = true;
        plan.deadline = 0.01; // would trigger early stop if it were active
        let report = f.run(&Scheme::FedCa(FedCaOptions::v3()).client_options(), &plan);
        assert_eq!(report.iters_done, 8, "anchor rounds must run unoptimized");
        assert!(!report.early_stopped);
        let curves = f.client.profiler.curves().expect("anchor produced curves");
        assert_eq!(curves.k, 8);
        assert!((curves.model.last().unwrap() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn anchor_round_cut_short_keeps_the_previous_curves() {
        let mut f = Fixture::new(3, 2);
        let opts = Scheme::FedCa(FedCaOptions::v3()).client_options();
        let plan = |round: usize, crash: Option<usize>| {
            let mut plan = base_plan(8);
            plan.round = round;
            plan.is_anchor = true;
            plan.faults.crash_at_iter = crash;
            plan
        };
        // Before any profile, and after one: a crash before iteration 1 or
        // mid-round leaves the curves as they were.
        for round in [0, 3] {
            for (i, crash) in [1, 4].into_iter().enumerate() {
                let before = f.client.profiler.curves().cloned();
                let report = f.run(&opts, &plan(round + i, Some(crash)));
                assert!(report.crashed);
                assert_eq!(report.iters_done, crash - 1);
                let after = f.client.profiler.curves().cloned();
                assert_eq!(after, before, "crash at iteration {crash}");
            }
            f.run(&opts, &plan(round + 2, None));
            let curves = f.client.profiler.curves().expect("anchor produced curves");
            assert_eq!((curves.anchor_round, curves.k), (round + 2, 8));
        }
    }

    #[test]
    fn early_stop_fires_past_deadline() {
        let mut f = Fixture::new(4, 3);
        let opts = Scheme::FedCa(FedCaOptions::v1()).client_options();
        // First run an anchor round to obtain curves.
        let mut plan = base_plan(20);
        plan.is_anchor = true;
        f.run(&opts, &plan);
        // Now a tight deadline: the client should stop early.
        let mut plan = base_plan(20);
        plan.round = 1;
        plan.deadline = 0.2; // 4 iterations' worth of time
        let report = f.run(&opts, &plan);
        assert!(
            report.early_stopped,
            "tight deadline must trigger early stop"
        );
        assert!(report.iters_done < 20);
        assert!(report.iters_done >= 1);
    }

    #[test]
    fn injected_crash_truncates_round_and_loses_upload() {
        let mut f = Fixture::new(6, 5);
        let mut plan = base_plan(10);
        plan.faults.crash_at_iter = Some(4);
        let report = f.run(&ClientOptions::default(), &plan);
        assert!(report.crashed);
        assert!(!report.dropped);
        assert_eq!(report.iters_done, 3, "crash at iter 4 runs exactly 3");
        assert_eq!(report.upload_done, f64::INFINITY);
        assert!(
            report.wire_update.is_none(),
            "a crashed client sends nothing"
        );
    }

    #[test]
    #[should_panic(expected = "injected fault: worker panic")]
    fn injected_panic_unwinds_out_of_the_round() {
        let mut f = Fixture::new(6, 6);
        let mut plan = base_plan(10);
        plan.faults.panic_at_iter = Some(2);
        f.run(&ClientOptions::default(), &plan);
    }

    #[test]
    fn result_faults_delay_or_lose_the_upload() {
        let run_with = |faults: ClientFaults| {
            let mut plan = base_plan(5);
            plan.faults = faults;
            Fixture::new(7, 7).run(&ClientOptions::default(), &plan)
        };
        let clean = run_with(ClientFaults::none());
        let mut delayed_faults = ClientFaults::none();
        delayed_faults.result_delay = 2.5;
        let delayed = run_with(delayed_faults);
        assert!((delayed.upload_done - clean.upload_done - 2.5).abs() < 1e-9);
        let mut lost_faults = ClientFaults::none();
        lost_faults.lose_result = true;
        let lost = run_with(lost_faults);
        assert_eq!(lost.upload_done, f64::INFINITY);
        assert!(
            !lost.dropped && !lost.crashed,
            "a lost result is not a crash"
        );
        assert_eq!(lost.iters_done, 5, "the work itself completed");
        // In-flight corruption arrives on time, as bytes that decode to NaN.
        let mut corrupt_faults = ClientFaults::none();
        corrupt_faults.corrupt_update = true;
        let corrupt = run_with(corrupt_faults);
        assert_eq!(corrupt.upload_done, clean.upload_done);
        let layout = Fixture::new(7, 7).layout;
        assert!(decoded_update(&corrupt, &layout).iter().all(|v| v.is_nan()));
        // Degraded bandwidth stretches both download and upload.
        let mut slow_faults = ClientFaults::none();
        slow_faults.bandwidth_factor = 0.5;
        let slow = run_with(slow_faults);
        assert!((slow.download_done - 2.0 * clean.download_done).abs() < 1e-9);
        assert!(slow.upload_done > clean.upload_done);
    }

    #[test]
    fn deadline_slip_defers_early_stop() {
        let opts = Scheme::FedCa(FedCaOptions::v1()).client_options();
        let iters_with_slip = |slip: f64| {
            let mut f = Fixture::new(4, 8);
            let mut anchor = base_plan(20);
            anchor.is_anchor = true;
            f.run(&opts, &anchor);
            let mut plan = base_plan(20);
            plan.round = 1;
            plan.deadline = 0.2;
            plan.faults.deadline_slip = slip;
            f.run(&opts, &plan).iters_done
        };
        let honest = iters_with_slip(0.0);
        let slipped = iters_with_slip(1e9);
        assert!(
            slipped > honest,
            "a slipped deadline must defer early stop: {slipped} vs {honest}"
        );
    }

    #[test]
    fn fedprox_shrinks_drift_relative_to_fedavg() {
        let norm_for = |mu: f32| {
            let mut f = Fixture::new(5, 4);
            let opts = ClientOptions {
                prox_mu: mu,
                fedca: None,
            };
            let report = f.run(&opts, &base_plan(30));
            fedca_tensor::l2_norm(&decoded_update(&report, &f.layout))
        };
        let plain = norm_for(0.0);
        let prox = norm_for(1.0); // heavy μ to make the effect unambiguous
        assert!(
            prox < plain,
            "proximal term must shrink local drift: {prox} vs {plain}"
        );
    }
}
