//! The FL client: local training loop with FedCA's intra-round hooks.
//!
//! Mirrors the paper's implementation (§5.1): after each local iteration
//! the client calls `TryEarlyStop()` and `TryEagerTransmit()`; after the
//! round it calls `TryRetransmit()`. All timing flows through the client's
//! virtual device/links; all learning is real SGD on the client's shard.

use crate::algorithms::FedCaOptions;
use crate::config::FlConfig;
use crate::eager::{EagerState, LayerOutcome};
use crate::params::ModelLayout;
use crate::profiler::SampledProfiler;
use crate::trace::{ClientTraceBuf, TraceEvent};
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
    /// Rounds this client has participated in (drives its personal anchor
    /// cadence: profiling happens on its 1st, (F+1)th, … participations).
    pub participations: usize,
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
    pub wire_update: Option<bytes::Bytes>,
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
    pub trace: ClientTraceBuf,
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
    let total_params = layout.total_params();
    assert_eq!(
        global.len(),
        total_params,
        "global parameter length mismatch"
    );
    // Split the arena so the model and the flat scratch can be borrowed
    // independently below (the profiler reads the scratch while the model
    // keeps training).
    let crate::executor::ClientArena {
        model,
        flat,
        codec,
        grad,
    } = arena;
    let mut rng = StdRng::seed_from_u64(
        state
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(plan.round as u64),
    );
    // Dedicated stream for the compression path, derived from a distinct odd
    // constant: enabling (stochastic) compression never perturbs the batch
    // sampling / fault draws above, and the deterministic schemes never
    // consume it at all.
    let mut qrng = StdRng::seed_from_u64(
        state
            .seed
            .wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            .wrapping_add(plan.round as u64),
    );

    // --- Fault hooks: degraded links run slow for the whole round; a
    // slipped deadline makes the client *believe* it has more time than the
    // server granted. Both are per-round, so every round (re)sets them.
    let faults = &plan.faults;
    // Trace buffer: events accumulate locally in virtual-time order and are
    // merged by the trainer. Inert (no allocation) when tracing is off.
    let tracing = fl.trace.enabled;
    let mut trace = ClientTraceBuf::new();
    state.uplink.set_rate_scale(faults.bandwidth_factor);
    state.downlink.set_rate_scale(faults.bandwidth_factor);
    let perceived_deadline = plan.deadline + faults.deadline_slip;

    // --- Download the latest global model over the client's downlink.
    let download_done = state
        .downlink
        .transmit(plan.start, workload.wire_model_bytes);
    let mut now = download_done;

    model.set_flat_params(global);
    let fedca = opts.fedca.as_ref();
    let is_anchor = plan.is_anchor && fedca.is_some();

    // Clone the profiled curves up front (cheap: (layers+1)·K floats) so the
    // profiler can record the anchor round without borrow conflicts.
    let curves = fedca.and_then(|_| state.profiler.curves().cloned());
    if is_anchor {
        state.profiler.begin_anchor(plan.round);
    }

    let use_early_stop = fedca.is_some_and(|o| o.early_stop) && !is_anchor && curves.is_some();
    let use_eager = fedca.is_some_and(|o| o.eager) && !is_anchor && curves.is_some();
    let (beta, t_e) = fedca
        .map(|o| (o.config.beta, o.config.eager_threshold))
        .unwrap_or((0.01, 2.0));

    let opt = Sgd::new(fl.lr, fl.weight_decay).with_prox(opts.prox_mu);
    let anchor_weights = if opts.prox_mu > 0.0 {
        Some(global)
    } else {
        None
    };

    let mut eager_state = EagerState::new(layout.num_layers());
    let mut loss_sum = 0.0f64;
    let mut iters_done = 0usize;
    let mut early_stopped = false;
    let mut last_iter_wall = workload.iter_work_seconds; // optimistic prior
    let mut bytes_uploaded = 0.0f64;
    // Exact wire accounting: encoded bytes vs their dense-f32 yardstick.
    let mut wire_bytes_uploaded = 0.0f64;
    let mut wire_bytes_dense = 0.0f64;

    // --- §3.1 availability churn: the client may drop out mid-round.
    let drop_time: Option<SimTime> =
        if fl.dropout_prob > 0.0 && rng.gen_range(0.0..1.0) < fl.dropout_prob {
            Some(plan.start + rng.gen_range(0.0..1.0) * plan.deadline.min(1e9))
        } else {
            None
        };
    let mut dropped = false;
    let mut crashed = false;

    // --- §6 extension: autonomous intra-round batch-size adaptation.
    // Per-iteration compute scales with the configured batch size.
    let adaptive_batch_min = fedca.and_then(|o| o.adaptive_batch_min);
    let mut batch_size = fl.batch_size;
    state.sampler.set_batch_size(batch_size);

    for tau in 1..=plan.planned_iters {
        // --- Injected worker panic: unwinds out of the worker thread; the
        // executor catches it and reports the client as failed.
        if faults.panic_at_iter == Some(tau) {
            panic!(
                "injected fault: worker panic (client {}, round {}, iter {tau})",
                state.id, plan.round
            );
        }
        // --- Injected crash: the client dies at this iteration. Unlike a
        // panic its state survives (the worker returns normally), but its
        // upload never arrives.
        if faults.crash_at_iter == Some(tau) {
            crashed = true;
            if tracing {
                trace.push(
                    now,
                    TraceEvent::FaultFired {
                        round: plan.round,
                        client: state.id,
                        kind: "crash".to_string(),
                        iter: tau,
                    },
                );
            }
            break;
        }
        // --- Availability: gone is gone (its upload never arrives).
        if let Some(t_drop) = drop_time {
            if now >= t_drop {
                dropped = true;
                if tracing {
                    trace.push(
                        now,
                        TraceEvent::FaultFired {
                            round: plan.round,
                            client: state.id,
                            kind: "dropout".to_string(),
                            iter: tau,
                        },
                    );
                }
                break;
            }
        }
        // --- TryEarlyStop (checked *before* spending iteration tau; at
        // least one iteration always runs so the client reports something).
        if use_early_stop && tau >= 2 {
            let curve = &curves.as_ref().expect("checked").model;
            let tau_clamped = tau.min(curve.len());
            let t_pred = (now - plan.start) + last_iter_wall;
            if crate::early_stop::should_stop(curve, tau_clamped, t_pred, perceived_deadline, beta)
            {
                early_stopped = true;
                if tracing {
                    trace.push(
                        now,
                        TraceEvent::EarlyStop {
                            round: plan.round,
                            client: state.id,
                            iter: tau,
                        },
                    );
                }
                break;
            }
        }

        // --- One real SGD iteration.
        let batch_idx = state.sampler.next_batch(&mut rng);
        let (x, y) = data.batch(&batch_idx);
        let logits = model.forward(&x);
        let loss = softmax_cross_entropy_into(&logits, &y, grad);
        model.recycle(logits);
        model.zero_grad();
        model.backward_params(grad);
        model.step(&opt, anchor_weights);
        loss_sum += loss as f64;
        iters_done = tau;

        // --- Advance virtual time by the device's pace for this iteration
        // (compute scales with the configured batch size).
        let iter_work = workload.iter_work_seconds * batch_size as f64 / fl.batch_size as f64;
        let before = now;
        now = state.device.execute(now, iter_work);
        last_iter_wall = now - before;

        // --- §6 extension: if the projected finish overruns the deadline,
        // halve the batch (per-iteration cost drops proportionally) instead
        // of waiting for early stop to truncate the round.
        if let Some(min_batch) = adaptive_batch_min {
            if !is_anchor && tau < plan.planned_iters && batch_size > min_batch {
                let remaining = (plan.planned_iters - tau) as f64;
                let projected = (now - plan.start) + remaining * last_iter_wall;
                if projected > perceived_deadline {
                    batch_size = (batch_size / 2).max(min_batch);
                    state.sampler.set_batch_size(batch_size);
                }
            }
        }

        // --- Profiling (anchor rounds) or eager transmission (others).
        if is_anchor {
            model.flat_params_into(flat);
            state.profiler.record_iteration(global, flat);
        } else if use_eager {
            let layer_curves = &curves.as_ref().expect("checked").layers;
            // Only materialize the flat params if some layer may fire.
            let pending: Vec<usize> = (0..layout.num_layers())
                .filter(|&l| eager_state.should_send(l, &layer_curves[l], tau, t_e))
                .collect();
            if !pending.is_empty() {
                model.flat_params_into(flat);
                let current: &[f32] = flat;
                for l in pending {
                    let r = layout.range(l);
                    let delta: Vec<f32> = current[r.clone()]
                        .iter()
                        .zip(&global[r.clone()])
                        .map(|(c, g)| c - g)
                        .collect();
                    let nominal = workload.wire_bytes_for(r.len(), total_params);
                    // Each eager send is its own framed message (header +
                    // layer id + payload). Under compression the snapshot
                    // the server keeps is what its decoder reconstructs —
                    // so the client encodes that message and reads it back
                    // with the server's parser — and the priced bytes
                    // shrink by the exact encoded/dense ratio.
                    let dense_len = wire::dense_payload_wire_len(r.len());
                    let dense_frame = (wire::HEADER_LEN + 4 + dense_len) as f64;
                    let (snapshot, bytes, frame) = if fl.compression == Compression::None {
                        (delta, nominal, dense_frame)
                    } else {
                        let payload_len = fl.compression.payload_wire_len(r.len());
                        let frame_len = wire::HEADER_LEN + 4 + payload_len;
                        let mut msg = wire::MessageWriter::with_capacity(frame_len);
                        msg.begin(plan.round as u32, state.id as u32, 1);
                        let c = fl.compression;
                        c.encode_layer(&mut msg, l as u32, &delta, &mut qrng, codec);
                        let mut snapshot = vec![0.0f32; r.len()];
                        wire::for_each_layer(msg.finish().as_ref(), |_, view| {
                            view.decode_into(&mut snapshot);
                            Ok(())
                        })
                        .expect("a client parses its own message");
                        let bytes = nominal * payload_len as f64 / dense_len as f64;
                        (snapshot, bytes, frame_len as f64)
                    };
                    wire_bytes_uploaded += frame;
                    wire_bytes_dense += dense_frame;
                    state.uplink.transmit(now, bytes);
                    bytes_uploaded += bytes;
                    eager_state.mark_sent(l, tau, snapshot);
                    if tracing {
                        trace.push(
                            now,
                            TraceEvent::EagerTransmit {
                                round: plan.round,
                                client: state.id,
                                layer: l,
                                iter: tau,
                                bytes,
                            },
                        );
                    }
                }
            }
        }
    }
    let compute_done = now;

    if is_anchor {
        let k = state.profiler.finish_anchor().k;
        if tracing {
            trace.push(
                compute_done,
                TraceEvent::AnchorProfiled {
                    round: plan.round,
                    client: state.id,
                    k,
                    sampled_params: state.profiler.sampled_param_count(),
                },
            );
        }
    }

    // --- TryRetransmit + final upload, in place in the arena: `flat`
    // becomes the accumulated update w − g.
    model.flat_delta_into(global, flat);
    let Upload {
        eager_outcomes,
        payload_bytes: final_payload_bytes,
        wire_len,
        dense_wire_len,
        wire: mut wire_update,
    } = finish_upload(
        flat,
        &eager_state,
        &mut state.error_feedback,
        codec,
        &mut qrng,
        &UploadCtx {
            layout,
            workload,
            compression: fl.compression,
            fedca,
            round: plan.round as u32,
            client: state.id as u32,
            send: !dropped && !crashed,
        },
    );
    wire_bytes_uploaded += wire_len as f64;
    wire_bytes_dense += dense_wire_len as f64;
    let corrupted = faults.corrupt_update && wire_update.is_some();
    if corrupted {
        // Injected in-flight corruption: the bytes the server receives
        // decode to NaN (the upload itself still arrives on time, priced
        // as the honest one); the server's ingest must reject them.
        wire_update = Some(wire::encode(&wire::UpdateMessage {
            round: plan.round as u32,
            client: state.id as u32,
            layers: (0..layout.num_layers())
                .map(|l| {
                    let nan = vec![f32::NAN; layout.layer_len(l)];
                    (l as u32, wire::Payload::Dense(nan))
                })
                .collect(),
        }));
    }

    let upload_done = if dropped || crashed {
        // The client vanished: nothing else reaches the server this round.
        f64::INFINITY
    } else {
        bytes_uploaded += final_payload_bytes;
        let sent = state.uplink.transmit(compute_done, final_payload_bytes);
        if tracing && corrupted {
            trace.push(
                sent,
                TraceEvent::FaultFired {
                    round: plan.round,
                    client: state.id,
                    kind: "corrupt_update".to_string(),
                    iter: 0,
                },
            );
        }
        if faults.lose_result {
            // The upload left the client but the message never arrived.
            if tracing {
                trace.push(
                    sent,
                    TraceEvent::FaultFired {
                        round: plan.round,
                        client: state.id,
                        kind: "result_loss".to_string(),
                        iter: 0,
                    },
                );
            }
            f64::INFINITY
        } else {
            if tracing && faults.result_delay > 0.0 {
                trace.push(
                    sent,
                    TraceEvent::FaultFired {
                        round: plan.round,
                        client: state.id,
                        kind: "result_delay".to_string(),
                        iter: 0,
                    },
                );
            }
            sent + faults.result_delay
        }
    };

    ClientRoundReport {
        client_id: state.id,
        weight: state.shard.len() as f64,
        wire_update,
        iters_done,
        early_stopped,
        download_done,
        compute_done,
        upload_done,
        eager_outcomes,
        bytes_uploaded,
        wire_bytes_uploaded,
        wire_bytes_dense,
        train_loss: if iters_done > 0 {
            (loss_sum / iters_done as f64) as f32
        } else {
            f32::NAN
        },
        dropped,
        crashed,
        trace,
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
    wire: Option<bytes::Bytes>,
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
    let retransmit_enabled = cx.fedca.is_some_and(|o| o.retransmit);
    let t_r = cx
        .fedca
        .map(|o| o.config.retransmit_threshold)
        .unwrap_or(0.6);
    let mut eager_outcomes = Vec::with_capacity(layout.num_layers());
    let mut payload_bytes = 0.0f64;
    // Exact sizes of the final message, its dense yardstick and the sidecar.
    let mut wire_len = wire::HEADER_LEN;
    let mut dense_wire_len = wire::HEADER_LEN;
    let mut sidecar_len = wire::HEADER_LEN;
    let mut n_eager = 0usize;
    for l in 0..layout.num_layers() {
        let final_layer = &delta[layout.range(l)];
        let outcome = if retransmit_enabled {
            eager_state.resolve(l, final_layer, t_r)
        } else if eager_state.is_sent(l) {
            // Without error feedback the eager value is final, however stale.
            let iter = match eager_state.resolve(l, final_layer, -2.0) {
                LayerOutcome::Eager { iter } => iter,
                _ => unreachable!("threshold -2 accepts everything"),
            };
            LayerOutcome::Eager { iter }
        } else {
            LayerOutcome::Regular
        };
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
        wire::for_each_layer(wire.as_ref(), |l, view| {
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
    use crate::executor::ClientArena;
    use crate::workload::Workload;
    use fedca_sim::device::DynamicsConfig;

    fn make_client(workload: &Workload, id: usize) -> ClientState {
        let shard: Vec<usize> = (0..workload.train.len()).collect();
        let model = (workload.model_factory)();
        let layout = Arc::new(ModelLayout::from_spans(model.spans()));
        ClientState {
            id,
            shard: shard.clone(),
            sampler: BatchSampler::new(shard, 8),
            device: DeviceSpeed::new(1.0, DynamicsConfig::static_device(), 42 + id as u64),
            uplink: Link::new(1.0e6),
            downlink: Link::new(1.0e6),
            profiler: SampledProfiler::new(layout, 100, 7 + id as u64),
            seed: 99 + id as u64,
            participations: 0,
            error_feedback: ErrorFeedback::new(),
        }
    }

    /// What the server would decode from the report's wire bytes.
    fn decoded_update(report: &ClientRoundReport, layout: &ModelLayout) -> Vec<f32> {
        let buf = report.wire_update.as_ref().expect("upload sent");
        let mut dense = vec![0.0f32; layout.total_params()];
        wire::for_each_layer(buf.as_ref(), |l, view| {
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
        let mut joined = encoded.to_vec();
        if !sidecar.layers.is_empty() {
            joined.extend_from_slice(wire::encode(&sidecar).as_ref());
        }
        Upload {
            eager_outcomes,
            payload_bytes,
            wire_len: encoded.len(),
            dense_wire_len,
            wire: Some(joined.into()),
        }
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
            Compression::F16,
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
        let w = Workload::tiny_mlp(1);
        let mut client = make_client(&w, 0);
        let mut arena = ClientArena::from_model((w.model_factory)());
        let layout = Arc::new(ModelLayout::from_spans(arena.model.spans()));
        let global = arena.model.flat_params();
        let fl = FlConfig {
            lr: w.lr,
            weight_decay: w.weight_decay,
            batch_size: 8,
            ..FlConfig::scaled()
        };
        let report = run_client_round(
            &mut client,
            &mut arena,
            &layout,
            &global,
            &w.train,
            &w,
            &fl,
            &ClientOptions::default(),
            &base_plan(10),
        );
        assert_eq!(report.iters_done, 10);
        assert!(!report.early_stopped);
        let update = decoded_update(&report, &layout);
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
        let w = Workload::tiny_mlp(2);
        let mut client = make_client(&w, 1);
        let mut arena = ClientArena::from_model((w.model_factory)());
        let layout = Arc::new(ModelLayout::from_spans(arena.model.spans()));
        let global = arena.model.flat_params();
        let fl = FlConfig {
            lr: 0.05,
            weight_decay: 0.0,
            batch_size: 8,
            ..FlConfig::scaled()
        };
        let report = run_client_round(
            &mut client,
            &mut arena,
            &layout,
            &global,
            &w.train,
            &w,
            &fl,
            &ClientOptions::default(),
            &base_plan(5),
        );
        let local = arena.model.flat_params();
        let update = decoded_update(&report, &layout);
        for i in 0..local.len() {
            assert!(
                (update[i] - (local[i] - global[i])).abs() < 1e-6,
                "update[{i}] inconsistent"
            );
        }
    }

    #[test]
    fn anchor_round_profiles_and_disables_optimizations() {
        let w = Workload::tiny_mlp(3);
        let mut client = make_client(&w, 2);
        let mut arena = ClientArena::from_model((w.model_factory)());
        let layout = Arc::new(ModelLayout::from_spans(arena.model.spans()));
        let global = arena.model.flat_params();
        let fl = FlConfig {
            lr: 0.05,
            weight_decay: 0.0,
            batch_size: 8,
            ..FlConfig::scaled()
        };
        let opts = ClientOptions {
            prox_mu: 0.0,
            fedca: Some(FedCaOptions::v3()),
        };
        let mut plan = base_plan(8);
        plan.is_anchor = true;
        plan.deadline = 0.01; // would trigger early stop if it were active
        let report = run_client_round(
            &mut client,
            &mut arena,
            &layout,
            &global,
            &w.train,
            &w,
            &fl,
            &opts,
            &plan,
        );
        assert_eq!(report.iters_done, 8, "anchor rounds must run unoptimized");
        assert!(!report.early_stopped);
        let curves = client.profiler.curves().expect("anchor produced curves");
        assert_eq!(curves.k, 8);
        assert!((curves.model.last().unwrap() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn early_stop_fires_past_deadline() {
        let w = Workload::tiny_mlp(4);
        let mut client = make_client(&w, 3);
        let mut arena = ClientArena::from_model((w.model_factory)());
        let layout = Arc::new(ModelLayout::from_spans(arena.model.spans()));
        let global = arena.model.flat_params();
        let fl = FlConfig {
            lr: 0.05,
            weight_decay: 0.0,
            batch_size: 8,
            ..FlConfig::scaled()
        };
        let opts = ClientOptions {
            prox_mu: 0.0,
            fedca: Some(FedCaOptions::v1()),
        };
        // First run an anchor round to obtain curves.
        let mut plan = base_plan(20);
        plan.is_anchor = true;
        let _ = run_client_round(
            &mut client,
            &mut arena,
            &layout,
            &global,
            &w.train,
            &w,
            &fl,
            &opts,
            &plan,
        );
        // Now a tight deadline: the client should stop early.
        let mut plan = base_plan(20);
        plan.round = 1;
        plan.deadline = 0.2; // 4 iterations' worth of time
        let report = run_client_round(
            &mut client,
            &mut arena,
            &layout,
            &global,
            &w.train,
            &w,
            &fl,
            &opts,
            &plan,
        );
        assert!(
            report.early_stopped,
            "tight deadline must trigger early stop"
        );
        assert!(report.iters_done < 20);
        assert!(report.iters_done >= 1);
    }

    #[test]
    fn injected_crash_truncates_round_and_loses_upload() {
        let w = Workload::tiny_mlp(6);
        let mut client = make_client(&w, 5);
        let mut arena = ClientArena::from_model((w.model_factory)());
        let layout = Arc::new(ModelLayout::from_spans(arena.model.spans()));
        let global = arena.model.flat_params();
        let fl = FlConfig {
            lr: 0.05,
            weight_decay: 0.0,
            batch_size: 8,
            ..FlConfig::scaled()
        };
        let mut plan = base_plan(10);
        plan.faults.crash_at_iter = Some(4);
        let report = run_client_round(
            &mut client,
            &mut arena,
            &layout,
            &global,
            &w.train,
            &w,
            &fl,
            &ClientOptions::default(),
            &plan,
        );
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
        let w = Workload::tiny_mlp(6);
        let mut client = make_client(&w, 6);
        let mut arena = ClientArena::from_model((w.model_factory)());
        let layout = Arc::new(ModelLayout::from_spans(arena.model.spans()));
        let global = arena.model.flat_params();
        let fl = FlConfig {
            lr: 0.05,
            weight_decay: 0.0,
            batch_size: 8,
            ..FlConfig::scaled()
        };
        let mut plan = base_plan(10);
        plan.faults.panic_at_iter = Some(2);
        let _ = run_client_round(
            &mut client,
            &mut arena,
            &layout,
            &global,
            &w.train,
            &w,
            &fl,
            &ClientOptions::default(),
            &plan,
        );
    }

    #[test]
    fn result_faults_delay_or_lose_the_upload() {
        let w = Workload::tiny_mlp(7);
        let fl = FlConfig {
            lr: 0.05,
            weight_decay: 0.0,
            batch_size: 8,
            ..FlConfig::scaled()
        };
        let run_with = |faults: ClientFaults| {
            let mut client = make_client(&w, 7);
            let mut arena = ClientArena::from_model((w.model_factory)());
            let layout = Arc::new(ModelLayout::from_spans(arena.model.spans()));
            let global = arena.model.flat_params();
            let mut plan = base_plan(5);
            plan.faults = faults;
            run_client_round(
                &mut client,
                &mut arena,
                &layout,
                &global,
                &w.train,
                &w,
                &fl,
                &ClientOptions::default(),
                &plan,
            )
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
        let layout = ModelLayout::from_spans((w.model_factory)().spans());
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
        let w = Workload::tiny_mlp(4);
        let fl = FlConfig {
            lr: 0.05,
            weight_decay: 0.0,
            batch_size: 8,
            ..FlConfig::scaled()
        };
        let opts = ClientOptions {
            prox_mu: 0.0,
            fedca: Some(FedCaOptions::v1()),
        };
        let iters_with_slip = |slip: f64| {
            let mut client = make_client(&w, 8);
            let mut arena = ClientArena::from_model((w.model_factory)());
            let layout = Arc::new(ModelLayout::from_spans(arena.model.spans()));
            let global = arena.model.flat_params();
            let mut anchor = base_plan(20);
            anchor.is_anchor = true;
            let _ = run_client_round(
                &mut client,
                &mut arena,
                &layout,
                &global,
                &w.train,
                &w,
                &fl,
                &opts,
                &anchor,
            );
            let mut plan = base_plan(20);
            plan.round = 1;
            plan.deadline = 0.2;
            plan.faults.deadline_slip = slip;
            run_client_round(
                &mut client,
                &mut arena,
                &layout,
                &global,
                &w.train,
                &w,
                &fl,
                &opts,
                &plan,
            )
            .iters_done
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
        let w = Workload::tiny_mlp(5);
        let fl = FlConfig {
            lr: 0.05,
            weight_decay: 0.0,
            batch_size: 8,
            ..FlConfig::scaled()
        };
        let norm_for = |mu: f32| {
            let mut client = make_client(&w, 4);
            let mut arena = ClientArena::from_model((w.model_factory)());
            let layout = Arc::new(ModelLayout::from_spans(arena.model.spans()));
            let global = arena.model.flat_params();
            let opts = ClientOptions {
                prox_mu: mu,
                fedca: None,
            };
            let report = run_client_round(
                &mut client,
                &mut arena,
                &layout,
                &global,
                &w.train,
                &w,
                &fl,
                &opts,
                &base_plan(30),
            );
            fedca_tensor::l2_norm(&decoded_update(&report, &layout))
        };
        let plain = norm_for(0.0);
        let prox = norm_for(1.0); // heavy μ to make the effect unambiguous
        assert!(
            prox < plain,
            "proximal term must shrink local drift: {prox} vs {plain}"
        );
    }
}
