//! Property tests: serde round-trips for the experiment's persisted types
//! (`RoundRecord`, `EagerEvent`, `TraceEvent`) — arbitrary values survive
//! JSON serialization exactly, and `#[serde(default)]` fields deserialize
//! from documents that predate them (the drift a new field would introduce).

use fedca_core::checkpoint::{
    decode_envelope, encode_envelope, CheckpointEnvelope, ClientSnapshot,
};
use fedca_core::metrics::{EagerEvent, RoundRecord};
use fedca_core::profiler::ProfiledCurves;
use fedca_core::trace::TraceEvent;
use fedca_sim::device::DeviceSpeedSnapshot;
use proptest::prelude::*;
use serde::Deserialize;

fn eager_event((client, layer, iter, retrans): (usize, usize, usize, u8)) -> EagerEvent {
    EagerEvent {
        client,
        layer,
        iter,
        retransmitted: retrans == 1,
    }
}

proptest! {
    #[test]
    fn eager_event_round_trips(raw in (0usize..64, 0usize..8, 1usize..200, 0u8..2)) {
        let event = eager_event(raw);
        let json = serde_json::to_string(&event).expect("serialize");
        let back: EagerEvent = serde_json::from_str(&json).expect("deserialize");
        prop_assert_eq!(back, event);
    }

    #[test]
    fn round_record_round_trips(
        (base, acc, per_client, eager_raw) in (1usize..6).prop_flat_map(|n| (
            // round, start, duration, loss, counters ×3, misc
            (0usize..500, 0.0f64..1e4, 0.0f64..1e3, 0.0f32..10.0,
             0usize..5, 0usize..5, 0usize..5, 0usize..1000),
            // accuracy: present-flag + value
            (0u8..2, 0.0f32..1.0),
            // per selected client: iters_done, iters_planned, early-stop flag
            prop::collection::vec((1usize..200, 1usize..200, 0u8..2), n),
            prop::collection::vec((0usize..64, 0usize..8, 1usize..200, 0u8..2), 0..5),
        ))
    ) {
        let n = per_client.len();
        let record = RoundRecord {
            round: base.0,
            start: base.1,
            end: base.1 + base.2,
            accuracy: (acc.0 == 1).then_some(acc.1),
            mean_train_loss: base.3,
            n_selected: n,
            n_aggregated: base.4.min(n),
            n_dropped: base.5.min(n),
            n_crashed: base.6.min(n),
            n_deadline_missed: (base.4 + base.5).min(n),
            n_rejected: base.6.min(n),
            iters_done: per_client.iter().map(|c| c.0).collect(),
            iters_planned: per_client.iter().map(|c| c.1).collect(),
            early_stops: per_client.iter().map(|c| c.2 == 1).collect(),
            eager_events: eager_raw.iter().map(|&r| eager_event(r)).collect(),
            bytes_uploaded: base.2 * 4096.0,
            wire_bytes_uploaded: base.2 * 1024.0,
            wire_bytes_dense: base.2 * 4096.0,
            is_anchor: base.7 % 2 == 0,
            host_ms: base.2 * 0.5,
            n_hydrated: base.4.min(n),
            n_evicted: base.5,
            hydrate_host_us: base.2 * 2.0,
            decode_host_us: base.2 * 1.5,
            aggregate_host_us: base.2 * 0.25,
            n_retries: base.7 % 7,
            n_heartbeat_missed: base.6,
            n_quarantined: base.5,
            n_reassigned: base.4 + base.5,
        };
        let json = serde_json::to_string(&record).expect("serialize");
        let back: RoundRecord = serde_json::from_str(&json).expect("deserialize");
        prop_assert_eq!(back, record);
    }

    #[test]
    fn trace_event_round_trips(
        (variant, ints, floats, (flags, pick)) in (
            0usize..13,
            (0usize..500, 0usize..128, 0usize..32, 1usize..200),
            (0.0f64..1e4, 0.0f64..1e7),
            (0u8..8, 0usize..32),
        )
    ) {
        const KINDS: [&str; 4] = ["crash", "result_loss", "result_delay", "dropout"];
        const NAMES: [&str; 3] = ["round", "evaluate", "client_round"];
        const SCHEMES: [&str; 3] = ["FedAvg", "FedCA", "FedProx"];
        let (round, client, layer, iter) = ints;
        let (t, big) = floats;
        let event = match variant {
            0 => TraceEvent::RunStart {
                scheme: SCHEMES[pick % 3].to_string(),
                workload: "tiny_mlp".to_string(),
                seed: pick as u64,
                n_workers: 1 + pick % 8,
            },
            1 => TraceEvent::RoundOpen {
                round,
                n_selected: 1 + pick,
                deadline: t,
            },
            2 => TraceEvent::ClientCheckout {
                round,
                client,
                planned_iters: iter,
                is_anchor: flags & 1 == 1,
            },
            3 => TraceEvent::FaultArmed {
                round,
                client,
                kinds: KINDS[..(flags as usize % (KINDS.len() + 1))]
                    .iter()
                    .map(|k| k.to_string())
                    .collect(),
            },
            4 => TraceEvent::FaultFired {
                round,
                client,
                kind: KINDS[pick % KINDS.len()].to_string(),
                iter,
            },
            5 => TraceEvent::EagerTransmit {
                round,
                client,
                layer,
                iter,
                bytes: big,
            },
            6 => TraceEvent::EarlyStop { round, client, iter },
            7 => TraceEvent::AnchorProfiled {
                round,
                client,
                k: iter,
                sampled_params: pick,
            },
            8 => TraceEvent::ClientDone {
                round,
                client,
                iters_done: iter,
                early_stopped: flags & 2 == 2,
                upload_done: (flags & 1 == 1).then_some(t),
            },
            9 => TraceEvent::ClientFailed { round, client },
            10 => TraceEvent::AggregationCut {
                round,
                completion: t,
                n_collected: pick,
                n_finite: pick + (flags as usize),
            },
            11 => TraceEvent::RoundClose {
                round,
                end: t,
                n_aggregated: pick,
                n_crashed: flags as usize,
                n_deadline_missed: layer,
            },
            _ => TraceEvent::Span {
                name: NAMES[pick % NAMES.len()].to_string(),
            },
        };
        let json = serde_json::to_string(&event).expect("serialize");
        let back: TraceEvent = serde_json::from_str(&json).expect("deserialize");
        prop_assert_eq!(back, event);
    }
}

/// A round record for the drift guards below.
fn sample_record() -> RoundRecord {
    RoundRecord {
        round: 3,
        start: 1.0,
        end: 2.5,
        accuracy: Some(0.5),
        mean_train_loss: 0.25,
        n_selected: 4,
        n_aggregated: 3,
        n_dropped: 2,
        n_crashed: 1,
        n_deadline_missed: 1,
        n_rejected: 1,
        iters_done: vec![6, 6, 4, 0],
        iters_planned: vec![6; 4],
        early_stops: vec![false, false, true, false],
        eager_events: vec![],
        bytes_uploaded: 4096.0,
        wire_bytes_uploaded: 1024.0,
        wire_bytes_dense: 4096.0,
        is_anchor: false,
        host_ms: 12.0,
        n_hydrated: 4,
        n_evicted: 2,
        hydrate_host_us: 37.5,
        decode_host_us: 18.25,
        aggregate_host_us: 4.5,
        n_retries: 3,
        n_heartbeat_missed: 1,
        n_quarantined: 1,
        n_reassigned: 2,
    }
}

/// `#[serde(default)]`-drift guard: a `RoundRecord` document written before
/// the defaulted fields existed (no `n_dropped`/`n_crashed`/
/// `n_deadline_missed`/`host_ms`/… keys) still deserializes, with those
/// fields at their defaults.
#[test]
fn round_record_tolerates_pre_fault_documents() {
    let record = sample_record();
    const DEFAULTED: [&str; 16] = [
        "n_dropped",
        "n_crashed",
        "n_deadline_missed",
        "n_rejected",
        "host_ms",
        "n_hydrated",
        "n_evicted",
        "hydrate_host_us",
        "decode_host_us",
        "aggregate_host_us",
        "wire_bytes_uploaded",
        "wire_bytes_dense",
        "n_retries",
        "n_heartbeat_missed",
        "n_quarantined",
        "n_reassigned",
    ];
    let serde::Value::Object(pairs) = serde_json::to_value(&record).expect("to_value") else {
        panic!("RoundRecord must serialize to an object");
    };
    let stripped: Vec<(String, serde::Value)> = pairs
        .into_iter()
        .filter(|(k, _)| !DEFAULTED.contains(&k.as_str()))
        .collect();
    let back = RoundRecord::from_value(&serde::Value::Object(stripped))
        .expect("defaulted fields must be optional");
    assert_eq!(back.n_dropped, 0);
    assert_eq!(back.n_crashed, 0);
    assert_eq!(back.n_deadline_missed, 0);
    assert_eq!(back.n_rejected, 0);
    assert_eq!(back.host_ms, 0.0);
    assert_eq!(back.n_hydrated, 0);
    assert_eq!(back.n_evicted, 0);
    assert_eq!(back.hydrate_host_us, 0.0);
    assert_eq!(back.decode_host_us, 0.0);
    assert_eq!(back.aggregate_host_us, 0.0);
    assert_eq!(back.wire_bytes_uploaded, 0.0);
    assert_eq!(back.wire_bytes_dense, 0.0);
    assert_eq!(back.n_retries, 0);
    assert_eq!(back.n_heartbeat_missed, 0);
    assert_eq!(back.n_quarantined, 0);
    assert_eq!(back.n_reassigned, 0);
    assert_eq!(back.compression_ratio(), 1.0);
    assert_eq!(back.iters_done, record.iters_done);
    assert_eq!(back.accuracy, record.accuracy);
}

/// A record written while `RoundRecord` still counted `allocs_avoided` (a
/// field since retired) still loads: the retired key is ignored and every
/// surviving field keeps its value.
#[test]
fn round_record_written_with_a_retired_key_still_loads() {
    let record = sample_record();
    let serde::Value::Object(mut pairs) = serde_json::to_value(&record).expect("to_value") else {
        panic!("RoundRecord must serialize to an object");
    };
    pairs.push((
        "allocs_avoided".to_string(),
        serde::Value::Number(serde::Number::PosInt(9)),
    ));
    let json = serde_json::to_string(&serde::Value::Object(pairs)).expect("serialize");
    let back: RoundRecord = serde_json::from_str(&json).expect("a retired key must be ignored");
    assert_eq!(back, record);
}

proptest! {
    /// The checkpoint container round-trips arbitrary envelopes bit-exactly
    /// (encode → decode → equal), including full-range `u64` RNG words and
    /// negative/small floats — the property bit-identical resume rests on.
    #[test]
    fn checkpoint_envelope_round_trips_bit_exactly(
        (fingerprint, rounds_done, clock, rng_words, global, ema_raw, clients_raw) in (
            0u64..u64::MAX,
            0usize..1000,
            0.0f64..1e6,
            prop::collection::vec(0u64..u64::MAX, 4),
            prop::collection::vec(-1e3f32..1e3, 0..8),
            prop::collection::vec((0u8..2, 0.0f64..1e4), 0..6),
            prop::collection::vec(
                (
                    prop::collection::vec(0u64..u64::MAX, 4),
                    prop::collection::vec(0usize..64, 1..8),
                    0.0f64..1e5,
                    (0u8..2, prop::collection::vec(0.0f32..1.0, 1..6)),
                    prop::collection::vec(-1.0f32..1.0, 0..5),
                ),
                0..4,
            ),
        )
    ) {
        let clients: Vec<ClientSnapshot> = clients_raw
            .into_iter()
            .enumerate()
            .map(|(id, (rng, indices, busy, (has_curves, curve), feedback))| ClientSnapshot {
                id,
                sampler_cursor: indices.len() - 1,
                sampler_indices: indices,
                device: DeviceSpeedSnapshot {
                    rng,
                    segments: vec![(busy * 0.5, 1.25), (busy, 0.75)],
                    horizon: busy,
                    next_is_fast: has_curves == 1,
                },
                uplink_busy_until: busy,
                downlink_busy_until: busy * 0.25,
                curves: (has_curves == 1).then(|| ProfiledCurves {
                    anchor_round: id,
                    k: curve.len(),
                    model: curve.clone(),
                    layers: vec![curve.clone()],
                }),
                error_feedback: feedback,
            })
            .collect();
        let participations: Vec<(usize, usize)> =
            clients.iter().map(|c| (c.id, c.id + 1)).collect();
        let env = CheckpointEnvelope {
            fingerprint,
            rounds_done,
            clock,
            n_clients: clients.len().max(1) * 1000,
            selection_rng: rng_words,
            global,
            estimator_ema: ema_raw
                .into_iter()
                .enumerate()
                .filter(|(_, (present, _))| *present == 1)
                .map(|(i, (_, v))| (i * 997, v))
                .collect(),
            participations,
            clients,
            records: Vec::new(),
        };
        let bytes = encode_envelope(&env);
        let back = decode_envelope(&bytes).expect("valid container");
        prop_assert_eq!(back, env);
    }
}

/// `#[serde(default)]`-drift guard for the checkpoint envelope: a payload
/// written before the defaulted fields existed (no `records` on the
/// envelope, no `curves`/`error_feedback` on a client) still deserializes,
/// with those fields at their defaults.
#[test]
fn checkpoint_envelope_tolerates_missing_defaulted_fields() {
    let env = CheckpointEnvelope {
        fingerprint: 7,
        rounds_done: 2,
        clock: 100.5,
        n_clients: 1_000_000,
        selection_rng: vec![1, 2, 3, 4],
        global: vec![0.5, -0.25],
        estimator_ema: vec![(1, 3.5), (999_999, 0.75)],
        participations: vec![(0, 1), (999_999, 2)],
        clients: vec![ClientSnapshot {
            id: 0,
            sampler_indices: vec![1, 0],
            sampler_cursor: 1,
            device: DeviceSpeedSnapshot {
                rng: vec![5, 6, 7, 8],
                segments: vec![(2.0, 1.5)],
                horizon: 2.0,
                next_is_fast: true,
            },
            uplink_busy_until: 9.0,
            downlink_busy_until: 0.0,
            curves: Some(ProfiledCurves {
                anchor_round: 0,
                k: 1,
                model: vec![1.0],
                layers: vec![vec![1.0]],
            }),
            error_feedback: vec![0.125],
        }],
        records: Vec::new(),
    };
    let serde::Value::Object(pairs) = serde_json::to_value(&env).expect("to_value") else {
        panic!("CheckpointEnvelope must serialize to an object");
    };
    let stripped: Vec<(String, serde::Value)> = pairs
        .into_iter()
        .filter(|(k, _)| k != "records")
        .map(|(k, v)| {
            if k != "clients" {
                return (k, v);
            }
            let serde::Value::Array(items) = v else {
                panic!("clients must serialize to an array");
            };
            let cleaned = items
                .into_iter()
                .map(|item| {
                    let serde::Value::Object(fields) = item else {
                        panic!("a client snapshot must serialize to an object");
                    };
                    serde::Value::Object(
                        fields
                            .into_iter()
                            .filter(|(k, _)| k != "curves" && k != "error_feedback")
                            .collect(),
                    )
                })
                .collect();
            (k, serde::Value::Array(cleaned))
        })
        .collect();
    let back = CheckpointEnvelope::from_value(&serde::Value::Object(stripped))
        .expect("defaulted fields must be optional");
    assert!(back.records.is_empty());
    assert_eq!(back.clients[0].curves, None);
    assert!(back.clients[0].error_feedback.is_empty());
    assert_eq!(
        back.clients[0].sampler_indices,
        env.clients[0].sampler_indices
    );
    assert_eq!(back.selection_rng, env.selection_rng);
    assert_eq!(back.rounds_done, env.rounds_done);
}

// ---------------------------------------------------------------------------
// Shard protocol envelopes: everything the coordinator and its shard
// children exchange must survive the JSON meta channel exactly — including
// NaN/±inf floats, which travel as IEEE-754 bit patterns (`*_bits` fields)
// because the vendored JSON encoder maps non-finite floats to `null`.
// ---------------------------------------------------------------------------

use fedca_core::client::RoundPlan;
use fedca_core::config::{FaultConfig, FlConfig, ShardAssignment, ShardConfig};
use fedca_core::eager::LayerOutcome;
use fedca_core::shard::{DoneMsg, FromShard, ToShard, WireEvent, WorkItem};
use fedca_sim::faults::ClientFaults;

fn sample_snapshot(id: usize) -> ClientSnapshot {
    ClientSnapshot {
        id,
        sampler_indices: vec![3, 1, 2],
        sampler_cursor: 1,
        device: DeviceSpeedSnapshot {
            rng: vec![11, 12, 13, 14],
            segments: vec![(4.0, 1.5)],
            horizon: 4.0,
            next_is_fast: false,
        },
        uplink_busy_until: 2.5,
        downlink_busy_until: 0.5,
        curves: Some(ProfiledCurves {
            anchor_round: 2,
            k: 2,
            model: vec![0.25, 0.5],
            layers: vec![vec![0.25, 0.5]],
        }),
        error_feedback: vec![0.0625, -0.5],
    }
}

/// Serialize → deserialize → serialize must be a fixed point: any drift in
/// field names, defaulted fields, or enum tagging shows up as a string
/// mismatch here before it can corrupt a live shard connection.
fn assert_json_stable<T: serde::Serialize + serde::Deserialize>(value: &T, label: &str) {
    let json = serde_json::to_string(value).expect("serialize");
    let back: T = serde_json::from_str(&json).expect("deserialize");
    let rejson = serde_json::to_string(&back).expect("re-serialize");
    assert_eq!(
        json, rejson,
        "{label}: JSON round trip is not a fixed point"
    );
}

#[test]
fn shard_control_messages_round_trip_stably() {
    let item = WorkItem {
        ord: 3,
        client_id: 17,
        participations: 5,
        plan: RoundPlan {
            round: 9,
            start: 120.5,
            deadline: 60.0,
            planned_iters: 25,
            is_anchor: true,
            faults: ClientFaults {
                crash_at_iter: Some(7),
                panic_at_iter: None,
                result_delay: 1.5,
                lose_result: true,
                bandwidth_factor: 0.5,
                deadline_slip: 3.0,
                corrupt_update: true,
            },
        },
        snapshot: Some(sample_snapshot(17)),
    };
    assert_json_stable(&item, "WorkItem");
    assert_json_stable(
        &ToShard::Init {
            shard_id: 1,
            n_shards: 4,
            n_workers: 2,
            fl: FlConfig::scaled(),
            scheme: fedca_core::Scheme::fedca_default(),
            workload: fedca_core::Workload::tiny_mlp(7).spec.unwrap(),
        },
        "ToShard::Init",
    );
    assert_json_stable(
        &ToShard::RoundStart {
            round: 9,
            items: vec![item],
        },
        "ToShard::RoundStart",
    );
    assert_json_stable(&ToShard::Shutdown, "ToShard::Shutdown");
    assert_json_stable(&FromShard::Hello { shard_id: 2 }, "FromShard::Hello");
    assert_json_stable(
        &FromShard::Failed {
            round: 4,
            ord: 1,
            client_id: 9,
            panic_msg: "client panicked: injected".into(),
        },
        "FromShard::Failed",
    );
}

#[test]
fn done_msg_preserves_non_finite_floats_bit_exactly() {
    let msg = DoneMsg {
        round: 6,
        ord: 2,
        client_id: 11,
        weight_bits: f64::NAN.to_bits(),
        iters_done: 0,
        early_stopped: false,
        download_done_bits: 10.25f64.to_bits(),
        compute_done_bits: f64::NEG_INFINITY.to_bits(),
        upload_done_bits: f64::INFINITY.to_bits(),
        eager_outcomes: vec![
            LayerOutcome::Regular,
            LayerOutcome::Eager { iter: 4 },
            LayerOutcome::Retransmitted { iter: 9 },
        ],
        bytes_uploaded_bits: 4096.0f64.to_bits(),
        wire_bytes_uploaded_bits: 1024.0f64.to_bits(),
        wire_bytes_dense_bits: 4096.0f64.to_bits(),
        train_loss_bits: f32::NAN.to_bits(),
        dropped: true,
        crashed: false,
        host_us_bits: 1234.5f64.to_bits(),
        trace: vec![WireEvent {
            time_bits: f64::INFINITY.to_bits(),
            host_us_bits: 0.0f64.to_bits(),
            event: TraceEvent::ClientFailed {
                round: 6,
                client: 11,
            },
        }],
        snapshot: sample_snapshot(11),
    };
    assert_json_stable(&FromShard::Done(msg.clone()), "FromShard::Done");
    let json = serde_json::to_string(&msg).expect("serialize");
    let back: DoneMsg = serde_json::from_str(&json).expect("deserialize");
    // The bit patterns — not just the float values — survive, so NaN
    // payload bits and infinity signs are wire-stable.
    assert_eq!(back.weight_bits, msg.weight_bits);
    assert!(f64::from_bits(back.weight_bits).is_nan());
    assert_eq!(f64::from_bits(back.compute_done_bits), f64::NEG_INFINITY);
    assert_eq!(f64::from_bits(back.upload_done_bits), f64::INFINITY);
    assert!(f32::from_bits(back.train_loss_bits).is_nan());
    assert_eq!(back.trace[0].time_bits, f64::INFINITY.to_bits());
}

proptest! {
    /// Arbitrary (including non-finite) timestamp bit patterns round-trip
    /// through a `WireEvent` unchanged — full-range u64, no carve-outs.
    #[test]
    fn wire_event_bits_round_trip_for_any_pattern(
        time_bits in 0u64..u64::MAX,
        host_us_bits in 0u64..u64::MAX,
        round in 0usize..1000,
        client in 0usize..1_000_000,
    ) {
        let event = WireEvent {
            time_bits,
            host_us_bits,
            event: TraceEvent::ClientFailed { round, client },
        };
        let json = serde_json::to_string(&event).expect("serialize");
        let back: WireEvent = serde_json::from_str(&json).expect("deserialize");
        prop_assert_eq!(back.time_bits, time_bits);
        prop_assert_eq!(back.host_us_bits, host_us_bits);
    }

    /// `ShardConfig` and both assignment rules round-trip exactly.
    #[test]
    fn shard_config_round_trips(
        n_shards in 0usize..16,
        seed in 0u64..u64::MAX,
        mixed in 0usize..2,
        io in 0.0f64..100.0,
    ) {
        let cfg = ShardConfig {
            n_shards,
            assignment: if mixed == 1 {
                ShardAssignment::Mixed { seed }
            } else {
                ShardAssignment::Modulo
            },
            io_timeout_secs: io,
            spawn_timeout_secs: io * 0.5,
            max_frame_mib: n_shards * 64,
            child_args: vec!["shard_child_entry".into(), "--exact".into()],
            heartbeat_period_ms: io * 10.0,
            heartbeat_missed_limit: n_shards as u32,
            handshake_timeout_secs: io * 0.25,
        };
        let json = serde_json::to_string(&cfg).expect("serialize");
        let back: ShardConfig = serde_json::from_str(&json).expect("deserialize");
        prop_assert_eq!(back, cfg);
    }
}

/// `#[serde(default)]`-drift guard: an `FlConfig` document written before
/// the `shard` section existed still deserializes, with in-process
/// execution (`n_shards == 0`) as the default.
#[test]
fn fl_config_tolerates_documents_without_the_shard_section() {
    let fl = FlConfig::scaled();
    let serde::Value::Object(pairs) = serde_json::to_value(&fl).expect("to_value") else {
        panic!("FlConfig must serialize to an object");
    };
    let stripped: Vec<(String, serde::Value)> =
        pairs.into_iter().filter(|(k, _)| k != "shard").collect();
    let back = FlConfig::from_value(&serde::Value::Object(stripped))
        .expect("the shard section must be optional");
    assert_eq!(back.shard, ShardConfig::default());
    assert_eq!(back.shard.n_shards, 0, "default stays in-process");
    assert_eq!(back.n_clients, fl.n_clients);
    assert_eq!(back.seed, fl.seed);
}

/// An `FlConfig` document the commit before the resend protocol was retired
/// wrote (the fixture is that build's own `serde_json::to_string` output,
/// with every later-removed `shard` key set to a non-default value) still
/// loads: the retired keys are ignored, every surviving key keeps its value.
#[test]
fn fl_config_written_before_the_link_rewrite_still_loads() {
    let old = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/fl_config_pr14.json"
    ));
    let fl: FlConfig = serde_json::from_str(old).expect("old configs must keep loading");
    assert_eq!(
        fl.shard,
        ShardConfig {
            n_shards: 2,
            assignment: ShardAssignment::Mixed { seed: 9 },
            io_timeout_secs: 12.5,
            spawn_timeout_secs: 0.0,
            max_frame_mib: 64,
            child_args: vec!["shard_child_entry".into(), "--exact".into()],
            heartbeat_period_ms: 50.0,
            heartbeat_missed_limit: 3,
            handshake_timeout_secs: 1.5,
        }
    );
    assert_eq!((fl.n_clients, fl.seed), (12, 47));
    assert_eq!(fl.faults, FaultConfig::chaos(47));
    // The fixture's trace section also names the retired ring size.
    assert_eq!(fl.trace, fedca_core::TraceConfig::disabled());
}
