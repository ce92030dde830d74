//! Property tests: serde round-trips for the types that cross a JSON
//! boundary (`TraceEvent`, `ClientSnapshot`, `FlConfig`) and the shard
//! protocol's messages — arbitrary values survive JSON serialization
//! exactly, and `#[serde(default)]` fields deserialize from documents that
//! predate them (the drift a new field would introduce).

use fedca_core::checkpoint::ClientSnapshot;
use fedca_core::profiler::ProfiledCurves;
use fedca_core::trace::TraceEvent;
use fedca_sim::device::DeviceSpeedSnapshot;
use proptest::prelude::*;
use serde::Deserialize;

proptest! {
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

proptest! {
    /// A `ClientSnapshot` — the dirty overlay a shard child receives inside
    /// `WorkItem` and returns inside `DoneMsg` — round-trips through JSON
    /// bit-exactly, including full-range `u64` RNG words, profiled curves and
    /// an error-feedback residual of negative and small floats.
    #[test]
    fn client_snapshot_round_trips_bit_exactly(
        (id, rng, indices, busy, (has_curves, curve), feedback) in (
            0usize..1_000_000,
            prop::collection::vec(0u64..u64::MAX, 4),
            prop::collection::vec(0usize..64, 1..8),
            0.0f64..1e5,
            (0u8..2, prop::collection::vec(0.0f32..1.0, 1..6)),
            prop::collection::vec(-1.0f32..1.0, 0..5),
        )
    ) {
        let snap = ClientSnapshot {
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
        };
        let json = serde_json::to_string(&snap).expect("serialize");
        let back: ClientSnapshot = serde_json::from_str(&json).expect("deserialize");
        prop_assert_eq!(back, snap);
    }
}

/// `#[serde(default)]`-drift guard: a `ClientSnapshot` document without
/// `curves`/`error_feedback` (written before either existed) still loads,
/// with both at their defaults and every other field — extreme RNG words
/// included — intact.
#[test]
fn client_snapshot_tolerates_missing_defaulted_fields() {
    let mut snap = sample_snapshot(7);
    snap.device.rng = vec![u64::MAX, 0, 1 << 63, 0x9E37_79B9_7F4A_7C15];
    let serde::Value::Object(pairs) = serde_json::to_value(&snap).expect("to_value") else {
        panic!("ClientSnapshot must serialize to an object");
    };
    let stripped: Vec<(String, serde::Value)> = pairs
        .into_iter()
        .filter(|(k, _)| k != "curves" && k != "error_feedback")
        .collect();
    let back = ClientSnapshot::from_value(&serde::Value::Object(stripped))
        .expect("defaulted fields must be optional");
    assert_eq!(
        back,
        ClientSnapshot {
            curves: None,
            error_feedback: Vec::new(),
            ..snap
        }
    );
}

// ---------------------------------------------------------------------------
// Shard protocol envelopes: everything the coordinator and its shard
// children exchange must survive the JSON meta channel exactly — including
// NaN/±inf floats, which travel as IEEE-754 bit patterns (`*_bits` fields)
// because the vendored JSON encoder maps non-finite floats to `null`.
// ---------------------------------------------------------------------------

use fedca_core::client::RoundPlan;
use fedca_core::config::{FaultConfig, FlConfig, ShardConfig};
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

    /// `ShardConfig`'s three fields round-trip exactly.
    #[test]
    fn shard_config_round_trips(
        n_shards in 0usize..16,
        io in 0.0f64..100.0,
        n_args in 0usize..4,
    ) {
        let cfg = ShardConfig {
            n_shards,
            io_timeout_secs: io,
            child_args: ["shard_child_entry", "--exact", "--nocapture"][..n_args]
                .iter()
                .map(|a| a.to_string())
                .collect(),
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
/// loads: the retired keys — the resend protocol's, and since then the
/// placement rule, the heartbeat, the frame cap, the separate spawn and
/// handshake timeouts and the whole `checkpoint` section — are ignored,
/// every surviving key keeps its value.
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
            io_timeout_secs: 12.5,
            child_args: vec!["shard_child_entry".into(), "--exact".into()],
        }
    );
    assert_eq!((fl.n_clients, fl.seed), (12, 47));
    assert_eq!(fl.faults, FaultConfig::chaos(47));
    // The fixture's trace section also names the retired ring size.
    assert_eq!(fl.trace, fedca_core::TraceConfig::disabled());
    // ... and it carries the retired on-disk `checkpoint` section, which is
    // ignored whatever it holds: nothing of it survives a reload.
    let reloaded = serde_json::to_string(&fl).expect("serialize");
    assert!(!reloaded.contains("checkpoint"), "{reloaded}");
    let retired = r#""checkpoint":{"dir":"","every":0,"keep":0}"#;
    assert!(old.contains(retired), "the fixture names the section");
    let busy = old.replace(retired, r#""checkpoint":{"dir":"ckpt","every":3,"keep":9}"#);
    let busy: FlConfig = serde_json::from_str(&busy).expect("the section is ignored");
    assert_eq!(serde_json::to_string(&busy).expect("serialize"), reloaded);
}
