//! Property suite for the compression stack: quantizer error bounds,
//! error-feedback conservation, exact wire-length accounting, codec
//! round-trips over every payload kind, and decoder robustness (truncated
//! or corrupted messages must yield typed errors, never panics or bogus
//! successes that change length).

use fedca_compress::wire::{
    self, dense_message_wire_len, dense_payload_wire_len, message_wire_len, Payload, UpdateMessage,
    WireError,
};
use fedca_compress::{dequantize, quantize_det, top_k, Compression, ErrorFeedback};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn values(n: usize, seed: u64, scale: f32) -> Vec<f32> {
    // Deterministic, sign-alternating, multi-magnitude input.
    (0..n)
        .map(|i| (i as f32 * 0.7311 + seed as f32).sin() * scale * (1.0 + (i % 7) as f32))
        .collect()
}

proptest! {
    /// Deterministic int8 round-trip error is bounded by half a step:
    /// `|x − deq(q(x))| ≤ scale / num_levels / 2`.
    #[test]
    fn det_quantizer_error_is_at_most_half_a_step(
        n in 1usize..300,
        seed in 0u64..1000,
        scale in 0.01f32..100.0,
        bits in 2u8..9,
    ) {
        let x = values(n, seed, scale);
        let q = quantize_det(&x, bits);
        let d = dequantize(&q);
        let half_step = q.scale / q.num_levels as f32 / 2.0;
        for (i, (&a, &b)) in x.iter().zip(&d).enumerate() {
            // One ulp of slack for the divide/multiply round trip.
            let tol = half_step * (1.0 + 1e-5) + 1e-7;
            prop_assert!((a - b).abs() <= tol, "[{i}]: |{a} - {b}| > {half_step}");
        }
    }

    /// The deterministic quantizer is a pure function: same input, same
    /// levels — no hidden rng state.
    #[test]
    fn det_quantizer_is_reproducible(n in 1usize..200, seed in 0u64..1000) {
        let x = values(n, seed, 3.0);
        prop_assert_eq!(quantize_det(&x, 8), quantize_det(&x, 8));
    }

    /// Error feedback conserves mass: across any number of lossy rounds,
    /// Σ(updates) == Σ(transmitted) + residual, to f32 round-off.
    #[test]
    fn error_feedback_accumulates_then_drains(
        rounds in 1usize..8,
        n in 1usize..64,
        seed in 0u64..1000,
    ) {
        let mut ef = ErrorFeedback::new();
        let mut total_update = vec![0.0f64; n];
        let mut total_sent = vec![0.0f64; n];
        for r in 0..rounds {
            let u0 = values(n, seed + r as u64, 2.0);
            for (t, &v) in total_update.iter_mut().zip(&u0) {
                *t += v as f64;
            }
            let mut u = u0.clone();
            ef.apply(&mut u);
            // Aggressive lossy channel: deterministic 3-bit quantization.
            let sent = dequantize(&quantize_det(&u, 3));
            for (t, &v) in total_sent.iter_mut().zip(&sent) {
                *t += v as f64;
            }
            ef.absorb(&u, &sent);
        }
        let residual = ef.snapshot();
        for i in 0..n {
            let recovered = total_sent[i] + residual[i] as f64;
            prop_assert!(
                (total_update[i] - recovered).abs() <= 1e-3 * (1.0 + total_update[i].abs()),
                "[{i}]: {} vs {}", total_update[i], recovered
            );
        }
        // Draining through a lossless round clears the residual entirely.
        let mut u = vec![0.0f32; n];
        ef.apply(&mut u);
        ef.absorb(&u, &u.clone());
        prop_assert_eq!(ef.residual_norm(), 0.0);
    }

    /// decode(encode(m)) == m for messages mixing every payload kind, and
    /// the exact-length accountants agree with the real encoder.
    #[test]
    fn wire_round_trip_and_exact_lengths_for_every_payload_kind(
        n in 1usize..120,
        seed in 0u64..1000,
        round in 0u32..10_000,
        client in 0u32..10_000,
    ) {
        let x = values(n, seed, 2.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let msg = UpdateMessage {
            round,
            client,
            layers: vec![
                (0, Compression::None.compress(&x, &mut rng)),
                (1, Compression::Int8.compress(&x, &mut rng)),
                (2, Compression::Quantize { bits: 4 }.compress(&x, &mut rng)),
                (3, Compression::TopK { keep: 0.3 }.compress(&x, &mut rng)),
            ],
        };
        let encoded = wire::encode(&msg);
        prop_assert_eq!(encoded.len(), message_wire_len(&msg), "length accountant drifted");
        let dense_len = dense_message_wire_len(&msg);
        prop_assert_eq!(
            dense_len,
            wire::HEADER_LEN + 4 * (4 + dense_payload_wire_len(n)),
            "dense yardstick drifted"
        );
        // Framing constants dominate tiny layers; from a few dozen elements
        // on, the mixed message must genuinely beat shipping everything dense.
        if n >= 64 {
            prop_assert!(encoded.len() < dense_len, "mixed message should beat dense");
        }
        let back = wire::decode(&encoded).expect("self-encoded message decodes");
        prop_assert_eq!(&back, &msg);
        // The product's one decoder, on whatever tier dispatch picked, is
        // bit-identical to the scalar reference `to_dense`.
        let mut layers = msg.layers.iter();
        wire::for_each_layer(&encoded, |id, view| {
            let (want_id, payload) = layers.next().expect("as many layers as encoded");
            assert_eq!(id, *want_id);
            let mut got = vec![0.0f32; view.len()];
            view.decode_into(&mut got);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&payload.to_dense()), "layer {id}");
            Ok(())
        })
        .expect("self-encoded message walks");
    }

    /// Every strict prefix of a valid message fails to decode with a typed
    /// error — never a panic, never a silent success.
    #[test]
    fn truncated_frames_yield_typed_errors(
        n in 1usize..40,
        seed in 0u64..500,
        kind in 0usize..4,
    ) {
        let x = values(n, seed, 2.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let payload = match kind {
            0 => Compression::None.compress(&x, &mut rng),
            1 => Compression::Int8.compress(&x, &mut rng),
            2 => Compression::Quantize { bits: 4 }.compress(&x, &mut rng),
            _ => Compression::TopK { keep: 0.5 }.compress(&x, &mut rng),
        };
        let msg = UpdateMessage { round: 1, client: 2, layers: vec![(0, payload)] };
        let good = wire::encode(&msg);
        for cut in 0..good.len() {
            let r = wire::decode(&good[..cut]);
            prop_assert!(
                matches!(r, Err(WireError::Truncated) | Err(WireError::Malformed(_))),
                "prefix of {cut}/{} bytes decoded to {:?}", good.len(), r
            );
        }
    }

    /// Single-byte corruption either still decodes to a same-shape message
    /// or fails with a typed error — it must never panic.
    #[test]
    fn corrupted_frames_never_panic(
        n in 1usize..40,
        seed in 0u64..500,
        pos_pick in 0usize..10_000,
        flip in 1u32..256,
    ) {
        let x = values(n, seed, 2.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let msg = UpdateMessage {
            round: 3,
            client: 4,
            layers: vec![(0, Compression::Int8.compress(&x, &mut rng))],
        };
        let good = wire::encode(&msg);
        let mut bytes = good;
        let pos = pos_pick % bytes.len();
        bytes[pos] ^= flip as u8;
        match wire::decode(&bytes) {
            Ok(m) => {
                // A surviving decode must still be internally consistent.
                for (_, p) in &m.layers {
                    let _ = p.to_dense();
                }
            }
            Err(WireError::Truncated) | Err(WireError::Malformed(_)) => {}
        }
    }

    /// The server's finiteness rule, `PayloadView::decodes_finite`, never
    /// passes a layer that decodes to a non-finite value, and is exact for
    /// dense layers. It may refuse a quantized run whose actual levels stay
    /// finite (the run is judged on its header) or a sparse layer whose
    /// non-finite value a forged duplicate index overwrites.
    #[test]
    fn decodes_finite_never_passes_a_non_finite_decode(
        n in 1usize..40,
        seed in 0u64..500,
        kind in 0usize..4,
        special in (0usize..40, 0usize..4),
        pos_pick in 0usize..10_000,
        flip in 0u32..256,
    ) {
        let mut x = values(n, seed, 2.0);
        if let Some(&s) = [f32::INFINITY, f32::NEG_INFINITY, f32::MAX].get(special.1) {
            x[special.0 % n] = s;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let payload = match kind {
            0 => Compression::None.compress(&x, &mut rng),
            1 => Compression::Int8.compress(&x, &mut rng),
            2 => Compression::Quantize { bits: 1 }.compress(&x, &mut rng),
            _ => Compression::TopK { keep: 0.5 }.compress(&x, &mut rng),
        };
        let mut bytes = wire::encode(&UpdateMessage { round: 0, client: 0, layers: vec![(0, payload)] });
        let pos = pos_pick % bytes.len();
        bytes[pos] ^= flip as u8;
        let _ = wire::for_each_layer(&bytes, |_, view| {
            // A forged sparse length is not backed by bytes: skip, don't allocate it.
            if view.len() <= 64 {
                let mut out = vec![0.0f32; view.len()];
                view.decode_into(&mut out);
                let finite = out.iter().all(|v| v.is_finite());
                match view {
                    wire::PayloadView::Dense { .. } => {
                        assert_eq!(view.decodes_finite(), finite, "{view:?}")
                    }
                    _ => assert!(!view.decodes_finite() || finite, "{view:?}"),
                }
            }
            Ok(())
        });
    }
}

/// Stochastic QSGD consumes the rng; the deterministic schemes must not —
/// that independence is what keeps Int8 trajectories bit-identical
/// regardless of what else drew from the stream.
#[test]
fn deterministic_schemes_do_not_touch_the_rng() {
    let x = values(64, 11, 1.0);
    for c in [Compression::None, Compression::Int8] {
        let mut a = StdRng::seed_from_u64(99);
        let _ = c.compress(&x, &mut a);
        let mut b = StdRng::seed_from_u64(99);
        assert_eq!(
            rand::Rng::gen::<u64>(&mut a),
            rand::Rng::gen::<u64>(&mut b),
            "{c:?} consumed rng state"
        );
    }
    let mut a = StdRng::seed_from_u64(99);
    let _ = Compression::Quantize { bits: 4 }.compress(&x, &mut a);
    let mut b = StdRng::seed_from_u64(99);
    assert_ne!(
        rand::Rng::gen::<u64>(&mut a),
        rand::Rng::gen::<u64>(&mut b),
        "stochastic quantization should consume rng state"
    );
}

/// Int8 and top-k payloads decode to exactly what their compressor
/// promises (dequantize / densify), and `None` stays dense.
#[test]
fn payload_to_dense_matches_scheme_reconstruction() {
    let x = values(200, 13, 5.0);
    let mut rng = StdRng::seed_from_u64(13);
    let int8 = Compression::Int8.compress(&x, &mut rng);
    assert_eq!(int8.to_dense(), dequantize(&quantize_det(&x, 8)));
    let sparse = Compression::TopK { keep: 0.2 }.compress(&x, &mut rng);
    assert_eq!(sparse.to_dense(), fedca_compress::densify(&top_k(&x, 0.2)));
    match Compression::None.compress(&x, &mut rng) {
        Payload::Dense(v) => assert_eq!(v, x),
        other => panic!("None must stay dense, got {other:?}"),
    }
}
