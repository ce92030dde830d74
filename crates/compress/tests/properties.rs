//! Property suite for the compression stack: quantizer error bounds,
//! error-feedback conservation, exact wire-length accounting, codec
//! round-trips over every payload kind, and decoder robustness (truncated
//! or corrupted frames must yield typed errors, never panics or bogus
//! successes that change length).

use bytes::Bytes;
use fedca_compress::wire::{
    self, dense_message_wire_len, dense_payload_wire_len, message_wire_len, Payload, UpdateMessage,
    WireError,
};
use fedca_compress::{
    dequantize, f16_to_f32, f32_to_f16, quantize_det, top_k, Compression, ErrorFeedback,
};
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

    /// f16 round-trip error is bounded by half an ulp (2⁻¹¹ relative) for
    /// values in range, and the conversion is idempotent after one trip.
    #[test]
    fn f16_round_trip_is_half_ulp_and_idempotent(
        n in 1usize..200,
        seed in 0u64..1000,
        scale in 1e-3f32..100.0,
    ) {
        for &x in &values(n, seed, scale) {
            let once = f16_to_f32(f32_to_f16(x));
            let tol = x.abs() * 2.0f32.powi(-11) + 2.0f32.powi(-25);
            prop_assert!((once - x).abs() <= tol, "{x} → {once}");
            let twice = f16_to_f32(f32_to_f16(once));
            prop_assert_eq!(once.to_bits(), twice.to_bits(), "not idempotent at {}", x);
        }
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
                (2, Compression::F16.compress(&x, &mut rng)),
                (3, Compression::Quantize { bits: 4 }.compress(&x, &mut rng)),
                (4, Compression::TopK { keep: 0.3 }.compress(&x, &mut rng)),
            ],
        };
        let encoded = wire::encode(&msg);
        prop_assert_eq!(encoded.len(), message_wire_len(&msg), "length accountant drifted");
        let dense_len = dense_message_wire_len(&msg);
        prop_assert_eq!(
            dense_len,
            wire::HEADER_LEN + 5 * (4 + dense_payload_wire_len(n)),
            "dense yardstick drifted"
        );
        // Framing constants dominate tiny layers; from a few dozen elements
        // on, the mixed message must genuinely beat shipping everything dense.
        if n >= 64 {
            prop_assert!(encoded.len() < dense_len, "mixed message should beat dense");
        }
        let back = wire::decode(&encoded).expect("self-encoded message decodes");
        prop_assert_eq!(back, msg);
    }

    /// Every strict prefix of a valid frame fails to decode with a typed
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
            2 => Compression::F16.compress(&x, &mut rng),
            _ => Compression::TopK { keep: 0.5 }.compress(&x, &mut rng),
        };
        let msg = UpdateMessage { round: 1, client: 2, layers: vec![(0, payload)] };
        let good = wire::encode(&msg);
        for cut in 0..good.len() {
            let r = wire::decode(&good.slice(0..cut));
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
        let mut bytes = good.to_vec();
        let pos = pos_pick % bytes.len();
        bytes[pos] ^= flip as u8;
        match wire::decode(&Bytes::from(bytes)) {
            Ok(m) => {
                // A surviving decode must still be internally consistent.
                for (_, p) in &m.layers {
                    let _ = p.to_dense();
                }
            }
            Err(WireError::Truncated) | Err(WireError::Malformed(_)) => {}
        }
    }
}

/// The analytic `Compression::wire_bytes` planner tracks the real encoder
/// to within the per-layer framing constant for every scheme.
#[test]
fn wire_bytes_estimator_tracks_the_real_encoder() {
    let n = 4096;
    let x = values(n, 7, 3.0);
    let mut rng = StdRng::seed_from_u64(7);
    for c in [
        Compression::None,
        Compression::Int8,
        Compression::F16,
        Compression::Quantize { bits: 4 },
        Compression::TopK { keep: 0.25 },
    ] {
        let payload = c.compress(&x, &mut rng);
        let exact = payload.wire_len() as f64;
        let planned = c.wire_bytes(n);
        assert!(
            (exact - planned).abs() <= 16.0,
            "{c:?}: exact {exact} vs planned {planned}"
        );
    }
}

/// Stochastic QSGD consumes the rng; the deterministic schemes must not —
/// that independence is what keeps Int8/F16 trajectories bit-identical
/// regardless of what else drew from the stream.
#[test]
fn deterministic_schemes_do_not_touch_the_rng() {
    let x = values(64, 11, 1.0);
    for c in [Compression::None, Compression::Int8, Compression::F16] {
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

/// Int8 and F16 payloads decode to exactly what their quantizer promises
/// (dequantize / widen), so the client's `to_dense` snapshot equals what
/// the server-side decoder reconstructs.
#[test]
fn payload_to_dense_matches_scheme_reconstruction() {
    let x = values(200, 13, 5.0);
    let mut rng = StdRng::seed_from_u64(13);
    let int8 = Compression::Int8.compress(&x, &mut rng);
    assert_eq!(int8.to_dense(), dequantize(&quantize_det(&x, 8)));
    let f16 = Compression::F16.compress(&x, &mut rng);
    let widened: Vec<f32> = x.iter().map(|&v| f16_to_f32(f32_to_f16(v))).collect();
    assert_eq!(f16.to_dense(), widened);
    let sparse = Compression::TopK { keep: 0.2 }.compress(&x, &mut rng);
    assert_eq!(sparse.to_dense(), fedca_compress::densify(&top_k(&x, 0.2)));
    match Compression::None.compress(&x, &mut rng) {
        Payload::Dense(v) => assert_eq!(v, x),
        other => panic!("None must stay dense, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Frame layer: the length-framed envelope the shard protocol rides on.
// Truncation, corruption, reordered/duplicate delivery, and oversize
// length prefixes must all surface as typed errors — never a panic, never
// an unbounded allocation, never a silent mis-framing.
// ---------------------------------------------------------------------------

use fedca_compress::wire::{
    decode_frame, encode_frame, read_frame, write_frame, Frame, FrameError, FrameKind,
    FRAME_HEADER_LEN, FRAME_MAGIC,
};
use std::io::Cursor;

fn arb_frame(seq: u64, meta: Vec<u8>, payload: Vec<u8>, control: bool) -> Frame {
    if control {
        Frame {
            kind: FrameKind::Control,
            seq,
            meta: Bytes::from(meta),
            payload: Bytes::default(),
        }
    } else {
        Frame {
            kind: FrameKind::Update,
            seq,
            meta: Bytes::from(meta),
            payload: Bytes::from(payload),
        }
    }
}

proptest! {
    /// encode → decode is exact, consumes exactly the encoded length, and
    /// the stream reader agrees byte for byte with the buffer decoder.
    #[test]
    fn frame_round_trip_is_exact(
        seq in 0u64..u64::MAX,
        meta in prop::collection::vec(0u8..255, 0..64),
        payload in prop::collection::vec(0u8..255, 0..128),
        control_pick in 0usize..2,
    ) {
        let frame = arb_frame(seq, meta, payload, control_pick == 1);
        let bytes = encode_frame(&frame);
        prop_assert_eq!(
            bytes.len(),
            FRAME_HEADER_LEN + frame.meta.len() + frame.payload.len()
        );
        let (back, consumed) = decode_frame(bytes.as_ref(), 1 << 20).expect("own frame decodes");
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(&back, &frame);
        let mut cursor = Cursor::new(bytes.as_ref().to_vec());
        let streamed = read_frame(&mut cursor, 1 << 20).expect("stream decode");
        prop_assert_eq!(streamed.as_ref(), Some(&frame));
        // The stream is now exactly drained: the next read is a clean EOF.
        prop_assert_eq!(read_frame(&mut cursor, 1 << 20).expect("clean EOF"), None);
    }

    /// Every strict prefix of a frame is `Truncated` — except the empty
    /// prefix on the stream reader, which is a clean EOF (`Ok(None)`).
    #[test]
    fn truncated_frames_are_typed_never_hangs_or_panics(
        meta in prop::collection::vec(0u8..255, 0..32),
        payload in prop::collection::vec(0u8..255, 1..64),
    ) {
        let frame = arb_frame(42, meta, payload, false);
        let bytes = encode_frame(&frame);
        for cut in 0..bytes.len() {
            let buf = &bytes.as_ref()[..cut];
            prop_assert!(
                matches!(decode_frame(buf, 1 << 20), Err(FrameError::Truncated)),
                "prefix {cut}/{} must be Truncated", bytes.len()
            );
            let mut cursor = Cursor::new(buf.to_vec());
            let streamed = read_frame(&mut cursor, 1 << 20);
            if cut == 0 {
                prop_assert!(matches!(streamed, Ok(None)), "empty stream is clean EOF");
            } else {
                prop_assert!(
                    matches!(streamed, Err(FrameError::Truncated)),
                    "mid-frame EOF at {cut} must be Truncated"
                );
            }
        }
    }

    /// Single-byte corruption anywhere in a frame is ALWAYS detected: the
    /// checksum covers kind + seq + body, the magic and length fields have
    /// their own typed rejections, and nothing panics. No flip may ever
    /// decode silently.
    #[test]
    fn corrupted_frame_bytes_never_panic(
        seq in 0u64..u64::MAX,
        meta in prop::collection::vec(0u8..255, 0..32),
        payload in prop::collection::vec(0u8..255, 0..64),
        pos_pick in 0usize..10_000,
        flip in 1usize..256,
    ) {
        let frame = arb_frame(seq, meta, payload, false);
        let good = encode_frame(&frame);
        let mut bytes = good.as_ref().to_vec();
        let pos = pos_pick % bytes.len();
        bytes[pos] ^= flip as u8;
        match decode_frame(&bytes, 1 << 20) {
            Ok(_) => prop_assert!(false, "single-byte flip at {pos} decoded silently"),
            Err(
                FrameError::Truncated
                | FrameError::BadMagic(_)
                | FrameError::UnknownKind(_)
                | FrameError::Oversize { .. }
                | FrameError::Malformed(_)
                | FrameError::ChecksumMismatch { .. },
            ) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {other:?}"),
        }
    }

    /// Corruption confined to the regions the transport fault shim targets
    /// (seq bytes, checksum bytes, body bytes) always surfaces as the typed
    /// `ChecksumMismatch` — framing never desynchronizes, and a stream
    /// reader picks up the NEXT frame cleanly after the mismatch.
    #[test]
    fn shim_region_corruption_is_checksum_mismatch_and_stream_stays_synced(
        seq in 0u64..u64::MAX,
        meta in prop::collection::vec(0u8..255, 0..32),
        payload in prop::collection::vec(0u8..255, 0..64),
        pos_pick in 0usize..10_000,
        flip in 1usize..256,
    ) {
        let frame = arb_frame(seq, meta, payload, false);
        let follower = arb_frame(seq.wrapping_add(1), vec![1, 2], Vec::new(), true);
        let good = encode_frame(&frame);
        let mut bytes = good.as_ref().to_vec();
        // Eligible positions: seq [3, 11), crc [11, 15), body [23, len).
        let mut eligible: Vec<usize> = (3..15).collect();
        eligible.extend(FRAME_HEADER_LEN..bytes.len());
        let pos = eligible[pos_pick % eligible.len()];
        bytes[pos] ^= flip as u8;
        match decode_frame(&bytes, 1 << 20) {
            Err(FrameError::ChecksumMismatch { expected, actual }) => {
                prop_assert!(expected != actual)
            }
            other => prop_assert!(false, "flip at {pos}: expected ChecksumMismatch, got {other:?}"),
        }
        // The corrupt frame's body is fully consumed; the follower decodes.
        bytes.extend_from_slice(encode_frame(&follower).as_ref());
        let mut cursor = Cursor::new(bytes);
        let first_read_mismatched = matches!(
            read_frame(&mut cursor, 1 << 20),
            Err(FrameError::ChecksumMismatch { .. })
        );
        prop_assert!(first_read_mismatched);
        let next = read_frame(&mut cursor, 1 << 20).expect("synced").expect("follower");
        prop_assert_eq!(&next, &follower);
    }

    /// An adversarial length prefix is rejected against the caller's cap
    /// BEFORE any body bytes are read or allocated: a header claiming
    /// gigabytes on a 15-byte stream still comes back `Oversize`, and the
    /// reader never blocks waiting for the phantom body.
    #[test]
    fn oversize_length_prefixes_are_rejected_before_allocation(
        meta_len in 0u32..u32::MAX,
        payload_len in 0u32..u32::MAX,
        cap in 1usize..4096,
    ) {
        let total = meta_len as u64 + payload_len as u64;
        prop_assume!(total > cap as u64);
        let mut header = Vec::with_capacity(FRAME_HEADER_LEN);
        header.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
        header.push(1); // Update
        header.extend_from_slice(&0u64.to_le_bytes()); // seq
        header.extend_from_slice(&0u32.to_le_bytes()); // crc (never reached)
        header.extend_from_slice(&meta_len.to_le_bytes());
        header.extend_from_slice(&payload_len.to_le_bytes());
        header.extend_from_slice(&[0xAB; 4]); // a few phantom body bytes
        let expect = FrameError::Oversize { len: total, max: cap as u64 };
        match decode_frame(&header, cap) {
            Err(e) => prop_assert_eq!(e, expect),
            Ok(_) => prop_assert!(false, "oversize header decoded"),
        }
        let mut cursor = Cursor::new(header);
        match read_frame(&mut cursor, cap) {
            Err(e) => prop_assert_eq!(
                e,
                FrameError::Oversize { len: total, max: cap as u64 }
            ),
            Ok(f) => prop_assert!(false, "oversize header streamed: {f:?}"),
        }
        // Nothing past the header was consumed: validation precedes reads.
        prop_assert_eq!(cursor.position() as usize, FRAME_HEADER_LEN);
    }

    /// Reordered and duplicated frames on a stream are delivered exactly
    /// in wire order — framing never resynchronizes mid-frame or merges
    /// adjacent frames.
    #[test]
    fn reordered_and_duplicate_frames_keep_their_boundaries(
        meta_a in prop::collection::vec(0u8..255, 1..32),
        meta_b in prop::collection::vec(0u8..255, 1..32),
        payload in prop::collection::vec(0u8..255, 0..48),
    ) {
        let a = arb_frame(5, meta_a, payload, false);
        let b = arb_frame(6, meta_b, Vec::new(), true);
        // Deliver B, then A twice: out of order and duplicated.
        let mut stream = Vec::new();
        write_frame(&mut stream, &b).expect("write");
        write_frame(&mut stream, &a).expect("write");
        write_frame(&mut stream, &a).expect("write");
        let mut cursor = Cursor::new(stream);
        let got_b = read_frame(&mut cursor, 1 << 20).expect("B").expect("B present");
        let got_a1 = read_frame(&mut cursor, 1 << 20).expect("A#1").expect("A#1 present");
        let got_a2 = read_frame(&mut cursor, 1 << 20).expect("A#2").expect("A#2 present");
        prop_assert_eq!(&got_b, &b);
        prop_assert_eq!(&got_a1, &a);
        prop_assert_eq!(&got_a2, &got_a1);
        prop_assert_eq!(read_frame(&mut cursor, 1 << 20).expect("EOF"), None);
    }
}

/// Payloadless kinds (Control, Ping, Pong) carrying a payload are
/// structurally invalid on the wire: a forged header must decode to
/// `Malformed`, not a usable frame.
#[test]
fn control_frames_with_payloads_are_malformed() {
    for kind in [0u8, 3, 4] {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
        bytes.push(kind);
        bytes.extend_from_slice(&0u64.to_le_bytes()); // seq
        bytes.extend_from_slice(&0u32.to_le_bytes()); // crc (never reached)
        bytes.extend_from_slice(&0u32.to_le_bytes()); // meta_len
        bytes.extend_from_slice(&3u32.to_le_bytes()); // payload_len != 0
        bytes.extend_from_slice(&[1, 2, 3]);
        assert!(
            matches!(decode_frame(&bytes, 1 << 20), Err(FrameError::Malformed(_))),
            "kind={kind}"
        );
    }
}

/// Unknown kind bytes and bad magic are each their own typed error, with
/// the offending value echoed back for diagnostics. Known-but-wrong kinds
/// are caught too (structurally or by checksum), never silently accepted.
#[test]
fn bad_magic_and_unknown_kind_are_typed() {
    let frame = arb_frame(17, vec![9, 9], vec![7], false);
    let good = encode_frame(&frame);
    let mut bad_magic = good.as_ref().to_vec();
    bad_magic[0] ^= 0xFF;
    let claimed = u16::from_le_bytes([bad_magic[0], bad_magic[1]]);
    assert_eq!(
        decode_frame(&bad_magic, 1 << 20).unwrap_err(),
        FrameError::BadMagic(claimed)
    );
    // 2 was the retired acknowledgement kind: unknown like any other.
    for kind in (5u8..=255).chain([2]) {
        let mut bad_kind = good.as_ref().to_vec();
        bad_kind[2] = kind;
        assert_eq!(
            decode_frame(&bad_kind, 1 << 20).unwrap_err(),
            FrameError::UnknownKind(kind)
        );
    }
    // Known payloadless kinds with the Update frame's payload: structural.
    for kind in [0u8, 3, 4] {
        let mut bad_kind = good.as_ref().to_vec();
        bad_kind[2] = kind;
        assert_eq!(
            decode_frame(&bad_kind, 1 << 20).unwrap_err(),
            FrameError::Malformed("control frame with payload"),
            "kind={kind}"
        );
    }
}
