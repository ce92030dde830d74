//! Property suite for the shard link's frame codec: the length-framed
//! envelope every coordinator↔shard message rides in. Truncation,
//! corruption, reordered/duplicate delivery, and oversize length prefixes
//! must all surface as typed errors — never a panic, never an unbounded
//! allocation, never a silent mis-framing. `read_frame` is the codec's one
//! decoder, so every case reads through it, over a `Cursor` standing in for
//! the socket.

use fedca_core::transport::{
    encode_frame, read_frame, Frame, FrameError, FrameKind, FRAME_HEADER_LEN, FRAME_MAGIC,
};
use proptest::prelude::*;
use std::io::Cursor;

/// Reads the first frame of `bytes`.
fn read_one(bytes: &[u8], cap: usize) -> Result<Option<Frame>, FrameError> {
    read_frame(&mut Cursor::new(bytes), cap)
}

fn arb_frame(seq: u64, meta: Vec<u8>, payload: Vec<u8>, control: bool) -> Frame {
    if control {
        Frame {
            kind: FrameKind::Control,
            seq,
            meta,
            payload: Vec::new(),
        }
    } else {
        Frame {
            kind: FrameKind::Update,
            seq,
            meta,
            payload,
        }
    }
}

proptest! {
    /// encode → read is exact, consumes exactly the encoded length, and the
    /// stream is then drained: the next read is a clean EOF.
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
        let mut cursor = Cursor::new(&bytes[..]);
        let streamed = read_frame(&mut cursor, 1 << 20).expect("own frame reads");
        prop_assert_eq!(streamed.as_ref(), Some(&frame));
        prop_assert_eq!(cursor.position() as usize, bytes.len());
        prop_assert_eq!(read_frame(&mut cursor, 1 << 20).expect("clean EOF"), None);
    }

    /// Every strict prefix of a frame is `Truncated` — except the empty
    /// prefix, which is a clean EOF (`Ok(None)`).
    #[test]
    fn truncated_frames_are_typed_never_hangs_or_panics(
        meta in prop::collection::vec(0u8..255, 0..32),
        payload in prop::collection::vec(0u8..255, 1..64),
    ) {
        let frame = arb_frame(42, meta, payload, false);
        let bytes = encode_frame(&frame);
        for cut in 0..bytes.len() {
            let streamed = read_one(&bytes[..cut], 1 << 20);
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
        let mut bytes = good.clone();
        let pos = pos_pick % bytes.len();
        bytes[pos] ^= flip as u8;
        match read_one(&bytes, 1 << 20) {
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
        let mut bytes = good.clone();
        // Eligible positions: seq [3, 11), crc [11, 15), body [23, len).
        let mut eligible: Vec<usize> = (3..15).collect();
        eligible.extend(FRAME_HEADER_LEN..bytes.len());
        let pos = eligible[pos_pick % eligible.len()];
        bytes[pos] ^= flip as u8;
        // The corrupt frame's body is fully consumed; the follower decodes.
        bytes.extend_from_slice(&encode_frame(&follower));
        let mut cursor = Cursor::new(bytes);
        match read_frame(&mut cursor, 1 << 20) {
            Err(FrameError::ChecksumMismatch { expected, actual }) => {
                prop_assert!(expected != actual)
            }
            other => prop_assert!(false, "flip at {pos}: expected ChecksumMismatch, got {other:?}"),
        }
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
        for f in [&b, &a, &a] {
            stream.extend_from_slice(&encode_frame(f));
        }
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

/// The payloadless kind (Control, byte 0) carrying a payload is
/// structurally invalid on the wire: a forged header must decode to
/// `Malformed`, not a usable frame.
#[test]
fn control_frames_with_payloads_are_malformed() {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    bytes.push(0); // Control
    bytes.extend_from_slice(&0u64.to_le_bytes()); // seq
    bytes.extend_from_slice(&0u32.to_le_bytes()); // crc (never reached)
    bytes.extend_from_slice(&0u32.to_le_bytes()); // meta_len
    bytes.extend_from_slice(&3u32.to_le_bytes()); // payload_len != 0
    bytes.extend_from_slice(&[1, 2, 3]);
    assert!(matches!(
        read_one(&bytes, 1 << 20),
        Err(FrameError::Malformed(_))
    ));
}

/// Unknown kind bytes and bad magic are each their own typed error, with
/// the offending value echoed back for diagnostics. Known-but-wrong kinds
/// are caught too (structurally or by checksum), never silently accepted.
#[test]
fn bad_magic_and_unknown_kind_are_typed() {
    let frame = arb_frame(17, vec![9, 9], vec![7], false);
    let good = encode_frame(&frame);
    let mut bad_magic = good.clone();
    bad_magic[0] ^= 0xFF;
    let claimed = u16::from_le_bytes([bad_magic[0], bad_magic[1]]);
    assert_eq!(
        read_one(&bad_magic, 1 << 20).unwrap_err(),
        FrameError::BadMagic(claimed)
    );
    // 2 was the retired acknowledgement kind, 3 and 4 the retired
    // heartbeat's ping and pong: unknown like any other.
    for kind in 2u8..=255 {
        let mut bad_kind = good.clone();
        bad_kind[2] = kind;
        assert_eq!(
            read_one(&bad_kind, 1 << 20).unwrap_err(),
            FrameError::UnknownKind(kind)
        );
    }
    // The payloadless kind with the Update frame's payload: structural.
    let mut bad_kind = good.clone();
    bad_kind[2] = 0;
    assert_eq!(
        read_one(&bad_kind, 1 << 20).unwrap_err(),
        FrameError::Malformed("control frame with payload")
    );
}
