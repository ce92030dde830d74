//! The shard link: framing over one Unix socket, and one failure signal.
//!
//! The frame codec below is the envelope every coordinator↔shard message
//! travels in, and this module is its only speaker. Both endpoints of a
//! socket wrap their half in a [`Link`]. `send` stamps each application
//! frame with the next sequence number and a checksum and writes it; a
//! reader thread decodes inbound frames and hands them to the owner's sink
//! in wire order. A `SOCK_STREAM` Unix socket neither drops, duplicates nor
//! reorders, so the link repairs nothing — it only *detects*. EOF, an I/O
//! error, any [`FrameError`] (bad magic, unknown kind, oversize length
//! prefix, checksum mismatch, truncation) or a sequence number other than
//! the next one each end the link with exactly one [`LinkEvent::Down`]
//! naming the check that fired, and no frame is delivered after it. A peer
//! that goes silent is not the link's business: the owner bounds how long
//! it waits for progress, and the root side bounds every write (see
//! [`Link::new`]). What to do about a fault is the owner's business too
//! (see [`crate::shard`]: kill the child, run its outstanding work locally).
//!
//! Threads: one reader per link.

use serde::Serialize;
use std::io::{BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Frame layer: length-delimited envelopes over a byte stream.
//
// An update message (`fedca_compress::wire`) describes one message in a
// buffer whose bounds are already known. Over a socket something must
// delimit messages and say what they are. A frame is that envelope:
//
//   magic u16 LE | kind u8 | seq u64 LE | crc u32 LE
//     | meta_len u32 LE | payload_len u32 LE | meta | payload
//
// `meta` is a small structured header (the shard protocol puts JSON there);
// `payload` is bulk binary data — an encoded update or raw f32 LE
// parameters. `seq` is a per-connection, per-direction sequence number: the
// link requires application frames to arrive with consecutive values and
// treats any gap as a dead connection. `crc` is a CRC-32 (IEEE) over kind +
// seq + meta + payload, so a bit-corrupted frame surfaces as a typed
// `ChecksumMismatch` instead of a silent bad decode. `Control` frames carry
// no payload by definition, and the reader enforces it. Lengths are
// validated against a caller-supplied cap (`MAX_FRAME_LEN` on both ends of
// a link) *before* any allocation, so a corrupt or hostile length prefix
// yields a typed `Oversize` error instead of an OOM.
// ---------------------------------------------------------------------------

/// Frame magic ("FS" — frame/shard), distinct from the update magic so a
/// misdirected buffer fails loudly at the first two bytes.
pub const FRAME_MAGIC: u16 = 0x5346;

/// The largest frame (meta + payload) either end of a link accepts: 1 GiB.
pub const MAX_FRAME_LEN: usize = 1 << 30;

/// Fixed frame header size: magic, kind, sequence number, checksum, meta
/// length, payload length.
pub const FRAME_HEADER_LEN: usize = 2 + 1 + 8 + 4 + 4 + 4;

// Byte offsets of the header fields (after the 2-byte magic and kind byte).
const SEQ_OFF: usize = 3;
const CRC_OFF: usize = 11;
const META_LEN_OFF: usize = 15;
const PAYLOAD_LEN_OFF: usize = 19;

/// What a frame carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// Structured metadata only; `payload` must be empty.
    Control,
    /// Metadata plus a bulk binary payload.
    Update,
}

impl FrameKind {
    fn to_u8(self) -> u8 {
        match self {
            FrameKind::Control => 0,
            FrameKind::Update => 1,
        }
    }

    /// Kind byte 2 was the acknowledgement frame of the retired resend
    /// protocol, 3 and 4 the retired heartbeat's ping and pong; they are
    /// unknown now, never reassigned.
    fn from_u8(b: u8) -> Option<FrameKind> {
        match b {
            0 => Some(FrameKind::Control),
            1 => Some(FrameKind::Update),
            _ => None,
        }
    }
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) lookup table, built at compile
/// time so the checksum costs ~1 table lookup per byte with no runtime init.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// CRC-32 (IEEE) over a frame's covered bytes: kind, seq (LE), meta, payload.
fn frame_crc(kind: u8, seq: u64, meta: &[u8], payload: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    crc = crc32_update(crc, &[kind]);
    crc = crc32_update(crc, &seq.to_le_bytes());
    crc = crc32_update(crc, meta);
    crc = crc32_update(crc, payload);
    !crc
}

/// One framed message.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    /// Envelope kind.
    pub kind: FrameKind,
    /// Per-connection, per-direction sequence number.
    pub seq: u64,
    /// Structured header bytes (the shard protocol stores JSON here).
    pub meta: Vec<u8>,
    /// Bulk binary payload; empty for everything except [`FrameKind::Update`].
    pub payload: Vec<u8>,
}

/// Frame codec error.
#[derive(Debug)]
pub enum FrameError {
    /// Buffer or stream ended inside a frame.
    Truncated,
    /// First two bytes were not [`FRAME_MAGIC`].
    BadMagic(u16),
    /// Kind byte is not a known [`FrameKind`].
    UnknownKind(u8),
    /// A length prefix exceeds the caller's cap; nothing was allocated.
    Oversize {
        /// Combined meta + payload length the header claimed.
        len: u64,
        /// The cap the caller passed.
        max: u64,
    },
    /// Structurally invalid (e.g. a control frame with a payload).
    Malformed(&'static str),
    /// The frame body did not match its header checksum: the bytes were
    /// corrupted in transit. The full body was consumed from the stream, so
    /// the reader stays frame-synchronized and can keep reading.
    ChecksumMismatch {
        /// Checksum the header claimed.
        expected: u32,
        /// Checksum computed over the received bytes.
        actual: u32,
    },
    /// Transport error from the underlying reader/writer.
    Io(std::io::Error),
}

impl PartialEq for FrameError {
    fn eq(&self, other: &Self) -> bool {
        use FrameError::*;
        match (self, other) {
            (Truncated, Truncated) => true,
            (BadMagic(a), BadMagic(b)) => a == b,
            (UnknownKind(a), UnknownKind(b)) => a == b,
            (Oversize { len: a, max: ma }, Oversize { len: b, max: mb }) => a == b && ma == mb,
            (Malformed(a), Malformed(b)) => a == b,
            (
                ChecksumMismatch {
                    expected: ea,
                    actual: aa,
                },
                ChecksumMismatch {
                    expected: eb,
                    actual: ab,
                },
            ) => ea == eb && aa == ab,
            (Io(a), Io(b)) => a.kind() == b.kind(),
            _ => false,
        }
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:#06x}"),
            FrameError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::Oversize { len, max } => {
                write!(f, "frame length {len} exceeds cap {max}")
            }
            FrameError::Malformed(what) => write!(f, "malformed frame: {what}"),
            FrameError::ChecksumMismatch { expected, actual } => write!(
                f,
                "frame checksum mismatch: header {expected:#010x}, body {actual:#010x}"
            ),
            FrameError::Io(e) => write!(f, "frame transport error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Encodes a frame to bytes, stamping the body checksum into the header.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    debug_assert!(
        frame.kind == FrameKind::Update || frame.payload.is_empty(),
        "only update frames carry a payload"
    );
    let kind = frame.kind.to_u8();
    let crc = frame_crc(kind, frame.seq, &frame.meta, &frame.payload);
    let mut buf = Vec::with_capacity(FRAME_HEADER_LEN + frame.meta.len() + frame.payload.len());
    buf.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    buf.push(kind);
    buf.extend_from_slice(&frame.seq.to_le_bytes());
    buf.extend_from_slice(&crc.to_le_bytes());
    buf.extend_from_slice(&(frame.meta.len() as u32).to_le_bytes());
    buf.extend_from_slice(&(frame.payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&frame.meta);
    buf.extend_from_slice(&frame.payload);
    buf
}

/// Parsed fixed-size frame header.
struct FrameHeader {
    kind: FrameKind,
    seq: u64,
    crc: u32,
    meta_len: usize,
    payload_len: usize,
}

/// Validates a frame header. Length validation against `max_len` happens
/// here, before any body bytes are read or allocated. The checksum is *not*
/// verified here — it covers the body, which hasn't been read yet.
fn check_header(
    header: &[u8; FRAME_HEADER_LEN],
    max_len: usize,
) -> Result<FrameHeader, FrameError> {
    let magic = u16::from_le_bytes([header[0], header[1]]);
    if magic != FRAME_MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let kind = FrameKind::from_u8(header[2]).ok_or(FrameError::UnknownKind(header[2]))?;
    let seq = u64::from_le_bytes(header[SEQ_OFF..SEQ_OFF + 8].try_into().unwrap());
    let crc = u32::from_le_bytes(header[CRC_OFF..CRC_OFF + 4].try_into().unwrap());
    let meta_len = u32::from_le_bytes(header[META_LEN_OFF..META_LEN_OFF + 4].try_into().unwrap());
    let payload_len = u32::from_le_bytes(
        header[PAYLOAD_LEN_OFF..PAYLOAD_LEN_OFF + 4]
            .try_into()
            .unwrap(),
    );
    let total = meta_len as u64 + payload_len as u64;
    if total > max_len as u64 {
        return Err(FrameError::Oversize {
            len: total,
            max: max_len as u64,
        });
    }
    if kind == FrameKind::Control && payload_len != 0 {
        return Err(FrameError::Malformed("control frame with payload"));
    }
    Ok(FrameHeader {
        kind,
        seq,
        crc,
        meta_len: meta_len as usize,
        payload_len: payload_len as usize,
    })
}

fn verify_crc(h: &FrameHeader, meta: &[u8], payload: &[u8]) -> Result<(), FrameError> {
    let actual = frame_crc(h.kind.to_u8(), h.seq, meta, payload);
    if actual != h.crc {
        return Err(FrameError::ChecksumMismatch {
            expected: h.crc,
            actual,
        });
    }
    Ok(())
}

/// Reads exactly `buf.len()` bytes. Distinguishes EOF before the first byte
/// (`Ok(false)`) from EOF mid-buffer (`Err(Truncated)`).
fn read_exact_or_eof(r: &mut impl std::io::Read, buf: &mut [u8]) -> Result<bool, FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(FrameError::Truncated);
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(true)
}

/// Reads one frame from a byte stream — the codec's only decoder. Returns
/// `Ok(None)` on a clean EOF at a frame boundary; EOF inside a frame is
/// [`FrameError::Truncated`]. The header's lengths are validated against
/// `max_len` before the body is allocated or read. On
/// [`FrameError::ChecksumMismatch`] the frame's full body has already been
/// consumed, so the stream stays synchronized and the caller may keep
/// reading subsequent frames.
pub fn read_frame(r: &mut impl std::io::Read, max_len: usize) -> Result<Option<Frame>, FrameError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    if !read_exact_or_eof(r, &mut header)? {
        return Ok(None);
    }
    let h = check_header(&header, max_len)?;
    let mut meta = vec![0u8; h.meta_len];
    if !read_exact_or_eof(r, &mut meta)? && h.meta_len > 0 {
        return Err(FrameError::Truncated);
    }
    let mut payload = vec![0u8; h.payload_len];
    if !read_exact_or_eof(r, &mut payload)? && h.payload_len > 0 {
        return Err(FrameError::Truncated);
    }
    verify_crc(&h, &meta, &payload)?;
    Ok(Some(Frame {
        kind: h.kind,
        seq: h.seq,
        meta,
        payload,
    }))
}

// ---------------------------------------------------------------------------
// The link: one socket, framed, sequenced and watched.
// ---------------------------------------------------------------------------

/// The [`LinkEvent::Down`] reason for a peer that closed the socket cleanly.
pub const EOF: &str = "eof";

/// What a link delivers to its owner's sink.
#[derive(Debug)]
pub enum LinkEvent {
    /// The next application frame, in wire order.
    Frame(Frame),
    /// The link is finished, and why (`eof`, `frame checksum mismatch…`,
    /// `sequence gap…`, …). Sent once; nothing follows it.
    Down(String),
}

/// The owner's event sink plus the flag that makes `Down` final. The reader
/// delivers and `Drop` silences through this one lock, so no frame can slip
/// out after a `Down` or a drop.
struct Delivery {
    down: bool,
    sink: Box<dyn FnMut(LinkEvent) + Send>,
}

/// Locks `m`, ignoring poisoning: a reader or sender that panicked while
/// holding a lock must not wedge the link for the other side. The state
/// stays usable: `down` is one flag, and a send cut short leaves a broken
/// frame, which the peer reports as `Down` like any other write failure.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

struct LinkCore {
    /// Handle for `shutdown` only, so closing never waits behind a writer.
    stream: UnixStream,
    /// Write half and the next application sequence number.
    writer: Mutex<(UnixStream, u64)>,
    delivery: Mutex<Delivery>,
}

impl LinkCore {
    /// Hands `ev` to the sink unless the link is already down, and reports
    /// whether it did. A `Down` is final: it also closes the socket, which
    /// wakes a `send` still blocked on it.
    fn emit(&self, ev: LinkEvent) -> bool {
        let ends = matches!(ev, LinkEvent::Down(_));
        let mut d = lock(&self.delivery);
        let live = !d.down;
        if live {
            d.down = ends;
            (d.sink)(ev);
        }
        drop(d);
        if ends {
            let _ = self.stream.shutdown(std::net::Shutdown::Both);
        }
        live
    }
}

fn encode(kind: FrameKind, seq: u64, meta: Vec<u8>, payload: Vec<u8>) -> Vec<u8> {
    encode_frame(&Frame {
        kind,
        seq,
        meta,
        payload,
    })
}

/// Encodes one application message — JSON metadata plus an optional binary
/// payload — as the frame numbered `seq`. A [`Link`] numbers its frames
/// from 0; the shard handshake, which runs before either end has a link,
/// sends its one message each way with this directly.
pub fn encode_message<T: Serialize>(
    seq: u64,
    msg: &T,
    payload: Option<Vec<u8>>,
) -> std::io::Result<Vec<u8>> {
    let meta = serde_json::to_string(msg)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let payload = payload.unwrap_or_default();
    let kind = if payload.is_empty() {
        FrameKind::Control
    } else {
        FrameKind::Update
    };
    Ok(encode(kind, seq, meta.into_bytes(), payload))
}

/// One endpoint of a coordinator↔shard connection. See the module docs.
pub struct Link {
    core: Arc<LinkCore>,
    reader: Option<JoinHandle<()>>,
}

impl Link {
    /// Wraps one side of a connected stream. `sink` receives every
    /// [`LinkEvent`] from the link's reader thread and must not call back
    /// into the link. `write_timeout` bounds every write on the socket: the
    /// root passes its io bound, so a `send` to a child that stopped reading
    /// fails once the socket buffer is full instead of blocking forever; a
    /// child passes `None` (a root that stops reading is the child's owner,
    /// and kills it).
    pub fn new(
        stream: UnixStream,
        shard: usize,
        write_timeout: Option<Duration>,
        sink: impl FnMut(LinkEvent) + Send + 'static,
    ) -> std::io::Result<Self> {
        stream.set_write_timeout(write_timeout)?;
        let read_stream = stream.try_clone()?;
        let core = Arc::new(LinkCore {
            writer: Mutex::new((stream.try_clone()?, 0)),
            stream,
            delivery: Mutex::new(Delivery {
                down: false,
                sink: Box::new(sink),
            }),
        });
        let rx_core = core.clone();
        let reader = std::thread::Builder::new()
            .name(format!("fedca-link-rx-{shard}"))
            .spawn(move || reader_loop(&rx_core, read_stream))?;
        Ok(Link {
            core,
            reader: Some(reader),
        })
    }

    /// Sends one application message: JSON metadata plus an optional
    /// binary payload, sequenced and checksummed.
    pub fn send<T: Serialize>(&self, msg: &T, payload: Option<Vec<u8>>) -> std::io::Result<()> {
        let mut w = lock(&self.core.writer);
        let bytes = encode_message(w.1, msg, payload)?;
        w.1 += 1;
        w.0.write_all(&bytes)
    }
}

/// Dropping a link silences its sink, closes the socket and joins its
/// reader.
impl Drop for Link {
    fn drop(&mut self) {
        lock(&self.core.delivery).down = true;
        let _ = self.core.stream.shutdown(std::net::Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

fn reader_loop(core: &LinkCore, read_stream: UnixStream) {
    let mut reader = BufReader::new(read_stream);
    let mut next_seq: u64 = 0;
    let reason = loop {
        let frame = match read_frame(&mut reader, MAX_FRAME_LEN) {
            Ok(Some(frame)) => frame,
            Ok(None) => break EOF.to_string(),
            Err(e) => break e.to_string(),
        };
        if frame.seq != next_seq {
            break format!("sequence gap: expected {next_seq}, got {}", frame.seq);
        }
        next_seq += 1;
        if !core.emit(LinkEvent::Frame(frame)) {
            return;
        }
    };
    core.emit(LinkEvent::Down(reason));
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::mpsc::{channel, Receiver};
    use std::time::Instant;

    fn link(stream: UnixStream, write_timeout: Option<Duration>) -> (Link, Receiver<LinkEvent>) {
        let (tx, rx) = channel();
        let link = Link::new(stream, 0, write_timeout, move |ev| {
            let _ = tx.send(ev);
        })
        .expect("link");
        (link, rx)
    }

    fn frame(seq: u64) -> Vec<u8> {
        encode(
            FrameKind::Update,
            seq,
            seq.to_string().into_bytes(),
            vec![1, 2, 3],
        )
    }

    /// Everything the link delivers until it goes quiet for 300 ms.
    fn drain(rx: &Receiver<LinkEvent>) -> Vec<LinkEvent> {
        let mut got = Vec::new();
        while let Ok(ev) = rx.recv_timeout(Duration::from_millis(300)) {
            got.push(ev);
        }
        got
    }

    /// Reads the first frame of `bytes` as a socket peer would deliver it.
    fn read_one(bytes: &[u8], cap: usize) -> Result<Option<Frame>, FrameError> {
        read_frame(&mut std::io::Cursor::new(bytes), cap)
    }

    #[test]
    fn frame_round_trip_then_clean_eof() {
        let frame = Frame {
            kind: FrameKind::Update,
            seq: 0xDEAD_BEEF_0042,
            meta: b"{\"x\":1}".to_vec(),
            payload: vec![1, 2, 3, 4, 5],
        };
        let bytes = encode_frame(&frame);
        let mut cursor = std::io::Cursor::new(&bytes[..]);
        let back = read_frame(&mut cursor, 1 << 20).expect("reads");
        assert_eq!(back, Some(frame));
        assert_eq!(cursor.position() as usize, bytes.len());
        assert_eq!(read_frame(&mut cursor, 1 << 20).expect("clean eof"), None);
    }

    #[test]
    fn frame_control_must_be_payloadless() {
        let mut bytes = frame(1);
        bytes[2] = 0; // flip Update to Control, keep payload_len = 3
        assert_eq!(
            read_one(&bytes, 1 << 20),
            Err(FrameError::Malformed("control frame with payload"))
        );
    }

    #[test]
    fn frame_oversize_prefix_is_typed_before_allocation() {
        let mut bytes = frame(7);
        bytes[19..23].copy_from_slice(&u32::MAX.to_le_bytes()); // absurd payload_len
        match read_one(&bytes, 1024) {
            Err(FrameError::Oversize { len, max: 1024 }) => {
                assert_eq!(len, 1 + u32::MAX as u64)
            }
            other => panic!("expected Oversize, got {other:?}"),
        }
    }

    #[test]
    fn frame_truncation_and_bad_magic() {
        let bytes = encode(FrameKind::Control, 3, b"hello".to_vec(), Vec::new());
        assert_eq!(
            read_one(&[], 1 << 20),
            Ok(None),
            "empty stream is a clean EOF"
        );
        for cut in 1..bytes.len() {
            assert_eq!(
                read_one(&bytes[..cut], 1 << 20),
                Err(FrameError::Truncated),
                "cut={cut}"
            );
        }
        let mut bad = bytes.to_vec();
        bad[0] ^= 0xFF;
        assert!(matches!(
            read_one(&bad, 1 << 20),
            Err(FrameError::BadMagic(_))
        ));
        let mut unk = bytes.to_vec();
        unk[2] = 99;
        assert_eq!(read_one(&unk, 1 << 20), Err(FrameError::UnknownKind(99)));
    }

    #[test]
    fn frame_checksum_mismatch_is_typed_and_keeps_the_stream_synced() {
        let second = Frame {
            kind: FrameKind::Control,
            seq: 12,
            meta: b"{\"b\":2}".to_vec(),
            payload: Vec::new(),
        };
        let mut stream = frame(11);
        let first_len = stream.len();
        stream.extend_from_slice(&encode_frame(&second));

        // Corrupt one payload byte of the first frame: typed mismatch with
        // the header's CRC as `expected`. The reader consumes the corrupted
        // frame's full body, so the next read lands on the second frame.
        stream[first_len - 1] ^= 0x40;
        let mut cursor = std::io::Cursor::new(stream);
        match read_frame(&mut cursor, 1 << 20) {
            Err(FrameError::ChecksumMismatch { expected, actual }) => assert_ne!(expected, actual),
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
        let next = read_frame(&mut cursor, 1 << 20)
            .expect("reads past the corrupt frame")
            .expect("second frame present");
        assert_eq!(next, second);
    }

    #[test]
    fn frame_checksum_covers_kind_and_seq() {
        let good = encode(FrameKind::Control, 21, b"x".to_vec(), Vec::new());
        // Flip a seq byte: framing still parses, checksum catches it.
        let mut bad_seq = good.to_vec();
        bad_seq[5] ^= 0x01;
        // Flip Control to the other known kind, Update: lengths stay valid
        // (an update may have an empty payload), checksum catches the change.
        let mut bad_kind = good.to_vec();
        bad_kind[2] = 1;
        // Flip a CRC byte itself.
        let mut bad_crc = good.to_vec();
        bad_crc[12] ^= 0x10;
        for bad in [bad_seq, bad_kind, bad_crc] {
            assert!(matches!(
                read_one(&bad, 1 << 20),
                Err(FrameError::ChecksumMismatch { .. })
            ));
        }
    }

    #[test]
    fn every_stream_fault_yields_exactly_one_down_and_no_frame_after_it() {
        let mut flipped = frame(1);
        *flipped.last_mut().expect("payload byte") ^= 0x40;
        let mut bad_magic = frame(1);
        bad_magic[0] ^= 0xFF;
        let mut oversize = frame(1);
        oversize[19..23].copy_from_slice(&(MAX_FRAME_LEN as u32).to_le_bytes());
        let unknown_kind = |k: u8| {
            let mut f = frame(1);
            f[2] = k;
            f
        };
        // (label, the bytes that follow a valid frame 0, what the Down
        // reason must name). The peer closes after writing.
        let cases: Vec<(&str, Vec<u8>, &str)> = vec![
            ("eof", Vec::new(), EOF),
            ("bad magic", bad_magic, "magic"),
            ("flipped payload byte", flipped, "checksum mismatch"),
            ("skipped seq", frame(2), "sequence gap"),
            ("repeated seq", frame(0), "sequence gap"),
            ("oversize length prefix", oversize, "exceeds cap"),
            ("retired ack kind", unknown_kind(2), "unknown frame kind 2"),
            ("retired ping kind", unknown_kind(3), "unknown frame kind 3"),
            ("retired pong kind", unknown_kind(4), "unknown frame kind 4"),
            ("unknown kind", unknown_kind(9), "unknown frame kind 9"),
        ];
        for (label, fault, names) in cases {
            let (a, mut peer) = UnixStream::pair().expect("socketpair");
            let (_link, rx) = link(a, None);
            let mut bytes = frame(0);
            bytes.extend_from_slice(&fault);
            if !fault.is_empty() {
                // A well-formed frame after the fault must not be delivered.
                bytes.extend_from_slice(&frame(1));
            }
            peer.write_all(&bytes).expect("peer write");
            drop(peer);
            let got = drain(&rx);
            assert!(
                matches!(&got[..], [LinkEvent::Frame(f), LinkEvent::Down(r)]
                    if f.seq == 0 && r.contains(names)),
                "{label}: {got:?}"
            );
        }
    }

    #[test]
    fn a_clean_stream_delivers_every_frame_once_in_order() {
        let (a, b) = UnixStream::pair().expect("socketpair");
        let (la, rx_a) = link(a, None);
        let (lb, rx_b) = link(b, None);
        for i in 0..40u64 {
            la.send(&i, (i % 2 == 0).then(|| b"p".to_vec()))
                .expect("a->b");
            lb.send(&(1000 + i), None).expect("b->a");
        }
        let metas = |rx: &Receiver<LinkEvent>| -> Vec<String> {
            let frames = drain(rx).into_iter().map(|ev| match ev {
                LinkEvent::Frame(f) => String::from_utf8(f.meta).expect("utf-8"),
                LinkEvent::Down(r) => panic!("healthy link went down: {r}"),
            });
            frames.collect()
        };
        let want = |base: u64| (base..base + 40).map(|i| i.to_string()).collect::<Vec<_>>();
        assert_eq!(metas(&rx_b), want(0));
        assert_eq!(metas(&rx_a), want(1000));
    }

    #[test]
    fn no_send_outlives_the_write_bound() {
        // The peer never reads, so the socket buffer fills and stays full;
        // an 8 MiB payload is larger than any socket buffer.
        let (a, deaf_peer) = UnixStream::pair().expect("socketpair");
        let bound = Duration::from_millis(200);
        let (tx, rx) = channel();
        let sender = std::thread::spawn(move || {
            let (la, _events) = link(a, Some(bound));
            let t0 = Instant::now();
            let sent = la.send(&0u64, Some(vec![7u8; 8 << 20]));
            let _ = tx.send((sent, t0.elapsed()));
        });
        let (sent, took) = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("a send to a peer that never reads outlived its write bound");
        sender.join().expect("the sending thread finished");
        assert!(sent.is_err(), "8 MiB cannot fit a socket buffer");
        assert!(took < 10 * bound, "the send took {took:?}");
        drop(deaf_peer);
    }
}
