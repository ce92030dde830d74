//! Binary wire codec for model updates.
//!
//! The virtual network in `fedca-sim` charges transmissions by byte count;
//! this codec defines those bytes precisely. A message carries one or more
//! layer payloads, each dense (f32), quantized (bit-packed levels + scale),
//! or sparse (index/value pairs). Round-trip tests guarantee the decoder
//! reconstructs exactly what the encoder consumed.

use crate::quantize::QuantizedVec;
use crate::sparsify::SparseVec;
use bytes::{BufMut, Bytes, BytesMut};
use fedca_tensor::dataplane;

/// Message magic ("FC").
const MAGIC: u16 = 0x4643;
/// Codec version.
const VERSION: u8 = 1;

/// One layer's payload.
#[derive(Clone, Debug, PartialEq)]
pub enum Payload {
    /// Full-precision values.
    Dense(Vec<f32>),
    /// QSGD-quantized values.
    Quantized(QuantizedVec),
    /// Top-k sparsified values.
    Sparse(SparseVec),
    /// IEEE binary16 values (see [`crate::f16`]).
    F16(Vec<u16>),
}

impl Payload {
    /// Borrows the payload in the form [`MessageWriter::put`] frames.
    pub fn as_ref(&self) -> PayloadRef<'_> {
        match self {
            Payload::Dense(v) => PayloadRef::Dense(v),
            Payload::Quantized(q) => PayloadRef::Quantized {
                bits: q.bits,
                num_levels: q.num_levels,
                scale: q.scale,
                levels: &q.levels,
            },
            Payload::Sparse(s) => PayloadRef::Sparse {
                len: s.len,
                indices: &s.indices,
                values: &s.values,
            },
            Payload::F16(v) => PayloadRef::F16(v),
        }
    }

    /// Dense length of the decoded vector.
    pub fn len(&self) -> usize {
        self.as_ref().len()
    }

    /// Whether the payload decodes to an empty vector.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reconstructs the dense values.
    pub fn to_dense(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.len()];
        self.as_ref().decode_into(&mut out);
        out
    }

    /// Exact encoded size of this payload in bytes (tag byte included),
    /// matching [`encode`] without materializing the buffer. The runner
    /// prices eager per-layer sends with this so the hot path never
    /// allocates a scratch encoding.
    pub fn wire_len(&self) -> usize {
        self.as_ref().wire_len()
    }
}

/// One layer's payload, borrowed: what a compressor produces into reusable
/// buffers and what [`MessageWriter::put`] frames. [`Payload`] is its owned
/// form.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PayloadRef<'a> {
    /// Full-precision values.
    Dense(&'a [f32]),
    /// QSGD-quantized values (the fields of a
    /// [`QuantizedVec`](crate::quantize::QuantizedVec)).
    Quantized {
        /// Quantization bit budget.
        bits: u8,
        /// Level count per sign.
        num_levels: u8,
        /// Max-abs scale.
        scale: f32,
        /// Signed levels, one per element.
        levels: &'a [i8],
    },
    /// Top-k sparsified values (the fields of a
    /// [`SparseVec`](crate::sparsify::SparseVec)).
    Sparse {
        /// Dense length of the decoded vector.
        len: usize,
        /// Kept indices, strictly increasing.
        indices: &'a [u32],
        /// Values at the kept indices.
        values: &'a [f32],
    },
    /// IEEE binary16 values (see [`crate::f16`]).
    F16(&'a [u16]),
}

impl PayloadRef<'_> {
    /// Dense length of the decoded vector.
    pub fn len(&self) -> usize {
        match self {
            PayloadRef::Dense(v) => v.len(),
            PayloadRef::Quantized { levels, .. } => levels.len(),
            PayloadRef::Sparse { len, .. } => *len,
            PayloadRef::F16(v) => v.len(),
        }
    }

    /// Whether the payload decodes to an empty vector.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exact encoded size in bytes (tag byte included).
    pub fn wire_len(&self) -> usize {
        match self {
            PayloadRef::Dense(v) => dense_payload_wire_len(v.len()),
            PayloadRef::Quantized { bits, levels, .. } => {
                quantized_payload_wire_len(levels.len(), *bits)
            }
            PayloadRef::Sparse { indices, .. } => sparse_payload_wire_len(indices.len()),
            PayloadRef::F16(v) => f16_payload_wire_len(v.len()),
        }
    }

    /// Writes the values the receiver will reconstruct into `out` —
    /// bit-identical to [`PayloadView::decode_into`] on the encoded bytes.
    ///
    /// # Panics
    /// Panics if `out.len() != self.len()`.
    pub fn decode_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.len(), "decode_into: length mismatch");
        match *self {
            PayloadRef::Dense(v) => out.copy_from_slice(v),
            PayloadRef::Quantized {
                num_levels,
                scale,
                levels,
                ..
            } => crate::quantize::dequantize_levels_into(levels, scale, num_levels, out),
            PayloadRef::Sparse {
                indices, values, ..
            } => crate::sparsify::densify_into(indices, values, out),
            PayloadRef::F16(v) => {
                for (o, &h) in out.iter_mut().zip(v) {
                    *o = crate::f16::f16_to_f32(h);
                }
            }
        }
    }
}

/// Encoded size of the fixed message header (magic, version, round,
/// client, layer count).
pub const HEADER_LEN: usize = 2 + 1 + 4 + 4 + 4;

/// Exact encoded size of a [`Payload::Dense`] of `n` elements — the
/// full-precision yardstick compression ratios are measured against.
pub fn dense_payload_wire_len(n: usize) -> usize {
    1 + 4 + 4 * n
}

/// Exact encoded size of a quantized payload of `n` elements at `bits`:
/// levels are packed offset-binary in `bits + 1` bits, capped at a byte.
pub fn quantized_payload_wire_len(n: usize, bits: u8) -> usize {
    1 + 1 + 1 + 4 + 4 + dataplane::packed_len(n, quantized_width(bits))
}

/// Exact encoded size of a sparse payload keeping `k` elements.
pub fn sparse_payload_wire_len(k: usize) -> usize {
    1 + 4 + 4 + 8 * k
}

/// Exact encoded size of a binary16 payload of `n` elements.
pub fn f16_payload_wire_len(n: usize) -> usize {
    1 + 4 + 2 * n
}

/// Packed bits per level on the wire: the sign costs one bit on top of the
/// magnitude's `bits`, capped at a byte.
fn quantized_width(bits: u8) -> u32 {
    (bits + 1).min(8) as u32
}

/// Exact encoded size of `msg` in bytes (equals `encode(msg).len()`).
pub fn message_wire_len(msg: &UpdateMessage) -> usize {
    HEADER_LEN
        + msg
            .layers
            .iter()
            .map(|(_, p)| 4 + p.wire_len())
            .sum::<usize>()
}

/// Encoded size `msg` would have if every layer were shipped dense.
pub fn dense_message_wire_len(msg: &UpdateMessage) -> usize {
    HEADER_LEN
        + msg
            .layers
            .iter()
            .map(|(_, p)| 4 + dense_payload_wire_len(p.len()))
            .sum::<usize>()
}

/// An update message: `(layer id, payload)` entries from one client round.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct UpdateMessage {
    /// Round the update belongs to.
    pub round: u32,
    /// Sender client id.
    pub client: u32,
    /// Layer payloads.
    pub layers: Vec<(u32, Payload)>,
}

/// Codec error.
#[derive(Debug, PartialEq, Eq)]
pub enum WireError {
    /// Buffer ended prematurely.
    Truncated,
    /// Bad magic/version/tag.
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated message"),
            WireError::Malformed(what) => write!(f, "malformed message: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Appends `n` little-endian 4-byte words in one reservation.
fn put_words_le(buf: &mut BytesMut, words: impl ExactSizeIterator<Item = [u8; 4]>) {
    let dst = buf.put_zeroed(4 * words.len());
    for (d, w) in dst.chunks_exact_mut(4).zip(words) {
        d.copy_from_slice(&w);
    }
}

/// Streaming encoder over one pre-sized buffer — the writer twin of
/// [`MessageReader`] and the format's only encoder ([`encode`] is a loop
/// over it). [`MessageWriter::begin`] opens a message, [`MessageWriter::put`]
/// frames each declared layer straight from borrowed values, and a further
/// `begin` appends the next message to the same buffer, which is how an
/// upload carries its eager sidecar (readers walk it via
/// [`MessageReader::consumed`]).
pub struct MessageWriter {
    buf: BytesMut,
    // Layers the open message declared but has not framed yet.
    pending: usize,
}

impl MessageWriter {
    /// A writer whose buffer holds `capacity` bytes without reallocating;
    /// callers pass the exact total ([`message_wire_len`], or
    /// [`HEADER_LEN`] plus `4 +` each payload's `wire_len`).
    pub fn with_capacity(capacity: usize) -> Self {
        MessageWriter {
            buf: BytesMut::with_capacity(capacity),
            pending: 0,
        }
    }

    /// Opens a message of `n_layers` layers.
    ///
    /// # Panics
    /// Panics if the previous message is missing layers.
    pub fn begin(&mut self, round: u32, client: u32, n_layers: usize) {
        assert_eq!(self.pending, 0, "previous message is missing layers");
        self.buf.put_u16_le(MAGIC);
        self.buf.put_u8(VERSION);
        self.buf.put_u32_le(round);
        self.buf.put_u32_le(client);
        self.buf.put_u32_le(n_layers as u32);
        self.pending = n_layers;
    }

    /// Frames the next layer of the open message.
    ///
    /// # Panics
    /// Panics if the open message already has all its declared layers.
    pub fn put(&mut self, id: u32, payload: PayloadRef<'_>) {
        assert!(self.pending > 0, "more layers than the header declared");
        self.pending -= 1;
        let buf = &mut self.buf;
        buf.put_u32_le(id);
        match payload {
            PayloadRef::Dense(v) => {
                buf.put_u8(0);
                buf.put_u32_le(v.len() as u32);
                put_words_le(buf, v.iter().map(|x| x.to_le_bytes()));
            }
            PayloadRef::Quantized {
                bits,
                num_levels,
                scale,
                levels,
            } => {
                buf.put_u8(1);
                buf.put_u8(bits);
                buf.put_u8(num_levels);
                buf.put_f32_le(scale);
                buf.put_u32_le(levels.len() as u32);
                // Bit-pack signed levels as offset-binary (level +
                // num_levels), in place through the tier-dispatched kernel.
                let width = quantized_width(bits);
                let packed = buf.put_zeroed(dataplane::packed_len(levels.len(), width));
                dataplane::pack_levels(levels, num_levels, width, packed);
            }
            PayloadRef::Sparse {
                len,
                indices,
                values,
            } => {
                buf.put_u8(2);
                buf.put_u32_le(len as u32);
                buf.put_u32_le(indices.len() as u32);
                put_words_le(buf, indices.iter().map(|i| i.to_le_bytes()));
                put_words_le(buf, values.iter().map(|x| x.to_le_bytes()));
            }
            PayloadRef::F16(v) => {
                buf.put_u8(3);
                buf.put_u32_le(v.len() as u32);
                let dst = buf.put_zeroed(2 * v.len());
                for (d, h) in dst.chunks_exact_mut(2).zip(v) {
                    d.copy_from_slice(&h.to_le_bytes());
                }
            }
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The encoded bytes.
    ///
    /// # Panics
    /// Panics if the open message is missing layers.
    pub fn finish(self) -> Bytes {
        assert_eq!(self.pending, 0, "message is missing layers");
        self.buf.freeze()
    }
}

/// Encodes a message to bytes.
pub fn encode(msg: &UpdateMessage) -> Bytes {
    let mut w = MessageWriter::with_capacity(message_wire_len(msg));
    w.begin(msg.round, msg.client, msg.layers.len());
    for (id, payload) in &msg.layers {
        w.put(*id, payload.as_ref());
    }
    w.finish()
}

/// Decodes a message from bytes into owned payloads: a loop over
/// [`MessageReader`], so validation and bounds checks live in one parser.
pub fn decode(bytes: &Bytes) -> Result<UpdateMessage, WireError> {
    let mut reader = MessageReader::new(bytes.as_ref())?;
    let mut layers = Vec::with_capacity(reader.n_layers().min(4096));
    while let Some(layer) = reader.next_layer() {
        let (id, view) = layer?;
        layers.push((id, view.to_payload()));
    }
    Ok(UpdateMessage {
        round: reader.round(),
        client: reader.client(),
        layers,
    })
}

// ---------------------------------------------------------------------------
// Zero-copy message reader: borrowed payload views over an encoded buffer.
//
// `decode` materializes every layer into owned vectors — one allocation per
// layer plus a `Vec<i8>` widening pass for quantized payloads. The server's
// ingest path only needs to (a) memcpy dense values into a pooled slot and
// (b) remember where the packed quantized run lives so the round-close fold
// can feed it straight into the fused dequantize-accumulate kernel. The
// reader below parses the wire format into `&[u8]` views without allocating;
// it is the format's only parser (`decode` is a loop over it).
// ---------------------------------------------------------------------------

/// A borrowed view of one layer payload inside an encoded message buffer.
///
/// Field slices point into the buffer the [`MessageReader`] was built over;
/// nothing is copied. [`PayloadView::decode_into`] is bit-identical to
/// [`Payload::to_dense`] on the corresponding owned payload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PayloadView<'a> {
    /// Full-precision values: `4 * n` bytes of little-endian f32.
    Dense {
        /// Raw LE f32 bytes.
        data: &'a [u8],
    },
    /// QSGD-quantized values: header fields plus the packed level run.
    Quantized {
        /// Quantization bit budget.
        bits: u8,
        /// Level count per sign (`max(2^(bits-1) - 1, 1)`).
        num_levels: u8,
        /// Max-abs scale.
        scale: f32,
        /// Dense element count.
        n: usize,
        /// Offset-binary bit-packed levels, `packed_len(n, bits+1)` bytes.
        packed: &'a [u8],
    },
    /// Top-k sparsified values: parallel index/value runs.
    Sparse {
        /// Dense length of the decoded vector.
        len: usize,
        /// Raw LE u32 index bytes (`4 * k`).
        indices: &'a [u8],
        /// Raw LE f32 value bytes (`4 * k`).
        values: &'a [u8],
    },
    /// IEEE binary16 values: `2 * n` bytes of little-endian u16.
    F16 {
        /// Raw LE u16 bytes.
        data: &'a [u8],
    },
}

impl PayloadView<'_> {
    /// Dense length of the decoded vector (mirrors [`Payload::len`]).
    pub fn len(&self) -> usize {
        match self {
            PayloadView::Dense { data } => data.len() / 4,
            PayloadView::Quantized { n, .. } => *n,
            PayloadView::Sparse { len, .. } => *len,
            PayloadView::F16 { data } => data.len() / 2,
        }
    }

    /// Whether the payload decodes to an empty vector.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies the view into an owned [`Payload`].
    pub fn to_payload(&self) -> Payload {
        let u32_at = |c: &[u8]| u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        match *self {
            PayloadView::Dense { data } => Payload::Dense(
                data.chunks_exact(4)
                    .map(|c| f32::from_bits(u32_at(c)))
                    .collect(),
            ),
            PayloadView::Quantized {
                bits,
                num_levels,
                scale,
                n,
                packed,
            } => {
                let mut levels = vec![0i8; n];
                let width = quantized_width(bits);
                dataplane::unpack_levels(packed, num_levels, width, &mut levels);
                Payload::Quantized(QuantizedVec {
                    bits,
                    scale,
                    levels,
                    num_levels,
                })
            }
            PayloadView::Sparse {
                len,
                indices,
                values,
            } => Payload::Sparse(SparseVec {
                len,
                indices: indices.chunks_exact(4).map(u32_at).collect(),
                values: values
                    .chunks_exact(4)
                    .map(|c| f32::from_bits(u32_at(c)))
                    .collect(),
            }),
            PayloadView::F16 { data } => Payload::F16(
                data.chunks_exact(2)
                    .map(|c| u16::from_le_bytes([c[0], c[1]]))
                    .collect(),
            ),
        }
    }

    /// Decodes into a caller-provided buffer, bit-identical to
    /// [`Payload::to_dense`] but without intermediate allocations. The
    /// quantized arm runs the tier-dispatched fused unpack-dequantize
    /// kernel directly over the packed wire bytes.
    ///
    /// # Panics
    /// Panics if `out.len() != self.len()`.
    pub fn decode_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.len(), "decode_into: length mismatch");
        match self {
            PayloadView::Dense { data } => {
                for (o, c) in out.iter_mut().zip(data.chunks_exact(4)) {
                    *o = f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
                }
            }
            PayloadView::Quantized {
                bits,
                num_levels,
                scale,
                packed,
                ..
            } => {
                if *scale == 0.0 {
                    // Mirror `dequantize`'s zero-scale early return.
                    out.fill(0.0);
                } else {
                    let width = quantized_width(*bits);
                    dataplane::dequantize_packed(packed, *scale, *num_levels, width, out);
                }
            }
            PayloadView::Sparse {
                indices, values, ..
            } => {
                // Mirror `densify`: zero fill, then scatter in stream order.
                out.fill(0.0);
                for (ic, vc) in indices.chunks_exact(4).zip(values.chunks_exact(4)) {
                    let i = u32::from_le_bytes([ic[0], ic[1], ic[2], ic[3]]) as usize;
                    out[i] = f32::from_le_bytes([vc[0], vc[1], vc[2], vc[3]]);
                }
            }
            PayloadView::F16 { data } => {
                for (o, c) in out.iter_mut().zip(data.chunks_exact(2)) {
                    *o = crate::f16::f16_to_f32(u16::from_le_bytes([c[0], c[1]]));
                }
            }
        }
    }
}

/// Byte offset of `part` within `whole`.
///
/// The aggregator records where a borrowed [`PayloadView`] slice sits inside
/// the owned message buffer so it can re-derive the slice at round close
/// without holding the borrow across the round. Centralizing the pointer
/// arithmetic here keeps that one audited.
///
/// # Panics
/// Panics (debug) if `part` is not contained in `whole`.
pub fn subslice_offset(whole: &[u8], part: &[u8]) -> usize {
    let off = part.as_ptr() as usize - whole.as_ptr() as usize;
    debug_assert!(off + part.len() <= whole.len(), "not a subslice");
    off
}

/// Streaming zero-copy parser over one encoded [`UpdateMessage`].
///
/// Validates the header eagerly, then yields `(layer id, PayloadView)`
/// entries on demand. Validates structure (magic, version, bits range, sparse
/// index bounds, truncation) and ignores any bytes after the last declared
/// layer — which is what lets callers walk concatenated messages via
/// [`MessageReader::consumed`].
pub struct MessageReader<'a> {
    buf: &'a [u8],
    pos: usize,
    round: u32,
    client: u32,
    n_layers: usize,
    yielded: usize,
}

impl<'a> MessageReader<'a> {
    /// Parses the message header; fails on bad magic/version or truncation.
    pub fn new(buf: &'a [u8]) -> Result<Self, WireError> {
        if buf.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        if u16::from_le_bytes([buf[0], buf[1]]) != MAGIC {
            return Err(WireError::Malformed("magic"));
        }
        if buf[2] != VERSION {
            return Err(WireError::Malformed("version"));
        }
        let round = u32::from_le_bytes([buf[3], buf[4], buf[5], buf[6]]);
        let client = u32::from_le_bytes([buf[7], buf[8], buf[9], buf[10]]);
        let n_layers = u32::from_le_bytes([buf[11], buf[12], buf[13], buf[14]]) as usize;
        Ok(MessageReader {
            buf,
            pos: HEADER_LEN,
            round,
            client,
            n_layers,
            yielded: 0,
        })
    }

    /// Round the message belongs to.
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Sender client id.
    pub fn client(&self) -> u32 {
        self.client
    }

    /// Declared layer count.
    pub fn n_layers(&self) -> usize {
        self.n_layers
    }

    /// Bytes consumed so far. After the final layer this is the encoded
    /// message length; a follow-on message in the same buffer starts here.
    pub fn consumed(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() - self.pos < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn take_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn take_u32_le(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Yields the next `(layer id, payload view)`, or `None` after the last
    /// declared layer. An error poisons the reader (subsequent calls return
    /// `None`).
    #[allow(clippy::should_implement_trait)] // fallible borrowing iterator
    pub fn next_layer(&mut self) -> Option<Result<(u32, PayloadView<'a>), WireError>> {
        if self.yielded >= self.n_layers {
            return None;
        }
        let mut parse = || -> Result<(u32, PayloadView<'a>), WireError> {
            let id = self.take_u32_le()?;
            let view = match self.take_u8()? {
                0 => {
                    let n = self.take_u32_le()? as usize;
                    PayloadView::Dense {
                        data: self.take(4 * n)?,
                    }
                }
                1 => {
                    let bits = self.take_u8()?;
                    if !(1..=8).contains(&bits) {
                        return Err(WireError::Malformed("quantization bits"));
                    }
                    let num_levels = self.take_u8()?;
                    let b = self.take(4)?;
                    let scale = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
                    let n = self.take_u32_le()? as usize;
                    let width = quantized_width(bits);
                    PayloadView::Quantized {
                        bits,
                        num_levels,
                        scale,
                        n,
                        packed: self.take(dataplane::packed_len(n, width))?,
                    }
                }
                2 => {
                    let len = self.take_u32_le()? as usize;
                    let k = self.take_u32_le()? as usize;
                    let indices = self.take(4 * k)?;
                    let values = self.take(4 * k)?;
                    for c in indices.chunks_exact(4) {
                        if u32::from_le_bytes([c[0], c[1], c[2], c[3]]) as usize >= len {
                            return Err(WireError::Malformed("sparse index out of range"));
                        }
                    }
                    PayloadView::Sparse {
                        len,
                        indices,
                        values,
                    }
                }
                3 => {
                    let n = self.take_u32_le()? as usize;
                    PayloadView::F16 {
                        data: self.take(2 * n)?,
                    }
                }
                _ => return Err(WireError::Malformed("payload tag")),
            };
            Ok((id, view))
        };
        let r = parse();
        match &r {
            Ok(_) => self.yielded += 1,
            Err(_) => self.yielded = self.n_layers, // poison
        }
        Some(r)
    }
}

// ---------------------------------------------------------------------------
// Frame layer: length-delimited envelopes for inter-process transport.
//
// The update codec above describes *one* message in a buffer whose bounds are
// already known. When messages flow over a byte stream (Unix sockets between
// shard processes and the coordinator), something must delimit them and say
// what they are. A frame is that envelope:
//
//   magic u16 LE | kind u8 | seq u64 LE | crc u32 LE
//     | meta_len u32 LE | payload_len u32 LE | meta | payload
//
// `meta` is a small structured header (the shard protocol puts JSON there);
// `payload` is bulk binary data — a `wire::encode` update or raw f32 LE
// parameters. `seq` is a per-connection, per-direction sequence number: the
// shard link requires application frames to arrive with consecutive values
// and treats any gap as a dead connection; for `Ping`/`Pong` it carries a
// nonce. `crc` is a CRC-32 (IEEE) over kind + seq + meta + payload, so a
// bit-corrupted frame surfaces as a typed `ChecksumMismatch` instead of a
// silent bad decode. Control-like frames (everything except `Update`) carry
// no payload by definition, and the decoder enforces it. Lengths are
// validated against a caller-supplied cap *before* any allocation, so a
// corrupt or hostile length prefix yields a typed `Oversize` error instead
// of an OOM.
// ---------------------------------------------------------------------------

/// Frame magic ("FS" — frame/shard), distinct from the update magic so a
/// misdirected buffer fails loudly at the first two bytes.
pub const FRAME_MAGIC: u16 = 0x5346;

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
    /// Liveness probe; `seq` carries a nonce the peer must echo.
    Ping,
    /// Liveness reply; `seq` echoes the probe's nonce.
    Pong,
}

impl FrameKind {
    fn to_u8(self) -> u8 {
        match self {
            FrameKind::Control => 0,
            FrameKind::Update => 1,
            FrameKind::Ping => 3,
            FrameKind::Pong => 4,
        }
    }

    /// Kind byte 2 was the acknowledgement frame of the retired resend
    /// protocol; it is unknown now, never reassigned.
    fn from_u8(b: u8) -> Option<FrameKind> {
        match b {
            0 => Some(FrameKind::Control),
            1 => Some(FrameKind::Update),
            3 => Some(FrameKind::Ping),
            4 => Some(FrameKind::Pong),
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
    /// Per-connection, per-direction sequence number; for Ping/Pong it is
    /// the probe nonce.
    pub seq: u64,
    /// Structured header bytes (the shard protocol stores JSON here).
    pub meta: Bytes,
    /// Bulk binary payload; empty for everything except [`FrameKind::Update`].
    pub payload: Bytes,
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
pub fn encode_frame(frame: &Frame) -> Bytes {
    debug_assert!(
        frame.kind == FrameKind::Update || frame.payload.is_empty(),
        "only update frames carry a payload"
    );
    let mut buf =
        BytesMut::with_capacity(FRAME_HEADER_LEN + frame.meta.len() + frame.payload.len());
    buf.put_u16_le(FRAME_MAGIC);
    buf.put_u8(frame.kind.to_u8());
    buf.put_u64_le(frame.seq);
    buf.put_u32_le(frame_crc(
        frame.kind.to_u8(),
        frame.seq,
        frame.meta.as_ref(),
        frame.payload.as_ref(),
    ));
    buf.put_u32_le(frame.meta.len() as u32);
    buf.put_u32_le(frame.payload.len() as u32);
    buf.put_slice(frame.meta.as_ref());
    buf.put_slice(frame.payload.as_ref());
    buf.freeze()
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
    if kind != FrameKind::Update && payload_len != 0 {
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

/// Decodes one frame from the front of `buf`, returning the frame and the
/// number of bytes consumed. Pure — property tests feed it arbitrary bytes.
pub fn decode_frame(buf: &[u8], max_len: usize) -> Result<(Frame, usize), FrameError> {
    if buf.len() < FRAME_HEADER_LEN {
        return Err(FrameError::Truncated);
    }
    let header: [u8; FRAME_HEADER_LEN] = buf[..FRAME_HEADER_LEN].try_into().unwrap();
    let h = check_header(&header, max_len)?;
    let total = FRAME_HEADER_LEN + h.meta_len + h.payload_len;
    if buf.len() < total {
        return Err(FrameError::Truncated);
    }
    let meta = &buf[FRAME_HEADER_LEN..FRAME_HEADER_LEN + h.meta_len];
    let payload = &buf[FRAME_HEADER_LEN + h.meta_len..total];
    verify_crc(&h, meta, payload)?;
    Ok((
        Frame {
            kind: h.kind,
            seq: h.seq,
            meta: Bytes::copy_from_slice(meta),
            payload: Bytes::copy_from_slice(payload),
        },
        total,
    ))
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

/// Reads one frame from a byte stream. Returns `Ok(None)` on a clean EOF at
/// a frame boundary; EOF inside a frame is [`FrameError::Truncated`]. The
/// header's lengths are validated against `max_len` before the body is
/// allocated or read. On [`FrameError::ChecksumMismatch`] the frame's full
/// body has already been consumed, so the stream stays synchronized and the
/// caller may keep reading subsequent frames.
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
        meta: Bytes::from(meta),
        payload: Bytes::from(payload),
    }))
}

/// Writes one frame to a byte stream. The caller flushes.
pub fn write_frame(w: &mut impl std::io::Write, frame: &Frame) -> Result<(), FrameError> {
    let bytes = encode_frame(frame);
    w.write_all(bytes.as_ref())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantize::quantize;
    use crate::sparsify::top_k;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample_vec(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect()
    }

    #[test]
    fn dense_round_trip() {
        let msg = UpdateMessage {
            round: 7,
            client: 42,
            layers: vec![(0, Payload::Dense(sample_vec(33, 1)))],
        };
        let bytes = encode(&msg);
        let back = decode(&bytes).expect("decodes");
        assert_eq!(back, msg);
    }

    #[test]
    fn quantized_round_trip_exact_levels() {
        let mut rng = StdRng::seed_from_u64(2);
        for bits in [1u8, 2, 4, 7, 8] {
            let q = quantize(&sample_vec(57, bits as u64), bits, &mut rng);
            let msg = UpdateMessage {
                round: 1,
                client: 2,
                layers: vec![(3, Payload::Quantized(q.clone()))],
            };
            let back = decode(&encode(&msg)).expect("decodes");
            match &back.layers[0].1 {
                Payload::Quantized(qb) => {
                    assert_eq!(qb.levels, q.levels, "bits={bits}");
                    assert_eq!(qb.scale, q.scale);
                    assert_eq!(qb.num_levels, q.num_levels);
                }
                other => panic!("wrong payload {other:?}"),
            }
        }
    }

    #[test]
    fn sparse_round_trip() {
        let s = top_k(&sample_vec(101, 3), 0.13);
        let msg = UpdateMessage {
            round: 0,
            client: 0,
            layers: vec![(9, Payload::Sparse(s.clone()))],
        };
        let back = decode(&encode(&msg)).expect("decodes");
        assert_eq!(back.layers[0].1.to_dense(), crate::sparsify::densify(&s));
    }

    #[test]
    fn multi_layer_message() {
        let mut rng = StdRng::seed_from_u64(4);
        let msg = UpdateMessage {
            round: 3,
            client: 1,
            layers: vec![
                (0, Payload::Dense(sample_vec(8, 5))),
                (
                    1,
                    Payload::Quantized(quantize(&sample_vec(20, 6), 4, &mut rng)),
                ),
                (2, Payload::Sparse(top_k(&sample_vec(30, 7), 0.2))),
            ],
        };
        let back = decode(&encode(&msg)).expect("decodes");
        assert_eq!(back.layers.len(), 3);
        for ((ida, pa), (idb, pb)) in msg.layers.iter().zip(&back.layers) {
            assert_eq!(ida, idb);
            assert_eq!(pa.to_dense(), pb.to_dense());
        }
    }

    #[test]
    fn quantized_encoding_is_actually_smaller() {
        let mut rng = StdRng::seed_from_u64(8);
        let v = sample_vec(10_000, 9);
        let dense = encode(&UpdateMessage {
            round: 0,
            client: 0,
            layers: vec![(0, Payload::Dense(v.clone()))],
        });
        let quant = encode(&UpdateMessage {
            round: 0,
            client: 0,
            layers: vec![(0, Payload::Quantized(quantize(&v, 3, &mut rng)))],
        });
        // 3-bit quantization packs in 4 bits/elem vs 32: ~8x smaller.
        assert!(
            (quant.len() as f64) < dense.len() as f64 / 6.0,
            "quantized {} vs dense {}",
            quant.len(),
            dense.len()
        );
    }

    #[test]
    fn decode_rejects_garbage_and_truncation() {
        assert_eq!(
            decode(&Bytes::from_static(b"xx")),
            Err(WireError::Truncated)
        );
        let msg = UpdateMessage {
            round: 1,
            client: 1,
            layers: vec![(0, Payload::Dense(sample_vec(16, 10)))],
        };
        let good = encode(&msg);
        let truncated = good.slice(0..good.len() - 3);
        assert_eq!(decode(&truncated), Err(WireError::Truncated));
        let mut corrupted = good.to_vec();
        corrupted[0] ^= 0xFF; // break magic
        assert!(matches!(
            decode(&Bytes::from(corrupted)),
            Err(WireError::Malformed("magic"))
        ));
    }

    #[test]
    fn frame_round_trip_buffer_and_stream() {
        let frame = Frame {
            kind: FrameKind::Update,
            seq: 0xDEAD_BEEF_0042,
            meta: Bytes::from_static(b"{\"x\":1}"),
            payload: Bytes::from_static(&[1, 2, 3, 4, 5]),
        };
        let bytes = encode_frame(&frame);
        let (back, used) = decode_frame(bytes.as_ref(), 1 << 20).expect("decodes");
        assert_eq!(back, frame);
        assert_eq!(used, bytes.len());

        let mut cursor = std::io::Cursor::new(bytes.to_vec());
        let streamed = read_frame(&mut cursor, 1 << 20)
            .expect("reads")
            .expect("one frame");
        assert_eq!(streamed, frame);
        assert_eq!(read_frame(&mut cursor, 1 << 20).expect("clean eof"), None);
    }

    #[test]
    fn frame_ping_pong_round_trip() {
        for kind in [FrameKind::Ping, FrameKind::Pong] {
            let frame = Frame {
                kind,
                seq: 913,
                meta: Bytes::default(),
                payload: Bytes::default(),
            };
            let bytes = encode_frame(&frame);
            let (back, used) = decode_frame(bytes.as_ref(), 1 << 20).expect("decodes");
            assert_eq!(back, frame, "{kind:?}");
            assert_eq!(used, FRAME_HEADER_LEN, "{kind:?}");
        }
    }

    #[test]
    fn frame_control_must_be_payloadless() {
        for kind in [0u8, 3, 4] {
            let mut bytes = encode_frame(&Frame {
                kind: FrameKind::Update,
                seq: 1,
                meta: Bytes::from_static(b"m"),
                payload: Bytes::from_static(b"p"),
            })
            .to_vec();
            bytes[2] = kind; // flip kind to a payloadless one, keep payload_len = 1
            assert_eq!(
                decode_frame(&bytes, 1 << 20),
                Err(FrameError::Malformed("control frame with payload")),
                "kind={kind}"
            );
        }
    }

    #[test]
    fn frame_oversize_prefix_is_typed_before_allocation() {
        let mut bytes = encode_frame(&Frame {
            kind: FrameKind::Update,
            seq: 7,
            meta: Bytes::from_static(b"m"),
            payload: Bytes::default(),
        })
        .to_vec();
        bytes[19..23].copy_from_slice(&u32::MAX.to_le_bytes()); // absurd payload_len
        match decode_frame(&bytes, 1024) {
            Err(FrameError::Oversize { len, max: 1024 }) => {
                assert_eq!(len, 1 + u32::MAX as u64)
            }
            other => panic!("expected Oversize, got {other:?}"),
        }
        let mut cursor = std::io::Cursor::new(bytes);
        assert!(matches!(
            read_frame(&mut cursor, 1024),
            Err(FrameError::Oversize { .. })
        ));
    }

    #[test]
    fn frame_truncation_and_bad_magic() {
        let bytes = encode_frame(&Frame {
            kind: FrameKind::Control,
            seq: 3,
            meta: Bytes::from_static(b"hello"),
            payload: Bytes::default(),
        });
        for cut in 0..bytes.len() {
            assert_eq!(
                decode_frame(&bytes.as_ref()[..cut], 1 << 20),
                Err(FrameError::Truncated),
                "cut={cut}"
            );
        }
        let mut bad = bytes.to_vec();
        bad[0] ^= 0xFF;
        assert!(matches!(
            decode_frame(&bad, 1 << 20),
            Err(FrameError::BadMagic(_))
        ));
        let mut unk = bytes.to_vec();
        unk[2] = 99;
        assert_eq!(
            decode_frame(&unk, 1 << 20),
            Err(FrameError::UnknownKind(99))
        );
    }

    #[test]
    fn frame_checksum_mismatch_is_typed_and_keeps_the_stream_synced() {
        let first = Frame {
            kind: FrameKind::Update,
            seq: 11,
            meta: Bytes::from_static(b"{\"a\":1}"),
            payload: Bytes::from_static(&[9, 8, 7]),
        };
        let second = Frame {
            kind: FrameKind::Control,
            seq: 12,
            meta: Bytes::from_static(b"{\"b\":2}"),
            payload: Bytes::default(),
        };
        let mut stream = encode_frame(&first).to_vec();
        let first_len = stream.len();
        stream.extend_from_slice(encode_frame(&second).as_ref());

        // Corrupt one payload byte of the first frame: typed mismatch with
        // the header's CRC as `expected`.
        stream[first_len - 1] ^= 0x40;
        let err = decode_frame(&stream, 1 << 20).expect_err("corrupt");
        match err {
            FrameError::ChecksumMismatch { expected, actual } => assert_ne!(expected, actual),
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }

        // A stream reader consumes the corrupted frame's full body, so the
        // next read lands on the second frame's boundary.
        let mut cursor = std::io::Cursor::new(stream);
        assert!(matches!(
            read_frame(&mut cursor, 1 << 20),
            Err(FrameError::ChecksumMismatch { .. })
        ));
        let next = read_frame(&mut cursor, 1 << 20)
            .expect("reads past the corrupt frame")
            .expect("second frame present");
        assert_eq!(next, second);
    }

    #[test]
    fn frame_checksum_covers_kind_and_seq() {
        let frame = Frame {
            kind: FrameKind::Control,
            seq: 21,
            meta: Bytes::from_static(b"x"),
            payload: Bytes::default(),
        };
        let good = encode_frame(&frame);
        // Flip a seq byte: framing still parses, checksum catches it.
        let mut bad_seq = good.to_vec();
        bad_seq[5] ^= 0x01;
        assert!(matches!(
            decode_frame(&bad_seq, 1 << 20),
            Err(FrameError::ChecksumMismatch { .. })
        ));
        // Flip kind to another known payloadless kind: lengths stay valid,
        // checksum catches the change.
        let mut bad_kind = good.to_vec();
        bad_kind[2] = 3; // Control -> Ping
        assert!(matches!(
            decode_frame(&bad_kind, 1 << 20),
            Err(FrameError::ChecksumMismatch { .. })
        ));
        // Flip a CRC byte itself.
        let mut bad_crc = good.to_vec();
        bad_crc[12] ^= 0x10;
        assert!(matches!(
            decode_frame(&bad_crc, 1 << 20),
            Err(FrameError::ChecksumMismatch { .. })
        ));
    }

    /// One message exercising every payload kind, including the edge cases
    /// the reader must not diverge on: empty layers and zero-scale
    /// quantization.
    fn kitchen_sink_message() -> UpdateMessage {
        let mut rng = StdRng::seed_from_u64(77);
        let zero_q = crate::quantize::quantize_det(&[0.0f32; 9], 3);
        assert_eq!(zero_q.scale, 0.0);
        UpdateMessage {
            round: 12,
            client: 345,
            layers: vec![
                (0, Payload::Dense(sample_vec(33, 70))),
                (
                    1,
                    Payload::Quantized(quantize(&sample_vec(57, 71), 4, &mut rng)),
                ),
                (2, Payload::Sparse(top_k(&sample_vec(64, 72), 0.2))),
                (
                    3,
                    Payload::F16(
                        sample_vec(21, 73)
                            .iter()
                            .map(|&x| crate::f16::f32_to_f16(x))
                            .collect(),
                    ),
                ),
                (4, Payload::Quantized(zero_q)),
                (5, Payload::Dense(Vec::new())),
                (
                    6,
                    Payload::Quantized(quantize(&sample_vec(40, 74), 8, &mut rng)),
                ),
            ],
        }
    }

    #[test]
    fn reader_views_match_decode_bitwise() {
        let msg = kitchen_sink_message();
        let bytes = encode(&msg);
        let owned = decode(&bytes).expect("decodes");
        let mut reader = MessageReader::new(bytes.as_ref()).expect("header parses");
        assert_eq!(reader.round(), msg.round);
        assert_eq!(reader.client(), msg.client);
        assert_eq!(reader.n_layers(), msg.layers.len());
        for (id, payload) in &owned.layers {
            let (vid, view) = reader
                .next_layer()
                .expect("layer present")
                .expect("layer parses");
            assert_eq!(vid, *id);
            assert_eq!(view.len(), payload.len());
            let want = payload.to_dense();
            let mut got = vec![0.0f32; view.len()];
            view.decode_into(&mut got);
            let wb: Vec<u32> = want.iter().map(|x| x.to_bits()).collect();
            let gb: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
            assert_eq!(gb, wb, "layer {id}");
        }
        assert!(reader.next_layer().is_none());
        assert_eq!(reader.consumed(), bytes.len());
        assert_eq!(reader.consumed(), message_wire_len(&msg));
    }

    #[test]
    fn writer_appends_messages_into_one_presized_buffer() {
        let first = kitchen_sink_message();
        let second = UpdateMessage {
            round: 9,
            client: 4,
            layers: vec![(7, Payload::Dense(sample_vec(5, 1)))],
        };
        let total = message_wire_len(&first) + message_wire_len(&second);
        let mut w = MessageWriter::with_capacity(total);
        for msg in [&first, &second] {
            w.begin(msg.round, msg.client, msg.layers.len());
            for (id, p) in &msg.layers {
                w.put(*id, p.as_ref());
            }
        }
        assert_eq!(w.len(), total);
        let joined = w.finish();
        let mut expected = encode(&first).to_vec();
        expected.extend_from_slice(encode(&second).as_ref());
        assert_eq!(joined.as_ref(), &expected[..]);
    }

    #[test]
    #[should_panic(expected = "missing layers")]
    fn writer_rejects_a_short_message() {
        let mut w = MessageWriter::with_capacity(HEADER_LEN);
        w.begin(0, 0, 1);
        let _ = w.finish();
    }

    #[test]
    fn reader_walks_concatenated_messages() {
        let a = kitchen_sink_message();
        let b = UpdateMessage {
            round: 13,
            client: 9,
            layers: vec![(2, Payload::Dense(sample_vec(5, 80)))],
        };
        let mut all = encode(&a).to_vec();
        all.extend_from_slice(encode(&b).as_ref());
        let mut ra = MessageReader::new(&all).expect("first header");
        while let Some(r) = ra.next_layer() {
            r.expect("first message parses");
        }
        let mut rb = MessageReader::new(&all[ra.consumed()..]).expect("second header");
        assert_eq!(rb.round(), 13);
        assert_eq!(rb.client(), 9);
        let (id, view) = rb.next_layer().expect("layer").expect("parses");
        assert_eq!(id, 2);
        assert_eq!(view.len(), 5);
        assert_eq!(ra.consumed() + rb.consumed(), all.len());
    }

    #[test]
    fn quantized_view_offsets_recover_the_packed_run() {
        let msg = kitchen_sink_message();
        let bytes = encode(&msg);
        let mut reader = MessageReader::new(bytes.as_ref()).expect("header");
        let mut saw_quant = 0;
        while let Some(r) = reader.next_layer() {
            if let (_, PayloadView::Quantized { packed, .. }) = r.expect("parses") {
                let off = subslice_offset(bytes.as_ref(), packed);
                assert_eq!(&bytes.as_ref()[off..off + packed.len()], packed);
                saw_quant += 1;
            }
        }
        assert_eq!(saw_quant, 3);
    }

    #[test]
    fn reader_rejects_what_decode_rejects() {
        // Too short for a header.
        assert!(matches!(
            MessageReader::new(b"xx"),
            Err(WireError::Truncated)
        ));
        let msg = kitchen_sink_message();
        let good = encode(&msg);
        // Truncation at every cut point classifies identically to `decode`.
        for cut in 0..good.len() {
            let slice = &good.as_ref()[..cut];
            let via_decode = decode(&good.slice(0..cut)).expect_err("truncated");
            let via_reader = match MessageReader::new(slice) {
                Err(e) => e,
                Ok(mut r) => loop {
                    match r.next_layer() {
                        Some(Err(e)) => break e,
                        Some(Ok(_)) => continue,
                        None => panic!("reader accepted truncated input at {cut}"),
                    }
                },
            };
            assert_eq!(via_reader, via_decode, "cut={cut}");
        }
        // Bad magic / version / payload tag.
        let mut bad = good.to_vec();
        bad[0] ^= 0xFF;
        assert_eq!(
            MessageReader::new(&bad).err(),
            Some(WireError::Malformed("magic"))
        );
        let mut bad = good.to_vec();
        bad[2] = 99;
        assert_eq!(
            MessageReader::new(&bad).err(),
            Some(WireError::Malformed("version"))
        );
        let mut bad = good.to_vec();
        bad[HEADER_LEN + 4] = 7; // first layer's payload tag
        let mut r = MessageReader::new(&bad).expect("header fine");
        assert_eq!(
            r.next_layer().expect("yields"),
            Err(WireError::Malformed("payload tag"))
        );
        // An error poisons the reader.
        assert!(r.next_layer().is_none());
    }
}
