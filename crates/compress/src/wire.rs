//! Binary wire codec for model updates.
//!
//! The virtual network in `fedca-sim` charges transmissions by byte count;
//! this codec defines those bytes precisely. A message carries one or more
//! layer payloads, each dense (f32), quantized (bit-packed levels + scale),
//! or sparse (index/value pairs). Round-trip tests guarantee the
//! decoder reconstructs exactly what the encoder consumed.
//!
//! After the compressor an update has one borrowed form, its encoded bytes:
//! [`MessageWriter`] is the format's only encoder and [`MessageReader`] its
//! only parser, and [`PayloadView::decode_into`] is the only decoder the
//! product runs — the server folds what it yields, and a client rebuilds
//! what it sent (its error-feedback residual, its eager snapshots) by
//! parsing the bytes it just wrote. The server keeps no decoded copy: it
//! checks an upload's bytes on arrival ([`PayloadView::decodes_finite`])
//! and reads them again at round close. The owned [`Payload`] /
//! [`UpdateMessage`] with [`encode`] / [`decode`] are thin wrappers for
//! tests and probes, and [`Payload::to_dense`] is the scalar reference
//! they compare against.

use crate::quantize::QuantizedVec;
use crate::sparsify::SparseVec;
use fedca_tensor::dataplane;

/// Message magic ("FC").
const MAGIC: u16 = 0x4643;
/// Codec version.
const VERSION: u8 = 1;

/// Payload tags.
const TAG_DENSE: u8 = 0;
const TAG_QUANTIZED: u8 = 1;
const TAG_SPARSE: u8 = 2;

/// One layer's payload, owned.
#[derive(Clone, Debug, PartialEq)]
pub enum Payload {
    /// Full-precision values.
    Dense(Vec<f32>),
    /// QSGD-quantized values.
    Quantized(QuantizedVec),
    /// Top-k sparsified values.
    Sparse(SparseVec),
}

impl Payload {
    /// Dense length of the decoded vector.
    pub fn len(&self) -> usize {
        match self {
            Payload::Dense(v) => v.len(),
            Payload::Quantized(q) => q.levels.len(),
            Payload::Sparse(s) => s.len,
        }
    }

    /// Whether the payload decodes to an empty vector.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reconstructs the dense values with plain scalar loops — the
    /// reference [`PayloadView::decode_into`] is held to bit for bit.
    pub fn to_dense(&self) -> Vec<f32> {
        match self {
            Payload::Dense(v) => v.clone(),
            Payload::Quantized(q) => crate::quantize::dequantize(q),
            Payload::Sparse(s) => crate::sparsify::densify(s),
        }
    }

    /// Exact encoded size of this payload in bytes (tag byte included),
    /// matching [`encode`] without materializing the buffer.
    pub fn wire_len(&self) -> usize {
        match self {
            Payload::Dense(v) => dense_payload_wire_len(v.len()),
            Payload::Quantized(q) => quantized_payload_wire_len(q.levels.len(), q.bits),
            Payload::Sparse(s) => sparse_payload_wire_len(s.indices.len()),
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

/// Packed bits per level on the wire: the sign costs one bit on top of the
/// magnitude's `bits`, capped at a byte.
pub fn quantized_width(bits: u8) -> u32 {
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
    /// Bad magic/version/tag, or a payload that does not fit its receiver.
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

/// Appends `n` zero bytes and returns them, so fixed-size encodings are
/// written in place instead of byte by byte.
fn put_zeroed(buf: &mut Vec<u8>, n: usize) -> &mut [u8] {
    let start = buf.len();
    buf.resize(start + n, 0);
    &mut buf[start..]
}

/// Appends `n` little-endian 4-byte words in one reservation.
fn put_words_le(buf: &mut Vec<u8>, words: impl ExactSizeIterator<Item = [u8; 4]>) {
    let dst = put_zeroed(buf, 4 * words.len());
    for (d, w) in dst.chunks_exact_mut(4).zip(words) {
        d.copy_from_slice(&w);
    }
}

/// Streaming encoder over one pre-sized buffer — the format's only encoder
/// ([`encode`] is a loop over it). [`MessageWriter::begin`] opens a message,
/// each `put_*` frames one declared layer straight from the caller's values,
/// and a further `begin` appends the next message to the same buffer, which
/// is how an upload carries its eager sidecar (readers walk it with
/// [`for_each_layer`]).
pub struct MessageWriter {
    buf: Vec<u8>,
    // Layers the open message declared but has not framed yet.
    pending: usize,
}

impl MessageWriter {
    /// A writer whose buffer holds `capacity` bytes without reallocating;
    /// callers pass the exact total ([`message_wire_len`], or
    /// [`HEADER_LEN`] plus `4 +` each payload's wire length).
    pub fn with_capacity(capacity: usize) -> Self {
        MessageWriter {
            buf: Vec::with_capacity(capacity),
            pending: 0,
        }
    }

    /// Opens a message of `n_layers` layers.
    ///
    /// # Panics
    /// Panics if the previous message is missing layers.
    pub fn begin(&mut self, round: u32, client: u32, n_layers: usize) {
        assert_eq!(self.pending, 0, "previous message is missing layers");
        self.buf.extend_from_slice(&MAGIC.to_le_bytes());
        self.buf.push(VERSION);
        self.buf.extend_from_slice(&round.to_le_bytes());
        self.buf.extend_from_slice(&client.to_le_bytes());
        self.buf.extend_from_slice(&(n_layers as u32).to_le_bytes());
        self.pending = n_layers;
    }

    /// Starts the next declared layer of the open message: its id and tag.
    ///
    /// # Panics
    /// Panics if the open message already has all its declared layers.
    fn layer(&mut self, id: u32, tag: u8) -> &mut Vec<u8> {
        assert!(self.pending > 0, "more layers than the header declared");
        self.pending -= 1;
        self.buf.extend_from_slice(&id.to_le_bytes());
        self.buf.push(tag);
        &mut self.buf
    }

    /// Writes an owned payload as the next layer.
    pub fn put(&mut self, id: u32, payload: &Payload) {
        match payload {
            Payload::Dense(v) => self.put_dense(id, v),
            Payload::Quantized(q) => {
                self.put_quantized(id, q.bits, q.num_levels, q.scale, &q.levels)
            }
            Payload::Sparse(s) => self.put_sparse(id, s.len, &s.indices, &s.values),
        }
    }

    /// Writes full-precision values as the next layer.
    pub fn put_dense(&mut self, id: u32, values: &[f32]) {
        let buf = self.layer(id, TAG_DENSE);
        buf.extend_from_slice(&(values.len() as u32).to_le_bytes());
        put_words_le(buf, values.iter().map(|x| x.to_le_bytes()));
    }

    /// Writes signed QSGD levels as the next layer, bit-packed offset-binary
    /// (level + `num_levels`) in place through the tier-dispatched kernel.
    pub(crate) fn put_quantized(
        &mut self,
        id: u32,
        bits: u8,
        num_levels: u8,
        scale: f32,
        levels: &[i8],
    ) {
        let buf = self.layer(id, TAG_QUANTIZED);
        buf.extend_from_slice(&[bits, num_levels]);
        buf.extend_from_slice(&scale.to_le_bytes());
        buf.extend_from_slice(&(levels.len() as u32).to_le_bytes());
        let width = quantized_width(bits);
        let packed = put_zeroed(buf, dataplane::packed_len(levels.len(), width));
        dataplane::pack_levels(levels, num_levels, width, packed);
    }

    /// Writes top-k index/value runs over a dense length as the next layer.
    pub(crate) fn put_sparse(&mut self, id: u32, len: usize, indices: &[u32], values: &[f32]) {
        let buf = self.layer(id, TAG_SPARSE);
        buf.extend_from_slice(&(len as u32).to_le_bytes());
        buf.extend_from_slice(&(indices.len() as u32).to_le_bytes());
        put_words_le(buf, indices.iter().map(|i| i.to_le_bytes()));
        put_words_le(buf, values.iter().map(|x| x.to_le_bytes()));
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
    pub fn finish(self) -> Vec<u8> {
        assert_eq!(self.pending, 0, "message is missing layers");
        self.buf
    }
}

/// Encodes a message to bytes.
pub fn encode(msg: &UpdateMessage) -> Vec<u8> {
    let mut w = MessageWriter::with_capacity(message_wire_len(msg));
    w.begin(msg.round, msg.client, msg.layers.len());
    for (id, payload) in &msg.layers {
        w.put(*id, payload);
    }
    w.finish()
}

/// Decodes a message from bytes into owned payloads: a loop over
/// [`MessageReader`], so validation and bounds checks live in one parser.
pub fn decode(bytes: &[u8]) -> Result<UpdateMessage, WireError> {
    let mut reader = MessageReader::new(bytes)?;
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

/// Walks a buffer of concatenated messages — an upload and its eager
/// sidecar — handing every `(layer id, view)` to `f` in wire order. Stops
/// at the first parse error or the first error `f` returns.
pub fn for_each_layer<'a>(
    buf: &'a [u8],
    mut f: impl FnMut(u32, PayloadView<'a>) -> Result<(), WireError>,
) -> Result<(), WireError> {
    let mut pos = 0usize;
    while pos < buf.len() {
        let mut reader = MessageReader::new(&buf[pos..])?;
        while let Some(layer) = reader.next_layer() {
            let (id, view) = layer?;
            f(id, view)?;
        }
        pos += reader.consumed();
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Zero-copy message reader: borrowed payload views over an encoded buffer.
//
// The server reads an upload twice and copies none of it: at ingest it
// checks each view's length and finiteness, and at round close it walks the
// same bytes again, folding packed quantized runs straight through the
// fused dequantize-accumulate kernel and decoding everything else into one
// layer-sized scratch buffer. The reader parses the wire format into
// `&[u8]` views without allocating; it is the format's only parser.
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
}

impl PayloadView<'_> {
    /// Dense length of the decoded vector (mirrors [`Payload::len`]).
    pub fn len(&self) -> usize {
        match self {
            PayloadView::Dense { data } => data.len() / 4,
            PayloadView::Quantized { n, .. } => *n,
            PayloadView::Sparse { len, .. } => *len,
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
        }
    }

    /// Whether every value [`decode_into`](Self::decode_into) would write is
    /// finite, judged without decoding. Dense and sparse values are checked
    /// by bit pattern (a sparse value counts even if a later entry
    /// overwrites its index). A quantized run is checked on its header
    /// alone: a `width`-bit field decodes to at most `2^width − 1 − L` in
    /// magnitude, and never past 128 (fields wrap through `i8`), and
    /// `lev / L · scale` grows with |lev|, so every value is finite exactly
    /// when the widest one is — whatever the packed bytes hold, since they
    /// come from outside the process. A zero scale decodes to zeros.
    pub fn decodes_finite(&self) -> bool {
        // An f32 is non-finite exactly when its exponent bits are all ones.
        // A branch-free max over the exponent fields lets the scan vectorize.
        let finite = |words: &[u8]| {
            let exp = |c: &[u8]| u32::from_le_bytes([c[0], c[1], c[2], c[3]]) & 0x7f80_0000;
            words.chunks_exact(4).map(exp).fold(0, u32::max) != 0x7f80_0000
        };
        match *self {
            PayloadView::Dense { data } => finite(data),
            PayloadView::Sparse { values, .. } => finite(values),
            PayloadView::Quantized {
                bits,
                num_levels,
                scale,
                n,
                ..
            } => {
                let widest = ((1u32 << quantized_width(bits)) - 1)
                    .saturating_sub(num_levels as u32)
                    .min(128);
                n == 0 || scale == 0.0 || (widest as f32 / num_levels as f32 * scale).is_finite()
            }
        }
    }

    /// Decodes into a caller-provided buffer — the product's one decoder:
    /// the server's fold and a client's read-back of its own upload both
    /// run it. The quantized arm runs the tier-dispatched fused
    /// unpack-dequantize kernel directly over the packed wire bytes.
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
        }
    }
}

/// Streaming zero-copy parser over one encoded [`UpdateMessage`].
///
/// Validates the header eagerly, then yields `(layer id, PayloadView)`
/// entries on demand. Validates structure (magic, version, bits range, the
/// level count `bits` implies, sparse index bounds, truncation) and ignores
/// any bytes after the last declared layer — which is what lets callers
/// walk concatenated messages via [`MessageReader::consumed`].
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
                TAG_DENSE => {
                    let n = self.take_u32_le()? as usize;
                    PayloadView::Dense {
                        data: self.take(4 * n)?,
                    }
                }
                TAG_QUANTIZED => {
                    let bits = self.take_u8()?;
                    if !(1..=8).contains(&bits) {
                        return Err(WireError::Malformed("quantization bits"));
                    }
                    let num_levels = self.take_u8()?;
                    if num_levels != crate::quantize::num_levels(bits) {
                        return Err(WireError::Malformed("quantization levels"));
                    }
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
                TAG_SPARSE => {
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
        assert_eq!(decode(b"xx"), Err(WireError::Truncated));
        let msg = UpdateMessage {
            round: 1,
            client: 1,
            layers: vec![(0, Payload::Dense(sample_vec(16, 10)))],
        };
        let good = encode(&msg);
        assert_eq!(decode(&good[..good.len() - 3]), Err(WireError::Truncated));
        let mut corrupted = good;
        corrupted[0] ^= 0xFF; // break magic
        assert!(matches!(
            decode(&corrupted),
            Err(WireError::Malformed("magic"))
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
                (3, Payload::Quantized(zero_q)),
                (4, Payload::Dense(Vec::new())),
                (
                    5,
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
        let mut reader = MessageReader::new(&bytes).expect("header parses");
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
                w.put(*id, p);
            }
        }
        assert_eq!(w.len(), total);
        let joined = w.finish();
        let mut expected = encode(&first);
        expected.extend_from_slice(&encode(&second));
        assert_eq!(joined, expected);
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
        let mut all = encode(&a);
        all.extend_from_slice(&encode(&b));
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
        // `for_each_layer` walks the same layers in the same order.
        let mut ids = Vec::new();
        for_each_layer(&all, |id, _| {
            ids.push(id);
            Ok(())
        })
        .expect("walks");
        let want: Vec<u32> = a
            .layers
            .iter()
            .chain(&b.layers)
            .map(|(id, _)| *id)
            .collect();
        assert_eq!(ids, want);
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
            let slice = &good[..cut];
            let via_decode = decode(slice).expect_err("truncated");
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
        // Every tag past the three payload kinds, 3 included, is unknown.
        for tag in [3u8, 7] {
            let mut bad = good.to_vec();
            bad[HEADER_LEN + 4] = tag; // first layer's payload tag
            let mut r = MessageReader::new(&bad).expect("header fine");
            assert_eq!(
                r.next_layer().expect("yields"),
                Err(WireError::Malformed("payload tag")),
                "tag {tag}"
            );
            // An error poisons the reader.
            assert!(r.next_layer().is_none());
        }
        // A level count other than the one `bits` implies: a zero would
        // divide every level by zero, a larger one shift the scale.
        let int8 = encode(&UpdateMessage {
            round: 0,
            client: 0,
            layers: vec![(0, Payload::Quantized(crate::quantize_det(&[1.0, -0.5], 8)))],
        });
        for num_levels in [0u8, 126, 128, 255] {
            let mut bad = int8.to_vec();
            bad[HEADER_LEN + 4 + 1 + 1] = num_levels; // after id, tag and bits
            let want = Some(WireError::Malformed("quantization levels"));
            assert_eq!(decode(&bad).err(), want, "L={num_levels}");
            let mut r = MessageReader::new(&bad).expect("header fine");
            assert_eq!(r.next_layer().expect("yields").err(), want);
        }
    }
}
