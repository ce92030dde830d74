//! The shard link: framing plus liveness over one Unix socket, and one
//! failure signal.
//!
//! Both endpoints of a coordinator↔shard socket wrap their half in a
//! [`Link`]. `send` stamps each application frame with the next sequence
//! number and a checksum (the [`fedca_compress::wire`] frame layer) and
//! writes it; a reader thread decodes inbound frames and hands them to the
//! owner's sink in wire order. A `SOCK_STREAM` Unix socket neither drops,
//! duplicates nor reorders, so the link repairs nothing — it only
//! *detects*. EOF, an I/O error, any [`FrameError`](wire::FrameError) (bad
//! magic, unknown kind, oversize length prefix, checksum mismatch,
//! truncation), a sequence number other than the next one, or — on the
//! root side, which probes its child with Ping/Pong — `missed_limit`
//! consecutive silent heartbeat periods each end the link with exactly one
//! [`LinkEvent::Down`] naming the check that fired, and no frame is
//! delivered after it. What to do about it is the owner's business (see
//! [`crate::shard`]: kill the child, run its outstanding work locally).
//!
//! Threads: one reader per link; the root side adds a liveness thread that
//! wakes once per heartbeat period. The child side answers pings from its
//! reader and initiates nothing — a dead root surfaces there as EOF.

use crate::trace::TraceEvent;
use bytes::Bytes;
use fedca_compress::wire::{self, Frame, FrameKind};
use parking_lot::Mutex;
use serde::Serialize;
use std::io::{BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The [`LinkEvent::Down`] reason for a peer that closed the socket cleanly.
pub const EOF: &str = "eof";

/// What a link delivers to its owner's sink.
#[derive(Debug)]
pub enum LinkEvent {
    /// The next application frame (Control or Update kind), in wire order.
    Frame(Frame),
    /// The link is finished, and why (`eof`, `frame checksum mismatch…`,
    /// `sequence gap…`, `heartbeat…`, …). Sent once; nothing follows it.
    Down(String),
}

/// The owner's event sink plus the flag that makes `Down` final. Both
/// link threads deliver through this one lock, so no frame can slip out
/// after a `Down`.
struct Delivery {
    down: bool,
    sink: Box<dyn FnMut(LinkEvent) + Send>,
}

struct LinkCore {
    shard: usize,
    max_frame_len: usize,
    /// Handle for `shutdown` only, so closing never waits behind a writer.
    stream: UnixStream,
    /// Write half and the next application sequence number.
    writer: Mutex<(UnixStream, u64)>,
    delivery: Mutex<Delivery>,
    /// Set by the reader on every valid frame; cleared once per heartbeat
    /// period by the liveness thread.
    heard: AtomicBool,
    /// Buffered [`TraceEvent::HeartbeatMissed`] notes, drained by the owner.
    notes: Mutex<Vec<TraceEvent>>,
}

impl LinkCore {
    /// Hands `ev` to the sink unless the link is already down, and reports
    /// whether it did. A `Down` is final: it also closes the socket, which
    /// wakes whichever thread (or blocked `send`) is still using it.
    fn emit(&self, ev: LinkEvent) -> bool {
        let ends = matches!(ev, LinkEvent::Down(_));
        let mut d = self.delivery.lock();
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

fn encode(kind: FrameKind, seq: u64, meta: Bytes, payload: Bytes) -> Bytes {
    wire::encode_frame(&Frame {
        kind,
        seq,
        meta,
        payload,
    })
}

/// A payloadless Ping/Pong frame; `seq` carries the probe's nonce.
fn probe(kind: FrameKind, nonce: u64) -> Bytes {
    encode(kind, nonce, Bytes::default(), Bytes::default())
}

/// One endpoint of a coordinator↔shard connection. See the module docs.
pub struct Link {
    core: Arc<LinkCore>,
    threads: Vec<JoinHandle<()>>,
    /// Dropping the sender stops the liveness thread (root side only).
    stop: Option<Sender<()>>,
}

impl Link {
    /// Wraps one side of a connected stream. `sink` receives every
    /// [`LinkEvent`] from the link's threads and must not call back into
    /// the link. `heartbeat` is `Some((period, missed_limit))` on the root
    /// side and `None` on the child side; `max_frame_len` caps inbound
    /// frames before anything is allocated.
    pub fn new(
        stream: UnixStream,
        shard: usize,
        max_frame_len: usize,
        heartbeat: Option<(Duration, u32)>,
        sink: impl FnMut(LinkEvent) + Send + 'static,
    ) -> std::io::Result<Self> {
        let read_stream = stream.try_clone()?;
        let core = Arc::new(LinkCore {
            shard,
            max_frame_len,
            writer: Mutex::new((stream.try_clone()?, 0)),
            stream,
            delivery: Mutex::new(Delivery {
                down: false,
                sink: Box::new(sink),
            }),
            heard: AtomicBool::new(false),
            notes: Mutex::new(Vec::new()),
        });
        let mut link = Link {
            core: core.clone(),
            threads: Vec::new(),
            stop: None,
        };
        let rx_core = core.clone();
        link.threads.push(
            std::thread::Builder::new()
                .name(format!("fedca-link-rx-{shard}"))
                .spawn(move || reader_loop(&rx_core, read_stream))?,
        );
        if let Some((period, limit)) = heartbeat {
            let (stop_tx, stop_rx) = channel();
            link.stop = Some(stop_tx);
            link.threads.push(
                std::thread::Builder::new()
                    .name(format!("fedca-link-hb-{shard}"))
                    .spawn(move || liveness_loop(&core, &stop_rx, period, limit))?,
            );
        }
        Ok(link)
    }

    /// Sends one application message: JSON metadata plus an optional
    /// binary payload, sequenced and checksummed.
    pub fn send<T: Serialize>(&self, msg: &T, payload: Option<Bytes>) -> std::io::Result<()> {
        let meta = serde_json::to_string(msg)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let payload = payload.unwrap_or_default();
        let kind = if payload.is_empty() {
            FrameKind::Control
        } else {
            FrameKind::Update
        };
        let mut w = self.core.writer.lock();
        let bytes = encode(kind, w.1, Bytes::from(meta.into_bytes()), payload);
        w.1 += 1;
        w.0.write_all(bytes.as_ref())
    }

    /// Drains the buffered heartbeat-miss notes (offstream trace events).
    pub fn take_notes(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.core.notes.lock())
    }
}

/// Dropping a link silences its sink, closes the socket and joins its
/// threads.
impl Drop for Link {
    fn drop(&mut self) {
        self.core.delivery.lock().down = true;
        let _ = self.core.stream.shutdown(std::net::Shutdown::Both);
        self.stop = None;
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

fn reader_loop(core: &LinkCore, read_stream: UnixStream) {
    let mut reader = BufReader::new(read_stream);
    let mut next_seq: u64 = 0;
    let reason = loop {
        let frame = match wire::read_frame(&mut reader, core.max_frame_len) {
            Ok(Some(frame)) => frame,
            Ok(None) => break EOF.to_string(),
            Err(e) => break e.to_string(),
        };
        core.heard.store(true, Ordering::Relaxed);
        match frame.kind {
            FrameKind::Ping => {
                // A write error here means the peer is going away; the next
                // read reports it.
                let pong = probe(FrameKind::Pong, frame.seq);
                let _ = core.writer.lock().0.write_all(pong.as_ref());
            }
            FrameKind::Pong => {}
            FrameKind::Control | FrameKind::Update => {
                if frame.seq != next_seq {
                    break format!("sequence gap: expected {next_seq}, got {}", frame.seq);
                }
                next_seq += 1;
                if !core.emit(LinkEvent::Frame(frame)) {
                    return;
                }
            }
        }
    };
    core.emit(LinkEvent::Down(reason));
}

/// Root-side liveness: one ping and one silence check per period.
fn liveness_loop(core: &LinkCore, stop: &Receiver<()>, period: Duration, limit: u32) {
    let mut misses: u32 = 0;
    for nonce in 0u64.. {
        // Never wait for the write lock: a `send` blocked on a peer that
        // stopped reading holds it, and that is exactly the peer this
        // thread must be free to declare dead.
        if let Some(mut w) = core.writer.try_lock() {
            let ping = probe(FrameKind::Ping, nonce);
            let _ = w.0.write_all(ping.as_ref());
        }
        if !matches!(stop.recv_timeout(period), Err(RecvTimeoutError::Timeout)) {
            return;
        }
        if core.heard.swap(false, Ordering::Relaxed) {
            misses = 0;
            continue;
        }
        misses += 1;
        core.notes.lock().push(TraceEvent::HeartbeatMissed {
            shard: core.shard,
            misses,
        });
        if misses >= limit {
            core.emit(LinkEvent::Down(format!(
                "heartbeat: {misses} consecutive silent periods"
            )));
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAP: usize = 1 << 16;

    fn link(stream: UnixStream, heartbeat: Option<(Duration, u32)>) -> (Link, Receiver<LinkEvent>) {
        let (tx, rx) = channel();
        let link = Link::new(stream, 0, CAP, heartbeat, move |ev| {
            let _ = tx.send(ev);
        })
        .expect("link");
        (link, rx)
    }

    fn frame(seq: u64) -> Vec<u8> {
        let meta = Bytes::from(seq.to_string().into_bytes());
        encode(FrameKind::Update, seq, meta, Bytes::from_static(&[1, 2, 3])).to_vec()
    }

    /// Everything the link delivers until it goes quiet for 300 ms.
    fn drain(rx: &Receiver<LinkEvent>) -> Vec<LinkEvent> {
        let mut got = Vec::new();
        while let Ok(ev) = rx.recv_timeout(Duration::from_millis(300)) {
            got.push(ev);
        }
        got
    }

    #[test]
    fn every_stream_fault_yields_exactly_one_down_and_no_frame_after_it() {
        let mut flipped = frame(1);
        *flipped.last_mut().expect("payload byte") ^= 0x40;
        let mut bad_magic = frame(1);
        bad_magic[0] ^= 0xFF;
        let mut oversize = frame(1);
        oversize[19..23].copy_from_slice(&(CAP as u32).to_le_bytes());
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
            la.send(&i, (i % 2 == 0).then(|| Bytes::from_static(b"p")))
                .expect("a->b");
            lb.send(&(1000 + i), None).expect("b->a");
        }
        let metas = |rx: &Receiver<LinkEvent>| -> Vec<String> {
            let frames = drain(rx).into_iter().map(|ev| match ev {
                LinkEvent::Frame(f) => String::from_utf8(f.meta.to_vec()).expect("utf-8"),
                LinkEvent::Down(r) => panic!("healthy link went down: {r}"),
            });
            frames.collect()
        };
        let want = |base: u64| (base..base + 40).map(|i| i.to_string()).collect::<Vec<_>>();
        assert_eq!(metas(&rx_b), want(0));
        assert_eq!(metas(&rx_a), want(1000));
    }

    #[test]
    fn silence_past_the_heartbeat_limit_is_one_down() {
        let (a, _silent_peer) = UnixStream::pair().expect("socketpair");
        let (la, rx) = link(a, Some((Duration::from_millis(20), 3)));
        let got = drain(&rx);
        assert!(
            matches!(&got[..], [LinkEvent::Down(r)] if r.contains("heartbeat")),
            "{got:?}"
        );
        let misses = (1..=3).map(|misses| TraceEvent::HeartbeatMissed { shard: 0, misses });
        assert_eq!(la.take_notes(), misses.collect::<Vec<_>>());
        assert!(la.send(&0u64, None).is_err());
    }

    #[test]
    fn responsive_peer_never_trips_the_heartbeat() {
        let (a, b) = UnixStream::pair().expect("socketpair");
        let (la, rx_a) = link(a, Some((Duration::from_millis(15), 3)));
        // The child side answers pings from its reader thread even though
        // it never initiates anything; no Down may arrive on either side.
        let (_lb, rx_b) = link(b, None);
        std::thread::sleep(Duration::from_millis(300));
        assert!(rx_a.try_recv().is_err() && rx_b.try_recv().is_err());
        assert!(la.take_notes().is_empty());
    }
}
