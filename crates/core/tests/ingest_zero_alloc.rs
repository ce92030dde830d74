//! Pins the zero-allocation property of warmed-up ingest-time decode.
//!
//! A counting global allocator wraps `System`; after one warm-up round
//! sizes the server's update arena (per-ordinal staging vectors, segment
//! maps, fold buffer), ingesting a full cohort of wire-carrying reports —
//! structural decode, dense staging, packed-span recording, and the
//! non-finite scan — must perform ZERO heap allocations. (The round's
//! per-ordinal report slots are allocated by `begin_round`, before the
//! count starts.)
//!
//! Everything runs inside ONE `#[test]` — libtest runs tests on parallel
//! threads by default, and a second test's allocations would pollute the
//! global counter mid-measurement.

use fedca_compress::quantize_det;
use fedca_compress::wire::{self, Payload, UpdateMessage};
use fedca_core::client::ClientRoundReport;
use fedca_core::params::ModelLayout;
use fedca_core::server::Server;
use fedca_nn::model::ParamSpan;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

// Odd sizes exercise the packed decode's tail handling.
const SIZES: [usize; 3] = [129, 67, 60];
const DIM: usize = 256;
const COHORT: usize = 8;

fn layout() -> Arc<ModelLayout> {
    let mut spans = Vec::new();
    let mut start = 0;
    for (l, len) in SIZES.iter().enumerate() {
        spans.push(ParamSpan {
            name: format!("layer{l}"),
            range: start..start + len,
        });
        start += len;
    }
    assert_eq!(start, DIM);
    Arc::new(ModelLayout::from_spans(&spans))
}

/// One wire-carrying report: layer 0 dense, layers 1–2 quantized (so the
/// measured path covers both staging decode and packed-span recording).
fn wire_report(layout: &Arc<ModelLayout>, client: usize) -> ClientRoundReport {
    let values: Vec<f32> = (0..DIM)
        .map(|j| ((client * DIM + j) as f32 * 0.37).sin())
        .collect();
    let mut msg = UpdateMessage {
        round: 0,
        client: client as u32,
        layers: Vec::new(),
    };
    for l in 0..SIZES.len() {
        let r = layout.range(l);
        let payload = if l == 0 {
            Payload::Dense(values[r.clone()].to_vec())
        } else {
            Payload::Quantized(quantize_det(&values[r.clone()], 4))
        };
        msg.layers.push((l as u32, payload));
    }
    ClientRoundReport {
        client_id: client,
        weight: 1.0 + client as f64,
        wire_update: Some(wire::encode(&msg)),
        iters_done: 3,
        early_stopped: false,
        download_done: 0.05,
        compute_done: 0.5,
        upload_done: 1.0 + client as f64 * 0.1,
        eager_outcomes: Vec::new(),
        bytes_uploaded: 16.0,
        wire_bytes_uploaded: 16.0,
        wire_bytes_dense: 16.0,
        train_loss: 0.5,
        dropped: false,
        crashed: false,
        trace: Default::default(),
    }
}

#[test]
fn warmed_up_ingest_allocates_nothing() {
    let layout = layout();
    let mut server = Server::new(layout.clone(), vec![0.0; DIM], 0.9, 5.0);
    let reports: Vec<ClientRoundReport> = (0..COHORT).map(|c| wire_report(&layout, c)).collect();

    // Warm-up round: sizes the arena slots, segment maps, and fold buffer.
    let mut agg = server.begin_round(0.0, COHORT);
    for (ord, r) in reports.iter().enumerate() {
        agg.ingest(ord, r.clone());
    }
    let (res, _) = agg.close(&mut server);
    assert_eq!(res.collected.len(), COHORT);

    // Measured round: clone the reports and open the aggregator BEFORE
    // measuring (report clones and the per-round option vector are the
    // caller's cost); the ingest calls themselves must not allocate.
    let round1: Vec<ClientRoundReport> = reports.to_vec();
    let mut agg = server.begin_round(0.0, COHORT);
    let before = ALLOCS.load(Ordering::Relaxed);
    for (ord, r) in round1.into_iter().enumerate() {
        agg.ingest(ord, r);
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "warmed-up ingest performed {} heap allocations",
        after - before
    );

    // The measured round still folds correctly (bit-identical to warm-up:
    // same reports, same weights, same global starting delta shape).
    let (res, _) = agg.close(&mut server);
    assert_eq!(res.collected.len(), COHORT);
    assert!(res.rejected.is_empty());
    assert!(server.global().as_slice().iter().all(|v| v.is_finite()));
}
