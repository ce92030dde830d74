//! Pins the allocation profile of the server's streaming aggregator.
//!
//! The server keeps no copy of an upload: ingest checks a report's wire
//! bytes in place (tiling, lengths, finiteness) and keeps the report, and
//! round close folds straight from those bytes into one accumulator, through
//! one layer-sized scratch buffer. A counting global allocator wraps
//! `System`; after one warm-up round has sized the fold accumulator and the
//! scratch, two measured rounds — one at the warm-up cohort, one at four
//! times it — must show
//!
//! * ZERO heap allocations while a cohort of wire-carrying reports is
//!   ingested, however many ordinals the round has (a per-ordinal decode
//!   slot would allocate for every ordinal past the warm-up cohort), and
//! * fewer bytes allocated by `close` than one model's `total_params × 4`,
//!   so no per-ordinal copy of an update can come back at close either.
//!
//! (The round's per-ordinal report slots and per-layer flags are allocated
//! by `begin_round`, before the count starts.)
//!
//! Everything runs inside ONE `#[test]` — libtest runs tests on parallel
//! threads by default, and a second test's allocations would pollute the
//! global counters mid-measurement.

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
static BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

// Odd sizes exercise the packed decode's tail handling. Layer 0 is large
// enough that one model (`DIM × 4` bytes) outweighs close's bookkeeping for
// `4 × COHORT` ordinals.
const SIZES: [usize; 3] = [4029, 67, 60];
const DIM: usize = 4156;
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
/// measured paths cover both the scratch decode and the fused quantized
/// fold).
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
        crashed: false,
        trace: Default::default(),
    }
}

#[test]
fn warmed_up_ingest_allocates_nothing() {
    let layout = layout();
    let mut server = Server::new(layout.clone(), vec![0.0; DIM], 0.9, 5.0);
    let reports: Vec<ClientRoundReport> =
        (0..4 * COHORT).map(|c| wire_report(&layout, c)).collect();

    // Warm-up round: sizes the fold accumulator and the decode scratch.
    let mut agg = server.begin_round(0.0, COHORT);
    for (ord, r) in reports[..COHORT].iter().enumerate() {
        agg.ingest(ord, r.clone());
    }
    let (res, _) = agg.close(&mut server);
    assert_eq!(res.collected.len(), COHORT);

    for cohort in [COHORT, 4 * COHORT] {
        // Clone the reports and open the aggregator BEFORE measuring (report
        // clones and the per-round slot vector are the caller's cost); the
        // ingest calls themselves must not allocate.
        let round: Vec<ClientRoundReport> = reports[..cohort].to_vec();
        let mut agg = server.begin_round(0.0, cohort);
        let before = ALLOCS.load(Ordering::Relaxed);
        for (ord, r) in round.into_iter().enumerate() {
            agg.ingest(ord, r);
        }
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        assert_eq!(
            allocs, 0,
            "cohort {cohort}: warmed-up ingest performed {allocs} heap allocations"
        );

        // Close allocates only the round's bookkeeping (arrivals, the
        // returned reports, the collected list), never an update's worth.
        let before = BYTES.load(Ordering::Relaxed);
        let (res, _) = agg.close(&mut server);
        let bytes = BYTES.load(Ordering::Relaxed) - before;
        assert!(
            bytes < DIM * 4,
            "cohort {cohort}: close allocated {bytes} B, a model is {} B",
            DIM * 4
        );
        assert_eq!(res.collected.len(), (cohort * 9).div_ceil(10));
        assert!(res.rejected.is_empty());
        assert!(server.global().as_slice().iter().all(|v| v.is_finite()));
    }
}
