//! Server data-plane kernels: the wire codec scan/quantize/pack tiers, the
//! fold's axpy, and the headline fused dequantize-accumulate — benched
//! against its unfused decode-then-axpy equivalent (the ≥2× claim
//! `scripts/dataplane_check.sh` gates), plus the end-to-end cohort ingest
//! path through the server's pooled arena.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fedca_compress::quantize_det;
use fedca_compress::wire::{self, Payload, UpdateMessage};
use fedca_core::client::ClientRoundReport;
use fedca_core::params::ModelLayout;
use fedca_core::server::Server;
use fedca_nn::model::ParamSpan;
use fedca_tensor::dataplane;
use fedca_tensor::gemm::Kernel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

const N: usize = 500_000;
const BITS: u8 = 4;
const NUM_LEVELS: u8 = (1 << (BITS - 1)) - 1; // quantize_det's level count
const WIDTH: u32 = (BITS + 1) as u32;

fn values(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-0.1..0.1)).collect()
}

fn bench_codecs(c: &mut Criterion) {
    let x = values(N, 7);
    let scale = dataplane::max_abs(&x);
    let mut levels = vec![0i8; N];
    dataplane::quantize_levels(&x, scale, NUM_LEVELS, &mut levels);
    let mut packed = vec![0u8; dataplane::packed_len(N, WIDTH)];
    dataplane::pack_levels(&levels, NUM_LEVELS, WIDTH, &mut packed);

    c.bench_function("data_plane/max_abs/500k", |b| {
        b.iter(|| black_box(dataplane::max_abs(black_box(&x))))
    });
    c.bench_function("data_plane/quantize_pack/500k", |b| {
        let mut lv = vec![0i8; N];
        let mut out = vec![0u8; dataplane::packed_len(N, WIDTH)];
        b.iter(|| {
            dataplane::quantize_levels(black_box(&x), scale, NUM_LEVELS, &mut lv);
            dataplane::pack_levels(&lv, NUM_LEVELS, WIDTH, &mut out);
            black_box(out[0])
        })
    });
    c.bench_function("data_plane/unpack/500k", |b| {
        let mut lv = vec![0i8; N];
        b.iter(|| {
            dataplane::unpack_levels(black_box(&packed), NUM_LEVELS, WIDTH, &mut lv);
            black_box(lv[0])
        })
    });
    c.bench_function("data_plane/axpy/500k", |b| {
        let mut y = vec![0.0f32; N];
        b.iter(|| {
            dataplane::axpy(0.125, black_box(&x), &mut y);
            black_box(y[0])
        })
    });
    // The headline pair: fused dequantize-accumulate straight from the
    // packed bytes vs the unfused decode-to-scratch-then-axpy it replaces.
    c.bench_function("data_plane/fused_dequant_axpy/500k", |b| {
        let mut y = vec![0.0f32; N];
        b.iter(|| {
            dataplane::axpy_quantized(0.125, scale, NUM_LEVELS, WIDTH, black_box(&packed), &mut y);
            black_box(y[0])
        })
    });
    c.bench_function("data_plane/unfused_dequant_axpy/500k", |b| {
        let mut scratch = vec![0.0f32; N];
        let mut y = vec![0.0f32; N];
        b.iter(|| {
            dataplane::dequantize_packed(
                black_box(&packed),
                scale,
                NUM_LEVELS,
                WIDTH,
                &mut scratch,
            );
            dataplane::axpy(0.125, &scratch, &mut y);
            black_box(y[0])
        })
    });
    // The pre-refactor reference the ≥2× gate is measured against: scalar
    // decode into a scratch vector, then scalar accumulate.
    c.bench_function("data_plane/unfused_scalar/500k", |b| {
        let mut scratch = vec![0.0f32; N];
        let mut y = vec![0.0f32; N];
        b.iter(|| {
            dataplane::dequantize_packed_on(
                Kernel::Scalar,
                black_box(&packed),
                scale,
                NUM_LEVELS,
                WIDTH,
                &mut scratch,
            );
            dataplane::axpy_on(Kernel::Scalar, 0.125, &scratch, &mut y);
            black_box(y[0])
        })
    });
}

fn bench_ingest(c: &mut Criterion) {
    // End-to-end: a 16-client cohort of quantized wire uploads through the
    // server's pooled arena (ingest-time decode + round-close fused fold).
    let (clients, params) = (16usize, 60_000usize);
    let layout = Arc::new(ModelLayout::from_spans(&[ParamSpan {
        name: "all".into(),
        range: 0..params,
    }]));
    let reports: Vec<ClientRoundReport> = (0..clients)
        .map(|i| {
            let x = values(params, 100 + i as u64);
            let msg = UpdateMessage {
                round: 0,
                client: i as u32,
                layers: vec![(0, Payload::Quantized(quantize_det(&x, 8)))],
            };
            ClientRoundReport {
                client_id: i,
                weight: 1.0,
                wire_update: Some(wire::encode(&msg)),
                iters_done: 3,
                early_stopped: false,
                download_done: 0.05,
                compute_done: 0.5,
                upload_done: 1.0 + i as f64 * 0.1,
                eager_outcomes: Vec::new(),
                bytes_uploaded: 16.0,
                wire_bytes_uploaded: 16.0,
                wire_bytes_dense: 16.0,
                train_loss: 0.5,
                dropped: false,
                crashed: false,
                trace: Default::default(),
            }
        })
        .collect();
    let mut server = Server::new(layout, vec![0.0; params], 0.9, 5.0);
    c.bench_function("data_plane/ingest_cohort/16cx60kp", |b| {
        b.iter(|| {
            let mut agg = server.begin_round(0.0, clients);
            for (ord, r) in reports.iter().enumerate() {
                agg.ingest(ord, r.clone());
            }
            let (res, _) = agg.close(&mut server);
            black_box(res.collected.len())
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(Duration::from_secs(4))
        .warm_up_time(Duration::from_secs(1));
    targets = bench_codecs, bench_ingest
}
criterion_main!(benches);
