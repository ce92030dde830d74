//! Property test: the wire-decoding ingest data plane is bit-identical to
//! the dense reference fold.
//!
//! Every report carries its update as encoded wire bytes — its only form —
//! and goes through the server's ingest check and its fold from those
//! bytes (fused dequantize-accumulate straight from packed runs, decode
//! then AXPY otherwise). The global model must move, bit for bit, by
//! `params::aggregate` over what those bytes decode to, with nothing
//! rejected. Payload codecs, layer→message splits (emulating an upload's
//! final message followed by its accepted eager frames, one layer each),
//! arrival orders, and server reuse across consecutive rounds are all
//! randomized.

use fedca_compress::wire::{self, Payload, UpdateMessage};
use fedca_compress::{quantize, quantize_det, top_k};
use fedca_core::client::ClientRoundReport;
use fedca_core::params::{aggregate, ModelLayout, UpdateVec};
use fedca_core::server::Server;
use fedca_nn::model::ParamSpan;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

// Odd, unequal layer sizes exercise the packed codecs' tail lanes.
const SIZES: [usize; 3] = [7, 12, 5];
const DIM: usize = 24;

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

/// Encodes one layer under the codec selected by `codec`, mirroring the
/// client's compression table plus the zero-scale quantized edge case.
fn encode_layer(codec: u8, values: &[f32], rng: &mut StdRng) -> Payload {
    match codec % 4 {
        0 => Payload::Dense(values.to_vec()),
        1 => Payload::Quantized(quantize_det(values, 8)),
        2 => Payload::Quantized(quantize(values, 2, rng)),
        _ => Payload::Sparse(top_k(values, 0.5)),
    }
}

/// Builds the concatenated wire form: layers whose bit in `split_mask` is
/// set each travel in a single-layer message after the main one (the
/// eager-frame shape), and the returned dense vector is exactly what those
/// bytes decode to.
fn wire_form(
    client: usize,
    codecs: &[u8],
    split_mask: u8,
    values: &[Vec<f32>],
    rng: &mut StdRng,
) -> (Vec<u8>, Vec<f32>) {
    let mut dense = vec![0.0f32; DIM];
    let mut main = UpdateMessage {
        round: 0,
        client: client as u32,
        layers: Vec::new(),
    };
    let mut frames = Vec::new();
    let mut start = 0;
    for (l, len) in SIZES.iter().enumerate() {
        let payload = encode_layer(codecs[l], &values[l], rng);
        dense[start..start + len].copy_from_slice(&payload.to_dense());
        start += len;
        if split_mask & (1 << l) != 0 {
            frames.push(wire::encode(&UpdateMessage {
                round: 0,
                client: client as u32,
                layers: vec![(l as u32, payload)],
            }));
        } else {
            main.layers.push((l as u32, payload));
        }
    }
    let mut joined = wire::encode(&main);
    frames
        .iter()
        .for_each(|frame| joined.extend_from_slice(frame));
    (joined, dense)
}

fn report(
    client_id: usize,
    upload_done: f64,
    weight: f64,
    wire_update: Vec<u8>,
) -> ClientRoundReport {
    ClientRoundReport {
        client_id,
        weight,
        wire_update: Some(wire_update),
        iters_done: 3,
        early_stopped: false,
        download_done: 0.05,
        compute_done: upload_done.min(1e12),
        upload_done,
        eager_outcomes: Vec::new(),
        bytes_uploaded: 16.0,
        wire_bytes_uploaded: 16.0,
        wire_bytes_dense: 16.0,
        train_loss: 0.5,
        crashed: false,
        trace: Default::default(),
    }
}

fn server() -> Server {
    Server::new(layout(), vec![0.0; DIM], 0.9, 5.0)
}

proptest! {
    #[test]
    fn wire_ingest_matches_dense_reference_bit_for_bit(
        (clients, prios, qseed) in (2usize..10).prop_flat_map(|n| (
            prop::collection::vec(
                (
                    0.1f64..100.0,                                  // arrival
                    0.5f64..20.0,                                   // weight
                    prop::collection::vec(0u8..4u8, SIZES.len()),   // codecs
                    0u8..8u8,                                       // split mask
                    prop::collection::vec(
                        prop::collection::vec(-5.0f32..5.0, SIZES[0].max(SIZES[1]).max(SIZES[2])),
                        SIZES.len(),
                    ),
                ),
                n,
            ),
            prop::collection::vec(0u64..1_000_000, n),
            0u64..u64::MAX,
        ))
    ) {
        let n = clients.len();
        let mut qrng = StdRng::seed_from_u64(qseed);
        let mut reports = Vec::with_capacity(n);
        let mut decoded = Vec::with_capacity(n);
        for (i, (arrival, weight, codecs, split, raw)) in clients.iter().enumerate() {
            let values: Vec<Vec<f32>> = SIZES
                .iter()
                .enumerate()
                .map(|(l, &len)| raw[l][..len].to_vec())
                .collect();
            let (bytes, dense) = wire_form(i, codecs, *split, &values, &mut qrng);
            reports.push(report(i, *arrival, *weight, bytes));
            decoded.push(UpdateVec::from_vec(layout(), dense));
        }

        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (prios[i], i));

        let mut srv = server();
        let mut reference = UpdateVec::zeros(layout());
        // Two rounds with the same reports on one server: state left over
        // from the first round's ingest or fold would show in the second.
        for round in 0..2 {
            let mut agg = srv.begin_round(0.0, n);
            for &ord in &order {
                agg.ingest(ord, reports[ord].clone());
            }
            let (res, _) = agg.close(&mut srv);
            prop_assert!(res.rejected.is_empty(), "round {}", round);
            prop_assert!(!res.collected.is_empty(), "round {}", round);
            // The dense reference over exactly the collected clients.
            let updates: Vec<(&UpdateVec, f64)> = res
                .collected
                .iter()
                .map(|&i| (&decoded[i], clients[i].1))
                .collect();
            reference.axpy(1.0, &aggregate(&updates));
            let w = srv.global().as_slice();
            let d = reference.as_slice();
            for j in 0..DIM {
                prop_assert_eq!(
                    w[j].to_bits(),
                    d[j].to_bits(),
                    "round {}, global[{}]: wire {} vs dense {}",
                    round, j, w[j], d[j]
                );
            }
        }
    }
}
