//! Property test: streaming aggregation ingested in arbitrary completion
//! order is equivalent to the batch aggregation path.

use fedca_compress::wire::{self, Payload, UpdateMessage};
use fedca_core::client::ClientRoundReport;
use fedca_core::params::ModelLayout;
use fedca_core::server::{AggregationResult, Server};
use fedca_nn::model::ParamSpan;
use proptest::prelude::*;
use std::sync::Arc;

const DIM: usize = 4;

fn layout() -> Arc<ModelLayout> {
    Arc::new(ModelLayout::from_spans(&[ParamSpan {
        name: "w".into(),
        range: 0..DIM,
    }]))
}

fn report(
    client_id: usize,
    upload_done: f64,
    weight: f64,
    update: Vec<f32>,
    crashed: bool,
) -> ClientRoundReport {
    // The upload is its wire bytes: one dense layer. A crashed client
    // sent nothing.
    let msg = UpdateMessage {
        round: 0,
        client: client_id as u32,
        layers: vec![(0, Payload::Dense(update))],
    };
    ClientRoundReport {
        client_id,
        weight,
        wire_update: (!crashed).then(|| wire::encode(&msg)),
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
        crashed,
        trace: Default::default(),
    }
}

fn server() -> Server {
    Server::new(layout(), vec![0.0; DIM], 0.9, 5.0)
}

/// The batch reference: every report ingested in ordinal order, then one
/// close.
fn aggregate_round(server: &mut Server, reports: &[ClientRoundReport]) -> AggregationResult {
    let mut agg = server.begin_round(0.0, reports.len());
    for (ord, r) in reports.iter().enumerate() {
        agg.ingest(ord, r.clone());
    }
    agg.close(server).0
}

proptest! {
    #[test]
    fn streaming_aggregation_matches_batch_for_any_arrival_order(
        (arrivals, weights, updates, prios) in (2usize..16).prop_flat_map(|n| (
            // (arrival time, loss marker): marker 0 → the client crashed
            // and its upload never arrives (+inf).
            prop::collection::vec((0.1f64..100.0, 0u8..5u8), n),
            prop::collection::vec(0.5f64..20.0, n),
            prop::collection::vec(prop::collection::vec(-5.0f32..5.0, DIM), n),
            // Ingestion priorities: induce a random completion order.
            prop::collection::vec(0u64..1_000_000, n),
        ))
    ) {
        let n = arrivals.len();
        // Marker 0 → the client crashed (a +inf report exists); marker 1 →
        // the client's worker panicked (no report at all: the streaming
        // path marks the ordinal failed). Client 0 always survives so the
        // round can complete.
        let failed: Vec<bool> = (0..n).map(|i| arrivals[i].1 == 1 && i != 0).collect();
        let reports: Vec<ClientRoundReport> = (0..n)
            .map(|i| {
                let crashed = arrivals[i].1 == 0 && i != 0;
                let t = if crashed || failed[i] { f64::INFINITY } else { arrivals[i].0 };
                report(i, t, weights[i], updates[i].clone(), crashed)
            })
            .collect();

        // The batch reference sees failed clients as +inf stragglers whose
        // update never aggregates — the paper-§5.1 cut semantics.
        let mut batch = server();
        let batch_res = aggregate_round(&mut batch, &reports);

        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (prios[i], i));
        let mut streaming = server();
        let mut agg = streaming.begin_round(0.0, n);
        for &ord in &order {
            if failed[ord] {
                agg.mark_failed(ord);
            } else {
                agg.ingest(ord, reports[ord].clone());
            }
        }
        let (res, back) = agg.close(&mut streaming);

        prop_assert_eq!(&res.collected, &batch_res.collected);
        prop_assert_eq!(res.completion, batch_res.completion);
        prop_assert_eq!(back.len(), n);
        for (i, (b, s)) in batch
            .global()
            .as_slice()
            .iter()
            .zip(streaming.global().as_slice())
            .enumerate()
        {
            prop_assert!((b - s).abs() < 1e-6, "global[{}]: batch {} vs streaming {}", i, b, s);
        }
    }
}
