//! The FL server: client selection, deadline offload, partial aggregation.
//!
//! The server keeps no copy of an upload. [`StreamingAggregator::ingest`]
//! checks a report's wire bytes once, on arrival — every layer of the
//! layout exactly once, at its length, decoding finite — and keeps the
//! report. [`StreamingAggregator::close`] cuts the round and walks each
//! collected upload's bytes once more, in ordinal order, folding them into
//! one accumulator. The [`Server`] owns that accumulator and one
//! layer-sized scratch buffer, and nothing per ordinal.

use crate::algorithms::{fedada_iterations, Scheme};
use crate::client::ClientRoundReport;
use crate::deadline::{compute_deadline, DurationEstimator};
use crate::params::{ModelLayout, UpdateVec};
use fedca_compress::wire::{self, PayloadView, WireError};
use fedca_sim::engine::round_completion_time;
use fedca_sim::SimTime;
use fedca_tensor::dataplane;
use rand::Rng;
use std::sync::Arc;

/// Server state: the global model (as a flat vector), the per-client
/// duration estimates that drive deadlines and FedAda's workload tuning,
/// and the two buffers round close reuses: the fold accumulator and the
/// scratch a non-quantized layer decodes into.
pub struct Server {
    global: UpdateVec,
    estimator: DurationEstimator,
    aggregation_fraction: f64,
    /// Round-close fold accumulator (the weighted-mean delta).
    fold: Vec<f32>,
    /// One layer's decoded values at round close.
    scratch: Vec<f32>,
}

/// Result of one aggregation step.
#[derive(Debug)]
pub struct AggregationResult {
    /// Virtual time at which the round completed.
    pub completion: SimTime,
    /// Indices (into the round's report list) of the collected clients.
    pub collected: Vec<usize>,
    /// Uploads that actually arrived (finite arrival times), collected or
    /// not — the trace layer journals this next to the cut decision.
    pub n_finite: usize,
    /// Ordinals, ascending, whose arrived upload ingest rejected (bytes that
    /// are not an exact finite tiling, or a non-finite weight). Their
    /// reports are returned like any other but never collected or folded.
    pub rejected: Vec<usize>,
    /// Host microseconds spent checking wire uploads at ingest time (the
    /// tiling and finiteness check; the decode itself runs at close).
    /// Operational only.
    pub decode_host_us: f64,
}

impl Server {
    /// Creates a server with initial global parameters. The duration
    /// estimator is sparse: no per-client table is allocated up front, so
    /// server memory is independent of the population size.
    pub fn new(
        layout: Arc<ModelLayout>,
        initial: Vec<f32>,
        aggregation_fraction: f64,
        default_round_duration: SimTime,
    ) -> Self {
        Server {
            global: UpdateVec::from_vec(layout, initial),
            estimator: DurationEstimator::new(0.3, default_round_duration),
            aggregation_fraction,
            fold: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// The current global parameters.
    pub fn global(&self) -> &UpdateVec {
        &self.global
    }

    /// Uniform-random client selection without replacement.
    ///
    /// Sparse partial Fisher-Yates: instead of materializing the full
    /// `0..n_total` pool (ruinous at a million clients), only displaced
    /// slots are tracked in a hash map. The RNG draw sequence and the
    /// resulting selection are identical to the dense `pool.swap(i, j)`
    /// formulation, at O(n_select) time and memory.
    pub fn select_clients(
        &self,
        n_total: usize,
        n_select: usize,
        rng: &mut impl Rng,
    ) -> Vec<usize> {
        assert!(n_select <= n_total, "cannot select {n_select} of {n_total}");
        let mut displaced: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::new();
        let mut out = Vec::with_capacity(n_select);
        for i in 0..n_select {
            let j = rng.gen_range(i..n_total);
            let vj = *displaced.get(&j).unwrap_or(&j);
            let vi = *displaced.get(&i).unwrap_or(&i);
            displaced.insert(j, vi);
            out.push(vj);
        }
        out
    }

    /// The round deadline `T_R` the server offloads to the selected clients
    /// (FedBalancer-style, from predicted full-round durations).
    pub fn round_deadline(&self, selected: &[usize]) -> SimTime {
        let predicted: Vec<SimTime> = selected
            .iter()
            .map(|&c| self.estimator.predict(c))
            .collect();
        compute_deadline(&predicted)
    }

    /// Per-client planned iteration counts for this round. FedAda shrinks
    /// stragglers' workloads server-side; every other scheme plans `k`.
    pub fn plan_iterations(&self, scheme: &Scheme, selected: &[usize], k: usize) -> Vec<usize> {
        match scheme {
            Scheme::FedAda { theta } => {
                let predicted: Vec<f64> = selected
                    .iter()
                    .map(|&c| self.estimator.predict(c))
                    .collect();
                let mut sorted = predicted.clone();
                sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN"));
                let target = sorted[sorted.len() / 2]; // median pace
                predicted
                    .iter()
                    .map(|&d| fedada_iterations(k, d, target, *theta))
                    .collect()
            }
            _ => vec![k; selected.len()],
        }
    }

    /// Opens a round for streaming aggregation: client reports are ingested
    /// one by one as uploads complete — each upload's bytes are checked on
    /// arrival — and folded into the global model when the aggregator is
    /// [closed](StreamingAggregator::close).
    pub fn begin_round(&mut self, round_start: SimTime, n_selected: usize) -> StreamingAggregator {
        assert!(n_selected > 0, "no clients selected");
        let layout = Arc::clone(self.global.layout());
        StreamingAggregator {
            round_start,
            fraction: self.aggregation_fraction,
            seen: vec![false; layout.num_layers()],
            layout,
            slots: (0..n_selected).map(|_| Slot::Pending).collect(),
            fallback_completion: None,
            decode_host_us: 0.0,
        }
    }
}

/// What the aggregator holds for one ordinal of the round.
enum Slot {
    /// Neither ingested nor marked failed yet.
    Pending,
    /// The client failed without a report.
    Failed,
    /// An ingested report whose upload ingest accepted (or that never
    /// arrived, so there was nothing to judge).
    Accepted(ClientRoundReport),
    /// An ingested report whose upload ingest rejected.
    Rejected(ClientRoundReport),
}

/// Aggregation state for one round.
///
/// Reports are ingested in whatever order client uploads complete, and each
/// upload is checked on arrival; the aggregator only remembers, per
/// ordinal, the report and whether its upload was accepted. The arrival
/// cut and the weighted fold both wait for [`close`](Self::close), which
/// builds the arrival times from the reports it holds, computes the cut
/// with [`round_completion_time`], and folds the collected reports in
/// canonical (report-ordinal) order — so the result is bit-identical
/// regardless of ingestion order.
pub struct StreamingAggregator {
    round_start: SimTime,
    fraction: f64,
    layout: Arc<ModelLayout>,
    /// Per layer, whether the upload being checked carried it yet.
    seen: Vec<bool>,
    slots: Vec<Slot>,
    fallback_completion: Option<SimTime>,
    decode_host_us: f64,
}

impl StreamingAggregator {
    /// Ingests the report at ordinal `ord` (its position in the round's
    /// selection list).
    ///
    /// An upload is its wire bytes and nothing else: they are checked
    /// *here*, in arrival order, and read again only by the fold at round
    /// close. One rule decides acceptance: the bytes must parse and carry
    /// every layer of the layout exactly once, at its length, and nothing
    /// in them may decode to a non-finite value (which would poison the
    /// global model through the weighted fold). Other bytes are rejected,
    /// as is an arrived upload with no bytes or a non-finite weight. The cut
    /// sees a rejection as a `+inf` arrival and nothing of it is folded, but
    /// the report is kept — the client's work and bytes happened — and
    /// [`close`](Self::close) returns it, listed in
    /// [`AggregationResult::rejected`]. Reports whose upload never arrives
    /// (infinite `upload_done`) carry nothing to judge: they are stored
    /// unchecked and can never make the cut.
    ///
    /// # Panics
    /// Panics if `ord` is out of range or was already resolved (ingested or
    /// marked failed).
    pub fn ingest(&mut self, ord: usize, report: ClientRoundReport) {
        self.assert_pending(ord);
        let started = std::time::Instant::now();
        let accepted = !report.upload_done.is_finite()
            || (report.weight.is_finite()
                && report
                    .wire_update
                    .as_ref()
                    .is_some_and(|bytes| check_tiling(bytes, &self.layout, &mut self.seen)));
        self.decode_host_us += started.elapsed().as_secs_f64() * 1e6;
        self.slots[ord] = if accepted {
            Slot::Accepted(report)
        } else {
            Slot::Rejected(report)
        };
    }

    /// Records that the client at ordinal `ord` failed outright (its worker
    /// panicked and no report exists). The cut counts the failure as a
    /// `+inf` arrival, exactly like a straggler past the aggregation
    /// deadline (paper §5.1 partial aggregation).
    ///
    /// # Panics
    /// Panics if `ord` is out of range or was already resolved (ingested or
    /// marked failed).
    pub fn mark_failed(&mut self, ord: usize) {
        self.assert_pending(ord);
        self.slots[ord] = Slot::Failed;
    }

    fn assert_pending(&self, ord: usize) {
        assert!(
            matches!(self.slots[ord], Slot::Pending),
            "ordinal {ord} resolved twice"
        );
    }

    /// Sets the wall the round closes at when *no* upload ever arrives
    /// (every client failed, crashed, or lost its result): completion falls
    /// back to `round_start + deadline` instead of panicking.
    pub fn set_deadline(&mut self, deadline: SimTime) {
        self.fallback_completion = Some(self.round_start + deadline);
    }

    /// Computes the round's cut, folds the collected updates into
    /// `server`'s global model, and returns the aggregation result plus the
    /// reports in ordinal order (`None` where the client failed without
    /// producing a report; rejected reports included).
    ///
    /// The cut is [`round_completion_time`] over one arrival per ordinal:
    /// an accepted report's `upload_done`, `+inf` for a failed ordinal or a
    /// rejected upload. The fold replicates [`crate::params::aggregate`]
    /// operation for operation — weights summed and updates accumulated in
    /// ordinal order, `fold[j] += alpha · u[j]` elementwise — so it is
    /// bit-identical to that dense reference over the decoded updates. It
    /// reads each collected upload's bytes once: quantized runs feed the
    /// fused dequantize-accumulate kernel straight from the packed bytes,
    /// every other layer decodes into the server's scratch buffer first;
    /// every kernel tier is bit-identical to scalar.
    ///
    /// # Panics
    /// Panics, naming the ordinal, unless every ordinal was ingested or
    /// marked failed, or if no finite arrival exists and no deadline
    /// fallback was set.
    pub fn close(self, server: &mut Server) -> (AggregationResult, Vec<Option<ClientRoundReport>>) {
        let arrivals: Vec<SimTime> = self
            .slots
            .iter()
            .enumerate()
            .map(|(ord, slot)| match slot {
                Slot::Pending => panic!("missing client report or failure mark for ordinal {ord}"),
                Slot::Accepted(report) => report.upload_done,
                Slot::Failed | Slot::Rejected(_) => f64::INFINITY,
            })
            .collect();
        let rejected: Vec<usize> = (0..arrivals.len())
            .filter(|&i| matches!(self.slots[i], Slot::Rejected(_)))
            .collect();
        let reports: Vec<Option<ClientRoundReport>> = self
            .slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Accepted(report) | Slot::Rejected(report) => Some(report),
                Slot::Pending | Slot::Failed => None,
            })
            .collect();
        let n_finite = arrivals.iter().filter(|t| t.is_finite()).count();
        let completion = if n_finite == 0 {
            // Every client failed, crashed or lost its upload: none will
            // ever arrive and the cut is undefined. The server gives up at
            // its deadline and keeps the global model unchanged.
            self.fallback_completion
                .expect("all clients failed and no deadline fallback was set")
        } else {
            round_completion_time(&arrivals, self.fraction)
        };
        let collected: Vec<usize> = (0..arrivals.len())
            .filter(|&i| arrivals[i].is_finite() && arrivals[i] <= completion)
            .collect();
        if !collected.is_empty() {
            let total_w: f64 = collected
                .iter()
                .map(|&i| {
                    reports[i]
                        .as_ref()
                        .expect("collected implies present")
                        .weight
                })
                .sum();
            assert!(total_w > 0.0, "aggregate weights sum to zero");
            server.fold.clear();
            server.fold.resize(self.layout.total_params(), 0.0);
            for &i in &collected {
                let r = reports[i].as_ref().expect("collected implies present");
                let bytes = r
                    .wire_update
                    .as_ref()
                    .expect("an accepted, arrived upload has bytes");
                let alpha = (r.weight / total_w) as f32;
                fold_upload(
                    bytes,
                    alpha,
                    &self.layout,
                    &mut server.fold,
                    &mut server.scratch,
                );
            }
            dataplane::axpy(1.0, &server.fold, server.global.as_mut_slice());
        }
        for &i in &collected {
            let r = reports[i].as_ref().expect("collected implies present");
            server
                .estimator
                .observe(r.client_id, r.upload_done - self.round_start);
        }
        (
            AggregationResult {
                completion,
                collected,
                n_finite,
                rejected,
                decode_host_us: self.decode_host_us,
            },
            reports,
        )
    }
}

/// The ingest check: the concatenated messages in `buf` carry every layer of
/// `layout` exactly once, at its length, and decode to finite values only.
/// `seen` holds one flag per layer; nothing is allocated.
fn check_tiling(buf: &[u8], layout: &ModelLayout, seen: &mut [bool]) -> bool {
    seen.fill(false);
    let parsed = wire::for_each_layer(buf, |id, view| {
        let l = id as usize;
        let fresh = l < seen.len() && !std::mem::replace(&mut seen[l], true);
        if fresh && view.len() == layout.layer_len(l) && view.decodes_finite() {
            Ok(())
        } else {
            Err(WireError::Malformed("not an exact finite tiling"))
        }
    });
    parsed.is_ok() && !seen.contains(&false)
}

/// Adds `alpha ·` the update in an accepted upload's bytes to `fold`, layer
/// by layer in wire order. Each element gets exactly one term, so the layer
/// order does not reach a bit.
fn fold_upload(
    buf: &[u8],
    alpha: f32,
    layout: &ModelLayout,
    fold: &mut [f32],
    scratch: &mut Vec<f32>,
) {
    wire::for_each_layer(buf, |id, view| {
        let y = &mut fold[layout.range(id as usize)];
        match view {
            PayloadView::Quantized {
                bits,
                num_levels,
                scale,
                packed,
                ..
            } if scale != 0.0 => dataplane::axpy_quantized(
                alpha,
                scale,
                num_levels,
                wire::quantized_width(bits),
                packed,
                y,
            ),
            _ => {
                if scratch.len() < y.len() {
                    scratch.resize(y.len(), 0.0);
                }
                let x = &mut scratch[..y.len()];
                view.decode_into(x);
                dataplane::axpy(alpha, x, y);
            }
        }
        Ok(())
    })
    .expect("ingest checked the bytes");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eager::LayerOutcome;
    use fedca_nn::model::ParamSpan;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layout() -> Arc<ModelLayout> {
        Arc::new(ModelLayout::from_spans(&[ParamSpan {
            name: "w".into(),
            range: 0..2,
        }]))
    }

    /// The batch oracle: every report ingested in ordinal order, then one
    /// close.
    fn aggregate_round(server: &mut Server, reports: &[ClientRoundReport]) -> AggregationResult {
        let mut agg = server.begin_round(0.0, reports.len());
        for (ord, r) in reports.iter().enumerate() {
            agg.ingest(ord, r.clone());
        }
        agg.close(server).0
    }

    /// A report whose upload is `update` shipped as one dense wire layer.
    fn report(
        client_id: usize,
        upload_done: f64,
        update: Vec<f32>,
        weight: f64,
    ) -> ClientRoundReport {
        let msg = wire::UpdateMessage {
            round: 0,
            client: client_id as u32,
            layers: vec![(0, wire::Payload::Dense(update))],
        };
        bytes_report(client_id, upload_done, Some(wire::encode(&msg)), weight)
    }

    fn bytes_report(
        client_id: usize,
        upload_done: f64,
        wire_update: Option<Vec<u8>>,
        weight: f64,
    ) -> ClientRoundReport {
        ClientRoundReport {
            client_id,
            weight,
            wire_update,
            iters_done: 5,
            early_stopped: false,
            download_done: 0.1,
            compute_done: upload_done - 0.1,
            upload_done,
            eager_outcomes: vec![LayerOutcome::Regular],
            bytes_uploaded: 8.0,
            wire_bytes_uploaded: 8.0,
            wire_bytes_dense: 8.0,
            train_loss: 1.0,
            crashed: false,
            trace: Default::default(),
        }
    }

    fn server() -> Server {
        Server::new(layout(), vec![10.0, 20.0], 0.9, 5.0)
    }

    #[test]
    fn selection_is_distinct_and_seeded() {
        let s = server();
        let mut rng = StdRng::seed_from_u64(1);
        let sel = s.select_clients(8, 5, &mut rng);
        assert_eq!(sel.len(), 5);
        let mut d = sel.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 5, "selection must be without replacement");
        assert!(sel.iter().all(|&c| c < 8));
        let sel2 = s.select_clients(8, 5, &mut StdRng::seed_from_u64(1));
        assert_eq!(sel, sel2);
    }

    #[test]
    fn sparse_selection_matches_dense_fisher_yates() {
        // The sparse displaced-slot formulation must reproduce the dense
        // partial Fisher-Yates exactly — same RNG draws, same selections —
        // so pre-existing seeds keep their cohorts.
        let dense = |n_total: usize, n_select: usize, seed: u64| -> Vec<usize> {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut pool: Vec<usize> = (0..n_total).collect();
            for i in 0..n_select {
                let j = rng.gen_range(i..n_total);
                pool.swap(i, j);
            }
            pool.truncate(n_select);
            pool
        };
        let s = server();
        for seed in 0..32u64 {
            for &(n_total, n_select) in &[(8usize, 5usize), (128, 16), (1000, 1), (64, 64)] {
                let sparse = s.select_clients(n_total, n_select, &mut StdRng::seed_from_u64(seed));
                assert_eq!(sparse, dense(n_total, n_select, seed), "seed {seed}");
            }
        }
        // Huge populations stay cheap and in range.
        let sel = s.select_clients(1_000_000, 128, &mut StdRng::seed_from_u64(7));
        assert_eq!(sel.len(), 128);
        let mut d = sel.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 128, "without replacement");
        assert!(sel.iter().all(|&c| c < 1_000_000));
    }

    #[test]
    fn aggregation_moves_global_by_weighted_mean() {
        let mut s = server();
        let reports = vec![
            report(0, 1.0, vec![1.0, 0.0], 1.0),
            report(1, 2.0, vec![3.0, 0.0], 3.0),
        ];
        let res = aggregate_round(&mut s, &reports);
        assert_eq!(res.collected, vec![0, 1]);
        // Weighted mean: (1·1 + 3·3)/4 = 2.5 on the first coordinate.
        assert!((s.global().as_slice()[0] - 12.5).abs() < 1e-5);
        assert!((s.global().as_slice()[1] - 20.0).abs() < 1e-5);
    }

    #[test]
    fn streaming_ingestion_order_is_irrelevant() {
        let reports = vec![
            report(0, 3.0, vec![1.0, -2.0], 1.0),
            report(1, 1.0, vec![0.5, 4.0], 2.0),
            report(2, f64::INFINITY, vec![100.0, 100.0], 1.0),
            report(3, 2.0, vec![-1.5, 0.25], 3.0),
        ];
        let mut batch = server();
        let batch_res = aggregate_round(&mut batch, &reports);

        // Ingest in a scrambled completion order; results must be
        // bit-identical to the batch path.
        let mut streaming = server();
        let mut agg = streaming.begin_round(0.0, reports.len());
        for &ord in &[3usize, 0, 2, 1] {
            agg.ingest(ord, reports[ord].clone());
        }
        let (res, back) = agg.close(&mut streaming);
        assert_eq!(res.completion, batch_res.completion);
        assert_eq!(res.collected, batch_res.collected);
        assert_eq!(batch.global().as_slice(), streaming.global().as_slice());
        // Reports come back in ordinal order regardless of ingestion order.
        let ids: Vec<usize> = back
            .iter()
            .map(|r| r.as_ref().expect("all ingested").client_id)
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn failed_clients_are_cut_like_stragglers() {
        // Batch over the three survivors vs streaming with one failure
        // marked in the middle: identical global model, and the failed
        // ordinal never appears in `collected`.
        let survivors = vec![
            report(0, 1.0, vec![1.0, 0.0], 1.0),
            report(1, 2.0, vec![3.0, 0.0], 1.0),
            report(3, 1.5, vec![2.0, 0.0], 2.0),
        ];
        let mut batch = server();
        let _ = aggregate_round(&mut batch, &survivors);

        let mut streaming = server();
        let mut agg = streaming.begin_round(0.0, 4);
        agg.ingest(0, report(0, 1.0, vec![1.0, 0.0], 1.0));
        agg.mark_failed(2);
        agg.ingest(1, report(1, 2.0, vec![3.0, 0.0], 1.0));
        agg.ingest(3, report(3, 1.5, vec![2.0, 0.0], 2.0));
        let (res, back) = agg.close(&mut streaming);
        assert!(!res.collected.contains(&2));
        assert!(back[2].is_none());
        assert_eq!(batch.global().as_slice(), streaming.global().as_slice());
    }

    #[test]
    fn all_failed_round_closes_at_the_deadline_fallback() {
        let mut s = server();
        let before = s.global().as_slice().to_vec();
        let mut agg = s.begin_round(10.0, 3);
        agg.set_deadline(7.5);
        agg.mark_failed(0);
        agg.mark_failed(1);
        agg.ingest(2, report(2, f64::INFINITY, vec![5.0, 5.0], 1.0));
        let (res, back) = agg.close(&mut s);
        assert_eq!(res.completion, 17.5);
        assert!(res.collected.is_empty());
        assert!(back[0].is_none() && back[1].is_none() && back[2].is_some());
        assert_eq!(s.global().as_slice(), &before[..], "global must not move");
    }

    #[test]
    #[should_panic(expected = "no deadline fallback")]
    fn all_failed_round_without_deadline_panics() {
        let mut s = server();
        let mut agg = s.begin_round(0.0, 1);
        agg.mark_failed(0);
        let _ = agg.close(&mut s);
    }

    #[test]
    #[should_panic(expected = "missing client report or failure mark for ordinal 1")]
    fn close_requires_every_ordinal_resolved() {
        let mut s = server();
        let mut agg = s.begin_round(0.0, 3);
        agg.ingest(2, report(2, 1.0, vec![0.0; 2], 1.0));
        agg.mark_failed(0);
        let _ = agg.close(&mut s);
    }

    #[test]
    #[should_panic(expected = "resolved twice")]
    fn streaming_rejects_duplicate_ordinals() {
        // Every ordinal resolves exactly once, by `ingest` or `mark_failed`:
        // the second resolution of ordinal 0 panics, whichever call it is.
        type Resolve = fn(&mut StreamingAggregator);
        let ingest: Resolve = |agg| agg.ingest(0, report(0, 1.0, vec![0.0; 2], 1.0));
        let mark: Resolve = |agg| agg.mark_failed(0);
        let cases = [
            ("mark twice", mark, mark),
            ("ingest after mark", mark, ingest),
            ("mark after ingest", ingest, mark),
        ];
        for (what, first, second) in cases {
            let mut s = server();
            let mut agg = s.begin_round(0.0, 2);
            first(&mut agg);
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| second(&mut agg)))
                .expect_err(what);
            let msg = err
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default();
            assert!(msg.contains("resolved twice"), "{what}: {msg}");
        }
        let mut s = server();
        let mut agg = s.begin_round(0.0, 2);
        ingest(&mut agg);
        ingest(&mut agg);
    }

    #[test]
    fn a_rejected_upload_counts_as_an_infinite_arrival() {
        // Fraction 0.5 of 6 ordinals waits for 3 uploads. Arrivals by
        // ordinal: +inf (a NaN update at t = 1, rejected), 2, +inf (failed),
        // 3, 4, 5 — so the third earliest is t = 4 and ordinals 1, 3, 4 make
        // the cut. Counting the rejected upload at t = 1 would close at 3.
        let mut s = Server::new(layout(), vec![10.0, 20.0], 0.5, 5.0);
        let mut agg = s.begin_round(0.0, 6);
        agg.ingest(4, report(4, 4.0, vec![1.0, 0.0], 1.0));
        agg.ingest(0, report(0, 1.0, vec![f32::NAN, 0.0], 1.0));
        agg.ingest(5, report(5, 5.0, vec![1.0, 0.0], 1.0));
        agg.mark_failed(2);
        agg.ingest(3, report(3, 3.0, vec![1.0, 0.0], 1.0));
        agg.ingest(1, report(1, 2.0, vec![1.0, 0.0], 1.0));
        let (res, _) = agg.close(&mut s);
        assert_eq!(res.completion, 4.0);
        assert_eq!(res.collected, vec![1, 3, 4]);
        assert_eq!(res.n_finite, 4);
        assert_eq!(res.rejected, vec![0]);
    }

    #[test]
    fn straggler_update_is_dropped_at_90_percent() {
        let mut s = Server::new(layout(), vec![0.0, 0.0], 0.9, 5.0);
        // 10 clients; the slowest (id 9) misses the cut. Its update is huge —
        // the global must not move by anything like it.
        let mut reports: Vec<_> = (0..9)
            .map(|i| report(i, 1.0 + i as f64 * 0.01, vec![0.1, 0.0], 1.0))
            .collect();
        reports.push(report(9, 100.0, vec![1000.0, 0.0], 1.0));
        let res = aggregate_round(&mut s, &reports);
        assert_eq!(res.collected.len(), 9);
        assert!(!res.collected.contains(&9));
        assert!((s.global().as_slice()[0] - 0.1).abs() < 1e-5);
        assert!((res.completion - 1.08).abs() < 1e-9);
    }

    #[test]
    fn uploads_tied_at_the_cut_are_all_folded() {
        // Fraction 0.5 of 4 waits for 2 uploads, but three arrive at t = 1:
        // all three are collected and folded, the t = 9 straggler is not.
        let mut s = Server::new(layout(), vec![0.0, 0.0], 0.5, 5.0);
        let reports = vec![
            report(0, 1.0, vec![4.0, 0.0], 1.0),
            report(1, 1.0, vec![8.0, 0.0], 1.0),
            report(2, 1.0, vec![2.0, 0.0], 2.0),
            report(3, 9.0, vec![1000.0, 0.0], 1.0),
        ];
        let res = aggregate_round(&mut s, &reports);
        assert_eq!(res.completion, 1.0);
        assert_eq!(res.collected, vec![0, 1, 2]);
        // 0.25 · 4 + 0.25 · 8 + 0.5 · 2, exactly.
        assert_eq!(s.global().as_slice(), &[4.0, 0.0]);
    }

    #[test]
    fn non_finite_updates_are_rejected_not_aggregated() {
        // A NaN update is excluded from the fold exactly like a failed
        // client's and leaves the global model clean, but its report is
        // returned: the client's work and bytes still count.
        let clean = vec![
            report(0, 1.0, vec![1.0, 0.0], 1.0),
            report(1, 2.0, vec![3.0, 0.0], 1.0),
        ];
        let mut baseline = server();
        let _ = aggregate_round(&mut baseline, &clean);

        let mut s = server();
        let mut agg = s.begin_round(0.0, 3);
        agg.ingest(0, report(0, 1.0, vec![1.0, 0.0], 1.0));
        agg.ingest(2, report(2, 0.5, vec![f32::NAN, 7.0], 1.0));
        agg.ingest(1, report(1, 2.0, vec![3.0, 0.0], 1.0));
        let (res, back) = agg.close(&mut s);
        assert_eq!(res.rejected, vec![2]);
        assert_eq!(res.collected, vec![0, 1]);
        assert_eq!(back[2].as_ref().map(|r| r.client_id), Some(2));
        assert_eq!(baseline.global().as_slice(), s.global().as_slice());

        // Infinite weights are rejected too.
        let mut agg = s.begin_round(10.0, 1);
        agg.set_deadline(5.0);
        agg.ingest(0, report(0, 11.0, vec![1.0, 1.0], f64::INFINITY));
        let (res, _) = agg.close(&mut s);
        assert_eq!(res.rejected, vec![0]);
        assert!(res.collected.is_empty());
    }

    #[test]
    fn fold_matches_the_dense_reference_for_every_codec() {
        use fedca_compress::{quantize_det, top_k};
        // Two clients, each layer under a different codec, the second
        // client's upload split into single-layer messages (the eager-frame
        // shape). The global must move by exactly
        // `params::aggregate` over what the bytes decode to.
        let layout = two_layer_layout();
        let a = [1.25f32, -0.5, 3.0];
        let b = [0.1f32, 7.5];
        let uploads: Vec<(Vec<(u32, wire::Payload)>, f64)> = vec![
            (
                vec![
                    (0, wire::Payload::Quantized(quantize_det(&a, 8))),
                    (1, wire::Payload::Sparse(top_k(&b, 0.5))),
                ],
                1.0,
            ),
            (
                vec![
                    (1, wire::Payload::Quantized(quantize_det(&b, 4))),
                    (0, wire::Payload::Dense(a.to_vec())),
                ],
                3.0,
            ),
        ];
        let mut s = Server::new(layout.clone(), vec![10.0; 5], 0.9, 5.0);
        let mut agg = s.begin_round(0.0, uploads.len());
        let mut dense = Vec::new();
        for (ord, (layers, weight)) in uploads.iter().enumerate() {
            let mut decoded = UpdateVec::zeros(layout.clone());
            let mut bytes = Vec::new();
            // One message per layer for the odd client, one for the even.
            for chunk in layers.chunks(if ord % 2 == 1 { 1 } else { 2 }) {
                for (l, p) in chunk {
                    decoded
                        .layer_mut(*l as usize)
                        .copy_from_slice(&p.to_dense());
                }
                bytes.extend_from_slice(&wire::encode(&wire::UpdateMessage {
                    round: 0,
                    client: ord as u32,
                    layers: chunk.to_vec(),
                }));
            }
            dense.push((decoded, *weight));
            agg.ingest(
                ord,
                bytes_report(ord, 1.0 + ord as f64, Some(bytes), *weight),
            );
        }
        let (res, _) = agg.close(&mut s);
        assert_eq!(res.collected, vec![0, 1]);
        assert!(res.rejected.is_empty());
        let refs: Vec<(&UpdateVec, f64)> = dense.iter().map(|(u, w)| (u, *w)).collect();
        let mut want = UpdateVec::from_vec(layout, vec![10.0; 5]);
        want.axpy(1.0, &crate::params::aggregate(&refs));
        assert_eq!(want.as_slice(), s.global().as_slice());
    }

    fn two_layer_layout() -> Arc<ModelLayout> {
        Arc::new(ModelLayout::from_spans(&[
            ParamSpan {
                name: "a".into(),
                range: 0..3,
            },
            ParamSpan {
                name: "b".into(),
                range: 3..5,
            },
        ]))
    }

    #[test]
    fn ingest_rejects_every_upload_that_is_not_an_exact_finite_tiling() {
        let dense = |l: u32, v: Vec<f32>| (l, wire::Payload::Dense(v));
        let encode = |layers: Vec<(u32, wire::Payload)>| {
            wire::encode(&wire::UpdateMessage {
                round: 0,
                client: 0,
                layers,
            })
        };
        let good = encode(vec![dense(0, vec![1.0; 3]), dense(1, vec![2.0; 2])]);
        let inf_scale = wire::Payload::Quantized(fedca_compress::QuantizedVec {
            bits: 1,
            scale: f32::INFINITY,
            levels: vec![0i8; 3],
            num_levels: 1,
        });
        let concat = |a: &[u8], b: &[u8]| [a, b].concat();
        // An honest upload with one byte of its quantized layer 0 forged;
        // the layer's header starts after the message header and layer id.
        let forged = |q: fedca_compress::QuantizedVec, at: usize, byte: u8| {
            let mut bytes = encode(vec![
                (0, wire::Payload::Quantized(q)),
                dense(1, vec![2.0; 2]),
            ]);
            bytes[wire::HEADER_LEN + 4 + at] = byte;
            Some(bytes)
        };
        let cases: Vec<(&str, Option<Vec<u8>>)> = vec![
            ("garbage bytes", Some(b"not a wire message".to_vec())),
            ("truncated message", Some(good[..good.len() - 3].to_vec())),
            (
                "gap (missing layer)",
                Some(encode(vec![dense(0, vec![1.0; 3])])),
            ),
            (
                "repeated layer",
                Some(encode(vec![
                    dense(0, vec![1.0; 3]),
                    dense(1, vec![2.0; 2]),
                    dense(1, vec![2.0; 2]),
                ])),
            ),
            (
                "overlap across concatenated messages",
                Some(concat(&good, &encode(vec![dense(0, vec![1.0; 3])]))),
            ),
            (
                "wrong layer length",
                Some(encode(vec![dense(1, vec![0.0; 3]), dense(0, vec![0.0; 2])])),
            ),
            (
                "unknown layer id",
                Some(concat(&good, &encode(vec![dense(2, vec![])]))),
            ),
            (
                "NaN dense value",
                Some(encode(vec![
                    dense(0, vec![1.0, f32::NAN, 1.0]),
                    dense(1, vec![2.0; 2]),
                ])),
            ),
            (
                "Inf quantized scale",
                Some(encode(vec![(0, inf_scale), dense(1, vec![2.0; 2])])),
            ),
            (
                // Tag, bits, then the level count: L = 0 divides by zero.
                "Int8 level count forged to 0",
                forged(fedca_compress::quantize_det(&[1.0, -0.5, 0.25], 8), 2, 0),
            ),
            (
                // bits = 1 (L = 1, 2-bit fields): field 3 is level 2, and
                // 2 · 3e38 overflows although the scale is finite.
                "1-bit field past the scale",
                forged(
                    fedca_compress::QuantizedVec {
                        bits: 1,
                        scale: 3e38,
                        levels: vec![1i8; 3],
                        num_levels: 1,
                    },
                    // tag, bits, L, scale (4), n (4): the one packed byte
                    1 + 1 + 1 + 4 + 4,
                    0xFF,
                ),
            ),
            ("arrived upload with no bytes", None),
        ];
        let mut s = Server::new(two_layer_layout(), vec![10.0; 5], 0.9, 5.0);
        for (what, bytes) in cases {
            let mut agg = s.begin_round(0.0, 1);
            agg.set_deadline(5.0);
            agg.ingest(0, bytes_report(0, 1.0, bytes, 1.0));
            let (res, back) = agg.close(&mut s);
            assert_eq!(res.rejected, vec![0], "{what}");
            assert!(res.collected.is_empty(), "{what}");
            assert!(back[0].is_some(), "{what}: rejected report dropped");
            assert_eq!(s.global().as_slice(), &[10.0; 5], "{what}: global moved");
        }
        // The same `Server` then accepts the exact tiling, split either way:
        // each fold adds the one update to the global.
        for (bytes, want) in [
            (good.clone(), [11.0, 11.0, 11.0, 12.0, 12.0]),
            (
                concat(
                    &encode(vec![dense(1, vec![2.0; 2])]),
                    &encode(vec![dense(0, vec![1.0; 3])]),
                ),
                [12.0, 12.0, 12.0, 14.0, 14.0],
            ),
        ] {
            let mut agg = s.begin_round(0.0, 1);
            agg.ingest(0, bytes_report(0, 1.0, Some(bytes), 1.0));
            let (res, _) = agg.close(&mut s);
            assert_eq!((res.rejected, res.collected), (vec![], vec![0]));
            assert_eq!(s.global().as_slice(), &want);
        }
        // An upload that never arrives carries nothing to judge: stored,
        // never collected, not a rejection.
        let mut agg = s.begin_round(0.0, 1);
        agg.set_deadline(5.0);
        agg.ingest(0, bytes_report(0, f64::INFINITY, None, 1.0));
        let (res, back) = agg.close(&mut s);
        assert!(res.rejected.is_empty());
        assert!(res.collected.is_empty() && back[0].is_some());
    }

    #[test]
    fn deadline_uses_duration_estimates() {
        let mut s = server();
        // Observe very different paces for clients 0 and 1.
        s.estimator.observe(0, 10.0);
        s.estimator.observe(1, 1000.0);
        let d = s.round_deadline(&[0, 1]);
        assert_eq!(d, 10.0, "deadline should exclude the extreme straggler");
    }

    #[test]
    fn fedada_plans_fewer_iterations_for_stragglers() {
        let mut s = server();
        s.estimator.observe(0, 10.0);
        s.estimator.observe(1, 10.0);
        s.estimator.observe(2, 80.0);
        let plans = s.plan_iterations(&Scheme::fedada_default(), &[0, 1, 2], 100);
        assert_eq!(plans[0], 100);
        assert_eq!(plans[1], 100);
        assert!(plans[2] < 100, "straggler not throttled: {plans:?}");
        // FedAvg plans full K for everyone.
        let plans = s.plan_iterations(&Scheme::FedAvg, &[0, 1, 2], 100);
        assert_eq!(plans, vec![100, 100, 100]);
    }
}
