//! The FL server: client selection, deadline offload, partial aggregation.

use crate::algorithms::{fedada_iterations, Scheme};
use crate::client::ClientRoundReport;
use crate::deadline::{compute_deadline, DurationEstimator};
use crate::params::{ModelLayout, UpdateVec};
use fedca_compress::wire::{self, PayloadView, WireError};
use fedca_sim::engine::ArrivalCut;
use fedca_sim::SimTime;
use fedca_tensor::dataplane;
use rand::Rng;
use std::ops::Range;
use std::sync::Arc;

/// One decoded span of a client's wire update inside its arena slot.
///
/// Dense-representable payloads (dense, sparse, f16, zero-scale quantized)
/// are decoded into the slot's staging vector at ingest; quantized runs stay
/// bit-packed on the wire (recorded as byte offsets into the report's
/// retained buffer) and are folded by the fused dequantize-accumulate
/// kernel at round close, never materializing a dense copy.
#[derive(Clone, Debug)]
enum Seg {
    /// `slot.dense[range]` holds the decoded values.
    Dense {
        /// Flat-parameter span this segment covers.
        range: Range<usize>,
    },
    /// Packed QSGD levels at `bytes[off..off + len]` in the report's
    /// `wire_update` buffer.
    Quant {
        /// Flat-parameter span this segment covers.
        range: Range<usize>,
        /// Max-abs dequantization scale (non-zero, or the segment would
        /// have been decoded as dense zeros).
        scale: f32,
        /// Level count per sign.
        num_levels: u8,
        /// Bit width of one packed level field.
        width: u32,
        /// Byte offset of the packed run in the wire buffer.
        off: usize,
        /// Packed run length in bytes.
        len: usize,
    },
}

/// Per-ordinal decode slot: dense staging plus the segment map.
#[derive(Default)]
struct ArenaSlot {
    /// Dense staging, sized to `total_params` by the slot's first dense
    /// decode: a slot that only ever holds quantized runs never allocates
    /// it, since those are folded straight from the wire bytes.
    dense: Vec<f32>,
    /// Segment map covering the full layout exactly (validated at decode).
    segs: Vec<Seg>,
}

/// Pooled per-ordinal decode scratch, owned by the [`Server`] between
/// rounds and lent to the [`StreamingAggregator`] for the round's lifetime.
/// Ingest-time decode performs zero heap allocations after the first round
/// at a given cohort size and model and after a slot's first dense decode:
/// slots, their staging vectors, their segment maps, and the fold buffer
/// are all reused.
#[derive(Default)]
pub struct UpdateArena {
    slots: Vec<ArenaSlot>,
    /// Round-close fold accumulator (the weighted-mean delta).
    fold: Vec<f32>,
    total_params: usize,
}

impl UpdateArena {
    /// Prepares the arena for a round of `n_selected` ordinals over a model
    /// of `total_params` scalars. Grows pools as needed; steady-state calls
    /// are allocation-free.
    fn reset(&mut self, n_selected: usize, total_params: usize) {
        self.total_params = total_params;
        if self.slots.len() < n_selected {
            self.slots.resize_with(n_selected, ArenaSlot::default);
        }
        for slot in &mut self.slots[..n_selected] {
            slot.segs.clear();
        }
        if self.fold.len() != total_params {
            self.fold.resize(total_params, 0.0);
        }
    }

    /// Decodes a client's concatenated wire messages into slot `ord`:
    /// dense-representable payloads land in the staging vector, quantized
    /// runs are recorded as packed byte spans. Fails — the caller rejects
    /// the upload — when the bytes are structurally invalid, the segments
    /// do not tile the layout exactly, or anything could decode non-finite:
    /// a dense value, or a quantized run whose widest field would (checked
    /// on the header alone, so the fold stays the only pass over the bits).
    fn decode_slot(
        &mut self,
        ord: usize,
        buf: &[u8],
        layout: &ModelLayout,
    ) -> Result<(), WireError> {
        let total = self.total_params;
        let slot = &mut self.slots[ord];
        slot.segs.clear();
        wire::for_each_layer(buf, |id, view| {
            let l = id as usize;
            if l >= layout.num_layers() {
                return Err(WireError::Malformed("layer id outside the layout"));
            }
            let range = layout.range(l);
            if view.len() != range.len() {
                return Err(WireError::Malformed("layer length"));
            }
            match view {
                PayloadView::Quantized {
                    bits,
                    num_levels,
                    scale,
                    n,
                    packed,
                } if scale != 0.0 && n > 0 => {
                    // A `width`-bit field decodes to at most `2^width − 1 −
                    // L` in magnitude, and never past 128 (fields wrap
                    // through `i8`); `lev / L · scale` grows with |lev|, so
                    // every value is finite exactly when that one is. The
                    // reader already pinned L to what `bits` implies.
                    let width = wire::quantized_width(bits);
                    let widest = ((1u32 << width) - 1 - num_levels as u32).min(128);
                    if !(widest as f32 / num_levels as f32 * scale).is_finite() {
                        return Err(WireError::Malformed("quantized run decodes non-finite"));
                    }
                    slot.segs.push(Seg::Quant {
                        range,
                        scale,
                        num_levels,
                        width,
                        off: wire::subslice_offset(buf, packed),
                        len: packed.len(),
                    });
                }
                _ => {
                    if slot.dense.len() != total {
                        slot.dense.resize(total, 0.0);
                    }
                    view.decode_into(&mut slot.dense[range.clone()]);
                    if !dataplane::all_finite(&slot.dense[range.clone()]) {
                        return Err(WireError::Malformed("non-finite value"));
                    }
                    slot.segs.push(Seg::Dense { range });
                }
            }
            Ok(())
        })?;
        // The concatenated messages must tile the layout exactly — no gap,
        // no overlap, no repeated layer — or the fold would read stale
        // staging data. Sort in place (capacity retained) and walk.
        // Unstable sort: never allocates, and the keys (segment starts) are
        // distinct once the tiling check below passes.
        slot.segs.sort_unstable_by_key(|s| match s {
            Seg::Dense { range } | Seg::Quant { range, .. } => range.start,
        });
        let mut covered = 0usize;
        for seg in &slot.segs {
            let range = match seg {
                Seg::Dense { range } | Seg::Quant { range, .. } => range,
            };
            if range.start != covered {
                return Err(WireError::Malformed("layers do not tile the layout"));
            }
            covered = range.end;
        }
        if covered != total {
            return Err(WireError::Malformed("layers do not tile the layout"));
        }
        Ok(())
    }
}

/// Server state: the global model (as a flat vector), the per-client
/// duration estimates that drive deadlines and FedAda's workload tuning,
/// and the pooled decode arena the data plane reuses across rounds.
pub struct Server {
    global: UpdateVec,
    estimator: DurationEstimator,
    aggregation_fraction: f64,
    arena: UpdateArena,
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
    /// Host microseconds spent decoding wire uploads at ingest time
    /// (including the non-finite scan). Operational only.
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
            arena: UpdateArena::default(),
        }
    }

    /// The current global parameters.
    pub fn global(&self) -> &UpdateVec {
        &self.global
    }

    /// Overwrites the global parameters (snapshot/restore).
    ///
    /// # Panics
    /// Panics if `data` does not match the model layout.
    pub fn restore_global(&mut self, data: Vec<f32>) {
        let layout = Arc::clone(self.global.layout());
        assert_eq!(data.len(), layout.total_params(), "global size changed");
        self.global = UpdateVec::from_vec(layout, data);
    }

    /// The per-client duration estimator (snapshot/restore).
    pub fn estimator(&self) -> &DurationEstimator {
        &self.estimator
    }

    /// Mutable access to the duration estimator (snapshot/restore).
    pub fn estimator_mut(&mut self) -> &mut DurationEstimator {
        &mut self.estimator
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
    /// one by one as uploads complete — wire uploads decode into the pooled
    /// arena on arrival — and folded into the global model when the
    /// aggregator is [closed](StreamingAggregator::close). The arena moves
    /// into the aggregator for the round and returns at close, so its
    /// buffers are reused round over round.
    pub fn begin_round(&mut self, round_start: SimTime, n_selected: usize) -> StreamingAggregator {
        assert!(n_selected > 0, "no clients selected");
        let mut arena = std::mem::take(&mut self.arena);
        arena.reset(n_selected, self.global.layout().total_params());
        StreamingAggregator {
            round_start,
            layout: Arc::clone(self.global.layout()),
            cut: ArrivalCut::with_capacity(self.aggregation_fraction, n_selected),
            reports: (0..n_selected).map(|_| None).collect(),
            fallback_completion: None,
            rejected: Vec::new(),
            arena,
            decode_host_us: 0.0,
        }
    }
}

/// Incremental aggregation state for one round.
///
/// Reports are ingested in whatever order client uploads complete; the
/// arrival cut is tracked incrementally via [`ArrivalCut`]. The actual
/// weighted fold is deferred to [`close`](Self::close), where it runs over
/// the collected reports in canonical (report-ordinal) order — so the
/// result is bit-identical regardless of ingestion order.
pub struct StreamingAggregator {
    round_start: SimTime,
    layout: Arc<ModelLayout>,
    cut: ArrivalCut,
    reports: Vec<Option<ClientRoundReport>>,
    fallback_completion: Option<SimTime>,
    rejected: Vec<usize>,
    arena: UpdateArena,
    decode_host_us: f64,
}

impl StreamingAggregator {
    /// Ingests the report at ordinal `ord` (its position in the round's
    /// selection list).
    ///
    /// An upload is its wire bytes and nothing else: they decode into the
    /// pooled arena *here*, in arrival order — round close only folds. One
    /// rule decides acceptance: bytes that do not decode to an exact tiling
    /// of the layout, or could decode to a non-finite value (which would
    /// poison the global model through the weighted fold), are rejected —
    /// as is an arrived upload with no bytes or a non-finite weight. The cut
    /// sees a rejection as a `+inf` arrival and nothing of it is folded, but
    /// the report is kept — the client's work and bytes happened — and
    /// [`close`](Self::close) returns it, listed in
    /// [`AggregationResult::rejected`]. Reports whose upload never arrives
    /// (infinite `upload_done`) carry nothing to judge: they are stored
    /// undecoded and can never make the cut.
    ///
    /// # Panics
    /// Panics if `ord` is out of range or was already ingested.
    pub fn ingest(&mut self, ord: usize, report: ClientRoundReport) {
        assert!(self.reports[ord].is_none(), "report {ord} ingested twice");
        let started = std::time::Instant::now();
        let accepted = !report.upload_done.is_finite()
            || (report.weight.is_finite()
                && report.wire_update.as_ref().is_some_and(|bytes| {
                    self.arena
                        .decode_slot(ord, bytes.as_ref(), &self.layout)
                        .is_ok()
                }));
        self.decode_host_us += started.elapsed().as_secs_f64() * 1e6;
        if accepted {
            self.cut.observe(report.upload_done);
        } else {
            self.rejected.push(ord);
            self.cut.observe(f64::INFINITY);
        }
        self.reports[ord] = Some(report);
    }

    /// Records that the client at ordinal `ord` failed outright (its worker
    /// panicked and no report exists). The failure is observed as a `+inf`
    /// arrival, so the cut treats it exactly like a straggler past the
    /// aggregation deadline (paper §5.1 partial aggregation).
    ///
    /// # Panics
    /// Panics if `ord` is out of range or was already ingested.
    pub fn mark_failed(&mut self, ord: usize) {
        assert!(self.reports[ord].is_none(), "report {ord} ingested twice");
        self.cut.observe(f64::INFINITY);
    }

    /// Sets the wall the round closes at when *no* upload ever arrives
    /// (every client failed, dropped, or lost its result): completion falls
    /// back to `round_start + deadline` instead of panicking.
    pub fn set_deadline(&mut self, deadline: SimTime) {
        self.fallback_completion = Some(self.round_start + deadline);
    }

    /// Reports and failures observed so far.
    pub fn received(&self) -> usize {
        self.cut.len()
    }

    /// The round completion time if no further uploads were to arrive.
    pub fn provisional_completion(&self) -> SimTime {
        self.cut.completion_time()
    }

    /// Folds the collected updates into `server`'s global model and returns
    /// the aggregation result plus the reports in ordinal order (`None`
    /// where the client failed without producing a report; rejected reports
    /// included).
    ///
    /// The fold replicates [`crate::params::aggregate`] operation for
    /// operation — weights summed and updates accumulated in ordinal order,
    /// `fold[j] += alpha · u[j]` elementwise — so it is bit-identical to
    /// that dense reference over the decoded updates. Quantized segments
    /// feed the fused dequantize-accumulate kernel straight from the packed
    /// bytes; every kernel tier is bit-identical to scalar.
    ///
    /// # Panics
    /// Panics unless every ordinal was ingested or marked failed, or if no
    /// finite arrival exists and no deadline fallback was set.
    pub fn close(
        mut self,
        server: &mut Server,
    ) -> (AggregationResult, Vec<Option<ClientRoundReport>>) {
        assert_eq!(
            self.cut.len(),
            self.reports.len(),
            "missing client report or failure mark"
        );
        let reports = self.reports;
        self.rejected.sort_unstable();
        let completion = if self.cut.finite_count() == 0 {
            // Every client failed/dropped: no upload will ever arrive and
            // the cut is undefined. The server gives up at its deadline and
            // keeps the global model unchanged.
            self.fallback_completion
                .expect("all clients failed and no deadline fallback was set")
        } else {
            self.cut.completion_time()
        };
        let collected: Vec<usize> = reports
            .iter()
            .enumerate()
            .filter(|(i, r)| {
                r.as_ref().is_some_and(|r| r.upload_done <= completion)
                    && self.rejected.binary_search(i).is_err()
            })
            .map(|(i, _)| i)
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
            let total = server.global.layout().total_params();
            if self.arena.fold.len() != total {
                self.arena.fold.resize(total, 0.0);
            }
            self.arena.fold.fill(0.0);
            for &i in &collected {
                let r = reports[i].as_ref().expect("collected implies present");
                let alpha = (r.weight / total_w) as f32;
                let bytes = r
                    .wire_update
                    .as_ref()
                    .expect("an accepted, arrived upload has bytes");
                let slot = &self.arena.slots[i];
                for seg in &slot.segs {
                    match seg {
                        Seg::Dense { range } => dataplane::axpy(
                            alpha,
                            &slot.dense[range.clone()],
                            &mut self.arena.fold[range.clone()],
                        ),
                        Seg::Quant {
                            range,
                            scale,
                            num_levels,
                            width,
                            off,
                            len,
                        } => dataplane::axpy_quantized(
                            alpha,
                            *scale,
                            *num_levels,
                            *width,
                            &bytes.as_ref()[*off..*off + *len],
                            &mut self.arena.fold[range.clone()],
                        ),
                    }
                }
            }
            dataplane::axpy(1.0, &self.arena.fold, server.global.as_mut_slice());
        }
        for &i in &collected {
            let r = reports[i].as_ref().expect("collected implies present");
            server
                .estimator
                .observe(r.client_id, r.upload_done - self.round_start);
        }
        // Return the arena pool to the server for the next round.
        server.arena = self.arena;
        (
            AggregationResult {
                completion,
                collected,
                n_finite: self.cut.finite_count(),
                rejected: self.rejected,
                decode_host_us: self.decode_host_us,
            },
            reports,
        )
    }
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
        wire_update: Option<bytes::Bytes>,
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
            dropped: false,
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
        assert_eq!(agg.received(), 4);
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
        assert_eq!(agg.received(), 4);
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
    #[should_panic(expected = "missing client report")]
    fn close_requires_every_ordinal_resolved() {
        let mut s = server();
        let agg = s.begin_round(0.0, 2);
        let _ = agg.close(&mut s);
    }

    #[test]
    #[should_panic(expected = "ingested twice")]
    fn streaming_rejects_duplicate_ordinals() {
        let mut s = server();
        let mut agg = s.begin_round(0.0, 2);
        agg.ingest(0, report(0, 1.0, vec![0.0, 0.0], 1.0));
        agg.ingest(0, report(0, 1.0, vec![0.0, 0.0], 1.0));
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
        use fedca_compress::{f32_to_f16, quantize_det, top_k};
        // Two clients, each layer under a different codec, the second
        // client's upload split into two concatenated messages (the eager
        // sidecar shape). The global must move by exactly
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
                    (
                        1,
                        wire::Payload::F16(b.iter().map(|&v| f32_to_f16(v)).collect()),
                    ),
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
                bytes.extend_from_slice(
                    wire::encode(&wire::UpdateMessage {
                        round: 0,
                        client: ord as u32,
                        layers: chunk.to_vec(),
                    })
                    .as_ref(),
                );
            }
            dense.push((decoded, *weight));
            agg.ingest(
                ord,
                bytes_report(ord, 1.0 + ord as f64, Some(bytes.into()), *weight),
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
        let concat = |a: &bytes::Bytes, b: &bytes::Bytes| -> bytes::Bytes {
            [a.as_ref(), b.as_ref()].concat().into()
        };
        // An honest upload with one byte of its quantized layer 0 forged;
        // the layer's header starts after the message header and layer id.
        let forged = |q: fedca_compress::QuantizedVec, at: usize, byte: u8| {
            let mut bytes = encode(vec![
                (0, wire::Payload::Quantized(q)),
                dense(1, vec![2.0; 2]),
            ])
            .to_vec();
            bytes[wire::HEADER_LEN + 4 + at] = byte;
            Some(bytes::Bytes::from(bytes))
        };
        let cases: Vec<(&str, Option<bytes::Bytes>)> = vec![
            (
                "garbage bytes",
                Some(bytes::Bytes::from_static(b"not a wire message")),
            ),
            ("truncated message", Some(good.slice(0..good.len() - 3))),
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
        // The same arena then accepts the exact tiling, split either way.
        for bytes in [
            good.clone(),
            concat(
                &encode(vec![dense(1, vec![2.0; 2])]),
                &encode(vec![dense(0, vec![1.0; 3])]),
            ),
        ] {
            s.restore_global(vec![10.0; 5]);
            let mut agg = s.begin_round(0.0, 1);
            agg.ingest(0, bytes_report(0, 1.0, Some(bytes), 1.0));
            let (res, _) = agg.close(&mut s);
            assert_eq!((res.rejected, res.collected), (vec![], vec![0]));
            assert_eq!(s.global().as_slice(), &[11.0, 11.0, 11.0, 12.0, 12.0]);
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
    fn server_state_snapshot_restores_exactly() {
        let mut a = server();
        let _ = aggregate_round(
            &mut a,
            &[
                report(0, 1.0, vec![1.0, -1.0], 1.0),
                report(1, 2.0, vec![0.5, 0.5], 2.0),
            ],
        );
        let global = a.global().as_slice().to_vec();
        let ema = a.estimator().snapshot();

        let mut b = server();
        b.restore_global(global.clone());
        b.estimator_mut().restore(ema);
        assert_eq!(a.global().as_slice(), b.global().as_slice());
        for c in 0..8 {
            assert_eq!(a.estimator().predict(c), b.estimator().predict(c));
        }
        assert_eq!(a.estimator().n_observed(), b.estimator().n_observed());
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
