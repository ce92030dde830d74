//! Experiment metrics: per-round records, time-to-accuracy, CDFs.

use crate::eager::LayerOutcome;
use fedca_sim::SimTime;

/// One eager-transmission event (for Fig. 8b's CDFs).
#[derive(Clone, Debug, PartialEq)]
pub struct EagerEvent {
    /// Client that transmitted.
    pub client: usize,
    /// Layer index within the model layout.
    pub layer: usize,
    /// Iteration at which the eager transmission fired.
    pub iter: usize,
    /// Whether the layer ended up retransmitted at round end.
    pub retransmitted: bool,
}

/// Everything the server records about one round: a canonical half, a
/// pure function of the seed, and ten operational fields — host timings,
/// residency churn and shard-failover counters — that vary with the host,
/// the worker count, the residency cap and the topology.
/// [`canonical`](Self::canonical) names which is which.
#[derive(Clone, Debug, PartialEq)]
pub struct RoundRecord {
    /// Round index (0-based).
    pub round: usize,
    /// Virtual time at round start.
    pub start: SimTime,
    /// Virtual time at round completion (aggregation point).
    pub end: SimTime,
    /// Global-model test accuracy measured after this round's aggregation
    /// (if evaluated this round).
    pub accuracy: Option<f32>,
    /// Mean local training loss across aggregated clients.
    pub mean_train_loss: f32,
    /// Selected clients.
    pub n_selected: usize,
    /// Clients whose uploads arrived before the aggregation cut.
    pub n_aggregated: usize,
    /// Selected clients whose round died to an injected fault: crashes
    /// (availability churn: state intact, upload lost) plus worker panics
    /// (state destroyed).
    pub n_crashed: usize,
    /// Surviving clients whose upload arrived after the aggregation cut
    /// (stragglers whose update was discarded, including delayed results)
    /// or never arrived at all: a lost result arrives at +∞, after every
    /// cut.
    pub n_deadline_missed: usize,
    /// Reports rejected by the server's non-finite guard (NaN/Inf in the
    /// update or weight — e.g. an injected `corrupt_update` fault).
    pub n_rejected: usize,
    /// Iterations actually executed per selected client.
    pub iters_done: Vec<usize>,
    /// Iterations planned per selected client (differs from K under FedAda).
    pub iters_planned: Vec<usize>,
    /// Which clients stopped early (client-autonomous early stop).
    pub early_stops: Vec<bool>,
    /// Eager transmissions this round.
    pub eager_events: Vec<EagerEvent>,
    /// Total bytes uploaded by selected clients.
    pub bytes_uploaded: f64,
    /// Exact encoded wire bytes of this round's uploads (eager frames plus
    /// final messages) under the configured compression.
    pub wire_bytes_uploaded: f64,
    /// What the same uploads would have occupied shipped dense (f32).
    pub wire_bytes_dense: f64,
    /// Whether this was an unoptimized profiling (anchor) round.
    pub is_anchor: bool,
    /// Host wall-clock milliseconds spent executing this round (real time
    /// spent orchestrating and training, unrelated to the virtual clock).
    /// The trace's `round` span carries this number in microseconds.
    pub host_ms: f64,
    /// Clients derived fresh from `(seed, id)` this round (lazy client
    /// store).
    pub n_hydrated: usize,
    /// Clients evicted from residency at the end of this round.
    pub n_evicted: usize,
    /// Host wall-clock microseconds spent hydrating this round's cohort (the
    /// trace's `hydrate` span).
    pub hydrate_host_us: f64,
    /// Host wall-clock microseconds spent checking wire uploads at ingest
    /// time (tiling, lengths, finiteness). The decode itself runs in the
    /// fold, inside `aggregate_host_us`; the name stays because the
    /// benchmark reads it.
    pub decode_host_us: f64,
    /// Host wall-clock microseconds spent closing the round's aggregator:
    /// the weighted fold into the global model plus the estimator update
    /// (the trace's `aggregate` span).
    pub aggregate_host_us: f64,
    /// Always 0: the shard link no longer resends anything (a link fault
    /// kills the child and its work runs in the root). The field survives
    /// only because `examples/benchmark/src/run.rs`, which this repository's
    /// benchmark contract freezes, sums it into `transport.retries`.
    pub n_retries: usize,
    /// Always 0: there is no heartbeat any more (a silent shard is caught
    /// by the io bound and counted in `n_quarantined`). Kept, like
    /// `n_retries`, only because the frozen benchmark sums it into
    /// `transport.heartbeats_missed`.
    pub n_heartbeat_missed: usize,
    /// Shards quarantined this round: a link fault, failed (re)spawn or
    /// dispatch, or io timeout; their child process was killed.
    pub n_quarantined: usize,
    /// Ordinals re-executed locally after their shard was quarantined.
    pub n_reassigned: usize,
}

impl RoundRecord {
    /// The canonical half: this record with its ten operational fields
    /// zeroed. Two runs of one trajectory — any host, worker count,
    /// residency cap or shard topology, failovers included — have `==`
    /// canonical records. This is the one list of operational fields.
    pub fn canonical(&self) -> RoundRecord {
        RoundRecord {
            host_ms: 0.0,
            n_hydrated: 0,
            n_evicted: 0,
            hydrate_host_us: 0.0,
            decode_host_us: 0.0,
            aggregate_host_us: 0.0,
            n_retries: 0,
            n_heartbeat_missed: 0,
            n_quarantined: 0,
            n_reassigned: 0,
            ..self.clone()
        }
    }

    /// Round duration in virtual seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// Achieved upload compression ratio (encoded / dense bytes), 1.0 when
    /// nothing was transmitted.
    pub fn compression_ratio(&self) -> f64 {
        if self.wire_bytes_dense > 0.0 {
            self.wire_bytes_uploaded / self.wire_bytes_dense
        } else {
            1.0
        }
    }
}

/// Converts per-layer outcomes into eager events for the record.
pub fn outcomes_to_events(client: usize, outcomes: &[LayerOutcome]) -> Vec<EagerEvent> {
    outcomes
        .iter()
        .enumerate()
        .filter_map(|(layer, o)| match o {
            LayerOutcome::Regular => None,
            LayerOutcome::Eager { iter } => Some(EagerEvent {
                client,
                layer,
                iter: *iter,
                retransmitted: false,
            }),
            LayerOutcome::Retransmitted { iter } => Some(EagerEvent {
                client,
                layer,
                iter: *iter,
                retransmitted: true,
            }),
        })
        .collect()
}

/// Empirical CDF of a sample: sorted `(value, fraction ≤ value)` pairs.
pub fn empirical_cdf(values: &[f64]) -> Vec<(f64, f64)> {
    if values.is_empty() {
        return Vec::new();
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN values"));
    let n = sorted.len() as f64;
    sorted
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, (i + 1) as f64 / n))
        .collect()
}

/// Full output of a training run.
#[derive(Clone, Debug, Default)]
pub struct TrainerOutput {
    /// Scheme name.
    pub scheme: String,
    /// Workload name.
    pub workload: String,
    /// All round records, in order.
    pub rounds: Vec<RoundRecord>,
}

impl TrainerOutput {
    /// Virtual time and round index at which test accuracy first reached
    /// `target`, if it ever did.
    pub fn time_to_accuracy(&self, target: f32) -> Option<(SimTime, usize)> {
        self.rounds
            .iter()
            .find(|r| r.accuracy.is_some_and(|a| a >= target))
            .map(|r| (r.end, r.round))
    }

    /// Mean per-round duration (all rounds).
    pub fn mean_round_time(&self) -> f64 {
        if self.rounds.is_empty() {
            return 0.0;
        }
        self.rounds.iter().map(|r| r.duration()).sum::<f64>() / self.rounds.len() as f64
    }

    /// Best accuracy observed.
    pub fn best_accuracy(&self) -> f32 {
        self.rounds
            .iter()
            .filter_map(|r| r.accuracy)
            .fold(0.0, f32::max)
    }

    /// `(virtual time, accuracy)` series for time-to-accuracy plots
    /// (rounds with an evaluation only).
    pub fn accuracy_series(&self) -> Vec<(SimTime, f32)> {
        self.rounds
            .iter()
            .filter_map(|r| r.accuracy.map(|a| (r.end, a)))
            .collect()
    }

    /// Iterations at which clients early-stopped, across all non-anchor
    /// rounds (Fig. 8a input). For clients that ran to completion the
    /// planned iteration count is recorded, matching the paper's convention.
    pub fn stop_iterations(&self) -> Vec<f64> {
        let mut out = Vec::new();
        for r in &self.rounds {
            if r.is_anchor {
                continue;
            }
            for &it in &r.iters_done {
                out.push(it as f64);
            }
        }
        out
    }

    /// Eager-transmission iterations across all rounds (Fig. 8b input).
    /// With `count_retransmit_as_last = true`, retransmitted layers count at
    /// the round's final iteration (the paper's convention).
    pub fn eager_iterations(&self, count_retransmit_as_last: bool, k: usize) -> Vec<f64> {
        let mut out = Vec::new();
        for r in &self.rounds {
            for e in &r.eager_events {
                if e.retransmitted && count_retransmit_as_last {
                    out.push(k as f64);
                } else {
                    out.push(e.iter as f64);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(round: usize, end: f64, acc: Option<f32>) -> RoundRecord {
        RoundRecord {
            round,
            start: end - 1.0,
            end,
            accuracy: acc,
            mean_train_loss: 1.0,
            n_selected: 4,
            n_aggregated: 4,
            n_crashed: 0,
            n_deadline_missed: 0,
            n_rejected: 0,
            iters_done: vec![10; 4],
            iters_planned: vec![10; 4],
            early_stops: vec![false; 4],
            eager_events: vec![],
            bytes_uploaded: 0.0,
            wire_bytes_uploaded: 0.0,
            wire_bytes_dense: 0.0,
            is_anchor: false,
            host_ms: 0.0,
            n_hydrated: 0,
            n_evicted: 0,
            hydrate_host_us: 0.0,
            decode_host_us: 0.0,
            aggregate_host_us: 0.0,
            n_retries: 0,
            n_heartbeat_missed: 0,
            n_quarantined: 0,
            n_reassigned: 0,
        }
    }

    #[test]
    fn time_to_accuracy_finds_first_crossing() {
        let out = TrainerOutput {
            scheme: "FedAvg".into(),
            workload: "cnn".into(),
            rounds: vec![
                record(0, 1.0, Some(0.2)),
                record(1, 2.0, Some(0.6)),
                record(2, 3.0, Some(0.5)),
                record(3, 4.0, Some(0.7)),
            ],
        };
        assert_eq!(out.time_to_accuracy(0.55), Some((2.0, 1)));
        assert_eq!(out.time_to_accuracy(0.9), None);
        assert!((out.best_accuracy() - 0.7).abs() < 1e-6);
        assert_eq!(out.accuracy_series().len(), 4);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let cdf = empirical_cdf(&[3.0, 1.0, 2.0, 2.0]);
        assert_eq!(cdf.len(), 4);
        assert_eq!(cdf[0], (1.0, 0.25));
        assert_eq!(cdf.last().unwrap().1, 1.0);
        for w in cdf.windows(2) {
            assert!(w[1].0 >= w[0].0 && w[1].1 >= w[0].1);
        }
        assert!(empirical_cdf(&[]).is_empty());
    }

    #[test]
    fn eager_iterations_respects_retransmit_convention() {
        let mut r = record(0, 1.0, None);
        r.eager_events = vec![
            EagerEvent {
                client: 0,
                layer: 0,
                iter: 30,
                retransmitted: false,
            },
            EagerEvent {
                client: 0,
                layer: 1,
                iter: 40,
                retransmitted: true,
            },
        ];
        let out = TrainerOutput {
            scheme: "FedCA".into(),
            workload: "cnn".into(),
            rounds: vec![r],
        };
        assert_eq!(out.eager_iterations(true, 125), vec![30.0, 125.0]);
        assert_eq!(out.eager_iterations(false, 125), vec![30.0, 40.0]);
    }

    #[test]
    fn canonical_forgets_exactly_the_operational_fields() {
        let a = record(2, 5.0, Some(0.5));
        let b = RoundRecord {
            host_ms: 12.5,
            n_hydrated: 3,
            n_evicted: 2,
            hydrate_host_us: 40.0,
            decode_host_us: 7.5,
            aggregate_host_us: 9.0,
            n_retries: 1,
            n_heartbeat_missed: 4,
            n_quarantined: 1,
            n_reassigned: 2,
            ..a.clone()
        };
        assert_ne!(a, b);
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(b.canonical().canonical(), b.canonical());

        let canonical_changes: [fn(&mut RoundRecord); 18] = [
            |r| r.round += 1,
            |r| r.start -= 0.5,
            |r| r.end += 0.5,
            |r| r.accuracy = None,
            |r| r.mean_train_loss *= 2.0,
            |r| r.n_selected += 1,
            |r| r.n_aggregated -= 1,
            |r| r.n_crashed += 1,
            |r| r.n_deadline_missed += 1,
            |r| r.n_rejected += 1,
            |r| r.iters_done[0] -= 1,
            |r| r.iters_planned[1] += 1,
            |r| r.early_stops[2] = true,
            |r| {
                r.eager_events.push(EagerEvent {
                    client: 0,
                    layer: 0,
                    iter: 3,
                    retransmitted: false,
                })
            },
            |r| r.bytes_uploaded += 1.0,
            |r| r.wire_bytes_uploaded += 1.0,
            |r| r.wire_bytes_dense += 1.0,
            |r| r.is_anchor = true,
        ];
        for (i, change) in canonical_changes.iter().enumerate() {
            let mut c = b.clone();
            change(&mut c);
            assert_ne!(c.canonical(), b.canonical(), "change #{i} forgotten");
        }
    }

    #[test]
    fn stop_iterations_skip_anchor_rounds() {
        let mut a = record(0, 1.0, None);
        a.is_anchor = true;
        let b = record(1, 2.0, None);
        let out = TrainerOutput {
            scheme: "FedCA".into(),
            workload: "cnn".into(),
            rounds: vec![a, b],
        };
        assert_eq!(out.stop_iterations().len(), 4);
    }
}
