//! Run totals: the one place [`RoundRecord`] counters are summed.

use fedca_core::metrics::RoundRecord;
use std::iter::Sum;

/// Sums over a run's per-round records.
#[derive(Clone, Copy, Debug)]
pub struct Totals<'a>(&'a [RoundRecord]);

impl<'a> Totals<'a> {
    /// Totals of `records`.
    pub fn of(records: &'a [RoundRecord]) -> Self {
        Totals(records)
    }

    /// One counter summed over the run, e.g. `sum(|r| r.n_dropped)`.
    pub fn sum<T: Sum>(&self, counter: impl Fn(&RoundRecord) -> T) -> T {
        self.0.iter().map(counter).sum()
    }

    /// Achieved upload compression ratio (encoded / dense wire bytes); 1.0
    /// when nothing was transmitted.
    pub fn wire_ratio(&self) -> f64 {
        let dense = self.sum(|r| r.wire_bytes_dense);
        if dense > 0.0 {
            self.sum(|r| r.wire_bytes_uploaded) / dense
        } else {
            1.0
        }
    }

    /// The operational summary a run logs: throughput and faults, data
    /// plane, shards (all 0 on a healthy run).
    pub fn notes(&self) -> [String; 3] {
        let rounds = self.0.len();
        let host_ms: f64 = self.sum(|r| r.host_ms);
        let aggregate_us: f64 = self.sum(|r| r.aggregate_host_us);
        [
            format!(
                "  throughput: {rounds} rounds in {host_ms:.0} ms host time ({:.1} rounds/s); \
                 faults: {} crashed, {} dropped, {} deadline-missed, {} rejected; \
                 store: {} hydrated, {} evicted, {:.0} µs hydrating",
                rounds as f64 / (host_ms / 1e3).max(1e-9),
                self.sum(|r| r.n_crashed),
                self.sum(|r| r.n_dropped),
                self.sum(|r| r.n_deadline_missed),
                self.sum(|r| r.n_rejected),
                self.sum(|r| r.n_hydrated),
                self.sum(|r| r.n_evicted),
                self.sum(|r| r.hydrate_host_us),
            ),
            format!(
                "  data plane: {:.0} µs ingest check, {aggregate_us:.0} µs close-fold \
                 ({:.1} µs/round fold)",
                self.sum(|r| r.decode_host_us),
                aggregate_us / (rounds as f64).max(1.0),
            ),
            format!(
                "  shards: {} quarantined, {} ordinals re-run in the root",
                self.sum(|r| r.n_quarantined),
                self.sum(|r| r.n_reassigned),
            ),
        ]
    }
}
