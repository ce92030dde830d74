//! Lazy, rederivable client state for virtual populations.
//!
//! Every client's *initial* state is a pure function of
//! `(config, client id)`: the data shard comes from
//! [`PartitionSpec::shard_for`], the device speed class from
//! [`fedscale_like_at`], and the device/profiler/client RNG streams are
//! keyed with [`fedca_sim::stream::mix`] on dedicated domains. Nothing is
//! drawn from a shared RNG, so hydrating clients in any order — or never
//! hydrating most of them at all — yields byte-identical state.
//!
//! [`ClientStore`] exploits that to hold a population of millions while
//! materializing only the selected cohort each round:
//!
//! * **hydrate** — derive the client fresh from the factory; if it carries
//!   mutated state from an earlier eviction, overlay its
//!   [`ClientSnapshot`]. Hydration draws no profiler sample: a
//!   [`SampledProfiler`] draws its own on first use, at the client's first
//!   anchor round, so a client that never profiles never pays for one.
//! * **checkout / check-in** — move the state to a worker and back,
//!   mirroring the old `Vec<Option<ClientState>>` slots but with typed
//!   errors instead of panics.
//! * **end-of-round eviction** — beyond the configured residency cap
//!   (`FlConfig::population.cache_clients`), least-recently-selected
//!   clients are evicted: a client that ever participated snapshots into a
//!   compact *dirty* overlay (its mutable state is the only thing that
//!   cannot be rederived), an untouched one is simply dropped.
//!
//! The overlay's [`ClientSnapshot`] is also what a shard child replays: its
//! `factory.build` + [`apply_snapshot`] is the same derivation as a local
//! hydrate. Between them, eviction and the shard hand-off are the only
//! readers of a client's snapshot.

use crate::checkpoint::ClientSnapshot;
use crate::client::ClientState;
use crate::config::FlConfig;
use crate::params::ModelLayout;
use crate::profiler::{SampledProfiler, MAX_SAMPLES_PER_LAYER};
use crate::workload::Workload;
use fedca_data::{BatchSampler, PartitionSpec};
use fedca_sim::device::{DeviceSpeed, DynamicsConfig};
use fedca_sim::network::Link;
use fedca_sim::stream::{mix, DOMAIN_CLIENT, DOMAIN_PROFILER};
use fedca_sim::trace::fedscale_like_at;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// A client-store invariant violation, reported as a typed error instead of
/// a bare panic, so the round loop's panic names the client and the broken
/// invariant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TrainerError {
    /// The operation needs the client resident, but it is currently checked
    /// out to a worker.
    CheckedOut {
        /// The client in question.
        id: usize,
    },
    /// The client was checked out twice in the same round.
    DoubleCheckout {
        /// The client in question.
        id: usize,
    },
    /// A check-in (or failure rebuild) arrived for a client that was never
    /// checked out.
    NotCheckedOut {
        /// The client in question.
        id: usize,
    },
    /// The client is neither resident nor checked out — it was never
    /// hydrated (or already evicted).
    NotResident {
        /// The client in question.
        id: usize,
    },
    /// An id at or beyond the population size.
    UnknownClient {
        /// The offending id.
        id: usize,
        /// The population size.
        n_clients: usize,
    },
}

impl fmt::Display for TrainerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainerError::CheckedOut { id } => {
                write!(f, "client {id} is checked out to a worker")
            }
            TrainerError::DoubleCheckout { id } => {
                write!(f, "client {id} checked out twice in one round")
            }
            TrainerError::NotCheckedOut { id } => {
                write!(f, "client {id} came home without being checked out")
            }
            TrainerError::NotResident { id } => {
                write!(f, "client {id} is not hydrated")
            }
            TrainerError::UnknownClient { id, n_clients } => {
                write!(f, "client {id} outside the population of {n_clients}")
            }
        }
    }
}

impl std::error::Error for TrainerError {}

/// Everything needed to derive any client's initial state on demand. All
/// fields are config-derived, so two factories built from the same config
/// produce byte-identical clients in any hydration order.
pub struct ClientFactory {
    /// Federation configuration (seeds, batch size, heterogeneity flags).
    pub fl: FlConfig,
    /// Device-dynamics parameters shared by the whole federation.
    pub dynamics: DynamicsConfig,
    /// Model layout for the per-client profiler.
    pub layout: Arc<ModelLayout>,
    /// Profiler samples per layer.
    pub max_samples: usize,
    /// Derive-at-id data partition.
    pub partition: PartitionSpec,
}

impl ClientFactory {
    /// The federation's derivation context: device dynamics from
    /// `fl.dynamicity`, the profiler's sample cap, and the data
    /// partition over `workload`'s training labels. The trainer, every
    /// shard child and any caller that must derive clients exactly as the
    /// trainer does build it here.
    pub fn new(fl: &FlConfig, workload: &Workload, layout: Arc<ModelLayout>) -> Self {
        ClientFactory {
            fl: fl.clone(),
            dynamics: if fl.dynamicity {
                DynamicsConfig::paper()
            } else {
                DynamicsConfig::static_device()
            },
            layout,
            max_samples: MAX_SAMPLES_PER_LAYER,
            partition: PartitionSpec::new(
                workload.train.labels(),
                fl.n_clients,
                fl.dirichlet_alpha,
                fl.seed,
            ),
        }
    }

    /// Derives client `id`'s initial state: a pure function of
    /// `(fl.seed, id)` — no shared RNG, no population-sized table. The
    /// profiler is handed its seed, not a sample; it draws the sample at the
    /// client's first anchor round.
    pub fn build(&self, id: usize) -> ClientState {
        let seed = self.fl.seed;
        let shard = self.partition.shard_for(id);
        let sampler = BatchSampler::new(shard.clone(), self.fl.batch_size);
        let speed = if self.fl.heterogeneity {
            fedscale_like_at(seed, id as u64)
        } else {
            1.0
        };
        ClientState {
            id,
            shard,
            sampler,
            device: DeviceSpeed::for_client(speed, self.dynamics.clone(), seed, id as u64),
            uplink: Link::paper_client(),
            downlink: Link::paper_client(),
            profiler: SampledProfiler::new(
                self.layout.clone(),
                self.max_samples,
                mix(seed, DOMAIN_PROFILER, id as u64),
            ),
            seed: mix(seed, DOMAIN_CLIENT, id as u64),
            error_feedback: fedca_compress::ErrorFeedback::new(),
        }
    }
}

/// Captures a client's mutable cross-round state (the part that cannot be
/// rederived from config).
pub fn snapshot_client(c: &ClientState) -> ClientSnapshot {
    let (sampler_indices, sampler_cursor) = c.sampler.snapshot();
    ClientSnapshot {
        id: c.id,
        sampler_indices,
        sampler_cursor,
        device: c.device.snapshot(),
        uplink_busy_until: c.uplink.busy_until(),
        downlink_busy_until: c.downlink.busy_until(),
        curves: c.profiler.curves().cloned(),
        error_feedback: c.error_feedback.snapshot(),
    }
}

/// Overlays a dirty snapshot onto a freshly derived client. Public because
/// sharded execution replays the same overlay on the far side of a process
/// boundary: `factory.build + apply_snapshot` there is byte-identical to a
/// local [`ClientStore::hydrate`].
pub fn apply_snapshot(c: &mut ClientState, snap: &ClientSnapshot) {
    c.sampler
        .restore(snap.sampler_indices.clone(), snap.sampler_cursor);
    c.device.restore(&snap.device);
    c.uplink.restore_busy_until(snap.uplink_busy_until);
    c.downlink.restore_busy_until(snap.downlink_busy_until);
    c.profiler.restore_curves(snap.curves.clone());
    c.error_feedback.restore(snap.error_feedback.clone());
}

struct Resident {
    state: ClientState,
    /// Monotonic touch stamp for least-recently-selected eviction.
    touched: u64,
}

/// The lazy client store: hydrates the selected cohort on demand, keeps at
/// most `capacity` clients resident between rounds, and preserves mutated
/// state for evicted participants in a compact snapshot overlay.
pub struct ClientStore {
    factory: ClientFactory,
    resident: HashMap<usize, Resident>,
    checked_out: HashSet<usize>,
    /// Evicted-but-mutated clients: `dirty ∩ resident = ∅` always (hydration
    /// moves the overlay back into residency).
    dirty: HashMap<usize, ClientSnapshot>,
    /// Sparse participation counts: the one count the anchor cadence and
    /// eviction read. It survives eviction and failure rebuilds.
    participations: HashMap<usize, usize>,
    touch_counter: u64,
    /// Residency cap after a round; 0 means unbounded.
    capacity: usize,
}

impl ClientStore {
    /// Creates an empty store; the residency cap comes from
    /// `factory.fl.population.cache_clients`.
    pub fn new(factory: ClientFactory) -> Self {
        let capacity = factory.fl.population.cache_clients;
        ClientStore {
            factory,
            resident: HashMap::new(),
            checked_out: HashSet::new(),
            dirty: HashMap::new(),
            participations: HashMap::new(),
            touch_counter: 0,
            capacity,
        }
    }

    /// The population size.
    pub fn n_clients(&self) -> usize {
        self.factory.fl.n_clients
    }

    /// The client factory (derivation parameters).
    pub fn factory(&self) -> &ClientFactory {
        &self.factory
    }

    /// Hydrated clients currently resident (not counting checked-out ones).
    pub fn n_resident(&self) -> usize {
        self.resident.len()
    }

    /// Evicted clients with preserved mutated state.
    pub fn n_dirty(&self) -> usize {
        self.dirty.len()
    }

    /// How many rounds client `id` has been checked out for.
    pub fn participations(&self, id: usize) -> usize {
        self.participations.get(&id).copied().unwrap_or(0)
    }

    /// Counts one more participation of client `id` and returns the count
    /// before it: the anchor cadence profiles when that is a multiple of
    /// the profiling period.
    pub fn bump_participation(&mut self, id: usize) -> usize {
        let n = self.participations.entry(id).or_insert(0);
        *n += 1;
        *n - 1
    }

    fn check_id(&self, id: usize) -> Result<(), TrainerError> {
        if id >= self.factory.fl.n_clients {
            return Err(TrainerError::UnknownClient {
                id,
                n_clients: self.factory.fl.n_clients,
            });
        }
        Ok(())
    }

    /// Makes client `id` resident. Returns `true` if this required deriving
    /// it fresh (a *hydration*), `false` if it was already resident.
    pub fn hydrate(&mut self, id: usize) -> Result<bool, TrainerError> {
        self.check_id(id)?;
        if self.checked_out.contains(&id) {
            return Err(TrainerError::CheckedOut { id });
        }
        self.touch_counter += 1;
        let touched = self.touch_counter;
        if let Some(r) = self.resident.get_mut(&id) {
            r.touched = touched;
            return Ok(false);
        }
        let mut state = self.factory.build(id);
        if let Some(snap) = self.dirty.remove(&id) {
            apply_snapshot(&mut state, &snap);
        }
        self.resident.insert(id, Resident { state, touched });
        Ok(true)
    }

    /// Resident view of a client (hydrates it if needed).
    pub fn client_mut(&mut self, id: usize) -> Result<&mut ClientState, TrainerError> {
        self.hydrate(id)?;
        Ok(&mut self.resident.get_mut(&id).expect("just hydrated").state)
    }

    /// Resident view without hydrating.
    pub fn peek(&self, id: usize) -> Option<&ClientState> {
        self.resident.get(&id).map(|r| &r.state)
    }

    /// Moves a resident client's state out, to hand to a worker.
    pub fn checkout(&mut self, id: usize) -> Result<ClientState, TrainerError> {
        self.check_id(id)?;
        if self.checked_out.contains(&id) {
            return Err(TrainerError::DoubleCheckout { id });
        }
        let r = self
            .resident
            .remove(&id)
            .ok_or(TrainerError::NotResident { id })?;
        self.checked_out.insert(id);
        Ok(r.state)
    }

    /// Returns a checked-out client's state after its round.
    pub fn check_in(&mut self, state: ClientState) -> Result<(), TrainerError> {
        let id = state.id;
        if !self.checked_out.remove(&id) {
            return Err(TrainerError::NotCheckedOut { id });
        }
        self.touch_counter += 1;
        self.resident.insert(
            id,
            Resident {
                state,
                touched: self.touch_counter,
            },
        );
        Ok(())
    }

    /// Replaces a client destroyed by a worker panic with a freshly derived
    /// one. Its participation count carries over (the server still knows the
    /// client); everything else — including any dirty overlay — restarts
    /// fresh, which is exactly the paper's availability-churn semantics.
    pub fn rebuild_failed(&mut self, id: usize) -> Result<(), TrainerError> {
        if !self.checked_out.remove(&id) {
            return Err(TrainerError::NotCheckedOut { id });
        }
        self.dirty.remove(&id);
        let state = self.factory.build(id);
        self.touch_counter += 1;
        self.resident.insert(
            id,
            Resident {
                state,
                touched: self.touch_counter,
            },
        );
        Ok(())
    }

    /// End-of-round residency enforcement: evicts least-recently-selected
    /// clients beyond the cap. A client that ever participated moves its
    /// mutable state into the dirty overlay; an untouched one is dropped
    /// (its state is still derivable bit-for-bit). Returns the number
    /// evicted this call.
    pub fn end_round(&mut self) -> usize {
        if self.capacity == 0 || self.resident.len() <= self.capacity {
            return 0;
        }
        let excess = self.resident.len() - self.capacity;
        let mut by_age: Vec<(u64, usize)> = self
            .resident
            .iter()
            .map(|(&id, r)| (r.touched, id))
            .collect();
        by_age.sort_unstable();
        for &(_, id) in by_age.iter().take(excess) {
            let r = self.resident.remove(&id).expect("listed as resident");
            if self.participations(id) > 0 {
                self.dirty.insert(id, snapshot_client(&r.state));
            }
        }
        excess
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn factory(n_clients: usize, cache: usize) -> ClientFactory {
        let workload = Workload::tiny_mlp(1);
        let model = (workload.model_factory)();
        let layout = Arc::new(ModelLayout::from_spans(model.spans()));
        let mut fl = FlConfig {
            n_clients,
            clients_per_round: 4.min(n_clients),
            ..FlConfig::scaled()
        };
        fl.population.cache_clients = cache;
        let partition = PartitionSpec::new(
            workload.train.labels(),
            n_clients,
            fl.dirichlet_alpha,
            fl.seed,
        );
        ClientFactory {
            dynamics: DynamicsConfig::static_device(),
            layout,
            max_samples: 16,
            partition,
            fl,
        }
    }

    #[test]
    fn factory_builds_are_pure_functions_of_id() {
        let f = factory(64, 0);
        let a = f.build(13);
        let b = f.build(13);
        assert_eq!(a.shard, b.shard);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.device.snapshot(), b.device.snapshot());
        assert_eq!(a.sampler.snapshot(), b.sampler.snapshot());
        let c = f.build(14);
        assert_ne!(a.seed, c.seed, "distinct ids, distinct streams");
    }

    #[test]
    fn hydration_order_is_irrelevant() {
        let snap_of = |store: &mut ClientStore, id: usize| {
            store.hydrate(id).unwrap();
            snapshot_client(store.peek(id).unwrap())
        };
        let mut fwd = ClientStore::new(factory(32, 0));
        let mut rev = ClientStore::new(factory(32, 0));
        let forward: Vec<_> = (0..32).map(|id| snap_of(&mut fwd, id)).collect();
        let mut backward: Vec<_> = (0..32).rev().map(|id| snap_of(&mut rev, id)).collect();
        backward.reverse();
        assert_eq!(forward, backward);
    }

    #[test]
    fn checkout_lifecycle_and_typed_errors() {
        let mut store = ClientStore::new(factory(8, 0));
        assert_eq!(
            store.hydrate(99),
            Err(TrainerError::UnknownClient {
                id: 99,
                n_clients: 8
            })
        );
        assert!(store.hydrate(3).unwrap(), "first touch derives fresh");
        assert!(!store.hydrate(3).unwrap(), "second touch is a cache hit");
        let state = store.checkout(3).unwrap();
        assert!(matches!(
            store.checkout(3),
            Err(TrainerError::DoubleCheckout { id: 3 })
        ));
        assert_eq!(store.hydrate(3), Err(TrainerError::CheckedOut { id: 3 }));
        store.check_in(state).unwrap();
        let stray = store.factory().build(5);
        assert_eq!(
            store.check_in(stray),
            Err(TrainerError::NotCheckedOut { id: 5 })
        );
        assert!(matches!(
            store.checkout(6),
            Err(TrainerError::NotResident { id: 6 })
        ));
    }

    #[test]
    fn eviction_keeps_mutated_state_and_drops_clean_state() {
        let mut store = ClientStore::new(factory(16, 2));
        for id in 0..6 {
            assert!(store.hydrate(id).unwrap(), "client {id} derived fresh");
        }
        // Simulate participation for clients 0 and 1 (oldest touches).
        for id in 0..2 {
            let mut s = store.checkout(id).unwrap();
            let _ = s
                .sampler
                .next_batch(&mut rand::rngs::StdRng::seed_from_u64(9));
            store.check_in(s).unwrap();
            store.bump_participation(id);
        }
        let evicted = store.end_round();
        assert_eq!(evicted, 4, "6 resident, cap 2");
        assert_eq!(store.n_resident(), 2);
        // Check-in re-touched 0 and 1, so the survivors are exactly them and
        // the untouched 2..6 were dropped without a dirty entry.
        assert_eq!(store.n_dirty(), 0);
        assert!(store.peek(0).is_some() && store.peek(1).is_some());

        // Now push 0 and 1 out with fresh hydrations: their mutated state
        // must survive in the overlay and come back on rehydration.
        let before = snapshot_client(store.peek(0).unwrap());
        for id in 10..14 {
            store.hydrate(id).unwrap();
        }
        store.end_round();
        assert_eq!(store.n_dirty(), 2, "participants 0 and 1 preserved");
        assert!(store.peek(0).is_none());
        store.hydrate(0).unwrap();
        assert_eq!(store.n_dirty(), 1, "overlay moved back into residency");
        let after = snapshot_client(store.peek(0).unwrap());
        assert_eq!(before, after, "eviction round-trip is lossless");
        assert_eq!(store.participations(0), 1);
    }

    #[test]
    fn rebuild_failed_carries_participations_only() {
        let mut store = ClientStore::new(factory(8, 0));
        store.hydrate(2).unwrap();
        store.participations.insert(2, 3);
        let fresh = store.factory().build(2);
        let _ = store.checkout(2).unwrap(); // worker takes it and panics
        store.rebuild_failed(2).unwrap();
        assert_eq!(
            store.participations(2),
            3,
            "anchor cadence survives the panic"
        );
        assert_eq!(
            store.peek(2).unwrap().device.snapshot(),
            fresh.device.snapshot(),
            "everything else restarts fresh"
        );
        assert_eq!(
            store.rebuild_failed(2),
            Err(TrainerError::NotCheckedOut { id: 2 })
        );
    }
}
