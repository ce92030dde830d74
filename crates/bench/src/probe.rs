//! The two JSON probes: each trains one FedAvg study with evaluation off
//! and returns one JSON object (the line `main` prints on stdout) for a
//! gate script to read with `jq`.
//!
//! * `probe-population` — `tiny_mlp` over an arbitrarily large client
//!   population. The lazy client store derives clients on demand from
//!   `(seed, id)`, so the resident set — and therefore peak RSS — scales
//!   with the cohort, not the population. `scripts/population_check.sh`
//!   runs it once per population size (peak RSS is process-monotone) and
//!   gates the numbers against `BENCH_population.json`.
//! * `probe-shard` — one study at a requested shard/worker topology.
//!   `scripts/shard_check.sh` runs it once per topology: the parameter
//!   fingerprint must be identical across topologies and the 4-shard run
//!   must clear the within-run ratio gate against the 1-shard run.
//!
//! ```text
//! fedca-bench probe-population --n-clients 1000000 [--cohort 128] [--rounds 20]
//! fedca-bench probe-shard --shards 4 [--workers 1] [--rounds 6] [--workload wrn]
//! ```

use crate::{apply_population, build_workload, Cli, CliError, Log, Totals};
use fedca_core::{FlConfig, Scheme, Trainer, Workload};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct PopulationReport {
    n_clients: usize,
    cohort: usize,
    rounds: usize,
    cache_clients: usize,
    setup_s: f64,
    rounds_per_sec: f64,
    peak_rss_mib: f64,
    n_hydrated: usize,
    n_evicted: usize,
    n_resident: usize,
    n_dirty: usize,
}

#[derive(Serialize)]
struct ShardReport {
    workload: String,
    shards: usize,
    workers: usize,
    n_clients: usize,
    cohort: usize,
    rounds: usize,
    setup_s: f64,
    train_s: f64,
    rounds_per_sec: f64,
    peak_rss_mib: f64,
    /// Failover totals over the run (all 0 on a healthy run).
    n_heartbeat_missed: usize,
    n_quarantined: usize,
    n_reassigned: usize,
    /// FNV-1a over the final global parameter bits — topology-invariant.
    params_fingerprint: String,
}

/// Process-lifetime peak resident set size in MiB, from `VmHWM` in
/// `/proc/self/status` (0.0 where procfs is unavailable).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

fn fingerprint(params: &[f32]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &v in params {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Builds a FedAvg trainer (`workers: None` sizes the pool from the host)
/// and trains `rounds` rounds without evaluation, timing both phases.
fn timed_run(
    fl: &FlConfig,
    workload: Workload,
    workers: Option<usize>,
    rounds: usize,
) -> (Trainer, f64, f64) {
    let t0 = Instant::now();
    let mut trainer = match workers {
        Some(n) => Trainer::new_with_workers(fl.clone(), Scheme::FedAvg, workload, n),
        None => Trainer::new(fl.clone(), Scheme::FedAvg, workload),
    };
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    trainer.eval_every = 0;
    trainer.run(rounds);
    (trainer, setup_s, t1.elapsed().as_secs_f64())
}

/// The virtual-population scaling probe.
pub fn population(cli: &Cli) -> Result<String, CliError> {
    let n_clients = cli.n_clients.unwrap_or(1_000_000);
    let rounds = cli.rounds.unwrap_or(20);
    let workload = Workload::tiny_mlp(cli.seed());
    let mut fl = FlConfig {
        clients_per_round: cli.cohort.unwrap_or(128),
        local_iters: 6,
        batch_size: 8,
        lr: workload.lr,
        weight_decay: workload.weight_decay,
        seed: cli.seed(),
        ..FlConfig::default()
    };
    apply_population(&mut fl, n_clients);
    Log::default().note(&format!(
        "population study: {n_clients} clients, cohort {}, {rounds} rounds, \
         residency cap {}",
        fl.clients_per_round, fl.population.cache_clients
    ));
    let (trainer, setup_s, train_s) = timed_run(&fl, workload, None, rounds);
    let totals = Totals::of(trainer.records());
    let report = PopulationReport {
        n_clients: fl.n_clients,
        cohort: fl.clients_per_round,
        rounds,
        cache_clients: fl.population.cache_clients,
        setup_s,
        rounds_per_sec: rounds as f64 / train_s.max(1e-9),
        peak_rss_mib: peak_rss_mib(),
        n_hydrated: totals.sum(|r| r.n_hydrated),
        n_evicted: totals.sum(|r| r.n_evicted),
        n_resident: trainer.store().n_resident(),
        n_dirty: trainer.store().n_dirty(),
    };
    Ok(serde_json::to_string(&report).expect("serialize"))
}

/// The sharded-execution probe.
pub fn shard(cli: &Cli) -> Result<String, CliError> {
    let shards = cli.shards.unwrap_or(1);
    let workers = cli.workers.unwrap_or(1);
    let rounds = cli.rounds.unwrap_or(6);
    let name = cli.workload.clone().unwrap_or_else(|| "wrn".to_string());
    let workload = build_workload(&name, cli.scale, cli.seed())?;
    let mut fl = FlConfig {
        n_clients: 32,
        clients_per_round: 8,
        local_iters: cli.local_iters.unwrap_or(15),
        batch_size: 16,
        lr: workload.lr,
        weight_decay: workload.weight_decay,
        seed: cli.seed(),
        ..FlConfig::scaled()
    };
    fl.shard.n_shards = shards;
    Log::default().note(&format!(
        "shard study: {name}, {shards} shards x {workers} workers, \
         cohort {}, {rounds} rounds",
        fl.clients_per_round,
    ));
    let (trainer, setup_s, train_s) = timed_run(&fl, workload, Some(workers), rounds);
    let totals = Totals::of(trainer.records());
    let report = ShardReport {
        workload: name,
        shards,
        workers,
        n_clients: fl.n_clients,
        cohort: fl.clients_per_round,
        rounds,
        setup_s,
        train_s,
        rounds_per_sec: rounds as f64 / train_s.max(1e-9),
        peak_rss_mib: peak_rss_mib(),
        n_heartbeat_missed: totals.sum(|r| r.n_heartbeat_missed),
        n_quarantined: totals.sum(|r| r.n_quarantined),
        n_reassigned: totals.sum(|r| r.n_reassigned),
        params_fingerprint: fingerprint(trainer.global_params()),
    };
    Ok(serde_json::to_string(&report).expect("serialize"))
}
