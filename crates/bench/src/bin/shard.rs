//! Sharded-execution probe: trains one study at a requested shard/worker
//! topology and reports round throughput plus a parameter fingerprint as
//! one JSON object on stdout.
//!
//! `scripts/shard_check.sh` runs this binary once per topology: the
//! fingerprint must be identical across topologies (the topology-invariance
//! guarantee, in release mode, on a real workload) and the 4-shard run must
//! beat the 1-shard run's round throughput by the gated factor.
//!
//! ```text
//! cargo run --release -p fedca-bench --bin shard -- \
//!     --shards 4 [--workers 1] [--rounds 6] [--workload wrn]
//! ```

use fedca_bench::{note, seed_from_env, workload_by_name, ExpScale};
use fedca_core::{FlConfig, Scheme, Trainer};
use serde::Serialize;

/// The probe's single stdout line (consumed by `scripts/shard_check.sh`
/// via `jq`).
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
    /// Failover totals over the run: heartbeats missed, shards
    /// quarantined, ordinals re-run in the root (all 0 on a healthy run).
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

fn arg_value(name: &str) -> Option<String> {
    let mut args = std::env::args();
    let eq = format!("{name}=");
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
        if let Some(v) = a.strip_prefix(&eq) {
            return Some(v.to_string());
        }
    }
    None
}

fn usize_arg(name: &str, default: usize) -> usize {
    arg_value(name)
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("{name} requires a positive integer, got {v:?}"))
        })
        .unwrap_or(default)
}

fn main() {
    // Shard children re-enter this binary: serve the protocol and exit.
    if fedca_core::shard::maybe_run_child() {
        return;
    }
    let shards = usize_arg("--shards", 1);
    let workers = usize_arg("--workers", 1);
    let rounds = usize_arg("--rounds", 6);
    let name = arg_value("--workload").unwrap_or_else(|| "wrn".to_string());
    let seed = seed_from_env();

    let workload = workload_by_name(&name, ExpScale::from_env(), seed);
    let mut fl = FlConfig {
        n_clients: 32,
        clients_per_round: 8,
        local_iters: usize_arg("--local-iters", 15),
        batch_size: 16,
        lr: workload.lr,
        weight_decay: workload.weight_decay,
        seed,
        ..FlConfig::scaled()
    };
    fl.shard.n_shards = shards;

    note(&format!(
        "shard study: {name}, {shards} shards x {workers} workers, \
         cohort {}, {rounds} rounds",
        fl.clients_per_round,
    ));

    let t0 = std::time::Instant::now();
    let mut trainer = Trainer::new_with_workers(fl.clone(), Scheme::FedAvg, workload, workers);
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = std::time::Instant::now();
    trainer.eval_every = 0;
    trainer.run(rounds);
    let train_s = t1.elapsed().as_secs_f64();

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
        n_heartbeat_missed: trainer.records().iter().map(|r| r.n_heartbeat_missed).sum(),
        n_quarantined: trainer.records().iter().map(|r| r.n_quarantined).sum(),
        n_reassigned: trainer.records().iter().map(|r| r.n_reassigned).sum(),
        params_fingerprint: fingerprint(trainer.global_params()),
    };
    println!("{}", serde_json::to_string(&report).expect("serialize"));
}
