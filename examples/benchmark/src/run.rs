//! One run of one workload: set-up, the timed closed loop, the output
//! checks, and the metrics. `--trace 0` measures the end-to-end metrics with
//! tracing off; `--trace 1` runs the same workload traced, an untraced twin
//! over exactly the same rounds (the difference is the tracing overhead, the
//! fingerprints must agree), and the isolated per-layer probes.

use crate::probes;
use crate::report::{median, num, obj, pos, quantile, Metrics, END_TO_END, PER_LAYER};
use crate::spans::SpanStore;
use crate::workloads::{self, Spec};
use fedca_core::checkpoint::fnv1a;
use fedca_core::metrics::RoundRecord;
use fedca_core::{Scheme, TraceConfig, Trainer};
use serde_json::Value;
use std::time::Instant;

/// How many times the untraced run sets the workload up; `setup_s` is the
/// median, the last trainer runs the timed loop.
const SETUPS: usize = 3;

/// Rounds of the FedAvg reference `cnn_fedca`'s virtual round time must beat.
const FEDAVG_REF_ROUNDS: usize = 20;

/// Rounds (warm-up included) by which the cnn workloads must have reached
/// their target accuracy, the scaled Table 1 target. Every seed tried gets
/// there within 40; a 12-second run covers 90 or more, and a run too short
/// to cover these skips the check.
const ACCURACY_ROUNDS: usize = 48;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: Option<String>,
}

/// Failed output checks; the run is `correct` only if none failed.
#[derive(Default)]
struct Checks(Vec<String>);

impl Checks {
    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }
}

struct Setup {
    spec: Spec,
    trainer: Trainer,
    new_ms: f64,
    total_s: f64,
}

/// Workload build + `Trainer::new_with_workers` (shard spawn and handshake
/// included) + warm-up rounds — everything `setup_s` covers.
fn set_up(name: &str, seed: u64, sink: Option<&SpanStore>, tweak: impl FnOnce(&mut Spec)) -> Setup {
    let t0 = Instant::now();
    let mut spec = workloads::build(name, seed).expect("workload name was validated");
    tweak(&mut spec);
    if sink.is_some() {
        spec.fl.trace = TraceConfig::enabled();
    }
    if let Some(s) = sink {
        s.close_outer("workload_build", t0);
    }
    let t_new = Instant::now();
    let mut trainer = Trainer::new_with_workers(
        spec.fl.clone(),
        spec.scheme.clone(),
        spec.workload.clone(),
        spec.workers,
    );
    let new_ms = t_new.elapsed().as_secs_f64() * 1e3;
    trainer.eval_every = spec.eval_every;
    if let Some(s) = sink {
        s.close_outer("trainer_new", t_new);
        trainer.tracer().add_sink(Box::new(s.clone()));
    }
    let t_warm = Instant::now();
    for _ in 0..spec.warmup {
        trainer.run_round();
    }
    if let Some(s) = sink {
        s.close_outer("warmup", t_warm);
    }
    Setup {
        spec,
        trainer,
        new_ms,
        total_s: t0.elapsed().as_secs_f64(),
    }
}

/// FNV-1a over the global parameters and the canonical fields of every
/// round record so far: what a run computed, nothing about how fast.
fn fingerprint(trainer: &Trainer) -> u64 {
    let mut bytes: Vec<u8> = Vec::new();
    for v in trainer.global_params() {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    let mut word = |w: u64| bytes.extend_from_slice(&w.to_le_bytes());
    for r in trainer.records() {
        word(r.start.to_bits());
        word(r.end.to_bits());
        word(r.n_aggregated as u64);
        word(r.mean_train_loss.to_bits() as u64);
        r.iters_done.iter().for_each(|&i| word(i as u64));
        r.early_stops.iter().for_each(|&e| word(e as u64));
        for e in &r.eager_events {
            word(e.client as u64);
            word(e.layer as u64);
            word(e.iter as u64);
            word(e.retransmitted as u64);
        }
    }
    fnv1a(&bytes)
}

enum Until {
    /// Run until this many seconds have passed (and `fp_rounds` are done).
    Seconds(f64),
    /// Run exactly this many rounds.
    Rounds(usize),
}

struct Timed {
    /// Wall milliseconds of each `run_round()` call, timed from outside.
    round_ms: Vec<f64>,
    /// Fingerprint after exactly `spec.fp_rounds` timed rounds.
    fp_fixed: u64,
    /// `VmHWM` at the same point, in MiB: the peak over a fixed amount of
    /// work, so a faster build that fits more rounds into `--seconds` (more
    /// records, more evicted clients) does not read as a memory regression.
    rss_fixed_mib: f64,
}

impl Timed {
    fn seconds(&self) -> f64 {
        self.round_ms.iter().sum::<f64>() / 1e3
    }

    fn rounds_per_s(&self) -> f64 {
        self.round_ms.len() as f64 / self.seconds()
    }
}

/// The closed loop: the next round starts when the previous one closes.
fn timed_loop(setup: &mut Setup, until: Until, sink: Option<&SpanStore>) -> Timed {
    let fp_rounds = setup.spec.fp_rounds;
    let mut round_ms = Vec::new();
    let mut fixed = None;
    let started = Instant::now();
    loop {
        let n = round_ms.len();
        let done = match until {
            Until::Seconds(s) => n >= fp_rounds && started.elapsed().as_secs_f64() >= s,
            Until::Rounds(r) => n >= r,
        };
        if done {
            break;
        }
        let t0 = Instant::now();
        setup.trainer.run_round();
        round_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if let Some(s) = sink {
            s.close_run_round(t0);
        }
        if round_ms.len() == fp_rounds {
            fixed = Some((peak_rss_mib(), fingerprint(&setup.trainer)));
        }
    }
    let (rss_fixed_mib, fp_fixed) = fixed.expect("every loop runs at least fp_rounds rounds");
    Timed {
        round_ms,
        fp_fixed,
        rss_fixed_mib,
    }
}

/// `VmHWM` of this process, in MiB.
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
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Client rounds attempted and failed over the timed rounds. A round that
/// aggregated nothing fails every client it selected.
fn client_rounds(timed: &[RoundRecord]) -> (u64, u64) {
    let attempted = timed.iter().map(|r| r.n_selected as u64).sum();
    let failed = timed
        .iter()
        .map(|r| {
            if r.n_aggregated == 0 {
                r.n_selected
            } else {
                r.n_crashed + r.n_rejected + r.n_reassigned
            }
        } as u64)
        .sum();
    (attempted, failed)
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    sum / n.max(1) as f64
}

fn virt_round_s(records: &[RoundRecord]) -> f64 {
    mean(records.iter().map(RoundRecord::duration))
}

/// Checks every run makes on the trainer that ran the timed loop.
fn check_outputs(checks: &mut Checks, setup: &Setup, failed: u64) {
    checks.require(
        setup.trainer.global_params().iter().all(|v| v.is_finite()),
        || "global parameters are not all finite".into(),
    );
    checks.require(failed == 0, || format!("{failed} client rounds failed"));
    let records = setup.trainer.records();
    if setup.spec.eval_every != 0 && records.len() >= ACCURACY_ROUNDS {
        let target = setup.spec.workload.target_accuracy;
        let last = records.last().and_then(|r| r.accuracy);
        checks.require(last.is_some_and(|a| a >= target), || {
            format!("final accuracy {last:?} below the target {target}")
        });
    }
}

struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    timed_rounds: usize,
    fp_fixed: u64,
    final_accuracy: Option<f32>,
}

/// `--trace 0`: the end-to-end metrics.
fn run_untraced(args: &RunArgs, checks: &mut Checks) -> Outcome {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut warm_fp = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        // One trainer at a time, so peak memory is one workload's.
        drop(last.take());
        let s = set_up(&args.workload, args.seed, None, |_| {});
        setup_s.push(s.total_s);
        warm_fp.push(fingerprint(&s.trainer));
        last = Some(s);
    }
    let mut setup = last.expect("SETUPS > 0");
    checks.require(warm_fp.iter().all(|&f| f == warm_fp[0]), || {
        format!("same seed, different warm-up trajectories: {warm_fp:x?}")
    });

    let timed = timed_loop(&mut setup, Until::Seconds(args.seconds), None);
    let records = &setup.trainer.records()[setup.spec.warmup..];
    let (attempted, failed) = client_rounds(records);
    check_outputs(checks, &setup, failed);

    let n = timed.round_ms.len();
    let iters: usize = records
        .iter()
        .map(|r| r.iters_done.iter().sum::<usize>())
        .sum();
    let mut m = Metrics::default();
    m.put("rounds_per_s", timed.rounds_per_s(), n);
    m.put("client_iters_per_s", iters as f64 / timed.seconds(), n);
    m.put("round_ms_p50", median(&timed.round_ms), n);
    m.put("round_ms_p90", quantile(&timed.round_ms, 0.9), n);
    m.put("setup_s", median(&setup_s), SETUPS);
    m.put("peak_rss_mib", timed.rss_fixed_mib, 1);
    Outcome {
        metrics: m,
        attempted,
        failed,
        timed_rounds: n,
        fp_fixed: timed.fp_fixed,
        final_accuracy: setup.trainer.records().last().and_then(|r| r.accuracy),
    }
}

/// `--trace 1`: the per-layer metrics.
fn run_traced(args: &RunArgs, checks: &mut Checks) -> Outcome {
    let sharded = args.workload == "cnn_fedca_shard2";
    // The measuring time is shared by the traced run and its twins.
    let share = if sharded { 3.0 } else { 2.0 };

    let store = SpanStore::new();
    let mut traced = set_up(&args.workload, args.seed, Some(&store), |_| {});
    store.mark_measured();
    let t = timed_loop(
        &mut traced,
        Until::Seconds(args.seconds / share),
        Some(&store),
    );
    let n = t.round_ms.len();
    let fp_traced = fingerprint(&traced.trainer);
    let records = traced.trainer.records()[traced.spec.warmup..].to_vec();
    let slots = traced.spec.slots();
    drop(traced);

    let mut plain = set_up(&args.workload, args.seed, None, |_| {});
    let u = timed_loop(&mut plain, Until::Rounds(n), None);
    let (attempted, failed) = client_rounds(&records);
    check_outputs(checks, &plain, failed);
    let fp_plain = fingerprint(&plain.trainer);
    checks.require(fp_traced == fp_plain, || {
        format!("tracing changed the trajectory: {fp_traced:016x} traced, {fp_plain:016x} untraced")
    });

    let round_us = t.seconds() * 1e6;
    let share_of = |us: f64| us / round_us;
    let hydrate = share_of(store.total_us("hydrate"));
    let fold = share_of(store.total_us("aggregate"));
    let eval = share_of(store.total_us("evaluate"));
    let busy = store.total_us("client") / (slots as f64 * round_us);
    let gaps: Vec<f64> = t
        .round_ms
        .iter()
        .zip(&records)
        .map(|(ms, r)| ms - r.host_ms)
        .collect();
    let per_round = |f: fn(&RoundRecord) -> f64| mean(records.iter().map(f));

    let mut m = Metrics::default();
    m.put(
        "compress.wire_bytes_per_round",
        per_round(|r| r.wire_bytes_uploaded),
        n,
    );
    m.put(
        "client.iters_done_per_round",
        per_round(|r| r.iters_done.iter().sum::<usize>() as f64),
        n,
    );
    m.put("executor.busy_share", busy, n);
    m.put("population.hydrate_share", hydrate, n);
    m.put(
        "population.hydrations_per_round",
        per_round(|r| r.n_hydrated as f64),
        n,
    );
    m.put(
        "server.decode_share",
        share_of(records.iter().map(|r| r.decode_host_us).sum()),
        n,
    );
    m.put("server.fold_share", fold, n);
    m.put("runner.eval_share", eval, n);
    m.put(
        "runner.unattributed_share",
        1.0 - hydrate - fold - eval - busy,
        n,
    );
    m.put("runner.record_gap_ms", median(&gaps), n);
    m.put("sim.virt_round_s", virt_round_s(&records), n);
    m.put(
        "trace.overhead_pct",
        (t.seconds() / u.seconds() - 1.0) * 100.0,
        n,
    );
    m.put("trace.spans", store.len() as f64, 1);
    m.put(
        "transport.retries",
        records.iter().map(|r| r.n_retries as f64).sum(),
        n,
    );
    m.put(
        "transport.heartbeats_missed",
        records.iter().map(|r| r.n_heartbeat_missed as f64).sum(),
        n,
    );

    if sharded {
        // The same config and seed through `Backend::Local`, same rounds.
        let mut local = set_up(&args.workload, args.seed, None, |s| {
            s.fl.shard.n_shards = 0;
            s.workers = workloads::WORKERS;
        });
        let l = timed_loop(&mut local, Until::Rounds(n), None);
        let fp_local = fingerprint(&local.trainer);
        checks.require(fp_local == fp_plain, || {
            format!(
                "topology changed the trajectory: {fp_plain:016x} sharded, {fp_local:016x} local"
            )
        });
        m.put("shard.spawn_ms", plain.new_ms - local.new_ms, 1);
        m.put(
            "shard.round_overhead_ms",
            median(&u.round_ms) - median(&l.round_ms),
            n,
        );
        m.put("shard.efficiency", u.rounds_per_s() / l.rounds_per_s(), n);
        m.put(
            "shard.tail_ratio",
            quantile(&u.round_ms, 0.9) / quantile(&l.round_ms, 0.9),
            n,
        );
    } else {
        for name in [
            "shard.spawn_ms",
            "shard.round_overhead_ms",
            "shard.efficiency",
            "shard.tail_ratio",
        ] {
            m.put(name, 0.0, 0);
        }
    }

    if args.workload == "cnn_fedca" {
        // FedCA must still buy virtual time: its per-round time stays below
        // plain FedAvg's on the same seed.
        let reference = set_up(&args.workload, args.seed, None, |s| {
            s.scheme = Scheme::FedAvg;
            s.warmup = FEDAVG_REF_ROUNDS;
        });
        let (fedca, fedavg) = (
            virt_round_s(&records),
            virt_round_s(reference.trainer.records()),
        );
        checks.require(fedca < fedavg, || {
            format!("FedCA virtual round time {fedca} s is not below FedAvg's {fedavg} s")
        });
    }

    let final_accuracy = plain.trainer.records().last().and_then(|r| r.accuracy);
    drop(plain);
    m.extend(probes::run_all(args.seed));

    if let Some(path) = &args.trace_out {
        let written = std::fs::write(path, store.to_jsonl());
        checks.require(written.is_ok(), || {
            format!("cannot write --trace-out {path}: {written:?}")
        });
    }
    Outcome {
        metrics: m,
        attempted,
        failed,
        timed_rounds: n,
        fp_fixed: t.fp_fixed,
        final_accuracy,
    }
}

/// Runs one workload once and prints the info line and the result line.
/// Returns whether every output check passed.
pub fn single(args: &RunArgs) -> bool {
    let mut checks = Checks::default();
    let outcome = if args.trace {
        run_traced(args, &mut checks)
    } else {
        run_untraced(args, &mut checks)
    };
    for failure in &checks.0 {
        eprintln!("benchmark: check failed on {}: {failure}", args.workload);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let info = obj(vec![
        ("workload", Value::String(args.workload.clone())),
        ("seed", pos(args.seed)),
        ("trace", Value::Bool(args.trace)),
        ("nproc", pos(nproc as u64)),
        ("undersized", Value::Bool(nproc < workloads::WORKERS)),
        (
            "kernel",
            Value::String(fedca_tensor::gemm::active_kernel().name().into()),
        ),
        ("timed_rounds", pos(outcome.timed_rounds as u64)),
        (
            "fingerprint",
            Value::String(format!("{:016x}", outcome.fp_fixed)),
        ),
        (
            "final_accuracy",
            outcome
                .final_accuracy
                .map_or(Value::Null, |a| num(a as f64)),
        ),
        ("samples", outcome.metrics.samples_json()),
        (
            "checks_failed",
            Value::Array(checks.0.iter().cloned().map(Value::String).collect()),
        ),
    ]);
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    let result = obj(vec![
        ("correct", Value::Bool(checks.0.is_empty())),
        ("attempted", pos(outcome.attempted)),
        ("failed", pos(outcome.failed)),
        ("metrics", outcome.metrics.to_json(defs)),
    ]);
    let line = |v: &Value| serde_json::to_string(v).expect("value trees always serialize");
    println!("{}", line(&obj(vec![("info", info)])));
    println!("{}", line(&result));
    checks.0.is_empty()
}
