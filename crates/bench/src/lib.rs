//! Shared harness plumbing for the experiment binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the FedCA
//! paper and prints CSV to stdout (progress notes go to stderr). The
//! experiment *scale* is selected with the `FEDCA_SCALE` environment
//! variable:
//!
//! * `smoke`  — seconds-long sanity runs (CI);
//! * `scaled` — the default; minutes-long runs whose shapes are recorded in
//!   EXPERIMENTS.md;
//! * `paper`  — paper-faithful workload shapes (hours; for completeness).

pub mod study;

use fedca_compress::Compression;
use fedca_core::trace::JsonlSink;
use fedca_core::workload::Scale;
use fedca_core::{
    CheckpointConfig, CheckpointStore, FlConfig, Scheme, TraceConfig, Trainer, TrainerOutput,
    Workload,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Experiment scale tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExpScale {
    /// Seconds-long CI runs.
    Smoke,
    /// Default minutes-long runs.
    Scaled,
    /// Paper-faithful shapes.
    Paper,
}

impl ExpScale {
    /// Reads `FEDCA_SCALE` (default `scaled`).
    ///
    /// # Panics
    /// Panics on an unknown value, listing the accepted ones.
    pub fn from_env() -> Self {
        match std::env::var("FEDCA_SCALE").as_deref() {
            Ok("smoke") => ExpScale::Smoke,
            Ok("paper") => ExpScale::Paper,
            Ok("scaled") | Err(_) => ExpScale::Scaled,
            Ok(other) => panic!("FEDCA_SCALE={other}: expected smoke|scaled|paper"),
        }
    }

    /// The workload scale preset for this tier.
    pub fn workload_scale(self) -> Scale {
        match self {
            ExpScale::Paper => Scale::Paper,
            _ => Scale::Scaled,
        }
    }
}

/// Master seed used by all experiments (override with `FEDCA_SEED`).
pub fn seed_from_env() -> u64 {
    std::env::var("FEDCA_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// Builds the federation config for a workload at a scale tier, taking the
/// workload's recommended learning rate / weight decay.
pub fn fl_config(workload: &Workload, scale: ExpScale, seed: u64) -> FlConfig {
    let base = match scale {
        ExpScale::Smoke => FlConfig {
            n_clients: 16,
            clients_per_round: 5,
            local_iters: 15,
            batch_size: 8,
            ..FlConfig::default()
        },
        ExpScale::Scaled => FlConfig {
            n_clients: 32,
            clients_per_round: 8,
            local_iters: 40,
            batch_size: 16,
            ..FlConfig::default()
        },
        ExpScale::Paper => FlConfig::default(),
    };
    let mut fl = FlConfig {
        lr: workload.lr,
        weight_decay: workload.weight_decay,
        seed,
        ..base
    };
    if let Some(n) = n_clients_override() {
        apply_population(&mut fl, n);
    }
    if let Some(c) = compression_override() {
        fl.compression = c;
    }
    if let Some(s) = shards_override() {
        apply_shards(&mut fl, s);
    }
    fl
}

/// Upload-compression override for this process: `--compression SPEC` /
/// `--compression=SPEC` on the command line, else the `FEDCA_COMPRESSION`
/// environment variable. `None` keeps each experiment's own setting (the
/// comparative studies — `ext_compression`, `tta_quantized` — set their
/// own schemes per config and ignore the override).
pub fn compression_override() -> Option<Compression> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--compression" {
            let v = args.next().expect("--compression requires a spec");
            return Some(parse_compression(&v));
        }
        if let Some(v) = a.strip_prefix("--compression=") {
            return Some(parse_compression(v));
        }
    }
    std::env::var("FEDCA_COMPRESSION")
        .ok()
        .map(|v| parse_compression(&v))
}

/// Parses a compression spec: `none`, `int8` (deterministic 8-bit), `f16`,
/// `qN` (stochastic QSGD with `N` bits, e.g. `q4`), or `topP` (top-`P`%
/// sparsification, e.g. `top10`).
///
/// # Panics
/// Panics on an unknown spec, listing the accepted forms.
pub fn parse_compression(spec: &str) -> Compression {
    let s = spec.trim();
    match s {
        "none" => return Compression::None,
        "int8" => return Compression::Int8,
        "f16" => return Compression::F16,
        _ => {}
    }
    if let Some(bits) = s.strip_prefix('q').and_then(|v| v.parse::<u8>().ok()) {
        assert!(
            (1..=8).contains(&bits),
            "compression spec {s:?}: QSGD bits must be in 1..=8"
        );
        return Compression::Quantize { bits };
    }
    if let Some(pct) = s.strip_prefix("top").and_then(|v| v.parse::<f32>().ok()) {
        assert!(
            pct > 0.0 && pct <= 100.0,
            "compression spec {s:?}: top-k percentage must be in (0, 100]"
        );
        return Compression::TopK { keep: pct / 100.0 };
    }
    panic!("unknown compression spec {spec:?}: expected none, int8, f16, qN, or topP");
}

/// Population-size override for this process: `--n-clients N` /
/// `--n-clients=N` on the command line, else the `FEDCA_N_CLIENTS`
/// environment variable. `None` keeps each experiment's own federation
/// size.
pub fn n_clients_override() -> Option<usize> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--n-clients" {
            return Some(
                args.next()
                    .and_then(|v| v.parse().ok())
                    .expect("--n-clients requires a positive integer"),
            );
        }
        if let Some(v) = a.strip_prefix("--n-clients=") {
            return Some(v.parse().expect("--n-clients requires a positive integer"));
        }
    }
    std::env::var("FEDCA_N_CLIENTS")
        .ok()
        .map(|v| v.parse().expect("FEDCA_N_CLIENTS must be an integer"))
}

/// Shard-topology override for this process: `--shards N` / `--shards=N`
/// on the command line, else the `FEDCA_SHARDS` environment variable.
/// `None` (or 0) keeps the single-process in-memory worker pool. A value
/// that is not a non-negative integer prints a usage line and exits 2.
pub fn shards_override() -> Option<usize> {
    fn parse(source: &str, value: Option<String>) -> usize {
        value.and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            eprintln!(
                "usage: {source} takes a non-negative integer \
                 (--shards N | --shards=N | FEDCA_SHARDS=N; 0 = in-process)"
            );
            std::process::exit(2);
        })
    }
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--shards" {
            return Some(parse("--shards", args.next()));
        }
        if let Some(v) = a.strip_prefix("--shards=") {
            return Some(parse("--shards", Some(v.to_string())));
        }
    }
    std::env::var("FEDCA_SHARDS")
        .ok()
        .map(|v| parse("FEDCA_SHARDS", Some(v)))
}

/// Switches a federation to `n` shard processes (0 = stay in-process).
/// The children re-enter this same binary, which must gate its `main` on
/// [`fedca_core::shard::maybe_run_child`] — every `src/bin/` binary does.
pub fn apply_shards(fl: &mut FlConfig, n: usize) {
    fl.shard.n_shards = n;
    fl.shard.child_args = Vec::new();
}

/// Resizes a federation to `n` virtual clients: the cohort is clamped to
/// the population, and large populations get a bounded residency cache
/// (the lazy client store derives everyone else on demand) so memory
/// scales with the cohort, not the population.
pub fn apply_population(fl: &mut FlConfig, n: usize) {
    assert!(n > 0, "population must be non-empty");
    fl.n_clients = n;
    fl.clients_per_round = fl.clients_per_round.min(n);
    if n > 4096 {
        fl.population.cache_clients = (4 * fl.clients_per_round).max(256);
    }
}

/// Builds the named workload (`cnn`, `lstm`, `wrn`, `tiny_mlp`).
///
/// # Panics
/// Panics on an unknown name.
pub fn workload_by_name(name: &str, scale: ExpScale, seed: u64) -> Workload {
    match name {
        "cnn" => Workload::cnn(scale.workload_scale(), seed),
        "lstm" => Workload::lstm(scale.workload_scale(), seed),
        "wrn" => Workload::wrn(scale.workload_scale(), seed),
        "tiny_mlp" => Workload::tiny_mlp(seed),
        other => panic!("unknown workload {other}"),
    }
}

/// Trace destination requested for this process: `--trace PATH` /
/// `--trace=PATH` on the command line, else the `FEDCA_TRACE` environment
/// variable. `None` means tracing stays off (the zero-cost default).
pub fn trace_spec() -> Option<PathBuf> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--trace" {
            return Some(args.next().expect("--trace requires a file path").into());
        }
        if let Some(p) = a.strip_prefix("--trace=") {
            return Some(p.into());
        }
    }
    std::env::var_os("FEDCA_TRACE").map(Into::into)
}

/// Checkpoint directory requested for this process: `--checkpoint-dir PATH`
/// / `--checkpoint-dir=PATH` on the command line, else the
/// `FEDCA_CHECKPOINT` environment variable. `None` means durability stays
/// off (the zero-cost default).
pub fn checkpoint_spec() -> Option<PathBuf> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--checkpoint-dir" {
            return Some(
                args.next()
                    .expect("--checkpoint-dir requires a directory path")
                    .into(),
            );
        }
        if let Some(p) = a.strip_prefix("--checkpoint-dir=") {
            return Some(p.into());
        }
    }
    std::env::var_os("FEDCA_CHECKPOINT").map(Into::into)
}

/// Whether `--resume` was passed: start from the newest valid generation in
/// the configured checkpoint directory instead of from scratch.
pub fn resume_requested() -> bool {
    std::env::args().any(|a| a == "--resume")
}

/// Counts traced runs within the process so each gets its own file.
static TRACE_RUN: AtomicUsize = AtomicUsize::new(0);

/// Counts checkpointed runs within the process so each run of a
/// multi-study binary gets its own generation directory.
static CHECKPOINT_RUN: AtomicUsize = AtomicUsize::new(0);

/// The `n`-th run's checkpoint directory: the base directory as given for
/// the first run, `base.N` for subsequent ones.
fn numbered_checkpoint_dir(base: &Path, n: usize) -> PathBuf {
    if n == 0 {
        return base.to_path_buf();
    }
    let name = base
        .file_name()
        .map(|f| f.to_string_lossy().into_owned())
        .unwrap_or_default();
    base.with_file_name(format!("{name}.{n}"))
}

/// The `n`-th run's trace file: the base path as given for the first run,
/// `stem.N.ext` for subsequent runs (figure binaries run many studies).
fn numbered_trace_path(base: &Path, n: usize) -> PathBuf {
    if n == 0 {
        return base.to_path_buf();
    }
    match (base.file_stem(), base.extension()) {
        (Some(stem), Some(ext)) => base.with_file_name(format!(
            "{}.{n}.{}",
            stem.to_string_lossy(),
            ext.to_string_lossy()
        )),
        _ => {
            let name = base
                .file_name()
                .map(|f| f.to_string_lossy().into_owned())
                .unwrap_or_default();
            base.with_file_name(format!("{name}.{n}"))
        }
    }
}

/// Builds a trainer, honoring the process-wide trace request: when a trace
/// destination is configured, tracing is switched on in the config and a
/// JSONL sink is attached (one numbered file per traced run).
fn build_trainer(fl: &FlConfig, scheme: Scheme, workload: &Workload) -> Trainer {
    let spec = trace_spec();
    let mut fl = fl.clone();
    if spec.is_some() && !fl.trace.enabled {
        fl.trace = TraceConfig::enabled();
    }
    if let Some(base) = checkpoint_spec() {
        let dir = numbered_checkpoint_dir(&base, CHECKPOINT_RUN.fetch_add(1, Ordering::Relaxed));
        fl.checkpoint = CheckpointConfig::to_dir(dir.to_string_lossy().into_owned());
    }
    // Resume only once this run's directory holds at least one generation:
    // in a multi-study binary killed during study N, studies > N never
    // wrote anything and must start fresh. A directory with generations
    // that are *all* corrupt is still a hard error inside resume().
    let has_generations = fl.checkpoint.is_enabled()
        && CheckpointStore::new(&fl.checkpoint)
            .generations()
            .map(|g| !g.is_empty())
            .unwrap_or(false);
    let t = if resume_requested() && has_generations {
        match Trainer::resume(fl.clone(), scheme.clone(), workload.clone()) {
            Ok(t) => {
                note(&format!(
                    "resumed from {} at round {}",
                    fl.checkpoint.dir,
                    t.records().len()
                ));
                t
            }
            Err(e) => panic!("--resume failed: {e}"),
        }
    } else {
        if resume_requested() && fl.checkpoint.is_enabled() {
            note(&format!(
                "no generations in {}; starting fresh",
                fl.checkpoint.dir
            ));
        }
        Trainer::new(fl, scheme, workload.clone())
    };
    if let Some(base) = spec {
        let path = numbered_trace_path(&base, TRACE_RUN.fetch_add(1, Ordering::Relaxed));
        match JsonlSink::create(&path) {
            Ok(sink) => {
                t.tracer().add_sink(Box::new(sink));
                note(&format!("tracing to {}", path.display()));
            }
            Err(e) => note(&format!("cannot open trace file {}: {e}", path.display())),
        }
    }
    t
}

/// Runs a scheme on a workload for a fixed number of rounds. `rounds` is
/// the experiment's total: a trainer resumed from a round-`k` checkpoint
/// runs only the remaining `rounds - k`, and the output still covers all
/// `rounds` records.
pub fn run_rounds(
    scheme: Scheme,
    workload: &Workload,
    fl: &FlConfig,
    rounds: usize,
    eval_every: usize,
) -> TrainerOutput {
    let mut t = build_trainer(fl, scheme, workload);
    t.eval_every = eval_every;
    let remaining = rounds.saturating_sub(t.records().len());
    t.run(remaining)
}

/// Runs a scheme until the target accuracy (or `max_rounds`).
pub fn run_to_target(
    scheme: Scheme,
    workload: &Workload,
    fl: &FlConfig,
    target: f32,
    max_rounds: usize,
) -> TrainerOutput {
    let mut t = build_trainer(fl, scheme, workload);
    t.run_until_accuracy(target, max_rounds)
}

/// Prints a CSV header + rows to stdout.
pub fn print_csv(header: &str, rows: impl IntoIterator<Item = String>) {
    println!("{header}");
    for row in rows {
        println!("{row}");
    }
}

/// Stderr progress note.
pub fn note(msg: &str) {
    eprintln!("[fedca-bench] {msg}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_mapping() {
        assert_eq!(ExpScale::Scaled.workload_scale(), Scale::Scaled);
        assert_eq!(ExpScale::Paper.workload_scale(), Scale::Paper);
        assert_eq!(ExpScale::Smoke.workload_scale(), Scale::Scaled);
    }

    #[test]
    fn trace_paths_are_numbered_per_run() {
        let base = Path::new("out/trace.jsonl");
        assert_eq!(numbered_trace_path(base, 0), base);
        assert_eq!(numbered_trace_path(base, 2), Path::new("out/trace.2.jsonl"));
        assert_eq!(
            numbered_trace_path(Path::new("trace"), 1),
            Path::new("trace.1")
        );
    }

    #[test]
    fn population_override_clamps_cohort_and_bounds_residency() {
        let w = Workload::tiny_mlp(1);
        let mut fl = fl_config(&w, ExpScale::Smoke, 9);
        apply_population(&mut fl, 2);
        assert_eq!(fl.n_clients, 2);
        assert_eq!(fl.clients_per_round, 2);
        assert_eq!(fl.population.cache_clients, 0, "small stays eager");
        let mut big = fl_config(&w, ExpScale::Scaled, 9);
        apply_population(&mut big, 1_000_000);
        assert_eq!(big.n_clients, 1_000_000);
        assert_eq!(big.clients_per_round, 8);
        assert_eq!(big.population.cache_clients, 256);
    }

    #[test]
    fn compression_specs_parse_and_reject_garbage() {
        assert_eq!(parse_compression("none"), Compression::None);
        assert_eq!(parse_compression("int8"), Compression::Int8);
        assert_eq!(parse_compression("f16"), Compression::F16);
        assert_eq!(parse_compression("q4"), Compression::Quantize { bits: 4 });
        assert_eq!(parse_compression(" q2 "), Compression::Quantize { bits: 2 });
        assert_eq!(parse_compression("top10"), Compression::TopK { keep: 0.1 });
        for bad in ["", "fp32", "q0", "q9", "top0", "top101"] {
            assert!(
                std::panic::catch_unwind(|| parse_compression(bad)).is_err(),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn fl_config_adopts_workload_hypers() {
        let w = Workload::tiny_mlp(1);
        let fl = fl_config(&w, ExpScale::Smoke, 9);
        assert_eq!(fl.lr, w.lr);
        assert_eq!(fl.weight_decay, w.weight_decay);
        assert_eq!(fl.seed, 9);
        assert_eq!(fl.n_clients, 16);
    }
}
