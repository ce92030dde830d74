//! The cell store: everything one `fedca-bench` run trains, each thing once.
//!
//! A *cell* is one trained trajectory. Studies never own a trainer; they
//! ask the store for "this scheme on this workload under this config, for
//! `n` rounds" (or "until accuracy ≥ t, at most `n` rounds") and read the
//! records back. Two requests with the same [key](Cells::run) share one
//! trainer: it is trained to the longest request seen so far and every
//! request is answered with the prefix of records it would have produced
//! alone — a trajectory never depends on how many rounds follow — so
//! sharing is invisible in a study's output.

use crate::study::{progress_study, Curves, CONSECUTIVE_ROUNDS, TESTBED_K};
use crate::{Cli, Log};
use fedca_core::metrics::RoundRecord;
use fedca_core::trace::JsonlSink;
use fedca_core::workload::Scale;
use fedca_core::{FlConfig, Scheme, TraceConfig, Trainer, TrainerOutput, Workload, WorkloadSpec};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The `target` of a request for a fixed number of rounds.
pub const NO_TARGET: f32 = f32::INFINITY;

/// The cells of one run. Trainers stay alive until the store drops, so a
/// later study can extend a cell instead of retraining it; the price is
/// memory per distinct cell.
pub struct Cells {
    cli: Cli,
    /// Where the current study's progress notes go.
    pub log: Log,
    /// Studies whose own acceptance verdict failed (their rows are still
    /// valid output; the run exits 1).
    pub verdicts_failed: Vec<&'static str>,
    workloads: BTreeMap<String, Workload>,
    /// `(key, trainer)` in creation order; a cell's index numbers its trace
    /// file.
    trainers: Vec<(String, Trainer)>,
    curves: BTreeMap<String, Curves>,
}

impl Cells {
    /// An empty store for one invocation.
    pub fn new(cli: &Cli) -> Self {
        Cells {
            cli: cli.clone(),
            log: Log::default(),
            verdicts_failed: Vec::new(),
            workloads: BTreeMap::new(),
            trainers: Vec::new(),
            curves: BTreeMap::new(),
        }
    }

    /// The run's settings.
    pub fn cli(&self) -> &Cli {
        &self.cli
    }

    /// Writes one progress note to the current study's log.
    pub fn note(&mut self, msg: String) {
        self.log.note(&msg);
    }

    /// The registry workload `name` (`cnn`, `lstm`, `wrn`, `tiny_mlp`) at
    /// the run's scale and seed, built once.
    ///
    /// # Panics
    /// Panics on a name outside the workload registry (studies name their
    /// workloads themselves).
    pub fn workload(&mut self, name: &str) -> Workload {
        let cli = &self.cli;
        let build = || {
            let spec = WorkloadSpec {
                name: name.to_string(),
                paper_scale: cli.scale.workload_scale() == Scale::Paper,
                seed: cli.seed(),
            };
            spec.build().expect("registry workload")
        };
        self.workloads
            .entry(name.to_string())
            .or_insert_with(build)
            .clone()
    }

    /// Trains (or extends, or just reads) the cell for this request until
    /// test accuracy first reaches `target` ([`NO_TARGET`]: never), at most
    /// `max_rounds` rounds, and returns the records the request would have
    /// produced on its own: the cell's records up to the first crossing, or
    /// the first `max_rounds` of them when there is none — never the longer
    /// run another study may have asked for.
    ///
    /// The cell key is everything the trajectory and its records depend on:
    /// the serialized `fl` and `scheme`, the workload name and the bits of
    /// `workload.wire_model_bytes` (the comm-bound studies inflate it).
    /// Every cell evaluates every round: evaluation reads the global model
    /// and writes nothing the trajectory reads, so a study that ignores
    /// accuracy shares the cells of one that plots it.
    pub fn run(
        &mut self,
        scheme: Scheme,
        workload: &Workload,
        fl: &FlConfig,
        target: f32,
        max_rounds: usize,
    ) -> TrainerOutput {
        let (scheme_name, workload_name) = (scheme.name(), workload.name.clone());
        let key = format!(
            "{}|{}|{}|{:016x}",
            serde_json::to_string(fl).expect("config serializes"),
            serde_json::to_string(&scheme).expect("scheme serializes"),
            workload.name,
            workload.wire_model_bytes.to_bits(),
        );
        let i = match self.trainers.iter().position(|(k, _)| *k == key) {
            Some(i) => i,
            None => {
                let t = self.build_trainer(fl, scheme, workload);
                self.trainers.push((key, t));
                self.trainers.len() - 1
            }
        };
        let t = &mut self.trainers[i].1;
        let crossing = |t: &Trainer| {
            let reached = |r: &RoundRecord| r.accuracy.is_some_and(|a| a >= target);
            t.records().iter().take(max_rounds).position(reached)
        };
        if crossing(t).is_none() {
            t.run_until_accuracy(target, max_rounds.saturating_sub(t.records().len()));
        }
        let len = crossing(t).map_or(max_rounds, |i| i + 1);
        TrainerOutput {
            scheme: scheme_name,
            workload: workload_name,
            rounds: t.records()[..len].to_vec(),
        }
    }

    /// Rounds held across all cells (a repeated request adds none).
    pub fn rounds_trained(&self) -> usize {
        self.trainers.iter().map(|(_, t)| t.records().len()).sum()
    }

    /// The §3.2.2 testbed curves of one model, recorded once for every
    /// `(round, client)` Figs. 2–5 read.
    pub fn progress(&mut self, model: &str) -> &Curves {
        if !self.curves.contains_key(model) {
            let w = self.workload(model);
            let rounds = self.cli.scale.pick(CONSECUTIVE_ROUNDS);
            let k = self.cli.scale.pick(TESTBED_K);
            let curves = progress_study(&w, rounds, &[0, 1], k, self.cli.seed(), &mut self.log);
            self.curves.insert(model.to_string(), curves);
        }
        &self.curves[model]
    }

    /// Builds the next cell's trainer, honoring the run's trace request:
    /// tracing is switched on in the config and a JSONL sink attached.
    fn build_trainer(&mut self, fl: &FlConfig, scheme: Scheme, workload: &Workload) -> Trainer {
        let n = self.trainers.len();
        let mut fl = fl.clone();
        if self.cli.trace.is_some() && !fl.trace.enabled {
            fl.trace = TraceConfig::enabled();
        }
        let t = Trainer::new(fl, scheme, workload.clone());
        if let Some(base) = &self.cli.trace {
            let path = numbered_trace_path(base, n);
            match JsonlSink::create(&path) {
                Ok(sink) => {
                    t.tracer().add_sink(Box::new(sink));
                    self.note(format!("tracing to {}", path.display()));
                }
                Err(e) => self.note(format!("cannot open trace file {}: {e}", path.display())),
            }
        }
        t
    }
}

/// The `n`-th cell's trace file: the base path as given for the first
/// cell, `stem.N.ext` for subsequent ones (`name.N` without an extension).
fn numbered_trace_path(base: &Path, n: usize) -> PathBuf {
    match (n, base.file_stem(), base.extension()) {
        (0, ..) => base.to_path_buf(),
        (_, Some(stem), Some(ext)) => base.with_file_name(format!(
            "{}.{n}.{}",
            stem.to_string_lossy(),
            ext.to_string_lossy()
        )),
        _ => {
            let name = base.file_name().unwrap_or_default().to_string_lossy();
            base.with_file_name(format!("{name}.{n}"))
        }
    }
}
