//! The `fedca-bench` study harness: one binary that regenerates every table
//! and figure of the FedCA paper.
//!
//! ```text
//! fedca-bench <study>… | all | list  [flags]
//! ```
//!
//! * [`cli`] parses the command line exactly once into a [`Cli`]; every
//!   setting is a flag, nothing is read from the environment, and a
//!   malformed value is a typed [`CliError`] (usage line, exit 2).
//! * [`studies`] is the registry: one row per table/figure with its name,
//!   paper reference, round counts, CSV header and view function. `all`,
//!   `list`, the README table and the tests all read that one table.
//! * [`cells`] owns what a run trains: a workload is built once, a trainer
//!   cell is trained once per distinct `(config, scheme, workload, wire
//!   size, eval cadence)` and every study reads a prefix of its records.
//! * [`study`] is the §3.2.2 statistical-pattern harness (Figs. 2–4) and
//!   [`totals`] the one place run counters are summed.
//!
//! A study writes CSV rows (stdout, or `DIR/<study>.csv` with `--out DIR`)
//! and progress notes (stderr, or `DIR/<study>.log`). `--scale` selects
//! the tier:
//!
//! * `smoke`  — seconds-long sanity runs (CI);
//! * `scaled` — the default; minutes-long runs whose shapes are recorded in
//!   EXPERIMENTS.md;
//! * `paper`  — paper-faithful workload shapes: about 30 s for a cnn
//!   `table1` cell and about 35 h for a 150-round `wrn` cell on a 2-core
//!   host; no gate runs it.

pub mod cells;
pub mod cli;
pub mod studies;
pub mod study;
pub mod totals;

pub use cells::Cells;
pub use cli::{Cli, CliError, Command};
pub use totals::Totals;

use fedca_core::workload::Scale;
use fedca_core::{FlConfig, Workload};
use std::io::Write;

/// Experiment scale tier.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExpScale {
    /// Seconds-long CI runs.
    Smoke,
    /// Default minutes-long runs.
    #[default]
    Scaled,
    /// Paper-faithful shapes ([`Scale::Paper`]). A cnn `table1` cell took
    /// about 30 s on a 2-core x86 host (3.2 s of setup, then 13.9 s and
    /// 13.7 s for its two FedCA rounds); one `wrn` FedCA round took 844 s
    /// there, so a 150-round `wrn` cell is about 35 h. No gate runs it.
    Paper,
}

impl ExpScale {
    /// The `--scale` spellings, in tier order.
    pub const NAMES: [&'static str; 3] = ["smoke", "scaled", "paper"];

    /// Parses a `--scale` value.
    pub fn parse(s: &str) -> Option<Self> {
        let i = Self::NAMES.iter().position(|n| *n == s)?;
        Some([ExpScale::Smoke, ExpScale::Scaled, ExpScale::Paper][i])
    }

    /// This tier's entry of a `[smoke, scaled, paper]` table.
    pub fn pick<T: Copy>(self, by_scale: [T; 3]) -> T {
        by_scale[self as usize]
    }

    /// The workload scale preset for this tier.
    pub fn workload_scale(self) -> Scale {
        match self {
            ExpScale::Paper => Scale::Paper,
            _ => Scale::Scaled,
        }
    }
}

/// Builds the federation config for a workload at the run's scale tier and
/// seed, taking the workload's recommended learning rate / weight decay and
/// applying the run's `--n-clients` and `--compression` overrides (the
/// comparative studies — `ext_compression`, `tta_quantized` — then set
/// their own compression per config).
pub fn fl_config(workload: &Workload, cli: &Cli) -> FlConfig {
    let base = match cli.scale {
        ExpScale::Smoke => FlConfig {
            n_clients: 16,
            clients_per_round: 5,
            local_iters: 15,
            batch_size: 8,
            ..FlConfig::default()
        },
        ExpScale::Scaled => FlConfig::scaled(),
        ExpScale::Paper => FlConfig::default(),
    };
    let mut fl = FlConfig {
        lr: workload.lr,
        weight_decay: workload.weight_decay,
        seed: cli.seed(),
        ..base
    };
    if let Some(n) = cli.n_clients {
        apply_population(&mut fl, n);
    }
    if let Some(c) = cli.compression {
        fl.compression = c;
    }
    fl
}

/// Resizes a federation to `n ≥ 1` virtual clients (the CLI rejects 0):
/// the cohort is clamped to the population, and large populations get a
/// bounded residency cache (the lazy client store derives everyone else on
/// demand) so memory scales with the cohort, not the population.
pub fn apply_population(fl: &mut FlConfig, n: usize) {
    fl.n_clients = n;
    fl.clients_per_round = fl.clients_per_round.min(n);
    if n > 4096 {
        fl.population.cache_clients = (4 * fl.clients_per_round).max(256);
    }
}

/// Where a study's progress notes go: stderr (`None`), or the study's
/// `.log` file under `--out DIR`.
#[derive(Default)]
pub struct Log(pub Option<std::fs::File>);

impl Log {
    /// Writes one raw line.
    pub fn line(&mut self, text: &str) {
        // A log that cannot be written must not stop the study.
        let _ = match &mut self.0 {
            Some(f) => writeln!(f, "{text}"),
            None => writeln!(std::io::stderr(), "{text}"),
        };
    }

    /// Writes one `[fedca-bench]` progress note.
    pub fn note(&mut self, msg: &str) {
        self.line(&format!("[fedca-bench] {msg}"));
    }
}
