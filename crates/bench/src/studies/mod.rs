//! The study registry: one row per table/figure of the paper (plus this
//! repository's extension experiments). `all`, `list`, the README table and
//! the tests read [`STUDIES`]; a study that is not a row does not exist.

mod evaluation;
mod extensions;
mod patterns;

use crate::cells::NO_TARGET;
use crate::{Cells, ExpScale};
use fedca_core::{FlConfig, Scheme, TrainerOutput, Workload};

/// The paper's three workloads, in the order its tables list them.
const MODELS: [&str; 3] = ["cnn", "lstm", "wrn"];

/// One registry row.
pub struct Study {
    /// CLI name, CSV/log file stem.
    pub name: &'static str,
    /// What it reproduces.
    pub paper: &'static str,
    /// Training rounds per cell at `[smoke, scaled, paper]` (0 = trains
    /// nothing).
    pub rounds: [usize; 3],
    /// CSV header — the first line of the study's output.
    pub header: &'static str,
    /// Computes the CSV rows (without the header) from the run's cells.
    pub run: fn(&Study, &mut Cells) -> Vec<String>,
}

impl Study {
    /// Training rounds per cell at `scale`.
    pub fn rounds_at(&self, scale: ExpScale) -> usize {
        scale.pick(self.rounds)
    }
}

/// The shape most studies share: trains each `(label, scheme, config)` on
/// `w` for `rounds` rounds, evaluating every round, and appends its
/// `label,virtual_time_s,accuracy` rows. Returns the labelled outputs, in
/// order, for the study's own summary.
fn accuracy_curves(
    cells: &mut Cells,
    rows: &mut Vec<String>,
    study: &Study,
    w: &Workload,
    rounds: usize,
    configs: Vec<(String, Scheme, FlConfig)>,
) -> Vec<(String, TrainerOutput)> {
    let run = |(label, scheme, fl): (String, Scheme, FlConfig)| {
        cells.note(format!("{}: {label} for {rounds} rounds", study.name));
        let out = cells.run(scheme, w, &fl, NO_TARGET, rounds);
        let series = out.accuracy_series();
        rows.extend(series.iter().map(|(t, a)| format!("{label},{t:.1},{a:.4}")));
        (label, out)
    };
    configs.into_iter().map(run).collect()
}

/// Every study, in the order `all` runs them.
pub static STUDIES: [Study; 14] = [
    Study {
        name: "table1",
        paper: "Table 1: time to target accuracy per scheme and model",
        rounds: [6, 60, 600],
        header: "model,scheme,target,per_round_s,rounds,total_time_h,reached",
        run: evaluation::table1,
    },
    Study {
        name: "fig2_progress_clients",
        paper: "Fig. 2: whole-model progress curves, two clients",
        rounds: [6, 25, 201],
        header: "model,round,client,iteration,progress",
        run: patterns::fig2,
    },
    Study {
        name: "fig3_progress_layers",
        paper: "Fig. 3: per-layer progress curves",
        rounds: [6, 25, 201],
        header: "model,round,layer,iteration,progress",
        run: patterns::fig3,
    },
    Study {
        name: "fig4_round_similarity",
        paper: "Fig. 4: curves across consecutive rounds",
        rounds: [6, 25, 201],
        header: "model,round,iteration,progress",
        run: patterns::fig4,
    },
    Study {
        name: "fig5_sampling",
        paper: "Fig. 5: full vs sampled per-layer profiling",
        rounds: [6, 25, 201],
        header: "model,round,layer,mode,iteration,progress",
        run: patterns::fig5,
    },
    Study {
        name: "fig7_time_to_accuracy",
        paper: "Fig. 7: time-to-accuracy curves, four schemes",
        rounds: [5, 35, 500],
        header: "model,scheme,virtual_time_s,accuracy",
        run: evaluation::fig7,
    },
    Study {
        name: "fig8_cdf",
        paper: "Fig. 8: CDFs of early-stop and eager-transmit iterations",
        rounds: [6, 30, 200],
        header: "panel,series,value,cdf",
        run: evaluation::fig8,
    },
    Study {
        name: "fig9_ablation",
        paper: "Fig. 9: ablation FedAvg / FedCA-v1 / v2 / v3",
        rounds: [6, 35, 300],
        header: "model,variant,virtual_time_s,accuracy",
        run: evaluation::fig9,
    },
    Study {
        name: "fig10_sensitivity",
        paper: "Fig. 10: sensitivity to beta and (T_e, T_r)",
        rounds: [6, 30, 200],
        header: "panel,config,virtual_time_s,accuracy",
        run: evaluation::fig10,
    },
    Study {
        name: "overhead",
        paper: "§5.5: profiler memory overhead",
        rounds: [0, 0, 0],
        header: "model,params,sampled_params,profiling_bytes,model_bytes,overhead_pct",
        run: patterns::overhead,
    },
    Study {
        name: "ext_dropout",
        paper: "extension (§3.1): availability churn as fault-plan crashes",
        rounds: [5, 25, 200],
        header: "scheme,dropout,virtual_time_s,accuracy",
        run: extensions::dropout,
    },
    Study {
        name: "ext_compression",
        paper: "extension (§2.2): compression baselines, with and without FedCA",
        rounds: [5, 25, 200],
        header: "config,virtual_time_s,accuracy",
        run: extensions::compression,
    },
    Study {
        name: "ext_adaptive_batch",
        paper: "extension (§6): autonomous batch size",
        rounds: [5, 30, 200],
        header: "config,virtual_time_s,accuracy",
        run: extensions::adaptive_batch,
    },
    Study {
        name: "tta_quantized",
        paper: "extension: int8 vs fp32 FedCA time-to-accuracy, with a verdict",
        rounds: [6, 30, 200],
        header: "config,virtual_time_s,accuracy",
        run: extensions::tta_quantized,
    },
];

/// The row named `name`.
pub fn find(name: &str) -> Option<&'static Study> {
    STUDIES.iter().find(|s| s.name == name)
}

/// Every study name, in registry order.
pub fn names() -> Vec<&'static str> {
    STUDIES.iter().map(|s| s.name).collect()
}

/// The `list` command's output: one line per study.
pub fn list() -> String {
    let mut out = format!("{:<22} {:<12} reproduces\n", "study", "rounds");
    for s in &STUDIES {
        let [smoke, scaled, paper] = s.rounds;
        let rounds = format!("{smoke}/{scaled}/{paper}");
        out.push_str(&format!("{:<22} {rounds:<12} {}\n", s.name, s.paper));
    }
    out
}
