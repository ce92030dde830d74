//! Extension experiments beyond the paper's figures: availability churn,
//! the §2.2 compression baselines, the §6 autonomous batch size, and the
//! quantized-upload acceptance study.

use super::{accuracy_curves, Study};
use crate::{fl_config, Cells, ExpScale, Totals};
use fedca_compress::Compression;
use fedca_core::config::FaultConfig;
use fedca_core::{FedCaOptions, Scheme, Workload};

/// The CNN with its wire size inflated 100× (a mid-size model on the
/// paper's 13.7 Mbps links): communication becomes a visible cost at CI
/// scale while compute stays identical.
fn comm_bound_cnn(cells: &mut Cells) -> Workload {
    let mut w = cells.workload("cnn");
    w.wire_model_bytes *= 100.0;
    w
}

/// Availability churn (§3.1). FedScale-style device behaviour means
/// clients routinely vanish mid-round; this sweeps the per-round
/// probability that a selected client crashes (the fault plan's crash
/// class, at an iteration drawn uniformly from its planned ones) and
/// compares FedAvg with FedCA.
///
/// A client that early-stops after `s` iterations never reaches a crash
/// drawn for iteration `s + 2` or later, so FedCA can lose fewer updates.
/// The log gets per-config lost-update counts.
pub fn dropout(study: &Study, cells: &mut Cells) -> Vec<String> {
    let rounds = study.rounds_at(cells.cli().scale);
    let w = cells.workload("cnn");
    let base_fl = fl_config(&w, cells.cli());
    let mut configs = Vec::new();
    for p in [0.0, 0.2, 0.4] {
        for scheme in [Scheme::FedAvg, Scheme::fedca_default()] {
            let mut fl = base_fl.clone();
            fl.faults = FaultConfig {
                seed: fl.seed,
                crash_prob: p,
                ..FaultConfig::none()
            };
            configs.push((format!("{},{p}", scheme.name()), scheme, fl));
        }
    }
    let mut rows = Vec::new();
    for (label, out) in accuracy_curves(cells, &mut rows, study, &w, rounds, configs) {
        let totals = Totals::of(&out.rounds);
        cells.note(format!(
            "ext_dropout: {label}: {}/{} client-rounds lost, best acc {:.3}",
            totals.sum(|r| r.n_crashed),
            totals.sum(|r| r.n_selected),
            out.best_accuracy()
        ));
    }
    rows
}

/// The §2.2 communication-compression baselines vs and *with* FedCA, on
/// the comm-bound CNN. The paper argues quantization/sparsification are
/// orthogonal to FedCA (§6); this demonstrates it.
///
/// Configurations: fp32, deterministic int8, QSGD 4-bit, QSGD 2-bit,
/// top-10 % sparsification (all on FedAvg), plus full FedCA + QSGD 4-bit —
/// compression applies to eager per-layer sends too, so the full mechanism
/// composes (see also `tta_quantized` for the int8 × FedCA acceptance
/// study). The log gets per-config mean round time, upload bytes, and
/// achieved wire compression ratio.
pub fn compression(study: &Study, cells: &mut Cells) -> Vec<String> {
    let rounds = study.rounds_at(cells.cli().scale);
    let w = comm_bound_cnn(cells);
    let base_fl = fl_config(&w, cells.cli());
    let (q4, q2) = (
        Compression::Quantize { bits: 4 },
        Compression::Quantize { bits: 2 },
    );
    let configs = [
        ("FedAvg-fp32", Scheme::FedAvg, Compression::None),
        ("FedAvg-int8", Scheme::FedAvg, Compression::Int8),
        ("FedAvg-q4", Scheme::FedAvg, q4),
        ("FedAvg-q2", Scheme::FedAvg, q2),
        (
            "FedAvg-top10",
            Scheme::FedAvg,
            Compression::TopK { keep: 0.1 },
        ),
        ("FedCA-v3+q4", Scheme::FedCa(FedCaOptions::v3()), q4),
    ];
    let configs = configs.map(|(label, scheme, compression)| {
        let mut fl = base_fl.clone();
        fl.compression = compression;
        (label.to_string(), scheme, fl)
    });
    let mut rows = Vec::new();
    for (label, out) in accuracy_curves(cells, &mut rows, study, &w, rounds, configs.into()) {
        let totals = Totals::of(&out.rounds);
        cells.note(format!(
            "ext_compression: {label}: mean round {:.2}s, best acc {:.3}, \
             {:.1} MB uploaded, wire ratio {:.3}",
            out.mean_round_time(),
            out.best_accuracy(),
            totals.sum(|r| r.bytes_uploaded) / 1e6,
            totals.wire_ratio(),
        ));
    }
    rows
}

/// The §6 future-work *autonomous batch-size* mechanism. Under heavy
/// dynamicity, a straggling FedCA client normally truncates its round
/// (early stop); with the extension it first shrinks its minibatch —
/// trading gradient quality for keeping more iterations. The log gets mean
/// executed iterations per client-round and mean round time.
pub fn adaptive_batch(study: &Study, cells: &mut Cells) -> Vec<String> {
    let rounds = study.rounds_at(cells.cli().scale);
    let w = cells.workload("cnn");
    let mut fl = fl_config(&w, cells.cli());
    fl.dynamicity = true;
    fl.heterogeneity = true;
    let autobatch = FedCaOptions::v3().with_adaptive_batch(4);
    let configs = vec![
        ("FedCA".to_string(), Scheme::fedca_default(), fl.clone()),
        (
            "FedCA+autobatch".to_string(),
            Scheme::FedCa(autobatch),
            fl.clone(),
        ),
    ];
    let mut rows = Vec::new();
    for (label, out) in accuracy_curves(cells, &mut rows, study, &w, rounds, configs) {
        let (iters, n): (usize, usize) = out
            .rounds
            .iter()
            .filter(|r| !r.is_anchor)
            .flat_map(|r| r.iters_done.iter())
            .fold((0, 0), |(s, c), &i| (s + i, c + 1));
        cells.note(format!(
            "ext_adaptive_batch: {label}: mean iters/client {:.1}/{}, mean round {:.2}s, best acc {:.3}",
            iters as f64 / n.max(1) as f64,
            fl.local_iters,
            out.mean_round_time(),
            out.best_accuracy()
        ));
    }
    rows
}

/// Quantized-upload time-to-accuracy study: FedCA (full mechanism, eager
/// transmission *and* deterministic int8 uploads) vs full-precision FedCA
/// on the comm-bound CNN, so transport — the thing quantization improves —
/// is actually on the critical path at CI scale.
///
/// The acceptance bar this study checks (and logs a verdict for): the
/// quantized run's best accuracy lands within 1 point of fp32 while
/// carrying ≤ 30 % of the fp32 wire bytes. A handful of smoke rounds is
/// accuracy noise; the verdict only gates at scaled/paper scale where the
/// curves have converged.
pub fn tta_quantized(study: &Study, cells: &mut Cells) -> Vec<String> {
    let scale = cells.cli().scale;
    let rounds = study.rounds_at(scale);
    let w = comm_bound_cnn(cells);
    let base_fl = fl_config(&w, cells.cli());
    let configs = [
        ("FedCA-fp32", Compression::None),
        ("FedCA-int8", Compression::Int8),
    ];
    let configs = configs.map(|(label, compression)| {
        let mut fl = base_fl.clone();
        fl.compression = compression;
        (label.to_string(), Scheme::fedca_default(), fl)
    });
    let mut rows = Vec::new();
    let measured = accuracy_curves(cells, &mut rows, study, &w, rounds, configs.into())
        .iter()
        .map(|(label, out)| {
            let totals = Totals::of(&out.rounds);
            cells.note(format!(
                "tta_quantized: {label}: best acc {:.3}, mean round {:.2}s, \
                 {:.1} MB virtual, wire ratio {:.3}",
                out.best_accuracy(),
                out.mean_round_time(),
                totals.sum(|r| r.bytes_uploaded) / 1e6,
                totals.wire_ratio(),
            ));
            (out.best_accuracy(), totals.wire_ratio())
        })
        .collect::<Vec<_>>();
    let [(fp32_acc, fp32_ratio), (int8_acc, int8_ratio)] = measured[..] else {
        unreachable!("two configs, two outputs");
    };
    let acc_gap = fp32_acc - int8_acc;
    let byte_frac = int8_ratio / fp32_ratio;
    let acc_ok = acc_gap <= 0.01;
    let bytes_ok = byte_frac <= 0.30;
    cells.note(format!(
        "tta_quantized: verdict: FedCA-int8 vs FedCA-fp32: accuracy gap {acc_gap:.4} ({}), \
         byte fraction {byte_frac:.3} ({})",
        if acc_ok {
            "within 1 point"
        } else {
            "OVER 1 point"
        },
        if bytes_ok { "<= 30%" } else { "OVER 30%" },
    ));
    if scale != ExpScale::Smoke && !(acc_ok && bytes_ok) {
        cells.verdicts_failed.push(study.name);
    }
    rows
}
