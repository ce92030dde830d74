//! §3.2.2 statistical-pattern studies (Figs. 2–5) and the §5.5 memory
//! overhead table. Figs. 2–5 are views over one shared 4-client FedAvg
//! trajectory per model ([`Cells::progress`]).

use super::{Study, MODELS};
use crate::study::{push_curve, CONSECUTIVE_ROUNDS, EARLY_LATE_ROUNDS};
use crate::Cells;
use fedca_core::params::ModelLayout;
use fedca_core::profiler::SampledProfiler;
use std::sync::Arc;

/// Fig. 2: whole-model statistical-progress curves for two clients, per
/// model, at an early and a late training stage.
///
/// Paper setup: 4-client testbed, K = 250, curves at rounds 10 and 200 for
/// Client-0 and Client-1 (CNN / LSTM / WRN). Scaled setup: K = 40, rounds
/// 3 and 24.
pub fn fig2(_: &Study, cells: &mut Cells) -> Vec<String> {
    let rounds = cells.cli().scale.pick(EARLY_LATE_ROUNDS);
    let mut rows = Vec::new();
    for name in MODELS {
        cells.note(format!("fig2: studying {name} at rounds {rounds:?}"));
        let curves = cells.progress(name);
        for round in rounds {
            for client in [0, 1] {
                let label = format!("{name},{round},{client}");
                push_curve(&mut rows, &label, &curves[&(round, client)].model);
            }
        }
    }
    rows
}

/// Picks the first layer whose name matches any of `preferred`, falling
/// back to a prefix match.
fn pick<'a>(names: &[&'a str], preferred: &[&str]) -> &'a str {
    for p in preferred {
        if let Some(n) = names.iter().find(|n| *n == p) {
            return n;
        }
    }
    for p in preferred {
        let prefix = p.split('.').next().unwrap_or(p);
        if let Some(n) = names.iter().find(|n| n.starts_with(prefix)) {
            return n;
        }
    }
    names[0]
}

/// Fig. 3: per-layer statistical-progress curves at an early and a late
/// training stage, two contrasting layers per model.
///
/// Paper layers: CNN `fc2.weight` vs `conv2.weight`; LSTM
/// `rnn.weight_hh_l0` vs `rnn.bias_ih_l1`; WRN `conv3.0.residual.0.bias`
/// vs `conv4.2.residual.6.weight` (at scaled depth the closest existing
/// conv4 block is used).
pub fn fig3(_: &Study, cells: &mut Cells) -> Vec<String> {
    let wanted: [(&str, &[&str]); 3] = [
        ("cnn", &["fc2.weight", "conv2.weight"]),
        ("lstm", &["rnn.weight_hh_l0", "rnn.bias_ih_l1"]),
        (
            "wrn",
            &[
                "conv3.0.residual.0.bias",
                "conv4.2.residual.6.weight",
                "conv4.1.residual.3.weight",
            ],
        ),
    ];
    let rounds = cells.cli().scale.pick(EARLY_LATE_ROUNDS);
    let mut rows = Vec::new();
    for (name, prefs) in wanted {
        cells.note(format!("fig3: studying {name} layers {prefs:?}"));
        let curves = cells.progress(name);
        for round in rounds {
            let rec = &curves[&(round, 0)];
            let names: Vec<&str> = rec.layers.iter().map(|(n, _)| n.as_str()).collect();
            // Two contrasting layers per model, as in the paper's figure.
            for layer_name in [pick(&names, &prefs[..1]), pick(&names, &prefs[1..])] {
                let (_, curve) = rec
                    .layers
                    .iter()
                    .find(|(n, _)| n == layer_name)
                    .expect("picked layer exists");
                push_curve(&mut rows, &format!("{name},{round},{layer_name}"), curve);
            }
        }
    }
    rows
}

/// Fig. 4: statistical-progress curves across five *consecutive* rounds,
/// at an early and a late stage — the similarity that justifies periodical
/// profiling (§4.1). Paper: rounds 10–14 and 196–200. Scaled: rounds 3–7
/// and 20–24. The log gets the max pointwise gap between consecutive-round
/// curves.
pub fn fig4(_: &Study, cells: &mut Cells) -> Vec<String> {
    let rounds = cells.cli().scale.pick(CONSECUTIVE_ROUNDS);
    let mut rows = Vec::new();
    for name in MODELS {
        cells.note(format!("fig4: {name} rounds {rounds:?}"));
        let curves = cells.progress(name);
        let mut max_gap_consecutive = 0.0f32;
        for (i, &round) in rounds.iter().enumerate() {
            let curve = &curves[&(round, 0)].model;
            push_curve(&mut rows, &format!("{name},{round}"), curve);
            if i > 0 && round == rounds[i - 1] + 1 {
                let gap = curves[&(round - 1, 0)]
                    .model
                    .iter()
                    .zip(curve)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f32, f32::max);
                max_gap_consecutive = max_gap_consecutive.max(gap);
            }
        }
        cells.note(format!(
            "fig4: {name} max pointwise gap between consecutive-round curves: {max_gap_consecutive:.3}"
        ));
    }
    rows
}

/// Fig. 5: per-layer progress curves profiled with ALL parameters vs with
/// the min(50%, 100)-parameter sample — validating intra-layer sampling
/// (§4.1). A view over the testbed ([`Cells::progress`]): the sampled curve
/// covers exactly the indices testbed client 0's own `SampledProfiler`
/// samples. `mode` is `full` or `sampled`; the log gets the max
/// full-vs-sampled gap per model.
pub fn fig5(_: &Study, cells: &mut Cells) -> Vec<String> {
    let rounds = cells.cli().scale.pick(EARLY_LATE_ROUNDS);
    // One representative mid-network layer per model (the paper picks one
    // random layer per model; these are fixed for reproducibility).
    let layer_for = |name: &str| -> &'static [&'static str] {
        match name {
            "cnn" => &["fc2.weight"],
            "lstm" => &["rnn.weight_ih_l1"],
            _ => &["conv3.1.residual.3.bias", "conv3.0.residual.1.bias"],
        }
    };
    let mut rows = Vec::new();
    for name in MODELS {
        let curves = cells.progress(name);
        let names = &curves[&(rounds[0], 0)].layers;
        let l = layer_for(name)
            .iter()
            .find_map(|p| names.iter().position(|(n, _)| n == p))
            .unwrap_or(0);
        let layer_name = names[l].0.clone();
        let mut max_gap = 0.0f32;
        for round in rounds {
            let rec = &curves[&(round, 0)];
            let label = format!("{name},{round},{layer_name}");
            for (i, (f, s)) in rec.layers[l].1.iter().zip(&rec.sampled[l]).enumerate() {
                rows.push(format!("{label},full,{},{:.4}", i + 1, f));
                rows.push(format!("{label},sampled,{},{:.4}", i + 1, s));
                max_gap = max_gap.max((f - s).abs());
            }
        }
        cells.note(format!("fig5: {name} layer {layer_name} rounds {rounds:?}"));
        cells.note(format!(
            "fig5: {name} max |full − sampled| gap: {max_gap:.3}"
        ));
    }
    rows
}

/// §5.5 memory overhead: the number of parameters the periodical-sampling
/// profiler records per model, and the resulting memory cost, vs the full
/// model size.
///
/// Paper reports: CNN 618 samples / 0.24 MB, LSTM 905 / 0.34 MB,
/// WRN 9 974 / 3.8 MB — negligible next to the model sizes (WRN 139.4 MB).
pub fn overhead(_: &Study, cells: &mut Cells) -> Vec<String> {
    let k = cells.cli().scale.pick([40, 40, 125]); // 125 is the paper's K
    let seed = cells.cli().seed();
    let mut rows = Vec::new();
    for name in MODELS {
        let w = cells.workload(name);
        let model = (w.model_factory)();
        let layout = Arc::new(ModelLayout::from_spans(model.spans()));
        let prof = SampledProfiler::new(layout.clone(), 100, seed);
        let sampled = prof.sampled_param_count();
        let bytes = prof.memory_bytes(k);
        let model_bytes = w.wire_model_bytes;
        rows.push(format!(
            "{name},{},{sampled},{bytes},{model_bytes:.0},{:.4}",
            model.num_params(),
            bytes as f64 / model_bytes * 100.0
        ));
        cells.note(format!(
            "{name}: {} params, {sampled} sampled, {:.2} MB profiling memory over K={k} \
             ({:.3}% of the {:.1} MB wire model)",
            model.num_params(),
            bytes as f64 / 1e6,
            bytes as f64 / model_bytes * 100.0,
            model_bytes / 1e6
        ));
    }
    rows
}
