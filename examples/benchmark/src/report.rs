//! Metric names, units and directions (the same tables `BENCHMARK.json`
//! lists), the statistics every number goes through, and the result line.

use serde_json::Value;

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq)]
pub enum Better {
    Higher,
    Lower,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen. Per-layer metrics carry no bound.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees; measured with tracing off. Each bound is
/// three times the spread seen across ten seeds on the builder's box, at
/// most the contract's 0.25 (README.md says what sets the spreads).
pub const END_TO_END: &[MetricDef] = &[
    e2e("rounds_per_s", "1/s", Higher, 0.25),
    e2e("client_iters_per_s", "1/s", Higher, 0.25),
    e2e("round_ms_p50", "ms", Lower, 0.25),
    e2e("round_ms_p90", "ms", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.10),
];

/// One rung per layer; isolated probes first, then the numbers the traced
/// run derives for the workload under test.
pub const PER_LAYER: &[MetricDef] = &[
    layer("tensor.gemm_gflops.cnn", "GFLOP/s", Higher),
    layer("tensor.gemm_gflops.lstm", "GFLOP/s", Higher),
    layer("tensor.gemm_gflops.wrn", "GFLOP/s", Higher),
    layer("tensor.gemm_gflops.wide", "GFLOP/s", Higher),
    layer("tensor.axpy_gbps", "GB/s", Higher),
    layer("tensor.axpy_quantized_gbps", "GB/s", Higher),
    layer("tensor.quantize_pack_gbps", "GB/s", Higher),
    layer("nn.train_iter_ms.cnn", "ms", Lower),
    layer("nn.train_iter_ms.lstm", "ms", Lower),
    layer("nn.train_iter_ms.wrn", "ms", Lower),
    layer("nn.train_iter_ms.wide", "ms", Lower),
    layer("nn.forward_ms.cnn", "ms", Lower),
    layer("nn.forward_ms.lstm", "ms", Lower),
    layer("nn.backward_ms.cnn", "ms", Lower),
    layer("nn.backward_ms.lstm", "ms", Lower),
    layer("nn.step_ms.cnn", "ms", Lower),
    layer("nn.step_ms.lstm", "ms", Lower),
    layer("nn.eval_batch_ms.cnn", "ms", Lower),
    layer("data.next_batch_us.cnn", "us", Lower),
    layer("data.shard_for_us", "us", Lower),
    layer("compress.encode_us.int8", "us", Lower),
    layer("compress.encode_us.f32", "us", Lower),
    layer("compress.decode_us.int8", "us", Lower),
    layer("compress.decode_us.f32", "us", Lower),
    layer("progress.metric_us", "us", Lower),
    layer("profiler.record_iter_us", "us", Lower),
    layer("profiler.finish_anchor_us", "us", Lower),
    layer("early_stop.decide_ns", "ns", Lower),
    layer("eager.resolve_us", "us", Lower),
    layer("client.round_ms.cnn_fedavg", "ms", Lower),
    layer("client.round_ms.cnn_fedca_anchor", "ms", Lower),
    layer("client.round_ms.cnn_fedca_steady", "ms", Lower),
    layer("client.fedca_overhead_pct", "%", Lower),
    layer("client.fixed_us.wide_int8", "us", Lower),
    layer("executor.dispatch_us", "us", Lower),
    layer("population.hydrate_us", "us", Lower),
    layer("server.select_us", "us", Lower),
    layer("server.ingest_us.f32", "us", Lower),
    layer("server.ingest_us.int8", "us", Lower),
    layer("server.close_us.f32", "us", Lower),
    layer("server.close_us.int8", "us", Lower),
    layer("runner.eval_ms.cnn", "ms", Lower),
    // From the traced run of the workload under test.
    layer("compress.wire_bytes_per_round", "B", Lower),
    layer("client.iters_done_per_round", "count", Lower),
    layer("executor.busy_share", "ratio", Higher),
    layer("population.hydrate_share", "ratio", Lower),
    layer("population.hydrations_per_round", "count", Lower),
    layer("server.decode_share", "ratio", Lower),
    layer("server.fold_share", "ratio", Lower),
    layer("runner.eval_share", "ratio", Lower),
    layer("runner.unattributed_share", "ratio", Lower),
    layer("runner.record_gap_ms", "ms", Lower),
    layer("sim.virt_round_s", "s", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.spans", "count", Lower),
    // Local-versus-sharded twin; 0 on the in-process workloads.
    layer("shard.spawn_ms", "ms", Lower),
    layer("shard.round_overhead_ms", "ms", Lower),
    layer("shard.efficiency", "ratio", Higher),
    layer("shard.tail_ratio", "ratio", Lower),
    layer("transport.retries", "count", Lower),
    layer("transport.heartbeats_missed", "count", Lower),
];

/// Measured values by metric name, with the sample count behind each.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, usize)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, samples: usize) {
        debug_assert!(self.get(name).is_none(), "metric {name} reported twice");
        self.0.push((name, value, samples));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    /// The `metrics` object of the result line: every metric of `defs`, in
    /// table order. A metric the run did not produce is a bug in the
    /// benchmark, not in the program, so it panics.
    pub fn to_json(&self, defs: &[MetricDef]) -> Value {
        Value::Object(
            defs.iter()
                .map(|d| {
                    let v = self
                        .get(d.name)
                        .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
                    (
                        d.name.to_string(),
                        obj(vec![
                            ("value", num(v)),
                            ("unit", Value::String(d.unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// `{"name": count}` for the info line.
    pub fn samples_json(&self) -> Value {
        Value::Object(
            self.0
                .iter()
                .map(|m| (m.0.to_string(), pos(m.2 as u64)))
                .collect(),
        )
    }
}

pub fn num(v: f64) -> Value {
    Value::Number(serde::Number::Float(v))
}

pub fn pos(v: u64) -> Value {
    Value::Number(serde::Number::PosInt(v))
}

pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Sorted copy.
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

/// Linear-interpolated quantile of an unsorted sample, `q` in `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let v = sorted(xs);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}
