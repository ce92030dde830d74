//! The isolated rungs of the ladder: each layer timed from outside through
//! its public functions, on inputs generated from the seed. Every number is
//! a median over [`REPS`] repetitions after [`WARM`] untimed ones. The
//! probes are the same whatever workload the traced run is for; they answer
//! "which rung moved", the traced shares answer "did it matter here".

use crate::report::{median, Metrics};
use crate::workloads::{self, wide_workload, WIDE_PARAMS};
use fedca_compress::wire::{self, MessageReader, UpdateMessage};
use fedca_compress::Compression;
use fedca_core::client::{run_client_round, ClientRoundReport, ClientState, RoundPlan};
use fedca_core::eager::EagerState;
use fedca_core::early_stop::should_stop;
use fedca_core::executor::{ClientArena, ClientDone, ClientWork, RoundCtx, RoundExecutor};
use fedca_core::params::ModelLayout;
use fedca_core::profiler::SampledProfiler;
use fedca_core::server::Server;
use fedca_core::workload::Scale;
use fedca_core::{
    statistical_progress, ClientFactory, ClientStore, FlConfig, Scheme, Trainer, Workload,
};
use fedca_data::{BatchSampler, PartitionSpec};
use fedca_nn::{softmax_cross_entropy_into, Sgd};
use fedca_sim::device::DynamicsConfig;
use fedca_tensor::{dataplane, gemm, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Timed repetitions behind every probe's median.
pub const REPS: usize = 30;
const WARM: usize = 3;

/// Each model's most expensive train-iteration GEMM at batch 16 (batch 8
/// for `wide`), read off `nn::models`: `(metric, trans_a, trans_b, m, n, k)`.
/// cnn: conv1 forward `W[6,75]·col[75,16·144]`; lstm: layer-2 batched input
/// projection `x[16·16,32]·W_ihᵀ[32,128]`; wrn: a `conv2` group 3×3
/// convolution `W[8,72]·col[72,16·256]` (all three groups cost the same
/// flop, this one has the narrowest M); wide: fc1 forward
/// `x[8,768]·Wᵀ[768,256]`.
const GEMM_SHAPES: [(&str, bool, bool, usize, usize, usize); 4] = [
    ("tensor.gemm_gflops.cnn", false, false, 6, 2304, 75),
    ("tensor.gemm_gflops.lstm", false, true, 256, 128, 32),
    ("tensor.gemm_gflops.wrn", false, false, 8, 4096, 72),
    ("tensor.gemm_gflops.wide", false, true, 8, 256, 768),
];

/// Iterations of the client-round probes (the cnn workloads run K = 40;
/// the per-iteration costs are the same, the probe is twice as quick).
const CLIENT_K: usize = 20;
/// Local iterations behind `profiler.finish_anchor_us`: the cnn workloads' K.
const ANCHOR_K: usize = 40;
/// Cohort of the server probes: `wide_int8`'s.
const COHORT: usize = 32;
/// Population of the orchestration probes: `pop_dense`'s.
const POPULATION: usize = 100_000;

/// Median seconds per call of `f`, each repetition timing `inner` calls.
fn per_call(inner: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(REPS);
    for rep in 0..WARM + REPS {
        let t0 = Instant::now();
        for _ in 0..inner {
            f();
        }
        if rep >= WARM {
            samples.push(t0.elapsed().as_secs_f64() / inner as f64);
        }
    }
    median(&samples)
}

fn values(n: usize, rng: &mut StdRng) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(-0.1..0.1f32)).collect()
}

fn tensor_layer(m: &mut Metrics, rng: &mut StdRng) {
    for (name, ta, tb, mm, n, k) in GEMM_SHAPES {
        let (a, b) = (values(mm * k, rng), values(k * n, rng));
        let mut c = vec![0.0f32; mm * n];
        let secs = per_call(8, || {
            gemm::gemm_acc(ta, tb, mm, n, k, black_box(&a), black_box(&b), &mut c);
            black_box(c[0]);
        });
        m.put(name, 2.0 * (mm * n * k) as f64 / secs / 1e9, REPS);
    }

    // Computed bytes: the arrays each kernel reads and writes, once.
    let n = WIDE_PARAMS;
    let x = values(n, rng);
    let mut y = vec![0.0f32; n];
    let secs = per_call(4, || {
        dataplane::axpy(0.125, black_box(&x), &mut y);
        black_box(y[0]);
    });
    m.put("tensor.axpy_gbps", 12.0 * n as f64 / secs / 1e9, REPS);

    // Int8 on the wire: 127 levels per sign in 8-bit offset-binary fields.
    let (levels_per_sign, width) = (127u8, 8u32);
    let scale = dataplane::max_abs(&x);
    let mut levels = vec![0i8; n];
    let mut packed = vec![0u8; dataplane::packed_len(n, width)];
    let secs = per_call(4, || {
        dataplane::quantize_levels(black_box(&x), scale, levels_per_sign, &mut levels);
        dataplane::pack_levels(&levels, levels_per_sign, width, &mut packed);
        black_box(packed[0]);
    });
    m.put(
        "tensor.quantize_pack_gbps",
        5.0 * n as f64 / secs / 1e9,
        REPS,
    );
    let secs = per_call(4, || {
        dataplane::axpy_quantized(
            0.125,
            scale,
            levels_per_sign,
            width,
            black_box(&packed),
            &mut y,
        );
        black_box(y[0]);
    });
    m.put(
        "tensor.axpy_quantized_gbps",
        9.0 * n as f64 / secs / 1e9,
        REPS,
    );
}

/// Medians of (forward, backward, step, whole iteration) in milliseconds for
/// one SGD iteration of `w`'s model, shaped like the client hot loop.
fn train_iteration(w: &Workload, batch: usize) -> [f64; 4] {
    let mut model = (w.model_factory)();
    let idx: Vec<usize> = (0..batch).collect();
    let (x, y) = w.train.batch(&idx);
    let opt = Sgd::new(w.lr, w.weight_decay);
    let mut grad = Tensor::zeros([0]);
    let mut parts: [Vec<f64>; 4] = Default::default();
    for rep in 0..WARM + REPS {
        let t0 = Instant::now();
        let logits = model.forward(black_box(&x));
        let t1 = Instant::now();
        black_box(softmax_cross_entropy_into(&logits, &y, &mut grad));
        model.recycle(logits);
        model.zero_grad();
        let gin = model.backward(&grad);
        model.recycle(gin);
        let t2 = Instant::now();
        model.step(&opt, None);
        let t3 = Instant::now();
        if rep >= WARM {
            for (part, (from, to)) in parts
                .iter_mut()
                .zip([(t0, t1), (t1, t2), (t2, t3), (t0, t3)])
            {
                part.push(to.duration_since(from).as_secs_f64() * 1e3);
            }
        }
    }
    parts.map(|p| median(&p))
}

fn nn_layer(m: &mut Metrics, cnn: &Workload, seed: u64) -> f64 {
    let [f, b, s, all] = train_iteration(cnn, 16);
    m.put("nn.forward_ms.cnn", f, REPS);
    m.put("nn.backward_ms.cnn", b, REPS);
    m.put("nn.step_ms.cnn", s, REPS);
    m.put("nn.train_iter_ms.cnn", all, REPS);
    let [f, b, s, all] = train_iteration(&Workload::lstm(Scale::Scaled, seed), 16);
    m.put("nn.forward_ms.lstm", f, REPS);
    m.put("nn.backward_ms.lstm", b, REPS);
    m.put("nn.step_ms.lstm", s, REPS);
    m.put("nn.train_iter_ms.lstm", all, REPS);
    m.put(
        "nn.train_iter_ms.wrn",
        train_iteration(&Workload::wrn(Scale::Scaled, seed), 16)[3],
        REPS,
    );
    let wide_ms = train_iteration(&wide_workload(seed), 8)[3];
    m.put("nn.train_iter_ms.wide", wide_ms, REPS);

    // Evaluation's unit of work: a forward pass over 64 test samples.
    let mut model = (cnn.model_factory)();
    model.set_training(true);
    let (x, _) = cnn.test.batch(&(0..64).collect::<Vec<_>>());
    let secs = per_call(1, || {
        let logits = model.forward(black_box(&x));
        model.recycle(logits);
    });
    m.put("nn.eval_batch_ms.cnn", secs * 1e3, REPS);
    wide_ms
}

fn data_layer(m: &mut Metrics, cnn: &Workload, seed: u64, rng: &mut StdRng) {
    let shard: Vec<usize> = (0..cnn.train.len() / 32).collect();
    let mut sampler = BatchSampler::new(shard, 16);
    let secs = per_call(16, || {
        let idx = sampler.next_batch(rng);
        black_box(cnn.train.batch(&idx));
    });
    m.put("data.next_batch_us.cnn", secs * 1e6, REPS);

    let tiny = Workload::tiny_mlp(seed);
    let spec = PartitionSpec::new(tiny.train.labels(), POPULATION, 0.1, seed);
    let mut id = 0;
    let secs = per_call(16, || {
        id = (id + 7919) % POPULATION;
        black_box(spec.shard_for(id));
    });
    m.put("data.shard_for_us", secs * 1e6, REPS);
}

fn compress_layer(m: &mut Metrics, rng: &mut StdRng) {
    let x = values(WIDE_PARAMS, rng);
    let mut out = vec![0.0f32; WIDE_PARAMS];
    for (compression, enc_name, dec_name) in [
        (
            Compression::Int8,
            "compress.encode_us.int8",
            "compress.decode_us.int8",
        ),
        (
            Compression::None,
            "compress.encode_us.f32",
            "compress.decode_us.f32",
        ),
    ] {
        let encode = |rng: &mut StdRng| {
            wire::encode(&UpdateMessage {
                round: 0,
                client: 0,
                layers: vec![(0, compression.compress(black_box(&x), rng))],
            })
        };
        let secs = per_call(1, || {
            black_box(encode(rng));
        });
        m.put(enc_name, secs * 1e6, REPS);
        let bytes = encode(rng);
        let secs = per_call(1, || {
            let mut reader =
                MessageReader::new(black_box(bytes.as_ref())).expect("self-encoded header");
            let (_, view) = reader
                .next_layer()
                .expect("one layer")
                .expect("self-encoded layer");
            view.decode_into(&mut out);
            black_box(out[0]);
        });
        m.put(dec_name, secs * 1e6, REPS);
    }
}

fn fedca_layers(m: &mut Metrics, cnn: &Workload, seed: u64, rng: &mut StdRng) {
    let model = (cnn.model_factory)();
    let layout = Arc::new(ModelLayout::from_spans(model.spans()));
    let start = model.flat_params();
    let current: Vec<f32> = start
        .iter()
        .map(|v| v + rng.gen_range(-0.01..0.01f32))
        .collect();

    // Eq. 1 over the whole cnn update.
    let secs = per_call(16, || {
        black_box(statistical_progress(black_box(&start), black_box(&current)));
    });
    m.put("progress.metric_us", secs * 1e6, REPS);

    let mut profiler = SampledProfiler::new(layout.clone(), 100, seed);
    profiler.begin_anchor(0);
    let secs = per_call(ANCHOR_K, || {
        profiler.record_iteration(black_box(&start), black_box(&current))
    });
    m.put("profiler.record_iter_us", secs * 1e6, REPS);
    let mut finish = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        profiler.begin_anchor(0);
        for i in 0..ANCHOR_K {
            let cur: Vec<f32> = start.iter().map(|v| v + 0.01 * (i + 1) as f32).collect();
            profiler.record_iteration(&start, &cur);
        }
        let t0 = Instant::now();
        black_box(profiler.finish_anchor().model.len());
        finish.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    m.put("profiler.finish_anchor_us", median(&finish), REPS);

    let curve: Vec<f32> = (1..=ANCHOR_K)
        .map(|i| 1.0 - (-(i as f32) / 8.0).exp())
        .collect();
    let secs = per_call(1024, || {
        black_box(should_stop(
            black_box(&curve),
            black_box(20),
            black_box(2.5),
            black_box(4.0),
            black_box(0.01),
        ));
    });
    m.put("early_stop.decide_ns", secs * 1e9, REPS);

    // Eq. 6 on the cnn's largest layer.
    let widest = (0..layout.num_layers())
        .map(|l| layout.layer_len(l))
        .max()
        .expect("cnn has layers");
    let final_update = values(widest, rng);
    let mut eager = EagerState::new(1);
    eager.mark_sent(0, 10, final_update.iter().map(|v| v * 0.9).collect());
    let secs = per_call(16, || {
        black_box(eager.resolve(0, black_box(&final_update), 0.6));
    });
    m.put("eager.resolve_us", secs * 1e6, REPS);
}

/// One client of `w` under `fl`, derived exactly as the trainer derives it.
fn factory(w: &Workload, fl: &FlConfig, layout: &Arc<ModelLayout>) -> ClientFactory {
    ClientFactory {
        fl: fl.clone(),
        dynamics: DynamicsConfig::paper(),
        layout: layout.clone(),
        max_samples: 100,
        partition: PartitionSpec::new(w.train.labels(), fl.n_clients, fl.dirichlet_alpha, fl.seed),
    }
}

struct ClientBench {
    workload: Workload,
    fl: FlConfig,
    factory: ClientFactory,
    layout: Arc<ModelLayout>,
    global: Vec<f32>,
    arena: ClientArena,
}

impl ClientBench {
    fn new(workload: Workload, fl: FlConfig) -> Self {
        let arena = ClientArena::new(&workload);
        let layout = Arc::new(ModelLayout::from_spans(arena.model.spans()));
        let global = arena.model.flat_params();
        ClientBench {
            factory: factory(&workload, &fl, &layout),
            workload,
            fl,
            layout,
            global,
            arena,
        }
    }

    fn client(&self, id: usize) -> ClientState {
        self.factory.build(id)
    }

    fn round(
        &mut self,
        client: &mut ClientState,
        scheme: &Scheme,
        round: usize,
        is_anchor: bool,
    ) -> ClientRoundReport {
        let k = self.fl.local_iters;
        // A full round at nominal pace plus both transfers.
        let deadline = self.workload.iter_work_seconds * k as f64 + 0.3;
        let plan = RoundPlan {
            round,
            // Far enough apart that the client's links and device are idle
            // again, as they are between a trainer's rounds.
            start: round as f64 * 100.0 * deadline,
            deadline,
            planned_iters: k,
            is_anchor,
            faults: Default::default(),
        };
        run_client_round(
            client,
            &mut self.arena,
            &self.layout,
            &self.global,
            &self.workload.train,
            &self.workload,
            &self.fl,
            &scheme.client_options(),
            &plan,
        )
    }

    /// Median (milliseconds, iterations done) of one client round.
    fn time_rounds(&mut self, scheme: &Scheme, is_anchor: bool) -> (f64, f64) {
        let mut client = self.client(0);
        if !is_anchor && matches!(scheme, Scheme::FedCa(_)) {
            // A steady FedCA round needs the curves an anchor round profiled.
            self.round(&mut client, scheme, 0, true);
        }
        let (mut ms, mut iters) = (Vec::new(), Vec::new());
        for rep in 0..WARM + REPS {
            let t0 = Instant::now();
            let report = self.round(&mut client, scheme, rep + 1, is_anchor);
            if rep >= WARM {
                ms.push(t0.elapsed().as_secs_f64() * 1e3);
                iters.push(report.iters_done as f64);
            }
        }
        (median(&ms), median(&iters))
    }
}

fn client_layer(m: &mut Metrics, cnn: &Workload, seed: u64, wide_iter_ms: f64) {
    let fl = FlConfig {
        local_iters: CLIENT_K,
        lr: cnn.lr,
        weight_decay: cnn.weight_decay,
        seed,
        ..FlConfig::scaled()
    };
    let mut bench = ClientBench::new(cnn.clone(), fl);
    let fedca = Scheme::fedca_default();
    let (avg_ms, avg_iters) = bench.time_rounds(&Scheme::FedAvg, false);
    let (anchor_ms, anchor_iters) = bench.time_rounds(&fedca, true);
    let (steady_ms, _) = bench.time_rounds(&fedca, false);
    m.put("client.round_ms.cnn_fedavg", avg_ms, REPS);
    m.put("client.round_ms.cnn_fedca_anchor", anchor_ms, REPS);
    m.put("client.round_ms.cnn_fedca_steady", steady_ms, REPS);
    // Paper §5.5: what profiling adds to an iteration.
    let overhead = (anchor_ms / anchor_iters) / (avg_ms / avg_iters) - 1.0;
    m.put("client.fedca_overhead_pct", overhead * 100.0, REPS);

    // Everything a client round costs besides its one SGD iteration:
    // download of the global model, error feedback, quantize, encode.
    let spec = workloads::build("wide_int8", seed).expect("a workload of this benchmark");
    let mut bench = ClientBench::new(spec.workload, spec.fl);
    let (round_ms, _) = bench.time_rounds(&Scheme::FedAvg, false);
    m.put(
        "client.fixed_us.wide_int8",
        (round_ms - wide_iter_ms) * 1e3,
        REPS,
    );
}

fn orchestration_layers(m: &mut Metrics, seed: u64, rng: &mut StdRng) {
    let spec = workloads::build("pop_dense", seed).expect("a workload of this benchmark");
    let cohort = spec.fl.clients_per_round;
    let arena = ClientArena::new(&spec.workload);
    let layout = Arc::new(ModelLayout::from_spans(arena.model.spans()));
    let global = arena.model.flat_params();

    // submit → recv of one K = 1 client, a cohort at a time.
    let pool = RoundExecutor::new(workloads::WORKERS);
    let fl = FlConfig {
        local_iters: 1,
        ..spec.fl.clone()
    };
    let make = factory(&spec.workload, &fl, &layout);
    let mut clients: Vec<Option<ClientState>> =
        (0..cohort).map(|id| Some(make.build(id))).collect();
    let ctx = Arc::new(RoundCtx {
        layout: layout.clone(),
        workload: spec.workload.clone(),
        fl,
        opts: Scheme::FedAvg.client_options(),
        global: global.clone(),
    });
    let mut round = 0;
    let secs = per_call(1, || {
        round += 1;
        for (ord, slot) in clients.iter_mut().enumerate() {
            let plan = RoundPlan {
                round,
                start: 0.0,
                deadline: 1e9,
                planned_iters: 1,
                is_anchor: false,
                faults: Default::default(),
            };
            let client = slot.take().expect("client is home between rounds");
            pool.submit(ClientWork {
                ord,
                client,
                plan,
                ctx: Arc::clone(&ctx),
            })
            .expect("pool alive");
        }
        for _ in 0..cohort {
            match pool.recv().expect("pool alive") {
                ClientDone::Completed(done) => clients[done.ord] = Some(done.client),
                ClientDone::Failed(f) => panic!("fault-free probe client failed: {}", f.panic_msg),
            }
        }
    });
    m.put("executor.dispatch_us", secs * 1e6 / cohort as f64, REPS);

    // Cold hydration: every id is derived for the first time.
    let mut store = ClientStore::new(factory(&spec.workload, &spec.fl, &layout));
    let mut id = 0;
    let secs = per_call(16, || {
        id += 1;
        black_box(store.hydrate(id).expect("id within the population"));
    });
    m.put("population.hydrate_us", secs * 1e6, REPS);

    let server = Server::new(layout, global, 0.9, 5.0);
    let secs = per_call(4, || {
        black_box(server.select_clients(POPULATION, cohort, rng));
    });
    m.put("server.select_us", secs * 1e6, REPS);
}

/// A cohort of real `wide` uploads through ingest (decode on arrival) and
/// close (the weighted fold), dense and quantized.
fn server_layer(m: &mut Metrics, seed: u64) {
    for (compression, ingest_name, close_name) in [
        (
            Compression::None,
            "server.ingest_us.f32",
            "server.close_us.f32",
        ),
        (
            Compression::Int8,
            "server.ingest_us.int8",
            "server.close_us.int8",
        ),
    ] {
        let spec = workloads::build("wide_int8", seed).expect("a workload of this benchmark");
        let fl = FlConfig {
            n_clients: COHORT,
            compression,
            ..spec.fl
        };
        let mut bench = ClientBench::new(spec.workload, fl);
        let reports: Vec<ClientRoundReport> = (0..COHORT)
            .map(|id| {
                let mut client = bench.client(id);
                bench.round(&mut client, &Scheme::FedAvg, 0, false)
            })
            .collect();
        let mut server = Server::new(bench.layout.clone(), bench.global.clone(), 0.9, 5.0);
        let (mut ingest, mut close) = (Vec::new(), Vec::new());
        for rep in 0..WARM + REPS {
            let batch = reports.clone();
            let mut agg = server.begin_round(0.0, COHORT);
            let t0 = Instant::now();
            for (ord, report) in batch.into_iter().enumerate() {
                agg.ingest(ord, report);
            }
            let t1 = Instant::now();
            let (result, _) = agg.close(&mut server);
            let t2 = Instant::now();
            black_box(result.collected.len());
            if rep >= WARM {
                ingest.push(t1.duration_since(t0).as_secs_f64() * 1e6);
                close.push(t2.duration_since(t1).as_secs_f64() * 1e6);
            }
        }
        m.put(ingest_name, median(&ingest), REPS);
        m.put(close_name, median(&close), REPS);
    }
}

fn runner_layer(m: &mut Metrics, cnn: &Workload) {
    let mut trainer = Trainer::new_with_workers(FlConfig::scaled(), Scheme::FedAvg, cnn.clone(), 1);
    let secs = per_call(1, || {
        black_box(trainer.evaluate());
    });
    m.put("runner.eval_ms.cnn", secs * 1e3, REPS);
}

/// Runs every isolated probe; inputs derive from `seed`.
pub fn run_all(seed: u64) -> Metrics {
    let mut m = Metrics::default();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBE7C_4A11);
    // Datasets are `Arc`-backed: one cnn workload serves every probe.
    let cnn = Workload::cnn(Scale::Scaled, seed);
    tensor_layer(&mut m, &mut rng);
    let wide_iter_ms = nn_layer(&mut m, &cnn, seed);
    data_layer(&mut m, &cnn, seed, &mut rng);
    compress_layer(&mut m, &mut rng);
    fedca_layers(&mut m, &cnn, seed, &mut rng);
    client_layer(&mut m, &cnn, seed, wide_iter_ms);
    orchestration_layers(&mut m, seed, &mut rng);
    server_layer(&mut m, seed);
    runner_layer(&mut m, &cnn);
    m
}
