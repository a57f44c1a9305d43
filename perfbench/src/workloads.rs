//! The three workloads: set-up, the closed measurement loop, and the side
//! probes that give every workload every end-to-end metric.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hummingbird::compiler::CompiledModel;
use hummingbird::ml::baselines::OnnxLikeForest;
use hummingbird::ml::metrics::allclose;
use hummingbird::prelude::*;
use hummingbird::serve::{IncidentKind, ModelStore, StoreConfig, Supervisor};

use crate::stats::{geomean, median, tail};
use crate::trace::Tracer;
use crate::zoo::{mix, Fnv, Rng, Zoo, HELD_OUT_ROWS};

/// The paper's output-validation tolerance (rtol = atol).
pub const TOLERANCE: f32 = 1e-5;

/// Tail percentiles, fixed once per workload so that every tail has at
/// least ten samples beyond it at the run lengths `BENCHMARK.json` sets.
/// `serve_mixed`'s is per model: its least popular model gets about 200
/// single-record requests per replica.
const OFFLINE_TAIL: f64 = 0.80;
const RECORD1_TAIL: f64 = 0.97;
const SERVE_TAIL: f64 = 0.90;
const BATCH64_TAIL: f64 = 0.90;

/// `offline_batch` runs at least this many rounds, so its pooled tail
/// keeps ten calls beyond it on a slow machine.
const OFFLINE_MIN_ROUNDS: usize = 6;

/// Calls per model in the 64-record probe of `offline_batch` and `record1`.
const PROBE64_ROUNDS: usize = 30;

/// Supervisor workers of `serve_mixed` (= cores of the reference machine).
pub const SERVE_WORKERS: usize = 2;

/// Closed-loop client threads of `serve_mixed`. One: the program's planned
/// executor answers wrongly when a run of a model starts while a caller
/// still holds an earlier answer of the same model (see README), which two
/// clients of the same hot model do at random.
pub const SERVE_CLIENTS: usize = 1;

/// Deploys of every model per replica: under load in the `serve_mixed`
/// loop, and into an idle store in the side probes of the other workloads.
const LOOP_DEPLOY_ROUNDS: usize = 2;
const PROBE_DEPLOY_ROUNDS: usize = 5;

/// Share of `serve_mixed` requests that carry 64 records.
const SERVE_BATCH64_SHARE: f64 = 0.10;

/// Zipf(1.0) popularity rank order of `serve_mixed`, hottest first. Fixed
/// and independent of the seed, so a fresh seed never changes which model
/// is hot. The top three are one model per dataset.
const RANK_ORDER: [&str; 9] = [
    "covtype-xgb",
    "fraud-rf",
    "epsilon-lgbm",
    "covtype-rf",
    "fraud-xgb",
    "epsilon-rf",
    "covtype-lgbm",
    "fraud-lgbm",
    "epsilon-xgb",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OfflineBatch,
    Record1,
    ServeMixed,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "offline_batch" => Some(Workload::OfflineBatch),
            "record1" => Some(Workload::Record1),
            "serve_mixed" => Some(Workload::ServeMixed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::OfflineBatch => "offline_batch",
            Workload::Record1 => "record1",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// Compile options every model of the workload is built with.
    pub fn compile_options(self) -> CompileOptions {
        match self {
            Workload::OfflineBatch => CompileOptions {
                device: Device::cpu(),
                expected_batch: HELD_OUT_ROWS,
                ..CompileOptions::default()
            },
            Workload::Record1 | Workload::ServeMixed => CompileOptions {
                device: Device::cpu1(),
                expected_batch: 1,
                ..CompileOptions::default()
            },
        }
    }

    /// Serving options of every model. The supervisor's background canary
    /// is off: its replay of a request runs while the client still holds
    /// that request's answer, which the planned executor does not survive
    /// (see README), so it quarantines sound rungs and can hand the client
    /// a wrong answer. The store's deploy canary stays on.
    pub fn serve_config(self) -> ServeConfig {
        ServeConfig {
            compile: self.compile_options(),
            canary_period: 0,
            ..ServeConfig::default()
        }
    }

    /// Rows per request of the workload's main operation.
    pub fn primary_batch(self) -> usize {
        match self {
            Workload::OfflineBatch => HELD_OUT_ROWS,
            Workload::Record1 | Workload::ServeMixed => 1,
        }
    }
}

/// Operation types counted separately.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    Predict1 = 0,
    Predict64 = 1,
    Deploy = 2,
    Batch = 3,
}

const OP_NAMES: [&str; 4] = ["predict1", "predict64", "deploy", "batch"];

/// Attempted and failed operations per type, and wrong answers.
#[derive(Default)]
pub struct Ops {
    attempted: [AtomicU64; 4],
    failed: [AtomicU64; 4],
    mismatched: AtomicU64,
}

impl Ops {
    pub fn record(&self, op: Op, ok: bool) {
        self.attempted[op as usize].fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.failed[op as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one scoring operation: it fails on a typed error or on an
    /// answer outside the validation tolerance of the reference.
    pub fn scored<E: std::fmt::Display>(
        &self,
        op: Op,
        got: Result<Tensor<f32>, E>,
        want: &Tensor<f32>,
    ) -> bool {
        let ok = match got {
            Ok(out) if allclose(&out, want, TOLERANCE, TOLERANCE) => true,
            Ok(out) => {
                self.mismatched.fetch_add(1, Ordering::Relaxed);
                let worst = out
                    .iter()
                    .zip(want.iter())
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f32, f32::max);
                eprintln!(
                    "wrong answer from {}: shape {:?}, max abs diff {worst:e} from the reference",
                    OP_NAMES[op as usize],
                    out.shape()
                );
                false
            }
            Err(e) => {
                eprintln!("failed {}: {e}", OP_NAMES[op as usize]);
                false
            }
        };
        self.record(op, ok);
        ok
    }

    /// `<op> <attempted> <failed>` per type, and `mismatched <n> 0`.
    pub fn lines(&self) -> Vec<String> {
        let mut v: Vec<String> = (0..4)
            .map(|i| {
                format!(
                    "{} {} {}",
                    OP_NAMES[i],
                    self.attempted[i].load(Ordering::Relaxed),
                    self.failed[i].load(Ordering::Relaxed)
                )
            })
            .collect();
        v.push(format!("mismatched {} 0", self.mismatched()));
        v
    }

    /// Adds counts printed by [`Ops::lines`].
    pub fn add(&self, op: &str, attempted: &str, failed: &str) -> Result<(), String> {
        let parse = |s: &str| s.parse::<u64>().map_err(|_| format!("bad count {s:?}"));
        let (a, f) = (parse(attempted)?, parse(failed)?);
        if op == "mismatched" {
            self.mismatched.fetch_add(a, Ordering::Relaxed);
            return Ok(());
        }
        let i = OP_NAMES
            .iter()
            .position(|n| *n == op)
            .ok_or_else(|| format!("unknown op {op:?}"))?;
        self.attempted[i].fetch_add(a, Ordering::Relaxed);
        self.failed[i].fetch_add(f, Ordering::Relaxed);
        Ok(())
    }

    pub fn totals(&self) -> (u64, u64) {
        let sum = |a: &[AtomicU64; 4]| a.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        (sum(&self.attempted), sum(&self.failed))
    }

    pub fn mismatched(&self) -> u64 {
        self.mismatched.load(Ordering::Relaxed)
    }

    pub fn summary(&self) -> String {
        (0..4)
            .map(|i| {
                format!(
                    "{} {}/{} failed",
                    OP_NAMES[i],
                    self.failed[i].load(Ordering::Relaxed),
                    self.attempted[i].load(Ordering::Relaxed)
                )
            })
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// Named metrics with their units, in print order.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, String)>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &str) {
        self.0.push((name.to_string(), value, unit.to_string()));
    }
}

/// What a run hands back: metrics, operation counts and problems found.
pub struct Outcome {
    pub metrics: Metrics,
    pub ops: Ops,
    /// Reasons the run is not correct (besides wrong answers).
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            metrics: Metrics::default(),
            ops: Ops::default(),
            problems: Vec::new(),
        }
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Label of the tree strategy `Auto` picked for a compiled model.
pub fn strategy_of(m: &CompiledModel) -> &'static str {
    m.report
        .iter()
        .find_map(|r| r.strategy)
        .map_or("none", TreeStrategy::label)
}

/// Checks that `Auto` picked the strategy each model must get under the
/// workload's options: GEMM, TT and PTT at batch 10K, GEMM at batch 1.
pub fn check_coverage(w: Workload, zoo: &Zoo, compiled: &[CompiledModel], out: &mut Outcome) {
    for (m, cm) in zoo.models.iter().zip(compiled) {
        let want = match w {
            Workload::OfflineBatch => m.algo.batch_strategy(),
            Workload::Record1 | Workload::ServeMixed => "GEMM",
        };
        let got = strategy_of(cm);
        if got != want {
            out.problems
                .push(format!("{}: Auto picked {got}, expected {want}", m.name));
        }
    }
}

/// Compiles every model with the workload's options (untimed).
pub fn compile_zoo(w: Workload, zoo: &Zoo) -> Vec<CompiledModel> {
    zoo.models
        .iter()
        .map(|m| compile(&m.pipeline, &w.compile_options()).expect("zoo model compiles"))
        .collect()
}

/// The serving stack a store workload runs on.
pub struct StoreStack {
    pub store: Arc<ModelStore>,
    pub supervisor: Option<Supervisor>,
}

/// What set-up produced.
pub enum Stack {
    Models(Vec<CompiledModel>),
    Store(StoreStack),
}

/// Builds the workload's stack and warms it: from the first compile or
/// register until every model has answered one request of each size the
/// workload sends (its own size, and 64 records). Returns the stack and
/// the wall time in seconds.
pub fn setup(w: Workload, zoo: &Zoo, ops: &Ops) -> (Stack, f64) {
    let start = Instant::now();
    let stack = match w {
        Workload::OfflineBatch => {
            let models = compile_zoo(w, zoo);
            for (mi, cm) in models.iter().enumerate() {
                let m = &zoo.models[mi];
                ops.scored(
                    Op::Batch,
                    cm.predict_proba(&zoo.data[m.data].rows),
                    &m.reference,
                );
                ops.scored(
                    Op::Predict64,
                    cm.predict_proba(&zoo.slice(m.data, 0, 64)),
                    &zoo.expected(mi, 0, 64),
                );
            }
            Stack::Models(models)
        }
        Workload::Record1 | Workload::ServeMixed => {
            let store = Arc::new(ModelStore::new(StoreConfig::default()));
            for m in &zoo.models {
                let ok = store.register(&m.name, &m.pipeline, w.serve_config());
                if let Err(e) = &ok {
                    eprintln!("register {} failed: {e}", m.name);
                }
            }
            let supervisor = (w == Workload::ServeMixed)
                .then(|| Supervisor::spawn_store(Arc::clone(&store), SERVE_WORKERS));
            for (mi, m) in zoo.models.iter().enumerate() {
                for rows in [1, 64] {
                    let x = zoo.slice(m.data, 0, rows);
                    let got = match &supervisor {
                        Some(s) => s.predict_for(&m.name, &x),
                        None => store.predict(&m.name, &x),
                    };
                    let op = if rows == 1 {
                        Op::Predict1
                    } else {
                        Op::Predict64
                    };
                    ops.scored(op, got, &zoo.expected(mi, 0, rows));
                }
            }
            Stack::Store(StoreStack { store, supervisor })
        }
    };
    (stack, start.elapsed().as_secs_f64())
}

/// Resident model bytes after warm-up.
pub fn mem_bytes(stack: &Stack) -> f64 {
    match stack {
        Stack::Models(models) => {
            let mut seen = std::collections::HashSet::new();
            models
                .iter()
                .map(|m| m.memory_footprint(&mut seen))
                .sum::<usize>() as f64
        }
        Stack::Store(s) => s.store.measured_bytes() as f64,
    }
}

/// Latency figures of the measurement loop.
pub struct LoopResult {
    pub latency_p50_us: f64,
    pub latency_tail_us: f64,
    pub throughput_rps: f64,
    pub speedup_vs_onnx: f64,
    /// Median and tail of 64-record requests, when the loop sends them.
    pub batch64_us: Option<(f64, f64)>,
    /// `(model, wall ms)` of each deploy, when the loop deploys.
    pub deploys: Vec<(usize, f64)>,
}

/// Prints each model's median time and its ONNX-ML-like median.
fn print_per_model(zoo: &Zoo, hb: &[Vec<f64>], reference: &[Vec<f64>]) {
    for (mi, m) in zoo.models.iter().enumerate() {
        eprintln!(
            "  {:14} {:>6} calls  median {:12.1} us  onnx-like {:10.1} us",
            m.name,
            hb[mi].len(),
            median(&hb[mi]),
            median(&reference[mi])
        );
    }
}

fn onnx_of(zoo: &Zoo) -> Vec<OnnxLikeForest> {
    zoo.models
        .iter()
        .map(|m| OnnxLikeForest::new(&m.ensemble).with_dispatch_overhead())
        .collect()
}

/// Runs `f` inside a span when tracing, else directly.
fn traced<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    request: u64,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => t.span(name, 0, request, |_| f()),
        None => f(),
    }
}

/// `offline_batch`: rounds over the zoo in a seeded order; each model
/// scores all its held-out rows in one call. The ONNX-ML-like scorer runs
/// on the identical rows right after each call.
pub fn offline_loop(
    zoo: &Zoo,
    models: &[CompiledModel],
    seed: u64,
    seconds: f64,
    ops: &Ops,
    tracer: Option<&Tracer>,
    mut side: Option<&mut SideProbes>,
) -> LoopResult {
    let n = zoo.models.len();
    let onnx = onnx_of(zoo);
    let mut rng = Rng::new(mix(seed, 0x0ff1));
    let mut hb = vec![Vec::new(); n];
    let mut reference = vec![Vec::new(); n];
    let start = Instant::now();
    let mut rounds = 0;
    let mut request = 0u64;
    while start.elapsed().as_secs_f64() < seconds || rounds < OFFLINE_MIN_ROUNDS {
        for mi in rng.permutation(n) {
            let m = &zoo.models[mi];
            let x = &zoo.data[m.data].rows;
            request += 1;
            let t = Instant::now();
            let got = traced(tracer, "CompiledModel::predict_proba", request, || {
                models[mi].predict_proba(x)
            });
            hb[mi].push(us(t.elapsed()));
            ops.scored(Op::Batch, got, &m.reference);
            let t = Instant::now();
            std::hint::black_box(onnx[mi].predict_batch(x));
            reference[mi].push(us(t.elapsed()));
            if let Some(p) = side.as_mut() {
                p.poll(ops);
            }
        }
        rounds += 1;
    }
    print_per_model(zoo, &hb, &reference);
    let pooled: Vec<f64> = hb.iter().flatten().copied().collect();
    let rows = zoo.data[0].rows.shape()[0] as f64;
    LoopResult {
        latency_p50_us: geomean(&hb.iter().map(|v| median(v)).collect::<Vec<_>>()),
        latency_tail_us: tail(&pooled, OFFLINE_TAIL, "offline_batch calls"),
        throughput_rps: geomean(
            &hb.iter()
                .map(|v| rows / (median(v) * 1e-6))
                .collect::<Vec<_>>(),
        ),
        speedup_vs_onnx: geomean(
            &(0..n)
                .map(|i| median(&reference[i]) / median(&hb[i]))
                .collect::<Vec<_>>(),
        ),
        batch64_us: None,
        deploys: Vec::new(),
    }
}

/// `record1`: one record per synchronous `ModelStore::predict`, models
/// visited round-robin in a seeded order, rows drawn from the seed. The
/// ONNX-ML-like scorer runs on the identical record right after each call.
pub fn record1_loop(
    zoo: &Zoo,
    store: &ModelStore,
    seed: u64,
    seconds: f64,
    ops: &Ops,
    tracer: Option<&Tracer>,
    mut side: Option<&mut SideProbes>,
) -> LoopResult {
    let n = zoo.models.len();
    let onnx = onnx_of(zoo);
    let mut rng = Rng::new(mix(seed, 0x4ec1));
    let order = rng.permutation(n);
    let mut hb = vec![Vec::new(); n];
    let mut reference = vec![Vec::new(); n];
    let start = Instant::now();
    let mut request = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        for &mi in &order {
            let m = &zoo.models[mi];
            let row = rng.below(HELD_OUT_ROWS);
            let x = zoo.slice(m.data, row, 1);
            request += 1;
            let t = Instant::now();
            let got = traced(tracer, "ModelStore::predict", request, || {
                store.predict(&m.name, &x)
            });
            hb[mi].push(us(t.elapsed()));
            ops.scored(Op::Predict1, got, &zoo.expected(mi, row, 1));
            let t = Instant::now();
            std::hint::black_box(onnx[mi].predict_batch(&x));
            reference[mi].push(us(t.elapsed()));
            if let Some(p) = side.as_mut() {
                p.poll(ops);
            }
        }
    }
    print_per_model(zoo, &hb, &reference);
    let total_s: f64 = hb.iter().flatten().sum::<f64>() * 1e-6;
    let count = hb.iter().map(Vec::len).sum::<usize>() as f64;
    LoopResult {
        latency_p50_us: geomean(&hb.iter().map(|v| median(v)).collect::<Vec<_>>()),
        latency_tail_us: geomean(
            &hb.iter()
                .map(|v| tail(v, RECORD1_TAIL, "record1 per-model latency"))
                .collect::<Vec<_>>(),
        ),
        throughput_rps: count / total_s,
        speedup_vs_onnx: geomean(
            &(0..n)
                .map(|i| median(&reference[i]) / median(&hb[i]))
                .collect::<Vec<_>>(),
        ),
        batch64_us: None,
        deploys: Vec::new(),
    }
}

/// One `serve_mixed` request as the client saw it.
struct Sample {
    model: usize,
    rows: usize,
    start_row: usize,
    us: f64,
    ok: bool,
}

/// The seeded request stream of one `serve_mixed` client.
pub struct RequestStream {
    rng: Rng,
    /// Cumulative Zipf(1.0) weights over `RANK_ORDER`.
    cdf: Vec<f64>,
    /// Zoo index of each rank.
    by_rank: Vec<usize>,
}

impl RequestStream {
    pub fn new(zoo: &Zoo, seed: u64, client: usize) -> RequestStream {
        let weights: Vec<f64> = (1..=RANK_ORDER.len()).map(|k| 1.0 / k as f64).collect();
        let total: f64 = weights.iter().sum();
        let cdf = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total;
                Some(*acc)
            })
            .collect();
        let by_rank = RANK_ORDER
            .iter()
            .map(|name| {
                zoo.models
                    .iter()
                    .position(|m| m.name == *name)
                    .expect("ranked model is in the zoo")
            })
            .collect();
        RequestStream {
            rng: Rng::new(mix(seed, 0x5e7 + client as u64)),
            cdf,
            by_rank,
        }
    }

    /// `(model, rows, start row)` of the next request.
    pub fn next_request(&mut self) -> (usize, usize, usize) {
        let u = self.rng.unit();
        let rank = self
            .cdf
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cdf.len() - 1);
        let rows = if self.rng.unit() < SERVE_BATCH64_SHARE {
            64
        } else {
            1
        };
        let start = self.rng.below(HELD_OUT_ROWS - rows + 1);
        (self.by_rank[rank], rows, start)
    }
}

/// The seeded deploy order: every model `rounds` times, each round in a
/// fresh permutation, so the set deployed is the same on every run.
pub fn deploy_order(zoo: &Zoo, seed: u64, rounds: usize) -> Vec<usize> {
    let mut rng = Rng::new(mix(seed, 0xde91));
    (0..rounds)
        .flat_map(|_| rng.permutation(zoo.models.len()))
        .collect()
}

/// Digest of the request and deploy schedule a seed gives.
pub fn digest_schedule(zoo: &Zoo, seed: u64, h: &mut Fnv) {
    for client in 0..SERVE_CLIENTS {
        let mut s = RequestStream::new(zoo, seed, client);
        for _ in 0..10_000 {
            let (m, r, st) = s.next_request();
            h.u64(((m as u64) << 48) | ((r as u64) << 32) | st as u64);
        }
    }
    for mi in deploy_order(zoo, seed, LOOP_DEPLOY_ROUNDS) {
        h.u64(mi as u64);
    }
    let mut rng = Rng::new(mix(seed, 0x4ec1));
    for v in rng.permutation(zoo.models.len()) {
        h.u64(v as u64);
    }
}

/// `serve_mixed`: one closed-loop client sends Zipf-popular requests
/// (90 % one record, 10 % 64 records) through the supervisor, while a
/// deployer ships identical retrains in the order `deploy_order` gives,
/// evenly spaced over the run, each behind the store's canary.
pub fn serve_loop(
    zoo: &Zoo,
    served: &StoreStack,
    seed: u64,
    seconds: f64,
    ops: &Ops,
    tracer: Option<&Tracer>,
) -> LoopResult {
    let sup = served
        .supervisor
        .as_ref()
        .expect("serve_mixed runs a supervisor");
    let samples: Mutex<Vec<Sample>> = Mutex::new(Vec::new());
    let deploys: Mutex<Vec<(usize, f64)>> = Mutex::new(Vec::new());
    let request_ids = AtomicU64::new(0);
    let running = AtomicUsize::new(SERVE_CLIENTS);
    let start = Instant::now();
    let wall = std::thread::scope(|s| {
        let clients: Vec<_> = (0..SERVE_CLIENTS)
            .map(|c| {
                let (samples, request_ids, running) = (&samples, &request_ids, &running);
                s.spawn(move || {
                    let mut stream = RequestStream::new(zoo, seed, c);
                    let mut mine = Vec::new();
                    while start.elapsed().as_secs_f64() < seconds {
                        let (mi, rows, start_row) = stream.next_request();
                        let m = &zoo.models[mi];
                        let x = zoo.slice(m.data, start_row, rows);
                        let id = request_ids.fetch_add(1, Ordering::Relaxed) + 1;
                        let t = Instant::now();
                        let got = traced(tracer, "Supervisor::predict_for", id, || {
                            sup.predict_for(&m.name, &x)
                        });
                        let dt = us(t.elapsed());
                        let op = if rows == 1 {
                            Op::Predict1
                        } else {
                            Op::Predict64
                        };
                        let ok = ops.scored(op, got, &zoo.expected(mi, start_row, rows));
                        if !ok {
                            eprintln!("  (request to {} for rows {start_row}..+{rows})", m.name);
                        }
                        mine.push(Sample {
                            model: mi,
                            rows,
                            start_row,
                            us: dt,
                            ok,
                        });
                    }
                    running.fetch_sub(1, Ordering::SeqCst);
                    samples.lock().expect("sample log poisoned").extend(mine);
                })
            })
            .collect();
        let deployer = {
            let (deploys, running) = (&deploys, &running);
            s.spawn(move || {
                let order = deploy_order(zoo, seed, LOOP_DEPLOY_ROUNDS);
                let slot = seconds / order.len() as f64;
                for (i, &mi) in order.iter().enumerate() {
                    let m = &zoo.models[mi];
                    let due = slot * (i as f64 + 0.5);
                    // Wait for the slot, and for the model's previous
                    // deployment to leave its canary.
                    while start.elapsed().as_secs_f64() < due || served.store.deploying(&m.name) {
                        if running.load(Ordering::SeqCst) == 0 {
                            return;
                        }
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    let t = Instant::now();
                    let got = traced(tracer, "ModelStore::deploy", 0, || {
                        served.store.deploy(
                            &m.name,
                            &m.pipeline.clone(),
                            Workload::ServeMixed.serve_config(),
                        )
                    });
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    deploys.lock().expect("deploy log poisoned").push((mi, ms));
                    if let Err(e) = &got {
                        eprintln!("deploy {} refused: {e}", m.name);
                    }
                    ops.record(Op::Deploy, got.is_ok());
                }
            })
        };
        for c in clients {
            c.join().expect("client thread panicked");
        }
        let wall = start.elapsed().as_secs_f64();
        deployer.join().expect("deployer thread panicked");
        wall
    });
    let samples = samples.into_inner().expect("sample log poisoned");
    let of_size = |rows: usize| -> Vec<(usize, f64)> {
        samples
            .iter()
            .filter(|s| s.rows == rows)
            .map(|s| (s.model, s.us))
            .collect()
    };
    let (single, batch64) = (of_size(1), of_size(64));
    let ok = samples.iter().filter(|s| s.ok).count() as f64;
    // ONNX-ML-like baseline: replay each model's first single-record
    // requests on the identical rows, after the loop.
    let onnx = onnx_of(zoo);
    let mut ratios = Vec::new();
    for (mi, f) in onnx.iter().enumerate() {
        let mine: Vec<&Sample> = samples
            .iter()
            .filter(|s| s.model == mi && s.rows == 1)
            .collect();
        if mine.is_empty() {
            continue;
        }
        let reference: Vec<f64> = mine
            .iter()
            .take(50)
            .map(|s| {
                let x = zoo.slice(zoo.models[mi].data, s.start_row, 1);
                let t = Instant::now();
                std::hint::black_box(f.predict_batch(&x));
                us(t.elapsed())
            })
            .collect();
        let hb: Vec<f64> = mine.iter().map(|s| s.us).collect();
        ratios.push(median(&reference) / median(&hb));
    }
    LoopResult {
        latency_p50_us: geomean_of_medians(&single),
        latency_tail_us: geomean_of_tails(&single, SERVE_TAIL, "serve_mixed per-model latency"),
        throughput_rps: ok / wall,
        speedup_vs_onnx: geomean(&ratios),
        batch64_us: Some((
            geomean_of_medians(&batch64),
            scaled_tail(&batch64, BATCH64_TAIL, "64-record requests"),
        )),
        deploys: deploys.into_inner().expect("deploy log poisoned"),
    }
}

/// The 64-record and deploy probes of the workloads whose loop sends
/// neither: a fixed, seeded set of calls spread evenly over the loop's
/// window, so they see the same machine as the loop instead of one short
/// burst after it.
pub struct SideProbes<'a> {
    zoo: &'a Zoo,
    stack: &'a Stack,
    w: Workload,
    /// Idle store built with the workload's options that takes the deploys.
    /// Its canary is off, so each deploy swaps at once and the next deploy
    /// of the same model is admitted.
    deploy_store: ModelStore,
    /// `(model, start row)` of each 64-record call, in order.
    calls: Vec<(usize, usize)>,
    deploys: Vec<usize>,
    start: Instant,
    window: f64,
    /// `(model, µs)` of each 64-record call made.
    pub batch64: Vec<(usize, f64)>,
    /// `(model, ms)` of each deploy made.
    pub deploy_ms: Vec<(usize, f64)>,
}

impl<'a> SideProbes<'a> {
    pub fn new(
        w: Workload,
        zoo: &'a Zoo,
        stack: &'a Stack,
        seed: u64,
        window: f64,
    ) -> SideProbes<'a> {
        let n = zoo.models.len();
        let mut rng = Rng::new(mix(seed, 0x64));
        let mut calls = Vec::new();
        for _ in 0..PROBE64_ROUNDS {
            for mi in rng.permutation(n) {
                calls.push((mi, rng.below(HELD_OUT_ROWS - 63)));
            }
        }
        let deploy_store = ModelStore::new(StoreConfig {
            canary_fraction: 0,
            ..StoreConfig::default()
        });
        for m in &zoo.models {
            deploy_store
                .register(&m.name, &m.pipeline, w.serve_config())
                .expect("zoo model registers");
        }
        SideProbes {
            zoo,
            stack,
            w,
            deploy_store,
            calls,
            deploys: deploy_order(zoo, seed, PROBE_DEPLOY_ROUNDS),
            start: Instant::now(),
            window,
            batch64: Vec::new(),
            deploy_ms: Vec::new(),
        }
    }

    /// Makes every probe call that is due by now.
    pub fn poll(&mut self, ops: &Ops) {
        self.run_until(self.start.elapsed().as_secs_f64(), ops);
    }

    /// Makes the probe calls a loop that ended early left outstanding.
    pub fn finish(&mut self, ops: &Ops) {
        self.run_until(f64::INFINITY, ops);
    }

    fn run_until(&mut self, now: f64, ops: &Ops) {
        let due = |i: usize, n: usize| self.window * (i as f64 + 0.5) / n as f64;
        while self.batch64.len() < self.calls.len()
            && due(self.batch64.len(), self.calls.len()) <= now
        {
            let (mi, start) = self.calls[self.batch64.len()];
            let m = &self.zoo.models[mi];
            let x = self.zoo.slice(m.data, start, 64);
            let t = Instant::now();
            let got = match self.stack {
                Stack::Models(models) => models[mi].predict_proba(&x).map_err(|e| e.to_string()),
                Stack::Store(s) => s.store.predict(&m.name, &x).map_err(|e| e.to_string()),
            };
            self.batch64.push((mi, us(t.elapsed())));
            ops.scored(Op::Predict64, got, &self.zoo.expected(mi, start, 64));
        }
        while self.deploy_ms.len() < self.deploys.len()
            && due(self.deploy_ms.len(), self.deploys.len()) <= now
        {
            let mi = self.deploys[self.deploy_ms.len()];
            let m = &self.zoo.models[mi];
            let t = Instant::now();
            let got = self
                .deploy_store
                .deploy(&m.name, &m.pipeline.clone(), self.w.serve_config());
            self.deploy_ms.push((mi, t.elapsed().as_secs_f64() * 1e3));
            if let Err(e) = &got {
                eprintln!("deploy {} refused: {e}", m.name);
            }
            ops.record(Op::Deploy, got.is_ok());
        }
    }
}

/// `(model, value)` samples grouped by model.
fn by_model(samples: &[(usize, f64)]) -> std::collections::BTreeMap<usize, Vec<f64>> {
    let mut by: std::collections::BTreeMap<usize, Vec<f64>> = Default::default();
    for &(mi, v) in samples {
        by.entry(mi).or_default().push(v);
    }
    by
}

/// Geometric mean over models of each model's median sample: a per-model
/// figure that does not depend on where the models' clusters meet.
pub fn geomean_of_medians(samples: &[(usize, f64)]) -> f64 {
    geomean(
        &by_model(samples)
            .values()
            .map(|v| median(v))
            .collect::<Vec<_>>(),
    )
}

/// Geometric mean over models of each model's `q` tail.
fn geomean_of_tails(samples: &[(usize, f64)], q: f64, what: &str) -> f64 {
    geomean(
        &by_model(samples)
            .values()
            .map(|v| tail(v, q, what))
            .collect::<Vec<_>>(),
    )
}

/// The `q` tail of every sample's ratio to its model's median, times the
/// geometric mean of the medians: the tail of a typical model, drawn from
/// all models' samples when each model has too few for a tail of its own.
fn scaled_tail(samples: &[(usize, f64)], q: f64, what: &str) -> f64 {
    let medians: std::collections::BTreeMap<usize, f64> = by_model(samples)
        .into_iter()
        .map(|(mi, v)| (mi, median(&v)))
        .collect();
    let ratios: Vec<f64> = samples.iter().map(|&(mi, v)| v / medians[&mi]).collect();
    geomean(&medians.into_values().collect::<Vec<_>>()) * tail(&ratios, q, what)
}

/// Runs the measurement loop of `w` on a warmed stack.
#[allow(clippy::too_many_arguments)]
pub fn run_loop(
    w: Workload,
    zoo: &Zoo,
    stack: &Stack,
    seed: u64,
    seconds: f64,
    ops: &Ops,
    tracer: Option<&Tracer>,
    side: Option<&mut SideProbes>,
) -> LoopResult {
    match (w, stack) {
        (Workload::OfflineBatch, Stack::Models(models)) => {
            offline_loop(zoo, models, seed, seconds, ops, tracer, side)
        }
        (Workload::Record1, Stack::Store(s)) => {
            record1_loop(zoo, &s.store, seed, seconds, ops, tracer, side)
        }
        (Workload::ServeMixed, Stack::Store(s)) => serve_loop(zoo, s, seed, seconds, ops, tracer),
        _ => unreachable!("set-up builds the stack its workload needs"),
    }
}

/// Incident counts by kind, for the report.
pub fn incident_summary(store: &ModelStore) -> String {
    let mut counts: std::collections::BTreeMap<String, usize> = Default::default();
    for i in store.incidents() {
        *counts.entry(format!("{:?}", i.kind)).or_default() += 1;
    }
    counts
        .iter()
        .map(|(k, n)| format!("{k} {n}"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Canary promotions and rollbacks the store has logged.
pub fn canary_outcomes(store: &ModelStore) -> (f64, f64) {
    let incidents = store.incidents();
    let count = |k: IncidentKind| incidents.iter().filter(|i| i.kind == k).count() as f64;
    (
        count(IncidentKind::Promoted),
        count(IncidentKind::RolledBack),
    )
}

/// The untraced run: every end-to-end metric of `w`.
pub fn untraced(w: Workload, zoo: &Zoo, seed: u64, seconds: f64, out: &mut Outcome) {
    let (stack, setup_s) = setup(w, zoo, &out.ops);
    match &stack {
        Stack::Models(models) => check_coverage(w, zoo, models, out),
        // The store does not expose its rungs: compile with the same options.
        Stack::Store(_) => check_coverage(w, zoo, &compile_zoo(w, zoo), out),
    }
    let mem = mem_bytes(&stack);
    let mut side =
        (w != Workload::ServeMixed).then(|| SideProbes::new(w, zoo, &stack, seed, seconds));
    let r = run_loop(w, zoo, &stack, seed, seconds, &out.ops, None, side.as_mut());
    let (b64_p50, b64_tail, deploys) = match side {
        Some(mut p) => {
            p.finish(&out.ops);
            let all: Vec<f64> = p.batch64.iter().map(|&(_, t)| t).collect();
            (
                geomean_of_medians(&p.batch64),
                tail(&all, BATCH64_TAIL, "64-record calls"),
                p.deploy_ms,
            )
        }
        None => {
            let (p50, t) = r.batch64_us.expect("serve_mixed sends 64-record requests");
            (p50, t, r.deploys)
        }
    };
    let m = &mut out.metrics;
    m.push("latency_p50_us", r.latency_p50_us, "us");
    m.push("latency_tail_us", r.latency_tail_us, "us");
    m.push("throughput_rps", r.throughput_rps, "1/s");
    m.push("speedup_vs_onnx", r.speedup_vs_onnx, "x");
    m.push("batch64_p50_us", b64_p50, "us");
    m.push("batch64_tail_us", b64_tail, "us");
    m.push("deploy_ms", geomean_of_medians(&deploys), "ms");
    m.push("mem_bytes", mem, "bytes");
    m.push("setup_s", setup_s, "s");
    if let Stack::Store(s) = &stack {
        if let Some(sup) = &s.supervisor {
            sup.drain();
        }
        eprintln!("incidents: {}", incident_summary(&s.store));
    }
}
