//! The traced run: per-layer metrics, measured from outside by timing
//! calls into each layer's public functions.
//!
//! * Compile: every phase a served model goes through is timed on its
//!   own (convert, optimize, one compile per rung, absint per rung,
//!   certify, plan per bucket), next to the wholes that contain them
//!   (`ServingModel::new`, `ModelStore::register`).
//! * Request path: the same inputs are issued at each nested entry point,
//!   from `Executable::run_with_stats` up to `Supervisor::predict_for`; a
//!   layer's self time is the difference between its level and the one
//!   below. Negative differences are reported as found, never clamped.
//! * The workload loop runs half its time untraced and half traced; the
//!   difference of the two p50s is the tracing overhead.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hummingbird::backend::{cost_certs, optimize, RunStats, COST_BUCKETS};
use hummingbird::compiler::CompiledModel;
use hummingbird::ml::baselines::OnnxLikeForest;
use hummingbird::prelude::*;
use hummingbird::serve::{ModelStore, StoreConfig, Supervisor};
use hummingbird::tensor::DynTensor;

use crate::stats::{geomean, mean, median};
use crate::trace::Tracer;
use crate::workloads::{
    canary_outcomes, check_coverage, compile_zoo, geomean_of_medians, run_loop, setup, strategy_of,
    Op, Outcome, Stack, Workload, SERVE_CLIENTS, SERVE_WORKERS,
};
use crate::zoo::{mix, Rng, Zoo, HELD_OUT_ROWS};

/// Calls per model and level in the batch-1 request-path decomposition.
const PATH_REPS: usize = 40;
/// Calls per model of `run_with_stats` at 64 rows.
const B64_REPS: usize = 20;
/// Timed calls per model at 10K rows (after one warm-up call).
const B10K_REPS: usize = 2;
/// Tail of the supervisor's queue-wait histogram.
const QUEUE_TAIL: f64 = 0.99;

/// Entry points of the request path, innermost first.
const LEVELS: [&str; 5] = [
    "Executable::run_with_stats",
    "CompiledModel::predict_proba",
    "ServingModel::predict_detailed",
    "ModelStore::predict",
    "Supervisor::predict_for",
];

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Times `f` inside a span with no parent.
fn timed<R>(
    tracer: &Tracer,
    name: &'static str,
    request: u64,
    f: impl FnOnce() -> R,
) -> (R, Duration) {
    timed_in(tracer, name, 0, request, f)
}

/// Times `f` inside a span under `parent`.
fn timed_in<R>(
    tracer: &Tracer,
    name: &'static str,
    parent: u64,
    request: u64,
    f: impl FnOnce() -> R,
) -> (R, Duration) {
    tracer.span(name, parent, request, |_| {
        let t = Instant::now();
        let r = f();
        (r, t.elapsed())
    })
}

/// One model at every level of the stack.
struct Levels {
    compiled: Vec<CompiledModel>,
    serving: Vec<ServingModel>,
    store: Arc<ModelStore>,
}

/// Compiles the zoo phase by phase, then builds the served wholes, and
/// reports each part with the sum of the parts against the whole.
fn compile_breakdown(w: Workload, zoo: &Zoo, tracer: &Tracer, out: &mut Outcome) -> Levels {
    let opts = w.compile_options();
    let with = |backend| CompileOptions {
        backend,
        ..opts.clone()
    };
    let (mut eager, mut script, mut compiled_ms, mut optimize_ms) = (0.0, 0.0, 0.0, 0.0);
    let (mut absint, mut certify, mut plan, mut arena) = (0.0, 0.0, 0.0, 0.0);
    let (mut before, mut after, mut fused) = (0.0, 0.0, 0.0);
    let (mut new_ms, mut register_ms) = (0.0, 0.0);
    let mut compiled = Vec::new();
    let mut serving = Vec::new();
    let store = Arc::new(ModelStore::new(StoreConfig::default()));
    for m in &zoo.models {
        let p = &m.pipeline;
        let build = |name, backend| {
            let (cm, d) = timed(tracer, name, 0, || compile(p, &with(backend)));
            (cm.expect("zoo model compiles"), ms(d))
        };
        let (e, d) = build("compile:eager", Backend::Eager);
        eager += d;
        let (s, d) = build("compile:script", Backend::Script);
        script += d;
        let (c, d) = build("compile:compiled", Backend::Compiled);
        compiled_ms += d;
        let ((_, stats), d) = timed(tracer, "optimize::optimize", 0, || {
            optimize::optimize(e.executable().graph())
        });
        optimize_ms += ms(d);
        before += stats.nodes_before as f64;
        after += stats.nodes_after as f64;
        fused += stats.fused_kernels as f64;
        for rung in [&c, &s, &e] {
            let (facts, d) = timed(tracer, "output_value_facts", 0, || {
                rung.output_value_facts()
            });
            facts.expect("verified graph has value facts");
            absint += ms(d);
        }
        let graph = c.executable().graph();
        let (_, d) = timed(tracer, "cost_certs", 0, || cost_certs(graph, &COST_BUCKETS));
        certify += ms(d);
        for b in COST_BUCKETS {
            let (_, d) = timed(tracer, "plan_for_batch", 0, || {
                c.executable().plan_for_batch(b)
            });
            plan += ms(d);
        }
        if let Ok(p) = c.executable().plan_for_batch(w.primary_batch()) {
            arena += p.arena_bytes as f64;
        }
        let (sm, d) = timed(tracer, "ServingModel::new", 0, || {
            ServingModel::new(p, w.serve_config())
        });
        new_ms += ms(d);
        serving.push(sm.expect("zoo model serves"));
        let (r, d) = timed(tracer, "ModelStore::register", 0, || {
            store.register(&m.name, p, w.serve_config())
        });
        register_ms += ms(d);
        if let Err(e) = r {
            out.problems.push(format!("register {}: {e}", m.name));
        }
        compiled.push(c);
    }
    check_coverage(w, zoo, &compiled, out);
    let count = |label: &str| compiled.iter().filter(|c| strategy_of(c) == label).count() as f64;
    let parts = eager + script + compiled_ms + absint + certify;
    eprintln!("compile phases over the zoo (ms), per rung:");
    eprintln!("  compiled {compiled_ms:9.2}  (optimize {optimize_ms:.2} of it)");
    eprintln!("  script   {script:9.2}");
    eprintln!("  eager    {eager:9.2}  (= convert)");
    eprintln!("  absint   {absint:9.2}  (all three rungs)");
    eprintln!("  certify  {certify:9.2}  (compiled rung; plan {plan:.2} timed apart)");
    eprintln!(
        "  parts {parts:.2} vs ServingModel::new {new_ms:.2} ({:+.2}) vs ModelStore::register {register_ms:.2}",
        new_ms - parts
    );
    let mm = &mut out.metrics;
    mm.push("core.convert_ms", eager, "ms");
    mm.push("core.strategy_gemm", count("GEMM"), "count");
    mm.push("core.strategy_tt", count("TT"), "count");
    mm.push("core.strategy_ptt", count("PTT"), "count");
    mm.push("compile.script_ms", script, "ms");
    mm.push("compile.compiled_ms", compiled_ms, "ms");
    mm.push("backend.optimize_ms", optimize_ms, "ms");
    mm.push("backend.nodes_before", before, "count");
    mm.push("backend.nodes_after", after, "count");
    mm.push("backend.fused_kernels", fused, "count");
    mm.push("backend.absint_ms", absint, "ms");
    mm.push("backend.certify_ms", certify, "ms");
    mm.push("backend.plan_ms", plan, "ms");
    mm.push("backend.arena_bytes", arena, "bytes");
    mm.push("compile.parts_ms", parts, "ms");
    mm.push("serve.new_ms", new_ms, "ms");
    mm.push("compile.unaccounted_ms", new_ms - parts, "ms");
    mm.push("store.register_ms", register_ms, "ms");
    Levels {
        compiled,
        serving,
        store,
    }
}

fn run_stats(cm: &CompiledModel, x: &Tensor<f32>) -> RunStats {
    cm.executable()
        .run_with_stats(&[DynTensor::F32(x.clone())])
        .expect("warm executable runs")
        .1
}

/// Calls entry point `LEVELS[level]` for model `mi`; the innermost level
/// also hands back its run statistics.
fn call_level(
    lv: &Levels,
    sup: &Supervisor,
    level: usize,
    mi: usize,
    name: &str,
    x: &Tensor<f32>,
    stats: &mut Vec<RunStats>,
) -> Result<Tensor<f32>, String> {
    match level {
        0 => {
            let (out, s) = lv.compiled[mi]
                .executable()
                .run_with_stats(&[DynTensor::F32(x.clone())])
                .map_err(|e| e.to_string())?;
            stats.push(s);
            Ok(out.into_iter().next().expect("one output").as_f32().clone())
        }
        1 => lv.compiled[mi].predict_proba(x).map_err(|e| e.to_string()),
        2 => lv.serving[mi]
            .predict_detailed(x)
            .map(|s| s.output)
            .map_err(|e| e.to_string()),
        3 => lv.store.predict(name, x).map_err(|e| e.to_string()),
        _ => sup.predict_for(name, x).map_err(|e| e.to_string()),
    }
}

/// Issues the same batch-1 inputs at every level; returns, per level, the
/// per-model medians in µs, and the warm batch-1 run statistics.
fn request_path(
    zoo: &Zoo,
    lv: &Levels,
    sup: &Supervisor,
    seed: u64,
    tracer: &Tracer,
    out: &mut Outcome,
) -> (Vec<Vec<f64>>, Vec<RunStats>) {
    let n = zoo.models.len();
    let mut samples = vec![vec![Vec::new(); n]; LEVELS.len()];
    let mut stats = Vec::new();
    let mut rng = Rng::new(mix(seed, 0x1a7e));
    let mut request = 0u64;
    for rep in 0..=PATH_REPS {
        for mi in rng.permutation(n) {
            let m = &zoo.models[mi];
            let row = rng.below(HELD_OUT_ROWS);
            let x = zoo.slice(m.data, row, 1);
            let want = zoo.expected(mi, row, 1);
            request += 1;
            // A seeded level order per request, so no level always runs
            // first on a cold row.
            let order = rng.permutation(LEVELS.len());
            tracer.span("request", 0, request, |parent| {
                for level in order {
                    let (got, d) = timed_in(tracer, LEVELS[level], parent, request, || {
                        call_level(lv, sup, level, mi, &m.name, &x, &mut stats)
                    });
                    out.ops.scored(Op::Predict1, got, &want);
                    // Repetition 0 is the warm-up: first-sighting plans.
                    if rep > 0 {
                        samples[level][mi].push(us(d));
                    }
                }
            });
        }
    }
    let medians = samples
        .iter()
        .map(|per_model| per_model.iter().map(|v| median(v)).collect())
        .collect();
    let warm = stats.into_iter().skip(n).collect();
    (medians, warm)
}

/// Share of warm batch-1 runs served from a memory plan when `threads`
/// callers run the same executables at once (the workload's concurrency).
fn planned_ratio(zoo: &Zoo, compiled: &[CompiledModel], threads: usize) -> f64 {
    let rows: Vec<Tensor<f32>> = zoo.models.iter().map(|m| zoo.slice(m.data, 0, 1)).collect();
    let (planned, total) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut planned = 0usize;
                    for _ in 0..PATH_REPS {
                        for (cm, x) in compiled.iter().zip(&rows) {
                            planned += usize::from(run_stats(cm, x).planned);
                        }
                    }
                    planned
                })
            })
            .collect();
        let planned: usize = handles
            .into_iter()
            .map(|h| h.join().expect("planned-ratio thread panicked"))
            .sum();
        (planned, threads * PATH_REPS * compiled.len())
    });
    planned as f64 / total as f64
}

/// Geomean over models of the median `run_with_stats` time at `rows` rows,
/// with the warm run statistics.
fn exec_at(
    zoo: &Zoo,
    compiled: &[CompiledModel],
    rows: usize,
    reps: usize,
    tracer: &Tracer,
) -> (f64, Vec<RunStats>) {
    let mut per_model = Vec::new();
    let mut stats = Vec::new();
    for (mi, cm) in compiled.iter().enumerate() {
        let x = zoo.slice(zoo.models[mi].data, 0, rows);
        run_stats(cm, &x);
        let mut t = Vec::new();
        for _ in 0..reps {
            let (s, d) = timed(tracer, "Executable::run_with_stats", 0, || {
                run_stats(cm, &x)
            });
            t.push(us(d));
            stats.push(s);
        }
        per_model.push(median(&t));
    }
    (geomean(&per_model), stats)
}

/// Median ONNX-ML-like time per model on `rows` held-out rows, in µs.
fn onnx_at(zoo: &Zoo, rows: usize, reps: usize, tracer: &Tracer) -> Vec<f64> {
    zoo.models
        .iter()
        .map(|m| {
            let f = OnnxLikeForest::new(&m.ensemble).with_dispatch_overhead();
            let x = zoo.slice(m.data, 0, rows);
            let t: Vec<f64> = (0..reps)
                .map(|_| {
                    us(timed(tracer, "OnnxLikeForest::predict_batch", 0, || {
                        f.predict_batch(&x)
                    })
                    .1)
                })
                .collect();
            median(&t)
        })
        .collect()
}

pub fn traced(
    w: Workload,
    zoo: &Zoo,
    seed: u64,
    seconds: f64,
    dir: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let tracer = Tracer::new();
    let lv = compile_breakdown(w, zoo, &tracer, out);
    let sup = Supervisor::spawn_store(Arc::clone(&lv.store), SERVE_WORKERS);

    // Request path at batch 1.
    let (levels, b1_stats) = request_path(zoo, &lv, &sup, seed, &tracer, out);
    let self_time = |level: usize| {
        let d = mean(
            &levels[level]
                .iter()
                .zip(&levels[level - 1])
                .map(|(a, b)| a - b)
                .collect::<Vec<_>>(),
        );
        if d < 0.0 {
            eprintln!(
                "finding: {} costs {d:.2} us less than {} on the same inputs",
                LEVELS[level],
                LEVELS[level - 1]
            );
        }
        d
    };
    let mm = &mut out.metrics;
    mm.push("exec.run_b1_us", geomean(&levels[0]), "us");
    mm.push("core.predict_self_us", self_time(1), "us");
    mm.push("serve.ladder_self_us", self_time(2), "us");
    mm.push("store.self_us", self_time(3), "us");
    mm.push("supervisor.hop_self_us", self_time(4), "us");

    // Executor at 64 and 10K rows; 10K rows always on the batch
    // configuration, where it is the workload's call.
    let (b64, _) = exec_at(zoo, &lv.compiled, 64, B64_REPS, &tracer);
    let batch = match w {
        Workload::OfflineBatch => None,
        _ => Some(compile_zoo(Workload::OfflineBatch, zoo)),
    };
    let batch_models = batch.as_deref().unwrap_or(&lv.compiled);
    let (b10k, b10k_stats) = exec_at(zoo, batch_models, HELD_OUT_ROWS, B10K_REPS, &tracer);
    let primary = if w == Workload::OfflineBatch {
        &b10k_stats
    } else {
        &b1_stats
    };
    let rows = w.primary_batch() as f64;
    let flops: f64 = primary.iter().map(|s| s.flops).sum();
    let wall: f64 = primary.iter().map(|s| s.wall.as_secs_f64()).sum();
    let threads = if w == Workload::ServeMixed {
        SERVE_CLIENTS
    } else {
        1
    };
    let mm = &mut out.metrics;
    mm.push("exec.run_b64_us", b64, "us");
    mm.push("exec.run_b10k_us", b10k, "us");
    mm.push(
        "exec.launches_per_run",
        mean(
            &primary
                .iter()
                .map(|s| s.kernel_launches as f64)
                .collect::<Vec<_>>(),
        ),
        "count",
    );
    mm.push(
        "exec.allocs_per_run",
        mean(
            &primary
                .iter()
                .map(|s| s.allocations as f64)
                .collect::<Vec<_>>(),
        ),
        "count",
    );
    mm.push(
        "exec.planned_ratio",
        planned_ratio(zoo, &lv.compiled, threads),
        "ratio",
    );
    mm.push("exec.gflops_computed", flops / wall / 1e9, "GFLOP/s");
    mm.push(
        "exec.bytes_per_row_computed",
        mean(&primary.iter().map(|s| s.bytes / rows).collect::<Vec<_>>()),
        "bytes",
    );

    // Reference scorer: the denominator of `speedup_vs_onnx`.
    let onnx_primary = onnx_at(
        zoo,
        w.primary_batch(),
        if rows > 1.0 { B10K_REPS } else { PATH_REPS },
        &tracer,
    );
    let onnx_10k = match w {
        Workload::OfflineBatch => onnx_primary.clone(),
        _ => onnx_at(zoo, HELD_OUT_ROWS, B10K_REPS, &tracer),
    };
    mm.push("ref.onnx_us", geomean(&onnx_primary), "us");
    mm.push(
        "ref.onnx_rows_per_s",
        geomean(
            &onnx_10k
                .iter()
                .map(|t| HELD_OUT_ROWS as f64 / (t * 1e-6))
                .collect::<Vec<_>>(),
        ),
        "1/s",
    );

    // Deploys into the decomposition store, then enough traffic for the
    // canary to decide on each.
    let deploys: Vec<(usize, f64)> = zoo
        .models
        .iter()
        .enumerate()
        .map(|(mi, m)| {
            let (r, d) = timed(&tracer, "ModelStore::deploy", 0, || {
                lv.store
                    .deploy(&m.name, &m.pipeline.clone(), w.serve_config())
            });
            out.ops.record(Op::Deploy, r.is_ok());
            (mi, ms(d))
        })
        .collect();
    for (mi, m) in zoo.models.iter().enumerate() {
        let x = zoo.slice(m.data, 0, 1);
        let want = zoo.expected(mi, 0, 1);
        for _ in
            0..StoreConfig::default().promote_after * StoreConfig::default().canary_fraction as u64
        {
            out.ops
                .scored(Op::Predict1, lv.store.predict(&m.name, &x), &want);
        }
    }
    out.metrics
        .push("store.deploy_build_ms", geomean_of_medians(&deploys), "ms");

    // The workload loop: half untraced, half traced, on the workload's own
    // stack and the same request stream. Its store (if any) supplies the
    // store and supervisor figures.
    let (stack, _) = setup(w, zoo, &out.ops);
    let plain = run_loop(w, zoo, &stack, seed, seconds / 2.0, &out.ops, None, None);
    let spans_before = tracer.len();
    let traced = run_loop(
        w,
        zoo,
        &stack,
        seed,
        seconds / 2.0,
        &out.ops,
        Some(&tracer),
        None,
    );
    let mm = &mut out.metrics;
    mm.push(
        "trace.overhead_us",
        traced.latency_p50_us - plain.latency_p50_us,
        "us",
    );
    mm.push(
        "trace.loop_spans",
        (tracer.len() - spans_before) as f64,
        "count",
    );
    let (store, loop_sup) = match &stack {
        Stack::Store(s) => (&*s.store, s.supervisor.as_ref()),
        Stack::Models(_) => (&*lv.store, None),
    };
    let (mut served, mut degraded) = (0, 0);
    for (_, _, h) in store.healths() {
        served += h.stats.total_served();
        degraded += h.stats.degraded;
    }
    let latency = loop_sup.unwrap_or(&sup).latency();
    // A store whose loop deployed nothing takes its canary outcomes from
    // the decomposition store, which deployed every model.
    let deploy_store = if w == Workload::ServeMixed {
        store
    } else {
        &*lv.store
    };
    let (promotions, rollbacks) = canary_outcomes(deploy_store);
    mm.push(
        "serve.degraded_ratio",
        degraded as f64 / served.max(1) as f64,
        "ratio",
    );
    mm.push(
        "store.measured_bytes",
        store.measured_bytes() as f64,
        "bytes",
    );
    mm.push("store.pool_entries", store.pool_entries() as f64, "count");
    mm.push("store.promotions", promotions, "count");
    mm.push("store.rollbacks", rollbacks, "count");
    mm.push(
        "supervisor.queue_wait_p50_us",
        us(latency.queue_wait.quantile(0.5)),
        "us",
    );
    mm.push(
        "supervisor.queue_wait_tail_us",
        us(latency.queue_wait.quantile(QUEUE_TAIL)),
        "us",
    );
    mm.push(
        "supervisor.e2e_p50_us",
        us(latency.end_to_end.quantile(0.5)),
        "us",
    );
    mm.push(
        "tensor.tuned_classes",
        hummingbird::tensor::tune::tuned_snapshot().len() as f64,
        "count",
    );
    if let Some(s) = loop_sup {
        s.drain();
    }
    sup.drain();
    tracer
        .write(&dir.join("spans.tsv"))
        .map_err(|e| format!("writing spans: {e}"))?;
    out.metrics
        .push("trace.spans", tracer.len() as f64, "count");
    Ok(())
}
