//! Static memory planner validation: planned (arena-backed) execution
//! must be *bit-identical* to the reference-counted executor for every
//! tree strategy and full pipelines, plans must be deterministic, and
//! warm compiled inference must reach a zero-allocation steady state.

use hummingbird::backend::{Backend, Device, Executable};
use hummingbird::compiler::{compile, CompileOptions, TreeStrategy};
use hummingbird::ml::ensemble::{Aggregation, Link, TreeEnsemble};
use hummingbird::ml::tree::Tree;
use hummingbird::pipeline::{fit_pipeline, OpSpec, Pipeline, Targets};
use hummingbird::tensor::{DynTensor, Tensor};

/// Deterministic xorshift in [0, 1).
fn make_rand(seed: u64) -> impl FnMut() -> f32 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 40) as f32 / (1u64 << 24) as f32
    }
}

/// Builds a random binary tree of at most `depth` with `value_width`
/// leaf payloads (same builder as the strategy-equivalence suite).
fn random_tree(
    depth: usize,
    n_features: usize,
    value_width: usize,
    rand: &mut impl FnMut() -> f32,
) -> Tree {
    fn build(
        depth: usize,
        n_features: usize,
        value_width: usize,
        rand: &mut impl FnMut() -> f32,
        tree: &mut Tree,
    ) -> i32 {
        let id = tree.left.len();
        tree.left.push(-1);
        tree.right.push(-1);
        tree.feature.push(0);
        tree.threshold.push(0.0);
        for _ in 0..value_width {
            tree.values.push(rand() * 2.0 - 1.0);
        }
        if depth > 0 && rand() < 0.7 {
            let f = ((rand() * n_features as f32) as usize).min(n_features - 1);
            let l = build(depth - 1, n_features, value_width, rand, tree);
            let r = build(depth - 1, n_features, value_width, rand, tree);
            tree.left[id] = l;
            tree.right[id] = r;
            tree.feature[id] = f as u32;
            tree.threshold[id] = rand() * 2.0 - 1.0;
        }
        id as i32
    }
    let mut tree = Tree {
        left: vec![],
        right: vec![],
        feature: vec![],
        threshold: vec![],
        values: vec![],
        value_width,
    };
    build(depth, n_features, value_width, rand, &mut tree);
    tree
}

fn forest_pipeline(seed: u64, n_features: usize, n_classes: usize) -> Pipeline {
    let mut rand = make_rand(seed);
    let trees: Vec<Tree> = (0..8)
        .map(|_| random_tree(5, n_features, n_classes, &mut rand))
        .collect();
    Pipeline::from_op(TreeEnsemble {
        trees,
        n_features,
        n_classes,
        agg: Aggregation::AverageProba,
    })
}

fn batch(seed: u64, n_rows: usize, n_features: usize) -> Tensor<f32> {
    let mut rand = make_rand(seed);
    Tensor::from_fn(&[n_rows, n_features], |_| rand() * 2.0 - 1.0)
}

/// Runs the model through both executors on identical inputs and
/// asserts bit-identical outputs; returns true once a run was served
/// from a warm plan.
fn assert_planned_bitwise_identical(pipe: &Pipeline, strategy: TreeStrategy, x: &Tensor<f32>) {
    let opts = CompileOptions {
        tree_strategy: strategy,
        optimize_pipeline: false,
        ..Default::default()
    };
    let model = compile(pipe, &opts).expect("compile");
    let exe = model.executable();
    let inputs = [DynTensor::F32(x.clone())];
    let (want, ref_stats) = exe.run_refcount_with_stats(&inputs).expect("refcount run");
    assert!(!ref_stats.planned, "refcount path must not report planned");
    // First sighting builds + caches the plan but serves refcount;
    // subsequent runs must come from the warm arena plan.
    let mut saw_planned = false;
    for run in 0..3 {
        let (got, stats) = exe.run_with_stats(&inputs).expect("planned run");
        if run > 0 {
            assert!(
                stats.planned,
                "{}: warm run {run} not served from plan cache",
                strategy.label()
            );
        }
        saw_planned |= stats.planned;
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want.iter()) {
            assert_eq!(
                g.as_f32().to_vec(),
                w.as_f32().to_vec(),
                "{}: planned output diverges bitwise from refcount",
                strategy.label()
            );
        }
    }
    assert!(saw_planned, "{}: plan never engaged", strategy.label());
}

#[test]
fn planned_execution_bit_identical_gemm() {
    let pipe = forest_pipeline(0x5eed_0001, 10, 3);
    let x = batch(0xfeed_0001, 17, 10);
    assert_planned_bitwise_identical(&pipe, TreeStrategy::Gemm, &x);
}

#[test]
fn planned_execution_bit_identical_tree_traversal() {
    let pipe = forest_pipeline(0x5eed_0002, 10, 3);
    let x = batch(0xfeed_0002, 17, 10);
    assert_planned_bitwise_identical(&pipe, TreeStrategy::TreeTraversal, &x);
}

#[test]
fn planned_execution_bit_identical_perfect_tree_traversal() {
    let pipe = forest_pipeline(0x5eed_0003, 10, 3);
    let x = batch(0xfeed_0003, 17, 10);
    assert_planned_bitwise_identical(&pipe, TreeStrategy::PerfectTreeTraversal, &x);
}

#[test]
fn planned_execution_bit_identical_e2e_pipeline() {
    // Full featurizer + model pipeline through the pipeline optimizer:
    // the planner must survive fused / rewritten graphs too.
    let n = 120;
    let d = 8;
    let x = Tensor::from_fn(&[n, d], |i| {
        let cls = (i[0] % 3) as f32;
        cls * 1.3 + ((i[0] * 13 + i[1] * 7) % 11) as f32 * 0.25 - 1.0
    });
    let y = Targets::Classes((0..n).map(|i| (i % 3) as i64).collect());
    let pipe = fit_pipeline(
        &[
            OpSpec::StandardScaler,
            OpSpec::RandomForestClassifier(Default::default()),
        ],
        &x,
        &y,
    );
    let model = compile(&pipe, &CompileOptions::default()).expect("compile");
    let exe = model.executable();
    let inputs = [DynTensor::F32(batch(0xfeed_0004, 33, d))];
    let (want, _) = exe.run_refcount_with_stats(&inputs).expect("refcount run");
    for _ in 0..3 {
        let (got, _) = exe.run_with_stats(&inputs).expect("planned run");
        for (g, w) in got.iter().zip(want.iter()) {
            assert_eq!(g.as_f32().to_vec(), w.as_f32().to_vec());
        }
    }
}

#[test]
fn warm_compiled_runs_make_zero_allocations() {
    // All three strategies must reach the allocation-free steady state —
    // TT/PTT exercise the strided gather/compare kernels that used to
    // materialize transposed cursor views every run.
    for strategy in [
        TreeStrategy::Gemm,
        TreeStrategy::TreeTraversal,
        TreeStrategy::PerfectTreeTraversal,
    ] {
        let pipe = forest_pipeline(0x5eed_0005, 12, 4);
        let opts = CompileOptions {
            tree_strategy: strategy,
            optimize_pipeline: false,
            ..Default::default()
        };
        let model = compile(&pipe, &opts).expect("compile");
        let exe = model.executable();
        let inputs = [DynTensor::F32(batch(0xfeed_0005, 64, 12))];
        // Run 1 builds the plan (refcount), run 2 warms up any lazy state,
        // run 3 must be the zero-allocation steady state.
        let mut last = None;
        for _ in 0..3 {
            let (_, stats) = exe.run_with_stats(&inputs).expect("run");
            last = Some(stats);
        }
        let stats = last.expect("ran");
        assert!(stats.planned, "{strategy:?}: steady-state run not planned");
        assert!(
            stats.arena_bytes > 0,
            "{strategy:?}: planned run reports no arena"
        );
        assert_eq!(
            stats.allocations, 0,
            "{strategy:?}: steady-state compiled inference must perform \
             zero tensor heap allocations"
        );
    }
}

#[test]
fn planned_peak_memory_beats_refcount() {
    // Acceptance criterion: on a GEMM forest the arena's liveness-based
    // reuse must cut peak tensor bytes by >= 30% vs the refcount path.
    let pipe = forest_pipeline(0x5eed_0006, 16, 3);
    let opts = CompileOptions {
        tree_strategy: TreeStrategy::Gemm,
        optimize_pipeline: false,
        ..Default::default()
    };
    let model = compile(&pipe, &opts).expect("compile");
    let exe = model.executable();
    let inputs = [DynTensor::F32(batch(0xfeed_0006, 1000, 16))];
    let (want, ref_stats) = exe.run_refcount_with_stats(&inputs).expect("refcount");
    let mut planned_stats = None;
    for _ in 0..2 {
        let (got, stats) = exe.run_with_stats(&inputs).expect("run");
        for (g, w) in got.iter().zip(want.iter()) {
            assert_eq!(g.as_f32().to_vec(), w.as_f32().to_vec());
        }
        planned_stats = Some(stats);
    }
    let planned = planned_stats.expect("ran");
    assert!(planned.planned);
    assert!(
        planned.peak_tensor_bytes * 10 <= ref_stats.peak_tensor_bytes * 7,
        "planned peak {} not >=30% below refcount peak {}",
        planned.peak_tensor_bytes,
        ref_stats.peak_tensor_bytes
    );
}

#[test]
fn plans_are_deterministic_per_batch_size() {
    let pipe = forest_pipeline(0x5eed_0007, 10, 3);
    let opts = CompileOptions {
        tree_strategy: TreeStrategy::Gemm,
        optimize_pipeline: false,
        ..Default::default()
    };
    let model = compile(&pipe, &opts).expect("compile");
    let exe = model.executable();
    let a = exe.plan_for_batch(64).expect("plan");
    let b = exe.plan_for_batch(64).expect("plan again");
    assert_eq!(a, b, "same batch size must produce identical plans");
    assert!(a.planned_kernels > 0, "no kernels planned");
    assert!(
        a.arena_bytes <= a.naive_bytes,
        "arena {} exceeds naive sum {}",
        a.arena_bytes,
        a.naive_bytes
    );
}

#[test]
fn plan_cache_serves_multiple_batch_sizes() {
    let pipe = forest_pipeline(0x5eed_0008, 10, 3);
    let opts = CompileOptions {
        tree_strategy: TreeStrategy::Gemm,
        optimize_pipeline: false,
        ..Default::default()
    };
    let model = compile(&pipe, &opts).expect("compile");
    let exe = model.executable();
    for rows in [8usize, 16, 8, 16, 8] {
        let inputs = [DynTensor::F32(batch(0xfeed_0008 + rows as u64, rows, 10))];
        let (want, _) = exe.run_refcount_with_stats(&inputs).expect("refcount");
        let (got, _) = exe.run_with_stats(&inputs).expect("run");
        for (g, w) in got.iter().zip(want.iter()) {
            assert_eq!(g.as_f32().to_vec(), w.as_f32().to_vec());
        }
    }
}

#[test]
fn eager_and_script_backends_stay_on_refcount_path() {
    let pipe = forest_pipeline(0x5eed_0009, 10, 3);
    for backend in [Backend::Eager, Backend::Script] {
        let opts = CompileOptions {
            backend,
            optimize_pipeline: false,
            ..Default::default()
        };
        let model = compile(&pipe, &opts).expect("compile");
        let exe = model.executable();
        let inputs = [DynTensor::F32(batch(0xfeed_0009, 12, 10))];
        for _ in 0..3 {
            let (_, stats) = exe.run_with_stats(&inputs).expect("run");
            assert!(!stats.planned, "{backend:?} must never use the arena plan");
        }
    }
}

#[test]
fn optimized_pipeline_with_injected_selector_still_plans() {
    // §5.2 feature-selection injection prepends a FeatureSelector to the
    // pipeline; width tracking must survive it (the selector carries its
    // fit-time input width) so the compiler still declares a concrete
    // [B, width] input fact and the planner is not defeated. Trees built
    // over 12 features rarely use all of them at depth 5, so injection
    // fires for this seed.
    let pipe = forest_pipeline(0x5eed_000a, 12, 3);
    let opts = CompileOptions {
        optimize_pipeline: true,
        ..Default::default()
    };
    let model = compile(&pipe, &opts).expect("compile");
    let exe = model.executable();
    let inputs = [DynTensor::F32(batch(0xfeed_000a, 48, 12))];
    let (want, _) = exe.run_refcount_with_stats(&inputs).expect("refcount");
    let mut planned = false;
    for _ in 0..3 {
        let (got, stats) = exe.run_with_stats(&inputs).expect("run");
        for (g, w) in got.iter().zip(want.iter()) {
            assert_eq!(g.as_f32().to_vec(), w.as_f32().to_vec());
        }
        planned |= stats.planned;
    }
    assert!(
        planned,
        "optimize_pipeline: true must not defeat the memory planner"
    );
}

/// A LightGBM-like multiclass booster: `rounds` rounds of one depth-5
/// tree per class, summed per class, softmax link.
fn softmax_booster_pipeline(seed: u64, n_features: usize, classes: usize) -> Pipeline {
    let mut rand = make_rand(seed);
    let rounds = 3;
    let trees: Vec<Tree> = (0..rounds * classes)
        .map(|_| random_tree(5, n_features, 1, &mut rand))
        .collect();
    Pipeline::from_op(TreeEnsemble {
        trees,
        n_features,
        n_classes: classes,
        agg: Aggregation::SumWithLink {
            base: vec![0.0; classes],
            link: Link::Softmax,
            n_groups: classes,
        },
    })
}

/// Runs 40 single-row requests, keeping every answer until the end, and
/// checks each kept answer bitwise against the Eager reference.
fn run_keeping_answers(exe: &Executable, rows: &[DynTensor], want: &[Vec<u32>], who: &str) {
    let mut kept = Vec::with_capacity(rows.len());
    for row in rows {
        kept.push(exe.run(std::slice::from_ref(row)).expect("planned run"));
    }
    for (r, out) in kept.iter().enumerate() {
        let got: Vec<u32> = out[0]
            .as_f32()
            .to_vec()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(got, want[r], "{who}: kept answer {r} differs from Eager");
    }
}

/// Regression: a caller that keeps its answers pins the output's arena
/// slot across runs. A later run whose in-place step needs that slot
/// (here as the GEMM panel scratch, the softmax output slot) must get a
/// fresh buffer and still run inside its slots. Computing outside the
/// slot instead left the next in-place step reading stale data.
#[test]
fn kept_answers_never_corrupt_later_planned_runs() {
    let (features, classes, n) = (54, 7, 40);
    let pipe = softmax_booster_pipeline(0x5eed_0729, features, classes);
    let opts = CompileOptions {
        device: Device::cpu1(),
        expected_batch: 1,
        optimize_pipeline: false,
        ..Default::default()
    };
    let model = compile(&pipe, &opts).expect("compile");
    let eager = compile(
        &pipe,
        &CompileOptions {
            backend: Backend::Eager,
            ..opts.clone()
        },
    )
    .expect("compile eager");
    let x = batch(0xfeed_0729, n, features);
    let rows: Vec<DynTensor> = (0..n)
        .map(|r| DynTensor::F32(x.slice(0, r, r + 1).to_contiguous()))
        .collect();
    let want: Vec<Vec<u32>> = rows
        .iter()
        .map(|row| {
            let out = eager
                .executable()
                .run(std::slice::from_ref(row))
                .expect("eager");
            out[0]
                .as_f32()
                .to_vec()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        })
        .collect();

    let exe = model.executable();
    run_keeping_answers(exe, &rows, &want, "1 thread");
    let (_, stats) = exe.run_with_stats(&rows[..1]).expect("run");
    assert!(
        stats.planned,
        "single-row runs must be served from the plan"
    );
    std::thread::scope(|s| {
        for t in 0..2 {
            let (rows, want) = (&rows, &want);
            s.spawn(move || run_keeping_answers(exe, rows, want, &format!("thread {t} of 2")));
        }
    });
}
