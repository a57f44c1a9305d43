//! Cost-certification soundness gate (`hb-backend::cost`).
//!
//! The honesty rule under test: the certificate's roofline *counters*
//! (flops, element traversals, bytes moved, kernel launches, arena
//! footprint) are sound and exact — a real execution of the certified
//! graph must reproduce every one of them bit-for-bit, because both
//! sides are the same integer sums (well below 2^53) evaluated two
//! ways. The wall-clock *envelope* is weaker by design: it is
//! calibrated from a per-kernel-class microbench table, so the gate is
//! `measured ∈ [lo·(1−ε), hi·(1+ε)]` with ε = 0.5, checked across a
//! model zoo at every certification bucket.

use hummingbird::backend::{cost, Backend, Op, COST_BUCKETS};
use hummingbird::compiler::{compile, CompileOptions, CompiledModel, TreeStrategy};
use hummingbird::ml::forest::ForestConfig;
use hummingbird::ml::gbdt::GbdtConfig;
use hummingbird::ml::linear::LinearConfig;
use hummingbird::pipeline::{fit_pipeline, OpSpec, Targets};
use hummingbird::tensor::{DynTensor, Tensor};

const WIDTH: usize = 8;
const ROWS: usize = 256; // == largest COST_BUCKETS entry

fn features() -> Tensor<f32> {
    Tensor::from_fn(&[ROWS, WIDTH], |i| {
        let cls = (i[0] % 3) as f32;
        cls * 1.1 + ((i[0] * 13 + i[1] * 7) % 11) as f32 * 0.25 - 1.0
    })
}

fn labels() -> Targets {
    Targets::Classes((0..ROWS).map(|i| (i % 3) as i64).collect())
}

/// The zoo: every fitted-operator family the compiler lowers through a
/// distinct kernel mix — forests on all three tree strategies (gather
/// vs gemm pipelines; TT and PTT compile to the fused tree walk),
/// boosted trees (PTT and TT walks under a softmax link), a linear
/// model (pure gemm + transcendental), and Gaussian naive Bayes
/// (reduce-heavy).
fn zoo() -> Vec<(String, CompiledModel)> {
    let x = features();
    let y = labels();
    let forest = fit_pipeline(
        &[
            OpSpec::StandardScaler,
            OpSpec::RandomForestClassifier(ForestConfig {
                n_trees: 8,
                max_depth: 5,
                ..Default::default()
            }),
        ],
        &x,
        &y,
    );
    let gbdt = fit_pipeline(
        &[
            OpSpec::StandardScaler,
            OpSpec::GbdtClassifier(GbdtConfig {
                n_rounds: 6,
                max_depth: 4,
                ..Default::default()
            }),
        ],
        &x,
        &y,
    );
    let logistic = fit_pipeline(
        &[
            OpSpec::StandardScaler,
            OpSpec::LogisticRegression(LinearConfig::default()),
        ],
        &x,
        &y,
    );
    let nb = fit_pipeline(&[OpSpec::StandardScaler, OpSpec::GaussianNb], &x, &y);

    let compile_named = |name: &str, pipe, strategy| {
        let opts = CompileOptions {
            backend: Backend::Compiled,
            tree_strategy: strategy,
            expected_batch: ROWS,
            optimize_pipeline: false,
            ..Default::default()
        };
        let model = compile(pipe, &opts).unwrap_or_else(|e| panic!("{name}: compile failed: {e}"));
        (name.to_string(), model)
    };

    vec![
        compile_named("forest/gemm", &forest, TreeStrategy::Gemm),
        compile_named("forest/tt", &forest, TreeStrategy::TreeTraversal),
        compile_named("forest/ptt", &forest, TreeStrategy::PerfectTreeTraversal),
        compile_named("gbdt/auto", &gbdt, TreeStrategy::Auto),
        compile_named("gbdt/tt", &gbdt, TreeStrategy::TreeTraversal),
        compile_named("logistic", &logistic, TreeStrategy::Auto),
        compile_named("gaussian-nb", &nb, TreeStrategy::Auto),
    ]
}

fn input_at(batch: usize) -> DynTensor {
    DynTensor::F32(features().slice(0, 0, batch).to_contiguous())
}

/// Counters are sound and exact: a real run of every zoo model at every
/// certification bucket reproduces the certified flop / traversal /
/// byte / launch counts bit-for-bit, and the planner's arena equals the
/// certified footprint (which the cert already pushed through the
/// independent plan auditor).
#[test]
fn certified_counters_and_arena_match_measured_across_zoo() {
    for (name, model) in zoo() {
        let exec = model.executable();
        if name.ends_with("tt") {
            assert!(
                exec.graph()
                    .nodes
                    .iter()
                    .any(|n| matches!(n.op, Op::TreeWalk { .. })),
                "{name}: the Compiled traversal must be the fused walk"
            );
        }
        let certs = cost::cost_certs(exec.graph(), &COST_BUCKETS)
            .unwrap_or_else(|e| panic!("{name}: not certifiable: {e}"));
        assert_eq!(certs.len(), COST_BUCKETS.len(), "{name}: bucket coverage");
        for cert in &certs {
            let xb = input_at(cert.batch);
            let (_, stats) = exec
                .run_with_stats(std::slice::from_ref(&xb))
                .unwrap_or_else(|e| panic!("{name}@{}: {e}", cert.batch));
            assert_eq!(stats.flops, cert.flops, "{name}@{}: flops", cert.batch);
            assert_eq!(
                stats.traversals, cert.traversals,
                "{name}@{}: traversals",
                cert.batch
            );
            assert_eq!(stats.bytes, cert.bytes, "{name}@{}: bytes", cert.batch);
            assert_eq!(
                stats.kernel_launches, cert.kernel_launches,
                "{name}@{}: launches",
                cert.batch
            );
            let plan = exec
                .plan_for_batch(cert.batch)
                .unwrap_or_else(|e| panic!("{name}@{}: plan: {e}", cert.batch));
            assert_eq!(
                plan.arena_bytes, cert.arena_bytes,
                "{name}@{}: arena",
                cert.batch
            );
        }
    }
}

/// The calibrated envelope is validated, not assumed: the measured wall
/// of a warm run lands inside `[lo·(1−ε), hi·(1+ε)]` for every zoo
/// model at every bucket. The median of five runs keeps one scheduler
/// hiccup from failing the floor.
#[test]
fn measured_wall_within_calibrated_envelope_across_zoo() {
    const EPS: f64 = 0.5;
    for (name, model) in zoo() {
        let exec = model.executable();
        let certs = cost::cost_certs(exec.graph(), &COST_BUCKETS)
            .unwrap_or_else(|e| panic!("{name}: not certifiable: {e}"));
        for cert in &certs {
            let xb = input_at(cert.batch);
            let env = cost::envelope_for(cert);
            assert!(env.lo <= env.hi, "{name}@{}: inverted envelope", cert.batch);
            // Warm once (plans, autotuner) so steady state is measured.
            let _ = exec
                .run_with_stats(std::slice::from_ref(&xb))
                .unwrap_or_else(|e| panic!("{name}@{}: {e}", cert.batch));
            let mut walls: Vec<_> = (0..5)
                .map(|_| {
                    let (_, s) = exec
                        .run_with_stats(std::slice::from_ref(&xb))
                        .unwrap_or_else(|e| panic!("{name}@{}: {e}", cert.batch));
                    s.wall
                })
                .collect();
            walls.sort();
            let wall = walls[walls.len() / 2];
            let lo = env.lo.mul_f64(1.0 - EPS);
            let hi = env.hi.mul_f64(1.0 + EPS);
            assert!(
                wall >= lo && wall <= hi,
                "{name}@{}: wall {wall:?} outside [{lo:?}, {hi:?}] (envelope [{:?}, {:?}])",
                cert.batch,
                env.lo,
                env.hi
            );
        }
    }
}

/// Certificates travel with exported artifacts and survive a JSON round
/// trip unchanged, so the offline linter diffs the exact same numbers
/// the compiler certified.
#[test]
fn zoo_artifacts_round_trip_their_certs() {
    for (name, model) in zoo().into_iter().take(2) {
        let artifact =
            hummingbird::backend::Artifact::from_graph(model.executable().graph(), "proba")
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            !artifact.cost_certs.is_empty(),
            "{name}: artifact carries no certs"
        );
        let back = hummingbird::backend::Artifact::from_json_str(&artifact.to_json_string())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(artifact.cost_certs, back.cost_certs, "{name}: cert drift");
    }
}
