//! Differential and property gate for the fused tree walk
//! (`Op::TreeWalk`, the Compiled backend's replacement for the TT/PTT
//! `Gather`/`Lt`/`Where` ladder).
//!
//! The Eager backend keeps the ladder, so it is the oracle: for every
//! ensemble shape (depth-0 stumps, padded trees, multiclass leaves, PTT
//! at its maximum depth), every batch edge (0, 1, 63, 64, 65, 10K) and
//! inputs seeded with NaN, ±Inf and -0.0, the fused Compiled model must
//! produce bit-identical outputs on both of its executors. The verifier,
//! the abstract interpreter and the artifact format must understand the
//! op too.

use hummingbird::backend::{Artifact, Backend, Graph, GraphBuilder, GraphError, Op, WalkKind};
use hummingbird::compiler::strategies::traversal::PTT_MAX_DEPTH;
use hummingbird::compiler::{compile, CompileOptions, CompiledModel, TreeStrategy};
use hummingbird::ml::ensemble::{Aggregation, Link, TreeEnsemble};
use hummingbird::ml::tree::Tree;
use hummingbird::pipeline::Pipeline;
use hummingbird::tensor::{DType, DynTensor, Tensor};

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

/// A random binary tree of at most `depth` levels (splits with
/// probability `p` while depth remains), `width` payloads per leaf.
fn random_tree(depth: usize, features: usize, width: usize, p: f32, seed: u64) -> Tree {
    fn build(
        depth: usize,
        features: usize,
        width: usize,
        p: f32,
        rand: &mut impl FnMut() -> f32,
        tree: &mut Tree,
    ) -> i32 {
        let id = tree.left.len();
        tree.left.push(-1);
        tree.right.push(-1);
        tree.feature.push(0);
        tree.threshold.push(0.0);
        for _ in 0..width {
            tree.values.push(rand() * 2.0 - 1.0);
        }
        if depth > 0 && rand() < p {
            let f = ((rand() * features as f32) as usize).min(features - 1);
            let l = build(depth - 1, features, width, p, rand, tree);
            let r = build(depth - 1, features, width, p, rand, tree);
            tree.left[id] = l;
            tree.right[id] = r;
            tree.feature[id] = f as u32;
            tree.threshold[id] = rand() * 2.0 - 1.0;
        }
        id as i32
    }
    let mut rand = make_rand(seed);
    let mut tree = Tree {
        left: vec![],
        right: vec![],
        feature: vec![],
        threshold: vec![],
        values: vec![],
        value_width: width,
    };
    build(depth, features, width, p, &mut rand, &mut tree);
    tree
}

/// A tree whose left spine reaches exactly `depth` levels (so every
/// other leaf is shallow and PTT must complete it).
fn spine_tree(depth: usize, features: usize, seed: u64) -> Tree {
    let mut rand = make_rand(seed);
    let mut tree = Tree::leaf(vec![rand()]);
    for level in 0..depth {
        // Split the current deepest-left leaf.
        let at = tree.left.len() - 1 - usize::from(level > 0);
        let (l, r) = (tree.left.len() as i32, tree.left.len() as i32 + 1);
        for _ in 0..2 {
            tree.left.push(-1);
            tree.right.push(-1);
            tree.feature.push(0);
            tree.threshold.push(0.0);
            tree.values.push(rand());
        }
        tree.left[at] = l;
        tree.right[at] = r;
        tree.feature[at] = (level % features) as u32;
        tree.threshold[at] = rand() * 2.0 - 1.0;
    }
    tree
}

fn forest(trees: Vec<Tree>, features: usize, classes: usize) -> Pipeline {
    Pipeline::from_op(TreeEnsemble {
        trees,
        n_features: features,
        n_classes: classes,
        agg: if classes > 1 {
            Aggregation::AverageProba
        } else {
            Aggregation::AverageValue
        },
    })
}

fn booster(trees: Vec<Tree>, features: usize, classes: usize) -> Pipeline {
    Pipeline::from_op(TreeEnsemble {
        trees,
        n_features: features,
        n_classes: classes,
        agg: Aggregation::SumWithLink {
            base: vec![0.25; classes],
            link: Link::Softmax,
            n_groups: classes,
        },
    })
}

/// The ensemble shapes the walk must handle.
fn zoo() -> Vec<(&'static str, Pipeline, usize)> {
    let f = 6;
    vec![
        (
            "depth-0 stumps",
            forest(vec![Tree::leaf(vec![0.2, 0.8]); 3], f, 2),
            f,
        ),
        (
            "padded binary forest",
            forest(
                (0..7)
                    .map(|s| {
                        let p = if s % 2 == 0 { 0.9 } else { 0.4 };
                        let mut t = random_tree(6, f, 2, p, 0x70_00 + s);
                        // Leaf payloads must be probabilities.
                        for v in &mut t.values {
                            *v = v.abs();
                        }
                        t
                    })
                    .collect(),
                f,
                2,
            ),
            f,
        ),
        (
            "multiclass softmax booster",
            booster(
                (0..9)
                    .map(|s| random_tree(5, f, 1, 0.7, 0x71_00 + s))
                    .collect(),
                f,
                3,
            ),
            f,
        ),
        (
            "max-depth spines",
            forest(
                (0..2)
                    .map(|s| spine_tree(PTT_MAX_DEPTH, f, 0x72_00 + s))
                    .collect(),
                f,
                1,
            ),
            f,
        ),
    ]
}

/// Rows with NaN, ±Inf and -0.0 sprinkled among ordinary values.
fn rows(n: usize, features: usize, seed: u64) -> Tensor<f32> {
    let mut rand = make_rand(seed);
    Tensor::from_fn(&[n, features], |_| {
        let r = rand();
        match (r * 40.0) as u32 {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            3 => -0.0,
            4 => 0.0,
            _ => rand() * 2.4 - 1.2,
        }
    })
}

fn compile_as(pipe: &Pipeline, backend: Backend, strategy: TreeStrategy) -> CompiledModel {
    let opts = CompileOptions {
        backend,
        tree_strategy: strategy,
        optimize_pipeline: false,
        ..Default::default()
    };
    compile(pipe, &opts).unwrap_or_else(|e| panic!("{backend:?}/{strategy:?}: {e}"))
}

fn walks(g: &Graph) -> Vec<(WalkKind, usize)> {
    g.nodes
        .iter()
        .filter_map(|n| match n.op {
            Op::TreeWalk { kind, depth } => Some((kind, depth)),
            _ => None,
        })
        .collect()
}

fn bits(out: &[DynTensor]) -> Vec<u32> {
    out[0]
        .as_f32()
        .to_vec()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

#[test]
fn fused_walk_is_bit_identical_to_the_ladder() {
    for (name, pipe, f) in zoo() {
        let depth = match &pipe.ops[0] {
            hummingbird::pipeline::FittedOp::TreeEnsemble(e) => e.max_depth(),
            _ => unreachable!("zoo holds tree ensembles"),
        };
        for (strategy, kind) in [
            (TreeStrategy::TreeTraversal, WalkKind::Tt),
            (TreeStrategy::PerfectTreeTraversal, WalkKind::Ptt),
        ] {
            let eager = compile_as(&pipe, Backend::Eager, strategy);
            let fused = compile_as(&pipe, Backend::Compiled, strategy);
            assert!(
                walks(eager.executable().graph()).is_empty(),
                "{name}: the Eager backend must keep the ladder"
            );
            // A depth-0 ensemble has no ladder to fuse.
            let want_walks = if depth == 0 {
                vec![]
            } else {
                vec![(kind, depth)]
            };
            assert_eq!(
                walks(fused.executable().graph()),
                want_walks,
                "{name}/{strategy:?}: fused graph"
            );
            let big = if name == "max-depth spines" {
                2_000
            } else {
                10_000
            };
            for n in [0usize, 1, 63, 64, 65, big] {
                let x = DynTensor::F32(rows(n, f, 0xabc0 + n as u64));
                let want = bits(
                    &eager
                        .executable()
                        .run(std::slice::from_ref(&x))
                        .expect("eager"),
                );
                // Three runs: refcount (plan built), then warm planned.
                for run in 0..3 {
                    let (got, stats) = fused
                        .executable()
                        .run_with_stats(std::slice::from_ref(&x))
                        .expect("compiled");
                    assert_eq!(
                        bits(&got),
                        want,
                        "{name}/{strategy:?} n={n} run {run} (planned: {})",
                        stats.planned
                    );
                }
            }
        }
    }
}

#[test]
fn walk_facts_prove_the_leaf_gather_in_bounds() {
    for (name, pipe, _) in zoo().into_iter().skip(1) {
        for strategy in [
            TreeStrategy::TreeTraversal,
            TreeStrategy::PerfectTreeTraversal,
        ] {
            let model = compile_as(&pipe, Backend::Compiled, strategy);
            let g = model.executable().graph();
            let shapes = g.infer_shapes().expect("verifier accepts the walk");
            let facts = g
                .infer_values(&g.finite_input_facts())
                .expect("absint accepts the walk");
            let walk = g
                .nodes
                .iter()
                .position(|n| matches!(n.op, Op::TreeWalk { .. }))
                .expect("walk present");
            let consumer = g
                .nodes
                .iter()
                .find(|n| n.inputs.contains(&walk))
                .expect("walk consumed");
            assert!(matches!(consumer.op, Op::GatherRows), "{name}");
            let rows = shapes[consumer.inputs[0]].dims().expect("leaf table shape")[1]
                .min_value()
                .expect("fixed leaf count");
            let fact = facts[walk];
            assert!(
                fact.lo >= 0.0 && fact.hi <= (rows - 1) as f64 && !fact.can_nan && !fact.can_inf,
                "{name}/{strategy:?}: walk fact {fact:?} does not prove {rows} rows in bounds"
            );
            // Output shape [T, B].
            let dims = shapes[walk].dims().expect("walk shape");
            assert_eq!(dims.len(), 2, "{name}: walk rank");
        }
    }
}

#[test]
fn walk_round_trips_through_graph_and_artifact_json() {
    let (_, pipe, f) = zoo().swap_remove(2);
    for strategy in [
        TreeStrategy::TreeTraversal,
        TreeStrategy::PerfectTreeTraversal,
    ] {
        let model = compile_as(&pipe, Backend::Compiled, strategy);
        let g = model.executable().graph();
        let back = Graph::from_json(&g.to_json()).expect("graph JSON round trip");
        assert_eq!(walks(&back), walks(g));
        let art = Artifact::from_graph(g, "proba").expect("artifact");
        assert!(!art.cost_certs.is_empty(), "walk graphs stay certifiable");
        let art_back = Artifact::from_json_str(&art.to_json_string()).expect("artifact JSON");
        assert_eq!(walks(&art_back.graph), walks(g));
        assert_eq!(art_back.cost_certs, art.cost_certs);
        // The re-imported graph runs and agrees bit for bit.
        let exe = hummingbird::backend::Executable::new(
            art_back.graph,
            Backend::Compiled,
            hummingbird::backend::Device::cpu(),
        );
        let x = DynTensor::F32(rows(65, f, 0x5151));
        let want = bits(
            &model
                .executable()
                .run(std::slice::from_ref(&x))
                .expect("run"),
        );
        assert_eq!(
            bits(&exe.run(std::slice::from_ref(&x)).expect("rerun")),
            want
        );

        // Artifacts holding the ladder (as Script exports it) still load,
        // verify and run; compiled, they fuse nothing and agree bitwise.
        let script = compile_as(&pipe, Backend::Script, strategy);
        let ladder = Artifact::from_graph(script.executable().graph(), "proba").expect("ladder");
        let ladder_back = Artifact::from_json_str(&ladder.to_json_string()).expect("ladder JSON");
        ladder_back.graph.verify().expect("ladder verifies");
        assert!(walks(&ladder_back.graph).is_empty());
        let exe = hummingbird::backend::Executable::new(
            ladder_back.graph,
            Backend::Compiled,
            hummingbird::backend::Device::cpu(),
        );
        assert_eq!(
            bits(&exe.run(std::slice::from_ref(&x)).expect("ladder run")),
            want
        );
    }
}

/// A hand-built TT walk over `[T=1, N=3]` tables.
fn tt_graph(feature: i64, left: i64) -> Graph {
    let mut b = GraphBuilder::new();
    let x = b.input_with_shape(DType::F32, hummingbird::backend::ShapeFact::batched(&[2]));
    let nf = b.constant(Tensor::from_vec(vec![feature, 0, 0], &[1, 3]));
    let nt = b.constant(Tensor::from_vec(vec![0.5f32, 0.0, 0.0], &[1, 3]));
    let nl = b.constant(Tensor::from_vec(vec![left, 1, 2], &[1, 3]));
    let nr = b.constant(Tensor::from_vec(vec![2i64, 1, 2], &[1, 3]));
    let walk = Op::TreeWalk {
        kind: WalkKind::Tt,
        depth: 1,
    };
    let w = b.push(walk, vec![x, nf, nt, nl, nr]);
    b.output(w);
    b.build()
}

#[test]
fn verifier_range_checks_the_walk_tables() {
    let ok = tt_graph(1, 1);
    let sig = ok.verify().expect("well-formed walk verifies");
    assert_eq!(sig.outputs.len(), 1);
    let x = DynTensor::F32(Tensor::from_vec(
        vec![0.0, 0.25, 0.0, 0.75, 0.0, f32::NAN],
        &[3, 2],
    ));
    let out = Op::TreeWalk {
        kind: WalkKind::Tt,
        depth: 1,
    }
    .eval(&[
        &x,
        &DynTensor::I64(Tensor::from_vec(vec![1, 0, 0], &[1, 3])),
        &DynTensor::F32(Tensor::from_vec(vec![0.5f32, 0.0, 0.0], &[1, 3])),
        &DynTensor::I64(Tensor::from_vec(vec![1, 1, 2], &[1, 3])),
        &DynTensor::I64(Tensor::from_vec(vec![2i64, 1, 2], &[1, 3])),
    ]);
    // 0.25 < 0.5 goes left; 0.75 and NaN go right.
    assert_eq!(out.as_i64().to_vec(), vec![1, 2, 2]);
    assert_eq!(out.shape(), &[1, 3]);

    match tt_graph(2, 1).verify() {
        Err(GraphError::IndexOutOfRange { index: 2, .. }) => {}
        other => panic!("feature 2 of 2 must be rejected, got {other:?}"),
    }
    match tt_graph(0, 3).verify() {
        Err(GraphError::IndexOutOfRange { index: 3, .. }) => {}
        other => panic!("child 3 of 3 nodes must be rejected, got {other:?}"),
    }

    // PTT tables must hold T·(2^D − 1) slots.
    let mut b = GraphBuilder::new();
    let x = b.input_with_shape(DType::F32, hummingbird::backend::ShapeFact::batched(&[2]));
    let feat = b.constant(Tensor::from_vec(vec![0i64; 4], &[4]));
    let thr = b.constant(Tensor::from_vec(vec![0.0f32; 4], &[4]));
    let walk = Op::TreeWalk {
        kind: WalkKind::Ptt,
        depth: 2,
    };
    let w = b.push(walk, vec![x, feat, thr]);
    b.output(w);
    assert!(
        matches!(b.build().verify(), Err(GraphError::ShapeMismatch { .. })),
        "4 slots are not a multiple of 2^2 - 1"
    );
}
