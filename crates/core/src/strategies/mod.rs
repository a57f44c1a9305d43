//! Tree-ensemble compilation strategies (paper §4.1) and the §5.1
//! heuristics that choose among them.

pub mod gemm;
pub mod traversal;

use hb_backend::{Backend, Device, GraphBuilder, NodeId, Op};
use hb_ml::ensemble::{Aggregation, Link, TreeEnsemble};
use hb_tensor::{DType, Tensor};

use crate::{CompileError, CompileOptions, TreeStrategy};

/// Applies the §5.1 heuristics: GEMM for shallow trees (`D ≤ 3` on CPU,
/// `D ≤ 10` on GPU) or small expected batches, PerfectTreeTraversal for
/// `D ≤ 10`, TreeTraversal beyond.
pub fn heuristic_strategy(ensemble: &TreeEnsemble, opts: &CompileOptions) -> TreeStrategy {
    let depth = ensemble.max_depth();
    let on_gpu = matches!(opts.device, Device::Sim(_));
    if on_gpu {
        if depth <= 10 {
            TreeStrategy::Gemm
        } else {
            TreeStrategy::TreeTraversal
        }
    } else if depth <= 3 || opts.expected_batch <= 32 {
        TreeStrategy::Gemm
    } else if depth <= 10 {
        TreeStrategy::PerfectTreeTraversal
    } else {
        TreeStrategy::TreeTraversal
    }
}

/// Compiles `ensemble` into graph nodes reading features from `x`
/// (`[n, F]` f32) using the given strategy, returning the `[n, outputs]`
/// prediction node.
pub fn compile_trees(
    ensemble: &TreeEnsemble,
    strategy: TreeStrategy,
    b: &mut GraphBuilder,
    x: NodeId,
    opts: &CompileOptions,
) -> Result<NodeId, CompileError> {
    if ensemble.trees.is_empty() {
        return Err(CompileError::UnsupportedOperator(
            "empty tree ensemble".into(),
        ));
    }
    let strategy = match strategy {
        TreeStrategy::Auto => heuristic_strategy(ensemble, opts),
        s => s,
    };
    // Only the Compiled backend fuses the traversal ladder; Eager and
    // Script keep it as the paper's baselines.
    let fused = opts.backend == Backend::Compiled;
    let stacked = match strategy {
        TreeStrategy::Gemm => gemm::compile(ensemble, b, x),
        TreeStrategy::TreeTraversal => traversal::compile_tt(ensemble, b, x, fused),
        TreeStrategy::PerfectTreeTraversal => traversal::compile_ptt(ensemble, b, x, fused)?,
        TreeStrategy::Auto => unreachable!("Auto resolved above"),
    };
    Ok(aggregate(ensemble, b, stacked))
}

/// Emits the ensemble aggregation over stacked per-tree outputs
/// `[T, n, W]`: mean for forests (the paper's `ReduceMean` over the
/// batched tree dimension), grouped sum + link for boosters.
fn aggregate(ensemble: &TreeEnsemble, b: &mut GraphBuilder, stacked: NodeId) -> NodeId {
    match &ensemble.agg {
        Aggregation::AverageProba => {
            let p = b.mean(stacked, 0, false); // [n, W]
                                               // The sanitize epilogue is only a runtime identity when the
                                               // mean provably stays in [0, 1]; trained classifiers store
                                               // per-class probabilities in their leaves, but synthetic
                                               // ensembles may carry arbitrary payloads under AverageProba.
            let proba_leaves = ensemble
                .trees
                .iter()
                .all(|t| t.values.iter().all(|v| (0.0..=1.0).contains(v)));
            if proba_leaves {
                crate::convert::sanitize_proba(b, p)
            } else {
                p
            }
        }
        Aggregation::AverageValue => {
            b.mean(stacked, 0, false) // [n, W]
        }
        Aggregation::SumWithLink {
            base,
            link,
            n_groups,
        } => {
            let t = ensemble.trees.len();
            let g = *n_groups;
            debug_assert_eq!(t % g, 0, "tree count must be a multiple of group count");
            let rounds = (t / g) as i64;
            // [T, n, 1] → [T, n] → [R, G, n] → Σ_R → [G, n] → [n, G].
            let sq = b.squeeze(stacked, 2);
            let rs = b.reshape(sq, vec![rounds, g as i64, -1]);
            let summed = b.sum(rs, 0, false);
            let tr = b.transpose(summed, 0, 1);
            let base_c = b.constant(Tensor::from_vec(base.clone(), &[1, g]));
            let z = b.add(tr, base_c);
            match link {
                Link::Identity => z,
                Link::Softmax => {
                    let p = b.softmax(z, 1);
                    crate::convert::sanitize_proba(b, p)
                }
                Link::Sigmoid => {
                    let p = b.sigmoid(z); // [n, 1]
                    let neg = b.mul_scalar(p, -1.0);
                    let q = b.add_scalar(neg, 1.0);
                    let both = b.concat(1, vec![q, p]);
                    crate::convert::sanitize_proba(b, both)
                }
            }
        }
    }
}

/// Builds an i64 `[T, n]` zero tensor whose `n` tracks the batch size of
/// `x` at run time (graphs are compiled once, scored at any batch size).
pub(crate) fn batch_zeros_i64(b: &mut GraphBuilder, x: NodeId, n_trees: usize) -> NodeId {
    // Row zeros [1, n]: take column 0 of x, zero it, transpose, cast.
    let col0 = b.index_select(1, x, vec![0]);
    let zeroed = b.mul_scalar(col0, 0.0);
    let row = b.transpose(zeroed, 0, 1);
    let row_i = b.cast(row, DType::I64);
    // Broadcast against [T, 1] zeros.
    let tz = b.constant(Tensor::<i64>::zeros(&[n_trees, 1]));
    b.add(row_i, tz)
}

/// Emits the "gather feature values by per-tree feature index" composite:
/// given `x [n, F]` and per-record feature indices `t_f [T, n]`, returns
/// the selected values `[T, n]`.
pub(crate) fn gather_feature_values(b: &mut GraphBuilder, x: NodeId, t_f: NodeId) -> NodeId {
    let idx = b.transpose(t_f, 0, 1); // [n, T]
    let vals = b.gather(1, x, idx); // [n, T]
    b.transpose(vals, 0, 1) // [T, n]
}

/// Emits the final leaf-payload lookup + keeps a uniform `[T, n, W]`
/// shape: `values [T, N, W]` gathered by `t_i [T, n]`.
pub(crate) fn gather_leaf_values(b: &mut GraphBuilder, values: NodeId, t_i: NodeId) -> NodeId {
    b.push(Op::GatherRows, vec![values, t_i])
}
