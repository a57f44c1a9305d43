//! TreeTraversal and PerfectTreeTraversal strategies (paper §4.1
//! Strategies 2–3, Algorithms 2–3).
//!
//! Both mimic the imperative traversal with `Gather`/`Where` tensor
//! operations, unrolled `TREE_DEPTH` times at compile time. TT keeps
//! explicit child-pointer tensors (`N_L`, `N_R`, Table 5); PTT completes
//! every tree to a perfect binary tree so child indices become the
//! arithmetic `2k + Where(x < t, 0, 1)` and the per-level node tensors
//! can be **interleaved across trees** exactly as §4.1 prescribes
//! ("values corresponding to level i for all trees appear before values
//! corresponding to level i+1 of any tree").
//!
//! On the Compiled backend (`fused`), the unrolled ladder is replaced by
//! one [`Op::TreeWalk`] over the same node-table constants, producing the
//! same `[T, n]` leaf indices in a single kernel pass; the leaf-payload
//! `GatherRows` and the aggregation stay unchanged, so outputs are
//! bit-identical. Eager and Script keep the ladder as the paper's
//! PyTorch/TorchScript baselines.

use hb_backend::{GraphBuilder, NodeId, Op, WalkKind};
use hb_ml::ensemble::TreeEnsemble;
use hb_ml::tree::Tree;
use hb_tensor::Tensor;

use crate::CompileError;

use super::{batch_zeros_i64, gather_feature_values, gather_leaf_values};

/// Maximum perfect-tree depth before the `O(2^D)` node tensors become
/// prohibitive (paper §5.1: beyond this only TT applies).
pub const PTT_MAX_DEPTH: usize = 14;

/// Emits Algorithm 2 (TreeTraversal) — as one fused [`Op::TreeWalk`]
/// when `fused` — and returns stacked `[T, n, W]`.
pub fn compile_tt(
    ensemble: &TreeEnsemble,
    gb: &mut GraphBuilder,
    x: NodeId,
    fused: bool,
) -> NodeId {
    let t = ensemble.trees.len();
    let nmax = ensemble.max_nodes().max(1);
    let w = ensemble.trees[0].value_width;
    let depth = ensemble.max_depth();

    // Table 5 tensors, padded to the widest tree. Padding nodes self-loop
    // so they behave as inert leaves.
    let mut n_l = Vec::with_capacity(t * nmax);
    let mut n_r = Vec::with_capacity(t * nmax);
    let mut n_f = Vec::with_capacity(t * nmax);
    let mut n_t = Vec::with_capacity(t * nmax);
    let mut n_c = Vec::with_capacity(t * nmax * w);
    for tree in &ensemble.trees {
        for i in 0..nmax {
            if i < tree.n_nodes() {
                if tree.is_leaf(i) {
                    n_l.push(i as i64);
                    n_r.push(i as i64);
                    n_f.push(0i64);
                    n_t.push(0.0f32);
                    n_c.extend_from_slice(tree.value(i));
                } else {
                    n_l.push(tree.left[i] as i64);
                    n_r.push(tree.right[i] as i64);
                    n_f.push(tree.feature[i] as i64);
                    n_t.push(tree.threshold[i]);
                    n_c.extend(std::iter::repeat_n(0.0, w));
                }
            } else {
                n_l.push(i as i64);
                n_r.push(i as i64);
                n_f.push(0);
                n_t.push(0.0);
                n_c.extend(std::iter::repeat_n(0.0, w));
            }
        }
    }

    let n_l = gb.constant(Tensor::from_vec(n_l, &[t, nmax]));
    let n_r = gb.constant(Tensor::from_vec(n_r, &[t, nmax]));
    let n_f = gb.constant(Tensor::from_vec(n_f, &[t, nmax]));
    let n_t = gb.constant(Tensor::from_vec(n_t, &[t, nmax]));
    let n_c = gb.constant(Tensor::from_vec(n_c, &[t, nmax, w]));

    if fused && depth > 0 {
        let walk = Op::TreeWalk {
            kind: WalkKind::Tt,
            depth,
        };
        let t_i = gb.push(walk, vec![x, n_f, n_t, n_l, n_r]);
        return gather_leaf_values(gb, n_c, t_i);
    }

    // T_I ← root (index 0 in our layout); the loop is unrolled
    // TREE_DEPTH times (§4.1: "At compile time, we unroll all
    // iterations").
    let mut t_i = batch_zeros_i64(gb, x, t);
    for _ in 0..depth {
        let t_f = gb.gather(1, n_f, t_i); // [T, n]
        let t_v = gather_feature_values(gb, x, t_f); // [T, n]
        let t_t = gb.gather(1, n_t, t_i);
        let t_l = gb.gather(1, n_l, t_i);
        let t_r = gb.gather(1, n_r, t_i);
        let cond = gb.lt(t_v, t_t);
        t_i = gb.where_(cond, t_l, t_r);
    }
    gather_leaf_values(gb, n_c, t_i) // [T, n, W]
}

/// Per-tree perfect-completion arrays in level order.
struct PerfectTree {
    /// Features per internal slot, level order (`2^D − 1` entries).
    feat: Vec<i64>,
    /// Thresholds per internal slot.
    thr: Vec<f32>,
    /// Leaf payloads `[2^D, W]`.
    leaves: Vec<f32>,
}

/// Completes `tree` to a perfect tree of depth `d` (paper §4.1: replace
/// each shallow leaf with a perfect subtree whose leaves all map to the
/// original label; the introduced decision nodes are free to perform
/// arbitrary comparisons).
fn perfect_completion(tree: &Tree, d: usize, w: usize) -> PerfectTree {
    let n_internal = (1usize << d) - 1;
    let n_leaves = 1usize << d;
    let mut pt = PerfectTree {
        feat: vec![0; n_internal],
        thr: vec![0.0; n_internal],
        leaves: vec![0.0; n_leaves * w],
    };
    // Walk the completed tree; `node` is the original node (sticky once a
    // leaf is reached early), `(level, k)` the perfect-tree coordinates.
    fn fill(
        tree: &Tree,
        node: usize,
        level: usize,
        k: usize,
        d: usize,
        w: usize,
        pt: &mut PerfectTree,
    ) {
        if level == d {
            let leaf_value = tree.value(node);
            pt.leaves[k * w..(k + 1) * w].copy_from_slice(leaf_value);
            return;
        }
        let slot = ((1usize << level) - 1) + k;
        if tree.is_leaf(node) {
            // Free comparison: both children carry the same original leaf.
            pt.feat[slot] = 0;
            pt.thr[slot] = 0.0;
            fill(tree, node, level + 1, 2 * k, d, w, pt);
            fill(tree, node, level + 1, 2 * k + 1, d, w, pt);
        } else {
            pt.feat[slot] = tree.feature[node] as i64;
            pt.thr[slot] = tree.threshold[node];
            fill(tree, tree.left[node] as usize, level + 1, 2 * k, d, w, pt);
            fill(
                tree,
                tree.right[node] as usize,
                level + 1,
                2 * k + 1,
                d,
                w,
                pt,
            );
        }
    }
    fill(tree, 0, 0, 0, d, w, &mut pt);
    pt
}

/// Emits Algorithm 3 (PerfectTreeTraversal) — as one fused
/// [`Op::TreeWalk`] when `fused` — and returns stacked `[T, n, W]`.
///
/// # Errors
///
/// Returns [`CompileError::PttTooDeep`] when the completed depth exceeds
/// [`PTT_MAX_DEPTH`] — the `O(2^D)` memory blow-up the §5.1 heuristics
/// guard against.
pub fn compile_ptt(
    ensemble: &TreeEnsemble,
    gb: &mut GraphBuilder,
    x: NodeId,
    fused: bool,
) -> Result<NodeId, CompileError> {
    let d = ensemble.max_depth();
    if d > PTT_MAX_DEPTH {
        return Err(CompileError::PttTooDeep {
            depth: d,
            max: PTT_MAX_DEPTH,
        });
    }
    let t = ensemble.trees.len();
    let w = ensemble.trees[0].value_width;
    let n_internal = (1usize << d) - 1;
    let n_leaves = 1usize << d;

    // Level-interleaved N_F'/N_T': slot of (level, tree, k) is
    // (2^level − 1)·T + tree·2^level + k.
    let mut feat = vec![0i64; t * n_internal];
    let mut thr = vec![0.0f32; t * n_internal];
    let mut leaves = vec![0.0f32; t * n_leaves * w];
    for (ti, tree) in ensemble.trees.iter().enumerate() {
        let pt = perfect_completion(tree, d, w);
        for level in 0..d {
            let width = 1usize << level;
            let level_base = (width - 1) * t;
            for k in 0..width {
                let src = (width - 1) + k;
                let dst = level_base + ti * width + k;
                feat[dst] = pt.feat[src];
                thr[dst] = pt.thr[src];
            }
        }
        leaves[ti * n_leaves * w..(ti + 1) * n_leaves * w].copy_from_slice(&pt.leaves);
    }

    let leaves_c = gb.constant(Tensor::from_vec(leaves, &[t, n_leaves, w]));
    if d == 0 {
        // Stump ensemble: every record lands on the single leaf.
        let t_k = batch_zeros_i64(gb, x, t);
        return Ok(gather_leaf_values(gb, leaves_c, t_k));
    }
    let feat_c = gb.constant(Tensor::from_vec(feat, &[t * n_internal]));
    let thr_c = gb.constant(Tensor::from_vec(thr, &[t * n_internal]));
    if fused {
        let walk = Op::TreeWalk {
            kind: WalkKind::Ptt,
            depth: d,
        };
        let t_k = gb.push(walk, vec![x, feat_c, thr_c]);
        return Ok(gather_leaf_values(gb, leaves_c, t_k));
    }
    // T_K: local position within the current level, starting at the root.
    let mut t_k = batch_zeros_i64(gb, x, t);
    let zero = gb.constant(Tensor::scalar(0i64));
    let one = gb.constant(Tensor::scalar(1i64));
    let tidx = gb.constant(Tensor::from_vec((0..t as i64).collect(), &[t, 1]));
    for level in 0..d {
        let width = 1i64 << level;
        // Flat slot = T_K + tree·2^level + (2^level − 1)·T.
        let tree_off = gb.mul_scalar(tidx, width as f64);
        let local = gb.add(t_k, tree_off);
        let flat = gb.add_scalar(local, ((width - 1) * t as i64) as f64);
        let flat1d = gb.reshape(flat, vec![-1]);
        let t_f_flat = gb.gather(0, feat_c, flat1d);
        let t_f = gb.reshape(t_f_flat, vec![t as i64, -1]);
        let t_t_flat = gb.gather(0, thr_c, flat1d);
        let t_t = gb.reshape(t_t_flat, vec![t as i64, -1]);
        let t_v = gather_feature_values(gb, x, t_f);
        // T_K ← 2·T_K + Where(x < t, 0, 1).
        let cond = gb.lt(t_v, t_t);
        let step = gb.where_(cond, zero, one);
        let doubled = gb.mul_scalar(t_k, 2.0);
        t_k = gb.add(doubled, step);
    }
    Ok(gather_leaf_values(gb, leaves_c, t_k))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_completion_propagates_early_leaves() {
        // Depth-1 tree completed to depth 2: the left leaf must appear in
        // both depth-2 slots under it.
        let tree = Tree {
            left: vec![1, -1, -1],
            right: vec![2, -1, -1],
            feature: vec![0, 0, 0],
            threshold: vec![0.5, 0.0, 0.0],
            values: vec![0.0, 10.0, 20.0],
            value_width: 1,
        };
        let pt = perfect_completion(&tree, 2, 1);
        assert_eq!(pt.feat.len(), 3);
        assert_eq!(pt.leaves, vec![10.0, 10.0, 20.0, 20.0]);
        assert_eq!(pt.thr[0], 0.5);
    }

    #[test]
    fn perfect_completion_depth_zero() {
        let tree = Tree::leaf(vec![0.3, 0.7]);
        let pt = perfect_completion(&tree, 0, 2);
        assert!(pt.feat.is_empty());
        assert_eq!(pt.leaves, vec![0.3, 0.7]);
    }
}
