//! The fused tree-walk kernel behind [`crate::Op::TreeWalk`].
//!
//! The TreeTraversal and PerfectTreeTraversal strategies (paper §4.1,
//! Algorithms 2–3) unroll one `Gather`/`Lt`/`Where` ladder rung per tree
//! level, so a depth-`D` ensemble costs about `6·D` full passes over a
//! `[T, B]` tensor. The Compiled backend replaces the whole ladder with
//! one composite op whose kernel walks every (tree, record) pair to its
//! leaf in registers and writes only the final `[T, B]` i64 leaf index —
//! the operator-level fusion a TVM-class compiler performs on the
//! ladder. The Eager and Script backends keep the ladder (the paper's
//! PyTorch baselines and the differential oracle), and the two must
//! agree bit for bit:
//!
//! * a comparison is `x < t` exactly as the ladder's `Lt`, so a NaN
//!   feature (for which `<` is false) goes right like `where(x < t, ·, ·)`;
//! * TT stops early at a self-looping node (a leaf or padding), where
//!   further ladder rungs would keep the index unchanged;
//! * PTT steps `2k + !(x < t)` for exactly `depth` levels.
//!
//! Operands (all but `x` are the strategies' node-table constants):
//!
//! * TT: `x [B, F]` f32, `N_F [T, N]` i64, `N_T [T, N]` f32,
//!   `N_L [T, N]` i64, `N_R [T, N]` i64;
//! * PTT: `x [B, F]` f32, `N_F' [T·(2^D − 1)]` i64, `N_T' [T·(2^D − 1)]`
//!   f32, level-interleaved (slot of `(level, tree, k)` is
//!   `(2^level − 1)·T + tree·2^level + k`).
//!
//! The loop nest is row blocks outside, trees inside (like the FIL-like
//! baseline in `hb-core::fil`): one block of records stays cache-resident
//! while every tree walks it, and each tree writes a contiguous run of
//! its output row. The kernel is serial and allocation-free.

use std::borrow::Cow;

use hb_tensor::{DynTensor, Element, Tensor};

/// Which §4.1 traversal a [`crate::Op::TreeWalk`] performs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WalkKind {
    /// TreeTraversal: explicit child pointers, early exit at leaves.
    Tt,
    /// PerfectTreeTraversal: arithmetic children over a perfect tree.
    Ptt,
}

hb_json::json_enum!(WalkKind { Tt, Ptt });

impl WalkKind {
    /// Operand count: `x` plus the node tables.
    pub fn arity(self) -> usize {
        match self {
            WalkKind::Tt => 5,
            WalkKind::Ptt => 3,
        }
    }
}

/// Bytes of `x` one row block should occupy: small enough to stay in L2
/// while every tree walks the block.
const BLOCK_BYTES: usize = 1 << 15;

/// Records per row block for an `f`-feature input.
fn block_rows(f: usize) -> usize {
    (BLOCK_BYTES / (4 * f.max(1))).clamp(8, 256)
}

/// Records a walk steps through each level together, so their
/// independent load chains overlap.
const LANES: usize = 8;

/// Number of internal slots of a perfect tree of depth `depth`.
pub fn perfect_internal(depth: usize) -> usize {
    (1usize << depth) - 1
}

/// Walks every (tree, record) pair to its leaf, writing the `[T, B]`
/// leaf indices row-major into `out`.
///
/// # Panics
///
/// Panics on operand dtype/rank mismatches, a destination of the wrong
/// size, or an out-of-range feature or child index — the same defects
/// on which the ladder's `Gather` kernels panic.
pub fn tree_walk_into(kind: WalkKind, depth: usize, inputs: &[&DynTensor], out: &mut [i64]) {
    assert_eq!(inputs.len(), kind.arity(), "tree_walk operand count");
    let x = inputs[0].as_f32();
    assert_eq!(x.ndim(), 2, "tree_walk expects x as [B, F]");
    let (b, f) = (x.shape()[0], x.shape()[1]);
    let xv = dense(x);
    match kind {
        WalkKind::Tt => {
            let feat = inputs[1].as_i64();
            let (thr, left, right) = (inputs[2].as_f32(), inputs[3].as_i64(), inputs[4].as_i64());
            assert_eq!(feat.ndim(), 2, "tree_walk TT tables must be [T, N]");
            let (t, n) = (feat.shape()[0], feat.shape()[1]);
            for table in [thr.shape(), left.shape(), right.shape()] {
                assert_eq!(table, feat.shape(), "tree_walk TT table shapes differ");
            }
            assert_eq!(out.len(), t * b, "tree_walk: destination size mismatch");
            let tables = Tables {
                trees: t,
                nodes: n,
                feat: &dense(feat),
                thr: &dense(thr),
                left: &dense(left),
                right: &dense(right),
            };
            walk_tt(&xv, f, b, depth, &tables, out);
        }
        WalkKind::Ptt => {
            let (feat, thr) = (inputs[1].as_i64(), inputs[2].as_f32());
            assert!(
                depth >= 1 && feat.ndim() == 1 && thr.shape() == feat.shape(),
                "tree_walk PTT needs depth >= 1 and equal rank-1 tables"
            );
            let internal = perfect_internal(depth);
            assert_eq!(
                feat.numel() % internal,
                0,
                "tree_walk PTT table length is not T·(2^D − 1)"
            );
            let t = feat.numel() / internal;
            assert_eq!(out.len(), t * b, "tree_walk: destination size mismatch");
            walk_ptt(&xv, f, b, depth, t, &dense(feat), &dense(thr), out);
        }
    }
}

/// Allocating twin of [`tree_walk_into`], for the unplanned executors.
pub fn tree_walk(kind: WalkKind, depth: usize, inputs: &[&DynTensor]) -> DynTensor {
    let b = inputs[0].shape().first().copied().unwrap_or(0);
    let t = match kind {
        WalkKind::Tt => inputs[1].shape().first().copied().unwrap_or(0),
        WalkKind::Ptt => inputs[1].numel() / perfect_internal(depth).max(1),
    };
    let mut out = vec![0i64; t * b];
    tree_walk_into(kind, depth, inputs, &mut out);
    DynTensor::I64(Tensor::from_vec(out, &[t, b]))
}

/// A tensor's elements in row-major order: borrowed when contiguous (the
/// constants and graph inputs always are), so the kernel allocates
/// nothing on the planned path.
fn dense<T: Element>(t: &Tensor<T>) -> Cow<'_, [T]> {
    if t.is_contiguous() {
        Cow::Borrowed(t.as_slice())
    } else {
        Cow::Owned(t.to_vec())
    }
}

/// TT node tables, each `[T, N]` row-major.
struct Tables<'a> {
    trees: usize,
    nodes: usize,
    feat: &'a [i64],
    thr: &'a [f32],
    left: &'a [i64],
    right: &'a [i64],
}

fn walk_tt(xv: &[f32], f: usize, b: usize, depth: usize, tables: &Tables<'_>, out: &mut [i64]) {
    let block = block_rows(f);
    let n = tables.nodes;
    for r0 in (0..b).step_by(block) {
        let rows = block.min(b - r0);
        prefetch_rows(&xv[r0 * f..(r0 + rows) * f]);
        for tree in 0..tables.trees {
            let base = tree * n;
            let feat = &tables.feat[base..base + n];
            let thr = &tables.thr[base..base + n];
            let left = &tables.left[base..base + n];
            let right = &tables.right[base..base + n];
            let dst = &mut out[tree * b + r0..tree * b + r0 + rows];
            for (c, lanes) in dst.chunks_mut(LANES).enumerate() {
                let row0 = r0 + c * LANES;
                let mut node = [0usize; LANES];
                for _ in 0..depth {
                    let mut live = false;
                    for (j, nj) in node.iter_mut().enumerate().take(lanes.len()) {
                        let (l, r) = (left[*nj], right[*nj]);
                        // A self-loop (leaf or padding) is a fixed point
                        // of every remaining ladder rung.
                        if l == *nj as i64 && r == *nj as i64 {
                            continue;
                        }
                        live = true;
                        let v = xv[(row0 + j) * f..(row0 + j + 1) * f][index(feat[*nj])];
                        *nj = index(if v < thr[*nj] { l } else { r });
                    }
                    if !live {
                        break;
                    }
                }
                for (o, nj) in lanes.iter_mut().zip(node) {
                    *o = nj as i64;
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)] // flat kernel operands; a struct would only rename them
fn walk_ptt(
    xv: &[f32],
    f: usize,
    b: usize,
    depth: usize,
    trees: usize,
    feat: &[i64],
    thr: &[f32],
    out: &mut [i64],
) {
    let block = block_rows(f);
    for r0 in (0..b).step_by(block) {
        let rows = block.min(b - r0);
        prefetch_rows(&xv[r0 * f..(r0 + rows) * f]);
        for tree in 0..trees {
            let dst = &mut out[tree * b + r0..tree * b + r0 + rows];
            for (c, lanes) in dst.chunks_mut(LANES).enumerate() {
                let row0 = r0 + c * LANES;
                let mut k = [0usize; LANES];
                for level in 0..depth {
                    let width = 1usize << level;
                    let level_base = (width - 1) * trees + tree * width;
                    for (j, kj) in k.iter_mut().enumerate().take(lanes.len()) {
                        let slot = level_base + *kj;
                        let v = xv[(row0 + j) * f..(row0 + j + 1) * f][index(feat[slot])];
                        *kj = 2 * *kj + if v < thr[slot] { 0 } else { 1 };
                    }
                }
                for (o, kj) in lanes.iter_mut().zip(k) {
                    *o = kj as i64;
                }
            }
        }
    }
}

/// Streams a row block into cache with one sequential read per cache
/// line, so the walks' data-dependent feature reads hit instead of each
/// missing on its own.
fn prefetch_rows(block: &[f32]) {
    let mut acc = 0.0f32;
    for v in block.iter().step_by(16) {
        acc += *v;
    }
    std::hint::black_box(acc);
}

/// A table entry as a slice index; negative entries panic like the
/// ladder's bounds-checked gathers.
fn index(v: i64) -> usize {
    usize::try_from(v).unwrap_or_else(|_| panic!("tree_walk: negative index {v}"))
}
