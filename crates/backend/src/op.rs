//! Graph operators and their evaluation kernels.
//!
//! The operator set matches paper Table 2: `matmul, add, mul, div, lt, le,
//! eq, gt, ge, &, |, xor, gather, index_select, cat, reshape, cast, abs,
//! pow, exp, argmax, max, sum, relu, tanh, sigmoid, logsumexp, isnan,
//! where`, plus the shape plumbing (`unsqueeze`, `transpose`, `slice`) that
//! the converters need and a fused `sqdist` following §4.2's
//! quadratic-expansion trick.

use std::sync::Arc;

use hb_tensor::{DType, DynTensor, Tensor};

use crate::fuse::FusedKernel;
use crate::graph::{GraphError, NodeId};
use crate::verify::{broadcast_dims, broadcast_facts, unify_eq, ShapeFact, SymDim};
use crate::walk::{self, WalkKind};

/// A single tensor operation in a [`crate::Graph`].
#[derive(Clone, Debug)]
pub enum Op {
    /// Reads graph input slot `n`.
    Input(usize),
    /// A compile-time constant (model parameters).
    Const(DynTensor),
    /// Batched matrix multiplication with batch-dim broadcasting.
    MatMul,
    /// Element-wise sum with broadcasting.
    Add,
    /// Element-wise difference with broadcasting.
    Sub,
    /// Element-wise product with broadcasting.
    Mul,
    /// Element-wise quotient with broadcasting.
    Div,
    /// Element-wise minimum with broadcasting.
    Minimum,
    /// Element-wise maximum with broadcasting.
    Maximum,
    /// Adds a scalar to every element (f32 or i64 tensors).
    AddScalar(f64),
    /// Multiplies every element by a scalar (f32 or i64 tensors).
    MulScalar(f64),
    /// Raises every element to a scalar power (f32 tensors).
    PowScalar(f64),
    /// `a < b` → bool mask.
    Lt,
    /// `a <= b` → bool mask.
    Le,
    /// `a > b` → bool mask.
    Gt,
    /// `a >= b` → bool mask.
    Ge,
    /// `a == b` → bool mask.
    EqOp,
    /// `a != b` → bool mask.
    NeOp,
    /// Logical AND of bool masks.
    And,
    /// Logical OR of bool masks.
    Or,
    /// Logical XOR of bool masks.
    Xor,
    /// Logical NOT of a bool mask.
    Not,
    /// `where(cond, a, b)` with broadcasting.
    Where,
    /// `torch.gather` along `axis` (inputs: data, i64 index).
    Gather {
        /// Gather axis.
        axis: usize,
    },
    /// Batched row lookup: data `[B, N, W]`, i64 index `[B, n]` →
    /// `[B, n, W]` (the TreeTraversal leaf-payload composite).
    GatherRows,
    /// Fused tree traversal (the Compiled backend's replacement for the
    /// TT/PTT `Gather`/`Lt`/`Where` ladder): inputs `x [B, F]` plus the
    /// strategy's node tables, output the i64 `[T, B]` leaf indices the
    /// ladder computes. See [`crate::walk`] for operands and semantics.
    TreeWalk {
        /// TreeTraversal or PerfectTreeTraversal.
        kind: WalkKind,
        /// Tree levels walked (the ensemble's maximum depth).
        depth: usize,
    },
    /// Selects fixed positions along `axis` (compile-time indices).
    IndexSelect {
        /// Selection axis.
        axis: usize,
        /// Positions to keep, in output order.
        indices: Arc<Vec<usize>>,
    },
    /// Concatenates all inputs along `axis`.
    Concat {
        /// Concatenation axis.
        axis: usize,
    },
    /// Reshape; `-1` infers one dimension, `0` copies the input dimension.
    Reshape {
        /// Target dims with ONNX-style `0`/`-1` placeholders.
        dims: Vec<i64>,
    },
    /// Inserts a size-1 axis.
    Unsqueeze(usize),
    /// Removes a size-1 axis.
    Squeeze(usize),
    /// Swaps two axes.
    Transpose(usize, usize),
    /// Keeps `start..end` along `axis`.
    Slice {
        /// Sliced axis.
        axis: usize,
        /// First kept index.
        start: usize,
        /// One past the last kept index.
        end: usize,
    },
    /// Sum reduction along `axis`.
    Sum {
        /// Reduced axis.
        axis: usize,
        /// Keep the reduced axis as size 1.
        keepdim: bool,
    },
    /// Mean reduction along `axis`.
    Mean {
        /// Reduced axis.
        axis: usize,
        /// Keep the reduced axis as size 1.
        keepdim: bool,
    },
    /// Max reduction along `axis`.
    ReduceMax {
        /// Reduced axis.
        axis: usize,
        /// Keep the reduced axis as size 1.
        keepdim: bool,
    },
    /// Index of the max along `axis` (→ i64).
    ArgMax {
        /// Reduced axis.
        axis: usize,
        /// Keep the reduced axis as size 1.
        keepdim: bool,
    },
    /// Stabilized `log(Σexp)` along `axis`.
    LogSumExp {
        /// Reduced axis.
        axis: usize,
        /// Keep the reduced axis as size 1.
        keepdim: bool,
    },
    /// Softmax along `axis`.
    Softmax {
        /// Normalized axis.
        axis: usize,
    },
    /// `max(x, 0)`.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Natural exponential.
    Exp,
    /// Natural logarithm.
    Ln,
    /// Square root.
    Sqrt,
    /// Absolute value.
    Abs,
    /// Negation.
    Neg,
    /// NaN test → bool mask.
    IsNan,
    /// Clamp into `[lo, hi]`.
    Clamp {
        /// Lower bound.
        lo: f32,
        /// Upper bound.
        hi: f32,
    },
    /// Dtype conversion.
    Cast(DType),
    /// Squared Euclidean distance matrix `[n,d]×[m,d] → [n,m]` via the
    /// quadratic expansion of §4.2 (no `n×m×d` intermediate).
    Sqdist,
    /// A fused element-wise kernel produced by the Compiled backend's
    /// fusion pass; never constructed by converters directly.
    Fused(Arc<FusedKernel>),
}

/// A typed mutable destination for [`Op::eval_into`] — a uniquely-owned
/// window of an arena slot, sized exactly to the output's element count.
///
/// `U8` is intentionally absent: no operator in the Table 2 set produces a
/// u8 output except `Cast`, and u8 casts are rare enough that the planner
/// simply routes them through the allocating fallback path.
#[derive(Debug)]
pub enum DestMut<'a> {
    /// Destination for an f32-typed output.
    F32(&'a mut [f32]),
    /// Destination for an i64-typed output.
    I64(&'a mut [i64]),
    /// Destination for a bool-typed output.
    Bool(&'a mut [bool]),
}

/// FLOP and byte-traffic estimate for one operator execution, consumed by
/// the simulated-device roofline model.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpCost {
    /// Floating-point (or comparable) operations performed.
    pub flops: f64,
    /// Bytes moved through memory (reads + writes).
    pub bytes: f64,
    /// Output elements the kernel traverses (writes) — the uniform
    /// "element traversal" counter certified by `hb-backend::cost`.
    pub traversals: f64,
    /// True for zero-cost metadata ops that launch no kernel.
    pub metadata_only: bool,
}

fn bin_f32(
    a: &DynTensor,
    b: &DynTensor,
    f: impl Fn(&Tensor<f32>, &Tensor<f32>) -> Tensor<f32>,
    g: impl Fn(&Tensor<i64>, &Tensor<i64>) -> Tensor<i64>,
) -> DynTensor {
    match (a, b) {
        (DynTensor::F32(x), DynTensor::F32(y)) => DynTensor::F32(f(x, y)),
        (DynTensor::I64(x), DynTensor::I64(y)) => DynTensor::I64(g(x, y)),
        _ => panic!(
            "binary op dtype mismatch: {:?} vs {:?}",
            a.dtype(),
            b.dtype()
        ),
    }
}

fn cmp_op(
    a: &DynTensor,
    b: &DynTensor,
    f: impl Fn(&Tensor<f32>, &Tensor<f32>) -> Tensor<bool>,
    g: impl Fn(&Tensor<i64>, &Tensor<i64>) -> Tensor<bool>,
) -> DynTensor {
    match (a, b) {
        (DynTensor::F32(x), DynTensor::F32(y)) => DynTensor::Bool(f(x, y)),
        (DynTensor::I64(x), DynTensor::I64(y)) => DynTensor::Bool(g(x, y)),
        _ => panic!(
            "comparison dtype mismatch: {:?} vs {:?}",
            a.dtype(),
            b.dtype()
        ),
    }
}

impl Op {
    /// Number of inputs this op consumes (`None` = variadic).
    pub fn arity(&self) -> Option<usize> {
        Some(match self {
            Op::Input(_) | Op::Const(_) => 0,
            Op::MatMul
            | Op::Add
            | Op::Sub
            | Op::Mul
            | Op::Div
            | Op::Minimum
            | Op::Maximum
            | Op::Lt
            | Op::Le
            | Op::Gt
            | Op::Ge
            | Op::EqOp
            | Op::NeOp
            | Op::And
            | Op::Or
            | Op::Xor
            | Op::Gather { .. }
            | Op::GatherRows
            | Op::Sqdist => 2,
            Op::Where => 3,
            Op::TreeWalk { kind, .. } => kind.arity(),
            Op::Concat { .. } => return None,
            Op::Fused(k) => k.n_inputs,
            _ => 1,
        })
    }

    /// Evaluates the operator over already-computed inputs.
    ///
    /// # Panics
    ///
    /// Panics on dtype or shape mismatches — compiled graphs are validated
    /// by construction and by the output-validation test suite.
    pub fn eval(&self, inputs: &[&DynTensor]) -> DynTensor {
        match self {
            Op::Input(_) => panic!("Input nodes are resolved by the executor"),
            Op::Const(v) => v.clone(),
            Op::MatMul => DynTensor::F32(inputs[0].as_f32().matmul(inputs[1].as_f32())),
            Op::Add => bin_f32(inputs[0], inputs[1], |a, b| a.add(b), |a, b| a.add(b)),
            Op::Sub => bin_f32(inputs[0], inputs[1], |a, b| a.sub(b), |a, b| a.sub(b)),
            Op::Mul => bin_f32(inputs[0], inputs[1], |a, b| a.mul(b), |a, b| a.mul(b)),
            Op::Div => bin_f32(inputs[0], inputs[1], |a, b| a.div(b), |a, b| a.div(b)),
            Op::Minimum => bin_f32(
                inputs[0],
                inputs[1],
                |a, b| a.minimum(b),
                |a, b| a.minimum(b),
            ),
            Op::Maximum => bin_f32(
                inputs[0],
                inputs[1],
                |a, b| a.maximum(b),
                |a, b| a.maximum(b),
            ),
            Op::AddScalar(s) => match inputs[0] {
                DynTensor::F32(t) => DynTensor::F32(t.add_scalar(*s as f32)),
                DynTensor::I64(t) => DynTensor::I64(t.add_scalar(*s as i64)),
                other => panic!("add_scalar on {:?}", other.dtype()),
            },
            Op::MulScalar(s) => match inputs[0] {
                DynTensor::F32(t) => DynTensor::F32(t.mul_scalar(*s as f32)),
                DynTensor::I64(t) => DynTensor::I64(t.mul_scalar(*s as i64)),
                other => panic!("mul_scalar on {:?}", other.dtype()),
            },
            Op::PowScalar(e) => DynTensor::F32(inputs[0].as_f32().pow_scalar(*e as f32)),
            Op::Lt => cmp_op(inputs[0], inputs[1], |a, b| a.lt(b), |a, b| a.lt(b)),
            Op::Le => cmp_op(inputs[0], inputs[1], |a, b| a.le(b), |a, b| a.le(b)),
            Op::Gt => cmp_op(inputs[0], inputs[1], |a, b| a.gt(b), |a, b| a.gt(b)),
            Op::Ge => cmp_op(inputs[0], inputs[1], |a, b| a.ge(b), |a, b| a.ge(b)),
            Op::EqOp => cmp_op(inputs[0], inputs[1], |a, b| a.eq_t(b), |a, b| a.eq_t(b)),
            Op::NeOp => cmp_op(inputs[0], inputs[1], |a, b| a.ne_t(b), |a, b| a.ne_t(b)),
            Op::And => DynTensor::Bool(inputs[0].as_bool().and(inputs[1].as_bool())),
            Op::Or => DynTensor::Bool(inputs[0].as_bool().or(inputs[1].as_bool())),
            Op::Xor => DynTensor::Bool(inputs[0].as_bool().xor(inputs[1].as_bool())),
            Op::Not => DynTensor::Bool(inputs[0].as_bool().not()),
            Op::Where => {
                let cond = inputs[0].as_bool();
                match (inputs[1], inputs[2]) {
                    (DynTensor::F32(a), DynTensor::F32(b)) => {
                        DynTensor::F32(cond.where_select(a, b))
                    }
                    (DynTensor::I64(a), DynTensor::I64(b)) => {
                        DynTensor::I64(cond.where_select(a, b))
                    }
                    _ => panic!("where branches must share a dtype"),
                }
            }
            Op::Gather { axis } => {
                let idx = inputs[1].as_i64();
                match inputs[0] {
                    DynTensor::F32(t) => DynTensor::F32(t.gather(*axis, idx)),
                    DynTensor::I64(t) => DynTensor::I64(t.gather(*axis, idx)),
                    other => panic!("gather on {:?}", other.dtype()),
                }
            }
            Op::GatherRows => {
                let idx = inputs[1].as_i64();
                match inputs[0] {
                    DynTensor::F32(t) => DynTensor::F32(t.gather_rows(idx)),
                    DynTensor::I64(t) => DynTensor::I64(t.gather_rows(idx)),
                    other => panic!("gather_rows on {:?}", other.dtype()),
                }
            }
            Op::TreeWalk { kind, depth } => walk::tree_walk(*kind, *depth, inputs),
            Op::IndexSelect { axis, indices } => match inputs[0] {
                DynTensor::F32(t) => DynTensor::F32(t.index_select(*axis, indices)),
                DynTensor::I64(t) => DynTensor::I64(t.index_select(*axis, indices)),
                other => panic!("index_select on {:?}", other.dtype()),
            },
            Op::Concat { axis } => match inputs[0] {
                DynTensor::F32(_) => {
                    let ts: Vec<&Tensor<f32>> = inputs.iter().map(|t| t.as_f32()).collect();
                    DynTensor::F32(Tensor::concat(&ts, *axis))
                }
                DynTensor::I64(_) => {
                    let ts: Vec<&Tensor<i64>> = inputs.iter().map(|t| t.as_i64()).collect();
                    DynTensor::I64(Tensor::concat(&ts, *axis))
                }
                other => panic!("concat on {:?}", other.dtype()),
            },
            Op::Reshape { dims } => {
                let shape = resolve_reshape(inputs[0].shape(), dims);
                inputs[0].reshape(&shape)
            }
            Op::Unsqueeze(axis) => match inputs[0] {
                DynTensor::F32(t) => DynTensor::F32(t.unsqueeze(*axis)),
                DynTensor::I64(t) => DynTensor::I64(t.unsqueeze(*axis)),
                DynTensor::U8(t) => DynTensor::U8(t.unsqueeze(*axis)),
                DynTensor::Bool(t) => DynTensor::Bool(t.unsqueeze(*axis)),
            },
            Op::Squeeze(axis) => match inputs[0] {
                DynTensor::F32(t) => DynTensor::F32(t.squeeze(*axis)),
                DynTensor::I64(t) => DynTensor::I64(t.squeeze(*axis)),
                DynTensor::U8(t) => DynTensor::U8(t.squeeze(*axis)),
                DynTensor::Bool(t) => DynTensor::Bool(t.squeeze(*axis)),
            },
            Op::Transpose(a, b) => match inputs[0] {
                DynTensor::F32(t) => DynTensor::F32(t.transpose(*a, *b)),
                DynTensor::I64(t) => DynTensor::I64(t.transpose(*a, *b)),
                DynTensor::U8(t) => DynTensor::U8(t.transpose(*a, *b)),
                DynTensor::Bool(t) => DynTensor::Bool(t.transpose(*a, *b)),
            },
            Op::Slice { axis, start, end } => match inputs[0] {
                DynTensor::F32(t) => DynTensor::F32(t.slice(*axis, *start, *end)),
                DynTensor::I64(t) => DynTensor::I64(t.slice(*axis, *start, *end)),
                DynTensor::U8(t) => DynTensor::U8(t.slice(*axis, *start, *end)),
                DynTensor::Bool(t) => DynTensor::Bool(t.slice(*axis, *start, *end)),
            },
            Op::Sum { axis, keepdim } => match inputs[0] {
                DynTensor::F32(t) => DynTensor::F32(t.sum_axis(*axis, *keepdim)),
                DynTensor::I64(t) => DynTensor::I64(t.sum_axis(*axis, *keepdim)),
                other => panic!("sum on {:?}", other.dtype()),
            },
            Op::Mean { axis, keepdim } => {
                DynTensor::F32(inputs[0].as_f32().mean_axis(*axis, *keepdim))
            }
            Op::ReduceMax { axis, keepdim } => match inputs[0] {
                DynTensor::F32(t) => DynTensor::F32(t.max_axis(*axis, *keepdim)),
                DynTensor::I64(t) => DynTensor::I64(t.max_axis(*axis, *keepdim)),
                other => panic!("max on {:?}", other.dtype()),
            },
            Op::ArgMax { axis, keepdim } => match inputs[0] {
                DynTensor::F32(t) => DynTensor::I64(t.argmax_axis(*axis, *keepdim)),
                DynTensor::I64(t) => DynTensor::I64(t.argmax_axis(*axis, *keepdim)),
                other => panic!("argmax on {:?}", other.dtype()),
            },
            Op::LogSumExp { axis, keepdim } => {
                DynTensor::F32(inputs[0].as_f32().logsumexp_axis(*axis, *keepdim))
            }
            Op::Softmax { axis } => DynTensor::F32(inputs[0].as_f32().softmax_axis(*axis)),
            Op::Relu => DynTensor::F32(inputs[0].as_f32().relu()),
            Op::Sigmoid => DynTensor::F32(inputs[0].as_f32().sigmoid()),
            Op::Tanh => DynTensor::F32(inputs[0].as_f32().tanh_t()),
            Op::Exp => DynTensor::F32(inputs[0].as_f32().exp_t()),
            Op::Ln => DynTensor::F32(inputs[0].as_f32().ln_t()),
            Op::Sqrt => DynTensor::F32(inputs[0].as_f32().sqrt_t()),
            Op::Abs => DynTensor::F32(inputs[0].as_f32().abs_t()),
            Op::Neg => DynTensor::F32(inputs[0].as_f32().neg()),
            Op::IsNan => DynTensor::Bool(inputs[0].as_f32().isnan()),
            Op::Clamp { lo, hi } => DynTensor::F32(inputs[0].as_f32().clamp(*lo, *hi)),
            Op::Cast(dt) => inputs[0].cast(*dt),
            Op::Sqdist => DynTensor::F32(inputs[0].as_f32().sqdist(inputs[1].as_f32())),
            Op::Fused(k) => k.eval(inputs),
        }
    }

    /// True if [`Op::eval_into`] can realize this op for the given input
    /// dtypes and planned output dtype.
    ///
    /// The memory planner consults this at plan time: supported kernels
    /// become arena writes; everything else falls back to the allocating
    /// [`Op::eval`] path (the allocation counter makes such gaps visible).
    /// This list must stay in sync with the `eval_into` match.
    pub fn supports_into(&self, in_dtypes: &[DType], out_dtype: DType) -> bool {
        use DType::{Bool, F32, I64};
        let all_in = |dt: DType| in_dtypes.iter().all(|&d| d == dt);
        match self {
            Op::MatMul | Op::Sqdist => out_dtype == F32 && all_in(F32),
            Op::Add | Op::Sub | Op::Mul | Op::Div | Op::Minimum | Op::Maximum => {
                (out_dtype == F32 && all_in(F32)) || (out_dtype == I64 && all_in(I64))
            }
            Op::AddScalar(_) | Op::MulScalar(_) => {
                matches!(out_dtype, F32 | I64) && all_in(out_dtype)
            }
            Op::PowScalar(_)
            | Op::Relu
            | Op::Sigmoid
            | Op::Tanh
            | Op::Exp
            | Op::Ln
            | Op::Sqrt
            | Op::Abs
            | Op::Neg
            | Op::Clamp { .. }
            | Op::Softmax { .. }
            | Op::LogSumExp { .. }
            | Op::Mean { .. } => out_dtype == F32 && all_in(F32),
            Op::Lt | Op::Le | Op::Gt | Op::Ge | Op::EqOp | Op::NeOp => {
                out_dtype == Bool && (all_in(F32) || all_in(I64))
            }
            Op::And | Op::Or | Op::Xor | Op::Not => out_dtype == Bool && all_in(Bool),
            Op::IsNan => out_dtype == Bool && all_in(F32),
            Op::Where => {
                in_dtypes.len() == 3
                    && in_dtypes[0] == Bool
                    && in_dtypes[1] == out_dtype
                    && in_dtypes[2] == out_dtype
                    && matches!(out_dtype, F32 | I64)
            }
            Op::Gather { .. } | Op::GatherRows => {
                in_dtypes.len() == 2
                    && in_dtypes[0] == out_dtype
                    && in_dtypes[1] == I64
                    && matches!(out_dtype, F32 | I64)
            }
            Op::TreeWalk { kind, .. } => {
                out_dtype == I64
                    && in_dtypes.len() == kind.arity()
                    && in_dtypes[0] == F32
                    && in_dtypes[1] == I64
                    && in_dtypes[2] == F32
                    && in_dtypes[3..].iter().all(|&d| d == I64)
            }
            Op::IndexSelect { .. } | Op::Concat { .. } => {
                matches!(out_dtype, F32 | I64) && all_in(out_dtype)
            }
            Op::Sum { .. } | Op::ReduceMax { .. } => {
                matches!(out_dtype, F32 | I64) && all_in(out_dtype)
            }
            Op::ArgMax { .. } => out_dtype == I64 && (all_in(F32) || all_in(I64)),
            // Same-dtype casts are identity views, planned as aliases.
            Op::Cast(dt) => {
                *dt == out_dtype
                    && matches!(out_dtype, F32 | I64 | Bool)
                    && in_dtypes.first().is_some_and(|&d| d != out_dtype)
            }
            Op::Fused(k) => out_dtype == F32 && k.out_dtype == F32,
            // Inputs, constants, and metadata ops are planned as values or
            // views, never as arena kernels.
            _ => false,
        }
    }

    /// True for simple f32 unary maps — the ops eligible for the memory
    /// planner's in-place rule (output overwrites a dying input's slot).
    pub fn is_unary_f32_map(&self) -> bool {
        matches!(
            self,
            Op::Relu
                | Op::Sigmoid
                | Op::Tanh
                | Op::Exp
                | Op::Ln
                | Op::Sqrt
                | Op::Abs
                | Op::Neg
                | Op::Clamp { .. }
                | Op::PowScalar(_)
                | Op::AddScalar(_)
                | Op::MulScalar(_)
        )
    }

    /// Applies a unary f32 map directly over `buf` — the planner's
    /// in-place execution path. Element functions are shared verbatim with
    /// [`Op::eval_into`], so results stay bit-identical.
    ///
    /// # Panics
    ///
    /// Panics unless [`Op::is_unary_f32_map`] holds.
    pub fn apply_inplace_f32(&self, buf: &mut [f32]) {
        fn apply(buf: &mut [f32], f: impl Fn(f32) -> f32) {
            for v in buf.iter_mut() {
                *v = f(*v);
            }
        }
        match self {
            Op::Relu => apply(buf, |x| if x < 0.0 { 0.0 } else { x }),
            Op::Sigmoid => apply(buf, |x| 1.0 / (1.0 + (-x).exp())),
            Op::Tanh => apply(buf, f32::tanh),
            Op::Exp => apply(buf, f32::exp),
            Op::Ln => apply(buf, f32::ln),
            Op::Sqrt => apply(buf, f32::sqrt),
            Op::Abs => apply(buf, f32::abs),
            Op::Neg => apply(buf, |x| -x),
            Op::Clamp { lo, hi } => {
                let (lo, hi) = (*lo, *hi);
                apply(buf, move |x| {
                    if x < lo {
                        lo
                    } else if x > hi {
                        hi
                    } else {
                        x
                    }
                })
            }
            Op::PowScalar(e) => {
                let v = *e as f32;
                apply(buf, move |x| x.powf(v))
            }
            Op::AddScalar(s) => {
                let v = *s as f32;
                apply(buf, move |x| x + v)
            }
            Op::MulScalar(s) => {
                let v = *s as f32;
                apply(buf, move |x| x * v)
            }
            other => panic!("apply_inplace_f32 on non-unary op {}", other.label()),
        }
    }

    /// Evaluates the operator into a caller-provided destination slice —
    /// the planned executor's allocation-free twin of [`Op::eval`].
    ///
    /// The destination is a uniquely-owned window of an arena slot sized
    /// to the output's element count; it is fully overwritten. Results are
    /// bit-identical to [`Op::eval`] (both dispatch to the same kernels or
    /// to `_into` variants replaying the same per-element operations).
    ///
    /// # Panics
    ///
    /// Panics when the op/dtype combination is unsupported (the planner
    /// must gate on [`Op::supports_into`]) or on shape mismatches, exactly
    /// like [`Op::eval`].
    pub fn eval_into(&self, inputs: &[&DynTensor], out: DestMut<'_>) {
        use hb_tensor::elementwise::zip_map_into;
        match (self, out) {
            (Op::MatMul, DestMut::F32(o)) => inputs[0].as_f32().matmul_into(inputs[1].as_f32(), o),
            (Op::Add, DestMut::F32(o)) => {
                zip_map_into(inputs[0].as_f32(), inputs[1].as_f32(), o, |a, b| a + b)
            }
            (Op::Add, DestMut::I64(o)) => {
                zip_map_into(inputs[0].as_i64(), inputs[1].as_i64(), o, |a, b| a + b)
            }
            (Op::Sub, DestMut::F32(o)) => {
                zip_map_into(inputs[0].as_f32(), inputs[1].as_f32(), o, |a, b| a - b)
            }
            (Op::Sub, DestMut::I64(o)) => {
                zip_map_into(inputs[0].as_i64(), inputs[1].as_i64(), o, |a, b| a - b)
            }
            (Op::Mul, DestMut::F32(o)) => {
                zip_map_into(inputs[0].as_f32(), inputs[1].as_f32(), o, |a, b| a * b)
            }
            (Op::Mul, DestMut::I64(o)) => {
                zip_map_into(inputs[0].as_i64(), inputs[1].as_i64(), o, |a, b| a * b)
            }
            (Op::Div, DestMut::F32(o)) => {
                zip_map_into(inputs[0].as_f32(), inputs[1].as_f32(), o, |a, b| a / b)
            }
            (Op::Div, DestMut::I64(o)) => {
                zip_map_into(inputs[0].as_i64(), inputs[1].as_i64(), o, |a, b| a / b)
            }
            (Op::Minimum, DestMut::F32(o)) => {
                zip_map_into(inputs[0].as_f32(), inputs[1].as_f32(), o, |a, b| {
                    if b < a {
                        b
                    } else {
                        a
                    }
                })
            }
            (Op::Minimum, DestMut::I64(o)) => {
                zip_map_into(inputs[0].as_i64(), inputs[1].as_i64(), o, |a, b| {
                    if b < a {
                        b
                    } else {
                        a
                    }
                })
            }
            (Op::Maximum, DestMut::F32(o)) => {
                zip_map_into(inputs[0].as_f32(), inputs[1].as_f32(), o, |a, b| {
                    if b > a {
                        b
                    } else {
                        a
                    }
                })
            }
            (Op::Maximum, DestMut::I64(o)) => {
                zip_map_into(inputs[0].as_i64(), inputs[1].as_i64(), o, |a, b| {
                    if b > a {
                        b
                    } else {
                        a
                    }
                })
            }
            (Op::AddScalar(s), DestMut::F32(o)) => {
                let v = *s as f32;
                inputs[0].as_f32().map_into(o, move |x| x + v)
            }
            (Op::AddScalar(s), DestMut::I64(o)) => {
                let v = *s as i64;
                inputs[0].as_i64().map_into(o, move |x| x + v)
            }
            (Op::MulScalar(s), DestMut::F32(o)) => {
                let v = *s as f32;
                inputs[0].as_f32().map_into(o, move |x| x * v)
            }
            (Op::MulScalar(s), DestMut::I64(o)) => {
                let v = *s as i64;
                inputs[0].as_i64().map_into(o, move |x| x * v)
            }
            (Op::PowScalar(e), DestMut::F32(o)) => {
                let v = *e as f32;
                inputs[0].as_f32().map_into(o, move |x| x.powf(v))
            }
            (Op::Lt, DestMut::Bool(o)) => match inputs[0] {
                DynTensor::F32(_) => {
                    zip_map_into(inputs[0].as_f32(), inputs[1].as_f32(), o, |a, b| a < b)
                }
                _ => zip_map_into(inputs[0].as_i64(), inputs[1].as_i64(), o, |a, b| a < b),
            },
            (Op::Le, DestMut::Bool(o)) => match inputs[0] {
                DynTensor::F32(_) => {
                    zip_map_into(inputs[0].as_f32(), inputs[1].as_f32(), o, |a, b| a <= b)
                }
                _ => zip_map_into(inputs[0].as_i64(), inputs[1].as_i64(), o, |a, b| a <= b),
            },
            (Op::Gt, DestMut::Bool(o)) => match inputs[0] {
                DynTensor::F32(_) => {
                    zip_map_into(inputs[0].as_f32(), inputs[1].as_f32(), o, |a, b| a > b)
                }
                _ => zip_map_into(inputs[0].as_i64(), inputs[1].as_i64(), o, |a, b| a > b),
            },
            (Op::Ge, DestMut::Bool(o)) => match inputs[0] {
                DynTensor::F32(_) => {
                    zip_map_into(inputs[0].as_f32(), inputs[1].as_f32(), o, |a, b| a >= b)
                }
                _ => zip_map_into(inputs[0].as_i64(), inputs[1].as_i64(), o, |a, b| a >= b),
            },
            (Op::EqOp, DestMut::Bool(o)) => match inputs[0] {
                DynTensor::F32(_) => {
                    zip_map_into(inputs[0].as_f32(), inputs[1].as_f32(), o, |a, b| a == b)
                }
                _ => zip_map_into(inputs[0].as_i64(), inputs[1].as_i64(), o, |a, b| a == b),
            },
            (Op::NeOp, DestMut::Bool(o)) => match inputs[0] {
                DynTensor::F32(_) => {
                    zip_map_into(inputs[0].as_f32(), inputs[1].as_f32(), o, |a, b| a != b)
                }
                _ => zip_map_into(inputs[0].as_i64(), inputs[1].as_i64(), o, |a, b| a != b),
            },
            (Op::And, DestMut::Bool(o)) => {
                zip_map_into(inputs[0].as_bool(), inputs[1].as_bool(), o, |a, b| a && b)
            }
            (Op::Or, DestMut::Bool(o)) => {
                zip_map_into(inputs[0].as_bool(), inputs[1].as_bool(), o, |a, b| a || b)
            }
            (Op::Xor, DestMut::Bool(o)) => {
                zip_map_into(inputs[0].as_bool(), inputs[1].as_bool(), o, |a, b| a ^ b)
            }
            (Op::Not, DestMut::Bool(o)) => inputs[0].as_bool().map_into(o, |a| !a),
            (Op::IsNan, DestMut::Bool(o)) => inputs[0].as_f32().map_into(o, |x| x.is_nan()),
            (Op::Where, DestMut::F32(o)) => {
                inputs[0]
                    .as_bool()
                    .where_select_into(inputs[1].as_f32(), inputs[2].as_f32(), o)
            }
            (Op::Where, DestMut::I64(o)) => {
                inputs[0]
                    .as_bool()
                    .where_select_into(inputs[1].as_i64(), inputs[2].as_i64(), o)
            }
            (Op::Gather { axis }, DestMut::F32(o)) => {
                inputs[0].as_f32().gather_into(*axis, inputs[1].as_i64(), o)
            }
            (Op::Gather { axis }, DestMut::I64(o)) => {
                inputs[0].as_i64().gather_into(*axis, inputs[1].as_i64(), o)
            }
            (Op::GatherRows, DestMut::F32(o)) => {
                inputs[0].as_f32().gather_rows_into(inputs[1].as_i64(), o)
            }
            (Op::GatherRows, DestMut::I64(o)) => {
                inputs[0].as_i64().gather_rows_into(inputs[1].as_i64(), o)
            }
            (Op::TreeWalk { kind, depth }, DestMut::I64(o)) => {
                walk::tree_walk_into(*kind, *depth, inputs, o)
            }
            (Op::IndexSelect { axis, indices }, DestMut::F32(o)) => {
                inputs[0].as_f32().index_select_into(*axis, indices, o)
            }
            (Op::IndexSelect { axis, indices }, DestMut::I64(o)) => {
                inputs[0].as_i64().index_select_into(*axis, indices, o)
            }
            (Op::Concat { axis }, DestMut::F32(o)) => {
                let ts: Vec<&Tensor<f32>> = inputs.iter().map(|t| t.as_f32()).collect();
                Tensor::concat_into(&ts, *axis, o)
            }
            (Op::Concat { axis }, DestMut::I64(o)) => {
                let ts: Vec<&Tensor<i64>> = inputs.iter().map(|t| t.as_i64()).collect();
                Tensor::concat_into(&ts, *axis, o)
            }
            (Op::Sum { axis, .. }, DestMut::F32(o)) => inputs[0].as_f32().sum_axis_into(*axis, o),
            (Op::Sum { axis, .. }, DestMut::I64(o)) => inputs[0].as_i64().sum_axis_into(*axis, o),
            (Op::Mean { axis, .. }, DestMut::F32(o)) => inputs[0].as_f32().mean_axis_into(*axis, o),
            (Op::ReduceMax { axis, .. }, DestMut::F32(o)) => {
                inputs[0].as_f32().max_axis_into(*axis, o)
            }
            (Op::ReduceMax { axis, .. }, DestMut::I64(o)) => {
                inputs[0].as_i64().max_axis_into(*axis, o)
            }
            (Op::ArgMax { axis, .. }, DestMut::I64(o)) => match inputs[0] {
                DynTensor::F32(t) => t.argmax_axis_into(*axis, o),
                _ => inputs[0].as_i64().argmax_axis_into(*axis, o),
            },
            (Op::LogSumExp { axis, .. }, DestMut::F32(o)) => {
                inputs[0].as_f32().logsumexp_axis_into(*axis, o)
            }
            (Op::Softmax { axis }, DestMut::F32(o)) => {
                inputs[0].as_f32().softmax_axis_into(*axis, o)
            }
            // Conversions mirror `DynTensor::cast` exactly.
            (Op::Cast(_), DestMut::F32(o)) => match inputs[0] {
                DynTensor::I64(t) => t.map_into(o, |v| v as f32),
                DynTensor::U8(t) => t.map_into(o, |v| v as f32),
                DynTensor::Bool(t) => t.map_into(o, |v| if v { 1.0 } else { 0.0 }),
                DynTensor::F32(_) => panic!("identity cast is planned as a view"),
            },
            (Op::Cast(_), DestMut::I64(o)) => match inputs[0] {
                DynTensor::F32(t) => t.map_into(o, |v| v as i64),
                DynTensor::U8(t) => t.map_into(o, |v| v as i64),
                DynTensor::Bool(t) => t.map_into(o, |v| v as i64),
                DynTensor::I64(_) => panic!("identity cast is planned as a view"),
            },
            (Op::Cast(_), DestMut::Bool(o)) => match inputs[0] {
                DynTensor::F32(t) => t.map_into(o, |v| v != 0.0),
                DynTensor::I64(t) => t.map_into(o, |v| v != 0),
                DynTensor::U8(t) => t.map_into(o, |v| v != 0),
                DynTensor::Bool(_) => panic!("identity cast is planned as a view"),
            },
            (Op::Relu, DestMut::F32(o)) => {
                inputs[0]
                    .as_f32()
                    .map_into(o, |x| if x < 0.0 { 0.0 } else { x })
            }
            (Op::Sigmoid, DestMut::F32(o)) => {
                inputs[0].as_f32().map_into(o, |x| 1.0 / (1.0 + (-x).exp()))
            }
            (Op::Tanh, DestMut::F32(o)) => inputs[0].as_f32().map_into(o, f32::tanh),
            (Op::Exp, DestMut::F32(o)) => inputs[0].as_f32().map_into(o, f32::exp),
            (Op::Ln, DestMut::F32(o)) => inputs[0].as_f32().map_into(o, f32::ln),
            (Op::Sqrt, DestMut::F32(o)) => inputs[0].as_f32().map_into(o, f32::sqrt),
            (Op::Abs, DestMut::F32(o)) => inputs[0].as_f32().map_into(o, f32::abs),
            (Op::Neg, DestMut::F32(o)) => inputs[0].as_f32().map_into(o, |x| -x),
            (Op::Clamp { lo, hi }, DestMut::F32(o)) => {
                let (lo, hi) = (*lo, *hi);
                inputs[0].as_f32().map_into(o, move |x| {
                    if x < lo {
                        lo
                    } else if x > hi {
                        hi
                    } else {
                        x
                    }
                })
            }
            (Op::Sqdist, DestMut::F32(o)) => {
                // Composite (matmul + row norms); the into variant reuses
                // the allocating kernel for the intermediates and writes
                // only the final subtraction into the arena.
                inputs[0]
                    .as_f32()
                    .sqdist(inputs[1].as_f32())
                    .map_into(o, |v| v)
            }
            (Op::Fused(k), DestMut::F32(o)) => k.eval_into(inputs, o),
            (op, _) => panic!("eval_into unsupported for {}", op.label()),
        }
    }

    /// Estimates the roofline cost of one execution with the given inputs
    /// and output.
    pub fn cost(&self, inputs: &[&DynTensor], output: &DynTensor) -> OpCost {
        let in_bytes: f64 = inputs.iter().map(|t| t.nbytes() as f64).sum();
        let out_bytes = output.nbytes() as f64;
        let out_n = output.numel() as f64;
        let mut c = match self {
            Op::Input(_) | Op::Const(_) => OpCost {
                metadata_only: true,
                ..OpCost::default()
            },
            Op::Reshape { .. }
            | Op::Unsqueeze(_)
            | Op::Squeeze(_)
            | Op::Transpose(..)
            | Op::Slice { .. } => OpCost {
                metadata_only: true,
                ..OpCost::default()
            },
            Op::MatMul => {
                let a = inputs[0].shape();
                let b = inputs[1].shape();
                let m = a[a.len() - 2] as f64;
                let k = a[a.len() - 1] as f64;
                let n = b[b.len() - 1] as f64;
                let batch = out_n / (m * n).max(1.0);
                OpCost {
                    flops: 2.0 * m * k * n * batch.max(1.0),
                    bytes: in_bytes + out_bytes,
                    ..OpCost::default()
                }
            }
            Op::Sqdist => {
                let n = inputs[0].shape()[0] as f64;
                let m = inputs[1].shape()[0] as f64;
                let d = inputs[0].shape()[1] as f64;
                OpCost {
                    flops: 2.0 * n * m * d + 3.0 * n * m,
                    bytes: in_bytes + out_bytes,
                    ..OpCost::default()
                }
            }
            // Transcendentals cost several FLOPs per element.
            Op::Exp | Op::Ln | Op::Sqrt | Op::Tanh | Op::Sigmoid | Op::PowScalar(_) => OpCost {
                flops: 10.0 * out_n,
                bytes: in_bytes + out_bytes,
                ..OpCost::default()
            },
            Op::Softmax { .. } | Op::LogSumExp { .. } => OpCost {
                flops: 12.0 * inputs[0].numel() as f64,
                bytes: 2.0 * in_bytes + out_bytes,
                ..OpCost::default()
            },
            // Random-access gathers are bandwidth-hostile: charge the
            // output twice to model uncoalesced reads.
            Op::Gather { .. } | Op::GatherRows | Op::IndexSelect { .. } => OpCost {
                flops: out_n,
                bytes: 2.0 * out_bytes + inputs.last().map(|t| t.nbytes() as f64).unwrap_or(0.0),
                ..OpCost::default()
            },
            Op::Fused(k) => OpCost {
                flops: k.program_len() as f64 * out_n,
                bytes: in_bytes + out_bytes,
                ..OpCost::default()
            },
            // One comparison per (tree, record, level). Shape-only, like
            // every other rule: TT's early exit at shallow leaves makes
            // the real step count data-dependent, and a certificate must
            // equal the measured counter for every input.
            Op::TreeWalk { depth, .. } => OpCost {
                flops: out_n * *depth as f64,
                bytes: in_bytes + out_bytes,
                traversals: out_n * *depth as f64,
                ..OpCost::default()
            },
            _ => OpCost {
                flops: out_n,
                bytes: in_bytes + out_bytes,
                ..OpCost::default()
            },
        };
        // Every launched kernel traverses each output element exactly
        // once (a tree walk once per level); metadata ops traverse
        // nothing. `hb-backend::cost` mirrors this definition
        // symbolically, so the two must agree.
        if !c.metadata_only && !matches!(self, Op::TreeWalk { .. }) {
            c.traversals = out_n;
        }
        c
    }

    /// Stable key used for common-subexpression elimination; `None` for
    /// ops that must never merge (inputs, constants, fused kernels).
    pub fn cse_key(&self) -> Option<String> {
        match self {
            Op::Input(_) | Op::Const(_) | Op::Fused(_) => None,
            other => Some(format!("{other:?}")),
        }
    }

    /// Short operator label for diagnostics; constants and fused kernels
    /// elide their payloads.
    pub fn label(&self) -> String {
        match self {
            Op::Const(v) => format!("Const({:?}{:?})", v.dtype(), v.shape()),
            Op::Fused(k) => format!("Fused({} inputs)", k.n_inputs),
            other => format!("{other:?}"),
        }
    }

    /// Infers the node's symbolic output shape from its operands',
    /// proving broadcast legality, matmul/gather conformability, reshape
    /// resolution, and compile-time index ranges along the way.
    ///
    /// `ins` and `in_consts` run parallel to the node's operands
    /// (`in_consts[i]` is the operand's value when it is a `Const`
    /// node, enabling static index-range checks); `graph_inputs` is the
    /// graph's declared per-slot input shape. Unknown dims and
    /// [`ShapeFact::Any`] operands absorb every check, so the verifier
    /// only reports *provable* defects.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError::ShapeMismatch`],
    /// [`GraphError::IndexOutOfRange`], or [`GraphError::BadReshape`]
    /// naming `node` and the inferred operand shapes.
    pub fn shape_infer(
        &self,
        node: NodeId,
        ins: &[ShapeFact],
        in_consts: &[Option<&DynTensor>],
        graph_inputs: &[ShapeFact],
    ) -> Result<ShapeFact, GraphError> {
        let err = |detail: String| GraphError::ShapeMismatch {
            node,
            op: self.label(),
            operands: ins.to_vec(),
            detail,
        };
        match self {
            Op::Input(slot) => Ok(graph_inputs.get(*slot).cloned().unwrap_or(ShapeFact::Any)),
            Op::Const(v) => Ok(ShapeFact::fixed(v.shape())),

            // Element-wise binaries broadcast their two operands.
            Op::Add
            | Op::Sub
            | Op::Mul
            | Op::Div
            | Op::Minimum
            | Op::Maximum
            | Op::Lt
            | Op::Le
            | Op::Gt
            | Op::Ge
            | Op::EqOp
            | Op::NeOp
            | Op::And
            | Op::Or
            | Op::Xor => broadcast_facts(&ins[0], &ins[1]).map_err(err),

            Op::Where => {
                let cond_then = broadcast_facts(&ins[0], &ins[1]).map_err(&err)?;
                broadcast_facts(&cond_then, &ins[2]).map_err(err)
            }

            // A fused kernel broadcasts all of its inputs together.
            Op::Fused(_) => {
                let mut acc = match ins.first() {
                    Some(s) => s.clone(),
                    None => return Ok(ShapeFact::Any),
                };
                for s in &ins[1..] {
                    acc = broadcast_facts(&acc, s).map_err(&err)?;
                }
                Ok(acc)
            }

            Op::MatMul => {
                let (Some(da), Some(db)) = (ins[0].dims(), ins[1].dims()) else {
                    return Ok(ShapeFact::Any);
                };
                if da.len() < 2 || db.len() < 2 {
                    return Err(err(format!(
                        "matmul needs rank >= 2 operands, got rank {} and {}",
                        da.len(),
                        db.len()
                    )));
                }
                let (m, k) = (da[da.len() - 2], da[da.len() - 1]);
                let (k2, n) = (db[db.len() - 2], db[db.len() - 1]);
                if k.known_eq(k2) == Some(false) {
                    return Err(err(format!("inner dimensions {k} and {k2} differ")));
                }
                let mut out =
                    broadcast_dims(&da[..da.len() - 2], &db[..db.len() - 2]).map_err(err)?;
                out.push(m);
                out.push(n);
                Ok(ShapeFact::Known(out))
            }

            Op::Sqdist => {
                let (Some(da), Some(db)) = (ins[0].dims(), ins[1].dims()) else {
                    return Ok(ShapeFact::Any);
                };
                if da.len() != 2 || db.len() != 2 {
                    return Err(err(format!(
                        "sqdist needs rank-2 operands, got rank {} and {}",
                        da.len(),
                        db.len()
                    )));
                }
                if da[1].known_eq(db[1]) == Some(false) {
                    return Err(err(format!(
                        "feature dimensions {} and {} differ",
                        da[1], db[1]
                    )));
                }
                Ok(ShapeFact::Known(vec![da[0], db[0]]))
            }

            Op::Gather { axis } => match (ins[0].dims(), ins[1].dims()) {
                (Some(d), Some(ix)) => {
                    if ix.len() != d.len() {
                        return Err(err(format!(
                            "gather index rank {} != data rank {}",
                            ix.len(),
                            d.len()
                        )));
                    }
                    if *axis >= d.len() {
                        return Err(err(format!(
                            "gather axis {axis} out of range for rank {}",
                            d.len()
                        )));
                    }
                    for i in 0..d.len() {
                        if i != *axis && ix[i].known_le(d[i]) == Some(false) {
                            return Err(err(format!(
                                "index dimension {i} ({}) exceeds data dimension ({})",
                                ix[i], d[i]
                            )));
                        }
                    }
                    check_const_indices(node, self, in_consts[1], d[*axis])?;
                    Ok(ShapeFact::Known(ix.to_vec()))
                }
                (Some(d), None) => {
                    if *axis >= d.len() {
                        return Err(err(format!(
                            "gather axis {axis} out of range for rank {}",
                            d.len()
                        )));
                    }
                    Ok(ShapeFact::Any)
                }
                // The output shape is the index shape even when the data
                // shape is unknown.
                (None, Some(ix)) => Ok(ShapeFact::Known(ix.to_vec())),
                (None, None) => Ok(ShapeFact::Any),
            },

            Op::GatherRows => match (ins[0].dims(), ins[1].dims()) {
                (Some(d), Some(ix)) => {
                    if d.len() != 3 {
                        return Err(err(format!(
                            "gather_rows data must be rank 3 [B, N, W], got rank {}",
                            d.len()
                        )));
                    }
                    if ix.len() != 2 {
                        return Err(err(format!(
                            "gather_rows index must be rank 2 [B, n], got rank {}",
                            ix.len()
                        )));
                    }
                    if d[0].known_eq(ix[0]) == Some(false) {
                        return Err(err(format!(
                            "batch dimensions {} and {} differ",
                            d[0], ix[0]
                        )));
                    }
                    check_const_indices(node, self, in_consts[1], d[1])?;
                    let b = unify_eq(d[0], ix[0]).unwrap_or(SymDim::Unknown);
                    Ok(ShapeFact::Known(vec![b, ix[1], d[2]]))
                }
                (Some(d), None) => {
                    if d.len() != 3 {
                        return Err(err(format!(
                            "gather_rows data must be rank 3 [B, N, W], got rank {}",
                            d.len()
                        )));
                    }
                    Ok(ShapeFact::Known(vec![d[0], SymDim::Unknown, d[2]]))
                }
                (None, Some(ix)) => {
                    if ix.len() != 2 {
                        return Err(err(format!(
                            "gather_rows index must be rank 2 [B, n], got rank {}",
                            ix.len()
                        )));
                    }
                    Ok(ShapeFact::Known(vec![ix[0], ix[1], SymDim::Unknown]))
                }
                (None, None) => Ok(ShapeFact::Any),
            },

            Op::TreeWalk { kind, depth } => {
                shape_infer_walk(node, self, *kind, *depth, ins, in_consts)
            }

            Op::IndexSelect { axis, indices } => {
                let Some(d) = ins[0].dims() else {
                    return Ok(ShapeFact::Any);
                };
                if *axis >= d.len() {
                    return Err(err(format!(
                        "index_select axis {axis} out of range for rank {}",
                        d.len()
                    )));
                }
                if let Some(min) = d[*axis].min_value() {
                    for &ix in indices.iter() {
                        if ix >= min {
                            return Err(GraphError::IndexOutOfRange {
                                node,
                                op: self.label(),
                                index: ix as i64,
                                bound: d[*axis],
                            });
                        }
                    }
                }
                let mut out = d.to_vec();
                out[*axis] = SymDim::fixed(indices.len());
                Ok(ShapeFact::Known(out))
            }

            Op::Concat { axis } => {
                let mut all = Vec::with_capacity(ins.len());
                for s in ins {
                    match s.dims() {
                        Some(d) => all.push(d),
                        None => return Ok(ShapeFact::Any),
                    }
                }
                let Some(first) = all.first() else {
                    return Ok(ShapeFact::Any);
                };
                let rank = first.len();
                if *axis >= rank {
                    return Err(err(format!(
                        "concat axis {axis} out of range for rank {rank}"
                    )));
                }
                let mut out = first.to_vec();
                for d in &all[1..] {
                    if d.len() != rank {
                        return Err(err(format!("concat rank mismatch: {} vs {rank}", d.len())));
                    }
                    for i in 0..rank {
                        if i == *axis {
                            continue;
                        }
                        out[i] = unify_eq(out[i], d[i]).map_err(|()| {
                            err(format!("off-axis dimension {i}: {} vs {}", out[i], d[i]))
                        })?;
                    }
                }
                out[*axis] = all[1..]
                    .iter()
                    .fold(first[*axis], |acc, d| add_dims(acc, d[*axis]));
                Ok(ShapeFact::Known(out))
            }

            Op::Reshape { dims } => shape_infer_reshape(node, &ins[0], dims),

            Op::Unsqueeze(axis) => {
                let Some(d) = ins[0].dims() else {
                    return Ok(ShapeFact::Any);
                };
                if *axis > d.len() {
                    return Err(err(format!(
                        "unsqueeze axis {axis} out of range for rank {}",
                        d.len()
                    )));
                }
                let mut out = d.to_vec();
                out.insert(*axis, SymDim::fixed(1));
                Ok(ShapeFact::Known(out))
            }

            Op::Squeeze(axis) => {
                let Some(d) = ins[0].dims() else {
                    return Ok(ShapeFact::Any);
                };
                if *axis >= d.len() {
                    return Err(err(format!(
                        "squeeze axis {axis} out of range for rank {}",
                        d.len()
                    )));
                }
                match d[*axis] {
                    SymDim::Unknown => {}
                    dim if dim.is_one() => {}
                    dim => {
                        return Err(err(format!("squeeze of non-1 dimension {dim}")));
                    }
                }
                let mut out = d.to_vec();
                out.remove(*axis);
                Ok(ShapeFact::Known(out))
            }

            Op::Transpose(a, b) => {
                let Some(d) = ins[0].dims() else {
                    return Ok(ShapeFact::Any);
                };
                if *a >= d.len() || *b >= d.len() {
                    return Err(err(format!(
                        "transpose axes ({a}, {b}) out of range for rank {}",
                        d.len()
                    )));
                }
                let mut out = d.to_vec();
                out.swap(*a, *b);
                Ok(ShapeFact::Known(out))
            }

            Op::Slice { axis, start, end } => {
                let Some(d) = ins[0].dims() else {
                    return Ok(ShapeFact::Any);
                };
                if *axis >= d.len() {
                    return Err(err(format!(
                        "slice axis {axis} out of range for rank {}",
                        d.len()
                    )));
                }
                if start > end {
                    return Err(err(format!("slice start {start} past end {end}")));
                }
                if let Some(min) = d[*axis].min_value() {
                    if *end > min {
                        return Err(err(format!(
                            "slice end {end} exceeds dimension {}",
                            d[*axis]
                        )));
                    }
                }
                let mut out = d.to_vec();
                out[*axis] = SymDim::fixed(end - start);
                Ok(ShapeFact::Known(out))
            }

            Op::Sum { axis, keepdim }
            | Op::Mean { axis, keepdim }
            | Op::ReduceMax { axis, keepdim }
            | Op::ArgMax { axis, keepdim }
            | Op::LogSumExp { axis, keepdim } => {
                let Some(d) = ins[0].dims() else {
                    return Ok(ShapeFact::Any);
                };
                if *axis >= d.len() {
                    return Err(err(format!(
                        "reduction axis {axis} out of range for rank {}",
                        d.len()
                    )));
                }
                let mut out = d.to_vec();
                if *keepdim {
                    out[*axis] = SymDim::fixed(1);
                } else {
                    out.remove(*axis);
                }
                Ok(ShapeFact::Known(out))
            }

            Op::Softmax { axis } => {
                let Some(d) = ins[0].dims() else {
                    return Ok(ShapeFact::Any);
                };
                if *axis >= d.len() {
                    return Err(err(format!(
                        "softmax axis {axis} out of range for rank {}",
                        d.len()
                    )));
                }
                Ok(ins[0].clone())
            }

            // Shape-preserving unaries.
            Op::AddScalar(_)
            | Op::MulScalar(_)
            | Op::PowScalar(_)
            | Op::Not
            | Op::IsNan
            | Op::Relu
            | Op::Sigmoid
            | Op::Tanh
            | Op::Exp
            | Op::Ln
            | Op::Sqrt
            | Op::Abs
            | Op::Neg
            | Op::Clamp { .. }
            | Op::Cast(_) => Ok(ins[0].clone()),
        }
    }
}

/// Symbolic sum of two dims for `Concat`: monomials of equal power add
/// their coefficients; mixed powers have no monomial sum and degrade to
/// [`SymDim::Unknown`].
fn add_dims(a: SymDim, b: SymDim) -> SymDim {
    match (a, b) {
        (SymDim::Sym { coeff: 0, .. }, d) | (d, SymDim::Sym { coeff: 0, .. }) => d,
        (SymDim::Sym { coeff: c1, pow: p1 }, SymDim::Sym { coeff: c2, pow: p2 }) if p1 == p2 => c1
            .checked_add(c2)
            .map_or(SymDim::Unknown, |c| SymDim::Sym { coeff: c, pow: p1 }),
        _ => SymDim::Unknown,
    }
}

/// Checks a compile-time (`Const`) i64 index operand against the gathered
/// dimension: every value must satisfy `0 <= v < bound` for all batch
/// sizes, i.e. `v < bound.min_value()`.
fn check_const_indices(
    node: NodeId,
    op: &Op,
    idx: Option<&DynTensor>,
    bound: SymDim,
) -> Result<(), GraphError> {
    let Some(DynTensor::I64(t)) = idx else {
        return Ok(());
    };
    let Some(min) = bound.min_value() else {
        return Ok(());
    };
    for v in t.to_vec() {
        if v < 0 || v as usize >= min {
            return Err(GraphError::IndexOutOfRange {
                node,
                op: op.label(),
                index: v,
                bound,
            });
        }
    }
    Ok(())
}

/// Shape rule of [`Op::TreeWalk`]: `x` is `[B, F]`, the TT tables are
/// four equal `[T, N]` tensors (PTT: two equal `[T·(2^D − 1)]` ones),
/// and the output is `[T, B]`. Constant tables are range-checked: feature
/// ids against `F`, TT child pointers against `N`.
fn shape_infer_walk(
    node: NodeId,
    op: &Op,
    kind: WalkKind,
    depth: usize,
    ins: &[ShapeFact],
    in_consts: &[Option<&DynTensor>],
) -> Result<ShapeFact, GraphError> {
    let err = |detail: String| GraphError::ShapeMismatch {
        node,
        op: op.label(),
        operands: ins.to_vec(),
        detail,
    };
    let (b, f) = match ins[0].dims() {
        Some([b, f]) => (*b, *f),
        Some(d) => {
            return Err(err(format!(
                "tree_walk x must be rank 2 [B, F], got rank {}",
                d.len()
            )))
        }
        None => (SymDim::Unknown, SymDim::Unknown),
    };
    let rank = match kind {
        WalkKind::Tt => 2,
        WalkKind::Ptt => 1,
    };
    let mut table: Option<&[SymDim]> = None;
    for s in &ins[1..] {
        let Some(d) = s.dims() else { continue };
        if d.len() != rank {
            return Err(err(format!(
                "tree_walk {kind:?} tables must be rank {rank}, got rank {}",
                d.len()
            )));
        }
        if let Some(prev) = table {
            if prev
                .iter()
                .zip(d)
                .any(|(p, q)| p.known_eq(*q) == Some(false))
            {
                return Err(err("tree_walk node tables differ in shape".to_string()));
            }
        }
        table = Some(d);
    }
    check_const_indices(node, op, in_consts[1], f)?;
    let trees = match (kind, table) {
        (WalkKind::Tt, Some(d)) => {
            check_const_indices(node, op, in_consts[3], d[1])?;
            check_const_indices(node, op, in_consts[4], d[1])?;
            d[0]
        }
        (WalkKind::Ptt, _) if depth == 0 || depth >= usize::BITS as usize => {
            return Err(err(format!("tree_walk PTT depth {depth} out of range")));
        }
        (WalkKind::Ptt, Some([SymDim::Unknown])) => SymDim::Unknown,
        (WalkKind::Ptt, Some(d)) => d[0]
            .div_exact(SymDim::fixed(walk::perfect_internal(depth)))
            .ok_or_else(|| {
                err(format!(
                    "tree_walk PTT table length {} is not a multiple of 2^{depth} - 1",
                    d[0]
                ))
            })?,
        (_, None) => SymDim::Unknown,
    };
    Ok(ShapeFact::Known(vec![trees, b]))
}

/// Symbolic counterpart of [`resolve_reshape`]: resolves `0`/`-1`
/// placeholders over monomial dims and proves element-count
/// conservation for every batch size.
fn shape_infer_reshape(
    node: NodeId,
    input: &ShapeFact,
    dims: &[i64],
) -> Result<ShapeFact, GraphError> {
    let bad = |detail: String| GraphError::BadReshape { node, detail };
    let input_dims = input.dims();
    // Input element count, when symbolically known.
    let total = input_dims.and_then(|d| {
        d.iter()
            .try_fold(SymDim::fixed(1), |acc, &x| match acc.times(x) {
                SymDim::Unknown => None,
                m => Some(m),
            })
    });
    let mut out: Vec<SymDim> = Vec::with_capacity(dims.len());
    // Product of the non-wildcard target dims, when symbolically known.
    let mut known = Some(SymDim::fixed(1));
    let mut wildcard = None;
    for (i, &d) in dims.iter().enumerate() {
        let v = match d {
            -1 => {
                if wildcard.is_some() {
                    return Err(bad("multiple -1 dims".to_string()));
                }
                wildcard = Some(i);
                out.push(SymDim::Unknown);
                continue;
            }
            0 => match input_dims {
                Some(ind) => *ind
                    .get(i)
                    .ok_or_else(|| bad(format!("dim {i} copies a missing input dim")))?,
                None => SymDim::Unknown,
            },
            d if d > 0 => SymDim::fixed(d as usize),
            d => return Err(bad(format!("negative dimension {d}"))),
        };
        known = known.and_then(|k| match k.times(v) {
            SymDim::Unknown => None,
            m => Some(m),
        });
        out.push(v);
    }
    match (wildcard, total, known) {
        (Some(i), Some(total), Some(known)) => {
            out[i] = total.div_exact(known).ok_or_else(|| {
                bad(format!(
                    "cannot infer -1: {total} elements are not divisible by {known}"
                ))
            })?;
        }
        (None, Some(total), Some(known)) if total != known => {
            return Err(bad(format!(
                "element count mismatch: input has {total}, target has {known}"
            )));
        }
        // An unknown factor on either side leaves the wildcard (if any)
        // unresolved and the count check unprovable.
        _ => {}
    }
    Ok(ShapeFact::Known(out))
}

/// Resolves ONNX-style reshape dims (`0` copies, `-1` infers) against the
/// input shape.
pub fn resolve_reshape(input: &[usize], dims: &[i64]) -> Vec<usize> {
    let total: usize = input.iter().product();
    let mut out = Vec::with_capacity(dims.len());
    let mut infer = None;
    let mut known = 1usize;
    for (i, &d) in dims.iter().enumerate() {
        match d {
            -1 => {
                assert!(infer.is_none(), "reshape: multiple -1 dims");
                infer = Some(i);
                out.push(0);
            }
            0 => {
                let v = input
                    .get(i)
                    .copied()
                    .unwrap_or_else(|| panic!("reshape: dim {i} copies a missing input dim"));
                known *= v;
                out.push(v);
            }
            d if d > 0 => {
                known *= d as usize;
                out.push(d as usize);
            }
            _ => panic!("reshape: invalid dim {d}"),
        }
    }
    if let Some(i) = infer {
        assert!(
            known > 0 && total.is_multiple_of(known),
            "reshape: cannot infer dim"
        );
        out[i] = total / known;
    }
    out
}

// JSON artifact impls (replacing the former serde derive). The variant
// list must stay in sync with `Op`; a missing variant is caught by the
// `unreachable!` in the generated `to_json`.
hb_json::json_enum!(Op {
    Input(usize),
    Const(DynTensor),
    MatMul,
    Add,
    Sub,
    Mul,
    Div,
    Minimum,
    Maximum,
    AddScalar(f64),
    MulScalar(f64),
    PowScalar(f64),
    Lt,
    Le,
    Gt,
    Ge,
    EqOp,
    NeOp,
    And,
    Or,
    Xor,
    Not,
    Where,
    Gather { axis },
    GatherRows,
    TreeWalk { kind, depth },
    IndexSelect { axis, indices },
    Concat { axis },
    Reshape { dims },
    Unsqueeze(usize),
    Squeeze(usize),
    Transpose(usize, usize),
    Slice { axis, start, end },
    Sum { axis, keepdim },
    Mean { axis, keepdim },
    ReduceMax { axis, keepdim },
    ArgMax { axis, keepdim },
    LogSumExp { axis, keepdim },
    Softmax { axis },
    Relu,
    Sigmoid,
    Tanh,
    Exp,
    Ln,
    Sqrt,
    Abs,
    Neg,
    IsNan,
    Clamp { lo, hi },
    Cast(DType),
    Sqdist,
    Fused(std::sync::Arc<FusedKernel>),
});

#[cfg(test)]
mod tests {
    use super::*;

    fn f(v: &[f32], s: &[usize]) -> DynTensor {
        DynTensor::F32(Tensor::from_vec(v.to_vec(), s))
    }

    #[test]
    fn eval_add_and_matmul() {
        let a = f(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = f(&[1.0, 0.0, 0.0, 1.0], &[2, 2]);
        assert_eq!(
            Op::Add.eval(&[&a, &b]).as_f32().to_vec(),
            vec![2.0, 2.0, 3.0, 5.0]
        );
        assert_eq!(
            Op::MatMul.eval(&[&a, &b]).as_f32().to_vec(),
            vec![1.0, 2.0, 3.0, 4.0]
        );
    }

    #[test]
    fn eval_i64_arithmetic_for_ptt() {
        let a = DynTensor::I64(Tensor::from_vec(vec![1i64, 2, 3], &[3]));
        let doubled = Op::MulScalar(2.0).eval(&[&a]);
        let bumped = Op::AddScalar(1.0).eval(&[&doubled]);
        assert_eq!(bumped.as_i64().to_vec(), vec![3, 5, 7]);
    }

    #[test]
    fn eval_comparison_and_where() {
        let a = f(&[1.0, 5.0], &[2]);
        let b = f(&[3.0, 3.0], &[2]);
        let m = Op::Lt.eval(&[&a, &b]);
        assert_eq!(m.as_bool().to_vec(), vec![true, false]);
        let x = DynTensor::I64(Tensor::from_vec(vec![10i64, 10], &[2]));
        let y = DynTensor::I64(Tensor::from_vec(vec![20i64, 20], &[2]));
        assert_eq!(
            Op::Where.eval(&[&m, &x, &y]).as_i64().to_vec(),
            vec![10, 20]
        );
    }

    #[test]
    fn resolve_reshape_placeholders() {
        assert_eq!(resolve_reshape(&[6, 4], &[0, 2, 2]), vec![6, 2, 2]);
        assert_eq!(resolve_reshape(&[6, 4], &[-1, 8]), vec![3, 8]);
        assert_eq!(resolve_reshape(&[2, 3], &[6]), vec![6]);
    }

    #[test]
    #[should_panic(expected = "multiple -1")]
    fn resolve_reshape_two_wildcards_panics() {
        resolve_reshape(&[4], &[-1, -1]);
    }

    #[test]
    fn cost_matmul_counts_flops() {
        let a = f(&[0.0; 6], &[2, 3]);
        let b = f(&[0.0; 12], &[3, 4]);
        let out = Op::MatMul.eval(&[&a, &b]);
        let c = Op::MatMul.cost(&[&a, &b], &out);
        assert_eq!(c.flops, 2.0 * 2.0 * 3.0 * 4.0);
        assert!(!c.metadata_only);
    }

    #[test]
    fn cost_reshape_is_metadata() {
        let a = f(&[0.0; 6], &[2, 3]);
        let out = Op::Reshape { dims: vec![6] }.eval(&[&a]);
        assert!(
            Op::Reshape { dims: vec![6] }
                .cost(&[&a], &out)
                .metadata_only
        );
    }

    #[test]
    fn cse_keys_distinguish_params() {
        assert_ne!(
            Op::Sum {
                axis: 0,
                keepdim: false
            }
            .cse_key(),
            Op::Sum {
                axis: 1,
                keepdim: false
            }
            .cse_key()
        );
        assert!(Op::Const(f(&[1.0], &[1])).cse_key().is_none());
    }

    #[test]
    fn eval_reductions() {
        let a = f(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(
            Op::Sum {
                axis: 1,
                keepdim: false
            }
            .eval(&[&a])
            .as_f32()
            .to_vec(),
            vec![3.0, 7.0]
        );
        assert_eq!(
            Op::ArgMax {
                axis: 1,
                keepdim: false
            }
            .eval(&[&a])
            .as_i64()
            .to_vec(),
            vec![1, 1]
        );
        assert_eq!(
            Op::Mean {
                axis: 0,
                keepdim: false
            }
            .eval(&[&a])
            .as_f32()
            .to_vec(),
            vec![2.0, 3.0]
        );
    }

    #[test]
    fn eval_concat_variadic() {
        let a = f(&[1.0], &[1, 1]);
        let b = f(&[2.0], &[1, 1]);
        let c = f(&[3.0], &[1, 1]);
        let out = Op::Concat { axis: 1 }.eval(&[&a, &b, &c]);
        assert_eq!(out.shape(), &[1, 3]);
        assert_eq!(out.as_f32().to_vec(), vec![1.0, 2.0, 3.0]);
    }
}
