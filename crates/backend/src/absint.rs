//! Abstract interpretation over the tensor IR: per-tensor value
//! intervals plus NaN/Inf taint.
//!
//! The shape/dtype verifier (PR 2) proves *structural* facts about a
//! graph; this module proves *value* facts. Two composable abstract
//! domains run in lock-step over every node:
//!
//! * **interval analysis** — each tensor gets `[lo, hi]` bounds with
//!   ±Inf endpoints, and constant tensors are refined element-wise to
//!   their tight min/max;
//! * **NaN/Inf taint** — `can_nan` / `can_inf` flags recording whether
//!   any element of the tensor may be a NaN or a ±Inf at runtime.
//!
//! The soundness contract for a [`ValueFact`] attached to a node is:
//! for every concrete execution whose graph inputs satisfy their
//! declared input facts,
//!
//! 1. every non-NaN element `v` of the node's tensor satisfies
//!    `lo <= v <= hi` (infinities included — an element can only be
//!    `+inf` when `hi == +inf`),
//! 2. a NaN element can occur only if `can_nan` is set, and
//! 3. a ±Inf element can occur only if `can_inf` is set.
//!
//! Note the asymmetry of (1) and (3): an infinite endpoint merely says
//! the value is *unbounded*; `can_inf` says an actual IEEE infinity may
//! be produced (e.g. by f32 overflow or division by zero).
//!
//! Transfer functions mirror this repository's concrete kernels, not
//! textbook real arithmetic. That matters in several places:
//!
//! * tensor `maximum`/`minimum` are `if b > a { b } else { a }`-shaped,
//!   so a NaN in either operand yields `a` — while the fused-kernel
//!   `Max`/`Min` instructions use `f32::max`/`f32::min`, which launder
//!   single-operand NaNs;
//! * tensor `relu` (`if x < 0 { 0 } else { x }`) propagates NaN, while
//!   the fused `Relu` (`x.max(0.0)`) maps NaN to 0;
//! * `sigmoid`/`softmax` are *hard*-bounded to `[0, 1]` by their f32
//!   implementations (the denominator is ≥ 1, and rounding a true
//!   quotient ≤ 1 to nearest cannot exceed 1), so no rounding slack is
//!   added to those bounds;
//! * all other f32 arithmetic is widened by a small relative slack
//!   (scaled by the reduction length for `Sum`/`Mean`/`MatMul`) so that
//!   floating-point rounding can never escape the interval.
//!
//! [`Graph::infer_values`] runs the analysis in one topological pass
//! (the IR is a DAG in evaluation order, so a single pass reaches the
//! fixed point) and returns one fact per node. Consumers: the
//! analysis-directed rewrites in [`crate::optimize`], the serving
//! layer's static admission proofs, and `hb-lint` diagnostics.

use hb_tensor::{DType, DynTensor};

use crate::fuse::{FusedKernel, Instr};
use crate::graph::{Graph, GraphError};
use crate::lir;
use crate::op::Op;
use crate::verify::{ShapeFact, SymDim};
use crate::walk::WalkKind;

/// Relative rounding slack applied to widen elementwise f32 arithmetic.
/// f32 unit roundoff is ~1.2e-7; two orders of magnitude of headroom
/// keeps the analysis sound across fused re-associations.
const REL_EW: f64 = 1e-5;

/// Additional per-term relative slack for length-`k` f32 reductions.
const REL_PER_TERM: f64 = 1e-6;

/// Absolute slack absorbing subnormal rounding near zero.
const ABS_EPS: f64 = 1e-30;

/// Interval + NaN/Inf taint for one tensor. See the module docs for the
/// exact soundness contract.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ValueFact {
    /// Lower bound on every non-NaN element (−inf = unbounded below).
    pub lo: f64,
    /// Upper bound on every non-NaN element (+inf = unbounded above).
    pub hi: f64,
    /// Whether any element may be NaN.
    pub can_nan: bool,
    /// Whether any element may be an IEEE ±infinity.
    pub can_inf: bool,
}

hb_json::json_struct!(ValueFact {
    lo,
    hi,
    can_nan,
    can_inf
});

impl ValueFact {
    /// A fact with the given bounds and no taint.
    pub fn finite(lo: f64, hi: f64) -> ValueFact {
        ValueFact {
            lo,
            hi,
            can_nan: false,
            can_inf: false,
        }
    }

    /// The degenerate single-value fact.
    pub fn point(v: f64) -> ValueFact {
        ValueFact::finite(v, v)
    }

    /// The weakest sound fact for a tensor of dtype `dt`: everything the
    /// dtype can represent.
    pub fn top(dt: DType) -> ValueFact {
        match dt {
            DType::F32 => ValueFact {
                lo: f64::NEG_INFINITY,
                hi: f64::INFINITY,
                can_nan: true,
                can_inf: true,
            },
            DType::I64 => ValueFact::finite(i64::MIN as f64, i64::MAX as f64),
            DType::U8 => ValueFact::finite(0.0, 255.0),
            DType::Bool => ValueFact::finite(0.0, 1.0),
        }
    }

    /// Element-wise tight bounds for a constant tensor. Empty tensors
    /// get the vacuous `[0, 0]` (no elements exist, so any interval is
    /// sound).
    pub fn constant(t: &DynTensor) -> ValueFact {
        fn scan<T: Copy, F: Fn(T) -> f64>(it: impl Iterator<Item = T>, as_f64: F) -> ValueFact {
            let mut f = ValueFact::finite(f64::INFINITY, f64::NEG_INFINITY);
            let mut any = false;
            for v in it {
                let v = as_f64(v);
                any = true;
                if v.is_nan() {
                    f.can_nan = true;
                    continue;
                }
                if v.is_infinite() {
                    f.can_inf = true;
                }
                f.lo = f.lo.min(v);
                f.hi = f.hi.max(v);
            }
            if !any || f.lo > f.hi {
                // Empty, or every element was NaN: the interval part is
                // vacuous.
                f.lo = 0.0;
                f.hi = 0.0;
            }
            f
        }
        match t {
            DynTensor::F32(t) => scan(t.iter(), f64::from),
            DynTensor::I64(t) => scan(t.iter(), |v| v as f64),
            DynTensor::U8(t) => scan(t.iter(), f64::from),
            DynTensor::Bool(t) => scan(t.iter(), |v| if v { 1.0 } else { 0.0 }),
        }
    }

    /// Least upper bound of two facts (used for `Where`, `Concat`, …).
    pub fn join(&self, o: &ValueFact) -> ValueFact {
        ValueFact {
            lo: self.lo.min(o.lo),
            hi: self.hi.max(o.hi),
            can_nan: self.can_nan || o.can_nan,
            can_inf: self.can_inf || o.can_inf,
        }
    }

    /// Intersection with a dtype's representable range (used to refine
    /// caller-declared input facts).
    pub fn meet_dtype(&self, dt: DType) -> ValueFact {
        let top = ValueFact::top(dt);
        let lo = self.lo.max(top.lo);
        let hi = self.hi.min(top.hi);
        ValueFact {
            // A contradictory meet (caller promised more than the dtype
            // can hold) degrades to the dtype top rather than an empty
            // interval.
            lo: if lo <= hi { lo } else { top.lo },
            hi: if lo <= hi { hi } else { top.hi },
            can_nan: self.can_nan && top.can_nan,
            can_inf: self.can_inf && top.can_inf,
        }
    }

    /// True when the interval is a subset of `[lo, hi]`.
    pub fn within(&self, lo: f64, hi: f64) -> bool {
        self.lo >= lo && self.hi <= hi
    }

    /// True when this fact is at least as precise as `o`: a narrower
    /// (or equal) interval and no taint `o` lacks. Used by translation
    /// validation — an optimized lowering may *refine* the bytecode's
    /// fact but must never claim values the bytecode analysis excludes.
    pub fn refines(&self, o: &ValueFact) -> bool {
        self.lo >= o.lo
            && self.hi <= o.hi
            && (!self.can_nan || o.can_nan)
            && (!self.can_inf || o.can_inf)
    }

    /// True when every non-NaN value equals `v` exactly.
    pub fn pinned_to(&self, v: f64) -> bool {
        self.lo == v && self.hi == v
    }

    /// Whether `+inf` may actually occur as an element value.
    fn has_pos_inf(&self) -> bool {
        self.can_inf && self.hi == f64::INFINITY
    }

    /// Whether `-inf` may actually occur as an element value.
    fn has_neg_inf(&self) -> bool {
        self.can_inf && self.lo == f64::NEG_INFINITY
    }

    /// Whether 0 lies in the interval (or a NaN could stand in for it
    /// after a laundering cast).
    pub fn contains_zero(&self) -> bool {
        self.lo <= 0.0 && self.hi >= 0.0
    }

    /// Widens both finite endpoints by `rel` relative slack (plus a tiny
    /// absolute term), absorbing floating-point rounding of the concrete
    /// kernel. Infinite endpoints are left alone.
    fn widened(&self, rel: f64) -> ValueFact {
        let mag = {
            let a = if self.lo.is_finite() {
                self.lo.abs()
            } else {
                0.0
            };
            let b = if self.hi.is_finite() {
                self.hi.abs()
            } else {
                0.0
            };
            a.max(b)
        };
        let slack = rel * mag + ABS_EPS;
        ValueFact {
            lo: if self.lo.is_finite() {
                self.lo - slack
            } else {
                self.lo
            },
            hi: if self.hi.is_finite() {
                self.hi + slack
            } else {
                self.hi
            },
            ..*self
        }
    }

    /// Post-processes an *arithmetic* f32 result: any endpoint beyond
    /// f32's finite range means the kernel may round to ±inf, so the
    /// endpoint saturates and the Inf taint turns on. Selection ops
    /// (min/max/gather/where/clamp) must NOT call this — they cannot
    /// create magnitudes their inputs lacked.
    fn finalize_f32(mut self) -> ValueFact {
        let max = f64::from(f32::MAX);
        if self.hi > max {
            self.hi = f64::INFINITY;
            self.can_inf = true;
        }
        if self.lo < -max {
            self.lo = f64::NEG_INFINITY;
            self.can_inf = true;
        }
        self
    }

    /// Post-processes an i64 result: wrap-around overflow makes any
    /// out-of-range endpoint degrade to the full i64 range.
    fn finalize_i64(mut self) -> ValueFact {
        if self.lo < i64::MIN as f64 || self.hi > i64::MAX as f64 || self.lo.is_nan() {
            self.lo = i64::MIN as f64;
            self.hi = i64::MAX as f64;
        }
        self.can_nan = false;
        self.can_inf = false;
        self
    }

    /// Dtype-directed finalization for arithmetic results.
    fn finalize(self, dt: DType) -> ValueFact {
        match dt {
            DType::F32 => self.finalize_f32(),
            DType::I64 => self.finalize_i64(),
            DType::U8 => ValueFact::finite(0.0, 255.0),
            DType::Bool => ValueFact::finite(self.lo.clamp(0.0, 1.0), self.hi.clamp(0.0, 1.0)),
        }
    }
}

/// `x * y` on interval endpoints with the convention `0 * ±inf = 0`
/// (the possibility of an actual `0 * inf = NaN` is tracked separately
/// by the taint domain).
fn mul_ep(x: f64, y: f64) -> f64 {
    if x == 0.0 || y == 0.0 {
        0.0
    } else {
        x * y
    }
}

/// Hull of the four endpoint products.
fn mul_hull(a: &ValueFact, b: &ValueFact) -> (f64, f64) {
    let c = [
        mul_ep(a.lo, b.lo),
        mul_ep(a.lo, b.hi),
        mul_ep(a.hi, b.lo),
        mul_ep(a.hi, b.hi),
    ];
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for v in c {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    (lo, hi)
}

/// `x + y` on interval endpoints: an `inf + (-inf)` pair makes endpoint
/// arithmetic ill-defined (the NaN *value* possibility is tracked by
/// the taint domain), so the indeterminate endpoint degrades to the
/// conservative bound for its side instead of poisoning the interval
/// with a NaN endpoint.
fn add_ep(x: f64, y: f64, conservative: f64) -> f64 {
    let v = x + y;
    if v.is_nan() {
        conservative
    } else {
        v
    }
}

fn a_add(a: &ValueFact, b: &ValueFact, dt: DType) -> ValueFact {
    let nan_cancel = (a.has_pos_inf() && b.has_neg_inf()) || (a.has_neg_inf() && b.has_pos_inf());
    let f = ValueFact {
        lo: add_ep(a.lo, b.lo, f64::NEG_INFINITY),
        hi: add_ep(a.hi, b.hi, f64::INFINITY),
        can_nan: a.can_nan || b.can_nan || nan_cancel,
        can_inf: a.can_inf || b.can_inf,
    };
    let f = if dt == DType::F32 {
        f.widened(REL_EW)
    } else {
        f
    };
    f.finalize(dt)
}

fn a_sub(a: &ValueFact, b: &ValueFact, dt: DType) -> ValueFact {
    let nan_cancel = (a.has_pos_inf() && b.has_pos_inf()) || (a.has_neg_inf() && b.has_neg_inf());
    let f = ValueFact {
        lo: add_ep(a.lo, -b.hi, f64::NEG_INFINITY),
        hi: add_ep(a.hi, -b.lo, f64::INFINITY),
        can_nan: a.can_nan || b.can_nan || nan_cancel,
        can_inf: a.can_inf || b.can_inf,
    };
    let f = if dt == DType::F32 {
        f.widened(REL_EW)
    } else {
        f
    };
    f.finalize(dt)
}

fn a_mul(a: &ValueFact, b: &ValueFact, dt: DType) -> ValueFact {
    let (lo, hi) = mul_hull(a, b);
    let zero_times_inf = (a.can_inf && b.contains_zero()) || (b.can_inf && a.contains_zero());
    let f = ValueFact {
        lo,
        hi,
        can_nan: a.can_nan || b.can_nan || zero_times_inf,
        can_inf: a.can_inf || b.can_inf,
    };
    let f = if dt == DType::F32 {
        f.widened(REL_EW)
    } else {
        f
    };
    f.finalize(dt)
}

fn a_div(a: &ValueFact, b: &ValueFact, dt: DType) -> ValueFact {
    let mut can_nan = a.can_nan || b.can_nan || (a.can_inf && b.can_inf);
    if b.contains_zero() {
        // x/0 = ±inf, 0/0 = NaN (f32); i64 division by zero panics, so
        // any value that *is* produced satisfies the top interval.
        can_nan = can_nan || a.contains_zero() || a.can_nan;
        let f = ValueFact {
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
            can_nan,
            can_inf: true,
        };
        return f.finalize(dt);
    }
    // 0 ∉ b: the quotient is monotone in each argument on each side.
    // When both operands reach infinite magnitude an inf/inf pair makes
    // endpoint arithmetic ill-defined; degrade to the full interval.
    let unbounded_pair =
        (!a.lo.is_finite() || !a.hi.is_finite()) && (!b.lo.is_finite() || !b.hi.is_finite());
    let (lo, hi) = if unbounded_pair {
        (f64::NEG_INFINITY, f64::INFINITY)
    } else {
        let c = [a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi];
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for v in c {
            if v.is_nan() {
                continue;
            }
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (lo, hi)
    };
    let mut f = ValueFact {
        lo,
        hi,
        can_nan,
        can_inf: a.can_inf,
    };
    if dt == DType::I64 {
        // Integer division truncates toward zero; trunc is monotone.
        f.lo = f.lo.trunc();
        f.hi = f.hi.trunc();
    }
    let f = if dt == DType::F32 {
        f.widened(REL_EW)
    } else {
        f
    };
    f.finalize(dt)
}

/// Tensor `maximum`: `if b > a { b } else { a }` — a NaN in *either*
/// operand yields `a`'s element.
fn a_maximum(a: &ValueFact, b: &ValueFact) -> ValueFact {
    let mut f = ValueFact {
        lo: a.lo.max(b.lo),
        hi: a.hi.max(b.hi),
        can_nan: a.can_nan,
        can_inf: false,
    };
    if b.can_nan {
        // b NaN selects a's element, which may lie anywhere in a.
        f.lo = f.lo.min(a.lo);
        f.hi = f.hi.max(a.hi);
    }
    // Conservative Inf taint: selection cannot invent infinities.
    f.can_inf = a.can_inf || b.can_inf;
    f
}

/// Tensor `minimum`: `if b < a { b } else { a }`.
fn a_minimum(a: &ValueFact, b: &ValueFact) -> ValueFact {
    let mut f = ValueFact {
        lo: a.lo.min(b.lo),
        hi: a.hi.min(b.hi),
        can_nan: a.can_nan,
        can_inf: a.can_inf || b.can_inf,
    };
    if b.can_nan {
        f.lo = f.lo.min(a.lo);
        f.hi = f.hi.max(a.hi);
    }
    f
}

/// Fused `Max` instruction: `f32::max` launders a single NaN operand.
fn k_max(a: &ValueFact, b: &ValueFact) -> ValueFact {
    let mut f = ValueFact {
        lo: a.lo.max(b.lo),
        hi: a.hi.max(b.hi),
        can_nan: a.can_nan && b.can_nan,
        can_inf: a.can_inf || b.can_inf,
    };
    if a.can_nan {
        f.lo = f.lo.min(b.lo);
        f.hi = f.hi.max(b.hi);
    }
    if b.can_nan {
        f.lo = f.lo.min(a.lo);
        f.hi = f.hi.max(a.hi);
    }
    f
}

/// Fused `Min` instruction: `f32::min`.
fn k_min(a: &ValueFact, b: &ValueFact) -> ValueFact {
    let mut f = ValueFact {
        lo: a.lo.min(b.lo),
        hi: a.hi.min(b.hi),
        can_nan: a.can_nan && b.can_nan,
        can_inf: a.can_inf || b.can_inf,
    };
    if a.can_nan {
        f.lo = f.lo.min(b.lo);
        f.hi = f.hi.max(b.hi);
    }
    if b.can_nan {
        f.lo = f.lo.min(a.lo);
        f.hi = f.hi.max(a.hi);
    }
    f
}

/// Comparison result domain: Bool-valued `[0, 1]`, pinned when the
/// operand intervals decide the predicate for every element pair.
/// NaN compares false on every predicate except `Ne`.
fn a_cmp(op: &Op, a: &ValueFact, b: &ValueFact) -> ValueFact {
    let no_nan = !a.can_nan && !b.can_nan;
    let (always, never) = match op {
        Op::Lt => (no_nan && a.hi < b.lo, a.lo >= b.hi),
        Op::Le => (no_nan && a.hi <= b.lo, a.lo > b.hi),
        Op::Gt => (no_nan && a.lo > b.hi, a.hi <= b.lo),
        Op::Ge => (no_nan && a.lo >= b.hi, a.hi < b.lo),
        Op::EqOp => (
            no_nan && a.pinned_to(a.lo) && b.pinned_to(a.lo),
            a.hi < b.lo || b.hi < a.lo,
        ),
        // NaN != x is true, so `Ne` pins to true under disjointness OR
        // guaranteed NaN; we only exploit disjointness.
        Op::NeOp => (
            a.hi < b.lo || b.hi < a.lo,
            no_nan && a.pinned_to(a.lo) && b.pinned_to(a.lo),
        ),
        _ => (false, false),
    };
    if always {
        ValueFact::point(1.0)
    } else if never {
        ValueFact::point(0.0)
    } else {
        ValueFact::finite(0.0, 1.0)
    }
}

/// `Where(cond, a, b)` over Bool conditions.
fn a_where(cond: &ValueFact, a: &ValueFact, b: &ValueFact) -> ValueFact {
    if cond.lo >= 1.0 {
        *a
    } else if cond.hi <= 0.0 {
        *b
    } else {
        a.join(b)
    }
}

/// Monotone unary f32 map evaluated on both endpoints (in f64) and
/// widened; `exact` skips the rounding slack for correctly-rounded
/// kernels.
fn mono_map(f: &ValueFact, g: impl Fn(f64) -> f64, exact: bool) -> ValueFact {
    let out = ValueFact {
        lo: g(f.lo),
        hi: g(f.hi),
        ..*f
    };
    if exact {
        out
    } else {
        out.widened(REL_EW)
    }
}

fn a_sigmoid(x: &ValueFact) -> ValueFact {
    // f32 sigmoid 1/(1+exp(-x)) pins exactly: at x >= 20, exp(-x) is
    // below half an ulp of 1.0, so the denominator rounds to 1.0 and
    // the quotient is exactly 1.0 (this includes x = +inf). At
    // x <= -90, exp(-x) overflows f32 to +inf and 1/inf is exactly 0.0
    // (including x = -inf).
    if x.lo >= 20.0 {
        return ValueFact {
            lo: 1.0,
            hi: 1.0,
            can_nan: x.can_nan,
            can_inf: false,
        };
    }
    if x.hi <= -90.0 {
        return ValueFact {
            lo: 0.0,
            hi: 0.0,
            can_nan: x.can_nan,
            can_inf: false,
        };
    }
    // Monotone refinement, then intersect with the hard [0, 1] bound —
    // the f32 implementation cannot escape it (denominator >= 1, and a
    // true quotient <= 1 rounds to <= 1).
    let m = mono_map(x, |v| 1.0 / (1.0 + (-v).exp()), false);
    ValueFact {
        lo: m.lo.clamp(0.0, 1.0),
        hi: m.hi.clamp(0.0, 1.0),
        can_nan: x.can_nan,
        can_inf: false,
    }
}

fn a_tanh(x: &ValueFact) -> ValueFact {
    let m = mono_map(x, f64::tanh, false);
    ValueFact {
        lo: m.lo.clamp(-1.0, 1.0),
        hi: m.hi.clamp(-1.0, 1.0),
        can_nan: x.can_nan,
        can_inf: false,
    }
}

fn a_exp(x: &ValueFact) -> ValueFact {
    let m = mono_map(x, f64::exp, false);
    ValueFact {
        lo: m.lo.max(0.0),
        hi: m.hi,
        can_nan: x.can_nan,
        can_inf: false,
    }
    .finalize_f32()
}

fn a_ln(x: &ValueFact) -> ValueFact {
    // ln of a negative is NaN; ln(±0) is -inf.
    let lo = if x.lo <= 0.0 {
        f64::NEG_INFINITY
    } else {
        (x.lo.ln() - REL_EW * x.lo.ln().abs() - ABS_EPS).min(x.lo.ln())
    };
    let hi = if x.hi <= 0.0 {
        f64::NEG_INFINITY
    } else {
        x.hi.ln() + REL_EW * x.hi.ln().abs() + ABS_EPS
    };
    ValueFact {
        lo,
        hi,
        can_nan: x.can_nan || x.lo < 0.0,
        can_inf: x.can_inf || x.contains_zero(),
    }
}

fn a_sqrt(x: &ValueFact) -> ValueFact {
    // IEEE sqrt is correctly rounded, but only relative to its own f32
    // argument: these endpoints are evaluated in f64, and the f32
    // kernel result can land half an ulp below sqrt(lo). Widen like
    // every other elementwise map, keeping the hard >= 0 floor.
    let f = ValueFact {
        lo: x.lo.max(0.0).sqrt(),
        hi: x.hi.max(0.0).sqrt(),
        can_nan: x.can_nan || x.lo < 0.0,
        can_inf: x.can_inf && x.hi == f64::INFINITY,
    }
    .widened(REL_EW);
    ValueFact {
        lo: f.lo.max(0.0),
        ..f
    }
}

fn a_abs(x: &ValueFact) -> ValueFact {
    let (lo, hi) = if x.lo >= 0.0 {
        (x.lo, x.hi)
    } else if x.hi <= 0.0 {
        (-x.hi, -x.lo)
    } else {
        (0.0, x.hi.max(-x.lo))
    };
    ValueFact { lo, hi, ..*x }
}

fn a_neg(x: &ValueFact) -> ValueFact {
    ValueFact {
        lo: -x.hi,
        hi: -x.lo,
        ..*x
    }
}

/// Tensor `relu`: `if x < 0 { 0 } else { x }` — NaN propagates.
fn a_relu_tensor(x: &ValueFact) -> ValueFact {
    ValueFact {
        lo: x.lo.max(0.0),
        hi: x.hi.max(0.0),
        can_nan: x.can_nan,
        can_inf: x.can_inf && x.hi == f64::INFINITY,
    }
}

/// Fused `Relu` instruction: `x.max(0.0)` — NaN is laundered to 0.
fn a_relu_fused(x: &ValueFact) -> ValueFact {
    ValueFact {
        lo: x.lo.max(0.0),
        hi: x.hi.max(0.0).max(0.0),
        can_nan: false,
        can_inf: x.can_inf && x.hi == f64::INFINITY,
    }
}

fn a_clamp(x: &ValueFact, lo: f64, hi: f64) -> ValueFact {
    ValueFact {
        lo: x.lo.clamp(lo, hi),
        hi: x.hi.clamp(lo, hi),
        can_nan: x.can_nan,
        can_inf: x.can_inf && (lo == f64::NEG_INFINITY || hi == f64::INFINITY),
    }
}

fn a_pow(x: &ValueFact, p: f64) -> ValueFact {
    if p == 0.0 {
        // powf(x, 0) == 1 for every x, including NaN and ±inf.
        return ValueFact::point(1.0);
    }
    if p == 1.0 {
        return *x;
    }
    let integral = p.fract() == 0.0;
    let can_nan = x.can_nan || (!integral && x.lo < 0.0);
    let can_inf = x.can_inf || (p < 0.0 && x.contains_zero());
    let ep = |v: f64| v.powf(p);
    let mut cands: Vec<f64> = Vec::new();
    if x.lo >= 0.0 || integral {
        cands.push(ep(x.lo));
        cands.push(ep(x.hi));
    } else {
        // Negative, non-integral exponents: only the x >= 0 part of the
        // domain produces numbers.
        cands.push(ep(0.0));
        if x.hi >= 0.0 {
            cands.push(ep(x.hi));
        }
    }
    if x.contains_zero() {
        cands.push(ep(0.0));
    }
    if integral && x.lo < 0.0 && x.hi > 0.0 {
        // Even powers bottom out at 0 inside the interval.
        cands.push(0.0);
    }
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for c in cands {
        if c.is_nan() {
            continue;
        }
        lo = lo.min(c);
        hi = hi.max(c);
    }
    if lo > hi {
        // All candidates NaN: vacuous interval.
        lo = 0.0;
        hi = 0.0;
    }
    ValueFact {
        lo,
        hi,
        can_nan,
        can_inf,
    }
    .widened(REL_EW)
    .finalize_f32()
}

/// `(kmin, kmax)` bounds on one symbolic axis length. A batch-carrying
/// dim can be 0 (empty batch) and is unbounded above.
fn axis_count(shape: &ShapeFact, axis: usize) -> (usize, Option<usize>) {
    match shape.dims().and_then(|d| d.get(axis)) {
        Some(SymDim::Sym { coeff, pow: 0 }) => (*coeff, Some(*coeff)),
        _ => (0, None),
    }
}

/// Interval of `k · v` for `v ∈ [lo, hi]`, `k ∈ [kmin, kmax]`
/// (`kmax = None` means unbounded).
fn scale_count(f: &ValueFact, kmin: usize, kmax: Option<usize>) -> ValueFact {
    let kmin = kmin as f64;
    let kmax = kmax.map_or(f64::INFINITY, |k| k as f64);
    let c = [
        mul_ep(kmin, f.lo),
        mul_ep(kmin, f.hi),
        mul_ep(kmax, f.lo),
        mul_ep(kmax, f.hi),
    ];
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for v in c {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    ValueFact { lo, hi, ..*f }
}

/// Sum over an axis of `k ∈ [kmin, kmax]` terms.
fn a_sum(x: &ValueFact, kmin: usize, kmax: Option<usize>, dt: DType) -> ValueFact {
    let mut f = scale_count(x, kmin, kmax);
    // A sum of both-signed infinities is NaN.
    f.can_nan = x.can_nan || (x.has_pos_inf() && x.has_neg_inf());
    f.can_inf = x.can_inf;
    // An empty reduction yields exactly 0.
    if kmin == 0 {
        f.lo = f.lo.min(0.0);
        f.hi = f.hi.max(0.0);
    }
    match (dt, kmax) {
        (DType::F32, Some(k)) => f.widened(REL_EW + k as f64 * REL_PER_TERM).finalize_f32(),
        (DType::F32, None) => {
            // Unbounded reduction length: same-signed fp accumulation
            // stays on its side of zero, so hulling with 0 absorbs any
            // rounding drift without a finite slack term.
            f.lo = f.lo.min(0.0);
            f.hi = f.hi.max(0.0);
            f.finalize_f32()
        }
        (_, _) => f.finalize(dt),
    }
}

fn a_mean(x: &ValueFact, kmin: usize, kmax: Option<usize>, dt: DType) -> ValueFact {
    let s = a_sum(x, kmin, kmax, dt);
    // The concrete kernel divides by max(k, 1).
    let nmin = kmin.max(1) as f64;
    let nmax = kmax.map_or(f64::INFINITY, |k| k.max(1) as f64);
    let c = [s.lo / nmin, s.lo / nmax, s.hi / nmin, s.hi / nmax];
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for v in c {
        if v.is_nan() {
            continue;
        }
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if lo > hi {
        lo = 0.0;
        hi = 0.0;
    }
    let f = ValueFact { lo, hi, ..s };
    if dt == DType::F32 {
        f.widened(REL_EW).finalize_f32()
    } else {
        f.finalize(dt)
    }
}

fn a_reduce_max(x: &ValueFact, kmin: usize, dt: DType) -> ValueFact {
    // The fold `if v > acc { v } else { acc }` starts at MIN_VALUE and
    // skips NaN (NaN > acc is false), so the result is never NaN; an
    // empty (or all-NaN) run yields MIN_VALUE — -inf for f32.
    let mut f = ValueFact {
        lo: x.lo,
        hi: x.hi,
        can_nan: false,
        can_inf: x.can_inf,
    };
    if kmin == 0 || x.can_nan {
        match dt {
            DType::F32 => {
                f.lo = f64::NEG_INFINITY;
                f.can_inf = true;
            }
            _ => {
                f = f.join(&ValueFact::point(ValueFact::top(dt).lo));
            }
        }
    }
    f
}

fn a_logsumexp(x: &ValueFact, kmin: usize, kmax: Option<usize>) -> ValueFact {
    // result = m + ln(Σ exp(v - m)) with m the NaN-skipping max: the sum
    // s satisfies 1 <= s <= k (each term <= exp(0) = 1 and the max
    // contributes exactly 1), so lo <= m <= result <= hi + ln(k).
    let mut f = ValueFact {
        lo: x.lo,
        hi: x.hi + kmax.map_or(f64::INFINITY, |k| (k.max(1) as f64).ln()),
        can_nan: x.can_nan || x.can_inf,
        can_inf: x.can_inf,
    };
    if kmin == 0 {
        // Empty run: m = -inf.
        f.lo = f64::NEG_INFINITY;
        f.can_inf = true;
        f.can_nan = true;
    }
    f.widened(REL_EW).finalize_f32()
}

/// Cast between dtypes, mirroring `DynTensor::cast`'s saturating,
/// NaN-laundering `as` conversions.
fn a_cast(x: &ValueFact, from: DType, to: DType) -> ValueFact {
    if from == to {
        return *x;
    }
    match to {
        DType::Bool => {
            // v != 0; NaN is truthy.
            if x.pinned_to(0.0) && !x.can_nan {
                ValueFact::point(0.0)
            } else if x.lo > 0.0 || x.hi < 0.0 {
                ValueFact::point(1.0)
            } else {
                ValueFact::finite(0.0, 1.0)
            }
        }
        DType::I64 => {
            // `as i64` truncates toward zero, saturates, maps NaN to 0.
            let mut lo = x.lo.max(i64::MIN as f64).trunc();
            let mut hi = x.hi.min(i64::MAX as f64).trunc();
            if x.can_nan {
                lo = lo.min(0.0);
                hi = hi.max(0.0);
            }
            ValueFact::finite(lo, hi)
        }
        DType::F32 => {
            // Widening an integer (or bool) into f32 only loses
            // precision, never range; bool is exact.
            let f = ValueFact {
                can_nan: x.can_nan,
                can_inf: x.can_inf,
                ..*x
            };
            if from == DType::Bool || from == DType::U8 {
                f
            } else {
                f.widened(REL_EW)
            }
        }
        DType::U8 => {
            let mut lo = x.lo.clamp(0.0, 255.0).trunc();
            let mut hi = x.hi.clamp(0.0, 255.0).trunc();
            if x.can_nan || x.can_inf || lo > hi {
                lo = 0.0;
                hi = 255.0;
            }
            ValueFact::finite(lo, hi)
        }
    }
}

/// Boolean connective over Bool tensors, with refinement when an operand
/// is pinned.
fn a_bool2(op: &Op, a: &ValueFact, b: &ValueFact) -> ValueFact {
    let t = |f: &ValueFact| f.lo >= 1.0;
    let f_ = |f: &ValueFact| f.hi <= 0.0;
    let pinned = match op {
        Op::And => {
            if f_(a) || f_(b) {
                Some(0.0)
            } else if t(a) && t(b) {
                Some(1.0)
            } else {
                None
            }
        }
        Op::Or => {
            if t(a) || t(b) {
                Some(1.0)
            } else if f_(a) && f_(b) {
                Some(0.0)
            } else {
                None
            }
        }
        Op::Xor => {
            if (t(a) && f_(b)) || (f_(a) && t(b)) {
                Some(1.0)
            } else if (t(a) && t(b)) || (f_(a) && f_(b)) {
                Some(0.0)
            } else {
                None
            }
        }
        _ => None,
    };
    match pinned {
        Some(v) => ValueFact::point(v),
        None => ValueFact::finite(0.0, 1.0),
    }
}

/// The transfer function: the output fact of one op given its input
/// facts, input shape facts, input dtypes, and output dtype. Exhaustive
/// over [`Op`] — adding a variant without extending this match is a
/// compile error.
pub fn transfer(
    op: &Op,
    ins: &[ValueFact],
    in_shapes: &[&ShapeFact],
    in_dtypes: &[DType],
    out_dtype: DType,
) -> ValueFact {
    let i = |k: usize| ins.get(k).copied().unwrap_or(ValueFact::top(DType::F32));
    match op {
        Op::Input(_) => ValueFact::top(out_dtype),
        Op::Const(t) => ValueFact::constant(t),
        Op::MatMul => {
            let (kmin, kmax) = in_shapes
                .first()
                .map(|s| {
                    let rank = s.rank().unwrap_or(0);
                    if rank == 0 {
                        (0, None)
                    } else {
                        axis_count(s, rank - 1)
                    }
                })
                .unwrap_or((0, None));
            let p = a_mul(&i(0), &i(1), DType::F32);
            a_sum(&p, kmin.max(1), kmax, out_dtype)
        }
        Op::Add => a_add(&i(0), &i(1), out_dtype),
        Op::Sub => a_sub(&i(0), &i(1), out_dtype),
        Op::Mul => a_mul(&i(0), &i(1), out_dtype),
        Op::Div => a_div(&i(0), &i(1), out_dtype),
        Op::Minimum => a_minimum(&i(0), &i(1)),
        Op::Maximum => a_maximum(&i(0), &i(1)),
        Op::AddScalar(s) => {
            let c = if out_dtype == DType::I64 {
                (*s as i64) as f64
            } else {
                *s
            };
            a_add(&i(0), &ValueFact::point(c), out_dtype)
        }
        Op::MulScalar(s) => {
            let c = if out_dtype == DType::I64 {
                (*s as i64) as f64
            } else {
                *s
            };
            a_mul(&i(0), &ValueFact::point(c), out_dtype)
        }
        Op::PowScalar(p) => a_pow(&i(0), *p),
        Op::Lt | Op::Le | Op::Gt | Op::Ge | Op::EqOp | Op::NeOp => a_cmp(op, &i(0), &i(1)),
        Op::And | Op::Or | Op::Xor => a_bool2(op, &i(0), &i(1)),
        Op::Not => {
            let a = i(0);
            if a.lo >= 1.0 {
                ValueFact::point(0.0)
            } else if a.hi <= 0.0 {
                ValueFact::point(1.0)
            } else {
                ValueFact::finite(0.0, 1.0)
            }
        }
        Op::Where => a_where(&i(0), &i(1), &i(2)),
        Op::Gather { .. } | Op::GatherRows => i(0),
        // Leaf indices: TT lands on the root or a child pointer, PTT on a
        // perfect-tree leaf slot — the range that proves the downstream
        // `GatherRows` in bounds.
        Op::TreeWalk {
            kind: WalkKind::Tt, ..
        } => ValueFact::point(0.0).join(&i(3)).join(&i(4)),
        Op::TreeWalk {
            kind: WalkKind::Ptt,
            depth,
        } => ValueFact::finite(0.0, 2f64.powi(*depth as i32) - 1.0),
        Op::IndexSelect { .. } => i(0),
        Op::Concat { .. } => {
            let mut f = i(0);
            for k in 1..ins.len() {
                f = f.join(&i(k));
            }
            f
        }
        Op::Reshape { .. }
        | Op::Unsqueeze(_)
        | Op::Squeeze(_)
        | Op::Transpose(_, _)
        | Op::Slice { .. } => i(0),
        Op::Sum { axis, .. } => {
            let (kmin, kmax) = in_shapes
                .first()
                .map_or((0, None), |s| axis_count(s, *axis));
            a_sum(&i(0), kmin, kmax, out_dtype)
        }
        Op::Mean { axis, .. } => {
            let (kmin, kmax) = in_shapes
                .first()
                .map_or((0, None), |s| axis_count(s, *axis));
            a_mean(&i(0), kmin, kmax, out_dtype)
        }
        Op::ReduceMax { axis, .. } => {
            let (kmin, _) = in_shapes
                .first()
                .map_or((0, None), |s| axis_count(s, *axis));
            a_reduce_max(&i(0), kmin, in_dtypes.first().copied().unwrap_or(out_dtype))
        }
        Op::ArgMax { axis, .. } => {
            let (_, kmax) = in_shapes
                .first()
                .map_or((0, None), |s| axis_count(s, *axis));
            ValueFact::finite(
                0.0,
                kmax.map_or(f64::INFINITY, |k| k.saturating_sub(1) as f64),
            )
        }
        Op::LogSumExp { axis, .. } => {
            let (kmin, kmax) = in_shapes
                .first()
                .map_or((0, None), |s| axis_count(s, *axis));
            a_logsumexp(&i(0), kmin, kmax)
        }
        Op::Softmax { .. } => {
            // Max-stabilized softmax is hard-bounded in [0, 1]: the
            // denominator's partial fp sums dominate every numerator, so
            // each quotient rounds to at most 1.
            let x = i(0);
            ValueFact {
                lo: 0.0,
                hi: 1.0,
                can_nan: x.can_nan || x.can_inf,
                can_inf: false,
            }
        }
        Op::Relu => a_relu_tensor(&i(0)),
        Op::Sigmoid => a_sigmoid(&i(0)),
        Op::Tanh => a_tanh(&i(0)),
        Op::Exp => a_exp(&i(0)),
        Op::Ln => a_ln(&i(0)),
        Op::Sqrt => a_sqrt(&i(0)),
        Op::Abs => a_abs(&i(0)),
        Op::Neg => a_neg(&i(0)),
        Op::IsNan => {
            let x = i(0);
            if x.can_nan {
                ValueFact::finite(0.0, 1.0)
            } else {
                ValueFact::point(0.0)
            }
        }
        Op::Clamp { lo, hi } => a_clamp(&i(0), f64::from(*lo), f64::from(*hi)),
        Op::Cast(to) => a_cast(&i(0), in_dtypes.first().copied().unwrap_or(DType::F32), *to),
        Op::Sqdist => {
            let (dmin, dmax) = in_shapes
                .first()
                .map(|s| {
                    let rank = s.rank().unwrap_or(0);
                    if rank == 0 {
                        (0, None)
                    } else {
                        axis_count(s, rank - 1)
                    }
                })
                .unwrap_or((0, None));
            let d = a_sub(&i(0), &i(1), DType::F32);
            let sq = a_mul(&d, &d, DType::F32);
            // The a²+b²-2ab expansion can round slightly negative, so
            // the lower bound is NOT clamped at 0; widen generously.
            a_sum(&sq, dmin, dmax, DType::F32).widened(REL_EW)
        }
        Op::Fused(k) => transfer_fused(k, ins, in_dtypes),
    }
}

/// Sound fact for a scalar immediate: ±Inf and NaN immediates carry
/// their taint instead of polluting the interval with NaN endpoints.
fn imm_fact(v: f32) -> ValueFact {
    let d = f64::from(v);
    if d.is_nan() {
        ValueFact {
            lo: 0.0,
            hi: 0.0,
            can_nan: true,
            can_inf: false,
        }
    } else {
        ValueFact {
            lo: d,
            hi: d,
            can_nan: false,
            can_inf: d.is_infinite(),
        }
    }
}

/// Abstract transfer for a fused-tier binary operator. Shared by the
/// bytecode stack walker and the LIR walker so translation validation
/// compares like with like.
fn fact_bin(op: lir::BinOp, a: &ValueFact, b: &ValueFact) -> ValueFact {
    use lir::BinOp as B;
    match op {
        B::Add => a_add(a, b, DType::F32),
        B::Sub => a_sub(a, b, DType::F32),
        B::Mul => a_mul(a, b, DType::F32),
        B::Div => a_div(a, b, DType::F32),
        B::Min => k_min(a, b),
        B::Max => k_max(a, b),
        B::Lt => a_cmp(&Op::Lt, a, b),
        B::Le => a_cmp(&Op::Le, a, b),
        B::Gt => a_cmp(&Op::Gt, a, b),
        B::Ge => a_cmp(&Op::Ge, a, b),
        B::Eq => a_cmp(&Op::EqOp, a, b),
        B::Ne => a_cmp(&Op::NeOp, a, b),
        B::And | B::Or | B::Xor => {
            // Truthiness is v != 0.0 and NaN is truthy, so pinning
            // requires NaN-free operands.
            let t = |f: &ValueFact| f.can_nan || !f.contains_zero();
            let known_t = |f: &ValueFact| !f.contains_zero();
            let known_f = |f: &ValueFact| f.pinned_to(0.0) && !f.can_nan;
            let pinned = match op {
                B::And => {
                    if known_f(a) || known_f(b) {
                        Some(0.0)
                    } else if known_t(a) && known_t(b) && t(a) && t(b) {
                        Some(1.0)
                    } else {
                        None
                    }
                }
                B::Or => {
                    if known_t(a) || known_t(b) {
                        Some(1.0)
                    } else if known_f(a) && known_f(b) {
                        Some(0.0)
                    } else {
                        None
                    }
                }
                _ => None,
            };
            match pinned {
                Some(v) => ValueFact::point(v),
                None => ValueFact::finite(0.0, 1.0),
            }
        }
    }
}

/// Abstract transfer for a fused-tier unary operator.
fn fact_un(op: lir::UnOp, a: &ValueFact) -> ValueFact {
    use lir::UnOp as U;
    match op {
        U::Not => {
            // Not = (a == 0.0); NaN == 0 is false, so NaN maps to 0.
            if a.pinned_to(0.0) && !a.can_nan {
                ValueFact::point(1.0)
            } else if !a.contains_zero() {
                ValueFact::point(0.0)
            } else {
                ValueFact::finite(0.0, 1.0)
            }
        }
        U::Relu => a_relu_fused(a),
        U::Sigmoid => a_sigmoid(a),
        U::Tanh => a_tanh(a),
        U::Exp => a_exp(a),
        U::Ln => a_ln(a),
        U::Sqrt => a_sqrt(a),
        U::Abs => a_abs(a),
        U::Neg => a_neg(a),
        U::IsNan => {
            if a.can_nan {
                ValueFact::finite(0.0, 1.0)
            } else {
                ValueFact::point(0.0)
            }
        }
        U::Bool01 => a_cast(a, DType::F32, DType::Bool),
    }
}

/// Abstract transfer for select: `cond != 0` (NaN truthy) picks `a`.
fn fact_select(cond: &ValueFact, a: &ValueFact, b: &ValueFact) -> ValueFact {
    if !cond.contains_zero() {
        *a
    } else if cond.pinned_to(0.0) && !cond.can_nan {
        *b
    } else {
        a.join(b)
    }
}

/// Abstractly interprets fused bytecode over the value domain,
/// returning the fact *pushed by each instruction* in program order
/// (every fused instruction pushes exactly one value). The per-push
/// resolution is what lets translation validation compare against the
/// LIR's per-register facts position by position.
pub(crate) fn transfer_stack(program: &[Instr], loaded: &[ValueFact]) -> Vec<ValueFact> {
    let top = ValueFact::top(DType::F32);
    let mut stack: Vec<ValueFact> = Vec::with_capacity(8);
    let mut pushes: Vec<ValueFact> = Vec::with_capacity(program.len());
    for instr in program {
        let f = if let Some(b) = lir::bin_of(instr) {
            let y = stack.pop().unwrap_or(top);
            let x = stack.pop().unwrap_or(top);
            fact_bin(b, &x, &y)
        } else if let Some(u) = lir::un_of(instr) {
            let x = stack.pop().unwrap_or(top);
            fact_un(u, &x)
        } else {
            match instr {
                Instr::Load(i) => loaded.get(*i).copied().unwrap_or(top),
                Instr::Imm(v) => imm_fact(*v),
                Instr::Select => {
                    let b = stack.pop().unwrap_or(top);
                    let a = stack.pop().unwrap_or(top);
                    let cond = stack.pop().unwrap_or(top);
                    fact_select(&cond, &a, &b)
                }
                Instr::Clamp(lo, hi) => {
                    let a = stack.pop().unwrap_or(top);
                    a_clamp(&a, f64::from(*lo), f64::from(*hi))
                }
                Instr::Pow(p) => {
                    let a = stack.pop().unwrap_or(top);
                    a_pow(&a, f64::from(*p))
                }
                Instr::AddImm(v) => {
                    let a = stack.pop().unwrap_or(top);
                    fact_bin(lir::BinOp::Add, &a, &imm_fact(*v))
                }
                Instr::MulImm(v) => {
                    let a = stack.pop().unwrap_or(top);
                    fact_bin(lir::BinOp::Mul, &a, &imm_fact(*v))
                }
                other => unreachable!("instruction not covered by fused transfer: {other:?}"),
            }
        };
        stack.push(f);
        pushes.push(f);
    }
    pushes
}

/// Abstractly interprets a LIR program over the value domain, returning
/// one fact per virtual register (indexed by destination register).
pub fn transfer_lir(p: &lir::LirProgram, loaded: &[ValueFact]) -> Vec<ValueFact> {
    let top = ValueFact::top(DType::F32);
    let mut facts: Vec<ValueFact> = vec![top; p.instrs.len()];
    for ins in &p.instrs {
        let f = {
            let g = |v: lir::VReg| facts.get(v as usize).copied().unwrap_or(top);
            match &ins.op {
                lir::LirOp::Load(k) => loaded.get(*k).copied().unwrap_or(top),
                lir::LirOp::Imm(v) => imm_fact(*v),
                lir::LirOp::Bin(b, x, y) => fact_bin(*b, &g(*x), &g(*y)),
                lir::LirOp::BinImm(b, x, c) => fact_bin(*b, &g(*x), &imm_fact(*c)),
                lir::LirOp::ImmBin(b, c, x) => fact_bin(*b, &imm_fact(*c), &g(*x)),
                lir::LirOp::Un(u, x) => fact_un(*u, &g(*x)),
                lir::LirOp::Select { cond, a, b } => fact_select(&g(*cond), &g(*a), &g(*b)),
                lir::LirOp::Clamp(x, lo, hi) => a_clamp(&g(*x), f64::from(*lo), f64::from(*hi)),
                lir::LirOp::Pow(x, e) => a_pow(&g(*x), f64::from(*e)),
            }
        };
        facts[ins.dst as usize] = f;
    }
    facts
}

/// Bit-exact fact equality (a plain `==` would make two identically-NaN
/// endpoints compare unequal and fail validation spuriously).
fn fact_bits_eq(a: &ValueFact, b: &ValueFact) -> bool {
    a.lo.to_bits() == b.lo.to_bits()
        && a.hi.to_bits() == b.hi.to_bits()
        && a.can_nan == b.can_nan
        && a.can_inf == b.can_inf
}

/// Translation-validates a bytecode → LIR lowering over the abstract
/// value domain, under two input regimes (unconstrained f32 and a
/// finite window): the *raw* lowering's per-register facts must equal
/// the bytecode's per-push facts position by position (the lowering is
/// 1:1), and the *optimized* program's output fact must refine the
/// bytecode's output fact — the optimizer may sharpen what it proves
/// but can never claim values the bytecode analysis excludes.
///
/// # Errors
///
/// A description of the first divergence found.
pub fn validate_fused_lowering(
    program: &[Instr],
    raw: &lir::LirProgram,
    opt: &lir::LirProgram,
) -> Result<(), String> {
    let top = ValueFact::top(DType::F32);
    let regimes: [Vec<ValueFact>; 2] = [
        vec![top; raw.n_inputs],
        vec![ValueFact::finite(-1e4, 1e4); raw.n_inputs],
    ];
    for (ri, loaded) in regimes.iter().enumerate() {
        let sf = transfer_stack(program, loaded);
        let lf = transfer_lir(raw, loaded);
        if sf.len() != lf.len() {
            return Err(format!(
                "regime {ri}: bytecode pushes {} values but the lowering defines {} registers",
                sf.len(),
                lf.len()
            ));
        }
        for (i, (s, l)) in sf.iter().zip(lf.iter()).enumerate() {
            if !fact_bits_eq(s, l) {
                return Err(format!(
                    "regime {ri}: value facts diverge at instruction {i}: bytecode {s:?} vs LIR {l:?}"
                ));
            }
        }
        let stack_out = sf.last().copied().unwrap_or(top);
        let of = transfer_lir(opt, loaded);
        let opt_out = of.get(opt.out as usize).copied().unwrap_or(top);
        if !opt_out.refines(&stack_out) {
            return Err(format!(
                "regime {ri}: optimized LIR output fact {opt_out:?} does not refine bytecode fact {stack_out:?}"
            ));
        }
    }
    Ok(())
}

/// Abstractly interprets a fused kernel's bytecode over the value
/// domain: a stack machine over [`ValueFact`]s mirroring the concrete
/// f32 evaluator (inputs are loaded *as f32*, the result is cast to the
/// kernel's output dtype).
pub fn transfer_fused(k: &FusedKernel, ins: &[ValueFact], in_dtypes: &[DType]) -> ValueFact {
    let loaded: Vec<ValueFact> = ins
        .iter()
        .enumerate()
        .map(|(idx, f)| {
            let from = in_dtypes.get(idx).copied().unwrap_or(DType::F32);
            a_cast(f, from, DType::F32)
        })
        .collect();
    let facts = transfer_stack(k.program(), &loaded);
    let result = facts.last().copied().unwrap_or(ValueFact::top(DType::F32));
    a_cast(&result, DType::F32, k.out_dtype)
}

impl Graph {
    /// Runs the abstract interpretation: one [`ValueFact`] per node.
    ///
    /// `input_facts` declares what the caller knows about each graph
    /// input slot; missing slots default to the dtype top (all
    /// representable values, NaN and Inf included). Declared facts are
    /// intersected with the dtype's representable range, so an
    /// over-promise cannot make the analysis unsound by construction —
    /// soundness is then conditional on inputs actually satisfying the
    /// declared facts.
    ///
    /// # Errors
    ///
    /// Propagates structural errors from shape inference; a graph that
    /// passes [`Graph::verify`] never fails here.
    pub fn infer_values(&self, input_facts: &[ValueFact]) -> Result<Vec<ValueFact>, GraphError> {
        let shapes = self.infer_shapes()?;
        let dtypes = self.infer_dtypes();
        let mut facts: Vec<ValueFact> = Vec::with_capacity(self.nodes.len());
        for (id, node) in self.nodes.iter().enumerate() {
            let f = match &node.op {
                Op::Input(slot) => input_facts
                    .get(*slot)
                    .copied()
                    .unwrap_or(ValueFact::top(dtypes[id]))
                    .meet_dtype(dtypes[id]),
                Op::Const(t) => ValueFact::constant(t),
                op => {
                    let ins: Vec<ValueFact> = node.inputs.iter().map(|&i| facts[i]).collect();
                    let in_shapes: Vec<&ShapeFact> =
                        node.inputs.iter().map(|&i| &shapes[i]).collect();
                    let in_dtypes: Vec<DType> = node.inputs.iter().map(|&i| dtypes[i]).collect();
                    let mut f = transfer(op, &ins, &in_shapes, &in_dtypes, dtypes[id]);
                    // White-box refinement for the imputer idiom
                    // `Where(IsNan(x), fill, x)`: the NaN branch is never
                    // selected when x is NaN-free at that element, so the
                    // result inherits only `fill`'s NaN taint.
                    if matches!(op, Op::Where) && node.inputs.len() == 3 {
                        let (c, a, b) = (node.inputs[0], node.inputs[1], node.inputs[2]);
                        if matches!(self.nodes[c].op, Op::IsNan)
                            && self.nodes[c].inputs.first() == Some(&b)
                        {
                            f.can_nan = facts[a].can_nan;
                        }
                    }
                    f
                }
            };
            facts.push(f);
        }
        Ok(facts)
    }

    /// The facts of the graph's outputs under `input_facts` (see
    /// [`Graph::infer_values`]), in output order.
    ///
    /// # Errors
    ///
    /// Propagates structural errors from shape inference.
    pub fn output_value_facts(
        &self,
        input_facts: &[ValueFact],
    ) -> Result<Vec<ValueFact>, GraphError> {
        let facts = self.infer_values(input_facts)?;
        Ok(self.outputs.iter().map(|&o| facts[o]).collect())
    }

    /// Input facts asserting every f32 input element is a finite f32
    /// (the serving layer's admission precondition: requests carrying
    /// NaN/Inf are exempt from output corruption checks anyway).
    pub fn finite_input_facts(&self) -> Vec<ValueFact> {
        self.input_dtypes
            .iter()
            .map(|&dt| match dt {
                DType::F32 => ValueFact::finite(-f64::from(f32::MAX), f64::from(f32::MAX)),
                other => ValueFact::top(other),
            })
            .collect()
    }
}

/// Convenience: dtype-top facts for every input slot (what the
/// optimizer uses — rewrites must hold for *all* inputs).
pub fn top_input_facts(graph: &Graph) -> Vec<ValueFact> {
    graph
        .input_dtypes
        .iter()
        .map(|&dt| ValueFact::top(dt))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_tensor::Tensor;

    fn top() -> ValueFact {
        ValueFact::top(DType::F32)
    }

    #[test]
    fn constant_scan_is_tight() {
        let t = DynTensor::F32(Tensor::from_vec(vec![1.0, -2.5, 3.0, f32::NAN], &[4]));
        let f = ValueFact::constant(&t);
        assert_eq!(f.lo, -2.5);
        assert_eq!(f.hi, 3.0);
        assert!(f.can_nan);
        assert!(!f.can_inf);
    }

    #[test]
    fn sigmoid_is_hard_bounded_and_pins() {
        let f = a_sigmoid(&top());
        assert!(f.within(0.0, 1.0));
        assert!(!f.can_inf);
        let hi = a_sigmoid(&ValueFact::finite(25.0, 100.0));
        assert!(hi.pinned_to(1.0));
        let lo = a_sigmoid(&ValueFact::finite(-200.0, -95.0));
        assert!(lo.pinned_to(0.0));
    }

    #[test]
    fn maximum_keeps_a_nan_taint_only() {
        let a = ValueFact {
            can_nan: false,
            ..ValueFact::finite(5.0, 9.0)
        };
        let b = ValueFact {
            can_nan: true,
            ..ValueFact::finite(0.0, 1.0)
        };
        let f = a_maximum(&a, &b);
        assert!(!f.can_nan, "tensor maximum returns a when b is NaN");
        let g = a_maximum(&b, &a);
        assert!(g.can_nan, "a NaN in the first operand propagates");
    }

    #[test]
    fn fused_relu_launders_nan() {
        let x = ValueFact {
            can_nan: true,
            ..ValueFact::finite(-3.0, 4.0)
        };
        let f = a_relu_fused(&x);
        assert!(!f.can_nan);
        assert!(f.within(0.0, 4.0 + 1.0));
        let t = a_relu_tensor(&x);
        assert!(t.can_nan, "tensor relu propagates NaN");
    }

    #[test]
    fn div_by_interval_containing_zero_taints() {
        let f = a_div(
            &ValueFact::finite(1.0, 2.0),
            &ValueFact::finite(-1.0, 1.0),
            DType::F32,
        );
        assert!(f.can_inf);
        let g = a_div(
            &ValueFact::finite(0.0, 2.0),
            &ValueFact::finite(-1.0, 1.0),
            DType::F32,
        );
        assert!(g.can_nan, "0/0 is NaN");
    }

    #[test]
    fn overflow_finalizes_to_inf() {
        let big = ValueFact::finite(0.0, 3.0e38);
        let f = a_add(&big, &big, DType::F32);
        assert!(f.can_inf);
        assert_eq!(f.hi, f64::INFINITY);
    }
}
