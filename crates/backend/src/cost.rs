//! Static cost certification: sound per-pipeline work/footprint bounds
//! (DESIGN.md §5g).
//!
//! The verifier proves *what shape* a pipeline computes; this module
//! proves *how much work* that computation performs. It walks the
//! optimized graph with the same symbolic shape facts the verifier
//! derived — every dimension a [`SymDim`] monomial `coeff · B^pow` over
//! the batch size `B` — and mirrors the concrete roofline model
//! [`Op::cost`] symbolically, yielding per-node and whole-graph
//! polynomials in `B` for three counters:
//!
//! * **flops** — modeled floating-point work,
//! * **traversals** — output elements written by launched kernels,
//! * **bytes** — modeled memory traffic.
//!
//! Concretizing the polynomials at a batch bucket produces a
//! [`CostCert`]: counters plus the arena footprint of the PR-3 memory
//! plan at that bucket (re-audited by the independent plan auditor
//! before it is certified) and the kernel-launch count.
//!
//! # The honesty rule
//!
//! The **counters are sound**: they are derived from the same formulas
//! the executor's measured [`crate::RunStats`] accumulates, over shapes
//! the verifier proved, so for every admissible batch the measured
//! counters equal the certified ones *exactly* (the soundness suite
//! gates this across the model zoo). The **wall-clock envelope is
//! calibrated, not sound**: [`envelope_for`] multiplies the per-class
//! counter split by a small per-kernel-class rate table microbenched
//! once on this machine (cached on disk like `hb_tensor::tune`) and
//! widened by generous margins. The suite validates `measured ∈
//! [lo·(1−ε), hi·(1+ε)]`, but a different machine, thermal state, or
//! scheduler can in principle escape it — which is why certificates
//! embed only the counters, never the envelope.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use hb_tensor::{DType, DynTensor, Tensor};

use crate::graph::{Graph, GraphError};
use crate::op::Op;
use crate::plan::{MemoryPlan, PlanError};
use crate::verify::{ShapeFact, SymDim};

/// Batch buckets certificates are derived at by default — the serving
/// coalescer's bucket ladder prefix plus a large-batch point.
pub const COST_BUCKETS: [usize; 4] = [1, 16, 64, 256];

/// One monomial `coeff · B^pow` of a cost polynomial. Coefficients are
/// exact integers stored in f64 (the counter formulas only ever produce
/// integers; f64 keeps them bit-compatible with the measured
/// [`crate::RunStats`] accumulators).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PolyTerm {
    /// Constant factor.
    pub coeff: f64,
    /// Power of the symbolic batch size.
    pub pow: u32,
}

hb_json::json_struct!(PolyTerm { coeff, pow });

/// A cost counter as a polynomial in the symbolic batch size `B`:
/// the sum of its terms, kept sorted by ascending power with like
/// powers merged.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CostPoly {
    /// Monomial terms, ascending in `pow`, at most one per power.
    pub terms: Vec<PolyTerm>,
}

hb_json::json_struct!(CostPoly { terms });

impl CostPoly {
    /// The zero polynomial.
    pub fn zero() -> CostPoly {
        CostPoly::default()
    }

    /// Adds `coeff · B^pow`, merging with an existing term of the same
    /// power.
    pub fn add_term(&mut self, coeff: f64, pow: u32) {
        if coeff == 0.0 {
            return;
        }
        match self.terms.binary_search_by_key(&pow, |t| t.pow) {
            Ok(i) => self.terms[i].coeff += coeff,
            Err(i) => self.terms.insert(i, PolyTerm { coeff, pow }),
        }
    }

    /// Adds a [`SymDim`] monomial scaled by `scale`.
    fn add_mono(&mut self, m: SymDim, scale: f64) -> Option<()> {
        match m {
            SymDim::Sym { coeff, pow } => {
                self.add_term(coeff as f64 * scale, pow);
                Some(())
            }
            SymDim::Unknown => None,
        }
    }

    /// Accumulates another polynomial.
    pub fn absorb(&mut self, other: &CostPoly) {
        for t in &other.terms {
            self.add_term(t.coeff, t.pow);
        }
    }

    /// Evaluates the polynomial at concrete batch `b`. Exact as long as
    /// every term value stays below 2^53 (the counter formulas do).
    pub fn eval(&self, b: usize) -> f64 {
        self.terms
            .iter()
            .map(|t| {
                let p = (b as u128).pow(t.pow);
                t.coeff * p as f64
            })
            .sum()
    }

    /// True when no term survives.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }
}

impl std::fmt::Display for CostPoly {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "0");
        }
        // Highest power first, the way humans read polynomials.
        for (i, t) in self.terms.iter().rev().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            match t.pow {
                0 => write!(f, "{}", t.coeff)?,
                1 if t.coeff == 1.0 => write!(f, "B")?,
                1 => write!(f, "{}*B", t.coeff)?,
                p if t.coeff == 1.0 => write!(f, "B^{p}")?,
                p => write!(f, "{}*B^{p}", t.coeff)?,
            }
        }
        Ok(())
    }
}

/// Why a graph has no cost certificate.
#[derive(Debug, Clone, PartialEq)]
pub enum CostError {
    /// The verifier rejected the graph (nothing to certify).
    Graph(GraphError),
    /// A node's counters depend on a statically unknown dimension, so
    /// no sound bound exists.
    Unknown {
        /// First offending node.
        node: usize,
        /// Operator label.
        op: String,
    },
    /// The memory planner could not concretize the graph at the bucket.
    Plan(PlanError),
    /// The independent plan auditor rejected the plan whose arena bound
    /// the certificate would have recorded.
    Audit(String),
}

impl std::fmt::Display for CostError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CostError::Graph(e) => write!(f, "cost: graph rejected: {e}"),
            CostError::Unknown { node, op } => {
                write!(f, "cost: node {node} ({op}) has statically unknown work")
            }
            CostError::Plan(e) => write!(f, "cost: memory plan failed: {e}"),
            CostError::Audit(e) => write!(f, "cost: plan audit failed: {e}"),
        }
    }
}

impl std::error::Error for CostError {}

/// Coarse kernel-class attribution of one node, the key into the
/// calibrated rate table. Fused kernels carry the codegen class the
/// dispatcher actually selected (`fused:chain2`, `fused:vm`, …).
fn node_class(op: &Op) -> Option<String> {
    Some(match op {
        Op::MatMul | Op::Sqdist => "matmul".to_string(),
        Op::Exp | Op::Ln | Op::Sqrt | Op::Tanh | Op::Sigmoid | Op::PowScalar(_) => {
            "transcendental".to_string()
        }
        Op::Softmax { .. }
        | Op::LogSumExp { .. }
        | Op::Sum { .. }
        | Op::Mean { .. }
        | Op::ReduceMax { .. }
        | Op::ArgMax { .. } => "reduce".to_string(),
        // A tree walk is a chain of dependent table lookups: priced as
        // gathers, per comparison.
        Op::Gather { .. } | Op::GatherRows | Op::IndexSelect { .. } | Op::TreeWalk { .. } => {
            "gather".to_string()
        }
        Op::Fused(k) => format!("fused:{}", k.class_label()),
        Op::Input(_)
        | Op::Const(_)
        | Op::Reshape { .. }
        | Op::Unsqueeze(_)
        | Op::Squeeze(_)
        | Op::Transpose(..)
        | Op::Slice { .. } => return None,
        _ => "element".to_string(),
    })
}

/// Symbolic per-node counters: the [`Op::cost`] roofline model mirrored
/// over [`ShapeFact`]s instead of concrete tensors.
#[derive(Clone, Debug)]
pub struct NodeCost {
    /// Graph node id.
    pub node: usize,
    /// Operator label (payloads elided).
    pub op: String,
    /// Rate-table class; `None` for metadata-only nodes.
    pub class: Option<String>,
    /// Modeled FLOPs as a polynomial in `B`.
    pub flops: CostPoly,
    /// Output elements traversed, polynomial in `B`.
    pub traversals: CostPoly,
    /// Modeled bytes moved, polynomial in `B`.
    pub bytes: CostPoly,
}

/// Symbolic product of a fact's dims (a scalar fact is the empty
/// product, 1).
fn numel(fact: &ShapeFact) -> Option<SymDim> {
    let dims = fact.dims()?;
    let mut n = SymDim::fixed(1);
    for &d in dims {
        n = n.times(d);
    }
    match n {
        SymDim::Unknown => None,
        m => Some(m),
    }
}

/// Symbolic byte size of a fact at a dtype.
fn nbytes(fact: &ShapeFact, dt: DType) -> Option<SymDim> {
    Some(numel(fact)?.times(SymDim::fixed(dt.size_of())))
}

/// `max(m, 1)` over all batch sizes `B ≥ 1`: a nonzero monomial's
/// minimum is its coefficient, so only the zero monomial clamps.
fn max1(m: SymDim) -> SymDim {
    match m {
        SymDim::Sym { coeff: 0, .. } => SymDim::fixed(1),
        other => other,
    }
}

/// Derives the symbolic counters of every node, or the first reason no
/// sound derivation exists.
///
/// # Errors
///
/// [`CostError::Graph`] when shape inference fails, [`CostError::Unknown`]
/// when a needed dimension is statically unknown.
pub fn cost_nodes(graph: &Graph) -> Result<Vec<NodeCost>, CostError> {
    let facts = graph.infer_shapes().map_err(CostError::Graph)?;
    let dtypes = graph.infer_dtypes();
    let mut out = Vec::with_capacity(graph.nodes.len());
    for (id, node) in graph.nodes.iter().enumerate() {
        let unknown = || CostError::Unknown {
            node: id,
            op: node.op.label(),
        };
        let class = node_class(&node.op);
        if class.is_none() {
            // Metadata-only: zero cost by definition, shapes irrelevant.
            out.push(NodeCost {
                node: id,
                op: node.op.label(),
                class: None,
                flops: CostPoly::zero(),
                traversals: CostPoly::zero(),
                bytes: CostPoly::zero(),
            });
            continue;
        }
        let out_fact = &facts[id];
        let out_dt = dtypes[id];
        let out_n = numel(out_fact).ok_or_else(unknown)?;
        let out_bytes = nbytes(out_fact, out_dt).ok_or_else(unknown)?;
        let mut in_bytes = CostPoly::zero();
        for &i in &node.inputs {
            in_bytes
                .add_mono(nbytes(&facts[i], dtypes[i]).ok_or_else(unknown)?, 1.0)
                .ok_or_else(unknown)?;
        }

        let mut flops = CostPoly::zero();
        let mut bytes = CostPoly::zero();
        let std_bytes = |bytes: &mut CostPoly| {
            bytes.absorb(&in_bytes);
            let _ = bytes.add_mono(out_bytes, 1.0);
        };
        match &node.op {
            Op::MatMul => {
                let a = facts[node.inputs[0]].dims().ok_or_else(unknown)?;
                let b = facts[node.inputs[1]].dims().ok_or_else(unknown)?;
                if a.len() < 2 || b.is_empty() {
                    return Err(unknown());
                }
                let m = a[a.len() - 2];
                let k = a[a.len() - 1];
                let n = b[b.len() - 1];
                let mn = m.times(n);
                // Mirrors `out_n / (m*n).max(1.0)` then `.max(1.0)`:
                // a zero m·n zeroes out_n too, so the concrete quotient
                // is 0 and clamps to 1 — with the whole product already 0.
                let batch = match mn {
                    SymDim::Sym { coeff: 0, .. } => SymDim::fixed(1),
                    mn => max1(out_n.div_exact(mn).ok_or_else(unknown)?),
                };
                let work = m.times(k).times(n).times(batch);
                flops.add_mono(work, 2.0).ok_or_else(unknown)?;
                std_bytes(&mut bytes);
            }
            Op::Sqdist => {
                let a = facts[node.inputs[0]].dims().ok_or_else(unknown)?;
                let bdims = facts[node.inputs[1]].dims().ok_or_else(unknown)?;
                if a.len() < 2 || bdims.is_empty() {
                    return Err(unknown());
                }
                let n = a[0];
                let m = bdims[0];
                let d = a[1];
                flops
                    .add_mono(n.times(m).times(d), 2.0)
                    .ok_or_else(unknown)?;
                flops.add_mono(n.times(m), 3.0).ok_or_else(unknown)?;
                std_bytes(&mut bytes);
            }
            Op::Exp | Op::Ln | Op::Sqrt | Op::Tanh | Op::Sigmoid | Op::PowScalar(_) => {
                flops.add_mono(out_n, 10.0).ok_or_else(unknown)?;
                std_bytes(&mut bytes);
            }
            Op::Softmax { .. } | Op::LogSumExp { .. } => {
                let in_n = numel(&facts[node.inputs[0]]).ok_or_else(unknown)?;
                flops.add_mono(in_n, 12.0).ok_or_else(unknown)?;
                for t in &in_bytes.terms {
                    bytes.add_term(2.0 * t.coeff, t.pow);
                }
                bytes.add_mono(out_bytes, 1.0).ok_or_else(unknown)?;
            }
            Op::Gather { .. } | Op::GatherRows | Op::IndexSelect { .. } => {
                flops.add_mono(out_n, 1.0).ok_or_else(unknown)?;
                bytes.add_mono(out_bytes, 2.0).ok_or_else(unknown)?;
                if let Some(&last) = node.inputs.last() {
                    bytes
                        .add_mono(nbytes(&facts[last], dtypes[last]).ok_or_else(unknown)?, 1.0)
                        .ok_or_else(unknown)?;
                }
            }
            Op::Fused(k) => {
                flops
                    .add_mono(out_n, k.program_len() as f64)
                    .ok_or_else(unknown)?;
                std_bytes(&mut bytes);
            }
            Op::TreeWalk { depth, .. } => {
                flops.add_mono(out_n, *depth as f64).ok_or_else(unknown)?;
                std_bytes(&mut bytes);
            }
            _ => {
                flops.add_mono(out_n, 1.0).ok_or_else(unknown)?;
                std_bytes(&mut bytes);
            }
        }
        // Mirrors `Op::cost`: one traversal per output element, a tree
        // walk's once per level.
        let per_elem = match &node.op {
            Op::TreeWalk { depth, .. } => *depth as f64,
            _ => 1.0,
        };
        let mut traversals = CostPoly::zero();
        traversals.add_mono(out_n, per_elem).ok_or_else(unknown)?;
        out.push(NodeCost {
            node: id,
            op: node.op.label(),
            class,
            flops,
            traversals,
            bytes,
        });
    }
    Ok(out)
}

/// Whole-graph symbolic counters: the sum of every node's polynomials
/// plus the (batch-independent) kernel-launch count.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CostSummary {
    /// Total modeled FLOPs per run, polynomial in `B`.
    pub flops: CostPoly,
    /// Total output elements traversed per run, polynomial in `B`.
    pub traversals: CostPoly,
    /// Total modeled bytes moved per run, polynomial in `B`.
    pub bytes: CostPoly,
    /// Kernels launched per run (metadata ops excluded).
    pub kernel_launches: usize,
}

hb_json::json_struct!(CostSummary {
    flops,
    traversals,
    bytes,
    kernel_launches
});

/// Derives the whole-graph symbolic cost summary.
///
/// # Errors
///
/// See [`cost_nodes`].
pub fn cost_summary(graph: &Graph) -> Result<CostSummary, CostError> {
    let nodes = cost_nodes(graph)?;
    let mut s = CostSummary::default();
    for n in &nodes {
        if n.class.is_some() {
            s.kernel_launches += 1;
        }
        s.flops.absorb(&n.flops);
        s.traversals.absorb(&n.traversals);
        s.bytes.absorb(&n.bytes);
    }
    Ok(s)
}

/// FLOPs attributed to one kernel class at a concrete bucket, the
/// basis of the calibrated time envelope.
#[derive(Clone, Debug, PartialEq)]
pub struct ClassWork {
    /// Rate-table class (`matmul`, `fused:chain2`, …).
    pub class: String,
    /// Concrete FLOPs this class performs at the cert's bucket.
    pub flops: f64,
}

hb_json::json_struct!(ClassWork { class, flops });

/// A per-batch-bucket cost certificate: sound counters plus the audited
/// arena footprint. Machine-independent — the calibrated time envelope
/// is computed separately by [`envelope_for`] and never serialized.
#[derive(Clone, Debug, PartialEq)]
pub struct CostCert {
    /// The batch bucket this certificate is concretized at.
    pub batch: usize,
    /// Exact modeled FLOPs per run at this bucket.
    pub flops: f64,
    /// Exact output elements traversed per run at this bucket.
    pub traversals: f64,
    /// Exact modeled bytes moved per run at this bucket.
    pub bytes: f64,
    /// Kernels launched per run.
    pub kernel_launches: usize,
    /// Arena footprint of the memory plan at this bucket, re-checked by
    /// the independent plan auditor before certification.
    pub arena_bytes: usize,
    /// Per-class FLOP split (sorted by class), for envelope derivation
    /// and lint display.
    pub classes: Vec<ClassWork>,
}

hb_json::json_struct!(CostCert {
    batch,
    flops,
    traversals,
    bytes,
    kernel_launches,
    arena_bytes,
    classes
});

/// Derives the certificate for `graph` at one batch bucket.
///
/// # Errors
///
/// [`CostError`] when the counters are not statically derivable, the
/// memory plan fails at this bucket, or the plan auditor rejects it.
pub fn cost_cert(graph: &Graph, batch: usize) -> Result<CostCert, CostError> {
    let nodes = cost_nodes(graph)?;
    let plan = MemoryPlan::build(graph, batch).map_err(CostError::Plan)?;
    // The arena bound is only certified after the *independent* auditor
    // re-derives liveness and aliasing from scratch (release builds skip
    // the planner's internal debug audit).
    crate::audit::audit_plan(graph, &plan).map_err(|e| CostError::Audit(e.to_string()))?;
    let mut flops = 0.0;
    let mut traversals = 0.0;
    let mut bytes = 0.0;
    let mut launches = 0usize;
    let mut classes: Vec<ClassWork> = Vec::new();
    for n in &nodes {
        let Some(class) = &n.class else { continue };
        launches += 1;
        let f = n.flops.eval(batch);
        flops += f;
        traversals += n.traversals.eval(batch);
        bytes += n.bytes.eval(batch);
        match classes.iter_mut().find(|c| &c.class == class) {
            Some(c) => c.flops += f,
            None => classes.push(ClassWork {
                class: class.clone(),
                flops: f,
            }),
        }
    }
    classes.sort_by(|a, b| a.class.cmp(&b.class));
    Ok(CostCert {
        batch,
        flops,
        traversals,
        bytes,
        kernel_launches: launches,
        arena_bytes: plan.arena_bytes,
        classes,
    })
}

/// Derives certificates at each bucket (see [`COST_BUCKETS`]).
///
/// # Errors
///
/// See [`cost_cert`]; the first failing bucket aborts.
pub fn cost_certs(graph: &Graph, buckets: &[usize]) -> Result<Vec<CostCert>, CostError> {
    buckets.iter().map(|&b| cost_cert(graph, b)).collect()
}

// ---------------------------------------------------------------------
// Calibrated wall-clock envelope.
// ---------------------------------------------------------------------

/// A calibrated wall-clock envelope `[lo, hi]` for one certified run.
/// *Not* sound — see the module honesty rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimeEnvelope {
    /// Calibrated floor: no run of the certified work completes faster.
    pub lo: Duration,
    /// Calibrated ceiling: an unloaded machine finishes within this.
    pub hi: Duration,
}

impl TimeEnvelope {
    /// The arithmetic midpoint, used to cold-start serving EWMAs.
    pub fn midpoint(&self) -> Duration {
        (self.lo + self.hi) / 2
    }
}

/// Floor margin on the measured best-case rate (generous: the floor
/// must hold under turbo, perfect caches, and all cores).
const LO_MARGIN: f64 = 0.05;
/// Ceiling margin on the measured worst-case rate (generous: the
/// ceiling must hold under scheduler noise and cold caches).
const HI_MARGIN: f64 = 50.0;
/// Per-kernel-launch overhead floor: a launch is at least a call and a
/// loop setup.
const LAUNCH_OVERHEAD_LO_NS: f64 = 20.0;
/// Per-kernel-launch overhead ceiling (descheduling between kernels).
const LAUNCH_OVERHEAD_HI_NS: f64 = 200_000.0;

/// ns-per-flop rate band of one kernel class.
#[derive(Clone, Copy, Debug)]
struct RateBand {
    lo: f64,
    hi: f64,
}

struct Calibration {
    rates: HashMap<String, RateBand>,
}

/// The classes the microbench measures. Fused kernels map onto
/// `fused:vm` (block-interpreted) or `fused:spec` (specialized row
/// kernels) — individual codegen classes share the specialized band.
const CALIB_CLASSES: [&str; 7] = [
    "element",
    "matmul",
    "transcendental",
    "reduce",
    "gather",
    "fused:spec",
    "fused:vm",
];

/// Ultra-wide fallback band used when calibration is disabled
/// (`HB_COST=off`) or a class failed to measure.
const FALLBACK_BAND: RateBand = RateBand { lo: 1e-3, hi: 1e3 };

fn calib_path() -> std::path::PathBuf {
    match std::env::var_os("HB_COST_CACHE") {
        Some(p) => std::path::PathBuf::from(p),
        // Keyed by build profile: debug-build rates are an order of
        // magnitude slower than release rates, and an envelope floor
        // calibrated under one profile is unsound under the other.
        None => {
            let profile = if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            };
            std::env::temp_dir().join(format!("hb-cost-calib-v1-{profile}.txt"))
        }
    }
}

fn load_calibration() -> Option<HashMap<String, RateBand>> {
    let text = std::fs::read_to_string(calib_path()).ok()?;
    let mut rates = HashMap::new();
    for line in text.lines() {
        let mut it = line.split_whitespace();
        if it.next() != Some("v1") {
            continue;
        }
        let (Some(class), Some(lo), Some(hi)) = (it.next(), it.next(), it.next()) else {
            continue;
        };
        let (Ok(lo), Ok(hi)) = (lo.parse::<f64>(), hi.parse::<f64>()) else {
            continue;
        };
        if lo > 0.0 && hi >= lo {
            rates.insert(class.to_string(), RateBand { lo, hi });
        }
    }
    // A partial file (interrupted write, older class set) is re-measured.
    CALIB_CLASSES
        .iter()
        .all(|c| rates.contains_key(*c))
        .then_some(rates)
}

fn store_calibration(rates: &HashMap<String, RateBand>) {
    let mut lines: Vec<String> = rates
        .iter()
        .map(|(c, r)| format!("v1 {c} {:e} {:e}", r.lo, r.hi))
        .collect();
    lines.sort();
    // Best effort, like the tile tuner: an unwritable temp dir only
    // costs re-measurement next process.
    let _ = std::fs::write(calib_path(), lines.join("\n") + "\n");
}

/// Times `f` with one warmup round and `reps` measured rounds; returns
/// (best, worst) ns per unit of `units` work.
fn measure_rate(units: f64, reps: usize, mut f: impl FnMut()) -> RateBand {
    f(); // warmup
    let mut lo = f64::INFINITY;
    let mut hi: f64 = 0.0;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        let ns = t0.elapsed().as_nanos() as f64;
        let rate = (ns / units).max(1e-9);
        lo = lo.min(rate);
        hi = hi.max(rate);
    }
    RateBand { lo, hi }
}

fn tensor(n: usize) -> DynTensor {
    DynTensor::F32(Tensor::from_fn(&[n], |i| (i[0] % 97) as f32 * 0.25 + 0.5))
}

/// Microbenches every class band. Workloads are small (sub-millisecond)
/// representatives; margins, not workload fidelity, make the envelope
/// hold.
fn measure_calibration() -> HashMap<String, RateBand> {
    let mut rates = HashMap::new();
    let reps = 4;
    let n = 16_384usize;

    let x = tensor(n);
    let y = tensor(n);
    rates.insert(
        "element".to_string(),
        measure_rate(n as f64, reps, || {
            let _ = Op::Add.eval(&[&x, &y]);
        }),
    );
    rates.insert(
        "transcendental".to_string(),
        measure_rate(10.0 * n as f64, reps, || {
            let _ = Op::Sigmoid.eval(&[&x]);
        }),
    );

    let d = 64usize;
    let a = DynTensor::F32(Tensor::from_fn(&[d, d], |i| {
        ((i[0] * d + i[1]) % 13) as f32 * 0.1
    }));
    let b = DynTensor::F32(Tensor::from_fn(&[d, d], |i| {
        ((i[0] + i[1] * d) % 11) as f32 * 0.1
    }));
    rates.insert(
        "matmul".to_string(),
        measure_rate(2.0 * (d * d * d) as f64, reps, || {
            let _ = Op::MatMul.eval(&[&a, &b]);
        }),
    );

    let rows = 256usize;
    let cols = 64usize;
    let m = DynTensor::F32(Tensor::from_fn(&[rows, cols], |i| {
        ((i[0] + i[1]) % 7) as f32 * 0.3
    }));
    rates.insert(
        "reduce".to_string(),
        measure_rate(12.0 * (rows * cols) as f64, reps, || {
            let _ = Op::Softmax { axis: 1 }.eval(&[&m]);
        }),
    );

    // GatherRows wants [B, N, W] data and [B, n] indices.
    let gb = 8usize;
    let gn = 128usize;
    let data = DynTensor::F32(Tensor::from_fn(&[gb, rows, cols], |i| {
        ((i[0] + i[1] + i[2]) % 7) as f32 * 0.3
    }));
    let idx = DynTensor::I64(Tensor::from_fn(&[gb, gn], |i| {
        ((i[0] * 31 + i[1] * 7) % rows) as i64
    }));
    rates.insert(
        "gather".to_string(),
        measure_rate((gb * gn * cols) as f64, reps, || {
            let _ = Op::GatherRows.eval(&[&data, &idx]);
        }),
    );

    use crate::fuse::{FusedKernel, Instr};
    // A two-op chain resolves to a specialized codegen class…
    let spec = FusedKernel::new(
        1,
        DType::F32,
        vec![Instr::Load(0), Instr::AddImm(1.0), Instr::Relu],
    );
    // …while a stack-shuffling 3-input program falls back to the VM.
    let vm = FusedKernel::new(
        3,
        DType::F32,
        vec![
            Instr::Load(0),
            Instr::Load(1),
            Instr::Mul,
            Instr::Load(2),
            Instr::Load(0),
            Instr::Max,
            Instr::Add,
            Instr::Sigmoid,
        ],
    );
    let z = tensor(n);
    rates.insert(
        "fused:spec".to_string(),
        measure_rate((spec.program_len() * n) as f64, reps, || {
            let _ = spec.eval(&[&x]);
        }),
    );
    rates.insert(
        "fused:vm".to_string(),
        measure_rate((vm.program_len() * n) as f64, reps, || {
            let _ = vm.eval(&[&x, &y, &z]);
        }),
    );
    rates
}

fn calibration() -> &'static Mutex<Calibration> {
    static CALIB: OnceLock<Mutex<Calibration>> = OnceLock::new();
    CALIB.get_or_init(|| {
        let rates = if std::env::var("HB_COST").as_deref() == Ok("off") {
            HashMap::new()
        } else {
            match load_calibration() {
                Some(r) => r,
                None => {
                    let r = measure_calibration();
                    store_calibration(&r);
                    r
                }
            }
        };
        Mutex::new(Calibration { rates })
    })
}

/// The calibrated rate table: `(class, lo, hi)` in ns per flop, sorted
/// by class — for lint and bench display.
pub fn calibration_snapshot() -> Vec<(String, f64, f64)> {
    let calib = calibration().lock().unwrap_or_else(|p| p.into_inner());
    let mut rows: Vec<(String, f64, f64)> = calib
        .rates
        .iter()
        .map(|(c, r)| (c.clone(), r.lo, r.hi))
        .collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    rows
}

fn band_for(rates: &HashMap<String, RateBand>, class: &str) -> RateBand {
    if let Some(r) = rates.get(class) {
        return *r;
    }
    if class.starts_with("fused:") {
        // Unmeasured codegen classes share the specialized band.
        if let Some(r) = rates.get("fused:spec") {
            return *r;
        }
    }
    rates.get("element").copied().unwrap_or(FALLBACK_BAND)
}

/// Computes the calibrated wall-clock envelope of one certified run by
/// pricing the certificate's per-class FLOP split against the machine's
/// microbenched rate table (measured once, cached on disk).
pub fn envelope_for(cert: &CostCert) -> TimeEnvelope {
    let calib = calibration().lock().unwrap_or_else(|p| p.into_inner());
    let mut lo_ns = cert.kernel_launches as f64 * LAUNCH_OVERHEAD_LO_NS;
    let mut hi_ns = cert.kernel_launches as f64 * LAUNCH_OVERHEAD_HI_NS;
    for cw in &cert.classes {
        let band = band_for(&calib.rates, &cw.class);
        lo_ns += cw.flops * band.lo * LO_MARGIN;
        hi_ns += cw.flops * band.hi * HI_MARGIN;
    }
    TimeEnvelope {
        lo: Duration::from_nanos(lo_ns as u64),
        hi: Duration::from_nanos(hi_ns.min(u64::MAX as f64) as u64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::{Backend, Device};

    fn linear_graph() -> Graph {
        let mut b = GraphBuilder::new();
        let x = b.input_with_shape(DType::F32, ShapeFact::batched(&[4]));
        let w = b.constant(Tensor::<f32>::from_fn(&[4, 3], |i| (i[0] + i[1]) as f32));
        let y = b.matmul(x, w);
        let s = b.sigmoid(y);
        b.output(s);
        b.build()
    }

    #[test]
    fn poly_arithmetic_and_display() {
        let mut p = CostPoly::zero();
        p.add_term(3.0, 1);
        p.add_term(2.0, 0);
        p.add_term(4.0, 1);
        assert_eq!(p.eval(10), 72.0);
        assert_eq!(p.to_string(), "7*B + 2");
        assert_eq!(CostPoly::zero().to_string(), "0");
        assert!(CostPoly::zero().is_zero());
    }

    #[test]
    fn summary_matches_hand_derivation() {
        let g = linear_graph();
        let s = cost_summary(&g).unwrap_or_else(|e| panic!("{e}"));
        // MatMul: 2·B·4·3 = 24B flops; Sigmoid: 10·3B = 30B flops.
        assert_eq!(s.flops.eval(1), 54.0);
        assert_eq!(s.flops.eval(100), 5400.0);
        // Traversals: 3B (matmul out) + 3B (sigmoid out).
        assert_eq!(s.traversals.eval(8), 48.0);
        assert_eq!(s.kernel_launches, 2);
    }

    #[test]
    fn certified_counters_match_measured_exactly() {
        let g = linear_graph();
        for backend in [Backend::Eager, Backend::Script, Backend::Compiled] {
            let exe = crate::Executable::new(g.clone(), backend, Device::cpu());
            for batch in [1usize, 16, 64] {
                let cert = cost_cert(exe.graph(), batch).unwrap_or_else(|e| panic!("cert: {e}"));
                let x = DynTensor::F32(Tensor::from_fn(&[batch, 4], |i| {
                    (i[0] * 4 + i[1]) as f32 * 0.1
                }));
                let (_, stats) = exe
                    .run_with_stats(std::slice::from_ref(&x))
                    .unwrap_or_else(|e| panic!("run: {e}"));
                assert_eq!(stats.flops, cert.flops, "{backend:?} flops at B={batch}");
                assert_eq!(stats.bytes, cert.bytes, "{backend:?} bytes at B={batch}");
                assert_eq!(
                    stats.traversals, cert.traversals,
                    "{backend:?} traversals at B={batch}"
                );
                assert_eq!(
                    stats.kernel_launches, cert.kernel_launches,
                    "{backend:?} launches at B={batch}"
                );
            }
        }
    }

    #[test]
    fn cert_arena_matches_plan() {
        let g = linear_graph();
        let cert = cost_cert(&g, 32).unwrap_or_else(|e| panic!("{e}"));
        let plan = MemoryPlan::build(&g, 32).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(cert.arena_bytes, plan.arena_bytes);
    }

    #[test]
    fn unknown_shapes_refuse_certification() {
        let mut b = GraphBuilder::new();
        let x = b.input(DType::F32); // no declared shape
        let y = b.sigmoid(x);
        b.output(y);
        let g = b.build();
        assert!(matches!(cost_summary(&g), Err(CostError::Unknown { .. })));
    }

    #[test]
    fn cert_round_trips_through_json() {
        let g = linear_graph();
        let cert = cost_cert(&g, 16).unwrap_or_else(|e| panic!("{e}"));
        let json = hb_json::to_string(&cert);
        let back: CostCert = hb_json::from_str(&json).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(back, cert);
        let s = cost_summary(&g).unwrap_or_else(|e| panic!("{e}"));
        let back_s: CostSummary =
            hb_json::from_str(&hb_json::to_string(&s)).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(back_s, s);
    }

    #[test]
    fn envelope_orders_and_contains_midpoint() {
        let g = linear_graph();
        let cert = cost_cert(&g, 64).unwrap_or_else(|e| panic!("{e}"));
        let env = envelope_for(&cert);
        assert!(
            env.lo < env.hi,
            "lo {:?} must undercut hi {:?}",
            env.lo,
            env.hi
        );
        assert!(env.lo <= env.midpoint() && env.midpoint() <= env.hi);
        assert!(
            env.lo > Duration::ZERO,
            "launch overhead floors the envelope"
        );
    }
}
