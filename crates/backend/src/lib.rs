//! Tensor DAG runtime for the Hummingbird reproduction.
//!
//! The Hummingbird compiler (crate `hb-core`) lowers predictive pipelines
//! into a [`Graph`] of tensor operations ([`Op`]). This crate plays the
//! role of the DNN runtimes in the paper:
//!
//! * [`Backend::Eager`] — node-at-a-time interpretation with a fresh
//!   allocation per op and no graph-level planning (PyTorch-eager stand-in);
//! * [`Backend::Script`] — a pre-planned topological program with early
//!   buffer release (TorchScript stand-in);
//! * [`Backend::Compiled`] — an optimizing compiler performing constant
//!   folding, common-subexpression elimination, dead-code elimination, and
//!   element-wise kernel fusion into bytecode kernels (TVM stand-in).
//!
//! Execution devices are modeled by [`Device`]: the host CPU runs for
//! real; GPU devices (K80/P100/V100 presets from the paper's §6.1.1
//! hardware-scaling experiment) are *simulated* with a roofline
//! performance model — results are always computed on the CPU, while
//! latency and device-memory pressure are derived analytically per kernel.

// Pure-safe-Rust policy: every crate in this workspace is 100% safe
// Rust; see DESIGN.md ("Unsafe-code policy").
#![forbid(unsafe_code)]

pub mod absint;
pub mod artifact;
pub mod audit;
pub mod cancel;
pub mod cost;
pub mod dedup;
pub mod device;
pub mod exec;
pub mod fault;
pub mod fuse;
pub mod graph;
pub mod lir;
pub mod op;
pub mod optimize;
pub mod plan;
pub mod verify;
pub mod walk;

pub use absint::ValueFact;
pub use artifact::{Artifact, LirCert};
pub use audit::{audit_plan, PlanAuditError};
pub use cancel::CancelToken;
pub use cost::{
    cost_cert, cost_certs, cost_summary, envelope_for, CostCert, CostError, CostPoly, CostSummary,
    TimeEnvelope, COST_BUCKETS,
};
pub use dedup::{ConstPool, DedupStats};
pub use device::{Device, DeviceSpec};
pub use exec::{ExecError, Executable, RunStats};
pub use fault::{FaultPlan, FaultScope};
pub use graph::{Graph, GraphBuilder, GraphError, NodeId};
pub use lir::{LirError, LirProgram};
pub use op::Op;
pub use plan::{Inplace, MemoryPlan, PlanError};
pub use verify::{GraphSignature, ShapeFact, SymDim};
pub use walk::WalkKind;

/// Which execution backend a graph is lowered to.
///
/// The three backends mirror the paper's PyTorch / TorchScript / TVM
/// targets (§3.2): they produce bit-identical outputs and differ only in
/// planning and optimization effort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Un-planned, op-at-a-time interpretation ("PyTorch").
    Eager,
    /// Pre-planned topological program with early frees ("TorchScript").
    Script,
    /// Fully optimized: folding + CSE + DCE + kernel fusion ("TVM").
    Compiled,
}

impl Backend {
    /// All backends, in the order the paper's tables list them.
    pub const ALL: [Backend; 3] = [Backend::Eager, Backend::Script, Backend::Compiled];

    /// Short label used in bench output tables.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Eager => "HB-Eager",
            Backend::Script => "HB-Script",
            Backend::Compiled => "HB-Compiled",
        }
    }
}
