//! The tensor DAG: nodes, builder API, and static dtype inference.

use hb_tensor::{DType, DynTensor};

use crate::op::Op;
use crate::verify::{ShapeFact, SymDim};

/// Identifier of a node within a [`Graph`] (its position in `nodes`).
pub type NodeId = usize;

/// One operator application in the DAG.
#[derive(Clone, Debug)]
pub struct Node {
    /// The operator.
    pub op: Op,
    /// Producing nodes of each operand, in operator order.
    pub inputs: Vec<NodeId>,
}

hb_json::json_struct!(Node { op, inputs });

/// A tensor computation DAG in topological order (every node's inputs
/// precede it).
#[derive(Clone, Debug, Default)]
pub struct Graph {
    /// Nodes in topological order.
    pub nodes: Vec<Node>,
    /// Nodes whose values the graph returns, in output order.
    pub outputs: Vec<NodeId>,
    /// Dtype of each graph input slot.
    pub input_dtypes: Vec<DType>,
    /// Declared symbolic shape of each graph input slot, parallel to
    /// `input_dtypes`; [`ShapeFact::Any`] for undeclared slots. The
    /// static verifier seeds shape propagation from these.
    pub input_shapes: Vec<ShapeFact>,
}

// Hand-written (rather than `json_struct!`) so `input_shapes` stays
// optional in the artifact: graphs exported before shape declarations
// existed still parse, defaulting every slot to `ShapeFact::Any`.
impl hb_json::ToJson for Graph {
    fn to_json(&self) -> hb_json::Json {
        hb_json::Json::Obj(vec![
            ("nodes".to_string(), self.nodes.to_json()),
            ("outputs".to_string(), self.outputs.to_json()),
            ("input_dtypes".to_string(), self.input_dtypes.to_json()),
            ("input_shapes".to_string(), self.input_shapes.to_json()),
        ])
    }
}

impl hb_json::FromJson for Graph {
    fn from_json(v: &hb_json::Json) -> Result<Self, hb_json::JsonError> {
        let pairs = v.expect_obj("Graph")?;
        let nodes: Vec<Node> = hb_json::field(pairs, "nodes", "Graph")?;
        let outputs: Vec<NodeId> = hb_json::field(pairs, "outputs", "Graph")?;
        let input_dtypes: Vec<DType> = hb_json::field(pairs, "input_dtypes", "Graph")?;
        let input_shapes = match v.get("input_shapes") {
            Some(shapes) => {
                let shapes: Vec<ShapeFact> = hb_json::FromJson::from_json(shapes)
                    .map_err(|e| hb_json::JsonError::Schema(format!("Graph.input_shapes: {e}")))?;
                if shapes.len() != input_dtypes.len() {
                    return Err(hb_json::JsonError::Schema(format!(
                        "Graph.input_shapes has {} entries for {} input slots",
                        shapes.len(),
                        input_dtypes.len()
                    )));
                }
                shapes
            }
            None => vec![ShapeFact::Any; input_dtypes.len()],
        };
        Ok(Graph {
            nodes,
            outputs,
            input_dtypes,
            input_shapes,
        })
    }
}

/// Structural defect found while validating a graph, typically one
/// deserialized from an untrusted artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The artifact was not valid JSON or did not match the schema.
    Artifact(String),
    /// A node reads from a node at an equal or later position — a
    /// forward reference, cycle, or out-of-range id (topological order
    /// excludes all three).
    ForwardReference {
        /// Offending node.
        node: NodeId,
        /// The input id it referenced.
        input: NodeId,
    },
    /// A node has the wrong number of inputs for its operator.
    Arity {
        /// Offending node.
        node: NodeId,
        /// Inputs the operator requires.
        expected: usize,
        /// Inputs the node actually lists.
        got: usize,
    },
    /// An `Input` node references a slot with no registered dtype.
    UnregisteredInput {
        /// Offending node.
        node: NodeId,
        /// The unregistered slot.
        slot: usize,
        /// Number of registered input slots.
        registered: usize,
    },
    /// A graph output references a nonexistent node.
    OutputOutOfRange {
        /// The offending output id.
        output: NodeId,
        /// Number of nodes in the graph.
        len: usize,
    },
    /// Operand dtypes are inconsistent with what the operator executes on.
    DTypeMismatch {
        /// Offending node.
        node: NodeId,
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// A `Reshape` target is malformed (multiple `-1`s, negative dims,
    /// an element-count product that overflows, or a target that the
    /// verifier proves cannot match the input's element count).
    BadReshape {
        /// Offending node.
        node: NodeId,
        /// Human-readable description of the defect.
        detail: String,
    },
    /// The static verifier proved the node's operand shapes incompatible
    /// with its operator for some batch size (bad broadcast,
    /// non-conformable matmul/gather, illegal axis, …).
    ShapeMismatch {
        /// Offending node.
        node: NodeId,
        /// Operator label (payloads elided).
        op: String,
        /// Inferred operand shapes, in operator order.
        operands: Vec<ShapeFact>,
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// A compile-time index (a `Const` gather operand or `IndexSelect`
    /// position) falls outside the indexed dimension.
    IndexOutOfRange {
        /// Offending node.
        node: NodeId,
        /// Operator label.
        op: String,
        /// The offending index value.
        index: i64,
        /// The dimension it must stay below.
        bound: SymDim,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::Artifact(e) => write!(f, "malformed graph artifact: {e}"),
            GraphError::ForwardReference { node, input } => {
                write!(f, "node {node} reads from later node {input}")
            }
            GraphError::Arity {
                node,
                expected,
                got,
            } => {
                write!(f, "node {node} expects {expected} inputs, has {got}")
            }
            GraphError::UnregisteredInput {
                node,
                slot,
                registered,
            } => write!(
                f,
                "node {node}: input slot {slot} unregistered ({registered} slots declared)"
            ),
            GraphError::OutputOutOfRange { output, len } => {
                write!(f, "output {output} out of range (graph has {len} nodes)")
            }
            GraphError::DTypeMismatch { node, detail } => {
                write!(f, "node {node}: dtype mismatch: {detail}")
            }
            GraphError::BadReshape { node, detail } => {
                write!(f, "node {node}: bad reshape: {detail}")
            }
            GraphError::ShapeMismatch {
                node,
                op,
                operands,
                detail,
            } => {
                write!(f, "node {node} ({op}): shape mismatch: {detail} (operands:")?;
                for s in operands {
                    write!(f, " {s}")?;
                }
                write!(f, ")")
            }
            GraphError::IndexOutOfRange {
                node,
                op,
                index,
                bound,
            } => {
                write!(
                    f,
                    "node {node} ({op}): constant index {index} out of range for dimension {bound}"
                )
            }
        }
    }
}

impl std::error::Error for GraphError {}

impl From<hb_json::JsonError> for GraphError {
    fn from(e: hb_json::JsonError) -> Self {
        GraphError::Artifact(e.to_string())
    }
}

impl Graph {
    /// Number of operator nodes (excluding nothing; inputs and constants
    /// count as nodes).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of kernel launches a naive per-node execution performs
    /// (metadata-only ops excluded). Used by conversion-time accounting
    /// and the simulated-device launch overhead model.
    pub fn kernel_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| {
                !matches!(
                    n.op,
                    Op::Input(_)
                        | Op::Const(_)
                        | Op::Reshape { .. }
                        | Op::Unsqueeze(_)
                        | Op::Squeeze(_)
                        | Op::Transpose(..)
                        | Op::Slice { .. }
                )
            })
            .count()
    }

    /// Checks structural invariants: topological input order, arity, and
    /// output validity.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violation found. Compiler
    /// output is validated through this path — a violation is an internal
    /// invariant failure, not an input error. Untrusted artifacts go
    /// through [`Graph::try_validate`] instead.
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }

    /// Checks structural invariants, returning the first violation as a
    /// typed error instead of panicking. Topological order (`input < id`)
    /// simultaneously excludes forward references, cycles, and
    /// out-of-range node ids.
    pub fn try_validate(&self) -> Result<(), GraphError> {
        for (id, node) in self.nodes.iter().enumerate() {
            for &inp in &node.inputs {
                if inp >= id {
                    return Err(GraphError::ForwardReference {
                        node: id,
                        input: inp,
                    });
                }
            }
            if let Some(arity) = node.op.arity() {
                if node.inputs.len() != arity {
                    return Err(GraphError::Arity {
                        node: id,
                        expected: arity,
                        got: node.inputs.len(),
                    });
                }
            } else if node.inputs.is_empty() {
                // Variadic ops (Concat) still need at least one operand;
                // evaluation reads the first input's dtype.
                return Err(GraphError::Arity {
                    node: id,
                    expected: 1,
                    got: 0,
                });
            }
            if let Op::Input(slot) = node.op {
                if slot >= self.input_dtypes.len() {
                    return Err(GraphError::UnregisteredInput {
                        node: id,
                        slot,
                        registered: self.input_dtypes.len(),
                    });
                }
            }
            if let Op::Reshape { dims } = &node.op {
                check_reshape_dims(id, dims)?;
            }
        }
        for &o in &self.outputs {
            if o >= self.nodes.len() {
                return Err(GraphError::OutputOutOfRange {
                    output: o,
                    len: self.nodes.len(),
                });
            }
        }
        Ok(())
    }

    /// Checks that every node's operand dtypes are ones its operator can
    /// execute on, so a hostile artifact cannot steer evaluation into a
    /// dtype panic. Requires [`Graph::try_validate`] to have passed.
    pub fn check_dtypes(&self) -> Result<Vec<DType>, GraphError> {
        let mismatch = |node: usize, detail: String| GraphError::DTypeMismatch { node, detail };
        let mut out: Vec<DType> = Vec::with_capacity(self.nodes.len());
        for (id, node) in self.nodes.iter().enumerate() {
            let ins: Vec<DType> = node.inputs.iter().map(|&i| out[i]).collect();
            let numeric = |dt: DType| matches!(dt, DType::F32 | DType::I64);
            let dt = match &node.op {
                Op::Input(slot) => self.input_dtypes[*slot],
                Op::Const(v) => v.dtype(),
                Op::Add | Op::Sub | Op::Mul | Op::Div | Op::Minimum | Op::Maximum => {
                    if ins[0] != ins[1] || !numeric(ins[0]) {
                        return Err(mismatch(
                            id,
                            format!("binary arithmetic on {:?} and {:?}", ins[0], ins[1]),
                        ));
                    }
                    ins[0]
                }
                Op::Lt | Op::Le | Op::Gt | Op::Ge | Op::EqOp | Op::NeOp => {
                    if ins[0] != ins[1] || !numeric(ins[0]) {
                        return Err(mismatch(
                            id,
                            format!("comparison on {:?} and {:?}", ins[0], ins[1]),
                        ));
                    }
                    DType::Bool
                }
                Op::And | Op::Or | Op::Xor => {
                    if ins[0] != DType::Bool || ins[1] != DType::Bool {
                        return Err(mismatch(
                            id,
                            format!("logical op on {:?} and {:?}", ins[0], ins[1]),
                        ));
                    }
                    DType::Bool
                }
                Op::Not => {
                    if ins[0] != DType::Bool {
                        return Err(mismatch(id, format!("not on {:?}", ins[0])));
                    }
                    DType::Bool
                }
                Op::IsNan => {
                    if ins[0] != DType::F32 {
                        return Err(mismatch(id, format!("isnan on {:?}", ins[0])));
                    }
                    DType::Bool
                }
                Op::Where => {
                    if ins[0] != DType::Bool {
                        return Err(mismatch(id, format!("where condition is {:?}", ins[0])));
                    }
                    if ins[1] != ins[2] || !numeric(ins[1]) {
                        return Err(mismatch(
                            id,
                            format!("where branches are {:?} and {:?}", ins[1], ins[2]),
                        ));
                    }
                    ins[1]
                }
                Op::MatMul | Op::Sqdist => {
                    if ins[0] != DType::F32 || ins[1] != DType::F32 {
                        return Err(mismatch(
                            id,
                            format!("f32 binary op on {:?} and {:?}", ins[0], ins[1]),
                        ));
                    }
                    DType::F32
                }
                Op::PowScalar(_)
                | Op::Mean { .. }
                | Op::LogSumExp { .. }
                | Op::Softmax { .. }
                | Op::Relu
                | Op::Sigmoid
                | Op::Tanh
                | Op::Exp
                | Op::Ln
                | Op::Sqrt
                | Op::Abs
                | Op::Neg
                | Op::Clamp { .. } => {
                    if ins[0] != DType::F32 {
                        return Err(mismatch(id, format!("f32 unary op on {:?}", ins[0])));
                    }
                    DType::F32
                }
                Op::AddScalar(_) | Op::MulScalar(_) => {
                    if !numeric(ins[0]) {
                        return Err(mismatch(id, format!("scalar op on {:?}", ins[0])));
                    }
                    ins[0]
                }
                Op::Sum { .. } | Op::ReduceMax { .. } => {
                    if !numeric(ins[0]) {
                        return Err(mismatch(id, format!("reduction on {:?}", ins[0])));
                    }
                    ins[0]
                }
                Op::ArgMax { .. } => {
                    if !numeric(ins[0]) {
                        return Err(mismatch(id, format!("argmax on {:?}", ins[0])));
                    }
                    DType::I64
                }
                Op::Gather { .. } | Op::GatherRows => {
                    if !numeric(ins[0]) || ins[1] != DType::I64 {
                        return Err(mismatch(
                            id,
                            format!("gather of {:?} with {:?} indices", ins[0], ins[1]),
                        ));
                    }
                    ins[0]
                }
                Op::TreeWalk { .. } => {
                    let tables_ok = ins.len() >= 3
                        && ins[1] == DType::I64
                        && ins[2] == DType::F32
                        && ins[3..].iter().all(|&d| d == DType::I64);
                    if ins[0] != DType::F32 || !tables_ok {
                        return Err(mismatch(id, format!("tree walk over {ins:?}")));
                    }
                    DType::I64
                }
                Op::IndexSelect { .. } => {
                    if !numeric(ins[0]) {
                        return Err(mismatch(id, format!("index_select on {:?}", ins[0])));
                    }
                    ins[0]
                }
                Op::Concat { .. } => {
                    if !numeric(ins[0]) || ins.iter().any(|&d| d != ins[0]) {
                        return Err(mismatch(id, format!("concat over {ins:?}")));
                    }
                    ins[0]
                }
                Op::Fused(k) => {
                    if ins.iter().any(|&d| d != DType::F32) {
                        return Err(mismatch(id, format!("fused kernel over {ins:?}")));
                    }
                    k.out_dtype
                }
                Op::Cast(dt) => *dt,
                Op::Reshape { .. }
                | Op::Unsqueeze(_)
                | Op::Squeeze(_)
                | Op::Transpose(..)
                | Op::Slice { .. } => ins[0],
            };
            out.push(dt);
        }
        Ok(out)
    }

    /// Infers the static output dtype of every node.
    pub fn infer_dtypes(&self) -> Vec<DType> {
        let mut out: Vec<DType> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let dt = match &node.op {
                Op::Input(slot) => self.input_dtypes[*slot],
                Op::Const(v) => v.dtype(),
                Op::MatMul
                | Op::Mean { .. }
                | Op::LogSumExp { .. }
                | Op::Softmax { .. }
                | Op::Relu
                | Op::Sigmoid
                | Op::Tanh
                | Op::Exp
                | Op::Ln
                | Op::Sqrt
                | Op::Abs
                | Op::Neg
                | Op::Clamp { .. }
                | Op::PowScalar(_)
                | Op::Sqdist => DType::F32,
                Op::Lt
                | Op::Le
                | Op::Gt
                | Op::Ge
                | Op::EqOp
                | Op::NeOp
                | Op::And
                | Op::Or
                | Op::Xor
                | Op::Not
                | Op::IsNan => DType::Bool,
                Op::ArgMax { .. } | Op::TreeWalk { .. } => DType::I64,
                Op::Cast(dt) => *dt,
                Op::Where => out[node.inputs[1]],
                Op::Fused(k) => k.out_dtype,
                // Remaining ops preserve their first input's dtype.
                _ => out[node.inputs[0]],
            };
            out.push(dt);
        }
        out
    }

    /// Serializes the graph to a self-contained JSON artifact — the
    /// reproduction's analog of Hummingbird exporting compiled models in
    /// portable formats (TorchScript/ONNX/TVM in the paper §3.2).
    pub fn to_json(&self) -> String {
        hb_json::to_string(self)
    }

    /// Parses a graph exported by [`Graph::to_json`], treating it as
    /// untrusted: the full static verifier runs — structural invariants
    /// (topological order — which excludes cycles and out-of-range ids —
    /// arity, input slots, output range, reshape sanity), static dtype
    /// consistency, and symbolic shape propagation ([`Graph::verify`]) —
    /// so a malformed or hostile artifact yields a typed [`GraphError`]
    /// and can never panic downstream evaluation.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] describing the first defect found.
    pub fn from_json(json: &str) -> Result<Graph, GraphError> {
        let g: Graph = hb_json::from_str(json)?;
        g.verify()?;
        Ok(g)
    }

    /// Parses a graph artifact *without* verifying it — for audit tools
    /// (`hb-lint`) that want to load a defective graph and report its
    /// defects themselves. Never hand the result to an executor.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Artifact`] when the JSON does not parse or
    /// does not match the schema.
    pub fn from_json_unchecked(json: &str) -> Result<Graph, GraphError> {
        Ok(hb_json::from_str::<Graph>(json)?)
    }

    /// The declared shape of input slot `slot` ([`ShapeFact::Any`] when
    /// undeclared).
    pub fn input_shape(&self, slot: usize) -> ShapeFact {
        self.input_shapes
            .get(slot)
            .cloned()
            .unwrap_or(ShapeFact::Any)
    }

    /// Total bytes of constant (model-parameter) tensors embedded in the
    /// graph — the compiled model's parameter footprint.
    pub fn const_bytes(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| match &n.op {
                Op::Const(v) => v.nbytes(),
                _ => 0,
            })
            .sum()
    }
}

/// Rejects malformed reshape targets before they can reach the
/// evaluator's shape resolution: more than one `-1`, dims below `-1`, or
/// an explicit-dim product that overflows (an "absurd shape product" in a
/// hostile artifact).
fn check_reshape_dims(node: NodeId, dims: &[i64]) -> Result<(), GraphError> {
    let bad = |detail: String| GraphError::BadReshape { node, detail };
    let mut wildcards = 0usize;
    let mut product: usize = 1;
    for &d in dims {
        match d {
            -1 => wildcards += 1,
            d if d < -1 => return Err(bad(format!("negative dimension {d}"))),
            d => {
                product = product
                    .checked_mul(d as usize)
                    .ok_or_else(|| bad("shape product overflows".to_string()))?;
            }
        }
    }
    if wildcards > 1 {
        return Err(bad(format!("{wildcards} wildcard (-1) dimensions")));
    }
    Ok(())
}

/// Incremental [`Graph`] constructor used by the operator converters.
///
/// Every method appends one node and returns its id, so the resulting node
/// list is topologically ordered by construction.
#[derive(Default)]
pub struct GraphBuilder {
    graph: Graph,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a graph input of the given dtype (and unknown shape)
    /// and returns its node.
    pub fn input(&mut self, dtype: DType) -> NodeId {
        self.input_with_shape(dtype, ShapeFact::Any)
    }

    /// Registers a graph input with a declared symbolic shape; the
    /// static verifier propagates it through the graph.
    pub fn input_with_shape(&mut self, dtype: DType, shape: ShapeFact) -> NodeId {
        let slot = self.graph.input_dtypes.len();
        self.graph.input_dtypes.push(dtype);
        self.graph.input_shapes.push(shape);
        self.push(Op::Input(slot), vec![])
    }

    /// Declares (or replaces) the symbolic shape of an already-registered
    /// input node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an `Input` node of this builder.
    pub fn set_input_shape(&mut self, id: NodeId, shape: ShapeFact) {
        let Some(Op::Input(slot)) = self.graph.nodes.get(id).map(|n| &n.op) else {
            panic!("node {id} is not a graph input");
        };
        self.graph.input_shapes[*slot] = shape;
    }

    /// Embeds a constant tensor.
    pub fn constant(&mut self, v: impl Into<DynTensor>) -> NodeId {
        self.push(Op::Const(v.into()), vec![])
    }

    /// Appends an arbitrary node.
    pub fn push(&mut self, op: Op, inputs: Vec<NodeId>) -> NodeId {
        for &i in &inputs {
            assert!(i < self.graph.nodes.len(), "input {i} does not exist yet");
        }
        self.graph.nodes.push(Node { op, inputs });
        self.graph.nodes.len() - 1
    }

    /// Marks `id` as a graph output.
    pub fn output(&mut self, id: NodeId) {
        self.graph.outputs.push(id);
    }

    /// Finishes construction, validating the graph.
    pub fn build(self) -> Graph {
        self.graph.validate();
        self.graph
    }

    /// Batched matrix multiplication.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Op::MatMul, vec![a, b])
    }

    /// Element-wise sum.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Op::Add, vec![a, b])
    }

    /// Element-wise difference.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Op::Sub, vec![a, b])
    }

    /// Element-wise product.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Op::Mul, vec![a, b])
    }

    /// Element-wise quotient.
    pub fn div(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Op::Div, vec![a, b])
    }

    /// Scalar addition.
    pub fn add_scalar(&mut self, a: NodeId, s: f64) -> NodeId {
        self.push(Op::AddScalar(s), vec![a])
    }

    /// Scalar multiplication.
    pub fn mul_scalar(&mut self, a: NodeId, s: f64) -> NodeId {
        self.push(Op::MulScalar(s), vec![a])
    }

    /// `a < b` mask.
    pub fn lt(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Op::Lt, vec![a, b])
    }

    /// `a <= b` mask.
    pub fn le(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Op::Le, vec![a, b])
    }

    /// `a >= b` mask.
    pub fn ge(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Op::Ge, vec![a, b])
    }

    /// `a == b` mask.
    pub fn eq(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Op::EqOp, vec![a, b])
    }

    /// `where(cond, a, b)`.
    pub fn where_(&mut self, cond: NodeId, a: NodeId, b: NodeId) -> NodeId {
        self.push(Op::Where, vec![cond, a, b])
    }

    /// `torch.gather` along `axis`.
    pub fn gather(&mut self, axis: usize, data: NodeId, index: NodeId) -> NodeId {
        self.push(Op::Gather { axis }, vec![data, index])
    }

    /// Compile-time column/row selection.
    pub fn index_select(&mut self, axis: usize, data: NodeId, indices: Vec<usize>) -> NodeId {
        self.push(
            Op::IndexSelect {
                axis,
                indices: indices.into(),
            },
            vec![data],
        )
    }

    /// Concatenation along `axis`.
    pub fn concat(&mut self, axis: usize, inputs: Vec<NodeId>) -> NodeId {
        self.push(Op::Concat { axis }, inputs)
    }

    /// Reshape with `0`/`-1` placeholders.
    pub fn reshape(&mut self, a: NodeId, dims: Vec<i64>) -> NodeId {
        self.push(Op::Reshape { dims }, vec![a])
    }

    /// Inserts a size-1 axis.
    pub fn unsqueeze(&mut self, a: NodeId, axis: usize) -> NodeId {
        self.push(Op::Unsqueeze(axis), vec![a])
    }

    /// Removes a size-1 axis.
    pub fn squeeze(&mut self, a: NodeId, axis: usize) -> NodeId {
        self.push(Op::Squeeze(axis), vec![a])
    }

    /// Swaps two axes.
    pub fn transpose(&mut self, a: NodeId, d0: usize, d1: usize) -> NodeId {
        self.push(Op::Transpose(d0, d1), vec![a])
    }

    /// Sum along `axis`.
    pub fn sum(&mut self, a: NodeId, axis: usize, keepdim: bool) -> NodeId {
        self.push(Op::Sum { axis, keepdim }, vec![a])
    }

    /// Mean along `axis`.
    pub fn mean(&mut self, a: NodeId, axis: usize, keepdim: bool) -> NodeId {
        self.push(Op::Mean { axis, keepdim }, vec![a])
    }

    /// ArgMax along `axis`.
    pub fn argmax(&mut self, a: NodeId, axis: usize, keepdim: bool) -> NodeId {
        self.push(Op::ArgMax { axis, keepdim }, vec![a])
    }

    /// Softmax along `axis`.
    pub fn softmax(&mut self, a: NodeId, axis: usize) -> NodeId {
        self.push(Op::Softmax { axis }, vec![a])
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        self.push(Op::Sigmoid, vec![a])
    }

    /// Dtype conversion.
    pub fn cast(&mut self, a: NodeId, to: DType) -> NodeId {
        self.push(Op::Cast(to), vec![a])
    }

    /// Clamp into `[lo, hi]`.
    pub fn clamp(&mut self, a: NodeId, lo: f32, hi: f32) -> NodeId {
        self.push(Op::Clamp { lo, hi }, vec![a])
    }

    /// NaN test → bool mask.
    pub fn is_nan(&mut self, a: NodeId) -> NodeId {
        self.push(Op::IsNan, vec![a])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_tensor::Tensor;

    #[test]
    fn builder_produces_topological_graph() {
        let mut b = GraphBuilder::new();
        let x = b.input(DType::F32);
        let w = b.constant(Tensor::from_vec(vec![1.0f32, 2.0], &[1, 2]));
        let y = b.matmul(x, w);
        b.output(y);
        let g = b.build();
        assert_eq!(g.len(), 3);
        assert_eq!(g.outputs, vec![2]);
        assert_eq!(g.input_dtypes, vec![DType::F32]);
    }

    #[test]
    fn dtype_inference_tracks_masks_and_indices() {
        let mut b = GraphBuilder::new();
        let x = b.input(DType::F32);
        let c = b.constant(Tensor::from_vec(vec![0.5f32], &[1]));
        let m = b.lt(x, c);
        let f = b.cast(m, DType::F32);
        let am = b.argmax(f, 0, false);
        b.output(am);
        let g = b.build();
        let dt = g.infer_dtypes();
        assert_eq!(dt[m], DType::Bool);
        assert_eq!(dt[f], DType::F32);
        assert_eq!(dt[am], DType::I64);
    }

    #[test]
    fn kernel_count_excludes_metadata() {
        let mut b = GraphBuilder::new();
        let x = b.input(DType::F32);
        let r = b.reshape(x, vec![-1, 1]);
        let s = b.add_scalar(r, 1.0);
        b.output(s);
        let g = b.build();
        assert_eq!(g.kernel_count(), 1);
    }

    #[test]
    fn const_bytes_counts_parameters() {
        let mut b = GraphBuilder::new();
        let c = b.constant(Tensor::<f32>::zeros(&[10]));
        b.output(c);
        assert_eq!(b.build().const_bytes(), 40);
    }

    #[test]
    #[should_panic(expected = "does not exist yet")]
    fn forward_reference_panics() {
        let mut b = GraphBuilder::new();
        let _ = b.push(Op::Relu, vec![5]);
    }

    #[test]
    fn json_roundtrip_preserves_graph() {
        let mut b = GraphBuilder::new();
        let x = b.input(DType::F32);
        let w = b.constant(Tensor::from_vec(vec![1.0f32, 2.0], &[2, 1]));
        let y = b.matmul(x, w);
        let s = b.sigmoid(y);
        b.output(s);
        let g = b.build();
        let back = Graph::from_json(&g.to_json()).unwrap();
        assert_eq!(back.len(), g.len());
        assert_eq!(back.outputs, g.outputs);
        assert_eq!(back.infer_dtypes(), g.infer_dtypes());
    }

    #[test]
    fn from_json_rejects_forward_reference() {
        // Node 0 reads node 1: a cycle/forward reference in artifact form.
        let json = r#"{"nodes":[{"op":"Relu","inputs":[1]},{"op":"Relu","inputs":[0]}],"outputs":[0],"input_dtypes":["F32"]}"#;
        let err = Graph::from_json(json).unwrap_err();
        assert!(
            matches!(err, GraphError::ForwardReference { node: 0, input: 1 }),
            "{err}"
        );
    }

    #[test]
    fn from_json_rejects_out_of_range_output() {
        let json =
            r#"{"nodes":[{"op":{"Input":0},"inputs":[]}],"outputs":[7],"input_dtypes":["F32"]}"#;
        let err = Graph::from_json(json).unwrap_err();
        assert!(
            matches!(err, GraphError::OutputOutOfRange { output: 7, len: 1 }),
            "{err}"
        );
    }

    #[test]
    fn from_json_rejects_dtype_mismatch() {
        // Sigmoid over a Bool mask — eval would panic; validation refuses.
        let json = r#"{"nodes":[{"op":{"Input":0},"inputs":[]},{"op":"Sigmoid","inputs":[0]}],"outputs":[1],"input_dtypes":["Bool"]}"#;
        let err = Graph::from_json(json).unwrap_err();
        assert!(
            matches!(err, GraphError::DTypeMismatch { node: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn from_json_rejects_absurd_reshape() {
        let json = format!(
            r#"{{"nodes":[{{"op":{{"Input":0}},"inputs":[]}},{{"op":{{"Reshape":{{"dims":[{big},{big}]}}}},"inputs":[0]}}],"outputs":[1],"input_dtypes":["F32"]}}"#,
            big = i64::MAX
        );
        let err = Graph::from_json(&json).unwrap_err();
        assert!(
            matches!(err, GraphError::BadReshape { node: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn from_json_rejects_unknown_op_and_syntax_errors() {
        for bad in [
            "{",
            r#"{"nodes":[{"op":"Teleport","inputs":[]}],"outputs":[0],"input_dtypes":[]}"#,
            r#"{"nodes":7,"outputs":[],"input_dtypes":[]}"#,
        ] {
            let err = Graph::from_json(bad).unwrap_err();
            assert!(matches!(err, GraphError::Artifact(_)), "{bad}: {err}");
        }
    }

    #[test]
    fn from_json_rejects_empty_concat() {
        let json = r#"{"nodes":[{"op":{"Concat":{"axis":0}},"inputs":[]}],"outputs":[0],"input_dtypes":[]}"#;
        let err = Graph::from_json(json).unwrap_err();
        assert!(matches!(err, GraphError::Arity { node: 0, .. }), "{err}");
    }

    #[test]
    fn where_dtype_follows_branches() {
        let mut b = GraphBuilder::new();
        let x = b.input(DType::F32);
        let c = b.constant(Tensor::from_vec(vec![0.0f32], &[1]));
        let m = b.lt(x, c);
        let i1 = b.constant(Tensor::from_vec(vec![1i64], &[1]));
        let i2 = b.constant(Tensor::from_vec(vec![2i64], &[1]));
        let w = b.where_(m, i1, i2);
        b.output(w);
        let g = b.build();
        assert_eq!(g.infer_dtypes()[w], DType::I64);
    }
}
