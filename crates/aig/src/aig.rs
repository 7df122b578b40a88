use crate::{AigError, AigLit};
use deepgate_netlist::{Dag, GateKind, Netlist, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// The kind of an AIG node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AigNodeKind {
    /// The constant-false node (always node 0).
    ConstFalse,
    /// A primary input.
    Input,
    /// The current-state output of a latch (sequential state element).
    ///
    /// In the combinational view a latch node behaves like a primary input:
    /// it has no fan-ins and its value is free, whatever its reset value. It
    /// is a source of the [`Dag`] view after the primary inputs, so
    /// simulation drives it with random patterns like an input, as
    /// [`Aig::to_netlist`] does with the pseudo-input it becomes. Its
    /// next-state function and reset value live in the latch table
    /// ([`Aig::latches`]); the ingestion policies ([`Aig::cut_latches`],
    /// [`Aig::unroll`]) eliminate latch nodes before a circuit reaches the
    /// learning pipeline.
    Latch,
    /// A 2-input AND node.
    And,
}

/// One sequential state element of an [`Aig`].
///
/// `state` names the [`AigNodeKind::Latch`] node that carries the latch's
/// current-state value through the combinational logic; `next` is the
/// literal latched at every clock edge; `init` is the reset value
/// (`Some(false)`/`Some(true)`) or `None` for an uninitialised latch, the
/// three-way semantics of AIGER 1.9.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AigLatch {
    /// Node index of the latch's current-state node.
    pub state: usize,
    /// The next-state literal.
    pub next: AigLit,
    /// Reset value; `None` means uninitialised.
    pub init: Option<bool>,
    /// Latch name (from an AIGER symbol table, or generated).
    pub name: String,
}

/// One node of an [`Aig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AigNode {
    /// The node kind.
    pub kind: AigNodeKind,
    /// First fan-in literal (only meaningful for AND nodes).
    pub fanin0: AigLit,
    /// Second fan-in literal (only meaningful for AND nodes).
    pub fanin1: AigLit,
}

/// An And-Inverter Graph with structural hashing.
///
/// Node 0 is the constant-false node, followed by the primary inputs and then
/// the AND nodes in topological order. Edges are [`AigLit`]s that carry a
/// complement bit, so inverters are free. Construction performs constant
/// folding, trivial simplification (`x·x = x`, `x·¬x = 0`, `x·1 = x`,
/// `x·0 = 0`) and structural hashing, mirroring the behaviour of ABC's
/// `strash` command that the paper relies on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Aig {
    name: String,
    nodes: Vec<AigNode>,
    inputs: Vec<usize>,
    input_names: Vec<String>,
    latches: Vec<AigLatch>,
    outputs: Vec<(AigLit, String)>,
    #[serde(skip)]
    strash: HashMap<(AigLit, AigLit), usize>,
}

impl Aig {
    /// Creates an empty AIG containing only the constant node.
    pub fn new(name: impl Into<String>) -> Self {
        Aig {
            name: name.into(),
            nodes: vec![AigNode {
                kind: AigNodeKind::ConstFalse,
                fanin0: AigLit::FALSE,
                fanin1: AigLit::FALSE,
            }],
            inputs: Vec::new(),
            input_names: Vec::new(),
            latches: Vec::new(),
            outputs: Vec::new(),
            strash: HashMap::new(),
        }
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the design.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Total node count including the constant node.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the AIG contains only the constant node.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of AND nodes.
    pub fn num_ands(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.kind == AigNodeKind::And)
            .count()
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of latches.
    pub fn num_latches(&self) -> usize {
        self.latches.len()
    }

    /// The latch table, in declaration order.
    pub fn latches(&self) -> &[AigLatch] {
        &self.latches
    }

    /// Returns `true` when the AIG holds no latches (purely combinational).
    pub fn is_combinational(&self) -> bool {
        self.latches.is_empty()
    }

    /// Node indices of the primary inputs, in declaration order.
    pub fn inputs(&self) -> &[usize] {
        &self.inputs
    }

    /// Name of the `i`-th primary input.
    pub fn input_name(&self, i: usize) -> &str {
        &self.input_names[i]
    }

    /// Primary outputs as `(literal, name)` pairs.
    pub fn outputs(&self) -> &[(AigLit, String)] {
        &self.outputs
    }

    /// Access a node by index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn node(&self, index: usize) -> &AigNode {
        &self.nodes[index]
    }

    /// Iterates over `(index, node)` pairs in topological (index) order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &AigNode)> {
        self.nodes.iter().enumerate()
    }

    /// Adds a primary input and returns its (positive) literal.
    pub fn add_input(&mut self, name: impl Into<String>) -> AigLit {
        let index = self.nodes.len();
        self.nodes.push(AigNode {
            kind: AigNodeKind::Input,
            fanin0: AigLit::FALSE,
            fanin1: AigLit::FALSE,
        });
        self.inputs.push(index);
        self.input_names.push(name.into());
        AigLit::positive(index)
    }

    /// Marks a literal as a primary output.
    pub fn add_output(&mut self, lit: AigLit, name: impl Into<String>) {
        self.outputs.push((lit, name.into()));
    }

    /// Adds a latch (reset to 0, next state constant-false until
    /// [`Aig::set_latch_next`] is called) and returns the positive literal of
    /// its current-state node.
    pub fn add_latch(&mut self, name: impl Into<String>) -> AigLit {
        let index = self.nodes.len();
        self.nodes.push(AigNode {
            kind: AigNodeKind::Latch,
            fanin0: AigLit::FALSE,
            fanin1: AigLit::FALSE,
        });
        self.latches.push(AigLatch {
            state: index,
            next: AigLit::FALSE,
            init: Some(false),
            name: name.into(),
        });
        AigLit::positive(index)
    }

    /// Sets the next-state literal of the `i`-th latch.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set_latch_next(&mut self, i: usize, next: AigLit) {
        self.latches[i].next = next;
    }

    /// Sets the reset value of the `i`-th latch (`None` = uninitialised).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set_latch_init(&mut self, i: usize, init: Option<bool>) {
        self.latches[i].init = init;
    }

    /// Renames the `i`-th latch.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set_latch_name(&mut self, i: usize, name: impl Into<String>) {
        self.latches[i].name = name.into();
    }

    /// Renames the `i`-th primary input.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set_input_name(&mut self, i: usize, name: impl Into<String>) {
        self.input_names[i] = name.into();
    }

    /// Appends an AND node verbatim (no simplification, no strashing). Used
    /// by the AIGER reader to preserve literal numbering.
    pub(crate) fn push_raw_and(&mut self, fanin0: AigLit, fanin1: AigLit) -> AigLit {
        let index = self.nodes.len();
        self.nodes.push(AigNode {
            kind: AigNodeKind::And,
            fanin0,
            fanin1,
        });
        AigLit::positive(index)
    }

    /// Returns the AND of two literals, applying constant folding, trivial
    /// simplification and structural hashing.
    pub fn and(&mut self, a: AigLit, b: AigLit) -> AigLit {
        // Constant folding and trivial cases.
        if a == AigLit::FALSE || b == AigLit::FALSE {
            return AigLit::FALSE;
        }
        if a == AigLit::TRUE {
            return b;
        }
        if b == AigLit::TRUE {
            return a;
        }
        if a == b {
            return a;
        }
        if a == b.complement() {
            return AigLit::FALSE;
        }
        // Canonical order for structural hashing.
        let (lo, hi) = if a.raw() <= b.raw() { (a, b) } else { (b, a) };
        if let Some(&idx) = self.strash.get(&(lo, hi)) {
            return AigLit::positive(idx);
        }
        let index = self.nodes.len();
        self.nodes.push(AigNode {
            kind: AigNodeKind::And,
            fanin0: lo,
            fanin1: hi,
        });
        self.strash.insert((lo, hi), index);
        AigLit::positive(index)
    }

    /// Returns the OR of two literals (built as `¬(¬a·¬b)`).
    pub fn or(&mut self, a: AigLit, b: AigLit) -> AigLit {
        self.and(a.complement(), b.complement()).complement()
    }

    /// Returns the XOR of two literals (built from three AND nodes).
    pub fn xor(&mut self, a: AigLit, b: AigLit) -> AigLit {
        let a_nb = self.and(a, b.complement());
        let na_b = self.and(a.complement(), b);
        self.or(a_nb, na_b)
    }

    /// Returns `sel ? b : a` built from AND/OR nodes.
    pub fn mux(&mut self, sel: AigLit, a: AigLit, b: AigLit) -> AigLit {
        let not_sel_a = self.and(sel.complement(), a);
        let sel_b = self.and(sel, b);
        self.or(not_sel_a, sel_b)
    }

    /// Reduces a slice of literals with AND as a balanced tree.
    pub fn and_many(&mut self, lits: &[AigLit]) -> AigLit {
        self.reduce(lits, AigLit::TRUE, Self::and)
    }

    /// Reduces a slice of literals with OR as a balanced tree.
    pub fn or_many(&mut self, lits: &[AigLit]) -> AigLit {
        self.reduce(lits, AigLit::FALSE, Self::or)
    }

    /// Reduces a slice of literals with XOR as a balanced tree.
    pub fn xor_many(&mut self, lits: &[AigLit]) -> AigLit {
        self.reduce(lits, AigLit::FALSE, Self::xor)
    }

    fn reduce(
        &mut self,
        lits: &[AigLit],
        empty: AigLit,
        op: fn(&mut Self, AigLit, AigLit) -> AigLit,
    ) -> AigLit {
        match lits.len() {
            0 => empty,
            1 => lits[0],
            _ => {
                let mut layer = lits.to_vec();
                while layer.len() > 1 {
                    let mut next = Vec::with_capacity(layer.len().div_ceil(2));
                    for pair in layer.chunks(2) {
                        if pair.len() == 2 {
                            next.push(op(self, pair[0], pair[1]));
                        } else {
                            next.push(pair[0]);
                        }
                    }
                    layer = next;
                }
                layer[0]
            }
        }
    }

    /// Converts a gate-level netlist into AIG form (the ABC `strash`
    /// substitute).
    ///
    /// # Errors
    ///
    /// Returns [`AigError::InvalidNetlist`] if the netlist fails validation.
    pub fn from_netlist(netlist: &Netlist) -> Result<Self, AigError> {
        netlist.validate()?;
        let mut aig = Aig::new(netlist.name());
        let mut map: HashMap<NodeId, AigLit> = HashMap::new();
        for (id, node) in netlist.iter() {
            let lit = match node.kind {
                GateKind::Input => aig.add_input(
                    node.name
                        .clone()
                        .unwrap_or_else(|| format!("pi_{}", id.index())),
                ),
                GateKind::Const0 => AigLit::FALSE,
                GateKind::Const1 => AigLit::TRUE,
                GateKind::Buf => map[&node.fanins[0]],
                GateKind::Not => map[&node.fanins[0]].complement(),
                GateKind::And | GateKind::Nand => {
                    let lits: Vec<AigLit> = node.fanins.iter().map(|f| map[f]).collect();
                    let res = aig.and_many(&lits);
                    if node.kind == GateKind::Nand {
                        res.complement()
                    } else {
                        res
                    }
                }
                GateKind::Or | GateKind::Nor => {
                    let lits: Vec<AigLit> = node.fanins.iter().map(|f| map[f]).collect();
                    let res = aig.or_many(&lits);
                    if node.kind == GateKind::Nor {
                        res.complement()
                    } else {
                        res
                    }
                }
                GateKind::Xor | GateKind::Xnor => {
                    let lits: Vec<AigLit> = node.fanins.iter().map(|f| map[f]).collect();
                    let res = aig.xor_many(&lits);
                    if node.kind == GateKind::Xnor {
                        res.complement()
                    } else {
                        res
                    }
                }
                GateKind::Mux => {
                    let sel = map[&node.fanins[0]];
                    let a = map[&node.fanins[1]];
                    let b = map[&node.fanins[2]];
                    aig.mux(sel, a, b)
                }
            };
            map.insert(id, lit);
        }
        for (po, name) in netlist.outputs() {
            let lit = map[po];
            aig.add_output(lit, name.clone());
        }
        Ok(aig)
    }

    /// Expands the AIG into an explicit PI/AND/NOT netlist.
    ///
    /// Complemented edges are materialised as `NOT` gates (one per distinct
    /// complemented source node), which yields exactly the three-symbol node
    /// alphabet (PI, AND, NOT) the DeepGate model consumes.
    ///
    /// Latch current-state nodes become pseudo primary inputs (the implicit
    /// combinational view); next-state functions are *not* exported as
    /// outputs. Apply [`Aig::cut_latches`] first to keep next-state cones
    /// observable, or [`Aig::unroll`] for a time-expanded view.
    pub fn to_netlist(&self) -> Netlist {
        let mut out = Netlist::new(self.name.clone());
        // Map each AIG node index to its netlist node.
        let mut node_map: Vec<Option<NodeId>> = vec![None; self.nodes.len()];
        // Lazily created NOT node per complemented source.
        let mut not_map: HashMap<usize, NodeId> = HashMap::new();
        // The constant node is only materialised if referenced.
        let mut const_node: Option<NodeId> = None;
        let mut const_not: Option<NodeId> = None;

        for (i, input_idx) in self.inputs.iter().enumerate() {
            let id = out.add_input(self.input_names[i].clone());
            node_map[*input_idx] = Some(id);
        }
        for latch in &self.latches {
            let id = out.add_input(latch.name.clone());
            node_map[latch.state] = Some(id);
        }

        // Resolve a literal to a netlist node, creating NOT/const nodes on
        // demand. Implemented as a closure-free helper to appease borrowck.
        fn resolve(
            out: &mut Netlist,
            node_map: &[Option<NodeId>],
            not_map: &mut HashMap<usize, NodeId>,
            const_node: &mut Option<NodeId>,
            const_not: &mut Option<NodeId>,
            lit: AigLit,
        ) -> NodeId {
            if lit.is_constant() {
                let base = *const_node.get_or_insert_with(|| out.add_const(false));
                if lit.is_complemented() {
                    return *const_not.get_or_insert_with(|| {
                        out.add_gate(GateKind::Not, &[base]).expect("arity 1")
                    });
                }
                return base;
            }
            let base = node_map[lit.node()].expect("fan-in built before use");
            if lit.is_complemented() {
                *not_map
                    .entry(lit.node())
                    .or_insert_with(|| out.add_gate(GateKind::Not, &[base]).expect("arity 1"))
            } else {
                base
            }
        }

        for (i, node) in self.iter() {
            if node.kind != AigNodeKind::And {
                continue;
            }
            let a = resolve(
                &mut out,
                &node_map,
                &mut not_map,
                &mut const_node,
                &mut const_not,
                node.fanin0,
            );
            let b = resolve(
                &mut out,
                &node_map,
                &mut not_map,
                &mut const_node,
                &mut const_not,
                node.fanin1,
            );
            let id = out.add_gate(GateKind::And, &[a, b]).expect("arity 2");
            node_map[i] = Some(id);
        }

        let outputs: Vec<(AigLit, String)> = self.outputs.clone();
        for (lit, name) in outputs {
            let id = resolve(
                &mut out,
                &node_map,
                &mut not_map,
                &mut const_node,
                &mut const_not,
                lit,
            );
            out.mark_output(id, name);
        }
        out
    }

    /// Cuts every latch boundary, producing a purely combinational AIG — the
    /// paper's combinational-cone treatment of sequential circuits.
    ///
    /// Each latch's current-state node becomes a pseudo primary input (same
    /// name), and each next-state function becomes a pseudo primary output
    /// (`<name>_next`), so both the fan-out cone of the state and the fan-in
    /// cone of the next-state function stay observable. Combinational AIGs
    /// come back as a plain (re-strashed) copy.
    pub fn cut_latches(&self) -> Aig {
        let mut out = Aig::new(self.name.clone());
        let mut map: Vec<AigLit> = vec![AigLit::FALSE; self.nodes.len()];
        for (pos, &idx) in self.inputs.iter().enumerate() {
            map[idx] = out.add_input(self.input_names[pos].clone());
        }
        for latch in &self.latches {
            map[latch.state] = out.add_input(latch.name.clone());
        }
        for (i, node) in self.iter() {
            if node.kind == AigNodeKind::And {
                let a = resolve_mapped(&map, node.fanin0);
                let b = resolve_mapped(&map, node.fanin1);
                map[i] = out.and(a, b);
            }
        }
        for (lit, name) in &self.outputs {
            out.add_output(resolve_mapped(&map, *lit), name.clone());
        }
        for latch in &self.latches {
            out.add_output(
                resolve_mapped(&map, latch.next),
                format!("{}_next", latch.name),
            );
        }
        out
    }

    /// Unrolls the sequential circuit over `frames` time frames into one
    /// combinational AIG.
    ///
    /// Frame 0 sees every latch at its reset value (uninitialised latches
    /// become fresh pseudo-inputs named `<name>@init`); frame `t > 0` sees
    /// frame `t-1`'s next-state literal. Primary inputs and outputs are
    /// replicated per frame as `<name>@t`, keeping every frame's outputs
    /// observable. Combinational AIGs come back as a single-frame copy.
    ///
    /// # Errors
    ///
    /// Returns [`AigError::InvalidNetlist`] if `frames` is 0, or if
    /// `frames × nodes` exceeds [`crate::aiger::MAX_VARS`] — the size AIGER
    /// ingest accepts, so a frame count off the wire cannot ask for more
    /// memory than a file can.
    pub fn unroll(&self, frames: usize) -> Result<Aig, AigError> {
        if frames == 0 {
            return Err(AigError::InvalidNetlist(
                "unroll requires at least one frame".into(),
            ));
        }
        let max = crate::aiger::MAX_VARS;
        if frames
            .checked_mul(self.len())
            .is_none_or(|total| total > max)
        {
            return Err(AigError::InvalidNetlist(format!(
                "unrolling {} nodes over {frames} frames exceeds the supported {max} nodes",
                self.len()
            )));
        }
        let mut out = Aig::new(self.name.clone());
        // Current-state literal of each latch entering the frame being built.
        let mut state: Vec<AigLit> = Vec::with_capacity(self.latches.len());
        for latch in &self.latches {
            state.push(match latch.init {
                Some(false) => AigLit::FALSE,
                Some(true) => AigLit::TRUE,
                None => out.add_input(format!("{}@init", latch.name)),
            });
        }
        for frame in 0..frames {
            let mut map: Vec<AigLit> = vec![AigLit::FALSE; self.nodes.len()];
            for (pos, &idx) in self.inputs.iter().enumerate() {
                map[idx] = out.add_input(format!("{}@{frame}", self.input_names[pos]));
            }
            for (j, latch) in self.latches.iter().enumerate() {
                map[latch.state] = state[j];
            }
            for (i, node) in self.iter() {
                if node.kind == AigNodeKind::And {
                    let a = resolve_mapped(&map, node.fanin0);
                    let b = resolve_mapped(&map, node.fanin1);
                    map[i] = out.and(a, b);
                }
            }
            for (lit, name) in &self.outputs {
                out.add_output(resolve_mapped(&map, *lit), format!("{name}@{frame}"));
            }
            for (j, latch) in self.latches.iter().enumerate() {
                state[j] = resolve_mapped(&map, latch.next);
            }
        }
        Ok(out)
    }

    /// Rebuilds the structural-hash table (needed after deserialisation or
    /// AIGER parsing). Keys are canonicalised to the `(lo, hi)` fan-in order
    /// [`Aig::and`] looks up, so raw-pushed nodes with swapped fan-ins still
    /// deduplicate future construction.
    pub fn rebuild_strash(&mut self) {
        self.strash.clear();
        for (i, node) in self.nodes.iter().enumerate() {
            if node.kind == AigNodeKind::And {
                let (lo, hi) = if node.fanin0.raw() <= node.fanin1.raw() {
                    (node.fanin0, node.fanin1)
                } else {
                    (node.fanin1, node.fanin0)
                };
                self.strash.insert((lo, hi), i);
            }
        }
    }

    /// Checks internal invariants: node 0 is the constant, fan-ins of AND
    /// nodes point to earlier nodes, inputs have kind `Input`.
    ///
    /// # Errors
    ///
    /// Returns [`AigError::InvalidNetlist`] describing the first violation.
    pub fn validate(&self) -> Result<(), AigError> {
        if self.nodes.is_empty() || self.nodes[0].kind != AigNodeKind::ConstFalse {
            return Err(AigError::InvalidNetlist(
                "node 0 must be the constant-false node".into(),
            ));
        }
        let mut latch_nodes = 0usize;
        for (i, node) in self.iter().skip(1) {
            match node.kind {
                AigNodeKind::ConstFalse => {
                    return Err(AigError::InvalidNetlist(format!(
                        "node {i} duplicates the constant node"
                    )))
                }
                AigNodeKind::Input => {}
                AigNodeKind::Latch => latch_nodes += 1,
                AigNodeKind::And => {
                    if node.fanin0.node() >= i || node.fanin1.node() >= i {
                        return Err(AigError::InvalidNetlist(format!(
                            "and node {i} references a later node"
                        )));
                    }
                }
            }
        }
        if latch_nodes != self.latches.len() {
            return Err(AigError::InvalidNetlist(format!(
                "{} latch nodes but {} latch table entries",
                latch_nodes,
                self.latches.len()
            )));
        }
        for (j, latch) in self.latches.iter().enumerate() {
            if latch.state >= self.nodes.len() || self.nodes[latch.state].kind != AigNodeKind::Latch
            {
                return Err(AigError::InvalidNetlist(format!(
                    "latch {j} state node {} is not a latch node",
                    latch.state
                )));
            }
            if latch.next.node() >= self.nodes.len() {
                return Err(AigError::UnknownNode(latch.next.node()));
            }
        }
        for (lit, _) in &self.outputs {
            if lit.node() >= self.nodes.len() {
                return Err(AigError::UnknownNode(lit.node()));
            }
        }
        Ok(())
    }
}

/// Translates `lit` through a node-index → literal map, preserving the
/// complement bit. XOR semantics: a complemented reference to a node whose
/// mapped literal is itself complemented resolves to the positive form.
fn resolve_mapped(map: &[AigLit], lit: AigLit) -> AigLit {
    let base = map[lit.node()];
    if lit.is_complemented() {
        base.complement()
    } else {
        base
    }
}

/// The combinational view: the sources are the primary inputs, then the
/// latch states; the sinks are the primary outputs, then the latch
/// next-states.
impl Dag for Aig {
    type Error = AigError;

    fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    fn num_sources(&self) -> usize {
        self.inputs.len() + self.latches.len()
    }

    fn fanins(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        let node = &self.nodes[i];
        let arity = if node.kind == AigNodeKind::And { 2 } else { 0 };
        [node.fanin0.node(), node.fanin1.node()]
            .into_iter()
            .take(arity)
    }

    fn sinks(&self) -> impl Iterator<Item = usize> + '_ {
        let outputs = self.outputs.iter().map(|(lit, _)| lit.node());
        outputs.chain(self.latches.iter().map(|latch| latch.next.node()))
    }

    fn eval_words(&self, sources: &[u64]) -> Vec<u64> {
        let mut values = vec![0u64; self.nodes.len()];
        let states = self.latches.iter().map(|latch| latch.state);
        for (node, &word) in self.inputs.iter().copied().chain(states).zip(sources) {
            values[node] = word;
        }
        // A literal's word: its node's, XOR all ones when complemented.
        let word = |values: &[u64], lit: AigLit| {
            values[lit.node()] ^ u64::from(lit.is_complemented()).wrapping_neg()
        };
        for (i, node) in self.iter() {
            if node.kind == AigNodeKind::And {
                values[i] = word(&values, node.fanin0) & word(&values, node.fanin1);
            }
        }
        values
    }

    fn validate(&self) -> Result<(), AigError> {
        Aig::validate(self)
    }
}

impl fmt::Display for Aig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "aig `{}`: {} inputs, {} ands, {} outputs",
            self.name,
            self.num_inputs(),
            self.num_ands(),
            self.num_outputs()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_simplifications() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        assert_eq!(aig.and(a, AigLit::FALSE), AigLit::FALSE);
        assert_eq!(aig.and(AigLit::TRUE, b), b);
        assert_eq!(aig.and(a, a), a);
        assert_eq!(aig.and(a, a.complement()), AigLit::FALSE);
        assert_eq!(aig.num_ands(), 0);
    }

    #[test]
    fn structural_hashing_deduplicates() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let g1 = aig.and(a, b);
        let g2 = aig.and(b, a);
        assert_eq!(g1, g2);
        assert_eq!(aig.num_ands(), 1);
        let g3 = aig.or(a, b);
        let g4 = aig.or(a, b);
        assert_eq!(g3, g4);
        assert_eq!(aig.num_ands(), 2);
    }

    #[test]
    fn xor_uses_three_ands() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let _x = aig.xor(a, b);
        assert_eq!(aig.num_ands(), 3);
    }

    #[test]
    fn from_netlist_maps_all_gate_kinds() {
        let mut n = Netlist::new("mix");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let g_and = n.add_gate(GateKind::And, &[a, b]).unwrap();
        let g_or = n.add_gate(GateKind::Or, &[b, c]).unwrap();
        let g_nand = n.add_gate(GateKind::Nand, &[a, c]).unwrap();
        let g_nor = n.add_gate(GateKind::Nor, &[g_and, g_or]).unwrap();
        let g_xor = n.add_gate(GateKind::Xor, &[g_nand, g_nor]).unwrap();
        let g_xnor = n.add_gate(GateKind::Xnor, &[g_xor, a]).unwrap();
        let g_mux = n.add_gate(GateKind::Mux, &[g_xnor, b, c]).unwrap();
        let g_not = n.add_gate(GateKind::Not, &[g_mux]).unwrap();
        let g_buf = n.add_gate(GateKind::Buf, &[g_not]).unwrap();
        n.mark_output(g_buf, "y");
        let aig = Aig::from_netlist(&n).unwrap();
        assert!(aig.validate().is_ok());
        assert_eq!(aig.num_inputs(), 3);
        assert_eq!(aig.num_outputs(), 1);
        assert!(aig.num_ands() > 0);
    }

    #[test]
    fn levels_and_fanouts() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let ab = aig.and(a, b);
        let abc = aig.and(ab, c);
        aig.add_output(abc, "y");
        let (levels, max) = aig.levels();
        assert_eq!(max, 2);
        assert_eq!(levels[ab.node()], 1);
        assert_eq!(levels[abc.node()], 2);
        let fanouts = aig.fanout_counts();
        assert_eq!(fanouts[ab.node()], 1);
        assert_eq!(fanouts[abc.node()], 1);
        assert_eq!(fanouts[a.node()], 1);
    }

    #[test]
    fn to_netlist_expands_inverters_once_per_source() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        // or(a, b) = ¬(¬a·¬b): uses ¬a and ¬b.
        let o = aig.or(a, b);
        // nand(a, b) = ¬(a·b): output inverter on the and node.
        let nand = aig.and(a, b).complement();
        aig.add_output(o, "o");
        aig.add_output(nand, "n");
        let n = aig.to_netlist();
        assert!(n.validate().is_ok());
        let count_of = |kind| n.iter().filter(|(_, node)| node.kind == kind).count();
        // Nodes: 2 PIs, 2 ANDs, NOTs: ¬a, ¬b, ¬(¬a·¬b), ¬(a·b) = 4 NOTs.
        assert_eq!(count_of(GateKind::And), 2);
        assert_eq!(count_of(GateKind::Not), 4);
        assert_eq!(count_of(GateKind::Input), 2);
        // Only PI/AND/NOT appear.
        assert_eq!(n.len(), 8);
    }

    #[test]
    fn to_netlist_handles_constant_outputs() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        aig.add_output(AigLit::TRUE, "one");
        aig.add_output(AigLit::FALSE, "zero");
        aig.add_output(a, "a_out");
        let n = aig.to_netlist();
        assert!(n.validate().is_ok());
        assert_eq!(n.num_outputs(), 3);
        let zeros = n.iter().filter(|(_, node)| node.kind == GateKind::Const0);
        assert_eq!(zeros.count(), 1);
    }

    #[test]
    fn validate_rejects_forward_reference() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let _ = aig.and(a, b);
        // Corrupt: make the AND node reference a future node.
        aig.nodes[3].fanin0 = AigLit::positive(10);
        assert!(aig.validate().is_err());
    }

    #[test]
    fn display_summarises_the_interface() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let ab = aig.and(a, b);
        let o = aig.or(ab, a);
        aig.add_output(o, "y");
        assert_eq!(aig.to_string(), "aig `t`: 2 inputs, 2 ands, 1 outputs");
    }

    #[test]
    fn rebuild_strash_restores_dedup() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let g1 = aig.and(a, b);
        aig.strash.clear();
        aig.rebuild_strash();
        let g2 = aig.and(a, b);
        assert_eq!(g1, g2);
    }

    /// A toggle flip-flop: `q' = q XOR en`, output `y = q`.
    fn toggle_aig() -> Aig {
        let mut aig = Aig::new("toggle");
        let en = aig.add_input("en");
        let q = aig.add_latch("q");
        let next = aig.xor(q, en);
        aig.set_latch_next(0, next);
        aig.add_output(q, "y");
        aig
    }

    #[test]
    fn latch_accessors() {
        let aig = toggle_aig();
        assert_eq!(aig.num_latches(), 1);
        assert!(!aig.is_combinational());
        assert_eq!(aig.latches()[0].name, "q");
        assert_eq!(aig.latches()[0].init, Some(false));
        assert!(aig.validate().is_ok());
    }

    #[test]
    fn validate_rejects_inconsistent_latch_table() {
        let mut aig = toggle_aig();
        aig.latches.clear();
        assert!(aig.validate().is_err());
        assert!(Dag::validate(&aig).is_err());
    }

    #[test]
    fn latch_state_is_a_source_and_its_next_state_a_sink() {
        let aig = toggle_aig();
        let (en, q) = (aig.inputs()[0], aig.latches()[0].state);
        assert_eq!(aig.num_sources(), 2);
        // y observes q, and the latch observes its next state.
        let sinks: Vec<usize> = aig.sinks().collect();
        assert_eq!(sinks, [q, aig.latches()[0].next.node()]);
        let next = aig.latches()[0].next.node();
        assert_eq!(aig.fanout_counts()[next], 1);
        assert_eq!(aig.fanins(en).count(), 0);
    }

    #[test]
    fn cut_latches_exposes_state_and_next() {
        let aig = toggle_aig();
        let cut = aig.cut_latches();
        assert!(cut.is_combinational());
        assert_eq!(cut.num_inputs(), 2); // en + pseudo-input q
        assert_eq!(cut.num_outputs(), 2); // y + q_next
        assert!(cut.outputs().iter().any(|(_, n)| n == "q_next"));
        assert!(cut.validate().is_ok());
    }

    #[test]
    fn unroll_replicates_io_per_frame() {
        let aig = toggle_aig();
        let unrolled = aig.unroll(3).expect("3 frames");
        assert!(unrolled.is_combinational());
        assert_eq!(unrolled.num_inputs(), 3); // en@0..en@2
        assert_eq!(unrolled.num_outputs(), 3); // y@0..y@2
        assert!(unrolled.outputs().iter().any(|(_, n)| n == "y@2"));
        // Frame 0 sees the reset value, so y@0 is the constant false.
        let y0 = unrolled
            .outputs()
            .iter()
            .find(|(_, n)| n == "y@0")
            .expect("y@0 present");
        assert_eq!(y0.0, AigLit::FALSE);
        assert!(unrolled.validate().is_ok());
    }

    #[test]
    fn unroll_uninitialised_latch_gets_init_input() {
        let mut aig = toggle_aig();
        aig.set_latch_init(0, None);
        let unrolled = aig.unroll(2).expect("2 frames");
        assert_eq!(unrolled.num_inputs(), 3); // q@init + en@0 + en@1
        assert!(unrolled.validate().is_ok());
    }

    #[test]
    fn unroll_zero_frames_errors() {
        assert!(toggle_aig().unroll(0).is_err());
    }

    #[test]
    fn unroll_rejects_frame_counts_beyond_the_ingest_cap() {
        let aig = toggle_aig();
        let fits = crate::aiger::MAX_VARS / aig.len();
        for frames in [fits + 1, usize::MAX / 2, usize::MAX] {
            let error = aig.unroll(frames).expect_err("over the cap");
            assert!(error.to_string().contains("exceeds"), "{error}");
        }
        // The check is on the product, not on the frame count.
        assert!(Aig::new("empty").unroll(1 << 20).is_ok());
    }

    #[test]
    fn to_netlist_treats_latch_as_pseudo_input() {
        let aig = toggle_aig();
        let n = aig.to_netlist();
        assert!(n.validate().is_ok());
        assert_eq!(n.num_inputs(), 2); // en + q
        assert_eq!(n.num_outputs(), 1); // y only: next-state cone not exported
    }
}
