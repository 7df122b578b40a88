use crate::{AigError, AigLit};
use deepgate_netlist::{Dag, GateKind, Netlist, NodeId};
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

/// One sequential state element of an [`Aig`].
///
/// Latch `j`'s current-state value is node `1 + num_inputs + j` (the `j`-th
/// of [`Aig::latch_states`]); `next` is the literal latched at every clock
/// edge; `init` is the reset value (`Some(false)`/`Some(true)`) or `None` for
/// an uninitialised latch, the three-way semantics of AIGER 1.9.
///
/// In the combinational view a latch state behaves like a primary input: it
/// has no fan-ins and its value is free, whatever its reset value. It is a
/// source of the [`Dag`] view after the primary inputs, so simulation drives
/// it with random patterns like an input, as [`Aig::to_netlist`] does with
/// the pseudo-input it becomes. The ingestion policies
/// ([`Aig::cut_latches`], [`Aig::unroll`]) eliminate latches before a
/// circuit reaches the learning pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct AigLatch {
    /// The next-state literal.
    pub next: AigLit,
    /// Reset value; `None` means uninitialised.
    pub init: Option<bool>,
    /// Latch name (from an AIGER symbol table, or generated).
    pub name: String,
}

/// An And-Inverter Graph with structural hashing, numbered the way AIGER
/// numbers its variables.
///
/// Node 0 is the constant-false node, nodes [`Aig::inputs`] the primary
/// inputs, then [`Aig::latch_states`], then the AND nodes ([`Aig::ands`]) in
/// topological order, each stored as its two fan-in literals. A node's kind
/// is the range its index falls in, and node `k` is AIGER variable `k`; so
/// every input and latch is declared before the first AND. Edges are
/// [`AigLit`]s that carry a complement bit, so inverters are free.
/// Construction performs constant folding, trivial simplification
/// (`x·x = x`, `x·¬x = 0`, `x·1 = x`, `x·0 = 0`) and structural hashing,
/// mirroring the behaviour of ABC's `strash` command that the paper relies
/// on.
#[derive(Debug, Clone, PartialEq)]
pub struct Aig {
    name: String,
    input_names: Vec<String>,
    latches: Vec<AigLatch>,
    ands: Vec<[AigLit; 2]>,
    outputs: Vec<(AigLit, String)>,
    strash: HashMap<(AigLit, AigLit), usize>,
}

impl Aig {
    /// Creates an empty AIG containing only the constant node.
    pub fn new(name: impl Into<String>) -> Self {
        Aig {
            name: name.into(),
            input_names: Vec::new(),
            latches: Vec::new(),
            ands: Vec::new(),
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
        self.first_and() + self.ands.len()
    }

    /// Returns `true` if the AIG contains only the constant node.
    pub fn is_empty(&self) -> bool {
        self.len() == 1
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.input_names.len()
    }

    /// Number of AND nodes.
    pub fn num_ands(&self) -> usize {
        self.ands.len()
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

    /// Node indices of the primary inputs, in declaration order: `1..=I`.
    pub fn inputs(&self) -> Range<usize> {
        1..1 + self.input_names.len()
    }

    /// Node indices of the latch current-state values, in latch-table order.
    pub fn latch_states(&self) -> Range<usize> {
        self.inputs().end..self.first_and()
    }

    /// The AND nodes as `(index, [fanin0, fanin1])`, in topological (index)
    /// order.
    pub fn ands(&self) -> impl Iterator<Item = (usize, [AigLit; 2])> + '_ {
        (self.first_and()..).zip(self.ands.iter().copied())
    }

    /// The fan-in literals of node `index`, or `None` if it is not an AND.
    pub fn and_fanins(&self, index: usize) -> Option<[AigLit; 2]> {
        let k = index.checked_sub(self.first_and())?;
        self.ands.get(k).copied()
    }

    /// Index of the first AND node, one past the last source.
    fn first_and(&self) -> usize {
        1 + self.input_names.len() + self.latches.len()
    }

    /// Input names, then latch names: one per source, in source order.
    fn source_names(&self) -> impl Iterator<Item = &String> {
        let latches = self.latches.iter().map(|latch| &latch.name);
        self.input_names.iter().chain(latches)
    }

    /// Name of the `i`-th primary input.
    pub fn input_name(&self, i: usize) -> &str {
        &self.input_names[i]
    }

    /// Primary outputs as `(literal, name)` pairs.
    pub fn outputs(&self) -> &[(AigLit, String)] {
        &self.outputs
    }

    /// Adds a primary input and returns its (positive) literal.
    ///
    /// # Panics
    ///
    /// Panics if a latch or an AND node has been added: inputs come first.
    pub fn add_input(&mut self, name: impl Into<String>) -> AigLit {
        assert!(
            self.latches.is_empty() && self.ands.is_empty(),
            "inputs are declared before every latch and AND node"
        );
        self.input_names.push(name.into());
        AigLit::positive(self.input_names.len())
    }

    /// Marks a literal as a primary output.
    pub fn add_output(&mut self, lit: AigLit, name: impl Into<String>) {
        self.outputs.push((lit, name.into()));
    }

    /// Adds a latch (reset to 0, next state constant-false until
    /// [`Aig::set_latch_next`] is called) and returns the positive literal of
    /// its current-state node.
    ///
    /// # Panics
    ///
    /// Panics if an AND node has been added: latches come before the ANDs.
    pub fn add_latch(&mut self, name: impl Into<String>) -> AigLit {
        assert!(
            self.ands.is_empty(),
            "latches are declared before every AND node"
        );
        self.latches.push(AigLatch {
            next: AigLit::FALSE,
            init: Some(false),
            name: name.into(),
        });
        AigLit::positive(self.first_and() - 1)
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
        self.ands.push([fanin0, fanin1]);
        AigLit::positive(self.len() - 1)
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
        let lit = self.push_raw_and(lo, hi);
        self.strash.insert((lo, hi), lit.node());
        lit
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
    /// substitute). The netlist's inputs are declared first, in
    /// [`Netlist::inputs`] order; its gates follow in id order.
    ///
    /// # Errors
    ///
    /// Returns [`AigError::InvalidNetlist`] if the netlist fails validation.
    pub fn from_netlist(netlist: &Netlist) -> Result<Self, AigError> {
        netlist.validate()?;
        let mut aig = Aig::new(netlist.name());
        // Netlist node index -> its literal; fan-ins precede their gates.
        let mut map = vec![AigLit::FALSE; netlist.len()];
        for &id in netlist.inputs() {
            let name = netlist.node(id).name.clone();
            map[id.index()] = aig.add_input(name.unwrap_or_else(|| format!("pi_{}", id.index())));
        }
        let mut lits = Vec::new();
        for (id, node) in netlist.iter() {
            lits.clear();
            lits.extend(node.fanins.iter().map(|f| map[f.index()]));
            let lit = match node.kind {
                GateKind::Input => continue,
                GateKind::Const0 | GateKind::Const1 => AigLit::FALSE,
                GateKind::Buf | GateKind::Not => lits[0],
                GateKind::And | GateKind::Nand => aig.and_many(&lits),
                GateKind::Or | GateKind::Nor => aig.or_many(&lits),
                GateKind::Xor | GateKind::Xnor => aig.xor_many(&lits),
                GateKind::Mux => aig.mux(lits[0], lits[1], lits[2]),
            };
            let inverted = matches!(
                node.kind,
                GateKind::Const1 | GateKind::Not | GateKind::Nand | GateKind::Nor | GateKind::Xnor
            );
            map[id.index()] = if inverted { !lit } else { lit };
        }
        for (po, name) in netlist.outputs() {
            aig.add_output(map[po.index()], name.clone());
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
        // The netlist node of each literal, indexed by `AigLit::raw`.
        let mut ids: Vec<Option<NodeId>> = vec![None; 2 * self.len()];
        for (node, name) in (1..).zip(self.source_names()) {
            ids[2 * node] = Some(out.add_input(name.clone()));
        }
        for (i, fanins) in self.ands() {
            let fanins = fanins.map(|lit| resolve(&mut out, &mut ids, lit));
            ids[2 * i] = Some(out.add_gate(GateKind::And, &fanins).expect("arity 2"));
        }
        for (lit, name) in &self.outputs {
            let id = resolve(&mut out, &mut ids, *lit);
            out.mark_output(id, name.clone());
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
        let sources: Vec<AigLit> = self
            .source_names()
            .map(|name| out.add_input(name.clone()))
            .collect();
        let (outputs, nexts) = self.rebuild(&mut out, &sources, |out, map, _, fanins| {
            Some(map.and(out, fanins))
        });
        for ((_, name), lit) in self.outputs.iter().zip(outputs) {
            out.add_output(lit, name.clone());
        }
        for (latch, lit) in self.latches.iter().zip(nexts) {
            out.add_output(lit, format!("{}_next", latch.name));
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
    /// observable; every frame's inputs are declared before the first AND.
    /// Combinational AIGs come back as a single-frame copy.
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
        let mut state: Vec<AigLit> = (self.latches.iter())
            .map(|latch| match latch.init {
                Some(init) => AigLit::FALSE.with_complement(init),
                None => out.add_input(format!("{}@init", latch.name)),
            })
            .collect();
        let inputs: Vec<AigLit> = (0..frames)
            .flat_map(|frame| (self.input_names.iter()).map(move |name| format!("{name}@{frame}")))
            .map(|name| out.add_input(name))
            .collect();
        let width = self.num_inputs();
        for frame in 0..frames {
            let mut sources = inputs[frame * width..(frame + 1) * width].to_vec();
            sources.extend_from_slice(&state);
            let (outputs, nexts) = self.rebuild(&mut out, &sources, |out, map, _, fanins| {
                Some(map.and(out, fanins))
            });
            for ((_, name), lit) in self.outputs.iter().zip(outputs) {
                out.add_output(lit, format!("{name}@{frame}"));
            }
            state = nexts;
        }
        Ok(out)
    }

    /// The one rebuild walk every pass shares. Seeds a [`NodeMap`] with
    /// `sources` (the literals this AIG's inputs, then latch states, become
    /// in `out`), rebuilds each AND in index order through `and` (`None`
    /// drops it), and returns the output and next-state literals translated
    /// into `out`.
    pub(crate) fn rebuild(
        &self,
        out: &mut Aig,
        sources: &[AigLit],
        mut and: impl FnMut(&mut Aig, &NodeMap, usize, [AigLit; 2]) -> Option<AigLit>,
    ) -> (Vec<AigLit>, Vec<AigLit>) {
        debug_assert_eq!(sources.len(), self.num_sources());
        let mut map = NodeMap(vec![None; self.len()]);
        map.0[0] = Some(AigLit::FALSE);
        for (slot, &lit) in map.0[1..].iter_mut().zip(sources) {
            *slot = Some(lit);
        }
        for (i, fanins) in self.ands() {
            map.0[i] = and(out, &map, i, fanins);
        }
        let outputs = self.outputs.iter().map(|(lit, _)| map.translate(*lit));
        let nexts = self.latches.iter().map(|latch| map.translate(latch.next));
        (outputs.collect(), nexts.collect())
    }

    /// Rebuilds the structural-hash table (needed after AIGER parsing). Keys
    /// are canonicalised to the `(lo, hi)` fan-in order [`Aig::and`] looks
    /// up, so raw-pushed nodes with swapped fan-ins still deduplicate future
    /// construction.
    pub fn rebuild_strash(&mut self) {
        let canonical = |(i, [a, b]): (usize, [AigLit; 2])| {
            (if a.raw() <= b.raw() { (a, b) } else { (b, a) }, i)
        };
        self.strash = self.ands().map(canonical).collect();
    }

    /// Checks internal invariants: AND fan-ins point to earlier nodes, and
    /// every output and next-state literal names a node.
    ///
    /// # Errors
    ///
    /// Returns [`AigError::InvalidNetlist`] describing the first violation.
    pub fn validate(&self) -> Result<(), AigError> {
        for (i, [a, b]) in self.ands() {
            if a.node() >= i || b.node() >= i {
                return Err(AigError::InvalidNetlist(format!(
                    "and node {i} references a later node"
                )));
            }
        }
        let outputs = self.outputs.iter().map(|(lit, _)| lit);
        for lit in outputs.chain(self.latches.iter().map(|latch| &latch.next)) {
            if lit.node() >= self.len() {
                return Err(AigError::UnknownNode(lit.node()));
            }
        }
        Ok(())
    }
}

/// The netlist node of `lit` in [`Aig::to_netlist`]'s literal table, adding
/// the constant and each inverter the first time a literal names it.
fn resolve(out: &mut Netlist, ids: &mut [Option<NodeId>], lit: AigLit) -> NodeId {
    if let Some(id) = ids[lit.raw() as usize] {
        return id;
    }
    let id = if lit.is_complemented() {
        let base = resolve(out, ids, !lit);
        out.add_gate(GateKind::Not, &[base]).expect("arity 1")
    } else {
        assert!(lit.is_constant(), "fan-in built before use");
        out.add_const(false)
    };
    ids[lit.raw() as usize] = Some(id);
    id
}

/// A rebuild's node map: node `i` of the source AIG to its literal in the
/// AIG being built; `None` until rebuilt, or for a node the pass drops.
pub(crate) struct NodeMap(Vec<Option<AigLit>>);

impl NodeMap {
    /// Translates `lit` through the map, complement bit included.
    pub(crate) fn translate(&self, lit: AigLit) -> AigLit {
        let base = self.0[lit.node()].expect("fan-ins are rebuilt before their consumers");
        if lit.is_complemented() {
            !base
        } else {
            base
        }
    }

    /// The AND of two source fan-ins, translated and strashed into `out`.
    pub(crate) fn and(&self, out: &mut Aig, [a, b]: [AigLit; 2]) -> AigLit {
        out.and(self.translate(a), self.translate(b))
    }
}

/// The combinational view: the sources are the primary inputs, then the
/// latch states; the sinks are the primary outputs, then the latch
/// next-states.
impl Dag for Aig {
    type Error = AigError;

    fn num_nodes(&self) -> usize {
        self.len()
    }

    fn num_sources(&self) -> usize {
        self.first_and() - 1
    }

    fn fanins(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.and_fanins(i).into_iter().flatten().map(AigLit::node)
    }

    fn sinks(&self) -> impl Iterator<Item = usize> + '_ {
        let outputs = self.outputs.iter().map(|(lit, _)| lit.node());
        outputs.chain(self.latches.iter().map(|latch| latch.next.node()))
    }

    fn eval_words(&self, sources: &[u64], values: &mut [u64]) {
        values[0] = 0;
        values[1..self.first_and()].copy_from_slice(sources);
        // A literal's word: its node's, XOR all ones when complemented.
        let word = |values: &[u64], lit: AigLit| {
            values[lit.node()] ^ u64::from(lit.is_complemented()).wrapping_neg()
        };
        for (i, [a, b]) in self.ands() {
            values[i] = word(values, a) & word(values, b);
        }
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
        aig.ands[0][0] = AigLit::positive(10);
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
    fn validate_rejects_a_dangling_next_state() {
        let mut aig = toggle_aig();
        aig.set_latch_next(0, AigLit::positive(aig.len()));
        assert!(aig.validate().is_err());
        assert!(Dag::validate(&aig).is_err());
    }

    #[test]
    fn kinds_are_index_ranges() {
        let aig = toggle_aig();
        assert_eq!(aig.inputs(), 1..2);
        assert_eq!(aig.latch_states(), 2..3);
        assert_eq!(aig.and_fanins(2), None);
        let ands: Vec<usize> = aig.ands().map(|(i, _)| i).collect();
        assert_eq!(ands, [3, 4, 5]);
        assert_eq!(aig.len(), 6);
        assert!(ands.iter().all(|&i| aig.and_fanins(i).is_some()));
        assert_eq!(aig.and_fanins(6), None);
    }

    #[test]
    #[should_panic(expected = "inputs are declared before every latch")]
    fn an_input_after_a_latch_panics() {
        let mut aig = Aig::new("t");
        aig.add_latch("q");
        aig.add_input("a");
    }

    #[test]
    #[should_panic(expected = "inputs are declared before every latch and AND")]
    fn an_input_after_an_and_panics() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        aig.and(a, b);
        aig.add_input("c");
    }

    #[test]
    #[should_panic(expected = "latches are declared before every AND")]
    fn a_latch_after_an_and_panics() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        aig.and(a, b);
        aig.add_latch("q");
    }

    #[test]
    fn latch_state_is_a_source_and_its_next_state_a_sink() {
        let aig = toggle_aig();
        let (en, q) = (aig.inputs().start, aig.latch_states().start);
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
