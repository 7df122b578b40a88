use crate::{Dag, GateKind, NetlistError};
use std::collections::HashMap;
use std::fmt;

/// Index of a node inside a [`Netlist`].
///
/// Node ids are dense, start at zero and are stable for the lifetime of the
/// netlist (nodes are never removed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node index as a `usize`, for slice indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<NodeId> for usize {
    fn from(id: NodeId) -> usize {
        id.index()
    }
}

/// One node (primary input, constant or gate) of a [`Netlist`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// The gate kind of this node.
    pub kind: GateKind,
    /// Fan-in node ids, in argument order.
    pub fanins: Vec<NodeId>,
    /// Optional signal name (always present for primary inputs).
    pub name: Option<String>,
}

/// One gate declaration of a text netlist, `output = kind(inputs)`, as
/// written on 1-based source line `line`.
#[derive(Debug, Clone)]
pub(crate) struct GateDecl {
    pub(crate) line: usize,
    pub(crate) output: String,
    pub(crate) kind: GateKind,
    pub(crate) inputs: Vec<String>,
}

/// A combinational gate-level netlist represented as a DAG.
///
/// This is the unified circuit representation the rest of the workspace
/// consumes: BENCH files parse into it, synthetic benchmark generators build
/// it, and `deepgate-aig` maps it into And-Inverter-Graph form.
///
/// # Example
///
/// ```rust
/// use deepgate_netlist::{GateKind, Netlist};
///
/// # fn main() -> Result<(), deepgate_netlist::NetlistError> {
/// let mut n = Netlist::new("majority");
/// let a = n.add_input("a");
/// let b = n.add_input("b");
/// let c = n.add_input("c");
/// let ab = n.add_gate(GateKind::And, &[a, b])?;
/// let bc = n.add_gate(GateKind::And, &[b, c])?;
/// let ac = n.add_gate(GateKind::And, &[a, c])?;
/// let maj = n.add_gate(GateKind::Or, &[ab, bc, ac])?;
/// n.mark_output(maj, "maj");
/// assert_eq!(n.num_inputs(), 3);
/// assert_eq!(n.num_gates(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    name: String,
    nodes: Vec<Node>,
    inputs: Vec<NodeId>,
    outputs: Vec<(NodeId, String)>,
}

impl Netlist {
    /// Creates an empty netlist with the given design name.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            nodes: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
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

    /// Total number of nodes (inputs, constants and gates).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the netlist has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of logic gates (nodes that are not primary inputs or constants).
    pub fn num_gates(&self) -> usize {
        self.nodes.iter().filter(|n| n.kind.is_gate()).count()
    }

    /// Primary input node ids, in declaration order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Primary outputs as `(node, name)` pairs, in declaration order.
    pub fn outputs(&self) -> &[(NodeId, String)] {
        &self.outputs
    }

    /// Access a node by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Access a node by id, returning `None` when out of range.
    pub fn get(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.index())
    }

    /// Iterate over `(id, node)` pairs in id order (which is a valid
    /// topological order because fan-ins must exist before use).
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Adds a primary input with the given name and returns its id.
    pub fn add_input(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            kind: GateKind::Input,
            fanins: Vec::new(),
            name: Some(name.into()),
        });
        self.inputs.push(id);
        id
    }

    /// Adds a constant node and returns its id.
    pub fn add_const(&mut self, value: bool) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            kind: if value {
                GateKind::Const1
            } else {
                GateKind::Const0
            },
            fanins: Vec::new(),
            name: None,
        });
        id
    }

    /// Adds a gate of the given kind with the given fan-ins and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::ArityMismatch`] if the fan-in count is illegal
    /// for `kind`, and [`NetlistError::UnknownNode`] if a fan-in id does not
    /// exist yet. Because fan-ins must already exist, insertion order is a
    /// topological order and cycles cannot be constructed through this API.
    pub fn add_gate(&mut self, kind: GateKind, fanins: &[NodeId]) -> Result<NodeId, NetlistError> {
        if !kind.accepts_arity(fanins.len()) {
            return Err(NetlistError::ArityMismatch {
                kind: kind.mnemonic(),
                got: fanins.len(),
            });
        }
        for &f in fanins {
            if f.index() >= self.nodes.len() {
                return Err(NetlistError::UnknownNode(f.index()));
            }
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            kind,
            fanins: fanins.to_vec(),
            name: None,
        });
        Ok(id)
    }

    /// Adds a gate and assigns a signal name to it.
    ///
    /// # Errors
    ///
    /// Same as [`Netlist::add_gate`].
    pub fn add_named_gate(
        &mut self,
        kind: GateKind,
        fanins: &[NodeId],
        name: impl Into<String>,
    ) -> Result<NodeId, NetlistError> {
        let id = self.add_gate(kind, fanins)?;
        self.nodes[id.index()].name = Some(name.into());
        Ok(id)
    }

    /// Marks `node` as a primary output under `name`. A node may drive
    /// multiple outputs.
    pub fn mark_output(&mut self, node: NodeId, name: impl Into<String>) {
        self.outputs.push((node, name.into()));
    }

    /// Returns the signal name of a node if it has one.
    pub fn node_name(&self, id: NodeId) -> Option<&str> {
        self.nodes[id.index()].name.as_deref()
    }

    /// Looks up a node id by signal name (inputs and named gates).
    pub fn find_by_name(&self, name: &str) -> Option<NodeId> {
        self.iter()
            .find(|(_, n)| n.name.as_deref() == Some(name))
            .map(|(id, _)| id)
    }

    /// Builds a netlist from the declarations of a text netlist, whose gates
    /// may be declared in any order; both text readers end here.
    ///
    /// Inputs take ids `0..inputs.len()` in declaration order. Gates follow
    /// in the order repeated in-order sweeps over the declarations would add
    /// them: gate `g` lands in sweep `s(g) = max(1, max over its producers h
    /// of s(h) + [h declared after g])`, and gates are numbered by `(s(g),
    /// declaration index)`, so a text that defines every signal before
    /// reading it keeps declaration order. The resolve is Kahn's algorithm
    /// over the producer graph: O(gates + pins), one name lookup per pin.
    ///
    /// # Errors
    ///
    /// In this order: [`NetlistError::DuplicateSignal`] for the first name
    /// declared twice; [`NetlistError::Parse`] at its line for the first
    /// gate, in numbering order, whose kind rejects its fan-in count;
    /// [`NetlistError::UndefinedSignal`] for the first fan-in of the first
    /// unresolvable gate that is undefined or unresolvable itself (a cycle),
    /// then for the first undriven output.
    pub(crate) fn from_declarations(
        name: impl Into<String>,
        inputs: Vec<String>,
        outputs: Vec<String>,
        mut gates: Vec<GateDecl>,
    ) -> Result<Netlist, NetlistError> {
        const NONE: usize = usize::MAX;
        let (num_inputs, num_gates) = (inputs.len(), gates.len());
        // Signal `s` is primary input `s`, or gate `s - num_inputs` above them.
        let mut signal: HashMap<&str, usize> = HashMap::with_capacity(num_inputs + num_gates);
        for name in inputs.iter().chain(gates.iter().map(|g| &g.output)) {
            let next = signal.len();
            if signal.insert(name, next).is_some() {
                return Err(NetlistError::DuplicateSignal(name.clone()));
            }
        }
        let lookup = |name: &String| signal.get(name.as_str()).copied().unwrap_or(NONE);
        // Gate `g` reads signals `pins[first_pin[g]..first_pin[g + 1]]`
        // (NONE: undefined), `pending[g]` of them not yet produced (an
        // undefined one never is); `first_use[h]` chains through `uses`
        // every pin gate `h` drives.
        let mut pins = Vec::new();
        let mut first_pin = vec![0];
        let mut pending = vec![0usize; num_gates];
        let mut first_use = vec![NONE; num_gates];
        let mut uses: Vec<(usize, usize)> = Vec::new();
        for (g, gate) in gates.iter().enumerate() {
            for s in gate.inputs.iter().map(lookup) {
                pending[g] += usize::from(s >= num_inputs);
                if s != NONE && s >= num_inputs {
                    uses.push((g, first_use[s - num_inputs]));
                    first_use[s - num_inputs] = uses.len() - 1;
                }
                pins.push(s);
            }
            first_pin.push(pins.len());
        }
        let drivers: Vec<usize> = outputs.iter().map(lookup).collect();

        let mut sweep = vec![1usize; num_gates];
        let mut ready: Vec<usize> = (0..num_gates).filter(|&g| pending[g] == 0).collect();
        while let Some(h) = ready.pop() {
            let mut u = first_use[h];
            while u != NONE {
                let (g, next) = uses[u];
                sweep[g] = sweep[g].max(sweep[h] + usize::from(h > g));
                pending[g] -= 1;
                if pending[g] == 0 {
                    ready.push(g);
                }
                u = next;
            }
        }
        // A sweep number never exceeds the gate count: bucket by it.
        let mut by_sweep = vec![Vec::new(); num_gates + 1];
        for g in (0..num_gates).filter(|&g| pending[g] == 0) {
            by_sweep[sweep[g]].push(g);
        }

        let mut netlist = Netlist::new(name);
        let mut node_of: Vec<NodeId> = inputs.into_iter().map(|i| netlist.add_input(i)).collect();
        node_of.resize(num_inputs + num_gates, NodeId(0));
        let mut fanins = Vec::new();
        for g in by_sweep.into_iter().flatten() {
            fanins.clear();
            fanins.extend(
                pins[first_pin[g]..first_pin[g + 1]]
                    .iter()
                    .map(|&s| node_of[s]),
            );
            let gate = &mut gates[g];
            node_of[num_inputs + g] = netlist
                .add_named_gate(gate.kind, &fanins, std::mem::take(&mut gate.output))
                .map_err(|e| NetlistError::Parse {
                    line: gate.line,
                    message: e.to_string(),
                })?;
        }
        let unproduced = |s: usize| s == NONE || (s >= num_inputs && pending[s - num_inputs] > 0);
        for g in (0..num_gates).filter(|&g| pending[g] > 0) {
            let pins = &pins[first_pin[g]..first_pin[g + 1]];
            if let Some(at) = pins.iter().position(|&s| unproduced(s)) {
                return Err(NetlistError::UndefinedSignal(gates[g].inputs[at].clone()));
            }
        }
        for (output, s) in outputs.into_iter().zip(drivers) {
            if s == NONE {
                return Err(NetlistError::UndefinedSignal(output));
            }
            netlist.mark_output(node_of[s], output);
        }
        Ok(netlist)
    }

    /// Checks internal invariants: fan-in ids in range, arities legal, every
    /// output refers to an existing node, primary inputs have no fan-ins.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), NetlistError> {
        for (id, node) in self.iter() {
            if !node.kind.accepts_arity(node.fanins.len()) {
                return Err(NetlistError::ArityMismatch {
                    kind: node.kind.mnemonic(),
                    got: node.fanins.len(),
                });
            }
            for &f in &node.fanins {
                if f.index() >= self.nodes.len() {
                    return Err(NetlistError::UnknownNode(f.index()));
                }
                if f.index() >= id.index() {
                    return Err(NetlistError::Cycle {
                        from: f.index(),
                        to: id.index(),
                    });
                }
            }
        }
        for (node, _) in &self.outputs {
            if node.index() >= self.nodes.len() {
                return Err(NetlistError::UnknownNode(node.index()));
            }
        }
        Ok(())
    }
}

impl Dag for Netlist {
    type Error = NetlistError;

    fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    fn num_sources(&self) -> usize {
        self.inputs.len()
    }

    fn fanins(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.nodes[i].fanins.iter().map(|f| f.index())
    }

    fn sinks(&self) -> impl Iterator<Item = usize> + '_ {
        self.outputs.iter().map(|(id, _)| id.index())
    }

    fn eval_words(&self, sources: &[u64], values: &mut [u64]) {
        let mut sources = sources.iter();
        for (i, node) in self.nodes.iter().enumerate() {
            values[i] = match node.kind {
                GateKind::Input => *sources.next().expect("one word per input"),
                kind => kind.eval_words(node.fanins.iter().map(|f| values[f.index()])),
            };
        }
    }

    fn validate(&self) -> Result<(), NetlistError> {
        Netlist::validate(self)
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "netlist `{}`: {} nodes ({} PIs, {} gates, {} POs)",
            self.name,
            self.len(),
            self.num_inputs(),
            self.num_gates(),
            self.num_outputs()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_adder() -> Netlist {
        let mut n = Netlist::new("fa");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let cin = n.add_input("cin");
        let axb = n.add_gate(GateKind::Xor, &[a, b]).unwrap();
        let sum = n.add_gate(GateKind::Xor, &[axb, cin]).unwrap();
        let ab = n.add_gate(GateKind::And, &[a, b]).unwrap();
        let c2 = n.add_gate(GateKind::And, &[axb, cin]).unwrap();
        let cout = n.add_gate(GateKind::Or, &[ab, c2]).unwrap();
        n.mark_output(sum, "sum");
        n.mark_output(cout, "cout");
        n
    }

    #[test]
    fn construction_and_counts() {
        let n = full_adder();
        assert_eq!(n.len(), 8);
        assert_eq!(n.num_inputs(), 3);
        assert_eq!(n.num_gates(), 5);
        assert_eq!(n.num_outputs(), 2);
        assert!(n.validate().is_ok());
        assert!(n.to_string().contains("fa"));
    }

    #[test]
    fn arity_mismatch_is_reported() {
        let mut n = Netlist::new("bad");
        let a = n.add_input("a");
        let err = n.add_gate(GateKind::Not, &[a, a]).unwrap_err();
        assert!(matches!(err, NetlistError::ArityMismatch { got: 2, .. }));
    }

    #[test]
    fn unknown_fanin_is_reported() {
        let mut n = Netlist::new("bad");
        let err = n.add_gate(GateKind::Buf, &[NodeId(7)]).unwrap_err();
        assert_eq!(err, NetlistError::UnknownNode(7));
    }

    #[test]
    fn names_resolve() {
        let n = full_adder();
        let a = n.find_by_name("a").unwrap();
        assert_eq!(n.node(a).kind, GateKind::Input);
        assert!(n.find_by_name("missing").is_none());
        assert_eq!(n.node_name(a), Some("a"));
    }

    #[test]
    fn constants_are_sources() {
        let mut n = Netlist::new("c");
        let zero = n.add_const(false);
        let one = n.add_const(true);
        assert!(n.node(zero).kind.is_source());
        assert!(n.node(one).kind.is_source());
        assert_eq!(n.num_gates(), 0);
    }

    #[test]
    fn display_of_node_id() {
        assert_eq!(NodeId(4).to_string(), "n4");
        assert_eq!(usize::from(NodeId(4)), 4);
    }

    fn chain(depth: usize) -> Netlist {
        let mut n = Netlist::new("chain");
        let mut prev = n.add_input("a");
        for _ in 0..depth {
            prev = n.add_gate(GateKind::Not, &[prev]).unwrap();
        }
        n.mark_output(prev, "y");
        n
    }

    #[test]
    fn levels_of_chain_match_depth() {
        let n = chain(5);
        let (level, max_level) = n.levels();
        assert_eq!(max_level, 5);
        assert_eq!(level[0], 0);
        assert_eq!(level[5], 5);
    }

    #[test]
    fn fanout_counts_include_outputs() {
        let mut n = Netlist::new("f");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g1 = n.add_gate(GateKind::And, &[a, b]).unwrap();
        let g2 = n.add_gate(GateKind::Or, &[a, g1]).unwrap();
        n.mark_output(g1, "o1");
        n.mark_output(g2, "o2");
        let counts = n.fanout_counts();
        assert_eq!(counts[a.index()], 2); // g1, g2
        assert_eq!(counts[b.index()], 1); // g1
        assert_eq!(counts[g1.index()], 2); // g2 + output
        assert_eq!(counts[g2.index()], 1); // output only
    }

    #[test]
    fn empty_netlist_levels() {
        let n = Netlist::new("empty");
        let (level, max_level) = n.levels();
        assert_eq!(max_level, 0);
        assert!(level.is_empty());
    }

    /// The resolve both text readers ran before `from_declarations`: sweep
    /// the gate list in declaration order, adding every gate whose fan-ins
    /// are all defined, until a sweep adds nothing. Quadratic on a chain
    /// declared back to front; kept as the numbering and error oracle.
    fn sweep_oracle(
        inputs: Vec<String>,
        outputs: Vec<String>,
        gates: Vec<GateDecl>,
    ) -> Result<Netlist, NetlistError> {
        let mut netlist = Netlist::new("t");
        let mut by_name: HashMap<String, NodeId> = HashMap::new();
        for sig in &inputs {
            if by_name.contains_key(sig) {
                return Err(NetlistError::DuplicateSignal(sig.clone()));
            }
            let id = netlist.add_input(sig.clone());
            by_name.insert(sig.clone(), id);
        }
        let mut remaining = gates;
        while !remaining.is_empty() {
            let before = remaining.len();
            let mut next_round = Vec::new();
            for gate in remaining {
                if by_name.contains_key(&gate.output) {
                    return Err(NetlistError::DuplicateSignal(gate.output));
                }
                let resolved: Option<Vec<NodeId>> = gate
                    .inputs
                    .iter()
                    .map(|s| by_name.get(s).copied())
                    .collect();
                match resolved {
                    Some(fanins) => {
                        let id = netlist
                            .add_named_gate(gate.kind, &fanins, gate.output.clone())
                            .map_err(|e| NetlistError::Parse {
                                line: gate.line,
                                message: e.to_string(),
                            })?;
                        by_name.insert(gate.output, id);
                    }
                    None => next_round.push(gate),
                }
            }
            if next_round.len() == before {
                let missing = next_round
                    .iter()
                    .flat_map(|g| g.inputs.iter())
                    .find(|s| !by_name.contains_key(*s))
                    .cloned()
                    .unwrap_or_else(|| next_round[0].output.clone());
                return Err(NetlistError::UndefinedSignal(missing));
            }
            remaining = next_round;
        }
        for sig in outputs {
            let id = by_name
                .get(&sig)
                .copied()
                .ok_or_else(|| NetlistError::UndefinedSignal(sig.clone()))?;
            netlist.mark_output(id, sig);
        }
        Ok(netlist)
    }

    /// xorshift64*: a seeded, dependency-free source for the property test.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % n
        }
    }

    /// Random declarations of 1-40 gates over 0-3 inputs, shuffled in three
    /// cases of four. Half the cases mix in undefined fan-ins, cycles and
    /// wrong arities; any may have an undriven output or a duplicated gate
    /// output. Returns whether some gate output is declared twice.
    fn random_declarations(rng: &mut Rng) -> (Vec<String>, Vec<String>, Vec<GateDecl>, bool) {
        let inputs: Vec<String> = (0..rng.below(4)).map(|i| format!("i{i}")).collect();
        let num_gates = 1 + rng.below(40);
        let faulty = rng.below(2) == 0;
        let mut gates: Vec<GateDecl> = (0..num_gates)
            .map(|k| {
                let kind = GateKind::ALL[1 + rng.below(GateKind::ALL.len() - 1)];
                let (lo, hi) = kind.arity();
                let arity = if faulty && rng.below(15) == 0 {
                    rng.below(5)
                } else {
                    lo + rng.below(hi.min(4) - lo + 1)
                };
                let pins = (0..arity)
                    .map(|_| match if faulty { rng.below(40) } else { 2 } {
                        0 => "ghost".to_string(),
                        _ if inputs.is_empty() && k == 0 => "ghost".to_string(),
                        1 => format!("w{}", k + rng.below(num_gates - k)),
                        _ => match rng.below(inputs.len() + k) {
                            j if j < inputs.len() => inputs[j].clone(),
                            j => format!("w{}", j - inputs.len()),
                        },
                    })
                    .collect();
                GateDecl {
                    line: k + 1,
                    output: format!("w{k}"),
                    kind,
                    inputs: pins,
                }
            })
            .collect();
        if rng.below(8) == 0 {
            gates[rng.below(num_gates)].output = match rng.below(inputs.len() + num_gates) {
                j if j < inputs.len() => inputs[j].clone(),
                j => format!("w{}", j - inputs.len()),
            };
        }
        let mut names: Vec<&String> = inputs
            .iter()
            .chain(gates.iter().map(|g| &g.output))
            .collect();
        names.sort();
        let duplicated = names.windows(2).any(|w| w[0] == w[1]);
        if rng.below(4) != 0 {
            for i in (1..num_gates).rev() {
                gates.swap(i, rng.below(i + 1));
            }
        }
        let outputs = (0..1 + rng.below(3))
            .map(|_| match rng.below(30) {
                0 => "nowhere".to_string(),
                _ => format!("w{}", rng.below(num_gates)),
            })
            .collect();
        (inputs, outputs, gates, duplicated)
    }

    #[test]
    fn resolver_matches_the_sweep_oracle() {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        let (mut accepted, mut rejected) = (0, 0);
        for case in 0..4000 {
            let (inputs, outputs, gates, duplicated) = random_declarations(&mut rng);
            let expected = sweep_oracle(inputs.clone(), outputs.clone(), gates.clone());
            let got = Netlist::from_declarations("t", inputs, outputs, gates.clone());
            match (expected, got) {
                (Ok(expected), Ok(got)) => {
                    assert_eq!(got, expected, "case {case}: {gates:?}");
                    accepted += 1;
                }
                (Err(expected), Err(got)) => {
                    if duplicated {
                        assert!(matches!(got, NetlistError::DuplicateSignal(_)));
                    } else {
                        assert_eq!(got, expected, "case {case}: {gates:?}");
                    }
                    rejected += 1;
                }
                (expected, got) => panic!("case {case}: {expected:?} vs {got:?}: {gates:?}"),
            }
        }
        // Both outcomes are well represented, so neither half is vacuous.
        assert!(
            accepted > 1000 && rejected > 1000,
            "{accepted} / {rejected}"
        );
    }

    #[test]
    fn out_of_order_gates_take_their_sweep_position() {
        let decl = |line, output: &str, kind, inputs: &[&str]| GateDecl {
            line,
            output: output.into(),
            kind,
            inputs: inputs.iter().map(|s| s.to_string()).collect(),
        };
        // Sweep 1 adds x, then z and v, each reading a gate declared
        // before it. w reads v, declared after it: sweep 2. y reads w,
        // declared after it: sweep 3.
        let gates = vec![
            decl(1, "y", GateKind::Not, &["w"]),
            decl(2, "x", GateKind::Not, &["a"]),
            decl(3, "w", GateKind::Buf, &["v"]),
            decl(4, "z", GateKind::Buf, &["x"]),
            decl(5, "v", GateKind::Not, &["z"]),
        ];
        let n = Netlist::from_declarations("t", vec!["a".into()], vec!["y".into()], gates).unwrap();
        let names: Vec<&str> = n.iter().filter_map(|(id, _)| n.node_name(id)).collect();
        assert_eq!(names, ["a", "x", "z", "v", "w", "y"]);
    }

    #[test]
    fn validate_detects_forward_reference_cycle() {
        // Break the netlist through its private fields, bypassing the API.
        let mut n = full_adder();
        // Introduce an illegal forward edge by swapping a fan-in.
        n.nodes[3].fanins[0] = NodeId(7);
        assert!(matches!(n.validate(), Err(NetlistError::Cycle { .. })));
        assert!(matches!(Dag::validate(&n), Err(NetlistError::Cycle { .. })));
    }
}
