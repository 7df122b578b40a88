//! A circuit compiled for word-parallel simulation: one op per node, run
//! over packed patterns.

use crate::GateKind;
use std::array;

/// One node's op. Node indices are `u32`, like [`NodeId`](crate::NodeId).
#[derive(Debug, Clone, Copy)]
enum Op {
    /// The word of the source numbered by its position among the sources.
    Source(u32),
    /// `(w[a] ^ mask_a) & (w[b] ^ mask_b)`, each mask all ones when its
    /// flag is set: an AIG AND, and a netlist's two-input AND and NOR, NOT
    /// and BUF.
    And { a: u32, b: u32, invert: [bool; 2] },
    /// `kind` over the fan-ins `fanins[start..end]`, whose arity was checked
    /// when the op was built.
    Gate {
        kind: GateKind,
        start: u32,
        end: u32,
    },
}

/// A [`Dag`](crate::Dag) compiled once for simulation: one op per node, in
/// node order, each reading only earlier nodes. [`WordProgram::run`]
/// evaluates `W` rows of 64 patterns per walk of the ops, with no arity
/// check and no allocation; [`Dag::program`](crate::Dag::program) builds it.
///
/// AND, NOT and BUF — all an AIG-derived netlist holds — and a two-input NOR
/// compile to one branch-free form, `(a ^ mask_a) & (b ^ mask_b)`; every
/// other gate kind keeps its fan-in list.
#[derive(Debug, Clone, Default)]
pub struct WordProgram {
    ops: Vec<Op>,
    fanins: Vec<u32>,
    sources: usize,
}

/// An index as the `u32` an op stores.
fn index(i: usize) -> u32 {
    u32::try_from(i).expect("a program indexes nodes and fan-ins with u32")
}

/// A fan-in of node `len`, checked to precede it.
fn earlier(node: usize, len: usize) -> u32 {
    assert!(
        node < len,
        "node {len} reads node {node}, not an earlier one"
    );
    index(node)
}

impl WordProgram {
    /// An empty program with room for `nodes` ops.
    pub fn with_capacity(nodes: usize) -> Self {
        WordProgram {
            ops: Vec::with_capacity(nodes),
            ..WordProgram::default()
        }
    }

    /// Number of ops, one per node.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` if the program has no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of sources: the word of each row the program reads.
    pub fn num_sources(&self) -> usize {
        self.sources
    }

    /// Appends a node that takes the next source's word.
    pub fn source(&mut self) {
        self.ops.push(Op::Source(index(self.sources)));
        self.sources += 1;
    }

    /// Appends `(a ^ mask_a) & (b ^ mask_b)`, each mask all ones when its
    /// flag in `invert` is set.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is not an earlier node.
    pub fn and(&mut self, [a, b]: [usize; 2], invert: [bool; 2]) {
        let len = self.ops.len();
        let (a, b) = (earlier(a, len), earlier(b, len));
        self.ops.push(Op::And { a, b, invert });
    }

    /// Appends a `kind` gate over `fanins`, in argument order. AND and NOR
    /// of two fan-ins, NOT and BUF compile to the two-input form.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is [`GateKind::Input`] (a source is
    /// [`WordProgram::source`]), the fan-in count is not a legal arity for
    /// `kind`, or a fan-in is not an earlier node.
    pub fn gate(&mut self, kind: GateKind, fanins: impl IntoIterator<Item = usize>) {
        assert!(kind != GateKind::Input, "a source is not a gate");
        let len = self.ops.len();
        let start = self.fanins.len();
        self.fanins
            .extend(fanins.into_iter().map(|f| earlier(f, len)));
        let list = &self.fanins[start..];
        assert!(
            kind.accepts_arity(list.len()),
            "gate kind {kind} cannot take {} fan-ins",
            list.len()
        );
        // The two-input form: fan-ins and whether both are inverted.
        let two = match (kind, list) {
            (GateKind::And, &[a, b]) => Some(([a, b], false)),
            (GateKind::Nor, &[a, b]) => Some(([a, b], true)),
            (GateKind::Buf, &[a]) => Some(([a, a], false)),
            (GateKind::Not, &[a]) => Some(([a, a], true)),
            _ => None,
        };
        let op = match two {
            Some(([a, b], inverted)) => {
                self.fanins.truncate(start);
                Op::And {
                    a,
                    b,
                    invert: [inverted; 2],
                }
            }
            None => Op::Gate {
                kind,
                start: index(start),
                end: index(self.fanins.len()),
            },
        };
        self.ops.push(op);
    }

    /// Evaluates `W` rows at once. `rows` holds `W` rows of
    /// [`WordProgram::num_sources`] words, row after row: word `k` of row `l`
    /// drives source `k` with 64 patterns. Writes every node's `W` words
    /// into `values` (word `l` for row `l`) and hands each node's words to
    /// `visit` as soon as they are made, while they are still in cache.
    /// Every word of `values` is overwritten and nothing is allocated, so
    /// one buffer serves any number of walks.
    ///
    /// # Panics
    ///
    /// Panics if `rows` does not hold `W` rows or `values` one entry per op.
    pub fn run<const W: usize>(
        &self,
        rows: &[u64],
        values: &mut [[u64; W]],
        mut visit: impl FnMut(usize, &[u64; W]),
    ) {
        let s = self.sources;
        assert_eq!(rows.len(), W * s, "{W} rows of {s} source words");
        assert_eq!(values.len(), self.ops.len(), "one entry per node");
        let mask = |invert: bool| u64::from(invert).wrapping_neg();
        for (i, op) in self.ops.iter().enumerate() {
            let words = match *op {
                Op::Source(k) => array::from_fn(|l| rows[l * s + k as usize]),
                Op::And { a, b, invert } => {
                    let (a, b) = (values[a as usize], values[b as usize]);
                    let (ma, mb) = (mask(invert[0]), mask(invert[1]));
                    array::from_fn(|l| (a[l] ^ ma) & (b[l] ^ mb))
                }
                Op::Gate { kind, start, end } => {
                    let fanins = &self.fanins[start as usize..end as usize];
                    kind.eval_lanes(fanins.iter().map(|&f| values[f as usize]))
                }
            };
            values[i] = words;
            visit(i, &values[i]);
        }
    }

    /// Evaluates one row of source words into a fresh `Vec`: one word per
    /// node, bit `b` of word `i` the value of node `i` under pattern `b`.
    ///
    /// # Panics
    ///
    /// Panics if `sources` does not hold [`WordProgram::num_sources`] words.
    pub fn eval(&self, sources: &[u64]) -> Vec<u64> {
        let mut values = vec![[0]; self.ops.len()];
        self.run::<1>(sources, &mut values, |_, _| ());
        values.into_iter().map(|[word]| word).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dag, Netlist};

    /// Patterns 0–63 of three variables: a = 0101…, b = 0011…, c = 00001111….
    const A: u64 = 0xAAAA_AAAA_AAAA_AAAA;
    const B: u64 = 0xCCCC_CCCC_CCCC_CCCC;
    const C: u64 = 0xF0F0_F0F0_F0F0_F0F0;

    /// One gate of every kind but `Input` over `a`, `b`, `c` and two
    /// constants, three-input gates, and gates over gates.
    fn every_kind() -> Netlist {
        let mut n = Netlist::new("kinds");
        let zero = n.add_const(false);
        let a = n.add_input("a");
        let one = n.add_const(true);
        let b = n.add_input("b");
        let c = n.add_input("c");
        let mut gates = Vec::new();
        for kind in &GateKind::ALL[3..] {
            let fanins: &[_] = match kind {
                GateKind::Buf | GateKind::Not => &[b],
                GateKind::Mux => &[c, a, b],
                _ => &[a, b],
            };
            gates.push(n.add_gate(*kind, fanins).unwrap());
            if kind.accepts_arity(3) && *kind != GateKind::Mux {
                gates.push(n.add_gate(*kind, &[a, b, c]).unwrap());
                gates.push(n.add_gate(*kind, &[one, c, zero]).unwrap());
            }
        }
        // Gates over gates, and a one-input AND.
        let mux = n.add_gate(GateKind::Mux, &[gates[0], gates[3], gates[7]]);
        let and1 = n.add_gate(GateKind::And, &[mux.unwrap()]).unwrap();
        n.mark_output(and1, "y");
        n
    }

    #[test]
    fn every_gate_kind_runs_as_its_word_evaluation() {
        let n = every_kind();
        let program = n.program();
        assert_eq!(program.len(), n.len());
        assert_eq!(program.num_sources(), 3);
        let values = program.eval(&[A, B, C]);
        let mut sources = [A, B, C].into_iter();
        for (id, node) in n.iter() {
            let want = match node.kind {
                GateKind::Input => sources.next().unwrap(),
                kind => kind.eval_words(node.fanins.iter().map(|f| values[f.index()])),
            };
            assert_eq!(values[id.index()], want, "{id}, {}", node.kind);
        }
    }

    #[test]
    fn a_block_of_rows_equals_one_row_at_a_time() {
        let n = every_kind();
        let program = n.program();
        let rows: Vec<[u64; 3]> = (0..5u64)
            .map(|r| [A.rotate_left(r as u32), B ^ r, C.wrapping_mul(r + 1)])
            .collect();
        let mut block = vec![[0; 5]; n.len()];
        let mut visited = Vec::new();
        program.run::<5>(rows.as_flattened(), &mut block, |i, words| {
            visited.push((i, *words));
        });
        assert_eq!(
            visited,
            block.iter().copied().enumerate().collect::<Vec<_>>()
        );
        for (l, row) in rows.iter().enumerate() {
            let one = program.eval(row);
            let lane: Vec<u64> = block.iter().map(|words| words[l]).collect();
            assert_eq!(lane, one, "row {l}");
        }
    }

    #[test]
    fn two_input_and_nor_not_and_buf_compile_to_the_masked_and() {
        let mut program = WordProgram::with_capacity(6);
        program.source();
        program.source();
        program.gate(GateKind::And, [0, 1]);
        program.gate(GateKind::Nor, [0, 1]);
        program.gate(GateKind::Not, [0]);
        program.gate(GateKind::Buf, [1]);
        program.gate(GateKind::Nor, [0, 1, 1]);
        program.and([0, 1], [false, true]);
        assert!(program.ops[2..6]
            .iter()
            .all(|op| matches!(op, Op::And { .. })));
        assert!(matches!(program.ops[6], Op::Gate { .. }));
        assert_eq!(
            program.fanins.len(),
            3,
            "only the three-input NOR keeps its list"
        );
        let values = program.eval(&[A, B]);
        assert_eq!(values[2..], [A & B, !(A | B), !A, B, !(A | B), A & !B]);
    }

    #[test]
    #[should_panic(expected = "cannot take 2 fan-ins")]
    fn arity_is_checked_when_the_program_is_built() {
        let mut program = WordProgram::default();
        program.source();
        program.gate(GateKind::Not, [0, 0]);
    }

    #[test]
    #[should_panic(expected = "not an earlier one")]
    fn a_fanin_must_precede_its_node() {
        let mut program = WordProgram::default();
        program.source();
        program.and([0, 1], [false; 2]);
    }

    #[test]
    #[should_panic(expected = "2 rows of 3 source words")]
    fn a_short_block_is_rejected() {
        let program = every_kind().program();
        program.run::<2>(&[0; 3], &mut vec![[0; 2]; program.len()], |_, _| ());
    }
}
