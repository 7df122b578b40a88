//! Parameterised combinational circuit generators.
//!
//! These building blocks stand in for the benchmark circuits of the paper's
//! training set. Every generator is deterministic in its parameters (and
//! seed, where randomness is involved), so datasets are reproducible.

use deepgate_netlist::{GateKind, Netlist, NetlistBuilder, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// An n-bit ripple-carry adder (`2n` inputs, `n + 1` outputs).
pub fn ripple_carry_adder(width: usize) -> Netlist {
    let mut b = NetlistBuilder::new(format!("rca{width}"));
    let a = b.input_word("a", width);
    let c = b.input_word("b", width);
    let (sum, carry) = b.ripple_add(&a, &c).expect("equal widths");
    b.output_word("sum", &sum);
    b.output("cout", carry);
    b.finish()
}

/// An n-bit array multiplier (`2n` inputs, `2n` outputs).
pub fn array_multiplier(width: usize) -> Netlist {
    let mut b = NetlistBuilder::new(format!("mul{width}"));
    let a = b.input_word("a", width);
    let c = b.input_word("b", width);
    let product = b.array_multiply(&a, &c).expect("equal widths");
    b.output_word("p", &product);
    b.finish()
}

/// An n-bit squarer: an array multiplier with both operands tied to the same
/// input word, which creates heavy fan-out and reconvergence (the structure
/// the paper's Squarer benchmark stresses).
pub fn squarer(width: usize) -> Netlist {
    let mut b = NetlistBuilder::new(format!("sqr{width}"));
    let a = b.input_word("a", width);
    let product = b.array_multiply(&a.clone(), &a).expect("equal widths");
    b.output_word("p", &product);
    b.finish()
}

/// An n-request priority arbiter: request `i` is granted when it is asserted
/// and no lower-indexed request is. Quadratic in the request count and full
/// of shared AND chains, mirroring the Arbiter design of Table III.
pub fn priority_arbiter(requests: usize) -> Netlist {
    let mut b = NetlistBuilder::new(format!("arbiter{requests}"));
    let req = b.input_word("req", requests);
    let mut blocked: Option<NodeId> = None;
    for (i, &request) in req.iter().enumerate() {
        let grant = match blocked {
            None => request,
            Some(block) => {
                let not_block = b.not(block);
                b.and2(request, not_block)
            }
        };
        b.output(format!("grant[{i}]"), grant);
        blocked = Some(match blocked {
            None => request,
            Some(block) => b.or2(block, request),
        });
    }
    b.finish()
}

/// A round-robin style arbiter with a masked and an unmasked priority chain,
/// producing far more reconvergence than [`priority_arbiter`].
pub fn masked_arbiter(requests: usize) -> Netlist {
    let mut b = NetlistBuilder::new(format!("masked_arbiter{requests}"));
    let req = b.input_word("req", requests);
    let mask = b.input_word("mask", requests);
    // Masked requests take priority; fall back to the unmasked chain when no
    // masked request is asserted.
    let masked: Vec<NodeId> = (0..requests).map(|i| b.and2(req[i], mask[i])).collect();
    let any_masked = b.reduce(GateKind::Or, &masked);
    let mut blocked_m: Option<NodeId> = None;
    let mut blocked_u: Option<NodeId> = None;
    for i in 0..requests {
        let grant_m = match blocked_m {
            None => masked[i],
            Some(block) => {
                let nb = b.not(block);
                b.and2(masked[i], nb)
            }
        };
        let grant_u = match blocked_u {
            None => req[i],
            Some(block) => {
                let nb = b.not(block);
                b.and2(req[i], nb)
            }
        };
        let use_unmasked = b.not(any_masked);
        let fallback = b.and2(grant_u, use_unmasked);
        let grant = b.or2(grant_m, fallback);
        b.output(format!("grant[{i}]"), grant);
        blocked_m = Some(match blocked_m {
            None => masked[i],
            Some(block) => b.or2(block, masked[i]),
        });
        blocked_u = Some(match blocked_u {
            None => req[i],
            Some(block) => b.or2(block, req[i]),
        });
    }
    b.finish()
}

/// An n-bit equality/magnitude comparator (`eq`, `lt`, `gt` outputs).
pub fn comparator(width: usize) -> Netlist {
    let mut b = NetlistBuilder::new(format!("cmp{width}"));
    let a = b.input_word("a", width);
    let c = b.input_word("b", width);
    let eq = b.equals(&a, &c);
    // a < b computed MSB-first: lt = OR_i (prefix_eq_i & !a_i & b_i).
    let mut lt_terms = Vec::new();
    let mut prefix_eq: Option<NodeId> = None;
    for i in (0..width).rev() {
        let na = b.not(a[i]);
        let term = b.and2(na, c[i]);
        let term = match prefix_eq {
            None => term,
            Some(p) => b.and2(p, term),
        };
        lt_terms.push(term);
        let bit_eq = b.gate(GateKind::Xnor, &[a[i], c[i]]).expect("binary arity");
        prefix_eq = Some(match prefix_eq {
            None => bit_eq,
            Some(p) => b.and2(p, bit_eq),
        });
    }
    let lt = b.reduce(GateKind::Or, &lt_terms);
    let not_lt = b.not(lt);
    let not_eq = b.not(eq);
    let gt = b.and2(not_lt, not_eq);
    b.output("eq", eq);
    b.output("lt", lt);
    b.output("gt", gt);
    b.finish()
}

/// A balanced parity (XOR) network over `width` inputs.
pub fn parity_tree(width: usize) -> Netlist {
    let mut b = NetlistBuilder::new(format!("parity{width}"));
    let xs = b.input_word("x", width);
    let p = b.reduce(GateKind::Xor, &xs);
    b.output("parity", p);
    b.finish()
}

/// An n-to-2^n one-hot decoder with an enable input.
pub fn decoder(select_bits: usize) -> Netlist {
    let mut b = NetlistBuilder::new(format!("dec{select_bits}"));
    let sel = b.input_word("sel", select_bits);
    let enable = b.input("en");
    let inverted: Vec<NodeId> = sel.iter().map(|&s| b.not(s)).collect();
    for value in 0..(1usize << select_bits) {
        let terms: Vec<NodeId> = (0..select_bits)
            .map(|bit| {
                if (value >> bit) & 1 == 1 {
                    sel[bit]
                } else {
                    inverted[bit]
                }
            })
            .collect();
        let hit = b.reduce(GateKind::And, &terms);
        let out = b.and2(hit, enable);
        b.output(format!("y[{value}]"), out);
    }
    b.finish()
}

/// A small word-level ALU: add, AND, OR, XOR selected by a 2-bit opcode
/// through a multiplexer tree. Mimics datapath blocks of the OpenCores
/// benchmark circuits.
pub fn alu(width: usize) -> Netlist {
    let mut b = NetlistBuilder::new(format!("alu{width}"));
    let a = b.input_word("a", width);
    let c = b.input_word("b", width);
    let op = b.input_word("op", 2);
    let (sum, _carry) = b.ripple_add(&a, &c).expect("equal widths");
    for i in 0..width {
        let and_i = b.and2(a[i], c[i]);
        let or_i = b.or2(a[i], c[i]);
        let xor_i = b.xor2(a[i], c[i]);
        let result = b.mux_tree(&op, &[sum[i], and_i, or_i, xor_i]);
        b.output(format!("y[{i}]"), result);
    }
    b.finish()
}

/// The next-state logic of an n-bit counter with a terminal-count compare
/// (increment plus comparator), a stand-in for the control-dominated ITC'99
/// circuits.
pub fn counter_next_state(width: usize) -> Netlist {
    let mut b = NetlistBuilder::new(format!("counter{width}"));
    let state = b.input_word("state", width);
    let limit = b.input_word("limit", width);
    let enable = b.input("en");
    // Incrementer: ripple of half adders.
    let mut carry = enable;
    let mut next = Vec::with_capacity(width);
    for &bit in &state {
        let sum = b.xor2(bit, carry);
        carry = b.and2(bit, carry);
        next.push(sum);
    }
    let at_limit = b.equals(&state, &limit);
    let not_limit = b.not(at_limit);
    for (i, &n) in next.iter().enumerate() {
        let held = b.and2(n, not_limit);
        b.output(format!("next[{i}]"), held);
    }
    b.output("wrap", at_limit);
    b.finish()
}

/// Pseudo-random multi-level control logic: `num_gates` random 2-input gates
/// wired to earlier signals, with the last few gates exposed as outputs.
/// Deterministic in `seed`.
pub fn random_logic(num_inputs: usize, num_gates: usize, seed: u64) -> Netlist {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = NetlistBuilder::new(format!("rand{num_inputs}x{num_gates}_{seed}"));
    let mut signals = b.input_word("x", num_inputs);
    let kinds = [
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Not,
    ];
    for _ in 0..num_gates {
        let kind = kinds[rng.gen_range(0..kinds.len())];
        // Bias fan-in selection towards recent signals so the circuit grows
        // deep rather than wide, like synthesised control logic.
        let pick = |rng: &mut SmallRng, len: usize| -> usize {
            if rng.gen_bool(0.6) && len > num_inputs {
                rng.gen_range(len.saturating_sub(num_inputs)..len)
            } else {
                rng.gen_range(0..len)
            }
        };
        let node = if kind == GateKind::Not {
            let src = signals[pick(&mut rng, signals.len())];
            b.not(src)
        } else {
            let x = signals[pick(&mut rng, signals.len())];
            let y = signals[pick(&mut rng, signals.len())];
            b.gate(kind, &[x, y]).expect("binary arity")
        };
        signals.push(node);
    }
    let num_outputs = (num_gates / 8).clamp(1, 16);
    for (i, &sig) in signals.iter().rev().take(num_outputs).enumerate() {
        b.output(format!("y[{i}]"), sig);
    }
    b.finish()
}

/// A processor-like datapath: instruction decoder, register-file read
/// multiplexers, an ALU and a write-back multiplexer. `scale` controls the
/// word width and register count, so the node count grows roughly
/// quadratically with it. Stand-in for the 80386 / Viper processor designs
/// of Table III.
pub fn processor_datapath(scale: usize) -> Netlist {
    let width = 4 * scale.max(1);
    let regs_bits = 3; // 8 architectural registers
    let mut b = NetlistBuilder::new(format!("proc{scale}"));
    // Register file contents arrive as inputs (combinational slice of the
    // processor), two read ports selected by register indices.
    let regs: Vec<Vec<NodeId>> = (0..(1usize << regs_bits))
        .map(|r| b.input_word(&format!("r{r}"), width))
        .collect();
    let rs1 = b.input_word("rs1", regs_bits);
    let rs2 = b.input_word("rs2", regs_bits);
    let opcode = b.input_word("op", 2);
    let imm = b.input_word("imm", width);
    let use_imm = b.input("use_imm");

    let read_port = |b: &mut NetlistBuilder, sel: &[NodeId], regs: &[Vec<NodeId>]| -> Vec<NodeId> {
        (0..width)
            .map(|bit| {
                let column: Vec<NodeId> = regs.iter().map(|r| r[bit]).collect();
                b.mux_tree(sel, &column)
            })
            .collect()
    };
    let a = read_port(&mut b, &rs1, &regs);
    let b_reg = read_port(&mut b, &rs2, &regs);
    let operand_b: Vec<NodeId> = (0..width)
        .map(|i| b.mux(use_imm, b_reg[i], imm[i]))
        .collect();

    let (sum, carry) = b.ripple_add(&a, &operand_b).expect("equal widths");
    let mut result = Vec::with_capacity(width);
    for i in 0..width {
        let and_i = b.and2(a[i], operand_b[i]);
        let xor_i = b.xor2(a[i], operand_b[i]);
        let or_i = b.or2(a[i], operand_b[i]);
        let res = b.mux_tree(&opcode, &[sum[i], and_i, xor_i, or_i]);
        result.push(res);
    }
    // Status flags: zero, carry, parity.
    let any = b.reduce(GateKind::Or, &result);
    let zero = b.not(any);
    let parity = b.reduce(GateKind::Xor, &result);
    b.output_word("result", &result);
    b.output("zero", zero);
    b.output("carry", carry);
    b.output("parity", parity);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepgate_aig::Aig;
    use deepgate_sim::{simulate_words, SignalProbability};

    /// Simulates a netlist on one random word and returns the output bits of
    /// the first output for functional spot checks.
    fn output_word(netlist: &Netlist, inputs: &[u64]) -> u64 {
        let values = simulate_words(netlist, inputs).expect("input count matches");
        values[netlist.outputs()[0].0.index()]
    }

    #[test]
    fn adder_adds() {
        let n = ripple_carry_adder(8);
        assert!(n.validate().is_ok());
        assert_eq!(n.num_inputs(), 16);
        assert_eq!(n.num_outputs(), 9);
        // Check one concrete addition: a = 3, b = 5 -> sum bit 3 (value 8).
        let mut inputs = vec![0u64; 16];
        inputs[0] = u64::MAX; // a[0]
        inputs[1] = u64::MAX; // a[1]  -> a = 3
        inputs[8] = u64::MAX; // b[0]
        inputs[10] = u64::MAX; // b[2] -> b = 5
        let values = simulate_words(&n, &inputs).unwrap();
        // sum = 8 -> sum[3] set, others clear.
        let sum_bits: Vec<u64> = n
            .outputs()
            .iter()
            .take(8)
            .map(|(id, _)| values[id.index()])
            .collect();
        assert_eq!(sum_bits[3], u64::MAX);
        assert_eq!(sum_bits[0], 0);
        assert_eq!(sum_bits[2], 0);
    }

    #[test]
    fn multiplier_and_squarer_sizes() {
        let m = array_multiplier(4);
        assert!(m.validate().is_ok());
        assert_eq!(m.num_outputs(), 8);
        let s = squarer(4);
        assert!(s.validate().is_ok());
        // The squarer shares its operand, so it has half the inputs.
        assert_eq!(s.num_inputs(), 4);
        assert!(s.num_gates() > 50);
    }

    #[test]
    fn arbiter_grants_highest_priority_only() {
        let n = priority_arbiter(8);
        assert!(n.validate().is_ok());
        // Requests 2 and 5 asserted -> only grant 2 fires.
        let mut inputs = vec![0u64; 8];
        inputs[2] = u64::MAX;
        inputs[5] = u64::MAX;
        let values = simulate_words(&n, &inputs).unwrap();
        for (i, (id, _)) in n.outputs().iter().enumerate() {
            let expected = if i == 2 { u64::MAX } else { 0 };
            assert_eq!(values[id.index()], expected, "grant {i}");
        }
    }

    #[test]
    fn masked_arbiter_is_reconvergent() {
        let n = masked_arbiter(6);
        assert!(n.validate().is_ok());
        let aig = Aig::from_netlist(&n).unwrap();
        let recon = deepgate_aig::ReconvergenceAnalysis::of(&aig);
        assert!(recon.num_reconvergence_nodes() > 0);
    }

    #[test]
    fn comparator_results_are_consistent() {
        let n = comparator(6);
        assert!(n.validate().is_ok());
        // eq, lt, gt are mutually exclusive for every pattern.
        let probs = SignalProbability::simulate(&n, 8192, 3).unwrap();
        let ids: Vec<usize> = n.outputs().iter().map(|(id, _)| id.index()).collect();
        let total: f64 = ids.iter().map(|&i| probs.of(i)).sum();
        assert!((total - 1.0).abs() < 0.05, "eq+lt+gt = {total}");
    }

    #[test]
    fn parity_probability_is_half() {
        let n = parity_tree(12);
        let probs = SignalProbability::simulate(&n, 8192, 5).unwrap();
        let out = n.outputs()[0].0.index();
        assert!((probs.of(out) - 0.5).abs() < 0.03);
    }

    #[test]
    fn decoder_is_one_hot() {
        let n = decoder(3);
        assert!(n.validate().is_ok());
        assert_eq!(n.num_outputs(), 8);
        // With enable high and sel = 5, only output 5 is active.
        let mut inputs = vec![0u64; 4];
        inputs[0] = u64::MAX; // sel[0]
        inputs[2] = u64::MAX; // sel[2] -> 5
        inputs[3] = u64::MAX; // enable
        let values = simulate_words(&n, &inputs).unwrap();
        for (i, (id, _)) in n.outputs().iter().enumerate() {
            let expected = if i == 5 { u64::MAX } else { 0 };
            assert_eq!(values[id.index()], expected, "output {i}");
        }
    }

    #[test]
    fn alu_opcode_selects_and_operation() {
        let n = alu(4);
        assert!(n.validate().is_ok());
        // op = 1 (AND), a = 0b1100, b = 0b1010 -> result = 0b1000.
        let mut inputs = vec![0u64; 10];
        inputs[2] = u64::MAX; // a[2]
        inputs[3] = u64::MAX; // a[3]
        inputs[5] = u64::MAX; // b[1]
        inputs[7] = u64::MAX; // b[3]
        inputs[8] = u64::MAX; // op[0] = 1
        let values = simulate_words(&n, &inputs).unwrap();
        let bits: Vec<u64> = n
            .outputs()
            .iter()
            .map(|(id, _)| values[id.index()])
            .collect();
        assert_eq!(bits[3], u64::MAX);
        assert_eq!(bits[0], 0);
        assert_eq!(bits[1], 0);
        assert_eq!(bits[2], 0);
    }

    #[test]
    fn counter_and_random_logic_build() {
        let c = counter_next_state(8);
        assert!(c.validate().is_ok());
        assert!(c.num_gates() > 30);
        let r1 = random_logic(8, 120, 42);
        let r2 = random_logic(8, 120, 42);
        let r3 = random_logic(8, 120, 43);
        assert!(r1.validate().is_ok());
        assert_eq!(r1.len(), r2.len());
        assert_eq!(
            deepgate_netlist::bench::write(&r1),
            deepgate_netlist::bench::write(&r2)
        );
        assert_ne!(
            deepgate_netlist::bench::write(&r1),
            deepgate_netlist::bench::write(&r3)
        );
    }

    #[test]
    fn processor_datapath_scales() {
        let small = processor_datapath(1);
        let big = processor_datapath(2);
        assert!(small.validate().is_ok());
        assert!(big.validate().is_ok());
        assert!(big.num_gates() > small.num_gates());
        assert!(small.num_gates() > 100);
        let _ = output_word(&small, &vec![0u64; small.num_inputs()]);
    }
}
