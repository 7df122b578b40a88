//! Bit-parallel evaluation of circuits: one `u64` word per node holds 64
//! simulation patterns.

use crate::SimError;
use deepgate_netlist::Dag;

/// Evaluates a circuit for one row of source pattern words: the checked
/// form of [`Dag::eval_words`], into a fresh `Vec`.
///
/// `source_words[k]` holds 64 patterns for source `k` ([`Dag::num_sources`]:
/// the primary inputs, then an AIG's latch states). Returns one word per
/// node, where bit `b` of word `i` is the value of node `i` under pattern
/// `b`.
///
/// # Errors
///
/// Returns [`SimError::InputCountMismatch`] if the number of words does not
/// match the number of sources, and [`SimError::InvalidCircuit`] if the
/// circuit fails validation.
pub fn simulate_words(dag: &impl Dag, source_words: &[u64]) -> Result<Vec<u64>, SimError> {
    if source_words.len() != dag.num_sources() {
        return Err(SimError::InputCountMismatch {
            expected: dag.num_sources(),
            got: source_words.len(),
        });
    }
    dag.validate().map_err(SimError::invalid)?;
    let mut values = vec![0; dag.num_nodes()];
    dag.eval_words(source_words, &mut values);
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepgate_aig::{Aig, AigLit};
    use deepgate_netlist::{GateKind, Netlist};

    /// The word of an AIG literal: its node's word, inverted when the
    /// literal is complemented.
    fn lit_word(values: &[u64], lit: AigLit) -> u64 {
        let v = values[lit.node()];
        if lit.is_complemented() {
            !v
        } else {
            v
        }
    }

    #[test]
    fn aig_simulation_matches_truth_table() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let and = aig.and(a, b);
        let or = aig.or(a, b);
        let xor = aig.xor(a, b);
        aig.add_output(and, "and");
        aig.add_output(or, "or");
        aig.add_output(xor, "xor");
        // Patterns: a = 0101..., b = 0011...
        let a_w = 0xAAAA_AAAA_AAAA_AAAAu64;
        let b_w = 0xCCCC_CCCC_CCCC_CCCCu64;
        let values = simulate_words(&aig, &[a_w, b_w]).unwrap();
        assert_eq!(lit_word(&values, and), a_w & b_w);
        assert_eq!(lit_word(&values, or), a_w | b_w);
        assert_eq!(lit_word(&values, xor), a_w ^ b_w);
    }

    #[test]
    fn aig_complemented_outputs_resolve_via_lit() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let nand = aig.and(a, b).complement();
        aig.add_output(nand, "nand");
        let values = simulate_words(&aig, &[0xF0F0, 0xFF00]).unwrap();
        assert_eq!(lit_word(&values, nand), !(0xF0F0u64 & 0xFF00u64));
    }

    #[test]
    fn netlist_and_aig_agree() {
        let mut n = Netlist::new("agree");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let g1 = n.add_gate(GateKind::Xor, &[a, b]).unwrap();
        let g2 = n.add_gate(GateKind::Nand, &[g1, c]).unwrap();
        let g3 = n.add_gate(GateKind::Mux, &[c, g1, g2]).unwrap();
        n.mark_output(g3, "y");
        let aig = Aig::from_netlist(&n).unwrap();

        let words = [
            0x1234_5678_9ABC_DEF0u64,
            0x0F0F_F0F0_00FF_FF00,
            0xAAAA_5555_CCCC_3333,
        ];
        let nv = simulate_words(&n, &words).unwrap();
        let av = simulate_words(&aig, &words).unwrap();
        // Compare the primary output value.
        let n_out = nv[n.outputs()[0].0.index()];
        assert_eq!(n_out, lit_word(&av, aig.outputs()[0].0));
    }

    #[test]
    fn latch_states_take_the_words_after_the_inputs() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let q = aig.add_latch("q");
        aig.set_latch_init(0, Some(true));
        let y = aig.and(a, q);
        aig.add_output(y, "y");
        let values = simulate_words(&aig, &[0b1100, 0b1010]).unwrap();
        assert_eq!(values[q.node()], 0b1010);
        assert_eq!(lit_word(&values, y), 0b1000);
    }

    #[test]
    fn input_count_mismatch_detected() {
        let mut aig = Aig::new("t");
        let _ = aig.add_input("a");
        let _ = aig.add_latch("q");
        let err = simulate_words(&aig, &[1]).unwrap_err();
        assert!(matches!(
            err,
            SimError::InputCountMismatch {
                expected: 2,
                got: 1
            }
        ));

        let mut n = Netlist::new("t");
        let _ = n.add_input("a");
        let err = simulate_words(&n, &[1, 2]).unwrap_err();
        assert!(matches!(
            err,
            SimError::InputCountMismatch {
                expected: 1,
                got: 2
            }
        ));
    }

    #[test]
    fn invalid_circuit_is_an_error() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let _ = aig.add_latch("q");
        aig.add_output(a, "y");
        // A next state read from a node that does not exist.
        aig.set_latch_next(0, AigLit::positive(99));
        assert!(matches!(
            simulate_words(&aig, &[0, 0]),
            Err(SimError::InvalidCircuit(_))
        ));
    }

    #[test]
    fn constants_simulate_correctly() {
        let mut n = Netlist::new("c");
        let zero = n.add_const(false);
        let one = n.add_const(true);
        let g = n.add_gate(GateKind::Or, &[zero, one]).unwrap();
        n.mark_output(g, "y");
        let values = simulate_words(&n, &[]).unwrap();
        assert_eq!(values[g.index()], u64::MAX);
    }
}
