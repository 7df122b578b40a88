//! Light logic-optimisation passes over [`Aig`].
//!
//! The DeepGate paper relies on a logic-synthesis tool (ABC) to optimise the
//! circuits it trains on; the authors argue the synthesis step injects a
//! strong relational inductive bias into the resulting graphs. This module is
//! the substitute: a `sweep` pass that removes dead nodes and re-strashes, a
//! `balance` pass that reassociates AND trees to reduce depth (ABC's
//! `balance`), and [`optimize`] which runs them to a fixpoint.

use crate::aig::NodeMap;
use crate::{Aig, AigLit};
use deepgate_netlist::Dag;

/// Rebuilds `aig` with the same interface (inputs and latches are always
/// kept), each AND through `and`, by [`Aig::rebuild`]'s walk.
fn rebuild(
    aig: &Aig,
    and: impl FnMut(&mut Aig, &NodeMap, usize, [AigLit; 2]) -> Option<AigLit>,
) -> Aig {
    let mut out = Aig::new(aig.name());
    let mut sources: Vec<AigLit> = (0..aig.num_inputs())
        .map(|pos| out.add_input(aig.input_name(pos)))
        .collect();
    for (j, latch) in aig.latches().iter().enumerate() {
        sources.push(out.add_latch(latch.name.clone()));
        out.set_latch_init(j, latch.init);
    }
    let (outputs, nexts) = aig.rebuild(&mut out, &sources, and);
    for ((_, name), lit) in aig.outputs().iter().zip(outputs) {
        out.add_output(lit, name.clone());
    }
    for (j, lit) in nexts.into_iter().enumerate() {
        out.set_latch_next(j, lit);
    }
    out
}

/// Removes dead AND nodes (not reachable from any primary output or latch
/// next-state function) and rebuilds the AIG with structural hashing applied
/// again. Returns the new AIG and the number of removed AND nodes.
pub fn sweep(aig: &Aig) -> (Aig, usize) {
    let mut reachable = vec![false; aig.len()];
    let mut stack: Vec<usize> = aig.sinks().collect();
    while let Some(i) = stack.pop() {
        if !std::mem::replace(&mut reachable[i], true) {
            stack.extend(aig.fanins(i));
        }
    }
    let mut removed = 0usize;
    let out = rebuild(aig, |out, map, i, fanins| {
        if reachable[i] {
            Some(map.and(out, fanins))
        } else {
            removed += 1;
            None
        }
    });
    (out, removed)
}

/// The fan-ins a fan-in expands into when its consumer's multi-input AND
/// "super-gate" absorbs it: those of a single-fan-out AND it names without
/// a complement; `None` if it is a leaf.
fn expansion(aig: &Aig, fanout: &[usize], lit: AigLit) -> Option<[AigLit; 2]> {
    if lit.is_complemented() || fanout[lit.node()] != 1 {
        return None;
    }
    aig.and_fanins(lit.node())
}

/// The AND nodes absorbed into a parent super-gate — [`expansion`] seen
/// from the child — in one pass over the ANDs.
fn absorbed_nodes(aig: &Aig, fanout: &[usize]) -> Vec<bool> {
    let mut absorbed = vec![false; aig.len()];
    for (_, fanins) in aig.ands() {
        for lit in fanins {
            if expansion(aig, fanout, lit).is_some() {
                absorbed[lit.node()] = true;
            }
        }
    }
    absorbed
}

/// Appends the leaves of the super-gate over the fan-ins `[f0, f1]` to
/// `leaves`, in depth-first order — `f0`'s subtree before `f1`'s, the order
/// [`Aig::and_many`] pairs them in. An explicit stack instead of recursion:
/// a chain of single-fan-out ANDs is as deep as the circuit is long, and the
/// circuit comes off the wire.
fn collect_leaves(aig: &Aig, fanout: &[usize], [f0, f1]: [AigLit; 2], leaves: &mut Vec<AigLit>) {
    let mut stack = vec![f1, f0];
    while let Some(lit) = stack.pop() {
        match expansion(aig, fanout, lit) {
            Some([c0, c1]) => stack.extend([c1, c0]),
            None => leaves.push(lit),
        }
    }
}

/// Reassociates chains of AND nodes into balanced trees to reduce logic depth
/// (the ABC `balance` pass). Only single-fan-out internal nodes are collapsed
/// so shared logic is preserved. Returns the rebuilt AIG.
///
/// Every output and next-state literal is mapped when the walk translates
/// them. Only absorbed ANDs are unmapped, and an absorbed AND has exactly one
/// fan-out, from an AND — while `fanout_counts` also counts output and
/// next-state references. (`every_output_and_next_state_is_mapped` holds it.)
pub fn balance(aig: &Aig) -> Aig {
    let fanout = aig.fanout_counts();
    let absorbed = absorbed_nodes(aig, &fanout);
    let mut leaves = Vec::new();
    rebuild(aig, |out, map, i, fanins| {
        if absorbed[i] {
            return None;
        }
        leaves.clear();
        collect_leaves(aig, &fanout, fanins, &mut leaves);
        for leaf in &mut leaves {
            *leaf = map.translate(*leaf);
        }
        Some(out.and_many(&leaves))
    })
}

/// Runs `sweep` and `balance` to a fixpoint (bounded by `max_rounds`), the
/// equivalent of a short ABC optimisation script. Returns the optimised AIG.
pub fn optimize(aig: &Aig, max_rounds: usize) -> Aig {
    let mut current = aig.clone();
    for _ in 0..max_rounds.max(1) {
        let balanced = balance(&current);
        let (swept, removed) = sweep(&balanced);
        let unchanged = removed == 0 && swept.num_ands() == current.num_ands();
        current = swept;
        if unchanged {
            break;
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Strategy: a random valid strashed AIG — AND steps over picks (node,
    /// sign) among the literals built so far, with up to two latches whose
    /// next states are picked like the few outputs.
    fn random_aig(max_ands: usize) -> impl Strategy<Value = Aig> {
        let steps = prop::collection::vec((any::<u64>(), any::<u64>()), 1..max_ands);
        let outputs = prop::collection::vec(any::<u64>(), 1..4);
        let nexts = prop::collection::vec(any::<u64>(), 0..3);
        (2usize..6, steps, outputs, nexts).prop_map(|(num_inputs, steps, outputs, nexts)| {
            let mut aig = Aig::new("prop");
            let mut lits: Vec<AigLit> = (0..num_inputs)
                .map(|i| aig.add_input(format!("x{i}")))
                .collect();
            for j in 0..nexts.len() {
                lits.push(aig.add_latch(format!("l{j}")));
            }
            let pick = |lits: &[AigLit], p: u64| {
                let lit = lits[(p >> 1) as usize % lits.len()];
                if p & 1 == 1 {
                    lit.complement()
                } else {
                    lit
                }
            };
            for (a, b) in steps {
                let lit = aig.and(pick(&lits, a), pick(&lits, b));
                lits.push(lit);
            }
            for (k, p) in outputs.into_iter().enumerate() {
                aig.add_output(pick(&lits, p), format!("y{k}"));
            }
            for (j, p) in nexts.into_iter().enumerate() {
                aig.set_latch_next(j, pick(&lits, p));
            }
            aig
        })
    }

    /// The recursive definition `collect_leaves` replaced, kept as its
    /// reference.
    fn collect_leaves_recursive(
        aig: &Aig,
        fanout: &[usize],
        fanins: [AigLit; 2],
        leaves: &mut Vec<AigLit>,
    ) {
        for lit in fanins {
            match expansion(aig, fanout, lit) {
                Some(children) => collect_leaves_recursive(aig, fanout, children, leaves),
                None => leaves.push(lit),
            }
        }
    }

    /// Both AIG flavours `balance` meets: strashed (built through
    /// `Aig::and`) and AIGER-raw (ANDs pushed verbatim, so duplicate and
    /// constant fan-ins survive), each with latches.
    fn both_flavours(strashed: &Aig, seed: u64) -> [Aig; 2] {
        let raw = crate::aiger::random_aig(seed, 1 + seed as usize % 4, seed as usize % 3, 30);
        [strashed.clone(), raw]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The one-pass absorbed set equals the definition it replaced: a
        /// single-fan-out AND referenced positively by a later AND.
        #[test]
        fn absorbed_set_matches_the_definition(aig in random_aig(40)) {
            let fanout = aig.fanout_counts();
            let absorbed = absorbed_nodes(&aig, &fanout);
            for i in 0..aig.len() {
                let expected = aig.and_fanins(i).is_some()
                    && fanout[i] == 1
                    && aig
                        .ands()
                        .any(|(j, fanins)| j > i && fanins.contains(&AigLit::positive(i)));
                prop_assert!(absorbed[i] == expected, "node {i}: {} vs {expected}", absorbed[i]);
            }
        }

        /// The explicit-stack walk emits every super-gate's leaves in
        /// exactly the recursive order, so `and_many` builds the same AIG.
        #[test]
        fn collect_leaves_matches_the_recursive_order(aig in random_aig(40), seed in any::<u64>()) {
            for aig in both_flavours(&aig, seed) {
                let fanout = aig.fanout_counts();
                for (i, fanins) in aig.ands() {
                    let (mut got, mut want) = (Vec::new(), Vec::new());
                    collect_leaves(&aig, &fanout, fanins, &mut got);
                    collect_leaves_recursive(&aig, &fanout, fanins, &mut want);
                    prop_assert!(got == want, "root {i}: {got:?} vs {want:?}");
                }
            }
        }

        /// Why `balance` translates outputs and next states without a
        /// rebuild: none of them names an absorbed (unmapped) node.
        #[test]
        fn every_output_and_next_state_is_mapped(aig in random_aig(40), seed in any::<u64>()) {
            for aig in both_flavours(&aig, seed) {
                let absorbed = absorbed_nodes(&aig, &aig.fanout_counts());
                let roots = aig.outputs().iter().map(|(lit, _)| *lit);
                for lit in roots.chain(aig.latches().iter().map(|l| l.next)) {
                    prop_assert!(!absorbed[lit.node()], "{:?} is absorbed", lit);
                }
                prop_assert!(balance(&aig).validate().is_ok());
            }
        }
    }

    fn chain_aig(n: usize) -> Aig {
        // a0 & a1 & ... & a_{n-1} built as a left-deep chain.
        let mut aig = Aig::new("chain");
        let inputs: Vec<AigLit> = (0..n).map(|i| aig.add_input(format!("a{i}"))).collect();
        let mut acc = inputs[0];
        for &x in &inputs[1..] {
            acc = aig.and(acc, x);
        }
        aig.add_output(acc, "y");
        aig
    }

    #[test]
    fn sweep_removes_dead_nodes() {
        let mut aig = Aig::new("dead");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let used = aig.and(a, b);
        let _dead = aig.and(a, b.complement());
        aig.add_output(used, "y");
        let (swept, removed) = sweep(&aig);
        assert_eq!(removed, 1);
        assert_eq!(swept.num_ands(), 1);
        assert_eq!(swept.num_inputs(), 2);
        assert!(swept.validate().is_ok());
    }

    #[test]
    fn balance_reduces_depth_of_chains() {
        let aig = chain_aig(8);
        let (_, depth_before) = aig.levels();
        assert_eq!(depth_before, 7);
        let balanced = balance(&aig);
        let (_, depth_after) = balanced.levels();
        assert_eq!(depth_after, 3);
        assert_eq!(balanced.num_ands(), 7);
        assert!(balanced.validate().is_ok());
    }

    #[test]
    fn balance_preserves_shared_logic() {
        let mut aig = Aig::new("shared");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let ab = aig.and(a, b);
        let abc = aig.and(ab, c);
        aig.add_output(ab, "s"); // ab is shared with an output -> fanout 2
        aig.add_output(abc, "y");
        let balanced = balance(&aig);
        assert!(balanced.validate().is_ok());
        assert_eq!(balanced.num_ands(), 2);
        assert_eq!(balanced.num_outputs(), 2);
    }

    /// A 200 000-AND left-deep chain — a one-line `aiger_b64` request away
    /// from the server — optimised on a thread with a 256 KiB stack: any
    /// per-level recursion left in the passes overflows it. The ANDs are
    /// pushed as the AIGER reader pushes a file's `lhs rhs0 rhs1` lines
    /// (`rhs0 ≥ rhs1`), so the chain is every AND's `fanin0`: the side a
    /// recursive walk cannot turn into a loop.
    #[test]
    fn optimize_handles_a_deep_chain_on_a_small_stack() {
        let mut aig = Aig::new("deep");
        let inputs: Vec<AigLit> = (0..200_001)
            .map(|i| aig.add_input(format!("a{i}")))
            .collect();
        let mut acc = inputs[0];
        for &x in &inputs[1..] {
            acc = aig.push_raw_and(acc, x);
        }
        aig.add_output(acc, "y");
        let optimized = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || optimize(&aig, 2))
            .expect("spawns")
            .join()
            .expect("optimize returns");
        assert_eq!(optimized.num_ands(), 200_000);
        assert_eq!(optimized.levels().1, 18); // ceil(log2(200 001))
        assert!(optimized.validate().is_ok());
    }

    #[test]
    fn optimize_runs_to_fixpoint() {
        let aig = chain_aig(16);
        let opt = optimize(&aig, 4);
        let (_, depth) = opt.levels();
        assert_eq!(depth, 4);
        assert_eq!(opt.num_ands(), 15);
        assert!(opt.validate().is_ok());
    }

    #[test]
    fn sweep_keeps_all_inputs() {
        let mut aig = Aig::new("io");
        let _a = aig.add_input("a");
        let b = aig.add_input("b");
        aig.add_output(b, "y");
        let (swept, _) = sweep(&aig);
        assert_eq!(swept.num_inputs(), 2);
    }
}
