//! Light logic-optimisation passes over [`Aig`].
//!
//! The DeepGate paper relies on a logic-synthesis tool (ABC) to optimise the
//! circuits it trains on; the authors argue the synthesis step injects a
//! strong relational inductive bias into the resulting graphs. This module is
//! the substitute: a `sweep` pass that removes dead nodes and re-strashes, a
//! `balance` pass that reassociates AND trees to reduce depth (ABC's
//! `balance`), and [`optimize`] which runs them to a fixpoint.

use crate::{Aig, AigLit, AigNodeKind};

/// Maps node indices of the source AIG to literals of the AIG being built;
/// `None` until the node has been rebuilt.
type NodeMap = Vec<Option<AigLit>>;

/// Starts a rebuild of `aig`: a fresh AIG with the same interface (inputs
/// and latches are always kept) and the map seeded with it.
fn copy_interface(aig: &Aig) -> (Aig, NodeMap) {
    let mut out = Aig::new(aig.name());
    let mut map: NodeMap = vec![None; aig.len()];
    map[0] = Some(AigLit::FALSE);
    for (pos, &idx) in aig.inputs().iter().enumerate() {
        map[idx] = Some(out.add_input(aig.input_name(pos)));
    }
    for (j, latch) in aig.latches().iter().enumerate() {
        map[latch.state] = Some(out.add_latch(latch.name.clone()));
        out.set_latch_init(j, latch.init);
    }
    (out, map)
}

/// Removes dead AND nodes (not reachable from any primary output or latch
/// next-state function) and rebuilds the AIG with structural hashing applied
/// again. Returns the new AIG and the number of removed AND nodes.
pub fn sweep(aig: &Aig) -> (Aig, usize) {
    let mut reachable = vec![false; aig.len()];
    let mut stack: Vec<usize> = aig.outputs().iter().map(|(l, _)| l.node()).collect();
    stack.extend(aig.latches().iter().map(|l| l.next.node()));
    while let Some(i) = stack.pop() {
        if reachable[i] {
            continue;
        }
        reachable[i] = true;
        let node = aig.node(i);
        if node.kind == AigNodeKind::And {
            stack.push(node.fanin0.node());
            stack.push(node.fanin1.node());
        }
    }
    let (mut out, mut map) = copy_interface(aig);
    let mut removed = 0usize;
    for (i, node) in aig.iter() {
        if node.kind != AigNodeKind::And {
            continue;
        }
        if !reachable[i] {
            removed += 1;
            continue;
        }
        let a = translate(&map, node.fanin0);
        let b = translate(&map, node.fanin1);
        map[i] = Some(out.and(a, b));
    }
    for (lit, name) in aig.outputs() {
        let mapped = translate(&map, *lit);
        out.add_output(mapped, name.clone());
    }
    for (j, latch) in aig.latches().iter().enumerate() {
        out.set_latch_next(j, translate(&map, latch.next));
    }
    (out, removed)
}

/// Whether a fan-in is expanded into its consumer's multi-input AND
/// "super-gate": a non-complemented reference to a single-fan-out AND.
fn expandable(aig: &Aig, fanout: &[usize], lit: AigLit) -> bool {
    !lit.is_complemented()
        && aig.node(lit.node()).kind == AigNodeKind::And
        && fanout[lit.node()] == 1
}

/// The AND nodes absorbed into a parent super-gate — [`expandable`] seen
/// from the child — in one pass over the ANDs.
fn absorbed_nodes(aig: &Aig, fanout: &[usize]) -> Vec<bool> {
    let mut absorbed = vec![false; aig.len()];
    for (_, node) in aig.iter() {
        if node.kind != AigNodeKind::And {
            continue;
        }
        for lit in [node.fanin0, node.fanin1] {
            if expandable(aig, fanout, lit) {
                absorbed[lit.node()] = true;
            }
        }
    }
    absorbed
}

/// Reassociates chains of AND nodes into balanced trees to reduce logic depth
/// (the ABC `balance` pass). Only single-fan-out internal nodes are collapsed
/// so shared logic is preserved. Returns the rebuilt AIG.
pub fn balance(aig: &Aig) -> Aig {
    let fanout = aig.fanout_counts();
    let absorbed = absorbed_nodes(aig, &fanout);
    let (mut out, mut map) = copy_interface(aig);

    // Collect the super-gate rooted at `root`.
    fn collect_leaves(aig: &Aig, fanout: &[usize], root: usize, leaves: &mut Vec<AigLit>) {
        let node = aig.node(root);
        for lit in [node.fanin0, node.fanin1] {
            if expandable(aig, fanout, lit) {
                collect_leaves(aig, fanout, lit.node(), leaves);
            } else {
                leaves.push(lit);
            }
        }
    }

    for (i, node) in aig.iter() {
        if node.kind != AigNodeKind::And || absorbed[i] {
            continue;
        }
        let mut leaves = Vec::new();
        collect_leaves(aig, &fanout, i, &mut leaves);
        let translated: Vec<AigLit> = leaves.iter().map(|&l| translate(&map, l)).collect();
        map[i] = Some(out.and_many(&translated));
    }
    for (lit, name) in aig.outputs() {
        let mapped = translate_or_rebuild(aig, &mut out, &mut map, *lit);
        out.add_output(mapped, name.clone());
    }
    for j in 0..aig.num_latches() {
        let next = aig.latches()[j].next;
        let mapped = translate_or_rebuild(aig, &mut out, &mut map, next);
        out.set_latch_next(j, mapped);
    }
    out
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

fn translate(map: &NodeMap, lit: AigLit) -> AigLit {
    let base = map[lit.node()].expect("fan-ins are rebuilt before their consumers");
    if lit.is_complemented() {
        base.complement()
    } else {
        base
    }
}

/// Translates a literal, rebuilding the node cone in `out` if the node was
/// absorbed during balancing and therefore has no mapping yet.
fn translate_or_rebuild(aig: &Aig, out: &mut Aig, map: &mut NodeMap, lit: AigLit) -> AigLit {
    if map[lit.node()].is_none() {
        let node = *aig.node(lit.node());
        let a = translate_or_rebuild(aig, out, map, node.fanin0);
        let b = translate_or_rebuild(aig, out, map, node.fanin1);
        map[lit.node()] = Some(out.and(a, b));
    }
    translate(map, lit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Strategy: a random valid AIG — AND steps over picks (node, sign) among
    /// the literals built so far, with a few picked outputs.
    fn random_aig(max_ands: usize) -> impl Strategy<Value = Aig> {
        let steps = prop::collection::vec((any::<u64>(), any::<u64>()), 1..max_ands);
        let outputs = prop::collection::vec(any::<u64>(), 1..4);
        (2usize..6, steps, outputs).prop_map(|(num_inputs, steps, outputs)| {
            let mut aig = Aig::new("prop");
            let mut lits: Vec<AigLit> = (0..num_inputs)
                .map(|i| aig.add_input(format!("x{i}")))
                .collect();
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
            aig
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The one-pass absorbed set equals the definition it replaced: a
        /// single-fan-out AND referenced positively by a later AND.
        #[test]
        fn absorbed_set_matches_the_definition(aig in random_aig(40)) {
            let fanout = aig.fanout_counts();
            let absorbed = absorbed_nodes(&aig, &fanout);
            for (i, node) in aig.iter() {
                let expected = node.kind == AigNodeKind::And
                    && fanout[i] == 1
                    && aig.iter().any(|(j, n)| {
                        n.kind == AigNodeKind::And
                            && j > i
                            && (n.fanin0 == AigLit::positive(i) || n.fanin1 == AigLit::positive(i))
                    });
                prop_assert!(absorbed[i] == expected, "node {i}: {} vs {expected}", absorbed[i]);
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
