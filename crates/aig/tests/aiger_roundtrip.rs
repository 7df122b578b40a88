//! Round-trip property: random AIG → write `.aag` → parse → write binary
//! `.aig` → parse → structurally isomorphic to the original.
//!
//! Isomorphism is checked through the canonical serialised form: the writers
//! assign a canonical variable numbering (inputs, latches, ANDs in
//! topological order), so two AIGs are structurally identical iff their
//! canonical `.aag` text is byte-identical.

use deepgate_aig::{aiger, opt, Aig};

/// Interface shapes exercised by the property: pure-combinational, input-free
/// sequential, wide and deep mixes.
const SHAPES: &[(usize, usize, usize)] = &[
    (2, 0, 4),
    (0, 3, 9),
    (6, 0, 40),
    (4, 4, 32),
    (1, 1, 1),
    (8, 5, 120),
    (3, 7, 64),
];

#[test]
fn ascii_then_binary_roundtrip_is_isomorphic() {
    for seed in 0..20u64 {
        for &(inputs, latches, ands) in SHAPES {
            let original = aiger::random_aig(seed, inputs, latches, ands);
            original
                .validate()
                .expect("generator must produce valid AIGs");
            let canon = aiger::write_aag(&original);

            // original -> .aag text -> parse
            let from_text = aiger::parse_auto(canon.as_bytes(), original.name())
                .expect("canonical aag reparses");
            from_text.validate().expect("parsed aag is valid");

            // Both encodings of the original decode to the same `Aig`: node
            // order, names, latches and outputs.
            let original_binary = aiger::write_aig(&original).expect("generated AIGs serialise");
            assert_eq!(
                aiger::parse_auto(&original_binary, original.name()).expect("binary parses"),
                from_text,
                "seed {seed}, shape ({inputs}, {latches}, {ands})"
            );

            // -> binary .aig -> parse
            let bytes = aiger::write_aig(&from_text).expect("parsed aag serialises to binary");
            let from_binary =
                aiger::parse_auto(&bytes, original.name()).expect("binary output reparses");
            from_binary.validate().expect("parsed aig is valid");

            // Structural isomorphism via canonical-form equality.
            assert_eq!(
                aiger::write_aag(&from_binary),
                canon,
                "seed {seed}, shape ({inputs}, {latches}, {ands})"
            );

            // Interface survives intact through both trips.
            assert_eq!(from_binary.num_inputs(), inputs);
            assert_eq!(from_binary.num_latches(), latches);
            assert_eq!(from_binary.num_ands(), ands);
            assert_eq!(from_binary.num_outputs(), original.num_outputs());
            for (a, b) in original.latches().iter().zip(from_binary.latches()) {
                assert_eq!(a.name, b.name);
                assert_eq!(a.init, b.init);
            }
        }
    }
}

/// The two latch policies must agree between the original AIG and its
/// round-tripped twin: structural equality must survive `cut` and `unroll`.
#[test]
fn latch_policies_commute_with_roundtrip() {
    let original = aiger::random_aig(1234, 3, 4, 24);
    let bytes = aiger::write_aig(&original).expect("serialises");
    let twin = aiger::parse_auto(&bytes, original.name()).expect("reparses");
    for policy in [
        aiger::LatchPolicy::Cut,
        aiger::LatchPolicy::Unroll(1),
        aiger::LatchPolicy::Unroll(3),
    ] {
        let a = policy.apply(&original).expect("policy applies to original");
        let b = policy.apply(&twin).expect("policy applies to twin");
        assert_eq!(
            aiger::write_aag(&a),
            aiger::write_aag(&b),
            "policy {policy} diverged after round-trip"
        );
        assert!(a.is_combinational());
    }
}

/// The AIG → netlist → AIG detour every AIGER source takes is a structural
/// no-op: an AIG is numbered interface-first, and `from_netlist` declares
/// the netlist's inputs first, so every AIG the latch policies and
/// `opt::optimize` make comes back equal, node numbering included.
#[test]
fn netlist_detour_is_the_identity() {
    for seed in 0..5u64 {
        for &(inputs, latches, ands) in SHAPES {
            let original = aiger::random_aig(seed, inputs, latches, ands);
            for policy in [
                aiger::LatchPolicy::Cut,
                aiger::LatchPolicy::Unroll(1),
                aiger::LatchPolicy::Unroll(3),
            ] {
                let applied = policy.apply(&original).expect("policy applies");
                for aig in [opt::optimize(&applied, 2), applied] {
                    let detour = Aig::from_netlist(&aig.to_netlist()).expect("netlist maps back");
                    assert!(
                        detour == aig,
                        "seed {seed}, shape ({inputs}, {latches}, {ands}), policy {policy}"
                    );
                }
            }
        }
    }
}
