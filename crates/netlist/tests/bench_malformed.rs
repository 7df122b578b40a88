//! Fuzz-lite corpus for the BENCH reader, [`bench::parse`]: damaged text
//! must produce a typed `NetlistError`, never a panic. Every proper prefix
//! and every single-byte corruption of a fixture over all the gate kinds the
//! reader accepts must fail cleanly or parse to a netlist that validates and
//! compiles its word program.

mod bench_corpus;

use deepgate_netlist::{bench, Dag, GateKind};
use std::collections::HashSet;

#[test]
fn fixture_covers_every_gate_kind() {
    use GateKind::*;
    let netlist = bench::parse(bench_corpus::FIXTURE, "kinds").expect("the fixture parses");
    let present: HashSet<(GateKind, usize)> = netlist
        .iter()
        .map(|(_, node)| (node.kind, node.fanins.len()))
        .collect();
    for gate in [
        (Not, 1),
        (Buf, 1),
        (And, 2),
        (And, 3),
        (Or, 2),
        (Or, 3),
        (Nand, 2),
        (Nor, 2),
        (Xor, 2),
        (Mux, 3),
    ] {
        assert!(present.contains(&gate), "no {gate:?} gate");
    }
}

/// Every damaged copy of the fixture fails with an error or parses to a
/// netlist that validates, compiles and evaluates; both happen.
#[test]
fn truncation_and_byte_corruption_never_panic() {
    let (mut failed, mut parsed) = (0, 0);
    for (what, text) in bench_corpus::damaged() {
        let Ok(netlist) = bench::parse(&text, "damaged") else {
            failed += 1;
            continue;
        };
        if let Err(err) = netlist.validate() {
            panic!("{what} parses to an invalid netlist: {err}");
        }
        let sources = vec![0x5555_5555_5555_5555u64; netlist.num_inputs()];
        let values = netlist.program().eval(&sources);
        assert_eq!(values.len(), netlist.num_nodes(), "{what}");
        parsed += 1;
    }
    assert!(failed > 0 && parsed > 0, "{failed} failed, {parsed} parsed");
}
