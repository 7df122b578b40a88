//! Reader and writer for the ISCAS/BENCH text format.
//!
//! BENCH is the interchange format used by the combinational benchmark suites
//! the DeepGate paper draws its training circuits from. The dialect accepted
//! here covers the common combinational subset:
//!
//! ```text
//! # comment
//! INPUT(a)
//! INPUT(b)
//! OUTPUT(y)
//! w1 = AND(a, b)
//! w2 = NOT(w1)
//! y  = OR(w2, a)
//! ```
//!
//! `DFF` and other sequential primitives are rejected with a parse error —
//! DeepGate operates on combinational (sub-)circuits only.
//!
//! Gates may be declared in any order. Inputs are numbered first, in
//! declaration order; a file that defines every signal before reading it
//! keeps its gates in declaration order too, and any other file numbers
//! them as repeated in-order sweeps over its gate lines would add them.

use crate::netlist::GateDecl;
use crate::{GateKind, Netlist, NetlistError, NodeId};
use std::fmt::Write as _;

/// Parses BENCH text into a [`Netlist`].
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] for malformed lines and for a gate whose
/// kind rejects its fan-in count, [`NetlistError::DuplicateSignal`] if a
/// signal is defined twice and [`NetlistError::UndefinedSignal`] if a
/// referenced signal is never defined (or only on a combinational cycle).
pub fn parse(text: &str, name: impl Into<String>) -> Result<Netlist, NetlistError> {
    let mut inputs: Vec<String> = Vec::new();
    let mut outputs: Vec<String> = Vec::new();
    let mut gates: Vec<GateDecl> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let upper = line.to_ascii_uppercase();
        if let Some(rest) = upper.strip_prefix("INPUT") {
            let sig = parse_parenthesised(line, rest, line_no)?;
            inputs.push(sig);
            continue;
        }
        if let Some(rest) = upper.strip_prefix("OUTPUT") {
            let sig = parse_parenthesised(line, rest, line_no)?;
            outputs.push(sig);
            continue;
        }
        // Gate definition: out = KIND(in1, in2, ...)
        let (lhs, rhs) = line.split_once('=').ok_or_else(|| NetlistError::Parse {
            line: line_no,
            message: "expected `signal = GATE(...)`".into(),
        })?;
        let output = lhs.trim().to_string();
        let rhs = rhs.trim();
        let open = rhs.find('(').ok_or_else(|| NetlistError::Parse {
            line: line_no,
            message: "missing `(` in gate expression".into(),
        })?;
        if !rhs.ends_with(')') {
            return Err(NetlistError::Parse {
                line: line_no,
                message: "missing closing `)`".into(),
            });
        }
        let kind_str = rhs[..open].trim();
        let kind = GateKind::from_mnemonic(kind_str).ok_or_else(|| NetlistError::Parse {
            line: line_no,
            message: format!("unknown gate type `{kind_str}`"),
        })?;
        if kind == GateKind::Input {
            return Err(NetlistError::Parse {
                line: line_no,
                message: "INPUT used as gate type".into(),
            });
        }
        let args_str = rhs[open + 1..rhs.len() - 1].trim();
        let args: Vec<String> = if args_str.is_empty() {
            Vec::new()
        } else {
            args_str.split(',').map(|s| s.trim().to_string()).collect()
        };
        gates.push(GateDecl {
            line: line_no,
            output,
            kind,
            inputs: args,
        });
    }

    Netlist::from_declarations(name, inputs, outputs, gates)
}

fn parse_parenthesised(
    line: &str,
    rest_upper: &str,
    line_no: usize,
) -> Result<String, NetlistError> {
    let rest_upper = rest_upper.trim();
    if !rest_upper.starts_with('(') || !rest_upper.ends_with(')') {
        return Err(NetlistError::Parse {
            line: line_no,
            message: "expected `INPUT(name)` / `OUTPUT(name)`".into(),
        });
    }
    // Slice from the original (non-uppercased) line to preserve signal case.
    let open = line.find('(').expect("checked above");
    let close = line.rfind(')').expect("checked above");
    let sig = line[open + 1..close].trim();
    if sig.is_empty() {
        return Err(NetlistError::Parse {
            line: line_no,
            message: "empty signal name".into(),
        });
    }
    Ok(sig.to_string())
}

/// Writes a [`Netlist`] as BENCH text.
///
/// Unnamed internal signals are emitted as `n<id>`. The output is accepted by
/// [`parse`], so `parse(write(n)) == n` up to node numbering.
pub fn write(netlist: &Netlist) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {}", netlist.name());
    let signal = |id: NodeId| -> String {
        netlist
            .node_name(id)
            .map(str::to_string)
            .unwrap_or_else(|| format!("n{}", id.index()))
    };
    for &pi in netlist.inputs() {
        let _ = writeln!(out, "INPUT({})", signal(pi));
    }
    for (po, name) in netlist.outputs() {
        // If the output name differs from the driving signal's name we emit a
        // buffer below; reference the output name here.
        let drives_same_name = netlist.node_name(*po) == Some(name.as_str());
        let _ = writeln!(
            out,
            "OUTPUT({})",
            if drives_same_name {
                signal(*po)
            } else {
                name.clone()
            }
        );
    }
    for (id, node) in netlist.iter() {
        match node.kind {
            GateKind::Input => {}
            GateKind::Const0 => {
                let _ = writeln!(out, "{} = CONST0()", signal(id));
            }
            GateKind::Const1 => {
                let _ = writeln!(out, "{} = CONST1()", signal(id));
            }
            kind => {
                let args: Vec<String> = node.fanins.iter().map(|&f| signal(f)).collect();
                let _ = writeln!(
                    out,
                    "{} = {}({})",
                    signal(id),
                    kind.mnemonic().to_ascii_uppercase(),
                    args.join(", ")
                );
            }
        }
    }
    // Alias buffers for outputs whose name differs from their driver.
    for (po, name) in netlist.outputs() {
        if netlist.node_name(*po) != Some(name.as_str()) {
            let _ = writeln!(out, "{} = BUF({})", name, signal(*po));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GateKind;

    const C17_LIKE: &str = r"
# tiny test circuit
INPUT(g1)
INPUT(g2)
INPUT(g3)
OUTPUT(g7)
g4 = NAND(g1, g2)
g5 = NAND(g2, g3)
g6 = NAND(g4, g5)
g7 = NOT(g6)
";

    #[test]
    fn parse_simple_circuit() {
        let n = parse(C17_LIKE, "c17ish").unwrap();
        assert_eq!(n.num_inputs(), 3);
        assert_eq!(n.num_gates(), 4);
        assert_eq!(n.num_outputs(), 1);
        assert!(n.validate().is_ok());
        let g6 = n.find_by_name("g6").unwrap();
        assert_eq!(n.node(g6).kind, GateKind::Nand);
    }

    #[test]
    fn parse_handles_out_of_order_definitions() {
        let text = r"
INPUT(a)
INPUT(b)
OUTPUT(y)
y = AND(w, b)
w = NOT(a)
";
        let n = parse(text, "ooo").unwrap();
        assert_eq!(n.num_gates(), 2);
        assert!(n.validate().is_ok());
    }

    #[test]
    fn parse_reports_undefined_signal() {
        let text = "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n";
        let err = parse(text, "bad").unwrap_err();
        assert_eq!(err, NetlistError::UndefinedSignal("ghost".into()));
    }

    #[test]
    fn parse_reports_duplicate_signal() {
        let text = "INPUT(a)\nw = NOT(a)\nw = BUF(a)\n";
        let err = parse(text, "bad").unwrap_err();
        assert_eq!(err, NetlistError::DuplicateSignal("w".into()));
    }

    #[test]
    fn parse_reports_unknown_gate() {
        let text = "INPUT(a)\ny = FROB(a)\n";
        let err = parse(text, "bad").unwrap_err();
        assert!(matches!(err, NetlistError::Parse { line: 2, .. }));
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for text in [
            "INPUT a\n",
            "y AND(a)\n",
            "y = AND(a\n",
            "OUTPUT()\n",
            "y = INPUT(a)\n",
            "y = AND()\n",
            "INPUT(a)\ny = AND(a, )\n",
            "INPUT(a)\nINPUT(b)\ny = MUX(a, b)\n",
        ] {
            assert!(parse(text, "bad").is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn roundtrip_through_writer() {
        let n = parse(C17_LIKE, "c17ish").unwrap();
        let text = write(&n);
        let n2 = parse(&text, "c17ish").unwrap();
        assert_eq!(n2.num_inputs(), n.num_inputs());
        assert_eq!(n2.num_outputs(), n.num_outputs());
        assert_eq!(n2.num_gates(), n.num_gates());
    }

    #[test]
    fn writer_emits_alias_buffer_for_renamed_output() {
        let mut n = Netlist::new("alias");
        let a = n.add_input("a");
        let g = n.add_gate(GateKind::Not, &[a]).unwrap();
        n.mark_output(g, "out_signal");
        let text = write(&n);
        assert!(text.contains("OUTPUT(out_signal)"));
        assert!(text.contains("out_signal = BUF("));
        let n2 = parse(&text, "alias").unwrap();
        assert_eq!(n2.num_outputs(), 1);
    }

    #[test]
    fn reverse_declared_chain_numbers_like_the_forward_one() {
        let gate = |k: usize| format!("g{k} = NOT(g{})\n", k - 1);
        let head = "INPUT(g0)\nOUTPUT(g5000)\n";
        let forward: String = (1..=5000).map(gate).collect();
        let reverse: String = (1..=5000).rev().map(gate).collect();
        let forward = parse(&(head.to_string() + &forward), "chain").unwrap();
        let reverse = parse(&(head.to_string() + &reverse), "chain").unwrap();
        assert_eq!(reverse, forward);
    }

    #[test]
    fn wrong_arity_is_a_parse_error_at_its_line() {
        let err = parse("INPUT(a)\n\ny = NOT(a, a)\n", "bad").unwrap_err();
        assert!(matches!(err, NetlistError::Parse { line: 3, .. }), "{err}");
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# hello\n\nINPUT(a)  # trailing comment\nOUTPUT(a)\n";
        let n = parse(text, "c").unwrap();
        assert_eq!(n.num_inputs(), 1);
        assert_eq!(n.num_outputs(), 1);
    }
}
