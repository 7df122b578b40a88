//! Writer and reader for a structural gate-level Verilog subset.
//!
//! Benchmarks such as IWLS'05 and OpenCores circulate as structural Verilog
//! netlists; this module provides the interchange path next to the BENCH
//! format. The supported subset is the one gate-level netlists actually use:
//! one module, `input`/`output`/`wire` declarations and primitive gate
//! instantiations (`and`, `nand`, `or`, `nor`, `xor`, `xnor`, `not`, `buf`)
//! with an output-first port list. Behavioural constructs, vectors and
//! hierarchy are rejected with a parse error.
//!
//! ```text
//! module c17 (g1, g2, g3, g7);
//!   input g1, g2, g3;
//!   output g7;
//!   wire g4, g5, g6;
//!   nand u0 (g4, g1, g2);
//!   nand u1 (g5, g2, g3);
//!   nand u2 (g6, g4, g5);
//!   not  u3 (g7, g6);
//! endmodule
//! ```
//!
//! Instances may appear in any order; the reader numbers nodes exactly as
//! [`bench`](crate::bench) does: inputs first in declaration order, then
//! gates in declaration order when every signal is defined before it is
//! read, and otherwise in the order repeated in-order sweeps over the
//! instances would add them.

use crate::netlist::GateDecl;
use crate::{GateKind, Netlist, NetlistError, NodeId};
use std::fmt::Write as _;

/// Writes a [`Netlist`] as structural Verilog.
///
/// Multiplexers and constants (which have no Verilog gate primitive) are
/// lowered to primitive gates on the fly, so the output is always accepted by
/// [`parse`].
pub fn write(netlist: &Netlist) -> String {
    let signal = |id: NodeId| -> String {
        netlist
            .node_name(id)
            .map(sanitise_identifier)
            .unwrap_or_else(|| format!("n{}", id.index()))
    };
    let mut body = String::new();
    let mut wires: Vec<String> = Vec::new();
    let mut instance = 0usize;
    let emit = |body: &mut String, kind: &str, out: &str, ins: &[String], instance: &mut usize| {
        let _ = writeln!(body, "  {kind} u{instance} ({out}, {});", ins.join(", "));
        *instance += 1;
    };

    for (id, node) in netlist.iter() {
        let out = signal(id);
        match node.kind {
            GateKind::Input => continue,
            GateKind::Const0 | GateKind::Const1 => {
                // 0 = x & ~x and 1 = x | ~x, with ~x on an auxiliary net. x
                // is the first primary input, or the auxiliary net itself
                // when there are none (the constant is still well-defined).
                let aux = format!("{out}_aux");
                wires.push(aux.clone());
                wires.push(out.clone());
                let base = netlist
                    .inputs()
                    .first()
                    .map(|&pi| signal(pi))
                    .unwrap_or_else(|| aux.clone());
                emit(
                    &mut body,
                    "not",
                    &aux,
                    std::slice::from_ref(&base),
                    &mut instance,
                );
                let op = if node.kind == GateKind::Const0 {
                    "and"
                } else {
                    "or"
                };
                emit(&mut body, op, &out, &[base, aux], &mut instance);
            }
            GateKind::Mux => {
                // y = (~s & a) | (s & b), lowered to primitives.
                let s = signal(node.fanins[0]);
                let a = signal(node.fanins[1]);
                let b = signal(node.fanins[2]);
                let ns = format!("{out}_ns");
                let ta = format!("{out}_ta");
                let tb = format!("{out}_tb");
                for w in [&ns, &ta, &tb, &out] {
                    wires.push(w.clone());
                }
                emit(
                    &mut body,
                    "not",
                    &ns,
                    std::slice::from_ref(&s),
                    &mut instance,
                );
                emit(&mut body, "and", &ta, &[ns, a], &mut instance);
                emit(&mut body, "and", &tb, &[s, b], &mut instance);
                emit(&mut body, "or", &out, &[ta, tb], &mut instance);
            }
            kind => {
                wires.push(out.clone());
                let primitive = match kind {
                    GateKind::And => "and",
                    GateKind::Nand => "nand",
                    GateKind::Or => "or",
                    GateKind::Nor => "nor",
                    GateKind::Xor => "xor",
                    GateKind::Xnor => "xnor",
                    GateKind::Not => "not",
                    GateKind::Buf => "buf",
                    _ => unreachable!("handled above"),
                };
                let ins: Vec<String> = node.fanins.iter().map(|&f| signal(f)).collect();
                emit(&mut body, primitive, &out, &ins, &mut instance);
            }
        }
    }

    let inputs: Vec<String> = netlist.inputs().iter().map(|&i| signal(i)).collect();
    let mut outputs: Vec<String> = Vec::new();
    let mut output_aliases = String::new();
    for (po, name) in netlist.outputs() {
        let name = sanitise_identifier(name);
        let driver = signal(*po);
        if driver != name {
            let _ = writeln!(
                output_aliases,
                "  buf alias_{} ({name}, {driver});",
                outputs.len()
            );
        }
        outputs.push(name);
    }

    let module_name = sanitise_identifier(netlist.name());
    let ports: Vec<String> = inputs.iter().chain(outputs.iter()).cloned().collect();
    let mut out = String::new();
    let _ = writeln!(out, "// generated by deepgate-netlist");
    let _ = writeln!(out, "module {module_name} ({});", ports.join(", "));
    if !inputs.is_empty() {
        let _ = writeln!(out, "  input {};", inputs.join(", "));
    }
    if !outputs.is_empty() {
        let _ = writeln!(out, "  output {};", outputs.join(", "));
    }
    // Wires: internal nets that are not ports.
    wires.retain(|w| !inputs.contains(w) && !outputs.contains(w));
    wires.sort();
    wires.dedup();
    if !wires.is_empty() {
        let _ = writeln!(out, "  wire {};", wires.join(", "));
    }
    out.push_str(&body);
    out.push_str(&output_aliases);
    let _ = writeln!(out, "endmodule");
    out
}

fn sanitise_identifier(name: &str) -> String {
    let mut s: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if s.is_empty() || s.chars().next().expect("non-empty").is_ascii_digit() {
        s.insert(0, '_');
    }
    s
}

/// Parses the structural Verilog subset back into a [`Netlist`].
///
/// # Errors
///
/// Returns [`NetlistError::Parse`], at the line its statement starts on,
/// for constructs outside the subset (multiple modules, vectors, assigns,
/// behavioural blocks, an unterminated `/*` comment) and for a gate whose
/// kind rejects its fan-in count, and the usual
/// [`NetlistError::UndefinedSignal`] / [`NetlistError::DuplicateSignal`]
/// errors for inconsistent netlists.
pub fn parse(text: &str) -> Result<Netlist, NetlistError> {
    let cleaned = strip_comments(text)?;
    let mut module_name = String::from("top");
    let mut inputs: Vec<String> = Vec::new();
    let mut outputs: Vec<String> = Vec::new();
    let mut gates: Vec<GateDecl> = Vec::new();
    let mut seen_module = false;
    let mut seen_endmodule = false;
    let mut next_line = 1;

    for raw in cleaned.split(';') {
        // The line of the statement's first non-blank character.
        let line = next_line
            + raw[..raw.len() - raw.trim_start().len()]
                .matches('\n')
                .count();
        next_line += raw.matches('\n').count();
        let stmt = raw.replace(['\n', '\r'], " ");
        seen_endmodule |= stmt.contains("endmodule");
        let stmt = stmt.replace("endmodule", "");
        let stmt = stmt.trim();
        if stmt.is_empty() {
            continue;
        }
        let parse_error = |message: String| NetlistError::Parse { line, message };
        let mut tokens = stmt.split_whitespace();
        let keyword = tokens.next().unwrap_or("");
        match keyword {
            "module" => {
                if seen_module {
                    return Err(parse_error("multiple modules are not supported".into()));
                }
                seen_module = true;
                let rest = stmt["module".len()..].trim();
                module_name = rest
                    .split(|c: char| c == '(' || c.is_whitespace())
                    .find(|s| !s.is_empty())
                    .unwrap_or("top")
                    .to_string();
                // The port list itself carries no direction info; directions
                // come from the input/output declarations.
            }
            "input" | "output" | "wire" => {
                if stmt.contains('[') {
                    return Err(parse_error("vector declarations are not supported".into()));
                }
                let names = stmt[keyword.len()..]
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty());
                match keyword {
                    "input" => inputs.extend(names),
                    "output" => outputs.extend(names),
                    _ => {} // wires are implicit
                }
            }
            "assign" | "always" | "reg" | "initial" => {
                return Err(parse_error(format!(
                    "`{keyword}` is outside the structural subset"
                )));
            }
            primitive => {
                let kind = match primitive {
                    "and" => GateKind::And,
                    "nand" => GateKind::Nand,
                    "or" => GateKind::Or,
                    "nor" => GateKind::Nor,
                    "xor" => GateKind::Xor,
                    "xnor" => GateKind::Xnor,
                    "not" => GateKind::Not,
                    "buf" => GateKind::Buf,
                    other => return Err(parse_error(format!("unknown gate primitive `{other}`"))),
                };
                let open = stmt
                    .find('(')
                    .ok_or_else(|| parse_error("missing port list".into()))?;
                let close = stmt
                    .rfind(')')
                    .filter(|&close| close > open)
                    .ok_or_else(|| parse_error("missing closing `)`".into()))?;
                let mut ports = stmt[open + 1..close]
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty());
                let output = ports.next().unwrap_or_default();
                let ins: Vec<String> = ports.collect();
                if ins.is_empty() {
                    return Err(parse_error(
                        "gate needs an output and at least one input".into(),
                    ));
                }
                gates.push(GateDecl {
                    line,
                    output,
                    kind,
                    inputs: ins,
                });
            }
        }
    }
    if !seen_module || !seen_endmodule {
        return Err(NetlistError::Parse {
            line: 1,
            message: "expected a single `module ... endmodule`".into(),
        });
    }
    Netlist::from_declarations(module_name, inputs, outputs, gates)
}

/// Blanks out `//` and `/* ... */` comments in one left-to-right pass,
/// keeping every newline so statements keep their line numbers.
fn strip_comments(text: &str) -> Result<String, NetlistError> {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find('/') {
        let (code, tail) = rest.split_at(at);
        out.push_str(code);
        let end = if tail.starts_with("//") {
            tail.find('\n').unwrap_or(tail.len())
        } else if let Some(body) = tail.strip_prefix("/*") {
            body.find("*/")
                .map(|close| close + 4)
                .ok_or_else(|| NetlistError::Parse {
                    line: out.matches('\n').count() + 1,
                    message: "unterminated `/*` comment".into(),
                })?
        } else {
            out.push('/');
            rest = &tail[1..];
            continue;
        };
        out.extend(tail[..end].chars().map(|c| if c == '\n' { c } else { ' ' }));
        rest = &tail[end..];
    }
    out.push_str(rest);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const C17: &str = r"
// ISCAS-85 c17 in structural verilog
module c17 (g1, g2, g3, g7);
  input g1, g2, g3;
  output g7;
  wire g4, g5, g6;
  nand u0 (g4, g1, g2);
  nand u1 (g5, g2, g3);
  nand u2 (g6, g4, g5);
  not  u3 (g7, g6);
endmodule
";

    #[test]
    fn parse_c17() {
        let n = parse(C17).unwrap();
        assert_eq!(n.name(), "c17");
        assert_eq!(n.num_inputs(), 3);
        assert_eq!(n.num_outputs(), 1);
        assert_eq!(n.num_gates(), 4);
        assert!(n.validate().is_ok());
    }

    #[test]
    fn roundtrip_through_writer() {
        let original = parse(C17).unwrap();
        let text = write(&original);
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed.num_inputs(), original.num_inputs());
        assert_eq!(parsed.num_outputs(), original.num_outputs());
        assert_eq!(parsed.num_gates(), original.num_gates());
    }

    #[test]
    fn writer_lowers_mux_and_constants() {
        let mut n = Netlist::new("mix");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let s = n.add_input("s");
        let one = n.add_const(true);
        let m = n.add_gate(GateKind::Mux, &[s, a, b]).unwrap();
        let y = n.add_gate(GateKind::And, &[m, one]).unwrap();
        n.mark_output(y, "y");
        let text = write(&n);
        assert!(!text.contains("mux"));
        let parsed = parse(&text).unwrap();
        assert!(parsed.validate().is_ok());
        // Functional check: one sweep covers all eight patterns of a, b, s.
        let sources = [
            0xAAAA_AAAA_AAAA_AAAA,
            0xCCCC_CCCC_CCCC_CCCC,
            0xF0F0_F0F0_F0F0_F0F0,
        ];
        let output =
            |net: &Netlist| crate::Dag::program(net).eval(&sources)[net.outputs()[0].0.index()];
        assert_eq!(output(&n), output(&parsed));
        assert_eq!(output(&n), 0xCACA_CACA_CACA_CACA, "mux(s, a, b)");
    }

    #[test]
    fn rejects_unsupported_constructs() {
        assert!(parse("module m (a); input a; assign b = a; endmodule").is_err());
        assert!(parse("module m (a); input [3:0] a; endmodule").is_err());
        assert!(parse("module m (a); input a; foo u0 (a, a); endmodule").is_err());
        assert!(parse("module m (a); input a;").is_err()); // no endmodule
        assert!(parse("module m (); module n (); endmodule endmodule").is_err());
        assert!(parse("module m (a); input a; and g )a, a(; endmodule").is_err());
    }

    #[test]
    fn reports_undefined_and_duplicate_signals() {
        let undefined = "module m (y); output y; and u0 (y, ghost, ghost); endmodule";
        assert!(matches!(
            parse(undefined),
            Err(NetlistError::UndefinedSignal(_))
        ));
        let duplicate =
            "module m (a, y); input a; output y; not u0 (y, a); not u1 (y, a); endmodule";
        assert!(matches!(
            parse(duplicate),
            Err(NetlistError::DuplicateSignal(_))
        ));
    }

    #[test]
    fn out_of_order_instances_resolve() {
        let text = r"
module ooo (a, b, y);
  input a, b;
  output y;
  wire w;
  and u1 (y, w, b);
  not u0 (w, a);
endmodule
";
        let n = parse(text).unwrap();
        assert_eq!(n.num_gates(), 2);
        assert!(n.validate().is_ok());
    }

    #[test]
    fn line_comment_inside_block_comment_stays_in_the_comment() {
        let text =
            "/* header // note */\nmodule top (a, y); input a; output y; not g (y, a); endmodule";
        let n = parse(text).unwrap();
        assert_eq!(n.name(), "top");
        assert_eq!(n.num_gates(), 1);
    }

    #[test]
    fn many_block_comments_parse_in_one_pass() {
        let text = |gate: &str| {
            let comments = "/* c */\n".repeat(40_000);
            format!("module m (a, y);\n input a; output y;\n{comments}\n {gate};\nendmodule\n")
        };
        assert_eq!(parse(&text("not g (y, a)")).unwrap().num_gates(), 1);
        let err = parse(&text("not g (y, a, a)")).unwrap_err();
        assert!(
            matches!(err, NetlistError::Parse { line: 40_004, .. }),
            "{err}"
        );
    }

    #[test]
    fn unterminated_block_comment_is_an_error_at_its_line() {
        let err = parse("module m (a);\n input a;\n /* open\n endmodule\n").unwrap_err();
        assert!(matches!(err, NetlistError::Parse { line: 3, .. }), "{err}");
    }

    #[test]
    fn errors_name_the_line_a_statement_starts_on() {
        let line_of = |text: &str| match parse(text) {
            Err(NetlistError::Parse { line, .. }) => line,
            other => panic!("{other:?}"),
        };
        let unknown = "module m (a, y);\n  input a;\n  output y;\n  wire w;\n\n  // note\n  foo g1 (y, a);\nendmodule\n";
        assert_eq!(line_of(unknown), 7);
        let short = "module m (a, y);\n  input a; output y;\n  wire w; not g1 (w, a);\n  and g2 (y);\nendmodule\n";
        assert_eq!(line_of(short), 4);
        // Arity is checked by the shared resolver, at the declaring line.
        let arity = "module m (a, y); input a; output y;\n\n not g (y,\n a, a);\nendmodule";
        assert_eq!(line_of(arity), 3);
    }

    #[test]
    fn sanitises_awkward_identifiers() {
        let mut n = Netlist::new("top-level design");
        let a = n.add_input("data[0]");
        let g = n.add_gate(GateKind::Not, &[a]).unwrap();
        n.mark_output(g, "out.q");
        let text = write(&n);
        assert!(text.contains("module top_level_design"));
        assert!(text.contains("data_0_"));
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed.num_inputs(), 1);
        assert_eq!(parsed.num_outputs(), 1);
    }
}
