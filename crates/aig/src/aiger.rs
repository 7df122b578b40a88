//! Full AIGER subsystem: one reader and one writer for both encodings,
//! ASCII (`aag`) and binary (`aig`), plus the latch-aware ingestion policies.
//!
//! AIGER is the de-facto interchange format of the hardware model-checking
//! and logic-synthesis communities; the circuit suites the DeepGate paper
//! evaluates on (EPFL / ISCAS / HWMCC) ship in it. This module implements
//! the format end-to-end, std-only:
//!
//! - [`parse_auto`] — the reader. One pass over the file's bytes reads the
//!   header, inputs, latches, outputs, ANDs and symbol table. The header
//!   magic decides only three things: whether input lines exist, whether a
//!   latch line starts with its state literal, and whether the AND section
//!   is `lhs rhs0 rhs1` lines or delta-compressed varints. The header's
//!   counts are checked against the bytes that follow it before anything is
//!   allocated for them, so allocation stays proportional to the file size.
//!   Malformed input always yields a typed [`AigerError`], never a panic.
//! - [`write_aag`] / [`write_aig`] — one emitter for both encodings. An
//!   [`Aig`] is numbered the way AIGER numbers its variables (inputs, then
//!   latches, then ANDs in topological order), so variable `k` is node `k`
//!   and two structurally identical AIGs serialise to identical bytes — the
//!   property the round-trip tests and the serving cache rely on.
//! - [`LatchPolicy`] — how sequential circuits enter the (combinational)
//!   DeepGate pipeline: cut latch boundaries into pseudo-PI/PO, or unroll a
//!   fixed number of time frames.
//! - [`random_aig`] — a deterministic sequential-AIG generator for tests
//!   and benchmarks.

use crate::{Aig, AigLit};
use std::fmt;

/// Upper bound on the `M` (maximum variable index) header field accepted by
/// the reader. Guards against hostile headers that would otherwise drive
/// allocation of billions of nodes before any body byte is validated.
pub const MAX_VARS: usize = 1 << 24;

/// Errors produced while reading or writing AIGER files.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AigerError {
    /// The `aag`/`aig` header line is missing, malformed or inconsistent.
    Header(String),
    /// A line of an ASCII file could not be parsed.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// A binary file is corrupt.
    Binary {
        /// Byte offset just past the offending byte or line.
        offset: usize,
        /// Human-readable description.
        message: String,
    },
    /// The input ended before the structures promised by the header.
    Truncated(String),
    /// The file is well-formed AIGER but uses a feature this reader does not
    /// support (e.g. non-contiguous variable numbering).
    Unsupported(String),
    /// The parsed structure is inconsistent (cycles, bad references) or an
    /// in-memory AIG cannot be serialised.
    Structure(String),
}

impl fmt::Display for AigerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AigerError::Header(msg) => write!(f, "aiger header error: {msg}"),
            AigerError::Parse { line, message } => {
                write!(f, "aiger parse error at line {line}: {message}")
            }
            AigerError::Binary { offset, message } => {
                write!(f, "aiger binary error at byte {offset}: {message}")
            }
            AigerError::Truncated(msg) => write!(f, "aiger input truncated: {msg}"),
            AigerError::Unsupported(msg) => write!(f, "unsupported aiger feature: {msg}"),
            AigerError::Structure(msg) => write!(f, "aiger structure error: {msg}"),
        }
    }
}

impl std::error::Error for AigerError {}

/// How a sequential AIG (one with latches) is turned into the combinational
/// graph the DeepGate model consumes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum LatchPolicy {
    /// Cut every latch boundary: the current state becomes a pseudo primary
    /// input and the next-state function a pseudo primary output
    /// (`<name>_next`). This is the paper's combinational-cone treatment and
    /// the default.
    #[default]
    Cut,
    /// Unroll the given number of time frames into one combinational AIG;
    /// frame-`t` inputs and outputs are suffixed `@t`.
    Unroll(usize),
}

impl fmt::Display for LatchPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LatchPolicy::Cut => write!(f, "cut"),
            LatchPolicy::Unroll(k) => write!(f, "unroll:{k}"),
        }
    }
}

impl LatchPolicy {
    /// Applies the policy, producing a purely combinational AIG.
    ///
    /// # Errors
    ///
    /// Returns [`crate::AigError::InvalidNetlist`] for `Unroll(0)`.
    pub fn apply(&self, aig: &Aig) -> Result<Aig, crate::AigError> {
        match self {
            LatchPolicy::Cut => Ok(aig.cut_latches()),
            LatchPolicy::Unroll(frames) => aig.unroll(*frames),
        }
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

struct Header {
    m: usize,
    i: usize,
    l: usize,
    o: usize,
    a: usize,
}

/// Parses the header line and checks its counts against the `remaining`
/// bytes after it, before anything proportional to them is allocated. Every
/// latch, output and AND takes at least two bytes (a digit and a newline, or
/// two varints), and so does an ASCII input line; only the file's last line
/// may lack its newline. Binary inputs take no bytes, so they may number at
/// most the 2A + L + O literal slots that can name one plus the byte count
/// (inputs nothing names).
fn parse_header(line: &str, binary: bool, remaining: usize) -> Result<Header, AigerError> {
    let tag = if binary { "aig" } else { "aag" };
    let parts: Vec<&str> = line.split_whitespace().collect();
    if parts.len() != 6 || parts[0] != tag {
        return Err(AigerError::Header(format!(
            "expected `{tag} M I L O A`, got `{line}`"
        )));
    }
    let num = |s: &str| -> Result<usize, AigerError> {
        s.parse()
            .map_err(|_| AigerError::Header(format!("invalid count `{s}`")))
    };
    let h = Header {
        m: num(parts[1])?,
        i: num(parts[2])?,
        l: num(parts[3])?,
        o: num(parts[4])?,
        a: num(parts[5])?,
    };
    if h.m > MAX_VARS {
        return Err(AigerError::Unsupported(format!(
            "M = {} exceeds the supported maximum of {MAX_VARS}",
            h.m
        )));
    }
    match h.i.checked_add(h.l).and_then(|x| x.checked_add(h.a)) {
        Some(total) if total == h.m => {}
        Some(total) => {
            return Err(AigerError::Header(format!(
                "M = {} but I + L + A = {total} (non-contiguous numbering is unsupported)",
                h.m
            )))
        }
        None => return Err(AigerError::Header("header counts overflow".into())),
    }
    let input_lines = if binary { 0 } else { h.i };
    let records = [input_lines, h.l, h.o, h.a]
        .into_iter()
        .fold(0usize, usize::saturating_add);
    if records.saturating_mul(2) > remaining + 1
        || (binary && h.i > 2 * h.a + h.l + h.o + remaining)
    {
        return Err(AigerError::Truncated(format!(
            "header `{} {} {} {} {}` promises more than the {remaining} bytes after it hold",
            h.m, h.i, h.l, h.o, h.a
        )));
    }
    Ok(h)
}

/// A read position in an AIGER file: text lines and the binary AND
/// section's varints come off the same byte slice.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
    binary: bool,
}

impl<'a> Cursor<'a> {
    /// An error at the current position: the line number in an ASCII file,
    /// the byte offset in a binary one (whose AND section has no lines).
    fn error(&self, message: impl Into<String>) -> AigerError {
        let message = message.into();
        if self.binary {
            AigerError::Binary {
                offset: self.pos,
                message,
            }
        } else {
            AigerError::Parse {
                line: self.line,
                message,
            }
        }
    }

    /// The next line without its `\n`, or `None` at the end of the input.
    fn next_line(&mut self) -> Result<Option<&'a str>, AigerError> {
        let bytes = self.bytes;
        let rest = &bytes[self.pos..];
        if rest.is_empty() {
            return Ok(None);
        }
        let end = rest.iter().position(|&b| b == b'\n');
        self.pos += end.map_or(rest.len(), |end| end + 1);
        self.line += 1;
        let line = &rest[..end.unwrap_or(rest.len())];
        std::str::from_utf8(line)
            .map(Some)
            .map_err(|_| self.error("line is not valid utf-8"))
    }

    /// The whitespace-separated literals of the next line; `what` names the
    /// line in errors.
    fn literals(&mut self, what: &str) -> Result<Vec<u64>, AigerError> {
        let line = self
            .next_line()?
            .ok_or_else(|| AigerError::Truncated(format!("missing {what} line")))?;
        line.split_whitespace()
            .map(|s| {
                s.parse::<u64>()
                    .map_err(|_| self.error(format!("invalid {what} literal `{s}`")))
            })
            .collect()
    }

    /// A line holding exactly one literal.
    fn literal(&mut self, what: &str) -> Result<u64, AigerError> {
        match self.literals(what)?[..] {
            [raw] => Ok(raw),
            _ => Err(self.error(format!("{what} line must hold one literal"))),
        }
    }

    /// Decodes one 7-bit little-endian varint (the AIGER delta encoding).
    fn varint(&mut self) -> Result<u64, AigerError> {
        let mut value: u64 = 0;
        let mut shift = 0u32;
        loop {
            let &byte = self.bytes.get(self.pos).ok_or_else(|| {
                AigerError::Truncated("binary and section ended mid-varint".into())
            })?;
            self.pos += 1;
            if shift >= 63 {
                return Err(self.error("varint exceeds 63 bits"));
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }
}

/// One AIGER variable while a file is read.
#[derive(Clone, Copy)]
enum Var {
    /// Not defined (yet).
    Free,
    /// Defined as the AND of two raw literals; not in the AIG yet.
    And(u64, u64),
    /// An AND on the resolution walk's current path.
    Visiting(u64, u64),
    /// In the AIG as this literal.
    Node(AigLit),
}

/// Checks that `raw` names a variable no line has defined yet (even,
/// non-zero, at most M) and returns its index.
fn fresh_var(cur: &Cursor, vars: &[Var], raw: u64, what: &str) -> Result<usize, AigerError> {
    if raw % 2 == 1 || raw == 0 {
        return Err(cur.error(format!("{what} literal {raw} must be even and non-zero")));
    }
    check_literal(cur, raw, vars.len() - 1, what)?;
    let var = (raw / 2) as usize;
    if !matches!(vars[var], Var::Free) {
        return Err(cur.error(format!("variable {var} is defined twice")));
    }
    Ok(var)
}

fn check_literal(cur: &Cursor, raw: u64, m: usize, what: &str) -> Result<(), AigerError> {
    if raw / 2 > m as u64 {
        return Err(cur.error(format!("{what} literal {raw} exceeds M = {m}")));
    }
    Ok(())
}

/// The AIG literal of a raw AIGER literal whose variable is resolved.
fn node_lit(vars: &[Var], raw: u64) -> AigLit {
    let Var::Node(base) = vars[(raw / 2) as usize] else {
        unreachable!("fan-ins resolve before their gate")
    };
    if raw % 2 == 1 {
        base.complement()
    } else {
        base
    }
}

/// Adds the recorded AND definitions to `aig` in dependency order and
/// rejects cycles. An explicit-stack DFS starts from each variable in index
/// order, so deep circuits cannot overflow the stack and an out-of-order
/// ASCII definition lands right after its fan-ins; in a binary file every
/// fan-in precedes its gate, so variable k becomes node k.
fn resolve_ands(aig: &mut Aig, vars: &mut [Var]) -> Result<(), AigerError> {
    let mut stack: Vec<(usize, bool)> = Vec::new();
    for root in 1..vars.len() {
        if !matches!(vars[root], Var::And(..)) {
            continue;
        }
        stack.push((root, false));
        while let Some((var, exit)) = stack.pop() {
            match (vars[var], exit) {
                (Var::And(rhs0, rhs1), false) => {
                    vars[var] = Var::Visiting(rhs0, rhs1);
                    stack.push((var, true));
                    for rhs in [rhs0, rhs1] {
                        let child = (rhs / 2) as usize;
                        if !matches!(vars[child], Var::Node(_)) {
                            stack.push((child, false));
                        }
                    }
                }
                (Var::Visiting(rhs0, rhs1), true) => {
                    let lit = aig.push_raw_and(node_lit(vars, rhs0), node_lit(vars, rhs1));
                    vars[var] = Var::Node(lit);
                }
                (Var::Visiting(..), false) => {
                    return Err(AigerError::Structure(format!(
                        "combinational cycle through variable {var}"
                    )))
                }
                // Entered twice (both fan-ins, or two gates, share it).
                (Var::Node(_), _) => {}
                (Var::Free, _) | (Var::And(..), true) => {
                    unreachable!("I + L + A fresh definitions fill 1..=M; exits follow entries")
                }
            }
        }
    }
    Ok(())
}

/// Parses an AIGER file of either encoding into an [`Aig`] named `name`; the
/// header magic (`aag` → ASCII, `aig` → binary) selects the encoding.
///
/// Latches are read into first-class [`crate::AigLatch`] entries (AIGER 1.9
/// reset semantics: `0`, `1`, or the latch's own literal for
/// *uninitialised*). ASCII AND definitions may appear in any order; forward
/// references are resolved as long as the definitions are acyclic.
///
/// # Errors
///
/// Returns an [`AigerError`] describing the first problem found — with line
/// numbers for ASCII files and byte offsets for binary ones; malformed input
/// never panics.
pub fn parse_auto(bytes: &[u8], name: impl Into<String>) -> Result<Aig, AigerError> {
    let binary = match bytes.get(..3) {
        Some(b"aag") => false,
        Some(b"aig") => true,
        _ => {
            return Err(AigerError::Header(
                "input starts with neither `aag` nor `aig`".into(),
            ))
        }
    };
    let mut cur = Cursor {
        bytes,
        pos: 0,
        line: 0,
        binary,
    };
    let header_line = cur
        .next_line()
        .map_err(|_| AigerError::Header("header line is not valid utf-8".into()))?
        .unwrap_or_default();
    let h = parse_header(header_line, binary, bytes.len() - cur.pos)?;

    let mut aig = Aig::new(name);
    // Variable index -> what defines it; slot 0 is the constant.
    let mut vars = vec![Var::Free; h.m + 1];
    vars[0] = Var::Node(AigLit::FALSE);

    // Binary files number inputs 1..=I, latches I+1..=I+L and ANDs
    // I+L+1..=M implicitly; ASCII files spell each variable out.
    for k in 0..h.i {
        let raw = if binary {
            2 * (k as u64 + 1)
        } else {
            cur.literal("input")?
        };
        let var = fresh_var(&cur, &vars, raw, "input")?;
        vars[var] = Var::Node(aig.add_input(format!("i{k}")));
    }

    // Latch lines: `state next [init]`, without `state` in binary.
    let mut latches = Vec::with_capacity(h.l);
    for k in 0..h.l {
        let mut fields = cur.literals("latch")?;
        if binary {
            fields.insert(0, 2 * (h.i + k + 1) as u64);
        }
        let (state, next, init) = match fields[..] {
            [state, next] => (state, next, None),
            [state, next, init] => (state, next, Some(init)),
            _ => {
                return Err(cur.error(if binary {
                    "latch line must be `next [init]`"
                } else {
                    "latch line must be `state next [init]`"
                }))
            }
        };
        check_literal(&cur, next, h.m, "latch next")?;
        let var = fresh_var(&cur, &vars, state, "latch")?;
        vars[var] = Var::Node(aig.add_latch(format!("l{k}")));
        latches.push((state, next, init));
    }

    let mut outputs = Vec::with_capacity(h.o);
    for _ in 0..h.o {
        let raw = cur.literal("output")?;
        check_literal(&cur, raw, h.m, "output")?;
        outputs.push(raw);
    }

    for k in 0..h.a {
        let (lhs, rhs0, rhs1) = if binary {
            // Delta-coded: lhs = 2 * (I + L + k + 1), rhs0 = lhs - delta0,
            // rhs1 = rhs0 - delta1.
            let lhs = 2 * (h.i + h.l + k + 1) as u64;
            let delta0 = cur.varint()?;
            if delta0 == 0 || delta0 > lhs {
                return Err(cur.error(format!(
                    "and {k}: delta0 = {delta0} out of range for lhs {lhs}"
                )));
            }
            let rhs0 = lhs - delta0;
            let delta1 = cur.varint()?;
            if delta1 > rhs0 {
                return Err(cur.error(format!(
                    "and {k}: delta1 = {delta1} out of range for rhs0 {rhs0}"
                )));
            }
            (lhs, rhs0, rhs0 - delta1)
        } else {
            match cur.literals("and")?[..] {
                [lhs, rhs0, rhs1] => (lhs, rhs0, rhs1),
                _ => return Err(cur.error("and line must be `lhs rhs0 rhs1`")),
            }
        };
        for rhs in [rhs0, rhs1] {
            check_literal(&cur, rhs, h.m, "and fan-in")?;
        }
        let var = fresh_var(&cur, &vars, lhs, "and")?;
        vars[var] = Var::And(rhs0, rhs1);
    }

    // Symbol table (`iN`/`lN`/`oN` names), up to the comment section.
    let mut output_names: Vec<Option<String>> = vec![None; h.o];
    while let Some(line) = cur.next_line()? {
        let line = line.trim();
        if line == "c" {
            break;
        }
        if line.is_empty() {
            continue;
        }
        let mut chars = line.chars();
        let kind = chars.next();
        let entry = chars
            .as_str()
            .split_once(' ')
            .and_then(|(idx, name)| Some((idx.parse::<usize>().ok()?, name)));
        match (kind, entry) {
            (Some('i'), Some((k, name))) if k < h.i => aig.set_input_name(k, name),
            (Some('l'), Some((k, name))) if k < h.l => aig.set_latch_name(k, name),
            (Some('o'), Some((k, name))) if k < h.o => output_names[k] = Some(name.to_string()),
            _ => return Err(cur.error(format!("invalid symbol table line `{line}`"))),
        }
    }

    resolve_ands(&mut aig, &mut vars)?;
    for (k, (state, next, init)) in latches.into_iter().enumerate() {
        aig.set_latch_next(k, node_lit(&vars, next));
        let init = match init {
            None | Some(0) => Some(false),
            Some(1) => Some(true),
            Some(v) if v == state => None, // self-reference: uninitialised
            Some(v) => {
                return Err(AigerError::Structure(format!(
                    "latch {k} has invalid reset literal {v}"
                )))
            }
        };
        aig.set_latch_init(k, init);
    }
    for (k, (raw, name)) in outputs.into_iter().zip(output_names).enumerate() {
        let name = name.unwrap_or_else(|| format!("o{k}"));
        aig.add_output(node_lit(&vars, raw), name);
    }
    aig.rebuild_strash();
    Ok(aig)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn push_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Serialises `aig` in either encoding; AIGER variable `k` is node `k`. The
/// two encodings differ in the same three places as on the read side: input
/// lines, the latch line's state literal, and the AND section.
fn emit(aig: &Aig, binary: bool) -> Result<Vec<u8>, AigerError> {
    use std::io::Write as _;
    let (i, l, o, a) = (
        aig.num_inputs(),
        aig.num_latches(),
        aig.num_outputs(),
        aig.num_ands(),
    );
    let tag = if binary { "aig" } else { "aag" };
    let mut out = Vec::new();
    // Writing into a `Vec` cannot fail, so the `io::Result`s are dropped.
    let _ = writeln!(out, "{tag} {} {i} {l} {o} {a}", i + l + a);
    if !binary {
        for node in aig.inputs() {
            let _ = writeln!(out, "{}", 2 * node);
        }
    }
    // The reset value is written when it is not the default 0: `1` for set,
    // the state literal itself for uninitialised.
    for (state, latch) in aig.latch_states().zip(aig.latches()) {
        let (state, next) = (2 * state, latch.next.raw());
        if !binary {
            let _ = write!(out, "{state} ");
        }
        let _ = match latch.init {
            Some(false) => writeln!(out, "{next}"),
            Some(true) => writeln!(out, "{next} 1"),
            None => writeln!(out, "{next} {state}"),
        };
    }
    for (lit, _) in aig.outputs() {
        let _ = writeln!(out, "{}", lit.raw());
    }
    for (idx, [f0, f1]) in aig.ands() {
        let lhs = AigLit::positive(idx).raw();
        let (rhs0, rhs1) = (f0.raw().max(f1.raw()), f0.raw().min(f1.raw()));
        if !binary {
            let _ = writeln!(out, "{lhs} {rhs0} {rhs1}");
            continue;
        }
        if rhs0 >= lhs {
            return Err(AigerError::Structure(format!(
                "and node {idx} references a non-preceding fan-in"
            )));
        }
        push_varint(&mut out, u64::from(lhs - rhs0));
        push_varint(&mut out, u64::from(rhs0 - rhs1));
    }
    for pos in 0..i {
        let _ = writeln!(out, "i{pos} {}", aig.input_name(pos));
    }
    for (pos, latch) in aig.latches().iter().enumerate() {
        let _ = writeln!(out, "l{pos} {}", latch.name);
    }
    for (pos, (_, name)) in aig.outputs().iter().enumerate() {
        let _ = writeln!(out, "o{pos} {name}");
    }
    let _ = writeln!(out, "c\n{}", aig.name());
    Ok(out)
}

/// Serialises an [`Aig`] (latches included) to AIGER-ASCII text with
/// canonical variable numbering, full symbol table and a trailing comment
/// holding the design name.
///
/// Two structurally identical AIGs produce byte-identical text, which is what
/// the round-trip isomorphism tests compare.
pub fn write_aag(aig: &Aig) -> String {
    let bytes = emit(aig, false).expect("the ascii encoding puts no order on fan-ins");
    String::from_utf8(bytes).expect("ascii aiger is digits, names and newlines")
}

/// Serialises an [`Aig`] (latches included) to binary AIGER with the
/// delta-compressed AND section and canonical variable numbering.
///
/// # Errors
///
/// Returns [`AigerError::Structure`] if an AND fan-in does not precede its
/// gate (possible only for an AIG that fails [`Aig::validate`]).
pub fn write_aig(aig: &Aig) -> Result<Vec<u8>, AigerError> {
    emit(aig, true)
}

// ---------------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------------

/// Generates a deterministic pseudo-random sequential AIG with the given
/// interface sizes: `inputs` primary inputs, `latches` latches (reset values
/// cycling through 0 / 1 / uninitialised) and `ands` AND gates with fan-ins
/// drawn from earlier nodes. Used by the round-trip property tests and the
/// AIGER-shaped inference benchmark.
pub fn random_aig(seed: u64, inputs: usize, latches: usize, ands: usize) -> Aig {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        // xorshift64* — deterministic across platforms.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state = state.wrapping_mul(0x2545_f491_4f6c_dd1d);
        state
    };
    let mut aig = Aig::new(format!("rand-{seed}"));
    for k in 0..inputs {
        aig.add_input(format!("i{k}"));
    }
    for k in 0..latches {
        aig.add_latch(format!("l{k}"));
    }
    for _ in 0..ands {
        let upper = aig.len();
        let mut pick = || {
            let node = 1 + (next() as usize) % (upper - 1).max(1);
            AigLit::new(node.min(upper - 1), next() % 2 == 1)
        };
        let a = pick();
        let mut b = pick();
        if upper > 2 {
            while b.node() == a.node() {
                b = pick();
            }
        }
        aig.push_raw_and(a, b);
    }
    let mut random_lit = |aig: &Aig| {
        let node = 1 + (next() as usize) % (aig.len() - 1).max(1);
        AigLit::new(node.min(aig.len() - 1), next() % 2 == 1)
    };
    for k in 0..latches {
        let lit = random_lit(&aig);
        aig.set_latch_next(k, lit);
        aig.set_latch_init(k, [Some(false), Some(true), None][k % 3]);
    }
    let num_outputs = 1 + ands / 8;
    for k in 0..num_outputs {
        let lit = random_lit(&aig);
        aig.add_output(lit, format!("o{k}"));
    }
    aig.rebuild_strash();
    aig
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter_aag() -> &'static [u8] {
        // 2-bit counter: b0' = !b0, b1' = b1 XOR b0 (as 3 ANDs), outputs b0 b1.
        b"aag 5 0 2 2 3\n2 3\n4 10\n2\n4\n6 5 3\n8 4 2\n10 7 9\nl0 b0\nl1 b1\no0 y0\no1 y1\nc\ncounter\n"
    }

    #[test]
    fn ascii_latches_are_read() {
        let aig = parse_auto(counter_aag(), "counter").expect("counter fixture parses");
        assert_eq!(aig.num_latches(), 2);
        assert_eq!(aig.num_inputs(), 0);
        assert_eq!(aig.num_ands(), 3);
        assert_eq!(aig.latches()[0].name, "b0");
        assert_eq!(aig.latches()[0].init, Some(false));
        assert!(aig.validate().is_ok());
    }

    #[test]
    fn out_of_order_ascii_ands_resolve_after_their_fan_ins() {
        // Same circuit with the AND lines reversed (forward references): each
        // gate becomes a node right after its fan-ins, in variable order.
        let text = b"aag 3 1 0 1 2\n2\n6\n6 5 2\n4 3 2\n";
        let aig = parse_auto(text, "x").expect("out-of-order ands resolve");
        assert_eq!(aig.num_ands(), 2);
        assert!(aig.validate().is_ok());
        assert_eq!(
            write_aag(&aig),
            "aag 3 1 0 1 2\n2\n6\n4 3 2\n6 5 2\ni0 i0\no0 o0\nc\nx\n"
        );
        // Variable 2 reads variable 3, so variable 3 becomes the first AND
        // node and the canonical numbering swaps the two.
        let text = b"aag 3 1 0 1 2\n2\n4\n4 6 2\n6 3 2\n";
        let aig = parse_auto(text, "y").expect("forward reference resolves");
        assert_eq!(
            write_aag(&aig),
            "aag 3 1 0 1 2\n2\n6\n4 3 2\n6 4 2\ni0 i0\no0 o0\nc\ny\n"
        );
    }

    #[test]
    fn ascii_cycles_are_rejected() {
        let text = b"aag 3 1 0 1 2\n2\n6\n4 6 2\n6 4 2\n";
        assert!(matches!(
            parse_auto(text, "x"),
            Err(AigerError::Structure(_))
        ));
    }

    #[test]
    fn latch_reset_semantics() {
        // Three latches: default 0, explicit 1, self-referential (uninit).
        let text = b"aag 3 0 3 0 0\n2 2\n4 4 1\n6 6 6\n";
        let aig = parse_auto(text, "resets").expect("reset fixture parses");
        assert_eq!(aig.latches()[0].init, Some(false));
        assert_eq!(aig.latches()[1].init, Some(true));
        assert_eq!(aig.latches()[2].init, None);
    }

    #[test]
    fn roundtrip_ascii_and_binary() {
        let aig = random_aig(7, 4, 3, 20);
        assert!(aig.validate().is_ok());
        let text = write_aag(&aig);
        let reparsed = parse_auto(text.as_bytes(), aig.name()).expect("own aag output reparses");
        assert_eq!(write_aag(&reparsed), text);

        let bytes = write_aig(&aig).expect("valid aig serialises");
        let reparsed = parse_auto(&bytes, aig.name()).expect("own aig output reparses");
        assert_eq!(write_aig(&reparsed).expect("reparse serialises"), bytes);
        assert_eq!(write_aag(&reparsed), text);
    }

    #[test]
    fn strashed_aig_roundtrips_names_and_output_literals() {
        let mut aig = Aig::new("sample");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let ab = aig.and(a, b);
        let y = aig.or(ab, c.complement());
        aig.add_output(y, "y");
        aig.add_output(ab.complement(), "nab");
        let parsed = parse_auto(write_aag(&aig).as_bytes(), "sample").expect("own output reparses");
        assert!(parsed.validate().is_ok());
        assert_eq!(parsed.num_inputs(), 3);
        assert_eq!(parsed.num_ands(), aig.num_ands());
        assert_eq!(parsed.input_name(0), "a");
        assert_eq!(parsed.outputs(), aig.outputs());
    }

    #[test]
    fn a_constant_output_is_read() {
        let aig = parse_auto(b"aag 0 0 0 1 0\n1\n", "const").expect("constant circuit parses");
        assert_eq!(aig.outputs()[0].0, AigLit::TRUE);
    }

    #[test]
    fn parse_auto_dispatches() {
        let aig = random_aig(3, 2, 1, 6);
        let text = write_aag(&aig);
        let bytes = write_aig(&aig).expect("serialises");
        let from_text = parse_auto(text.as_bytes(), "t").expect("auto ascii");
        let from_bin = parse_auto(&bytes, "t").expect("auto binary");
        assert_eq!(from_text, from_bin);
        assert!(matches!(
            parse_auto(b"nonsense", "t"),
            Err(AigerError::Header(_))
        ));
    }

    #[test]
    fn varint_roundtrip() {
        for value in [0u64, 1, 127, 128, 129, 16383, 16384, u32::MAX as u64] {
            let mut buf = Vec::new();
            push_varint(&mut buf, value);
            let mut cur = Cursor {
                bytes: &buf,
                pos: 0,
                line: 0,
                binary: true,
            };
            assert_eq!(cur.varint().expect("decodes"), value);
            assert_eq!(cur.pos, buf.len());
        }
    }

    #[test]
    fn latch_policy_display_and_apply() {
        assert_eq!(LatchPolicy::Cut.to_string(), "cut");
        assert_eq!(LatchPolicy::Unroll(4).to_string(), "unroll:4");
        assert_eq!(LatchPolicy::default(), LatchPolicy::Cut);
        let aig = parse_auto(counter_aag(), "counter").expect("counter fixture parses");
        let cut = LatchPolicy::Cut.apply(&aig).expect("cut applies");
        assert!(cut.is_combinational());
        assert_eq!(cut.num_outputs(), 4); // y0 y1 + 2 next-state
        let unrolled = LatchPolicy::Unroll(2).apply(&aig).expect("unroll applies");
        assert!(unrolled.is_combinational());
        assert_eq!(unrolled.num_outputs(), 4); // y0/y1 at 2 frames
        assert!(LatchPolicy::Unroll(0).apply(&aig).is_err());
    }

    #[test]
    fn hostile_header_is_rejected_cheaply() {
        let big = format!("aag {} {} 0 0 0\n", MAX_VARS + 1, MAX_VARS + 1);
        assert!(matches!(
            parse_auto(big.as_bytes(), "x"),
            Err(AigerError::Unsupported(_))
        ));
        let lying = b"aag 1000000 1000000 0 0 0\n2\n";
        assert!(matches!(
            parse_auto(lying, "x"),
            Err(AigerError::Truncated(_))
        ));
        // Binary inputs take no bytes: 2^24 of them behind one output line
        // would allocate gigabytes if only the ASCII rule applied.
        let lying = b"aig 16777216 16777216 0 1 0\n2\n";
        assert_eq!(lying.len(), 30);
        assert!(matches!(
            parse_auto(lying, "x"),
            Err(AigerError::Truncated(_))
        ));
    }

    #[test]
    fn generator_is_deterministic_and_valid() {
        let a = random_aig(11, 5, 4, 40);
        let b = random_aig(11, 5, 4, 40);
        assert_eq!(write_aag(&a), write_aag(&b));
        assert!(a.validate().is_ok());
        assert_eq!(a.num_inputs(), 5);
        assert_eq!(a.num_latches(), 4);
        assert_eq!(a.num_ands(), 40);
    }
}
