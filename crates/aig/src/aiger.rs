//! Full AIGER subsystem: binary (`aig`) and ASCII (`aag`) readers and
//! writers, plus the latch-aware ingestion policies.
//!
//! AIGER is the de-facto interchange format of the hardware model-checking
//! and logic-synthesis communities; the circuit suites the DeepGate paper
//! evaluates on (EPFL / ISCAS / HWMCC) ship in it. This module implements
//! the format end-to-end, std-only:
//!
//! - [`parse_aag`] / [`parse_aig`] / [`parse_auto`] — readers for the ASCII
//!   and binary encodings. The binary reader streams over any
//!   [`std::io::Read`], decoding the delta-compressed AND section without
//!   buffering the whole file. Malformed input of either flavour always
//!   yields a typed [`AigerError`], never a panic.
//! - [`write_aag`] / [`write_aig`] — writers emitting a *canonical* variable
//!   numbering (inputs, then latches, then ANDs in topological order), so
//!   two structurally identical AIGs serialise to identical bytes — the
//!   property the round-trip tests and the serving cache rely on.
//! - [`LatchPolicy`] — how sequential circuits enter the (combinational)
//!   DeepGate pipeline: cut latch boundaries into pseudo-PI/PO, or unroll a
//!   fixed number of time frames.
//! - [`random_aig`] — a deterministic sequential-AIG generator for tests
//!   and benchmarks.

use crate::{Aig, AigLit};
use std::fmt;
use std::io::Read;

/// Upper bound on the `M` (maximum variable index) header field accepted by
/// the parsers. Guards against hostile headers that would otherwise drive
/// allocation of billions of nodes before any body byte is validated.
pub const MAX_VARS: usize = 1 << 24;

/// Errors produced while reading or writing AIGER files.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AigerError {
    /// The `aag`/`aig` header line is missing, malformed or inconsistent.
    Header(String),
    /// A line of the ASCII body or symbol table could not be parsed.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// The binary AND section is corrupt.
    Binary {
        /// Byte offset of the offending byte.
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
    /// An I/O error from the underlying reader.
    Io(String),
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
            AigerError::Io(msg) => write!(f, "aiger i/o error: {msg}"),
        }
    }
}

impl std::error::Error for AigerError {}

impl From<std::io::Error> for AigerError {
    fn from(err: std::io::Error) -> Self {
        AigerError::Io(err.to_string())
    }
}

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
// Header
// ---------------------------------------------------------------------------

struct Header {
    m: usize,
    i: usize,
    l: usize,
    o: usize,
    a: usize,
}

fn parse_header(line: &str, tag: &str) -> Result<Header, AigerError> {
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
    let header = Header {
        m: num(parts[1])?,
        i: num(parts[2])?,
        l: num(parts[3])?,
        o: num(parts[4])?,
        a: num(parts[5])?,
    };
    if header.m > MAX_VARS {
        return Err(AigerError::Unsupported(format!(
            "M = {} exceeds the supported maximum of {MAX_VARS}",
            header.m
        )));
    }
    let body = header
        .i
        .checked_add(header.l)
        .and_then(|x| x.checked_add(header.a));
    match body {
        Some(total) if total == header.m => Ok(header),
        Some(total) => Err(AigerError::Header(format!(
            "M = {} but I + L + A = {total} (non-contiguous numbering is unsupported)",
            header.m
        ))),
        None => Err(AigerError::Header("header counts overflow".into())),
    }
}

/// Converts a raw AIGER literal into an [`AigLit`] through a variable → node
/// literal map, preserving the complement bit.
fn lit_from_raw(var2lit: &[AigLit], raw: u64) -> AigLit {
    let base = var2lit[(raw / 2) as usize];
    if raw % 2 == 1 {
        base.complement()
    } else {
        base
    }
}

fn check_literal(raw: u64, m: usize, context: impl Fn() -> AigerError) -> Result<(), AigerError> {
    if raw / 2 > m as u64 {
        return Err(context());
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// ASCII reader
// ---------------------------------------------------------------------------

/// Parses AIGER-ASCII (`aag`) text into an [`Aig`] named `name`.
///
/// Latches are read into first-class [`crate::AigLatch`] entries (AIGER 1.9
/// reset semantics: `0`, `1`, or the latch's own literal for
/// *uninitialised*). AND definitions may appear in any order; forward
/// references are resolved as long as the definitions are acyclic.
///
/// # Errors
///
/// Returns an [`AigerError`] describing the first problem found; malformed
/// input never panics.
pub fn parse_aag(text: &str, name: impl Into<String>) -> Result<Aig, AigerError> {
    let mut lines = text.lines().enumerate().map(|(n, l)| (n + 1, l));
    let (_, header_line) = lines
        .next()
        .ok_or_else(|| AigerError::Truncated("empty file".into()))?;
    let header = parse_header(header_line, "aag")?;
    // Every variable needs at least two bytes of text (digit + separator), so
    // a header promising more variables than bytes is rejected before any
    // allocation proportional to M.
    if header.m > text.len() {
        return Err(AigerError::Truncated(format!(
            "header promises {} variables but the file holds {} bytes",
            header.m,
            text.len()
        )));
    }

    let parse_u64 = |s: &str, line: usize| -> Result<u64, AigerError> {
        s.parse().map_err(|_| AigerError::Parse {
            line,
            message: format!("invalid literal `{s}`"),
        })
    };

    let mut aig = Aig::new(name);
    // Variable index -> literal in `aig`; slot 0 is the constant.
    let mut var2lit: Vec<Option<AigLit>> = vec![None; header.m + 1];
    var2lit[0] = Some(AigLit::FALSE);

    let mut next_line = |what: &str| -> Result<(usize, &str), AigerError> {
        lines
            .next()
            .ok_or_else(|| AigerError::Truncated(format!("missing {what} line")))
    };

    let define = |var2lit: &mut [Option<AigLit>],
                  raw: u64,
                  line: usize,
                  what: &str|
     -> Result<usize, AigerError> {
        if raw % 2 == 1 || raw == 0 {
            return Err(AigerError::Parse {
                line,
                message: format!("{what} literal {raw} must be even and non-zero"),
            });
        }
        let var = (raw / 2) as usize;
        if var > header.m {
            return Err(AigerError::Parse {
                line,
                message: format!("{what} literal {raw} exceeds M = {}", header.m),
            });
        }
        if var2lit[var].is_some() {
            return Err(AigerError::Parse {
                line,
                message: format!("variable {var} is defined twice"),
            });
        }
        Ok(var)
    };

    for k in 0..header.i {
        let (line_no, line) = next_line("input")?;
        let raw = parse_u64(line.trim(), line_no)?;
        let var = define(&mut var2lit, raw, line_no, "input")?;
        var2lit[var] = Some(aig.add_input(format!("i{k}")));
    }

    // Latch lines: `state next [init]`.
    let mut latch_state_raw = Vec::with_capacity(header.l.min(1024));
    let mut latch_next_raw = Vec::with_capacity(header.l.min(1024));
    let mut latch_init_raw: Vec<Option<u64>> = Vec::with_capacity(header.l.min(1024));
    for k in 0..header.l {
        let (line_no, line) = next_line("latch")?;
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() < 2 || fields.len() > 3 {
            return Err(AigerError::Parse {
                line: line_no,
                message: "latch line must be `state next [init]`".into(),
            });
        }
        let state = parse_u64(fields[0], line_no)?;
        let next = parse_u64(fields[1], line_no)?;
        check_literal(next, header.m, || AigerError::Parse {
            line: line_no,
            message: format!("latch next literal {next} exceeds M = {}", header.m),
        })?;
        let init = if fields.len() == 3 {
            Some(parse_u64(fields[2], line_no)?)
        } else {
            None
        };
        let var = define(&mut var2lit, state, line_no, "latch")?;
        var2lit[var] = Some(aig.add_latch(format!("l{k}")));
        latch_state_raw.push(state);
        latch_next_raw.push(next);
        latch_init_raw.push(init);
    }

    let mut output_raw = Vec::with_capacity(header.o.min(1024));
    for _ in 0..header.o {
        let (line_no, line) = next_line("output")?;
        let raw = parse_u64(line.trim(), line_no)?;
        check_literal(raw, header.m, || AigerError::Parse {
            line: line_no,
            message: format!("output literal {raw} exceeds M = {}", header.m),
        })?;
        output_raw.push(raw);
    }

    // AND definitions, keyed by variable; resolved below so out-of-order
    // (forward-referencing) definitions are accepted.
    let mut and_defs: Vec<Option<(u64, u64)>> = vec![None; header.m + 1];
    for _ in 0..header.a {
        let (line_no, line) = next_line("and")?;
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 3 {
            return Err(AigerError::Parse {
                line: line_no,
                message: "and line must be `lhs rhs0 rhs1`".into(),
            });
        }
        let lhs = parse_u64(fields[0], line_no)?;
        let rhs0 = parse_u64(fields[1], line_no)?;
        let rhs1 = parse_u64(fields[2], line_no)?;
        for rhs in [rhs0, rhs1] {
            check_literal(rhs, header.m, || AigerError::Parse {
                line: line_no,
                message: format!("and fan-in literal {rhs} exceeds M = {}", header.m),
            })?;
        }
        let var = define(&mut var2lit, lhs, line_no, "and")?;
        if and_defs[var].is_some() {
            return Err(AigerError::Parse {
                line: line_no,
                message: format!("variable {var} is defined twice"),
            });
        }
        and_defs[var] = Some((rhs0, rhs1));
    }

    // Symbol table (`iN`/`lN`/`oN` names) and trailing comment.
    let mut input_names: Vec<Option<String>> = vec![None; header.i];
    let mut latch_names: Vec<Option<String>> = vec![None; header.l];
    let mut output_names: Vec<Option<String>> = vec![None; header.o];
    for (line_no, line) in lines {
        let line = line.trim();
        if line == "c" {
            break;
        }
        if line.is_empty() {
            continue;
        }
        let (kind, rest) = line.split_at(1);
        let slot = match kind {
            "i" => Some(&mut input_names),
            "l" => Some(&mut latch_names),
            "o" => Some(&mut output_names),
            _ => None,
        };
        let parsed = slot.and_then(|names| {
            let (idx, name) = rest.split_once(' ')?;
            let idx: usize = idx.parse().ok()?;
            if idx >= names.len() {
                return None;
            }
            names[idx] = Some(name.to_string());
            Some(())
        });
        if parsed.is_none() {
            return Err(AigerError::Parse {
                line: line_no,
                message: format!("invalid symbol table line `{line}`"),
            });
        }
    }

    // Every variable must be defined exactly once.
    for var in 1..=header.m {
        if var2lit[var].is_none() && and_defs[var].is_none() {
            return Err(AigerError::Structure(format!(
                "variable {var} is never defined"
            )));
        }
    }

    resolve_and_defs(&mut aig, &mut var2lit, &and_defs)?;
    let var2lit: Vec<AigLit> = var2lit
        .into_iter()
        .map(|l| l.expect("all variables resolved above"))
        .collect();

    finish_latches(
        &mut aig,
        &var2lit,
        &latch_state_raw,
        &latch_next_raw,
        &latch_init_raw,
    )?;
    for (k, raw) in output_raw.into_iter().enumerate() {
        let name = output_names[k].take().unwrap_or_else(|| format!("o{k}"));
        aig.add_output(lit_from_raw(&var2lit, raw), name);
    }
    for (k, name) in input_names.into_iter().enumerate() {
        if let Some(name) = name {
            aig.set_input_name(k, name);
        }
    }
    for (k, name) in latch_names.into_iter().enumerate() {
        if let Some(name) = name {
            aig.set_latch_name(k, name);
        }
    }
    aig.rebuild_strash();
    Ok(aig)
}

/// Emits the stored AND definitions into `aig` in dependency order (iterative
/// DFS, so deep circuits cannot overflow the stack), detecting cycles.
fn resolve_and_defs(
    aig: &mut Aig,
    var2lit: &mut [Option<AigLit>],
    and_defs: &[Option<(u64, u64)>],
) -> Result<(), AigerError> {
    enum Visit {
        Enter(usize),
        Exit(usize),
    }
    let mut on_path = vec![false; and_defs.len()];
    let mut stack: Vec<Visit> = Vec::new();
    for root in 1..and_defs.len() {
        if and_defs[root].is_none() || var2lit[root].is_some() {
            continue;
        }
        stack.push(Visit::Enter(root));
        while let Some(visit) = stack.pop() {
            match visit {
                Visit::Enter(var) => {
                    if var2lit[var].is_some() {
                        continue;
                    }
                    if on_path[var] {
                        return Err(AigerError::Structure(format!(
                            "combinational cycle through variable {var}"
                        )));
                    }
                    on_path[var] = true;
                    let (rhs0, rhs1) = and_defs[var].expect("undefined variables rejected earlier");
                    stack.push(Visit::Exit(var));
                    for rhs in [rhs0, rhs1] {
                        let child = (rhs / 2) as usize;
                        if var2lit[child].is_none() {
                            stack.push(Visit::Enter(child));
                        }
                    }
                }
                Visit::Exit(var) => {
                    let (rhs0, rhs1) = and_defs[var].expect("undefined variables rejected earlier");
                    let a = lit_from_raw_partial(var2lit, rhs0);
                    let b = lit_from_raw_partial(var2lit, rhs1);
                    var2lit[var] = Some(aig.push_raw_and(a, b));
                    on_path[var] = false;
                }
            }
        }
    }
    Ok(())
}

fn lit_from_raw_partial(var2lit: &[Option<AigLit>], raw: u64) -> AigLit {
    let base = var2lit[(raw / 2) as usize].expect("child resolved before parent");
    if raw % 2 == 1 {
        base.complement()
    } else {
        base
    }
}

/// Applies the recorded latch next/init literals once all variables resolve.
fn finish_latches(
    aig: &mut Aig,
    var2lit: &[AigLit],
    state_raw: &[u64],
    next_raw: &[u64],
    init_raw: &[Option<u64>],
) -> Result<(), AigerError> {
    let entries = state_raw.iter().zip(next_raw).zip(init_raw).enumerate();
    for (k, ((&state, &next), &init)) in entries {
        aig.set_latch_next(k, lit_from_raw(var2lit, next));
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
    Ok(())
}

// ---------------------------------------------------------------------------
// Binary reader
// ---------------------------------------------------------------------------

/// Tracks the byte offset while reading, for error reporting.
struct ByteReader<R: Read> {
    inner: R,
    offset: usize,
}

impl<R: Read> ByteReader<R> {
    fn new(inner: R) -> Self {
        ByteReader { inner, offset: 0 }
    }

    /// Reads one byte; `Ok(None)` at end of input.
    fn next_byte(&mut self) -> Result<Option<u8>, AigerError> {
        let mut buf = [0u8; 1];
        loop {
            match self.inner.read(&mut buf) {
                Ok(0) => return Ok(None),
                Ok(_) => {
                    self.offset += 1;
                    return Ok(Some(buf[0]));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Reads an ASCII line up to `\n` (consumed, not returned); `Ok(None)` if
    /// the input is already exhausted.
    fn next_line(&mut self) -> Result<Option<String>, AigerError> {
        let mut line = String::new();
        let mut saw_any = false;
        while let Some(byte) = self.next_byte()? {
            saw_any = true;
            if byte == b'\n' {
                return Ok(Some(line));
            }
            if !byte.is_ascii() {
                return Err(AigerError::Binary {
                    offset: self.offset,
                    message: format!("non-ascii byte 0x{byte:02x} in text section"),
                });
            }
            line.push(byte as char);
        }
        if saw_any {
            Ok(Some(line))
        } else {
            Ok(None)
        }
    }

    /// Decodes one 7-bit little-endian varint (the AIGER delta encoding).
    fn next_varint(&mut self) -> Result<u64, AigerError> {
        let mut value: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.next_byte()?.ok_or_else(|| {
                AigerError::Truncated("binary and section ended mid-varint".into())
            })?;
            if shift >= 63 {
                return Err(AigerError::Binary {
                    offset: self.offset,
                    message: "varint exceeds 63 bits".into(),
                });
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }
}

/// Parses binary AIGER (`aig`) from a streaming reader into an [`Aig`] named
/// `name`.
///
/// The delta-compressed AND section is decoded incrementally, so arbitrarily
/// large files parse in one pass without buffering.
///
/// # Errors
///
/// Returns an [`AigerError`] describing the first problem found (with byte
/// offsets for binary-section corruption); malformed input never panics.
pub fn parse_aig<R: Read>(reader: R, name: impl Into<String>) -> Result<Aig, AigerError> {
    let mut r = ByteReader::new(reader);
    let header_line = r
        .next_line()?
        .ok_or_else(|| AigerError::Truncated("empty file".into()))?;
    let header = parse_header(&header_line, "aig")?;

    let mut aig = Aig::new(name);
    // Binary AIGER fixes the variable order: inputs 1..=I, latches I+1..=I+L,
    // ands I+L+1..=M — exactly the node layout `Aig` uses, so variable k is
    // node k and no remapping table is needed.
    for k in 0..header.i {
        aig.add_input(format!("i{k}"));
    }
    for k in 0..header.l {
        aig.add_latch(format!("l{k}"));
    }

    let parse_u64 = |s: &str, what: &str, offset: usize| -> Result<u64, AigerError> {
        s.parse().map_err(|_| AigerError::Binary {
            offset,
            message: format!("invalid {what} literal `{s}`"),
        })
    };

    let mut latch_next_raw = Vec::with_capacity(header.l.min(1024));
    let mut latch_init_raw: Vec<Option<u64>> = Vec::with_capacity(header.l.min(1024));
    for k in 0..header.l {
        let line = r
            .next_line()?
            .ok_or_else(|| AigerError::Truncated(format!("missing latch line {k}")))?;
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.is_empty() || fields.len() > 2 {
            return Err(AigerError::Binary {
                offset: r.offset,
                message: "latch line must be `next [init]`".into(),
            });
        }
        let next = parse_u64(fields[0], "latch next", r.offset)?;
        check_literal(next, header.m, || AigerError::Binary {
            offset: r.offset,
            message: format!("latch next literal {next} exceeds M = {}", header.m),
        })?;
        latch_next_raw.push(next);
        latch_init_raw.push(if fields.len() == 2 {
            Some(parse_u64(fields[1], "latch init", r.offset)?)
        } else {
            None
        });
    }

    let mut output_raw = Vec::with_capacity(header.o.min(1024));
    for k in 0..header.o {
        let line = r
            .next_line()?
            .ok_or_else(|| AigerError::Truncated(format!("missing output line {k}")))?;
        let raw = parse_u64(line.trim(), "output", r.offset)?;
        check_literal(raw, header.m, || AigerError::Binary {
            offset: r.offset,
            message: format!("output literal {raw} exceeds M = {}", header.m),
        })?;
        output_raw.push(raw);
    }

    // Delta-coded AND section: for gate k, lhs = 2 * (I + L + k + 1),
    // rhs0 = lhs - delta0, rhs1 = rhs0 - delta1.
    for k in 0..header.a {
        let lhs = 2 * (header.i + header.l + k + 1) as u64;
        let delta0 = r.next_varint()?;
        if delta0 == 0 || delta0 > lhs {
            return Err(AigerError::Binary {
                offset: r.offset,
                message: format!("and {k}: delta0 = {delta0} out of range for lhs {lhs}"),
            });
        }
        let rhs0 = lhs - delta0;
        let delta1 = r.next_varint()?;
        if delta1 > rhs0 {
            return Err(AigerError::Binary {
                offset: r.offset,
                message: format!("and {k}: delta1 = {delta1} out of range for rhs0 {rhs0}"),
            });
        }
        let rhs1 = rhs0 - delta1;
        aig.push_raw_and(AigLit::from_raw(rhs0 as u32), AigLit::from_raw(rhs1 as u32));
    }

    // Symbol table and comment, same text grammar as ASCII AIGER.
    let mut input_names: Vec<Option<String>> = vec![None; header.i];
    let mut latch_names: Vec<Option<String>> = vec![None; header.l];
    let mut output_names: Vec<Option<String>> = vec![None; header.o];
    while let Some(line) = r.next_line()? {
        let line = line.trim();
        if line == "c" {
            break;
        }
        if line.is_empty() {
            continue;
        }
        let (kind, rest) = line.split_at(1);
        let slot = match kind {
            "i" => Some(&mut input_names),
            "l" => Some(&mut latch_names),
            "o" => Some(&mut output_names),
            _ => None,
        };
        let parsed = slot.and_then(|names| {
            let (idx, name) = rest.split_once(' ')?;
            let idx: usize = idx.parse().ok()?;
            if idx >= names.len() {
                return None;
            }
            names[idx] = Some(name.to_string());
            Some(())
        });
        if parsed.is_none() {
            return Err(AigerError::Binary {
                offset: r.offset,
                message: format!("invalid symbol table line `{line}`"),
            });
        }
    }

    // Variable k is node k, so the identity map resolves literals.
    let var2lit: Vec<AigLit> = (0..=header.m).map(AigLit::positive).collect();
    let state_raw: Vec<u64> = (0..header.l)
        .map(|k| 2 * (header.i + k + 1) as u64)
        .collect();
    finish_latches(
        &mut aig,
        &var2lit,
        &state_raw,
        &latch_next_raw,
        &latch_init_raw,
    )?;
    for (k, raw) in output_raw.into_iter().enumerate() {
        let name = output_names[k].take().unwrap_or_else(|| format!("o{k}"));
        aig.add_output(lit_from_raw(&var2lit, raw), name);
    }
    for (k, name) in input_names.into_iter().enumerate() {
        if let Some(name) = name {
            aig.set_input_name(k, name);
        }
    }
    for (k, name) in latch_names.into_iter().enumerate() {
        if let Some(name) = name {
            aig.set_latch_name(k, name);
        }
    }
    aig.rebuild_strash();
    Ok(aig)
}

/// Parses either AIGER flavour, dispatching on the header magic
/// (`aag` → ASCII, `aig` → binary).
///
/// # Errors
///
/// Returns an [`AigerError`] for unrecognised magic bytes, non-UTF-8 ASCII
/// input, or any flavour-specific parse failure.
pub fn parse_auto(bytes: &[u8], name: impl Into<String>) -> Result<Aig, AigerError> {
    if bytes.starts_with(b"aag") {
        let text = std::str::from_utf8(bytes)
            .map_err(|e| AigerError::Header(format!("ascii aiger is not valid utf-8: {e}")))?;
        parse_aag(text, name)
    } else if bytes.starts_with(b"aig") {
        parse_aig(bytes, name)
    } else {
        Err(AigerError::Header(
            "input starts with neither `aag` nor `aig`".into(),
        ))
    }
}

// ---------------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------------

/// Assigns the canonical AIGER variable numbering: inputs in declaration
/// order, then latches in table order, then AND nodes in index order.
fn assign_vars(aig: &Aig) -> Vec<u64> {
    let mut var_of = vec![0u64; aig.len()];
    let mut next = 1u64;
    for &idx in aig.inputs() {
        var_of[idx] = next;
        next += 1;
    }
    for latch in aig.latches() {
        var_of[latch.state] = next;
        next += 1;
    }
    for (i, node) in aig.iter() {
        if node.kind == crate::AigNodeKind::And {
            var_of[i] = next;
            next += 1;
        }
    }
    var_of
}

fn aiger_lit(var_of: &[u64], lit: AigLit) -> u64 {
    2 * var_of[lit.node()] + u64::from(lit.is_complemented())
}

/// One latch line's canonical text: next literal plus reset value when it is
/// not the default 0 (`1` for set, the state literal itself for
/// uninitialised).
fn latch_suffix(var_of: &[u64], latch: &crate::AigLatch) -> String {
    let next = aiger_lit(var_of, latch.next);
    match latch.init {
        Some(false) => next.to_string(),
        Some(true) => format!("{next} 1"),
        None => format!("{next} {}", 2 * var_of[latch.state]),
    }
}

fn push_symbols(out: &mut String, aig: &Aig) {
    use std::fmt::Write as _;
    for (pos, _) in aig.inputs().iter().enumerate() {
        let _ = writeln!(out, "i{pos} {}", aig.input_name(pos));
    }
    for (pos, latch) in aig.latches().iter().enumerate() {
        let _ = writeln!(out, "l{pos} {}", latch.name);
    }
    for (pos, (_, name)) in aig.outputs().iter().enumerate() {
        let _ = writeln!(out, "o{pos} {name}");
    }
    let _ = writeln!(out, "c\n{}", aig.name());
}

/// Serialises an [`Aig`] (latches included) to AIGER-ASCII text with
/// canonical variable numbering, full symbol table and a trailing comment
/// holding the design name.
///
/// Two structurally identical AIGs produce byte-identical text, which is what
/// the round-trip isomorphism tests compare.
pub fn write_aag(aig: &Aig) -> String {
    use std::fmt::Write as _;
    let var_of = assign_vars(aig);
    let (i, l, o, a) = (
        aig.num_inputs(),
        aig.num_latches(),
        aig.num_outputs(),
        aig.num_ands(),
    );
    let m = i + l + a;
    let mut out = String::new();
    let _ = writeln!(out, "aag {m} {i} {l} {o} {a}");
    for &idx in aig.inputs() {
        let _ = writeln!(out, "{}", 2 * var_of[idx]);
    }
    for latch in aig.latches() {
        let _ = writeln!(
            out,
            "{} {}",
            2 * var_of[latch.state],
            latch_suffix(&var_of, latch)
        );
    }
    for (lit, _) in aig.outputs() {
        let _ = writeln!(out, "{}", aiger_lit(&var_of, *lit));
    }
    for (idx, node) in aig.iter() {
        if node.kind != crate::AigNodeKind::And {
            continue;
        }
        let lhs = 2 * var_of[idx];
        let f0 = aiger_lit(&var_of, node.fanin0);
        let f1 = aiger_lit(&var_of, node.fanin1);
        let (rhs0, rhs1) = (f0.max(f1), f0.min(f1));
        let _ = writeln!(out, "{lhs} {rhs0} {rhs1}");
    }
    push_symbols(&mut out, aig);
    out
}

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

/// Serialises an [`Aig`] (latches included) to binary AIGER with the
/// delta-compressed AND section and canonical variable numbering.
///
/// # Errors
///
/// Returns [`AigerError::Structure`] if an AND fan-in does not precede its
/// gate in the canonical order (possible only for invalid hand-built AIGs).
pub fn write_aig(aig: &Aig) -> Result<Vec<u8>, AigerError> {
    let var_of = assign_vars(aig);
    let (i, l, o, a) = (
        aig.num_inputs(),
        aig.num_latches(),
        aig.num_outputs(),
        aig.num_ands(),
    );
    let m = i + l + a;
    let mut out: Vec<u8> = Vec::new();
    out.extend_from_slice(format!("aig {m} {i} {l} {o} {a}\n").as_bytes());
    for latch in aig.latches() {
        out.extend_from_slice(latch_suffix(&var_of, latch).as_bytes());
        out.push(b'\n');
    }
    for (lit, _) in aig.outputs() {
        out.extend_from_slice(aiger_lit(&var_of, *lit).to_string().as_bytes());
        out.push(b'\n');
    }
    for (idx, node) in aig.iter() {
        if node.kind != crate::AigNodeKind::And {
            continue;
        }
        let lhs = 2 * var_of[idx];
        let f0 = aiger_lit(&var_of, node.fanin0);
        let f1 = aiger_lit(&var_of, node.fanin1);
        let (rhs0, rhs1) = (f0.max(f1), f0.min(f1));
        if rhs0 >= lhs {
            return Err(AigerError::Structure(format!(
                "and node {idx} references a non-preceding fan-in"
            )));
        }
        push_varint(&mut out, lhs - rhs0);
        push_varint(&mut out, rhs0 - rhs1);
    }
    let mut symbols = String::new();
    push_symbols(&mut symbols, aig);
    out.extend_from_slice(symbols.as_bytes());
    Ok(out)
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

    fn counter_aag() -> &'static str {
        // 2-bit counter: b0' = !b0, b1' = b1 XOR b0 (as 3 ANDs), outputs b0 b1.
        "aag 5 0 2 2 3\n2 3\n4 10\n2\n4\n6 5 3\n8 4 2\n10 7 9\nl0 b0\nl1 b1\no0 y0\no1 y1\nc\ncounter\n"
    }

    #[test]
    fn parse_aag_reads_latches() {
        let aig = parse_aag(counter_aag(), "counter").expect("counter fixture parses");
        assert_eq!(aig.num_latches(), 2);
        assert_eq!(aig.num_inputs(), 0);
        assert_eq!(aig.num_ands(), 3);
        assert_eq!(aig.latches()[0].name, "b0");
        assert_eq!(aig.latches()[0].init, Some(false));
        assert!(aig.validate().is_ok());
    }

    #[test]
    fn parse_aag_accepts_out_of_order_ands() {
        // Same circuit with the AND lines reversed (forward references).
        let text = "aag 3 1 0 1 2\n2\n6\n6 5 2\n4 3 2\n";
        let aig = parse_aag(text, "x").expect("out-of-order ands resolve");
        assert_eq!(aig.num_ands(), 2);
        assert!(aig.validate().is_ok());
    }

    #[test]
    fn parse_aag_rejects_cycles() {
        let text = "aag 3 1 0 1 2\n2\n6\n4 6 2\n6 4 2\n";
        assert!(matches!(
            parse_aag(text, "x"),
            Err(AigerError::Structure(_))
        ));
    }

    #[test]
    fn latch_reset_semantics() {
        // Three latches: default 0, explicit 1, self-referential (uninit).
        let text = "aag 3 0 3 0 0\n2 2\n4 4 1\n6 6 6\n";
        let aig = parse_aag(text, "resets").expect("reset fixture parses");
        assert_eq!(aig.latches()[0].init, Some(false));
        assert_eq!(aig.latches()[1].init, Some(true));
        assert_eq!(aig.latches()[2].init, None);
    }

    #[test]
    fn roundtrip_ascii_and_binary() {
        let aig = random_aig(7, 4, 3, 20);
        assert!(aig.validate().is_ok());
        let text = write_aag(&aig);
        let reparsed = parse_aag(&text, aig.name()).expect("own aag output reparses");
        assert_eq!(write_aag(&reparsed), text);

        let bytes = write_aig(&aig).expect("valid aig serialises");
        let reparsed = parse_aig(&bytes[..], aig.name()).expect("own aig output reparses");
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
        let parsed = parse_aag(&write_aag(&aig), "sample").expect("own output reparses");
        assert!(parsed.validate().is_ok());
        assert_eq!(parsed.num_inputs(), 3);
        assert_eq!(parsed.num_ands(), aig.num_ands());
        assert_eq!(parsed.input_name(0), "a");
        assert_eq!(parsed.outputs(), aig.outputs());
    }

    #[test]
    fn parse_aag_reads_a_constant_output() {
        let aig = parse_aag("aag 0 0 0 1 0\n1\n", "const").expect("constant circuit parses");
        assert_eq!(aig.outputs()[0].0, AigLit::TRUE);
    }

    #[test]
    fn parse_auto_dispatches() {
        let aig = random_aig(3, 2, 1, 6);
        let text = write_aag(&aig);
        let bytes = write_aig(&aig).expect("serialises");
        let from_text = parse_auto(text.as_bytes(), "t").expect("auto ascii");
        let from_bin = parse_auto(&bytes, "t").expect("auto binary");
        assert_eq!(write_aag(&from_text), write_aag(&from_bin));
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
            let mut reader = ByteReader::new(&buf[..]);
            assert_eq!(reader.next_varint().expect("decodes"), value);
        }
    }

    #[test]
    fn latch_policy_display_and_apply() {
        assert_eq!(LatchPolicy::Cut.to_string(), "cut");
        assert_eq!(LatchPolicy::Unroll(4).to_string(), "unroll:4");
        assert_eq!(LatchPolicy::default(), LatchPolicy::Cut);
        let aig = parse_aag(counter_aag(), "counter").expect("counter fixture parses");
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
            parse_aag(&big, "x"),
            Err(AigerError::Unsupported(_))
        ));
        let lying = "aag 1000000 1000000 0 0 0\n2\n";
        assert!(matches!(
            parse_aag(lying, "x"),
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
