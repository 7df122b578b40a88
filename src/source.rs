//! [`CircuitSource`] — one trait unifying every way circuits enter the
//! system: BENCH text/files, AIGER (ASCII and binary),
//! in-memory netlists and the synthetic benchmark-suite generators.

use crate::DeepGateError;
use deepgate_aig::{aiger, Aig, LatchPolicy};
use deepgate_dataset::{LargeDesign, SuiteKind};
use deepgate_netlist::Netlist;
use std::path::{Path, PathBuf};

/// A supplier of gate-level circuits for the [`crate::Engine`].
///
/// Implementations cover the interchange formats of the paper's benchmark
/// suites ([`BenchText`], [`BenchFile`], [`AigerBytes`], [`AigerFile`]),
/// in-memory netlists ([`NetlistSource`]) and the synthetic generators
/// ([`SuiteSource`], [`LargeDesignSource`]). A source yields whole netlists;
/// the engine owns the downstream AIG transformation, labelling and graph
/// encoding, so every input format flows through one pipeline.
pub trait CircuitSource {
    /// Produces the circuits.
    ///
    /// # Errors
    ///
    /// Returns a [`DeepGateError`] if reading or parsing fails.
    fn netlists(&self) -> Result<Vec<Netlist>, DeepGateError>;
}

/// BENCH-format circuit text held in memory.
pub struct BenchText {
    name: String,
    text: String,
}

impl BenchText {
    /// Wraps BENCH text under a design name.
    pub fn new(name: impl Into<String>, text: impl Into<String>) -> Self {
        BenchText {
            name: name.into(),
            text: text.into(),
        }
    }
}

impl CircuitSource for BenchText {
    fn netlists(&self) -> Result<Vec<Netlist>, DeepGateError> {
        Ok(vec![deepgate_netlist::bench::parse(
            &self.text,
            self.name.clone(),
        )?])
    }
}

/// A BENCH file on disk.
pub struct BenchFile {
    path: PathBuf,
}

impl BenchFile {
    /// References a BENCH file by path.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        BenchFile { path: path.into() }
    }
}

impl CircuitSource for BenchFile {
    fn netlists(&self) -> Result<Vec<Netlist>, DeepGateError> {
        let text = read_file(&self.path)?;
        let name = self
            .path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "bench".to_string());
        Ok(vec![deepgate_netlist::bench::parse(&text, name)?])
    }
}

/// Applies a latch policy to a parsed AIG and expands it into the netlist
/// form every other source yields, so AIGER input joins the same pipeline.
fn aiger_netlist(aig: &Aig, policy: LatchPolicy) -> Result<Netlist, DeepGateError> {
    let combinational = policy.apply(aig)?;
    Ok(combinational.to_netlist())
}

/// An in-memory AIGER file of either encoding (ASCII `aag` text goes in as
/// its bytes); the header magic selects the encoding.
///
/// Sequential circuits are admitted: latches are handled according to the
/// configured [`LatchPolicy`] (default: cut into pseudo-PI/PO).
pub struct AigerBytes {
    name: String,
    bytes: Vec<u8>,
    policy: LatchPolicy,
}

impl AigerBytes {
    /// Wraps AIGER bytes (ASCII or binary) under a design name.
    pub fn new(name: impl Into<String>, bytes: impl Into<Vec<u8>>) -> Self {
        AigerBytes {
            name: name.into(),
            bytes: bytes.into(),
            policy: LatchPolicy::default(),
        }
    }

    /// Sets the latch ingestion policy (default [`LatchPolicy::Cut`]).
    pub fn latch_policy(mut self, policy: LatchPolicy) -> Self {
        self.policy = policy;
        self
    }
}

impl CircuitSource for AigerBytes {
    fn netlists(&self) -> Result<Vec<Netlist>, DeepGateError> {
        let aig = aiger::parse_auto(&self.bytes, self.name.clone())
            .map_err(deepgate_aig::AigError::from)?;
        Ok(vec![aiger_netlist(&aig, self.policy)?])
    }
}

/// An AIGER file on disk (`.aag` or `.aig`, auto-detected by header magic).
pub struct AigerFile {
    path: PathBuf,
    policy: LatchPolicy,
}

impl AigerFile {
    /// References an AIGER file by path.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        AigerFile {
            path: path.into(),
            policy: LatchPolicy::default(),
        }
    }

    /// Sets the latch ingestion policy (default [`LatchPolicy::Cut`]).
    pub fn latch_policy(mut self, policy: LatchPolicy) -> Self {
        self.policy = policy;
        self
    }
}

impl CircuitSource for AigerFile {
    fn netlists(&self) -> Result<Vec<Netlist>, DeepGateError> {
        let bytes = std::fs::read(&self.path).map_err(|e| DeepGateError::Io {
            path: self.path.display().to_string(),
            message: e.to_string(),
        })?;
        let name = self
            .path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "aiger".to_string());
        let aig = aiger::parse_auto(&bytes, name).map_err(deepgate_aig::AigError::from)?;
        Ok(vec![aiger_netlist(&aig, self.policy)?])
    }
}

/// In-memory netlists, passed through unchanged.
pub struct NetlistSource {
    netlists: Vec<Netlist>,
}

impl NetlistSource {
    /// Wraps already-built netlists.
    pub fn new(netlists: Vec<Netlist>) -> Self {
        NetlistSource { netlists }
    }
}

impl From<Netlist> for NetlistSource {
    fn from(netlist: Netlist) -> Self {
        NetlistSource {
            netlists: vec![netlist],
        }
    }
}

impl From<Vec<Netlist>> for NetlistSource {
    fn from(netlists: Vec<Netlist>) -> Self {
        NetlistSource { netlists }
    }
}

impl CircuitSource for NetlistSource {
    fn netlists(&self) -> Result<Vec<Netlist>, DeepGateError> {
        Ok(self.netlists.clone())
    }
}

/// Synthetic designs drawn from one of the paper's benchmark-suite
/// stand-ins (ITC'99 / IWLS'05 / EPFL / OpenCores).
pub struct SuiteSource {
    suite: SuiteKind,
    count: usize,
    seed: u64,
    size_scale: f64,
}

impl SuiteSource {
    /// Generates `count` designs from `suite`.
    pub fn new(suite: SuiteKind, count: usize) -> Self {
        SuiteSource {
            suite,
            count,
            seed: 42,
            size_scale: 0.25,
        }
    }

    /// Sets the generation seed (default 42).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the size scale factor in `(0, 1]` (default 0.25; 1.0 targets the
    /// paper's size ranges).
    pub fn size_scale(mut self, scale: f64) -> Self {
        self.size_scale = scale;
        self
    }
}

impl CircuitSource for SuiteSource {
    fn netlists(&self) -> Result<Vec<Netlist>, DeepGateError> {
        Ok((0..self.count)
            .map(|index| {
                self.suite
                    .generate_design(index, self.seed, self.size_scale)
            })
            .collect())
    }
}

/// One of the five large evaluation designs of Table III.
pub struct LargeDesignSource {
    design: LargeDesign,
    scale: f64,
}

impl LargeDesignSource {
    /// Generates `design` at a size `scale` in `(0, 1]`.
    pub fn new(design: LargeDesign, scale: f64) -> Self {
        LargeDesignSource { design, scale }
    }
}

impl CircuitSource for LargeDesignSource {
    fn netlists(&self) -> Result<Vec<Netlist>, DeepGateError> {
        Ok(vec![self.design.generate(self.scale)])
    }
}

fn read_file(path: &Path) -> Result<String, DeepGateError> {
    std::fs::read_to_string(path).map_err(|e| DeepGateError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const AND2: &str = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n";

    #[test]
    fn bench_text_parses() {
        let source = BenchText::new("and2", AND2);
        let netlists = source
            .netlists()
            .expect("the AND2 bench fixture should parse");
        assert_eq!(netlists.len(), 1);
        assert_eq!(netlists[0].num_inputs(), 2);
    }

    #[test]
    fn bench_text_parse_error_maps_to_netlist_variant() {
        let source = BenchText::new("bad", "y = AND(a, b)\n");
        assert!(matches!(source.netlists(), Err(DeepGateError::Netlist(_))));
    }

    #[test]
    fn missing_file_maps_to_io_variant() {
        let source = BenchFile::new("/nonexistent/never.bench");
        assert!(matches!(source.netlists(), Err(DeepGateError::Io { .. })));
    }

    #[test]
    fn suite_source_generates_requested_count() {
        let source = SuiteSource::new(SuiteKind::Epfl, 3).seed(7).size_scale(0.1);
        let netlists = source
            .netlists()
            .expect("the EPFL suite generator fixture should yield netlists");
        assert_eq!(netlists.len(), 3);
        assert!(netlists.iter().all(|n| n.num_gates() > 0));
    }

    // 2-bit counter with two latches, two outputs and three AND gates.
    const COUNTER_AAG: &str =
        "aag 5 0 2 2 3\n2 3\n4 10\n2\n4\n6 5 3\n8 4 2\n10 7 9\nl0 b0\nl1 b1\no0 y0\no1 y1\nc\ncounter\n";

    #[test]
    fn aiger_text_cut_exposes_latch_interface() {
        let source = AigerBytes::new("counter", COUNTER_AAG);
        let netlists = source.netlists().expect("the counter fixture parses");
        assert_eq!(netlists.len(), 1);
        // Cut mode: 2 pseudo-inputs (latch states), 2 + 2 outputs.
        assert_eq!(netlists[0].num_inputs(), 2);
        assert_eq!(netlists[0].num_outputs(), 4);
    }

    #[test]
    fn aiger_text_unroll_replicates_frames() {
        let source = AigerBytes::new("counter", COUNTER_AAG).latch_policy(LatchPolicy::Unroll(3));
        let netlists = source.netlists().expect("the counter fixture unrolls");
        // 2 outputs per frame, no primary inputs.
        assert_eq!(netlists[0].num_outputs(), 6);
    }

    #[test]
    fn aiger_bytes_accepts_binary() {
        let aig = deepgate_aig::aiger::random_aig(5, 3, 2, 12);
        let bytes = deepgate_aig::aiger::write_aig(&aig).expect("valid aig serialises");
        let source = AigerBytes::new("rand", bytes);
        let netlists = source.netlists().expect("binary aiger parses");
        assert!(netlists[0].num_gates() > 0);
    }

    #[test]
    fn aiger_error_maps_to_aig_variant() {
        let source = AigerBytes::new("bad", "aag not-a-header\n");
        assert!(matches!(source.netlists(), Err(DeepGateError::Aig(_))));
        let source = AigerFile::new("/nonexistent/never.aig");
        assert!(matches!(source.netlists(), Err(DeepGateError::Io { .. })));
    }

    #[test]
    fn netlist_source_passes_through() {
        let netlist = deepgate_dataset::generators::parity_tree(4);
        let source: NetlistSource = netlist.clone().into();
        let out = source
            .netlists()
            .expect("the parity_tree(4) fixture should pass through unchanged");
        assert_eq!(out[0].num_gates(), netlist.num_gates());
    }
}
