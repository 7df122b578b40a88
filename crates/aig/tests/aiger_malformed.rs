//! Fuzz-lite corpus for the one AIGER reader, [`aiger::parse_auto`]: every
//! malformed `.aag`/`.aig` input must produce a typed [`AigerError`], never
//! a panic. The corpus covers header, body, binary-section and symbol-table
//! corruption; every prefix and every single-byte corruption of a valid
//! file of either encoding must fail cleanly or decode to a sound AIG.

use deepgate_aig::aiger::{self, AigerError};

/// ASCII inputs that must be rejected. Each entry is `(label, text)`.
const BAD_AAG: &[(&str, &str)] = &[
    ("empty", ""),
    ("not aiger", "hello world\n"),
    ("short header", "aag 1 1\n"),
    ("long header", "aag 1 1 0 0 0 7\n"),
    ("non-numeric header", "aag x 1 0 0 0\n"),
    ("negative count", "aag -1 1 0 0 0\n"),
    ("overflow header", "aag 99999999999999999999 0 0 0 0\n"),
    ("m too small", "aag 1 1 0 0 1\n2\n4 2 2\n"),
    ("m too large", "aag 9 1 0 0 1\n2\n4 2 2\n"),
    ("m below inputs plus latches", "aag 1 1 1 0 0\n2\n"),
    ("m above inputs plus ands", "aag 5 1 0 0 1\n2\n"),
    ("missing input line", "aag 1 1 0 0 0\n"),
    ("odd input literal", "aag 1 1 0 0 0\n3\n"),
    ("zero input literal", "aag 1 1 0 0 0\n0\n"),
    ("input exceeds m", "aag 1 1 0 0 0\n4\n"),
    ("duplicate variable", "aag 2 2 0 0 0\n2\n2\n"),
    ("missing latch line", "aag 1 0 1 0 0\n"),
    ("latch missing next", "aag 1 0 1 0 0\n2\n"),
    ("latch extra fields", "aag 1 0 1 0 0\n2 2 0 0\n"),
    ("latch bad reset", "aag 1 0 1 0 0\n2 2 5\n"),
    ("latch next exceeds m", "aag 1 0 1 0 0\n2 9\n"),
    ("missing output line", "aag 0 0 0 1 0\n"),
    ("output exceeds m", "aag 0 0 0 1 0\n4\n"),
    ("non-numeric output", "aag 0 0 0 1 0\nx\n"),
    ("missing and line", "aag 1 0 0 0 1\n"),
    ("and with two fields", "aag 1 0 0 0 1\n2 0\n"),
    ("and lhs odd", "aag 1 0 0 0 1\n3 0 0\n"),
    ("and lhs is constant", "aag 1 0 0 0 1\n0 0 0\n"),
    ("and fanin exceeds m", "aag 1 0 0 0 1\n2 8 0\n"),
    (
        "and fanin names a variable past m",
        "aag 2 1 0 1 1\n2\n4\n4 6 2\n",
    ),
    ("and self cycle", "aag 1 0 0 0 1\n2 2 0\n"),
    ("two-node cycle", "aag 2 0 0 0 2\n2 4 0\n4 2 0\n"),
    ("and redefines input", "aag 2 1 0 0 1\n2\n2 0 0\n"),
    ("bad symbol table", "aag 1 1 0 0 0\n2\nq0 name\n"),
    ("symbol index out of range", "aag 1 1 0 0 0\n2\ni7 name\n"),
    ("symbol without name", "aag 1 1 0 0 0\n2\ni0\n"),
    (
        "symbol kind is a multi-byte character",
        "aag 1 1 0 0 0\n2\né0 name\n",
    ),
    ("lying giant header", "aag 1000000 1000000 0 0 0\n2\n"),
];

/// Binary inputs that must be rejected. Each entry is `(label, bytes)`.
const BAD_AIG: &[(&str, &[u8])] = &[
    ("empty", b""),
    ("header only ands missing", b"aig 1 0 0 0 1\n"),
    ("truncated varint", b"aig 1 0 0 0 1\n\x80"),
    ("delta0 zero", b"aig 1 0 0 0 1\n\x00\x00"),
    ("delta0 too large", b"aig 1 0 0 0 1\n\x7f\x00"),
    ("delta1 too large", b"aig 1 0 0 0 1\n\x01\x7f"),
    (
        "varint overflow",
        b"aig 1 0 0 0 1\n\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01",
    ),
    ("missing latch line", b"aig 1 0 1 0 0\n"),
    ("latch bad reset", b"aig 1 0 1 0 0\n0 9\n"),
    ("missing output line", b"aig 0 0 0 1 0\n"),
    ("output exceeds m", b"aig 0 0 0 1 0\n9\n"),
    ("non-ascii in text section", b"aig 0 0 0 1 0\n\xc3\xa9\n"),
    ("bad symbol table", b"aig 1 1 0 0 0\nz9 name\n"),
];

#[test]
fn malformed_ascii_corpus_errors_cleanly() {
    for (label, text) in BAD_AAG {
        let result = aiger::parse_auto(text.as_bytes(), "corpus");
        assert!(result.is_err(), "`{label}` parsed successfully: {result:?}");
    }
}

#[test]
fn malformed_binary_corpus_errors_cleanly() {
    for (label, bytes) in BAD_AIG {
        let result = aiger::parse_auto(bytes, "corpus");
        assert!(result.is_err(), "`{label}` parsed successfully: {result:?}");
    }
}

#[test]
fn auto_dispatch_rejects_unknown_magic() {
    assert!(matches!(
        aiger::parse_auto(b"\x00\x01\x02", "corpus"),
        Err(AigerError::Header(_))
    ));
    assert!(matches!(
        aiger::parse_auto(b"aag \xff\xff\n", "corpus"),
        Err(AigerError::Header(_))
    ));
}

/// Damaged input must fail cleanly, or decode to an AIG that holds the
/// `Aig` invariants and serialises through both writers.
fn fails_or_decodes_soundly(bytes: &[u8], what: &str) {
    let Ok(aig) = aiger::parse_auto(bytes, "damaged") else {
        return;
    };
    if let Err(err) = aig.validate() {
        panic!("{what} decodes to an invalid AIG: {err}");
    }
    let _ = aiger::write_aag(&aig);
    if let Err(err) = aiger::write_aig(&aig) {
        panic!("{what} decodes to an AIG the binary writer rejects: {err}");
    }
}

/// A valid `.aag` and `.aig` of one random sequential AIG.
fn valid_files(seed: u64, inputs: usize, latches: usize, ands: usize) -> [Vec<u8>; 2] {
    let aig = aiger::random_aig(seed, inputs, latches, ands);
    let binary = aiger::write_aig(&aig).expect("valid aig serialises");
    [aiger::write_aag(&aig).into_bytes(), binary]
}

/// Every proper prefix of a valid file of either encoding fails cleanly or
/// decodes soundly (the symbol table and comment are optional).
#[test]
fn truncation_never_panics() {
    for file in valid_files(99, 3, 2, 12) {
        let magic = String::from_utf8_lossy(&file[..3]).into_owned();
        for cut in 0..file.len() {
            fails_or_decodes_soundly(&file[..cut], &format!("{cut}-byte prefix of {magic}"));
        }
    }
}

/// Flipping any byte of a valid file of either encoding fails cleanly or
/// decodes soundly (some corruptions are valid AIGER).
#[test]
fn single_byte_corruption_never_panics() {
    for file in valid_files(5, 2, 2, 10) {
        let magic = String::from_utf8_lossy(&file[..3]).into_owned();
        for pos in 0..file.len() {
            let mut corrupt = file.clone();
            corrupt[pos] ^= 0xff;
            fails_or_decodes_soundly(&corrupt, &format!("{magic} with byte {pos} flipped"));
        }
    }
}
