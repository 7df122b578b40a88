use std::array;
use std::fmt;

/// The combinational gate alphabet supported by [`crate::Netlist`].
///
/// The alphabet covers the gate types found in the benchmark suites used by
/// the DeepGate paper (ITC'99, IWLS'05, EPFL, OpenCores) after technology
/// de-mapping: primary inputs, constants, buffers/inverters, the standard
/// 2+-input monotone and parity gates and a 2:1 multiplexer.
///
/// Word-level evaluation ([`GateKind::eval_words`]) operates on 64 parallel
/// Boolean patterns packed into a `u64`, which is the core primitive of the
/// bit-parallel logic simulator in `deepgate-sim`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GateKind {
    /// Primary input. No fan-ins.
    Input,
    /// Constant logic 0. No fan-ins.
    Const0,
    /// Constant logic 1. No fan-ins.
    Const1,
    /// Buffer: passes through its single fan-in.
    Buf,
    /// Inverter: negates its single fan-in.
    Not,
    /// N-input AND (N >= 1).
    And,
    /// N-input NAND (N >= 1).
    Nand,
    /// N-input OR (N >= 1).
    Or,
    /// N-input NOR (N >= 1).
    Nor,
    /// N-input XOR (odd parity, N >= 1).
    Xor,
    /// N-input XNOR (even parity, N >= 1).
    Xnor,
    /// 2:1 multiplexer: fan-ins are `[sel, a, b]`, output is `a` when
    /// `sel = 0` and `b` when `sel = 1`.
    Mux,
}

impl GateKind {
    /// All gate kinds, in a fixed order (useful for one-hot encodings and
    /// exhaustive tests).
    pub const ALL: [GateKind; 12] = [
        GateKind::Input,
        GateKind::Const0,
        GateKind::Const1,
        GateKind::Buf,
        GateKind::Not,
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Mux,
    ];

    /// Returns `true` if the kind represents a source node (no fan-ins).
    pub fn is_source(self) -> bool {
        matches!(self, GateKind::Input | GateKind::Const0 | GateKind::Const1)
    }

    /// Returns `true` if the kind is a real logic gate (has at least one
    /// fan-in).
    pub fn is_gate(self) -> bool {
        !self.is_source()
    }

    /// The inclusive range of fan-in counts accepted by this gate kind,
    /// returned as `(min, max)`. `max == usize::MAX` means unbounded.
    pub fn arity(self) -> (usize, usize) {
        match self {
            GateKind::Input | GateKind::Const0 | GateKind::Const1 => (0, 0),
            GateKind::Buf | GateKind::Not => (1, 1),
            GateKind::And
            | GateKind::Nand
            | GateKind::Or
            | GateKind::Nor
            | GateKind::Xor
            | GateKind::Xnor => (1, usize::MAX),
            GateKind::Mux => (3, 3),
        }
    }

    /// Returns `true` if `n` fan-ins is a legal fan-in count for this kind.
    pub fn accepts_arity(self, n: usize) -> bool {
        let (lo, hi) = self.arity();
        n >= lo && n <= hi
    }

    /// Short lowercase mnemonic used by the BENCH writer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            GateKind::Input => "input",
            GateKind::Const0 => "const0",
            GateKind::Const1 => "const1",
            GateKind::Buf => "buf",
            GateKind::Not => "not",
            GateKind::And => "and",
            GateKind::Nand => "nand",
            GateKind::Or => "or",
            GateKind::Nor => "nor",
            GateKind::Xor => "xor",
            GateKind::Xnor => "xnor",
            GateKind::Mux => "mux",
        }
    }

    /// Parses a BENCH-style mnemonic (case insensitive). Returns `None` for
    /// unknown names.
    pub fn from_mnemonic(s: &str) -> Option<GateKind> {
        let lower = s.to_ascii_lowercase();
        Some(match lower.as_str() {
            "input" => GateKind::Input,
            "const0" | "gnd" | "zero" => GateKind::Const0,
            "const1" | "vdd" | "one" => GateKind::Const1,
            "buf" | "buff" => GateKind::Buf,
            "not" | "inv" => GateKind::Not,
            "and" => GateKind::And,
            "nand" => GateKind::Nand,
            "or" => GateKind::Or,
            "nor" => GateKind::Nor,
            "xor" => GateKind::Xor,
            "xnor" => GateKind::Xnor,
            "mux" => GateKind::Mux,
            _ => return None,
        })
    }

    /// Evaluates the gate over 64 packed Boolean patterns per fan-in, read
    /// in argument order from `inputs`.
    ///
    /// # Panics
    ///
    /// Panics if the number of words is not a legal arity for this kind (see
    /// [`GateKind::arity`]) or the kind is [`GateKind::Input`]; netlist
    /// construction validates arities so this only triggers on misuse of the
    /// raw evaluation API.
    pub fn eval_words<I>(self, inputs: I) -> u64
    where
        I: IntoIterator<Item = u64>,
        I::IntoIter: ExactSizeIterator,
    {
        let inputs = inputs.into_iter();
        assert!(
            self.accepts_arity(inputs.len()),
            "gate kind {self} cannot take {} fan-ins",
            inputs.len()
        );
        let [word] = self.eval_lanes(inputs.map(|word| [word]));
        word
    }

    /// [`GateKind::eval_words`] over `W` lanes of words per fan-in at once:
    /// lane `l` of the result is the gate over lane `l` of every fan-in. The
    /// arity is the caller's to have checked, as
    /// [`WordProgram::gate`](crate::WordProgram::gate) does when it builds
    /// the op.
    pub(crate) fn eval_lanes<const W: usize>(
        self,
        mut inputs: impl Iterator<Item = [u64; W]>,
    ) -> [u64; W] {
        fn fold<const W: usize>(
            inputs: impl Iterator<Item = [u64; W]>,
            init: u64,
            op: impl Fn(u64, u64) -> u64,
        ) -> [u64; W] {
            inputs.fold([init; W], |acc, w| array::from_fn(|l| op(acc[l], w[l])))
        }
        let not = |w: [u64; W]| w.map(|x| !x);
        let mut next = || inputs.next().expect("arity checked");
        match self {
            GateKind::Input => panic!("primary inputs have no evaluation"),
            GateKind::Const0 => [0; W],
            GateKind::Const1 => [u64::MAX; W],
            GateKind::Buf => next(),
            GateKind::Not => not(next()),
            GateKind::Mux => {
                let (sel, a, b) = (next(), next(), next());
                array::from_fn(|l| (!sel[l] & a[l]) | (sel[l] & b[l]))
            }
            GateKind::And => fold(inputs, u64::MAX, |acc, w| acc & w),
            GateKind::Nand => not(fold(inputs, u64::MAX, |acc, w| acc & w)),
            GateKind::Or => fold(inputs, 0, |acc, w| acc | w),
            GateKind::Nor => not(fold(inputs, 0, |acc, w| acc | w)),
            GateKind::Xor => fold(inputs, 0, |acc, w| acc ^ w),
            GateKind::Xnor => not(fold(inputs, 0, |acc, w| acc ^ w)),
        }
    }

    /// Index of this kind inside [`GateKind::ALL`], used for one-hot feature
    /// encodings in the "without AIG transformation" experiments (Table IV).
    pub fn one_hot_index(self) -> usize {
        GateKind::ALL
            .iter()
            .position(|&k| k == self)
            .expect("kind present in ALL")
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_checks() {
        assert!(GateKind::Not.accepts_arity(1));
        assert!(!GateKind::Not.accepts_arity(2));
        assert!(GateKind::And.accepts_arity(5));
        assert!(!GateKind::And.accepts_arity(0));
        assert!(GateKind::Mux.accepts_arity(3));
        assert!(!GateKind::Mux.accepts_arity(2));
        assert!(GateKind::Input.accepts_arity(0));
        assert!(!GateKind::Input.accepts_arity(1));
    }

    /// Patterns 0..4 of two fan-ins: `a` = 0101, `b` = 0011 (bit 0 first).
    const A: u64 = 0b1010;
    const B: u64 = 0b1100;

    /// The four low bits of a two-input gate's word over `A` and `B`: its
    /// truth table, pattern `i` in bit `i`.
    fn table2(kind: GateKind) -> u64 {
        kind.eval_words([A, B]) & 0b1111
    }

    #[test]
    fn word_truth_tables_two_input() {
        assert_eq!(table2(GateKind::And), 0b1000);
        assert_eq!(table2(GateKind::Nand), 0b0111);
        assert_eq!(table2(GateKind::Or), 0b1110);
        assert_eq!(table2(GateKind::Nor), 0b0001);
        assert_eq!(table2(GateKind::Xor), 0b0110);
        assert_eq!(table2(GateKind::Xnor), 0b1001);
    }

    #[test]
    fn mux_selects_correct_branch() {
        // sel=0 -> first data input, sel=1 -> second data input. Over all
        // eight patterns (sel = bit 0, a = bit 1, b = bit 2 of the index):
        // output = a for indices 0, 2, 4, 6 and b for 1, 3, 5, 7.
        let (sel, a, b) = (0b1010_1010, 0b1100_1100, 0b1111_0000);
        assert_eq!(GateKind::Mux.eval_words([sel, a, b]) & 0xFF, 0b1110_0100);
        assert_eq!(GateKind::Mux.eval_words([0, 0xAAAA, 0x5555]), 0xAAAA);
        assert_eq!(GateKind::Mux.eval_words([u64::MAX, 0xAAAA, 0x5555]), 0x5555);
    }

    #[test]
    fn constants_and_inverter() {
        assert_eq!(GateKind::Const0.eval_words([]), 0);
        assert_eq!(GateKind::Const1.eval_words([]), u64::MAX);
        assert_eq!(GateKind::Not.eval_words([0]), u64::MAX);
        assert_eq!(GateKind::Buf.eval_words([42]), 42);
    }

    #[test]
    fn mnemonic_roundtrip() {
        for kind in GateKind::ALL {
            assert_eq!(GateKind::from_mnemonic(kind.mnemonic()), Some(kind));
        }
        assert_eq!(GateKind::from_mnemonic("INV"), Some(GateKind::Not));
        assert_eq!(GateKind::from_mnemonic("BUFF"), Some(GateKind::Buf));
        assert_eq!(GateKind::from_mnemonic("noise"), None);
    }

    #[test]
    fn one_hot_indices_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for kind in GateKind::ALL {
            assert!(seen.insert(kind.one_hot_index()));
        }
        assert_eq!(seen.len(), GateKind::ALL.len());
    }

    #[test]
    #[should_panic(expected = "cannot take")]
    fn eval_with_bad_arity_panics() {
        GateKind::Not.eval_words([1, 0]);
    }

    #[test]
    fn multi_input_parity() {
        assert_eq!(GateKind::Xor.eval_words([1, 1, 1]), 1);
        assert_eq!(GateKind::Xor.eval_words([1, 1, 0, 0]), 0);
        assert_eq!(GateKind::Xnor.eval_words([1, 1, 1]) & 1, 0);
    }
}
