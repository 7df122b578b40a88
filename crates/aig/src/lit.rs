use std::fmt;

/// A literal: a reference to an AIG node together with a complement bit.
///
/// The encoding follows the AIGER convention: `2 * node_index + complement`.
/// Node 0 is the constant-false node, so [`AigLit::FALSE`] is literal `0` and
/// [`AigLit::TRUE`] is literal `1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct AigLit(u32);

impl AigLit {
    /// The constant-false literal (node 0, not complemented).
    pub const FALSE: AigLit = AigLit(0);
    /// The constant-true literal (node 0, complemented).
    pub const TRUE: AigLit = AigLit(1);

    /// Creates a literal from a node index and a complement flag.
    pub fn new(node: usize, complement: bool) -> Self {
        AigLit(((node as u32) << 1) | complement as u32)
    }

    /// Creates a positive (non-complemented) literal for a node.
    pub fn positive(node: usize) -> Self {
        AigLit::new(node, false)
    }

    /// The index of the referenced node.
    pub fn node(self) -> usize {
        (self.0 >> 1) as usize
    }

    /// Whether the literal is complemented.
    pub fn is_complemented(self) -> bool {
        self.0 & 1 == 1
    }

    /// The same literal with the complement bit flipped.
    #[must_use]
    pub fn complement(self) -> Self {
        AigLit(self.0 ^ 1)
    }

    /// The same literal with the complement bit set to `value`.
    #[must_use]
    pub fn with_complement(self, value: bool) -> Self {
        AigLit((self.0 & !1) | value as u32)
    }

    /// The raw AIGER literal value (`2 * node + complement`).
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Builds a literal from a raw AIGER value.
    pub fn from_raw(raw: u32) -> Self {
        AigLit(raw)
    }

    /// Returns `true` if this literal refers to the constant node.
    pub fn is_constant(self) -> bool {
        self.node() == 0
    }
}

impl fmt::Display for AigLit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_complemented() {
            write!(f, "!{}", self.node())
        } else {
            write!(f, "{}", self.node())
        }
    }
}

impl std::ops::Not for AigLit {
    type Output = AigLit;

    fn not(self) -> AigLit {
        self.complement()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants() {
        assert_eq!(AigLit::FALSE.node(), 0);
        assert!(!AigLit::FALSE.is_complemented());
        assert_eq!(AigLit::TRUE.node(), 0);
        assert!(AigLit::TRUE.is_complemented());
        assert!(AigLit::TRUE.is_constant());
        assert_eq!(!AigLit::FALSE, AigLit::TRUE);
    }

    #[test]
    fn encode_decode() {
        let l = AigLit::new(17, true);
        assert_eq!(l.node(), 17);
        assert!(l.is_complemented());
        assert_eq!(l.raw(), 35);
        assert_eq!(AigLit::from_raw(35), l);
        assert_eq!(l.complement().complement(), l);
        assert_eq!(l.with_complement(false), AigLit::positive(17));
        assert_eq!(AigLit::positive(17).to_string(), "17");
        assert_eq!(l.to_string(), "!17");
    }

    #[test]
    fn default_is_false() {
        assert_eq!(AigLit::default(), AigLit::FALSE);
    }
}
