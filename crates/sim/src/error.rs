use std::fmt;

/// Errors produced by the logic simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The number of supplied input words does not match the number of
    /// sources of the circuit (its primary inputs and latch states).
    InputCountMismatch {
        /// Number of sources the circuit has.
        expected: usize,
        /// Number of input words supplied.
        got: usize,
    },
    /// The requested number of patterns is zero.
    NoPatterns,
    /// Exhaustive enumeration was requested for a circuit with too many
    /// sources.
    TooManyInputsForExact {
        /// Number of sources of the circuit.
        inputs: usize,
        /// Maximum supported for exhaustive enumeration.
        max: usize,
    },
    /// The circuit failed validation before simulation.
    InvalidCircuit(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InputCountMismatch { expected, got } => {
                write!(f, "expected {expected} input words, got {got}")
            }
            SimError::NoPatterns => write!(f, "at least one simulation pattern is required"),
            SimError::TooManyInputsForExact { inputs, max } => write!(
                f,
                "exhaustive enumeration supports at most {max} sources, circuit has {inputs}"
            ),
            SimError::InvalidCircuit(msg) => write!(f, "invalid circuit: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

impl SimError {
    /// A circuit's validation error as [`SimError::InvalidCircuit`].
    pub(crate) fn invalid(error: impl fmt::Display) -> Self {
        SimError::InvalidCircuit(error.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_traits() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
        assert!(SimError::NoPatterns.to_string().contains("pattern"));
        assert!(SimError::InputCountMismatch {
            expected: 3,
            got: 1
        }
        .to_string()
        .contains('3'));
    }
}
