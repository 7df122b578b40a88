use std::fmt;

/// Errors produced while constructing or parsing netlists.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetlistError {
    /// A gate was created with a fan-in count that its [`crate::GateKind`]
    /// does not accept (e.g. a `NOT` gate with two fan-ins).
    ArityMismatch {
        /// The offending gate kind.
        kind: &'static str,
        /// Number of fan-ins that were supplied.
        got: usize,
    },
    /// A referenced node id does not exist in the netlist.
    UnknownNode(usize),
    /// A signal name read by a gate or an output of a BENCH netlist is never
    /// defined, or only on a combinational cycle.
    UndefinedSignal(String),
    /// A signal name of a BENCH netlist is defined twice.
    DuplicateSignal(String),
    /// The BENCH text could not be parsed at the given line.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
    /// Adding the edge would create a combinational cycle.
    Cycle {
        /// Source node of the offending edge.
        from: usize,
        /// Destination node of the offending edge.
        to: usize,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::ArityMismatch { kind, got } => {
                write!(f, "gate kind {kind} cannot take {got} fan-ins")
            }
            NetlistError::UnknownNode(id) => write!(f, "unknown node id {id}"),
            NetlistError::UndefinedSignal(name) => {
                write!(f, "signal `{name}` referenced but never defined")
            }
            NetlistError::DuplicateSignal(name) => write!(f, "signal `{name}` defined twice"),
            NetlistError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            NetlistError::Cycle { from, to } => {
                write!(f, "edge {from} -> {to} would create a combinational cycle")
            }
        }
    }
}

impl std::error::Error for NetlistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase_start() {
        let cases = [
            NetlistError::ArityMismatch {
                kind: "Not",
                got: 2,
            },
            NetlistError::UnknownNode(3),
            NetlistError::UndefinedSignal("x".into()),
            NetlistError::DuplicateSignal("y".into()),
            NetlistError::Parse {
                line: 4,
                message: "bad token".into(),
            },
            NetlistError::Cycle { from: 1, to: 2 },
        ];
        for c in cases {
            let s = c.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase() || s.starts_with("gate"));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NetlistError>();
    }
}
