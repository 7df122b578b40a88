//! The crate-spanning error type of the `deepgate` facade.

use std::fmt;

/// Any error a DeepGate pipeline can produce, from netlist parsing through
/// AIG mapping, simulation labelling, training and checkpointing.
///
/// Every public entry point of the facade returns `Result<_, DeepGateError>`;
/// the `From` impls below let `?` lift the per-crate error types, so user
/// code handles one error enum regardless of which stage failed.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DeepGateError {
    /// Netlist construction or BENCH parsing failed.
    Netlist(deepgate_netlist::NetlistError),
    /// AIG mapping, optimisation or AIGER parsing failed.
    Aig(deepgate_aig::AigError),
    /// Logic simulation / labelling failed.
    Sim(deepgate_sim::SimError),
    /// Checkpoint (de)serialisation or parameter loading failed.
    Nn(deepgate_nn::NnError),
    /// A model/circuit compatibility or labelling problem.
    Gnn(deepgate_gnn::GnnError),
    /// A file could not be read or written.
    Io {
        /// Path of the offending file.
        path: String,
        /// Operating-system error message.
        message: String,
    },
    /// An [`crate::EngineBuilder`] was configured inconsistently.
    Config(String),
    /// A batch operation was handed no circuits.
    EmptyBatch,
}

impl fmt::Display for DeepGateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeepGateError::Netlist(e) => write!(f, "netlist error: {e}"),
            DeepGateError::Aig(e) => write!(f, "aig error: {e}"),
            DeepGateError::Sim(e) => write!(f, "simulation error: {e}"),
            DeepGateError::Nn(e) => write!(f, "checkpoint error: {e}"),
            DeepGateError::Gnn(e) => write!(f, "model error: {e}"),
            DeepGateError::Io { path, message } => write!(f, "io error on `{path}`: {message}"),
            DeepGateError::Config(msg) => write!(f, "invalid engine configuration: {msg}"),
            DeepGateError::EmptyBatch => write!(f, "batch contains no circuits"),
        }
    }
}

impl std::error::Error for DeepGateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DeepGateError::Netlist(e) => Some(e),
            DeepGateError::Aig(e) => Some(e),
            DeepGateError::Sim(e) => Some(e),
            DeepGateError::Nn(e) => Some(e),
            DeepGateError::Gnn(e) => Some(e),
            _ => None,
        }
    }
}

impl From<deepgate_netlist::NetlistError> for DeepGateError {
    fn from(e: deepgate_netlist::NetlistError) -> Self {
        DeepGateError::Netlist(e)
    }
}

impl From<deepgate_aig::AigError> for DeepGateError {
    fn from(e: deepgate_aig::AigError) -> Self {
        DeepGateError::Aig(e)
    }
}

impl From<deepgate_sim::SimError> for DeepGateError {
    fn from(e: deepgate_sim::SimError) -> Self {
        DeepGateError::Sim(e)
    }
}

impl From<deepgate_nn::NnError> for DeepGateError {
    fn from(e: deepgate_nn::NnError) -> Self {
        DeepGateError::Nn(e)
    }
}

impl From<deepgate_gnn::GnnError> for DeepGateError {
    fn from(e: deepgate_gnn::GnnError) -> Self {
        DeepGateError::Gnn(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_impls_and_display() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DeepGateError>();

        let e: DeepGateError = deepgate_netlist::NetlistError::UnknownNode(3).into();
        assert!(matches!(e, DeepGateError::Netlist(_)));
        assert!(e.to_string().contains("netlist"));

        let e: DeepGateError = deepgate_sim::SimError::NoPatterns.into();
        assert!(matches!(e, DeepGateError::Sim(_)));

        let e: DeepGateError = deepgate_nn::NnError::MissingParameter("w".into()).into();
        assert!(matches!(e, DeepGateError::Nn(_)));

        let e: DeepGateError =
            deepgate_gnn::GnnError::UnlabelledCircuit { name: "c".into() }.into();
        assert!(matches!(e, DeepGateError::Gnn(_)));
        assert!(std::error::Error::source(&e).is_some());

        let e: DeepGateError = deepgate_aig::AigError::UnknownNode(1).into();
        assert!(matches!(e, DeepGateError::Aig(_)));

        assert!(DeepGateError::EmptyBatch.to_string().contains("batch"));
    }
}
