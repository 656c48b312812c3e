//! Error type for simulation runs.

use std::error::Error;
use std::fmt;

use agile_core::PlanError;
use cluster::{ClusterError, VmId};

/// Errors returned by [`crate::SimulationBuilder`] runs.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The initial VM placement could not fit every VM onto the fleet
    /// (the scenario is oversubscribed on memory).
    InitialPlacement {
        /// The first VM that fit nowhere.
        vm: VmId,
    },
    /// An unrecoverable cluster error inside the event loop (indicates a
    /// bug — recoverable action failures are counted, not raised).
    Cluster(ClusterError),
    /// The trace output file could not be created.
    TraceIo {
        /// Where the sink was supposed to write.
        path: String,
        /// The OS error text (the `io::Error` itself is not `Clone`).
        message: String,
    },
    /// A scheduler refused the observation it was handed (indicates an
    /// engine bug: the engine observes the fleet its managers were built
    /// for).
    Plan(PlanError),
    /// The simulation was configured inconsistently — rejected by
    /// [`crate::SimulationBuilder::build`] before anything ran.
    InvalidConfig {
        /// What was wrong.
        message: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InitialPlacement { vm } => {
                write!(f, "initial placement failed: {vm} fits on no host")
            }
            SimError::Cluster(e) => write!(f, "cluster error during simulation: {e}"),
            SimError::Plan(e) => write!(f, "planning failed: {e}"),
            SimError::TraceIo { path, message } => {
                write!(f, "cannot open trace output {path}: {message}")
            }
            SimError::InvalidConfig { message } => {
                write!(f, "invalid simulation configuration: {message}")
            }
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Cluster(e) => Some(e),
            SimError::Plan(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ClusterError> for SimError {
    fn from(e: ClusterError) -> Self {
        SimError::Cluster(e)
    }
}

impl From<PlanError> for SimError {
    fn from(e: PlanError) -> Self {
        SimError::Plan(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        let e = SimError::InitialPlacement { vm: VmId(4) };
        assert!(e.to_string().contains("vm4"));
        let e: SimError = ClusterError::UnknownVm(VmId(1)).into();
        assert!(e.to_string().contains("vm1"));
        assert!(Error::source(&e).is_some());
        let e: SimError = PlanError::Shape {
            expected_hosts: 4,
            expected_vms: 16,
            actual_hosts: 3,
            actual_vms: 16,
        }
        .into();
        assert!(e.to_string().contains("3 hosts"), "{e}");
        assert!(Error::source(&e).is_some());
    }
}
