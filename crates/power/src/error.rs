//! Error types for power-state operations and model configuration.

use std::error::Error;
use std::fmt;

use simcore::SimTime;

use crate::{PowerState, TransitionKind};

/// A rejected model-configuration value, returned by
/// [`crate::HostPowerProfile::try_validate`] and
/// [`crate::DvfsModel::try_validate`] (the constructors and setters only
/// store). Mirrors `agile_core::ConfigError`, which this crate cannot
/// depend on.
///
/// Marked `#[non_exhaustive]`: more variants may appear as the models
/// grow validation, so downstream matches need a wildcard arm.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A scalar parameter is outside its allowed range.
    OutOfRange {
        /// Which parameter was rejected.
        field: &'static str,
        /// The rejected value.
        value: f64,
        /// The constraint it violated, e.g. `"must be finite and >= 0"`.
        constraint: &'static str,
    },
    /// A structural constraint failed (empty ladder, unordered levels, …).
    Invalid {
        /// What was wrong, as a complete sentence fragment.
        message: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::OutOfRange {
                field,
                value,
                constraint,
            } => write!(f, "{field} {value} {constraint}"),
            ConfigError::Invalid { message } => write!(f, "{message}"),
        }
    }
}

impl Error for ConfigError {}

/// Errors returned by [`crate::PowerStateMachine`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PowerError {
    /// The requested transition cannot start from the current state
    /// (e.g. `Suspend` while already `Suspended`, or while mid-transition).
    InvalidTransition {
        /// State the machine was in when the transition was requested.
        from: PowerState,
        /// The transition that was requested.
        kind: TransitionKind,
    },
    /// The host's power profile does not implement the requested transition
    /// (e.g. a legacy server without working suspend-to-RAM).
    UnsupportedTransition(TransitionKind),
    /// `complete` was called but no transition is in flight.
    NotTransitioning,
    /// `complete` was called at a different instant than the transition's
    /// scheduled completion time — an event-scheduling bug in the caller.
    CompletionTimeMismatch {
        /// When the in-flight transition is due to complete.
        expected: SimTime,
        /// When `complete` was actually called.
        actual: SimTime,
    },
}

impl fmt::Display for PowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PowerError::InvalidTransition { from, kind } => {
                write!(f, "cannot start {kind} transition from state {from}")
            }
            PowerError::UnsupportedTransition(kind) => {
                write!(f, "power profile does not support {kind}")
            }
            PowerError::NotTransitioning => write!(f, "no transition in flight"),
            PowerError::CompletionTimeMismatch { expected, actual } => write!(
                f,
                "transition completes at {expected}, but complete() was called at {actual}"
            ),
        }
    }
}

impl Error for PowerError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = PowerError::InvalidTransition {
            from: PowerState::Suspended,
            kind: TransitionKind::Suspend,
        };
        assert!(e.to_string().contains("suspend"));
        assert!(e.to_string().contains("Suspended"));
        let e = PowerError::CompletionTimeMismatch {
            expected: SimTime::from_secs(10),
            actual: SimTime::from_secs(11),
        };
        assert!(e.to_string().contains("10s"));
    }
}
