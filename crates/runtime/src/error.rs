//! Error type for the protocol executor and the drift-tracking loop.

use std::fmt;

/// Errors produced while executing the protocol.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RuntimeError {
    /// A configuration parameter was invalid.
    InvalidParameter(String),
    /// A local objective evaluation failed at an agent.
    Objective {
        /// The agent whose evaluation failed.
        agent: usize,
        /// The underlying reason.
        reason: String,
    },
    /// A drift-tracking epoch could not be built or solved.
    Drift {
        /// The epoch that failed.
        epoch: usize,
        /// What went wrong.
        reason: String,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            RuntimeError::Objective { agent, reason } => {
                write!(f, "objective evaluation failed at agent {agent}: {reason}")
            }
            RuntimeError::Drift { epoch, reason } => {
                write!(f, "drift tracking failed at epoch {epoch}: {reason}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = RuntimeError::Objective { agent: 3, reason: "unstable".into() };
        assert!(e.to_string().contains("agent 3"));
    }

    #[test]
    fn error_is_send_sync_static() {
        fn assert_bounds<T: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<RuntimeError>();
    }
}
