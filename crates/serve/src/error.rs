//! The error surface of the serving front-end.

use std::fmt;

use feather_arch::ArchError;

/// Why a request was rejected, dropped, or failed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// Admission control refused the request: the submitting tenant's queue
    /// already holds `depth` requests.
    QueueFull {
        /// The configured per-tenant queue depth the request bounced off.
        depth: usize,
    },
    /// The request's deadline expired while it was still queued.
    Timeout,
    /// The request was cancelled (explicitly via `Ticket::cancel`, or by
    /// dropping its `Ticket`) before an executor picked it up.
    Cancelled,
    /// The server is shutting down (or has shut down) and no longer accepts
    /// requests.
    Shutdown,
    /// No model is registered under the requested name.
    UnknownModel(String),
    /// The request tensor (or a registered graph) has the wrong shape, or a
    /// model name is registered a second time.
    BadInput(String),
    /// The executor failed while running the batch this request was part of.
    Exec(ArchError),
    /// The request failed after exhausting its retry budget (worker panic or
    /// repeated transient executor failure).
    Failed(String),
    /// The model's circuit breaker is open: recent executions kept failing,
    /// so requests fast-fail until a half-open probe succeeds.
    Unavailable {
        /// The model whose breaker rejected the request.
        model: String,
    },
    /// The server is in overload brownout and the request's deadline is
    /// already infeasible given the current backlog, so it was shed at
    /// admission instead of timing out in the queue.
    Overloaded,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::QueueFull { depth } => {
                write!(f, "request rejected: queue is at capacity ({depth})")
            }
            ServeError::Timeout => write!(f, "request timed out before being scheduled"),
            ServeError::Cancelled => write!(f, "request was cancelled before execution"),
            ServeError::Shutdown => write!(f, "server is shut down"),
            ServeError::UnknownModel(name) => write!(f, "no model registered as `{name}`"),
            ServeError::BadInput(msg) => write!(f, "bad input: {msg}"),
            ServeError::Exec(e) => write!(f, "execution failed: {e}"),
            ServeError::Failed(msg) => write!(f, "request failed after retries: {msg}"),
            ServeError::Unavailable { model } => {
                write!(f, "model `{model}` is unavailable (circuit breaker open)")
            }
            ServeError::Overloaded => {
                write!(f, "request shed: server overloaded and deadline infeasible")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Exec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ArchError> for ServeError {
    fn from(e: ArchError) -> Self {
        ServeError::Exec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_specific() {
        let errors = [
            ServeError::QueueFull { depth: 4 },
            ServeError::Timeout,
            ServeError::Cancelled,
            ServeError::Shutdown,
            ServeError::UnknownModel("resnet".into()),
            ServeError::BadInput("shape".into()),
            ServeError::Exec(ArchError::InvalidWorkload("zero".into())),
            ServeError::Failed("worker panicked".into()),
            ServeError::Unavailable {
                model: "resnet".into(),
            },
            ServeError::Overloaded,
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
        assert!(ServeError::QueueFull { depth: 4 }.to_string().contains('4'));
        assert!(ServeError::UnknownModel("resnet".into())
            .to_string()
            .contains("resnet"));
        assert!(ServeError::Unavailable {
            model: "resnet".into()
        }
        .to_string()
        .contains("resnet"));
        assert!(ServeError::Failed("panicked".into())
            .to_string()
            .contains("panicked"));
    }
}
