//! The serving layer's unified error type.
//!
//! Before this module existed, the client surfaced raw [`io::Error`]s
//! with stringly-typed prefixes ("server error: …"), stream parsing had
//! its own failure shape, and callers had to pattern-match message text
//! to tell a dead socket from a rejected query. [`ServerError`] folds
//! all of it into one taxonomy that plugs into the rest of the
//! workspace: model-layer faults keep their [`LmError`] classification
//! (so retry layers keep working), and everything converts into the
//! root [`lmql::Error`] for callers living at the query level.

use lmql_lm::LmError;
use std::fmt;
use std::io;

/// Any failure crossing the client–server boundary.
#[derive(Debug)]
pub enum ServerError {
    /// The socket died (dial failure, reset, EOF mid-frame).
    Io(io::Error),
    /// The peer sent bytes that don't parse as the protocol (a garbled
    /// frame, an unknown tag, a malformed streamed event).
    Protocol(String),
    /// A classified model-layer failure ([`LmError`] taxonomy: transient
    /// vs fatal vs cancelled), e.g. relayed by a `RETRY` frame.
    Model(LmError),
    /// The remote query itself failed (the server answered `ERR`): the
    /// wire worked, the query did not.
    Query(String),
}

impl ServerError {
    /// Whether retrying the whole operation may succeed (transport
    /// failures and transient model faults; protocol violations, fatal
    /// faults and query errors are not retryable).
    pub fn is_transient(&self) -> bool {
        match self {
            ServerError::Io(_) => true,
            ServerError::Protocol(_) | ServerError::Query(_) => false,
            ServerError::Model(e) => e.is_transient(),
        }
    }
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "server connection failed: {e}"),
            ServerError::Protocol(msg) => write!(f, "server protocol violation: {msg}"),
            ServerError::Model(e) => write!(f, "{e}"),
            ServerError::Query(msg) => write!(f, "remote query failed: {msg}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Io(e) => Some(e),
            ServerError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ServerError {
    fn from(e: io::Error) -> Self {
        ServerError::Io(e)
    }
}

impl From<LmError> for ServerError {
    fn from(e: LmError) -> Self {
        ServerError::Model(e)
    }
}

impl From<lmql::WireError> for ServerError {
    fn from(e: lmql::WireError) -> Self {
        ServerError::Protocol(e.to_string())
    }
}

/// Serving failures surface at the query level as the root error's
/// model-failure arm (the query was sound, the serving layer was not),
/// classed by whether a retry may succeed — except cancellation, which
/// keeps its own variant.
impl From<ServerError> for lmql::Error {
    fn from(e: ServerError) -> Self {
        use lmql::ModelErrorClass::{Fatal, Transient};
        match e {
            ServerError::Model(e) => e.into(),
            ServerError::Io(_) => lmql::Error::model(Transient, e.to_string()),
            ServerError::Protocol(_) | ServerError::Query(_) => {
                lmql::Error::model(Fatal, e.to_string())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmql_lm::FaultKind;

    #[test]
    fn display_and_source() {
        let e = ServerError::from(io::Error::new(io::ErrorKind::UnexpectedEof, "gone"));
        assert!(e.to_string().contains("gone"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.is_transient());

        let e = ServerError::Protocol("bad tag".into());
        assert!(e.to_string().contains("protocol"));
        assert!(!e.is_transient());
    }

    #[test]
    fn model_errors_keep_their_classification() {
        let e = ServerError::from(LmError::transient(FaultKind::Busy, "shed"));
        assert!(e.is_transient());
        let e = ServerError::from(LmError::fatal("no such model"));
        assert!(!e.is_transient());
    }

    #[test]
    fn converts_into_root_error() {
        let root: lmql::Error = ServerError::Query("bad query".into()).into();
        assert!(
            matches!(&root, lmql::Error::Model { message, .. } if message.contains("bad query"))
        );
        let root: lmql::Error = ServerError::Model(LmError::Cancelled).into();
        assert_eq!(root, lmql::Error::Cancelled);
    }
}
