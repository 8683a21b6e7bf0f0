//! Runtime errors.

use lmql_syntax::{Span, SyntaxError};
use std::fmt;

/// An error raised while compiling or executing an LMQL query.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The query failed to parse.
    Syntax(SyntaxError),
    /// The query is well-formed but violates a static rule (e.g. the
    /// `distribute` variable is not the last hole).
    Compile { message: String, span: Span },
    /// Evaluation failed (type error, unknown variable, bad call, …).
    Eval { message: String, span: Span },
    /// Decoding could not produce a constraint-satisfying value: every
    /// next token was masked out and EOS was inadmissible (Alg. 2's
    /// `⋀ᵢ mᵢ = 0` exit without a legal decoding).
    NoValidContinuation { var: String },
    /// An external (user-registered) function failed.
    External { name: String, message: String },
    /// The language model behind the query failed (a remote backend
    /// died, a retry budget ran out). The query is sound — the serving
    /// layer was not. `class` says how: serving layers act on it (fail
    /// over, back-pressure, `RETRY` vs `ERR`) instead of reading the
    /// message.
    Model {
        message: String,
        class: ModelErrorClass,
    },
    /// The query was cancelled cooperatively (a dropped stream handle, a
    /// disconnected client) before it could finish.
    Cancelled,
}

/// What kind of serving failure an [`Error::Model`] is — the one thing
/// the layers above the runtime act on. Carried beside the message, never
/// recovered from it (a tool's error text may say anything).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelErrorClass {
    /// A retryable backend fault that outlived its retry budget: another
    /// replica, or a later attempt, may succeed.
    Transient,
    /// Retrying would fail identically (protocol violation, bad request).
    Fatal,
    /// A model call ran past its deadline: slow, not broken — it would
    /// expire the same way anywhere.
    Deadline,
    /// Shed at admission: back-pressure, not a replica failure.
    Shed,
    /// The query's worker panicked and was fenced off. A property of the
    /// query, not of a replica: it is neither retried elsewhere nor
    /// charged to a breaker.
    Panic,
}

impl Error {
    /// Helper for model-layer errors.
    pub fn model(class: ModelErrorClass, message: impl Into<String>) -> Self {
        Error::Model {
            message: message.into(),
            class,
        }
    }

    /// Helper for evaluation errors.
    pub fn eval(message: impl Into<String>, span: Span) -> Self {
        Error::Eval {
            message: message.into(),
            span,
        }
    }

    /// Helper for compile errors.
    pub fn compile(message: impl Into<String>, span: Span) -> Self {
        Error::Compile {
            message: message.into(),
            span,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Syntax(e) => write!(f, "{e}"),
            Error::Compile { message, span } => {
                write!(f, "compile error at {span}: {message}")
            }
            Error::Eval { message, span } => write!(f, "runtime error at {span}: {message}"),
            Error::NoValidContinuation { var } => write!(
                f,
                "no valid continuation for hole `{var}`: all next tokens violate the constraints"
            ),
            Error::External { name, message } => {
                write!(f, "external function `{name}` failed: {message}")
            }
            Error::Model { message, .. } => write!(f, "model failure: {message}"),
            Error::Cancelled => f.write_str("query cancelled"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Syntax(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SyntaxError> for Error {
    fn from(e: SyntaxError) -> Self {
        Error::Syntax(e)
    }
}

/// Model-layer failures surface as [`Error::Model`] carrying the
/// taxonomy's class (and its rendering — "transient model error (…)",
/// "fatal model error: …" — as the message); cancellation keeps its own
/// variant so callers can tell "the consumer left" from "the backend
/// broke".
impl From<lmql_lm::LmError> for Error {
    fn from(e: lmql_lm::LmError) -> Self {
        use lmql_lm::LmError;
        let class = match e {
            LmError::Cancelled => return Error::Cancelled,
            LmError::Transient { .. } => ModelErrorClass::Transient,
            LmError::Fatal { .. } => ModelErrorClass::Fatal,
            LmError::DeadlineExceeded { .. } => ModelErrorClass::Deadline,
        };
        Error::model(class, e.to_string())
    }
}

/// Result alias for runtime operations.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;
    use lmql_syntax::Pos;

    #[test]
    fn display_variants() {
        let e = Error::eval("bad value", Span::at(Pos::new(1, 2)));
        assert!(e.to_string().contains("runtime error at 1:2"));
        let e = Error::NoValidContinuation { var: "X".into() };
        assert!(e.to_string().contains("`X`"));
        assert!(Error::Cancelled.to_string().contains("cancelled"));
    }

    #[test]
    fn lm_errors_convert_preserving_class() {
        let e: Error = lmql_lm::LmError::fatal("bad vocab").into();
        assert!(
            matches!(&e, Error::Model { message, class: ModelErrorClass::Fatal }
            if message.contains("fatal"))
        );
        let e: Error = lmql_lm::LmError::transient(lmql_lm::FaultKind::Timeout, "slow").into();
        assert!(
            matches!(&e, Error::Model { message, class: ModelErrorClass::Transient }
            if message.contains("transient"))
        );
        let e: Error = lmql_lm::LmError::DeadlineExceeded {
            deadline: std::time::Duration::from_millis(5),
        }
        .into();
        assert!(matches!(
            e,
            Error::Model {
                class: ModelErrorClass::Deadline,
                ..
            }
        ));
        assert_eq!(Error::from(lmql_lm::LmError::Cancelled), Error::Cancelled);
    }
}
