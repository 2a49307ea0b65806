//! Error types shared by every layer of the middleware.
//!
//! Two families exist:
//!
//! * [`WireError`] — local failures while encoding or decoding frames.
//! * [`RemoteError`] — an error that crossed (or would cross) the network:
//!   application exceptions thrown by remote methods, middleware faults and
//!   transport failures. `RemoteError` is the Rust analogue of Java's
//!   `RemoteException` plus the application exception it may wrap.

use std::error::Error;
use std::fmt;

/// A failure while encoding or decoding wire data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before a complete item could be decoded.
    UnexpectedEof {
        /// What was being decoded when input ran out.
        context: &'static str,
    },
    /// An unknown tag byte was encountered.
    UnknownTag {
        /// What kind of item was being decoded.
        context: &'static str,
        /// The offending tag value.
        tag: u8,
    },
    /// A varint was longer than the maximum permitted width.
    VarintOverflow,
    /// A string field did not contain valid UTF-8.
    InvalidUtf8,
    /// A length prefix exceeded the configured sanity limit.
    LengthLimitExceeded {
        /// The declared length.
        declared: u64,
        /// The maximum allowed.
        limit: u64,
    },
    /// `List`/`Record` values nested deeper than the decoder's limit
    /// ([`MAX_DEPTH`](crate::codec::MAX_DEPTH)).
    TooDeep {
        /// The maximum nesting depth allowed.
        limit: usize,
    },
    /// Trailing bytes remained after a complete item was decoded.
    TrailingBytes {
        /// Number of unconsumed bytes.
        remaining: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof { context } => {
                write!(f, "unexpected end of input while decoding {context}")
            }
            WireError::UnknownTag { context, tag } => {
                write!(f, "unknown tag {tag:#04x} while decoding {context}")
            }
            WireError::VarintOverflow => write!(f, "varint exceeds 64 bits"),
            WireError::InvalidUtf8 => write!(f, "string field is not valid utf-8"),
            WireError::LengthLimitExceeded { declared, limit } => {
                write!(f, "declared length {declared} exceeds limit {limit}")
            }
            WireError::TooDeep { limit } => {
                write!(f, "value nests deeper than the limit of {limit} levels")
            }
            WireError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after decoded item")
            }
        }
    }
}

impl Error for WireError {}

/// Classifies a [`RemoteError`] so policies and handlers can react without
/// string matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RemoteErrorKind {
    /// An exception thrown by the remote application method.
    Application,
    /// The target object was not found in the server's object table.
    NoSuchObject,
    /// The target object does not implement the requested method.
    NoSuchMethod,
    /// Arguments could not be converted to the server method's parameter
    /// types.
    BadArguments,
    /// A name was not bound in the registry.
    NotBound,
    /// A name was already bound in the registry.
    AlreadyBound,
    /// The call (or an argument it needs) depends on an earlier batched call
    /// that failed, so it was never executed.
    Skipped,
    /// Failure in the transport or connection layer.
    Transport,
    /// Encoding or decoding failed on either side.
    Marshal,
    /// The middleware rejected a malformed or out-of-order request
    /// (e.g. an unknown batch session).
    Protocol,
    /// The server shed this connection or request under overload instead
    /// of queueing it (admission control). Explicitly error-coded so
    /// clients distinguish graceful shedding from a timeout; safe to retry
    /// later against a less-loaded server.
    Overloaded,
    /// A keyed retry asked for a reply the origin's reply cache had
    /// already LRU-evicted (before the client acked it). The call may
    /// have executed, so re-running it could execute twice — the origin
    /// answers with this visible error instead. Distinct from
    /// [`RemoteErrorKind::Protocol`] so clients and relays can recognise
    /// "resize the cache or ack faster" without string matching.
    ReplyEvicted,
}

impl RemoteErrorKind {
    /// Stable wire name for this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            RemoteErrorKind::Application => "application",
            RemoteErrorKind::NoSuchObject => "no-such-object",
            RemoteErrorKind::NoSuchMethod => "no-such-method",
            RemoteErrorKind::BadArguments => "bad-arguments",
            RemoteErrorKind::NotBound => "not-bound",
            RemoteErrorKind::AlreadyBound => "already-bound",
            RemoteErrorKind::Skipped => "skipped",
            RemoteErrorKind::Transport => "transport",
            RemoteErrorKind::Marshal => "marshal",
            RemoteErrorKind::Protocol => "protocol",
            RemoteErrorKind::Overloaded => "overloaded",
            RemoteErrorKind::ReplyEvicted => "reply-evicted",
        }
    }

    /// Parses a wire name produced by [`RemoteErrorKind::as_str`].
    pub fn from_wire(name: &str) -> Option<Self> {
        Some(match name {
            "application" => RemoteErrorKind::Application,
            "no-such-object" => RemoteErrorKind::NoSuchObject,
            "no-such-method" => RemoteErrorKind::NoSuchMethod,
            "bad-arguments" => RemoteErrorKind::BadArguments,
            "not-bound" => RemoteErrorKind::NotBound,
            "already-bound" => RemoteErrorKind::AlreadyBound,
            "skipped" => RemoteErrorKind::Skipped,
            "transport" => RemoteErrorKind::Transport,
            "marshal" => RemoteErrorKind::Marshal,
            "protocol" => RemoteErrorKind::Protocol,
            "overloaded" => RemoteErrorKind::Overloaded,
            "reply-evicted" => RemoteErrorKind::ReplyEvicted,
            _ => return None,
        })
    }
}

impl fmt::Display for RemoteErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An error raised by, or on the way to, a remote object.
///
/// Application exceptions carry an `exception` name (the analogue of the Java
/// exception class name, e.g. `"FileNotFoundException"`) which exception
/// policies match on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteError {
    kind: RemoteErrorKind,
    exception: String,
    message: String,
}

impl RemoteError {
    /// Creates an error of the given kind. The `exception` name for
    /// non-application kinds is the kind's wire name.
    pub fn new(kind: RemoteErrorKind, message: impl Into<String>) -> Self {
        RemoteError {
            kind,
            exception: kind.as_str().to_owned(),
            message: message.into(),
        }
    }

    /// Creates an application exception with an explicit exception name,
    /// mirroring a named Java exception class.
    pub fn application(exception: impl Into<String>, message: impl Into<String>) -> Self {
        RemoteError {
            kind: RemoteErrorKind::Application,
            exception: exception.into(),
            message: message.into(),
        }
    }

    /// Creates a transport-layer failure.
    pub fn transport(message: impl Into<String>) -> Self {
        Self::new(RemoteErrorKind::Transport, message)
    }

    /// Creates a marshalling failure.
    pub fn marshal(message: impl Into<String>) -> Self {
        Self::new(RemoteErrorKind::Marshal, message)
    }

    /// Creates an overload-shed rejection (admission control).
    pub fn overloaded(message: impl Into<String>) -> Self {
        Self::new(RemoteErrorKind::Overloaded, message)
    }

    /// The error's classification.
    pub fn kind(&self) -> RemoteErrorKind {
        self.kind
    }

    /// The exception name (application exceptions) or kind name (middleware
    /// errors). Exception policies match against this.
    pub fn exception(&self) -> &str {
        &self.exception
    }

    /// Human-readable detail message.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// Rebuilds an error from its wire representation.
    pub fn from_wire_parts(kind_name: &str, exception: &str, message: &str) -> Self {
        let kind = RemoteErrorKind::from_wire(kind_name).unwrap_or(RemoteErrorKind::Protocol);
        RemoteError {
            kind,
            exception: exception.to_owned(),
            message: message.to_owned(),
        }
    }
}

impl fmt::Display for RemoteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.kind == RemoteErrorKind::Application {
            write!(f, "{}: {}", self.exception, self.message)
        } else {
            write!(f, "{}: {}", self.kind, self.message)
        }
    }
}

impl Error for RemoteError {}

impl From<WireError> for RemoteError {
    fn from(err: WireError) -> Self {
        RemoteError::marshal(err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_application_error_uses_exception_name() {
        let err = RemoteError::application("FileNotFoundException", "no such file: a.txt");
        assert_eq!(
            err.to_string(),
            "FileNotFoundException: no such file: a.txt"
        );
        assert_eq!(err.kind(), RemoteErrorKind::Application);
        assert_eq!(err.exception(), "FileNotFoundException");
    }

    #[test]
    fn display_middleware_error_uses_kind() {
        let err = RemoteError::new(RemoteErrorKind::NoSuchObject, "object 7");
        assert_eq!(err.to_string(), "no-such-object: object 7");
        assert_eq!(err.exception(), "no-such-object");
    }

    #[test]
    fn kind_wire_names_round_trip() {
        let kinds = [
            RemoteErrorKind::Application,
            RemoteErrorKind::NoSuchObject,
            RemoteErrorKind::NoSuchMethod,
            RemoteErrorKind::BadArguments,
            RemoteErrorKind::NotBound,
            RemoteErrorKind::AlreadyBound,
            RemoteErrorKind::Skipped,
            RemoteErrorKind::Transport,
            RemoteErrorKind::Marshal,
            RemoteErrorKind::Protocol,
            RemoteErrorKind::Overloaded,
        ];
        for kind in kinds {
            assert_eq!(RemoteErrorKind::from_wire(kind.as_str()), Some(kind));
        }
        assert_eq!(RemoteErrorKind::from_wire("nonsense"), None);
    }

    #[test]
    fn wire_error_display_is_lowercase_without_period() {
        let msgs = [
            WireError::UnexpectedEof { context: "value" }.to_string(),
            WireError::UnknownTag {
                context: "frame",
                tag: 0xff,
            }
            .to_string(),
            WireError::VarintOverflow.to_string(),
            WireError::InvalidUtf8.to_string(),
            WireError::LengthLimitExceeded {
                declared: 10,
                limit: 5,
            }
            .to_string(),
            WireError::TooDeep { limit: 64 }.to_string(),
            WireError::TrailingBytes { remaining: 3 }.to_string(),
        ];
        for msg in msgs {
            assert!(!msg.ends_with('.'), "message ends with period: {msg}");
            let first = msg.chars().next().unwrap();
            assert!(!first.is_uppercase(), "message starts uppercase: {msg}");
        }
    }

    #[test]
    fn from_wire_parts_preserves_fields() {
        let err = RemoteError::from_wire_parts("application", "PermissionError", "denied");
        assert_eq!(err.kind(), RemoteErrorKind::Application);
        assert_eq!(err.exception(), "PermissionError");
        assert_eq!(err.message(), "denied");
    }

    #[test]
    fn from_wire_parts_unknown_kind_degrades_to_protocol() {
        let err = RemoteError::from_wire_parts("???", "X", "y");
        assert_eq!(err.kind(), RemoteErrorKind::Protocol);
    }

    #[test]
    fn remote_error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RemoteError>();
        assert_send_sync::<WireError>();
    }
}
