//! Typed serving-plane errors.
//!
//! The session's contract is *rejection over collapse*: a request the
//! plane cannot take on right now comes back immediately as a typed
//! [`Error::Overloaded`] — never an unbounded queue, never a panic —
//! so callers can shed load, retry with backoff, or route elsewhere.

use std::fmt;

/// `Result` specialised to serving-plane errors.
pub type Result<T> = std::result::Result<T, Error>;

/// Everything that can go wrong between a call to `run_blocking` and its
/// response.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Admission control turned the request away: the session already
    /// executes `capacity` requests. This is back-pressure, not failure —
    /// the request never ran and holds no session memory.
    Overloaded {
        /// Requests in flight when admission was refused.
        in_flight: usize,
        /// The session's configured in-flight bound.
        capacity: usize,
    },
    /// The execution layer itself failed; carries the engine's typed
    /// error unchanged.
    Exec(cheetah_core::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Overloaded { in_flight, capacity } => write!(
                f,
                "session overloaded: {in_flight} requests in flight at capacity {capacity}"
            ),
            Error::Exec(e) => write!(f, "execution failed: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Exec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<cheetah_core::Error> for Error {
    fn from(e: cheetah_core::Error) -> Self {
        Error::Exec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overload_displays_its_numbers() {
        let e = Error::Overloaded { in_flight: 7, capacity: 4 };
        let s = e.to_string();
        assert!(s.contains('7') && s.contains('4'), "{s}");
    }

    #[test]
    fn exec_errors_chain_their_source() {
        use std::error::Error as _;
        let e = Error::from(cheetah_core::Error::MissingStream { stream: 1 });
        assert!(e.source().is_some());
        assert_eq!(e, Error::Exec(cheetah_core::Error::MissingStream { stream: 1 }));
    }
}
