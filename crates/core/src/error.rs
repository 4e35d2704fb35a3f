//! Error types for the loader runtime.

use std::fmt;

/// Errors surfaced by datasets, transforms, and the loader runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoaderError {
    /// The dataset failed to produce the sample at `index`.
    Dataset {
        /// Index whose load failed.
        index: usize,
        /// Human-readable cause.
        msg: String,
    },
    /// A transform failed while preprocessing a sample.
    Transform {
        /// Name of the failing transform.
        name: String,
        /// Human-readable cause.
        msg: String,
    },
    /// The loader is shutting down; no further work is accepted.
    Shutdown,
    /// Builder configuration was invalid (e.g., zero batch size).
    Config(String),
    /// A checkpoint could not be produced, parsed, or resumed from.
    Checkpoint(String),
}

impl fmt::Display for LoaderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoaderError::Dataset { index, msg } => {
                write!(f, "dataset failed to load sample {index}: {msg}")
            }
            LoaderError::Transform { name, msg } => {
                write!(f, "transform `{name}` failed: {msg}")
            }
            LoaderError::Shutdown => write!(f, "loader is shutting down"),
            LoaderError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            LoaderError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
        }
    }
}

impl std::error::Error for LoaderError {}

impl LoaderError {
    /// The error recorded for a sample whose dataset load or transform
    /// panicked, carrying the panic message from the caught `payload`.
    pub fn panicked(payload: &(dyn std::any::Any + Send)) -> LoaderError {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic payload".into());
        LoaderError::Transform {
            name: "panicked".into(),
            msg,
        }
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, LoaderError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_context() {
        let e = LoaderError::Dataset {
            index: 7,
            msg: "io".into(),
        };
        assert!(e.to_string().contains("sample 7"));
        let e = LoaderError::Transform {
            name: "Resize".into(),
            msg: "bad dims".into(),
        };
        assert!(e.to_string().contains("Resize"));
        assert!(LoaderError::Shutdown.to_string().contains("shutting down"));
        assert!(LoaderError::Config("x".into()).to_string().contains("x"));
        assert!(LoaderError::Checkpoint("stale".into())
            .to_string()
            .contains("checkpoint error: stale"));
    }

    #[test]
    fn panicked_carries_the_panic_message() {
        let caught = std::panic::catch_unwind(|| panic!("boom {}", 7)).unwrap_err();
        assert!(LoaderError::panicked(&*caught)
            .to_string()
            .contains("boom 7"));
        let caught = std::panic::catch_unwind(|| panic!("static")).unwrap_err();
        assert!(LoaderError::panicked(&*caught)
            .to_string()
            .contains("static"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&LoaderError::Shutdown);
    }
}
