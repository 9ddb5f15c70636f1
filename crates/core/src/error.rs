//! The unified error surface of the runtime boundary.
//!
//! Each engine keeps its own precise error enum internally (`FsError`,
//! `KernelError`, ...), but APIs that cross the runtime boundary —
//! `Dpdpu` methods, the DDS client — return one [`DpdpuError`] so callers
//! write a single `match` regardless of which engine a request traversed.

use dpdpu_compute::KernelError;
use dpdpu_storage::FsError;

/// Any failure crossing the runtime boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DpdpuError {
    /// Storage Engine failure (file system or device I/O).
    Fs(FsError),
    /// Compute Engine failure (placement or kernel execution).
    Kernel(KernelError),
    /// A request exceeded its overall deadline.
    Timeout {
        /// Virtual nanoseconds spent before giving up.
        elapsed_ns: u64,
    },
    /// A request was retried to its attempt limit without success.
    RetriesExhausted {
        /// Attempts made (including the first).
        attempts: u32,
    },
    /// A required component is not currently usable.
    Unavailable(&'static str),
    /// The server was fenced out of its replica group: the group epoch
    /// moved past it (failover promoted a peer). Terminal at this
    /// server — the caller must re-route to the group's current
    /// primary, not retry here.
    StaleEpoch,
    /// The transport closed while a request was in flight.
    ConnectionClosed,
    /// The remote peer reported a failure it could not recover from.
    Remote(&'static str),
}

impl From<FsError> for DpdpuError {
    fn from(e: FsError) -> Self {
        DpdpuError::Fs(e)
    }
}

impl From<KernelError> for DpdpuError {
    fn from(e: KernelError) -> Self {
        DpdpuError::Kernel(e)
    }
}

impl std::fmt::Display for DpdpuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DpdpuError::Fs(e) => write!(f, "storage: {e}"),
            DpdpuError::Kernel(e) => write!(f, "compute: {e}"),
            DpdpuError::Timeout { elapsed_ns } => {
                write!(f, "request deadline exceeded after {elapsed_ns} ns")
            }
            DpdpuError::RetriesExhausted { attempts } => {
                write!(f, "request failed after {attempts} attempts")
            }
            DpdpuError::Unavailable(what) => write!(f, "{what} unavailable"),
            DpdpuError::StaleEpoch => {
                f.write_str("stale epoch: server fenced out of its replica group")
            }
            DpdpuError::ConnectionClosed => f.write_str("connection closed mid-request"),
            DpdpuError::Remote(what) => write!(f, "remote error: {what}"),
        }
    }
}

impl std::error::Error for DpdpuError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DpdpuError::Fs(e) => Some(e),
            DpdpuError::Kernel(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: DpdpuError = FsError::NotFound.into();
        assert_eq!(e, DpdpuError::Fs(FsError::NotFound));
        assert_eq!(e.to_string(), "storage: file not found");

        let e = DpdpuError::Timeout { elapsed_ns: 5_000 };
        assert!(e.to_string().contains("5000 ns"));

        use std::error::Error;
        assert!(DpdpuError::Fs(FsError::NoSpace).source().is_some());
        assert!(DpdpuError::ConnectionClosed.source().is_none());
    }
}
