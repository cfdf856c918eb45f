//! The structured error taxonomy of the LU pipeline.
//!
//! Every fallible exit of `run_hpl` is an [`HplError`]: the numerical
//! failure (`Singular`) and the communication failures surfaced by the
//! fault-injection layer (a dead rank, a wedged receive, a corrupted panel
//! that exhausted its retransmission budget). Communication errors convert
//! from [`hpl_comm::CommError`] via `From`, so pipeline code can use `?`
//! across the comm boundary.

use hpl_comm::CommError;

/// Why an HPL run failed.
#[derive(Clone, Debug, PartialEq)]
pub enum HplError {
    /// A zero (or non-finite) pivot: the matrix is numerically singular.
    Singular {
        /// Global column of the offending pivot.
        col: usize,
    },
    /// A peer rank died; the fabric was poisoned and this rank unwound.
    RankFailed {
        /// The rank that failed.
        rank: usize,
        /// The phase the failed rank was in when it died.
        phase: String,
    },
    /// A receive exceeded the communication timeout (mismatched collective
    /// ordering, or a peer wedged without dying).
    CommTimeout {
        /// Expected source rank.
        src: usize,
        /// The rank that timed out waiting.
        dst: usize,
        /// Raw tag value of the expected message.
        tag: u64,
        /// How long the receiver waited, in milliseconds.
        waited_ms: u64,
    },
    /// A broadcast payload failed its checksum on every retransmission
    /// attempt (see [`hpl_comm::abft`]).
    CorruptPayload {
        /// Broadcast root.
        root: usize,
        /// First rank that could not be repaired.
        rank: usize,
        /// Delivery attempts made before giving up.
        attempts: u32,
    },
    /// A structural protocol violation: buffer/count mismatch or a
    /// collective invoked without its required root contribution.
    Protocol {
        /// Which operation detected the violation.
        what: &'static str,
        /// Expected element count.
        expected: usize,
        /// Actual element count.
        got: usize,
    },
    /// Checkpoint/restore failure: a snapshot could not be deposited,
    /// loaded, decoded, or did not match the running configuration.
    Ckpt {
        /// What went wrong (the underlying `hpl_ckpt::CkptError` rendered).
        what: String,
    },
    /// An environment or configuration value failed validation before the
    /// run started (e.g. an unparseable `RHPL_TRANSPORT`).
    Config {
        /// The rejected setting rendered with its offending value (the
        /// underlying [`hpl_comm::ConfigError`]).
        what: String,
    },
}

impl HplError {
    /// Stable short name of the error kind, used by the CLI's machine
    /// protocol (`HPLERROR kind=...`) and the fault soak runner.
    pub fn kind(&self) -> &'static str {
        match self {
            HplError::Singular { .. } => "singular",
            HplError::RankFailed { .. } => "rank_failed",
            HplError::CommTimeout { .. } => "comm_timeout",
            HplError::CorruptPayload { .. } => "corrupt_payload",
            HplError::Protocol { .. } => "protocol",
            HplError::Ckpt { .. } => "ckpt",
            HplError::Config { .. } => "config",
        }
    }
}

impl std::fmt::Display for HplError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HplError::Singular { col } => {
                write!(f, "matrix is numerically singular at column {col}")
            }
            HplError::RankFailed { rank, phase } => {
                write!(f, "rank {rank} failed during {phase}")
            }
            HplError::CommTimeout {
                src,
                dst,
                tag,
                waited_ms,
            } => write!(
                f,
                "rank {dst} timed out after {waited_ms} ms waiting for rank {src} (tag {tag})"
            ),
            HplError::CorruptPayload {
                root,
                rank,
                attempts,
            } => write!(
                f,
                "panel from root {root} stayed corrupt at rank {rank} after {attempts} attempts"
            ),
            HplError::Protocol {
                what,
                expected,
                got,
            } => write!(f, "{what}: expected {expected} elements, got {got}"),
            HplError::Ckpt { what } => write!(f, "checkpoint failure: {what}"),
            HplError::Config { what } => write!(f, "configuration error: {what}"),
        }
    }
}

impl std::error::Error for HplError {}

impl From<CommError> for HplError {
    fn from(e: CommError) -> Self {
        match e {
            CommError::Timeout {
                dst,
                src,
                tag,
                waited_ms,
                ..
            } => HplError::CommTimeout {
                src,
                dst,
                tag: tag.0,
                waited_ms,
            },
            CommError::RankFailed { rank, phase } => HplError::RankFailed { rank, phase },
            CommError::Corrupt {
                root,
                rank,
                attempts,
            } => HplError::CorruptPayload {
                root,
                rank,
                attempts,
            },
            CommError::CountMismatch {
                what,
                expected,
                got,
            } => HplError::Protocol {
                what,
                expected,
                got,
            },
            CommError::MissingRoot { what } => HplError::Protocol {
                what,
                expected: 1,
                got: 0,
            },
        }
    }
}

impl From<hpl_comm::ConfigError> for HplError {
    fn from(e: hpl_comm::ConfigError) -> Self {
        HplError::Config {
            what: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpl_comm::Tag;

    #[test]
    fn comm_errors_map_onto_the_taxonomy() {
        let e: HplError = CommError::RankFailed {
            rank: 3,
            phase: "fact".into(),
        }
        .into();
        assert_eq!(
            e,
            HplError::RankFailed {
                rank: 3,
                phase: "fact".into()
            }
        );
        assert_eq!(e.kind(), "rank_failed");

        let e: HplError = CommError::Timeout {
            dst: 1,
            src: 0,
            tag: Tag(7),
            waited_ms: 1500,
            pending: vec![],
        }
        .into();
        assert_eq!(e.kind(), "comm_timeout");
        assert!(e.to_string().contains("1500 ms"));

        let e: HplError = CommError::MissingRoot { what: "bcast" }.into();
        assert_eq!(e.kind(), "protocol");
    }

    #[test]
    fn config_errors_carry_the_offending_value() {
        let e: HplError = hpl_comm::ConfigError {
            var: "RHPL_TRANSPORT",
            value: "carrier-pigeon".into(),
            expected: "one of inproc, tcp",
        }
        .into();
        assert_eq!(e.kind(), "config");
        assert!(e.to_string().contains("RHPL_TRANSPORT"));
        assert!(e.to_string().contains("carrier-pigeon"));
    }

    #[test]
    fn display_names_the_failed_rank_and_phase() {
        let e = HplError::RankFailed {
            rank: 2,
            phase: "row_swap".into(),
        };
        assert_eq!(e.to_string(), "rank 2 failed during row_swap");
        assert_eq!(
            HplError::Singular { col: 5 }.to_string(),
            "matrix is numerically singular at column 5"
        );
    }
}
