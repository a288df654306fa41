//! The error type of the pruning layer.
//!
//! Two things can go wrong between a query and its pruned execution:
//!
//! * the **switch substrate** rejects the program (resource exhaustion at
//!   build time) or a packet (execution-model violation at packet time) —
//!   those arrive here as [`SwitchError`]s;
//! * an **operator** feeding the dataflow misbehaves, e.g. encodes more
//!   packet value slots than an entry header carries.
//!
//! Both are typed: a malformed operator surfaces as an `Err` through
//! [`crate::Result`], never as a panic inside the engine.

use cheetah_switch::SwitchError;
use std::fmt;

/// Any error of the pruning layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The switch substrate rejected the program or a packet.
    Switch(SwitchError),
    /// An operator encoded more packet value slots than an entry carries.
    ValueSlotOverflow {
        /// Slots the operator produced for one row.
        got: usize,
        /// Slots an entry header can carry.
        max: usize,
    },
    /// An execution plan referenced an input stream the source does not
    /// carry — e.g. a binary-join shard plan over a unary source.
    MissingStream {
        /// The out-of-range stream index.
        stream: usize,
    },
    /// A fitted range plan supplied non-monotonic shard cut points — a
    /// buggy re-fit would otherwise route keys to the wrong span
    /// (`partition_point` assumes sorted boundaries).
    UnsortedShardBoundaries {
        /// Index of the first cut point below its predecessor.
        index: usize,
    },
    /// A fault-mode run's simulated rack ended with flows unfinished — a
    /// flow timed out time after time with no ACK moving its window, or
    /// the simulated time limit ran out: a fault profile so hostile
    /// (every entry dropped, say) that go-back-N never gets the data
    /// across.
    FabricStalled {
        /// Entries the master had accepted when the run ended.
        delivered: u64,
        /// Entries the shard job's flows held in total.
        entries: u64,
    },
    /// An operator's `encode_part` did not call its sink exactly once per
    /// row of the partition it was asked to encode.
    EncodedRowMismatch {
        /// Rows the partition holds.
        rows: usize,
        /// Rows the operator encoded.
        encoded: usize,
    },
    /// The query family has no compiled kernel — kernels exist for
    /// single-pass families only; the executor runs the interpreter.
    NoKernel {
        /// The family's [`QuerySpec::kind`](crate::QuerySpec::kind).
        family: &'static str,
    },
    /// A query named a column its table does not have, or one of a type
    /// the family cannot read there (an `Int` where it orders, aggregates,
    /// sums, dominates or compares; a `Str` under `LIKE`).
    BadColumn {
        /// The stream whose table was asked (0 = left, 1 = right).
        stream: usize,
        /// The offending column index, as the query named it.
        col: usize,
    },
    /// A query gives its family's switch program nothing to evaluate per
    /// entry, or more than it can hold: a SKYLINE over no dimensions (or
    /// more than an entry has slots for), a filter whose predicate tree
    /// has no atom (or more than the truth table enumerates). Refused
    /// before any arm runs, so the pruned and the direct arm agree on
    /// which requests are valid.
    BadArity {
        /// The query family's short name.
        family: &'static str,
        /// Dimensions or atoms the query names.
        got: usize,
        /// The most the family's program takes; the least is one.
        max: usize,
    },
    /// A shard's worker job ended without reporting — it panicked. The
    /// failure is the request's alone: the pool thread survives it.
    WorkerPanicked {
        /// The lowest shard that never reported.
        shard: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Switch(e) => e.fmt(f),
            Error::ValueSlotOverflow { got, max } => {
                write!(f, "operator encoded {got} packet value slots but an entry carries {max}")
            }
            Error::MissingStream { stream } => {
                write!(f, "execution plan references input stream {stream}, which the source does not carry")
            }
            Error::UnsortedShardBoundaries { index } => {
                write!(f, "fitted shard boundaries are not ascending at cut {index}")
            }
            Error::FabricStalled { delivered, entries } => {
                write!(f, "faulty rack hit its time limit with {delivered} of {entries} entries delivered")
            }
            Error::EncodedRowMismatch { rows, encoded } => {
                write!(f, "operator encoded {encoded} rows of a {rows}-row partition")
            }
            Error::NoKernel { family } => {
                write!(f, "no compiled kernel for the multi-pass {family} family")
            }
            Error::BadColumn { stream, col } => {
                write!(f, "column {col} of input stream {stream} is missing or of the wrong type for the query")
            }
            Error::BadArity { family, got, max } => {
                write!(f, "a {family} query over {got} terms: the family evaluates 1..={max}")
            }
            Error::WorkerPanicked { shard } => {
                write!(f, "the worker job of shard {shard} panicked before reporting")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Switch(e) => Some(e),
            Error::ValueSlotOverflow { .. }
            | Error::MissingStream { .. }
            | Error::UnsortedShardBoundaries { .. }
            | Error::FabricStalled { .. }
            | Error::EncodedRowMismatch { .. }
            | Error::NoKernel { .. }
            | Error::BadColumn { .. }
            | Error::BadArity { .. }
            | Error::WorkerPanicked { .. } => None,
        }
    }
}

impl From<SwitchError> for Error {
    fn from(e: SwitchError) -> Self {
        Error::Switch(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switch_errors_convert_and_display_through() {
        let e: Error = SwitchError::UnsupportedOp { op: "multiply" }.into();
        assert!(e.to_string().contains("multiply"));
        assert!(matches!(e, Error::Switch(SwitchError::UnsupportedOp { .. })));
    }

    #[test]
    fn slot_overflow_is_informative() {
        let e = Error::ValueSlotOverflow { got: 9, max: 4 };
        let s = e.to_string();
        assert!(s.contains('9') && s.contains('4'), "{s}");
    }

    #[test]
    fn missing_stream_is_informative() {
        let e = Error::MissingStream { stream: 1 };
        assert!(e.to_string().contains("stream 1"), "{e}");
    }

    #[test]
    fn unsorted_boundaries_is_informative() {
        let e = Error::UnsortedShardBoundaries { index: 3 };
        assert!(e.to_string().contains("cut 3"), "{e}");
    }

    #[test]
    fn fabric_stall_is_informative() {
        let e = Error::FabricStalled { delivered: 2, entries: 9 };
        assert!(e.to_string().contains("2 of 9 entries"), "{e}");
    }

    #[test]
    fn encoded_row_mismatch_is_informative() {
        let e = Error::EncodedRowMismatch { rows: 10, encoded: 9 };
        assert!(e.to_string().contains("9 rows of a 10-row"), "{e}");
    }

    #[test]
    fn no_kernel_is_informative() {
        let e = Error::NoKernel { family: "join" };
        assert!(e.to_string().contains("join"), "{e}");
    }

    #[test]
    fn bad_column_and_worker_panic_are_informative() {
        let e = Error::BadColumn { stream: 1, col: 9 };
        assert!(e.to_string().contains("column 9 of input stream 1"), "{e}");
        let e = Error::WorkerPanicked { shard: 3 };
        assert!(e.to_string().contains("shard 3"), "{e}");
        let e = Error::BadArity { family: "skyline", got: 0, max: 4 };
        assert!(e.to_string().contains("skyline query over 0 terms"), "{e}");
    }

    #[test]
    fn error_trait_object_with_source() {
        let e: Box<dyn std::error::Error> =
            Box::new(Error::Switch(SwitchError::NoProgramForFlow { fid: 3 }));
        assert!(e.source().is_some());
        let o: Box<dyn std::error::Error> = Box::new(Error::ValueSlotOverflow { got: 5, max: 4 });
        assert!(o.source().is_none());
    }
}
