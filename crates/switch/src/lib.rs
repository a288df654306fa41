//! # cheetah-switch — a PISA programmable-switch dataplane simulator
//!
//! This crate is the hardware substrate for the Cheetah reproduction. The
//! paper ran on a Barefoot Tofino ASIC programmed in P4; since no P4 toolchain
//! or ASIC is available here, this crate simulates the parts of the PISA
//! (Protocol Independent Switch Architecture) model that the paper's pruning
//! algorithms depend on — and, just as importantly, it *enforces the
//! constraints* the paper designs around:
//!
//! * a fixed number of **pipeline stages**, each with disjoint memory;
//! * a limited number of **stateful ALUs per stage** (a register array can be
//!   read-modify-written at most once per packet);
//! * limited per-stage **SRAM** and shared **TCAM**;
//! * a limited number of **PHV bits** (packet header vector) that can be
//!   parsed from a packet and carried between stages;
//! * a restricted **operation set**: hashing, comparison, addition and
//!   subtraction, bit shifts and masks, and table lookups. There is no
//!   multiplication, division, logarithm, or floating point — the
//!   [`aph`] module shows how the paper approximates `log` with a lookup
//!   table and TCAM, exactly because the ALUs cannot compute it.
//!
//! ## What is and is not modelled
//!
//! Following the paper (and the smoltcp tradition of stating both sides):
//!
//! * **Modelled**: stage/ALU/SRAM/TCAM/PHV budgets with allocation failure,
//!   the one-RMW-per-array-per-packet discipline, exact-match and ternary
//!   match-action tables with control-plane rule installation and rule
//!   counting, seeded hash functions, the Appendix-D approximate-log
//!   machinery, per-program packet statistics, control-plane latency and
//!   drain models.
//! * **Not modelled**: serialization/deserialization timing inside the chip,
//!   PHV container packing at bit granularity (we budget bits, not
//!   containers), parser state machines, multiple pipes sharing a chip, or
//!   traffic-manager queueing. None of the paper's results depend on these.
//!
//! ## Crate layout
//!
//! | module | contents |
//! |---|---|
//! | [`profile`] | switch models (`tofino1`, `tofino2`, `tiny`) |
//! | [`resources`] | the [`ResourceLedger`] every program allocates from |
//! | [`register`] | stateful [`RegisterArray`] with the PISA access discipline |
//! | [`table`] | exact-match match-action tables |
//! | [`tcam`] | ternary match tables |
//! | [`hash`] | seeded hash family and fingerprints |
//! | — | the ALU op set: add, subtract, min/max, bitwise ops, shifts, compare — no multiply, divide, log or float |
//! | [`aph`] | approximate log / product projection (Appendix D) |
//! | [`pipeline`] | [`SwitchProgram`] trait, [`Pipeline`], verdicts |
//! | [`counters`] | per-program statistics |
//! | [`control`] | control-plane latency, drain, and switch-CPU models |
//! | [`error`] | [`SwitchError`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aph;
pub mod control;
pub mod counters;
pub mod error;
pub mod hash;
pub mod pipeline;
pub mod profile;
pub mod register;
pub mod resources;
pub mod table;
pub mod tcam;

pub use aph::{ApproxLog, ProjectionKind};
pub use control::{ControlPlane, DrainModel, SwitchCpuModel};
pub use counters::ProgramStats;
pub use error::SwitchError;
pub use hash::{HashFamily, HashFn};
pub use pipeline::{ControlMsg, PacketRef, Pipeline, ProgramId, SwitchProgram, Verdict};
pub use profile::SwitchProfile;
pub use register::RegisterArray;
pub use resources::{ResourceLedger, UsageSummary};
pub use table::ExactTable;
pub use tcam::{TcamEntry, TernaryTable};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, SwitchError>;
