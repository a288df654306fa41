//! # cheetah-net — the Cheetah wire protocol and rack network simulator
//!
//! The paper's prototype moves entries over UDP with a custom header
//! (Figure 4) and a reliability protocol in which **the switch itself
//! ACKs the packets it prunes** (§7.2) — otherwise a worker could not
//! distinguish a pruned packet from a lost one. This crate implements:
//!
//! * [`wire`] — the data/ACK/FIN packet formats with defensive parsing
//!   and checksums (malformed packets are typed errors, never panics);
//! * [`channel`] — seeded link models: serialization rate, latency, and
//!   smoltcp-style fault injection (drop/corrupt/duplicate probabilities
//!   plus jitter-induced reordering);
//! * [`reliability`] — the §7.2 state machines: the switch's
//!   `Y = X+1 / Y ≤ X / Y > X+1` sequencing rules, the workers'
//!   go-back-N window, the master's dedup;
//! * [`rack`] — the one §7.2 carrier: a deterministic discrete-event
//!   simulation of the full rack (`W` workers → switch → master) that
//!   owns the links, the event loop and the three roles, parameterised
//!   only by the payload it carries;
//! * [`transfer`] — binds the rack to the entry packets of [`wire`],
//!   with the switch running any pruning function;
//! * [`fabric`] — binds the rack to the streamed runtime's
//!   [`SurvivorBatch`] frames, handing each new frame to a master-side
//!   sink (the merge plane);
//! * [`checker`] — a dslab-mp-style bounded model checker that
//!   exhaustively enumerates delivery schedules (orders, drops,
//!   duplicates) of small frame sets for the merge-plane contract gate;
//! * [`model`] — byte-level transfer accounting for the query engine: an
//!   entry-packet's modelled wire size and value-slot budget
//!   ([`MAX_ENTRY_SLOTS`]), and the phase/transfer breakdown with the
//!   Figure 8 completion model;
//! * [`ingest`] — the Figure 9 master-ingest queueing model, including
//!   §4.6's shard fan-in (concurrent survivor streams sharing the master
//!   downlink);
//! * [`stream`] — the survivor-batch frame the streamed shard runtime
//!   moves between workers and the master merge plane (a columnar arena
//!   of opaque merge units plus an offset column, one checksum per
//!   frame, parsed zero-copy).
//!
//! Not modelled: real sockets/DPDK (everything is simulated time), IP
//! fragmentation, and congestion control (the paper's channel is a
//! dedicated rack fabric with token-bucket pacing at the senders).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod checker;
pub mod fabric;
pub mod ingest;
pub mod model;
pub mod rack;
pub mod reliability;
pub mod stream;
pub mod transfer;
pub mod wire;

pub use channel::{Arrival, FaultProfile, Link, SimRng, SimTime};
pub use checker::{explore, CheckerConfig, Delivery, DeliveryKind, ExploreStats};
pub use fabric::{bdp_window, FabricSim};
pub use ingest::MasterIngestModel;
pub use model::{ExecBackend, ExecBreakdown, ENTRY_WIRE_BYTES, MAX_ENTRY_SLOTS};
pub use rack::{RackConfig, RackReport};
pub use reliability::{MasterFlow, SwitchAction, SwitchFlow, WorkerFlow};
pub use stream::{emit_batch, FrameBuilder, SurvivorBatch, MAX_BATCH_ITEMS};
pub use transfer::{TransferReport, TransferSim};
pub use wire::{AckPacket, AckSource, DataPacket, Packet, WireError, MAX_VALUES};
