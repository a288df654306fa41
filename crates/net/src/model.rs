//! Byte-level modelling of the Cheetah dataflow's transfers.
//!
//! The engine measures *work* with wall clocks but models *transfers* from
//! byte counts and link rates (the repository has no 40G NICs). This
//! module owns that accounting — it lives here, next to the packet formats
//! and link models, because the wire layer is what defines how many bytes
//! an entry costs and how links bound a transfer:
//!
//! * [`MAX_ENTRY_SLOTS`] — the packet value slots one serialized entry
//!   (the CWorker output of §7.1) may carry beside its entry id;
//! * [`ENTRY_WIRE_BYTES`] — the modelled wire size of one entry-packet;
//! * [`ExecBreakdown`] — per-phase timings and byte counts of one
//!   execution, with the link-rate completion model of Figure 8.

/// Wire size of one Cheetah entry-packet (Ethernet + IP + UDP + Cheetah
/// header + values). Chosen so a 10G link carries ~10 M entries/s, the
/// rate §7.1 reports.
pub const ENTRY_WIRE_BYTES: u64 = 125;

/// How many packet value slots one entry may use — the PHV room the fixed
/// Cheetah entry header affords, deliberately tighter than the wire
/// format's hard cap ([`MAX_VALUES`](crate::wire::MAX_VALUES)). An
/// operator that encodes more is refused with a typed `ValueSlotOverflow`.
pub const MAX_ENTRY_SLOTS: usize = 4;

/// Which pruning backend executed a run's switch program.
///
/// The interpreted [`Pipeline`](cheetah_switch::Pipeline) of boxed stages
/// is the semantic oracle; the compiled backend runs the plan-time fused
/// kernel (`cheetah_core::CompiledProgram`) — bit-identical verdicts,
/// no per-entry virtual dispatch. Recorded in [`ExecBreakdown`] so every
/// measurement says which engine produced it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ExecBackend {
    /// Generic interpreted pipeline (the oracle).
    #[default]
    Interpreted,
    /// Plan-time fused monomorphic kernel.
    Compiled,
}

impl ExecBackend {
    /// Short column label for benchmark tables.
    pub fn label(self) -> &'static str {
        match self {
            ExecBackend::Interpreted => "interp",
            ExecBackend::Compiled => "compiled",
        }
    }
}

/// Phase timings and transfer volumes of one execution.
///
/// For a request served through a tracing session this is a *scalar
/// view over the lifecycle span tree*, not an independent ledger: the
/// telemetry contract gate pins `queue_seconds` to the `queue` span's
/// clock, `entries_to_master` to the sum of the `worker` spans'
/// `entries_to_master` attributes, and `retransmits` to the registry's
/// `net.retransmits` counter. Direct (non-session) runs fill the same
/// fields from the same measurement seams, just without the spans.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecBreakdown {
    /// Worker-side serialize time, as the paper's parallel CWorkers would
    /// pay it: each partition is one worker, so a pass over a stream
    /// costs its *slowest* partition, and a run costs the sum of that
    /// over its streams and passes (plus HAVING's candidate selection) —
    /// the same on either backend, whatever order the partitions were
    /// actually encoded in. A sharded run reports its slowest shard.
    /// The baseline path charges its slowest worker's compute here.
    pub worker_seconds: f64,
    /// Master completion time.
    pub master_seconds: f64,
    /// Bytes the busiest worker puts on its link, across all passes.
    pub worker_wire_bytes: u64,
    /// Bytes arriving at the master's link (summed across shards).
    pub master_wire_bytes: u64,
    /// Entries delivered to the master.
    pub entries_to_master: u64,
    /// Passes over the data.
    pub passes: u8,
    /// Worker shards that executed this run (1 = unsharded).
    pub shards: u32,
    /// Which pruning backend ran the switch program. When a compiled run
    /// falls back to the interpreter (unsupported family), the value here
    /// is what *actually* executed, not what was requested.
    pub backend: ExecBackend,
    /// Wall time between a serving session admitting the request and
    /// starting its work — read from the lifecycle trace's `queue` span,
    /// near zero since the caller's thread starts at once. Zero for
    /// direct (non-session) runs, so serving latency decomposes as
    /// queue → worker → network → master.
    pub queue_seconds: f64,
    /// Tenant id of the serving-session request that produced this run.
    /// Empty for direct (non-session) runs.
    pub tenant: String,
    /// Entries the workers retransmitted across a faulty rack (go-back-N
    /// resends). Zero on every lossless path.
    pub retransmits: u64,
    /// Entries the rack's switch pruned and ACKed (§7.2) — every carried
    /// entry the shard program did not keep. Zero on every lossless path.
    pub switch_acks: u64,
}

impl Default for ExecBreakdown {
    fn default() -> Self {
        Self {
            worker_seconds: 0.0,
            master_seconds: 0.0,
            worker_wire_bytes: 0,
            master_wire_bytes: 0,
            entries_to_master: 0,
            passes: 0,
            shards: 1,
            backend: ExecBackend::default(),
            queue_seconds: 0.0,
            tenant: String::new(),
            retransmits: 0,
            switch_acks: 0,
        }
    }
}

impl ExecBreakdown {
    /// Modelled transfer time on `link_gbps` links: the per-worker uplink
    /// and the master downlink stream concurrently, so the slower of the
    /// two bounds the transfer.
    pub fn network_seconds(&self, link_gbps: f64) -> f64 {
        let bits = self.worker_wire_bytes.max(self.master_wire_bytes) as f64 * 8.0;
        bits / (link_gbps * 1e9)
    }

    /// End-to-end completion: worker phase, then transfer, then master
    /// phase (conservative additive model — matches the stacked bars of
    /// Figure 8).
    pub fn completion_seconds(&self, link_gbps: f64) -> f64 {
        self.worker_seconds + self.network_seconds(link_gbps) + self.master_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_completion_is_additive() {
        let b = ExecBreakdown {
            worker_seconds: 1.0,
            master_seconds: 2.0,
            worker_wire_bytes: 125_000_000, // 1 Gbit
            ..ExecBreakdown::default()
        };
        let net = b.network_seconds(10.0);
        assert!((net - 0.1).abs() < 1e-9);
        assert!((b.completion_seconds(10.0) - 3.1).abs() < 1e-9);
    }

    #[test]
    fn slower_of_uplink_and_downlink_bounds_the_transfer() {
        let b = ExecBreakdown {
            worker_wire_bytes: 1_000,
            master_wire_bytes: 2_000,
            ..ExecBreakdown::default()
        };
        assert!((b.network_seconds(10.0) - 2_000.0 * 8.0 / 1e10).abs() < 1e-15);
    }
}
