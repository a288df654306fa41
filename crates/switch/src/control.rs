//! Control-plane timing models.
//!
//! Three costs matter to the paper's evaluation:
//!
//! * **Rule installation** — the planner installs 10–20 rules per query in
//!   under a millisecond ([`ControlPlane`]).
//! * **Result draining** — NetAccel-style systems store query *results* in
//!   switch registers and must read them out through the control plane
//!   before the query can complete (Figure 7). [`DrainModel`] charges that
//!   time.
//! * **Switch-CPU processing** — NetAccel overflows work the dataplane
//!   cannot do to the switch's management CPU, which is far weaker than a
//!   server and sits behind a thin channel (Figures 12 and 13).
//!   [`SwitchCpuModel`] charges that time.

use std::time::Duration;

/// Rule-installation timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlPlane {
    /// Time to install one match-action rule, in microseconds.
    pub rule_install_micros: u64,
}

impl ControlPlane {
    /// Model with the given per-rule latency.
    pub fn new(rule_install_micros: u64) -> Self {
        Self { rule_install_micros }
    }

    /// Time to install `rules` rules.
    pub fn install_time(&self, rules: usize) -> Duration {
        Duration::from_micros(self.rule_install_micros * rules as u64)
    }
}

/// Models reading result state out of the switch (the NetAccel lower bound
/// of Figure 7: *"the time it takes to read the output from the switch"*).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DrainModel {
    /// Dataplane→CPU→server channel rate in gigabits per second. The PCIe
    /// channel between an ASIC and its management CPU is on the order of a
    /// few Gbps; packet-drain through the dataplane is similar once packing
    /// and header overheads are paid.
    pub channel_gbps: f64,
    /// Fixed per-drain setup latency in seconds.
    pub setup_seconds: f64,
}

impl DrainModel {
    /// Default model used by the Figure 7 experiment.
    pub fn default_model() -> Self {
        Self { channel_gbps: 1.0, setup_seconds: 0.01 }
    }

    /// Seconds to drain `bytes` of result state.
    pub fn drain_seconds(&self, bytes: u64) -> f64 {
        self.setup_seconds + (bytes as f64 * 8.0) / (self.channel_gbps * 1e9)
    }
}

/// Models running query operators on the switch's management CPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchCpuModel {
    /// How many times slower the switch CPU processes a row than the master
    /// server (weak cores, no vectorization, small caches).
    pub slowdown: f64,
    /// Dataplane→CPU channel rate in Gbps (data must cross this channel
    /// before the CPU can touch it).
    pub channel_gbps: f64,
}

impl SwitchCpuModel {
    /// Default model used by the Figure 12/13 experiments.
    pub fn default_model() -> Self {
        Self { slowdown: 8.0, channel_gbps: 1.0 }
    }

    /// Seconds for the switch CPU to process work the *server* would finish
    /// in `server_seconds`, given `bytes` must first cross the channel.
    pub fn processing_seconds(&self, server_seconds: f64, bytes: u64) -> f64 {
        let transfer = (bytes as f64 * 8.0) / (self.channel_gbps * 1e9);
        transfer + server_seconds * self.slowdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_install_under_a_millisecond_for_paper_rule_counts() {
        let cp = ControlPlane::new(40);
        // "Each query requires between 10 to 20 control plane rules."
        assert!(cp.install_time(20) < Duration::from_millis(1));
        // "Any of the Big Data benchmark workloads ... less than 100 rules."
        assert!(cp.install_time(100) < Duration::from_millis(5));
    }

    #[test]
    fn drain_time_grows_linearly_with_result_size() {
        let m = DrainModel::default_model();
        let t1 = m.drain_seconds(1_000_000);
        let t2 = m.drain_seconds(10_000_000);
        assert!(t2 > t1);
        // Linear in bytes once setup is subtracted.
        let per_byte1 = (t1 - m.setup_seconds) / 1_000_000.0;
        let per_byte2 = (t2 - m.setup_seconds) / 10_000_000.0;
        assert!((per_byte1 - per_byte2).abs() < 1e-15);
    }

    #[test]
    fn switch_cpu_slower_than_server() {
        let m = SwitchCpuModel::default_model();
        let server = 1.0;
        let t = m.processing_seconds(server, 100_000_000);
        assert!(t > server * m.slowdown, "transfer adds on top of the slowdown");
    }

    #[test]
    fn zero_bytes_drain_is_setup_only() {
        let m = DrainModel { channel_gbps: 1.0, setup_seconds: 0.25 };
        assert!((m.drain_seconds(0) - 0.25).abs() < 1e-12);
    }
}
