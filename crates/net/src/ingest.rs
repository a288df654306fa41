//! Master-side ingest model: queueing latency of the pruned stream
//! (Figure 9, and §4.6's master-bottleneck analysis under sharding).
//!
//! §8.3: *"The increase is super-linear in the unpruned rate since the
//! master can handle each arriving entry immediately when almost all
//! entries are pruned. In contrast, when the pruning rate is low, the
//! entries buffer up at the master, causing an increase in the completion
//! time."* [`MasterIngestModel`] reproduces that mechanism: entries arrive
//! at the NIC rate, are serviced at a per-query rate, and the service rate
//! degrades as the backlog grows (allocation/GC pressure at scale).
//!
//! Under sharded execution every shard streams its survivors into the
//! *same* master NIC concurrently, so the effective arrival rate scales
//! with the number of shards until the downlink saturates —
//! [`MasterIngestModel::with_shards`] models exactly that, which is why
//! adding workers eventually moves the bottleneck from worker compute to
//! master ingest (§4.6).

/// Queueing model of the master ingesting a pruned stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MasterIngestModel {
    /// Entry arrival rate at the master's NIC (entries/second) — the
    /// CWorker send rate times the unpruned fraction.
    pub arrival_rate: f64,
    /// Base service rate (entries/second) of the query's software
    /// completion operator — e.g. TOP N's heap handles millions/s while
    /// SKYLINE's dominance checks are far slower (§8.3).
    pub base_service_rate: f64,
    /// Backlog at which the effective service rate has halved (buffering/
    /// allocation pressure). Entries.
    pub backlog_halving: f64,
    /// Hard ceiling on the aggregate arrival rate (entries/second): the
    /// master's downlink line rate. Shard fan-in scales arrivals only up
    /// to this cap.
    pub nic_cap_rate: f64,
}

impl MasterIngestModel {
    /// A rack-default model: one 10G uplink's ~10 M entries/s arrival,
    /// a mid-range software operator, and a 40G master downlink cap.
    pub fn default_rack() -> Self {
        Self {
            arrival_rate: 10.0e6,
            base_service_rate: 2.5e6,
            backlog_halving: 4.0e6,
            nic_cap_rate: 40.0e6,
        }
    }

    /// The same model with `shards` workers streaming concurrently into
    /// the master: the aggregate arrival rate is `shards ×` the per-shard
    /// rate, capped by the downlink ([`MasterIngestModel::nic_cap_rate`]).
    pub fn with_shards(self, shards: usize) -> Self {
        let aggregate = (self.arrival_rate * shards.max(1) as f64).min(self.nic_cap_rate);
        Self { arrival_rate: aggregate, ..self }
    }

    /// Blocking latency (seconds) for the master to finish ingesting and
    /// processing `entries` entries.
    ///
    /// Simulated in coarse steps: while entries are arriving the master
    /// services at a backlog-degraded rate; after the last arrival it
    /// drains the remaining backlog.
    pub fn blocking_latency(&self, entries: u64) -> f64 {
        if entries == 0 {
            return 0.0;
        }
        // The NIC cap binds whatever the configured per-flow rate says —
        // not only the with_shards fan-in path.
        let arrival_rate = self.arrival_rate.min(self.nic_cap_rate);
        let n = entries as f64;
        let arrive_time = n / arrival_rate;
        // Integrate in 100 steps over the arrival window.
        let steps = 100;
        let dt = arrive_time / steps as f64;
        let mut backlog = 0.0f64;
        let mut processed = 0.0f64;
        for _ in 0..steps {
            backlog += arrival_rate * dt;
            let rate = self.base_service_rate / (1.0 + backlog / self.backlog_halving);
            let served = (rate * dt).min(backlog);
            backlog -= served;
            processed += served;
        }
        let mut t = arrive_time;
        // Drain the backlog.
        let mut guard = 0;
        while processed < n - 1e-9 && guard < 1_000_000 {
            let rate = self.base_service_rate / (1.0 + backlog / self.backlog_halving);
            let dt = (backlog / rate).clamp(1e-9, 0.01);
            let served = (rate * dt).min(backlog);
            backlog -= served;
            processed += served;
            t += dt;
            guard += 1;
        }
        t
    }

    /// Blocking latency of ingesting per-shard survivor streams
    /// concurrently: shard fan-in raises the aggregate arrival rate (up
    /// to the NIC cap) over the *total* entry count.
    pub fn blocking_latency_sharded(&self, per_shard_entries: &[u64]) -> f64 {
        let total: u64 = per_shard_entries.iter().sum();
        let active = per_shard_entries.iter().filter(|&&e| e > 0).count();
        self.with_shards(active.max(1)).blocking_latency(total)
    }

    /// The survivor-batch size the streamed runtime should frame at,
    /// read off the fan-in curve: with `shards` workers streaming
    /// concurrently, the aggregate outstanding entries across all
    /// in-flight batches should stay well inside the linear-service
    /// regime (a small fraction of [`backlog_halving`], past which the
    /// master's effective service rate degrades and Figure 9's
    /// super-linear buffering kicks in). Bigger batches amortize framing,
    /// so the result is clamped to a useful floor/ceiling.
    ///
    /// [`backlog_halving`]: MasterIngestModel::backlog_halving
    pub fn suggested_batch(&self, shards: usize) -> usize {
        let per_shard = self.backlog_halving / (256.0 * shards.max(1) as f64);
        (per_shard as usize).clamp(32, 8192)
    }

    /// The bounded-channel depth (frames buffered per shard) the streamed
    /// runtime should run at, derived from the link instead of a
    /// constant: roughly how many batches one shard's share of the
    /// downlink delivers while the master digests one batch
    /// (`arrival / service`), plus one in-flight slot. Deep enough that a
    /// paced sender never starves the merge plane, shallow enough that
    /// backpressure engages before the master's backlog regime.
    pub fn suggested_depth(&self, shards: usize) -> usize {
        let per_shard = self.arrival_rate.min(self.nic_cap_rate / shards.max(1) as f64);
        ((per_shard / self.base_service_rate).ceil() as usize + 1).clamp(2, 64)
    }

    /// The shard planner's cost query: the modelled master latency of
    /// ingesting `entries` survivors streamed concurrently by `shards`
    /// workers. This is the fan-in curve the planner walks to decide
    /// where adding a worker stops paying — the point where the raised
    /// aggregate arrival rate only piles up master backlog (§4.6) is
    /// where the modelled merge cost starts eating the pruning win.
    pub fn planning_latency(&self, shards: usize, entries: u64) -> f64 {
        self.with_shards(shards.max(1)).blocking_latency(entries)
    }

    /// The same model as seen by *one* of `concurrent` admitted queries
    /// fanning into the master at once — the serving plane's steady
    /// state. Two resources are shared:
    ///
    /// * the **downlink**: the co-running queries' survivor streams split
    ///   the NIC line rate, so this query's arrivals are capped at its
    ///   fair share of [`nic_cap_rate`](MasterIngestModel::nic_cap_rate);
    /// * the **completion operators**: the master is one machine, so the
    ///   per-query software service rate divides by the active query
    ///   count.
    ///
    /// `with_concurrency(1)` is the identity — a lone query sees the
    /// unshared model, which keeps single-client measurements comparable
    /// before and after the serving plane.
    pub fn with_concurrency(self, concurrent: usize) -> Self {
        let c = concurrent.max(1) as f64;
        Self {
            arrival_rate: self.arrival_rate.min(self.nic_cap_rate / c),
            base_service_rate: self.base_service_rate / c,
            ..self
        }
    }

    /// Blocking latency of one query's per-shard survivor streams when
    /// `concurrent` admitted queries share the master — shard fan-in
    /// raises this query's aggregate arrivals exactly as in
    /// [`blocking_latency_sharded`](MasterIngestModel::blocking_latency_sharded),
    /// then the concurrency share divides the downlink and the service
    /// rate. This is the price a serving session stamps on an admitted
    /// request's ingest phase.
    pub fn concurrent_latency(&self, per_shard_entries: &[u64], concurrent: usize) -> f64 {
        let total: u64 = per_shard_entries.iter().sum();
        let active = per_shard_entries.iter().filter(|&&e| e > 0).count();
        self.with_shards(active.max(1)).with_concurrency(concurrent).blocking_latency(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(service: f64) -> MasterIngestModel {
        MasterIngestModel {
            arrival_rate: 10_000_000.0,
            base_service_rate: service,
            backlog_halving: 2_000_000.0,
            nic_cap_rate: 40_000_000.0,
        }
    }

    #[test]
    fn zero_entries_zero_latency() {
        assert_eq!(model(1e6).blocking_latency(0), 0.0);
    }

    #[test]
    fn latency_grows_superlinearly_in_entries() {
        // Figure 9's key property: doubling the unpruned entries more than
        // doubles the blocking latency once buffering kicks in.
        let m = model(2_000_000.0);
        let t1 = m.blocking_latency(5_000_000);
        let t2 = m.blocking_latency(10_000_000);
        assert!(t2 > 2.0 * t1 * 1.05, "t1={t1}, t2={t2}");
    }

    #[test]
    fn fast_service_tracks_arrival() {
        // When the master can keep up, latency ≈ arrival time.
        let m = model(1e9);
        let t = m.blocking_latency(1_000_000);
        let arrive = 1_000_000.0 / m.arrival_rate;
        assert!((t - arrive).abs() < arrive * 0.2, "t={t}, arrive={arrive}");
    }

    #[test]
    fn slower_operators_take_longer() {
        // §8.3: SKYLINE's expensive software operator needs more pruning
        // than TOP N's heap for the same latency.
        let fast = model(5e6).blocking_latency(2_000_000);
        let slow = model(2e5).blocking_latency(2_000_000);
        assert!(slow > fast * 2.0);
    }

    #[test]
    fn shard_fan_in_scales_arrivals_up_to_the_nic_cap() {
        let m = model(1e9);
        assert_eq!(m.with_shards(1).arrival_rate, 10e6);
        assert_eq!(m.with_shards(2).arrival_rate, 20e6);
        // 8 shards would be 80 M/s but the 40G downlink caps it.
        assert_eq!(m.with_shards(8).arrival_rate, 40e6);
    }

    #[test]
    fn more_shards_ingest_a_fixed_stream_faster_until_the_master_chokes() {
        // A fast master drains the same total entries quicker when more
        // shards feed it concurrently (arrival-bound regime)…
        let m = model(1e9);
        let one = m.blocking_latency_sharded(&[4_000_000]);
        let four = m.blocking_latency_sharded(&[1_000_000; 4]);
        assert!(four < one, "one={one}, four={four}");
        // …while a slow master gains nothing: the §4.6 bottleneck — the
        // fan-in only piles up its backlog.
        let slow = model(5e5);
        let slow_one = slow.blocking_latency_sharded(&[4_000_000]);
        let slow_four = slow.blocking_latency_sharded(&[1_000_000; 4]);
        assert!(slow_four >= slow_one * 0.95, "one={slow_one}, four={slow_four}");
    }

    #[test]
    fn nic_cap_binds_a_directly_configured_arrival_rate() {
        // A per-flow rate above the NIC cap must not model a faster-than-
        // hardware ingest: the capped model matches an explicitly capped
        // one, and is slower than the uncapped rate would suggest.
        let over = MasterIngestModel { arrival_rate: 80e6, ..model(1e9) };
        let at_cap = MasterIngestModel { arrival_rate: 40e6, ..model(1e9) };
        let t_over = over.blocking_latency(4_000_000);
        let t_cap = at_cap.blocking_latency(4_000_000);
        assert!((t_over - t_cap).abs() < 1e-9, "over={t_over}, cap={t_cap}");
        assert!(t_over > 4_000_000.0 / 80e6, "must be slower than the uncapped arrival time");
    }

    #[test]
    fn planning_latency_matches_the_sharded_fan_in_model() {
        // The planner's cost query is exactly the fan-in latency a
        // balanced run of the same shape would be charged.
        let m = model(1e6);
        assert!(
            (m.planning_latency(4, 4_000_000) - m.blocking_latency_sharded(&[1_000_000; 4])).abs()
                < 1e-12
        );
        assert_eq!(m.planning_latency(8, 0), 0.0);
        // Zero shards clamps to one instead of dividing by nothing.
        assert!((m.planning_latency(0, 1_000) - m.planning_latency(1, 1_000)).abs() < 1e-12);
    }

    #[test]
    fn planning_latency_shows_a_fan_in_turn_for_a_slow_master() {
        // A service-bound master gains nothing from fan-in: more shards
        // never make the modelled merge faster, which is what stops the
        // planner from adding workers indefinitely.
        let slow = model(4e5);
        let one = slow.planning_latency(1, 2_000_000);
        let eight = slow.planning_latency(8, 2_000_000);
        assert!(eight >= one * 0.95, "one={one}, eight={eight}");
    }

    #[test]
    fn suggested_batch_shrinks_with_fan_in_and_stays_bounded() {
        let m = MasterIngestModel::default_rack();
        let mut last = usize::MAX;
        for shards in [1usize, 2, 4, 7, 16, 64, 1024] {
            let b = m.suggested_batch(shards);
            assert!((32..=8192).contains(&b), "batch {b} out of range");
            assert!(b <= last, "more shards must not grow the batch: {b} > {last}");
            last = b;
        }
        // Zero shards clamps to one instead of dividing by nothing.
        assert_eq!(m.suggested_batch(0), m.suggested_batch(1));
        // A tiny backlog budget still yields a workable batch.
        let tight = MasterIngestModel { backlog_halving: 1.0, ..m };
        assert_eq!(tight.suggested_batch(8), 32);
    }

    #[test]
    fn suggested_depth_follows_the_link_and_stays_bounded() {
        let m = MasterIngestModel::default_rack();
        // 10 M/s arrivals over a 2.5 M/s operator: four batches arrive
        // per batch digested, plus one in-flight slot.
        assert_eq!(m.suggested_depth(1), 5);
        assert_eq!(m.suggested_depth(4), 5, "NIC cap not binding yet");
        // At 8 shards each gets 5 M/s of the 40G downlink: shallower.
        assert_eq!(m.suggested_depth(8), 3);
        let mut last = usize::MAX;
        for shards in [1usize, 2, 4, 8, 16, 64, 1024] {
            let d = m.suggested_depth(shards);
            assert!((2..=64).contains(&d), "depth {d} out of range");
            assert!(d <= last, "more shards must not deepen the channel: {d} > {last}");
            last = d;
        }
        assert_eq!(m.suggested_depth(0), m.suggested_depth(1));
        // A very slow operator saturates the cap instead of exploding.
        let slow = MasterIngestModel { base_service_rate: 1.0, ..m };
        assert_eq!(slow.suggested_depth(1), 64);
    }

    // ------------------------------------------------------------------
    // Edge coverage of the fan-in model (the shapes the streamed runtime
    // and the planner both lean on).
    // ------------------------------------------------------------------

    #[test]
    fn empty_shard_list_has_zero_latency() {
        // No shards at all — not even empty ones — is a vacuous ingest.
        let m = model(1e6);
        assert_eq!(m.blocking_latency_sharded(&[]), 0.0);
    }

    #[test]
    fn all_zero_entry_shards_have_zero_latency() {
        let m = model(1e6);
        assert_eq!(m.blocking_latency_sharded(&[0, 0, 0, 0]), 0.0);
        // A single populated shard among zeros equals that shard alone.
        let sparse = m.blocking_latency_sharded(&[0, 123_456, 0]);
        let alone = m.blocking_latency_sharded(&[123_456]);
        assert!((sparse - alone).abs() < 1e-12);
    }

    #[test]
    fn planning_latency_is_monotone_non_increasing_in_shard_count() {
        // For a master fast enough to keep up, fan-in only helps (or
        // saturates); the curve the planner walks must never *rise* with
        // an extra worker at fixed total entries.
        let m = model(1e9);
        let mut last = f64::INFINITY;
        for shards in 1..=32usize {
            let t = m.planning_latency(shards, 3_000_000);
            assert!(t <= last + 1e-12, "latency rose at {shards} shards: {t} > {last}");
            last = t;
        }
    }

    #[test]
    fn nic_cap_saturates_the_fan_in_curve() {
        // Beyond cap/arrival shards the aggregate rate pins at the cap:
        // every further worker sees the identical modelled latency.
        let m = model(1e9); // cap 40 M/s over 10 M/s per-shard arrivals
        let at_cap = m.planning_latency(4, 2_000_000);
        for shards in [5usize, 8, 16, 100] {
            let t = m.planning_latency(shards, 2_000_000);
            assert!((t - at_cap).abs() < 1e-12, "{shards} shards: {t} vs {at_cap}");
        }
        assert_eq!(m.with_shards(100).arrival_rate, m.nic_cap_rate);
    }

    #[test]
    fn empty_shards_do_not_count_toward_fan_in() {
        let m = model(1e9);
        let sparse = m.blocking_latency_sharded(&[2_000_000, 0, 0, 0]);
        let dense = m.blocking_latency_sharded(&[2_000_000]);
        assert!((sparse - dense).abs() < 1e-9);
    }

    // ------------------------------------------------------------------
    // Concurrent fan-in: the serving plane's shared-master pricing.
    // ------------------------------------------------------------------

    #[test]
    fn concurrency_of_one_is_the_identity() {
        // A lone admitted query must see the unshared model, so
        // single-client measurements stay comparable before and after the
        // serving plane.
        let m = model(5e6);
        let alone = m.with_concurrency(1);
        assert_eq!(alone.arrival_rate, m.arrival_rate);
        assert_eq!(alone.base_service_rate, m.base_service_rate);
        let per_shard = [400_000u64, 300_000, 0, 200_000];
        let direct = m.blocking_latency_sharded(&per_shard);
        let priced = m.concurrent_latency(&per_shard, 1);
        assert!((direct - priced).abs() < 1e-12);
    }

    #[test]
    fn concurrent_latency_is_monotone_non_decreasing_in_query_count() {
        // More co-running queries can only slow this one down: the NIC
        // share shrinks and the master's operators are split further.
        let m = model(5e6);
        let per_shard = [500_000u64, 500_000, 500_000, 500_000];
        let mut last = 0.0f64;
        for c in 1..=16usize {
            let t = m.concurrent_latency(&per_shard, c);
            assert!(t >= last - 1e-12, "latency fell at concurrency {c}: {t} < {last}");
            last = t;
        }
        // And the slowdown is real, not a flat line.
        assert!(m.concurrent_latency(&per_shard, 8) > m.concurrent_latency(&per_shard, 1));
    }

    #[test]
    fn concurrency_splits_the_downlink_fair_share() {
        // With c queries fanning in, one query's arrivals are capped at
        // nic_cap/c even if its own shard fan-in could go higher.
        let m = model(1e9); // fast master: latency is arrival-dominated
        let c = 4usize;
        let shared = m.with_shards(100).with_concurrency(c);
        assert_eq!(shared.arrival_rate, m.nic_cap_rate / c as f64);
        // Zero concurrency is clamped to one, never a division blow-up.
        let clamped = m.with_concurrency(0);
        assert_eq!(clamped.arrival_rate, m.with_concurrency(1).arrival_rate);
    }
}
