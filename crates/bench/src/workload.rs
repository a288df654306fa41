//! Multi-tenant serving workload generator: who asks what, when.
//!
//! The serving experiments replay the same deterministic request
//! schedules, so a latency difference between two runs is a
//! scheduling/serving difference, never a workload one.
//! Two arrival disciplines:
//!
//! * **closed-loop** — each tenant keeps exactly one request in flight:
//!   the next submits when the previous completes. Throughput is
//!   whatever the plane sustains; latency is pure service + queueing.
//! * **open-loop** — each tenant submits on a fixed schedule regardless
//!   of completions (the "millions of users" shape: arrivals don't wait
//!   for you). Falling behind the schedule shows up as queue growth.
//!
//! Query mix and arrival jitter derive from `mix64` over the seed, the
//! tenant index, and the request index — no RNG state, so any request's
//! identity can be recomputed independently.

use cheetah_db::DbQuery;
use cheetah_switch::hash::mix64;

/// How requests enter the plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalMode {
    /// One in-flight request per tenant; next issues on completion.
    Closed,
    /// Fixed-rate schedule per tenant (requests per second), with
    /// deterministic sub-interval jitter.
    Open {
        /// Offered load per tenant, requests per second.
        rate_per_sec: f64,
    },
}

/// One tenant's slice of the workload.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant id, as stamped into `ExecBreakdown::tenant`.
    pub name: String,
    /// Requests this tenant issues.
    pub requests: usize,
}

/// A reproducible multi-tenant request schedule over a shared query mix.
#[derive(Debug, Clone)]
pub struct ServingWorkload {
    /// The query shapes requests draw from.
    pub queries: Vec<DbQuery>,
    /// The tenants and their request counts.
    pub tenants: Vec<TenantSpec>,
    /// Arrival discipline.
    pub mode: ArrivalMode,
    /// Seed deriving the mix and the jitter.
    pub seed: u64,
}

impl ServingWorkload {
    /// A closed-loop workload: every named tenant issues `requests`
    /// requests drawn from `queries`.
    pub fn closed(names: &[&str], requests: usize, queries: Vec<DbQuery>, seed: u64) -> Self {
        Self {
            queries,
            tenants: names.iter().map(|n| TenantSpec { name: n.to_string(), requests }).collect(),
            mode: ArrivalMode::Closed,
            seed,
        }
    }

    /// An open-loop workload: every named tenant offers
    /// `rate_per_sec` requests per second until its `requests` run out.
    pub fn open(
        names: &[&str],
        requests: usize,
        queries: Vec<DbQuery>,
        rate_per_sec: f64,
        seed: u64,
    ) -> Self {
        let mut w = Self::closed(names, requests, queries, seed);
        w.mode = ArrivalMode::Open { rate_per_sec };
        w
    }

    /// Which query (index into [`queries`](ServingWorkload::queries))
    /// request `req` of tenant `tenant` runs. Pure function of the seed.
    pub fn query_index(&self, tenant: usize, req: usize) -> usize {
        let h = mix64(self.seed ^ ((tenant as u64) << 32) ^ req as u64);
        (h % self.queries.len().max(1) as u64) as usize
    }

    /// The query itself.
    pub fn query_of(&self, tenant: usize, req: usize) -> &DbQuery {
        &self.queries[self.query_index(tenant, req)]
    }

    /// When request `req` of tenant `tenant` enters the plane, seconds
    /// from workload start. `None` in closed-loop mode (arrivals are
    /// completion-driven, not scheduled).
    pub fn arrival_seconds(&self, tenant: usize, req: usize) -> Option<f64> {
        match self.mode {
            ArrivalMode::Closed => None,
            ArrivalMode::Open { rate_per_sec } => {
                // Deterministic jitter in [0, 1) of the interval keeps
                // tenants from submitting in lockstep.
                let h = mix64(self.seed ^ 0xA441 ^ ((tenant as u64) << 32) ^ req as u64);
                let jitter = (h >> 11) as f64 / (1u64 << 53) as f64;
                Some((req as f64 + jitter) / rate_per_sec.max(1e-9))
            }
        }
    }

    /// Requests across all tenants.
    pub fn total_requests(&self) -> usize {
        self.tenants.iter().map(|t| t.requests).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix() -> Vec<DbQuery> {
        vec![
            DbQuery::Distinct { col: 0 },
            DbQuery::GroupByMax { key_col: 0, val_col: 1 },
            DbQuery::TopN { order_col: 1, n: 10 },
        ]
    }

    #[test]
    fn schedules_are_reproducible_and_seed_sensitive() {
        let a = ServingWorkload::closed(&["t0", "t1"], 50, mix(), 42);
        let b = ServingWorkload::closed(&["t0", "t1"], 50, mix(), 42);
        let c = ServingWorkload::closed(&["t0", "t1"], 50, mix(), 43);
        let seq =
            |w: &ServingWorkload| -> Vec<usize> { (0..50).map(|r| w.query_index(0, r)).collect() };
        assert_eq!(seq(&a), seq(&b), "same seed, same schedule");
        assert_ne!(seq(&a), seq(&c), "different seed, different schedule");
    }

    #[test]
    fn the_mix_covers_every_query_shape() {
        let w = ServingWorkload::closed(&["a", "b", "c", "d"], 64, mix(), 7);
        let mut seen = vec![false; w.queries.len()];
        for t in 0..w.tenants.len() {
            for r in 0..64 {
                seen[w.query_index(t, r)] = true;
            }
        }
        assert!(seen.iter().all(|s| *s), "64 requests x 4 tenants hit all shapes");
        assert_eq!(w.total_requests(), 256);
    }

    #[test]
    fn open_arrivals_are_monotone_and_rate_shaped() {
        let w = ServingWorkload::open(&["a"], 100, mix(), 200.0, 11);
        let times: Vec<f64> =
            (0..100).map(|r| w.arrival_seconds(0, r).expect("open mode schedules")).collect();
        for pair in times.windows(2) {
            assert!(pair[1] > pair[0], "arrivals must be strictly increasing");
        }
        // 100 requests at 200/s span ~half a second.
        assert!(times[99] < 0.51 && times[99] > 0.49, "last arrival at {}", times[99]);
        // Closed mode has no schedule.
        let closed = ServingWorkload::closed(&["a"], 10, mix(), 11);
        assert_eq!(closed.arrival_seconds(0, 0), None);
    }
}
