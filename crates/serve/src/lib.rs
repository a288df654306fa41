//! # cheetah-serve — the multi-tenant serving plane
//!
//! Everything below this crate executes *one query at a time*: the db
//! crate's one-slice executor, the runtime's `execute` over a routed
//! plan, the compiled kernels. This crate is the front door the paper's
//! deployment story implies — a switch-accelerated database serves
//! *many tenants at once* — and it is the **one** public way in: callers
//! build a [`QueryRequest`] and hand it to a [`Session`]; which
//! transport runs, on which backend, over which shard layout, is the
//! session's business.
//!
//! The pipeline behind [`Session::submit`]:
//!
//! 1. **Admission** — a bounded in-flight gate; past capacity the
//!    request is refused *immediately* with [`Error::Overloaded`]
//!    (shed load, don't buffer it into memory growth).
//! 2. **Fair scheduling** — deficit round-robin over per-tenant
//!    queues, costed in input rows, so a flooding tenant cannot starve
//!    a light one.
//! 3. **Layout, for what comes back** — the session holds one entry
//!    per (query, tables) key. First sight runs the tables whole on one
//!    shard: no planner, no copy. A key that returns is routed, once,
//!    under a plan already held for this query over same-named tables
//!    of like size ([`StatsFingerprint::within`]), else one the
//!    [`ShardPlanner`](cheetah_db::ShardPlanner) fits from that run's
//!    measured survivors; from then on the entry's layout, and the plan
//!    it carries, is all a request consults.
//! 4. **The arm** — {barrier-pooled, streamed-resident} × {interpreted,
//!    compiled}, read off the request: what it pins, else the barrier
//!    on the compiled backend (the interpreter where the family has no
//!    kernel). Nothing is learned: with one encode → prune loop under
//!    both backends the arms differ by less than a selector's regret.
//!
//! Every arm produces bit-identical output — the serving plane
//! inherits the repo-wide invariant `Q(A_Q(D)) = Q(D)` — so admission
//! order, tenancy, and the arm affect *when* an answer arrives,
//! never *what* it says.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod request;
pub mod session;

pub use error::{Error, Result};
pub use request::QueryRequest;
pub use session::{QueryResponse, Session, SessionConfig, SessionStats, StatsFingerprint, Ticket};
