//! # cheetah-serve — the multi-tenant serving plane
//!
//! Everything below this crate executes *one query at a time*: the db
//! crate's one-slice executor, the runtime's `execute` over a routed
//! plan, the compiled kernels. This crate is the front door the paper's
//! deployment story implies — a switch-accelerated database serves
//! *many tenants at once* — and it is the **one** public way in: callers
//! build a [`QueryRequest`] and hand it to a [`Session`]; which
//! path runs, on which backend, over which shard layout, is the
//! session's business.
//!
//! The pipeline behind [`Session::run_blocking`], all on the caller's
//! thread:
//!
//! 1. **Admission** — a bounded in-flight gate; past capacity the
//!    request is refused *immediately* with [`Error::Overloaded`]
//!    (shed load, don't buffer it into memory growth).
//! 2. **Layout, for what comes back** — the session holds one entry
//!    per (query, tables) key. First sight runs the tables whole on one
//!    shard: no planner, no copy. A key that returns is routed, once,
//!    under a plan already held for this query over same-named tables
//!    of like size ([`StatsFingerprint::within`]), else one the
//!    [`ShardPlanner`](cheetah_db::ShardPlanner) fits; from then on the
//!    entry's layout, and the plan it carries, is all a request consults.
//! 3. **The arm** — what the request pins, else what its key's stage
//!    says: `direct` (the operator's completion over every row — no
//!    switch program) at first sight; pruned, on the barrier and the
//!    compiled backend (the interpreter where the family has no kernel —
//!    the response reports the engine that ran), at the second, which answers and then runs the same layout
//!    direct: the key goes direct iff that run did less work (its jobs'
//!    busy time plus the merge, no time queued for a worker); that verdict
//!    from then on. Nothing is learned: one measured comparison, made once
//!    per key.
//!
//! Every arm produces bit-identical output — the serving plane
//! inherits the repo-wide invariant `Q(A_Q(D)) = Q(D)` — so concurrency,
//! tenancy, and the arm affect *when* an answer arrives, never *what* it
//! says.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod request;
pub mod session;

pub use error::{Error, Result};
pub use request::QueryRequest;
pub use session::{QueryResponse, Session, SessionConfig, SessionStats, StatsFingerprint};
