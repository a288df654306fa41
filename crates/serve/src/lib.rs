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
//!    shard: no copy. A key that returns is routed, once, its rows laid
//!    out over the cores by the one shard-count rule
//!    ([`cheetah_db::planner::units`]: a unit per `ROWS_PER_UNIT` rows, at
//!    most two per pool worker), hash-routed as a pin of that count is
//!    (one unit is the caller's tables); from then on the entry's layout
//!    is all a request consults. Each of those decisions is one
//!    critical section of the crate's `lifecycle` module (a sight, then a
//!    settle), explored over every interleaving of racing requests by that
//!    module's checker.
//! 3. **The arm** — the request's alone: a path pin names its path; a
//!    backend or shard pin asks for the pruned arm, the barrier on the
//!    pinned backend or else the compiled one (the interpreter where the
//!    family has no kernel — the response reports the engine that ran);
//!    anything else runs `direct`, the operator's completion over every
//!    row with no switch program, at every sight. The arm census
//!    (`cheetah-experiments census`) is why: on every key the benchmark
//!    sends, the pruned arm used more CPU than the direct one.
//!
//! Every arm produces bit-identical output — the serving plane
//! inherits the repo-wide invariant `Q(A_Q(D)) = Q(D)` — so concurrency,
//! tenancy, and the arm affect *when* an answer arrives, never *what* it
//! says.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
mod lifecycle;
pub mod request;
pub mod session;

pub use error::{Error, Result};
pub use request::QueryRequest;
pub use session::{QueryResponse, Session, SessionConfig, SessionStats, StatsFingerprint};
