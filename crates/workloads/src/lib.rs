//! # cheetah-workloads — seeded benchmark data generators
//!
//! The paper evaluates on the Big Data benchmark (Rankings: 90M rows,
//! UserVisits: 775M rows) and TPC-H. Neither dataset ships with this
//! repository, so this crate generates **distribution-faithful synthetic
//! stand-ins** at configurable scale:
//!
//! * [`bigdata`] — Rankings (pageURL, pageRank nearly sorted, avgDuration)
//!   and UserVisits (nine columns, zipfian userAgent/languageCode, heavy-
//!   tailed adRevenue, destURLs drawn from Rankings for realistic join
//!   selectivity);
//! * [`tpch`] — a customer/orders/lineitem subset shaped for query Q3;
//! * [`streams`] — the raw value streams the Figure 10/11 pruning-rate
//!   simulations feed to individual algorithms (duplicate-controlled,
//!   random-order, 2-D points, keyed revenues, two-table keys);
//! * [`zipf`] — a seeded Zipf sampler (no external RNG dependency, so
//!   every experiment is reproducible from one `u64`);
//! * [`skew`] — zipf-skewed *partition* generators for the sharded
//!   execution experiments (unbalanced worker loads, hot keys);
//! * [`benchmark`] — the benchmark's four workloads as data: the tables,
//!   configs, seeds and queries of every key each one sends.
//!
//! Everything is deterministic in the seed. The pruning-rate results of
//! the paper depend on distributional properties (distinct counts, skew,
//! sortedness), which these generators reproduce; absolute row counts
//! default to CI-friendly scales and grow via parameters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benchmark;
pub mod bigdata;
pub mod skew;
pub mod streams;
pub mod tpch;
pub mod zipf;

pub use bigdata::{BigDataConfig, RANKINGS_SCHEMA, USERVISITS_SCHEMA};
pub use skew::{skewed_partition_sizes, PlannerAdversary, SkewedTableConfig};
pub use zipf::Zipf;
