//! spio-serve: concurrent read-serving engine over a written dataset.
//!
//! The write path (spio-core `Dataset`) lays particles out so that spatial
//! reads touch few files; this crate is the companion *read service* that
//! exploits that layout under concurrent load:
//!
//! - [`DatasetReader`](spio_core::DatasetReader) supplies the read path
//!   the serial reader uses: selection through the spatial index (an
//!   O(log n + k) probe instead of a linear metadata scan), the verified
//!   per-file fetch, and the query's filter;
//! - [`BlockCache`] keeps decoded per-file particle payloads, sharded and
//!   byte-budgeted, keyed by `(file, LOD prefix level)`;
//! - [`WorkerPool`] + [`AdmissionGate`] fan per-file work across threads
//!   while bounding how many queries hold memory at once;
//! - [`QueryEngine`] ties them together and degrades per file: a corrupt
//!   or missing file yields a partial result, never a failed query and
//!   never a poisoned cache entry.
//!
//! [`workload`] generates seeded multi-client query mixes and replays
//! them concurrently ([`replay`]) for the `spio serve-bench` CLI and the
//! read benchmark.

pub mod cache;
pub mod engine;
pub mod pool;
pub mod workload;

pub use cache::{block_cost, BlockCache, BlockKey, CacheStats};
pub use engine::{FileFailure, Query, QueryEngine, QueryResult, QueryStats, ServeConfig};
pub use pool::{AdmissionGate, Permit, WorkerPool};
pub use workload::{client_queries, hot_spot, replay, WorkloadSpec};
