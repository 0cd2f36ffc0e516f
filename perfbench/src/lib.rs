//! The repository benchmark's library: workloads, metric catalog, span
//! recorder and statistics. `src/main.rs` is the command; the tests under
//! `tests/` hold the catalog and `BENCHMARK.json` together.

pub mod common;
pub mod fig13;
pub mod node;
pub mod report;
pub mod serve;
pub mod spans;
pub mod stats;

/// Workload names, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["fig13-1k", "fig13-10k", "node-mux", "serve-open"];
