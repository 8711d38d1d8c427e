//! `dsbench`: end-to-end and per-layer benchmark for the DataSpread engine.
//!
//! See `README.md` in this directory for the workloads, the metrics and how
//! to read a trace. The binary is `src/main.rs`; this library holds the
//! pieces so `tests/` can exercise them.

pub mod compare;
pub mod host;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod record;
pub mod stats;
pub mod trace;
pub mod workloads;
