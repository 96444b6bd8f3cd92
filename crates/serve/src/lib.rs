//! `sunstone-serve`: a persistent scheduler daemon with an on-disk
//! mapping store.
//!
//! The library crates answer one process's scheduling calls; real
//! deployments (compiler services, autotuners, design-space sweeps) ask
//! the *same* layers over and over across many short-lived client
//! processes. This crate keeps one long-lived [`Scheduler`] session —
//! result memo and worker pool — behind a Unix socket, and persists
//! every best mapping to disk so a restarted daemon answers repeated
//! layers from its store instead of re-searching.
//!
//! * [`wire`] — the length-prefixed JSON protocol and the self-contained
//!   workload/mapping encodings;
//! * [`store`] — the sharded, crash-safe, versioned append log of
//!   `(context fingerprint) → best mapping + cost`;
//! * [`server`] — the accept loop, the three-tier serve path
//!   (memo → search), and the startup warm-load that re-validates and
//!   re-prices every stored record;
//! * [`json`] — the minimal JSON layer everything above shares (the
//!   workspace's `serde` is a no-op stub).
//!
//! Start a daemon with the `sunstone-serve` binary:
//!
//! ```text
//! sunstone-serve --socket /tmp/sunstone.sock --store /var/lib/sunstone
//! ```
//!
//! and drive it with any client that speaks the frame protocol documented
//! in [`wire`]. Its pass/fail checks live in `tests/serve.rs`; its speed
//! is measured by the repo benchmark's `serve_hot` and `serve_churn`
//! workloads (`benchmark/run.sh --workload serve_hot`).
//!
//! [`Scheduler`]: sunstone::Scheduler

/// Serve-layer failpoint, compiled in only under the `fault-injection`
/// feature (which forwards to the core crate's registry). Points must be
/// listed in `sunstone::faultpoint::SERVE_POINTS`; see
/// `crates/core/src/faultpoint.rs` for the catalogue and semantics.
#[cfg(feature = "fault-injection")]
macro_rules! faultpoint {
    ($name:literal) => {
        sunstone::faultpoint::hit($name)
    };
}
#[cfg(not(feature = "fault-injection"))]
macro_rules! faultpoint {
    ($name:literal) => {};
}

pub mod crc;
pub mod json;
pub mod server;
pub mod store;
pub mod wire;

pub use server::{ServeConfig, ServeError, Server};
pub use store::{FsyncPolicy, MappingStore, StoreRecord, StoreStats};
