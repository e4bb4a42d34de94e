//! # ct-perfdb — the cross-run performance trajectory store
//!
//! Everything else in the workspace measures a *single* run. This crate
//! is the memory across runs: a versioned run-record schema
//! ([`RunRecord`], `ifdk-run/v1`) capturing machine provenance
//! ([`MachineInfo`] with a stable [`MachineInfo::fingerprint`] over the
//! CPU and the build's target features), run configuration
//! ([`RunConfig`]: kernel, layout, threads, problem size) and outcome
//! metrics (named `f64`s), appended to an append-only JSONL store
//! ([`PerfDb`]) keyed by machine fingerprint.
//!
//! The trajectory is the one perf baseline. `gups --record <path>` is
//! its one producer and `perfscope <path>` its one reader: it judges
//! each cell of the latest sweep against the same cell's earlier runs
//! on this machine with [`analytics::check_latest`] under
//! [`RegressionPolicy::default`] (robust [`analytics::median`] /
//! [`analytics::mad`] statistics over a fixed window).
//!
//! Records serialize through [`ct_obs::jsonw`] and parse through
//! `ct_obs::chrome::json` — the one JSON codec of the whole workspace,
//! which has no serialization dependency anywhere.
//!
//! ```
//! use ct_perfdb::{MachineInfo, RunConfig, RunRecord};
//!
//! let mut r = RunRecord::new("gups", 1_700_000_000_000, MachineInfo::detect());
//! r.config = RunConfig {
//!     kernel: "lanes".into(),
//!     layout: "transposed".into(),
//!     threads: 1,
//!     ..RunConfig::default()
//! };
//! r.set_metric("gups_median", 0.21);
//! let parsed = RunRecord::from_json(&r.to_json()).expect("round trip");
//! assert_eq!(parsed, r);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analytics;
pub mod machine;
pub mod record;
pub mod store;

pub use analytics::{RegressionPolicy, Verdict};
pub use machine::MachineInfo;
pub use record::{RunConfig, RunRecord, SCHEMA};
pub use store::{Filter, PerfDb};
