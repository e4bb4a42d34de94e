//! # ct-perfdb — the cross-run performance trajectory store
//!
//! Everything else in the workspace measures a *single* run: `gups`
//! sweeps the kernel, `tracereport` scores pipeline overlap (Eqs. 8-19)
//! and gates ring stalls and watchdog trips. This crate is the memory those
//! measurements were missing: a versioned run-record schema
//! ([`RunRecord`], `ifdk-run/v1`) capturing machine provenance
//! ([`MachineInfo`] with a stable [`MachineInfo::fingerprint`]), run
//! configuration ([`RunConfig`]: kernel, threads, grid R×C, tile shape,
//! problem size) and outcome metrics (named `f64`s: GUPS median+MAD,
//! overlap efficiency, critical-path seconds, watchdog trips), appended to an
//! append-only JSONL store ([`PerfDb`]) keyed by machine fingerprint.
//!
//! On top of the store sit the analytics the ROADMAP's self-tuning item
//! needs ([`analytics`]): robust [`analytics::median`]/[`analytics::mad`]
//! statistics, MAD-based change-point and latest-run regression
//! detection over a configurable window, and median-of-last-K
//! auto-baseline selection so perf gates can follow the trajectory
//! instead of a hand-regenerated pinned file. The `perfscope` bench bin
//! is the query front-end; `gups`, `tracereport` and the distributed
//! example are the producers (`--record <path>`).
//!
//! Records serialize through [`ct_obs::jsonw`] and parse through
//! `ct_obs::chrome::json` — the one JSON codec of the whole workspace,
//! which has no serialization dependency anywhere — so the store works
//! in the zero-registry-dependency substrate, and `xtask` appends its
//! own records through this crate.
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

pub use analytics::{ChangePoint, Direction, RegressionPolicy, Verdict};
pub use machine::MachineInfo;
pub use record::{RunConfig, RunRecord, SCHEMA};
pub use store::{Filter, PerfDb};
