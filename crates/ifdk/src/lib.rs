//! # iFDK — instant high-resolution FDK image reconstruction
//!
//! A Rust reproduction of *"iFDK: A Scalable Framework for Instant
//! High-resolution Image Reconstruction"* (Chen, Wahib, Takizawa, Takano,
//! Matsuoka — SC '19): cone-beam CT reconstruction with the FDK algorithm,
//! from a single in-memory call up to a fully distributed pipeline over a
//! 2D grid of ranks with MPI-style collectives and PFS-style I/O.
//!
//! ## Quick start
//!
//! ```
//! use ct_core::{CbctGeometry, Dims2, Dims3};
//! use ct_core::phantom::Phantom;
//! use ct_core::forward::project_all_analytic;
//! use ifdk::{reconstruct, ReconOptions};
//!
//! // Scan a Shepp-Logan phantom (32 projections of 64x64) ...
//! let geo = CbctGeometry::standard(Dims2::new(64, 64), 32, Dims3::cube(32));
//! let projections = project_all_analytic(&geo, &Phantom::shepp_logan(10.0));
//!
//! // ... and reconstruct a 32^3 volume.
//! let volume = reconstruct(&geo, &projections, &ReconOptions::default()).unwrap();
//! assert_eq!(volume.dims(), Dims3::cube(32));
//! ```
//!
//! ## Crate map
//!
//! * [`reconstruct`] — single-node FDK, the two stages back to back
//!   (filtering on a [`ct_par::Pool`], back-projection with the paper's
//!   proposed kernel): the sequential reference and the Table 3 door.
//! * [`reconstruct_pipelined`] / [`reconstruct_pipelined_live`] — the two
//!   stages overlapped through a circular buffer like one iFDK rank does;
//!   `_live` runs it on a recorder mirrored into a `LiveRegistry`
//!   (stage counts and busy time, a ring probe for the stall watchdog).
//! * [`grid`] — the 2D rank-grid decomposition (paper Section 4.1.1).
//! * [`RingBuffer`] — the bounded circular buffers connecting pipeline
//!   threads (Section 4.1.3, Figure 4a), from [`ct_sync::ring`].
//! * [`distributed`] — the full framework: per-rank
//!   Filter/Main/Back-projection threads, per-projection ring AllGather
//!   within columns, one Reduce per row, PFS in/out (Sections
//!   4.1.1-4.1.4). The whole path is instrumented through `ct_obs`
//!   ([`DistConfig`] carries the recorder); [`model_divergence`] compares
//!   a measured run against the paper's analytic model (Eqs. 8-19).
//! * `pipeline` (private) — one function per stage (filter → gather →
//!   back-project → reduce/store); the pipelined, live and distributed
//!   entry points compose them. Grid planning (Section 4.1.5) is
//!   `ct_perfmodel::plan_grid`.
//! * [`report`] — machine-readable run reports shared by the examples,
//!   benchmarks and EXPERIMENTS.md; `RunReport::fold_observations`
//!   absorbs a `ct_obs` capture's per-stage aggregates.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod batch;
pub mod distributed;
pub mod grid;
mod pipeline;
pub mod report;
pub mod single;
pub mod streaming;

pub use ct_sync::ring::RingBuffer;
pub use distributed::{
    model_divergence, reconstruct_distributed, DistConfig, DistReport, LiveConfig,
};
pub use grid::RankGrid;
pub use single::{reconstruct, reconstruct_pipelined, reconstruct_pipelined_live, ReconOptions};
pub use streaming::StreamingReconstructor;
