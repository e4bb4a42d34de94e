//! # ct-bp — FDK back-projection kernels
//!
//! This crate implements the paper's central algorithmic contribution: the
//! back-projection stage, in both the *standard* formulation (Algorithm 2,
//! as implemented by RTK / RabbitCT / OSCaR) and the *proposed*
//! formulation (Algorithm 4) that exploits the three geometric theorems of
//! Section 3.2.1 to cut the projection-coordinate arithmetic to 1/6 and to
//! access both the projections and the volume contiguously.
//!
//! Layout of the crate:
//!
//! * [`standard`] — Algorithm 2 verbatim (the correctness reference; the
//!   paper verifies against RTK's CPU output at RMSE < 1e-5).
//! * [`proposed`] — Algorithm 4 verbatim (serial, single projection at a
//!   time): half the z-loop via Theorem 1 symmetry, one inner product per
//!   voxel instead of three via Theorems 2-3, k-major volume, transposed
//!   projections.
//! * [`warp`] — the `shflBP` structure of Listing 1: a batch of
//!   `Nbatch = 32` projections processed per voxel column with the
//!   per-column `U`/`1/z` values shared across the whole column (the warp
//!   register exchange of the CUDA kernel becomes two stack arrays), and
//!   in-register accumulation so the volume is touched once per batch.
//!   Holds the [`warp::Sampler`] trait, the scalar column sweep and the
//!   one per-column update both loops below run.
//! * [`tiled`] — **the driver** every pipeline and batched variant runs:
//!   a slab pair is partitioned into i-blocks crossed with sub slab
//!   pairs, tiles are dispatched over [`ct_par::Pool`] with per-tile
//!   private output added into the caller's pair volume in tile order:
//!   bit-identical at any thread count and tile shape.
//! * [`pair`] — the symmetric slab pair, the unit of output decomposition
//!   in the distributed framework (each row of ranks owns a slab and its
//!   mirror — the `2*R` sub-volumes of the paper's Figure 3), and the
//!   **untiled reference loop** the driver is tested bit-identical to.
//! * [`lanes`] — the lane-array sampler of the hot column sweep:
//!   per-column bilinear weights resolved once per `(u, projection)`,
//!   depth loop in fixed `[f32; 8]` chunks of packed arithmetic and
//!   branch-free gathers. [`lanes::KernelImpl`] names the two samplers
//!   (scalar oracle; lanes, the default: bit-identical and faster).
//! * [`variant`] — the Table 3 kernel matrix (`RTK-32`, `Bp-Tex`,
//!   `Tex-Tran`, `Bp-L1`, `L1-Tran`) mapping the GPU texture/L1 access
//!   paths onto blocked / row-major / transposed CPU layouts.
//! * [`ablation`] — the proposed kernel with one optimisation off each.
//!
//! All kernels compute detector coordinates in `f32` (as the GPU does) and
//! produce identical results regardless of thread count: threads own
//! disjoint voxel ranges and accumulate projections in a fixed order.
//!
//! ```
//! use ct_bp::{backproject, backproject_standard, BpConfig};
//! use ct_core::{CbctGeometry, Dims2, Dims3};
//! use ct_core::projection::ProjectionStack;
//! use ct_core::volume::VolumeLayout;
//! use ct_par::Pool;
//!
//! let geo = CbctGeometry::standard(Dims2::new(32, 32), 8, Dims3::cube(16));
//! let mats = geo.projection_matrices();
//! let projs = ProjectionStack::zeros(geo.detector, 8);
//! let pool = Pool::serial();
//! // The proposed kernel agrees with the Algorithm 2 reference.
//! let fast = backproject(&pool, BpConfig::default(), &mats, &projs, geo.volume)
//!     .into_layout(VolumeLayout::IMajor);
//! let reference = backproject_standard(&pool, &mats, &projs, geo.volume);
//! assert_eq!(fast.dims(), reference.dims());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablation;
pub mod lanes;
pub mod pair;
pub mod proposed;
pub mod standard;
pub mod tiled;
pub mod variant;
pub mod warp;

pub use lanes::{KernelImpl, LaneSampler};
pub use pair::SlabPair;
pub use proposed::backproject_proposed;
pub use standard::{backproject_standard, backproject_standard_slab};
pub use tiled::{TileConfig, TileReport};
pub use variant::{backproject, BpConfig, KernelVariant};
pub use warp::{backproject_warp, WARP_BATCH};

/// The global FDK scale constant applied once to a fully accumulated
/// volume: `delta_beta * d^2 / 2` for a full-circle scan (Kak & Slaney
/// Eq. 3.87; the 1/2 because every ray family is measured twice over
/// `2*pi`), and `delta_beta * d^2` for a Parker short scan (whose weights
/// already normalise each family to single coverage).
///
/// The per-update weight inside every kernel is the paper's bare
/// `W = 1/z^2`; multiplying the accumulated volume by this constant
/// converts it to absolute attenuation values, so reconstructions can be
/// compared voxel-for-voxel against the analytic phantom.
pub fn fdk_scale(geo: &ct_core::CbctGeometry) -> f32 {
    let redundancy = if geo.is_full_scan() { 0.5 } else { 1.0 };
    (geo.angle_step() * geo.d * geo.d * redundancy) as f32
}
