//! A two-parameter cost model of the proposed back-projection kernel.
//!
//! The proposed kernel (paper Algorithm 4 / Listing 1) does a fixed amount
//! of work per voxel *column* — the two inner products, reciprocal and
//! `u`/`W` setup shared along z — plus a per-voxel amount (one inner
//! product, two interpolations for the symmetric pair). Its time to
//! back-project one projection over a slab of `nx * ny` columns of local
//! height `nz` is therefore:
//!
//! ```text
//! t_proj = nx * ny * (col_setup + per_voxel * nz)
//! ```
//!
//! Fitting the two constants to the paper's published throughputs —
//! ~189 GUPS effective on the 4K per-GPU slab (4096 x 4096 x 128,
//! Figure 5a: `T_bp = 54.8 s` minus the H2D term) and ~114 GUPS on the 8K
//! per-GPU slab (8192 x 8192 x 32, Figure 5b: `T_bp = 83.0 s`) — gives
//! `col_setup ~ 138 ps` and `per_voxel ~ 3.8 ps`, consistent with the
//! ~200 GUPS the paper reports for large self-contained volumes
//! (Table 4, `L1-Tran` column). The same model explains Table 4's trend
//! of GUPS falling as volumes get shallow (large `alpha`).

/// Cost model of the proposed kernel on one GPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelModel {
    /// Per-voxel-column setup time, seconds.
    pub col_setup_s: f64,
    /// Per-voxel update time, seconds.
    pub per_voxel_s: f64,
}

impl KernelModel {
    /// Constants fitted to the paper's V100 numbers.
    pub fn v100_proposed() -> Self {
        Self {
            col_setup_s: 1.38e-10,
            per_voxel_s: 3.83e-12,
        }
    }

    /// Seconds to back-project ONE projection over an
    /// `nx * ny * nz_local` slab.
    pub fn seconds_per_projection(&self, nx: usize, ny: usize, nz_local: usize) -> f64 {
        let cols = (nx * ny) as f64;
        cols * (self.col_setup_s + self.per_voxel_s * nz_local as f64)
    }

    /// Projections per second over the slab.
    pub fn projections_per_sec(&self, nx: usize, ny: usize, nz_local: usize) -> f64 {
        1.0 / self.seconds_per_projection(nx, ny, nz_local)
    }

    /// Effective kernel GUPS over the slab (updates = voxels per
    /// projection).
    pub fn gups(&self, nx: usize, ny: usize, nz_local: usize) -> f64 {
        let updates = (nx * ny * nz_local) as f64;
        updates / (self.seconds_per_projection(nx, ny, nz_local) * (1u64 << 30) as f64)
    }
}

impl Default for KernelModel {
    fn default() -> Self {
        Self::v100_proposed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_paper_4k_slab_throughput() {
        // 4K strong scaling, R=32: per-GPU slab 4096 x 4096 x 128.
        // Fig 5a theoretical T_bp = 54.8 s includes ~11.6 s of H2D, so the
        // kernel does 4,096 projections in ~43 s -> ~95 proj/s.
        let k = KernelModel::v100_proposed();
        let rate = k.projections_per_sec(4096, 4096, 128);
        assert!((rate - 95.0).abs() < 5.0, "{rate}");
        // Effective GUPS ~ 186-192.
        let g = k.gups(4096, 4096, 128);
        assert!((g - 189.0).abs() < 8.0, "{g}");
    }

    #[test]
    fn fits_paper_8k_slab_throughput() {
        // 8K strong scaling, R=256: per-GPU slab 8192 x 8192 x 32.
        // Fig 5b theoretical T_bp = 83.0 s minus ~11.6 s H2D -> ~57 proj/s.
        let k = KernelModel::v100_proposed();
        let rate = k.projections_per_sec(8192, 8192, 32);
        assert!((rate - 57.0).abs() < 4.0, "{rate}");
        let g = k.gups(8192, 8192, 32);
        assert!((g - 114.0).abs() < 8.0, "{g}");
    }

    #[test]
    fn deep_volumes_approach_asymptotic_gups() {
        // As nz grows the column setup amortises away and GUPS saturates
        // near 1 / per_voxel / 2^30 ~ 243; a self-contained 1k^3 volume
        // sits at ~235 model GUPS, bracketing the paper's measured
        // 206-211 (Table 4) from above since the measurement includes
        // volume write-back traffic the two-parameter model folds into
        // the slab fits.
        let k = KernelModel::v100_proposed();
        let g1k = k.gups(1024, 1024, 1024);
        assert!((g1k - 235.0).abs() < 12.0, "{g1k}");
        assert!(k.gups(1024, 1024, 4096) > g1k);
    }

    #[test]
    fn shallow_volumes_lose_throughput() {
        // Table 4's trend: large alpha (shallow output) -> lower GUPS.
        let k = KernelModel::v100_proposed();
        assert!(k.gups(128, 128, 128) > k.gups(512, 512, 8));
        let deep = k.gups(256, 256, 1024);
        let shallow = k.gups(2048, 2048, 16);
        assert!(deep > 1.5 * shallow);
    }

    #[test]
    fn per_projection_time_is_linear_in_columns() {
        let k = KernelModel::v100_proposed();
        let t1 = k.seconds_per_projection(100, 100, 64);
        let t4 = k.seconds_per_projection(200, 200, 64);
        assert!((t4 / t1 - 4.0).abs() < 1e-9);
    }
}
