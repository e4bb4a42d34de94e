//! The iFDK performance model — paper Section 4.2, Eqs. 8-19 — and the
//! `R`/`C` grid planner of Section 4.1.5.

use crate::kernel::KernelModel;
use crate::machine::MachineConfig;

const F32: f64 = 4.0; // sizeof(float), as the paper writes it

/// Everything the model needs to evaluate one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelInput {
    /// Detector width `Nu`.
    pub nu: usize,
    /// Detector height `Nv`.
    pub nv: usize,
    /// Number of projections `Np`.
    pub np: usize,
    /// Volume dims.
    pub nx: usize,
    /// Volume dims.
    pub ny: usize,
    /// Volume dims.
    pub nz: usize,
    /// Rows of the rank grid (`R`): output decomposition factor.
    pub r: usize,
    /// Columns of the rank grid (`C`): input decomposition factor.
    pub c: usize,
    /// Machine constants.
    pub machine: MachineConfig,
    /// Back-projection kernel cost model.
    pub kernel: KernelModel,
}

impl ModelInput {
    /// The paper's 4K problem (`2048^2 x 4096 -> 4096^3`) on `n_gpus`
    /// V100s with the paper's `R = 32`.
    pub fn paper_4k(n_gpus: usize) -> Self {
        Self {
            nu: 2048,
            nv: 2048,
            np: 4096,
            nx: 4096,
            ny: 4096,
            nz: 4096,
            r: 32,
            c: n_gpus / 32,
            machine: MachineConfig::abci(),
            kernel: KernelModel::v100_proposed(),
        }
    }

    /// The paper's 8K problem (`2048^2 x 4096 -> 8192^3`) with `R = 256`.
    pub fn paper_8k(n_gpus: usize) -> Self {
        Self {
            nu: 2048,
            nv: 2048,
            np: 4096,
            nx: 8192,
            ny: 8192,
            nz: 8192,
            r: 256,
            c: n_gpus / 256,
            machine: MachineConfig::abci(),
            kernel: KernelModel::v100_proposed(),
        }
    }

    /// Total ranks / GPUs (`Nranks = C * R`, Eqs. 4 and 6).
    pub fn n_gpus(&self) -> usize {
        self.r * self.c
    }

    /// Sub-volume bytes per GPU (`sizeof(float) * Nx*Ny*Nz / R`).
    pub fn sub_volume_bytes(&self) -> f64 {
        F32 * (self.nx as f64) * (self.ny as f64) * (self.nz as f64) / self.r as f64
    }

    /// Local slab height per GPU (`Nz / R` slices, as a symmetric pair).
    pub fn nz_local(&self) -> usize {
        self.nz / self.r
    }

    /// Bytes of one projection.
    pub fn projection_bytes(&self) -> f64 {
        F32 * self.nu as f64 * self.nv as f64
    }

    /// AllGather operations per rank (`Nproj_per_rank = Np / (C*R)`,
    /// Eq. 5).
    pub fn ops_per_rank(&self) -> usize {
        self.np / (self.c * self.r)
    }

    /// Validate divisibility and machine constants.
    pub fn validate(&self) -> Result<(), String> {
        self.machine.validate()?;
        if self.r == 0 || self.c == 0 {
            return Err("R and C must be >= 1".into());
        }
        if !self.np.is_multiple_of(self.r * self.c) {
            return Err(format!(
                "Np = {} must divide by R*C = {}",
                self.np,
                self.r * self.c
            ));
        }
        if !self.nz.is_multiple_of(2 * self.r) {
            return Err(format!(
                "Nz = {} must divide into 2*R = {} symmetric half-slabs",
                self.nz,
                2 * self.r
            ));
        }
        // GPU memory constraint of Section 4.1.5:
        // sub_volume + Nu*Nv*Nbatch floats must fit.
        let need = self.sub_volume_bytes() + self.projection_bytes() * 32.0;
        if need > self.machine.gpu_mem_bytes as f64 {
            return Err(format!(
                "sub-volume + projection batch ({:.1} GiB) exceeds GPU memory ({:.1} GiB)",
                need / (1u64 << 30) as f64,
                self.machine.gpu_mem_bytes as f64 / (1u64 << 30) as f64
            ));
        }
        Ok(())
    }
}

/// Per-stage model times, in seconds (Eqs. 8-19).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelBreakdown {
    /// Eq. 8: reading projections from the PFS.
    pub t_load: f64,
    /// Eq. 9: CPU filtering.
    pub t_flt: f64,
    /// Eq. 10 (ring refinement): per-projection AllGather total.
    pub t_allgather: f64,
    /// Eq. 11: host-to-device copies.
    pub t_h2d: f64,
    /// Eq. 12: back-projection (includes `t_h2d`).
    pub t_bp: f64,
    /// Eq. 13: on-GPU sub-volume transpose.
    pub t_trans: f64,
    /// Eq. 14: device-to-host copy of the sub-volume.
    pub t_d2h: f64,
    /// Eq. 15: sub-volume reduction (zero when `C = 1`).
    pub t_reduce: f64,
    /// Eq. 16: storing the volume to the PFS.
    pub t_store: f64,
    /// Eq. 17: the overlapped compute phase.
    pub t_compute: f64,
    /// Eq. 18: the post phase.
    pub t_post: f64,
    /// Eq. 19: end-to-end runtime.
    pub t_runtime: f64,
    /// End-to-end GUPS (Section 2.3).
    pub gups: f64,
}

impl ModelBreakdown {
    /// Evaluate the model for an input.
    pub fn evaluate(input: &ModelInput) -> ModelBreakdown {
        let m = &input.machine;
        let (nu, nv, np) = (input.nu as f64, input.nv as f64, input.np as f64);
        let (nx, ny, nz) = (input.nx as f64, input.ny as f64, input.nz as f64);
        let (r, c) = (input.r as f64, input.c as f64);
        let gpn = m.gpus_per_node as f64;

        // Eq. 8.
        let t_load = F32 * nu * nv * np / m.bw_load;
        // Eq. 9 (Nnodes = C*R / gpus_per_node).
        let t_flt = np * gpn / (c * r * m.th_flt);
        // Eq. 10 with the ring-algorithm per-operation cost: each of the
        // Np/(C*R) operations circulates (R-1) blocks of one projection
        // around the column ring.
        let ops = np / (c * r);
        let t_allgather = ops * (r - 1.0) * input.projection_bytes() / m.allgather_bw;
        // Eq. 11.
        let t_h2d = F32 * gpn * nu * nv * np / (c * m.pcie_bw * m.pcie_links_h2d as f64);
        // Eq. 12: H2D plus the kernel over the per-GPU symmetric slab.
        let t_kernel = (np / c)
            * input
                .kernel
                .seconds_per_projection(input.nx, input.ny, input.nz_local());
        let t_bp = t_h2d + t_kernel;
        // Eq. 13.
        let t_trans = input.sub_volume_bytes() / m.th_trans;
        // Eq. 14.
        let t_d2h = gpn * input.sub_volume_bytes() / (m.pcie_bw * m.pcie_links_d2h as f64);
        // Eq. 15 (no reduction when a column group is a single rank).
        let t_reduce = if input.c > 1 {
            input.sub_volume_bytes() / m.th_reduce
        } else {
            0.0
        };
        // Eq. 16.
        let t_store = F32 * nx * ny * nz / m.bw_store;
        // Eq. 17.
        let t_compute = t_load.max(t_flt).max(t_allgather).max(t_bp);
        // Eq. 18 (T_trans << T_D2H/10 is dropped, as the paper does).
        let t_post = t_d2h + t_reduce + t_store;
        // Eq. 19.
        let t_runtime = t_compute + t_post;
        let updates = nx * ny * nz * np;
        let gups = updates / (t_runtime * (1u64 << 30) as f64);

        ModelBreakdown {
            t_load,
            t_flt,
            t_allgather,
            t_h2d,
            t_bp,
            t_trans,
            t_d2h,
            t_reduce,
            t_store,
            t_compute,
            t_post,
            t_runtime,
            gups,
        }
    }

    /// The paper's Table 5 overlap ratio
    /// `delta = (T_flt + T_AllGather + T_bp) / T_compute`.
    pub fn delta(&self) -> f64 {
        (self.t_flt + self.t_allgather + self.t_bp) / self.t_compute
    }
}

/// A planned 2D rank grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridPlan {
    /// Rows (`R`): number of slab pairs the output is split into.
    pub r: usize,
    /// Columns (`C`): number of input projection groups.
    pub c: usize,
    /// Sub-volume bytes per GPU implied by `R`.
    pub sub_volume_bytes: u64,
}

/// The Section 4.1.5 planner: choose the smallest power-of-two `R` whose
/// sub-volumes fit in GPU memory (leaving room for a 32-projection batch),
/// then `C = n_gpus / R` — minimising `R` and maximising `C`, as the paper
/// argues.
pub fn plan_grid(
    nu: usize,
    nv: usize,
    nx: usize,
    ny: usize,
    nz: usize,
    n_gpus: usize,
    machine: &MachineConfig,
) -> Result<GridPlan, String> {
    if n_gpus == 0 || !n_gpus.is_power_of_two() {
        return Err(format!("n_gpus = {n_gpus} must be a nonzero power of two"));
    }
    let vol_bytes = 4u64 * nx as u64 * ny as u64 * nz as u64;
    let batch_bytes = 4u64 * nu as u64 * nv as u64 * 32;
    if batch_bytes >= machine.gpu_mem_bytes {
        return Err("projection batch alone exceeds GPU memory".into());
    }
    let budget = machine.gpu_mem_bytes - batch_bytes;
    // Smallest power-of-two R with vol_bytes / R <= budget; the paper also
    // caps sub-volumes at 8 GB on 16 GB GPUs (dual-buffer headroom).
    let cap = budget.min(8 * (1 << 30));
    let mut r = 1usize;
    while vol_bytes.div_ceil(r as u64) > cap {
        r = r.checked_mul(2).ok_or_else(|| "R overflow".to_string())?;
    }
    if r > n_gpus {
        return Err(format!(
            "problem needs R = {r} GPUs just to hold the volume, but only {n_gpus} available"
        ));
    }
    if !nz.is_multiple_of(2 * r) {
        return Err(format!(
            "Nz = {nz} cannot split into 2*R = {} half-slabs",
            2 * r
        ));
    }
    Ok(GridPlan {
        r,
        c: n_gpus / r,
        sub_volume_bytes: vol_bytes / r as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol_frac: f64) -> bool {
        (a - b).abs() <= tol_frac * b.abs().max(1e-12)
    }

    #[test]
    fn paper_inputs_validate() {
        for g in [32, 64, 128, 256, 512, 1024, 2048] {
            ModelInput::paper_4k(g).validate().unwrap();
        }
        for g in [256, 512, 1024, 2048] {
            ModelInput::paper_8k(g).validate().unwrap();
        }
    }

    #[test]
    fn validation_catches_bad_divisibility() {
        let mut i = ModelInput::paper_4k(32);
        i.np = 1000; // not divisible by 32
        assert!(i.validate().is_err());
        let mut i = ModelInput::paper_4k(32);
        i.nz = 100; // not divisible by 2R = 64
        assert!(i.validate().is_err());
        let mut i = ModelInput::paper_4k(32);
        i.r = 1; // 256 GB sub-volume in a 16 GB GPU
        assert!(i.validate().is_err());
    }

    #[test]
    fn fig5a_theoretical_compute_series() {
        // Paper Figure 5a "peak" T_compute for 4K strong scaling:
        // 32 -> 54.8, 64 -> 27.5, 128 -> 14.0, 256 -> 7.0, 512 -> 3.5,
        // 1024 -> 1.8, 2048 -> 0.9 (dominated by T_bp until the tail).
        let expect = [(32, 54.8), (64, 27.5), (128, 14.0), (256, 7.0), (512, 3.5)];
        for (g, t) in expect {
            let b = ModelBreakdown::evaluate(&ModelInput::paper_4k(g));
            assert!(
                close(b.t_compute, t, 0.08),
                "{g} GPUs: {} vs paper {t}",
                b.t_compute
            );
        }
    }

    #[test]
    fn fig5a_theoretical_post_series() {
        let b = ModelBreakdown::evaluate(&ModelInput::paper_4k(128));
        // Paper: D2H 2.6 (the paper rounds 32 GiB / 11.9 GB/s down),
        // store 9.0, reduce 2.7.
        assert!(close(b.t_d2h, 2.6, 0.12), "{}", b.t_d2h);
        assert!(close(b.t_store, 9.0, 0.05), "{}", b.t_store);
        assert!(close(b.t_reduce, 2.7, 0.05), "{}", b.t_reduce);
        // C = 1 -> no reduction.
        let b32 = ModelBreakdown::evaluate(&ModelInput::paper_4k(32));
        assert_eq!(b32.t_reduce, 0.0);
    }

    #[test]
    fn fig5b_theoretical_compute_series() {
        // Paper Figure 5b: 256 -> 83.0, 512 -> 41.5, 1024 -> 20.8,
        // 2048 -> 10.4.
        for (g, t) in [(256, 83.0), (512, 41.5), (1024, 20.8), (2048, 10.4)] {
            let b = ModelBreakdown::evaluate(&ModelInput::paper_8k(g));
            assert!(
                close(b.t_compute, t, 0.08),
                "{g} GPUs: {} vs paper {t}",
                b.t_compute
            );
        }
        // Store of the 2 TB volume ~ 72-78 s.
        let b = ModelBreakdown::evaluate(&ModelInput::paper_8k(512));
        assert!(b.t_store > 70.0 && b.t_store < 80.0, "{}", b.t_store);
    }

    #[test]
    fn table5_allgather_magnitudes() {
        // Table 5: 4K at 32 GPUs T_AllGather = 31.4 s; 8K at 256 GPUs
        // T_AllGather = 46.9 s. The ring model lands within ~35 %.
        let b = ModelBreakdown::evaluate(&ModelInput::paper_4k(32));
        assert!(close(b.t_allgather, 31.4, 0.2), "{}", b.t_allgather);
        let b = ModelBreakdown::evaluate(&ModelInput::paper_8k(256));
        assert!(close(b.t_allgather, 46.9, 0.35), "{}", b.t_allgather);
    }

    #[test]
    fn delta_indicates_overlap_win() {
        // Paper Table 5: delta in 1.2-1.6 — overlap hides real work.
        for g in [32, 64, 128, 256] {
            let b = ModelBreakdown::evaluate(&ModelInput::paper_4k(g));
            let d = b.delta();
            assert!(d > 1.0 && d < 2.5, "{g} GPUs: delta {d}");
        }
    }

    #[test]
    fn fig6_gups_at_2048_gpus() {
        // Paper Figure 6: 8K at 2,048 GPUs ~ 22,599 GUPS end-to-end.
        let b = ModelBreakdown::evaluate(&ModelInput::paper_8k(2048));
        assert!(close(b.gups, 22599.0, 0.1), "{}", b.gups);
        // 4K at 2,048 GPUs ~ 20,480 GUPS; the post phase (D2H + reduce +
        // store, ~14 s) dominates there and the model sits ~20 % under
        // the published point.
        let b = ModelBreakdown::evaluate(&ModelInput::paper_4k(2048));
        assert!(b.gups > 14_000.0 && b.gups < 24_000.0, "{}", b.gups);
    }

    #[test]
    fn strong_scaling_is_monotonic() {
        let mut last = f64::INFINITY;
        for g in [32, 64, 128, 256, 512, 1024, 2048] {
            let b = ModelBreakdown::evaluate(&ModelInput::paper_4k(g));
            assert!(b.t_compute < last, "{g} GPUs not faster");
            last = b.t_compute;
        }
    }

    #[test]
    fn planner_reproduces_paper_grids() {
        let m = MachineConfig::abci();
        // 4K on any power-of-two GPU count >= 32 -> R = 32 (8 GB subvols).
        let p = plan_grid(2048, 2048, 4096, 4096, 4096, 128, &m).unwrap();
        assert_eq!(p.r, 32);
        assert_eq!(p.c, 4);
        assert_eq!(p.sub_volume_bytes, 8 << 30);
        // 8K -> R = 256.
        let p = plan_grid(2048, 2048, 8192, 8192, 8192, 2048, &m).unwrap();
        assert_eq!(p.r, 256);
        assert_eq!(p.c, 8);
        // Too few GPUs for the volume.
        assert!(plan_grid(2048, 2048, 8192, 8192, 8192, 128, &m).is_err());
        // Non-power-of-two GPU count.
        assert!(plan_grid(2048, 2048, 4096, 4096, 4096, 96, &m).is_err());
    }

    #[test]
    fn planner_small_problem_fits_one_gpu() {
        let m = MachineConfig::abci();
        let p = plan_grid(512, 512, 1024, 1024, 1024, 4, &m).unwrap();
        assert_eq!(p.r, 1);
        assert_eq!(p.c, 4);
    }

    #[test]
    fn weak_scaling_compute_is_flat() {
        // Fig 5c: Np = 16 * n_gpus, R = 32 -> T_compute roughly constant.
        let mut times = Vec::new();
        for g in [32usize, 128, 512, 2048] {
            let mut i = ModelInput::paper_4k(g);
            i.np = 16 * g;
            times.push(ModelBreakdown::evaluate(&i).t_compute);
        }
        let (min, max) = times.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &t| {
            (lo.min(t), hi.max(t))
        });
        assert!(max / min < 1.25, "weak scaling spread {times:?}");
    }
}
