//! The workload table, input synthesis and the three entry points the
//! workloads drive.

use ct_core::forward::project_analytic;
use ct_core::noise::NoiseModel;
use ct_core::phantom::Phantom;
use ct_core::{CbctGeometry, CtError, Dims2, Dims3, ProjectionStack, Volume, VolumeLayout};
use ct_obs::Recorder;
use ct_pfs::PfsStore;
use ifdk::distributed::{download_volume, upload_projections};
use ifdk::{DistConfig, DistReport, RankGrid, ReconOptions};

/// Fabric traffic of one reconstruction: `(messages, bytes)`.
pub type Traffic = (u64, u64);

/// Which public `ifdk` entry point a workload times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// `ifdk::reconstruct`, one pool thread.
    Single,
    /// `ifdk::reconstruct_pipelined`, one pool thread plus its filter thread.
    Pipelined,
    /// `ifdk::reconstruct_distributed`, store to store, one thread per role.
    Distributed,
}

/// One row of the workload table. Sizes are the full-size problem;
/// [`Workload::geometry`] divides them for `--quick`.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Detector is `nu x nu`, the volume `n^3`.
    pub nu: usize,
    pub np: usize,
    pub n: usize,
    pub short_scan: bool,
    pub entry: Entry,
    /// Rank grid `(R, C)`; `(1, 1)` off the distributed path.
    pub grid: (usize, usize),
    /// 1.25 x the NRMSE against the voxelised phantom recorded with seed 1
    /// when the benchmark was defined.
    pub nrmse_ceiling: f64,
    /// What the fabric carries per reconstruction — exact, recorded in
    /// README.md.
    pub comm: Option<Traffic>,
    /// Whether the traced pass also times `backproject_standard`, the
    /// other side of the paper's 1.6x comparison.
    pub compare_standard: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "bp_heavy",
        nu: 256,
        np: 64,
        n: 192,
        short_scan: false,
        entry: Entry::Single,
        grid: (1, 1),
        nrmse_ceiling: 1.25 * 0.234725,
        comm: None,
        compare_standard: true,
    },
    Workload {
        name: "filter_heavy",
        nu: 512,
        np: 96,
        n: 48,
        short_scan: true,
        entry: Entry::Single,
        grid: (1, 1),
        nrmse_ceiling: 1.25 * 0.165444,
        comm: None,
        compare_standard: false,
    },
    Workload {
        name: "overlap",
        nu: 320,
        np: 192,
        n: 128,
        short_scan: false,
        entry: Entry::Pipelined,
        grid: (1, 1),
        nrmse_ceiling: 1.25 * 0.220507,
        comm: None,
        compare_standard: false,
    },
    Workload {
        name: "dist_2x2",
        nu: 320,
        np: 192,
        n: 128,
        short_scan: false,
        entry: Entry::Distributed,
        grid: (2, 2),
        nrmse_ceiling: 1.25 * 0.220507,
        comm: Some((218, 87_032_384)),
        compare_standard: false,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The acquisition geometry; `quick` divides every dimension by 4.
    pub fn geometry(&self, quick: bool) -> CbctGeometry {
        let div = if quick { 4 } else { 1 };
        let det = Dims2::new(self.nu / div, self.nu / div);
        let vol = Dims3::cube(self.n / div);
        if self.short_scan {
            CbctGeometry::standard_short_scan(det, self.np / div, vol)
        } else {
            CbctGeometry::standard(det, self.np / div, vol)
        }
    }

    /// `Nx*Ny*Nz*Np`: the voxel updates one reconstruction makes.
    pub fn updates(&self, quick: bool) -> usize {
        let geo = self.geometry(quick);
        geo.volume.len() * geo.num_projections
    }

    /// Compute threads the entry point runs, for the provenance header.
    pub fn threads(&self) -> &'static str {
        match self.entry {
            Entry::Single => "1 pool thread",
            Entry::Pipelined => "1 pool thread + 1 filter thread",
            Entry::Distributed => "4 ranks x 3 role threads, 1 pool thread per rank",
        }
    }
}

/// What a workload reconstructs from: generated from the seed, never
/// timed as set-up (it is load generation).
pub struct Inputs {
    pub geo: CbctGeometry,
    pub projections: ProjectionStack,
    /// The voxelised phantom the reconstruction is scored against.
    pub truth: Volume,
}

/// Shepp-Logan line integrals with photon noise; the seed changes only
/// the noise realisation. One projection at a time, each with a noise
/// stream of its own, so that a clean and a noisy stack are never alive
/// together: the process's peak RSS is then the reconstruction's, not the
/// generator's.
pub fn synthesize(w: &Workload, seed: u64, quick: bool) -> Inputs {
    let geo = w.geometry(quick);
    let phantom = Phantom::shepp_logan(0.45 * geo.volume.nx as f64);
    let mut projections = ProjectionStack::new(geo.detector);
    for pi in 0..geo.num_projections {
        let clean =
            ProjectionStack::from_images(geo.detector, vec![project_analytic(&geo, &phantom, pi)])
                .expect("the projector produces detector-shaped images");
        let noise = NoiseModel {
            i0: 1.0e5,
            seed: seed.wrapping_mul(1 << 16).wrapping_add(pi as u64),
        };
        for noisy in noise.apply(&clean).into_images() {
            projections
                .push(noisy)
                .expect("noise keeps the detector shape");
        }
    }
    let truth = phantom.voxelize(geo.volume, VolumeLayout::IMajor, |i, j, k| {
        geo.voxel_position(i, j, k)
    });
    Inputs {
        geo,
        projections,
        truth,
    }
}

pub fn single_opts() -> ReconOptions {
    ReconOptions {
        threads: 1,
        ..ReconOptions::default()
    }
}

pub fn dist_config(w: &Workload, geo: &CbctGeometry, obs: Recorder) -> DistConfig {
    let grid = RankGrid::new(w.grid.0, w.grid.1).expect("workload grids are nonempty");
    let mut cfg = DistConfig::new(geo.clone(), grid);
    cfg.threads_per_rank = 1;
    cfg.obs = obs;
    cfg
}

/// The projections uploaded to a fresh in-memory store.
pub fn input_store(projections: &ProjectionStack) -> Result<PfsStore, CtError> {
    let store = PfsStore::memory();
    upload_projections(&store, projections)?;
    Ok(store)
}

/// One distributed reconstruction, input store to a fresh output store.
pub fn run_distributed(
    cfg: &DistConfig,
    input: &PfsStore,
) -> Result<(PfsStore, DistReport), CtError> {
    let output = PfsStore::memory();
    let report = ifdk::reconstruct_distributed(cfg, input, &output)?;
    Ok((output, report))
}

/// A workload's entry point with its inputs staged: what one timed
/// reconstruction calls.
pub struct Staged<'a> {
    w: &'a Workload,
    inputs: &'a Inputs,
    /// The input store and run configuration, on the distributed path.
    dist: Option<(PfsStore, DistConfig)>,
}

impl<'a> Staged<'a> {
    /// Stage the inputs: nothing for the in-memory entry points, store
    /// creation and upload for the distributed one.
    pub fn new(w: &'a Workload, inputs: &'a Inputs) -> Result<Self, CtError> {
        let dist = match w.entry {
            Entry::Distributed => Some((
                input_store(&inputs.projections)?,
                dist_config(w, &inputs.geo, Recorder::off()),
            )),
            _ => None,
        };
        Ok(Self { w, inputs, dist })
    }

    /// The staged input store, on the distributed path.
    pub fn input(&self) -> Option<&PfsStore> {
        self.dist.as_ref().map(|(store, _)| store)
    }

    /// One reconstruction: the seconds from staged inputs to the finished
    /// volume (in memory, or in the output store), the volume itself
    /// (downloaded outside the timed part), and the fabric traffic on the
    /// distributed path.
    pub fn run(&self) -> Result<(f64, Volume, Option<Traffic>), CtError> {
        let (geo, projections) = (&self.inputs.geo, &self.inputs.projections);
        let t = std::time::Instant::now();
        if let Some((input, cfg)) = &self.dist {
            let (output, report) = run_distributed(cfg, input)?;
            let secs = t.elapsed().as_secs_f64();
            let vol = download_volume(&output, geo.volume)?;
            return Ok((secs, vol, Some((report.comm_messages, report.comm_bytes))));
        }
        let vol = match self.w.entry {
            Entry::Pipelined => ifdk::reconstruct_pipelined(geo, projections, &single_opts())?,
            _ => ifdk::reconstruct(geo, projections, &single_opts())?,
        };
        Ok((t.elapsed().as_secs_f64(), vol, None))
    }
}

/// 64-bit FNV-1a over the volume's voxel bit patterns: the repo's
/// determinism contract says every repetition produces the same bits.
pub fn volume_hash(vol: &Volume) -> u64 {
    vol.data().iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ u64::from(x.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// RMSE of `b` against `a`, relative to `a`'s RMS.
pub fn relative_rmse(a: &Volume, b: &Volume) -> Result<f64, CtError> {
    let square_sum: f64 = a.data().iter().map(|&x| f64::from(x).powi(2)).sum();
    let rms = (square_sum / a.data().len().max(1) as f64).sqrt();
    Ok(ct_core::metrics::rmse(a.data(), b.data())? / rms.max(f64::MIN_POSITIVE))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_meets_every_entry_points_shape_rules() {
        for w in &WORKLOADS {
            for quick in [false, true] {
                let geo = w.geometry(quick);
                let (r, c) = w.grid;
                let (np, nz) = (geo.num_projections, geo.volume.nz);
                assert!(geo.validate().is_ok(), "{}: geometry", w.name);
                assert_eq!(np % (r * c), 0, "{}: Np % (R*C)", w.name);
                assert_eq!(nz % (2 * r), 0, "{}: Nz % 2R", w.name);
                assert_eq!(nz % 2, 0, "{}: Nz even", w.name);
                if !quick {
                    assert_eq!(np % 32, 0, "{}: Np % 32", w.name);
                }
                assert_eq!(geo.is_full_scan(), !w.short_scan, "{}", w.name);
            }
            assert_eq!(w.comm.is_some(), w.entry == Entry::Distributed);
        }
    }

    #[test]
    fn names_are_unique_and_findable() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(std::ptr::eq(find(w.name).unwrap(), w));
            assert!(WORKLOADS[i + 1..].iter().all(|o| o.name != w.name));
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn hash_sees_single_bit_changes_and_rmse_is_relative() {
        let mut a = Volume::zeros(Dims3::cube(4), VolumeLayout::IMajor);
        a.data_mut().fill(2.0);
        let mut b = a.clone();
        assert_eq!(volume_hash(&a), volume_hash(&b));
        assert_eq!(relative_rmse(&a, &b).unwrap(), 0.0);
        b.data_mut()[5] = f32::from_bits(2.0f32.to_bits() + 1);
        assert_ne!(volume_hash(&a), volume_hash(&b));
        b.data_mut().fill(2.2);
        assert!((relative_rmse(&a, &b).unwrap() - 0.1).abs() < 1e-6);
    }
}
