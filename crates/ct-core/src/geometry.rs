//! Cone-beam CT acquisition geometry (paper Section 2.2.1 and 3.2.1).
//!
//! The geometry follows the paper's Figure 1 exactly:
//!
//! * A micro-focus X-ray source `S` and a flat-panel detector (FPD) are
//!   rigidly coupled and rotate together about the world Z axis.
//! * `d` is the distance from the source to the rotation (Z) axis and `D`
//!   the distance from the source to the detector centre, both in *pixel*
//!   units (Table 1).
//! * Voxel indices `(i, j, k)` map to world millimetres through `M0`,
//!   the gantry rotation through `Mrot`, and the perspective projection
//!   onto the FPD through `M1`. The 3x4 projection matrix is
//!   `P = (M1 * Mrot * M0)[0:3]` (Eq. 2).
//!
//! The module also hosts executable statements of the paper's three
//! theorems (Section 3.2.1), which the proposed back-projection algorithm
//! (Algorithm 4) and the `shflBP`-style kernels rely on. They are verified
//! numerically by this module's tests and by property tests.

use crate::error::{CtError, Result};
use crate::math::{Mat3x4, Mat4, Vec3, Vec4};
use crate::problem::{Dims2, Dims3};

/// Complete CBCT scan geometry — the paper's Table 1 parameter list.
#[derive(Debug, Clone, PartialEq)]
pub struct CbctGeometry {
    /// Detector dimensions (`Nu`, `Nv`) in pixels.
    pub detector: Dims2,
    /// Detector pixel pitch in U (mm/pixel) — Table 1 `Du`.
    pub du: f64,
    /// Detector pixel pitch in V (mm/pixel) — Table 1 `Dv`.
    pub dv: f64,
    /// Source-to-rotation-axis distance — Table 1 `d`.
    pub d: f64,
    /// Source-to-detector distance — Table 1 `D`.
    pub big_d: f64,
    /// Volume dimensions (`Nx`, `Ny`, `Nz`) in voxels.
    pub volume: Dims3,
    /// Voxel pitch in X, Y, Z (mm/voxel) — Table 1 `Dx`, `Dy`, `Dz`.
    pub voxel_pitch: [f64; 3],
    /// Number of projections over the angular range — Table 1 `Np`.
    pub num_projections: usize,
    /// Angular range of the scan in radians: `2*pi` for the paper's full
    /// circular trajectory, `pi + 2*fan_half_angle` for a Parker
    /// short scan.
    pub angular_range: f64,
}

impl CbctGeometry {
    /// Validate the geometry.
    // `!(x > 0.0)` is deliberate: it rejects NaN along with
    // non-positive values, which `x <= 0.0` would let through.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn validate(&self) -> Result<()> {
        if self.detector.is_empty() {
            return Err(CtError::InvalidGeometry("empty detector".into()));
        }
        if self.volume.is_empty() {
            return Err(CtError::InvalidGeometry("empty volume".into()));
        }
        if self.num_projections == 0 {
            return Err(CtError::InvalidGeometry("Np must be >= 1".into()));
        }
        if !(self.angular_range > 0.0) || self.angular_range > 2.0 * std::f64::consts::PI + 1e-9 {
            return Err(CtError::InvalidGeometry(format!(
                "angular range {} outside (0, 2*pi]",
                self.angular_range
            )));
        }
        if !self.is_full_scan()
            && self.angular_range + 1e-9 < std::f64::consts::PI + 2.0 * self.fan_half_angle()
        {
            return Err(CtError::InvalidGeometry(format!(
                "short-scan range {} below the Parker minimum pi + 2*delta = {}",
                self.angular_range,
                std::f64::consts::PI + 2.0 * self.fan_half_angle()
            )));
        }
        if !(self.d > 0.0) {
            return Err(CtError::InvalidGeometry(format!(
                "d = {} must be > 0",
                self.d
            )));
        }
        if !(self.big_d > 0.0) {
            return Err(CtError::InvalidGeometry(format!(
                "D = {} must be > 0",
                self.big_d
            )));
        }
        if self.big_d < self.d {
            return Err(CtError::InvalidGeometry(format!(
                "D = {} must be >= d = {} (detector behind the object)",
                self.big_d, self.d
            )));
        }
        if !(self.du > 0.0 && self.dv > 0.0) {
            return Err(CtError::InvalidGeometry("pixel pitch must be > 0".into()));
        }
        if self.voxel_pitch.iter().any(|&p| !(p > 0.0)) {
            return Err(CtError::InvalidGeometry("voxel pitch must be > 0".into()));
        }
        // The reconstructed cylinder must fit inside the source orbit,
        // otherwise voxels pass behind the source (z <= 0 in Eq. 3).
        let rx = self.volume.nx as f64 * self.voxel_pitch[0] / 2.0;
        let ry = self.volume.ny as f64 * self.voxel_pitch[1] / 2.0;
        let r = (rx * rx + ry * ry).sqrt();
        if r >= self.d {
            return Err(CtError::InvalidGeometry(format!(
                "volume radius {r:.2} must be < source orbit radius d = {}",
                self.d
            )));
        }
        Ok(())
    }

    /// A sensible default geometry for a given problem size: the volume
    /// inscribes the field of view, the source orbit is twice the volume
    /// half-extent, and the detector magnification is `D/d = 2`.
    ///
    /// This mirrors how RabbitCT / RTK test geometries are generated and is
    /// what the paper's synthetic Shepp-Logan runs use.
    pub fn standard(detector: Dims2, num_projections: usize, volume: Dims3) -> Self {
        // Work in units where one voxel is 1 mm.
        let half_extent = volume.nx.max(volume.ny).max(volume.nz) as f64 / 2.0;
        let d = 3.0 * half_extent;
        let big_d = 2.0 * d;
        // Choose the pixel pitch so the magnified volume fits on the FPD
        // with a small margin.
        let magnification = big_d / d;
        let fov = 2.0 * half_extent * magnification * 1.10 * std::f64::consts::SQRT_2;
        let du = fov / detector.nu as f64;
        let dv = fov / detector.nv as f64;
        Self {
            detector,
            du,
            dv,
            d,
            big_d,
            volume,
            voxel_pitch: [1.0, 1.0, 1.0],
            num_projections,
            angular_range: 2.0 * std::f64::consts::PI,
        }
    }

    /// The same standard geometry trimmed to a Parker short scan: the
    /// minimal angular range `pi + 2 * fan_half_angle` that still covers
    /// every ray family once.
    pub fn standard_short_scan(detector: Dims2, num_projections: usize, volume: Dims3) -> Self {
        let mut geo = Self::standard(detector, num_projections, volume);
        geo.angular_range = std::f64::consts::PI + 2.0 * geo.fan_half_angle();
        geo
    }

    /// Half fan angle `delta`: the angle between the central ray and the
    /// ray through the detector's outermost column.
    pub fn fan_half_angle(&self) -> f64 {
        let a_max = (self.detector.nu as f64 - 1.0) / 2.0 * self.virtual_pitch_u();
        (a_max / self.d).atan()
    }

    /// Fan angle `gamma` of the ray through detector column `u` (signed).
    pub fn fan_angle_of_column(&self, u: f64) -> f64 {
        let a = (u - (self.detector.nu as f64 - 1.0) / 2.0) * self.virtual_pitch_u();
        (a / self.d).atan()
    }

    /// True when the trajectory covers the full circle.
    pub fn is_full_scan(&self) -> bool {
        self.angular_range >= 2.0 * std::f64::consts::PI - 1e-9
    }

    /// Gantry angle of projection `i`: `beta = i * theta`, with
    /// `theta = angular_range / Np` (Table 1 has `theta = 2*pi/Np` for
    /// the paper's full-circle scans).
    #[inline]
    pub fn angle(&self, i: usize) -> f64 {
        debug_assert!(i < self.num_projections);
        self.angular_range * (i as f64) / (self.num_projections as f64)
    }

    /// The rotation step `theta = angular_range / Np`.
    #[inline]
    pub fn angle_step(&self) -> f64 {
        self.angular_range / self.num_projections as f64
    }

    /// `M0`: voxel indices -> world millimetres (paper Section 3.2.1).
    ///
    /// `x = Dx*(i - (Nx-1)/2)`, `y = Dy*((Ny-1)/2 - j)`,
    /// `z = Dz*((Nz-1)/2 - k)`.
    pub fn m0(&self) -> Mat4 {
        let (nx, ny, nz) = (
            self.volume.nx as f64,
            self.volume.ny as f64,
            self.volume.nz as f64,
        );
        let scale = Mat4::diagonal(
            self.voxel_pitch[0],
            self.voxel_pitch[1],
            self.voxel_pitch[2],
            1.0,
        );
        let center = Mat4::from_rows([
            [1.0, 0.0, 0.0, -(nx - 1.0) / 2.0],
            [0.0, -1.0, 0.0, (ny - 1.0) / 2.0],
            [0.0, 0.0, -1.0, (nz - 1.0) / 2.0],
            [0.0, 0.0, 0.0, 1.0],
        ]);
        scale * center
    }

    /// `Mrot(beta)`: gantry rotation about Z by `beta` plus the transpose
    /// distance `d` along the camera depth axis (paper Section 3.2.1).
    pub fn m_rot(&self, beta: f64) -> Mat4 {
        let swap = Mat4::from_rows([
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, -1.0, 0.0],
            [0.0, 1.0, 0.0, self.d],
            [0.0, 0.0, 0.0, 1.0],
        ]);
        swap * Mat4::rot_z(beta)
    }

    /// `M1`: perspective projection of camera coordinates onto FPD pixel
    /// coordinates (paper Section 3.2.1).
    pub fn m1(&self) -> Mat4 {
        let (nu, nv) = (self.detector.nu as f64, self.detector.nv as f64);
        let pitch = Mat4::diagonal(1.0 / self.du, 1.0 / self.dv, 1.0, 1.0);
        let proj = Mat4::from_rows([
            [self.big_d, 0.0, (nu - 1.0) * self.du / 2.0, 0.0],
            [0.0, self.big_d, (nv - 1.0) * self.dv / 2.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]);
        pitch * proj
    }

    /// The full 3x4 projection matrix for projection `i`:
    /// `P_i = (M1 * Mrot(i*theta) * M0)[0:3]` (Eq. 2).
    pub fn projection_matrix(&self, i: usize) -> ProjectionMatrix {
        self.projection_matrix_at(self.angle(i))
    }

    /// Projection matrix at an arbitrary gantry angle `beta`.
    pub fn projection_matrix_at(&self, beta: f64) -> ProjectionMatrix {
        let p_hat = self.m1() * self.m_rot(beta) * self.m0();
        ProjectionMatrix {
            mat: p_hat.top3(),
            beta,
        }
    }

    /// All `Np` projection matrices.
    pub fn projection_matrices(&self) -> Vec<ProjectionMatrix> {
        (0..self.num_projections)
            .map(|i| self.projection_matrix(i))
            .collect()
    }

    /// World position of the X-ray source at gantry angle `beta`:
    /// `S(beta) = (-d sin(beta), -d cos(beta), 0)`, an orbit of radius `d`
    /// around the Z axis (Figure 1b).
    pub fn source_position(&self, beta: f64) -> Vec3 {
        let (s, c) = beta.sin_cos();
        Vec3::new(-self.d * s, -self.d * c, 0.0)
    }

    /// World position of detector pixel `(u, v)` (pixel centres) at gantry
    /// angle `beta`.
    ///
    /// The detector plane sits at distance `D` from the source along the
    /// camera depth axis; `u` runs along the rotated X axis, `v` along
    /// world `-Z` (so that increasing detector row moves *down* in world
    /// space, matching the sign conventions of `M0`/`M1`).
    pub fn detector_pixel_position(&self, beta: f64, u: f64, v: f64) -> Vec3 {
        let (s, c) = beta.sin_cos();
        let e_a = Vec3::new(c, -s, 0.0); // rotated X axis in world coords
        let e_c = Vec3::new(s, c, 0.0); // camera depth axis in world coords
        let e_b = Vec3::new(0.0, 0.0, -1.0); // detector V axis in world coords
        let a = (u - (self.detector.nu as f64 - 1.0) / 2.0) * self.du;
        let b = (v - (self.detector.nv as f64 - 1.0) / 2.0) * self.dv;
        let source = self.source_position(beta);
        source + e_a * a + e_b * b + e_c * self.big_d
    }

    /// World position of the centre of voxel `(i, j, k)` (applies `M0`).
    pub fn voxel_position(&self, i: usize, j: usize, k: usize) -> Vec3 {
        self.m0()
            .mul_vec4(Vec4::new(i as f64, j as f64, k as f64, 1.0))
            .xyz()
    }

    /// The paper's Eq. 3: the perspective depth `z` of any voxel in column
    /// `(i, j)` (independent of `k` — Theorem 3):
    ///
    /// `z = d + sin(beta)*(i - (Nx-1)/2)*Dx - cos(beta)*(j - (Ny-1)/2)*Dy`.
    pub fn depth_eq3(&self, beta: f64, i: f64, j: f64) -> f64 {
        let (s, c) = beta.sin_cos();
        let (nx, ny) = (self.volume.nx as f64, self.volume.ny as f64);
        self.d + s * (i - (nx - 1.0) / 2.0) * self.voxel_pitch[0]
            - c * (j - (ny - 1.0) / 2.0) * self.voxel_pitch[1]
    }

    /// Effective detector pixel pitch rescaled to the *virtual detector*
    /// through the isocentre (pitch * d / D) — the quantity the ramp filter
    /// and FDK weights are expressed in (Kak & Slaney Ch. 3).
    #[inline]
    pub fn virtual_pitch_u(&self) -> f64 {
        self.du * self.d / self.big_d
    }

    /// See [`Self::virtual_pitch_u`].
    #[inline]
    pub fn virtual_pitch_v(&self) -> f64 {
        self.dv * self.d / self.big_d
    }
}

/// A single 3x4 projection matrix plus the gantry angle it was built at.
///
/// Applying it to a homogeneous voxel index `[i, j, k, 1]` yields `[x,y,z]`;
/// the detector coordinates are `u = x/z`, `v = y/z` (Eq. 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProjectionMatrix {
    /// The 3x4 matrix `P_i`.
    pub mat: Mat3x4,
    /// Gantry angle `beta` (radians).
    pub beta: f64,
}

impl ProjectionMatrix {
    /// Project a voxel index to detector coordinates, returning
    /// `(u, v, z)` where `z` is the perspective depth (Eq. 1).
    #[inline]
    pub fn project(&self, i: f64, j: f64, k: f64) -> (f64, f64, f64) {
        let p = Vec4::new(i, j, k, 1.0);
        let xyz = self.mat.mul_point(p);
        let f = 1.0 / xyz.z;
        (xyz.x * f, xyz.y * f, xyz.z)
    }

    /// The three rows as `f32` 4-vectors — the layout of the simulated
    /// constant memory `ProjMat` in the paper's Listing 1.
    #[inline]
    pub fn rows_f32(&self) -> [[f32; 4]; 3] {
        self.mat.to_f32_rows()
    }
}

/// Executable statements of the paper's Section 3.2.1 theorems.
///
/// These functions *measure* how well each theorem holds for a concrete
/// geometry; the tests assert the residuals are at floating-point noise
/// level. The proposed back-projection kernels assume the theorems exactly.
pub mod theorems {
    use super::*;

    /// Theorem 1 residuals: for voxels `(i,j,k)` and `(i,j,Nz-1-k)`,
    /// returns `(|u_A - u_B|, |v_A + v_B - (Nv - 1)|)`, both of which must
    /// vanish.
    pub fn theorem1_residual(
        geo: &CbctGeometry,
        p: &ProjectionMatrix,
        i: usize,
        j: usize,
        k: usize,
    ) -> (f64, f64) {
        let k2 = geo.volume.nz - 1 - k;
        let (ua, va, _) = p.project(i as f64, j as f64, k as f64);
        let (ub, vb, _) = p.project(i as f64, j as f64, k2 as f64);
        let nv = geo.detector.nv as f64;
        ((ua - ub).abs(), (va + vb - (nv - 1.0)).abs())
    }

    /// Theorem 2 residual: `u` along the voxel column `(i, j, *)` must be
    /// constant; returns the max deviation from the `k = 0` value.
    pub fn theorem2_residual(geo: &CbctGeometry, p: &ProjectionMatrix, i: usize, j: usize) -> f64 {
        let (u0, _, _) = p.project(i as f64, j as f64, 0.0);
        (0..geo.volume.nz)
            .map(|k| {
                let (u, _, _) = p.project(i as f64, j as f64, k as f64);
                (u - u0).abs()
            })
            .fold(0.0, f64::max)
    }

    /// Theorem 3 residual: the perspective depth `z` along the voxel column
    /// `(i, j, *)` must be constant and equal to Eq. 3; returns the max
    /// absolute deviation from the closed form.
    pub fn theorem3_residual(geo: &CbctGeometry, p: &ProjectionMatrix, i: usize, j: usize) -> f64 {
        let expected = geo.depth_eq3(p.beta, i as f64, j as f64);
        (0..geo.volume.nz)
            .map(|k| {
                let (_, _, z) = p.project(i as f64, j as f64, k as f64);
                (z - expected).abs()
            })
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_geometry() -> CbctGeometry {
        CbctGeometry::standard(Dims2::new(64, 48), 36, Dims3::new(32, 28, 24))
    }

    #[test]
    fn standard_geometry_validates() {
        test_geometry().validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_params() {
        let mut g = test_geometry();
        g.d = -1.0;
        assert!(g.validate().is_err());

        let mut g = test_geometry();
        g.big_d = g.d / 2.0;
        assert!(g.validate().is_err());

        let mut g = test_geometry();
        g.du = 0.0;
        assert!(g.validate().is_err());

        let mut g = test_geometry();
        g.num_projections = 0;
        assert!(g.validate().is_err());

        let mut g = test_geometry();
        g.voxel_pitch = [1.0, -2.0, 1.0];
        assert!(g.validate().is_err());

        // Volume bigger than the orbit radius.
        let mut g = test_geometry();
        g.voxel_pitch = [100.0, 100.0, 1.0];
        assert!(g.validate().is_err());
    }

    #[test]
    fn angles_cover_full_circle() {
        let g = test_geometry();
        assert_eq!(g.angle(0), 0.0);
        let step = g.angle_step();
        assert!((g.angle(1) - step).abs() < 1e-15);
        let last = g.angle(g.num_projections - 1);
        assert!(last < g.angular_range);
        assert!((last + step - g.angular_range).abs() < 1e-12);
    }

    #[test]
    fn source_orbit_has_radius_d() {
        let g = test_geometry();
        for i in 0..g.num_projections {
            let s = g.source_position(g.angle(i));
            assert!((s.norm() - g.d).abs() < 1e-9);
            assert_eq!(s.z, 0.0);
        }
    }

    #[test]
    fn center_voxel_projects_to_detector_center() {
        let g = test_geometry();
        // Index-space centre of the volume.
        let (ci, cj, ck) = (
            (g.volume.nx as f64 - 1.0) / 2.0,
            (g.volume.ny as f64 - 1.0) / 2.0,
            (g.volume.nz as f64 - 1.0) / 2.0,
        );
        for i in 0..g.num_projections {
            let p = g.projection_matrix(i);
            let (u, v, z) = p.project(ci, cj, ck);
            assert!((u - (g.detector.nu as f64 - 1.0) / 2.0).abs() < 1e-9);
            assert!((v - (g.detector.nv as f64 - 1.0) / 2.0).abs() < 1e-9);
            // The isocentre is at depth d from the source.
            assert!((z - g.d).abs() < 1e-9);
        }
    }

    #[test]
    fn m0_maps_voxels_to_centered_world() {
        let g = test_geometry();
        let p000 = g.voxel_position(0, 0, 0);
        let pmax = g.voxel_position(g.volume.nx - 1, g.volume.ny - 1, g.volume.nz - 1);
        // Opposite corners must be point-symmetric about the origin.
        assert!((p000 + pmax).norm() < 1e-9);
        // Y and Z axes are flipped by M0 (paper's convention).
        assert!(p000.x < 0.0);
        assert!(p000.y > 0.0);
        assert!(p000.z > 0.0);
    }

    #[test]
    fn projection_consistent_with_explicit_ray_geometry() {
        // Project a voxel with the matrix, then verify the world-space ray
        // from the source through the resulting detector pixel passes
        // through the voxel.
        let g = test_geometry();
        for pi in [0, 7, 19] {
            let beta = g.angle(pi);
            let p = g.projection_matrix(pi);
            for (i, j, k) in [(3, 5, 7), (20, 10, 2), (31, 27, 23)] {
                let (u, v, _) = p.project(i as f64, j as f64, k as f64);
                let vox = g.voxel_position(i, j, k);
                let src = g.source_position(beta);
                let det = g.detector_pixel_position(beta, u, v);
                // vox must lie on segment src->det: cross product of
                // direction vectors vanishes.
                let d1 = (vox - src).normalized();
                let d2 = (det - src).normalized();
                assert!(
                    d1.cross(d2).norm() < 1e-9,
                    "voxel ({i},{j},{k}) not on ray at proj {pi}"
                );
            }
        }
    }

    #[test]
    fn theorem1_holds_numerically() {
        let g = test_geometry();
        for pi in [0, 5, 13, 35] {
            let p = g.projection_matrix(pi);
            for (i, j, k) in [(0, 0, 0), (10, 20, 3), (31, 1, 11)] {
                let (du, dv) = theorems::theorem1_residual(&g, &p, i, j, k);
                assert!(du < 1e-9, "u symmetry broken: {du}");
                assert!(dv < 1e-9, "v symmetry broken: {dv}");
            }
        }
    }

    #[test]
    fn theorem2_holds_numerically() {
        let g = test_geometry();
        for pi in [1, 9, 22] {
            let p = g.projection_matrix(pi);
            for (i, j) in [(0, 0), (15, 20), (31, 27)] {
                assert!(theorems::theorem2_residual(&g, &p, i, j) < 1e-9);
            }
        }
    }

    #[test]
    fn theorem3_matches_eq3() {
        let g = test_geometry();
        for pi in [2, 11, 30] {
            let p = g.projection_matrix(pi);
            for (i, j) in [(0, 0), (7, 13), (31, 27)] {
                assert!(theorems::theorem3_residual(&g, &p, i, j) < 1e-9);
            }
        }
    }

    #[test]
    fn virtual_pitch_is_demagnified() {
        let g = test_geometry();
        assert!((g.virtual_pitch_u() - g.du * g.d / g.big_d).abs() < 1e-15);
        assert!(g.virtual_pitch_u() < g.du);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn rows_f32_round_trip() {
        let g = test_geometry();
        let p = g.projection_matrix(3);
        let rows = p.rows_f32();
        for r in 0..3 {
            for c in 0..4 {
                assert!((rows[r][c] as f64 - p.mat.rows[r][c]).abs() < 1e-3);
            }
        }
    }
}
