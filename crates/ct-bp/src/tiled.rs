//! The back-projection driver: cache-blocked, slab-tiled, thread-parallel.
//! Every pipeline and every Table 3 batched variant runs through
//! [`backproject_pair_tiled_reporting`].
//!
//! Walking the whole volume once per projection batch spills the
//! last-level cache at production sizes and the batched reuse of
//! [`crate::warp`] stops paying. This driver partitions the output into
//! **tiles** — an i-range of voxel columns crossed with a z-symmetric
//! *sub* slab pair (reusing [`SlabPair`] for the z split, exactly the
//! paper's Figure 3 decomposition recursed one level down) — and
//! dispatches the tiles over [`ct_par::Pool`] with work stealing.
//!
//! Every tile owns a private output volume, so threads never share an
//! output cache line, and each voxel is accumulated by exactly one tile
//! in a fixed projection order, then added into the caller's pair volume
//! in tile order: into zeros (a tile voxel is never `-0.0`) the result is
//! **bit-identical** for every thread count and tile shape, and to the
//! untiled reference loop [`crate::pair::backproject_pair_with`] (both run
//! `ColumnBatch::update_column`). Per-tile wall-clock intervals are
//! reported back for observability spans (tile-level load balance).

use crate::pair::{full_pair, SlabPair};
use crate::warp::{ColumnBatch, Sampler, SweepBuffers, WARP_BATCH};
use ct_core::error::{CtError, Result};
use ct_core::geometry::ProjectionMatrix;
use ct_core::problem::Dims3;
use ct_core::volume::{Volume, VolumeLayout};
use ct_obs::clock::{self, Instant};
use ct_par::Pool;

/// Tile-shape configuration for the blocked driver. A field set to `0`
/// means "choose automatically" from the problem shape and pool width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileConfig {
    /// Number of consecutive `i` voxel columns per tile (`0` = auto).
    pub i_block: usize,
    /// Number of sub slab pairs the z extent is split into (`0` = auto).
    pub slab_pairs: usize,
}

impl TileConfig {
    /// Fully automatic tile shape.
    pub const AUTO: TileConfig = TileConfig {
        i_block: 0,
        slab_pairs: 0,
    };

    /// Resolve the `0 = auto` fields against a concrete problem. The i
    /// axis is the preferred split (sub-pair splits re-run the per-column
    /// lane setup once per part), so `slab_pairs` only grows beyond 1
    /// when a single full-depth column row already busts the ~256 KiB
    /// cache budget, or the i axis alone cannot give the pool two tiles
    /// per thread to steal. The i-block is then sized so one tile's
    /// output (`i_block * ny * 2*sub_len` voxels) stays inside the
    /// budget.
    pub fn resolve(&self, dims: Dims3, pair: SlabPair, threads: usize) -> (usize, usize) {
        const CACHE_BUDGET: usize = 256 * 1024;
        let target_tiles = 2 * threads.max(1);
        let parts = if self.slab_pairs == 0 {
            let row_bytes = dims.ny * 2 * pair.len * 4;
            let for_cache = row_bytes.div_ceil(CACHE_BUDGET);
            let for_steal = target_tiles.div_ceil(dims.nx.max(1));
            for_cache.max(for_steal).clamp(1, pair.len)
        } else {
            self.slab_pairs.min(pair.len).max(1)
        };
        let sub_nz = 2 * pair.len.div_ceil(parts);
        let i_block = if self.i_block == 0 {
            let cache_cap = CACHE_BUDGET
                .checked_div(dims.ny * sub_nz * 4)
                .unwrap_or(usize::MAX)
                .max(1);
            let steal_cap = dims.nx.div_ceil(target_tiles.div_ceil(parts)).max(1);
            cache_cap.min(steal_cap).min(dims.nx)
        } else {
            self.i_block.min(dims.nx).max(1)
        };
        (i_block, parts)
    }
}

impl Default for TileConfig {
    fn default() -> Self {
        Self::AUTO
    }
}

/// One tile of the blocked decomposition: `i_len` voxel columns starting
/// at `i0`, crossed with one sub slab pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    /// Ordinal of the tile in dispatch order.
    pub index: usize,
    /// First `i` of the tile.
    pub i0: usize,
    /// Number of consecutive `i` columns.
    pub i_len: usize,
    /// The z-symmetric sub slab pair this tile accumulates.
    pub pair: SlabPair,
}

/// Wall-clock record of one executed tile, for span attribution.
#[derive(Debug, Clone, Copy)]
pub struct TileReport {
    /// Which tile ran.
    pub tile: Tile,
    /// When a worker picked the tile up.
    pub started: Instant,
    /// When the tile's accumulation finished.
    pub finished: Instant,
}

/// Split a slab pair into `parts` sub pairs covering the same slices.
/// Ragged splits are allowed: the leading sub pairs take one extra slice
/// when `pair.len` does not divide evenly.
pub fn partition_pairs(pair: SlabPair, parts: usize) -> Result<Vec<SlabPair>> {
    if parts == 0 || parts > pair.len {
        return Err(CtError::InvalidConfig(format!(
            "cannot split a {}-slice slab into {parts} sub pairs",
            pair.len
        )));
    }
    let base = pair.len.checked_div(parts).unwrap_or(0);
    let extra = pair.len.checked_rem(parts).unwrap_or(0);
    let mut out = Vec::with_capacity(parts);
    let mut k0 = pair.k0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        out.push(SlabPair::new(pair.nz_full, k0, len)?);
        k0 += len;
    }
    Ok(out)
}

/// Enumerate the tiles of a resolved configuration, sub pair major (all
/// i-blocks of sub pair 0 first). The order is the order tiles are added
/// into the output and is independent of thread count.
pub fn tiles_for(dims: Dims3, pair: SlabPair, i_block: usize, parts: usize) -> Result<Vec<Tile>> {
    let subs = partition_pairs(pair, parts)?;
    let mut tiles = Vec::new();
    for sub in subs {
        let mut i0 = 0;
        while i0 < dims.nx {
            let i_len = i_block.min(dims.nx - i0);
            tiles.push(Tile {
                index: tiles.len(),
                i0,
                i_len,
                pair: sub,
            });
            i0 += i_len;
        }
    }
    Ok(tiles)
}

/// Serial accumulation of one tile into a private `(i_len, ny,
/// 2*sub_len)` k-major volume — the reference `(i, batch, j)` loop with
/// the voxel indices offset by the tile origin.
fn accumulate_tile<S: Sampler>(
    tile: &Tile,
    rows: &[[[f32; 4]; 3]],
    samplers: &[S],
    nv: usize,
    ny: usize,
    batch: usize,
) -> Volume {
    let sub = tile.pair;
    let local_nz = sub.local_nz();
    let vmax = nv as f32 - 1.0;
    let mut vol = Volume::zeros(Dims3::new(tile.i_len, ny, local_nz), VolumeLayout::KMajor);
    let data = vol.data_mut();
    let mut buf = SweepBuffers::new(sub.len);
    for (i, plane) in data.chunks_exact_mut(ny * local_nz).enumerate() {
        let ifl = (tile.i0 + i) as f32;
        for (rows_b, samplers_b) in rows.chunks(batch).zip(samplers.chunks(batch)) {
            // `local_nz = 2·pair.len` and `SlabPair::new` rejects
            // `len == 0`, so `chunks_exact` never sees 0.
            for (j, col) in plane.chunks_exact_mut(local_nz).enumerate() {
                ColumnBatch::update_column(
                    rows_b, samplers_b, ifl, j as f32, sub.k0, vmax, &mut buf, col,
                );
            }
        }
    }
    vol
}

/// Tiled, thread-parallel version of
/// [`crate::pair::backproject_pair_with`]: back-project one slab pair by
/// dispatching its tiles over the pool, then add the tiles in tile order
/// into `out`, the k-major `(nx, ny, 2*len)` pair volume. Returns one
/// [`TileReport`] per tile (in tile order) for span attribution.
///
/// Into a zeroed `out` the result is bit-identical to
/// `backproject_pair_with` for every thread count and tile shape.
#[allow(clippy::too_many_arguments)] // mirrors backproject_pair_with + cfg + out
pub fn backproject_pair_tiled_reporting<S: Sampler>(
    pool: &Pool,
    mats: &[ProjectionMatrix],
    samplers: &[S],
    nv: usize,
    dims: Dims3,
    pair: SlabPair,
    batch: usize,
    cfg: TileConfig,
    out: &mut Volume,
) -> Vec<TileReport> {
    // analyze: allow(panic, reason = "caller-contract validation at the public driver entry; fires before any work starts")
    assert_eq!(mats.len(), samplers.len(), "one matrix per projection");
    // analyze: allow(panic, reason = "caller-contract validation at the public driver entry; fires before any work starts")
    assert_eq!(dims.nz, pair.nz_full, "pair must match volume Nz");
    // analyze: allow(panic, reason = "caller-contract validation at the public driver entry; fires before any work starts")
    assert!((1..=WARP_BATCH).contains(&batch), "batch must be in 1..=32");
    let ny = dims.ny;
    let local_nz = pair.local_nz();
    let pair_volume = (Dims3::new(dims.nx, ny, local_nz), VolumeLayout::KMajor);
    // analyze: allow(panic, reason = "caller-contract validation at the public driver entry; fires before any work starts")
    assert_eq!(
        (out.dims(), out.layout()),
        pair_volume,
        "out must be the pair volume"
    );
    let (i_block, parts) = cfg.resolve(dims, pair, pool.threads());
    let tiles = tiles_for(dims, pair, i_block, parts)
        // analyze: allow(panic, reason = "resolve() clamps i_block and parts into the range tiles_for accepts")
        .expect("resolved tile shape is valid");
    let rows: Vec<[[f32; 4]; 3]> = mats.iter().map(|m| m.rows_f32()).collect();

    // Each tile owns a private output volume: disjoint writes, no false
    // sharing, and a fixed accumulation order per voxel regardless of
    // which worker runs the tile.
    let pieces: Vec<Option<(Volume, TileReport)>> = pool.parallel_map(tiles.len(), 1, |t| {
        let tile = *tiles.get(t)?;
        let started = clock::now();
        let vol = accumulate_tile(&tile, &rows, samplers, nv, ny, batch);
        Some((
            vol,
            TileReport {
                tile,
                started,
                finished: clock::now(),
            },
        ))
    });

    // Add sequentially in tile order; every destination voxel receives
    // exactly one tile voxel.
    let data = out.data_mut();
    let mut reports = Vec::with_capacity(tiles.len());
    for (vol, report) in pieces.into_iter().flatten() {
        let tile = report.tile;
        let (len, r) = (tile.pair.len, tile.pair.k0 - pair.k0);
        // Same invariant for the sub pair: its `local_nz()` is never 0.
        let mut cols = vol.data().chunks_exact(tile.pair.local_nz());
        for i in 0..tile.i_len {
            for j in 0..ny {
                let Some(col) = cols.next() else { break };
                let dst0 = ((tile.i0 + i) * ny + j) * local_nz;
                // The sub pair's two slabs sit at these offsets of the
                // pair-local column, both contiguous and ascending.
                let (col_up, col_down) = col.split_at(len);
                for (at, src) in [(r, col_up), (2 * pair.len - r - len, col_down)] {
                    if let Some(dst) = data.get_mut(dst0 + at..dst0 + at + len) {
                        dst.iter_mut().zip(src).for_each(|(d, s)| *d += *s);
                    }
                }
            }
        }
        reports.push(report);
    }
    reports
}

/// Full-volume tiled back-projection with any sampler set: the single
/// slab pair covering the whole volume, split into tiles.
///
/// Output is k-major; `dims.nz` must be even.
pub fn backproject_tiled_with<S: Sampler>(
    pool: &Pool,
    mats: &[ProjectionMatrix],
    samplers: &[S],
    nv: usize,
    dims: Dims3,
    batch: usize,
    cfg: TileConfig,
) -> Volume {
    let mut out = Volume::zeros(dims, VolumeLayout::KMajor);
    if let Some(pair) = full_pair(dims) {
        backproject_pair_tiled_reporting(
            pool, mats, samplers, nv, dims, pair, batch, cfg, &mut out,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pair::backproject_pair_with;
    use crate::warp::backproject_warp;
    use ct_core::geometry::CbctGeometry;
    use ct_core::problem::Dims2;
    use ct_core::projection::{ProjectionImage, ProjectionStack};

    /// `L1-Tran` (transposed projections, full batches) through the driver.
    fn backproject_tiled(
        pool: &Pool,
        mats: &[ProjectionMatrix],
        projs: &ProjectionStack,
        dims: Dims3,
        cfg: TileConfig,
    ) -> Volume {
        let transposed: Vec<_> = projs.iter().map(|p| p.transposed()).collect();
        let nv = projs.dims().nv;
        backproject_tiled_with(pool, mats, &transposed, nv, dims, WARP_BATCH, cfg)
    }

    fn setup(np: usize, n: usize) -> (CbctGeometry, Vec<ProjectionMatrix>, ProjectionStack) {
        let geo = CbctGeometry::standard(Dims2::new(2 * n, 2 * n), np, Dims3::cube(n));
        let mats = geo.projection_matrices();
        let mut stack = ProjectionStack::new(geo.detector);
        for s in 0..np {
            let mut img = ProjectionImage::zeros(geo.detector);
            for v in 0..geo.detector.nv {
                for u in 0..geo.detector.nu {
                    img.set(u, v, (((u * 7 + v * 3 + s * 11) % 31) as f32) * 0.25 - 2.0);
                }
            }
            stack.push(img).unwrap();
        }
        (geo, mats, stack)
    }

    #[test]
    fn partition_is_exact_and_ragged() {
        let pair = SlabPair::new(32, 2, 11).unwrap();
        let subs = partition_pairs(pair, 3).unwrap();
        assert_eq!(subs.len(), 3);
        assert_eq!(subs.iter().map(|s| s.len).sum::<usize>(), 11);
        assert_eq!(subs[0].k0, 2);
        for w in subs.windows(2) {
            assert_eq!(w[0].k0 + w[0].len, w[1].k0);
        }
        assert!(partition_pairs(pair, 0).is_err());
        assert!(partition_pairs(pair, 12).is_err());
    }

    #[test]
    fn tiles_cover_the_volume_once() {
        let dims = Dims3::new(13, 8, 32);
        let pair = SlabPair::new(32, 0, 16).unwrap();
        let tiles = tiles_for(dims, pair, 4, 3).unwrap();
        let mut hits = vec![0u32; dims.nx * dims.nz];
        for t in &tiles {
            for i in t.i0..t.i0 + t.i_len {
                for local in 0..t.pair.local_nz() {
                    hits[i * dims.nz + t.pair.global_k(local)] += 1;
                }
            }
        }
        assert!(hits.iter().all(|&h| h == 1), "every (i, k) covered once");
        for (idx, t) in tiles.iter().enumerate() {
            assert_eq!(t.index, idx);
        }
    }

    #[test]
    fn auto_config_resolves_to_valid_shape() {
        let dims = Dims3::new(64, 64, 64);
        let pair = SlabPair::new(64, 0, 32).unwrap();
        for threads in [1, 2, 4, 16] {
            let (ib, parts) = TileConfig::AUTO.resolve(dims, pair, threads);
            assert!((1..=dims.nx).contains(&ib));
            assert!((1..=pair.len).contains(&parts));
            assert!(tiles_for(dims, pair, ib, parts).is_ok());
        }
        // Explicit fields are clamped, not trusted.
        let (ib, parts) = TileConfig {
            i_block: 10_000,
            slab_pairs: 10_000,
        }
        .resolve(dims, pair, 4);
        assert_eq!(ib, dims.nx);
        assert_eq!(parts, pair.len);
    }

    #[test]
    fn tiled_is_bit_identical_to_warp_kernel() {
        let (geo, mats, stack) = setup(40, 16);
        let reference = backproject_warp(&Pool::serial(), &mats, &stack, geo.volume);
        for cfg in [
            TileConfig::AUTO,
            TileConfig {
                i_block: 3,
                slab_pairs: 2,
            },
            TileConfig {
                i_block: 16,
                slab_pairs: 8,
            },
        ] {
            let tiled = backproject_tiled(&Pool::serial(), &mats, &stack, geo.volume, cfg);
            assert_eq!(tiled.data(), reference.data(), "{cfg:?}");
        }
    }

    #[test]
    fn tiled_is_bit_identical_across_thread_counts() {
        let (geo, mats, stack) = setup(17, 16);
        let cfg = TileConfig {
            i_block: 5,
            slab_pairs: 3,
        };
        let serial = backproject_tiled(&Pool::serial(), &mats, &stack, geo.volume, cfg);
        for threads in [2, 4] {
            let par = backproject_tiled(&Pool::new(threads), &mats, &stack, geo.volume, cfg);
            assert_eq!(par.data(), serial.data(), "{threads} threads");
        }
    }

    #[test]
    fn tiled_pair_matches_untiled_pair() {
        let (geo, mats, stack) = setup(9, 16);
        let transposed: Vec<_> = stack.iter().map(|p| p.transposed()).collect();
        let nv = stack.dims().nv;
        let pair = SlabPair::new(16, 2, 5).unwrap();
        let untiled = backproject_pair_with(
            &Pool::serial(),
            &mats,
            &transposed,
            nv,
            geo.volume,
            pair,
            WARP_BATCH,
        );
        let mut tiled = Volume::zeros(untiled.dims(), VolumeLayout::KMajor);
        backproject_pair_tiled_reporting(
            &Pool::new(2),
            &mats,
            &transposed,
            nv,
            geo.volume,
            pair,
            WARP_BATCH,
            TileConfig {
                i_block: 7,
                slab_pairs: 2,
            },
            &mut tiled,
        );
        assert_eq!(tiled.data(), untiled.data());
    }

    #[test]
    fn reports_cover_every_tile_in_order() {
        let (geo, mats, stack) = setup(5, 8);
        let transposed: Vec<_> = stack.iter().map(|p| p.transposed()).collect();
        let pair = SlabPair::new(8, 0, 4).unwrap();
        let cfg = TileConfig {
            i_block: 2,
            slab_pairs: 2,
        };
        let mut out = Volume::zeros(Dims3::new(8, 8, pair.local_nz()), VolumeLayout::KMajor);
        let reports = backproject_pair_tiled_reporting(
            &Pool::new(3),
            &mats,
            &transposed,
            stack.dims().nv,
            geo.volume,
            pair,
            WARP_BATCH,
            cfg,
            &mut out,
        );
        let tiles = tiles_for(geo.volume, pair, 2, 2).unwrap();
        assert_eq!(reports.len(), tiles.len());
        for (r, t) in reports.iter().zip(&tiles) {
            assert_eq!(r.tile, *t);
            assert!(r.finished >= r.started);
        }
    }
}
