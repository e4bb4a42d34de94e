//! The one per-rank pipeline (paper Section 4.1.3, Figure 4a) as four
//! stage functions: filter → gather → back-project → reduce/store. A
//! stage takes its ring ends and the [`Track`] of the thread it runs on,
//! so it is the same code on an `off`, `summary` or `trace` recorder; a
//! door is a short composition of stages. [`filter_backproject`] is the
//! single-node one; a distributed rank adds the gather stage and a second
//! ring in the middle and ends with the post stage.
//!
//! Shutdown rule: every stage closes every ring end it holds on every
//! exit path, unwinding included, so a stage that fails or dies never
//! leaves a peer blocked in `push` or `pop`; [`join_stage`] then turns a
//! dead stage thread into an `Err` naming the stage.

use crate::batch::BatchAccumulator;
use ct_bp::{fdk_scale, BpConfig, KernelVariant, SlabPair};
use ct_comm::Comm;
use ct_core::error::{CtError, Result};
use ct_core::geometry::{CbctGeometry, ProjectionMatrix};
use ct_core::problem::{Dims2, Dims3};
use ct_core::projection::{ProjectionImage, TransposedProjection};
use ct_core::volume::{Volume, VolumeLayout};
use ct_filter::{FilterConfig, Filterer};
use ct_obs::{Recorder, ThreadRole, Track};
use ct_par::Pool;
use ct_pfs::PfsStore;
use ct_sync::ring::RingBuffer;
use std::borrow::Borrow;
use std::ops::Range;
use std::thread::ScopedJoinHandle;
use std::time::Duration;

/// What every door checks before it builds anything: the geometry, and
/// the back-projection config (`L1-Tran` only) against the volume it fills.
pub(crate) fn validate(geo: &CbctGeometry, bp: &BpConfig) -> Result<()> {
    geo.validate()?;
    if bp.variant != KernelVariant::L1Tran {
        let name = bp.variant.name();
        let msg = format!("variant {name}: reconstruction runs L1-Tran only");
        return Err(CtError::InvalidConfig(msg));
    }
    bp.validate(geo.volume)
}

/// One filtered projection on its way into back-projection.
pub(crate) struct Filtered {
    /// Projection index (selects the projection matrix).
    pub(crate) index: usize,
    /// Index of the producer span this item came out of, so a batch can
    /// tag the producer range it consumed.
    pub(crate) dep: u64,
    pub(crate) q: TransposedProjection,
}

/// Closes the ring when dropped — how a stage keeps the shutdown rule on
/// early returns and unwinding alike.
struct CloseOnDrop<'a, T>(&'a RingBuffer<T>);

impl<T> Drop for CloseOnDrop<'_, T> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// Join a stage thread. A stage that panicked becomes an `Err` naming it;
/// call this only once the rings the stage holds are closed.
pub(crate) fn join_stage<T>(stage: &str, handle: ScopedJoinHandle<'_, Result<T>>) -> Result<T> {
    handle.join().unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic");
        Err(CtError::InvalidConfig(format!(
            "{stage} stage panicked: {msg}"
        )))
    })
}

/// Filter stage: `load` each projection of `range`, filter it under a
/// `filter` span and push `sink(index, filtered)` into `out`. A closed
/// `out` (the consumer gave up) ends the stage quietly; the consumer's
/// error is the one that surfaces.
pub(crate) fn filter_stage<I: Borrow<ProjectionImage>, T>(
    track: &Track,
    filterer: &Filterer,
    range: Range<usize>,
    out: &RingBuffer<T>,
    mut load: impl FnMut(&Track, usize) -> Result<I>,
    sink: impl Fn(usize, ProjectionImage) -> T,
) -> Result<()> {
    let _close = CloseOnDrop(out);
    for i in range {
        let img = load(track, i)?;
        let q = {
            let _sp = track.span("filter").with_index(i as u64);
            filterer.filter_indexed(i, img.borrow())
        };
        if out.push(sink(i, q)).is_err() {
            break;
        }
    }
    Ok(())
}

/// The PFS source for [`filter_stage`]: read projection `i` under a
/// `load` span carrying the bytes read.
pub(crate) fn load_from_pfs(
    track: &Track,
    input: &PfsStore,
    detector: Dims2,
    i: usize,
) -> Result<ProjectionImage> {
    let mut sp = track.span("load").with_index(i as u64);
    let data = input
        .read_f32(&PfsStore::projection_name(i))
        .map_err(|e| CtError::InvalidConfig(format!("loading projection {i}: {e}")))?;
    sp.set_bytes(4 * data.len() as u64);
    drop(sp);
    ProjectionImage::from_vec(detector, data)
}

/// Gather stage: one AllGather per projection of `my_range` across the
/// column communicator. Op `o` moves projection `col_start + r' * ops + o`
/// from every column rank `r'` (`ops = my_range.len()`); each arrives
/// transposed in `out`. A closed `inbound` (the filter stage ended early)
/// ends the stage quietly; the filter stage's error is the one that surfaces.
pub(crate) fn gather_stage(
    track: &Track,
    col_comm: &Comm,
    inbound: &RingBuffer<Vec<f32>>,
    out: &RingBuffer<Filtered>,
    detector: Dims2,
    my_range: Range<usize>,
    col_start: usize,
) -> Result<()> {
    let _close = (CloseOnDrop(inbound), CloseOnDrop(out));
    let ops = my_range.len();
    for (o, block) in std::iter::from_fn(|| inbound.pop()).take(ops).enumerate() {
        let before = col_comm.local_stats();
        // Op o cannot start before this rank filtered its own contribution.
        let own = (my_range.start + o) as u64;
        let mut sp = track
            .span("allgather")
            .with_index(o as u64)
            .with_deps("filter", own, own);
        let gathered = col_comm.all_gather(&block);
        sp.set_bytes(col_comm.local_stats().since(before).bytes_sent);
        drop(sp);
        for (rp, chunk) in gathered.chunks_exact(detector.len()).enumerate() {
            let img = ProjectionImage::from_vec(detector, chunk.to_vec())?;
            let item = Filtered {
                index: col_start + rp * ops + o,
                dep: o as u64,
                q: img.transposed(),
            };
            out.push(item)
                .map_err(|_| CtError::InvalidConfig("back-projection closed early".into()))?;
        }
    }
    Ok(())
}

/// Back-projection stage — the only batch consumer: pop fixed
/// `batch`-sized groups (so batch boundaries depend on the item sequence,
/// never on timing), add each to `acc` under a `backprojection` span
/// tagged with the `dep_stage` spans it consumed, and return the
/// accumulated k-major pair volume once `inbound` is closed and drained.
/// `throttle` is [`crate::DistConfig::bp_throttle`]'s fault-injection
/// delay before each batch.
pub(crate) fn backproject_stage(
    track: &Track,
    inbound: &RingBuffer<Filtered>,
    mut acc: BatchAccumulator,
    pool: &Pool,
    mats: &[ProjectionMatrix],
    dep_stage: &'static str,
    throttle: Option<Duration>,
) -> Result<Volume> {
    let _close = CloseOnDrop(inbound);
    for batch_idx in 0u64.. {
        if let Some(d) = throttle {
            std::thread::sleep(d);
        }
        let items = inbound.pop_batch(acc.batch());
        if items.is_empty() {
            break;
        }
        let dep_lo = items.iter().map(|it| it.dep).min().unwrap_or(0);
        let dep_hi = items.iter().map(|it| it.dep).max().unwrap_or(0);
        let mut sp = track
            .span("backprojection")
            .with_index(batch_idx)
            .with_deps(dep_stage, dep_lo, dep_hi);
        sp.set_bytes(items.iter().map(|it| 4 * it.q.data().len() as u64).sum());
        let reports = acc.add(pool, mats, items.iter().map(|it| (it.index, &it.q)));
        // Tile intervals were measured on pool workers (which cannot own
        // a track); attribute them here, tagged by tile index, so traces
        // show tile-level load balance. The tile set is a pure function
        // of the config, keeping the span structure deterministic.
        for r in &reports {
            track.record_completed(
                "bp.tile",
                Some(r.tile.index as u64),
                None,
                r.started,
                r.finished,
            );
        }
    }
    Ok(acc.into_volume())
}

/// Post stage: one Reduce of the pair volume to the row root (Figure 4b),
/// which scales it and stores every slice of the pair to `output`.
pub(crate) fn post_stage(
    track: &Track,
    row_comm: &Comm,
    pair_volume: &Volume,
    pair: SlabPair,
    geo: &CbctGeometry,
    apply_scale: bool,
    output: &PfsStore,
) -> Result<()> {
    let before = row_comm.local_stats();
    let mut sp = track.span("reduce");
    let reduced = row_comm.reduce_sum_f32(0, pair_volume.data());
    sp.set_bytes(row_comm.local_stats().since(before).bytes_sent);
    drop(sp);
    let Some(data) = reduced else {
        return Ok(());
    };
    let local = Dims3::new(geo.volume.nx, geo.volume.ny, pair.local_nz());
    let mut vol = Volume::from_vec(local, VolumeLayout::KMajor, data)?;
    if apply_scale {
        vol.scale(fdk_scale(geo));
    }
    let mut sp = track.span("store");
    sp.set_bytes(4 * local.len() as u64);
    for k_local in 0..pair.local_nz() {
        let k = pair.global_k(k_local);
        output
            .write_f32(&PfsStore::slice_name(k), &vol.slice_xy(k_local)?)
            .map_err(|e| CtError::InvalidConfig(format!("storing slice {k}: {e}")))?;
    }
    Ok(())
}

/// The single-node composition: a filter thread feeding back-projection
/// on the caller's thread through `ring` — one rank without the
/// collectives, so no gather ring and no third thread. The filter thread
/// also transposes (it is the shorter stage). Returns the accumulated
/// k-major volume.
pub(crate) fn filter_backproject<I: Borrow<ProjectionImage>>(
    geo: &CbctGeometry,
    filter: FilterConfig,
    bp: BpConfig,
    pool: &Pool,
    obs: &Recorder,
    ring: &RingBuffer<Filtered>,
    load: impl FnMut(&Track, usize) -> Result<I> + Send,
) -> Result<Volume> {
    let acc = BatchAccumulator::full(geo, bp)?;
    let filterer = Filterer::new(geo, filter);
    let mats = geo.projection_matrices();
    std::thread::scope(|s| {
        let flt = s.spawn(|| {
            let track = obs.track(0, ThreadRole::Filter);
            let sink = |i, q: ProjectionImage| Filtered {
                index: i,
                dep: i as u64,
                q: q.transposed(),
            };
            filter_stage(&track, &filterer, 0..geo.num_projections, ring, load, sink)
        });
        let track = obs.track(0, ThreadRole::Backprojection);
        let vol = backproject_stage(&track, ring, acc, pool, &mats, "filter", None);
        join_stage("filter", flt)?;
        vol
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_core::problem::Dims2;

    #[test]
    fn a_panicking_stage_is_an_error_not_a_hang_or_a_second_panic() {
        let geo = CbctGeometry::standard(Dims2::new(16, 16), 8, Dims3::cube(8));
        let blank = ProjectionImage::zeros(geo.detector);
        // A 1-slot ring: the filter thread is blocked in `push` or about
        // to be when it dies, the worst case for a peer left waiting.
        let ring = RingBuffer::new(1);
        let err = filter_backproject(
            &geo,
            FilterConfig::default(),
            BpConfig::default(),
            &Pool::serial(),
            &Recorder::off(),
            &ring,
            |_, i| {
                assert!(i != 3, "projection 3 is cursed");
                Ok(&blank)
            },
        )
        .expect_err("a dead filter stage must fail the run");
        let msg = err.to_string();
        assert!(msg.contains("filter stage panicked"), "{msg}");
        assert!(msg.contains("projection 3 is cursed"), "{msg}");
    }
}
