//! GUPS sweep over kernel x layout x thread count.
//!
//! ```text
//! cargo run --release -p ifdk-bench --bin gups -- \
//!     [--quick] [--size N] [--np N] [--repeats R] [--json BENCH_gups.json] \
//!     [--record perf_trajectory.jsonl]
//! ```
//!
//! Back-projects a synthetic stack with every kernel (`standard`,
//! `proposed`, and the driver with the scalar sampler — `warp` — or the
//! lane sampler — `lanes`, the route the pipelines ship), every
//! projection layout the kernel supports (`rowmajor`, `transposed`,
//! `blocked`) and pool widths 1/2/4, reporting median and
//! median-absolute-deviation GUPS over warmed-up repeats (Section
//! 5.3.3's metric). `--json`
//! writes the machine-readable report (with machine provenance in the
//! header) for CI artifacts; `--record` appends one `ifdk-run/v1`
//! record per cell to the perf trajectory store, which `perfscope`
//! judges; `--quick` shrinks the problem and the layout sweep for CI
//! smoke runs.

use ct_bp::lanes::LaneSampler;
use ct_bp::tiled::{backproject_tiled_with, TileConfig};
use ct_bp::warp::{Sampler, WARP_BATCH};
use ct_bp::{backproject_proposed, backproject_standard};
use ct_core::geometry::ProjectionMatrix;
use ct_core::metrics::gups;
use ct_core::problem::{Dims2, Dims3, ReconProblem};
use ct_core::volume::Volume;
use ct_par::Pool;
use ct_perfdb::analytics::{mad, median};
use ct_perfdb::MachineInfo;
use ifdk_bench::gups::{GupsCell, GupsReport};
use ifdk_bench::{arg_usize, geometry_for, print_table, synthetic_stack};
use std::time::Instant;

/// A named back-projection run the sweep can time on any pool width.
type KernelRun<'a> = (&'a str, &'a dyn Fn(&Pool) -> Volume);

/// Time one kernel closure: one discarded warmup, then `repeats` measured
/// runs, folded into a [`GupsCell`].
fn measure<F: FnMut() -> Volume>(
    kernel: &str,
    layout: &str,
    threads: usize,
    repeats: usize,
    updates: u128,
    mut run: F,
    sink: &mut f64,
) -> GupsCell {
    let mut secs = Vec::with_capacity(repeats + 1);
    for rep in 0..=repeats {
        let t0 = Instant::now();
        let vol = run();
        let dt = t0.elapsed().as_secs_f64();
        *sink += vol.data()[0] as f64;
        if rep > 0 {
            secs.push(dt);
        }
    }
    let secs_median = median(&secs).unwrap_or(0.0);
    let rates: Vec<f64> = secs.iter().map(|&s| gups(updates, s)).collect();
    let gups_median = median(&rates).unwrap_or(0.0);
    GupsCell {
        kernel: kernel.into(),
        layout: layout.into(),
        threads,
        repeats,
        gups_median,
        gups_mad: mad(&rates).unwrap_or(0.0),
        secs_median,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let size = arg_usize(&args, "size", if quick { 48 } else { 96 });
    let np = arg_usize(&args, "np", size);
    let repeats = arg_usize(&args, "repeats", if quick { 3 } else { 5 });
    let thread_counts = [1usize, 2, 4];

    let problem = ReconProblem::new(Dims2::new(2 * size, 2 * size), np, Dims3::cube(size))
        .expect("valid benchmark dims");
    let geo = geometry_for(&problem);
    let stack = synthetic_stack(geo.detector, np);
    let mats: Vec<ProjectionMatrix> = geo.projection_matrices();
    let dims = geo.volume;
    let nv = geo.detector.nv;
    let updates = problem.updates();

    // Pre-build every projection layout once; the sweep only times kernels.
    let rowmajor: Vec<_> = stack.iter().cloned().collect();
    let transposed: Vec<_> = stack.iter().map(|p| p.transposed()).collect();
    let blocked: Vec<_> = stack.iter().map(|p| p.blocked()).collect();

    eprintln!(
        "gups: problem {} ({updates} updates/run), repeats {repeats}+1 warmup",
        problem.label()
    );

    let mut cells: Vec<GupsCell> = Vec::new();
    let mut sink = 0.0f64;
    for &t in &thread_counts {
        let pool = Pool::new(t);
        cells.push(measure(
            "standard",
            "rowmajor",
            t,
            repeats,
            updates,
            || backproject_standard(&pool, &mats, &stack, dims),
            &mut sink,
        ));
        cells.push(measure(
            "proposed",
            "transposed",
            t,
            repeats,
            updates,
            || backproject_proposed(&pool, &mats, &stack, dims),
            &mut sink,
        ));
        // Every batched cell runs the one driver the pipelines ship,
        // with the tile shape they ship; the cells differ in sampler.
        fn driver<'a, S: Sampler>(
            mats: &'a [ProjectionMatrix],
            samplers: &'a [S],
            nv: usize,
            dims: Dims3,
        ) -> impl Fn(&Pool) -> Volume + 'a {
            let (batch, tile) = (WARP_BATCH, TileConfig::AUTO);
            move |p| backproject_tiled_with(p, mats, samplers, nv, dims, batch, tile)
        }
        let lane: Vec<LaneSampler> = transposed.iter().map(LaneSampler::new).collect();
        let warp_t = driver(&mats, &transposed, nv, dims);
        let lanes_t = driver(&mats, &lane, nv, dims);
        // The full sweep also covers the layouts the paper rejects
        // (Table 3's untransposed and texture-blocked accesses).
        let warp_r = driver(&mats, &rowmajor, nv, dims);
        let warp_b = driver(&mats, &blocked, nv, dims);
        let mut batched: Vec<KernelRun> =
            vec![("warp/transposed", &warp_t), ("lanes/transposed", &lanes_t)];
        if !quick {
            batched.push(("warp/rowmajor", &warp_r));
            batched.push(("warp/blocked", &warp_b));
        }
        for (key, run) in batched {
            let (kernel, layout) = key.split_once('/').expect("kernel/layout key");
            cells.push(measure(
                kernel,
                layout,
                t,
                repeats,
                updates,
                || run(&pool),
                &mut sink,
            ));
        }
    }

    let report = GupsReport {
        problem: problem.label(),
        updates,
        machine: Some(MachineInfo::detect()),
        cells,
    };

    let rows: Vec<Vec<String>> = report
        .cells
        .iter()
        .map(|c| {
            vec![
                c.kernel.clone(),
                c.layout.clone(),
                c.threads.to_string(),
                format!("{:.4}", c.gups_median),
                format!("{:.4}", c.gups_mad),
                format!("{:.4}", c.secs_median),
            ]
        })
        .collect();
    print_table(
        &[
            "kernel",
            "layout",
            "threads",
            "GUPS(med)",
            "GUPS(mad)",
            "secs(med)",
        ],
        &rows,
    );

    // The headline comparison: the shipped route vs the serial
    // Algorithm 2 baseline.
    if let (Some(shipped), Some(base)) = (
        report.find("lanes", "transposed", 4),
        report.find("standard", "rowmajor", 1),
    ) {
        eprintln!(
            "lanes/transposed@4 vs standard/rowmajor@1: {:.2}x",
            shipped.gups_median / base.gups_median
        );
    }
    // The kernel-generation comparison: lane sampler vs scalar sampler,
    // same driver, single thread (no scheduler noise).
    if let (Some(lanes), Some(warp)) = (
        report.find("lanes", "transposed", 1),
        report.find("warp", "transposed", 1),
    ) {
        eprintln!(
            "lanes/transposed@1 vs warp/transposed@1: {:+.1}%",
            (lanes.gups_median / warp.gups_median - 1.0) * 100.0
        );
    }
    eprintln!("(checksum {sink:.3e})");

    if let Some(pos) = args.iter().position(|a| a == "--json") {
        if let Some(path) = args.get(pos + 1) {
            std::fs::write(path, report.to_json()).expect("write gups json");
            eprintln!("wrote {path}");
        }
    }

    if let Some(pos) = args.iter().position(|a| a == "--record") {
        if let Some(path) = args.get(pos + 1) {
            let records = report.run_records(ct_obs::clock::unix_millis());
            ct_perfdb::PerfDb::append(std::path::Path::new(path), &records)
                .expect("append perf trajectory");
            eprintln!("recorded {} run(s) -> {path}", records.len());
        }
    }
}
