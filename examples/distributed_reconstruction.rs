//! Distributed reconstruction on a 2D rank grid — the paper's Figure 7
//! experiment at laptop scale.
//!
//! ```text
//! cargo run --release -p ifdk-examples --bin distributed_reconstruction -- \
//!     --size 64 --np 64 --rows 4 --cols 4 [--trace trace.json] [--analyze] \
//!     [--flight-dump flight.json] [--stall-ms 30000] [--throttle-bp-ms 0]
//! ```
//!
//! Launches `rows x cols` ranks (threads), each running the three-thread
//! iFDK pipeline: load + filter its share of projections, AllGather
//! within its column, back-project its row's symmetric slab pair, reduce
//! across the row and store the finished slices to the (in-memory) PFS.
//! Verifies the result against a single-node reconstruction.
//!
//! With `--trace <path>` the run captures every span and writes a Chrome
//! trace-event timeline (open it at <https://ui.perfetto.dev> or in
//! `chrome://tracing`): one process per rank, one lane per pipeline
//! thread. A model-vs-measured table (paper Eqs. 8-19) is printed either
//! way.
//!
//! With `--analyze` (implies trace capture) the run is followed by the
//! offline pipeline analysis: critical path through the
//! filter→AllGather→back-projection dependency graph, per-lane
//! busy/stall/idle utilization, ring-stall attribution and the Eq.-19
//! overlap-efficiency figure.
//!
//! With `--stall-ms <ms>` (0 disables) the stall watchdog trips on any
//! ring side blocked past the deadline: each trip is a `watchdog.trip`
//! event in the `--trace` capture, which `ifdk-bench --bin tracereport
//! --max-trips` gates on. `--flight-dump <path>` also arms it (at a
//! 30 s deadline unless `--stall-ms` says otherwise) and writes the
//! flight recorder's bounded per-lane span window as a Chrome trace at
//! the end.
//! `--throttle-bp-ms` injects a per-batch delay into every
//! back-projection thread and `--ring-capacity` shrinks the circular
//! buffers — together a fault injector for demonstrating back-pressure
//! and a watchdog trip (see EXPERIMENTS.md).

use ct_core::forward::project_all_analytic;
use ct_core::metrics::nrmse;
use ct_core::phantom::Phantom;
use ct_core::problem::{Dims2, Dims3};
use ct_core::CbctGeometry;
use ct_perfmodel::{KernelModel, MachineConfig};
use ct_pfs::PfsStore;
use ifdk::distributed::{download_volume, upload_projections};
use ifdk::{
    model_divergence, reconstruct, reconstruct_distributed, DistConfig, LiveConfig, RankGrid,
    ReconOptions,
};
use ifdk_examples::{arg_flag, arg_str, arg_usize, ascii_slice, print_table};
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n = arg_usize(&args, "size", 64);
    let np = arg_usize(&args, "np", 64);
    let rows = arg_usize(&args, "rows", 4);
    let cols = arg_usize(&args, "cols", 4);
    let trace_path = arg_str(&args, "trace");
    let analyze = arg_flag(&args, "analyze");
    let stall_ms = arg_usize(&args, "stall-ms", 30_000);
    let flight_dump = arg_str(&args, "flight-dump");
    let throttle_bp_ms = arg_usize(&args, "throttle-bp-ms", 0);
    let ring_capacity = arg_usize(&args, "ring-capacity", 0);

    let geo = CbctGeometry::standard(Dims2::new(2 * n, 2 * n), np, Dims3::cube(n));
    let grid = RankGrid::new(rows, cols).expect("valid grid");
    println!(
        "distributed iFDK: {} ranks as {rows} rows x {cols} cols (paper Fig. 3/7 layout)",
        grid.n_ranks()
    );

    // "Scan": projections land on the parallel file system.
    let phantom = Phantom::shepp_logan(0.45 * n as f64);
    let stack = project_all_analytic(&geo, &phantom);
    let input = PfsStore::memory();
    upload_projections(&input, &stack).expect("upload");

    // Distributed reconstruction. Summary-mode observability is on by
    // default; --trace or --analyze upgrades to full span capture.
    let mut cfg = DistConfig::new(geo.clone(), grid);
    if trace_path.is_some() || analyze {
        cfg.obs = ct_obs::Recorder::trace();
    }
    if flight_dump.is_some() || arg_flag(&args, "stall-ms") {
        cfg.live = Some(LiveConfig {
            stall_deadline: (stall_ms > 0).then(|| Duration::from_millis(stall_ms as u64)),
            ..LiveConfig::default()
        });
    }
    if throttle_bp_ms > 0 {
        cfg.bp_throttle = Some(Duration::from_millis(throttle_bp_ms as u64));
    }
    if ring_capacity > 0 {
        cfg.ring_capacity = ring_capacity;
    }
    let output = PfsStore::memory();
    let report = reconstruct_distributed(&cfg, &input, &output).expect("distributed run");

    // Verify against the single-node pipeline.
    let single = reconstruct(&geo, &stack, &ReconOptions::default()).expect("single-node");
    let vol = download_volume(&output, geo.volume).expect("download");
    let err = nrmse(single.data(), vol.data()).expect("same shape");

    println!("\nper-stage busy time (max over ranks):");
    let mut rows_out = Vec::new();
    for stage in [
        "load",
        "filter",
        "allgather",
        "backprojection",
        "reduce",
        "store",
    ] {
        rows_out.push(vec![
            stage.to_string(),
            format!("{:.3} s", report.max_stage_secs(stage)),
        ]);
    }
    print_table(&["stage", "max over ranks"], &rows_out);

    println!(
        "\nend-to-end   : {:.3} s ({:.2} GUPS)",
        report.runtime_secs, report.gups
    );
    println!(
        "comm traffic : {} messages, {:.1} MiB",
        report.comm_messages,
        report.comm_bytes as f64 / (1 << 20) as f64
    );
    println!("PFS          : {} slices stored", output.list().len());
    println!("vs single    : NRMSE {err:.2e} (paper bar: < 1e-5)");

    // Model vs. measured: the paper's analytic per-stage predictions
    // (Eqs. 8-19, ABCI constants) against what this run observed.
    let div = model_divergence(
        &cfg,
        &report,
        &MachineConfig::abci(),
        &KernelModel::v100_proposed(),
    )
    .expect("model input is valid");
    println!("\nmodel (ABCI constants) vs. measured (this machine):");
    print!("{div}");

    if analyze {
        let a = report
            .pipeline_analysis()
            .expect("trace-mode capture analyzes");
        println!("\ncritical-path & overlap analysis (offline, from the capture):");
        print!("{a}");
    }

    if let Some(live) = &report.live {
        println!("\nlive telemetry:");
        if live.trips.is_empty() {
            println!("  watchdog       : no trips");
        } else {
            for trip in &live.trips {
                println!(
                    "  watchdog TRIP  : ring {} {:?} blocked {:.1} ms",
                    trip.ring,
                    trip.kind,
                    trip.wait_ns as f64 / 1e6
                );
            }
        }
        if let Some(path) = &flight_dump {
            let dump = live.flight_dump.as_ref().or(live.trip_dump.as_ref());
            if let Some(dump) = dump {
                let json = ct_obs::chrome::to_chrome_json(dump);
                std::fs::write(path, &json).expect("writing flight dump");
                println!(
                    "  flight dump    : {} spans -> {path} (open in Perfetto)",
                    dump.events.len()
                );
            }
        }
    }

    if let Some(path) = &trace_path {
        let json = ct_obs::chrome::to_chrome_json(&report.trace);
        let check = ct_obs::chrome::validate(&json).expect("exporter emits a valid trace");
        std::fs::write(path, &json).expect("writing trace file");
        println!(
            "\ntrace        : {} spans across {} ranks -> {path} (open in Perfetto)",
            check.span_events,
            check.ranks.len()
        );
    }

    println!("\ncentral slice of the distributed reconstruction:");
    print!("{}", ascii_slice(&vol, n / 2, 64));

    assert!(err < 1e-5, "distributed result diverged from single-node");
    println!("OK: distributed == single-node at the paper's tolerance");
}
