//! The provenance header: a number counts only if it names the build,
//! the machine and the load it was taken under.

use crate::workload::Workload;
use ct_perfdb::MachineInfo;
use std::path::Path;
use std::process::Command;

/// Target features the compiler was allowed to use for this build, of
/// those that change what the kernels lower to.
fn target_features() -> String {
    let enabled: Vec<&str> = [
        ("sse2", cfg!(target_feature = "sse2")),
        ("sse4.1", cfg!(target_feature = "sse4.1")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("neon", cfg!(target_feature = "neon")),
    ]
    .iter()
    .filter_map(|&(name, on)| on.then_some(name))
    .collect();
    if enabled.is_empty() {
        "none".into()
    } else {
        enabled.join(",")
    }
}

fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` next to the benchmark
/// directory. Exported checkouts have none.
fn git_commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown (not a git checkout)".into();
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => read(&git.join(reference)).unwrap_or(head),
        None => head,
    }
}

/// One-minute load average when the run starts.
fn load_average() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/loadavg").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// Ordered `(key, value)` pairs, printed before the run and stored in
/// the trace file.
pub fn header(w: &Workload, why: &str, seed: u64, quick: bool) -> Vec<(&'static str, String)> {
    let machine = MachineInfo::detect();
    let geo = w.geometry(quick);
    let load = load_average();
    if let Some(l) = load.filter(|l| *l > 0.5) {
        eprintln!("warning: 1-min load average {l:.2} > 0.5; timings will be noisy");
    }
    vec![
        ("workload", w.name.to_string()),
        ("why", why.to_string()),
        (
            "problem",
            format!(
                "{}x{}x{} -> {}^3{}",
                geo.detector.nu,
                geo.detector.nv,
                geo.num_projections,
                geo.volume.nx,
                if w.short_scan {
                    ", Parker short scan"
                } else {
                    ", full scan"
                }
            ),
        ),
        ("threads", w.threads().to_string()),
        ("seed", seed.to_string()),
        ("cpu", machine.cpu_model),
        ("logical_cpus", machine.logical_cpus.to_string()),
        ("cpu_flags", machine.cpu_flags.join(",")),
        ("target_features", target_features()),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug (not a measurement)".into()
            } else {
                "release, lto=thin, codegen-units=1, no target flags".into()
            },
        ),
        ("rustc", rustc_version()),
        ("git_commit", git_commit()),
        (
            "load_1min",
            load.map_or("unknown".into(), |l| format!("{l:.2}")),
        ),
    ]
}
