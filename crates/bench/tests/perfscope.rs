//! End-to-end exit-code contract tests for `perfscope` and
//! `tracereport`, driving the real binaries (`CARGO_BIN_EXE_*`) the way
//! CI does: a clean fixture trajectory passes (exit 0), an injected
//! regression fails (exit 1), and broken inputs map onto the 1/2/3
//! codes rather than a crash.

use ct_perfdb::{MachineInfo, PerfDb, RunConfig, RunRecord};
use std::path::PathBuf;
use std::process::{Command, Output};

fn perfscope(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfscope"))
        .args(args)
        .output()
        .expect("spawn perfscope")
}

fn tracereport(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tracereport"))
        .args(args)
        .output()
        .expect("spawn tracereport")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("exit code")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(name)
}

/// A gups-sweep record on *this* machine (perfscope judges only runs
/// whose fingerprint matches the box it runs on).
fn gups_record(t: u64, kernel: &str, gups: f64) -> RunRecord {
    let mut r = RunRecord::new("gups", t, MachineInfo::detect());
    r.config = RunConfig {
        kernel: kernel.into(),
        layout: "transposed".into(),
        threads: 1,
        problem: "16^3 x 8p".into(),
        ..RunConfig::default()
    };
    r.set_metric("gups_median", gups);
    r
}

fn write_db(name: &str, records: &[RunRecord]) -> PathBuf {
    let path = tmp(name);
    let _ = std::fs::remove_file(&path);
    PerfDb::append(&path, records).expect("write fixture trajectory");
    path
}

#[test]
fn clean_trajectory_passes_regression_fails() {
    // Eight steady sweeps: the gate must pass.
    let mut recs: Vec<RunRecord> = (0..8)
        .flat_map(|i| {
            [
                gups_record(1_000 + i, "lanes", 0.20 + 0.002 * (i % 3) as f64),
                gups_record(1_000 + i, "warp", 0.10),
            ]
        })
        .collect();
    let clean = write_db("perfscope-e2e-clean.jsonl", &recs);
    let out = perfscope(&[clean.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "clean trajectory must pass: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("| lanes/transposed@1 | 8 |"), "{stdout}");

    // Same trajectory plus one collapsed lane cell as the latest run:
    // the gate must fail with the check-failed code, not a crash.
    recs.push(gups_record(2_000, "lanes", 0.13));
    recs.push(gups_record(2_000, "warp", 0.10));
    let bad = write_db("perfscope-e2e-regressed.jsonl", &recs);
    let out = perfscope(&[bad.to_str().unwrap()]);
    assert_eq!(code(&out), 1, "injected regression must exit 1: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("regressed"),
        "failure names the regression: {stderr}"
    );
}

#[test]
fn unreadable_and_usage_exit_codes() {
    let out = perfscope(&["/nonexistent/perfscope-e2e.jsonl"]);
    assert_eq!(code(&out), 2, "missing store is unreadable: {out:?}");

    let out = perfscope(&[]);
    assert_eq!(code(&out), 3, "missing path is usage: {out:?}");

    let db = write_db("perfscope-e2e-usage.jsonl", &[gups_record(1, "lanes", 0.2)]);
    let out = perfscope(&[db.to_str().unwrap(), "check"]);
    assert_eq!(
        code(&out),
        3,
        "any argument besides the path is usage: {out:?}"
    );
    let out = perfscope(&[db.to_str().unwrap(), "--machine", "any"]);
    assert_eq!(code(&out), 3, "{out:?}");
}

#[test]
fn deeply_nested_input_is_an_exit_code_not_an_abort() {
    // A file of brackets used to overflow the recursive parser's stack
    // (SIGABRT, exit 134): outside the 0/1/2/3 contract.
    let path = tmp("perfscope-e2e-nested.json");
    std::fs::write(&path, "[".repeat(200_000)).expect("write fixture");
    let p = path.to_str().unwrap();

    let out = perfscope(&[p]);
    assert_eq!(code(&out), 1, "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("nesting deeper than 128"));

    let out = tracereport(&[p]);
    assert_eq!(code(&out), 1, "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("not a valid trace"));
}
