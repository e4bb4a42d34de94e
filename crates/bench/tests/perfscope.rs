//! End-to-end exit-code contract tests for `perfscope`, driving the
//! real binaries (`CARGO_BIN_EXE_*`) the way CI does: a clean fixture
//! trajectory passes the trend gate (exit 0), a synthetic injected
//! regression fails it (exit 1), and a `perfscope`-selected
//! auto-baseline feeds `benchdiff` end to end.

use ct_perfdb::{MachineInfo, PerfDb, RunConfig, RunRecord};
use ifdk_bench::gups::{GupsCell, GupsReport};
use std::path::PathBuf;
use std::process::{Command, Output};

fn perfscope(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfscope"))
        .args(args)
        .output()
        .expect("spawn perfscope")
}

fn benchdiff(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_benchdiff"))
        .args(args)
        .output()
        .expect("spawn benchdiff")
}

fn tracecheck(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tracecheck"))
        .args(args)
        .output()
        .expect("spawn tracecheck")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("exit code")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(name)
}

/// A gups-sweep record on *this* machine (perfscope `check`/`baseline`
/// default to `--machine self`; the fixture must match it).
fn gups_record(t: u64, kernel: &str, gups: f64) -> RunRecord {
    let mut r = RunRecord::new("gups", t, MachineInfo::detect());
    r.config = RunConfig {
        kernel: kernel.into(),
        layout: "transposed".into(),
        threads: 1,
        problem: "16^3 x 8p".into(),
        ..RunConfig::default()
    };
    r.set_metric("gups_median", gups)
        .set_metric("gups_mad", 0.002)
        .set_metric("secs_median", 0.5)
        .set_metric("repeats", 3.0)
        .set_metric("updates", 32768.0);
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
    // Eight steady runs: the gate must pass.
    let mut recs: Vec<RunRecord> = (0..8)
        .map(|i| gups_record(1_000 + i, "lanes", 0.20 + 0.002 * (i % 3) as f64))
        .collect();
    let clean = write_db("perfscope-e2e-clean.jsonl", &recs);
    let out = perfscope(&[
        clean.to_str().unwrap(),
        "check",
        "--metric",
        "gups_median",
        "--kernel",
        "lanes",
    ]);
    assert_eq!(code(&out), 0, "clean trajectory must pass: {out:?}");

    // Same trajectory plus one injected collapse as the latest run:
    // the gate must fail with the check-failed code, not a crash.
    recs.push(gups_record(2_000, "lanes", 0.09));
    let bad = write_db("perfscope-e2e-regressed.jsonl", &recs);
    let out = perfscope(&[
        bad.to_str().unwrap(),
        "check",
        "--metric",
        "gups_median",
        "--kernel",
        "lanes",
    ]);
    assert_eq!(code(&out), 1, "injected regression must exit 1: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("regressed"),
        "failure names the regression: {stderr}"
    );
}

#[test]
fn unreadable_and_usage_exit_codes() {
    let out = perfscope(&[
        "/nonexistent/perfscope-e2e.jsonl",
        "check",
        "--metric",
        "gups_median",
    ]);
    assert_eq!(code(&out), 2, "missing store is unreadable: {out:?}");

    let out = perfscope(&["only-a-db-path.jsonl"]);
    assert_eq!(code(&out), 3, "missing command is usage: {out:?}");

    let db = write_db("perfscope-e2e-usage.jsonl", &[gups_record(1, "lanes", 0.2)]);
    let out = perfscope(&[db.to_str().unwrap(), "check"]);
    assert_eq!(code(&out), 3, "check without --metric is usage: {out:?}");
}

#[test]
fn trend_json_is_machine_readable() {
    let recs: Vec<RunRecord> = (0..5)
        .map(|i| gups_record(1_000 + i, "lanes", 0.2 + i as f64 * 0.001))
        .collect();
    let db = write_db("perfscope-e2e-trend.jsonl", &recs);
    let out = perfscope(&[
        db.to_str().unwrap(),
        "trend",
        "--metric",
        "gups_median",
        "--machine",
        "any",
        "--format",
        "json",
    ]);
    assert_eq!(code(&out), 0, "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let v = ct_obs::chrome::json::parse(stdout.trim()).expect("trend JSON parses");
    assert_eq!(
        v.get("schema").and_then(|x| x.as_str()),
        Some("ifdk-perfdb/trend/v1")
    );
    assert_eq!(v.get("n").and_then(|x| x.as_f64()), Some(5.0));
}

#[test]
fn auto_baseline_feeds_benchdiff_end_to_end() {
    // Trajectory: steady history for two cells on this machine.
    let mut recs = Vec::new();
    for t in 0..6u64 {
        recs.push(gups_record(1_000 + t, "lanes", 0.20));
        recs.push(gups_record(1_000 + t, "warp", 0.15));
    }
    let db = write_db("perfscope-e2e-baseline.jsonl", &recs);
    let baseline = tmp("perfscope-e2e-baseline-out.json");
    let _ = std::fs::remove_file(&baseline);
    let out = perfscope(&[
        db.to_str().unwrap(),
        "baseline",
        "--out",
        baseline.to_str().unwrap(),
        "--last",
        "5",
    ]);
    assert_eq!(code(&out), 0, "baseline selection must succeed: {out:?}");

    // The emitted baseline is an ordinary gups report benchdiff accepts.
    let report =
        GupsReport::from_json(&std::fs::read_to_string(&baseline).expect("baseline written"))
            .expect("baseline is a valid gups report");
    assert_eq!(
        report.find("lanes", "transposed", 1).unwrap().gups_median,
        0.20
    );

    // Candidate at parity: gate passes.
    let mut candidate = report.clone();
    candidate.machine = Some(MachineInfo::detect());
    let cand_path = tmp("perfscope-e2e-candidate.json");
    std::fs::write(&cand_path, candidate.to_json()).expect("write candidate");
    let out = benchdiff(&[baseline.to_str().unwrap(), cand_path.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "parity candidate passes: {out:?}");

    // Candidate with a collapsed lanes cell: gate fails against the
    // trajectory-selected baseline.
    let mut slow = candidate.clone();
    for c in &mut slow.cells {
        if c.kernel == "lanes" {
            c.gups_median = 0.05;
        }
    }
    std::fs::write(&cand_path, slow.to_json()).expect("write slow candidate");
    let out = benchdiff(&[baseline.to_str().unwrap(), cand_path.to_str().unwrap()]);
    assert_eq!(code(&out), 1, "collapsed candidate fails: {out:?}");

    let _ = std::fs::remove_file(&cand_path);
    let _ = std::fs::remove_file(&baseline);
}

#[test]
fn fingerprint_mismatch_warns_but_does_not_fail() {
    let other_machine = MachineInfo {
        cpu_model: "Some Other Box".into(),
        cpu_flags: vec!["neon".into()],
        logical_cpus: 2,
    };
    let cell = GupsCell {
        kernel: "lanes".into(),
        layout: "transposed".into(),
        threads: 1,
        repeats: 3,
        gups_median: 0.2,
        gups_mad: 0.002,
        secs_median: 0.5,
    };
    let mut base = GupsReport {
        problem: "16^3 x 8p".into(),
        updates: 32768,
        machine: Some(other_machine),
        cells: vec![cell],
    };
    let base_path = tmp("perfscope-e2e-xmachine-base.json");
    std::fs::write(&base_path, base.to_json()).expect("write baseline");
    base.machine = Some(MachineInfo::detect());
    let cand_path = tmp("perfscope-e2e-xmachine-cand.json");
    std::fs::write(&cand_path, base.to_json()).expect("write candidate");
    let out = benchdiff(&[base_path.to_str().unwrap(), cand_path.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "mismatch alone must not fail: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("fingerprint mismatch"),
        "cross-machine gate warns: {stderr}"
    );
    let _ = std::fs::remove_file(&base_path);
    let _ = std::fs::remove_file(&cand_path);
}

#[test]
fn deeply_nested_input_is_an_exit_code_not_an_abort() {
    // A file of brackets used to overflow the recursive parser's stack
    // (SIGABRT, exit 134): outside the 0/1/2/3 contract.
    let path = tmp("perfscope-e2e-nested.json");
    std::fs::write(&path, "[".repeat(200_000)).expect("write fixture");
    let p = path.to_str().unwrap();

    let out = benchdiff(&[p, p]);
    assert_eq!(code(&out), 2, "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("nesting deeper than 128"));

    let out = tracecheck(&[p]);
    assert_eq!(code(&out), 1, "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("not a valid trace"));
}
