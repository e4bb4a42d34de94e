//! Cross-crate round-trip guarantees for the `ifdk-run/v1` record
//! schema (ISSUE 8, satellite 4): exact serialize→parse identity,
//! tolerance of unknown fields written by future producers, and loud
//! rejection of records from a different schema version.

use ct_perfdb::{Filter, MachineInfo, PerfDb, RunConfig, RunRecord, SCHEMA};

/// A fully-populated record exercising every serialized field.
fn full_record() -> RunRecord {
    let machine = MachineInfo {
        cpu_model: "Integration Test CPU @ 3.00GHz".into(),
        cpu_flags: vec!["avx2".into(), "fma".into(), "sse4_2".into()],
        logical_cpus: 16,
        target_features: vec!["sse2".into()],
    };
    let mut r = RunRecord::new("gups", 1_754_000_000_123, machine);
    r.config = RunConfig {
        kernel: "lanes".into(),
        layout: "transposed".into(),
        threads: 8,
        grid_rows: 4,
        grid_cols: 2,
        tile: "32x32x8".into(),
        problem: "256^3 x 512p".into(),
    };
    r.set_metric("gups_median", 1.875)
        .set_metric("gups_mad", 0.015625)
        .set_metric("overlap_efficiency", 0.9375)
        .set_metric("stage.backprojection.p99_secs", 0.002);
    r
}

#[test]
fn round_trip_is_exact() {
    let r = full_record();
    let json = r.to_json();
    let back = RunRecord::from_json(&json).expect("own output parses");
    assert_eq!(back, r, "from_json(to_json(r)) must equal r exactly");
    // Serialization itself is deterministic: a second trip is
    // byte-identical, so trajectory diffs never churn.
    assert_eq!(back.to_json(), json);
}

#[test]
fn minimal_record_round_trips_too() {
    // Defaults everywhere: empty machine, empty config, no metrics.
    let r = RunRecord::new("monitor", 0, MachineInfo::default());
    let back = RunRecord::from_json(&r.to_json()).expect("minimal record parses");
    assert_eq!(back, r);
}

#[test]
fn unknown_fields_from_future_producers_are_tolerated() {
    let r = full_record();
    // Simulate a v1.x writer that added fields this reader has never
    // heard of, at both the top level and inside nested objects.
    let json = r
        .to_json()
        .replacen(
            "\"source\"",
            "\"ci_run_url\":\"https://example.invalid/runs/9\",\"source\"",
            1,
        )
        .replacen(
            "\"cpu_model\"",
            "\"cpu_microcode\":\"0xd000363\",\"cpu_model\"",
            1,
        )
        .replacen("\"kernel\"", "\"compiler\":\"rustc 1.99\",\"kernel\"", 1);
    let back = RunRecord::from_json(&json).expect("unknown fields must not break parsing");
    assert_eq!(back, r, "unknown fields are ignored, known ones intact");
}

#[test]
fn wrong_schema_is_rejected_with_a_clear_error() {
    let json = full_record().to_json().replace(SCHEMA, "ifdk-run/v2");
    let err = RunRecord::from_json(&json).expect_err("newer schema must be rejected");
    assert!(
        err.contains("ifdk-run/v2") && err.contains(SCHEMA),
        "error names both the found and the supported schema: {err}"
    );

    let err = RunRecord::from_json("{\"source\":\"gups\",\"t_unix_ms\":1}")
        .expect_err("schema-less record must be rejected");
    assert!(
        err.contains("schema"),
        "error mentions the missing field: {err}"
    );
}

#[test]
fn store_round_trips_through_jsonl() {
    let records = vec![
        full_record(),
        RunRecord::new("tracereport", 1_754_000_000_456, MachineInfo::default()),
    ];
    let dir = std::env::temp_dir().join("ifdk-int-perfdb");
    let path = dir.join("trajectory.jsonl");
    let _ = std::fs::remove_file(&path);
    PerfDb::append(&path, &records).expect("append creates parent dirs and file");
    // Appending twice must extend, never truncate.
    PerfDb::append(&path, &records[..1]).expect("second append");
    let db = PerfDb::load(&path).expect("store loads");
    assert_eq!(db.records.len(), 3);
    assert_eq!(db.records[0], records[0]);
    assert_eq!(db.records[1], records[1]);
    assert_eq!(db.records[2], records[0]);

    let hits = db.select(&Filter {
        source: Some("gups".into()),
        kernel: Some("lanes".into()),
        ..Filter::default()
    });
    assert_eq!(hits.len(), 2, "filter matches both gups records");
    let _ = std::fs::remove_file(&path);
}
