//! `--record <path>`: append the analyzer's own wall time to the perf
//! trajectory.
//!
//! The analyzer is on the CI critical path, so its cost is a tracked
//! metric like any kernel: each run appends one `ifdk-run/v1` record —
//! a `ct_perfdb::RunRecord`, the same type, machine probe and
//! fingerprint every other producer uses — with per-pass
//! wall-milliseconds and totals.

use crate::passes::PassReport;
use ct_perfdb::{MachineInfo, PerfDb, RunRecord};
use std::path::Path;

/// The record for this analyzer run: per-pass wall time as
/// `pass.<name>.wall_ms`, total wall time and total findings.
pub fn run_record(machine: MachineInfo, t_unix_ms: u64, reports: &[PassReport]) -> RunRecord {
    let mut r = RunRecord::new("xtask-analyze", t_unix_ms, machine);
    // The config section carries the analyzer's shape in the fields the
    // schema has: `threads` = worker count (one per pass).
    r.config.kernel = "analyze".to_string();
    r.config.threads = reports.len() as u64;
    for p in reports {
        r.set_metric(&format!("pass.{}.wall_ms", p.name), p.wall_ms);
    }
    r.set_metric(
        "analyze.findings",
        reports.iter().map(|p| p.findings as f64).sum(),
    );
    r.set_metric(
        "analyze.total_wall_ms",
        reports.iter().map(|p| p.wall_ms).sum(),
    );
    r
}

/// Append one record line to `path`, creating the file if needed.
pub fn append(path: &Path, reports: &[PassReport]) -> Result<(), String> {
    let record = run_record(MachineInfo::detect(), ct_obs::clock::unix_millis(), reports);
    PerfDb::append(path, &[record]).map_err(|e| format!("append {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> MachineInfo {
        MachineInfo {
            cpu_model: "Example \"CPU\" @ 3.00GHz µ".into(),
            cpu_flags: vec!["avx2".into(), "fma".into()],
            logical_cpus: 4,
        }
    }

    fn pass(name: &'static str, findings: usize, wall_ms: f64) -> PassReport {
        PassReport {
            name,
            findings,
            wall_ms,
        }
    }

    #[test]
    fn record_line_is_the_perfdb_line_with_sorted_metrics() {
        let reports = [
            pass("panic-reachable", 2, 1.5),
            pass("index-bounds", 0, 2.25),
            pass("layering", 1, 0.125),
        ];
        let line = run_record(machine(), 1_754_600_000_123, &reports).to_json();
        // The bytes the hand-written replica emitted before xtask used
        // `ct_perfdb` (captured from that commit): metrics name-sorted,
        // analyze.* before pass.*.
        assert_eq!(
            line,
            "{\"schema\":\"ifdk-run/v1\",\"source\":\"xtask-analyze\",\
             \"t_unix_ms\":1754600000123,\"fingerprint\":\"b27e7cbae68b2755\",\
             \"machine\":{\"cpu_model\":\"Example \\\"CPU\\\" @ 3.00GHz \\u00b5\",\
             \"cpu_flags\":[\"avx2\",\"fma\"],\"logical_cpus\":4},\
             \"config\":{\"kernel\":\"analyze\",\"layout\":\"\",\"threads\":3,\
             \"grid_rows\":0,\"grid_cols\":0,\"tile\":\"\",\"problem\":\"\"},\
             \"metrics\":[{\"name\":\"analyze.findings\",\"value\":3},\
             {\"name\":\"analyze.total_wall_ms\",\"value\":3.875},\
             {\"name\":\"pass.index-bounds.wall_ms\",\"value\":2.25},\
             {\"name\":\"pass.layering.wall_ms\",\"value\":0.125},\
             {\"name\":\"pass.panic-reachable.wall_ms\",\"value\":1.5}]}"
        );
        let parsed = RunRecord::from_json(&line).expect("perfdb reads its own line");
        assert_eq!(parsed.to_json(), line);
    }

    #[test]
    fn append_creates_a_store_perfdb_loads() {
        let dir = std::env::temp_dir().join("xtask-recorder-fixture");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("perf/analyze.jsonl");
        let reports = [pass("layering", 0, 0.5)];
        append(&path, &reports).expect("first append");
        append(&path, &reports).expect("second append");
        let text = std::fs::read_to_string(&path).expect("file exists");
        for line in text.lines() {
            let parsed = RunRecord::from_json(line).expect("appended line parses");
            assert_eq!(parsed.to_json(), line);
        }
        let db = PerfDb::load(&path).expect("store loads");
        assert_eq!(db.records.len(), 2, "{text}");
        for r in &db.records {
            assert_eq!(r.source, "xtask-analyze");
            assert_eq!(r.metric("pass.layering.wall_ms"), Some(0.5));
            assert_eq!(r.fingerprint(), MachineInfo::detect().fingerprint());
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
