//! Judge the perf trajectory (`ct-perfdb` JSONL) against itself.
//!
//! ```text
//! cargo run --release -p ifdk-bench --bin perfscope -- perfdb.jsonl
//! ```
//!
//! One rule, no options. The latest `gups` run recorded on this machine
//! fingerprint (the cells `gups --record` stamped with the newest
//! `t_unix_ms`) is judged two ways:
//!
//! * **regression** — every (kernel, layout, threads) cell against the
//!   same cell's earlier runs on the same problem and fingerprint, by
//!   `analytics::check_latest` under `RegressionPolicy::default()`
//!   (window 8, 4 robust sigma, 5 % floor). A cell with fewer than
//!   [`MIN_RUNS`] runs passes, so a new trajectory can start;
//! * **improvement** — in the same run, `lanes/transposed@1` must reach
//!   [`MIN_SPEEDUP`] × `warp/transposed@1` (the lane sampler's claim
//!   over the scalar sampler, same driver, one thread). A missing cell
//!   fails.
//!
//! It prints one markdown line per cell (runs, baseline median, MAD,
//! latest, bound, verdict) and the speedup line. Exit codes follow
//! `ifdk_bench::check`: 0 ok, 1 check failed (regression, too small a
//! speedup, no run from this machine, malformed store), 2 unreadable
//! file, 3 any argument besides the path.

use ct_perfdb::{analytics, MachineInfo, PerfDb, RegressionPolicy, RunRecord};
use ifdk_bench::check::{read_input, Gate};
use std::process::ExitCode;

const USAGE: &str = "usage: perfscope <db.jsonl>";

/// Runs a cell needs (the latest included) before it is judged.
const MIN_RUNS: usize = 3;

/// Required `lanes/transposed@1` over `warp/transposed@1` GUPS ratio.
const MIN_SPEEDUP: f64 = 1.25;

fn cell_key(r: &RunRecord) -> String {
    let c = &r.config;
    format!("{}/{}@{}", c.kernel, c.layout, c.threads)
}

/// Judge the latest `gups` run on `fingerprint`; returns the report
/// lines and the verdict.
fn judge(db: &PerfDb, fingerprint: &str) -> (Vec<String>, Gate) {
    let mut recs: Vec<&RunRecord> = db
        .records
        .iter()
        .filter(|r| r.source == "gups" && r.fingerprint() == fingerprint)
        .collect();
    // Stable: append order breaks timestamp ties.
    recs.sort_by_key(|r| r.t_unix_ms);
    let Some(t_latest) = recs.last().map(|r| r.t_unix_ms) else {
        return (
            Vec::new(),
            Gate::CheckFailed(format!(
                "no gups run recorded on this machine (fingerprint {fingerprint}); \
                 run `gups --record <db>` first"
            )),
        );
    };
    let latest: Vec<&RunRecord> = recs
        .iter()
        .copied()
        .filter(|r| r.t_unix_ms == t_latest)
        .collect();

    let policy = RegressionPolicy::default();
    let mut lines = vec![
        format!(
            "perfscope: gups run t_unix_ms {t_latest} on {fingerprint}, problem {}",
            latest[0].config.problem
        ),
        String::new(),
        "| cell | runs | median | mad | latest | bound | verdict |".to_string(),
        "|------|------|--------|-----|--------|-------|---------|".to_string(),
    ];
    let mut problems: Vec<String> = Vec::new();
    for cell in &latest {
        let key = cell_key(cell);
        let series: Vec<f64> = recs
            .iter()
            .filter(|r| cell_key(r) == key && r.config.problem == cell.config.problem)
            .filter_map(|r| r.metric("gups_median"))
            .collect();
        let Some(value) = cell.metric("gups_median") else {
            lines.push(format!("| {key} | - | - | - | - | - | NO GUPS |"));
            problems.push(format!("{key}: latest run carries no gups_median"));
            continue;
        };
        let verdict = if series.len() < MIN_RUNS {
            None
        } else {
            analytics::check_latest(&series, &policy)
        };
        match verdict {
            None => lines.push(format!(
                "| {key} | {} | - | - | {value:.4} | - | pass (< {MIN_RUNS} runs) |",
                series.len()
            )),
            Some(v) => {
                lines.push(format!(
                    "| {key} | {} | {:.4} | {:.4} | {:.4} | {:.4} | {} |",
                    series.len(),
                    v.baseline,
                    v.mad,
                    v.latest,
                    v.bound,
                    if v.regressed { "REGRESSED" } else { "ok" }
                ));
                if v.regressed {
                    problems.push(format!(
                        "{key} regressed: {:.4} GUPS below bound {:.4} (median {:.4} over {} run(s))",
                        v.latest, v.bound, v.baseline, v.n
                    ));
                }
            }
        }
    }

    let find = |key: &str| {
        latest
            .iter()
            .find(|r| cell_key(r) == key)
            .and_then(|r| r.metric("gups_median"))
    };
    let (cand, base) = ("lanes/transposed@1", "warp/transposed@1");
    lines.push(String::new());
    match (find(cand), find(base)) {
        (Some(c), Some(b)) => {
            let ok = c >= MIN_SPEEDUP * b;
            lines.push(format!(
                "{cand} vs {base}: {c:.4} vs {b:.4} GUPS ({:+.1}%, need {:+.0}%) {}",
                (c / b - 1.0) * 100.0,
                (MIN_SPEEDUP - 1.0) * 100.0,
                if ok { "ok" } else { "TOO SLOW" }
            ));
            if !ok {
                problems.push(format!(
                    "{cand} is {:.2}x {base}, under the required {MIN_SPEEDUP}x",
                    c / b
                ));
            }
        }
        (c, _) => {
            let missing = if c.is_none() { cand } else { base };
            lines.push(format!("{cand} vs {base}: {missing} MISSING"));
            problems.push(format!("latest run has no {missing} cell"));
        }
    }

    let gate = if problems.is_empty() {
        Gate::Ok
    } else {
        Gate::CheckFailed(problems.join("; "))
    };
    (lines, gate)
}

fn run(args: &[String]) -> Gate {
    let [path] = args else {
        return Gate::Usage(USAGE.into());
    };
    if path.starts_with('-') {
        return Gate::Usage(USAGE.into());
    }
    let text = match read_input(path) {
        Ok(t) => t,
        Err(g) => return g,
    };
    // The store is the artifact under test: a malformed record is a
    // failed check, not an unreadable input.
    let db = match PerfDb::from_jsonl(&text) {
        Ok(db) => db,
        Err(e) => return Gate::CheckFailed(format!("{path}: {e}")),
    };
    let (lines, gate) = judge(&db, &MachineInfo::detect().fingerprint());
    for l in lines {
        println!("{l}");
    }
    gate
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    run(&args).exit()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_perfdb::RunConfig;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn record(t: u64, kernel: &str, threads: u64, gups: f64) -> RunRecord {
        let mut r = RunRecord::new("gups", t, MachineInfo::detect());
        r.config = RunConfig {
            kernel: kernel.into(),
            layout: "transposed".into(),
            threads,
            problem: "16^3 x 8p".into(),
            ..RunConfig::default()
        };
        r.set_metric("gups_median", gups);
        r
    }

    /// One sweep at time `t`: a lane cell and a warp cell.
    fn sweep(t: u64, lanes: f64, warp: f64) -> [RunRecord; 2] {
        [record(t, "lanes", 1, lanes), record(t, "warp", 1, warp)]
    }

    fn db(records: impl IntoIterator<Item = RunRecord>) -> PerfDb {
        PerfDb {
            records: records.into_iter().collect(),
        }
    }

    fn here() -> String {
        MachineInfo::detect().fingerprint()
    }

    #[test]
    fn usage_errors() {
        assert!(matches!(run(&args(&[])), Gate::Usage(_)));
        assert!(matches!(run(&args(&["--help"])), Gate::Usage(_)));
        for extra in [
            &["db.jsonl", "check"][..],
            &["db.jsonl", "--kernel", "lanes"],
        ] {
            assert!(matches!(run(&args(extra)), Gate::Usage(_)), "{extra:?}");
        }
    }

    #[test]
    fn missing_db_is_unreadable_malformed_db_fails_check() {
        let gate = run(&args(&["/nonexistent/ifdk-perfscope.jsonl"]));
        assert!(matches!(gate, Gate::Unreadable(_)));

        let path = std::env::temp_dir().join("ifdk-perfscope-malformed.jsonl");
        std::fs::write(&path, "{not a record\n").unwrap();
        let gate = run(&args(&[path.to_str().unwrap()]));
        assert!(matches!(gate, Gate::CheckFailed(_)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn check_passes_clean_flags_regression_bootstraps_when_short() {
        let mut recs: Vec<RunRecord> = (0..6)
            .flat_map(|i| sweep(1000 + i, 0.20 + 0.002 * (i % 3) as f64, 0.10))
            .collect();
        let (lines, gate) = judge(&db(recs.clone()), &here());
        assert_eq!(gate, Gate::Ok, "{lines:#?}");
        // One line per cell, plus the speedup line.
        assert_eq!(lines.iter().filter(|l| l.ends_with("| ok |")).count(), 2);

        // Inject a lane collapse as the latest run.
        recs.extend(sweep(2000, 0.13, 0.10));
        let (lines, gate) = judge(&db(recs.clone()), &here());
        match gate {
            Gate::CheckFailed(msg) => assert!(msg.contains("lanes/transposed@1 regressed")),
            other => panic!("expected a regression, got {other:?}: {lines:#?}"),
        }

        // Two runs < MIN_RUNS: the collapse cannot be judged yet.
        let short: Vec<RunRecord> = sweep(1000, 0.20, 0.10)
            .into_iter()
            .chain(sweep(2000, 0.13, 0.10))
            .collect();
        assert_eq!(judge(&db(short), &here()).1, Gate::Ok);
    }

    #[test]
    fn check_filters_out_other_kernels() {
        // Each cell is judged against its own history only. Pooled with
        // the steady warp cell, the lane drop to 0.15 would sit at the
        // pooled median and pass.
        let mut recs: Vec<RunRecord> = (0..5).flat_map(|i| sweep(1000 + i, 0.20, 0.10)).collect();
        recs.extend(sweep(2000, 0.15, 0.10));
        let (_, gate) = judge(&db(recs), &here());
        assert!(
            matches!(gate, Gate::CheckFailed(ref m) if m.contains("lanes")),
            "{gate:?}"
        );
    }

    #[test]
    fn other_machines_never_enter_the_window() {
        let other = MachineInfo {
            cpu_model: "Some Other Box".into(),
            ..MachineInfo::default()
        };
        let mut recs: Vec<RunRecord> = (0..5).flat_map(|i| sweep(1000 + i, 0.20, 0.10)).collect();
        // A fast box's history, and a later run of its own, interleaved.
        for t in [1001, 1003, 3000] {
            for mut r in sweep(t, 0.90, 0.40) {
                r.machine = other.clone();
                recs.push(r);
            }
        }
        let (lines, gate) = judge(&db(recs), &here());
        assert_eq!(gate, Gate::Ok, "{lines:#?}");
        assert!(lines[0].contains("t_unix_ms 1004"), "{}", lines[0]);
    }

    #[test]
    fn improvement_gate_passes_and_fails() {
        // 1.3x passes the 1.25x requirement on a fresh trajectory...
        assert_eq!(judge(&db(sweep(1, 0.13, 0.10)), &here()).1, Gate::Ok);
        // ...1.2x does not...
        let (_, gate) = judge(&db(sweep(1, 0.12, 0.10)), &here());
        assert!(
            matches!(gate, Gate::CheckFailed(ref m) if m.contains("1.25")),
            "{gate:?}"
        );
        // ...and a run missing either cell fails rather than passing.
        for kernel in ["lanes", "warp"] {
            let only = [record(1, kernel, 1, 0.2), record(1, kernel, 4, 0.6)];
            let (_, gate) = judge(&db(only), &here());
            assert!(
                matches!(gate, Gate::CheckFailed(ref m) if m.contains("no ")),
                "{gate:?}"
            );
        }
    }

    #[test]
    fn trend_reports_and_fails_on_empty_selection() {
        // A header, the table head, one line per cell, the speedup line.
        let (lines, gate) = judge(&db(sweep(1, 0.2, 0.1)), &here());
        assert_eq!(gate, Gate::Ok);
        assert!(lines
            .iter()
            .any(|l| l.starts_with("| warp/transposed@1 | 1 |")));
        assert!(lines.last().unwrap().contains("+100.0%"), "{lines:#?}");
        // Records exist, but none from this machine: nothing to judge.
        let (lines, gate) = judge(&db(sweep(1, 0.2, 0.1)), "0000000000000000");
        assert!(lines.is_empty());
        assert!(matches!(gate, Gate::CheckFailed(ref m) if m.contains("no gups run")));
    }

    #[test]
    fn baseline_with_no_records_fails_check() {
        let (_, gate) = judge(&PerfDb::default(), &here());
        assert!(matches!(gate, Gate::CheckFailed(_)));
    }
}
