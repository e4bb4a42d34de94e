//! GUPS sweep statistics and the `BENCH_gups.json` interchange format.
//!
//! The paper's headline kernel metric is giga-updates per second
//! (Section 2.3); the `gups` binary sweeps kernel x layout x thread
//! count and records warmup/repeat/median+MAD statistics here. Reports
//! are written through [`ct_obs::jsonw`] and read through
//! [`ct_obs::chrome::json`] like every other artifact; the `benchdiff`
//! comparison lives here too so it is unit-testable.

use ct_obs::jsonw::{arr, str_lit, Obj};
use ct_perfdb::MachineInfo;

/// Schema tag stamped into every report, checked on read.
pub const SCHEMA: &str = "ifdk-bench/gups/v1";

/// One measured cell of the kernel x layout x threads sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct GupsCell {
    /// Kernel name (`standard`, `proposed`, `warp`, `lanes`).
    pub kernel: String,
    /// Projection access layout (`rowmajor`, `transposed`, `blocked`).
    pub layout: String,
    /// Pool width the cell ran with.
    pub threads: usize,
    /// Measured repeats (after the discarded warmup run).
    pub repeats: usize,
    /// Median GUPS over the repeats.
    pub gups_median: f64,
    /// Median absolute deviation of the per-repeat GUPS.
    pub gups_mad: f64,
    /// Median wall-clock seconds per run.
    pub secs_median: f64,
}

impl GupsCell {
    /// The `kernel/layout@threads` key cells are matched by.
    pub fn key(&self) -> String {
        format!("{}/{}@{}", self.kernel, self.layout, self.threads)
    }
}

/// A full sweep: one problem, many cells.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GupsReport {
    /// Human-readable problem label (e.g. `48^3 x 48p`).
    pub problem: String,
    /// Voxel updates per full back-projection (`Nx*Ny*Nz*Np`).
    pub updates: u128,
    /// Where the sweep ran, so a checked-in baseline documents what
    /// produced it (`None` in reports from before the field existed;
    /// the schema stays `v1`).
    pub machine: Option<MachineInfo>,
    /// The measured cells.
    pub cells: Vec<GupsCell>,
}

impl GupsReport {
    /// Serialise to JSON (schema [`SCHEMA`]), one cell per line: the
    /// checked-in baseline is read by people. Non-finite statistics
    /// follow [`ct_obs::jsonw::num_f64`] (written as `0`).
    pub fn to_json(&self) -> String {
        let cells: Vec<String> = self
            .cells
            .iter()
            .map(|c| {
                let mut o = Obj::new();
                o.field_str("kernel", &c.kernel)
                    .field_str("layout", &c.layout)
                    .field_u64("threads", c.threads as u64)
                    .field_u64("repeats", c.repeats as u64)
                    .field_f64("gups_median", c.gups_median)
                    .field_f64("gups_mad", c.gups_mad)
                    .field_f64("secs_median", c.secs_median);
                format!("    {}", o.finish())
            })
            .collect();
        let machine = self
            .machine
            .as_ref()
            .map(|m| format!("  \"machine\": {},\n", m.to_json()))
            .unwrap_or_default();
        format!(
            "{{\n  \"schema\": {},\n  \"problem\": {},\n  \"updates\": {},\n{machine}  \"cells\": [\n{}\n  ]\n}}\n",
            str_lit(SCHEMA),
            str_lit(&self.problem),
            self.updates,
            cells.join(",\n")
        )
    }

    /// Parse a report, validating the schema tag.
    pub fn from_json(input: &str) -> Result<Self, String> {
        use ct_obs::chrome::json::{parse, Value};
        let v = parse(input)?;
        let schema = v
            .get("schema")
            .and_then(Value::as_str)
            .ok_or("missing schema tag")?;
        if schema != SCHEMA {
            return Err(format!("schema {schema:?}, expected {SCHEMA:?}"));
        }
        let problem = v
            .get("problem")
            .and_then(Value::as_str)
            .ok_or("missing problem label")?
            .to_string();
        let updates = v
            .get("updates")
            .and_then(Value::as_f64)
            .ok_or("missing updates")? as u128;
        let machine = v.get("machine").map(MachineInfo::from_value);
        let cells = v
            .get("cells")
            .and_then(Value::as_array)
            .ok_or("missing cells array")?
            .iter()
            .enumerate()
            .map(|(i, c)| -> Result<GupsCell, String> {
                let s = |k: &str| {
                    c.get(k)
                        .and_then(Value::as_str)
                        .map(str::to_string)
                        .ok_or(format!("cell {i}: missing {k}"))
                };
                let n = |k: &str| {
                    c.get(k)
                        .and_then(Value::as_f64)
                        .ok_or(format!("cell {i}: missing {k}"))
                };
                Ok(GupsCell {
                    kernel: s("kernel")?,
                    layout: s("layout")?,
                    threads: n("threads")? as usize,
                    repeats: n("repeats")? as usize,
                    gups_median: n("gups_median")?,
                    gups_mad: n("gups_mad")?,
                    secs_median: n("secs_median")?,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(GupsReport {
            problem,
            updates,
            machine,
            cells,
        })
    }

    /// Look a cell up by its sweep coordinates.
    pub fn find(&self, kernel: &str, layout: &str, threads: usize) -> Option<&GupsCell> {
        self.cells
            .iter()
            .find(|c| c.kernel == kernel && c.layout == layout && c.threads == threads)
    }

    /// Look a cell up by its `kernel/layout@threads` key.
    pub fn find_key(&self, key: &str) -> Option<&GupsCell> {
        self.cells.iter().find(|c| c.key() == key)
    }

    /// Flatten this sweep into trajectory records (`--record` sink):
    /// one `ifdk-run/v1` record per cell, all stamped `t_unix_ms` and
    /// the report's machine provenance (detected on the spot when the
    /// report predates the field, so the fingerprint is never empty).
    pub fn run_records(&self, t_unix_ms: u64) -> Vec<ct_perfdb::RunRecord> {
        let machine = self
            .machine
            .clone()
            .unwrap_or_else(ct_perfdb::MachineInfo::detect);
        self.cells
            .iter()
            .map(|c| {
                let mut r = ct_perfdb::RunRecord::new("gups", t_unix_ms, machine.clone());
                r.config.kernel = c.kernel.clone();
                r.config.layout = c.layout.clone();
                r.config.threads = c.threads as u64;
                r.config.problem = self.problem.clone();
                r.set_metric("gups_median", c.gups_median)
                    .set_metric("gups_mad", c.gups_mad)
                    .set_metric("secs_median", c.secs_median)
                    .set_metric("repeats", c.repeats as f64)
                    .set_metric("updates", self.updates as f64);
                r
            })
            .collect()
    }
}

/// Outcome of comparing a candidate sweep against a baseline.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompareReport {
    /// Cells present in both reports.
    pub checked: usize,
    /// Human-readable regression lines (`key: base -> cand GUPS`).
    pub regressions: Vec<String>,
    /// Baseline cells the candidate is missing.
    pub missing: Vec<String>,
    /// Improvement-gate pairs that held (`cand >= base * (1 + min)`),
    /// as human-readable lines.
    pub improvements: Vec<String>,
    /// Improvement-gate pairs that failed (too slow, or either cell
    /// absent), as human-readable lines.
    pub improvement_failures: Vec<String>,
}

impl CompareReport {
    /// True when no regression, no missing cell, and no failed
    /// improvement gate was found.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
            && self.missing.is_empty()
            && self.improvement_failures.is_empty()
    }

    /// Machine-readable rendering for CI artifacts: the same facts the
    /// text output states, as one JSON object.
    pub fn to_json(&self) -> String {
        let list = |xs: &[String]| arr(xs.iter().map(|x| str_lit(x)));
        let mut o = Obj::new();
        o.field_str("schema", "ifdk-bench/compare/v1")
            .field_bool("passed", self.passed())
            .field_u64("checked", self.checked as u64)
            .field_raw("regressions", &list(&self.regressions))
            .field_raw("missing", &list(&self.missing))
            .field_raw("improvements", &list(&self.improvements))
            .field_raw("improvement_failures", &list(&self.improvement_failures));
        o.finish()
    }
}

/// One improvement-gate requirement: the candidate report's
/// `candidate` cell must beat the baseline report's `baseline` cell by
/// the configured speedup (both are `kernel/layout@threads` keys; a
/// cell may be gated against a *different* cell, e.g. the lane kernel
/// against the scalar warp baseline).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImprovePair {
    /// Key looked up in the candidate report.
    pub candidate: String,
    /// Key looked up in the baseline report.
    pub baseline: String,
}

impl ImprovePair {
    /// Parse `candidate=baseline` (a bare `key` gates a key against
    /// itself).
    pub fn parse(s: &str) -> Result<Self, String> {
        let (cand, base) = s.split_once('=').unwrap_or((s, s));
        if cand.is_empty() || base.is_empty() {
            return Err(format!(
                "bad improve pair {s:?}: expected cand_key=base_key"
            ));
        }
        Ok(Self {
            candidate: cand.to_string(),
            baseline: base.to_string(),
        })
    }
}

/// Check the improvement gates: each pair's candidate cell must reach
/// `baseline * (1 + min_speedup)` median GUPS. A missing cell on either
/// side fails the pair — an improvement gate that silently stops
/// measuring is worse than a red one. Results land in
/// `report.improvements` / `report.improvement_failures`.
pub fn check_improvements(
    report: &mut CompareReport,
    baseline: &GupsReport,
    candidate: &GupsReport,
    pairs: &[ImprovePair],
    min_speedup: f64,
) {
    for p in pairs {
        let Some(b) = baseline.find_key(&p.baseline) else {
            report.improvement_failures.push(format!(
                "{}: baseline cell {} absent",
                p.candidate, p.baseline
            ));
            continue;
        };
        let Some(c) = candidate.find_key(&p.candidate) else {
            report
                .improvement_failures
                .push(format!("{}: candidate cell absent", p.candidate));
            continue;
        };
        let need = b.gups_median * (1.0 + min_speedup);
        let line = format!(
            "{} vs {}: {:.4} vs {:.4} GUPS ({:+.1}%, need {:+.0}%)",
            p.candidate,
            p.baseline,
            c.gups_median,
            b.gups_median,
            (c.gups_median / b.gups_median - 1.0) * 100.0,
            min_speedup * 100.0
        );
        if c.gups_median >= need {
            report.improvements.push(line);
        } else {
            report.improvement_failures.push(line);
        }
    }
}

/// Compare per-cell median GUPS: the candidate fails a cell when its
/// median drops below `baseline * (1 - threshold)`. Cells only the
/// candidate has (new kernels) are ignored; cells only the baseline has
/// are reported as missing.
pub fn compare(baseline: &GupsReport, candidate: &GupsReport, threshold: f64) -> CompareReport {
    let mut rep = CompareReport::default();
    for b in &baseline.cells {
        let Some(c) = candidate.find(&b.kernel, &b.layout, b.threads) else {
            rep.missing.push(b.key());
            continue;
        };
        rep.checked += 1;
        let floor = b.gups_median * (1.0 - threshold);
        if c.gups_median < floor {
            rep.regressions.push(format!(
                "{}: {:.4} -> {:.4} GUPS (floor {:.4} at {:.0}% threshold)",
                b.key(),
                b.gups_median,
                c.gups_median,
                floor,
                threshold * 100.0
            ));
        }
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(kernel: &str, threads: usize, gups: f64) -> GupsCell {
        GupsCell {
            kernel: kernel.into(),
            layout: "transposed".into(),
            threads,
            repeats: 3,
            gups_median: gups,
            gups_mad: 0.01,
            secs_median: 0.5,
        }
    }

    fn report(cells: Vec<GupsCell>) -> GupsReport {
        GupsReport {
            problem: "16^3 x 8p".into(),
            updates: 32768,
            machine: None,
            cells,
        }
    }

    #[test]
    fn json_roundtrip() {
        let r = report(vec![cell("tiled", 4, 1.25), cell("standard", 1, 0.5)]);
        let parsed = GupsReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(
            parsed.find("tiled", "transposed", 4).unwrap().gups_median,
            1.25
        );
        assert!(parsed.find("tiled", "transposed", 2).is_none());
    }

    #[test]
    fn from_json_rejects_bad_input() {
        assert!(GupsReport::from_json("not json").is_err());
        assert!(GupsReport::from_json("{}").is_err());
        assert!(GupsReport::from_json("{\"schema\": \"other/v9\"}").is_err());
        // A cell missing a field is a hard error, not a silent skip.
        let r = report(vec![cell("warp", 1, 1.0)]);
        let broken = r.to_json().replace("\"gups_median\"", "\"zzz\"");
        assert!(GupsReport::from_json(&broken).is_err());
    }

    #[test]
    fn non_finite_statistic_still_serialises_and_is_judged() {
        // A NaN spread must not cost the artifact of a finished sweep.
        let mut nan = cell("warp", 1, 1.0);
        nan.gups_mad = f64::NAN;
        let r = report(vec![nan]);
        let parsed = GupsReport::from_json(&r.to_json()).expect("report parses back");
        assert_eq!(parsed.cells[0].gups_mad, 0.0);
        assert_eq!(parsed.cells[0].gups_median, 1.0);
        let c = compare(&parsed, &parsed, 0.4);
        assert!(c.passed());
        assert_eq!(c.checked, 1);
    }

    #[test]
    fn self_compare_passes() {
        let r = report(vec![cell("tiled", 4, 1.25), cell("warp", 1, 0.8)]);
        let c = compare(&r, &r, 0.4);
        assert!(c.passed());
        assert_eq!(c.checked, 2);
    }

    #[test]
    fn regression_beyond_threshold_fails() {
        let base = report(vec![cell("tiled", 4, 1.0)]);
        // 30% drop passes a 40% threshold...
        let ok = report(vec![cell("tiled", 4, 0.7)]);
        assert!(compare(&base, &ok, 0.4).passed());
        // ...a 50% drop does not.
        let bad = report(vec![cell("tiled", 4, 0.5)]);
        let c = compare(&base, &bad, 0.4);
        assert!(!c.passed());
        assert_eq!(c.regressions.len(), 1);
        assert!(c.regressions[0].contains("tiled/transposed@4"));
    }

    #[test]
    fn machine_provenance_round_trips_and_is_optional() {
        let mut r = report(vec![cell("warp", 1, 1.0)]);
        r.machine = Some(MachineInfo {
            cpu_model: "Example CPU \"X\"".into(),
            cpu_flags: vec!["avx2".into(), "fma".into()],
            logical_cpus: 8,
        });
        let parsed = GupsReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
        // Reports without the field (pre-provenance baselines) parse.
        let old = report(vec![cell("warp", 1, 1.0)]);
        let parsed = GupsReport::from_json(&old.to_json()).unwrap();
        assert_eq!(parsed.machine, None);
    }

    #[test]
    fn run_records_flatten_every_cell() {
        let mut r = report(vec![cell("lanes", 1, 1.3), cell("warp", 1, 1.0)]);
        r.machine = Some(MachineInfo {
            cpu_model: "Example CPU".into(),
            cpu_flags: vec!["avx2".into()],
            logical_cpus: 8,
        });
        let recs = r.run_records(42);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].source, "gups");
        assert_eq!(recs[0].t_unix_ms, 42);
        assert_eq!(recs[0].config.kernel, "lanes");
        assert_eq!(recs[0].config.layout, "transposed");
        assert_eq!(recs[0].config.threads, 1);
        assert_eq!(recs[0].config.problem, r.problem);
        assert_eq!(recs[0].metric("gups_median"), Some(1.3));
        assert_eq!(recs[0].metric("updates"), Some(32768.0));
        assert_eq!(recs[0].fingerprint(), recs[1].fingerprint());
        // A machine-less (pre-provenance) report still yields a usable
        // fingerprint via on-the-spot detection.
        let old = report(vec![cell("warp", 1, 1.0)]);
        let recs = old.run_records(7);
        assert!(!recs[0].fingerprint().is_empty());
    }

    #[test]
    fn improve_pair_parsing() {
        let p = ImprovePair::parse("lanes/transposed@1=warp/transposed@1").unwrap();
        assert_eq!(p.candidate, "lanes/transposed@1");
        assert_eq!(p.baseline, "warp/transposed@1");
        let p = ImprovePair::parse("warp/transposed@1").unwrap();
        assert_eq!(p.candidate, p.baseline);
        assert!(ImprovePair::parse("=x").is_err());
        assert!(ImprovePair::parse("x=").is_err());
    }

    #[test]
    fn improvement_gate_passes_and_fails() {
        let base = report(vec![cell("warp", 1, 1.0)]);
        let cand = report(vec![cell("warp", 1, 1.0), cell("lanes", 1, 1.3)]);
        let pair = ImprovePair::parse("lanes/transposed@1=warp/transposed@1").unwrap();
        let mut rep = compare(&base, &cand, 0.4);
        check_improvements(&mut rep, &base, &cand, std::slice::from_ref(&pair), 0.25);
        assert!(rep.passed(), "{:?}", rep.improvement_failures);
        assert_eq!(rep.improvements.len(), 1);
        // 30% required beats the 30% measured? 1.3 < 1.0 * 1.35 -> fail.
        let mut rep = compare(&base, &cand, 0.4);
        check_improvements(&mut rep, &base, &cand, std::slice::from_ref(&pair), 0.35);
        assert!(!rep.passed());
        assert_eq!(rep.improvement_failures.len(), 1);
        // A missing candidate cell fails rather than silently passing.
        let mut rep = compare(&base, &base, 0.4);
        check_improvements(&mut rep, &base, &base, &[pair], 0.25);
        assert!(!rep.passed());
    }

    #[test]
    fn compare_json_is_parseable_and_states_outcome() {
        let base = report(vec![cell("warp", 1, 1.0)]);
        let cand = report(vec![cell("warp", 1, 0.4)]);
        let rep = compare(&base, &cand, 0.4);
        let j = rep.to_json();
        let v = ct_obs::chrome::json::parse(&j).unwrap();
        assert_eq!(
            v.get("passed"),
            Some(&ct_obs::chrome::json::Value::Bool(false))
        );
        assert_eq!(v.get("checked").and_then(|x| x.as_f64()), Some(1.0));
        assert_eq!(
            v.get("regressions")
                .and_then(|x| x.as_array())
                .map(|a| a.len()),
            Some(1)
        );
    }

    #[test]
    fn missing_cell_fails_but_extra_cell_is_ignored() {
        let base = report(vec![cell("tiled", 4, 1.0), cell("warp", 1, 1.0)]);
        let cand = report(vec![cell("tiled", 4, 1.0), cell("newkernel", 1, 9.0)]);
        let c = compare(&base, &cand, 0.4);
        assert!(!c.passed());
        assert_eq!(c.missing, vec!["warp/transposed@1".to_string()]);
        // The candidate-only cell costs nothing.
        assert_eq!(c.checked, 1);
    }
}
