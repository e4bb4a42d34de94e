//! GUPS sweep statistics and the `BENCH_gups.json` interchange format.
//!
//! The paper's headline kernel metric is giga-updates per second
//! (Section 2.3); the `gups` binary sweeps kernel x layout x thread
//! count and records warmup/repeat/median+MAD statistics here. The JSON
//! codec is self-contained (hand-written writer, [`ct_obs::chrome::json`]
//! reader) so the gate binaries work without a serde dependency, and the
//! `benchdiff` comparison lives here too so it is unit-testable.

use std::fmt::Write as _;

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

/// Machine provenance, stamped into the report header so a checked-in
/// baseline documents what produced it. The probe itself now lives in
/// `ct-perfdb` (one definition shared by `gups`, `perfscope`,
/// `benchdiff` and the trajectory records); this re-export keeps the
/// historical `ifdk_bench::gups::MachineInfo` path working. The field
/// stays optional in the JSON (schema stays `v1`): old reports parse,
/// new gates know their hardware.
pub use ct_perfdb::MachineInfo;

/// A full sweep: one problem, many cells.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GupsReport {
    /// Human-readable problem label (e.g. `48^3 x 48p`).
    pub problem: String,
    /// Voxel updates per full back-projection (`Nx*Ny*Nz*Np`).
    pub updates: u128,
    /// Where the sweep ran (`None` in reports from before the field
    /// existed).
    pub machine: Option<MachineInfo>,
    /// The measured cells.
    pub cells: Vec<GupsCell>,
}

/// Median of a sample (empty slices return 0).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Median absolute deviation about `center`.
pub fn mad(xs: &[f64], center: f64) -> f64 {
    let devs: Vec<f64> = xs.iter().map(|x| (x - center).abs()).collect();
    median(&devs)
}

fn esc(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn num(x: f64) -> String {
    // Rust's shortest-roundtrip float formatting is valid JSON for every
    // finite value; benchmarks never produce non-finite statistics.
    assert!(x.is_finite(), "non-finite statistic {x}");
    format!("{x}")
}

impl GupsReport {
    /// Serialise to pretty JSON (schema [`SCHEMA`]).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": \"{}\",", esc(SCHEMA));
        let _ = writeln!(out, "  \"problem\": \"{}\",", esc(&self.problem));
        let _ = writeln!(out, "  \"updates\": {},", self.updates);
        if let Some(m) = &self.machine {
            let flags: Vec<String> = m
                .cpu_flags
                .iter()
                .map(|f| format!("\"{}\"", esc(f)))
                .collect();
            let _ = writeln!(
                out,
                "  \"machine\": {{ \"cpu_model\": \"{}\", \"cpu_flags\": [{}], \"logical_cpus\": {} }},",
                esc(&m.cpu_model),
                flags.join(", "),
                m.logical_cpus,
            );
        }
        let _ = writeln!(out, "  \"cells\": [");
        for (i, c) in self.cells.iter().enumerate() {
            let comma = if i + 1 < self.cells.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{ \"kernel\": \"{}\", \"layout\": \"{}\", \"threads\": {}, \
                 \"repeats\": {}, \"gups_median\": {}, \"gups_mad\": {}, \
                 \"secs_median\": {} }}{comma}",
                esc(&c.kernel),
                esc(&c.layout),
                c.threads,
                c.repeats,
                num(c.gups_median),
                num(c.gups_mad),
                num(c.secs_median),
            );
        }
        let _ = writeln!(out, "  ]");
        out.push_str("}\n");
        out
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
        let machine = v.get("machine").map(|m| MachineInfo {
            cpu_model: m
                .get("cpu_model")
                .and_then(Value::as_str)
                .unwrap_or("unknown")
                .to_string(),
            cpu_flags: m
                .get("cpu_flags")
                .and_then(Value::as_array)
                .map(|a| {
                    a.iter()
                        .filter_map(|f| f.as_str().map(str::to_string))
                        .collect()
                })
                .unwrap_or_default(),
            logical_cpus: m.get("logical_cpus").and_then(Value::as_f64).unwrap_or(0.0) as usize,
        });
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
        let list = |xs: &[String]| -> String {
            let items: Vec<String> = xs.iter().map(|x| format!("\"{}\"", esc(x))).collect();
            format!("[{}]", items.join(", "))
        };
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": \"ifdk-bench/compare/v1\",");
        let _ = writeln!(out, "  \"passed\": {},", self.passed());
        let _ = writeln!(out, "  \"checked\": {},", self.checked);
        let _ = writeln!(out, "  \"regressions\": {},", list(&self.regressions));
        let _ = writeln!(out, "  \"missing\": {},", list(&self.missing));
        let _ = writeln!(out, "  \"improvements\": {},", list(&self.improvements));
        let _ = writeln!(
            out,
            "  \"improvement_failures\": {}",
            list(&self.improvement_failures)
        );
        out.push_str("}\n");
        out
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
    fn median_and_mad() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[1.0, 9.0, 5.0]), 5.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(mad(&[1.0, 5.0, 9.0], 5.0), 4.0);
        assert_eq!(mad(&[5.0, 5.0, 5.0], 5.0), 0.0);
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
