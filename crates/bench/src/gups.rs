//! GUPS sweep statistics and the `BENCH_gups.json` interchange format.
//!
//! The paper's headline kernel metric is giga-updates per second
//! (Section 2.3); the `gups` binary sweeps kernel x layout x thread
//! count and records warmup/repeat/median+MAD statistics here. Reports
//! are written through [`ct_obs::jsonw`] like every other artifact, and
//! flattened into `ifdk-run/v1` records for the perf trajectory that
//! `perfscope` judges.

use ct_obs::jsonw::{str_lit, Obj};
use ct_perfdb::MachineInfo;

/// Schema tag stamped into every report.
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

/// A full sweep: one problem, many cells.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GupsReport {
    /// Human-readable problem label (e.g. `48^3 x 48p`).
    pub problem: String,
    /// Voxel updates per full back-projection (`Nx*Ny*Nz*Np`).
    pub updates: u128,
    /// Where the sweep ran (`None` when the producer did not probe it;
    /// the schema stays `v1`).
    pub machine: Option<MachineInfo>,
    /// The measured cells.
    pub cells: Vec<GupsCell>,
}

impl GupsReport {
    /// Serialise to JSON (schema [`SCHEMA`]), one cell per line: the
    /// artifact is read by people. Non-finite statistics
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

    /// Look a cell up by its sweep coordinates.
    pub fn find(&self, kernel: &str, layout: &str, threads: usize) -> Option<&GupsCell> {
        self.cells
            .iter()
            .find(|c| c.kernel == kernel && c.layout == layout && c.threads == threads)
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

#[cfg(test)]
mod tests {
    use super::*;
    use ct_obs::chrome::json::{parse, Value};

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

    fn machine() -> MachineInfo {
        MachineInfo {
            cpu_model: "Example CPU \"X\"".into(),
            cpu_flags: vec!["avx2".into(), "fma".into()],
            logical_cpus: 8,
            target_features: vec!["sse2".into()],
        }
    }

    /// The report's cells read back through the workspace JSON parser.
    fn cells_of(v: &Value) -> Vec<GupsCell> {
        let cells = v.get("cells").and_then(Value::as_array).expect("cells");
        cells
            .iter()
            .map(|c| {
                let s = |k: &str| c.get(k).and_then(Value::as_str).expect(k).to_string();
                let n = |k: &str| c.get(k).and_then(Value::as_f64).expect(k);
                GupsCell {
                    kernel: s("kernel"),
                    layout: s("layout"),
                    threads: n("threads") as usize,
                    repeats: n("repeats") as usize,
                    gups_median: n("gups_median"),
                    gups_mad: n("gups_mad"),
                    secs_median: n("secs_median"),
                }
            })
            .collect()
    }

    #[test]
    fn json_roundtrip() {
        let r = report(vec![cell("lanes", 4, 1.25), cell("standard", 1, 0.5)]);
        let v = parse(&r.to_json()).expect("report is valid JSON");
        assert_eq!(v.get("schema").and_then(Value::as_str), Some(SCHEMA));
        assert_eq!(v.get("problem").and_then(Value::as_str), Some("16^3 x 8p"));
        assert_eq!(v.get("updates").and_then(Value::as_f64), Some(32768.0));
        assert_eq!(cells_of(&v), r.cells);
        assert_eq!(r.find("lanes", "transposed", 4).unwrap().gups_median, 1.25);
        assert!(r.find("lanes", "transposed", 2).is_none());
    }

    #[test]
    fn non_finite_statistic_still_serialises_and_is_judged() {
        // A NaN spread must not cost the artifact of a finished sweep,
        // nor keep the cell's median out of the trajectory.
        let mut nan = cell("warp", 1, 1.0);
        nan.gups_mad = f64::NAN;
        let r = report(vec![nan]);
        let v = parse(&r.to_json()).expect("report parses back");
        let cells = cells_of(&v);
        assert_eq!(cells[0].gups_mad, 0.0);
        assert_eq!(cells[0].gups_median, 1.0);
        let recs = r.run_records(1);
        assert_eq!(recs[0].metric("gups_median"), Some(1.0));
        assert_eq!(recs[0].metric("gups_mad"), None);
    }

    #[test]
    fn machine_provenance_round_trips_and_is_optional() {
        let mut r = report(vec![cell("warp", 1, 1.0)]);
        r.machine = Some(machine());
        let v = parse(&r.to_json()).unwrap();
        let m = v.get("machine").map(MachineInfo::from_value);
        assert_eq!(m, r.machine);
        // A report without provenance has no machine object.
        let old = report(vec![cell("warp", 1, 1.0)]);
        assert!(parse(&old.to_json()).unwrap().get("machine").is_none());
    }

    #[test]
    fn run_records_flatten_every_cell() {
        let mut r = report(vec![cell("lanes", 1, 1.3), cell("warp", 1, 1.0)]);
        r.machine = Some(machine());
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
        // A machine-less report still yields a usable fingerprint via
        // on-the-spot detection.
        let old = report(vec![cell("warp", 1, 1.0)]);
        let recs = old.run_records(7);
        assert!(!recs[0].fingerprint().is_empty());
    }
}
