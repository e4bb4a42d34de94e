//! The append-only JSONL trajectory store and its query filter.
//!
//! A store is just a file of [`RunRecord`] lines. Append never rewrites
//! (concurrent producers interleave whole lines; a torn final line from
//! a crashed producer is reported with its line number on load, not
//! silently skipped), and queries load the whole file — trajectories
//! are thousands of records at most, not millions.

use std::io::Write as _;
use std::path::Path;

use crate::record::RunRecord;

/// An in-memory view of a trajectory store: the records in file order
/// (which is append order, i.e. chronological per producer).
#[derive(Debug, Clone, Default)]
pub struct PerfDb {
    /// All records, in file (append) order.
    pub records: Vec<RunRecord>,
}

impl PerfDb {
    /// Parse a JSONL text. Blank lines are allowed (trailing newline,
    /// hand-edited gaps); a malformed line fails the whole load with
    /// its 1-based line number, because a perf gate that silently drops
    /// records can silently stop gating.
    pub fn from_jsonl(text: &str) -> Result<Self, String> {
        let mut records = Vec::new();
        for (idx, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let rec = RunRecord::from_json(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
            records.push(rec);
        }
        Ok(Self { records })
    }

    /// Load a store from disk. A missing file is an error here; callers
    /// that want "empty until first append" semantics check existence
    /// first.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_jsonl(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Append records to the store file, creating it (and its parent
    /// directory) if needed. Each record is one line; the file is
    /// opened in append mode so existing history is never rewritten.
    pub fn append(path: &Path, records: &[RunRecord]) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let mut buf = String::new();
        for r in records {
            buf.push_str(&r.to_json());
            buf.push('\n');
        }
        f.write_all(buf.as_bytes())
    }

    /// Records matching `filter`, in store order.
    pub fn select<'a>(&'a self, filter: &Filter) -> Vec<&'a RunRecord> {
        self.records.iter().filter(|r| filter.matches(r)).collect()
    }
}

/// A conjunctive record filter: every set field must match.
#[derive(Debug, Clone, Default)]
pub struct Filter {
    /// Producing tool (`gups`).
    pub source: Option<String>,
    /// Machine fingerprint (16 hex chars, [`crate::MachineInfo::fingerprint`]).
    pub fingerprint: Option<String>,
    /// Kernel name from the run config.
    pub kernel: Option<String>,
    /// Projection layout from the run config.
    pub layout: Option<String>,
    /// Thread / rank count from the run config.
    pub threads: Option<u64>,
    /// Problem-size string from the run config.
    pub problem: Option<String>,
}

impl Filter {
    /// Does `r` pass every set field?
    pub fn matches(&self, r: &RunRecord) -> bool {
        if let Some(want) = &self.source {
            if &r.source != want {
                return false;
            }
        }
        if let Some(want) = &self.fingerprint {
            if &r.fingerprint() != want {
                return false;
            }
        }
        if let Some(want) = &self.kernel {
            if &r.config.kernel != want {
                return false;
            }
        }
        if let Some(want) = &self.layout {
            if &r.config.layout != want {
                return false;
            }
        }
        if let Some(want) = self.threads {
            if r.config.threads != want {
                return false;
            }
        }
        if let Some(want) = &self.problem {
            if &r.config.problem != want {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineInfo;

    fn rec(source: &str, kernel: &str, threads: u64, gups: f64) -> RunRecord {
        let mut r = RunRecord::new(
            source,
            1_754_600_000_000,
            MachineInfo {
                cpu_model: "Test CPU".into(),
                cpu_flags: vec!["avx2".into()],
                logical_cpus: 4,
                target_features: vec!["sse2".into()],
            },
        );
        r.config.kernel = kernel.to_string();
        r.config.threads = threads;
        r.set_metric("gups_median", gups);
        r
    }

    #[test]
    fn jsonl_round_trip_preserves_order() {
        let records = vec![
            rec("gups", "lanes", 1, 0.21),
            rec("gups", "warp", 1, 0.15),
            rec("monitor", "", 0, 0.0),
        ];
        let text: String = records
            .iter()
            .map(|r| format!("{}\n", r.to_json()))
            .collect();
        let db = PerfDb::from_jsonl(&text).expect("parses");
        assert_eq!(db.records, records);
    }

    #[test]
    fn blank_lines_ok_malformed_line_is_numbered() {
        let good = rec("gups", "lanes", 1, 0.2).to_json();
        let text = format!("{good}\n\n{good}\n{{not json\n");
        let err = PerfDb::from_jsonl(&text).expect_err("malformed line fails");
        assert!(err.contains("line 4"), "error carries line number: {err}");
    }

    #[test]
    fn append_creates_and_extends() {
        let dir = std::env::temp_dir().join("ct-perfdb-test-append");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("traj.jsonl");
        PerfDb::append(&path, &[rec("gups", "lanes", 1, 0.2)]).expect("first append");
        PerfDb::append(&path, &[rec("gups", "lanes", 1, 0.22)]).expect("second append");
        let db = PerfDb::load(&path).expect("loads");
        assert_eq!(db.records.len(), 2);
        assert_eq!(db.records[1].metric("gups_median"), Some(0.22));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_missing_file_errors() {
        let err = PerfDb::load(Path::new("/nonexistent/ct-perfdb.jsonl"))
            .expect_err("missing file fails");
        assert!(err.contains("ct-perfdb.jsonl"), "error names path: {err}");
    }

    #[test]
    fn filter_is_conjunctive() {
        let db = PerfDb {
            records: vec![
                rec("gups", "lanes", 1, 0.21),
                rec("gups", "lanes", 4, 0.6),
                rec("gups", "warp", 1, 0.15),
                rec("monitor", "", 0, 0.0),
            ],
        };
        assert_eq!(db.select(&Filter::default()).len(), 4);
        let f = Filter {
            source: Some("gups".into()),
            kernel: Some("lanes".into()),
            ..Filter::default()
        };
        assert_eq!(db.select(&f).len(), 2);
        let f = Filter {
            threads: Some(1),
            ..f
        };
        let got = db.select(&f);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].metric("gups_median"), Some(0.21));
        let f = Filter {
            fingerprint: Some("0000000000000000".into()),
            ..Filter::default()
        };
        assert!(db.select(&f).is_empty());
        let fp = db.records[0].fingerprint();
        let f = Filter {
            fingerprint: Some(fp),
            ..Filter::default()
        };
        assert_eq!(db.select(&f).len(), 4);
    }
}
