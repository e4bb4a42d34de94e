//! Machine provenance: what hardware produced a measurement.
//!
//! Lived in `ifdk_bench::gups` originally (stamped into `BENCH_gups.json`
//! headers); promoted here so every trajectory producer (`gups`,
//! `perfscope`, `benchdiff`, the distributed example) shares one probe
//! and one [`fingerprint`](MachineInfo::fingerprint) definition — the
//! key the perf trajectory is partitioned by.

use ct_obs::chrome::json::Value;
use ct_obs::jsonw::{arr, str_lit, Obj};

/// Provenance of the machine a measurement ran on. The fields are
/// deliberately coarse: the CPU model string, the vector-ISA flags that
/// change what the autovectorizer can emit, and the logical CPU count.
/// Together they identify "comparable hardware" without tracking
/// anything volatile (frequency governors, load averages).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MachineInfo {
    /// CPU model string (`model name` from `/proc/cpuinfo`).
    pub cpu_model: String,
    /// SIMD-relevant ISA flags the CPU advertises (filtered from the
    /// `flags` line: sse4.2/avx/avx2/fma/avx512f and friends).
    pub cpu_flags: Vec<String>,
    /// Logical CPUs visible to the process.
    pub logical_cpus: usize,
}

impl MachineInfo {
    /// Flags worth recording for a back-projection kernel: the vector
    /// ISA levels that change what the autovectorizer can emit.
    const INTERESTING_FLAGS: [&'static str; 8] = [
        "sse4_1", "sse4_2", "avx", "avx2", "fma", "avx512f", "avx512vl", "neon",
    ];

    /// Detect the current machine. Falls back to `"unknown"` fields on
    /// platforms without `/proc/cpuinfo`.
    pub fn detect() -> Self {
        let logical_cpus = std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(1);
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let field = |name: &str| -> Option<String> {
            cpuinfo.lines().find_map(|l| {
                let (k, v) = l.split_once(':')?;
                (k.trim() == name).then(|| v.trim().to_string())
            })
        };
        let cpu_model = field("model name")
            .or_else(|| field("Processor"))
            .unwrap_or_else(|| "unknown".to_string());
        let cpu_flags = field("flags")
            .or_else(|| field("Features"))
            .map(|f| {
                let have: Vec<&str> = f.split_whitespace().collect();
                Self::INTERESTING_FLAGS
                    .iter()
                    .filter(|want| have.contains(want))
                    .map(|s| s.to_string())
                    .collect()
            })
            .unwrap_or_default();
        Self {
            cpu_model,
            cpu_flags,
            logical_cpus,
        }
    }

    /// The `machine` object every artifact carries (`ifdk-run/v1`
    /// records, `BENCH_gups.json` headers): compact, fields in
    /// declaration order.
    pub fn to_json(&self) -> String {
        let mut o = Obj::new();
        o.field_str("cpu_model", &self.cpu_model)
            .field_raw("cpu_flags", &arr(self.cpu_flags.iter().map(|f| str_lit(f))))
            .field_u64("logical_cpus", self.logical_cpus as u64);
        o.finish()
    }

    /// Read a `machine` object back. A missing or mistyped field keeps
    /// its default, so older and hand-written artifacts still load.
    pub fn from_value(v: &Value) -> Self {
        Self {
            cpu_model: v
                .get("cpu_model")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            cpu_flags: v
                .get("cpu_flags")
                .and_then(Value::as_array)
                .unwrap_or_default()
                .iter()
                .filter_map(Value::as_str)
                .map(str::to_string)
                .collect(),
            logical_cpus: v
                .get("logical_cpus")
                .and_then(Value::as_f64)
                .unwrap_or_default() as usize,
        }
    }

    /// A stable 16-hex-digit fingerprint of this machine's provenance:
    /// FNV-1a over the model string, the sorted flag set and the logical
    /// CPU count. Two records with the same fingerprint are "the same
    /// machine" as far as the trajectory analytics are concerned —
    /// comparing GUPS across fingerprints compares hardware, not code.
    pub fn fingerprint(&self) -> String {
        const OFFSET: u64 = 0xcbf29ce484222325;
        const PRIME: u64 = 0x100000001b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(self.cpu_model.as_bytes());
        eat(&[0x1f]);
        // Order-independent: detect() preserves INTERESTING_FLAGS order,
        // but hand-built records should not depend on it.
        let mut flags: Vec<&str> = self.cpu_flags.iter().map(String::as_str).collect();
        flags.sort_unstable();
        for f in flags {
            eat(f.as_bytes());
            eat(&[0x1e]);
        }
        eat(&[0x1f]);
        eat(&self.logical_cpus.to_le_bytes());
        format!("{h:016x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_reports_cpus() {
        assert!(MachineInfo::detect().logical_cpus >= 1);
    }

    #[test]
    fn fingerprint_is_stable_and_field_sensitive() {
        let a = MachineInfo {
            cpu_model: "Example CPU".into(),
            cpu_flags: vec!["avx2".into(), "fma".into()],
            logical_cpus: 8,
        };
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
        assert_eq!(a.fingerprint().len(), 16);
        // Flag order does not matter...
        let reordered = MachineInfo {
            cpu_flags: vec!["fma".into(), "avx2".into()],
            ..a.clone()
        };
        assert_eq!(a.fingerprint(), reordered.fingerprint());
        // ...but every field's value does.
        for other in [
            MachineInfo {
                cpu_model: "Other CPU".into(),
                ..a.clone()
            },
            MachineInfo {
                cpu_flags: vec!["avx2".into()],
                ..a.clone()
            },
            MachineInfo {
                logical_cpus: 16,
                ..a.clone()
            },
        ] {
            assert_ne!(a.fingerprint(), other.fingerprint());
        }
    }

    #[test]
    fn json_object_round_trips_and_defaults_missing_fields() {
        let m = MachineInfo {
            cpu_model: "Example CPU \"X\" µ".into(),
            cpu_flags: vec!["avx2".into(), "fma".into()],
            logical_cpus: 8,
        };
        let text = m.to_json();
        assert_eq!(
            text,
            r#"{"cpu_model":"Example CPU \"X\" \u00b5","cpu_flags":["avx2","fma"],"logical_cpus":8}"#
        );
        let v = ct_obs::chrome::json::parse(&text).expect("machine object parses");
        assert_eq!(MachineInfo::from_value(&v), m);
        let empty = ct_obs::chrome::json::parse("{}").expect("parses");
        assert_eq!(MachineInfo::from_value(&empty), MachineInfo::default());
    }

    #[test]
    fn flag_concatenation_cannot_collide() {
        // ["ab", "c"] and ["a", "bc"] must hash differently (the 0x1e
        // separator between flags).
        let x = MachineInfo {
            cpu_model: "m".into(),
            cpu_flags: vec!["ab".into(), "c".into()],
            logical_cpus: 1,
        };
        let y = MachineInfo {
            cpu_flags: vec!["a".into(), "bc".into()],
            ..x.clone()
        };
        assert_ne!(x.fingerprint(), y.fingerprint());
    }
}
