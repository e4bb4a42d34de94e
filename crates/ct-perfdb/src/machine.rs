//! Machine provenance: what hardware and build produced a measurement.
//!
//! One probe and one [`fingerprint`](MachineInfo::fingerprint)
//! definition for the `BENCH_gups.json` header, the `gups --record`
//! trajectory records that `perfscope` judges, and the benchmark's
//! provenance header. The fingerprint is the key the perf trajectory is
//! partitioned by.

use ct_obs::chrome::json::Value;
use ct_obs::jsonw::{arr, str_lit, Obj};

/// Provenance of the machine a measurement ran on. The fields are
/// deliberately coarse: the CPU model string, the vector-ISA flags the
/// CPU advertises, the ones the build was allowed to use, and the
/// logical CPU count. Together they identify "comparable hardware and
/// build" without tracking anything volatile (frequency governors,
/// load averages).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MachineInfo {
    /// CPU model string (`model name` from `/proc/cpuinfo`).
    pub cpu_model: String,
    /// SIMD-relevant ISA flags the CPU advertises (filtered from the
    /// `flags` line: sse4.2/avx/avx2/fma/avx512f and friends).
    pub cpu_flags: Vec<String>,
    /// Logical CPUs visible to the process.
    pub logical_cpus: usize,
    /// Vector target features the build was compiled with
    /// (`cfg!(target_feature = ..)`): an SSE2 build and an AVX2 build of
    /// the same code on the same CPU run different kernels.
    pub target_features: Vec<String>,
}

impl MachineInfo {
    /// Flags worth recording for a back-projection kernel: the vector
    /// ISA levels that change what the autovectorizer can emit.
    const INTERESTING_FLAGS: [&'static str; 8] = [
        "sse4_1", "sse4_2", "avx", "avx2", "fma", "avx512f", "avx512vl", "neon",
    ];

    /// The target features of this build, of those that change what the
    /// kernels lower to (the same set the benchmark's provenance header
    /// prints).
    fn build_target_features() -> Vec<String> {
        [
            ("sse2", cfg!(target_feature = "sse2")),
            ("sse4.1", cfg!(target_feature = "sse4.1")),
            ("avx", cfg!(target_feature = "avx")),
            ("avx2", cfg!(target_feature = "avx2")),
            ("fma", cfg!(target_feature = "fma")),
            ("avx512f", cfg!(target_feature = "avx512f")),
            ("neon", cfg!(target_feature = "neon")),
        ]
        .iter()
        .filter(|&&(_, on)| on)
        .map(|&(name, _)| name.to_string())
        .collect()
    }

    /// Detect the current machine and build. Falls back to `"unknown"`
    /// fields on platforms without `/proc/cpuinfo`.
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
            target_features: Self::build_target_features(),
        }
    }

    /// The `machine` object every artifact carries (`ifdk-run/v1`
    /// records, `BENCH_gups.json` headers): compact, fields in
    /// declaration order.
    pub fn to_json(&self) -> String {
        let mut o = Obj::new();
        o.field_str("cpu_model", &self.cpu_model)
            .field_raw("cpu_flags", &arr(self.cpu_flags.iter().map(|f| str_lit(f))))
            .field_u64("logical_cpus", self.logical_cpus as u64)
            .field_raw(
                "target_features",
                &arr(self.target_features.iter().map(|f| str_lit(f))),
            );
        o.finish()
    }

    /// Read a `machine` object back. A missing or mistyped field keeps
    /// its default, so older and hand-written artifacts still load.
    pub fn from_value(v: &Value) -> Self {
        let strings = |key: &str| -> Vec<String> {
            v.get(key)
                .and_then(Value::as_array)
                .unwrap_or_default()
                .iter()
                .filter_map(Value::as_str)
                .map(str::to_string)
                .collect()
        };
        Self {
            cpu_model: v
                .get("cpu_model")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            cpu_flags: strings("cpu_flags"),
            logical_cpus: v
                .get("logical_cpus")
                .and_then(Value::as_f64)
                .unwrap_or_default() as usize,
            target_features: strings("target_features"),
        }
    }

    /// A stable 16-hex-digit fingerprint of this machine's provenance:
    /// FNV-1a over the model string, the sorted flag set, the logical
    /// CPU count and the sorted target-feature set. Two records with the
    /// same fingerprint are "the same machine and build" as far as the
    /// trajectory analytics are concerned — comparing GUPS across
    /// fingerprints compares hardware or codegen, not code.
    pub fn fingerprint(&self) -> String {
        const OFFSET: u64 = 0xcbf29ce484222325;
        const PRIME: u64 = 0x100000001b3;
        // Order-independent: detect() preserves its list order, but
        // hand-built records should not depend on it.
        fn sorted(set: &[String]) -> Vec<&str> {
            let mut items: Vec<&str> = set.iter().map(String::as_str).collect();
            items.sort_unstable();
            items
        }
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(self.cpu_model.as_bytes());
        eat(&[0x1f]);
        for f in sorted(&self.cpu_flags) {
            eat(f.as_bytes());
            eat(&[0x1e]);
        }
        eat(&[0x1f]);
        eat(&self.logical_cpus.to_le_bytes());
        eat(&[0x1f]);
        for f in sorted(&self.target_features) {
            eat(f.as_bytes());
            eat(&[0x1e]);
        }
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
            target_features: vec!["sse2".into(), "avx2".into()],
        };
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
        assert_eq!(a.fingerprint().len(), 16);
        // Flag order does not matter...
        let reordered = MachineInfo {
            cpu_flags: vec!["fma".into(), "avx2".into()],
            ..a.clone()
        };
        assert_eq!(a.fingerprint(), reordered.fingerprint());
        let reordered = MachineInfo {
            target_features: vec!["avx2".into(), "sse2".into()],
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
            MachineInfo {
                target_features: vec!["sse2".into()],
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
            target_features: vec!["sse2".into()],
        };
        let text = m.to_json();
        assert_eq!(
            text,
            r#"{"cpu_model":"Example CPU \"X\" \u00b5","cpu_flags":["avx2","fma"],"logical_cpus":8,"target_features":["sse2"]}"#
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
            target_features: Vec::new(),
        };
        let y = MachineInfo {
            cpu_flags: vec!["a".into(), "bc".into()],
            ..x.clone()
        };
        assert_ne!(x.fingerprint(), y.fingerprint());
    }

    #[test]
    fn an_sse2_build_and_an_avx2_build_never_share_a_fingerprint() {
        let sse2 = MachineInfo {
            cpu_model: "Example CPU".into(),
            cpu_flags: vec!["avx2".into(), "fma".into()],
            logical_cpus: 8,
            target_features: vec!["sse2".into()],
        };
        let avx2 = MachineInfo {
            target_features: vec!["sse2".into(), "avx".into(), "avx2".into(), "fma".into()],
            ..sse2.clone()
        };
        assert_ne!(sse2.fingerprint(), avx2.fingerprint());
        // A `machine` object written before the field existed loads with
        // an empty list (and so a fingerprint of its own).
        let old = r#"{"cpu_model":"Example CPU","cpu_flags":["avx2","fma"],"logical_cpus":8}"#;
        let v = ct_obs::chrome::json::parse(old).expect("parses");
        let loaded = MachineInfo::from_value(&v);
        assert!(loaded.target_features.is_empty());
        assert_eq!(loaded.cpu_flags, sse2.cpu_flags);
        assert_ne!(loaded.fingerprint(), sse2.fingerprint());
    }

    #[test]
    fn detect_records_the_build_target_features() {
        let m = MachineInfo::detect();
        assert_eq!(
            m.target_features.iter().any(|f| f == "sse2"),
            cfg!(target_feature = "sse2")
        );
    }
}
