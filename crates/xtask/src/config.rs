//! `ci/analyze.conf` — the analyzer's declared contract.
//!
//! The config is checked in next to the code it constrains, so the
//! negative-control fixture tree can carry its own (with a deliberately
//! broken layering declaration). Line format, `#` comments allowed:
//!
//! ```text
//! root ct_bp::tiled                  # panic-reachability root (prefix)
//! layer ct-bp: ct-core ct-obs ct-par # declared dependency edges
//! result-crate ct-obs               # determinism-checked crate
//! alloc-root ct_bp::warp::Sampler    # alloc-reachability root (prefix)
//! blocking ct_sync::ring::RingBuffer::push # blocking fn (prefix)
//! ```

use std::collections::BTreeMap;
use std::path::Path;

pub struct Config {
    /// Qualified-name prefixes seeding panic reachability.
    pub roots: Vec<String>,
    /// Declared layering DAG: crate package name → allowed deps.
    pub layers: BTreeMap<String, Vec<String>>,
    /// Crates whose exported values must not depend on hash-map order.
    pub result_crates: Vec<String>,
    /// Qualified-name prefixes seeding allocation reachability
    /// (hot-path entry points that must not touch the heap).
    pub alloc_roots: Vec<String>,
    /// Qualified-name prefixes of functions that may block the calling
    /// thread (ring/channel ops, condvar waits, parallel-fs I/O); the
    /// lock-discipline pass flags calls into them under a live guard.
    pub blocking: Vec<String>,
    /// Where the config was read from (for diagnostics).
    pub path: std::path::PathBuf,
}

impl Config {
    pub fn load(root: &Path) -> Result<Config, String> {
        let path = root.join("ci/analyze.conf");
        let text = std::fs::read_to_string(&path).map_err(|e| {
            format!(
                "read {}: {e} (the analyzer needs ci/analyze.conf)",
                path.display()
            )
        })?;
        let mut conf = Config {
            roots: Vec::new(),
            layers: BTreeMap::new(),
            result_crates: Vec::new(),
            alloc_roots: Vec::new(),
            blocking: Vec::new(),
            path,
        };
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (kind, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
            let rest = rest.trim();
            match kind {
                "root" => conf.roots.push(rest.to_string()),
                "layer" => {
                    let (name, deps) = rest.split_once(':').ok_or_else(|| {
                        format!(
                            "{}:{}: layer line needs `crate: deps`",
                            conf.path.display(),
                            idx + 1
                        )
                    })?;
                    conf.layers.insert(
                        name.trim().to_string(),
                        deps.split_whitespace().map(str::to_string).collect(),
                    );
                }
                "result-crate" => conf.result_crates.push(rest.to_string()),
                "alloc-root" => conf.alloc_roots.push(rest.to_string()),
                "blocking" => conf.blocking.push(rest.to_string()),
                other => {
                    return Err(format!(
                        "{}:{}: unknown directive {other:?}",
                        conf.path.display(),
                        idx + 1
                    ));
                }
            }
        }
        if conf.roots.is_empty() {
            return Err(format!("{}: no `root` entries", conf.path.display()));
        }
        Ok(conf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_directive_kind() {
        let dir = std::env::temp_dir().join("xtask-conf-fixture");
        std::fs::create_dir_all(dir.join("ci")).expect("fixture dir");
        std::fs::write(
            dir.join("ci/analyze.conf"),
            "# comment\nroot ct_bp::tiled\nlayer ct-bp: ct-core ct-obs\nlayer ct-obs:\nresult-crate ct-obs\n\
             alloc-root ct_bp::warp\nblocking ct_sync::ring::RingBuffer::push\n",
        )
        .expect("write conf");
        let conf = Config::load(&dir).expect("conf loads");
        assert_eq!(conf.roots, vec!["ct_bp::tiled"]);
        assert_eq!(
            conf.layers.get("ct-bp"),
            Some(&vec!["ct-core".to_string(), "ct-obs".to_string()])
        );
        assert_eq!(conf.layers.get("ct-obs"), Some(&Vec::new()));
        assert_eq!(conf.result_crates, vec!["ct-obs"]);
        assert_eq!(conf.alloc_roots, vec!["ct_bp::warp"]);
        assert_eq!(conf.blocking, vec!["ct_sync::ring::RingBuffer::push"]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
