//! Negative control: this crate exists to close the layering cycle
//! declared in the fixture's `ci/analyze.conf` and `Cargo.toml`s, and
//! to carry a deliberately dead escape for the stale-allow audit.

/// Innocuous by itself — the defect lives in the dependency graph.
pub fn touch() -> u32 {
    // analyze: allow(panic, reason = "stale on purpose: nothing here panics")
    7
}
