//! The workspace's one blessed monotonic clock.
//!
//! Every wall-clock read outside this crate flows through [`now`] so that
//! trace capture, replay and offline analysis stay attributable to a
//! single time source. The repo-wide `raw-clock` lint (`cargo xtask
//! lint`) enforces this: `Instant::now()` and `SystemTime` are banned
//! everywhere except `ct-obs` itself and the `bench` harness, which keeps
//! "who measured what, when" auditable and leaves one seam to virtualise
//! time behind if deterministic replay ever needs it.

pub use std::time::{Duration, Instant};

/// Read the monotonic clock.
///
/// Exactly `Instant::now()` today; the indirection is the point — callers
/// that time work (`ct-par` stage timers, `ct-bp` tile reports, `ct-comm`
/// receive deadlines, the distributed driver) name this function instead
/// of the std clock, so the lint can prove no stray time source feeds the
/// pipeline's observations.
#[inline]
#[must_use]
pub fn now() -> Instant {
    Instant::now()
}

/// Read the wall clock as unix milliseconds.
///
/// The perf trajectory store (`ct-perfdb`) timestamps run records with
/// wall time so cross-run trends line up across machines and restarts —
/// a monotonic instant is meaningless outside its own process. This is
/// the one sanctioned `SystemTime` read; the producer (`gups --record`)
/// takes the value from here instead of touching `SystemTime` itself,
/// keeping the `raw-clock` lint's single-time-source guarantee intact.
#[must_use]
pub fn unix_millis() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let a = now();
        let b = now();
        assert!(b >= a);
        assert!(a.elapsed() >= Duration::ZERO);
    }

    #[test]
    fn unix_millis_is_past_2020() {
        // 2020-01-01 in unix ms; a sane host clock is well past it.
        assert!(unix_millis() > 1_577_836_800_000);
    }
}
