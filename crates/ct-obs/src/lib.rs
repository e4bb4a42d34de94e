//! # ct-obs — unified observability for the distributed iFDK pipeline
//!
//! The paper's headline result is a *pipeline* claim: per-rank
//! Filter/Main/Back-projection threads overlapped through circular
//! buffers (Section 4.1.3, Figure 4), validated stage-by-stage against an
//! analytic performance model (Eqs. 8-19). Seeing that overlap — and the
//! buffer stalls and per-projection AllGather cadence it hides — needs
//! stage-resolved measurement, not end-to-end wall clocks. This crate is
//! that measurement layer:
//!
//! * [`Recorder`] — a shared sink with three dispatch modes: `off`
//!   (every call is a no-op: no locks, no allocations, no clock reads),
//!   `summary` (per-stage aggregates only) and `trace` (full span
//!   timelines). Hot-path cost in `off` mode is a single enum check.
//! * [`Track`] / [`Span`] — nestable RAII spans tagged
//!   `{rank, thread role, stage, projection/batch index}` with monotonic
//!   timestamps, plus counters, high-water gauges and log2 latency
//!   histograms. Tracks buffer thread-locally and merge into the shared
//!   sink once, when the thread's track is dropped — recording itself
//!   never contends on a lock.
//! * [`chrome`] — export a capture as Chrome trace-event JSON, loadable
//!   in Perfetto or `chrome://tracing`, one process per rank and one
//!   named thread per pipeline role.
//! * [`TraceData::summary_values`] — fold a capture into flat
//!   `name -> f64` pairs for `ifdk::report::RunReport`.
//! * [`DivergenceReport`] — the paper's model-validation methodology
//!   in-repo: predicted-vs-observed seconds per pipeline stage.
//! * [`analysis`] — offline critical-path & stall analysis over a
//!   capture: per-role busy/stall/idle timelines, the producer→consumer
//!   dependency graph from span `deps` tags, ring-stall attribution and
//!   the Eq.-19 overlap-efficiency figure (`max_stage / wall`).
//! * [`live`] — what failed first in a *running* reconstruction: a
//!   ring-stall watchdog that records `watchdog.trip` events into the
//!   trace, and an always-on bounded flight recorder dumpable into a
//!   normal [`TraceData`].
//! * [`current`] — a thread-bound ambient track so leaf substrates
//!   (e.g. `ct-pfs`) can record spans without threading a handle through
//!   every call signature.
//!
//! ```
//! use ct_obs::{Recorder, ThreadRole};
//!
//! let rec = Recorder::trace();
//! let track = rec.track(0, ThreadRole::Filter);
//! {
//!     let mut span = track.span("filter").with_index(7);
//!     span.set_bytes(4096);
//! } // recorded on drop
//! drop(track); // tracks merge into the recorder when dropped
//! let data = rec.collect();
//! assert_eq!(data.events.len(), 1);
//! assert!(ct_obs::chrome::to_chrome_json(&data).contains("\"ph\":\"X\""));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod chrome;
pub mod clock;
pub mod current;
pub mod divergence;
pub mod jsonw;
pub mod live;
pub mod recorder;
pub mod trace;

pub use analysis::PipelineAnalysis;
pub use divergence::{DivergenceReport, StageDivergence};
pub use live::{
    FlightRecorder, LiveOptions, LiveOutcome, LiveRegistry, LiveSession, RingLiveState, RingProbe,
    WatchdogTrip,
};
pub use recorder::{Mode, Recorder, Span, ThreadRole, Track};
pub use trace::{Hist, MetricStat, SpanDeps, SpanEvent, StageStat, TraceData};
