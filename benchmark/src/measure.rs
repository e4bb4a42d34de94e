//! The end-to-end pass: tracing off, the workload's public entry point
//! timed as a user would call it, and the correctness gate.

use crate::stats::{median_of, undisturbed, Summary};
use crate::workload::{volume_hash, Inputs, Staged, Traffic, Workload};
use crate::Report;
use ct_core::CtError;
use ct_filter::{FilterConfig, Filterer};
use ct_par::Pool;
use std::time::Instant;

/// Timed repetitions after each prepare. Prepares and repetitions
/// alternate through the whole run, so that a slow spell of the host
/// falls on some of each and on neither as a whole.
const REPS_PER_PREPARE: usize = 2;
/// Fewest prepares and repetitions, however short `--seconds` is.
const MIN_PREPARES: usize = 2;
const MIN_REPS: usize = 3;

/// Everything between "projections in memory" and "ready to time": the
/// plans a caller who reuses them would build, the staged inputs, and
/// the first reconstruction on them.
fn prepare<'a>(w: &'a Workload, inputs: &'a Inputs) -> Result<Staged<'a>, CtError> {
    std::hint::black_box(Filterer::new(&inputs.geo, FilterConfig::default()));
    std::hint::black_box(inputs.geo.projection_matrices());
    std::hint::black_box(Pool::new(1));
    let staged = Staged::new(w, inputs)?;
    staged.run()?;
    Ok(staged)
}

/// Read `VmHWM` (peak resident set) of this process, in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn run(w: &Workload, inputs: &Inputs, seconds: f64, quick: bool, report: &mut Report) {
    let (mut setup, mut recon) = (Vec::new(), Vec::new());
    let mut first: Option<(u64, Option<Traffic>)> = None;
    let mut nrmse;
    let start = Instant::now();
    'measure: loop {
        let t = Instant::now();
        let Some(staged) = report.attempt("prepare", prepare(w, inputs)) else {
            return;
        };
        setup.push(t.elapsed().as_secs_f64());
        for _ in 0..REPS_PER_PREPARE {
            let Some((secs, vol, comm)) = report.attempt("reconstruction", staged.run()) else {
                return;
            };
            recon.push(secs);
            let this = (volume_hash(&vol), comm);
            let (hash0, comm0) = *first.get_or_insert(this);
            report.check(this.0 == hash0, || {
                format!("rep {} volume differs in bits from rep 1", recon.len())
            });
            report.check(this.1 == comm0, || {
                format!(
                    "rep {} moved {:?} (messages, bytes), rep 1 {comm0:?}",
                    recon.len(),
                    this.1
                )
            });
            // Scored here and dropped, so that no finished volume stays
            // alive under the next repetition's peak.
            let scored = ct_core::metrics::nrmse(inputs.truth.data(), vol.data());
            nrmse = report.attempt("nrmse", scored).unwrap_or(f64::NAN);
            let enough = setup.len() >= MIN_PREPARES && recon.len() >= MIN_REPS;
            if quick || (enough && start.elapsed().as_secs_f64() >= seconds) {
                break 'measure;
            }
        }
    }
    // Read before anything else allocates: the peak is then that of the
    // inputs plus the entry point, which is what the workload names.
    let peak_rss = peak_rss_mb().unwrap_or(f64::NAN);

    if !quick {
        report.check(nrmse <= w.nrmse_ceiling, || {
            format!("nrmse {nrmse:.6} above the ceiling {:.6}", w.nrmse_ceiling)
        });
        let comm = first.and_then(|(_, comm)| comm);
        report.check(comm == w.comm, || {
            format!(
                "fabric moved {comm:?} (messages, bytes), recorded {:?}",
                w.comm
            )
        });
    }

    // What is reported is the median of the undisturbed samples; what
    // all of them looked like goes to the reader.
    let mut typical = |name: &str, samples: &[f64]| {
        let kept = undisturbed(samples);
        eprintln!("{name:<8} samples {samples:.3?}");
        eprintln!("{name:<8} all: {}", Summary::of(samples));
        eprintln!(
            "{name:<8} {} undisturbed: {}",
            kept.len(),
            Summary::of(&kept)
        );
        report.metric(name, median_of(&kept));
    };
    typical("recon_s", &recon);
    typical("setup_s", &setup);
    report.metric("recon_min_s", Summary::of(&recon).min);
    report.metric("peak_rss_mb", peak_rss);
    report.metric("nrmse", nrmse);
}
