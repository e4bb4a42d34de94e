//! Shared infrastructure for the experiment regenerators.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md Section 5 for the index). They print the human-readable
//! table and, with `--json <path>`, also write the datapoints as
//! [`ifdk::report::RunReport`] JSON for EXPERIMENTS.md.

#![forbid(unsafe_code)]

use ct_core::geometry::CbctGeometry;
use ct_core::problem::{Dims2, Dims3, ReconProblem};
use ct_core::projection::{ProjectionImage, ProjectionStack};
use ifdk::report::RunReport;

pub mod check;
pub mod gups;

/// The 15 problem shapes of the paper's Table 4, scaled down by `scale`
/// (8 reproduces every alpha class at laptop size; see DESIGN.md).
pub fn table4_problems(scale: usize) -> Vec<ReconProblem> {
    let k = 1024 / scale;
    let mk = |du: usize, dv: usize, np: usize, x: usize, y: usize, z: usize| {
        ReconProblem::new(Dims2::new(du, dv), np, Dims3::new(x, y, z)).expect("valid dims")
    };
    vec![
        // 512^2 x 1k -> {128^3, 256^3, 512^3, 1k^3, 1k^2 x 2k}
        mk(k / 2, k / 2, k, k / 8, k / 8, k / 8),
        mk(k / 2, k / 2, k, k / 4, k / 4, k / 4),
        mk(k / 2, k / 2, k, k / 2, k / 2, k / 2),
        mk(k / 2, k / 2, k, k, k, k),
        mk(k / 2, k / 2, k, k, k, 2 * k),
        // 1k^3 -> ...
        mk(k, k, k, k / 8, k / 8, k / 8),
        mk(k, k, k, k / 4, k / 4, k / 4),
        mk(k, k, k, k / 2, k / 2, k / 2),
        mk(k, k, k, k, k, k),
        mk(k, k, k, k, k, 2 * k),
        // 2k^2 x 1k -> ...
        mk(2 * k, 2 * k, k, k / 8, k / 8, k / 8),
        mk(2 * k, 2 * k, k, k / 4, k / 4, k / 4),
        mk(2 * k, 2 * k, k, k / 2, k / 2, k / 2),
        mk(2 * k, 2 * k, k, k, k, k),
        mk(2 * k, 2 * k, k, k, k, 2 * k),
    ]
}

/// Synthetic filtered projections for kernel benchmarks: deterministic
/// pseudo-random pixels (the kernel cost is content-independent, as the
/// paper notes in Section 5.1).
pub fn synthetic_stack(detector: Dims2, np: usize) -> ProjectionStack {
    let mut stack = ProjectionStack::new(detector);
    let mut state = 0x9E3779B97F4A7C15u64;
    for _ in 0..np {
        let mut img = ProjectionImage::zeros(detector);
        for p in img.data_mut() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *p = ((state >> 40) as f32 / 16777216.0) - 0.5;
        }
        stack.push(img).expect("shape matches");
    }
    stack
}

/// Geometry for a benchmark problem (the standard RabbitCT-style setup).
pub fn geometry_for(problem: &ReconProblem) -> CbctGeometry {
    CbctGeometry::standard(problem.detector, problem.num_projections, problem.volume)
}

/// Column-aligned table printer shared by the regenerators.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>w$}  ", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Write reports to `--json <path>` if requested on the command line.
pub fn maybe_write_json(args: &[String], reports: &[RunReport]) {
    if let Some(pos) = args.iter().position(|a| a == "--json") {
        if let Some(path) = args.get(pos + 1) {
            let json = ct_obs::jsonw::arr(reports.iter().map(RunReport::to_json));
            std::fs::write(path, json).expect("write json report");
            eprintln!("wrote {} reports to {path}", reports.len());
        }
    }
}

/// Parse `--key value` integers.
pub fn arg_usize(args: &[String], key: &str, default: usize) -> usize {
    args.windows(2)
        .find(|w| w[0] == format!("--{key}"))
        .and_then(|w| w[1].parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_preserves_alpha_classes() {
        let problems = table4_problems(8);
        assert_eq!(problems.len(), 15);
        // Paper's alpha column (strict input/output ratios).
        let alphas: Vec<f64> = problems.iter().map(|p| p.alpha()).collect();
        // First group: 512^2 x 1k inputs.
        assert!((alphas[0] - 128.0).abs() < 1e-9);
        assert!((alphas[3] - 0.25).abs() < 1e-9);
        // alpha is scale-invariant: same at scale 16.
        let problems16 = table4_problems(16);
        for (a, b) in problems.iter().zip(problems16.iter()) {
            assert!((a.alpha() - b.alpha()).abs() < 1e-9);
        }
    }

    #[test]
    fn synthetic_stack_is_deterministic() {
        let a = synthetic_stack(Dims2::new(8, 8), 3);
        let b = synthetic_stack(Dims2::new(8, 8), 3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn geometry_for_validates() {
        for p in table4_problems(16) {
            geometry_for(&p).validate().unwrap();
        }
    }
}
