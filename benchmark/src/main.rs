//! The repo benchmark.
//!
//! ```text
//! ifdk-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! ifdk-benchmark [--seed <n>] [--seconds <s>] [--quick] [--agree]
//! ```
//!
//! With `--workload` the process *is* the workload: it synthesizes the
//! inputs from the seed, measures (end-to-end metrics with `--trace 0`,
//! per-layer metrics with `--trace 1`), checks the outputs, and prints
//! one JSON object as the last line of its standard output; everything
//! for a human reader goes to standard error. Without `--workload` it
//! runs every workload that way in a child process of its own, untraced
//! then traced, and prints every metric by name and unit. `--agree` runs
//! the end-to-end pass of every workload twice and compares the two
//! against the bounds in `BENCHMARK.json`. See README.md.

mod layers;
mod measure;
mod provenance;
mod stats;
mod trace;
mod workload;

use ct_obs::chrome::json::{self, Value};
use ct_obs::jsonw::Obj;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use workload::{Workload, WORKLOADS};

/// The contract file, the one place that names the workloads (with why
/// each was chosen), the metrics, their units and their bounds.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The parsed contract. `main` parses it once and hands it down.
struct Contract(Value);

impl Contract {
    fn load() -> Self {
        Self(json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON"))
    }

    /// The objects of the contract's list `key`: `workloads`,
    /// `end_to_end` or `per_layer`.
    fn list(&self, key: &str) -> &[Value] {
        let list = self.0.get(key).and_then(Value::as_array);
        list.unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
    }

    /// `run_seconds`: what a run measures for when `--seconds` is not
    /// given.
    fn run_seconds(&self) -> f64 {
        number(&self.0, "run_seconds")
    }
}

/// The string field `key` of a contract entry.
fn text<'a>(entry: &'a Value, key: &str) -> &'a str {
    let s = entry.get(key).and_then(Value::as_str);
    s.unwrap_or_else(|| panic!("BENCHMARK.json: an entry lacks {key}"))
}

/// The numeric field `key` of a contract entry.
fn number(entry: &Value, key: &str) -> f64 {
    let x = entry.get(key).and_then(Value::as_f64);
    x.unwrap_or_else(|| panic!("BENCHMARK.json: an entry lacks {key}"))
}

/// One workload run's result line: what was attempted, what failed, and
/// the metrics of the pass that ran (`end_to_end` with `--trace 0`,
/// `per_layer` with `--trace 1`).
pub struct Report {
    /// `(name, unit)` of every metric of the pass, in contract order.
    table: Vec<(String, String)>,
    values: Vec<Option<f64>>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn new(contract: &Contract, pass: &str) -> Self {
        let metrics = contract.list(pass).iter();
        let table: Vec<_> = metrics
            .map(|m| (text(m, "name").to_string(), text(m, "unit").to_string()))
            .collect();
        Self {
            values: vec![None; table.len()],
            table,
            attempted: 0,
            failed: 0,
        }
    }

    /// Count one correctness check; a violation counts as a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }

    /// Count one operation that can fail; an `Err` counts as a failure.
    pub fn attempt<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("FAILED: {what}: {e}");
                None
            }
        }
    }

    /// Record a metric of this pass. A value JSON cannot carry is a
    /// failure and reads 0.
    pub fn metric(&mut self, name: &str, value: f64) {
        let idx = self.table.iter().position(|(n, _)| n == name);
        let idx = idx.unwrap_or_else(|| panic!("{name} is not a metric of this pass"));
        self.check(value.is_finite(), || format!("{name} is {value}"));
        self.values[idx] = Some(if value.is_finite() { value } else { 0.0 });
    }

    /// The result line. Metrics a failed run never reached read 0, so the
    /// line always carries every metric of the pass.
    fn to_json(&self) -> String {
        let mut metrics = Obj::new();
        for ((name, unit), value) in self.table.iter().zip(&self.values) {
            let mut m = Obj::new();
            m.field_f64("value", value.unwrap_or(0.0))
                .field_str("unit", unit);
            metrics.field_raw(name, &m.finish());
        }
        let complete = self.values.iter().all(Option::is_some);
        let mut o = Obj::new();
        o.field_bool("correct", self.failed == 0 && complete)
            .field_u64("attempted", self.attempted.max(1))
            .field_u64("failed", self.failed)
            .field_raw("metrics", &metrics.finish());
        o.finish()
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    agree: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        agree: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?.clone()),
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {s} is outside (0, 60]"));
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => out.quick = true,
            "--agree" => out.agree = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(name) = &out.workload {
        if workload::find(name).is_none() {
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {name}; one of {}",
                names.join(", ")
            ));
        }
        if out.agree {
            return Err("--agree runs every workload; drop --workload".into());
        }
    }
    Ok(out)
}

/// Be the workload: measure in this process and print the result line.
fn run_workload(contract: &Contract, w: &'static Workload, args: &Args) -> ExitCode {
    // The kernel selector is an ambient input of every entry point; the
    // benchmark measures the default the repo ships.
    std::env::remove_var("IFDK_KERNEL");
    let seconds = if args.quick {
        0.0
    } else {
        args.seconds.unwrap_or_else(|| contract.run_seconds())
    };
    let listed = contract.list("workloads").iter();
    let why = listed
        .filter(|entry| text(entry, "name") == w.name)
        .map(|entry| text(entry, "why"))
        .next()
        .unwrap_or("");
    let header = provenance::header(w, why, args.seed, args.quick);
    for (k, v) in &header {
        eprintln!("# {k}: {v}");
    }
    if args.quick {
        eprintln!("# QUICK MODE: every dimension / 4, one repetition -- not a measurement");
    }
    let report = if args.trace {
        let mut report = Report::new(contract, "per_layer");
        let tracer = layers::run(w, args.seed, seconds, args.quick, &mut report);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
        let path = dir.join(format!("{}.trace.json", w.name));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, tracer.to_json(&header)));
        if report.attempt("writing the trace", written).is_some() {
            eprintln!("trace: {}", path.display());
        }
        report
    } else {
        let mut report = Report::new(contract, "end_to_end");
        let inputs = workload::synthesize(w, args.seed, args.quick);
        measure::run(w, &inputs, seconds, args.quick, &mut report);
        report
    };
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}

/// One child run's parsed result line.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

fn parse_result_line(line: &str) -> Result<ChildResult, String> {
    let v = json::parse(line)?;
    let num = |key: &str| {
        v.get(key)
            .and_then(Value::as_f64)
            .ok_or(format!("result line lacks {key}"))
    };
    let metrics = v
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result line lacks metrics")?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64);
            let unit = m.get("unit").and_then(Value::as_str);
            match (value, unit) {
                (Some(value), Some(unit)) => Ok((name.clone(), value, unit.to_string())),
                _ => Err(format!("metric {name} lacks value or unit")),
            }
        })
        .collect::<Result<_, _>>()?;
    Ok(ChildResult {
        correct: v.get("correct") == Some(&Value::Bool(true)),
        attempted: num("attempted")? as u64,
        failed: num("failed")? as u64,
        metrics,
    })
}

/// Run one workload pass in a child process of its own (so peak RSS and
/// allocator state are the workload's alone) and parse its result line.
fn run_child(w: &Workload, args: &Args, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name, "--seed", &args.seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .env_remove("IFDK_KERNEL")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("spawning {}: {e}", w.name))?;
    if !out.status.success() {
        return Err(format!("{} exited with {}", w.name, out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    parse_result_line(line)
}

/// Run every workload, untraced then traced, and print every metric.
fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    for w in &WORKLOADS {
        for trace in [false, true] {
            eprintln!(
                "\n== {} ({}) ==",
                w.name,
                if trace { "traced" } else { "end to end" }
            );
            match run_child(w, args, trace) {
                Ok(r) => {
                    ok &= r.correct;
                    println!(
                        "{} {}: correct={} attempted={} failed={}",
                        w.name,
                        if trace { "per-layer" } else { "end-to-end" },
                        r.correct,
                        r.attempted,
                        r.failed
                    );
                    for (name, value, unit) in &r.metrics {
                        println!("  {:<14} {name:<32} {value:>18.6} {unit}", w.name);
                    }
                }
                Err(e) => {
                    ok = false;
                    println!("{}: FAILED: {e}", w.name);
                }
            }
        }
    }
    if args.quick {
        println!("QUICK MODE: not a measurement");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run the end-to-end pass of every workload twice; the same code must
/// agree with itself within every bound.
fn run_agree(contract: &Contract, args: &Args) -> ExitCode {
    let mut ok = true;
    let mut sets: [Vec<ChildResult>; 2] = [Vec::new(), Vec::new()];
    for set in &mut sets {
        for w in &WORKLOADS {
            match run_child(w, args, false) {
                Ok(r) => set.push(r),
                Err(e) => {
                    println!("{}: FAILED: {e}", w.name);
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    println!(
        "{:<14} {:<12} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "rel.diff", "bound"
    );
    for (i, w) in WORKLOADS.iter().enumerate() {
        let (a, b) = (&sets[0][i], &sets[1][i]);
        ok &= a.correct && b.correct;
        for ((name, va, _), (_, vb, _)) in a.metrics.iter().zip(&b.metrics) {
            let listed = contract.list("end_to_end").iter();
            let bound = listed
                .filter(|m| text(m, "name") == name)
                .map(|m| number(m, "bound"))
                .next()
                .unwrap_or(0.0);
            let diff = (vb - va).abs() / va.abs();
            let within = diff <= bound;
            ok &= within;
            println!(
                "{:<14} {name:<12} {va:>14.6} {vb:>14.6} {:>8.2}% {:>6.1}%{}",
                w.name,
                100.0 * diff,
                100.0 * bound,
                if within { "" } else { "  EXCEEDED" }
            );
        }
    }
    println!(
        "{}",
        if ok {
            "agree: every pair within its bound"
        } else {
            "agree: FAILED"
        }
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ifdk-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let contract = Contract::load();
    match args.workload.as_deref().and_then(workload::find) {
        Some(w) => run_workload(&contract, w, &args),
        None if args.agree => run_agree(&contract, &args),
        None => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        name.len() <= 64
            && name.chars().all(ok)
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
    }

    #[test]
    fn contract_names_and_units_are_valid_and_unique() {
        let contract = Contract::load();
        let mut names = Vec::new();
        for pass in ["end_to_end", "per_layer"] {
            for m in contract.list(pass) {
                let name = text(m, "name");
                assert!(valid_name(name), "{name}");
                assert!(valid_unit(text(m, "unit")), "{name}");
                assert!(["lower", "higher"].contains(&text(m, "better")), "{name}");
                names.push(name);
            }
        }
        assert_eq!(names.len(), 5 + 35);
        names.extend(WORKLOADS.iter().map(|w| w.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(!valid_name("") && !valid_name(".x") && !valid_name("a b") && !valid_name("a/b"));
    }

    #[test]
    fn contract_lists_exactly_the_workload_table() {
        let contract = Contract::load();
        let listed = contract.list("workloads");
        let names: Vec<&str> = listed.iter().map(|entry| text(entry, "name")).collect();
        assert_eq!(names, WORKLOADS.map(|w| w.name));
        for entry in listed {
            let (name, why) = (text(entry, "name"), text(entry, "why"));
            assert!(valid_name(name), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
        }
        let seconds = contract.run_seconds();
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    }

    #[test]
    fn bounds_are_at_most_a_tenth_and_setup_has_the_largest() {
        let contract = Contract::load();
        let bounds: Vec<(&str, f64)> = contract
            .list("end_to_end")
            .iter()
            .map(|m| (text(m, "name"), number(m, "bound")))
            .collect();
        let setup = bounds.iter().find(|(n, _)| *n == "setup_s").unwrap().1;
        for (name, b) in &bounds {
            assert!(*b > 0.0 && *b <= 0.10, "{name}: {b}");
            assert!(*b <= setup, "{name} has a wider bound than setup_s");
        }
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let mut r = Report::new(&Contract::load(), "end_to_end");
        r.check(true, || unreachable!());
        assert_eq!(r.attempt("op", Ok::<_, String>(3)), Some(3));
        for name in ["recon_s", "recon_min_s", "setup_s", "peak_rss_mb", "nrmse"] {
            r.metric(name, 1.5);
        }
        let line = r.to_json();
        assert!(!line.contains('\n'));
        let v = json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let parsed = parse_result_line(&line).unwrap();
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (7, 0));
        assert_eq!(parsed.metrics.len(), 5);
        assert_eq!(parsed.metrics[0], ("recon_s".into(), 1.5, "s".into()));
    }

    #[test]
    fn failures_and_missing_metrics_make_the_line_incorrect() {
        let mut r = Report::new(&Contract::load(), "end_to_end");
        assert_eq!(r.attempt("op", Err::<u8, _>("boom")), None);
        r.metric("recon_s", f64::NAN);
        let parsed = parse_result_line(&r.to_json()).unwrap();
        assert!(!parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (2, 2));
        // Every metric of the pass is still there, reading 0.
        assert_eq!(parsed.metrics.len(), 5);
        assert!(parsed.metrics.iter().all(|m| m.1 == 0.0));
        // No failure, but a metric never recorded: still not correct.
        let mut r = Report::new(&Contract::load(), "end_to_end");
        r.metric("recon_s", 1.0);
        assert!(!parse_result_line(&r.to_json()).unwrap().correct);
    }

    #[test]
    #[should_panic(expected = "not a metric of this pass")]
    fn a_metric_of_the_other_pass_is_refused() {
        Report::new(&Contract::load(), "end_to_end").metric("ct_bp.gups", 1.0);
    }

    #[test]
    fn arguments_parse_and_reject() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = parse("--workload overlap --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("overlap"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(12.0), true));
        assert!(parse("--quick --agree").unwrap().agree);
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds 0",
            "--seconds 61",
            "--seed",
            "--frobnicate",
            "--workload overlap --agree",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
