//! `perfbench`: the end-to-end benchmark of the policy-aware LBS
//! anonymizer. Run from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload service_read --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`). Progress and the
//! per-kind operation counts go to standard error.

mod checks;
mod inputs;
mod probe;
mod service;
mod workload;

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Metric, Outcome, Spec};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be a positive number".into());
    }
    Ok(args)
}

fn json_metrics(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() -> ExitCode {
    // The benchmark's own output: the result line on stdout, progress on
    // stderr.
    let mut log = std::io::stderr();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            let _ = writeln!(log, "perfbench: {e}");
            let _ = writeln!(
                log,
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workload::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(spec) = Spec::full(&args.workload) else {
        let _ = writeln!(
            log,
            "perfbench: unknown workload {:?} (one of {})",
            args.workload,
            workload::WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    let work = PathBuf::from(".bench_work").join(format!("{}-{}", spec.name, std::process::id()));
    let result = measure(&spec, &args, &work, &mut log);
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(line) => match writeln!(std::io::stdout(), "{line}") {
            Ok(()) => ExitCode::SUCCESS,
            Err(_) => ExitCode::FAILURE,
        },
        Err(workload::Fatal(e)) => {
            let _ = writeln!(log, "perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the workload and renders the result line.
fn measure(
    spec: &Spec,
    args: &Args,
    work: &std::path::Path,
    log: &mut dyn Write,
) -> Result<String, workload::Fatal> {
    let outcome = workload::run(spec, args.seed, args.seconds, args.trace, work)?;
    report(&outcome, log);
    let metrics = json_metrics(if args.trace { &outcome.per_layer } else { &outcome.end_to_end });
    let ledger = &outcome.ledger;
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        ledger.check_failures.is_empty(),
        ledger.attempted(),
        ledger.failed()
    ))
}

/// Writes the run's operation counts, failures, samples and metrics.
/// Progress output is best effort: a failed write is ignored.
fn report(outcome: &Outcome, log: &mut dyn Write) {
    let ops: Vec<String> = outcome
        .ledger
        .ops
        .iter()
        .map(|(kind, (a, f))| format!("{kind} {a} attempted {f} failed"))
        .collect();
    let _ = writeln!(log, "perfbench: operations: {}", ops.join(", "));
    let phases: Vec<String> =
        outcome.phases.iter().map(|(phase, at)| format!("{phase} {at:.1} s")).collect();
    let _ = writeln!(log, "perfbench: phases ended at: {}", phases.join(", "));
    for failure in &outcome.ledger.op_failures {
        let _ = writeln!(log, "perfbench: FAILED: {failure}");
    }
    for failure in &outcome.ledger.check_failures {
        let _ = writeln!(log, "perfbench: CHECK FAILED: {failure}");
    }
    for (name, samples) in &outcome.samples {
        let shown: Vec<String> = samples.iter().map(|v| format!("{v:.4}")).collect();
        let _ =
            writeln!(log, "perfbench: {} samples of {name}: {}", samples.len(), shown.join(" "));
    }
    for m in outcome.end_to_end.iter().chain(&outcome.per_layer) {
        let _ = writeln!(log, "perfbench:   {:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
}
