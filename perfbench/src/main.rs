//! The repository's benchmark: three seeded, closed-loop, single-client
//! workloads against the public `dc-server` API, with speed-calibrated
//! timings (see `calib`) and a traced run for per-layer numbers.
//!
//! ```text
//! perfbench --workload <recursive_solve|quantifier_reads|standing_rw>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See README.md.

use std::process::ExitCode;

use dc_perfbench::harness::{self, Outcome, Workload};
use dc_perfbench::report::result_json;
use dc_perfbench::workloads::{
    quantifier_reads::QuantifierReads, recursive_solve::RecursiveSolve, standing_rw::StandingRw,
};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn run<W: Workload>(args: &Args) -> Result<Outcome, String> {
    harness::run::<W>(args.seed, args.seconds, args.trace)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "recursive_solve" => run::<RecursiveSolve>(&args),
        "quantifier_reads" => run::<QuantifierReads>(&args),
        "standing_rw" => run::<StandingRw>(&args),
        other => Err(format!("unknown workload {other}")),
    };
    match outcome {
        Ok(o) => {
            for p in &o.problems {
                eprintln!("perfbench: check failed: {p}");
            }
            let correct = o.failed == 0 && o.problems.is_empty();
            println!(
                "{}",
                result_json(correct, o.attempted, o.failed, &o.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
