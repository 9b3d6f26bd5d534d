//! The repo's benchmark: one seeded process per workload and trace
//! mode. See `README.md` beside this crate and `BENCHMARK.json` at the
//! repo root.

mod aa;
mod contract;
mod feed;
mod layers;
mod procfs;
mod run;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use run::Args;
use workloads::{Workload, ALL};

const USAGE: &str =
    "usage: sso-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                     [--quick] [--out <dir>]\n       sso-benchmark --print-contract\n       \
                     sso-benchmark --aa <dir-a> <dir-b>";

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::SsInline,
        seed: 1,
        seconds: contract::RUN_SECONDS as f64,
        trace: false,
        quick: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut workload = None;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::from_name(&name).ok_or_else(|| {
                    let names: Vec<&str> = ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => args.quick = true,
            "--out" => args.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    match argv.peek().map(String::as_str) {
        Some("--print-contract") => {
            print!("{}", contract::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Some("--aa") => {
            let dirs: Vec<PathBuf> = argv.skip(1).map(PathBuf::from).collect();
            let [a, b] = &dirs[..] else {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            };
            return if aa::check(a, b) { ExitCode::SUCCESS } else { ExitCode::FAILURE };
        }
        _ => {}
    }
    let args = match parse(argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace { run::run_traced(&args) } else { run::run_untraced(&args) };
    print!("{}", report.lines());
    // The last line of standard output is the result object.
    println!("{}", report.result_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
