//! Command-line entry shared by the two binaries.

use std::path::PathBuf;
use std::process::ExitCode;

use crate::measure::{end_to_end, per_layer, repetition, spawn_repetition, Settings, Workload};
use crate::pins::Pins;

const USAGE: &str = "usage: perfbench --workload steady|campaign|trace --seed N --seconds S \
                     --trace 0|1 [--chaos-bin PATH] [--wrong-pins] [--repetition]";

/// What the command line asks for.
struct Args {
    settings: Settings,
    trace: bool,
    /// Run one repetition and print it (the untraced pass's child mode).
    repetition: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut chaos_bin = None;
    let mut pins = Pins::default();
    let mut repetition = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--wrong-pins" => {
                pins.wrong = true;
                continue;
            }
            "--repetition" => {
                repetition = true;
                continue;
            }
            _ => {}
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad(&"unknown workload"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad(&"not a duration"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                });
            }
            "--chaos-bin" => chaos_bin = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let settings = Settings {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        chaos_bin,
        pins,
    };
    Ok(Args {
        settings,
        trace: trace.ok_or("--trace is required")?,
        repetition,
    })
}

/// Runs one benchmark pass and prints its result line. The untraced
/// binary serves `--trace 0`, the traced one (counting allocator
/// installed) `--trace 1`.
pub fn main(traced_binary: bool) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args {
        settings,
        trace,
        repetition: child,
    } = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if trace != traced_binary {
        eprintln!(
            "perfbench: --trace {} runs in the {} binary",
            u8::from(trace),
            if trace {
                "perfbench-traced"
            } else {
                "perfbench"
            }
        );
        return ExitCode::from(2);
    }
    if child && !trace {
        return match repetition(&settings) {
            Ok(rep) => {
                println!("{}", rep.to_line());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = if trace {
        per_layer(&settings)
    } else {
        end_to_end(&settings, || spawn_repetition(&settings))
    };
    match result {
        Ok(report) => {
            for f in &report.checks.failures {
                eprintln!("perfbench: check failed: {f}");
            }
            eprintln!(
                "perfbench: {} check(s), {} failed, fail_share {}",
                report.checks.attempted,
                report.checks.failed,
                report.checks.fail_share()
            );
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
