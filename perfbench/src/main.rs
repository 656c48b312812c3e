//! Runs one workload of the repository benchmark and prints its metrics.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` (the default) measures the end-to-end metrics for at
//! least `--seconds`; `--trace 1` makes the traced run that gives the
//! per-layer metrics. The last line of standard output is the JSON
//! result: `correct`, `attempted`, `failed` and `metrics`.

use std::process::ExitCode;

use perfbench::workload::{Workload, DEFAULT_SEED, WORKLOADS};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| bad(&e))?;
                if !(seconds >= 0.0 && seconds.is_finite()) {
                    return Err(bad(&"must be a finite number >= 0"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    println!(
        "workload {}: {} hosts, {} VMs, {} thread(s), seed {}, {}",
        w.name,
        w.hosts,
        w.vms(),
        w.threads,
        args.seed,
        if args.trace { "traced" } else { "end to end" }
    );
    let outcome = if args.trace {
        perfbench::traced(&w, args.seed)
    } else {
        perfbench::end_to_end(&w, args.seed, args.seconds)
    };
    for m in &outcome.metrics {
        match m.value {
            Some(v) => println!("{:<36} {v:>16.6} {}", m.name, m.unit),
            None => println!("{:<36} {:>16} {}", m.name, "absent", m.unit),
        }
    }
    println!("{} of {} days failed", outcome.failed, outcome.attempted);
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
