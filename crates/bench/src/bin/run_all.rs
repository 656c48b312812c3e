//! Runs the paper's evaluation: every table and figure, in experiment
//! order, or only the experiments named by `--only ID,..`.
//!
//! ```text
//! run_all                 # all experiments
//! run_all --only T5,F17   # exact banner ids, printed in table order
//! ```
//!
//! Independent experiments run on a bounded worker pool (one worker per
//! available core); output is printed in order once everything finishes,
//! followed by a per-experiment runtime table. An unknown or empty id
//! exits 2 before anything runs.

use std::process::ExitCode;
use std::time::{Duration, Instant};

/// An experiment: banner id, title, and the function that renders its body.
type Job = (&'static str, &'static str, fn() -> String);

/// Every experiment, in print order: the only place an experiment's id
/// and title are written.
const JOBS: [Job; 28] = [
    ("T1", "Power-state characterization", bench::exp_t1),
    ("F2", "Park/wake power trace (S3 vs S5)", bench::exp_f2),
    ("F3", "Break-even idle gap (S3 vs S5)", bench::exp_f3),
    ("F4", "Datacenter power over 24 h", || bench::exp_f4_t5().0),
    ("T5", "Policy energy/performance summary", || {
        bench::exp_f4_t5().1
    }),
    ("F6", "Energy proportionality", bench::exp_f6),
    ("F7", "Responsiveness vs wake latency", bench::exp_f7),
    ("F8", "Scale-out", bench::exp_f8),
    ("T9", "Management overhead", bench::exp_t9),
    ("F10", "Headroom sweep", bench::exp_f10),
    ("F11", "Hysteresis sweep", bench::exp_f11),
    ("T12", "Predictor ablation", bench::exp_t12),
    ("T13", "Reliability sensitivity", bench::exp_t13),
    ("T13b", "Failure-rate overhead", bench::exp_t13b),
    ("F14", "Lifecycle churn", bench::exp_f14),
    ("F15", "Heterogeneous fleet", bench::exp_f15),
    ("F16", "Power-curve shape ablation", bench::exp_f16),
    ("F17", "Management-interval sweep", bench::exp_f17),
    ("T18", "Proactive pre-wake ablation", bench::exp_t18),
    ("T19", "Seed-replicated policy summary", bench::exp_t19),
    ("T20", "Per-class SLA accounting", bench::exp_t20),
    ("T21", "PSU conversion-loss sensitivity", bench::exp_t21),
    ("T22", "DVFS-only vs consolidation", bench::exp_t22),
    ("F23", "One-week weekday/weekend run", bench::exp_f23),
    ("T24", "Consolidation packing ablation", bench::exp_t24),
    ("T25", "Simulator phase profile", bench::exp_profile),
    ("T26", "Savings-vs-SLO frontier", bench::exp_t26),
    ("T27", "Control-plane degradation frontier", bench::exp_t27),
];

/// The `JOBS` indices the arguments select, in table order.
fn select(args: &[String]) -> Result<Vec<usize>, String> {
    let list = match args {
        [] => return Ok((0..JOBS.len()).collect()),
        [flag, list] if flag == "--only" => list,
        _ => return Err("usage: run_all [--only ID,..]".to_string()),
    };
    let mut chosen = vec![false; JOBS.len()];
    for id in list.split(',') {
        match JOBS.iter().position(|job| job.0 == id) {
            Some(i) => chosen[i] = true,
            None => {
                let valid: Vec<&str> = JOBS.iter().map(|job| job.0).collect();
                return Err(format!(
                    "unknown experiment id {id:?}; valid ids: {}",
                    valid.join(",")
                ));
            }
        }
    }
    Ok((0..JOBS.len()).filter(|&i| chosen[i]).collect())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected = match select(&args) {
        Ok(selected) => selected,
        Err(message) => {
            eprintln!("run_all: {message}");
            return ExitCode::from(2);
        }
    };

    // Shared bounded pool (see `simcore::pool`): never more workers than
    // cores, outputs in experiment order regardless of completion order.
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(selected.len());
    let wall = Instant::now();
    let results = simcore::pool::run_indexed(selected.len(), |k| {
        let t0 = Instant::now();
        let body = (JOBS[selected[k]].2)();
        (body, t0.elapsed())
    });
    let wall = wall.elapsed();

    let mut runtimes = Vec::with_capacity(results.len());
    for (&i, (body, elapsed)) in selected.iter().zip(results) {
        let (id, title, _) = JOBS[i];
        println!("==== {id}: {title} ====");
        println!("{body}");
        runtimes.push((id, title, elapsed));
    }

    println!(
        "==== Runtime: {} experiments on {workers} workers ====",
        runtimes.len()
    );
    let busy: Duration = runtimes.iter().map(|(_, _, d)| *d).sum();
    for (id, title, d) in &runtimes {
        println!("{id:<4} {title:<36} {:>8.2} s", d.as_secs_f64());
    }
    println!(
        "total {:.2} s wall ({:.2} s of single-threaded work)",
        wall.as_secs_f64(),
        busy.as_secs_f64()
    );
    ExitCode::SUCCESS
}
