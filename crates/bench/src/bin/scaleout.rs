//! Scale-out hot-path benchmark (the F8 companion): wall-clock ticks/sec,
//! span attribution, and peak RSS at increasing cluster sizes.
//!
//! Writes `BENCH_scaleout.json`. Each size runs `--repeat` times: the
//! headline `wall_secs` is the best run, and the median, min and max
//! over the repeats record the spread. With `--check-baseline FILE` the
//! run fails (exit 1) if ticks/sec at any matching size falls below the
//! baseline entry's floor (70 % unless the entry sets one), or its peak
//! RSS exceeds the entry's `peak_rss_kb` by more than its `rss_margin`
//! — the CI perf smoke gate.

use std::time::Instant;

use agile_core::PowerPolicy;
use dcsim::{Experiment, Scenario, SimulationBuilder};
use obs::{Json, SpanSummary};
use simcore::percentile;

/// Pre-optimization reference numbers, measured on this benchmark before
/// the incremental-accounting/zero-alloc work landed (same scenario
/// family, release build, single worker): `(hosts, ticks_per_sec,
/// peak_rss_kb)`.
const BEFORE: &[(usize, f64, u64)] = &[
    (64, 17_979.0, 4_824),
    (256, 2_575.0, 10_752),
    (1024, 183.5, 33_940),
    (4096, 12.7, 126_300),
];

/// One measured run at a given cluster size.
struct Row {
    hosts: usize,
    vms: usize,
    ticks: u64,
    /// Best-of-N wall seconds (the minimum over the repeats).
    wall_secs: f64,
    /// Median and maximum wall seconds over the repeats.
    wall_secs_median: f64,
    wall_secs_max: f64,
    ticks_per_sec: f64,
    peak_rss_kb: u64,
    /// Wall seconds of each engine phase (the depth-1 spans).
    phases: Vec<(String, f64)>,
    /// Full hierarchical span summary of the best run.
    spans: SpanSummary,
    /// Deterministic `work.*` op-counters from the metrics snapshot —
    /// the wall-clock-free superlinearity evidence.
    work: Vec<(String, u64)>,
}

const USAGE: &str = "\
usage: scaleout [--sizes N,N,..] [--repeat N] [--out PATH]
                [--check-baseline PATH] [--ladder] [--wake-slo SECS]
                [--schedulers N] [--staleness R]";

/// Parsed command line.
#[derive(Debug)]
struct Args {
    sizes: Vec<usize>,
    out_path: String,
    baseline: Option<String>,
    repeat: usize,
    ladder: bool,
    wake_slo_secs: u64,
    schedulers: usize,
    staleness: usize,
}

/// Parses the flags (program name already stripped). Every malformed
/// input — a missing or non-numeric value, a zero count, an unknown
/// flag — is an error message, never a panic.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        sizes: vec![64, 256, 1024],
        out_path: String::from("BENCH_scaleout.json"),
        baseline: None,
        repeat: 3,
        ladder: false,
        wake_slo_secs: 12,
        schedulers: 1,
        staleness: 0,
    };
    let mut argv = argv.into_iter();
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--sizes" => {
                let list = value()?;
                args.sizes = list
                    .split(',')
                    .map(|s| positive(&flag, s))
                    .collect::<Result<_, _>>()?;
            }
            "--out" => args.out_path = value()?,
            "--check-baseline" => args.baseline = Some(value()?),
            "--repeat" => args.repeat = positive(&flag, &value()?)?,
            "--ladder" => args.ladder = true,
            "--schedulers" => args.schedulers = positive(&flag, &value()?)?,
            "--staleness" => args.staleness = number(&flag, &value()?)?,
            "--wake-slo" => args.wake_slo_secs = positive(&flag, &value()?)?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// A non-negative integer flag value.
fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.trim()
        .parse()
        .map_err(|_| format!("{flag}: `{text}` is not a non-negative integer"))
}

/// A flag value that must be at least 1.
fn positive<T: std::str::FromStr + Default + PartialEq>(
    flag: &str,
    text: &str,
) -> Result<T, String> {
    let n = number(flag, text)?;
    if n == T::default() {
        return Err(format!("{flag} must be at least 1"));
    }
    Ok(n)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("scaleout: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };

    // `--ladder` benches the joint sleep+speed path instead: the C6→S3→S5
    // scenario under the joint-ladder policy at `--wake-slo` seconds.
    let policy = if args.ladder {
        PowerPolicy::joint_ladder(simcore::SimDuration::from_secs(args.wake_slo_secs))
    } else {
        PowerPolicy::reactive_suspend()
    };

    let mut rows = Vec::new();
    for &hosts in &args.sizes {
        let row = measure(hosts, &args, policy);
        let before = BEFORE.iter().find(|(h, _, _)| *h == hosts);
        println!(
            "{:>5} hosts {:>6} vms: {:>8.0} ticks/s ({:.2} s wall, median {:.2} s, max {:.2} s \
             over {}, peak RSS {} MB){}",
            row.hosts,
            row.vms,
            row.ticks_per_sec,
            row.wall_secs,
            row.wall_secs_median,
            row.wall_secs_max,
            args.repeat,
            row.peak_rss_kb / 1024,
            match before {
                Some((_, tps, _)) => format!(", {:.1}x vs pre-opt", row.ticks_per_sec / tps),
                None => String::new(),
            },
        );
        rows.push(row);
    }

    let json = render_json(&rows, &args);
    std::fs::write(&args.out_path, &json).expect("write benchmark json");
    println!("wrote {}", args.out_path);

    if let Some(path) = &args.baseline {
        let text = std::fs::read_to_string(path).expect("read baseline");
        check_baseline(&rows, &text);
        println!("baseline check passed ({path})");
    }
}

fn measure(hosts: usize, args: &Args, policy: PowerPolicy) -> Row {
    let vms = hosts * 6;
    let scenario = if args.ladder {
        Scenario::datacenter_ladder(hosts, vms, bench::SEED)
    } else {
        Scenario::datacenter(hosts, vms, bench::SEED)
    };
    let step = scenario.demand_step();
    // Best-of-N: the minimum wall time is the least scheduler-noise-
    // polluted sample. Every repeat is the same deterministic simulation,
    // so only timing may vary: each repeat's report must equal the
    // first's.
    let mut walls = Vec::with_capacity(args.repeat);
    let mut first: Option<dcsim::SimReport> = None;
    let mut best: Option<(f64, SpanSummary)> = None;
    for _ in 0..args.repeat {
        // `--schedulers`/`--staleness` shape the control plane the run
        // plans through; the defaults (1, 0) are one scheduler over a
        // fresh view.
        let exp = Experiment::new(scenario.clone())
            .policy(policy)
            .schedulers(args.schedulers)
            .view_staleness(args.staleness);
        let t0 = Instant::now();
        let out = SimulationBuilder::new(exp)
            .profiling(true)
            .build()
            .and_then(|sim| sim.run())
            .expect("scale-out run failed");
        let wall = t0.elapsed().as_secs_f64();
        let spans = out.spans.expect("profiled run returns a span tree");
        match &first {
            None => first = Some(out.report),
            Some(first) => assert_eq!(
                first,
                &out.report,
                "repeat {} at {hosts} hosts diverged from the first",
                walls.len() + 1
            ),
        }
        if best.as_ref().is_none_or(|(w, _)| wall < *w) {
            best = Some((wall, spans));
        }
        walls.push(wall);
    }
    let (wall_secs, spans) = best.expect("at least one repeat");
    let report = first.expect("at least one repeat");
    let ticks = report.horizon.as_millis() / step.as_millis() + 1;

    Row {
        hosts,
        vms,
        ticks,
        wall_secs,
        wall_secs_median: percentile(&walls, 50.0).expect("at least one repeat"),
        wall_secs_max: walls.iter().copied().fold(wall_secs, f64::max),
        ticks_per_sec: ticks as f64 / wall_secs,
        peak_rss_kb: peak_rss_kb(),
        phases: spans
            .children_of("")
            .iter()
            .map(|p| (p.name.clone(), p.total_secs))
            .collect(),
        spans,
        work: report
            .metrics
            .entries
            .iter()
            .filter_map(|e| match &e.value {
                obs::MetricValue::Counter(v) if e.name.starts_with("work.") => {
                    Some((e.name.clone(), *v))
                }
                _ => None,
            })
            .collect(),
    }
}

/// Peak resident set size of this process in kB (Linux `VmHWM`; 0 where
/// `/proc` is unavailable).
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse().ok())
        })
        .unwrap_or(0)
}

fn render_json(rows: &[Row], args: &Args) -> String {
    let Args {
        ladder,
        wake_slo_secs,
        schedulers,
        staleness,
        ..
    } = args;
    let mut out = format!(
        "{{\n  \"ladder\": {ladder},\n  \
         \"wake_slo_secs\": {wake_slo_secs},\n  \"schedulers\": {schedulers},\n  \
         \"staleness\": {staleness},\n  \"before\": [\n"
    );
    for (i, (hosts, tps, rss)) in BEFORE.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"hosts\": {hosts}, \"ticks_per_sec\": {tps:.1}, \"peak_rss_kb\": {rss}}}{}\n",
            if i + 1 < BEFORE.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"runs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"hosts\": {}, \"vms\": {}, \"ticks\": {}, \"wall_secs\": {:.4}, \
             \"wall_secs_median\": {:.4}, \"wall_secs_min\": {:.4}, \"wall_secs_max\": {:.4}, \
             \"ticks_per_sec\": {:.1}, \"peak_rss_kb\": {}, ",
            r.hosts,
            r.vms,
            r.ticks,
            r.wall_secs,
            r.wall_secs_median,
            r.wall_secs,
            r.wall_secs_max,
            r.ticks_per_sec,
            r.peak_rss_kb,
        ));
        if let Some((_, before_tps, _)) = BEFORE.iter().find(|(h, _, _)| *h == r.hosts) {
            out.push_str(&format!(
                "\"speedup_vs_before\": {:.2}, ",
                r.ticks_per_sec / before_tps
            ));
        }
        out.push_str("\"phases\": {");
        for (j, (name, secs)) in r.phases.iter().enumerate() {
            out.push_str(&format!("\"{name}\": {secs:.4}"));
            if j + 1 < r.phases.len() {
                out.push_str(", ");
            }
        }
        out.push_str("}, \"work\": {");
        for (j, (name, value)) in r.work.iter().enumerate() {
            out.push_str(&format!("\"{name}\": {value}"));
            if j + 1 < r.work.len() {
                out.push_str(", ");
            }
        }
        out.push_str("}, \"spans\": ");
        out.push_str(&r.spans.to_json().to_string_compact());
        out.push('}');
        if i + 1 < rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// Fraction of an entry's baseline ticks/sec a run must reach when the
/// entry sets no `floor` of its own.
const DEFAULT_FLOOR: f64 = 0.7;

/// Fails the process if any measured size misses a threshold of its
/// baseline entry (see [`baseline_verdicts`]).
fn check_baseline(rows: &[Row], baseline: &str) {
    let mut failed = false;
    for verdict in baseline_verdicts(rows, baseline) {
        match verdict {
            Ok(line) => println!("{line}"),
            Err(message) => {
                eprintln!("{message}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Judges every measured size against its baseline entry: `Ok` with a
/// summary line for each threshold met, `Err` with the regression for
/// each one missed. The baseline file holds a `baseline` array of
/// `{"hosts": N, "ticks_per_sec": X, "phases": {...}}` entries, where
/// `phases` maps each phase to its wall seconds at baseline time.
///
/// * Ticks/sec must reach `floor × ticks_per_sec` (`floor` defaults to
///   [`DEFAULT_FLOOR`]). On a regression the phase whose *share* of
///   attributed time grew the most over the baseline's shares is named
///   — shares, not raw seconds, so a uniformly slower CI machine does
///   not finger an innocent phase.
/// * An entry that records `peak_rss_kb` also bounds memory: the run's
///   peak RSS must stay within `peak_rss_kb × (1 + rss_margin)`.
fn baseline_verdicts(rows: &[Row], baseline: &str) -> Vec<Result<String, String>> {
    let parsed = Json::parse(baseline).expect("baseline file is valid JSON");
    let entries = parsed
        .get("baseline")
        .and_then(Json::as_array)
        .expect("baseline file has a `baseline` array");
    let mut verdicts = Vec::new();
    for entry in entries {
        let hosts = entry.get("hosts").and_then(Json::as_f64).expect("hosts") as usize;
        let base_tps = entry
            .get("ticks_per_sec")
            .and_then(Json::as_f64)
            .expect("ticks_per_sec");
        let Some(row) = rows.iter().find(|r| r.hosts == hosts) else {
            continue;
        };
        let floor_frac = entry
            .get("floor")
            .and_then(Json::as_f64)
            .unwrap_or(DEFAULT_FLOOR);
        let floor = floor_frac * base_tps;
        verdicts.push(if row.ticks_per_sec < floor {
            let mut message = format!(
                "PERF REGRESSION at {hosts} hosts: {:.0} ticks/s < {:.0}% of baseline {:.0}",
                row.ticks_per_sec,
                floor_frac * 100.0,
                base_tps
            );
            if let Some(mover) = biggest_mover(row, entry) {
                message.push_str(&format!("\n  phase that moved: {mover}"));
            }
            Err(message)
        } else {
            Ok(format!(
                "{hosts:>5} hosts: {:.0} ticks/s vs baseline {:.0} (floor {:.0}) ok",
                row.ticks_per_sec, base_tps, floor
            ))
        });
        if let Some(base_rss) = entry.get("peak_rss_kb").and_then(Json::as_f64) {
            let margin = entry
                .get("rss_margin")
                .and_then(Json::as_f64)
                .expect("an entry with peak_rss_kb sets rss_margin");
            let ceiling = base_rss * (1.0 + margin);
            let rss = row.peak_rss_kb;
            verdicts.push(if rss as f64 > ceiling {
                Err(format!(
                    "RSS REGRESSION at {hosts} hosts: peak {rss} kB > baseline {base_rss:.0} kB \
                     + {:.1}% ({ceiling:.0} kB)",
                    margin * 100.0
                ))
            } else {
                Ok(format!(
                    "{hosts:>5} hosts: peak RSS {rss} kB vs baseline {base_rss:.0} kB \
                     (ceiling {ceiling:.0}) ok"
                ))
            });
        }
    }
    verdicts
}

/// Names the phase whose share of attributed wall time grew the most
/// over the baseline's shares (`None` when the baseline entry records
/// no phases).
fn biggest_mover(row: &Row, entry: &Json) -> Option<String> {
    let base = entry.get("phases")?.as_object()?;
    let total: f64 = row.phases.iter().map(|(_, s)| s).sum();
    let base_total: f64 = base.iter().filter_map(|(_, v)| v.as_f64()).sum();
    if total <= 0.0 || base_total <= 0.0 {
        return None;
    }
    let mut best: Option<(String, f64, f64)> = None;
    for (name, secs) in &row.phases {
        let now = secs / total;
        let was = base
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_f64())
            .unwrap_or(0.0)
            / base_total;
        let growth = now - was;
        if best
            .as_ref()
            .is_none_or(|(_, b_was, b_now)| growth > b_now - b_was)
        {
            best = Some((name.clone(), was, now));
        }
    }
    best.map(|(name, was, now)| {
        format!(
            "{name} ({:.0}% of attributed time, baseline {:.0}%)",
            now * 100.0,
            was * 100.0
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn well_formed_flags_parse() {
        let args = parse(
            "--sizes 64,256 --repeat 2 --ladder --wake-slo 30 \
             --schedulers 4 --staleness 0 --out x.json",
        )
        .expect("valid flags");
        assert_eq!(args.sizes, [64, 256]);
        assert_eq!((args.repeat, args.schedulers), (2, 4));
        assert_eq!((args.ladder, args.wake_slo_secs), (true, 30));
        assert_eq!((args.staleness, args.out_path.as_str()), (0, "x.json"));
        assert_eq!(parse("").expect("defaults").sizes, [64, 256, 1024]);
    }

    #[test]
    fn a_missing_value_is_an_error() {
        for line in [
            "--sizes",
            "--repeat",
            "--out",
            "--check-baseline",
            "--staleness",
        ] {
            let err = parse(line).expect_err(line);
            assert!(err.contains("needs a value"), "{line}: {err}");
        }
    }

    #[test]
    fn a_non_numeric_value_is_an_error() {
        for line in [
            "--sizes 6x",
            "--sizes 64,",
            "--repeat three",
            "--staleness -1",
            "--wake-slo 1.5",
        ] {
            let err = parse(line).expect_err(line);
            assert!(err.contains("not a non-negative integer"), "{line}: {err}");
        }
    }

    #[test]
    fn zero_counts_are_errors() {
        for flag in ["--repeat", "--schedulers", "--sizes", "--wake-slo"] {
            let err = parse(&format!("{flag} 0")).expect_err(flag);
            assert!(err.contains("at least 1"), "{flag}: {err}");
        }
        assert_eq!(parse("--staleness 0").map(|a| a.staleness), Ok(0));
    }

    fn row(hosts: usize, ticks_per_sec: f64, peak_rss_kb: u64) -> Row {
        Row {
            hosts,
            vms: hosts * 6,
            ticks: 289,
            wall_secs: 289.0 / ticks_per_sec,
            wall_secs_median: 289.0 / ticks_per_sec,
            wall_secs_max: 289.0 / ticks_per_sec,
            ticks_per_sec,
            peak_rss_kb,
            phases: vec![("demand".to_string(), 0.5), ("plan".to_string(), 0.5)],
            spans: SpanSummary::default(),
            work: Vec::new(),
        }
    }

    #[test]
    fn the_gate_bounds_ticks_per_sec_and_peak_rss() {
        let baseline = r#"{"baseline": [
            {"hosts": 64, "ticks_per_sec": 1000.0},
            {"hosts": 4096, "ticks_per_sec": 100.0, "floor": 0.5,
             "peak_rss_kb": 100000, "rss_margin": 0.1}
        ]}"#;
        let failures = |rows: &[Row]| -> Vec<String> {
            baseline_verdicts(rows, baseline)
                .into_iter()
                .filter_map(Result::err)
                .collect()
        };
        // Within every threshold: two checks at 4096 hosts, one at 64.
        let ok = [row(64, 700.0, 1), row(4096, 50.0, 110_000)];
        assert_eq!(baseline_verdicts(&ok, baseline).len(), 3);
        assert!(failures(&ok).is_empty());
        // The default floor is 70 %.
        let slow = failures(&[row(64, 699.0, 1)]);
        assert_eq!(slow.len(), 1);
        assert!(slow[0].contains("PERF REGRESSION at 64 hosts"), "{slow:?}");
        // An entry's own floor replaces it.
        let slow = failures(&[row(4096, 49.0, 100_000)]);
        assert_eq!(slow.len(), 1);
        assert!(slow[0].contains("< 50% of baseline"), "{slow:?}");
        // Peak RSS beyond baseline + margin fails on its own.
        let fat = failures(&[row(4096, 100.0, 110_001)]);
        assert_eq!(fat.len(), 1);
        assert!(fat[0].contains("RSS REGRESSION at 4096 hosts"), "{fat:?}");
        // Sizes the baseline does not list are not judged.
        assert!(baseline_verdicts(&[row(1024, 1.0, u64::MAX)], baseline).is_empty());
    }

    #[test]
    fn unknown_flags_are_errors() {
        for line in ["--bogus", "--plan-mode scan"] {
            let err = parse(line).expect_err(line);
            assert!(err.contains("unknown argument"), "{line}: {err}");
        }
    }
}
