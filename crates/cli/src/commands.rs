//! Subcommand implementations.

use std::error::Error;
use std::fs;

use agile_core::PowerPolicy;
use dcsim::report::{policy_comparison, series_csv, table};
use dcsim::{Experiment, FailureModel, Scenario, SimReport, SimulationBuilder};
use obs::{Json, SpanStat, SpanSummary};
use power::breakeven::{break_even_gap, net_energy_saved, LowPowerMode};
use power::HostPowerProfile;
use simcore::{SimDuration, SimTime};

use crate::args::{ArgError, Flags};

type CmdResult = Result<(), Box<dyn Error>>;

const USAGE: &str = "\
agilepm — datacenter power-management simulator (ISCA'13 reproduction)

USAGE:
  agilepm run       simulate one policy and print a summary
  agilepm compare   run AlwaysOn / PM-OffOn / PM-Suspend / Oracle side by side
  agilepm sweep     run a parameter sweep (wake-latency | headroom | interval | reliability)
  agilepm breakeven print power-state characterization and break-even analysis
  agilepm perf-report FILE          render a per-phase attribution table
  agilepm perf-report diff A B      per-phase wall-time deltas between two runs
  agilepm help      show this help

COMMON FLAGS (run, compare):
  --hosts N            number of hosts               [default 32]
  --vms N              number of VMs                 [default 6*hosts]
  --seed N             scenario seed                 [default 2013]
  --hours N            simulated horizon in hours    [default 24]
  --interval-mins N    management interval           [default 5]
  --workload KIND      diurnal | spiky | churn | ladder  [default diurnal]
  --churn F            transient VM fraction (workload churn) [default 0.3]

run-ONLY FLAGS:
  --policy P           always-on | suspend | off | oracle | ladder[:SECS]
                       [default suspend]; ladder parks drained hosts on the
                       deepest C6/S3/S5 rung that wakes within SECS (12)
  --schedulers N       split the fleet across N concurrent schedulers over
                       the conflict-checked placement store [default 1]
  --staleness R        scheduler views of foreign partitions lag R control
                       rounds behind ground truth [default 0]
  --resume-fail P      resume failure probability    [default 0]
  --json PATH          write the full report as JSON
  --csv PATH           write power/hosts-on/unserved series as CSV
  --events PATH        write the management audit log as CSV
  --trace-out PATH     stream telemetry as JSON Lines (constant memory):
                       power transitions, migrations, VM lifecycle,
                       manager decisions, and a final run summary
  --metrics            print the metrics registry snapshot after the run
  --profile            enable the hierarchical span tracer; the trace's
                       run-summary record then carries the span tree for
                       `perf-report` (timing never enters the report)

perf-report:
  reads a JSON Lines trace (the `--trace-out` file of a `--profile` run),
  a bare span-summary JSON object, or a scaleout bench artifact
  (BENCH_scaleout.json), and prints the attribution table. `diff`
  matches spans by call path and prints deltas sorted by magnitude,
  naming the biggest mover.

sweep FLAGS:
  --kind K             wake-latency | headroom | interval | reliability  [required]
  --hosts N, --vms N, --seed N   as above
  --csv PATH           also write the sweep as CSV

breakeven FLAGS:
  --profile NAME       rack | blade | legacy | ladder | blade-ladder  [default rack]
";

/// Routes a command line to its implementation.
pub fn dispatch(argv: &[String]) -> CmdResult {
    match argv.first().map(String::as_str) {
        Some("run") => run(&argv[1..]),
        Some("compare") => compare(&argv[1..]),
        Some("sweep") => sweep(&argv[1..]),
        Some("breakeven") => breakeven(&argv[1..]),
        Some("perf-report") => perf_report(&argv[1..]),
        Some("help") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(Box::new(ArgError(format!("unknown command `{other}`")))),
    }
}

fn parse_policy(name: &str) -> Result<PowerPolicy, ArgError> {
    match name {
        "always-on" => Ok(PowerPolicy::always_on()),
        "suspend" => Ok(PowerPolicy::reactive_suspend()),
        "off" => Ok(PowerPolicy::reactive_off()),
        "oracle" => Ok(PowerPolicy::oracle()),
        // `ladder` parks each drained host on the deepest rung of its
        // C6→S3→S5 ladder that wakes within the SLO (default 12 s;
        // `ladder:SECS` overrides). Pair with `--workload ladder` so the
        // hosts actually carry the extra rungs.
        "ladder" => Ok(PowerPolicy::joint_ladder(SimDuration::from_secs(12))),
        other => {
            if let Some(secs) = other.strip_prefix("ladder:") {
                let secs: u64 = secs.parse().map_err(|_| {
                    ArgError(format!("bad wake SLO `{secs}` in `{other}` (want seconds)"))
                })?;
                if secs == 0 {
                    return Err(ArgError("wake SLO must be positive".to_string()));
                }
                let slo = span(&format!("wake SLO in `{other}`"), secs, 1000)?;
                return Ok(PowerPolicy::joint_ladder(slo));
            }
            Err(ArgError(format!(
                "unknown policy `{other}` (always-on | suspend | off | oracle | ladder[:SECS])"
            )))
        }
    }
}

fn build_scenario(flags: &Flags) -> Result<Scenario, ArgError> {
    let hosts = flags.positive_usize_or("hosts", 32)?;
    let vms = flags.positive_usize_or("vms", hosts * 6)?;
    let seed = flags.u64_or("seed", 2013)?;
    match flags.str_or("workload", "diurnal") {
        "diurnal" => Ok(Scenario::datacenter(hosts, vms, seed)),
        "spiky" => Ok(Scenario::datacenter_spiky(hosts, vms, seed)),
        "churn" => {
            let frac = flags.f64_or("churn", 0.3)?;
            if !(0.0..=1.0).contains(&frac) {
                return Err(ArgError(format!(
                    "`--churn` must be a fraction in [0, 1], got `{frac}`"
                )));
            }
            Ok(Scenario::datacenter_churn(hosts, vms, frac, seed))
        }
        "ladder" => Ok(Scenario::datacenter_ladder(hosts, vms, seed)),
        other => Err(ArgError(format!(
            "unknown workload `{other}` (diurnal | spiky | churn | ladder)"
        ))),
    }
}

fn configure(
    flags: &Flags,
    scenario: Scenario,
    policy: PowerPolicy,
) -> Result<Experiment, ArgError> {
    let hours = flags.u64_or("hours", 24)?;
    let interval = flags.u64_or("interval-mins", 5)?;
    if interval == 0 {
        return Err(ArgError("`--interval-mins` must be positive".to_string()));
    }
    Ok(Experiment::new(scenario)
        .policy(policy)
        .horizon(span("`--hours`", hours, 3_600_000)?)
        .control_interval(span("`--interval-mins`", interval, 60_000)?))
}

/// `count` units of `unit_ms` milliseconds each, or an error naming
/// `what` when the span does not fit the simulated clock's u64
/// milliseconds.
fn span(what: &str, count: u64, unit_ms: u64) -> Result<SimDuration, ArgError> {
    count
        .checked_mul(unit_ms)
        .map(SimDuration::from_millis)
        .ok_or_else(|| ArgError(format!("{what}: {count} overflows the simulated clock")))
}

fn run(args: &[String]) -> CmdResult {
    let flags = Flags::parse(
        args,
        &[
            "hosts",
            "vms",
            "seed",
            "hours",
            "interval-mins",
            "workload",
            "churn",
            "policy",
            "schedulers",
            "staleness",
            "resume-fail",
            "json",
            "csv",
            "events",
            "trace-out",
        ],
        &["metrics", "profile"],
    )?;
    let policy = parse_policy(flags.str_or("policy", "suspend"))?;
    let scenario = build_scenario(&flags)?;
    let resume_fail = flags.f64_or("resume-fail", 0.0)?;
    let failures = FailureModel::new(resume_fail, 0.0);
    failures
        .try_validate()
        .map_err(|e| ArgError(format!("`--resume-fail`: {e}")))?;
    let mut experiment = configure(&flags, scenario, policy)?;
    let schedulers = flags.positive_usize_or("schedulers", 1)?;
    let staleness = flags.usize_or("staleness", 0)?;
    experiment = experiment.schedulers(schedulers).view_staleness(staleness);
    if resume_fail > 0.0 {
        experiment = experiment.failure_model(failures);
    }
    if flags.str_opt("events").is_some() {
        experiment = experiment.record_events();
    }
    if let Some(path) = flags.str_opt("trace-out") {
        experiment = experiment.trace_path(path);
    }
    let report = SimulationBuilder::new(experiment)
        .profiling(flags.switch("profile"))
        .run_report()?;
    print_summary(&report);
    if flags.switch("metrics") {
        print!("{}", report.metrics);
    }
    if let Some(path) = flags.str_opt("trace-out") {
        eprintln!("streamed trace to {path}");
    }

    if let Some(path) = flags.str_opt("json") {
        fs::write(path, report.to_json().to_string_pretty())?;
        eprintln!("wrote JSON report to {path}");
    }
    if let Some(path) = flags.str_opt("events") {
        fs::write(path, dcsim::events::events_csv(&report.events))?;
        eprintln!("wrote audit log to {path}");
    }
    if let Some(path) = flags.str_opt("csv") {
        let end = SimTime::ZERO + report.horizon;
        let csv = series_csv(
            &["power_w", "hosts_on", "unserved_cores"],
            &[
                &report.power_series,
                &report.hosts_on_series,
                &report.unserved_series,
            ],
            SimDuration::from_mins(5),
            end,
        );
        fs::write(path, csv)?;
        eprintln!("wrote CSV series to {path}");
    }
    Ok(())
}

fn print_summary(r: &SimReport) {
    let rows = vec![
        vec!["scenario".to_string(), r.scenario.clone()],
        vec!["policy".to_string(), r.policy.clone()],
        vec!["seed".to_string(), r.seed.to_string()],
        vec!["horizon".to_string(), format!("{}", r.horizon)],
        vec!["energy".to_string(), format!("{:.1} kWh", r.energy_kwh())],
        vec!["avg power".to_string(), format!("{:.0} W", r.avg_power_w())],
        vec!["peak power".to_string(), format!("{:.0} W", r.peak_power_w)],
        vec![
            "unserved demand".to_string(),
            format!("{:.4}%", r.unserved_ratio * 100.0),
        ],
        vec![
            "avg hosts on".to_string(),
            format!("{:.1} / {}", r.avg_hosts_on, r.num_hosts),
        ],
        vec![
            "latency stretch".to_string(),
            format!(
                "{:.2}x avg, {:.2}x peak",
                r.avg_latency_factor, r.peak_latency_factor
            ),
        ],
        vec!["migrations".to_string(), r.migrations.to_string()],
        vec![
            "power actions".to_string(),
            (r.power_ups + r.power_downs).to_string(),
        ],
        vec![
            "transition failures".to_string(),
            r.transition_failures.to_string(),
        ],
    ];
    print!("{}", table(&["metric", "value"], &rows));
}

fn compare(args: &[String]) -> CmdResult {
    let flags = Flags::parse(
        args,
        &[
            "hosts",
            "vms",
            "seed",
            "hours",
            "interval-mins",
            "workload",
            "churn",
        ],
        &[],
    )?;
    let scenario = build_scenario(&flags)?;
    let mut reports = Vec::new();
    for policy in [
        PowerPolicy::always_on(),
        PowerPolicy::reactive_off(),
        PowerPolicy::reactive_suspend(),
        PowerPolicy::oracle(),
    ] {
        let experiment = configure(&flags, scenario.clone(), policy)?;
        reports.push(SimulationBuilder::new(experiment).run_report()?);
    }
    print!("{}", policy_comparison(&reports.iter().collect::<Vec<_>>()));
    Ok(())
}

fn sweep(args: &[String]) -> CmdResult {
    use dcsim::SweepBuilder;
    let flags = Flags::parse(args, &["kind", "hosts", "vms", "seed", "csv"], &[])?;
    let hosts = flags.positive_usize_or("hosts", 16)?;
    let vms = flags.positive_usize_or("vms", hosts * 6)?;
    let seed = flags.u64_or("seed", 2013)?;
    let kind = flags
        .str_opt("kind")
        .ok_or_else(|| ArgError("`--kind` is required for sweep".to_string()))?;

    // Each sweep reduces to (knob label, report) rows.
    let rows: Vec<(String, SimReport)> = match kind {
        "wake-latency" => {
            let latencies: Vec<SimDuration> = [1u64, 12, 60, 300, 600]
                .iter()
                .map(|&s| SimDuration::from_secs(s))
                .collect();
            SweepBuilder::wake_latency(hosts, vms, &latencies, seed)
                .run()?
                .into_iter()
                .map(|mut row| (format!("{}", row.value), row.reports.remove(0)))
                .collect()
        }
        "headroom" => {
            let targets = [0.55, 0.65, 0.75, 0.85];
            SweepBuilder::headroom(hosts, vms, &targets, LowPowerMode::Suspend, seed)
                .run()?
                .into_iter()
                .map(|mut row| (format!("{:.2}", row.value), row.reports.remove(0)))
                .collect()
        }
        "interval" => {
            let intervals: Vec<SimDuration> = [30u64, 60, 300, 900]
                .iter()
                .map(|&s| SimDuration::from_secs(s))
                .collect();
            SweepBuilder::interval(hosts, vms, &intervals, seed)
                .run()?
                .into_iter()
                .flat_map(|mut row| {
                    let s5 = row.reports.remove(1);
                    let s3 = row.reports.remove(0);
                    [
                        (format!("{} S3", row.value), s3),
                        (format!("{} S5", row.value), s5),
                    ]
                })
                .collect()
        }
        "reliability" => {
            let probs = [0.0, 0.02, 0.05, 0.1];
            SweepBuilder::reliability(hosts, vms, &probs, seed)
                .run()?
                .into_iter()
                .map(|mut row| (format!("{:.0}%", row.value * 100.0), row.reports.remove(0)))
                .collect()
        }
        other => {
            return Err(Box::new(ArgError(format!(
                "unknown sweep kind `{other}` (wake-latency | headroom | interval | reliability)"
            ))))
        }
    };

    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|(knob, r)| {
            vec![
                knob.clone(),
                format!("{:.1}", r.energy_kwh()),
                format!("{:.4}%", r.unserved_ratio * 100.0),
                format!("{:.1}", r.migrations_per_hour),
                format!("{:.1}", r.power_actions_per_hour),
                format!("{:.1}", r.avg_hosts_on),
            ]
        })
        .collect();
    print!(
        "{}",
        table(
            &[
                "knob",
                "energy kWh",
                "unserved",
                "migr/h",
                "pwr-act/h",
                "hosts-on"
            ],
            &table_rows
        )
    );

    if let Some(path) = flags.str_opt("csv") {
        let mut csv =
            String::from("knob,energy_kwh,unserved_ratio,migr_per_h,pwr_act_per_h,hosts_on\n");
        for (knob, r) in &rows {
            csv.push_str(&format!(
                "{},{},{},{},{},{}\n",
                knob,
                r.energy_kwh(),
                r.unserved_ratio,
                r.migrations_per_hour,
                r.power_actions_per_hour,
                r.avg_hosts_on
            ));
        }
        fs::write(path, csv)?;
        eprintln!("wrote CSV sweep to {path}");
    }
    Ok(())
}

fn breakeven(args: &[String]) -> CmdResult {
    let flags = Flags::parse(args, &["profile"], &[])?;
    let profile = match flags.str_or("profile", "rack") {
        "rack" => HostPowerProfile::prototype_rack(),
        "blade" => HostPowerProfile::prototype_blade(),
        "legacy" => HostPowerProfile::legacy_rack(),
        "ladder" => HostPowerProfile::prototype_rack_ladder(),
        "blade-ladder" => HostPowerProfile::prototype_blade_ladder(),
        other => {
            return Err(Box::new(ArgError(format!(
                "unknown profile `{other}` (rack | blade | legacy | ladder | blade-ladder)"
            ))))
        }
    };
    println!("{profile}");
    let label = |mode| match mode {
        LowPowerMode::PackageIdle => "package-idle (C6)",
        LowPowerMode::Suspend => "suspend (S3)",
        LowPowerMode::Off => "off/boot (S5)",
    };
    for mode in LowPowerMode::ALL {
        match break_even_gap(&profile, mode) {
            Some(gap) => println!("{}: breaks even after {gap} idle", label(mode)),
            None => println!("{}: not supported by this profile", label(mode)),
        }
    }
    let rows: Vec<Vec<String>> = [60u64, 300, 900, 3600]
        .iter()
        .map(|&secs| {
            let gap = SimDuration::from_secs(secs);
            let fmt = |mode| match net_energy_saved(&profile, mode, gap) {
                Some(j) => format!("{:+.1} kJ", j / 1000.0),
                None => "infeasible".to_string(),
            };
            vec![
                format!("{gap}"),
                fmt(LowPowerMode::PackageIdle),
                fmt(LowPowerMode::Suspend),
                fmt(LowPowerMode::Off),
            ]
        })
        .collect();
    print!(
        "{}",
        table(&["idle gap", "package-idle", "suspend", "off"], &rows)
    );
    Ok(())
}

/// One labeled attribution section: a trace yields a single section, a
/// scaleout bench artifact yields one per fleet size.
struct PerfSection {
    label: String,
    /// Fleet size of a scaleout artifact's section (`None` for a trace
    /// or bare span summary): diffs pair sections by it.
    hosts: Option<u64>,
    summary: SpanSummary,
    /// `(median, min, max)` wall seconds over a scaleout run's repeats,
    /// when the artifact records them (older artifacts do not).
    spread: Option<(f64, f64, f64)>,
}

fn perf_report(args: &[String]) -> CmdResult {
    const USAGE: &str = "usage: agilepm perf-report FILE | agilepm perf-report diff A B";
    match args.first().map(String::as_str) {
        Some("diff") => match args {
            [_, a, b] => perf_diff(a, b),
            _ => Err(Box::new(ArgError(format!(
                "`perf-report diff` takes exactly two files\n{USAGE}"
            )))),
        },
        Some(path) if !path.starts_with('-') && args.len() == 1 => {
            for section in load_sections(path)? {
                println!("== {}", section.label);
                if let Some((median, min, max)) = section.spread {
                    println!(
                        "wall over repeats: median {median:.3} s, min {min:.3} s, max {max:.3} s"
                    );
                }
                print!("{}", section.summary);
                print_attribution(&section.summary);
            }
            Ok(())
        }
        _ => Err(Box::new(ArgError(USAGE.to_string()))),
    }
}

/// For every top-level span that has named children, prints how much of
/// its wall time those children account for — the "is the attribution
/// complete?" headline.
fn print_attribution(summary: &SpanSummary) {
    for span in summary.spans.iter().filter(|s| s.depth == 1) {
        if summary.children_of(&span.path).is_empty() {
            continue;
        }
        if let Some(frac) = summary.attributed_fraction(&span.path) {
            println!(
                "{}: {:.1}% attributed to named sub-spans",
                span.name,
                frac * 100.0
            );
        }
    }
}

/// Per-path wall-time deltas between two runs, sorted by magnitude.
fn perf_diff(path_a: &str, path_b: &str) -> CmdResult {
    print!(
        "{}",
        render_perf_diff(&load_sections(path_a)?, &load_sections(path_b)?)
    );
    Ok(())
}

/// Renders [`perf_diff`]'s tables. Scaleout sections pair by fleet size
/// (`hosts=N`), the rest (a trace's single section) by position; a
/// section with no partner is named as "only in a" or "only in b"
/// rather than diffed against an unrelated size.
fn render_perf_diff(a_sections: &[PerfSection], b_sections: &[PerfSection]) -> String {
    let mut out = String::new();
    let mut paired = vec![false; b_sections.len()];
    for a in a_sections {
        // Equal sizes pair; unsized sections pair first-unpaired-first.
        let partner = (0..b_sections.len()).find(|&j| !paired[j] && b_sections[j].hosts == a.hosts);
        let Some(j) = partner else {
            out.push_str(&format!("== only in a: {}\n", a.label));
            continue;
        };
        paired[j] = true;
        diff_section(&mut out, a, &b_sections[j]);
    }
    for (b, _) in b_sections.iter().zip(&paired).filter(|(_, &p)| !p) {
        out.push_str(&format!("== only in b: {}\n", b.label));
    }
    out
}

/// Appends one pair's delta table and its biggest regression to `out`.
fn diff_section(out: &mut String, a: &PerfSection, b: &PerfSection) {
    out.push_str(&format!("== {} vs {}\n", a.label, b.label));
    // Compare only down to the depth both sides recorded: a flat phase
    // baseline against a full span tree diffs at the phase level instead
    // of flagging every sub-span as new.
    let deepest = |s: &SpanSummary| s.spans.iter().map(|x| x.depth).max().unwrap_or(1);
    let cap = deepest(&a.summary).min(deepest(&b.summary));
    let mut paths: Vec<&str> = a
        .summary
        .spans
        .iter()
        .filter(|s| s.depth <= cap)
        .map(|s| s.path.as_str())
        .collect();
    for s in b.summary.spans.iter().filter(|s| s.depth <= cap) {
        if !paths.contains(&s.path.as_str()) {
            paths.push(&s.path);
        }
    }
    let secs = |summary: &SpanSummary, path: &str| summary.span(path).map_or(0.0, |s| s.total_secs);
    let mut rows: Vec<(String, f64, f64, f64)> = paths
        .iter()
        .map(|p| {
            let (sa, sb) = (secs(&a.summary, p), secs(&b.summary, p));
            (p.to_string(), sa, sb, sb - sa)
        })
        .collect();
    rows.sort_by(|x, y| y.3.abs().total_cmp(&x.3.abs()));
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|(path, sa, sb, delta)| {
            let rel = if *sa > 0.0 {
                format!("{:+.1}%", 100.0 * delta / sa)
            } else {
                "new".to_string()
            };
            vec![
                path.clone(),
                format!("{sa:.3}"),
                format!("{sb:.3}"),
                format!("{delta:+.3}"),
                rel,
            ]
        })
        .collect();
    out.push_str(&table(
        &["span", "a secs", "b secs", "delta", "rel"],
        &table_rows,
    ));
    if let Some((path, sa, _, delta)) = rows.iter().find(|(_, _, _, d)| *d > 0.0) {
        let rel = if *sa > 0.0 {
            format!(" ({:+.1}%)", 100.0 * delta / sa)
        } else {
            String::new()
        };
        out.push_str(&format!("biggest regression: {path} {delta:+.3} s{rel}\n"));
    }
}

/// Loads attribution data from any artifact the toolchain produces: a
/// JSON Lines trace (the `run-summary` record's span tree), a bare
/// span-summary object, or a scaleout bench artifact (`"runs"` with span
/// trees or, in older artifacts, only per-phase totals).
fn load_sections(path: &str) -> Result<Vec<PerfSection>, Box<dyn Error>> {
    let text = fs::read_to_string(path).map_err(|e| ArgError(format!("{path}: {e}")))?;
    for line in text.lines() {
        let Ok(record) = Json::parse(line) else {
            continue;
        };
        if record.get("record").and_then(Json::as_str) == Some("run-summary") {
            return Ok(vec![trace_section(&record)?]);
        }
    }
    let json = Json::parse(&text)
        .map_err(|e| ArgError(format!("{path}: not a trace or bench artifact: {e:?}")))?;
    // `runs` is a scaleout artifact; `baseline` is the checked-in perf
    // baseline — same per-entry shape, so both diff against each other.
    for key in ["runs", "baseline"] {
        if let Some(runs) = json.get(key).and_then(Json::as_array) {
            let sections: Result<Vec<_>, _> = runs.iter().map(scaleout_section).collect();
            let sections = sections?;
            if sections.is_empty() {
                return Err(Box::new(ArgError(format!("{path}: empty `{key}` array"))));
            }
            return Ok(sections);
        }
    }
    if json.get("spans").is_some() {
        return Ok(vec![PerfSection {
            label: path.to_string(),
            hosts: None,
            summary: SpanSummary::from_json(&json).map_err(|e| ArgError(format!("{e:?}")))?,
            spread: None,
        }]);
    }
    Err(Box::new(ArgError(format!(
        "{path}: found neither a run-summary record, a span summary, nor a `runs` array"
    ))))
}

/// Builds a section from a trace's `run-summary` record. The span tree
/// is present only when the run was profiled; an unprofiled trace is an
/// error that says how to get one.
fn trace_section(record: &Json) -> Result<PerfSection, Box<dyn Error>> {
    let label = format!(
        "{} / {}",
        record.get("scenario").and_then(Json::as_str).unwrap_or("?"),
        record.get("policy").and_then(Json::as_str).unwrap_or("?"),
    );
    let spans = record
        .get("spans")
        .filter(|spans| **spans != Json::Null)
        .ok_or_else(|| {
            ArgError(format!(
                "{label}: run-summary has no span tree; re-run with `--profile`"
            ))
        })?;
    let summary = SpanSummary::from_json(spans).map_err(|e| ArgError(format!("{e:?}")))?;
    Ok(PerfSection {
        label,
        hosts: None,
        summary,
        spread: None,
    })
}

/// Builds a section from one entry of a scaleout artifact's `runs`
/// array. Uses the embedded span tree when present, else the flat
/// per-phase totals.
fn scaleout_section(run: &Json) -> Result<PerfSection, Box<dyn Error>> {
    let hosts = run.get("hosts").and_then(Json::as_f64).unwrap_or(0.0) as u64;
    let label = format!("hosts={hosts}");
    let secs = |key| run.get(key).and_then(Json::as_f64);
    let spread = match (
        secs("wall_secs_median"),
        secs("wall_secs_min"),
        secs("wall_secs_max"),
    ) {
        (Some(median), Some(min), Some(max)) => Some((median, min, max)),
        _ => None,
    };
    if let Some(spans) = run.get("spans") {
        if *spans != Json::Null {
            return Ok(PerfSection {
                label,
                hosts: Some(hosts),
                summary: SpanSummary::from_json(spans).map_err(|e| ArgError(format!("{e:?}")))?,
                spread,
            });
        }
    }
    let phases = run
        .get("phases")
        .and_then(Json::as_object)
        .ok_or_else(|| ArgError(format!("{label}: run has neither spans nor phases")))?;
    let spans: Vec<SpanStat> = phases
        .iter()
        .map(|(name, secs)| {
            let total_secs = secs.as_f64().unwrap_or(0.0);
            SpanStat {
                path: name.clone(),
                name: name.clone(),
                depth: 1,
                calls: 0,
                total_secs,
                self_secs: total_secs,
            }
        })
        .collect();
    let wall_secs = run
        .get("wall_secs")
        .and_then(Json::as_f64)
        .unwrap_or_else(|| spans.iter().map(|s| s.total_secs).sum());
    Ok(PerfSection {
        label,
        hosts: Some(hosts),
        summary: SpanSummary { spans, wall_secs },
        spread,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn help_and_unknown_commands() {
        assert!(dispatch(&argv(&["help"])).is_ok());
        assert!(dispatch(&[]).is_ok());
        assert!(dispatch(&argv(&["frobnicate"])).is_err());
    }

    #[test]
    fn policy_parsing() {
        assert_eq!(
            parse_policy("suspend").unwrap(),
            PowerPolicy::reactive_suspend()
        );
        assert_eq!(parse_policy("oracle").unwrap(), PowerPolicy::oracle());
        assert!(parse_policy("s3").is_err());
    }

    #[test]
    fn run_small_scenario_end_to_end() {
        dispatch(&argv(&[
            "run", "--hosts", "4", "--vms", "12", "--hours", "2", "--policy", "suspend",
        ]))
        .expect("small run succeeds");
    }

    #[test]
    fn run_with_scheduler_flags() {
        dispatch(&argv(&[
            "run",
            "--hosts",
            "4",
            "--vms",
            "12",
            "--hours",
            "2",
            "--schedulers",
            "2",
            "--staleness",
            "1",
        ]))
        .expect("distributed run succeeds");
        assert!(
            dispatch(&argv(&["run", "--hosts", "4", "--schedulers", "0"])).is_err(),
            "zero schedulers must be rejected"
        );
        assert!(
            dispatch(&argv(&["run", "--hosts", "4", "--schedulers", "8"])).is_err(),
            "more schedulers than hosts must be rejected"
        );
    }

    /// Asserts every command line fails at the flag boundary with an
    /// error naming `flag`.
    fn assert_flag_rejected(flag: &str, lines: &[&[&str]]) {
        for line in lines {
            let err = dispatch(&argv(line)).expect_err(&line.join(" "));
            assert!(err.to_string().contains(flag), "{line:?}: {err}");
        }
    }

    #[test]
    fn zero_hosts_are_rejected() {
        assert_flag_rejected(
            "`--hosts`",
            &[
                &["run", "--hosts", "0"],
                &["compare", "--hosts", "0"],
                &["sweep", "--kind", "headroom", "--hosts", "0"],
            ],
        );
    }

    #[test]
    fn zero_vms_are_rejected() {
        assert_flag_rejected(
            "`--vms`",
            &[
                &["run", "--hosts", "4", "--vms", "0"],
                &["compare", "--hosts", "4", "--vms", "0"],
                &["sweep", "--kind", "headroom", "--hosts", "2", "--vms", "0"],
            ],
        );
    }

    #[test]
    fn churn_outside_a_fraction_is_rejected() {
        let churn = |f: &'static str| -> [&'static str; 7] {
            ["run", "--hosts", "4", "--workload", "churn", "--churn", f]
        };
        assert_flag_rejected("`--churn`", &[&churn("2"), &churn("-1"), &churn("nan")]);
    }

    #[test]
    fn resume_fail_outside_a_probability_is_rejected() {
        let fail =
            |p: &'static str| -> [&'static str; 5] { ["run", "--hosts", "4", "--resume-fail", p] };
        assert_flag_rejected(
            "`--resume-fail`",
            &[&fail("2"), &fail("1"), &fail("-0.5"), &fail("nan")],
        );
    }

    // Each value below is one unit past u64::MAX milliseconds.

    #[test]
    fn hours_past_the_simulated_clock_are_rejected() {
        let line = ["run", "--hosts", "4", "--hours", "5124095576031"];
        assert_flag_rejected("`--hours`", &[&line]);
    }

    #[test]
    fn interval_past_the_simulated_clock_is_rejected() {
        let line = ["run", "--hosts", "4", "--interval-mins", "307445734561826"];
        assert_flag_rejected("`--interval-mins`", &[&line]);
    }

    #[test]
    fn wake_slo_past_the_simulated_clock_is_rejected() {
        let slo = "ladder:18446744073709552";
        let line = ["run", "--hosts", "4", "--policy", slo];
        assert_flag_rejected(&format!("`{slo}`"), &[&line]);
    }

    #[test]
    fn analytic_runs_reject_a_trace_file() {
        let dir = std::env::temp_dir();
        let trace = dir.join("agilepm-cli-analytic-trace.jsonl");
        let events = dir.join("agilepm-cli-analytic-events.csv");
        let (trace, events) = (trace.to_str().unwrap(), events.to_str().unwrap());
        let line = ["run", "--policy", "oracle", "--hosts", "4", "--hours", "1"];
        for (extra, expected) in [
            (["--trace-out", trace], "no event loop to trace"),
            (["--resume-fail", "0.5"], "no transitions to fail"),
            (["--events", events], "takes no actions to log"),
        ] {
            for path in [trace, events] {
                let _ = fs::remove_file(path);
            }
            let err = dispatch(&argv(&[&line[..], &extra].concat()))
                .expect_err("an Oracle run has no event loop");
            assert!(err.to_string().contains(expected), "{err}");
            for path in [trace, events] {
                assert!(!std::path::Path::new(path).exists(), "{path} appears");
            }
        }
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn a_failed_trace_write_fails_the_run() {
        let line = ["run", "--hosts", "4", "--hours", "1"];
        let err = dispatch(&argv(&[&line[..], &["--trace-out", "/dev/full"]].concat()))
            .expect_err("a trace that lost records must not pass as written");
        assert!(err.to_string().contains("/dev/full"), "{err}");
    }

    #[test]
    fn run_with_json_and_csv_outputs() {
        let dir = std::env::temp_dir().join("agilepm-cli-test");
        fs::create_dir_all(&dir).expect("temp dir");
        let json = dir.join("r.json");
        let csv = dir.join("r.csv");
        dispatch(&argv(&[
            "run",
            "--hosts",
            "4",
            "--vms",
            "12",
            "--hours",
            "2",
            "--json",
            json.to_str().expect("utf8 path"),
            "--csv",
            csv.to_str().expect("utf8 path"),
        ]))
        .expect("run with outputs succeeds");
        let text = fs::read_to_string(&json).expect("json written");
        let report = dcsim::SimReport::from_json(&obs::Json::parse(&text).expect("valid JSON"))
            .expect("report round-trips");
        assert!(report.energy_j > 0.0);
        let csv_text = fs::read_to_string(&csv).expect("csv written");
        assert!(csv_text.starts_with("t_hours,power_w,hosts_on,unserved_cores"));
    }

    #[test]
    fn run_with_trace_and_metrics() {
        let dir = std::env::temp_dir().join("agilepm-cli-test");
        fs::create_dir_all(&dir).expect("temp dir");
        let trace = dir.join("trace.jsonl");
        dispatch(&argv(&[
            "run",
            "--hosts",
            "4",
            "--vms",
            "12",
            "--hours",
            "2",
            "--trace-out",
            trace.to_str().expect("utf8 path"),
            "--metrics",
        ]))
        .expect("run with trace succeeds");
        let text = fs::read_to_string(&trace).expect("trace written");
        assert!(text.lines().count() > 1, "trace should stream records");
        for line in text.lines() {
            let record = obs::Json::parse(line).expect("each line is valid JSON");
            assert!(
                record.get("record").is_some(),
                "records carry a discriminator"
            );
        }
    }

    #[test]
    fn sweep_kinds() {
        dispatch(&argv(&[
            "sweep", "--kind", "headroom", "--hosts", "4", "--vms", "16",
        ]))
        .expect("headroom sweep runs");
        assert!(dispatch(&argv(&["sweep", "--kind", "bogus"])).is_err());
        assert!(dispatch(&argv(&["sweep"])).is_err());
    }

    #[test]
    fn run_with_event_log() {
        let dir = std::env::temp_dir().join("agilepm-cli-test");
        fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("events.csv");
        dispatch(&argv(&[
            "run",
            "--hosts",
            "4",
            "--vms",
            "16",
            "--hours",
            "4",
            "--events",
            path.to_str().expect("utf8 path"),
        ]))
        .expect("run with audit log succeeds");
        let text = fs::read_to_string(&path).expect("log written");
        assert!(text.starts_with("t_seconds,event"));
        assert!(text.lines().count() > 1, "log should have entries");
    }

    #[test]
    fn breakeven_profiles() {
        for p in ["rack", "blade", "legacy", "ladder", "blade-ladder"] {
            dispatch(&argv(&["breakeven", "--profile", p])).expect("profile prints");
        }
        assert!(dispatch(&argv(&["breakeven", "--profile", "toaster"])).is_err());
    }

    #[test]
    fn ladder_policy_and_workload() {
        dispatch(&argv(&[
            "run",
            "--hosts",
            "4",
            "--vms",
            "12",
            "--hours",
            "2",
            "--workload",
            "ladder",
            "--policy",
            "ladder:30",
        ]))
        .expect("joint-ladder run succeeds");
        assert!(dispatch(&argv(&["run", "--policy", "ladder:oops"])).is_err());
        assert!(dispatch(&argv(&["run", "--policy", "ladder:0"])).is_err());
    }

    #[test]
    fn compare_small() {
        dispatch(&argv(&[
            "compare", "--hosts", "4", "--vms", "12", "--hours", "2",
        ]))
        .expect("compare succeeds");
    }

    #[test]
    fn perf_report_renders_and_diffs_profiled_traces() {
        let dir = std::env::temp_dir().join("agilepm-cli-test");
        fs::create_dir_all(&dir).expect("temp dir");
        let a = dir.join("perf_a.jsonl");
        let b = dir.join("perf_b.jsonl");
        for (path, seed) in [(&a, "1"), (&b, "2")] {
            dispatch(&argv(&[
                "run",
                "--hosts",
                "4",
                "--vms",
                "12",
                "--hours",
                "2",
                "--seed",
                seed,
                "--profile",
                "--trace-out",
                path.to_str().expect("utf8 path"),
            ]))
            .expect("profiled run succeeds");
        }
        let a = a.to_str().expect("utf8 path");
        let b = b.to_str().expect("utf8 path");
        dispatch(&argv(&["perf-report", a])).expect("attribution table renders");
        dispatch(&argv(&["perf-report", "diff", a, b])).expect("diff renders");
        assert!(dispatch(&argv(&["perf-report"])).is_err());
        assert!(dispatch(&argv(&["perf-report", "diff", a])).is_err());
        assert!(dispatch(&argv(&["perf-report", "/nonexistent/trace.jsonl"])).is_err());
    }

    #[test]
    fn perf_report_loads_traces_spans_and_bench_artifacts() {
        let dir = std::env::temp_dir().join("agilepm-cli-test");
        fs::create_dir_all(&dir).expect("temp dir");

        // A profiled trace exposes the hierarchical span tree.
        let trace = dir.join("perf_sections.jsonl");
        dispatch(&argv(&[
            "run",
            "--hosts",
            "4",
            "--vms",
            "12",
            "--hours",
            "2",
            "--profile",
            "--trace-out",
            trace.to_str().expect("utf8 path"),
        ]))
        .expect("profiled run succeeds");
        let text = fs::read_to_string(&trace).expect("trace written");
        let summary_line = text
            .lines()
            .find(|l| l.contains("\"run-summary\""))
            .expect("trace has a run-summary");
        let record = obs::Json::parse(summary_line).expect("valid JSON");
        let spans = record.get("spans").expect("summary carries spans");
        assert!(*spans != obs::Json::Null, "profiled run must emit spans");
        let sections = load_sections(trace.to_str().expect("utf8 path")).expect("trace loads");
        assert_eq!(sections.len(), 1);
        assert!(
            sections[0].summary.span("plan").is_some(),
            "span tree has the plan phase"
        );

        // An unprofiled trace has no span tree: a typed error that names
        // the flag to add, not a panic or an empty table.
        let unprofiled = dir.join("perf_unprofiled.jsonl");
        dispatch(&argv(&[
            "run",
            "--hosts",
            "4",
            "--vms",
            "12",
            "--hours",
            "2",
            "--trace-out",
            unprofiled.to_str().expect("utf8 path"),
        ]))
        .expect("unprofiled run succeeds");
        let err = load_sections(unprofiled.to_str().expect("utf8 path"))
            .err()
            .expect("unprofiled trace is rejected");
        assert!(err.to_string().contains("--profile"), "{err}");

        // A bare span-summary object loads too.
        let bare = dir.join("perf_bare.json");
        fs::write(&bare, spans.to_string_pretty()).expect("write span summary");
        let sections = load_sections(bare.to_str().expect("utf8 path")).expect("bare loads");
        assert!(sections[0].summary.wall_secs >= 0.0);

        // And a scaleout-shaped artifact yields one section per size.
        let bench = dir.join("perf_bench.json");
        fs::write(
            &bench,
            r#"{"runs": [
                {"hosts": 64, "wall_secs": 1.0, "phases": {"plan": 0.6, "execute": 0.2}},
                {"hosts": 256, "wall_secs": 4.0, "wall_secs_median": 4.5,
                 "wall_secs_min": 4.0, "wall_secs_max": 6.0,
                 "phases": {"plan": 2.9, "execute": 0.7}}
            ]}"#,
        )
        .expect("write bench artifact");
        let sections = load_sections(bench.to_str().expect("utf8 path")).expect("bench loads");
        assert_eq!(sections.len(), 2);
        assert_eq!(sections[1].label, "hosts=256");
        // The spread is read when recorded and absent from older runs.
        assert_eq!(sections[0].spread, None);
        assert_eq!(sections[1].spread, Some((4.5, 4.0, 6.0)));
        dispatch(&argv(&["perf-report", bench.to_str().expect("utf8 path")]))
            .expect("spread renders");
        assert_eq!(
            sections[1].summary.span("plan").map(|s| s.total_secs),
            Some(2.9)
        );
        dispatch(&argv(&[
            "perf-report",
            "diff",
            bench.to_str().expect("utf8 path"),
            bench.to_str().expect("utf8 path"),
        ]))
        .expect("self-diff renders");
    }

    #[test]
    fn perf_diff_pairs_sections_by_fleet_size() {
        let dir = std::env::temp_dir().join("agilepm-cli-test");
        fs::create_dir_all(&dir).expect("temp dir");
        let write = |name: &str, sizes: &[u64]| {
            let runs: Vec<String> = sizes
                .iter()
                .map(|h| format!(r#"{{"hosts": {h}, "phases": {{"plan": {h}.0}}}}"#))
                .collect();
            let path = dir.join(name);
            fs::write(&path, format!(r#"{{"baseline": [{}]}}"#, runs.join(",")))
                .expect("write artifact");
            load_sections(path.to_str().expect("utf8 path")).expect("artifact loads")
        };
        let baseline = write("pair_a.json", &[64, 256, 4096]);
        let bench = write("pair_b.json", &[64, 4096]);
        let headers = |out: &str| -> Vec<String> {
            out.lines()
                .filter(|l| l.starts_with("=="))
                .map(str::to_string)
                .collect()
        };
        let out = render_perf_diff(&baseline, &bench);
        assert_eq!(
            headers(&out),
            [
                "== hosts=64 vs hosts=64",
                "== only in a: hosts=256",
                "== hosts=4096 vs hosts=4096",
            ],
            "{out}"
        );
        assert_eq!(
            headers(&render_perf_diff(&bench, &baseline)),
            [
                "== hosts=64 vs hosts=64",
                "== hosts=4096 vs hosts=4096",
                "== only in b: hosts=256",
            ]
        );
        // Equal sizes diff to zero: no regression is reported.
        assert!(!out.contains("biggest regression"), "{out}");
    }

    #[test]
    fn churn_workload_flag() {
        dispatch(&argv(&[
            "run",
            "--hosts",
            "4",
            "--vms",
            "12",
            "--hours",
            "2",
            "--workload",
            "churn",
            "--churn",
            "0.5",
        ]))
        .expect("churn run succeeds");
        assert!(dispatch(&argv(&["run", "--workload", "bogus"])).is_err());
    }
}
