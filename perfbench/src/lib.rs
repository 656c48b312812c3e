//! The repository benchmark: whole simulated datacenter days, timed end
//! to end with tracing off and attributed layer by layer in a separate
//! traced run.
//!
//! [`end_to_end`] runs managed days of one workload until the requested
//! measuring time is spent and reports the medians of host time per day
//! (`run_s`) and per set-up (`setup_s`), the process's peak memory, and
//! four simulated outcomes of the day. [`traced`] runs one untraced and
//! two traced days and reports the per-layer metrics of [`layers`] and
//! [`replay`]. Every day passes the correctness gate of [`gate`] or
//! counts as a failed operation.

pub mod gate;
pub mod layers;
pub mod replay;
pub mod workload;

use std::time::Instant;

use dcsim::{Scenario, SimOutput, SimReport, Simulation};
use obs::Json;

use gate::{Gate, References};
use workload::Workload;

/// Fewest managed days an end-to-end run measures, however short its
/// measuring time: the medians need a middle.
pub const MIN_DAYS: usize = 3;

/// One named measurement. `value` is `None` when the run did not produce
/// it (a span or counter the engine did not emit); such a metric is
/// printed as absent and left out of the result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Dotted name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit, as in `s`, `ns`, `count` or `%`.
    pub unit: &'static str,
    /// The measured value, if any.
    pub value: Option<f64>,
}

impl Metric {
    /// A metric that may be absent.
    pub fn new(name: &'static str, unit: &'static str, value: Option<f64>) -> Self {
        Metric { name, unit, value }
    }
}

/// What one benchmark invocation measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Managed days run.
    pub attempted: usize,
    /// Days that errored or failed the correctness gate.
    pub failed: usize,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Whether every attempted day passed the gate.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed`, and
    /// every present metric as `{"value", "unit"}`.
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .filter_map(|m| {
                let value = m.value.filter(|v| v.is_finite())?;
                Some((
                    m.name.to_string(),
                    Json::obj([
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(m.unit.to_string())),
                    ]),
                ))
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", Json::Object(metrics)),
        ])
        .to_string_compact()
    }
}

/// One managed day that went through the correctness gate.
struct Day {
    generate_s: f64,
    build_s: f64,
    run_s: f64,
    /// The day's output; `None` when it errored or failed the gate.
    output: Option<SimOutput>,
}

impl Day {
    /// Generates the workload's world, builds the managed simulation on
    /// `threads` engine threads, runs it to the end of the day, and
    /// passes the report through `gate`, printing one line about it.
    fn run(
        label: &str,
        workload: &Workload,
        seed: u64,
        threads: usize,
        profiling: bool,
        gate: &mut Gate,
        references: &Result<References, String>,
    ) -> Day {
        let t0 = Instant::now();
        let scenario = workload.scenario(seed);
        let t1 = Instant::now();
        let built = workload
            .managed(scenario.clone())
            .threads(threads)
            .profiling(profiling)
            .build();
        let t2 = Instant::now();
        let output = built.and_then(Simulation::run);
        let t3 = Instant::now();
        let verdict = match &output {
            Ok(out) => gate.check(&scenario, &out.report, references),
            Err(e) => Err(format!("simulation failed: {e}")),
        };
        let day = Day {
            generate_s: (t1 - t0).as_secs_f64(),
            build_s: (t2 - t1).as_secs_f64(),
            run_s: (t3 - t2).as_secs_f64(),
            output: output.ok().filter(|_| verdict.is_ok()),
        };
        println!(
            "{label}: generate {:.3} s, build {:.3} s, run {:.3} s, {}",
            day.generate_s,
            day.build_s,
            day.run_s,
            match verdict {
                Ok(digest) => format!("digest {digest:016x} ok"),
                Err(e) => format!("FAILED: {e}"),
            }
        );
        day
    }
}

/// Runs the untimed reference legs on `scenario`.
fn references(workload: &Workload, scenario: &Scenario) -> Result<References, String> {
    let result = References::run(workload, scenario);
    if let Err(e) = &result {
        println!("reference legs FAILED: {e}");
    }
    result
}

/// The end-to-end metrics: managed days on the workload's own thread
/// count, tracing off, until `seconds` of measuring have passed and at
/// least [`MIN_DAYS`] days ran.
pub fn end_to_end(workload: &Workload, seed: u64, seconds: f64) -> Outcome {
    let references = references(workload, &workload.scenario(seed));
    let mut gate = Gate::new();
    let (mut setup, mut run) = (Vec::new(), Vec::new());
    let mut managed = None;
    let mut failed = 0;
    let start = Instant::now();
    while run.len() < MIN_DAYS || start.elapsed().as_secs_f64() < seconds {
        let label = format!("day {}", run.len() + 1);
        let day = Day::run(
            &label,
            workload,
            seed,
            workload.threads,
            false,
            &mut gate,
            &references,
        );
        setup.push(day.generate_s + day.build_s);
        run.push(day.run_s);
        match day.output {
            Some(out) => {
                managed.get_or_insert(out.report);
            }
            None => failed += 1,
        }
    }
    print_spread("run_s", &run);
    print_spread("setup_s", &setup);
    let simulated = |f: fn(&SimReport) -> f64| managed.as_ref().map(f);
    let always_on = references.as_ref().ok().map(|r| &r.always_on);
    let metrics = vec![
        Metric::new("run_s", "s", Some(median(&run))),
        Metric::new("setup_s", "s", Some(median(&setup))),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb()),
        Metric::new(
            "savings_pct",
            "%",
            managed
                .as_ref()
                .zip(always_on)
                .map(|(m, base)| m.savings_vs(base) * 100.0),
        ),
        Metric::new("unserved_pct", "%", simulated(|r| r.unserved_ratio * 100.0)),
        Metric::new(
            "migrations_per_hour",
            "1/h",
            simulated(|r| r.migrations_per_hour),
        ),
        Metric::new("latency_factor", "x", simulated(|r| r.avg_latency_factor)),
    ];
    Outcome {
        attempted: run.len(),
        failed,
        metrics,
    }
}

/// The per-layer metrics: one untraced and one traced day on the
/// workload's thread count, one traced day on the other thread count
/// (1 or 2), and the outside-layer replays.
pub fn traced(workload: &Workload, seed: u64) -> Outcome {
    let scenario = workload.scenario(seed);
    let references = references(workload, &scenario);
    let mut gate = Gate::new();
    let other_threads = if workload.threads == 1 { 2 } else { 1 };
    let legs = [
        ("untraced", workload.threads, false),
        ("traced", workload.threads, true),
        ("traced, other thread count", other_threads, true),
    ];
    let mut days = Vec::new();
    let mut failed = 0;
    for (name, threads, profiling) in legs {
        let label = format!("{name} day on {threads} thread(s)");
        let day = Day::run(
            &label,
            workload,
            seed,
            threads,
            profiling,
            &mut gate,
            &references,
        );
        failed += usize::from(day.output.is_none());
        days.push(day);
    }
    let [untraced, traced, other] = [&days[0], &days[1], &days[2]];
    let (serial_s, two_s) = if workload.threads == 1 {
        (traced.run_s, other.run_s)
    } else {
        (other.run_s, traced.run_s)
    };

    let mut metrics = vec![
        Metric::new(
            "workload.generate_s",
            "s",
            Some(median(&[
                untraced.generate_s,
                traced.generate_s,
                other.generate_s,
            ])),
        ),
        Metric::new(
            "sim.build_s",
            "s",
            Some(median(&[untraced.build_s, traced.build_s, other.build_s])),
        ),
        Metric::new(
            "workload.trace_at_ns",
            "ns",
            Some(replay::trace_at_ns(&scenario)),
        ),
        Metric::new(
            "cluster.apply_demand_ns_per_host",
            "ns",
            Some(replay::apply_demand_ns_per_host(&scenario)),
        ),
        Metric::new("simcore.pool.speedup_2t", "x", Some(serial_s / two_s)),
        Metric::new(
            "obs.trace_overhead_pct",
            "%",
            Some((traced.run_s / untraced.run_s - 1.0) * 100.0),
        ),
    ];
    if let Some(out) = &traced.output {
        let spans = out.spans.clone().unwrap_or_default();
        let (layer_metrics, table) = layers::attribute(&spans, &out.report, traced.run_s);
        println!("{table}");
        metrics.extend(layer_metrics);
    }
    Outcome {
        attempted: legs.len(),
        failed,
        metrics,
    }
}

/// Peak resident memory of this process in MB (Linux `VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The median of `values` (the mean of the middle two for an even count).
fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` of `values`.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn print_spread(name: &str, values: &[f64]) {
    println!(
        "{name}: median {:.4} s over {} days (p25 {:.4}, p75 {:.4}, min {:.4}, max {:.4})",
        median(values),
        values.len(),
        quantile(values, 0.25),
        quantile(values, 0.75),
        quantile(values, 0.0),
        quantile(values, 1.0),
    );
}
