//! Headline end-to-end experiments (F4, T5, T9).

use agile_core::PowerPolicy;
use dcsim::report::{policy_comparison, series_table, table};
use dcsim::{Experiment, Scenario, SimReport, SimulationBuilder};
use simcore::{SimDuration, SimTime};

use crate::{HEADLINE_HOSTS, HEADLINE_VMS, SEED};

/// Runs the four headline policies on the same diurnal day.
///
/// The management loop runs at a 1-minute interval — the *agile*
/// management regime the paper's low-latency states enable. At this
/// cadence the boot-vs-resume latency gap is visible in the violation
/// metrics, and base DRM does real load-balancing work at the daily peak.
fn headline_runs(hosts: usize, vms: usize, seed: u64) -> Vec<SimReport> {
    let scenario = Scenario::datacenter_spiky(hosts, vms, seed);
    [
        PowerPolicy::always_on(),
        PowerPolicy::reactive_off(),
        PowerPolicy::reactive_suspend(),
        PowerPolicy::oracle(),
    ]
    .into_iter()
    .map(|p| {
        SimulationBuilder::new(
            Experiment::new(scenario.clone())
                .policy(p)
                .control_interval(SimDuration::from_mins(1)),
        )
        .run_report()
        .expect("headline scenario runs")
    })
    .collect()
}

/// F4 + T5: datacenter power over a 24 h diurnal day under the four
/// policies (figure series), and the summary comparison table.
pub fn exp_f4_t5() -> (String, String) {
    exp_f4_t5_sized(HEADLINE_HOSTS, HEADLINE_VMS, SEED)
}

/// Size-parameterized variant (used by tests at small scale).
pub fn exp_f4_t5_sized(hosts: usize, vms: usize, seed: u64) -> (String, String) {
    let reports = headline_runs(hosts, vms, seed);
    let labels: Vec<&str> = reports.iter().map(|r| r.policy.as_str()).collect();
    let series: Vec<&simcore::TimeSeries> = reports.iter().map(|r| &r.power_series).collect();
    let f4 = format!(
        "Cluster power (kW would be W/1000) over 24 h, {hosts} hosts / {vms} VMs, seed {seed}:\n{}",
        series_table(
            &labels,
            &series,
            SimDuration::from_mins(30),
            SimTime::ZERO + SimDuration::from_hours(24),
        )
    );
    let refs: Vec<&SimReport> = reports.iter().collect();
    let t5 = format!(
        "Policy summary, {hosts} hosts / {vms} VMs, 24 h diurnal+spikes, seed {seed}:\n{}",
        policy_comparison(&refs)
    );
    (f4, t5)
}

/// T9: management overhead — action rates of base DRM vs. DRM+PM under
/// both power-state regimes. The paper's claim: PM with low-latency
/// states adds overhead comparable to base DRM.
pub fn exp_t9() -> String {
    exp_t9_sized(HEADLINE_HOSTS, HEADLINE_VMS, SEED)
}

/// Size-parameterized variant (used by tests at small scale).
pub fn exp_t9_sized(hosts: usize, vms: usize, seed: u64) -> String {
    let reports = headline_runs(hosts, vms, seed);
    let rows: Vec<Vec<String>> = reports
        .iter()
        .filter(|r| r.policy != "Oracle")
        .map(|r| {
            vec![
                r.policy.clone(),
                format!("{:.2}", r.migrations_per_hour),
                format!("{:.2}", r.power_actions_per_hour),
                format!(
                    "{}/{}/{}",
                    r.overload_migrations, r.consolidation_migrations, r.rebalance_migrations
                ),
                format!("{}", r.power_ups + r.power_downs),
                format!("{:.3}%", r.migration_overhead_frac * 100.0),
                format!("{:.3}%", r.transition_overhead_frac * 100.0),
                format!("{:.3}%", r.unserved_ratio * 100.0),
            ]
        })
        .collect();
    format!(
        "Management overhead, {hosts} hosts / {vms} VMs, 24 h, seed {seed}:\n{}",
        table(
            &[
                "policy",
                "migr/h",
                "pwr-act/h",
                "migr(ovl/cons/rebal)",
                "pwr total",
                "migr-time",
                "transition-time",
                "unserved"
            ],
            &rows,
        )
    )
}

/// T19: seed-replicated headline summary — T5's numbers with error bars.
pub fn exp_t19() -> String {
    exp_t19_sized(32, 192, &[2013, 2014, 2015, 2016, 2017])
}

/// Size-parameterized variant.
pub fn exp_t19_sized(hosts: usize, vms: usize, seeds: &[u64]) -> String {
    use dcsim::replicate;
    let mut rows = Vec::new();
    for policy in [
        PowerPolicy::always_on(),
        PowerPolicy::reactive_off(),
        PowerPolicy::reactive_suspend(),
        PowerPolicy::oracle(),
    ] {
        let summary = replicate(seeds, |seed| {
            SimulationBuilder::new(
                Experiment::new(Scenario::datacenter_spiky(hosts, vms, seed))
                    .policy(policy)
                    .control_interval(SimDuration::from_mins(1)),
            )
            .run_report()
        })
        .expect("replications run");
        rows.push(vec![
            summary.policy.clone(),
            summary.energy_kwh.pm(1),
            format!(
                "{:.4} ± {:.4}%",
                summary.unserved_ratio.mean * 100.0,
                summary.unserved_ratio.std_dev * 100.0
            ),
            summary.migrations_per_hour.pm(1),
            summary.power_actions_per_hour.pm(1),
            summary.avg_hosts_on.pm(1),
        ]);
    }
    format!(
        "Seed-replicated policy summary ({} seeds), {hosts} hosts / {vms} VMs, 24 h:
{}",
        seeds.len(),
        table(
            &[
                "policy",
                "energy kWh",
                "unserved",
                "migr/h",
                "pwr-act/h",
                "hosts-on"
            ],
            &rows
        )
    )
}

/// T20: service-class SLA accounting — where the violations land.
pub fn exp_t20() -> String {
    exp_t20_sized(HEADLINE_HOSTS, HEADLINE_VMS, SEED)
}

/// Size-parameterized variant.
pub fn exp_t20_sized(hosts: usize, vms: usize, seed: u64) -> String {
    let reports = headline_runs(hosts, vms, seed);
    let rows: Vec<Vec<String>> = reports
        .iter()
        .filter(|r| r.policy != "Oracle")
        .map(|r| {
            vec![
                r.policy.clone(),
                format!("{:.4}%", r.unserved_ratio * 100.0),
                format!("{:.4}%", r.unserved_interactive_ratio * 100.0),
                format!("{:.4}%", r.unserved_batch_ratio * 100.0),
                format!("{:.2}x", r.avg_latency_factor),
            ]
        })
        .collect();
    format!(
        "Per-class SLA accounting (interactive served first), {hosts} hosts / {vms} VMs, 24 h:
{}",
        table(
            &["policy", "unserved", "interactive", "batch", "lat"],
            &rows
        )
    )
}

/// T22: DVFS-only vs consolidation — the classic alternative knob.
pub fn exp_t22() -> String {
    exp_t22_sized(32, 192, SEED)
}

/// Size-parameterized variant.
pub fn exp_t22_sized(hosts: usize, vms: usize, seed: u64) -> String {
    let scenario = Scenario::datacenter(hosts, vms, seed);
    let base =
        SimulationBuilder::new(Experiment::new(scenario.clone()).policy(PowerPolicy::always_on()))
            .run_report()
            .expect("scenario runs");
    let dvfs = SimulationBuilder::new(Experiment::new(scenario.clone()))
        .dvfs_baseline(power::DvfsModel::typical_2013())
        .run_report()
        .expect("analytic baseline runs");
    let suspend = SimulationBuilder::new(
        Experiment::new(scenario.clone()).policy(PowerPolicy::reactive_suspend()),
    )
    .run_report()
    .expect("scenario runs");
    let oracle = SimulationBuilder::new(Experiment::new(scenario).policy(PowerPolicy::oracle()))
        .run_report()
        .expect("scenario runs");

    let rows: Vec<Vec<String>> = [&base, &dvfs, &suspend, &oracle]
        .iter()
        .map(|r| {
            vec![
                r.policy.clone(),
                format!("{:.0}", r.energy_kwh()),
                format!("{:+.1}%", r.savings_vs(&base) * 100.0),
                format!("{:.4}%", r.unserved_ratio * 100.0),
                format!("{:.1}", r.avg_hosts_on),
            ]
        })
        .collect();
    format!(
        "DVFS-only vs consolidation, {hosts} hosts / {vms} VMs, 24 h diurnal:
{}",
        table(
            &["policy", "energy kWh", "savings", "unserved", "hosts-on"],
            &rows
        )
    )
}

/// T25: simulator self-profile — wall-clock per control phase and event
/// dispatch, plus the peak event-queue depth, for the headline run.
pub fn exp_profile() -> String {
    exp_profile_sized(HEADLINE_HOSTS, HEADLINE_VMS, SEED)
}

/// Size-parameterized variant (used by tests at small scale).
pub fn exp_profile_sized(hosts: usize, vms: usize, seed: u64) -> String {
    let out = SimulationBuilder::new(
        Experiment::new(Scenario::datacenter(hosts, vms, seed))
            .policy(PowerPolicy::reactive_suspend()),
    )
    .profiling(true)
    .build()
    .and_then(|sim| sim.run())
    .expect("headline scenario runs");
    let report = out.report;
    let spans = out.spans.expect("profiled run returns a span tree");
    let peak_queue = match report.metrics.get("sim.queue.peak") {
        Some(obs::MetricValue::Gauge(v)) => *v as u64,
        _ => 0,
    };
    format!(
        "Simulator phase profile, {hosts} hosts / {vms} VMs, 24 h diurnal, seed {seed}:\n\
         {}\
         peak event queue: {peak_queue} entries\n\
         rounds: {}\n",
        phase_table(&spans),
        report.metrics.counter("sim.rounds")
    )
}

/// The engine phases (the depth-1 spans) as a flat table: total wall
/// time, calls, and mean microseconds per call.
fn phase_table(spans: &obs::SpanSummary) -> String {
    let phases = spans.children_of("");
    let width = phases
        .iter()
        .map(|p| p.name.len())
        .max()
        .unwrap_or(0)
        .max(5);
    let mut out = format!("wall-clock: {:.3} s\n", spans.wall_secs);
    for p in phases {
        let mean_us = if p.calls > 0 {
            p.total_secs * 1e6 / p.calls as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:<width$}  {:>10.3} s  {:>10} calls  {:>10.1} us/call\n",
            p.name, p.total_secs, p.calls, mean_us
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_experiment_reports_phases() {
        let body = exp_profile_sized(4, 16, 7);
        assert!(body.contains("peak event queue"), "{body}");
        for phase in ["observe", "plan", "execute", "dispatch"] {
            assert!(body.contains(phase), "missing {phase} in:\n{body}");
        }
    }

    #[test]
    fn headline_shape_claims_hold_at_small_scale() {
        let reports = headline_runs(16, 64, 7);
        let (base, off, suspend, oracle) = (&reports[0], &reports[1], &reports[2], &reports[3]);
        // Energy ordering: Oracle < Suspend < AlwaysOn, and Suspend beats
        // Off-based PM (boot energy + conservatism).
        assert!(oracle.energy_j < suspend.energy_j);
        assert!(suspend.energy_j < base.energy_j);
        // S5 parks at 4.5 W vs S3's 8.5 W, so off-based PM can edge ahead
        // on pure energy over long parks; the regimes must stay within a
        // few percent of each other (the paper's point is that S3 matches
        // S5's savings while being far safer).
        assert!(
            suspend.energy_j <= off.energy_j * 1.05,
            "suspend {:.1} kWh should not lose to off {:.1} kWh by >5%",
            suspend.energy_kwh(),
            off.energy_kwh()
        );
        // Performance: on the smooth diurnal day both PM regimes stay
        // near the DRM baseline (the latency gap shows up in the
        // flash-crowd sweep, F7); what must hold here is that PM-Suspend
        // keeps unserved demand small in absolute terms.
        assert!(
            suspend.unserved_ratio < 0.005,
            "suspend unserved {:.4}%",
            suspend.unserved_ratio * 100.0
        );
        assert!(base.unserved_ratio <= suspend.unserved_ratio + 1e-9);
    }

    #[test]
    fn f4_t5_render() {
        let (f4, t5) = exp_f4_t5_sized(8, 32, 3);
        assert!(f4.contains("AlwaysOn"));
        assert!(f4.contains("Oracle"));
        assert!(t5.contains("PM-Suspend(S3)"));
        assert!(t5.contains("savings"));
    }

    #[test]
    fn t22_consolidation_beats_dvfs() {
        let t = exp_t22_sized(6, 36, 5);
        assert!(t.contains("DVFS-only"));
        // Structural check via a direct rerun at the same size.
        let scenario = Scenario::datacenter(6, 36, 5);
        let base = SimulationBuilder::new(
            Experiment::new(scenario.clone()).policy(PowerPolicy::always_on()),
        )
        .run_report()
        .unwrap();
        let dvfs = SimulationBuilder::new(Experiment::new(scenario.clone()))
            .dvfs_baseline(power::DvfsModel::typical_2013())
            .run_report()
            .expect("analytic baseline runs");
        let suspend = SimulationBuilder::new(
            Experiment::new(scenario).policy(PowerPolicy::reactive_suspend()),
        )
        .run_report()
        .unwrap();
        // DVFS saves something, consolidation saves much more: the idle
        // floor bounds what frequency scaling can reach.
        assert!(dvfs.energy_j < base.energy_j);
        assert!(
            suspend.energy_j < dvfs.energy_j,
            "consolidation {:.1} kWh should beat DVFS {:.1} kWh",
            suspend.energy_kwh(),
            dvfs.energy_kwh()
        );
    }

    #[test]
    fn t20_batch_absorbs_violations() {
        let t = exp_t20_sized(8, 48, 7);
        assert!(t.contains("interactive"));
        assert!(t.contains("batch"));
    }

    #[test]
    fn t19_replication_renders() {
        let t = exp_t19_sized(6, 24, &[1, 2]);
        assert!(t.contains("±"));
        assert!(t.contains("2 seeds"));
    }

    #[test]
    fn t9_renders_non_oracle_rows() {
        let t9 = exp_t9_sized(8, 32, 3);
        assert!(t9.contains("AlwaysOn"));
        assert!(t9.contains("PM-OffOn(S5)"));
        assert!(!t9.contains("Oracle"));
    }
}
