//! Experiment T27: distributed control-plane degradation frontier.
//!
//! The tentpole question: what do N concurrent schedulers over the
//! conflict-checked placement store cost, as their views go stale?
//! The grid crosses scheduler count × view staleness at datacenter
//! scale and reports savings, unserved demand, and the measured commit
//! conflict rate for every cell. The `schedulers = 1, staleness = 0`
//! cell is the default single-planner run every other experiment uses;
//! the header quotes its energy and savings.

use agile_core::PowerPolicy;
use dcsim::report::table;
use dcsim::{Experiment, Scenario, SimReport, SimulationBuilder};

use crate::SEED;

/// Scheduler counts of the T27 grid.
const SCHEDULER_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// View-staleness settings (control rounds behind cluster ground truth).
const STALENESS_ROUNDS: [usize; 3] = [0, 1, 2];

/// Experiment T27 at the scale-out size (4096 hosts / 24576 VMs).
pub fn exp_t27() -> String {
    exp_t27_sized(4096, SEED)
}

/// Size-parameterized variant. All grid cells plus the always-on
/// baseline go through one worker-pool batch.
pub fn exp_t27_sized(hosts: usize, seed: u64) -> String {
    let vms = hosts * 6;
    let scenario = Scenario::datacenter(hosts, vms, seed);
    let grid: Vec<(usize, usize)> = SCHEDULER_COUNTS
        .iter()
        .flat_map(|&n| STALENESS_ROUNDS.iter().map(move |&s| (n, s)))
        .collect();
    // Job 0 is the always-on baseline; the rest is the grid in row order.
    let reports: Vec<SimReport> = simcore::pool::run_indexed(1 + grid.len(), |i| {
        let experiment = Experiment::new(scenario.clone());
        let builder = if i == 0 {
            SimulationBuilder::new(experiment.policy(PowerPolicy::always_on()))
        } else {
            let (schedulers, staleness) = grid[i - 1];
            SimulationBuilder::new(experiment.policy(PowerPolicy::reactive_suspend()))
                .schedulers(schedulers)
                .view_staleness(staleness)
        };
        builder.run_report().expect("T27 run failed")
    });
    let base = &reports[0];
    let single = &reports[1];

    let rows: Vec<Vec<String>> = grid
        .iter()
        .zip(&reports[1..])
        .map(|(&(schedulers, staleness), r)| {
            let c = |name: &str| r.metrics.counter(name);
            let planned = c("work.commit.planned");
            let dropped = c("work.commit.dropped_unowned");
            let rejected = c("work.commit.rejected");
            // Conflict rate over *owned* commit attempts: actions a
            // scheduler planned for its own partition that the store
            // then refused. Dropped actions never reached arbitration.
            let owned = planned - dropped;
            let conflict = if owned > 0 {
                rejected as f64 / owned as f64
            } else {
                0.0
            };
            vec![
                format!("{schedulers}"),
                format!("{staleness}"),
                format!("{:.0}", r.energy_kwh()),
                format!("{:.1}%", r.savings_vs(base) * 100.0),
                format!("{:.3}%", r.unserved_ratio * 100.0),
                format!("{}", c("work.commit.accepted")),
                format!("{rejected}"),
                format!("{:.2}%", conflict * 100.0),
            ]
        })
        .collect();
    format!(
        "Distributed control plane at {hosts} hosts / {vms} VMs (24 h diurnal, seed {seed}),\n\
         commit latency 0 rounds; the schedulers=1 staleness=0 cell is the default\n\
         single planner (always-on {:.0} kWh, PM {:.0} kWh, {:.1}% savings):\n{}",
        base.energy_kwh(),
        single.energy_kwh(),
        single.savings_vs(base) * 100.0,
        table(
            &[
                "schedulers",
                "staleness",
                "PM kWh",
                "savings",
                "unserved",
                "accepted",
                "conflicts",
                "conflict rate"
            ],
            &rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t27_reports_every_grid_cell() {
        let t = exp_t27_sized(8, 3);
        assert!(t.contains("single planner"));
        assert!(t.contains("conflict rate"));
        let rows: Vec<&str> = t
            .lines()
            .skip_while(|l| !l.starts_with("-"))
            .skip(1)
            .collect();
        assert_eq!(rows.len(), SCHEDULER_COUNTS.len() * STALENESS_ROUNDS.len());
    }
}
