//! Telemetry end-to-end: trace streaming, metrics snapshots, and the
//! observe-only guarantee (telemetry must never change simulation
//! results).

use agile_core::PowerPolicy;
use dcsim::{Experiment, Scenario, SimReport, SimulationBuilder};
use obs::Json;
use simcore::SimDuration;
use std::path::PathBuf;

fn experiment(seed: u64) -> Experiment {
    Experiment::new(Scenario::datacenter(6, 24, seed))
        .policy(PowerPolicy::reactive_suspend())
        .horizon(SimDuration::from_hours(8))
}

fn temp_trace(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("agilepm-{tag}-{}.jsonl", std::process::id()))
}

#[test]
fn jsonl_trace_streams_parseable_records() {
    let path = temp_trace("stream");
    let with_trace = SimulationBuilder::new(experiment(21).trace_path(&path))
        .run_report()
        .unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);

    let mut kinds = std::collections::BTreeSet::new();
    let mut lines = 0u64;
    for line in text.lines() {
        let record = Json::parse(line).expect("every line is one valid JSON document");
        kinds.insert(
            record
                .get("record")
                .and_then(Json::as_str)
                .expect("every record carries a discriminator")
                .to_string(),
        );
        lines += 1;
    }
    assert!(lines > 0);
    // The acceptance set: power transitions, migrations, and manager
    // decisions all flow through the trace.
    for want in [
        "power-transition",
        "migration",
        "manager-decision",
        "run-summary",
    ] {
        assert!(kinds.contains(want), "missing {want} in {kinds:?}");
    }
    // A power-managing run on a diurnal day must have cycled something.
    assert!(with_trace.power_downs > 0);
}

#[test]
fn trace_sink_choice_does_not_change_the_report() {
    let baseline = SimulationBuilder::new(experiment(22)).run_report().unwrap();
    let path = temp_trace("determinism");
    let traced = SimulationBuilder::new(experiment(22).trace_path(&path))
        .run_report()
        .unwrap();
    let _ = std::fs::remove_file(&path);
    // Bit-identical: telemetry observes, never steers.
    assert_eq!(baseline, traced);
}

#[test]
fn metrics_snapshot_matches_report_counters() {
    let report = SimulationBuilder::new(experiment(23)).run_report().unwrap();
    let m = &report.metrics;
    assert_eq!(
        m.counter("sim.power.ups") + m.counter("sim.power.downs"),
        report.power_ups + report.power_downs
    );
    assert!(m.counter("sim.rounds") > 0);
    // Residency histograms cover the whole horizon for every host: the
    // per-host residency totals sum to hosts x horizon.
    let total_secs: f64 = [
        "on",
        "suspended",
        "off",
        "suspending",
        "resuming",
        "shuttingdown",
        "booting",
    ]
    .iter()
    .map(|s| match m.get(&format!("power.residency_secs.{s}")) {
        Some(obs::MetricValue::Histogram(h)) => h.sum(),
        _ => 0.0,
    })
    .sum();
    let want = report.num_hosts as f64 * report.horizon.as_secs_f64();
    assert!(
        (total_secs - want).abs() < 1.0,
        "residency {total_secs} != hosts*horizon {want}"
    );
}

#[test]
fn report_json_round_trips() {
    let report = SimulationBuilder::new(experiment(24).record_events())
        .run_report()
        .unwrap();
    assert!(!report.events.is_empty());
    let json = report.to_json();
    let reparsed = SimReport::from_json(&Json::parse(&json.to_string_compact()).unwrap()).unwrap();
    assert_eq!(reparsed, report);
}
