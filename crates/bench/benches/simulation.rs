//! End-to-end simulation throughput (a full 24 h diurnal day, with and
//! without the span tracer) and the hot paths inside it: span
//! enter/exit and trace reads. `scaleout` measures the same day at
//! fleet scale.

use std::hint::black_box;

use agile_core::PowerPolicy;
use bench::microbench::time;
use dcsim::{Experiment, Scenario, SimulationBuilder};
use obs::SpanTracer;
use simcore::SimTime;
use workload::DemandTrace;

/// One reactive-suspend day of `scenario`; returns its energy.
fn day(scenario: &Scenario, profiling: bool) -> f64 {
    SimulationBuilder::new(
        Experiment::new(scenario.clone()).policy(PowerPolicy::reactive_suspend()),
    )
    .profiling(profiling)
    .run_report()
    .expect("scenario runs")
    .energy_j
}

fn main() {
    let small = Scenario::datacenter(16, 64, 42);
    time("sim_24h_16_hosts_suspend", 1, 5, || day(&small, false));
    let scenario = Scenario::datacenter(64, 256, 42);
    let off = time("sim_24h_64_hosts_suspend", 1, 5, || day(&scenario, false));

    // Span-tracer overhead: the tick loop calls enter/exit
    // unconditionally, so the disabled path must stay within noise of
    // the enabled one (which does strictly more work — recording). The
    // factor is generous because CI machines are shared and noisy.
    let on = time("sim_24h_64_hosts_suspend_tracer_on", 1, 5, || {
        day(&scenario, true)
    });
    assert!(
        off.best.as_secs_f64() <= on.best.as_secs_f64() * 1.25 + 0.05,
        "tracer-disabled run slower than tracer-enabled: {:?} vs {:?}",
        off.best,
        on.best
    );

    // The raw enter/exit pair. Disabled, it is an early-return no-op
    // (obs's own tests check that it never touches the arena). The
    // tracer and the name pass through `black_box` on every pair, or the
    // compiler folds the whole disabled loop away.
    let mut disabled = SpanTracer::new();
    let tick = disabled.name("tick");
    time("span_enter_exit_disabled_100k", 8, 64, || {
        for _ in 0..100_000 {
            let (tracer, name) = (black_box(&mut disabled), black_box(tick));
            tracer.enter(name);
            tracer.exit(name);
        }
    });
    let mut enabled = SpanTracer::enabled();
    let tick = enabled.name("tick");
    time("span_enter_exit_enabled_100k", 8, 64, || {
        for _ in 0..100_000 {
            enabled.enter(tick);
            enabled.exit(tick);
        }
    });
    assert!(enabled.node_count() > 1, "enabled tracer must record");

    // Trace reads: one week of samples at the demand step.
    let step = scenario.demand_step();
    let samples: Vec<f64> = (0..2016) // one week at 5-min steps
        .map(|k| 0.5 + 0.4 * (k as f64 / 32.0).sin())
        .collect();
    let dense = DemandTrace::from_samples(step, samples);
    let horizon = SimTime::ZERO + step * dense.len() as u64;
    time("trace_at_dense_2016", 8, 64, || {
        let mut acc = 0.0;
        let mut t = SimTime::ZERO;
        while t < horizon {
            acc += dense.at(t);
            t += step;
        }
        acc
    });
}
