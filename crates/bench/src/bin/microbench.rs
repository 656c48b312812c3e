//! Hot-path micro-benchmarks for the scale-out work.
//!
//! Each case isolates one optimized mechanism; `scaleout` measures the
//! composed effect. Run with `cargo run --release -p bench --bin
//! microbench`. Numbers are best-of-N per [`bench::microbench::time`].

use agile_core::PowerPolicy;
use cluster::AccountingMode;
use dcsim::{Experiment, Scenario, SimulationBuilder};
use obs::SpanTracer;
use workload::DemandTrace;

fn main() {
    // The composed steady-state loop: a full simulated day at 64 hosts,
    // incremental accounting vs the O(hosts × VMs) scan reference.
    let scenario = Scenario::datacenter(64, 384, bench::SEED);
    bench::microbench::time("sim_day_64hosts_incremental", 1, 5, || {
        SimulationBuilder::new(
            Experiment::new(scenario.clone()).policy(PowerPolicy::reactive_suspend()),
        )
        .run_report()
        .expect("sim run failed")
    });
    bench::microbench::time("sim_day_64hosts_scan_reference", 1, 5, || {
        SimulationBuilder::new(
            Experiment::new(scenario.clone())
                .policy(PowerPolicy::reactive_suspend())
                .accounting(AccountingMode::Scan),
        )
        .run_report()
        .expect("sim run failed")
    });

    // Span-tracer overhead: the tick loop calls enter/exit
    // unconditionally, so the disabled path must stay within noise of
    // the enabled one (which does strictly more work — recording). The
    // factor is generous because CI machines are shared and noisy.
    let off = bench::microbench::time("sim_day_64hosts_tracer_off", 1, 5, || {
        SimulationBuilder::new(
            Experiment::new(scenario.clone()).policy(PowerPolicy::reactive_suspend()),
        )
        .profiling(false)
        .run_report()
        .expect("sim run failed")
    });
    let on = bench::microbench::time("sim_day_64hosts_tracer_on", 1, 5, || {
        SimulationBuilder::new(
            Experiment::new(scenario.clone()).policy(PowerPolicy::reactive_suspend()),
        )
        .profiling(true)
        .run_report()
        .expect("sim run failed")
    });
    assert!(
        off.best.as_secs_f64() <= on.best.as_secs_f64() * 1.25 + 0.05,
        "tracer-disabled run slower than tracer-enabled: {:?} vs {:?}",
        off.best,
        on.best
    );

    // The raw disabled enter/exit pair: an early-return no-op that never
    // touches the tracer's arena or event ring — node_count and
    // event_count staying at zero is the allocation-free evidence (the
    // arena and ring are the only growable state the hot path can
    // reach).
    let mut disabled = SpanTracer::new();
    let tick = disabled.name("tick");
    bench::microbench::time("span_enter_exit_disabled_100k", 8, 64, || {
        for _ in 0..100_000 {
            disabled.enter(tick);
            disabled.exit(tick);
        }
    });
    assert_eq!(
        disabled.node_count(),
        1, // just the preallocated root
        "disabled tracer touched its arena"
    );
    assert_eq!(disabled.event_count(), 0, "disabled tracer recorded events");
    let mut enabled = SpanTracer::enabled();
    let tick = enabled.name("tick");
    bench::microbench::time("span_enter_exit_enabled_100k", 8, 64, || {
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
    let horizon = simcore::SimTime::ZERO + step * dense.len() as u64;
    bench::microbench::time("trace_at_dense_2016", 8, 64, || {
        let mut acc = 0.0;
        let mut t = simcore::SimTime::ZERO;
        while t < horizon {
            acc += dense.at(t);
            t += step;
        }
        acc
    });
}
