//! Layer timers from outside the engine: replays of one day's demand
//! through the public `workload` and `cluster` APIs, so the two layers
//! under the engine's `demand` span get a cost per operation of their own.

use std::hint::black_box;
use std::time::{Duration, Instant};

use cluster::{Cluster, DemandOutcome, HostId, VmId};
use dcsim::Scenario;
use simcore::{SimDuration, SimTime};

/// The control-round instants of one simulated day: every demand step
/// from midnight to midnight inclusive (289 at a 5 min step).
fn ticks(scenario: &Scenario) -> impl Iterator<Item = SimTime> {
    let step = scenario.demand_step();
    let rounds = SimDuration::from_hours(24).as_millis() / step.as_millis() + 1;
    (0..rounds).map(move |k| SimTime::ZERO + step * k)
}

/// Nanoseconds per `DemandTrace::at` call, over every VM at every tick.
pub fn trace_at_ns(scenario: &Scenario) -> f64 {
    let traces = scenario.fleet().traces();
    let mut calls = 0u64;
    let mut sum = 0.0;
    let t0 = Instant::now();
    for now in ticks(scenario) {
        for trace in traces {
            sum += black_box(trace).at(now);
        }
        calls += traces.len() as u64;
    }
    let elapsed = t0.elapsed();
    black_box(sum);
    per_op_ns(elapsed, calls)
}

/// Nanoseconds per host of `Cluster::apply_demand_into`, replayed over
/// the same day's demand on a fresh cluster placed round-robin, as the
/// engine places it. Computing each tick's demand vector is not timed.
pub fn apply_demand_ns_per_host(scenario: &Scenario) -> f64 {
    let fleet = scenario.fleet();
    let lifetimes = fleet.lifetimes().lifetimes();
    let mut cluster = Cluster::new(
        scenario.host_specs().to_vec(),
        fleet.vm_specs().to_vec(),
        SimTime::ZERO,
    );
    let hosts = cluster.num_hosts();
    let mut cursor = 0usize;
    for (i, life) in lifetimes.iter().enumerate() {
        if !life.is_active(SimTime::ZERO) {
            continue;
        }
        if let Some(k) = (0..hosts).find(|k| {
            cluster
                .place(VmId(i as u32), HostId(((cursor + k) % hosts) as u32))
                .is_ok()
        }) {
            cursor = (cursor + k + 1) % hosts;
        }
    }
    let caps: Vec<f64> = fleet.vm_specs().iter().map(|s| s.cpu_cap_cores()).collect();
    let mut demand = vec![0.0; caps.len()];
    let mut outcome = DemandOutcome::default();
    let mut busy = Duration::ZERO;
    let mut host_ticks = 0u64;
    for now in ticks(scenario) {
        for (i, (slot, trace)) in demand.iter_mut().zip(fleet.traces()).enumerate() {
            *slot = if lifetimes[i].is_active(now) {
                trace.at(now) * caps[i]
            } else {
                0.0
            };
        }
        let t0 = Instant::now();
        cluster.apply_demand_into(now, black_box(&demand), &mut outcome);
        busy += t0.elapsed();
        black_box(&outcome);
        host_ticks += hosts as u64;
    }
    per_op_ns(busy, host_ticks)
}

fn per_op_ns(elapsed: Duration, ops: u64) -> f64 {
    elapsed.as_secs_f64() * 1e9 / ops.max(1) as f64
}
