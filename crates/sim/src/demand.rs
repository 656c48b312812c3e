//! The fleet's CPU demand at each control tick, evaluated a window of
//! ticks ahead.
//!
//! Every consumer of "VM `i`'s demand at tick `t`" — the engine's demand
//! update and the analytic Oracle and DVFS baselines — reads it here, so
//! they share one definition: the VM's trace at `t` times its CPU cap
//! while its lifetime is active, zero outside it.
//!
//! Reading each VM's trace once per tick touches a different heap
//! allocation per VM per tick. The window instead evaluates
//! [`WINDOW`] ticks at a time, walking each VM's samples in order, and
//! stores the values tick-major, so each tick reads one contiguous row.

use std::sync::Arc;

use simcore::{SimDuration, SimTime};
use workload::{DemandTrace, Fleet, Lifetime};

/// Control ticks evaluated per refill. A constant: the values do not
/// depend on it, only the refill cadence and the buffer size
/// (`WINDOW × VMs` values) do.
pub(crate) const WINDOW: usize = 32;

/// Per-VM demand rows for a window of control ticks at
/// `k × interval`, `k ∈ [first, first + held)`.
#[derive(Debug)]
pub(crate) struct DemandWindow {
    traces: Arc<[DemandTrace]>,
    lifetimes: Vec<Lifetime>,
    caps: Vec<f64>,
    interval: SimDuration,
    /// Ticks in the run: `0 ..= horizon / interval`.
    ticks: usize,
    /// First tick held in `rows`.
    first: usize,
    /// Ticks held in `rows` (zero before the first refill).
    held: usize,
    /// `rows[k * vms + i]` is VM `i`'s demand at tick `first + k`.
    rows: Vec<f64>,
}

impl DemandWindow {
    /// A window over `fleet`'s shared traces for ticks every `interval`
    /// up to and including `horizon`.
    pub(crate) fn new(fleet: &Fleet, interval: SimDuration, horizon: SimDuration) -> Self {
        DemandWindow {
            traces: fleet.shared_traces(),
            lifetimes: fleet.lifetimes().lifetimes().to_vec(),
            caps: fleet.vm_specs().iter().map(|s| s.cpu_cap_cores()).collect(),
            interval,
            ticks: (horizon.as_millis() / interval.as_millis()) as usize + 1,
            first: 0,
            held: 0,
            rows: Vec::new(),
        }
    }

    /// Every VM's demand at the tick instant `now`, refilling the window
    /// when `now` falls outside it.
    ///
    /// # Panics
    ///
    /// Panics if `now` is not a control tick of the run: a multiple of
    /// the control interval no later than the horizon.
    pub(crate) fn row(&mut self, now: SimTime) -> &[f64] {
        let step = self.interval.as_millis();
        assert_eq!(now.as_millis() % step, 0, "{now} is not a control tick");
        let k = (now.as_millis() / step) as usize;
        assert!(k < self.ticks, "{now} is past the horizon");
        if !(self.first..self.first + self.held).contains(&k) {
            self.refill(k);
        }
        let vms = self.caps.len();
        let at = (k - self.first) * vms;
        &self.rows[at..at + vms]
    }

    /// Evaluates ticks `first ..` (up to [`WINDOW`], clipped to the run)
    /// for every VM, walking each VM's samples through every held tick
    /// and writing its column of each row.
    fn refill(&mut self, first: usize) {
        let vms = self.caps.len();
        self.first = first;
        self.held = WINDOW.min(self.ticks - first);
        self.rows.resize(self.held * vms, 0.0);
        for i in 0..vms {
            for k in 0..self.held {
                let t = SimTime::ZERO + self.interval * (first + k) as u64;
                self.rows[k * vms + i] =
                    demand_at(&self.traces[i], self.lifetimes[i], self.caps[i], t);
            }
        }
    }
}

/// One VM's CPU demand at `t`: its trace times its cap while its
/// lifetime is active, zero outside it.
fn demand_at(trace: &DemandTrace, life: Lifetime, cap: f64, t: SimTime) -> f64 {
    if life.is_active(t) {
        trace.at(t) * cap
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use check::gen::{boolean, f64_in, f64_unit, i64_in, one_of, u64_in, vec_of};
    use check::{prop_assert, prop_assert_eq, Gen};
    use cluster::{Resources, VmSpec};
    use workload::LifetimePlan;

    /// One generated VM. Lifetime bounds are tick indices plus a
    /// millisecond jitter, so they land on, just before and just after
    /// control ticks.
    #[derive(Debug, Clone)]
    struct VmCase {
        step_secs: u64,
        samples: Vec<f64>,
        cap: f64,
        arrive: (u64, i64),
        stay: Option<(u64, i64)>,
    }

    #[derive(Debug, Clone)]
    struct Case {
        interval_secs: u64,
        ticks: u64,
        slack_ms: u64,
        vms: Vec<VmCase>,
    }

    /// `tick × interval + jitter`, floored at zero.
    fn instant(interval: SimDuration, (tick, jitter): (u64, i64)) -> SimTime {
        let ms = (interval * tick).as_millis();
        SimTime::from_millis(ms.saturating_add_signed(jitter))
    }

    impl Case {
        fn fleet(&self) -> Fleet {
            let interval = SimDuration::from_secs(self.interval_secs);
            let specs = self
                .vms
                .iter()
                .map(|vm| VmSpec::new(Resources::new(vm.cap, 1.0)))
                .collect();
            let traces = self
                .vms
                .iter()
                .map(|vm| {
                    DemandTrace::from_samples(
                        SimDuration::from_secs(vm.step_secs),
                        vm.samples.clone(),
                    )
                })
                .collect();
            let lifetimes = self
                .vms
                .iter()
                .map(|vm| {
                    let arrival = instant(interval, vm.arrive);
                    Lifetime {
                        arrival,
                        departure: vm.stay.map(|(ticks, jitter)| {
                            let at = instant(interval, (vm.arrive.0 + ticks, jitter));
                            at.max(arrival)
                        }),
                    }
                })
                .collect();
            Fleet::from_parts(specs, traces)
                .with_lifetime_plan(LifetimePlan::from_lifetimes(lifetimes))
        }
    }

    fn case() -> Gen<Case> {
        let window = WINDOW as u64;
        let bound = (u64_in(0..=3 * window + 2), i64_in(-1..=1));
        let stay = boolean().zip(&u64_in(0..=window + 2).zip(&i64_in(-1..=1)));
        let vm = one_of(vec![300, 60, 120])
            .zip(&vec_of(&f64_unit(), 1..=3 * WINDOW))
            .zip(&f64_in(0.25, 4.0))
            .zip(&bound.0.zip(&bound.1))
            .zip(&stay)
            .map(
                |((((step_secs, samples), cap), arrive), (departs, stay))| VmCase {
                    step_secs,
                    samples,
                    cap,
                    arrive,
                    stay: departs.then_some(stay),
                },
            );
        // Intervals shorter and longer than every trace step.
        one_of(vec![300, 7, 60, 450, 900])
            .zip(&u64_in(1..=3 * window + 5))
            .zip(&u64_in(0..=u64::MAX))
            .zip(&vec_of(&vm, 0..=9))
            .map(|(((interval_secs, ticks), slack), vms)| Case {
                interval_secs,
                ticks,
                // A horizon between tick instants, never on a multiple of
                // the window.
                slack_ms: slack % (interval_secs * 1000),
                vms,
            })
    }

    #[test]
    fn every_row_equals_the_naive_demand_at_its_tick() {
        check::check("demand window == naive per-VM demand", &case(), |case| {
            let fleet = case.fleet();
            let interval = SimDuration::from_secs(case.interval_secs);
            let horizon = interval * (case.ticks - 1) + SimDuration::from_millis(case.slack_ms);
            let (traces, lifetimes) = (fleet.traces(), fleet.lifetimes().lifetimes());
            let mut window = DemandWindow::new(&fleet, interval, horizon);
            for k in 0..case.ticks {
                let t = SimTime::ZERO + interval * k;
                let row = window.row(t);
                prop_assert_eq!(row.len(), fleet.len());
                for (i, &got) in row.iter().enumerate() {
                    let cap = fleet.vm_specs()[i].cpu_cap_cores();
                    let want = if lifetimes[i].is_active(t) {
                        traces[i].at(t) * cap
                    } else {
                        0.0
                    };
                    prop_assert!(
                        got.to_bits() == want.to_bits(),
                        "vm {i} at tick {k}: {got} != {want}"
                    );
                }
            }
            Ok(())
        });
    }
}
