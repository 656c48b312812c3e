//! VM fleet generation: classes of VMs mixed by weight.

use std::sync::{Arc, Mutex};

use cluster::{Resources, ServiceClass, VmSpec};
use simcore::{pool, RngStream, SimDuration};

use crate::demand::sample_count;
use crate::{DemandProcess, DemandTrace, LifetimePlan};

/// VMs per trace-generation job in [`FleetSpec::generate`]. Fixed, not
/// derived from the core count, so the split never depends on the
/// machine.
const GEN_CHUNK: usize = 4096;

/// A class of VMs sharing a resource footprint and demand process.
///
/// Fleet generation de-synchronizes individual VMs of a class by jittering
/// the demand shape's phase and giving each VM its own noise stream.
#[derive(Debug, Clone, PartialEq)]
pub struct VmClass {
    name: String,
    resources: Resources,
    process: DemandProcess,
    weight: f64,
    /// Whether to randomize the shape phase per VM (true for interactive
    /// classes; false for stimulus shapes like steps that must stay
    /// aligned across the fleet).
    jitter_phase: bool,
    service_class: ServiceClass,
}

impl VmClass {
    /// Creates a class.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is negative or not finite.
    pub fn new(
        name: impl Into<String>,
        resources: Resources,
        process: DemandProcess,
        weight: f64,
    ) -> Self {
        assert!(weight.is_finite() && weight >= 0.0, "bad weight {weight}");
        VmClass {
            name: name.into(),
            resources,
            process,
            weight,
            jitter_phase: true,
            service_class: ServiceClass::Interactive,
        }
    }

    /// Marks this class as batch (throughput-oriented): its VMs absorb
    /// overload and disruption before interactive VMs do.
    pub fn batch(mut self) -> Self {
        self.service_class = ServiceClass::Batch;
        self
    }

    /// Disables per-VM phase jitter (for aligned stimuli such as the
    /// flash-crowd step in the responsiveness experiment).
    pub fn aligned(mut self) -> Self {
        self.jitter_phase = false;
        self
    }
}

/// A specification for generating a VM fleet.
///
/// # Example
///
/// ```
/// use cluster::Resources;
/// use simcore::SimDuration;
/// use workload::{DemandProcess, FleetSpec, Shape, VmClass};
///
/// let spec = FleetSpec::new(vec![VmClass::new(
///     "web",
///     Resources::new(2.0, 8.0),
///     DemandProcess::new(Shape::diurnal(0.4, 0.3)),
///     1.0,
/// )]);
/// let fleet = spec.generate(100, SimDuration::from_hours(24), SimDuration::from_mins(5), 42);
/// assert_eq!(fleet.vm_specs().len(), 100);
/// assert_eq!(fleet.traces().len(), 100);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    classes: Vec<VmClass>,
}

impl FleetSpec {
    /// Creates a spec from its classes.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is empty or all weights are zero.
    pub fn new(classes: Vec<VmClass>) -> Self {
        assert!(!classes.is_empty(), "fleet needs at least one class");
        assert!(
            classes.iter().any(|c| c.weight > 0.0),
            "at least one class needs positive weight"
        );
        FleetSpec { classes }
    }

    /// Generates `count` VMs with demand traces over `horizon` sampled at
    /// `step`, deterministically from `seed`.
    ///
    /// Classes are drawn in VM order from one stream; then VM `i`'s trace
    /// is drawn from its own substream `1 + i`, so each trace is a pure
    /// function of its index. The traces are generated on
    /// [`simcore::pool::run_indexed`] in fixed chunks of 4096 VMs and
    /// concatenated in index order: the fleet is bit-identical for any
    /// number of workers, and a fleet of at most one chunk is generated
    /// on the calling thread without starting a thread. One fan-out per
    /// scenario, with jobs of tens of milliseconds and no joins inside
    /// the run, is why this pays where sharding the simulation tick did
    /// not: on 2 vCPUs it cuts the 98 304-VM `diurnal-16k` set-up from
    /// 1.4–1.8 s to 0.9 s (DESIGN.md, "One thread per run").
    pub fn generate(
        &self,
        count: usize,
        horizon: SimDuration,
        step: SimDuration,
        seed: u64,
    ) -> Fleet {
        let root = RngStream::new(seed);
        let mut pick_rng = root.substream(0);
        let weights: Vec<f64> = self.classes.iter().map(|c| c.weight).collect();

        // Correlated-spike classes share one window set across all their
        // VMs (a flash crowd hits the whole service at once).
        let class_windows: Vec<Option<Vec<_>>> = self
            .classes
            .iter()
            .enumerate()
            .map(|(ci, class)| {
                class.process.spikes().filter(|s| s.correlated).map(|_| {
                    let mut class_rng = root.substream(1_000_000 + ci as u64);
                    class.process.draw_spike_windows(horizon, &mut class_rng)
                })
            })
            .collect();

        let class_of: Vec<usize> = (0..count)
            .map(|_| pick_rng.weighted_index(&weights))
            .collect();
        let vm_specs: Vec<VmSpec> = class_of
            .iter()
            .map(|&ci| {
                let class = &self.classes[ci];
                VmSpec::new(class.resources).with_class(class.service_class)
            })
            .collect();

        // Every buffer that outlives the fan-out (each VM's samples and
        // each chunk's trace list) is allocated here, in VM order, so it
        // sits in this thread's allocator arena where a serial loop would
        // put it; the pool only fills them.
        let n = if count == 0 {
            0
        } else {
            sample_count(horizon, step)
        };
        let chunk_range = |c: usize| c * GEN_CHUNK..((c + 1) * GEN_CHUNK).min(count);
        let jobs: Vec<_> = (0..count.div_ceil(GEN_CHUNK))
            .map(|c| {
                let vms = chunk_range(c);
                let samples: Vec<Vec<f64>> = vms.clone().map(|_| Vec::with_capacity(n)).collect();
                Mutex::new((samples, Vec::with_capacity(vms.len())))
            })
            .collect();
        let chunks = pool::run_indexed(jobs.len(), |c| {
            let (samples, mut traces) =
                std::mem::take(&mut *jobs[c].lock().expect("job slot poisoned"));
            traces.extend(chunk_range(c).zip(samples).map(|(i, samples)| {
                let ci = class_of[i];
                let class = &self.classes[ci];
                let mut vm_rng = root.substream(1 + i as u64);
                // Jitter each VM's phase by up to ±45 min of a 24 h cycle
                // so VMs de-synchronize without flattening the fleet-wide
                // swing.
                let process = if class.jitter_phase {
                    class.process.with_phase_jitter(vm_rng.uniform(-0.03, 0.03))
                } else {
                    class.process
                };
                let own_windows = match class_windows[ci] {
                    Some(_) => Vec::new(),
                    None => process.draw_spike_windows(horizon, &mut vm_rng),
                };
                let windows = class_windows[ci].as_deref().unwrap_or(&own_windows);
                process.fill_trace(step, n, &mut vm_rng, windows, samples)
            }));
            traces
        });
        let mut traces = Vec::with_capacity(count);
        for chunk in chunks {
            traces.extend(chunk);
        }

        Fleet {
            vm_specs,
            traces: traces.into(),
            class_of,
            class_names: self.classes.iter().map(|c| c.name.clone()).collect(),
            lifetimes: LifetimePlan::all_permanent(count),
        }
    }
}

/// A generated fleet: VM specs plus per-VM demand traces.
///
/// The traces are immutable once built and shared: cloning a fleet (or
/// a scenario holding one) copies a handle, not the samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Fleet {
    vm_specs: Vec<VmSpec>,
    traces: Arc<[DemandTrace]>,
    class_of: Vec<usize>,
    class_names: Vec<String>,
    lifetimes: LifetimePlan,
}

impl Fleet {
    /// Builds a fleet directly from specs and traces (for hand-crafted
    /// scenarios).
    ///
    /// # Panics
    ///
    /// Panics if the two vectors' lengths differ.
    pub fn from_parts(vm_specs: Vec<VmSpec>, traces: Vec<DemandTrace>) -> Self {
        assert_eq!(vm_specs.len(), traces.len(), "specs/traces length mismatch");
        let n = vm_specs.len();
        Fleet {
            vm_specs,
            traces: traces.into(),
            class_of: vec![0; n],
            class_names: vec!["custom".to_string()],
            lifetimes: LifetimePlan::all_permanent(n),
        }
    }

    /// Attaches a lifecycle plan (default: every VM permanent).
    ///
    /// # Panics
    ///
    /// Panics if the plan's length differs from the fleet's.
    pub fn with_lifetime_plan(mut self, plan: LifetimePlan) -> Self {
        assert_eq!(plan.len(), self.vm_specs.len(), "plan length mismatch");
        self.lifetimes = plan;
        self
    }

    /// The lifecycle plan.
    pub fn lifetimes(&self) -> &LifetimePlan {
        &self.lifetimes
    }

    /// The VM specifications, indexed by `VmId::index()`.
    pub fn vm_specs(&self) -> &[VmSpec] {
        &self.vm_specs
    }

    /// The demand traces, indexed by `VmId::index()`.
    pub fn traces(&self) -> &[DemandTrace] {
        &self.traces
    }

    /// A shared handle on the demand traces, for holders that outlive a
    /// borrow of the fleet.
    pub fn shared_traces(&self) -> Arc<[DemandTrace]> {
        Arc::clone(&self.traces)
    }

    /// Class name of VM `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn class_name(&self, i: usize) -> &str {
        &self.class_names[self.class_of[i]]
    }

    /// Number of VMs.
    pub fn len(&self) -> usize {
        self.vm_specs.len()
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.vm_specs.is_empty()
    }

    /// Aggregate demand in cores at trace sample `k` (each VM's demand
    /// fraction times its CPU cap).
    pub fn aggregate_demand_cores(&self, k: usize) -> f64 {
        self.vm_specs
            .iter()
            .zip(self.traces.iter())
            .map(|(spec, t)| t.sample(k.min(t.len() - 1)) * spec.cpu_cap_cores())
            .sum()
    }

    /// Sum of all VM CPU caps, in cores.
    pub fn total_cpu_cap_cores(&self) -> f64 {
        self.vm_specs.iter().map(|s| s.cpu_cap_cores()).sum()
    }

    /// Sum of all VM memory footprints, in GB.
    pub fn total_mem_gb(&self) -> f64 {
        self.vm_specs.iter().map(|s| s.mem_gb()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Shape;

    fn spec() -> FleetSpec {
        FleetSpec::new(vec![
            VmClass::new(
                "web",
                Resources::new(2.0, 8.0),
                DemandProcess::new(Shape::diurnal(0.4, 0.3)).with_noise(0.9, 0.05),
                0.7,
            ),
            VmClass::new(
                "batch",
                Resources::new(4.0, 16.0),
                DemandProcess::new(Shape::Square {
                    low: 0.05,
                    high: 0.8,
                    period: SimDuration::from_hours(24),
                    duty: 0.3,
                    phase: 0.5,
                }),
                0.3,
            ),
        ])
    }

    #[test]
    fn generation_is_deterministic() {
        let s = spec();
        let a = s.generate(50, SimDuration::from_hours(6), SimDuration::from_mins(5), 1);
        let b = s.generate(50, SimDuration::from_hours(6), SimDuration::from_mins(5), 1);
        assert_eq!(a, b);
        let c = s.generate(50, SimDuration::from_hours(6), SimDuration::from_mins(5), 2);
        assert_ne!(a, c);
    }

    #[test]
    fn class_mix_roughly_matches_weights() {
        let s = spec();
        let fleet = s.generate(
            1000,
            SimDuration::from_hours(1),
            SimDuration::from_mins(5),
            7,
        );
        let web = (0..fleet.len())
            .filter(|&i| fleet.class_name(i) == "web")
            .count();
        assert!((600..800).contains(&web), "web count {web}");
    }

    #[test]
    fn phases_are_jittered() {
        let s = FleetSpec::new(vec![VmClass::new(
            "web",
            Resources::new(2.0, 8.0),
            DemandProcess::new(Shape::diurnal(0.4, 0.3)),
            1.0,
        )]);
        let fleet = s.generate(
            10,
            SimDuration::from_hours(24),
            SimDuration::from_mins(30),
            3,
        );
        // Without jitter all traces would be identical; with it they differ.
        let first = &fleet.traces()[0];
        assert!(fleet.traces().iter().any(|t| t != first));
    }

    #[test]
    fn aligned_class_stays_synchronized() {
        let s = FleetSpec::new(vec![VmClass::new(
            "stimulus",
            Resources::new(1.0, 4.0),
            DemandProcess::new(Shape::Step {
                low: 0.2,
                high: 0.9,
                at: SimDuration::from_hours(1),
            }),
            1.0,
        )
        .aligned()]);
        let fleet = s.generate(5, SimDuration::from_hours(2), SimDuration::from_mins(5), 3);
        let first = &fleet.traces()[0];
        assert!(fleet.traces().iter().all(|t| t == first));
    }

    #[test]
    fn aggregates() {
        let s = spec();
        let fleet = s.generate(20, SimDuration::from_hours(1), SimDuration::from_mins(5), 9);
        assert!(fleet.total_cpu_cap_cores() >= 20.0 * 2.0);
        assert!(fleet.total_mem_gb() >= 20.0 * 8.0);
        let agg = fleet.aggregate_demand_cores(0);
        assert!(agg > 0.0 && agg <= fleet.total_cpu_cap_cores());
    }

    /// The fleet a serial VM-by-VM loop generates: classes drawn in
    /// order from `substream(0)`, then VM `i`'s trace from
    /// `substream(1 + i)`.
    fn serial_fleet(
        spec: &FleetSpec,
        count: usize,
        horizon: SimDuration,
        step: SimDuration,
        seed: u64,
    ) -> (Vec<VmSpec>, Vec<DemandTrace>, Vec<usize>) {
        let root = RngStream::new(seed);
        let mut pick_rng = root.substream(0);
        let weights: Vec<f64> = spec.classes.iter().map(|c| c.weight).collect();
        let (mut specs, mut traces, mut classes) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..count {
            let ci = pick_rng.weighted_index(&weights);
            let class = &spec.classes[ci];
            let mut vm_rng = root.substream(1 + i as u64);
            let process = if class.jitter_phase {
                class.process.with_phase_jitter(vm_rng.uniform(-0.03, 0.03))
            } else {
                class.process
            };
            let trace = match class.process.spikes().filter(|s| s.correlated) {
                Some(_) => {
                    let mut class_rng = root.substream(1_000_000 + ci as u64);
                    let windows = class.process.draw_spike_windows(horizon, &mut class_rng);
                    assert!(!windows.is_empty(), "the correlated path needs a spike");
                    process.generate_with_spike_windows(horizon, step, &mut vm_rng, &windows)
                }
                None => process.generate(horizon, step, &mut vm_rng),
            };
            specs.push(VmSpec::new(class.resources).with_class(class.service_class));
            traces.push(trace);
            classes.push(ci);
        }
        (specs, traces, classes)
    }

    #[test]
    fn generation_does_not_depend_on_chunking() {
        // Three full chunks and a partial fourth, so every chunk boundary
        // and the ragged tail are crossed.
        let count = 3 * GEN_CHUNK + 123;
        let (horizon, step) = (SimDuration::from_hours(24), SimDuration::from_hours(2));
        for (name, spec) in [
            ("enterprise_diurnal", crate::presets::enterprise_diurnal()),
            (
                "enterprise_with_spikes",
                crate::presets::enterprise_with_spikes(),
            ),
        ] {
            let fleet = spec.generate(count, horizon, step, 5);
            let (specs, traces, classes) = serial_fleet(&spec, count, horizon, step, 5);
            assert_eq!(fleet.vm_specs(), &specs[..], "{name}: specs");
            assert_eq!(fleet.class_of, classes, "{name}: classes");
            for (i, (got, want)) in fleet.traces().iter().zip(&traces).enumerate() {
                let (got, want) = (got.samples(), want.samples());
                assert!(
                    got.iter()
                        .map(|s| s.to_bits())
                        .eq(want.iter().map(|s| s.to_bits())),
                    "{name}: trace {i} differs"
                );
            }
            assert_eq!(fleet.traces().len(), count, "{name}: trace count");

            // A fleet within one chunk is the prefix of a larger one.
            let m = GEN_CHUNK - 1;
            let small = spec.generate(m, horizon, step, 5);
            assert_eq!(small.vm_specs(), &specs[..m], "{name}: prefix specs");
            assert_eq!(small.class_of, classes[..m], "{name}: prefix classes");
            assert_eq!(
                small.traces(),
                &fleet.traces()[..m],
                "{name}: prefix traces"
            );
        }
    }

    #[test]
    fn from_parts_round_trips() {
        let vms = vec![VmSpec::new(Resources::new(1.0, 2.0))];
        let traces = vec![DemandTrace::from_samples(
            SimDuration::from_mins(1),
            vec![0.5],
        )];
        let fleet = Fleet::from_parts(vms, traces);
        assert_eq!(fleet.len(), 1);
        assert_eq!(fleet.class_name(0), "custom");
    }
}
