//! # agilepm — facade crate
//!
//! Rust reproduction of *“Agile, efficient virtualization power management
//! with low-latency server power states”* (Isci et al., ISCA 2013).
//!
//! This crate re-exports the whole workspace behind one dependency so
//! examples, integration tests, and downstream users can write
//! `use agilepm::...` without tracking the internal crate layout:
//!
//! * [`simcore`] — discrete-event engine, clock, RNG, statistics.
//! * [`power`] — server power states, transition tables, power curves,
//!   energy accounting, break-even analysis.
//! * [`cluster`] — hosts, VMs, placement, live migration.
//! * [`workload`] — demand models, traces, fleet generation.
//! * [`core`] (crate `agile-core`) — the paper's contribution: the
//!   power-aware virtualization manager and its policy suite.
//! * [`sim`] (crate `dcsim`) — the end-to-end datacenter simulator,
//!   metrics, and experiment runners.
//! * [`obs`] — the telemetry substrate: streaming trace sinks, the
//!   metrics registry, wall-clock phase profiling, and the
//!   dependency-free JSON used throughout.
//!
//! # Quickstart
//!
//! An [`sim::Experiment`] describes *what* to simulate; the
//! [`sim::SimulationBuilder`] decides *how* to run it (profiling, cluster
//! capture) and validates the whole configuration before anything
//! executes:
//!
//! ```
//! use agilepm::sim::{Experiment, Scenario, SimulationBuilder};
//! use agilepm::core::PowerPolicy;
//! use agilepm::simcore::SimDuration;
//!
//! let scenario = Scenario::small_test(42);
//! let report = SimulationBuilder::new(
//!     Experiment::new(scenario)
//!         .policy(PowerPolicy::reactive_suspend())
//!         .horizon(SimDuration::from_hours(2)),
//! )
//! .run_report()
//! .expect("simulation runs");
//! assert!(report.energy_kwh() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use agile_core as core;
pub use cluster;
pub use dcsim as sim;
pub use obs;
pub use power;
pub use simcore;
pub use workload;

/// One-line import for the common workflow:
/// `use agilepm::prelude::*;`
pub mod prelude {
    pub use agile_core::{ManagerConfig, PowerPolicy, PredictorConfig, VirtManager};
    pub use cluster::{HostId, HostSpec, Resources, ServiceClass, VmId, VmSpec};
    pub use dcsim::{
        replicate, Experiment, FailureModel, Scenario, SimOutput, SimReport, Simulation,
        SimulationBuilder,
    };
    pub use power::{HostPowerProfile, PowerCurve, PowerState};
    pub use simcore::{RngStream, SimDuration, SimTime};
    pub use workload::{presets, DemandProcess, FleetSpec, Shape, VmClass};
}
