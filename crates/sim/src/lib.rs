//! End-to-end datacenter simulator for the `agilepm` workspace.
//!
//! This crate is the scale-out evaluation methodology of the ISCA'13
//! paper, rebuilt: it couples the [`workload`] demand traces, the
//! [`cluster`] virtualization substrate, the [`power`] host models, and
//! the [`agile_core`] manager into a discrete-event simulation, and
//! distills each run into a [`SimReport`] with the metrics the paper's
//! tables and figures report (energy, violations, migration and
//! power-action rates, power-over-time traces).
//!
//! * [`Scenario`] — a reproducible world: host fleet + VM fleet + seed.
//! * [`Experiment`] — scenario × policy × horizon (*what* to simulate).
//! * [`SimulationBuilder`] — the single entry point that validates and
//!   runs an experiment (*how*: profiling, cluster capture, analytic
//!   DVFS mode) and produces a [`SimOutput`].
//! * [`sweeps::SweepBuilder`] — the one sweep engine: axis values ×
//!   legs × replication seeds, executed through the bounded worker pool
//!   (wake latency, load proportionality, headroom, scale-out, ...).
//! * [`report`] — plain-text table/series formatting shared by the bench
//!   binaries.
//!
//! # Example
//!
//! ```
//! use agile_core::PowerPolicy;
//! use dcsim::{Experiment, Scenario, SimulationBuilder};
//! use simcore::SimDuration;
//!
//! let experiment = Experiment::new(Scenario::small_test(42))
//!     .policy(PowerPolicy::reactive_suspend())
//!     .horizon(SimDuration::from_hours(2));
//! let out = SimulationBuilder::new(experiment).build()?.run()?;
//! assert!(out.report.energy_kwh() > 0.0);
//! # Ok::<(), dcsim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod demand;
mod engine;
mod error;
pub mod events;
mod failure;
mod metrics;
mod replication;
pub mod report;
mod runner;
mod scenario;
pub mod sweeps;
mod trace;

pub use builder::{SimOutput, Simulation, SimulationBuilder};
pub use error::SimError;
pub use events::{EventKind, EventRecord};
pub use failure::FailureModel;
pub use metrics::SimReport;
pub use replication::{replicate, MetricStats, ReplicationSummary};
pub use runner::Experiment;
pub use scenario::Scenario;
pub use sweeps::{SweepBuilder, SweepRow};
