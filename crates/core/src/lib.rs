//! The paper's contribution: agile, power-aware virtualization management.
//!
//! This crate implements the end-to-end management solution of
//! *"Agile, efficient virtualization power management with low-latency
//! server power states"* (ISCA'13): a distributed-resource-management
//! (DRM) load balancer extended with a power manager that consolidates
//! VMs during demand troughs and parks the evacuated hosts in a low-power
//! state — the **low-latency suspend-to-RAM (S3-class) state** the paper
//! prototypes, or the traditional off (S5-class) state it compares
//! against.
//!
//! The pieces:
//!
//! * [`VirtManager`] — the control loop body. Built once from the
//!   fleet's host and VM specs, each management round it receives a
//!   [`ClusterObservation`] of what changed and emits
//!   [`ManagementAction`]s.
//! * [`PowerPolicy`] — `AlwaysOn` (base DRM, no power management),
//!   `Reactive` with a [`power::breakeven::LowPowerMode`]
//!   (suspend vs. full off), or `Oracle` (analytic proportional bound,
//!   evaluated by the simulator without a manager).
//! * [`ManagerConfig`] — thresholds, headroom, hysteresis, prediction —
//!   every knob the paper's sensitivity studies sweep.
//! * [`PredictorConfig`] — per-VM demand prediction (last-value / EWMA /
//!   windowed max), kept as one column for the fleet and stepped once
//!   per round.
//! * [`HysteresisGate`] — minimum-residency timers that keep the manager
//!   from flapping hosts between power states.
//! * [`ControlPlane`] — N replicas of one manager over fixed host
//!   partitions with stale views, a control-loop latency and a
//!   conflict-checked commit point; it keeps only the actions each
//!   replica owns and counts them, once, as the run's planner counts.
//!
//! # Example
//!
//! ```
//! use agile_core::{ManagerConfig, PowerPolicy, VirtManager};
//! use cluster::{HostSpec, Resources, VmSpec};
//! use power::HostPowerProfile;
//!
//! // The inventory: 16 rack hosts and 64 VMs, given once.
//! let host = HostSpec::new(Resources::new(16.0, 64.0), HostPowerProfile::prototype_rack());
//! let vm = VmSpec::new(Resources::new(2.0, 8.0));
//! let config = ManagerConfig::new(PowerPolicy::reactive_suspend());
//! let manager = VirtManager::new(config, &vec![host; 16], &[vm; 64])?;
//! assert!(manager.last_decision().is_none());
//! # Ok::<(), agile_core::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod action;
mod config;
mod consolidate;
mod control;
mod decision;
mod drm;
mod hysteresis;
mod index;
mod manager;
mod observation;
mod placement;
mod plan;
mod predict;
mod prewake;
mod recovery;
mod work;

pub use action::{ActionReason, ManagementAction};
pub use config::{ConfigError, ManagerConfig, PackingPolicy, PowerPolicy};
pub use control::ControlPlane;
pub use decision::{DecisionActions, DecisionRecord, DecisionTrigger};
pub use hysteresis::HysteresisGate;
pub use index::PlanMode;
pub use manager::{PlanError, VirtManager};
pub use observation::{ClusterObservation, HostObservation, VmColumns, VmObservation};
pub use placement::{ConflictReason, PlacementFacts};
pub use predict::PredictorConfig;
pub use prewake::DayProfile;
pub use recovery::{RecoveryConfig, RecoveryStats, RecoveryTracker};
