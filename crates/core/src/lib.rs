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
//! * [`VirtManager`] — the control loop body. Each management round it
//!   receives a [`ClusterObservation`] and emits [`ManagementAction`]s.
//! * [`PowerPolicy`] — `AlwaysOn` (base DRM, no power management),
//!   `Reactive` with a [`power::breakeven::LowPowerMode`]
//!   (suspend vs. full off), or `Oracle` (analytic proportional bound,
//!   evaluated by the simulator without a manager).
//! * [`ManagerConfig`] — thresholds, headroom, hysteresis, prediction —
//!   every knob the paper's sensitivity studies sweep.
//! * [`Predictor`] — per-VM demand prediction (last-value / EWMA /
//!   windowed max).
//! * [`HysteresisGate`] — minimum-residency timers that keep the manager
//!   from flapping hosts between power states.
//!
//! # Example
//!
//! ```
//! use agile_core::{ManagerConfig, PowerPolicy, VirtManager};
//!
//! let config = ManagerConfig::new(PowerPolicy::reactive_suspend());
//! let manager = VirtManager::new(config, 16, 64)?;
//! assert_eq!(manager.config().policy(), &PowerPolicy::reactive_suspend());
//! # Ok::<(), agile_core::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod action;
mod config;
mod consolidate;
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
pub mod schedview;
mod work;

pub use action::{ActionReason, ManagementAction};
pub use config::{ConfigError, ManagerConfig, PackingPolicy, PowerPolicy};
pub use decision::{DecisionActions, DecisionRecord, DecisionTrigger};
pub use hysteresis::HysteresisGate;
pub use index::{pairwise_sum, IndexWorkCounters, PlanMode, SumTree, UtilizationIndex};
pub use manager::{PlanError, RoundStats, VirtManager};
pub use observation::{ClusterObservation, HostObservation, VmColumns, VmObservation};
pub use placement::{CommitStats, ConflictReason, PlacementFacts, PlacementStore};
pub use predict::{Predictor, PredictorConfig};
pub use prewake::DayProfile;
pub use recovery::{RecoveryConfig, RecoveryStats, RecoveryTracker};
pub use work::WorkCounters;
