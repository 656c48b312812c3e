//! Server power substrate for the `agilepm` workspace.
//!
//! This crate models everything the management layer needs to know about a
//! physical server's power behaviour, replacing the instrumented hardware
//! prototypes of the ISCA'13 paper with calibrated, table-driven models:
//!
//! * [`PowerState`] and [`PowerStateMachine`] — the ACPI-like host state
//!   machine (`On`, `PackageIdle` (C6-class), `Suspended` (S3-class),
//!   `Off` (S5-class), plus one transitional state per transition kind),
//!   with strict transition validation.
//! * [`TransitionSpec`] and [`TransitionTable`] — per-transition latency and
//!   average power, from which transition *energy* follows; optional
//!   park/unpark and suspend/resume rungs form the generalized
//!   power-state ladder.
//! * [`PowerCurve`] — utilization→power curves (linear, SPECpower-style
//!   piecewise, and ideal-proportional).
//! * [`HostPowerProfile`] — a named bundle of curve + state powers +
//!   transition table, with presets calibrated to the paper's prototype
//!   class of hardware ([`HostPowerProfile::prototype_rack`] etc.).
//! * [`EnergyMeter`] — exact step-function energy integration with a
//!   per-state breakdown and optional power trace.
//! * [`breakeven`] — closed-form break-even analysis: how long must a host
//!   stay idle for a power-down/power-up cycle to save net energy?
//!
//! # Example
//!
//! ```
//! use power::{HostPowerProfile, PowerState, PowerStateMachine, TransitionKind};
//! use simcore::SimTime;
//!
//! let profile = HostPowerProfile::prototype_rack();
//! let mut m = PowerStateMachine::new(profile, SimTime::ZERO);
//! let done = m.begin(TransitionKind::Suspend, SimTime::ZERO)?;
//! assert_eq!(m.state(), PowerState::Suspending);
//! m.complete(done)?;
//! assert_eq!(m.state(), PowerState::Suspended);
//! # Ok::<(), power::PowerError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breakeven;
mod curve;
mod dvfs;
mod energy;
mod error;
mod profile;
mod psu;
mod state;
mod transition;

pub use curve::PowerCurve;
pub use dvfs::{DvfsLevel, DvfsModel};
pub use energy::EnergyMeter;
pub use error::{ConfigError, PowerError};
pub use profile::HostPowerProfile;
pub use psu::PsuModel;
pub use state::{PowerState, PowerStateMachine, StateResidency};
pub use transition::{TransitionKind, TransitionSpec, TransitionTable};
