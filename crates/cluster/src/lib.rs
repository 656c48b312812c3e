//! Virtualization substrate for the `agilepm` workspace.
//!
//! Models the managed datacenter at the granularity the ISCA'13 paper's
//! management layer operates on: physical hosts with capacity and a power
//! state, virtual machines with resource footprints, a placement map, and a
//! live-migration cost model.
//!
//! * [`HostId`] / [`VmId`] — typed identifiers.
//! * [`Resources`] — CPU (cores) and memory (GB) vectors.
//! * [`VmSpec`] / [`Host`] — the managed entities; each host couples its
//!   capacity with a [`power::PowerStateMachine`].
//! * [`PlacementMap`] — the VM→host assignment with integrity checks.
//! * [`MigrationModel`] — live-migration duration and CPU overhead as a
//!   function of VM memory size and network bandwidth.
//! * [`Cluster`] — the facade tying it together; the simulator and the
//!   manager only talk to this type.
//!
//! # Example
//!
//! ```
//! use cluster::{Cluster, HostId, HostSpec, Resources, VmSpec};
//! use power::HostPowerProfile;
//! use simcore::SimTime;
//!
//! let hosts =
//!     vec![HostSpec::new(Resources::new(16.0, 64.0), HostPowerProfile::prototype_rack()); 2];
//! let vms = vec![VmSpec::new(Resources::new(2.0, 8.0)); 3];
//! let mut cluster = Cluster::new(hosts, vms, SimTime::ZERO);
//! // Place every VM on host 0.
//! let vms: Vec<_> = cluster.vm_ids().collect();
//! for vm in vms {
//!     cluster.place(vm, HostId(0))?;
//! }
//! assert_eq!(cluster.vms_on(HostId(0)).len(), 3);
//! # Ok::<(), cluster::ClusterError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod argmax;
mod cluster_impl;
mod error;
mod host;
mod ids;
mod migration;
mod placement;
mod resources;
mod vm;

pub use cluster_impl::{AccountingMode, Cluster, DemandOutcome};
pub use error::ClusterError;
pub use host::{Host, HostSpec};
pub use ids::{HostId, VmId};
pub use migration::{Migration, MigrationModel};
pub use placement::PlacementMap;
pub use resources::Resources;
pub use vm::{ServiceClass, VmSpec};
