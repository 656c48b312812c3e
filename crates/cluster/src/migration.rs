//! Live-migration cost model.
//!
//! Live migration copies a VM's memory over the management network while
//! the VM keeps running on the source host. We model the standard
//! pre-copy behaviour the paper's testbed (ESX vMotion-class) exhibits,
//! at that testbed's one operating point:
//!
//! * duration = `mem × 8 × 1.3 / 10 Gb/s`, at least 1 s — the 1.3
//!   dirty-page factor accounts for re-copying pages dirtied during the
//!   copy, and the floor for fixed setup and switch-over cost;
//! * the VM consumes CPU on the *source* until the final switch-over;
//! * both endpoints pay a 0.5-core CPU tax while the copy runs.

use simcore::{SimDuration, SimTime};

use crate::{HostId, VmId};

/// Usable migration network bandwidth, gigabits per second.
const BANDWIDTH_GBPS: f64 = 10.0;

/// Memory re-copy multiplier for pages dirtied mid-copy.
const DIRTY_FACTOR: f64 = 1.3;

/// Extra CPU consumed on each endpoint while a migration runs, in cores.
pub(crate) const CPU_TAX_CORES: f64 = 0.5;

/// How long migrating a VM with `mem_gb` of memory takes.
pub(crate) fn duration_for(mem_gb: f64) -> SimDuration {
    let secs = mem_gb * 8.0 * DIRTY_FACTOR / BANDWIDTH_GBPS;
    SimDuration::from_secs_f64(secs.max(1.0))
}

/// One in-flight live migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Migration {
    /// The VM being moved.
    pub vm: VmId,
    /// Source host (where the VM keeps running until completion).
    pub from: HostId,
    /// Destination host.
    pub to: HostId,
    /// When the switch-over completes.
    pub completes_at: SimTime,
}
