//! The manager's view of the cluster at one management round.
//!
//! The observation deliberately carries only what a real management plane
//! polls each interval — power states, commitments, placement and
//! measured demand — so policies cannot accidentally peek at simulator
//! internals (e.g. future demand traces). What never changes — host
//! capacities and power-state ladders, VM sizes and service classes — is
//! the inventory the manager is given once, at construction
//! ([`crate::VirtManager::new`]).

use cluster::HostId;
use power::{PowerState, TransitionKind};
use simcore::SimTime;

/// What the manager sees about one host this round. The host's id is its
/// index in [`ClusterObservation::hosts`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostObservation {
    /// Current power state.
    pub state: PowerState,
    /// In-flight power transition, if any.
    pub pending: Option<TransitionKind>,
    /// Memory committed (placed VMs + inbound migration reservations), GB.
    pub mem_committed: f64,
    /// Whether the host currently hosts no VMs and has no inbound
    /// migrations (i.e. may be powered down).
    pub evacuated: bool,
    /// Cumulative power transitions that failed on this host — the error
    /// feed a real management plane gets from the BMC/IPMI path. The
    /// manager diffs it against the previous round to detect fresh
    /// failures.
    pub failed_transitions: u64,
}

impl Default for HostObservation {
    /// An idle `Off` host, the base for struct-update construction in
    /// tests and views.
    fn default() -> Self {
        HostObservation {
            state: PowerState::Off,
            pending: None,
            mem_committed: 0.0,
            evacuated: false,
            failed_transitions: 0,
        }
    }
}

impl HostObservation {
    /// Whether the host is serving load (`On`).
    pub fn is_operational(&self) -> bool {
        self.state.is_operational()
    }
}

/// What the manager sees about one VM this round: one row of
/// [`VmColumns`]. The VM's id is its row index.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VmObservation {
    /// The host the VM currently runs on (`None` while unplaced).
    pub host: Option<HostId>,
    /// Measured CPU demand this round, cores.
    pub cpu_demand: f64,
    /// Whether a live migration of this VM is in flight.
    pub migrating: bool,
}

/// The VM side of a [`ClusterObservation`], one column per fact and one
/// row per VM, indexed by `VmId::index()`.
///
/// Planning reads whole columns (every VM's demand, every VM's host), so
/// they are stored as columns: the simulator fills them by copying its
/// own per-VM slices and the planner copies them again, instead of
/// gathering fields out of records. The columns are private so they
/// always have equal length; [`push`](Self::push), [`get`](Self::get) and
/// `FromIterator` speak in [`VmObservation`] rows. `clone_from` copies
/// column by column into the existing allocations.
#[derive(Debug, Default, PartialEq)]
pub struct VmColumns {
    host: Vec<Option<HostId>>,
    cpu_demand: Vec<f64>,
    migrating: Vec<bool>,
}

impl VmColumns {
    /// Number of VMs.
    pub fn len(&self) -> usize {
        self.host.len()
    }

    /// Whether there are no VMs.
    pub fn is_empty(&self) -> bool {
        self.host.is_empty()
    }

    /// Appends one VM row.
    pub fn push(&mut self, vm: VmObservation) {
        self.host.push(vm.host);
        self.cpu_demand.push(vm.cpu_demand);
        self.migrating.push(vm.migrating);
    }

    /// Row `i`, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<VmObservation> {
        Some(VmObservation {
            host: *self.host.get(i)?,
            cpu_demand: self.cpu_demand[i],
            migrating: self.migrating[i],
        })
    }

    /// Each VM's host (`None` while unplaced).
    pub fn host(&self) -> &[Option<HostId>] {
        &self.host
    }

    /// Each VM's measured CPU demand this round, cores.
    pub fn cpu_demand(&self) -> &[f64] {
        &self.cpu_demand
    }

    /// Whether each VM has a live migration in flight.
    pub fn migrating(&self) -> &[bool] {
        &self.migrating
    }

    /// Refills every column for one round, keeping the allocations. The
    /// placement is copied; the round's demand column is swapped in, so
    /// `cpu_demand` comes back holding the previous round's column, ready
    /// to be overwritten as the next round's demand buffer.
    ///
    /// # Panics
    ///
    /// Panics if the inputs disagree on the number of VMs.
    pub fn refill(
        &mut self,
        host: &[Option<HostId>],
        cpu_demand: &mut Vec<f64>,
        migrating: impl IntoIterator<Item = bool>,
    ) {
        let n = host.len();
        assert_eq!(cpu_demand.len(), n, "demand column length mismatch");
        self.host.clear();
        self.host.extend_from_slice(host);
        std::mem::swap(&mut self.cpu_demand, cpu_demand);
        self.migrating.clear();
        self.migrating.extend(migrating);
        assert_eq!(self.migrating.len(), n, "migrating column length mismatch");
    }

    /// Refills `self` with `stale`, reusing the allocations, then
    /// overwrites with `fresh` every row whose fresh host satisfies
    /// `take_fresh` (`None` = unplaced).
    pub(crate) fn splice(
        &mut self,
        fresh: &VmColumns,
        stale: &VmColumns,
        take_fresh: impl Fn(Option<HostId>) -> bool,
    ) {
        self.clone_from(stale);
        for (i, &h) in fresh.host.iter().enumerate() {
            if take_fresh(h) {
                self.host[i] = h;
                self.cpu_demand[i] = fresh.cpu_demand[i];
                self.migrating[i] = fresh.migrating[i];
            }
        }
    }
}

impl Clone for VmColumns {
    fn clone(&self) -> Self {
        VmColumns {
            host: self.host.clone(),
            cpu_demand: self.cpu_demand.clone(),
            migrating: self.migrating.clone(),
        }
    }

    /// Column by column, reusing the allocations (a derived `clone_from`
    /// would reallocate).
    fn clone_from(&mut self, source: &Self) {
        self.host.clone_from(&source.host);
        self.cpu_demand.clone_from(&source.cpu_demand);
        self.migrating.clone_from(&source.migrating);
    }
}

impl FromIterator<VmObservation> for VmColumns {
    fn from_iter<I: IntoIterator<Item = VmObservation>>(rows: I) -> Self {
        let mut columns = VmColumns::default();
        for vm in rows {
            columns.push(vm);
        }
        columns
    }
}

/// A full snapshot handed to [`crate::VirtManager::plan`]. The default,
/// an empty observation at time zero, is the initial state of reusable
/// observation buffers (see the engine's per-tick buffer reuse), and
/// `clone_from` refills one in place.
#[derive(Debug, Default, PartialEq)]
pub struct ClusterObservation {
    /// The time of this management round.
    pub now: SimTime,
    /// Per-host observations, indexed by `HostId::index()`.
    pub hosts: Vec<HostObservation>,
    /// Per-VM observations, indexed by `VmId::index()`.
    pub vms: VmColumns,
}

impl Clone for ClusterObservation {
    fn clone(&self) -> Self {
        ClusterObservation {
            now: self.now,
            hosts: self.hosts.clone(),
            vms: self.vms.clone(),
        }
    }

    /// Field by field, reusing the allocations.
    fn clone_from(&mut self, source: &Self) {
        self.now = source.now;
        self.hosts.clone_from(&source.hosts);
        self.vms.clone_from(&source.vms);
    }
}

impl ClusterObservation {
    /// Total measured VM demand, cores (excludes migration tax).
    pub fn total_vm_demand(&self) -> f64 {
        self.vms.cpu_demand().iter().sum()
    }

    /// Ids of hosts currently in `state`.
    pub fn hosts_in_state(&self, state: PowerState) -> impl Iterator<Item = HostId> + '_ {
        self.hosts
            .iter()
            .enumerate()
            .filter(move |(_, h)| h.state == state)
            .map(|(i, _)| HostId(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(state: PowerState) -> HostObservation {
        HostObservation {
            state,
            mem_committed: 24.0,
            ..HostObservation::default()
        }
    }

    #[test]
    fn only_on_is_operational() {
        assert!(host(PowerState::On).is_operational());
        assert!(!host(PowerState::Resuming).is_operational());
    }

    #[test]
    fn observation_aggregates() {
        let obs = ClusterObservation {
            now: SimTime::ZERO,
            hosts: vec![
                host(PowerState::On),
                host(PowerState::Suspended),
                host(PowerState::Suspended),
            ],
            vms: [
                VmObservation {
                    host: Some(HostId(0)),
                    cpu_demand: 1.5,
                    migrating: false,
                },
                VmObservation {
                    host: None,
                    cpu_demand: 0.5,
                    migrating: false,
                },
            ]
            .into_iter()
            .collect(),
        };
        assert_eq!(obs.total_vm_demand(), 2.0);
        let suspended: Vec<_> = obs.hosts_in_state(PowerState::Suspended).collect();
        assert_eq!(suspended, [HostId(1), HostId(2)]);
    }
}
