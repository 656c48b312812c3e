//! The manager's view of the cluster at one management round.
//!
//! The observation deliberately carries only what a real management plane
//! can see — power states, capacities, commitments, and measured demand —
//! so policies cannot accidentally peek at simulator internals (e.g.
//! future demand traces).

use cluster::{HostId, ServiceClass, VmSpec};
use power::breakeven::LadderSummary;
use power::{PowerState, TransitionKind};
use simcore::SimTime;

/// What the manager sees about one host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostObservation {
    /// The host's id.
    pub id: HostId,
    /// Current power state.
    pub state: PowerState,
    /// In-flight power transition, if any.
    pub pending: Option<TransitionKind>,
    /// CPU capacity, cores.
    pub cpu_capacity: f64,
    /// Memory capacity, GB.
    pub mem_capacity: f64,
    /// Memory committed (placed VMs + inbound migration reservations), GB.
    pub mem_committed: f64,
    /// Measured CPU demand this round (including migration tax), cores.
    pub cpu_demand: f64,
    /// Whether the host currently hosts no VMs and has no inbound
    /// migrations (i.e. may be powered down).
    pub evacuated: bool,
    /// Cumulative power transitions that failed on this host — the error
    /// feed a real management plane gets from the BMC/IPMI path. The
    /// manager diffs it against the previous round to detect fresh
    /// failures.
    pub failed_transitions: u64,
    /// Summary of the host's power-state ladder (supported rungs with
    /// wake latency and break-even gap) — the datasheet-class facts a
    /// management plane knows about its fleet. Empty under profiles with
    /// no low-power rungs.
    pub ladder: LadderSummary,
}

impl Default for HostObservation {
    /// A zero-capacity placeholder (`Off`, id 0), the base for
    /// struct-update construction in tests and views.
    fn default() -> Self {
        HostObservation {
            id: HostId(0),
            state: PowerState::Off,
            pending: None,
            cpu_capacity: 0.0,
            mem_capacity: 0.0,
            mem_committed: 0.0,
            cpu_demand: 0.0,
            evacuated: false,
            failed_transitions: 0,
            ladder: LadderSummary::default(),
        }
    }
}

impl HostObservation {
    /// Free memory after commitments, GB.
    pub fn mem_free(&self) -> f64 {
        (self.mem_capacity - self.mem_committed).max(0.0)
    }

    /// Whether the host is serving load (`On`).
    pub fn is_operational(&self) -> bool {
        self.state.is_operational()
    }

    /// Whether the host is `On` or on its way to `On`.
    pub fn is_arriving_or_on(&self) -> bool {
        matches!(
            self.state,
            PowerState::On | PowerState::Resuming | PowerState::Booting
        )
    }
}

/// What the manager sees about one VM: one row of [`VmColumns`]. The
/// VM's id is its row index.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VmObservation {
    /// The host the VM currently runs on (`None` while unplaced).
    pub host: Option<HostId>,
    /// Measured CPU demand this round, cores.
    pub cpu_demand: f64,
    /// Configured CPU cap, cores.
    pub cpu_cap: f64,
    /// Memory footprint, GB.
    pub mem_gb: f64,
    /// Whether a live migration of this VM is in flight.
    pub migrating: bool,
    /// The VM's service class (the manager prefers disrupting batch VMs).
    pub service_class: ServiceClass,
}

/// The VM side of a [`ClusterObservation`], one column per fact and one
/// row per VM, indexed by `VmId::index()`.
///
/// Planning reads whole columns (every VM's demand, every VM's host), so
/// they are stored as columns: the simulator fills them by copying its
/// own per-VM slices and the planner copies them again, instead of
/// gathering fields out of records. The columns are private so they
/// always have equal length; [`push`](Self::push), [`get`](Self::get) and
/// `FromIterator` speak in [`VmObservation`] rows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VmColumns {
    host: Vec<Option<HostId>>,
    cpu_demand: Vec<f64>,
    cpu_cap: Vec<f64>,
    mem_gb: Vec<f64>,
    migrating: Vec<bool>,
    service_class: Vec<ServiceClass>,
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
        self.cpu_cap.push(vm.cpu_cap);
        self.mem_gb.push(vm.mem_gb);
        self.migrating.push(vm.migrating);
        self.service_class.push(vm.service_class);
    }

    /// Row `i`, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<VmObservation> {
        Some(VmObservation {
            host: *self.host.get(i)?,
            cpu_demand: self.cpu_demand[i],
            cpu_cap: self.cpu_cap[i],
            mem_gb: self.mem_gb[i],
            migrating: self.migrating[i],
            service_class: self.service_class[i],
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

    /// Each VM's configured CPU cap, cores.
    pub fn cpu_cap(&self) -> &[f64] {
        &self.cpu_cap
    }

    /// Each VM's memory footprint, GB.
    pub fn mem_gb(&self) -> &[f64] {
        &self.mem_gb
    }

    /// Whether each VM has a live migration in flight.
    pub fn migrating(&self) -> &[bool] {
        &self.migrating
    }

    /// Each VM's service class.
    pub fn service_class(&self) -> &[ServiceClass] {
        &self.service_class
    }

    /// Refills every column for one round, keeping the allocations. The
    /// placement and the specs are copied; the round's demand column is
    /// swapped in, so `cpu_demand` comes back holding the previous
    /// round's column, ready to be overwritten as the next round's
    /// demand buffer.
    ///
    /// # Panics
    ///
    /// Panics if the inputs disagree on the number of VMs.
    pub fn refill(
        &mut self,
        host: &[Option<HostId>],
        cpu_demand: &mut Vec<f64>,
        specs: &[VmSpec],
        migrating: impl IntoIterator<Item = bool>,
    ) {
        let n = host.len();
        assert_eq!(cpu_demand.len(), n, "demand column length mismatch");
        assert_eq!(specs.len(), n, "spec count mismatch");
        self.host.clear();
        self.host.extend_from_slice(host);
        std::mem::swap(&mut self.cpu_demand, cpu_demand);
        self.cpu_cap.clear();
        self.cpu_cap.extend(specs.iter().map(VmSpec::cpu_cap_cores));
        self.mem_gb.clear();
        self.mem_gb.extend(specs.iter().map(VmSpec::mem_gb));
        self.migrating.clear();
        self.migrating.extend(migrating);
        assert_eq!(self.migrating.len(), n, "migrating column length mismatch");
        self.service_class.clear();
        self.service_class
            .extend(specs.iter().map(VmSpec::service_class));
    }

    /// Overwrites `self` with `other`, column by column, reusing the
    /// allocations (a derived `clone_from` would reallocate).
    fn copy_from(&mut self, other: &VmColumns) {
        self.host.clone_from(&other.host);
        self.cpu_demand.clone_from(&other.cpu_demand);
        self.cpu_cap.clone_from(&other.cpu_cap);
        self.mem_gb.clone_from(&other.mem_gb);
        self.migrating.clone_from(&other.migrating);
        self.service_class.clone_from(&other.service_class);
    }

    /// Refills `self` with `stale`, then overwrites with `fresh` every row
    /// whose fresh host satisfies `take_fresh` (`None` = unplaced).
    pub(crate) fn splice(
        &mut self,
        fresh: &VmColumns,
        stale: &VmColumns,
        take_fresh: impl Fn(Option<HostId>) -> bool,
    ) {
        self.copy_from(stale);
        for (i, &h) in fresh.host.iter().enumerate() {
            if take_fresh(h) {
                self.host[i] = h;
                self.cpu_demand[i] = fresh.cpu_demand[i];
                self.cpu_cap[i] = fresh.cpu_cap[i];
                self.mem_gb[i] = fresh.mem_gb[i];
                self.migrating[i] = fresh.migrating[i];
                self.service_class[i] = fresh.service_class[i];
            }
        }
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

/// A full snapshot handed to [`crate::VirtManager::plan`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterObservation {
    /// The time of this management round.
    pub now: SimTime,
    /// Per-host observations, indexed by `HostId::index()`.
    pub hosts: Vec<HostObservation>,
    /// Per-VM observations, indexed by `VmId::index()`.
    pub vms: VmColumns,
}

impl Default for ClusterObservation {
    /// An empty observation at time zero — the initial state of reusable
    /// observation buffers (see the engine's per-tick buffer reuse).
    fn default() -> Self {
        ClusterObservation {
            now: SimTime::ZERO,
            hosts: Vec::new(),
            vms: VmColumns::default(),
        }
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
            .filter(move |h| h.state == state)
            .map(|h| h.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(state: PowerState, demand: f64) -> HostObservation {
        HostObservation {
            id: HostId(0),
            state,
            pending: None,
            cpu_capacity: 8.0,
            mem_capacity: 32.0,
            mem_committed: 24.0,
            cpu_demand: demand,
            evacuated: false,
            failed_transitions: 0,
            ladder: LadderSummary::default(),
        }
    }

    #[test]
    fn host_derived_quantities() {
        let h = host(PowerState::On, 4.0);
        assert_eq!(h.mem_free(), 8.0);
        assert!(h.is_operational());
        assert!(h.is_arriving_or_on());
    }

    #[test]
    fn arriving_states() {
        assert!(host(PowerState::Resuming, 0.0).is_arriving_or_on());
        assert!(host(PowerState::Booting, 0.0).is_arriving_or_on());
        assert!(!host(PowerState::Suspended, 0.0).is_arriving_or_on());
        assert!(!host(PowerState::Suspending, 0.0).is_arriving_or_on());
    }

    #[test]
    fn observation_aggregates() {
        let obs = ClusterObservation {
            now: SimTime::ZERO,
            hosts: vec![host(PowerState::On, 1.0), host(PowerState::Suspended, 0.0)],
            vms: [
                VmObservation {
                    host: Some(HostId(0)),
                    cpu_demand: 1.5,
                    cpu_cap: 2.0,
                    mem_gb: 8.0,
                    migrating: false,
                    service_class: Default::default(),
                },
                VmObservation {
                    host: None,
                    cpu_demand: 0.5,
                    cpu_cap: 2.0,
                    mem_gb: 8.0,
                    migrating: false,
                    service_class: Default::default(),
                },
            ]
            .into_iter()
            .collect(),
        };
        assert_eq!(obs.total_vm_demand(), 2.0);
        assert_eq!(obs.hosts_in_state(PowerState::Suspended).count(), 1);
    }
}
