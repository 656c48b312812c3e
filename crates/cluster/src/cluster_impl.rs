//! The cluster facade: hosts + VMs + placement + migrations + power.

use std::cell::{Cell, RefCell};

use power::{PowerState, TransitionKind};
use simcore::{pairwise_sum, SimTime, SumTree};

use crate::argmax::ArgmaxTree;
use crate::migration::{self, CPU_TAX_CORES};
use crate::{
    ClusterError, Host, HostId, HostSpec, Migration, PlacementMap, ServiceClass, VmId, VmSpec,
};

/// Reusable scratch for [`Cluster::apply_demand_into`]: the per-host
/// interactive/batch demand splits and the migration-tax vector. Owned by
/// the cluster so steady-state ticks allocate nothing after the first.
#[derive(Debug, Clone, Default)]
struct DemandScratch {
    interactive: Vec<f64>,
    batch: Vec<f64>,
    tax: Vec<f64>,
}

/// Clears and re-zeroes a scratch vector without shrinking its capacity.
fn reset_zeroed(v: &mut Vec<f64>, n: usize) {
    v.clear();
    v.resize(n, 0.0);
}

/// Result of applying one round of VM demand to the cluster.
///
/// Produced by [`Cluster::apply_demand_into`]; the simulator derives its
/// performance metrics (unserved demand, violations) from this.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DemandOutcome {
    /// Sum of all VM CPU demand this round, in cores.
    pub offered_cores: f64,
    /// Demand actually served, in cores.
    pub served_cores: f64,
    /// Demand that could not be served (overload or VM on a non-operational
    /// host), in cores.
    pub unserved_cores: f64,
    /// Offered demand from interactive-class VMs, cores.
    pub offered_interactive_cores: f64,
    /// Offered demand from batch-class VMs, cores.
    pub offered_batch_cores: f64,
    /// Unserved interactive demand (interactive is served first, so this
    /// only grows once a host is saturated by interactive load alone).
    pub unserved_interactive_cores: f64,
    /// Unserved batch demand (batch absorbs overload first).
    pub unserved_batch_cores: f64,
    /// Per-host CPU utilization in `[0, 1]` (0 for non-operational hosts).
    pub host_utilization: Vec<f64>,
    /// Per-host raw CPU demand (including migration tax), in cores.
    pub host_demand_cores: Vec<f64>,
}

/// The managed datacenter: hosts, VMs, placement, in-flight migrations,
/// and per-host power machines.
///
/// All mutating operations validate their preconditions and return
/// [`ClusterError`] on violation, so management policies cannot corrupt
/// the physical model (e.g. suspending a host that still runs VMs).
///
/// Aggregates (power, capacity, committed memory, most-free host) are
/// kept incrementally; debug builds check every read against the
/// accessor's private `scan_*` fold.
///
/// See the [crate-level example](crate) for basic usage.
#[derive(Debug, Clone)]
pub struct Cluster {
    hosts: Vec<Host>,
    vms: Vec<VmSpec>,
    placement: PlacementMap,
    /// Per-VM in-flight migration, if any.
    migrations: Vec<Option<Migration>>,
    /// Per-host count of inbound migrations (capacity reservations).
    inbound: Vec<u32>,
    migrations_completed: u64,
    migrations_failed: u64,
    migration_busy_secs: f64,
    /// Incrementally-maintained total-power aggregate: a fixed-shape
    /// pairwise tree whose root is bitwise equal to [`pairwise_sum`] over
    /// the per-host draws, which is exactly what the scan fold computes.
    /// Single-host transitions refresh one leaf in O(log hosts); the
    /// per-tick demand sweep (which rewrites every operational host's
    /// draw) marks the whole tree stale instead, and the next read
    /// rebuilds it in O(hosts) — the same cost the sweep itself pays.
    power_tree: RefCell<SumTree>,
    power_stale: Cell<bool>,
    /// Argmax tree over per-host free memory for
    /// [`most_free_host`](Self::most_free_host): leaf `h` is
    /// [`mem_free_gb`](Self::mem_free_gb) for an operational host and
    /// `-∞` otherwise. Built lazily by the first query (so runs without
    /// VM arrivals never pay for it) and point-updated wherever a host's
    /// committed memory or operational state changes.
    free_tree: RefCell<ArgmaxTree>,
    free_stale: Cell<bool>,
    /// Lazy operational-capacity cache, revalidated on power transitions.
    cap_cache: Cell<f64>,
    cap_dirty: Cell<bool>,
    /// Exact running count of operational hosts (integer, never drifts).
    on_count: usize,
    /// Running per-host committed memory: placed VMs plus inbound
    /// migration reservations, GB.
    host_mem_committed: Vec<f64>,
    /// Reusable buffers for [`apply_demand_into`](Self::apply_demand_into).
    scratch: DemandScratch,
    /// Deterministic count of cache invalidations (dirty marks) at
    /// mutation sites. Counted where state *changes* — never at the
    /// read-and-clear revalidation sites, which fire whenever a reader
    /// happens to look — so the count is a pure function of the scenario.
    /// The per-tick demand sweep charges one mark per operational host
    /// (every such host's utilization is rewritten), which makes
    /// `dirty_marks` an upper bound on how many hosts a change-driven
    /// index may legitimately re-bucket.
    dirty_marks: u64,
}

impl Cluster {
    /// Creates a cluster with all hosts `On` and all VMs unplaced.
    ///
    /// # Panics
    ///
    /// Panics if there are no hosts.
    pub fn new(host_specs: Vec<HostSpec>, vm_specs: Vec<VmSpec>, t0: SimTime) -> Self {
        assert!(!host_specs.is_empty(), "cluster needs at least one host");
        let hosts: Vec<Host> = host_specs
            .iter()
            .enumerate()
            .map(|(i, s)| Host::from_spec(HostId(i as u32), s, t0))
            .collect();
        let placement = PlacementMap::new(hosts.len(), vm_specs.len());
        let inbound = vec![0; hosts.len()];
        let migrations = vec![None; vm_specs.len()];
        let on_count = hosts.iter().filter(|h| h.is_operational()).count();
        let host_mem_committed = vec![0.0; hosts.len()];
        Cluster {
            hosts,
            vms: vm_specs,
            placement,
            migrations,
            inbound,
            migrations_completed: 0,
            migrations_failed: 0,
            migration_busy_secs: 0.0,
            power_tree: RefCell::new(SumTree::new()),
            power_stale: Cell::new(true),
            free_tree: RefCell::new(ArgmaxTree::default()),
            free_stale: Cell::new(true),
            cap_cache: Cell::new(0.0),
            cap_dirty: Cell::new(true),
            on_count,
            host_mem_committed,
            scratch: DemandScratch::default(),
            dirty_marks: 0,
        }
    }

    /// Deterministic count of cache invalidations performed so far (see
    /// the `dirty_marks` field): a pure function of the scenario.
    pub fn dirty_marks(&self) -> u64 {
        self.dirty_marks
    }

    // ----- accessors -------------------------------------------------

    /// Number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// Number of VMs.
    pub fn num_vms(&self) -> usize {
        self.vms.len()
    }

    /// All host ids.
    pub fn host_ids(&self) -> impl Iterator<Item = HostId> + '_ {
        (0..self.hosts.len() as u32).map(HostId)
    }

    /// All VM ids.
    pub fn vm_ids(&self) -> impl Iterator<Item = VmId> + '_ {
        (0..self.vms.len() as u32).map(VmId)
    }

    /// The host with the given id.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownHost`] for an out-of-range id.
    pub fn host(&self, id: HostId) -> Result<&Host, ClusterError> {
        self.hosts
            .get(id.index())
            .ok_or(ClusterError::UnknownHost(id))
    }

    /// The VM spec with the given id.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownVm`] for an out-of-range id.
    pub fn vm(&self, id: VmId) -> Result<&VmSpec, ClusterError> {
        self.vms.get(id.index()).ok_or(ClusterError::UnknownVm(id))
    }

    /// All hosts, indexable by `HostId::index()`.
    pub fn hosts(&self) -> &[Host] {
        &self.hosts
    }

    /// All VM specs, indexable by `VmId::index()`.
    pub fn vm_specs(&self) -> &[VmSpec] {
        &self.vms
    }

    /// The placement map.
    pub fn placement(&self) -> &PlacementMap {
        &self.placement
    }

    /// Every VM's host (`None` while unplaced), indexable by
    /// `VmId::index()` — the placement map's own column.
    pub fn vm_hosts(&self) -> &[Option<HostId>] {
        self.placement.vm_hosts()
    }

    /// VMs currently on `host` (excluding inbound migrations).
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range.
    pub fn vms_on(&self, host: HostId) -> Vec<VmId> {
        self.placement.vms_on(host)
    }

    /// The in-flight migration of `vm`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `vm` is out of range.
    pub fn migration_of(&self, vm: VmId) -> Option<Migration> {
        self.migrations[vm.index()]
    }

    /// Total live migrations completed so far.
    pub fn migrations_completed(&self) -> u64 {
        self.migrations_completed
    }

    /// Total live migrations that aborted mid-flight (fault injection).
    pub fn migrations_failed(&self) -> u64 {
        self.migrations_failed
    }

    /// Cumulative wall-clock seconds of live-migration activity started so
    /// far (each migration contributes its full duration at start time).
    pub fn migration_busy_secs(&self) -> f64 {
        self.migration_busy_secs
    }

    /// Cumulative host-seconds spent in transitional power states
    /// (suspending/resuming/shutting down/booting/parking/unparking),
    /// summed over hosts.
    /// Call [`sync`](Self::sync) first for an up-to-the-instant view.
    pub fn transition_busy_secs(&self) -> f64 {
        use power::PowerState;
        self.hosts
            .iter()
            .map(|h| {
                let r = h.power().residency();
                [
                    PowerState::Suspending,
                    PowerState::Resuming,
                    PowerState::ShuttingDown,
                    PowerState::Booting,
                    PowerState::Parking,
                    PowerState::Unparking,
                ]
                .iter()
                .map(|&s| r.in_state(s).as_secs_f64())
                .sum::<f64>()
            })
            .sum()
    }

    /// Number of hosts currently in the `On` state — O(1).
    pub fn num_operational_hosts(&self) -> usize {
        debug_assert_eq!(
            self.on_count,
            self.scan_num_operational_hosts(),
            "operational-host running count drifted"
        );
        self.on_count
    }

    /// Scan fold for [`num_operational_hosts`](Self::num_operational_hosts).
    fn scan_num_operational_hosts(&self) -> usize {
        self.hosts.iter().filter(|h| h.is_operational()).count()
    }

    /// Ids of hosts currently in `state`.
    pub fn hosts_in_state(&self, state: PowerState) -> Vec<HostId> {
        self.hosts
            .iter()
            .filter(|h| h.power_state() == state)
            .map(|h| h.id())
            .collect()
    }

    /// Memory committed on `host`: placed VMs plus inbound migration
    /// reservations, in GB.
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range.
    pub fn mem_committed_gb(&self, host: HostId) -> f64 {
        let v = self.host_mem_committed[host.index()];
        debug_assert!(
            (v - self.scan_mem_committed_gb(host)).abs() < 1e-6,
            "committed-memory running total drifted on host {host}: \
             running {v}, scan {}",
            self.scan_mem_committed_gb(host)
        );
        v
    }

    /// Scan fold for [`mem_committed_gb`](Self::mem_committed_gb):
    /// O(VMs on host) + O(in-flight migrations).
    fn scan_mem_committed_gb(&self, host: HostId) -> f64 {
        // Folded from +0.0 (not `Iterator::sum`, whose -0.0 identity
        // would make an empty host bitwise-differ from the running total).
        let placed = self
            .placement
            .vms_on(host)
            .iter()
            .map(|&vm| self.vms[vm.index()].mem_gb())
            .fold(0.0f64, |a, b| a + b);
        let inbound = self
            .migrations
            .iter()
            .flatten()
            .filter(|m| m.to == host)
            .map(|m| self.vms[m.vm.index()].mem_gb())
            .fold(0.0f64, |a, b| a + b);
        placed + inbound
    }

    /// Free memory on `host` after commitments, in GB.
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range.
    pub fn mem_free_gb(&self, host: HostId) -> f64 {
        (self.hosts[host.index()].capacity().mem_gb - self.mem_committed_gb(host)).max(0.0)
    }

    /// The operational host with the most free memory, provided it has
    /// at least `mem_gb` free; `None` when no operational host fits.
    /// Ties go to the highest host index.
    ///
    /// O(log hosts) amortized: the answer is the root of an argmax tree
    /// over per-host free memory that placement, migration and power
    /// transitions keep current; the first query builds it in O(hosts).
    pub fn most_free_host(&self, mem_gb: f64) -> Option<HostId> {
        if self.free_stale.get() {
            self.free_tree
                .borrow_mut()
                .rebuild(self.hosts.len(), |i| self.free_key(i));
            self.free_stale.set(false);
        }
        let (i, free) = self.free_tree.borrow().max();
        let host = (free >= mem_gb).then_some(HostId(i as u32));
        debug_assert_eq!(
            host,
            self.scan_most_free_host(mem_gb),
            "stale most-free-memory tree"
        );
        host
    }

    /// Scan fold for [`most_free_host`](Self::most_free_host):
    /// `max_by` keeps the last of equal maxima, the tree's tie rule.
    fn scan_most_free_host(&self, mem_gb: f64) -> Option<HostId> {
        self.hosts
            .iter()
            .filter(|h| h.is_operational())
            .map(|h| h.id())
            .filter(|&h| self.mem_free_gb(h) >= mem_gb)
            .max_by(|&a, &b| {
                self.mem_free_gb(a)
                    .partial_cmp(&self.mem_free_gb(b))
                    .expect("memory is finite")
            })
    }

    /// Leaf key of host `i` in the most-free-memory tree.
    fn free_key(&self, i: usize) -> f64 {
        if self.hosts[i].is_operational() {
            self.mem_free_gb(HostId(i as u32))
        } else {
            f64::NEG_INFINITY
        }
    }

    /// Refreshes host `i`'s leaf in the most-free-memory tree after its
    /// committed memory or operational state changed (a no-op until the
    /// first query builds the tree).
    fn note_free_changed(&mut self, i: usize) {
        if !self.free_stale.get() {
            let key = self.free_key(i);
            self.free_tree.get_mut().set(i, key);
        }
    }

    /// Whether `host` can be powered down: no placed VMs, no inbound
    /// migrations.
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range.
    pub fn is_evacuated(&self, host: HostId) -> bool {
        self.placement.is_empty_host(host) && self.inbound[host.index()] == 0
    }

    // ----- placement & migration -------------------------------------

    /// Places an unplaced VM on an operational host with enough memory.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError`] if the VM is already placed, the host is
    /// not `On`, or memory does not fit.
    pub fn place(&mut self, vm: VmId, host: HostId) -> Result<(), ClusterError> {
        let spec = *self.vm(vm)?;
        let h = self.host(host)?;
        if self.placement.host_of(vm).is_some() {
            return Err(ClusterError::VmAlreadyPlaced(vm));
        }
        if !h.is_operational() {
            return Err(ClusterError::HostNotOperational(host));
        }
        if spec.mem_gb() > self.mem_free_gb(host) + 1e-9 {
            return Err(ClusterError::InsufficientCapacity { host, vm });
        }
        self.placement.place(vm, host);
        self.host_mem_committed[host.index()] += spec.mem_gb();
        self.note_free_changed(host.index());
        self.dirty_marks += 1;
        Ok(())
    }

    /// Removes a VM from its host (retirement/deprovisioning).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::VmMigrating`] if a live migration is in
    /// flight (complete it first), or [`ClusterError::VmNotPlaced`] if the
    /// VM has no host.
    pub fn unplace(&mut self, vm: VmId) -> Result<HostId, ClusterError> {
        self.vm(vm)?;
        if self.migrations[vm.index()].is_some() {
            return Err(ClusterError::VmMigrating(vm));
        }
        if self.placement.host_of(vm).is_none() {
            return Err(ClusterError::VmNotPlaced(vm));
        }
        let host = self.placement.remove(vm);
        self.host_mem_committed[host.index()] -= self.vms[vm.index()].mem_gb();
        self.note_free_changed(host.index());
        self.dirty_marks += 1;
        Ok(host)
    }

    /// Starts a live migration of `vm` to `to`, returning when it
    /// completes. The VM keeps running on its source until then.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError`] if the VM is unplaced or already
    /// migrating, the destination equals the source, the destination is
    /// not `On`, or memory does not fit on the destination.
    pub fn begin_migration(
        &mut self,
        vm: VmId,
        to: HostId,
        now: SimTime,
    ) -> Result<SimTime, ClusterError> {
        let spec = *self.vm(vm)?;
        let dest = self.host(to)?;
        let from = self
            .placement
            .host_of(vm)
            .ok_or(ClusterError::VmNotPlaced(vm))?;
        if self.migrations[vm.index()].is_some() {
            return Err(ClusterError::VmMigrating(vm));
        }
        if from == to {
            return Err(ClusterError::SelfMigration(vm));
        }
        if !dest.is_operational() {
            return Err(ClusterError::HostNotOperational(to));
        }
        if spec.mem_gb() > self.mem_free_gb(to) + 1e-9 {
            return Err(ClusterError::InsufficientCapacity { host: to, vm });
        }
        let duration = migration::duration_for(spec.mem_gb());
        self.migration_busy_secs += duration.as_secs_f64();
        let completes_at = now + duration;
        self.migrations[vm.index()] = Some(Migration {
            vm,
            from,
            to,
            completes_at,
        });
        self.inbound[to.index()] += 1;
        self.host_mem_committed[to.index()] += spec.mem_gb();
        self.note_free_changed(to.index());
        self.dirty_marks += 2;
        Ok(completes_at)
    }

    /// Completes the in-flight migration of `vm`, switching it to the
    /// destination host. Must be called at the instant returned by
    /// [`begin_migration`](Self::begin_migration).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::VmNotPlaced`] variants for unknown state,
    /// and propagates nothing else: destination capacity was reserved at
    /// start.
    pub fn complete_migration(
        &mut self,
        vm: VmId,
        now: SimTime,
    ) -> Result<Migration, ClusterError> {
        self.vm(vm)?;
        let migration = self.migrations[vm.index()]
            .take()
            .ok_or(ClusterError::VmMigrating(vm))?; // "not migrating" reuses the closest variant
        debug_assert_eq!(migration.completes_at, now, "migration completion mistimed");
        self.inbound[migration.to.index()] -= 1;
        self.placement.relocate(vm, migration.to);
        // The inbound reservation becomes the placed footprint on the
        // destination (net zero there, so its free-memory leaf stands);
        // the source gives the memory up.
        self.host_mem_committed[migration.from.index()] -= self.vms[vm.index()].mem_gb();
        self.note_free_changed(migration.from.index());
        self.migrations_completed += 1;
        self.dirty_marks += 2;
        Ok(migration)
    }

    /// Aborts the in-flight migration of `vm` (fault injection): the VM
    /// stays placed on its source host and the destination's inbound
    /// reservation is released. Must be called at the instant returned by
    /// [`begin_migration`](Self::begin_migration) — the transfer runs to
    /// the end before the abort is detected.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::VmMigrating`] if `vm` has no migration in
    /// flight (the variant doubles as "not migrating", matching
    /// [`complete_migration`](Self::complete_migration)).
    pub fn fail_migration(&mut self, vm: VmId, now: SimTime) -> Result<Migration, ClusterError> {
        self.vm(vm)?;
        let migration = self.migrations[vm.index()]
            .take()
            .ok_or(ClusterError::VmMigrating(vm))?;
        debug_assert_eq!(migration.completes_at, now, "migration abort mistimed");
        // Reverse the destination-side reservation made at begin time; the
        // source-side placement and footprint never moved.
        self.inbound[migration.to.index()] -= 1;
        self.host_mem_committed[migration.to.index()] -= self.vms[vm.index()].mem_gb();
        self.note_free_changed(migration.to.index());
        self.migrations_failed += 1;
        self.dirty_marks += 2;
        Ok(migration)
    }

    // ----- power ------------------------------------------------------

    /// Begins a power-state transition on `host`, returning its completion
    /// instant.
    ///
    /// Power-down transitions (`Suspend`, `Shutdown`) require the host to
    /// be fully evacuated.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::HostNotEvacuated`] for a power-down on a
    /// non-empty host, or wraps the underlying [`power::PowerError`].
    pub fn begin_power_transition(
        &mut self,
        host: HostId,
        kind: TransitionKind,
        now: SimTime,
    ) -> Result<SimTime, ClusterError> {
        self.host(host)?;
        if kind.is_power_down() && !self.is_evacuated(host) {
            return Err(ClusterError::HostNotEvacuated(host));
        }
        let was_on = self.hosts[host.index()].is_operational();
        let done = self.hosts[host.index()].power_mut().begin(kind, now)?;
        self.note_power_changed(host.index(), was_on);
        Ok(done)
    }

    /// Completes the in-flight power transition on `host`, returning the
    /// new state.
    ///
    /// # Errors
    ///
    /// Wraps the underlying [`power::PowerError`].
    pub fn complete_power_transition(
        &mut self,
        host: HostId,
        now: SimTime,
    ) -> Result<PowerState, ClusterError> {
        self.host(host)?;
        let was_on = self.hosts[host.index()].is_operational();
        let state = self.hosts[host.index()].power_mut().complete(now)?;
        self.note_power_changed(host.index(), was_on);
        Ok(state)
    }

    /// Fails the in-flight power transition on `host` (fault injection):
    /// the host lands in the transition's failure state instead of its
    /// target (e.g. a failed resume leaves it `Off`, requiring a boot).
    ///
    /// # Errors
    ///
    /// Wraps the underlying [`power::PowerError`].
    pub fn fail_power_transition(
        &mut self,
        host: HostId,
        now: SimTime,
    ) -> Result<PowerState, ClusterError> {
        self.host(host)?;
        let was_on = self.hosts[host.index()].is_operational();
        let state = self.hosts[host.index()].power_mut().fail_pending(now)?;
        self.note_power_changed(host.index(), was_on);
        Ok(state)
    }

    /// Stretches the in-flight power transition on `host` to complete at
    /// `new_done` (fault injection: a *hung* transition). The host keeps
    /// burning transition power for the whole stuck interval; callers must
    /// complete or fail the transition exactly at `new_done`. Returns the
    /// previously scheduled completion instant.
    ///
    /// # Errors
    ///
    /// Wraps the underlying [`power::PowerError`].
    pub fn delay_power_transition(
        &mut self,
        host: HostId,
        new_done: SimTime,
    ) -> Result<SimTime, ClusterError> {
        self.host(host)?;
        // No note_power_changed: the host stays in its transitional state,
        // so neither the power draw nor the operational count moves here.
        Ok(self.hosts[host.index()]
            .power_mut()
            .delay_pending(new_done)?)
    }

    /// Bookkeeping after any power-state mutation on host `i`: the power
    /// aggregate absorbs the host's new draw (one O(log hosts) leaf
    /// update — never a fleet rescan, which at 64k hosts would dominate
    /// the event loop via the per-completion power sample), and the
    /// operational count/capacity and the host's most-free-memory leaf
    /// change when the host crossed the `On` boundary.
    fn note_power_changed(&mut self, i: usize, was_on: bool) {
        self.dirty_marks += 1;
        if !self.power_stale.get() {
            let draw = self.hosts[i].power().power_w();
            self.power_tree.get_mut().set(i, draw);
        }
        let is_on = self.hosts[i].is_operational();
        if is_on != was_on {
            self.cap_dirty.set(true);
            self.note_free_changed(i);
            self.dirty_marks += 1;
            if is_on {
                self.on_count += 1;
            } else {
                self.on_count -= 1;
            }
        }
    }

    /// Total power-state transitions that failed across all hosts.
    pub fn failed_transitions(&self) -> u64 {
        self.hosts
            .iter()
            .map(|h| h.power().failed_transitions())
            .sum()
    }

    // ----- demand -----------------------------------------------------

    /// Applies one round of per-VM CPU demand (cores, indexed by
    /// `VmId::index()`), updating every host's utilization and writing
    /// the served/unserved accounting into `out`.
    ///
    /// A VM's demand is served by its *current* host (the source during a
    /// live migration); in-flight migrations add the 0.5-core migration
    /// CPU tax to both endpoints. Demand beyond a host's CPU capacity, or
    /// from unplaced VMs, is unserved.
    ///
    /// `out` and the cluster's internal scratch vectors are reused, so
    /// steady-state ticks allocate nothing once buffers reach fleet size.
    ///
    /// # Panics
    ///
    /// Panics if `vm_demand_cores.len() != self.num_vms()`.
    pub fn apply_demand_into(
        &mut self,
        now: SimTime,
        vm_demand_cores: &[f64],
        out: &mut DemandOutcome,
    ) {
        assert_eq!(
            vm_demand_cores.len(),
            self.vms.len(),
            "demand vector length mismatch"
        );
        let n = self.hosts.len();
        // Per-host demand split by service class; interactive is served
        // first when a host saturates. Scratch is taken out of `self` so
        // the host loop below can borrow `self.hosts` mutably.
        let mut scratch = std::mem::take(&mut self.scratch);
        let host_interactive = &mut scratch.interactive;
        let host_batch = &mut scratch.batch;
        reset_zeroed(host_interactive, n);
        reset_zeroed(host_batch, n);
        let mut offered = 0.0f64;
        let mut offered_interactive = 0.0f64;
        let mut offered_batch = 0.0f64;
        let mut unserved_unplaced = 0.0f64;
        let mut unserved_interactive = 0.0f64;
        let mut unserved_batch = 0.0f64;

        for (i, &raw) in vm_demand_cores.iter().enumerate() {
            let vm = VmId(i as u32);
            let demand = raw.clamp(0.0, self.vms[i].cpu_cap_cores());
            offered += demand;
            let class = self.vms[i].service_class();
            match class {
                ServiceClass::Interactive => offered_interactive += demand,
                ServiceClass::Batch => offered_batch += demand,
            }
            match self.placement.host_of(vm) {
                Some(h) => match class {
                    ServiceClass::Interactive => host_interactive[h.index()] += demand,
                    ServiceClass::Batch => host_batch[h.index()] += demand,
                },
                None => {
                    unserved_unplaced += demand;
                    match class {
                        ServiceClass::Interactive => unserved_interactive += demand,
                        ServiceClass::Batch => unserved_batch += demand,
                    }
                }
            }
        }
        // Migration CPU tax on both endpoints — infrastructure overhead,
        // served ahead of VM demand (the hypervisor does not yield).
        let host_tax = &mut scratch.tax;
        reset_zeroed(host_tax, n);
        for m in self.migrations.iter().flatten() {
            host_tax[m.from.index()] += CPU_TAX_CORES;
            host_tax[m.to.index()] += CPU_TAX_CORES;
        }

        // Serve each host (tax first, then interactive, then batch) and
        // fold its served/unserved contributions in host-index order.
        let utilization = &mut out.host_utilization;
        let host_demand = &mut out.host_demand_cores;
        utilization.resize(n, 0.0);
        host_demand.resize(n, 0.0);
        let mut served = 0.0f64;
        let mut unserved = unserved_unplaced;
        for (i, host) in self.hosts.iter_mut().enumerate() {
            let (tax, interactive, batch) = (host_tax[i], host_interactive[i], host_batch[i]);
            let demand = tax + interactive + batch;
            host_demand[i] = demand;
            if host.is_operational() {
                let cap = host.capacity().cpu_cores;
                let mut remaining = cap;
                let served_tax = tax.min(remaining);
                remaining -= served_tax;
                let served_interactive = interactive.min(remaining);
                remaining -= served_interactive;
                let served_batch = batch.min(remaining);

                let s = served_tax + served_interactive + served_batch;
                served += s;
                unserved += demand - s;
                unserved_interactive += interactive - served_interactive;
                unserved_batch += batch - served_batch;
                utilization[i] = if cap > 0.0 { s / cap } else { 0.0 };
                host.power_mut().set_utilization(now, utilization[i]);
            } else {
                unserved += demand;
                unserved_interactive += interactive;
                unserved_batch += batch;
                utilization[i] = 0.0;
            }
        }
        // Migration tax is overhead, not offered VM demand; keep the
        // invariant offered = served + unserved by counting tax in both
        // offered and served.
        let total_tax: f64 = host_tax.iter().sum();
        offered += total_tax;

        self.scratch = scratch;
        // Every operational host's utilization (and thus draw) changed:
        // one mark for the aggregate draw cache plus one per rewritten
        // host, so downstream change-driven structures (the planner's
        // utilization index) can bound their per-round re-bucketing by
        // the marks actually charged here.
        self.power_stale.set(true);
        self.dirty_marks += 1 + self.on_count as u64;

        out.offered_cores = offered;
        out.served_cores = served;
        out.unserved_cores = unserved;
        out.offered_interactive_cores = offered_interactive;
        out.offered_batch_cores = offered_batch;
        out.unserved_interactive_cores = unserved_interactive;
        out.unserved_batch_cores = unserved_batch;
    }

    /// Brings every host's energy/residency accounting up to `now`.
    /// Call before reading metrics at the end of a run.
    pub fn sync(&mut self, now: SimTime) {
        for host in &mut self.hosts {
            host.power_mut().sync(now);
        }
    }

    /// Total cluster power draw right now, in watts.
    ///
    /// The value is the root of a fixed-shape pairwise tree: single-host
    /// transitions refresh one leaf, the per-tick demand sweep marks the
    /// tree stale and the next read rebuilds it. Both the rebuild and
    /// every point update reproduce [`pairwise_sum`] over the per-host
    /// draws bit-for-bit — the exact fold of the scan check.
    pub fn total_power_w(&self) -> f64 {
        if self.power_stale.get() {
            let hosts = &self.hosts;
            self.power_tree
                .borrow_mut()
                .rebuild(hosts.len(), |i| hosts[i].power().power_w());
            self.power_stale.set(false);
        }
        let v = self.power_tree.borrow().root();
        debug_assert_eq!(
            v.to_bits(),
            self.scan_total_power_w().to_bits(),
            "stale total-power tree"
        );
        v
    }

    /// Scan fold for [`total_power_w`](Self::total_power_w):
    /// the fixed-shape [`pairwise_sum`] over per-host draws that the
    /// incremental tree maintains under point updates.
    fn scan_total_power_w(&self) -> f64 {
        let hosts = &self.hosts;
        pairwise_sum(hosts.len(), |i| hosts[i].power().power_w())
    }

    /// Total cluster energy consumed so far, in joules.
    pub fn total_energy_j(&self) -> f64 {
        self.hosts.iter().map(|h| h.power().meter().total_j()).sum()
    }

    /// Total aggregate CPU capacity of operational hosts, in cores.
    ///
    /// Cached between power transitions; a host crossing the `On`
    /// boundary marks the cache dirty and the next read re-folds it.
    pub fn operational_capacity_cores(&self) -> f64 {
        if self.cap_dirty.get() {
            self.cap_cache.set(self.scan_operational_capacity_cores());
            self.cap_dirty.set(false);
        }
        let v = self.cap_cache.get();
        debug_assert_eq!(
            v.to_bits(),
            self.scan_operational_capacity_cores().to_bits(),
            "stale operational-capacity cache"
        );
        v
    }

    /// Scan fold for
    /// [`operational_capacity_cores`](Self::operational_capacity_cores)
    /// (also the cache's revalidation).
    fn scan_operational_capacity_cores(&self) -> f64 {
        self.hosts
            .iter()
            .filter(|h| h.is_operational())
            .map(|h| h.capacity().cpu_cores)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Resources;
    use power::HostPowerProfile;

    /// One demand round into a fresh outcome.
    fn apply(c: &mut Cluster, now: SimTime, vm_demand_cores: &[f64]) -> DemandOutcome {
        let mut out = DemandOutcome::default();
        c.apply_demand_into(now, vm_demand_cores, &mut out);
        out
    }

    fn small_cluster() -> Cluster {
        let hosts = vec![
            HostSpec::new(
                Resources::new(8.0, 32.0),
                HostPowerProfile::prototype_rack()
            );
            3
        ];
        let vms = vec![VmSpec::new(Resources::new(2.0, 8.0)); 6];
        Cluster::new(hosts, vms, SimTime::ZERO)
    }

    #[test]
    fn place_respects_memory() {
        let mut c = small_cluster();
        // 32 GB / 8 GB per VM -> 4 fit.
        for i in 0..4 {
            c.place(VmId(i), HostId(0)).unwrap();
        }
        let err = c.place(VmId(4), HostId(0)).unwrap_err();
        assert!(matches!(err, ClusterError::InsufficientCapacity { .. }));
        assert_eq!(c.mem_free_gb(HostId(0)), 0.0);
    }

    #[test]
    fn place_rejects_double_placement() {
        let mut c = small_cluster();
        c.place(VmId(0), HostId(0)).unwrap();
        assert_eq!(
            c.place(VmId(0), HostId(1)).unwrap_err(),
            ClusterError::VmAlreadyPlaced(VmId(0))
        );
    }

    #[test]
    fn migration_moves_vm_and_reserves_memory() {
        let mut c = small_cluster();
        c.place(VmId(0), HostId(0)).unwrap();
        let done = c
            .begin_migration(VmId(0), HostId(1), SimTime::ZERO)
            .unwrap();
        // Still on source mid-flight; memory reserved on destination.
        assert_eq!(c.placement().host_of(VmId(0)), Some(HostId(0)));
        assert_eq!(c.mem_committed_gb(HostId(1)), 8.0);
        assert!(!c.is_evacuated(HostId(1)));

        let m = c.complete_migration(VmId(0), done).unwrap();
        assert_eq!(m.from, HostId(0));
        assert_eq!(m.to, HostId(1));
        assert_eq!(c.placement().host_of(VmId(0)), Some(HostId(1)));
        assert!(c.is_evacuated(HostId(0)));
        assert_eq!(c.migrations_completed(), 1);
    }

    #[test]
    fn failed_migration_leaves_vm_on_source() {
        let mut c = small_cluster();
        c.place(VmId(0), HostId(0)).unwrap();
        let done = c
            .begin_migration(VmId(0), HostId(1), SimTime::ZERO)
            .unwrap();
        let m = c.fail_migration(VmId(0), done).unwrap();
        assert_eq!(m.from, HostId(0));
        assert_eq!(m.to, HostId(1));
        // VM never moved; the destination reservation is fully released.
        assert_eq!(c.placement().host_of(VmId(0)), Some(HostId(0)));
        assert_eq!(c.mem_committed_gb(HostId(0)), 8.0);
        assert_eq!(c.mem_committed_gb(HostId(1)), 0.0);
        assert!(c.is_evacuated(HostId(1)));
        assert_eq!(c.migrations_failed(), 1);
        assert_eq!(c.migrations_completed(), 0);
        assert!(c.migration_of(VmId(0)).is_none());
        // The VM can retry the same move afterwards.
        let done2 = c.begin_migration(VmId(0), HostId(1), done).unwrap();
        c.complete_migration(VmId(0), done2).unwrap();
        assert_eq!(c.placement().host_of(VmId(0)), Some(HostId(1)));
    }

    #[test]
    fn fail_migration_requires_in_flight() {
        let mut c = small_cluster();
        c.place(VmId(0), HostId(0)).unwrap();
        assert_eq!(
            c.fail_migration(VmId(0), SimTime::ZERO).unwrap_err(),
            ClusterError::VmMigrating(VmId(0))
        );
    }

    #[test]
    fn delayed_power_transition_stays_pending() {
        let mut c = small_cluster();
        let done = c
            .begin_power_transition(HostId(0), TransitionKind::Suspend, SimTime::ZERO)
            .unwrap();
        let stuck = done + simcore::SimDuration::from_secs(60);
        assert_eq!(c.delay_power_transition(HostId(0), stuck).unwrap(), done);
        // The old instant no longer completes; the stretched one fails.
        assert!(c.complete_power_transition(HostId(0), done).is_err());
        c.fail_power_transition(HostId(0), stuck).unwrap();
        assert_eq!(c.failed_transitions(), 1);
        assert!(c.host(HostId(0)).unwrap().is_operational());
    }

    #[test]
    fn migration_rejects_self_and_double() {
        let mut c = small_cluster();
        c.place(VmId(0), HostId(0)).unwrap();
        assert_eq!(
            c.begin_migration(VmId(0), HostId(0), SimTime::ZERO)
                .unwrap_err(),
            ClusterError::SelfMigration(VmId(0))
        );
        c.begin_migration(VmId(0), HostId(1), SimTime::ZERO)
            .unwrap();
        assert_eq!(
            c.begin_migration(VmId(0), HostId(2), SimTime::ZERO)
                .unwrap_err(),
            ClusterError::VmMigrating(VmId(0))
        );
    }

    #[test]
    fn power_down_requires_evacuation() {
        let mut c = small_cluster();
        c.place(VmId(0), HostId(0)).unwrap();
        assert_eq!(
            c.begin_power_transition(HostId(0), TransitionKind::Suspend, SimTime::ZERO)
                .unwrap_err(),
            ClusterError::HostNotEvacuated(HostId(0))
        );
        // Empty host suspends fine.
        let done = c
            .begin_power_transition(HostId(1), TransitionKind::Suspend, SimTime::ZERO)
            .unwrap();
        assert_eq!(
            c.complete_power_transition(HostId(1), done).unwrap(),
            PowerState::Suspended
        );
        assert_eq!(c.hosts_in_state(PowerState::Suspended), vec![HostId(1)]);
        assert_eq!(c.hosts_in_state(PowerState::On), vec![HostId(0), HostId(2)]);
    }

    #[test]
    fn cannot_place_on_suspended_host() {
        let mut c = small_cluster();
        let done = c
            .begin_power_transition(HostId(0), TransitionKind::Suspend, SimTime::ZERO)
            .unwrap();
        c.complete_power_transition(HostId(0), done).unwrap();
        assert_eq!(
            c.place(VmId(0), HostId(0)).unwrap_err(),
            ClusterError::HostNotOperational(HostId(0))
        );
        let mut c2 = small_cluster();
        c2.place(VmId(0), HostId(1)).unwrap();
        let done = c2
            .begin_power_transition(HostId(0), TransitionKind::Suspend, SimTime::ZERO)
            .unwrap();
        c2.complete_power_transition(HostId(0), done).unwrap();
        assert!(matches!(
            c2.begin_migration(VmId(0), HostId(0), done).unwrap_err(),
            ClusterError::HostNotOperational(_)
        ));
    }

    #[test]
    fn demand_accounting_balances() {
        let mut c = small_cluster();
        c.place(VmId(0), HostId(0)).unwrap();
        c.place(VmId(1), HostId(0)).unwrap();
        let mut demand = vec![0.0; 6];
        demand[0] = 1.5;
        demand[1] = 2.0;
        demand[2] = 1.0; // unplaced -> unserved
        let out = apply(&mut c, SimTime::from_secs(60), &demand);
        assert!((out.offered_cores - 4.5).abs() < 1e-9);
        assert!((out.served_cores - 3.5).abs() < 1e-9);
        assert!((out.unserved_cores - 1.0).abs() < 1e-9);
        assert!((out.host_utilization[0] - 3.5 / 8.0).abs() < 1e-9);
        assert_eq!(out.host_utilization[1], 0.0);
    }

    #[test]
    fn demand_clamps_to_vm_cap() {
        let mut c = small_cluster();
        c.place(VmId(0), HostId(0)).unwrap();
        let mut demand = vec![0.0; 6];
        demand[0] = 100.0; // cap is 2.0
        let out = apply(&mut c, SimTime::from_secs(1), &demand);
        assert!((out.offered_cores - 2.0).abs() < 1e-9);
    }

    #[test]
    fn interactive_served_before_batch_under_overload() {
        let hosts = vec![HostSpec::new(
            Resources::new(4.0, 128.0),
            HostPowerProfile::prototype_rack(),
        )];
        let vms = vec![
            VmSpec::new(Resources::new(3.0, 8.0)),
            VmSpec::new(Resources::new(3.0, 8.0)).with_class(ServiceClass::Batch),
        ];
        let mut c = Cluster::new(hosts, vms, SimTime::ZERO);
        c.place(VmId(0), HostId(0)).unwrap();
        c.place(VmId(1), HostId(0)).unwrap();
        // 6 cores demanded, 4 available: interactive fully served, batch
        // absorbs the whole shortfall.
        let out = apply(&mut c, SimTime::from_secs(1), &[3.0, 3.0]);
        assert!((out.unserved_interactive_cores - 0.0).abs() < 1e-9);
        assert!((out.unserved_batch_cores - 2.0).abs() < 1e-9);
        assert!((out.offered_interactive_cores - 3.0).abs() < 1e-9);
        assert!((out.offered_batch_cores - 3.0).abs() < 1e-9);
    }

    #[test]
    fn interactive_overload_spills_to_interactive() {
        let hosts = vec![HostSpec::new(
            Resources::new(4.0, 128.0),
            HostPowerProfile::prototype_rack(),
        )];
        let vms = vec![
            VmSpec::new(Resources::new(3.0, 8.0)),
            VmSpec::new(Resources::new(3.0, 8.0)),
        ];
        let mut c = Cluster::new(hosts, vms, SimTime::ZERO);
        c.place(VmId(0), HostId(0)).unwrap();
        c.place(VmId(1), HostId(0)).unwrap();
        let out = apply(&mut c, SimTime::from_secs(1), &[3.0, 3.0]);
        assert!((out.unserved_interactive_cores - 2.0).abs() < 1e-9);
        assert_eq!(out.unserved_batch_cores, 0.0);
    }

    #[test]
    fn overload_produces_unserved() {
        let hosts = vec![HostSpec::new(
            Resources::new(4.0, 128.0),
            HostPowerProfile::prototype_rack(),
        )];
        let vms = vec![VmSpec::new(Resources::new(3.0, 8.0)); 2];
        let mut c = Cluster::new(hosts, vms, SimTime::ZERO);
        c.place(VmId(0), HostId(0)).unwrap();
        c.place(VmId(1), HostId(0)).unwrap();
        let out = apply(&mut c, SimTime::from_secs(1), &[3.0, 3.0]);
        assert!((out.offered_cores - 6.0).abs() < 1e-9);
        assert!((out.served_cores - 4.0).abs() < 1e-9);
        assert!((out.unserved_cores - 2.0).abs() < 1e-9);
        assert_eq!(out.host_utilization[0], 1.0);
    }

    #[test]
    fn migrations_run_at_one_operating_point() {
        use simcore::SimDuration;
        // mem × 8 × 1.3 / 10 Gb/s, floored at 1 s.
        assert_eq!(migration::duration_for(0.01), SimDuration::from_secs(1));
        let hosts = vec![
            HostSpec::new(
                Resources::new(16.0, 64.0),
                HostPowerProfile::prototype_rack()
            );
            8
        ];
        let mem = [2.0, 8.0, 32.0, 8.0];
        let vms = mem
            .iter()
            .map(|&gb| VmSpec::new(Resources::new(2.0, gb)))
            .collect();
        let mut c = Cluster::new(hosts, vms, SimTime::ZERO);
        // Every VM migrates at once, host i to host i + 4: no migration
        // slows another, so both 8 GB VMs take the same time.
        let millis: Vec<u64> = (0..4)
            .map(|i| {
                c.place(VmId(i), HostId(i)).unwrap();
                let done = c
                    .begin_migration(VmId(i), HostId(i + 4), SimTime::ZERO)
                    .unwrap();
                done.since(SimTime::ZERO).as_millis()
            })
            .collect();
        assert_eq!(millis, [2080, 8320, 33_280, 8320]);
        // A migrating VM's demand stays on its source, and both endpoints
        // of every copy pay the 0.5-core tax on top of it.
        let out = apply(&mut c, SimTime::from_secs(1), &[1.0, 0.0, 0.0, 0.0]);
        assert_eq!(
            out.host_demand_cores,
            [1.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5]
        );
    }

    #[test]
    fn energy_and_power_aggregate() {
        let mut c = small_cluster();
        let idle = HostPowerProfile::prototype_rack().curve().idle_w();
        assert!((c.total_power_w() - 3.0 * idle).abs() < 1e-9);
        c.sync(SimTime::from_secs(100));
        assert!((c.total_energy_j() - 3.0 * idle * 100.0).abs() < 1e-6);
    }

    #[test]
    fn capacity_queries() {
        let c = small_cluster();
        assert_eq!(c.operational_capacity_cores(), 24.0);
    }

    /// Compares every incremental read with its scan fold bitwise — what
    /// the accessors' `debug_assert`s do, but in release test builds too.
    fn probe(c: &Cluster, step: &str) {
        let mut reads = vec![
            (c.total_power_w(), c.scan_total_power_w()),
            (
                c.operational_capacity_cores(),
                c.scan_operational_capacity_cores(),
            ),
            (
                c.num_operational_hosts() as f64,
                c.scan_num_operational_hosts() as f64,
            ),
        ];
        reads.extend(
            c.host_ids()
                .map(|h| (c.mem_committed_gb(h), c.scan_mem_committed_gb(h))),
        );
        for (k, (read, scan)) in reads.into_iter().enumerate() {
            assert_eq!(
                read.to_bits(),
                scan.to_bits(),
                "{step}: read {k} {read} vs scan {scan}"
            );
        }
        for mem_gb in [0.0, 8.0, 24.0, 33.0] {
            let (read, scan) = (c.most_free_host(mem_gb), c.scan_most_free_host(mem_gb));
            assert_eq!(read, scan, "{step}: most free host for {mem_gb} GB");
        }
    }

    /// Drives one cluster through placements, migrations, power cycles,
    /// and demand, checking every aggregate read against its scan fold
    /// after each step.
    #[test]
    fn incremental_accounting_matches_scan_bitwise() {
        let mut c = small_cluster();
        c.place(VmId(0), HostId(0)).unwrap();
        c.place(VmId(1), HostId(0)).unwrap();
        c.place(VmId(2), HostId(1)).unwrap();
        probe(&c, "placed");
        let done = c
            .begin_migration(VmId(2), HostId(0), SimTime::ZERO)
            .unwrap();
        probe(&c, "migration begun");
        apply(
            &mut c,
            SimTime::from_secs(1),
            &[1.5, 0.5, 1.0, 0.0, 0.0, 0.0],
        );
        probe(&c, "demand mid-migration");
        c.complete_migration(VmId(2), done).unwrap();
        c.unplace(VmId(1)).unwrap();
        probe(&c, "migration completed");
        let off = c
            .begin_power_transition(HostId(1), TransitionKind::Suspend, done)
            .unwrap();
        probe(&c, "suspend begun");
        c.complete_power_transition(HostId(1), off).unwrap();
        apply(&mut c, off, &[2.0, 0.0, 0.5, 0.0, 0.0, 0.0]);
        probe(&c, "suspended");
        let on = c
            .begin_power_transition(
                HostId(1),
                TransitionKind::Resume,
                off + simcore::SimDuration::from_secs(600),
            )
            .unwrap();
        c.fail_power_transition(HostId(1), on).unwrap();
        probe(&c, "failed resume");
    }

    #[test]
    fn apply_demand_into_reuses_buffers() {
        let mut c = small_cluster();
        c.place(VmId(0), HostId(0)).unwrap();
        let demand = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let reference = apply(&mut c, SimTime::from_secs(1), &demand);
        // A reused (dirty) outcome buffer must produce identical results.
        let mut out = DemandOutcome {
            offered_cores: 99.0,
            host_utilization: vec![7.0; 9],
            host_demand_cores: vec![3.0; 1],
            ..DemandOutcome::default()
        };
        c.apply_demand_into(SimTime::from_secs(2), &demand, &mut out);
        assert_eq!(out.host_utilization.len(), c.num_hosts());
        assert_eq!(out.offered_cores, reference.offered_cores);
        assert_eq!(out.host_utilization, reference.host_utilization);
        assert_eq!(out.host_demand_cores, reference.host_demand_cores);
    }
}
