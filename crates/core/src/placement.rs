//! The placement store: the conflict check at the commit point of the
//! [`ControlPlane`](crate::ControlPlane).
//!
//! With one scheduler over a fresh view, plans are self-consistent by
//! construction — the planner saw the whole fleet an instant ago and
//! never claims the same VM or the same host headroom twice in one round. With N
//! schedulers planning concurrently over partially-stale views (and with
//! a control-loop latency between planning and committing), that
//! guarantee disappears: two schedulers can race for the headroom of one
//! destination host, a scheduler can re-plan a migration that is already
//! in flight, or it can try to park a host another scheduler is about to
//! fill. The [`PlacementStore`] is the single arbiter that turns those
//! races into deterministic, attributable rejections.
//!
//! ## Commit protocol
//!
//! Each due round the control plane opens a claim round
//! ([`PlacementStore::begin_round`]) and presents one batch per
//! scheduler, in scheduler order, action order within a batch.
//! [`PlacementStore::admit`] checks every action against
//!
//! * **ground truth** at commit time (a [`PlacementFacts`] adapter over
//!   the live cluster), which catches stale beliefs: the VM moved, the
//!   destination died, the host is mid-transition; and
//! * the **claim ledger** of the current round, which catches races
//!   *between* schedulers in the same round: the same VM moved twice, the
//!   same host headroom consumed twice, power actions colliding with
//!   inbound migrations.
//!
//! Accepted actions update the claims (they fold in arbitration order:
//! scheduler id, then plan order); rejected actions are dropped with a
//! [`ConflictReason`] and the owning scheduler simply re-plans from a
//! fresher view next round. Because arbitration order is a pure function
//! of the batch contents, the whole control plane stays bit-reproducible
//! at any scheduler count. The store counts nothing: the control plane
//! keeps the commit ledger, the fate of every planned action.
//!
//! The headroom check mirrors the planner's own admission arithmetic
//! (`mem_committed + vm_mem > mem_capacity + 1e-9`, destination-add with
//! no source-subtract until the migration completes) bit-for-bit, so a
//! single fresh scheduler — `schedulers = 1, staleness = 0, latency = 0`,
//! the default every managed run uses — has every action admitted (the
//! differential suite's lone-scheduler property checks exactly that).

use std::ops::Range;

use cluster::{HostId, VmId};
use power::PowerState;

use crate::action::ManagementAction;

/// Ground truth the store consults at commit time. Implemented by the
/// simulator as a thin adapter over the live cluster (and by tests as a
/// table).
pub trait PlacementFacts {
    /// Current host of `vm`, `None` when unplaced.
    fn host_of(&self, vm: VmId) -> Option<HostId>;
    /// Whether `vm` is currently mid-migration.
    fn is_migrating(&self, vm: VmId) -> bool;
    /// Memory footprint of `vm` in GB.
    fn vm_mem_gb(&self, vm: VmId) -> f64;
    /// Memory currently committed on `host` in GB (in-flight inbound
    /// migrations included).
    fn mem_committed_gb(&self, host: HostId) -> f64;
    /// Memory capacity of `host` in GB.
    fn mem_capacity_gb(&self, host: HostId) -> f64;
    /// Whether `host` is powered on and able to run VMs.
    fn is_operational(&self, host: HostId) -> bool;
    /// Current power state of `host`.
    fn power_state(&self, host: HostId) -> PowerState;
    /// Whether `host` has a power transition in flight.
    fn has_pending_transition(&self, host: HostId) -> bool;
    /// Whether `host` currently runs no VMs.
    fn is_evacuated(&self, host: HostId) -> bool;
}

/// Why the store refused to commit an action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ConflictReason {
    /// The VM is unplaced, already mid-migration, or already sits on the
    /// planned destination — the plan's belief about it is out of date.
    VmBusy,
    /// Another scheduler already claimed a move of this VM this round.
    VmRace,
    /// The VM's current host lies outside the committing scheduler's
    /// partition — it moved since the plan was computed.
    NotOwner,
    /// The migration destination is not operational (or was claimed for
    /// power-down earlier this round).
    DestUnavailable,
    /// Admitting the VM would overcommit the destination's memory once
    /// the claims already accepted this round are counted.
    Headroom,
    /// The host's power state was already claimed this round (or it was
    /// claimed as a migration destination and may no longer park).
    PowerClash,
    /// The host's observed power state no longer matches what the action
    /// assumes (wrong state for a wake, busy/occupied for a park).
    PowerStale,
}

impl ConflictReason {
    /// Stable machine-readable label (used in event JSON and counters).
    pub fn label(self) -> &'static str {
        match self {
            ConflictReason::VmBusy => "vm-busy",
            ConflictReason::VmRace => "vm-race",
            ConflictReason::NotOwner => "not-owner",
            ConflictReason::DestUnavailable => "dest-unavailable",
            ConflictReason::Headroom => "headroom",
            ConflictReason::PowerClash => "power-clash",
            ConflictReason::PowerStale => "power-stale",
        }
    }

    /// Inverse of [`label`](Self::label).
    pub fn from_label(label: &str) -> Option<ConflictReason> {
        Some(match label {
            "vm-busy" => ConflictReason::VmBusy,
            "vm-race" => ConflictReason::VmRace,
            "not-owner" => ConflictReason::NotOwner,
            "dest-unavailable" => ConflictReason::DestUnavailable,
            "headroom" => ConflictReason::Headroom,
            "power-clash" => ConflictReason::PowerClash,
            "power-stale" => ConflictReason::PowerStale,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ConflictReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The shared, conflict-checked placement store (see the module docs for
/// the protocol).
///
/// The per-round claim ledger is reset in O(claims), not O(fleet):
/// every touched slot is remembered and cleared on
/// [`begin_round`](Self::begin_round), so a quiet round costs nothing
/// even at 65536 hosts.
#[derive(Debug)]
pub(crate) struct PlacementStore {
    /// VMs claimed for migration this round.
    vm_claimed: Vec<bool>,
    touched_vms: Vec<usize>,
    /// Hosts whose power state was claimed this round.
    power_claimed: Vec<bool>,
    /// Hosts claimed as migration destinations this round (may not park).
    inbound_claimed: Vec<bool>,
    /// Hosts with a power or inbound claim this round (cleared by
    /// [`begin_round`](Self::begin_round)).
    claimed_hosts: Vec<usize>,
    /// Lazily-materialized committed-memory view of destination hosts,
    /// seeded from ground truth on first touch and advanced per accepted
    /// claim — mirrors the planner's own `mem_committed` arithmetic.
    mem_view: Vec<f64>,
    mem_loaded: Vec<bool>,
    touched_mem: Vec<usize>,
}

impl PlacementStore {
    /// A store for a fleet of `num_hosts` hosts and `num_vms` VMs.
    pub(crate) fn new(num_hosts: usize, num_vms: usize) -> Self {
        PlacementStore {
            vm_claimed: vec![false; num_vms],
            touched_vms: Vec::new(),
            power_claimed: vec![false; num_hosts],
            inbound_claimed: vec![false; num_hosts],
            claimed_hosts: Vec::new(),
            mem_view: vec![0.0; num_hosts],
            mem_loaded: vec![false; num_hosts],
            touched_mem: Vec::new(),
        }
    }

    /// Opens a new commit round: clears the claim ledger (in O(claims)
    /// of the previous round).
    pub(crate) fn begin_round(&mut self) {
        for &vm in &self.touched_vms {
            self.vm_claimed[vm] = false;
        }
        self.touched_vms.clear();
        for &h in &self.claimed_hosts {
            self.power_claimed[h] = false;
            self.inbound_claimed[h] = false;
        }
        self.claimed_hosts.clear();
        for &h in &self.touched_mem {
            self.mem_loaded[h] = false;
        }
        self.touched_mem.clear();
    }

    /// Checks one action against ground truth and the round's claim
    /// ledger; on success the claims are recorded, on failure the caller
    /// must drop the action.
    ///
    /// `owned` is the committing scheduler's host partition; it gates
    /// migration sources (the VM's *actual* host must be owned — a stale
    /// belief that it still is gets a [`ConflictReason::NotOwner`]).
    /// Power-action ownership is already enforced by the plan-time
    /// filter, since host partitions are static.
    ///
    /// # Errors
    ///
    /// Returns the [`ConflictReason`] that refused the action.
    pub(crate) fn admit<F: PlacementFacts>(
        &mut self,
        owned: &Range<usize>,
        action: &ManagementAction,
        facts: &F,
    ) -> Result<(), ConflictReason> {
        let verdict = self.check(owned, action, facts);
        if verdict.is_ok() {
            self.claim(action, facts);
        }
        verdict
    }

    fn check<F: PlacementFacts>(
        &self,
        owned: &Range<usize>,
        action: &ManagementAction,
        facts: &F,
    ) -> Result<(), ConflictReason> {
        match *action {
            ManagementAction::Migrate { vm, to } => {
                let Some(source) = facts.host_of(vm) else {
                    return Err(ConflictReason::VmBusy);
                };
                if facts.is_migrating(vm) || source == to {
                    return Err(ConflictReason::VmBusy);
                }
                if !owned.contains(&source.index()) {
                    return Err(ConflictReason::NotOwner);
                }
                if self.vm_claimed[vm.index()] {
                    return Err(ConflictReason::VmRace);
                }
                if !facts.is_operational(to) || self.power_claimed[to.index()] {
                    return Err(ConflictReason::DestUnavailable);
                }
                let committed = if self.mem_loaded[to.index()] {
                    self.mem_view[to.index()]
                } else {
                    facts.mem_committed_gb(to)
                };
                // Bitwise the planner's own admission line (`can_accept`).
                if committed + facts.vm_mem_gb(vm) > facts.mem_capacity_gb(to) + 1e-9 {
                    return Err(ConflictReason::Headroom);
                }
                Ok(())
            }
            ManagementAction::PowerUp { host } => {
                if self.power_claimed[host.index()] {
                    return Err(ConflictReason::PowerClash);
                }
                if facts.has_pending_transition(host) {
                    return Err(ConflictReason::PowerStale);
                }
                match facts.power_state(host) {
                    PowerState::PackageIdle | PowerState::Suspended | PowerState::Off => Ok(()),
                    _ => Err(ConflictReason::PowerStale),
                }
            }
            ManagementAction::PowerDown { host, .. } => {
                if self.power_claimed[host.index()] || self.inbound_claimed[host.index()] {
                    return Err(ConflictReason::PowerClash);
                }
                if facts.has_pending_transition(host)
                    || !facts.is_operational(host)
                    || !facts.is_evacuated(host)
                {
                    return Err(ConflictReason::PowerStale);
                }
                Ok(())
            }
        }
    }

    fn claim<F: PlacementFacts>(&mut self, action: &ManagementAction, facts: &F) {
        match *action {
            ManagementAction::Migrate { vm, to } => {
                self.vm_claimed[vm.index()] = true;
                self.touched_vms.push(vm.index());
                let base = if self.mem_loaded[to.index()] {
                    self.mem_view[to.index()]
                } else {
                    self.mem_loaded[to.index()] = true;
                    self.touched_mem.push(to.index());
                    facts.mem_committed_gb(to)
                };
                self.mem_view[to.index()] = base + facts.vm_mem_gb(vm);
                if !self.inbound_claimed[to.index()] {
                    self.inbound_claimed[to.index()] = true;
                    self.claimed_hosts.push(to.index());
                }
            }
            ManagementAction::PowerUp { host } | ManagementAction::PowerDown { host, .. } => {
                if !self.power_claimed[host.index()] {
                    self.power_claimed[host.index()] = true;
                    self.claimed_hosts.push(host.index());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use power::breakeven::LowPowerMode;

    /// A table-backed facts world for exercising the store directly.
    struct World {
        host_of: Vec<Option<HostId>>,
        migrating: Vec<bool>,
        vm_mem: Vec<f64>,
        mem_committed: Vec<f64>,
        mem_capacity: Vec<f64>,
        operational: Vec<bool>,
        state: Vec<PowerState>,
        pending: Vec<bool>,
    }

    impl World {
        fn new(hosts: usize, vms: usize) -> Self {
            World {
                host_of: vec![Some(HostId(0)); vms],
                migrating: vec![false; vms],
                vm_mem: vec![8.0; vms],
                mem_committed: vec![0.0; hosts],
                mem_capacity: vec![32.0; hosts],
                operational: vec![true; hosts],
                state: vec![PowerState::On; hosts],
                pending: vec![false; hosts],
            }
        }
    }

    impl PlacementFacts for World {
        fn host_of(&self, vm: VmId) -> Option<HostId> {
            self.host_of[vm.index()]
        }
        fn is_migrating(&self, vm: VmId) -> bool {
            self.migrating[vm.index()]
        }
        fn vm_mem_gb(&self, vm: VmId) -> f64 {
            self.vm_mem[vm.index()]
        }
        fn mem_committed_gb(&self, host: HostId) -> f64 {
            self.mem_committed[host.index()]
        }
        fn mem_capacity_gb(&self, host: HostId) -> f64 {
            self.mem_capacity[host.index()]
        }
        fn is_operational(&self, host: HostId) -> bool {
            self.operational[host.index()]
        }
        fn power_state(&self, host: HostId) -> PowerState {
            self.state[host.index()]
        }
        fn has_pending_transition(&self, host: HostId) -> bool {
            self.pending[host.index()]
        }
        fn is_evacuated(&self, host: HostId) -> bool {
            !self
                .host_of
                .iter()
                .any(|h| *h == Some(host) && self.operational[host.index()])
        }
    }

    fn migrate(vm: u32, to: u32) -> ManagementAction {
        ManagementAction::Migrate {
            vm: VmId(vm),
            to: HostId(to),
        }
    }

    #[test]
    fn fresh_self_consistent_batch_is_fully_admitted() {
        let world = World::new(4, 4);
        let mut store = PlacementStore::new(4, 4);
        store.begin_round();
        let all = 0..4usize;
        assert_eq!(store.admit(&all, &migrate(0, 1), &world), Ok(()));
        assert_eq!(store.admit(&all, &migrate(1, 2), &world), Ok(()));
        assert_eq!(
            store.admit(&all, &ManagementAction::PowerUp { host: HostId(3) }, &world),
            Err(ConflictReason::PowerStale),
            "waking an On host is stale"
        );
    }

    #[test]
    fn second_claim_of_a_vm_is_a_race() {
        let world = World::new(4, 4);
        let mut store = PlacementStore::new(4, 4);
        store.begin_round();
        let left = 0..2usize;
        assert_eq!(store.admit(&left, &migrate(0, 1), &world), Ok(()));
        assert_eq!(
            store.admit(&left, &migrate(0, 2), &world),
            Err(ConflictReason::VmRace)
        );
        // Next round the claim is released.
        store.begin_round();
        assert_eq!(store.admit(&left, &migrate(0, 2), &world), Ok(()));
    }

    #[test]
    fn headroom_claims_accumulate_across_schedulers() {
        let mut world = World::new(3, 4);
        world.mem_capacity[2] = 20.0;
        world.vm_mem = vec![12.0; 4];
        // VMs live on different hosts so each migration has a distinct owner.
        world.host_of = vec![
            Some(HostId(0)),
            Some(HostId(1)),
            Some(HostId(0)),
            Some(HostId(1)),
        ];
        let mut store = PlacementStore::new(3, 4);
        store.begin_round();
        // Scheduler 0 fills host 2 (12 of 20 GB)…
        assert_eq!(store.admit(&(0..1), &migrate(0, 2), &world), Ok(()));
        // …so scheduler 1's race for the same headroom must lose.
        assert_eq!(
            store.admit(&(1..2), &migrate(1, 2), &world),
            Err(ConflictReason::Headroom)
        );
    }

    #[test]
    fn stale_source_belief_is_not_owner() {
        let mut world = World::new(4, 2);
        world.host_of[0] = Some(HostId(3)); // actually moved to a remote host
        let mut store = PlacementStore::new(4, 2);
        store.begin_round();
        assert_eq!(
            store.admit(&(0..2), &migrate(0, 1), &world),
            Err(ConflictReason::NotOwner)
        );
    }

    #[test]
    fn in_flight_vm_and_noop_move_are_busy() {
        let mut world = World::new(4, 2);
        world.migrating[0] = true;
        let mut store = PlacementStore::new(4, 2);
        store.begin_round();
        let all = 0..4usize;
        assert_eq!(
            store.admit(&all, &migrate(0, 1), &world),
            Err(ConflictReason::VmBusy)
        );
        assert_eq!(
            store.admit(&all, &migrate(1, 0), &world),
            Err(ConflictReason::VmBusy),
            "vm 1 already sits on host 0"
        );
    }

    #[test]
    fn park_collides_with_inbound_migration() {
        let mut world = World::new(4, 2);
        world.host_of = vec![Some(HostId(0)), Some(HostId(2))];
        let mut store = PlacementStore::new(4, 2);
        store.begin_round();
        let all = 0..4usize;
        assert_eq!(store.admit(&all, &migrate(0, 1), &world), Ok(()));
        assert_eq!(
            store.admit(
                &all,
                &ManagementAction::PowerDown {
                    host: HostId(1),
                    mode: LowPowerMode::Suspend,
                },
                &world,
            ),
            Err(ConflictReason::PowerClash)
        );
        // And the reverse: migrating onto a host parked this round fails.
        assert_eq!(
            store.admit(
                &all,
                &ManagementAction::PowerDown {
                    host: HostId(3),
                    mode: LowPowerMode::Suspend,
                },
                &world,
            ),
            Ok(())
        );
        assert_eq!(
            store.admit(&all, &migrate(1, 3), &world),
            Err(ConflictReason::DestUnavailable)
        );
    }

    #[test]
    fn conflict_labels_round_trip() {
        for reason in [
            ConflictReason::VmBusy,
            ConflictReason::VmRace,
            ConflictReason::NotOwner,
            ConflictReason::DestUnavailable,
            ConflictReason::Headroom,
            ConflictReason::PowerClash,
            ConflictReason::PowerStale,
        ] {
            assert_eq!(ConflictReason::from_label(reason.label()), Some(reason));
        }
        assert_eq!(ConflictReason::from_label("nope"), None);
    }
}
