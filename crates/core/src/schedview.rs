//! Per-scheduler partitioned views of the fleet.
//!
//! Each scheduler in the distributed control plane owns one fixed,
//! contiguous host partition (built with `simcore::pool::shard_ranges`)
//! and plans over the **whole** fleet — but while its own partition is
//! observed fresh every round, the remote partitions are seen through a
//! configurably-stale snapshot. This module builds that merged view and
//! classifies planned actions by partition ownership.
//!
//! Two properties matter for reproducibility:
//!
//! * the merge is a pure index-wise splice of two observations, so a
//!   scheduler's view is a deterministic function of
//!   `(fresh, stale, partition)`; and
//! * when one scheduler owns every host, the merge degenerates to the
//!   fresh observation regardless of the staleness setting — which is
//!   why `schedulers = 1` produces the same report at *any* configured
//!   staleness.

use std::ops::Range;

use crate::action::ManagementAction;
use crate::observation::ClusterObservation;

/// Splices a scheduler's merged view into `into`: fresh entries for the
/// owned host partition (and for VMs whose fresh host is owned, plus
/// unplaced VMs), stale entries for everything else.
///
/// `fresh` and `stale` must describe the same fleet (same host/VM index
/// spaces); the simulator guarantees that by snapshotting its own
/// observation buffer.
pub fn merge_view(
    into: &mut ClusterObservation,
    fresh: &ClusterObservation,
    stale: &ClusterObservation,
    owned: &Range<usize>,
) {
    debug_assert_eq!(fresh.hosts.len(), stale.hosts.len(), "host spaces differ");
    debug_assert_eq!(fresh.vms.len(), stale.vms.len(), "vm spaces differ");
    into.now = fresh.now;
    into.hosts.clear();
    into.hosts.extend(
        fresh
            .hosts
            .iter()
            .zip(&stale.hosts)
            .enumerate()
            .map(|(i, (f, s))| if owned.contains(&i) { *f } else { *s }),
    );
    into.vms.splice(&fresh.vms, &stale.vms, |h| match h {
        Some(h) => owned.contains(&h.index()),
        // Unplaced VMs belong to no partition; everyone sees them fresh.
        None => true,
    });
}

/// Whether `action` falls inside the scheduler's own partition, judged
/// from the scheduler's *view* (its belief): a migration belongs to the
/// owner of the VM's current host, a power action to the owner of the
/// host. The commit-time conflict check re-verifies against ground
/// truth, so a stale belief here costs a rejected commit, never a
/// misrouted action.
pub fn owns_action(
    view: &ClusterObservation,
    owned: &Range<usize>,
    action: &ManagementAction,
) -> bool {
    match *action {
        ManagementAction::Migrate { vm, .. } => view
            .vms
            .host()
            .get(vm.index())
            .copied()
            .flatten()
            .is_some_and(|h| owned.contains(&h.index())),
        ManagementAction::PowerUp { host } | ManagementAction::PowerDown { host, .. } => {
            owned.contains(&host.index())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::{HostObservation, VmObservation};
    use cluster::{HostId, VmId};
    use simcore::SimTime;

    /// Hosts tagged with `tag` GB committed and VMs with `tag` cores of
    /// demand, so fresh and stale entries are told apart.
    fn obs(now_secs: u64, tag: f64, hosts: usize, vm_hosts: &[Option<u32>]) -> ClusterObservation {
        ClusterObservation {
            now: SimTime::from_secs(now_secs),
            hosts: vec![
                HostObservation {
                    mem_committed: tag,
                    ..HostObservation::default()
                };
                hosts
            ],
            vms: vm_hosts
                .iter()
                .map(|h| VmObservation {
                    host: h.map(HostId),
                    cpu_demand: tag,
                    ..VmObservation::default()
                })
                .collect(),
        }
    }

    #[test]
    fn merge_splices_fresh_owned_and_stale_remote() {
        let fresh = obs(100, 2.0, 4, &[Some(0), Some(3), None]);
        let stale = obs(40, 1.0, 4, &[Some(0), Some(1), Some(2)]);
        let mut view = ClusterObservation::default();
        merge_view(&mut view, &fresh, &stale, &(0..2));
        assert_eq!(view.now, fresh.now);
        // Hosts 0-1 fresh, hosts 2-3 stale.
        let tags: Vec<f64> = view.hosts.iter().map(|h| h.mem_committed).collect();
        assert_eq!(tags, [2.0, 2.0, 1.0, 1.0]);
        // VM 0 sits on an owned host: fresh. VM 1 moved to remote host 3:
        // stale entry (which still believes host 1). VM 2 is unplaced in
        // the fresh view: fresh wins.
        assert_eq!(view.vms.cpu_demand(), &[2.0, 1.0, 2.0]);
        assert_eq!(view.vms.host(), &[Some(HostId(0)), Some(HostId(1)), None]);
    }

    #[test]
    fn full_partition_merge_is_the_fresh_view() {
        let fresh = obs(100, 2.0, 3, &[Some(0), Some(2)]);
        let stale = obs(40, 1.0, 3, &[Some(1), Some(1)]);
        let mut view = ClusterObservation::default();
        merge_view(&mut view, &fresh, &stale, &(0..3));
        assert_eq!(view.hosts, fresh.hosts);
        assert_eq!(view.vms, fresh.vms);
        assert_eq!(view.now, fresh.now);
    }

    #[test]
    fn ownership_follows_the_viewed_source_host() {
        let view = obs(0, 1.0, 4, &[Some(1), Some(3), None]);
        let owned = 0..2usize;
        let mine = ManagementAction::Migrate {
            vm: VmId(0),
            to: HostId(3),
        };
        let remote = ManagementAction::Migrate {
            vm: VmId(1),
            to: HostId(0),
        };
        let unplaced = ManagementAction::Migrate {
            vm: VmId(2),
            to: HostId(0),
        };
        assert!(owns_action(&view, &owned, &mine), "source host 1 is owned");
        assert!(!owns_action(&view, &owned, &remote));
        assert!(!owns_action(&view, &owned, &unplaced));
        assert!(owns_action(
            &view,
            &owned,
            &ManagementAction::PowerUp { host: HostId(1) }
        ));
        assert!(!owns_action(
            &view,
            &owned,
            &ManagementAction::PowerUp { host: HostId(2) }
        ));
    }
}
