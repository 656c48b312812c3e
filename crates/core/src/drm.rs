//! Base distributed resource management: overload mitigation and load
//! balancing.
//!
//! This is the widely-deployed baseline the paper builds on (DRS-class
//! load balancing), in two steps:
//!
//! 1. **Overload mitigation** — when a host's predicted utilization
//!    exceeds the overload threshold, migrate VMs away until it is back
//!    under the target, placing them on the least-loaded feasible hosts.
//! 2. **Rebalancing** — when the utilization spread between the hottest
//!    and coldest active host exceeds the imbalance threshold, trickle
//!    VMs from hot to cold. This gives base DRM its steady background
//!    action rate — the overhead bar the paper's power manager is
//!    compared against (experiment T9).

use cluster::{HostId, VmId};

use crate::plan::PlanContext;
use crate::{ManagementAction, ManagerConfig};

/// Utilization spread (hottest minus coldest active host) beyond which
/// DRM rebalances even without an overload.
const IMBALANCE_THRESHOLD: f64 = 0.25;

/// Plans migrations that relieve overloaded hosts.
///
/// Mutates `ctx` to reflect the tentative moves, appends the actions, and
/// decrements `budget` per migration. Hosts are handled worst-first; on
/// each host, the largest movable VMs leave first (fastest relief per
/// migration).
pub(crate) fn mitigate_overloads(
    ctx: &mut PlanContext,
    cfg: &ManagerConfig,
    actions: &mut Vec<ManagementAction>,
    budget: &mut usize,
) {
    // Worst offenders first.
    let mut overloaded: Vec<usize> = (0..ctx.num_hosts())
        .filter(|&h| ctx.operational[h] && ctx.util(h) > cfg.overload_threshold())
        .collect();
    overloaded.sort_by(|&a, &b| {
        ctx.util(b)
            .partial_cmp(&ctx.util(a))
            .expect("utilization is finite")
    });

    for host in overloaded {
        // Batch victims first, largest first within each class.
        let candidates = ctx.disruption_candidates(host);
        for vm in candidates {
            if *budget == 0 {
                return;
            }
            if ctx.util(host) <= cfg.target_utilization() {
                break;
            }
            let Some(dest) = ctx.least_loaded_destination(vm, cfg) else {
                continue; // this VM fits nowhere; try a smaller one
            };
            ctx.move_vm(vm, dest);
            ctx.work.migrations_planned += 1;
            actions.push(ManagementAction::Migrate {
                vm: VmId(vm as u32),
                to: HostId(dest as u32),
            });
            *budget -= 1;
        }
    }
}

/// How many rebalancing moves one round may make — a trickle, so base
/// DRM stays cheap.
const REBALANCE_MOVES_PER_ROUND: usize = 2;

/// Plans load-balancing migrations from the hottest active hosts to the
/// coldest while the utilization spread exceeds the imbalance threshold.
pub(crate) fn rebalance(
    ctx: &mut PlanContext,
    cfg: &ManagerConfig,
    actions: &mut Vec<ManagementAction>,
    budget: &mut usize,
) {
    for _ in 0..REBALANCE_MOVES_PER_ROUND {
        if *budget == 0 {
            return;
        }
        let active: Vec<usize> = (0..ctx.num_hosts())
            .filter(|&h| ctx.operational[h] && !ctx.draining[h])
            .collect();
        if active.len() < 2 {
            return;
        }
        let by_util = |&a: &usize, &b: &usize| {
            ctx.util(a)
                .partial_cmp(&ctx.util(b))
                .expect("utilization is finite")
        };
        let hottest = *active
            .iter()
            .max_by(|a, b| by_util(a, b))
            .expect("non-empty");
        let coldest = *active
            .iter()
            .min_by(|a, b| by_util(a, b))
            .expect("non-empty");
        let spread = ctx.util(hottest) - ctx.util(coldest);
        if spread <= IMBALANCE_THRESHOLD {
            return;
        }
        // Move the VM whose size best halves the spread without
        // overshooting: the largest VM at most half the gap (in cores).
        let gap_cores = spread * ctx.cpu_capacity[hottest] / 2.0;
        let vm = ctx
            .movable_vms(hottest)
            .into_iter()
            .filter(|&v| ctx.predicted_vm[v] <= gap_cores && ctx.can_accept(coldest, v, cfg))
            .max_by(|&a, &b| {
                ctx.predicted_vm[a]
                    .partial_cmp(&ctx.predicted_vm[b])
                    .expect("prediction is finite")
            });
        let Some(vm) = vm else {
            return; // nothing movable closes the gap
        };
        ctx.move_vm(vm, coldest);
        ctx.work.migrations_planned += 1;
        actions.push(ManagementAction::Migrate {
            vm: VmId(vm as u32),
            to: HostId(coldest as u32),
        });
        *budget -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterObservation, HostObservation, PowerPolicy, VmObservation};
    use power::PowerState;
    use simcore::SimTime;

    fn obs(host_demands: &[&[f64]]) -> (ClusterObservation, Vec<f64>) {
        let mut hosts = Vec::new();
        let mut vms = Vec::new();
        let mut preds = Vec::new();
        for (h, demands) in host_demands.iter().enumerate() {
            hosts.push(HostObservation {
                id: HostId(h as u32),
                state: PowerState::On,
                pending: None,
                cpu_capacity: 8.0,
                mem_capacity: 64.0,
                mem_committed: demands.len() as f64 * 8.0,
                cpu_demand: demands.iter().sum(),
                evacuated: demands.is_empty(),
                failed_transitions: 0,
                ladder: Default::default(),
            });
            for &d in *demands {
                vms.push(VmObservation {
                    host: Some(HostId(h as u32)),
                    cpu_demand: d,
                    cpu_cap: 8.0,
                    mem_gb: 8.0,
                    migrating: false,
                    service_class: Default::default(),
                });
                preds.push(d);
            }
        }
        (
            ClusterObservation {
                now: SimTime::ZERO,
                hosts,
                vms: vms.into_iter().collect(),
            },
            preds,
        )
    }

    #[test]
    fn relieves_overload_to_least_loaded() {
        // Host 0 at 7.5/8 (over 0.9 threshold); hosts 1 and 2 lightly
        // loaded.
        let (o, preds) = obs(&[&[3.0, 2.5, 2.0], &[1.0], &[0.5]]);
        let mut ctx = PlanContext::new(&o, preds, &[false; 3]);
        let cfg = ManagerConfig::new(PowerPolicy::always_on());
        let mut actions = Vec::new();
        let mut budget = 8;
        mitigate_overloads(&mut ctx, &cfg, &mut actions, &mut budget);
        assert!(!actions.is_empty());
        // Host 0 ends at or below target.
        assert!(ctx.util(0) <= cfg.target_utilization() + 1e-9);
        // First move goes to the least-loaded host (host 2).
        assert_eq!(
            actions[0],
            ManagementAction::Migrate {
                vm: VmId(0),
                to: HostId(2)
            }
        );
    }

    #[test]
    fn no_action_when_under_threshold() {
        let (o, preds) = obs(&[&[3.0, 2.0], &[1.0]]);
        let mut ctx = PlanContext::new(&o, preds, &[false; 2]);
        let cfg = ManagerConfig::new(PowerPolicy::always_on());
        let mut actions = Vec::new();
        let mut budget = 8;
        mitigate_overloads(&mut ctx, &cfg, &mut actions, &mut budget);
        assert!(actions.is_empty());
        assert_eq!(budget, 8);
    }

    #[test]
    fn respects_budget() {
        let (o, preds) = obs(&[&[2.0, 2.0, 2.0, 2.0], &[], &[]]);
        let mut ctx = PlanContext::new(&o, preds, &[false; 3]);
        let cfg = ManagerConfig::new(PowerPolicy::always_on());
        let mut actions = Vec::new();
        let mut budget = 1;
        mitigate_overloads(&mut ctx, &cfg, &mut actions, &mut budget);
        assert_eq!(actions.len(), 1);
        assert_eq!(budget, 0);
    }

    #[test]
    fn stuck_when_no_destination_fits() {
        // Single host overloaded, no other host exists.
        let (o, preds) = obs(&[&[4.0, 4.0]]);
        let mut ctx = PlanContext::new(&o, preds, &[false]);
        let cfg = ManagerConfig::new(PowerPolicy::always_on());
        let mut actions = Vec::new();
        let mut budget = 8;
        mitigate_overloads(&mut ctx, &cfg, &mut actions, &mut budget);
        assert!(actions.is_empty());
    }

    #[test]
    fn rebalance_narrows_spread() {
        // Host 0 hot (6.0/8), host 1 cold (0.5/8): spread 0.69 > 0.25.
        let (o, preds) = obs(&[&[2.5, 2.0, 1.5], &[0.5]]);
        let mut ctx = PlanContext::new(&o, preds, &[false; 2]);
        let cfg = ManagerConfig::new(PowerPolicy::always_on());
        let mut actions = Vec::new();
        let mut budget = 8;
        rebalance(&mut ctx, &cfg, &mut actions, &mut budget);
        assert!(!actions.is_empty());
        let spread = ctx.util(0) - ctx.util(1);
        assert!(spread < 0.69, "spread {spread} did not narrow");
        // And it never overshoots into reversing the imbalance.
        assert!(ctx.util(0) >= ctx.util(1));
    }

    #[test]
    fn rebalance_idle_when_balanced() {
        let (o, preds) = obs(&[&[2.0, 1.0], &[2.0]]);
        let mut ctx = PlanContext::new(&o, preds, &[false; 2]);
        let cfg = ManagerConfig::new(PowerPolicy::always_on());
        let mut actions = Vec::new();
        let mut budget = 8;
        rebalance(&mut ctx, &cfg, &mut actions, &mut budget);
        assert!(actions.is_empty());
        assert_eq!(budget, 8);
    }

    #[test]
    fn rebalance_skips_draining_hosts() {
        let (o, preds) = obs(&[&[2.5, 2.0, 1.5], &[0.5], &[1.0]]);
        // The coldest host (1) is draining; moves must go to host 2.
        let mut ctx = PlanContext::new(&o, preds, &[false, true, false]);
        let cfg = ManagerConfig::new(PowerPolicy::always_on());
        let mut actions = Vec::new();
        let mut budget = 8;
        rebalance(&mut ctx, &cfg, &mut actions, &mut budget);
        for a in &actions {
            if let ManagementAction::Migrate { to, .. } = a {
                assert_ne!(*to, HostId(1));
            }
        }
    }

    #[test]
    fn migrating_vms_are_not_moved_again() {
        let (o, mut preds) = obs(&[&[4.0, 4.0], &[]]);
        preds[0] = 4.0;
        let mut o = o;
        let mut rows: Vec<VmObservation> = (0..o.vms.len()).filter_map(|i| o.vms.get(i)).collect();
        rows[0].migrating = true;
        o.vms = rows.into_iter().collect();
        let mut ctx = PlanContext::new(&o, preds, &[false; 2]);
        let cfg = ManagerConfig::new(PowerPolicy::always_on());
        let mut actions = Vec::new();
        let mut budget = 8;
        mitigate_overloads(&mut ctx, &cfg, &mut actions, &mut budget);
        // Only vm1 is movable.
        assert_eq!(actions.len(), 1);
        assert!(matches!(
            actions[0],
            ManagementAction::Migrate { vm: VmId(1), .. }
        ));
    }
}
