//! Consolidation: evacuate underloaded hosts so they can be parked.
//!
//! The power manager's core loop: whenever predicted demand fits in fewer
//! hosts (with headroom and spares), pick the least-loaded hosts, migrate
//! their VMs onto the remaining fleet with best-fit-decreasing packing,
//! and mark them *draining*. Once a draining host is empty, the manager
//! emits the power-down.

use cluster::{HostId, VmId};
use obs::SpanTracer;
use simcore::{pairwise_sum, SimTime};

use crate::index::UtilizationIndex;
use crate::plan::PlanContext;
use crate::work::Count;
use crate::{HysteresisGate, ManagementAction, ManagerConfig, PackingPolicy, RecoveryTracker};

/// Continues evacuating hosts already marked as draining, then selects new
/// drain candidates while spare capacity allows.
///
/// Mutates `ctx.draining` (the manager copies it back), appends migration
/// actions, and decrements `budget`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn plan_consolidation(
    ctx: &mut PlanContext,
    cfg: &ManagerConfig,
    gate: &HysteresisGate,
    recovery: &RecoveryTracker,
    now: SimTime,
    actions: &mut Vec<ManagementAction>,
    budget: &mut usize,
    tracer: &mut SpanTracer,
) {
    let s_drain = tracer.name("drain");
    let s_scan = tracer.name("candidate_scan");
    let s_trial = tracer.name("trial");
    let s_undo = tracer.name("undo");

    // Phase 1: keep draining hosts draining — evacuate what we can.
    tracer.enter(s_drain);
    for host in 0..ctx.num_hosts() {
        if ctx.draining[host] && ctx.operational[host] {
            evacuate(ctx, cfg, host, actions, budget, None);
        }
    }
    tracer.exit(s_drain);

    // Phase 2: select new candidates, least-loaded first.
    let mut new_drains = 0;
    let mut trial_actions = Vec::new();
    let mut journal = Vec::new();
    loop {
        if new_drains >= cfg.max_drains_per_round() || *budget == 0 {
            return;
        }
        tracer.enter(s_scan);
        let picked = pick_candidate(ctx, cfg, gate, recovery, now);
        tracer.exit(s_scan);
        let Some(candidate) = picked else {
            return;
        };
        // A candidate only commits if its *entire* evacuation fits the
        // plan; otherwise we would strand VMs on a half-drained host.
        trial_actions.clear();
        journal.clear();
        let mut trial_budget = *budget;
        ctx.set_draining_trial(candidate, true);
        ctx.work.add(Count::TrialsAttempted, 1);
        tracer.enter(s_trial);
        let complete = evacuate(
            ctx,
            cfg,
            candidate,
            &mut trial_actions,
            &mut trial_budget,
            Some(&mut journal),
        );
        ctx.work.raise(Count::UndoDepthMax, journal.len() as u64);
        let committed = if complete {
            actions.append(&mut trial_actions);
            *budget = trial_budget;
            new_drains += 1;
            true
        } else {
            tracer.enter(s_undo);
            undo_moves(ctx, &journal);
            tracer.exit(s_undo);
            ctx.set_draining_trial(candidate, false);
            ctx.work.add(Count::TrialsRolledBack, 1);
            ctx.work.add(Count::RollbackMoves, journal.len() as u64);
            false
        };
        tracer.exit(s_trial);
        if !committed {
            // This candidate cannot be emptied; no smaller-utilization
            // candidate will appear this round either, so stop.
            return;
        }
    }
}

/// Whether `host` may start draining this round — the one predicate both
/// candidate picks share. `pool_capacity` is the active plus arriving
/// capacity and `required` the capacity the fleet must keep.
#[allow(clippy::too_many_arguments)]
fn drainable(
    ctx: &PlanContext,
    cfg: &ManagerConfig,
    gate: &HysteresisGate,
    recovery: &RecoveryTracker,
    now: SimTime,
    host: usize,
    pool_capacity: f64,
    required: f64,
) -> bool {
    ctx.operational[host]
        && !ctx.draining[host]
        // A host receiving a VM this round is filling, not emptying.
        && ctx.inbound_moves[host] == 0
        && ctx.util(host) < cfg.underload_threshold()
        && gate.may_power_down(HostId(host as u32), now)
        // Quarantined hosts stay out of the park-candidate set:
        // evacuating one would strand it on (its power-down is blocked)
        // while paying the migration cost anyway.
        && !recovery.is_quarantined(host)
        // Removing this host must still leave enough capacity.
        && pool_capacity - ctx.cpu_capacity[host] >= required
}

/// Picks the least-loaded drainable host, if the fleet can spare it.
///
/// The answer comes from [`pick_candidate_indexed`]; debug builds check
/// it, and the index's capacity trees, against [`scan_pick_candidate`]
/// and [`scan_capacity`] on every pick.
fn pick_candidate(
    ctx: &mut PlanContext,
    cfg: &ManagerConfig,
    gate: &HysteresisGate,
    recovery: &RecoveryTracker,
    now: SimTime,
) -> Option<usize> {
    debug_assert!(ctx.index.valid, "candidate pick before refresh_index");
    let pick = pick_candidate_indexed(ctx, cfg, gate, recovery, now);
    debug_assert_eq!(
        (
            ctx.index.active_tree.root().to_bits(),
            ctx.index.arriving_tree.root().to_bits()
        ),
        {
            let (active, arriving) = scan_capacity(ctx);
            (active.to_bits(), arriving.to_bits())
        },
        "capacity trees drifted from their pairwise sums"
    );
    debug_assert_eq!(
        pick,
        scan_pick_candidate(ctx, cfg, gate, recovery, now),
        "indexed drain candidate differs from the scan"
    );
    pick
}

/// Active and arriving capacity recomputed from scratch with the
/// fixed-shape pairwise reduction the index's [`SumTree`](simcore::SumTree)s
/// maintain, so the two are bitwise equal by construction (every tree
/// node is a pure function of its leaves).
fn scan_capacity(ctx: &PlanContext) -> (f64, f64) {
    let n = ctx.num_hosts();
    let active = pairwise_sum(n, |h| {
        if ctx.operational[h] && !ctx.draining[h] {
            ctx.cpu_capacity[h]
        } else {
            0.0
        }
    });
    let arriving = pairwise_sum(n, |h| {
        if ctx.arriving[h] {
            ctx.cpu_capacity[h]
        } else {
            0.0
        }
    });
    (active, arriving)
}

/// Scan twin of [`pick_candidate`]: every host qualified against
/// from-scratch aggregates, first-wins among equal minima (matching
/// `Iterator::min_by` over ascending indices). Charges no counter.
fn scan_pick_candidate(
    ctx: &PlanContext,
    cfg: &ManagerConfig,
    gate: &HysteresisGate,
    recovery: &RecoveryTracker,
    now: SimTime,
) -> Option<usize> {
    let n = ctx.num_hosts();
    let (active_capacity, arriving_capacity) = scan_capacity(ctx);
    // The dead-band separates the drain trigger from the wake trigger so
    // demand noise across a single threshold cannot cycle hosts.
    let required = ctx.total_predicted() / cfg.target_utilization()
        + (cfg.spare_hosts() as f64 + cfg.drain_deadband_frac()) * ctx.max_host_cap;
    let pool_capacity = active_capacity + arriving_capacity;
    (0..n)
        .filter(|&h| drainable(ctx, cfg, gate, recovery, now, h, pool_capacity, required))
        .fold(None, |best: Option<usize>, h| match best {
            Some(b)
                if !ctx
                    .util(h)
                    .partial_cmp(&ctx.util(b))
                    .expect("utilization is finite")
                    .is_lt() =>
            {
                Some(b)
            }
            _ => Some(h),
        })
}

/// The indexed body of [`pick_candidate`]: the capacity aggregates come
/// from the maintained [`SumTree`](simcore::SumTree) roots, and buckets
/// ascend from 0 to the underload-threshold bucket until the first one
/// holding a qualifying host — which must contain the minimum, because
/// every host in a later bucket has strictly larger utilization. The
/// first minimum within it reproduces the scan's first-wins answer
/// exactly.
///
/// `work.plan.candidates_scanned` is charged with the hosts actually
/// examined — the sublinearity evidence.
fn pick_candidate_indexed(
    ctx: &mut PlanContext,
    cfg: &ManagerConfig,
    gate: &HysteresisGate,
    recovery: &RecoveryTracker,
    now: SimTime,
) -> Option<usize> {
    let active_capacity = ctx.index.active_tree.root();
    let arriving_capacity = ctx.index.arriving_tree.root();
    let required = ctx.total_predicted() / cfg.target_utilization()
        + (cfg.spare_hosts() as f64 + cfg.drain_deadband_frac()) * ctx.max_host_cap;
    let pool_capacity = active_capacity + arriving_capacity;
    let qualifies = |ctx: &PlanContext, h: usize| {
        drainable(ctx, cfg, gate, recovery, now, h, pool_capacity, required)
    };
    let mut examined = 0u64;
    let mut best: Option<(f64, usize)> = None;
    // Qualification requires util strictly below the underload threshold,
    // so no bucket past the threshold's own can hold a candidate.
    let limit = UtilizationIndex::bucket_of(cfg.underload_threshold());
    for b in 0..=limit {
        for &h in ctx.index.bucket_hosts(b) {
            let h = h as usize;
            examined += 1;
            if qualifies(ctx, h) {
                let u = ctx.util(h);
                // Members ascend by index: strict `<` keeps the first of
                // equal minima, like the scan's fold.
                if best.is_none_or(|(bu, _)| u < bu) {
                    best = Some((u, h));
                }
                // A qualifying host exactly on the bucket floor is
                // unbeatable (see `UtilizationIndex::bucket_floor`):
                // dense boundary buckets terminate in one hit.
                if u.to_bits() == UtilizationIndex::bucket_floor(b).to_bits() {
                    break;
                }
            }
        }
        if best.is_some() {
            break;
        }
    }
    ctx.work.add(Count::CandidatesScanned, examined);
    best.map(|(_, h)| h)
}

/// Moves VMs off `host` with best-fit-decreasing packing. Returns whether
/// the host's evacuation is fully planned (no movable VM left behind and
/// none were unmovable).
///
/// All-or-nothing callers pass a `journal` and roll back with
/// [`undo_moves`] on failure; for incremental drains (phase 1) partial
/// progress is fine — completion is reported truthfully either way.
fn evacuate(
    ctx: &mut PlanContext,
    cfg: &ManagerConfig,
    host: usize,
    actions: &mut Vec<ManagementAction>,
    budget: &mut usize,
    mut journal: Option<&mut Vec<MoveUndo>>,
) -> bool {
    // Batch victims first, largest first within each class. There may
    // also be unmovable (already-migrating) VMs; the host is not fully
    // evacuated until they land elsewhere, but those migrations are
    // already in flight toward other hosts, so they do not block planning.
    let vms = ctx.disruption_candidates(host);
    for vm in vms {
        if *budget == 0 {
            return false;
        }
        let dest = match cfg.packing() {
            PackingPolicy::BestFit => ctx.tightest_destination(vm, cfg),
            PackingPolicy::LeastLoaded => ctx.least_loaded_destination(vm, cfg),
        };
        let Some(dest) = dest else {
            return false;
        };
        if let Some(journal) = journal.as_deref_mut() {
            journal.push(MoveUndo::capture(ctx, vm, dest));
        }
        ctx.move_vm(vm, dest);
        actions.push(ManagementAction::Migrate {
            vm: VmId(vm as u32),
            to: HostId(dest as u32),
        });
        *budget -= 1;
    }
    ctx.movable_vms(host).is_empty()
}

/// One journaled migration, holding the bitwise-original values
/// [`PlanContext::move_vm`] overwrote. Rolling back restores those saved
/// values rather than re-deriving them arithmetically, so an undone trial
/// leaves the context *exactly* as it was — no accumulated floating-point
/// drift that could flip a later threshold comparison.
struct MoveUndo {
    vm: usize,
    from: usize,
    to: usize,
    /// Position of `vm` in `vms_by_host[from]` before the move, so the
    /// rollback reinserts it in place (order is the tie-break for the
    /// stable disruption-candidate sort).
    from_idx: usize,
    old_pred_from: f64,
    old_pred_to: f64,
    old_mem_to: f64,
}

impl MoveUndo {
    fn capture(ctx: &PlanContext, vm: usize, to: usize) -> Self {
        let from = ctx.vm_host[vm].expect("journaling unplaced VM").index();
        MoveUndo {
            vm,
            from,
            to,
            from_idx: ctx.vms_by_host[from]
                .iter()
                .position(|&v| v as usize == vm)
                .expect("VM missing from its host list"),
            old_pred_from: ctx.host_pred_cpu[from],
            old_pred_to: ctx.host_pred_cpu[to],
            old_mem_to: ctx.mem_committed[to],
        }
    }
}

/// Reverses journaled moves in LIFO order. Each undo step sees exactly
/// the state its move produced, so the saved values and list positions
/// apply verbatim.
fn undo_moves(ctx: &mut PlanContext, journal: &[MoveUndo]) {
    for u in journal.iter().rev() {
        let popped = ctx.vms_by_host[u.to].pop();
        debug_assert_eq!(popped, Some(u.vm as u32), "undo out of order");
        ctx.vms_by_host[u.from].insert(u.from_idx, u.vm as u32);
        ctx.vm_host[u.vm] = Some(HostId(u.from as u32));
        // Trial moves only ever pick non-migrating VMs, so the flag's
        // prior value is always false.
        ctx.migrating_vm[u.vm] = false;
        ctx.inbound_moves[u.to] -= 1;
        ctx.host_pred_cpu[u.from] = u.old_pred_from;
        ctx.host_pred_cpu[u.to] = u.old_pred_to;
        ctx.mem_committed[u.to] = u.old_mem_to;
        // The endpoints' utilizations (and the destination's free
        // memory) changed back: re-file them so the index stays exact.
        ctx.refile(u.from);
        ctx.refile(u.to);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{all_on_world, host_spec, vm_spec};
    use crate::{ClusterObservation, HostObservation, PowerPolicy, RecoveryConfig, VmObservation};
    use power::PowerState;
    use simcore::SimDuration;

    fn cfg() -> ManagerConfig {
        ManagerConfig::new(PowerPolicy::reactive_suspend()).with_spare_hosts(0)
    }

    fn open_gate(n: usize) -> HysteresisGate {
        HysteresisGate::new(SimDuration::ZERO, SimDuration::ZERO, n)
    }

    fn clean_recovery(n: usize) -> RecoveryTracker {
        RecoveryTracker::new(RecoveryConfig::new(), n)
    }

    /// Two 8-core, 64 GB hosts, built for the round: host 0 carries two
    /// 24 GB VMs, host 1 one 40 GB VM and almost no free memory. VM `i`
    /// is predicted at `demands[i]`.
    fn memory_bound(demands: [f64; 3]) -> PlanContext {
        let vms = [(0u32, 24.0), (0, 24.0), (1, 40.0)];
        let o = ClusterObservation {
            now: SimTime::ZERO,
            hosts: [48.0, 40.0]
                .map(|mem_committed| HostObservation {
                    state: PowerState::On,
                    mem_committed,
                    ..HostObservation::default()
                })
                .to_vec(),
            vms: vms
                .iter()
                .zip(demands)
                .map(|(&(h, _), cpu_demand)| VmObservation {
                    host: Some(HostId(h)),
                    cpu_demand,
                    migrating: false,
                })
                .collect(),
        };
        let hosts = [host_spec(8.0, 64.0), host_spec(8.0, 64.0)];
        PlanContext::new(&hosts, &vms.map(|(_, mem)| vm_spec(8.0, mem))).with_round(&o, &[false; 2])
    }

    #[test]
    fn drains_underloaded_host() {
        // Three hosts, light load everywhere: the least-loaded empties.
        let (inv, o) = all_on_world(&[&[2.0, 1.0], &[1.5], &[0.5]]);
        let mut ctx = inv.with_round(&o, &[false; 3]);
        let c = cfg();
        let mut actions = Vec::new();
        let mut budget = 8;
        plan_consolidation(
            &mut ctx,
            &c,
            &open_gate(3),
            &clean_recovery(3),
            SimTime::ZERO,
            &mut actions,
            &mut budget,
            &mut SpanTracer::new(),
        );
        // Host 2 (util 0.5/8) is the prime candidate and must fully drain.
        assert!(ctx.draining[2]);
        assert!(ctx.movable_vms(2).is_empty());
        assert!(actions
            .iter()
            .any(|a| matches!(a, ManagementAction::Migrate { vm: VmId(3), .. })));
    }

    #[test]
    fn quarantined_host_is_not_a_drain_candidate() {
        // Same fleet as `drains_underloaded_host`, but the prime
        // candidate (host 2) is quarantined: the next-least-loaded host
        // must be picked instead.
        let (inv, o) = all_on_world(&[&[2.0, 1.0], &[1.5], &[0.5]]);
        let mut ctx = inv.with_round(&o, &[false; 3]);
        let c = cfg();
        let mut recovery = RecoveryTracker::new(RecoveryConfig::new().with_max_retries(1), 3);
        let mut failing = o.clone();
        failing.hosts[2].failed_transitions = 1;
        recovery.observe(&failing);
        assert!(recovery.is_quarantined(2));
        let mut actions = Vec::new();
        let mut budget = 8;
        plan_consolidation(
            &mut ctx,
            &c,
            &open_gate(3),
            &recovery,
            SimTime::ZERO,
            &mut actions,
            &mut budget,
            &mut SpanTracer::new(),
        );
        assert!(!ctx.draining[2], "quarantined host was drained");
        assert!(ctx.draining[1], "healthy underloaded host should drain");
    }

    #[test]
    fn keeps_enough_capacity() {
        // Heavy total load: no host can be spared.
        let (inv, o) = all_on_world(&[&[5.0], &[5.0], &[5.0]]);
        let mut ctx = inv.with_round(&o, &[false; 3]);
        let c = cfg();
        let mut actions = Vec::new();
        let mut budget = 8;
        plan_consolidation(
            &mut ctx,
            &c,
            &open_gate(3),
            &clean_recovery(3),
            SimTime::ZERO,
            &mut actions,
            &mut budget,
            &mut SpanTracer::new(),
        );
        assert!(actions.is_empty());
        assert!(!ctx.draining.iter().any(|&d| d));
    }

    #[test]
    fn hysteresis_blocks_recent_power_ups() {
        let (inv, o) = all_on_world(&[&[2.0], &[1.0], &[0.5]]);
        let mut ctx = inv.with_round(&o, &[false; 3]);
        let c = cfg();
        let mut gate = HysteresisGate::new(SimDuration::from_mins(10), SimDuration::ZERO, 3);
        // Every host just powered up.
        for h in 0..3 {
            gate.record_power_up(HostId(h), SimTime::ZERO);
        }
        let mut actions = Vec::new();
        let mut budget = 8;
        plan_consolidation(
            &mut ctx,
            &c,
            &gate,
            &clean_recovery(3),
            SimTime::from_secs(60),
            &mut actions,
            &mut budget,
            &mut SpanTracer::new(),
        );
        assert!(actions.is_empty());
    }

    #[test]
    fn all_or_nothing_rolls_back() {
        // Candidate host's VMs cannot all fit elsewhere (memory-bound).
        let mut ctx = memory_bound([0.2; 3]);
        let c = cfg();
        let mut actions = Vec::new();
        let mut budget = 8;
        plan_consolidation(
            &mut ctx,
            &c,
            &open_gate(2),
            &clean_recovery(2),
            SimTime::ZERO,
            &mut actions,
            &mut budget,
            &mut SpanTracer::new(),
        );
        // Only one 24 GB VM fits on host 1 (24 free); evacuation is
        // partial, so everything must roll back.
        assert!(actions.is_empty(), "{actions:?}");
        assert!(!ctx.draining[0]);
        assert_eq!(ctx.vm_host[0], Some(HostId(0)));
        assert_eq!(budget, 8);
    }

    #[test]
    fn rollback_restores_total_predicted_bitwise() {
        // Pins the `total_predicted` cache contract across a failed
        // trial: the undo journal restores every `host_pred_cpu` slot
        // from the recorded values (bitwise, not recomputed), so the
        // cached fleet total must come back bit-exact after a rollback.
        // Same memory-bound fixture as `all_or_nothing_rolls_back`, at
        // the minimal fleet size that can attempt and fail a trial.
        // Awkward mantissas so a recomputed (re-associated) total would
        // differ in the low bits and fail this test.
        let mut ctx = memory_bound([0.1 + 0.2, 1.0 / 3.0, 0.7]);
        let c = cfg();
        let before_total = ctx.total_predicted().to_bits();
        let before_hosts: Vec<u64> = ctx.host_pred_cpu.iter().map(|v| v.to_bits()).collect();
        let mut actions = Vec::new();
        let mut budget = 8;
        plan_consolidation(
            &mut ctx,
            &c,
            &open_gate(2),
            &clean_recovery(2),
            SimTime::ZERO,
            &mut actions,
            &mut budget,
            &mut SpanTracer::new(),
        );
        assert!(
            ctx.work.get(Count::TrialsRolledBack) > 0,
            "fixture no longer exercises a rollback"
        );
        assert_eq!(
            ctx.total_predicted().to_bits(),
            before_total,
            "total_predicted cache drifted across a rollback"
        );
        let after_hosts: Vec<u64> = ctx.host_pred_cpu.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            before_hosts, after_hosts,
            "host_pred_cpu not restored bitwise"
        );
    }

    #[test]
    fn continues_existing_drains_first() {
        let (inv, o) = all_on_world(&[&[0.5, 0.5], &[2.0], &[2.0]]);
        // Host 0 was already marked draining in a previous round.
        let mut ctx = inv.with_round(&o, &[true, false, false]);
        let c = cfg();
        let mut actions = Vec::new();
        let mut budget = 8;
        plan_consolidation(
            &mut ctx,
            &c,
            &open_gate(3),
            &clean_recovery(3),
            SimTime::ZERO,
            &mut actions,
            &mut budget,
            &mut SpanTracer::new(),
        );
        assert!(ctx.movable_vms(0).is_empty());
        assert!(actions.len() >= 2);
    }

    /// Asserts the index is exact and every pick the round can make
    /// equals its scan twin: both destination picks for every VM, the
    /// drain candidate, and the capacity trees' roots, bitwise.
    fn assert_picks_match_scans(
        ctx: &mut PlanContext,
        c: &ManagerConfig,
        gate: &HysteresisGate,
        recovery: &RecoveryTracker,
        world: &impl std::fmt::Debug,
    ) {
        assert_eq!(ctx.check_index(), Ok(()), "{world:?}");
        for vm in 0..ctx.vm_host.len() {
            let scan = ctx.scan_least_loaded_destination(vm, c);
            assert_eq!(
                ctx.least_loaded_destination(vm, c),
                scan,
                "{world:?}: vm {vm}"
            );
            let scan = ctx.scan_tightest_destination(vm, c);
            assert_eq!(ctx.tightest_destination(vm, c), scan, "{world:?}: vm {vm}");
        }
        let (active, arriving) = scan_capacity(ctx);
        assert_eq!(
            ctx.index.active_tree.root().to_bits(),
            active.to_bits(),
            "{world:?}"
        );
        assert_eq!(
            ctx.index.arriving_tree.root().to_bits(),
            arriving.to_bits(),
            "{world:?}"
        );
        let scan = scan_pick_candidate(ctx, c, gate, recovery, SimTime::ZERO);
        let pick = pick_candidate(ctx, c, gate, recovery, SimTime::ZERO);
        assert_eq!(pick, scan, "{world:?}: drain candidate");
    }

    /// Calls `f` on every world of 1-3 hosts (8, 4 and 8 cores, 32 GB)
    /// and 0-4 VMs (8, 16, 8 and 16 GB): each host On or resuming; each
    /// VM on any On host, within memory; each VM's predicted demand on a
    /// 4-point grid whose top value is just under the 0.9 overload line
    /// of an 8-core host and whose sums land exactly on the 0.75 target
    /// (3 + 3 on 8 cores, 1.5 + 1.5 on 4), so some feasible hosts sit in
    /// the very bucket a destination walk starts or stops at. The last
    /// argument names the world as
    /// `(hosts, resuming-host mask, VMs, placement, demands)`; the first
    /// is the world's inventory, as an unbuilt context.
    fn for_each_small_world(
        mut f: impl FnMut(&PlanContext, &ClusterObservation, &[f64], [usize; 5]),
    ) {
        const CPU: [f64; 3] = [8.0, 4.0, 8.0];
        const VM_MEM: [f64; 4] = [8.0, 16.0, 8.0, 16.0];
        const GRID: [f64; 4] = [0.5, 1.5, 3.0, 7.0];
        // Digit `i` of `code` in base `radix`.
        let digit = |code: usize, radix: usize, i: usize| code / radix.pow(i as u32) % radix;
        for nh in 1..=3usize {
            for resuming in 0..1usize << nh {
                let on: Vec<usize> = (0..nh).filter(|&h| digit(resuming, 2, h) == 0).collect();
                let max_vms = if on.is_empty() { 0 } else { 4 };
                for nv in 0..=max_vms {
                    for place in 0..on.len().pow(nv as u32) {
                        let host_of = |v: usize| on[digit(place, on.len(), v)];
                        let mut mem = [0.0f64; 3];
                        for v in 0..nv {
                            mem[host_of(v)] += VM_MEM[v];
                        }
                        if mem.iter().any(|&m| m > 32.0) {
                            continue;
                        }
                        let hosts = (0..nh)
                            .map(|h| HostObservation {
                                state: if digit(resuming, 2, h) == 1 {
                                    PowerState::Resuming
                                } else {
                                    PowerState::On
                                },
                                mem_committed: mem[h],
                                evacuated: mem[h] == 0.0,
                                ..HostObservation::default()
                            })
                            .collect();
                        let mut o = ClusterObservation {
                            now: SimTime::ZERO,
                            hosts,
                            vms: Default::default(),
                        };
                        let host_specs: Vec<_> = (0..nh).map(|h| host_spec(CPU[h], 32.0)).collect();
                        let vm_specs: Vec<_> = (0..nv).map(|v| vm_spec(8.0, VM_MEM[v])).collect();
                        let inventory = PlanContext::new(&host_specs, &vm_specs);
                        for demands in 0..4usize.pow(nv as u32) {
                            let pred: Vec<f64> =
                                (0..nv).map(|v| GRID[digit(demands, 4, v)]).collect();
                            o.vms = (0..nv)
                                .map(|v| VmObservation {
                                    host: Some(HostId(host_of(v) as u32)),
                                    cpu_demand: pred[v],
                                    migrating: false,
                                })
                                .collect();
                            f(&inventory, &o, &pred, [nh, resuming, nv, place, demands]);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn indexed_picks_match_scan_twins_on_every_small_world() {
        // Checks every pick after the round's refresh, inside and after a
        // rolled-back consolidation trial (which drains a host), and after
        // a run of overload-style moves whose own picks are checked too —
        // in release builds as well, where the per-pick debug checks are
        // compiled out.
        let c = cfg();
        let (mut worlds, mut trials, mut moves) = (0u64, 0u64, 0u64);
        for_each_small_world(|inventory, o, pred, world| {
            let nh = o.hosts.len();
            let (gate, recovery) = (open_gate(nh), clean_recovery(nh));
            let mut ctx = inventory.clone().with_round(o, &[false; 3][..nh]);
            worlds += 1;
            assert_picks_match_scans(&mut ctx, &c, &gate, &recovery, &world);
            if let Some(cand) = pick_candidate(&mut ctx, &c, &gate, &recovery, SimTime::ZERO) {
                let mut journal = Vec::new();
                ctx.set_draining_trial(cand, true);
                evacuate(
                    &mut ctx,
                    &c,
                    cand,
                    &mut Vec::new(),
                    &mut 8,
                    Some(&mut journal),
                );
                assert_picks_match_scans(&mut ctx, &c, &gate, &recovery, &world);
                undo_moves(&mut ctx, &journal);
                ctx.set_draining_trial(cand, false);
                assert_picks_match_scans(&mut ctx, &c, &gate, &recovery, &world);
                trials += 1;
            }
            for vm in 0..pred.len() {
                let scan = ctx.scan_least_loaded_destination(vm, &c);
                let pick = ctx.least_loaded_destination(vm, &c);
                assert_eq!(pick, scan, "{world:?}: move of vm {vm}");
                if let Some(dest) = pick {
                    ctx.move_vm(vm, dest);
                    moves += 1;
                }
            }
            assert_picks_match_scans(&mut ctx, &c, &gate, &recovery, &world);
        });
        assert_eq!(worlds, 31_874);
        assert!(
            trials > 5_000 && moves > 40_000,
            "{trials} trials, {moves} moves"
        );
    }
}
