//! Consolidation: evacuate underloaded hosts so they can be parked.
//!
//! The power manager's core loop: whenever predicted demand fits in fewer
//! hosts (with headroom and spares), pick the least-loaded hosts, migrate
//! their VMs onto the remaining fleet with best-fit-decreasing packing,
//! and mark them *draining*. Once a draining host is empty, the manager
//! emits the power-down.

use cluster::{HostId, VmId};
use obs::SpanTracer;
use simcore::SimTime;

use crate::plan::PlanContext;
use crate::{
    pairwise_sum, HysteresisGate, ManagementAction, ManagerConfig, PackingPolicy, RecoveryTracker,
    UtilizationIndex,
};

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
            let before = actions.len();
            evacuate(ctx, cfg, host, actions, budget, None);
            ctx.work.migrations_planned += (actions.len() - before) as u64;
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
        ctx.work.trials_attempted += 1;
        tracer.enter(s_trial);
        let complete = evacuate(
            ctx,
            cfg,
            candidate,
            &mut trial_actions,
            &mut trial_budget,
            Some(&mut journal),
        );
        ctx.work.undo_depth_max = ctx.work.undo_depth_max.max(journal.len() as u64);
        let committed = if complete {
            actions.append(&mut trial_actions);
            *budget = trial_budget;
            new_drains += 1;
            ctx.work.migrations_planned += journal.len() as u64;
            true
        } else {
            tracer.enter(s_undo);
            undo_moves(ctx, &journal);
            tracer.exit(s_undo);
            ctx.set_draining_trial(candidate, false);
            ctx.work.trials_rolled_back += 1;
            ctx.work.rollback_moves += journal.len() as u64;
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
fn pick_candidate(
    ctx: &mut PlanContext,
    cfg: &ManagerConfig,
    gate: &HysteresisGate,
    recovery: &RecoveryTracker,
    now: SimTime,
) -> Option<usize> {
    if ctx.index_valid() {
        return pick_candidate_indexed(ctx, cfg, gate, recovery, now);
    }
    // The aggregate fold and the qualification scan each visit every
    // host exactly once.
    ctx.work.fold_elements += ctx.num_hosts() as u64;
    ctx.work.candidates_scanned += ctx.num_hosts() as u64;
    let ctx = &*ctx;
    // Capacity aggregates use the fixed-shape pairwise reduction shared
    // with the indexed planner's maintained trees, so a from-scratch scan
    // recompute and an incrementally-updated tree root are bitwise equal
    // by construction (every tree node is a pure function of its leaves).
    let n = ctx.num_hosts();
    let active_capacity = pairwise_sum(n, |h| {
        if ctx.operational[h] && !ctx.draining[h] {
            ctx.cpu_capacity[h]
        } else {
            0.0
        }
    });
    let arriving_capacity = pairwise_sum(n, |h| {
        if ctx.arriving[h] {
            ctx.cpu_capacity[h]
        } else {
            0.0
        }
    });
    let mut max_host_cap = 0.0f64;
    for h in 0..n {
        max_host_cap = max_host_cap.max(ctx.cpu_capacity[h]);
    }
    let total_pred = ctx.total_predicted();
    // The dead-band separates the drain trigger from the wake trigger so
    // demand noise across a single threshold cannot cycle hosts.
    let required = total_pred / cfg.target_utilization()
        + (cfg.spare_hosts() as f64 + cfg.drain_deadband_frac()) * max_host_cap;

    // Least-loaded qualifying host; first wins on ties, matching
    // `Iterator::min_by` over ascending indices.
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

/// Indexed twin of [`pick_candidate`]: the capacity aggregates come from
/// the maintained [`SumTree`](crate::SumTree) roots (bitwise equal to
/// the scan's pairwise recompute), the touched overlay is scanned in
/// full, and buckets ascend from 0 to the underload-threshold bucket
/// until the first one holding a qualifying untouched host — which must
/// contain the untouched minimum, because every host in a later bucket
/// has strictly larger utilization. Merging the two lexicographic minima
/// reproduces the scan's first-wins answer exactly.
///
/// `work.plan.candidates_scanned` is charged with the hosts actually
/// examined — the sublinearity evidence — so it is deliberately
/// mode-variant, unlike the decision counters.
fn pick_candidate_indexed(
    ctx: &mut PlanContext,
    cfg: &ManagerConfig,
    gate: &HysteresisGate,
    recovery: &RecoveryTracker,
    now: SimTime,
) -> Option<usize> {
    let active_capacity = ctx.index.active_tree.root();
    let arriving_capacity = ctx.index.arriving_tree.root();
    let max_host_cap = ctx.index.max_host_cap;
    let total_pred = ctx.total_predicted();
    let required = total_pred / cfg.target_utilization()
        + (cfg.spare_hosts() as f64 + cfg.drain_deadband_frac()) * max_host_cap;
    let pool_capacity = active_capacity + arriving_capacity;
    let qualifies = |ctx: &PlanContext, h: usize| {
        drainable(ctx, cfg, gate, recovery, now, h, pool_capacity, required)
    };
    let mut examined = 0u64;
    let mut best: Option<(f64, usize)> = None;
    for &h in ctx.index.touched_hosts() {
        let h = h as usize;
        examined += 1;
        if qualifies(ctx, h) {
            crate::plan::lex_min(&mut best, (ctx.util(h), h));
        }
    }
    // Qualification requires util strictly below the underload threshold,
    // so no bucket past the threshold's own can hold a candidate.
    let limit = UtilizationIndex::bucket_of(cfg.underload_threshold());
    'walk: for b in 0..=limit {
        let mut found = false;
        for &h in ctx.index.bucket_hosts(b) {
            let h = h as usize;
            if ctx.index.is_touched(h) {
                continue;
            }
            examined += 1;
            if qualifies(ctx, h) {
                let u = ctx.util(h);
                crate::plan::lex_min(&mut best, (u, h));
                found = true;
                // A qualifying host exactly on the bucket floor is
                // unbeatable (see `UtilizationIndex::bucket_floor`):
                // dense boundary buckets terminate in one hit.
                if u.to_bits() == UtilizationIndex::bucket_floor(b).to_bits() {
                    break 'walk;
                }
            }
        }
        if found {
            break 'walk;
        }
    }
    ctx.work.candidates_scanned += examined;
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
        let from = ctx.vm_host[vm].expect("journaling unplaced VM");
        MoveUndo {
            vm,
            from,
            to,
            from_idx: ctx.vms_by_host[from]
                .iter()
                .position(|&v| v == vm)
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
        debug_assert_eq!(popped, Some(u.vm), "undo out of order");
        ctx.vms_by_host[u.from].insert(u.from_idx, u.vm);
        ctx.vm_host[u.vm] = Some(u.from);
        // Trial moves only ever pick non-migrating VMs, so the flag's
        // prior value is always false.
        ctx.migrating_vm[u.vm] = false;
        ctx.inbound_moves[u.to] -= 1;
        ctx.host_pred_cpu[u.from] = u.old_pred_from;
        ctx.host_pred_cpu[u.to] = u.old_pred_to;
        ctx.mem_committed[u.to] = u.old_mem_to;
        // The endpoints' utilizations changed again; keep their overlay
        // marks current for the indexed planner (no-op under Scan).
        ctx.note_undone_move(u.from, u.to);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        ClusterObservation, HostObservation, PlanMode, PowerPolicy, RecoveryConfig, VmObservation,
    };
    use power::PowerState;
    use simcore::SimDuration;

    /// Builds an observation where host `h` carries `demands[h]`.
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

    fn cfg() -> ManagerConfig {
        ManagerConfig::new(PowerPolicy::reactive_suspend()).with_spare_hosts(0)
    }

    fn open_gate(n: usize) -> HysteresisGate {
        HysteresisGate::new(SimDuration::ZERO, SimDuration::ZERO, n)
    }

    fn clean_recovery(n: usize) -> RecoveryTracker {
        RecoveryTracker::new(RecoveryConfig::new(), n)
    }

    #[test]
    fn drains_underloaded_host() {
        // Three hosts, light load everywhere: the least-loaded empties.
        let (o, preds) = obs(&[&[2.0, 1.0], &[1.5], &[0.5]]);
        let mut ctx = PlanContext::new(&o, preds, &[false; 3]);
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
        let (o, preds) = obs(&[&[2.0, 1.0], &[1.5], &[0.5]]);
        let mut ctx = PlanContext::new(&o, preds, &[false; 3]);
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
        let (o, preds) = obs(&[&[5.0], &[5.0], &[5.0]]);
        let mut ctx = PlanContext::new(&o, preds, &[false; 3]);
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
        let (o, preds) = obs(&[&[2.0], &[1.0], &[0.5]]);
        let mut ctx = PlanContext::new(&o, preds, &[false; 3]);
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
        let mut hosts = Vec::new();
        let mut vms = Vec::new();
        let mut preds = Vec::new();
        // Host 0: tiny demand but two big-memory VMs; host 1: almost no
        // free memory.
        hosts.push(HostObservation {
            id: HostId(0),
            state: PowerState::On,
            pending: None,
            cpu_capacity: 8.0,
            mem_capacity: 64.0,
            mem_committed: 48.0,
            cpu_demand: 0.4,
            evacuated: false,
            failed_transitions: 0,
            ladder: Default::default(),
        });
        hosts.push(HostObservation {
            id: HostId(1),
            state: PowerState::On,
            pending: None,
            cpu_capacity: 8.0,
            mem_capacity: 64.0,
            mem_committed: 40.0,
            cpu_demand: 2.0,
            evacuated: false,
            failed_transitions: 0,
            ladder: Default::default(),
        });
        for (h, mem) in [(0u32, 24.0), (0, 24.0), (1, 40.0)] {
            vms.push(VmObservation {
                host: Some(HostId(h)),
                cpu_demand: 0.2,
                cpu_cap: 8.0,
                mem_gb: mem,
                migrating: false,
                service_class: Default::default(),
            });
            preds.push(0.2);
        }
        let o = ClusterObservation {
            now: SimTime::ZERO,
            hosts,
            vms: vms.into_iter().collect(),
        };
        let mut ctx = PlanContext::new(&o, preds, &[false; 2]);
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
        assert_eq!(ctx.vm_host[0], Some(0));
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
        let mut hosts = Vec::new();
        let mut vms = Vec::new();
        let mut preds = Vec::new();
        hosts.push(HostObservation {
            id: HostId(0),
            state: PowerState::On,
            pending: None,
            cpu_capacity: 8.0,
            mem_capacity: 64.0,
            mem_committed: 48.0,
            cpu_demand: 0.4,
            evacuated: false,
            failed_transitions: 0,
            ladder: Default::default(),
        });
        hosts.push(HostObservation {
            id: HostId(1),
            state: PowerState::On,
            pending: None,
            cpu_capacity: 8.0,
            mem_capacity: 64.0,
            mem_committed: 40.0,
            cpu_demand: 2.0,
            evacuated: false,
            failed_transitions: 0,
            ladder: Default::default(),
        });
        // Awkward mantissas so a recomputed (re-associated) total would
        // differ in the low bits and fail this test.
        for (h, mem, demand) in [
            (0u32, 24.0, 0.1 + 0.2),
            (0, 24.0, 1.0 / 3.0),
            (1, 40.0, 0.7),
        ] {
            vms.push(VmObservation {
                host: Some(HostId(h)),
                cpu_demand: demand,
                cpu_cap: 8.0,
                mem_gb: mem,
                migrating: false,
                service_class: Default::default(),
            });
            preds.push(demand);
        }
        let o = ClusterObservation {
            now: SimTime::ZERO,
            hosts,
            vms: vms.into_iter().collect(),
        };
        let mut ctx = PlanContext::new(&o, preds, &[false; 2]);
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
            ctx.work.trials_rolled_back > 0,
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
    fn indexed_mode_picks_identically_to_scan() {
        // The same fleet planned in both modes must drain the same host
        // and emit the same migrations — the unit-scale version of the
        // differential suite's bit-identity property.
        let run = |mode: PlanMode| {
            let (o, preds) = obs(&[&[2.0, 1.0], &[1.5], &[0.5], &[0.7]]);
            let mut ctx = PlanContext::new(&o, preds, &[false; 4]);
            ctx.mode = mode;
            ctx.refresh_index();
            let c = cfg();
            let mut actions = Vec::new();
            let mut budget = 8;
            plan_consolidation(
                &mut ctx,
                &c,
                &open_gate(4),
                &clean_recovery(4),
                SimTime::ZERO,
                &mut actions,
                &mut budget,
                &mut SpanTracer::new(),
            );
            (actions, ctx.draining.clone(), budget)
        };
        let scan = run(PlanMode::Scan);
        let indexed = run(PlanMode::Indexed);
        assert_eq!(scan, indexed);
        // And the indexed run really used the index: with four hosts in
        // play it must have examined fewer hosts than four per pick or at
        // least have kept the index live (refresh marks it valid).
        let (o, preds) = obs(&[&[2.0, 1.0], &[1.5], &[0.5], &[0.7]]);
        let mut ctx = PlanContext::new(&o, preds, &[false; 4]);
        ctx.mode = PlanMode::Indexed;
        ctx.refresh_index();
        assert!(
            ctx.index_valid(),
            "refresh under Indexed must arm the index"
        );
    }

    #[test]
    fn continues_existing_drains_first() {
        let (o, preds) = obs(&[&[0.5, 0.5], &[2.0], &[2.0]]);
        // Host 0 was already marked draining in a previous round.
        let mut ctx = PlanContext::new(&o, preds, &[true, false, false]);
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
}
