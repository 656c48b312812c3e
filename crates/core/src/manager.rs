//! The management loop body.

use std::error::Error;
use std::fmt;

use cluster::{HostId, HostSpec, VmSpec};
use power::PowerState;

use crate::plan::PlanContext;
use crate::predict::Predictors;
use crate::work::{Count, WorkTable};
use crate::{
    consolidate, drm, ActionReason, ClusterObservation, ConfigError, DayProfile, DecisionActions,
    DecisionRecord, DecisionTrigger, HysteresisGate, ManagementAction, ManagerConfig, PowerPolicy,
    RecoveryTracker,
};
use obs::{Histogram, SpanTracer};
use simcore::SimDuration;

/// How long a parked host stays parked before a non-urgent wake
/// (spare-pool top-up) may bring it back; urgent capacity wakes ignore
/// it.
const MIN_OFF_TIME: SimDuration = SimDuration::from_mins(5);

/// Why [`VirtManager::plan`] refused an observation.
///
/// Marked `#[non_exhaustive]`: downstream matches need a wildcard arm.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanError {
    /// The observation describes a different fleet than the manager was
    /// created for.
    Shape {
        /// Hosts the manager was created for.
        expected_hosts: usize,
        /// VMs the manager was created for.
        expected_vms: usize,
        /// Hosts in the observation.
        actual_hosts: usize,
        /// VMs in the observation.
        actual_vms: usize,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Shape {
                expected_hosts,
                expected_vms,
                actual_hosts,
                actual_vms,
            } => write!(
                f,
                "observation has {actual_hosts} hosts and {actual_vms} VMs, \
                 but the manager was created for {expected_hosts} hosts and {expected_vms} VMs"
            ),
        }
    }
}

impl Error for PlanError {}

/// The power-aware virtualization manager.
///
/// Knows the fleet's inventory from construction — each host's capacity
/// and power-state ladder, each VM's size and service class — and owns
/// the per-VM demand predictors, the hysteresis gate, and the set of
/// hosts currently being drained. Each management round,
/// [`plan`](Self::plan) turns a [`ClusterObservation`] into a list of
/// [`ManagementAction`]s:
///
/// 1. **Capacity assurance** — if predicted demand (plus spares) exceeds
///    the capacity that is on or arriving, first cancel drains, then wake
///    parked hosts (suspended before off — the cheap state first).
/// 2. **DRM overload mitigation** — migrate VMs off hosts predicted above
///    the overload threshold (this step alone is the `AlwaysOn`
///    baseline).
/// 3. **Consolidation** — evacuate underloaded hosts (all-or-nothing per
///    host) and mark them draining.
/// 4. **Power-down** — drained hosts that are now empty are parked in the
///    policy's low-power state.
///
/// # Example
///
/// ```
/// use agile_core::{ManagerConfig, PowerPolicy, VirtManager};
/// use cluster::{HostSpec, Resources, VmSpec};
/// use power::HostPowerProfile;
///
/// let host = HostSpec::new(Resources::new(16.0, 64.0), HostPowerProfile::prototype_rack());
/// let vm = VmSpec::new(Resources::new(2.0, 8.0));
/// let config = ManagerConfig::new(PowerPolicy::always_on());
/// let mgr = VirtManager::new(config, &vec![host; 4], &[vm; 16])?;
/// assert!(mgr.last_decision().is_none());
/// # Ok::<(), agile_core::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct VirtManager {
    config: ManagerConfig,
    predictors: Predictors,
    gate: HysteresisGate,
    draining: Vec<bool>,
    recovery: RecoveryTracker,
    profile: Option<DayProfile>,
    last_reasons: Vec<ActionReason>,
    last_decision: Option<DecisionRecord>,
    /// Management rounds planned so far; the latest is
    /// [`DecisionRecord::round`].
    round: u64,
    /// The planning context keeps its allocations across rounds so
    /// steady-state planning allocates nothing. It also holds the
    /// inventory, filled once at construction.
    ctx: PlanContext,
    /// Log-bucket histogram of total actions per round — deterministic
    /// (counts actions, not time), feeds the decision record's
    /// percentile summary.
    actions_hist: Histogram,
}

/// Capacity requirement vs. supply, plus the decision record's host
/// counts, assessed in one host pass before any action.
struct CapacityAssessment {
    /// Capacity urgent demand alone requires (no spares).
    required_urgent: f64,
    /// Full requirement: urgent demand plus the spare-host reserve.
    required: f64,
    /// Capacity on, arriving, or un-drained at assessment time.
    available: f64,
    /// Raw time-of-day forecast, when the profile produced one.
    forecast: Option<f64>,
    /// Operational hosts predicted above the overload threshold.
    overloaded_hosts: usize,
    /// Operational, non-draining hosts predicted below the underload
    /// threshold.
    underloaded_hosts: usize,
    /// Operational, non-draining hosts.
    candidate_hosts: usize,
}

impl VirtManager {
    /// Creates a manager for the fleet `hosts` × `vms`, indexed by
    /// `HostId` and `VmId`. The specs are the manager's inventory, read
    /// once here; each round's [`ClusterObservation`] carries only what
    /// changes.
    ///
    /// # Errors
    ///
    /// The first [`ConfigError`] of [`ManagerConfig::try_validate`]: a
    /// knob outside its range or thresholds out of order.
    pub fn new(
        config: ManagerConfig,
        hosts: &[HostSpec],
        vms: &[VmSpec],
    ) -> Result<Self, ConfigError> {
        config.try_validate()?;
        let num_hosts = hosts.len();
        let predictors = Predictors::new(config.predictor(), vms.len());
        let gate = HysteresisGate::new(config.min_on_time(), MIN_OFF_TIME, num_hosts);
        let profile = config
            .prewake_lookahead()
            .map(|_| DayProfile::new(SimDuration::from_mins(30), 0.5))
            .transpose()?;
        let recovery = RecoveryTracker::new(config.recovery().clone(), num_hosts);
        Ok(VirtManager {
            config,
            predictors,
            gate,
            draining: vec![false; num_hosts],
            recovery,
            profile,
            last_reasons: Vec::new(),
            last_decision: None,
            round: 0,
            ctx: PlanContext::new(hosts, vms),
            actions_hist: Histogram::new(),
        })
    }

    /// The fleet this manager was built for: `(hosts, VMs)`.
    pub(crate) fn fleet_size(&self) -> (usize, usize) {
        (self.ctx.num_hosts(), self.ctx.num_vms())
    }

    /// Why each action of the most recent [`plan`](Self::plan) round was
    /// taken, aligned index-for-index with the returned actions.
    pub fn last_round_reasons(&self) -> &[ActionReason] {
        &self.last_reasons
    }

    /// The decision record of the most recent [`plan`](Self::plan)
    /// round: what the planner saw and why it acted. `None` before the
    /// first round and under the analytic `Oracle` policy, which never
    /// plans.
    pub fn last_decision(&self) -> Option<&DecisionRecord> {
        self.last_decision.as_ref()
    }

    /// Deterministic counts of the planning and index-maintenance work
    /// done so far, accumulated across rounds (all zero under the
    /// `Oracle` policy, which never plans).
    pub(crate) fn work(&self) -> &WorkTable {
        &self.ctx.work
    }

    /// Runs one management round.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::Shape`] if the observation's host/VM counts
    /// differ from what the manager was created with.
    pub fn plan(&mut self, obs: &ClusterObservation) -> Result<Vec<ManagementAction>, PlanError> {
        self.plan_traced(obs, &mut SpanTracer::new())
    }

    /// Runs one management round, recording each planning step as a
    /// child span of the caller's current span (`rescore`,
    /// `capacity_wake`, `overload`, `index_maintain`, `consolidate` with
    /// its `candidate_scan`/`trial`/`undo` subtree, `rebalance`, `park`).
    ///
    /// Tracing observes and never steers: with a disabled tracer this is
    /// byte-for-byte the same plan as [`plan`](Self::plan).
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::Shape`] if the observation's host/VM counts
    /// differ from what the manager was created with; the manager is
    /// left untouched.
    pub fn plan_traced(
        &mut self,
        obs: &ClusterObservation,
        tracer: &mut SpanTracer,
    ) -> Result<Vec<ManagementAction>, PlanError> {
        if obs.hosts.len() != self.ctx.num_hosts() || obs.vms.len() != self.ctx.num_vms() {
            return Err(PlanError::Shape {
                expected_hosts: self.ctx.num_hosts(),
                expected_vms: self.ctx.num_vms(),
                actual_hosts: obs.hosts.len(),
                actual_vms: obs.vms.len(),
            });
        }
        self.round += 1;

        let s_rescore = tracer.name("rescore");
        let s_wake = tracer.name("capacity_wake");
        let s_overload = tracer.name("overload");
        let s_index = tracer.name("index_maintain");
        let s_consolidate = tracer.name("consolidate");
        let s_rebalance = tracer.name("rebalance");
        let s_park = tracer.name("park");
        tracer.enter(s_rescore);

        // Detect fresh transition failures before any planning: backoff,
        // quarantine, and the fleet fail-safe gate the steps below.
        self.recovery.observe(obs);

        // Feed the predictors and rebuild the planning view from this
        // round's observation, in one pass.
        self.ctx.rebuild(obs, &mut self.predictors, &self.draining);

        // Feed the time-of-day profile (proactive pre-waking).
        if let Some(profile) = &mut self.profile {
            profile.observe(obs.now, self.ctx.observed_demand);
        }

        if matches!(self.config.policy(), PowerPolicy::Oracle) {
            // Oracle is evaluated analytically by the simulator; the
            // manager never acts.
            tracer.exit(s_rescore);
            self.last_decision = None;
            return Ok(Vec::new());
        }

        let mut ctx = std::mem::take(&mut self.ctx);

        // Recovery gating: a quarantined host must not keep draining (its
        // power-down would never be issued), and a tripped fail-safe
        // cancels every drain — the fleet holds near AlwaysOn until the
        // failure burst clears.
        let failsafe = self.recovery.failsafe_active();
        for h in 0..ctx.num_hosts() {
            if ctx.draining[h] && (failsafe || self.recovery.is_quarantined(h)) {
                ctx.draining[h] = false;
                self.draining[h] = false;
            }
        }
        let mut actions = Vec::new();
        let mut budget = self.config.max_migrations_per_round();
        let power_managed = self.config.policy().is_power_managed();

        // Snapshot the planner's view before any step mutates it — the
        // decision record explains this round from these inputs.
        let predicted_demand = ctx.total_predicted();
        let capacity = self.assess_capacity(&ctx, obs);
        tracer.exit(s_rescore);

        // Attribute each action to the step that produced it by tracking
        // step boundaries in the action list.
        let mut reasons: Vec<ActionReason> = Vec::new();
        let mark = |reasons: &mut Vec<ActionReason>, upto: usize, r: ActionReason| {
            while reasons.len() < upto {
                reasons.push(r);
            }
        };

        let mut available_capacity = capacity.available;
        tracer.enter(s_wake);
        if power_managed {
            available_capacity = self.ensure_capacity(&mut ctx, obs, &mut actions, &capacity);
        }
        tracer.exit(s_wake);
        mark(&mut reasons, actions.len(), ActionReason::CapacityWake);
        // Bring the utilization index up to date with this round's fresh
        // predictions before the first destination pick, every round —
        // fail-safe and unmanaged rounds included. It sits after the
        // capacity wake (which rewrites `draining`/`arriving` directly)
        // and before overload mitigation, whose per-VM least-loaded picks
        // are the first index consumers whether or not consolidation
        // runs. Every later mutation keeps the index exact in place:
        // `move_vm` and the trial undo re-file both endpoints' buckets
        // and memory maxima, and `set_draining_trial` updates the
        // capacity tree.
        tracer.enter(s_index);
        ctx.refresh_index();
        tracer.exit(s_index);
        tracer.enter(s_overload);
        drm::mitigate_overloads(&mut ctx, &self.config, &mut actions, &mut budget);
        tracer.exit(s_overload);
        mark(
            &mut reasons,
            actions.len(),
            ActionReason::OverloadMitigation,
        );
        tracer.enter(s_consolidate);
        if power_managed && !failsafe {
            consolidate::plan_consolidation(
                &mut ctx,
                &self.config,
                &self.gate,
                &self.recovery,
                obs.now,
                &mut actions,
                &mut budget,
                tracer,
            );
        }
        tracer.exit(s_consolidate);
        mark(&mut reasons, actions.len(), ActionReason::Consolidation);
        // Rebalance after consolidation so the trickle never refills a
        // host that is being drained.
        tracer.enter(s_rebalance);
        drm::rebalance(&mut ctx, &self.config, &mut actions, &mut budget);
        tracer.exit(s_rebalance);
        mark(&mut reasons, actions.len(), ActionReason::Rebalance);
        tracer.enter(s_park);
        if power_managed {
            self.draining.clear();
            self.draining.extend_from_slice(&ctx.draining);
            if !failsafe {
                self.park_drained(&ctx, obs, &mut actions);
            }
        }
        tracer.exit(s_park);
        mark(&mut reasons, actions.len(), ActionReason::Park);
        // Hand the context back for reuse next round.
        self.ctx = ctx;

        let mut round_actions = DecisionActions::default();
        for (action, &reason) in actions.iter().zip(&reasons) {
            round_actions.count(action, reason);
        }
        self.ctx
            .work
            .add(Count::MigrationsPlanned, round_actions.migrations());
        self.last_reasons = reasons;
        self.actions_hist.observe(actions.len() as f64);
        self.last_decision = Some(DecisionRecord {
            round: self.round,
            now: obs.now,
            trigger: DecisionTrigger {
                overload: capacity.overloaded_hosts > 0,
                underload: capacity.underloaded_hosts > 0,
                prewake: capacity.forecast.is_some_and(|f| f > predicted_demand),
            },
            observed_demand: self.ctx.observed_demand,
            predicted_demand,
            prewake_forecast: capacity.forecast,
            required_capacity: capacity.required,
            available_capacity,
            candidate_hosts: capacity.candidate_hosts,
            overloaded_hosts: capacity.overloaded_hosts,
            underloaded_hosts: capacity.underloaded_hosts,
            draining_hosts: self.draining.iter().filter(|&&d| d).count(),
            quarantined_hosts: self.recovery.quarantined_count(),
            failsafe,
            actions: round_actions,
            actions_per_round: self.actions_hist.quantiles(),
        });
        Ok(actions)
    }

    /// Measures required vs. available capacity and counts the decision
    /// record's host classes without acting — the shared input of
    /// [`ensure_capacity`](Self::ensure_capacity) and the round's
    /// decision record.
    fn assess_capacity(&self, ctx: &PlanContext, obs: &ClusterObservation) -> CapacityAssessment {
        let cfg = &self.config;
        let mut total_pred = ctx.total_predicted();
        // Proactive pre-wake: recurring ramps visible in the learned
        // profile raise the capacity requirement ahead of time.
        let mut forecast = None;
        if let (Some(profile), Some(lookahead)) = (&self.profile, cfg.prewake_lookahead()) {
            if let Some(f) = profile.forecast_max(obs.now, lookahead) {
                forecast = Some(f);
                total_pred = total_pred.max(f);
            }
        }
        // One pass in ascending host order. `available` starts from
        // `-0.0`, the neutral element `Iterator::sum` uses, so an empty
        // sum stays bit-identical to the summed form.
        let mut available = -0.0f64;
        let (mut overloaded_hosts, mut underloaded_hosts, mut candidate_hosts) = (0, 0, 0);
        for h in 0..ctx.num_hosts() {
            let cap = ctx.cpu_capacity[h];
            let candidate = ctx.operational[h] && !ctx.draining[h];
            if candidate || ctx.arriving[h] {
                available += cap;
            }
            if !ctx.operational[h] {
                continue;
            }
            let util = ctx.util(h);
            if util > cfg.overload_threshold() {
                overloaded_hosts += 1;
            }
            if candidate {
                candidate_hosts += 1;
                if util < cfg.underload_threshold() {
                    underloaded_hosts += 1;
                }
            }
        }
        let required_urgent = total_pred / cfg.target_utilization();
        let required = required_urgent + cfg.spare_hosts() as f64 * ctx.max_host_cap;
        CapacityAssessment {
            required_urgent,
            required,
            available,
            forecast,
            overloaded_hosts,
            underloaded_hosts,
            candidate_hosts,
        }
    }

    /// Step 1: cancel drains and wake parked hosts until predicted demand
    /// (plus spares) fits the capacity that is on or arriving. Returns
    /// the available capacity after the actions it planned.
    fn ensure_capacity(
        &mut self,
        ctx: &mut PlanContext,
        obs: &ClusterObservation,
        actions: &mut Vec<ManagementAction>,
        capacity: &CapacityAssessment,
    ) -> f64 {
        let required_urgent = capacity.required_urgent;
        let required = capacity.required;
        let mut available = capacity.available;

        // Cancelling a drain is free capacity: most-loaded drains first
        // (they have the most VMs to avoid moving).
        if available < required {
            let mut drains: Vec<usize> = (0..ctx.num_hosts())
                .filter(|&h| ctx.draining[h] && ctx.operational[h])
                .collect();
            drains.sort_by(|&a, &b| {
                ctx.util(b)
                    .partial_cmp(&ctx.util(a))
                    .expect("utilization is finite")
            });
            for h in drains {
                if available >= required {
                    break;
                }
                ctx.draining[h] = false;
                self.draining[h] = false;
                available += ctx.cpu_capacity[h];
            }
        }

        // Wake parked hosts shallowest rung first: package idle (near
        // instant), then suspended, then off.
        let mut pool: Vec<HostId> = obs.hosts_in_state(PowerState::PackageIdle).collect();
        pool.extend(obs.hosts_in_state(PowerState::Suspended));
        pool.extend(obs.hosts_in_state(PowerState::Off));
        for host in pool {
            if available >= required {
                break;
            }
            // Recovery gating: no wake attempts into a quarantined host
            // or inside a post-failure backoff window.
            if !self.recovery.may_power_cycle(host.index(), obs.now) {
                continue;
            }
            let urgent = available < required_urgent;
            if !urgent && !self.gate.may_power_up_nonurgent(host, obs.now) {
                continue;
            }
            actions.push(ManagementAction::PowerUp { host });
            self.gate.record_power_up(host, obs.now);
            ctx.arriving[host.index()] = true;
            available += ctx.cpu_capacity[host.index()];
        }
        available
    }

    /// Step 4: park drained hosts that are now empty.
    ///
    /// Under a `Reactive` policy every host parks in the policy's fixed
    /// low-power mode. Under `JointLadder` each host picks its own rung:
    /// the deepest one whose wake latency fits the policy's SLO and — when
    /// a pre-wake lookahead bounds the expected idle gap — whose
    /// break-even gap that lookahead affords; a warm pool sized from the
    /// day-profile forecast stays on the shallowest SLO-feasible rung to
    /// absorb recurring ramps without paying deep-wake latency.
    fn park_drained(
        &mut self,
        ctx: &PlanContext,
        obs: &ClusterObservation,
        actions: &mut Vec<ManagementAction>,
    ) {
        let ladder_slo = match *self.config.policy() {
            PowerPolicy::JointLadder { wake_slo } => Some(wake_slo),
            _ => None,
        };
        let fixed_mode = if ladder_slo.is_none() {
            Some(
                self.config
                    .policy()
                    .low_power_mode()
                    .expect("park_drained only runs under a power-managed policy"),
            )
        } else {
            None
        };
        let expected_gap = self.config.prewake_lookahead();
        let mut warm_budget = if ladder_slo.is_some() {
            self.warm_pool_deficit(ctx, obs)
        } else {
            0
        };
        for (i, host) in obs.hosts.iter().enumerate() {
            let id = HostId(i as u32);
            // Recovery gating: a host in backoff keeps draining and parks
            // once the window expires; a quarantined host never parks.
            if !self.recovery.may_power_cycle(i, obs.now) {
                continue;
            }
            if self.draining[i] && host.evacuated && host.is_operational() && host.pending.is_none()
            {
                let mode = match (fixed_mode, ladder_slo) {
                    (Some(mode), _) => mode,
                    (None, Some(wake_slo)) => {
                        let ladder = &ctx.ladders[i];
                        let deep = ladder.deepest_affordable(wake_slo, expected_gap);
                        let shallow = ladder.shallowest_within(wake_slo);
                        let pick = if warm_budget > 0 {
                            shallow.or(deep)
                        } else {
                            deep
                        };
                        let Some(mode) = pick else {
                            // No rung wakes within the SLO: the host
                            // stays on (and stops draining, so it can
                            // serve again next round).
                            self.draining[i] = false;
                            continue;
                        };
                        warm_budget = warm_budget.saturating_sub(1);
                        mode
                    }
                    (None, None) => unreachable!("one of fixed_mode/ladder_slo is set"),
                };
                actions.push(ManagementAction::PowerDown { host: id, mode });
                self.draining[i] = false;
                self.gate.record_power_down(id, obs.now);
            }
        }
    }

    /// How many more hosts the joint-ladder policy should hold on the
    /// shallowest rung: the day-profile forecast's ramp over current
    /// demand, converted to hosts at the target utilization, minus hosts
    /// already warm. Zero without a pre-wake lookahead (no forecast — the
    /// policy degenerates to pure deepest-affordable parking).
    fn warm_pool_deficit(&self, ctx: &PlanContext, obs: &ClusterObservation) -> usize {
        let (Some(profile), Some(lookahead)) = (&self.profile, self.config.prewake_lookahead())
        else {
            return 0;
        };
        let Some(forecast) = profile.forecast_max(obs.now, lookahead) else {
            return 0;
        };
        let ramp = forecast - ctx.observed_demand;
        if ramp <= 0.0 {
            return 0;
        }
        let per_host = ctx.max_host_cap * self.config.target_utilization();
        if per_host <= 0.0 {
            return 0;
        }
        let target = (ramp / per_host).ceil() as usize;
        // Warm means sitting on (or entering) the fleet's shallowest
        // rung: package idle where any host has a C6-class rung, suspend
        // otherwise.
        let warm = obs
            .hosts
            .iter()
            .filter(|h| {
                if ctx.has_c6 {
                    matches!(h.state, PowerState::PackageIdle | PowerState::Parking)
                } else {
                    matches!(h.state, PowerState::Suspended | PowerState::Suspending)
                }
            })
            .count();
        target.saturating_sub(warm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{host_spec, test_world, vm_spec};
    use cluster::VmId;
    use power::breakeven::LowPowerMode;
    use simcore::{SimDuration, SimTime};

    /// Hosts currently marked for evacuation.
    fn draining_hosts(mgr: &VirtManager) -> Vec<HostId> {
        let draining = mgr.draining.iter().enumerate().filter(|(_, &d)| d);
        draining.map(|(i, _)| HostId(i as u32)).collect()
    }

    /// Synthetic observation builder: hosts described by (state, vm
    /// demands), on `test_world`'s 8-core hosts and 8 GB VMs.
    fn obs(now: SimTime, hosts: &[(PowerState, &[f64])]) -> ClusterObservation {
        test_world(now, hosts).2
    }

    /// A manager for `hosts` of `test_world`'s hosts and `vms` of its VMs.
    fn manager(cfg: ManagerConfig, hosts: usize, vms: usize) -> VirtManager {
        let (host, vm) = (host_spec(8.0, 64.0), vm_spec(8.0, 8.0));
        VirtManager::new(cfg, &vec![host; hosts], &vec![vm; vms]).unwrap()
    }

    fn agile_config() -> ManagerConfig {
        ManagerConfig::new(PowerPolicy::reactive_suspend())
            .with_spare_hosts(0)
            .with_min_on_time(SimDuration::ZERO)
            .with_predictor(crate::PredictorConfig::LastValue)
    }

    #[test]
    fn always_on_never_touches_power() {
        let cfg = ManagerConfig::new(PowerPolicy::always_on());
        let mut mgr = manager(cfg, 3, 3);
        // Wildly underloaded: a power-managing policy would drain hosts.
        let o = obs(
            SimTime::ZERO,
            &[
                (PowerState::On, &[0.5]),
                (PowerState::On, &[0.3]),
                (PowerState::On, &[0.2]),
            ],
        );
        let actions = mgr.plan(&o).expect("well-shaped observation");
        assert!(actions.iter().all(|a| !a.is_power_action()));
        let counted = mgr.last_decision().unwrap().actions;
        assert_eq!(counted.power_ups + counted.power_downs, 0);
    }

    #[test]
    fn oracle_never_acts() {
        let cfg = ManagerConfig::new(PowerPolicy::oracle());
        let mut mgr = manager(cfg, 2, 2);
        let o = obs(
            SimTime::ZERO,
            &[(PowerState::On, &[0.5, 0.5]), (PowerState::On, &[])],
        );
        assert!(mgr.plan(&o).expect("well-shaped observation").is_empty());
    }

    #[test]
    fn consolidates_and_parks_underloaded_host() {
        let mut mgr = manager(agile_config(), 2, 2);
        // Two lightly-loaded hosts: host 1 should drain into host 0.
        let o = obs(
            SimTime::ZERO,
            &[(PowerState::On, &[1.0]), (PowerState::On, &[0.5])],
        );
        let actions = mgr.plan(&o).expect("well-shaped observation");
        assert!(
            actions.iter().any(|a| matches!(
                a,
                ManagementAction::Migrate {
                    vm: VmId(1),
                    to: HostId(0)
                }
            )),
            "{actions:?}"
        );
        assert_eq!(draining_hosts(&mgr), vec![HostId(1)]);

        // Next round: host 1 is evacuated -> power-down with suspend.
        let o2 = obs(
            SimTime::from_secs(300),
            &[(PowerState::On, &[1.0, 0.5]), (PowerState::On, &[])],
        );
        let actions2 = mgr.plan(&o2).expect("well-shaped observation");
        assert!(
            actions2.iter().any(|a| matches!(
                a,
                ManagementAction::PowerDown {
                    host: HostId(1),
                    mode: LowPowerMode::Suspend
                }
            )),
            "{actions2:?}"
        );
        assert!(draining_hosts(&mgr).is_empty());
        assert_eq!(mgr.last_decision().unwrap().actions.power_downs, 1);
    }

    #[test]
    fn off_policy_parks_with_shutdown() {
        let cfg = ManagerConfig::new(PowerPolicy::reactive_off())
            .with_spare_hosts(0)
            .with_min_on_time(SimDuration::ZERO)
            .with_predictor(crate::PredictorConfig::LastValue);
        let mut mgr = manager(cfg, 2, 1);
        let o = obs(
            SimTime::ZERO,
            &[(PowerState::On, &[1.0]), (PowerState::On, &[])],
        );
        let actions = mgr.plan(&o).expect("well-shaped observation");
        assert!(
            actions.iter().any(|a| matches!(
                a,
                ManagementAction::PowerDown {
                    host: HostId(1),
                    mode: LowPowerMode::Off
                }
            )),
            "{actions:?}"
        );
    }

    #[test]
    fn wakes_suspended_host_when_demand_rises() {
        let mut mgr = manager(agile_config(), 2, 2);
        // Host 1 is suspended; demand on host 0 nearly saturates it.
        let mut o = obs(
            SimTime::ZERO,
            &[(PowerState::On, &[4.0, 3.5]), (PowerState::Suspended, &[])],
        );
        o.hosts[1].evacuated = true;
        let actions = mgr.plan(&o).expect("well-shaped observation");
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, ManagementAction::PowerUp { host: HostId(1) })),
            "{actions:?}"
        );
        assert_eq!(mgr.last_decision().unwrap().actions.power_ups, 1);
    }

    #[test]
    fn prefers_suspended_over_off_when_waking() {
        let mut mgr = manager(agile_config(), 3, 2);
        let mut o = obs(
            SimTime::ZERO,
            &[
                (PowerState::On, &[4.0, 3.5]),
                (PowerState::Off, &[]),
                (PowerState::Suspended, &[]),
            ],
        );
        o.hosts[1].evacuated = true;
        o.hosts[2].evacuated = true;
        let actions = mgr.plan(&o).expect("well-shaped observation");
        let wakes: Vec<_> = actions
            .iter()
            .filter_map(|a| match a {
                ManagementAction::PowerUp { host } => Some(*host),
                _ => None,
            })
            .collect();
        assert_eq!(
            wakes.first(),
            Some(&HostId(2)),
            "suspended host wakes first"
        );
    }

    #[test]
    fn cancels_drain_before_waking() {
        let mut mgr = manager(agile_config(), 2, 2);
        // Round 1: drain host 1.
        let o = obs(
            SimTime::ZERO,
            &[(PowerState::On, &[1.0]), (PowerState::On, &[0.5])],
        );
        mgr.plan(&o).expect("well-shaped observation");
        assert_eq!(draining_hosts(&mgr), vec![HostId(1)]);
        // Round 2: demand explodes before the drain finished; the drain
        // must be cancelled rather than waking anything (nothing to wake).
        let o2 = obs(
            SimTime::from_secs(300),
            &[(PowerState::On, &[7.0]), (PowerState::On, &[6.0])],
        );
        let actions = mgr.plan(&o2).expect("well-shaped observation");
        assert!(draining_hosts(&mgr).is_empty());
        assert!(actions
            .iter()
            .all(|a| !matches!(a, ManagementAction::PowerDown { .. })));
    }

    #[test]
    fn spare_pool_keeps_extra_host() {
        let cfg = agile_config().with_spare_hosts(1);
        let mut mgr = manager(cfg, 2, 1);
        // One VM, trivially fits on host 0; with one spare required,
        // host 1 must NOT be drained.
        let o = obs(
            SimTime::ZERO,
            &[(PowerState::On, &[1.0]), (PowerState::On, &[])],
        );
        let actions = mgr.plan(&o).expect("well-shaped observation");
        assert!(actions.iter().all(|a| !a.is_power_action()), "{actions:?}");
    }

    #[test]
    fn decision_record_numbers_the_round_and_counts_its_migrations() {
        let mut mgr = manager(agile_config(), 2, 2);
        let o = obs(
            SimTime::ZERO,
            &[(PowerState::On, &[1.0]), (PowerState::On, &[0.5])],
        );
        mgr.plan(&o).expect("well-shaped observation");
        let d = mgr.last_decision().unwrap();
        assert_eq!(d.round, 1);
        assert!(d.actions.migrations() >= 1);
    }

    #[test]
    fn reasons_align_with_actions() {
        let mut mgr = manager(agile_config(), 2, 2);
        // Consolidation round: the migration off host 1 must be
        // attributed to consolidation.
        let o = obs(
            SimTime::ZERO,
            &[(PowerState::On, &[1.0]), (PowerState::On, &[0.5])],
        );
        let actions = mgr.plan(&o).expect("well-shaped observation");
        let reasons = mgr.last_round_reasons();
        assert_eq!(actions.len(), reasons.len());
        let migration_idx = actions
            .iter()
            .position(|a| matches!(a, ManagementAction::Migrate { .. }))
            .expect("consolidation migrates");
        assert_eq!(reasons[migration_idx], crate::ActionReason::Consolidation);
        let counted = mgr.last_decision().unwrap().actions;
        assert_eq!(counted.consolidation_migrations, 1);
        assert_eq!(counted.overload_migrations, 0);

        // Park round: power-down attributed to Park.
        let o2 = obs(
            SimTime::from_secs(300),
            &[(PowerState::On, &[1.0, 0.5]), (PowerState::On, &[])],
        );
        let actions2 = mgr.plan(&o2).expect("well-shaped observation");
        let reasons2 = mgr.last_round_reasons();
        let park_idx = actions2
            .iter()
            .position(|a| matches!(a, ManagementAction::PowerDown { .. }))
            .expect("drained host parks");
        assert_eq!(reasons2[park_idx], crate::ActionReason::Park);
    }

    #[test]
    fn quarantined_host_is_not_woken() {
        let cfg = agile_config().with_recovery(crate::RecoveryConfig::new().with_max_retries(1));
        let mut mgr = manager(cfg, 2, 2);
        // Host 1 is suspended and just failed a resume: one strike
        // quarantines it, so even saturating demand must not wake it.
        let mut o = obs(
            SimTime::ZERO,
            &[(PowerState::On, &[4.0, 3.5]), (PowerState::Suspended, &[])],
        );
        o.hosts[1].evacuated = true;
        o.hosts[1].failed_transitions = 1;
        let actions = mgr.plan(&o).expect("well-shaped observation");
        assert!(mgr.recovery.is_quarantined(1));
        assert!(
            actions
                .iter()
                .all(|a| !matches!(a, ManagementAction::PowerUp { .. })),
            "{actions:?}"
        );
        assert_eq!(mgr.recovery.stats().quarantines, 1);
        assert_eq!(mgr.recovery.stats().failures_observed, 1);
    }

    #[test]
    fn backoff_defers_wake_until_window_expires() {
        let recovery = crate::RecoveryConfig::new()
            .with_max_retries(10)
            .with_backoff(SimDuration::from_mins(2), SimDuration::from_mins(32));
        let mut mgr = manager(agile_config().with_recovery(recovery), 2, 2);
        let mut o = obs(
            SimTime::ZERO,
            &[(PowerState::On, &[4.0, 3.5]), (PowerState::Suspended, &[])],
        );
        o.hosts[1].evacuated = true;
        o.hosts[1].failed_transitions = 1;
        // Round 1: inside the 2-minute backoff window — no wake.
        let actions = mgr.plan(&o).expect("well-shaped observation");
        assert!(!mgr.recovery.is_quarantined(1));
        assert!(actions
            .iter()
            .all(|a| !matches!(a, ManagementAction::PowerUp { .. })));
        // Round 2, past the window: the retry goes out.
        let mut o2 = o.clone();
        o2.now = SimTime::from_secs(300);
        let actions2 = mgr.plan(&o2).expect("well-shaped observation");
        assert!(
            actions2
                .iter()
                .any(|a| matches!(a, ManagementAction::PowerUp { host: HostId(1) })),
            "{actions2:?}"
        );
    }

    #[test]
    fn failsafe_suppresses_consolidation_and_parking() {
        let recovery = crate::RecoveryConfig::new()
            .with_max_retries(100)
            .with_health(0.001, 0.05)
            .with_failsafe(SimDuration::from_mins(30), 1);
        let mut mgr = manager(agile_config().with_recovery(recovery), 2, 2);
        // Wildly underloaded — without the fail-safe this consolidates
        // (see `consolidates_and_parks_underloaded_host`) — but one
        // fleet failure trips the single-failure fail-safe.
        let mut o = obs(
            SimTime::ZERO,
            &[(PowerState::On, &[1.0]), (PowerState::On, &[0.5])],
        );
        o.hosts[0].failed_transitions = 1;
        let actions = mgr.plan(&o).expect("well-shaped observation");
        assert!(mgr.recovery.failsafe_active());
        assert!(actions.is_empty(), "{actions:?}");
        assert!(draining_hosts(&mgr).is_empty());
        let d = mgr.last_decision().unwrap();
        assert!(d.failsafe);
        assert_eq!(mgr.recovery.stats().failsafe_rounds, 1);

        // Once the window drains the fail-safe clears and consolidation
        // resumes.
        let mut o2 = o.clone();
        o2.now = SimTime::from_secs(40 * 60);
        let actions2 = mgr.plan(&o2).expect("well-shaped observation");
        assert!(!mgr.recovery.failsafe_active());
        assert!(
            actions2
                .iter()
                .any(|a| matches!(a, ManagementAction::Migrate { .. })),
            "{actions2:?}"
        );
    }

    #[test]
    fn failsafe_rounds_pick_overload_destinations_through_a_live_index() {
        let recovery = crate::RecoveryConfig::new()
            .with_max_retries(100)
            .with_failsafe(SimDuration::from_hours(2), 1);
        let cfg = agile_config().with_recovery(recovery);
        let mut mgr = manager(cfg, 2, 3);
        let mut oracle = manager(ManagerConfig::new(PowerPolicy::oracle()), 2, 3);
        // Host 0 is overloaded (7.5 of 8 cores) and reported a failure,
        // which holds the single-failure fail-safe for two hours.
        for round in 1..=3u64 {
            let mut o = obs(
                SimTime::from_secs(300 * (round - 1)),
                &[(PowerState::On, &[4.0, 3.5]), (PowerState::On, &[0.5])],
            );
            o.hosts[0].failed_transitions = 1;
            let actions = mgr.plan(&o).expect("well-shaped observation");
            oracle.plan(&o).expect("well-shaped observation");
            assert!(mgr.recovery.failsafe_active());
            let d = mgr.last_decision().unwrap();
            assert!(d.failsafe);
            assert!(d.actions.overload_migrations >= 1, "{actions:?}");
            assert!(mgr.ctx.index.valid, "round {round}: index left invalid");
            assert_eq!(mgr.work().get(Count::IndexRefreshes), round);
            assert_eq!(oracle.work().get(Count::IndexRefreshes), 0);
        }
    }

    #[test]
    fn quarantined_drain_is_cancelled_not_parked() {
        let recovery = crate::RecoveryConfig::new().with_max_retries(1);
        let mut mgr = manager(agile_config().with_recovery(recovery), 2, 2);
        // Round 1: host 1 drains normally.
        let o = obs(
            SimTime::ZERO,
            &[(PowerState::On, &[1.0]), (PowerState::On, &[0.5])],
        );
        mgr.plan(&o).expect("well-shaped observation");
        assert_eq!(draining_hosts(&mgr), vec![HostId(1)]);
        // Round 2: host 1 is evacuated but reports a transition failure
        // (e.g. a previous suspend attempt failed): the drain is
        // cancelled and no power-down is issued.
        let mut o2 = obs(
            SimTime::from_secs(300),
            &[(PowerState::On, &[1.0, 0.5]), (PowerState::On, &[])],
        );
        o2.hosts[1].failed_transitions = 1;
        let actions2 = mgr.plan(&o2).expect("well-shaped observation");
        assert!(mgr.recovery.is_quarantined(1));
        assert!(
            actions2
                .iter()
                .all(|a| !matches!(a, ManagementAction::PowerDown { .. })),
            "{actions2:?}"
        );
        // Quarantine cancels host 1's drain (it may still *serve*, so the
        // planner is free to consolidate onto it — just never cycle it).
        assert!(!draining_hosts(&mgr).contains(&HostId(1)));
        assert_eq!(mgr.last_decision().unwrap().quarantined_hosts, 1);
    }

    #[test]
    fn parked_rung_comes_from_the_hosts_own_ladder() {
        // A mixed inventory under a 2 s wake SLO: host 0 has a C6 rung
        // that wakes within it, host 1 is a classic S3/S5 host whose
        // every rung wakes slower. Both are drained and empty.
        let cfg = ManagerConfig::new(PowerPolicy::joint_ladder(SimDuration::from_secs(2)))
            .with_spare_hosts(0)
            .with_min_on_time(SimDuration::ZERO);
        let host = |profile| HostSpec::new(cluster::Resources::new(8.0, 64.0), profile);
        let hosts = [
            host(power::HostPowerProfile::prototype_rack_ladder()),
            host(power::HostPowerProfile::prototype_rack()),
        ];
        let mut mgr = VirtManager::new(cfg, &hosts, &[]).unwrap();
        mgr.draining = vec![true, true];
        let o = obs(
            SimTime::ZERO,
            &[(PowerState::On, &[]), (PowerState::On, &[])],
        );
        let actions = mgr.plan(&o).expect("well-shaped observation");
        assert_eq!(
            actions,
            [ManagementAction::PowerDown {
                host: HostId(0),
                mode: LowPowerMode::PackageIdle
            }]
        );
        // The classic host stays on and stops draining.
        assert!(draining_hosts(&mgr).is_empty());
    }

    #[test]
    fn prewake_ramp_keeps_one_drained_host_on_the_shallow_rung() {
        // Three C6-ladder hosts under a 30 s wake SLO (C6 and S3 both
        // wake within it); host 0 serves 1 core, hosts 1 and 2 are
        // drained and empty. The day profile forecasts 4 cores in the
        // next half hour: a 3-core ramp, one host at 6 cores a host.
        let cfg = ManagerConfig::new(PowerPolicy::joint_ladder(SimDuration::from_secs(30)))
            .with_spare_hosts(0)
            .with_min_on_time(SimDuration::ZERO)
            .with_prewake(SimDuration::from_mins(30))
            .with_predictor(crate::PredictorConfig::LastValue);
        let ladder = HostSpec::new(
            cluster::Resources::new(8.0, 64.0),
            power::HostPowerProfile::prototype_rack_ladder(),
        );
        let mut mgr = VirtManager::new(cfg, &vec![ladder; 3], &[vm_spec(8.0, 8.0)]).unwrap();
        mgr.profile
            .as_mut()
            .unwrap()
            .observe(SimTime::from_secs(30 * 60), 4.0);
        mgr.draining = vec![false, true, true];
        let o = obs(
            SimTime::ZERO,
            &[
                (PowerState::On, &[1.0]),
                (PowerState::On, &[]),
                (PowerState::On, &[]),
            ],
        );
        let actions = mgr.plan(&o).expect("well-shaped observation");
        // The first drained host stays warm on C6; the second takes the
        // deepest rung the SLO and the 30 min gap afford.
        assert_eq!(
            actions,
            [
                ManagementAction::PowerDown {
                    host: HostId(1),
                    mode: LowPowerMode::PackageIdle
                },
                ManagementAction::PowerDown {
                    host: HostId(2),
                    mode: LowPowerMode::Suspend
                },
            ]
        );
    }

    #[test]
    fn rejects_mismatched_observation() {
        let mut mgr = manager(agile_config(), 3, 4);
        let o = obs(SimTime::ZERO, &[(PowerState::On, &[1.0, 0.5])]);
        let err = mgr.plan(&o).expect_err("1 host / 2 VMs against 3 / 4");
        assert_eq!(
            err,
            PlanError::Shape {
                expected_hosts: 3,
                expected_vms: 4,
                actual_hosts: 1,
                actual_vms: 2,
            }
        );
        assert!(err.to_string().contains("3 hosts and 4 VMs"), "{err}");
        // A refused observation is no round: nothing was counted or kept.
        assert_eq!(mgr.round, 0);
        assert!(mgr.last_decision().is_none());
    }
}
