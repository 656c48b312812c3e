//! Decision attribution: why the manager did what it did each round.
//!
//! A [`DecisionRecord`] captures the inputs the planner saw (observed vs
//! predicted demand, capacity requirement, candidate set) and the outputs
//! it produced (per-reason action counts), so a trace reader can explain
//! any power action without replaying the run. The record is pure data:
//! building it never changes what the planner decides.

use obs::{Json, Quantiles};
use simcore::SimTime;

use crate::{ActionReason, ManagementAction};

/// What pushed the planner off the steady state this round.
///
/// The three flags are independent — a round can simultaneously mitigate
/// an overload and drain an underloaded host — so the record keeps all
/// three and [`label`](Self::label) picks the dominant one for display.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecisionTrigger {
    /// Some operational host was predicted above the overload threshold.
    pub overload: bool,
    /// Some operational host was predicted below the underload threshold
    /// (a consolidation candidate).
    pub underload: bool,
    /// The time-of-day profile's forecast raised the capacity
    /// requirement above instantaneous predicted demand.
    pub prewake: bool,
}

impl DecisionTrigger {
    /// The dominant trigger, in urgency order: overload beats prewake
    /// beats underload; none of the three is `"steady"`.
    pub fn label(&self) -> &'static str {
        if self.overload {
            "overload"
        } else if self.prewake {
            "prewake"
        } else if self.underload {
            "underload"
        } else {
            "steady"
        }
    }
}

/// Actions emitted this round, bucketed by the planning step that
/// produced them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecisionActions {
    /// Live migrations requested (all reasons).
    pub migrations: u64,
    /// Migrations relieving overloaded hosts.
    pub overload_migrations: u64,
    /// Migrations evacuating underloaded hosts.
    pub consolidation_migrations: u64,
    /// Background load-balancing migrations.
    pub rebalance_migrations: u64,
    /// Host power-ups requested.
    pub power_ups: u64,
    /// Host power-downs requested.
    pub power_downs: u64,
}

impl DecisionActions {
    /// Counts one action under the planning step that produced it. The
    /// manager's decision record and the control plane's kept-action
    /// count both go through here, so the two cannot bucket differently.
    pub(crate) fn count(&mut self, action: &ManagementAction, reason: ActionReason) {
        match action {
            ManagementAction::Migrate { .. } => {
                self.migrations += 1;
                match reason {
                    ActionReason::OverloadMitigation => self.overload_migrations += 1,
                    ActionReason::Consolidation => self.consolidation_migrations += 1,
                    ActionReason::Rebalance => self.rebalance_migrations += 1,
                    ActionReason::CapacityWake | ActionReason::Park => {}
                }
            }
            ManagementAction::PowerUp { .. } => self.power_ups += 1,
            ManagementAction::PowerDown { .. } => self.power_downs += 1,
        }
    }
}

/// One management round's inputs and outputs.
///
/// Produced by `VirtManager::plan` and retrievable via
/// `VirtManager::last_decision`; the simulator forwards it to the trace
/// sink as a `manager-decision` record.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRecord {
    /// Management round number: 1-based, counting the rounds this
    /// manager has planned (a refused observation is no round).
    pub round: u64,
    /// Simulated time of the observation.
    pub now: SimTime,
    /// What pushed the planner off the steady state.
    pub trigger: DecisionTrigger,
    /// Total CPU demand the cluster reported (cores).
    pub observed_demand: f64,
    /// Total demand the per-VM predictors expect next round (cores).
    pub predicted_demand: f64,
    /// Forecast from the time-of-day profile, when pre-waking is
    /// enabled and the profile had data (cores).
    pub prewake_forecast: Option<f64>,
    /// Capacity the planner required: urgent demand at target
    /// utilization plus the spare-host reserve (cores).
    pub required_capacity: f64,
    /// Capacity on, arriving, or un-drained after the capacity step
    /// (cores).
    pub available_capacity: f64,
    /// Operational, non-draining hosts — the migration target
    /// candidate set.
    pub candidate_hosts: usize,
    /// Hosts predicted above the overload threshold.
    pub overloaded_hosts: usize,
    /// Operational hosts predicted below the underload threshold.
    pub underloaded_hosts: usize,
    /// Hosts marked draining when the round ended.
    pub draining_hosts: usize,
    /// Hosts quarantined by the recovery tracker this round.
    pub quarantined_hosts: usize,
    /// Whether the fleet fail-safe suppressed consolidation and parking.
    pub failsafe: bool,
    /// Actions emitted, bucketed by planning step.
    pub actions: DecisionActions,
    /// Percentile summary (conservative upper bounds) of total actions
    /// per round across all rounds so far, from the manager's
    /// deterministic log-bucket histogram. `None` only when the
    /// histogram is empty.
    pub actions_per_round: Option<Quantiles>,
}

impl DecisionRecord {
    /// Spare capacity beyond the requirement (negative while waking
    /// hosts that have not yet arrived).
    pub fn headroom(&self) -> f64 {
        self.available_capacity - self.required_capacity
    }

    /// Renders the record as a JSON object (the `manager-decision`
    /// trace schema).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("record", Json::Str("manager-decision".into())),
            ("round", Json::Int(self.round as i64)),
            ("t_seconds", Json::Num(self.now.as_secs_f64())),
            ("trigger", Json::Str(self.trigger.label().into())),
            ("overload", Json::Bool(self.trigger.overload)),
            ("underload", Json::Bool(self.trigger.underload)),
            ("prewake", Json::Bool(self.trigger.prewake)),
            ("observed_demand", Json::Num(self.observed_demand)),
            ("predicted_demand", Json::Num(self.predicted_demand)),
            (
                "prewake_forecast",
                match self.prewake_forecast {
                    Some(f) => Json::Num(f),
                    None => Json::Null,
                },
            ),
            ("required_capacity", Json::Num(self.required_capacity)),
            ("available_capacity", Json::Num(self.available_capacity)),
            ("headroom", Json::Num(self.headroom())),
            ("candidate_hosts", Json::Int(self.candidate_hosts as i64)),
            ("overloaded_hosts", Json::Int(self.overloaded_hosts as i64)),
            (
                "underloaded_hosts",
                Json::Int(self.underloaded_hosts as i64),
            ),
            ("draining_hosts", Json::Int(self.draining_hosts as i64)),
            (
                "quarantined_hosts",
                Json::Int(self.quarantined_hosts as i64),
            ),
            ("failsafe", Json::Bool(self.failsafe)),
            ("migrations", Json::Int(self.actions.migrations as i64)),
            (
                "overload_migrations",
                Json::Int(self.actions.overload_migrations as i64),
            ),
            (
                "consolidation_migrations",
                Json::Int(self.actions.consolidation_migrations as i64),
            ),
            (
                "rebalance_migrations",
                Json::Int(self.actions.rebalance_migrations as i64),
            ),
            ("power_ups", Json::Int(self.actions.power_ups as i64)),
            ("power_downs", Json::Int(self.actions.power_downs as i64)),
            (
                "actions_per_round_p50",
                match self.actions_per_round {
                    Some(q) => Json::Num(q.p50),
                    None => Json::Null,
                },
            ),
            (
                "actions_per_round_p95",
                match self.actions_per_round {
                    Some(q) => Json::Num(q.p95),
                    None => Json::Null,
                },
            ),
            (
                "actions_per_round_p99",
                match self.actions_per_round {
                    Some(q) => Json::Num(q.p99),
                    None => Json::Null,
                },
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> DecisionRecord {
        DecisionRecord {
            round: 3,
            now: SimTime::from_secs(900),
            trigger: DecisionTrigger {
                overload: true,
                underload: false,
                prewake: true,
            },
            observed_demand: 10.0,
            predicted_demand: 12.0,
            prewake_forecast: Some(14.0),
            required_capacity: 20.0,
            available_capacity: 24.0,
            candidate_hosts: 3,
            overloaded_hosts: 1,
            underloaded_hosts: 0,
            draining_hosts: 0,
            quarantined_hosts: 1,
            failsafe: false,
            actions: DecisionActions {
                migrations: 2,
                overload_migrations: 2,
                ..DecisionActions::default()
            },
            actions_per_round: Some(Quantiles {
                p50: 2.0,
                p95: 4.0,
                p99: 4.0,
            }),
        }
    }

    #[test]
    fn trigger_priority() {
        assert_eq!(DecisionTrigger::default().label(), "steady");
        assert_eq!(
            DecisionTrigger {
                overload: true,
                underload: true,
                prewake: true
            }
            .label(),
            "overload"
        );
        assert_eq!(
            DecisionTrigger {
                overload: false,
                underload: true,
                prewake: true
            }
            .label(),
            "prewake"
        );
        assert_eq!(
            DecisionTrigger {
                overload: false,
                underload: true,
                prewake: false
            }
            .label(),
            "underload"
        );
    }

    #[test]
    fn headroom_is_available_minus_required() {
        assert!((record().headroom() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn json_round_trip_fields() {
        let j = record().to_json();
        assert_eq!(j.get("record").unwrap().as_str(), Some("manager-decision"));
        assert_eq!(j.get("trigger").unwrap().as_str(), Some("overload"));
        assert_eq!(j.get("round").unwrap().as_i64(), Some(3));
        assert_eq!(j.get("t_seconds").unwrap().as_f64(), Some(900.0));
        assert_eq!(j.get("prewake_forecast").unwrap().as_f64(), Some(14.0));
        assert_eq!(j.get("overload_migrations").unwrap().as_i64(), Some(2));
        assert_eq!(j.get("quarantined_hosts").unwrap().as_i64(), Some(1));
        assert_eq!(j.get("failsafe").unwrap().as_bool(), Some(false));
        assert_eq!(j.get("actions_per_round_p95").unwrap().as_f64(), Some(4.0));
        // Compact text parses back.
        let parsed = obs::Json::parse(&j.to_string_compact()).unwrap();
        assert_eq!(parsed, j);
    }
}
