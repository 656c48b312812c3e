//! The simulation audit log: what happened, when.
//!
//! When enabled, the engine records every management-visible event with
//! its timestamp — the trace an operator would pull to answer "why did
//! host 12 power-cycle at 3am?". Off by default (a day of a large fleet
//! generates thousands of entries).

use cluster::{HostId, VmId};
use obs::{Json, JsonError};
use power::{PowerState, TransitionKind};
use simcore::SimTime;
use std::fmt;

/// One timestamped entry in the audit log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventRecord {
    /// When the event happened.
    pub time: SimTime,
    /// What happened.
    pub kind: EventKind,
}

/// The event vocabulary of the audit log.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum EventKind {
    /// A live migration started.
    MigrationStarted {
        /// The VM being moved.
        vm: VmId,
        /// Destination host.
        to: HostId,
    },
    /// A live migration completed (VM now on the destination).
    MigrationCompleted {
        /// The VM that moved.
        vm: VmId,
    },
    /// A live migration aborted at its scheduled completion (fault
    /// injection); the VM stayed on its source host.
    MigrationFailed {
        /// The VM that failed to move.
        vm: VmId,
    },
    /// A power transition started.
    PowerStarted {
        /// The host transitioning.
        host: HostId,
        /// The transition kind.
        kind: TransitionKind,
    },
    /// A power transition completed.
    PowerCompleted {
        /// The host that transitioned.
        host: HostId,
        /// The state it landed in.
        state: PowerState,
    },
    /// A power transition failed (fault injection); the host landed in
    /// the transition's failure state.
    PowerFailed {
        /// The host whose transition failed.
        host: HostId,
        /// The state it fell back to.
        state: PowerState,
    },
    /// A power transition hung (fault injection): it will hold its
    /// transitional state for a multiple of the nominal latency before
    /// failing. Logged when the stuck interval is detected at begin time.
    PowerStuck {
        /// The host whose transition hung.
        host: HostId,
        /// The transition kind that hung.
        kind: TransitionKind,
    },
    /// The cluster rejected a management action as stale.
    ActionRejected,
    /// A transient VM was provisioned onto a host.
    VmArrived {
        /// The VM.
        vm: VmId,
        /// Where it was placed.
        host: HostId,
    },
    /// A transient VM's arrival found no capacity and was deferred one
    /// round.
    VmArrivalDeferred {
        /// The VM.
        vm: VmId,
    },
    /// A transient VM's deferred arrival could not be retried before the
    /// horizon: the admission was rejected outright.
    VmArrivalRejected {
        /// The VM.
        vm: VmId,
    },
    /// A transient VM was retired.
    VmDeparted {
        /// The VM.
        vm: VmId,
    },
    /// The placement store refused a scheduler's commit (allocation race
    /// or stale belief); the owning scheduler re-plans next round.
    CommitRejected {
        /// The scheduler whose commit was refused.
        scheduler: u32,
        /// Why the store refused it.
        reason: agile_core::ConflictReason,
    },
}

fn parse_state(s: &str) -> Result<PowerState, JsonError> {
    PowerState::ALL
        .into_iter()
        .find(|st| st.to_string() == s)
        .ok_or_else(|| JsonError {
            message: format!("unknown power state {s:?}"),
            offset: 0,
        })
}

fn parse_kind(s: &str) -> Result<TransitionKind, JsonError> {
    TransitionKind::ALL
        .into_iter()
        .find(|k| k.to_string() == s)
        .ok_or_else(|| JsonError {
            message: format!("unknown transition kind {s:?}"),
            offset: 0,
        })
}

fn field_err(what: &str) -> JsonError {
    JsonError {
        message: format!("event record missing or malformed field {what:?}"),
        offset: 0,
    }
}

/// The instant `seconds` names, if it is a whole number of milliseconds
/// in `SimTime`'s range: a negative, non-finite, sub-millisecond or
/// past-`u64`-millisecond timestamp is `None`, not a clamped or rounded
/// time. Whole milliseconds are exactly what [`SimTime::as_secs_f64`]
/// writes back, so an accepted record re-serialises unchanged.
fn time_from_seconds(seconds: f64) -> Option<SimTime> {
    let millis = (seconds * 1000.0).round();
    // 2^64 is exact in f64; every finite value below it fits a u64.
    let in_range = (0.0..18_446_744_073_709_551_616.0).contains(&millis);
    let time = SimTime::from_millis(millis as u64);
    (in_range && time.as_secs_f64() == seconds).then_some(time)
}

impl EventRecord {
    /// Renders the event as a flat JSON object — the same schema the
    /// engine streams to trace sinks (`record` discriminator +
    /// `t_seconds` + event-specific fields).
    pub fn to_json(&self) -> Json {
        let t = ("t_seconds", Json::Num(self.time.as_secs_f64()));
        match self.kind {
            EventKind::MigrationStarted { vm, to } => Json::obj([
                ("record", Json::Str("migration".into())),
                t,
                ("phase", Json::Str("started".into())),
                ("vm", Json::Int(vm.index() as i64)),
                ("to_host", Json::Int(to.index() as i64)),
            ]),
            EventKind::MigrationCompleted { vm } => Json::obj([
                ("record", Json::Str("migration".into())),
                t,
                ("phase", Json::Str("completed".into())),
                ("vm", Json::Int(vm.index() as i64)),
            ]),
            EventKind::MigrationFailed { vm } => Json::obj([
                ("record", Json::Str("migration".into())),
                t,
                ("phase", Json::Str("failed".into())),
                ("vm", Json::Int(vm.index() as i64)),
            ]),
            EventKind::PowerStarted { host, kind } => Json::obj([
                ("record", Json::Str("power-transition".into())),
                t,
                ("phase", Json::Str("started".into())),
                ("host", Json::Int(host.index() as i64)),
                ("kind", Json::Str(kind.to_string())),
            ]),
            EventKind::PowerCompleted { host, state } => Json::obj([
                ("record", Json::Str("power-transition".into())),
                t,
                ("phase", Json::Str("completed".into())),
                ("host", Json::Int(host.index() as i64)),
                ("state", Json::Str(state.to_string())),
            ]),
            EventKind::PowerFailed { host, state } => Json::obj([
                ("record", Json::Str("power-transition".into())),
                t,
                ("phase", Json::Str("failed".into())),
                ("host", Json::Int(host.index() as i64)),
                ("state", Json::Str(state.to_string())),
            ]),
            EventKind::PowerStuck { host, kind } => Json::obj([
                ("record", Json::Str("power-transition".into())),
                t,
                ("phase", Json::Str("stuck".into())),
                ("host", Json::Int(host.index() as i64)),
                ("kind", Json::Str(kind.to_string())),
            ]),
            EventKind::ActionRejected => {
                Json::obj([("record", Json::Str("action-rejected".into())), t])
            }
            EventKind::VmArrived { vm, host } => Json::obj([
                ("record", Json::Str("vm-lifecycle".into())),
                t,
                ("phase", Json::Str("arrived".into())),
                ("vm", Json::Int(vm.index() as i64)),
                ("host", Json::Int(host.index() as i64)),
            ]),
            EventKind::VmArrivalDeferred { vm } => Json::obj([
                ("record", Json::Str("vm-lifecycle".into())),
                t,
                ("phase", Json::Str("deferred".into())),
                ("vm", Json::Int(vm.index() as i64)),
            ]),
            EventKind::VmArrivalRejected { vm } => Json::obj([
                ("record", Json::Str("vm-lifecycle".into())),
                t,
                ("phase", Json::Str("rejected".into())),
                ("vm", Json::Int(vm.index() as i64)),
            ]),
            EventKind::VmDeparted { vm } => Json::obj([
                ("record", Json::Str("vm-lifecycle".into())),
                t,
                ("phase", Json::Str("departed".into())),
                ("vm", Json::Int(vm.index() as i64)),
            ]),
            EventKind::CommitRejected { scheduler, reason } => Json::obj([
                ("record", Json::Str("commit-rejected".into())),
                t,
                ("scheduler", Json::Int(scheduler as i64)),
                ("reason", Json::Str(reason.label().into())),
            ]),
        }
    }

    /// Parses a record produced by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when the discriminator, phase, or any
    /// required field is missing or of the wrong type, when `t_seconds`
    /// is not a whole number of milliseconds in [`SimTime`]'s range, or
    /// when the record has a field its kind does not write.
    pub fn from_json(json: &Json) -> Result<Self, JsonError> {
        let str_field = |k: &str| -> Result<&str, JsonError> {
            json.get(k)
                .and_then(Json::as_str)
                .ok_or_else(|| field_err(k))
        };
        // Ids past `u32::MAX` are errors, not silently wrapped ids.
        let u32_field = |k: &str| -> Result<u32, JsonError> {
            json.get(k)
                .and_then(Json::as_u64)
                .and_then(|v| u32::try_from(v).ok())
                .ok_or_else(|| field_err(k))
        };
        let vm = |k: &str| u32_field(k).map(VmId);
        let host = |k: &str| u32_field(k).map(HostId);
        let time = json
            .get("t_seconds")
            .and_then(Json::as_f64)
            .and_then(time_from_seconds)
            .ok_or_else(|| field_err("t_seconds"))?;
        let kind = match (
            str_field("record")?,
            json.get("phase").and_then(Json::as_str),
        ) {
            ("migration", Some("started")) => EventKind::MigrationStarted {
                vm: vm("vm")?,
                to: host("to_host")?,
            },
            ("migration", Some("completed")) => EventKind::MigrationCompleted { vm: vm("vm")? },
            ("migration", Some("failed")) => EventKind::MigrationFailed { vm: vm("vm")? },
            ("power-transition", Some("started")) => EventKind::PowerStarted {
                host: host("host")?,
                kind: parse_kind(str_field("kind")?)?,
            },
            ("power-transition", Some("completed")) => EventKind::PowerCompleted {
                host: host("host")?,
                state: parse_state(str_field("state")?)?,
            },
            ("power-transition", Some("failed")) => EventKind::PowerFailed {
                host: host("host")?,
                state: parse_state(str_field("state")?)?,
            },
            ("power-transition", Some("stuck")) => EventKind::PowerStuck {
                host: host("host")?,
                kind: parse_kind(str_field("kind")?)?,
            },
            ("action-rejected", _) => EventKind::ActionRejected,
            ("vm-lifecycle", Some("arrived")) => EventKind::VmArrived {
                vm: vm("vm")?,
                host: host("host")?,
            },
            ("vm-lifecycle", Some("deferred")) => EventKind::VmArrivalDeferred { vm: vm("vm")? },
            ("vm-lifecycle", Some("rejected")) => EventKind::VmArrivalRejected { vm: vm("vm")? },
            ("vm-lifecycle", Some("departed")) => EventKind::VmDeparted { vm: vm("vm")? },
            ("commit-rejected", _) => EventKind::CommitRejected {
                scheduler: u32_field("scheduler")?,
                reason: {
                    let label = str_field("reason")?;
                    agile_core::ConflictReason::from_label(label).ok_or_else(|| JsonError {
                        message: format!("unknown conflict reason {label:?}"),
                        offset: 0,
                    })?
                },
            },
            (record, phase) => {
                return Err(JsonError {
                    message: format!("unknown event record {record:?} phase {phase:?}"),
                    offset: 0,
                })
            }
        };
        let record = EventRecord { time, kind };
        // Every field was read above, so an equal count means no field
        // outside the record's schema (which a re-write would drop).
        let fields = |j: &Json| j.as_object().map(<[_]>::len);
        if fields(json) != fields(&record.to_json()) {
            return Err(JsonError {
                message: format!("{kind:?} event record has a field its kind does not write"),
                offset: 0,
            });
        }
        Ok(record)
    }
}

impl fmt::Display for EventRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] ", self.time)?;
        match self.kind {
            EventKind::MigrationStarted { vm, to } => {
                write!(f, "migration of {vm} to {to} started")
            }
            EventKind::MigrationCompleted { vm } => write!(f, "migration of {vm} completed"),
            EventKind::MigrationFailed { vm } => {
                write!(f, "migration of {vm} ABORTED; staying on source")
            }
            EventKind::PowerStarted { host, kind } => write!(f, "{host} began {kind}"),
            EventKind::PowerCompleted { host, state } => write!(f, "{host} is now {state}"),
            EventKind::PowerFailed { host, state } => {
                write!(f, "{host} transition FAILED, fell back to {state}")
            }
            EventKind::PowerStuck { host, kind } => {
                write!(f, "{host} {kind} HUNG; will fail after the stuck interval")
            }
            EventKind::ActionRejected => write!(f, "stale management action rejected"),
            EventKind::VmArrived { vm, host } => write!(f, "{vm} provisioned on {host}"),
            EventKind::VmArrivalDeferred { vm } => write!(f, "{vm} arrival deferred (no capacity)"),
            EventKind::VmArrivalRejected { vm } => {
                write!(f, "{vm} admission rejected (no capacity before horizon)")
            }
            EventKind::VmDeparted { vm } => write!(f, "{vm} retired"),
            EventKind::CommitRejected { scheduler, reason } => {
                write!(f, "scheduler {scheduler} commit rejected ({reason})")
            }
        }
    }
}

/// Renders the log as CSV (`t_seconds,event` with the display text).
pub fn events_csv(events: &[EventRecord]) -> String {
    let mut out = String::from("t_seconds,event\n");
    for e in events {
        // The display text contains no commas; quote-free CSV is safe.
        let text = e.to_string();
        let text = text.split_once("] ").map(|(_, rest)| rest).unwrap_or(&text);
        out.push_str(&format!("{},{}\n", e.time.as_secs_f64(), text));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_operator_readable() {
        let e = EventRecord {
            time: SimTime::from_secs(90),
            kind: EventKind::PowerStarted {
                host: HostId(3),
                kind: TransitionKind::Resume,
            },
        };
        assert_eq!(e.to_string(), "[1m30s] host3 began resume");
    }

    #[test]
    fn json_round_trips_every_variant() {
        let kinds = [
            EventKind::MigrationStarted {
                vm: VmId(4),
                to: HostId(2),
            },
            EventKind::MigrationCompleted { vm: VmId(4) },
            EventKind::MigrationFailed { vm: VmId(4) },
            EventKind::PowerStarted {
                host: HostId(3),
                kind: TransitionKind::Resume,
            },
            EventKind::PowerCompleted {
                host: HostId(3),
                state: PowerState::On,
            },
            EventKind::PowerFailed {
                host: HostId(3),
                state: PowerState::Suspended,
            },
            EventKind::PowerStuck {
                host: HostId(3),
                kind: TransitionKind::Suspend,
            },
            EventKind::ActionRejected,
            EventKind::VmArrived {
                vm: VmId(1),
                host: HostId(0),
            },
            EventKind::VmArrivalDeferred { vm: VmId(1) },
            EventKind::VmArrivalRejected { vm: VmId(1) },
            EventKind::VmDeparted { vm: VmId(1) },
            EventKind::CommitRejected {
                scheduler: 2,
                reason: agile_core::ConflictReason::Headroom,
            },
        ];
        for kind in kinds {
            let e = EventRecord {
                time: SimTime::from_millis(90_500),
                kind,
            };
            let json = e.to_json();
            // Through the writer and parser too, not just the value model.
            let reparsed = Json::parse(&json.to_string_compact()).unwrap();
            assert_eq!(EventRecord::from_json(&reparsed).unwrap(), e, "{kind:?}");
        }
    }

    #[test]
    fn from_json_rejects_unknown_record() {
        let j = Json::obj([
            ("record", Json::Str("nonsense".into())),
            ("t_seconds", Json::Num(1.0)),
        ]);
        assert!(EventRecord::from_json(&j).is_err());
    }

    #[test]
    fn from_json_rejects_fields_outside_the_schema() {
        // A migration start relabelled as a completion still carries its
        // destination, which a completion record does not write.
        let text = r#"{"record":"migration","t_seconds":1,"phase":"completed","vm":3,"to_host":5}"#;
        assert!(EventRecord::from_json(&Json::parse(text).unwrap()).is_err());
        let text = r#"{"record":"action-rejected","t_seconds":1,"phase":"x"}"#;
        assert!(EventRecord::from_json(&Json::parse(text).unwrap()).is_err());
    }

    #[test]
    fn from_json_rejects_malformed_timestamps() {
        let at = |t: &str| {
            let text = format!(r#"{{"record":"action-rejected","t_seconds":{t}}}"#);
            EventRecord::from_json(&Json::parse(&text).unwrap()).map(|e| e.time)
        };
        // Negative, non-finite (the writer's spelling of NaN/inf is
        // `null`), past u64 milliseconds, and between milliseconds.
        for t in [
            "-5",
            "-0.4",
            "null",
            "1e30",
            "1.8446744073709552e16",
            "1.0005",
        ] {
            let err = at(t).expect_err(t);
            assert!(err.message.contains("t_seconds"), "{t}: {err}");
        }
        assert_eq!(at("0"), Ok(SimTime::ZERO));
        assert_eq!(at("90.5"), Ok(SimTime::from_millis(90_500)));
        let far = SimTime::from_millis(1 << 53);
        assert_eq!(at(&format!("{:?}", far.as_secs_f64())), Ok(far));
    }

    /// Parses `fields` (with `{id}` substituted) as an event record.
    fn parse_with_id(fields: &str, id: u64) -> Result<EventKind, JsonError> {
        let text = format!(
            r#"{{"t_seconds":1,{}}}"#,
            fields.replace("{id}", &id.to_string())
        );
        EventRecord::from_json(&Json::parse(&text).unwrap()).map(|e| e.kind)
    }

    #[test]
    fn vm_ids_past_u32_are_rejected_not_wrapped() {
        let fields = r#""record":"migration","phase":"completed","vm":{id}"#;
        let kind = parse_with_id(fields, u32::MAX.into()).unwrap();
        assert_eq!(kind, EventKind::MigrationCompleted { vm: VmId(u32::MAX) });
        assert!(
            parse_with_id(fields, 1 << 32 | 1).is_err(),
            "wrapped to VmId(1)"
        );
    }

    #[test]
    fn host_ids_past_u32_are_rejected_not_wrapped() {
        let fields = r#""record":"power-transition","phase":"stuck","kind":"boot","host":{id}"#;
        let kind = parse_with_id(fields, u32::MAX.into()).unwrap();
        let host = HostId(u32::MAX);
        assert_eq!(
            kind,
            EventKind::PowerStuck {
                host,
                kind: TransitionKind::Boot
            }
        );
        assert!(
            parse_with_id(fields, 1 << 32 | 1).is_err(),
            "wrapped to HostId(1)"
        );
    }

    #[test]
    fn csv_has_header_and_rows() {
        let events = vec![
            EventRecord {
                time: SimTime::from_secs(1),
                kind: EventKind::VmDeparted { vm: VmId(4) },
            },
            EventRecord {
                time: SimTime::from_secs(2),
                kind: EventKind::ActionRejected,
            },
        ];
        let csv = events_csv(&events);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "t_seconds,event");
        assert_eq!(lines[1], "1,vm4 retired");
        assert_eq!(lines.len(), 3);
    }
}
