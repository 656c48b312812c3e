//! Physical hosts: capacity plus a power-state machine.

use std::sync::Arc;

use power::{HostPowerProfile, PowerState, PowerStateMachine};
use simcore::SimTime;

use crate::{HostId, Resources};

/// Static configuration of one physical host.
#[derive(Debug, Clone)]
pub struct HostSpec {
    capacity: Resources,
    profile: Arc<HostPowerProfile>,
}

impl HostSpec {
    /// Creates a host spec from its capacity and power profile.
    ///
    /// # Panics
    ///
    /// Panics if capacity is zero on either dimension.
    pub fn new(capacity: Resources, profile: impl Into<Arc<HostPowerProfile>>) -> Self {
        assert!(capacity.cpu_cores > 0.0, "host needs CPU capacity");
        assert!(capacity.mem_gb > 0.0, "host needs memory capacity");
        HostSpec {
            capacity,
            profile: profile.into(),
        }
    }

    /// The host's capacity.
    pub fn capacity(&self) -> Resources {
        self.capacity
    }

    /// The host's power profile.
    pub fn profile(&self) -> &Arc<HostPowerProfile> {
        &self.profile
    }
}

/// A live physical host within a [`crate::Cluster`].
///
/// Couples a [`HostSpec`] with a running [`PowerStateMachine`]. Placement
/// state lives in the cluster's [`crate::PlacementMap`], not here, so the
/// host stays a pure physical model.
#[derive(Debug, Clone)]
pub struct Host {
    id: HostId,
    capacity: Resources,
    power: PowerStateMachine,
}

impl Host {
    pub(crate) fn from_spec(id: HostId, spec: &HostSpec, t0: SimTime) -> Self {
        Host {
            id,
            capacity: spec.capacity,
            power: PowerStateMachine::new(Arc::clone(&spec.profile), t0),
        }
    }

    /// The host's identifier.
    pub fn id(&self) -> HostId {
        self.id
    }

    /// The host's total capacity.
    pub fn capacity(&self) -> Resources {
        self.capacity
    }

    /// Current power state.
    pub fn power_state(&self) -> PowerState {
        self.power.state()
    }

    /// Whether the host can serve VM load right now.
    pub fn is_operational(&self) -> bool {
        self.power.is_operational()
    }

    /// Immutable access to the power machine (energy meter, residency,
    /// transition counts).
    pub fn power(&self) -> &PowerStateMachine {
        &self.power
    }

    /// Mutable access to the power machine; the cluster uses this to drive
    /// transitions and utilization updates.
    pub(crate) fn power_mut(&mut self) -> &mut PowerStateMachine {
        &mut self.power
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_from_spec_starts_on() {
        let spec = HostSpec::new(
            Resources::new(16.0, 64.0),
            HostPowerProfile::prototype_rack(),
        );
        let h = Host::from_spec(HostId(2), &spec, SimTime::ZERO);
        assert_eq!(h.id(), HostId(2));
        assert_eq!(h.capacity(), Resources::new(16.0, 64.0));
        assert_eq!(h.power_state(), PowerState::On);
        assert!(h.is_operational());
    }

    #[test]
    fn specs_share_profile_allocation() {
        let spec = HostSpec::new(
            Resources::new(8.0, 32.0),
            HostPowerProfile::prototype_blade(),
        );
        let a = Host::from_spec(HostId(0), &spec, SimTime::ZERO);
        let b = Host::from_spec(HostId(1), &spec, SimTime::ZERO);
        assert_eq!(a.power().profile().name(), b.power().profile().name());
    }

    #[test]
    #[should_panic(expected = "host needs CPU capacity")]
    fn rejects_zero_capacity() {
        HostSpec::new(
            Resources::new(0.0, 64.0),
            HostPowerProfile::prototype_rack(),
        );
    }
}
