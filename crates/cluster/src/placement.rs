//! The VM→host placement map.

use std::collections::BTreeSet;

use crate::{HostId, VmId};

/// Bidirectional VM→host assignment with integrity checking.
///
/// The map is the single source of truth for "where does this VM run"; the
/// cluster layers admission control and migration semantics on top.
///
/// # Example
///
/// ```
/// use cluster::{HostId, PlacementMap, VmId};
///
/// let mut map = PlacementMap::new(2, 3);
/// map.place(VmId(0), HostId(1));
/// assert_eq!(map.host_of(VmId(0)), Some(HostId(1)));
/// assert_eq!(map.vms_on(HostId(1)), &[VmId(0)]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementMap {
    vm_to_host: Vec<Option<HostId>>,
    host_to_vms: Vec<BTreeSet<VmId>>,
}

impl PlacementMap {
    /// Creates an empty map for `hosts` hosts and `vms` VMs (all VMs
    /// initially unplaced).
    pub fn new(hosts: usize, vms: usize) -> Self {
        PlacementMap {
            vm_to_host: vec![None; vms],
            host_to_vms: vec![BTreeSet::new(); hosts],
        }
    }

    /// The host a VM currently runs on, or `None` if unplaced.
    ///
    /// # Panics
    ///
    /// Panics if `vm` is out of range.
    pub fn host_of(&self, vm: VmId) -> Option<HostId> {
        self.vm_to_host[vm.index()]
    }

    /// Every VM's host (`None` while unplaced), indexed by
    /// `VmId::index()`.
    pub(crate) fn vm_hosts(&self) -> &[Option<HostId>] {
        &self.vm_to_host
    }

    /// The VMs on `host`, in id order.
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range.
    pub fn vms_on(&self, host: HostId) -> Vec<VmId> {
        self.host_to_vms[host.index()].iter().copied().collect()
    }

    /// Whether `host` has no VMs.
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range.
    pub fn is_empty_host(&self, host: HostId) -> bool {
        self.host_to_vms[host.index()].is_empty()
    }

    /// Places an unplaced VM on a host.
    ///
    /// # Panics
    ///
    /// Panics if the VM is already placed (move with [`Self::relocate`])
    /// or either id is out of range.
    pub fn place(&mut self, vm: VmId, host: HostId) {
        assert!(
            self.vm_to_host[vm.index()].is_none(),
            "{vm} is already placed"
        );
        self.vm_to_host[vm.index()] = Some(host);
        self.host_to_vms[host.index()].insert(vm);
    }

    /// Removes a VM from its host, returning where it was.
    ///
    /// # Panics
    ///
    /// Panics if the VM is not placed or out of range.
    pub fn remove(&mut self, vm: VmId) -> HostId {
        let host = self.vm_to_host[vm.index()]
            .take()
            .unwrap_or_else(|| panic!("{vm} is not placed"));
        let removed = self.host_to_vms[host.index()].remove(&vm);
        debug_assert!(removed, "maps out of sync for {vm}");
        host
    }

    /// Moves a placed VM to a new host, returning the old host.
    ///
    /// # Panics
    ///
    /// Panics if the VM is not placed or any id is out of range.
    pub fn relocate(&mut self, vm: VmId, to: HostId) -> HostId {
        let from = self.remove(vm);
        self.place(vm, to);
        from
    }

    /// Total number of placed VMs.
    pub fn placed_count(&self) -> usize {
        self.vm_to_host.iter().filter(|h| h.is_some()).count()
    }

    /// Iterates over `(vm, host)` pairs for all placed VMs.
    pub fn iter(&self) -> impl Iterator<Item = (VmId, HostId)> + '_ {
        self.vm_to_host
            .iter()
            .enumerate()
            .filter_map(|(i, h)| h.map(|host| (VmId(i as u32), host)))
    }

    /// Verifies internal consistency (both directions agree). Used by
    /// property tests and debug assertions.
    pub fn check_invariants(&self) -> bool {
        for (i, h) in self.vm_to_host.iter().enumerate() {
            if let Some(host) = h {
                if !self.host_to_vms[host.index()].contains(&VmId(i as u32)) {
                    return false;
                }
            }
        }
        for (hi, vms) in self.host_to_vms.iter().enumerate() {
            for vm in vms {
                if self.vm_to_host[vm.index()] != Some(HostId(hi as u32)) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn place_remove_relocate() {
        let mut m = PlacementMap::new(3, 2);
        m.place(VmId(0), HostId(0));
        m.place(VmId(1), HostId(0));
        assert_eq!(m.vms_on(HostId(0)).len(), 2);
        assert_eq!(m.relocate(VmId(1), HostId(2)), HostId(0));
        assert_eq!(m.host_of(VmId(1)), Some(HostId(2)));
        assert_eq!(m.remove(VmId(0)), HostId(0));
        assert!(m.is_empty_host(HostId(0)));
        assert!(m.check_invariants());
    }

    #[test]
    #[should_panic(expected = "already placed")]
    fn double_place_panics() {
        let mut m = PlacementMap::new(2, 1);
        m.place(VmId(0), HostId(0));
        m.place(VmId(0), HostId(1));
    }

    #[test]
    #[should_panic(expected = "not placed")]
    fn remove_unplaced_panics() {
        let mut m = PlacementMap::new(1, 1);
        m.remove(VmId(0));
    }

    #[test]
    fn iter_and_counts() {
        let mut m = PlacementMap::new(2, 4);
        m.place(VmId(3), HostId(1));
        m.place(VmId(1), HostId(0));
        assert_eq!(m.placed_count(), 2);
        let pairs: Vec<_> = m.iter().collect();
        assert_eq!(pairs, vec![(VmId(1), HostId(0)), (VmId(3), HostId(1))]);
    }

    #[test]
    fn vms_on_sorted() {
        let mut m = PlacementMap::new(1, 5);
        for id in [4u32, 0, 2] {
            m.place(VmId(id), HostId(0));
        }
        assert_eq!(m.vms_on(HostId(0)), vec![VmId(0), VmId(2), VmId(4)]);
    }
}
