//! Virtual-machine specifications.

use crate::Resources;

/// The service class of a VM: who gets capacity first under overload.
///
/// Interactive (latency-sensitive) VMs are served before batch VMs when a
/// host is CPU-overloaded, and the manager prefers disrupting batch VMs
/// when it must migrate. Mirrors the enterprise tiering of the paper's
/// workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ServiceClass {
    /// Latency-sensitive, served first (the default).
    #[default]
    Interactive,
    /// Throughput-oriented, absorbs overload and disruption first.
    Batch,
}

/// Static configuration of one virtual machine.
///
/// The VM's *demand* varies over time and lives in the workload layer; the
/// spec records its configured maximums — the CPU cap that bounds how many
/// cores it can consume and the memory footprint that live migration must
/// copy — plus its service class.
///
/// # Example
///
/// ```
/// use cluster::{Resources, ServiceClass, VmSpec};
///
/// let vm = VmSpec::new(Resources::new(2.0, 8.0)).with_class(ServiceClass::Batch);
/// assert_eq!(vm.cpu_cap_cores(), 2.0);
/// assert_eq!(vm.mem_gb(), 8.0);
/// assert_eq!(vm.service_class(), ServiceClass::Batch);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmSpec {
    resources: Resources,
    class: ServiceClass,
}

impl VmSpec {
    /// Creates a spec from the VM's configured resources (interactive
    /// class by default).
    ///
    /// # Panics
    ///
    /// Panics if the CPU cap or memory footprint is zero — a VM that can
    /// never consume anything, or occupies no memory, indicates a workload
    /// generation bug.
    pub fn new(resources: Resources) -> Self {
        assert!(resources.cpu_cores > 0.0, "VM needs a positive CPU cap");
        assert!(resources.mem_gb > 0.0, "VM needs a positive memory size");
        VmSpec {
            resources,
            class: ServiceClass::Interactive,
        }
    }

    /// Sets the service class.
    pub fn with_class(mut self, class: ServiceClass) -> Self {
        self.class = class;
        self
    }

    /// Maximum cores the VM can consume.
    pub fn cpu_cap_cores(&self) -> f64 {
        self.resources.cpu_cores
    }

    /// Memory footprint in GB (governs migration duration).
    pub fn mem_gb(&self) -> f64 {
        self.resources.mem_gb
    }

    /// The service class.
    pub fn service_class(&self) -> ServiceClass {
        self.class
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let vm = VmSpec::new(Resources::new(4.0, 16.0));
        assert_eq!(vm.cpu_cap_cores(), 4.0);
        assert_eq!(vm.mem_gb(), 16.0);
        assert_eq!(vm.service_class(), ServiceClass::Interactive);
    }

    #[test]
    fn class_builder() {
        let vm = VmSpec::new(Resources::new(1.0, 4.0)).with_class(ServiceClass::Batch);
        assert_eq!(vm.service_class(), ServiceClass::Batch);
    }

    #[test]
    #[should_panic(expected = "positive CPU cap")]
    fn rejects_zero_cpu() {
        VmSpec::new(Resources::new(0.0, 8.0));
    }

    #[test]
    #[should_panic(expected = "positive memory size")]
    fn rejects_zero_mem() {
        VmSpec::new(Resources::new(1.0, 0.0));
    }
}
