//! Experiment harness for the `agilepm` workspace.
//!
//! Each public `exp_*` function regenerates one table or figure of the
//! paper's evaluation (see `DESIGN.md` for the experiment index) and
//! returns its plain-text rendering. The `run_all` binary holds the one
//! table of experiment ids and titles and runs the full evaluation, or
//! the experiments `--only ID,..` names.
//!
//! Scale note: the headline experiments run at 64 hosts / 384 VMs —
//! large enough for the fleet-level effects, small enough to regenerate
//! in seconds. The scale-out sweep (F8) goes to 16384 hosts; base and PM
//! runs at every size share one worker-pool batch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod charact;
pub mod control_plane;
pub mod headline;
pub mod microbench;
pub mod sweep_exps;

pub use charact::{exp_f2, exp_f3, exp_t1};
pub use control_plane::{exp_t27, exp_t27_sized};
pub use headline::{exp_f4_t5, exp_profile, exp_t19, exp_t20, exp_t22, exp_t9};
pub use sweep_exps::{
    exp_f10, exp_f11, exp_f14, exp_f15, exp_f16, exp_f17, exp_f23, exp_f6, exp_f7, exp_f8, exp_t12,
    exp_t13, exp_t13b, exp_t18, exp_t21, exp_t24, exp_t26,
};

/// Fleet size of the headline experiments (hosts).
pub const HEADLINE_HOSTS: usize = 64;
/// Fleet size of the headline experiments (VMs): 6 per host, hot enough
/// that base DRM has real work at the daily peak.
pub const HEADLINE_VMS: usize = 384;
/// The workspace-wide experiment seed.
pub const SEED: u64 = 2013;
