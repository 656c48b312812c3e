//! Deterministic op-counters for the planning hot paths.
//!
//! [`WorkTable`] counts *work*, not time: candidate scans, trial
//! evacuations, rollbacks, destination re-scores, index maintenance and
//! the fate of every planned action. Every slot is a pure function of the
//! scenario seed — no clocks, no thread interleaving — so the counters
//! repeat exactly from run to run, and the differential suite verifies
//! them the same way it verifies energy totals. They are the
//! superlinearity evidence for indexed candidate structures: plot
//! `candidates_scanned` against fleet size and the O(hosts) scan per
//! drain pick is visible directly, without wall-clock noise.
//!
//! Each slot is one [`Count`] with its full metric name written once in
//! `NAMES`. Each scheduler replica's planner counts into its own table,
//! the control plane counts commit fates into another, and
//! [`ControlPlane::close`](crate::ControlPlane::close) folds them with
//! [`WorkTable::merge`] into the run's `work.*` entries.

use crate::ConflictReason;

/// One deterministic `work.*` count; its metric name is `NAMES[count]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Count {
    /// Hosts examined by consolidation's drain-candidate scans.
    CandidatesScanned,
    /// All-or-nothing trial evacuations attempted.
    TrialsAttempted,
    /// Trial evacuations rolled back (candidate could not fully drain).
    TrialsRolledBack,
    /// Journaled moves reversed by rollbacks.
    RollbackMoves,
    /// Deepest undo journal of any trial: a maximum, not a sum.
    UndoDepthMax,
    /// Hosts examined by destination picks (best-fit / least-loaded).
    HostsRescored,
    /// Migrations planned: each round's
    /// [`DecisionActions::migrations`](crate::DecisionActions::migrations).
    MigrationsPlanned,
    /// Elements folded by consolidation's capacity-aggregate reductions.
    FoldElements,
    /// Per-round index refresh passes.
    IndexRefreshes,
    /// Hosts moved between buckets by a refresh (utilization drift).
    Rebuckets,
    /// Hosts newly indexed (initial build, hosts turning operational).
    Inserts,
    /// Hosts taken out of the index (leaving the operational set).
    Removes,
    /// Hosts moved between buckets by an in-round move or its undo.
    MoveRebuckets,
    /// Actions emitted by any scheduler's planner.
    Planned,
    /// Actions admitted at commit and handed to the caller.
    Accepted,
    /// Actions refused by the conflict check.
    Rejected,
    /// Actions filtered at plan time as outside the planning
    /// scheduler's partition (per its own view).
    DroppedUnowned,
    /// Actions still in the latency queue when the run ended.
    Expired,
    /// The migration slice of `Rejected`.
    MigrationsRejected,
    /// The migration slice of `DroppedUnowned`.
    MigrationsDropped,
    /// The migration slice of `Expired`.
    MigrationsExpired,
    // Rejections per `ConflictReason` (see `rejected_by`).
    RejectedVmBusy,
    RejectedVmRace,
    RejectedNotOwner,
    RejectedDestUnavailable,
    RejectedHeadroom,
    RejectedPowerClash,
    RejectedPowerStale,
    /// Scheduler replicas whose tables were folded; invariants scale
    /// bounds that charge one unit of work per planner by it.
    Schedulers,
}

/// Number of slots: one per [`Count`].
const SLOTS: usize = Count::Schedulers as usize + 1;

/// Every slot's metric name, in [`Count`] declaration order.
const NAMES: [&str; SLOTS] = [
    "work.plan.candidates_scanned",
    "work.plan.trials_attempted",
    "work.plan.trials_rolled_back",
    "work.plan.rollback_moves",
    "work.plan.undo_depth_max",
    "work.plan.hosts_rescored",
    "work.plan.migrations_planned",
    "work.plan.fold_elements",
    "work.index.refreshes",
    "work.index.rebuckets",
    "work.index.inserts",
    "work.index.removes",
    "work.index.move_rebuckets",
    "work.commit.planned",
    "work.commit.accepted",
    "work.commit.rejected",
    "work.commit.dropped_unowned",
    "work.commit.expired",
    "work.commit.migrations_rejected",
    "work.commit.migrations_dropped",
    "work.commit.migrations_expired",
    "work.commit.rejected_vm_busy",
    "work.commit.rejected_vm_race",
    "work.commit.rejected_not_owner",
    "work.commit.rejected_dest_unavailable",
    "work.commit.rejected_headroom",
    "work.commit.rejected_power_clash",
    "work.commit.rejected_power_stale",
    "work.commit.schedulers",
];

impl Count {
    /// The slot counting commits refused for `reason`.
    pub(crate) fn rejected_by(reason: ConflictReason) -> Count {
        match reason {
            ConflictReason::VmBusy => Count::RejectedVmBusy,
            ConflictReason::VmRace => Count::RejectedVmRace,
            ConflictReason::NotOwner => Count::RejectedNotOwner,
            ConflictReason::DestUnavailable => Count::RejectedDestUnavailable,
            ConflictReason::Headroom => Count::RejectedHeadroom,
            ConflictReason::PowerClash => Count::RejectedPowerClash,
            ConflictReason::PowerStale => Count::RejectedPowerStale,
        }
    }
}

/// One value per [`Count`], accumulated across rounds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct WorkTable([u64; SLOTS]);

impl WorkTable {
    /// Adds `n` to `count`.
    #[inline]
    pub(crate) fn add(&mut self, count: Count, n: u64) {
        self.0[count as usize] += n;
    }

    /// Raises `count` to `value` if that is larger (for a maximum).
    pub(crate) fn raise(&mut self, count: Count, value: u64) {
        let slot = &mut self.0[count as usize];
        *slot = (*slot).max(value);
    }

    /// The current value of `count`.
    pub(crate) fn get(&self, count: Count) -> u64 {
        self.0[count as usize]
    }

    /// Folds another table into `self`: every slot adds, except
    /// `undo_depth_max`, a maximum, which keeps the larger value.
    pub(crate) fn merge(&mut self, other: &WorkTable) {
        for (slot, (sum, &value)) in self.0.iter_mut().zip(&other.0).enumerate() {
            *sum = if slot == Count::UndoDepthMax as usize {
                (*sum).max(value)
            } else {
                *sum + value
            };
        }
    }

    /// `(metric name, value)` for every slot, in [`Count`] order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        NAMES.into_iter().zip(self.0.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_prefixed_and_merge_adds_all_but_the_deepest_undo() {
        let mut names = NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SLOTS, "duplicate names");
        for name in NAMES {
            assert!(
                ["work.plan.", "work.index.", "work.commit."]
                    .iter()
                    .any(|prefix| name.starts_with(prefix)),
                "{name}"
            );
        }
        // Every slot set, each to a distinct value.
        let sample = WorkTable(std::array::from_fn(|slot| slot as u64 + 1));
        let mut deeper = sample;
        deeper.raise(Count::UndoDepthMax, 100);
        let mut merged = sample;
        merged.merge(&deeper);
        for (((name, got), (_, one)), slot) in merged.entries().zip(sample.entries()).zip(0..) {
            let want = if name == "work.plan.undo_depth_max" {
                100
            } else {
                2 * one
            };
            assert_eq!(got, want, "{name}");
            assert_eq!(one, slot + 1, "{name} is not slot {slot}");
        }
    }
}
