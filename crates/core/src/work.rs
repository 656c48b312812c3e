//! Deterministic op-counters for the planning hot paths.
//!
//! [`WorkCounters`] counts *work*, not time: candidate scans, trial
//! evacuations, rollbacks, destination re-scores. Every field is a pure
//! function of the scenario seed — no clocks, no thread interleaving —
//! so the counters repeat exactly from run to run, and the
//! differential suite verifies them the same way it verifies
//! energy totals. They are the superlinearity evidence for indexed
//! candidate structures: plot `candidates_scanned` against fleet size
//! and the O(hosts) scan per drain pick is visible directly, without
//! wall-clock noise.

use obs::Json;

/// Deterministic counts of planning and execution work.
///
/// The manager accumulates these across rounds (they survive planning
/// context rebuilds between rounds) and the engine
/// folds them into the metrics snapshot as `work.*` counters at the end
/// of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Hosts examined by consolidation's drain-candidate scans.
    pub candidates_scanned: u64,
    /// All-or-nothing trial evacuations attempted.
    pub trials_attempted: u64,
    /// Trial evacuations rolled back (candidate could not fully drain).
    pub trials_rolled_back: u64,
    /// Journaled moves reversed by rollbacks.
    pub rollback_moves: u64,
    /// Deepest undo journal observed across all trials.
    pub undo_depth_max: u64,
    /// Hosts examined by destination-selection scans
    /// (best-fit / least-loaded placement).
    pub hosts_rescored: u64,
    /// Migration actions the manager committed to plans.
    pub migrations_planned: u64,
    /// Elements folded by consolidation's capacity-aggregate reductions.
    pub fold_elements: u64,
}

impl WorkCounters {
    /// `(name suffix, value)` pairs in stable order, for folding into a
    /// metrics registry under a `work.plan.` prefix.
    pub fn entries(&self) -> [(&'static str, u64); 8] {
        [
            ("candidates_scanned", self.candidates_scanned),
            ("trials_attempted", self.trials_attempted),
            ("trials_rolled_back", self.trials_rolled_back),
            ("rollback_moves", self.rollback_moves),
            ("undo_depth_max", self.undo_depth_max),
            ("hosts_rescored", self.hosts_rescored),
            ("migrations_planned", self.migrations_planned),
            ("fold_elements", self.fold_elements),
        ]
    }

    /// JSON object rendering (for bench artifacts).
    pub fn to_json(&self) -> Json {
        Json::Object(
            self.entries()
                .iter()
                .map(|&(k, v)| (k.to_string(), Json::Int(v as i64)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_cover_every_field_once() {
        let w = WorkCounters {
            candidates_scanned: 1,
            trials_attempted: 2,
            trials_rolled_back: 3,
            rollback_moves: 4,
            undo_depth_max: 5,
            hosts_rescored: 6,
            migrations_planned: 7,
            fold_elements: 8,
        };
        let entries = w.entries();
        let mut values: Vec<u64> = entries.iter().map(|&(_, v)| v).collect();
        values.sort_unstable();
        assert_eq!(values, vec![1, 2, 3, 4, 5, 6, 7, 8]);
        let json = w.to_json();
        assert_eq!(json.get("undo_depth_max").unwrap().as_i64(), Some(5));
    }
}
