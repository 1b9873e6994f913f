//! Run reports: recorded histories plus cost meters.

use eca_core::maintainer::SelfMaintStats;
use eca_relational::SignedBag;

use crate::chaos::SiteId;
use crate::trace::TraceEvent;

/// Everything observed during one simulation run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// The warehouse algorithm's label.
    pub algorithm: &'static str,
    /// `V[ss_0], V[ss_1], …, V[ss_p]` — the view evaluated at the source
    /// after the initial state and each effective update.
    pub source_view_states: Vec<SignedBag>,
    /// `MV` after the initial state and each warehouse event.
    pub warehouse_view_states: Vec<SignedBag>,
    /// The final materialized view.
    pub final_mv: SignedBag,
    /// The final source view state `V[ss_p]`.
    pub final_source_view: SignedBag,
    /// Whether the algorithm reports no outstanding work.
    pub quiescent: bool,
    /// Query messages sent warehouse → source.
    pub query_messages: u64,
    /// Answer messages sent source → warehouse.
    pub answer_messages: u64,
    /// Update notifications sent source → warehouse (identical across
    /// algorithms; excluded from the paper's `M`).
    pub notification_messages: u64,
    /// Answer payload bytes — the measured counterpart of the paper's `B`.
    pub answer_bytes: u64,
    /// Answer payload tuple occurrences (for `B = S × tuples` analytic
    /// comparison).
    pub answer_tuples: u64,
    /// Total bytes source → warehouse (including notifications).
    pub bytes_s2w: u64,
    /// Total bytes warehouse → source (queries).
    pub bytes_w2s: u64,
    /// Source block reads charged to query evaluation — the paper's `IO`.
    pub io_reads: u64,
    /// Self-maintenance statistics (local-answer counts and auxiliary
    /// residency), when the algorithm keeps auxiliary views.
    pub selfmaint: Option<SelfMaintStats>,
    /// The full event trace.
    pub trace: Vec<TraceEvent>,
}

impl RunReport {
    /// The paper's `M`: queries plus answers, excluding notifications
    /// (§6.1).
    pub fn maintenance_messages(&self) -> u64 {
        self.query_messages + self.answer_messages
    }

    /// Convergence (§3.1): after all activity ceases, the final view
    /// equals the view over the final source state.
    pub fn converged(&self) -> bool {
        self.final_mv == self.final_source_view
    }
}

/// Per-view outcome of an engine run, in the shape
/// `eca_consistency::check` consumes.
#[derive(Clone, Debug)]
pub struct ViewRunReport {
    /// The view's name.
    pub view_name: String,
    /// The site the view is maintained over.
    pub site: SiteId,
    /// The maintaining algorithm's label.
    pub algorithm: &'static str,
    /// The view evaluated at its source after the initial state and each
    /// effective update there.
    pub source_view_states: Vec<SignedBag>,
    /// `MV` after the initial state and each warehouse event that
    /// reached this view.
    pub warehouse_view_states: Vec<SignedBag>,
    /// The final materialized view.
    pub final_mv: SignedBag,
    /// The final source-side view state.
    pub final_source_view: SignedBag,
    /// Self-maintenance statistics, when the algorithm keeps auxiliary
    /// views.
    pub selfmaint: Option<SelfMaintStats>,
}

impl ViewRunReport {
    /// Convergence (§3.1): final `MV` equals the view over the final
    /// source state.
    pub fn converged(&self) -> bool {
        self.final_mv == self.final_source_view
    }
}

/// Per-site message/byte meters of an engine run.
#[derive(Clone, Debug)]
pub struct SiteReport {
    /// The site's registered name.
    pub name: String,
    /// Query messages warehouse → this site.
    pub query_messages: u64,
    /// Answer messages this site → warehouse.
    pub answer_messages: u64,
    /// Update notifications this site → warehouse.
    pub notification_messages: u64,
    /// Answer payload bytes from this site (the paper's `B`).
    pub answer_bytes: u64,
    /// Answer payload tuple occurrences from this site.
    pub answer_tuples: u64,
    /// Total bytes this site → warehouse.
    pub bytes_s2w: u64,
    /// Total bytes warehouse → this site.
    pub bytes_w2s: u64,
    /// Block reads this site charged to query evaluation (the paper's
    /// `IO`).
    pub io_reads: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use eca_relational::Tuple;

    fn report(mv: SignedBag, src: SignedBag) -> RunReport {
        RunReport {
            algorithm: "test",
            source_view_states: vec![src.clone()],
            warehouse_view_states: vec![mv.clone()],
            final_mv: mv,
            final_source_view: src,
            quiescent: true,
            query_messages: 3,
            answer_messages: 3,
            notification_messages: 5,
            answer_bytes: 0,
            answer_tuples: 0,
            bytes_s2w: 0,
            bytes_w2s: 0,
            io_reads: 0,
            selfmaint: None,
            trace: Vec::new(),
        }
    }

    #[test]
    fn convergence_compares_final_states() {
        let a = SignedBag::from_tuples([Tuple::ints([1])]);
        assert!(report(a.clone(), a.clone()).converged());
        assert!(!report(a, SignedBag::new()).converged());
    }

    #[test]
    fn maintenance_messages_exclude_notifications() {
        let r = report(SignedBag::new(), SignedBag::new());
        assert_eq!(r.maintenance_messages(), 6);
    }
}
