//! Checker for the paper's §3.1 correctness hierarchy.
//!
//! A view-maintenance execution yields two state sequences:
//!
//! * source view states `V[ss_0], V[ss_1], …, V[ss_p]` (the view evaluated
//!   at the source after the initial state and each update), and
//! * warehouse view states `V[ws_0], V[ws_1], …, V[ws_q]` (`MV` after the
//!   initial state and each warehouse event).
//!
//! Over these, the paper defines (quoting §3.1):
//!
//! * **Convergence** — `V[ws_q] = V[ss_p]`: after all activity ceases the
//!   view agrees with the source.
//! * **Weak consistency** — every warehouse state equals *some* source
//!   state.
//! * **Consistency** — every warehouse state equals some source state,
//!   *in a corresponding order*: there is a monotone mapping from
//!   warehouse states to source states.
//! * **Strong consistency** — consistency and convergence.
//! * **Completeness** — strong consistency, and every source state appears
//!   as some warehouse state (an order-preserving one-to-one-onto
//!   correspondence of distinct states).
//!
//! The checker works on the recorded [`SignedBag`] sequences; consecutive
//! duplicate warehouse states (events that did not change `MV`) are
//! collapsed first, which does not affect any of the properties.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use eca_relational::SignedBag;

/// Which correctness level a history satisfies (cumulative).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Level {
    /// Not even convergent.
    None,
    /// Convergent only.
    Convergent,
    /// Weakly consistent (and convergent histories may still only be
    /// weakly consistent if ordering fails).
    WeaklyConsistent,
    /// Consistent (ordered) but not convergent.
    Consistent,
    /// Consistent and convergent.
    StronglyConsistent,
    /// Strongly consistent and every source state is visited.
    Complete,
}

/// The outcome of checking one execution history.
#[derive(Clone, Debug)]
pub struct ConsistencyReport {
    /// `V[ws_q] == V[ss_p]`.
    pub convergent: bool,
    /// Every warehouse state appears among source states.
    pub weakly_consistent: bool,
    /// Monotone mapping warehouse → source exists.
    pub consistent: bool,
    /// Consistent and convergent.
    pub strongly_consistent: bool,
    /// Strongly consistent and every source state appears, in order.
    pub complete: bool,
    /// Human-readable description of the first violation found, if any.
    pub violation: Option<String>,
}

impl ConsistencyReport {
    /// The highest level satisfied.
    pub fn level(&self) -> Level {
        if self.complete {
            Level::Complete
        } else if self.strongly_consistent {
            Level::StronglyConsistent
        } else if self.consistent && !self.convergent {
            Level::Consistent
        } else if self.weakly_consistent {
            // Valid states, but either out of order or non-convergent.
            Level::WeaklyConsistent
        } else if self.convergent {
            Level::Convergent
        } else {
            Level::None
        }
    }
}

/// Collapse consecutive duplicates.
fn dedup_consecutive(states: &[SignedBag]) -> Vec<&SignedBag> {
    let mut out: Vec<&SignedBag> = Vec::with_capacity(states.len());
    for s in states {
        if out.last().map_or(true, |last| *last != s) {
            out.push(s);
        }
    }
    out
}

/// Check an execution history against the §3.1 hierarchy.
///
/// `source_states` must include the initial state `V[ss_0]` first, and
/// `warehouse_states` must include the initial `MV` first.
pub fn check(source_states: &[SignedBag], warehouse_states: &[SignedBag]) -> ConsistencyReport {
    let src = dedup_consecutive(source_states);
    let wh = dedup_consecutive(warehouse_states);
    let (Some(&src_last), Some(&wh_last)) = (src.last(), wh.last()) else {
        let side = if src.is_empty() {
            "source"
        } else {
            "warehouse"
        };
        panic!("{side} history must include the initial state");
    };

    let convergent = src_last == wh_last;

    // Weak consistency: membership, order-free.
    let mut weakly_consistent = true;
    let mut violation: Option<String> = None;
    for (i, w) in wh.iter().enumerate() {
        if !src.iter().any(|s| s == w) {
            weakly_consistent = false;
            violation.get_or_insert_with(|| {
                format!("warehouse state #{i} {w:?} matches no source state")
            });
            break;
        }
    }

    // Consistency: greedy earliest monotone match. Greedy is complete: if
    // any monotone mapping exists, mapping each warehouse state to the
    // earliest admissible source index also succeeds.
    let mut consistent = true;
    let mut cursor = 0usize;
    for (i, w) in wh.iter().enumerate() {
        match src[cursor..].iter().position(|s| s == w) {
            Some(offset) => cursor += offset,
            None => {
                consistent = false;
                if violation.is_none() {
                    violation = Some(format!(
                        "warehouse state #{i} {w:?} has no in-order source match (cursor {cursor})"
                    ));
                }
                break;
            }
        }
    }

    let strongly_consistent = consistent && convergent;

    // Completeness: additionally every (deduped) source state must appear
    // in the warehouse sequence, in order.
    let mut complete = strongly_consistent;
    if complete {
        let mut wcursor = 0usize;
        for (i, s) in src.iter().enumerate() {
            match wh[wcursor..].iter().position(|w| w == s) {
                Some(offset) => wcursor += offset,
                None => {
                    complete = false;
                    if violation.is_none() {
                        violation = Some(format!(
                            "source state #{i} {s:?} never appears at the warehouse"
                        ));
                    }
                    break;
                }
            }
        }
    }

    if violation.is_none() && !convergent {
        violation = Some(format!(
            "not convergent: final warehouse {wh_last:?} != final source {src_last:?}"
        ));
    }

    ConsistencyReport {
        convergent,
        weakly_consistent,
        consistent,
        strongly_consistent,
        complete,
        violation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eca_relational::Tuple;

    fn s(tuples: &[&[i64]]) -> SignedBag {
        SignedBag::from_tuples(tuples.iter().map(|t| Tuple::ints(t.iter().copied())))
    }

    #[test]
    fn identical_histories_are_complete() {
        let states = vec![s(&[]), s(&[&[1]]), s(&[&[1], &[4]])];
        let r = check(&states, &states);
        assert!(r.complete);
        assert_eq!(r.level(), Level::Complete);
        assert!(r.violation.is_none());
    }

    #[test]
    fn skipping_intermediate_states_is_strong_but_not_complete() {
        // Warehouse jumps straight to the final state (ECA's behaviour).
        let src = vec![s(&[]), s(&[&[1]]), s(&[&[1], &[4]])];
        let wh = vec![s(&[]), s(&[&[1], &[4]])];
        let r = check(&src, &wh);
        assert!(r.strongly_consistent);
        assert!(!r.complete);
        assert_eq!(r.level(), Level::StronglyConsistent);
    }

    #[test]
    fn example_2_anomaly_is_not_even_weakly_consistent() {
        // Source: ∅ → ([1]) → ([1],[4]).
        let src = vec![s(&[]), s(&[&[1]]), s(&[&[1], &[4]])];
        // Basic-algorithm warehouse: ∅ → ([1],[4]) → ([1],[4],[4]).
        let wh = vec![s(&[]), s(&[&[1], &[4]]), s(&[&[1], &[4], &[4]])];
        let r = check(&src, &wh);
        assert!(!r.convergent);
        assert!(!r.weakly_consistent);
        assert_eq!(r.level(), Level::None);
        assert!(r.violation.is_some());
    }

    #[test]
    fn convergent_but_invalid_intermediate_state() {
        // Warehouse passes through a state the source never had, but ends
        // correctly: convergent only.
        let src = vec![s(&[]), s(&[&[1]]), s(&[&[1], &[4]])];
        let wh = vec![s(&[]), s(&[&[9]]), s(&[&[1], &[4]])];
        let r = check(&src, &wh);
        assert!(r.convergent);
        assert!(!r.weakly_consistent);
        assert!(!r.consistent);
        assert_eq!(r.level(), Level::Convergent);
    }

    #[test]
    fn out_of_order_states_are_weak_only() {
        // Warehouse visits valid states in the wrong order and does not
        // converge — weakly consistent only.
        let src = vec![s(&[]), s(&[&[1]]), s(&[&[1], &[4]])];
        let wh = vec![s(&[]), s(&[&[1], &[4]]), s(&[&[1]])];
        let r = check(&src, &wh);
        assert!(r.weakly_consistent);
        assert!(!r.consistent);
        assert!(!r.convergent);
        assert_eq!(r.level(), Level::WeaklyConsistent);
    }

    #[test]
    fn consistent_but_not_convergent() {
        // In-order valid prefix, but the warehouse stops early.
        let src = vec![s(&[]), s(&[&[1]]), s(&[&[1], &[4]])];
        let wh = vec![s(&[]), s(&[&[1]])];
        let r = check(&src, &wh);
        assert!(r.consistent);
        assert!(!r.convergent);
        assert!(!r.strongly_consistent);
        assert_eq!(r.level(), Level::Consistent);
    }

    #[test]
    fn consecutive_duplicates_are_collapsed() {
        let src = vec![s(&[]), s(&[&[1]])];
        let wh = vec![s(&[]), s(&[]), s(&[]), s(&[&[1]]), s(&[&[1]])];
        let r = check(&src, &wh);
        assert!(r.complete);
    }

    #[test]
    fn revisited_states_allowed_when_source_revisits() {
        // Source: ∅ → ([1]) → ∅ (insert then delete). Warehouse follows.
        let src = vec![s(&[]), s(&[&[1]]), s(&[])];
        let wh = vec![s(&[]), s(&[&[1]]), s(&[])];
        let r = check(&src, &wh);
        assert!(r.complete);
    }

    #[test]
    #[should_panic(expected = "source history")]
    fn empty_source_history_panics() {
        let wh = vec![s(&[])];
        check(&[], &wh);
    }

    #[test]
    fn level_ordering_is_meaningful() {
        assert!(Level::Complete > Level::StronglyConsistent);
        assert!(Level::StronglyConsistent > Level::Convergent);
        assert!(Level::Convergent > Level::None);
    }
}
