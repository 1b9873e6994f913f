//! Closed-form cost predictions for ECA-Aux self-maintenance.
//!
//! With auxiliary views covering a subset of the base relations, an
//! update on relation `i` is answered locally **iff every other relation
//! is covered**: the primary term `V⟨U_i⟩` leaves exactly the relations
//! `j ≠ i` unbound, and every compensation term `Q_j⟨U_i⟩` can only
//! contain unbound atoms over relations other than `i`, which the same
//! premise covers. The rule is exact, not an approximation, so the
//! message prediction can be asserted equal (not approximately equal) to
//! the measured meter in `tests/end_to_end_costs.rs`.
//!
//! Under the paper's uniform-update assumption (§6: each of the `n`
//! relations equally likely) the locally-answerable fraction is
//!
//! ```text
//! f = |{i : ∀ j≠i, covered(j)}| / n
//! ```
//!
//! which collapses to the three regimes of a 3-relation view: full
//! coverage → `f = 1` (SC-like, zero messages), one uncovered relation
//! → `f = 1/3` (only updates *on* the uncovered relation are local),
//! two or more uncovered → `f = 0` (plain ECA).
//!
//! Remote updates cost exactly what they cost ECA, so
//! `M = 2k(1−f)` and the best-case byte formula scales the same way.

use eca_workload::Params;

/// The fraction of (uniformly distributed) updates answerable locally:
/// `|{i : ∀ j≠i, covered(j)}| / n`.
///
/// # Panics
/// On an empty coverage vector.
pub fn local_fraction(covered: &[bool]) -> f64 {
    assert!(!covered.is_empty(), "a view has at least one base relation");
    local_relations(covered).count() as f64 / covered.len() as f64
}

/// Which relation indices have all *other* relations covered, i.e. whose
/// updates are answered locally.
fn local_relations(covered: &[bool]) -> impl Iterator<Item = usize> + '_ {
    (0..covered.len()).filter(|&i| covered.iter().enumerate().all(|(j, &c)| j == i || c))
}

/// Expected `M_ECA-Aux = 2k(1−f)` for `k` uniform updates.
#[cfg(test)]
fn m_eca_aux(k: u64, covered: &[bool]) -> f64 {
    2.0 * k as f64 * (1.0 - local_fraction(covered))
}

/// Exact `M_ECA-Aux` for a concrete update script, given as the sequence
/// of updated relation indices: two messages (query + answer) for every
/// update whose relation lacks full other-coverage, zero for the rest.
///
/// # Panics
/// When a script entry indexes past the coverage vector.
pub fn m_eca_aux_exact(script_relations: &[usize], covered: &[bool]) -> u64 {
    let local: Vec<bool> = {
        let mut v = vec![false; covered.len()];
        for i in local_relations(covered) {
            v[i] = true;
        }
        v
    };
    2 * script_relations.iter().filter(|&&rel| !local[rel]).count() as u64
}

/// Best-case bytes: only remote updates transfer, each `S·σ·J²` as in
/// `B_ECABest` (§6.2) — `B = remote·S·σ·J²`.
#[cfg(test)]
fn b_eca_aux_best(p: &Params, remote_updates: u64) -> f64 {
    remote_updates as f64
        * p.projected_bytes as f64
        * p.selectivity
        * (p.join_factor * p.join_factor) as f64
}

/// Initial auxiliary residency in tuples: one bag projection of
/// cardinality `C` per covered relation (the §6.2 assumption 5 that `C`
/// stays constant makes this the steady state too).
pub fn aux_storage_tuples(p: &Params, covered: &[bool]) -> u64 {
    covered.iter().filter(|&&c| c).count() as u64 * p.cardinality
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_regimes_for_three_relations() {
        assert_eq!(local_fraction(&[true, true, true]), 1.0);
        assert!((local_fraction(&[true, true, false]) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(local_fraction(&[true, false, false]), 0.0);
        assert_eq!(local_fraction(&[false, false, false]), 0.0);
    }

    #[test]
    fn partial_coverage_localizes_the_uncovered_relation() {
        // covered = {r1, r2}: only r3's updates see all others covered.
        let covered = [true, true, false];
        let locals: Vec<usize> = local_relations(&covered).collect();
        assert_eq!(locals, vec![2]);
    }

    #[test]
    fn exact_count_matches_script_composition() {
        let covered = [true, true, false];
        // r3 updates free, r1/r2 updates cost 2 messages each.
        assert_eq!(m_eca_aux_exact(&[2, 2, 2], &covered), 0);
        assert_eq!(m_eca_aux_exact(&[0, 1, 2], &covered), 4);
        assert_eq!(m_eca_aux_exact(&[0, 1, 0, 1], &covered), 8);
    }

    #[test]
    fn full_coverage_predicts_zero_messages() {
        assert_eq!(m_eca_aux(50, &[true, true, true]), 0.0);
        assert_eq!(m_eca_aux_exact(&[0, 1, 2, 1, 0], &[true; 3]), 0);
    }

    #[test]
    fn no_coverage_degenerates_to_eca() {
        let k = 25;
        assert_eq!(m_eca_aux(k, &[false; 3]), crate::messages::m_eca(k) as f64);
    }

    #[test]
    fn bytes_scale_with_remote_updates_only() {
        let p = Params::default();
        assert_eq!(b_eca_aux_best(&p, 0), 0.0);
        assert_eq!(b_eca_aux_best(&p, 3), crate::bytes::b_eca_best(&p, 3));
    }

    #[test]
    fn storage_counts_covered_relations() {
        let p = Params::default();
        assert_eq!(aux_storage_tuples(&p, &[true, true, true]), 300);
        assert_eq!(aux_storage_tuples(&p, &[true, false, false]), 100);
        assert_eq!(aux_storage_tuples(&p, &[false; 3]), 0);
    }
}
