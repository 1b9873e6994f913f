//! §6.3 / Appendix D.3: I/O counts at the source.
//!
//! `I = ⌈C/K⌉`, `I′ = ⌈C/2K⌉`. The general-`k` forms assume `J < I` (the
//! likely case, and the paper's stated assumption for its k-update
//! equations); the 3-update forms use `min(J, I)` explicitly.

use eca_workload::Params;

/// Scenario 1 (indexes + ample memory).
pub mod scenario1 {
    use super::*;

    /// `IO_RVBest = 3I` — read all three relations once.
    pub fn rv_best(p: &Params) -> u64 {
        3 * p.blocks_per_relation()
    }

    /// `IO_RVWorst = 3kI` — recompute after every update.
    pub fn rv_worst(p: &Params, k: u64) -> u64 {
        k * rv_best(p)
    }

    /// 3-update `IO_ECABest = 3·min(I, J) + 3`.
    #[cfg(test)]
    pub(super) fn eca_best_3(p: &Params) -> u64 {
        3 * p.blocks_per_relation().min(p.join_factor) + 3
    }

    /// 3-update `IO_ECAWorst = 3·min(I, J) + 6`.
    #[cfg(test)]
    pub(super) fn eca_worst_3(p: &Params) -> u64 {
        eca_best_3(p) + 3
    }

    /// k-update `IO_ECABest = k(J + 1)` (assumes `J < I`).
    pub fn eca_best(p: &Params, k: u64) -> u64 {
        k * (p.join_factor + 1)
    }

    /// k-update `IO_ECAWorst = k(J + 1) + k(k − 1)/3`.
    pub fn eca_worst(p: &Params, k: u64) -> f64 {
        eca_best(p, k) as f64 + (k * k.saturating_sub(1)) as f64 / 3.0
    }
}

/// Scenario 2 (no indexes, three free memory blocks).
pub mod scenario2 {
    use super::*;

    /// `IO_RVBest = I³`.
    pub fn rv_best(p: &Params) -> u64 {
        p.blocks_per_relation().pow(3)
    }

    /// `IO_RVWorst = kI³`.
    pub fn rv_worst(p: &Params, k: u64) -> u64 {
        k * rv_best(p)
    }

    /// 3-update `IO_ECABest = 3·I·I′`.
    #[cfg(test)]
    pub(super) fn eca_best_3(p: &Params) -> u64 {
        3 * p.blocks_per_relation() * p.double_blocks_per_relation()
    }

    /// 3-update `IO_ECAWorst = 3·I·(I′ + 1)`.
    #[cfg(test)]
    pub(super) fn eca_worst_3(p: &Params) -> u64 {
        3 * p.blocks_per_relation() * (p.double_blocks_per_relation() + 1)
    }

    /// k-update `IO_ECABest = k·I·I′`.
    pub fn eca_best(p: &Params, k: u64) -> u64 {
        k * p.blocks_per_relation() * p.double_blocks_per_relation()
    }

    /// k-update `IO_ECAWorst = k·I·I′ + I·k(k − 1)/3`.
    pub fn eca_worst(p: &Params, k: u64) -> f64 {
        eca_best(p, k) as f64
            + p.blocks_per_relation() as f64 * (k * k.saturating_sub(1)) as f64 / 3.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> Params {
        Params::default()
    }

    #[test]
    fn defaults_give_paper_constants() {
        // I = 5, I' = 3 for C=100, K=20.
        let p = p();
        assert_eq!(scenario1::rv_best(&p), 15);
        assert_eq!(scenario1::rv_worst(&p, 3), 45);
        // min(I,J)=4: ECABest(3) = 15, ECAWorst(3) = 18.
        assert_eq!(scenario1::eca_best_3(&p), 15);
        assert_eq!(scenario1::eca_worst_3(&p), 18);

        assert_eq!(scenario2::rv_best(&p), 125);
        assert_eq!(scenario2::rv_worst(&p, 3), 375);
        assert_eq!(scenario2::eca_best_3(&p), 45);
        assert_eq!(scenario2::eca_worst_3(&p), 60);
    }

    #[test]
    fn scenario1_crossover_at_k_3() {
        // Paper §6.3: crossover at k = 3 for Scenario 1 (ECA-best 5k vs
        // RV-best 15).
        let p = p();
        assert!(scenario1::eca_best(&p, 2) < scenario1::rv_best(&p));
        assert_eq!(scenario1::eca_best(&p, 3), scenario1::rv_best(&p));
        assert!(scenario1::eca_best(&p, 4) > scenario1::rv_best(&p));
    }

    #[test]
    fn scenario2_crossover_between_5_and_8() {
        // Paper §6.3: "5 < k < 8" for Scenario 2.
        let p = p();
        // Worst case crosses first:
        assert!(scenario2::eca_worst(&p, 5) < scenario2::rv_best(&p) as f64);
        assert!(scenario2::eca_worst(&p, 6) > scenario2::rv_best(&p) as f64);
        // Best case crosses later:
        assert!(scenario2::eca_best(&p, 8) < scenario2::rv_best(&p));
        assert!(scenario2::eca_best(&p, 9) > scenario2::rv_best(&p));
    }

    #[test]
    fn small_j_lets_eca_win_arbitrarily_in_scenario1() {
        // Paper: "if J < I, ECA can outperform RV arbitrarily".
        let big = Params {
            cardinality: 10_000,
            ..Params::default()
        };
        assert!(scenario1::eca_best_3(&big) < scenario1::rv_best(&big));
        assert!(
            scenario1::rv_best(&big) - scenario1::eca_best_3(&big)
                > 3 * (big.blocks_per_relation() - big.join_factor) - 10
        );
    }

    #[test]
    fn worst_cases_dominate_best_cases() {
        let p = p();
        for k in [1, 3, 7, 11] {
            assert!(scenario1::eca_worst(&p, k) >= scenario1::eca_best(&p, k) as f64);
            assert!(scenario2::eca_worst(&p, k) >= scenario2::eca_best(&p, k) as f64);
            assert!(scenario1::rv_worst(&p, k) >= scenario1::rv_best(&p));
            assert!(scenario2::rv_worst(&p, k) >= scenario2::rv_best(&p));
        }
    }
}
