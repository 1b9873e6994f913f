//! Robustness workload generators beyond the paper's calibrated study.
//!
//! The §6 analysis assumes uniform update streams; recovery and chaos
//! drills want nastier shapes. This module adds three reusable ones:
//!
//! * **Zipfian skew** — join groups chosen by rank-skewed popularity, so
//!   a few hot groups absorb most churn and compensation repeatedly
//!   collides on the same tuples.
//! * **Delete-heavy mixes** — streams dominated by deletions, shrinking
//!   the view while compensation is in flight.
//! * **Rolling restart schedules** — evenly spaced warehouse-crash
//!   points for recovery drills (feed to
//!   `ChaosProfile::with_warehouse_crashes`).

use eca_relational::{Tuple, Update};
use rand::rngs::StdRng;
use rand::Rng;

use crate::example6::{Example6, SEL_RANGE};

/// An inverse-CDF Zipfian sampler over ranks `0..n` (rank 0 hottest):
/// `weight(r) ∝ 1/(r+1)^s`. The CDF is held in fixed point so sampling
/// draws one integer and binary-searches — no floating point at sample
/// time, keeping streams deterministic per seed across platforms.
#[derive(Clone, Debug)]
pub struct Zipfian {
    cum: Vec<u64>,
}

impl Zipfian {
    /// A sampler over `n` ranks with exponent `s` (`s = 0` is uniform;
    /// `s ≈ 1` is the classical zipf). `n` must be non-zero.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipfian over an empty domain");
        let weights: Vec<f64> = (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        const SCALE: f64 = (1u64 << 32) as f64;
        let mut cum = Vec::with_capacity(n);
        let mut acc = 0u64;
        for w in &weights {
            // +1 keeps every rank reachable even when its scaled weight
            // rounds to zero.
            acc += ((w / total) * SCALE) as u64 + 1;
            cum.push(acc);
        }
        Zipfian { cum }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        // `new` refuses an empty domain, so `cum` has a last entry.
        let Some(&total) = self.cum.last() else {
            return 0;
        };
        let draw = rng.gen_range(0..total);
        self.cum.partition_point(|&c| c <= draw)
    }
}

impl Example6 {
    /// A zipfian-skewed stream of `k` inserts: join groups drawn with
    /// `weight ∝ 1/(rank+1)^s`, so hot groups keep re-deriving and
    /// colliding with in-flight compensation. `s = 0` degenerates to the
    /// uniform [`Example6::updates`] shape.
    pub fn zipfian_updates(&self, k: usize, s: f64) -> Vec<Update> {
        let mut rng = self.stream_rng(0x21_FA);
        let d = self.params.distinct_join_values() as i64;
        let zipf = Zipfian::new(d as usize, s);
        let mut out = Vec::with_capacity(k);
        for _ in 0..k {
            let rel = rng.gen_range(0..3usize);
            let name = ["r1", "r2", "r3"][rel];
            let group = zipf.sample(&mut rng) as i64;
            let sel = rng.gen_range(0..SEL_RANGE);
            let tuple = match rel {
                0 => Tuple::ints([sel, group]),
                1 => Tuple::ints([rng.gen_range(0..d), group]),
                2 => Tuple::ints([group, sel]),
                _ => unreachable!("three relations"),
            };
            out.push(Update::insert(name, tuple));
        }
        out
    }

    /// A delete-heavy stream: each step deletes a live tuple with
    /// probability `delete_pct`% (while any remain), otherwise inserts a
    /// replacement. At high percentages the view drains toward empty
    /// while compensation is still in flight — the shape that stresses
    /// deletion anomalies and recovery together.
    pub fn delete_heavy_updates(&self, k: usize, delete_pct: u8) -> Vec<Update> {
        let delete_pct = u64::from(delete_pct.min(100));
        let mut rng = self.stream_rng(0xDE1E);
        let d = self.params.distinct_join_values() as i64;
        let mut live: Vec<Vec<Tuple>> = (0..3).map(|r| self.base_tuples(r)).collect();
        let mut out = Vec::with_capacity(k);
        for _ in 0..k {
            let rel = rng.gen_range(0..3usize);
            let name = ["r1", "r2", "r3"][rel];
            let delete = rng.gen_range(0..100u64) < delete_pct && !live[rel].is_empty();
            if delete {
                let idx = rng.gen_range(0..live[rel].len());
                let tuple = live[rel].swap_remove(idx);
                out.push(Update::delete(name, tuple));
            } else {
                let group = rng.gen_range(0..d);
                let sel = rng.gen_range(0..SEL_RANGE);
                let tuple = match rel {
                    0 => Tuple::ints([sel, group]),
                    1 => Tuple::ints([rng.gen_range(0..d), group]),
                    2 => Tuple::ints([group, sel]),
                    _ => unreachable!("three relations"),
                };
                live[rel].push(tuple.clone());
                out.push(Update::insert(name, tuple));
            }
        }
        out
    }
}

/// `crashes` warehouse-crash steps spread evenly across a run expected
/// to settle within `total_steps` scheduler steps — the rolling-restart
/// drill. Steps start past the first segment so the run does real work
/// between incarnations; feed the result to
/// `ChaosProfile::with_warehouse_crashes`.
pub fn rolling_restart_schedule(total_steps: u64, crashes: usize) -> Vec<u64> {
    let crashes = crashes as u64;
    if crashes == 0 || total_steps == 0 {
        return Vec::new();
    }
    let stride = (total_steps / (crashes + 1)).max(1);
    (1..=crashes).map(|i| i * stride).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use eca_relational::UpdateKind;
    use rand::SeedableRng;

    #[test]
    fn zipfian_is_skewed_and_exhaustive() {
        let zipf = Zipfian::new(25, 1.1);
        let mut rng = StdRng::seed_from_u64(9);
        let mut counts = vec![0u64; 25];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(
            counts[0] > 4 * counts[10],
            "rank 0 must dominate mid ranks: {counts:?}"
        );
        assert!(
            counts.iter().all(|&c| c > 0),
            "every rank stays reachable: {counts:?}"
        );
        // s = 0 is uniform-ish: the head must NOT dominate.
        let flat = Zipfian::new(25, 0.0);
        let mut counts = vec![0u64; 25];
        for _ in 0..20_000 {
            counts[flat.sample(&mut rng)] += 1;
        }
        assert!(counts[0] < 2 * counts[24], "{counts:?}");
    }

    #[test]
    fn zipfian_updates_hit_hot_groups_and_are_deterministic() {
        let w = Example6::new(Params::default(), 5);
        let a = w.zipfian_updates(60, 1.2);
        assert_eq!(a, w.zipfian_updates(60, 1.2), "deterministic per seed");
        assert_eq!(a.len(), 60);
        // Group 0 (the hot rank) must appear far more often than its
        // uniform share (1/D of inserts).
        let hot = a
            .iter()
            .filter(|u| {
                let t = &u.tuple;
                let col = match u.relation.as_str() {
                    "r1" => 1,
                    "r2" => 1,
                    _ => 0,
                };
                t.get(col).and_then(|v| v.as_int()) == Some(0)
            })
            .count();
        assert!(hot >= 10, "hot group underrepresented: {hot}/60");
    }

    #[test]
    fn delete_heavy_stream_is_valid_and_mostly_deletes() {
        let w = Example6::new(Params::default(), 11);
        let updates = w.delete_heavy_updates(80, 80);
        let view = Example6::view().unwrap();
        let mut db = eca_core::BaseDb::for_view(&view);
        for (rel, schema) in Example6::schemas().iter().enumerate() {
            for t in w.base_tuples(rel) {
                db.insert(schema.relation(), t);
            }
        }
        let mut deletes = 0;
        for u in &updates {
            assert!(db.apply(u), "ineffective update {u:?}");
            if u.kind == UpdateKind::Delete {
                deletes += 1;
            }
        }
        assert!(
            deletes > updates.len() / 2,
            "delete-heavy stream must mostly delete: {deletes}/{}",
            updates.len()
        );
    }

    #[test]
    fn rolling_schedule_spaces_crashes() {
        assert_eq!(rolling_restart_schedule(100, 3), vec![25, 50, 75]);
        assert_eq!(rolling_restart_schedule(100, 0), Vec::<u64>::new());
        assert_eq!(rolling_restart_schedule(0, 3), Vec::<u64>::new());
        let dense = rolling_restart_schedule(2, 5);
        assert_eq!(dense.len(), 5, "stride clamps at 1, never drops crashes");
    }
}
