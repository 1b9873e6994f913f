//! The paper's Example 6 evaluation scenario, calibrated to [`Params`].
//!
//! Schema: `r1(W,X)`, `r2(X,Y)`, `r3(Y,Z)`;
//! view `V = π_{W,Z}(σ_{W>Z}(r1 ⋈_X r2 ⋈_Y r3))`.
//!
//! Calibration: with `D = C/J` distinct values per join attribute, each
//! attribute value matches exactly `J` tuples in the adjacent relation, so
//! `|r1 ⋈ r2 ⋈ r3| = C·J²` and the view has `σ·C·J²` tuples — the
//! quantities the paper's byte formulas are built from. `W` and `Z` are
//! spread over `0..SEL_RANGE` so `P(W > Z) ≈ σ` for `σ = ½`.

use eca_core::{CoreError, ViewDef};
use eca_relational::{CmpOp, Predicate, Schema, Tuple, Update};
use eca_source::{Source, SourceError};
use eca_storage::Scenario;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::params::Params;

/// Range of the `W`/`Z` selection attributes.
pub(crate) const SEL_RANGE: i64 = 1000;

/// What kinds of updates the k-update stream contains.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UpdateMix {
    /// Insertions only (the paper's §6 extension to `k` updates).
    InsertsOnly,
    /// Roughly half deletions of existing tuples, keeping `C` roughly
    /// constant — the paper's §6.2 assumption 5 ("C, J and our other
    /// parameters do not change as updates occur").
    Mixed,
    /// A hot-group churn: every updated tuple uses join group 0, so any
    /// two updates on adjacent relations mutually join. This realizes the
    /// paper's worst-case compensation sizing, where each compensating
    /// term `V⟨U_j, U_p⟩` transfers `S·σ·J` bytes unconditionally.
    /// Alternating inserts/deletes per relation keep the group's local
    /// join factor near `J`.
    CorrelatedChurn,
}

/// The calibrated Example 6 workload.
#[derive(Clone, Debug)]
pub struct Example6 {
    /// The parameter point.
    pub params: Params,
    seed: u64,
}

impl Example6 {
    /// A workload at the given parameter point, deterministic per seed.
    pub fn new(params: Params, seed: u64) -> Self {
        Example6 { params, seed }
    }

    /// The three base schemas.
    pub fn schemas() -> Vec<Schema> {
        vec![
            Schema::new("r1", &["W", "X"]),
            Schema::new("r2", &["X", "Y"]),
            Schema::new("r3", &["Y", "Z"]),
        ]
    }

    /// The three base schemas with key metadata declared: every tuple is
    /// identified by its full attribute set (the generator emits bag
    /// semantics, so no proper subset is a key). Keyness is the signal
    /// self-maintaining algorithms (ECA-Aux) use to decide which
    /// relations get warehouse-resident auxiliary views.
    fn keyed_schemas() -> Result<Vec<Schema>, CoreError> {
        Ok(vec![
            Schema::with_key("r1", &["W", "X"], &["W", "X"])?,
            Schema::with_key("r2", &["X", "Y"], &["X", "Y"])?,
            Schema::with_key("r3", &["Y", "Z"], &["Y", "Z"])?,
        ])
    }

    /// The view `V = π_{W,Z}(σ_{W>Z}(r1 ⋈_X r2 ⋈_Y r3))`.
    ///
    /// # Errors
    /// Never in practice; propagates view validation.
    pub fn view() -> Result<ViewDef, CoreError> {
        Self::view_over(Self::schemas())
    }

    /// As [`Example6::view`], over the keyed schemas — required by
    /// algorithms that read key metadata (`EcaKey`, ECA-Aux).
    ///
    /// # Errors
    /// Never in practice; propagates view validation.
    pub fn keyed_view() -> Result<ViewDef, CoreError> {
        Self::view_over(Self::keyed_schemas()?)
    }

    fn view_over(schemas: Vec<Schema>) -> Result<ViewDef, CoreError> {
        ViewDef::new(
            "V",
            schemas,
            Predicate::col_eq(1, 2)
                .and(Predicate::col_eq(3, 4))
                .and(Predicate::col_cmp(0, CmpOp::Gt, 5)),
            vec![0, 5],
        )
    }

    pub(crate) fn stream_rng(&self, stream: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed.wrapping_mul(0x9E37_79B9).wrapping_add(stream))
    }

    fn rng(&self, stream: u64) -> StdRng {
        self.stream_rng(stream)
    }

    /// Deterministic base tuples for relation index `rel` (0..3), with
    /// exact join factors.
    pub fn base_tuples(&self, rel: usize) -> Vec<Tuple> {
        let c = self.params.cardinality as i64;
        let d = self.params.distinct_join_values() as i64;
        let mut rng = self.rng(rel as u64);
        (0..c)
            .map(|i| {
                let group = i % d; // join value: each appears C/D = J times
                let sel: i64 = rng.gen_range(0..SEL_RANGE);
                match rel {
                    0 => Tuple::ints([sel, group]),                // r1(W, X)
                    1 => Tuple::ints([i / (c / d).max(1), group]), // r2(X, Y)
                    2 => Tuple::ints([group, sel]),                // r3(Y, Z)
                    _ => unreachable!("three relations"),
                }
            })
            .collect()
    }

    /// Build and load a metered source under the given cost scenario,
    /// with the paper's Scenario-1 index layout (clustered X on r1 and
    /// r2, clustered Y on r3, non-clustered Y on r2) when applicable.
    ///
    /// # Errors
    /// Propagates source/storage construction errors.
    pub fn build_source(&self, scenario: Scenario) -> Result<Source, SourceError> {
        let mut source = Source::new(scenario);
        let k = self.params.tuples_per_block;
        let indexed = matches!(scenario, Scenario::Indexed);
        let schemas = Self::schemas();
        source.add_relation(schemas[0].clone(), k, indexed.then_some("X"), &[])?;
        source.add_relation(
            schemas[1].clone(),
            k,
            indexed.then_some("X"),
            if indexed { &["Y"] } else { &[] },
        )?;
        source.add_relation(schemas[2].clone(), k, indexed.then_some("Y"), &[])?;
        for (rel, schema) in schemas.iter().enumerate() {
            source.load(schema.relation(), self.base_tuples(rel))?;
        }
        Ok(source)
    }

    /// Hot-group churn: round-robin over relations; per relation,
    /// alternately insert a fresh group-0 tuple and delete the one
    /// inserted before it.
    fn correlated_churn(&self, k: usize) -> Vec<Update> {
        let mut rng = self.rng(0xC0DE);
        let mut extras: Vec<Vec<Tuple>> = vec![Vec::new(); 3];
        let mut out = Vec::with_capacity(k);
        for step in 0..k {
            let rel = step % 3;
            let name = ["r1", "r2", "r3"][rel];
            if extras[rel].len() >= 2 {
                let tuple = extras[rel].remove(0);
                out.push(Update::delete(name, tuple));
            } else {
                let sel = rng.gen_range(0..SEL_RANGE);
                let tuple = match rel {
                    0 => Tuple::ints([sel, 0]),
                    1 => Tuple::ints([0, 0]),
                    2 => Tuple::ints([0, sel]),
                    _ => unreachable!(),
                };
                extras[rel].push(tuple.clone());
                out.push(Update::insert(name, tuple));
            }
        }
        out
    }

    /// The paper's Example 6 update script: one insert into each of
    /// `r1`, `r2`, `r3` (in that order), with calibrated join values so
    /// each insert derives `≈ σJ²` view tuples.
    pub fn paper_updates(&self) -> Vec<Update> {
        let mut rng = self.rng(0xBEEF);
        let d = self.params.distinct_join_values() as i64;
        let g1 = rng.gen_range(0..d);
        let g2 = rng.gen_range(0..d);
        let g3 = rng.gen_range(0..d);
        vec![
            Update::insert("r1", Tuple::ints([rng.gen_range(0..SEL_RANGE), g1])),
            Update::insert("r2", Tuple::ints([g2, rng.gen_range(0..d)])),
            Update::insert("r3", Tuple::ints([g3, rng.gen_range(0..SEL_RANGE)])),
        ]
    }

    /// A stream of `k` updates touching the three relations with equal
    /// probability (the paper's k-update analysis assumption). Inserted
    /// tuples reuse existing join values so each insert derives `≈ σJ²`
    /// view tuples, as the byte formulas assume.
    pub fn updates(&self, k: usize, mix: UpdateMix) -> Vec<Update> {
        if mix == UpdateMix::CorrelatedChurn {
            return self.correlated_churn(k);
        }
        let mut rng = self.rng(0xFACE);
        let d = self.params.distinct_join_values() as i64;
        // Track live tuples per relation for deletions.
        let mut live: Vec<Vec<Tuple>> = (0..3).map(|r| self.base_tuples(r)).collect();
        let mut out = Vec::with_capacity(k);
        for _ in 0..k {
            let rel = rng.gen_range(0..3usize);
            let name = ["r1", "r2", "r3"][rel];
            let delete = mix == UpdateMix::Mixed && rng.gen_bool(0.5) && !live[rel].is_empty();
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
                    _ => unreachable!(),
                };
                live[rel].push(tuple.clone());
                out.push(Update::insert(name, tuple));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eca_core::basedb::BaseLookup;
    use eca_core::BaseDb;

    #[test]
    fn base_data_has_exact_cardinality() {
        let w = Example6::new(Params::default(), 42);
        for rel in 0..3 {
            assert_eq!(w.base_tuples(rel).len(), 100);
        }
    }

    #[test]
    fn join_factors_are_exact() {
        let p = Params::default();
        let w = Example6::new(p, 42);
        let d = p.distinct_join_values() as i64;
        // r2's X attribute: each value 0..D appears exactly J times.
        let r2 = w.base_tuples(1);
        for v in 0..d {
            let n = r2
                .iter()
                .filter(|t| t.get(0).unwrap().as_int() == Some(v))
                .count();
            assert_eq!(n as u64, p.join_factor, "X={v}");
        }
        // r2's Y attribute likewise.
        for v in 0..d {
            let n = r2
                .iter()
                .filter(|t| t.get(1).unwrap().as_int() == Some(v))
                .count();
            assert_eq!(n as u64, p.join_factor, "Y={v}");
        }
        // r1's X and r3's Y.
        let r1 = w.base_tuples(0);
        let r3 = w.base_tuples(2);
        for v in 0..d {
            assert_eq!(
                r1.iter()
                    .filter(|t| t.get(1).unwrap().as_int() == Some(v))
                    .count() as u64,
                p.join_factor
            );
            assert_eq!(
                r3.iter()
                    .filter(|t| t.get(0).unwrap().as_int() == Some(v))
                    .count() as u64,
                p.join_factor
            );
        }
    }

    #[test]
    fn view_size_close_to_sigma_c_j_squared() {
        let p = Params::default();
        let w = Example6::new(p, 7);
        let view = Example6::view().unwrap();
        let mut db = BaseDb::for_view(&view);
        for (rel, schema) in Example6::schemas().iter().enumerate() {
            for t in w.base_tuples(rel) {
                db.insert(schema.relation(), t);
            }
        }
        let v = view.eval(&db).unwrap();
        let expected = p.selectivity * (p.cardinality * p.join_factor * p.join_factor) as f64;
        let actual = v.pos_len() as f64;
        let ratio = actual / expected;
        assert!(
            (0.8..1.2).contains(&ratio),
            "view size {actual} vs expected {expected} (ratio {ratio})"
        );
    }

    #[test]
    fn updates_are_deterministic_per_seed() {
        let w = Example6::new(Params::default(), 5);
        assert_eq!(
            w.updates(10, UpdateMix::InsertsOnly),
            w.updates(10, UpdateMix::InsertsOnly)
        );
        let other = Example6::new(Params::default(), 6);
        assert_ne!(
            w.updates(10, UpdateMix::InsertsOnly),
            other.updates(10, UpdateMix::InsertsOnly)
        );
    }

    #[test]
    fn mixed_stream_contains_valid_deletes() {
        let w = Example6::new(Params::default(), 11);
        let updates = w.updates(40, UpdateMix::Mixed);
        assert_eq!(updates.len(), 40);
        // Replay against a DB: every delete must be effective.
        let view = Example6::view().unwrap();
        let mut db = BaseDb::for_view(&view);
        for (rel, schema) in Example6::schemas().iter().enumerate() {
            for t in w.base_tuples(rel) {
                db.insert(schema.relation(), t);
            }
        }
        let mut deletes = 0;
        for u in &updates {
            assert!(db.apply(u), "ineffective update {u:?}");
            if u.kind == eca_relational::UpdateKind::Delete {
                deletes += 1;
            }
        }
        assert!(
            deletes > 5,
            "expected a healthy share of deletes, got {deletes}"
        );
    }

    #[test]
    fn build_source_loads_calibrated_data() {
        let w = Example6::new(Params::default(), 3);
        let source = w.build_source(Scenario::Indexed).unwrap();
        let snap = source.snapshot();
        assert_eq!(snap.bag("r1").unwrap().pos_len(), 100);
        assert_eq!(snap.bag("r2").unwrap().pos_len(), 100);
        assert_eq!(snap.bag("r3").unwrap().pos_len(), 100);
        assert_eq!(source.io_meter().query_reads(), 0, "loads are free");
    }
}
