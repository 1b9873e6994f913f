//! Differential testing: the physical storage engine must return exactly
//! the same answers as the logical reference evaluator, for both cost
//! scenarios, across randomized data and query shapes.

use eca_core::{BaseDb, ViewDef};
use eca_relational::{CmpOp, Predicate, Schema, Tuple, Update};
use eca_source::Source;
use eca_storage::Scenario;
use eca_wire::WireQuery;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Build a random 3-relation chain-join view plus matching data.
fn random_setup(seed: u64) -> (ViewDef, BaseDb, Vec<Update>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let schemas = vec![
        Schema::new("r1", &["W", "X"]),
        Schema::new("r2", &["X", "Y"]),
        Schema::new("r3", &["Y", "Z"]),
    ];
    let cond = Predicate::col_eq(1, 2)
        .and(Predicate::col_eq(3, 4))
        .and(Predicate::col_cmp(0, CmpOp::Gt, 5));
    let proj = vec![0, 5];
    let view = ViewDef::new("V", schemas.clone(), cond, proj).unwrap();

    let mut db = BaseDb::for_view(&view);
    let n = rng.gen_range(10..60);
    for _ in 0..n {
        let j1 = rng.gen_range(0..6);
        let j2 = rng.gen_range(0..6);
        db.insert("r1", Tuple::ints([rng.gen_range(0..20), j1]));
        db.insert("r2", Tuple::ints([rng.gen_range(0..6), j2]));
        db.insert(
            "r3",
            Tuple::ints([rng.gen_range(0..6), rng.gen_range(0..20)]),
        );
    }

    let updates = (0..8)
        .map(|_| {
            let rel = ["r1", "r2", "r3"][rng.gen_range(0..3usize)];
            let t = Tuple::ints([rng.gen_range(0..8), rng.gen_range(0..8)]);
            if rng.gen_bool(0.3) {
                Update::delete(rel, t)
            } else {
                Update::insert(rel, t)
            }
        })
        .collect();
    (view, db, updates)
}

fn build_source(view: &ViewDef, db: &BaseDb, scenario: Scenario) -> Source {
    use eca_core::basedb::BaseLookup;
    let mut source = Source::new(scenario);
    let indexed = matches!(scenario, Scenario::Indexed);
    source
        .add_relation(view.base()[0].clone(), 4, indexed.then_some("X"), &[])
        .unwrap();
    source
        .add_relation(
            view.base()[1].clone(),
            4,
            indexed.then_some("X"),
            if indexed { &["Y"] } else { &[] },
        )
        .unwrap();
    source
        .add_relation(view.base()[2].clone(), 4, indexed.then_some("Y"), &[])
        .unwrap();
    for schema in view.base() {
        let name = schema.relation();
        let tuples: Vec<Tuple> = db
            .bag(name)
            .unwrap()
            .iter()
            .flat_map(|(t, c)| std::iter::repeat_with(move || t.clone()).take(c.max(0) as usize))
            .collect();
        source.load(name, tuples).unwrap();
    }
    source
}

#[test]
fn full_view_answers_match_logical_eval() {
    for seed in 0..15u64 {
        let (view, db, _) = random_setup(seed);
        for scenario in [Scenario::Indexed, Scenario::nested_loop_default()] {
            let mut source = build_source(&view, &db, scenario);
            let wq = WireQuery::from_query(&view.as_query());
            let physical = source.answer(&wq).unwrap();
            let logical = view.eval(&db).unwrap();
            assert_eq!(physical, logical, "seed {seed} {scenario:?}");
        }
    }
}

#[test]
fn substituted_and_compensated_queries_match() {
    for seed in 0..15u64 {
        let (view, db, updates) = random_setup(seed);
        for scenario in [Scenario::Indexed, Scenario::nested_loop_default()] {
            let mut source = build_source(&view, &db, scenario);
            // Single substitution V⟨U⟩.
            for u in &updates {
                let q = view.substitute(u).unwrap();
                let physical = source.answer(&WireQuery::from_query(&q)).unwrap();
                assert_eq!(
                    physical,
                    q.eval(&db).unwrap(),
                    "seed {seed} {u:?} {scenario:?}"
                );
            }
            // Compensated multi-term queries Q = V⟨U2⟩ − V⟨U1⟩⟨U2⟩ …
            let q1 = view.substitute(&updates[0]).unwrap();
            let q2 = view
                .substitute(&updates[1])
                .unwrap()
                .minus(&q1.substitute(&updates[1]));
            let q3 = view
                .substitute(&updates[2])
                .unwrap()
                .minus(&q1.substitute(&updates[2]))
                .minus(&q2.substitute(&updates[2]));
            for q in [&q2, &q3] {
                let physical = source.answer(&WireQuery::from_query(q)).unwrap();
                assert_eq!(physical, q.eval(&db).unwrap(), "seed {seed} {scenario:?}");
            }
        }
    }
}

#[test]
fn answers_match_after_update_replay() {
    // Apply updates to both the engine and the logical mirror; answers
    // must stay identical at every step.
    for seed in 20..30u64 {
        let (view, mut db, updates) = random_setup(seed);
        let mut source = build_source(&view, &db, Scenario::Indexed);
        for u in &updates {
            let logical_effective = db.apply(u);
            let physical_effective = source.execute_update(u);
            assert_eq!(logical_effective, physical_effective, "seed {seed} {u:?}");
            let wq = WireQuery::from_query(&view.as_query());
            assert_eq!(
                source.answer(&wq).unwrap(),
                view.eval(&db).unwrap(),
                "seed {seed}"
            );
        }
    }
}

mod planner_properties {
    //! Property-based differentials for the SPJ planner and the
    //! multi-term evaluation modes: whatever the data, condition, and
    //! projection, the planned pipeline must agree with the
    //! cross-select-project oracle, and batched evaluation must agree
    //! with plain per-term evaluation.

    use super::*;
    use eca_relational::algebra::{spj, spj_naive};
    use eca_relational::{SignedBag, Value};
    use proptest::prelude::*;

    /// A signed bag of binary tuples — negative counts included, since
    /// compensating terms evaluate over signed intermediates.
    fn signed_bag() -> impl Strategy<Value = SignedBag> {
        prop::collection::vec((0i64..6, 0i64..6, -3i64..4), 0..12).prop_map(|rows| {
            let mut bag = SignedBag::new();
            for (a, b, c) in rows {
                bag.add(Tuple::ints([a, b]), c);
            }
            bag
        })
    }

    /// A condition over three binary relations (six columns) mixing the
    /// planner's three conjunct classes: join edges (cross-input
    /// equalities), pushable single-input comparisons, and a residual
    /// cross-input inequality the hash joins cannot absorb.
    fn condition() -> impl Strategy<Value = Predicate> {
        (
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
            (0usize..6, -1i64..7),
            any::<bool>(),
        )
            .prop_map(|(edge12, edge23, pushed, (col, threshold), residual)| {
                let mut cond = Predicate::True;
                if edge12 {
                    cond = cond.and(Predicate::col_eq(1, 2));
                }
                if edge23 {
                    cond = cond.and(Predicate::col_eq(3, 4));
                }
                if pushed {
                    cond = cond.and(Predicate::col_const(col, CmpOp::Gt, threshold));
                }
                if residual {
                    cond = cond.and(Predicate::col_cmp(0, CmpOp::Ge, 5));
                }
                cond
            })
    }

    proptest! {
        #[test]
        fn planned_spj_matches_oracle(
            r1 in signed_bag(),
            r2 in signed_bag(),
            r3 in signed_bag(),
            cond in condition(),
            proj in prop::collection::vec(0usize..6, 1..4),
        ) {
            let inputs = [&r1, &r2, &r3];
            let planned = spj(&inputs, &cond, &proj).unwrap();
            let naive = spj_naive(&inputs, &cond, &proj).unwrap();
            prop_assert_eq!(planned, naive);
        }
    }

    /// One random SPJ term of every shape the planner distinguishes:
    /// 1–4 inputs of arity 1–3 over integers or strings, each adjacent
    /// pair linked by zero (a cross product), one or two equalities (a
    /// composite key), plus pushable and residual comparisons; signed
    /// counts throughout. With `cancel`, every row of the first input
    /// has a twin of opposite count that differs only in a column the
    /// projection drops, so the answer cancels to zero where nothing
    /// else tells the twins apart.
    struct ShapedTerm {
        inputs: Vec<SignedBag>,
        arities: Vec<usize>,
        cond: Predicate,
        proj: Vec<usize>,
    }

    fn shaped_term(seed: u64) -> ShapedTerm {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..=4usize);
        let arities: Vec<usize> = (0..n).map(|_| rng.gen_range(1..=3)).collect();
        let offsets: Vec<usize> = arities
            .iter()
            .scan(0, |at, &a| {
                *at += a;
                Some(*at - a)
            })
            .collect();
        let total: usize = arities.iter().sum();
        let strings = rng.gen_bool(0.4);
        let value = |v: i64| -> Value {
            if strings {
                Value::str(format!("s{v}"))
            } else {
                Value::Int(v)
            }
        };
        let cancel = arities[0] >= 2 && rng.gen_bool(0.4);
        let mut inputs = Vec::with_capacity(n);
        for (i, &arity) in arities.iter().enumerate() {
            let mut bag = SignedBag::new();
            for _ in 0..rng.gen_range(0..7) {
                let vals: Vec<i64> = (0..arity).map(|_| rng.gen_range(0..3)).collect();
                let count: i64 = [-2, -1, 1, 2][rng.gen_range(0..4usize)];
                bag.add(Tuple::new(vals.iter().map(|&v| value(v))), count);
                if cancel && i == 0 {
                    let mut twin = vals.clone();
                    twin[arity - 1] += 10;
                    bag.add(Tuple::new(twin.iter().map(|&v| value(v))), -count);
                }
            }
            inputs.push(bag);
        }
        let mut cond = Predicate::True;
        for i in 1..n {
            // 0 edges: a cross product; 2: a composite key.
            for _ in 0..rng.gen_range(0..=2) {
                let a = offsets[i - 1] + rng.gen_range(0..arities[i - 1]);
                let b = offsets[i] + rng.gen_range(0..arities[i]);
                cond = cond.and(Predicate::col_eq(a, b));
            }
        }
        let ops = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Ge];
        if rng.gen_bool(0.5) {
            let op = ops[rng.gen_range(0..ops.len())];
            cond = cond.and(Predicate::col_const(
                rng.gen_range(0..total),
                op,
                value(rng.gen_range(0..3)),
            ));
        }
        if rng.gen_bool(0.4) {
            let op = ops[rng.gen_range(0..ops.len())];
            cond = cond.and(Predicate::col_cmp(
                rng.gen_range(0..total),
                op,
                rng.gen_range(0..total),
            ));
        }
        // A cancelling term never projects the column its twins differ in.
        let dropped = cancel.then_some(arities[0] - 1);
        let kept: Vec<usize> = (0..total).filter(|&c| Some(c) != dropped).collect();
        let proj = (0..rng.gen_range(1..=3))
            .map(|_| kept[rng.gen_range(0..kept.len())])
            .collect();
        ShapedTerm {
            inputs,
            arities,
            cond,
            proj,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn planned_spj_matches_oracle_on_every_shape(seed in 0u64..u64::MAX) {
            let term = shaped_term(seed);
            let inputs: Vec<&SignedBag> = term.inputs.iter().collect();
            let planned = spj(&inputs, &term.cond, &term.proj).unwrap();
            let naive = spj_naive(&inputs, &term.cond, &term.proj).unwrap();
            prop_assert_eq!(planned, naive);
        }
    }

    /// The cancelling shape, pinned: twins of opposite count that differ
    /// only in a dropped column join the same rows and sum to nothing.
    #[test]
    fn planned_spj_cancels_to_zero_like_the_oracle() {
        let mut r1 = SignedBag::new();
        r1.add(Tuple::new([Value::str("a"), Value::Int(1)]), 2);
        r1.add(Tuple::new([Value::str("a"), Value::Int(2)]), -2);
        let r2 = SignedBag::from_tuples([
            Tuple::new([Value::str("a"), Value::str("x")]),
            Tuple::new([Value::str("a"), Value::str("y")]),
        ]);
        let inputs = [&r1, &r2];
        let cond = Predicate::col_eq(0, 2);
        let joined = spj(&inputs, &cond, &[0, 1, 3]).unwrap();
        assert_eq!(joined.distinct_len(), 4, "the twins join before projection");
        let planned = spj(&inputs, &cond, &[0, 3]).unwrap();
        assert!(planned.is_empty());
        assert_eq!(planned, spj_naive(&inputs, &cond, &[0, 3]).unwrap());
    }

    /// A source holding `shaped_term(seed)`'s inputs, and a query of one
    /// to three terms over them with the oracle's answer. Each input is
    /// a stored relation holding the input's positive occurrences; an
    /// input may read an earlier relation of its arity again (a
    /// self-join). Per term, an input is bound to one of its tuples with
    /// one chance in three, signed as the tuple's count. Under Scenario 1
    /// each relation is clustered on one attribute and indexed on
    /// another, at two tuples per block, so probes and scans both occur.
    fn shaped_source(seed: u64, scenario: Scenario) -> (Source, WireQuery, SignedBag) {
        use eca_core::{Atom, Query, Term};
        use eca_relational::SignedTuple;
        let term = shaped_term(seed);
        let mut rng = StdRng::seed_from_u64(seed.rotate_left(17) ^ 0x5eed);
        let mut source = Source::new(scenario);
        // Per input: its relation's schema and stored bag.
        let mut stored: Vec<(Schema, SignedBag)> = Vec::new();
        let mut reads = Vec::with_capacity(term.inputs.len());
        for (i, (bag, &arity)) in term.inputs.iter().zip(&term.arities).enumerate() {
            let again = stored
                .iter()
                .position(|(s, _)| s.arity() == arity)
                .filter(|_| rng.gen_bool(0.3));
            let rel = match again {
                Some(rel) => rel,
                None => {
                    let names: Vec<String> = (0..arity).map(|a| format!("a{a}")).collect();
                    let attrs: Vec<&str> = names.iter().map(String::as_str).collect();
                    let schema = Schema::new(format!("t{i}"), &attrs);
                    let (clustered, indexed) = match scenario {
                        Scenario::Indexed => (
                            Some(attrs[rng.gen_range(0..arity)]),
                            vec![attrs[rng.gen_range(0..arity)]],
                        ),
                        Scenario::NestedLoop { .. } => (None, vec![]),
                    };
                    source
                        .add_relation(schema.clone(), 2, clustered, &indexed)
                        .unwrap();
                    let mut positive = SignedBag::new();
                    let mut occurrences = Vec::new();
                    for (t, c) in bag.iter().filter(|&(_, c)| c > 0) {
                        positive.add(t.clone(), c);
                        occurrences.extend(std::iter::repeat(t.clone()).take(c as usize));
                    }
                    source.load(schema.relation(), occurrences).unwrap();
                    stored.push((schema, positive));
                    stored.len() - 1
                }
            };
            reads.push(rel);
        }
        let base = reads.iter().map(|&rel| stored[rel].0.clone()).collect();
        let view = ViewDef::new("shaped", base, term.cond.clone(), term.proj.clone()).unwrap();
        let mut terms = Vec::new();
        let mut oracle = SignedBag::new();
        for _ in 0..rng.gen_range(1..=3) {
            let factor = [-1, 1, 2][rng.gen_range(0..3usize)];
            let mut atoms = Vec::new();
            let mut inputs = Vec::new();
            for (i, (bag, &rel)) in term.inputs.iter().zip(&reads).enumerate() {
                let tuples: Vec<(&Tuple, i64)> = bag.iter().collect();
                if !tuples.is_empty() && rng.gen_bool(0.33) {
                    let (t, c) = tuples[rng.gen_range(0..tuples.len())];
                    let st = if c > 0 {
                        SignedTuple::pos(t.clone())
                    } else {
                        SignedTuple::neg(t.clone())
                    };
                    let mut single = SignedBag::new();
                    single.add(t.clone(), c.signum());
                    atoms.push(Atom::Bound(st));
                    inputs.push(single);
                } else {
                    atoms.push(Atom::Rel(i));
                    inputs.push(stored[rel].1.clone());
                }
            }
            let refs: Vec<&SignedBag> = inputs.iter().collect();
            for (t, c) in spj_naive(&refs, &term.cond, &term.proj).unwrap().iter() {
                oracle.add(t.clone(), c * factor);
            }
            terms.push(Term::new(factor, atoms));
        }
        let query = WireQuery::from_query(&Query::from_terms(view, terms));
        (source, query, oracle)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The source's answers equal the oracle's on every term shape
        /// (pushdown, composite edges, crosses, residuals, self-joins,
        /// bound tuples), under Scenario 1 with term batching off and on,
        /// and under Scenario 2.
        #[test]
        fn source_matches_oracle_on_every_shape(seed in 0u64..u64::MAX) {
            for (scenario, batching) in [
                (Scenario::Indexed, false),
                (Scenario::Indexed, true),
                (Scenario::nested_loop_default(), false),
            ] {
                let (mut source, query, oracle) = shaped_source(seed, scenario);
                if batching {
                    source.enable_term_batching();
                }
                let answer = source.answer(&query).unwrap();
                prop_assert_eq!(answer, oracle, "{:?} batching {}", scenario, batching);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn batched_matches_plain_source(seed in 0u64..1000) {
            let (view, db, updates) = random_setup(seed);
            // The compensated 3-update query: up to four SPJ terms
            // sharing probe values — the shape term batching targets.
            let q1 = view.substitute(&updates[0]).unwrap();
            let q2 = view
                .substitute(&updates[1])
                .unwrap()
                .minus(&q1.substitute(&updates[1]));
            let q3 = view
                .substitute(&updates[2])
                .unwrap()
                .minus(&q1.substitute(&updates[2]))
                .minus(&q2.substitute(&updates[2]));
            for q in [&view.as_query(), &q3] {
                let wq = WireQuery::from_query(q);
                let logical = q.eval(&db).unwrap();

                let mut plain = build_source(&view, &db, Scenario::Indexed);
                let sequential = plain.answer(&wq).unwrap();
                let io_plain = plain.io_meter().query_reads();

                let mut batched = build_source(&view, &db, Scenario::Indexed);
                batched.enable_term_batching();
                prop_assert_eq!(batched.answer(&wq).unwrap(), sequential.clone());
                let io_batched = batched.io_meter().query_reads();

                prop_assert_eq!(sequential, logical);
                // Sharing scans and probes can only reduce block reads.
                prop_assert!(io_batched <= io_plain);
            }
        }
    }
}

mod selfmaint_differential {
    //! Property-based differential for ECA-Aux: on random keyed
    //! multi-relation scenarios under random interleavings, the
    //! self-maintaining algorithm must agree with ECA exactly, never
    //! send more messages, and — whenever every update was answered
    //! locally — send no `QueryRequest` at all (checked against the
    //! logical ledger's warehouse→source bytes as well as its message
    //! counters; the raw ledger also carries the resume layer's acks).

    use super::*;
    use eca_core::algorithms::{AlgorithmKind, Eca, LocalRule};
    use eca_core::maintainer::{OutboundQuery, SelfMaintStats, ViewMaintainer};
    use eca_core::{CoreError, QueryId};
    use eca_relational::SignedBag;
    use eca_sim::{Policy, RunReport, Simulation};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The random chain-join scenario of [`random_setup`], with key
    /// metadata declared on every relation (full-attribute keys: the
    /// generator produces bag data, so nothing narrower is a key).
    fn keyed_setup(seed: u64) -> (ViewDef, BaseDb, Vec<Update>) {
        let (view, db, updates) = random_setup(seed);
        let keyed: Vec<Schema> = view
            .base()
            .iter()
            .map(|s| {
                let attrs: Vec<&str> = s.attrs().iter().map(String::as_str).collect();
                Schema::with_key(s.relation(), &attrs, &attrs).unwrap()
            })
            .collect();
        let view = ViewDef::new(
            view.name(),
            keyed,
            view.cond().clone(),
            view.proj().to_vec(),
        )
        .unwrap();
        (view, db, updates)
    }

    fn run(
        view: &ViewDef,
        db: &BaseDb,
        updates: &[Update],
        coverage: Option<&[bool]>,
        policy: Policy,
    ) -> RunReport {
        match coverage {
            Some(c) => run_aux(view, db, updates, c, 1, policy),
            None => simulate(view, db, updates, policy, |initial, snapshot| {
                AlgorithmKind::Eca
                    .instantiate_with_base(view, initial, Some(snapshot))
                    .unwrap()
            }),
        }
    }

    /// ECA under the auxiliary rule with `coverage`, sharing one query
    /// per `batch_size` updates. After the last notification the driver
    /// flushes the partial batch, as a batching deployment does at the
    /// end of a stream.
    fn run_aux(
        view: &ViewDef,
        db: &BaseDb,
        updates: &[Update],
        coverage: &[bool],
        batch_size: usize,
        policy: Policy,
    ) -> RunReport {
        let mut replay = db.clone();
        let notifications = updates.iter().filter(|u| replay.apply(u)).count();
        simulate(view, db, updates, policy, |initial, snapshot| {
            let rule = LocalRule::Auxiliaries(Some(coverage.to_vec()));
            let eca = Eca::with_rule(view.clone(), initial, rule, batch_size, Some(&snapshot));
            Box::new(FlushAtEnd {
                inner: eca.unwrap(),
                remaining: notifications,
            })
        })
    }

    fn simulate(
        view: &ViewDef,
        db: &BaseDb,
        updates: &[Update],
        policy: Policy,
        make: impl FnOnce(SignedBag, BaseDb) -> Box<dyn ViewMaintainer>,
    ) -> RunReport {
        let source = build_source(view, db, Scenario::Indexed);
        let snapshot = source.snapshot();
        let initial = view.eval(&snapshot).unwrap();
        Simulation::new(source, make(initial, snapshot), updates.to_vec())
            .unwrap()
            .run(policy)
            .unwrap()
    }

    /// Flushes the inner maintainer's partial batch on the last of
    /// `remaining` notifications.
    struct FlushAtEnd {
        inner: Eca,
        remaining: usize,
    }

    impl ViewMaintainer for FlushAtEnd {
        fn algorithm(&self) -> &'static str {
            self.inner.algorithm()
        }

        fn view(&self) -> &ViewDef {
            self.inner.view()
        }

        fn materialized(&self) -> &SignedBag {
            self.inner.materialized()
        }

        fn on_update(&mut self, update: &Update) -> Result<Vec<OutboundQuery>, CoreError> {
            let mut out = self.inner.on_update(update)?;
            self.remaining -= 1;
            if self.remaining == 0 {
                out.extend(self.inner.flush());
            }
            Ok(out)
        }

        fn on_answer(
            &mut self,
            id: QueryId,
            answer: SignedBag,
        ) -> Result<Vec<OutboundQuery>, CoreError> {
            self.inner.on_answer(id, answer)
        }

        fn is_quiescent(&self) -> bool {
            self.inner.is_quiescent()
        }

        fn selfmaint_stats(&self) -> Option<SelfMaintStats> {
            self.inner.selfmaint_stats()
        }
    }

    fn strongly_consistent(r: &RunReport) -> bool {
        eca_consistency::check(&r.source_view_states, &r.warehouse_view_states).level()
            >= eca_consistency::Level::StronglyConsistent
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn eca_aux_agrees_with_eca_and_never_messages_more(
            seed in 0u64..500,
            policy_seed in 0u64..1000,
            coverage_bits in 0u8..8,
        ) {
            let (view, db, updates) = keyed_setup(seed);
            let coverage = [
                coverage_bits & 1 != 0,
                coverage_bits & 2 != 0,
                coverage_bits & 4 != 0,
            ];
            let policy = Policy::Random { seed: policy_seed };
            let aux = run(&view, &db, &updates, Some(&coverage), policy);
            let eca = run(&view, &db, &updates, None, policy);

            // Final states and histories equivalent to ECA.
            prop_assert_eq!(&aux.final_mv, &eca.final_mv, "final states diverge");
            prop_assert!(aux.converged());
            prop_assert!(strongly_consistent(&aux), "ECA-Aux history");
            prop_assert!(strongly_consistent(&eca), "ECA history");

            // Never chattier than ECA.
            prop_assert!(aux.maintenance_messages() <= eca.maintenance_messages());

            // Message count decomposes exactly: 2 per remote update.
            let stats = aux.selfmaint.as_ref().expect("ECA-Aux reports stats");
            prop_assert_eq!(aux.maintenance_messages(), 2 * stats.remote_updates);

            // Zero-round-trip runs send no QueryRequest: the logical
            // ledger's warehouse→source bytes must read zero, not just its
            // message counter.
            if stats.remote_updates == 0 {
                prop_assert_eq!(aux.bytes_w2s, 0, "a QueryRequest crossed");
                prop_assert_eq!(aux.answer_bytes, 0);
                prop_assert_eq!(aux.io_reads, 0);
            }
        }

        /// The combination only one compensating maintainer can express:
        /// auxiliary coverage × batching. Finals and histories match
        /// plain ECA, and only updates that leave a term for the source
        /// fill batches, so M is exactly 2⌈remote/n⌉.
        #[test]
        fn batched_aux_agrees_with_eca_and_meets_its_closed_form(
            seed in 0u64..500,
            policy_seed in 0u64..1000,
            coverage_bits in 0u8..8,
            batch_size in 1usize..5,
        ) {
            let (view, db, updates) = keyed_setup(seed);
            let coverage = [
                coverage_bits & 1 != 0,
                coverage_bits & 2 != 0,
                coverage_bits & 4 != 0,
            ];
            let policy = Policy::Random { seed: policy_seed };
            let aux = run_aux(&view, &db, &updates, &coverage, batch_size, policy);
            let eca = run(&view, &db, &updates, None, policy);

            prop_assert_eq!(&aux.final_mv, &eca.final_mv, "final states diverge");
            prop_assert!(aux.converged());
            prop_assert!(strongly_consistent(&aux), "batched ECA-Aux history");
            prop_assert!(aux.maintenance_messages() <= eca.maintenance_messages());
            let stats = aux.selfmaint.as_ref().expect("ECA-Aux reports stats");
            prop_assert_eq!(
                aux.maintenance_messages(),
                2 * stats.remote_updates.div_ceil(batch_size as u64)
            );
        }

        #[test]
        fn fully_covered_views_never_touch_the_wire(
            seed in 0u64..500,
            policy_seed in 0u64..1000,
        ) {
            let (view, db, updates) = keyed_setup(seed);
            let aux = run(
                &view,
                &db,
                &updates,
                Some(&[true, true, true]),
                Policy::Random { seed: policy_seed },
            );
            prop_assert!(aux.converged());
            prop_assert_eq!(aux.maintenance_messages(), 0);
            prop_assert_eq!(aux.bytes_w2s, 0);
        }
    }

    /// Deterministic spot-check that the equivalence also holds under
    /// the adversarial all-updates-first interleaving (not just random
    /// ones) and that per-update MV trajectories are legal prefixes.
    #[test]
    fn adversarial_interleaving_matches_eca() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10 {
            let seed = rand::Rng::gen_range(&mut rng, 0..10_000u64);
            let (view, db, updates) = keyed_setup(seed);
            let aux = run(
                &view,
                &db,
                &updates,
                Some(&[true; 3]),
                Policy::AllUpdatesFirst,
            );
            let eca = run(&view, &db, &updates, None, Policy::AllUpdatesFirst);
            assert_eq!(aux.final_mv, eca.final_mv, "seed {seed}");
            assert!(strongly_consistent(&aux), "seed {seed}");
        }
    }
}

#[test]
fn io_accounting_is_monotone_and_scenario_sensitive() {
    let (view, db, _) = random_setup(3);
    let mut s1 = build_source(&view, &db, Scenario::Indexed);
    let mut s2 = build_source(&view, &db, Scenario::nested_loop_default());
    let wq = WireQuery::from_query(&view.as_query());
    s1.answer(&wq).unwrap();
    s2.answer(&wq).unwrap();
    let io1 = s1.io_meter().query_reads();
    let io2 = s2.io_meter().query_reads();
    assert!(io1 > 0 && io2 > 0);
    // Nested-loop recomputation must cost more than the indexed plan.
    assert!(io2 > io1, "scenario2 {io2} should exceed scenario1 {io1}");
}
