//! Multi-source stress, ~200 scripted updates, exercised two ways on
//! one set of builders —
//!
//! * the real threaded driver: 16 sources × 2 views each (32 views)
//!   multiplexed over a 3-worker reactor pool against scripted source
//!   threads that *randomly interleave* executing updates with answering
//!   pending queries, so `W_up`/`W_ans` event histories race for real
//!   while many stations contend for few workers, and
//! * a `ChaosSimulation` run under `Policy::Random` (deterministic,
//!   scheduler-randomized interleaving) over 4 sources × 50 updates.
//!
//! Every view must converge to its definition evaluated on the final
//! base state, and the §3.1 checker must report strong consistency for
//! ECA on every view. The two views per source are *distinct
//! projections* of the same join, so any cross-view or cross-shard
//! leakage (an event applied to the wrong maintainer) shows up as a
//! convergence or consistency failure.

use std::collections::VecDeque;

use eca_core::algorithms::AlgorithmKind;
use eca_core::{QueryId, ViewDef};
use eca_relational::{Predicate, Schema, SignedBag, Tuple, Update};
use eca_sim::{ChaosSimulation, Policy};
use eca_source::Source;
use eca_storage::Scenario;
use eca_warehouse::{SourceId, Warehouse};
use eca_wire::{Message, SharedFifo, TransferMeter, Transport, WireQuery};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SOURCES: usize = 16;
const VIEWS_PER_SOURCE: usize = 2; // × 16 sources = 32 views
const UPDATES_PER_SOURCE: usize = 13; // × 16 sources = 208 updates
const WORKERS: usize = 3; // far fewer workers than stations
const JOIN_DOMAIN: i64 = 7;
const PRELOAD: i64 = 30;

fn relation_names(s: usize) -> (String, String) {
    (format!("x{s}_1"), format!("x{s}_2"))
}

fn build_source(s: usize) -> Source {
    let (r1, r2) = relation_names(s);
    let mut source = Source::new(Scenario::Indexed);
    source
        .add_relation(Schema::new(&r1, &["W", "X"]), 20, Some("X"), &[])
        .unwrap();
    source
        .add_relation(Schema::new(&r2, &["X", "Y"]), 20, Some("X"), &[])
        .unwrap();
    source
        .load(&r1, (0..PRELOAD).map(|j| Tuple::ints([j, j % JOIN_DOMAIN])))
        .unwrap();
    source
        .load(
            &r2,
            (0..PRELOAD).map(|j| Tuple::ints([j % JOIN_DOMAIN, 100 + j])),
        )
        .unwrap();
    source
}

fn build_views(s: usize) -> Vec<ViewDef> {
    let (r1, r2) = relation_names(s);
    // Two distinct projections of r1 ⋈ r2 per source: if an event ever
    // reaches the wrong view, their states diverge differently.
    [vec![0usize], vec![3]]
        .into_iter()
        .take(VIEWS_PER_SOURCE)
        .enumerate()
        .map(|(v, proj)| {
            ViewDef::new(
                format!("V{s}_{v}"),
                vec![Schema::new(&r1, &["W", "X"]), Schema::new(&r2, &["X", "Y"])],
                Predicate::col_eq(1, 2),
                proj,
            )
            .unwrap()
        })
        .collect()
}

/// Insert/delete script of `updates` updates for source `s`; every
/// update is effective by construction (inserts are fresh tuples,
/// deletes hit distinct preloaded rows), so notification counts are
/// known up front.
fn build_script(s: usize, updates: usize) -> Vec<Update> {
    let (r1, r2) = relation_names(s);
    (0..updates as i64)
        .map(|i| match i % 5 {
            4 => {
                let j = i / 5; // distinct per delete, all preloaded
                Update::delete(&r1, Tuple::ints([j, j % JOIN_DOMAIN]))
            }
            n if n % 2 == 0 => Update::insert(&r1, Tuple::ints([1000 + i, i % JOIN_DOMAIN])),
            _ => Update::insert(&r2, Tuple::ints([i % JOIN_DOMAIN, 2000 + i])),
        })
        .collect()
}

/// One scripted source thread: randomly interleaves executing the next
/// update with answering the oldest pending query (per-channel FIFO),
/// recording the source-side view states `V[ss_i]` after every
/// effective update. Runs until the warehouse hangs up.
fn drive_source(
    mut source: Source,
    views: Vec<ViewDef>,
    script: Vec<Update>,
    mut transport: SharedFifo,
    seed: u64,
) -> (Source, Vec<Vec<SignedBag>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut states: Vec<Vec<SignedBag>> = views
        .iter()
        .map(|v| vec![v.eval(&source.snapshot()).unwrap()])
        .collect();
    let mut script: VecDeque<Update> = script.into();
    let mut pending: VecDeque<(QueryId, WireQuery)> = VecDeque::new();

    let answer_oldest =
        |source: &mut Source, pending: &mut VecDeque<(QueryId, WireQuery)>, t: &mut SharedFifo| {
            let (id, query) = pending.pop_front().unwrap();
            let answer = source.answer(&query).unwrap();
            t.meter().record_answer_payload(
                answer.encoded_len() as u64,
                answer.pos_len() + answer.neg_len(),
            );
            t.send(&Message::QueryAnswer { id, answer }).unwrap();
        };

    loop {
        while let Some(msg) = transport.try_recv().unwrap() {
            let Message::QueryRequest { id, query } = msg else {
                panic!("unexpected message at source");
            };
            pending.push_back((id, query));
        }
        let can_update = !script.is_empty();
        let can_answer = !pending.is_empty();
        match (can_update, can_answer) {
            (true, true) => {
                if rng.gen_bool(0.5) {
                    let u = script.pop_front().unwrap();
                    assert!(source.execute_update(&u));
                    for (v, view) in views.iter().enumerate() {
                        states[v].push(view.eval(&source.snapshot()).unwrap());
                    }
                    transport
                        .send(&Message::UpdateNotification { update: u })
                        .unwrap();
                } else {
                    answer_oldest(&mut source, &mut pending, &mut transport);
                }
            }
            (true, false) => {
                let u = script.pop_front().unwrap();
                assert!(source.execute_update(&u));
                for (v, view) in views.iter().enumerate() {
                    states[v].push(view.eval(&source.snapshot()).unwrap());
                }
                transport
                    .send(&Message::UpdateNotification { update: u })
                    .unwrap();
            }
            (false, true) => answer_oldest(&mut source, &mut pending, &mut transport),
            (false, false) => {
                // Script done, nothing pending: block until the
                // warehouse asks for more or hangs up.
                match transport.recv().unwrap() {
                    Some(Message::QueryRequest { id, query }) => pending.push_back((id, query)),
                    Some(_) => panic!("unexpected message at source"),
                    None => break,
                }
            }
        }
    }
    (source, states)
}

#[test]
fn reactor_runtime_stress_converges_strongly_consistent() {
    let mut wh = Warehouse::new();
    let mut all_views = Vec::new();
    let mut all_ids = Vec::new();
    for s in 0..SOURCES {
        let src = wh.add_source(format!("s{s}"));
        let probe = build_source(s);
        let views = build_views(s);
        let mut ids = Vec::new();
        for view in &views {
            let initial = view.eval(&probe.snapshot()).unwrap();
            ids.push(
                wh.add_view(src, AlgorithmKind::Eca.instantiate(view, initial).unwrap())
                    .unwrap(),
            );
        }
        all_views.push(views);
        all_ids.push(ids);
    }
    let rw = wh.into_reactor(WORKERS);

    let finished: Vec<(Source, Vec<Vec<SignedBag>>)> = std::thread::scope(|scope| {
        let mut endpoints = Vec::new();
        let mut handles = Vec::new();
        for (s, views) in all_views.iter().enumerate() {
            let (src_end, wh_end) = SharedFifo::pair(TransferMeter::new());
            endpoints.push((
                SourceId(s),
                Box::new(wh_end) as Box<dyn Transport + Send>,
                UPDATES_PER_SOURCE as u64,
            ));
            let views = views.clone();
            handles.push(scope.spawn(move || {
                drive_source(
                    build_source(s),
                    views,
                    build_script(s, UPDATES_PER_SOURCE),
                    src_end,
                    0x5EAC + s as u64,
                )
            }));
        }
        rw.run(endpoints).unwrap();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert!(rw.is_quiescent());
    for (s, (source, source_states)) in finished.iter().enumerate() {
        let snapshot = source.snapshot();
        for (v, id) in all_ids[s].iter().enumerate() {
            let expected = all_views[s][v].eval(&snapshot).unwrap();
            assert_eq!(
                rw.materialized(*id),
                expected,
                "view V{s}_{v} did not converge"
            );
            let warehouse_states = rw.view_states(*id);
            let c = eca_consistency::check(&source_states[v], &warehouse_states);
            assert!(
                c.level() >= eca_consistency::Level::StronglyConsistent,
                "view V{s}_{v} is only {:?}",
                c.level()
            );
        }
    }
}

#[test]
fn multi_sim_stress_under_random_policy_is_strongly_consistent() {
    const SIM_SOURCES: usize = 4;
    const SIM_UPDATES_PER_SOURCE: usize = 50; // × 4 sources = 200 updates
    let mut sim = ChaosSimulation::new();
    let mut sites = Vec::new();
    for s in 0..SIM_SOURCES {
        let script = build_script(s, SIM_UPDATES_PER_SOURCE);
        sites.push(sim.add_source(format!("s{s}"), build_source(s), script));
    }
    for (s, site) in sites.iter().enumerate() {
        let probe = build_source(s);
        for view in build_views(s) {
            let initial = view.eval(&probe.snapshot()).unwrap();
            sim.add_view(
                *site,
                AlgorithmKind::Eca.instantiate(&view, initial).unwrap(),
            )
            .unwrap();
        }
    }
    let report = sim.run(Policy::Random { seed: 0xECA }).unwrap();
    assert!(report.quiescent);
    assert!(report.converged());
    for v in &report.views {
        let c = eca_consistency::check(&v.source_view_states, &v.warehouse_view_states);
        assert!(
            c.level() >= eca_consistency::Level::StronglyConsistent,
            "{} is only {:?}",
            v.view_name,
            c.level()
        );
    }
}
