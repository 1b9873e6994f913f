//! Property tests for the physical layer: heap/index access paths must
//! agree with brute-force filtering, and I/O charges must respect their
//! structural bounds.

use eca_relational::{Schema, Tuple, Value};
use eca_storage::{HeapFile, IoMeter, Table};
use proptest::prelude::*;

fn tuples() -> impl Strategy<Value = Vec<Tuple>> {
    prop::collection::vec((0i64..10, 0i64..10), 0..60)
        .prop_map(|v| v.into_iter().map(|(a, b)| Tuple::ints([a, b])).collect())
}

/// One step of an access-path history.
#[derive(Clone, Debug)]
enum Op {
    Insert(Tuple),
    Delete(Tuple),
    Load(Vec<Tuple>),
}

/// Cluster key on attribute 0, secondary-index value on attribute 1;
/// small domains so keys, values and whole tuples repeat.
fn value(v: i64, strs: bool) -> Value {
    if strs {
        Value::str(format!("v{v}"))
    } else {
        Value::Int(v)
    }
}

fn tuple((k, v): (i64, i64), strs: bool) -> Tuple {
    Tuple::new([value(k, strs), value(v, strs)])
}

/// Histories of inserts, deletes (present and absent tuples) and bulk
/// loads, over `Int` or `Str` values.
fn history() -> impl Strategy<Value = (bool, Vec<Op>)> {
    let pair = || (0i64..5, 0i64..4);
    (
        any::<bool>(),
        prop::collection::vec((0u8..5, pair(), prop::collection::vec(pair(), 0..8)), 0..40),
    )
        .prop_map(|(strs, raw)| {
            let ops = raw
                .into_iter()
                .map(|(kind, one, many)| match kind {
                    0 | 1 => Op::Insert(tuple(one, strs)),
                    2 | 3 => Op::Delete(tuple(one, strs)),
                    _ => Op::Load(many.into_iter().map(|p| tuple(p, strs)).collect()),
                })
                .collect();
            (strs, ops)
        })
}

/// The brute-force model: live tuples in arrival order. One-at-a-time
/// clustered inserts put each tuple after its equal keys, and a delete
/// removes the first equal tuple in heap order — the earliest arrival —
/// so heap order is the arrival order stably sorted by key.
#[derive(Default)]
struct Model {
    arrivals: Vec<Tuple>,
}

impl Model {
    /// Apply `op`; returns whether it changed anything.
    fn apply(&mut self, op: &Op) -> bool {
        match op {
            Op::Insert(t) => self.arrivals.push(t.clone()),
            Op::Delete(t) => match self.arrivals.iter().position(|a| a == t) {
                Some(i) => {
                    self.arrivals.remove(i);
                }
                None => return false,
            },
            Op::Load(ts) => {
                self.arrivals.extend(ts.iter().cloned());
                return !ts.is_empty();
            }
        }
        true
    }

    fn heap_order(&self) -> Vec<Tuple> {
        let mut order = self.arrivals.clone();
        order.sort_by(|a, b| a.get(0).cmp(&b.get(0)));
        order
    }
}

fn apply_heap(heap: &mut HeapFile, op: &Op) {
    match op {
        Op::Insert(t) => heap.insert(t.clone()).unwrap(),
        Op::Delete(t) => {
            heap.delete(t);
        }
        Op::Load(ts) => {
            heap.load(ts.iter().cloned()).unwrap();
        }
    }
}

fn apply_table(table: &mut Table, op: &Op) {
    match op {
        Op::Insert(t) => table.insert(t.clone()).unwrap(),
        Op::Delete(t) => {
            table.delete(t);
        }
        Op::Load(ts) => table.load(ts.iter().cloned()).unwrap(),
    }
}

fn indexed_table(meter: &IoMeter) -> Table {
    Table::new(
        Schema::new("r", &["A", "B"]),
        3,
        Some("A"),
        &["B"],
        meter.clone(),
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Heap order and secondary-index answers after every step of a
    /// random history equal the brute-force model's.
    #[test]
    fn access_paths_match_brute_force_model(case in history()) {
        let (strs, ops) = case;
        let mut model = Model::default();
        let mut heap = HeapFile::new(3, Some(0)).unwrap();
        heap.add_index(1).unwrap();
        for op in &ops {
            model.apply(op);
            apply_heap(&mut heap, op);
            let order = model.heap_order();
            prop_assert_eq!(heap.tuples(), &order[..], "after {:?}", op);
            for v in 0..4 {
                let probe = value(v, strs);
                let linear: Vec<usize> = (0..order.len())
                    .filter(|&i| order[i].get(1) == Some(&probe))
                    .collect();
                prop_assert_eq!(heap.positions_with(1, &probe), linear);
            }
        }
    }

    /// Lookups on both index kinds return the brute-force matches in heap
    /// order and charge exactly the blocks those matches occupy, which is
    /// also what `index_lookup_cost` predicts.
    #[test]
    fn lookups_charge_the_brute_force_blocks(case in history()) {
        let (strs, ops) = case;
        let mut model = Model::default();
        let plain_meter = IoMeter::new();
        let mut plain = indexed_table(&plain_meter);
        for op in &ops {
            model.apply(op);
            apply_table(&mut plain, op);
            let order = model.heap_order();
            for attr in 0..2 {
                for v in 0..5 {
                    let probe = value(v, strs);
                    let hits: Vec<usize> = (0..order.len())
                        .filter(|&i| order[i].get(attr) == Some(&probe))
                        .collect();
                    let mut blocks: Vec<u64> = hits.iter().map(|&i| (i / 3) as u64).collect();
                    if attr == 0 {
                        // Clustered: each spanned block once.
                        blocks.dedup();
                    }
                    let want: Vec<Tuple> = hits.iter().map(|&i| order[i].clone()).collect();

                    plain_meter.reset();
                    let predicted = plain.index_lookup_cost(attr, &probe).unwrap();
                    prop_assert_eq!(plain_meter.query_reads(), 0);
                    prop_assert_eq!(plain.index_lookup(attr, &probe).unwrap(), want);
                    prop_assert_eq!(plain_meter.query_reads(), predicted);
                    prop_assert_eq!(predicted, blocks.len() as u64);
                }
            }
        }
    }
}

proptest! {
    #[test]
    fn clustered_range_equals_brute_force(data in tuples(), probe in 0i64..10) {
        let mut heap = HeapFile::new(4, Some(0)).unwrap();
        for t in &data {
            heap.insert(t.clone()).unwrap();
        }
        let range = heap.clustered_range(&Value::Int(probe)).unwrap();
        let via_range: Vec<&Tuple> = heap.tuples()[range.clone()].iter().collect();
        let brute: Vec<&Tuple> = heap
            .tuples()
            .iter()
            .filter(|t| t.get(0) == Some(&Value::Int(probe)))
            .collect();
        prop_assert_eq!(via_range.len(), brute.len());
        for t in &via_range {
            prop_assert_eq!(t.get(0), Some(&Value::Int(probe)));
        }
        // Contiguity: blocks spanned never exceeds ⌈matches/K⌉ + 1.
        let spanned = heap.blocks_spanned(&range);
        prop_assert!(spanned <= (via_range.len() as u64).div_ceil(4) + 1);
    }

    #[test]
    fn unclustered_positions_equal_brute_force(data in tuples(), probe in 0i64..10) {
        let mut heap = HeapFile::new(4, None).unwrap();
        for t in &data {
            heap.insert(t.clone()).unwrap();
        }
        let positions = heap.positions_with(1, &Value::Int(probe));
        let expected = data
            .iter()
            .filter(|t| t.get(1) == Some(&Value::Int(probe)))
            .count();
        prop_assert_eq!(positions.len(), expected);
    }

    #[test]
    fn inserts_and_deletes_preserve_cluster_order(
        data in tuples(),
        deletions in prop::collection::vec(0i64..10, 0..10),
    ) {
        let mut heap = HeapFile::new(4, Some(0)).unwrap();
        for t in &data {
            heap.insert(t.clone()).unwrap();
        }
        for d in &deletions {
            heap.delete(&Tuple::ints([*d, *d]));
        }
        let keys: Vec<&Value> = heap.tuples().iter().map(|t| t.get(0).unwrap()).collect();
        prop_assert!(keys.windows(2).all(|w| w[0] <= w[1]), "heap out of order");
    }

    #[test]
    fn table_lookup_costs_match_charges(data in tuples(), probe in 0i64..10) {
        let meter = IoMeter::new();
        let mut table = Table::new(
            Schema::new("r", &["A", "B"]),
            4,
            Some("A"),
            &["B"],
            meter.clone(),
        ).unwrap();
        for t in &data {
            table.insert(t.clone()).unwrap();
        }
        meter.reset();

        // Predicted cost must equal the charge actually incurred.
        let predicted = table.index_lookup_cost(0, &Value::Int(probe)).unwrap();
        table.index_lookup(0, &Value::Int(probe)).unwrap();
        prop_assert_eq!(meter.query_reads(), predicted);

        meter.reset();
        let predicted = table.index_lookup_cost(1, &Value::Int(probe)).unwrap();
        let hits = table.index_lookup(1, &Value::Int(probe)).unwrap();
        prop_assert_eq!(meter.query_reads(), predicted);
        // Unclustered: one read per match, exactly.
        prop_assert_eq!(predicted, hits.len() as u64);
    }

    #[test]
    fn scan_cost_is_block_count(data in tuples()) {
        let meter = IoMeter::new();
        let mut table =
            Table::new(Schema::new("r", &["A", "B"]), 4, None, &[], meter.clone()).unwrap();
        for t in &data {
            table.insert(t.clone()).unwrap();
        }
        meter.reset();
        let all = table.scan();
        prop_assert_eq!(all.len(), data.len());
        prop_assert_eq!(meter.query_reads(), (data.len() as u64).div_ceil(4));
    }
}
