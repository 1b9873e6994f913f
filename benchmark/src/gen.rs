//! Seeded inputs: base data and the update stream.
//!
//! Everything a workload feeds the system comes from the benchmark's own
//! splitmix64, seeded by `--seed`, and never from `eca-workload`,
//! `eca-bench` or `vendored/rand` — a later change to those crates cannot
//! move the load. The stream is generated lazily because runs are bounded
//! by time, not by a count: the same seed always yields the same prefix.

use eca_relational::{Tuple, Update};

/// The splitmix64 generator (Steele, Lea & Flood 2014).
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-40 for
    /// every `n` used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// How a column of a generated row gets its value.
#[derive(Clone, Copy, Debug)]
pub enum Col {
    /// A value unique to the row (row number, or a fresh id for rows
    /// inserted during the run).
    Id,
    /// A join attribute over `0..domain`: balanced in the preload, drawn
    /// uniformly for rows inserted during the run.
    Domain(u64),
}

/// One base relation: its name and how each column is drawn.
#[derive(Clone, Debug)]
pub struct RelSpec {
    pub name: String,
    pub cols: [Col; 2],
}

/// Ids of rows inserted during the run start here, above every preload id.
const FRESH_ID_BASE: u64 = 1_000_000;

fn draw_row(rng: &mut SplitMix64, spec: &RelSpec, id: u64) -> Tuple {
    Tuple::ints(spec.cols.iter().map(|c| match *c {
        Col::Id => id as i64,
        Col::Domain(d) => rng.below(d) as i64,
    }))
}

/// The `rows` preload tuples of `spec`. A join column holds every value
/// of its domain equally often (`rows / domain` times, in an order the
/// seed shuffles), so join fan-out — and with it answer sizes, view sizes
/// and the latency tail — is a property of the workload, not of the luck
/// of one seed's draw; the seed decides which rows meet.
pub fn preload(rng: &mut SplitMix64, spec: &RelSpec, rows: u64) -> Vec<Tuple> {
    let cols: Vec<Vec<i64>> = spec
        .cols
        .iter()
        .map(|c| match *c {
            Col::Id => (0..rows as i64).collect(),
            Col::Domain(d) => {
                let mut v: Vec<i64> = (0..rows).map(|i| (i % d) as i64).collect();
                // Fisher–Yates.
                for i in (1..v.len()).rev() {
                    v.swap(i, rng.below(i as u64 + 1) as usize);
                }
                v
            }
        })
        .collect();
    (0..rows as usize)
        .map(|i| Tuple::ints(cols.iter().map(|c| c[i])))
        .collect()
}

/// The update stream of one source: half inserts, half deletes of rows
/// inserted earlier in the run (so relation sizes stay level and no delete
/// ever misses), relation chosen uniformly.
pub struct UpdateStream {
    rng: SplitMix64,
    rels: Vec<RelSpec>,
    /// Rows inserted by this stream and not yet deleted, per relation.
    live: Vec<Vec<Tuple>>,
    next_id: u64,
}

impl UpdateStream {
    pub fn new(seed: u64, rels: Vec<RelSpec>) -> Self {
        let live = rels.iter().map(|_| Vec::new()).collect();
        UpdateStream {
            rng: SplitMix64::new(seed),
            rels,
            live,
            next_id: FRESH_ID_BASE,
        }
    }

    pub fn next_update(&mut self) -> Update {
        let r = self.rng.below(self.rels.len() as u64) as usize;
        let delete = self.rng.below(2) == 1 && !self.live[r].is_empty();
        if delete {
            let i = self.rng.below(self.live[r].len() as u64) as usize;
            let tuple = self.live[r].swap_remove(i);
            Update::delete(self.rels[r].name.clone(), tuple)
        } else {
            let tuple = draw_row(&mut self.rng, &self.rels[r], self.next_id);
            self.next_id += 1;
            self.live[r].push(tuple.clone());
            Update::insert(self.rels[r].name.clone(), tuple)
        }
    }

    pub fn next_burst(&mut self, n: usize) -> Vec<Update> {
        (0..n).map(|_| self.next_update()).collect()
    }
}

/// FNV-1a over the debug form of the first `n` updates of a stream — the
/// fingerprint the determinism test and the run report use.
pub fn script_hash(stream: &mut UpdateStream, n: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..n {
        for b in format!("{:?}", stream.next_update()).bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rels() -> Vec<RelSpec> {
        vec![
            RelSpec {
                name: "r1".into(),
                cols: [Col::Id, Col::Domain(50)],
            },
            RelSpec {
                name: "r2".into(),
                cols: [Col::Domain(50), Col::Domain(20)],
            },
        ]
    }

    #[test]
    fn same_seed_same_script_different_seed_different_script() {
        let a = script_hash(&mut UpdateStream::new(7, rels()), 500);
        let b = script_hash(&mut UpdateStream::new(7, rels()), 500);
        let c = script_hash(&mut UpdateStream::new(8, rels()), 500);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn deletes_only_target_live_rows_and_sizes_stay_level() {
        let mut s = UpdateStream::new(3, rels());
        let mut live: Vec<Update> = Vec::new();
        let (mut ins, mut del) = (0i64, 0i64);
        for _ in 0..4000 {
            let u = s.next_update();
            match u.kind {
                eca_relational::UpdateKind::Insert => {
                    ins += 1;
                    live.push(u);
                }
                eca_relational::UpdateKind::Delete => {
                    del += 1;
                    let at = live
                        .iter()
                        .position(|l| l.relation == u.relation && l.tuple == u.tuple)
                        .expect("delete of a row that was never inserted");
                    live.swap_remove(at);
                }
            }
        }
        assert!((ins - del) < 400, "inserts {ins} deletes {del}");
    }

    #[test]
    fn preload_is_balanced_and_seeded() {
        let spec = &rels()[1];
        let rows = preload(&mut SplitMix64::new(5), spec, 1000);
        let mut per_x = [0; 50];
        for t in &rows {
            let eca_relational::Value::Int(x) = t.values()[0] else {
                panic!("ints only");
            };
            per_x[x as usize] += 1;
        }
        assert!(per_x.iter().all(|&n| n == 20));
        assert_eq!(rows, preload(&mut SplitMix64::new(5), spec, 1000));
        assert_ne!(rows, preload(&mut SplitMix64::new(6), spec, 1000));
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = SplitMix64::new(1);
        assert!((0..1000).all(|_| r.below(7) < 7));
    }
}
