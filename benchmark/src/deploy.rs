//! The deployments the workloads run: source sites with preloaded base
//! relations, the view catalogue, and warehouses hosting ECA maintainers.

use eca_core::algorithms::AlgorithmKind;
use eca_core::ViewDef;
use eca_relational::{Predicate, Schema, SignedBag, Tuple, Update};
use eca_source::Source;
use eca_storage::{Scenario, StorageEngine};
use eca_warehouse::{SourceId, ViewId, Warehouse};

use crate::gen::{preload, Col, RelSpec, SplitMix64, UpdateStream};
use crate::Failure;

/// Tuples per storage block (the paper's `K`), every relation.
pub const TUPLES_PER_BLOCK: usize = 20;

/// Rows preloaded into each relation of the main site.
pub const MAIN_ROWS: u64 = 10_000;
/// Domain of the `r1.X = r2.X` join attribute: every value twice in each
/// relation, 20k join results, so V0 holds 20k tuples and V3 10k distinct
/// ones.
pub const MAIN_DX: u64 = 5_000;
/// Domain of the `r2.Y = r3.Y` join attribute: 5 `r3` rows per `r2` row,
/// so V1 holds 50k tuples and V2 100k.
pub const MAIN_DY: u64 = 2_000;

/// Rows per relation of a `tcp_stream` site and its join domain
/// (every value twice in each relation: 2k tuples per view).
pub const SMALL_ROWS: u64 = 1_000;
pub const SMALL_DX: u64 = 500;
pub const SMALL_DY: u64 = 2_000;

/// A base relation's physical layout at the source.
struct Layout {
    schema: Schema,
    clustered_on: &'static str,
    unclustered_on: &'static [&'static str],
}

/// Everything needed to build a site, drawn from the seed once: the same
/// spec builds the live `Source` and the probes' mirror `StorageEngine`.
pub struct SiteSpec {
    pub rels: Vec<RelSpec>,
    layouts: Vec<Layout>,
    data: Vec<Vec<Tuple>>,
    pub views: Vec<ViewDef>,
    stream_seed: u64,
}

/// One autonomous source with the views defined over it.
pub struct Site {
    pub source: Source,
    pub spec: SiteSpec,
}

impl SiteSpec {
    fn draw(
        seed: u64,
        rels: Vec<RelSpec>,
        layouts: Vec<Layout>,
        rows: u64,
        views: Vec<ViewDef>,
    ) -> Self {
        let mut rng = SplitMix64::new(seed);
        let data = rels.iter().map(|r| preload(&mut rng, r, rows)).collect();
        SiteSpec {
            rels,
            layouts,
            data,
            views,
            stream_seed: rng.next_u64(),
        }
    }

    /// The main site: `r1(W,X)`, `r2(X,Y)`, `r3(Y,Z)`, clustered on their
    /// join attributes (`r2` also indexed on `Y`), and the views picked by
    /// `which` out of
    ///
    /// * `V0 = π_{W,Y}(r1 ⋈ r2)`
    /// * `V1 = π_{X,Z}(r2 ⋈ r3)`
    /// * `V2 = π_{W,Z}(r1 ⋈ r2 ⋈ r3)`
    /// * `V3 = π_W(r1 ⋈ r2)`
    pub fn main(seed: u64, which: &[usize]) -> Result<SiteSpec, Failure> {
        let rels = vec![
            RelSpec {
                name: "r1".into(),
                cols: [Col::Id, Col::Domain(MAIN_DX)],
            },
            RelSpec {
                name: "r2".into(),
                cols: [Col::Domain(MAIN_DX), Col::Domain(MAIN_DY)],
            },
            RelSpec {
                name: "r3".into(),
                cols: [Col::Domain(MAIN_DY), Col::Id],
            },
        ];
        let r1 = Schema::new("r1", &["W", "X"]);
        let r2 = Schema::new("r2", &["X", "Y"]);
        let r3 = Schema::new("r3", &["Y", "Z"]);
        let join12 = Predicate::col_eq(1, 2);
        let catalogue = [
            ViewDef::new(
                "V0",
                vec![r1.clone(), r2.clone()],
                join12.clone(),
                vec![0, 3],
            )?,
            ViewDef::new(
                "V1",
                vec![r2.clone(), r3.clone()],
                join12.clone(),
                vec![0, 3],
            )?,
            ViewDef::new(
                "V2",
                vec![r1.clone(), r2.clone(), r3.clone()],
                join12.clone().and(Predicate::col_eq(3, 4)),
                vec![0, 5],
            )?,
            ViewDef::new("V3", vec![r1.clone(), r2.clone()], join12, vec![0])?,
        ];
        let layouts = vec![
            Layout {
                schema: r1,
                clustered_on: "X",
                unclustered_on: &[],
            },
            Layout {
                schema: r2,
                clustered_on: "X",
                unclustered_on: &["Y"],
            },
            Layout {
                schema: r3,
                clustered_on: "Y",
                unclustered_on: &[],
            },
        ];
        let views = which.iter().map(|&i| catalogue[i].clone()).collect();
        Ok(SiteSpec::draw(seed, rels, layouts, MAIN_ROWS, views))
    }

    /// Site `k` of `tcp_stream`: its own `s<k>_r1(W,X)`, `s<k>_r2(X,Y)`
    /// and two small views, `π_{W,Y}` and `π_W` of their join.
    pub fn small(seed: u64, k: usize) -> Result<SiteSpec, Failure> {
        let (n1, n2) = (format!("s{k}_r1"), format!("s{k}_r2"));
        let rels = vec![
            RelSpec {
                name: n1.clone(),
                cols: [Col::Id, Col::Domain(SMALL_DX)],
            },
            RelSpec {
                name: n2.clone(),
                cols: [Col::Domain(SMALL_DX), Col::Domain(SMALL_DY)],
            },
        ];
        let r1 = Schema::new(&n1, &["W", "X"]);
        let r2 = Schema::new(&n2, &["X", "Y"]);
        let join = Predicate::col_eq(1, 2);
        let views = vec![
            ViewDef::new(
                format!("S{k}a"),
                vec![r1.clone(), r2.clone()],
                join.clone(),
                vec![0, 3],
            )?,
            ViewDef::new(
                format!("S{k}b"),
                vec![r1.clone(), r2.clone()],
                join,
                vec![0],
            )?,
        ];
        let layouts = vec![
            Layout {
                schema: r1,
                clustered_on: "X",
                unclustered_on: &[],
            },
            Layout {
                schema: r2,
                clustered_on: "X",
                unclustered_on: &[],
            },
        ];
        // Each site draws from its own stream of the run's seed.
        let site_seed = SplitMix64::new(seed ^ (k as u64 + 1).wrapping_mul(0xA5A5_A5A5)).next_u64();
        Ok(SiteSpec::draw(site_seed, rels, layouts, SMALL_ROWS, views))
    }

    /// The live source: tables created and preloaded.
    pub fn source(&self) -> Result<Source, Failure> {
        let mut source = Source::new(Scenario::Indexed);
        for (l, rows) in self.layouts.iter().zip(&self.data) {
            source.add_relation(
                l.schema.clone(),
                TUPLES_PER_BLOCK,
                Some(l.clustered_on),
                l.unclustered_on,
            )?;
            source.load(l.schema.relation(), rows.iter().cloned())?;
        }
        Ok(source)
    }

    /// The same tables in a bare `StorageEngine`, for the probes.
    pub fn engine(&self) -> Result<StorageEngine, Failure> {
        let mut engine = StorageEngine::new(Scenario::Indexed);
        for (l, rows) in self.layouts.iter().zip(&self.data) {
            engine.create_table(
                l.schema.clone(),
                TUPLES_PER_BLOCK,
                Some(l.clustered_on),
                l.unclustered_on,
            )?;
            for t in rows {
                engine.apply(&Update::insert(l.schema.relation(), t.clone()));
            }
        }
        engine.meter().reset();
        Ok(engine)
    }

    pub fn catalog(&self) -> Vec<Schema> {
        self.layouts.iter().map(|l| l.schema.clone()).collect()
    }

    /// A fresh copy of this site's update stream (same seed, from the
    /// start).
    pub fn stream(&self) -> UpdateStream {
        UpdateStream::new(self.stream_seed, self.rels.clone())
    }

    /// Compensating queries one update causes under ECA: one per view
    /// whose definition mentions the updated relation.
    pub fn queries_for(&self, relation: &str) -> usize {
        self.views
            .iter()
            .filter(|v| v.relation_index(relation).is_some())
            .count()
    }

    pub fn build(self) -> Result<Site, Failure> {
        Ok(Site {
            source: self.source()?,
            spec: self,
        })
    }
}

/// What the maintainers of a new warehouse start from.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Initial {
    /// The view evaluated on the source's current state — a normal start.
    Evaluated,
    /// Empty bags — a restart whose recovery installs the real state.
    Empty,
}

/// A warehouse hosting every site's views under ECA, one source channel
/// per site, with state-history recording off (it is a checker's aid and
/// grows without bound).
pub fn warehouse_over(
    sites: &[&Site],
    initial: Initial,
) -> Result<(Warehouse, Vec<Vec<ViewId>>), Failure> {
    let mut wh = Warehouse::new();
    wh.set_record_history(false);
    let mut ids = Vec::new();
    for (s, site) in sites.iter().enumerate() {
        let src = wh.add_source(format!("site{s}"));
        debug_assert_eq!(src, SourceId(s));
        let snapshot = (initial == Initial::Evaluated).then(|| site.source.snapshot());
        let mut site_ids = Vec::new();
        for view in &site.spec.views {
            let state = match &snapshot {
                Some(db) => view.eval(db)?,
                None => SignedBag::new(),
            };
            site_ids.push(wh.add_view(src, AlgorithmKind::Eca.instantiate(view, state)?)?);
        }
        ids.push(site_ids);
    }
    Ok((wh, ids))
}
