//! Measurement harness for the paper's §6 evaluation.
//!
//! Each experiment point runs the full stack — calibrated Example-6 data
//! loaded into the metered storage engine, a warehouse algorithm wired
//! through encoded message channels, a chosen interleaving policy — and
//! reports the three §6 cost factors next to the Appendix-D analytic
//! values:
//!
//! * `M` — maintenance messages (queries + answers),
//! * `B` — bytes transferred source → warehouse, reported both as the
//!   paper counts it (`S ×` answer tuples) and as real wire bytes,
//! * `IO` — source block reads.
//!
//! The series builders ([`fig62_series`], [`fig63_series`],
//! [`fig64_series`], [`fig65_series`], [`messages_series`],
//! [`crossover_report`]) regenerate each figure/table of the paper; the
//! `figures` binary prints them and can dump JSON artifacts. [`equiv`]
//! runs one deployment through both warehouse drivers over real
//! transports, and [`chaos`] sweeps the simulator's fault families.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod chaos;
pub mod equiv;
pub mod json;
pub mod scenario_file;
pub mod selfmaint;

use eca_core::algorithms::AlgorithmKind;
use eca_sim::{Policy, RunReport, Simulation};
use eca_storage::Scenario;
use eca_workload::{Example6, Params, UpdateMix};
use json::{Json, ToJson};

/// A harness run that failed: what it was doing and the error it met.
/// Every experiment is deterministic, so one of these is a bug to
/// report, not a condition to retry.
#[derive(Debug)]
pub struct BenchError {
    what: &'static str,
    cause: String,
}

impl BenchError {
    /// `what` failed because of `cause`.
    pub(crate) fn new(what: &'static str, cause: impl std::fmt::Display) -> Self {
        BenchError {
            what,
            cause: cause.to_string(),
        }
    }
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.what, self.cause)
    }
}

impl std::error::Error for BenchError {}

/// Name the step a fallible call belongs to, for `?`.
pub trait Context<T> {
    /// The value, or a [`BenchError`] saying `what` failed and why.
    ///
    /// # Errors
    /// When `self` holds an error or nothing.
    fn context(self, what: &'static str) -> Result<T, BenchError>;
}

impl<T, E: std::fmt::Display> Context<T> for Result<T, E> {
    fn context(self, what: &'static str) -> Result<T, BenchError> {
        self.map_err(|e| BenchError::new(what, e))
    }
}

impl<T> Context<T> for Option<T> {
    fn context(self, what: &'static str) -> Result<T, BenchError> {
        self.ok_or_else(|| BenchError::new(what, "nothing there"))
    }
}

/// Which corner of the paper's best/worst envelope a run exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Corner {
    /// RV recomputing once after all `k` updates (`s = k`).
    RvBest,
    /// RV recomputing after every update (`s = 1`).
    RvWorst,
    /// ECA with fully spaced updates (no compensation).
    EcaBest,
    /// ECA with all updates preceding all query evaluations.
    EcaWorst,
}

impl Corner {
    /// All four corners, RV first.
    pub fn all() -> [Corner; 4] {
        [
            Corner::RvBest,
            Corner::RvWorst,
            Corner::EcaBest,
            Corner::EcaWorst,
        ]
    }

    /// Label matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            Corner::RvBest => "RVBest",
            Corner::RvWorst => "RVWorst",
            Corner::EcaBest => "ECABest",
            Corner::EcaWorst => "ECAWorst",
        }
    }

    fn algorithm(self, k: u64) -> AlgorithmKind {
        match self {
            Corner::RvBest => AlgorithmKind::RecomputeView { period: k.max(1) },
            Corner::RvWorst => AlgorithmKind::RecomputeView { period: 1 },
            Corner::EcaBest | Corner::EcaWorst => AlgorithmKind::EcaOptimized,
        }
    }

    fn policy(self) -> Policy {
        match self {
            Corner::RvBest | Corner::EcaWorst => Policy::AllUpdatesFirst,
            Corner::RvWorst | Corner::EcaBest => Policy::Serial,
        }
    }
}

/// One measured experiment point.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Algorithm label.
    pub algorithm: String,
    /// Corner label (RVBest/RVWorst/ECABest/ECAWorst) or policy name.
    pub corner: String,
    /// Cost scenario.
    pub scenario: String,
    /// Number of updates.
    pub k: u64,
    /// Relation cardinality `C`.
    pub cardinality: u64,
    /// Maintenance messages (queries + answers; notifications excluded).
    pub maintenance_messages: u64,
    /// Answer tuple occurrences transferred.
    pub answer_tuples: u64,
    /// `S × answer_tuples` — the paper's `B` accounting.
    pub paper_bytes: f64,
    /// Real encoded answer payload bytes.
    pub wire_answer_bytes: u64,
    /// Source block reads.
    pub io_reads: u64,
    /// Whether the final view was correct.
    pub converged: bool,
    /// Consistency level of the recorded history.
    pub consistency: String,
}

/// Run one experiment point.
///
/// For `k = 3` the paper's fixed three-insert script is used. For larger
/// `k` the stream is a balanced insert/delete churn: the paper's analysis
/// assumes `C`, `J` and the view size "do not change as updates occur"
/// (§6.2 assumption 5), which an insert-only stream would violate badly at
/// `k` comparable to `C`.
///
/// # Errors
/// [`BenchError`] on internal simulation errors (experiments are
/// deterministic; a failure is a bug, not an operational condition).
pub fn measure(
    params: Params,
    seed: u64,
    k: u64,
    corner: Corner,
    scenario: Scenario,
) -> Result<Measurement, BenchError> {
    let workload = Example6::new(params, seed);
    let updates = if k == 3 {
        workload.paper_updates()
    } else if corner == Corner::EcaWorst {
        // The worst-case envelope additionally assumes every pair of
        // updates on distinct relations mutually joins (each compensating
        // term transfers S·σ·J bytes) — a hot-group churn realizes that.
        workload.updates(k as usize, UpdateMix::CorrelatedChurn)
    } else {
        workload.updates(k as usize, UpdateMix::Mixed)
    };
    let report = run_sim(
        &workload,
        scenario,
        corner.algorithm(k),
        corner.policy(),
        updates,
    )?;
    Ok(into_measurement(
        params,
        k,
        corner.label(),
        scenario,
        &report,
    ))
}

/// Run one experiment with explicit algorithm/policy (used by the
/// ablations and the consistency audit example).
///
/// # Errors
/// As [`measure`].
pub fn measure_custom(
    params: Params,
    seed: u64,
    k: u64,
    kind: AlgorithmKind,
    policy: Policy,
    mix: UpdateMix,
    scenario: Scenario,
) -> Result<Measurement, BenchError> {
    let workload = Example6::new(params, seed);
    let updates = workload.updates(k as usize, mix);
    let report = run_sim(&workload, scenario, kind, policy, updates)?;
    Ok(into_measurement(params, k, kind.label(), scenario, &report))
}

fn run_sim(
    workload: &Example6,
    scenario: Scenario,
    kind: AlgorithmKind,
    policy: Policy,
    updates: Vec<eca_relational::Update>,
) -> Result<RunReport, BenchError> {
    let source = workload.build_source(scenario).context("workload builds")?;
    let view = Example6::view().context("static view")?;
    let snapshot = source.snapshot();
    let initial = view.eval(&snapshot).context("initial view")?;
    let warehouse = kind
        .instantiate_with_base(&view, initial, Some(snapshot))
        .context("algorithm instantiation")?;
    Simulation::new(source, warehouse, updates)
        .context("simulation wiring")?
        .run(policy)
        .context("simulation run")
}

fn into_measurement(
    params: Params,
    k: u64,
    corner: &str,
    scenario: Scenario,
    report: &RunReport,
) -> Measurement {
    let consistency =
        eca_consistency::check(&report.source_view_states, &report.warehouse_view_states);
    Measurement {
        algorithm: report.algorithm.to_owned(),
        corner: corner.to_owned(),
        scenario: scenario_label(scenario).to_owned(),
        k,
        cardinality: params.cardinality,
        maintenance_messages: report.maintenance_messages(),
        answer_tuples: report.answer_tuples,
        paper_bytes: params.projected_bytes as f64 * report.answer_tuples as f64,
        wire_answer_bytes: report.answer_bytes,
        io_reads: report.io_reads,
        converged: report.converged(),
        consistency: format!("{:?}", consistency.level()),
    }
}

fn scenario_label(s: Scenario) -> &'static str {
    match s {
        Scenario::Indexed => "scenario1",
        Scenario::NestedLoop { .. } => "scenario2",
    }
}

/// One row of a figure: an x value plus `(label, analytic, measured)`
/// series values.
#[derive(Clone, Debug)]
pub struct FigureRow {
    /// The x-axis value (`C` for Fig 6.2, `k` elsewhere).
    pub x: u64,
    /// Per-corner `(analytic, measured)` pairs keyed by corner label.
    pub series: Vec<SeriesPoint>,
}

/// One curve's value at one x.
#[derive(Clone, Debug)]
pub struct SeriesPoint {
    /// Curve label.
    pub label: &'static str,
    /// The Appendix-D closed form.
    pub analytic: f64,
    /// The measured value from the full-stack run.
    pub measured: f64,
}

impl ToJson for SeriesPoint {
    fn to_json(&self) -> Json {
        Json::obj([
            ("label", Json::str(self.label)),
            ("analytic", Json::Num(self.analytic)),
            ("measured", Json::Num(self.measured)),
        ])
    }
}

impl ToJson for FigureRow {
    fn to_json(&self) -> Json {
        Json::obj([("x", Json::from(self.x)), ("series", self.series.to_json())])
    }
}

impl ToJson for Measurement {
    fn to_json(&self) -> Json {
        Json::obj([
            ("algorithm", Json::str(self.algorithm.clone())),
            ("corner", Json::str(self.corner.clone())),
            ("scenario", Json::str(self.scenario.clone())),
            ("k", Json::from(self.k)),
            ("cardinality", Json::from(self.cardinality)),
            (
                "maintenance_messages",
                Json::from(self.maintenance_messages),
            ),
            ("answer_tuples", Json::from(self.answer_tuples)),
            ("paper_bytes", Json::Num(self.paper_bytes)),
            ("wire_answer_bytes", Json::from(self.wire_answer_bytes)),
            ("io_reads", Json::from(self.io_reads)),
            ("converged", Json::Bool(self.converged)),
            ("consistency", Json::str(self.consistency.clone())),
        ])
    }
}

impl ToJson for CrossoverLine {
    fn to_json(&self) -> Json {
        let opt = |k: Option<u64>| k.map_or(Json::Null, Json::from);
        Json::obj([
            ("comparison", Json::str(self.comparison)),
            ("paper", Json::str(self.paper)),
            ("analytic_k", opt(self.analytic_k)),
            ("measured_k", opt(self.measured_k)),
        ])
    }
}

/// Figure 6.2: bytes transferred vs cardinality `C` (k = 3 updates).
///
/// # Errors
/// As [`measure`].
pub fn fig62_series(cs: &[u64], seed: u64) -> Result<Vec<FigureRow>, BenchError> {
    cs.iter()
        .map(|&c| {
            let p = Params {
                cardinality: c,
                ..Params::default()
            };
            let series = Corner::all()
                .into_iter()
                .map(|corner| {
                    let analytic = analytic_bytes(&p, 3, corner);
                    let m = measure(p, seed, 3, corner, Scenario::Indexed)?;
                    Ok(SeriesPoint {
                        label: corner.label(),
                        analytic,
                        measured: m.paper_bytes,
                    })
                })
                .collect::<Result<_, BenchError>>()?;
            Ok(FigureRow { x: c, series })
        })
        .collect()
}

/// Figure 6.3: bytes transferred vs number of updates `k` (C = 100).
///
/// # Errors
/// As [`measure`].
pub fn fig63_series(ks: &[u64], seed: u64) -> Result<Vec<FigureRow>, BenchError> {
    let p = Params::default();
    ks.iter()
        .map(|&k| {
            let series = Corner::all()
                .into_iter()
                .map(|corner| {
                    let analytic = analytic_bytes(&p, k, corner);
                    let m = measure(p, seed, k, corner, Scenario::Indexed)?;
                    Ok(SeriesPoint {
                        label: corner.label(),
                        analytic,
                        measured: m.paper_bytes,
                    })
                })
                .collect::<Result<_, BenchError>>()?;
            Ok(FigureRow { x: k, series })
        })
        .collect()
}

/// Figure 6.4: I/O vs `k`, Scenario 1 (indexes + ample memory).
///
/// # Errors
/// As [`measure`].
pub fn fig64_series(ks: &[u64], seed: u64) -> Result<Vec<FigureRow>, BenchError> {
    io_series(ks, seed, Scenario::Indexed)
}

/// Figure 6.5: I/O vs `k`, Scenario 2 (no indexes, 3 memory blocks).
///
/// # Errors
/// As [`measure`].
pub fn fig65_series(ks: &[u64], seed: u64) -> Result<Vec<FigureRow>, BenchError> {
    io_series(ks, seed, Scenario::nested_loop_default())
}

fn io_series(ks: &[u64], seed: u64, scenario: Scenario) -> Result<Vec<FigureRow>, BenchError> {
    let p = Params::default();
    ks.iter()
        .map(|&k| {
            let series = Corner::all()
                .into_iter()
                .map(|corner| {
                    let analytic = analytic_io(&p, k, corner, scenario);
                    let m = measure(p, seed, k, corner, scenario)?;
                    Ok(SeriesPoint {
                        label: corner.label(),
                        analytic,
                        measured: m.io_reads as f64,
                    })
                })
                .collect::<Result<_, BenchError>>()?;
            Ok(FigureRow { x: k, series })
        })
        .collect()
}

/// §6.1 message-count series: `M` vs `k` for ECA and RV (s = 1 and s = k).
///
/// # Errors
/// As [`measure`].
pub fn messages_series(ks: &[u64], seed: u64) -> Result<Vec<FigureRow>, BenchError> {
    let p = Params::default();
    ks.iter()
        .map(|&k| {
            let eca = measure(p, seed, k, Corner::EcaBest, Scenario::Indexed)?;
            let rv1 = measure(p, seed, k, Corner::RvWorst, Scenario::Indexed)?;
            let rvk = measure(p, seed, k, Corner::RvBest, Scenario::Indexed)?;
            Ok(FigureRow {
                x: k,
                series: vec![
                    SeriesPoint {
                        label: "ECA (2k)",
                        analytic: eca_analytic::messages::m_eca(k) as f64,
                        measured: eca.maintenance_messages as f64,
                    },
                    SeriesPoint {
                        label: "RV s=1",
                        analytic: eca_analytic::messages::m_rv(k, 1) as f64,
                        measured: rv1.maintenance_messages as f64,
                    },
                    SeriesPoint {
                        label: "RV s=k",
                        analytic: eca_analytic::messages::m_rv(k, k.max(1)) as f64,
                        measured: rvk.maintenance_messages as f64,
                    },
                ],
            })
        })
        .collect()
}

fn analytic_bytes(p: &Params, k: u64, corner: Corner) -> f64 {
    use eca_analytic::bytes;
    match corner {
        Corner::RvBest => bytes::b_rv_best(p),
        Corner::RvWorst => bytes::b_rv_worst(p, k),
        Corner::EcaBest => bytes::b_eca_best(p, k),
        Corner::EcaWorst => bytes::b_eca_worst(p, k),
    }
}

fn analytic_io(p: &Params, k: u64, corner: Corner, scenario: Scenario) -> f64 {
    use eca_analytic::io::{scenario1, scenario2};
    match scenario {
        Scenario::Indexed => match corner {
            Corner::RvBest => scenario1::rv_best(p) as f64,
            Corner::RvWorst => scenario1::rv_worst(p, k) as f64,
            Corner::EcaBest => scenario1::eca_best(p, k) as f64,
            Corner::EcaWorst => scenario1::eca_worst(p, k),
        },
        Scenario::NestedLoop { .. } => match corner {
            Corner::RvBest => scenario2::rv_best(p) as f64,
            Corner::RvWorst => scenario2::rv_worst(p, k) as f64,
            Corner::EcaBest => scenario2::eca_best(p, k) as f64,
            Corner::EcaWorst => scenario2::eca_worst(p, k),
        },
    }
}

/// Batching ablation (paper §7 future work): costs of Batch-ECA as the
/// batch size grows, under the adversarial interleaving.
///
/// # Errors
/// As [`measure`].
pub fn batch_series(
    k: u64,
    batch_sizes: &[usize],
    seed: u64,
) -> Result<Vec<FigureRow>, BenchError> {
    let p = Params::default();
    batch_sizes
        .iter()
        .map(|&n| {
            let m = measure_custom(
                p,
                seed,
                k,
                AlgorithmKind::BatchEca { batch_size: n },
                Policy::AllUpdatesFirst,
                UpdateMix::Mixed,
                Scenario::Indexed,
            )?;
            assert!(m.converged, "batch size {n} must converge");
            Ok(FigureRow {
                x: n as u64,
                series: vec![
                    SeriesPoint {
                        label: "messages",
                        analytic: (2 * k.div_ceil(n as u64)) as f64,
                        measured: m.maintenance_messages as f64,
                    },
                    SeriesPoint {
                        label: "B (S*tuples)",
                        analytic: eca_analytic::bytes::b_eca_worst(&p, k),
                        measured: m.paper_bytes,
                    },
                    SeriesPoint {
                        label: "IO (S1)",
                        analytic: eca_analytic::io::scenario1::eca_worst(&p, k),
                        measured: m.io_reads as f64,
                    },
                ],
            })
        })
        .collect()
}

/// One line of the crossover report.
#[derive(Clone, Debug)]
pub struct CrossoverLine {
    /// What crosses what.
    pub comparison: &'static str,
    /// The paper's quoted crossover.
    pub paper: &'static str,
    /// Crossover of the analytic curves.
    pub analytic_k: Option<u64>,
    /// Crossover of the measured curves.
    pub measured_k: Option<u64>,
}

/// The §6.2–6.3 headline crossovers, analytic and measured.
///
/// # Errors
/// As [`measure`].
pub fn crossover_report(seed: u64) -> Result<Vec<CrossoverLine>, BenchError> {
    use eca_analytic::crossover::crossover_k;
    let p = Params::default();

    let measured_cross = |corner: Corner,
                          scenario: Scenario,
                          metric: fn(&Measurement) -> f64,
                          baseline_corner: Corner,
                          max_k: u64,
                          step: u64|
     -> Result<Option<u64>, BenchError> {
        for k in (1..=max_k).step_by(step as usize) {
            let a = metric(&measure(p, seed, k, corner, scenario)?);
            let b = metric(&measure(p, seed, k, baseline_corner, scenario)?);
            if a >= b {
                return Ok(Some(k));
            }
        }
        Ok(None)
    };

    Ok(vec![
        CrossoverLine {
            comparison: "B: ECA best vs RV recompute-once",
            paper: "k = 100",
            analytic_k: crossover_k(
                200,
                |k| eca_analytic::bytes::b_eca_best(&p, k),
                |_| eca_analytic::bytes::b_rv_best(&p),
            ),
            measured_k: measured_cross(
                Corner::EcaBest,
                Scenario::Indexed,
                |m| m.paper_bytes,
                Corner::RvBest,
                140,
                1,
            )?,
        },
        CrossoverLine {
            comparison: "B: ECA worst vs RV recompute-once",
            paper: "k = 30",
            analytic_k: crossover_k(
                200,
                |k| eca_analytic::bytes::b_eca_worst(&p, k),
                |_| eca_analytic::bytes::b_rv_best(&p),
            ),
            measured_k: measured_cross(
                Corner::EcaWorst,
                Scenario::Indexed,
                |m| m.paper_bytes,
                Corner::RvBest,
                100,
                1,
            )?,
        },
        CrossoverLine {
            comparison: "IO S1: ECA best vs RV recompute-once",
            paper: "k = 3",
            analytic_k: crossover_k(
                50,
                |k| eca_analytic::io::scenario1::eca_best(&p, k) as f64,
                |_| eca_analytic::io::scenario1::rv_best(&p) as f64,
            ),
            measured_k: measured_cross(
                Corner::EcaBest,
                Scenario::Indexed,
                |m| m.io_reads as f64,
                Corner::RvBest,
                20,
                1,
            )?,
        },
        CrossoverLine {
            comparison: "IO S2: ECA best vs RV recompute-once",
            paper: "5 < k < 8 (worst) .. 9 (best)",
            analytic_k: crossover_k(
                50,
                |k| eca_analytic::io::scenario2::eca_best(&p, k) as f64,
                |_| eca_analytic::io::scenario2::rv_best(&p) as f64,
            ),
            measured_k: measured_cross(
                Corner::EcaBest,
                Scenario::nested_loop_default(),
                |m| m.io_reads as f64,
                Corner::RvBest,
                30,
                1,
            )?,
        },
    ])
}

/// Render rows as an aligned text table.
pub fn render_rows(title: &str, x_name: &str, rows: &[FigureRow]) -> String {
    let mut out = format!("## {title}\n");
    if let Some(first) = rows.first() {
        out.push_str(&format!("{x_name:>6}"));
        for sp in &first.series {
            out.push_str(&format!(
                " | {:>12} {:>12}",
                format!("{}(an)", sp.label),
                "(meas)"
            ));
        }
        out.push('\n');
    }
    for row in rows {
        out.push_str(&format!("{:>6}", row.x));
        for sp in &row.series {
            out.push_str(&format!(" | {:>12.1} {:>12.1}", sp.analytic, sp.measured));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_rv_best_bytes_track_analytic() {
        let p = Params::default();
        let m = measure(p, 1, 3, Corner::RvBest, Scenario::Indexed).unwrap();
        let analytic = eca_analytic::bytes::b_rv_best(&p);
        let ratio = m.paper_bytes / analytic;
        assert!((0.8..1.25).contains(&ratio), "ratio {ratio}: {m:?}");
        assert!(m.converged);
    }

    #[test]
    fn measured_eca_best_bytes_track_analytic() {
        let p = Params::default();
        let m = measure(p, 1, 3, Corner::EcaBest, Scenario::Indexed).unwrap();
        let analytic = eca_analytic::bytes::b_eca_best(&p, 3);
        let ratio = m.paper_bytes / analytic;
        assert!((0.5..2.0).contains(&ratio), "ratio {ratio}: {m:?}");
        assert!(m.converged);
        assert_eq!(m.maintenance_messages, 6, "2k messages for ECA");
    }

    #[test]
    fn measured_io_scenario1_rv_is_3i() {
        let p = Params::default();
        let m = measure(p, 1, 3, Corner::RvBest, Scenario::Indexed).unwrap();
        // The paper's 3-update script inserts one tuple into each
        // relation, so each scan covers ⌈(C+1)/K⌉ blocks.
        let i_after = (p.cardinality + 1).div_ceil(p.tuples_per_block as u64);
        assert_eq!(m.io_reads, 3 * i_after);
    }

    #[test]
    fn eca_beats_rv_on_bytes_at_small_k() {
        let p = Params::default();
        let eca = measure(p, 1, 3, Corner::EcaWorst, Scenario::Indexed).unwrap();
        let rv = measure(p, 1, 3, Corner::RvBest, Scenario::Indexed).unwrap();
        assert!(eca.paper_bytes < rv.paper_bytes, "eca {eca:?} rv {rv:?}");
    }

    #[test]
    fn rv_beats_eca_on_bytes_at_large_k() {
        let p = Params::default();
        let eca = measure(p, 1, 120, Corner::EcaBest, Scenario::Indexed).unwrap();
        let rv = measure(p, 1, 120, Corner::RvBest, Scenario::Indexed).unwrap();
        assert!(
            rv.paper_bytes < eca.paper_bytes,
            "eca {} rv {}",
            eca.paper_bytes,
            rv.paper_bytes
        );
    }

    #[test]
    fn all_corners_converge_and_are_strongly_consistent() {
        let p = Params::default();
        for corner in Corner::all() {
            let m = measure(p, 2, 7, corner, Scenario::Indexed).unwrap();
            assert!(m.converged, "{corner:?}");
            assert!(
                m.consistency == "StronglyConsistent" || m.consistency == "Complete",
                "{corner:?}: {}",
                m.consistency
            );
        }
    }
}
