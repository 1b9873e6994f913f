//! The one-command run over every workload, its report, and `--compare`.
//!
//! Each workload × mode runs in its own child process (this same binary
//! with `--workload`), so `peak_rss_mb` is one workload's own and nothing
//! one workload leaves behind — threads, allocator state, page cache
//! warmth of its files — reaches the next.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::catalogue::{Better, END_TO_END, PER_LAYER};
use crate::json::Json;
use crate::stats::{median, quartiles, spread};
use crate::{workloads, Failure, OUT_DIR};

/// The measured window of a full run, in seconds; `BENCHMARK.json` names
/// the same number as `run_seconds`.
pub const RUN_SECONDS: f64 = 20.0;
/// Untraced repetitions of each workload in a full suite run.
pub const REPS: usize = 5;
/// `--smoke` runs every window at a twentieth of its length, once.
pub const SMOKE_SHARE: f64 = 0.05;

pub struct Options {
    pub seed: u64,
    pub smoke: bool,
    pub out: Option<PathBuf>,
}

/// One child run: its result line and, from the line before, its full
/// record (see `main::single`).
struct Child {
    correct: bool,
    attempted: f64,
    failed: f64,
    record: Json,
}

impl Child {
    /// A metric of the record's `end_to_end` or `per_layer` list; `None`
    /// if the run did not measure it.
    fn measured(&self, list: &str, name: &str) -> Option<f64> {
        self.record.get(list)?.get(name)?.as_f64()
    }
}

fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Child, Failure> {
    let exe = std::env::current_exe()?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let mut parsed = || {
        Json::parse(lines.next().unwrap_or("")).map_err(|e| {
            Failure::new(format!(
                "{workload} (trace {}) printed no result ({e}); exit {:?}",
                u8::from(trace),
                output.status.code()
            ))
        })
    };
    let (result, record) = (parsed()?, parsed()?);
    let field = |k: &str| result.get(k).and_then(Json::as_f64);
    Ok(Child {
        correct: result.get("correct") == Some(&Json::Bool(true)) && output.status.success(),
        attempted: field("attempted").unwrap_or(0.0),
        failed: field("failed").unwrap_or(0.0),
        record,
    })
}

fn tool_version(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn summary(values: &[f64]) -> Json {
    let (q1, q3) = quartiles(values);
    Json::obj([
        ("median", Json::Num(median(values))),
        ("q1", Json::Num(q1)),
        ("q3", Json::Num(q3)),
        ("n", Json::Num(values.len() as f64)),
        ("values", Json::arr(values.iter().map(|v| Json::Num(*v)))),
    ])
}

/// Run every workload and print every metric by name with its unit.
/// Returns whether every output was correct.
pub fn run(opts: &Options) -> Result<bool, Failure> {
    let (seconds, reps) = if opts.smoke {
        (RUN_SECONDS * SMOKE_SHARE, 1)
    } else {
        (RUN_SECONDS, REPS)
    };
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let env = Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        (
            "git_rev",
            Json::str(tool_version("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(tool_version("rustc", &["--version"]))),
        ("seed", Json::Num(opts.seed as f64)),
        ("repetitions", Json::Num(reps as f64)),
        ("seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(opts.smoke)),
    ]);
    println!("# environment {env}");

    let mut ok = true;
    let mut report = Vec::new();
    for workload in workloads::NAMES {
        let mut runs = Vec::new();
        for rep in 0..reps {
            eprintln!("## {workload}: repetition {}/{reps}", rep + 1);
            runs.push(child(workload, opts.seed, seconds, false)?);
        }
        eprintln!("## {workload}: traced repetition");
        let traced = child(workload, opts.seed, seconds, true)?;

        let attempted: f64 = runs.iter().chain([&traced]).map(|c| c.attempted).sum();
        let failed: f64 = runs.iter().chain([&traced]).map(|c| c.failed).sum();
        let mut workload_ok = runs.iter().chain([&traced]).all(|c| c.correct);

        println!("\n== {workload}  (end to end, tracing off, {reps} × {seconds} s)");
        println!(
            "{:<28} {:>8} {:>16} {:>16} {:>16} {:>3}",
            "metric", "unit", "median", "q1", "q3", "n"
        );
        let mut e2e = Vec::new();
        for m in END_TO_END.iter().filter(|m| m.on(workload)) {
            let values = runs
                .iter()
                .map(|c| c.measured("end_to_end", m.name))
                .collect::<Option<Vec<f64>>>()
                .ok_or_else(|| Failure::new(format!("{workload}: {} missing", m.name)))?;
            // A count, not a time: the same seed must give the same value
            // in every repetition.
            if m.bound == Some(0.0) && values.iter().any(|v| *v != values[0]) {
                println!("!! {} differs between repetitions: {values:?}", m.name);
                workload_ok = false;
            }
            let (q1, q3) = quartiles(&values);
            println!(
                "{:<28} {:>8} {:>16.4} {:>16.4} {:>16.4} {:>3}",
                m.name,
                m.unit,
                median(&values),
                q1,
                q3,
                values.len()
            );
            e2e.push((m.name, summary(&values)));
        }
        let failed_share = if attempted > 0.0 {
            failed / attempted
        } else {
            1.0
        };
        println!(
            "{:<28} {:>8} {:>16.6}   ({failed} of {attempted} operations)",
            "failed_share", "ratio", failed_share
        );

        println!("-- {workload}  (per layer, one traced repetition; - = not measured here)");
        let mut layers = Vec::new();
        for m in PER_LAYER {
            match traced.measured("per_layer", m.name) {
                Some(v) => {
                    println!("{:<40} {:>8} {:>16.4}", m.name, m.unit, v);
                    layers.push((m.name, Json::Num(v)));
                }
                None => println!("{:<40} {:>8} {:>16}", m.name, m.unit, "-"),
            }
        }
        if let (Some(share), Some(spread)) = (
            traced.measured("per_layer", "trace.overhead_share"),
            traced.measured("per_layer", "trace.overhead_spread"),
        ) {
            if share.abs() <= spread {
                println!("   trace.overhead_share is unresolved: inside trace.overhead_spread");
            }
        }
        ok &= workload_ok && failed == 0.0;
        let info = |c: &Child| c.record.get("info").cloned().unwrap_or(Json::Null);
        report.push((
            workload,
            Json::obj([
                ("correct", Json::Bool(workload_ok && failed == 0.0)),
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("failed_share", Json::Num(failed_share)),
                ("end_to_end", Json::obj(e2e)),
                ("per_layer", Json::obj(layers)),
                ("info_untraced", info(&runs[0])),
                ("info_traced", info(&traced)),
            ]),
        ));
    }

    let doc = Json::obj([("environment", env), ("workloads", Json::obj(report))]);
    let path = opts.out.clone().unwrap_or_else(|| {
        Path::new(OUT_DIR).join(format!(
            "report-seed{}{}.json",
            opts.seed,
            if opts.smoke { "-smoke" } else { "" }
        ))
    });
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(&path, doc.pretty())?;
    println!("\n# report written to {}", path.display());
    println!(
        "# {}",
        if ok {
            "all outputs correct"
        } else {
            "FAILED: see above"
        }
    );
    Ok(ok)
}

/// How one workload × metric moved from report A to report B.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    /// Within the bound, either way.
    Same,
    /// Better by more than the bound.
    Better,
    /// Worse by more than the bound.
    Worse,
    /// The run-to-run spread of either side exceeds the bound: the
    /// difference cannot be told from noise.
    Unresolved,
}

/// `worse_by` is the relative change in the direction that is worse
/// (positive = B is worse); `spread` the larger interquartile share.
pub fn verdict(worse_by: f64, spread: f64, bound: f64) -> Verdict {
    if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn values_of(report: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    report
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("values")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

/// Per workload × end-to-end metric: B against A, relative to the
/// metric's bound, one row each. Returns whether nothing got worse.
///
/// The bounds — 0 on the exact counts above all — are for two reports of
/// the same script: reports that differ in seed, window or repetitions
/// are refused.
pub fn compare(a: &Path, b: &Path) -> Result<bool, Failure> {
    let load = |p: &Path| -> Result<Json, Failure> {
        Json::parse(&std::fs::read_to_string(p)?)
            .map_err(|e| Failure::new(format!("{}: {e}", p.display())))
    };
    let (ra, rb) = (load(a)?, load(b)?);
    for key in ["seed", "seconds", "repetitions"] {
        let of = |r: &Json| r.get("environment").and_then(|e| e.get(key)).cloned();
        if of(&ra).is_none() || of(&ra) != of(&rb) {
            return Err(Failure::new(format!(
                "the reports differ in {key}: {:?} against {:?}",
                of(&ra),
                of(&rb)
            )));
        }
    }
    println!(
        "{:<16} {:<26} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "spread", "bound"
    );
    let mut ok = true;
    for workload in workloads::NAMES {
        for m in END_TO_END.iter().filter(|m| m.on(workload)) {
            let (Some(va), Some(vb)) = (
                values_of(&ra, workload, m.name),
                values_of(&rb, workload, m.name),
            ) else {
                println!("{workload:<16} {:<26} missing from a report", m.name);
                ok = false;
                continue;
            };
            let (ma, mb) = (median(&va), median(&vb));
            let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
            let worse_by = match m.better {
                Better::Lower => change,
                Better::Higher => -change,
            };
            let noise = spread(&va).max(spread(&vb));
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let v = verdict(worse_by, noise, bound);
            ok &= v != Verdict::Worse;
            println!(
                "{workload:<16} {:<26} {ma:>14.4} {mb:>14.4} {:>+8.2}% {:>7.2}% {:>5.0}%  {}",
                m.name,
                worse_by * 100.0,
                noise * 100.0,
                bound * 100.0,
                format!("{v:?}").to_lowercase()
            );
        }
        // `failed_share` is held to 0 absolute, not to a share of A's.
        let share = |r: &Json| {
            r.get("workloads")?
                .get(workload)?
                .get("failed_share")?
                .as_f64()
        };
        let (fa, fb) = (share(&ra).unwrap_or(1.0), share(&rb).unwrap_or(1.0));
        ok &= fb == 0.0;
        println!(
            "{workload:<16} {:<26} {fa:>14.6} {fb:>14.6} {:>9} {:>8} {:>6}  {}",
            "failed_share",
            "",
            "",
            "0",
            if fb == 0.0 { "same" } else { "worse" }
        );
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_orders_noise_before_direction() {
        assert_eq!(verdict(0.05, 0.01, 0.10), Verdict::Same);
        assert_eq!(verdict(-0.05, 0.01, 0.10), Verdict::Same);
        assert_eq!(verdict(0.15, 0.01, 0.10), Verdict::Worse);
        assert_eq!(verdict(-0.15, 0.01, 0.10), Verdict::Better);
        assert_eq!(verdict(0.50, 0.12, 0.10), Verdict::Unresolved);
        // The exact counts: bound 0, spread 0 within a seed.
        assert_eq!(verdict(0.0, 0.0, 0.0), Verdict::Same);
        assert_eq!(verdict(0.001, 0.0, 0.0), Verdict::Worse);
        assert_eq!(verdict(-0.001, 0.0, 0.0), Verdict::Better);
    }

    /// `BENCHMARK.json` at the repo root and the catalogue here must name
    /// the same metrics, units, directions and bounds, the same workloads
    /// and the same window.
    #[test]
    fn benchmark_json_agrees_with_the_catalogue() {
        use crate::catalogue::{driver_end_to_end, driver_per_layer, Metric};
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(doc.get("run_seconds").unwrap().as_f64(), Some(RUN_SECONDS));
        let names: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(names, workloads::NAMES);
        let lists: [(&str, Vec<&Metric>); 2] = [
            ("end_to_end", driver_end_to_end().collect()),
            ("per_layer", driver_per_layer().collect()),
        ];
        for (key, list) in lists {
            let listed = doc.get(key).unwrap().as_arr().unwrap();
            assert_eq!(listed.len(), list.len(), "{key}");
            for (j, m) in listed.iter().zip(list) {
                assert_eq!(j.get("name").unwrap().as_str(), Some(m.name));
                assert_eq!(j.get("unit").unwrap().as_str(), Some(m.unit), "{}", m.name);
                assert_eq!(
                    j.get("better").unwrap().as_str(),
                    Some(m.better.as_str()),
                    "{}",
                    m.name
                );
                assert_eq!(
                    j.get("bound").and_then(Json::as_f64),
                    m.driver_bound,
                    "{}",
                    m.name
                );
                // A bound across seeds is never tighter than the one
                // within a seed, and every workload reports the metric.
                if let Some(across) = m.driver_bound {
                    assert!(across >= m.bound.unwrap() && across <= 0.25, "{}", m.name);
                    assert_eq!(m.workloads, workloads::NAMES, "{}", m.name);
                }
            }
        }
    }
}
