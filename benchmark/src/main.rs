//! The repo's benchmark: four workloads, end-to-end metrics with tracing
//! off, per-layer metrics from a traced run. See `benchmark/README.md`.
//!
//! ```text
//! eca-benchmark --workload W --seed N --seconds S --trace 0|1   one run, one result line
//! eca-benchmark [--seed N] [--smoke] [--out FILE]             every workload, a report
//! eca-benchmark --compare A.json B.json                       two reports, row by row
//! ```

use std::path::PathBuf;
use std::time::Duration;

mod catalogue;
mod deploy;
mod gen;
mod json;
mod measure;
mod phases;
mod probes;
mod rig;
mod stats;
mod suite;
mod trace;
mod workloads;

use json::Json;
use workloads::Plan;

/// Where trace files, reports and scratch directories go, relative to the
/// directory the benchmark is started from (the root of a checkout).
pub const OUT_DIR: &str = "benchmark/out";

/// Why a run could not be completed. Any library error converts into it;
/// it deliberately does not implement `Error` itself so that the blanket
/// conversion below is coherent.
#[derive(Debug)]
pub struct Failure(String);

impl Failure {
    pub fn new(msg: impl Into<String>) -> Failure {
        Failure(msg.into())
    }
}

impl<E: std::error::Error> From<E> for Failure {
    fn from(e: E) -> Failure {
        Failure(e.to_string())
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Command-line flags: `--name value` pairs and bare `--name` switches.
struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, Failure> {
        match self.value(flag) {
            None if self.has(flag) => Err(Failure::new(format!("{flag} needs a value"))),
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| Failure::new(format!("{flag}: cannot read {v:?}"))),
        }
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

/// One run of one workload. The last line of stdout is the result line
/// the contract in `BENCHMARK.json` asks for; the line before it is the
/// run's full record — every end-to-end and per-layer metric the workload
/// measured (and none it did not) and the sample counts behind them —
/// which is what the suite reads.
fn single(args: &Args, workload: &str) -> Result<bool, Failure> {
    let seconds: f64 = args.parsed("--seconds")?.unwrap_or(suite::RUN_SECONDS);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(Failure::new("--seconds must be in (0, 600]"));
    }
    let trace = match args.value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => {
            return Err(Failure::new(format!(
                "--trace: expected 0 or 1, got {other:?}"
            )))
        }
    };
    let plan = Plan {
        workload: workload.to_owned(),
        seed: args.parsed("--seed")?.unwrap_or(1),
        window: Duration::from_secs_f64(seconds),
        trace,
    };
    let out = workloads::run(&plan)?;
    catalogue::check(&out, workload, trace).map_err(Failure::new)?;
    let metrics = catalogue::result_metrics(&out, trace).map_err(Failure::new)?;
    println!(
        "{}",
        Json::obj([
            (
                "end_to_end",
                Json::obj(out.e2e.iter().map(|(k, v)| (*k, Json::Num(*v))))
            ),
            (
                "per_layer",
                Json::obj(out.layers.iter().map(|(k, v)| (k, Json::Num(*v))))
            ),
            ("info", Json::obj(out.info.iter().cloned())),
        ])
    );
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(out.failed == 0)),
            ("attempted", Json::Num(out.attempted as f64)),
            ("failed", Json::Num(out.failed as f64)),
            (
                "metrics",
                Json::obj(metrics.into_iter().map(|(m, v)| {
                    (
                        m.name,
                        Json::obj([("value", Json::Num(v)), ("unit", Json::str(m.unit))]),
                    )
                })),
            ),
        ])
    );
    Ok(out.failed == 0)
}

fn dispatch(args: &Args) -> Result<bool, Failure> {
    if let Some(i) = args.0.iter().position(|a| a == "--compare") {
        return match (args.0.get(i + 1), args.0.get(i + 2)) {
            (Some(a), Some(b)) => suite::compare(a.as_ref(), b.as_ref()),
            _ => Err(Failure::new("--compare needs two report files")),
        };
    }
    if let Some(workload) = args.value("--workload") {
        return single(args, workload);
    }
    suite::run(&suite::Options {
        seed: args.parsed("--seed")?.unwrap_or(1),
        smoke: args.has("--smoke"),
        out: args.value("--out").map(PathBuf::from),
    })
}

fn main() {
    let args = Args(std::env::args().skip(1).collect());
    match dispatch(&args) {
        // A run with any failed operation, any unequal exact count or any
        // regression exits non-zero, after printing what it measured.
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            std::process::exit(2);
        }
    }
}
