//! The three `eca-bench` gates that still carry a claim, in one run:
//!
//! * **selfmaint** — ECA-Aux on the keyed fig-6.x scenario answers ≥50%
//!   of compensating queries locally, cuts maintenance messages ≥50% vs
//!   ECA, and the measured count equals the exact closed form
//!   `M = 2k(1−f)`;
//! * **serving** — a reader fleet across the three §3 consistency levels
//!   against a live maintenance stream completes every read with zero
//!   monotonicity violations, every strong answer a §3.1 state-history
//!   member, throughput above a sanity floor;
//! * **recovery** — a warehouse crashed mid-run recovers from its WAL +
//!   checkpoint, converges to the fault-free golden views, and spends
//!   at most half the extra messages and bytes of the §4 full-RV
//!   fallback (measured: zero extra).
//!
//! Writes `results/{selfmaint,serving,recovery}.json` and the repo-root
//! `BENCH_throughput.json` embedding all three, prints summary tables,
//! and exits non-zero if any gate fails.
//!
//! ```text
//! throughput [--smoke] [--out PATH] [--root PATH]
//! ```
//!
//! `--smoke` keeps the serving fleet at 64 readers (the full run fields
//! ≥1000) and the recovery sweep at one checkpoint cadence (the full run
//! walks the cadence ladder for the recovery-time-vs-checkpoint-age
//! curve). `--root` moves the embedded document (default
//! `BENCH_throughput.json`); `--out` writes a second copy of it.

use std::path::PathBuf;

use eca_bench::json::Json;

/// The self-maintenance measurement point: k Mixed updates on the keyed
/// fig-6.x scenario (seed pinned so the artifact is reproducible).
const SELFMAINT_K: u64 = 24;
const SELFMAINT_SEED: u64 = 1;

struct Args {
    smoke: bool,
    out: Option<PathBuf>,
    root: PathBuf,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        smoke: false,
        out: None,
        root: PathBuf::from("BENCH_throughput.json"),
    };
    let mut args = std::env::args().skip(1);
    let path_arg = |flag: &str, args: &mut dyn Iterator<Item = String>| {
        PathBuf::from(args.next().unwrap_or_else(|| {
            eprintln!("{flag} requires a path argument");
            std::process::exit(2);
        }))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = Some(path_arg("--out", &mut args)),
            "--root" => parsed.root = path_arg("--root", &mut args),
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    parsed
}

fn print_serving(r: &eca_bench::serving::ServingResult) {
    println!(
        "serving: {} readers x {} reads at {:.0} reads/sec (p50 {} us, p99 {} us), \
         {} violations, {} distinct strong snapshots all-in-history={}, \
         maintenance {:.0} updates/sec under load",
        r.config.readers,
        r.config.reads_per_reader,
        r.reads_per_sec,
        r.p50_us,
        r.p99_us,
        r.violations,
        r.strong_distinct,
        r.strong_all_in_history,
        r.updates_per_sec,
    );
}

fn print_recovery(points: &[eca_bench::recovery::RecoveryPoint]) {
    println!(
        "{:>9} {:>6} {:>10} {:>10} {:>9} {:>10} {:>10} {:>9} {:>5}",
        "ckpt",
        "crash",
        "dur extra",
        "dur extra",
        "recovery",
        "rv extra",
        "rv extra",
        "replayed",
        "gate"
    );
    println!(
        "{:>9} {:>6} {:>10} {:>10} {:>9} {:>10} {:>10} {:>9} {:>5}",
        "every", "step", "msgs", "bytes", "us", "msgs", "bytes", "records", ""
    );
    for p in points {
        println!(
            "{:>9} {:>6} {:>10} {:>10} {:>9} {:>10} {:>10} {:>9} {:>5}",
            p.checkpoint_every,
            p.crash_step,
            p.durable_extra_messages(),
            p.durable_extra_bytes(),
            p.durable_recovery_us,
            p.full_extra_messages(),
            p.full_extra_bytes(),
            p.wal_replayed,
            if p.ok() { "ok" } else { "FAIL" },
        );
    }
}

fn write_doc(path: &std::path::Path, doc: &Json) {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("create artifact dir");
    }
    std::fs::write(path, doc.pretty()).expect("write artifact");
    println!("wrote {}", path.display());
}

fn main() {
    let args = parse_args();

    let selfmaint_doc = eca_bench::selfmaint::report(SELFMAINT_K, SELFMAINT_SEED);
    write_doc("results/selfmaint.json".as_ref(), &selfmaint_doc);
    let selfmaint_ok = eca_bench::selfmaint::smoke(SELFMAINT_K, SELFMAINT_SEED);

    let serving_cfg = if args.smoke {
        eca_bench::serving::ServingConfig::smoke()
    } else {
        eca_bench::serving::ServingConfig::full()
    };
    let serving = eca_bench::serving::run(serving_cfg);
    print_serving(&serving);
    let serving_doc = eca_bench::serving::report(&serving);
    write_doc("results/serving.json".as_ref(), &serving_doc);

    let recovery_points = eca_bench::recovery::sweep(args.smoke);
    print_recovery(&recovery_points);
    let recovery_doc = eca_bench::recovery::report(&recovery_points);
    write_doc("results/recovery.json".as_ref(), &recovery_doc);

    let doc = Json::obj([
        (
            "benchmark",
            Json::str("eca-bench gates: self-maintenance, read serving, crash recovery"),
        ),
        ("selfmaint", selfmaint_doc),
        ("serving", serving_doc),
        ("recovery", recovery_doc),
    ]);
    write_doc(&args.root, &doc);
    if let Some(out) = &args.out {
        write_doc(out, &doc);
    }

    let mut failed = !selfmaint_ok;
    failed |= !eca_bench::serving::smoke(&serving);
    let recovery_violations = eca_bench::recovery::violations(&recovery_points);
    if !recovery_violations.is_empty() {
        eprintln!(
            "FAIL: {} recovery point(s) missed the incremental-resync gate",
            recovery_violations.len()
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
