//! Chaos sweep driver: reset-rate grid over the ECA warehouse stack.
//!
//! Writes `results/chaos.json`, prints a per-point table, and exits
//! non-zero if any run fails the consistency gate (non-quiescent, or a
//! final view differing from the fault-free golden state). CI runs the
//! full sweep and requires `results/chaos.json` to reproduce byte for
//! byte; `--smoke` is a 3-seed subset (one point per family).
//!
//! ```text
//! chaos [--smoke] [--out PATH]
//! ```

use std::path::PathBuf;

use eca_bench::chaos::{report, sweep, violations};

struct Args {
    smoke: bool,
    out: PathBuf,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        smoke: false,
        out: PathBuf::from("results/chaos.json"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => parsed.smoke = true,
            "--out" => {
                parsed.out = PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--out requires a path argument");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    parsed
}

fn main() {
    let args = parse_args();
    let points = sweep(args.smoke);

    println!(
        "{:>9} {:>10} {:>5} {:>5} {:>3} {:>7} {:>8} {:>7} {:>6} {:>8}",
        "scenario",
        "family",
        "rate",
        "ok",
        "seed",
        "resent",
        "reissued",
        "resyncs",
        "stale",
        "overhead"
    );
    for p in &points {
        println!(
            "{:>9} {:>10} {:>5.2} {:>5} {:>3} {:>7} {:>8} {:>7} {:>6} {:>7.2}x",
            p.scenario,
            p.family.label(),
            p.rate,
            if p.ok() { "ok" } else { "FAIL" },
            p.seed,
            p.stats.resync_notifications,
            p.stats.reissued,
            p.stats.resyncs_completed,
            p.stats.stale_answers,
            p.overhead_ratio(),
        );
    }

    let doc = report(&points).pretty();
    if let Some(dir) = args.out.parent() {
        std::fs::create_dir_all(dir).expect("create results dir");
    }
    std::fs::write(&args.out, &doc).expect("write results artifact");
    println!("wrote {}", args.out.display());

    let bad = violations(&points);
    if !bad.is_empty() {
        eprintln!("FAIL: {} chaos run(s) violated consistency", bad.len());
        for p in bad {
            eprintln!(
                "  {} {} rate {:.2} seed {} (quiescent={}, matches_golden={})",
                p.scenario,
                p.family.label(),
                p.rate,
                p.seed,
                p.quiescent,
                p.matches_golden
            );
        }
        std::process::exit(1);
    }
}
