//! Regenerate every table and figure of the paper's evaluation section.
//!
//! ```text
//! figures [--table1] [--messages] [--fig62] [--fig63] [--fig64] [--fig65]
//!         [--crossovers] [--batch] [--selfmaint] [--all] [--quick]
//!         [--json DIR] [--seed N]
//! ```
//!
//! With no selection flags, `--all` is assumed. `--quick` uses coarser
//! sweeps (used by CI / the verification run). `--json DIR` additionally
//! dumps each series as a JSON artifact.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::error::Error;
use std::path::PathBuf;

use eca_bench::json::ToJson;
use eca_bench::{
    batch_series, crossover_report, fig62_series, fig63_series, fig64_series, fig65_series,
    messages_series, render_rows, FigureRow,
};
use eca_workload::Params;

struct Options {
    table1: bool,
    messages: bool,
    fig62: bool,
    fig63: bool,
    fig64: bool,
    fig65: bool,
    crossovers: bool,
    batch: bool,
    selfmaint: bool,
    quick: bool,
    json: Option<PathBuf>,
    seed: u64,
}

fn parse_args() -> Options {
    let mut opts = Options {
        table1: false,
        messages: false,
        fig62: false,
        fig63: false,
        fig64: false,
        fig65: false,
        crossovers: false,
        batch: false,
        selfmaint: false,
        quick: false,
        json: None,
        seed: 1,
    };
    let mut any = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--table1" => {
                opts.table1 = true;
                any = true;
            }
            "--messages" => {
                opts.messages = true;
                any = true;
            }
            "--fig62" => {
                opts.fig62 = true;
                any = true;
            }
            "--fig63" => {
                opts.fig63 = true;
                any = true;
            }
            "--fig64" => {
                opts.fig64 = true;
                any = true;
            }
            "--fig65" => {
                opts.fig65 = true;
                any = true;
            }
            "--crossovers" => {
                opts.crossovers = true;
                any = true;
            }
            "--batch" => {
                opts.batch = true;
                any = true;
            }
            "--selfmaint" => {
                opts.selfmaint = true;
                any = true;
            }
            "--all" => {
                any = false;
            }
            "--quick" => opts.quick = true,
            "--json" => {
                let dir = args.next().unwrap_or_else(|| {
                    eprintln!("--json requires a directory argument");
                    std::process::exit(2);
                });
                opts.json = Some(PathBuf::from(dir));
            }
            "--seed" => {
                let seed = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed requires an integer argument");
                    std::process::exit(2);
                });
                opts.seed = seed;
            }
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    if !any {
        opts.table1 = true;
        opts.messages = true;
        opts.fig62 = true;
        opts.fig63 = true;
        opts.fig64 = true;
        opts.fig65 = true;
        opts.crossovers = true;
        opts.batch = true;
        opts.selfmaint = true;
    }
    opts
}

fn dump_json(dir: &Option<PathBuf>, name: &str, rows: &[FigureRow]) -> std::io::Result<()> {
    let Some(dir) = dir else { return Ok(()) };
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    let body = rows.to_json().pretty();
    std::fs::write(&path, body)?;
    println!("(wrote {})", path.display());
    Ok(())
}

fn main() -> Result<(), Box<dyn Error>> {
    let opts = parse_args();
    let seed = opts.seed;

    if opts.table1 {
        println!(
            "## Table 1 — variables and defaults\n{}",
            Params::default().table1()
        );
    }

    if opts.messages {
        let ks: Vec<u64> = if opts.quick {
            vec![1, 5, 10]
        } else {
            vec![1, 5, 10, 20, 40, 80, 120]
        };
        let rows = messages_series(&ks, seed)?;
        println!(
            "{}",
            render_rows(
                "Messages M vs k (paper 6.1: M_ECA = 2k, M_RV = 2*ceil(k/s))",
                "k",
                &rows
            )
        );
        dump_json(&opts.json, "messages", &rows)?;
    }

    if opts.fig62 {
        let cs: Vec<u64> = if opts.quick {
            vec![4, 12, 20]
        } else {
            vec![1, 2, 4, 6, 8, 10, 12, 16, 20]
        };
        let rows = fig62_series(&cs, seed)?;
        println!(
            "{}",
            render_rows("Figure 6.2 — B (bytes) vs C, k = 3", "C", &rows)
        );
        dump_json(&opts.json, "fig62", &rows)?;
    }

    if opts.fig63 {
        let ks: Vec<u64> = if opts.quick {
            vec![3, 30, 60]
        } else {
            vec![3, 15, 30, 45, 60, 75, 90, 105, 120]
        };
        let rows = fig63_series(&ks, seed)?;
        println!(
            "{}",
            render_rows("Figure 6.3 — B (bytes) vs k, C = 100", "k", &rows)
        );
        dump_json(&opts.json, "fig63", &rows)?;
    }

    if opts.fig64 {
        let ks: Vec<u64> = if opts.quick {
            vec![1, 5, 11]
        } else {
            (1..=11).collect()
        };
        let rows = fig64_series(&ks, seed)?;
        println!(
            "{}",
            render_rows("Figure 6.4 — IO vs k, Scenario 1 (indexed)", "k", &rows)
        );
        dump_json(&opts.json, "fig64", &rows)?;
    }

    if opts.fig65 {
        let ks: Vec<u64> = if opts.quick {
            vec![1, 5, 11]
        } else {
            (1..=11).collect()
        };
        let rows = fig65_series(&ks, seed)?;
        println!(
            "{}",
            render_rows(
                "Figure 6.5 — IO vs k, Scenario 2 (no indexes, 3 blocks)",
                "k",
                &rows
            )
        );
        dump_json(&opts.json, "fig65", &rows)?;
    }

    if opts.batch {
        let ns: &[usize] = if opts.quick {
            &[1, 4, 12]
        } else {
            &[1, 2, 3, 4, 6, 8, 12, 24]
        };
        let rows = batch_series(24, ns, seed)?;
        println!(
            "{}",
            render_rows(
                "Batching ablation (7 future work) - Batch-ECA at k = 24, adversarial timing",
                "n",
                &rows
            )
        );
        dump_json(&opts.json, "batch", &rows)?;
    }

    if opts.selfmaint {
        let k = if opts.quick { 12 } else { 24 };
        let curve = eca_bench::selfmaint::storage_curve(k, seed)?;
        let rows: Vec<FigureRow> = curve
            .iter()
            .map(|p| FigureRow {
                x: p.covered as u64,
                series: vec![
                    eca_bench::SeriesPoint {
                        label: "messages",
                        analytic: p.messages_analytic as f64,
                        measured: p.messages_measured as f64,
                    },
                    eca_bench::SeriesPoint {
                        label: "aux blocks",
                        analytic: (eca_analytic::selfmaint::aux_storage_tuples(
                            &Params::default(),
                            &[p.covered >= 1, p.covered >= 2, p.covered >= 3],
                        ) as f64
                            / Params::default().tuples_per_block as f64)
                            .ceil(),
                        measured: p.aux_blocks as f64,
                    },
                ],
            })
            .collect();
        println!(
            "{}",
            render_rows(
                &format!("Self-maintenance - auxiliary storage vs messages, k = {k}"),
                "aux",
                &rows
            )
        );
        if let Some(dir) = &opts.json {
            std::fs::create_dir_all(dir)?;
            let path = dir.join("selfmaint.json");
            std::fs::write(&path, eca_bench::selfmaint::report(k, seed)?.pretty())?;
            println!("(wrote {})", path.display());
        }
    }

    if opts.crossovers {
        println!("## Crossovers (paper 6.2-6.3)");
        println!(
            "{:<45} {:>32} {:>12} {:>12}",
            "comparison", "paper", "analytic k", "measured k"
        );
        for line in crossover_report(seed)? {
            let fmt = |k: Option<u64>| k.map_or("none".to_owned(), |v| v.to_string());
            println!(
                "{:<45} {:>32} {:>12} {:>12}",
                line.comparison,
                line.paper,
                fmt(line.analytic_k),
                fmt(line.measured_k)
            );
        }
        println!();
    }
    Ok(())
}
