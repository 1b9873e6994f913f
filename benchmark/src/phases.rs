//! Pieces the workloads share: repeated set-up, the analyst of
//! `serve_mixed`, and the process's memory high-water mark.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::Instant;

use eca_relational::SignedBag;
use eca_serve::ReadClient;
use eca_wire::{ReadLevel, Role, TcpTransport, TransferMeter};

use crate::measure::Samples;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::Plan;
use crate::Failure;

/// Fewest set-ups a run times. The harness that consumes
/// `BENCHMARK.json` gates `setup_s` on single runs, so one run's number
/// has to be a median already.
pub const MIN_SETUPS: u64 = 3;

/// Ring capacity of every `EpochRegistry` the benchmark opens.
pub const RING_CAP: usize = 8;

/// Build the deployment again and again for a twentieth of the window
/// (a 10 ms set-up needs more repetitions than a 300 ms one for a steady
/// median), at least [`MIN_SETUPS`] times (once under `--smoke`), closing
/// all but the last, and return it with the median build time in seconds.
pub fn timed_setups<D>(
    plan: &Plan,
    mut build: impl FnMut() -> Result<D, Failure>,
    mut close: impl FnMut(D),
) -> Result<(D, f64), Failure> {
    let began = Instant::now();
    let mut times = Vec::new();
    loop {
        let t0 = Instant::now();
        let built = build()?;
        times.push(t0.elapsed().as_secs_f64());
        if times.len() as u64 >= plan.scaled(MIN_SETUPS, 1) && began.elapsed() >= plan.window / 20 {
            return Ok((built, median(&times)));
        }
        close(built);
    }
}

/// What one reader saw.
#[derive(Default)]
pub struct ReadStats {
    pub samples: Samples,
    pub attempted: u64,
    pub failed: u64,
    /// Per level: sum of `latest - epoch` and number of reads.
    pub staleness: BTreeMap<ReadLevel, (u64, u64)>,
}

impl ReadStats {
    pub fn mean_staleness(&self, level: ReadLevel) -> f64 {
        match self.staleness.get(&level) {
            Some(&(sum, n)) if n > 0 => sum as f64 / n as f64,
            _ => 0.0,
        }
    }
}

/// One closed-loop analyst: a `ReadClient` over loopback TCP cycling
/// `views` × the three read levels from `from` until `until`. Reads that
/// begin before `from` warm the path up and are not recorded.
///
/// A read fails when the client reports an error (which includes an epoch
/// below the client's floor at `weak` or `strong`), when a `weak` or
/// `strong` epoch is below the last one seen for that view and level, or
/// when the answer claims an epoch newer than the latest published.
/// `convergent` reads rotate through the ring by design and are only held
/// to the last rule.
pub fn reader(
    addr: SocketAddr,
    views: &[u64],
    from: Instant,
    until: Instant,
    tr: &mut Tracer,
) -> Result<ReadStats, Failure> {
    let conn = TcpTransport::connect(addr, Role::Source, TransferMeter::new())?;
    let mut client = ReadClient::new(conn);
    let mut stats = ReadStats::default();
    let mut last: BTreeMap<(u64, ReadLevel), u64> = BTreeMap::new();
    let tracing = tr.is_on();
    let mut i = 0usize;
    loop {
        let t0 = Instant::now();
        if t0 >= until {
            tr.set_on(tracing);
            return Ok(stats);
        }
        let view = views[i % views.len()];
        let level = ReadLevel::all()[(i / views.len()) % 3];
        i += 1;
        let recorded = t0 >= from;
        tr.set_on(tracing && recorded);
        tr.next_op();
        let outcome = tr.span("read", || client.read(view, level));
        let t1 = Instant::now();
        if !recorded {
            continue;
        }
        stats.attempted += 1;
        match outcome {
            Ok(out) => {
                let floor = last.entry((view, level)).or_insert(0);
                let regressed = level != ReadLevel::Convergent && out.epoch < *floor;
                *floor = (*floor).max(out.epoch);
                if regressed || out.epoch > out.latest {
                    stats.failed += 1;
                }
                let s = stats.staleness.entry(level).or_insert((0, 0));
                s.0 += out.staleness();
                s.1 += 1;
                stats
                    .samples
                    .push(t1.saturating_duration_since(from), t1 - t0, 1, view as u16);
            }
            Err(_) => stats.failed += 1,
        }
    }
}

/// A final `strong` read of each view must equal the definition on the
/// final base state. Returns `(checks, mismatches)`.
pub fn strong_reads_match(addr: SocketAddr, expected: &[SignedBag]) -> Result<(u64, u64), Failure> {
    let conn = TcpTransport::connect(addr, Role::Source, TransferMeter::new())?;
    let mut client = ReadClient::new(conn);
    let mut bad = 0;
    for (v, want) in expected.iter().enumerate() {
        match client.read(v as u64, ReadLevel::Strong) {
            Ok(out) if out.rows == *want => {}
            _ => bad += 1,
        }
    }
    Ok((expected.len() as u64, bad))
}

/// `VmHWM` of this process in MiB: the most resident memory it ever held.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
