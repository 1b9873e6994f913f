//! The four workloads. Each runs in its own process: set-up (several
//! times), a warm-up, one measured window of `--seconds`, in
//! `durable_recover` the crash and the recoveries, then the correctness
//! oracle.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::gen::UpdateStream;
use crate::json::Json;
use crate::measure::Samples;
use crate::phases::ReadStats;
use crate::rig::{Meters, Rig};
use crate::trace::{Trace, Tracer};
use crate::Failure;

pub mod durable_recover;
pub mod maintain_burst;
pub mod serve_mixed;
pub mod tcp_stream;

pub const NAMES: [&str; 4] = [
    "maintain_burst",
    "serve_mixed",
    "durable_recover",
    "tcp_stream",
];

/// What one invocation was asked to do.
pub struct Plan {
    pub workload: String,
    pub seed: u64,
    /// The measured window.
    pub window: Duration,
    /// Record spans and run the probes; report per-layer metrics.
    pub trace: bool,
}

impl Plan {
    /// Unmeasured lead-in before the window: caches fill, lazy set-up
    /// finishes.
    pub fn warm_up(&self) -> Duration {
        (self.window / 10).min(Duration::from_millis(500))
    }

    /// A count sized for the full window, scaled to this one (`--smoke`
    /// runs a twentieth of it): the largest multiple of `unit` that fits,
    /// at least one.
    pub fn scaled(&self, full: u64, unit: u64) -> u64 {
        let share = (self.window.as_secs_f64() / crate::suite::RUN_SECONDS).min(1.0);
        let scaled = (full as f64 * share) as u64;
        (scaled / unit).max(1) * unit
    }
}

/// What one invocation measured.
#[derive(Default)]
pub struct RunOutput {
    pub attempted: u64,
    pub failed: u64,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<String, f64>,
    /// Sample counts and other context, kept in the run's full record and
    /// the suite report; never part of the result line.
    pub info: Vec<(String, Json)>,
}

impl RunOutput {
    /// Record the fingerprint of the first 1,000 updates of `stream`, so
    /// two reports can be told to have run the same script.
    pub fn note_script(&mut self, mut stream: UpdateStream) {
        let hash = crate::gen::script_hash(&mut stream, 1_000);
        self.info
            .push(("script_hash".to_owned(), Json::str(format!("{hash:016x}"))));
    }

    pub fn note(&mut self, key: &str, value: f64) {
        self.info.push((key.to_owned(), Json::Num(value)));
    }

    pub fn check(&mut self, (checks, bad): (u64, u64)) {
        self.attempted += checks;
        self.failed += bad;
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_owned(), value);
    }

    /// The end-to-end metrics of the maintenance window.
    pub fn maintenance(&mut self, samples: &Samples, window: Duration, exact: &Meters) {
        self.e2e.insert("updates_per_s", samples.rate_per_s(window));
        self.e2e
            .insert("settle_p50_us", samples.lat_us(window, 50.0));
        self.e2e
            .insert("msgs_per_update", exact.per_update(exact.msgs));
        self.e2e.insert(
            "answer_bytes_per_update",
            exact.per_update(exact.answer_bytes),
        );
        self.e2e
            .insert("io_reads_per_update", exact.per_update(exact.io_reads));
        self.e2e
            .insert("settle_p99_us", samples.lat_us(window, 99.0));
        self.info.push((
            "updates_per_s_by_slice".to_owned(),
            Json::arr(
                samples
                    .slice_rates(window)
                    .into_iter()
                    .map(|r| Json::Num(r.round())),
            ),
        ));
        self.note("settle_samples", samples.0.len() as f64);
        self.note(
            "settle_samples_min_slice",
            samples.min_slice_len(window) as f64,
        );
        self.note("exact_prefix_updates", exact.updates as f64);
    }

    /// What the analyst of `serve_mixed` saw.
    pub fn reads(&mut self, stats: &ReadStats, window: Duration) {
        self.attempted += stats.attempted;
        self.failed += stats.failed;
        self.e2e
            .insert("reads_per_s", stats.samples.rate_per_s(window));
        self.e2e
            .insert("read_p50_us", stats.samples.lat_us(window, 50.0));
        self.e2e
            .insert("read_p95_us", stats.samples.lat_us(window, 95.0));
        self.note("read_samples", stats.samples.0.len() as f64);
    }
}

/// The measured part of a serial workload.
pub struct Driven {
    /// Samples the metrics come from: the whole window when untraced, its
    /// traced slices otherwise.
    pub samples: Samples,
    /// Meters at the fixed prefix of the script (or at the end of the
    /// window if the prefix was not reached).
    pub exact: Meters,
    /// `VmHWM` when the prefix was reached: the memory high-water mark
    /// after the same work in every run, however fast the run was. (The
    /// source's heap files grow with every insert, so a mark read at the
    /// end of a time-bounded window would rise with throughput.)
    pub rss_at_prefix_mb: f64,
    /// Meters over the window the samples come from.
    pub during: Meters,
    /// What tracing cost; zero when untraced.
    pub overhead: Overhead,
    pub trace: Trace,
}

/// Slices a traced window alternates through, untraced first: tracing is
/// on in every second one, so drift over the window cancels out of the
/// comparison of the two rates.
pub const TRACE_SLICES: u32 = 10;

/// What tracing cost, from the update rates of neighbouring slices (or
/// rounds) with tracing off and on.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Overhead {
    /// Median over the pairs of `1 − traced rate ÷ untraced rate`.
    pub share: f64,
    /// Interquartile distance of the same: a share smaller than this
    /// cannot be told from the noise between two slices.
    pub spread: f64,
}

impl Overhead {
    /// `untraced[k]` ran just before `traced[k]`.
    pub fn of(untraced: &[f64], traced: &[f64]) -> Overhead {
        let pairs: Vec<f64> = untraced
            .iter()
            .zip(traced)
            .map(|(u, t)| 1.0 - t / u)
            .collect();
        let (q1, q3) = crate::stats::quartiles(&pairs);
        Overhead {
            share: crate::stats::median(&pairs),
            spread: q3 - q1,
        }
    }
}

/// Warm a serial rig up, then run closed-loop bursts for the window.
/// `on_burst` runs after every settled burst.
pub fn drive_serial(
    rig: &mut Rig,
    stream: &mut UpdateStream,
    burst_len: usize,
    prefix: u64,
    plan: &Plan,
    mut on_burst: impl FnMut(&mut Rig, &[eca_relational::Update]) -> Result<(), Failure>,
) -> Result<Driven, Failure> {
    let mut exact: Option<(Meters, f64)> = None;
    let mut hook = |rig: &mut Rig, burst: &[eca_relational::Update]| {
        if exact.is_none() && rig.updates >= prefix {
            exact = Some((rig.meters(), crate::phases::peak_rss_mb()));
        }
        on_burst(rig, burst)
    };
    let mut tr = Tracer::new(false, Instant::now());
    rig.run_until(
        stream,
        burst_len,
        Instant::now() + plan.warm_up(),
        &mut tr,
        &mut hook,
    )?;

    let mut samples = Samples::default();
    let mut during = Meters::default();
    let mut overhead = Overhead::default();
    if plan.trace {
        let slice = plan.window / TRACE_SLICES;
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        for k in 0..TRACE_SLICES {
            let on = k % 2 == 1;
            tr.set_on(on);
            let before = rig.meters();
            let began = Instant::now();
            let part = rig.run_until(stream, burst_len, began + slice, &mut tr, &mut hook)?;
            let rate = part.units() as f64 / began.elapsed().as_secs_f64();
            if on {
                traced.push(rate);
                during = during.plus(&rig.meters().minus(&before));
                samples.0.extend(part.0);
            } else {
                plain.push(rate);
            }
        }
        tr.set_on(false);
        overhead = Overhead::of(&plain, &traced);
    } else {
        let before = rig.meters();
        samples = rig.run_until(
            stream,
            burst_len,
            Instant::now() + plan.window,
            &mut tr,
            &mut hook,
        )?;
        during = rig.meters().minus(&before);
    }
    let (exact, rss_at_prefix_mb) =
        exact.unwrap_or_else(|| (rig.meters(), crate::phases::peak_rss_mb()));
    Ok(Driven {
        samples,
        exact,
        rss_at_prefix_mb,
        during,
        overhead,
        trace: tr.into_trace(),
    })
}

pub fn run(plan: &Plan) -> Result<RunOutput, Failure> {
    match plan.workload.as_str() {
        "maintain_burst" => maintain_burst::run(plan),
        "serve_mixed" => serve_mixed::run(plan),
        "durable_recover" => durable_recover::run(plan),
        "tcp_stream" => tcp_stream::run(plan),
        other => Err(Failure::new(format!(
            "unknown workload {other:?}; expected one of {NAMES:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_the_median_over_neighbouring_pairs() {
        // Drift from 100 to 400 updates/s across the window; tracing costs
        // 10 % in every pair but one.
        let o = Overhead::of(&[100.0, 200.0, 300.0, 400.0], &[90.0, 180.0, 270.0, 400.0]);
        assert!((o.share - 0.1).abs() < 1e-12);
        // Pairs 0.1, 0.1, 0.1, 0.0: q1 = 0.025, q3 = 0.1.
        assert!((o.spread - 0.075).abs() < 1e-12);
    }
}
