//! The metric and workload catalogue: names, units, directions, bounds
//! and which workloads measure what, in one place. `BENCHMARK.json` must
//! agree with it (a test checks), the result line is built from it, and
//! later issues cite these names verbatim.

use crate::workloads::RunOutput;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `--compare`'s bound between two suite reports of the same seed, as
    /// a share of A's median: 0.10 for timings and memory, 0 for the exact
    /// counts. `None` for per-layer metrics, which have none.
    pub bound: Option<f64>,
    /// The bound `BENCHMARK.json` gives the metric in its `end_to_end`
    /// list. Every workload must report every metric of that list, and
    /// the list is gated on single runs of ten *different* seeds, so it
    /// holds the metrics all four workloads measure and one run steadies,
    /// with wider bounds (README, "Two sets of bounds"). `None`:
    /// `BENCHMARK.json` lists the metric under `per_layer`.
    pub driver_bound: Option<f64>,
    /// The workloads that measure it; empty for per-layer metrics, which
    /// a workload reports if its layers did that work.
    pub workloads: &'static [&'static str],
}

impl Metric {
    pub fn on(&self, workload: &str) -> bool {
        self.workloads.contains(&workload)
    }
}

const ALL: &[&str] = &crate::workloads::NAMES;

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    driver_bound: Option<f64>,
    workloads: &'static [&'static str],
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        driver_bound,
        workloads,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        driver_bound: None,
        workloads: &[],
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, measured with tracing off.
/// `failed_share`, the thirteenth, is the result line's `failed` ÷
/// `attempted`; the suite prints it and `--compare` holds it to 0.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.10, Some(0.25), ALL),
    e2e("updates_per_s", "1/s", Higher, 0.10, Some(0.25), ALL),
    e2e("settle_p50_us", "us", Lower, 0.10, Some(0.25), ALL),
    e2e("settle_p99_us", "us", Lower, 0.10, None, ALL),
    e2e("reads_per_s", "1/s", Higher, 0.10, None, &["serve_mixed"]),
    e2e("read_p50_us", "us", Lower, 0.10, None, &["serve_mixed"]),
    e2e("read_p95_us", "us", Lower, 0.10, None, &["serve_mixed"]),
    e2e("msgs_per_update", "count", Lower, 0.0, Some(0.10), ALL),
    e2e("answer_bytes_per_update", "B", Lower, 0.0, Some(0.10), ALL),
    e2e("io_reads_per_update", "blocks", Lower, 0.0, Some(0.10), ALL),
    e2e("recovery_ms", "ms", Lower, 0.10, None, &["durable_recover"]),
    e2e("peak_rss_mb", "MiB", Lower, 0.10, Some(0.15), ALL),
];

/// Single layers, from the traced run and the probes.
pub const PER_LAYER: &[Metric] = &[
    layer("source.execute_update_us", "us", Lower),
    layer("source.answer_us", "us", Lower),
    layer("source.queries_per_update", "count", Lower),
    layer("source.terms_per_query", "count", Lower),
    layer("storage.eval_query_us", "us", Lower),
    layer("storage.apply_us", "us", Lower),
    layer("storage.io_reads_per_query", "blocks", Lower),
    layer("relational.bag_clone_us_per_ktuple", "us", Lower),
    layer("relational.bag_merge_us", "us", Lower),
    layer("relational.spj_us", "us", Lower),
    layer("core.on_update_us", "us", Lower),
    layer("core.on_answer_us", "us", Lower),
    layer("core.queries_per_update", "count", Lower),
    layer("wire.encode_us.notification", "us", Lower),
    layer("wire.encode_us.query", "us", Lower),
    layer("wire.encode_us.answer", "us", Lower),
    layer("wire.encode_us.read_answer", "us", Lower),
    layer("wire.decode_us.notification", "us", Lower),
    layer("wire.decode_us.query", "us", Lower),
    layer("wire.decode_us.answer", "us", Lower),
    layer("wire.decode_us.read_answer", "us", Lower),
    layer("wire.frame_decode_us", "us", Lower),
    layer("wire.bytes_per_update", "B", Lower),
    layer("wire.fifo_send_us", "us", Lower),
    layer("wire.fifo_recv_us", "us", Lower),
    layer("wire.tcp_send_us", "us", Lower),
    layer("wire.tcp_rtt_us", "us", Lower),
    layer("warehouse.on_message_us.update", "us", Lower),
    layer("warehouse.on_message_us.answer", "us", Lower),
    layer("warehouse.session_pending_peak", "count", Lower),
    layer("warehouse.publish_us", "us", Lower),
    layer("warehouse.registry_read_us", "us", Lower),
    layer("warehouse.residual_us", "us", Lower),
    layer("warehouse.recover_call_ms", "ms", Lower),
    layer("warehouse.recovery_replayed", "count", Lower),
    layer("warehouse.recovery_resent", "count", Lower),
    layer("durable.append_us", "us", Lower),
    layer("durable.sync_us", "us", Lower),
    layer("durable.checkpoint_write_ms", "ms", Lower),
    layer("durable.checkpoint_load_ms", "ms", Lower),
    layer("durable.scan_ms", "ms", Lower),
    layer("durable.checkpoint_bytes", "B", Lower),
    layer("durable.disk_bytes_per_update", "B", Lower),
    layer("serve.respond_us", "us", Lower),
    layer("serve.answer_bytes", "B", Lower),
    layer("serve.staleness_epochs.convergent", "count", Lower),
    layer("serve.staleness_epochs.weak", "count", Lower),
    layer("serve.staleness_epochs.strong", "count", Lower),
    layer("serve.queue_transport_us", "us", Lower),
    layer("settle_mean_us", "us", Lower),
    layer("read_mean_us", "us", Lower),
    layer("unexplained_us", "us", Lower),
    layer("unexplained_share", "ratio", Lower),
    layer("trace.overhead_share", "ratio", Lower),
    layer("trace.overhead_spread", "ratio", Lower),
];

/// `BENCHMARK.json`'s `end_to_end` list: what `--trace 0` reports.
pub fn driver_end_to_end() -> impl Iterator<Item = &'static Metric> {
    END_TO_END.iter().filter(|m| m.driver_bound.is_some())
}

/// `BENCHMARK.json`'s `per_layer` list: what `--trace 1` reports. The
/// end-to-end metrics that only some workloads measure lead it.
pub fn driver_per_layer() -> impl Iterator<Item = &'static Metric> {
    END_TO_END
        .iter()
        .filter(|m| m.driver_bound.is_none())
        .chain(PER_LAYER)
}

/// The metrics of a result line, in catalogue order. The contract wants
/// every listed metric from every workload, so a per-layer metric the
/// workload did not measure is 0 there (the run's full record, printed
/// on the line before, leaves it out instead). An end-to-end metric the
/// run did not produce is a bug in the workload, reported as an error.
pub fn result_metrics(
    out: &RunOutput,
    traced: bool,
) -> Result<Vec<(&'static Metric, f64)>, String> {
    if traced {
        Ok(driver_per_layer()
            .map(|m| {
                let v = out.layers.get(m.name).or_else(|| out.e2e.get(m.name));
                (m, v.copied().unwrap_or(0.0))
            })
            .collect())
    } else {
        driver_end_to_end()
            .map(|m| match out.e2e.get(m.name) {
                Some(v) if v.is_finite() && *v != 0.0 => Ok((m, *v)),
                Some(v) => Err(format!("end-to-end metric {} is {v}", m.name)),
                None => Err(format!("end-to-end metric {} was not measured", m.name)),
            })
            .collect()
    }
}

/// What `out` measured against what the catalogue says `workload`
/// measures: every end-to-end metric listed for the workload present
/// (`peak_rss_mb` only untraced: a traced run holds the spans too), none
/// that is not listed, no per-layer name the catalogue does not know.
pub fn check(out: &RunOutput, workload: &str, traced: bool) -> Result<(), String> {
    for m in END_TO_END {
        let expected = m.on(workload) && !(traced && m.name == "peak_rss_mb");
        if expected != out.e2e.contains_key(m.name) {
            return Err(format!(
                "{workload}: end-to-end metric {} is {}",
                m.name,
                if expected {
                    "missing"
                } else {
                    "not in the catalogue for this workload"
                }
            ));
        }
    }
    match out
        .layers
        .keys()
        .find(|k| !PER_LAYER.iter().any(|m| m.name == k.as_str()))
    {
        Some(stray) => Err(format!(
            "per-layer metric {stray:?} is not in the catalogue"
        )),
        None => Ok(()),
    }
}
