//! `serve_mixed` — the serial deployment with V0 and V3 only,
//! `enable_serving(8)` and a one-worker `serve_listener`; one writer
//! (closed-loop bursts of one update) beside one reader (a
//! `ReadClient<TcpTransport>` cycling the two views × the three read
//! levels) for the whole window.
//!
//! Why: writes (`EpochRegistry::publish`) run beside reads
//! (`EpochRegistry::read` → `ReadServer::respond` → encode) on the same
//! registry, with views large enough that the O(|V|) clones dominate. A
//! publish fix that makes reads dearer, or the reverse, shows here.

use std::time::Instant;

use eca_serve::{serve_listener, ServeHandle};

use crate::phases::{reader, strong_reads_match, timed_setups, RING_CAP};
use crate::probes;
use crate::rig::Rig;
use crate::trace::Tracer;
use crate::workloads::{drive_serial, maintain_burst, Plan, RunOutput};
use crate::Failure;

pub const BURST: usize = 1;
pub const EXACT_PREFIX: u64 = 4_000;
pub const VIEWS: [usize; 2] = [0, 3];
pub const SERVE_WORKERS: usize = 1;

struct Deployment {
    rig: Rig,
    handle: ServeHandle,
}

fn build(seed: u64) -> Result<Deployment, Failure> {
    let mut rig = maintain_burst::build(seed, &VIEWS)?;
    let registry = rig.wh.enable_serving(RING_CAP);
    let handle = serve_listener("127.0.0.1:0", registry, SERVE_WORKERS)?;
    Ok(Deployment { rig, handle })
}

pub fn run(plan: &Plan) -> Result<RunOutput, Failure> {
    let mut out = RunOutput::default();
    let (dep, setup_s) = timed_setups(plan, || build(plan.seed), |d| d.handle.shutdown())?;
    out.e2e.insert("setup_s", setup_s);
    let Deployment { mut rig, handle } = dep;

    out.note_script(rig.site.spec.stream());
    let mut stream = rig.site.spec.stream();
    let prefix = plan.scaled(EXACT_PREFIX, BURST as u64);
    let addr = handle.addr();
    // The reader's window is the writer's: both open after the warm-up.
    // A traced reader records every read; one span per read costs nothing
    // beside the read.
    let from = Instant::now() + plan.warm_up();
    let views: Vec<u64> = (0..VIEWS.len() as u64).collect();
    let origin = Instant::now();
    let (driven, read) = std::thread::scope(|scope| {
        let reading = scope.spawn(|| {
            let mut tr = Tracer::new(plan.trace, origin);
            let stats = reader(addr, &views, from, from + plan.window, &mut tr);
            (stats, tr.into_trace())
        });
        let driven = drive_serial(&mut rig, &mut stream, BURST, prefix, plan, |_, _| Ok(()));
        (driven, reading.join())
    });
    let driven = driven?;
    let (stats, read_trace) = read.map_err(|_| Failure::new("the reader thread panicked"))?;
    let stats = stats?;
    out.check((rig.updates + rig.failed, rig.failed));
    out.maintenance(&driven.samples, plan.window, &driven.exact);
    out.reads(&stats, plan.window);

    // The oracle, through the serving path itself: a final strong read
    // of each view equals the definition on the final base state.
    let (checks, bad, expected) = rig.oracle()?;
    out.check((checks, bad));
    out.check(strong_reads_match(addr, &expected)?);

    if plan.trace {
        let parts = probes::serial_layers(&mut out, plan, &rig, &driven, BURST)?;
        probes::serving_layers(&mut out, &rig, &parts, &stats, plan.window, &read_trace)?;
    } else {
        out.e2e.insert("peak_rss_mb", driven.rss_at_prefix_mb);
    }
    handle.shutdown();
    Ok(out)
}
