//! `maintain_burst` — the serial `Warehouse` and `Source` on one thread
//! over a `SharedFifo`, all four views, closed-loop bursts of eight
//! updates that all reach the warehouse before the source answers
//! anything: the paper's compensation regime.
//!
//! Why: `core`, `relational`, `storage`, `source` and the codec do nearly
//! all the work; publish, the WAL, the serving tier, TCP and the reactor
//! do none. It is the control for every serving, durability and network
//! change.

use crate::deploy::{warehouse_over, Initial, SiteSpec};
use crate::phases::timed_setups;
use crate::probes;
use crate::rig::Rig;
use crate::workloads::{drive_serial, Plan, RunOutput};
use crate::Failure;

pub const BURST: usize = 8;
/// Updates of the script the exact counts (M, B, IO) are taken over.
pub const EXACT_PREFIX: u64 = 16_000;
pub const VIEWS: [usize; 4] = [0, 1, 2, 3];

pub fn build(seed: u64, which: &[usize]) -> Result<Rig, Failure> {
    let site = SiteSpec::main(seed, which)?.build()?;
    let (wh, mut ids) = warehouse_over(&[&site], Initial::Evaluated)?;
    Ok(Rig::new(site, wh, ids.remove(0)))
}

pub fn run(plan: &Plan) -> Result<RunOutput, Failure> {
    let mut out = RunOutput::default();
    let (mut rig, setup_s) = timed_setups(plan, || build(plan.seed, &VIEWS), drop)?;
    out.e2e.insert("setup_s", setup_s);

    out.note_script(rig.site.spec.stream());
    let mut stream = rig.site.spec.stream();
    let prefix = plan.scaled(EXACT_PREFIX, BURST as u64);
    let driven = drive_serial(&mut rig, &mut stream, BURST, prefix, plan, |_, _| Ok(()))?;
    out.check((rig.updates + rig.failed, rig.failed));
    out.maintenance(&driven.samples, plan.window, &driven.exact);

    if plan.trace {
        let parts = probes::serial_layers(&mut out, plan, &rig, &driven, BURST)?;
        // Nothing but the maintainers runs inside `on_message` here.
        out.layer(
            "warehouse.residual_us",
            parts.on_message_us_per_update - parts.core_us_per_update,
        );
    } else {
        out.e2e.insert("peak_rss_mb", driven.rss_at_prefix_mb);
    }

    let (checks, bad, _) = rig.oracle()?;
    out.check((checks, bad));
    Ok(out)
}
