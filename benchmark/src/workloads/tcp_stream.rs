//! `tcp_stream` — `into_reactor(2).run_listener` on loopback; two sources,
//! each with its own `r1`, `r2` of 1,000 rows and two small ECA views,
//! each driven by one generator thread over `connect_source` in closed
//! loop, one update at a time.
//!
//! Why: answers are a few tuples, so `wire` (`TcpTransport`,
//! `FrameDecoder`, `Poller`) and `warehouse::reactor`/`session` dominate
//! while `relational`, `core` and `storage` are nearly idle — the harness
//! for the reactor-versus-threads question and the no-regression proof for
//! a runtime collapse.
//!
//! `run_listener` must be told how many notifications each source will
//! send, and a run is bounded by time, so the window is a sequence of
//! rounds of [`ROUND_UPDATES`] updates per source on the same reactor:
//! every round binds a listener, both sources dial in, stream, and the
//! reactor returns once both channels have settled.

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

use eca_warehouse::{connect_source, ReactorWarehouse, SourceId, ViewId};
use eca_wire::{Message, Poller, TransferMeter, Transport};

use crate::deploy::{warehouse_over, Initial, Site, SiteSpec};
use crate::gen::UpdateStream;
use crate::measure::Samples;
use crate::phases::{peak_rss_mb, timed_setups};
use crate::probes;
use crate::rig::Meters;
use crate::trace::{Trace, Tracer};
use crate::workloads::{Overhead, Plan, RunOutput};
use crate::Failure;

pub const SOURCES: usize = 2;
pub const WORKERS: usize = 2;
pub const ROUND_UPDATES: u64 = 2_000;
/// Updates per source the exact counts are taken over.
pub const EXACT_PREFIX: u64 = 8_000;
/// Longest the reactor waits on a silent channel before it gives up; a
/// generator thread that failed must not hang the run.
const STALL: Duration = Duration::from_secs(10);

struct Deployment {
    sites: Vec<Site>,
    reactor: ReactorWarehouse,
    view_ids: Vec<Vec<ViewId>>,
    poller: Arc<Poller>,
}

fn build(seed: u64) -> Result<Deployment, Failure> {
    let sites = (0..SOURCES)
        .map(|k| SiteSpec::small(seed, k)?.build())
        .collect::<Result<Vec<_>, _>>()?;
    let (wh, view_ids) = warehouse_over(&sites.iter().collect::<Vec<_>>(), Initial::Evaluated)?;
    let mut reactor = wh.into_reactor(WORKERS);
    reactor.set_stall_timeout(STALL);
    Ok(Deployment {
        sites,
        reactor,
        view_ids,
        poller: Poller::new()?,
    })
}

/// One source's generator: its site, its stream and what it has counted.
struct Generator {
    k: usize,
    site: Site,
    stream: UpdateStream,
    meter: TransferMeter,
    tr: Tracer,
    samples: Samples,
    updates: u64,
    queries: u64,
    terms: u64,
    prefix: u64,
    /// Meters and `VmHWM` when this generator reached the prefix.
    exact: Option<(Meters, f64)>,
    /// While set, settle samples are taken relative to it.
    window_start: Option<Instant>,
}

impl Generator {
    fn meters(&self) -> Meters {
        Meters {
            updates: self.updates,
            msgs: self.meter.total_messages_excluding(self.updates),
            answer_bytes: self.meter.answer_bytes(),
            io_reads: self.site.source.io_meter().query_reads(),
            wire_bytes: self.meter.bytes_s2w() + self.meter.bytes_w2s(),
            queries: self.queries,
            terms: self.terms,
        }
    }

    /// Dial the warehouse and stream `n` updates in closed loop: execute,
    /// notify, answer the queries the update causes, then the next. The
    /// settle time of an update ends when its last answer has been handed
    /// to the transport. Time spent blocked in `recv` is left to the
    /// `settle` span's self time: it is the warehouse's turn — reactor,
    /// poller and maintenance — seen from outside.
    fn round(&mut self, addr: SocketAddr, n: u64) -> Result<(), Failure> {
        let mut link = connect_source(addr, SourceId(self.k), self.meter.clone())?;
        for _ in 0..n {
            let tr = &mut self.tr;
            let update = self.stream.next_update();
            tr.next_op();
            let t0 = Instant::now();
            let root = tr.begin("settle");
            if !tr.span("source.execute_update", || {
                self.site.source.execute_update(&update)
            }) {
                return Err(Failure::new("an update was ineffective"));
            }
            let expect = self.site.spec.queries_for(&update.relation);
            let note = Message::UpdateNotification { update };
            tr.span("wire.tcp_send", || link.send(&note))?;
            for _ in 0..expect {
                let Some(Message::QueryRequest { id, query }) = link.recv()? else {
                    return Err(Failure::new("expected a query from the warehouse"));
                };
                self.queries += 1;
                self.terms += query.terms.len() as u64;
                let answer = tr.span("source.answer", || self.site.source.answer(&query))?;
                link.meter().record_answer_payload(
                    answer.encoded_len() as u64,
                    answer.pos_len() + answer.neg_len(),
                );
                let reply = Message::QueryAnswer { id, answer };
                tr.span("wire.tcp_send", || link.send(&reply))?;
            }
            tr.end(root);
            let t1 = Instant::now();
            self.updates += 1;
            if let Some(start) = self.window_start {
                self.samples
                    .push(t1.saturating_duration_since(start), t1 - t0, 1, 0);
            }
            if self.exact.is_none() && self.updates == self.prefix {
                self.exact = Some((self.meters(), peak_rss_mb()));
            }
        }
        // Stay connected until the warehouse, settled, hangs up.
        while link.recv()?.is_some() {}
        Ok(())
    }
}

/// One round: both generators stream `n` updates while the reactor runs.
fn round(dep: &Deployment, gens: &mut [Generator], n: u64) -> Result<(), Failure> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let expected = vec![n; gens.len()];
    std::thread::scope(|scope| {
        let dialing: Vec<_> = gens
            .iter_mut()
            .map(|g| scope.spawn(move || g.round(addr, n)))
            .collect();
        let ran = dep.reactor.run_listener(listener, &dep.poller, &expected);
        for d in dialing {
            d.join()
                .map_err(|_| Failure::new("a generator thread panicked"))??;
        }
        ran?;
        Ok(())
    })
}

/// Rounds until `until`. When `trace` is set, tracing is on in every
/// second round (untraced first), and the update rate of each round is
/// pushed to `rates.0` (untraced) or `rates.1` (traced). Returns the
/// meters over the rounds whose samples were kept: all of them when
/// untraced, the traced ones otherwise.
fn rounds_until(
    dep: &Deployment,
    gens: &mut [Generator],
    until: Instant,
    trace: bool,
    rates: &mut (Vec<f64>, Vec<f64>),
) -> Result<Meters, Failure> {
    let start = Instant::now();
    let total = |gens: &[Generator]| {
        gens.iter()
            .fold(Meters::default(), |acc, g| acc.plus(&g.meters()))
    };
    let mut during = Meters::default();
    let mut k = 0;
    while Instant::now() < until {
        let on = trace && k % 2 == 1;
        k += 1;
        for g in gens.iter_mut() {
            g.tr.set_on(on);
            g.window_start = (on || !trace).then_some(start);
        }
        let before = total(gens);
        let began = Instant::now();
        round(dep, gens, ROUND_UPDATES)?;
        let rate = (gens.len() as u64 * ROUND_UPDATES) as f64 / began.elapsed().as_secs_f64();
        if on {
            rates.1.push(rate);
        } else {
            rates.0.push(rate);
        }
        if on || !trace {
            during = during.plus(&total(gens).minus(&before));
        }
    }
    Ok(during)
}

fn all_samples(gens: &[Generator]) -> Samples {
    Samples(
        gens.iter()
            .flat_map(|g| g.samples.0.iter().copied())
            .collect(),
    )
}

pub fn run(plan: &Plan) -> Result<RunOutput, Failure> {
    let mut out = RunOutput::default();
    let (mut dep, setup_s) = timed_setups(plan, || build(plan.seed), drop)?;
    out.e2e.insert("setup_s", setup_s);

    let origin = Instant::now();
    let prefix = plan.scaled(EXACT_PREFIX, 1);
    let mut gens: Vec<Generator> = std::mem::take(&mut dep.sites)
        .into_iter()
        .enumerate()
        .map(|(k, site)| Generator {
            k,
            stream: site.spec.stream(),
            site,
            meter: TransferMeter::new(),
            tr: Tracer::new(false, origin),
            samples: Samples::default(),
            updates: 0,
            queries: 0,
            terms: 0,
            prefix,
            exact: None,
            window_start: None,
        })
        .collect();

    out.note_script(gens[0].site.spec.stream());
    // Warm-up: one short round opens the path end to end.
    round(&dep, &mut gens, ROUND_UPDATES / 8)?;
    let mut rates = (Vec::new(), Vec::new());
    let until = Instant::now() + plan.window;
    let during = rounds_until(&dep, &mut gens, until, plan.trace, &mut rates)?;
    let overhead = Overhead::of(&rates.0, &rates.1);
    let samples = all_samples(&gens);
    let at_prefix: Vec<(Meters, f64)> = gens
        .iter()
        .map(|g| g.exact.unwrap_or_else(|| (g.meters(), peak_rss_mb())))
        .collect();
    let exact = at_prefix
        .iter()
        .fold(Meters::default(), |acc, (m, _)| acc.plus(m));
    // The mark is monotone: the later generator's reading is the larger.
    let rss_at_prefix_mb = at_prefix.iter().map(|(_, r)| *r).fold(0.0, f64::max);
    out.attempted += gens.iter().map(|g| g.updates).sum::<u64>();
    out.maintenance(&samples, plan.window, &exact);

    // The oracle: every view equals its definition on its site's final
    // base state.
    for (g, ids) in gens.iter().zip(&dep.view_ids) {
        let db = g.site.source.snapshot();
        for (view, id) in g.site.spec.views.iter().zip(ids) {
            out.check((
                1,
                u64::from(dep.reactor.materialized(*id) != view.eval(&db)?),
            ));
        }
    }

    if plan.trace {
        let mut trace = Trace::default();
        for g in &mut gens {
            let tr = std::mem::replace(&mut g.tr, Tracer::off());
            trace.merge(tr.into_trace());
        }
        let view_bag = dep.reactor.materialized(dep.view_ids[0][0]);
        probes::tcp_layers(
            &mut out,
            plan,
            &gens[0].site,
            &view_bag,
            &trace,
            &during,
            overhead,
        )?;
    } else {
        out.e2e.insert("peak_rss_mb", rss_at_prefix_mb);
    }
    Ok(out)
}
