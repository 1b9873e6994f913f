//! The serial deployment: one `Source` and one `Warehouse` on one thread
//! over a `SharedFifo` pair, driven burst by burst.
//!
//! The loop below is `Warehouse::pump` and the source's answer loop
//! written out, so that a span can bracket every call into a layer's
//! public function — `Source::execute_update`, `Transport::send`,
//! `Transport::try_recv`, `Warehouse::on_message`, `Source::answer`. The
//! untraced run executes the same code with the tracer off.

use std::time::Instant;

use eca_relational::{SignedBag, Update};
use eca_warehouse::{SourceId, ViewId, Warehouse};
use eca_wire::{Message, SharedFifo, TransferMeter, Transport};

use crate::deploy::Site;
use crate::measure::Samples;
use crate::trace::Tracer;
use crate::Failure;

/// The paper's meters at one instant, as totals since the rig was built.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Meters {
    pub updates: u64,
    /// Queries plus answers (the paper's M; notifications excluded).
    pub msgs: u64,
    /// Answer payload bytes (the paper's B).
    pub answer_bytes: u64,
    /// Block reads charged to query evaluation (the paper's IO).
    pub io_reads: u64,
    /// Bytes on the channel, both directions, notifications included.
    pub wire_bytes: u64,
    pub queries: u64,
    pub terms: u64,
}

impl Meters {
    pub fn minus(&self, base: &Meters) -> Meters {
        Meters {
            updates: self.updates - base.updates,
            msgs: self.msgs - base.msgs,
            answer_bytes: self.answer_bytes - base.answer_bytes,
            io_reads: self.io_reads - base.io_reads,
            wire_bytes: self.wire_bytes - base.wire_bytes,
            queries: self.queries - base.queries,
            terms: self.terms - base.terms,
        }
    }

    pub fn plus(&self, other: &Meters) -> Meters {
        Meters {
            updates: self.updates + other.updates,
            msgs: self.msgs + other.msgs,
            answer_bytes: self.answer_bytes + other.answer_bytes,
            io_reads: self.io_reads + other.io_reads,
            wire_bytes: self.wire_bytes + other.wire_bytes,
            queries: self.queries + other.queries,
            terms: self.terms + other.terms,
        }
    }

    pub fn per_update(&self, total: u64) -> f64 {
        if self.updates == 0 {
            0.0
        } else {
            total as f64 / self.updates as f64
        }
    }
}

pub struct Rig {
    pub site: Site,
    pub wh: Warehouse,
    pub view_ids: Vec<ViewId>,
    pub src_end: SharedFifo,
    pub wh_end: SharedFifo,
    pub meter: TransferMeter,
    /// Effective updates executed and notified.
    pub updates: u64,
    pub queries: u64,
    pub terms: u64,
    /// Operations that failed: an update the source found ineffective.
    pub failed: u64,
    /// Most queries ever outstanding on the session.
    pub pending_peak: usize,
    /// Maintenance events the warehouse committed (one WAL record each
    /// when durability is on).
    pub events: u64,
}

pub const SRC: SourceId = SourceId(0);

impl Rig {
    pub fn new(site: Site, wh: Warehouse, view_ids: Vec<ViewId>) -> Rig {
        let meter = TransferMeter::new();
        let (src_end, wh_end) = SharedFifo::pair(meter.clone());
        Rig {
            site,
            wh,
            view_ids,
            src_end,
            wh_end,
            meter,
            updates: 0,
            queries: 0,
            terms: 0,
            failed: 0,
            pending_peak: 0,
            events: 0,
        }
    }

    pub fn meters(&self) -> Meters {
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

    /// Execute `burst` at the source and notify the warehouse of every
    /// update before anything is answered (the paper's compensation
    /// regime when the burst is longer than one). Returns how many
    /// updates were effective.
    pub fn send_burst(&mut self, burst: &[Update], tr: &mut Tracer) -> Result<u32, Failure> {
        let mut sent = 0;
        for u in burst {
            let effective = tr.span("source.execute_update", || {
                self.site.source.execute_update(u)
            });
            if !effective {
                self.failed += 1;
                continue;
            }
            let msg = Message::UpdateNotification { update: u.clone() };
            tr.span("wire.fifo_send", || self.src_end.send(&msg))?;
            self.updates += 1;
            sent += 1;
        }
        Ok(sent)
    }

    /// Deliver everything waiting at the warehouse end; queries it emits
    /// go back on the channel. Returns the number of messages processed.
    pub fn pump_warehouse(&mut self, tr: &mut Tracer) -> Result<usize, Failure> {
        let mut n = 0;
        while let Some(msg) = tr.span("wire.fifo_recv", || self.wh_end.try_recv())? {
            let name = match &msg {
                Message::QueryAnswer { answer, .. } => {
                    // As `Warehouse::pump`: the answer payload is the
                    // paper's B, charged where it arrives.
                    self.meter.record_answer_payload(
                        answer.encoded_len() as u64,
                        answer.pos_len() + answer.neg_len(),
                    );
                    "warehouse.on_message.answer"
                }
                _ => "warehouse.on_message.update",
            };
            let replies = tr.span(name, || self.wh.on_message(SRC, msg))?;
            self.events += 1;
            for reply in &replies {
                tr.span("wire.fifo_send", || self.wh_end.send(reply))?;
            }
            self.pending_peak = self.pending_peak.max(self.wh.session(SRC).pending());
            n += 1;
        }
        Ok(n)
    }

    /// Answer every query waiting at the source end on the source's
    /// current state. Returns the number answered.
    pub fn pump_source(&mut self, tr: &mut Tracer) -> Result<usize, Failure> {
        let mut n = 0;
        while let Some(msg) = tr.span("wire.fifo_recv", || self.src_end.try_recv())? {
            let Message::QueryRequest { id, query } = msg else {
                return Err(Failure::new("the warehouse sent the source a non-query"));
            };
            self.queries += 1;
            self.terms += query.terms.len() as u64;
            let answer = tr.span("source.answer", || self.site.source.answer(&query))?;
            let reply = Message::QueryAnswer { id, answer };
            tr.span("wire.fifo_send", || self.src_end.send(&reply))?;
            n += 1;
        }
        Ok(n)
    }

    /// Alternate the two ends until nothing moves and the warehouse is
    /// quiescent: every notification applied, every query answered.
    pub fn settle(&mut self, tr: &mut Tracer) -> Result<(), Failure> {
        loop {
            let moved = self.pump_warehouse(tr)? + self.pump_source(tr)?;
            if moved == 0 {
                if self.wh.is_quiescent() {
                    return Ok(());
                }
                return Err(Failure::new(
                    "channel idle but the warehouse still waits for an answer",
                ));
            }
        }
    }

    /// One closed-loop operation: a burst sent, then settled. The sample's
    /// latency runs from before the first `execute_update` until the
    /// warehouse is quiescent with the whole burst applied.
    pub fn burst(
        &mut self,
        burst: &[Update],
        tr: &mut Tracer,
        window_start: Instant,
        samples: &mut Samples,
    ) -> Result<(), Failure> {
        tr.next_op();
        let t0 = Instant::now();
        let root = tr.begin("settle");
        let sent = self.send_burst(burst, tr)?;
        self.settle(tr)?;
        tr.end(root);
        let t1 = Instant::now();
        samples.push(t1.saturating_duration_since(window_start), t1 - t0, sent, 0);
        Ok(())
    }

    /// The oracle: each materialized view equals `ViewDef::eval` on the
    /// source's current snapshot. Returns `(checks, mismatches)` and the
    /// expected bags.
    pub fn oracle(&self) -> Result<(u64, u64, Vec<SignedBag>), Failure> {
        let db = self.site.source.snapshot();
        let mut bad = 0;
        let mut expected = Vec::with_capacity(self.view_ids.len());
        for (view, id) in self.site.spec.views.iter().zip(&self.view_ids) {
            let want = view.eval(&db)?;
            bad += u64::from(*self.wh.materialized(*id) != want);
            expected.push(want);
        }
        Ok((expected.len() as u64, bad, expected))
    }

    /// Run closed-loop bursts of `burst_len` from `stream` until `until`.
    /// `on_burst` runs after each settled burst, outside the timed part.
    pub fn run_until(
        &mut self,
        stream: &mut crate::gen::UpdateStream,
        burst_len: usize,
        until: Instant,
        tr: &mut Tracer,
        mut on_burst: impl FnMut(&mut Rig, &[Update]) -> Result<(), Failure>,
    ) -> Result<Samples, Failure> {
        let start = Instant::now();
        let mut samples = Samples::default();
        while Instant::now() < until {
            let burst = stream.next_burst(burst_len);
            self.burst(&burst, tr, start, &mut samples)?;
            on_burst(self, &burst)?;
        }
        Ok(samples)
    }
}
