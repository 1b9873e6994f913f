//! In-memory span recorder for the traced repetition.
//!
//! The benchmark measures each layer from outside: a span brackets a call
//! the harness itself makes into a crate's public function. Spans are
//! `{name, op_id, parent, start_ns, end_ns}`; spans of one operation (one
//! burst, one read) share `op_id`, and `parent` is the index of the span
//! that was open when this one began (-1 for a root). A layer's self time
//! is its span's duration minus the part its child spans cover. Each
//! thread records into its own `Tracer`; they are merged when the run
//! ends and written to `benchmark/out/trace-<workload>.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::json::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: u16,
    pub op_id: u32,
    pub parent: i32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Clone, Copy)]
pub struct Open(i32);

pub struct Tracer {
    on: bool,
    origin: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
    /// Index of the innermost open span, -1 when none.
    current: i32,
    op_id: u32,
}

impl Tracer {
    /// A recorder whose clock starts at `origin`. With `on == false`
    /// every call is a branch and nothing else.
    pub fn new(on: bool, origin: Instant) -> Self {
        Tracer {
            on,
            origin,
            names: Vec::new(),
            spans: Vec::new(),
            current: -1,
            op_id: 0,
        }
    }

    /// A recorder that records nothing.
    pub fn off() -> Self {
        Tracer::new(false, Instant::now())
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn name_id(&mut self, name: &'static str) -> u16 {
        // Pointer comparison first: call sites pass literals, so the
        // common case is a hit on the first few entries.
        if let Some(i) = self
            .names
            .iter()
            .position(|n| std::ptr::eq(*n, name) || *n == name)
        {
            return i as u16;
        }
        self.names.push(name);
        (self.names.len() - 1) as u16
    }

    /// Start a new operation: spans begun from now on carry a fresh id.
    pub fn next_op(&mut self) {
        self.op_id = self.op_id.wrapping_add(1);
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(-1);
        }
        let name = self.name_id(name);
        let idx = self.spans.len() as i32;
        self.spans.push(Span {
            name,
            op_id: self.op_id,
            parent: self.current,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.current = idx;
        Open(idx)
    }

    #[inline]
    pub fn end(&mut self, open: Open) {
        if open.0 < 0 {
            return;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        let span = &mut self.spans[open.0 as usize];
        span.end_ns = now;
        self.current = span.parent;
    }

    /// Time `f` under a span called `name`.
    #[inline]
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    pub fn into_trace(self) -> Trace {
        Trace {
            names: self.names.iter().map(|s| (*s).to_owned()).collect(),
            spans: self.spans,
        }
    }
}

/// A finished set of spans with their name table.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    pub names: Vec<String>,
    pub spans: Vec<Span>,
}

/// Per-name aggregate of a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl LayerTime {
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / 1e3
        }
    }

    pub fn mean_self_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / 1e3
        }
    }
}

impl Trace {
    /// Append another thread's spans, remapping names, parents and op ids
    /// so they stay distinct.
    pub fn merge(&mut self, other: Trace) {
        let base = self.spans.len() as i32;
        let op_base = self.spans.iter().map(|s| s.op_id).max().unwrap_or(0);
        let map: Vec<u16> = other
            .names
            .iter()
            .map(|n| match self.names.iter().position(|m| m == n) {
                Some(i) => i as u16,
                None => {
                    self.names.push(n.clone());
                    (self.names.len() - 1) as u16
                }
            })
            .collect();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            name: map[s.name as usize],
            op_id: s.op_id + op_base,
            parent: if s.parent < 0 { -1 } else { s.parent + base },
            ..s
        }));
    }

    /// Total and self time per span name. Self time is the span's duration
    /// minus the durations of its direct children (children never overlap:
    /// one thread, strictly nested).
    pub fn layer_times(&self) -> BTreeMap<String, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent >= 0 {
                child_ns[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<String, LayerTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let e = out.entry(self.names[s.name as usize].clone()).or_default();
            e.calls += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(child_ns[i]);
        }
        out
    }

    /// The trace file: JSON with a name table, the run's counts, and one
    /// `[name, op_id, parent, start_ns, end_ns]` row per span (`fields`
    /// names the columns; `name` indexes `names`). `spans` comes last and
    /// is written and read row by row — a traced window holds around a
    /// million spans, too many for a generic document tree.
    pub fn to_text(&self, counts: &BTreeMap<String, f64>) -> String {
        let head = Json::obj([
            (
                "fields",
                Json::arr(
                    ["name", "op_id", "parent", "start_ns", "end_ns"]
                        .into_iter()
                        .map(Json::str),
                ),
            ),
            ("names", Json::arr(self.names.iter().map(Json::str))),
            (
                "counts",
                Json::Obj(
                    counts
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ])
        .to_string();
        let mut text = String::with_capacity(head.len() + self.spans.len() * 40);
        text.push_str(head.strip_suffix('}').expect("an object"));
        text.push_str(SPANS_KEY);
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            write!(
                text,
                "{sep}[{},{},{},{},{}]",
                s.name, s.op_id, s.parent, s.start_ns, s.end_ns
            )
            .expect("write to String");
        }
        text.push_str("\n]}\n");
        text
    }

    /// Read a trace file back. `None` when the text is not a trace.
    pub fn from_text(text: &str) -> Option<(Trace, BTreeMap<String, f64>)> {
        let at = text.find(SPANS_KEY)?;
        let head = Json::parse(&format!("{}}}", &text[..at])).ok()?;
        let names = head
            .get("names")?
            .as_arr()?
            .iter()
            .map(|n| n.as_str().map(str::to_owned))
            .collect::<Option<Vec<_>>>()?;
        let counts = head
            .get("counts")?
            .as_obj()?
            .iter()
            .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
            .collect::<Option<BTreeMap<_, _>>>()?;
        let numbers = text[at + SPANS_KEY.len()..]
            .split(|c: char| !(c.is_ascii_digit() || c == '-'))
            .filter(|t| !t.is_empty())
            .map(|t| t.parse::<i64>().ok())
            .collect::<Option<Vec<_>>>()?;
        if numbers.len() % 5 != 0 {
            return None;
        }
        let spans = numbers
            .chunks_exact(5)
            .map(|r| Span {
                name: r[0] as u16,
                op_id: r[1] as u32,
                parent: r[2] as i32,
                start_ns: r[3] as u64,
                end_ns: r[4] as u64,
            })
            .collect::<Vec<_>>();
        if spans.iter().any(|s| s.name as usize >= names.len()) {
            return None;
        }
        Some((Trace { names, spans }, counts))
    }
}

const SPANS_KEY: &str = ",\"spans\":[";

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(spans: &[(u16, i32, u64, u64)]) -> Trace {
        Trace {
            names: vec!["settle".into(), "a".into(), "b".into()],
            spans: spans
                .iter()
                .map(|&(name, parent, start_ns, end_ns)| Span {
                    name,
                    op_id: 1,
                    parent,
                    start_ns,
                    end_ns,
                })
                .collect(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // settle [0,100] ⊃ a [10,40] ⊃ b [15,25]; settle ⊃ a [50,90].
        let t = trace(&[
            (0, -1, 0, 100),
            (1, 0, 10, 40),
            (2, 1, 15, 25),
            (1, 0, 50, 90),
        ]);
        let l = t.layer_times();
        assert_eq!(
            l["settle"],
            LayerTime {
                calls: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(
            l["a"],
            LayerTime {
                calls: 2,
                total_ns: 70,
                self_ns: 60
            }
        );
        assert_eq!(l["b"].self_ns, 10);
        // Self times partition the root's duration.
        assert_eq!(l.values().map(|x| x.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true, Instant::now());
        t.next_op();
        let root = t.begin("settle");
        t.span("a", || ());
        t.span("a", || ());
        t.end(root);
        let tr = t.into_trace();
        assert_eq!(tr.spans.len(), 3);
        assert_eq!(tr.spans[1].parent, 0);
        assert_eq!(tr.spans[2].parent, 0);
        assert!(tr
            .spans
            .iter()
            .all(|s| s.op_id == 1 && s.end_ns >= s.start_ns));

        let mut off = Tracer::new(false, Instant::now());
        let o = off.begin("settle");
        off.end(o);
        assert!(off.into_trace().spans.is_empty());
    }

    #[test]
    fn merge_keeps_parents_and_ops_apart_and_file_round_trips() {
        let mut a = trace(&[(0, -1, 0, 10), (1, 0, 2, 4)]);
        let mut b = trace(&[(0, -1, 0, 8), (2, 0, 1, 3)]);
        b.names = vec!["read".into(), "x".into(), "y".into()];
        a.merge(b);
        assert_eq!(a.spans[3].parent, 2);
        assert_eq!(a.spans[2].op_id, 2);
        assert_eq!(a.names[a.spans[3].name as usize], "y");
        let counts = BTreeMap::from([("n".to_owned(), 3.0)]);
        let text = a.to_text(&counts);
        assert!(Json::parse(&text).is_ok(), "the trace file is plain JSON");
        let (back, c) = Trace::from_text(&text).unwrap();
        assert_eq!(back, a);
        assert_eq!(c, counts);
    }
}
