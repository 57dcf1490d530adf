//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's side of each call into the
//! system (tracing inside the program is a later change), kept in memory,
//! and written out once at the end of the run. A recorder belongs to one
//! thread; recorders of several threads share a time origin and are
//! merged before writing.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::{push_num, push_str_lit};

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one; `None` for a root.
    pub parent: Option<u32>,
    /// Shared by every span of one operation.
    pub op: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Durations, in seconds, of the spans called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .collect()
}

/// Handle returned by [`Recorder::enter`]; pass it back to
/// [`Recorder::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    /// A recorder measuring from `origin`. With `on == false` every call
    /// is a no-op, so untraced passes run the very same code.
    pub fn new(origin: Instant, on: bool) -> Self {
        Recorder {
            origin,
            on,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recorder for another thread of the same run: same origin, same
    /// on/off state, no spans yet.
    pub fn fork(&self) -> Self {
        Recorder::new(self.origin, self.on)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes a span; spans close in the reverse of the order they opened.
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must nest");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Records `f` as one span and also returns how long it took, so the
    /// caller's own statistic and the trace agree on the interval.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.enter(name, op);
        let t = Instant::now();
        let r = f();
        let secs = t.elapsed().as_secs_f64();
        self.exit(open);
        (r, secs)
    }

    /// Appends another thread's spans, re-basing their parent links.
    pub fn merge(&mut self, other: Recorder) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part of the interval child spans cover.
    pub self_ns: u64,
}

/// Self time per span name. Children may overlap each other (work on two
/// threads under one root), so the covered part is the union of their
/// intervals clipped to the parent, not the sum of their lengths.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = s.start_ns;
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(reach), b.min(s.end_ns));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let total = s.end_ns - s.start_ns;
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += total;
        e.self_ns += total - covered;
    }
    out
}

/// Renders the trace file: every span plus the per-name self times.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = String::from("{\"workload\": ");
    push_str_lit(&mut out, workload);
    out.push_str(&format!(", \"seed\": {seed}, \"self_time\": {{"));
    for (k, (name, st)) in self_times(spans).iter().enumerate() {
        if k > 0 {
            out.push_str(", ");
        }
        push_str_lit(&mut out, name);
        out.push_str(&format!(
            ": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
            st.count, st.total_ns, st.self_ns
        ));
    }
    out.push_str("}, \"spans\": [\n");
    for (k, s) in spans.iter().enumerate() {
        if k > 0 {
            out.push_str(",\n");
        }
        out.push_str("{\"name\": ");
        push_str_lit(&mut out, s.name);
        out.push_str(&format!(
            ", \"start_ns\": {}, \"end_ns\": {}, \"op\": {}, \"parent\": ",
            s.start_ns, s.end_ns, s.op
        ));
        match s.parent {
            Some(p) => push_num(&mut out, f64::from(p)),
            None => out.push_str("null"),
        }
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 20, 30, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        let st = self_times(&spans);
        assert_eq!(st["root"].self_ns, 100 - 30 - 40);
        assert_eq!(st["a"].self_ns, 30 - 10);
        assert_eq!(st["a.inner"].self_ns, 10);
        assert_eq!(st["b"].total_ns, 40);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two children overlap on [30, 50) and one pokes past the parent.
        let spans = [
            span("root", 0, 100, None),
            span("x", 10, 50, Some(0)),
            span("y", 30, 70, Some(0)),
            span("z", 90, 120, Some(0)),
        ];
        // Covered: [10, 70) and [90, 100) = 70.
        assert_eq!(self_times(&spans)["root"].self_ns, 30);
    }

    #[test]
    fn recorder_links_parents_and_ops() {
        let mut rec = Recorder::new(Instant::now(), true);
        let root = rec.enter("event", 7);
        let (v, secs) = rec.time("stage", 7, || 41 + 1);
        rec.exit(root);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        let s = rec.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert!(s.iter().all(|s| s.op == 7));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn off_recorder_records_nothing() {
        let mut rec = Recorder::new(Instant::now(), false);
        let o = rec.enter("a", 1);
        rec.exit(o);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn merge_rebases_parents_and_json_parses() {
        let mut a = Recorder::new(Instant::now(), true);
        let o = a.enter("a", 1);
        a.exit(o);
        let mut b = Recorder::new(Instant::now(), true);
        let root = b.enter("b", 2);
        let kid = b.enter("b.kid", 2);
        b.exit(kid);
        b.exit(root);
        a.merge(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        let doc = Json::parse(&to_json("w", 3, a.spans())).unwrap();
        let spans = doc.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(spans.len(), 3);
        // Every span has a parent or is a root.
        for s in spans {
            let p = s.get("parent").unwrap();
            assert!(*p == Json::Null || p.as_f64().is_some_and(|p| (p as usize) < 3));
        }
        assert!(doc.get("self_time").and_then(|s| s.get("b.kid")).is_some());
    }
}
