//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around each call it makes into a
//! layer (a workspace crate); nothing inside the program is instrumented.
//! They stay in memory and are written once, at exit, as Chrome trace-event
//! JSON. A span's self time is its duration minus the part of its interval
//! that its child spans cover; children may nest and may overlap each other
//! (spans of concurrent client threads), so the covered part is the length of
//! the union of the children's intervals, clipped to the parent.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `fj-plan.optimize`.
    pub name: &'static str,
    /// Index of the span in its recorder.
    pub id: usize,
    /// The span that caused this one, if any.
    pub parent: Option<usize>,
    /// Recording thread (0 = main thread, client threads count up).
    pub tid: usize,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder. `begin` opens a span under the innermost open one;
/// `end` closes it.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    tid: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder whose timestamps count from `origin`, for thread `tid`.
    pub fn new(origin: Instant, tid: usize) -> Self {
        Recorder { origin, tid, spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.spans
            .push(Span { name, id, parent, tid: self.tid, start_ns, end_ns: start_ns });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close in reverse order of opening");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Adopt the spans another thread recorded (with the same origin) as
    /// children of span `parent` of this recorder.
    pub fn adopt(&mut self, other: Recorder, parent: usize) {
        assert!(other.open.is_empty(), "adopted recorders have no open spans");
        let base = self.spans.len();
        for mut s in other.spans {
            s.id += base;
            s.parent = Some(s.parent.map_or(parent, |p| p + base));
            self.spans.push(s);
        }
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, in nanoseconds, indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut iv)| s.dur_ns().saturating_sub(union_len(&mut iv)))
        .collect()
}

/// Total length of the union of half-open intervals.
fn union_len(iv: &mut [(u64, u64)]) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(lo, hi) in iv.iter() {
        match cur {
            Some((clo, chi)) if lo <= chi => cur = Some((clo, chi.max(hi))),
            Some((clo, chi)) => {
                total += chi - clo;
                cur = Some((lo, hi));
            }
            None => cur = Some((lo, hi)),
        }
    }
    total + cur.map_or(0, |(lo, hi)| hi - lo)
}

/// Self time summed per span name, in milliseconds.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0.0) += t as f64 / 1e6;
    }
    out
}

/// Chrome trace-event JSON (complete `X` events, microsecond timestamps),
/// loadable in Perfetto or `chrome://tracing`.
pub fn to_chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
            s.name,
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            parent
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name: "s", id, parent, tid: 0, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) > a [10,40) > b [20,30); root > c [50,60)
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 20, 30),
            span(3, Some(0), 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two concurrent children [10,50) and [30,70), plus one inside both
        // [35,45): covered = [10,70) = 60.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 50),
            span(2, Some(0), 30, 70),
            span(3, Some(0), 35, 45),
        ];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // A child that outlives its parent only covers the parent's part.
        let spans = vec![span(0, None, 0, 100), span(1, Some(0), 90, 150)];
        assert_eq!(self_times(&spans), vec![90, 60]);
    }

    #[test]
    fn recorder_nests_and_adopts() {
        let origin = Instant::now();
        let mut r = Recorder::new(origin, 0);
        let root = r.begin("root");
        r.time("child", || std::hint::black_box(1 + 1));
        let mut worker = Recorder::new(origin, 1);
        worker.time("remote", || ());
        r.adopt(worker, root);
        r.end(root);
        let names: Vec<_> = r.spans().iter().map(|s| (s.name, s.parent, s.tid)).collect();
        assert_eq!(names, vec![("root", None, 0), ("child", Some(0), 0), ("remote", Some(0), 1)]);
        let json = to_chrome_json(r.spans());
        assert!(json.starts_with("{\"traceEvents\":[{\"name\":\"root\",\"ph\":\"X\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
    }
}
