//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer of
//! the program: name, start, end and the span that was open when it began.
//! Those spans nest on the driving thread, so a span's self time is its
//! duration minus the part its children cover, and the self times of one
//! tree add up to the root's duration. Per-request spans of the serving
//! workload overlap each other; they are recorded beside the tree with
//! their request id and never enter the self-time sum. Everything is kept
//! in memory and written out once, when the run ends.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Span {
    /// `layer.call`; the layer is the part before the first dot.
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Request id, for per-request spans of the serving workload.
    pub request: Option<u64>,
}

impl Span {
    /// The layer this span times (text before the first dot).
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<Span>,
    /// Open spans of the driving thread, innermost last.
    stack: Vec<usize>,
}

/// The recorder. When off, [`Tracer::scope`] only runs its closure.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Tracer {
    /// A recorder that records only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span of the driving thread.
    pub fn scope<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = self.ns(Instant::now());
        let id = {
            let mut inner = self.inner.lock().expect("span recorder poisoned");
            let parent = inner.stack.last().copied();
            inner.spans.push(Span {
                name: name.to_owned(),
                parent,
                start,
                end: start,
                request: None,
            });
            let id = inner.spans.len() - 1;
            inner.stack.push(id);
            id
        };
        let out = f();
        let end = self.ns(Instant::now());
        let mut inner = self.inner.lock().expect("span recorder poisoned");
        inner.spans[id].end = end;
        let popped = inner.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans must close innermost first");
        out
    }

    /// Records a finished per-request span (any thread); its parent is the
    /// innermost open span of the driving thread.
    pub(crate) fn request(&self, name: &str, request: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let (start, end) = (self.ns(start), self.ns(end));
        let mut inner = self.inner.lock().expect("span recorder poisoned");
        let parent = inner.stack.last().copied();
        inner.spans.push(Span {
            name: name.to_owned(),
            parent,
            start,
            end: end.max(start),
            request: Some(request),
        });
    }

    /// Every span recorded so far, in opening order.
    pub(crate) fn spans(&self) -> Vec<Span> {
        self.inner
            .lock()
            .expect("span recorder poisoned")
            .spans
            .clone()
    }
}

/// Self time of every span in ns: its duration minus the union of its
/// children's intervals, clipped to it. Per-request spans are neither
/// given self time nor subtracted from their parents.
pub(crate) fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans.iter().filter(|s| s.request.is_none()) {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            if s.request.is_some() {
                return 0;
            }
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Sums self time per layer, in ms, over the layers named in `layers`
/// (spans of any other layer are attributed to the first entry).
pub(crate) fn layer_self_ms(spans: &[Span], layers: &[&str]) -> Vec<f64> {
    let mut out = vec![0.0; layers.len()];
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let i = layers.iter().position(|&l| l == s.layer()).unwrap_or(0);
        out[i] += t as f64 / 1e6;
    }
    out
}

/// The spans as a JSON document (times in µs, with self time).
pub(crate) fn to_json(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::from("{\"spans\": [\n");
    for (i, (s, st)) in spans.iter().zip(selfs).enumerate() {
        let _ = write!(
            out,
            "  {{\"id\": {i}, \"parent\": {}, \"name\": \"{}\", \"start_us\": {:.3}, \
             \"end_us\": {:.3}, \"self_us\": {:.3}, \"request\": {}}}",
            s.parent.map_or("null".into(), |p| p.to_string()),
            s.name,
            s.start as f64 / 1e3,
            s.end as f64 / 1e3,
            st as f64 / 1e3,
            s.request.map_or("null".into(), |r| r.to_string()),
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name: name.into(),
            parent,
            start,
            end,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("bench.run", None, 0, 100),
            span("cluster.new", Some(0), 10, 30),
            span("cluster.run", Some(0), 40, 90),
            span("obs.encode", Some(2), 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
        // The tree's self times add up to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("serve.open_loop", None, 0, 100),
            span("serve.a", Some(0), 10, 50),
            span("serve.b", Some(0), 30, 70),
            // Overhangs its parent's end: only [90, 100) is subtracted.
            span("serve.c", Some(0), 90, 120),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn request_spans_stay_out_of_the_self_time_tree() {
        let mut spans = vec![span("serve.open_loop", None, 0, 100)];
        spans.push(Span {
            request: Some(7),
            ..span("serve.request", Some(0), 20, 80)
        });
        assert_eq!(self_times(&spans), vec![100, 0]);
    }

    #[test]
    fn recorder_nests_scopes() {
        let t = Tracer::new(true);
        t.scope("bench.run", || {
            t.scope("cluster.new", || ());
            t.scope("cluster.run", || t.scope("obs.encode", || ()));
        });
        let spans = t.spans();
        let parents: Vec<Option<usize>> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2)]);
        let root = spans[0].end - spans[0].start;
        assert_eq!(self_times(&spans).iter().sum::<u64>(), root);
        assert_eq!(spans[3].layer(), "obs");
    }

    #[test]
    fn off_recorder_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.scope("bench.run", || 5), 5);
        assert!(t.spans().is_empty());
    }
}
