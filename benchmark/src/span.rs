//! The harness's in-memory span recorder. Spans are taken *around* the
//! calls into each layer's public functions — nothing inside the program is
//! instrumented — kept in a preallocated buffer, and written out when the
//! trial ends. One op's spans share its `op_id`; children name their parent.

use crate::json::Json;

/// Span names, indexed by [`SpanRec::name`]; also the `names` array of the
/// trace file.
pub const NAMES: [&str; 12] = [
    "client.op",
    "core.read_acq",
    "core.write_acq",
    "core.release",
    "file.lock",
    "file.io",
    "file.unlock",
    "server.lock_rpc",
    "server.io_rpc",
    "server.unlock_rpc",
    "server.grant",
    "metis.run",
];

/// Index of a span name in [`NAMES`]. `const`, so a call site binds it to
/// a constant and pays nothing per op; an unknown name fails the build.
pub const fn name_id(name: &str) -> u16 {
    let mut i = 0;
    while i < NAMES.len() {
        let (a, b) = (NAMES[i].as_bytes(), name.as_bytes());
        let mut same = a.len() == b.len();
        let mut j = 0;
        while same && j < a.len() {
            same = a[j] == b[j];
            j += 1;
        }
        if same {
            return i as u16;
        }
        i += 1;
    }
    panic!("unknown span name")
}

/// One recorded span. `parent == 0` marks a root (`client.op`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    pub op_id: u64,
    pub id: u32,
    pub parent: u32,
    pub name: u16,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Per-thread recorder. The driver switches it on for sampled ops only, so
/// an untraced op pays one predictable branch per call site.
#[derive(Debug)]
pub struct Tracer {
    active: bool,
    op_id: u64,
    root: u32,
    next_id: u32,
    spans: Vec<SpanRec>,
    capacity: usize,
    dropped: u64,
}

impl Tracer {
    /// A recorder for `thread` holding at most `capacity` spans; ids carry
    /// the thread in their top byte so they stay unique across threads.
    pub fn new(thread: usize, capacity: usize) -> Self {
        Tracer {
            active: false,
            op_id: 0,
            root: 0,
            next_id: ((thread as u32) << 24) + 1,
            spans: Vec::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    fn push(&mut self, rec: SpanRec) {
        if self.spans.len() < self.capacity {
            self.spans.push(rec);
        } else {
            self.dropped += 1;
        }
    }

    /// Starts recording op `op_id`: reserves the root span's id.
    pub fn begin_op(&mut self, op_id: u64) {
        self.active = true;
        self.op_id = op_id;
        self.root = self.next_id;
        self.next_id += 1;
    }

    /// Records the root `client.op` span and stops recording.
    pub fn end_op(&mut self, start_ns: u64, end_ns: u64) {
        self.push(SpanRec {
            op_id: self.op_id,
            id: self.root,
            parent: 0,
            name: 0,
            start_ns,
            dur_ns: end_ns - start_ns,
        });
        self.active = false;
    }

    /// Timestamp opening a child span — 0, and no clock read, when this op
    /// is not being recorded.
    #[inline]
    pub fn start(&self) -> u64 {
        if self.active {
            crate::sys::now_ns()
        } else {
            0
        }
    }

    /// Closes a child span opened at `start_ns` and returns the closing
    /// timestamp, which opens the next sibling.
    #[inline]
    pub fn span(&mut self, name: u16, start_ns: u64) -> u64 {
        if !self.active {
            return 0;
        }
        let end = crate::sys::now_ns();
        let id = self.next_id;
        self.next_id += 1;
        self.push(SpanRec {
            op_id: self.op_id,
            id,
            parent: self.root,
            name,
            start_ns,
            dur_ns: end - start_ns,
        });
        end
    }

    /// Spans that did not fit the buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<SpanRec> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval its
/// children cover (overlapping children are counted once). Returned in the
/// order of `spans`.
pub fn self_ns(spans: &[SpanRec]) -> Vec<u64> {
    use std::collections::HashMap;
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.start_ns + s.dur_ns));
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.dur_ns;
            };
            kids.sort_unstable();
            let (lo, hi) = (s.start_ns, s.start_ns + s.dur_ns);
            let mut covered = 0;
            let mut reach = lo;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(hi));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns - covered
        })
        .collect()
}

/// The trace file: span names once, then one row per span in `columns`
/// order.
pub fn trace_json(workload: &str, seed: u64, dropped: u64, spans: &[SpanRec]) -> Json {
    let selfs = self_ns(spans);
    let rows = spans
        .iter()
        .zip(&selfs)
        .map(|(s, own)| {
            Json::Arr(
                [
                    s.op_id,
                    u64::from(s.id),
                    u64::from(s.parent),
                    u64::from(s.name),
                    s.start_ns,
                    s.dur_ns,
                    *own,
                ]
                .iter()
                .map(|v| Json::Num(*v as f64))
                .collect(),
            )
        })
        .collect();
    let strs = |v: &[&str]| Json::Arr(v.iter().map(|s| Json::Str(s.to_string())).collect());
    Json::obj([
        ("workload", Json::Str(workload.to_string())),
        ("seed", Json::Num(seed as f64)),
        ("spans_dropped", Json::Num(dropped as f64)),
        ("names", strs(&NAMES)),
        (
            "columns",
            strs(&[
                "op_id",
                "span_id",
                "parent_id",
                "name",
                "start_ns",
                "dur_ns",
                "self_ns",
            ]),
        ),
        ("spans", Json::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u32, parent: u32, start_ns: u64, dur_ns: u64) -> SpanRec {
        SpanRec {
            op_id: 7,
            id,
            parent,
            name: 0,
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        // root [0,100): children [10,30), [20,50) (overlap) and [60,70);
        // grandchild [12,20) under the first child.
        let spans = [
            rec(1, 0, 0, 100),
            rec(2, 1, 10, 20),
            rec(3, 1, 20, 30),
            rec(4, 1, 60, 10),
            rec(5, 2, 12, 8),
        ];
        // Children cover [10,50) ∪ [60,70) = 50 of the root's 100.
        assert_eq!(self_ns(&spans), [50, 12, 30, 10, 8]);
    }

    #[test]
    fn tracer_links_children_to_the_root_and_counts_drops() {
        let mut tr = Tracer::new(2, 3);
        assert_eq!(tr.start(), 0, "inactive tracer reads no clock");
        assert_eq!(tr.span(1, 0), 0);
        tr.begin_op(42);
        let t0 = tr.start();
        let t1 = tr.span(name_id("file.lock"), t0);
        let t2 = tr.span(name_id("file.io"), t1);
        tr.end_op(t0, t2);
        tr.begin_op(43);
        let t = tr.start();
        tr.span(1, t); // fourth span: over capacity
        assert_eq!(tr.dropped(), 1);
        let spans = tr.into_spans();
        assert_eq!(spans.len(), 3);
        let root = spans[2];
        assert_eq!((root.parent, root.op_id, root.id >> 24), (0, 42, 2));
        assert!(spans[..2]
            .iter()
            .all(|s| s.parent == root.id && s.op_id == 42));
    }
}
