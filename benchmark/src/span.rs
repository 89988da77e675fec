//! In-memory spans around the benchmark's calls into each layer.
//!
//! A *span* is one call (or one phase made of calls) with a real start and
//! end. A *leaf* is a call made thousands of times under one parent — one
//! `ThreadMemory::commit` per sub-computation, say: all leaves of one name
//! under one parent share a single record that keeps the first start, the
//! last end, the summed busy time and the call count, so a replay of 10⁵
//! sub-computations costs two records, not 2·10⁵. A record's self time is
//! its busy time minus its children's busy time.

use std::collections::HashMap;
use std::time::Instant;

use crate::json::Value;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Time inside the call(s): `end - start` for a span, the sum over
    /// calls for a leaf record.
    pub busy_ns: u64,
    pub calls: u64,
    pub parent: Option<usize>,
}

#[derive(Debug)]
pub struct Tracer {
    workload: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    leaves: HashMap<(Option<usize>, &'static str), usize>,
}

impl Tracer {
    pub fn new(workload: &str) -> Self {
        Tracer {
            workload: workload.to_string(),
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            leaves: HashMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; close it with
    /// [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            busy_ns: 0,
            calls: 1,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes `id`, which must be the innermost open span, and returns its
    /// duration in seconds.
    pub fn end(&mut self, id: usize) -> f64 {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.busy_ns = now - span.start_ns;
        span.busy_ns as f64 * 1e-9
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Accounts one call that started at `start` and ends now to the leaf
    /// record `name` under the innermost open span.
    pub fn leaf(&mut self, name: &'static str, start: Instant) {
        let end = self.now_ns();
        let begin = start.duration_since(self.epoch).as_nanos() as u64;
        let parent = self.open.last().copied();
        let id = *self.leaves.entry((parent, name)).or_insert_with(|| {
            self.spans.push(Span {
                name,
                start_ns: begin,
                end_ns: end,
                busy_ns: 0,
                calls: 0,
                parent,
            });
            self.spans.len() - 1
        });
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.busy_ns += end - begin;
        span.calls += 1;
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Busy time of record `id` minus the busy time of its direct children,
    /// in nanoseconds.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.busy_ns)
            .sum();
        self.spans[id].busy_ns.saturating_sub(children)
    }

    /// Summed self time, in seconds, of every record called `name`.
    pub fn self_secs(&self, name: &str) -> f64 {
        self.ids(name).map(|id| self.self_ns(id)).sum::<u64>() as f64 * 1e-9
    }

    /// Self time per call, in seconds, over every record called `name`
    /// (0 when there is none).
    pub fn mean_self_secs(&self, name: &str) -> f64 {
        match self.calls(name) {
            0 => 0.0,
            calls => self.self_secs(name) / calls as f64,
        }
    }

    /// Summed call count of every record called `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.ids(name).map(|id| self.spans[id].calls).sum()
    }

    fn ids<'a>(&'a self, name: &'a str) -> impl Iterator<Item = usize> + 'a {
        (0..self.spans.len()).filter(move |&id| self.spans[id].name == name)
    }

    pub fn to_json(&self) -> Value {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Value::Obj(vec![
                    ("id".into(), Value::Num(id as f64)),
                    ("name".into(), Value::Str(s.name.into())),
                    ("start_ns".into(), Value::Num(s.start_ns as f64)),
                    ("end_ns".into(), Value::Num(s.end_ns as f64)),
                    ("busy_ns".into(), Value::Num(s.busy_ns as f64)),
                    ("self_ns".into(), Value::Num(self.self_ns(id) as f64)),
                    ("calls".into(), Value::Num(s.calls as f64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    ),
                    ("workload".into(), Value::Str(self.workload.clone())),
                ])
            })
            .collect();
        Value::Arr(spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// root 0..100 { a 10..40 { leaf x: 5 + 7 }, a 50..70, leaf x: 3 }
    fn hand_built() -> Tracer {
        let mut t = Tracer::new("w");
        let span = |name, start_ns, end_ns, busy_ns, calls, parent| Span {
            name,
            start_ns,
            end_ns,
            busy_ns,
            calls,
            parent,
        };
        t.spans = vec![
            span("root", 0, 100, 100, 1, None),
            span("a", 10, 40, 30, 1, Some(0)),
            span("x", 12, 30, 12, 2, Some(1)),
            span("a", 50, 70, 20, 1, Some(0)),
            span("x", 80, 83, 3, 1, Some(0)),
        ];
        t
    }

    #[test]
    fn self_time_is_busy_minus_children() {
        let t = hand_built();
        assert_eq!(t.self_ns(0), 100 - 30 - 20 - 3);
        assert_eq!(t.self_ns(1), 30 - 12);
        assert_eq!(t.self_ns(2), 12);
        assert_eq!(t.self_ns(3), 20);
        assert!((t.self_secs("a") - 38e-9).abs() < 1e-15);
        assert!((t.mean_self_secs("a") - 19e-9).abs() < 1e-15);
        assert!((t.mean_self_secs("x") - 5e-9).abs() < 1e-15);
        assert_eq!(t.mean_self_secs("absent"), 0.0);
        assert!((t.self_secs("x") - 15e-9).abs() < 1e-15);
        assert_eq!(t.calls("x"), 3);
        assert_eq!(t.self_secs("absent"), 0.0);
    }

    #[test]
    fn recorded_spans_nest_and_leaves_merge_per_parent() {
        let mut t = Tracer::new("w");
        let root = t.begin("root");
        for _ in 0..3 {
            let start = Instant::now();
            std::hint::black_box((0..1000).sum::<u64>());
            t.leaf("work", start);
        }
        let inner = t.begin("inner");
        let start = Instant::now();
        t.leaf("work", start);
        t.end(inner);
        t.end(root);
        let names: Vec<_> = t
            .spans()
            .iter()
            .map(|s| (s.name, s.parent, s.calls))
            .collect();
        assert_eq!(
            names,
            vec![
                ("root", None, 1),
                ("work", Some(0), 3),
                ("inner", Some(0), 1),
                ("work", Some(2), 1)
            ]
        );
        let root = &t.spans()[0];
        assert!(root.busy_ns >= t.spans()[1].busy_ns + t.spans()[2].busy_ns);
        assert!(t.spans()[1].start_ns >= root.start_ns && t.spans()[1].end_ns <= root.end_ns);
        let json = t.to_json();
        assert_eq!(json.items().len(), 4);
        assert_eq!(
            json.items()[3].get("parent").and_then(Value::as_f64),
            Some(2.0)
        );
        assert_eq!(
            json.items()[0].get("workload").and_then(Value::as_str),
            Some("w")
        );
    }
}
