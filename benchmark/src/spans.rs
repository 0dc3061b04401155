//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's own files, around its calls
//! into each layer; nothing inside the product crates is instrumented.
//! They stay in memory until the pass ends and are then written as one
//! JSON file per workload. A span's *self time* is its duration minus the
//! durations of its direct children.

use crate::json::{num, obj, string, Value};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span (`None` for the workload's root).
    pub parent: Option<usize>,
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now; close it with [`Spans::close`].
    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns: now,
            end_ns: now,
            parent,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records a span that started `dur_ns` ago and ends now — for a call
    /// timed by the caller inside a callback that cannot borrow `self`
    /// across the call.
    pub fn closed(&mut self, name: impl Into<String>, parent: usize, dur_ns: u64) {
        let end = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns: end.saturating_sub(dur_ns),
            end_ns: end,
            parent: Some(parent),
        });
    }

    /// Lays `parts` out back to back from the parent's start as synthetic
    /// children. Used for the five `PhaseTimers` buckets, which are busy
    /// time summed over a point's cycles rather than one interval each.
    pub fn synthetic_children(&mut self, parent: usize, parts: &[(&str, u64)]) {
        let mut at = self.spans[parent].start_ns;
        for &(name, dur_ns) in parts {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: at,
                end_ns: at + dur_ns,
                parent: Some(parent),
            });
            at += dur_ns;
        }
    }

    pub fn duration_ns(&self, id: usize) -> u64 {
        self.spans[id].end_ns - self.spans[id].start_ns
    }

    /// Each span's duration minus its direct children's durations.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = (0..self.spans.len()).map(|i| self.duration_ns(i)).collect();
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(self.duration_ns(i));
            }
        }
        own
    }

    pub fn to_json(&self, workload: &str) -> Value {
        let own = self.self_ns();
        let spans = self
            .spans
            .iter()
            .zip(own)
            .enumerate()
            .map(|(id, (s, self_ns))| {
                obj([
                    ("id", num(id as f64)),
                    ("name", string(s.name.as_str())),
                    ("start_ns", num(s.start_ns as f64)),
                    ("end_ns", num(s.end_ns as f64)),
                    ("parent", s.parent.map_or(Value::Null, |p| num(p as f64))),
                    ("self_ns", num(self_ns as f64)),
                ])
            })
            .collect();
        obj([("workload", string(workload)), ("spans", Value::Arr(spans))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut s = Spans::new();
        let root = s.open("root", None);
        let child = s.open("child", Some(root));
        s.synthetic_children(child, &[("a", 30), ("b", 20)]);
        s.spans[child].end_ns = s.spans[child].start_ns + 100;
        s.spans[root].end_ns = s.spans[child].end_ns + 40;
        let own = s.self_ns();
        assert_eq!(own[child], 50, "100 minus the two grandchildren");
        assert_eq!(
            own[root],
            s.duration_ns(root) - 100,
            "grandchildren are not subtracted twice"
        );
        assert_eq!(s.spans[3].start_ns, s.spans[2].end_ns, "laid back to back");
        let json = s.to_json("w");
        assert_eq!(json.get("spans").and_then(Value::as_arr).unwrap().len(), 4);
    }
}
