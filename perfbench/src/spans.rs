//! In-memory span recorder for the traced run.
//!
//! Spans are taken from the benchmark's side of the public API: each one
//! wraps a single call into a layer (`System::run_prefix`,
//! `System::digest`, `oasis_fuzz::check`, ...). Nothing inside the
//! simulator is instrumented. Spans are kept in memory and written out
//! once, when the run ends.

use std::time::Instant;

use crate::json::Val;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans against one time origin. Spans nest by explicit parent
/// index; the benchmark never runs spans concurrently.
pub struct Tracer {
    run_id: String,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(run_id: String) -> Self {
        Tracer {
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn span<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, Some(parent));
        let out = f();
        self.close(id);
        out
    }

    /// Durations (ms) of every span called `name`, in record order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Self time of each span: its duration minus the time its children
    /// cover. Children of one parent never overlap, so the covered time is
    /// the sum of their durations.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Self time (ms) summed per layer, root spans (no parent) excluded.
    pub fn layer_self_ms(&self, layer: &str) -> f64 {
        self.spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.parent.is_some() && s.layer() == layer)
            .fold(0.0, |acc, (_, ns)| acc + ns as f64 / 1e6)
    }

    /// Share of `root`'s wall time covered by its direct children.
    pub fn coverage(&self, root: usize) -> f64 {
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(Span::dur_ns)
            .sum();
        covered as f64 / self.spans[root].dur_ns().max(1) as f64
    }

    /// The spans as one JSON document (name, start, end, parent, run id).
    pub fn to_json(&self) -> String {
        let spans = self.spans.iter().enumerate().map(|(i, s)| {
            Val::Obj(vec![
                ("id".into(), Val::Int(i as u64)),
                ("name".into(), Val::Str(s.name.into())),
                ("start_ns".into(), Val::Int(s.start_ns)),
                ("end_ns".into(), Val::Int(s.end_ns)),
                (
                    "parent".into(),
                    s.parent.map_or(Val::Null, |p| Val::Int(p as u64)),
                ),
            ])
        });
        let doc = Val::Obj(vec![
            ("run_id".into(), Val::Str(self.run_id.clone())),
            ("spans".into(), Val::List(spans.collect())),
        ]);
        doc.render() + "\n"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_coverage_counts_direct_children() {
        let mut t = Tracer::new("t\"1".into());
        t.spans = vec![
            Span {
                name: "run",
                parent: None,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                name: "mgpu.epoch",
                parent: Some(0),
                start_ns: 0,
                end_ns: 60,
            },
            Span {
                name: "engine.digest",
                parent: Some(1),
                start_ns: 10,
                end_ns: 30,
            },
            Span {
                name: "engine.digest",
                parent: Some(0),
                start_ns: 60,
                end_ns: 90,
            },
        ];
        assert_eq!(t.self_ns(), vec![10, 40, 20, 30]);
        assert!((t.layer_self_ms("engine") - 50e-6).abs() < 1e-12);
        assert!((t.coverage(0) - 0.9).abs() < 1e-12);
        assert_eq!(t.durations_ms("engine.digest").len(), 2);
        let doc = t.to_json();
        assert!(doc.starts_with(r#"{"run_id":"t\"1","spans":[{"id":0,"#));
        assert!(doc.contains(r#""parent":null"#) && doc.contains(r#""parent":1"#));
    }
}
