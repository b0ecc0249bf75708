//! In-memory spans recorded by the benchmark around its own calls into
//! the program, and the per-layer self time derived from them.
//!
//! Every job owns one [`Tracer`]; nothing is shared between workers, so
//! recording takes no lock. A disabled tracer records nothing and costs
//! one branch per call, which is how the untraced pass runs the same
//! code.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the pass origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span within the same job; `None` for the
    /// job's root span.
    pub parent: Option<usize>,
    pub start: u64,
    pub end: u64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Self {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now();
        let idx = self.open.pop().expect("exit matches an enter");
        self.spans[idx].end = end;
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    pub fn into_spans(self) -> Vec<Span> {
        debug_assert!(self.open.is_empty(), "unclosed span");
        self.spans
    }
}

/// Self time per span name, summed over jobs.
#[derive(Default)]
pub struct LayerTimes {
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Root (job) span time, and the part of it child spans cover.
    pub job_ns: u64,
    pub covered_ns: u64,
}

impl LayerTimes {
    /// Fold one job's spans: a span's self time is its duration minus
    /// the time its direct children cover (children never overlap, as
    /// one job runs on one thread).
    pub fn add_job(&mut self, spans: &[Span]) {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end - s.start;
            }
        }
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end - s.start;
            if s.parent.is_none() {
                self.job_ns += dur;
                self.covered_ns += child_ns[i];
                continue;
            }
            *self.self_ns.entry(s.name).or_default() += dur.saturating_sub(child_ns[i]);
        }
    }

    /// Self seconds of every span whose name starts with `prefix`.
    pub fn busy_s(&self, prefix: &str) -> f64 {
        self.self_ns
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, ns)| *ns as f64)
            .fold(0.0, |a, b| a + b)
            / 1e9
    }
}

/// Deterministic per-job counts measured where the benchmark makes the
/// call (bytes scanned, ops applied, simulated seconds, ...).
#[derive(Clone, Debug, Default)]
pub struct Counts(pub BTreeMap<&'static str, f64>);

impl Counts {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_default() += v;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn merge(&mut self, other: &Counts) {
        for (k, v) in &other.0 {
            self.add(k, *v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            Span {
                name: "job",
                parent: None,
                start: 0,
                end: 100,
            },
            Span {
                name: "a",
                parent: Some(0),
                start: 10,
                end: 60,
            },
            Span {
                name: "b",
                parent: Some(1),
                start: 20,
                end: 40,
            },
            Span {
                name: "c",
                parent: Some(0),
                start: 70,
                end: 90,
            },
        ];
        let mut lt = LayerTimes::default();
        lt.add_job(&spans);
        assert_eq!(lt.job_ns, 100);
        assert_eq!(lt.covered_ns, 70);
        assert_eq!(lt.self_ns["a"], 30);
        assert_eq!(lt.self_ns["b"], 20);
        assert_eq!(lt.self_ns["c"], 20);
    }
}
