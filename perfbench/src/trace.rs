//! The traced run's instruments: an in-memory span recorder and a
//! round-counting [`Tracer`].
//!
//! Spans come only from the benchmark's own code around calls into the
//! program's public functions; nothing inside the program is
//! instrumented. They stay in memory until the run ends and are then
//! written out as JSON lines.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use fssga_engine::{RoundMetrics, RunMetrics, Tracer};

/// One timed interval around a call into a layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// What was called, e.g. `Network::new`.
    pub name: &'static str,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation (fixpoint run, election, served job, ...) the span
    /// belongs to; 0 for set-up.
    pub job: u64,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall time covered.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder; span ids are indices into [`Spans::list`].
pub struct Spans {
    origin: Instant,
    /// Every span, in opening order.
    pub list: Vec<Span>,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            list: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span starting now; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, job: u64) -> usize {
        let now = self.ns(Instant::now());
        self.list.push(Span {
            name,
            parent,
            job,
            start_ns: now,
            end_ns: now,
        });
        self.list.len() - 1
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: usize) {
        self.list[id].end_ns = self.ns(Instant::now());
    }

    /// Records a span from timestamps taken elsewhere (client threads).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        job: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.list.push(Span {
            name,
            parent,
            job,
            start_ns,
            end_ns,
        });
        self.list.len() - 1
    }

    /// Durations, in seconds, of every span called `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.list
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e9)
            .collect()
    }

    /// Per-name `(count, total ns, self ns)`, for the run record.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let own = self_times_ns(&self.list);
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, own) in self.list.iter().zip(own) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += own;
        }
        out
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.list.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"job\":{},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.job, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children may overlap one another (client
/// threads); the covered part is their union, clipped to the parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// The benchmark's round sink: folds every [`RoundMetrics`] the engine
/// emits into run totals.
#[derive(Default)]
pub struct RoundTally {
    /// Totals so far.
    pub run: RunMetrics,
}

impl Tracer for RoundTally {
    fn round(&mut self, metrics: &RoundMetrics) {
        self.run.absorb(metrics);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            parent,
            job: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // root [0, 100) with children [10, 30) and [50, 60); the second
        // child has a grandchild [52, 55).
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 50, 60),
            span(Some(2), 52, 55),
        ];
        assert_eq!(self_times_ns(&spans), vec![70, 20, 7, 3]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        // Two overlapping children [10, 40) and [30, 50) cover [10, 50);
        // a child running past its parent's end is clipped.
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(0), 30, 50),
            span(None, 200, 210),
            span(Some(3), 205, 230),
        ];
        assert_eq!(self_times_ns(&spans), vec![60, 30, 20, 5, 25]);
    }

    #[test]
    fn summary_groups_by_name() {
        let mut spans = Spans::new();
        let root = spans.open("root", None, 1);
        let kid = spans.open("kid", Some(root), 1);
        spans.close(kid);
        spans.close(root);
        let sum = spans.summary();
        assert_eq!(sum["root"].0, 1);
        assert_eq!(sum["kid"].0, 1);
        assert_eq!(sum["root"].1, sum["root"].2 + sum["kid"].1);
    }
}
