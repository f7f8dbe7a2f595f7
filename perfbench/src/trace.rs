//! The traced run's span recorder.
//!
//! Spans are kept in memory as a tree (name, start, end, parent) and
//! written out once the run ends. Calls made once per simulated decision
//! are far too many to keep one span each, so the benchmark-side
//! dispatcher sums them and they enter the tree as *aggregate* nodes: a
//! name, a call count and a total, under the span that contains them.
//! A node's self time is its total minus its children's totals.
//!
//! [`Tracer::report`] checks what can go wrong with such a tree: a child
//! (span or aggregate) that outlasts its parent leaves the parent a
//! negative self time, and the root span must match a clock read by the
//! caller around the whole traced round, outside the tracer.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Node {
    name: &'static str,
    /// Offset of the start from the tracer's epoch; `None` for aggregates.
    start_ns: Option<u64>,
    total_ns: u64,
    calls: u64,
    parent: Option<usize>,
}

pub struct Tracer {
    epoch: Instant,
    nodes: Vec<Node>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            nodes: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.nodes.len();
        let start = Instant::now();
        self.nodes.push(Node {
            name,
            start_ns: Some(start.duration_since(self.epoch).as_nanos() as u64),
            total_ns: 0,
            calls: 1,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.nodes[idx].total_ns = start.elapsed().as_nanos() as u64;
        self.open.pop();
        out
    }

    /// Attach an aggregate of `calls` calls totalling `total_ns` under the
    /// span or aggregate `parent` (or the innermost open span); returns
    /// its index so further aggregates can nest under it.
    pub fn aggregate(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        total_ns: u64,
        calls: u64,
    ) -> usize {
        let idx = self.nodes.len();
        self.nodes.push(Node {
            name,
            start_ns: None,
            total_ns,
            calls,
            parent: parent.or_else(|| self.open.last().copied()),
        });
        idx
    }

    /// Summed total of every node named `name`, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.nodes
            .iter()
            .filter(|n| n.name == name)
            .map(|n| n.total_ns as f64 * 1e-9)
            .sum()
    }

    fn self_ns(&self) -> Vec<i128> {
        let mut own: Vec<i128> = self.nodes.iter().map(|n| n.total_ns as i128).collect();
        for n in &self.nodes {
            if let Some(p) = n.parent {
                own[p] -= n.total_ns as i128;
            }
        }
        own
    }

    /// Summed self time of every node named `name`, seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        let own = self.self_ns();
        self.nodes
            .iter()
            .zip(&own)
            .filter(|(n, _)| n.name == name)
            .map(|(_, &s)| s as f64 * 1e-9)
            .sum()
    }

    /// Self time per layer name, and the wall time of the root spans.
    fn layer_table(&self) -> (BTreeMap<&'static str, f64>, f64) {
        let own = self.self_ns();
        let mut table = BTreeMap::new();
        for (n, &s) in self.nodes.iter().zip(&own) {
            *table.entry(n.name).or_insert(0.0) += s as f64 * 1e-9;
        }
        (table, self.root_ns() as f64 * 1e-9)
    }

    fn root_ns(&self) -> u64 {
        self.nodes
            .iter()
            .filter(|n| n.parent.is_none())
            .map(|n| n.total_ns)
            .sum()
    }

    /// Print the layer table to standard error and write every node as
    /// one JSON line to `path`. `outside_ns` is the caller's own reading
    /// of the traced round's host time. Returns the reconciliation
    /// failures: nodes with a negative self time, and root spans that
    /// outlast `outside_ns` or fall short of it by more than
    /// [`ROOT_SLACK_NS`].
    pub fn report(&self, path: &Path, outside_ns: u64) -> Vec<String> {
        let (table, wall) = self.layer_table();
        let sum: f64 = table.values().sum();
        eprintln!("[trace] self time by layer (host s, traced round):");
        for (name, s) in &table {
            eprintln!("[trace]   {name:<34} {s:>12.6}  {:>6.2}%", 100.0 * s / wall);
        }
        eprintln!(
            "[trace]   {:<34} {sum:>12.6}  (root wall {wall:.6}, outside clock {:.6})",
            "sum",
            outside_ns as f64 * 1e-9
        );
        if let Ok(mut f) = std::fs::File::create(path) {
            for (i, n) in self.nodes.iter().enumerate() {
                let start = n.start_ns.map_or("null".to_string(), |s| s.to_string());
                let end = n
                    .start_ns
                    .map_or("null".to_string(), |s| (s + n.total_ns).to_string());
                let parent = n.parent.map_or("null".to_string(), |p| p.to_string());
                let _ = writeln!(
                    f,
                    "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{start},\"end_ns\":{end},\
                     \"total_ns\":{},\"calls\":{},\"parent\":{parent}}}",
                    n.name, n.total_ns, n.calls
                );
            }
            eprintln!("[trace] spans written to {}", path.display());
        }
        let mut problems: Vec<String> = self
            .nodes
            .iter()
            .zip(self.self_ns())
            .filter(|(_, own)| *own < 0)
            .map(|(n, own)| format!("trace: {} has a negative self time ({own} ns)", n.name))
            .collect();
        let root = self.root_ns();
        if root > outside_ns || outside_ns - root > ROOT_SLACK_NS {
            problems.push(format!(
                "trace: root spans total {root} ns, the outside clock read {outside_ns} ns"
            ));
        }
        problems
    }
}

/// How much longer than the root spans the caller's clock around them
/// may read: the tracer's own bookkeeping at entry and exit.
const ROOT_SLACK_NS: u64 = 1_000_000;

/// Run `f` as the root span `round`, timed also by a clock of its own
/// outside the tracer; returns `f`'s result and that clock's reading.
pub fn traced_round<T>(tr: &mut Tracer, f: impl FnOnce(&mut Tracer) -> T) -> (T, u64) {
    let t0 = Instant::now();
    let out = tr.span("round", f);
    (out, t0.elapsed().as_nanos() as u64)
}
