//! `lsps-perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs in its own process. With `--trace 0` the run
//! measures the end-to-end metrics (simulated jobs per host second, cache-
//! and service-path cell rates, set-up time, peak RSS); with `--trace 1` it
//! runs one traced round and splits the host time over the layers. Both
//! modes check the program's outputs against computations made here. The
//! last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Everything else goes to standard error.
//!
//! Every figure is host time unless its name says otherwise; simulated
//! time belongs to the model and only appears in the checks.

mod campaign;
mod check;
mod micro;
mod replay;
mod service;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

/// One metric as printed: name, value, unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload hands back to `main`.
pub struct Outcome {
    /// Operations attempted: simulated jobs on the replays, cells on the
    /// campaign.
    pub attempted: u64,
    /// Operations that gave no result or a wrong one.
    pub failed: u64,
    /// Every output check passed.
    pub correct: bool,
    pub metrics: Vec<Metric>,
}

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} must lie in (0, 600]"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Scratch space for cache shards, journals and traces, inside the
/// working directory (the checkout) and unique to this process.
pub struct Scratch {
    root: PathBuf,
    next: std::cell::Cell<u32>,
}

impl Scratch {
    fn new(workload: &str) -> std::io::Result<Scratch> {
        let root = PathBuf::from(".perfbench").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Scratch {
            root,
            next: std::cell::Cell::new(0),
        })
    }

    /// A fresh, empty directory under the scratch root.
    pub fn fresh(&self, tag: &str) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        let dir = self.root.join(format!("{tag}-{n}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory is writable");
        dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of a sample (upper median for even sizes — a value that was
/// actually measured).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    v[v.len() / 2]
}

/// Set-up samples taken before the first round, and the least host time
/// one sample spans: a set-up shorter than that is repeated back to back
/// inside the sample, so timer and scheduler noise do not set the figure.
const SETUP_SAMPLES: usize = 5;
const SETUP_SPAN_S: f64 = 0.02;

/// A workload's eager set-up, timed several times: before the first
/// round and once more per round, so the samples spread over the run.
pub struct SetUp<F> {
    set_up: F,
    reps: usize,
    samples: Vec<f64>,
}

impl<T, F: FnMut() -> T> SetUp<F> {
    /// Run the set-up, fix the repetitions per sample from the first
    /// call, take `SETUP_SAMPLES` samples; returns the last call's result.
    pub fn new(mut set_up: F) -> (SetUp<F>, T) {
        let t0 = Instant::now();
        let mut last = set_up();
        let first = t0.elapsed().as_secs_f64().max(1e-9);
        let reps = ((SETUP_SPAN_S / first).ceil() as usize).clamp(1, 100_000);
        let mut samples = Vec::new();
        for _ in 0..SETUP_SAMPLES {
            let t0 = Instant::now();
            for _ in 0..reps {
                last = set_up();
            }
            samples.push(t0.elapsed().as_secs_f64() / reps as f64);
        }
        (
            SetUp {
                set_up,
                reps,
                samples,
            },
            last,
        )
    }

    /// One more sample; returns it.
    pub fn sample(&mut self) -> f64 {
        let t0 = Instant::now();
        for _ in 0..self.reps {
            std::hint::black_box((self.set_up)());
        }
        let s = t0.elapsed().as_secs_f64() / self.reps as f64;
        self.samples.push(s);
        s
    }

    /// Host seconds per set-up: the median sample.
    pub fn seconds(&self) -> f64 {
        median(&self.samples)
    }
}

/// The fastest decile of a sample of host times (the element a tenth of
/// the way up the sorted sample). Used for the warm passes: hundreds of
/// file-read passes of a few milliseconds each per run, whose slow tail
/// is the disk's state rather than the program (see README,
/// "Statistics").
pub fn fastest_decile(times: &[f64]) -> f64 {
    assert!(!times.is_empty(), "decile of nothing");
    let mut v = times.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    v[(v.len() - 1) / 10]
}

/// Rounds of a timed loop: at least one, then more while the next round,
/// judged by the slowest so far, still ends inside the budget.
pub struct RoundClock {
    start: Instant,
    budget: f64,
    slowest: Option<f64>,
}

impl RoundClock {
    pub fn new(budget_s: f64) -> RoundClock {
        RoundClock {
            start: Instant::now(),
            budget: budget_s,
            slowest: None,
        }
    }

    /// Whether to run another round; `last_s` is the round just finished.
    pub fn another(&mut self, last_s: Option<f64>) -> bool {
        if let Some(s) = last_s {
            self.slowest = Some(self.slowest.map_or(s, |w| w.max(s)));
        }
        match self.slowest {
            None => true,
            Some(w) => self.start.elapsed().as_secs_f64() + w <= self.budget,
        }
    }
}

fn json_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lsps-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let scratch = match Scratch::new(&args.workload) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("lsps-perfbench: scratch directory: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "trace_replay" => replay::trace_replay(&args, &scratch),
        "volatile_replay" => replay::volatile_replay(&args, &scratch),
        "campaign_grid" => campaign::campaign_grid(&args, &scratch),
        other => {
            eprintln!(
                "lsps-perfbench: unknown workload {other} \
                 (trace_replay, volatile_replay, campaign_grid)"
            );
            std::process::exit(2);
        }
    };
    drop(scratch);
    if !outcome.correct {
        eprintln!("lsps-perfbench: output checks FAILED (see above)");
    }
    println!("{}", json_line(&outcome));
}

/// Where a traced run writes its spans: `.perfbench/traces/`.
pub fn trace_path(args: &Args) -> PathBuf {
    let dir = PathBuf::from(".perfbench").join("traces");
    let _ = std::fs::create_dir_all(&dir);
    dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed))
}

/// Every per-layer metric the traced runs report, with its unit. A
/// workload that does not exercise a layer reports it as 0.
pub const LAYER_METRICS: [(&str, &str); 34] = [
    ("workload.gen_s", "s"),
    ("core.prepare_s", "s"),
    ("core.policy_s", "s"),
    ("scenario.campaign.expand_s", "s"),
    ("service.boot_s", "s"),
    ("des.events", "count"),
    ("des.decisions", "count"),
    ("des.peak_queue_live", "count"),
    ("des.self_s", "s"),
    ("des.ns_per_event", "ns"),
    ("core.replan.advance_s", "s"),
    ("core.replan.plan_s", "s"),
    ("core.replan.plan_us_per_decision", "us"),
    ("core.replan.touched", "count"),
    ("platform.timeline.earliest_slot_ns", "ns"),
    ("platform.timeline.book_remove_ns", "ns"),
    ("platform.procset.clone_hot_ns", "ns"),
    ("des.queue.op_ns", "ns"),
    ("scenario.runner.failure_overhead_s", "s"),
    ("scenario.runner.failure_us_per_outage", "us"),
    ("failure.outages", "count"),
    ("failure.kills", "count"),
    ("failure.wasted_ticks", "count"),
    ("des.slots", "count"),
    ("scenario.cell.direct_s", "s"),
    ("scenario.cell.des_online_s", "s"),
    ("metrics.fold_s", "s"),
    ("scenario.cache.load_s", "s"),
    ("scenario.campaign.aggregate_s", "s"),
    ("scenario.cache.store_s", "s"),
    ("scenario.cache.bytes", "bytes"),
    ("service.rpc_overhead_s", "s"),
    ("service.worker_respawns", "count"),
    ("trace.overhead_s", "s"),
];

/// The per-layer metrics in `LAYER_METRICS` order, 0 where `values` has
/// no entry.
pub fn layer_metrics(values: &std::collections::BTreeMap<&'static str, f64>) -> Vec<Metric> {
    for name in values.keys() {
        assert!(
            LAYER_METRICS.iter().any(|(n, _)| n == name),
            "undeclared layer metric {name}"
        );
    }
    LAYER_METRICS
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: values.get(name).copied().unwrap_or(0.0),
            unit,
        })
        .collect()
}
