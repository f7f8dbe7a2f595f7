//! Output checks, computed here from the inputs and the completion
//! records rather than read back from the program.

use lsps_metrics::CompletedJob;
use lsps_workload::{Job, JobKind, Outage};

/// Collects failed checks, and counts failed operations; a run is
/// correct when no check failed.
#[derive(Default)]
pub struct Checks {
    failures: Vec<String>,
    failed_ops: u64,
}

impl Checks {
    /// Count `n` operations (simulated jobs, cells) that gave no result or
    /// a wrong one.
    pub fn failed(&mut self, n: u64) {
        self.failed_ops += n;
    }

    pub fn failed_ops(&self) -> u64 {
        self.failed_ops
    }

    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("[check] FAILED: {msg}");
            self.failures.push(msg);
        }
    }

    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// How long a completed attempt may run relative to the job's length.
#[derive(Clone, Copy, PartialEq)]
pub enum Attempt {
    /// Reliable platform, or resubmit from scratch: exactly the length.
    Exact,
    /// Checkpointed restarts: the last attempt may be shorter.
    AtMost,
}

fn rigid(job: &Job) -> (usize, u64) {
    match job.kind {
        JobKind::Rigid { procs, len } => (procs, len.ticks()),
        _ => panic!("replay jobs are rigid; job {} is not", job.id),
    }
}

/// Sweep the completion records of a finite replay of `jobs` (rigid, ids
/// `0..n`) on `m` processors with `outages`:
/// - each job completes exactly once;
/// - no job starts before its release;
/// - each attempt lasts the job's length (`Exact`) or at most it;
/// - at every instant, running widths plus nodes down are at most `m`;
/// - the makespan is at least `Σ area / m` and `max(release + len)`.
///
/// Jobs that never completed are also counted as failed operations.
pub fn replay_records(
    checks: &mut Checks,
    label: &str,
    jobs: &[Job],
    m: usize,
    outages: &[Outage],
    records: &[CompletedJob],
    attempt: Attempt,
) {
    let n = jobs.len();
    checks.expect(records.len() == n, || {
        format!("{label}: {} records for {n} jobs", records.len())
    });
    let mut seen = vec![false; n];
    let mut events: Vec<(u64, i64)> = Vec::with_capacity(2 * records.len() + 2 * outages.len());
    let mut makespan = 0u64;
    let mut area = 0u128;
    let mut last_end = 0u64;
    for j in jobs {
        let (q, len) = rigid(j);
        area += q as u128 * len as u128;
        last_end = last_end.max(j.release.ticks() + len);
    }
    let mut bad = 0usize;
    for r in records {
        let id = r.id.0 as usize;
        if id >= n || seen[id] {
            bad += 1;
            continue;
        }
        seen[id] = true;
        let job = &jobs[id];
        let (q, len) = rigid(job);
        let ran = r.completion.ticks().saturating_sub(r.start.ticks());
        let length_ok = match attempt {
            Attempt::Exact => ran == len,
            Attempt::AtMost => ran >= 1 && ran <= len,
        };
        if r.start < job.release || r.release != job.release || r.procs != q || !length_ok {
            bad += 1;
        }
        makespan = makespan.max(r.completion.ticks());
        events.push((r.start.ticks(), q as i64));
        events.push((r.completion.ticks(), -(q as i64)));
    }
    checks.expect(bad == 0, || {
        format!("{label}: {bad} records are duplicated, early, mis-sized or of the wrong length")
    });
    let missing = seen.iter().filter(|&&s| !s).count();
    checks.failed(missing as u64);
    checks.expect(missing == 0, || {
        format!("{label}: {missing} jobs never completed")
    });
    for o in outages {
        events.push((o.start.ticks(), 1));
        events.push((o.end.ticks(), -1));
    }
    // Ends before starts at the same instant: intervals are half-open.
    events.sort_unstable_by_key(|&(t, d)| (t, d));
    let mut busy = 0i64;
    let mut peak = 0i64;
    for (_, d) in events {
        busy += d;
        peak = peak.max(busy);
    }
    checks.expect(peak <= m as i64, || {
        format!("{label}: {peak} processors busy or down at once on m = {m}")
    });
    let area_bound = area.div_ceil(m as u128) as u64;
    checks.expect(makespan >= area_bound && makespan >= last_end, || {
        format!(
            "{label}: makespan {makespan} ticks below the area bound {area_bound} \
             or the release+length bound {last_end}"
        )
    });
}
