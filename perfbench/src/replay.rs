//! The two replay workloads — `trace_replay` and `volatile_replay` — and
//! the benchmark-side dispatcher `trace_replay`'s traced run re-drives the
//! simulation through.
//!
//! Each replay is also a campaign: the same cells, written as a spec,
//! are submitted to the service and then served warm from its cache.
//! The cell seeds come from the expanded plan, so the direct runs here
//! and the service's cells simulate the same jobs; the checks compare
//! their criteria bit for bit.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::time::Instant;

use lsps_core::replan::IncrementalPlanner;
use lsps_core::{Policy, PolicyCtx, Schedule};
use lsps_des::{Commitment, Dispatcher, Dur, OnlineEvent, OnlineMachine};
use lsps_des::{SimRng, Simulation, Time};
use lsps_metrics::{CompletedJob, Criteria, CriteriaAcc, FailureStats};
use lsps_scenario::families::trace_instance;
use lsps_scenario::runner::{des_online, des_online_volatile, FailurePlan};
use lsps_scenario::spec::{fnv64, splitmix64};
use lsps_scenario::CampaignPlan;
use lsps_workload::{FailurePolicy, Job, JobKind, Outage};

use crate::campaign::{sp, warm_once, warm_passes, View, WARM_BUDGET_S};
use crate::check::{replay_records, Attempt, Checks};
use crate::micro;
use crate::trace::{traced_round, Tracer};
use crate::{
    fastest_decile, median, peak_rss_mb, service, Args, Metric, Outcome, RoundClock, Scratch, SetUp,
};

const TRACE_N: usize = 50_000;
const TRACE_M: usize = 1024;

const VOLATILE_N: usize = 20_000;
/// Outages the failure trace aims for over the trace span.
const VOLATILE_OUTAGES: f64 = 1_000.0;
/// Mean spacing of `trace_instance` arrivals, seconds: the diurnal
/// intensity averages 0.6 against a 21 s base.
const TRACE_MEAN_INTERARRIVAL_S: f64 = 35.0;
const CHECKPOINT_S: f64 = 1_800.0;

fn ctx() -> PolicyCtx {
    PolicyCtx::default()
}

fn policy(name: &str) -> Box<dyn Policy> {
    lsps_core::policy::by_name(name).expect("registry policy")
}

fn rigid(job: &Job) -> (usize, Dur) {
    match job.kind {
        JobKind::Rigid { procs, len } => (procs, len),
        _ => panic!("replay jobs are rigid"),
    }
}

fn family_spec(name: &str, policies: &[&str], n: usize, seed: u64, failures: &str) -> String {
    let policies: Vec<String> = policies.iter().map(|p| format!("\"{p}\"")).collect();
    format!(
        "{{\"name\": \"{name}\", \"policies\": [{}], \"executors\": [\"des-online\"], \
         \"platforms\": [{{\"name\": \"m{TRACE_M}\", \"m\": {TRACE_M}}}], \
         \"workloads\": [{{\"name\": \"trace\", \"source\": {{\"Family\": {{\"family\": \"trace-100k\", \"n\": {n}}}}}}}], \
         {failures}\
         \"replication\": {{\"base_seed\": {seed}, \"replications\": 1, \"derivation\": \"splitmix\"}}, \
         \"ctx\": {{\"release_mode\": \"online\", \"estimate_factor\": 1.0}}}}",
        policies.join(", ")
    )
}

/// The `trace-100k` family instance of a cell seed, as the campaign's
/// `Family` source generates it.
fn trace_jobs(seed: u64, n: usize) -> Vec<Job> {
    trace_instance(&mut SimRng::seed_from(seed).child(n as u64), n, TRACE_M)
}

/// What one timed direct unit returns: its host time, the jobs it
/// simulated, and the criteria the service's matching cell must repeat.
struct UnitRun {
    secs: f64,
    jobs: u64,
    criteria: Criteria,
}

/// The timed loop every replay shares. A round runs each direct unit
/// once (timed alone, then checked), one service pass over the
/// workload's campaigns, and warm passes over the service's cache; the
/// served cells must repeat the units' criteria bit for bit. The direct
/// rate is the work of one round over the sum of each unit's median time;
/// the service rate is cells over the median pass; the warm rate is cells
/// over the fastest decile of the warm passes (see [`fastest_decile`]).
fn replay_rounds<S>(
    args: &Args,
    scratch: &Scratch,
    view: &View,
    setup: &mut SetUp<impl FnMut() -> S>,
    mut checks: Checks,
    mut unit: impl FnMut(usize, &mut Checks) -> UnitRun,
) -> Outcome {
    let label = &args.workload;
    // One direct unit per cell of the workload's campaigns, in plan order.
    let units = view.cells();
    let mut unit_times = vec![Vec::new(); units];
    let mut unit_jobs = vec![0u64; units];
    let mut service_times = Vec::new();
    let mut warm_times = Vec::new();
    let mut reference: Option<Vec<Criteria>> = None;
    let mut attempted = 0u64;
    let mut clock = RoundClock::new(args.seconds);
    let mut last = None;
    while clock.another(last) {
        let round = Instant::now();
        let mut criteria = Vec::with_capacity(units);
        for (u, times) in unit_times.iter_mut().enumerate() {
            let run = unit(u, &mut checks);
            times.push(run.secs);
            unit_jobs[u] = run.jobs;
            attempted += run.jobs;
            criteria.push(run.criteria);
        }
        let reference = reference.get_or_insert_with(|| criteria.clone());
        checks.expect(*reference == criteria, || {
            format!("{label}: runs differ between rounds")
        });

        let booted = service::boot(scratch);
        let cache_dir = booted.cache_dir.clone();
        let pass = service::run(booted, &view.specs, &mut checks);
        service_times.push(pass.wall_s);
        let before = warm_times.len();
        // Operations here are simulated jobs; a cell the cache or the
        // service loses fails the checks below instead.
        let (cells, _) = warm_passes(
            &cache_dir,
            view,
            &pass.csvs,
            &mut checks,
            &mut warm_times,
            WARM_BUDGET_S,
        );
        let warm_round = fastest_decile(&warm_times[before..]);
        let served: Vec<&Criteria> = cells.iter().flatten().map(|c| &c.criteria).collect();
        checks.expect(served == criteria.iter().collect::<Vec<_>>(), || {
            format!("{label}: service cells differ from the direct runs")
        });
        let setup_sample = setup.sample();
        last = Some(round.elapsed().as_secs_f64());
        let sim: Vec<String> = unit_times
            .iter()
            .map(|t| format!("{:.4}", t[t.len() - 1]))
            .collect();
        eprintln!(
            "[{label}] round: units {} s, service {:.4} s, setup {setup_sample:.6} s, warm {warm_round:.7} s",
            sim.join(" "),
            pass.wall_s
        );
    }
    let sim_s: f64 = unit_times.iter().map(|t| median(t)).sum();
    let cells = view.cells() as f64;
    Outcome {
        attempted,
        failed: checks.failed_ops(),
        correct: checks.ok(),
        metrics: vec![
            Metric {
                name: "setup_s",
                value: setup.seconds(),
                unit: "s",
            },
            Metric {
                name: "jobs_per_s",
                value: unit_jobs.iter().sum::<u64>() as f64 / sim_s,
                unit: "jobs/s",
            },
            Metric {
                name: "peak_rss_mb",
                value: peak_rss_mb(),
                unit: "MiB",
            },
            Metric {
                name: "warm_cells_per_s",
                value: cells / fastest_decile(&warm_times),
                unit: "cells/s",
            },
            Metric {
                name: "service_cells_per_s",
                value: cells / median(&service_times),
                unit: "cells/s",
            },
        ],
    }
}

/// The traced counterpart of a [`replay_rounds`] round's campaign half: one service pass
/// and one warm pass inside spans. Returns the warm cells.
fn campaign_view_traced(
    tr: &mut Tracer,
    scratch: &Scratch,
    view: &View,
    checks: &mut Checks,
    values: &mut BTreeMap<&'static str, f64>,
) -> Vec<Vec<lsps_scenario::Cell>> {
    let booted = tr.span("service.boot", |_| service::boot(scratch));
    let cache_dir = booted.cache_dir.clone();
    let pass = tr.span("service.run", |_| service::run(booted, &view.specs, checks));
    let (cells, csvs, hits) = tr.span("scenario.campaign.warm", |tr| {
        let cache = lsps_scenario::cache::CellCache::new(&cache_dir).expect("cache opens");
        warm_once(&cache, view, &mut Some(tr))
    });
    checks.expect(hits == view.cells() && csvs == pass.csvs, || {
        "warm pass differs from the service pass".to_string()
    });
    values.insert("service.worker_respawns", pass.respawns as f64);
    cells
}

// ---------------------------------------------------------------------
// The benchmark-side dispatcher
// ---------------------------------------------------------------------

/// A [`Dispatcher`] built only from public parts: the policy's
/// [`IncrementalPlanner`], driven exactly as the runner drives it
/// (advance, then plan the newly pending jobs, then commit every
/// placement in order), with every `advance` and `plan` call timed.
struct TracedDispatch {
    planner: Box<dyn IncrementalPlanner>,
    scratch: Schedule,
    decide_ns: u64,
    advance_ns: u64,
    plan_ns: u64,
    decisions: u64,
    /// Completion instants of the live commitments, for the depth the
    /// micro-timings are sized to.
    ends: BinaryHeap<Reverse<Time>>,
    live_sum: u64,
    /// Allotted width per job id.
    procs: Vec<usize>,
    /// Whether the calls are timed; an unclocked twin measures what the
    /// clock reads themselves cost.
    clocked: bool,
}

impl TracedDispatch {
    fn new(
        policy: &dyn Policy,
        m: usize,
        ctx: &PolicyCtx,
        n: usize,
        clocked: bool,
    ) -> TracedDispatch {
        TracedDispatch {
            planner: policy
                .incremental_planner(m, ctx)
                .expect("backfilling offers an incremental planner"),
            scratch: Schedule::new(m),
            decide_ns: 0,
            advance_ns: 0,
            plan_ns: 0,
            decisions: 0,
            ends: BinaryHeap::new(),
            live_sum: 0,
            procs: vec![0; n],
            clocked,
        }
    }

    fn mean_live(&self) -> usize {
        (self.live_sum as f64 / self.decisions.max(1) as f64).round() as usize
    }

    /// Register the timed calls under the innermost open span.
    fn record(&self, tr: &mut Tracer) {
        let decide = tr.aggregate("bench.dispatch", None, self.decide_ns, self.decisions);
        tr.aggregate(
            "core.replan.advance",
            Some(decide),
            self.advance_ns,
            self.decisions,
        );
        tr.aggregate(
            "core.replan.plan",
            Some(decide),
            self.plan_ns,
            self.decisions,
        );
    }
}

impl Dispatcher for TracedDispatch {
    type Job = Job;

    fn decide(&mut self, now: Time, pending: &mut Vec<Job>, out: &mut Vec<Commitment<Job>>) {
        let t0 = self.clocked.then(Instant::now);
        self.planner.advance(now);
        let t1 = self.clocked.then(Instant::now);
        self.scratch.clear();
        self.planner.plan(pending, now, &mut self.scratch);
        let t2 = self.clocked.then(Instant::now);
        while self.ends.peek().is_some_and(|e| e.0 <= now) {
            self.ends.pop();
        }
        for a in self.scratch.assignments() {
            let i = pending
                .iter()
                .position(|j| j.id == a.job)
                .expect("planner placed a pending job");
            let job = pending.swap_remove(i);
            self.procs[a.job.0 as usize] = a.procs.len();
            self.ends.push(Reverse(a.end));
            out.push(Commitment {
                job,
                start: a.start,
                end: a.end,
            });
        }
        assert!(pending.is_empty(), "planner left jobs pending");
        self.live_sum += self.ends.len() as u64;
        self.decisions += 1;
        if let (Some(t0), Some(t1), Some(t2)) = (t0, t1, t2) {
            self.advance_ns += (t1 - t0).as_nanos() as u64;
            self.plan_ns += (t2 - t1).as_nanos() as u64;
            self.decide_ns += t0.elapsed().as_nanos() as u64;
        }
    }
}

/// One finite replay re-driven through [`TracedDispatch`]: the completion
/// records (sorted by job id), engine counters and the dispatcher.
struct TracedReplay {
    records: Vec<CompletedJob>,
    events: u64,
    peak_queue: usize,
    dispatch: TracedDispatch,
}

/// Re-drive `prepared` through the benchmark-side dispatcher. A clocked
/// run times every call under a `des.sim` span; an unclocked one runs the
/// same code without reading the clock, under `bench.unclocked_sim`, so
/// the two differ by the tracing overhead alone.
fn traced_replay(
    tr: &mut Tracer,
    policy: &dyn Policy,
    prepared: &[Job],
    m: usize,
    clocked: bool,
) -> TracedReplay {
    let ctx = ctx();
    let name = if clocked {
        "des.sim"
    } else {
        "bench.unclocked_sim"
    };
    let (dispatch, completed, stats) = tr.span(name, |tr| {
        let dispatch = TracedDispatch::new(policy, m, &ctx, prepared.len(), clocked);
        let mut sim = Simulation::new(OnlineMachine::new(dispatch));
        for job in prepared {
            sim.schedule_at(job.release, OnlineEvent::Arrive(job.clone()));
        }
        let stats = sim.run_to_completion(4 * prepared.len() as u64 + 8);
        let (dispatch, completed, pending) = sim.into_model().into_parts();
        assert!(pending.is_empty(), "jobs left pending");
        if clocked {
            dispatch.record(tr);
        }
        (dispatch, completed, stats)
    });
    let records = tr.span("bench.records", |_| {
        let procs = &dispatch.procs;
        let mut records: Vec<CompletedJob> = completed
            .iter()
            .map(|c| CompletedJob::from_job(&c.job, c.start, c.end, procs[c.job.id.0 as usize]))
            .collect();
        records.sort_by_key(|r| r.id);
        records
    });
    TracedReplay {
        records,
        events: stats.events_dispatched,
        peak_queue: stats.peak_queue_live,
        dispatch,
    }
}

/// Per-layer figures of the traced `trace_replay` round.
fn replay_layers(
    tr: &Tracer,
    values: &mut BTreeMap<&'static str, f64>,
    events: u64,
    decisions: u64,
    peak_queue: usize,
    touched: u64,
) {
    let des_self = tr.self_s("des.sim");
    let plan_s = tr.total_s("core.replan.plan");
    values.insert("des.events", events as f64);
    values.insert("des.decisions", decisions as f64);
    values.insert("des.peak_queue_live", peak_queue as f64);
    values.insert("des.self_s", des_self);
    values.insert("des.ns_per_event", des_self * 1e9 / events.max(1) as f64);
    values.insert("core.replan.advance_s", tr.total_s("core.replan.advance"));
    values.insert("core.replan.plan_s", plan_s);
    values.insert(
        "core.replan.plan_us_per_decision",
        plan_s * 1e6 / decisions.max(1) as f64,
    );
    values.insert("core.replan.touched", touched as f64);
}

fn micro_layers(values: &mut BTreeMap<&'static str, f64>, sizes: &micro::Sizes, seed: u64) {
    eprintln!(
        "[micro] m = {}, {} live bookings, queue depth {}",
        sizes.m, sizes.live_bookings, sizes.queue_depth
    );
    let t = micro::measure(sizes, seed);
    values.insert("platform.timeline.earliest_slot_ns", t.earliest_slot_ns);
    values.insert("platform.timeline.book_remove_ns", t.book_remove_ns);
    values.insert("platform.procset.clone_hot_ns", t.clone_hot_ns);
    values.insert("des.queue.op_ns", t.queue_op_ns);
}

fn fold(records: &[CompletedJob]) -> Criteria {
    let mut acc = CriteriaAcc::new();
    for r in records {
        acc.push(r);
    }
    acc.finish()
}

// ---------------------------------------------------------------------
// trace_replay
// ---------------------------------------------------------------------

const TRACE_POLICIES: [&str; 2] = ["backfill-conservative", "backfill-easy"];

pub fn trace_replay(args: &Args, scratch: &Scratch) -> Outcome {
    let checks = Checks::default();
    let spec = family_spec("perfbench-trace", &TRACE_POLICIES, TRACE_N, args.seed, "");
    let policies: Vec<Box<dyn Policy>> = TRACE_POLICIES.iter().map(|p| policy(p)).collect();
    let ctx = ctx();

    let (mut setup, (view, jobs)) = SetUp::new(|| {
        let view = View::new(vec![spec.clone()]);
        let jobs = trace_jobs(view.plans[0].cells()[0].seed, TRACE_N);
        for p in &policies {
            std::hint::black_box(p.prepare(&jobs, TRACE_M, &ctx));
        }
        (view, jobs)
    });

    if args.trace {
        return trace_replay_traced(args, scratch, &view, &policies, checks);
    }

    replay_rounds(args, scratch, &view, &mut setup, checks, |u, checks| {
        let t0 = Instant::now();
        let run = des_online(policies[u].as_ref(), &jobs, TRACE_M, &ctx);
        let secs = t0.elapsed().as_secs_f64();
        replay_records(
            checks,
            TRACE_POLICIES[u],
            &jobs,
            TRACE_M,
            &[],
            &run.records,
            Attempt::Exact,
        );
        UnitRun {
            secs,
            jobs: jobs.len() as u64,
            criteria: Criteria::evaluate(&run.records),
        }
    })
}

fn trace_replay_traced(
    args: &Args,
    scratch: &Scratch,
    view: &View,
    policies: &[Box<dyn Policy>],
    mut checks: Checks,
) -> Outcome {
    let ctx = ctx();
    let seed = view.plans[0].cells()[0].seed;
    let mut tr = Tracer::new();
    let mut values = BTreeMap::new();
    let (mut events, mut decisions, mut peak_queue, mut touched) = (0, 0, 0, 0);
    let mut live = Vec::new();
    let mut jobs = Vec::new();
    let ((), outside_ns) = traced_round(&mut tr, |tr| {
        tr.span("scenario.campaign.expand", |_| {
            View::new(view.specs.clone())
        });
        jobs = tr.span("workload.gen", |_| trace_jobs(seed, TRACE_N));
        let mut criteria = Vec::new();
        for (p, name) in policies.iter().zip(&TRACE_POLICIES) {
            let timed = tr.span("scenario.runner.des_online", |_| {
                des_online(p.as_ref(), &jobs, TRACE_M, &ctx)
            });
            let prepared = tr.span("core.prepare", |_| {
                p.prepare(&jobs, TRACE_M, &ctx).into_owned()
            });
            let traced = traced_replay(tr, p.as_ref(), &prepared, TRACE_M, true);
            let unclocked = traced_replay(tr, p.as_ref(), &prepared, TRACE_M, false);
            tr.span("check", |_| {
                replay_records(
                    &mut checks,
                    name,
                    &jobs,
                    TRACE_M,
                    &[],
                    &timed.records,
                    Attempt::Exact,
                );
                checks.expect(
                    traced.records == timed.records && unclocked.records == timed.records,
                    || format!("{name}: benchmark-side dispatcher differs from des_online"),
                );
                checks.expect(traced.events == timed.stats.events_dispatched, || {
                    format!("{name}: event counts differ")
                });
            });
            events += traced.events;
            decisions += traced.dispatch.decisions;
            peak_queue = peak_queue.max(traced.peak_queue);
            touched += traced.dispatch.planner.touched();
            live.push(traced.dispatch.mean_live());
            criteria.push(tr.span("metrics.fold", |_| fold(&timed.records)));
        }
        let cells = campaign_view_traced(tr, scratch, view, &mut checks, &mut values);
        let served: Vec<&Criteria> = cells[0].iter().map(|c| &c.criteria).collect();
        checks.expect(served == criteria.iter().collect::<Vec<_>>(), || {
            "service cells differ from the direct replays".into()
        });
    });
    let overhead = tr.total_s("des.sim") - tr.total_s("bench.unclocked_sim");
    replay_layers(&tr, &mut values, events, decisions, peak_queue, touched);
    values.insert("workload.gen_s", tr.total_s("workload.gen"));
    values.insert("core.prepare_s", tr.total_s("core.prepare"));
    values.insert("metrics.fold_s", tr.total_s("metrics.fold"));
    values.insert(
        "scenario.campaign.expand_s",
        tr.total_s("scenario.campaign.expand"),
    );
    values.insert("service.boot_s", tr.total_s("service.boot"));
    values.insert("scenario.cache.load_s", tr.total_s("scenario.cache.load"));
    values.insert(
        "scenario.campaign.aggregate_s",
        tr.total_s("scenario.campaign.aggregate"),
    );
    values.insert("trace.overhead_s", overhead);
    for problem in tr.report(&crate::trace_path(args), outside_ns) {
        checks.expect(false, || problem);
    }
    let sizes = micro::Sizes {
        m: TRACE_M,
        live_bookings: live.iter().copied().max().unwrap_or(1).max(1),
        queue_depth: peak_queue,
        shapes: jobs.iter().take(4096).map(rigid).collect(),
    };
    micro_layers(&mut values, &sizes, args.seed);
    Outcome {
        attempted: 2 * TRACE_N as u64,
        failed: checks.failed_ops(),
        correct: checks.ok(),
        metrics: crate::layer_metrics(&values),
    }
}

// ---------------------------------------------------------------------
// volatile_replay
// ---------------------------------------------------------------------

/// `(policy, failure entry name, recovery JSON)` of the two volatile runs.
const VOLATILE_RUNS: [(&str, &str, &str); 2] = [
    ("backfill-easy", "exp-resub", "\"Resubmit\""),
    (
        "backfill-conservative",
        "exp-ckpt",
        "{\"Checkpoint\": {\"period_s\": CKPT}}",
    ),
];

fn volatile_specs(seed: u64) -> Vec<String> {
    let horizon_s = TRACE_MEAN_INTERARRIVAL_S * VOLATILE_N as f64;
    let mtbf_s = horizon_s * TRACE_M as f64 / VOLATILE_OUTAGES;
    VOLATILE_RUNS
        .iter()
        .map(|(p, fname, recovery)| {
            let recovery = recovery.replace("CKPT", &format!("{CHECKPOINT_S:?}"));
            let failures = format!(
                "\"failures\": [{{\"name\": \"{fname}\", \"trace\": {{\"regime\": {{\"Exponential\": \
                 {{\"mtbf_s\": {mtbf_s:?}}}}}, \"repair_s\": {{\"Exp\": 1800.0}}, \"horizon_s\": {horizon_s:?}}}, \
                 \"policy\": {recovery}}}], "
            );
            family_spec(&format!("perfbench-{fname}"), &[p], VOLATILE_N, seed, &failures)
        })
        .collect()
}

/// Inputs of one volatile run, derived from its plan exactly as the
/// runner derives a volatile cell's.
struct VolatileInput {
    /// Position of the run's plan in the view.
    index: usize,
    policy: Box<dyn Policy>,
    plan: FailurePlan,
    attempt: Attempt,
    label: &'static str,
}

/// The outage trace of a volatile plan's cell: seeded from the workload
/// seed and the volatile platform's display name, as the runner seeds it.
fn volatile_outages(plan: &CampaignPlan) -> Vec<Outage> {
    let spec = plan.spec();
    let cell = &plan.cells()[0];
    let entry = &spec.failures[cell.failure];
    let trace = entry.trace.as_ref().expect("volatile entry");
    let platform = format!("{}+{}", spec.platforms[cell.platform].name, entry.name);
    let trace_seed = splitmix64(cell.seed ^ fnv64(platform.as_bytes()));
    trace.generate(TRACE_M, &mut SimRng::seed_from(trace_seed))
}

fn volatile_inputs(view: &View) -> (Vec<Job>, Vec<VolatileInput>) {
    let seed = view.plans[0].cells()[0].seed;
    let jobs = trace_jobs(seed, VOLATILE_N);
    let inputs = view
        .plans
        .iter()
        .zip(&VOLATILE_RUNS)
        .enumerate()
        .map(|(index, (plan, (p, fname, _)))| {
            let entry = &plan.spec().failures[plan.cells()[0].failure];
            let outages = volatile_outages(plan);
            VolatileInput {
                index,
                policy: policy(p),
                attempt: match entry.policy {
                    FailurePolicy::Resubmit => Attempt::Exact,
                    _ => Attempt::AtMost,
                },
                plan: FailurePlan {
                    outages,
                    policy: entry.policy,
                },
                label: fname,
            }
        })
        .collect();
    (jobs, inputs)
}

/// Failure-path checks: the record sweep, at least one kill, and goodput
/// recomputed from the useful area and the wasted ticks.
fn volatile_checks(
    checks: &mut Checks,
    jobs: &[Job],
    input: &VolatileInput,
    records: &[CompletedJob],
    failures: &FailureStats,
) {
    let label = input.label;
    replay_records(
        checks,
        label,
        jobs,
        TRACE_M,
        &input.plan.outages,
        records,
        input.attempt,
    );
    checks.expect(failures.kills >= 1, || {
        format!("{label}: no job was killed")
    });
    let useful: u64 = jobs
        .iter()
        .map(|j| {
            let (q, len) = rigid(j);
            q as u64 * len.ticks()
        })
        .sum();
    let goodput = useful as f64 / (useful + failures.wasted_ticks) as f64;
    checks.expect((goodput - failures.goodput).abs() <= 1e-12, || {
        format!(
            "{label}: goodput {} but {goodput} recomputed",
            failures.goodput
        )
    });
}

/// The reliable twin (empty outage list) must reproduce `des_online`.
fn twin_check(
    checks: &mut Checks,
    jobs: &[Job],
    input: &VolatileInput,
    t: &mut Option<&mut Tracer>,
) -> f64 {
    let ctx = ctx();
    let twin_plan = FailurePlan {
        outages: Vec::new(),
        policy: input.plan.policy,
    };
    let t0 = Instant::now();
    let twin = sp(t, "scenario.runner.reliable_twin", |_| {
        des_online_volatile(input.policy.as_ref(), jobs, TRACE_M, &ctx, &twin_plan, true)
    });
    let twin_s = t0.elapsed().as_secs_f64();
    let reference = sp(t, "scenario.runner.des_online", |_| {
        des_online(input.policy.as_ref(), jobs, TRACE_M, &ctx)
    });
    checks.expect(twin.records == reference.records, || {
        format!("{}: reliable twin differs from des_online", input.label)
    });
    twin_s
}

pub fn volatile_replay(args: &Args, scratch: &Scratch) -> Outcome {
    let mut checks = Checks::default();
    let specs = volatile_specs(args.seed);
    let ctx = ctx();

    let (mut setup, (view, jobs, inputs)) = SetUp::new(|| {
        let view = View::new(specs.clone());
        let (jobs, inputs) = volatile_inputs(&view);
        for input in &inputs {
            std::hint::black_box(input.policy.prepare(&jobs, TRACE_M, &ctx));
        }
        (view, jobs, inputs)
    });
    eprintln!(
        "[volatile_replay] {} jobs, outages: {:?}",
        jobs.len(),
        inputs
            .iter()
            .map(|i| i.plan.outages.len())
            .collect::<Vec<_>>()
    );

    if args.trace {
        return volatile_traced(args, scratch, &view, &jobs, &inputs, checks);
    }

    for input in &inputs {
        twin_check(&mut checks, &jobs, input, &mut None);
    }
    replay_rounds(args, scratch, &view, &mut setup, checks, |u, checks| {
        let input = &inputs[u];
        let t0 = Instant::now();
        let out = des_online_volatile(
            input.policy.as_ref(),
            &jobs,
            TRACE_M,
            &ctx,
            &input.plan,
            true,
        );
        let secs = t0.elapsed().as_secs_f64();
        volatile_checks(checks, &jobs, input, &out.records, &out.failures);
        UnitRun {
            secs,
            jobs: jobs.len() as u64,
            criteria: Criteria::evaluate(&out.records),
        }
    })
}

fn volatile_traced(
    args: &Args,
    scratch: &Scratch,
    view: &View,
    jobs: &[Job],
    inputs: &[VolatileInput],
    mut checks: Checks,
) -> Outcome {
    let ctx = ctx();
    let seed = view.plans[0].cells()[0].seed;
    let mut tr = Tracer::new();
    let mut values = BTreeMap::new();
    let (mut events, mut peak_queue, mut outages, mut kills, mut wasted, mut slots) =
        (0u64, 0usize, 0usize, 0u64, 0u64, 0u64);
    let mut touched = 0u64;
    let (mut volatile_s, mut twin_s) = (0.0, 0.0);
    let ((), outside_ns) = traced_round(&mut tr, |tr| {
        tr.span("scenario.campaign.expand", |_| {
            View::new(view.specs.clone())
        });
        let regenerated = tr.span("workload.gen", |_| trace_jobs(seed, VOLATILE_N));
        checks.expect(regenerated == jobs, || {
            "trace generation is not deterministic".into()
        });
        let mut criteria = Vec::new();
        for input in inputs {
            let regenerated = tr.span("workload.outages", |_| {
                volatile_outages(&view.plans[input.index])
            });
            checks.expect(regenerated == input.plan.outages, || {
                "outage generation is not deterministic".into()
            });
            tr.span("core.prepare", |_| {
                std::hint::black_box(input.policy.prepare(jobs, TRACE_M, &ctx));
            });
            let t0 = Instant::now();
            let out = tr.span("scenario.runner.des_online_volatile", |_| {
                des_online_volatile(
                    input.policy.as_ref(),
                    jobs,
                    TRACE_M,
                    &ctx,
                    &input.plan,
                    true,
                )
            });
            volatile_s += t0.elapsed().as_secs_f64();
            twin_s += tr.span("check", |tr| {
                volatile_checks(&mut checks, jobs, input, &out.records, &out.failures);
                twin_check(&mut checks, jobs, input, &mut Some(tr))
            });
            events += out.stats.events_dispatched;
            peak_queue = peak_queue.max(out.stats.peak_queue_live);
            outages += input.plan.outages.len();
            kills += out.failures.kills;
            wasted += out.failures.wasted_ticks;
            // The closed machine never recycles a running-table slot:
            // one per commitment, and a resubmitted job commits again.
            slots += jobs.len() as u64 + out.failures.resubmits;
            touched += out.replan_touched.unwrap_or(0);
            criteria.push(tr.span("metrics.fold", |_| fold(&out.records)));
        }
        let cells = campaign_view_traced(tr, scratch, view, &mut checks, &mut values);
        let served: Vec<&Criteria> = cells.iter().map(|c| &c[0].criteria).collect();
        checks.expect(served == criteria.iter().collect::<Vec<_>>(), || {
            "service cells differ from the direct volatile runs".into()
        });
    });
    let overhead = volatile_s - twin_s;
    values.insert("des.events", events as f64);
    values.insert("des.peak_queue_live", peak_queue as f64);
    values.insert("core.replan.touched", touched as f64);
    values.insert("failure.outages", outages as f64);
    values.insert("failure.kills", kills as f64);
    values.insert("failure.wasted_ticks", wasted as f64);
    values.insert("des.slots", slots as f64);
    values.insert("scenario.runner.failure_overhead_s", overhead);
    values.insert(
        "scenario.runner.failure_us_per_outage",
        overhead * 1e6 / outages.max(1) as f64,
    );
    values.insert(
        "workload.gen_s",
        tr.total_s("workload.gen") + tr.total_s("workload.outages"),
    );
    values.insert("core.prepare_s", tr.total_s("core.prepare"));
    values.insert("metrics.fold_s", tr.total_s("metrics.fold"));
    values.insert(
        "scenario.campaign.expand_s",
        tr.total_s("scenario.campaign.expand"),
    );
    values.insert("service.boot_s", tr.total_s("service.boot"));
    values.insert("scenario.cache.load_s", tr.total_s("scenario.cache.load"));
    values.insert(
        "scenario.campaign.aggregate_s",
        tr.total_s("scenario.campaign.aggregate"),
    );
    for problem in tr.report(&crate::trace_path(args), outside_ns) {
        checks.expect(false, || problem);
    }
    Outcome {
        attempted: 2 * VOLATILE_N as u64,
        failed: checks.failed_ops(),
        correct: checks.ok(),
        metrics: crate::layer_metrics(&values),
    }
}
