//! The campaign path every workload shares (spec → `CampaignPlan` →
//! cells → `CellCache` → `aggregate_csv`, in-process or through the
//! service), and the `campaign_grid` workload built on it.

use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::time::Instant;

use lsps_core::{registry, OutcomeKind};
use lsps_des::SimRng;
use lsps_metrics::CriteriaAcc;
use lsps_scenario::cache::CellCache;
use lsps_scenario::campaign::aggregate_csv;
use lsps_scenario::families::builtin_family;
use lsps_scenario::runner::{to_csv, Executor};
use lsps_scenario::{CampaignOptions, CampaignPlan, CampaignSpec, Cell};

use crate::check::Checks;
use crate::trace::{traced_round, Tracer};
use crate::{
    fastest_decile, median, peak_rss_mb, service, Args, Metric, Outcome, RoundClock, Scratch, SetUp,
};

/// Run `f` inside a span when tracing, bare otherwise.
pub fn sp<T>(
    t: &mut Option<&mut Tracer>,
    name: &'static str,
    f: impl FnOnce(&mut Option<&mut Tracer>) -> T,
) -> T {
    match t {
        Some(tr) => tr.span(name, |inner| f(&mut Some(inner))),
        None => f(&mut None),
    }
}

/// Parse a spec and expand it into its cells, as `lsps-campaign` and the
/// daemon do.
pub fn expand(spec_text: &str) -> CampaignPlan {
    let spec: CampaignSpec = serde_json::from_str(spec_text).expect("benchmark specs parse");
    let opts = CampaignOptions {
        cache_dir: None,
        threads: 1,
        base_dir: None,
    };
    CampaignPlan::expand(&spec, &opts).expect("benchmark specs validate")
}

/// A workload's campaigns: the spec texts and their expansions.
pub struct View {
    pub specs: Vec<String>,
    pub plans: Vec<CampaignPlan>,
}

impl View {
    pub fn new(specs: Vec<String>) -> View {
        let plans = specs.iter().map(|s| expand(s)).collect();
        View { specs, plans }
    }

    pub fn cells(&self) -> usize {
        self.plans.iter().map(|p| p.cells().len()).sum()
    }
}

/// One warm pass: every cell of every plan loaded from `cache`, then the
/// raw and aggregate CSVs rebuilt. Returns the cells and CSVs per plan
/// and how many cells the cache served.
pub fn warm_once(
    cache: &CellCache,
    view: &View,
    t: &mut Option<&mut Tracer>,
) -> (Vec<Vec<Cell>>, Vec<(String, String)>, usize) {
    let mut hits = 0;
    let mut all = Vec::new();
    let mut csvs = Vec::new();
    for plan in &view.plans {
        let cells: Vec<Cell> = sp(t, "scenario.cache.load", |_| {
            plan.cells()
                .iter()
                .filter_map(|c| cache.load(&c.key))
                .collect()
        });
        hits += cells.len();
        let csv = sp(t, "scenario.campaign.aggregate", |_| {
            (to_csv(&cells), aggregate_csv(&cells))
        });
        all.push(cells);
        csvs.push(csv);
    }
    (all, csvs, hits)
}

/// Rows of the raw CSVs in `expected` that `got` lacks: cells that are
/// missing from a pass or differ from the reference pass.
pub fn rows_failed(expected: &[(String, String)], got: &[(String, String)]) -> u64 {
    let rows: HashSet<&str> = got
        .iter()
        .flat_map(|(raw, _)| raw.lines().skip(1))
        .collect();
    expected
        .iter()
        .flat_map(|(raw, _)| raw.lines().skip(1))
        .filter(|row| !rows.contains(row))
        .count() as u64
}

/// Warm passes over `cache_dir` for `budget_s` (at least three), each
/// pass's host time pushed onto `times`. Checks that every cell was a hit
/// and that the CSVs equal `expected` byte for byte; returns the cells
/// and the first pass's failed cells (see [`rows_failed`]).
pub fn warm_passes(
    cache_dir: &Path,
    view: &View,
    expected: &[(String, String)],
    checks: &mut Checks,
    times: &mut Vec<f64>,
    budget_s: f64,
) -> (Vec<Vec<Cell>>, u64) {
    let cache = CellCache::new(cache_dir).expect("cache directory opens");
    let started = Instant::now();
    let mut passes = 0;
    let mut cells = Vec::new();
    let mut failed = 0;
    while passes < 3 || started.elapsed().as_secs_f64() < budget_s {
        let t0 = Instant::now();
        let (c, csvs, hits) = warm_once(&cache, view, &mut None);
        times.push(t0.elapsed().as_secs_f64());
        if passes == 0 {
            checks.expect(hits == view.cells(), || {
                format!("warm pass: {hits} cache hits for {} cells", view.cells())
            });
            checks.expect(csvs == expected, || {
                "warm pass: CSVs differ from the cold ones".to_string()
            });
            failed = rows_failed(expected, &csvs);
        }
        passes += 1;
        cells = c;
    }
    (cells, failed)
}

// ---------------------------------------------------------------------
// campaign_grid
// ---------------------------------------------------------------------

/// Grid axes. Cell count = 14 policies × 2 executors × 2 platforms ×
/// 2 families × `GRID_REPS`.
const GRID_REPS: usize = 2;
const GRID_N: usize = 1000;
const GRID_PLATFORMS: [(&str, usize); 2] = [("m16", 16), ("m64", 64)];
const GRID_FAMILIES: [&str; 2] = ["moldable0", "moldable-online"];
/// Host time per round spent on warm passes.
pub const WARM_BUDGET_S: f64 = 0.1;
/// Rounding slack of the ratio check, far below any real violation.
const RATIO_ULPS: f64 = 1e-12;

/// The registry's rectangle policies — the ones both executors run.
fn rect_policies() -> Vec<String> {
    registry()
        .into_iter()
        .filter(|p| p.outcome_kind() == OutcomeKind::Rect)
        .map(|p| p.name().to_string())
        .collect()
}

fn grid_spec(seed: u64) -> String {
    let policies: Vec<String> = rect_policies().iter().map(|p| format!("\"{p}\"")).collect();
    let platforms: Vec<String> = GRID_PLATFORMS
        .iter()
        .map(|(name, m)| format!("{{\"name\": \"{name}\", \"m\": {m}}}"))
        .collect();
    let workloads: Vec<String> = GRID_FAMILIES
        .iter()
        .map(|f| {
            format!(
                "{{\"name\": \"{f}\", \"source\": {{\"Family\": {{\"family\": \"{f}\", \"n\": {GRID_N}}}}}}}"
            )
        })
        .collect();
    format!(
        "{{\"name\": \"perfbench-grid\", \"policies\": [{}], \"executors\": [\"direct\", \"des-online\"], \
         \"platforms\": [{}], \"workloads\": [{}], \
         \"replication\": {{\"base_seed\": {seed}, \"replications\": {GRID_REPS}, \"derivation\": \"splitmix\"}}, \
         \"ctx\": {{\"release_mode\": \"online\", \"estimate_factor\": 1.0, \"allot_rule\": \"balanced\"}}}}",
        policies.join(", "),
        platforms.join(", "),
        workloads.join(", ")
    )
}

/// Failed cells of a service pass: those the daemon reports as failed
/// (it then serves no CSVs), else the rows missing from or differing in
/// its CSVs.
fn service_failed(reference: &[(String, String)], pass: &service::Pass) -> u64 {
    if pass.failed > 0 {
        pass.failed
    } else {
        rows_failed(reference, &pass.csvs)
    }
}

/// The cold in-process pass, as `lsps-campaign` runs it on one thread:
/// every cell through `run_cell`, stored into `cache` as it lands.
/// Returns the cells and the host time spent in `run_cell` alone: shard
/// writes cost 0.1–2 ms each on the reference host depending on the
/// disk's state, so they are timed apart (the traced run reports them).
fn cold_pass(plan: &CampaignPlan, cache: &CellCache) -> (Vec<Cell>, f64) {
    let mut cells = Vec::with_capacity(plan.cells().len());
    let mut compute_s = 0.0;
    for (i, pc) in plan.cells().iter().enumerate() {
        let t0 = Instant::now();
        let cell = plan.run_cell(i);
        compute_s += t0.elapsed().as_secs_f64();
        cache.store(&pc.key, &cell);
        cells.push(cell);
    }
    (cells, compute_s)
}

/// [`cold_pass`] with a span around every `run_cell` and every store.
fn cold_pass_traced(plan: &CampaignPlan, cache: &CellCache, tr: &mut Tracer) -> Vec<Cell> {
    let mut cells = Vec::with_capacity(plan.cells().len());
    for (i, pc) in plan.cells().iter().enumerate() {
        let name = match pc.executor {
            Executor::Direct => "scenario.cell.direct",
            _ => "scenario.cell.des_online",
        };
        let cell = tr.span(name, |_| plan.run_cell(i));
        tr.span("scenario.cache.store", |_| cache.store(&pc.key, &cell));
        cells.push(cell);
    }
    cells
}

/// Criteria columns of a row, bit for bit.
fn criteria_bits(c: &Cell) -> String {
    serde_json::to_string(&c.criteria).expect("criteria serialize")
}

/// Checks on a finished grid: ratios at least 1, utilization in (0, 1],
/// and on `moldable0` every `direct` row equal to its `des-online` row in
/// every criteria column (with everything released at 0 the online
/// decision at time 0 is the batch schedule).
fn grid_checks(plan: &CampaignPlan, cells: &[Cell], checks: &mut Checks) {
    // A schedule that meets a lower bound exactly divides two sums taken
    // in different orders: the ratio may read 1 − a few ulps.
    let one = 1.0 - RATIO_ULPS;
    let mut bad_ratio = 0;
    for c in cells {
        let ratios_ok = c.cmax_ratio >= one && c.csum_ratio >= one && c.wsum_ratio >= one;
        let util_ok = c.utilization > 0.0 && c.utilization <= 1.0;
        if !(ratios_ok && util_ok) {
            bad_ratio += 1;
        }
    }
    checks.expect(bad_ratio == 0, || {
        format!("grid: {bad_ratio} cells with a ratio below 1 or utilization outside (0, 1]")
    });
    let mut direct: BTreeMap<(String, String, u64, String), &Cell> = BTreeMap::new();
    for (pc, c) in plan.cells().iter().zip(cells) {
        if pc.executor == Executor::Direct && c.workload == "moldable0" {
            direct.insert(
                (
                    c.policy.clone(),
                    c.workload.clone(),
                    c.seed,
                    c.platform.clone(),
                ),
                c,
            );
        }
    }
    let mut pairs = 0;
    let mut mismatched = Vec::new();
    for (pc, c) in plan.cells().iter().zip(cells) {
        if pc.executor != Executor::DesOnline || c.workload != "moldable0" {
            continue;
        }
        let key = (
            c.policy.clone(),
            c.workload.clone(),
            c.seed,
            c.platform.clone(),
        );
        if let Some(d) = direct.get(&key) {
            pairs += 1;
            let same = criteria_bits(d) == criteria_bits(c)
                && d.n == c.n
                && d.cmax_ratio.to_bits() == c.cmax_ratio.to_bits()
                && d.csum_ratio.to_bits() == c.csum_ratio.to_bits()
                && d.wsum_ratio.to_bits() == c.wsum_ratio.to_bits()
                && d.utilization.to_bits() == c.utilization.to_bits();
            if !same {
                mismatched.push(format!("{}/{}/{}", c.policy, c.platform, c.seed));
            }
        }
    }
    let expected_pairs = direct.len();
    checks.expect(pairs == expected_pairs && pairs > 0, || {
        format!("grid: {pairs} direct/des-online pairs on moldable0, expected {expected_pairs}")
    });
    checks.expect(mismatched.is_empty(), || {
        format!(
            "grid: {} moldable0 direct rows differ from their des-online rows: {}",
            mismatched.len(),
            mismatched.join(" ")
        )
    });
}

/// Re-run the `direct` cells layer by layer — input generation, the
/// batch schedule, the criteria fold — and check each fold equals the
/// cell `run_cell` produced. Traced runs only.
fn direct_decomposition(plan: &CampaignPlan, cells: &[Cell], tr: &mut Tracer, checks: &mut Checks) {
    let spec = plan.spec();
    let ctx = spec.ctx.to_policy_ctx();
    let policies: Vec<_> = spec
        .policies
        .iter()
        .map(|p| lsps_core::policy::by_name(p).expect("registry policy"))
        .collect();
    let mut mismatched = 0;
    for (pc, cell) in plan.cells().iter().zip(cells) {
        if pc.executor != Executor::Direct {
            continue;
        }
        let m = spec.platforms[pc.platform].m;
        let family = GRID_FAMILIES
            .iter()
            .find(|f| **f == spec.workloads[pc.entry].name)
            .expect("grid family");
        let jobs = tr.span("workload.gen", |_| {
            let gen = builtin_family(family, GRID_N).expect("builtin family");
            gen(m, &mut SimRng::seed_from(pc.seed))
        });
        let policy = &policies[pc.policy];
        let run = tr.span("core.policy", |_| policy.run_outcome(&jobs, m, &ctx));
        let criteria = tr.span("metrics.fold", |_| {
            let mut records = run.outcome.completed(&run.jobs);
            records.sort_by_key(|r| r.id);
            let mut acc = CriteriaAcc::new();
            for r in &records {
                acc.push(r);
            }
            acc.finish()
        });
        if criteria != cell.criteria {
            mismatched += 1;
        }
    }
    checks.expect(mismatched == 0, || {
        format!("grid: {mismatched} direct cells differ from their layer-by-layer re-run")
    });
}

pub fn campaign_grid(args: &Args, scratch: &Scratch) -> Outcome {
    let mut checks = Checks::default();
    let spec_text = grid_spec(args.seed);

    // Set-up: spec parsing and expansion.
    let (mut setup, view) = SetUp::new(|| View::new(vec![spec_text.clone()]));
    let plan = &view.plans[0];
    let n_cells = plan.cells().len();
    eprintln!("[campaign_grid] {n_cells} cells");

    if args.trace {
        return grid_traced(args, scratch, &view, checks);
    }

    let mut cold_times = Vec::new();
    let mut warm_times = Vec::new();
    let mut service_times = Vec::new();
    let mut jobs = 0;
    let mut attempted = 0u64;
    let mut reference: Option<(String, String)> = None;
    let mut clock = RoundClock::new(args.seconds);
    let mut last = None;
    while clock.another(last) {
        let round = Instant::now();
        let cache_dir = scratch.fresh("cold");
        let cache = CellCache::new(&cache_dir).expect("cache directory opens");
        let (cells, cold_s) = cold_pass(plan, &cache);
        cold_times.push(cold_s);
        jobs = cells.iter().map(|c| c.n).sum::<usize>();
        let cold_csv = (to_csv(&cells), aggregate_csv(&cells));
        if reference.is_none() {
            grid_checks(plan, &cells, &mut checks);
        }
        let reference = reference.get_or_insert_with(|| cold_csv.clone());
        checks.expect(*reference == cold_csv, || {
            "grid: a cold pass differs from the first".to_string()
        });
        let reference = std::slice::from_ref(reference);
        checks.failed(rows_failed(reference, std::slice::from_ref(&cold_csv)));

        let before = warm_times.len();
        let (_, warm_failed) = warm_passes(
            &cache_dir,
            &view,
            reference,
            &mut checks,
            &mut warm_times,
            WARM_BUDGET_S,
        );
        checks.failed(warm_failed);
        let warm_round = fastest_decile(&warm_times[before..]);

        let pass = service::run(service::boot(scratch), &view.specs, &mut checks);
        checks.expect(pass.csvs == [cold_csv], || {
            "grid: service CSVs differ from the cold in-process ones".to_string()
        });
        checks.failed(service_failed(reference, &pass));
        service_times.push(pass.wall_s);
        let _ = std::fs::remove_dir_all(&cache_dir);
        attempted += 3 * n_cells as u64;
        let setup_sample = setup.sample();
        last = Some(round.elapsed().as_secs_f64());
        eprintln!(
            "[campaign_grid] round: units {cold_s:.4} s, service {:.4} s, setup {setup_sample:.6} s, warm {warm_round:.7} s",
            pass.wall_s
        );
    }
    let n = n_cells as f64;
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
                value: jobs as f64 / median(&cold_times),
                unit: "jobs/s",
            },
            Metric {
                name: "peak_rss_mb",
                value: peak_rss_mb(),
                unit: "MiB",
            },
            Metric {
                name: "warm_cells_per_s",
                value: n / fastest_decile(&warm_times),
                unit: "cells/s",
            },
            Metric {
                name: "service_cells_per_s",
                value: n / median(&service_times),
                unit: "cells/s",
            },
        ],
    }
}

fn grid_traced(args: &Args, scratch: &Scratch, view: &View, mut checks: Checks) -> Outcome {
    let spec_text = &view.specs[0];
    let mut tr = Tracer::new();
    let n_cells = view.cells();
    // Untraced twin of the cold pass, for the tracing overhead.
    let untraced_s = {
        let dir = scratch.fresh("untraced");
        let cache = CellCache::new(&dir).expect("cache directory opens");
        cold_pass(&view.plans[0], &cache).1
    };
    let cache_dir = scratch.fresh("cold");
    let mut service_wall = 0.0;
    let mut respawns = 0;
    let mut cell_s = 0.0;
    let ((), outside_ns) = traced_round(&mut tr, |tr| {
        let plan = tr.span("scenario.campaign.expand", |_| expand(spec_text));
        let cache = CellCache::new(&cache_dir).expect("cache directory opens");
        let cells = tr.span("scenario.campaign.cold", |tr| {
            cold_pass_traced(&plan, &cache, tr)
        });
        cell_s = tr.total_s("scenario.cell.direct") + tr.total_s("scenario.cell.des_online");
        let cold_csv = tr.span("scenario.campaign.aggregate", |_| {
            (to_csv(&cells), aggregate_csv(&cells))
        });
        tr.span("check", |tr| {
            grid_checks(&plan, &cells, &mut checks);
            direct_decomposition(&plan, &cells, tr, &mut checks);
        });
        let (_, csvs, hits) = tr.span("scenario.campaign.warm", |tr| {
            let cache = CellCache::new(&cache_dir).expect("cache directory opens");
            warm_once(&cache, view, &mut Some(tr))
        });
        checks.expect(hits == n_cells && csvs == [cold_csv.clone()], || {
            "grid (traced): warm pass differs from the cold pass".to_string()
        });
        let reference = std::slice::from_ref(&cold_csv);
        checks.failed(rows_failed(reference, &csvs));
        let booted = tr.span("service.boot", |_| service::boot(scratch));
        let pass = tr.span("service.run", |_| {
            service::run(booted, &view.specs, &mut checks)
        });
        checks.failed(service_failed(reference, &pass));
        checks.expect(pass.csvs == [cold_csv.clone()], || {
            "grid (traced): service CSVs differ from the cold ones".to_string()
        });
        service_wall = pass.wall_s;
        respawns = pass.respawns;
    });
    let bytes: u64 = {
        let cache = CellCache::new(&cache_dir).expect("cache directory opens");
        view.plans[0]
            .cells()
            .iter()
            .map(|c| std::fs::metadata(cache.shard_path(&c.key)).map_or(0, |m| m.len()))
            .sum()
    };
    let traced_s = tr.total_s("scenario.cell.direct") + tr.total_s("scenario.cell.des_online");
    for problem in tr.report(&crate::trace_path(args), outside_ns) {
        checks.expect(false, || problem);
    }
    let mut v = BTreeMap::new();
    v.insert(
        "scenario.campaign.expand_s",
        tr.total_s("scenario.campaign.expand"),
    );
    v.insert("service.boot_s", tr.total_s("service.boot"));
    v.insert("workload.gen_s", tr.total_s("workload.gen"));
    v.insert("core.policy_s", tr.total_s("core.policy"));
    v.insert("metrics.fold_s", tr.total_s("metrics.fold"));
    v.insert("scenario.cell.direct_s", tr.total_s("scenario.cell.direct"));
    v.insert(
        "scenario.cell.des_online_s",
        tr.total_s("scenario.cell.des_online"),
    );
    v.insert("scenario.cache.store_s", tr.total_s("scenario.cache.store"));
    v.insert("scenario.cache.load_s", tr.total_s("scenario.cache.load"));
    v.insert("scenario.cache.bytes", bytes as f64);
    v.insert(
        "scenario.campaign.aggregate_s",
        tr.total_s("scenario.campaign.aggregate"),
    );
    v.insert(
        "service.rpc_overhead_s",
        service_wall - cell_s / service::WORKERS as f64,
    );
    v.insert("service.worker_respawns", respawns as f64);
    v.insert("trace.overhead_s", traced_s - untraced_s);
    Outcome {
        attempted: 3 * n_cells as u64,
        failed: checks.failed_ops(),
        correct: checks.ok(),
        metrics: crate::layer_metrics(&v),
    }
}
