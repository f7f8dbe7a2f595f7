//! The service path: `lsps-campaignd`'s [`Daemon`] in-process, driving
//! two `lsps-worker` processes (the `lsps-perfbench-worker` binary built
//! beside this one, which runs the same `worker_main`) over a cold cache
//! of its own.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lsps_service::Daemon;

use crate::check::Checks;
use crate::Scratch;

/// Worker processes per daemon: one per vCPU of the reference host.
pub const WORKERS: usize = 2;

fn worker_cmd() -> PathBuf {
    let exe = std::env::current_exe().expect("own executable path");
    exe.with_file_name(format!(
        "lsps-perfbench-worker{}",
        std::env::consts::EXE_SUFFIX
    ))
}

/// A booted daemon and the directories it owns.
pub struct Booted {
    pub daemon: Arc<Daemon>,
    pub cache_dir: PathBuf,
}

/// Start a daemon on fresh cache and journal directories.
pub fn boot(scratch: &Scratch) -> Booted {
    let root = scratch.fresh("service");
    let mut cfg = lsps_service::daemon::config_under(&root, worker_cmd());
    cfg.workers = WORKERS;
    let cache_dir = cfg.cache_dir.clone();
    let daemon = Daemon::start(cfg).expect("daemon starts");
    Booted { daemon, cache_dir }
}

/// What one submit-to-aggregate pass returned.
pub struct Pass {
    pub wall_s: f64,
    /// `(raw, aggregate)` CSVs per submitted spec; empty when a cell
    /// failed.
    pub csvs: Vec<(String, String)>,
    /// Cells the daemon reports as failed, over every campaign.
    pub failed: u64,
    pub respawns: u64,
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    let at = status.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = status[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Submit every spec, wait until each campaign is complete, fetch the
/// CSVs, then shut the daemon down (killing and reaping its workers).
/// Timed from the first submission to the last aggregate.
pub fn run(booted: Booted, specs: &[String], checks: &mut Checks) -> Pass {
    let daemon = booted.daemon;
    let t0 = Instant::now();
    let ids: Vec<String> = specs
        .iter()
        .map(|s| daemon.submit(s).expect("spec accepted"))
        .collect();
    let mut respawns = 0;
    let mut failed = 0;
    for id in &ids {
        loop {
            let status = daemon.status_json(id).expect("known campaign");
            respawns = status_field(&status, "worker_respawns").unwrap_or(0);
            if status.contains("\"complete\":true") {
                let n = status_field(&status, "failed").unwrap_or(0);
                checks.expect(n == 0, || format!("service: cells failed: {status}"));
                failed += n;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    let csvs: Vec<(String, String)> = if failed > 0 {
        Vec::new()
    } else {
        ids.iter()
            .map(|id| daemon.csvs(id).expect("complete campaign serves its CSVs"))
            .collect()
    };
    let wall_s = t0.elapsed().as_secs_f64();
    daemon.shutdown();
    Pass {
        wall_s,
        csvs,
        failed,
        respawns,
    }
}
