//! The benchmark's `lsps-worker`: the service crate's worker loop, built
//! beside `lsps-perfbench` so the benchmark's daemon can spawn it.

use std::process::ExitCode;

fn main() -> ExitCode {
    match lsps_service::worker::worker_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("lsps-perfbench-worker: {e}");
            ExitCode::FAILURE
        }
    }
}
