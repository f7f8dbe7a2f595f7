#!/usr/bin/env bash
# Build the benchmark from source (release) and run it. Arguments pass
# through to `lsps-perfbench`:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Honours CARGO_TARGET_DIR.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/lsps-perfbench" "$@"
