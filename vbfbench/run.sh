#!/usr/bin/env bash
# Builds the release serve_agent and this benchmark, then runs one
# measurement. Run from the repository root, for example:
#   bash vbfbench/run.sh --workload paper_fp --seed 1 --seconds 30 --trace 0
set -euo pipefail
if [[ ! -f Cargo.toml || ! -d crates/bench || ! -f vbfbench/Cargo.toml ]]; then
    echo "vbfbench: run from the repository root (needs Cargo.toml, crates/ and vbfbench/)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p bench --bin serve_agent >&2
cargo build --release --offline --quiet --manifest-path vbfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/vbfbench" --server "$CARGO_TARGET_DIR/release/serve_agent" "$@"
