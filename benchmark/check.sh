#!/usr/bin/env bash
# fmt + clippy -D warnings + tests + selftest for the benchmark's own
# workspace (the repository's scripts/check.sh does not see it).
set -euo pipefail
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --release
cargo run --offline --release --quiet -- selftest
