#!/usr/bin/env bash
# Pre-merge gate: formatting, lints, the tier-1 build/test pair (which
# drives the real binaries: crates/*/tests/*_bin.rs, bins_smoke.rs), the
# threaded-shim and vendored-crate extras, a fuzz pass, and the benchmark
# workspace's own gate.
#
# The engine's operand touch-audit (every register the datapath touches must
# be in `Instr::operands()`, DESIGN §2) needs no step of its own: it is a
# debug assertion, `[profile.test]` keeps those on, so tier-1 — including
# crates/audit/tests/fuzz_smoke.rs and sched_equivalence — already runs it.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== seam: shared state only in memside.rs, reservations only through the Unit table, no file over 1200 lines"
src=crates/sim/src
if grep -nE 'self\.global\b|l2_port|dram_port|caches\.l2|caches\.tlb' $src/*.rs | grep -v "^$src/memside.rs:"; then exit 1; fi
if grep -n '\.acquire(' $src/*.rs | grep -vE "^$src/(exec|memside|mem)\.rs:"; then exit 1; fi
if wc -l $src/*.rs | awk '$2 != "total" && $1 > 1200' | grep .; then exit 1; fi

echo "== seam: a run is its arguments — no trace knob beside the sink, one launch door"
if grep -rnE 'TraceConfig|opts\.trace|fn is_null|CacheEvent' crates/{trace,sim,prof,serve,replay,audit}/src; then exit 1; fi
if [ "$(grep -cE '^\s*pub fn (run|launch|profile)' $src/gpu.rs)" -gt 7 ]; then
    echo "$src/gpu.rs: more than seven public run/launch/profile entry points"; exit 1
fi
if [ "$(grep -cE '^\s*pub fn profile_' crates/prof/src/lib.rs)" -gt 2 ]; then
    echo "crates/prof/src/lib.rs: more than two public profile_* functions"; exit 1
fi

echo "== seam: one engine driver — sim_threads and set_sweep_jobs only at their inert shims"
# The two shims stay until the benchmark stops naming them (ROADMAP 4(a));
# service.rs sends a stale `sim_threads` key to check that it is ignored.
if grep -rnwE 'sim_threads|set_sweep_jobs' --include='*.rs' crates examples tests vendor \
    | grep -vE "^crates/sim/src/(device|threads)\.rs:|^crates/serve/tests/service\.rs:"; then exit 1; fi

echo "== seam: one flag parser — argv is read only in crates/obs/src/cli.rs, no bin keeps a usage text"
if grep -rn 'std::env::args' crates examples tests | grep -v '^crates/obs/src/cli.rs:'; then exit 1; fi
bins=(examples/src/{hopper_run,profile_kernel}.rs crates/{bench,replay,audit,serve}/src/bin/*.rs)
if grep -nE 'fn usage|USAGE' "${bins[@]}"; then exit 1; fi

echo "== seam: one JSON writer — no derived Serialize, one object builder, one escaper"
json_src=(--include='*.rs' crates examples tests vendor)
if grep -rnE 'derive\(.*Serialize' "${json_src[@]}"; then exit 1; fi
if [ "$(grep -rn 'fn obj(' "${json_src[@]}" | wc -l)" -ne 1 ]; then
    grep -rn 'fn obj(' "${json_src[@]}"; echo "want exactly one fn obj("; exit 1
fi
if grep -rnE 'fn (json_escape|esc)\(' "${json_src[@]}"; then exit 1; fi

echo "== tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q --workspace

echo "== hopper-replay under the threaded rayon shim (4-wide)"
# The replay crate decodes a trace in parallel chunks; its goldens pin the
# result, so a chunking bug that only shows at another width fails here.
# The workspace run above covers the host's width.
RAYON_NUM_THREADS=4 cargo test -q -p hopper-replay

echo "== vendored rayon shim and serde_json unit tests"
cargo test -q --manifest-path vendor/rayon/Cargo.toml
cargo test -q --manifest-path vendor/serde_json/Cargo.toml

echo "== hfuzz: 200 random kernels through the differential oracles"
target/release/hfuzz --seed 0xh0pper --iters 200 --out target/hfuzz

echo "== benchmark workspace: fmt, clippy, tests, selftest"
benchmark/check.sh

echo "all checks passed"
