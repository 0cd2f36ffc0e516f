#!/usr/bin/env bash
# Continuous-integration gate: everything a PR must pass.
# Mirrors .github/workflows/ci.yml so the same checks run locally.
set -euo pipefail
cd "$(dirname "$0")"

# ci-step: fmt
echo "== cargo fmt --check =="
cargo fmt --all -- --check

# ci-step: build
echo "== cargo build --release =="
cargo build --release --workspace

# ci-step: test
echo "== cargo test =="
cargo test -q --workspace

# ci-step: clippy
echo "== cargo clippy =="
cargo clippy --all-targets --workspace -- -D warnings

# ci-step: docs
echo "== cargo doc (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# ci-step: deny
echo "== cargo deny =="
# The workflow runs cargo-deny via its action; locally it gates only when
# installed (`cargo install cargo-deny`) so a bare toolchain can still run
# the rest of the suite.
if command -v cargo-deny >/dev/null 2>&1; then
  cargo deny check
else
  echo "(cargo-deny not installed; skipping — CI runs it)"
fi

# ci-step: simbench-determinism
echo "== perf smoke + replay determinism: simbench --quick =="
# Catches panics, determinism violations (simbench asserts repeat runs
# bit-identical), and gross hangs. Timing numbers are informational only —
# CI machines are too noisy to gate on them.
cargo run --release -q -p bench --bin simbench -- --quick

# ci-step: goodput-smoke
echo "== goodput smoke: fig14 k=5 ladder point at 98% of committed baseline =="
# Replays the committed fig14 nexus #models=5 configuration (5 Inception
# copies, one GPU, 100 ms SLO, batch-plan ladders) at 98% of the committed
# throughput and fails if the bad rate exceeds the figure's own 1%
# criterion — a fast tripwire for ladder planning/dispatch regressions.
cargo run --release -q -p bench --bin goodput_smoke -- --quick

# ci-step: front-door
echo "== front-door smoke + chaos: nexus-serve over localhost TCP =="
# Real sockets, real threads: 4 backend processes-worth of listeners, 200
# concurrent client connections, backend 0 killed mid-run, a routing epoch
# pushed mid-traffic. The binary exits nonzero unless every request is
# accounted (completed + dropped == submitted), both pushed epochs were
# applied in order, no request overran its deadline budget, and shutdown
# joined every thread (zero leaks). Timing is never gated — only
# accounting, ordering, and clean teardown.
cargo run --release -q -p nexus-serve --bin nexus-serve

# ci-step: schema-golden
echo "== schema golden: fixed-seed trace capture =="
# The Fig. 13 mini-run must reproduce the committed golden byte-for-byte;
# divergence means the trace schema or the simulation changed. Regenerate
# deliberately with:
#   cargo run -p nexus-obs --bin nexus-trace -- capture --golden \
#     --out crates/nexus-obs/tests/golden/fig13_mini.trace.json
tmp_golden="$(mktemp)"
trap 'rm -f "$tmp_golden"' EXIT
cargo run --release -q -p nexus-obs --bin nexus-trace -- \
  capture --golden --out "$tmp_golden" >/dev/null
cargo run --release -q -p nexus-obs --bin nexus-trace -- \
  diff "$tmp_golden" crates/nexus-obs/tests/golden/fig13_mini.trace.json

# ci-step: hetero-smoke
echo "== hetero smoke: committed mixed-fleet goodput-per-dollar point =="
# Replays the committed bench_results/hetero.json headline — the mixed
# 1080Ti/K80/V100 fleet on the workload where it beats every homogeneous
# equivalent-cost baseline — and fails if goodput per dollar drops more
# than 1% below the committed point or any SLO-budget violation appears
# (a session whose latency budget no available device class can hold).
cargo run --release -q -p bench --bin hetero_smoke

# ci-step: perfbench
echo "== perfbench: benchmark tests + short fig13-10k and serve-open correctness runs =="
# The repository benchmark (perfbench/, a package of its own) must pass its
# own tests and finish a short fig13-10k run with every correctness check
# holding: per-session conservation, and every repetition reproducing the
# first one's fingerprint. A short serve-open run must answer every submit
# exactly once with the client's and the frontend's counts closing. Each
# run's last line is a JSON verdict; timing is never gated.
cargo test --offline --manifest-path perfbench/Cargo.toml
perf_check() {
  local last
  last="$(cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
    --workload "$1" --seed 1 --seconds "$2" --trace 0 | tail -n 1)"
  case "$last" in
    *'"correct": true,'*'"failed": 0,'*) echo "perfbench $1: correct, 0 failed" ;;
    *) echo "perfbench $1 run failed a correctness check: $last"; exit 1 ;;
  esac
}
perf_check fig13-10k 1
perf_check serve-open 2

# ci-step: drift-check
echo "== ci.sh <-> ci.yml drift check =="
# Every gated step carries a `ci-step:` marker in both this script and the
# workflow; the check fails if either file has a step the other lacks.
scripts/ci_drift_check.sh

echo "CI OK"
