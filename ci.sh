#!/usr/bin/env bash
# Repo CI gate: build, tests, formatting, lints. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> perfbench fidelity tests (pin the steady/campaign/trace digests)"
cargo test --release -q --manifest-path perfbench/Cargo.toml

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> urb-lint --deny-all (determinism + exhaustiveness + state-safety gate, timed)"
# The item-model layer must not regress CI latency: the whole-workspace
# lint (including the cargo-run dispatch overhead; the binary is already
# built by the build step above) has a wall-clock budget.
lint_start_ms=$(date +%s%3N)
cargo run --release -q -p urb-lint -- --deny-all
lint_ms=$(( $(date +%s%3N) - lint_start_ms ))
echo "    lint wall time: ${lint_ms}ms (budget ${LINT_BUDGET_MS:-5000}ms)"
if [ "$lint_ms" -gt "${LINT_BUDGET_MS:-5000}" ]; then
  echo "urb-lint exceeded its latency budget: ${lint_ms}ms > ${LINT_BUDGET_MS:-5000}ms" >&2
  exit 1
fi

echo "==> urb-trace smoke: record + strict verify + summary + same-seed diff"
cargo run --release -q -p bench --bin urb-trace -- record target/ci_trace_a.jsonl --seed 7
cargo run --release -q -p bench --bin urb-trace -- record target/ci_trace_b.jsonl --seed 7
cargo run --release -q -p bench --bin urb-trace -- verify target/ci_trace_a.jsonl --strict
cargo run --release -q -p bench --bin urb-trace -- summary target/ci_trace_a.jsonl
cargo run --release -q -p bench --bin urb-trace -- diff target/ci_trace_a.jsonl target/ci_trace_b.jsonl

echo "==> urb-chaos smoke campaign: 64 strict runs at the acceptance seed"
cargo run --release -q -p bench --bin urb-chaos -- --seed 7 --runs 64 --strict

echo "==> urb-chaos policy tournament: full fault matrix x every policy, strict"
cargo run --release -q -p bench --bin urb-chaos -- tournament \
  --seed 7 --runs "${TOURNAMENT_RUNS:-18}" --strict --json

echo "==> urb-chaos degraded campaign: fail-slow matrix, performance-parity strict"
cargo run --release -q -p bench --bin urb-chaos -- degraded \
  --seed 7 --runs "${DEGRADED_RUNS:-12}" --strict --json

echo "==> urb-chaos netstate campaign: state-plane & network faults, session-integrity strict"
cargo run --release -q -p bench --bin urb-chaos -- netstate \
  --seed 7 --runs "${NETSTATE_RUNS:-100}" --strict --json

echo "==> perf trajectory: regenerate repo-root BENCH_*.json"
cargo run --release -q -p bench --bin exp_parallel_recovery > /dev/null
cargo run --release -q -p bench --bin urb-bench -- \
  kernel --events "${KERNEL_BENCH_EVENTS:-1000000}" --json target/BENCH_kernel.json > /dev/null
for name in BENCH_kernel BENCH_parallel_recovery BENCH_policy_tournament BENCH_degraded_parity BENCH_netstate_integrity; do
  fresh="target/${name}.json"
  committed="${name}.json"
  if [ -f "$committed" ]; then
    # Fail on structural drift (key-set changes) against the committed
    # baseline; absolute numbers are machine-dependent and only reported.
    python3 - "$committed" "$fresh" <<'PY'
import json, sys
committed_path, fresh_path = sys.argv[1], sys.argv[2]
committed = json.load(open(committed_path))
fresh = json.load(open(fresh_path))
drift = sorted(set(committed) ^ set(fresh))
if drift:
    sys.exit(f"structural drift in {fresh_path} vs {committed_path}: {drift}")
if "events_per_sec" in committed:
    old, new = committed["events_per_sec"], fresh["events_per_sec"]
    print(f"    kernel events/sec: committed {old:,.0f} -> fresh {new:,.0f} "
          f"({(new - old) / old:+.1%}); speedup vs legacy kernel: "
          f"{fresh['speedup_vs_legacy']:.2f}x")
PY
  fi
  cp "$fresh" "$committed"
done

echo "CI OK"
