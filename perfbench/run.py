#!/usr/bin/env python3
"""Builds and runs the host-time benchmark of the microreboot simulator.

Run from the repository root:

    python3 perfbench/run.py --workload steady|campaign|trace \
        --seed N --seconds S --trace 0|1

Builds the benchmark package (``perfbench/``) and the program's
``urb-chaos`` binary from source into ``$CARGO_TARGET_DIR`` (default
``.bench_build``), runs one pass, and prints its result line last:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
``--trace 0`` runs the untraced binary and adds ``peak_rss_mb``, the
kernel's high-water RSS of the benchmark process and every process it
waited for; ``--trace 1`` runs the traced binary. Exits non-zero, printing
no result, when the build or any step fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target_dir):
    """Builds both benchmark binaries and urb-chaos; build chatter goes to stderr."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml"), "--bins"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "bench", "--bin", "urb-chaos"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["steady", "campaign", "trace"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    ap.add_argument("--wrong-pins", action="store_true",
                    help="negative control: falsify every digest pin")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    build(target_dir)
    release = os.path.join(target_dir, "release")
    binary = os.path.join(release, "perfbench-traced" if args.trace else "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--chaos-bin", os.path.join(release, "urb-chaos")]
    if args.wrong_pins:
        cmd.append("--wrong-pins")

    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    out = child.stdout.read()
    child.stdout.close()
    # wait4 reports the child's own high-water RSS and that of every
    # descendant it waited for (the urb-chaos campaign processes).
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    lines = out.strip().splitlines()
    if child.returncode != 0 or not lines:
        sys.stderr.write(out)
        sys.exit(f"perfbench: {os.path.basename(binary)} exited with {child.returncode}")
    result = json.loads(lines[-1])
    if not args.trace:
        result["metrics"]["peak_rss_mb"] = {"value": usage.ru_maxrss / 1024.0, "unit": "MB"}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
