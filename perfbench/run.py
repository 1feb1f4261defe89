#!/usr/bin/env python3
"""End-to-end benchmark of the GemStone/84 section 6 gateway.

Builds the load generator (perfbench/CMakeLists.txt, a Release build of the
checkout's src/ libraries), runs one workload, and prints every metric by
name with its unit. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload terminal_mix --seed 1 --seconds 40 --trace 0

--workload all runs every workload in turn, printing each one's metrics and
result line, and fails if any of them fails.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build), and the
full record of each run, provenance included, to
.bench_results/<workload>-seed<N>-trace<T>.json; perfbench/compare.py compares
such records. Exits 1 when the build fails or any correctness or durability
check fails, 2 on bad arguments or when the checkout holds no sources.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ("terminal_mix", "opal_compute", "history_audit")
# A run is 5 to 15 set-ups, a 3 s run-in, the measured phase and a
# recovery; history_audit's set-ups take up to about 20 s together.
SETUP_ALLOWANCE_S = 90


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def run_logged(cmd, log_path, env):
    with open(log_path, "a") as log:
        log.write("$ " + " ".join(str(c) for c in cmd) + "\n")
        log.flush()
        done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              env=env)
    if done.returncode != 0:
        tail = log_path.read_text().splitlines()[-40:]
        print("\n".join(tail), file=sys.stderr)
        fail(f"command failed: {' '.join(str(c) for c in cmd)}")


def build():
    """Configures once, then builds incrementally; answers the binary."""
    out = build_dir()
    tmp = out / "tmp"  # compiler temporaries stay inside the checkout
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    log = out / "build.log"
    if not (out / "CMakeCache.txt").exists():
        run_logged(["cmake", "-S", BENCH_DIR, "-B", out,
                    "-DCMAKE_BUILD_TYPE=Release"], log, env)
    jobs = str(len(os.sched_getaffinity(0)))
    run_logged(["cmake", "--build", out, "--target", "perfbench_loadgen",
                "-j", jobs], log, env)
    return out / "perfbench_loadgen"


def source_identity():
    """A digest of every file the benchmark is built from, plus the git
    commit when the checkout is a repository, marked -dirty when src/ or
    perfbench/ differ from it."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    identity = {"source_sha256": digest.hexdigest()}
    if (ROOT / ".git").exists():
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                 "--", "src", "perfbench"],
                                capture_output=True, text=True)
        if head.returncode == 0 and status.returncode == 0:
            dirty = "-dirty" if status.stdout.strip() else ""
            identity["git_sha"] = head.stdout.strip() + dirty
    return identity


def run_workload(binary, wanted, workload, args):
    """Runs one workload; prints its metrics and result line, and answers
    whether every check passed."""
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    stem = f"{workload}-seed{args.seed}-trace{args.trace}"
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", results / f"{stem}.spans.json"]
    timeout = SETUP_ALLOWANCE_S + 2 * args.seconds
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"load generator exceeded {timeout:g} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail(f"load generator exited with {done.returncode}")
    record = json.loads(lines[-1])
    record["provenance"].update(source_identity())
    record["provenance"]["seed"] = args.seed
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for line in lines[:-1]:
        print(line)
    measured = record["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} [{m['unit']}] not reported as listed")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print("provenance: " + json.dumps(record["provenance"], sort_keys=True))
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}))
    return record["correct"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no GemStone sources under {ROOT / 'src'}", 2)
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json is missing", 2)
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    passed = [run_workload(binary, wanted, w, args) for w in workloads]
    return 0 if all(passed) else 1


if __name__ == "__main__":
    sys.exit(main())
