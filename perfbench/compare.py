#!/usr/bin/env python3
"""Compares benchmark records of a base and a head build.

    python3 perfbench/compare.py --base .bench_results/a/*.json \
                                 --head .bench_results/b/*.json

Each file is a record that perfbench/run.py wrote to .bench_results. The
comparison is refused (exit 2) unless every record agrees on provenance:
build type, NDEBUG, GS_LOCK_ORDER_VALIDATION, compiler, nproc, workload,
run length and trace mode; the two sides must also use the same seeds. Only
the source identity (git sha or source digest) may differ between the sides,
and it must be the same within a side. For each metric it prints the median
and quartile spread of both sides and the change of the medians, marked
against the metric's bound from BENCHMARK.json. When any record was measured
while the hypervisor stole more than STEAL_LIMIT_PCT of the host's CPU time,
the records are listed and no bounded metric is marked as a regression, only
as unresolved: rerun those seeds on a quieter host.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MATCHED = ("build_type", "ndebug", "lock_order_validation", "compiler",
           "nproc")
IDENTITY = ("git_sha", "source_sha256")
STEAL_LIMIT_PCT = 5.0


def load(paths):
    records = [json.loads(Path(p).read_text()) for p in paths]
    if not records:
        sys.exit("compare: no records")
    return records


def key(record):
    prov = record["provenance"]
    return tuple(prov.get(k) for k in MATCHED) + (
        record["workload"], record["seconds"], record["trace"])


def refuse(message):
    print(f"compare: refused: {message}", file=sys.stderr)
    sys.exit(2)


def stats(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / med if med else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args()
    base, head = load(args.base), load(args.head)

    keys = {key(r) for r in base + head}
    if len(keys) != 1:
        refuse(f"provenance differs: {sorted(keys, key=str)}")
    for side, records in (("base", base), ("head", head)):
        ids = {tuple(r["provenance"].get(k) for k in IDENTITY) for r in records}
        if len(ids) != 1:
            refuse(f"{side} records come from different sources: {ids}")
    seeds = lambda rs: sorted(r["provenance"]["seed"] for r in rs)
    if seeds(base) != seeds(head):
        refuse(f"seeds differ: {seeds(base)} vs {seeds(head)}")
    if not all(r["correct"] for r in base + head):
        refuse("a record failed its correctness checks")

    stolen = [f"{r['workload']} seed {r['provenance']['seed']}: "
              f"{r['host_steal_pct']:.1f}%"
              for r in base + head
              if r.get("host_steal_pct", 0) > STEAL_LIMIT_PCT]
    for line in stolen:
        print(f"compare: host CPU steal above {STEAL_LIMIT_PCT:g}% in {line}",
              file=sys.stderr)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if base[0]["trace"] else "end_to_end"
    print(f"{'metric':36s} {'base':>12s} {'spread':>7s} {'head':>12s} "
          f"{'spread':>7s} {'change':>8s}")
    for m in spec[section]:
        b = [r[section][m["name"]]["value"] for r in base]
        h = [r[section][m["name"]]["value"] for r in head]
        (bm, bs), (hm, hs) = stats(b), stats(h)
        change = (hm - bm) / bm if bm else 0.0
        worse = change if m["better"] == "lower" else -change
        verdict = ""
        if "bound" in m:
            if max(bs, hs) > m["bound"] or (stolen and worse > m["bound"]):
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
        print(f"{m['name']:36s} {bm:12.3f} {bs:7.3f} {hm:12.3f} {hs:7.3f} "
              f"{100 * change:7.1f}% {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
