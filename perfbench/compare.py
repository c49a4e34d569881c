#!/usr/bin/env python3
"""Compare two sets of benchmark records, only within one host fingerprint.

Usage::

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds records as ``perfbench/run.py`` appends them to
``.perfbench/records.jsonl``.  Records are grouped by (fingerprint digest,
workload, trace); a group present on one side only is reported as skipped,
never compared.  For every metric the table gives both medians, the
change, and the base side's quartile spread.  An end-to-end metric whose
change is worse than its ``BENCHMARK.json`` bound is flagged; one whose
base spread exceeds its bound is reported as unresolved.  Exits 1 when any
metric is flagged.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path) -> dict:
    groups = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            key = (rec["fingerprint"]["digest"], rec["workload"],
                   rec["trace"])
            groups[key].append(rec)
    return groups


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("nan")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(argv[0]), load(argv[1])
    flagged = 0
    for key in sorted(set(base) | set(new)):
        digest, workload, trace = key
        if key not in base or key not in new:
            side = "base" if key in base else "new"
            print(f"skip {workload} trace={trace}: fingerprint {digest} "
                  f"only in {side}")
            continue
        print(f"{workload} trace={trace} fingerprint {digest} "
              f"({len(base[key])} vs {len(new[key])} runs)")
        for name, m in meta.items():
            before = [r["metrics"][name]["value"] for r in base[key]
                      if name in r["metrics"]]
            after = [r["metrics"][name]["value"] for r in new[key]
                     if name in r["metrics"]]
            if not before or not after:
                continue
            b, a = statistics.median(before), statistics.median(after)
            if b == a == 0:                # a layer this workload skips
                continue
            change = (a - b) / b if b else float("nan")
            worse = change if m["better"] == "lower" else -change
            verdict = ""
            if "bound" in m:
                if spread(before) > m["bound"]:
                    verdict = "unresolved"
                elif worse > m["bound"]:
                    verdict = "WORSE"
                    flagged += 1
            print(f"  {name:34s} {b:12.5g} -> {a:12.5g} {change:+8.1%} "
                  f"(base spread {spread(before):.1%}) {verdict}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
