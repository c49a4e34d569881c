#!/usr/bin/env python3
"""The repository benchmark: Table-2 rows on three paths.

Run from the root of a checkout::

    python3 perfbench/run.py --workload table2_module --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes a separate traced run and prints the per-layer ones.
The last line of standard output is the result object; the line before it
is the full record with the host fingerprint, which is also appended to
``.perfbench/records.jsonl`` for ``perfbench/compare.py``.  Workloads are
described in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("table2_module", "table2_plan_stored", "serve_jobs")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    # One BLAS thread unless the caller says otherwise: on a small host,
    # BLAS threads contend with the sweep and prefetch threads and double
    # the run-to-run spread.  The fingerprint records the effective count
    # (and the serve subprocess inherits it).
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")

    from host import fingerprint
    from tables import SelfCheckError
    if args.workload == "serve_jobs":
        import serving as workload
    else:
        import tables as workload
    try:
        record = workload.run(args.workload, ROOT, args.seed, args.seconds,
                              bool(args.trace))
    except SelfCheckError as exc:
        print(f"self-check failed: {exc}", file=sys.stderr)
        return 3
    except Exception:                          # noqa: BLE001 — exit non-zero
        traceback.print_exc()
        return 1

    declared = spec["per_layer" if args.trace else "end_to_end"]
    measured = record["metrics"]
    # Layers a workload does not load in this process read 0.
    metrics = {m["name"]: {"value": float(measured.get(m["name"], 0)),
                           "unit": m["unit"]} for m in declared}
    if args.trace:
        metrics["failed_ratio"]["value"] = (record["failed"]
                                            / record["attempted"])
    result = {"correct": record["failed"] == 0,
              "attempted": record["attempted"], "failed": record["failed"],
              "metrics": metrics}

    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    tracer = record.get("tracer")
    if tracer is not None:
        tracer.dump(out / f"spans-{args.workload}-{args.seed}.jsonl")
    full = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "fingerprint": fingerprint(), "reps": record.get("reps"),
            "steal_share": record["steal_share"],
            **result}
    with open(out / "records.jsonl", "a") as fh:
        fh.write(json.dumps(full) + "\n")
    print(json.dumps(full))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
