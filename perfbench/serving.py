"""The ``serve_jobs`` workload: a closed loop of sweep jobs over HTTP.

A ``repro serve`` subprocess runs with ``--job-workers 2`` and the rate
limiter off.  Two client threads each submit a tiny classification sweep
job with a seed no other job uses, poll ``GET /v1/jobs/{id}`` until the
job is terminal, fetch its table, and submit the next.  After the
measuring window every served table is checked against the same sweep run
in this process, by bench_serve's parity rule.  The server is the only
process the workload starts; it is killed if the benchmark dies first.
"""

from __future__ import annotations

import ctypes
import itertools
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

import numpy as np

from host import StealShare, rss_mb
from tables import SelfCheckError, table_body

JOB_WORKERS = 2
CLIENTS = 2
POLL_S = 0.025
SETUP_REPEATS = 5
TIMEOUT_S = 120

#: A tiny but real sweep: per-job training, a clean cell and the colour
#: variants.  Each job gets its own ``seed``.
SPEC = {"model": "mcunet-293kb", "n": 40, "epochs": 1, "noises": ["color"],
        "include_combined": False}

TERMINAL = ("completed", "failed", "cancelled", "interrupted", "hung")

PR_SET_PDEATHSIG = 1
_prctl = ctypes.CDLL(None, use_errno=True).prctl


def _die_with_parent() -> None:
    """Runs in the forked child: SIGKILL it when the benchmark exits."""
    _prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


class Server:
    """A ``repro serve`` subprocess; its bound URL is read from stdout."""

    def __init__(self, root, store):
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                             if env.get("PYTHONPATH") else src)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--rate", "0", "--job-workers", str(JOB_WORKERS),
             "--queue-limit", str(4 * CLIENTS), "--store", str(store)],
            cwd=root, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env, preexec_fn=_die_with_parent)
        self.lines: list[str] = []
        try:
            self.base = self._await_ready()
        except BaseException:
            self.stop()
            raise
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _await_ready(self) -> str:
        for line in self.proc.stdout:
            self.lines.append(line)
            match = re.search(r"serving on (http://[\w.]+:\d+)", line)
            if match:
                return match.group(1)
        raise RuntimeError("server exited before binding:\n"
                           + "".join(self.lines))

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line)

    def stop(self) -> None:
        """SIGTERM (running jobs drain), SIGKILL on timeout."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        reader = getattr(self, "_reader", None)
        if reader is not None:
            reader.join(timeout=TIMEOUT_S)
        self.proc.stdout.close()


def _get(base: str, path: str) -> bytes:
    with urllib.request.urlopen(base + path, timeout=TIMEOUT_S) as resp:
        return resp.read()


def _post(base: str, path: str, doc: dict) -> dict:
    req = urllib.request.Request(base + path, data=json.dumps(doc).encode(),
                                 headers={"Content-Type": "application/json"},
                                 method="POST")
    with urllib.request.urlopen(req, timeout=TIMEOUT_S) as resp:
        return json.load(resp)


def reference_table(spec: dict) -> list[str]:
    """The same sweep in-process: the parity baseline for one job."""
    from repro.core import BenchmarkSession
    from repro.models import MODEL_ZOO
    zoo = {s.name: s for s in MODEL_ZOO}
    skip = () if zoo[spec["model"]].has_maxpool else ("ceil_mode",)
    session = (BenchmarkSession().task("cls").seed(spec["seed"])
               .model(spec["model"])
               .data(n=spec["n"], train_frac=0.75, native_size=48,
                     input_size=32)
               .noises(*spec["noises"]).skip(*skip)
               .combined(spec["include_combined"]))
    session.fit(epochs=spec["epochs"])
    return table_body(session.run().render("x"))


def _client(base: str, seeds, deadline: float, jobs: list,
            errors: list) -> None:
    """Closed loop: submit, poll to a terminal status, fetch the table."""
    try:
        while time.perf_counter() < deadline:
            spec = {**SPEC, "seed": next(seeds)}
            start = time.perf_counter()
            job_id = _post(base, "/v1/jobs", spec)["id"]
            submit_ms = (time.perf_counter() - start) * 1e3
            status_ms = []
            while True:
                t = time.perf_counter()
                doc = json.loads(_get(base, f"/v1/jobs/{job_id}"))
                status_ms.append((time.perf_counter() - t) * 1e3)
                if doc["status"] in TERMINAL:
                    break
                time.sleep(POLL_S)
            table = (_get(base, f"/v1/jobs/{job_id}/table").decode()
                     if doc["status"] == "completed" else None)
            done = time.perf_counter()
            jobs.append({"spec": spec, "doc": doc, "table": table,
                         "submit_ms": submit_ms, "status_ms": status_ms,
                         "job_s": done - start, "done": done})
    except Exception as exc:                   # noqa: BLE001 — reported
        errors.append(exc)


def _ledger_stats(store, job_ids) -> tuple[list[int], list[int]]:
    """Entries and ledger bytes per job run, read back from the store."""
    from repro.core import RunStore
    runs = RunStore(store)
    entries, sizes = [], []
    for job_id in job_ids:
        entries.append(runs.open(job_id).counts()["entries"])
        sizes.append(sum(p.stat().st_size
                         for p in (store / job_id).glob("ledger*")))
    return entries, sizes


def run(workload: str, root, seed: int, seconds: float,
        trace: bool) -> dict:
    scratch = root / ".perfbench" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    base_dir = Path(tempfile.mkdtemp(prefix="serve-", dir=scratch))
    try:
        return _run(root, base_dir, seed, seconds, trace)
    finally:
        shutil.rmtree(base_dir, ignore_errors=True)


def _run(root, base_dir, seed: int, seconds: float, trace: bool) -> dict:
    # Set-up: server start until it reports listening, repeated.
    setups = []
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        server = Server(root, base_dir / f"store{i}")
        setups.append(time.perf_counter() - start)
        if i < SETUP_REPEATS - 1:
            server.stop()
    store = base_dir / f"store{SETUP_REPEATS - 1}"
    first = int(np.random.default_rng(seed).integers(0, 2 ** 30))
    seeds = itertools.count(first)       # next() is atomic under the GIL
    jobs: list[dict] = []
    errors: list = []
    try:
        with StealShare() as steal:
            start = time.perf_counter()
            threads = [threading.Thread(target=_client,
                                        args=(server.base, seeds,
                                              start + seconds, jobs, errors))
                       for _ in range(CLIENTS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        peak = rss_mb(server.proc.pid, "VmHWM")
    finally:
        server.stop()
    if errors:
        raise errors[0]
    if not jobs:
        raise RuntimeError("no job completed in the measuring window")

    # Output check: every served table equals the in-process sweep.  The
    # references run serially after the window, in this process: a process
    # pool would leave multiprocessing's resource tracker running after the
    # benchmark exits.
    references = [reference_table(job["spec"]) for job in jobs]
    failed = 0
    for job, reference in zip(jobs, references):
        ok = (job["doc"]["status"] == "completed"
              and table_body(job["table"]) == reference)
        if not ok:
            failed += 1
            print(f"job {job['doc']['id']} failed parity "
                  f"({job['doc']['status']})", flush=True)
    completed = [j for j in jobs if j["doc"]["status"] == "completed"]
    entries, sizes = _ledger_stats(store, [j["doc"]["id"] for j in completed])
    if not completed or not all(entries):
        raise SelfCheckError("serve_jobs: a completed job left no ledger "
                             "appends")
    record = {"attempted": len(jobs), "failed": failed,
              "steal_share": steal.share,
              "reps": {"job_s": [j["job_s"] for j in jobs]}}
    if not trace:
        span = max(j["done"] for j in jobs) - start
        record["metrics"] = {
            "setup_s": statistics.median(setups),
            "table_s": statistics.median(j["job_s"] for j in jobs),
            "jobs_per_s": len(jobs) / span,
            "peak_rss_mb": peak,
        }
        return record
    status = sorted(ms for j in jobs for ms in j["status_ms"])
    docs = [j["doc"] for j in completed]
    record["metrics"] = {
        "runstore.appends": statistics.median(entries),
        "runstore.ledger_bytes": statistics.median(sizes),
        "serve.submit_ms_p50": statistics.median(j["submit_ms"]
                                                 for j in jobs),
        "serve.queue_wait_s_p50": statistics.median(
            d["started"] - d["submitted"] for d in docs),
        "serve.run_s_p50": statistics.median(d["finished"] - d["started"]
                                             for d in docs),
        "serve.status_ms_p50": statistics.median(status),
        "serve.status_ms_p90": statistics.quantiles(status, n=10)[-1],
        "serve.ledger_entries": statistics.median(entries),
    }
    return record
