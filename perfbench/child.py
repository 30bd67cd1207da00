"""Runs one workload in a fresh interpreter and writes its measurements as JSON.

Usage: python3 perfbench/child.py SPEC.json

The spec (written by run.py) names the workload's operations, how long to
measure and whether to trace.  Passes over the operations repeat until the
measuring time is spent; in a traced run the first half is untraced, then
exactly one pass runs traced, so its counts repeat exactly across runs.
Only the public entry points are driven: ``spinfp.scenarios.cli.main`` for
sweep configs and ``spinfp.scenarios.verify.run_verification``.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import time
import traceback
from pathlib import Path

from probe import probe_seconds


def sha256(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as data:
        for block in iter(lambda: data.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _timed(fn, parts: list, nested: list[float]):
    """``fn`` that appends [seconds, probe after, seconds probing] per call.

    The seconds exclude timed calls nested in this one, and their probes.
    """
    def timed(*args, **kwargs):
        nested.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds = time.perf_counter() - start
            inner = nested.pop()
            probe = probe_seconds()
            probing = time.perf_counter() - start - seconds
            parts.append([seconds - inner, probe, probing])
            if nested:
                nested[-1] += seconds + probing

    return timed


def run_op(op: dict) -> dict:
    """Run one operation; every failure is recorded, none stops the pass.

    A verify run also records its parts, each with a probe after it: every
    criterion and every sweep the criteria run, from timers put where
    ``run_verification`` and the criteria look those functions up.
    """
    from spinfp.scenarios import cli, verify

    record = {"name": op["name"], "exit": None, "error": None}
    start = time.perf_counter()
    try:
        if op["kind"] == "verify":
            report, record["parts"], nested = io.StringIO(), [], []
            criteria, sweep = verify._CRITERIA, verify.run_sweep
            verify._CRITERIA = tuple(_timed(check, record["parts"], nested)
                                     for check in criteria)
            verify.run_sweep = _timed(sweep, record["parts"], nested)
            try:
                record["exit"] = verify.run_verification(stream=report)
            finally:
                verify._CRITERIA, verify.run_sweep = criteria, sweep
            record["report"] = report.getvalue()
        else:
            record["exit"] = cli.main(["sweep", "--config", op["config_path"]])
    except Exception:  # boundary: count the failure and keep measuring
        record["error"] = traceback.format_exc(limit=4)
    record["seconds"] = time.perf_counter() - start
    return record


def run_pass(ops: list[dict], runner=run_op) -> dict:
    """Run every operation once, with a machine-speed probe between operations."""
    records = []
    probe = probe_seconds()
    for op in ops:
        record = runner(op)
        record["probe_before"], probe = probe, probe_seconds()
        record["probe_after"] = probe
        if "output" in op:
            record["sha256"] = sha256(op["output"])
        records.append(record)
    wall = sum(r["seconds"] - sum(part[2] for part in r.get("parts", [])) for r in records)
    return {"wall_s": wall, "ops": records}


def _trace_pass(ops: list[dict], spans_path: str) -> tuple[dict, dict]:
    from spans import Tracer

    tracer = Tracer()

    def count_rows(result):
        tracer.counters["scenarios.sweeps.rows"] += len(result.rows)

    def count_bytes(path):
        tracer.counters["scenarios.sweeps.bytes_written"] += os.path.getsize(path)

    tracer.install({"scenarios.sweeps.run_sweep": count_rows,
                    "scenarios.sweeps.write_csv": count_bytes})
    try:
        traced = run_pass(ops, tracer.wrap(run_op, "op", "op"))
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    layers, names = tracer.totals()
    return traced, {"layers": layers, "names": names, "counters": dict(tracer.counters),
                    "spans": len(tracer.keys)}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    import numpy
    import scipy
    import spinfp
    import sympy
    from spinfp.scenarios import verify

    source = Path(spec["source"]).resolve()
    if source not in Path(spinfp.__file__).resolve().parents:
        print(f"spinfp imported from {spinfp.__file__}, not from {source}", file=sys.stderr)
        return 2

    for op in spec["warmup"]:
        run_op(op)

    ops, seconds = spec["ops"], spec["seconds"]
    untraced_seconds = seconds / 2 if spec["trace"] else seconds
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < untraced_seconds:
        passes.append(run_pass(ops))
    result = {
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "sympy": sympy.__version__},
        "criteria": len(verify._CRITERIA),
        "passes": passes,
    }
    if spec["trace"]:
        result["traced_pass"], result["trace"] = _trace_pass(ops, spec["spans_path"])
        result["criterion_names"] = [f.__name__ for f in verify._CRITERIA]
    Path(spec["result_path"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
