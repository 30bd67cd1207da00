"""Runs the spinfp benchmark.

Usage (from the repository root):

  python3 perfbench/run.py --workload sweep_theta --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload runs in its own child interpreter (perfbench/child.py) that
imports spinfp from ``src/``, one workload at a time, with the BLAS pool held
to at most two threads.  This process generates the seeded inputs, times the
set-up in separate fresh interpreters, reads the child's peak RSS when it
exits and checks every output afterwards, outside the timed section.

Set-up and pass times are reported at a reference machine speed (see
probe.py and ``pass_seconds``), so that load from other tenants of the
machine is not read as a change in the program.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``).
The exit code is 0 when every operation and check passed, 1 when one failed
and 2 when the benchmark could not run at all (for example when
``src/spinfp`` is missing).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from probe import REFERENCE_S, at_reference_speed, probe_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
IMPORT_STATEMENT = "import spinfp.scenarios.cli"
THIRD_PARTY = ("numpy", "scipy", "sympy")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_TIMEOUT_S = 60.0
CHILD_TIMEOUT_S = 150.0
POLL_S = 0.1


class BenchError(Exception):
    """The benchmark could not produce a measurement."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_threads() -> int:
    return min(2, nproc())


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(SOURCE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for var in BLAS_VARS:
        env[var] = str(blas_threads())
    return env


def inputs_digest(ops: list[dict]) -> str:
    """Digest of the program's source and the generated operations.

    Two runs with the same digest must write byte-identical CSVs.
    """
    digest = hashlib.sha256(json.dumps(ops, sort_keys=True).encode())
    for path in sorted((SOURCE / "spinfp").rglob("*.py")):
        digest.update(path.relative_to(SOURCE).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------- set-up


def _run_import(env: dict, *flags: str) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run([sys.executable, *flags, "-c", IMPORT_STATEMENT], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=IMPORT_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"`{IMPORT_STATEMENT}` took over {IMPORT_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"`{IMPORT_STATEMENT}` failed:\n{proc.stderr[-2000:]}")
    return proc


def time_setup(env: dict, repeats: int) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters importing the CLI module, as measured
    and rescaled to the probe's reference speed."""
    measured, calibrated = [], []
    probe = probe_seconds()
    for _ in range(repeats):
        start = time.perf_counter()
        _run_import(env)
        measured.append(time.perf_counter() - start)
        before, probe = probe, probe_seconds()
        calibrated.append(at_reference_speed(measured[-1], before, probe))
    return measured, calibrated


def parse_importtime(text: str) -> dict[str, float]:
    """Seconds of import charged to numpy, scipy, sympy and spinfp's own modules.

    Each module's self time goes to the outermost of the three third-party
    packages that imported it (dropping that package would drop the module),
    else to spinfp when spinfp imported it; the rest is interpreter start-up.
    """
    entries = []   # [top-level package, self seconds, parent index]
    open_ = []     # (index, level) of entries whose importer is not seen yet
    for line in text.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        field = parts[2][1:]
        level = (len(field) - len(field.lstrip(" "))) // 2
        index = len(entries)
        entries.append([field.strip().split(".")[0], int(parts[0].split(":")[1]) * 1e-6, -1])
        while open_ and open_[-1][1] > level:  # a module is listed after its imports
            entries[open_.pop()[0]][2] = index
        open_.append((index, level))

    totals = dict.fromkeys((*THIRD_PARTY, "spinfp"), 0.0)
    for index, (package, own, parent) in enumerate(entries):
        chain = [package]
        while parent >= 0:
            chain.append(entries[parent][0])
            parent = entries[parent][2]
        outer = [name for name in chain if name in THIRD_PARTY]
        if outer:
            totals[outer[-1]] += own
        elif "spinfp" in chain:
            totals["spinfp"] += own
    return totals


# ---------------------------------------------------------------- child


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap the child and return its resource usage; kill it at the deadline."""
    deadline = time.monotonic() + timeout
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return usage
            if time.monotonic() > deadline:
                raise BenchError(f"workload child ran over {timeout} s")
            time.sleep(POLL_S)
    except BaseException:
        proc.kill()
        _, status, _ = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        raise


def run_child(spec: dict, env: dict, run_dir: Path, log_path: Path) -> tuple[dict, float]:
    """Run the workload child; returns its result and its peak RSS in MB."""
    spec_path = run_dir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(spec_path)],
                                env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        usage = _wait(proc, CHILD_TIMEOUT_S)
    result_path = Path(spec["result_path"])
    if proc.returncode != 0 or not result_path.exists():
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise BenchError(f"workload child exited {proc.returncode}:\n{tail}")
    return json.loads(result_path.read_text(encoding="utf-8")), usage.ru_maxrss / 1024.0


# ---------------------------------------------------------------- workload


def _materialize(op: dict, run_dir: Path) -> dict:
    op = dict(op)
    if op["kind"] != "verify":
        op["config_path"] = str(run_dir / f"{op['name']}.cfg")
        op["output"] = str(run_dir / f"{op['name']}.csv")
        Path(op["config_path"]).write_text(op["config"] + f"output = {op['output']}\n",
                                           encoding="utf-8")
    return op


def _account(ops, passes, criteria, seed, sha_record) -> tuple[int, int, list[str], dict]:
    """Attempted and failed operations, the problems found and each output's SHA-256."""
    import checks

    attempted = failed = 0
    problems: list[str] = []
    for run in passes:
        for op, record in zip(ops, run["ops"]):
            if op["kind"] == "verify":
                attempted += criteria
                missed = checks.check_verify(record, criteria)
                failed += missed
                if missed:
                    problems.append(f"verify: {missed} criteria failed\n"
                                    f"{record.get('report') or record['error']}")
                continue
            attempted += 1
            if record["exit"] != 0:
                failed += 1
                problems.append(f"{op['name']}: exit {record['exit']} {record['error'] or ''}")

    shas = {}
    previous = json.loads(sha_record.read_text()) if sha_record and sha_record.exists() else {}
    for index, op in enumerate(ops):
        records = [run["ops"][index] for run in passes]
        if op["kind"] == "verify" or records[-1]["exit"] != 0:
            continue
        seen = {r["sha256"] for r in records if r["exit"] == 0}
        shas[op["name"]] = records[-1]["sha256"]
        try:
            faults = checks.check_sweep(op, op["output"], seed)
        except (OSError, ValueError) as exc:
            faults = [f"unreadable output: {exc}"]
        if len(seen) > 1:
            faults.append("output bytes differ between passes")
        if previous.get(op["name"], shas[op["name"]]) != shas[op["name"]]:
            faults.append("output bytes differ from an earlier run of these configs")
        if faults:
            failed += 1
            problems.extend(f"{op['name']}: {fault}" for fault in faults)
    if sha_record and not previous and shas:
        sha_record.parent.mkdir(parents=True, exist_ok=True)
        sha_record.write_text(json.dumps(shas, indent=1, sort_keys=True))
    return attempted, failed, problems, shas


def pass_seconds(passes: list[dict], calibrated: bool = True) -> float:
    """Seconds of one pass: the median repeat of each part of it, summed.

    A part is a sweep config, or one of verify's sweeps, the rest of each
    criterion, or the rest of verify.  Other tenants of a shared machine
    slowed all work by up to 1.9x on the machine this was tuned on, for
    seconds to minutes at a time.  Each repeat is rescaled by the probes
    taken before and after it (probe.py), which takes out that load, and
    the median drops repeats where a burst of load hit a probe or the part
    alone.  ``calibrated=False`` skips the rescaling.
    """
    def scale(seconds: float, before: float, after: float) -> float:
        return at_reference_speed(seconds, before, after) if calibrated else seconds

    total = 0.0
    for index in range(len(passes[0]["ops"])):
        repeats = []
        for run in passes:
            record = run["ops"][index]
            parts = record.get("parts", [])
            probes = [record["probe_before"], *(part[1] for part in parts)]
            rest = record["seconds"] - sum(part[0] + part[2] for part in parts)
            repeats.append([
                *(scale(part[0], probes[k], probes[k + 1]) for k, part in enumerate(parts)),
                scale(rest, record["probe_before"], record["probe_after"]),
            ])
        total += sum(statistics.median(part) for part in zip(*repeats))
    return total


def _layer_metrics(result: dict, imports: dict[str, float]) -> dict[str, float]:
    trace = result["trace"]
    empty = {"self_s": 0.0, "calls": 0, "entry_s": 0.0, "failed": 0, "total_s": 0.0}

    def layer(name: str) -> dict:
        return trace["layers"].get(name, empty)

    def named(name: str) -> dict:
        return trace["names"].get(name, empty)

    def per_call_us(name: str) -> float:
        entry = layer(name)
        return entry["entry_s"] / entry["calls"] * 1e6 if entry["calls"] else 0.0

    solver = layer("waveguide_solver")
    metrics = {f"import.{pkg}_s": seconds for pkg, seconds in imports.items()}
    metrics.update({
        "waveguide_solver.calls": solver["calls"],
        "waveguide_solver.self_s": solver["self_s"],
        "waveguide_solver.us_per_call": per_call_us("waveguide_solver"),
        "waveguide_solver.linalg_solves": trace["counters"].get(
            "waveguide_solver.linalg_solves", 0),
        "waveguide_solver.failed": solver["failed"],
        "transfer_oracle.us_per_call": per_call_us("transfer_oracle"),
        "scenarios.sweeps.render_s": named("scenarios.sweeps.render_csv")["self_s"],
        "scenarios.sweeps.write_s": named("scenarios.sweeps.write_csv")["self_s"],
        "scenarios.sweeps.rows": trace["counters"].get("scenarios.sweeps.rows", 0),
        "scenarios.sweeps.bytes_written": trace["counters"].get(
            "scenarios.sweeps.bytes_written", 0),
    })
    for name in ("observables", "spin_algebra", "closed_form", "transfer_oracle",
                 "scenarios.config", "scenarios.states"):
        metrics[f"{name}.calls"] = layer(name)["calls"]
        metrics[f"{name}.self_s"] = layer(name)["self_s"]
    metrics["scenarios.sweeps.self_s"] = layer("scenarios.sweeps")["self_s"]
    for number, name in enumerate(result["criterion_names"], start=1):
        metrics[f"scenarios.verify.criterion_{number}_s"] = named(
            f"scenarios.verify.{name}")["total_s"]
    metrics["trace.overhead_s"] = (result["traced_pass"]["wall_s"]
                                   - pass_seconds(result["passes"], calibrated=False))
    metrics["trace.spans"] = trace["spans"]
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 ops: list[dict] | None = None) -> tuple[dict, list[str]]:
    """Measure one workload; returns the result object and the report lines.

    ``ops`` replaces the seeded operations (the benchmark's own tests use it);
    only seeded runs are compared with earlier runs' output hashes.
    """
    if not (SOURCE / "spinfp" / "__init__.py").is_file():
        raise BenchError(f"no spinfp package under {SOURCE}")
    os.environ.update({var: str(blas_threads()) for var in BLAS_VARS})
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))  # for checks.py, which imports the oracle
    sha_record = None
    if ops is None:
        ops = workloads.generate(workload, seed)
        sha_record = OUT / "sha" / f"{workload}-{inputs_digest(ops)}.json"

    # a fixed path: the CSV header echoes it, and outputs must repeat byte for byte
    run_dir = OUT / f"run-{workload}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        env = child_env()
        ops = [_materialize(op, run_dir) for op in ops]
        warmup = [_materialize(op, run_dir) for op in workloads.warmup_ops()]
        time_setup(env, 1)  # untimed: compiles bytecode, as an installed package would have
        if trace:
            imports = parse_importtime(_run_import(env, "-X", "importtime").stderr)
        else:
            setup_measured, setup = time_setup(env, SETUP_REPEATS)
        spec = {"source": str(SOURCE), "ops": ops, "warmup": warmup, "seconds": seconds,
                "trace": trace, "result_path": str(run_dir / "result.json"),
                "spans_path": str(OUT / f"spans-{workload}.csv")}
        result, rss_mb = run_child(spec, env, run_dir, OUT / f"child-{workload}.log")
        passes = result["passes"] + ([result["traced_pass"]] if trace else [])
        attempted, failed, problems, shas = _account(
            ops, passes, result["criteria"], seed, sha_record)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    rows = sum(op.get("rows", 0) for op in ops if op["kind"] != "verify")
    walls = [p["wall_s"] for p in result["passes"]]
    versions = result["versions"]
    lines = [
        f"# workload {workload}: {workloads.WHY.get(workload, 'custom operations')}",
        f"# machine {platform.system()} {platform.release()} {platform.machine()}; "
        f"nproc {nproc()} (cpu_count {os.cpu_count()}); python {versions['python']}, "
        f"numpy {versions['numpy']}, scipy {versions['scipy']}, sympy {versions['sympy']}; "
        f"BLAS threads {blas_threads()}",
        f"# seed {seed}; {len(ops)} operations per pass; {rows} rows per pass; "
        f"{len(walls)} timed passes in {seconds} s" + ("; 1 traced pass" if trace else ""),
    ]
    lines += [f"# sha256 {name} {sha}" for name, sha in sorted(shas.items())]
    lines += [f"# FAILED {problem}" for problem in problems]

    if trace:
        metrics = _layer_metrics(result, imports)
    else:
        op_times = [r["seconds"] for p in result["passes"] for r in p["ops"]]
        metrics = {"setup_s": statistics.median(setup),
                   "wall_s": pass_seconds(result["passes"]),
                   "peak_rss_mb": rss_mb}
        probes = [r[key] for p in result["passes"] for r in p["ops"]
                  for key in ("probe_before", "probe_after")]
        lines.append(f"# probe {min(probes) * 1e3:.2f} to {max(probes) * 1e3:.2f} ms, "
                     f"reference {REFERENCE_S * 1e3:.2f} ms; times below are at reference "
                     f"speed, with the times as measured in parentheses")
        lines.append(f"setup_s = {metrics['setup_s']:.4f} s (median of {SETUP_REPEATS} fresh "
                     f"interpreters; {statistics.median(setup_measured):.4f} s)")
        lines.append(f"wall_s = {metrics['wall_s']:.4f} s (median of {len(walls)} repeats of "
                     f"each part, summed; {pass_seconds(result['passes'], False):.4f} s)")
        if rows:
            lines.append(f"points_per_s = {rows * len(walls) / sum(walls):.1f} 1/s "
                         f"({rows * len(walls)} rows over {len(walls)} passes)")
            lines.append(f"config_p50_s = {statistics.median(op_times):.4f} s "
                         f"(n = {len(op_times)})")
        lines.append(f"peak_rss_mb = {rss_mb:.1f} MB")
    lines.append(f"failed_share = {failed / attempted:.6g} ({failed}/{attempted})")
    if trace:
        lines += [f"{name} = {value:.6g}" for name, value in metrics.items()]

    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": lines[1][2:], "versions": versions, "blas_threads": blas_threads(),
              "setup_repeats": 0 if trace else SETUP_REPEATS, "passes": len(walls),
              "pass_wall_s": walls, "raw_passes": result["passes"],
              "why": workloads.WHY.get(workload), "sha256": shas,
              "problems": problems, "metrics": metrics}
    (OUT / f"record-{workload}{'-trace' if trace else ''}.json").write_text(
        json.dumps(record, indent=1))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, lines


def _with_units(metrics: dict, declared: list[dict]) -> dict:
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        declared = declared["per_layer" if args.trace else "end_to_end"]
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
            result["metrics"] = _with_units(result["metrics"], declared)
            print("\n".join(lines))
            print(json.dumps(result), flush=True)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            combined["metrics"].update(
                {f"{name}.{key}": value for key, value in result["metrics"].items()})
        if len(names) > 1:
            print(json.dumps(combined))
    except (BenchError, OSError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
