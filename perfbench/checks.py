"""Correctness checks on a sweep's CSV, run outside the timed child process.

The incident states are rebuilt here from the generated operation, not by
the program's state parser, and a seeded subsample of rows is recomputed
with the independent transfer-matrix oracle.
"""

from __future__ import annotations

import math
import random

import numpy as np
from spinfp.closed_form import DimensionlessParams
from spinfp.transfer_oracle import oracle_scattering, two_impurity_chain

PROB_TOL = 1e-12       # the sweep engine's own probability tolerance
SPLIT_TOL = 1e-12      # |T_up + T_down - T|
FLUX_TOL = 1e-10       # |T + R - 1|
AMPLITUDE_TOL = 1e-10  # the pipelines' agreement limit
SUBSAMPLE = 64

_KETS = ("uuu", "uud", "udu", "udd", "duu", "dud", "ddu", "ddd")
_AMPS = tuple(name for ket in _KETS for name in (f"re_t_{ket}", f"im_t_{ket}"))
COLUMNS = {
    "theta": ("theta", "u", "T", "T_up", "T_down", *_AMPS, "R"),
    "family": ("vartheta", "phi", "u", "T", "T_up", "T_down", *_AMPS, "R"),
}
_ELECTRON = {"u": (1.0, 0.0), "d": (0.0, 1.0)}
_R2 = 1.0 / math.sqrt(2.0)
_PAIR = {
    "ud": (0.0, 1.0, 0.0, 0.0),
    "du": (0.0, 0.0, 1.0, 0.0),
    "dd": (0.0, 0.0, 0.0, 1.0),
    "psi+": (0.0, _R2, _R2, 0.0),
    "psi-": (0.0, _R2, -_R2, 0.0),
}


def _family_pair(family: str, mix: float, phi: float) -> np.ndarray:
    """cos|ud> + e^{i phi} sin|du> (family2) or the same over |uu>, |dd> (uu_dd)."""
    first, second = (1, 2) if family == "family2" else (0, 3)
    pair = np.zeros(4, dtype=complex)
    pair[first] = math.cos(mix)
    pair[second] = complex(math.cos(phi), math.sin(phi)) * math.sin(mix)
    return pair


def incident(op: dict, row: np.ndarray) -> np.ndarray:
    electron = np.array(_ELECTRON[op["electron"]], dtype=complex)
    if op["kind"] == "family":
        pair = _family_pair(op["impurity"], row[0], row[1])
    elif op["impurity"] == "uu_dd":
        pair = _family_pair("uu_dd", op["mix"], op["phi"])
    else:
        pair = np.array(_PAIR[op["impurity"]], dtype=complex)
    return np.kron(electron, pair)


def read_csv(path: str) -> tuple[tuple[str, ...], np.ndarray]:
    with open(path, encoding="utf-8") as data:
        line = data.readline()
        while line.startswith("#"):
            line = data.readline()
        columns = tuple(line.strip().split(","))
        rows = np.loadtxt(data, delimiter=",", ndmin=2)
    return columns, rows


def check_sweep(op: dict, path: str, seed: int) -> list[str]:
    """Problems found in one sweep's output; an empty list means it passed."""
    columns, rows = read_csv(path)
    layout = "family" if op["kind"] == "family" else "theta"
    if columns != COLUMNS[layout]:
        return [f"columns {columns[:4]}... differ from the documented layout"]
    if rows.shape[0] != op["rows"]:
        return [f"{rows.shape[0]} rows, expected {op['rows']}"]
    col = {name: rows[:, j] for j, name in enumerate(columns)}
    problems = []

    u_seen = np.unique(col["u"])
    if op["kind"] == "coupling":
        if (u_seen[0], u_seen[-1]) != tuple(op["u_values"]):
            problems.append(f"u range {u_seen[0]!r}..{u_seen[-1]!r} != {op['u_values']}")
    elif list(u_seen) != sorted(op["u_values"]):
        problems.append(f"u values {list(u_seen)} != {sorted(op['u_values'])}")

    t, r = col["T"], col["R"]
    if not np.all((t >= -PROB_TOL) & (t <= 1.0 + PROB_TOL)):
        problems.append(f"T outside [0, 1]: min {t.min()!r}, max {t.max()!r}")
    split = float(np.max(np.abs(col["T_up"] + col["T_down"] - t)))
    if split > SPLIT_TOL:
        problems.append(f"max |T_up + T_down - T| = {split:.3e} > {SPLIT_TOL}")
    flux = float(np.max(np.abs(t + r - 1.0)))
    if flux > FLUX_TOL:
        problems.append(f"max |T + R - 1| = {flux:.3e} > {FLUX_TOL}")

    first_amp = columns.index(_AMPS[0])
    rng = random.Random(f"check:{op['name']}:{seed}")
    worst = 0.0
    for index in rng.sample(range(rows.shape[0]), min(SUBSAMPLE, rows.shape[0])):
        row = rows[index]
        theta = op["theta"] if op["kind"] == "family" else row[0]
        p = DimensionlessParams(float(col["u"][index]), float(theta))
        expected = oracle_scattering(two_impurity_chain(p)).transmission @ incident(op, row)
        got = row[first_amp:first_amp + 16:2] + 1j * row[first_amp + 1:first_amp + 16:2]
        worst = max(worst, float(np.max(np.abs(got - expected))))
    if worst > AMPLITUDE_TOL:
        problems.append(f"max |amplitude - oracle| = {worst:.3e} > {AMPLITUDE_TOL}")
    return problems


def check_verify(record: dict, criteria: int) -> int:
    """Criteria of one verify run that did not pass (all of them on an error)."""
    report = record.get("report") or ""
    failures = criteria - sum(line.startswith("[PASS]") for line in report.splitlines())
    if failures == 0 and (record["exit"] != 0
                          or f"{criteria}/{criteria} criteria passed" not in report):
        failures = 1
    return failures
