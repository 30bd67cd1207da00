"""Seeded inputs for the benchmark workloads.

The seed fixes every drawn value; the amount of work in one pass (configs,
grid sizes, rows) is the same for every seed, so runs at different seeds
measure the same work.  Only the generated config files reach the program.

An operation is a dict that run.py writes to the child as JSON:

  name     unique within the workload
  kind     "theta", "coupling" or "family" (one sweep config) or "verify"
  config   the config file text, without its ``output`` line
  rows     CSV data rows the config must produce
  electron, impurity, mix, phi, u_values, theta
           what the checker needs to rebuild the incident state and the
           grid independently of the program's own parsers
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("sweep_theta", "sweep_family", "verify")

WHY = {
    "sweep_theta": (
        "theta and coupling sweeps over the figure states: one scalar "
        "scattering_matrices call per point, the amplitude kernel's workload"
    ),
    "sweep_family": (
        "family sweeps of 3e4 rows per config: one solve per config, so the "
        "kernel is bypassed; state building, row checks and CSV set the time"
    ),
    "verify": (
        "spinfp verify, all nine criteria: thousands of single-point kernel "
        "calls plus the only closed-form and transfer-oracle traffic"
    ),
}

# verify's own random draws use u in (0, 20]; the strong-coupling region
# beyond it is a known gap that this benchmark does not cover
U_RANGE = (0.01, 20.0)
THETA_MAX_RANGE = (math.pi, 4.0 * math.pi)

THETA_STATES = ("ud", "du", "psi+", "psi-", "uu_dd")
THETA_STEPS = 1001
THETA_U_COUNT = 3
COUPLING_STEPS = 1000

# short configs give more, shorter parts to rescale and take the median of
# (see run.pass_seconds); their retained rows still add more to peak RSS
# than anything but the interpreter itself
FAMILIES = ("family2", "uu_dd", "family2", "uu_dd")
FAMILY_VARTHETA_STEPS = 241
FAMILY_PHI_STEPS = 125
FAMILY_U_COUNT = 1


def _config(settings: dict[str, str]) -> str:
    return "".join(f"{key} = {value}\n" for key, value in settings.items())


def _draw_u(rng: random.Random, count: int) -> list[float]:
    return [rng.uniform(*U_RANGE) for _ in range(count)]


def _theta_op(rng: random.Random, impurity: str) -> dict:
    electron = rng.choice("ud")
    u_values = _draw_u(rng, THETA_U_COUNT)
    theta_max = rng.uniform(*THETA_MAX_RANGE)
    op = {"name": f"theta-{impurity}", "kind": "theta", "electron": electron,
          "impurity": impurity, "u_values": u_values, "theta_max": theta_max,
          "rows": THETA_U_COUNT * THETA_STEPS}
    spec = impurity
    if impurity == "uu_dd":
        op["mix"] = rng.uniform(0.0, 0.5 * math.pi)
        op["phi"] = rng.uniform(0.0, 2.0 * math.pi)
        spec = f"uu_dd theta={op['mix']!r} phi={op['phi']!r}"
    op["config"] = _config({
        "sweep": "theta",
        "theta_min": "0",
        "theta_max": repr(theta_max),
        "theta_steps": str(THETA_STEPS),
        "u_list": ",".join(repr(u) for u in u_values),
        "electron_spin": electron,
        "impurity_state": spec,
    })
    return op


def _coupling_op(rng: random.Random) -> dict:
    electron = rng.choice("ud")
    u_min, u_max = sorted(_draw_u(rng, 2))
    theta = rng.randint(1, 4) * math.pi  # the transparency resonances
    return {
        "name": "coupling-dd", "kind": "coupling", "electron": electron,
        "impurity": "dd", "u_values": [u_min, u_max], "theta": theta,
        "rows": COUPLING_STEPS,
        # fig7 is the coupling preset; under the default "custom" preset its
        # u_list would silently override u_min, u_max and u_steps
        "config": _config({
            "scenario": "fig7",
            "sweep": "coupling",
            "theta": repr(theta),
            "u_min": repr(u_min),
            "u_max": repr(u_max),
            "u_steps": str(COUPLING_STEPS),
            "electron_spin": electron,
            "impurity_state": "dd",
        }),
    }


def _family_op(rng: random.Random, family: str, index: int) -> dict:
    # the electron stays up, as in the family figures: which amplitudes are
    # exactly zero, and so the CSV size and peak RSS, depend on it
    electron = "u"
    u_values = _draw_u(rng, FAMILY_U_COUNT)
    theta = math.pi  # the fixed phase of the family figures
    return {
        "name": f"family{index}-{family}", "kind": "family", "electron": electron,
        "impurity": family, "u_values": u_values, "theta": theta,
        "rows": FAMILY_U_COUNT * FAMILY_VARTHETA_STEPS * FAMILY_PHI_STEPS,
        "config": _config({
            "sweep": "family",
            "theta": repr(theta),
            "u_list": ",".join(repr(u) for u in u_values),
            "vartheta_steps": str(FAMILY_VARTHETA_STEPS),
            "phi_steps": str(FAMILY_PHI_STEPS),
            "electron_spin": electron,
            "impurity_state": family,
        }),
    }


def generate(workload: str, seed: int) -> list[dict]:
    """The operations of one pass of ``workload``; equal seeds give equal ops."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep_theta":
        return [_theta_op(rng, state) for state in THETA_STATES] + [_coupling_op(rng)]
    if workload == "sweep_family":
        return [_family_op(rng, family, index) for index, family in enumerate(FAMILIES)]
    if workload == "verify":
        return [{"name": "verify", "kind": "verify"}]  # inputs fixed by verify's seed
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def warmup_ops() -> list[dict]:
    """Tiny sweeps run before timing so lazy caches are filled."""
    return [
        {"name": "warmup-theta", "kind": "theta", "rows": 3,
         "config": _config({"sweep": "theta", "theta_steps": "3", "u_list": "1",
                            "electron_spin": "u", "impurity_state": "ud"})},
        {"name": "warmup-family", "kind": "family", "rows": 9,
         "config": _config({"sweep": "family", "vartheta_steps": "3",
                            "phi_steps": "3", "u_list": "1",
                            "electron_spin": "u", "impurity_state": "family2"})},
    ]
