"""The same bytes under every x86-64 OpenBLAS core type.

Each child interpreter runs under one ``OPENBLAS_CORETYPE`` and hashes the
kernel's t and r on a fixed stack of points and the fig3b and fig7 CSVs;
every core type must give one hash per artefact.  Only the core types whose
instructions this CPU's /proc/cpuinfo flags list are run: Prescott needs
SSE3 (``pni``), Haswell ``avx2`` and SkylakeX ``avx512f``; the test
prints the ones left out, and so does a failure.  On a CPU that lists none
of them, one child runs with the environment unchanged.  An OpenBLAS built
without DYNAMIC_ARCH ignores the variable, and the children then all run
the same kernels.

fig4 is left out.  Its rows apply one matrix to many states, and that
``np.matmul`` in the row builder changes bits between Prescott and Haswell,
although the kernel's t and r and the incident states do not.  numpy's own
SIMD dispatch of complex arithmetic is not varied here.
"""

import os
import subprocess
import sys
from pathlib import Path

import spinfp

CORE_TYPES = {"Prescott": "pni", "Haswell": "avx2", "SkylakeX": "avx512f"}

CHILD = """
import hashlib
import numpy as np
from spinfp.closed_form import amplitudes
from spinfp.scenarios.config import build_config
from spinfp.scenarios.sweeps import render_csv, run_sweep

rng = np.random.default_rng(5)
t, r = amplitudes(rng.uniform(1e-3, 20.0, 300), rng.uniform(1e-3, 13.0, 300))
print("amplitudes", hashlib.sha256(t.tobytes() + r.tobytes()).hexdigest())
for name in ("fig3b", "fig7"):
    text = render_csv(run_sweep(build_config({"scenario": name})))
    print(name, hashlib.sha256(text.encode()).hexdigest())
"""


def _cpu_flags() -> set[str]:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    return {flag for line in text.splitlines() if line.startswith("flags")
            for flag in line.split(":", 1)[1].split()}


def test_kernel_and_theta_presets_are_the_same_bytes_on_every_core_type():
    flags = _cpu_flags()
    run = [core for core, flag in CORE_TYPES.items() if flag in flags]
    left_out = [core for core in CORE_TYPES if core not in run]
    print(f"OPENBLAS_CORETYPE run: {run}; not supported by this CPU: {left_out}")
    source = str(Path(spinfp.__file__).resolve().parents[1])
    children = {}
    for core in run or [None]:
        env = dict(os.environ, **({"OPENBLAS_CORETYPE": core} if core else {}))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
        children[core] = subprocess.Popen([sys.executable, "-c", CHILD], env=env, text=True,
                                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    hashes: dict[str, dict[str, str]] = {}
    for core, child in children.items():
        out, err = child.communicate(timeout=300)
        assert child.returncode == 0, err
        for line in out.splitlines():
            artefact, digest = line.split()
            hashes.setdefault(artefact, {})[core] = digest
    assert set(hashes) == {"amplitudes", "fig3b", "fig7"}
    for artefact, by_core in hashes.items():
        assert len(set(by_core.values())) == 1, (
            f"{artefact} differs across core types {by_core} "
            f"(not run on this CPU: {left_out or 'none'})")
