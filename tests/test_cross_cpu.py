"""The same bytes under every x86-64 OpenBLAS core type and numpy dispatch.

Each child interpreter runs under one ``OPENBLAS_CORETYPE`` and hashes the
kernel's sector sum (``closed_form._product``) on a fixed stack of random
sector amplitudes, the CSV text ``_format.format_rows`` gives for about 2e4
values, after checking it against ``format(v, ".17g")``, the kernel's t and
r on a fixed stack of points, a custom-electron incident state, the CSVs of
all eight figure presets, a fig3b sweep and a fig5 sweep over several u
with a custom electron whose amplitudes each have nonzero real and
imaginary parts, and a fig5 sweep over several u with the electron 0.6|u> +
0.8i|d>; every core type must give one hash per artefact.  No step of a
sweep makes a BLAS call.  Only the core types whose instructions this CPU's
/proc/cpuinfo flags list are run: Prescott needs SSE3 (``pni``), Haswell
``avx2`` and SkylakeX ``avx512f``; the test prints the ones left out, and
so does a failure.  On a CPU that lists none of them, one child runs with
the environment unchanged.  An OpenBLAS built without DYNAMIC_ARCH ignores
the variable, and the children then all run the same kernels.

One more child runs with ``NPY_DISABLE_CPU_FEATURES`` set to every numpy
dispatch target this CPU supports, so numpy runs its baseline loops (numpy
refuses to disable the baseline itself).  It hashes the sector sum, the
rendered text, checked as above (the render's decade estimate comes from
``np.log10``, which numpy dispatches), the incident state, fig4, fig5, fig7
and the fig5 sweep with the electron 0.6|u> + 0.8i|d>, which must match the
other children's.  Two things still change bits under that setting: the
closed forms' complex arithmetic, and so the kernel's t and r and the theta
presets; and ``np.kron``'s complex products of the family states with an
electron amplitude whose real and imaginary parts are both nonzero, and so
that electron's family sweeps.
"""

import json
import subprocess
import sys
from pathlib import Path

from conftest import child_env

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as _umath

CORE_TYPES = {"Prescott": "pni", "Haswell": "avx2", "SkylakeX": "avx512f"}

SECTOR_SUM = """
import hashlib
import numpy as np
from spinfp.closed_form import _product

rng = np.random.default_rng(11)
sectors = rng.standard_normal((5, 2, 300)) + 1j * rng.standard_normal((5, 2, 300))
t, r = _product(sectors)
print("sector_sum", hashlib.sha256(t.tobytes() + r.tobytes()).hexdigest())
"""

# format_rows against format(v, ".17g"), exactly, on random bit patterns, random
# magnitudes and the decade edges 10^k +- one ulp: its decade estimate comes from
# np.log10, which numpy dispatches per CPU
RENDER = """
from spinfp.scenarios._format import format_float, format_rows

rng = np.random.default_rng(23)
powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
values = np.concatenate([
    rng.integers(0, 2**64, 10_000, dtype=np.uint64).view(np.float64),
    rng.standard_normal(7_998) * powers[rng.integers(0, len(powers), 7_998)],
    powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), [0.0, -0.0],
]).reshape(-1, 8)
text = bytes(format_rows(values))
for line, row in zip(text.decode("ascii").splitlines(), values.tolist()):
    if line != ",".join(format_float(v) for v in row):
        raise SystemExit(f"format_rows gives {line!r} for {row!r}")
print("render", hashlib.sha256(text).hexdigest())
"""

ELECTRON = "-0.3943520554588936-0.86240486551560824j,-2.032552427456725+1.4104234840116703j"
SWEEPS = {
    **{name: {"scenario": name} for name in
       ("fig2a", "fig2b", "fig3a", "fig3b", "fig4", "fig5", "fig6", "fig7")},
    "fig3b-electron": {"scenario": "fig3b", "electron_spin": ELECTRON, "theta_steps": "301"},
    "fig5-electron": {"scenario": "fig5", "electron_spin": ELECTRON, "u_list": "0.5,1,2,10"},
    "fig5-real-imag-electron": {"scenario": "fig5", "electron_spin": "0.6,0.8j",
                                "u_list": "0.5,1,2,10"},
}
DISPATCH_INVARIANT = ("fig4", "fig5", "fig7", "fig5-real-imag-electron")

SWEEP_HASHES = """
import json
import sys
import tempfile
from pathlib import Path

from spinfp.scenarios.config import build_config
from spinfp.scenarios.states import incident_state
from spinfp.scenarios.sweeps import run_sweep, write_csv

state = incident_state(sys.argv[1], "psi-").amplitudes
print("incident_state", hashlib.sha256(state.tobytes()).hexdigest())
with tempfile.TemporaryDirectory() as directory:
    for name, settings in json.loads(sys.argv[2]).items():
        # the header echoes the config's output, not the path written to
        path = write_csv(run_sweep(build_config(settings)), Path(directory) / "f.csv")
        print(name, hashlib.sha256(path.read_bytes()).hexdigest())
"""

CHILD = SECTOR_SUM + RENDER + """
from spinfp.closed_form import amplitudes

rng = np.random.default_rng(5)
t, r = amplitudes(rng.uniform(1e-3, 20.0, 300), rng.uniform(1e-3, 13.0, 300))
print("amplitudes", hashlib.sha256(t.tobytes() + r.tobytes()).hexdigest())
""" + SWEEP_HASHES


def _cpu_flags() -> set[str]:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    return {flag for line in text.splitlines() if line.startswith("flags")
            for flag in line.split(":", 1)[1].split()}


def test_kernel_and_every_sweep_are_the_same_bytes_on_every_core_type():
    flags = _cpu_flags()
    run = [core for core, flag in CORE_TYPES.items() if flag in flags]
    left_out = [core for core in CORE_TYPES if core not in run]
    targets = [t for t in _umath.__cpu_dispatch__ if _umath.__cpu_features__.get(t)]
    skipped = [t for t in _umath.__cpu_dispatch__ if t not in targets]
    print(f"OPENBLAS_CORETYPE run: {run}; not supported by this CPU: {left_out}")
    print(f"NPY_DISABLE_CPU_FEATURES: {targets}; not supported by this CPU: {skipped}; "
          f"baseline, which cannot be disabled: {_umath.__cpu_baseline__}")
    variants = {core: ({"OPENBLAS_CORETYPE": core} if core else {}, CHILD, SWEEPS)
                for core in run or [None]}
    dispatch = f"NPY_DISABLE_CPU_FEATURES={' '.join(targets)}"
    variants[dispatch] = ({"NPY_DISABLE_CPU_FEATURES": " ".join(targets)},
                          SECTOR_SUM + RENDER + SWEEP_HASHES,
                          {name: SWEEPS[name] for name in DISPATCH_INVARIANT})
    children = {}
    for name, (setting, script, sweeps) in variants.items():
        children[name] = subprocess.Popen(
            [sys.executable, "-c", script, ELECTRON, json.dumps(sweeps)], env=child_env(**setting),
            text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    hashes: dict[str, dict[str, str]] = {}
    for name, child in children.items():
        out, err = child.communicate(timeout=300)
        assert child.returncode == 0, err
        for line in out.splitlines():
            artefact, digest = line.split()
            hashes.setdefault(artefact, {})[name] = digest
    assert set(hashes) == {"sector_sum", "render", "amplitudes", "incident_state", *SWEEPS}
    for artefact in ("sector_sum", "render", "incident_state", *DISPATCH_INVARIANT):
        assert set(hashes[artefact]) == set(variants)
    differ = {artefact: by_child for artefact, by_child in hashes.items()
              if len(set(by_child.values())) > 1}
    assert not differ, (
        f"{sorted(differ)} differ across children: {differ} (core types not run on this "
        f"CPU: {left_out or 'none'}; dispatch targets not disabled: {skipped or 'none'})")
