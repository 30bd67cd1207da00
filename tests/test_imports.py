"""The package imports on numpy alone: no sympy, scipy or mpmath at run time."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinfp

HEAVY = ("sympy", "scipy", "mpmath")


@pytest.mark.parametrize("module", ["spinfp", "spinfp.scenarios.cli"])
def test_import_loads_no_heavy_dependency(module):
    env = dict(os.environ)
    source = str(Path(spinfp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    script = (
        f"import sys, {module}\n"
        f"print(sorted(m for m in sys.modules if m.split('.')[0] in {HEAVY!r}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"
