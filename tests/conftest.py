import os
from pathlib import Path

import numpy as np
import pytest

import spinfp
from spinfp.spin_algebra import coupled_basis


def child_env(**setting: str) -> dict[str, str]:
    """The environment of a child interpreter that imports this source tree.

    ``setting`` over this process's environment, the source directory first on
    ``PYTHONPATH``, and RuntimeWarnings as errors, as the ``filterwarnings`` of
    pyproject.toml makes them in the test process.
    """
    source = str(Path(spinfp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning", **setting}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    return env


def _rotated(quartet, doublet):
    """The product-basis matrices (N, 8, 8) of sector blocks, B blocks B^T.

    ``quartet`` is (N,) and ``doublet`` (N, 2, 2), indexed (out, in).  The
    quartet amplitude sits on each |1; 3/2, m> and the doublet block on each
    m = +-1/2 pair of the diagonalised basis B; this is the expected side
    of a comparison, never applied to a kernel's output.
    """
    coupled = np.zeros((len(quartet), 8, 8), dtype=complex)
    coupled[:, range(4), range(4)] = np.asarray(quartet)[:, None]
    for labels in ((4, 6), (5, 7)):  # m = +1/2, then m = -1/2
        coupled[:, np.array(labels)[:, None], labels] = doublet
    b = coupled_basis().matrix
    return b @ coupled @ b.conj().T


@pytest.fixture
def rotated():
    """``_rotated``: sector blocks rotated to the product basis, for expected sides."""
    return _rotated


def pytest_addoption(parser):
    parser.addoption("--fail-on-skip", action="store_true",
                     help="fail the run if any test skips, as where every test extra is installed")


def _skipped(config):
    """The skipped reports, where ``--fail-on-skip`` makes any of them a failure."""
    reporter = config.pluginmanager.get_plugin("terminalreporter")
    if config.getoption("fail_on_skip") and reporter is not None:
        return reporter.stats.get("skipped")
    return None


def pytest_sessionfinish(session):
    if _skipped(session.config):
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, config):
    if skipped := _skipped(config):
        terminalreporter.write_sep(
            "=", f"--fail-on-skip: {len(skipped)} skipped; install the test extra", red=True)
