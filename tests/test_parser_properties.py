"""Property tests for the spin-state mini-language and the config parser.

Random token strings may be rejected, but only with ``ConfigError`` or
``DomainError``; every accepted config re-parses from its own header echo
to a ``SweepConfig`` with the same echo and the same grids.
"""

import subprocess
import sys

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from conftest import child_env  # noqa: E402
from spinfp.errors import DomainError  # noqa: E402
from spinfp.scenarios.config import (  # noqa: E402
    ConfigError,
    build_config,
    parse_config_text,
)
from spinfp.scenarios.states import electron_state, impurity_state  # noqa: E402

# deterministic and without an example database, so every run is the same
RUNS = settings(max_examples=100, deadline=None, derandomize=True, database=None)

# words of the grammars, near misses and numbers at the edges of the domain
WORDS = st.sampled_from([
    "uu", "ud", "du", "dd", "u,d", "psi+", "psi-", "PSI-", "family2", "FAMILY2",
    "uu_dd", "Uu_dd", "theta=1", "phi=2", "theta=", "phi=nan", "theta=1e400",
    "u", "d", "up", "DOWN", "0.6,0.8j", "1e200,1e200", "1,", ",", "nan,1",
    "3e-13,4e-13", "0,0", "x", "=", "#",
])
GOOD_NUMBERS = st.sampled_from(["1", "3", "2.5", "0.1", "1,2"])
NUMBERS = GOOD_NUMBERS | st.sampled_from(
    ["0", "-2", "1e-320", "1e308", "nan", "inf", "abc", ""]
)
TOKEN_STRINGS = st.lists(WORDS | st.text(max_size=6), min_size=1, max_size=4).map(" ".join)

KEYS = st.sampled_from([  # impurity_state, which the custom preset lacks, is always set
    "scenario", "sweep", "electron_spin", "theta_min",
    "theta_max", "theta_steps", "u_list", "theta", "vartheta_steps", "phi_steps",
    "u_min", "u_max", "u_steps",
])
VALUES = {
    "scenario": st.sampled_from(
        ["fig2a", "fig3b", "fig4", "fig6", "fig7", "custom", "FIG5", "nope"]
    ),
    "sweep": st.sampled_from(["theta", "family", "coupling", "Theta", ""]),
}
ANY_VALUES = {**VALUES, "electron_spin": TOKEN_STRINGS, "impurity_state": TOKEN_STRINGS}
GOOD_VALUES = {
    **VALUES,
    "electron_spin": st.sampled_from(["u", "DOWN", "0.6,0.8j"]),
    "impurity_state": st.sampled_from(
        ["ud", "PSI-", "family2 theta=1 phi=2", "FAMILY2", "uu_dd"]
    ),
}


def config_lines(values, numbers):
    """Lines setting impurity_state and up to six other keys, values drawn per key."""
    return st.lists(KEYS, max_size=6, unique=True).flatmap(
        lambda keys: st.tuples(
            *(values.get(key, numbers).map(f"{key} = {{}}".format)
              for key in ("impurity_state", *keys))
        )
    )


def reparsed_from_echo(cfg):
    """The config read back from its header lines with the '# ' prefixes stripped."""
    header = [f"# {key} = {value}" for key, value in cfg.echo]
    return build_config(parse_config_text("\n".join(line[2:] for line in header)))


def assert_same_config(got, want):
    """The echo, which names every setting, and each grid array are equal."""
    assert got.echo == want.echo
    for grid in ("u_values", "theta_values", "vartheta_values", "phi_values"):
        assert np.array_equal(getattr(got, grid), getattr(want, grid))


@RUNS
@given(TOKEN_STRINGS)
@example("family2 theta=1e400 phi=2")  # the float overflows to inf
def test_impurity_state_raises_only_domain_error(spec):
    try:
        impurity_state(spec)
    except DomainError:
        pass


@pytest.mark.parametrize("spec,token", [
    ("uu_dd theta=nan phi=0", "theta=nan"),
    ("uu_dd theta=0.3 phi=inf", "phi=inf"),
])
def test_non_finite_family_parameter_is_a_domain_error(spec, token):
    with pytest.raises(DomainError) as info:
        impurity_state(spec)
    assert repr(token) in str(info.value) and repr(spec) in str(info.value)


def test_non_finite_family_parameter_on_the_cli(tmp_path):
    # a fresh interpreter with the default warning filters, so a leaked
    # RuntimeWarning would reach stderr
    out_file = tmp_path / "rows.csv"
    cfg_file = tmp_path / "inf.cfg"
    cfg_file.write_text(f"impurity_state = family2 theta=inf phi=0\noutput = {out_file}\n")
    env = child_env()
    del env["PYTHONWARNINGS"]
    proc = subprocess.run(
        [sys.executable, "-m", "spinfp.scenarios.cli", "sweep", "--config", str(cfg_file)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "'theta=inf'" in proc.stderr
    assert not out_file.exists()


@RUNS
@given(TOKEN_STRINGS)
def test_electron_state_raises_only_domain_error(spec):
    try:
        electron_state(spec)
    except DomainError:
        pass


@RUNS
@given(config_lines(ANY_VALUES, NUMBERS))
def test_config_raises_only_config_or_domain_error(lines):
    try:
        build_config(parse_config_text("\n".join(lines)))
    except (ConfigError, DomainError):
        pass


@RUNS
@given(config_lines(GOOD_VALUES, GOOD_NUMBERS))
def test_accepted_configs_round_trip_through_their_echo(lines):
    try:
        cfg = build_config(parse_config_text("\n".join(lines)))
    except (ConfigError, DomainError):
        return
    assert_same_config(reparsed_from_echo(cfg), cfg)


@pytest.mark.parametrize("text", [
    "scenario = fig2a",
    "scenario = fig4\nimpurity_state = UU_DD\nu_list = 0.5,3",
    "scenario = fig7\nu_list = 1,2,10",
    "sweep = coupling\nimpurity_state = psi-\nu_min = 0.1\nu_max = 2\nu_steps = 7",
    "impurity_state = family2 theta=0.3 phi=1\nelectron_spin = 0.6,0.8j\ntheta_min = 1",
    "sweep = family\nimpurity_state = FAMILY2\ntheta = 2\nvartheta_steps = 3\nphi_steps = 2",
])
def test_hand_picked_configs_round_trip(text):
    cfg = build_config(parse_config_text(text))
    assert_same_config(reparsed_from_echo(cfg), cfg)
