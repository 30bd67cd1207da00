"""Sweep configuration: scenario presets plus key = value config files.

Config files are UTF-8 text, one ``key = value`` per line; blank lines and
lines starting with ``#`` are ignored.  Recognized keys:

  scenario, theta_min, theta_max, theta_steps, u_list, electron_spin,
  impurity_state, output

plus the optional extras used by fixed-phase scenarios:

  theta (fixed phase for family/coupling sweeps), vartheta_steps,
  phi_steps, u_min, u_max, u_steps, sweep (theta | family | coupling)

Every scenario ships with complete defaults, so a config may be as short as
``scenario = fig3b``; explicit keys override the preset, and a grid key that
neither sets takes its sweep kind's default.  A key may appear only once,
and a key the config sets must be one its sweep kind reads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import DomainError
from . import states

# Largest accepted grid, in rows.  Marginal time per row of a whole sweep
# (config to CSV on disk), measured between 3e4 and 3e5 rows on a 2-vCPU,
# 8.2 GB machine: theta 6.0 us, coupling 5.2 us, family (states at one u)
# 3.5 us; the times vary by about 20% from run to run.  A minute holds 1.0e7
# rows at 6.0 us.  Memory does not grow with the rows, since the table is
# streamed to disk as it is computed: at 2e6 rows fig2a peaks at 61 MB
# RSS and fig4 at 34 MB (414 and 673 MB while the float table was held),
# in 7 to 12 s.  The cap dates from when the whole CSV text was held in
# memory (about 0.7 kB per row) and has not been raised.
GRID_CAP = 2 * 10**6
# Smallest accepted phase: the smallest normal double.  The kernel does not
# need it: the closed forms and the solver both pass at the subnormal phases
# 5e-324, 1e-310 and 2.2e-308 for u = 1e-6, 1 and 1e3.
_SMALLEST_PHASE = sys.float_info.min
# Largest accepted coupling u.  The kernel's g^4 overflows beyond it: the
# largest u that passes, bisected on 404 phases in (0, 2 pi] plus 1, pi/2,
# 1e-300 and 1e300, is 1.44e76 at its smallest (1.50e76 at pi/2, 1.60e76 at
# theta = 1).
_LARGEST_COUPLING = 1e76

_TWO_PI = 2.0 * math.pi

# per sweep kind, the grid keys it reads and their defaults; the header
# echoes these and _COMMON_KEYS, no others
_GRID_DEFAULTS = {
    "theta": {"theta_min": "0", "theta_max": repr(_TWO_PI), "theta_steps": "2001",
              "u_list": "1,2,10"},
    "family": {"theta": repr(math.pi), "vartheta_steps": "161", "phi_steps": "41",
               "u_list": "10"},
    "coupling": {"theta": repr(math.pi), "u_min": "0.01", "u_max": "10",
                 "u_steps": "1000"},
}
_COMMON_KEYS = {"scenario", "sweep", "electron_spin", "impurity_state", "output"}
_KNOWN_KEYS = _COMMON_KEYS.union(*_GRID_DEFAULTS.values())
_U_RANGE_KEYS = {"u_min", "u_max", "u_steps"}

_THETA_PRESET = {**_GRID_DEFAULTS["theta"], "electron_spin": "u", "sweep": "theta"}
_FAMILY_PRESET = {
    **_GRID_DEFAULTS["family"], "electron_spin": "u", "sweep": "family",
    "impurity_state": "family2",
}

SCENARIO_PRESETS: dict[str, dict[str, str]] = {
    "fig2a": {**_THETA_PRESET, "impurity_state": "ud"},
    "fig2b": {**_THETA_PRESET, "impurity_state": "du"},
    "fig3a": {**_THETA_PRESET, "impurity_state": "psi+"},
    "fig3b": {**_THETA_PRESET, "impurity_state": "psi-"},
    "fig4": {**_FAMILY_PRESET, "u_list": "10"},
    "fig5": {**_FAMILY_PRESET, "u_list": "2"},
    "fig6": {**_THETA_PRESET,
             "impurity_state": f"uu_dd theta={math.pi / 4!r} phi=0.0"},
    "fig7": {**_GRID_DEFAULTS["coupling"], "sweep": "coupling", "electron_spin": "u",
             "impurity_state": "dd"},
    "custom": dict(_THETA_PRESET),
}


class ConfigError(Exception):
    """Invalid sweep configuration."""


@dataclass(frozen=True, eq=False)  # holds arrays: == is identity, and hash works
class SweepConfig:
    """Fully resolved sweep plan: read-only float64 grids, states, output and header echo."""

    kind: str                       # theta | family | coupling
    electron_spin: str
    impurity_state: str
    output: str                     # as given; checked where it is written
    u_values: np.ndarray
    theta_values: np.ndarray        # the phases; one for family / coupling
    vartheta_values: np.ndarray     # empty but for a family sweep
    phi_values: np.ndarray
    echo: tuple[tuple[str, str], ...]        # resolved settings for the header

    @property
    def row_count(self) -> int:
        """Rows of the sweep's table: its points (u, theta) times its incident states."""
        states = len(self.vartheta_values) * len(self.phi_values) if self.kind == "family" else 1
        return len(self.u_values) * len(self.theta_values) * states


def _parse_float(raw: str, key: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"bad number for {key}: {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{key} = {raw!r} must be finite")
    return value


def _parse_int(raw: str, key: str) -> int:
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigError(f"bad integer for {key}: {raw!r}") from exc
    if value <= 0:
        raise ConfigError(f"{key} = {raw!r} must be positive")
    return value


def _check_coupling(value: float, key: str) -> float:
    if value > _LARGEST_COUPLING:
        raise ConfigError(
            f"{key} = {value!r} exceeds the largest coupling {_LARGEST_COUPLING!r}"
        )
    return value + 0.0  # a coupling of -0.0 is written as 0


def _parse_u_list(raw: str) -> np.ndarray:
    try:  # an empty entry, and so an empty list, is not a number
        values = tuple(float(tok) for tok in raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad u_list: {raw!r}") from exc
    if bad := [v for v in values if v < 0 or not math.isfinite(v)]:
        raise ConfigError(f"u values must be finite and >= 0, got {bad[0]!r} in u_list {raw!r}")
    return np.array([_check_coupling(v, "u_list") for v in values])


def theta_grid(theta_min: float, theta_max: float, steps: int) -> np.ndarray:
    """Evenly spaced phases; a zero lower edge means the open interval (0, max]."""
    if theta_max <= theta_min:
        raise ConfigError(f"theta_max = {theta_max!r} must exceed theta_min = {theta_min!r}")
    if theta_min < 0:
        raise ConfigError(f"theta_min = {theta_min!r} must be >= 0")
    with np.errstate(over="ignore"):  # an overflow is reported below
        if theta_min == 0.0:
            pts = theta_max * np.arange(1, steps + 1) / steps
        else:
            pts = np.linspace(theta_min, theta_max, steps)
    if not np.all(np.isfinite(pts)):
        raise ConfigError(f"theta_max = {theta_max!r} overflows a grid of {steps} phases")
    if pts[0] < _SMALLEST_PHASE:
        key, value = ("theta_min", theta_min) if theta_min else ("theta_max", theta_max)
        raise ConfigError(
            f"{key} = {value!r} gives the phase {float(pts[0])!r}, below the smallest "
            f"normal double {_SMALLEST_PHASE!r}"
        )
    return pts


def _closed_grid(upper: float, steps: int) -> np.ndarray:
    return np.linspace(0.0, upper, steps)


def parse_config_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines into a mapping; a repeated key is an error."""
    mapping: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key = key.strip().lower()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in first_line:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r}, first set on line "
                f"{first_line[key]}"
            )
        first_line[key] = lineno
        mapping[key] = value.strip()
    return mapping


def build_config(settings: dict[str, str]) -> SweepConfig:
    """Resolve a raw mapping against its scenario preset and validate; reads no file."""
    scenario = settings.get("scenario", "custom").lower()
    if scenario not in SCENARIO_PRESETS:
        raise ConfigError(
            f"unknown scenario {scenario!r}; choose from {sorted(SCENARIO_PRESETS)}"
        )
    resolved = dict(SCENARIO_PRESETS[scenario])
    resolved.update({k: v for k, v in settings.items() if k != "scenario"})
    resolved.setdefault("output", f"{scenario}.csv")

    kind = resolved["sweep"]  # every preset sets it
    if kind not in _GRID_DEFAULTS:
        raise ConfigError(f"sweep must be theta, family or coupling, got {kind!r}")
    resolved = {**_GRID_DEFAULTS[kind], **resolved}

    electron = resolved.get("electron_spin")
    impurity = resolved.get("impurity_state")
    if not electron or not impurity:
        raise ConfigError("electron_spin and impurity_state are required")
    try:  # fail early on unparseable states; the sweep composes the incident state
        states.electron_state(electron)
        if kind == "family":
            states.family_builder(impurity)
        else:
            states.impurity_state(impurity)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc

    # theta and family sweeps read u_list; a coupling sweep spans
    # u_min..u_max unless the config itself sets u_list
    grid_keys = _GRID_DEFAULTS[kind].keys()
    if "u_list" in settings:
        grid_keys = (grid_keys - _U_RANGE_KEYS) | {"u_list"}
    unread = sorted(settings.keys() - _COMMON_KEYS - grid_keys)
    if unread:
        raise ConfigError(
            f"a {kind} sweep does not read {', '.join(unread)}; it reads "
            f"{', '.join(sorted(_COMMON_KEYS | grid_keys))}"
        )
    u_values = None
    if "u_list" in grid_keys:
        u_values = _parse_u_list(resolved["u_list"])
        u_count = len(u_values)
    else:
        u_lo = _check_coupling(_parse_float(resolved["u_min"], "u_min"), "u_min")
        u_hi = _check_coupling(_parse_float(resolved["u_max"], "u_max"), "u_max")
        u_count = _parse_int(resolved["u_steps"], "u_steps")
        if not 0 <= u_lo < u_hi:
            raise ConfigError(f"need 0 <= u_min < u_max, got u_min = {u_lo!r}, u_max = {u_hi!r}")

    if kind == "theta":
        theta_min = _parse_float(resolved["theta_min"], "theta_min")
        theta_max = _parse_float(resolved["theta_max"], "theta_max")
        theta_steps = _parse_int(resolved["theta_steps"], "theta_steps")
        per_u = theta_steps
    else:  # one fixed phase
        theta = _parse_float(resolved["theta"], "theta")
        if theta < _SMALLEST_PHASE:
            raise ConfigError(
                f"theta = {theta!r} must be at least the smallest normal double "
                f"{_SMALLEST_PHASE!r}"
            )
        theta_values = np.array([theta])
        per_u = 1
    if kind == "family":
        vsteps = _parse_int(resolved["vartheta_steps"], "vartheta_steps")
        psteps = _parse_int(resolved["phi_steps"], "phi_steps")
        per_u = vsteps * psteps

    points = u_count * per_u  # checked before any grid is allocated
    if points > GRID_CAP:
        raise ConfigError(f"grid of {points} points exceeds cap {GRID_CAP}")

    vartheta_values = phi_values = np.empty(0)
    if kind == "theta":
        theta_values = theta_grid(theta_min, theta_max, theta_steps)
    elif kind == "family":
        vartheta_values = _closed_grid(_TWO_PI, vsteps)
        phi_values = _closed_grid(math.pi, psteps)
    if u_values is None:
        u_values = np.linspace(u_lo, u_hi, u_count)
    for grid in (u_values, theta_values, vartheta_values, phi_values):
        grid.flags.writeable = False

    echo = tuple(
        (k, resolved[k] if k != "scenario" else scenario)
        for k in sorted(_COMMON_KEYS | grid_keys)
    )
    return SweepConfig(
        kind=kind,
        electron_spin=electron,
        impurity_state=impurity,
        output=resolved["output"],
        u_values=u_values,
        theta_values=theta_values,
        vartheta_values=vartheta_values,
        phi_values=phi_values,
        echo=echo,
    )


def load_config(path: str | Path) -> SweepConfig:
    """Read and resolve a sweep configuration file; it reads no other file."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # drops a leading byte-order mark
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return build_config(parse_config_text(text))
