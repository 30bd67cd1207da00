"""Mini-language for spin-state specifications used in sweep configs.

Impurity pair states:
  * product kets: ``uu``, ``ud``, ``du``, ``dd`` (``u,d`` also accepted)
  * named Bell states: ``psi+``, ``psi-``
  * one-excitation family:  ``family2 theta=<rad> phi=<rad>``
        cos(theta)|ud> + e^{i phi} sin(theta)|du>
  * aligned family:         ``uu_dd theta=<rad> phi=<rad>``
        cos(theta)|uu> + e^{i phi} sin(theta)|dd>

Electron states: ``u`` / ``d`` (aliases ``up`` / ``down``) or two complex
amplitudes ``<alpha>,<beta>`` parsed by Python's complex(), e.g. ``0.6,0.8j``;
only the direction of a finite, nonzero pair matters.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DomainError
from ..spin_algebra import SpinVector, compose_state

_KET_INDEX = {"uu": 0, "ud": 1, "du": 2, "dd": 3}


def _family(mix, phase, first: int, second: int) -> np.ndarray:
    """cos(mix)|first> + e^{i phase} sin(mix)|second>; the ket index is the last axis."""
    mix, phase = np.broadcast_arrays(
        np.asarray(mix, dtype=float), np.asarray(phase, dtype=float)
    )
    out = np.zeros(mix.shape + (4,), dtype=complex)
    out[..., first] = np.cos(mix)
    out[..., second] = np.exp(1j * phase) * np.sin(mix)
    return out


def one_up_family(mix, phase) -> np.ndarray:
    """Pair states with a single impurity excitation shared between sites.

    ``mix`` and ``phase`` may be arrays; they broadcast to the leading axes.
    """
    return _family(mix, phase, 1, 2)


def aligned_family(mix, phase) -> np.ndarray:
    """Pair states with both impurity spins aligned (arrays as in one_up_family)."""
    return _family(mix, phase, 0, 3)


_FAMILIES = {"family2": one_up_family, "uu_dd": aligned_family}


def family_builder(spec: str):
    """The builder of the pair states a family sweep spans.

    ``spec`` is the family's name alone, in any case; the sweep spans every
    state of the family, so it takes no parameters.
    """
    head, *extra = spec.split() or [""]
    builder = _FAMILIES.get(head.lower())
    if builder is None:
        raise DomainError(f"family sweeps need impurity_state family2 or uu_dd, "
                          f"got {head!r}")
    if extra:
        raise DomainError(f"family sweeps span every family state; unexpected "
                          f"{' '.join(extra)!r} after {head!r}")
    return builder


def bell_pair(sign: int) -> np.ndarray:
    out = np.zeros(4, dtype=complex)
    out[1] = 1.0 / math.sqrt(2.0)
    out[2] = sign / math.sqrt(2.0)
    return out


def _parse_family_args(tokens: list[str], spec: str) -> tuple[float, float]:
    values = {}
    for tok in tokens:
        key, _, raw = tok.partition("=")
        if key not in ("theta", "phi") or not raw:
            raise DomainError(f"bad family parameter {tok!r} in {spec!r}")
        if key in values:
            raise DomainError(f"repeated family parameter {key!r} in {spec!r}")
        try:
            values[key] = float(raw)
        except ValueError as exc:
            raise DomainError(f"bad number in {tok!r}") from exc
    missing = {"theta", "phi"} - values.keys()
    if missing:
        raise DomainError(f"missing {sorted(missing)} in {spec!r}")
    return values["theta"], values["phi"]


def impurity_state(spec: str) -> np.ndarray:
    """Parse an impurity pair specification into a normalized 4-vector."""
    tokens = spec.strip().lower().split()
    if not tokens:
        raise DomainError("empty impurity state spec")
    head, *rest = tokens
    if head in _FAMILIES:
        return _FAMILIES[head](*_parse_family_args(rest, spec))
    ket = head.replace(",", "")
    if head in ("psi+", "psi-"):
        out = bell_pair(+1 if head == "psi+" else -1)
    elif ket in _KET_INDEX:
        out = np.zeros(4, dtype=complex)
        out[_KET_INDEX[ket]] = 1.0
    else:
        raise DomainError(f"unrecognized impurity state spec {spec!r}")
    if rest:
        raise DomainError(f"unexpected {' '.join(rest)!r} after {head!r} in {spec!r}")
    return out


def electron_state(spec: str) -> np.ndarray:
    """Parse an electron spin specification into a normalized 2-vector."""
    text = spec.strip().lower()
    if text in ("u", "up"):
        return np.array([1.0, 0.0], dtype=complex)
    if text in ("d", "down"):
        return np.array([0.0, 1.0], dtype=complex)
    parts = [p.strip() for p in text.split(",")]
    if len(parts) == 2:
        try:
            amps = np.array([complex(parts[0]), complex(parts[1])])
        except ValueError as exc:
            raise DomainError(f"bad electron amplitudes {spec!r}") from exc
        parts = amps.view(np.float64)  # real and imaginary parts
        if not np.all(np.isfinite(parts)):
            raise DomainError(f"electron amplitudes must be finite, got {spec!r}")
        largest = float(np.max(np.abs(parts)))
        if largest == 0.0:
            raise DomainError("electron state has zero norm")
        # an exact power-of-two rescale puts the largest part in [0.5, 1): the
        # norm cannot overflow or underflow, so only the direction matters
        scaled = np.ldexp(parts, -math.frexp(largest)[1]).view(complex)
        return scaled / np.linalg.norm(scaled)
    raise DomainError(f"unrecognized electron spin spec {spec!r}")


def incident_state(electron_spec: str, impurity_spec: str) -> SpinVector:
    """Full 8-component incident state from the two specifications."""
    return compose_state(electron_state(electron_spec), impurity_state(impurity_spec))
