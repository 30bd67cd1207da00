"""Conversion between laboratory parameters and the dimensionless pair (u, theta).

Inputs use the units natural for semiconductor wires: effective mass in
units of the bare electron mass, energy in meV, contact exchange coupling in
eV*Angstrom and impurity spacing in nm.  The only physics downstream of this
module is dimensionless, so conversion is a thin front end:

    k      = sqrt(2 m* E) / hbar
    rho(E) = sqrt(2 m* / E) / (pi hbar)      (states per unit length and energy)
    u      = rho(E) * J
    theta  = k * x0
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..closed_form import DimensionlessParams
from ..errors import DomainError

# CODATA 2022 values; e and h are exact by the definition of the SI.
ELEMENTARY_CHARGE = 1.602176634e-19      # C
PLANCK = 6.62607015e-34                  # J s
HBAR = PLANCK / (2 * math.pi)            # J s
ELECTRON_MASS = 9.1093837139e-31         # kg

_MEV = 1e-3 * ELEMENTARY_CHARGE          # J
_EV_ANGSTROM = ELEMENTARY_CHARGE * 1e-10  # J * m
_NM = 1e-9


@dataclass(frozen=True)
class PhysicalParams:
    """Material parameters of the wire and the injected electron."""

    effective_mass: float        # units of the bare electron mass
    energy_mev: float
    coupling_ev_angstrom: float
    spacing_nm: float

    def __post_init__(self):
        for name in ("effective_mass", "energy_mev", "spacing_nm"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise DomainError(f"{name} must be finite and > 0, got {value}")
        if not math.isfinite(self.coupling_ev_angstrom) or self.coupling_ev_angstrom < 0:
            raise DomainError("coupling must be finite and >= 0")


def _finite_positive(
    value: float, quantity: str, effective_mass: float, energy_mev: float
) -> float:
    """``value``, or a DomainError naming the inputs when it is not finite and > 0.

    At extreme magnitudes the SI products under- or overflow.
    """
    if not (math.isfinite(value) and value > 0):
        raise DomainError(
            f"effective_mass = {effective_mass!r} and energy_mev = {energy_mev!r} give "
            f"{quantity} {value!r}; it must be finite and > 0"
        )
    return value


def _si(effective_mass: float, energy_mev: float) -> tuple[float, float]:
    """The mass in kg and the energy in J."""
    if effective_mass <= 0 or energy_mev <= 0:
        raise DomainError("mass and energy must be positive")
    return effective_mass * ELECTRON_MASS, energy_mev * _MEV


def wave_number(effective_mass: float, energy_mev: float) -> float:
    """Electron wave number in 1/m."""
    m, e = _si(effective_mass, energy_mev)
    k = math.sqrt(2.0 * m * e) / HBAR
    return _finite_positive(k, "the wave number", effective_mass, energy_mev)


def density_of_states(effective_mass: float, energy_mev: float) -> float:
    """1D density of states per unit length, in 1/(J*m)."""
    m, e = _si(effective_mass, energy_mev)
    ratio = 2.0 * m / e if e > 0 else math.inf  # e is 0 when energy_mev underflows
    rho = math.sqrt(ratio) / (math.pi * HBAR)
    return _finite_positive(rho, "the density of states", effective_mass, energy_mev)


def convert_units(phys: PhysicalParams) -> DimensionlessParams:
    """Map physical parameters to the dimensionless coupling and phase."""
    u = density_of_states(phys.effective_mass, phys.energy_mev) * (
        phys.coupling_ev_angstrom * _EV_ANGSTROM
    ) + 0.0  # a coupling of -0.0 is written as 0, as in a config
    theta = wave_number(phys.effective_mass, phys.energy_mev) * phys.spacing_nm * _NM
    return DimensionlessParams(u=u, theta=theta)


def spacing_for_phase(effective_mass: float, energy_mev: float, theta: float) -> float:
    """Impurity spacing in nm that realizes a given phase theta = k x0."""
    if not (math.isfinite(theta) and theta > 0):
        raise DomainError(f"phase theta must be finite and > 0, got {theta}")
    return theta / wave_number(effective_mass, energy_mev) / _NM
