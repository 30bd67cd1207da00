"""Command line interface.

``main`` may be called many times in one process, as the tests, the
benchmark and scripts do.  It builds its argparse parser on first use and
keeps it: building one took 0.4 to 0.6 ms on a 2-vCPU x86-64 host, a fifth of
a 3-row sweep, against 0.03 ms for ``parse_args``.  Parsing leaves the parser
as it was, so each call behaves as in a fresh process.

Each command imports the modules only it uses: ``verify`` (with the solver)
and ``units`` are loaded by the commands that run them, not by a sweep.

Exit codes: 0 success (``--help`` included), 1 configuration or usage error
(argparse's error lines stay as they are), 2 numeric failure, 3 verification
failure (``verify.EXIT_VERIFY``, which ``run_verification`` returns).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from ..errors import DomainError, NumericError
from ._format import format_float
from .config import ConfigError, load_config
from .sweeps import output_target, run_sweep, write_csv

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinfp",
        description=(
            "Single-electron scattering in a 1D wire with two spin-1/2 "
            "magnetic impurities: parameter sweeps, verification and unit "
            "conversion."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="evaluate a configured parameter sweep")
    sweep.add_argument("--config", required=True, help="path to a key = value file")

    sub.add_parser("verify", help="run the acceptance checks and report per line")

    convert = sub.add_parser(
        "convert", help="convert material parameters to (u, theta)"
    )
    convert.add_argument("--mstar", type=float, required=True,
                         help="effective mass in units of the electron mass")
    convert.add_argument("--energy-mev", type=float, required=True,
                         help="electron energy in meV")
    convert.add_argument("--coupling-evA", type=float, required=True,
                         help="contact exchange coupling in eV*Angstrom")
    convert.add_argument("--x0-nm", type=float, default=None,
                         help="impurity spacing in nm (optional)")
    return parser


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    output_target(cfg.output)  # a bad output is refused before the sweep runs
    path = write_csv(run_sweep(cfg), cfg.output)  # computes the sweep as it writes
    print(f"wrote {cfg.row_count} rows to {path}")
    return EXIT_OK


def _cmd_convert(args) -> int:
    from .units import PhysicalParams, convert_units, spacing_for_phase

    spacing = args.x0_nm
    if spacing is None:
        # default to the spacing that puts the first transparency resonance
        spacing = spacing_for_phase(args.mstar, args.energy_mev, math.pi)
    phys = PhysicalParams(
        effective_mass=args.mstar,
        energy_mev=args.energy_mev,
        coupling_ev_angstrom=getattr(args, "coupling_evA"),
        spacing_nm=spacing,
    )
    params = convert_units(phys)
    print(f"u = {format_float(params.u)}")
    print(f"theta = {format_float(params.theta)}")
    print(f"x0_nm = {format_float(spacing)}")
    print(f"x0_nm_for_theta_pi = "
          f"{format_float(spacing_for_phase(args.mstar, args.energy_mev, math.pi))}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help or a usage error
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "verify":
            from .verify import run_verification

            return run_verification()
        if args.command == "convert":
            return _cmd_convert(args)
    except (ConfigError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
