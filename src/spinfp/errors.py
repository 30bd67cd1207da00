"""Exception types shared across the package, and the one located check."""

import numpy as np


class DomainError(ValueError):
    """Raised when an input lies outside the physically valid domain."""


class NumericError(RuntimeError):
    """Raised when a numerical routine fails an internal consistency check."""


def check(excess, bound, message) -> None:
    """Raise ``NumericError(message(i))`` at the first index i, in C order, where
    ``excess <= bound`` is false, so nan fails; only a failure calls ``message``."""
    ok = np.less_equal(excess, bound)
    if not ok.all():
        raise NumericError(message(np.unravel_index(np.argmin(ok), ok.shape)))
