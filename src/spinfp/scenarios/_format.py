"""Exact ``%.17g`` text for a float64 table, vectorised with numpy.

``format_rows(rows)`` returns, for every row of a 2-D float64 array,
``",".join(format(v, ".17g") for v in row) + "\\n"`` as ASCII bytes, byte for
byte, without a Python formatting call per value.

Significand.  For a finite x with 1e-280 < |x| < 1e280 the estimate
e = floor(log10 |x|) gives y = |x| 10^(16 - e), formed as a double-double:
10^k is a (hi, lo) pair built exactly from ``fractions.Fraction``, and
|x| hi is split error-free by Dekker's product (Numer. Math. 18, 224 (1971);
numpy has no fused multiply-add).  y is then known to about 1e-14, so its
integer part is exact and its fraction good to far better than 1e-6.  The
decade is decided on the truncated value: if floor(y) misses [10^16, 10^17),
e moves by one and y is formed again.  Rounding to nearest gives the 17
digits D; a carry to 10^17 is D = 10^16 at e + 1.

Fallback.  nan, +-inf, |x| <= 1e-280 or >= 1e280 (subnormals included) and
every value whose fraction lies within 1e-6 of 1/2, which covers true ties
such as 2^50 + 0.25, are formatted one by one by ``format_float``, which is
exact by definition.  Zero stays on the fast path ("0", "-0").

Layout.  Every value owns ``_SLOTS`` byte slots, stored slot-major (one
contiguous plane of n bytes per slot): the sign, the "0.000" prefix of
-4 <= e < 0, 17 (digit, point) pairs, "e", the exponent's sign and three
exponent digits, then the separator.  Unused slots hold NUL, which
``bytes.translate`` removes.  Planes are filled by multiplying a byte by a
0/1 condition; the digits come four at a time from a table of the ASCII of
0000..9999 viewed as uint32, and the five exponent slots from a table of
their text viewed as uint64.  The tables are built on first use, not at
import.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np

_FLOAT_SPEC = ".17g"

_DIGITS = 17
_DIGIT0 = 6                      # digit i in slot _DIGIT0 + 2 i, its point after it
_EXP0 = _DIGIT0 + 2 * _DIGITS    # "e", exponent sign, hundreds, tens, ones
_SLOTS = _EXP0 + 6               # ... and the separator
_LIMIT = 1e280                   # for 1/_LIMIT < |x| < _LIMIT every partial product is normal
_K_MIN, _K_MAX = -270, 300       # 10^k for k = 16 - e, e = floor(log10 |x|) +- 1
_E_MAX = 300                     # the exponent table; the fast path needs |e| <= 281
_TIE = 1e-6
_SPLITTER = 134217729.0          # 2^27 + 1

_INDEX = np.arange(_DIGITS)[:, None]
_RANK = np.arange(1, _DIGITS + 1, dtype=np.uint8)[:, None]
_PREFIX = np.frombuffer(b"0.000", dtype=np.uint8)[:, None]


def format_float(value: float) -> str:
    """One value as ``%.17g``; ``format_rows`` gives the same bytes."""
    return format(value, _FLOAT_SPEC)


def _split(a):
    """Dekker's split: a = hi + lo, each half fits in 26 bits."""
    c = a * _SPLITTER
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _powers() -> tuple[np.ndarray, ...]:
    """10^k for _K_MIN <= k <= _K_MAX as hi + lo, with hi's Dekker halves."""
    exact = [Fraction(10) ** k for k in range(_K_MIN, _K_MAX + 1)]
    hi = np.array([float(p) for p in exact])
    lo = np.array([float(p - Fraction(h)) for p, h in zip(exact, hi.tolist())])
    return (hi, lo, *_split(hi))


@functools.cache
def _quads() -> np.ndarray:
    """The ASCII of 0000..9999, four bytes per uint32 entry."""
    text = b"".join(b"%04d" % q for q in range(10_000))
    return np.frombuffer(text, dtype=np.uint32)


@functools.cache
def _exponents() -> np.ndarray:
    """The exponent slots of e = -_E_MAX.._E_MAX at e + _E_MAX + 1, NUL-padded
    to eight bytes per uint64 entry; entry 0 is all NUL."""
    text = [bytes(8)]
    for e in range(-_E_MAX, _E_MAX + 1):
        sign, magnitude = "-+"[e >= 0], abs(e)
        hundreds = chr(ord("0") + magnitude // 100) if magnitude >= 100 else "\0"
        text.append(f"e{sign}{hundreds}{magnitude % 100:02d}\0\0\0".encode("ascii"))
    return np.frombuffer(b"".join(text), dtype=np.uint64)


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer part and fraction of a 10^(16 - e), from a double-double product."""
    k = 16 - _K_MIN - e
    hi, lo, hi_hi, hi_lo = (table[k] for table in _powers())
    p = a * hi
    a_hi, a_lo = _split(a)
    error = ((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo
    whole = np.floor(p)
    rest = (p - whole) + (error + a * lo)
    carry = np.floor(rest)
    return whole.astype(np.int64) + carry.astype(np.int64), rest - carry


def _significands(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """D and e with |x| = D 10^(e - 16) to 17 digits, and the fallback mask.

    D is in [10^16, 10^17), or 0 for a zero; fallback values get a D of 0.
    """
    a = np.abs(x)
    fast = (a > 1.0 / _LIMIT) & (a < _LIMIT)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    d, fraction = _scaled(a, e)
    missed = (d >= 10**_DIGITS).astype(np.int64) - (d < 10 ** (_DIGITS - 1))
    if missed.any():  # log10 was one decade off
        redo = np.flatnonzero(missed)
        e[redo] += missed[redo]
        d[redo], fraction[redo] = _scaled(a[redo], e[redo])
    d += fraction > 0.5
    carry = d == 10**_DIGITS
    d -= carry * (9 * 10 ** (_DIGITS - 1))
    e += carry
    fallback = (
        (x != 0) & ~fast
        | (np.abs(fraction - 0.5) < _TIE)
        | (d < 10 ** (_DIGITS - 1))  # a decade missed twice: not seen, but
        | (d >= 10**_DIGITS)         # the fallback keeps the output exact
    )
    keep = fast & ~fallback
    return d * keep, e * keep, fallback


def format_rows(rows: np.ndarray) -> bytes:
    """``",".join(format(v, ".17g") for v in row) + "\\n"`` for every row, as bytes."""
    rows = np.asarray(rows, dtype=np.float64)
    x = rows.ravel()
    n = x.size
    d, e, fallback = _significands(x)
    out = np.empty((_SLOTS, n), dtype=np.uint8)

    digits = out[_DIGIT0:_EXP0:2]
    lead, rest = np.divmod(d, 10 ** (_DIGITS - 1))
    digits[0] = lead + ord("0")
    quads = _quads()
    for start in range(1, _DIGITS, 4):
        quad, rest = np.divmod(rest, 10 ** (_DIGITS - 4 - start))
        digits[start:start + 4] = quads[quad].view(np.uint8).reshape(n, 4).T
    last = (digits != ord("0")) * _RANK
    last = last.max(axis=0, initial=0).astype(np.int64) - 1  # -1 for a zero

    fixed = (e >= -4) & (e < _DIGITS)
    point = fixed * np.maximum(e, -1)  # digit the point follows; -1: "0." prefix
    np.multiply(digits, _INDEX <= np.maximum(last, point), out=digits)
    dot = (last > point) * np.uint8(ord("."))
    np.multiply(_INDEX == point, dot, out=out[_DIGIT0 + 1:_EXP0:2])

    out[0] = np.signbit(x) * np.uint8(ord("-"))
    np.multiply(_INDEX[:5] < fixed * (e < 0) * (1 - e), _PREFIX, out=out[1:_DIGIT0])

    exponents = _exponents()[~fixed * (e + _E_MAX + 1)]  # row 0 for fixed notation
    out[_EXP0:-1] = exponents.view(np.uint8).reshape(n, 8)[:, :5].T

    separators = np.full(rows.shape[-1:], ord(","), dtype=np.uint8)
    separators[-1:] = ord("\n")
    out[-1].reshape(rows.shape)[:] = separators

    for i in np.flatnonzero(fallback):
        text = np.frombuffer(format_float(float(x[i])).encode("ascii"), dtype=np.uint8)
        out[:-1, i] = 0
        out[:len(text), i] = text
    return out.T.tobytes().translate(None, b"\0")
