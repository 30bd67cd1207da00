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

Constant columns.  Within one call, a column whose float64 bit patterns
are all equal (so 0.0 beside -0.0 is not constant, and one nan repeated
is) is formatted once and its bytes are copied into every row; only the
other columns' values go through the digit path row by row.  In the sweep
tables these are the amplitudes that conservation of total S_z makes
exactly 0, and u.  The one value of a constant column goes through the same
numpy path, so ``format_float`` still sees only the fallback set.

Layout.  A value's text fills ``_SLOTS`` = 32 byte slots, four int64 words:
word 0 holds the sign, the "0.000" prefix of -4 <= e < 0, the lead digit d0
and the point after it; words 1 and 2 the 16 digits after d0, four at a
time from a table of the ASCII of 0000..9999, masked to NUL past the last
digit printed; word 3 the exponent ("e", its sign, up to three digits) and
the separator in its last slot.  Words 0 and 3 come from tables indexed by
e.  For 1 <= e <= 16 the point follows digit e, so for those values alone
the digit and point slots are permuted.  ``bytes.translate`` removes the
NUL slots.  The steps work in place where numpy is as fast: at most about
nine arrays of 8 bytes per value are alive.  Tables are built on first use.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

import numpy as np

_FLOAT_SPEC = ".17g"

_DIGITS = 17
_SLOTS = 32                      # bytes per value: four int64 words
_DIGIT0 = 6                      # d0's slot; the point after it, then digits 1..16
_LIMIT = 1e280                   # for 1/_LIMIT < |x| < _LIMIT every partial product is normal
_K_MIN, _K_MAX = -270, 300       # 10^k for k = 16 - e, e = floor(log10 |x|) +- 1
_E_MAX = 300                     # the exponent table; the fast path needs |e| <= 281
_TIE = 1e-6
_SPLITTER = 134217729.0          # 2^27 + 1


def _word(text: bytes) -> int:
    """Eight byte slots, the first at the low end, as one int64 value."""
    return int.from_bytes(text.ljust(8, b"\0"), "little", signed=True)


# masks[w, keep]: the slots of word 1 + w that hold digits 1..keep
_MASKS = np.array([[_word(b"\xff" * min(max(keep - 8 * w, 0), 8)) for keep in range(_DIGITS)]
                   for w in (0, 1)], dtype=np.int64)
_NO_POINT = ~_word(b"\0" * 7 + b".")
_COMMA = _word(b"\0" * 7 + b",")
_NEWLINE = _word(b"\0" * 7 + b"\n")
# for 1 <= e <= 16, the source of each slot of d0, the point and digits 1..16:
# digits 1..e move back over the point's slot, and the point (source 18) follows them
_MOVES = np.array([[0, *range(2, e + 2), 18, *range(e + 2, 18)][:18] for e in range(_DIGITS)])


def format_float(value: float) -> str:
    """One value as ``%.17g``; ``format_rows`` gives the same bytes."""
    return format(value, _FLOAT_SPEC)


def _split(a):
    """Dekker's split: the high half of a, which fits in 26 bits, as does a minus it."""
    hi = a * _SPLITTER
    hi -= hi - a
    return hi


@functools.cache
def _powers() -> tuple[np.ndarray, ...]:
    """10^k for _K_MIN <= k <= _K_MAX as hi + lo, with hi's Dekker halves."""
    exact = [Fraction(10) ** k for k in range(_K_MIN, _K_MAX + 1)]
    hi = np.array([float(p) for p in exact])
    lo = np.array([float(p - Fraction(h)) for p, h in zip(exact, hi.tolist())])
    hi_hi = _split(hi)
    return hi, lo, hi_hi, hi - hi_hi


@functools.cache
def _quads() -> np.ndarray:
    """The ASCII of 0000..9999, four bytes in each uint32 entry."""
    text = b"".join(b"%04d" % q for q in range(10_000))
    return np.frombuffer(text, dtype=np.uint32)


@functools.cache
def _ends() -> np.ndarray:
    """``_ends()[k, q]``: the index 4k+1..4k+4 of the last nonzero digit among
    digits 4k+1..4k+4 when they read q, or 0 when q = 0."""
    q = np.arange(10_000)
    rank = 4 - (q % 10 == 0) - (q % 100 == 0) - (q % 1000 == 0)
    return ((4 * np.arange(4)[:, None] + rank) * (q != 0)).astype(np.uint8)


@functools.cache
def _notations() -> tuple[np.ndarray, np.ndarray]:
    """Words 0 and 3 of e = -_E_MAX.._E_MAX at e + _E_MAX: word 0 with a "0" as
    the lead digit, no sign, and the point after it unless fixed notation puts
    the point elsewhere; word 3 with the exponent, if any, and the comma."""
    heads, tails = [], []
    for e in range(-_E_MAX, _E_MAX + 1):
        fixed = -4 <= e < _DIGITS
        prefix = b"0.000"[:1 - e] if fixed and e < 0 else b""
        point = b"." if not fixed or e == 0 else b""
        heads.append(_word(b"\0" + prefix.ljust(5, b"\0") + b"0" + point))
        sign, magnitude = "-+"[e >= 0], abs(e)
        hundreds = chr(ord("0") + magnitude // 100) if magnitude >= 100 else "\0"
        exponent = f"e{sign}{hundreds}{magnitude % 100:02d}".encode("ascii")
        tails.append(_word(b"" if fixed else exponent) | _COMMA)
    return np.array(heads, dtype=np.int64), np.array(tails, dtype=np.int64)


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer part and fraction of a 10^(16 - e), from a double-double product."""
    k = 16 - _K_MIN - e
    hi, lo, hi_hi, hi_lo = _powers()
    p = a * hi.take(k)
    half = _split(a)
    error = half * hi_hi.take(k) - p  # p's rounding error by Dekker's product, in place
    error += half * hi_lo.take(k)
    np.subtract(a, half, out=half)  # a's low half
    error += half * hi_hi.take(k)
    error += half * hi_lo.take(k)
    error += a * lo.take(k)
    whole = np.floor(p)
    p -= whole
    error += p  # the fraction, (p - whole) + error
    del k, half, p
    carry = np.floor(error)
    error -= carry
    return np.add(whole, carry, dtype=np.int64, casting="unsafe"), error


def _significands(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """D and e with |x| = D 10^(e - 16) to 17 digits, and the fallback mask.

    D is in [10^16, 10^17), or 0 for a zero; fallback values get a D of 0.
    """
    a = np.abs(x)
    fast = (a > 1.0 / _LIMIT) & (a < _LIMIT)
    a[~fast] = 1.0
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


def _digits(d: np.ndarray):
    """d0 of each d < 10^17, then its digits 1-4, ..., 13-16; d is used up.  Contiguous
    ``//``, which numpy runs about three times as fast as ``divmod``, ``%`` or strided."""
    for scale in (10**16, 10**12, 10**8, 10**4):
        q = d // scale
        d -= q * scale
        yield q
    yield d


def _words(x: np.ndarray) -> np.ndarray:
    """The text of each value of a 1-D array and a comma, NUL-padded to
    ``_SLOTS`` bytes: an (n, 4) int64 array."""
    heads, tails = _notations()  # built on first use, before the arrays of x's size
    text, ends = _quads(), _ends()
    d, e, fallback = _significands(x)
    digits = _digits(d)
    lead = next(digits)
    quads, last = [], 0  # digits 1-4, ..., 13-16 in ASCII; the index of the last nonzero digit
    for i, q in enumerate(digits):
        quads.append(text.take(q))
        last = np.maximum(last, ends[i].take(q))
    del d, q
    lead <<= 48  # word 0: the "0" in d0's slot becomes the lead digit
    lead |= heads.take(e + _E_MAX) & np.where(last > 0, -1, _NO_POINT)
    lead |= x.view(np.int64) >> 63 & ord("-")

    out = np.empty((x.size, 4), dtype=np.int64)
    out[:, 0] = lead
    for i, ascii in enumerate(quads):  # words 1 and 2, four digits at a time
        out.view(np.uint32)[:, 2 + i] = ascii
    del lead, quads
    out[:, 3] = tails.take(e + _E_MAX)
    inner = (e > 0) & (e < _DIGITS)  # fixed notation with the point after digit e
    keep = e * inner  # the digits before the point stay
    np.maximum(keep, last, out=keep)
    out[:, 1] &= _MASKS[0].take(keep)
    out[:, 2] &= _MASKS[1].take(keep)

    slots = out.view(np.uint8)
    inner = np.flatnonzero(inner)
    if inner.size:  # the point moves from after d0 to after digit e
        span = slice(_DIGIT0, _DIGIT0 + _DIGITS + 1)  # d0, the point, digits 1..16
        point = (last[inner] > e[inner]) * np.uint8(ord("."))
        window = np.concatenate([slots[inner, span], point[:, None]], axis=1)
        slots[inner, span] = np.take_along_axis(window, _MOVES[e[inner]], axis=1)

    for i in np.flatnonzero(fallback):
        text = format_float(float(x[i])).encode("ascii")
        slots[i] = np.frombuffer(text.ljust(_SLOTS - 1, b"\0") + b",", dtype=np.uint8)
    return out


def format_rows(rows: np.ndarray) -> bytes:
    """``",".join(format(v, ".17g") for v in row) + "\\n"`` for every row, as bytes."""
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    if not rows.size:
        return b""
    bits = rows.view(np.uint64)
    varying = (bits != bits[0]).any(axis=0)
    count = np.count_nonzero(varying)
    n = rows.shape[0] * count
    words = _words(np.concatenate([rows[:, varying].ravel(), rows[0, ~varying]]))
    # the last column ends its rows: its value in every row, or its one constant
    ends = words[count - 1:n:count] if varying[-1] else words[-1:]
    ends[:, 3] ^= _COMMA ^ _NEWLINE

    per_row = words[:n].view(np.uint8).reshape(rows.shape[0], -1)
    constant = words[n:].tobytes()
    runs, taken = [], [0, 0]  # bytes of per_row and constant used so far
    for varies, run in itertools.groupby(varying.tolist()):
        start = taken[not varies]
        taken[not varies] += len(list(run)) * _SLOTS
        if varies:
            runs.append(per_row[:, start:taken[0]])
        else:  # a constant run is the same text in every row
            text = constant[start:taken[1]].translate(None, b"\0") * rows.shape[0]
            runs.append(np.frombuffer(text, np.uint8).reshape(rows.shape[0], -1))
    joined = np.concatenate(runs, axis=1)
    del words, ends, per_row, runs  # so that no step holds more than two copies of the text
    joined = joined.tobytes()
    return joined.translate(None, b"\0")
