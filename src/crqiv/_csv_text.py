"""The body text of ``save_csv``, built a chunk of records at a time in numpy.

Each follow-up time is written as ``repr(float(y))``, the shortest decimal
that reads back as y (Gay 1990; Adams 2018, "Ryū"), but without one Python
call per record.  For 1e-4 <= y < 2**53, where ``repr`` writes y without an
exponent, the digits are found with array arithmetic: y = c / 10**k for the
smallest k at which the integer c nearest y * 10**k reads back as y, that
is |c - y * 10**k| < ulp(y) / 2 * 10**k.  y * 10**k is taken exactly as
hi + lo by Dekker's product (10**k is an exact double up to k = 22).  Any
value that test cannot settle keeps ``repr``: zeros, subnormals, values
outside that range, powers of two (the gap below one is half as wide, so
the nearest c need not be the one that reads back), a tie in rounding
y * 10**k, and a c exactly half an ulp away.  So the text is
byte-identical to ``repr``'s.

The digits go in fixed columns, four at a time through a table of the
10,000 four-digit groups: the chunk's widest integer part right-aligned,
then '.', then its longest fraction left-aligned (two int64 limbs of at
most 10 digits).  Each record's csv tail (event, treatment, instrument,
line end) follows in fixed columns too.  A record's used columns come
from two small tables, one indexed by its digit counts and one by its
tail, and one boolean compress of the chunk gives its bytes.

``save_csv`` imports this module when it is called, so commands that only
read data never compile it.
"""

from __future__ import annotations

import numpy as np

__all__: list = []

_LOW, _HIGH = 1e-4, 2.0**53  # repr's positional range, cut at the doubles that are all integers above
# 10**k as exact doubles for the digit search and as int64 for the text
_POW10 = np.array([float(10**k) for k in range(23)])
_IPOW10 = np.array([10**k for k in range(19)], dtype=np.int64)
# Veltkamp's split of a double into two halves of 26 bits, whose products are exact
_SPLIT = float(2**27 + 1)
_MANTISSA = (1 << 52) - 1
# "0000", "0001", .. "9999" as little-endian 4-byte words
_QUADS = np.frombuffer(b"".join(b"%04d" % i for i in range(10_000)), dtype="<u4")


def _split(a):
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _nearest(y: np.ndarray, half_ulp: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c, state): c the integer nearest y * 10**k; state 1 where c reads back as y, 0 where not, -1 where unsettled."""
    p = _POW10[k]
    hi = y * p
    yh, yl = _split(y)
    ph, pl = _POW10_HI[k], _POW10_LO[k]
    lo = yh * ph - hi  # Dekker's product: y * p = hi + lo exactly
    lo += yh * pl
    lo += yl * ph
    lo += yl * pl
    del yh, yl, ph, pl
    c = np.rint(hi)
    hi -= c
    whole = np.rint(lo)  # nonzero only from hi = 2**53 on, where hi is an even integer
    lo -= whole
    c = c.astype(np.int64)
    c += whole.astype(np.int64)
    # where hi ended in .5 (below 2**52, so whole = 0) lo says which neighbour is nearer
    step = (2 * hi) * ((np.abs(hi) == 0.5) & (hi * lo > 0))
    c += step.astype(np.int64)
    hi -= step
    # |c - y * p| and the bound are whole multiples of min(1, ulp(y) * 2**k / 2): unequal, they differ
    # by far more than dist's one rounding (2**-53 of it), so the comparisons below are exact
    hi += lo
    dist = np.abs(hi, out=hi)
    bound = half_ulp * p
    state = (dist < bound).astype(np.int8)
    # half an ulp away, c reads back only where y's last bit is even; and at a tie in rounding y * p,
    # its two neighbours are as near, so only a failing one is settled
    state[(dist == bound) | ((dist == 0.5) & (state == 1))] = -1
    return c, state


def shortest(y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(c, k, ok): where ok, repr(y) is the decimal c / 10**k written without an exponent.

    k is the fewest fraction digits that read back as y; where not ok the
    text is left to ``repr``.
    """
    y = np.ascontiguousarray(y, dtype=np.float64)
    ok = (y >= _LOW) & (y < _HIGH) & ((y.view(np.int64) & _MANTISSA) != 0)
    at = np.flatnonzero(ok)
    v = y[at]
    half_ulp = np.spacing(v) / 2
    # start at 16 significant digits (17 always read back); should log10 round v up to the
    # next power of ten, the start is a digit short, and a value that needs 17 falls to repr
    e = np.floor(np.log10(v)).astype(np.intp)
    k = 15 - e
    c, state = _nearest(v, half_ulp, k)
    longer = np.flatnonzero(state == 0)
    c_up, state_up = _nearest(v[longer], half_ulp[longer], k[longer] + 1)
    c[longer], k[longer], state[longer] = c_up, k[longer] + 1, state_up
    good = state == 1
    # where 16 digits read back, fewer may: drop one while the shorter one reads back too
    down = np.flatnonzero(good & (k > 0))
    down = down[k[down] == 15 - e[down]]
    while down.size:
        # a trailing zero goes untested: c / 10 is the integer nearest one digit down, and as near
        zero = down
        while (zero := zero[(c[zero] % 10 == 0) & (k[zero] > 0)]).size:
            c[zero] //= 10
            k[zero] -= 1
        down = down[k[down] > 0]
        c_dn, state_dn = _nearest(v[down], half_ulp[down], k[down] - 1)
        good[down[state_dn == -1]] = False
        down = down[state_dn == 1]
        c[down] = c_dn[state_dn == 1]
        k[down] -= 1
        down = down[k[down] > 0]
    ok[at] = good
    c_all = np.zeros(y.shape, np.int64)
    k_all = np.zeros(y.shape, np.intp)
    c_all[at], k_all[at] = c, k
    return c_all, k_all, ok


def _digits(x: np.ndarray, width: int) -> np.ndarray:
    """(n, width) uint8: the last width decimal digits of x >= 0, zero-padded."""
    groups = -(-width // 4)
    out = np.empty((x.size, groups), dtype="<u4")
    for j in range(groups - 1, -1, -1):
        x, r = np.divmod(x, 10_000)
        out[:, j] = _QUADS[r]
    return out.view(np.uint8)[:, 4 * groups - width:]


class Rows:
    """The csv text of records: each time as repr writes it, then one of the given tails."""

    def __init__(self, tails: list[str]):
        raw = [t.encode("utf-8") for t in tails]
        width = max(map(len, raw))
        self.tail_bytes = np.frombuffer(b"".join(t.ljust(width, b"\0") for t in raw), np.uint8).reshape(-1, width)
        self.tail_used = np.arange(width) < np.array([len(t) for t in raw])[:, None]

    def text(self, y: np.ndarray, key: np.ndarray) -> np.ndarray:
        """uint8: the records with times y and tails key, one after another."""
        c, k, ok = shortest(y)
        scale = _IPOW10[np.minimum(k, 18)]
        whole = c // scale
        frac = c - whole * scale
        del c, scale
        digits = 1 + np.searchsorted(_IPOW10[1:17], whole, side="right")
        k = np.maximum(k, 1)  # a whole number is written with ".0"
        # the chunk's columns: its widest integer part, '.', its longest fraction, left-aligned in limbs of 10
        iw, fw = int(digits.max()), int(k.max())
        lead = min(fw, 10)
        over = np.clip(k - lead, 0, None)
        head = frac // _IPOW10[over]
        rest = (frac - head * _IPOW10[over]) * _IPOW10[fw - lead - over]
        head *= _IPOW10[np.clip(lead - k, 0, None)]
        del frac, over
        slow = np.flatnonzero(~ok)
        texts = [repr(t).encode("ascii") for t in y[slow].tolist()]
        tw = max([iw + 1 + fw, *map(len, texts)])

        buf = np.empty((y.size, tw + self.tail_bytes.shape[1]), np.uint8)
        buf[:, :iw] = _digits(whole, iw)
        buf[:, iw] = ord(".")
        buf[:, iw + 1:iw + 1 + lead] = _digits(head, lead)
        buf[:, iw + 1 + lead:iw + 1 + fw] = _digits(rest, fw - lead)
        buf[:, tw:] = self.tail_bytes[key]
        del whole, head, rest
        # the time columns used with i integer digits and f fraction digits, at row i * (fw + 1) + f
        col = np.arange(tw)
        used_time = (col >= iw - np.arange(iw + 1)[:, None, None]) & (col < iw + 1 + np.arange(fw + 1)[:, None])
        used = np.empty(buf.shape, bool)
        used[:, :tw] = used_time.reshape(-1, tw)[digits * (fw + 1) + k]
        used[:, tw:] = self.tail_used[key]
        if texts:
            width = max(map(len, texts))
            buf[slow, :width] = np.frombuffer(b"".join(t.ljust(width, b"\0") for t in texts), np.uint8).reshape(-1, width)
            used[slow, :tw] = col < np.array([len(t) for t in texts])[:, None]
        return buf[used]
