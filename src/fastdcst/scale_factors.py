"""Scale-factor recurrence and fused twiddle-scale constant tables.

The rescaled split-radix kernels divide every sub-transform output by a
positive constant ``scale(N, k)``.  The payoff is that each twiddle
factor fuses with a ratio of scale factors into a constant whose real or
imaginary part is exactly +-1, so one complex product costs 2 real
multiplications instead of 4.

All trigonometry happens here, once, at table-build time, with arguments
reduced to [0, pi/4] before calling cos/sin; the transform kernels never
evaluate a trigonometric function.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .flops import checked_log2

__all__ = ["scale", "t_factor", "build_tables", "ScaleTables", "unit_root"]

_QUARTER_PI = 0.25 * math.pi

# normalization keys shared with the dct2 module (strings to avoid an
# import cycle; dct2.Normalization maps onto these)
NORM_TWO_SIDED = "two-sided"
NORM_UNITARY = "unitary"
NORM_UNITARY_SQRT_N = "unitary-sqrtn"


def _cos2pi(j, n):
    # cos(2*pi*j/n) for integer 0 <= j <= n/4, argument folded to [0, pi/4]
    if 8 * j <= n:
        return math.cos(2.0 * math.pi * j / n)
    return math.sin(2.0 * math.pi * (n // 4 - j) / n)


def _sin2pi(j, n):
    # sin(2*pi*j/n) for integer 0 <= j <= n/4
    if 8 * j <= n:
        return math.sin(2.0 * math.pi * j / n)
    return math.cos(2.0 * math.pi * (n // 4 - j) / n)


def unit_root(j: int, n: int) -> complex:
    """exp(-2*pi*i*j/n) with the argument reduced to one octant.

    Works for any n >= 1 (the reference transforms are not restricted to
    powers of two); accuracy is about one ulp per component.
    """
    if n < 1:
        raise ValueError("n must be positive")
    j %= n
    octant, rem = divmod(8 * j, n)
    a = _QUARTER_PI * rem / n
    b = _QUARTER_PI * (n - rem) / n  # pi/4 - a, computed from exact integers
    ca, sa = math.cos(a), math.sin(a)
    cb, sb = math.cos(b), math.sin(b)
    c, s = (
        (ca, sa),
        (sb, cb),
        (-sa, ca),
        (-cb, sb),
        (-ca, -sa),
        (-sb, -cb),
        (sa, -ca),
        (cb, -sb),
    )[octant]
    return complex(c, -s)


def scale(n: int, k: int) -> float:
    """Scale factor for bin ``k`` of a size-``n`` rescaled transform.

    Defined by a quarter-periodic recurrence: 1 for n <= 4, otherwise
    ``scale(n/4, k4) * cos(2*pi*k4/n)`` when ``k4 <= n/8`` and the sine
    analogue above, where ``k4 = k mod n/4``.  Always in (0, 1].
    """
    checked_log2(n, lowest=1)
    if not 0 <= k < max(n, 1):
        raise ValueError(f"bin index {k} out of range for size {n}")
    return _scale(n, k)


def _scale(n, k):
    if n <= 4:
        return 1.0
    q = n >> 2
    k4 = k % q
    if 8 * k4 <= n:
        return _scale(q, k4) * _cos2pi(k4, n)
    return _scale(q, k4) * _sin2pi(k4, n)


def t_factor(n: int, k: int) -> complex:
    """Fused twiddle-scale constant for bin ``k`` at size ``n``.

    Equals ``unit_root(k, n) * scale(n/4, k) / scale(n, k)`` and always
    has the form ``1 - i*tan(2*pi*k/n)`` or ``cot(2*pi*k/n) - i``: one
    component is exactly unit magnitude, so multiplying by it costs two
    real multiplications and two real additions.
    """
    checked_log2(n, lowest=4)
    if not 0 <= k < n // 4:
        raise ValueError(f"t-factor index {k} out of range for size {n}")
    ratio = _scale(n >> 2, k) / _scale(n, k)
    return complex(_cos2pi(k, n) * ratio, -_sin2pi(k, n) * ratio)


class TableError(ValueError):
    """A precomputed constant failed its build-time self check."""


class ScaleTables:
    """Every constant the rescaled kernels need, precomputed eagerly.

    Materializes all recursion levels for a root size ``n`` (scale values
    up to size ``4n``), the fused t-factors, the folded scale ratios used
    by the four mutually recursive kernel variants, and the DCT output
    stage constants.  Instances are immutable after construction and safe
    to share between threads.
    """

    def __init__(self, size: int):
        checked_log2(size, lowest=1)
        self.size = size
        self._s: dict[int, list[float]] = {}
        for m in _levels(8, 4 * size):
            q = m >> 2
            row = [None] * q
            for k in range(q):
                if 8 * k <= m:
                    row[k] = self.s(q, k) * _cos2pi(k, m)
                else:
                    row[k] = self.s(q, k) * _sin2pi(k, m)
            self._s[m] = row

        self._tstruct: dict[int, list[tuple]] = {}
        for m in _levels(4, 4 * size if size >= 2 else 0):
            q = m >> 2
            ts = [None] * q
            for k in range(q):
                ratio = self.s(q, k) / self.s(m, k)
                t = complex(_cos2pi(k, m) * ratio, -_sin2pi(k, m) * ratio)
                if min(abs(abs(t.real) - 1.0), abs(abs(t.imag) - 1.0)) > 1e-12:
                    raise TableError(f"t({m},{k}) = {t} has no unit component")
                ts[k] = _t_structs(t)
            self._tstruct[m] = ts

        # folded ratios: divisions happen here, never at transform time
        self._r2a: dict[int, list[float]] = {}
        self._r2b: dict[int, list[float]] = {}
        self._r4: dict[int, list[list[float]]] = {}
        for m in _levels(4, size):
            q = m >> 2
            self._r2a[m] = [self.s(m, k) / self.s(2 * m, k) for k in range(q)]
            self._r2b[m] = [self.s(m, k) / self.s(2 * m, k + q) for k in range(q)]
            self._r4[m] = [
                [self.s(m, k) / self.s(4 * m, k + j * q) for k in range(q)]
                for j in range(4)
            ]

        self.inv_s8_1 = 1.0 / self.s(8, 1) if size >= 2 else None

        # DCT-II output stage: twiddle_dct[k] = 2 * unit_root(k, 4n) * s(n, k)
        h = size // 2
        self.twiddle_dct: list[complex] = [
            2.0 * unit_root(k, 4 * size) * self.s(size, k) for k in range(h)
        ] if size >= 2 else []
        self._stage = dct_stage(size, self.twiddle_dct)

        # scaled-output DCT-II: stage constants become t(4n, k) = 1 - i*tan,
        # stored as (True, 1.0, -tan), and every output k carries the known
        # diagonal 2*s(4n, k)
        if size >= 2:
            self.scaled_stage_tan = [0.0] + [
                -self._tstruct[4 * size][k][0][2] for k in range(1, h)
            ]
            self.dct_scales = [2.0 * self.s(4 * size, k) for k in range(size)]
        else:
            self.scaled_stage_tan = []
            self.dct_scales = [2.0 * self.s(4, 0)]

        self.validate()

    def supports(self, n: int) -> bool:
        return n <= self.size

    def s(self, m: int, k: int) -> float:
        if m <= 4:
            return 1.0
        return self._s[m][k % (m >> 2)]

    def t_struct(self, m: int, k: int) -> tuple:
        return self._tstruct[m][k]

    def ratio2a(self, m: int, k: int) -> float:
        return self._r2a[m][k]

    def ratio2b(self, m: int, k: int) -> float:
        return self._r2b[m][k]

    def ratio4(self, m: int, j: int, k: int) -> float:
        return self._r4[m][j][k]

    def dct_stage(self, norm_key: str):
        return self._stage[norm_key]

    def validate(self) -> None:
        """Numerically check the symmetry identities the folded tables rely on.

        The kernels share one ratio between output lines whose definitional
        denominators differ (e.g. s(2m, m/4 - k) vs s(2m, k + m/4)); those
        foldings are only sound if the mirror/periodicity identities hold,
        so they are verified here before any transform trusts the tables.
        """
        for m in _levels(4, self.size):
            q = m >> 2
            for k in range(q):
                lhs = self.s(2 * m, q - k)
                rhs = self.s(2 * m, k + q)
                _close(lhs, rhs, f"s({2*m},{q-k}) vs s({2*m},{k+q})")
                _close(
                    self.s(4 * m, q - k),
                    self.s(4 * m, k + 3 * q),
                    f"s({4*m},{q-k}) vs s({4*m},{k+3*q})",
                )
                _close(
                    self.s(4 * m, 2 * q - k),
                    self.s(4 * m, k + 2 * q),
                    f"s({4*m},{2*q-k}) vs s({4*m},{k+2*q})",
                )
                if 0 < k < q and k != m // 8:
                    # generically weighted slots must stay non-trivial or the
                    # structural flop counts would silently drift.  Only
                    # weights of exactly +-1 are free there and a zero drops
                    # a term, so exactly those are trivial: a tolerance
                    # would reject ratio4(m, ...), which nears 1 like 1/m^2
                    for name, v in (
                        (f"ratio2a({m},{k})", self._r2a[m][k]),
                        (f"ratio2b({m},{k})", self._r2b[m][k]),
                        (f"ratio4({m},0,{k})", self._r4[m][0][k]),
                        (f"ratio4({m},1,{k})", self._r4[m][1][k]),
                        (f"ratio4({m},2,{k})", self._r4[m][2][k]),
                        (f"ratio4({m},3,{k})", self._r4[m][3][k]),
                    ):
                        if v == 0.0 or v == 1.0 or v == -1.0:
                            raise TableError(f"{name} = {v} is trivial")

    def __repr__(self):
        return f"ScaleTables(size={self.size})"


def dct_stage(size: int, twiddles) -> dict:
    """DCT-II output-stage constants ``{norm_key: (c0, cN/2, pairs)}``.

    ``pairs[k]`` is ``twiddles[k]`` as (re, im) times the normalization's
    factor.  The factors ``sqrt(2/size)/2`` and ``sqrt(0.5)`` are ``sqrt(2/size)``
    and ``sqrt(2)`` over a power of two, so on ``2*unit_root`` twiddles the
    products round exactly like those factors times the unit root.
    """
    pairs = [(c.real, c.imag) for c in twiddles]
    u = math.sqrt(2.0 / size) / 2.0
    r = math.sqrt(0.5)
    c0 = 1.0 / math.sqrt(size)
    return {
        NORM_TWO_SIDED: (2.0, math.sqrt(2.0), pairs),
        NORM_UNITARY: (c0, c0, [(a * u, b * u) for a, b in pairs]),
        NORM_UNITARY_SQRT_N: (None, None, [(a * r, b * r) for a, b in pairs]),
    }


def _close(a, b, what, tol=1e-13):
    if abs(a - b) > tol * max(abs(a), abs(b), 1.0):
        raise TableError(f"identity violated: {what}: {a!r} != {b!r}")


def _t_structs(t: complex) -> tuple:
    # (unit_re, sign, coef) for t and for conj(t):
    #   unit_re:  t = sign * (1 + i*coef)
    #   else:     t = sign * (coef + i)
    if abs(abs(t.real) - 1.0) <= abs(abs(t.imag) - 1.0):
        sign = 1.0 if t.real > 0 else -1.0
        coef = t.imag * sign
        return (True, sign, coef), (True, sign, -coef)
    sign = 1.0 if t.imag > 0 else -1.0
    coef = t.real * sign
    return (False, sign, coef), (False, -sign, -coef)


def _levels(lo, hi):
    m = lo
    while m <= hi:
        yield m
        m <<= 1


# sizes the table and transposed-network caches keep (least recently used go)
CACHED_SIZES = 8
_cached_tables = lru_cache(maxsize=CACHED_SIZES)(ScaleTables)


def build_tables(n: int) -> ScaleTables:
    """Build (or fetch the cached) constant tables for root size ``n``.

    Eagerly materializes every recursion level so transform calls do no
    trigonometric work and no allocation beyond their own buffers.  The
    last :data:`CACHED_SIZES` sizes used are kept.
    """
    checked_log2(n, lowest=1)
    return _cached_tables(n)
