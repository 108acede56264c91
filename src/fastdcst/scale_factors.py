"""Scale-factor recurrence and fused twiddle-scale constant tables.

The rescaled split-radix kernels divide every sub-transform output by a
positive constant ``scale(N, k)``.  The payoff is that each twiddle
factor fuses with a ratio of scale factors into a constant whose real or
imaginary part is exactly +-1, so one complex product costs 2 real
multiplications instead of 4.

All trigonometry happens here, once, at table-build time, with arguments
reduced to [0, pi/4] before calling cos/sin; the transform kernels never
evaluate a trigonometric function.  :class:`ScaleTables` calls them for
one row, that of the top level, and takes every lower level's twiddles
and the DCT output stage's as strided slices of it; the recurrence, the
ratios and the checks then run as numpy elementwise operations on the
same operands in the same order, so every entry is bitwise that of the
scalar definitions :func:`scale`, :func:`t_factor` and :func:`unit_root`.
Each level's constants are kept once, as float64 arrays, which the row
kernels read in place; the scalar kernels index the same level as lists
of Python floats, made from its arrays on the level's first scalar call.
Each t-factor is kept as one real number, its coef: t = 1 + i*coef for
k <= m/8 and -(coef + i) above, a form the build checks.  The kernels read
t-factors at levels up to the root size only, so the levels above it are
checked but not kept.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

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


class _Level(NamedTuple):
    """The constants of level ``m`` as float64 arrays over k < m/4: the
    scale row at every level, the rest at the levels the kernels read (4 ..
    the root size) only, None above them."""

    s: np.ndarray  # scale(m, k)
    ratio2a: np.ndarray | None  # s(m, k) / s(2m, k)
    ratio2b: np.ndarray | None  # s(m, k) / s(2m, k + m/4)
    ratio4: np.ndarray | None  # s(m, k) / s(4m, k + j*m/4), one row per j
    coef: np.ndarray | None  # t(m, k) = 1 + i*coef for k <= m/8, else -(coef + i)


class ScaleTables:
    """Every constant the rescaled kernels need, precomputed eagerly.

    Materializes all recursion levels for a root size ``n`` (scale values
    up to size ``4n``), the fused t-factors of the levels the kernels read
    (4 .. ``n``; those up to ``4n`` are checked too), the folded scale
    ratios used by the four mutually recursive kernel variants, and the
    DCT output stage constants, taken from the same trig row.  Each
    level's constants are kept once, as float64 arrays (:meth:`level`),
    which the row kernels of :mod:`fastdcst.fft_real` read in place.  The
    scalar kernels take the same level once per sub-transform as lists of
    Python floats (:meth:`scalars`), which a level's first such call makes
    from its arrays and publishes whole, once.
    The constants are immutable after construction.  The one mutable part
    is ``plans``: per kernel configuration, a call count and then the
    recorded whole-kernel network at sizes up to ``dct2.PLAN_MAX_SIZE``
    (see :func:`fastdcst.dct2._unplanned`), or above it, up to
    ``dct2.NET_MAX_SIZE``, a mark of a kernel's first call; the rescaled
    real DFT of this size as a network, which the forward kernels run from
    their second call above ``dct2.PLAN_MAX_SIZE`` on (see
    :func:`fastdcst.dct2._spectrum_net`), and, on a set other than the
    cached one, its transpose (:func:`fastdcst.trig_family._transposed_net`).
    All are recorded from these constants.  Instances are safe to share
    between threads: a race at most records the same network twice and
    never publishes a half-built one.
    """

    def __init__(self, size: int):
        checked_log2(size, lowest=1)
        self.size = size
        self.plans: dict = {}
        top = 4 * size
        # every level's twiddles are strided slices of the top level's:
        # _cos2pi(k, m) == _cos2pi(k*r, m*r) bit for bit for a power of two
        # r, as 2*pi*k*r/(m*r) rounds exactly like 2*pi*k/m (sines alike)
        cos, sin = _trig_row(top)
        rows = {}  # level m -> s(m, k) for k < m/4
        re, im, low = [], [], []  # t(m, k) for k < m/4 and k <= m/8, level after level
        for m in _levels(4, top):
            q = m >> 2
            r = top // m
            sq = np.tile(rows[q], 4) if q > 4 else 1.0
            low.append(8 * np.arange(q) <= m)
            rows[m] = sq * np.where(low[-1], cos[::r], sin[::r])
            ratio = sq / rows[m]
            re.append(cos[::r] * ratio)
            im.append(-sin[::r] * ratio)
        # level m's t-factors start at m/4 - 1 in the concatenation
        coef = _t_coef(np.concatenate(re), np.concatenate(im), np.concatenate(low))
        # the kernels read those of levels 4 .. size, the first size/2 - 1
        kept = coef[:(size >> 1) - 1].copy()

        self._arrays: dict[int, _Level] = {}
        for m in _levels(4, top):
            q = m >> 2
            if m > size:
                self._arrays[m] = _Level(rows[m], None, None, None, None)
                continue
            # folded ratios: divisions happen here, never at transform time
            sm = rows[m]
            self._arrays[m] = _Level(sm, sm / rows[2 * m][:q], sm / rows[2 * m][q:],
                                     sm / rows[4 * m].reshape(4, q), kept[q - 1:2 * q - 1])
        # the levels as scalars() gives them, each made on its first call
        self._scalars: dict[int, _Level] = {}

        self.inv_s8_1 = 1.0 / float(rows[8][1]) if size >= 2 else None

        # DCT-II output stage 2 * unit_root(k, 4n) * s(n, k): for k < n/2
        # unit_root(k, 4n) stays in the first octant, where its argument is
        # the top row's 2*pi*k/(4n) bit for bit
        h = size // 2
        s_row = np.tile(rows[size], 2) if size > 4 else 1.0
        self._stage = dct_stage(size, 2.0 * (cos[:h] - 1j * sin[:h]) * s_row)

        # scaled-output DCT-II: stage constants become t(4n, k) = 1 - i*tan,
        # the coefs of level 4n, which come last, and every output k carries
        # the known diagonal 2*s(4n, k), kept as the list that each output
        # copies: a tolist() per call would make N floats each time
        self.scaled_stage_tan = np.concatenate(([0.0], -coef[(top >> 2) - 1:][1:h]))
        self.dct_scales = (2.0 * rows[top]).tolist()

        self.validate()

    def supports(self, n: int) -> bool:
        return n <= self.size

    def level(self, m: int) -> _Level:
        """The constants of level ``m`` (a power of two, 4 .. 4n) as float64
        arrays, read in place; :meth:`scalars` gives the same values."""
        return self._arrays[m]

    def scalars(self, m: int) -> _Level:
        """:meth:`level` ``m`` with each array as a list of Python floats
        (``ratio4`` one list per j), which the scalar kernels index.  Made
        on the level's first call and published whole with one
        ``setdefault``, so threads that race on a level all get the one
        that is stored first."""
        try:
            return self._scalars[m]
        except KeyError:
            lv = _Level(*(None if a is None else a.tolist() for a in self._arrays[m]))
            return self._scalars.setdefault(m, lv)

    def dct_stage(self, norm_key: str):
        return self._stage[norm_key]

    def validate(self) -> None:
        """Numerically check the symmetry identities the folded tables rely on.

        The kernels share one ratio between output lines whose definitional
        denominators differ (e.g. s(2m, m/4 - k) vs s(2m, k + m/4)); those
        foldings are only sound if the mirror/periodicity identities hold,
        so they are verified here before any transform trusts the tables.
        Each level is checked in one pass, elementwise, on its arrays, and
        the first failure in the order of (m, k, check) is reported.
        """
        for m in _levels(4, self.size):
            q = m >> 2
            lv, s2, s4 = self._arrays[m], self._arrays[2 * m].s, self._arrays[4 * m].s
            # identity c compares s(mm, a - k) with s(mm, b + k), for
            # (mm, a, b) = pairs[c], both within the stored quarter period
            pairs = ((2 * m, q, q), (4 * m, q, 3 * q), (4 * m, 2 * q, 2 * q))
            lhs = np.array([s2[q:0:-1], s4[q:0:-1], s4[2 * q:q:-1]])
            rhs = np.array([s2[q:], s4[3 * q:], s4[2 * q:3 * q]])
            bad = _far(lhs, rhs)
            # generically weighted slots must stay non-trivial or the structural
            # flop counts would silently drift.  Only weights of exactly +-1 are
            # free there and a zero drops a term, so exactly those are trivial: a
            # tolerance would reject ratio4(m, ...), which nears 1 like 1/m^2
            k = np.arange(q)
            w = np.array([lv.ratio2a, lv.ratio2b, *lv.ratio4])
            trivial = ((k > 0) & (k != m // 8)) & ((w == 0.0) | (np.abs(w) == 1.0))
            bad = np.concatenate((bad, trivial))
            if not bad.any():
                continue
            k, c = divmod(int(bad.T.argmax()), len(bad))
            if c < 3:
                mm, a, b = pairs[c]
                raise TableError(f"identity violated: s({mm},{a - k}) vs s({mm},{b + k}): "
                                 f"{float(lhs[c, k])!r} != {float(rhs[c, k])!r}")
            name = f"ratio4({m},{c - 5}," if c >= 5 else f"ratio2{'ab'[c - 3]}({m},"
            raise TableError(f"{name}{k}) = {float(w[c - 3, k])} is trivial")

    def __repr__(self):
        return f"ScaleTables(size={self.size})"


def dct_stage(size: int, twiddles) -> dict:
    """DCT-II output-stage constants ``{norm_key: (c0, cN/2, re, im)}``.

    ``re[k]`` and ``im[k]`` are the parts of ``twiddles[k]`` times the
    normalization's factor, as float64 arrays.  The factors
    ``sqrt(2/size)/2`` and ``sqrt(0.5)`` are ``sqrt(2/size)`` and
    ``sqrt(2)`` over a power of two, so on ``2*unit_root`` twiddles the
    products round exactly like those factors times the unit root.
    """
    tw = np.asarray(twiddles, dtype=complex)
    re, im = tw.real.copy(), tw.imag.copy()
    u = math.sqrt(2.0 / size) / 2.0
    r = math.sqrt(0.5)
    c0 = 1.0 / math.sqrt(size)
    return {
        NORM_TWO_SIDED: (2.0, math.sqrt(2.0), re, im),
        NORM_UNITARY: (c0, c0, re * u, im * u),
        NORM_UNITARY_SQRT_N: (None, None, re * r, im * r),
    }


def _far(a, b, tol=1e-13):
    # where a and b differ by more than the identity checks allow
    return np.abs(a - b) > tol * np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)


def _trig_row(n):
    # _cos2pi(j, n) and _sin2pi(j, n) for j < n/4 as float64 arrays, by
    # math.cos/math.sin on the same arguments: an argument 2*pi*j/n above
    # the octant is folded to 2*pi*(n/4 - j)/n, the argument of bin n/4 - j
    if n < 8:
        return np.ones(n >> 2), np.zeros(n >> 2)
    e = n >> 3
    a = (2.0 * math.pi * np.arange(e + 1) / n).tolist()
    c = np.array(list(map(math.cos, a)))
    s = np.array(list(map(math.sin, a)))
    return np.concatenate((c, s[e - 1:0:-1])), np.concatenate((s, c[e - 1:0:-1]))


def _t_coef(re, im, low):
    # the coefs of the t-factors re + i*im of levels 4, 8, ..., one level
    # after another, each checked to have a unit component within 1e-12 of
    # exact, and to be 1 + i*coef where low (k <= m/8, the scale
    # recurrence's cosine branch) and -(coef + i) elsewhere
    off = np.abs(np.abs(re) - 1.0), np.abs(np.abs(im) - 1.0)
    unit = off[0] <= off[1]
    far = np.minimum(*off) > 1e-12
    bad = far | (unit != low) | ((np.where(unit, re, im) > 0) != low)
    if bad.any():
        i = int(bad.argmax())
        m = 4 << (i + 1).bit_length() - 1
        what = "has no unit component" if far[i] else (
            "is not 1 + i*coef" if low[i] else "is not -(coef + i)")
        raise TableError(f"t({m},{i + 1 - (m >> 2)}) = {complex(re[i], im[i])} {what}")
    return np.where(low, im, -re)


def _levels(lo, hi):
    m = lo
    while m <= hi:
        yield m
        m <<= 1


# sizes the table and transposed-network caches keep (least recently used go)
CACHED_SIZES = 8
# typed: 8.0 is no hit for 8, and ScaleTables refuses it on its miss
_cached_tables = lru_cache(maxsize=CACHED_SIZES, typed=True)(ScaleTables)


def build_tables(n: int) -> ScaleTables:
    """Build (or fetch the cached) constant tables for root size ``n``.

    Eagerly materializes every recursion level so transform calls do no
    trigonometric work and no allocation beyond their own buffers.  The
    last :data:`CACHED_SIZES` sizes used are kept.  ``n`` is checked on a
    miss only: a size that is not a power of two raises ``ValueError``.
    """
    try:
        return _cached_tables(n)
    except TypeError:  # unhashable, so no size
        checked_log2(n, lowest=1)
        raise
