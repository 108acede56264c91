"""Slow definitional reference transforms.

Every fast kernel in the package is judged against direct O(N^2)
summation of its defining formula.  Two precautions keep the reference
meaningfully more accurate than the kernels it checks without resorting
to extended precision:

* trigonometric terms come from a table built entry-by-entry with the
  argument reduced to one octant (never by recurrence), indexed by the
  exact integer phase ``n*k mod period``;
* accumulation is compensated: the exact rounding error of every
  addition (Knuth's TwoSum, the same term Neumaier's ordered form
  yields) is carried per output bin, vectorized across bins and
  sequential over the summation index.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .dct2 import Normalization
from .scale_factors import CACHED_SIZES, unit_root

__all__ = [
    "naive_dft",
    "naive_dct2",
    "naive_dct3",
    "naive_dst2",
    "naive_dst3",
    "embed_4n",
]


class _Accumulator:
    # compensated elementwise sums across all output bins, in place
    def __init__(self, n):
        self.s = np.zeros(n)
        self.c = np.zeros(n)
        self._t, self._u, self._v = np.empty(n), np.empty(n), np.empty(n)

    def add(self, term):
        s, t, u, v = self.s, self._t, self._u, self._v
        np.add(s, term, out=t)
        np.subtract(t, s, out=u)  # the part of term that reached t
        np.subtract(t, u, out=v)  # the part of s that reached t
        np.subtract(s, v, out=v)
        np.subtract(term, u, out=u)
        v += u  # exact rounding error of s + term
        self.c += v
        self.s, self._t = t, s

    def value(self):
        return self.s + self.c


# a size-n transform reads the roots of n (DFT) and of 4n (cosine/sine)
@lru_cache(maxsize=2 * CACHED_SIZES)
def _roots(n):
    return np.array([unit_root(j, n) for j in range(n)])


@lru_cache(maxsize=CACHED_SIZES)
def _quarter_wave(n4):
    # cos(2*pi*j/n4) and sin(2*pi*j/n4) for one full period of length n4
    w = _roots(n4)
    return w.real.copy(), (-w.imag).copy()


def naive_dft(x):
    """X[k] = sum_n x[n] * exp(-2*pi*i*n*k/N) by direct summation."""
    xs = np.asarray(x, dtype=complex)
    n = len(xs)
    if n == 0:
        raise ValueError("empty signal")
    w = _roots(n)
    ks = np.arange(n, dtype=np.int64)
    acc = _Accumulator(2 * n)  # interleaved real and imaginary parts
    for j in range(n):
        acc.add((xs[j] * w[(j * ks) % n]).view(float))
    return acc.value().view(complex)


def _cos_sum(xs, phases_for, weights, use_sin):
    # sum_j weights[j] * xs[j] * trig(2*pi*phase/(4N)), one bin per phase row
    n = len(xs)
    cos_t, sin_t = _quarter_wave(4 * n)
    table = sin_t if use_sin else cos_t
    acc = _Accumulator(n)
    ks = np.arange(n, dtype=np.int64)
    for j, xv in enumerate(xs):
        idx = phases_for(j, ks) % (4 * n)
        acc.add((weights[j] * xv) * table[idx])
    return acc.value()


def _dct2_prefactor(n, norm, k):
    # row factors applied after the raw cosine sum
    if norm is Normalization.TWO_SIDED:
        return np.full(len(k), 2.0)
    delta = (k == 0).astype(float)
    if norm is Normalization.UNITARY:
        return np.sqrt((2.0 - delta) / n)
    return np.sqrt(2.0 - delta)


def naive_dct2(x, norm=Normalization.TWO_SIDED):
    """C[k] = f(k) * sum_n x[n] * cos(pi*(n + 1/2)*k/N)."""
    xs = np.asarray(x, dtype=float)
    n = len(xs)
    raw = _cos_sum(xs, lambda j, ks: (2 * j + 1) * ks, np.ones(n), False)
    return _dct2_prefactor(n, norm, np.arange(n)) * raw


def naive_dct3(x, norm=Normalization.TWO_SIDED):
    """C[k] = sum_n g(n) * x[n] * cos(pi*n*(k + 1/2)/N): the dct2 transpose."""
    xs = np.asarray(x, dtype=float)
    n = len(xs)
    weights = _dct2_prefactor(n, norm, np.arange(n))  # column factors now
    return _cos_sum(xs, lambda j, ks: j * (2 * ks + 1), weights, False)


def _dst2_prefactor(n, norm, k):
    # k runs 1..N here; the half-weight sits on k = N
    if norm is Normalization.TWO_SIDED:
        return np.full(len(k), 2.0)
    delta = (k == n).astype(float)
    if norm is Normalization.UNITARY:
        return np.sqrt((2.0 - delta) / n)
    return np.sqrt(2.0 - delta)


def naive_dst2(x, norm=Normalization.TWO_SIDED):
    """S[k] = f(k) * sum_n x[n] * sin(pi*(n + 1/2)*k/N), slot j = k - 1."""
    xs = np.asarray(x, dtype=float)
    n = len(xs)
    raw = _cos_sum(xs, lambda j, ks: (2 * j + 1) * (ks + 1), np.ones(n), True)
    return _dst2_prefactor(n, norm, np.arange(1, n + 1)) * raw


def naive_dst3(x, norm=Normalization.TWO_SIDED):
    """S[k] = sum_m g(m) * x[m] * sin(pi*m*(k + 1/2)/N), input slot j = m - 1."""
    xs = np.asarray(x, dtype=float)
    n = len(xs)
    weights = _dst2_prefactor(n, norm, np.arange(1, n + 1))
    return _cos_sum(xs, lambda j, ks: (j + 1) * (2 * ks + 1), weights, True)


def embed_4n(x):
    """Zero-interleaved symmetric extension of length 4N.

    Odd slots 2n+1 and their mirrors 4N-(2n+1) carry x[n]; even slots are
    zero.  The result is real-even, and its DFT's first N bins equal the
    two-sided DCT-II of x.
    """
    xs = np.asarray(x, dtype=float)
    n = len(xs)
    out = np.zeros(4 * n)
    idx = 2 * np.arange(n) + 1
    out[idx] = xs
    out[4 * n - idx] = xs
    return out
