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
  signals, sequential over the summation index.

Every oracle takes one signal or a 2-D block of signals, one per row,
and the cosine/sine oracles one normalization or a tuple of them: a
block gives one output row per signal, a tuple stacks the outputs on a
leading axis, one entry per norm, from one compensated sum.  Each output
element sees the float operations of the one-signal sum, in its order,
so batching changes no bit.
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


# trig-table entries the cosine/sine oracles gather per chunk of summation
# indices, which bounds that gather's memory at any N
_CHUNK_ENTRIES = 1 << 16


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


def _block(x, dtype):
    # x as a 2-D block of signals, one per row, and whether it was one signal
    xs = np.asarray(x, dtype=dtype)
    if xs.ndim not in (1, 2):
        raise ValueError(f"expected one signal or a 2-D block of them, "
                         f"got {xs.ndim} dimensions")
    return np.atleast_2d(xs), xs.ndim == 1


def naive_dft(x):
    """X[k] = sum_n x[n] * exp(-2*pi*i*n*k/N) by direct summation, per row."""
    xs, one = _block(x, complex)
    n = xs.shape[1]
    if n == 0:
        raise ValueError("empty signal")
    w = _roots(n)
    ks = np.arange(n, dtype=np.int64)
    acc = _Accumulator((len(xs), 2 * n))  # interleaved real and imaginary parts
    for j in range(n):
        acc.add((xs[:, j, None] * w[(j * ks) % n]).view(float))
    out = acc.value().view(complex)
    return out[0] if one else out


def _cos_sum(xs, phases_for, weights, use_sin):
    # sum_j weights[w, j] * xs[r, j] * trig(2*pi*phase/(4N)), one bin per
    # phase row, for every weight row w and signal row r: (weights, rows, N)
    rows, n = xs.shape
    cos_t, sin_t = _quarter_wave(4 * n)
    table = sin_t if use_sin else cos_t
    acc = _Accumulator((len(weights), rows, n))
    # weighted[j, w, r] = weights[w, j] * xs[r, j], the product each step
    # scales its trig row by
    weighted = (weights.T[:, :, None] * xs.T[:, None, :])[..., None]
    term = np.empty((len(weights), rows, n))
    ks = np.arange(n, dtype=np.int64)
    step = max(1, _CHUNK_ENTRIES // n)
    for j0 in range(0, n, step):
        js = np.arange(j0, min(j0 + step, n), dtype=np.int64)
        trig_rows = table[phases_for(js[:, None], ks) % (4 * n)]
        for j, trig in zip(js.tolist(), trig_rows):
            np.multiply(weighted[j], trig, out=term)
            acc.add(term)
    return acc.value()


def _trig_oracle(x, norm, factors, phases_for, use_sin, transposed):
    # factors(n, norm) scale the raw sum's outputs (DCT-II, DST-II), or
    # weight its inputs when transposed (DCT-III, DST-III)
    xs, one = _block(x, float)
    norms = norm if isinstance(norm, tuple) else (norm,)
    n = xs.shape[1]
    f = np.array([factors(n, nm) for nm in norms])
    if transposed:
        out = _cos_sum(xs, phases_for, f, use_sin)
    else:
        out = f[:, None] * _cos_sum(xs, phases_for, np.ones((1, n)), use_sin)
    if one:
        out = out[:, 0]
    return out if isinstance(norm, tuple) else out[0]


def _dct2_prefactor(n, norm):
    # the factor of bin k = 0 .. N-1
    if norm is Normalization.TWO_SIDED:
        return np.full(n, 2.0)
    delta = (np.arange(n) == 0).astype(float)
    if norm is Normalization.UNITARY:
        return np.sqrt((2.0 - delta) / n)
    return np.sqrt(2.0 - delta)


def _dst2_prefactor(n, norm):
    # the factor of bin k = 1 .. N; the half-weight sits on k = N
    if norm is Normalization.TWO_SIDED:
        return np.full(n, 2.0)
    delta = (np.arange(1, n + 1) == n).astype(float)
    if norm is Normalization.UNITARY:
        return np.sqrt((2.0 - delta) / n)
    return np.sqrt(2.0 - delta)


def naive_dct2(x, norm=Normalization.TWO_SIDED):
    """C[k] = f(k) * sum_n x[n] * cos(pi*(n + 1/2)*k/N).

    ``x`` is one signal or a 2-D block of them, one per row.  ``norm`` is
    one Normalization or a tuple of them, which stacks the outputs on a
    leading axis from one sum.  The same holds for the other three
    cosine/sine oracles.
    """
    return _trig_oracle(x, norm, _dct2_prefactor,
                        lambda j, ks: (2 * j + 1) * ks, False, False)


def naive_dct3(x, norm=Normalization.TWO_SIDED):
    """C[k] = sum_n g(n) * x[n] * cos(pi*n*(k + 1/2)/N): the dct2 transpose."""
    return _trig_oracle(x, norm, _dct2_prefactor,
                        lambda j, ks: j * (2 * ks + 1), False, True)


def naive_dst2(x, norm=Normalization.TWO_SIDED):
    """S[k] = f(k) * sum_n x[n] * sin(pi*(n + 1/2)*k/N), slot j = k - 1."""
    return _trig_oracle(x, norm, _dst2_prefactor,
                        lambda j, ks: (2 * j + 1) * (ks + 1), True, False)


def naive_dst3(x, norm=Normalization.TWO_SIDED):
    """S[k] = sum_m g(m) * x[m] * sin(pi*m*(k + 1/2)/N), input slot j = m - 1."""
    return _trig_oracle(x, norm, _dst2_prefactor,
                        lambda j, ks: (j + 1) * (2 * ks + 1), True, True)


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
