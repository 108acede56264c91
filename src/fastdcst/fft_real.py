"""Real-input DFT kernels producing conjugate-symmetric half spectra.

For real x the spectrum satisfies X[N-k] = conj(X[k]), so only bins
0..N/2 are computed (bins 0 and N/2 are structurally real and their
imaginary slots are never touched by arithmetic).  The standard kernel
costs 2*N*lg(N) - 4*N + 6 flops; the rescaled variants shave off half of
what their complex counterparts save.

The sub-transforms here return half spectra themselves, and the four
output assignments of each loop iteration write disjoint bins; the
overlap at k = 0 and k = N/8 is resolved by peeling those iterations.

Each kernel is written twice.  The ``_rfft_*_lanes`` functions are the
scalar recursion: one call per sub-transform, on lists of Python floats
or of :class:`~fastdcst.transpose_net.TraceScalar` values.  The
``_rfft_*_rows`` functions run the same recursion breadth first, in the
manner of FFTW's vector loops: a size-N transform makes about N calls,
but they fall into a few dozen (variant, size) keys, so each key runs
once over all of its calls, stacked as the rows of one 2-D block.  The
split goes top down, one size after another, gathering each call's
sub-inputs into its children's blocks; the combine goes bottom up, and
each key's twiddle loop is a handful of elementwise expressions over
columns k = 1 .. N/8 - 1 of its block, with the constants read in place
from the float64 arrays of the tables' levels
(:meth:`~fastdcst.scale_factors.ScaleTables.level`); every t-factor there
is 1 + i*c, which the table build checks.  The expressions keep the
scalar formula's float operations in the scalar order, so the outputs
are bitwise the scalar recursion's and the ledger is the same.  The row
functions run on float64 arrays and, unchanged, on
:class:`~fastdcst.transpose_net.TraceRows` (one vertex id per element),
whose every operation appends whole edge columns to a recording: each
vertex gets the in-edges it gets in the scalar trace, only numbered in
another order.  The public ``rfft_scaled``/``rfft_scaled4`` run the rows
on one row from :data:`ROWS_MIN_SIZE` on, and the scalar recursion below
it, which reads each level's constants as Python floats
(:meth:`~fastdcst.scale_factors.ScaleTables.scalars`).

The rescaled rows also run backwards, as the transpose of their recorded
network (:func:`_rfft_scaled_rows_T`, Bernstein's transposition
principle applied per key): the lanes are unpacked, each key's transposed
combine runs top down over the same (variant, size) keys, the leaves are
transposed, and the split is undone bottom up as pure data movement.  The
transpose of a network sums at each vertex the terms of its readers in the
order they were recorded, so each transposed loop sums in the forward
loop's write order, and its outputs are bitwise the transposed network's.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .fft_complex import _RT_HALF, _SUBTYPE, _cmul, _omega
from .flops import FlopLedger, checked_log2
from .scale_factors import ScaleTables
from .transpose_net import TraceRows

__all__ = ["HalfSpectrum", "rfft_conjpair", "rfft_scaled", "rfft_scaled4"]

# The rescaled real DFT runs breadth first, as rows, from this size on, and
# as the scalar recursion below it: the public rfft_scaled/rfft_scaled4, and
# each fastdcst.dct2 kernel call that runs no network (a forward kernel's
# first call above dct2.PLAN_MAX_SIZE, any call above dct2.NET_MAX_SIZE, or
# a call at N <= PLAN_MAX_SIZE before its plan), whose plain real DFT
# follows the same rule; a DCT-III's first call takes the transposed rows
# from this size on, and its transposed network below it.
# On cached tables (2-CPU Xeon, Python 3.11, numpy 2.4, medians of 31
# interleaved calls) the rescaled real DFT took 0.36 against 0.93 ms as rows
# at N=128, 0.50 against 1.15 at N=256, 0.92 against 0.97 at N=512, 2.2
# against 1.3 at N=1024 and 16.3 against 3.2 at N=4096;
# the plain one 0.32 against 0.53 at N=128, 0.41 against 0.40 at N=256,
# 0.83 against 0.45 at N=512 and 14.0 against 1.6 at N=4096.  From N=512 on
# the rows are level or ahead for both.
ROWS_MIN_SIZE = 512


@dataclass(frozen=True)
class HalfSpectrum:
    """Bins k = 0..N/2 of a real-input DFT (N/2 + 1 complex values)."""

    bins: tuple

    def __len__(self):
        return len(self.bins)

    def __getitem__(self, k):
        return self.bins[k]

    def full_spectrum(self) -> list[complex]:
        """Extend by conjugate symmetry to all N bins."""
        h = len(self.bins) - 1
        n = 2 * h
        if h == 0:
            return [self.bins[0]]
        full = list(self.bins)
        full += [self.bins[n - k].conjugate() for k in range(h + 1, n)]
        return full


def _gather(x, n, q):
    return (
        x[0::2],
        [x[(4 * j + 1) % n] for j in range(q)],
        [x[(4 * j - 1) % n] for j in range(q)],
    )


def _rfft_std_lanes(x, led):
    n = len(x)
    if n == 1:
        return [x[0]], [None]
    if n == 2:
        led.adds += 2
        return [x[0] + x[1], x[0] - x[1]], [None, None]
    q = n // 4
    h = n // 2
    e = n // 8
    ev, z1, z2 = _gather(x, n, q)
    ure, uim = _rfft_std_lanes(ev, led)
    zre, zim = _rfft_std_lanes(z1, led)
    gre, gim = _rfft_std_lanes(z2, led)
    w = _omega(n)
    outr = [None] * (h + 1)
    outi = [None] * (h + 1)
    for k in range(e + 1):
        if k == 0:
            led.adds += 4
            a = zre[0] + gre[0]
            v = zre[0] - gre[0]
            outr[0] = ure[0] + a
            outr[h] = ure[0] - a
            outr[q] = ure[q]
            outi[q] = -v
        elif k == e:
            led.mults += 2
            led.adds += 6
            c1 = zre[e] * _RT_HALF
            c2 = gre[e] * _RT_HALF
            p = c1 + c2
            m = c1 - c2
            outr[e] = ure[e] + p
            outi[e] = uim[e] - m
            outr[h - e] = ure[e] - p
            outi[h - e] = -(uim[e] + m)
        else:
            c = w[k]
            w1r, w1i = _cmul(c.real, c.imag, zre[k], zim[k], led)
            w2r, w2i = _cmul(c.real, -c.imag, gre[k], gim[k], led)
            led.adds += 12
            ar = w1r + w2r
            ai = w1i + w2i
            br = w1r - w2r
            bi = w1i - w2i
            outr[k] = ure[k] + ar
            outi[k] = uim[k] + ai
            outr[h - k] = ure[k] - ar
            outi[h - k] = ai - uim[k]
            outr[k + q] = ure[q - k] + bi
            outi[k + q] = -(uim[q - k] + br)
            outr[q - k] = ure[q - k] - bi
            outi[q - k] = uim[q - k] - br
    return outr, outi


def _rfft_scaled_lanes(typ, x, tab, led):
    n = len(x)
    if n == 1:
        return [x[0]], [None]
    if n == 2:
        led.adds += 2
        lo, hi = x[0] + x[1], x[0] - x[1]
        if typ == 4:
            led.mults += 1
            hi = tab.inv_s8_1 * hi
        return [lo, hi], [None, None]
    q = n // 4
    h = n // 2
    e = n // 8
    ev, z1, z2 = _gather(x, n, q)
    ure, uim = _rfft_scaled_lanes(_SUBTYPE[typ], ev, tab, led)
    zre, zim = _rfft_scaled_lanes(1, z1, tab, led)
    gre, gim = _rfft_scaled_lanes(1, z2, tab, led)
    lv = tab.scalars(n)
    outr = [None] * (h + 1)
    outi = [None] * (h + 1)
    for k in range(e + 1):
        if k == 0:
            led.adds += 2
            a = zre[0] + gre[0]
            v = zre[0] - gre[0]
            if typ == 4:
                led.adds += 2
                led.mults += 3
                r1 = lv.ratio4[1][0]
                outr[0] = ure[0] + a
                outr[h] = lv.ratio4[2][0] * (ure[0] - a)
                outr[q] = r1 * ure[q]
                outi[q] = -(r1 * v)
                continue
            led.adds += 2
            outr[0] = ure[0] + a
            outr[h] = ure[0] - a
            outr[q] = ure[q]
            if typ == 2:
                led.mults += 1
                outi[q] = -(lv.ratio2b[0] * v)
            else:
                outi[q] = -v
        elif k == e:
            led.adds += 2
            a = zre[e] + gre[e]
            b = zre[e] - gre[e]
            if typ == 4:
                led.adds += 4
                led.mults += 4
                r0 = lv.ratio4[0][e]
                r1 = lv.ratio4[1][e]
                outr[e] = r0 * (ure[e] + a)
                outi[e] = r0 * (uim[e] - b)
                outr[h - e] = r1 * (ure[e] - a)
                outi[h - e] = r1 * (-(uim[e] + b))
                continue
            if typ != 1:
                # one shared pair of products scales both combinations
                r = lv.s[e] if typ == 0 else lv.ratio2a[e]
                led.mults += 2
                a = r * a
                b = r * b
            led.adds += 4
            outr[e] = ure[e] + a
            outi[e] = uim[e] - b
            outr[h - e] = ure[e] - a
            outi[h - e] = -(uim[e] + b)
        else:
            # z times t = 1 + i*c and g times conj(t)
            c = lv.coef[k]
            nc = -c
            led.mults += 4
            led.adds += 8
            pr, pi = zre[k] - c * zim[k], zim[k] + c * zre[k]
            qr, qi = gre[k] - nc * gim[k], gim[k] + nc * gre[k]
            wr = pr + qr
            wi = pi + qi
            vr = pr - qr
            vi = pi - qi
            if typ == 4:
                led.adds += 8
                led.mults += 8
                r0 = lv.ratio4[0][k]
                r1 = lv.ratio4[1][k]
                r2 = lv.ratio4[2][k]
                r3 = lv.ratio4[3][k]
                outr[k] = r0 * (ure[k] + wr)
                outi[k] = r0 * (uim[k] + wi)
                outr[h - k] = r2 * (ure[k] - wr)
                outi[h - k] = r2 * (wi - uim[k])
                outr[k + q] = r1 * (ure[q - k] + vi)
                outi[k + q] = r1 * (-(uim[q - k] + vr))
                outr[q - k] = r3 * (ure[q - k] - vi)
                outi[q - k] = r3 * (uim[q - k] - vr)
                continue
            if typ == 0:
                c = lv.s[k]
                led.mults += 4
                wr, wi = c * wr, c * wi
                vr, vi = c * vr, c * vi
            elif typ == 2:
                ra = lv.ratio2a[k]
                rb = lv.ratio2b[k]
                led.mults += 4
                wr, wi = ra * wr, ra * wi
                vr, vi = rb * vr, rb * vi
            led.adds += 8
            outr[k] = ure[k] + wr
            outi[k] = uim[k] + wi
            outr[h - k] = ure[k] - wr
            outi[h - k] = wi - uim[k]
            outr[k + q] = ure[q - k] + vi
            outi[k + q] = -(uim[q - k] + vr)
            outr[q - k] = ure[q - k] - vi
            outi[q - k] = uim[q - k] - vr
    return outr, outi


def _empty(like, shape):
    # a block of the value type of `like`, its entries still to be set
    if isinstance(like, TraceRows):
        return like.empty(shape)
    return np.empty(shape, like.dtype)


def _split_plan(variant, n, rows, children):
    """The split of the sub-transform ``(variant, N)`` on ``rows`` rows,
    breadth first: the splits ``(key, rows, even child, its first row,
    quarter child, its first row)`` top down, one size after another, and
    the row count of every key.

    The rows of each (variant, size) key are split together: even samples
    to the key ``(children(variant)[0], size/2)``, samples 4j+1 and then
    4j-1 (mod size) to ``(children(variant)[1], size/4)``, each as one run
    of rows there, placed after the runs of the keys split before it.
    """
    count = {(variant, n): rows}
    splits = []
    m = n
    while m > 2:
        for key in [k for k in count if k[1] == m]:
            even, quarter = children(key[0])
            ek, qk = (even, m >> 1), (quarter, m >> 2)
            r, a, b = count[key], count.get(ek, 0), count.get(qk, 0)
            count[ek], count[qk] = a + r, b + 2 * r
            splits.append((key, r, ek, a, qk, b))
        m >>= 1
    return splits, count


def _quarter_cols(m):
    # the samples 4j-1 (mod m) of a size-m row, j = 0 .. m/4 - 1
    return np.arange(-1, m - 1, 4) % m


def _breadth_first(x, variant, children, leaf, combine, led):
    """The half spectra ``(re, im)`` of the sub-transform ``(variant, N)``
    on each of the N-sample rows of ``x``, as blocks of N/2 + 1 columns
    (the imaginary parts of bins 0 and N/2 are left unset).

    Top down, each key's block is split into its children's
    (:func:`_split_plan`).  Bottom up, ``leaf(key, block, led)`` transforms
    the keys of size 1 and 2, and ``combine(key, u, z, g, led)`` every
    other key from the half spectra of its three runs of child rows.  A
    key's half spectra are dropped once every key that reads them is done.
    """
    n = x.shape[1]
    splits, count = _split_plan(variant, n, len(x), children)
    blocks = {(variant, n): x}
    for key, r, ek, a, qk, b in splits:
        block = blocks.pop(key)
        m = key[1]
        for k in (ek, qk):
            if k not in blocks:
                blocks[k] = _empty(x, (count[k], k[1]))
        blocks[ek][a:a + r] = block[:, 0::2]
        blocks[qk][b:b + r] = block[:, 1::4]
        blocks[qk][b + r:b + 2 * r] = block[:, _quarter_cols(m)]
    done = {key: leaf(key, block, led) for key, block in blocks.items()}
    del blocks

    def step(split, u, z):
        key, r, _, a, _, b = split
        (ure, uim), (zre, zim) = u, z
        return combine(key, (ure[a:a + r], uim[a:a + r]), (zre[b:b + r], zim[b:b + r]),
                       (zre[b + r:b + 2 * r], zim[b + r:b + 2 * r]), led)
    return _bottom_up(splits, done, step)[(variant, n)]


def _bottom_up(splits, done, step):
    # done[key] = step(split, done[even child], done[quarter child]) for the
    # splits, bottom up; a child's entry is dropped after its last reader
    readers = Counter(child for split in splits for child in (split[2], split[4]))
    for split in reversed(splits):
        key, _, ek, _, qk, _ = split
        done[key] = step(split, done[ek], done[qk])
        for child in (ek, qk):
            readers[child] -= 1
            if not readers[child]:
                del done[child]
    return done


def _pack_rows(res):
    # pack_lanes of each row of the half spectra res
    outr, outi = res
    r, h = outr.shape[0], outr.shape[1] - 1
    n = max(2 * h, 1)
    lanes = _empty(outr, (r, n))
    lanes[:, 1:n - 1:2] = outr[:, 1:h]
    lanes[:, 2:n - 1:2] = outi[:, 1:h]
    lanes[:, 0] = outr[:, 0]
    lanes[:, n - 1] = outr[:, h]
    return lanes


def _first_bins(outr, outi, ure, a, v, q, h):
    # bins 0, N/2 and N/4 from the k = 0 terms
    outr[:, 0] = ure[:, 0] + a
    outr[:, h] = ure[:, 0] - a
    outr[:, q] = ure[:, q]
    outi[:, q] = -v


def _eighth_bins(ure, uim, e, a, b):
    # (re, im) of bins N/8 and N/2 - N/8 from the k = N/8 terms
    return (ure[:, e] + a, uim[:, e] - b), (ure[:, e] - a, -(uim[:, e] + b))


def _twiddled_bins(ure, uim, q, e, wr, wi, vr, vi):
    # (re, im) of bins k, N/2 - k, k + N/4 and N/4 - k, for k = 1 .. N/8 - 1
    k, qk = slice(1, e), slice(q - 1, q - e, -1)
    return ((ure[:, k] + wr, uim[:, k] + wi), (ure[:, k] - wr, wi - uim[:, k]),
            (ure[:, qk] + vi, -(uim[:, qk] + vr)), (ure[:, qk] - vi, uim[:, qk] - vr))


def _put(outr, outi, q, e, bins):
    # bins from _eighth_bins (two) or _twiddled_bins (four) into their columns
    h = 2 * q
    at = (e, h - e) if len(bins) == 2 else (
        slice(1, e), slice(h - 1, h - e, -1), slice(q + 1, q + e), slice(q - 1, q - e, -1))
    for col, (re, im) in zip(at, bins):
        outr[:, col] = re
        outi[:, col] = im


def _leaf(x, led, c=None):
    # the transforms of sizes 1 and 2: x0, or x0 + x1 and x0 - x1, the
    # latter times c if given; their imaginary parts stay unset
    if x.shape[1] == 1:
        return x, _empty(x, x.shape)
    led.adds += 2 * len(x)
    out = _empty(x, x.shape)
    out[:, 0] = x[:, 0] + x[:, 1]
    hi = x[:, 0] - x[:, 1]
    if c is not None:
        led.mults += len(x)
        hi = c * hi
    out[:, 1] = hi
    return out, _empty(x, x.shape)


def _std_combine(twiddles, key, u, z, g, led):
    # the twiddle loop of _rfft_std_lanes over the rows
    (ure, uim), (zre, zim), (gre, gim) = u, z, g
    n, r = key[1], len(ure)
    q, h, e = n >> 2, n >> 1, n >> 3
    outr, outi = _empty(ure, (r, h + 1)), _empty(ure, (r, h + 1))
    led.adds += 4 * r
    _first_bins(outr, outi, ure, zre[:, 0] + gre[:, 0], zre[:, 0] - gre[:, 0], q, h)
    if e == 0:
        return outr, outi
    led.mults += 2 * r
    led.adds += 6 * r
    c1 = zre[:, e] * _RT_HALF
    c2 = gre[:, e] * _RT_HALF
    _put(outr, outi, q, e, _eighth_bins(ure, uim, e, c1 + c2, c1 - c2))
    if e == 1:
        return outr, outi
    cr, ci, nci = twiddles[n]  # unit_root(k, n): real part, imaginary part and its negation
    zr, zi, gr, gi = zre[:, 1:e], zim[:, 1:e], gre[:, 1:e], gim[:, 1:e]
    led.mults += 8 * zr.size
    led.adds += 16 * zr.size
    w1r, w1i = cr * zr - ci * zi, cr * zi + ci * zr
    w2r, w2i = cr * gr - nci * gi, cr * gi + nci * gr
    _put(outr, outi, q, e, _twiddled_bins(ure, uim, q, e, w1r + w2r, w1i + w2i,
                                          w1r - w2r, w1i - w2i))
    return outr, outi


def _rfft_std_rows(x, twiddles, led):
    """:func:`_rfft_std_lanes` of each row of ``x`` (a 2-D float64 array or
    :class:`~fastdcst.transpose_net.TraceRows`), breadth first, in the
    lanes of :func:`pack_lanes`, one row each.  ``twiddles`` maps each size
    16 <= m <= N to the columns of ``unit_root(k, m)`` for k = 1 .. m/8 - 1
    (see :func:`fastdcst.dct2._classic_state`)."""
    return _pack_rows(_breadth_first(x, None, lambda v: (v, v), lambda key, b, led: _leaf(b, led),
                                     lambda *a: _std_combine(twiddles, *a), led))


def _scaled_combine(tab, key, u, z, g, led):
    # the twiddle loop of _rfft_scaled_lanes over the rows
    (ure, uim), (zre, zim), (gre, gim) = u, z, g
    typ, n = key
    r = len(ure)
    q, h, e = n >> 2, n >> 1, n >> 3
    lv = tab.level(n)
    outr, outi = _empty(ure, (r, h + 1)), _empty(ure, (r, h + 1))
    led.adds += 4 * r
    a = zre[:, 0] + gre[:, 0]
    v = zre[:, 0] - gre[:, 0]
    if typ == 4:
        led.mults += 3 * r
        r1 = lv.ratio4[1, 0]
        outr[:, 0] = ure[:, 0] + a
        outr[:, h] = lv.ratio4[2, 0] * (ure[:, 0] - a)
        outr[:, q] = r1 * ure[:, q]
        outi[:, q] = -(r1 * v)
    else:
        if typ == 2:
            led.mults += r
            v = lv.ratio2b[0] * v
        _first_bins(outr, outi, ure, a, v, q, h)
    if e == 0:
        return outr, outi
    led.adds += 6 * r
    a = zre[:, e] + gre[:, e]
    b = zre[:, e] - gre[:, e]
    if typ == 4:
        led.mults += 4 * r
        bins = _eighth_bins(ure, uim, e, a, b)
        bins = [(c * re, c * im) for c, (re, im) in zip(lv.ratio4[:2, e], bins)]
    else:
        if typ != 1:
            c = lv.s[e] if typ == 0 else lv.ratio2a[e]
            led.mults += 2 * r
            a = c * a
            b = c * b
        bins = _eighth_bins(ure, uim, e, a, b)
    _put(outr, outi, q, e, bins)
    if e == 1:
        return outr, outi
    # z times t = 1 + i*c and g times conj(t), for k = 1 .. N/8 - 1
    k = slice(1, e)
    s, ra, rb, r4, c = lv.s[k], lv.ratio2a[k], lv.ratio2b[k], lv.ratio4[:, k], lv.coef[k]
    nc = -c
    zr, zi, gr, gi = zre[:, k], zim[:, k], gre[:, k], gim[:, k]
    pr, pi = zr - c * zi, zi + c * zr
    qr, qi = gr - nc * gi, gi + nc * gr
    size = pr.size
    led.mults += 4 * size
    led.adds += 16 * size
    wr = pr + qr
    wi = pi + qi
    vr = pr - qr
    vi = pi - qi
    if typ == 4:
        led.mults += 8 * size
        bins = _twiddled_bins(ure, uim, q, e, wr, wi, vr, vi)
        # bin k by ratio4(n, 0, k), N/2 - k by (n, 2, k), k + N/4 by (n, 1,
        # k) and N/4 - k by (n, 3, k)
        bins = [(c * re, c * im) for c, (re, im) in zip(r4[[0, 2, 1, 3]], bins)]
    else:
        if typ == 0:
            led.mults += 4 * size
            wr, wi = s * wr, s * wi
            vr, vi = s * vr, s * vi
        elif typ == 2:
            led.mults += 4 * size
            wr, wi = ra * wr, ra * wi
            vr, vi = rb * vr, rb * vi
        bins = _twiddled_bins(ure, uim, q, e, wr, wi, vr, vi)
    _put(outr, outi, q, e, bins)
    return outr, outi


def _rfft_scaled_half_rows(typ, x, tab, led):
    """:func:`_rfft_scaled_lanes` of each row of ``x`` (a 2-D float64
    array or :class:`~fastdcst.transpose_net.TraceRows`), breadth first,
    as the blocks ``(re, im)`` of :func:`_breadth_first`; the constants of
    the twiddle loops come from ``tab.level``."""
    return _breadth_first(
        x, typ, lambda t: (_SUBTYPE[t], 1),
        lambda key, b, led: _leaf(b, led, tab.inv_s8_1 if key[0] == 4 else None),
        lambda *a: _scaled_combine(tab, *a), led)


def _rfft_scaled_rows(typ, x, tab, led):
    """:func:`_rfft_scaled_half_rows` in the lanes of :func:`pack_lanes`,
    one row each."""
    return _pack_rows(_rfft_scaled_half_rows(typ, x, tab, led))


# The transposed rows.  Reversing the network of the rows sums, at each
# vertex, the terms of its forward readers in the order they were made, so
# each transposed loop below is the forward loop read backwards with its sums
# in the forward write order.  The adjoint of a value that the forward loop
# only writes negated (a bin -(...)) sums its readers' terms negated, which
# keeps the sign of an exact zero; the imaginary bins q .. q + e of a key (q
# alone for variant 4) are such values.


def _signed(a, b, neg, plain, negated):
    # plain(a, b), and negated(a, b) at the columns of the slice neg
    if neg is None:
        return plain(a, b)
    s = np.empty_like(a)
    for cols in (slice(None, neg.start), slice(neg.stop, None)):
        s[:, cols] = plain(a[:, cols], b[:, cols])
    s[:, neg] = negated(a[:, neg], b[:, neg])
    return s


def _add(a, b, neg):
    # a + b, and at the columns neg (-a) - b: the same terms negated
    return _signed(a, b, neg, lambda a, b: a + b, lambda a, b: -a - b)


def _sub(a, b, neg):
    # a - b, and at the columns neg b - a
    return _signed(a, b, neg, lambda a, b: a - b, lambda a, b: b - a)


def _scaled_combine_T(tab, key, out, u, z, g, led):
    # the transpose of _scaled_combine: from the adjoints (ar, ai) of the
    # bins of key, those of the bins of its children, written to u, z and g
    (ar, ai), (ur, ui), (zr, zi), (gr, gi) = out, u, z, g
    typ, n = key
    r = len(ar)
    q, h, e = n >> 2, n >> 1, n >> 3
    lv = tab.level(n)
    led.adds += 4 * r
    if typ == 4:
        led.mults += 3 * r
        r1 = lv.ratio4[1, 0]
        d = lv.ratio4[2, 0] * ar[:, h]
        ur[:, 0] = ar[:, 0] + d
        a = ar[:, 0] - d
        ur[:, q] = r1 * ar[:, q]
        v = r1 * ai[:, q]
    else:
        ur[:, 0] = ar[:, 0] + ar[:, h]
        a = ar[:, 0] - ar[:, h]
        ur[:, q] = ar[:, q]
        v = ai[:, q]
        if typ == 2:
            led.mults += r
            v = lv.ratio2b[0] * v
    zr[:, 0] = a + v
    gr[:, 0] = a - v
    if e == 0:
        return
    led.adds += 6 * r
    e1, e2, e3, e4 = ar[:, e], ai[:, e], ar[:, h - e], ai[:, h - e]
    if typ == 4:
        led.mults += 4 * r
        r0, r1 = lv.ratio4[:2, e]
        e1, e2, e3, e4 = r0 * e1, r0 * e2, r1 * e3, -(r1 * e4)
    ur[:, e] = e1 + e3
    ui[:, e] = -e2 - e4  # u's bin N/8, a quarter of its size, is written negated
    a = e1 - e3
    b = e4 - e2
    if typ == 0 or typ == 2:
        c = lv.s[e] if typ == 0 else lv.ratio2a[e]
        led.mults += 2 * r
        a = c * a
        b = c * b
    zr[:, e] = a + b
    gr[:, e] = a - b
    if e == 1:
        return
    k, qk = slice(1, e), slice(q - 1, q - e, -1)
    s, ra, rb, r4, c = lv.s[k], lv.ratio2a[k], lv.ratio2b[k], lv.ratio4[:, k], lv.coef[k]
    b1, b2, b3, b4 = ar[:, k], ai[:, k], ar[:, h - 1:h - e:-1], ai[:, h - 1:h - e:-1]
    b5, b6, b7, b8 = ar[:, q + 1:q + e], ai[:, q + 1:q + e], ar[:, qk], ai[:, qk]
    size = b1.size
    led.mults += 4 * size
    led.adds += 16 * size
    if typ == 4:
        led.mults += 8 * size
        b1, b2, b3, b4 = r4[0] * b1, r4[0] * b2, r4[2] * b3, r4[2] * b4
        b5, b6, b7, b8 = r4[1] * b5, -(r4[1] * b6), r4[3] * b7, r4[3] * b8
    ur[:, k] = b1 + b3
    ui[:, k] = b2 - b4
    ur[:, qk] = b5 + b7
    # bins N/4 - k of u for k >= N/16 are written negated, but not by variant 4
    ui[:, qk] = _add(b6, b8, None if typ == 2 else slice((e >> 1) - 1, e - 1))
    wr, wi, vr, vi = b1 - b3, b2 + b4, b6 - b8, b5 - b7
    if typ == 0:
        led.mults += 4 * size
        wr, wi, vr, vi = s * wr, s * wi, s * vr, s * vi
    elif typ == 2:
        led.mults += 4 * size
        wr, wi, vr, vi = ra * wr, ra * wi, rb * vr, rb * vi
    # the adjoints of the products p = z*t and q = g*conj(t) (w = p + q, v
    # = p - q), then those of z and g in the order the products read them,
    # t = 1 + i*c; bins N/16 .. 3N/32 of z and g are written negated
    neg = slice((e >> 1) - 1, 3 * e >> 2)
    nc = -c
    pr, pi, qr, qi = wr + vr, wi + vi, wr - vr, wi - vi
    zr[:, k], zi[:, k] = pr + c * pi, _sub(pi, c * pr, neg)
    gr[:, k], gi[:, k] = qr + nc * qi, _sub(qi, nc * qr, neg)


def _leaf_T(adj, led, c=None):
    # the transpose of _leaf: the samples' adjoints from those of the bins
    ar = adj[0]
    if ar.shape[1] == 1:
        return ar
    led.adds += 2 * len(ar)
    hi = ar[:, 1]
    if c is not None:
        led.mults += len(ar)
        hi = c * hi
    x = np.empty_like(ar)
    x[:, 0] = ar[:, 0] + hi
    x[:, 1] = ar[:, 0] - hi
    return x


def _unpack_rows(lanes, typ):
    # the transpose of _pack_rows on the rows of the top key (typ, N): the
    # adjoints of its bins, those written negated reading their lanes negated
    r, n = lanes.shape
    h = n // 2
    ar, ai = np.empty((r, h + 1), lanes.dtype), np.empty((r, h + 1), lanes.dtype)
    ar[:, 0] = lanes[:, 0]
    ar[:, h] = lanes[:, n - 1]
    ar[:, 1:h] = lanes[:, 1:n - 1:2]
    ai[:, 1:h] = lanes[:, 2:n - 1:2]
    if n >= 4:
        q = n >> 2
        neg = slice(q, q + 1 if typ == 4 else q + (n >> 3) + 1)
        ai[:, neg] = -ai[:, neg]
    return ar, ai


def _breadth_first_T(adj, variant, n, children, leaf, combine, led):
    """The transpose of :func:`_breadth_first`: from the adjoints ``adj``
    of the rows' half spectra (as blocks ``(re, im)``, of the vertices
    that write them), the adjoints of the rows' samples.

    Over the keys of :func:`_split_plan`, top down, ``combine(key, adj,
    u, z, g, led)`` writes the adjoints of the half spectra of its three
    runs of child rows into the views ``u``, ``z`` and ``g``; then
    ``leaf(key, adj, led)`` gives the samples' adjoints of each key of size
    1 and 2, and bottom up each key gathers those of its rows from its
    children's runs, the split read backwards.
    """
    dtype = adj[0].dtype
    splits, count = _split_plan(variant, n, len(adj[0]), children)
    adjs = {(variant, n): adj}
    for key, r, ek, a, qk, b in splits:
        for k in (ek, qk):
            if k not in adjs:
                shape = (count[k], (k[1] >> 1) + 1)
                adjs[k] = (np.empty(shape, dtype), np.empty(shape, dtype))
        (ur, ui), (zr, zi) = adjs[ek], adjs[qk]
        combine(key, adjs.pop(key), (ur[a:a + r], ui[a:a + r]), (zr[b:b + r], zi[b:b + r]),
                (zr[b + r:b + 2 * r], zi[b + r:b + 2 * r]), led)
    xs = {key: leaf(key, adj, led) for key, adj in adjs.items()}
    del adjs

    def gather(split, u, z):
        (_, m), r, _, a, _, b = split
        x = np.empty((r, m), dtype)
        x[:, 0::2] = u[a:a + r]
        x[:, 1::4] = z[b:b + r]
        x[:, _quarter_cols(m)] = z[b + r:b + 2 * r]
        return x
    return _bottom_up(splits, xs, gather)[(variant, n)]


def _rfft_scaled_rows_T(typ, y, tab, led):
    """The transpose of :func:`_rfft_scaled_rows` on each row of the 2-D
    array ``y`` (lanes as in :func:`pack_lanes`): on finite floats bitwise
    what the transpose of its recorded network gives, with the same ledger
    as the forward rows."""
    return _breadth_first_T(
        _unpack_rows(y, typ), typ, y.shape[1], lambda t: (_SUBTYPE[t], 1),
        lambda key, adj, led: _leaf_T(adj, led, tab.inv_s8_1 if key[0] == 4 else None),
        lambda *a: _scaled_combine_T(tab, *a), led)


def _as_real_lanes(x):
    return [float(v) for v in x]


def _to_half_spectrum(res) -> HalfSpectrum:
    outr, outi = res
    return HalfSpectrum(
        tuple(complex(r, 0.0 if i is None else i) for r, i in zip(outr, outi))
    )


def pack_lanes(outr, outi):
    """Half-spectrum lanes (bins 0..N/2) packed into N real lanes:
    [re0, re1, im1, ..., re(N/2-1), im(N/2-1), reN/2]."""
    n = max(2 * (len(outr) - 1), 1)
    lanes = [None] * n
    lanes[1:n - 1:2] = outr[1:-1]
    lanes[2:n - 1:2] = outi[1:-1]
    lanes[0] = outr[0]
    lanes[n - 1] = outr[-1]
    return lanes


def half_spectrum_lanes(xs, tables, led):
    """Lane-level entry point (used when recording as a linear network).

    Packs the half spectrum (bin k over ``scale(N, k)``) into N real lanes
    (see :func:`pack_lanes`).
    """
    return pack_lanes(*_rfft_scaled_lanes(1, list(xs), tables, led))


def rfft_conjpair(x, ledger: FlopLedger | None = None) -> HalfSpectrum:
    """Real-input conjugate-pair split-radix DFT, bins 0..N/2."""
    xs = _as_real_lanes(x)
    checked_log2(len(xs), lowest=1)
    led = ledger if ledger is not None else FlopLedger()
    return _to_half_spectrum(_rfft_std_lanes(xs, led))


def rfft_scaled(
    x, level: int, tables: ScaleTables, ledger: FlopLedger | None = None
) -> HalfSpectrum:
    """Real-input DFT with bin k divided by ``scale(level*N, k)``."""
    if level not in (0, 1, 2):
        raise ValueError(f"level must be 0, 1 or 2, got {level!r}")
    return _scaled(level, x, tables, ledger)


def rfft_scaled4(
    x, tables: ScaleTables, ledger: FlopLedger | None = None
) -> HalfSpectrum:
    """Real-input DFT with bin k divided by ``scale(4*N, k)``."""
    return _scaled(4, x, tables, ledger)


def _scaled(typ, x, tables, ledger):
    xs = _as_real_lanes(x)
    n = len(xs)
    checked_log2(n, lowest=1)
    if not tables.supports(n):
        raise ValueError(f"tables built for size {tables.size} cannot serve {n}")
    led = ledger if ledger is not None else FlopLedger()
    if n < ROWS_MIN_SIZE:
        return _to_half_spectrum(_rfft_scaled_lanes(typ, xs, tables, led))
    # the rows on one row, bitwise the scalar recursion; as on Python
    # floats, an overflow or inf - inf gives its IEEE result silently
    with np.errstate(over="ignore", invalid="ignore"):
        outr, outi = _rfft_scaled_half_rows(typ, np.array(xs)[None], tables, led)
    outi[0, [0, -1]] = 0.0  # bins 0 and N/2, left unset, are real
    return _to_half_spectrum((outr[0].tolist(), outi[0].tolist()))
