"""Real-input DFT kernels producing conjugate-symmetric half spectra.

For real x the spectrum satisfies X[N-k] = conj(X[k]), so only bins
0..N/2 are computed (bins 0 and N/2 are structurally real and their
imaginary slots are never touched by arithmetic).  The standard kernel
costs 2*N*lg(N) - 4*N + 6 flops; the rescaled variants shave off half of
what their complex counterparts save.

The sub-transforms here return half spectra themselves, and the four
output assignments of each loop iteration write disjoint bins; the
overlap at k = 0 and k = N/8 is resolved by peeling those iterations.

On traced scalars (a recording by :func:`fastdcst.transpose_net.record`)
the recursive calls go through the recording's splice: the first call of
each (variant, size) is traced in full and every later one appends a
copy of its edges, so recording costs the distinct sub-transforms, not
all N*lg(N) of the operations.  On floats the only cost is one type test
per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .fft_complex import _RT_HALF, _SUBTYPE, _cmul, _omega, _tmul
from .flops import FlopLedger, checked_log2
from .scale_factors import ScaleTables
from .transpose_net import TraceScalar

__all__ = ["HalfSpectrum", "rfft_conjpair", "rfft_scaled", "rfft_scaled4"]


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
    sub = _rfft_std_lanes
    if type(x[0]) is TraceScalar:  # a recording splices repeated sub-transforms
        sub = partial(x[0].trace.splice, sub)
    ure, uim = sub(ev, led)
    zre, zim = sub(z1, led)
    gre, gim = sub(z2, led)
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
    sub = _rfft_scaled_lanes
    if type(x[0]) is TraceScalar:  # a recording splices repeated sub-transforms
        sub = partial(x[0].trace.splice, sub)
    ure, uim = sub(_SUBTYPE[typ], ev, tab, led)
    zre, zim = sub(1, z1, tab, led)
    gre, gim = sub(1, z2, tab, led)
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
                r1 = tab.ratio4(n, 1, 0)
                outr[0] = ure[0] + a
                outr[h] = tab.ratio4(n, 2, 0) * (ure[0] - a)
                outr[q] = r1 * ure[q]
                outi[q] = -(r1 * v)
                continue
            led.adds += 2
            outr[0] = ure[0] + a
            outr[h] = ure[0] - a
            outr[q] = ure[q]
            if typ == 2:
                led.mults += 1
                outi[q] = -(tab.ratio2b(n, 0) * v)
            else:
                outi[q] = -v
        elif k == e:
            led.adds += 2
            a = zre[e] + gre[e]
            b = zre[e] - gre[e]
            if typ == 4:
                led.adds += 4
                led.mults += 4
                r0 = tab.ratio4(n, 0, e)
                r1 = tab.ratio4(n, 1, e)
                outr[e] = r0 * (ure[e] + a)
                outi[e] = r0 * (uim[e] - b)
                outr[h - e] = r1 * (ure[e] - a)
                outi[h - e] = r1 * (-(uim[e] + b))
                continue
            if typ != 1:
                # one shared pair of products scales both combinations
                r = tab.s(n, e) if typ == 0 else tab.ratio2a(n, e)
                led.mults += 2
                a = r * a
                b = r * b
            led.adds += 4
            outr[e] = ure[e] + a
            outi[e] = uim[e] - b
            outr[h - e] = ure[e] - a
            outi[h - e] = -(uim[e] + b)
        else:
            ts, tcs = tab.t_struct(n, k)
            pr, pi = _tmul(ts, zre[k], zim[k], led)
            qr, qi = _tmul(tcs, gre[k], gim[k], led)
            led.adds += 4
            wr = pr + qr
            wi = pi + qi
            vr = pr - qr
            vi = pi - qi
            if typ == 4:
                led.adds += 8
                led.mults += 8
                r0 = tab.ratio4(n, 0, k)
                r1 = tab.ratio4(n, 1, k)
                r2 = tab.ratio4(n, 2, k)
                r3 = tab.ratio4(n, 3, k)
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
                c = tab.s(n, k)
                led.mults += 4
                wr, wi = c * wr, c * wi
                vr, vi = c * vr, c * vi
            elif typ == 2:
                ra = tab.ratio2a(n, k)
                rb = tab.ratio2b(n, k)
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
    return _to_half_spectrum(_rfft_scaled_lanes(typ, xs, tables, led))
