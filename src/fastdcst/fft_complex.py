"""Complex-input DFT kernels with exact operation accounting.

Two families live here:

* :func:`fft_conjpair` -- the conjugate-pair split-radix FFT, which splits
  a size-N DFT into one half-size transform of the even samples and two
  quarter-size transforms of x[4j+1] and x[4j-1] (indices mod N), costing
  4*N*lg(N) - 6*N + 8 flops;
* :func:`fft_scaled` / :func:`fft_scaled4` -- four mutually recursive
  rescaled variants of the same recursion whose sub-transform outputs are
  divided by scale(l*N, k).  The rescaling turns general twiddle products
  into unit-component products and drops the flop count to
  (34/9)*N*lg(N) + O(N) for the final unscaled result.

Kernels operate on separate real/imaginary lanes of plain Python scalars,
so the same code runs on floats and on trace scalars when a kernel is
recorded as a linear network.  A rescaled sub-transform of size m reads
its constants once, as the lists of Python floats of
:meth:`ScaleTables.scalars(m) <fastdcst.scale_factors.ScaleTables.scalars>`,
where each t-factor is one real number c: t = 1 + i*c for k <= m/8,
and -(c + i) above, whose sign the products absorb.  Loop iterations k = 0
and k = N/8 are peeled: their constants are structurally trivial (1 and
1-i) and must not reach a multiplier, otherwise the counts above are
unachievable.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .flops import FlopLedger, checked_log2
from .scale_factors import ScaleTables, unit_root

__all__ = ["fft_conjpair", "fft_scaled", "fft_scaled4"]

_RT_HALF = math.sqrt(0.5)

# sub-transform variant called for the even half, per variant:
# plain->plain, /s(N,k) -> /s(2*(N/2),k), /s(2N,k) -> /s(4*(N/2),k),
# /s(4N,k) -> /s(2*(N/2),k)
_SUBTYPE = {0: 0, 1: 2, 2: 4, 4: 2}


def _cmul(a, b, zr, zi, led):
    # multiply by a general precomputed complex constant: 4 mults + 2 adds
    led.mults += 4
    led.adds += 2
    return a * zr - b * zi, a * zi + b * zr


@lru_cache(maxsize=None)
def _omega(n):
    # twiddles for the standard kernel, one quarter period
    return tuple(unit_root(k, n) for k in range(max(n // 4, 1)))


def _gather(xr, xi, n, q):
    er, ei = xr[0::2], xi[0::2]
    z1r = [xr[(4 * j + 1) % n] for j in range(q)]
    z1i = [xi[(4 * j + 1) % n] for j in range(q)]
    z2r = [xr[(4 * j - 1) % n] for j in range(q)]
    z2i = [xi[(4 * j - 1) % n] for j in range(q)]
    return er, ei, z1r, z1i, z2r, z2i


def _fft_std_lanes(xr, xi, led):
    n = len(xr)
    if n == 1:
        return list(xr), list(xi)
    if n == 2:
        led.adds += 4
        return (
            [xr[0] + xr[1], xr[0] - xr[1]],
            [xi[0] + xi[1], xi[0] - xi[1]],
        )
    q = n // 4
    h = n // 2
    er, ei, z1r, z1i, z2r, z2i = _gather(xr, xi, n, q)
    ur, ui = _fft_std_lanes(er, ei, led)
    zr, zi = _fft_std_lanes(z1r, z1i, led)
    gr, gi = _fft_std_lanes(z2r, z2i, led)
    w = _omega(n)
    outr, outi = [None] * n, [None] * n
    e = n // 8
    for k in range(q):
        if k == 0:
            led.adds += 4
            ar = zr[0] + gr[0]
            ai = zi[0] + gi[0]
            br = zr[0] - gr[0]
            bi = zi[0] - gi[0]
        elif k == e:
            # twiddle (1 -+ i)/sqrt(2): two products share the 1/sqrt(2)
            led.mults += 4
            led.adds += 8
            w1r = (zr[k] + zi[k]) * _RT_HALF
            w1i = (zi[k] - zr[k]) * _RT_HALF
            w2r = (gr[k] - gi[k]) * _RT_HALF
            w2i = (gi[k] + gr[k]) * _RT_HALF
            ar = w1r + w2r
            ai = w1i + w2i
            br = w1r - w2r
            bi = w1i - w2i
        else:
            c = w[k]
            w1r, w1i = _cmul(c.real, c.imag, zr[k], zi[k], led)
            w2r, w2i = _cmul(c.real, -c.imag, gr[k], gi[k], led)
            led.adds += 4
            ar = w1r + w2r
            ai = w1i + w2i
            br = w1r - w2r
            bi = w1i - w2i
        led.adds += 8
        outr[k] = ur[k] + ar
        outi[k] = ui[k] + ai
        outr[k + h] = ur[k] - ar
        outi[k + h] = ui[k] - ai
        outr[k + q] = ur[k + q] + bi
        outi[k + q] = ui[k + q] - br
        outr[k + 3 * q] = ur[k + q] - bi
        outi[k + 3 * q] = ui[k + q] + br
    return outr, outi


def _fft_scaled_lanes(typ, xr, xi, tab, led):
    n = len(xr)
    if n == 1:
        return list(xr), list(xi)
    if n == 2:
        led.adds += 4
        ar, ai = xr[0] + xr[1], xi[0] + xi[1]
        br, bi = xr[0] - xr[1], xi[0] - xi[1]
        if typ == 4:  # divide bin 1 by scale(8, 1)
            f = tab.inv_s8_1
            led.mults += 2
            br, bi = f * br, f * bi
        return [ar, br], [ai, bi]
    q = n // 4
    h = n // 2
    e = n // 8
    er, ei, z1r, z1i, z2r, z2i = _gather(xr, xi, n, q)
    ur, ui = _fft_scaled_lanes(_SUBTYPE[typ], er, ei, tab, led)
    zr, zi = _fft_scaled_lanes(1, z1r, z1i, tab, led)
    gr, gi = _fft_scaled_lanes(1, z2r, z2i, tab, led)
    lv = tab.scalars(n)
    outr, outi = [None] * n, [None] * n
    for k in range(q):
        if k == 0:
            led.adds += 4
            wr = zr[0] + gr[0]
            wi = zi[0] + gi[0]
            vr = zr[0] - gr[0]
            vi = zi[0] - gi[0]
        elif k == e:
            # t = 1 - i exactly: both products are pure additions
            led.adds += 8
            pr = zr[k] + zi[k]
            pi = zi[k] - zr[k]
            qr = gr[k] - gi[k]
            qi = gi[k] + gr[k]
            wr = pr + qr
            wi = pi + qi
            vr = pr - qr
            vi = pi - qi
        else:
            # z times t and g times conj(t): t = 1 + i*c below N/8, and
            # -(c + i) above, its sign absorbed, never an instruction
            c = lv.coef[k]
            nc = -c
            led.mults += 4
            led.adds += 8
            if k < e:
                pr, pi = zr[k] - c * zi[k], zi[k] + c * zr[k]
                qr, qi = gr[k] - nc * gi[k], gi[k] + nc * gr[k]
            else:
                pr, pi = -(c * zr[k] - zi[k]), -(c * zi[k] + zr[k])
                qr, qi = nc * gr[k] - gi[k], nc * gi[k] + gr[k]
            wr = pr + qr
            wi = pi + qi
            vr = pr - qr
            vi = pi - qi

        if typ == 4:
            led.adds += 8
            if k == 0:  # s(n,0)/s(4n,0) = 1
                outr[0] = ur[0] + wr
                outi[0] = ui[0] + wi
                led.mults += 6
            else:
                r0 = lv.ratio4[0][k]
                led.mults += 8
                outr[k] = r0 * (ur[k] + wr)
                outi[k] = r0 * (ui[k] + wi)
            r1 = lv.ratio4[1][k]
            r2 = lv.ratio4[2][k]
            r3 = lv.ratio4[3][k]
            outr[k + h] = r2 * (ur[k] - wr)
            outi[k + h] = r2 * (ui[k] - wi)
            outr[k + q] = r1 * (ur[k + q] + vi)
            outi[k + q] = r1 * (ui[k + q] - vr)
            outr[k + 3 * q] = r3 * (ur[k + q] - vi)
            outi[k + 3 * q] = r3 * (ui[k + q] + vr)
            continue

        if typ == 0:
            if k != 0:  # s(n, 0) = 1 stays out of the multiplier
                c = lv.s[k]
                led.mults += 4
                wr, wi = c * wr, c * wi
                vr, vi = c * vr, c * vi
        elif typ == 2:
            if k == 0:  # ratio on the W side is 1, the V side is not
                rb = lv.ratio2b[0]
                led.mults += 2
                vr, vi = rb * vr, rb * vi
            else:
                ra = lv.ratio2a[k]
                rb = lv.ratio2b[k]
                led.mults += 4
                wr, wi = ra * wr, ra * wi
                vr, vi = rb * vr, rb * vi
        led.adds += 8
        outr[k] = ur[k] + wr
        outi[k] = ui[k] + wi
        outr[k + h] = ur[k] - wr
        outi[k + h] = ui[k] - wi
        outr[k + q] = ur[k + q] + vi
        outi[k + q] = ui[k + q] - vr
        outr[k + 3 * q] = ur[k + q] - vi
        outi[k + 3 * q] = ui[k + q] + vr
    return outr, outi


def _split_lanes(x):
    xs = [complex(v) for v in x]
    return [v.real for v in xs], [v.imag for v in xs]


def _join_lanes(res):
    return [complex(r, i) for r, i in zip(*res)]


def fft_conjpair(x, ledger: FlopLedger | None = None) -> list[complex]:
    """Unnormalized DFT by the conjugate-pair split-radix recursion."""
    xr, xi = _split_lanes(x)
    checked_log2(len(xr), lowest=1)
    led = ledger if ledger is not None else FlopLedger()
    return _join_lanes(_fft_std_lanes(xr, xi, led))


def fft_scaled(
    x, level: int, tables: ScaleTables, ledger: FlopLedger | None = None
) -> list[complex]:
    """DFT with output bin k divided by ``scale(level*N, k)``.

    ``level`` 0 yields the plain (unscaled) DFT at the reduced flop count;
    levels 1 and 2 are the internally used rescaled variants, exposed
    because their outputs are meaningful transforms in their own right.
    """
    if level not in (0, 1, 2):
        raise ValueError(f"level must be 0, 1 or 2, got {level!r}")
    return _scaled(level, x, tables, ledger)


def fft_scaled4(
    x, tables: ScaleTables, ledger: FlopLedger | None = None
) -> list[complex]:
    """DFT with output bin k divided by ``scale(4*N, k)``."""
    return _scaled(4, x, tables, ledger)


def _scaled(typ, x, tables, ledger):
    xr, xi = _split_lanes(x)
    n = len(xr)
    checked_log2(n, lowest=1)
    if not tables.supports(n):
        raise ValueError(f"tables built for size {tables.size} cannot serve {n}")
    led = ledger if ledger is not None else FlopLedger()
    return _join_lanes(_fft_scaled_lanes(typ, xr, xi, tables, led))
