"""Type-II DCT kernels.

Both fast algorithms reduce the DCT-II to one real-input DFT of the same
length: permute the input to even-indexed samples followed by the
odd-indexed samples in reverse, transform, then rotate each spectrum bin
by a quarter-period twiddle.  ``dct2_classic`` uses the plain split-radix
real DFT and matches the long-standing 2*N*lg(N) - N + 2 count;
``dct2_new`` feeds the rescaled real DFT and folds the scale factors into
the output-stage constants, which removes half of M_S(N) flops;
``dct2_scaled`` additionally leaves each output divided by its known
positive diagonal, trading N more multiplications away (the generalized
form of the classic scaled 8-point DCT used by JPEG quantizers).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

from . import scale_factors as sf
from .fft_real import _rfft_scaled_lanes, _rfft_std_lanes
from .flops import FlopLedger, checked_log2
from .scale_factors import ScaleTables, unit_root

__all__ = [
    "Normalization",
    "ScaledDctOutput",
    "reorder_even_odd",
    "dct2_classic",
    "dct2_new",
    "dct2_scaled",
]


class Normalization(enum.Enum):
    """Output scaling conventions for the cosine/sine transforms.

    TWO_SIDED puts a plain factor 2 on every sum (the DFT-compatible
    choice), UNITARY makes the transform orthogonal, UNITARY_SQRT_N is
    the unitary transform multiplied by sqrt(N) -- that variant makes the
    k = 0 and k = N/2 stage constants equal to one and saves two
    multiplications.
    """

    TWO_SIDED = sf.NORM_TWO_SIDED
    UNITARY = sf.NORM_UNITARY
    UNITARY_SQRT_N = sf.NORM_UNITARY_SQRT_N


@dataclass(frozen=True)
class ScaledDctOutput:
    """Rescaled DCT-II result: ``values[k] * scales[k]`` is the two-sided
    DCT-II, with ``scales[k] = 2 * scale(4N, k)`` strictly positive."""

    values: list
    scales: list


def reorder_even_odd(x):
    """Even-indexed entries, then the odd-indexed entries reversed.

    Pure data movement (zero flops).  Length must be even.
    """
    n = len(x)
    if n % 2:
        raise ValueError(f"length must be even, got {n}")
    out = list(x[0::2])
    out.extend(x[1::2][::-1])
    return out


@lru_cache(maxsize=sf.CACHED_SIZES)
def _classic_stage(n):
    # output-stage constants 2*unit_root(k, 4N) folded per normalization
    return sf.dct_stage(n, [2.0 * unit_root(k, 4 * n) for k in range(n // 2)])


def _stage_outputs(stage, rr, ri, n, led):
    h = n // 2
    out = [None] * n
    c0, ch, pairs = stage
    if c0 is None:
        out[0] = rr[0]
        out[h] = rr[h]
    else:
        led.mults += 2
        out[0] = c0 * rr[0]
        out[h] = ch * rr[h]
    for k in range(1, h):
        a, b = pairs[k]
        led.mults += 4
        led.adds += 2
        out[k] = a * rr[k] - b * ri[k]
        out[n - k] = -(b * rr[k] + a * ri[k])
    return out


def _dct2_classic_lanes(xs, norm_key, led):
    n = len(xs)
    rr, ri = _rfft_std_lanes(reorder_even_odd(xs), led)
    return _stage_outputs(_classic_stage(n)[norm_key], rr, ri, n, led)


def _dct2_new_lanes(xs, norm_key, tab, led):
    n = len(xs)
    rr, ri = _rfft_scaled_lanes(1, reorder_even_odd(xs), tab, led)
    return _stage_outputs(tab.dct_stage(norm_key), rr, ri, n, led)


def _dct2_scaled_lanes(xs, tab, led):
    n = len(xs)
    h = n // 2
    rr, ri = _rfft_scaled_lanes(1, reorder_even_odd(xs), tab, led)
    out = [None] * n
    out[0] = rr[0]
    out[h] = rr[h]
    taus = tab.scaled_stage_tan
    for k in range(1, h):
        t = taus[k]
        led.mults += 2
        led.adds += 2
        out[k] = rr[k] + t * ri[k]
        out[n - k] = t * rr[k] - ri[k]
    return out


def _check_input(x):
    xs = [float(v) for v in x]
    checked_log2(len(xs), lowest=2)
    return xs


def dct2_classic(
    x,
    norm: Normalization = Normalization.TWO_SIDED,
    ledger: FlopLedger | None = None,
):
    """DCT-II via the plain real-input split-radix DFT."""
    xs = _check_input(x)
    led = ledger if ledger is not None else FlopLedger()
    return _dct2_classic_lanes(xs, norm.value, led)


def _prep(x, tables):
    # the DCT output stage is root-size specific, so an exact match is
    # required (sub-level kernel tables alone are not enough)
    xs = _check_input(x)
    if tables is None:
        tables = sf.build_tables(len(xs))
    elif tables.size != len(xs):
        raise ValueError(f"tables built for size {tables.size}, transform is {len(xs)}")
    return xs, tables


def dct2_new(
    x,
    norm: Normalization = Normalization.TWO_SIDED,
    tables: ScaleTables | None = None,
    ledger: FlopLedger | None = None,
):
    """DCT-II via the rescaled real-input DFT (record flop count)."""
    xs, tab = _prep(x, tables)
    led = ledger if ledger is not None else FlopLedger()
    return _dct2_new_lanes(xs, norm.value, tab, led)


def dct2_scaled(
    x, tables: ScaleTables | None = None, ledger: FlopLedger | None = None
) -> ScaledDctOutput:
    """DCT-II with every output divided by its diagonal 2*scale(4N, k).

    The output stage multiplies by unit-component constants instead of
    full twiddles, saving exactly N multiplications over :func:`dct2_new`;
    the diagonal is returned so it can be folded downstream (e.g. into a
    quantization table).
    """
    xs, tab = _prep(x, tables)
    led = ledger if ledger is not None else FlopLedger()
    values = _dct2_scaled_lanes(xs, tab, led)
    return ScaledDctOutput(values=values, scales=list(tab.dct_scales))
