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

At N <= :data:`PLAN_MAX_SIZE` a configuration (kernel, normalization,
table set) that has been called :data:`PLAN_AFTER_CALLS` times records
the whole kernel once as a linear network, its *plan*, and runs every
later call as that network's compiled codelet, with the same output
bits and the same ledger.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

from . import scale_factors as sf
from .fft_real import _rfft_scaled_lanes, _rfft_std_lanes
from .flops import FlopLedger, checked_log2
from .scale_factors import ScaleTables, unit_root
from .transpose_net import record

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


# Plans are built for sizes up to PLAN_MAX_SIZE, on a configuration's
# PLAN_AFTER_CALLS-th call.  Building one costs about 100 to 160 scalar
# calls, so a configuration called only a few times (one `fastdcst verify`
# calls each twice) never pays for it; and plans for N=32 and N=64 held
# after a `verify --max-size 64` sweep cost about 10% more peak memory.
PLAN_MAX_SIZE = 16
PLAN_AFTER_CALLS = 128


def _counted(net, led, what):
    # a network's structural count must equal the ledger of the kernel it records
    if net.structural_flops() != led.as_tuple():
        raise RuntimeError(
            f"recorded network disagrees with the kernel ledger {what}: "
            f"{net.structural_flops()} vs {led.as_tuple()}"
        )
    return net


def _planned(tab, key, xs, led, lanes, *args):
    """``lanes(xs, *args, led)``, or the plan it becomes for ``tab.plans[key]``.

    ``tab.plans[key]`` counts the calls until the PLAN_AFTER_CALLS-th,
    which records the plan from the constants of ``tab`` itself.  Threads
    that race here may lose a count or record the same plan twice, but a
    plan is stored only once it is complete.
    """
    n = len(xs)
    if n > PLAN_MAX_SIZE:
        return lanes(xs, *args, led)
    plan = tab.plans.get(key, 0)
    if type(plan) is int:
        if plan + 1 < PLAN_AFTER_CALLS:
            tab.plans[key] = plan + 1
            return lanes(xs, *args, led)
        rec = FlopLedger()
        plan = _counted(record(lambda ins: lanes(ins, *args, rec), n), rec,
                        f"of {key} at size {n}")
        tab.plans[key] = plan
    return plan.eval(xs, led)


def _check_input(x):
    xs = list(map(float, x))
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
    key = norm.value
    if len(xs) > PLAN_MAX_SIZE:  # no plan, so no tables to keep one on
        return _dct2_classic_lanes(xs, key, led)
    return _planned(sf.build_tables(len(xs)), ("dct2_classic", key), xs, led,
                    _dct2_classic_lanes, key)


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
    key = norm.value
    return _planned(tab, ("dct2_new", key), xs, led, _dct2_new_lanes, key, tab)


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
    values = _planned(tab, ("dct2_scaled",), xs, led, _dct2_scaled_lanes, tab)
    return ScaledDctOutput(values=values, scales=list(tab.dct_scales))
