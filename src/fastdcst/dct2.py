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

Repeated calls run on networks recorded from the kernels themselves, with
the same output bits and the same ledger.  At N <= :data:`PLAN_MAX_SIZE`
a configuration (kernel, normalization, table set) that has been called
:data:`PLAN_AFTER_CALLS` times records the whole kernel once as a linear
network, its *plan*, and runs every later call as that network's
compiled codelet.  Above :data:`PLAN_MAX_SIZE`, from a configuration's
second call on, the forward kernels run their real DFT as a recorded
network (a codelet or a vertex-major numpy program, by edge count): the
rescaled one for ``dct2_new``, ``dct2_scaled`` and ``dst2_new`` (the same
recording whose transpose the DCT-III runs), one per table set, and the
plain one for ``dct2_classic``, one per size.  ``dct2_classic`` runs
``dct2_new``'s kernel on its per-size state (:func:`_classic_state`) in
place of a table set: the plain real DFT and the stage constants
2*unit_root(k, 4N).

Every call that is not a plan runs array-in, array-out: one float64
array from the input, numpy indexing for the even/odd reorder, and an
output stage of elementwise expressions that keep the scalar formula's
float operations in its order, so no bit changes; the caller gets a list.
A call that runs no network (a forward kernel's first call) computes the
real DFT itself: by the breadth-first row recursion of
:mod:`fastdcst.fft_real` from :data:`ROWS_MIN_SIZE` on, and by the scalar
recursion below it, with the same bits either way.  A spectrum network
is recorded from the row recursion on one traced row
(:func:`~fastdcst.transpose_net.record_rows`); a plan records the whole
kernel on object arrays of ``TraceScalar``, and runs its codelet on
Python floats.
"""

from __future__ import annotations

import enum
import threading
from array import array
from dataclasses import dataclass
from functools import lru_cache, partial
from types import SimpleNamespace

import numpy as np

from . import scale_factors as sf
from .fft_real import (
    _rfft_scaled_lanes,
    _rfft_scaled_rows,
    _rfft_std_lanes,
    _rfft_std_rows,
    pack_lanes,
)
from .flops import FlopLedger, checked_log2
from .scale_factors import ScaleTables
from .transpose_net import record, record_rows

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

    Pure data movement (zero flops).  Length must be even.  An array
    gives an array, any other sequence a list.
    """
    n = len(x)
    if n % 2:
        raise ValueError(f"length must be even, got {n}")
    xs = np.asarray(x)
    out = np.concatenate((xs[0::2], xs[::-2]))
    return out if xs is x else out.tolist()


@lru_cache(maxsize=sf.CACHED_SIZES)
def _classic_state(n):
    # what dct2_classic keeps per size in place of a table set, which would
    # cost a build it never reads: its output-stage constants 2*unit_root(k,
    # 4N) folded per normalization, the plain twiddles of the row kernel,
    # and its call counts, plans and plain spectrum network.  All are first-
    # octant entries of one trig row of size 4N, whose argument 2*pi*j/(4N)
    # rounds exactly like unit_root's: the stage takes k < N/2, and level m
    # of the row kernel takes unit_root(k, m) for k = 1 .. m/8 - 1 as the
    # columns (re, im, -im), at stride 4N/m
    cos, sin = sf._trig_row(4 * n)
    h = n // 2
    stage = sf.dct_stage(n, 2.0 * (cos[:h] - 1j * sin[:h]))
    twiddles = {}
    for m in sf._levels(16, n):
        c, s = cos[::4 * n // m][1:m >> 3], sin[::4 * n // m][1:m >> 3]
        twiddles[m] = (c, -s, s)
    return SimpleNamespace(size=n, plans={}, dct_stage=stage.__getitem__, twiddles=twiddles)


def _rotate(stage, led, u0, uh, u, v):
    # the DCT-II output stage on bins 0 and N/2 (u0, uh) and on the pairs
    # (u[k-1], v[k-1]) of bins k = 1 .. N/2-1; the DCT-III runs it on its
    # input pairs x[k], x[N-k], as the transpose
    c0, ch, a, b = stage
    a, b = a[1:], b[1:]
    if c0 is not None:
        led.mults += 2
        u0, uh = c0 * u0, ch * uh
    led.mults += 4 * len(u)
    led.adds += 2 * len(u)
    return u0, uh, a * u - b * v, -(b * u + a * v)


def _stage_outputs(stage, z, led):
    # DCT-II outputs from the spectrum lanes z of pack_lanes
    n = len(z)
    h = n // 2
    out = np.empty_like(z)
    out[0], out[h], out[1:h], out[n - 1:h:-1] = _rotate(
        stage, led, z[0], z[n - 1], z[1:n - 1:2], z[2:n - 1:2])
    return out


def _real_dft(tab):
    # (name, lanes(xs, led), rows(x, led)) of tab's real DFT, the scalar
    # recursion on a list and the row recursion on a 2-D block: the rescaled
    # one from the constants of a table set (as fft_real.half_spectrum_lanes),
    # the plain split-radix one for a _classic_state
    if isinstance(tab, ScaleTables):
        return ("rescaled", lambda xs, led: _rfft_scaled_lanes(1, xs, tab, led),
                lambda x, led: _rfft_scaled_rows(1, x, tab, led))
    return "plain", _rfft_std_lanes, lambda x, led: _rfft_std_rows(x, tab.twiddles, led)


# A call that runs no network (a forward kernel's first call above
# PLAN_MAX_SIZE, or a call at N <= PLAN_MAX_SIZE before its plan) takes the
# real DFT breadth first, as rows, from this size on, and the scalar
# recursion below it.  On cached tables (2-CPU Xeon, Python 3.11, numpy
# 2.4, medians of 31 interleaved calls) the rescaled real DFT took 0.36
# against 0.93 ms as rows at N=128, 0.50 against 1.15 at N=256, 0.92 against
# 0.97 at N=512, 2.2 against 1.3 at N=1024 and 16.3 against 3.2 at N=4096;
# the plain one 0.32 against 0.53 at N=128, 0.41 against 0.40 at N=256,
# 0.83 against 0.45 at N=512 and 14.0 against 1.6 at N=4096.  From N=512 on
# the rows are level or ahead for both.
ROWS_MIN_SIZE = 512


def _spectrum(x, tab, led, net=None):
    # the real DFT of tab (see _real_dft) on the array x, in the lanes of
    # pack_lanes, as an array of its dtype; run as net if given
    if net is not None:
        return net.eval(x, led)
    _, lanes, rows = _real_dft(tab)
    if len(x) >= ROWS_MIN_SIZE:
        return rows(x[None], led)[0]
    lanes = pack_lanes(*lanes(x.tolist(), led))
    return np.fromiter(lanes, x.dtype, len(lanes))


def _dct2_new_lanes(xs, norm_key, tab, led, net=None):
    z = _spectrum(reorder_even_odd(xs), tab, led, net)
    return _stage_outputs(tab.dct_stage(norm_key), z, led)


def _dct2_scaled_lanes(xs, tab, led, net=None):
    z = _spectrum(reorder_even_odd(xs), tab, led, net)
    n = len(z)
    h = n // 2
    rr, ri = z[1:n - 1:2], z[2:n - 1:2]
    t = tab.scaled_stage_tan[1:]
    led.mults += 2 * len(t)
    led.adds += 2 * len(t)
    out = np.empty_like(z)
    out[0], out[h] = z[0], z[n - 1]
    out[1:h] = rr + t * ri
    out[n - 1:h:-1] = t * rr - ri
    return out


# Plans are built for sizes up to PLAN_MAX_SIZE, on a configuration's
# PLAN_AFTER_CALLS-th call.  Recording and compiling a dct2_new plan takes
# 0.4/0.7/1.3 ms at N=4/8/16, the time of 30 to 50 scalar calls (13/17/27 us
# each), and a DCT-III plan 0.3/0.5/1.1 ms, 35 to 110 of its faster scalar
# calls (2-CPU Xeon, medians).  Any value above 2 keeps a one-shot
# `fastdcst verify`, which calls each configuration twice, free of plans;
# 128 leaves a configuration called only a few dozen times free of them
# too.  Plans for N=32 and N=64 held after a `verify --max-size 64` sweep
# cost about 10% more peak memory, so they stop at N=16.
# Above PLAN_MAX_SIZE the forward kernels run their real DFT as a network
# from a configuration's second call on; the first call computes it
# directly, so a one-shot call pays no record.
PLAN_MAX_SIZE = 16
PLAN_AFTER_CALLS = 128
_COUNT_LOCK = threading.Lock()


def _counted(net, led, what):
    # a network's structural count must equal the ledger of the kernel it records
    if net.structural_flops() != led.as_tuple():
        raise RuntimeError(
            f"recorded network disagrees with the kernel ledger {what}: "
            f"{net.structural_flops()} vs {led.as_tuple()}"
        )
    return net


def _spectrum_net(tab):
    """The real DFT of ``tab`` (see :func:`_real_dft`) as a network, kept
    in ``tab.plans``; lanes as in :func:`fastdcst.fft_real.pack_lanes`.
    Recorded on first use (:func:`_record_spectrum`).
    """
    net = tab.plans.get("spectrum")
    if net is None:
        net = tab.plans["spectrum"] = _record_spectrum(tab)
    return net


def _record_spectrum(tab):
    # the row recursion of tab's real DFT recorded on one traced row, its
    # structural count checked against the kernel's ledger
    name, _, rows = _real_dft(tab)
    rec = FlopLedger()
    net = record_rows(lambda ins: rows(ins[None], rec), tab.size)
    return _counted(net, rec, f"of the {name} real DFT at size {tab.size}")


def _planned(tab, key, xs, led, lanes, *args, forward=False):
    """``lanes(xs, *args, led)``, or what repeated calls make of it, as a list.

    ``xs`` comes from :func:`_check_input`.  At N <= PLAN_MAX_SIZE it is
    a list, and ``tab.plans[key]`` counts the calls until the
    PLAN_AFTER_CALLS-th, which records the plan from the constants of
    ``tab`` itself; a plan runs on the list ``xs`` and ``lanes`` on it as
    a float64 array.  Above PLAN_MAX_SIZE ``xs`` is that array already;
    the first call of a ``forward`` kernel marks ``key`` in ``tab.plans``,
    and from the second call on ``lanes`` gets the real DFT of ``tab`` as
    the network of :func:`_spectrum_net`, in ``net``.  The count is kept
    under a lock, taken only while the entry is still a count, so a plan's
    calls take none.  Threads that race on a spectrum network may record
    it twice, but a network is stored only once it is complete.
    """
    n = len(xs)
    if n <= PLAN_MAX_SIZE:
        plan = tab.plans.get(key, 0)
        if type(plan) is int:
            with _COUNT_LOCK:
                plan = tab.plans.get(key, 0)
                if type(plan) is int and plan + 1 < PLAN_AFTER_CALLS:
                    tab.plans[key] = plan + 1
                elif type(plan) is int:
                    rec = FlopLedger()
                    plan = tab.plans[key] = _counted(
                        record(lambda ins: lanes(ins, *args, rec), n), rec, f"of {key} at size {n}")
        if type(plan) is not int:
            return plan.eval(xs, led)
        xs = np.fromiter(xs, np.float64, n)
    elif forward:
        if key in tab.plans:
            lanes = partial(lanes, net=_spectrum_net(tab))
        else:
            tab.plans[key] = 0
    # as on Python floats, an overflow or inf - inf gives its IEEE result silently
    with np.errstate(over="ignore", invalid="ignore"):
        return lanes(xs, *args, led).tolist()


def _check_input(x):
    """The samples of ``x`` as by ``float()``: a list at N <= PLAN_MAX_SIZE,
    where plans run on Python floats, and a float64 array above it.

    At N <= PLAN_MAX_SIZE each sample goes through ``float()``.  Above it
    a list or tuple is converted in one pass by ``array("d")``, which
    reads each sample as ``float()`` does (but a float subclass by its
    value, not by an overriding ``__float__``), and a 1-D array of bools,
    integers or floats by ``astype``, which rounds each sample as
    ``float()`` does.  A sample that pass refuses with ``TypeError`` (a
    string, ``None``, a complex number) sends the whole input through
    ``float()``, which then accepts it or raises its own exception.  Any
    other iterable, a generator too, goes through ``float()`` once.
    """
    xs = None
    if type(x) in (list, tuple):
        if len(x) > PLAN_MAX_SIZE:
            try:
                xs = np.frombuffer(array("d", x))
            except TypeError:
                pass
    elif isinstance(x, np.ndarray):
        # float() would only warn on the elements of a complex array, and
        # drop their imaginary parts
        if x.dtype.kind == "c":
            raise TypeError(f"samples must be real numbers, not {x.dtype}")
        if x.ndim == 1 and x.dtype.kind in "biuf" and len(x) > PLAN_MAX_SIZE:
            xs = x.astype(np.float64)
    if xs is None:
        xs = list(map(float, x))
        if len(xs) > PLAN_MAX_SIZE:
            xs = np.fromiter(xs, np.float64, len(xs))
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
    tab = _classic_state(len(xs))
    return _planned(tab, ("dct2_classic", key), xs, led, _dct2_new_lanes, key, tab, forward=True)


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
    """DCT-II via the rescaled real-input DFT (record flop count).

    ``x`` is a sequence whose length is a power of two, at least 2;
    otherwise ``ValueError``.  Each sample is read as ``float()`` reads it
    (see :func:`_check_input`), so bools and numeric strings are read as
    their float values, a complex sample or array, ``None``, a nested list
    or the rows of a 2-D array raise ``TypeError``, and a non-numeric
    string ``ValueError``.  Sample values are not checked: NaN and
    infinities give their IEEE results, with no warning (a NaN anywhere
    makes every output NaN, an infinity makes every output infinite or
    NaN).  A configuration's first and later calls agree bit for bit on
    finite input only: a NaN output's sign bit can differ between them.
    The other cosine/sine transforms answer bad input the same way.
    """
    xs, tab = _prep(x, tables)
    led = ledger if ledger is not None else FlopLedger()
    key = norm.value
    return _planned(tab, ("dct2_new", key), xs, led, _dct2_new_lanes, key, tab, forward=True)


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
    values = _planned(tab, ("dct2_scaled",), xs, led, _dct2_scaled_lanes, tab, forward=True)
    return ScaledDctOutput(values=values, scales=list(tab.dct_scales))
