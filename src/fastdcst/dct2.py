"""Type-II DCT kernels, and the call path of all six cosine/sine transforms.

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

Each public transform is an entry of a small registry (:class:`_Kernel`),
and one call path runs them all (:func:`_transform`): read the samples,
take the table set, look the configuration (kernel, normalization, table
set) up in the table set's ``plans``.  At N <= :data:`PLAN_MAX_SIZE` a
configuration called :data:`PLAN_AFTER_CALLS` times records the whole
kernel once as a linear network, its *plan*, so each later call is one
``float()`` pass, that lookup and the plan's compiled codelet, with the
same output bits and ledger.  Above PLAN_MAX_SIZE and up to
:data:`NET_MAX_SIZE`, from a configuration's second call on, the kernels
run their real DFT as a recorded network (a codelet or a vertex-major
numpy program, by edge count): the rescaled one, one per table set, whose
transpose the DCT-III/DST-III run, and for ``dct2_classic`` the plain one,
one per size.  ``dct2_classic`` runs ``dct2_new``'s kernel on a per-size
state (:func:`_classic_state`) in place of a table set: the plain real DFT
and the stage constants 2*unit_root(k, 4N).

Every call that is not a plan runs array-in, array-out: one float64
array from the input, numpy indexing for the even/odd reorder, and an
output stage of elementwise expressions that keep the scalar formula's
float operations in its order, so no bit changes; the caller gets a list.
A call that runs no network computes the real DFT itself: by the
breadth-first row recursion of :mod:`fastdcst.fft_real` from
:data:`ROWS_MIN_SIZE` on, and by the scalar recursion below it, with the
same bits either way (the DCT-III/DST-III run the rows backwards, see
:mod:`fastdcst.trig_family`).  A spectrum network is recorded from the
rows on one traced row (:func:`~fastdcst.transpose_net.record_rows`), a
plan from the whole kernel on object arrays of ``TraceScalar``.
"""

from __future__ import annotations

import enum
import threading
from array import array
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace
from typing import Callable, NamedTuple

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
from .transpose_net import LinearNetwork, record, record_rows

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
# PLAN_MAX_SIZE, any call above NET_MAX_SIZE, or a call at N <= PLAN_MAX_SIZE
# before its plan) takes the real DFT breadth first, as rows, from this size
# on, and the scalar recursion below it; a DCT-III's first call takes the
# transposed rows from this size on, and its transposed network below it.
# On cached tables (2-CPU Xeon, Python 3.11, numpy 2.4, medians of 31
# interleaved calls) the rescaled real DFT took 0.36 against 0.93 ms as rows
# at N=128, 0.50 against 1.15 at N=256, 0.92 against 0.97 at N=512, 2.2
# against 1.3 at N=1024 and 16.3 against 3.2 at N=4096;
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


def _dct2_scaled_lanes(xs, norm_key, tab, led, net=None):
    # norm_key is unused: the scaled outputs have no normalization
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
# PLAN_AFTER_CALLS-th call.  Recording and compiling a dct2_new plan took
# 0.8/1.2/1.9 ms at N=4/8/16 and a plan hit 2.5/3.5/5.4 us against 29/37/59
# us for a call before the plan, so a plan pays after 30 to 38 calls; a
# DCT-III plan took 0.7/1.0/1.8 ms and pays after 36 to 86 of its faster
# calls (2-CPU Xeon, medians of 6 processes).  Any value above 2 keeps a
# one-shot `fastdcst verify`, which calls each configuration twice, free of
# plans; 128 leaves a configuration called only a few dozen times free of
# them too.  Plans for N=32 and N=64 held after a `verify --max-size 64` sweep
# cost about 10% more peak memory, so they stop at N=16.
# Above PLAN_MAX_SIZE every kernel runs its real DFT (or its transpose) as a
# network from a configuration's second call on, up to NET_MAX_SIZE; from
# ROWS_MIN_SIZE on the first call computes it as rows, so a one-shot call
# pays no record.
PLAN_MAX_SIZE = 16
PLAN_AFTER_CALLS = 128
_COUNT_LOCK = threading.Lock()

# Above NET_MAX_SIZE no spectrum network is recorded, and every call runs
# the real DFT (or its transpose) as rows.  Fresh processes on cached tables
# (2-CPU Xeon, Python 3.11, numpy 2.4, medians of 9) ran the rescaled real
# DFT as rows / its program in 4.2 / 1.6 ms at N=16384, 5.5 / 2.4 ms at
# 32768 and 6.8 / 9.2 ms at 65536, the transposed one in 4.2 / 1.6, 5.6 /
# 2.6 and 8.6 / 9.8 ms.  Recording, transposing and building both programs
# took 0.34, 0.73 and 1.8 s, and the process peaked at 103, 177 and 334 MB.
# So 32768 is the last size where a network still pays.
NET_MAX_SIZE = 32768


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


class _Kernel(NamedTuple):
    """A cosine/sine transform, as the call path :func:`_transform` runs it."""

    name: str  # the public name: plan keys are (name, norm value)
    lanes: Callable  # lanes(xs, norm_key, tab, led, net=None) on an array
    network: Callable  # network(tab): the net of later calls above PLAN_MAX_SIZE
    # state(n): what a call that passes no tables runs on, if not build_tables(n)
    state: Callable | None = None
    output: Callable | None = None  # output(values, tab), if not the list itself


def _transform(kernel, x, norm_key, tables, ledger):
    """``kernel`` on ``x``, as the module docstring describes.  A list or
    tuple of at most PLAN_MAX_SIZE samples is read here as by
    :func:`_check_input`.  A plan hit charges the plan's structural count
    and runs its codelet, compiled before the plan was stored, without
    :meth:`LinearNetwork.eval`'s checks; other calls go to :func:`_unplanned`."""
    if type(x) in (list, tuple) and len(x) <= PLAN_MAX_SIZE:
        xs = list(map(float, x))
        if len(xs) not in (2, 4, 8, 16):
            checked_log2(len(xs), lowest=2)
    else:
        xs = _check_input(x)
    n = len(xs)
    tab = tables
    if tab is None:
        tab = sf.build_tables(n) if kernel.state is None else kernel.state(n)
    elif tab.size != n:
        # the DCT output stage is root-size specific, so an exact match is
        # required (sub-level kernel tables alone are not enough)
        raise ValueError(f"tables built for size {tab.size}, transform is {n}")
    key = (kernel.name, norm_key)
    plan = tab.plans.get(key)
    if type(plan) is LinearNetwork:
        if ledger is not None:
            adds, mults = plan.structural_flops()
            ledger.adds += adds
            ledger.mults += mults
        values = plan._codelet(xs)
    else:
        values = _unplanned(kernel, key, xs, tab, ledger if ledger is not None else FlopLedger())
    return values if kernel.output is None else kernel.output(values, tab)


def _unplanned(kernel, key, xs, tab, led):
    """A call with no plan: ``kernel.lanes`` on ``xs`` as an array, as a list.
    At N <= PLAN_MAX_SIZE ``tab.plans[key]`` counts the calls, under a lock
    that plan hits never take, and the PLAN_AFTER_CALLS-th records the plan
    from the constants of ``tab``, compiles, stores and runs it.  Up to
    NET_MAX_SIZE the first call marks ``key``, and later ones pass
    ``kernel.network(tab)`` as ``net``.  Threads that race on a network
    may record it twice, but a network is stored only once it is complete."""
    n = len(xs)
    net = None
    if n <= PLAN_MAX_SIZE:
        with _COUNT_LOCK:
            plan = tab.plans.get(key, 0)
            if type(plan) is int and plan + 1 < PLAN_AFTER_CALLS:
                tab.plans[key] = plan + 1
            elif type(plan) is int:
                rec = FlopLedger()
                plan = _counted(record(lambda ins: kernel.lanes(ins, key[1], tab, rec), n),
                                rec, f"of {key} at size {n}")
                plan.codelet()
                tab.plans[key] = plan
        if type(plan) is not int:
            return plan.eval(xs, led)
        xs = np.fromiter(xs, np.float64, n)
    elif n <= NET_MAX_SIZE:
        if key in tab.plans:
            net = kernel.network(tab)
        else:
            tab.plans[key] = 0
    # as on Python floats, an overflow or inf - inf gives its IEEE result silently
    with np.errstate(over="ignore", invalid="ignore"):
        return kernel.lanes(xs, key[1], tab, led, net).tolist()


def _check_input(x):
    """The samples of ``x`` as by ``float()``: a list at N <= PLAN_MAX_SIZE,
    where plans run on Python floats, and a float64 array above it.

    Above PLAN_MAX_SIZE a list or tuple is converted in one pass by
    ``array("d")``, which reads each sample as ``float()`` does (but a
    float subclass by its value, not by an overriding ``__float__``), and
    a 1-D array of bools, integers or floats by ``astype``, which rounds
    each sample as ``float()`` does.  A sample that pass refuses with
    ``TypeError`` (a string, ``None``, a complex number) sends the whole
    input through ``float()``, which then accepts it or raises its own
    exception.  Any other input goes through ``float()`` once.
    """
    xs = None
    if type(x) in (list, tuple):  # longer ones: _transform reads the others
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


# build_tables and _classic_state are looked up on each call, so that a
# wrapper put on their names (a tracer's span, a test's fresh state) sees it
_DCT2_CLASSIC = _Kernel("dct2_classic", _dct2_new_lanes, _spectrum_net,
                        lambda n: _classic_state(n))
_DCT2_NEW = _Kernel("dct2_new", _dct2_new_lanes, _spectrum_net)
_DCT2_SCALED = _Kernel(
    "dct2_scaled", _dct2_scaled_lanes, _spectrum_net,
    output=lambda values, tab: ScaledDctOutput(values, list(tab.dct_scales)))


# each passes norm._value_: an attribute, where the value property costs ten times as much
def dct2_classic(x, norm: Normalization = Normalization.TWO_SIDED,
                 ledger: FlopLedger | None = None):
    """DCT-II via the plain real-input split-radix DFT."""
    return _transform(_DCT2_CLASSIC, x, norm._value_, None, ledger)


def dct2_new(x, norm: Normalization = Normalization.TWO_SIDED,
             tables: ScaleTables | None = None, ledger: FlopLedger | None = None):
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
    return _transform(_DCT2_NEW, x, norm._value_, tables, ledger)


def dct2_scaled(x, tables: ScaleTables | None = None,
                ledger: FlopLedger | None = None) -> ScaledDctOutput:
    """DCT-II with every output divided by its diagonal 2*scale(4N, k).

    The output stage multiplies by unit-component constants instead of
    full twiddles, saving exactly N multiplications over :func:`dct2_new`;
    the diagonal is returned so it can be folded downstream (e.g. into a
    quantization table).
    """
    return _transform(_DCT2_SCALED, x, None, tables, ledger)
