"""How the public cosine/sine transforms answer bad input, on every path.

Each sample goes through ``float()``: what it accepts is read as that
float, what it rejects raises its exception before any arithmetic.  NaN
and infinities are not checked; they give their IEEE results, with no
warning.  Each response is pinned on the scalar path (N=4) and on the
array path (N=256) on a configuration's first and later calls.
"""

import math
import warnings

import numpy as np
import pytest

from fastdcst import (
    FlopLedger,
    LinearNetwork,
    Normalization,
    ScaleTables,
    ScaledDctOutput,
    dct2,
    dct2_classic,
    dct2_new,
    dct2_scaled,
    dct3_new,
    dst2_new,
    dst3_new,
)

FUNCS = [dct2_classic, dct2_new, dct2_scaled, dct3_new, dst2_new, dst3_new]
SIZES = [4, 256]


def _calls(fn, n):
    """fn on fresh tables: call 1 is a configuration's first, call 2 a later one."""
    dct2._classic_state(n).plans.clear()
    tab = ScaleTables(n)

    def call(x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if fn is dct2_classic:
                out = fn(x, Normalization.UNITARY)
            elif fn is dct2_scaled:
                out = fn(x, tab)
            else:
                out = fn(x, Normalization.UNITARY, tab)
        return np.array(out.values if isinstance(out, ScaledDctOutput) else out)

    return call


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("fn", FUNCS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("make,error", [
    (lambda n: [[0.5, -0.5]] * n, TypeError),
    (lambda n: np.full((n, 2), 0.5), TypeError),
    (lambda n: [0.5] * (n - 1) + [0.5 + 1j], TypeError),
    (lambda n: np.full(n, 0.5 + 1j), TypeError),
    (lambda n: [0.5] * (n - 1) + [None], TypeError),
    (lambda n: ["0.5"] * (n - 1) + ["half"], ValueError),
    (lambda n: [0.5] * (n - 1), ValueError),
], ids=["nested-list", "2d-array", "complex", "complex-array", "none", "non-numeric-string",
     "length"])
def test_rejected_input_raises_on_every_call(fn, n, make, error):
    call = _calls(fn, n)
    for _ in range(2):
        with pytest.raises(error):
            call(make(n))


def _floats(n):
    return [0.5 * (-1) ** i + i / n for i in range(n)]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("fn", FUNCS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("spelled,floats", [
    (lambda n: [i % 3 == 0 for i in range(n)], lambda n: [float(i % 3 == 0) for i in range(n)]),
    (lambda n: [repr(v) for v in _floats(n)], _floats),
], ids=["bool", "numeric-string"])
def test_what_float_accepts_is_read_as_that_float(fn, n, spelled, floats):
    call = _calls(fn, n)
    for _ in range(2):
        assert call(spelled(n)).tobytes() == call(floats(n)).tobytes()


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("fn", FUNCS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("value,at", [
    (math.nan, 0), (math.nan, -1), (math.inf, 0), (-math.inf, -1), (math.inf, 1),
], ids=["nan-first", "nan-last", "inf-first", "-inf-last", "inf-second"])
def test_non_finite_samples_propagate_silently(fn, n, value, at):
    x = _floats(n)
    x[at] = value
    call = _calls(fn, n)
    first, later = call(x), call(x)
    # every output depends on every sample: a NaN reaches all of them, an
    # infinity makes each one infinite or NaN (inf - inf)
    if math.isnan(value):
        assert np.isnan(first).all()
    else:
        assert not np.isfinite(first).any()
    assert np.array_equal(first, later, equal_nan=True)


@pytest.mark.parametrize("fn", FUNCS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("spelled", [
    list, tuple, lambda x: (v for v in x), lambda x: (repr(v) if i == 7 else v
                                                      for i, v in enumerate(x)),
    lambda x: np.array(x), lambda x: np.array(x, np.float32), lambda x: np.array(x, np.int64),
    lambda x: np.array(x, bool), lambda x: np.array(x)[::-1][::-1],
], ids=["list", "tuple", "generator", "generator-with-numeric-string", "float64-array",
        "float32-array", "int64-array", "bool-array", "strided-array"])
def test_every_input_kind_is_read_as_float_would(fn, spelled):
    # above PLAN_MAX_SIZE lists, tuples and real arrays are converted in one
    # pass, any other iterable through float(); each must read as float()
    n = 256
    x = [v * 1000.0 for v in _floats(n)]
    x[::5] = [0.0] * len(x[::5])
    x[1::7] = [-0.0] * len(x[1::7])
    call = _calls(fn, n)
    floats = list(map(float, spelled(x)))
    for _ in range(2):
        assert call(spelled(x)).tobytes() == call(floats).tobytes()


# ------------------------------------------------------------ on plan hits

PLAN_SIZES = [2, 4, 8, 16]


def _configuration(fn, n):
    """fn's configuration on fresh tables: ``run(x, tables)`` gives the
    output bytes and the ledger, and ``plans`` holds its call count and
    then its plan."""
    classic = dct2._classic_state(n)
    classic.plans.clear()
    tab = ScaleTables(n)

    def run(x, tables=tab):
        led = FlopLedger()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if fn is dct2_classic:
                out = fn(x, Normalization.UNITARY, led)
            elif fn is dct2_scaled:
                out = fn(x, tables, led)
                out = out.values + out.scales
            else:
                out = fn(x, Normalization.UNITARY, tables, led)
        return np.array(out).tobytes(), led.as_tuple()

    return run, (classic if fn is dct2_classic else tab).plans


def _warm(fn, n):
    # the configuration after PLAN_AFTER_CALLS calls, so its next call is a plan hit
    run, plans = _configuration(fn, n)
    x = _floats(n)
    for _ in range(dct2.PLAN_AFTER_CALLS):
        run(x)
    assert any(isinstance(p, LinearNetwork) for p in plans.values())
    return run


def _signed(n):
    x = [1000.0 * v for v in _floats(n)]
    x[::3] = [0.0] * len(x[::3])
    x[1::4] = [-0.0] * len(x[1::4])
    return x


@pytest.mark.parametrize("n", PLAN_SIZES)
@pytest.mark.parametrize("fn", FUNCS, ids=lambda f: f.__name__)
def test_plan_hits_read_every_input_kind_as_call_one(fn, n):
    spellings = [list, tuple, lambda x: np.array(x).astype(np.int64),
                 lambda x: np.array(x) > 0, lambda x: [repr(v) for v in x],
                 lambda x: (v for v in x)]
    x = _signed(n)
    first = [_configuration(fn, n)[0](spell(x)) for spell in spellings]
    run = _warm(fn, n)
    assert [run(spell(x)) for spell in spellings] == first


def _raised(run, x, tables):
    # tables=None: the configuration's own
    with pytest.raises((TypeError, ValueError)) as err:
        run(x) if tables is None else run(x, tables)
    return type(err.value), str(err.value)


@pytest.mark.parametrize("n", PLAN_SIZES)
@pytest.mark.parametrize("fn", FUNCS, ids=lambda f: f.__name__)
def test_plan_hits_reject_bad_input_as_call_one(fn, n):
    bad = [([0.5] * m, None) for m in (0, 1, 3, 12)]
    bad += [([[0.5, -0.5]] * n, None), ([0.5] * (n - 1) + [None], None), (None, None),
            (["0.5"] * (n - 1) + ["half"], None), (np.full(n, 0.5 + 1j), None),
            (np.full((n, 2), 0.5), None)]
    if fn is not dct2_classic:
        bad.append(([0.5] * n, ScaleTables(2 * n)))
    first = []
    for x, tables in bad:
        run, _ = _configuration(fn, n)
        first.append(_raised(run, x, tables))
    run = _warm(fn, n)
    assert [_raised(run, x, tables) for x, tables in bad] == first
