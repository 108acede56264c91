"""Plans: whole-kernel networks that run repeated small transforms."""

import contextlib
import math
import time
from unittest import mock

import numpy as np
import pytest
from conftest import corrupted_tables, rng
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from fastdcst import (
    FlopLedger,
    LinearNetwork,
    Normalization,
    ScaleTables,
    dct2,
    dct2_new,
    dct3_new,
    dst2_new,
    dst3_new,
    record,
    transpose_net,
)
from fastdcst.cli import _NORMS, KERNELS
from fastdcst.transpose_net import record_rows

K = dct2.PLAN_AFTER_CALLS
TRIG = [k for k in KERNELS if k.family == "trig"]
CONFIGS = [pytest.param(k, nm, id=f"{k.kind}_{k.algo}-{nm}") for k in TRIG for nm in k.norms]
SIZES = [2, 4, 8, 16]


def _signed_zeros(n, seed):
    x = rng(90, n, seed).standard_normal(n)
    x[::3] = 0.0
    x[1::4] = -0.0
    return x.tolist()


def _run(kernel, x, norm_name, tab):
    led = FlopLedger()
    out = kernel.run(x, _NORMS[norm_name], tab, led)
    return np.array(out).tobytes(), led.as_tuple()


def _tables_for(kernel, n):
    # dct2_classic keeps its plans on its own state for the size
    if kernel.algo == "classic":
        tab = dct2._classic_state(n)
        tab.plans.clear()
        return tab
    return ScaleTables(n)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kernel,norm_name", CONFIGS)
def test_plan_matches_scalar_path_bitwise(kernel, norm_name, n):
    tab = _tables_for(kernel, n)
    x = _signed_zeros(n, 0)
    first = _run(kernel, x, norm_name, tab)
    for _ in range(K - 1):
        _run(kernel, x, norm_name, tab)
    assert any(isinstance(p, LinearNetwork) for p in tab.plans.values())
    assert _run(kernel, x, norm_name, tab) == first
    zeros = [-0.0] * n
    assert _run(kernel, zeros, norm_name, tab) == _run(kernel, zeros, norm_name, ScaleTables(n))


def _configurations(tab):
    # the entries of tab.plans keyed by configuration: besides them a table
    # set keeps only its own spectrum networks, forward and transposed
    assert set(k for k in tab.plans if not isinstance(k, tuple)) <= {"spectrum", "transposed"}
    return [v for k, v in tab.plans.items() if isinstance(k, tuple)]


@pytest.mark.parametrize("kernel", [k for k in TRIG if k.algo != "classic"],
                         ids=lambda k: f"{k.kind}_{k.algo}")
def test_plan_recorded_on_the_kth_call_only(kernel):
    n, norm_name = 8, kernel.norms[-1]
    tab = ScaleTables(n)
    x = _signed_zeros(n, 1)
    with mock.patch.object(dct2, "record", wraps=record) as rec:
        for call in range(1, K):
            _run(kernel, x, norm_name, tab)
            assert rec.call_count == 0, call
            (count,) = _configurations(tab)
            assert count == call
        _run(kernel, x, norm_name, tab)
        assert rec.call_count == 1
        _run(kernel, x, norm_name, tab)
        assert rec.call_count == 1
    (plan,) = _configurations(tab)
    assert isinstance(plan, LinearNetwork)
    assert plan.structural_flops() == _run(kernel, x, norm_name, tab)[1]


def test_no_plans_above_the_size_cap():
    # above PLAN_MAX_SIZE the one record is the real DFT's network, on the
    # second call
    n = 2 * dct2.PLAN_MAX_SIZE
    tab = ScaleTables(n)
    x = _signed_zeros(n, 2)
    with mock.patch.object(dct2, "record_rows", wraps=record_rows) as rec, \
         mock.patch.object(dct2, "record", wraps=record) as plan:
        for _ in range(K + 1):
            dct2_new(x, Normalization.UNITARY, tab)
    assert (rec.call_count, plan.call_count) == (1, 0)
    assert isinstance(tab.plans.pop("spectrum"), LinearNetwork)
    assert set(tab.plans.values()) == {0}


@pytest.mark.parametrize("fn", [dct2_new, dct3_new, dst2_new, dst3_new])
def test_plan_on_bent_tables_uses_their_constants(fn):
    n = 8
    bent = corrupted_tables(n)
    x = rng(92).standard_normal(n).tolist()  # no zero hides the bent constant
    scalar = fn(x, Normalization.UNITARY, bent)
    for _ in range(K):
        fn(x, Normalization.UNITARY, bent)
    assert isinstance(bent.plans[(fn.__name__, "unitary")], LinearNetwork)
    planned = fn(x, Normalization.UNITARY, bent)
    assert np.array(planned).tobytes() == np.array(scalar).tobytes()
    assert planned != fn(x, Normalization.UNITARY, ScaleTables(n))


def test_plans_built_under_threads_agree():
    from concurrent.futures import ThreadPoolExecutor

    n = 8
    tab = ScaleTables(n)
    x = _signed_zeros(n, 4)
    want = np.array(dct3_new(x, Normalization.UNITARY, ScaleTables(n))).tobytes()
    with ThreadPoolExecutor(max_workers=4) as pool:
        outs = list(pool.map(lambda _: dct3_new(x, Normalization.UNITARY, tab),
                             range(2 * K)))
    assert {np.array(o).tobytes() for o in outs} == {want}
    assert isinstance(tab.plans[("dct3_new", "unitary")], LinearNetwork)


class _YieldingDict(dict):
    # hands the interpreter to another thread after every read, so an
    # unlocked read-modify-write of a call count loses counts every time
    def get(self, *args):
        value = dict.get(self, *args)
        time.sleep(0)
        return value


def test_no_call_is_lost_from_the_count_under_threads():
    from concurrent.futures import ThreadPoolExecutor

    tab = ScaleTables(8)
    tab.plans = _YieldingDict()
    x = _signed_zeros(8, 5)
    with ThreadPoolExecutor(max_workers=4) as pool:
        list(pool.map(lambda _: dct3_new(x, Normalization.UNITARY, tab), range(K - 1)))
    assert tab.plans[("dct3_new", "unitary")] == K - 1
    dct3_new(x, Normalization.UNITARY, tab)
    assert isinstance(tab.plans[("dct3_new", "unitary")], LinearNetwork)


def test_deep_chain_of_scalings_compiles_exactly():
    depth = 500
    weights = [1.0 + (-1) ** i * 2.0 ** -(i % 7 + 1) for i in range(depth)]
    weights[::9] = [-1.0] * len(weights[::9])
    weights[::13] = [1.0] * len(weights[::13])
    edges = [(i, i + 1, w) for i, w in enumerate(weights)]
    net = LinearNetwork(depth + 1, edges, [0], [depth])
    x = 0.7314
    want = x
    for w in weights:
        want = want if w == 1.0 else -want if w == -1.0 else w * want
    assert net.eval([x]) == [want]
    rec = record(net.eval, 1)
    assert rec.structural_flops() == net.structural_flops()
    assert rec.eval([x]) == [want]


def test_wide_sum_compiles_exactly():
    # CPython cannot compile one expression of a few thousand terms
    width = 5000
    edges = [(i, width, 0.5 + i) for i in range(width)]
    net = LinearNetwork(width + 1, edges, list(range(width)), [width])
    x = rng(91).standard_normal(width).tolist()
    want = (0.5) * x[0]
    for i in range(1, width):
        want = want + (0.5 + i) * x[i]
    with mock.patch.object(transpose_net, "PROGRAM_MIN_EDGES", width + 1):
        assert net.eval(x) == [want]


def test_non_finite_weights_compile():
    net = LinearNetwork(3, [(0, 2, math.inf), (1, 2, math.nan)], [0, 1], [2])
    (y,) = net.eval([1.0, 1.0])
    assert math.isnan(y)


# --------------------------------------------------- properties, both paths

PATHS = ["plan", "scalar"]
# signed zeros and magnitudes in [1e-3, 1e3]: products of two samples
# neither underflow nor overflow
finite = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(1e-3, 1e3),
                   st.floats(-1e3, -1e-3))


def _fresh_state(n):
    """``(tables, context)`` in which every call at size ``n`` is its
    configuration's first: new tables each call, and a new ``dct2_classic``
    state, so each runs the scalar kernel, its real DFT included."""
    return (lambda: ScaleTables(n),
            mock.patch.object(dct2, "_classic_state", dct2._classic_state.__wrapped__))


def _on_path(path, n):
    """``(tables, context)``: calls at size ``n`` take ``path`` on the table
    set ``tables()`` inside ``context``.

    "scalar": see :func:`_fresh_state`.  "plan": at N <= PLAN_MAX_SIZE
    every call runs its configuration's plan, recorded on its first call;
    above it the forward kernels' later calls run their spectrum network.
    """
    if path == "scalar":
        return _fresh_state(n)
    tab = ScaleTables(n)
    return (lambda: tab), mock.patch.object(dct2, "PLAN_AFTER_CALLS", 1)


def _apply(kernel, norm_name, x, tab):
    led = FlopLedger()
    return np.array(kernel.run(list(x), _NORMS[norm_name], tab, led)), led.as_tuple()


@st.composite
def signal_pairs(draw):
    n = draw(st.sampled_from([2, 4, 8, 16, 32]))
    vec = st.lists(finite, min_size=n, max_size=n)
    return draw(vec), draw(vec), draw(finite), draw(finite)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("kernel,norm_name", CONFIGS)
@settings(max_examples=15, deadline=None)
@given(signal_pairs())
def test_linearity_and_value_free_ledger(kernel, norm_name, path, pair):
    x, y, a, b = pair
    _assert_linear(kernel, norm_name, *_on_path(path, len(x)), x, y, a, b)


def _assert_linear(kernel, norm_name, tables, path, x, y, a, b):
    # tables() gives the table set of each call
    with path:
        fx, lx = _apply(kernel, norm_name, x, tables())
        fy, ly = _apply(kernel, norm_name, y, tables())
        mixed = [a * u + b * v for u, v in zip(x, y)]
        fm, lm = _apply(kernel, norm_name, mixed, tables())
    assert lx == ly == lm
    scale = max(np.max(np.abs(a * fx)), np.max(np.abs(b * fy)),
                np.max(np.abs(fm)))
    assert np.max(np.abs(fm - (a * fx + b * fy))) <= 1e-12 * scale


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("forward,inverse", [(dct2_new, dct3_new), (dst2_new, dst3_new)],
                         ids=["dct", "dst"])
@settings(max_examples=25, deadline=None)
@given(st.sampled_from([2, 4, 8, 16, 32]).flatmap(
    lambda n: st.lists(finite, min_size=n, max_size=n)))
def test_unitary_round_trip(forward, inverse, path, x):
    _assert_round_trip(forward, inverse, *_on_path(path, len(x)), x)


def _assert_round_trip(forward, inverse, tables, path, x):
    u = Normalization.UNITARY
    with path:
        back = inverse(forward(x, u, tables()), u, tables())
    assert np.max(np.abs(np.array(back) - x)) <= 1e-12 * max(np.max(np.abs(x)), 1e-300)


# ------------------------------------------- properties at the program sizes

# ROWS_MIN_SIZE: from there on a first call runs the real DFT as rows
PROGRAM_SIZES = [128, 256, dct2.ROWS_MIN_SIZE]
PROGRAM_PATHS = ["first", "later"]
# a failing example is reported as found: shrinking lists of 256 floats takes minutes
NO_SHRINK = [Phase.explicit, Phase.reuse, Phase.generate]


def _program_path(path, n, first_call):
    """``(tables, context)``: calls of one configuration at size ``n`` take
    ``path`` on the table set ``tables()`` inside ``context``.

    "first": every call is its configuration's first (see
    :func:`_fresh_state`), so it runs the real DFT itself: the scalar
    recursion, its lanes wrapped in an array, below ``ROWS_MIN_SIZE`` and
    the row recursion from it on.  "later": after
    ``first_call(tab)``, so the forward kernels run their real DFT as a
    levelized program.  The DCT-III/DST-III run their transposed program
    on both.
    """
    if path == "first":
        return _fresh_state(n)
    tab = ScaleTables(n)
    first_call(tab)
    return (lambda: tab), contextlib.nullcontext()


def _at_rows_size(seed):
    # a signal of ROWS_MIN_SIZE samples, so that every property runs on the
    # first calls' row recursion whatever the sizes drawn
    return (rng(91, seed).uniform(1e-3, 1e3, dct2.ROWS_MIN_SIZE)
            * rng(92, seed).choice([-1.0, 1.0], dct2.ROWS_MIN_SIZE)).tolist()


def _program_signals(count):
    # count signals of one program size
    return st.sampled_from(PROGRAM_SIZES).flatmap(
        lambda n: st.tuples(*[st.lists(finite, min_size=n, max_size=n)] * count))


@pytest.mark.parametrize("path", PROGRAM_PATHS)
@pytest.mark.parametrize("kernel,norm_name", CONFIGS)
@settings(max_examples=4, deadline=None, phases=NO_SHRINK)
@given(_program_signals(2), finite, finite)
@example((_at_rows_size(0), _at_rows_size(1)), 0.5, -3.0)
def test_linearity_and_value_free_ledger_at_program_sizes(kernel, norm_name, path, xy, a, b):
    x, y = xy
    tables, on_path = _program_path(
        path, len(x), lambda tab: _apply(kernel, norm_name, [0.0] * len(x), tab))
    _assert_linear(kernel, norm_name, tables, on_path, x, y, a, b)


@pytest.mark.parametrize("path", PROGRAM_PATHS)
@pytest.mark.parametrize("forward,inverse", [(dct2_new, dct3_new), (dst2_new, dst3_new)],
                         ids=["dct", "dst"])
@settings(max_examples=6, deadline=None, phases=NO_SHRINK)
@given(_program_signals(1))
@example((_at_rows_size(2),))
def test_unitary_round_trip_at_program_sizes(forward, inverse, path, signals):
    (x,) = signals
    tables, on_path = _program_path(
        path, len(x), lambda tab: forward([0.0] * len(x), Normalization.UNITARY, tab))
    _assert_round_trip(forward, inverse, tables, on_path, x)


# ------------------------------------- properties above the rows' first size

ABOVE_ROWS = 2 * dct2.ROWS_MIN_SIZE
NEW = [c for c in CONFIGS if c.values[0].algo == "new" and c.values[1] == "unitary"]


def _above_rows(count):
    # count signals of ABOVE_ROWS samples, each a drawn seed's magnitudes in
    # [1e-3, 1e3] with random signs and a drawn share of signed zeros (few
    # draws: lists of a thousand drawn floats fail hypothesis's health check
    # for very large inputs)
    def signal(seed, zeros):
        g = np.random.default_rng(seed)
        x = g.uniform(1e-3, 1e3, ABOVE_ROWS) * g.choice([-1.0, 1.0], ABOVE_ROWS)
        x[g.random(ABOVE_ROWS) < zeros] *= 0.0
        return x.tolist()

    one = st.builds(signal, st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.1, 0.9]))
    return st.tuples(*[one] * count)


@pytest.mark.parametrize("path", PROGRAM_PATHS)
@pytest.mark.parametrize("kernel,norm_name", NEW)
@settings(max_examples=10, deadline=None, phases=NO_SHRINK)
@given(_above_rows(2), finite, finite)
def test_linearity_and_value_free_ledger_above_the_rows_size(kernel, norm_name, path, xy, a, b):
    # "first": the real DFT (or its transpose) as rows; "later": as a program
    x, y = xy
    tables, on_path = _program_path(
        path, len(x), lambda tab: _apply(kernel, norm_name, [0.0] * len(x), tab))
    _assert_linear(kernel, norm_name, tables, on_path, x, y, a, b)


@pytest.mark.parametrize("path", PROGRAM_PATHS)
@pytest.mark.parametrize("forward,inverse", [(dct2_new, dct3_new), (dst2_new, dst3_new)],
                         ids=["dct", "dst"])
@settings(max_examples=10, deadline=None, phases=NO_SHRINK)
@given(_above_rows(1))
def test_unitary_round_trip_above_the_rows_size(forward, inverse, path, signals):
    (x,) = signals
    tables, on_path = _program_path(
        path, len(x), lambda tab: forward([0.0] * len(x), Normalization.UNITARY, tab))
    _assert_round_trip(forward, inverse, tables, on_path, x)


@pytest.mark.parametrize("n", PROGRAM_SIZES)
@pytest.mark.parametrize("fn", [dct3_new, dst3_new])
def test_inverse_program_matches_its_codelet_bitwise(fn, n):
    x = _signed_zeros(n, 5)

    def outputs():
        res = []
        for norm in Normalization:
            led = FlopLedger()
            res.append((np.array(fn(x, norm, ledger=led)).tobytes(), led.as_tuple()))
        return res

    program = outputs()
    with mock.patch.object(transpose_net, "PROGRAM_MIN_EDGES", 1 << 62):
        assert outputs() == program
