"""Forward kernels above PLAN_MAX_SIZE: the real DFT as a recorded network."""

import gc
import weakref
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from conftest import (
    assert_compaction_of,
    corrupted_tables,
    reference_compaction,
    rng,
    uncompacted,
)

from fastdcst import (
    FlopLedger,
    LinearNetwork,
    Normalization,
    ScaleTables,
    build_tables,
    dct2,
    dct2_classic,
    dct2_new,
    dct2_scaled,
    dct3_new,
    dst2_new,
    dst3_new,
    record,
    scale_factors,
    transpose_net,
)
from fastdcst.transpose_net import record_rows
from fastdcst.trig_family import _transposed_spectrum_net

NORMS = list(Normalization)
SIZES = [2 * dct2.PLAN_MAX_SIZE * 2**i for i in range(8)]  # 32 .. 4096
K = dct2.PLAN_AFTER_CALLS
RESCALED = [dct2_new, dst2_new]


def _signed_zeros(n, seed):
    x = rng(93, n, seed).standard_normal(n)
    x[::3] = 0.0
    x[1::4] = -0.0
    return x.tolist()


def _forward_calls(tab):
    """(name, call) for every forward kernel and norm; call(x) -> (bytes, ledger)."""

    def wrap(fn, *args):
        def call(x):
            led = FlopLedger()
            out = fn(x, *args, ledger=led)
            if isinstance(out, dct2.ScaledDctOutput):
                out = out.values + out.scales
            return np.array(out).tobytes(), led.as_tuple()
        return call

    calls = [(f"dct2_classic-{nm.value}", wrap(dct2_classic, nm)) for nm in NORMS]
    calls += [(f"{fn.__name__}-{nm.value}", wrap(fn, nm, tab)) for fn in RESCALED for nm in NORMS]
    calls.append(("dct2_scaled", wrap(dct2_scaled, tab)))
    return calls


def _all_calls(tab):
    """:func:`_forward_calls` and the DCT-III/DST-III under every norm."""

    def wrap(fn, nm):
        def call(x):
            led = FlopLedger()
            return np.array(fn(x, nm, tab, led)).tobytes(), led.as_tuple()
        return call

    return _forward_calls(tab) + [(f"{fn.__name__}-{nm.value}", wrap(fn, nm))
                                  for fn in (dct3_new, dst3_new) for nm in NORMS]


def _forget_classic(n):
    # dct2_classic keeps its call marks and network per size, not per table set
    dct2._classic_state(n).plans.clear()


@pytest.mark.parametrize("n", SIZES)
def test_later_calls_match_the_first_bitwise(n):
    tab = ScaleTables(n)
    _forget_classic(n)
    for seed in (0, 1):
        x = _signed_zeros(n, seed)
        for name, call in _all_calls(tab):
            first = call(x)
            assert call(x) == first, name
            assert call(x) == first, name
    assert isinstance(tab.plans["spectrum"], LinearNetwork)
    assert isinstance(dct2._classic_state(n).plans["spectrum"], LinearNetwork)


@pytest.mark.parametrize("n", [4096, 1 << 16])
def test_first_call_rows_and_later_programs_agree_bitwise(n):
    # a kernel's first call runs the row recursion of its real DFT (or of
    # its transpose) and its later calls the recorded program; every kernel
    # gives the same bytes and ledger on both, on finite input.  The
    # rescaled kernels share the size's cached tables, so that one forward
    # and one transposed network are recorded.  Above NET_MAX_SIZE no
    # network is recorded, and later calls run the rows again
    x = rng(96, n).standard_normal(n).tolist()
    tab = build_tables(n)
    _forget_classic(n)
    transposed = _transposed_spectrum_net.cache_info().misses
    try:
        for fn, args in ((dct2_classic, (Normalization.UNITARY,)),
                         (dct2_new, (Normalization.TWO_SIDED, tab)),
                         (dct2_scaled, (tab,)),
                         (dst2_new, (Normalization.UNITARY_SQRT_N, tab)),
                         (dct3_new, (Normalization.UNITARY, tab)),
                         (dst3_new, (Normalization.TWO_SIDED, tab))):
            calls = []
            for _ in range(3):
                led = FlopLedger()
                out = fn(x, *args, ledger=led)
                out = out.values if fn is dct2_scaled else out
                calls.append((np.array(out).tobytes(), led.as_tuple()))
            assert calls[1] == calls[2] == calls[0], fn.__name__
            if n > dct2.NET_MAX_SIZE:
                assert "spectrum" not in dct2._classic_state(n).plans
            _forget_classic(n)  # the plain network of this size need not stay
        if n <= dct2.NET_MAX_SIZE:
            assert isinstance(tab.plans["spectrum"], LinearNetwork)
        else:
            assert "spectrum" not in tab.plans
            assert _transposed_spectrum_net.cache_info().misses == transposed
    finally:
        _transposed_spectrum_net.cache_clear()
        scale_factors._cached_tables.cache_clear()


@pytest.mark.parametrize("n", [128, 512])
def test_signed_zero_inputs_keep_their_bits(n):
    for x in ([-0.0] * n, [0.0] * n, [(-0.0, 0.0)[i % 2] for i in range(n)]):
        tab = ScaleTables(n)
        _forget_classic(n)
        for name, call in _forward_calls(tab):
            assert call(x) == call(x) == call(x), name


@pytest.mark.parametrize("n", [dct2.ROWS_MIN_SIZE, 1024, 4096, 1 << 17])
def test_inverse_first_call_rows_and_later_calls_agree_bitwise(n):
    # from ROWS_MIN_SIZE on the DCT-III/DST-III's first call runs the
    # transposed rows and the later calls the transposed network (up to
    # NET_MAX_SIZE) or the rows again: the same bytes and ledger, signed
    # zeros and exact cancellations too
    r = rng(97, n)
    signals = [_signed_zeros(n, 3), r.integers(-1, 2, n).astype(float).tolist(),
               [(-0.0, 0.0)[i % 3 == 0] for i in range(n)]]
    tab = ScaleTables(n)
    try:
        for x in signals:
            for name, call in _all_calls(tab)[-6:]:
                assert call(x) == call(x) == call(x), name
            tab.plans.clear()  # the next signal's calls are first calls again
    finally:
        _transposed_spectrum_net.cache_clear()


def test_inverse_first_call_records_no_network():
    # a DCT-III's first call at N=4096 on cached tables runs the transposed
    # rows: nothing is recorded, transposed or compiled, and it runs in a
    # few ms against the 30-80 of a record, transpose and compile
    n = 4096
    tab = build_tables(n)
    tab.plans.pop(("dct3_new", "unitary"), None)
    x = rng(98, n).standard_normal(n).tolist()
    misses, plans = _transposed_spectrum_net.cache_info().misses, set(tab.plans)
    with mock.patch.object(dct2, "record_rows", wraps=record_rows) as rec:
        first = dct3_new(x, Normalization.UNITARY)
    assert rec.call_count == 0
    assert _transposed_spectrum_net.cache_info().misses == misses
    assert set(tab.plans) == plans | {("dct3_new", "unitary")}
    assert dct3_new(x, Normalization.UNITARY) == first


def test_first_call_records_no_forward_network():
    # the second call records one network per real DFT, and no later call
    # records a plan
    for n in (2 * dct2.PLAN_MAX_SIZE, 256):
        tab = ScaleTables(n)
        _forget_classic(n)
        x = _signed_zeros(n, 2)
        calls = _forward_calls(tab)
        with mock.patch.object(dct2, "record_rows", wraps=record_rows) as rec, \
             mock.patch.object(dct2, "record", wraps=record) as plan:
            for _, call in calls:
                call(x)
            assert rec.call_count == 0, n
            assert "spectrum" not in tab.plans, n
            assert "spectrum" not in dct2._classic_state(n).plans, n
            for _, call in calls:
                call(x)
            assert rec.call_count == 2, n  # one rescaled and one plain real DFT
            for _ in range(K):
                for _, call in calls:
                    call(x)
            assert rec.call_count == 2, n
            assert plan.call_count == 0, n
        for plans in (tab.plans, dct2._classic_state(n).plans):
            assert isinstance(plans.pop("spectrum"), LinearNetwork), n
            assert set(plans.values()) == {0}, n


def test_below_the_net_size_nothing_is_recorded():
    # the spectrum networks start one size above PLAN_MAX_SIZE; below that
    # no call builds one, whatever its count
    for n in (2, 4, 8, dct2.PLAN_MAX_SIZE):
        tab = ScaleTables(n)
        _forget_classic(n)
        x = _signed_zeros(n, 3)
        with mock.patch.object(dct2, "_record_spectrum", wraps=dct2._record_spectrum) as net:
            for _ in range(K + 1):
                for _, call in _forward_calls(tab):
                    call(x)
        assert net.call_count == 0, n
        assert "spectrum" not in tab.plans, n
        assert "spectrum" not in dct2._classic_state(n).plans, n


@pytest.mark.parametrize("make", [ScaleTables, corrupted_tables], ids=["fresh", "bent"])
@pytest.mark.parametrize("fn", RESCALED + [dct2_scaled])
def test_own_tables_get_their_own_network(make, fn):
    n = 128
    tab = make(n)
    x = rng(94).standard_normal(n).tolist()  # no zero hides the bent constant
    args = () if fn is dct2_scaled else (Normalization.UNITARY,)

    def run(t):
        out = fn(x, *args, t)
        return np.array(out.values if fn is dct2_scaled else out).tobytes()

    scalar = run(tab)
    assert run(tab) == run(tab) == scalar
    net = tab.plans["spectrum"]
    assert net is not build_tables(n).plans.get("spectrum")
    assert net.dumps() == _rescaled_recording(n).dumps()
    if make is corrupted_tables and fn is not dct2_scaled:
        assert scalar != run(ScaleTables(n))


def _bent_level_array(tab, name):
    """``tab`` with one level array (``ratio2a``, ``ratio2b``, ``ratio4`` or
    ``s``) scaled by 1.001 at every level >= 16, in place: the rows, their
    transpose and the scalar kernels all read it."""
    for m in scale_factors._levels(16, tab.size):
        getattr(tab.level(m), name)[...] *= 1.001
    return tab


_BENT = {"r2a": "ratio2a", "r2b": "ratio2b", "r4": "ratio4"}


def _three_calls(fn, x, tab):
    # (output bytes, ledger) of calls 1-3 of fn on x under UNITARY
    out = []
    for _ in range(3):
        led = FlopLedger()
        got = fn(x, Normalization.UNITARY, tab, led)
        out.append((np.array(got).tobytes(), led.as_tuple()))
    return out


@pytest.mark.parametrize("n", [64, 1024])
@pytest.mark.parametrize("column", list(_BENT))
@pytest.mark.parametrize("fn", [dct3_new, dst3_new])
def test_inverse_calls_run_on_the_callers_tables(fn, column, n):
    # the transposed network comes from the caller's tables, so calls 1-3
    # agree on bent ones (at N=1024 call 1 runs the transposed rows, at
    # N=64 every call the network) and differ from the cached set's; a
    # fresh unbent set gives the cached set's bytes
    x = rng(97, n).standard_normal(n).tolist()
    cached = _three_calls(fn, x, None)
    bent = _three_calls(fn, x, _bent_level_array(ScaleTables(n), _BENT[column]))
    assert bent == [bent[0]] * 3
    assert bent[0][0] != cached[0][0]
    assert _three_calls(fn, x, ScaleTables(n)) == cached == [cached[0]] * 3


@pytest.mark.parametrize("column", list(_BENT))
def test_forward_calls_run_on_the_callers_tables(column):
    # call 1 runs the scalar recursion, whose floats are made from the
    # arrays on first read, and later calls the network recorded from the
    # rows: on a bent set they agree, and differ from the cached set's
    n = 64
    x = rng(98, n).standard_normal(n).tolist()
    cached = _three_calls(dct2_new, x, None)
    bent = _three_calls(dct2_new, x, _bent_level_array(ScaleTables(n), _BENT[column]))
    assert bent == [bent[0]] * 3
    assert bent[0][0] != cached[0][0]


def _rescaled_recording(n):
    return dct2._record_spectrum(build_tables(n))


def test_transposed_net_is_the_transpose_of_the_forward_one():
    n = 256
    net = dct2._spectrum_net(build_tables(n))
    assert net.dumps() == _rescaled_recording(n).dumps()
    assert _transposed_spectrum_net(n).dumps() == _rescaled_recording(n).transpose().dumps()


def test_spectrum_networks_are_counted_at_record():
    tab, classic = ScaleTables(128), dct2._classic_state.__wrapped__(128)
    with mock.patch.object(dct2, "_counted", wraps=dct2._counted) as counted:
        dct2._spectrum_net(tab)
        dct2._spectrum_net(classic)
        dct2._spectrum_net(tab)
        dct2._spectrum_net(classic)
    assert counted.call_count == 2


def test_spectrum_caches_hold_at_most_cached_sizes():
    keep = 2
    alive = []
    with mock.patch.object(scale_factors, "_cached_tables",
                           lru_cache(maxsize=keep)(ScaleTables)), \
         mock.patch.object(dct2, "_classic_state",
                           lru_cache(maxsize=keep)(dct2._classic_state.__wrapped__)):
        for n in (128, 256, 512):
            x = _signed_zeros(n, 5)
            for _ in range(2):
                dct2_new(x)
                dct2_classic(x)
            alive.append(weakref.ref(build_tables(n).plans["spectrum"]))
            alive.append(weakref.ref(dct2._classic_state(n).plans["spectrum"]))
    gc.collect()
    assert sum(r() is not None for r in alive) <= 2 * keep
    for cache in (scale_factors._cached_tables, dct2._classic_state):
        assert cache.cache_info().maxsize == scale_factors.CACHED_SIZES


def test_classic_kernel_builds_no_tables_above_the_plan_size():
    # nor at or below it: plans, like the spectrum network, are kept on
    # the classic kernel's own per-size state
    with mock.patch.object(scale_factors, "ScaleTables", wraps=ScaleTables) as built, \
         mock.patch.object(scale_factors, "_cached_tables",
                           lru_cache(maxsize=2)(scale_factors.ScaleTables)):
        for n in [2**e for e in range(1, 13)]:
            x = _signed_zeros(n, 6)
            for _ in range(3 if n > dct2.PLAN_MAX_SIZE else K + 1):
                dct2_classic(x)
    assert built.call_count == 0


def _recorded_steps(net):
    # the steps of a program of the recorded graph: per level, its largest in-degree
    level, indeg = dict.fromkeys(net.inputs, 0), {}
    for s, d, _ in net.edges.tolist():
        level[d] = max(level.get(d, 0), level[s] + 1)
        indeg[d] = indeg.get(d, 0) + 1
    widest = {}
    for v, deg in indeg.items():
        widest[level[v]] = max(widest.get(level[v], 0), deg)
    return sum(widest.values())


def test_first_evaluations_of_a_shared_network_under_threads():
    # four threads make the first evaluation of one program-sized network,
    # a fraction of a build apart (0.25 to 2.5 ms, over the rounds) and
    # switching every microsecond: each must find the edge array or the
    # whole program, never neither.  The DCT-III calls on the cached tables
    # share that size's transposed network
    import sys
    import time
    from concurrent.futures import ThreadPoolExecutor
    from threading import Barrier

    n = 128
    x = _signed_zeros(n, 6)
    want = np.array(dct3_new(x, tables=ScaleTables(n))).tobytes()
    barrier = Barrier(4)

    def first_call(i, apart):
        barrier.wait(timeout=10)
        time.sleep(i * apart)
        return np.array(dct3_new(x)).tobytes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for apart in np.arange(1, 11) * 2.5e-4:
            _transposed_spectrum_net.cache_clear()
            net = _transposed_spectrum_net(n)  # recorded, not yet evaluated
            edges = net.edges.tobytes()
            with ThreadPoolExecutor(max_workers=4) as pool:
                outs = list(pool.map(first_call, range(4), [apart] * 4))
            assert outs == [want] * 4
            assert net._edges is None
            assert net.edges.tobytes() == edges
    finally:
        sys.setswitchinterval(interval)
        _transposed_spectrum_net.cache_clear()


def _spectrum_nets(n, fresh=False):
    """The rescaled, plain and transposed spectrum networks of size ``n``,
    each with the network it compacts: the full recording of its row
    kernel, or the plain reversal of the compacted forward network.
    ``fresh`` records the rescaled one, and transposes it, anew."""
    tab, classic = ScaleTables(n) if fresh else build_tables(n), dct2._classic_state(n)
    nets = []
    for t in (tab, classic):
        full = uncompacted(lambda: dct2._record_spectrum(t))
        nets.append((dct2._spectrum_net(t), full))
    forward = dct2._spectrum_net(tab)
    transposed = forward.transpose() if fresh else _transposed_spectrum_net(n)
    nets.append((transposed, uncompacted(forward.transpose)))
    return nets


@pytest.mark.parametrize("n", [2**e for e in range(1, 9)])
def test_spectrum_networks_are_recorded_compacted(n):
    for net, full in _spectrum_nets(n):
        assert_compaction_of(full, net)


@pytest.mark.parametrize("n", SIZES)
def test_each_spectrum_network_runs_its_executor(n):
    # a codelet at N=32 and 64 and a program from N=128 on, for floats and
    # for a recording alike, so a change of PROGRAM_MIN_EDGES that moves a
    # size shows here
    program = n >= 128
    for net in (dct2._spectrum_net(build_tables(n)), dct2._spectrum_net(dct2._classic_state(n)),
                _transposed_spectrum_net(n)):
        assert (len(net.edges) >= transpose_net.PROGRAM_MIN_EDGES) == program
        net.eval(np.zeros(n))
        record(net.eval, n)
        assert (net._program is not None) == program
        assert (net._codelet is not None) != program


@pytest.mark.parametrize("n", [1024, 4096])
def test_compaction_shortens_the_programs(n):
    for net, full in _spectrum_nets(n):
        recorded = _recorded_steps(full)
        net.eval(np.zeros(n))
        assert len(net._program[3]) < recorded


@pytest.mark.parametrize("n", [128, 1024])
def test_levelizing_keeps_the_edges_bytes(n):
    for net, full in _spectrum_nets(n, fresh=True):
        edges, dump, tdump = net.edges.tobytes(), net.dumps(), net.transpose().dumps()
        x = rng(95, n).standard_normal(n).tolist()
        y = net.eval(x)
        # each level's first step writes one contiguous slice, the levels
        # one after another from the inputs on; its later steps a prefix
        order, src, w, steps, _ = net._program
        level = (0, len(net.inputs))
        for k, a, b, s, ws in steps:
            if k == 0:
                assert a == level[1] and b > a
                level = (a, b)
            else:
                assert a == level[0] and b <= level[1]
            assert np.shares_memory(s, src) and np.shares_memory(ws, w)
            assert len(s) == len(ws) == b - a
        assert level[1] == net.n_vertices == len(net.inputs) + len(reference_compaction(net))
        # the program's arrays are the network's one copy of its edges, in
        # fewer bytes than the edge array, and than the columns of the
        # recorded network's program
        assert net._edges is None
        held = order.nbytes + src.nbytes + w.nbytes
        assert held <= len(edges)
        assert held < 4 * full.n_vertices + 16 * len(full.edges)
        assert net.edges.tobytes() == edges
        assert net.dumps() == dump
        assert net.transpose().dumps() == tdump
        assert net.eval(x) == y
