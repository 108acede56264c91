import math
from unittest import mock

import numpy as np
import pytest
from conftest import max_rel, rng
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fastdcst import (
    FlopLedger,
    LinearNetwork,
    TraceError,
    build_tables,
    naive_dct3,
    record,
    transpose_net,
)
from fastdcst.dct2 import _dct2_classic_lanes, _dct2_new_lanes, _dct2_scaled_lanes
from fastdcst.fft_complex import _fft_scaled_lanes, _fft_std_lanes
from fastdcst.fft_real import half_spectrum_lanes
from fastdcst.trig_family import (
    _dct3_new_lanes,
    _dst2_new_lanes,
    _dst3_new_lanes,
    _transposed_spectrum_net,
)


def test_record_identity():
    net = record(lambda xs: list(xs), 8)
    assert net.structural_flops() == (0, 0)
    x = list(rng(50).standard_normal(8))
    assert net.eval(x) == x


def test_record_dct2_new_16_matches_table():
    tab = build_tables(16)
    led = FlopLedger()
    net = record(lambda xs: _dct2_new_lanes(xs, "two-sided", tab, led), 16)
    adds, mults = net.structural_flops()
    assert adds + mults == 112
    assert (adds, mults) == led.as_tuple()
    assert net.indegree_adds() == adds


def test_record_size2_dct2():
    tab = build_tables(2)
    led = FlopLedger()
    net = record(lambda xs: _dct2_new_lanes(xs, "two-sided", tab, led), 2)
    assert net.structural_flops() == (2, 2)
    weighted = sorted(abs(w) for _, _, w in net.edges if w not in (1.0, -1.0))
    assert weighted == pytest.approx([math.sqrt(2.0), 2.0])


def test_transpose_involution():
    tab = build_tables(8)
    net = record(lambda xs: _dct2_new_lanes(xs, "two-sided", tab, FlopLedger()), 8)
    tt = net.transpose().transpose()
    assert tt.structural_flops() == net.structural_flops()
    x = list(rng(51).standard_normal(8))
    assert np.allclose(tt.eval(x), net.eval(x), rtol=0, atol=1e-14)


def test_transposed_dct2_evaluates_dct3():
    n = 16
    tab = build_tables(n)
    net = record(lambda xs: _dct2_new_lanes(xs, "two-sided", tab, FlopLedger()), n)
    tnet = net.transpose()
    x = rng(52).standard_normal(n)
    assert max_rel(tnet.eval(list(x)), naive_dct3(x)) < 1e-10


@pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
def test_counts_preserved_under_transposition(n):
    tab = build_tables(n)
    net = record(lambda xs: _dct2_new_lanes(xs, "two-sided", tab, FlopLedger()), n)
    tnet = net.transpose()
    assert tnet.structural_flops() == net.structural_flops()
    assert tnet.indegree_adds() == tnet.structural_flops()[0]


def test_adjoint_identity_many_pairs():
    n = 16
    tab = build_tables(n)
    net = record(lambda xs: _dct2_new_lanes(xs, "two-sided", tab, FlopLedger()), n)
    tnet = net.transpose()
    g = rng(53)
    for _ in range(100):
        x = g.standard_normal(n)
        y = g.standard_normal(n)
        ax = np.array(net.eval(list(x)))
        aty = np.array(tnet.eval(list(y)))
        ref = max(1.0, abs(y @ ax))
        assert abs(y @ ax - aty @ x) < 1e-10 * ref


def test_eval_is_linear():
    tab = build_tables(16)
    net = record(lambda xs: _dct2_new_lanes(xs, "two-sided", tab, FlopLedger()), 16)
    g = rng(54)
    x, y = g.standard_normal(16), g.standard_normal(16)
    a, b = 1.7, -0.3
    lhs = np.array(net.eval(list(a * x + b * y)))
    rhs = a * np.array(net.eval(list(x))) + b * np.array(net.eval(list(y)))
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_random_sparse_dag_add_formula():
    # hand-built DAG: inputs 0..3, sums with assorted weights
    g = rng(55)
    edges = []
    n_in = 4
    n_v = n_in
    for _ in range(20):
        srcs = g.integers(0, n_v, size=2)
        w = float(g.choice([1.0, -1.0, 0.5, 3.0]))
        v = n_v
        n_v += 1
        edges.append((int(srcs[0]), v, 1.0))
        edges.append((int(srcs[1]), v, w))
    net = LinearNetwork(n_v, edges, list(range(n_in)), [n_v - 1])
    adds, mults = net.structural_flops()
    assert adds == net.indegree_adds()
    assert mults == sum(1 for _, _, w in edges if w not in (1.0, -1.0))
    out = net.eval([1.0, 2.0, 3.0, 4.0])
    assert len(out) == 1


@st.composite
def square_dags(draw):
    # random sums and scalings as in test_random_sparse_dag_add_formula, then
    # one output per input that together consume every sink: no dead vertex
    n_in = draw(st.integers(1, 5))
    weights = st.sampled_from([1.0, -1.0, 0.5, 3.0])
    edges, n_v = [], n_in
    for _ in range(draw(st.integers(0, 24))):
        edges.append((draw(st.integers(0, n_v - 1)), n_v, draw(weights)))
        if draw(st.booleans()):
            edges.append((draw(st.integers(0, n_v - 1)), n_v, draw(weights)))
        n_v += 1
    used = {src for src, _, _ in edges}
    sinks = [v for v in range(n_v) if v not in used]
    outputs = list(range(n_v, n_v + n_in))
    for j, out in enumerate(outputs):
        for src in sinks[j::n_in] or [draw(st.integers(0, n_v - 1))]:
            edges.append((src, out, draw(weights)))
    return LinearNetwork(n_v + n_in, edges, list(range(n_in)), outputs)


# x0 + 0.5*x1 passes through the unit-weight vertices 3, 4 and 5 before
# vertex 6 subtracts x0; the transpose collapses 2..5 into one renaming chain
ALIAS_CHAIN = LinearNetwork(
    9,
    [(0, 2, 1.0), (1, 2, 0.5), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0),
     (5, 6, 1.0), (0, 6, -1.0), (6, 7, 1.0), (6, 8, 2.0), (1, 8, 3.0)],
    [0, 1], [7, 8])


def walk_and_program(net, x):
    """Bytes of ``net.eval(x)`` from the Python walk and from the program."""
    with mock.patch.object(transpose_net, "PROGRAM_MIN_EDGES", len(net.edges) + 1):
        walk = np.array(net.eval(x)).tobytes()
    with mock.patch.object(transpose_net, "PROGRAM_MIN_EDGES", 0):
        program = np.array(net.eval(x)).tobytes()
    return walk, program


@settings(max_examples=150, deadline=None)
@given(square_dags(), st.integers(0, 2**32 - 1))
@example(ALIAS_CHAIN, 0)
def test_transpose_random_dag_property(net, seed):
    tnet = net.transpose()  # validates the evaluation order
    assert tnet.structural_flops() == net.structural_flops()
    assert tnet.indegree_adds() == tnet.structural_flops()[0]
    assert net.transpose().transpose().structural_flops() == net.structural_flops()
    g = rng(57, seed)
    x, y = g.standard_normal(len(net.inputs)), g.standard_normal(len(net.outputs))
    lhs = y @ np.array(net.eval(list(x)))
    rhs = np.array(tnet.eval(list(y))) @ x
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)
    walk, program = walk_and_program(net, list(x))
    assert walk == program
    walk, program = walk_and_program(tnet, list(y))
    assert walk == program


def test_transpose_collapses_alias_chain():
    assert ALIAS_CHAIN.transpose().dumps() == (
        "# inputs: 1 0\n# outputs: 4 3\n"
        "1 2 1.0\n0 2 2.0\n2 3 0.5\n0 3 3.0\n2 4 1.0\n2 4 -1.0\n"
    )


@pytest.mark.parametrize("n", [128, 1024])
def test_program_matches_walk_on_spectrum_net(n):
    net = _transposed_spectrum_net(n)
    assert len(net.edges) >= transpose_net.PROGRAM_MIN_EDGES
    x = rng(58, n).standard_normal(n)
    x[::5] = 0.0
    x[1::7] = -0.0
    for xs in (list(x), [-0.0] * n, [0.0] * n):
        walk, program = walk_and_program(net, xs)
        assert walk == program
    y = net.eval(list(x))
    assert all(type(v) is float for v in y)


def test_recording_a_program_sized_network():
    # TraceScalar inputs take the walk even above the program threshold
    net = _transposed_spectrum_net(128)
    assert len(net.edges) >= transpose_net.PROGRAM_MIN_EDGES
    rec = record(net.eval, 128)
    assert rec.structural_flops() == net.structural_flops()
    x = list(rng(59).standard_normal(128))
    assert np.array(rec.eval(x)).tobytes() == np.array(net.eval(x)).tobytes()


def _complex_adapter(fn, n):
    # complex kernel as a real-linear map over 2N lanes [re..., im...]
    def kernel(lanes):
        outr, outi = fn(list(lanes[:n]), list(lanes[n:]))
        return list(outr) + list(outi)

    return kernel


KERNEL_CASES = []
for n in (4, 16, 32):
    tab_n = build_tables(n)
    KERNEL_CASES += [
        pytest.param(n, "dct2_classic",
                     lambda xs, led, t=tab_n: _dct2_classic_lanes(xs, "two-sided", led),
                     id=f"dct2_classic-{n}"),
        pytest.param(n, "dct2_new",
                     lambda xs, led, t=tab_n: _dct2_new_lanes(xs, "two-sided", t, led),
                     id=f"dct2_new-{n}"),
        pytest.param(n, "dct2_scaled",
                     lambda xs, led, t=tab_n: _dct2_scaled_lanes(xs, t, led),
                     id=f"dct2_scaled-{n}"),
        pytest.param(n, "dct3_new",
                     lambda xs, led, t=tab_n: _dct3_new_lanes(xs, "two-sided", t, led),
                     id=f"dct3_new-{n}"),
        pytest.param(n, "dst2_new",
                     lambda xs, led, t=tab_n: _dst2_new_lanes(xs, "two-sided", t, led),
                     id=f"dst2_new-{n}"),
        pytest.param(n, "dst3_new",
                     lambda xs, led, t=tab_n: _dst3_new_lanes(xs, "two-sided", t, led),
                     id=f"dst3_new-{n}"),
        pytest.param(n, "rfft_scaled1",
                     lambda xs, led, t=tab_n: half_spectrum_lanes(xs, t, led),
                     id=f"rfft1-{n}"),
    ]


@pytest.mark.parametrize("n,name,lane_kernel", KERNEL_CASES)
def test_ledger_equals_structural_count(n, name, lane_kernel):
    led = FlopLedger()
    net = record(lambda xs: lane_kernel(xs, led), n)
    assert net.structural_flops() == led.as_tuple(), name
    # and the recorded network reproduces the float kernel
    x = list(rng(56, n).standard_normal(n))
    direct = lane_kernel(list(x), FlopLedger())
    assert np.allclose(net.eval(x), direct, rtol=0, atol=1e-12)


@pytest.mark.parametrize("typ", [0, 1, 2, 4])
def test_ledger_equals_structural_count_complex(typ):
    n = 16
    tab = build_tables(n)
    led = FlopLedger()

    def fn(xr, xi):
        if typ == -1:
            return _fft_std_lanes(xr, xi, led)
        return _fft_scaled_lanes(typ, xr, xi, tab, led)

    net = record(_complex_adapter(fn, n), 2 * n)
    assert net.structural_flops() == led.as_tuple()


def test_std_fft_ledger_equals_structural_count():
    n = 16
    led = FlopLedger()
    net = record(
        _complex_adapter(lambda xr, xi: _fft_std_lanes(xr, xi, led), n), 2 * n
    )
    assert net.structural_flops() == led.as_tuple()


def test_nonlinear_kernel_raises():
    with pytest.raises(TraceError):
        record(lambda xs: [xs[0] * xs[1]], 2)
    with pytest.raises(TraceError):
        record(lambda xs: [xs[0] + 1.0], 1)
    with pytest.raises(TraceError):
        record(lambda xs: [xs[0] / 2.0], 1)


def test_eval_size_mismatch():
    net = record(lambda xs: list(xs), 4)
    with pytest.raises(ValueError):
        net.eval([1.0, 2.0])


def test_input_with_incoming_edge_rejected():
    with pytest.raises(ValueError):
        LinearNetwork(2, [(1, 0, 1.0), (0, 1, 1.0)], [0], [1])


@pytest.mark.parametrize("n_vertices,edges,inputs,outputs,message", [
    (2, [(1, 1, 1.0)], [0], [1], "does not run to a higher id"),
    (2, [(-1, 1, 1.0)], [0], [1], "does not run to a higher id"),
    (2, [(0, 1, 1.0)], [0, 1], [1], "input vertex 1 has incoming edges"),
    (3, [(0, 2, 1.0)], [0], [2], "vertex 1 is neither an input nor a sum"),
    (4, [(0, 2, 1.0), (0, 3, 1.0), (1, 2, 1.0)], [0, 1], [3],
     "incoming edges of vertex 2 are not contiguous"),
    (2, [(0, 5, 1.0)], [0], [1], "edge 0->5 ends past the last vertex 1"),
    (2, [(0, 1, 1.0)], [7], [1], "input vertex 7 is not among the 2 vertices"),
    (2, [(0, 1, 1.0)], [0], [-1], "output vertex -1 is not among the 2 vertices"),
], ids=["edge-to-equal-id", "edge-from-negative-id", "input-with-edge", "no-edges",
        "not-contiguous", "edge-past-end", "input-out-of-range", "negative-output"])
def test_evaluation_order_violations_rejected(n_vertices, edges, inputs, outputs, message):
    with pytest.raises(ValueError, match=message):
        LinearNetwork(n_vertices, edges, inputs, outputs)


def test_dumps_edge_list():
    tab = build_tables(4)
    net = record(lambda xs: _dct2_new_lanes(xs, "two-sided", tab, FlopLedger()), 4)
    text = net.dumps()
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert len(lines) == len(net.edges)
    src, dst, w = lines[0].split()
    int(src), int(dst), float(w)
