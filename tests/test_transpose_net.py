import math
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from conftest import (
    assert_compaction_of,
    canonical_forms,
    compacted,
    max_rel,
    reference_compaction,
    reference_program,
    rng,
    uncompacted,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fastdcst import (
    FlopLedger,
    LinearNetwork,
    ScaleTables,
    TraceError,
    build_tables,
    dct2,
    naive_dct3,
    record,
    transpose_net,
)
from fastdcst.cli import _NORMS, KERNELS
from fastdcst.dct2 import _classic_state, _dct2_new_lanes, _dct2_scaled_lanes
from fastdcst.fft_complex import _fft_scaled_lanes, _fft_std_lanes
from fastdcst.fft_real import half_spectrum_lanes, pack_lanes
from fastdcst.transpose_net import record_rows
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


def codelet_and_program(net, x):
    """Bytes of ``net.eval(x)`` from the codelet and from the program."""
    with mock.patch.object(transpose_net, "PROGRAM_MIN_EDGES", len(net.edges) + 1):
        codelet = np.array(net.eval(x)).tobytes()
    with mock.patch.object(transpose_net, "PROGRAM_MIN_EDGES", 0):
        program = np.array(net.eval(x)).tobytes()
    return codelet, program


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
    codelet, program = codelet_and_program(net, list(x))
    assert codelet == program
    codelet, program = codelet_and_program(tnet, list(y))
    assert codelet == program


@settings(max_examples=150, deadline=None)
@given(square_dags())
@example(ALIAS_CHAIN)
@example(LinearNetwork(2, [], [1, 0], [1, 0]))  # inputs only: a program of no steps
def test_levelizer_matches_its_definition(net):
    for net in (net, net.transpose()):
        want_order, want_steps = reference_program(net)
        edges = net.edges.tobytes()
        with mock.patch.object(transpose_net, "PROGRAM_MIN_EDGES", 0):
            net.eval([0.0] * len(net.inputs))
        order, _, _, steps, outs = net._program
        order = order.tolist()
        got = [(k, list(zip([order[v] for v in range(a, b)],
                            [order[s] for s in src.tolist()], w.tolist())))
               for k, a, b, src, w in steps]
        assert (order, got) == (want_order, want_steps)
        assert [order[v] for v in outs.tolist()] == net.outputs
        assert net.edges.tobytes() == edges


@settings(max_examples=150, deadline=None)
@given(square_dags())
@example(ALIAS_CHAIN)
@example(LinearNetwork(2, [], [1, 0], [1, 0]))
def test_record_and_transpose_return_compacted_networks(net):
    rec = record(net.eval, len(net.inputs))
    assert_compaction_of(uncompacted(lambda: record(net.eval, len(net.inputs))), rec)
    for fwd in (net, rec):
        assert_compaction_of(uncompacted(fwd.transpose), fwd.transpose())


@settings(max_examples=150, deadline=None)
@given(square_dags(), st.integers(0, 2**32 - 1))
@example(ALIAS_CHAIN, 0)
def test_compacted_program_keeps_the_network(net, seed):
    for net in (net, net.transpose()):
        flops = net.structural_flops()
        edges, dump, tdump = net.edges.tobytes(), net.dumps(), net.transpose().dumps()
        x = rng(60, seed).standard_normal(len(net.inputs))
        x[::3] = -0.0
        codelet, program = codelet_and_program(net, list(x))
        assert codelet == program
        # the compacted network gives the same bits, with the same counts
        small = compacted(net)
        assert small.structural_flops() == flops
        assert codelet_and_program(small, list(x)) == (codelet, codelet)
        # the program runs the network it was built from
        order, src, w, _, _ = net._program
        assert len(order) == net.n_vertices
        assert len(net.inputs) + len(src) - len(order) == flops[0]
        assert np.count_nonzero(np.abs(w) != 1.0) == flops[1]
        assert net.structural_flops() == flops
        assert net.edges.tobytes() == edges
        assert net.dumps() == dump
        assert net.transpose().dumps() == tdump


def _compacted(net):
    """The in-edges ``{v: [(src, w), ...]}`` of ``net`` compacted, in the
    ids of ``net``, once the compacted network's codelet and program have
    given the bits of the codelet of ``net``."""
    x = [-0.0] + [0.5 + i for i in net.inputs[1:]]
    codelet, program = codelet_and_program(net, x)
    assert codelet == program
    small = compacted(net)
    assert codelet_and_program(small, x) == (codelet, codelet)
    assert_compaction_of(net, small)
    return reference_compaction(net)


@pytest.mark.parametrize("net,kept", [
    (ALIAS_CHAIN,  # 3, 4 and 5 are renames of 2
     {2: [(0, 1.0), (1, 0.5)], 6: [(2, 1.0), (0, -1.0)], 7: [(6, 1.0)],
      8: [(6, 2.0), (1, 3.0)]}),
    (LinearNetwork(5, [(0, 2, -1.0), (2, 3, -1.0), (3, 4, 0.5), (1, 4, -1.0)], [0, 1], [4]),
     {4: [(0, 0.5), (1, -1.0)]}),  # x0 negated twice
    (LinearNetwork(5, [(0, 2, -1.0), (2, 3, 3.0), (3, 4, 1.0), (1, 4, 1.0)], [0, 1], [4]),
     {4: [(0, -3.0), (1, 1.0)]}),  # a -1 vertex into a multiply, folded into a sum
    (LinearNetwork(5, [(0, 2, 0.5), (2, 3, 3.0), (3, 4, 1.0), (1, 4, 1.0)], [0, 1], [4]),
     {2: [(0, 0.5)], 4: [(2, 3.0), (1, 1.0)]}),  # a multiply into a multiply stays
    (LinearNetwork(5, [(0, 2, 0.5), (2, 3, -1.0), (3, 4, 1.0), (1, 4, 1.0)], [0, 1], [4]),
     {4: [(0, -0.5), (1, 1.0)]}),  # a multiply read once, through a -1 vertex
    (LinearNetwork(5, [(0, 2, 0.5), (2, 3, 1.0), (1, 3, 1.0), (2, 4, 1.0), (1, 4, -1.0)],
                   [0, 1], [3, 4]),
     {2: [(0, 0.5)], 3: [(2, 1.0), (1, 1.0)], 4: [(2, 1.0), (1, -1.0)]}),  # read twice
    (LinearNetwork(7, [(0, 2, 1.0), (1, 3, -1.0), (0, 4, 0.5), (4, 5, 1.0), (0, 6, 1.0)],
                   [0, 1], [2, 3, 4, 5, 6]),
     {2: [(0, 1.0)], 3: [(1, -1.0)], 4: [(0, 0.5)], 5: [(4, 1.0)], 6: [(0, 1.0)]}),  # outputs
], ids=["alias-chain", "negated-twice", "negation-into-multiply", "multiply-into-multiply",
        "multiply-through-negation", "multiply-read-twice", "outputs"])
def test_compaction_removes_only_what_is_exact(net, kept):
    assert _compacted(net) == kept


def test_transpose_collapses_alias_chain():
    # the reversal's vertices 3 to 6 (forward 5 down to 2) are renames of
    # its vertex 2 (forward 6), and nothing else goes
    tnet = ALIAS_CHAIN.transpose()
    assert tnet.dumps() == (
        "# inputs: 1 0\n# outputs: 4 3\n"
        "1 2 1.0\n0 2 2.0\n2 3 0.5\n0 3 3.0\n2 4 1.0\n2 4 -1.0\n"
    )
    reversal = uncompacted(ALIAS_CHAIN.transpose)
    assert reversal.n_vertices == ALIAS_CHAIN.n_vertices
    assert_compaction_of(reversal, tnet)


def test_a_build_keeps_the_edges_until_its_program_is_whole():
    # a build that raises, and a caller that arrives while another build
    # runs, both find the edges: the program is published before the edge
    # array is dropped
    net = LinearNetwork(ALIAS_CHAIN.n_vertices, ALIAS_CHAIN.edges.copy(),
                        ALIAS_CHAIN.inputs, ALIAS_CHAIN.outputs)
    x = [0.5, -1.5]
    edges, want = net.edges.tobytes(), np.array(net.eval(x)).tobytes()
    last_step = transpose_net._vertex_major
    inner = []

    def evaluate_then_last_step(*args):
        with mock.patch.object(transpose_net, "_vertex_major", last_step):
            inner.append(np.array(net.eval(x)).tobytes())
        return last_step(*args)

    with mock.patch.object(transpose_net, "PROGRAM_MIN_EDGES", 0):
        with mock.patch.object(transpose_net, "_vertex_major", side_effect=MemoryError):
            with pytest.raises(MemoryError):
                net.eval(x)
        assert net._program is None and net.edges.tobytes() == edges
        with mock.patch.object(transpose_net, "_vertex_major", evaluate_then_last_step):
            outer = np.array(net.eval(x)).tobytes()
    assert inner == [outer] == [want]
    assert net._edges is None and net.edges.tobytes() == edges


@pytest.mark.parametrize("n", [128, 1024])
def test_program_matches_codelet_on_spectrum_net(n):
    net = _transposed_spectrum_net(n)
    assert len(net.edges) >= transpose_net.PROGRAM_MIN_EDGES
    x = rng(58, n).standard_normal(n)
    x[::5] = 0.0
    x[1::7] = -0.0
    for xs in (list(x), [-0.0] * n, [0.0] * n):
        codelet, program = codelet_and_program(net, xs)
        assert codelet == program
    y = net.eval(list(x))
    assert all(type(v) is float for v in y)
    # an array in gives a float64 array out, from the program and the codelet
    for edges in (transpose_net.PROGRAM_MIN_EDGES, len(net.edges) + 1):
        with mock.patch.object(transpose_net, "PROGRAM_MIN_EDGES", edges):
            ya = net.eval(x)
        assert type(ya) is np.ndarray and ya.tobytes() == np.array(y).tobytes()


def test_recording_a_program_sized_network():
    # TraceScalar inputs run the program above the threshold, as floats do,
    # and no codelet is compiled (fresh transposed spectrum networks)
    for n in (128, 1024):
        net = dct2._spectrum_net(build_tables(n)).transpose()
        assert len(net.edges) >= transpose_net.PROGRAM_MIN_EDGES
        assert net._program is None and net._codelet is None
        rec = record(net.eval, n)
        assert net._program is not None and net._codelet is None
        assert rec.structural_flops() == net.structural_flops()
        x = rng(59, n).standard_normal(n)
        x[::5] = -0.0
        assert np.array(rec.eval(list(x))).tobytes() == np.array(net.eval(list(x))).tobytes()
        assert net._codelet is None


def _complex_adapter(fn, n):
    # complex kernel as a real-linear map over 2N lanes [re..., im...]
    def kernel(lanes):
        outr, outi = fn(list(lanes[:n]), list(lanes[n:]))
        return list(outr) + list(outi)

    return kernel


KERNEL_CASES = []
for n in (4, 16, 32, dct2.ROWS_MIN_SIZE):
    tab_n = build_tables(n)
    KERNEL_CASES += [
        pytest.param(n, "dct2_classic",
                     lambda xs, led, t=_classic_state(n): _dct2_new_lanes(xs, "two-sided", t, led),
                     id=f"dct2_classic-{n}"),
        pytest.param(n, "dct2_new",
                     lambda xs, led, t=tab_n: _dct2_new_lanes(xs, "two-sided", t, led),
                     id=f"dct2_new-{n}"),
        pytest.param(n, "dct2_scaled",
                     lambda xs, led, t=tab_n: _dct2_scaled_lanes(xs, None, t, led),
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
    direct = lane_kernel(np.array(x), FlopLedger())
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
    with pytest.raises(TraceError, match="product of two traced values"):
        record(lambda xs: [xs[0] * xs[1]], 2)
    with pytest.raises(TraceError):
        record(lambda xs: [xs[0] + 1.0], 1)
    with pytest.raises(TraceError):
        record(lambda xs: [xs[0] / 2.0], 1)
    for c, name in ((1j, "complex"), ("2", "str")):
        with pytest.raises(TraceError, match=f"cannot scale a traced value by {name}"):
            record(lambda xs: [xs[0] * c], 1)


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
    (3, [(0, 2, 1.0), (1, 2, 1.0)], [0, 0, 1], [2], "input vertex 0 is repeated"),
    (3, [(0, 2, 1.0)], [0], [2], "vertex 1 is neither an input nor a sum"),
    (4, [(0, 2, 1.0), (0, 3, 1.0), (1, 2, 1.0)], [0, 1], [3],
     "incoming edges of vertex 2 are not contiguous"),
    (2, [(0, 5, 1.0)], [0], [1], "edge 0->5 ends past the last vertex 1"),
    (2, [(0, 1, 1.0)], [7], [1], "input vertex 7 is not among the 2 vertices"),
    (2, [(0, 1, 1.0)], [0], [-1], "output vertex -1 is not among the 2 vertices"),
], ids=["edge-to-equal-id", "edge-from-negative-id", "input-with-edge", "repeated-input",
        "no-edges",
        "not-contiguous", "edge-past-end", "input-out-of-range", "negative-output"])
def test_evaluation_order_violations_rejected(n_vertices, edges, inputs, outputs, message):
    with pytest.raises(ValueError, match=message):
        LinearNetwork(n_vertices, edges, inputs, outputs)


def test_transpose_rejects_a_repeated_output():
    net = LinearNetwork(3, [(0, 2, 1.0), (1, 2, 1.0)], [0, 1], [2, 2])
    assert net.eval([1.0, 2.0]) == [3.0, 3.0]
    with mock.patch.object(transpose_net, "LinearNetwork") as built, \
         pytest.raises(ValueError, match="output vertex 2 is repeated"):
        net.transpose()
    assert built.call_count == 0


def test_dumps_edge_list():
    tab = build_tables(4)
    net = record(lambda xs: _dct2_new_lanes(xs, "two-sided", tab, FlopLedger()), 4)
    text = net.dumps()
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert len(lines) == len(net.edges)
    src, dst, w = lines[0].split()
    int(src), int(dst), float(w)


def _row_recording(tab):
    # tab's real DFT recorded by its row kernel, as dct2 records it, and its ledger
    _, _, rows = dct2._real_dft(tab)
    led = FlopLedger()
    return record_rows(lambda ins: rows(ins[None], led), tab.size), led.as_tuple()


def _scalar_recording(tab):
    # tab's real DFT recorded by its scalar kernel on TraceScalar values, and its ledger
    _, lanes, _ = dct2._real_dft(tab)
    led = FlopLedger()
    return record(lambda ins: pack_lanes(*lanes(list(ins), led)), tab.size), led.as_tuple()


def _spectrum_record(tab):
    net, led = _row_recording(tab)
    return net.dumps(), led


SPECTRUM_SIZES = [1 << e for e in range(1, 13)]


@pytest.mark.parametrize("make", [uncompacted, lambda f: f()], ids=["full", "compacted"])
def test_spectrum_recordings_are_isomorphic_to_the_full_trace(make):
    # both real DFTs at N=2..4096: the row kernel's recording is the scalar
    # trace renumbered, with the same ledger, before compaction and after
    for n in SPECTRUM_SIZES:
        for tab in (ScaleTables(n), _classic_state(n)):
            (rows, led_rows), (scalar, led_scalar) = make(
                lambda t=tab: (_row_recording(t), _scalar_recording(t)))
            assert led_rows == led_scalar == rows.structural_flops(), n
            form_rows, form_scalar = canonical_forms(rows, scalar)
            assert form_rows == form_scalar, n
            assert (rows.n_vertices, len(rows.edges)) == (scalar.n_vertices, len(scalar.edges))


def _recorded_plans(n):
    # every plan of the cosine/sine kernels at size n, recorded on the first
    # call, each on fresh tables, with its ledger
    out = []
    with mock.patch.object(dct2, "PLAN_AFTER_CALLS", 1):
        for kernel in KERNELS:
            if kernel.family != "trig":
                continue
            for norm_name in kernel.norms:
                tab = _fresh_tables(kernel, n)
                led = FlopLedger()
                kernel.run([0.0] * n, _NORMS[norm_name], tab, led)
                # the plan, under its configuration's key (a table set also
                # keeps its own spectrum networks)
                nets = [p for k, p in tab.plans.items()
                        if isinstance(k, tuple) and isinstance(p, LinearNetwork)]
                assert len(nets) == 1
                out.append((nets[0], led.as_tuple()))
    return out


def _fresh_tables(kernel, n):
    if kernel.algo == "classic":
        tab = _classic_state(n)
        tab.plans.clear()
        return tab
    return ScaleTables(n)


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_plans_are_isomorphic_to_the_full_trace(monkeypatch, n):
    # the DCT-III/DST-III plans record through the transposed spectrum
    # network; with the spectrum network the scalar trace in place of the
    # row recording, every plan is the same graph renumbered, with its ledger
    _transposed_spectrum_net.cache_clear()
    plans = uncompacted(lambda: _recorded_plans(n))
    monkeypatch.setattr(dct2, "_record_spectrum", lambda tab: _scalar_recording(tab)[0])
    _transposed_spectrum_net.cache_clear()
    full = uncompacted(lambda: _recorded_plans(n))
    _transposed_spectrum_net.cache_clear()
    assert [led for _, led in plans] == [led for _, led in full]
    for (net, _), (want, _) in zip(plans, full):
        form, form_full = canonical_forms(net, want)
        assert form == form_full


def test_two_recordings_in_threads_agree():
    # the full recordings, and the compacted networks record_rows() returns
    tabs = [build_tables(1024), _classic_state(1024)]
    with ThreadPoolExecutor(2) as pool:
        for make in (uncompacted, lambda f: f()):
            want = make(lambda: [_spectrum_record(t) for t in tabs])
            got = make(lambda: list(pool.map(_spectrum_record, tabs * 2)))
            assert got == want * 2


def test_trace_rows_refuse_what_is_not_linear():
    for kernel, match in ((lambda x: x + 1.0, "adding a constant"),
                          (lambda x: np.ones(2) + x, "adding a constant"),
                          (lambda x: 1.0 - x, "from a constant"),
                          (lambda x: x * x, "product of two traced values"),
                          (lambda x: x / 2.0, "must not divide"),
                          (lambda x: np.zeros(2), "not traced")):
        with pytest.raises(TraceError, match=match):
            record_rows(kernel, 2)


def test_trace_rows_weigh_each_column_by_its_constant():
    net = record_rows(lambda x: np.array([0.5, 3.0]) * x[None] + x[None] * 2.0, 2)
    assert net.eval([1.0, 10.0]) == [2.5, 50.0]
    assert sorted(w for _, _, w in net.edges.tolist()) == [0.5, 1.0, 1.0, 2.0, 2.0, 3.0]


def test_traced_multiplication_takes_any_real_as_a_float_weight():
    net = record(lambda ins: [ins[0] * 0.5, 2 * ins[0], ins[1] * True, np.float64(3.0) * ins[1]], 2)
    assert [w for _, _, w in net.edges.tolist()[:4]] == [0.5, 2.0, 1.0, 3.0]
