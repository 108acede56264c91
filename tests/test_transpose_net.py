import math

import numpy as np
import pytest
from conftest import max_rel, rng

from fastdcst import (
    FlopLedger,
    LinearNetwork,
    TraceError,
    build_tables,
    naive_dct3,
    record,
)
from fastdcst.dct2 import _dct2_classic_lanes, _dct2_new_lanes, _dct2_scaled_lanes
from fastdcst.fft_complex import _fft_scaled_lanes, _fft_std_lanes
from fastdcst.fft_real import half_spectrum_lanes
from fastdcst.trig_family import _dct3_new_lanes, _dst2_new_lanes, _dst3_new_lanes


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
    net = LinearNetwork(2, [(1, 0, 1.0), (0, 1, 1.0)], [0], [1])
    with pytest.raises(ValueError):
        net.eval([1.0])


def test_dumps_edge_list():
    tab = build_tables(4)
    net = record(lambda xs: _dct2_new_lanes(xs, "two-sided", tab, FlopLedger()), 4)
    text = net.dumps()
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert len(lines) == len(net.edges)
    src, dst, w = lines[0].split()
    int(src), int(dst), float(w)
