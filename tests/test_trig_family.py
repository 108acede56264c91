import numpy as np
import pytest
from conftest import max_rel, rng

from fastdcst import (
    FlopLedger,
    Normalization,
    build_tables,
    dct2_classic,
    dct2_new,
    dct3_new,
    dst2_new,
    dst3_new,
    formula_new_dct2,
    naive_dct2,
    naive_dct3,
    naive_dst2,
    naive_dst3,
)
from fastdcst.scale_factors import _cached_tables
from fastdcst.trig_family import _transposed_spectrum_net

NORMS = list(Normalization)


def test_dct3_ledger_16():
    led = FlopLedger()
    dct3_new([0.0] * 16, ledger=led)
    assert led.total() == 112


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128, 256])
def test_family_flop_parity_componentwise(n):
    zeros = [0.0] * n
    l2, l3, ls2, ls3 = (FlopLedger() for _ in range(4))
    dct2_new(zeros, ledger=l2)
    dct3_new(zeros, ledger=l3)
    dst2_new(zeros, ledger=ls2)
    dst3_new(zeros, ledger=ls3)
    assert l2.as_tuple() == l3.as_tuple() == ls2.as_tuple() == ls3.as_tuple()


@pytest.mark.parametrize("n", [2, 8, 64, 512])
def test_dct3_matches_oracle(n):
    x = rng(60, n).standard_normal(n)
    for norm in NORMS:
        assert max_rel(dct3_new(x, norm), naive_dct3(x, norm)) < 1e-11


@pytest.mark.parametrize("n", [2, 8, 64, 256])
def test_dst2_matches_oracle(n):
    x = rng(61, n).standard_normal(n)
    for norm in NORMS:
        got = dst2_new(x, norm=norm)
        assert max_rel(got, naive_dst2(x, norm)) < 1e-11


@pytest.mark.parametrize("n", [2, 8, 64, 256])
def test_dst3_matches_oracle(n):
    x = rng(62, n).standard_normal(n)
    for norm in NORMS:
        got = dst3_new(x, norm=norm)
        assert max_rel(got, naive_dst3(x, norm)) < 1e-11


def test_dst_zero_input():
    assert dst2_new([0.0] * 16) == [0.0] * 16


@pytest.mark.parametrize("n", [2, 16, 128, 1024])
def test_unitary_round_trips(n):
    x = rng(63, n).standard_normal(n)
    r1 = dct3_new(dct2_new(x, Normalization.UNITARY), Normalization.UNITARY)
    assert np.max(np.abs(np.array(r1) - x)) < 1e-10
    r2 = dst3_new(
        dst2_new(x, norm=Normalization.UNITARY), norm=Normalization.UNITARY
    )
    assert np.max(np.abs(np.array(r2) - x)) < 1e-10


@pytest.mark.parametrize("n", [16, 64])
def test_dst2_matrix_is_reversed_signflipped_dct2(n):
    eye = np.eye(n)
    m_dst = np.array([dst2_new(col) for col in eye]).T
    m_dct = np.array([dct2_new(col) for col in eye]).T
    flip = np.diag([(-1.0) ** i for i in range(n)])
    assert np.max(np.abs(m_dst - (m_dct @ flip)[::-1, :])) < 1e-12 * np.max(
        np.abs(m_dct)
    )


@pytest.mark.parametrize("n", [16, 64])
def test_dct3_matrix_is_dct2_transpose(n):
    eye = np.eye(n)
    m3 = np.array([dct3_new(col) for col in eye]).T
    m2 = np.array([dct2_new(col) for col in eye]).T
    assert np.max(np.abs(m3 - m2.T)) < 1e-12 * np.max(np.abs(m2))


def test_ledger_parity_holds_per_normalization():
    n = 64
    x = list(rng(66).standard_normal(n))
    for norm in NORMS:
        ledgers = []
        for fn in (dct2_new, dct3_new, dst2_new, dst3_new):
            led = FlopLedger()
            # one signature: (x, norm, tables, ledger)
            assert fn(x, norm, None, led) == fn(x, norm=norm), fn.__name__
            ledgers.append(led.as_tuple())
        assert len(set(ledgers)) == 1
        assert dct2_classic(x, norm) == dct2_classic(x, norm=norm)


def test_ledger_independent_of_values():
    n = 32
    l1, l2 = FlopLedger(), FlopLedger()
    dct3_new(rng(64).standard_normal(n), ledger=l1)
    dct3_new(rng(65).standard_normal(n), ledger=l2)
    assert l1 == l2


def test_rejects_bad_sizes():
    with pytest.raises(ValueError):
        dct3_new([0.0] * 12)
    with pytest.raises(ValueError):
        dst2_new([0.0] * 16, tables=build_tables(8))


def test_dct3_at_65536():
    # the row recording and the sliced tables make the transposed network
    # affordable here; numpy.fft of the 4N extension is the reference
    n = 1 << 16
    x = rng(49, n).standard_normal(n)
    lc, ls = FlopLedger(), FlopLedger()
    try:
        got_c = dct3_new(x, ledger=lc)
        got_s = dst3_new(x, ledger=ls)
    finally:
        # the two networks of this size need not outlive the test
        _transposed_spectrum_net.cache_clear()
        _cached_tables.cache_clear()
    assert lc.total() == formula_new_dct2(n)
    assert ls.as_tuple() == lc.as_tuple()
    z = np.zeros(4 * n)
    z[:n] = 2.0 * x
    assert max_rel(got_c, np.fft.rfft(z)[1:2 * n:2].real) < 1e-10
    z = np.zeros(4 * n)
    z[1:n + 1] = 2.0 * x
    assert max_rel(got_s, -np.fft.rfft(z)[1:2 * n:2].imag) < 1e-10
