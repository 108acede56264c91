import math

import numpy as np
import pytest
from conftest import max_rel, rng

from fastdcst import (
    FlopLedger,
    Normalization,
    build_tables,
    dct2_classic,
    dct2_new,
    dct2_scaled,
    dst2_new,
    embed_4n,
    fft_scaled,
    formula_M,
    formula_MS,
    formula_classic_dct2,
    formula_new_dct2,
    formula_new_fft_complex,
    formula_splitradix_real,
    naive_dct2,
    naive_dft,
    reorder_even_odd,
    rfft_scaled,
    unit_root,
)
from fastdcst.dct2 import _classic_state

NORMS = list(Normalization)


def test_reorder_even_odd():
    x = list(range(8))
    assert reorder_even_odd(x) == [0, 2, 4, 6, 7, 5, 3, 1]
    assert reorder_even_odd([10, 11]) == [10, 11]


def test_reorder_inverse_recovers_input():
    x = list(rng(40).standard_normal(16))
    y = reorder_even_odd(x)
    n = len(x)
    back = [None] * n
    for i in range(n // 2):
        back[2 * i] = y[i]
        back[2 * i + 1] = y[n - 1 - i]
    assert back == x


def test_reorder_rejects_odd_length():
    with pytest.raises(ValueError):
        reorder_even_odd([1, 2, 3])


def test_classic_ledger_16():
    led = FlopLedger()
    dct2_classic([0.0] * 16, ledger=led)
    assert led.total() == 114


def test_classic_norm_ledgers():
    for n in (8, 16, 64):
        for norm, expect in (
            (Normalization.TWO_SIDED, formula_classic_dct2(n)),
            (Normalization.UNITARY, formula_classic_dct2(n)),
            (Normalization.UNITARY_SQRT_N, formula_classic_dct2(n) - 2),
        ):
            led = FlopLedger()
            dct2_classic([0.0] * n, norm, led)
            assert led.total() == expect, (n, norm)


def test_impulse_against_closed_form():
    n = 16
    got = dct2_classic([1.0] + [0.0] * (n - 1))
    want = [2 * math.cos(math.pi * k / (2 * n)) for k in range(n)]
    assert max_rel(got, want) < 1e-12
    got_new = dct2_new([1.0] + [0.0] * (n - 1))
    assert max_rel(got_new, want) < 1e-12


def test_zeros_stay_zero():
    assert dct2_new([0.0] * 8) == [0.0] * 8


def test_n2_closed_form():
    x0, x1 = 1.25, -0.5
    got = dct2_new([x0, x1])
    assert got[0] == pytest.approx(2 * (x0 + x1), rel=1e-15)
    assert got[1] == pytest.approx(math.sqrt(2) * (x0 - x1), rel=1e-15)
    led = FlopLedger()
    dct2_new([1.0, 2.0], ledger=led)
    assert led.total() == formula_new_dct2(2) == 4


@pytest.mark.parametrize("n", [2, 4, 8, 16, 64, 256, 1024])
def test_new_matches_classic(n):
    x = rng(41, n).standard_normal(n)
    assert max_rel(dct2_new(x), dct2_classic(x)) < 1e-12


@pytest.mark.parametrize("n", [4, 16, 128, 512])
def test_new_matches_oracle(n):
    x = rng(42, n).standard_normal(n)
    for norm in NORMS:
        assert max_rel(dct2_new(x, norm), naive_dct2(x, norm)) < 1e-12


@pytest.mark.parametrize("n", [8, 32, 128])
def test_unitary_orthogonality(n):
    cols = [dct2_new(row, Normalization.UNITARY) for row in np.eye(n)]
    m = np.array(cols).T
    assert np.max(np.abs(m.T @ m - np.eye(n))) < 1e-10


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
def test_dft_embedding_identity(n):
    x = rng(43, n).standard_normal(n)
    spectrum = naive_dft(embed_4n(x))
    got = np.array(dct2_new(x))
    assert np.max(np.abs(got - spectrum[:n].real)) < 1e-10 * np.max(np.abs(spectrum))


@pytest.mark.parametrize("n", [4, 8, 16, 64, 256, 1024, 4096])
def test_ledger_gap_is_half_MS(n):
    lc, ln = FlopLedger(), FlopLedger()
    dct2_classic([0.0] * n, ledger=lc)
    dct2_new([0.0] * n, ledger=ln)
    assert lc.total() - ln.total() == formula_MS(n) // 2


def test_normalization_consistency():
    n = 32
    x = rng(44).standard_normal(n)
    two = np.array(dct2_new(x, Normalization.TWO_SIDED))
    unit = np.array(dct2_new(x, Normalization.UNITARY))
    factors = np.array(
        [math.sqrt((2.0 - (k == 0)) / n) / 2.0 for k in range(n)]
    )
    assert np.max(np.abs(unit - factors * two)) < 1e-12 * np.max(np.abs(two))
    upn = np.array(dct2_new(x, Normalization.UNITARY_SQRT_N))
    assert np.max(np.abs(upn - math.sqrt(n) * unit)) < 1e-12 * np.max(np.abs(upn))


def test_scaled_ledger_saves_exactly_n():
    for n in (8, 16, 64, 256):
        ln, ls = FlopLedger(), FlopLedger()
        dct2_new([0.0] * n, ledger=ln)
        dct2_scaled([0.0] * n, ledger=ls)
        assert ls.adds == ln.adds
        assert ls.mults == ln.mults - n
    # the size-8 saving reproduces the classic scaled-DCT result
    l8 = FlopLedger()
    dct2_scaled([0.0] * 8, ledger=l8)
    assert formula_new_dct2(8) == 42
    assert l8.total() == 42 - 8


@pytest.mark.parametrize("n", [2, 8, 64, 512])
def test_scaled_values_times_scales_is_two_sided(n):
    x = rng(45, n).standard_normal(n)
    res = dct2_scaled(x)
    got = np.array(res.values) * np.array(res.scales)
    assert max_rel(got, naive_dct2(x)) < 1e-12
    assert all(s > 0 for s in res.scales)


def test_scaled_zero_input():
    res = dct2_scaled([0.0] * 16)
    assert res.values == [0.0] * 16
    assert all(s > 0 for s in res.scales)


def test_scaled_end_bins_pass_through():
    # bins 0 and N/2 come out unmultiplied: C0/(2*s)=Z0 and likewise at N/2
    n = 16
    x = rng(46).standard_normal(n)
    res = dct2_scaled(x)
    two = naive_dct2(x)
    assert res.scales[0] == pytest.approx(2.0)
    assert res.values[0] == pytest.approx(two[0] / 2.0, rel=1e-12)


def test_classic_stage_matches_definition():
    # the classic constants come from the same dct_stage as the rescaled
    # ones; they must still be exactly factor * unit_root(k, 4N), zero
    # signs included.  Slot 0 is never read: bins 0 and N/2 take the ends.
    for n in (1 << e for e in range(1, 13)):
        state = _classic_state(n)
        for norm, factor, ends in (
            (Normalization.TWO_SIDED, 2.0, (2.0, math.sqrt(2.0))),
            (Normalization.UNITARY, math.sqrt(2.0 / n),
             (1.0 / math.sqrt(n), 1.0 / math.sqrt(n))),
            (Normalization.UNITARY_SQRT_N, math.sqrt(2.0), (None, None)),
        ):
            c0, ch, re, im = state.dct_stage(norm.value)
            pairs = list(zip(re.tolist(), im.tolist()))
            assert (c0, ch) == ends
            assert len(pairs) == n // 2
            for k in range(1, n // 2):
                c = unit_root(k, 4 * n)
                want = (factor * c.real, factor * c.imag)
                assert pairs[k] == want, (n, norm, k)
                signs = [math.copysign(1.0, v) for v in pairs[k] + want]
                assert signs[:2] == signs[2:], (n, norm, k)


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        dct2_new([0.0] * 12)
    with pytest.raises(ValueError):
        dct2_new([0.0])
    with pytest.raises(ValueError):
        dct2_new([0.0] * 16, tables=build_tables(8))


def test_tables_shared_across_threads():
    from concurrent.futures import ThreadPoolExecutor

    tab = build_tables(64)
    x = list(rng(47).standard_normal(64))
    want = dct2_new(x, tables=tab)
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda _: dct2_new(x, tables=tab), range(16)))
    assert all(r == want for r in results)


def test_dct2_at_65536():
    # the tables' trivial-ratio check is exact, so 2**16 builds; the O(N^2)
    # oracle is too slow here, numpy.fft of the 4N embedding is the reference
    n = 1 << 16
    x = rng(48, n).standard_normal(n)
    ln, ls = FlopLedger(), FlopLedger()
    got = dct2_new(x, ledger=ln)
    res = dct2_scaled(x, ledger=ls)
    assert ln.total() == formula_new_dct2(n)
    assert ls.as_tuple() == (ln.adds, ln.mults - n)
    want = np.fft.rfft(embed_4n(x))[:n].real
    assert max_rel(got, want) < 1e-10
    assert max_rel(np.array(res.values) * np.array(res.scales), want) < 1e-10
    lc, lst = FlopLedger(), FlopLedger()
    assert max_rel(dct2_classic(x, ledger=lc), want) < 1e-10
    assert lc.total() == formula_classic_dct2(n)
    # DST-II(x)[k] is DCT-II((-1)^j x_j)[N-1-k]
    alt = np.where(np.arange(n) % 2, -x, x)
    assert max_rel(dst2_new(x, ledger=lst), np.fft.rfft(embed_4n(alt))[:n].real[::-1]) < 1e-10
    assert lst.as_tuple() == ln.as_tuple()


def test_public_ffts_at_65536():
    # the scalar kernels, on lists, read every level's floats, made on
    # first read from the cached set's arrays
    n = 1 << 16
    tab = build_tables(n)
    x = rng(49, n).standard_normal(n)
    z = x + 1j * rng(50, n).standard_normal(n)
    lr, lc = FlopLedger(), FlopLedger()
    assert max_rel(rfft_scaled(x, 0, tab, lr).bins, np.fft.rfft(x)) < 1e-10
    assert max_rel(fft_scaled(z, 0, tab, lc), np.fft.fft(z)) < 1e-10
    assert lr.total() == formula_splitradix_real(n) - formula_M(n) // 2
    assert lc.total() == formula_new_fft_complex(n)
