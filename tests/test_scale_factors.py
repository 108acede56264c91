import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastdcst import build_tables, scale, t_factor, unit_root
from fastdcst.scale_factors import CACHED_SIZES, ScaleTables, TableError, _cached_tables
from fastdcst.trig_family import _transposed_spectrum_net

SIZES = [8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096]


def test_trivial_regime():
    assert scale(4, 3) == 1.0
    assert scale(1, 0) == 1.0
    assert scale(2, 1) == 1.0
    for n in (8, 16, 256):
        assert scale(n, 0) == 1.0


def test_known_values():
    # evaluate the recurrence by hand: k4 = 1 <= 16/8 -> cos branch
    assert scale(16, 1) == pytest.approx(math.cos(math.pi / 8), abs=1e-15)
    # k4 = 3 > 2 -> sin branch
    assert scale(16, 3) == pytest.approx(math.sin(3 * math.pi / 8), abs=1e-15)
    assert scale(8, 1) == pytest.approx(math.sqrt(0.5), abs=1e-15)


def test_quarter_periodicity_exact():
    for n in SIZES:
        q = n // 4
        for k in range(n):
            assert scale(n, k) == scale(n, k % q)


def test_mirror_symmetry():
    for n in SIZES:
        q = n // 4
        for k in range(q + 1):
            assert scale(n, q - k) == pytest.approx(scale(n, k), rel=1e-14)


def test_positive_and_bounded():
    for n in SIZES:
        for k in range(n // 4):
            s = scale(n, k)
            assert 0.0 < s <= 1.0


@given(
    m=st.integers(min_value=3, max_value=12),
    k=st.integers(min_value=0, max_value=4095),
)
@settings(max_examples=200)
def test_scale_properties_fuzz(m, k):
    n = 1 << m
    k %= n
    s = scale(n, k)
    assert 0.0 < s <= 1.0
    assert s == scale(n, k % (n // 4))


@pytest.mark.parametrize("n,k", [(12, 0), (0, 0), (8, 8), (8, -1)])
def test_scale_rejects_bad_args(n, k):
    with pytest.raises(ValueError):
        scale(n, k)


def test_t_factor_trivial_and_known():
    for n in (4, 8, 16, 64, 256):
        assert t_factor(n, 0) == 1.0
    t = t_factor(16, 1)
    assert t.real == pytest.approx(1.0, abs=1e-15)
    assert t.imag == pytest.approx(-math.tan(math.pi / 8), abs=1e-15)


def test_t_factor_cot_branch():
    # k = 3 > 16/8: the imaginary part is unit magnitude
    t = t_factor(16, 3)
    assert abs(abs(t.imag) - 1.0) < 1e-15
    # against direct evaluation of the twiddle * scale-ratio product
    want = unit_root(3, 16) * scale(4, 3) / scale(16, 3)
    assert abs(t - want) < 1e-15
    assert t.real == pytest.approx(1 / math.tan(3 * math.pi / 8), abs=1e-15)


def test_t_factor_rejects_bad_args():
    with pytest.raises(ValueError):
        t_factor(16, 4)
    with pytest.raises(ValueError):
        t_factor(2, 0)
    with pytest.raises(ValueError):
        t_factor(24, 1)


def _decode_t_struct(struct):
    # (unit_re, sign, coef): sign * (1 + i*coef) or sign * (coef + i)
    unit_re, sign, coef = struct
    return sign * (complex(1.0, coef) if unit_re else complex(coef, 1.0))


def test_unit_component_form_of_stored_t():
    tab = build_tables(256)
    assert sorted(tab._tstruct) == [4 << e for e in range(9)]  # 4 .. 4*256
    for m, row in tab._tstruct.items():
        assert len(row) == m // 4
        for k, (ts, tcs) in enumerate(row):
            t = t_factor(m, k)
            assert abs(_decode_t_struct(ts) - t) < 1e-12, (m, k)
            assert abs(_decode_t_struct(tcs) - t.conjugate()) < 1e-12, (m, k)


def test_build_tables_basics():
    tab1 = build_tables(1)
    assert tab1._tstruct == {}
    tab = build_tables(16)
    # invariant replay on the stored s entries
    for m, row in tab._s.items():
        q = m // 4
        for k in range(q):
            assert row[k] > 0.0
            assert tab.s(m, k + q) == tab.s(m, k)
            assert tab.s(m, q - k) == pytest.approx(tab.s(m, k), rel=1e-13)
    assert build_tables(64).twiddle_dct[0] == 2.0


def test_tables_match_recursive_scale():
    # bottom-up memoized tables vs the top-down recurrence
    tab = build_tables(512)
    for m in tab._s:
        for k in range(m // 4):
            top_down = scale(m, k)
            assert abs(tab.s(m, k) - top_down) <= 1e-15 * top_down


def test_validate_passes_and_detects_corruption():
    ScaleTables(1024).validate()
    tab = ScaleTables(32)
    tab._s[64][3] *= 1.5
    with pytest.raises(TableError):
        tab.validate()


def test_validate_rejects_exactly_trivial_ratios_only():
    # structural counts treat exactly +-1 as free; anything else is a mult
    tab = ScaleTables(64)
    tab._r4[64][0][1] = 1.0
    with pytest.raises(TableError, match="trivial"):
        tab.validate()
    tab._r4[64][0][1] = 1.0 + 2.0**-40
    tab.validate()


def test_unit_root_against_cmath():
    import cmath

    for n in (1, 2, 3, 7, 8, 12, 64, 4096):
        for j in range(0, n, max(1, n // 16)):
            want = cmath.exp(-2j * math.pi * j / n)
            assert abs(unit_root(j, n) - want) < 1e-15


def test_build_tables_cached():
    assert build_tables(64) is build_tables(64)
    # a verify --max-size 64 run uses 6 sizes; none may be evicted meanwhile
    assert CACHED_SIZES >= 8
    sizes = [2**k for k in range(1, CACHED_SIZES + 2)]
    first = build_tables(sizes[-1])
    for n in [sizes[-1]] + sizes[:-1]:
        build_tables(n)
        _transposed_spectrum_net(n)
    assert _cached_tables.cache_info().currsize <= CACHED_SIZES
    assert _transposed_spectrum_net.cache_info().currsize <= CACHED_SIZES
    again = build_tables(sizes[-1])
    assert again is not first
    assert again.twiddle_dct == first.twiddle_dct
    assert again.dct_scales == first.dct_scales
