import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from conftest import rng
from hypothesis import given, settings
from hypothesis import strategies as st

from fastdcst import (
    build_tables,
    dct2_new,
    dct3_new,
    rfft_scaled,
    rfft_scaled4,
    scale,
    scale_factors,
    t_factor,
    unit_root,
)
from fastdcst.scale_factors import CACHED_SIZES, ScaleTables, TableError, _cached_tables, _levels
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


def test_unit_component_form_of_stored_t():
    # each t-factor is kept as its coef: t = 1 + i*coef for k <= m/8, and
    # -(coef + i) above
    tab = build_tables(256)
    for m in _levels(4, 256):  # the levels read
        coef = tab.scalars(m).coef
        assert len(coef) == m // 4
        for k, c in enumerate(coef):
            stored = complex(1.0, c) if 8 * k <= m else -complex(c, 1.0)
            assert abs(stored - t_factor(m, k)) < 1e-12, (m, k)
    assert tab.scalars(512).coef is None
    with pytest.raises(KeyError):
        tab.scalars(2048)


def test_build_tables_basics():
    assert build_tables(1).scalars(4).coef is None
    tab = build_tables(16)
    # invariant replay on the stored s entries
    for m in _levels(8, 64):
        q = m // 4
        s = tab.scalars(m).s
        assert len(s) == q
        for k in range(q):
            assert s[k] > 0.0
            assert scale(m, k + q) == s[k]
            assert s[(q - k) % q] == pytest.approx(s[k], rel=1e-13)
    c0, ch, re, im = build_tables(64).dct_stage("two-sided")
    assert (re[0], im[0]) == (2.0, 0.0)


def test_tables_match_recursive_scale():
    # bottom-up memoized tables vs the top-down recurrence
    tab = build_tables(512)
    for m in _levels(8, 2048):
        s = tab.scalars(m).s
        for k in range(m // 4):
            top_down = scale(m, k)
            assert abs(s[k] - top_down) <= 1e-15 * top_down


def test_validate_passes_and_detects_corruption():
    ScaleTables(1024).validate()
    tab = ScaleTables(32)
    tab.level(64).s[3] *= 1.5
    with pytest.raises(TableError):
        tab.validate()


def test_validate_rejects_exactly_trivial_ratios_only():
    # structural counts treat exactly +-1 as free; anything else is a mult
    tab = ScaleTables(64)
    tab.level(64).ratio4[0, 1] = 1.0
    with pytest.raises(TableError, match="trivial"):
        tab.validate()
    tab.level(64).ratio4[0, 1] = 1.0 + 2.0**-40
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
    for key in ("two-sided", "unitary", "unitary-sqrtn"):
        for a, b in zip(again.dct_stage(key), first.dct_stage(key)):
            assert np.array_equal(a, b), key
    assert again.dct_scales == first.dct_scales


def _bits(values):
    # repr tells -0.0 from 0.0 and shows every float exactly
    return repr([float(v) for v in values])


@pytest.mark.parametrize("n", [1 << e for e in range(13)])
def test_table_rows_equal_the_recursive_references_bitwise(n):
    # every level is sliced from one trig row and run through numpy; each
    # entry must still be the recursive scale()/t_factor() value, bit for bit
    tab = ScaleTables(n)
    top = 4 * n
    for m in _levels(4, top):
        q = m // 4
        lv, sc = tab.level(m), tab.scalars(m)
        want = _bits(scale(m, k) for k in range(q))
        assert _bits(lv.s) == want == _bits(sc.s), m
        if m > n:  # the kernels read levels 4 .. n only
            assert lv[1:] == sc[1:] == (None,) * 4
            continue
        # t-factors, as their coefs in the arrays and the lists: t = 1 +
        # i*coef for k <= m/8 and -(coef + i) above
        ts = [t_factor(m, k) for k in range(q)]
        want = _bits(t.imag if 8 * k <= m else -t.real for k, t in enumerate(ts))
        assert _bits(lv.coef) == want == _bits(sc.coef), m
        for name, denominators in (("ratio2a", range(q)), ("ratio2b", range(q, 2 * q))):
            want = _bits(scale(m, k) / scale(2 * m, d) for k, d in enumerate(denominators))
            assert _bits(getattr(lv, name)) == want == _bits(getattr(sc, name)), (m, name)
        for j in range(4):
            want = _bits(scale(m, k) / scale(4 * m, k + j * q) for k in range(q))
            assert _bits(lv.ratio4[j]) == want == _bits(sc.ratio4[j]), (m, j)
    if n >= 2:
        assert tab.inv_s8_1 == 1.0 / scale(8, 1)
        tan = [-t_factor(top, k).imag for k in range(1, n // 2)]  # k < top/8
        assert _bits(tab.scaled_stage_tan) == _bits([0.0] + tan)
    c0, ch, re, im = tab.dct_stage("two-sided")
    assert repr(list(zip(re.tolist(), im.tolist()))) == repr(
        [(t.real, t.imag) for t in (2.0 * unit_root(k, top) * scale(n, k) for k in range(n // 2))])
    assert _bits(tab.dct_scales) == _bits(2.0 * scale(top, k) for k in range(n))


# the level arrays by the names the parameters of the next test give them
_RATIOS = {"_r2a": "ratio2a", "_r2b": "ratio2b", "_r4": "ratio4"}


@pytest.mark.parametrize("row,m,j,k,v,message", [
    ("_r2a", 256, None, 5, 0.0, r"ratio2a\(256,5\) = 0.0 is trivial"),
    ("_r2b", 64, None, 3, -1.0, r"ratio2b\(64,3\) = -1.0 is trivial"),
    ("_r4", 64, 2, 7, 1.0, r"ratio4\(64,2,7\) = 1.0 is trivial"),
])
def test_validate_names_the_one_bent_ratio(row, m, j, k, v, message):
    tab = ScaleTables(256)
    ratios = getattr(tab.level(m), _RATIOS[row])
    (ratios if j is None else ratios[j])[k] = v
    with pytest.raises(TableError, match=message):
        tab.validate()


def test_validate_names_the_one_bent_scale():
    tab = ScaleTables(256)
    tab.level(512).s[37] *= 1 + 1e-12  # s(512, q - k) for m = 256, q = 64, k = 27
    with pytest.raises(TableError, match=r"identity violated: s\(512,37\) vs s\(512,91\)"):
        tab.validate()


def test_validate_reports_the_first_failure_by_level_bin_and_check():
    # two bent entries at a time: the message names the first in the order
    # of (m, k, check)
    tab = ScaleTables(256)
    tab.level(512).s[37] *= 1 + 1e-12  # read by level 256's identities
    tab.level(64).ratio2a[5] = 0.0
    with pytest.raises(TableError, match=r"ratio2a\(64,5\) = 0.0 is trivial"):
        tab.validate()
    tab = ScaleTables(256)
    tab.level(64).ratio4[2, 3] = 1.0  # ratio4 is checked after ratio2b, but k = 3 < 7
    tab.level(64).ratio2b[7] = -1.0
    with pytest.raises(TableError, match=r"ratio4\(64,2,3\) = 1.0 is trivial"):
        tab.validate()


@pytest.mark.parametrize("form", ["c + i", "-(1 + i*c)"])
def test_table_build_refuses_a_twiddle_loop_t_factor_of_another_form(form):
    # the row kernels multiply by every twiddle-loop t-factor as 1 + i*c;
    # t(64, 3) (level 64's t-factors start at 64/4 - 1 in the build's
    # concatenation) is bent into another unit-component form
    i, build_coef = 64 // 4 - 1 + 3, scale_factors._t_coef

    def bent(re, im, low):
        re, im = re.copy(), im.copy()
        if form == "c + i":
            re[i], im[i] = im[i], 1.0
        else:
            re[i], im[i] = -re[i], -im[i]
        return build_coef(re, im, low)

    with mock.patch.object(scale_factors, "_t_coef", bent):
        with pytest.raises(TableError, match=r"t\(64,3\) = .* is not 1 \+ i\*coef"):
            ScaleTables(64)


def test_table_set_at_65536_holds_arrays_only():
    # the row kernels and the transposed rows read the level arrays in
    # place: first calls on a fresh set, and the public rescaled real DFTs,
    # which run as rows at this size, make no scalar level
    n = 1 << 16
    x = rng(45, n).standard_normal(n)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tab = ScaleTables(n)
        built = tracemalloc.get_traced_memory()[0] - before
        dct2_new(x, tables=tab)
        dct3_new(x, tables=tab)
        called = tracemalloc.get_traced_memory()[0] - before
        rfft_scaled(x, 0, tab)
        rfft_scaled4(x, tab)
        public = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert max(built, called, public) <= 8 << 20, (built, called, public)
    assert tab._scalars == {}


def test_scalar_levels_are_made_once_under_threads():
    # four threads read every level of a fresh set at once; each gets the
    # one level of lists stored for it
    n = 1024
    tab = ScaleTables(n)
    levels = list(_levels(4, 4 * n))

    def read(start):
        start.wait()
        return [tab.scalars(m) for m in levels]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads switch often, so first reads race
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            seen = list(pool.map(read, [threading.Barrier(4)] * 4))
    finally:
        sys.setswitchinterval(switch)
    assert sorted(tab._scalars) == levels
    for got in seen:
        assert all(lv is tab._scalars[m] for lv, m in zip(got, levels))
