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

from fastdcst import build_tables, dct2_new, dct3_new, scale, scale_factors, t_factor, unit_root
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


def _decode_t_struct(struct):
    # (unit_re, sign, coef): sign * (1 + i*coef) or sign * (coef + i)
    unit_re, sign, coef = struct
    return sign * (complex(1.0, coef) if unit_re else complex(coef, 1.0))


def test_unit_component_form_of_stored_t():
    tab = build_tables(256)
    for m in _levels(4, 256):  # the levels read
        for k in range(m // 4):
            ts, tcs = tab.t_struct(m, k)
            t = t_factor(m, k)
            assert abs(_decode_t_struct(ts) - t) < 1e-12, (m, k)
            assert abs(_decode_t_struct(tcs) - t.conjugate()) < 1e-12, (m, k)
        with pytest.raises(IndexError):
            tab.t_struct(m, m // 4)
    with pytest.raises(KeyError):
        tab.t_struct(512, 0)


def test_build_tables_basics():
    tab1 = build_tables(1)
    with pytest.raises(KeyError):
        tab1.t_struct(4, 0)
    tab = build_tables(16)
    # invariant replay on the stored s entries
    for m in _levels(8, 64):
        q = m // 4
        for k in range(q):
            assert tab.s(m, k) > 0.0
            assert tab.s(m, k + q) == tab.s(m, k)
            assert tab.s(m, q - k) == pytest.approx(tab.s(m, k), rel=1e-13)
    c0, ch, re, im = build_tables(64).dct_stage("two-sided")
    assert (re[0], im[0]) == (2.0, 0.0)


def test_tables_match_recursive_scale():
    # bottom-up memoized tables vs the top-down recurrence
    tab = build_tables(512)
    for m in _levels(8, 2048):
        for k in range(m // 4):
            top_down = scale(m, k)
            assert abs(tab.s(m, k) - top_down) <= 1e-15 * top_down


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


def _t_structs_of(t):
    # the (unit_re, sign, coef) pair of t and conj(t), one scalar at a time
    if abs(abs(t.real) - 1.0) <= abs(abs(t.imag) - 1.0):
        sign = 1.0 if t.real > 0 else -1.0
        return (True, sign, t.imag * sign), (True, sign, -(t.imag * sign))
    sign = 1.0 if t.imag > 0 else -1.0
    return (False, sign, t.real * sign), (False, -sign, -(t.real * sign))


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
        lv = tab.level(m)
        want = _bits(scale(m, k) for k in range(q))
        assert _bits(lv.s) == want == _bits(tab.s(m, k) for k in range(q)), m
        if m > n:  # the kernels read levels 4 .. n only
            assert lv[1:] == (None,) * 4
            continue
        # t-factors, their coefs in the arrays, and as tuples
        ts = [_t_structs_of(t_factor(m, k)) for k in range(q)]
        assert _bits(lv.coef) == _bits(t[0][2] for t in ts), m
        assert repr([tab.t_struct(m, k) for k in range(q)]) == repr(ts), m
        for name, denominators in (("ratio2a", range(q)), ("ratio2b", range(q, 2 * q))):
            want = _bits(scale(m, k) / scale(2 * m, d) for k, d in enumerate(denominators))
            accessor = getattr(tab, name)
            assert _bits(getattr(lv, name)) == want == _bits(accessor(m, k) for k in range(q))
        for j in range(4):
            want = _bits(scale(m, k) / scale(4 * m, k + j * q) for k in range(q))
            assert _bits(lv.ratio4[j]) == want == _bits(tab.ratio4(m, j, k) for k in range(q))
    if n >= 2:
        assert tab.inv_s8_1 == 1.0 / scale(8, 1)
        tan = [-_t_structs_of(t_factor(top, k))[0][2] for k in range(1, n // 2)]
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


def _scalar_lists(tab):
    return tab._s, tab._t, tab._r2a, tab._r2b, tab._r4


def test_table_set_at_65536_holds_arrays_only():
    # the row kernels and the transposed rows read the level arrays in
    # place: first calls on a fresh set make no scalar level
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
    finally:
        tracemalloc.stop()
    assert built <= 8 << 20 and called <= 8 << 20, (built, called)
    assert _scalar_lists(tab) == ({},) * 5


def test_scalar_levels_are_made_once_under_threads():
    # four threads read every scalar level of a fresh set at once; each
    # reads the floats of the one list stored per level
    n = 1024
    tab = ScaleTables(n)

    def read(start=None):
        if start is not None:
            start.wait()
        got = {}
        for m in _levels(4, n):
            for k in range(m // 4):
                got[m, k] = (tab.s(m, k), tab.t_struct(m, k), tab.ratio2a(m, k),
                             tab.ratio2b(m, k), *(tab.ratio4(m, j, k) for j in range(4)))
        for m in _levels(2 * n, 4 * n):
            got.update(((m, k), (tab.s(m, k),)) for k in range(m // 4))
        return got

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads switch often, so first reads race
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            seen = list(pool.map(read, [threading.Barrier(4)] * 4))
    finally:
        sys.setswitchinterval(switch)
    assert [sorted(d) for d in _scalar_lists(tab)] == [list(_levels(4, 4 * n))] + [
        list(_levels(4, n))] * 4
    stored = read()
    for got in seen:
        assert got.keys() == stored.keys()
        for key, values in got.items():
            assert all(a is b for a, b in zip(values, stored[key])), key
