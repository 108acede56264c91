import hashlib
from functools import partial

import numpy as np
import pytest
from conftest import max_rel, rng

from fastdcst import (
    FlopLedger,
    Normalization,
    ScaleTables,
    dct3_new,
    dst3_new,
    fft_conjpair,
    fft_scaled,
    fft_scaled4,
    formula_M,
    formula_MS,
    formula_new_dct2,
    formula_splitradix_real,
    naive_dft,
    rfft_conjpair,
    rfft_scaled,
    rfft_scaled4,
    scale,
    scale_factors,
    unit_root,
)
from fastdcst.dct2 import _classic_state
from fastdcst.fft_real import (
    _rfft_scaled_lanes,
    _rfft_scaled_rows,
    _rfft_scaled_rows_T,
    _rfft_std_lanes,
    _rfft_std_rows,
    pack_lanes,
)
from fastdcst.transpose_net import record_rows
from fastdcst.trig_family import _transposed_spectrum_net


def test_constant_input_dc_only():
    c = 0.75
    spec = rfft_conjpair([c] * 8)
    assert spec.bins == (8 * c + 0j, 0j, 0j, 0j, 0j)


def test_ledger_16():
    led = FlopLedger()
    rfft_conjpair([0.0] * 16, led)
    assert led.total() == 70  # 2*16*4 - 64 + 6


def test_scaled_ledger_16(tables1024):
    led = FlopLedger()
    rfft_scaled([0.0] * 16, 1, tables1024, led)
    assert led.total() == 70 - formula_MS(16) // 2 == 68


def test_scaled_ledger_64(tables1024):
    # rfft count 2*64*6 - 256 + 6 = 518, minus MS(64)/2 = 20
    led = FlopLedger()
    rfft_scaled([0.0] * 64, 1, tables1024, led)
    assert formula_splitradix_real(64) == 518
    assert led.total() == 518 - 20


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096])
def test_ledger_exactness(n):
    from fastdcst import build_tables

    tab = build_tables(n)
    led = FlopLedger()
    rfft_conjpair([0.0] * n, led)
    assert led.total() == formula_splitradix_real(n)
    led0 = FlopLedger()
    rfft_scaled([0.0] * n, 0, tab, led0)
    assert led0.total() == formula_splitradix_real(n) - formula_M(n) // 2
    led1 = FlopLedger()
    rfft_scaled([0.0] * n, 1, tab, led1)
    assert led1.total() == formula_splitradix_real(n) - formula_MS(n) // 2


def test_full_spectrum_matches_complex_fft():
    n = 64
    x = rng(30).standard_normal(n)
    full = rfft_conjpair(x).full_spectrum()
    assert max_rel(full, fft_conjpair(x)) < 1e-12


@pytest.mark.parametrize("n", [4, 16, 64, 256, 1024])
def test_conjugate_symmetry_closure(n):
    # extend by conjugation, invert with the naive DFT, recover the input
    x = rng(31, n).standard_normal(n)
    full = np.array(rfft_conjpair(x).full_spectrum())
    recovered = np.conj(naive_dft(np.conj(full))) / n
    assert np.max(np.abs(recovered - x)) < 1e-11 * max(1.0, np.max(np.abs(x)))
    assert np.max(np.abs(recovered.imag)) < 1e-11


def test_boundary_bins_are_real():
    x = rng(32).standard_normal(32)
    spec = rfft_conjpair(x)
    assert spec.bins[0].imag == 0.0
    assert spec.bins[16].imag == 0.0


def test_level0_matches_conjpair(tables1024):
    x = rng(33).standard_normal(128)
    got = rfft_scaled(x, 0, tables1024)
    want = rfft_conjpair(x)
    assert max_rel(got.bins, want.bins) < 1e-12


@pytest.mark.parametrize("n", [4, 8, 16, 64, 256])
@pytest.mark.parametrize("level", [1, 2])
def test_scaled_bins_relation(n, level, tables1024):
    x = rng(34, n, level).standard_normal(n)
    want = np.array(rfft_conjpair(x).bins)
    got = np.array(rfft_scaled(x, level, tables1024).bins)
    diag = np.array([scale(level * n, k) for k in range(n // 2 + 1)])
    assert np.max(np.abs(got * diag - want)) < 1e-11 * np.max(np.abs(want))


def test_scaled4_impulse(tables1024):
    n = 8
    got = rfft_scaled4([1.0] + [0.0] * (n - 1), tables1024)
    want = [1.0 / scale(4 * n, k) for k in range(n // 2 + 1)]
    assert max_rel(got.bins, want) < 1e-13


def test_scaled4_zeros(tables1024):
    got = rfft_scaled4([0.0] * 16, tables1024)
    assert all(v == 0j for v in got.bins)


@pytest.mark.parametrize("n", [8, 32, 256])
def test_scaled4_matches_conjpair(n, tables1024):
    x = rng(35, n).standard_normal(n)
    want = np.array(rfft_conjpair(x).bins)
    got = np.array(rfft_scaled4(x, tables1024).bins)
    diag = np.array([scale(4 * n, k) for k in range(n // 2 + 1)])
    assert np.max(np.abs(got * diag - want)) < 1e-11 * np.max(np.abs(want))


def test_shared_twiddle_identity():
    # unit_root(+-(N/4 - k), N) == -+i * unit_root(-+k, N)
    for n in (8, 16, 64, 256):
        for k in range(n // 4):
            lhs = unit_root(n // 4 - k, n)
            rhs = -1j * unit_root(-k % n, n)
            assert abs(lhs - rhs) < 1e-15
            lhs2 = unit_root(-(n // 4 - k) % n, n)
            rhs2 = 1j * unit_root(k, n)
            assert abs(lhs2 - rhs2) < 1e-15


def test_rejects_bad_length(tables1024):
    with pytest.raises(ValueError):
        rfft_conjpair([0.0] * 6)
    with pytest.raises(ValueError):
        rfft_scaled([0.0] * 8, 5, tables1024)


# ------------------------------------------ the row recursion, breadth first

ROW_SIZES = [1 << e for e in range(1, 13)] + [1 << 14, 1 << 16]


def _rows_of(n, count, seed):
    # count rows of n samples, with signed zeros among them
    x = rng(36, n, seed).standard_normal((count, n))
    x[:, ::5] = 0.0
    x[:, 2::7] = -0.0
    return x


@pytest.mark.parametrize("n", ROW_SIZES)
def test_row_recursion_equals_the_scalar_one_bitwise(n):
    # every rescaled variant and the plain DFT, on a block of one row and on
    # a block of several: each row's lanes are the scalar recursion's, bit
    # for bit, and the block's ledger is the sum of the rows' ledgers
    tab, twiddles = ScaleTables(n), _classic_state(n).twiddles
    x = _rows_of(n, 3 if n <= 4096 else 2, 0)
    kernels = [(f"rescaled{typ}", partial(_rfft_scaled_lanes, typ, tab=tab),
                partial(_rfft_scaled_rows, typ, tab=tab)) for typ in (0, 1, 2, 4)]
    kernels.append(("plain", _rfft_std_lanes, partial(_rfft_std_rows, twiddles=twiddles)))
    for name, lanes, rows in kernels:
        want, leds = [], []
        for row in x:
            leds.append(FlopLedger())
            want.append(pack_lanes(*lanes(x=row.tolist(), led=leds[-1])))
        want = np.array(want)
        for block in (x[:1], x):
            led = FlopLedger()
            got = rows(x=block, led=led)
            assert got.tobytes() == want[:len(block)].tobytes(), (name, len(block))
            assert led.as_tuple() == tuple(np.sum([l.as_tuple() for l in leds[:len(block)]], axis=0)), name


# -------------------------------------- the transposed rows, breadth first


def _hard_rows(n, count, seed):
    # rows whose sums cancel exactly and meet signed zeros: small integers,
    # zeros of either sign and of random signs, a unit impulse, and normals
    # with zeros among them
    x = rng(37, n, seed)
    rows = [x.integers(-1, 2, n).astype(float), np.zeros(n), -np.zeros(n),
            np.where(x.random(n) < 0.5, 0.0, -0.0), np.eye(1, n, n // 3)[0]]
    return np.concatenate((np.array(rows), _rows_of(n, count, seed)))


@pytest.mark.parametrize("n", [1 << e for e in range(0, 11)])
def test_transposed_rows_are_the_transposed_recording_bitwise(n):
    # every rescaled variant, on a block of rows: each row's adjoints are
    # what the transpose of the forward rows' recording gives, bit for bit
    # (signed zeros too), and the ledger is the forward rows' ledger
    tab = ScaleTables(max(n, 2))
    y = _hard_rows(n, 2, 1)
    for typ in (0, 1, 2, 4):
        rec = FlopLedger()
        net = record_rows(lambda ins: _rfft_scaled_rows(typ, ins[None], tab, rec), n).transpose()
        led, forward = FlopLedger(), FlopLedger()
        got = _rfft_scaled_rows_T(typ, y, tab, led)
        assert got.tobytes() == np.array([net.eval(row) for row in y]).tobytes(), typ
        _rfft_scaled_rows(typ, y, tab, forward)
        assert led == forward and net.structural_flops() == rec.as_tuple(), typ


@pytest.mark.parametrize("n", [1 << e for e in range(9, 16)])
def test_transposed_rows_are_the_cached_transposed_network_bitwise(n):
    # from ROWS_MIN_SIZE to NET_MAX_SIZE a DCT-III's first call runs the
    # transposed rows and its later calls _transposed_spectrum_net(n)
    try:
        tab = ScaleTables(n)
        y = _hard_rows(n, 1, 2)
        got = _rfft_scaled_rows_T(1, y, tab, FlopLedger())
        net = _transposed_spectrum_net(n)
        assert got.tobytes() == np.array([net.eval(row) for row in y]).tobytes()
    finally:
        _transposed_spectrum_net.cache_clear()
        scale_factors._cached_tables.cache_clear()


@pytest.mark.parametrize("n", [1 << e for e in range(9, 18)])
def test_transposed_rows_ledger_is_the_closed_form(n):
    # the rows' ledger, and under every norm that of the DCT-III/DST-III
    # first calls that run them
    tab = ScaleTables(n)
    y = rng(38, n).standard_normal((1, n))
    led, forward = FlopLedger(), FlopLedger()
    _rfft_scaled_rows_T(1, y, tab, led)
    _rfft_scaled_rows(1, y, tab, forward)
    assert led == forward
    assert led.total() == formula_splitradix_real(n) - formula_MS(n) // 2
    for norm in Normalization:
        saving = 2 if norm is Normalization.UNITARY_SQRT_N else 0
        leds = [FlopLedger(), FlopLedger()]
        dct3_new(y[0], norm, tab, leds[0])
        dst3_new(y[0], norm, tab, leds[1])
        assert leds[0] == leds[1] and leds[0].total() == formula_new_dct2(n) - saving, norm


# ------------------------------------ the public scalar FFTs, pinned bitwise


def _signed_zero_input(n, seed, share):
    # normals with about a share of the samples zeros of random sign
    g = rng(39, n, seed)
    x = g.standard_normal(n)
    zero = g.random(n) < share
    x[zero] = np.where(g.random(n) < 0.5, 0.0, -0.0)[zero]
    return x.tolist()


def _public_scaled_bits():
    # the repr of every output part and ledger of fft_scaled/fft_scaled4 at
    # N = 2 .. 2048 and rfft_scaled/rfft_scaled4 at N = 2 .. 8192, levels
    # 0, 1, 2 and 4, on an input with a third of its samples signed zeros
    # and on one of signed zeros only; the complex ones reach both halves
    # of the twiddle loop, k <= N/8 and k > N/8
    tab = ScaleTables(8192)
    calls = [(fft_scaled, fft_scaled4, 2048, lambda n, share: [complex(a, b) for a, b in zip(
        _signed_zero_input(n, 0, share), _signed_zero_input(n, 1, share))]),
        (rfft_scaled, rfft_scaled4, 8192, lambda n, share: _signed_zero_input(n, 2, share))]
    parts = []
    for scaled, scaled4, top, make in calls:
        for e in range(1, top.bit_length()):
            for share in (1 / 3, 1.0):
                x = make(1 << e, share)
                for level in (0, 1, 2, 4):
                    led = FlopLedger()
                    out = scaled4(x, tab, led) if level == 4 else scaled(x, level, tab, led)
                    parts.append(repr(([(v.real, v.imag) for v in out], led.as_tuple())))
    return "\n".join(parts)


# sha256 of _public_scaled_bits()
PUBLIC_SCALED_SHA256 = "f297a5675aaea7f9e031488942fee7bb124eb15ea0a4b146924a9ac9736a3e05"


def test_public_scaled_ffts_are_pinned_bitwise():
    digest = hashlib.sha256(_public_scaled_bits().encode()).hexdigest()
    assert digest == PUBLIC_SCALED_SHA256
