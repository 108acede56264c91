import math

import numpy as np
import pytest
from conftest import max_rel, rng

from fastdcst import (
    Normalization,
    embed_4n,
    naive_dct2,
    naive_dct3,
    naive_dst2,
    naive_dst3,
    naive_dft,
)
from fastdcst import oracle
from fastdcst.oracle import _CHUNK_ENTRIES, _Accumulator, _quarter_wave, _roots
from fastdcst.scale_factors import CACHED_SIZES


def test_dft_identity_and_constants():
    assert naive_dft([3 + 4j]) == pytest.approx([3 + 4j])
    got = naive_dft([1.0] * 8)
    assert got[0] == pytest.approx(8.0)
    assert np.max(np.abs(got[1:])) < 1e-14


def test_dft_impulse_at_one():
    got = naive_dft([0, 1, 0, 0])
    want = [1, -1j, -1, 1j]
    assert np.max(np.abs(got - np.array(want))) < 1e-15


@pytest.mark.parametrize("n", [1, 2, 3, 8, 12, 31])
def test_dft_matches_numpy(n):
    g = rng(10, n)
    x = g.standard_normal(n) + 1j * g.standard_normal(n)
    assert max_rel(naive_dft(x), np.fft.fft(x)) < 1e-12


def test_dct2_impulse():
    n = 8
    got = naive_dct2([1.0] + [0.0] * (n - 1))
    want = [2 * math.cos(math.pi * k / (2 * n)) for k in range(n)]
    assert max_rel(got, want) < 1e-15


def test_dct2_zeros():
    assert np.all(naive_dct2([0.0] * 8) == 0.0)


def test_embed_4n_layout():
    out = embed_4n([1.5, -2.5])
    assert list(out) == [0.0, 1.5, 0.0, -2.5, 0.0, -2.5, 0.0, 1.5]
    x = rng(11).standard_normal(8)
    e = embed_4n(x)
    n4 = len(e)
    assert n4 == 32
    for j in range(1, n4):
        assert e[n4 - j] == e[j]
    assert np.all(e[0::2] == 0.0)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32])
def test_dct2_equals_prefix_of_4n_dft(n):
    x = rng(12, n).standard_normal(n)
    spectrum = naive_dft(embed_4n(x))
    assert max_rel(naive_dct2(x), spectrum[:n].real) < 1e-12
    assert np.max(np.abs(spectrum[:n].imag)) < 1e-10 * max(1.0, np.max(np.abs(x)))


def test_dct3_is_dct2_transpose():
    n = 64
    m2 = np.array([naive_dct2(row) for row in np.eye(n)]).T
    m3 = np.array([naive_dct3(row) for row in np.eye(n)]).T
    assert np.max(np.abs(m3 - m2.T)) < 1e-13 * np.max(np.abs(m2))


def test_dst_definitions_by_direct_sum():
    # independent check straight from the sine sums, slot j <-> k = j + 1
    n = 8
    x = rng(13).standard_normal(n)
    want2 = [
        2 * sum(x[i] * math.sin(math.pi / n * (i + 0.5) * k) for i in range(n))
        for k in range(1, n + 1)
    ]
    assert max_rel(naive_dst2(x), want2) < 1e-13
    want3 = [
        2 * sum(x[m - 1] * math.sin(math.pi / n * m * (k + 0.5)) for m in range(1, n + 1))
        for k in range(n)
    ]
    assert max_rel(naive_dst3(x), want3) < 1e-13


def test_unitary_matrices_are_orthogonal():
    n = 8
    for fn in (naive_dct2, naive_dct3, naive_dst2, naive_dst3):
        m = np.array(
            [fn(row, Normalization.UNITARY) for row in np.eye(n)]
        ).T
        assert np.max(np.abs(m.T @ m - np.eye(n))) < 1e-13


def test_compensated_dct2_matches_fft_of_4n_embedding():
    # an O(N log N) second reference for the compensated oracle
    n = 4096
    x = rng(14).standard_normal(n)
    want = np.fft.rfft(embed_4n(x))[:n].real
    assert max_rel(naive_dct2(x), want) < 1e-12


def test_oracle_caches_stay_bounded():
    lengths = range(3, 3 + 3 * CACHED_SIZES)  # any length is accepted
    x0 = rng(60).standard_normal(lengths[0])
    first = naive_dft(x0), naive_dct2(x0)
    for n in lengths:
        x = rng(61, n).standard_normal(n)
        naive_dft(x)
        naive_dct2(x)
        assert _roots.cache_info().currsize <= 2 * CACHED_SIZES
        assert _quarter_wave.cache_info().currsize <= CACHED_SIZES
    misses = _roots.cache_info().misses
    again = naive_dft(x0), naive_dct2(x0)
    assert _roots.cache_info().misses > misses  # the first length was evicted
    for a, b in zip(first, again):
        assert a.tobytes() == b.tobytes()


def test_accumulator_matches_ordered_neumaier():
    # TwoSum yields each addition's exact rounding error, the same term as
    # Neumaier's magnitude-ordered form, so both sums agree bit for bit
    n = 256
    g = rng(15)
    acc = _Accumulator(n)
    s, c = np.zeros(n), np.zeros(n)
    for step in range(300):
        term = g.standard_normal(n) * 10.0 ** g.integers(-12, 12, n)
        term[step % 7::7] = -s[step % 7::7]  # exact cancellations
        t = s + term
        big = np.abs(s) >= np.abs(term)
        c += np.where(big, (s - t) + term, (term - t) + s)
        s = t
        acc.add(term)
    got = acc.value()
    assert np.array_equal(got, s + c)
    assert np.array_equal(np.signbit(got), np.signbit(s + c))


_KINDS = (naive_dct2, naive_dct3, naive_dst2, naive_dst3)
_ALL_NORMS = tuple(Normalization)


@pytest.mark.parametrize("n, rows", [
    *((n, rows) for n in (2, 3, 4, 8, 16, 32, 64, 100, 128) for rows in (1, 2, 3, 7)),
    (256, 7), (512, 3), (1024, 2),  # each per-signal sum costs O(N^2)
])
def test_batched_oracles_equal_the_per_signal_oracle_bitwise(n, rows):
    # one sum over every row and norm: each element sees the float operations
    # of the one-signal, one-norm sum, in its order
    g = rng(70, n, rows)
    xr = g.standard_normal((rows, n))
    xc = g.standard_normal((rows, n)) + 1j * g.standard_normal((rows, n))
    for fn in _KINDS:
        got = fn(xr, _ALL_NORMS)
        assert got.shape == (len(_ALL_NORMS), rows, n)
        for norm, block in zip(_ALL_NORMS, got):
            assert block.tobytes() == fn(xr, norm).tobytes()  # one norm, all rows
            for x, want in zip(xr, block):
                assert want.tobytes() == fn(x.copy(), norm).tobytes()
    for xs in (xc, xr):  # complex rows, and real rows read as complex
        got = naive_dft(xs)
        assert got.shape == (rows, n) and got.dtype == complex
        for x, want in zip(xs, got):
            assert want.tobytes() == naive_dft(x.copy()).tobytes()


def _cos_sum_per_step(xs, phases_for, weights, use_sin):
    # the reference form of oracle._cos_sum: each step forms its weighted
    # inputs and gathers its trig row on its own
    rows, n = xs.shape
    cos_t, sin_t = _quarter_wave(4 * n)
    table = sin_t if use_sin else cos_t
    acc = _Accumulator((len(weights), rows, n))
    ks = np.arange(n, dtype=np.int64)
    for j in range(n):
        idx = phases_for(j, ks) % (4 * n)
        acc.add((weights[:, j, None] * xs[:, j])[..., None] * table[idx])
    return acc.value()


@pytest.mark.parametrize("n, chunks", [(1024, 16), (700, 8), (5, 1)])
def test_chunked_trig_sum_equals_the_per_step_sum_bitwise(n, chunks, monkeypatch):
    # 1024 spans whole chunks, 700 ends on a partial one, 5 is one chunk
    assert -(-n // max(1, _CHUNK_ENTRIES // n)) == chunks
    xr = rng(73, n).standard_normal((2, n))
    chunked = [fn(xr, _ALL_NORMS) for fn in _KINDS]
    monkeypatch.setattr(oracle, "_cos_sum", _cos_sum_per_step)
    for fn, got in zip(_KINDS, chunked):
        assert got.tobytes() == fn(xr, _ALL_NORMS).tobytes()


def test_accumulator_on_a_block_equals_a_run_per_row():
    g = rng(71)
    terms = g.standard_normal((200, 3, 64)) * 10.0 ** g.integers(-12, 12, (200, 3, 64))
    block = _Accumulator((3, 64))
    rows = [_Accumulator(64) for _ in range(3)]
    for term in terms:
        block.add(term)
        for acc, t in zip(rows, term):
            acc.add(t.copy())
    got = block.value()
    for r, acc in enumerate(rows):
        assert got[r].tobytes() == acc.value().tobytes()


@pytest.mark.parametrize("fn", _KINDS + (naive_dft,))
def test_one_signal_gives_one_row(fn):
    x = rng(72).standard_normal(8)
    assert fn(x).shape == (8,)
    assert fn(list(x)).shape == (8,)
    assert fn(x[None]).shape == (1, 8)
    if fn is not naive_dft:
        assert fn(x, _ALL_NORMS[:2]).shape == (2, 8)
        assert fn(x, (Normalization.UNITARY,)).shape == (1, 8)
        assert fn(x[None], _ALL_NORMS).shape == (3, 1, 8)
    with pytest.raises(ValueError, match="2-D block"):
        fn(np.zeros((2, 2, 8)))
