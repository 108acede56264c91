"""DCT-III, DST-II and DST-III at the DCT-II flop count.

The DCT-III matrix is the transpose of the DCT-II matrix, so the fast
DCT-III runs the DCT-II algorithm backwards: first the transposed output
stage (the DCT-II's rotation, folded with the scale factors, applied to
input pairs x[k], x[N-k]), then the *transposed* rescaled real DFT, then
the even/odd de-interleave.  The middle stage is obtained mechanically, in
two forms with the same bits on finite input.  The network of the rescaled
real DFT, which the forward kernels run (recorded from its breadth-first
row recursion, see :mod:`fastdcst.fft_real`), is transposed edge by edge
(:func:`_transposed_net`), and runs below ``dct2.ROWS_MIN_SIZE`` and on
later calls up to ``dct2.NET_MAX_SIZE``: as a vertex-major numpy program
from N=128 on, as a codelet below.  A first call from ROWS_MIN_SIZE on,
and every call above NET_MAX_SIZE, runs the row recursion backwards
instead (``fft_real._rfft_scaled_rows_T``), which records, transposes and
compiles nothing: about 3 ms at N=4096, against 30-80 ms for a first call
that makes the network.  Edge reversal preserves both operation counts for
square networks, which is what guarantees flop parity with the DCT-II
without hand-deriving a decimation-in-frequency kernel.  All three
transforms take the call path of :mod:`fastdcst.dct2`, plans included.

The sine transforms are index/sign relabelings of the cosine ones:

* DST-II: negate every odd-indexed input, run the DCT-II, reverse the
  outputs (slot j of the result holds the k = j+1 sine coefficient);
* DST-III: reverse the inputs (slot j holds sample j+1), run the DCT-III,
  negate every odd-indexed output.

Sign flips and reversals are free under the counting convention, so all
four transforms produce identical ledgers.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import scale_factors as sf
from .dct2 import (
    ROWS_MIN_SIZE,
    Normalization,
    _dct2_new_lanes,
    _Kernel,
    _rotate,
    _spectrum_net,
    _transform,
)
from .fft_real import _rfft_scaled_rows_T
from .flops import FlopLedger
from .scale_factors import ScaleTables

# perfbench's span hooks look these two names up in this module
from .fft_real import half_spectrum_lanes  # noqa: F401
from .transpose_net import record  # noqa: F401

__all__ = ["dct3_new", "dst2_new", "dst3_new"]


@lru_cache(maxsize=sf.CACHED_SIZES)
def _transposed_spectrum_net(n):
    """Transposed rescaled real DFT of the cached size-n tables, as a network.

    Lane layout on the transposed inputs matches the forward outputs:
    [z0, re(z1), im(z1), ..., re(z_{N/2-1}), im(z_{N/2-1}), z_{N/2}].
    """
    return _spectrum_net(sf.build_tables(n)).transpose()


def _transposed_net(tab):
    """The transposed real DFT of ``tab`` as a network: the shared
    :func:`_transposed_spectrum_net` for the cached table set, and for any
    other set the transpose of its own spectrum network, kept in its
    ``plans``, so every call on a set a caller built or altered reads it."""
    if tab is sf.build_tables(tab.size):
        return _transposed_spectrum_net(tab.size)
    net = tab.plans.get("transposed")
    if net is None:
        net = tab.plans["transposed"] = _spectrum_net(tab).transpose()
    return net


def _dct3_new_lanes(xs, norm_key, tab, led, net=None):
    # the transposed real DFT runs as net if given, else as rows from
    # ROWS_MIN_SIZE on (a first call, or any call above NET_MAX_SIZE) and
    # as tab's transposed network below it
    n = len(xs)
    h = n // 2
    z = np.empty_like(xs)
    z[0], z[n - 1], z[1:n - 1:2], z[2:n - 1:2] = _rotate(
        tab.dct_stage(norm_key), led, xs[0], xs[h], xs[1:h], xs[n - 1:h:-1])
    if net is None and n < ROWS_MIN_SIZE:
        net = _transposed_net(tab)
    y = _rfft_scaled_rows_T(1, z[None], tab, led)[0] if net is None else net.eval(z, ledger=led)
    out = np.empty_like(y)
    out[0::2] = y[:h]
    out[1::2] = y[n - 1:h - 1:-1]
    return out


def _dst2_new_lanes(xs, norm_key, tab, led, net=None):
    flipped = xs.copy()
    flipped[1::2] = -xs[1::2]
    return _dct2_new_lanes(flipped, norm_key, tab, led, net)[::-1]


def _dst3_new_lanes(xs, norm_key, tab, led, net=None):
    c = _dct3_new_lanes(xs[::-1], norm_key, tab, led, net)
    c[1::2] = -c[1::2]
    return c


_DCT3_NEW = _Kernel("dct3_new", _dct3_new_lanes, _transposed_net)
_DST2_NEW = _Kernel("dst2_new", _dst2_new_lanes, _spectrum_net)
_DST3_NEW = _Kernel("dst3_new", _dst3_new_lanes, _transposed_net)


def dct3_new(x, norm: Normalization = Normalization.TWO_SIDED,
             tables: ScaleTables | None = None, ledger: FlopLedger | None = None):
    """DCT-III (the transpose of :func:`~fastdcst.dct2.dct2_new`).

    Under UNITARY normalization this is the inverse of the unitary
    DCT-II.  Ledger equals the dct2_new ledger component-wise.
    """
    return _transform(_DCT3_NEW, x, norm._value_, tables, ledger)


def dst2_new(x, norm: Normalization = Normalization.TWO_SIDED,
             tables: ScaleTables | None = None, ledger: FlopLedger | None = None):
    """DST-II; output slot j holds the sine coefficient for k = j + 1."""
    return _transform(_DST2_NEW, x, norm._value_, tables, ledger)


def dst3_new(x, norm: Normalization = Normalization.TWO_SIDED,
             tables: ScaleTables | None = None, ledger: FlopLedger | None = None):
    """DST-III; input slot j is interpreted as sample j + 1."""
    return _transform(_DST3_NEW, x, norm._value_, tables, ledger)
