"""DCT-III, DST-II and DST-III at the DCT-II flop count.

The DCT-III matrix is the transpose of the DCT-II matrix, so the fast
DCT-III runs the DCT-II algorithm backwards: first the transposed output
stage (the DCT-II's rotation, folded with the scale factors, applied to
input pairs x[k], x[N-k]), then the *transposed* rescaled real DFT, then
the even/odd de-interleave.  The middle stage is obtained mechanically, in
two forms with the same bits.  The real-input rescaled DFT is recorded as a
linear network over real lanes (from its breadth-first row recursion, see
:mod:`fastdcst.fft_real`) and transposed edge by edge
(:func:`_transposed_spectrum_net`).  The forward network is the one the
DCT-II and DST-II kernels run from a configuration's second call on above
``dct2.PLAN_MAX_SIZE``, kept on the size's shared tables, so one recording
serves both directions.  A DCT-III configuration runs the transposed
network from its second call on up to ``dct2.NET_MAX_SIZE``, and on its
first call too below ``dct2.ROWS_MIN_SIZE``.  From ROWS_MIN_SIZE on, a
first call (and above NET_MAX_SIZE every call) runs the row recursion
backwards instead (``fft_real._rfft_scaled_rows_T``), which gives the
transposed network's bits on finite input without recording, transposing
or compiling it: about 3 ms at N=4096, as the DCT-II's first call, against
30-80 ms for a first call that makes the network.  Both networks are
compacted as they are made (the transpose reverses the compacted forward
network and compacts the reversal) and keep their vertices in evaluation
order (every edge runs to a higher vertex id) with their edges in numpy
columns.  From N=128 on the transposed network has more than
``transpose_net.PROGRAM_MIN_EDGES`` edges and runs as a vertex-major numpy
program, built on its first evaluation; from then on the program's columns
are the network's only copy of its edges.  Smaller ones run as a codelet,
straight-line Python compiled from the network.  These kernels run on
arrays too (see :mod:`fastdcst.dct2`); from N=128 on the array goes
through the transposed program or rows and back as it is.
Edge reversal preserves both operation counts for square networks, which
is what guarantees flop parity with the DCT-II without hand-deriving a
decimation-in-frequency kernel.  Like the DCT-II kernels, all three
public transforms run repeated calls at N <= 16 as plans (see
:mod:`fastdcst.dct2`): a DCT-III plan records the spectrum network
through its codelet, so the whole kernel is again one straight-line
function.

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
    _planned,
    _prep,
    _rotate,
    _spectrum_net,
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
    """Transposed rescaled real DFT of size n, as a network in evaluation order.

    Lane layout on the transposed inputs matches the forward outputs:
    [z0, re(z1), im(z1), ..., re(z_{N/2-1}), im(z_{N/2-1}), z_{N/2}].
    """
    return _spectrum_net(sf.build_tables(n)).transpose()


def _transposed_net(tab):
    # the network a DCT-III/DST-III runs from its second call on
    return _transposed_spectrum_net(tab.size)


def _dct3_new_lanes(xs, norm_key, tab, led, net=None):
    # the transposed real DFT runs as net if given, else as rows from
    # ROWS_MIN_SIZE on (a first call, or any call above NET_MAX_SIZE) and
    # as the transposed network below it
    n = len(xs)
    h = n // 2
    z = np.empty_like(xs)
    z[0], z[n - 1], z[1:n - 1:2], z[2:n - 1:2] = _rotate(
        tab.dct_stage(norm_key), led, xs[0], xs[h], xs[1:h], xs[n - 1:h:-1])
    if net is None and n < ROWS_MIN_SIZE:
        net = _transposed_spectrum_net(n)
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


def dct3_new(
    x,
    norm: Normalization = Normalization.TWO_SIDED,
    tables: ScaleTables | None = None,
    ledger: FlopLedger | None = None,
):
    """DCT-III (the transpose of :func:`~fastdcst.dct2.dct2_new`).

    Under UNITARY normalization this is the inverse of the unitary
    DCT-II.  Ledger equals the dct2_new ledger component-wise.
    """
    xs, tab = _prep(x, tables)
    led = ledger if ledger is not None else FlopLedger()
    key = norm.value
    return _planned(tab, ("dct3_new", key), xs, led, _dct3_new_lanes, key, tab,
                    network=_transposed_net)


def dst2_new(
    x,
    norm: Normalization = Normalization.TWO_SIDED,
    tables: ScaleTables | None = None,
    ledger: FlopLedger | None = None,
):
    """DST-II; output slot j holds the sine coefficient for k = j + 1."""
    xs, tab = _prep(x, tables)
    led = ledger if ledger is not None else FlopLedger()
    key = norm.value
    return _planned(tab, ("dst2_new", key), xs, led, _dst2_new_lanes, key, tab,
                    network=_spectrum_net)


def dst3_new(
    x,
    norm: Normalization = Normalization.TWO_SIDED,
    tables: ScaleTables | None = None,
    ledger: FlopLedger | None = None,
):
    """DST-III; input slot j is interpreted as sample j + 1."""
    xs, tab = _prep(x, tables)
    led = ledger if ledger is not None else FlopLedger()
    key = norm.value
    return _planned(tab, ("dst3_new", key), xs, led, _dst3_new_lanes, key, tab,
                    network=_transposed_net)
